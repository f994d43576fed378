//! Single-threaded deterministic executor with virtual time.
//!
//! The executor owns a set of tasks (futures), a FIFO ready queue, and a
//! timer heap keyed by virtual time. A run proceeds by draining the ready
//! queue; when nothing is ready, the clock jumps to the earliest timer and
//! the timer fires. Determinism follows from:
//!
//! * a single host thread (no OS scheduling nondeterminism),
//! * FIFO ready-queue order,
//! * a monotonic sequence number breaking ties between equal-time timers.
//!
//! Simulated "threads" are ordinary futures spawned with [`SimHandle::spawn`].
//! Simulated hardware that only ever reacts to "a demand arrived" and "my
//! timer fired" (a [`crate::Core`]) is a [`Resource`]: it takes the same
//! ready-queue and timer positions a driver task would, but the executor
//! calls it directly, with no future to poll and no waker to clone. A
//! resource may not block or run user code, with the one exception of a
//! spin predicate called through `Kernel::inert`.
//!
//! `Kernel::skip_to(t)` moves the clock to `t` when no event can come
//! first: nothing ready, every pending timer strictly later, `t` within
//! the deadline of the `run_until` in progress. It is what popping a timer
//! armed for `t` would do. Two callers rely on it: a spinning core answers
//! its next step boundary with it, and a wait that nothing can interrupt
//! (a [`Sleep`], an `advance` on a free core) completes in place with it
//! and returns `Ready`, so its task runs on inside the same poll instead of
//! pending, arming a timer and being polled again when it fires. That is
//! exact only if the poll would have ended at that `Pending`, which every
//! straight-line `.await` does. Hence the await rule: within one task
//! poll, no simulator wait is polled after another returned `Pending` (no
//! join or select of simulator waits); debug builds assert it.
//!
//! What defines an event's position, and why a spurious poll is one too,
//! is written down in DESIGN.md §12 "What one simulated event costs".

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::time::Nanos;

#[cfg(test)]
thread_local! {
    /// Test hook: no wait completes in place, every one pends and takes
    /// its event — the schedule as it ran before, kept as the oracle of
    /// `inplace_oracle` and `order_oracle`, not as a mode.
    pub(crate) static EVENTED_WAITS: Cell<bool> = const { Cell::new(false) };
}

/// Whether a wait may complete in place: always, unless a test has turned
/// the path off (`EVENTED_WAITS`).
fn in_place_enabled() -> bool {
    #[cfg(test)]
    if EVENTED_WAITS.with(Cell::get) {
        return false;
    }
    true
}

#[cfg(debug_assertions)]
thread_local! {
    /// The await rule's state: `None` outside a task poll, else whether a
    /// simulator wait has returned `Pending` in the task poll in progress.
    static WAIT_PENDED: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Polls a simulator wait under the await rule (module docs): debug
/// builds panic if, in the task poll in progress, another simulator wait
/// has already returned `Pending`. Only while waits may complete in place,
/// since that is what the rule keeps exact.
#[inline]
pub(crate) fn sim_wait<T>(poll: impl FnOnce() -> Poll<T>) -> Poll<T> {
    #[cfg(debug_assertions)]
    let in_task = WAIT_PENDED.with(|p| {
        assert!(
            p.get() != Some(true) || !in_place_enabled(),
            "await rule: a copier-sim wait was polled after another returned Pending \
             in the same task poll (no join or select of simulator waits; DESIGN.md §12)"
        );
        p.get().is_some()
    });
    let out = poll();
    #[cfg(debug_assertions)]
    if in_task && out.is_pending() {
        WAIT_PENDED.with(|p| p.set(Some(true)));
    }
    out
}

/// Identifies a spawned task within one simulation.
pub type TaskId = usize;

/// One ready-queue entry: what the executor runs next.
enum Runnable {
    Task(TaskId),
    /// Index into `Kernel::resources`.
    Resource(usize),
}

/// The ready queue, shared by the kernel, every task waker and every
/// resource port. It points back at none of them, so it closes no cycle.
struct ReadyQueue {
    queue: RefCell<VecDeque<Runnable>>,
    /// The thread that built the `Sim`; see the contract on [`Sim`].
    #[cfg(debug_assertions)]
    owner: std::thread::ThreadId,
}

impl ReadyQueue {
    fn new() -> Rc<Self> {
        Rc::new(ReadyQueue {
            queue: RefCell::new(VecDeque::new()),
            #[cfg(debug_assertions)]
            owner: std::thread::current().id(),
        })
    }

    /// Debug builds: the caller is on the thread that built the `Sim`.
    fn assert_owner(&self) {
        #[cfg(debug_assertions)]
        assert_eq!(
            self.owner,
            std::thread::current().id(),
            "a copier-sim waker left the thread that built its Sim"
        );
    }

    fn push(&self, r: Runnable) {
        self.assert_owner();
        self.queue.borrow_mut().push_back(r);
    }

    fn pop(&self) -> Option<Runnable> {
        self.queue.borrow_mut().pop_front()
    }
}

/// What a task waker points at: the slot to re-enqueue and where.
struct WakeCell {
    id: TaskId,
    ready: Rc<ReadyQueue>,
}

/// A task's waker is an `Rc<WakeCell>` behind the `RawWaker` data pointer:
/// clone and drop are plain counter bumps and wake is a `VecDeque` push.
/// `Waker` is `Send + Sync` by type and an `Rc` is neither; what makes
/// this sound is the single-thread contract documented on [`Sim`], which
/// debug builds assert in every vtable entry.
static TASK_WAKER: RawWakerVTable =
    RawWakerVTable::new(waker_clone, waker_wake, waker_wake_by_ref, waker_drop);

fn task_waker(id: TaskId, ready: &Rc<ReadyQueue>) -> Waker {
    let cell = Rc::new(WakeCell {
        id,
        ready: Rc::clone(ready),
    });
    // SAFETY: the data pointer comes from `Rc::into_raw` of a `WakeCell`,
    // which is what every `TASK_WAKER` entry casts it back to, and the
    // strong count that `into_raw` keeps is the one this `Waker` owns and
    // `waker_drop` (or `waker_wake`) gives back.
    unsafe { Waker::from_raw(RawWaker::new(Rc::into_raw(cell).cast(), &TASK_WAKER)) }
}

unsafe fn waker_clone(p: *const ()) -> RawWaker {
    let p = p.cast::<WakeCell>();
    // SAFETY: `p` is the `Rc::into_raw` pointer of a live waker (the
    // caller holds one), so the cell is alive for this borrow.
    unsafe { &*p }.ready.assert_owner();
    // SAFETY: as above; the extra strong count belongs to the new waker.
    unsafe { Rc::increment_strong_count(p) };
    RawWaker::new(p.cast(), &TASK_WAKER)
}

unsafe fn waker_wake(p: *const ()) {
    // SAFETY: `wake` consumes the waker, so its strong count is ours to
    // turn back into the `Rc` it came from; dropped at the end of scope.
    let cell = unsafe { Rc::from_raw(p.cast::<WakeCell>()) };
    cell.ready.push(Runnable::Task(cell.id));
}

unsafe fn waker_wake_by_ref(p: *const ()) {
    // SAFETY: the caller still holds the waker, so the cell outlives this
    // borrow; no count changes hands.
    let cell = unsafe { &*p.cast::<WakeCell>() };
    cell.ready.push(Runnable::Task(cell.id));
}

unsafe fn waker_drop(p: *const ()) {
    // SAFETY: the waker being dropped owns one strong count; turning the
    // pointer back into an `Rc` and dropping it releases exactly that one.
    let cell = unsafe { Rc::from_raw(p.cast::<WakeCell>()) };
    cell.ready.assert_owner();
}

type BoxFuture = Pin<Box<dyn Future<Output = ()>>>;

struct TaskSlot {
    /// `None` while the task is being polled and while the slot is vacant.
    future: Option<BoxFuture>,
    /// Human-readable label for leak diagnostics; `None` = vacant slot.
    name: Option<String>,
    /// The slot's one waker, made when the slot is and shared by every
    /// task that ever occupies it: a waker still held somewhere after its
    /// task finished wakes the slot's next occupant, and that spurious
    /// poll is part of the schedule.
    waker: Waker,
}

/// What a timer does when it fires.
enum Fire {
    Wake(Waker),
    /// Index into `Kernel::resources`: calls [`Resource::on_timer`].
    Resource(usize),
}

struct TimerEntry {
    when: Nanos,
    seq: u64,
    fire: Fire,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.when == other.when && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.when, self.seq).cmp(&(other.when, other.seq))
    }
}

/// A simulated device the executor runs by direct call instead of through
/// a task. It occupies the schedule exactly as a driver task would: a
/// [`Port::kick`] takes the ready-queue position the task's wake-up would
/// have taken, [`Kernel::arm`] the timer `(when, seq)` its sleep would
/// have registered. Neither callback may block or run user code, with
/// one exception: `on_timer` may call a spin predicate (`Core::spin`)
/// through [`Kernel::inert`]. A predicate may read state and bump host
/// counters, nothing else — no wake, spawn or arm — because the boundary
/// it answers stands for an event no other event can come between.
pub(crate) trait Resource {
    /// The ready-queue entry placed by [`Port::kick`] reached the front.
    fn on_ready(&self, k: &Kernel);
    /// The timer armed with [`Kernel::arm`] fired; `k.now()` is its time.
    fn on_timer(&self, k: &Kernel);
}

/// A resource's way back into the executor, handed to it at registration.
pub(crate) struct Port {
    index: usize,
    ready: Rc<ReadyQueue>,
    /// Weak: the kernel owns the resource.
    kernel: Weak<Kernel>,
}

impl Port {
    /// Appends this resource to the ready queue.
    pub(crate) fn kick(&self) {
        self.ready.push(Runnable::Resource(self.index));
    }

    /// [`Kernel::wait_in_place`] for a wait ending `ns` from now.
    pub(crate) fn wait_in_place(&self, ns: u64) -> bool {
        self.kernel
            .upgrade()
            .is_some_and(|k| k.wait_in_place(Nanos(k.now().0.saturating_add(ns))))
    }
}

/// Executor internals shared between the driver and task handles.
pub(crate) struct Kernel {
    tasks: RefCell<Vec<TaskSlot>>,
    free: RefCell<Vec<TaskId>>,
    resources: RefCell<Vec<Rc<dyn Resource>>>,
    ready: Rc<ReadyQueue>,
    timers: RefCell<BinaryHeap<Reverse<TimerEntry>>>,
    now: Cell<Nanos>,
    seq: Cell<u64>,
    live_tasks: Cell<usize>,
    /// The deadline of the `run_until` in progress.
    deadline: Cell<Nanos>,
    stats: Cell<SimStats>,
}

/// Host-side work the executor has done, for [`Sim::stats`]: counts, not
/// timings, so a rerun repeats them exactly. Counting charges no virtual
/// time and draws nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Task futures polled.
    pub polls: u64,
    /// Calls into a simulated device (a core's ready-queue entry or
    /// timer).
    pub resource_calls: u64,
    /// Timers registered (a sleep, a timeout, a core's slice).
    pub timers_armed: u64,
    /// Timers that fired.
    pub timers_fired: u64,
    /// Tasks spawned.
    pub spawns: u64,
    /// Waits completed in place (a `sleep`, an `advance` on a free core):
    /// each is a task poll, and at least one timer armed and fired, that
    /// did not happen.
    pub in_place: u64,
}

impl SimStats {
    /// Executor events: everything the run loop dispatched, a task poll
    /// or a device call. A timer that fires is one of the two.
    pub fn events(&self) -> u64 {
        self.polls + self.resource_calls
    }
}

impl Kernel {
    fn new() -> Rc<Self> {
        Rc::new(Kernel {
            tasks: RefCell::new(Vec::new()),
            free: RefCell::new(Vec::new()),
            resources: RefCell::new(Vec::new()),
            ready: ReadyQueue::new(),
            timers: RefCell::new(BinaryHeap::new()),
            now: Cell::new(Nanos::ZERO),
            seq: Cell::new(0),
            live_tasks: Cell::new(0),
            deadline: Cell::new(Nanos(u64::MAX)),
            stats: Cell::new(SimStats::default()),
        })
    }

    pub(crate) fn now(&self) -> Nanos {
        self.now.get()
    }

    fn count(&self, bump: impl FnOnce(&mut SimStats)) {
        let mut s = self.stats.get();
        bump(&mut s);
        self.stats.set(s);
    }

    fn push_timer(&self, when: Nanos, fire: Fire) {
        debug_assert!(when >= self.now.get(), "timer scheduled in the past");
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        self.count(|s| s.timers_armed += 1);
        self.timers
            .borrow_mut()
            .push(Reverse(TimerEntry { when, seq, fire }));
    }

    /// Moves the clock to `t` if no event can come first: nothing is
    /// ready, every pending timer is later than `t` (a timer *at* `t` was
    /// armed earlier and would fire first) and `t` is within the deadline
    /// of the run in progress. This is what popping a timer at `t` would
    /// do, minus the timer; it is how a spinning core answers its next
    /// step boundary in place, and how a wait completes in place.
    pub(crate) fn skip_to(&self, t: Nanos) -> bool {
        let clear = self.ready.queue.borrow().is_empty()
            && t <= self.deadline.get()
            && self.timers.borrow().peek().is_none_or(|top| t < top.0.when);
        if clear {
            self.now.set(t);
        }
        clear
    }

    /// Completes a wait that would end at `t` in place, if nothing can
    /// come first ([`Self::skip_to`]): the task that polls it runs on in
    /// the same poll, as it would have when the wait's own timer fired
    /// next and woke it. The caller pends otherwise.
    pub(crate) fn wait_in_place(&self, t: Nanos) -> bool {
        let done = in_place_enabled() && self.skip_to(t);
        if done {
            self.count(|s| s.in_place += 1);
        }
        done
    }

    /// Calls `f`, which must be inert: it may read state and bump host
    /// counters, but not wake, spawn or arm. Debug builds assert that the
    /// timer sequence and the ready queue are as `f` found them.
    pub(crate) fn inert<T>(&self, f: impl FnOnce() -> T) -> T {
        #[cfg(debug_assertions)]
        let before = (self.seq.get(), self.ready.queue.borrow().len());
        let out = f();
        #[cfg(debug_assertions)]
        assert_eq!(
            before,
            (self.seq.get(), self.ready.queue.borrow().len()),
            "a spin predicate woke, spawned or armed"
        );
        out
    }

    /// Arms a timer that calls `port`'s resource back at `when`.
    pub(crate) fn arm(&self, when: Nanos, port: &Port) {
        self.push_timer(when, Fire::Resource(port.index));
    }

    fn resource(&self, index: usize) -> Rc<dyn Resource> {
        Rc::clone(&self.resources.borrow()[index])
    }

    fn spawn_boxed(&self, name: &str, fut: BoxFuture) -> TaskId {
        let mut tasks = self.tasks.borrow_mut();
        let id = match self.free.borrow_mut().pop() {
            Some(id) => id,
            None => {
                let id = tasks.len();
                tasks.push(TaskSlot {
                    future: None,
                    name: None,
                    waker: task_waker(id, &self.ready),
                });
                id
            }
        };
        tasks[id].future = Some(fut);
        tasks[id].name = Some(name.to_string());
        self.live_tasks.set(self.live_tasks.get() + 1);
        self.count(|s| s.spawns += 1);
        self.ready.push(Runnable::Task(id));
        id
    }

    /// Polls one task once. A wake-up for a vacant slot does nothing.
    fn poll_task(&self, id: TaskId) {
        // Take the future out of the slot so the task may re-borrow the
        // kernel (spawn, timers) while being polled.
        let (mut fut, waker) = {
            let mut tasks = self.tasks.borrow_mut();
            let slot = &mut tasks[id];
            match slot.future.take() {
                Some(fut) => (fut, slot.waker.clone()),
                None => return,
            }
        };
        self.count(|s| s.polls += 1);
        let mut cx = Context::from_waker(&waker);
        #[cfg(debug_assertions)]
        WAIT_PENDED.with(|p| p.set(Some(false)));
        let finished = fut.as_mut().poll(&mut cx).is_ready();
        #[cfg(debug_assertions)]
        WAIT_PENDED.with(|p| p.set(None));
        let mut tasks = self.tasks.borrow_mut();
        if finished {
            tasks[id].name = None;
            self.free.borrow_mut().push(id);
            self.live_tasks.set(self.live_tasks.get() - 1);
        } else {
            tasks[id].future = Some(fut);
        }
    }
}

/// A deterministic discrete-event simulation.
///
/// # Single-thread contract
///
/// A `Sim`, its [`SimHandle`]s and everything spawned on it live on the
/// thread that called [`Sim::new`], and so must every [`Waker`] a task is
/// polled with, including clones stored in timers and wait queues: the
/// waker is a reference-counted pointer with a non-atomic count and an
/// unlocked ready queue behind it. `Waker` is `Send + Sync` by type, so
/// the compiler cannot enforce this; nothing in the simulator hands a
/// waker to another thread, and debug builds assert the owning thread on
/// every waker clone, wake and drop.
///
/// Dropping the `Sim` drops every task still blocked, every pending timer
/// and every registered resource, releasing what they hold.
///
/// # Examples
///
/// ```
/// use copier_sim::{Sim, Nanos};
///
/// let mut sim = Sim::new();
/// let h = sim.handle();
/// sim.spawn("hello", async move {
///     h.sleep(Nanos::from_micros(5)).await;
///     assert_eq!(h.now(), Nanos::from_micros(5));
/// });
/// sim.run();
/// ```
pub struct Sim {
    kernel: Rc<Kernel>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Blocked tasks hold `SimHandle`s, so the kernel would keep itself
        // alive through them. Each container is emptied with its borrow
        // already released, because a future's `Drop` may wake or spawn.
        // Not while unwinding: a second panic from such a `Drop` aborts.
        if std::thread::panicking() {
            return;
        }
        let k = &self.kernel;
        let tasks = std::mem::take(&mut *k.tasks.borrow_mut());
        drop(tasks);
        let timers = std::mem::take(&mut *k.timers.borrow_mut());
        drop(timers);
        let resources = std::mem::take(&mut *k.resources.borrow_mut());
        drop(resources);
        k.ready.queue.borrow_mut().clear();
    }
}

impl Sim {
    /// Creates an empty simulation at virtual time zero.
    pub fn new() -> Self {
        Sim {
            kernel: Kernel::new(),
        }
    }

    /// Returns a cloneable handle usable from inside tasks.
    pub fn handle(&self) -> SimHandle {
        SimHandle {
            kernel: Rc::clone(&self.kernel),
        }
    }

    /// Spawns a root task. See [`SimHandle::spawn`].
    pub fn spawn<F, T>(&mut self, name: &str, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        self.handle().spawn(name, fut)
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.kernel.now.get()
    }

    /// Runs until no task is ready and no timer is pending.
    ///
    /// Returns the final virtual time. Tasks that are blocked forever (e.g.
    /// waiting on a notification that never comes) are abandoned; use
    /// [`Sim::live_tasks`] to detect leaks in tests.
    pub fn run(&mut self) -> Nanos {
        self.run_until(Nanos(u64::MAX))
    }

    /// Runs until the given virtual deadline (exclusive for timers beyond it).
    pub fn run_until(&mut self, deadline: Nanos) -> Nanos {
        let k = &*self.kernel;
        k.deadline.set(deadline);
        loop {
            // Drain everything runnable at the current instant.
            while let Some(next) = k.ready.pop() {
                match next {
                    Runnable::Task(id) => k.poll_task(id),
                    Runnable::Resource(i) => {
                        k.count(|s| s.resource_calls += 1);
                        k.resource(i).on_ready(k);
                    }
                }
            }
            // Advance to the earliest timer.
            let entry = match k.timers.borrow_mut().peek_mut() {
                Some(top) if top.0.when <= deadline => PeekMut::pop(top).0,
                _ => break,
            };
            debug_assert!(entry.when >= k.now.get());
            k.now.set(entry.when);
            k.count(|s| s.timers_fired += 1);
            match entry.fire {
                Fire::Wake(waker) => waker.wake(),
                Fire::Resource(i) => {
                    k.count(|s| s.resource_calls += 1);
                    k.resource(i).on_timer(k);
                }
            }
        }
        k.now.get()
    }

    /// Number of tasks that have been spawned but not yet completed.
    /// Simulated cores are not tasks and are not counted.
    pub fn live_tasks(&self) -> usize {
        self.kernel.live_tasks.get()
    }

    /// Total number of tasks ever spawned.
    pub fn spawned_tasks(&self) -> usize {
        self.kernel.stats.get().spawns as usize
    }

    /// What the executor has done so far, counted (ROADMAP item 5).
    pub fn stats(&self) -> SimStats {
        self.kernel.stats.get()
    }

    /// Names of tasks that are still live (for leak diagnostics in tests).
    pub fn live_task_names(&self) -> Vec<String> {
        self.kernel
            .tasks
            .borrow()
            .iter()
            .filter_map(|t| t.name.clone())
            .collect()
    }
}

/// Cloneable handle for use inside simulated tasks.
#[derive(Clone)]
pub struct SimHandle {
    kernel: Rc<Kernel>,
}

impl SimHandle {
    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.kernel.now.get()
    }

    /// Spawns a task; the returned handle can be awaited for its result.
    pub fn spawn<F, T>(&self, name: &str, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        let state = Rc::new(RefCell::new(JoinState::<T> {
            result: None,
            waiter: None,
        }));
        let state2 = Rc::clone(&state);
        let wrapped = async move {
            let out = fut.await;
            let mut st = state2.borrow_mut();
            st.result = Some(out);
            if let Some(w) = st.waiter.take() {
                w.wake();
            }
        };
        let id = self.kernel.spawn_boxed(name, Box::pin(wrapped));
        JoinHandle { state, id }
    }

    /// Sleeps for `dur` of virtual time without occupying any core.
    pub fn sleep(&self, dur: Nanos) -> Sleep<'_> {
        self.sleep_until(Nanos(self.kernel.now.get().0.saturating_add(dur.0)))
    }

    /// Sleeps until an absolute virtual instant.
    pub fn sleep_until(&self, deadline: Nanos) -> Sleep<'_> {
        Sleep {
            kernel: &self.kernel,
            deadline: deadline.max(self.kernel.now.get()),
            registered: false,
        }
    }

    /// Yields to other ready tasks once.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }

    pub(crate) fn register_timer(&self, when: Nanos, waker: Waker) {
        self.kernel.push_timer(when, Fire::Wake(waker));
    }

    /// Registers the resource `build` makes around its [`Port`]. It is
    /// called back from the executor until the `Sim` drops.
    pub(crate) fn add_resource<R: Resource + 'static>(
        &self,
        build: impl FnOnce(Port) -> R,
    ) -> Rc<R> {
        let mut resources = self.kernel.resources.borrow_mut();
        let r = Rc::new(build(Port {
            index: resources.len(),
            ready: Rc::clone(&self.kernel.ready),
            kernel: Rc::downgrade(&self.kernel),
        }));
        resources.push(Rc::clone(&r) as Rc<dyn Resource>);
        r
    }
}

struct JoinState<T> {
    result: Option<T>,
    waiter: Option<Waker>,
}

/// Awaits completion of a spawned task.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
    id: TaskId,
}

impl<T> JoinHandle<T> {
    /// The spawned task's id (for diagnostics).
    pub fn id(&self) -> TaskId {
        self.id
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        sim_wait(|| {
            let mut st = self.state.borrow_mut();
            if let Some(v) = st.result.take() {
                Poll::Ready(v)
            } else {
                st.waiter = Some(cx.waker().clone());
                Poll::Pending
            }
        })
    }
}

/// Future returned by [`SimHandle::sleep`].
pub struct Sleep<'a> {
    kernel: &'a Kernel,
    deadline: Nanos,
    registered: bool,
}

impl Future for Sleep<'_> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        sim_wait(|| {
            if self.kernel.now.get() >= self.deadline {
                return Poll::Ready(());
            }
            if !self.registered {
                // The timer would fire next: be woken by it without it.
                if self.kernel.wait_in_place(self.deadline) {
                    return Poll::Ready(());
                }
                self.registered = true;
                self.kernel
                    .push_timer(self.deadline, Fire::Wake(cx.waker().clone()));
            }
            Poll::Pending
        })
    }
}

/// Future returned by [`SimHandle::yield_now`].
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn sleep_advances_virtual_time() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let done = Rc::new(Cell::new(Nanos::ZERO));
        let done2 = Rc::clone(&done);
        sim.spawn("sleeper", async move {
            h.sleep(Nanos::from_micros(10)).await;
            done2.set(h.now());
        });
        let end = sim.run();
        assert_eq!(done.get(), Nanos::from_micros(10));
        assert_eq!(end, Nanos::from_micros(10));
    }

    #[test]
    fn an_uninterrupted_sleep_completes_in_place() {
        for evented in [false, true] {
            EVENTED_WAITS.with(|c| c.set(evented));
            let mut sim = Sim::new();
            let h = sim.handle();
            sim.spawn("sleeper", async move {
                for _ in 0..3 {
                    h.sleep(Nanos(10)).await;
                }
            });
            assert_eq!(sim.run(), Nanos(30));
            let s = sim.stats();
            let want = if evented { (4, 3, 0) } else { (1, 0, 3) };
            assert_eq!((s.polls, s.timers_armed, s.in_place), want);
        }
        EVENTED_WAITS.with(|c| c.set(false));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "await rule")]
    fn a_wait_polled_after_another_pended_breaks_the_await_rule() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let h2 = h.clone();
        // Due first, so the first of the two sleeps below pends.
        sim.spawn("foreign", async move { h2.sleep(Nanos(5)).await });
        sim.spawn("two sleeps", async move {
            let (mut a, mut b) = (Box::pin(h.sleep(Nanos(20))), Box::pin(h.sleep(Nanos(10))));
            std::future::poll_fn(|cx| {
                let _ = a.as_mut().poll(cx);
                b.as_mut().poll(cx)
            })
            .await;
        });
        sim.run();
    }

    #[test]
    fn join_handle_returns_value() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let h2 = h.clone();
        let out = Rc::new(Cell::new(0u64));
        let out2 = Rc::clone(&out);
        sim.spawn("parent", async move {
            let child = h2.spawn("child", async move { 41u64 + 1 });
            out2.set(child.await);
        });
        sim.run();
        assert_eq!(out.get(), 42);
    }

    #[test]
    fn timers_fire_in_order_with_ties_by_seq() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4u32 {
            let h = h.clone();
            let order = Rc::clone(&order);
            // Two pairs with equal deadlines; spawn order must be preserved.
            let dur = Nanos::from_micros(((i / 2) + 1) as u64);
            sim.spawn("t", async move {
                h.sleep(dur).await;
                order.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn yield_now_interleaves() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let log = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b"] {
            let h = h.clone();
            let log = Rc::clone(&log);
            sim.spawn(name, async move {
                for i in 0..2 {
                    log.borrow_mut().push(format!("{name}{i}"));
                    h.yield_now().await;
                }
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!["a0", "b0", "a1", "b1"]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let hit = Rc::new(Cell::new(false));
        let hit2 = Rc::clone(&hit);
        sim.spawn("late", async move {
            h.sleep(Nanos::from_millis(10)).await;
            hit2.set(true);
        });
        sim.run_until(Nanos::from_millis(1));
        assert!(!hit.get());
        assert_eq!(sim.live_tasks(), 1);
        sim.run();
        assert!(hit.get());
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn determinism_same_program_same_trace() {
        fn run_once() -> Vec<(u64, u32)> {
            let mut sim = Sim::new();
            let h = sim.handle();
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..8u32 {
                let h = h.clone();
                let log = Rc::clone(&log);
                sim.spawn("t", async move {
                    h.sleep(Nanos::from_nanos((i as u64 * 37) % 11)).await;
                    h.yield_now().await;
                    log.borrow_mut().push((h.now().as_nanos(), i));
                });
            }
            sim.run();
            let v = log.borrow().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }
    /// A future that hands out a clone of the waker it is polled with.
    struct GrabWaker(Rc<RefCell<Option<Waker>>>);

    impl Future for GrabWaker {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            *self.0.borrow_mut() = Some(cx.waker().clone());
            Poll::Ready(())
        }
    }

    fn strong_count(w: &Waker) -> usize {
        assert!(std::ptr::eq(w.vtable(), &TASK_WAKER));
        // SAFETY: a waker with this vtable carries an `Rc<WakeCell>`
        // pointer; the `Rc` rebuilt here is never dropped, so the count
        // it reads is left as it was.
        let rc = std::mem::ManuallyDrop::new(unsafe { Rc::from_raw(w.data().cast::<WakeCell>()) });
        Rc::strong_count(&rc)
    }

    #[test]
    fn waker_count_returns_to_one_when_the_sim_drops() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let grabbed = Rc::new(RefCell::new(None));
        let grabbed2 = Rc::clone(&grabbed);
        // One task, polled a hundred times, then parked on a timer that
        // will not fire, next to a child that never finishes.
        sim.spawn("t", async move {
            GrabWaker(grabbed2).await;
            for _ in 0..100 {
                h.sleep(Nanos(10)).await;
            }
            h.spawn("never", std::future::pending::<()>());
            h.sleep(Nanos::from_secs(1)).await;
        });
        sim.run_until(Nanos::from_millis(1));
        assert_eq!(sim.live_tasks(), 2);
        let w = grabbed.borrow_mut().take().expect("the task ran");
        // Ours, the slot's and the pending timer's: polls added none.
        assert_eq!(strong_count(&w), 3);
        drop(sim);
        assert_eq!(strong_count(&w), 1);
        // Waking a waker whose simulation is gone is harmless.
        w.wake();
    }

    #[test]
    fn a_stale_waker_polls_the_slots_next_task() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let grabbed = Rc::new(RefCell::new(None));
        let first = sim.spawn("first", GrabWaker(Rc::clone(&grabbed)));
        sim.run();
        let polls = Rc::new(Cell::new(0));
        let polls2 = Rc::clone(&polls);
        let second = sim.spawn(
            "second",
            std::future::poll_fn(move |_| {
                polls2.set(polls2.get() + 1);
                if h.now() >= Nanos(5) {
                    Poll::Ready(())
                } else {
                    Poll::<()>::Pending
                }
            }),
        );
        assert_eq!(first.id(), second.id(), "the slot is reused");
        sim.run();
        assert_eq!((polls.get(), sim.live_tasks()), (1, 1));
        grabbed.borrow_mut().take().expect("first ran").wake();
        sim.run();
        assert_eq!(polls.get(), 2, "the old waker reaches the new occupant");
    }

    #[test]
    fn task_slots_and_their_wakers_are_reused() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let h2 = h.clone();
        sim.spawn("parent", async move {
            for _ in 0..1000 {
                let h3 = h2.clone();
                h2.spawn("child", async move { h3.sleep(Nanos(1)).await })
                    .await;
            }
        });
        sim.run();
        assert_eq!(sim.spawned_tasks(), 1001);
        assert_eq!(sim.kernel.tasks.borrow().len(), 2);
    }
}
