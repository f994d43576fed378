//! The executor, wait primitives and core exactly as they were before
//! events were made cheap: an `Arc<TaskWaker>` allocated per poll, a
//! `Mutex<VecDeque>` ready queue, an `Rc<RefCell<Waiter>>` per wait and a
//! spawned `core-{id}` driver task per core. Compiled for tests only, as the
//! oracle `order_oracle` holds the production code to: same programs,
//! same resumption order, same busy times, same end time. Not a second
//! production path; keep it as it is.

pub mod exec {
    use std::cell::{Cell, RefCell};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::collections::VecDeque;
    use std::future::Future;
    use std::pin::Pin;
    use std::rc::Rc;
    use std::sync::{Arc, Mutex};
    use std::task::{Context, Poll, Wake, Waker};

    use crate::time::Nanos;

    /// Identifies a spawned task within one simulation.
    pub type TaskId = usize;

    /// The shared ready queue, written by wakers (which must be `Send + Sync`).
    struct ReadyQueue {
        queue: Mutex<VecDeque<TaskId>>,
    }

    /// Waker payload: re-enqueues the owning task on wake.
    struct TaskWaker {
        id: TaskId,
        ready: Arc<ReadyQueue>,
    }

    impl Wake for TaskWaker {
        fn wake(self: Arc<Self>) {
            self.ready.queue.lock().unwrap().push_back(self.id);
        }
    }

    type BoxFuture = Pin<Box<dyn Future<Output = ()>>>;

    struct TaskSlot {
        future: Option<BoxFuture>,
        /// Set once the future completes; the slot is then recycled.
        done: bool,
    }

    struct TimerEntry {
        when: Nanos,
        seq: u64,
        waker: Waker,
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

    /// Executor internals shared between the driver and task handles.
    pub(crate) struct Kernel {
        tasks: RefCell<Vec<Option<TaskSlot>>>,
        free: RefCell<Vec<TaskId>>,
        ready: Arc<ReadyQueue>,
        timers: RefCell<BinaryHeap<Reverse<TimerEntry>>>,
        now: Cell<Nanos>,
        seq: Cell<u64>,
        live_tasks: Cell<usize>,
        /// Total tasks ever spawned, for statistics.
        spawned: Cell<usize>,
    }

    impl Kernel {
        fn new() -> Rc<Self> {
            Rc::new(Kernel {
                tasks: RefCell::new(Vec::new()),
                free: RefCell::new(Vec::new()),
                ready: Arc::new(ReadyQueue {
                    queue: Mutex::new(VecDeque::new()),
                }),
                timers: RefCell::new(BinaryHeap::new()),
                now: Cell::new(Nanos::ZERO),
                seq: Cell::new(0),
                live_tasks: Cell::new(0),
                spawned: Cell::new(0),
            })
        }

        fn next_seq(&self) -> u64 {
            let s = self.seq.get();
            self.seq.set(s + 1);
            s
        }

        fn register_timer(&self, when: Nanos, waker: Waker) {
            debug_assert!(when >= self.now.get(), "timer scheduled in the past");
            self.timers.borrow_mut().push(Reverse(TimerEntry {
                when,
                seq: self.next_seq(),
                waker,
            }));
        }

        fn spawn_boxed(&self, fut: BoxFuture) -> TaskId {
            let slot = TaskSlot {
                future: Some(fut),
                done: false,
            };
            let id = if let Some(id) = self.free.borrow_mut().pop() {
                self.tasks.borrow_mut()[id] = Some(slot);
                id
            } else {
                let mut tasks = self.tasks.borrow_mut();
                tasks.push(Some(slot));
                tasks.len() - 1
            };
            self.live_tasks.set(self.live_tasks.get() + 1);
            self.spawned.set(self.spawned.get() + 1);
            self.ready.queue.lock().unwrap().push_back(id);
            id
        }

        /// Polls one task to completion-or-pending. Returns false if the id is stale.
        fn poll_task(self: &Rc<Self>, id: TaskId) -> bool {
            // Take the future out of the slot so the task may re-borrow the
            // kernel (spawn, timers) while being polled.
            let mut fut = {
                let mut tasks = self.tasks.borrow_mut();
                match tasks.get_mut(id).and_then(|s| s.as_mut()) {
                    Some(slot) if !slot.done => match slot.future.take() {
                        Some(f) => f,
                        // Already being polled higher up the stack (cannot
                        // happen with a single-threaded driver) or spurious.
                        None => return false,
                    },
                    _ => return false,
                }
            };
            let waker = Waker::from(Arc::new(TaskWaker {
                id,
                ready: Arc::clone(&self.ready),
            }));
            let mut cx = Context::from_waker(&waker);
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(()) => {
                    let mut tasks = self.tasks.borrow_mut();
                    if let Some(slot) = tasks.get_mut(id) {
                        *slot = None;
                    }
                    self.free.borrow_mut().push(id);
                    self.live_tasks.set(self.live_tasks.get() - 1);
                    true
                }
                Poll::Pending => {
                    let mut tasks = self.tasks.borrow_mut();
                    if let Some(Some(slot)) = tasks.get_mut(id).map(|s| s.as_mut()) {
                        slot.future = Some(fut);
                    }
                    true
                }
            }
        }
    }

    /// A deterministic discrete-event simulation.
    pub struct Sim {
        kernel: Rc<Kernel>,
    }

    impl Default for Sim {
        fn default() -> Self {
            Self::new()
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
            loop {
                // Drain everything runnable at the current instant.
                loop {
                    let next = self.kernel.ready.queue.lock().unwrap().pop_front();
                    match next {
                        Some(id) => {
                            self.kernel.poll_task(id);
                        }
                        None => break,
                    }
                }
                // Advance to the earliest timer.
                let entry = {
                    let mut timers = self.kernel.timers.borrow_mut();
                    match timers.peek() {
                        Some(Reverse(e)) if e.when <= deadline => timers.pop().map(|r| r.0),
                        _ => None,
                    }
                };
                match entry {
                    Some(e) => {
                        debug_assert!(e.when >= self.kernel.now.get());
                        self.kernel.now.set(e.when);
                        e.waker.wake();
                    }
                    None => break,
                }
            }
            self.kernel.now.get()
        }

        /// Number of tasks that have been spawned but not yet completed.
        pub fn live_tasks(&self) -> usize {
            self.kernel.live_tasks.get()
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
        pub fn spawn<F, T>(&self, _name: &str, fut: F) -> JoinHandle<T>
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
            self.kernel.spawn_boxed(Box::pin(wrapped));
            JoinHandle { state }
        }

        /// Sleeps for `dur` of virtual time without occupying any core.
        pub fn sleep(&self, dur: Nanos) -> Sleep {
            Sleep {
                kernel: Rc::clone(&self.kernel),
                deadline: Nanos(self.kernel.now.get().0.saturating_add(dur.0)),
                registered: false,
            }
        }

        /// Sleeps until an absolute virtual instant.
        pub fn sleep_until(&self, deadline: Nanos) -> Sleep {
            Sleep {
                kernel: Rc::clone(&self.kernel),
                deadline: deadline.max(self.kernel.now.get()),
                registered: false,
            }
        }

        /// Yields to other ready tasks once.
        pub fn yield_now(&self) -> YieldNow {
            YieldNow { yielded: false }
        }

        pub(crate) fn register_timer(&self, when: Nanos, waker: Waker) {
            self.kernel.register_timer(when, waker);
        }
    }

    struct JoinState<T> {
        result: Option<T>,
        waiter: Option<Waker>,
    }

    /// Awaits completion of a spawned task.
    pub struct JoinHandle<T> {
        state: Rc<RefCell<JoinState<T>>>,
    }

    impl<T> Future for JoinHandle<T> {
        type Output = T;
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
            let mut st = self.state.borrow_mut();
            if let Some(v) = st.result.take() {
                Poll::Ready(v)
            } else {
                st.waiter = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }

    /// Future returned by [`SimHandle::sleep`].
    pub struct Sleep {
        kernel: Rc<Kernel>,
        deadline: Nanos,
        registered: bool,
    }

    impl Future for Sleep {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.kernel.now.get() >= self.deadline {
                return Poll::Ready(());
            }
            if !self.registered {
                self.registered = true;
                let deadline = self.deadline;
                self.kernel.register_timer(deadline, cx.waker().clone());
            }
            Poll::Pending
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
}

pub mod sync {
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::future::Future;
    use std::pin::Pin;
    use std::rc::Rc;
    use std::task::{Context, Poll, Waker};

    use super::exec::SimHandle;
    use crate::time::Nanos;

    #[derive(Default)]
    struct Waiter {
        fired: bool,
        cancelled: bool,
        waker: Option<Waker>,
    }

    struct NotifyInner {
        permits: usize,
        waiters: VecDeque<Rc<RefCell<Waiter>>>,
    }

    /// An async notification cell.
    ///
    /// `notify_one` wakes one pending waiter, or stores a permit consumed by the
    /// next `notified().await` — so a notification sent just before a task starts
    /// waiting is not lost.
    pub struct Notify {
        inner: RefCell<NotifyInner>,
    }

    impl Default for Notify {
        fn default() -> Self {
            Self::new()
        }
    }

    impl Notify {
        /// Creates a notify cell with no stored permits.
        pub fn new() -> Self {
            Notify {
                inner: RefCell::new(NotifyInner {
                    permits: 0,
                    waiters: VecDeque::new(),
                }),
            }
        }

        /// Wakes one waiter, or stores a single permit if none is waiting.
        pub fn notify_one(&self) {
            let mut inner = self.inner.borrow_mut();
            while let Some(w) = inner.waiters.pop_front() {
                let mut w = w.borrow_mut();
                if w.cancelled {
                    continue;
                }
                w.fired = true;
                if let Some(waker) = w.waker.take() {
                    waker.wake();
                }
                return;
            }
            inner.permits += 1;
        }

        /// Wakes all current waiters (does not store permits).
        pub fn notify_all(&self) {
            let mut inner = self.inner.borrow_mut();
            while let Some(w) = inner.waiters.pop_front() {
                let mut w = w.borrow_mut();
                if w.cancelled {
                    continue;
                }
                w.fired = true;
                if let Some(waker) = w.waker.take() {
                    waker.wake();
                }
            }
        }

        /// Waits for a notification.
        pub fn notified(&self) -> Notified<'_> {
            Notified {
                notify: self,
                waiter: None,
            }
        }

        /// Waits for a notification with a virtual-time timeout.
        ///
        /// Resolves to `true` if notified, `false` on timeout.
        pub fn wait_timeout<'a>(&'a self, h: &SimHandle, dur: Nanos) -> WaitTimeout<'a> {
            WaitTimeout {
                notify: self,
                h: h.clone(),
                deadline: Nanos(h.now().0.saturating_add(dur.0)),
                waiter: None,
                timer_registered: false,
            }
        }

        fn try_take_permit(&self) -> bool {
            let mut inner = self.inner.borrow_mut();
            if inner.permits > 0 {
                inner.permits -= 1;
                true
            } else {
                false
            }
        }

        fn register(&self, waker: Waker) -> Rc<RefCell<Waiter>> {
            let w = Rc::new(RefCell::new(Waiter {
                fired: false,
                cancelled: false,
                waker: Some(waker),
            }));
            self.inner.borrow_mut().waiters.push_back(Rc::clone(&w));
            w
        }
    }

    /// Future returned by [`Notify::notified`].
    pub struct Notified<'a> {
        notify: &'a Notify,
        waiter: Option<Rc<RefCell<Waiter>>>,
    }

    impl Future for Notified<'_> {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if let Some(w) = &self.waiter {
                let mut w = w.borrow_mut();
                if w.fired {
                    return Poll::Ready(());
                }
                w.waker = Some(cx.waker().clone());
                return Poll::Pending;
            }
            if self.notify.try_take_permit() {
                return Poll::Ready(());
            }
            self.waiter = Some(self.notify.register(cx.waker().clone()));
            Poll::Pending
        }
    }

    impl Drop for Notified<'_> {
        fn drop(&mut self) {
            if let Some(w) = &self.waiter {
                let mut w = w.borrow_mut();
                if w.fired {
                    // The permit was consumed by a waiter that never observed
                    // it; hand it back so no notification is lost.
                    drop(w);
                    self.notify.inner.borrow_mut().permits += 1;
                } else {
                    w.cancelled = true;
                }
            }
        }
    }

    /// Future returned by [`Notify::wait_timeout`].
    pub struct WaitTimeout<'a> {
        notify: &'a Notify,
        h: SimHandle,
        deadline: Nanos,
        waiter: Option<Rc<RefCell<Waiter>>>,
        timer_registered: bool,
    }

    impl Future for WaitTimeout<'_> {
        type Output = bool;
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<bool> {
            if let Some(w) = &self.waiter {
                if w.borrow().fired {
                    return Poll::Ready(true);
                }
            } else {
                if self.notify.try_take_permit() {
                    return Poll::Ready(true);
                }
                self.waiter = Some(self.notify.register(cx.waker().clone()));
            }
            if self.h.now() >= self.deadline {
                if let Some(w) = &self.waiter {
                    w.borrow_mut().cancelled = true;
                }
                return Poll::Ready(false);
            }
            if let Some(w) = &self.waiter {
                w.borrow_mut().waker = Some(cx.waker().clone());
            }
            if !self.timer_registered {
                self.timer_registered = true;
                self.h.register_timer(self.deadline, cx.waker().clone());
            }
            Poll::Pending
        }
    }

    impl Drop for WaitTimeout<'_> {
        fn drop(&mut self) {
            if let Some(w) = &self.waiter {
                let mut w = w.borrow_mut();
                if w.fired {
                    drop(w);
                    self.notify.inner.borrow_mut().permits += 1;
                } else {
                    w.cancelled = true;
                }
            }
        }
    }

    struct ChanInner<T> {
        queue: VecDeque<T>,
        notify: Notify,
        closed: bool,
    }

    /// An unbounded multi-producer channel in virtual time.
    ///
    /// Cloning shares the underlying queue; any clone may send or receive.
    pub struct Chan<T> {
        inner: Rc<RefCell<ChanInner<T>>>,
    }

    impl<T> Clone for Chan<T> {
        fn clone(&self) -> Self {
            Chan {
                inner: Rc::clone(&self.inner),
            }
        }
    }

    impl<T> Default for Chan<T> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<T> Chan<T> {
        /// Creates an empty open channel.
        pub fn new() -> Self {
            Chan {
                inner: Rc::new(RefCell::new(ChanInner {
                    queue: VecDeque::new(),
                    notify: Notify::new(),
                    closed: false,
                })),
            }
        }

        /// Enqueues a value, waking one receiver.
        pub fn send(&self, v: T) {
            let mut inner = self.inner.borrow_mut();
            inner.queue.push_back(v);
            inner.notify.notify_one();
        }

        /// Number of queued values.
        pub fn len(&self) -> usize {
            self.inner.borrow().queue.len()
        }

        /// Marks the channel closed; pending and future `recv`s see `None` once drained.
        pub fn close(&self) {
            let mut inner = self.inner.borrow_mut();
            inner.closed = true;
            inner.notify.notify_all();
        }

        /// Receives the next value, waiting in virtual time.
        ///
        /// Returns `None` once the channel is closed and drained.
        pub async fn recv(&self) -> Option<T> {
            loop {
                {
                    let mut inner = self.inner.borrow_mut();
                    if let Some(v) = inner.queue.pop_front() {
                        return Some(v);
                    }
                    if inner.closed {
                        return None;
                    }
                }
                // SAFETY-free wait: the Notified future keeps only a shared
                // borrow while polled; the channel borrow above is released.
                let notified = {
                    let inner = self.inner.borrow();
                    // Extend the lifetime by re-borrowing through Rc each loop.
                    // We cannot hold `inner` across await, so wait on a clone.
                    drop(inner);
                    WaitOnChan {
                        chan: Rc::clone(&self.inner),
                        waiter: None,
                    }
                };
                notified.await;
            }
        }
    }

    /// Internal future: waits for the channel's notify without borrowing across await.
    struct WaitOnChan<T> {
        chan: Rc<RefCell<ChanInner<T>>>,
        waiter: Option<Rc<RefCell<Waiter>>>,
    }

    impl<T> Future for WaitOnChan<T> {
        type Output = ();
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if let Some(w) = &self.waiter {
                let mut w = w.borrow_mut();
                if w.fired {
                    return Poll::Ready(());
                }
                w.waker = Some(cx.waker().clone());
                return Poll::Pending;
            }
            let chan = self.chan.borrow();
            if !chan.queue.is_empty() || chan.closed || chan.notify.try_take_permit() {
                return Poll::Ready(());
            }
            let w = chan.notify.register(cx.waker().clone());
            drop(chan);
            self.waiter = Some(w);
            Poll::Pending
        }
    }

    impl<T> Drop for WaitOnChan<T> {
        fn drop(&mut self) {
            if let Some(w) = &self.waiter {
                let mut wb = w.borrow_mut();
                if wb.fired {
                    drop(wb);
                    self.chan.borrow().notify.inner.borrow_mut().permits += 1;
                } else {
                    wb.cancelled = true;
                }
            }
        }
    }
}

pub mod cpu {
    use std::cell::{Cell, RefCell};
    use std::collections::VecDeque;
    use std::rc::Rc;
    use std::task::Waker;

    use super::exec::SimHandle;
    use super::sync::Notify;
    use crate::time::Nanos;

    /// Default round-robin quantum for contended cores.
    pub const DEFAULT_QUANTUM: Nanos = Nanos::from_micros(20);

    struct Req {
        remaining: Cell<u64>,
        done: Cell<bool>,
        waker: RefCell<Option<Waker>>,
    }

    /// One simulated CPU core.
    pub struct Core {
        h: SimHandle,
        queue: RefCell<VecDeque<Rc<Req>>>,
        work: Notify,
        quantum: Cell<Nanos>,
        busy: Cell<u64>,
    }

    impl Core {
        /// Total virtual time this core has spent executing.
        pub fn busy_time(&self) -> Nanos {
            Nanos(self.busy.get())
        }

        /// Overrides the round-robin quantum (contended advances only).
        pub fn set_quantum(&self, q: Nanos) {
            self.quantum.set(q);
        }

        /// Number of threads currently queued or running on this core.
        pub fn load(&self) -> usize {
            self.queue.borrow().len()
        }

        /// Consumes `dur` of this core's time, waiting in line if contended.
        ///
        /// This is the only way simulated computation costs time: a thread that
        /// never calls `advance` is free (it models pure waiting).
        pub async fn advance(self: &Rc<Self>, dur: Nanos) {
            if dur == Nanos::ZERO {
                return;
            }
            let req = Rc::new(Req {
                remaining: Cell::new(dur.as_nanos()),
                done: Cell::new(false),
                waker: RefCell::new(None),
            });
            self.queue.borrow_mut().push_back(Rc::clone(&req));
            self.work.notify_one();
            ReqDone { req }.await;
        }

        /// The driver loop: serves queued demands round-robin.
        async fn drive(self: Rc<Self>) {
            loop {
                let next = self.queue.borrow_mut().pop_front();
                let req = match next {
                    Some(r) => r,
                    None => {
                        self.work.notified().await;
                        continue;
                    }
                };
                let remaining = req.remaining.get();
                let slice = remaining.min(self.quantum.get().as_nanos().max(1));
                self.h.sleep(Nanos(slice)).await;
                self.busy.set(self.busy.get() + slice);
                let left = remaining - slice;
                req.remaining.set(left);
                if left == 0 {
                    req.done.set(true);
                    if let Some(w) = req.waker.borrow_mut().take() {
                        w.wake();
                    }
                } else {
                    self.queue.borrow_mut().push_back(req);
                }
            }
        }
    }

    struct ReqDone {
        req: Rc<Req>,
    }

    impl std::future::Future for ReqDone {
        type Output = ();
        fn poll(
            self: std::pin::Pin<&mut Self>,
            cx: &mut std::task::Context<'_>,
        ) -> std::task::Poll<()> {
            if self.req.done.get() {
                std::task::Poll::Ready(())
            } else {
                *self.req.waker.borrow_mut() = Some(cx.waker().clone());
                std::task::Poll::Pending
            }
        }
    }

    /// A simulated machine: a set of cores sharing one virtual clock.
    pub struct Machine {
        cores: Vec<Rc<Core>>,
    }

    impl Machine {
        /// Builds a machine with `n` cores and spawns their driver tasks.
        pub fn new(h: &SimHandle, n: usize) -> Rc<Self> {
            assert!(n > 0, "a machine needs at least one core");
            let mut cores = Vec::with_capacity(n);
            for id in 0..n {
                let core = Rc::new(Core {
                    h: h.clone(),
                    queue: RefCell::new(VecDeque::new()),
                    work: Notify::new(),
                    quantum: Cell::new(DEFAULT_QUANTUM),
                    busy: Cell::new(0),
                });
                h.spawn(&format!("core-{id}"), Rc::clone(&core).drive());
                cores.push(core);
            }
            Rc::new(Machine { cores })
        }

        /// All cores.
        pub fn cores(&self) -> &[Rc<Core>] {
            &self.cores
        }
    }
}
