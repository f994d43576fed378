//! Virtual-time synchronization primitives.
//!
//! These mirror the small subset of async primitives the rest of the stack
//! needs: a [`Notify`] cell (with stored permits, like tokio's), an unbounded
//! channel [`Chan`], and timeout-aware waiting. All of them are
//! single-host-thread types (`Rc`-based) — the simulation executor is
//! single-threaded by design.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::exec::{sim_wait, SimHandle};
use crate::time::Nanos;

/// One wait's slot in a [`Notify`]. The wait's future holds the slot's
/// index; `fifo` holds it too until a notify reaches it.
enum Waiter {
    /// In `fifo`, to be woken through this waker.
    Waiting(Waker),
    /// In `fifo`, but its future is gone: the notify that reaches it
    /// passes over it and frees the slot.
    Abandoned,
    /// Notified and out of `fifo`; the future has yet to let go of it.
    Fired,
    Vacant,
}

struct NotifyInner {
    permits: usize,
    /// Waiter slots, reused through `free`: a wait allocates only when
    /// more waits are in flight at once than ever before.
    slots: Vec<Waiter>,
    free: Vec<usize>,
    /// Slots in the order their waits began.
    fifo: VecDeque<usize>,
}

impl NotifyInner {
    /// Wakes the longest-waiting live waiter, freeing abandoned slots on
    /// the way. False if there was none.
    fn wake_next(&mut self) -> bool {
        while let Some(key) = self.fifo.pop_front() {
            match std::mem::replace(&mut self.slots[key], Waiter::Fired) {
                Waiter::Waiting(waker) => {
                    waker.wake();
                    return true;
                }
                Waiter::Abandoned => self.vacate(key),
                Waiter::Fired | Waiter::Vacant => unreachable!("only waits in progress are queued"),
            }
        }
        false
    }

    fn is_abandoned(&self, key: Option<&usize>) -> bool {
        key.is_some_and(|&k| matches!(self.slots[k], Waiter::Abandoned))
    }

    fn vacate(&mut self, key: usize) {
        self.slots[key] = Waiter::Vacant;
        self.free.push(key);
    }
}

/// An async notification cell.
///
/// `notify_one` wakes one pending waiter, or stores a permit consumed by the
/// next `notified().await` — so a notification sent just before a task starts
/// waiting is not lost. Like a condition variable it can also return with
/// nothing to find: a wait that was woken puts one permit back when its
/// future drops, so wait in a loop around the condition.
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
                slots: Vec::new(),
                free: Vec::new(),
                fifo: VecDeque::new(),
            }),
        }
    }

    /// Wakes one waiter, or stores a single permit if none is waiting.
    pub fn notify_one(&self) {
        let mut inner = self.inner.borrow_mut();
        if !inner.wake_next() {
            inner.permits += 1;
        }
    }

    /// Wakes all current waiters (does not store permits).
    pub fn notify_all(&self) {
        let mut inner = self.inner.borrow_mut();
        while inner.wake_next() {}
    }

    /// Waits for a notification.
    pub fn notified(&self) -> Notified<'_> {
        Notified {
            notify: self,
            key: None,
        }
    }

    /// Waits for a notification with a virtual-time timeout.
    ///
    /// Resolves to `true` if notified, `false` on timeout.
    pub fn wait_timeout<'a>(&'a self, h: &SimHandle, dur: Nanos) -> WaitTimeout<'a> {
        WaitTimeout {
            wait: self.notified(),
            h: h.clone(),
            deadline: Nanos(h.now().0.saturating_add(dur.0)),
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

    fn register(&self, waker: Waker) -> usize {
        let mut inner = self.inner.borrow_mut();
        let key = match inner.free.pop() {
            Some(key) => {
                inner.slots[key] = Waiter::Waiting(waker);
                key
            }
            None => {
                inner.slots.push(Waiter::Waiting(waker));
                inner.slots.len() - 1
            }
        };
        inner.fifo.push_back(key);
        key
    }

    /// Whether the wait in slot `key` was notified; if not, it will be
    /// woken through `waker` from now on.
    fn fired(&self, key: usize, waker: &Waker) -> bool {
        match &mut self.inner.borrow_mut().slots[key] {
            Waiter::Fired => true,
            Waiter::Waiting(w) => {
                w.clone_from(waker);
                false
            }
            Waiter::Abandoned | Waiter::Vacant => unreachable!("the wait still owns its slot"),
        }
    }

    /// The future of the wait in slot `key` is done with it.
    fn release(&self, key: usize) {
        let mut inner = self.inner.borrow_mut();
        match std::mem::replace(&mut inner.slots[key], Waiter::Abandoned) {
            Waiter::Fired => {
                // Every woken wait hands a permit back here, whether or not
                // its task saw the wake-up. Schedules depend on it (the next
                // wait returns at once), so it stays as it is.
                inner.vacate(key);
                inner.permits += 1;
            }
            Waiter::Waiting(_) => {
                // Still queued. A notify would pass over it; when it sits
                // at either end, free it now, so that a waiter timing out
                // again and again, alone or behind one that stays, does
                // not grow the queue.
                while inner.is_abandoned(inner.fifo.front()) {
                    let k = inner.fifo.pop_front().expect("checked");
                    inner.vacate(k);
                }
                while inner.is_abandoned(inner.fifo.back()) {
                    let k = inner.fifo.pop_back().expect("checked");
                    inner.vacate(k);
                }
            }
            Waiter::Abandoned | Waiter::Vacant => unreachable!("the wait still owns its slot"),
        }
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified<'a> {
    notify: &'a Notify,
    /// The wait's slot, once it had to queue.
    key: Option<usize>,
}

impl Notified<'_> {
    /// Whether the wait is over; if not, it will be woken through `waker`.
    fn ready(&mut self, waker: &Waker) -> bool {
        match self.key {
            Some(key) => self.notify.fired(key, waker),
            None if self.notify.try_take_permit() => true,
            None => {
                self.key = Some(self.notify.register(waker.clone()));
                false
            }
        }
    }
}

impl Future for Notified<'_> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        sim_wait(|| {
            if self.ready(cx.waker()) {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        })
    }
}

impl Drop for Notified<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key {
            self.notify.release(key);
        }
    }
}

/// Future returned by [`Notify::wait_timeout`].
pub struct WaitTimeout<'a> {
    wait: Notified<'a>,
    h: SimHandle,
    deadline: Nanos,
    timer_registered: bool,
}

impl Future for WaitTimeout<'_> {
    type Output = bool;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<bool> {
        sim_wait(|| {
            if self.wait.ready(cx.waker()) {
                return Poll::Ready(true);
            }
            if self.h.now() >= self.deadline {
                // Out of the queue now, not when the future drops: a notify
                // in between must not be spent on a wait that has given up.
                if let Some(key) = self.wait.key.take() {
                    self.wait.notify.release(key);
                }
                return Poll::Ready(false);
            }
            if !self.timer_registered {
                self.timer_registered = true;
                self.h.register_timer(self.deadline, cx.waker().clone());
            }
            Poll::Pending
        })
    }
}

struct ChanInner<T> {
    queue: RefCell<VecDeque<T>>,
    notify: Notify,
    closed: Cell<bool>,
}

/// An unbounded multi-producer channel in virtual time.
///
/// Cloning shares the underlying queue; any clone may send or receive.
pub struct Chan<T> {
    inner: Rc<ChanInner<T>>,
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
            inner: Rc::new(ChanInner {
                queue: RefCell::new(VecDeque::new()),
                notify: Notify::new(),
                closed: Cell::new(false),
            }),
        }
    }

    /// Enqueues a value, waking one receiver.
    pub fn send(&self, v: T) {
        self.inner.queue.borrow_mut().push_back(v);
        self.inner.notify.notify_one();
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        self.inner.queue.borrow_mut().pop_front()
    }

    /// Number of queued values.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.queue.borrow().len()
    }

    /// Marks the channel closed; pending and future `recv`s see `None` once drained.
    pub fn close(&self) {
        self.inner.closed.set(true);
        self.inner.notify.notify_all();
    }

    /// Receives the next value, waiting in virtual time.
    ///
    /// Returns `None` once the channel is closed and drained.
    pub async fn recv(&self) -> Option<T> {
        loop {
            if let Some(v) = self.try_recv() {
                return Some(v);
            }
            if self.inner.closed.get() {
                return None;
            }
            self.inner.notify.notified().await;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Sim;
    use std::cell::Cell;

    #[test]
    fn notify_before_wait_is_not_lost() {
        let mut sim = Sim::new();
        let n = Rc::new(Notify::new());
        n.notify_one();
        let n2 = Rc::clone(&n);
        let ok = Rc::new(Cell::new(false));
        let ok2 = Rc::clone(&ok);
        sim.spawn("w", async move {
            n2.notified().await;
            ok2.set(true);
        });
        sim.run();
        assert!(ok.get());
    }

    #[test]
    fn notify_wakes_fifo() {
        let mut sim = Sim::new();
        let n = Rc::new(Notify::new());
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let n = Rc::clone(&n);
            let log = Rc::clone(&log);
            sim.spawn("w", async move {
                n.notified().await;
                log.borrow_mut().push(i);
            });
        }
        let n2 = Rc::clone(&n);
        let h = sim.handle();
        sim.spawn("k", async move {
            h.sleep(Nanos(1)).await;
            n2.notify_one();
            n2.notify_one();
            n2.notify_one();
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn wait_timeout_times_out() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let n = Rc::new(Notify::new());
        let n2 = Rc::clone(&n);
        let res = Rc::new(Cell::new(true));
        let res2 = Rc::clone(&res);
        sim.spawn("w", async move {
            let got = n2.wait_timeout(&h, Nanos::from_micros(5)).await;
            res2.set(got);
        });
        let end = sim.run();
        assert!(!res.get());
        assert_eq!(end, Nanos::from_micros(5));
        drop(n);
    }

    #[test]
    fn wait_timeout_notified_early() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let h2 = h.clone();
        let n = Rc::new(Notify::new());
        let n2 = Rc::clone(&n);
        let n3 = Rc::clone(&n);
        let res = Rc::new(Cell::new(false));
        let res2 = Rc::clone(&res);
        sim.spawn("w", async move {
            res2.set(n2.wait_timeout(&h, Nanos::from_millis(1)).await);
        });
        sim.spawn("k", async move {
            h2.sleep(Nanos::from_micros(3)).await;
            n3.notify_one();
        });
        let end = sim.run();
        assert!(res.get());
        // The stale timeout timer still fires at 1ms, but nothing reacts.
        assert_eq!(end, Nanos::from_millis(1));
    }

    #[test]
    fn chan_delivers_in_order_across_tasks() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let ch: Chan<u32> = Chan::new();
        let tx = ch.clone();
        let got = Rc::new(RefCell::new(Vec::new()));
        let got2 = Rc::clone(&got);
        sim.spawn("rx", async move {
            while let Some(v) = ch.recv().await {
                got2.borrow_mut().push(v);
            }
        });
        sim.spawn("tx", async move {
            for i in 0..5 {
                h.sleep(Nanos(10)).await;
                tx.send(i);
            }
            tx.close();
        });
        sim.run();
        assert_eq!(*got.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn chan_close_unblocks_receiver() {
        let mut sim = Sim::new();
        let ch: Chan<u32> = Chan::new();
        let ch2 = ch.clone();
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        sim.spawn("rx", async move {
            assert!(ch.recv().await.is_none());
            done2.set(true);
        });
        sim.spawn("closer", async move {
            ch2.close();
        });
        sim.run();
        assert!(done.get());
    }
    #[test]
    fn a_waiter_timing_out_again_and_again_reuses_one_slot() {
        // Alone in the queue, then behind a waiter that never leaves.
        for stayers in [0, 1] {
            let mut sim = Sim::new();
            let h = sim.handle();
            let n = Rc::new(Notify::new());
            for _ in 0..stayers {
                let n = Rc::clone(&n);
                sim.spawn("stays", async move { n.notified().await });
            }
            let n2 = Rc::clone(&n);
            sim.spawn("w", async move {
                for _ in 0..1000 {
                    assert!(!n2.wait_timeout(&h, Nanos(10)).await);
                }
            });
            assert_eq!(sim.run(), Nanos(10_000));
            let inner = n.inner.borrow();
            assert_eq!(
                (inner.slots.len(), inner.fifo.len()),
                (stayers + 1, stayers)
            );
        }
    }

    #[test]
    fn notified_waits_reuse_their_slots() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let n = Rc::new(Notify::new());
        let woken = Rc::new(Cell::new(0));
        for _ in 0..3 {
            let (n, woken) = (Rc::clone(&n), Rc::clone(&woken));
            sim.spawn("w", async move {
                loop {
                    n.notified().await;
                    woken.set(woken.get() + 1);
                }
            });
        }
        let n2 = Rc::clone(&n);
        sim.spawn("k", async move {
            for _ in 0..300 {
                h.sleep(Nanos(5)).await;
                n2.notify_one();
            }
        });
        sim.run();
        // Each wake-up through the queue is followed by one through the
        // permit its finished wait handed back.
        assert_eq!(woken.get(), 600);
        assert_eq!(n.inner.borrow().slots.len(), 3);
    }

    #[test]
    fn a_wait_dropped_in_the_middle_is_passed_over_in_order() {
        let mut sim = Sim::new();
        let h = sim.handle();
        let n = Rc::new(Notify::new());
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3 {
            let (n, log, h) = (Rc::clone(&n), Rc::clone(&log), h.clone());
            sim.spawn("w", async move {
                if i == 1 {
                    // Queues between the other two, then gives up.
                    let mut wait = n.notified();
                    let queued =
                        std::future::poll_fn(|cx| Poll::Ready(Pin::new(&mut wait).poll(cx)));
                    assert!(queued.await.is_pending());
                    // The wait pended, so this poll ends (the await rule).
                    h.yield_now().await;
                    h.sleep(Nanos(5)).await;
                    drop(wait);
                } else {
                    n.notified().await;
                }
                log.borrow_mut().push(i);
            });
        }
        let n2 = Rc::clone(&n);
        sim.spawn("k", async move {
            h.sleep(Nanos(10)).await;
            assert_eq!(
                n2.inner.borrow().fifo.len(),
                3,
                "the dropped wait is still queued"
            );
            n2.notify_one();
            n2.notify_one();
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 0, 2]);
        let inner = n.inner.borrow();
        assert!(inner.fifo.is_empty());
        // A woken wait hands its permit back when it drops.
        assert_eq!(
            (inner.slots.len(), inner.free.len(), inner.permits),
            (3, 3, 2)
        );
    }
}
