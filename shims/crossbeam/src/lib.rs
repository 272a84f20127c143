//! Offline shim for the subset of `crossbeam` this workspace uses
//! (`crossbeam::channel::unbounded` in the simulation engine; see
//! `shims/README.md`).
//!
//! The channel is a `Mutex<VecDeque>` + `Condvar` queue with a
//! yield-assisted receive path, tuned for the simulator's handoff
//! pattern: the engine thread and the currently-running process thread
//! ping-pong one message at a time, and on a loaded (or single-CPU) box
//! the counterpart is usually runnable and about to reply. In that
//! regime `std::thread::yield_now()` hands the core straight to the
//! sender and the reply lands within a few yields — measurably cheaper
//! than a futex sleep/wake cycle per message, and with no per-send heap
//! allocation (unlike `std::sync::mpsc`'s linked-list nodes).
//!
//! Each receiver carries an *adaptive* yield budget: a receive that is
//! satisfied during the yield phase restores the full budget, while one
//! that falls through to a blocking wait halves it. The engine's
//! `park_rx` (whose counterpart always replies promptly) therefore keeps
//! spinning cheaply, while a process thread that parks for a long
//! stretch of virtual time converges to an immediate `Condvar` wait
//! instead of burning its budget competing with the thread that should
//! be running.

pub mod channel {
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    /// Error returned by [`Sender::send`] when the receiver is gone,
    /// handing the unsent message back (crossbeam/std signature).
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// Error returned by [`Receiver::recv`] once the channel is empty
    /// and every sender has been dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Cap on the adaptive yield budget (see [`Receiver::recv`]).
    const YIELD_CAP: u32 = 1024;

    struct Inner<T> {
        queue: Mutex<VecDeque<T>>,
        cv: Condvar,
        /// Mirror of `queue.len()`, written under the lock — lets the
        /// yield loop poll for pending messages without contending it.
        len: AtomicUsize,
        /// Live `Sender` clones; 0 means disconnected.
        senders: AtomicUsize,
        /// Whether the receiver is parked in `cv` (written under the
        /// lock) — senders skip the notify syscall when nobody sleeps.
        parked: AtomicUsize,
        /// Cleared (under the lock) when the `Receiver` drops.
        rx_alive: AtomicBool,
    }

    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
        /// Adaptive yield budget for the next receive.
        budget: Cell<u32>,
    }

    /// Unbounded MPSC channel, `crossbeam::channel::unbounded` signature.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            len: AtomicUsize::new(0),
            senders: AtomicUsize::new(1),
            parked: AtomicUsize::new(0),
            rx_alive: AtomicBool::new(true),
        });
        (
            Sender {
                inner: inner.clone(),
            },
            Receiver {
                inner,
                budget: Cell::new(2),
            },
        )
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let inner = &*self.inner;
            let mut q = inner.queue.lock().unwrap();
            if !inner.rx_alive.load(Ordering::Acquire) {
                return Err(SendError(value));
            }
            q.push_back(value);
            inner.len.store(q.len(), Ordering::Release);
            drop(q);
            // The receiver sets `parked` under the lock before waiting,
            // so either it saw our message or we see its park flag.
            if inner.parked.load(Ordering::Acquire) > 0 {
                inner.cv.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.inner.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Serialize with a receiver that just checked `senders`
                // and is about to wait — notifying while it still holds
                // the lock (pre-wait) would otherwise be lost.
                drop(self.inner.queue.lock().unwrap());
                self.inner.cv.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let inner = &*self.inner;
            // Yield phase: poll the length mirror, handing the core to
            // whichever thread is about to reply.
            let budget = self.budget.get();
            let mut tries = 0;
            loop {
                if inner.len.load(Ordering::Acquire) > 0 {
                    let mut q = inner.queue.lock().unwrap();
                    if let Some(v) = q.pop_front() {
                        inner.len.store(q.len(), Ordering::Release);
                        // Reply arrived while polling: this receiver's
                        // waits are short — poll longer next time.
                        self.budget.set((budget.max(1) * 2).min(YIELD_CAP));
                        return Ok(v);
                    }
                }
                if inner.senders.load(Ordering::Acquire) == 0 {
                    break;
                }
                if tries >= budget {
                    break;
                }
                tries += 1;
                std::thread::yield_now();
            }
            // Block phase: the reply is not imminent (or the channel may
            // be disconnected) — recheck everything under the lock and
            // sleep. Collapse the budget so habitual long waits converge
            // to an immediate sleep instead of stealing the core from
            // the thread that should be running.
            self.budget.set(budget / 4);
            let mut q = inner.queue.lock().unwrap();
            loop {
                if let Some(v) = q.pop_front() {
                    inner.len.store(q.len(), Ordering::Release);
                    return Ok(v);
                }
                if inner.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                inner.parked.fetch_add(1, Ordering::Release);
                q = inner.cv.wait(q).unwrap();
                inner.parked.fetch_sub(1, Ordering::Release);
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            // Under the lock so `send` can't slip a message in between
            // its liveness check and push.
            let _q = self.inner.queue.lock().unwrap();
            self.inner.rx_alive.store(false, Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvError};

    #[test]
    fn unbounded_roundtrip() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
    }

    #[test]
    fn recv_errors_once_drained_and_disconnected() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        drop(tx);
        // Buffered messages survive sender drop; only then disconnect.
        assert_eq!(rx.recv().unwrap(), 7);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = unbounded();
        drop(rx);
        let err = tx.send(42).unwrap_err();
        assert_eq!(err.0, 42);
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = unbounded::<u64>();
        let t = std::thread::spawn(move || rx.recv().unwrap());
        // Outlast the receiver's yield budget so it actually parks.
        std::thread::sleep(std::time::Duration::from_millis(50));
        tx.send(99).unwrap();
        assert_eq!(t.join().unwrap(), 99);
    }

    #[test]
    fn blocking_recv_wakes_on_disconnect() {
        let (tx, rx) = unbounded::<u64>();
        let t = std::thread::spawn(move || rx.recv());
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(tx);
        assert_eq!(t.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn ping_pong_stress() {
        let (atx, arx) = unbounded::<u64>();
        let (btx, brx) = unbounded::<u64>();
        let t = std::thread::spawn(move || {
            let mut sum = 0;
            for _ in 0..10_000 {
                let v = arx.recv().unwrap();
                sum += v;
                btx.send(v + 1).unwrap();
            }
            sum
        });
        for i in 0..10_000u64 {
            atx.send(i).unwrap();
            assert_eq!(brx.recv().unwrap(), i + 1);
        }
        assert_eq!(t.join().unwrap(), (0..10_000).sum::<u64>());
    }

    #[test]
    fn multiple_producers_all_delivered() {
        let (tx, rx) = unbounded::<u64>();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..1_000 {
                        tx.send(p * 1_000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        for p in producers {
            p.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, (0..4_000).collect::<Vec<_>>());
    }
}
