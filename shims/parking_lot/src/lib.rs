//! Offline stand-in for `parking_lot`: the one lock this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors API-compatible subsets of its external dependencies (see
//! `shims/README.md`). This one is `Mutex::{new, lock}` and its guard —
//! the whole surface the workspace calls.
//!
//! # Why not `std::sync::Mutex`
//!
//! A simulation runs every process and device callback on one thread
//! (`simcore`), so no lock here is ever contended while it runs; the locks
//! exist because the types must stay `Send + Sync` — a `Simulation` may be
//! built on one thread and run on another, and results are read after
//! `join`. What the hot path pays is therefore the *uncontended* price,
//! 50–300 times per MPI operation, and `std`'s is two atomic
//! read-modify-writes plus poison bookkeeping per lock/unlock pair. This
//! lock's is one: `lock` is a `swap(true, Acquire)`, unlock a
//! `store(false, Release)`, and there is no poison state (a panicking
//! simulation process already fails its test; the previous shim discarded
//! the flag too).
//!
//! The contended path exists for soundness, not speed: it spins briefly,
//! then yields, then sleeps in short steps.
//!
//! # Debug builds
//!
//! Under `cfg(debug_assertions)` — and only there; release builds carry
//! none of it — every acquisition is counted per call site in a
//! thread-local ([`lock_count`]; `crates/core/tests/lock_budget.rs` turns
//! the counts into per-operation ceilings), and the lock remembers which
//! thread took it where, so that locking it again on the same thread
//! panics naming both call sites instead of hanging.

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};

/// Spins on a plain load before the contended path starts yielding.
const SPINS: u32 = 64;
/// `yield_now` rounds before the contended path starts sleeping.
const YIELDS: u32 = 64;
/// One sleep step of the contended path.
const NAP: std::time::Duration = std::time::Duration::from_micros(50);

/// A mutual-exclusion lock with `parking_lot::Mutex`'s calling convention:
/// `lock()` returns the guard directly and nothing is ever poisoned.
pub struct Mutex<T: ?Sized> {
    locked: AtomicBool,
    #[cfg(debug_assertions)]
    holder: debug::Holder,
    value: UnsafeCell<T>,
}

// SAFETY: the lock owns its `T`, so sending the lock sends the value:
// `T: Send` is exactly what that needs (`locked` and the debug-only
// `holder` are atomics).
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: `&Mutex<T>` gives access to `T` only through a guard, and at most
// one guard exists at a time (`locked` is taken with an `Acquire` swap and
// released with a `Release` store, so one holder's writes happen-before the
// next holder's reads). Threads sharing the lock therefore take turns
// owning the value — `&mut T` moves between them, which needs `T: Send`;
// they never hold `&T` concurrently, so `T: Sync` is not required.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            locked: AtomicBool::new(false),
            #[cfg(debug_assertions)]
            holder: debug::Holder::new(),
            value: UnsafeCell::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, waiting until it is free.
    ///
    /// In debug builds, panics if the calling thread already holds it.
    #[inline]
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        // `Acquire` pairs with the `Release` store in the guard's drop.
        if self.locked.swap(true, Ordering::Acquire) {
            #[cfg(debug_assertions)]
            self.holder.refuse_reentry(std::panic::Location::caller());
            self.lock_contended();
        }
        #[cfg(debug_assertions)]
        {
            self.holder.set(std::panic::Location::caller());
            debug::count(std::panic::Location::caller());
        }
        MutexGuard {
            lock: self,
            _not_send: PhantomData,
        }
    }

    #[cold]
    fn lock_contended(&self) {
        let mut round = 0u32;
        loop {
            // Wait on a plain load so that waiters share the cache line
            // instead of bouncing it with failed swaps.
            while self.locked.load(Ordering::Relaxed) {
                if round < SPINS {
                    std::hint::spin_loop();
                } else if round < SPINS + YIELDS {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(NAP);
                }
                round = round.saturating_add(1);
            }
            if !self.locked.swap(true, Ordering::Acquire) {
                return;
            }
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> fmt::Debug for Mutex<T> {
    /// Never takes the lock (formatting a held lock must not hang).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// Exclusive access to the value of a [`Mutex`]; unlocks on drop. `!Send`:
/// it must be dropped on the thread that took it.
#[must_use = "the lock is released as soon as the guard is dropped"]
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    _not_send: PhantomData<*mut ()>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: this guard exists, so `locked` is set and was set by the
        // `lock()` that made it: no other guard to the value exists.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`, and `&mut self` makes this the only
        // reference handed out through this guard.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        self.lock.holder.clear();
        // `Release` pairs with the `Acquire` swap of the next `lock()`.
        self.lock.locked.store(false, Ordering::Release);
    }
}

#[cfg(debug_assertions)]
pub use debug::lock_count;

#[cfg(debug_assertions)]
mod debug {
    use std::cell::Cell;
    use std::panic::Location;
    use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

    type Site = &'static Location<'static>;

    thread_local! {
        /// This thread's id for [`Holder`]; 0 until first needed.
        static THREAD: Cell<u64> = const { Cell::new(0) };
        static TOTAL: Cell<u64> = const { Cell::new(0) };
        /// Open-addressed `(call site address, acquisitions)` table;
        /// address 0 marks a free slot. Const-initialised and never
        /// resized, so counting allocates nothing (the allocation-counting
        /// tests run in debug builds too).
        static SITES: [Cell<(usize, u64)>; SLOTS] = const { [const { Cell::new((0, 0)) }; SLOTS] };
    }

    /// Far more than the workspace's lock call sites; a thread that
    /// somehow fills the table keeps counting in [`lock_count::total`].
    const SLOTS: usize = 1024;

    fn thread_id() -> u64 {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        THREAD.with(|t| {
            if t.get() == 0 {
                t.set(NEXT.fetch_add(1, Ordering::Relaxed));
            }
            t.get()
        })
    }

    /// Who holds a lock and where they took it. Written by the holder
    /// only; read by a thread that found the lock taken, to tell its own
    /// re-entry (a certain hang) from another thread's turn.
    pub(crate) struct Holder {
        thread: AtomicU64,
        site: AtomicPtr<Location<'static>>,
    }

    impl Holder {
        pub(crate) const fn new() -> Self {
            Holder {
                thread: AtomicU64::new(0),
                site: AtomicPtr::new(std::ptr::null_mut()),
            }
        }

        // `Relaxed` throughout: a thread compares `thread` with its own
        // id, which only it ever stores, so the only value it must not
        // miss is one it wrote itself — program order gives that.
        pub(crate) fn set(&self, site: Site) {
            self.site
                .store(std::ptr::from_ref(site).cast_mut(), Ordering::Relaxed);
            self.thread.store(thread_id(), Ordering::Relaxed);
        }

        pub(crate) fn clear(&self) {
            self.thread.store(0, Ordering::Relaxed);
        }

        pub(crate) fn refuse_reentry(&self, again: Site) {
            if self.thread.load(Ordering::Relaxed) != thread_id() {
                return;
            }
            let first = self.site.load(Ordering::Relaxed);
            // SAFETY: `thread` names this thread, so this thread holds the
            // lock and `site` is the `&'static Location` its own `set`
            // stored.
            let first: Site = unsafe { &*first };
            panic!(
                "Mutex locked again at {again} by the thread that has held it since {first}: \
                 this would never return"
            );
        }
    }

    pub(crate) fn count(site: Site) {
        TOTAL.set(TOTAL.get() + 1);
        let key = std::ptr::from_ref(site) as usize;
        SITES.with(|sites| {
            let mut i = (key >> 3).wrapping_mul(0x9E37_79B9) % SLOTS;
            for _ in 0..SLOTS {
                let (k, n) = sites[i].get();
                if k == key || k == 0 {
                    sites[i].set((key, n + 1));
                    return;
                }
                i = (i + 1) % SLOTS;
            }
        });
    }

    /// Acquisitions made by the calling thread (debug builds only). A
    /// simulation runs wholly on the thread that calls `run`, so a test
    /// reads these before and after a stretch of simulated work and
    /// divides by the operations done.
    pub mod lock_count {
        use super::*;

        /// Every `Mutex::lock` this thread has made.
        pub fn total() -> u64 {
            TOTAL.get()
        }

        /// The same, per call site (`Location` of the `.lock()`), in no
        /// particular order.
        pub fn by_site() -> Vec<(Site, u64)> {
            SITES.with(|sites| {
                sites
                    .iter()
                    .map(Cell::get)
                    .filter(|&(k, _)| k != 0)
                    // SAFETY: non-zero keys are addresses of the
                    // `&'static Location`s `count` was given.
                    .map(|(k, n)| (unsafe { &*(k as *const Location<'static>) }, n))
                    .collect()
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    #[cfg(debug_assertions)]
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::rc::Rc;
    use std::sync::Arc;

    #[test]
    fn lock_gives_exclusive_access_and_unlocks_on_drop() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        let g = m.lock();
        assert_eq!(*g, 2);
        drop(g);
        assert_eq!(*m.lock(), 2);
        assert_eq!(format!("{m:?}"), "Mutex { .. }");
        assert_eq!(*Mutex::<u8>::default().lock(), 0);
    }

    /// The contended path exercised, not assumed: every increment is a
    /// read-modify-write under the lock, so a lost update or a torn
    /// hand-over shows in the total.
    #[test]
    fn eight_threads_increment_one_counter() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 100_000;
        let m = Arc::new(Mutex::new(0u64));
        let start = Arc::new(std::sync::Barrier::new(THREADS as usize));
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                let (m, start) = (m.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..PER_THREAD {
                        let mut g = m.lock();
                        // Read and write apart, so exclusion is what keeps
                        // the sum right, not one atomic add.
                        let v = std::hint::black_box(*g);
                        *g = v + 1;
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("incrementing thread panicked");
        }
        assert_eq!(*m.lock(), THREADS * PER_THREAD);
    }

    /// Fails to compile if `$t: $bound` — the method is ambiguous then.
    macro_rules! assert_not_impl {
        ($t:ty, $bound:path) => {{
            trait Probe<A> {
                fn probe() {}
            }
            impl<T: ?Sized> Probe<()> for T {}
            struct Yes;
            impl<T: ?Sized + $bound> Probe<Yes> for T {}
            let _ = <$t as Probe<_>>::probe;
        }};
    }

    #[test]
    fn send_and_sync_follow_the_value() {
        fn assert_send_sync<T: Send + Sync>() {}
        // `T: Send` is enough for both, even when `T` is not `Sync`...
        assert_send_sync::<Mutex<Cell<u8>>>();
        // ...and necessary for either.
        assert_not_impl!(Mutex<Rc<u8>>, Send);
        assert_not_impl!(Mutex<Rc<u8>>, Sync);
        // A guard stays on the thread that took it.
        assert_not_impl!(MutexGuard<'static, u8>, Send);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn relocking_on_the_same_thread_panics_naming_both_sites() {
        let m = Mutex::new(0u8);
        let first = line!() + 1;
        let held = m.lock();
        let again = line!() + 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| drop(m.lock())));
        let payload = outcome.expect_err("the second lock() returned");
        let msg = payload.downcast_ref::<String>().expect("formatted panic");
        let file = file!();
        assert!(msg.contains(&format!("{file}:{again}:")), "{msg}");
        assert!(msg.contains(&format!("{file}:{first}:")), "{msg}");
        // The refused attempt left the lock as it was: still held, and
        // free once the holder lets go.
        drop(held);
        drop(m.lock());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn acquisitions_are_counted_per_thread_and_per_site() {
        let m = Mutex::new(0u8);
        let before = lock_count::total();
        let line = line!() + 2;
        for _ in 0..3 {
            drop(m.lock());
        }
        assert_eq!(lock_count::total() - before, 3);
        let here = lock_count::by_site()
            .into_iter()
            .find(|(s, _)| s.file() == file!() && s.line() == line)
            .expect("the loop's call site is in the table");
        assert_eq!(here.1, 3);
        // Another thread's locks are its own.
        std::thread::scope(|s| {
            s.spawn(|| drop(m.lock()));
        });
        assert_eq!(lock_count::total() - before, 3);
    }
}
