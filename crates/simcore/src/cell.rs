//! [`SimCell`]: shared state owned by a simulation, not guarded by a lock.
//!
//! Every process and callback of a simulation runs on the one thread that
//! calls [`Simulation::run`](crate::Simulation::run), so nothing a
//! simulation shares is ever contended while it runs. A cell therefore
//! pays no atomic read-modify-write per access. It belongs to a *home*,
//! one per simulation, and the thread that runs a simulation holds its
//! home for the whole run, taken with one compare-exchange. `lock()` checks
//! two things with plain loads: that the calling thread holds the cell's
//! home, and that no guard of the cell is alive (a borrow flag).
//!
//! The types stay `Send + Sync`, because a simulation may be built on one
//! thread and run on another and results are read after `join`. The rules
//! for a touch from outside a run:
//!
//! * A cell whose simulation is not running takes its home for the guard's
//!   lifetime (one compare-exchange, released with one `Release` store),
//!   waiting if another thread holds it the same way.
//! * A cell whose simulation another thread is running panics instead of
//!   racing.
//! * A cell made without a simulation binds to the first simulation that
//!   touches it. Until then, a touch outside any run holds one shared
//!   home, [`DETACHED`], for the guard's lifetime.
//!
//! Every access to a cell's value therefore happens while its home is held,
//! and a home changes hands only through an `Acquire` compare-exchange after
//! a `Release` store: one holder's writes happen before the next holder's
//! reads. The same goes for the binding. A cell moves only from
//! `DETACHED` to a simulation, under `DETACHED`, and a taker re-reads the
//! binding once it holds the home it took.
//!
//! A second `lock()` of a cell whose guard is alive panics in every build
//! and names both call sites. On one thread that can only be a re-entrant
//! lock, or a guard held across a park that another process then takes.

use std::cell::{Cell, UnsafeCell};
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::panic::Location;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

type Site = &'static Location<'static>;

/// What the accesses to a cell synchronise on: one per simulation, and
/// [`DETACHED`] for cells no simulation has touched yet.
pub(crate) struct Home {
    /// `thread << 1 | running`: the holding thread's id, with the low bit
    /// set while a run holds the home. 0 when free.
    holder: AtomicU64,
    /// How many times the holder has taken it (a run counts once). Read
    /// and written only by the holder: plain loads and stores.
    depth: AtomicU32,
}

/// The home of every cell that was touched outside a run before any
/// simulation touched it.
static DETACHED: Home = Home::new();

/// How long a touch outside a run waits for a home another thread holds
/// the same way. A guard outside a run lives for a few accesses, so a wait
/// this long means one that is never dropped, which would otherwise make
/// every later taker wait forever.
const HOLD_LIMIT: Duration = Duration::from_secs(1);

thread_local! {
    /// This thread's id in [`Home::holder`]; 0 until first needed.
    static THREAD: Cell<u64> = const { Cell::new(0) };
    /// The home of the innermost simulation this thread is running.
    static RUNNING: Cell<*const Home> = const { Cell::new(ptr::null()) };
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let id = THREAD.get();
    if id != 0 {
        return id;
    }
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    THREAD.set(id);
    id
}

impl Home {
    const fn new() -> Self {
        Home {
            holder: AtomicU64::new(0),
            depth: AtomicU32::new(0),
        }
    }

    /// A home for a new simulation. Never freed: a cell may outlive its
    /// simulation and still has to name what guards it.
    pub(crate) fn leak() -> &'static Home {
        Box::leak(Box::new(Home::new()))
    }

    /// Hold this home, once more if this thread already does. Waits while
    /// another thread holds it outside a run, for up to [`HOLD_LIMIT`];
    /// panics while another thread runs it.
    fn take(&self) {
        let me = thread_id() << 1;
        if self.holder.load(Ordering::Relaxed) & !1 == me {
            let depth = self.depth.load(Ordering::Relaxed);
            self.depth.store(depth + 1, Ordering::Relaxed);
            return;
        }
        let mut round = 0u32;
        let mut waiting_since = None;
        loop {
            match self
                .holder
                .compare_exchange_weak(0, me, Ordering::Acquire, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(word) if word & 1 == 1 => panic!(
                    "a SimCell was touched from thread {:?} while another thread runs its \
                     simulation",
                    std::thread::current()
                ),
                Err(_) if round < 64 => std::hint::spin_loop(),
                Err(word) => {
                    let since = *waiting_since.get_or_insert_with(Instant::now);
                    if since.elapsed() > HOLD_LIMIT {
                        panic!(
                            "thread {:?} (SimCell thread #{}) waited {HOLD_LIMIT:?} for a \
                             SimCell's home, held outside any run by SimCell thread #{}: most \
                             likely a SimGuard that was never dropped (`mem::forget`, or a \
                             guard stored in a value that outlived its use)",
                            std::thread::current(),
                            me >> 1,
                            word >> 1
                        );
                    }
                    std::thread::yield_now();
                }
            }
            round = round.saturating_add(1);
        }
        self.depth.store(1, Ordering::Relaxed);
    }

    /// Undo one [`Home::take`]; the last lets go.
    fn leave(&self) {
        let depth = self.depth.load(Ordering::Relaxed) - 1;
        self.depth.store(depth, Ordering::Relaxed);
        if depth == 0 {
            self.holder.store(0, Ordering::Release);
        }
    }

    /// Hold this home for a run (or a teardown) of its simulation, until
    /// the returned claim drops: its cells' `lock()` takes nothing, and an
    /// unbound cell it touches binds to it.
    pub(crate) fn run(&'static self) -> RunClaim {
        self.take();
        let word = self.holder.load(Ordering::Relaxed);
        self.holder.store(word | 1, Ordering::Relaxed);
        RunClaim {
            home: self,
            word,
            outer: RUNNING.replace(self),
        }
    }
}

/// A run's hold on its simulation's home; see [`Home::run`].
pub(crate) struct RunClaim {
    home: &'static Home,
    /// The holder word before the run marked it running.
    word: u64,
    outer: *const Home,
}

impl Drop for RunClaim {
    fn drop(&mut self) {
        RUNNING.set(self.outer);
        self.home.holder.store(self.word, Ordering::Relaxed);
        self.home.leave();
    }
}

/// Shared state of a simulation: `Send + Sync` when `T: Send`, accessed
/// through [`SimCell::lock`] at no atomic read-modify-write while its
/// simulation runs (module docs).
pub struct SimCell<T: ?Sized> {
    /// The cell's [`Home`]; null until something touches it.
    home: AtomicPtr<Home>,
    /// Where the live guard was taken, if one is.
    borrowed: Cell<Option<Site>>,
    /// Whether the live guard took `home` (its thread was not running it).
    /// Kept here, not in the guard: a guard of one word is measurably
    /// cheaper to carry through the callers that hold it.
    took: Cell<bool>,
    value: UnsafeCell<T>,
}

// SAFETY: `home` is an atomic. `&SimCell<T>` reaches `borrowed`, `took`
// and the value only through `lock()` and its guard, and only while the
// calling thread holds the cell's home (module docs): threads take turns
// owning them, and each turn starts with an `Acquire` that pairs with the
// `Release` that ended the last one. A value moving between threads that
// way needs `T: Send`. It is never shared by two threads at once, so
// `T: Sync` is not needed.
unsafe impl<T: ?Sized + Send> Sync for SimCell<T> {}

impl<T> SimCell<T> {
    /// A cell that binds to the first simulation that touches it.
    pub const fn new(value: T) -> Self {
        SimCell {
            home: AtomicPtr::new(ptr::null_mut()),
            borrowed: Cell::new(None),
            took: Cell::new(false),
            value: UnsafeCell::new(value),
        }
    }

    /// A cell of the simulation whose home is `home`.
    pub(crate) fn in_home(home: &'static Home, value: T) -> Self {
        let cell = SimCell::new(value);
        cell.home
            .store(ptr::from_ref(home).cast_mut(), Ordering::Relaxed);
        cell
    }
}

impl<T: ?Sized> SimCell<T> {
    /// Exclusive access to the value until the guard drops.
    ///
    /// # Panics
    /// If a guard of this cell is alive (naming both call sites), or if
    /// another thread is running the cell's simulation.
    #[inline]
    #[track_caller]
    pub fn lock(&self) -> SimGuard<'_, T> {
        let home = self.home.load(Ordering::Relaxed);
        let took = home.is_null() || !ptr::eq(home, RUNNING.get());
        if took {
            self.enter();
        }
        let here = Location::caller();
        if let Some(first) = self.borrowed.get() {
            if took {
                self.bound().leave();
            }
            reentered(first, here);
        }
        self.borrowed.set(Some(here));
        if took {
            self.took.set(true);
        }
        SimGuard {
            cell: self,
            _not_send: PhantomData,
        }
    }

    /// The home the cell is bound to, once something has touched it.
    fn bound(&self) -> &'static Home {
        let home = self.home.load(Ordering::Relaxed);
        assert!(!home.is_null(), "an untouched SimCell has no home");
        // SAFETY: every pointer stored in `home` is a `&'static Home`:
        // `DETACHED` or one from `Home::leak`.
        unsafe { &*home }
    }

    /// Take the cell's home for a guard, binding the cell first if nothing
    /// has: the way in from outside a run, or for a cell of another
    /// simulation or of none yet. Returns holding [`SimCell::bound`].
    #[cold]
    fn enter(&self) {
        loop {
            let bound = self.home.load(Ordering::Relaxed);
            let running = RUNNING.get();
            if bound.is_null() {
                let to = if running.is_null() {
                    ptr::from_ref(&DETACHED)
                } else {
                    running
                };
                let _ = self.home.compare_exchange(
                    ptr::null_mut(),
                    to.cast_mut(),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                continue;
            }
            let home = self.bound();
            home.take();
            if self.home.load(Ordering::Relaxed) != bound {
                // Moved off `DETACHED` before we held it: go where it went.
                home.leave();
                continue;
            }
            if ptr::eq(home, &DETACHED) && !running.is_null() {
                self.home.store(running.cast_mut(), Ordering::Relaxed);
                home.leave();
                continue;
            }
            return;
        }
    }
}

#[cold]
#[inline(never)]
fn reentered(first: Site, again: Site) -> ! {
    panic!(
        "SimCell locked at {again} while its guard from {first} is alive: a guard must not \
         live across a park or a second lock of the same cell"
    )
}

impl<T: Default> Default for SimCell<T> {
    fn default() -> Self {
        SimCell::new(T::default())
    }
}

impl<T: ?Sized> fmt::Debug for SimCell<T> {
    /// Never touches the value (formatting a held cell must not panic).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimCell").finish_non_exhaustive()
    }
}

/// Exclusive access to the value of a [`SimCell`]. `!Send`: it is dropped
/// on the thread that took it.
#[must_use = "the cell is free again as soon as the guard is dropped"]
pub struct SimGuard<'a, T: ?Sized> {
    cell: &'a SimCell<T>,
    _not_send: PhantomData<*mut ()>,
}

impl<T: ?Sized> Deref for SimGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: this guard exists, so its thread holds the cell's home
        // and it is the cell's only guard (`lock()`): nothing else reaches
        // the value until it drops.
        unsafe { &*self.cell.value.get() }
    }
}

impl<T: ?Sized> DerefMut for SimGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`, and `&mut self` makes this the only
        // reference handed out through this guard.
        unsafe { &mut *self.cell.value.get() }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for SimGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized> Drop for SimGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        let cell = self.cell;
        cell.borrowed.set(None);
        if cell.took.get() {
            cell.took.set(false);
            cell.bound().leave();
        }
    }
}
