//! # simcore — deterministic discrete-event simulation engine
//!
//! The substrate under the DCFA-MPI reproduction: a discrete-event engine
//! whose simulated processes are stackful coroutines, all run on the one
//! thread that calls [`Simulation::run`]. Exactly one process runs at a time
//! and all simultaneous events fire in schedule order, so runs are
//! bit-for-bit deterministic while process code stays ordinary Rust.
//!
//! ## Concepts
//!
//! * [`Simulation`] — owns the event queue and the process table.
//! * [`Ctx`] — handed to each process closure; all blocking goes through it
//!   ([`Ctx::sleep`], [`Ctx::wait`], [`Ctx::wait_event`], [`Ctx::yield_now`]).
//! * [`Scheduler`] — clonable handle used by device models to schedule timed
//!   callbacks and fire completions.
//! * [`Completion`] / [`SimEvent`] / [`Mailbox`] — synchronization objects in
//!   virtual time.
//! * [`TimerQueue`] — timers in `(time, seq)` order with cancel: the event
//!   queue itself, and the MPI engine's watchdogs and retry backoffs.
//!
//! ## Example
//!
//! ```
//! use simcore::{Simulation, SimDuration, Completion};
//!
//! let mut sim = Simulation::new();
//! let done = Completion::new();
//! let done2 = done.clone();
//! sim.spawn("device-user", move |ctx| {
//!     let sched = ctx.scheduler();
//!     // A device finishes its work 3us from now:
//!     done2.complete_at(&sched, ctx.now() + SimDuration::from_micros(3));
//!     ctx.wait(&done2);
//!     assert_eq!(ctx.now().as_micros_f64(), 3.0);
//! });
//! let report = sim.run_expect();
//! assert_eq!(report.final_time.as_micros_f64(), 3.0);
//! ```

mod cell;
mod coro;
mod engine;
mod error;
pub mod mapping;
mod sync;
mod time;
mod timer;

pub use cell::{SimCell, SimGuard};
#[cfg(debug_assertions)]
pub use coro::switch_count;
pub use engine::{proc_local, Ctx, ProcId, RunReport, Scheduler, Simulation};
pub use error::{BlockedProc, SimError};
pub use sync::{Completion, Mailbox, SimEvent};
pub use time::{bandwidth, transfer_time, SimDuration, SimTime};
pub use timer::{TimerHandle, TimerQueue};
