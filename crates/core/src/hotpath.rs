//! Hot-path allocation accounting hooks.
//!
//! The paper's argument is that the message path must not pay for
//! copies or allocator traffic; `crates/core/tests/alloc_hotpath.rs`
//! enforces that claim with a counting global allocator. The engine
//! brackets its MPI-library code with [`enter`] ("this process is on
//! the hot path") and brackets excursions into the *device model* —
//! the simulated HCA, fabric DMA and simulator parking, which model
//! hardware rather than library software — with [`pause`]. The
//! counting allocator then attributes an allocation to the hot path
//! exactly when [`armed`] is true for the allocating process.
//!
//! All state is per simulated process, not per thread: every rank of a
//! simulation runs as a coroutine on one OS thread, so a thread-local
//! would leak one rank's section into the next rank the engine resumes
//! and into device callbacks. The two depth counters are the halves of
//! [`simcore::proc_local`], the one word the engine saves and restores
//! around every resume (const-init TLS underneath, so reading it never
//! allocates), making the hooks free to leave compiled in: production
//! builds simply never read them.

use simcore::proc_local;

/// Sections entered and not left: the low half of the process word.
const DEPTH_ONE: u64 = 1;
/// Pauses entered and not left: the high half.
const PAUSE_ONE: u64 = 1 << 32;

/// Whether the current process is inside a hot-path section and not
/// paused for a device-model excursion.
#[inline]
pub fn armed() -> bool {
    let word = proc_local::get();
    word != 0 && word < PAUSE_ONE
}

/// RAII marker for a hot-path section (see [`enter`]).
pub struct HotSection(());

/// Mark the current process as executing MPI-library hot-path code
/// until the returned guard drops. Nests.
pub fn enter() -> HotSection {
    proc_local::set(proc_local::get() + DEPTH_ONE);
    HotSection(())
}

impl Drop for HotSection {
    fn drop(&mut self) {
        proc_local::set(proc_local::get() - DEPTH_ONE);
    }
}

/// RAII marker for a device-model excursion (see [`pause`]).
pub struct DevicePause(());

/// Suspend hot-path attribution while the process runs device-model or
/// simulator-internal code (posting to the simulated HCA, parking the
/// simulated process). Nests.
pub fn pause() -> DevicePause {
    proc_local::set(proc_local::get() + PAUSE_ONE);
    DevicePause(())
}

impl Drop for DevicePause {
    fn drop(&mut self) {
        proc_local::set(proc_local::get() - PAUSE_ONE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arming_nests_and_pauses() {
        assert!(!armed());
        let a = enter();
        assert!(armed());
        {
            let b = enter();
            assert!(armed());
            let p = pause();
            assert!(!armed());
            {
                let q = pause();
                assert!(!armed());
                drop(q);
            }
            assert!(!armed());
            drop(p);
            assert!(armed());
            drop(b);
        }
        assert!(armed());
        drop(a);
        assert!(!armed());
    }
}
