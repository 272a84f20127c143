//! The few things the benchmark needs from the operating system: CPU
//! affinity, scheduling policy, resource usage and a description of the machine. libc
//! symbols are declared directly so the benchmark adds no crate.

use std::process::Command;

/// Words in a `cpu_set_t` (glibc: 1024 CPUs).
const CPU_SET_WORDS: usize = 16;

#[repr(C)]
#[derive(Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw.
    longs: [i64; 14],
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
    fn sched_getscheduler(pid: i32) -> i32;
}

/// `SCHED_FIFO` on Linux.
const SCHED_FIFO: i32 = 1;

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread (and every thread it spawns afterwards) to the
/// highest CPU it is allowed on, and return that CPU. The simulator runs
/// one thread at a time by construction, so one CPU costs no parallelism
/// and removes cross-CPU wake-up latency from every hand-off.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let cpu = *allowed_cpus().last().ok_or("sched_getaffinity failed")?;
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

/// Put the calling thread (and every thread it spawns afterwards) under
/// the run-to-block scheduler (`SCHED_FIFO`, lowest priority); `false`
/// when the kernel refuses (no `CAP_SYS_NICE`) and the thread keeps the
/// default time-sharing policy.
///
/// On one pinned CPU this makes the order in which the simulator's
/// threads run a property of the program alone: a thread runs until it
/// blocks or yields, a woken thread never preempts its waker, and
/// `sched_yield` goes to the back of one queue. Under the default policy
/// the same hand-offs depend on wake-up preemption and timer ticks, and
/// `halo64` (130 threads polling with `sched_yield`) costs anything from
/// 17 to 118 us of CPU per op from one run to the next.
pub fn run_to_block_scheduling() -> bool {
    let priority: i32 = 1;
    // SAFETY: `priority` is a readable `struct sched_param` (one int);
    // pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_FIFO, &priority) };
    is_run_to_block()
}

/// Whether the calling thread is under `SCHED_FIFO`.
pub fn is_run_to_block() -> bool {
    // SAFETY: no pointers; pid 0 names the calling thread. Mask off
    // `SCHED_RESET_ON_FORK`.
    unsafe { sched_getscheduler(0) & 0xff == SCHED_FIFO }
}

/// CPU time (user + system, every thread) this process has consumed, in
/// ns. The simulator runs exactly one thread at a time on one pinned CPU,
/// so on an undisturbed machine this advances with elapsed time; when
/// the hypervisor or another process takes the CPU away, elapsed time
/// keeps running and this does not. One system call per read.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` matches the kernel's 64-bit `struct timespec` and is
    // writable; the clock id is valid for every process.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock always exists");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Whole-process resource usage so far (all threads, joined ones too).
#[derive(Debug, Clone, Copy, Default)]
pub struct Rusage {
    pub user_s: f64,
    pub sys_s: f64,
    /// Peak resident set, MiB — the kernel's `VmHWM`.
    pub peak_rss_mb: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

pub fn rusage() -> Rusage {
    let mut raw = RawRusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `raw` matches the kernel's 64-bit `struct rusage` layout
    // and is writable; 0 is RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Rusage {
        user_s: secs(raw.utime),
        sys_s: secs(raw.stime),
        peak_rss_mb: raw.longs[0] as f64 / 1024.0,
        ctx_switches: (raw.longs[12] + raw.longs[13]) as u64,
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// `(key, value)` description of the machine and toolchain, recorded in
/// every results file.
pub fn environment() -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    vec![
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"])
                .map(|head| {
                    // Uncommitted changes: the commit alone does not
                    // identify what was measured.
                    match command_line("git", &["status", "--porcelain"]) {
                        Some(_) => format!("{head}-dirty"),
                        None => head,
                    }
                })
                .unwrap_or_else(unknown),
        ),
        (
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map(|n| n.get().to_string())
                .unwrap_or_else(|_| unknown()),
        ),
        (
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| unknown()),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affinity_is_applied_and_inherited() {
        // Run on a scratch thread: pinning is per thread and must not
        // leak into the test harness's other threads.
        std::thread::spawn(|| {
            let cpu = pin_to_one_cpu().expect("pinning works on Linux");
            assert_eq!(allowed_cpus(), vec![cpu]);
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child, vec![cpu], "spawned threads inherit the mask");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn run_to_block_scheduling_is_applied_and_inherited() {
        std::thread::spawn(|| {
            pin_to_one_cpu().expect("pinning works on Linux");
            if !run_to_block_scheduling() {
                // Not privileged here: the benchmark falls back too.
                assert!(!is_run_to_block());
                return;
            }
            assert!(is_run_to_block());
            let child = std::thread::spawn(is_run_to_block).join().unwrap();
            assert!(child, "spawned threads inherit the policy");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let b = process_cpu_ns();
        assert!(b > a, "work consumed CPU time");
    }

    #[test]
    fn rusage_reads_sane_values() {
        let r = rusage();
        assert!(r.peak_rss_mb > 1.0 && r.peak_rss_mb < 1e6, "{r:?}");
        assert!(r.user_s >= 0.0 && r.sys_s >= 0.0);
    }
}
