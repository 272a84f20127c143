//! Lock-acquisition budget for one MPI operation.
//!
//! Every layer keeps its shared state behind `parking_lot::Mutex`, and a
//! simulation runs on one thread, so every acquisition is uncontended —
//! and still costs an atomic read-modify-write. The rule (DESIGN "Locking
//! discipline") is that an operation takes each object's lock at most
//! once and reads single-writer scalars without it. The shim counts
//! acquisitions per call site in debug builds; this test divides the
//! count of four steady-state loops, shaped like the benchmark's four
//! workloads, by the `isend`/`irecv` calls they complete and holds each
//! quotient under a ceiling, so the tax cannot quietly come back. On
//! failure it prints where the acquisitions were made.
//!
//! Debug builds only: the counter does not exist in release.
#![cfg(debug_assertions)]

use std::collections::BTreeMap;

use parking_lot::lock_count;
use simcore::SimEvent;

mod loops;
use loops::{eager_pp, halo, mr_churn, rndv_stream, Loop, PerOp};

struct Snapshot {
    total: u64,
    by_site: BTreeMap<(&'static str, u32), u64>,
}

fn snapshot() -> Snapshot {
    // A generic function's `.lock()` is one `Location` per crate that
    // instantiates it: sum by what a reader sees, file and line.
    let mut by_site = BTreeMap::new();
    for (site, n) in lock_count::by_site() {
        *by_site.entry((site.file(), site.line())).or_default() += n;
    }
    Snapshot {
        total: lock_count::total(),
        by_site,
    }
}

struct Measured {
    name: &'static str,
    per_op: f64,
    /// Acquisitions per op by source file, busiest first.
    files: Vec<(&'static str, f64)>,
    report: String,
}

/// Run `spec` once and divide the acquisitions made between the two
/// boundaries by the operations completed between them.
fn measure(spec: Loop) -> Measured {
    let loops::Counted {
        start, end, ops, ..
    } = loops::run(&spec, |_| snapshot());
    let per_op = (end.total - start.total) as f64 / ops as f64;

    let mut sites: Vec<(&(&'static str, u32), u64)> = end
        .by_site
        .iter()
        .map(|(k, n)| (k, n - start.by_site.get(k).copied().unwrap_or(0)))
        .filter(|&(_, n)| n > 0)
        .collect();
    let mut files: BTreeMap<&str, u64> = BTreeMap::new();
    for ((file, _), n) in &sites {
        *files.entry(file).or_default() += n;
    }
    let mut files: Vec<_> = files.into_iter().collect();
    files.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let files: Vec<_> = files
        .into_iter()
        .map(|(file, n)| (file, n as f64 / ops as f64))
        .collect();
    sites.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let mut report = format!(
        "{}: {per_op:.2} lock acquisitions per op ({ops} ops)\n  per source file:\n",
        spec.name
    );
    for (file, n) in &files {
        report += &format!("    {n:>8.2}  {file}\n");
    }
    report += "  busiest call sites:\n";
    for ((file, line), n) in sites.into_iter().take(12) {
        report += &format!("    {:>8.2}  {file}:{line}\n", n as f64 / ops as f64);
    }
    Measured {
        name: spec.name,
        per_op,
        files,
        report,
    }
}

/// `Err` with the attribution report when `m` is over `ceiling`.
fn check(m: &Measured, ceiling: f64) -> Result<(), String> {
    println!("{}", m.report);
    if m.per_op <= ceiling {
        return Ok(());
    }
    Err(format!(
        "{} takes {:.2} lock acquisitions per op, over its ceiling of {ceiling}\n{}",
        m.name, m.per_op, m.report
    ))
}

// Ceilings: the measured count plus a little room (counts are
// deterministic — the room is for honest small changes, not noise; the
// eager loop's is under one acquisition, so the negative control below
// trips it). Measured on these loops: 18.32 / 52.42 / 122.04 / 32.40
// acquisitions per op. Before the hand-off lost its middleman (a block
// took the engine state twice and every popped event once more) and idle
// rings stopped being parsed: 24.43 / 59.00 / 138.40 / 37.00; before the
// control plane went onto events: 24.43 / 62.48 / 158.96 / 37.26; before
// the locking discipline, with every accessor taking its lock and the clock
// behind the engine's: 55.46 / 117.44 / 303.54 / 72.84.
const EAGER_CEILING: f64 = 18.5;
const RNDV_CEILING: f64 = 53.0;
const CHURN_CEILING: f64 = 123.0;
const HALO_CEILING: f64 = 33.0;

/// Where the eager loop's saving sits: the engine state (8.29 per op: a
/// block is one acquisition, a callback event one more) and the arenas
/// (6.30: an idle ring is not read).
const EAGER_BY_FILE: [(&str, f64); 2] = [
    ("crates/simcore/src/engine.rs", 8.5),
    ("crates/fabric/src/cluster.rs", 6.5),
];

#[test]
fn eager_pingpong_stays_under_its_lock_budget() {
    let m = measure(eager_pp());
    check(&m, EAGER_CEILING).unwrap_or_else(|e| panic!("{e}"));
    for (file, ceiling) in EAGER_BY_FILE {
        let (_, n) = m.files.iter().find(|(f, _)| f.ends_with(file)).expect(file);
        assert!(
            *n <= ceiling,
            "{file}: {n:.2} per op, over {ceiling}\n{}",
            m.report
        );
    }
}

#[test]
fn windowed_rendezvous_stays_under_its_lock_budget() {
    check(&measure(rndv_stream()), RNDV_CEILING).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn registration_churn_stays_under_its_lock_budget() {
    check(&measure(mr_churn()), CHURN_CEILING).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn srq_halo_stays_under_its_lock_budget() {
    check(&measure(halo()), HALO_CEILING).unwrap_or_else(|e| panic!("{e}"));
}

/// The reads a progress loop makes when nothing is new, one by one: none
/// takes a lock. (`ConnDirectory::drain`, crate-private, has the same
/// check beside it in `connect.rs`.)
#[test]
fn nothing_new_reads_take_no_lock() {
    use fabric::{LinkFault, LinkFaultKind, NodeId};

    let sim = simcore::Simulation::new();
    let sched = sim.scheduler();
    let cluster = fabric::Cluster::new(sim.scheduler(), fabric::ClusterConfig::with_nodes(2));
    let (ev, cq) = (SimEvent::new(), verbs::CompletionQueue::new());
    let (a, b) = (NodeId(0), NodeId(1));
    let lock_free = |what: &str, read: &mut dyn FnMut()| {
        let before = lock_count::total();
        read();
        assert_eq!(lock_count::total(), before, "{what} took a lock");
    };
    lock_free("Scheduler::now", &mut || {
        std::hint::black_box(sched.now());
    });
    lock_free("SimEvent::epoch", &mut || assert_eq!(ev.epoch(), 0));
    lock_free("an empty poll_batch", &mut || {
        assert_eq!(cq.poll_batch(&mut Vec::new(), 16), 0);
    });
    lock_free("an un-armed take_link_fault", &mut || {
        assert_eq!(cluster.take_link_fault(a, b), None);
    });
    // Armed, the plan is consulted under its lock and fires; spent, the
    // fabric is un-armed again.
    cluster.inject_link_fault(LinkFault {
        after_ops: 0,
        kind: LinkFaultKind::Rnr,
        from: None,
        to: None,
    });
    assert_eq!(cluster.take_link_fault(a, b), Some(LinkFaultKind::Rnr));
    lock_free("a spent take_link_fault", &mut || {
        assert_eq!(cluster.take_link_fault(a, b), None);
    });
}

/// Negative control: the gate is live. One more locking accessor per
/// operation — the smallest regression there is — must trip the ceiling.
#[test]
fn one_extra_lock_per_op_trips_the_ceiling() {
    let spec = Loop {
        per_op: PerOp::Lock,
        ..eager_pp()
    };
    let err = check(&measure(spec), EAGER_CEILING).expect_err("an extra lock per op went unseen");
    assert!(err.contains("fabric/src/cluster.rs"), "{err}");
}
