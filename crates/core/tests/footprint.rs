//! Host-memory budget for the simulated machine's arenas.
//!
//! The rule (DESIGN "Host memory: touch what a message touches") is that
//! the simulator's resident memory is the pages simulated software wrote,
//! and that none of them is first written inside a timed path. The kernel
//! says which pages of an arena are backed (`Cluster::mem_resident`); this
//! test runs the four steady-state loops of `loops/mod.rs`, warmed up as
//! the benchmark warms its workloads, and holds two numbers per loop under
//! ceilings: (i) resident KiB per rank, over both arenas of its node, when
//! the loop ends; (ii) the most pages any rank's node gained between the
//! end of warm-up and the end of the loop. On failure it names the arenas
//! that grew.

use fabric::{Cluster, Domain, MemRef, NodeId};
use simcore::mapping::page_size;

mod loops;
use loops::{eager_pp, halo, mr_churn, rndv_stream, Loop, PerOp};

/// Resident bytes of every arena, in node order, host before Phi.
fn residency(cluster: &Cluster) -> Vec<(MemRef, u64)> {
    let arenas = (0..cluster.num_nodes()).flat_map(|n| {
        [Domain::Host, Domain::Phi].map(|domain| MemRef {
            node: NodeId(n),
            domain,
        })
    });
    arenas.map(|m| (m, cluster.mem_resident(m))).collect()
}

struct Measured {
    name: &'static str,
    /// (i).
    resident_kib_per_rank: f64,
    /// (ii): the node that gained most.
    worst_gain_pages: u64,
    report: String,
}

/// The loop warmed up as the benchmark warms the workload it is shaped
/// like: long enough to wrap every ring it uses.
fn warmed(spec: Loop, warm: usize) -> Loop {
    let blocks = spec.blocks.iter().map(|&(size, _, n)| (size, warm, n));
    Loop {
        blocks: blocks.collect(),
        ..spec
    }
}

fn measure(spec: Loop) -> Measured {
    let loops::Counted { start, end, .. } = loops::run(&spec, residency);
    let page = page_size() as u64;
    let total: u64 = end.iter().map(|a| a.1).sum();
    let resident_kib_per_rank = total as f64 / 1024.0 / spec.ranks as f64;
    // One rank per node: a node's two arenas are a rank's.
    let mut gains: Vec<(MemRef, u64)> = start
        .iter()
        .zip(&end)
        .map(|(s, e)| (e.0, e.1.saturating_sub(s.1) / page))
        .collect();
    let per_node = gains.chunks(2).map(|node| node[0].1 + node[1].1);
    let worst_gain_pages = per_node.max().unwrap_or(0);
    gains.retain(|g| g.1 > 0);
    gains.sort_by_key(|g| std::cmp::Reverse(g.1));
    let mut report = format!(
        "{}: {resident_kib_per_rank:.0} KiB resident per rank at the end; at most \
         {worst_gain_pages} pages first touched after warm-up on one node\n",
        spec.name
    );
    for (mem, pages) in gains.iter().take(8) {
        report += &format!("    {pages:>6} pages gained in {mem}\n");
    }
    Measured {
        name: spec.name,
        resident_kib_per_rank,
        worst_gain_pages,
        report,
    }
}

/// Ceiling (ii), the same for every loop: what a few packets larger than
/// any the warm-up happened to stage may still add, and far below the
/// hundreds of pages a ring, a pool or a set of receive buffers adds when
/// its first touches are left to the timed rounds.
const TIMED_GAIN_PAGES: u64 = 32;

/// `Err` with the attribution report when `m` is over either ceiling.
fn check(m: &Measured, resident_kib: f64) -> Result<(), String> {
    println!("{}", m.report);
    if m.resident_kib_per_rank > resident_kib {
        return Err(format!(
            "{} keeps {:.0} KiB resident per rank, over its ceiling of {resident_kib}\n{}",
            m.name, m.resident_kib_per_rank, m.report
        ));
    }
    if m.worst_gain_pages > TIMED_GAIN_PAGES {
        return Err(format!(
            "{} first touches {} pages of one node after warm-up, over the ceiling of \
             {TIMED_GAIN_PAGES}\n{}",
            m.name, m.worst_gain_pages, m.report
        ));
    }
    Ok(())
}

// Ceilings (i): 1.25x what these loops measure with every inbound buffer
// held off-page (DESIGN §18) — 44 / 9,360 / 16,392 / 192 KiB per rank. An
// arrival, into a ring slot or a pool slot, is a held run in a side buffer
// on the heap, not in the arena, until its last read; so what a rank
// keeps resident is what it writes itself: its user buffers and the
// staging slots its sends pass through (the eager ping-pong's 44 KiB). The
// rendezvous loops are their send buffers, which the set-up writes whole;
// their receive buffers read as mirrors and hold displaced stamps without
// a page (DESIGN §18), so a receive or twin page that only a hop or a
// stamp wrote fails (i). No loop gains a page after warm-up: nothing it
// receives lands in a page.
const EAGER_KIB: f64 = 55.0;
const RNDV_KIB: f64 = 11_700.0;
const CHURN_KIB: f64 = 20_490.0;
const HALO_KIB: f64 = 240.0;

#[test]
fn eager_pingpong_stays_under_its_footprint() {
    check(&measure(warmed(eager_pp(), 64)), EAGER_KIB).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn windowed_rendezvous_stays_under_its_footprint() {
    check(&measure(warmed(rndv_stream(), 4)), RNDV_KIB).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn registration_churn_stays_under_its_footprint() {
    check(&measure(warmed(mr_churn(), 128)), CHURN_KIB).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn srq_halo_stays_under_its_footprint() {
    check(&measure(warmed(halo(), 2)), HALO_KIB).unwrap_or_else(|e| panic!("{e}"));
}

/// Negative control: the gate is live. One byte into a fresh page per
/// operation — a first touch in the timed path — trips ceiling (ii), and
/// the failure says which arena it happened in.
#[test]
fn one_fresh_page_per_op_trips_the_ceiling() {
    let spec = Loop {
        per_op: PerOp::FreshPage,
        ..warmed(eager_pp(), 64)
    };
    let err = check(&measure(spec), f64::MAX).expect_err("first touches went unseen");
    assert!(err.contains("pages gained in n0/phi"), "{err}");
}
