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
use std::sync::Arc;

use dcfa_mpi::{launch, Comm, Communicator, LaunchOpts, MpiConfig, Src, TagSel};
use fabric::Buffer;
use parking_lot::{lock_count, Mutex};
use simcore::{Ctx, SimEvent};

/// `(message size, warm-up rounds, counted rounds)`.
type Block = (u64, usize, usize);

#[derive(Clone, Copy, PartialEq)]
enum Pattern {
    /// Blocking ping-pong inside pairs (0,1), (2,3): one op in flight.
    PingPong,
    /// Post a window of receive/send pairs to the pair partner, then wait.
    PairExchange,
    /// The same toward the ring neighbours at ±1 and ±2.
    HaloExchange,
}

#[derive(Clone)]
struct Loop {
    name: &'static str,
    ranks: usize,
    cfg: MpiConfig,
    pattern: Pattern,
    /// Receive/send pairs per peer per round of an exchange.
    window: usize,
    /// Distinct send (and receive) buffers a ping-pong cycles through.
    bufs: usize,
    blocks: Vec<Block>,
    /// Negative control: one more locking accessor per operation.
    extra_lock_per_op: bool,
}

/// 4 ranks, blocking eager ping-pong at 4 B to 4 KiB on rings.
fn eager_pp() -> Loop {
    Loop {
        name: "eager_pp",
        ranks: 4,
        cfg: MpiConfig::dcfa(),
        pattern: Pattern::PingPong,
        window: 1,
        bufs: 1,
        blocks: [4, 64, 512, 4096].map(|s| (s, 16, 128)).to_vec(),
        extra_lock_per_op: false,
    }
}

/// 4 ranks, windowed 16 KiB to 1 MiB rendezvous from persistent buffers.
fn rndv_stream() -> Loop {
    Loop {
        name: "rndv_stream",
        pattern: Pattern::PairExchange,
        window: 8,
        blocks: vec![(16 << 10, 2, 32), (128 << 10, 2, 8), (1 << 20, 2, 2)],
        ..eager_pp()
    }
}

/// 4 ranks, blocking 64 KiB rendezvous over 256 distinct buffers per side:
/// the 64-entry MR and offload caches always miss.
fn mr_churn() -> Loop {
    Loop {
        name: "mr_churn",
        bufs: 256,
        blocks: vec![(64 << 10, 96, 256)],
        ..eager_pp()
    }
}

/// 16 ranks on the SRQ pool, 1 KiB and 32 KiB halos with 4 neighbours.
fn halo() -> Loop {
    Loop {
        name: "halo",
        ranks: 16,
        cfg: MpiConfig {
            srq_depth: Some(256),
            ..MpiConfig::dcfa()
        },
        pattern: Pattern::HaloExchange,
        // Size 0: rounds alternate the two halo sizes.
        blocks: vec![(0, 2, 16)],
        ..eager_pp()
    }
}

const HALO_SIZES: [u64; 2] = [1 << 10, 32 << 10];

/// What the ranks of one run share: an out-of-band barrier whose last
/// arrival reads the counter, so the window between the two boundaries
/// holds exactly the counted rounds of every rank.
struct Shared {
    arrived: Mutex<usize>,
    event: SimEvent,
    /// Counter readings at the two boundaries.
    marks: Mutex<Vec<Snapshot>>,
    ops: Mutex<u64>,
}

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

impl Shared {
    fn barrier(&self, ctx: &mut Ctx, ranks: usize, boundary: usize) {
        let target = (boundary + 1) * ranks;
        {
            let mut a = self.arrived.lock();
            *a += 1;
            if *a == target {
                drop(a);
                self.marks.lock().push(snapshot());
                self.event.notify_all(&ctx.scheduler());
                return;
            }
        }
        loop {
            let seen = self.event.epoch();
            if *self.arrived.lock() >= target {
                return;
            }
            ctx.wait_event(&self.event, seen, "lock-budget phase barrier");
        }
    }
}

struct Rank<'a> {
    me: usize,
    spec: &'a Loop,
    peers: Vec<usize>,
    /// Per size: send buffers, receive buffers.
    bufs: Vec<(u64, Vec<Buffer>, Vec<Buffer>)>,
    scratch: Vec<u8>,
    ops: u64,
}

impl Rank<'_> {
    /// What the benchmark's harness does around each message: stamp the
    /// send buffer, read the received one back.
    fn stamp(&self, comm: &Comm, buf: &Buffer, round: usize) {
        let k = (buf.len as usize).min(8);
        comm.write(buf, 0, &(round as u64).to_le_bytes()[..k]);
    }

    fn verify(&mut self, comm: &Comm, buf: &Buffer, round: usize) {
        let out = &mut self.scratch[..buf.len as usize];
        comm.cluster().read(buf, 0, out);
        let k = out.len().min(8);
        assert_eq!(out[..k], (round as u64).to_le_bytes()[..k], "payload");
    }

    fn op_done(&mut self, comm: &Comm) {
        self.ops += 1;
        if self.spec.extra_lock_per_op {
            std::hint::black_box(comm.cluster().mem_used(comm.mem()));
        }
    }

    fn round(&mut self, ctx: &mut Ctx, comm: &mut Comm, size: u64, round: usize) {
        let si = self
            .bufs
            .iter()
            .position(|b| b.0 == size)
            .expect("buffers exist for every size");
        let tag = (round % 4096 * self.spec.window) as u32;
        if self.spec.pattern == Pattern::PingPong {
            let peer = self.peers[0];
            let k = round % self.spec.bufs;
            let (sbuf, rbuf) = (self.bufs[si].1[k].clone(), self.bufs[si].2[k].clone());
            for half in 0..2 {
                if (half == 0) == self.me.is_multiple_of(2) {
                    self.stamp(comm, &sbuf, round);
                    let req = comm.isend(ctx, &sbuf, peer, tag).expect("isend");
                    comm.wait(ctx, req).expect("send completes");
                } else {
                    let req = comm
                        .irecv(ctx, &rbuf, Src::Rank(peer), TagSel::Tag(tag))
                        .expect("irecv");
                    comm.wait(ctx, req).expect("recv completes");
                    self.verify(comm, &rbuf, round);
                }
                self.op_done(comm);
            }
            return;
        }
        let slots = self.peers.len() * self.spec.window;
        let mut reqs = Vec::with_capacity(2 * slots);
        for k in 0..slots {
            let (peer, slot) = (self.peers[k / self.spec.window], k % self.spec.window);
            let (sbuf, rbuf) = (self.bufs[si].1[k].clone(), self.bufs[si].2[k].clone());
            let tag = tag + slot as u32;
            self.stamp(comm, &sbuf, round);
            reqs.push(
                comm.irecv(ctx, &rbuf, Src::Rank(peer), TagSel::Tag(tag))
                    .expect("irecv"),
            );
            reqs.push(comm.isend(ctx, &sbuf, peer, tag).expect("isend"));
        }
        for req in reqs {
            comm.wait(ctx, req).expect("exchange completes");
            self.op_done(comm);
        }
        for k in 0..slots {
            let rbuf = self.bufs[si].2[k].clone();
            self.verify(comm, &rbuf, round);
        }
    }
}

fn rank_body(ctx: &mut Ctx, comm: &mut Comm, spec: &Loop, shared: &Shared) {
    let me = comm.rank();
    let n = spec.ranks;
    let halo = spec.pattern == Pattern::HaloExchange;
    let peers = if halo {
        [1, 2, n - 1, n - 2].map(|off| (me + off) % n).to_vec()
    } else {
        vec![me ^ 1]
    };
    let per_size = if spec.pattern == Pattern::PingPong {
        spec.bufs
    } else {
        peers.len() * spec.window
    };
    let sizes: Vec<u64> = if halo {
        HALO_SIZES.to_vec()
    } else {
        spec.blocks.iter().map(|b| b.0).collect()
    };
    let alloc = |size: u64| -> Vec<Buffer> {
        (0..per_size)
            .map(|_| {
                let b = comm.alloc(size).expect("Phi memory holds the buffers");
                comm.write(&b, 0, &vec![me as u8; size as usize]);
                b
            })
            .collect()
    };
    let bufs = sizes.iter().map(|&s| (s, alloc(s), alloc(s))).collect();
    let mut rank = Rank {
        me,
        spec,
        peers,
        bufs,
        scratch: vec![0; *sizes.iter().max().expect("a size") as usize],
        ops: 0,
    };
    // Rounds are numbered across blocks so a ping-pong keeps cycling its
    // buffers; warm-up comes first, for every block, as in the benchmark.
    let mut round = 0;
    for counted in [false, true] {
        if counted {
            shared.barrier(ctx, n, 0);
            rank.ops = 0;
        }
        for &(size, warm, timed) in &spec.blocks {
            for i in 0..if counted { timed } else { warm } {
                let size = if size == 0 { HALO_SIZES[i % 2] } else { size };
                rank.round(ctx, comm, size, round);
                round += 1;
            }
        }
    }
    *shared.ops.lock() += rank.ops;
    shared.barrier(ctx, n, 1);
}

struct Measured {
    name: &'static str,
    per_op: f64,
    report: String,
}

/// Run `spec` once and divide the acquisitions made between the two
/// boundaries by the operations completed between them.
fn measure(spec: Loop) -> Measured {
    let mut sim = simcore::Simulation::new();
    let cluster = fabric::Cluster::new(
        sim.scheduler(),
        fabric::ClusterConfig::with_nodes(spec.ranks),
    );
    let ib = verbs::IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster);
    let shared = Arc::new(Shared {
        arrived: Mutex::new(0),
        event: SimEvent::new(),
        marks: Mutex::new(Vec::new()),
        ops: Mutex::new(0),
    });
    let (spec2, shared2) = (spec.clone(), shared.clone());
    launch(
        &sim,
        &ib,
        &scif,
        spec.cfg.clone(),
        spec.ranks,
        LaunchOpts::default(),
        move |ctx, comm| rank_body(ctx, comm, &spec2, &shared2),
    );
    sim.run_expect();

    let marks = shared.marks.lock();
    let [start, end] = marks.as_slice() else {
        panic!("{}: ranks did not reach both boundaries", spec.name);
    };
    let ops = *shared.ops.lock();
    assert!(ops > 0, "{}: no operation completed", spec.name);
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
    sites.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let mut report = format!(
        "{}: {per_op:.2} lock acquisitions per op ({ops} ops)\n  per source file:\n",
        spec.name
    );
    for (file, n) in files {
        report += &format!("    {:>8.2}  {file}\n", n as f64 / ops as f64);
    }
    report += "  busiest call sites:\n";
    for ((file, line), n) in sites.into_iter().take(12) {
        report += &format!("    {:>8.2}  {file}:{line}\n", n as f64 / ops as f64);
    }
    Measured {
        name: spec.name,
        per_op,
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

// Ceilings: the count measured when the locking discipline went in, plus
// a little room (counts are deterministic — the room is for honest small
// changes, not noise; the eager loop's is under one acquisition, so the
// negative control below trips it). Measured on these loops: 24.43 / 62.48
// / 158.96 / 37.26 acquisitions per op; at the parent commit, with every
// accessor taking its lock and the clock behind the engine's, 55.46 /
// 117.44 / 303.54 / 72.84.
const EAGER_CEILING: f64 = 25.0;
const RNDV_CEILING: f64 = 63.5;
const CHURN_CEILING: f64 = 161.0;
const HALO_CEILING: f64 = 38.0;

#[test]
fn eager_pingpong_stays_under_its_lock_budget() {
    check(&measure(eager_pp()), EAGER_CEILING).unwrap_or_else(|e| panic!("{e}"));
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
    lock_free("Scheduler::has_trace", &mut || assert!(!sched.has_trace()));
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
        extra_lock_per_op: true,
        ..eager_pp()
    };
    let err = check(&measure(spec), EAGER_CEILING).expect_err("an extra lock per op went unseen");
    assert!(err.contains("fabric/src/cluster.rs"), "{err}");
}
