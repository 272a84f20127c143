//! The four steady-state loops the budget tests count over, shaped like
//! the benchmark's four workloads, and the driver that runs one with a
//! probe read at both ends of its counted rounds. `footprint.rs` probes
//! resident memory, `world_size.rs` held heap bytes; `event_budget.rs`
//! reads the scheduler's event count of whole runs.
#![allow(dead_code)] // each budget uses its own subset

use std::sync::Arc;

use dcfa_mpi::{launch, Comm, Communicator, LaunchOpts, MpiConfig, Src, TagSel};
use fabric::{Buffer, Cluster, PAGE_SIZE};
use simcore::{Ctx, SimCell, SimEvent};

/// `(message size, warm-up rounds, counted rounds)`.
pub type Block = (u64, usize, usize);

#[derive(Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Blocking ping-pong inside pairs (0,1), (2,3): one op in flight.
    PingPong,
    /// Post a window of receive/send pairs to the pair partner, then wait.
    PairExchange,
    /// The same toward the ring neighbours at ±1 and ±2.
    HaloExchange,
}

/// Negative controls: the smallest regression of each budget, made once
/// per completed operation.
#[derive(Clone, Copy, PartialEq)]
pub enum PerOp {
    Nothing,
    /// One more first touch: a byte into a page nothing wrote before.
    FreshPage,
    /// One more scheduler event: a wake parked a watchdog period out.
    Wake,
    /// One more table with a byte for every rank of the world, made by
    /// each rank at its first operation and kept to the end.
    WorldTable,
}

#[derive(Clone)]
pub struct Loop {
    pub name: &'static str,
    pub ranks: usize,
    pub cfg: MpiConfig,
    pub pattern: Pattern,
    /// Receive/send pairs per peer per round of an exchange.
    pub window: usize,
    /// Distinct send (and receive) buffers a ping-pong cycles through.
    pub bufs: usize,
    pub blocks: Vec<Block>,
    pub per_op: PerOp,
}

/// 4 ranks, blocking eager ping-pong at 4 B to 4 KiB on rings.
pub fn eager_pp() -> Loop {
    Loop {
        name: "eager_pp",
        ranks: 4,
        cfg: MpiConfig::dcfa(),
        pattern: Pattern::PingPong,
        window: 1,
        bufs: 1,
        blocks: [4, 64, 512, 4096].map(|s| (s, 16, 128)).to_vec(),
        per_op: PerOp::Nothing,
    }
}

/// 4 ranks, windowed 16 KiB to 1 MiB rendezvous from persistent buffers.
pub fn rndv_stream() -> Loop {
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
pub fn mr_churn() -> Loop {
    Loop {
        name: "mr_churn",
        bufs: 256,
        blocks: vec![(64 << 10, 96, 256)],
        ..eager_pp()
    }
}

/// 16 ranks on the SRQ pool, 1 KiB and 32 KiB halos with 4 neighbours.
pub fn halo() -> Loop {
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
/// arrival reads the probe, so the window between the two boundaries
/// holds exactly the counted rounds of every rank.
struct Shared<T> {
    arrived: SimCell<usize>,
    event: SimEvent,
    probe: Box<dyn Fn(&Cluster) -> T + Send + Sync>,
    /// Probe readings at the two boundaries.
    marks: SimCell<Vec<T>>,
    ops: SimCell<u64>,
}

impl<T> Shared<T> {
    fn barrier(&self, ctx: &mut Ctx, comm: &Comm, ranks: usize, boundary: usize) {
        let target = (boundary + 1) * ranks;
        {
            let mut a = self.arrived.lock();
            *a += 1;
            if *a == target {
                drop(a);
                let mark = (self.probe)(comm.cluster());
                self.marks.lock().push(mark);
                self.event.notify_all(&ctx.scheduler());
                return;
            }
        }
        loop {
            let seen = self.event.epoch();
            if *self.arrived.lock() >= target {
                return;
            }
            ctx.wait_event(&self.event, seen, "budget phase barrier");
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
    /// [`PerOp::FreshPage`]'s supply — allocated, never written — and
    /// how many of its pages have been by now.
    fresh: Option<Buffer>,
    touched: u64,
    ops: u64,
    /// [`PerOp::WorldTable`]'s table.
    world_table: Vec<u8>,
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
        match (self.spec.per_op, &self.fresh) {
            (PerOp::FreshPage, Some(fresh)) => {
                comm.write(fresh, self.touched * PAGE_SIZE, &[1]);
                self.touched += 1;
            }
            (PerOp::WorldTable, _) if self.world_table.is_empty() => {
                self.world_table = vec![0; self.spec.ranks];
            }
            (PerOp::Wake, _) => {
                let sched = comm.cluster().scheduler();
                let period = self.spec.cfg.rndv_timeout.expect("watchdogs are on");
                SimEvent::new().notify_at(sched, sched.now() + period);
            }
            _ => {}
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

fn rank_body<T>(ctx: &mut Ctx, comm: &mut Comm, spec: &Loop, shared: &Shared<T>) {
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
    let alloc = |size: u64, fill: bool| -> Vec<Buffer> {
        (0..per_size)
            .map(|_| {
                let b = comm.alloc(size).expect("Phi memory holds the buffers");
                if fill {
                    comm.write(&b, 0, &vec![me as u8; size as usize]);
                }
                b
            })
            .collect()
    };
    // As the benchmark does: send buffers filled, receive buffers not.
    let bufs = sizes
        .iter()
        .map(|&s| (s, alloc(s, true), alloc(s, false)))
        .collect();
    let rounds: usize = spec.blocks.iter().map(|b| b.1 + b.2).sum();
    let ops_per_round = 2 * peers.len() * spec.window.max(1);
    let fresh = (spec.per_op == PerOp::FreshPage).then(|| {
        let len = (rounds * ops_per_round) as u64 * PAGE_SIZE;
        let mem = comm.mem();
        comm.cluster().alloc_pages(mem, len).expect("fits")
    });
    let mut rank = Rank {
        me,
        spec,
        peers,
        bufs,
        scratch: vec![0; *sizes.iter().max().expect("a size") as usize],
        fresh,
        touched: 0,
        ops: 0,
        world_table: Vec::new(),
    };
    // Rounds are numbered across blocks so a ping-pong keeps cycling its
    // buffers; warm-up comes first, for every block, as in the benchmark.
    let mut round = 0;
    for counted in [false, true] {
        if counted {
            shared.barrier(ctx, comm, n, 0);
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
    shared.barrier(ctx, comm, n, 1);
}

/// `probe` read where the counted rounds start and where they end, the
/// operations completed in between, and the scheduler events of the whole
/// run, set-up and teardown included.
pub struct Counted<T> {
    pub start: T,
    pub end: T,
    pub ops: u64,
    pub events: u64,
}

impl Loop {
    /// The same run without its counted rounds: what a whole-run count
    /// holds besides them.
    pub fn setup_only(&self) -> Loop {
        Loop {
            blocks: self
                .blocks
                .iter()
                .map(|&(s, warm, _)| (s, warm, 0))
                .collect(),
            ..self.clone()
        }
    }
}

/// Run `spec` once, reading `probe` at both ends of its counted rounds.
pub fn run<T: Send + 'static>(
    spec: &Loop,
    probe: impl Fn(&Cluster) -> T + Send + Sync + 'static,
) -> Counted<T> {
    let mut sim = simcore::Simulation::new();
    let cluster = Cluster::new(
        sim.scheduler(),
        fabric::ClusterConfig::with_nodes(spec.ranks),
    );
    let ib = verbs::IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster);
    let shared = Arc::new(Shared {
        arrived: SimCell::new(0),
        event: SimEvent::new(),
        probe: Box::new(probe),
        marks: SimCell::new(Vec::new()),
        ops: SimCell::new(0),
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
    let events = sim.run_expect().events_processed;

    let mut marks = std::mem::take(&mut *shared.marks.lock());
    let (Some(end), Some(start), None) = (marks.pop(), marks.pop(), marks.pop()) else {
        panic!("{}: ranks did not reach both boundaries", spec.name);
    };
    let ops = *shared.ops.lock();
    let counted = spec.blocks.iter().any(|b| b.2 > 0);
    assert!(ops > 0 || !counted, "{}: no operation completed", spec.name);
    Counted {
        start,
        end,
        ops,
        events,
    }
}
