//! The four workloads: how their inputs derive from the seed, and the
//! rank closure that is the load generator. The program under test
//! receives only the generated inputs (sizes, tags, buffers, payloads).
//!
//! Every workload is a closed loop: a rank issues its next operation
//! only after the previous round completed. All run with Phi placement,
//! one rank per node, on the paper-calibrated cost model.

use std::sync::Mutex;
use std::time::Instant;

use dcfa_mpi::{Comm, Communicator, MpiConfig, Request, Src, StatsReport, TagSel};
use fabric::Buffer;
use simcore::{Ctx, SimEvent};

use crate::sys;

pub const WORKLOADS: [&str; 4] = ["eager_pp4", "rndv_stream4", "mr_churn4", "halo64"];

/// Iteration counts: the pinned ones, or the tiny ones `--check` and
/// the unit tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Blocking ping-pong inside each pair: one operation in flight.
    PingPong,
    /// Every round posts `window` receive/send pairs per peer, then
    /// waits for all of them.
    Exchange,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Pairs (0,1), (2,3), …
    Pairs,
    /// Ring neighbours at ±1 and ±2.
    Ring2,
}

/// One iteration's inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    pub size: u64,
    pub tag: u32,
    /// Mixed into every payload stamp of the round.
    pub salt: u64,
    /// Which of the `bufs` buffers a ping-pong round uses.
    pub buf: usize,
}

/// Negative control: flip one received byte on `rank` in timed round
/// `round` before it is verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flip {
    pub rank: usize,
    pub round: usize,
}

#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: &'static str,
    pub seed: u64,
    pub ranks: usize,
    pub cfg: MpiConfig,
    pub pattern: Pattern,
    pub topology: Topology,
    /// Receive/send pairs per peer per round (1 for ping-pong).
    pub window: usize,
    /// Distinct send (and receive) buffers per size a ping-pong cycles
    /// through; an exchange has one per peer and window slot instead.
    pub bufs: usize,
    /// Warm-up rounds first, then the timed ones.
    pub rounds: Vec<Round>,
    pub first_timed: usize,
    pub flip: Option<Flip>,
}

/// splitmix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `(size, warm-up rounds, timed rounds)`.
type Block = (u64, usize, usize);

impl Plan {
    /// The inputs of `workload` for `seed`. Op counts and byte totals do
    /// not depend on the seed; block order, tags, salts and the buffer
    /// visiting order do.
    pub fn generate(workload: &str, seed: u64, scale: Scale) -> Option<Plan> {
        let full = scale == Scale::Full;
        let mut rng = Rng::new(mix(seed ^ 0xD1B5_4A32_D192_ED03));
        // A blocking ping-pong in pairs; each workload says what differs.
        let pairs = Plan {
            workload: "",
            seed,
            ranks: 4,
            cfg: MpiConfig::dcfa(),
            pattern: Pattern::PingPong,
            topology: Topology::Pairs,
            window: 1,
            bufs: 1,
            rounds: Vec::new(),
            first_timed: 0,
            flip: None,
        };
        let (mut plan, mut blocks): (Plan, Vec<Block>) = match workload {
            "eager_pp4" => {
                let (w, t) = if full { (64, 3000) } else { (4, 24) };
                (pairs, [4, 64, 512, 4096].map(|s| (s, w, t)).to_vec())
            }
            "rndv_stream4" => {
                let stream = Plan {
                    pattern: Pattern::Exchange,
                    window: 8,
                    ..pairs
                };
                // 128 MiB per size per rank: 4 ranks x 3 sizes = 1.5 GiB.
                let blocks = if full {
                    vec![(16 << 10, 4, 1024), (128 << 10, 4, 128), (1 << 20, 4, 16)]
                } else {
                    vec![(16 << 10, 1, 6), (128 << 10, 1, 3), (1 << 20, 1, 2)]
                };
                (stream, blocks)
            }
            "mr_churn4" => {
                // 1,500 round trips in each of two pairs: 6,000 messages.
                // More buffers than the 64-entry caches hold, visited in
                // a cycle: every acquire misses and evicts.
                let (bufs, w, t) = if full { (256, 128, 1500) } else { (80, 80, 24) };
                (Plan { bufs, ..pairs }, vec![(64 << 10, w, t)])
            }
            "halo64" => {
                let halo = Plan {
                    ranks: 64,
                    cfg: MpiConfig {
                        srq_depth: Some(256),
                        ..MpiConfig::dcfa()
                    },
                    pattern: Pattern::Exchange,
                    topology: Topology::Ring2,
                    ..pairs
                };
                // One block (size 0) whose rounds alternate the two halo
                // sizes.
                (halo, vec![(0, 2, if full { 40 } else { 4 })])
            }
            _ => return None,
        };
        plan.workload = WORKLOADS
            .into_iter()
            .find(|w| *w == workload)
            .expect("matched above");
        let window = plan.window;
        rng.shuffle(&mut blocks);
        let mut order: Vec<usize> = (0..plan.bufs).collect();
        rng.shuffle(&mut order);
        let halo_sizes = if rng.next() & 1 == 0 {
            [1 << 10, 32 << 10]
        } else {
            [32 << 10, 1 << 10]
        };
        let mut rounds = Vec::new();
        let mut first_timed = 0;
        for timed in [false, true] {
            if timed {
                first_timed = rounds.len();
            }
            for &(size, warm, count) in &blocks {
                // Tags stay below 2^20, clear of the library's reserved
                // bands; a window uses `tag .. tag + window`.
                let tag_base = (rng.next() % (1 << 19)) as u32;
                for i in 0..if timed { count } else { warm } {
                    rounds.push(Round {
                        size: if size == 0 { halo_sizes[i % 2] } else { size },
                        tag: tag_base + (i % 4096) as u32 * window as u32,
                        salt: rng.next(),
                        buf: order[rounds.len() % order.len()],
                    });
                }
            }
        }
        plan.rounds = rounds;
        plan.first_timed = first_timed;
        Some(plan)
    }

    pub fn peers(&self, me: usize) -> Vec<usize> {
        match self.topology {
            Topology::Pairs => vec![me ^ 1],
            Topology::Ring2 => {
                let n = self.ranks;
                [1, 2, n - 1, n - 2].map(|off| (me + off) % n).to_vec()
            }
        }
    }

    /// Distinct message sizes, ascending.
    pub fn sizes(&self) -> Vec<u64> {
        let mut s: Vec<u64> = self.rounds.iter().map(|r| r.size).collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    pub fn timed_rounds(&self) -> &[Round] {
        &self.rounds[self.first_timed..]
    }

    /// MPI operations (each `isend`/`irecv` that must complete) one rank
    /// issues in one round.
    fn ops_per_round(&self) -> u64 {
        2 * (self.peers(0).len() * self.window) as u64
    }

    /// Timed MPI operations and timed payload bytes over all ranks.
    pub fn timed_totals(&self) -> (u64, u64) {
        let per_rank = self.ops_per_round();
        let ops = per_rank * self.timed_rounds().len() as u64 * self.ranks as u64;
        let bytes: u64 = self.timed_rounds().iter().map(|r| r.size).sum::<u64>()
            * (per_rank / 2)
            * self.ranks as u64;
        (ops, bytes)
    }

    /// A copy with the timed rounds dropped: the set-up phase alone.
    /// Simulating it gives the event count to subtract from a full run.
    pub fn setup_only(&self) -> Plan {
        let mut p = self.clone();
        p.rounds.truncate(p.first_timed);
        p
    }
}

/// Payload body every message of `size` from `sender` carries; the first
/// bytes are overwritten per message by [`stamp`].
fn golden(seed: u64, sender: usize, size: u64) -> Vec<u8> {
    let mut rng = Rng::new(mix(seed) ^ mix(sender as u64 + 1) ^ size);
    let mut out = Vec::with_capacity(size as usize + 8);
    while out.len() < size as usize {
        out.extend_from_slice(&rng.next().to_le_bytes());
    }
    out.truncate(size as usize);
    out
}

/// Identifies one message: no two messages between the same ranks carry
/// the same stamp, so a stale or misdelivered payload fails the check.
fn stamp(round: &Round, index: usize, from: usize, to: usize, slot: usize) -> [u8; 8] {
    mix(round.salt
        ^ mix(((index as u64) << 32) | ((from as u64) << 20) | ((to as u64) << 8) | slot as u64))
    .to_le_bytes()
}

/// Slices the steady state is cut into for the floor: rank 0 reads the
/// process CPU clock where every so many of its timed `wait`s return.
/// The simulation is deterministic, so slice `k` is the same work in
/// every repetition, and the sum over slices of the least CPU time any
/// repetition spent on each is a floor that a disturbance shorter than a
/// repetition cannot lift. Measured on a disturbed machine over four sets
/// of 15 repetitions of `eager_pp4`: the whole-repetition floor ranged
/// over 9 %, 17 slices 6 %, 73 slices 4.9 %, 511 slices 4.8 %; each
/// clock read is one system call, so more slices buy nothing.
pub const SLICES: usize = 256;

/// A span of host time in one rank. `start_ns`/`end_ns` count from the
/// repetition's start. A span around a blocking call is call *latency*:
/// it includes the time the simulated process was parked.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    pub id: u32,
    /// 0 for a rank's root span.
    pub parent: u32,
    /// Timed round the span belongs to; the same number on every rank.
    pub iter: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    parent: u32,
    iter: u32,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that later spans nest under; returns its index.
    fn open(&mut self, name: &'static str, iter: u32) -> usize {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now();
        self.spans.push(SpanRec {
            name,
            id,
            parent: self.parent,
            iter,
            start_ns,
            end_ns: start_ns,
        });
        self.parent = id;
        self.iter = iter;
        id as usize - 1
    }

    fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.now();
        self.parent = self.spans[index].parent;
    }

    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let index = self.open(name, self.iter);
        let out = f();
        self.close(index);
        out
    }
}

/// What one rank reports when its closure ends.
#[derive(Debug, Clone, Default)]
pub struct RankOut {
    pub ok: u64,
    pub failed: u64,
    pub corrupt: u64,
    /// Timed payload bytes this rank received.
    pub bytes_received: u64,
    /// `(message size, virtual ns)` of every timed round.
    pub iters: Vec<(u64, u64)>,
    pub steady_virt_ns: u64,
    /// Process CPU ns at every `cut_every`-th return of a timed `wait`
    /// of this rank; recorded on rank 0 only.
    pub cuts_cpu_ns: Vec<u64>,
    pub stats: Option<(StatsReport, StatsReport)>,
    pub spans: Vec<SpanRec>,
}

/// State the ranks of one repetition share.
pub struct Shared {
    pub origin: Instant,
    pub outs: Mutex<Vec<Option<RankOut>>>,
    arrived: Mutex<usize>,
    event: SimEvent,
    /// Called by the last rank to reach a phase boundary, before any
    /// rank moves on: 0 ends set-up, 1 ends the steady state.
    on_boundary: Box<dyn Fn(usize) + Send + Sync>,
}

impl Shared {
    pub fn new(ranks: usize, on_boundary: Box<dyn Fn(usize) + Send + Sync>) -> Shared {
        Shared {
            origin: Instant::now(),
            outs: Mutex::new(vec![None; ranks]),
            arrived: Mutex::new(0),
            event: SimEvent::new(),
            on_boundary,
        }
    }

    /// Out-of-band barrier (no MPI traffic, no virtual time).
    fn barrier(&self, ctx: &mut Ctx, ranks: usize, boundary: usize) {
        let target = {
            let mut a = self.arrived.lock().expect("barrier counter");
            *a += 1;
            if *a == (boundary + 1) * ranks {
                (self.on_boundary)(boundary);
                self.event.notify_all(&ctx.scheduler());
                return;
            }
            (boundary + 1) * ranks
        };
        loop {
            let seen = self.event.epoch();
            if *self.arrived.lock().expect("barrier counter") >= target {
                return;
            }
            ctx.wait_event(&self.event, seen, "benchmark phase barrier");
        }
    }
}

/// Per-rank buffers and expected contents for one message size.
struct SizeState {
    size: u64,
    sbufs: Vec<Buffer>,
    rbufs: Vec<Buffer>,
    /// Golden payload of each peer, in `peers` order.
    peer_gold: Vec<Vec<u8>>,
}

struct Rank<'a> {
    me: usize,
    plan: &'a Plan,
    peers: Vec<usize>,
    sizes: Vec<SizeState>,
    scratch: Vec<u8>,
    reqs: Vec<(Result<Request, dcfa_mpi::MpiError>, bool)>,
    rec: Recorder,
    /// Timed waits that returned so far, and how many make one slice.
    waits: usize,
    cut_every: usize,
    out: RankOut,
}

impl Rank<'_> {
    fn write_stamp(&mut self, comm: &Comm, buf: &Buffer, stamp: [u8; 8]) {
        let k = (buf.len as usize).min(8);
        self.rec.call("stamp", || comm.write(buf, 0, &stamp[..k]));
    }

    /// Count `buf` as corrupt unless it holds exactly the sender's golden
    /// payload with `stamp` over its start.
    fn verify(&mut self, comm: &Comm, buf: &Buffer, si: usize, pi: usize, stamp: [u8; 8]) {
        let len = buf.len as usize;
        let gold = &self.sizes[si].peer_gold[pi];
        let scratch = &mut self.scratch[..len];
        let good = self.rec.call("verify", || {
            comm.cluster().read(buf, 0, scratch);
            let k = len.min(8);
            scratch[..k] == stamp[..k] && scratch[k..] == gold[k..]
        });
        if !good {
            self.out.corrupt += 1;
        }
    }

    fn flip_if_asked(&self, comm: &Comm, index: usize, buf: &Buffer) {
        // Warm-up rounds wrap to a round number no control names.
        let here = Flip {
            rank: self.me,
            round: index.wrapping_sub(self.plan.first_timed),
        };
        if self.plan.flip == Some(here) {
            let mut b = [0u8];
            comm.cluster().read(buf, buf.len - 1, &mut b);
            comm.write(buf, buf.len - 1, &[!b[0]]);
        }
    }

    fn complete(&mut self, ctx: &mut Ctx, comm: &mut Comm, timed: bool) {
        // Taken and put back, so the vector keeps its capacity.
        let mut reqs = std::mem::take(&mut self.reqs);
        for (req, is_recv) in reqs.drain(..) {
            let done = req.and_then(|r| self.rec.call("wait", || comm.wait(ctx, r)));
            if timed && self.me == 0 {
                self.waits += 1;
                if self.waits.is_multiple_of(self.cut_every) {
                    self.out.cuts_cpu_ns.push(sys::process_cpu_ns());
                }
            }
            match done {
                Ok(st) => {
                    self.out.ok += 1;
                    if is_recv && timed {
                        self.out.bytes_received += st.len;
                    }
                }
                Err(_) => self.out.failed += 1,
            }
        }
        self.reqs = reqs;
    }

    fn round(&mut self, ctx: &mut Ctx, comm: &mut Comm, index: usize) {
        let plan = self.plan;
        let r = &plan.rounds[index];
        let timed = index >= plan.first_timed;
        let si = self
            .sizes
            .iter()
            .position(|s| s.size == r.size)
            .expect("buffers exist for every planned size");
        let me = self.me;
        match plan.pattern {
            Pattern::PingPong => {
                let peer = self.peers[0];
                let sbuf = self.sizes[si].sbufs[r.buf].clone();
                let rbuf = self.sizes[si].rbufs[r.buf].clone();
                // `send`/`recv` spelled as the library's own default
                // methods spell them, so each half gets its span.
                let send = |s: &mut Self, ctx: &mut Ctx, comm: &mut Comm| {
                    s.write_stamp(comm, &sbuf, stamp(r, index, me, peer, 0));
                    let q = s.rec.call("isend", || comm.isend(ctx, &sbuf, peer, r.tag));
                    s.reqs.push((q, false));
                    s.complete(ctx, comm, timed);
                };
                let recv = |s: &mut Self, ctx: &mut Ctx, comm: &mut Comm| {
                    let q = s.rec.call("irecv", || {
                        comm.irecv(ctx, &rbuf, Src::Rank(peer), TagSel::Tag(r.tag))
                    });
                    s.reqs.push((q, true));
                    s.complete(ctx, comm, timed);
                    s.flip_if_asked(comm, index, &rbuf);
                    s.verify(comm, &rbuf, si, 0, stamp(r, index, peer, me, 0));
                };
                if me.is_multiple_of(2) {
                    send(self, ctx, comm);
                    recv(self, ctx, comm);
                } else {
                    recv(self, ctx, comm);
                    send(self, ctx, comm);
                }
            }
            Pattern::Exchange => {
                let slots = self.peers.len() * plan.window;
                for k in 0..slots {
                    let (pi, slot) = (k / plan.window, k % plan.window);
                    let peer = self.peers[pi];
                    let tag = r.tag + slot as u32;
                    let (sbuf, rbuf) = (
                        self.sizes[si].sbufs[k].clone(),
                        self.sizes[si].rbufs[k].clone(),
                    );
                    self.write_stamp(comm, &sbuf, stamp(r, index, me, peer, slot));
                    let q = self.rec.call("irecv", || {
                        comm.irecv(ctx, &rbuf, Src::Rank(peer), TagSel::Tag(tag))
                    });
                    self.reqs.push((q, true));
                    let q = self.rec.call("isend", || comm.isend(ctx, &sbuf, peer, tag));
                    self.reqs.push((q, false));
                }
                self.complete(ctx, comm, timed);
                for k in 0..slots {
                    let (pi, slot) = (k / plan.window, k % plan.window);
                    let rbuf = self.sizes[si].rbufs[k].clone();
                    if k == 0 {
                        self.flip_if_asked(comm, index, &rbuf);
                    }
                    self.verify(
                        comm,
                        &rbuf,
                        si,
                        pi,
                        stamp(r, index, self.peers[pi], me, slot),
                    );
                }
            }
        }
    }
}

/// The load generator: one rank's part of `plan`. `traced` records a span
/// around every MPI call and harness step and snapshots this rank's
/// counters at both ends of the steady state.
pub fn rank_body(ctx: &mut Ctx, comm: &mut Comm, plan: &Plan, traced: bool, shared: &Shared) {
    let me = comm.rank();
    let peers = plan.peers(me);
    let per_size = match plan.pattern {
        Pattern::PingPong => plan.bufs,
        Pattern::Exchange => peers.len() * plan.window,
    };
    let sizes: Vec<SizeState> = plan
        .sizes()
        .into_iter()
        .map(|size| {
            let mine = golden(plan.seed, me, size);
            let alloc = |fill: bool| -> Vec<Buffer> {
                (0..per_size)
                    .map(|_| {
                        let b = comm.alloc(size).expect("Phi memory holds the buffers");
                        if fill {
                            comm.write(&b, 0, &mine);
                        }
                        b
                    })
                    .collect()
            };
            SizeState {
                size,
                sbufs: alloc(true),
                rbufs: alloc(false),
                peer_gold: peers.iter().map(|&p| golden(plan.seed, p, size)).collect(),
            }
        })
        .collect();
    let timed = plan.timed_rounds().len();
    let ops_per_round = plan.ops_per_round() as usize;
    let mut rank = Rank {
        me,
        plan,
        peers,
        scratch: vec![0; sizes.last().map_or(0, |s| s.size as usize)],
        sizes,
        reqs: Vec::with_capacity(ops_per_round),
        waits: 0,
        cut_every: (timed * ops_per_round).div_ceil(SLICES).max(1),
        rec: Recorder {
            on: false,
            origin: shared.origin,
            // Reserved up front so recording allocates nothing while
            // allocations are being counted.
            spans: Vec::with_capacity(if traced {
                2 + timed * (1 + 3 * ops_per_round)
            } else {
                0
            }),
            parent: 0,
            iter: 0,
        },
        out: RankOut {
            iters: Vec::with_capacity(timed),
            cuts_cpu_ns: Vec::with_capacity(SLICES),
            ..RankOut::default()
        },
    };

    for index in 0..plan.first_timed {
        rank.round(ctx, comm, index);
    }
    let stats_start = traced.then(|| comm.dump());
    shared.barrier(ctx, plan.ranks, 0);

    rank.rec.on = traced;
    let root = traced.then(|| rank.rec.open("steady_state", 0));
    let steady_start = ctx.now();
    for index in plan.first_timed..plan.rounds.len() {
        let iter = (index - plan.first_timed) as u32;
        let span = traced.then(|| rank.rec.open("iteration", iter));
        let t0 = ctx.now();
        rank.round(ctx, comm, index);
        let virt = (ctx.now() - t0).as_nanos();
        rank.out.iters.push((plan.rounds[index].size, virt));
        if let Some(s) = span {
            rank.rec.close(s);
        }
    }
    rank.out.steady_virt_ns = (ctx.now() - steady_start).as_nanos();
    if let Some(s) = root {
        rank.rec.close(s);
    }
    rank.out.stats = stats_start.map(|s| (s, comm.dump()));
    rank.out.spans = std::mem::take(&mut rank.rec.spans);
    shared.outs.lock().expect("rank outputs")[me] = Some(rank.out);
    shared.barrier(ctx, plan.ranks, 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs_same_totals() {
        for w in WORKLOADS {
            let a = Plan::generate(w, 7, Scale::Full).unwrap();
            let b = Plan::generate(w, 7, Scale::Full).unwrap();
            let c = Plan::generate(w, 8, Scale::Full).unwrap();
            assert_eq!(a.rounds, b.rounds, "{w}: same seed");
            assert_ne!(a.rounds, c.rounds, "{w}: another seed");
            assert_eq!(a.timed_totals(), c.timed_totals(), "{w}: totals");
            assert_eq!(a.first_timed, c.first_timed, "{w}: warm-up count");
            assert_eq!(a.sizes(), c.sizes(), "{w}: sizes");
        }
        assert!(Plan::generate("nope", 1, Scale::Full).is_none());
    }

    #[test]
    fn pinned_counts() {
        let totals = |w| Plan::generate(w, 1, Scale::Full).unwrap().timed_totals();
        // 4 sizes x 3,000 round trips x 2 ops x 4 ranks.
        assert_eq!(totals("eager_pp4").0, 96_000);
        // 128 MiB per size per rank.
        assert_eq!(totals("rndv_stream4").1, 4 * 3 * (128 << 20));
        // 6,000 messages, each one send and one receive.
        assert_eq!(totals("mr_churn4").0, 12_000);
        // 64 ranks x 40 rounds x 4 neighbours x 2.
        assert_eq!(totals("halo64").0, 20_480);
    }

    #[test]
    fn churn_cycle_outruns_the_caches() {
        let p = Plan::generate("mr_churn4", 3, Scale::Full).unwrap();
        assert!(p.bufs > 2 * p.cfg.mr_cache_capacity);
        // A buffer comes round again only after every other was used.
        let bufs: Vec<usize> = p.rounds.iter().take(p.bufs).map(|r| r.buf).collect();
        let mut seen = bufs.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), p.bufs);
        assert_eq!(p.rounds[p.bufs].buf, bufs[0]);
    }

    #[test]
    fn stamps_are_unique_per_message() {
        let p = Plan::generate("halo64", 5, Scale::Full).unwrap();
        let mut seen = std::collections::HashSet::new();
        for (i, r) in p.rounds.iter().enumerate() {
            for to in p.peers(9) {
                assert!(seen.insert(stamp(r, i, 9, to, 0)));
            }
        }
        assert_ne!(golden(1, 0, 64), golden(1, 1, 64));
        assert_ne!(golden(1, 0, 64), golden(2, 0, 64));
        assert_eq!(golden(1, 0, 5).len(), 5);
    }
}
