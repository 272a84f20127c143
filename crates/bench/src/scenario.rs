//! One scenario, one runner, one verdict. Every audited soak `repro` can
//! run — the profiled 4-rank mixed workload, link- and daemon-fault soaks,
//! the ring-halo at scale, rank death, a chaos-fuzzer iteration — is a
//! plain [`Scenario`] value handed to [`run`], which owns the only setup →
//! launch → collect sequence. [`Run::violations`] derives what the run
//! must satisfy from the same value, so a new combination (faults × kills
//! × channel) needs no new harness code.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dcfa_mpi::{Comm, Communicator, KillSpec, MpiConfig, MpiError, Request, Src, TagSel};
use fabric::{ClusterConfig, Domain, MemRef, NodeId};
use simcore::{Ctx, SimDuration};

use crate::spec::Faults;

/// What the ranks execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Four ranks on the paper's 8-node cluster, through every protocol
    /// path the trace layer instruments — see `mixed`.
    Mixed,
    /// One rank per node exchanging halos with its ring neighbors, so the
    /// touched pairs stay O(ranks) — see `halo`.
    Halo,
}

/// The receive path eager and control traffic take (DESIGN §19).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// Per-pair RDMA rings.
    Ring,
    /// One shared-receive-queue pool per rank.
    Srq,
}

/// Everything that distinguishes one audited run from another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    pub ranks: usize,
    pub workload: Workload,
    pub channel: Channel,
    pub faults: Faults,
}

impl Default for Scenario {
    /// The profiled run behind `results/baseline_metrics.json`: the
    /// 4-rank mixed workload on rings, nothing armed.
    fn default() -> Self {
        Scenario {
            ranks: 4,
            workload: Workload::Mixed,
            channel: Channel::Ring,
            faults: Faults::default(),
        }
    }
}

/// The transient link faults the halo soak runs under unless told
/// otherwise: enough churn to exercise retry and reorder handling at rank
/// counts the 4-rank suites never reach, but nothing fatal — every
/// operation must still succeed.
pub const HALO_SOAK_FAULTS: &str = "7:transient,23:retry,61:transient";

/// Latest `after_ops` a kill may carry: the parked receive plus 8 halo
/// rounds of 4 neighbors x (isend + irecv). Kills at or below this fire
/// before the victim could reach the shrink agreement, so the agreement
/// commits exactly once per survivor at the full death epoch (a later
/// kill would still be survived — the agreement restarts — but the
/// single-commit gate assumes the schedule fires in phase 1).
pub const KILL_SOAK_MAX_AFTER_OPS: u64 = 65;

/// A rank-death schedule needs a world big enough to lose ranks and keep
/// a meaningful ring.
fn check_kill_ranks(ranks: usize) -> Result<(), String> {
    if ranks < 8 {
        return Err(format!(
            "kills need at least 8 ranks, got {ranks} (pass --ranks N)"
        ));
    }
    Ok(())
}

impl Scenario {
    /// The default scale soak: the halo at `ranks` ranks on the SRQ pool
    /// under [`HALO_SOAK_FAULTS`].
    pub fn halo_soak(ranks: usize) -> Scenario {
        Scenario {
            ranks,
            workload: Workload::Halo,
            channel: Channel::Srq,
            faults: HALO_SOAK_FAULTS.parse().expect("builtin fault spec"),
        }
    }

    fn cluster(&self) -> ClusterConfig {
        match self.workload {
            Workload::Mixed => ClusterConfig::paper(),
            Workload::Halo => ClusterConfig::with_nodes(self.ranks.max(2)),
        }
    }

    /// Check everything outside input can get wrong, once, before
    /// anything runs: the rank count the workload is written for, every
    /// scoped node and rank in range, and the kill schedule's shape
    /// (distinct victims, inside the phase-1 window, at least 4
    /// survivors of at least 8 ranks).
    pub fn validate(&self) -> Result<(), String> {
        let (ranks, f) = (self.ranks, &self.faults);
        match self.workload {
            Workload::Mixed if ranks != 4 => {
                return Err(format!(
                    "the mixed workload is written for 4 ranks, got {ranks}"
                ))
            }
            Workload::Halo if ranks < 2 => {
                return Err(format!("the halo needs at least 2 ranks, got {ranks}"))
            }
            _ => {}
        }
        let nodes = self.cluster().nodes;
        let scoped = f.link.iter().flat_map(|l| [l.from, l.to]);
        for NodeId(n) in scoped.chain(f.daemon.iter().map(|d| d.node)).flatten() {
            if n >= nodes {
                return Err(format!(
                    "fault scoped to node {n} of a {nodes}-node cluster"
                ));
            }
        }
        if f.kills.is_empty() {
            return Ok(());
        }
        if self.workload != Workload::Halo {
            return Err("kills need the halo workload (pass --ranks N)".into());
        }
        check_kill_ranks(ranks)?;
        for (i, k) in f.kills.iter().enumerate() {
            if !(1..=KILL_SOAK_MAX_AFTER_OPS).contains(&k.after_ops) {
                return Err(format!(
                    "kill@{}: after_ops {} outside the phase-1 window 1..={KILL_SOAK_MAX_AFTER_OPS}",
                    k.rank, k.after_ops
                ));
            }
            if k.rank >= ranks {
                return Err(format!("kill targets rank {} of {ranks} ranks", k.rank));
            }
            if f.kills[..i].iter().any(|p| p.rank == k.rank) {
                return Err(format!("rank {} killed twice", k.rank));
            }
        }
        if f.kills.len() > ranks - 4 {
            return Err(format!(
                "{} kills leave fewer than 4 survivors of {ranks} ranks",
                f.kills.len()
            ));
        }
        Ok(())
    }
}

/// How one rank's (or, summed, the whole run's) operations ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Waits that completed successfully.
    pub ok: u64,
    /// Entries or waits that surfaced a transport error.
    pub failed: u64,
    /// Entries or waits that surfaced `PeerFailed`.
    pub peer_failed: u64,
    /// Entries or waits that surfaced `Revoked`.
    pub revoked: u64,
    /// Delivered payloads whose contents did not match the sender's.
    pub corrupt: u64,
}

impl Tally {
    /// The errors a fault plan can legitimately surface are counted, never
    /// panicked on, so every rank's operation count advances
    /// deterministically. Anything else is a bug and aborts the run.
    fn note(&mut self, e: MpiError) {
        match e {
            MpiError::Transport { .. } | MpiError::RemoteTransport { .. } => self.failed += 1,
            MpiError::PeerFailed(_) => self.peer_failed += 1,
            MpiError::Revoked => self.revoked += 1,
            e => panic!("unexpected MPI error: {e}"),
        }
    }

    /// An `isend`/`irecv` entry: the request, or its error counted.
    fn entry(&mut self, res: Result<Request, MpiError>) -> Option<Request> {
        res.map_err(|e| self.note(e)).ok()
    }

    /// Wait on an entered request; `true` when it completed.
    fn wait(&mut self, ctx: &mut Ctx, comm: &mut Comm, req: Option<Request>) -> bool {
        match req.map(|q| comm.wait(ctx, q)) {
            Some(Ok(_)) => {
                self.ok += 1;
                true
            }
            Some(Err(e)) => {
                self.note(e);
                false
            }
            None => false,
        }
    }

    fn add(&mut self, o: &Tally) {
        self.ok += o.ok;
        self.failed += o.failed;
        self.peer_failed += o.peer_failed;
        self.revoked += o.revoked;
        self.corrupt += o.corrupt;
    }
}

/// [`Workload::Mixed`]: eager ring traffic, sender-first and receiver-first
/// rendezvous through the offloading send buffer, an `MPI_ANY_SOURCE`
/// fan-in. Buffer writes, reads and tallying cost no virtual time, so the
/// clean run is the pinned profile bit for bit.
fn mixed(ctx: &mut Ctx, comm: &mut Comm, t: &mut Tally) {
    let (r, n) = (comm.rank(), comm.size());
    let (next, prev) = ((r + 1) % n, (r + n - 1) % n);
    let skew = SimDuration::from_micros(150);
    let stx = comm.alloc(512).unwrap();
    let srx = comm.alloc(512).unwrap();
    let big = comm.alloc(64 << 10).unwrap();
    let pattern = |len: usize, salt: u8| -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
            .collect()
    };
    // Eager ring traffic (and credit-return pressure), each operation
    // waited individually so its outcome can be tallied.
    for i in 0..8u8 {
        comm.write(&stx, 0, &pattern(512, i));
        let rr = t.entry(comm.irecv(ctx, &srx, Src::Rank(prev), TagSel::Tag(10)));
        let sr = t.entry(comm.isend(ctx, &stx, next, 10));
        t.wait(ctx, comm, sr);
        if t.wait(ctx, comm, rr) && comm.read_vec(&srx) != pattern(512, i) {
            t.corrupt += 1;
        }
    }
    // Rendezvous between pairs (0<->1, 2<->3), both flavours: first the
    // receiver arrives late (sender-first RTS path), then the sender
    // arrives late (receiver-first RTR path — the iprobe pumps progress
    // so the arrived RTR is stashed before isend decides, exactly like
    // the faults suite does). 64 KiB is past the eager and offload
    // thresholds, so every send needs a host twin from the daemon — the
    // resource ops armed daemon faults crash, drop and delay.
    let peer = r ^ 1;
    for (round, recv_late) in [true, false].into_iter().enumerate() {
        let want = pattern(64 << 10, 100 + round as u8);
        if r % 2 == 0 {
            if !recv_late {
                ctx.sleep(skew);
                let _ = comm.iprobe(ctx, Src::Rank(peer), TagSel::Tag(999));
            }
            comm.write(&big, 0, &want);
            let sr = t.entry(comm.isend(ctx, &big, peer, 20));
            t.wait(ctx, comm, sr);
        } else {
            if recv_late {
                ctx.sleep(skew);
            }
            let rr = t.entry(comm.irecv(ctx, &big, Src::Rank(peer), TagSel::Tag(20)));
            if t.wait(ctx, comm, rr) && comm.read_vec(&big) != want {
                t.corrupt += 1;
            }
        }
    }
    // ANY_SOURCE fan-in to rank 0 (sequence-locking path); every sender's
    // buffer still holds the last ring round's pattern.
    if r == 0 {
        for _ in 1..n {
            let rr = t.entry(comm.irecv(ctx, &srx, Src::Any, TagSel::Any));
            if t.wait(ctx, comm, rr) && comm.read_vec(&srx) != pattern(512, 7) {
                t.corrupt += 1;
            }
        }
    } else {
        let sr = t.entry(comm.isend(ctx, &stx, 0, 30));
        t.wait(ctx, comm, sr);
    }
}

/// [`Workload::Halo`]: 1 KiB salted halos to the neighbors at offsets ±1
/// and ±2. With kills armed (`recover`) it doubles its rounds, parks a
/// receive, and ends in revoke → shrink → a verified exchange on the
/// shrunk world. Returns `(size of the world this rank ended in, verified
/// post-shrink exchanges)` — `(n, 0)` unless `recover`.
fn halo(ctx: &mut Ctx, comm: &mut Comm, recover: bool, t: &mut Tally) -> (usize, u64) {
    const HALO: u64 = 1024;
    const POST_ROUNDS: u32 = 2;
    const PARK_TAG: u32 = 777;

    let (me, n) = (comm.rank(), comm.size());
    let salt = |rank: usize, round: u32| (rank as u8).wrapping_mul(37).wrapping_add(round as u8);
    let fill = |s: u8| {
        (0..HALO as usize)
            .map(|i| (i as u8) ^ s)
            .collect::<Vec<u8>>()
    };
    // Neighbor set at offsets +/-1 and +/-2 (deduplicated: tiny clusters
    // fold offsets onto the same rank).
    let mut peers: Vec<usize> = Vec::new();
    for off in [1, 2, n - 1, n - 2] {
        let p = (me + off) % n;
        if p != me && !peers.contains(&p) {
            peers.push(p);
        }
    }
    let sbufs: Vec<_> = peers.iter().map(|_| comm.alloc(HALO).unwrap()).collect();
    let rbufs: Vec<_> = peers.iter().map(|_| comm.alloc(HALO).unwrap()).collect();
    // With kills armed, park a receive first (operation #1): only the
    // revocation flood (or its source's death) drains it, so no rank
    // reaches the shrink agreement before the failure is visible.
    let park = recover.then(|| {
        let pbuf = comm.alloc(64).unwrap();
        let q = comm.irecv(ctx, &pbuf, Src::Rank((me + 1) % n), TagSel::Tag(PARK_TAG));
        (q.expect("the park posts before any failure"), pbuf)
    });
    // Phase 1: the rounds run to completion whatever happens, so every
    // scheduled kill fires inside this phase (KILL_SOAK_MAX_AFTER_OPS).
    for round in 0..if recover { 8 } else { 4 } {
        let mut reqs = Vec::with_capacity(peers.len());
        for (i, &p) in peers.iter().enumerate() {
            comm.write(&sbufs[i], 0, &fill(salt(me, round)));
            let rr = t.entry(comm.irecv(ctx, &rbufs[i], Src::Rank(p), TagSel::Tag(round)));
            let sr = t.entry(comm.isend(ctx, &sbufs[i], p, round));
            reqs.push((rr, sr));
        }
        let mut delivered = Vec::with_capacity(peers.len());
        for (rr, sr) in reqs {
            delivered.push(t.wait(ctx, comm, rr));
            t.wait(ctx, comm, sr);
        }
        for (i, &p) in peers.iter().enumerate() {
            if delivered[i] && comm.read_vec(&rbufs[i]) != fill(salt(p, round)) {
                t.corrupt += 1;
            }
        }
    }
    let mut ended = (n, 0);
    if let Some((park, pbuf)) = park {
        // Recovery: observers revoke (many ranks revoke concurrently —
        // the flood is idempotent), the park drains with an error, and
        // every survivor agrees on the shrunk world.
        if t.peer_failed + t.revoked > 0 {
            comm.revoke(ctx);
        }
        let res = comm.wait(ctx, park);
        assert!(res.is_err(), "rank {me}: park resolved as {res:?}");
        let mut sub = comm.shrink(ctx).expect("survivor must shrink");
        let (sr, sn) = (sub.rank(), sub.size());
        let (snext, sprev) = ((sr + 1) % sn, (sr + sn - 1) % sn);
        // Phase 2: a verified exchange on the renumbered world. Every
        // corpse died before the agreement, so the shrunk communicator
        // holds only live ranks and the exchange is infallible.
        for round in 0..POST_ROUNDS {
            sub.cluster()
                .write(&sbufs[0], 0, &fill(0x40 ^ sr as u8 ^ round as u8));
            sub.sendrecv(ctx, &sbufs[0], snext, &rbufs[0], sprev, round)
                .expect("post-shrink exchange failed");
            if sub.cluster().read_vec(&rbufs[0]) != fill(0x40 ^ sprev as u8 ^ round as u8) {
                t.corrupt += 1;
            }
        }
        ended = (sn, u64::from(POST_ROUNDS));
        comm.free(&pbuf);
    }
    for b in sbufs.iter().chain(&rbufs) {
        comm.free(b);
    }
    ended
}

/// What one rank left behind when it finished.
#[derive(Debug, Clone, Copy)]
pub struct RankOut {
    /// Consolidated counter snapshot.
    pub report: dcfa_mpi::StatsReport,
    pub tally: Tally,
    /// Size of the world this rank ended in (shrunk when kills were armed).
    pub world: usize,
    /// Verified post-shrink exchanges completed.
    pub post_ok: u64,
    /// MR-cache regions still pinned by leases at the end (leak gate).
    pub mr_pinned: usize,
    /// Request-table slots still occupied at the end (stranded requests).
    pub reqs_live: usize,
}

/// Failure-plane counters of a run with kills armed: ground-truth kills,
/// detections and their latency, and the recovery protocol's progress.
#[derive(Debug, Clone, Copy)]
pub struct FailureSummary {
    /// Ranks fail-stop killed (ground truth).
    pub kills: u64,
    /// `Dead` promotions on the health board (each corpse once, however
    /// many survivors later reap it locally).
    pub detections: u64,
    /// p99 of the promotion-minus-kill latencies, in virtual ns.
    pub detection_latency_p99_ns: u64,
    /// Revocation floods (`Comm::revoke` epoch bumps).
    pub revokes: u64,
    /// Distinct shrink agreements committed on the board (a clean run
    /// commits exactly one, at the final death epoch).
    pub shrinks: u64,
    /// Protocol objects reclaimed from dead peers across all survivors.
    pub reclaimed: u64,
}

/// Everything one [`run`] observed.
pub struct Run {
    pub scenario: Scenario,
    /// The MPI configuration the ranks ran under (report fingerprint).
    pub cfg: MpiConfig,
    /// Per-rank outcomes, indexed by rank; `None` = never finished
    /// (killed, if the schedule worked).
    pub outs: Vec<Option<RankOut>>,
    /// Operation outcomes summed over the ranks that finished.
    pub tally: Tally,
    /// DCFA host-daemon counters (all nodes aggregated).
    pub daemon: Option<dcfa::DcfaCounters>,
    /// Per-node channel utilization.
    pub fabric: Vec<fabric::FabricStats>,
    /// Per node: host-memory bytes in use (before launch, after the run).
    /// They must match — a daemon crash, a lease reclamation or a dead
    /// rank must never leak a host twin page.
    pub host_mem: Vec<(u64, u64)>,
    /// Per node, both arenas together: bytes of host memory backing them
    /// when the run ended, and bytes they ever extended over. Where the
    /// simulator's own memory is (machine-dependent, never gated).
    pub arena: Vec<(u64, u64)>,
    /// The recorded protocol events, in causal order.
    pub events: Vec<dcfa_mpi::TraceEvent>,
    /// Events dropped by the trace ring (must be 0 for the audit to bind).
    pub dropped: u64,
    /// Protocol-auditor verdict over `events`.
    pub audit: Result<dcfa_mpi::AuditReport, Vec<String>>,
    /// Latency histograms recorded by every rank.
    pub metrics: dcfa_mpi::MetricsHub,
    /// Virtual time the run took, in nanoseconds: the latest instant at
    /// which a rank's body returned or was killed. (The simulation itself
    /// goes on until its queue is empty — finalize, then whatever stale
    /// timers are still parked in it — which is not part of the run.)
    pub elapsed_ns: u64,
    /// Wall-clock time it took to execute (machine-dependent, never gated).
    pub wall_ns: u64,
    /// Scheduler events the run processed.
    pub sim_events: u64,
    /// Present exactly when kills were armed.
    pub failures: Option<FailureSummary>,
}

/// Stamps the latest virtual instant at which a rank body ended, by return
/// or by unwinding, into the shared cell when dropped.
struct EndStamp(simcore::Scheduler, Arc<AtomicU64>);

impl Drop for EndStamp {
    fn drop(&mut self) {
        self.1.fetch_max(self.0.now().0, Ordering::Relaxed);
    }
}

/// Nearest-rank p99 (0 for no samples), the latency histograms' convention.
fn p99(samples: &[u64]) -> u64 {
    let mut s = samples.to_vec();
    s.sort_unstable();
    s.get(s.len().saturating_sub(1) * 99 / 100)
        .copied()
        .unwrap_or(0)
}

/// Run `sc` — traced, profiled and audited, whatever it is. What is armed
/// decides the rest: kills bring the health board, the peer TTL and the
/// workload's recovery phase; daemon faults the session heartbeat (which
/// keeps silent ranks alive) and a live lease reaper. `Err` means `sc`
/// failed [`Scenario::validate`]; nothing ran.
pub fn run(sc: &Scenario) -> Result<Run, String> {
    sc.validate()?;
    let ranks = sc.ranks;
    let recover = !sc.faults.kills.is_empty();
    let daemon_chaos = !sc.faults.daemon.is_empty();

    let mut sim = simcore::Simulation::new();
    let cluster = fabric::Cluster::new(sim.scheduler(), sc.cluster());
    for f in &sc.faults.link {
        cluster.inject_link_fault(*f);
    }
    let ib = verbs::IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster.clone());
    let cfg = MpiConfig {
        srq_depth: (sc.channel == Channel::Srq).then_some(256),
        peer_ttl: recover.then_some(SimDuration::from_micros(50)),
        heartbeat_interval: daemon_chaos.then_some(SimDuration::from_micros(200)),
        ..MpiConfig::dcfa()
    };
    // Size the trace ring to the run: a dropped event would unbind the
    // auditor's verdict. `trace_capacity` is the configured floor.
    let tracer =
        dcfa_mpi::TraceBuf::new((ranks * 4096).next_power_of_two().max(cfg.trace_capacity));
    let metrics = dcfa_mpi::MetricsHub::new();
    let board = recover.then(|| fabric::HealthBoard::new(ranks));
    let opts = dcfa_mpi::LaunchOpts {
        tracer: Some(tracer.clone()),
        metrics: Some(metrics.clone()),
        kills: sc.faults.kills.clone(),
        health: board.clone(),
        daemon: dcfa::DaemonConfig {
            faults: sc.faults.daemon.clone(),
            // No TTL, no reaper: the period only matters under daemon chaos.
            lease_ttl: daemon_chaos.then_some(SimDuration::from_millis(2)),
            reaper_period: SimDuration::from_micros(500),
            ..Default::default()
        },
        ..Default::default()
    };
    let host_used = |c: &fabric::Cluster| -> Vec<u64> {
        (0..c.num_nodes())
            .map(|n| {
                c.mem_used(MemRef {
                    node: NodeId(n),
                    domain: Domain::Host,
                })
            })
            .collect()
    };
    let mem_before = host_used(&cluster);
    let outs = Arc::new(parking_lot::Mutex::new(vec![None; ranks]));
    let outs2 = outs.clone();
    let ended = Arc::new(AtomicU64::new(0));
    let ended2 = ended.clone();
    let workload = sc.workload;
    let daemon = dcfa_mpi::launch(
        &sim,
        &ib,
        &scif,
        cfg.clone(),
        ranks,
        opts,
        move |ctx, comm| {
            // Dropped when the body returns and when a kill unwinds it.
            let _ended = EndStamp(ctx.scheduler(), ended2.clone());
            let mut tally = Tally::default();
            let (world, post_ok) = match workload {
                Workload::Mixed => {
                    mixed(ctx, comm, &mut tally);
                    (comm.size(), 0)
                }
                Workload::Halo => halo(ctx, comm, recover, &mut tally),
            };
            outs2.lock()[comm.rank()] = Some(RankOut {
                report: comm.dump(),
                tally,
                world,
                post_ok,
                mr_pinned: comm.mr_pinned_len(),
                reqs_live: comm.requests_live(),
            });
        },
    );
    // Livelock backstop: a recovery bug that strands one rank leaves the
    // heartbeat sidecars ticking forever, which would hang the run (and
    // CI) instead of failing it. The bound is far above any legitimate run
    // (512 ranks: ~290k events), so hitting it means a real wedge.
    sim.set_event_limit(50_000_000);
    let wall_start = std::time::Instant::now();
    let done = sim.run().unwrap_or_else(|e| {
        if let Some(board) = &board {
            eprintln!("health board at failure: {board:?}");
        }
        panic!("scenario {sc:?}: simulation failed: {e}");
    });
    let wall_ns = wall_start.elapsed().as_nanos() as u64;

    let outs: Vec<Option<RankOut>> = outs.lock().clone();
    let mut tally = Tally::default();
    outs.iter().flatten().for_each(|o| tally.add(&o.tally));
    let failures = board.map(|b| FailureSummary {
        kills: b.kills(),
        detections: b.detections(),
        detection_latency_p99_ns: p99(&b.detection_latency_samples()),
        revokes: b.revoke_epoch(),
        shrinks: b.shrink_count(),
        reclaimed: outs
            .iter()
            .flatten()
            .map(|o| o.report.comm.dead_reclaimed)
            .sum(),
    });
    let events = tracer.snapshot();
    let dropped = tracer.dropped();
    Ok(Run {
        scenario: sc.clone(),
        cfg,
        outs,
        tally,
        daemon: daemon.map(|d| d.snapshot()),
        fabric: (0..cluster.num_nodes())
            .map(|n| cluster.fabric_stats(NodeId(n)))
            .collect(),
        host_mem: mem_before.into_iter().zip(host_used(&cluster)).collect(),
        arena: (0..cluster.num_nodes())
            .map(|n| {
                let arenas = [Domain::Host, Domain::Phi].map(|domain| MemRef {
                    node: NodeId(n),
                    domain,
                });
                (
                    arenas.iter().map(|&m| cluster.mem_resident(m)).sum(),
                    arenas.iter().map(|&m| cluster.mem_high_water(m)).sum(),
                )
            })
            .collect(),
        // Stamp the ring's drop counter into the report, so the loss
        // diagnosis travels next to the invariant verdict.
        audit: dcfa_mpi::audit(&events).map(|mut a| {
            a.events_dropped = dropped;
            a
        }),
        events,
        dropped,
        metrics,
        elapsed_ns: ended.load(Ordering::Relaxed),
        wall_ns,
        sim_events: done.events_processed,
        failures,
    })
}

impl Run {
    /// Counter snapshots of the ranks that finished, in rank order.
    pub fn reports(&self) -> impl Iterator<Item = &dcfa_mpi::StatsReport> {
        self.outs.iter().flatten().map(|o| &o.report)
    }

    fn max_of(&self, f: impl Fn(&dcfa_mpi::CommStats) -> u64) -> u64 {
        self.reports().map(|r| f(&r.comm)).max().unwrap_or(0)
    }

    /// Completed MPI-level sends across all ranks (eager + rendezvous).
    pub fn mpi_ops(&self) -> u64 {
        self.reports()
            .map(|r| r.comm.eager_sends + r.comm.rndv_sends)
            .sum()
    }

    /// Lazily established QP pairs, summed over ranks. A neighbor
    /// workload must keep this O(ranks), not O(ranks^2).
    pub fn established_pairs(&self) -> u64 {
        self.reports().map(|r| r.comm.pairs_established).sum()
    }

    /// Largest per-rank established-pair count.
    pub fn max_pairs_per_rank(&self) -> u64 {
        self.max_of(|c| c.pairs_established)
    }

    /// Largest per-rank communication-buffer footprint (receive pool or
    /// rings + stage rings), in bytes. Must stay flat as ranks grow.
    pub fn bytes_per_rank(&self) -> u64 {
        self.max_of(|c| c.comm_buffer_bytes)
    }

    /// Highest SRQ pool occupancy any rank saw (0 on the ring path).
    pub fn srq_highwater(&self) -> u64 {
        self.max_of(|c| c.srq_highwater)
    }

    /// Ranks the schedule killed, ascending.
    pub fn killed(&self) -> Vec<usize> {
        let mut k: Vec<usize> = self.scenario.faults.kills.iter().map(|k| k.rank).collect();
        k.sort_unstable();
        k
    }

    /// The gates this run's scenario implies, as the messages of those it
    /// violated (empty = healthy). Always: every non-killed rank finished,
    /// payloads intact, trace ring unsaturated, auditor clean, host pages
    /// balanced. The halo must keep its connections O(ranks) and its
    /// per-rank buffers flat. With nothing worse than transient link
    /// faults armed no operation may fail. With kills armed every
    /// survivor must have committed the same shrunk world, completed the
    /// verified exchange on it and leaked no request slot or MR lease,
    /// and the board must have seen exactly the scheduled deaths.
    pub fn violations(&self) -> Vec<String> {
        let (sc, t) = (&self.scenario, &self.tally);
        let killed = self.killed();
        let (deaths, survivors) = (killed.len() as u64, sc.ranks - killed.len());
        let mut v = Vec::new();
        let mut gate = |ok: bool, violation: String| {
            if !ok {
                v.push(violation);
            }
        };
        for (r, out) in self.outs.iter().enumerate() {
            let dead = killed.contains(&r);
            let Some(o) = out else {
                gate(dead, format!("rank {r}: never finished"));
                continue;
            };
            gate(!dead, format!("rank {r}: killed rank finished anyway"));
            if !killed.is_empty() {
                let shrunk = format!("rank {r}: shrunk to {}, expected {survivors}", o.world);
                gate(o.world == survivors, shrunk);
                gate(
                    o.post_ok > 0,
                    format!("rank {r}: no post-shrink exchange completed"),
                );
                let (pinned, live) = (o.mr_pinned, o.reqs_live);
                gate(
                    pinned == 0,
                    format!("rank {r}: {pinned} MR leases still pinned"),
                );
                gate(
                    live == 0,
                    format!("rank {r}: {live} request slots stranded"),
                );
            }
        }
        gate(t.corrupt == 0, format!("{} corrupt payloads", t.corrupt));
        let dropped = self.dropped;
        gate(
            dropped == 0,
            format!("trace ring dropped {dropped} events (audit unbound)"),
        );
        for e in self.audit.as_ref().err().into_iter().flatten().take(10) {
            gate(false, format!("auditor: {e}"));
        }
        for (node, (before, after)) in self.host_mem.iter().enumerate() {
            let leak = format!("node {node}: host pages leaked ({before} B -> {after} B)");
            gate(before == after, leak);
        }
        if sc.workload == Workload::Halo {
            // 4 ring neighbors per rank, doubled for slack (boot order,
            // the shrink agreement's extra pairs).
            let (pairs, max_pairs) = (self.established_pairs(), sc.ranks as u64 * 8);
            gate(
                pairs <= max_pairs,
                format!("{pairs} pairs established, gate is {max_pairs} (O(ranks) neighbor set)"),
            );
            // One receive pool (or a few rings) + a handful of
            // per-neighbor stage rings; independent of the rank count.
            let (bytes, ceiling) = (self.bytes_per_rank(), 16u64 << 20);
            gate(
                bytes <= ceiling,
                format!("{bytes} comm buffer bytes per rank, ceiling is {ceiling}"),
            );
            gate(
                sc.channel == Channel::Ring || self.srq_highwater() > 0,
                "on the SRQ channel but the pool was never used".into(),
            );
        }
        let lost = t.failed + t.peer_failed + t.revoked;
        let survivable = killed.is_empty() && sc.faults.link.iter().all(|l| l.kind.is_transient());
        gate(
            lost == 0 || !survivable,
            format!("{lost} operations failed with nothing fatal armed"),
        );
        if let Some(f) = &self.failures {
            let (kills, seen) = (f.kills, f.detections);
            gate(
                kills == deaths,
                format!("{kills} kills recorded, schedule had {deaths}"),
            );
            gate(
                seen == deaths,
                format!("{seen} corpses promoted dead, expected {deaths}"),
            );
        }
        v
    }

    /// Deterministic digest of everything observable about the run
    /// (FNV-1a over outcome words and per-rank counters). Two runs of
    /// the same scenario must produce identical fingerprints — the
    /// chaos fuzzer's bit-for-bit replay gate.
    pub fn fingerprint(&self) -> u64 {
        self.digest(Some(self.sim_events))
    }

    /// [`Run::fingerprint`] without the scheduler's event count: what the
    /// modelled system did, whatever the simulator spent doing it. A
    /// change that only makes the simulator cheaper leaves this alone.
    pub fn virtual_fingerprint(&self) -> u64 {
        self.digest(None)
    }

    fn digest(&self, sim_events: Option<u64>) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.scenario.ranks as u64);
        for k in self.killed() {
            mix(k as u64);
        }
        mix(self.tally.ok);
        mix(self.tally.peer_failed);
        mix(self.tally.revoked);
        mix(self.tally.corrupt);
        mix(self.elapsed_ns);
        if let Some(n) = sim_events {
            mix(n);
        }
        mix(self.events.len() as u64);
        for out in &self.outs {
            match out {
                None => mix(u64::MAX),
                Some(o) => {
                    let c = &o.report.comm;
                    mix(o.world as u64);
                    mix(o.post_ok);
                    mix(c.eager_sends);
                    mix(c.rndv_sends);
                    mix(c.bytes_sent);
                    mix(c.bytes_received);
                    mix(c.peer_deaths_detected);
                    mix(c.revokes_observed);
                    mix(c.reqs_revoked);
                    mix(c.dead_reclaimed);
                    mix(c.agreement_restarts);
                }
            }
        }
        if let Some(f) = &self.failures {
            mix(f.kills);
            mix(f.detections);
            mix(f.detection_latency_p99_ns);
            mix(f.revokes);
            mix(f.shrinks);
            mix(f.reclaimed);
        }
        h
    }
}

// ---- chaos fuzzer (`repro --chaos SEED`) -----------------------------------

/// Sample a randomized kill schedule from `seed`: 2-6 distinct victim
/// ranks, each with an `after_ops` inside the phase-1 window, so the
/// schedule passes [`Scenario::validate`]. Same seed, same schedule — the
/// fuzzer's reproducibility anchor.
pub fn chaos_schedule(seed: u64, ranks: usize) -> Result<Vec<KillSpec>, String> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    check_kill_ranks(ranks)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let max_kills = (ranks / 4).clamp(2, 6);
    let n_kills = rng.random_range(2usize..=max_kills);
    let mut victims: Vec<usize> = Vec::new();
    while victims.len() < n_kills {
        let r = rng.random_range(0usize..ranks);
        if !victims.contains(&r) {
            victims.push(r);
        }
    }
    Ok(victims
        .into_iter()
        .map(|rank| KillSpec {
            rank,
            after_ops: rng.random_range(2u64..=KILL_SOAK_MAX_AFTER_OPS),
        })
        .collect())
}

/// Verdict of one chaos iteration.
pub struct ChaosReport {
    /// The schedule's first run.
    pub first: Run,
    /// Fingerprint of the bit-for-bit replay (must equal `first`'s).
    pub replay_fingerprint: u64,
    /// `Some` when `first` violated a gate or the replay diverged: the
    /// minimal still-failing scenario (greedy drop-one-kill).
    pub minimal: Option<Scenario>,
}

/// One deterministic chaos iteration over `sc` (a kill schedule from
/// [`chaos_schedule`] armed on it): run it twice — the replay must
/// fingerprint identically, a divergence counts as a violation — and on a
/// failure greedily shrink the schedule to a minimal reproducer by
/// dropping one kill at a time while the run still violates a gate.
pub fn chaos_run(sc: &Scenario) -> Result<ChaosReport, String> {
    let first = run(sc)?;
    let replay_fingerprint = run(sc)?.fingerprint();
    let mut minimal = None;
    if !first.violations().is_empty() || first.fingerprint() != replay_fingerprint {
        let mut cur = sc.clone();
        let mut i = 0;
        while cur.faults.kills.len() > 1 && i < cur.faults.kills.len() {
            let mut cand = cur.clone();
            cand.faults.kills.remove(i);
            if run(&cand)?.violations().is_empty() {
                i += 1; // this kill is load-bearing: keep it
            } else {
                cur = cand; // still reproduces without this kill: drop it
            }
        }
        minimal = Some(cur);
    }
    Ok(ChaosReport {
        first,
        replay_fingerprint,
        minimal,
    })
}
