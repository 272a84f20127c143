//! # bench — experiment harness regenerating every table and figure
//!
//! The `repro` binary drives full parameter sweeps and prints the same
//! rows/series the paper reports (see EXPERIMENTS.md for paper-vs-measured
//! records). Criterion benches under `benches/` measure harness hot paths
//! and provide per-figure regression anchors.

use apps::{
    commonly_dcfa, commonly_offload, mpi_pingpong_blocking, mpi_pingpong_nonblocking,
    rdma_direction, stencil_dcfa, stencil_intel_phi, stencil_offload, Direction, MpiRuntime,
    StencilParams,
};
use dcfa_mpi::MpiConfig;
use fabric::ClusterConfig;

pub mod json;
pub mod report;
pub mod stitch;

pub use report::{compare_reports, compare_reports_full, metrics_report_json, METRICS_SCHEMA};

/// Message-size sweep used by the bandwidth/RTT figures (4 B – 2^max_pow,
/// powers of two).
pub fn size_sweep(max_pow: u32) -> Vec<u64> {
    (2..=max_pow).map(|p| 1u64 << p).collect()
}

/// Iteration counts scaled down as messages grow (keeps sweeps quick while
/// staying deterministic).
pub fn iters_for(size: u64) -> u32 {
    match size {
        0..=4096 => 30,
        4097..=262_144 => 12,
        _ => 6,
    }
}

/// A labelled series of (size, value) points.
#[derive(Debug, Clone)]
pub struct Series {
    pub label: String,
    pub points: Vec<(u64, f64)>,
}

/// Fig. 5: RDMA-write bandwidth by direction.
pub fn fig5(ccfg: &ClusterConfig, max_pow: u32) -> Vec<Series> {
    Direction::ALL
        .iter()
        .map(|&dir| Series {
            label: dir.label().to_string(),
            points: size_sweep(max_pow)
                .into_iter()
                .map(|s| (s, rdma_direction(ccfg, dir, s, iters_for(s)).bw_gbs))
                .collect(),
        })
        .collect()
}

/// Figs. 7 and 8: non-blocking RTT (us) and bandwidth (GB/s) for DCFA-MPI
/// with/without the offloading send buffer vs. host MPI.
pub fn fig7_fig8(ccfg: &ClusterConfig, max_pow: u32) -> (Vec<Series>, Vec<Series>) {
    let runtimes = [
        (
            "DCFA-MPI (offload send buffer)",
            MpiRuntime::Dcfa(MpiConfig::dcfa()),
        ),
        (
            "DCFA-MPI (no offload)",
            MpiRuntime::Dcfa(MpiConfig::dcfa_no_offload()),
        ),
        ("host MPI (YAMPII)", MpiRuntime::Dcfa(MpiConfig::host())),
    ];
    let mut rtt = Vec::new();
    let mut bw = Vec::new();
    for (label, rt) in runtimes {
        let mut rtt_pts = Vec::new();
        let mut bw_pts = Vec::new();
        for s in size_sweep(max_pow) {
            let r = mpi_pingpong_nonblocking(ccfg, &rt, s, iters_for(s));
            rtt_pts.push((s, r.rtt_us));
            bw_pts.push((s, r.bw_gbs));
        }
        rtt.push(Series {
            label: label.to_string(),
            points: rtt_pts,
        });
        bw.push(Series {
            label: label.to_string(),
            points: bw_pts,
        });
    }
    (rtt, bw)
}

/// Fig. 9: blocking-ping-pong bandwidth, DCFA-MPI vs Intel-MPI-on-Phi.
pub fn fig9(ccfg: &ClusterConfig, max_pow: u32) -> Vec<Series> {
    let runtimes = [
        ("DCFA-MPI", MpiRuntime::Dcfa(MpiConfig::dcfa())),
        ("Intel MPI on Xeon Phi", MpiRuntime::IntelPhi),
    ];
    runtimes
        .iter()
        .map(|(label, rt)| Series {
            label: label.to_string(),
            points: size_sweep(max_pow)
                .into_iter()
                .map(|s| (s, mpi_pingpong_blocking(ccfg, rt, s, iters_for(s)).bw_gbs))
                .collect(),
        })
        .collect()
}

/// Fig. 9 inset: the 4-byte blocking round trips the paper quotes
/// (15 us vs 28 us). Returns `(dcfa_us, intel_us)`.
pub fn fig9_small_rtt(ccfg: &ClusterConfig) -> (f64, f64) {
    let d = mpi_pingpong_blocking(ccfg, &MpiRuntime::Dcfa(MpiConfig::dcfa()), 4, 30);
    let i = mpi_pingpong_blocking(ccfg, &MpiRuntime::IntelPhi, 4, 30);
    (d.rtt_us, i.rtt_us)
}

/// Fig. 10: communication-only app, per-iteration time for DCFA-MPI vs
/// Xeon+offload.
pub fn fig10(ccfg: &ClusterConfig, max_pow: u32) -> Vec<Series> {
    let sizes = size_sweep(max_pow);
    let dcfa = Series {
        label: "DCFA-MPI".into(),
        points: sizes
            .iter()
            .map(|&s| {
                (
                    s,
                    commonly_dcfa(ccfg, MpiConfig::dcfa(), s, iters_for(s)).iter_us,
                )
            })
            .collect(),
    };
    let off = Series {
        label: "Intel MPI on Xeon + offload".into(),
        points: sizes
            .iter()
            .map(|&s| (s, commonly_offload(ccfg, s, iters_for(s)).iter_us))
            .collect(),
    };
    vec![dcfa, off]
}

/// One Fig. 11/12 grid cell.
#[derive(Debug, Clone)]
pub struct StencilCell {
    pub runtime: &'static str,
    pub procs: usize,
    pub threads: u32,
    pub iter_us: f64,
    pub speedup_vs_serial: f64,
}

/// Figs. 11 and 12: the stencil grid over (runtime, procs, threads),
/// with speed-ups normalized to the 1-proc/1-thread serial run.
pub fn fig11_fig12(
    ccfg: &ClusterConfig,
    n: usize,
    iters: u32,
    procs_list: &[usize],
    threads_list: &[u32],
) -> (f64, Vec<StencilCell>) {
    let serial = stencil_dcfa(
        ccfg,
        MpiConfig::dcfa(),
        StencilParams {
            n,
            iters,
            procs: 1,
            threads: 1,
        },
    );
    let mut cells = Vec::new();
    for &procs in procs_list {
        for &threads in threads_list {
            let p = StencilParams {
                n,
                iters,
                procs,
                threads,
            };
            for (runtime, r) in [
                ("DCFA-MPI", stencil_dcfa(ccfg, MpiConfig::dcfa(), p)),
                ("Intel MPI on Xeon Phi", stencil_intel_phi(ccfg, p)),
                ("Intel MPI on Xeon + offload", stencil_offload(ccfg, p)),
            ] {
                cells.push(StencilCell {
                    runtime,
                    procs,
                    threads,
                    iter_us: r.iter_us,
                    speedup_vs_serial: serial.iter_us / r.iter_us,
                });
            }
        }
    }
    (serial.iter_us, cells)
}

// ---- ablations (design choices DESIGN.md §6 calls out) ----------------------

/// Offloading-send-buffer threshold sweep at a fixed message size: the
/// paper tuned the activation point and found 8 KiB best in its
/// environment. Returns `(threshold, rtt_us)` — `u64::MAX` means "never
/// offload".
pub fn ablation_offload_threshold(ccfg: &ClusterConfig, msg: u64) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    for thr in [1u64 << 10, 4 << 10, 8 << 10, 32 << 10, 128 << 10, u64::MAX] {
        let cfg = if thr == u64::MAX {
            MpiConfig::dcfa_no_offload()
        } else {
            MpiConfig {
                offload_threshold: Some(thr),
                ..MpiConfig::dcfa()
            }
        };
        let r = mpi_pingpong_nonblocking(ccfg, &MpiRuntime::Dcfa(cfg), msg, 8);
        out.push((thr, r.rtt_us));
    }
    out
}

/// MR-cache ablation: ping-pong a large (rendezvous) message with the
/// buffer cache pool on vs. off. Returns `(with_us, without_us)`.
///
/// Beyond timing, this asserts the cache actually behaved as configured:
/// with the pool on, repeated sends from the same buffer must hit; with
/// `mr_cache_capacity = 0` there must be no hits and no region may stay
/// resident after the run (the leak this layer's lease model fixed).
pub fn ablation_mr_cache(ccfg: &ClusterConfig, msg: u64) -> (f64, f64) {
    use dcfa_mpi::{Communicator, Src, TagSel};
    use std::sync::Arc;

    fn run(ccfg: &ClusterConfig, msg: u64, cached: bool) -> f64 {
        let cfg = if cached {
            MpiConfig::dcfa_no_offload()
        } else {
            MpiConfig {
                mr_cache_capacity: 0,
                ..MpiConfig::dcfa_no_offload()
            }
        };
        let iters = 8u32;
        let mut sim = simcore::Simulation::new();
        let cluster = fabric::Cluster::new(sim.scheduler(), ccfg.clone());
        let ib = verbs::IbFabric::new(cluster.clone());
        let scif = scif::ScifFabric::new(cluster);
        let out = Arc::new(parking_lot::Mutex::new(0.0f64));
        let out2 = out.clone();
        dcfa_mpi::launch(
            &sim,
            &ib,
            &scif,
            cfg,
            2,
            dcfa_mpi::LaunchOpts::default(),
            move |ctx, comm| {
                let buf = comm.alloc(msg).unwrap();
                let t0 = ctx.now();
                for _ in 0..iters {
                    if comm.rank() == 0 {
                        comm.send(ctx, &buf, 1, 1).unwrap();
                        comm.recv(ctx, &buf, Src::Rank(1), TagSel::Tag(1)).unwrap();
                    } else {
                        comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
                        comm.send(ctx, &buf, 0, 1).unwrap();
                    }
                }
                if comm.rank() == 0 {
                    *out2.lock() = (ctx.now() - t0).as_micros_f64() / f64::from(iters);
                }
                let (hits, misses) = comm.mr_cache_stats();
                if cached {
                    assert!(
                        hits > 0,
                        "cache on: repeated same-buffer sends must hit (hits={hits})"
                    );
                } else {
                    assert_eq!(hits, 0, "cache off: no lookups may hit");
                    assert!(misses > 0, "cache off: every acquire is a miss");
                    assert_eq!(
                        comm.mr_cache_len(),
                        0,
                        "cache off: no region may stay resident (leak)"
                    );
                }
                assert_eq!(comm.mr_pinned_len(), 0, "no lease may outlive its transfer");
            },
        );
        sim.run_expect();
        let v = *out.lock();
        v
    }

    (run(ccfg, msg, true), run(ccfg, msg, false))
}

/// Eager/rendezvous switch-point sweep at a fixed message size.
pub fn ablation_eager_threshold(ccfg: &ClusterConfig, msg: u64) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    for thr in [1u64 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10] {
        let cfg = MpiConfig {
            eager_threshold: thr,
            ring_slot_payload: thr.max(16 << 10),
            ..MpiConfig::dcfa()
        };
        let r = mpi_pingpong_nonblocking(ccfg, &MpiRuntime::Dcfa(cfg), msg, 8);
        out.push((thr, r.rtt_us));
    }
    out
}

/// Rendezvous-flavour timing study: skew the receiver early (receiver-
/// first RTR path) vs. the sender early (sender-first RTS path) and
/// report per-message time for each. Returns `(recv_first_us,
/// send_first_us)`.
pub fn ablation_rndv_skew(ccfg: &ClusterConfig, msg: u64) -> (f64, f64) {
    use dcfa_mpi::{Communicator, Src, TagSel};
    use std::sync::Arc;

    fn run(ccfg: &ClusterConfig, msg: u64, recv_first: bool) -> f64 {
        let mut sim = simcore::Simulation::new();
        let cluster = fabric::Cluster::new(sim.scheduler(), ccfg.clone());
        let ib = verbs::IbFabric::new(cluster.clone());
        let scif = scif::ScifFabric::new(cluster);
        let out = Arc::new(parking_lot::Mutex::new(0.0f64));
        let out2 = out.clone();
        dcfa_mpi::launch(
            &sim,
            &ib,
            &scif,
            MpiConfig::dcfa_no_offload(),
            2,
            dcfa_mpi::LaunchOpts::default(),
            move |ctx, comm| {
                let buf = comm.alloc(msg).unwrap();
                let skew = simcore::SimDuration::from_micros(200);
                for _ in 0..6 {
                    if comm.rank() == 0 {
                        if recv_first {
                            ctx.sleep(skew);
                        }
                        let t0 = ctx.now();
                        comm.send(ctx, &buf, 1, 1).unwrap();
                        *out2.lock() += (ctx.now() - t0).as_micros_f64() / 6.0;
                    } else {
                        if !recv_first {
                            ctx.sleep(skew);
                        }
                        comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
                    }
                }
            },
        );
        sim.run_expect();
        let v = *out.lock();
        v
    }
    (run(ccfg, msg, true), run(ccfg, msg, false))
}

/// Host-staged-collective ablation (the paper's §VI future work,
/// implemented in `dcfa_mpi::collectives`): plain vs host-staged broadcast
/// across 8 ranks. Returns `(plain_us, staged_us)` for `msg` bytes.
pub fn ablation_host_staged_bcast(ccfg: &ClusterConfig, msg: u64) -> (f64, f64) {
    use dcfa_mpi::collectives;
    use std::sync::Arc;

    let mut sim = simcore::Simulation::new();
    let cluster = fabric::Cluster::new(sim.scheduler(), ccfg.clone());
    let ib = verbs::IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster);
    let out = Arc::new(parking_lot::Mutex::new((0.0f64, 0.0f64)));
    let out2 = out.clone();
    dcfa_mpi::launch(
        &sim,
        &ib,
        &scif,
        MpiConfig::dcfa(),
        8,
        dcfa_mpi::LaunchOpts::default(),
        move |ctx, comm| {
            use dcfa_mpi::Communicator;
            let buf = comm.alloc(msg).unwrap();
            collectives::barrier(comm, ctx).unwrap();
            let t0 = ctx.now();
            collectives::bcast(comm, ctx, &buf, 0).unwrap();
            collectives::barrier(comm, ctx).unwrap();
            let plain = (ctx.now() - t0).as_micros_f64();
            let t1 = ctx.now();
            collectives::bcast_host_staged(comm, ctx, &buf, 0).unwrap();
            collectives::barrier(comm, ctx).unwrap();
            let staged = (ctx.now() - t1).as_micros_f64();
            if comm.rank() == 0 {
                *out2.lock() = (plain, staged);
            }
        },
    );
    sim.run_expect();
    let v = *out.lock();
    v
}

// ---- observability (`repro --stats` / `--trace`) ---------------------------

/// Everything `repro --stats` / `repro --trace` reports: per-rank counter
/// snapshots, daemon + fabric counters, and the audited protocol-event
/// trace of a short mixed-protocol run.
pub struct ObservabilityRun {
    /// Per-rank [`dcfa_mpi::StatsReport`], indexed by rank.
    pub reports: Vec<dcfa_mpi::StatsReport>,
    /// DCFA host-daemon counters (all nodes aggregated).
    pub daemon: Option<dcfa::DcfaCounters>,
    /// Per-node channel utilization.
    pub fabric: Vec<fabric::FabricStats>,
    /// The recorded protocol events, in causal order.
    pub events: Vec<dcfa_mpi::TraceEvent>,
    /// Events dropped by the ring (0 unless the run outgrew the capacity).
    pub dropped: u64,
    /// Protocol-auditor verdict over `events`.
    pub audit: Result<dcfa_mpi::AuditReport, Vec<String>>,
    /// Latency histograms recorded by every rank (see
    /// [`dcfa_mpi::MetricsHub`]); drained by [`metrics_report_json`].
    pub metrics: dcfa_mpi::MetricsHub,
    /// Virtual time the whole simulation took, in nanoseconds.
    pub elapsed_ns: u64,
    /// Wall-clock time the simulation took to execute, in nanoseconds.
    /// Machine-dependent: gated as a floor, never as symmetric drift.
    pub wall_ns: u64,
    /// Scheduler events the run processed (wall-clock throughput is
    /// `sim_events / wall_ns`).
    pub sim_events: u64,
    /// Completed MPI-level send operations across all ranks (eager +
    /// rendezvous), the numerator of `ops_per_sec`.
    pub mpi_ops: u64,
    /// The MPI configuration the ranks ran under (report fingerprint).
    pub cfg: MpiConfig,
    /// Number of ranks launched.
    pub ranks: usize,
    /// Failure-plane counters, present only for runs with the failure
    /// subsystem armed (kill soaks). Serialized as the additive
    /// `failures` section of the metrics report.
    pub failures: Option<FailureSummary>,
}

/// Aggregated failure-plane counters of a run with rank kills armed:
/// ground-truth kills, detections and their latency, and the recovery
/// protocol's progress (revocations, shrink commits, reclaimed objects).
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
    /// commits exactly one, at the final death epoch; the per-rank
    /// commit count lives in the audit report).
    pub shrinks: u64,
    /// Protocol objects reclaimed from dead peers across all survivors.
    pub reclaimed: u64,
}

/// Audit an event stream and stamp in the trace ring's drop counter, so
/// every report carries the loss diagnosis next to the invariant verdict.
fn audited(
    events: &[dcfa_mpi::TraceEvent],
    dropped: u64,
) -> Result<dcfa_mpi::AuditReport, Vec<String>> {
    dcfa_mpi::audit(events).map(|mut a| {
        a.events_dropped = dropped;
        a
    })
}

/// p99 of a sample set (0 for an empty one): nearest-rank on the sorted
/// samples, the same convention the latency histograms use.
fn p99(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut s = samples.to_vec();
    s.sort_unstable();
    s[(s.len() - 1) * 99 / 100]
}

/// Run the 4-rank mixed workload behind `repro --stats`: eager ring
/// traffic, sender-first and receiver-first rendezvous (forced by skewing
/// the peers), `MPI_ANY_SOURCE` receives and offload-buffer syncs — every
/// protocol path the trace layer instruments — with tracing enabled, then
/// audit the event stream.
pub fn observability_run(ccfg: &ClusterConfig) -> ObservabilityRun {
    use dcfa_mpi::{Communicator, Src, TagSel};
    use std::sync::Arc;

    const N: usize = 4;
    let mut sim = simcore::Simulation::new();
    let cluster = fabric::Cluster::new(sim.scheduler(), ccfg.clone());
    let ib = verbs::IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster.clone());
    let cfg = MpiConfig::dcfa();
    let tracer = dcfa_mpi::TraceBuf::new(cfg.trace_capacity);
    let metrics = dcfa_mpi::MetricsHub::new();
    let reports = Arc::new(parking_lot::Mutex::new(vec![None; N]));
    let reports2 = reports.clone();
    let opts = dcfa_mpi::LaunchOpts {
        tracer: Some(tracer.clone()),
        metrics: Some(metrics.clone()),
        ..Default::default()
    };
    let daemon = dcfa_mpi::launch(&sim, &ib, &scif, cfg.clone(), N, opts, move |ctx, comm| {
        let (r, n) = (comm.rank(), comm.size());
        let next = (r + 1) % n;
        let prev = (r + n - 1) % n;
        let skew = simcore::SimDuration::from_micros(150);
        let stx = comm.alloc(512).unwrap();
        let srx = comm.alloc(512).unwrap();
        let big = comm.alloc(64 << 10).unwrap();
        // Eager ring traffic (and credit-return pressure).
        for _ in 0..8 {
            comm.sendrecv(ctx, &stx, next, &srx, prev, 10).unwrap();
        }
        // Rendezvous between pairs (0<->1, 2<->3), both flavours: first
        // the receiver arrives late (sender-first RTS path), then the
        // sender arrives late (receiver-first RTR path — the iprobe
        // pumps progress so the arrived RTR is stashed before isend
        // decides, exactly like the faults suite does). 64 KiB is past
        // the eager and offload thresholds, so the sends also exercise
        // the offloading send buffer.
        let peer = r ^ 1;
        for recv_late in [true, false] {
            if r % 2 == 0 {
                if !recv_late {
                    ctx.sleep(skew);
                    let _ = comm.iprobe(ctx, Src::Rank(peer), TagSel::Tag(999));
                }
                comm.send(ctx, &big, peer, 20).unwrap();
            } else {
                if recv_late {
                    ctx.sleep(skew);
                }
                comm.recv(ctx, &big, Src::Rank(peer), TagSel::Tag(20))
                    .unwrap();
            }
        }
        // ANY_SOURCE fan-in to rank 0 (sequence-locking path).
        if r == 0 {
            for _ in 1..n {
                comm.recv(ctx, &srx, Src::Any, TagSel::Any).unwrap();
            }
        } else {
            comm.send(ctx, &stx, 0, 30).unwrap();
        }
        reports2.lock()[r] = Some(comm.dump());
    });
    let wall_start = std::time::Instant::now();
    let run_report = sim.run_expect();
    let wall_ns = wall_start.elapsed().as_nanos() as u64;
    let events = tracer.snapshot();
    let per_rank: Vec<_> = reports
        .lock()
        .iter()
        .map(|r| r.expect("rank finished"))
        .collect();
    let mpi_ops = per_rank
        .iter()
        .map(|r| r.comm.eager_sends + r.comm.rndv_sends)
        .sum();
    ObservabilityRun {
        reports: per_rank,
        daemon: daemon.map(|d| d.snapshot()),
        fabric: (0..cluster.num_nodes())
            .map(|n| cluster.fabric_stats(fabric::NodeId(n)))
            .collect(),
        dropped: tracer.dropped(),
        audit: audited(&events, tracer.dropped()),
        events,
        metrics,
        elapsed_ns: run_report.final_time.0,
        wall_ns,
        sim_events: run_report.events_processed,
        mpi_ops,
        cfg,
        ranks: N,
        failures: None,
    }
}

/// Result of the fault-soak run behind `repro --faults`: the usual
/// observability snapshot plus how the injected faults surfaced at the
/// MPI layer.
pub struct FaultSoakRun {
    /// Point-to-point waits that completed successfully.
    pub ops_ok: u64,
    /// Waits that surfaced a transport error to the caller.
    pub ops_failed: u64,
    /// Counters, fabric stats, trace and audit of the faulted run.
    pub obs: ObservabilityRun,
}

/// Run a 4-rank mixed workload with the given link-fault plans armed on
/// the fabric. The workload is written fault-tolerantly — every transport
/// error is caught and tallied; any other error (or a rank panic) aborts
/// the run — so a `repro --faults <spec>` soak proves the recovery path
/// end to end: transient faults heal invisibly, fatal faults fail only
/// the owning request, and the auditor must stay clean throughout.
/// `srq` runs the soak on the shared-receive-queue pool instead of the
/// per-pair rings, so WC errors and recovery interleave with SRQ slot
/// recycling (`repro --faults <spec> --srq`, a permanent CI variant).
pub fn fault_soak_run(
    ccfg: &ClusterConfig,
    faults: &[fabric::LinkFault],
    srq: bool,
) -> FaultSoakRun {
    use dcfa_mpi::{Communicator, MpiError, Src, TagSel};
    use std::sync::Arc;

    const N: usize = 4;
    let mut sim = simcore::Simulation::new();
    let cluster = fabric::Cluster::new(sim.scheduler(), ccfg.clone());
    for f in faults {
        cluster.inject_link_fault(*f);
    }
    let ib = verbs::IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster.clone());
    let cfg = MpiConfig {
        srq_depth: srq.then_some(256),
        ..MpiConfig::dcfa()
    };
    let tracer = dcfa_mpi::TraceBuf::new(cfg.trace_capacity);
    let metrics = dcfa_mpi::MetricsHub::new();
    let reports = Arc::new(parking_lot::Mutex::new(vec![None; N]));
    let reports2 = reports.clone();
    let tallies = Arc::new(parking_lot::Mutex::new((0u64, 0u64)));
    let tallies2 = tallies.clone();
    let opts = dcfa_mpi::LaunchOpts {
        tracer: Some(tracer.clone()),
        metrics: Some(metrics.clone()),
        ..Default::default()
    };
    let daemon = dcfa_mpi::launch(&sim, &ib, &scif, cfg.clone(), N, opts, move |ctx, comm| {
        let (r, n) = (comm.rank(), comm.size());
        let next = (r + 1) % n;
        let prev = (r + n - 1) % n;
        let skew = simcore::SimDuration::from_micros(150);
        let stx = comm.alloc(512).unwrap();
        let srx = comm.alloc(512).unwrap();
        let big = comm.alloc(64 << 10).unwrap();
        let (mut ok, mut failed) = (0u64, 0u64);
        let mut tally = |res: Result<dcfa_mpi::Status, MpiError>| match res {
            Ok(_) => ok += 1,
            Err(MpiError::Transport { .. }) | Err(MpiError::RemoteTransport { .. }) => failed += 1,
            Err(e) => panic!("unexpected MPI error under fault injection: {e}"),
        };
        // Eager ring traffic, waited individually so each operation's
        // outcome can be tallied.
        for _ in 0..8 {
            let rr = comm
                .irecv(ctx, &srx, Src::Rank(prev), TagSel::Tag(10))
                .unwrap();
            let sr = comm.isend(ctx, &stx, next, 10).unwrap();
            tally(comm.wait(ctx, sr));
            tally(comm.wait(ctx, rr));
        }
        // Rendezvous between pairs (0<->1, 2<->3), both flavours: the
        // skew forces the sender-first (RTS) path one round and the
        // receiver-first (RTR) path the next.
        let peer = r ^ 1;
        for recv_late in [true, false] {
            if r % 2 == 0 {
                if !recv_late {
                    ctx.sleep(skew);
                }
                let sr = comm.isend(ctx, &big, peer, 20).unwrap();
                tally(comm.wait(ctx, sr));
            } else {
                if recv_late {
                    ctx.sleep(skew);
                }
                let rr = comm
                    .irecv(ctx, &big, Src::Rank(peer), TagSel::Tag(20))
                    .unwrap();
                tally(comm.wait(ctx, rr));
            }
        }
        // ANY_SOURCE fan-in to rank 0 (sequence-locking under faults).
        if r == 0 {
            for _ in 1..n {
                let rr = comm.irecv(ctx, &srx, Src::Any, TagSel::Any).unwrap();
                tally(comm.wait(ctx, rr));
            }
        } else {
            let sr = comm.isend(ctx, &stx, 0, 30).unwrap();
            tally(comm.wait(ctx, sr));
        }
        let mut t = tallies2.lock();
        t.0 += ok;
        t.1 += failed;
        reports2.lock()[r] = Some(comm.dump());
    });
    let wall_start = std::time::Instant::now();
    let run_report = sim.run_expect();
    let wall_ns = wall_start.elapsed().as_nanos() as u64;
    let events = tracer.snapshot();
    let per_rank: Vec<_> = reports
        .lock()
        .iter()
        .map(|r| r.expect("rank finished"))
        .collect();
    let mpi_ops = per_rank
        .iter()
        .map(|r| r.comm.eager_sends + r.comm.rndv_sends)
        .sum();
    let (ops_ok, ops_failed) = *tallies.lock();
    FaultSoakRun {
        ops_ok,
        ops_failed,
        obs: ObservabilityRun {
            reports: per_rank,
            daemon: daemon.map(|d| d.snapshot()),
            fabric: (0..cluster.num_nodes())
                .map(|n| cluster.fabric_stats(fabric::NodeId(n)))
                .collect(),
            dropped: tracer.dropped(),
            audit: audited(&events, tracer.dropped()),
            events,
            metrics,
            elapsed_ns: run_report.final_time.0,
            wall_ns,
            sim_events: run_report.events_processed,
            mpi_ops,
            cfg,
            ranks: N,
            failures: None,
        },
    }
}

/// Result of the control-plane chaos soak behind `repro --daemon-faults`:
/// operation outcomes, payload integrity, host-memory balance and the
/// audited trace of a 4-rank run whose delegation daemons crash, drop
/// replies and delay replies mid-flight.
pub struct DaemonFaultSoakRun {
    /// Point-to-point waits that completed successfully.
    pub ops_ok: u64,
    /// Waits that surfaced a transport error to the caller.
    pub ops_failed: u64,
    /// Received messages whose payload did not match the expected pattern.
    pub payload_errors: u64,
    /// Per rank-hosting node: (node, host pages used before, after). The
    /// two must match — a daemon crash or lease reclamation must never
    /// leak a host twin page.
    pub mem_balance: Vec<(usize, u64, u64)>,
    /// Counters, fabric stats, trace and audit of the chaotic run.
    pub obs: ObservabilityRun,
}

/// Run the 4-rank mixed workload with control-plane fault plans armed on
/// the delegation daemons (`repro --daemon-faults <spec>`): daemons crash
/// and get respawned by the supervisor, replies are dropped (answered
/// from the dedup cache on retransmit) or delayed past the command
/// timeout. Heartbeats and a lease TTL are on, so the reaper is live too.
/// Every payload is pattern-verified at the receiver, host twin pages
/// must balance, and the auditor must confirm each crash paired with a
/// respawn and each re-attach replayed its full journal.
pub fn daemon_fault_soak_run(
    ccfg: &ClusterConfig,
    faults: &[dcfa::DaemonFault],
) -> DaemonFaultSoakRun {
    use dcfa_mpi::{Communicator, MpiError, Src, TagSel};
    use std::sync::Arc;

    const N: usize = 4;
    let mut sim = simcore::Simulation::new();
    let cluster = fabric::Cluster::new(sim.scheduler(), ccfg.clone());
    let ib = verbs::IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster.clone());
    let cfg = MpiConfig {
        heartbeat_interval: Some(simcore::SimDuration::from_micros(200)),
        ..MpiConfig::dcfa()
    };
    let tracer = dcfa_mpi::TraceBuf::new(cfg.trace_capacity);
    let metrics = dcfa_mpi::MetricsHub::new();
    let reports = Arc::new(parking_lot::Mutex::new(vec![None; N]));
    let reports2 = reports.clone();
    let tallies = Arc::new(parking_lot::Mutex::new((0u64, 0u64, 0u64)));
    let tallies2 = tallies.clone();
    let opts = dcfa_mpi::LaunchOpts {
        tracer: Some(tracer.clone()),
        metrics: Some(metrics.clone()),
        daemon: dcfa::DaemonConfig {
            faults: faults.to_vec(),
            // Exercise the reaper alongside the chaos: silent ranks are
            // kept alive by the heartbeat sidecar below.
            lease_ttl: Some(simcore::SimDuration::from_millis(2)),
            reaper_period: simcore::SimDuration::from_micros(500),
            ..Default::default()
        },
        ..Default::default()
    };
    let host = |n: usize| fabric::MemRef {
        node: fabric::NodeId(n),
        domain: fabric::Domain::Host,
    };
    let mem_before: Vec<u64> = (0..N).map(|n| cluster.mem_used(host(n))).collect();
    let daemon = dcfa_mpi::launch(&sim, &ib, &scif, cfg.clone(), N, opts, move |ctx, comm| {
        let (r, n) = (comm.rank(), comm.size());
        let next = (r + 1) % n;
        let prev = (r + n - 1) % n;
        let skew = simcore::SimDuration::from_micros(150);
        let stx = comm.alloc(512).unwrap();
        let srx = comm.alloc(512).unwrap();
        let big = comm.alloc(64 << 10).unwrap();
        let pattern = |len: usize, salt: u8| -> Vec<u8> {
            (0..len)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
                .collect()
        };
        let (mut ok, mut failed, mut corrupt) = (0u64, 0u64, 0u64);
        let mut tally = |res: Result<dcfa_mpi::Status, MpiError>| match res {
            Ok(_) => ok += 1,
            Err(MpiError::Transport { .. }) | Err(MpiError::RemoteTransport { .. }) => failed += 1,
            Err(e) => panic!("unexpected MPI error under daemon faults: {e}"),
        };
        // Eager ring traffic: each message pattern-stamped and verified.
        for i in 0..8u8 {
            let rr = comm
                .irecv(ctx, &srx, Src::Rank(prev), TagSel::Tag(10))
                .unwrap();
            comm.write(&stx, 0, &pattern(512, i));
            let sr = comm.isend(ctx, &stx, next, 10).unwrap();
            tally(comm.wait(ctx, sr));
            let got = comm.wait(ctx, rr);
            let delivered = got.is_ok();
            tally(got);
            if delivered && comm.read_vec(&srx) != pattern(512, i) {
                corrupt += 1;
            }
        }
        // Rendezvous between pairs (0<->1, 2<->3), both skews. 64 KiB
        // is past the offload threshold, so every send needs a host
        // twin from the daemon — the resource ops the armed faults
        // crash, drop and delay.
        let peer = r ^ 1;
        for (round, recv_late) in [true, false].into_iter().enumerate() {
            let salt = 100 + round as u8;
            if r % 2 == 0 {
                if !recv_late {
                    ctx.sleep(skew);
                }
                comm.write(&big, 0, &pattern(64 << 10, salt));
                let sr = comm.isend(ctx, &big, peer, 20).unwrap();
                tally(comm.wait(ctx, sr));
            } else {
                if recv_late {
                    ctx.sleep(skew);
                }
                let rr = comm
                    .irecv(ctx, &big, Src::Rank(peer), TagSel::Tag(20))
                    .unwrap();
                let got = comm.wait(ctx, rr);
                let delivered = got.is_ok();
                tally(got);
                if delivered && comm.read_vec(&big) != pattern(64 << 10, salt) {
                    corrupt += 1;
                }
            }
        }
        // ANY_SOURCE fan-in to rank 0.
        if r == 0 {
            for _ in 1..n {
                let rr = comm.irecv(ctx, &srx, Src::Any, TagSel::Any).unwrap();
                tally(comm.wait(ctx, rr));
            }
        } else {
            let sr = comm.isend(ctx, &stx, 0, 30).unwrap();
            tally(comm.wait(ctx, sr));
        }
        let mut t = tallies2.lock();
        t.0 += ok;
        t.1 += failed;
        t.2 += corrupt;
        reports2.lock()[r] = Some(comm.dump());
    });
    let wall_start = std::time::Instant::now();
    let run_report = sim.run_expect();
    let wall_ns = wall_start.elapsed().as_nanos() as u64;
    let mem_balance = (0..N)
        .map(|n| (n, mem_before[n], cluster.mem_used(host(n))))
        .collect();
    let events = tracer.snapshot();
    let per_rank: Vec<_> = reports
        .lock()
        .iter()
        .map(|r| r.expect("rank finished"))
        .collect();
    let mpi_ops = per_rank
        .iter()
        .map(|r| r.comm.eager_sends + r.comm.rndv_sends)
        .sum();
    let (ops_ok, ops_failed, payload_errors) = *tallies.lock();
    DaemonFaultSoakRun {
        ops_ok,
        ops_failed,
        payload_errors,
        mem_balance,
        obs: ObservabilityRun {
            reports: per_rank,
            daemon: daemon.map(|d| d.snapshot()),
            fabric: (0..cluster.num_nodes())
                .map(|n| cluster.fabric_stats(fabric::NodeId(n)))
                .collect(),
            dropped: tracer.dropped(),
            audit: audited(&events, tracer.dropped()),
            events,
            metrics,
            elapsed_ns: run_report.final_time.0,
            wall_ns,
            sim_events: run_report.events_processed,
            mpi_ops,
            cfg,
            ranks: N,
            failures: None,
        },
    }
}

// ---- scale (`repro --ranks N`) ---------------------------------------------

/// Result of the audited neighbor-halo soak behind `repro --ranks N`:
/// per-rank counters, payload integrity and the auditor verdict at a rank
/// count far past the 4-rank suites.
pub struct ScaleRun {
    /// Ranks launched (one per simulated node).
    pub ranks: usize,
    /// Point-to-point waits that completed successfully.
    pub ops_ok: u64,
    /// Waits that surfaced a transport error to the caller.
    pub ops_failed: u64,
    /// Received payloads whose contents did not match the sender's.
    pub corrupt: u64,
    /// Per-rank [`dcfa_mpi::StatsReport`], indexed by rank.
    pub reports: Vec<dcfa_mpi::StatsReport>,
    /// Protocol-auditor verdict over the traced run.
    pub audit: Result<dcfa_mpi::AuditReport, Vec<String>>,
    /// Events dropped by the trace ring (must be 0 for the audit to bind).
    pub dropped: u64,
    /// Virtual time the whole soak took, in nanoseconds.
    pub elapsed_ns: u64,
    /// Wall-clock time the soak took to execute, in nanoseconds.
    pub wall_ns: u64,
    /// Scheduler events processed.
    pub sim_events: u64,
}

impl ScaleRun {
    /// Lazily established QP pairs, summed over ranks. The scale gate:
    /// a neighbor workload must keep this O(ranks), not O(ranks^2).
    pub fn established_pairs(&self) -> u64 {
        self.reports.iter().map(|r| r.comm.pairs_established).sum()
    }

    /// Largest per-rank established-pair count.
    pub fn max_pairs_per_rank(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.comm.pairs_established)
            .max()
            .unwrap_or(0)
    }

    /// Largest per-rank communication-buffer footprint (receive pool +
    /// stage rings), in bytes. Must stay flat as ranks grow.
    pub fn bytes_per_rank(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.comm.comm_buffer_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Highest SRQ pool occupancy any rank saw.
    pub fn srq_highwater(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.comm.srq_highwater)
            .max()
            .unwrap_or(0)
    }
}

/// Run the audited neighbor-halo soak at `ranks` ranks (one per node).
/// Every rank exchanges salted, content-checked halos with its ring
/// neighbors at offsets 1 and 2 — the touched pairs stay
/// O(ranks), so with lazy connections only those ever get QPs and, in SRQ
/// mode (`srq`), each rank's receive memory is one shared pool. Optional
/// link-fault plans make it a fault soak; the workload tallies transport
/// errors instead of panicking on them.
pub fn scale_run(ranks: usize, srq: bool, faults: &[fabric::LinkFault]) -> ScaleRun {
    use dcfa_mpi::{Communicator, MpiError, Src, TagSel};
    use std::sync::Arc;

    const ROUNDS: u32 = 4;
    const HALO: u64 = 1024;

    let mut sim = simcore::Simulation::new();
    let ccfg = ClusterConfig::with_nodes(ranks.max(2));
    let cluster = fabric::Cluster::new(sim.scheduler(), ccfg.clone());
    for f in faults {
        cluster.inject_link_fault(*f);
    }
    let ib = verbs::IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster.clone());
    let cfg = MpiConfig {
        srq_depth: if srq { Some(256) } else { None },
        ..MpiConfig::dcfa()
    };
    // Size the trace ring to the run: a dropped event would unbind the
    // auditor's verdict. `trace_capacity` is the configured floor.
    let trace_cap = (ranks * 2048).next_power_of_two().max(cfg.trace_capacity);
    let tracer = dcfa_mpi::TraceBuf::new(trace_cap);
    let reports = Arc::new(parking_lot::Mutex::new(vec![None; ranks]));
    let reports2 = reports.clone();
    let tallies = Arc::new(parking_lot::Mutex::new((0u64, 0u64, 0u64)));
    let tallies2 = tallies.clone();
    let opts = dcfa_mpi::LaunchOpts {
        tracer: Some(tracer.clone()),
        ..Default::default()
    };
    dcfa_mpi::launch(&sim, &ib, &scif, cfg, ranks, opts, move |ctx, comm| {
        let (me, n) = (comm.rank(), comm.size());
        let salt =
            |rank: usize, round: u32| (rank as u8).wrapping_mul(37).wrapping_add(round as u8);
        let fill = |s: u8| {
            (0..HALO as usize)
                .map(|i| (i as u8) ^ s)
                .collect::<Vec<u8>>()
        };
        // Ring-halo neighbor set at offsets +/-1 and +/-2 (deduplicated:
        // tiny clusters fold offsets onto the same rank).
        let mut peers: Vec<usize> = Vec::new();
        for off in [1usize, 2, n - 1, n - 2] {
            let p = (me + off) % n;
            if p != me && !peers.contains(&p) {
                peers.push(p);
            }
        }
        let sbufs: Vec<_> = peers.iter().map(|_| comm.alloc(HALO).unwrap()).collect();
        let rbufs: Vec<_> = peers.iter().map(|_| comm.alloc(HALO).unwrap()).collect();
        let (mut ok, mut failed, mut corrupt) = (0u64, 0u64, 0u64);
        for round in 0..ROUNDS {
            let mut reqs = Vec::with_capacity(peers.len() * 2);
            for (i, &p) in peers.iter().enumerate() {
                comm.write(&sbufs[i], 0, &fill(salt(me, round)));
                reqs.push(
                    comm.irecv(ctx, &rbufs[i], Src::Rank(p), TagSel::Tag(round))
                        .unwrap(),
                );
                reqs.push(comm.isend(ctx, &sbufs[i], p, round).unwrap());
            }
            for r in reqs {
                match comm.wait(ctx, r) {
                    Ok(_) => ok += 1,
                    Err(MpiError::Transport { .. }) | Err(MpiError::RemoteTransport { .. }) => {
                        failed += 1
                    }
                    Err(e) => panic!("unexpected MPI error in scale soak: {e}"),
                }
            }
            for (i, &p) in peers.iter().enumerate() {
                if comm.read_vec(&rbufs[i]) != fill(salt(p, round)) {
                    corrupt += 1;
                }
            }
        }
        let mut t = tallies2.lock();
        t.0 += ok;
        t.1 += failed;
        t.2 += corrupt;
        reports2.lock()[me] = Some(comm.dump());
    });
    let wall_start = std::time::Instant::now();
    let run_report = sim.run_expect();
    let wall_ns = wall_start.elapsed().as_nanos() as u64;
    let events = tracer.snapshot();
    let per_rank: Vec<_> = reports
        .lock()
        .iter()
        .map(|r| r.expect("rank finished"))
        .collect();
    let (ops_ok, ops_failed, corrupt) = *tallies.lock();
    ScaleRun {
        ranks,
        ops_ok,
        ops_failed,
        corrupt,
        reports: per_rank,
        audit: audited(&events, tracer.dropped()),
        dropped: tracer.dropped(),
        elapsed_ns: run_report.final_time.0,
        wall_ns,
        sim_events: run_report.events_processed,
    }
}

// ---- rank death (`repro --ranks N --kill SPEC` / `--chaos`) ----------------

/// Per-surviving-rank outcome of the kill soak (killed ranks stay `None`).
#[derive(Debug, Clone, Copy)]
pub struct KillRankOut {
    /// Consolidated counter snapshot.
    pub report: dcfa_mpi::StatsReport,
    /// Size of the shrunk world this rank committed.
    pub sub_size: usize,
    /// MR-cache regions still pinned by leases at the end (leak gate).
    pub mr_pinned: usize,
    /// Request-table slots still occupied at the end (stranded-request
    /// gate).
    pub reqs_live: usize,
    /// Post-shrink verified exchanges completed.
    pub post_ok: u64,
}

/// Result of the rank-death soak behind `repro --ranks N --kill SPEC`:
/// a halo soak where a kill schedule fail-stops ranks mid-phase, the
/// survivors detect, revoke and shrink, and a further verified halo
/// round runs on the shrunk world.
pub struct KillSoakRun {
    /// Ranks launched.
    pub ranks: usize,
    /// Ranks the schedule killed, ascending.
    pub killed: Vec<usize>,
    /// Point-to-point waits (or entries) that completed successfully.
    pub ops_ok: u64,
    /// Operations that surfaced `PeerFailed`.
    pub ops_peer_failed: u64,
    /// Operations that surfaced `Revoked`.
    pub ops_revoked: u64,
    /// Received payloads whose contents did not match the sender's
    /// (pre- and post-shrink combined).
    pub corrupt: u64,
    /// Per-rank outcomes, indexed by original rank; killed ranks `None`.
    pub outs: Vec<Option<KillRankOut>>,
    /// Counters, trace, audit and (always-present) failure summary.
    pub obs: ObservabilityRun,
}

/// Upper bound on `after_ops` the kill-soak workload supports: the park
/// receive plus 8 halo rounds of 4 neighbors x (isend + irecv). Kills at
/// or below this are guaranteed to fire before the killed rank reaches
/// the shrink agreement, so the agreement commits exactly once per
/// survivor at the full death epoch.
pub const KILL_SOAK_MAX_AFTER_OPS: u64 = 65;

impl KillSoakRun {
    /// The post-recovery world size every survivor must have agreed on.
    pub fn expected_shrunk(&self) -> usize {
        self.ranks - self.killed.len()
    }

    /// Gate the run: every survivor finished, observed the recovery
    /// (`PeerFailed`/`Revoked`, never a hang), committed the same
    /// shrunk world, completed the verified post-shrink round with no
    /// corruption, and leaked no request slots or MR leases; the
    /// auditor must be clean and the trace ring unsaturated. Returns
    /// the violations (empty = healthy).
    pub fn healthy(&self) -> Result<(), Vec<String>> {
        let mut v = Vec::new();
        for (r, out) in self.outs.iter().enumerate() {
            let killed = self.killed.contains(&r);
            match out {
                None if !killed => v.push(format!("rank {r}: survivor hung (never finished)")),
                Some(_) if killed => v.push(format!("rank {r}: killed rank finished anyway")),
                Some(o) => {
                    if o.sub_size != self.expected_shrunk() {
                        v.push(format!(
                            "rank {r}: shrunk to {} ranks, expected {}",
                            o.sub_size,
                            self.expected_shrunk()
                        ));
                    }
                    if o.post_ok == 0 {
                        v.push(format!("rank {r}: no post-shrink exchange completed"));
                    }
                    if o.mr_pinned != 0 {
                        v.push(format!("rank {r}: {} MR leases still pinned", o.mr_pinned));
                    }
                    if o.reqs_live != 0 {
                        v.push(format!("rank {r}: {} request slots stranded", o.reqs_live));
                    }
                }
                None => {}
            }
        }
        if self.corrupt > 0 {
            v.push(format!("{} corrupt payloads", self.corrupt));
        }
        if self.obs.dropped > 0 {
            v.push(format!(
                "trace ring dropped {} events (audit unbound)",
                self.obs.dropped
            ));
        }
        if let Err(errors) = &self.obs.audit {
            for e in errors.iter().take(10) {
                v.push(format!("auditor: {e}"));
            }
        }
        if let Some(f) = &self.obs.failures {
            if f.kills != self.killed.len() as u64 {
                v.push(format!(
                    "{} kills recorded, schedule had {}",
                    f.kills,
                    self.killed.len()
                ));
            }
            if f.detections != self.killed.len() as u64 {
                v.push(format!(
                    "{} corpses promoted dead, expected {}",
                    f.detections,
                    self.killed.len()
                ));
            }
        }
        if v.is_empty() {
            Ok(())
        } else {
            Err(v)
        }
    }

    /// Deterministic digest of everything observable about the run
    /// (FNV-1a over outcome words and per-rank counters). Two runs of
    /// the same schedule must produce identical fingerprints — the
    /// chaos fuzzer's bit-for-bit replay gate.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |w: u64| {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.ranks as u64);
        for &k in &self.killed {
            mix(k as u64);
        }
        mix(self.ops_ok);
        mix(self.ops_peer_failed);
        mix(self.ops_revoked);
        mix(self.corrupt);
        mix(self.obs.elapsed_ns);
        mix(self.obs.sim_events);
        mix(self.obs.events.len() as u64);
        for out in self.outs.iter() {
            match out {
                None => mix(u64::MAX),
                Some(o) => {
                    let c = &o.report.comm;
                    mix(o.sub_size as u64);
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
        if let Some(f) = &self.obs.failures {
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

/// Run the audited halo soak at `ranks` ranks with a fail-stop kill
/// schedule armed. Phase 1 is the ring-halo exchange of [`scale_run`],
/// written ULFM-tolerantly: every operation's error is tallied
/// (`PeerFailed` / `Revoked`), never panicked on, and the rounds run to
/// completion so every kill fires at a deterministic operation count.
/// Survivors that observed an error revoke; a parked receive ensures
/// no rank reaches the agreement before the failure is visible; then
/// every survivor shrinks and runs a further verified halo round on
/// the renumbered world.
///
/// Every `after_ops` must be `<=` [`KILL_SOAK_MAX_AFTER_OPS`] so the
/// corpse dies before it could join the shrink agreement (kills beyond
/// it would still be survived — the agreement restarts — but the
/// single-commit gate below assumes the schedule fires in phase 1).
pub fn kill_soak_run(ranks: usize, srq: bool, kills: &[dcfa_mpi::KillSpec]) -> KillSoakRun {
    use dcfa_mpi::{Communicator, MpiError, Src, TagSel};
    use std::sync::Arc;

    const ROUNDS: u32 = 8;
    const POST_ROUNDS: u32 = 2;
    const HALO: u64 = 1024;
    const PARK_TAG: u32 = 777;

    assert!(ranks >= 8, "kill soak needs at least 8 ranks");
    assert!(!kills.is_empty(), "kill soak needs a kill schedule");
    let mut killed: Vec<usize> = kills.iter().map(|k| k.rank).collect();
    killed.sort_unstable();
    killed.dedup();
    assert_eq!(killed.len(), kills.len(), "one kill per rank");
    assert!(
        killed.len() <= ranks.saturating_sub(4),
        "need at least 4 survivors"
    );
    for k in kills {
        assert!(k.rank < ranks, "kill targets rank {} of {ranks}", k.rank);
        assert!(
            (1..=KILL_SOAK_MAX_AFTER_OPS).contains(&k.after_ops),
            "after_ops {} outside the phase-1 window 1..={KILL_SOAK_MAX_AFTER_OPS}",
            k.after_ops
        );
    }

    let mut sim = simcore::Simulation::new();
    let ccfg = ClusterConfig::with_nodes(ranks);
    let cluster = fabric::Cluster::new(sim.scheduler(), ccfg.clone());
    let ib = verbs::IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster.clone());
    let cfg = MpiConfig {
        srq_depth: if srq { Some(256) } else { None },
        peer_ttl: Some(simcore::SimDuration::from_micros(50)),
        ..MpiConfig::dcfa()
    };
    // `trace_capacity` is the configured floor; kill soaks scale it up
    // with the rank count so lifecycle streams survive whole.
    let trace_cap = (ranks * 4096).next_power_of_two().max(cfg.trace_capacity);
    let tracer = dcfa_mpi::TraceBuf::new(trace_cap);
    let metrics = dcfa_mpi::MetricsHub::new();
    let board = fabric::HealthBoard::new(ranks);
    let outs: Arc<parking_lot::Mutex<Vec<Option<KillRankOut>>>> =
        Arc::new(parking_lot::Mutex::new(vec![None; ranks]));
    let outs2 = outs.clone();
    let tallies = Arc::new(parking_lot::Mutex::new((0u64, 0u64, 0u64, 0u64)));
    let tallies2 = tallies.clone();
    let opts = dcfa_mpi::LaunchOpts {
        tracer: Some(tracer.clone()),
        metrics: Some(metrics.clone()),
        kills: kills.to_vec(),
        health: Some(board.clone()),
        ..Default::default()
    };
    let daemon = dcfa_mpi::launch(
        &sim,
        &ib,
        &scif,
        cfg.clone(),
        ranks,
        opts,
        move |ctx, comm| {
            let (me, n) = (comm.rank(), comm.size());
            let salt =
                |rank: usize, round: u32| (rank as u8).wrapping_mul(37).wrapping_add(round as u8);
            let fill = |s: u8| {
                (0..HALO as usize)
                    .map(|i| (i as u8) ^ s)
                    .collect::<Vec<u8>>()
            };
            let mut peers: Vec<usize> = Vec::new();
            for off in [1usize, 2, n - 1, n - 2] {
                let p = (me + off) % n;
                if p != me && !peers.contains(&p) {
                    peers.push(p);
                }
            }
            let sbufs: Vec<_> = peers.iter().map(|_| comm.alloc(HALO).unwrap()).collect();
            let rbufs: Vec<_> = peers.iter().map(|_| comm.alloc(HALO).unwrap()).collect();
            let pbuf = comm.alloc(64).unwrap();
            let (mut ok, mut peer_failed, mut revoked, mut corrupt) = (0u64, 0u64, 0u64, 0u64);
            let mut saw_failure = false;
            // Park first (operation #1): drained by the revocation flood (or
            // a source death), so no rank reaches the shrink agreement
            // before the failure is visible somewhere.
            let park = comm.irecv(ctx, &pbuf, Src::Rank((me + 1) % n), TagSel::Tag(PARK_TAG));
            // Phase 1: the halo rounds run to completion whatever happens —
            // entries and waits tally their errors instead of aborting, so
            // every rank's operation count advances deterministically and
            // every scheduled kill fires inside this phase.
            for round in 0..ROUNDS {
                let mut reqs: Vec<(usize, bool, dcfa_mpi::Request)> =
                    Vec::with_capacity(peers.len() * 2);
                for (i, &p) in peers.iter().enumerate() {
                    comm.write(&sbufs[i], 0, &fill(salt(me, round)));
                    let rr = comm.irecv(ctx, &rbufs[i], Src::Rank(p), TagSel::Tag(round));
                    let sr = comm.isend(ctx, &sbufs[i], p, round);
                    for (is_recv, q) in [(true, rr), (false, sr)] {
                        match q {
                            Ok(q) => reqs.push((i, is_recv, q)),
                            Err(MpiError::PeerFailed(_)) => {
                                peer_failed += 1;
                                saw_failure = true;
                            }
                            Err(MpiError::Revoked) => {
                                revoked += 1;
                                saw_failure = true;
                            }
                            Err(e) => panic!("rank {me}: unexpected entry error {e:?}"),
                        }
                    }
                }
                let mut delivered = vec![false; peers.len()];
                for (i, is_recv, q) in reqs {
                    match comm.wait(ctx, q) {
                        Ok(_) => {
                            ok += 1;
                            if is_recv {
                                delivered[i] = true;
                            }
                        }
                        Err(MpiError::PeerFailed(_)) => {
                            peer_failed += 1;
                            saw_failure = true;
                        }
                        Err(MpiError::Revoked) => {
                            revoked += 1;
                            saw_failure = true;
                        }
                        Err(e) => panic!("rank {me}: unexpected wait error {e:?}"),
                    }
                }
                for (i, &p) in peers.iter().enumerate() {
                    if delivered[i] && comm.read_vec(&rbufs[i]) != fill(salt(p, round)) {
                        corrupt += 1;
                    }
                }
            }
            // Recovery: observers revoke (many ranks revoke concurrently —
            // the flood is idempotent), the park drains with an error, and
            // every survivor agrees on the shrunk world.
            if saw_failure {
                comm.revoke(ctx);
            }
            match park {
                Ok(q) => {
                    let res = comm.wait(ctx, q);
                    assert!(res.is_err(), "rank {me}: park resolved as {res:?}");
                }
                Err(e) => panic!("rank {me}: park post failed at entry: {e:?}"),
            }
            let sub_size;
            let mut post_ok = 0u64;
            {
                let mut sub = comm.shrink(ctx).expect("survivor must shrink");
                sub_size = sub.size();
                let (sr, sn) = (sub.rank(), sub.size());
                let snext = (sr + 1) % sn;
                let sprev = (sr + sn - 1) % sn;
                // Phase 2: a verified exchange on the renumbered world. All
                // corpses died before the agreement (after_ops window), so
                // the shrunk communicator contains only live ranks and the
                // exchange is infallible.
                for round in 0..POST_ROUNDS {
                    let s = 0x40u8 ^ (sr as u8) ^ (round as u8);
                    sub.cluster().write(&sbufs[0], 0, &fill(s));
                    sub.sendrecv(ctx, &sbufs[0], snext, &rbufs[0], sprev, round)
                        .expect("post-shrink exchange failed");
                    post_ok += 1;
                    let want = 0x40u8 ^ (sprev as u8) ^ (round as u8);
                    if sub.cluster().read_vec(&rbufs[0]) != fill(want) {
                        corrupt += 1;
                    }
                }
            }
            for b in sbufs.iter().chain(rbufs.iter()) {
                comm.free(b);
            }
            comm.free(&pbuf);
            let mut t = tallies2.lock();
            t.0 += ok;
            t.1 += peer_failed;
            t.2 += revoked;
            t.3 += corrupt;
            outs2.lock()[me] = Some(KillRankOut {
                report: comm.dump(),
                sub_size,
                mr_pinned: comm.mr_pinned_len(),
                reqs_live: comm.requests_live(),
                post_ok,
            });
        },
    );
    // Livelock backstop: a recovery bug that strands one rank leaves the
    // heartbeat sidecars ticking forever, which would hang the soak (and
    // CI) instead of failing it. The bound is far above any legitimate
    // run (the 64-rank acceptance soak processes ~52k events), so hitting
    // it means a real wedge — fail fast with the board state.
    sim.set_event_limit(50_000_000);
    let wall_start = std::time::Instant::now();
    let run_report = match sim.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("kill soak: simulation failed: {e}");
            eprintln!("health board at failure: {board:?}");
            for r in 0..ranks {
                if board.is_killed(r) || board.is_dead(r) {
                    eprintln!(
                        "  rank {r}: killed={} detected-dead={}",
                        board.is_killed(r),
                        board.is_dead(r)
                    );
                }
            }
            panic!("kill soak simulation failed: {e}");
        }
    };
    let wall_ns = wall_start.elapsed().as_nanos() as u64;
    let events = tracer.snapshot();
    let outs: Vec<Option<KillRankOut>> = outs.lock().clone();
    let per_rank: Vec<_> = outs.iter().flatten().map(|o| o.report).collect();
    let mpi_ops = per_rank
        .iter()
        .map(|r| r.comm.eager_sends + r.comm.rndv_sends)
        .sum();
    let reclaimed = per_rank.iter().map(|r| r.comm.dead_reclaimed).sum();
    let failures = FailureSummary {
        kills: board.kills(),
        detections: board.detections(),
        detection_latency_p99_ns: p99(&board.detection_latency_samples()),
        revokes: board.revoke_epoch(),
        shrinks: board.shrink_count(),
        reclaimed,
    };
    let (ops_ok, ops_peer_failed, ops_revoked, corrupt) = *tallies.lock();
    KillSoakRun {
        ranks,
        killed,
        ops_ok,
        ops_peer_failed,
        ops_revoked,
        corrupt,
        outs,
        obs: ObservabilityRun {
            reports: per_rank,
            daemon: daemon.map(|d| d.snapshot()),
            fabric: (0..cluster.num_nodes())
                .map(|n| cluster.fabric_stats(fabric::NodeId(n)))
                .collect(),
            dropped: tracer.dropped(),
            audit: audited(&events, tracer.dropped()),
            events,
            metrics,
            elapsed_ns: run_report.final_time.0,
            wall_ns,
            sim_events: run_report.events_processed,
            mpi_ops,
            cfg,
            ranks,
            failures: Some(failures),
        },
    }
}

// ---- chaos fuzzer (`repro --chaos --seed N`) -------------------------------

/// Sample a randomized kill schedule from `seed`: 2-6 distinct victim
/// ranks, each with an `after_ops` inside the phase-1 window, so the
/// schedule composes with [`kill_soak_run`]'s single-commit gates. Same
/// seed, same schedule — the fuzzer's reproducibility anchor.
pub fn chaos_schedule(seed: u64, ranks: usize) -> Vec<dcfa_mpi::KillSpec> {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    assert!(ranks >= 8, "chaos needs at least 8 ranks");
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
    victims
        .into_iter()
        .map(|rank| dcfa_mpi::KillSpec {
            rank,
            after_ops: rng.random_range(2u64..=KILL_SOAK_MAX_AFTER_OPS),
        })
        .collect()
}

/// Verdict of one chaos iteration: the sampled schedule, the replayed
/// fingerprints, the gate violations (empty = survived), and — when the
/// schedule found a failure — the greedily shrunk minimal reproducer.
pub struct ChaosReport {
    pub seed: u64,
    pub schedule: Vec<dcfa_mpi::KillSpec>,
    /// Fingerprint of the first run.
    pub fingerprint: u64,
    /// Fingerprint of the bit-for-bit replay (must equal `fingerprint`).
    pub replay_fingerprint: u64,
    /// Gate violations of the seeded schedule (determinism included).
    pub violations: Vec<String>,
    /// Minimal reproducing schedule (greedy drop-one-kill), when the
    /// seeded schedule violated a gate.
    pub minimal: Option<Vec<dcfa_mpi::KillSpec>>,
    /// Soak executions this report cost (2 + shrink attempts).
    pub runs: usize,
}

/// Render a kill schedule in `--kill` syntax (`after:rank,...`) so a
/// chaos finding is directly replayable from the CLI.
pub fn kill_spec_string(kills: &[dcfa_mpi::KillSpec]) -> String {
    kills
        .iter()
        .map(|k| format!("{}:{}", k.after_ops, k.rank))
        .collect::<Vec<_>>()
        .join(",")
}

/// One deterministic chaos iteration: sample a kill schedule from
/// `seed`, soak it twice (the replay must fingerprint identically —
/// any divergence is itself a violation), gate the outcome, and on a
/// failure greedily shrink the schedule to a minimal reproducer by
/// dropping one kill at a time while the violation persists.
pub fn chaos_run(seed: u64, ranks: usize, srq: bool) -> ChaosReport {
    let schedule = chaos_schedule(seed, ranks);
    let first = kill_soak_run(ranks, srq, &schedule);
    let replay = kill_soak_run(ranks, srq, &schedule);
    let fingerprint = first.fingerprint();
    let replay_fingerprint = replay.fingerprint();
    let mut violations = first.healthy().err().unwrap_or_default();
    if fingerprint != replay_fingerprint {
        violations.push(format!(
            "nondeterministic replay: fingerprint {fingerprint:#018x} != {replay_fingerprint:#018x}"
        ));
    }
    let mut runs = 2;
    let mut minimal = None;
    if !violations.is_empty() {
        let mut cur = schedule.clone();
        let mut i = 0;
        while cur.len() > 1 && i < cur.len() {
            let mut cand = cur.clone();
            cand.remove(i);
            runs += 1;
            if kill_soak_run(ranks, srq, &cand).healthy().is_err() {
                cur = cand; // still reproduces without this kill: drop it
            } else {
                i += 1; // this kill is load-bearing: keep it
            }
        }
        minimal = Some(cur);
    }
    ChaosReport {
        seed,
        schedule,
        fingerprint,
        replay_fingerprint,
        violations,
        minimal,
        runs,
    }
}

/// Write a set of series as CSV: `size,<label1>,<label2>,...`.
pub fn write_series_csv(path: &std::path::Path, series: &[Series]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(f, "size")?;
    for s in series {
        write!(f, ",{}", s.label.replace(',', ";"))?;
    }
    writeln!(f)?;
    if let Some(first) = series.first() {
        for (i, &(size, _)) in first.points.iter().enumerate() {
            write!(f, "{size}")?;
            for s in series {
                write!(f, ",{}", s.points[i].1)?;
            }
            writeln!(f)?;
        }
    }
    f.flush()
}

/// Write the stencil grid as CSV: `runtime,procs,threads,iter_us,speedup`.
pub fn write_stencil_csv(path: &std::path::Path, cells: &[StencilCell]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "runtime,procs,threads,iter_us,speedup_vs_serial")?;
    for c in cells {
        writeln!(
            f,
            "{},{},{},{},{}",
            c.runtime.replace(',', ";"),
            c.procs,
            c.threads,
            c.iter_us,
            c.speedup_vs_serial
        )?;
    }
    f.flush()
}

/// Pretty-print a set of series as an aligned table (sizes as rows).
pub fn print_series(title: &str, unit: &str, series: &[Series]) {
    println!("\n== {title} ==");
    print!("{:>10}", "size");
    for s in series {
        print!("  {:>30}", s.label);
    }
    println!("  [{unit}]");
    if series.is_empty() {
        return;
    }
    for (i, &(size, _)) in series[0].points.iter().enumerate() {
        print!("{size:>10}");
        for s in series {
            print!("  {:>30.3}", s.points[i].1);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_sweep_is_powers_of_two() {
        let s = size_sweep(10);
        assert_eq!(s.first(), Some(&4));
        assert_eq!(s.last(), Some(&1024));
        for w in s.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }

    #[test]
    fn iters_shrink_with_size() {
        assert!(iters_for(4) > iters_for(64 << 10));
        assert!(iters_for(64 << 10) > iters_for(4 << 20));
        assert!(iters_for(4 << 20) >= 4, "large sizes keep enough samples");
    }

    #[test]
    fn csv_writer_roundtrip() {
        let dir = std::env::temp_dir().join("dcfa-bench-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let series = vec![
            Series {
                label: "a,b".into(),
                points: vec![(4, 1.5), (8, 2.5)],
            },
            Series {
                label: "c".into(),
                points: vec![(4, 3.0), (8, 4.0)],
            },
        ];
        write_series_csv(&path, &series).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("size,a;b,c")); // comma escaped
        assert_eq!(lines.next(), Some("4,1.5,3"));
        assert_eq!(lines.next(), Some("8,2.5,4"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stencil_csv_writer() {
        let dir = std::env::temp_dir().join("dcfa-bench-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.csv");
        let cells = vec![StencilCell {
            runtime: "DCFA-MPI",
            procs: 8,
            threads: 56,
            iter_us: 166.1,
            speedup_vs_serial: 118.7,
        }];
        write_stencil_csv(&path, &cells).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("DCFA-MPI,8,56,166.1,118.7"));
        std::fs::remove_file(&path).unwrap();
    }
}
