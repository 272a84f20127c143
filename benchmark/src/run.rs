//! One repetition: build a fresh simulated cluster, launch the ranks,
//! run the plan, and collect host-time phases, virtual-time samples and
//! (on the traced pass) counter deltas over the steady state.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use dcfa::{DcfaCounters, DcfaStats};
use dcfa_mpi::{launch, HistogramSnapshot, LaunchOpts, MetricsHub, Phase, StatsReport, TraceBuf};
use fabric::{ChannelStats, Cluster, ClusterConfig, NodeId};
use simcore::{SimDuration, Simulation};

use crate::alloc;
use crate::stats;
use crate::sys;
use crate::workloads::{rank_body, Plan, RankOut, Shared};

/// Counters that belong to no single rank, read at a phase boundary.
#[derive(Clone)]
struct Global {
    dcfa: DcfaCounters,
    /// Summed over nodes: pci-h2p, pci-p2h, ib-egress, ib-ingress.
    channels: Vec<ChannelStats>,
    phases: Vec<(Phase, HistogramSnapshot)>,
    trace_recorded: u64,
    trace_dropped: u64,
}

struct Mark {
    at: Instant,
    cpu_ns: u64,
    global: Option<Global>,
}

/// Steady-state counter deltas of a traced repetition.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Per-rank counters, `(start, end)` of the steady state.
    pub ranks: Vec<(StatsReport, StatsReport)>,
    pub dcfa: DcfaCounters,
    pub channels: Vec<ChannelStats>,
    pub phases: Vec<(Phase, HistogramSnapshot)>,
    pub trace_recorded: u64,
    pub trace_dropped: u64,
    pub heap_allocs: u64,
    pub heap_bytes: u64,
}

impl Counts {
    /// Steady-state delta of one per-rank counter, summed over ranks.
    pub fn sum(&self, field: impl Fn(&StatsReport) -> u64) -> f64 {
        self.ranks
            .iter()
            .map(|(s, e)| field(e) - field(s))
            .sum::<u64>() as f64
    }

    /// End-of-run value of one per-rank counter, averaged over ranks.
    pub fn mean_at_end(&self, field: impl Fn(&StatsReport) -> u64) -> f64 {
        self.ranks.iter().map(|(_, e)| field(e)).sum::<u64>() as f64 / self.ranks.len() as f64
    }

    pub fn channel(&self, name: &str) -> ChannelStats {
        *self
            .channels
            .iter()
            .find(|c| c.name == name)
            .expect("the fabric names its four channels")
    }
}

/// Result of one repetition.
pub struct Rep {
    /// Elapsed seconds of set-up: cluster construction, launch, MPI
    /// init, lazy connects and warm-up rounds.
    pub setup_s: f64,
    /// Elapsed seconds of the timed rounds.
    pub steady_s: f64,
    /// CPU seconds the process had consumed when set-up ended.
    pub setup_cpu_s: f64,
    /// CPU ns of consecutive slices of the steady state (see
    /// [`crate::workloads::SLICES`]); they sum to its CPU time.
    pub slices_cpu_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub corrupt: u64,
    /// Simulator events over the whole run (set-up and tear-down too).
    pub events: u64,
    pub outs: Vec<RankOut>,
    pub counts: Option<Counts>,
}

fn global_snapshot(
    cluster: &Cluster,
    dcfa: &DcfaStats,
    hub: &MetricsHub,
    tracer: &TraceBuf,
) -> Global {
    let mut channels: Vec<ChannelStats> = Vec::new();
    for node in 0..cluster.num_nodes() {
        for c in cluster.fabric_stats(NodeId(node)).channels {
            match channels.iter_mut().find(|t| t.name == c.name) {
                Some(t) => {
                    t.ops += c.ops;
                    t.bytes += c.bytes;
                    t.busy += c.busy;
                }
                None => channels.push(c),
            }
        }
    }
    let dropped = tracer.dropped();
    Global {
        dcfa: dcfa.snapshot(),
        channels,
        phases: hub.merged_by_phase(),
        trace_recorded: tracer.len() as u64 + dropped,
        trace_dropped: dropped,
    }
}

fn global_delta(start: &Global, end: &Global) -> Counts {
    let (s, e) = (&start.dcfa, &end.dcfa);
    let phases = end
        .phases
        .iter()
        .map(|(phase, eh)| {
            let mut h = *eh;
            if let Some((_, sh)) = start.phases.iter().find(|(p, _)| p == phase) {
                for (b, sb) in h.buckets.iter_mut().zip(sh.buckets) {
                    *b -= sb;
                }
                h.count -= sh.count;
                h.sum -= sh.sum;
            }
            (*phase, h)
        })
        .collect();
    Counts {
        dcfa: DcfaCounters {
            commands: e.commands - s.commands,
            mr_registered: e.mr_registered - s.mr_registered,
            mr_deregistered: e.mr_deregistered - s.mr_deregistered,
            offload_registered: e.offload_registered - s.offload_registered,
            offload_deregistered: e.offload_deregistered - s.offload_deregistered,
            cmd_retries: e.cmd_retries - s.cmd_retries,
            ..DcfaCounters::default()
        },
        channels: end
            .channels
            .iter()
            .zip(&start.channels)
            .map(|(e, s)| ChannelStats {
                name: e.name,
                ops: e.ops - s.ops,
                bytes: e.bytes - s.bytes,
                busy: SimDuration::from_nanos(e.busy.as_nanos() - s.busy.as_nanos()),
            })
            .collect(),
        phases,
        trace_recorded: end.trace_recorded - start.trace_recorded,
        trace_dropped: end.trace_dropped - start.trace_dropped,
        ..Counts::default()
    }
}

/// Run `plan` once in a fresh simulation. `traced` attaches the trace
/// ring and the metrics hub and switches on every probe; end-to-end
/// repetitions attach neither.
pub fn run_rep(plan: &Plan, traced: bool) -> Result<Rep, String> {
    let t0 = Instant::now();
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(plan.ranks));
    let ib = verbs::IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster.clone());

    // The ring is sized as the repo's own scale harness sizes it; what
    // does not fit is dropped and reported as `trace.events_dropped`.
    let tracer = TraceBuf::new(plan.cfg.trace_capacity.max(plan.ranks * 2048));
    let hub = MetricsHub::new();
    let dcfa_stats: Arc<OnceLock<DcfaStats>> = Arc::new(OnceLock::new());
    let marks: Arc<Mutex<Vec<Mark>>> = Arc::new(Mutex::new(Vec::new()));
    let heap: Arc<Mutex<(u64, u64)>> = Arc::new(Mutex::new((0, 0)));

    let on_boundary = {
        let (cluster, dcfa_stats, marks, heap) = (
            cluster.clone(),
            dcfa_stats.clone(),
            marks.clone(),
            heap.clone(),
        );
        let (hub, tracer) = (hub.clone(), tracer.clone());
        Box::new(move |boundary: usize| {
            // The steady state runs from the first boundary's `Instant`
            // to the second's; snapshots stay outside that window.
            let ending = boundary == 1;
            let at_end = ending.then(|| (Instant::now(), sys::process_cpu_ns()));
            if ending && traced {
                *heap.lock().expect("heap counts") = alloc::disarm();
            }
            let global = traced.then(|| {
                let dcfa = dcfa_stats.get().expect("launch returned before the run");
                global_snapshot(&cluster, dcfa, &hub, &tracer)
            });
            if !ending && traced {
                alloc::arm();
            }
            let (at, cpu_ns) = at_end.unwrap_or_else(|| (Instant::now(), sys::process_cpu_ns()));
            marks
                .lock()
                .expect("marks")
                .push(Mark { at, cpu_ns, global });
        })
    };
    let shared = Arc::new(Shared::new(plan.ranks, on_boundary));

    let opts = LaunchOpts {
        tracer: traced.then(|| tracer.clone()),
        metrics: traced.then(|| hub.clone()),
        ..LaunchOpts::default()
    };
    let (plan2, shared2) = (plan.clone(), shared.clone());
    let stats = launch(
        &sim,
        &ib,
        &scif,
        plan.cfg.clone(),
        plan.ranks,
        opts,
        move |ctx, comm| rank_body(ctx, comm, &plan2, traced, &shared2),
    )
    .expect("Phi placement spawns the delegation daemons");
    dcfa_stats.set(stats).expect("set once");

    let report = sim
        .run()
        .map_err(|e| format!("{}: simulation failed: {e}", plan.workload))?;
    drop(sim);

    let marks = marks.lock().expect("marks");
    let [start, end] = marks.as_slice() else {
        return Err(format!(
            "{}: ranks did not reach both phase boundaries",
            plan.workload
        ));
    };
    let outs: Vec<RankOut> = shared
        .outs
        .lock()
        .expect("rank outputs")
        .iter()
        .map(|o| o.clone().ok_or("a rank produced no output"))
        .collect::<Result<_, _>>()?;
    let counts = match (&start.global, &end.global) {
        (Some(s), Some(e)) => {
            let (heap_allocs, heap_bytes) = *heap.lock().expect("heap counts");
            Some(Counts {
                ranks: outs.iter().map(|o| o.stats.expect("counted")).collect(),
                heap_allocs,
                heap_bytes,
                ..global_delta(s, e)
            })
        }
        _ => None,
    };
    let sum = |f: fn(&RankOut) -> u64| outs.iter().map(f).sum::<u64>();
    let slices_cpu_ns = std::iter::once(start.cpu_ns)
        .chain(outs[0].cuts_cpu_ns.iter().copied())
        .chain([end.cpu_ns])
        .collect::<Vec<u64>>()
        .windows(2)
        .map(|w| w[1] - w[0])
        .collect();
    Ok(Rep {
        setup_s: (start.at - t0).as_secs_f64(),
        steady_s: (end.at - start.at).as_secs_f64(),
        setup_cpu_s: start.cpu_ns as f64 / 1e9,
        slices_cpu_ns,
        attempted: sum(|o| o.ok + o.failed),
        failed: sum(|o| o.failed),
        corrupt: sum(|o| o.corrupt),
        events: report.events_processed,
        outs,
        counts,
    })
}

/// Virtual-time results of one repetition; deterministic, so identical
/// for every repetition and every run with the same seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Virtual {
    pub samples: usize,
    pub p50_ns: u64,
    /// The percentile `tail_ns` is; 99 once there are 1,000 samples.
    pub tail_pct: f64,
    pub tail_ns: u64,
    /// Payload bytes delivered / virtual steady-state time, summed over ranks.
    pub bandwidth_gbs: f64,
    /// `(measured, reference, unit, error %)` against EXPERIMENTS.md, on
    /// the two workloads that have a reference value.
    pub paper: Option<(f64, f64, &'static str, f64)>,
    /// Order-sensitive digest of every sample, for exact comparison.
    pub digest: u64,
}

pub fn virtual_summary(plan: &Plan, outs: &[RankOut]) -> Virtual {
    let mut all: Vec<u64> = outs
        .iter()
        .flat_map(|o| o.iters.iter().map(|i| i.1))
        .collect();
    let digest = outs
        .iter()
        .flat_map(|o| {
            o.iters
                .iter()
                .map(|i| i.1)
                .chain([o.steady_virt_ns, o.bytes_received])
        })
        .fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
            (h ^ v).wrapping_mul(0x100_0000_01b3)
        });
    all.sort_unstable();
    let tail_pct = stats::tail_percentile(all.len());
    let block_p50 = |size: u64| {
        let mut v: Vec<u64> = outs
            .iter()
            .flat_map(|o| o.iters.iter().filter(|i| i.0 == size).map(|i| i.1))
            .collect();
        v.sort_unstable();
        stats::percentile(&v, 50.0) as f64
    };
    let err = |measured: f64, reference: f64, unit| {
        Some((
            measured,
            reference,
            unit,
            100.0 * (measured - reference).abs() / reference,
        ))
    };
    let paper = match plan.workload {
        // Fig. 9: 4-byte blocking round trip, 15 us.
        "eager_pp4" => err(block_p50(4) / 1e3, 15.0, "us"),
        // Fig. 8: 2.8 GB/s at 1 MiB, per direction.
        "rndv_stream4" => {
            let window_bytes = (plan.window as u64 * (1 << 20)) as f64;
            err(window_bytes / block_p50(1 << 20), 2.8, "GB/s")
        }
        _ => None,
    };
    Virtual {
        samples: all.len(),
        p50_ns: stats::percentile(&all, 50.0),
        tail_pct,
        tail_ns: stats::percentile(&all, tail_pct),
        bandwidth_gbs: outs
            .iter()
            .map(|o| o.bytes_received as f64 / o.steady_virt_ns as f64)
            .sum(),
        paper,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Flip, Scale, WORKLOADS};

    fn rep(workload: &str, seed: u64) -> (Plan, Rep) {
        let plan = Plan::generate(workload, seed, Scale::Tiny).unwrap();
        let rep = run_rep(&plan, true).unwrap();
        (plan, rep)
    }

    #[test]
    fn same_seed_repeats_bit_for_bit_other_seed_keeps_the_totals() {
        for w in WORKLOADS {
            let ((plan, a), (_, b), (other, c)) = (rep(w, 5), rep(w, 5), rep(w, 6));
            assert_eq!((a.failed, a.corrupt), (0, 0), "{w}");
            assert_eq!(
                a.attempted,
                plan.rounds.len() as u64 * plan.timed_totals().0 / plan.timed_rounds().len() as u64,
                "{w}: every planned op was attempted"
            );
            // Same seed: virtual time and every deterministic count.
            assert_eq!(
                virtual_summary(&plan, &a.outs),
                virtual_summary(&plan, &b.outs),
                "{w}"
            );
            assert_eq!(a.events, b.events, "{w}");
            let (ca, cb) = (a.counts.as_ref().unwrap(), b.counts.as_ref().unwrap());
            assert_eq!(ca.ranks, cb.ranks, "{w}");
            assert_eq!(ca.dcfa, cb.dcfa, "{w}");
            assert_eq!(ca.channels, cb.channels, "{w}");
            assert_eq!(ca.phases, cb.phases, "{w}");
            assert_eq!(ca.trace_recorded, cb.trace_recorded, "{w}");
            // Another seed: other inputs, the same amount of work.
            assert_ne!(plan.rounds, other.rounds, "{w}");
            assert_eq!(a.attempted, c.attempted, "{w}");
            let received = |r: &Rep| r.outs.iter().map(|o| o.bytes_received).sum::<u64>();
            assert_eq!(received(&a), received(&c), "{w}");
            assert_eq!(received(&a), plan.timed_totals().1, "{w}");
            assert_eq!((c.failed, c.corrupt), (0, 0), "{w}");
        }
    }

    #[test]
    fn a_flipped_payload_byte_is_counted_as_corrupt() {
        for w in WORKLOADS {
            let mut plan = Plan::generate(w, 1, Scale::Tiny).unwrap();
            plan.flip = Some(Flip { rank: 1, round: 1 });
            let rep = run_rep(&plan, false).unwrap();
            assert_eq!((rep.failed, rep.corrupt), (0, 1), "{w}");
        }
    }

    #[test]
    fn slices_add_up_to_the_steady_state() {
        let (plan, r) = rep("eager_pp4", 2);
        assert!(r.slices_cpu_ns.len() <= crate::workloads::SLICES + 1);
        assert!(r.slices_cpu_ns.len() >= 2);
        let (_, r2) = rep("eager_pp4", 3);
        assert_eq!(
            r.slices_cpu_ns.len(),
            r2.slices_cpu_ns.len(),
            "cuts depend on the plan only"
        );
        assert!(plan.setup_only().timed_rounds().is_empty());
    }
}
