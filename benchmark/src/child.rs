//! The measuring child: a fresh process that pins itself to one CPU,
//! puts itself under the run-to-block scheduler, runs exactly one
//! repetition and prints what it saw as one JSON line.
//!
//! One repetition per process because the program's speed depends on the
//! age of the process's heap: in one process the first ten repetitions of
//! `eager_pp4` run 6–8 % faster than all later ones, which then agree to
//! 0.1 %. A fresh address space per repetition is also what a user of
//! `repro` gets, and makes peak memory a property of the workload.

use std::path::Path;

use crate::catalog::PHASES;
use crate::json::Value;
use crate::run::{run_rep, virtual_summary, Counts, Rep, Virtual};
use crate::stats;
use crate::sys;
use crate::workloads::{Plan, RankOut};

/// Iterations per rank whose spans go to the span file; every span still
/// feeds the span metrics.
const SPAN_FILE_ITERATIONS: u32 = 64;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics that are counts of the traced steady state.
fn count_metrics(plan: &Plan, rep: &Rep, c: &Counts, setup_events: u64) -> Vec<(String, f64)> {
    let (ops, bytes) = plan.timed_totals();
    let (ops, bytes) = (ops as f64, bytes as f64);
    let per_op = |v: f64| v / ops;
    let eager = c.sum(|r| r.comm.eager_sends);
    let rndv = c.sum(|r| r.comm.rndv_sends);
    let syncs = c.sum(|r| r.comm.offload_syncs);
    // Every rendezvous payload that went through the offloading send
    // buffer was copied once more (Phi -> host twin) before the wire.
    let rndv_bytes: u64 = plan
        .timed_rounds()
        .iter()
        .filter(|r| r.size > plan.cfg.eager_threshold)
        .map(|r| r.size)
        .sum::<u64>()
        * (plan.peers(0).len() * plan.window * plan.ranks) as u64;
    let sync_bytes = rndv_bytes as f64 * ratio(syncs, rndv);
    let egress = c.channel("ib-egress");
    let p2h = c.channel("pci-p2h");
    let virt_elapsed = rep.outs.iter().map(|o| o.steady_virt_ns).max().unwrap_or(1) as f64;
    let busy_share =
        |busy: simcore::SimDuration| busy.as_nanos() as f64 / (plan.ranks as f64 * virt_elapsed);
    let hit_ratio = |hits: f64, misses: f64| ratio(hits, hits + misses);
    let mut out = vec![
        (
            "simcore.events_per_op",
            per_op((rep.events - setup_events) as f64),
        ),
        (
            "fabric.bytes_moved_per_payload_byte",
            (egress.bytes as f64 + sync_bytes) / bytes,
        ),
        (
            "fabric.channel_ops_per_op",
            per_op(c.channels.iter().map(|ch| ch.ops).sum::<u64>() as f64),
        ),
        ("fabric.pci_p2h_busy_share", busy_share(p2h.busy)),
        ("fabric.ib_egress_busy_share", busy_share(egress.busy)),
        ("dcfa.commands_per_op", per_op(c.dcfa.commands as f64)),
        (
            "dcfa.mr_registered_per_op",
            per_op(c.dcfa.mr_registered as f64),
        ),
        (
            "dcfa.offload_registered_per_op",
            per_op(c.dcfa.offload_registered as f64),
        ),
        ("dcfa.cmd_retries_per_op", per_op(c.dcfa.cmd_retries as f64)),
        ("engine.eager_share", ratio(eager, eager + rndv)),
        (
            "engine.rndv_recv_first_share",
            ratio(c.sum(|r| r.comm.rndv_recv_first), rndv),
        ),
        ("engine.offload_syncs_per_send", ratio(syncs, eager + rndv)),
        (
            "engine.packets_per_op",
            per_op(c.sum(|r| r.comm.packets_processed)),
        ),
        (
            "engine.credit_grants_per_op",
            per_op(c.sum(|r| r.comm.credit_grants)),
        ),
        (
            "engine.doorbells_coalesced_per_op",
            per_op(c.sum(|r| r.comm.doorbells_coalesced)),
        ),
        (
            "engine.retries_per_op",
            per_op(c.sum(|r| r.comm.wr_retries + r.comm.handshake_reissues)),
        ),
        (
            "engine.pairs_per_rank",
            c.mean_at_end(|r| r.comm.pairs_established),
        ),
        (
            "engine.comm_buffer_mb_per_rank",
            c.mean_at_end(|r| r.comm.comm_buffer_bytes) / (1 << 20) as f64,
        ),
        ("engine.heap_allocs_per_op", per_op(c.heap_allocs as f64)),
        ("engine.heap_bytes_per_op", per_op(c.heap_bytes as f64)),
        (
            "mrcache.hit_ratio",
            hit_ratio(c.sum(|r| r.mr_cache.hits), c.sum(|r| r.mr_cache.misses)),
        ),
        (
            "mrcache.offload_hit_ratio",
            hit_ratio(c.sum(|r| r.offload.hits), c.sum(|r| r.offload.misses)),
        ),
        ("trace.events_per_op", per_op(c.trace_recorded as f64)),
        ("trace.events_dropped", c.trace_dropped as f64),
        // Inputs of `harness.model_explained_share`, not metrics.
        ("raw.ib_transfers_per_op", per_op(egress.ops as f64)),
        ("raw.ib_bytes_per_op", per_op(egress.bytes as f64)),
        ("raw.sync_bytes_per_op", per_op(sync_bytes)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect::<Vec<_>>();
    for (phase, name) in PHASES {
        let hist = c.phases.iter().find(|(p, _)| *p == phase).map(|(_, h)| h);
        for (suffix, pct) in [("p50", 50.0), ("p99", 99.0)] {
            out.push((
                format!("engine.phase_{name}_virt_{suffix}_ns"),
                hist.map_or(0.0, |h| h.percentile(pct)),
            ));
        }
    }
    out
}

/// Per-layer metrics from the spans the rank closures recorded.
fn span_metrics(rep: &Rep) -> Vec<(String, f64)> {
    let durations = |names: &[&str]| -> Vec<u64> {
        let mut v: Vec<u64> = rep
            .outs
            .iter()
            .flat_map(|o| o.spans.iter())
            .filter(|s| names.contains(&s.name))
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        v.sort_unstable();
        v
    };
    let p50 = |name: &str| {
        let v = durations(&[name]);
        if v.is_empty() {
            0.0
        } else {
            stats::percentile(&v, 50.0) as f64
        }
    };
    let harness: u64 = durations(&["stamp", "verify"]).iter().sum();
    vec![
        ("engine.isend_call_host_ns_p50".into(), p50("isend")),
        ("engine.irecv_call_host_ns_p50".into(), p50("irecv")),
        ("engine.wait_call_host_ns_p50".into(), p50("wait")),
        (
            "harness.verify_host_share".into(),
            harness as f64 / (rep.steady_s * 1e9),
        ),
    ]
}

fn write_span_file(path: &Path, plan: &Plan, outs: &[RankOut]) -> Result<(), String> {
    let spans: Vec<Value> = outs
        .iter()
        .enumerate()
        .flat_map(|(rank, o)| {
            o.spans
                .iter()
                .filter(|s| s.iter < SPAN_FILE_ITERATIONS)
                .map(move |s| {
                    Value::obj([
                        ("rank", Value::Num(rank as f64)),
                        ("id", Value::Num(s.id as f64)),
                        ("parent", Value::Num(s.parent as f64)),
                        ("iter", Value::Num(s.iter as f64)),
                        ("name", Value::str(s.name)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                    ])
                })
        })
        .collect();
    let doc = Value::obj([
        ("workload", Value::str(plan.workload)),
        ("seed", Value::Num(plan.seed as f64)),
        (
            "clock",
            Value::str("host ns since the repetition started; one thread runs at a time, so spans of different ranks never overlap in running time"),
        ),
        (
            "note",
            Value::str("id and parent are per rank (parent 0 = the rank's root); iter is the timed round, the same number on every rank; a span around a blocking call is latency and includes parked time"),
        ),
        (
            "iterations_written",
            Value::Num(SPAN_FILE_ITERATIONS.min(plan.timed_rounds().len() as u32) as f64),
        ),
        (
            "iterations_total",
            Value::Num(plan.timed_rounds().len() as f64),
        ),
        ("spans", Value::Arr(spans)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_line()).map_err(|e| format!("{}: {e}", path.display()))
}

fn virtual_json(v: &Virtual) -> Value {
    Value::obj([
        ("samples", Value::Num(v.samples as f64)),
        ("p50_ns", Value::Num(v.p50_ns as f64)),
        ("tail_pct", Value::Num(v.tail_pct)),
        ("tail_ns", Value::Num(v.tail_ns as f64)),
        ("bandwidth_gbs", Value::Num(v.bandwidth_gbs)),
        (
            "paper",
            v.paper
                .map_or(Value::Null, |(measured, reference, unit, err)| {
                    Value::obj([
                        ("measured", Value::Num(measured)),
                        ("reference", Value::Num(reference)),
                        ("unit", Value::str(unit)),
                        ("err_pct", Value::Num(err)),
                    ])
                }),
        ),
        // Hex: a 64-bit digest does not fit a JSON number exactly.
        ("digest", Value::Str(format!("{:016x}", v.digest))),
    ])
}

/// Run one repetition of `plan` in this process and return its report.
/// `default_sched` keeps the operating system's default scheduling
/// policy: what a user of `repro` gets, and not repeatable.
pub fn measure(
    plan: &Plan,
    traced: bool,
    default_sched: bool,
    spans_out: Option<&Path>,
) -> Result<Value, String> {
    let cpu = sys::pin_to_one_cpu()?;
    let run_to_block = !default_sched && sys::run_to_block_scheduling();
    let rep = run_rep(plan, traced)?;
    // Read before anything else allocates: the peak is the repetition's.
    let usage = sys::rusage();
    let virt = virtual_summary(plan, &rep.outs);
    let mut layer: Vec<(String, f64)> = Vec::new();
    if let Some(counts) = &rep.counts {
        // The set-up phase alone, simulated again: the run report counts
        // events over the whole run, and the simulation is deterministic,
        // so the difference is the steady state's events.
        let setup_events = run_rep(&plan.setup_only(), false)?.events;
        layer = count_metrics(plan, &rep, counts, setup_events);
        layer.extend(span_metrics(&rep));
        if let Some(path) = spans_out {
            write_span_file(path, plan, &rep.outs)?;
        }
    }
    Ok(Value::obj([
        ("setup_s", Value::Num(rep.setup_s)),
        ("steady_s", Value::Num(rep.steady_s)),
        ("setup_cpu_s", Value::Num(rep.setup_cpu_s)),
        (
            "slices_cpu_ns",
            Value::Arr(
                rep.slices_cpu_ns
                    .iter()
                    .map(|&s| Value::Num(s as f64))
                    .collect(),
            ),
        ),
        ("attempted", Value::Num(rep.attempted as f64)),
        ("failed", Value::Num(rep.failed as f64)),
        ("corrupt", Value::Num(rep.corrupt as f64)),
        ("events", Value::Num(rep.events as f64)),
        ("pinned_cpu", Value::Num(cpu as f64)),
        ("run_to_block", Value::Bool(run_to_block)),
        ("peak_rss_mb", Value::Num(usage.peak_rss_mb)),
        ("user_s", Value::Num(usage.user_s)),
        ("sys_s", Value::Num(usage.sys_s)),
        ("ctx_switches", Value::Num(usage.ctx_switches as f64)),
        ("virtual", virtual_json(&virt)),
        (
            "layer",
            Value::Obj(layer.into_iter().map(|(k, v)| (k, Value::Num(v))).collect()),
        ),
    ]))
}
