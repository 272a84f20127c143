//! Every metric the benchmark emits: name, unit, direction, where the
//! number comes from and which end-to-end metric on which workload it is
//! expected to move. `BENCHMARK.json` carries the first three; `--check`
//! and a unit test hold the two in step.
//!
//! Units that start with `v` are *virtual* time — what the modelled
//! Phi/PCIe/InfiniBand hardware would take; it is deterministic and
//! repeats exactly. Every other time is *host* time — what the simulator
//! and the library take to run on this machine.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Measured on the untraced repetitions.
    EndToEnd,
    /// A public counter of the program, over the traced steady state.
    /// Deterministic: two runs with one seed must agree bit for bit.
    Count,
    /// A count the operating system or the allocator keeps; close from
    /// run to run, not exact.
    OsCount,
    /// An isolated microbenchmark of one crate's public API.
    UnitCost,
    /// Spans the rank closure records around its calls.
    Span,
    /// Computed from other metrics of the same run.
    Derived,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub source: Source,
    /// The end-to-end metric and workload this one should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        source,
        moves,
    }
}

/// `(metric, bound)`: the share of the parent's median by which the
/// metric may get worse before a change counts as a regression.
pub const END_TO_END: &[(Metric, f64)] = &[
    (m("setup_s", "s", "lower", Source::EndToEnd, "itself"), 0.20),
    (
        m("host_us_per_op", "us", "lower", Source::EndToEnd, "itself"),
        0.15,
    ),
    (
        m("peak_rss_mb", "MiB", "lower", Source::EndToEnd, "itself"),
        0.10,
    ),
];

use Source::{Count, Derived, OsCount, Span, UnitCost};

// One metric per row: the table is read and diffed as a table.
#[rustfmt::skip]
pub const PER_LAYER: &[Metric] = &[
    // Virtual-time results and correctness: exact, compared bit for bit.
    m("virt_iter_p50_ns", "vns", "lower", Count, "the modelled design's latency, all"),
    m("virt_iter_p99_ns", "vns", "lower", Count, "the modelled design's tail latency, all"),
    m("virt_bandwidth_gbs", "vGB/s", "higher", Count, "the modelled design's throughput, all"),
    m("fail_share", "ratio", "lower", Count, "correctness, all; any rise fails"),
    // simcore
    m("simcore.events_per_op", "count", "lower", Count, "host_us_per_op, all"),
    m("simcore.handoff_ns", "ns", "lower", UnitCost, "host_us_per_op on eager_pp4"),
    m("simcore.handoff_ns_64p", "ns", "lower", UnitCost, "host_us_per_op on halo64"),
    m("simcore.call_event_ns", "ns", "lower", UnitCost, "host_us_per_op on rndv_stream4"),
    m("simcore.sleep_ns", "ns", "lower", UnitCost, "host_us_per_op, all"),
    m("simcore.spawn_us_per_proc", "us", "lower", UnitCost, "setup_s on halo64"),
    m("simcore.ctx_switches_per_event", "count", "lower", OsCount, "host_us_per_op on halo64"),
    m("simcore.sys_share", "ratio", "lower", OsCount, "host_us_per_op on halo64"),
    m("simcore.slow_rep_share", "ratio", "lower", Derived, "a user's run time under the default scheduler, halo64"),
    m("simcore.rep_median_over_floor", "ratio", "lower", Derived, "a user's run time under the default scheduler, halo64"),
    // fabric
    m("fabric.bytes_moved_per_payload_byte", "ratio", "lower", Count, "virt_bandwidth_gbs, host_us_per_op on rndv_stream4"),
    m("fabric.channel_ops_per_op", "count", "lower", Count, "host_us_per_op on rndv_stream4"),
    m("fabric.pci_p2h_busy_share", "ratio", "lower", Count, "virt_bandwidth_gbs on rndv_stream4"),
    m("fabric.ib_egress_busy_share", "ratio", "lower", Count, "virt_bandwidth_gbs on rndv_stream4"),
    m("fabric.ib_transfer_call_ns", "ns", "lower", UnitCost, "host_us_per_op on eager_pp4"),
    m("fabric.copy_gbs", "GB/s", "higher", UnitCost, "host_us_per_op on rndv_stream4"),
    m("fabric.alloc_free_ns", "ns", "lower", UnitCost, "host_us_per_op on mr_churn4"),
    // verbs
    m("verbs.post_send_ns", "ns", "lower", UnitCost, "host_us_per_op on eager_pp4"),
    m("verbs.poll_cq_empty_ns", "ns", "lower", UnitCost, "host_us_per_op on eager_pp4"),
    m("verbs.poll_cq_hit_ns", "ns", "lower", UnitCost, "host_us_per_op on eager_pp4"),
    m("verbs.reg_dereg_mr_ns", "ns", "lower", UnitCost, "host_us_per_op on mr_churn4"),
    // scif
    m("scif.msg_roundtrip_host_ns", "ns", "lower", UnitCost, "host_us_per_op on mr_churn4"),
    m("scif.msg_roundtrip_virt_ns", "vns", "lower", UnitCost, "virt_iter_p50_ns on mr_churn4"),
    // dcfa
    m("dcfa.commands_per_op", "count", "lower", Count, "host_us_per_op on mr_churn4"),
    m("dcfa.mr_registered_per_op", "count", "lower", Count, "host_us_per_op on mr_churn4"),
    m("dcfa.offload_registered_per_op", "count", "lower", Count, "host_us_per_op on mr_churn4"),
    m("dcfa.cmd_retries_per_op", "count", "lower", Count, "host_us_per_op, all; expected 0"),
    m("dcfa.reg_dereg_host_ns", "ns", "lower", UnitCost, "host_us_per_op on mr_churn4"),
    m("dcfa.reg_dereg_virt_ns", "vns", "lower", UnitCost, "virt_iter_p50_ns on mr_churn4"),
    m("dcfa.sync_offload_host_ns_per_mib", "ns", "lower", UnitCost, "host_us_per_op on rndv_stream4"),
    // engine (dcfa-mpi)
    m("engine.eager_share", "ratio", "higher", Count, "host_us_per_op; 1 on eager_pp4, 0 on rndv_stream4 and mr_churn4"),
    m("engine.rndv_recv_first_share", "ratio", "lower", Count, "virt_iter_p50_ns on rndv_stream4"),
    m("engine.offload_syncs_per_send", "count", "lower", Count, "host_us_per_op on rndv_stream4"),
    m("engine.packets_per_op", "count", "lower", Count, "host_us_per_op on eager_pp4"),
    m("engine.credit_grants_per_op", "count", "lower", Count, "host_us_per_op on eager_pp4"),
    m("engine.doorbells_coalesced_per_op", "count", "higher", Count, "host_us_per_op on rndv_stream4"),
    m("engine.retries_per_op", "count", "lower", Count, "fail_share, all; expected 0"),
    m("engine.pairs_per_rank", "count", "lower", Count, "setup_s on halo64"),
    m("engine.comm_buffer_mb_per_rank", "MiB", "lower", Count, "peak_rss_mb on halo64"),
    m("engine.isend_call_host_ns_p50", "ns", "lower", Span, "host_us_per_op, all"),
    m("engine.irecv_call_host_ns_p50", "ns", "lower", Span, "host_us_per_op, all"),
    m("engine.wait_call_host_ns_p50", "ns", "lower", Span, "host_us_per_op, all"),
    m("engine.heap_allocs_per_op", "count", "lower", OsCount, "host_us_per_op on eager_pp4"),
    m("engine.heap_bytes_per_op", "B", "lower", OsCount, "host_us_per_op on rndv_stream4"),
    m("engine.phase_eager_virt_p50_ns", "vns", "lower", Count, "virt_iter_p50_ns on eager_pp4"),
    m("engine.phase_eager_virt_p99_ns", "vns", "lower", Count, "virt_iter_p99_ns on eager_pp4"),
    m("engine.phase_eager_copy_virt_p50_ns", "vns", "lower", Count, "virt_iter_p50_ns on eager_pp4"),
    m("engine.phase_eager_copy_virt_p99_ns", "vns", "lower", Count, "virt_iter_p99_ns on eager_pp4"),
    m("engine.phase_rts_wait_virt_p50_ns", "vns", "lower", Count, "virt_iter_p50_ns on rndv_stream4"),
    m("engine.phase_rts_wait_virt_p99_ns", "vns", "lower", Count, "virt_iter_p99_ns on rndv_stream4"),
    m("engine.phase_rndv_read_virt_p50_ns", "vns", "lower", Count, "virt_iter_p50_ns on rndv_stream4"),
    m("engine.phase_rndv_read_virt_p99_ns", "vns", "lower", Count, "virt_iter_p99_ns on rndv_stream4"),
    m("engine.phase_rndv_write_virt_p50_ns", "vns", "lower", Count, "virt_iter_p50_ns on rndv_stream4"),
    m("engine.phase_rndv_write_virt_p99_ns", "vns", "lower", Count, "virt_iter_p99_ns on rndv_stream4"),
    m("engine.phase_mr_register_virt_p50_ns", "vns", "lower", Count, "virt_iter_p50_ns on mr_churn4"),
    m("engine.phase_mr_register_virt_p99_ns", "vns", "lower", Count, "virt_iter_p99_ns on mr_churn4"),
    m("engine.phase_offload_sync_virt_p50_ns", "vns", "lower", Count, "virt_iter_p50_ns on rndv_stream4"),
    m("engine.phase_offload_sync_virt_p99_ns", "vns", "lower", Count, "virt_iter_p99_ns on rndv_stream4"),
    m("engine.phase_ctrl_roundtrip_virt_p50_ns", "vns", "lower", Count, "virt_iter_p50_ns on mr_churn4"),
    m("engine.phase_ctrl_roundtrip_virt_p99_ns", "vns", "lower", Count, "virt_iter_p99_ns on mr_churn4"),
    m("engine.srq_over_ring_host_ratio", "ratio", "lower", Derived, "host_us_per_op on eager_pp4 with the SRQ receive path"),
    // mrcache
    m("mrcache.hit_ratio", "ratio", "higher", Count, "host_us_per_op, virt_iter_p50_ns on rndv_stream4 (hits) vs mr_churn4 (misses)"),
    m("mrcache.offload_hit_ratio", "ratio", "higher", Count, "host_us_per_op, virt_iter_p50_ns on rndv_stream4 (hits) vs mr_churn4 (misses)"),
    // trace
    m("trace.host_overhead_pct", "%", "lower", Derived, "host_us_per_op with tracing attached, all"),
    m("trace.events_per_op", "count", "lower", Count, "trace.host_overhead_pct, all"),
    m("trace.events_dropped", "count", "lower", Count, "none; a full ring drops its oldest events"),
    // harness: the benchmark itself
    m("harness.elapsed_over_cpu", "ratio", "lower", Derived, "none: how much of the run the machine took the CPU away; 1 when undisturbed"),
    m("harness.rep_host_median_us_per_op", "us", "lower", Derived, "what a single run under the default scheduler costs, all"),
    m("harness.rep_host_iqr_pct", "%", "lower", Derived, "how noisy single runs under the default scheduler are, all"),
    m("harness.verify_host_share", "ratio", "lower", Span, "host_us_per_op, all: the benchmark's own cost"),
    m("harness.model_explained_share", "ratio", "higher", Derived, "host_us_per_op, all: the rest is engine + hand-off"),
];

/// Protocol phases reported as `engine.phase_<name>_virt_p50_ns`/`_p99_ns`.
pub const PHASES: [(dcfa_mpi::Phase, &str); 8] = {
    use dcfa_mpi::Phase::*;
    [
        (Eager, "eager"),
        (EagerCopy, "eager_copy"),
        (RtsWait, "rts_wait"),
        (RndvRead, "rndv_read"),
        (RndvWrite, "rndv_write"),
        (MrRegister, "mr_register"),
        (OffloadSync, "offload_sync"),
        (CtrlRoundtrip, "ctrl_roundtrip"),
    ]
};

/// One sentence per workload: why it is in the benchmark.
pub const WORKLOAD_WHY: [(&str, &str); 4] = [
    (
        "eager_pp4",
        "4 ranks, blocking eager ping-pong at 4 B to 4 KiB: one op in flight, so every op is a park/wake and simcore hand-off dominates host time",
    ),
    (
        "rndv_stream4",
        "4 ranks, windowed 16 KiB to 1 MiB rendezvous streams through the offload buffer with MR-cache hits: bytes dominate, so fabric copies set host time",
    ),
    (
        "mr_churn4",
        "4 ranks, blocking 64 KiB rendezvous over 256 buffers per rank so the 64-entry MR and offload caches always miss: registration through the daemon dominates",
    ),
    (
        "halo64",
        "64 ranks, SRQ receive pool, 1 KiB and 32 KiB halos with 4 neighbours: over 130 OS threads, lazy connects and the hand-off pathology at scale",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        let all = END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER);
        for metric in all {
            assert!(seen.insert(metric.name), "{} listed twice", metric.name);
            assert!(
                crate::check::well_formed_name(metric.name),
                "{}",
                metric.name
            );
            assert!(matches!(metric.better, "lower" | "higher"));
            assert!(!metric.unit.is_empty() && metric.unit.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        for (_, why) in WORKLOAD_WHY {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn benchmark_json_and_readme_agree_with_the_catalog() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
        let spec = crate::json::parse(&text).expect("BENCHMARK.json parses");
        crate::check::spec_matches_catalog(&spec).expect("BENCHMARK.json matches the catalog");
        let readme = include_str!("../README.md");
        let all = END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER);
        for metric in all {
            assert!(readme.contains(metric.name), "README lacks {}", metric.name);
        }
    }
}
