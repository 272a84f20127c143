//! Integration gates for the cross-rank causal tracing subsystem: the
//! stitched lifecycle DAG must account for (virtually) all of every
//! completed message's end-to-end time on every protocol path, the
//! critical path must be bit-for-bit identical from run to run, and the
//! Perfetto export must self-validate.

use bench::stitch::{self, MsgTimeline};
use bench::Scenario;

/// ISSUE 9 acceptance bar: the DAG explains at least this fraction of
/// each completed message's lifetime. (The stitcher's telescoping edges
/// make untruncated timelines cover 1.0 exactly, so anything below
/// signals ring drops or a missing instrumentation point.)
const MIN_COVERAGE: f64 = 0.95;

fn assert_full_coverage(messages: &[MsgTimeline], label: &str) {
    let mut completed = 0usize;
    for m in messages {
        let Some(cov) = m.coverage() else { continue };
        completed += 1;
        assert!(
            cov >= MIN_COVERAGE,
            "{label}: message {:?} ({} B) covered only {:.1}% of its lifetime",
            m.id,
            m.len,
            cov * 100.0
        );
    }
    assert!(completed > 0, "{label}: no completed messages to check");
}

/// The 4-rank mixed run exercises eager, both rendezvous flavours and
/// the offloading send buffer; every completed message's stitched
/// timeline must cover its lifetime, and the Perfetto export of the same
/// stream must pass schema validation.
#[test]
fn mixed_run_stitches_with_full_coverage() {
    let run = bench::run(&Scenario::default()).unwrap();
    assert_eq!(run.dropped, 0, "mixed run must not saturate the trace ring");
    let st = stitch::stitch(&run.events, run.dropped);
    assert!(st.warnings.is_empty(), "{:?}", st.warnings);
    assert_full_coverage(&st.messages, "mixed");
    // Rendezvous messages (64 KiB) are in the DAG, not only eager ones.
    assert!(
        st.messages.iter().any(|m| m.len >= 64 << 10 && m.complete),
        "no completed rendezvous-size message stitched"
    );
    let json = stitch::trace_json(&run.events);
    let stats = stitch::validate_trace_json(&json).expect("export is schema-valid");
    assert!(stats.flows > 0, "cross-rank edges must emit flow pairs");
    assert_eq!(stats.tracks, 4, "one track per rank");
}

/// The kill soak (eager + SRQ reorder stash + rank death) must stitch
/// and cover fully, and a second run of the same virtual cluster must
/// reproduce its fingerprint and critical path — the path is a pure
/// function of the trace stream, which is deterministic.
#[test]
fn kill_soak_critical_path_replays_with_full_coverage() {
    let sc = Scenario {
        faults: "5:kill@3,20:kill@11".parse().unwrap(),
        ..Scenario::halo_soak(16)
    };
    let mut paths = Vec::new();
    let mut fingerprints = Vec::new();
    for run_no in 0..2 {
        let run = bench::run(&sc).unwrap();
        assert_eq!(run.violations(), Vec::<String>::new(), "kill soak gates");
        let st = stitch::stitch(&run.events, run.dropped);
        assert_full_coverage(&st.messages, &format!("kill/run{run_no}"));
        paths.push(stitch::critical_path(&run.events).expect("events present"));
        fingerprints.push(run.fingerprint());
    }
    assert_eq!(paths[0], paths[1], "critical path differs between runs");
    assert_eq!(
        fingerprints[0], fingerprints[1],
        "run fingerprint differs between runs"
    );
    // The path is non-trivial: it spans time and crosses the wire.
    assert!(paths[0].total_ns > 0);
    assert!(paths[0].edges > 1);
    assert_eq!(
        paths[0].total_ns,
        paths[0].breakdown.iter().map(|(_, v)| v).sum::<u64>(),
        "breakdown must telescope to the total"
    );
}

/// The metrics report of a traced run carries the critical_path section
/// and it round-trips through the (exact) comparator.
#[test]
fn critical_path_report_section_round_trips() {
    let run = bench::run(&Scenario::default()).unwrap();
    let report = bench::metrics_report_json(&run);
    assert!(
        report.contains("\"critical_path\":{\"total_ns\":"),
        "report lacks the critical_path section"
    );
    let (violations, warnings) =
        bench::compare_reports(&report, &report).expect("self-compare parses");
    assert!(violations.is_empty(), "{violations:?}");
    assert!(warnings.is_empty(), "{warnings:?}");
}
