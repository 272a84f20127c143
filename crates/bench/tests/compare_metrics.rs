//! End-to-end regression tests for the `repro --compare-metrics` gate:
//! the process must exit 1 whenever a phase present in the baseline is
//! missing from the candidate report (a silently dropped phase used to
//! evade the p99 check entirely), when a new phase appears that the
//! baseline does not know, and when any gated number moved. Exit codes
//! are observed on the real binary via `CARGO_BIN_EXE_repro`.

use std::path::PathBuf;
use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dcfa-compare-{}-{name}", std::process::id()));
    p
}

/// Run the profiled workload once and return its serialized report.
fn current_report() -> String {
    let path = tmp("current.json");
    let out = repro()
        .args(["--metrics-json", path.to_str().unwrap()])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "metrics-json run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(&path).expect("report written");
    let _ = std::fs::remove_file(&path);
    report
}

/// Exit status of `repro --compare-metrics <baseline>`.
fn compare_exit(baseline: &str, label: &str) -> (i32, String) {
    let path = tmp(label);
    std::fs::write(&path, baseline).unwrap();
    let out = repro()
        .args(["--compare-metrics", path.to_str().unwrap()])
        .output()
        .expect("spawn repro");
    let _ = std::fs::remove_file(&path);
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().expect("exit code"), text)
}

#[test]
fn phase_mismatches_and_moved_numbers_gate_the_exit_code() {
    let report = current_report();

    // Sanity: the run is virtually deterministic, so comparing a fresh
    // run against its own report passes.
    let (code, text) = compare_exit(&report, "self.json");
    assert_eq!(code, 0, "self-compare must pass:\n{text}");

    // The gate is exact: one established pair more in the baseline's
    // `scale` section is a violation naming the key.
    let moved = report.replacen("\"established_pairs\":10,", "\"established_pairs\":11,", 1);
    assert_ne!(moved, report, "scale section not found");
    let (code, text) = compare_exit(&moved, "moved.json");
    assert_eq!(code, 1, "a moved count must fail the gate:\n{text}");
    assert!(
        text.contains("scale established_pairs moved (11 -> 10)"),
        "violation names the key:\n{text}"
    );

    // Baseline knows a phase (Backoff — never produced by the clean
    // profiled run) that the candidate does not: exit 1.
    let marker = "\"phases\":[\n";
    let idx = report.find(marker).expect("phases array") + marker.len();
    let mut with_extra = report.clone();
    with_extra.insert_str(
        idx,
        "  {\"phase\":\"Backoff\",\"count\":1,\"sum_ns\":10,\"min_ns\":10,\
         \"max_ns\":10,\"mean_ns\":10,\"p50_ns\":10,\"p90_ns\":10,\
         \"p99_ns\":10},\n",
    );
    let (code, text) = compare_exit(&with_extra, "missing-in-candidate.json");
    assert_eq!(code, 1, "dropped phase must fail the gate:\n{text}");
    assert!(
        text.contains("missing from current"),
        "violation names the dropped phase:\n{text}"
    );

    // Baseline is missing a phase the candidate produces: exit 1 in the
    // other direction (the baseline no longer describes the code). Drop
    // the first phases entry — it always carries a trailing comma, so the
    // remainder stays valid JSON.
    let line_end = report[idx..].find('\n').expect("phase line") + idx + 1;
    let mut without_first = report.clone();
    without_first.replace_range(idx..line_end, "");
    let (code, text) = compare_exit(&without_first, "new-in-candidate.json");
    assert_eq!(code, 1, "new phase must fail the gate:\n{text}");
    assert!(
        text.contains("absent from baseline"),
        "violation names the new phase:\n{text}"
    );
}
