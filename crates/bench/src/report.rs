//! The machine-readable performance report behind `repro --metrics-json`
//! and the regression gate behind `repro --compare-metrics`.
//!
//! # Schema versioning
//!
//! Every report carries `"schema": "dcfa-mpi-metrics/1"`. The comparator
//! refuses to diff reports with different schema ids. Additive changes
//! (new counters, new phases) keep the version; renaming or re-meaning a
//! field bumps it — see DESIGN.md §13.
//!
//! # Comparison semantics
//!
//! Everything gated is virtual time or a count, hence deterministic, so
//! [`compare_reports`] is *exact*; the `wall` section is real machine time
//! and is never compared.

use std::fmt::Write as _;

use dcfa_mpi::{HistogramSnapshot, MpiConfig, Phase};

use crate::json::{self, JsonValue};
use crate::stitch;
use crate::Run;

/// Schema identifier stamped into (and required of) every report.
pub const METRICS_SCHEMA: &str = "dcfa-mpi-metrics/1";

fn push_kv_num(out: &mut String, key: &str, v: f64) {
    json::write_str(out, key);
    out.push(':');
    json::write_num(out, v);
}

fn push_hist_fields(out: &mut String, s: &HistogramSnapshot) {
    push_kv_num(out, "count", s.count as f64);
    out.push(',');
    push_kv_num(out, "sum_ns", s.sum as f64);
    out.push(',');
    push_kv_num(out, "min_ns", if s.is_empty() { 0.0 } else { s.min as f64 });
    out.push(',');
    push_kv_num(out, "max_ns", s.max as f64);
    out.push(',');
    push_kv_num(out, "mean_ns", s.mean());
    out.push(',');
    push_kv_num(out, "p50_ns", s.p50());
    out.push(',');
    push_kv_num(out, "p90_ns", s.p90());
    out.push(',');
    push_kv_num(out, "p99_ns", s.p99());
}

/// Names of the report's count sections, in the order written. All but
/// `counters` are additive: absent from old baselines or from run types
/// that do not produce them, so adding one keeps the schema version;
/// presence is gated asymmetrically — see [`compare_reports`].
const SECTIONS: [&str; 4] = ["counters", "scale", "failures", "critical_path"];

/// The additive sections `run` carries, as one `(section, [(key, value)])`
/// list: the writer loops over it, and the comparator gates whatever keys
/// it finds under the same names — no per-section code on either side.
fn sections(run: &Run) -> Vec<(&'static str, Vec<(String, u64)>)> {
    let kv = |pairs: &[(&str, u64)]| pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    let sum = |f: fn(&dcfa_mpi::StatsReport) -> u64| run.reports().map(f).sum();
    let mut out = vec![
        // Counters aggregated across ranks.
        (
            "counters",
            kv(&[
                ("bytes_sent", sum(|r| r.comm.bytes_sent)),
                ("bytes_received", sum(|r| r.comm.bytes_received)),
                ("eager_sends", sum(|r| r.comm.eager_sends)),
                ("rndv_sends", sum(|r| r.comm.rndv_sends)),
                ("offload_syncs", sum(|r| r.comm.offload_syncs)),
                ("packets_processed", sum(|r| r.comm.packets_processed)),
                ("mr_cache_hits", sum(|r| r.mr_cache.hits)),
                ("mr_cache_misses", sum(|r| r.mr_cache.misses)),
            ]),
        ),
        // Scale: the QP pairs lazy connection establishment actually
        // touched, the per-rank communication-buffer footprint, and the
        // SRQ pool's peak occupancy (0 on the per-pair ring path).
        (
            "scale",
            kv(&[
                ("ranks", run.scenario.ranks as u64),
                ("established_pairs", run.established_pairs()),
                ("bytes_per_rank", run.bytes_per_rank()),
                ("srq_highwater", run.srq_highwater()),
            ]),
        ),
    ];
    // Failure plane: only runs with kills armed have one.
    if let Some(f) = &run.failures {
        out.push((
            "failures",
            kv(&[
                ("kills", f.kills),
                ("detections", f.detections),
                ("detection_latency_p99_ns", f.detection_latency_p99_ns),
                ("revokes", f.revokes),
                ("shrinks", f.shrinks),
                ("reclaimed", f.reclaimed),
            ]),
        ));
    }
    // Critical path: the heaviest causal chain through the stitched
    // message-lifecycle DAG, split by edge kind.
    if let Some(cp) = stitch::critical_path(&run.events) {
        let mut keys: Vec<(String, u64)> = kv(&[("total_ns", cp.total_ns), ("edges", cp.edges)]);
        keys.extend(
            cp.breakdown
                .iter()
                .map(|(kind, ns)| (format!("{kind}_ns"), *ns)),
        );
        out.push(("critical_path", keys));
    }
    out
}

/// Serialize the run's metrics as a versioned JSON report: config
/// fingerprint, aggregated counters, derived bandwidth, per-phase
/// roll-ups with percentiles, and the full per-(phase, size-class, peer)
/// histograms with sparse bucket lists.
pub fn metrics_report_json(run: &Run) -> String {
    let cfg: &MpiConfig = &run.cfg;
    let mut out = String::with_capacity(16 << 10);
    out.push_str("{\n");
    let _ = writeln!(out, "\"schema\":\"{METRICS_SCHEMA}\",");

    // Config fingerprint: every knob that shapes the latency distributions.
    out.push_str("\"config\":{");
    let _ = write!(out, "\"ranks\":{},", run.scenario.ranks);
    let _ = write!(out, "\"placement\":\"{:?}\",", cfg.placement);
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    let _ = write!(out, "\"eager_threshold\":{},", cfg.eager_threshold);
    let offload = opt(cfg.offload_threshold);
    let _ = write!(out, "\"offload_threshold\":{offload},");
    let _ = write!(out, "\"mr_cache_capacity\":{},", cfg.mr_cache_capacity);
    let _ = write!(out, "\"ring_slots\":{},", cfg.ring_slots);
    let _ = write!(out, "\"ring_slot_payload\":{},", cfg.ring_slot_payload);
    let _ = write!(out, "\"srq_depth\":{}", opt(cfg.srq_depth.map(u64::from)));
    out.push_str("},\n");

    let _ = writeln!(out, "\"elapsed_ns\":{},", run.elapsed_ns);

    // Wall-clock throughput of the simulator itself. These depend on the
    // machine that ran the report, so the comparator never gates them
    // (host time is `benchmark/`'s job).
    let wall_secs = run.wall_ns as f64 / 1e9;
    let mpi_ops = run.mpi_ops();
    let per_sec = |n: u64| {
        if run.wall_ns == 0 {
            0.0
        } else {
            n as f64 / wall_secs
        }
    };
    out.push_str("\"wall\":{");
    let _ = write!(
        out,
        "\"wall_ns\":{},\"sim_events\":{},\"mpi_ops\":{mpi_ops},",
        run.wall_ns, run.sim_events
    );
    push_kv_num(&mut out, "events_per_sec", per_sec(run.sim_events));
    out.push(',');
    push_kv_num(&mut out, "ops_per_sec", per_sec(mpi_ops));
    out.push_str("},\n");

    for (section, keys) in sections(run) {
        let _ = write!(out, "\"{section}\":{{");
        for (i, (key, v)) in keys.iter().enumerate() {
            let _ = write!(out, "{}\"{key}\":{v}", if i == 0 { "" } else { "," });
        }
        out.push_str("},\n");
    }

    // Aggregate payload bandwidth over the run's virtual lifetime.
    let bytes_sent: u64 = run.reports().map(|r| r.comm.bytes_sent).sum();
    let bw_gbs = if run.elapsed_ns == 0 {
        0.0
    } else {
        bytes_sent as f64 / run.elapsed_ns as f64 // B/ns == GB/s
    };
    out.push_str("\"bandwidth_gbs\":");
    json::write_num(&mut out, bw_gbs);
    out.push_str(",\n");

    // Per-phase roll-ups (all size classes and peers merged).
    out.push_str("\"phases\":[\n");
    let phases = run.metrics.merged_by_phase();
    for (i, (phase, snap)) in phases.iter().enumerate() {
        out.push_str("  {");
        let _ = write!(out, "\"phase\":\"{}\",", phase.name());
        push_hist_fields(&mut out, snap);
        out.push('}');
        if i + 1 < phases.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\n");

    // Full histograms, keyed and with sparse (bucket, count) pairs.
    out.push_str("\"histograms\":[\n");
    let hists = run.metrics.snapshot();
    for (i, (key, snap)) in hists.iter().enumerate() {
        out.push_str("  {");
        let _ = write!(
            out,
            "\"phase\":\"{}\",\"size_class\":{},",
            key.phase.name(),
            key.size_class
        );
        match key.peer {
            Some(p) => {
                let _ = write!(out, "\"peer\":{p},");
            }
            None => out.push_str("\"peer\":null,"),
        }
        push_hist_fields(&mut out, snap);
        out.push_str(",\"buckets\":[");
        let mut first = true;
        for (b, &c) in snap.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "[{b},{c}]");
        }
        out.push_str("]}");
        if i + 1 < hists.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n}\n");
    out
}

fn phase_p99s(doc: &JsonValue) -> Result<Vec<(String, f64)>, String> {
    let phases = doc
        .get("phases")
        .and_then(JsonValue::as_arr)
        .ok_or("report has no \"phases\" array")?;
    let mut out = Vec::new();
    for p in phases {
        let name = p
            .get("phase")
            .and_then(JsonValue::as_str)
            .ok_or("phase entry without a \"phase\" name")?;
        if Phase::parse(name).is_none() {
            return Err(format!("unknown phase {name:?} in report"));
        }
        let p99 = p
            .get("p99_ns")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("phase {name} has no numeric p99_ns"))?;
        out.push((name.to_string(), p99));
    }
    Ok(out)
}

/// Diff two serialized reports, exactly: each per-phase p99, the aggregate
/// bandwidth and every key of every shared section must equal the
/// baseline's. A regression fails for the obvious reason; an improvement
/// fails too, because the checked-in baseline no longer describes the
/// code and must be regenerated in the same commit (otherwise it would
/// mask a later regression of the same magnitude). `Ok((violations,
/// warnings))` — empty violations means the gate passes; `Err` means an
/// input could not be parsed or is not a metrics report.
///
/// Additive sections ([`SECTIONS`]) gate *asymmetrically*: present on
/// both sides → every key either side carries must be equal; only in
/// the baseline → a warning (an old baseline must keep passing against a
/// candidate whose run type doesn't produce the section); only in the
/// candidate → a violation, because silently skipping would let the new
/// section regress unwatched forever.
pub fn compare_reports(
    baseline: &str,
    current: &str,
) -> Result<(Vec<String>, Vec<String>), String> {
    let base = json::parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cur = json::parse(current).map_err(|e| format!("current: {e}"))?;
    for (label, doc) in [("baseline", &base), ("current", &cur)] {
        match doc.get("schema").and_then(JsonValue::as_str) {
            Some(METRICS_SCHEMA) => {}
            Some(other) => {
                return Err(format!(
                    "{label}: schema {other:?} does not match {METRICS_SCHEMA:?}"
                ))
            }
            None => return Err(format!("{label}: not a metrics report (no schema)")),
        }
    }

    let mut violations = Vec::new();
    let mut warnings = Vec::new();

    let bw = |label: &str, doc: &JsonValue| {
        doc.get("bandwidth_gbs")
            .and_then(JsonValue::as_f64)
            .ok_or(format!("{label}: no numeric bandwidth_gbs"))
    };
    let (base_bw, cur_bw) = (bw("baseline", &base)?, bw("current", &cur)?);
    if base_bw != cur_bw {
        violations.push(format!("bandwidth_gbs moved ({base_bw} -> {cur_bw})"));
    }

    let base_phases = phase_p99s(&base).map_err(|e| format!("baseline: {e}"))?;
    let cur_phases = phase_p99s(&cur).map_err(|e| format!("current: {e}"))?;
    for (name, base_p99) in &base_phases {
        match cur_phases.iter().find(|(n, _)| n == name) {
            None => violations.push(format!(
                "phase {name}: present in baseline but missing from current run"
            )),
            Some((_, cur_p99)) if cur_p99 != base_p99 => violations.push(format!(
                "phase {name}: p99 moved ({base_p99} ns -> {cur_p99} ns)"
            )),
            Some(_) => {}
        }
    }
    for (name, _) in &cur_phases {
        if !base_phases.iter().any(|(n, _)| n == name) {
            violations.push(format!(
                "phase {name}: new in current run, absent from baseline (regenerate the baseline)"
            ));
        }
    }

    for section in SECTIONS {
        match (base.get(section), cur.get(section)) {
            (Some(JsonValue::Obj(bs)), Some(JsonValue::Obj(cs))) => {
                for key in bs.keys().chain(cs.keys().filter(|k| !bs.contains_key(*k))) {
                    let (b, c) = (bs.get(key), cs.get(key));
                    if b != c {
                        let show = |v: Option<&JsonValue>| {
                            v.and_then(JsonValue::as_f64)
                                .map_or("absent".to_string(), |n| n.to_string())
                        };
                        violations.push(format!(
                            "{section} {key} moved ({} -> {})",
                            show(b),
                            show(c)
                        ));
                    }
                }
            }
            (Some(_), None) => warnings.push(format!(
                "{section}: present in baseline but not in current run — section not gated \
                 (expected when the run type doesn't produce it)"
            )),
            (None, Some(_)) => violations.push(format!(
                "{section}: new in current run, absent from baseline (regenerate the baseline \
                 so the section is gated)"
            )),
            _ => {}
        }
    }

    Ok((violations, warnings))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Violations only — what the exit code hangs on.
    fn gate(baseline: &str, current: &str) -> Result<Vec<String>, String> {
        compare_reports(baseline, current).map(|(v, _)| v)
    }

    fn fake_report(p99_scale: f64, bw: f64) -> String {
        format!(
            r#"{{
              "schema": "{METRICS_SCHEMA}",
              "bandwidth_gbs": {bw},
              "phases": [
                {{"phase": "Eager", "p99_ns": {}}},
                {{"phase": "RndvRead", "p99_ns": {}}}
              ]
            }}"#,
            4000.0 * p99_scale,
            90000.0 * p99_scale
        )
    }

    #[test]
    fn identical_reports_pass() {
        let r = fake_report(1.0, 1.5);
        assert_eq!(gate(&r, &r).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn any_p99_move_fails_in_either_direction() {
        for (base, cur) in [(1.0, 1.001), (1.001, 1.0)] {
            let v = gate(&fake_report(base, 1.5), &fake_report(cur, 1.5)).unwrap();
            assert_eq!(v.len(), 2, "{v:?}"); // both phases moved
            assert!(v[0].contains("p99 moved"), "{v:?}");
        }
    }

    #[test]
    fn bandwidth_move_fails() {
        let v = gate(&fake_report(1.0, 2.0), &fake_report(1.0, 1.99)).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("bandwidth_gbs"), "{v:?}");
    }

    #[test]
    fn missing_and_new_phases_flagged() {
        let base = format!(
            r#"{{"schema":"{METRICS_SCHEMA}","bandwidth_gbs":1.0,
                "phases":[{{"phase":"Eager","p99_ns":100}}]}}"#
        );
        let cur = format!(
            r#"{{"schema":"{METRICS_SCHEMA}","bandwidth_gbs":1.0,
                "phases":[{{"phase":"RndvWrite","p99_ns":100}}]}}"#
        );
        let v = gate(&base, &cur).unwrap();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|m| m.contains("missing from current")));
        assert!(v.iter().any(|m| m.contains("absent from baseline")));
    }

    #[test]
    fn missing_phase_alone_fails_even_when_shared_metrics_match() {
        // The dropped phase must be a violation in its own right, not
        // something that only surfaces via the surviving phases.
        let base = format!(
            r#"{{"schema":"{METRICS_SCHEMA}","bandwidth_gbs":1.0,
                "phases":[{{"phase":"Eager","p99_ns":100}},
                          {{"phase":"RndvRead","p99_ns":200}}]}}"#
        );
        let cur = format!(
            r#"{{"schema":"{METRICS_SCHEMA}","bandwidth_gbs":1.0,
                "phases":[{{"phase":"Eager","p99_ns":100}}]}}"#
        );
        let v = gate(&base, &cur).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("RndvRead"), "{v:?}");
        assert!(v[0].contains("missing from current"), "{v:?}");
    }

    fn report_without_sections() -> String {
        format!(
            r#"{{"schema":"{METRICS_SCHEMA}","bandwidth_gbs":1.0,
                "phases":[{{"phase":"Eager","p99_ns":100}}]}}"#
        )
    }

    fn report_with_section(section: &str, body: &str) -> String {
        format!(
            r#"{{"schema":"{METRICS_SCHEMA}","bandwidth_gbs":1.0,
                "{section}":{{{body}}},
                "phases":[{{"phase":"Eager","p99_ns":100}}]}}"#
        )
    }

    /// One body per additive section, for the presence tests below.
    const SECTION_BODIES: [(&str, &str); 3] = [
        ("scale", r#""established_pairs":6,"bytes_per_rank":1000"#),
        ("failures", r#""kills":4,"detections":4"#),
        (
            "critical_path",
            r#""total_ns":5000,"edges":12,"wire_ns":3000"#,
        ),
    ];

    #[test]
    fn shared_sections_gate_every_key_either_side_carries() {
        let failures = |detections: u64, latency: u64| {
            report_with_section(
                "failures",
                &format!(
                    r#""kills":4,"detections":{detections},"detection_latency_p99_ns":{latency}"#
                ),
            )
        };
        assert!(gate(&failures(4, 7000), &failures(4, 7000))
            .unwrap()
            .is_empty());
        // A missed detection and a moved latency both violate.
        let v = gate(&failures(4, 7000), &failures(3, 7001)).unwrap();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(
            v.iter()
                .any(|m| m.contains("failures detections moved (4 -> 3)")),
            "{v:?}"
        );
        assert!(
            v.iter()
                .any(|m| m.contains("failures detection_latency_p99_ns")),
            "{v:?}"
        );
        // No key list is kept by hand: a key only one side carries (an
        // edge kind appearing on the critical path) is a violation too.
        let base = report_with_section("critical_path", r#""total_ns":10000,"wire_ns":6000"#);
        let cur = report_with_section(
            "critical_path",
            r#""total_ns":10000,"wire_ns":6000,"stash_dwell_ns":1"#,
        );
        for (a, b, want) in [
            (&base, &cur, "(absent -> 1)"),
            (&cur, &base, "(1 -> absent)"),
        ] {
            let v = gate(a, b).unwrap();
            assert_eq!(v.len(), 1, "{v:?}");
            assert!(v[0].contains("critical_path stash_dwell_ns moved"), "{v:?}");
            assert!(v[0].contains(want), "{v:?}");
        }
    }

    #[test]
    fn additive_section_only_in_baseline_warns_but_passes() {
        // An old baseline (with the section) against a run type that does
        // not produce it: the gate cannot bind, which is legitimate —
        // warn, don't fail.
        for (section, body) in SECTION_BODIES {
            let with = report_with_section(section, body);
            let (v, w) = compare_reports(&with, &report_without_sections()).unwrap();
            assert!(v.is_empty(), "{section}: {v:?}");
            assert_eq!(w.len(), 1, "{section}: {w:?}");
            assert!(w[0].contains(section), "{w:?}");
            assert!(w[0].contains("not gated"), "{w:?}");
        }
    }

    #[test]
    fn additive_section_only_in_candidate_is_a_violation() {
        // The code grew a section the baseline has never seen: skipping
        // silently would leave it ungated forever, so this direction
        // demands a regenerated baseline.
        for (section, body) in SECTION_BODIES {
            let with = report_with_section(section, body);
            let (v, w) = compare_reports(&report_without_sections(), &with).unwrap();
            assert_eq!(v.len(), 1, "{section}: {v:?}");
            assert!(v[0].contains(section), "{v:?}");
            assert!(v[0].contains("regenerate the baseline"), "{v:?}");
            assert!(w.is_empty(), "{section}: {w:?}");
        }
    }

    #[test]
    fn every_written_section_is_a_gated_section() {
        let run = crate::run(&crate::Scenario {
            faults: "5:kill@3".parse().unwrap(),
            ..crate::Scenario::halo_soak(8)
        })
        .unwrap();
        let written: Vec<&str> = sections(&run).iter().map(|(s, _)| *s).collect();
        assert_eq!(written, SECTIONS);
    }

    #[test]
    fn schema_mismatch_is_an_error() {
        let bad = r#"{"schema":"dcfa-mpi-metrics/0","bandwidth_gbs":1.0,"phases":[]}"#;
        assert!(gate(bad, bad).is_err());
        assert!(gate("{", "{}").is_err());
        assert!(gate("{}", "{}").is_err());
    }
}
