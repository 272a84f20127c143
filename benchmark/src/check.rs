//! `--check`: a quick run (tiny iteration counts, one repetition) that
//! proves the benchmark still emits what `BENCHMARK.json` promises, that
//! the workloads still exercise what they were chosen for, and that the
//! payload check can fail.

use crate::catalog::{Metric, END_TO_END, PER_LAYER, WORKLOAD_WHY};
use crate::json::{self, Value};
use crate::orchestrate::{self, PassResult, Settings};
use crate::workloads::WORKLOADS;

/// The contract's rule for a name.
pub fn well_formed_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or(format!("BENCHMARK.json lacks \"{key}\""))
}

fn metric_list(spec: &Value, key: &str, want: &[(Metric, Option<f64>)]) -> Result<(), String> {
    let have = field(spec, key)?
        .as_arr()
        .ok_or(format!("\"{key}\" is not a list"))?;
    if have.len() != want.len() {
        return Err(format!(
            "\"{key}\" lists {} metrics, the catalog {}",
            have.len(),
            want.len()
        ));
    }
    for (entry, (metric, bound)) in have.iter().zip(want) {
        let text = |k: &str| entry.get(k).and_then(Value::as_str);
        let same = text("name") == Some(metric.name)
            && text("unit") == Some(metric.unit)
            && text("better") == Some(metric.better)
            && entry.get("bound").and_then(Value::as_f64) == *bound;
        if !same {
            return Err(format!(
                "\"{key}\" entry {} does not match the catalog's {}",
                entry.to_line(),
                metric.name
            ));
        }
    }
    Ok(())
}

/// `BENCHMARK.json` names exactly the catalog's workloads and metrics.
pub fn spec_matches_catalog(spec: &Value) -> Result<(), String> {
    let keys: Vec<&str> = spec
        .as_obj()
        .ok_or("BENCHMARK.json is not an object")?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let want_keys = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    if keys != want_keys {
        return Err(format!(
            "BENCHMARK.json has keys {keys:?}, not {want_keys:?}"
        ));
    }
    let workloads = field(spec, "workloads")?
        .as_arr()
        .ok_or("\"workloads\" is not a list")?;
    let named: Vec<(Option<&str>, Option<&str>)> = workloads
        .iter()
        .map(|w| {
            (
                w.get("name").and_then(Value::as_str),
                w.get("why").and_then(Value::as_str),
            )
        })
        .collect();
    let want: Vec<(Option<&str>, Option<&str>)> = WORKLOAD_WHY
        .iter()
        .map(|(n, w)| (Some(*n), Some(*w)))
        .collect();
    if named != want {
        return Err("\"workloads\" does not match the catalog's names and reasons".into());
    }
    let e2e: Vec<(Metric, Option<f64>)> = END_TO_END.iter().map(|(m, b)| (*m, Some(*b))).collect();
    metric_list(spec, "end_to_end", &e2e)?;
    let layers: Vec<(Metric, Option<f64>)> = PER_LAYER.iter().map(|m| (*m, None)).collect();
    metric_list(spec, "per_layer", &layers)
}

/// Every metric the spec names is in `pass` exactly once, and nothing else.
fn emitted_exactly(spec: &Value, key: &str, pass: &PassResult) -> Result<(), String> {
    let wanted: Vec<&str> = field(spec, key)?
        .as_arr()
        .ok_or(format!("\"{key}\" is not a list"))?
        .iter()
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    for name in &wanted {
        let times = pass.metrics.iter().filter(|(m, _)| m.name == *name).count();
        if times != 1 {
            return Err(format!("{name} emitted {times} times"));
        }
    }
    for (m, v) in &pass.metrics {
        if !wanted.contains(&m.name) {
            return Err(format!(
                "{} emitted but not named in BENCHMARK.json",
                m.name
            ));
        }
        if !well_formed_name(m.name) || !v.is_finite() {
            return Err(format!("{} = {v} is malformed", m.name));
        }
    }
    Ok(())
}

/// Run the check; `Err` says what broke.
pub fn run(s: &Settings, spec_text: &str) -> Result<(), String> {
    let spec = json::parse(spec_text)?;
    spec_matches_catalog(&spec)?;
    for workload in WORKLOADS {
        let e2e = orchestrate::end_to_end(s, workload)?;
        emitted_exactly(&spec, "end_to_end", &e2e).map_err(|e| format!("{workload}: {e}"))?;
        let layers = orchestrate::per_layer(s, workload)?;
        emitted_exactly(&spec, "per_layer", &layers).map_err(|e| format!("{workload}: {e}"))?;
        for pass in [&e2e, &layers] {
            if !pass.correct {
                return Err(format!("{workload}: {}", pass.problems.join("; ")));
            }
        }
        let flipped = orchestrate::negative_control(s, workload)?;
        if flipped <= 0.0 {
            return Err(format!("{workload}: a flipped payload byte went unnoticed"));
        }
        println!(
            "check {workload}: {} + {} metrics, self-checks hold, flipped byte gives fail_share {flipped:.2e}",
            e2e.metrics.len(),
            layers.metrics.len()
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        for good in [
            "a",
            "host_us_per_op",
            "engine.phase_eager_virt_p50_ns",
            "9-x",
        ] {
            assert!(well_formed_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".a", "_a", "a b", "a/b", "é", long.as_str()] {
            assert!(!well_formed_name(bad), "{bad}");
        }
    }
}
