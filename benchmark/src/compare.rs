//! `--compare a.json b.json`: two results files of this benchmark, one
//! row per workload and end-to-end metric, and an exact comparison of
//! everything that must repeat bit for bit.

use crate::catalog::{Source, END_TO_END, PER_LAYER};
use crate::json::Value;
use crate::workloads::WORKLOADS;

#[derive(Debug, PartialEq)]
pub struct Outcome {
    pub rows: Vec<String>,
    pub worse: usize,
    pub unresolved: usize,
}

fn pass<'a>(file: &'a Value, workload: &str, pass: &str) -> Result<&'a Value, String> {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get(pass))
        .ok_or(format!("results file lacks {workload}.{pass}"))
}

fn metric(pass: &Value, name: &str) -> Result<f64, String> {
    pass.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(Value::as_f64)
        .ok_or(format!("results file lacks metric {name}"))
}

fn spread(pass: &Value, name: &str) -> f64 {
    pass.get("info")
        .and_then(|i| i.get("split_half_spread"))
        .and_then(|s| s.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// `b` against `a` (the baseline).
pub fn compare(a: &Value, b: &Value) -> Result<Outcome, String> {
    let mut out = Outcome {
        rows: vec![format!(
            "{:<13} {:<16} {:>12} {:>12} {:>8} {:>6} {:>7}  status",
            "workload", "metric", "a", "b", "delta%", "bound%", "spread%"
        )],
        worse: 0,
        unresolved: 0,
    };
    for workload in WORKLOADS {
        let (pa, pb) = (
            pass(a, workload, "end_to_end")?,
            pass(b, workload, "end_to_end")?,
        );
        for (m, bound) in END_TO_END {
            let (va, vb) = (metric(pa, m.name)?, metric(pb, m.name)?);
            let worsening = if m.better == "lower" {
                vb / va - 1.0
            } else {
                va / vb - 1.0
            };
            let noise = spread(pa, m.name).max(spread(pb, m.name));
            let status = if noise > *bound {
                out.unresolved += 1;
                "unresolved"
            } else if worsening > *bound {
                out.worse += 1;
                "worse"
            } else {
                "ok"
            };
            out.rows.push(format!(
                "{workload:<13} {:<16} {va:>12.5} {vb:>12.5} {:>+8.2} {:>6.1} {:>7.2}  {status}",
                m.name,
                100.0 * (vb / va - 1.0),
                100.0 * bound,
                100.0 * noise,
            ));
        }
    }
    // Virtual time, counts and fail_share: deterministic, so any
    // difference between two runs with one seed is a change in behaviour.
    let mut compared = 0;
    for workload in WORKLOADS {
        let (pa, pb) = (
            pass(a, workload, "per_layer")?,
            pass(b, workload, "per_layer")?,
        );
        for m in PER_LAYER.iter().filter(|m| m.source == Source::Count) {
            let (va, vb) = (metric(pa, m.name)?, metric(pb, m.name)?);
            compared += 1;
            if va.to_bits() != vb.to_bits() {
                out.worse += 1;
                out.rows.push(format!(
                    "{workload:<13} {} differs: {va} vs {vb}  worse",
                    m.name
                ));
            }
        }
        let digest = |p: &Value| {
            p.get("info")
                .and_then(|i| i.get("virtual"))
                .and_then(|v| v.get("digest"))
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        compared += 1;
        if digest(pa) != digest(pb) || digest(pa).is_none() {
            out.worse += 1;
            out.rows
                .push(format!("{workload:<13} virtual-time digest differs  worse"));
        }
    }
    out.rows.push(format!(
        "{compared} exact values (virtual time, counts, fail_share) compared bit for bit"
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// A results file where every end-to-end metric is `e2e`, every
    /// exact metric `exact`, and the floor's split-half spread `spread`.
    fn results(e2e: f64, exact: f64, spread: f64) -> Value {
        let metrics =
            |names: Vec<&str>, v: f64| Value::obj(names.into_iter().map(|n| (n, Value::Num(v))));
        let one = Value::obj([
            (
                "end_to_end",
                Value::obj([
                    (
                        "metrics",
                        metrics(END_TO_END.iter().map(|(m, _)| m.name).collect(), e2e),
                    ),
                    (
                        "info",
                        parse(&format!(
                            r#"{{"split_half_spread": {{"host_us_per_op": {spread}}}}}"#
                        ))
                        .unwrap(),
                    ),
                ]),
            ),
            (
                "per_layer",
                Value::obj([
                    (
                        "metrics",
                        metrics(PER_LAYER.iter().map(|m| m.name).collect(), exact),
                    ),
                    ("info", parse(r#"{"virtual": {"digest": "00ff"}}"#).unwrap()),
                ]),
            ),
        ]);
        Value::obj([("workloads", Value::obj(WORKLOADS.map(|w| (w, one.clone()))))])
    }

    #[test]
    fn within_bound_is_ok_beyond_is_worse() {
        let base = results(100.0, 3.0, 0.0);
        let same = compare(&base, &results(104.0, 3.0, 0.0)).unwrap();
        assert_eq!((same.worse, same.unresolved), (0, 0));
        // +12 % breaks peak_rss_mb's 10 % bound on each workload only.
        let rss = compare(&base, &results(112.0, 3.0, 0.0)).unwrap();
        assert_eq!((rss.worse, rss.unresolved), (4, 0));
        // Faster is never worse.
        let faster = compare(&base, &results(50.0, 3.0, 0.0)).unwrap();
        assert_eq!(faster.worse, 0);
    }

    #[test]
    fn wide_spread_is_unresolved_and_exact_values_must_match() {
        let base = results(100.0, 3.0, 0.0);
        let noisy = compare(&base, &results(100.0, 3.0, 0.5)).unwrap();
        assert_eq!((noisy.worse, noisy.unresolved), (0, 4));
        let drift = compare(&base, &results(100.0, 3.0000001, 0.0)).unwrap();
        let exact = PER_LAYER
            .iter()
            .filter(|m| m.source == Source::Count)
            .count();
        assert_eq!(drift.worse, 4 * exact);
        assert!(compare(&base, &Value::Null).is_err());
    }
}
