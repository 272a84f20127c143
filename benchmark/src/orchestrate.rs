//! The parent: spawns one measuring child per repetition, aggregates
//! what they report into the named metrics, and checks that everything
//! that must repeat exactly did.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use crate::catalog::{Metric, END_TO_END, PER_LAYER};
use crate::json::{self, Value};
use crate::stats;
use crate::workloads::{Plan, Scale};

/// Shares of a traced run's `--seconds`: unit costs, the SRQ-vs-ring
/// comparison; the rest rotates untraced, traced and default-scheduler
/// repetitions.
const MICRO_SHARE: f64 = 0.30;
const SRQ_REPS_EACH: usize = 2;

#[derive(Debug, Clone)]
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// Where span files go.
    pub out_dir: PathBuf,
}

/// What one pass over one workload produced.
pub struct PassResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(metric, value)` in catalog order.
    pub metrics: Vec<(Metric, f64)>,
    /// Everything else worth keeping in a results file.
    pub info: Value,
    /// Why `correct` is false.
    pub problems: Vec<String>,
}

impl PassResult {
    /// The contract's result line.
    pub fn result_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(m, v)| {
                            let entry = Value::obj([
                                ("value", Value::Num(*v)),
                                ("unit", Value::str(m.unit)),
                            ]);
                            (m.name.to_string(), entry)
                        })
                        .collect(),
                ),
            ),
        ])
        .to_line()
    }

    pub fn print_metrics(&self, workload: &str) {
        for (m, v) in &self.metrics {
            println!("{workload} {} = {v} {}", m.name, m.unit);
        }
        // Accuracy against the paper's printed numbers, where there is one.
        match self.info.get("virtual").and_then(|v| v.get("paper")) {
            Some(Value::Null) => {
                println!("{workload} paper_err_pct: unvalidated (no reference value)")
            }
            Some(p) => {
                let f = |k: &str| p.get(k).and_then(Value::as_f64).unwrap_or(f64::NAN);
                let unit = p.get("unit").and_then(Value::as_str).unwrap_or("");
                println!(
                    "{workload} paper_err_pct = {} % ({} {unit} here, {} {unit} in the paper)",
                    f("err_pct"),
                    f("measured"),
                    f("reference")
                );
            }
            None => {}
        }
        for p in &self.problems {
            println!("{workload} PROBLEM: {p}");
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|(m, v)| (m.name.to_string(), Value::Num(*v)))
                        .collect(),
                ),
            ),
            ("info", self.info.clone()),
        ])
    }
}

/// Both change the program under test, so no number taken with either
/// set describes it.
pub fn refuse_perturbing_env() -> Result<(), String> {
    for var in ["CHAN_YIELD", "SIM_PROFILE"] {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set: it changes the program under test; unset it"
            ));
        }
    }
    Ok(())
}

/// Run this executable again with `args`, wait for it, and parse the
/// last line of its output.
fn spawn_child(args: &[String]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawning the measuring child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {args:?} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    json::parse(last)
}

/// One child's report of one repetition.
struct RepReport {
    raw: Value,
    setup_s: f64,
    steady_s: f64,
    setup_cpu_s: f64,
    slices_cpu_ns: Vec<f64>,
    /// Whether the child got the run-to-block scheduler it asked for.
    run_to_block: bool,
    attempted: u64,
    bad: u64,
    digest: String,
}

impl RepReport {
    fn num(&self, key: &str) -> f64 {
        self.raw.get(key).and_then(Value::as_f64).unwrap_or(0.0)
    }

    fn layer(&self, key: &str) -> Option<f64> {
        self.raw.get("layer")?.get(key)?.as_f64()
    }
}

struct RepArgs<'a> {
    workload: &'a str,
    traced: bool,
    srq: bool,
    flip: bool,
    /// Leave the child under the operating system's default scheduler.
    default_sched: bool,
    spans_out: Option<PathBuf>,
}

impl RepArgs<'_> {
    /// An untraced repetition of `workload` as the plan has it.
    fn plain(workload: &str) -> RepArgs<'_> {
        RepArgs {
            workload,
            traced: false,
            srq: false,
            flip: false,
            default_sched: false,
            spans_out: None,
        }
    }
}

fn run_one(s: &Settings, a: &RepArgs) -> Result<RepReport, String> {
    let mut args: Vec<String> = vec![
        "--rep".into(),
        "--workload".into(),
        a.workload.into(),
        "--seed".into(),
        s.seed.to_string(),
        "--trace".into(),
        (a.traced as u8).to_string(),
    ];
    if s.scale == Scale::Tiny {
        args.push("--tiny".into());
    }
    if a.srq {
        args.push("--srq".into());
    }
    if a.flip {
        args.push("--flip".into());
    }
    if a.default_sched {
        args.push("--default-sched".into());
    }
    if let Some(p) = &a.spans_out {
        args.extend(["--spans-out".into(), p.display().to_string()]);
    }
    let raw = spawn_child(&args)?;
    let f = |key: &str| {
        raw.get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("child report lacks {key}"))
    };
    Ok(RepReport {
        setup_s: f("setup_s")?,
        steady_s: f("steady_s")?,
        setup_cpu_s: f("setup_cpu_s")?,
        slices_cpu_ns: raw
            .get("slices_cpu_ns")
            .and_then(Value::as_arr)
            .ok_or("child report lacks slices_cpu_ns")?
            .iter()
            .filter_map(Value::as_f64)
            .collect(),
        run_to_block: matches!(raw.get("run_to_block"), Some(Value::Bool(true))),
        attempted: f("attempted")? as u64,
        bad: (f("failed")? + f("corrupt")?) as u64,
        digest: raw
            .get("virtual")
            .and_then(|v| v.get("digest"))
            .and_then(Value::as_str)
            .ok_or("child report lacks the virtual digest")?
            .to_string(),
        raw,
    })
}

/// Sum over slices of the fastest time any repetition took for each
/// (see `Rep::slices_cpu_ns`), in ns.
fn sliced_floor_ns(reps: &[&RepReport]) -> f64 {
    let n = reps[0].slices_cpu_ns.len();
    (0..n)
        .map(|k| {
            reps.iter()
                .map(|r| r.slices_cpu_ns[k])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// The sliced floor of the even-numbered and of the odd-numbered
/// repetitions, as a relative difference: how far the estimate has
/// converged within this run.
fn sliced_split_half_spread(reps: &[RepReport]) -> f64 {
    if reps.len() < 4 {
        return 0.0;
    }
    let half = |parity: usize| {
        let picked: Vec<&RepReport> = reps.iter().skip(parity).step_by(2).collect();
        sliced_floor_ns(&picked)
    };
    let (a, b) = (half(0), half(1));
    (a - b).abs() / a.min(b)
}

/// Repeat until the next repetition would overrun `budget`, within
/// `min..=max` repetitions.
fn repeat(
    budget: Duration,
    min: usize,
    max: usize,
    mut one: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut took: Vec<f64> = Vec::new();
    for i in 0..max {
        // The median, not the longest: one repetition that hit a
        // disturbance must not end the run early.
        if i >= min && start.elapsed().as_secs_f64() + stats::median(&took) > budget.as_secs_f64() {
            break;
        }
        let t = Instant::now();
        one(i)?;
        took.push(t.elapsed().as_secs_f64());
    }
    Ok(())
}

/// Checks every pass makes on its repetitions; returns the problems.
fn exactness_problems(reps: &[&RepReport]) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, r) in reps.iter().enumerate() {
        if r.bad > 0 {
            problems.push(format!(
                "repetition {i}: {} operations failed or payloads corrupt",
                r.bad
            ));
        }
        if r.digest != reps[0].digest || r.attempted != reps[0].attempted {
            problems.push(format!(
                "repetition {i}: virtual time or op count differs from repetition 0"
            ));
        }
    }
    problems
}

/// Without the run-to-block scheduler the numbers are still right but
/// far noisier; say so where a person reads it, not in the result.
fn warn_if_time_shared(rep: &RepReport) {
    if !rep.run_to_block {
        eprintln!(
            "benchmark: SCHED_FIFO refused (needs CAP_SYS_NICE); measuring under the default \
             scheduler, host times will not repeat"
        );
    }
}

fn lookup<'a>(table: impl IntoIterator<Item = &'a Metric>, name: &str) -> Metric {
    *table
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not in the catalog"))
}

fn nums(values: &[f64]) -> Value {
    Value::Arr(values.iter().map(|&v| Value::Num(v)).collect())
}

/// `(fewest, most)` repetitions of a pass: the tiny scale runs exactly
/// the fewest that exercise every code path.
fn rep_limits(s: &Settings, tiny: usize, fewest: usize) -> (usize, usize) {
    if s.scale == Scale::Tiny {
        (tiny, tiny)
    } else {
        (fewest, 500)
    }
}

/// The end-to-end pass: untraced repetitions for `seconds`.
pub fn end_to_end(s: &Settings, workload: &str) -> Result<PassResult, String> {
    let plan = Plan::generate(workload, s.seed, s.scale).ok_or("unknown workload")?;
    let ops = plan.timed_totals().0 as f64;
    let mut reps: Vec<RepReport> = Vec::new();
    let (fewest, most) = rep_limits(s, 1, 3);
    repeat(Duration::from_secs_f64(s.seconds), fewest, most, |_| {
        reps.push(run_one(s, &RepArgs::plain(workload))?);
        Ok(())
    })?;
    let all: Vec<&RepReport> = reps.iter().collect();
    let problems = exactness_problems(&all);
    warn_if_time_shared(&reps[0]);
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_cpu_s).collect();
    let setups_elapsed: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let per_op: Vec<f64> = reps.iter().map(|r| r.steady_s * 1e6 / ops).collect();
    let rss: Vec<f64> = reps.iter().map(|r| r.num("peak_rss_mb")).collect();
    let values = [
        ("setup_s", stats::floor(&setups)),
        ("host_us_per_op", sliced_floor_ns(&all) / 1e3 / ops),
        ("peak_rss_mb", stats::median(&rss)),
    ];
    let table = END_TO_END.iter().map(|(m, _)| m);
    let info = Value::obj([
        ("repetitions", Value::Num(reps.len() as f64)),
        ("timed_ops_per_repetition", Value::Num(ops)),
        (
            "timed_rounds_per_rank",
            Value::Num(plan.timed_rounds().len() as f64),
        ),
        (
            "warmup_rounds_per_rank",
            Value::Num(plan.first_timed as f64),
        ),
        ("ranks", Value::Num(plan.ranks as f64)),
        ("pinned_cpu", Value::Num(reps[0].num("pinned_cpu"))),
        ("run_to_block", Value::Bool(reps[0].run_to_block)),
        ("rep_setup_cpu_s", nums(&setups)),
        ("rep_setup_elapsed_s", nums(&setups_elapsed)),
        ("rep_elapsed_us_per_op", nums(&per_op)),
        (
            "rep_floor_elapsed_us_per_op",
            Value::Num(stats::floor(&per_op)),
        ),
        (
            "split_half_spread",
            Value::obj([
                ("setup_s", Value::Num(stats::split_half_spread(&setups))),
                (
                    "host_us_per_op",
                    Value::Num(sliced_split_half_spread(&reps)),
                ),
                ("peak_rss_mb", Value::Num(0.0)),
            ]),
        ),
        (
            "virtual",
            reps[0].raw.get("virtual").cloned().unwrap_or(Value::Null),
        ),
    ]);
    Ok(PassResult {
        correct: problems.is_empty(),
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.bad).sum(),
        metrics: values
            .iter()
            .map(|(name, v)| (lookup(table.clone(), name), *v))
            .collect(),
        info,
        problems,
    })
}

/// Host us per op of `eager_pp4` with the SRQ receive pool over the same
/// with per-pair rings, each the sliced floor of a few repetitions.
fn srq_over_ring(s: &Settings) -> Result<f64, String> {
    let n = rep_limits(s, 1, SRQ_REPS_EACH).0;
    let mut reps: [Vec<RepReport>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..n {
        for (srq, bucket) in reps.iter_mut().enumerate() {
            let args = RepArgs {
                srq: srq == 1,
                ..RepArgs::plain("eager_pp4")
            };
            bucket.push(run_one(s, &args)?);
        }
    }
    let floor = |bucket: &Vec<RepReport>| sliced_floor_ns(&bucket.iter().collect::<Vec<_>>());
    Ok(floor(&reps[1]) / floor(&reps[0]))
}

/// The traced pass: unit costs, then untraced, traced and
/// default-scheduler repetitions in rotation. Its numbers never enter an
/// end-to-end metric.
pub fn per_layer(s: &Settings, workload: &str) -> Result<PassResult, String> {
    let plan = Plan::generate(workload, s.seed, s.scale).ok_or("unknown workload")?;
    let ops = plan.timed_totals().0 as f64;
    let started = Instant::now();

    let micro_budget = if s.scale == Scale::Tiny {
        0.4
    } else {
        s.seconds * MICRO_SHARE
    };
    let micro = spawn_child(&[
        "--micro".into(),
        "--budget".into(),
        micro_budget.to_string(),
    ])?;
    let srq_ratio = srq_over_ring(s)?;

    // Untraced and traced repetitions measure like the end-to-end pass;
    // the third kind runs untraced under the default scheduler, as a
    // user of `repro` does: what a single run costs them, and how far
    // from the repeatable figure it lands.
    let [mut plain, mut traced, mut time_shared]: [Vec<RepReport>; 3] = Default::default();
    let left = Duration::from_secs_f64(s.seconds).saturating_sub(started.elapsed());
    let (fewest, most) = rep_limits(s, 3, 6);
    repeat(left, fewest, most, |i| {
        let is_traced = i % 3 == 1;
        let spans_out = (is_traced && traced.is_empty())
            .then(|| s.out_dir.join(format!("trace_{workload}.json")));
        let args = RepArgs {
            traced: is_traced,
            default_sched: i % 3 == 2,
            spans_out,
            ..RepArgs::plain(workload)
        };
        let rep = run_one(s, &args)?;
        [&mut plain, &mut traced, &mut time_shared][i % 3].push(rep);
        Ok(())
    })?;
    let all: Vec<&RepReport> = traced.iter().chain(&plain).chain(&time_shared).collect();
    let mut problems = exactness_problems(&all);
    let plain_refs: Vec<&RepReport> = plain.iter().collect();
    let traced_refs: Vec<&RepReport> = traced.iter().collect();
    let host_ns_per_op = sliced_floor_ns(&plain_refs) / ops;
    let per_op: Vec<f64> = time_shared
        .iter()
        .map(|r| r.steady_s * 1e6 / ops)
        .collect();
    let floor = host_ns_per_op / 1e3;
    let over_plain =
        |f: &dyn Fn(&RepReport) -> f64| stats::median(&plain.iter().map(f).collect::<Vec<f64>>());
    let unit = |name: &str| {
        micro
            .get(name)
            .and_then(Value::as_f64)
            .ok_or(format!("the unit-cost child did not report {name}"))
    };
    let count = |name: &str| {
        let v: Vec<f64> = traced.iter().filter_map(|r| r.layer(name)).collect();
        if v.len() == traced.len() {
            Ok(stats::median(&v))
        } else {
            Err(format!("a traced child did not report {name}"))
        }
    };
    let virt = |key: &str| {
        traced[0]
            .raw
            .get("virtual")
            .and_then(|v| v.get(key))
            .and_then(Value::as_f64)
            .ok_or(format!("child report lacks virtual.{key}"))
    };

    // What the layers below the engine explain of one op's host time:
    // counts times unit costs. The rest is the engine's own code plus
    // the hand-offs of the rank processes, which no public counter
    // counts; splitting it needs timers inside the program.
    let registrations =
        count("dcfa.mr_registered_per_op")? + count("dcfa.offload_registered_per_op")?;
    let model_terms = [
        (
            "verbs: work requests x post_send_ns",
            count("raw.ib_transfers_per_op")? * unit("verbs.post_send_ns")?,
        ),
        (
            "fabric: wire bytes / copy_gbs",
            count("raw.ib_bytes_per_op")? / unit("fabric.copy_gbs")?,
        ),
        (
            "dcfa: offload sync MiB x sync_offload_host_ns_per_mib",
            count("raw.sync_bytes_per_op")? / (1 << 20) as f64
                * unit("dcfa.sync_offload_host_ns_per_mib")?,
        ),
        (
            "dcfa: registrations x reg_dereg_host_ns",
            registrations * unit("dcfa.reg_dereg_host_ns")?,
        ),
        (
            "scif: other commands x msg_roundtrip_host_ns",
            (count("dcfa.commands_per_op")? - 2.0 * registrations).max(0.0)
                * unit("scif.msg_roundtrip_host_ns")?,
        ),
        (
            "harness: stamping and verifying payloads",
            count("harness.verify_host_share")? * host_ns_per_op,
        ),
    ];
    let explained: f64 = model_terms.iter().map(|(_, ns)| ns).sum::<f64>() / host_ns_per_op;

    let mut metrics = Vec::new();
    for m in PER_LAYER {
        let value = match (m.name, m.source) {
            ("virt_iter_p50_ns", _) => virt("p50_ns")?,
            ("virt_iter_p99_ns", _) => virt("tail_ns")?,
            ("virt_bandwidth_gbs", _) => virt("bandwidth_gbs")?,
            ("fail_share", _) => {
                all.iter().map(|r| r.bad).sum::<u64>() as f64
                    / all.iter().map(|r| r.attempted).sum::<u64>() as f64
            }
            ("simcore.ctx_switches_per_event", _) => {
                over_plain(&|r| r.num("ctx_switches") / r.num("events"))
            }
            ("simcore.sys_share", _) => {
                over_plain(&|r| r.num("sys_s") / (r.num("sys_s") + r.num("user_s")))
            }
            ("simcore.slow_rep_share", _) => {
                per_op.iter().filter(|&&v| v > 2.0 * floor).count() as f64 / per_op.len() as f64
            }
            ("simcore.rep_median_over_floor", _) => stats::median(&per_op) / floor,
            ("engine.srq_over_ring_host_ratio", _) => srq_ratio,
            ("trace.host_overhead_pct", _) => {
                100.0 * (sliced_floor_ns(&traced_refs) / sliced_floor_ns(&plain_refs) - 1.0)
            }
            ("harness.elapsed_over_cpu", _) => over_plain(&|r| {
                let cpu_s = r.setup_cpu_s + r.slices_cpu_ns.iter().sum::<f64>() / 1e9;
                (r.setup_s + r.steady_s) / cpu_s
            }),
            ("harness.rep_host_median_us_per_op", _) => stats::median(&per_op),
            ("harness.rep_host_iqr_pct", _) => stats::iqr_pct(&per_op),
            ("harness.model_explained_share", _) => explained,
            (name, crate::catalog::Source::UnitCost) => unit(name)?,
            (name, _) => count(name)?,
        };
        metrics.push((*m, value));
    }

    for m in PER_LAYER {
        let first = traced[0].layer(m.name);
        let exact = m.source == crate::catalog::Source::Count;
        if exact && first.is_some() && traced.iter().any(|r| r.layer(m.name) != first) {
            problems.push(format!("{} differs between traced repetitions", m.name));
        }
    }

    let get = |name: &str| {
        metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|(_, v)| *v)
    };
    let mut expect = |what: &str, ok: bool| {
        if !ok {
            problems.push(format!("self-check failed: {what}"));
        }
    };
    expect(
        "engine.retries_per_op = 0",
        get("engine.retries_per_op") == Some(0.0),
    );
    expect(
        "dcfa.cmd_retries_per_op = 0",
        get("dcfa.cmd_retries_per_op") == Some(0.0),
    );
    let hit = get("mrcache.hit_ratio").unwrap_or(-1.0);
    match workload {
        "eager_pp4" => expect(
            "engine.eager_share = 1",
            get("engine.eager_share") == Some(1.0),
        ),
        "rndv_stream4" => expect("mrcache.hit_ratio > 0.95", hit > 0.95),
        "mr_churn4" => expect("mrcache.hit_ratio < 0.05", (0.0..0.05).contains(&hit)),
        _ => {}
    }

    let info = Value::obj([
        ("traced_repetitions", Value::Num(traced.len() as f64)),
        ("untraced_repetitions", Value::Num(plain.len() as f64)),
        (
            "default_scheduler_repetitions",
            Value::Num(time_shared.len() as f64),
        ),
        ("default_scheduler_rep_elapsed_us_per_op", nums(&per_op)),
        (
            "virtual",
            traced[0].raw.get("virtual").cloned().unwrap_or(Value::Null),
        ),
        ("untraced_host_us_per_op", Value::Num(host_ns_per_op / 1e3)),
        (
            "model_ns_per_op",
            Value::obj(model_terms.iter().map(|(k, v)| (*k, Value::Num(*v)))),
        ),
        ("model_unexplained_share", Value::Num(1.0 - explained)),
        (
            "span_file",
            Value::str(
                s.out_dir
                    .join(format!("trace_{workload}.json"))
                    .display()
                    .to_string(),
            ),
        ),
    ]);
    Ok(PassResult {
        correct: problems.is_empty(),
        attempted: all.iter().map(|r| r.attempted).sum(),
        failed: all.iter().map(|r| r.bad).sum(),
        metrics,
        info,
        problems,
    })
}

/// Negative control: one repetition with one received byte flipped
/// before verification. Returns its `fail_share`, which must not be 0.
pub fn negative_control(s: &Settings, workload: &str) -> Result<f64, String> {
    let args = RepArgs {
        flip: true,
        ..RepArgs::plain(workload)
    };
    let r = run_one(s, &args)?;
    Ok(r.bad as f64 / r.attempted as f64)
}
