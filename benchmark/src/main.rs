//! The repo benchmark. See `README.md` beside this crate.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--out FILE]        all four workloads, both passes
//! benchmark --workload W --seed N --seconds S --trace T  one pass of one workload
//! benchmark --check                                      quick self-test
//! benchmark --compare a.json b.json                      two results files
//! ```

mod alloc;
mod catalog;
mod check;
mod child;
mod compare;
mod json;
mod layers;
mod orchestrate;
mod run;
mod stats;
mod sys;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use json::Value;
use orchestrate::Settings;
use workloads::{Flip, Plan, Scale, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seconds each pass of each workload measures for when all run.
const DEFAULT_SECONDS: f64 = 30.0;

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn values(&self, name: &str, count: usize) -> Result<Option<&[String]>, String> {
        match self.0.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) => self
                .0
                .get(i + 1..i + 1 + count)
                .map(Some)
                .ok_or(format!("{name} takes {count} value(s)")),
        }
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values(name, 1)? {
            None => Ok(default),
            Some(v) => v[0]
                .parse()
                .map_err(|_| format!("{name}: cannot read \"{}\"", v[0])),
        }
    }
}

fn benchmark_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn settings(args: &Args, scale: Scale, default_seconds: f64) -> Result<Settings, String> {
    let seconds: f64 = args.parsed("--seconds", default_seconds)?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    Ok(Settings {
        seed: args.parsed("--seed", 1)?,
        seconds,
        scale,
        out_dir: benchmark_dir().join("out"),
    })
}

/// The measuring child: one repetition, one line of JSON.
fn rep_mode(args: &Args) -> Result<(), String> {
    let workload = &args
        .values("--workload", 1)?
        .ok_or("--rep needs --workload")?[0];
    let scale = if args.flag("--tiny") {
        Scale::Tiny
    } else {
        Scale::Full
    };
    let mut plan = Plan::generate(workload, args.parsed("--seed", 1)?, scale)
        .ok_or(format!("unknown workload {workload}"))?;
    if args.flag("--srq") {
        plan.cfg.srq_depth = Some(256);
    }
    if args.flag("--flip") {
        plan.flip = Some(Flip { rank: 1, round: 1 });
    }
    let traced = args.parsed("--trace", 0u8)? == 1;
    let spans_out = args.values("--spans-out", 1)?.map(|v| PathBuf::from(&v[0]));
    let default_sched = args.flag("--default-sched");
    let report = child::measure(&plan, traced, default_sched, spans_out.as_deref())?;
    println!("{}", report.to_line());
    Ok(())
}

/// The unit-cost child: every microbenchmark, one line of JSON.
fn micro_mode(args: &Args) -> Result<(), String> {
    sys::pin_to_one_cpu()?;
    sys::run_to_block_scheduling();
    let budget = Duration::from_secs_f64(args.parsed("--budget", 1.0)?);
    let costs = layers::run_all(budget);
    println!(
        "{}",
        Value::Obj(costs.into_iter().map(|(k, v)| (k, Value::Num(v))).collect()).to_line()
    );
    Ok(())
}

/// One pass of one workload, as the benchmark contract runs it.
fn workload_mode(args: &Args, workload: &str) -> Result<bool, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload}; there are {WORKLOADS:?}"
        ));
    }
    let s = settings(args, Scale::Full, DEFAULT_SECONDS)?;
    let pass = match args.parsed("--trace", 0u8)? {
        0 => orchestrate::end_to_end(&s, workload)?,
        1 => orchestrate::per_layer(&s, workload)?,
        t => return Err(format!("--trace {t}: 0 or 1")),
    };
    pass.print_metrics(workload);
    println!("{}", pass.result_line());
    Ok(pass.correct)
}

/// All four workloads, both passes, into one results file.
fn all_mode(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let s = settings(args, Scale::Full, DEFAULT_SECONDS)?;
    let out = match args.values("--out", 1)? {
        Some(v) => PathBuf::from(&v[0]),
        None => s.out_dir.join("results.json"),
    };
    let mut correct = true;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let e2e = orchestrate::end_to_end(&s, workload)?;
        e2e.print_metrics(workload);
        let layers = orchestrate::per_layer(&s, workload)?;
        layers.print_metrics(workload);
        correct &= e2e.correct && layers.correct;
        workloads.push((
            workload,
            Value::obj([
                ("end_to_end", e2e.to_json()),
                ("per_layer", layers.to_json()),
            ]),
        ));
    }
    let describe = |m: &catalog::Metric, bound: Option<f64>| {
        Value::obj([
            ("name", Value::str(m.name)),
            ("unit", Value::str(m.unit)),
            ("better", Value::str(m.better)),
            ("source", Value::Str(format!("{:?}", m.source))),
            ("moves", Value::str(m.moves)),
            ("bound", bound.map_or(Value::Null, Value::Num)),
        ])
    };
    let doc = Value::obj([
        (
            "environment",
            Value::obj(
                sys::environment()
                    .into_iter()
                    .map(|(k, v)| (k, Value::Str(v))),
            ),
        ),
        ("seed", Value::Num(s.seed as f64)),
        ("seconds_per_pass", Value::Num(s.seconds)),
        ("wall_s", Value::Num(started.elapsed().as_secs_f64())),
        ("correct", Value::Bool(correct)),
        ("workloads", Value::obj(workloads)),
        (
            "catalog",
            Value::Arr(
                catalog::END_TO_END
                    .iter()
                    .map(|(m, b)| describe(m, Some(*b)))
                    .chain(catalog::PER_LAYER.iter().map(|m| describe(m, None)))
                    .collect(),
            ),
        ),
    ]);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc.to_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(correct)
}

fn check_mode(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let spec = benchmark_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    check::run(&settings(args, Scale::Tiny, 1.0)?, &text)?;
    println!("check passed in {:.1} s", started.elapsed().as_secs_f64());
    Ok(true)
}

fn compare_mode(files: &[String]) -> Result<bool, String> {
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| json::parse(&t).map_err(|e| format!("{path}: {e}")))
    };
    let outcome = compare::compare(&read(&files[0])?, &read(&files[1])?)?;
    for row in &outcome.rows {
        println!("{row}");
    }
    println!("{} worse, {} unresolved", outcome.worse, outcome.unresolved);
    Ok(outcome.worse == 0)
}

fn run(args: &Args) -> Result<bool, String> {
    if args.flag("--rep") {
        return rep_mode(args).map(|()| true);
    }
    if args.flag("--micro") {
        return micro_mode(args).map(|()| true);
    }
    if let Some(files) = args.values("--compare", 2)? {
        return compare_mode(files);
    }
    orchestrate::refuse_perturbing_env()?;
    if args.flag("--check") {
        return check_mode(args);
    }
    match args.values("--workload", 1)? {
        Some(w) => workload_mode(args, &w[0]),
        None => all_mode(args),
    }
}

fn main() -> ExitCode {
    match run(&Args(std::env::args().skip(1).collect())) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
