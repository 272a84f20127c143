//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro all            # everything (a few minutes in release mode)
//! repro table1         # server architecture (Table I analogue)
//! repro fig5           # RDMA-write bandwidth by direction
//! repro fig7 | fig8    # non-blocking RTT / bandwidth (offload buffer)
//! repro fig9           # DCFA-MPI vs Intel-MPI-on-Phi bandwidth
//! repro table2 fig10   # communication-only app
//! repro table3 fig11 fig12   # five-point stencil
//! repro --quick all    # reduced sweeps (for smoke testing)
//! repro --stats        # per-protocol counters of a traced 4-rank run
//! repro --trace        # tail of the protocol event ring + audit verdict
//! repro --faults SPEC [--srq]
//!                      # fault-soak the 4-rank run; SPEC is a comma list
//!                      # of <after>:<kind>[@<src>-><dst>] fault plans,
//!                      # e.g. "2:transient,9:fatal@0->1". --srq runs it
//!                      # on the shared-receive-queue pool (CI variant)
//! repro --daemon-faults SPEC
//!                      # control-plane chaos soak: crash/drop/delay the
//!                      # delegation daemons; SPEC is a comma list of
//!                      # <after>:<kind>[@<node>] plans, e.g.
//!                      # "6:crash,20:drop@1,35:delay"
//! repro --metrics-json PATH
//!                      # run the profiled 4-rank mixed workload and write
//!                      # the versioned JSON performance report to PATH
//! repro --compare-metrics BASELINE [--tolerance PCT]
//!                      # diff the current run against a saved report;
//!                      # exits 1 if p99/bandwidth drift beyond PCT
//!                      # (default 25), 2 if a report cannot be parsed
//! repro --ranks N [--no-srq]
//!                      # audited neighbor-halo fault soak at N ranks (one
//!                      # per node); SRQ receive pooling is on unless
//!                      # --no-srq. Gates: auditor OK, 0 corrupt payloads,
//!                      # established pairs O(ranks), per-rank buffer
//!                      # memory under a flat ceiling. Exits 1 on any
//!                      # violation.
//! repro --scale-curve PATH [--no-srq]
//!                      # sweep ranks 8/16/32/64, write the memory-per-rank
//!                      # curve to PATH as CSV, and gate sub-quadratic
//!                      # growth of pairs and buffer bytes
//! repro --kill SPEC [--ranks N] [--no-srq]
//!                      # rank-death soak at N ranks (default 64): SPEC is
//!                      # a comma list of <after_ops>:<rank> fail-stop
//!                      # kills, e.g. "10:7,25:31,40:12,55:50". Survivors
//!                      # must detect, revoke, shrink to the same world and
//!                      # complete a verified exchange on it; exits 1 on
//!                      # any violation. --metrics-json / --compare-metrics
//!                      # apply to this run's report (with its `failures`
//!                      # section) instead of the 4-rank profile
//! repro --chaos [--seed N] [--ranks N] [--no-srq]
//!                      # deterministic chaos fuzzing: sample a kill
//!                      # schedule from the seed, soak it twice (replay
//!                      # must be bit-for-bit identical), gate the outcome,
//!                      # and on a failure print the greedily shrunk
//!                      # minimal reproducer in --kill syntax
//! repro --trace-out PATH.json
//!                      # export the traced run as Chrome/Perfetto
//!                      # trace-event JSON (one track per rank, flow
//!                      # arrows along causal edges); self-validated
//!                      # against the trace-event schema before writing.
//!                      # Applies to the kill soak with --kill, else to
//!                      # the 4-rank mixed run
//! repro --explain-msg RANK:SEQ
//!                      # print the cross-rank causal timeline of every
//!                      # message sent by RANK with pair sequence SEQ
//!                      # (same run selection as --trace-out)
//! ```
//!
//! An unknown `--flag`, or a value flag with its value missing, prints the
//! offender and exits 2.

use bench::{
    ablation_eager_threshold, ablation_host_staged_bcast, ablation_mr_cache,
    ablation_offload_threshold, ablation_rndv_skew, fig10, fig11_fig12, fig5, fig7_fig8, fig9,
    fig9_small_rtt, print_series, write_series_csv, write_stencil_csv,
};
use fabric::ClusterConfig;

/// Flags that consume the next argument as their value.
const VALUE_FLAGS: &[&str] = &[
    "--csv",
    "--faults",
    "--daemon-faults",
    "--metrics-json",
    "--compare-metrics",
    "--tolerance",
    "--ranks",
    "--scale-curve",
    "--kill",
    "--seed",
    "--trace-out",
    "--explain-msg",
];

/// Flags that stand alone.
const BOOL_FLAGS: &[&str] = &[
    "--quick", "--stats", "--trace", "--srq", "--no-srq", "--chaos",
];

/// The command line split against the two flag tables; everything that is
/// not a flag or a flag's value is a table/figure selector.
struct Args {
    values: Vec<(&'static str, String)>,
    bools: Vec<&'static str>,
    wanted: Vec<String>,
}

impl Args {
    fn scan(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            values: Vec::new(),
            bools: Vec::new(),
            wanted: Vec::new(),
        };
        let mut args = args.into_iter().peekable();
        while let Some(a) = args.next() {
            if let Some(flag) = VALUE_FLAGS.iter().find(|f| **f == a) {
                match args.next_if(|v| !v.starts_with("--")) {
                    Some(v) => out.values.push((flag, v)),
                    None => return Err(format!("{flag} needs a value")),
                }
            } else if let Some(flag) = BOOL_FLAGS.iter().find(|f| **f == a) {
                out.bools.push(flag);
            } else if a.starts_with("--") {
                return Err(format!("unknown flag {a}"));
            } else {
                out.wanted.push(a);
            }
        }
        Ok(out)
    }

    fn value(&self, flag: &str) -> Option<&String> {
        self.values.iter().find(|(f, _)| *f == flag).map(|(_, v)| v)
    }

    fn has(&self, flag: &str) -> bool {
        self.bools.contains(&flag)
    }

    /// Parse `flag`'s value with `parse`, exiting 2 with `expected` in the
    /// message when it does not parse.
    fn parsed<T>(
        &self,
        flag: &str,
        expected: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Option<T> {
        self.value(flag).map(|s| {
            parse(s).unwrap_or_else(|| {
                eprintln!("bad {flag} {s:?}: expected {expected}");
                std::process::exit(2);
            })
        })
    }
}

fn main() {
    let args = match Args::scan(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repro: {e} (see the usage header of crates/bench/src/bin/repro.rs)");
            std::process::exit(2);
        }
    };
    let quick = args.has("--quick");
    // `--csv DIR` additionally writes figN.csv data files into DIR.
    let csv_dir = args.value("--csv").map(std::path::PathBuf::from);
    if let Some(d) = &csv_dir {
        std::fs::create_dir_all(d).expect("cannot create csv dir");
    }
    // `--faults SPEC` runs the fault-injection soak instead of a sweep.
    let fault_spec = args.value("--faults");
    // `--daemon-faults SPEC` runs the control-plane chaos soak.
    let daemon_fault_spec = args.value("--daemon-faults");
    // `--metrics-json PATH` writes the versioned JSON performance report.
    let metrics_json = args.value("--metrics-json");
    // `--compare-metrics BASELINE` gates the current run against a saved
    // report, at `--tolerance PCT` (default 25%).
    let compare_metrics = args.value("--compare-metrics");
    let tolerance: f64 = args
        .parsed("--tolerance", "a non-negative percentage", |s| {
            s.parse().ok().filter(|v| *v >= 0.0)
        })
        .unwrap_or(25.0);
    // `--ranks N [--no-srq]` runs the audited scale soak.
    let scale_ranks: Option<usize> = args.parsed("--ranks", "a positive integer", |s| {
        s.parse().ok().filter(|v| *v >= 1)
    });
    let scale_srq = !args.has("--no-srq");
    // `--srq` moves the 4-rank `--faults` soak onto the SRQ pool.
    let fault_srq = args.has("--srq");
    // `--kill SPEC` runs the rank-death soak; `--chaos [--seed N]` the
    // deterministic chaos fuzzer. Both default to 64 ranks.
    let kill_spec = args.value("--kill");
    let chaos = args.has("--chaos");
    let seed: u64 = args
        .parsed("--seed", "an unsigned integer", |s| s.parse().ok())
        .unwrap_or(1);
    // `--scale-curve PATH` sweeps rank counts and writes the memory curve.
    let scale_curve = args.value("--scale-curve");
    // `--trace-out PATH.json` exports the traced run as Perfetto
    // trace-event JSON; `--explain-msg RANK:SEQ` prints one message's
    // cross-rank causal timeline. Both apply to the kill soak when
    // `--kill` is given, otherwise to the 4-rank mixed run.
    let trace_out = args.value("--trace-out");
    let explain_msg: Option<(usize, u64)> = args.parsed("--explain-msg", "<rank>:<seq>", |s| {
        let (r, q) = s.split_once(':')?;
        Some((r.trim().parse().ok()?, q.trim().parse().ok()?))
    });
    let wanted = &args.wanted;
    let show_stats = args.has("--stats");
    let show_trace = args.has("--trace");
    // A bare `repro --stats` / `--trace` / `--faults` / `--daemon-faults`
    // / `--metrics-json` / `--compare-metrics` runs only that report, not
    // the full figure sweep.
    let all = wanted.iter().any(|w| w == "all")
        || (wanted.is_empty()
            && !show_stats
            && !show_trace
            && !chaos
            && fault_spec.is_none()
            && daemon_fault_spec.is_none()
            && metrics_json.is_none()
            && compare_metrics.is_none()
            && scale_ranks.is_none()
            && scale_curve.is_none()
            && kill_spec.is_none()
            && trace_out.is_none()
            && explain_msg.is_none());
    let want = |k: &str| all || wanted.iter().any(|w| w == k);

    if let Some(spec) = kill_spec {
        kill_soak(
            spec,
            scale_ranks.unwrap_or(64),
            scale_srq,
            metrics_json,
            compare_metrics,
            tolerance,
            trace_out,
            explain_msg,
        );
    } else if let Some(ranks) = scale_ranks {
        // With `--chaos`, `--ranks` parameterizes the fuzzer instead.
        if !chaos {
            scale_soak(ranks, scale_srq);
        }
    }
    if chaos {
        chaos_fuzz(seed, scale_ranks.unwrap_or(64), scale_srq);
    }
    if let Some(path) = scale_curve {
        scale_curve_sweep(path, scale_srq);
    }
    if let Some(spec) = fault_spec {
        fault_soak(spec, fault_srq);
    }
    if let Some(spec) = daemon_fault_spec {
        daemon_fault_soak(spec);
    }
    // `--trace-out` / `--explain-msg` without `--kill` attach to the same
    // traced 4-rank run `--stats` and `--trace` report on.
    if show_stats
        || show_trace
        || (kill_spec.is_none() && (trace_out.is_some() || explain_msg.is_some()))
    {
        observability(
            show_stats,
            show_trace,
            kill_spec.is_none().then_some(trace_out).flatten(),
            if kill_spec.is_none() {
                explain_msg
            } else {
                None
            },
        );
    }
    // The kill soak consumes `--metrics-json` / `--compare-metrics` itself
    // (its report carries the `failures` section).
    if (metrics_json.is_some() || compare_metrics.is_some()) && kill_spec.is_none() {
        metrics_report(metrics_json, compare_metrics, tolerance);
    }

    let ccfg = ClusterConfig::paper();
    let max_pow = if quick { 18 } else { 22 }; // 256 KiB or 4 MiB sweeps
    let (sn, siters) = if quick { (258, 10) } else { (1282, 100) };

    if want("table1") {
        println!("== Table I: simulated server architecture ==");
        println!("{ccfg}");
    }

    if want("fig5") {
        let series = fig5(&ccfg, max_pow);
        print_series(
            "Figure 5: InfiniBand RDMA-write bandwidth by transfer direction",
            "GB/s",
            &series,
        );
        if let Some(d) = &csv_dir {
            write_series_csv(&d.join("fig5.csv"), &series).expect("csv write");
        }
    }

    if want("fig7") || want("fig8") {
        let (rtt, bw) = fig7_fig8(&ccfg, max_pow);
        if want("fig7") {
            print_series(
                "Figure 7: non-blocking inter-node RTT (MPI_Isend/MPI_Irecv)",
                "us",
                &rtt,
            );
            if let Some(d) = &csv_dir {
                write_series_csv(&d.join("fig7.csv"), &rtt).expect("csv write");
            }
        }
        if want("fig8") {
            print_series("Figure 8: non-blocking inter-node bandwidth", "GB/s", &bw);
            if let Some(d) = &csv_dir {
                write_series_csv(&d.join("fig8.csv"), &bw).expect("csv write");
            }
        }
    }

    if want("fig9") {
        let series = fig9(&ccfg, max_pow);
        print_series(
            "Figure 9: blocking ping-pong bandwidth, DCFA-MPI vs Intel MPI on Xeon Phi",
            "GB/s",
            &series,
        );
        let (d, i) = fig9_small_rtt(&ccfg);
        println!("4-byte blocking RTT: DCFA-MPI {d:.1} us (paper: 15), Intel-MPI-on-Phi {i:.1} us (paper: 28)");
        if let Some(dir) = &csv_dir {
            write_series_csv(&dir.join("fig9.csv"), &series).expect("csv write");
        }
    }

    if want("table2") {
        println!("\n== Table II: communication-only data volume per iteration ==");
        println!("{:>12} | {:<40}", "Data size", "X bytes");
        println!(
            "{:>12} | {:<40}",
            "Offloading", "Copy In X + Copy Out X (offload mode only)"
        );
        println!("{:>12} | {:<40}", "MPI", "Send X + Receive X");
    }

    if want("fig10") {
        let series = fig10(&ccfg, max_pow);
        print_series(
            "Figure 10: communication-only app, per-iteration time",
            "us",
            &series,
        );
        if let Some(dir) = &csv_dir {
            write_series_csv(&dir.join("fig10.csv"), &series).expect("csv write");
        }
        if let (Some(d), Some(o)) = (series.first(), series.get(1)) {
            let first = o.points[0].1 / d.points[0].1;
            let last = o.points.last().unwrap().1 / d.points.last().unwrap().1;
            println!("speed-up of DCFA-MPI: {first:.1}x at {}B (paper: ~12x) .. {last:.1}x at {}B (paper: ~2x)",
                d.points[0].0, d.points.last().unwrap().0);
        }
    }

    if want("table3") {
        let p = apps::StencilParams::paper(8, 56);
        println!(
            "\n== Table III: five-point stencil data sizes (n = {}) ==",
            p.n
        );
        println!("{:>22} | {:>12}", "Problem size", format!("{0} x {0}", p.n));
        println!(
            "{:>22} | {:>12}",
            "Computing data",
            format!("{:.1} MB", p.grid_bytes() as f64 / 1e6)
        );
        println!(
            "{:>22} | {:>12}",
            "Offloading data",
            format!("2 x {:.1} KB", p.halo_bytes() as f64 / 1e3)
        );
        println!(
            "{:>22} | {:>12}",
            "MPI data",
            format!("2 x {:.1} KB", p.halo_bytes() as f64 / 1e3)
        );
    }

    if want("fig11") || want("fig12") {
        let procs: &[usize] = &[1, 2, 4, 8];
        let threads: &[u32] = if quick {
            &[1, 8, 56]
        } else {
            &[1, 4, 8, 16, 28, 56]
        };
        let (serial_us, cells) = fig11_fig12(&ccfg, sn, siters, procs, threads);
        println!(
            "\n== Figures 11/12: five-point stencil, n = {sn}, {siters} iterations (serial: {:.1} us/iter) ==",
            serial_us
        );
        println!(
            "{:>30} {:>6} {:>8} {:>14} {:>10}",
            "runtime", "procs", "threads", "us/iter", "speedup"
        );
        for c in &cells {
            println!(
                "{:>30} {:>6} {:>8} {:>14.1} {:>10.1}",
                c.runtime, c.procs, c.threads, c.iter_us, c.speedup_vs_serial
            );
        }
        // Headline numbers (paper: 117x / 113x / 74x at 8 procs x 56 threads).
        let headline: Vec<_> = cells
            .iter()
            .filter(|c| c.procs == 8 && c.threads == *threads.last().unwrap())
            .collect();
        println!(
            "\nheadline @ 8 procs x {} threads:",
            threads.last().unwrap()
        );
        for c in headline {
            println!("  {:<30} {:>7.1}x", c.runtime, c.speedup_vs_serial);
        }
        if let Some(dir) = &csv_dir {
            write_stencil_csv(&dir.join("fig11_12.csv"), &cells).expect("csv write");
        }
    }

    if want("ablations") {
        println!("\n== Ablations (design choices, DESIGN.md §6) ==");
        println!("offloading-send-buffer threshold sweep @256 KiB message (RTT us):");
        for (thr, us) in ablation_offload_threshold(&ccfg, 256 << 10) {
            let label = if thr == u64::MAX {
                "off".to_string()
            } else {
                format!("{}K", thr >> 10)
            };
            println!("  threshold {label:>5}: {us:>10.1} us");
        }
        let (with_us, without_us) = ablation_mr_cache(&ccfg, 1 << 20);
        println!("MR cache pool @1 MiB rendezvous: with {with_us:.1} us, without {without_us:.1} us ({:.2}x)",
            without_us / with_us);
        println!("eager-threshold sweep @8 KiB message (RTT us):");
        for (thr, us) in ablation_eager_threshold(&ccfg, 8 << 10) {
            println!("  eager <= {:>4}K: {us:>10.1} us", thr >> 10);
        }
        let (rf, sf) = ablation_rndv_skew(&ccfg, 512 << 10);
        println!("rendezvous skew @512 KiB: receiver-first {rf:.1} us, sender-first {sf:.1} us");
        let (plain, staged) = ablation_host_staged_bcast(&ccfg, 2 << 20);
        println!("host-staged bcast @2 MiB x 8 ranks (future work §VI): plain {plain:.1} us, staged {staged:.1} us ({:.2}x)",
            plain / staged);
    }
}

/// The transient link faults every scale soak runs under: enough churn to
/// exercise retry and reorder handling at rank counts the 4-rank suites
/// never reach, but nothing fatal — every operation must still succeed.
const SCALE_FAULT_SPEC: &str = "7:transient,23:retry,61:transient";

/// `--ranks N [--no-srq]`: the audited neighbor-halo fault
/// soak at scale. Prints the scale counters and exits 1 if the auditor
/// objects, a payload was corrupted, an operation failed, connections grew
/// past the touched O(ranks) neighbor set, or per-rank buffer memory broke
/// its flat ceiling.
fn scale_soak(ranks: usize, srq: bool) {
    // 4 ring neighbors per rank, doubled for slack (boot-order effects).
    let max_pairs = ranks as u64 * 8;
    // One shared receive pool + a handful of per-neighbor stage rings;
    // independent of the rank count.
    let max_bytes_per_rank: u64 = 16 << 20;
    let faults = fabric::parse_fault_spec(SCALE_FAULT_SPEC).expect("builtin fault spec");
    println!(
        "== scale soak: {ranks} ranks, SRQ {}, {} transient fault plan(s) ==",
        if srq { "on" } else { "off" },
        faults.len()
    );
    let run = bench::scale_run(ranks, srq, &faults);
    println!(
        "virtual time {:.1} ms | wall {:.1} ms | {} events",
        run.elapsed_ns as f64 / 1e6,
        run.wall_ns as f64 / 1e6,
        run.sim_events
    );
    println!(
        "operations: {} completed, {} failed, {} corrupted payloads",
        run.ops_ok, run.ops_failed, run.corrupt
    );
    println!(
        "pairs established: {} total, {} max per rank (full mesh would be {})",
        run.established_pairs(),
        run.max_pairs_per_rank(),
        ranks as u64 * (ranks as u64 - 1)
    );
    println!(
        "comm buffer bytes per rank: {} max | srq pool high-water: {} slot(s)",
        run.bytes_per_rank(),
        run.srq_highwater()
    );
    let mut bad = false;
    match &run.audit {
        Ok(report) => println!("auditor: OK — {report:?}"),
        Err(errors) => {
            println!("auditor: {} invariant violations", errors.len());
            for e in errors.iter().take(20) {
                println!("  {e}");
            }
            bad = true;
        }
    }
    if run.dropped > 0 {
        println!(
            "FAIL: trace ring dropped {} events (audit unbound)",
            run.dropped
        );
        bad = true;
    }
    if run.corrupt > 0 || run.ops_failed > 0 {
        println!(
            "FAIL: {} corrupt payloads, {} failed operations under transient faults",
            run.corrupt, run.ops_failed
        );
        bad = true;
    }
    if run.established_pairs() > max_pairs {
        println!(
            "FAIL: {} pairs established, gate is {} (O(ranks) neighbor set)",
            run.established_pairs(),
            max_pairs
        );
        bad = true;
    }
    if run.bytes_per_rank() > max_bytes_per_rank {
        println!(
            "FAIL: {} comm buffer bytes per rank, ceiling is {}",
            run.bytes_per_rank(),
            max_bytes_per_rank
        );
        bad = true;
    }
    if srq && run.srq_highwater() == 0 {
        println!("FAIL: SRQ mode on but the pool was never used");
        bad = true;
    }
    if bad {
        std::process::exit(1);
    }
    println!();
}

/// `--scale-curve PATH`: sweep the soak over ranks 8/16/32/64, write the
/// per-rank memory and connection curve as CSV, and gate sub-quadratic
/// growth: connections scale linearly with ranks and per-rank buffer bytes
/// stay flat. Exits 1 on a violation (including any per-run gate).
fn scale_curve_sweep(path: &str, srq: bool) {
    let faults = fabric::parse_fault_spec(SCALE_FAULT_SPEC).expect("builtin fault spec");
    let sweep = [8usize, 16, 32, 64];
    let mut rows = Vec::new();
    println!(
        "== scale curve: ranks {sweep:?}, SRQ {} ==",
        if srq { "on" } else { "off" }
    );
    for &ranks in &sweep {
        let run = bench::scale_run(ranks, srq, &faults);
        let audit_ok = run.audit.is_ok() && run.dropped == 0;
        println!(
            "ranks {ranks:>4}: {:>6} pairs, {:>9} B/rank, srq high-water {:>3}, audit {}",
            run.established_pairs(),
            run.bytes_per_rank(),
            run.srq_highwater(),
            if audit_ok { "OK" } else { "FAIL" }
        );
        rows.push((run, audit_ok));
    }
    let csv: String = std::iter::once(
        "ranks,established_pairs,max_pairs_per_rank,bytes_per_rank,srq_highwater\n".to_string(),
    )
    .chain(rows.iter().map(|(r, _)| {
        format!(
            "{},{},{},{},{}\n",
            r.ranks,
            r.established_pairs(),
            r.max_pairs_per_rank(),
            r.bytes_per_rank(),
            r.srq_highwater()
        )
    }))
    .collect();
    if let Err(e) = std::fs::write(path, csv) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    println!("memory-per-rank curve written to {path}");
    let mut bad = false;
    for (r, audit_ok) in &rows {
        if !audit_ok || r.corrupt > 0 || r.ops_failed > 0 {
            println!(
                "FAIL: ranks {} run unhealthy (audit ok: {audit_ok}, corrupt {}, failed {})",
                r.ranks, r.corrupt, r.ops_failed
            );
            bad = true;
        }
    }
    let (first, _) = &rows[0];
    let (last, _) = &rows[rows.len() - 1];
    let rank_growth = (last.ranks / first.ranks) as u64;
    // Connections: linear in ranks (x1.5 slack). Quadratic growth would
    // multiply by rank_growth^2.
    if last.established_pairs() > first.established_pairs() * rank_growth * 3 / 2 {
        println!(
            "FAIL: pairs grew {} -> {} over a {}x rank increase (super-linear)",
            first.established_pairs(),
            last.established_pairs(),
            rank_growth
        );
        bad = true;
    }
    // Per-rank memory: flat (x2 slack). Per-pair receive rings would grow
    // it by rank_growth.
    if last.bytes_per_rank() > first.bytes_per_rank() * 2 {
        println!(
            "FAIL: per-rank buffer bytes grew {} -> {} over a {}x rank increase",
            first.bytes_per_rank(),
            last.bytes_per_rank(),
            rank_growth
        );
        bad = true;
    }
    if bad {
        std::process::exit(1);
    }
    println!();
}

/// `--kill SPEC [--ranks N]`: the rank-death soak. Parses the kill
/// schedule, runs the ULFM-tolerant halo workload with the failure
/// subsystem armed, prints the recovery counters and gates the outcome
/// via [`bench::KillSoakRun::healthy`]. `--metrics-json` /
/// `--compare-metrics` serialize and gate this run's report (including
/// its `failures` and `critical_path` sections); `--trace-out` /
/// `--explain-msg` export and explain this run's lifecycle trace. Exits
/// 1 on any gate violation, 2 on a malformed schedule.
#[allow(clippy::too_many_arguments)]
fn kill_soak(
    spec: &str,
    ranks: usize,
    srq: bool,
    json_path: Option<&String>,
    baseline_path: Option<&String>,
    tolerance: f64,
    trace_out: Option<&String>,
    explain: Option<(usize, u64)>,
) {
    let kills = match parse_kill_spec(spec, ranks) {
        Ok(k) => k,
        Err(e) => {
            eprintln!("bad --kill spec: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "== rank-death soak: {ranks} ranks, SRQ {}, killing {} ==",
        if srq { "on" } else { "off" },
        bench::kill_spec_string(&kills),
    );
    let run = bench::kill_soak_run(ranks, srq, &kills);
    println!(
        "virtual time {:.1} ms | wall {:.1} ms | {} events | fingerprint {:#018x}",
        run.obs.elapsed_ns as f64 / 1e6,
        run.obs.wall_ns as f64 / 1e6,
        run.obs.sim_events,
        run.fingerprint()
    );
    println!(
        "operations: {} completed, {} PeerFailed, {} Revoked, {} corrupted payloads",
        run.ops_ok, run.ops_peer_failed, run.ops_revoked, run.corrupt
    );
    if let Some(f) = &run.obs.failures {
        println!(
            "failure plane: {} kills, {} detected (p99 latency {:.1} us), \
             {} revocation epochs, {} shrink agreement(s), {} dead-peer objects reclaimed",
            f.kills,
            f.detections,
            f.detection_latency_p99_ns as f64 / 1e3,
            f.revokes,
            f.shrinks,
            f.reclaimed
        );
    }
    println!(
        "survivors: {} of {ranks}, shrunk world size {}",
        run.ranks - run.killed.len(),
        run.outs
            .iter()
            .flatten()
            .map(|o| o.sub_size)
            .next()
            .unwrap_or(0)
    );
    match &run.obs.audit {
        Ok(report) => println!("auditor: OK — {report:?}"),
        Err(errors) => {
            println!("auditor: {} invariant violations", errors.len());
            for e in errors.iter().take(20) {
                println!("  {e}");
            }
        }
    }
    let mut bad = false;
    if let Err(violations) = run.healthy() {
        for v in &violations {
            println!("FAIL: {v}");
        }
        bad = true;
    }
    if let Some(path) = trace_out {
        write_trace_json(path, &run.obs.events);
    }
    if let Some((rank, seq)) = explain {
        print!("{}", bench::stitch::explain_msg(&run.obs.events, rank, seq));
    }
    if json_path.is_some() || baseline_path.is_some() {
        let report = bench::metrics_report_json(&run.obs);
        if let Some(path) = json_path {
            if let Err(e) = std::fs::write(path, &report) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            }
            println!("metrics report written to {path}");
        }
        if let Some(path) = baseline_path {
            let baseline = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read baseline {path}: {e}");
                    std::process::exit(2);
                }
            };
            match bench::compare_reports_full(&baseline, &report, tolerance) {
                Err(e) => {
                    eprintln!("compare failed: {e}");
                    std::process::exit(2);
                }
                Ok((violations, warnings)) => {
                    for w in &warnings {
                        println!("warning: {w}");
                    }
                    if violations.is_empty() {
                        println!("metrics within {tolerance}% of baseline {path}");
                    } else {
                        println!(
                            "{} metric(s) drifted beyond {tolerance}% of baseline {path}:",
                            violations.len()
                        );
                        for v in &violations {
                            println!("  {v}");
                        }
                        bad = true;
                    }
                }
            }
        }
    }
    if bad {
        std::process::exit(1);
    }
    println!();
}

/// Parse a `--kill` schedule: a comma list of `<after_ops>:<rank>`.
fn parse_kill_spec(spec: &str, ranks: usize) -> Result<Vec<dcfa_mpi::KillSpec>, String> {
    let mut kills = Vec::new();
    for part in spec.split(',') {
        let (after, rank) = part
            .split_once(':')
            .ok_or_else(|| format!("{part:?}: expected <after_ops>:<rank>"))?;
        let after_ops: u64 = after
            .trim()
            .parse()
            .map_err(|_| format!("{part:?}: bad operation count {after:?}"))?;
        let rank: usize = rank
            .trim()
            .parse()
            .map_err(|_| format!("{part:?}: bad rank {rank:?}"))?;
        if !(1..=bench::KILL_SOAK_MAX_AFTER_OPS).contains(&after_ops) {
            return Err(format!(
                "{part:?}: after_ops must be in 1..={} (the soak's phase-1 window)",
                bench::KILL_SOAK_MAX_AFTER_OPS
            ));
        }
        if rank >= ranks {
            return Err(format!(
                "{part:?}: rank {rank} out of range for {ranks} ranks"
            ));
        }
        if kills.iter().any(|k: &dcfa_mpi::KillSpec| k.rank == rank) {
            return Err(format!("{part:?}: rank {rank} killed twice"));
        }
        kills.push(dcfa_mpi::KillSpec { rank, after_ops });
    }
    if kills.is_empty() {
        return Err("empty schedule".into());
    }
    if kills.len() > ranks.saturating_sub(4) {
        return Err(format!(
            "{} kills leave fewer than 4 survivors of {ranks} ranks",
            kills.len()
        ));
    }
    Ok(kills)
}

/// `--chaos [--seed N] [--ranks N]`: one deterministic chaos iteration —
/// sample a kill schedule from the seed, soak it twice (the replay must
/// fingerprint bit-for-bit identically), gate the outcome, and on a
/// failure print the greedily shrunk minimal reproducer in `--kill`
/// syntax. Exits 1 if the schedule surfaced a violation.
fn chaos_fuzz(seed: u64, ranks: usize, srq: bool) {
    println!(
        "== chaos fuzz: seed {seed}, {ranks} ranks, SRQ {} ==",
        if srq { "on" } else { "off" },
    );
    // Print the sampled schedule before running, so a hang (itself a
    // bug the fuzzer exists to find) is attributable to a schedule.
    let schedule = bench::chaos_schedule(seed, ranks);
    println!(
        "schedule ({} kills): {}",
        schedule.len(),
        bench::kill_spec_string(&schedule)
    );
    let report = bench::chaos_run(seed, ranks, srq);
    println!(
        "fingerprint {:#018x} | replay {:#018x} ({}) | {} soak run(s)",
        report.fingerprint,
        report.replay_fingerprint,
        if report.fingerprint == report.replay_fingerprint {
            "bit-for-bit match"
        } else {
            "MISMATCH"
        },
        report.runs
    );
    if report.violations.is_empty() {
        println!("chaos: schedule survived every gate");
        println!();
        return;
    }
    println!("chaos: {} gate violation(s):", report.violations.len());
    for v in &report.violations {
        println!("  {v}");
    }
    if let Some(minimal) = &report.minimal {
        println!(
            "minimal reproducer ({} of {} kills): repro --ranks {ranks} --kill \"{}\"",
            minimal.len(),
            report.schedule.len(),
            bench::kill_spec_string(minimal)
        );
    }
    std::process::exit(1);
}

/// `--faults SPEC [--srq]`: arm the parsed fault plans on the fabric, run
/// the fault-tolerant 4-rank mixed workload (on the SRQ receive pool when
/// `--srq` is given — the permanent CI variant), and report how the
/// faults surfaced: per-rank recovery counters, operation outcomes and
/// the protocol-auditor verdict. Exits nonzero if the auditor finds an
/// invariant violation (the trace tail is dumped for diagnosis).
fn fault_soak(spec: &str, srq: bool) {
    let faults = match fabric::parse_fault_spec(spec) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bad --faults spec: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "== fault soak: {} fault plan(s) armed over the 4-rank mixed run (SRQ {}) ==",
        faults.len(),
        if srq { "on" } else { "off" }
    );
    let soak = bench::fault_soak_run(&ClusterConfig::paper(), &faults, srq);
    println!(
        "operations: {} completed, {} failed with a transport error",
        soak.ops_ok, soak.ops_failed
    );
    for r in &soak.obs.reports {
        let c = &r.comm;
        println!(
            "rank {}: wc faults {}  retries {}  failed {}  reissues {}",
            r.rank, c.wr_faults, c.wr_retries, c.transport_failures, c.handshake_reissues
        );
    }
    match &soak.obs.audit {
        Ok(report) => println!("auditor: OK — {report:?}"),
        Err(errors) => {
            println!("auditor: {} invariant violations", errors.len());
            for e in errors {
                println!("  {e}");
            }
            const TAIL: usize = 60;
            let skip = soak.obs.events.len().saturating_sub(TAIL);
            println!(
                "trace tail ({} of {} events):",
                soak.obs.events.len() - skip,
                soak.obs.events.len()
            );
            for ev in &soak.obs.events[skip..] {
                println!("  {ev:?}");
            }
            std::process::exit(1);
        }
    }
    println!();
}

/// `--daemon-faults SPEC`: arm the parsed control-plane fault plans on
/// the delegation daemons, run the fault-tolerant 4-rank mixed workload
/// (heartbeats and lease reaper live), and report how the chaos
/// surfaced: recovery counters, payload integrity, host-memory balance
/// and the auditor verdict. Exits nonzero if any payload was corrupted,
/// a host twin page leaked, or the auditor found a violation.
fn daemon_fault_soak(spec: &str) {
    let faults = match dcfa::parse_daemon_fault_spec(spec) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bad --daemon-faults spec: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "== daemon chaos soak: {} control-plane fault plan(s) armed over the 4-rank mixed run ==",
        faults.len()
    );
    let soak = bench::daemon_fault_soak_run(&ClusterConfig::paper(), &faults);
    println!(
        "operations: {} completed, {} failed with a transport error, {} corrupted payloads",
        soak.ops_ok, soak.ops_failed, soak.payload_errors
    );
    if let Some(d) = &soak.obs.daemon {
        println!(
            "control plane: {} crashes / {} respawns, {} cmd timeouts, {} retries, \
             {} reply replays, {} reattaches ({} MRs adopted), {} leases reclaimed, {} heartbeats",
            d.daemon_crashes,
            d.daemon_respawns,
            d.cmd_timeouts,
            d.cmd_retries,
            d.reply_replays,
            d.reattaches,
            d.mrs_adopted,
            d.leases_reclaimed,
            d.heartbeats,
        );
    }
    let mut bad = soak.payload_errors > 0;
    for (node, before, after) in &soak.mem_balance {
        if before != after {
            println!("node {node}: host pages LEAKED ({before} B -> {after} B)");
            bad = true;
        } else {
            println!("node {node}: host pages balanced ({before} B)");
        }
    }
    match &soak.obs.audit {
        Ok(report) => println!("auditor: OK — {report:?}"),
        Err(errors) => {
            println!("auditor: {} invariant violations", errors.len());
            for e in errors {
                println!("  {e}");
            }
            const TAIL: usize = 60;
            let skip = soak.obs.events.len().saturating_sub(TAIL);
            println!(
                "trace tail ({} of {} events):",
                soak.obs.events.len() - skip,
                soak.obs.events.len()
            );
            for ev in &soak.obs.events[skip..] {
                println!("  {ev:?}");
            }
            bad = true;
        }
    }
    if bad {
        std::process::exit(1);
    }
    println!();
}

/// `--stats` / `--trace` / `--trace-out` / `--explain-msg` (without
/// `--kill`): run the traced 4-rank mixed-protocol workload and report
/// counters, fabric utilization, the event-ring tail and the
/// protocol-auditor verdict, export the Perfetto trace, or explain one
/// message's causal timeline.
fn observability(
    show_stats: bool,
    show_trace: bool,
    trace_out: Option<&String>,
    explain: Option<(usize, u64)>,
) {
    let run = bench::observability_run(&ClusterConfig::paper());
    if show_stats {
        println!("== per-rank protocol & cache counters (traced 4-rank mixed run) ==");
        for r in &run.reports {
            println!("{r}");
        }
        println!(
            "trace ring: {} events captured, {} dropped",
            run.events.len(),
            run.dropped
        );
        if let Some(d) = &run.daemon {
            println!(
                "dcfa daemons: {} connections, {} commands ({} reg / {} dereg MR, {} reg / {} dereg offload, {} errors)",
                d.connections,
                d.commands,
                d.mr_registered,
                d.mr_deregistered,
                d.offload_registered,
                d.offload_deregistered,
                d.errors,
            );
            println!(
                "dcfa control: {} cmd timeouts, {} retries, {} reply replays, \
                 {} crashes / {} respawns, {} reattaches, {} leases reclaimed, {} heartbeats",
                d.cmd_timeouts,
                d.cmd_retries,
                d.reply_replays,
                d.daemon_crashes,
                d.daemon_respawns,
                d.reattaches,
                d.leases_reclaimed,
                d.heartbeats,
            );
        }
        println!("fabric channels:");
        for f in &run.fabric {
            println!("{f}");
        }
        let phases = run.metrics.merged_by_phase();
        if !phases.is_empty() {
            println!("latency percentiles (virtual ns, all ranks merged):");
            println!(
                "{:>14} {:>8} {:>12} {:>12} {:>12} {:>12}",
                "phase", "samples", "p50", "p90", "p99", "max"
            );
            for (phase, s) in &phases {
                println!(
                    "{:>14} {:>8} {:>12.0} {:>12.0} {:>12.0} {:>12}",
                    phase.name(),
                    s.count,
                    s.p50(),
                    s.p90(),
                    s.p99(),
                    s.max
                );
            }
        }
    }
    if show_trace {
        const TAIL: usize = 40;
        let skip = run.events.len().saturating_sub(TAIL);
        println!(
            "== protocol event trace: last {} of {} events ({} dropped by ring) ==",
            run.events.len() - skip,
            run.events.len(),
            run.dropped
        );
        for ev in &run.events[skip..] {
            println!("  {ev:?}");
        }
    }
    if let Some(path) = trace_out {
        write_trace_json(path, &run.events);
    }
    if let Some((rank, seq)) = explain {
        print!("{}", bench::stitch::explain_msg(&run.events, rank, seq));
    }
    match &run.audit {
        Ok(report) => println!("auditor: OK — {report:?}"),
        Err(errors) => {
            println!("auditor: {} invariant violations", errors.len());
            for e in errors {
                println!("  {e}");
            }
        }
    }
    println!();
}

/// Export a traced run as Perfetto trace-event JSON, self-validating the
/// output against the trace-event schema before writing — CI relies on
/// this instead of a separate validator command. Exits 1 if the export
/// fails its own validation (an exporter bug), 2 if the file cannot be
/// written.
fn write_trace_json(path: &str, events: &[dcfa_mpi::TraceEvent]) {
    let out = bench::stitch::trace_json(events);
    let stats = match bench::stitch::validate_trace_json(&out) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("trace export failed schema self-validation: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::write(path, &out) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    println!(
        "perfetto trace written to {path}: {} records ({} slices, {} flow pairs, {} tracks) — \
         load it at https://ui.perfetto.dev",
        stats.events, stats.slices, stats.flows, stats.tracks
    );
}

/// `--metrics-json PATH` / `--compare-metrics BASELINE`: run the profiled
/// 4-rank mixed workload, serialize its latency histograms as the
/// versioned JSON report, optionally write it to PATH, and optionally
/// gate it against a saved baseline. Exits 1 on a drift violation, 2 when
/// a report cannot be read or parsed.
fn metrics_report(json_path: Option<&String>, baseline_path: Option<&String>, tolerance: f64) {
    let run = bench::observability_run(&ClusterConfig::paper());
    if let Err(errors) = &run.audit {
        println!(
            "auditor: {} invariant violations in the profiled run",
            errors.len()
        );
        for e in errors {
            println!("  {e}");
        }
        std::process::exit(1);
    }
    let report = bench::metrics_report_json(&run);
    let wall_secs = run.wall_ns as f64 / 1e9;
    println!(
        "wall clock: {:.1} ms  |  {} events ({:.0} events/s)  |  {} ops ({:.0} ops/s)",
        run.wall_ns as f64 / 1e6,
        run.sim_events,
        run.sim_events as f64 / wall_secs.max(1e-12),
        run.mpi_ops,
        run.mpi_ops as f64 / wall_secs.max(1e-12),
    );
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(path, &report) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!(
            "metrics report written to {path} ({} phases, {} histograms)",
            run.metrics.merged_by_phase().len(),
            run.metrics.snapshot().len()
        );
    }
    if let Some(path) = baseline_path {
        let baseline = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        match bench::compare_reports_full(&baseline, &report, tolerance) {
            Err(e) => {
                eprintln!("compare failed: {e}");
                std::process::exit(2);
            }
            Ok((violations, warnings)) => {
                for w in &warnings {
                    println!("warning: {w}");
                }
                if violations.is_empty() {
                    println!("metrics within {tolerance}% of baseline {path}");
                } else {
                    println!(
                        "{} metric(s) drifted beyond {tolerance}% of baseline {path}:",
                        violations.len()
                    );
                    for v in &violations {
                        println!("  {v}");
                    }
                    std::process::exit(1);
                }
            }
        }
    }
    println!();
}
