//! `repro` — regenerate every table and figure of the paper, and run the
//! audited scenario behind every CI soak.
//!
//! `repro help` prints the flag and selector tables ([`FLAGS`],
//! [`SELECTORS`]) this file is driven by. Any scenario flag (everything
//! but `--quick`/`--csv`; `--channel` only beside another) or the
//! `stats`/`trace` selectors build one [`bench::Scenario`], run it once,
//! and hand the result to the one [`report`], so every scenario gets
//! every output. Exit codes are listed in [`NOTES`].

use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use bench::stitch;
use bench::{Channel, Run, Scenario, Series};
use fabric::ClusterConfig;

/// Every flag, as `repro help` prints it: name, value placeholder (none
/// for a switch), at least two spaces, help. [`names`] reads the first
/// column back, so this text is the flag table.
const FLAGS: &str = "\
--quick                  reduced figure sweeps (smoke testing)
--csv DIR                also write fig*.csv / scale_curve.csv into DIR
--ranks N                scenario: the ring-halo soak at N ranks (default: 4-rank mixed run)
--faults SPEC            scenario: faults to arm, <after>:<kind>[@<scope>],... (see below)
--channel ring|srq       receive path (default: ring at 4 ranks, srq with --ranks)
--chaos SEED             scenario: arm a kill schedule sampled from SEED, run it twice
--metrics-json PATH      write the scenario's JSON performance report to PATH
--compare-metrics BASE   gate the scenario's report against a saved one, exactly
--trace-out PATH         export the scenario's trace as Perfetto trace-event JSON
--explain-msg RANK:SEQ   causal timeline of RANK's messages with pair sequence SEQ
";

/// Everything that is not a flag or a flag's value picks output.
const SELECTORS: &str = "\
all                      every table, figure and ablation (default when nothing else is asked)
table1                   server architecture (Table I analogue)
fig5                     RDMA-write bandwidth by direction
fig7 fig8                non-blocking RTT / bandwidth (offload buffer)
fig9                     DCFA-MPI vs Intel-MPI-on-Phi bandwidth
table2 fig10             communication-only app
table3 fig11 fig12       five-point stencil
ablations                design studies (DESIGN.md §6)
scale-curve              halo soak at 8 to 1024 ranks, gating linear pairs, flat bytes per rank
stats                    the scenario's per-rank, daemon, fabric and latency counters
trace                    the tail of the scenario's protocol event trace
help                     this text
";

/// What the tables above have no room for.
const NOTES: &str = "\
--faults kinds: transient|rnr|retry|fatal|access[@<src>-><dst>] fail a posted data operation,
crash|drop|delay[@<node>] hit a delegation daemon, kill@<rank> fail-stops a rank (needs
--ranks >= 8 and <after> in 1..=65). `*` scopes to any node. --ranks alone soaks under
7:transient,23:retry,61:transient; --faults or --chaos replace that default.
exit codes: 0 fine, 1 a gate was violated, 2 bad command line / spec / file, 141 stdout closed.
";

fn usage() -> String {
    format!(
        "usage: repro [FLAG | SELECTOR]...\n\nflags:\n{FLAGS}\nselectors:\n{SELECTORS}\n{NOTES}"
    )
}

/// The words of a table's first column.
fn names(table: &'static str) -> impl Iterator<Item = &'static str> {
    let column = |l: &'static str| l.split("  ").next().unwrap_or("");
    table.lines().flat_map(move |l| column(l).split(' '))
}

/// The one stdout handle, locked once. `write!`/`writeln!` resolve to the
/// inherent `write_fmt`, so a closed pipe (`repro … | head -1`) ends the
/// process quietly from any print site instead of panicking in `println!`.
struct Out(std::io::StdoutLock<'static>);

impl Out {
    fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        match self.0.write_fmt(args) {
            Ok(()) => {}
            // What dying of SIGPIPE reports; nonzero so a gate verdict
            // nobody read cannot pass for success under `pipefail`.
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(141),
            Err(e) => panic!("stdout: {e}"),
        }
    }
}

/// The command line split against [`FLAGS`] and [`SELECTORS`].
struct Cli {
    values: Vec<(&'static str, String)>,
    picked: Vec<&'static str>,
}

impl Cli {
    fn scan(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            values: Vec::new(),
            picked: Vec::new(),
        };
        let mut args = args.into_iter().peekable();
        while let Some(a) = args.next() {
            // A flag's placeholder is the word after it in the table.
            let mut flags = names(FLAGS).peekable();
            if let Some(flag) = flags.by_ref().find(|f| *f == a && f.starts_with("--")) {
                let v = match flags.next_if(|v| !v.starts_with("--")) {
                    None => String::new(),
                    Some(value) => args
                        .next_if(|v| !v.starts_with("--"))
                        .ok_or(format!("{flag} needs a value ({value})"))?,
                };
                cli.values.push((flag, v));
            } else if let Some(name) = names(SELECTORS).find(|n| *n == a) {
                cli.picked.push(name);
            } else if a.starts_with("--") {
                return Err(format!("unknown flag {a}"));
            } else {
                return Err(format!("unknown selector {a}"));
            }
        }
        Ok(cli)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        let found = self.values.iter().find(|(f, _)| *f == flag);
        found.map(|(_, v)| v.as_str())
    }

    /// `flag`'s value run through `parse`; `Err` names the flag, the
    /// value and what was `expected`.
    fn parsed<T>(
        &self,
        flag: &str,
        expected: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let bad = |s| format!("bad {flag} {s:?}: expected {expected}");
        self.value(flag)
            .map(|s| parse(s).ok_or_else(|| bad(s)))
            .transpose()
    }

    fn picked(&self, selector: &str) -> bool {
        self.picked.contains(&selector)
    }
}

fn main() -> ExitCode {
    let mut out = Out(std::io::stdout().lock());
    match run(&mut out) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("repro: {e}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(false)` = some gate was violated; `Err` = nothing sensible could
/// run (bad command line, bad spec, unreadable or unwritable file).
fn run(out: &mut Out) -> Result<bool, String> {
    let cli = Cli::scan(std::env::args().skip(1)).map_err(|e| format!("{e}\n\n{}", usage()))?;
    if cli.picked("help") {
        write!(out, "{}", usage());
        return Ok(true);
    }
    let csv_dir = cli.value("--csv").map(Path::new);
    if let Some(d) = csv_dir {
        std::fs::create_dir_all(d).map_err(|e| format!("cannot create {}: {e}", d.display()))?;
    }
    let channel = cli.parsed("--channel", "ring or srq", |s| match s {
        "ring" => Some(Channel::Ring),
        "srq" => Some(Channel::Srq),
        _ => None,
    })?;
    // `--channel` configures the scenario and the curve; it asks for neither.
    let scenario_asked = cli.picked("stats")
        || cli.picked("trace")
        || cli
            .values
            .iter()
            .any(|(f, _)| !["--quick", "--csv", "--channel"].contains(f));
    if channel.is_some() && !scenario_asked && !cli.picked("scale-curve") {
        return Err("--channel applies to a scenario or scale-curve; ask for one".into());
    }
    let mut ok = true;
    if scenario_asked {
        ok &= scenario(&cli, channel, out)?;
    }
    if cli.picked("scale-curve") {
        ok &= scale_curve(channel, csv_dir, out)?;
    }
    let all = cli.picked("all") || (cli.picked.is_empty() && !scenario_asked);
    figures(
        &|k| all || cli.picked(k),
        cli.value("--quick").is_some(),
        csv_dir,
        out,
    )?;
    Ok(ok)
}

fn describe(sc: &Scenario) -> String {
    format!(
        "{} ranks {:?} on {:?}, faults {}",
        sc.ranks, sc.workload, sc.channel, sc.faults
    )
    .to_lowercase()
}

/// Build the one scenario the flags describe, run it (twice under
/// `--chaos`) and report it.
fn scenario(cli: &Cli, channel: Option<Channel>, out: &mut Out) -> Result<bool, String> {
    let ranks = cli.parsed("--ranks", "a positive integer", |s| s.parse().ok())?;
    let chaos: Option<u64> = cli.parsed("--chaos", "an unsigned seed", |s| s.parse().ok())?;
    let explain = cli.parsed("--explain-msg", "<rank>:<seq>", |s| {
        let (r, q) = s.split_once(':')?;
        Some((r.trim().parse().ok()?, q.trim().parse().ok()?))
    })?;
    let mut sc = ranks.map_or_else(Scenario::default, Scenario::halo_soak);
    sc.channel = channel.unwrap_or(sc.channel);
    if let Some(spec) = cli.value("--faults") {
        sc.faults = spec.parse()?;
    } else if chaos.is_some() {
        sc.faults = Default::default();
    }
    if let Some(seed) = chaos {
        if !sc.faults.kills.is_empty() {
            return Err("--chaos samples its own kill schedule; drop the kill@ terms".into());
        }
        sc.faults.kills = bench::chaos_schedule(seed, sc.ranks)?;
    }
    sc.validate()?;
    // Printed before running, so a hang (itself a bug the fuzzer exists
    // to find) is attributable to a schedule.
    writeln!(out, "== {} ==", describe(&sc));
    if chaos.is_none() {
        return report(&bench::run(&sc)?, cli, explain, out);
    }
    let chaos = bench::chaos_run(&sc)?;
    let ok = report(&chaos.first, cli, explain, out)?;
    let replayed = chaos.first.fingerprint() == chaos.replay_fingerprint;
    writeln!(
        out,
        "chaos: replay fingerprint {:#018x} ({})",
        chaos.replay_fingerprint,
        if replayed {
            "bit-for-bit match"
        } else {
            "FAIL: nondeterministic replay"
        }
    );
    match &chaos.minimal {
        None => writeln!(out, "chaos: schedule survived every gate\n"),
        Some(m) => writeln!(
            out,
            "chaos: minimal reproducer ({} of {} kills): repro --ranks {} --channel {} \
             --faults \"{}\"\n",
            m.faults.kills.len(),
            sc.faults.kills.len(),
            m.ranks,
            format!("{:?}", m.channel).to_lowercase(),
            m.faults
        ),
    }
    Ok(ok && chaos.minimal.is_none())
}

/// The most host memory a scenario may have had resident, whole process,
/// at any point: 300 MiB for the 512-rank halo soak (ROADMAP item 3) and
/// for any smaller world, and as much again per 512 ranks above that.
fn peak_rss_budget_mib(ranks: u64) -> u64 {
    300 * ranks.max(512) / 512
}

/// Minor page faults this process has taken so far (`minflt`, the tenth
/// field of `/proc/self/stat`; the second, the command name, may itself
/// hold spaces, so count from its closing parenthesis).
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let after_comm = stat.rsplit_once(')')?.1;
    after_comm.split_whitespace().nth(7)?.parse().ok()
}

/// The one reporter: what ran and how it ended, the auditor's verdict,
/// every violated gate, then whichever outputs were asked for.
fn report(
    run: &Run,
    cli: &Cli,
    explain: Option<(usize, u64)>,
    out: &mut Out,
) -> Result<bool, String> {
    let (ranks, t) = (run.scenario.ranks as u64, &run.tally);
    writeln!(
        out,
        "virtual time {:.1} ms | wall {:.1} ms | {} events | {} sends | fingerprint {:#018x} \
         (virtual {:#018x})",
        run.elapsed_ns as f64 / 1e6,
        run.wall_ns as f64 / 1e6,
        run.sim_events,
        run.mpi_ops(),
        run.fingerprint(),
        run.virtual_fingerprint()
    );
    writeln!(
        out,
        "operations: {} completed, {} failed with a transport error, {} PeerFailed, \
         {} Revoked, {} corrupted payloads",
        t.ok, t.failed, t.peer_failed, t.revoked, t.corrupt
    );
    writeln!(
        out,
        "pairs established: {} total, {} max per rank (full mesh would be {}) | comm buffer \
         bytes per rank: {} max | srq pool high-water: {} slot(s)",
        run.established_pairs(),
        run.max_pairs_per_rank(),
        ranks * (ranks - 1),
        run.bytes_per_rank(),
        run.srq_highwater()
    );
    // Where the simulator's own memory is: the node (one rank each) whose
    // arenas hold most of it, and the page faults that put it there.
    let (resident, allocated) = run.arena.iter().max().copied().unwrap_or_default();
    let peak_mib = simcore::mapping::peak_resident_bytes() >> 20;
    writeln!(
        out,
        "arena resident per rank: max {} KiB of {} KiB allocated; minor faults {}; peak RSS \
         {peak_mib} MiB",
        resident >> 10,
        allocated >> 10,
        minor_faults().map_or("n/a".into(), |n| n.to_string())
    );
    // The control plane, when it did anything worth a line (or on request).
    let busy = |d: &dcfa::DcfaCounters| d.daemon_crashes + d.cmd_timeouts + d.reply_replays > 0;
    if let Some(d) = run.daemon.filter(|d| busy(d) || cli.picked("stats")) {
        writeln!(out, "control plane: {d:?}");
    }
    if let Some(f) = &run.failures {
        let survivors = run.outs.iter().flatten().count();
        writeln!(
            out,
            "failure plane: {f:?} | survivors: {survivors} of {ranks}"
        );
    }
    if cli.picked("stats") {
        stats(run, out);
    }
    let violations = run.violations();
    if cli.picked("trace") || run.audit.is_err() {
        const TAIL: usize = 40;
        let skip = run.events.len().saturating_sub(TAIL);
        writeln!(
            out,
            "== protocol event trace: last {} of {} events ({} dropped by ring) ==",
            run.events.len() - skip,
            run.events.len(),
            run.dropped
        );
        for ev in &run.events[skip..] {
            writeln!(out, "  {ev:?}");
        }
    }
    match &run.audit {
        Ok(verdict) => writeln!(out, "auditor: OK — {verdict:?}"),
        Err(errors) => writeln!(out, "auditor: {} invariant violations", errors.len()),
    }
    for v in &violations {
        writeln!(out, "FAIL: {v}");
    }
    let mut ok = violations.is_empty();
    let budget_mib = peak_rss_budget_mib(ranks);
    if peak_mib > budget_mib {
        writeln!(
            out,
            "FAIL: peak RSS {peak_mib} MiB is over the {budget_mib} MiB budget of {ranks} ranks"
        );
        ok = false;
    }

    let written =
        |path: &str, r: std::io::Result<()>| r.map_err(|e| format!("cannot write {path}: {e}"));
    if let Some(path) = cli.value("--trace-out") {
        let json = stitch::trace_json(&run.events);
        match stitch::validate_trace_json(&json) {
            Ok(s) => {
                written(path, std::fs::write(path, &json))?;
                writeln!(
                    out,
                    "perfetto trace written to {path}: {} records ({} slices, {} flow pairs, \
                     {} tracks) — load it at https://ui.perfetto.dev",
                    s.events, s.slices, s.flows, s.tracks
                );
            }
            Err(e) => {
                writeln!(out, "FAIL: trace export failed schema self-validation: {e}");
                ok = false;
            }
        }
    }
    if let Some((rank, seq)) = explain {
        write!(out, "{}", stitch::explain_msg(&run.events, rank, seq));
    }
    let (json_path, baseline_path) = (cli.value("--metrics-json"), cli.value("--compare-metrics"));
    if json_path.is_some() || baseline_path.is_some() {
        let report = bench::metrics_report_json(run);
        if let Some(path) = json_path {
            written(path, std::fs::write(path, &report))?;
            writeln!(
                out,
                "metrics report written to {path} ({} phases, {} histograms)",
                run.metrics.merged_by_phase().len(),
                run.metrics.snapshot().len()
            );
        }
        if let Some(path) = baseline_path {
            let baseline = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
            let (moved, warnings) = bench::compare_reports(&baseline, &report)
                .map_err(|e| format!("compare failed: {e}"))?;
            for w in &warnings {
                writeln!(out, "warning: {w}");
            }
            if moved.is_empty() {
                writeln!(out, "metrics equal baseline {path}");
            } else {
                writeln!(
                    out,
                    "{} metric(s) differ from baseline {path}:",
                    moved.len()
                );
                for m in &moved {
                    writeln!(out, "  {m}");
                }
                ok = false;
            }
        }
    }
    writeln!(out);
    Ok(ok)
}

/// The `stats` selector: every counter the run left behind.
fn stats(run: &Run, out: &mut Out) {
    writeln!(out, "== per-rank protocol & cache counters ==");
    for r in run.reports() {
        writeln!(out, "{r}");
    }
    writeln!(out, "fabric channels:");
    for f in &run.fabric {
        writeln!(out, "{f}");
    }
    writeln!(
        out,
        "trace ring: {} events captured, {} dropped | host pages balanced on {} of {} node(s)",
        run.events.len(),
        run.dropped,
        run.host_mem.iter().filter(|(b, a)| b == a).count(),
        run.host_mem.len()
    );
    writeln!(out, "latency percentiles (virtual ns, all ranks merged):");
    writeln!(
        out,
        "{:>14} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "phase", "samples", "p50", "p90", "p99", "max"
    );
    for (phase, s) in &run.metrics.merged_by_phase() {
        writeln!(
            out,
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

/// The `scale-curve` selector: sweep the halo soak over ranks 8 to 1,024,
/// print (and with `--csv` write) the per-rank memory and connection
/// curve, and gate its growth on top of every run's own gates.
fn scale_curve(
    channel: Option<Channel>,
    csv_dir: Option<&Path>,
    out: &mut Out,
) -> Result<bool, String> {
    const SIZES: [usize; 8] = [8, 16, 32, 64, 128, 256, 512, 1024];
    const LAST: usize = SIZES[SIZES.len() - 1];
    // Where the host-memory column's flat gate starts: below it the
    // process's own fixed bytes are a large share of each rank's.
    const HOST_FROM: usize = 64;
    let mut ok = true;
    let mut csv = "ranks,established_pairs,max_pairs_per_rank,bytes_per_rank,srq_highwater,\
                   host_bytes_per_rank\n"
        .to_string();
    // Host bytes per rank: what the process has resident when a run's last
    // rank ends, less what it had before the sweep, over the ranks. Every
    // size runs in this one process, whose peak only rises, so the peak
    // would tell nothing about the later sizes.
    let base = simcore::mapping::resident_bytes();
    let (mut ends, mut host) = (Vec::new(), Vec::new());
    for ranks in SIZES {
        let mut sc = Scenario::halo_soak(ranks);
        sc.channel = channel.unwrap_or(sc.channel);
        if ranks == SIZES[0] {
            writeln!(out, "== scale curve: {} .. {LAST} ==", describe(&sc));
        }
        let run = bench::run(&sc)?;
        let host_per_rank = run.resident_end.saturating_sub(base) / ranks as u64;
        let row = format!(
            "{ranks},{},{},{},{},{host_per_rank}",
            run.established_pairs(),
            run.max_pairs_per_rank(),
            run.bytes_per_rank(),
            run.srq_highwater()
        );
        writeln!(out, "{row}");
        for v in run.violations() {
            writeln!(out, "FAIL: ranks {ranks}: {v}");
            ok = false;
        }
        csv += &row;
        csv.push('\n');
        ends.push((run.established_pairs(), run.bytes_per_rank()));
        if ranks >= HOST_FROM {
            host.push(host_per_rank);
        }
    }
    if let Some(d) = csv_dir {
        let path = d.join("scale_curve.csv");
        std::fs::write(&path, csv).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        writeln!(out, "memory-per-rank curve written to {}", path.display());
    }
    let ((pairs0, bytes0), (pairs1, bytes1)) = (ends[0], ends[ends.len() - 1]);
    let grown = (LAST / SIZES[0]) as u64;
    // Connections: linear in ranks (x1.5 slack) over the rank increase;
    // quadratic growth would multiply them by its square.
    if pairs1 > pairs0 * grown * 3 / 2 {
        writeln!(
            out,
            "FAIL: pairs grew {pairs0} -> {pairs1} over a {grown}x rank increase"
        );
        ok = false;
    }
    // Per-rank memory: flat (x2 slack); per-pair receive rings for every
    // peer would grow it with the ranks.
    if bytes1 > bytes0 * 2 {
        writeln!(
            out,
            "FAIL: per-rank buffer bytes grew {bytes0} -> {bytes1} over a {grown}x rank increase"
        );
        ok = false;
    }
    // Host memory per rank: flat (x2 slack) too; a table with an entry
    // per rank of the world on every rank would grow it with the ranks.
    let (host0, host1) = (host[0], host[host.len() - 1]);
    if host1 > host0 * 2 {
        writeln!(
            out,
            "FAIL: host bytes per rank grew {host0} -> {host1} from {HOST_FROM} to {LAST} ranks"
        );
        ok = false;
    }
    writeln!(out);
    Ok(ok)
}

/// Print a figure's series and, with `--csv`, write them as `name`.
fn show(
    out: &mut Out,
    csv_dir: Option<&Path>,
    (title, unit, name): (&str, &str, &str),
    series: &[Series],
) -> Result<(), String> {
    write!(out, "{}", bench::format_series(title, unit, series));
    match csv_dir {
        Some(d) => bench::write_series_csv(&d.join(name), series)
            .map_err(|e| format!("cannot write {name}: {e}")),
        None => Ok(()),
    }
}

/// Tables I–III, Figures 5–12 and the ablations.
fn figures(
    want: &impl Fn(&str) -> bool,
    quick: bool,
    csv_dir: Option<&Path>,
    out: &mut Out,
) -> Result<(), String> {
    use bench::*;
    let ccfg = ClusterConfig::paper();
    let max_pow = if quick { 18 } else { 22 }; // 256 KiB or 4 MiB sweeps
    let (sn, siters) = if quick { (258, 10) } else { (1282, 100) };

    if want("table1") {
        writeln!(out, "== Table I: simulated server architecture ==");
        writeln!(out, "{ccfg}");
    }

    if want("fig5") {
        let title = "Figure 5: InfiniBand RDMA-write bandwidth by transfer direction";
        show(
            out,
            csv_dir,
            (title, "GB/s", "fig5.csv"),
            &fig5(&ccfg, max_pow),
        )?;
    }

    if want("fig7") || want("fig8") {
        let (rtt, bw) = fig7_fig8(&ccfg, max_pow);
        if want("fig7") {
            let title = "Figure 7: non-blocking inter-node RTT (MPI_Isend/MPI_Irecv)";
            show(out, csv_dir, (title, "us", "fig7.csv"), &rtt)?;
        }
        if want("fig8") {
            let title = "Figure 8: non-blocking inter-node bandwidth";
            show(out, csv_dir, (title, "GB/s", "fig8.csv"), &bw)?;
        }
    }

    if want("fig9") {
        let title = "Figure 9: blocking ping-pong bandwidth, DCFA-MPI vs Intel MPI on Xeon Phi";
        show(
            out,
            csv_dir,
            (title, "GB/s", "fig9.csv"),
            &fig9(&ccfg, max_pow),
        )?;
        let (d, i) = fig9_small_rtt(&ccfg);
        writeln!(out, "4-byte blocking RTT: DCFA-MPI {d:.1} us (paper: 15), Intel-MPI-on-Phi {i:.1} us (paper: 28)");
    }

    if want("table2") {
        writeln!(
            out,
            "\n== Table II: communication-only data volume per iteration =="
        );
        writeln!(out, "{:>12} | {:<40}", "Data size", "X bytes");
        writeln!(
            out,
            "{:>12} | {:<40}",
            "Offloading", "Copy In X + Copy Out X (offload mode only)"
        );
        writeln!(out, "{:>12} | {:<40}", "MPI", "Send X + Receive X");
    }

    if want("fig10") {
        let series = fig10(&ccfg, max_pow);
        let title = "Figure 10: communication-only app, per-iteration time";
        show(out, csv_dir, (title, "us", "fig10.csv"), &series)?;
        if let (Some(d), Some(o)) = (series.first(), series.get(1)) {
            let first = o.points[0].1 / d.points[0].1;
            let last = o.points.last().unwrap().1 / d.points.last().unwrap().1;
            writeln!(out, "speed-up of DCFA-MPI: {first:.1}x at {}B (paper: ~12x) .. {last:.1}x at {}B (paper: ~2x)",
                d.points[0].0, d.points.last().unwrap().0);
        }
    }

    if want("table3") {
        let p = apps::StencilParams::paper(8, 56);
        writeln!(
            out,
            "\n== Table III: five-point stencil data sizes (n = {}) ==",
            p.n
        );
        writeln!(
            out,
            "{:>22} | {:>12}",
            "Problem size",
            format!("{0} x {0}", p.n)
        );
        writeln!(
            out,
            "{:>22} | {:>12}",
            "Computing data",
            format!("{:.1} MB", p.grid_bytes() as f64 / 1e6)
        );
        writeln!(
            out,
            "{:>22} | {:>12}",
            "Offloading data",
            format!("2 x {:.1} KB", p.halo_bytes() as f64 / 1e3)
        );
        writeln!(
            out,
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
        writeln!(
            out,
            "\n== Figures 11/12: five-point stencil, n = {sn}, {siters} iterations (serial: {:.1} us/iter) ==",
            serial_us
        );
        writeln!(
            out,
            "{:>30} {:>6} {:>8} {:>14} {:>10}",
            "runtime", "procs", "threads", "us/iter", "speedup"
        );
        for c in &cells {
            writeln!(
                out,
                "{:>30} {:>6} {:>8} {:>14.1} {:>10.1}",
                c.runtime, c.procs, c.threads, c.iter_us, c.speedup_vs_serial
            );
        }
        // Headline numbers (paper: 117x / 113x / 74x at 8 procs x 56 threads).
        let headline: Vec<_> = cells
            .iter()
            .filter(|c| c.procs == 8 && c.threads == *threads.last().unwrap())
            .collect();
        writeln!(
            out,
            "\nheadline @ 8 procs x {} threads:",
            threads.last().unwrap()
        );
        for c in headline {
            writeln!(out, "  {:<30} {:>7.1}x", c.runtime, c.speedup_vs_serial);
        }
        if let Some(dir) = csv_dir {
            write_stencil_csv(&dir.join("fig11_12.csv"), &cells)
                .map_err(|e| format!("cannot write fig11_12.csv: {e}"))?;
        }
    }

    if want("ablations") {
        writeln!(out, "\n== Ablations (design choices, DESIGN.md §6) ==");
        writeln!(
            out,
            "offloading-send-buffer threshold sweep @256 KiB message (RTT us):"
        );
        for (thr, us) in ablation_offload_threshold(&ccfg, 256 << 10) {
            let label = if thr == u64::MAX {
                "off".to_string()
            } else {
                format!("{}K", thr >> 10)
            };
            writeln!(out, "  threshold {label:>5}: {us:>10.1} us");
        }
        let (with_us, without_us) = ablation_mr_cache(&ccfg, 1 << 20);
        writeln!(out, "MR cache pool @1 MiB rendezvous: with {with_us:.1} us, without {without_us:.1} us ({:.2}x)",
            without_us / with_us);
        writeln!(out, "eager-threshold sweep @8 KiB message (RTT us):");
        for (thr, us) in ablation_eager_threshold(&ccfg, 8 << 10) {
            writeln!(out, "  eager <= {:>4}K: {us:>10.1} us", thr >> 10);
        }
        let (rf, sf) = ablation_rndv_skew(&ccfg, 512 << 10);
        writeln!(
            out,
            "rendezvous skew @512 KiB: receiver-first {rf:.1} us, sender-first {sf:.1} us"
        );
        let (plain, staged) = ablation_host_staged_bcast(&ccfg, 2 << 20);
        writeln!(out, "host-staged bcast @2 MiB x 8 ranks (future work §VI): plain {plain:.1} us, staged {staged:.1} us ({:.2}x)",
            plain / staged);
    }
    Ok(())
}
