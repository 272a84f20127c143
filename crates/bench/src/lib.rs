//! # bench — experiment harness regenerating every table and figure
//!
//! The `repro` binary drives full parameter sweeps and prints the same
//! rows/series the paper reports (see EXPERIMENTS.md for paper-vs-measured
//! records). This file holds the figure sweeps and ablations; the audited
//! soaks are one [`Scenario`] → [`run`] → [`Run`] path in [`scenario`],
//! armed from the one `--faults` grammar in [`spec`] and serialized and
//! gated by [`report`]. Host-time measurement is `benchmark/`'s job, not
//! this crate's.

use apps::{
    commonly_dcfa, commonly_offload, mpi_pingpong_blocking, mpi_pingpong_nonblocking,
    rdma_direction, stencil_dcfa, stencil_intel_phi, stencil_offload, Direction, MpiRuntime,
    StencilParams,
};
use dcfa_mpi::MpiConfig;
use fabric::ClusterConfig;

pub mod json;
pub mod report;
pub mod scenario;
pub mod spec;
pub mod stitch;

pub use report::{compare_reports, metrics_report_json, METRICS_SCHEMA};
pub use scenario::{
    chaos_run, chaos_schedule, run, Channel, ChaosReport, Run, Scenario, Workload,
    HALO_SOAK_FAULTS, KILL_SOAK_MAX_AFTER_OPS,
};
pub use spec::Faults;

/// Message-size sweep used by the bandwidth/RTT figures (4 B – 2^max_pow,
/// powers of two).
pub fn size_sweep(max_pow: u32) -> Vec<u64> {
    (2..=max_pow).map(|p| 1u64 << p).collect()
}

/// Iteration counts scaled down as messages grow (keeps sweeps quick while
/// staying deterministic).
pub fn iters_for(size: u64) -> u32 {
    match size {
        0..=4096 => 30,
        4097..=262_144 => 12,
        _ => 6,
    }
}

/// A labelled series of (size, value) points.
#[derive(Debug, Clone)]
pub struct Series {
    pub label: String,
    pub points: Vec<(u64, f64)>,
}

/// Fig. 5: RDMA-write bandwidth by direction.
pub fn fig5(ccfg: &ClusterConfig, max_pow: u32) -> Vec<Series> {
    Direction::ALL
        .iter()
        .map(|&dir| Series {
            label: dir.label().to_string(),
            points: size_sweep(max_pow)
                .into_iter()
                .map(|s| (s, rdma_direction(ccfg, dir, s, iters_for(s)).bw_gbs))
                .collect(),
        })
        .collect()
}

/// Figs. 7 and 8: non-blocking RTT (us) and bandwidth (GB/s) for DCFA-MPI
/// with/without the offloading send buffer vs. host MPI.
pub fn fig7_fig8(ccfg: &ClusterConfig, max_pow: u32) -> (Vec<Series>, Vec<Series>) {
    let runtimes = [
        (
            "DCFA-MPI (offload send buffer)",
            MpiRuntime::Dcfa(MpiConfig::dcfa()),
        ),
        (
            "DCFA-MPI (no offload)",
            MpiRuntime::Dcfa(MpiConfig::dcfa_no_offload()),
        ),
        ("host MPI (YAMPII)", MpiRuntime::Dcfa(MpiConfig::host())),
    ];
    let mut rtt = Vec::new();
    let mut bw = Vec::new();
    for (label, rt) in runtimes {
        let mut rtt_pts = Vec::new();
        let mut bw_pts = Vec::new();
        for s in size_sweep(max_pow) {
            let r = mpi_pingpong_nonblocking(ccfg, &rt, s, iters_for(s));
            rtt_pts.push((s, r.rtt_us));
            bw_pts.push((s, r.bw_gbs));
        }
        rtt.push(Series {
            label: label.to_string(),
            points: rtt_pts,
        });
        bw.push(Series {
            label: label.to_string(),
            points: bw_pts,
        });
    }
    (rtt, bw)
}

/// Fig. 9: blocking-ping-pong bandwidth, DCFA-MPI vs Intel-MPI-on-Phi.
pub fn fig9(ccfg: &ClusterConfig, max_pow: u32) -> Vec<Series> {
    let runtimes = [
        ("DCFA-MPI", MpiRuntime::Dcfa(MpiConfig::dcfa())),
        ("Intel MPI on Xeon Phi", MpiRuntime::IntelPhi),
    ];
    runtimes
        .iter()
        .map(|(label, rt)| Series {
            label: label.to_string(),
            points: size_sweep(max_pow)
                .into_iter()
                .map(|s| (s, mpi_pingpong_blocking(ccfg, rt, s, iters_for(s)).bw_gbs))
                .collect(),
        })
        .collect()
}

/// Fig. 9 inset: the 4-byte blocking round trips the paper quotes
/// (15 us vs 28 us). Returns `(dcfa_us, intel_us)`.
pub fn fig9_small_rtt(ccfg: &ClusterConfig) -> (f64, f64) {
    let d = mpi_pingpong_blocking(ccfg, &MpiRuntime::Dcfa(MpiConfig::dcfa()), 4, 30);
    let i = mpi_pingpong_blocking(ccfg, &MpiRuntime::IntelPhi, 4, 30);
    (d.rtt_us, i.rtt_us)
}

/// Fig. 10: communication-only app, per-iteration time for DCFA-MPI vs
/// Xeon+offload.
pub fn fig10(ccfg: &ClusterConfig, max_pow: u32) -> Vec<Series> {
    let sizes = size_sweep(max_pow);
    let dcfa = Series {
        label: "DCFA-MPI".into(),
        points: sizes
            .iter()
            .map(|&s| {
                (
                    s,
                    commonly_dcfa(ccfg, MpiConfig::dcfa(), s, iters_for(s)).iter_us,
                )
            })
            .collect(),
    };
    let off = Series {
        label: "Intel MPI on Xeon + offload".into(),
        points: sizes
            .iter()
            .map(|&s| (s, commonly_offload(ccfg, s, iters_for(s)).iter_us))
            .collect(),
    };
    vec![dcfa, off]
}

/// One Fig. 11/12 grid cell.
#[derive(Debug, Clone)]
pub struct StencilCell {
    pub runtime: &'static str,
    pub procs: usize,
    pub threads: u32,
    pub iter_us: f64,
    pub speedup_vs_serial: f64,
}

/// Figs. 11 and 12: the stencil grid over (runtime, procs, threads),
/// with speed-ups normalized to the 1-proc/1-thread serial run.
pub fn fig11_fig12(
    ccfg: &ClusterConfig,
    n: usize,
    iters: u32,
    procs_list: &[usize],
    threads_list: &[u32],
) -> (f64, Vec<StencilCell>) {
    let serial = stencil_dcfa(
        ccfg,
        MpiConfig::dcfa(),
        StencilParams {
            n,
            iters,
            procs: 1,
            threads: 1,
        },
    );
    let mut cells = Vec::new();
    for &procs in procs_list {
        for &threads in threads_list {
            let p = StencilParams {
                n,
                iters,
                procs,
                threads,
            };
            for (runtime, r) in [
                ("DCFA-MPI", stencil_dcfa(ccfg, MpiConfig::dcfa(), p)),
                ("Intel MPI on Xeon Phi", stencil_intel_phi(ccfg, p)),
                ("Intel MPI on Xeon + offload", stencil_offload(ccfg, p)),
            ] {
                cells.push(StencilCell {
                    runtime,
                    procs,
                    threads,
                    iter_us: r.iter_us,
                    speedup_vs_serial: serial.iter_us / r.iter_us,
                });
            }
        }
    }
    (serial.iter_us, cells)
}

// ---- ablations (design choices DESIGN.md §6 calls out) ----------------------

/// Launch `n` ranks of `body` on a fresh `ccfg` cluster and run them to
/// completion (the ablations below measure inside `body`).
fn simulate(
    ccfg: &ClusterConfig,
    cfg: MpiConfig,
    n: usize,
    body: impl Fn(&mut simcore::Ctx, &mut dcfa_mpi::Comm) + Send + Sync + 'static,
) {
    let mut sim = simcore::Simulation::new();
    let cluster = fabric::Cluster::new(sim.scheduler(), ccfg.clone());
    let ib = verbs::IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster);
    dcfa_mpi::launch(&sim, &ib, &scif, cfg, n, Default::default(), body);
    sim.run_expect();
}

/// Offloading-send-buffer threshold sweep at a fixed message size: the
/// paper tuned the activation point and found 8 KiB best in its
/// environment. Returns `(threshold, rtt_us)` — `u64::MAX` means "never
/// offload".
pub fn ablation_offload_threshold(ccfg: &ClusterConfig, msg: u64) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    for thr in [1u64 << 10, 4 << 10, 8 << 10, 32 << 10, 128 << 10, u64::MAX] {
        let cfg = if thr == u64::MAX {
            MpiConfig::dcfa_no_offload()
        } else {
            MpiConfig {
                offload_threshold: Some(thr),
                ..MpiConfig::dcfa()
            }
        };
        let r = mpi_pingpong_nonblocking(ccfg, &MpiRuntime::Dcfa(cfg), msg, 8);
        out.push((thr, r.rtt_us));
    }
    out
}

/// MR-cache ablation: ping-pong a large (rendezvous) message with the
/// buffer cache pool on vs. off. Returns `(with_us, without_us)`.
///
/// Beyond timing, this asserts the cache actually behaved as configured:
/// with the pool on, repeated sends from the same buffer must hit; with
/// `mr_cache_capacity = 0` there must be no hits and no region may stay
/// resident after the run (the leak this layer's lease model fixed).
pub fn ablation_mr_cache(ccfg: &ClusterConfig, msg: u64) -> (f64, f64) {
    use dcfa_mpi::{Communicator, Src, TagSel};
    use std::sync::Arc;

    fn run(ccfg: &ClusterConfig, msg: u64, cached: bool) -> f64 {
        let cfg = if cached {
            MpiConfig::dcfa_no_offload()
        } else {
            MpiConfig {
                mr_cache_capacity: 0,
                ..MpiConfig::dcfa_no_offload()
            }
        };
        let iters = 8u32;
        let out = Arc::new(simcore::SimCell::new(0.0f64));
        let out2 = out.clone();
        simulate(ccfg, cfg, 2, move |ctx, comm| {
            let buf = comm.alloc(msg).unwrap();
            let t0 = ctx.now();
            for _ in 0..iters {
                if comm.rank() == 0 {
                    comm.send(ctx, &buf, 1, 1).unwrap();
                    comm.recv(ctx, &buf, Src::Rank(1), TagSel::Tag(1)).unwrap();
                } else {
                    comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
                    comm.send(ctx, &buf, 0, 1).unwrap();
                }
            }
            if comm.rank() == 0 {
                *out2.lock() = (ctx.now() - t0).as_micros_f64() / f64::from(iters);
            }
            let (hits, misses) = comm.mr_cache_stats();
            if cached {
                assert!(
                    hits > 0,
                    "cache on: repeated same-buffer sends must hit (hits={hits})"
                );
            } else {
                assert_eq!(hits, 0, "cache off: no lookups may hit");
                assert!(misses > 0, "cache off: every acquire is a miss");
                assert_eq!(
                    comm.mr_cache_len(),
                    0,
                    "cache off: no region may stay resident (leak)"
                );
            }
            assert_eq!(comm.mr_pinned_len(), 0, "no lease may outlive its transfer");
        });
        let v = *out.lock();
        v
    }

    (run(ccfg, msg, true), run(ccfg, msg, false))
}

/// Eager/rendezvous switch-point sweep at a fixed message size.
pub fn ablation_eager_threshold(ccfg: &ClusterConfig, msg: u64) -> Vec<(u64, f64)> {
    let mut out = Vec::new();
    for thr in [1u64 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10] {
        let cfg = MpiConfig {
            eager_threshold: thr,
            ring_slot_payload: thr.max(16 << 10),
            ..MpiConfig::dcfa()
        };
        let r = mpi_pingpong_nonblocking(ccfg, &MpiRuntime::Dcfa(cfg), msg, 8);
        out.push((thr, r.rtt_us));
    }
    out
}

/// Rendezvous-flavour timing study: skew the receiver early (receiver-
/// first RTR path) vs. the sender early (sender-first RTS path) and
/// report per-message time for each. Returns `(recv_first_us,
/// send_first_us)`.
pub fn ablation_rndv_skew(ccfg: &ClusterConfig, msg: u64) -> (f64, f64) {
    use dcfa_mpi::{Communicator, Src, TagSel};
    use std::sync::Arc;

    fn run(ccfg: &ClusterConfig, msg: u64, recv_first: bool) -> f64 {
        let out = Arc::new(simcore::SimCell::new(0.0f64));
        let out2 = out.clone();
        simulate(ccfg, MpiConfig::dcfa_no_offload(), 2, move |ctx, comm| {
            let buf = comm.alloc(msg).unwrap();
            let skew = simcore::SimDuration::from_micros(200);
            for _ in 0..6 {
                if comm.rank() == 0 {
                    if recv_first {
                        ctx.sleep(skew);
                    }
                    let t0 = ctx.now();
                    comm.send(ctx, &buf, 1, 1).unwrap();
                    *out2.lock() += (ctx.now() - t0).as_micros_f64() / 6.0;
                } else {
                    if !recv_first {
                        ctx.sleep(skew);
                    }
                    comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
                }
            }
        });
        let v = *out.lock();
        v
    }
    (run(ccfg, msg, true), run(ccfg, msg, false))
}

/// Host-staged-collective ablation (the paper's §VI future work,
/// implemented in `dcfa_mpi::collectives`): plain vs host-staged broadcast
/// across 8 ranks. Returns `(plain_us, staged_us)` for `msg` bytes.
pub fn ablation_host_staged_bcast(ccfg: &ClusterConfig, msg: u64) -> (f64, f64) {
    use dcfa_mpi::collectives;
    use std::sync::Arc;

    let out = Arc::new(simcore::SimCell::new((0.0f64, 0.0f64)));
    let out2 = out.clone();
    simulate(ccfg, MpiConfig::dcfa(), 8, move |ctx, comm| {
        use dcfa_mpi::Communicator;
        let buf = comm.alloc(msg).unwrap();
        collectives::barrier(comm, ctx).unwrap();
        let t0 = ctx.now();
        collectives::bcast(comm, ctx, &buf, 0).unwrap();
        collectives::barrier(comm, ctx).unwrap();
        let plain = (ctx.now() - t0).as_micros_f64();
        let t1 = ctx.now();
        collectives::bcast_host_staged(comm, ctx, &buf, 0).unwrap();
        collectives::barrier(comm, ctx).unwrap();
        let staged = (ctx.now() - t1).as_micros_f64();
        if comm.rank() == 0 {
            *out2.lock() = (plain, staged);
        }
    });
    let v = *out.lock();
    v
}

/// Write a set of series as CSV: `size,<label1>,<label2>,...`.
pub fn write_series_csv(path: &std::path::Path, series: &[Series]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(f, "size")?;
    for s in series {
        write!(f, ",{}", s.label.replace(',', ";"))?;
    }
    writeln!(f)?;
    if let Some(first) = series.first() {
        for (i, &(size, _)) in first.points.iter().enumerate() {
            write!(f, "{size}")?;
            for s in series {
                write!(f, ",{}", s.points[i].1)?;
            }
            writeln!(f)?;
        }
    }
    f.flush()
}

/// Write the stencil grid as CSV: `runtime,procs,threads,iter_us,speedup`.
pub fn write_stencil_csv(path: &std::path::Path, cells: &[StencilCell]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "runtime,procs,threads,iter_us,speedup_vs_serial")?;
    for c in cells {
        writeln!(
            f,
            "{},{},{},{},{}",
            c.runtime.replace(',', ";"),
            c.procs,
            c.threads,
            c.iter_us,
            c.speedup_vs_serial
        )?;
    }
    f.flush()
}

/// Render a set of series as an aligned table (sizes as rows).
pub fn format_series(title: &str, unit: &str, series: &[Series]) -> String {
    use std::fmt::Write;
    let mut out = format!("\n== {title} ==\n{:>10}", "size");
    for s in series {
        let _ = write!(out, "  {:>30}", s.label);
    }
    let _ = writeln!(out, "  [{unit}]");
    if let Some(first) = series.first() {
        for (i, &(size, _)) in first.points.iter().enumerate() {
            let _ = write!(out, "{size:>10}");
            for s in series {
                let _ = write!(out, "  {:>30.3}", s.points[i].1);
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_sweep_is_powers_of_two() {
        let s = size_sweep(10);
        assert_eq!(s.first(), Some(&4));
        assert_eq!(s.last(), Some(&1024));
        for w in s.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }

    #[test]
    fn iters_shrink_with_size() {
        assert!(iters_for(4) > iters_for(64 << 10));
        assert!(iters_for(64 << 10) > iters_for(4 << 20));
        assert!(iters_for(4 << 20) >= 4, "large sizes keep enough samples");
    }

    #[test]
    fn csv_writer_roundtrip() {
        let dir = std::env::temp_dir().join("dcfa-bench-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let series = vec![
            Series {
                label: "a,b".into(),
                points: vec![(4, 1.5), (8, 2.5)],
            },
            Series {
                label: "c".into(),
                points: vec![(4, 3.0), (8, 4.0)],
            },
        ];
        write_series_csv(&path, &series).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("size,a;b,c")); // comma escaped
        assert_eq!(lines.next(), Some("4,1.5,3"));
        assert_eq!(lines.next(), Some("8,2.5,4"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stencil_csv_writer() {
        let dir = std::env::temp_dir().join("dcfa-bench-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.csv");
        let cells = vec![StencilCell {
            runtime: "DCFA-MPI",
            procs: 8,
            threads: 56,
            iter_us: 166.1,
            speedup_vs_serial: 118.7,
        }];
        write_stencil_csv(&path, &cells).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("DCFA-MPI,8,56,166.1,118.7"));
        std::fs::remove_file(&path).unwrap();
    }
}
