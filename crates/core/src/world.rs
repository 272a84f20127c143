//! The `mpirun` analogue: launch `n` ranks as simulated processes, run the
//! out-of-band bootstrap (QP number / ring address exchange — the job the
//! real launcher does over its PMI channel), and hand each rank a
//! [`Comm`].

use std::sync::Arc;

use fabric::{Domain, HealthBoard, NodeId};
use parking_lot::Mutex;
use scif::ScifFabric;
use simcore::{Ctx, SimDuration, SimEvent, Simulation};
use verbs::{IbFabric, VerbsContext};

use crate::comm::Comm;
use crate::config::{MpiConfig, Placement};
use crate::connect::ConnDirectory;
use crate::engine::{Engine, KillMarker};
use crate::resources::Resources;
use crate::types::Rank;

struct Boot {
    n: usize,
    event: SimEvent,
    /// Start/finalize barrier counter. Endpoints are no longer exchanged
    /// here: QPs and rings establish lazily on first touch through the
    /// [`ConnDirectory`], so bootstrap is O(ranks), not O(ranks²).
    arrived: Mutex<usize>,
    /// Ranks that fail-stopped and will never arrive again. A dead rank
    /// counts toward every barrier generation after its death, so
    /// survivors are not stranded at finalize.
    dead: Mutex<usize>,
}

/// One fail-stop injection: kill `rank` as it enters its
/// `after_ops`-th MPI operation (`isend`/`irecv` entry count — a
/// deterministic trigger independent of wall-clock and timer jitter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    pub rank: Rank,
    pub after_ops: u64,
}

/// Launch options beyond the MPI configuration itself.
#[derive(Debug, Clone)]
pub struct LaunchOpts {
    /// Node for rank r is `nodes[r % nodes.len()]`… by default simply
    /// `r % cluster nodes` (one rank per node up to the cluster size, like
    /// the paper's one-Phi-per-node runs).
    pub ranks_per_node: usize,
    /// *Symmetric mode* (the third Intel MPI mode of §III-B): an explicit
    /// per-rank placement overriding `cfg.placement`. Ranks on the Phi use
    /// DCFA (with the offloading send buffer); ranks on the host use host
    /// verbs directly. `None` = homogeneous placement from the config.
    pub placements: Option<Vec<Placement>>,
    /// Shared protocol-event ring every rank's engine records into
    /// (see [`crate::trace`]). `None` = tracing off.
    pub tracer: Option<crate::trace::TraceBuf>,
    /// Tunables (and fault plans) for the node daemons this launch
    /// spawns when any rank runs on the Phi. When a tracer is
    /// attached and no explicit hook is set, control-plane events are
    /// bridged into the trace ring so the auditor sees crash/respawn/
    /// re-attach alongside the data path.
    pub daemon: dcfa::DaemonConfig,
    /// Shared latency-metrics hub every rank's engine records into (see
    /// [`crate::metrics`]). `None` = profiling off.
    pub metrics: Option<crate::metrics::MetricsHub>,
    /// Fail-stop kill schedule. Non-empty installs the failure subsystem
    /// (health board + QP teardown hooks); each spec tears one rank down
    /// mid-flight. Requires one rank per node — a kill models a whole
    /// co-processor card dying.
    pub kills: Vec<KillSpec>,
    /// Deterministic connect-handshake frame loss `(after, count)`: the
    /// launch's [`ConnDirectory`] silently drops `count` REQ/ACK frames
    /// after letting `after` through. Exercises the lazy-connect
    /// retry/backoff path (see `CommStats::conn_retries`).
    pub conn_drops: Option<(u64, u64)>,
    /// Caller-supplied health board (must be sized to the rank count).
    /// Lets a harness read detection counters and latency samples after
    /// the run. `None` = the launch creates one itself when the failure
    /// subsystem is needed.
    pub health: Option<Arc<HealthBoard>>,
}

impl Default for LaunchOpts {
    fn default() -> Self {
        LaunchOpts {
            ranks_per_node: 1,
            placements: None,
            tracer: None,
            daemon: dcfa::DaemonConfig::default(),
            metrics: None,
            kills: Vec::new(),
            conn_drops: None,
            health: None,
        }
    }
}

/// Bridge [`dcfa::CtrlPerf`] latency samples into the metrics hub:
/// command round-trips and offload-twin PCIe syncs become
/// [`crate::metrics::Phase::CtrlRoundtrip`] / `OffloadSync` histogram
/// entries (peer unknown at this layer).
fn ctrl_perf_probe(hub: crate::metrics::MetricsHub) -> dcfa::PerfProbe {
    use crate::metrics::Phase;
    Arc::new(move |p: dcfa::CtrlPerf| {
        let phase = match p.op {
            dcfa::CtrlOp::Command => Phase::CtrlRoundtrip,
            dcfa::CtrlOp::OffloadSync => Phase::OffloadSync,
        };
        hub.record(phase, p.bytes, None, p.ns);
    })
}

/// Bridge [`dcfa::CtrlEvent`]s into the structured trace ring, so the
/// auditor can check control-plane invariants (crash/respawn pairing,
/// full journal replay) against the same stream as the data path.
fn ctrl_trace_hook(buf: crate::trace::TraceBuf) -> dcfa::CtrlHook {
    use crate::trace::TraceEvent;
    use dcfa::CtrlEvent;
    Arc::new(move |ev: &CtrlEvent| {
        let tev = match *ev {
            CtrlEvent::CmdTimeout { client, seq } => TraceEvent::CtrlTimeout { client, seq },
            CtrlEvent::CmdRetry {
                client,
                seq,
                attempt,
            } => TraceEvent::CtrlRetry {
                client,
                seq,
                attempt,
            },
            CtrlEvent::Reattach {
                client,
                epoch,
                journaled,
                replayed,
            } => TraceEvent::CtrlReattach {
                client,
                epoch,
                journaled,
                replayed,
            },
            CtrlEvent::DaemonCrash { node, epoch } => TraceEvent::DaemonCrash {
                node: node.0,
                epoch,
            },
            CtrlEvent::DaemonRespawn { node, epoch } => TraceEvent::DaemonRespawn {
                node: node.0,
                epoch,
            },
            CtrlEvent::LeaseReclaim {
                node,
                client,
                objects,
            } => TraceEvent::LeaseReclaim {
                node: node.0,
                client,
                objects,
            },
            CtrlEvent::ReplyReplayed { node, client, seq } => TraceEvent::CtrlReplay {
                node: node.0,
                client,
                seq,
            },
            // The engine records rank-level degradation itself (it knows
            // the rank; the daemon only knows the session id).
            CtrlEvent::OffloadDegraded { .. } => return,
        };
        buf.record(tev);
    })
}

/// Launch `n` MPI ranks running `f`. Rank `r` executes on node
/// `r / ranks_per_node % cluster_nodes`, in the domain selected by
/// `cfg.placement`.
///
/// Returns the [`dcfa::DcfaStats`] counter handle for the daemons this
/// call spawned (`None` when it spawned none: every rank on the host).
pub fn launch<F>(
    sim: &Simulation,
    ib: &Arc<IbFabric>,
    scif: &Arc<ScifFabric>,
    cfg: MpiConfig,
    n: usize,
    opts: LaunchOpts,
    f: F,
) -> Option<dcfa::DcfaStats>
where
    F: Fn(&mut Ctx, &mut Comm) + Send + Sync + 'static,
{
    assert!(n >= 1, "need at least one rank");
    cfg.validate();
    if let Some(p) = &opts.placements {
        assert_eq!(p.len(), n, "one placement per rank");
    }
    let any_phi = opts
        .placements
        .as_ref()
        .map(|ps| ps.contains(&Placement::Phi))
        .unwrap_or(cfg.placement == Placement::Phi);
    // Bridge control-plane events into the trace ring (unless the caller
    // installed their own observer).
    let ctrl_hook: Option<dcfa::CtrlHook> = opts.tracer.clone().map(ctrl_trace_hook);
    // Bridge control-plane latency samples into the metrics hub.
    let ctrl_perf: Option<dcfa::PerfProbe> = opts.metrics.clone().map(ctrl_perf_probe);
    let daemon_stats = if any_phi {
        let mut dcfg = opts.daemon.clone();
        if dcfg.hook.is_none() {
            dcfg.hook = ctrl_hook.clone();
        }
        Some(dcfa::spawn_daemons_with(&sim.scheduler(), scif, ib, dcfg))
    } else {
        None
    };
    let boot = Arc::new(Boot {
        n,
        event: SimEvent::new(),
        arrived: Mutex::new(0),
        dead: Mutex::new(0),
    });
    // Connect requests travel one wire hop, like the control traffic of
    // the real out-of-band channel.
    let conn = ConnDirectory::new(n, ib.cluster().config().cost.ib_latency);
    if let Some((after, count)) = opts.conn_drops {
        conn.inject_drop_after(after, count);
    }
    // Failure subsystem: installed when a kill schedule or a detection
    // TTL asks for it; fault-free launches pay nothing.
    let board = if !opts.kills.is_empty() || cfg.peer_ttl.is_some() || opts.health.is_some() {
        let b = opts.health.clone().unwrap_or_else(|| HealthBoard::new(n));
        assert_eq!(b.num_ranks(), n, "health board sized to the rank count");
        ib.cluster().install_health(b.clone());
        Some(b)
    } else {
        None
    };
    if !opts.kills.is_empty() {
        assert_eq!(
            opts.ranks_per_node.max(1),
            1,
            "fail-stop injection kills a whole co-processor card: use one rank per node"
        );
        for k in &opts.kills {
            assert!(k.rank < n, "kill spec targets rank {} of {n}", k.rank);
        }
        silence_kill_panics();
    }
    let f = Arc::new(f);
    let nodes = ib.cluster().num_nodes();
    for r in 0..n {
        let node = NodeId(r / opts.ranks_per_node.max(1) % nodes);
        let ib = ib.clone();
        let scif = scif.clone();
        let mut cfg = cfg.clone();
        if let Some(p) = opts.placements.as_ref().map(|ps| ps[r]) {
            cfg.placement = p;
            if p == Placement::Host {
                // The offloading send buffer is a Phi-only mechanism.
                cfg.offload_threshold = None;
            }
        }
        let boot = boot.clone();
        let f = f.clone();
        let tracer = opts.tracer.clone();
        let metrics = opts.metrics.clone();
        let daemon_stats = daemon_stats.clone();
        let ctrl_hook = ctrl_hook.clone();
        let ctrl_perf = ctrl_perf.clone();
        let conn = conn.clone();
        let board = board.clone();
        let kill_after = opts.kills.iter().find(|k| k.rank == r).map(|k| k.after_ops);
        // Fail-stop teardown: error every QP on the rank's node (one
        // rank per node when kills are armed, so this is exactly the
        // rank's fabric presence).
        if let Some(b) = &board {
            let ib_down = ib.clone();
            b.set_teardown(r, Box::new(move |_s| ib_down.kill_node(node)));
        }
        sim.spawn(format!("rank{r}"), move |ctx| {
            let res = match cfg.placement {
                Placement::Phi => {
                    let dcfg = dcfa::DcfaConfig {
                        heartbeat_interval: cfg.heartbeat_interval,
                        stats: daemon_stats.clone().unwrap_or_default(),
                        hook: ctrl_hook,
                        perf: ctrl_perf,
                        ..dcfa::DcfaConfig::default()
                    };
                    let d = dcfa::DcfaContext::open_with(ctx, &ib, &scif, node, dcfg)
                        .expect("DCFA open failed");
                    Resources::Phi(d)
                }
                Placement::Host => {
                    Resources::Host(VerbsContext::open(ib.clone(), node, Domain::Host))
                }
            };
            let peer_ttl = cfg.peer_ttl;
            let mut engine = Engine::create(ctx, r, n, cfg, res, conn);
            if let Some(t) = &tracer {
                engine.set_tracer(t.clone());
            }
            if let Some(m) = &metrics {
                engine.set_metrics(m.clone());
            }
            if let Some(b) = &board {
                engine.set_health(b.clone());
                // Deaths and revocations wake ranks blocked in wait.
                b.register_watcher(engine.progress_event_handle());
                if let Some(k) = kill_after {
                    engine.set_kill_after(k);
                }
                if let Some(ttl) = peer_ttl {
                    let period = SimDuration::from_nanos((ttl.as_nanos() / 4).max(1));
                    b.start_sidecar(&ctx.scheduler(), r, period, ttl);
                }
            }

            // Start barrier: every rank has registered with the connect
            // directory before anyone's first send can race it. Kills
            // only fire on MPI entry ops, so every rank passes this.
            barrier_boot(ctx, &boot);

            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut comm = Comm::new(engine);
                f(ctx, &mut comm);

                // MPI_Finalize: flush outstanding protocol
                // acknowledgements, synchronize, then tear down.
                comm.quiesce(ctx);
                barrier_boot(ctx, &boot);
                comm.finalize(ctx);
            }));
            match run {
                Ok(()) => {}
                Err(payload) => {
                    if payload.downcast_ref::<KillMarker>().is_none() {
                        std::panic::resume_unwind(payload);
                    }
                    // Fail-stop unwind: the rank is gone. Count it so
                    // survivors are not stranded at the finalize barrier.
                    note_death(ctx, &boot);
                }
            }
            if let Some(b) = &board {
                b.mark_done();
            }
        });
    }
    daemon_stats
}

/// Out-of-band barrier used by the launcher (not charged as MPI traffic).
/// Dead ranks count toward the generation target: a barrier generation
/// completes when live arrivals plus deaths cover every rank.
fn barrier_boot(ctx: &mut Ctx, boot: &Boot) {
    let gen_target = {
        let mut a = boot.arrived.lock();
        *a += 1;
        (*a + *boot.dead.lock()).div_ceil(boot.n) * boot.n
    };
    boot.event.notify_all(&ctx.scheduler());
    loop {
        let seen = boot.event.epoch();
        if *boot.arrived.lock() + *boot.dead.lock() >= gen_target {
            break;
        }
        ctx.wait_event(&boot.event, seen, "mpi finalize barrier");
    }
}

/// A rank fail-stopped: record the death and wake barrier waiters.
fn note_death(ctx: &mut Ctx, boot: &Boot) {
    *boot.dead.lock() += 1;
    boot.event.notify_all(&ctx.scheduler());
}

/// Fail-stop unwinds are expected control flow, not failures: keep the
/// default panic hook from spraying a backtrace for every injected kill
/// while leaving real panics fully reported.
fn silence_kill_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<KillMarker>().is_none() {
                prev(info);
            }
        }));
    });
}
