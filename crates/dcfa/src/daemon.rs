//! The host-side DCFA CMD server: the delegation process that services
//! offloaded InfiniBand resource operations for Phi-resident programs.
//!
//! One daemon runs per node; each connecting CMD client (one per MPI rank)
//! gets a dedicated handler process, mirroring the paper's `mcexec`
//! delegation process with the DCFA CMD server "registered as an extension
//! of the delegation process" (§IV-B1). Created InfiniBand objects are kept
//! in per-client *sessions* shared across the node's handlers, keyed by the
//! published MR key.
//!
//! The daemon is a first-class failure domain. Three mechanisms make the
//! control plane fault-tolerant:
//!
//! * **Reply-dedup cache** — commands arrive framed with a client sequence
//!   id; each session remembers its recent replies so a retransmitted
//!   command is answered from cache, never re-executed (no double `RegMr`).
//! * **Crash + respawn** — an armed [`DaemonFault`] can crash the node's
//!   delegation process after N commands: every session is lost (host twin
//!   buffers die with the process address space and are freed; plain MRs
//!   survive on the HCA but their metadata is gone), the listen port closes,
//!   and a supervisor respawns the daemon after `restart_delay` with a
//!   bumped incarnation epoch. Replies carry the epoch so clients detect the
//!   restart and replay their resource journal ([`Cmd::AdoptMr`]).
//! * **Lease reclamation** — clients renew a lease with fire-and-forget
//!   [`Cmd::Heartbeat`]s; a per-node reaper reclaims the sessions of expired
//!   clients, deregistering MRs and freeing offload twins, so a client that
//!   dies without `Bye` cannot leak host memory for the life of the run.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use fabric::{Buffer, Cluster, Domain, MemRef, NodeId};
use parking_lot::Mutex;
use scif::{ScifEndpoint, ScifFabric};
use simcore::{Ctx, Scheduler, SimDuration, SimEvent, SimTime};
use verbs::{IbFabric, VerbsContext};

use crate::wire::{
    decode_cmd_frame, encode_reply_frame, err_code, Cmd, Reply, CLIENT_NONE, SEQ_NONE,
};

/// The well-known SCIF port the DCFA daemon listens on.
pub const DCFA_PORT: scif::Port = 4791;

/// Counters the host daemons maintain while servicing offloaded resource
/// operations. Snapshot of a [`DcfaStats`] handle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DcfaCounters {
    /// CMD clients accepted (one per MPI rank per node, plus reconnects).
    pub connections: u64,
    /// Commands serviced, of any kind (including errors).
    pub commands: u64,
    /// `RegMr` registrations performed.
    pub mr_registered: u64,
    /// `DeregMr` deregistrations performed (including session drains).
    pub mr_deregistered: u64,
    /// Offloading-buffer twins allocated + registered (`RegOffloadMr`).
    pub offload_registered: u64,
    /// Offloading-buffer twins released (including session drains).
    pub offload_deregistered: u64,
    /// Link-fault plans armed on the fabric (`InjectFault`).
    pub faults_armed: u64,
    /// Error replies sent.
    pub errors: u64,
    /// Client-side command retransmissions after a reply timeout.
    pub cmd_retries: u64,
    /// Client-side reply timeouts (each retry is preceded by one).
    pub cmd_timeouts: u64,
    /// Daemon incarnations lost to injected crashes.
    pub daemon_crashes: u64,
    /// Daemon incarnations respawned by the supervisor after a crash.
    pub daemon_respawns: u64,
    /// Expired client sessions reclaimed by the lease reaper.
    pub leases_reclaimed: u64,
    /// Retransmitted commands answered from the reply-dedup cache.
    pub reply_replays: u64,
    /// Client re-attaches (`Hello` with a previously assigned id).
    pub reattaches: u64,
    /// MR metadata entries re-adopted during journal replay.
    pub mrs_adopted: u64,
    /// Heartbeats received.
    pub heartbeats: u64,
}

/// Shared handle to the daemons' counters, returned by [`spawn_daemons`]
/// / [`spawn_node_daemon`]. Clones observe the same counters. The client
/// side ([`crate::DcfaContext`]) tallies its retry/timeout counters into
/// the same handle when given one.
#[derive(Debug, Clone, Default)]
pub struct DcfaStats(Arc<Mutex<DcfaCounters>>);

impl DcfaStats {
    /// Current counter values.
    pub fn snapshot(&self) -> DcfaCounters {
        *self.0.lock()
    }

    pub(crate) fn update(&self, f: impl FnOnce(&mut DcfaCounters)) {
        f(&mut self.0.lock());
    }
}

// ---------------------------------------------------------------------------
// Control-plane events
// ---------------------------------------------------------------------------

/// Control-plane happenings both sides of the command channel report
/// through an optional hook, so an embedding layer (the MPI core's tracer)
/// can audit fault handling without this crate depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlEvent {
    /// A client command timed out waiting for its reply.
    CmdTimeout { client: u32, seq: u32 },
    /// A client retransmitted a timed-out command (`attempt` starts at 1).
    CmdRetry { client: u32, seq: u32, attempt: u32 },
    /// A client reconnected and replayed its resource journal; `replayed`
    /// of `journaled` entries were re-established under daemon `epoch`.
    Reattach {
        client: u32,
        epoch: u32,
        journaled: u64,
        replayed: u64,
    },
    /// The node's delegation process crashed; `epoch` is the incarnation
    /// that will replace it.
    DaemonCrash { node: NodeId, epoch: u32 },
    /// The supervisor respawned the node daemon as incarnation `epoch`.
    DaemonRespawn { node: NodeId, epoch: u32 },
    /// The lease reaper reclaimed an expired client session holding
    /// `objects` IB objects.
    LeaseReclaim {
        node: NodeId,
        client: u32,
        objects: u64,
    },
    /// A retransmitted command was answered from the reply-dedup cache.
    ReplyReplayed { node: NodeId, client: u32, seq: u32 },
    /// A client gave up on offload twins and degraded to direct-from-Phi
    /// rendezvous sends.
    OffloadDegraded { client: u32 },
}

/// Observer callback for [`CtrlEvent`]s.
pub type CtrlHook = Arc<dyn Fn(&CtrlEvent) + Send + Sync>;

/// Which control-plane operation a [`CtrlPerf`] sample timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlOp {
    /// One full `command()` round-trip, including retries and reattaches.
    Command,
    /// One offload-twin PCIe sync (`sync_offload_mr`).
    OffloadSync,
}

/// A latency sample from the control plane, in virtual nanoseconds.
/// Reported through [`PerfProbe`] so an embedding layer can feed its own
/// histograms without this crate depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrlPerf {
    pub op: CtrlOp,
    /// Bytes moved, when the operation has a payload (offload syncs).
    pub bytes: u64,
    /// Elapsed virtual time in nanoseconds.
    pub ns: u64,
}

/// Observer callback for [`CtrlPerf`] samples.
pub type PerfProbe = Arc<dyn Fn(CtrlPerf) + Send + Sync>;

// ---------------------------------------------------------------------------
// Daemon fault plans
// ---------------------------------------------------------------------------

/// What an armed daemon fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DaemonFaultKind {
    /// The delegation process dies mid-command: no reply, all sessions
    /// lost, listen port closed until the supervisor respawns it.
    Crash,
    /// The command executes but its reply is lost (exercises the client
    /// retransmit + reply-dedup path).
    DropReply,
    /// The reply is held past the client's timeout before being sent.
    DelayReply,
}

/// One planned control-plane fault: fire on the sequenced command serviced
/// after skipping `after_cmds` matching commands on the scoped node
/// (`None` matches every node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonFault {
    pub after_cmds: u64,
    pub kind: DaemonFaultKind,
    pub node: Option<NodeId>,
}

// ---------------------------------------------------------------------------
// Daemon configuration
// ---------------------------------------------------------------------------

/// Tunables for the node daemons.
#[derive(Clone)]
pub struct DaemonConfig {
    /// Downtime between a crash and the supervisor's respawn.
    pub restart_delay: SimDuration,
    /// Client-lease time-to-live; `None` disables the reaper (sessions of
    /// silent clients are kept until `Bye`).
    pub lease_ttl: Option<SimDuration>,
    /// How often the reaper scans for expired leases.
    pub reaper_period: SimDuration,
    /// Replies remembered per session for retransmit deduplication.
    pub dedup_depth: usize,
    /// Consecutive undecodable commands before the handler assumes a
    /// corrupt peer, drains its session and disconnects.
    pub decode_storm_limit: u32,
    /// How long a `DelayReply` fault holds the reply (should exceed the
    /// client command timeout to force a retransmit).
    pub delay_reply: SimDuration,
    /// Armed control-plane fault plans.
    pub faults: Vec<DaemonFault>,
    /// Control-plane event observer.
    pub hook: Option<CtrlHook>,
}

impl fmt::Debug for DaemonConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DaemonConfig")
            .field("restart_delay", &self.restart_delay)
            .field("lease_ttl", &self.lease_ttl)
            .field("reaper_period", &self.reaper_period)
            .field("dedup_depth", &self.dedup_depth)
            .field("decode_storm_limit", &self.decode_storm_limit)
            .field("delay_reply", &self.delay_reply)
            .field("faults", &self.faults)
            .field("hook", &self.hook.as_ref().map(|_| ".."))
            .finish()
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            restart_delay: SimDuration::from_micros(100),
            lease_ttl: None,
            reaper_period: SimDuration::from_micros(200),
            dedup_depth: 32,
            decode_storm_limit: 8,
            delay_reply: SimDuration::from_micros(2000),
            faults: Vec::new(),
            hook: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Shared per-node state
// ---------------------------------------------------------------------------

/// One client's control-plane state, shared across the node's handler
/// incarnations so crash drains, lease reclamation and reconnecting
/// handlers all see the same objects.
struct Session {
    /// key -> (registered buffer, host twin if offload-mode).
    objects: HashMap<u32, (Buffer, bool)>,
    /// Recent (seq, reply) pairs for retransmit deduplication.
    replies: VecDeque<(u32, Reply)>,
    /// Lease renewal instant (any command or heartbeat).
    last_seen: SimTime,
}

impl Session {
    fn new(now: SimTime) -> Self {
        Session {
            objects: HashMap::new(),
            replies: VecDeque::new(),
            last_seen: now,
        }
    }
}

struct NodeShared {
    /// Daemon incarnation; bumped on crash so stale handlers die.
    epoch: u32,
    next_client: u32,
    sessions: HashMap<u32, Session>,
    faults: Vec<DaemonFault>,
}

/// Everything a node's daemon processes share.
struct NodeCtl {
    scif: Arc<ScifFabric>,
    ib: Arc<IbFabric>,
    node: NodeId,
    stats: DcfaStats,
    cfg: DaemonConfig,
    shared: Mutex<NodeShared>,
    /// Notified when a session is created; the lease reaper blocks on it
    /// while there is nothing to watch (a polling daemon would otherwise
    /// keep the event queue non-empty and the simulation alive forever).
    session_added: SimEvent,
}

fn host_ref(node: NodeId) -> MemRef {
    MemRef {
        node,
        domain: Domain::Host,
    }
}

fn emit(ctl: &NodeCtl, ev: CtrlEvent) {
    if let Some(hook) = &ctl.cfg.hook {
        hook(&ev);
    }
}

// ---------------------------------------------------------------------------
// Spawning
// ---------------------------------------------------------------------------

/// Spawn one DCFA host daemon per cluster node. Must run before any
/// [`crate::DcfaContext::open`] (clients retry briefly, so same-instant
/// spawn ordering is forgiving). Returns a cluster-wide counter handle
/// aggregated across all node daemons.
pub fn spawn_daemons(
    sched: &Scheduler,
    scif_fabric: &Arc<ScifFabric>,
    ib: &Arc<IbFabric>,
) -> DcfaStats {
    spawn_daemons_with(sched, scif_fabric, ib, DaemonConfig::default())
}

/// [`spawn_daemons`] with explicit daemon tunables (fault plans, lease
/// TTL, restart delay, control-plane hook).
pub fn spawn_daemons_with(
    sched: &Scheduler,
    scif_fabric: &Arc<ScifFabric>,
    ib: &Arc<IbFabric>,
    cfg: DaemonConfig,
) -> DcfaStats {
    let stats = DcfaStats::default();
    for n in 0..scif_fabric.cluster().num_nodes() {
        spawn_node_daemon_cfg(
            sched,
            scif_fabric,
            ib,
            NodeId(n),
            cfg.clone(),
            stats.clone(),
        );
    }
    stats
}

/// Spawn the DCFA host daemon for one node.
pub fn spawn_node_daemon(
    sched: &Scheduler,
    scif_fabric: &Arc<ScifFabric>,
    ib: &Arc<IbFabric>,
    node: NodeId,
) -> DcfaStats {
    let stats = DcfaStats::default();
    spawn_node_daemon_cfg(
        sched,
        scif_fabric,
        ib,
        node,
        DaemonConfig::default(),
        stats.clone(),
    );
    stats
}

fn spawn_node_daemon_cfg(
    sched: &Scheduler,
    scif_fabric: &Arc<ScifFabric>,
    ib: &Arc<IbFabric>,
    node: NodeId,
    cfg: DaemonConfig,
    stats: DcfaStats,
) {
    let faults = cfg.faults.clone();
    let ctl = Arc::new(NodeCtl {
        scif: scif_fabric.clone(),
        ib: ib.clone(),
        node,
        stats,
        cfg,
        shared: Mutex::new(NodeShared {
            epoch: 1,
            next_client: 1,
            sessions: HashMap::new(),
            faults,
        }),
        session_added: SimEvent::new(),
    });
    spawn_acceptor(sched, ctl.clone(), 1);
    spawn_reaper(sched, ctl);
}

/// One daemon incarnation: listen, accept, hand each connection to a
/// dedicated handler stamped with the current epoch.
fn spawn_acceptor(sched: &Scheduler, ctl: Arc<NodeCtl>, incarnation: u32) {
    sched.spawn_daemon(
        format!("dcfa-daemon-{}.e{incarnation}", ctl.node),
        move |ctx| {
            let listener = ctl.scif.listen(host_ref(ctl.node), DCFA_PORT);
            let mut conn_id = 0u32;
            loop {
                let ep = listener.accept(ctx);
                ctl.stats.update(|c| c.connections += 1);
                let epoch = ctl.shared.lock().epoch;
                let ctl2 = ctl.clone();
                ctx.scheduler().spawn_daemon(
                    format!("dcfa-handler-{}.e{epoch}.{conn_id}", ctl.node),
                    move |hctx| handler(hctx, ep, ctl2, epoch),
                );
                conn_id += 1;
            }
        },
    );
}

/// Periodically reclaim sessions whose lease expired (client died without
/// `Bye`, or lost its command channel for longer than the TTL).
fn spawn_reaper(sched: &Scheduler, ctl: Arc<NodeCtl>) {
    let Some(ttl) = ctl.cfg.lease_ttl else {
        return;
    };
    sched.spawn_daemon(format!("dcfa-reaper-{}", ctl.node), move |ctx| {
        let vctx = VerbsContext::open(ctl.ib.clone(), ctl.node, Domain::Host);
        let cluster = ctl.ib.cluster().clone();
        loop {
            // Quiesce while there are no leases to watch: a timed poll here
            // would keep the simulation's event queue busy forever.
            let seen = ctl.session_added.epoch();
            if ctl.shared.lock().sessions.is_empty() {
                ctx.wait_event(&ctl.session_added, seen, "lease reaper idle");
                continue;
            }
            ctx.sleep(ctl.cfg.reaper_period);
            let now = ctx.now();
            let expired: Vec<(u32, Session)> = {
                let mut sh = ctl.shared.lock();
                let dead: Vec<u32> = sh
                    .sessions
                    .iter()
                    .filter(|(_, s)| now - s.last_seen > ttl)
                    .map(|(id, _)| *id)
                    .collect();
                dead.into_iter()
                    .filter_map(|id| sh.sessions.remove(&id).map(|s| (id, s)))
                    .collect()
            };
            for (id, sess) in expired {
                let n = sess.objects.len() as u64;
                drain_objects(&ctl, &vctx, &cluster, sess.objects);
                ctl.stats.update(|c| c.leases_reclaimed += 1);
                emit(
                    &ctl,
                    CtrlEvent::LeaseReclaim {
                        node: ctl.node,
                        client: id,
                        objects: n,
                    },
                );
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Fault firing and drains
// ---------------------------------------------------------------------------

/// Tick every armed plan matching this node; fire (and consume) the first
/// that has skipped its quota. Mirrors `Cluster::take_link_fault`.
fn take_daemon_fault(ctl: &NodeCtl) -> Option<DaemonFaultKind> {
    let node = ctl.node;
    let mut sh = ctl.shared.lock();
    let mut fired = None;
    sh.faults.retain_mut(|p| {
        if p.node.is_some_and(|n| n != node) {
            return true;
        }
        if p.after_cmds > 0 {
            p.after_cmds -= 1;
            return true;
        }
        if fired.is_none() {
            fired = Some(p.kind);
            return false;
        }
        true
    });
    fired
}

/// Clean teardown of a session's objects: deregister every MR and free
/// offload twins. Used by `Bye`, decode-storm disconnects and the reaper.
fn drain_objects(
    ctl: &NodeCtl,
    vctx: &VerbsContext,
    cluster: &Arc<Cluster>,
    objects: HashMap<u32, (Buffer, bool)>,
) {
    for (key, (buf, is_offload)) in objects {
        if let Some(mr) = ib_mr(&ctl.ib, key) {
            vctx.dereg_mr(&mr);
        }
        if is_offload {
            cluster.free(&buf);
            ctl.stats.update(|c| c.offload_deregistered += 1);
        } else {
            ctl.stats.update(|c| c.mr_deregistered += 1);
        }
    }
}

/// Remove `client`'s session (if any) and drain it cleanly.
fn drain_client(ctl: &NodeCtl, vctx: &VerbsContext, cluster: &Arc<Cluster>, client: Option<u32>) {
    let Some(id) = client else { return };
    let sess = ctl.shared.lock().sessions.remove(&id);
    if let Some(sess) = sess {
        drain_objects(ctl, vctx, cluster, sess.objects);
    }
}

/// The delegation process dies: all sessions are lost. Host twin buffers
/// lived in the daemon's address space, so they are deregistered and their
/// pages freed (kernel reclaim); plain MRs survive on the HCA (IB objects
/// are kernel-owned) but their hash-table metadata is gone until the client
/// replays its journal. The listen port closes until the supervisor
/// respawns the daemon one `restart_delay` later under a bumped epoch.
fn crash(
    ctx: &mut Ctx,
    ctl: &Arc<NodeCtl>,
    vctx: &VerbsContext,
    cluster: &Arc<Cluster>,
    my_epoch: u32,
) {
    let sessions = {
        let mut sh = ctl.shared.lock();
        if sh.epoch != my_epoch {
            return; // another handler already crashed this incarnation
        }
        sh.epoch = my_epoch + 1;
        std::mem::take(&mut sh.sessions)
    };
    let new_epoch = my_epoch + 1;
    ctl.stats.update(|c| c.daemon_crashes += 1);
    emit(
        ctl,
        CtrlEvent::DaemonCrash {
            node: ctl.node,
            epoch: new_epoch,
        },
    );
    for (_, sess) in sessions {
        for (key, (buf, is_offload)) in sess.objects {
            if is_offload {
                if let Some(mr) = ib_mr(&ctl.ib, key) {
                    vctx.dereg_mr(&mr);
                }
                cluster.free(&buf);
                ctl.stats.update(|c| c.offload_deregistered += 1);
            }
        }
    }
    ctl.scif.unlisten(host_ref(ctl.node), DCFA_PORT);
    let ctl2 = ctl.clone();
    ctx.scheduler()
        .call_after(ctl.cfg.restart_delay, move |sched| {
            ctl2.stats.update(|c| c.daemon_respawns += 1);
            emit(
                &ctl2,
                CtrlEvent::DaemonRespawn {
                    node: ctl2.node,
                    epoch: new_epoch,
                },
            );
            spawn_acceptor(sched, ctl2.clone(), new_epoch);
        });
}

// ---------------------------------------------------------------------------
// The handler
// ---------------------------------------------------------------------------

/// Serve one CMD client until `Bye`, a decode storm, or the death of this
/// daemon incarnation.
fn handler(ctx: &mut Ctx, ep: ScifEndpoint, ctl: Arc<NodeCtl>, my_epoch: u32) {
    let vctx = VerbsContext::open(ctl.ib.clone(), ctl.node, Domain::Host);
    let cluster = ctl.ib.cluster().clone();
    let cost = cluster.config().cost.clone();
    let mut client: Option<u32> = None;
    let mut decode_failures = 0u32;

    loop {
        let raw = ep.recv(ctx);
        if ctl.shared.lock().epoch != my_epoch {
            // Our incarnation crashed while we were blocked; the process is
            // gone, so the command goes unanswered and the client's timeout
            // path takes over.
            return;
        }
        let Some((seq, cmd)) = decode_cmd_frame(&raw) else {
            ctl.stats.update(|c| {
                c.commands += 1;
                c.errors += 1;
            });
            decode_failures += 1;
            if decode_failures >= ctl.cfg.decode_storm_limit {
                drain_client(&ctl, &vctx, &cluster, client);
                return;
            }
            ep.send(
                ctx,
                &encode_reply_frame(
                    SEQ_NONE,
                    my_epoch,
                    &Reply::Error {
                        code: err_code::BAD_REQUEST,
                    },
                ),
            );
            continue;
        };
        decode_failures = 0;

        if matches!(cmd, Cmd::Heartbeat) {
            // Fire-and-forget lease renewal: no reply, no fault ticking.
            ctl.stats.update(|c| c.heartbeats += 1);
            if let Some(id) = client {
                let now = ctx.now();
                if let Some(s) = ctl.shared.lock().sessions.get_mut(&id) {
                    s.last_seen = now;
                }
            }
            continue;
        }

        // Host CPU work to service any offloaded command.
        ctx.sleep(cost.cmd_host_work);

        // Retransmission? Answer from the dedup cache without re-executing.
        if let Some(id) = client {
            let now = ctx.now();
            let cached = {
                let mut sh = ctl.shared.lock();
                sh.sessions.get_mut(&id).and_then(|s| {
                    s.last_seen = now;
                    s.replies
                        .iter()
                        .find(|(s2, _)| *s2 == seq)
                        .map(|(_, r)| r.clone())
                })
            };
            if let Some(r) = cached {
                ctl.stats.update(|c| {
                    c.commands += 1;
                    c.reply_replays += 1;
                });
                emit(
                    &ctl,
                    CtrlEvent::ReplyReplayed {
                        node: ctl.node,
                        client: id,
                        seq,
                    },
                );
                ep.send(ctx, &encode_reply_frame(seq, my_epoch, &r));
                continue;
            }
        }

        let mut delay_reply = false;
        let mut drop_reply = false;
        match take_daemon_fault(&ctl) {
            Some(DaemonFaultKind::Crash) => {
                ctl.stats.update(|c| c.commands += 1);
                crash(ctx, &ctl, &vctx, &cluster, my_epoch);
                return;
            }
            Some(DaemonFaultKind::DropReply) => drop_reply = true,
            Some(DaemonFaultKind::DelayReply) => delay_reply = true,
            None => {}
        }

        let mut terminate = false;
        // What this command counts besides itself. A command's counters
        // go in under one acquisition, on whichever path it leaves by —
        // always before its reply does, so a client that has its answer
        // also sees the command counted.
        let mut outcome: Option<fn(&mut DcfaCounters)> = None;
        let reply = match cmd {
            Cmd::Hello {
                client: wire_client,
            } => {
                let now = ctx.now();
                let id = {
                    let mut sh = ctl.shared.lock();
                    let id = if wire_client == CLIENT_NONE {
                        let id = sh.next_client;
                        sh.next_client += 1;
                        id
                    } else {
                        wire_client
                    };
                    sh.sessions.entry(id).or_insert_with(|| Session::new(now));
                    id
                };
                ctl.session_added.notify_all(&ctx.scheduler());
                if wire_client != CLIENT_NONE {
                    outcome = Some(|c| c.reattaches += 1);
                }
                client = Some(id);
                Reply::Hello { client: id }
            }
            Cmd::Heartbeat => unreachable!("handled above"),
            Cmd::CreateQp | Cmd::CreateCq => Reply::Ok,
            Cmd::RegMr { mem, addr, len } => match session_mut(&ctl, client) {
                Err(e) => e,
                Ok(()) => {
                    let buffer = Buffer { mem, addr, len };
                    // Pin + HCA translation-table update on the host side.
                    ctx.sleep(cost.host_mr_reg_base + cost.host_mr_reg_per_page * buffer.pages());
                    let mr = vctx.reg_mr_uncharged(buffer.clone());
                    let adopted = with_session(&ctl, client, |s| {
                        s.objects.insert(mr.key().0, (buffer.clone(), false));
                    });
                    if adopted.is_some() {
                        outcome = Some(|c| c.mr_registered += 1);
                        Reply::MrKey { key: mr.key().0 }
                    } else {
                        // The lease expired during the registration sleep;
                        // undo so nothing dangles outside a session.
                        vctx.dereg_mr(&mr);
                        Reply::Error {
                            code: err_code::NO_SESSION,
                        }
                    }
                }
            },
            Cmd::AdoptMr { key } => match session_mut(&ctl, client) {
                Err(e) => e,
                Ok(()) => match ib_mr(&ctl.ib, key) {
                    Some(mr) => {
                        let buffer = mr.buffer().clone();
                        with_session(&ctl, client, |s| {
                            s.objects.insert(key, (buffer.clone(), false));
                        });
                        outcome = Some(|c| c.mrs_adopted += 1);
                        Reply::MrKey { key }
                    }
                    None => Reply::Error {
                        code: err_code::UNKNOWN_KEY,
                    },
                },
            },
            Cmd::DeregMr { key } => {
                let removed = with_session(&ctl, client, |s| s.objects.remove(&key)).flatten();
                match removed {
                    Some((buffer, is_offload)) => {
                        if let Some(mr) = ib_mr(&ctl.ib, key) {
                            vctx.dereg_mr(&mr);
                        }
                        if is_offload {
                            cluster.free(&buffer);
                        }
                        outcome = Some(|c| c.mr_deregistered += 1);
                        Reply::Ok
                    }
                    None => Reply::Error {
                        code: err_code::UNKNOWN_KEY,
                    },
                }
            }
            Cmd::RegOffloadMr { len } => match session_mut(&ctl, client) {
                Err(e) => e,
                Ok(()) => {
                    // "the corresponding host buffer is then allocated in the
                    // host delegation process and registered as an InfiniBand
                    // memory region" (§IV-B4).
                    match cluster.alloc_pages(host_ref(ctl.node), len) {
                        Ok(host_buf) => {
                            ctx.sleep(
                                cost.host_mr_reg_base
                                    + cost.host_mr_reg_per_page * host_buf.pages(),
                            );
                            let mr = vctx.reg_mr_uncharged(host_buf.clone());
                            let adopted = with_session(&ctl, client, |s| {
                                s.objects.insert(mr.key().0, (host_buf.clone(), true));
                            });
                            if adopted.is_some() {
                                outcome = Some(|c| c.offload_registered += 1);
                                Reply::Offload {
                                    key: mr.key().0,
                                    host_addr: host_buf.addr,
                                    host_len: host_buf.len,
                                }
                            } else {
                                vctx.dereg_mr(&mr);
                                cluster.free(&host_buf);
                                Reply::Error {
                                    code: err_code::NO_SESSION,
                                }
                            }
                        }
                        Err(_) => Reply::Error {
                            code: err_code::OOM,
                        },
                    }
                }
            },
            Cmd::DeregOffloadMr { key } => {
                // Idempotent teardown: a key the reaper (or a crash) already
                // reclaimed — or a whole reclaimed session — is simply gone;
                // the client's intent is satisfied either way.
                let removed = with_session(&ctl, client, |s| s.objects.remove(&key)).flatten();
                if let Some((buffer, _)) = removed {
                    if let Some(mr) = ib_mr(&ctl.ib, key) {
                        vctx.dereg_mr(&mr);
                    }
                    cluster.free(&buffer);
                    outcome = Some(|c| c.offload_deregistered += 1);
                }
                Reply::Ok
            }
            Cmd::InjectFault(fault) => {
                cluster.inject_link_fault(fault);
                outcome = Some(|c| c.faults_armed += 1);
                Reply::Ok
            }
            Cmd::Bye => {
                drain_client(&ctl, &vctx, &cluster, client);
                terminate = true;
                Reply::Ok
            }
        };

        let failed = matches!(reply, Reply::Error { .. });
        ctl.stats.update(|c| {
            c.commands += 1;
            if let Some(count) = outcome {
                count(c);
            }
            c.errors += u64::from(failed);
        });
        // Remember the reply for retransmit deduplication.
        if let Some(id) = client {
            let depth = ctl.cfg.dedup_depth;
            let mut sh = ctl.shared.lock();
            if let Some(s) = sh.sessions.get_mut(&id) {
                s.replies.push_back((seq, reply.clone()));
                while s.replies.len() > depth {
                    s.replies.pop_front();
                }
            }
        }
        if delay_reply {
            ctx.sleep(ctl.cfg.delay_reply);
        }
        if !drop_reply {
            ep.send(ctx, &encode_reply_frame(seq, my_epoch, &reply));
        }
        if terminate {
            return;
        }
    }
}

/// `Ok(())` if `client` has a live session, else the error reply to send
/// (no `Hello` yet, or the lease was reclaimed → client must re-attach).
fn session_mut(ctl: &NodeCtl, client: Option<u32>) -> Result<(), Reply> {
    let ok = client.is_some_and(|id| ctl.shared.lock().sessions.contains_key(&id));
    if ok {
        Ok(())
    } else {
        Err(Reply::Error {
            code: err_code::NO_SESSION,
        })
    }
}

/// Run `f` on `client`'s session if it still exists.
fn with_session<R>(
    ctl: &NodeCtl,
    client: Option<u32>,
    f: impl FnOnce(&mut Session) -> R,
) -> Option<R> {
    let id = client?;
    let mut sh = ctl.shared.lock();
    sh.sessions.get_mut(&id).map(f)
}

fn ib_mr(ib: &Arc<IbFabric>, key: u32) -> Option<verbs::MemoryRegion> {
    ib.mr_handle(verbs::MrKey(key))
}
