//! The host-side DCFA CMD server: the delegation process that services
//! offloaded InfiniBand resource operations for Phi-resident programs.
//!
//! One daemon runs per node, mirroring the paper's `mcexec` delegation
//! process with the DCFA CMD server "registered as an extension of the
//! delegation process" (§IV-B1); each connecting CMD client (one per MPI
//! rank) gets a connection served one command at a time. Created
//! InfiniBand objects are kept in per-client *sessions* shared across the
//! node's connections, keyed by the published MR key.
//!
//! The daemon runs no MPI code, so it is not a simulated process: it is
//! state ([`NodeCtl`]) and the events that act on it. A command is served
//! by a small state machine ([`Conn`]) stepped at exactly the instants a
//! handler process would have touched shared state — after the receive
//! `cpu_op`, after `cmd_host_work`, after the registration charge — and
//! the lease reaper is a tick that re-arms itself while there is a session
//! to watch. What that costs the host is a few `Call` events per command
//! instead of a coroutine per client (DESIGN "Control plane on events").
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
//!   and a supervisor respawns the daemon after [`RESTART_DELAY`] with a
//!   bumped incarnation epoch. Replies carry the epoch so clients detect the
//!   restart and replay their resource journal ([`Cmd::AdoptMr`]).
//! * **Lease reclamation** — clients renew a lease with fire-and-forget
//!   [`Cmd::Heartbeat`]s; a per-node reaper tick reclaims the sessions of
//!   expired clients, deregistering MRs and freeing offload twins, so a
//!   client that dies without `Bye` cannot leak host memory for the life of
//!   the run.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Weak};

use fabric::{Buffer, Cluster, Domain, MemRef, NodeId};
use parking_lot::Mutex;
use scif::{ScifEndpoint, ScifFabric};
use simcore::{Scheduler, SimDuration, SimTime};
use verbs::{IbFabric, VerbsContext};

use crate::wire::{decode_cmd_frame, err_code, reply_frame, Cmd, Reply, CLIENT_NONE, SEQ_NONE};

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

/// Shared handle to the daemons' counters, returned by [`spawn_daemons`].
/// Clones observe the same counters. The client
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

/// Downtime between a crash and the supervisor's respawn.
const RESTART_DELAY: SimDuration = SimDuration::from_micros(100);
/// Replies remembered per session for retransmit deduplication.
const DEDUP_DEPTH: usize = 32;
/// Consecutive undecodable commands before the daemon assumes a corrupt
/// peer, drains its session and disconnects.
const DECODE_STORM_LIMIT: u32 = 8;
/// How long a `DelayReply` fault holds the reply: past the client's
/// command timeout, to force a retransmit.
const DELAY_REPLY: SimDuration = SimDuration::from_micros(2000);

/// Tunables for the node daemons.
#[derive(Clone)]
pub struct DaemonConfig {
    /// Client-lease time-to-live; `None` disables the reaper (sessions of
    /// silent clients are kept until `Bye`).
    pub lease_ttl: Option<SimDuration>,
    /// How often the reaper scans for expired leases.
    pub reaper_period: SimDuration,
    /// Armed control-plane fault plans.
    pub faults: Vec<DaemonFault>,
    /// Control-plane event observer.
    pub hook: Option<CtrlHook>,
}

impl fmt::Debug for DaemonConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DaemonConfig")
            .field("lease_ttl", &self.lease_ttl)
            .field("reaper_period", &self.reaper_period)
            .field("faults", &self.faults)
            .field("hook", &self.hook.as_ref().map(|_| ".."))
            .finish()
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            lease_ttl: None,
            reaper_period: SimDuration::from_micros(200),
            faults: Vec::new(),
            hook: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Shared per-node state
// ---------------------------------------------------------------------------

/// One client's control-plane state, shared across the node's connections
/// so crash drains, lease reclamation and reconnects all see the same
/// objects.
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
    /// Daemon incarnation; bumped on crash so its connections die.
    epoch: u32,
    next_client: u32,
    sessions: HashMap<u32, Session>,
    faults: Vec<DaemonFault>,
    /// Whether a lease-reaper tick is queued. It is armed by the first
    /// session and not re-armed by a tick that leaves none: a tick with
    /// nothing to watch would keep the event queue, and so the simulation,
    /// alive forever.
    reaper_armed: bool,
}

impl NodeShared {
    fn session(&mut self, client: Option<u32>) -> Option<&mut Session> {
        self.sessions.get_mut(&client?)
    }

    /// Tick every armed plan matching `node`; fire (and consume) the first
    /// that has skipped its quota. Mirrors `Cluster::take_link_fault`.
    fn take_fault(&mut self, node: NodeId) -> Option<DaemonFaultKind> {
        let mut fired = None;
        self.faults.retain_mut(|p| {
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
}

/// A node's delegation process: what every connection, the reaper tick and
/// the supervisor act on.
struct NodeCtl {
    /// Weak: the fabric's listener table owns this daemon, not the reverse.
    scif: Weak<ScifFabric>,
    ib: Arc<IbFabric>,
    vctx: VerbsContext,
    node: NodeId,
    stats: DcfaStats,
    cfg: DaemonConfig,
    shared: Mutex<NodeShared>,
}

impl NodeCtl {
    fn cluster(&self) -> &Arc<Cluster> {
        self.ib.cluster()
    }

    fn cost(&self) -> &fabric::CostModel {
        &self.cluster().config().cost
    }

    fn emit(&self, ev: CtrlEvent) {
        if let Some(hook) = &self.cfg.hook {
            hook(&ev);
        }
    }

    /// Whether `client` has a live session: without one (no `Hello` yet,
    /// or the lease was reclaimed) it must re-attach.
    fn has_session(&self, client: Option<u32>) -> bool {
        self.shared.lock().session(client).is_some()
    }

    /// Run `f` on `client`'s session if it still exists.
    fn with_session<R>(&self, client: Option<u32>, f: impl FnOnce(&mut Session) -> R) -> Option<R> {
        self.shared.lock().session(client).map(f)
    }

    /// Deregister `key` on the HCA and, for a host twin, free its pages.
    fn release(&self, key: u32, buf: &Buffer, is_offload: bool) {
        if let Some(mr) = self.ib.mr_handle(verbs::MrKey(key)) {
            self.vctx.dereg_mr(&mr);
        }
        if is_offload {
            self.cluster().free(buf);
        }
    }

    /// Clean teardown of a session's objects: deregister every MR and free
    /// offload twins. Used by `Bye`, decode-storm disconnects and the reaper.
    fn drain_objects(&self, objects: HashMap<u32, (Buffer, bool)>) {
        for (key, (buf, is_offload)) in objects {
            self.release(key, &buf, is_offload);
            self.stats.update(|c| {
                if is_offload {
                    c.offload_deregistered += 1;
                } else {
                    c.mr_deregistered += 1;
                }
            });
        }
    }

    /// Remove `client`'s session (if any) and drain it cleanly.
    fn drain_client(&self, client: Option<u32>) {
        let Some(id) = client else { return };
        let sess = self.shared.lock().sessions.remove(&id);
        if let Some(sess) = sess {
            self.drain_objects(sess.objects);
        }
    }
}

fn host_ref(node: NodeId) -> MemRef {
    MemRef {
        node,
        domain: Domain::Host,
    }
}

// ---------------------------------------------------------------------------
// Bringing a daemon up
// ---------------------------------------------------------------------------

/// Start one DCFA host daemon per cluster node. Must run before any
/// [`crate::DcfaContext::open`]. Returns a cluster-wide counter handle
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
    _sched: &Scheduler,
    scif_fabric: &Arc<ScifFabric>,
    ib: &Arc<IbFabric>,
    cfg: DaemonConfig,
) -> DcfaStats {
    let stats = DcfaStats::default();
    for n in 0..scif_fabric.cluster().num_nodes() {
        start_node_daemon(scif_fabric, ib, NodeId(n), cfg.clone(), stats.clone());
    }
    stats
}

fn start_node_daemon(
    scif_fabric: &Arc<ScifFabric>,
    ib: &Arc<IbFabric>,
    node: NodeId,
    cfg: DaemonConfig,
    stats: DcfaStats,
) {
    let faults = cfg.faults.clone();
    let ctl = Arc::new(NodeCtl {
        scif: Arc::downgrade(scif_fabric),
        ib: ib.clone(),
        vctx: VerbsContext::open(ib.clone(), node, Domain::Host),
        node,
        stats,
        cfg,
        shared: Mutex::new(NodeShared {
            epoch: 1,
            next_client: 1,
            sessions: HashMap::new(),
            faults,
            reaper_armed: false,
        }),
    });
    listen(ctl);
}

/// One daemon incarnation opens the port: every connection accepted from
/// now on is served under the incarnation current at its accept.
fn listen(ctl: Arc<NodeCtl>) {
    let Some(scif) = ctl.scif.upgrade() else {
        return; // the simulation's fabric is gone
    };
    scif.listen_with(host_ref(ctl.node), DCFA_PORT, move |_, ep| {
        ctl.stats.update(|c| c.connections += 1);
        let conn = Arc::new(Conn {
            ctl: ctl.clone(),
            epoch: ctl.shared.lock().epoch,
            st: Mutex::new(ConnState {
                client: None,
                decode_failures: 0,
                inbox: VecDeque::new(),
                busy: false,
                free_at: SimTime::ZERO,
                closed: false,
            }),
        });
        ep.on_recv(move |sched, ep, raw| conn.arrived(sched, ep, raw));
    });
}

// ---------------------------------------------------------------------------
// Lease reaper
// ---------------------------------------------------------------------------

/// A session exists (the caller holds `sh`, having just made sure of
/// one): see that a reaper tick is queued, one `reaper_period` from now.
fn arm_reaper(ctl: &Arc<NodeCtl>, sh: &mut NodeShared, sched: &Scheduler) {
    if ctl.cfg.lease_ttl.is_none() || std::mem::replace(&mut sh.reaper_armed, true) {
        return;
    }
    let ctl = ctl.clone();
    sched.call_after(ctl.cfg.reaper_period, move |s| reaper_tick(ctl, s));
}

/// Reclaim sessions whose lease expired (client died without `Bye`, or
/// lost its command channel for longer than the TTL), then tick again one
/// period on — unless no session is left to watch.
fn reaper_tick(ctl: Arc<NodeCtl>, sched: &Scheduler) {
    let ttl = ctl.cfg.lease_ttl.expect("armed only with a TTL");
    let now = sched.now();
    let expired: Vec<(u32, Session)> = {
        let mut sh = ctl.shared.lock();
        let dead: Vec<u32> = sh
            .sessions
            .iter()
            .filter(|(_, s)| now - s.last_seen > ttl)
            .map(|(id, _)| *id)
            .collect();
        let expired = dead
            .into_iter()
            .filter_map(|id| sh.sessions.remove(&id).map(|s| (id, s)))
            .collect();
        sh.reaper_armed = !sh.sessions.is_empty();
        if sh.reaper_armed {
            let ctl = ctl.clone();
            sched.call_after(ctl.cfg.reaper_period, move |s| reaper_tick(ctl, s));
        }
        expired
    };
    for (id, sess) in expired {
        let n = sess.objects.len() as u64;
        ctl.drain_objects(sess.objects);
        ctl.stats.update(|c| c.leases_reclaimed += 1);
        ctl.emit(CtrlEvent::LeaseReclaim {
            node: ctl.node,
            client: id,
            objects: n,
        });
    }
}

// ---------------------------------------------------------------------------
// Crash and respawn
// ---------------------------------------------------------------------------

/// The delegation process dies: all sessions are lost. Host twin buffers
/// lived in the daemon's address space, so they are deregistered and their
/// pages freed (kernel reclaim); plain MRs survive on the HCA (IB objects
/// are kernel-owned) but their hash-table metadata is gone until the client
/// replays its journal. The listen port closes until the supervisor
/// respawns the daemon one [`RESTART_DELAY`] later under a bumped epoch.
/// Every connection of the dead incarnation stops where it is: a command
/// it was serving is never answered.
fn crash(ctl: &Arc<NodeCtl>, sched: &Scheduler, my_epoch: u32) {
    let sessions = {
        let mut sh = ctl.shared.lock();
        if sh.epoch != my_epoch {
            return; // another connection already crashed this incarnation
        }
        sh.epoch = my_epoch + 1;
        std::mem::take(&mut sh.sessions)
    };
    let new_epoch = my_epoch + 1;
    ctl.stats.update(|c| c.daemon_crashes += 1);
    ctl.emit(CtrlEvent::DaemonCrash {
        node: ctl.node,
        epoch: new_epoch,
    });
    for (_, sess) in sessions {
        for (key, (buf, is_offload)) in sess.objects {
            if is_offload {
                ctl.release(key, &buf, true);
                ctl.stats.update(|c| c.offload_deregistered += 1);
            }
        }
    }
    if let Some(scif) = ctl.scif.upgrade() {
        scif.unlisten(host_ref(ctl.node), DCFA_PORT);
    }
    let ctl = ctl.clone();
    sched.call_after(RESTART_DELAY, move |_| {
        ctl.stats.update(|c| c.daemon_respawns += 1);
        ctl.emit(CtrlEvent::DaemonRespawn {
            node: ctl.node,
            epoch: new_epoch,
        });
        listen(ctl);
    });
}

// ---------------------------------------------------------------------------
// Serving a connection
// ---------------------------------------------------------------------------

/// One accepted connection. Nothing runs between its events: it is this
/// record, stepped by `call_at` at the instants a handler process serving
/// the connection would have read or written shared state.
///
/// | instant | event | reads / writes | fault that can fire |
/// |---|---|---|---|
/// | a frame arrives | `arrived` | decoded into the inbox; if idle, service starts when this side is free | — |
/// | + receive `cpu_op` | `received` | incarnation; decode-failure count (storm → drain, disconnect); heartbeat → lease renewed, done | — |
/// | + `cmd_host_work` | `worked` | incarnation; dedup cache (hit → replayed reply, done); fault plans tick; session; everything a non-registering command does | `Crash`, `DropReply`, `DelayReply` |
/// | + registration charge | `registered` | incarnation; HCA registration; session insert, or undo if the lease went meanwhile | — |
/// | reply leaves `cpu_op` later, arrives `scif_msg_latency` + copy after that | `answer` | counters, dedup cache; the next queued frame starts when the reply has left | held [`DELAY_REPLY`], or never sent |
///
/// One command at a time: frames that arrive meanwhile wait in the inbox,
/// in order. An incarnation that died (a crash fired from *any* of the
/// node's connections) is noticed at the next step, which closes the
/// connection and sends nothing.
struct Conn {
    ctl: Arc<NodeCtl>,
    /// The incarnation that accepted this connection.
    epoch: u32,
    st: Mutex<ConnState>,
}

struct ConnState {
    client: Option<u32>,
    /// Consecutive undecodable frames.
    decode_failures: u32,
    /// Frames received and not yet served, oldest first; `None` is one
    /// that did not decode.
    inbox: VecDeque<Option<(u32, Cmd)>>,
    /// A frame is in service (or about to be: its first step is queued).
    busy: bool,
    /// When idle: the instant the last reply left, before which the next
    /// frame cannot be taken up.
    free_at: SimTime,
    /// `Bye`, a decode storm or the incarnation's death ended service.
    closed: bool,
}

/// The command in service, once the fault plans have ticked for it.
#[derive(Clone, Copy)]
struct Job {
    client: Option<u32>,
    seq: u32,
    /// `DropReply` or `DelayReply`, if one fired for this command.
    hold: Option<DaemonFaultKind>,
}

const NO_SESSION: Reply = Reply::Error {
    code: err_code::NO_SESSION,
};
const UNKNOWN_KEY: Reply = Reply::Error {
    code: err_code::UNKNOWN_KEY,
};

/// What a command counts besides itself.
type Outcome = Option<fn(&mut DcfaCounters)>;

impl Conn {
    fn cpu_op(&self) -> SimDuration {
        self.ctl.cost().cpu_op(Domain::Host)
    }

    /// The delivery event's sink: queue the frame and, if nothing is in
    /// service, take it up as soon as this side is free.
    fn arrived(self: &Arc<Self>, sched: &Scheduler, ep: &ScifEndpoint, raw: &[u8]) {
        let start = {
            let mut st = self.st.lock();
            if st.closed {
                return;
            }
            st.inbox.push_back(decode_cmd_frame(raw));
            if std::mem::replace(&mut st.busy, true) {
                return;
            }
            st.free_at.max(sched.now())
        };
        self.take_up(sched, ep.clone(), start);
    }

    /// Start on the oldest queued frame at `start`: its receive `cpu_op`.
    fn take_up(self: &Arc<Self>, sched: &Scheduler, ep: ScifEndpoint, start: SimTime) {
        let conn = self.clone();
        sched.call_at(start + self.cpu_op(), move |s| conn.received(s, ep));
    }

    /// The frame in service is done with and this side is free from
    /// `free_at` on: take up the next one then, or go idle.
    fn done(self: &Arc<Self>, sched: &Scheduler, ep: ScifEndpoint, free_at: SimTime) {
        {
            let mut st = self.st.lock();
            if st.inbox.is_empty() {
                st.busy = false;
                st.free_at = free_at;
                return;
            }
        }
        self.take_up(sched, ep, free_at);
    }

    /// Stop serving: nothing queued is answered, nothing more is read.
    fn close(&self) {
        let mut st = self.st.lock();
        st.closed = true;
        st.inbox.clear();
    }

    /// Put `reply` on the wire now; it leaves when its `cpu_op` is paid.
    fn send(&self, sched: &Scheduler, ep: &ScifEndpoint, seq: u32, reply: &Reply) -> SimTime {
        let depart = sched.now() + self.cpu_op();
        ep.send_from(depart, &reply_frame(seq, self.epoch, reply));
        depart
    }

    /// Step 1, the receive `cpu_op` paid: is this incarnation still alive,
    /// did the frame decode, and is it only a heartbeat?
    fn received(self: Arc<Self>, sched: &Scheduler, ep: ScifEndpoint) {
        let ctl = &self.ctl;
        let (frame, client, storm) = {
            let mut st = self.st.lock();
            let frame = st.inbox.pop_front().expect("busy with a queued frame");
            st.decode_failures = match frame {
                Some(_) => 0,
                None => st.decode_failures + 1,
            };
            let storm = st.decode_failures >= DECODE_STORM_LIMIT;
            (frame, st.client, storm)
        };
        let heartbeat = matches!(frame, Some((_, Cmd::Heartbeat)));
        {
            let mut sh = ctl.shared.lock();
            if sh.epoch != self.epoch {
                // Our incarnation crashed; the process is gone, so the
                // command goes unanswered and the client's timeout path
                // takes over.
                drop(sh);
                return self.close();
            }
            if heartbeat {
                // Fire-and-forget lease renewal: no reply, no fault ticking.
                if let Some(s) = sh.session(client) {
                    s.last_seen = sched.now();
                }
            }
        }
        let Some((seq, cmd)) = frame else {
            ctl.stats.update(|c| {
                c.commands += 1;
                c.errors += 1;
            });
            if storm {
                ctl.drain_client(client);
                return self.close();
            }
            let bad = Reply::Error {
                code: err_code::BAD_REQUEST,
            };
            let free_at = self.send(sched, &ep, SEQ_NONE, &bad);
            return self.done(sched, ep, free_at);
        };
        if heartbeat {
            ctl.stats.update(|c| c.heartbeats += 1);
            return self.done(sched, ep, sched.now());
        }
        // Host CPU work to service any offloaded command.
        sched.call_after(ctl.cost().cmd_host_work, move |s| {
            self.worked(s, ep, client, seq, cmd)
        });
    }

    /// Step 2, the host work done: answer a retransmission from the dedup
    /// cache, let the fault plans tick, and do what the command asks —
    /// all of it unless it registers memory, whose charge comes first.
    fn worked(
        self: Arc<Self>,
        sched: &Scheduler,
        ep: ScifEndpoint,
        client: Option<u32>,
        seq: u32,
        cmd: Cmd,
    ) {
        let ctl = &self.ctl;
        let now = sched.now();
        enum Verdict {
            Dead,
            Cached(Reply),
            Fresh(Option<DaemonFaultKind>),
        }
        let verdict = {
            let mut sh = ctl.shared.lock();
            if sh.epoch != self.epoch {
                Verdict::Dead
            } else {
                let cached = sh.session(client).and_then(|s| {
                    s.last_seen = now;
                    s.replies.iter().find(|(s2, _)| *s2 == seq).map(|r| r.1)
                });
                match cached {
                    Some(reply) => Verdict::Cached(reply),
                    None => Verdict::Fresh(sh.take_fault(ctl.node)),
                }
            }
        };
        let hold = match verdict {
            Verdict::Dead => return self.close(),
            Verdict::Cached(reply) => {
                // A retransmission: answered, never re-executed.
                ctl.stats.update(|c| {
                    c.commands += 1;
                    c.reply_replays += 1;
                });
                if let Some(id) = client {
                    ctl.emit(CtrlEvent::ReplyReplayed {
                        node: ctl.node,
                        client: id,
                        seq,
                    });
                }
                let free_at = self.send(sched, &ep, seq, &reply);
                return self.done(sched, ep, free_at);
            }
            Verdict::Fresh(Some(DaemonFaultKind::Crash)) => {
                ctl.stats.update(|c| c.commands += 1);
                crash(ctl, sched, self.epoch);
                return self.close();
            }
            Verdict::Fresh(hold) => hold,
        };

        let mut outcome: Outcome = None;
        let mut client = client;
        let job = |client| Job { client, seq, hold };
        let reply = match cmd {
            Cmd::Hello {
                client: wire_client,
            } => {
                let id = {
                    let mut sh = ctl.shared.lock();
                    let id = if wire_client == CLIENT_NONE {
                        sh.next_client += 1;
                        sh.next_client - 1
                    } else {
                        wire_client
                    };
                    sh.sessions.entry(id).or_insert_with(|| Session::new(now));
                    arm_reaper(ctl, &mut sh, sched);
                    id
                };
                if wire_client != CLIENT_NONE {
                    outcome = Some(|c| c.reattaches += 1);
                }
                client = Some(id);
                self.st.lock().client = client;
                Reply::Hello { client: id }
            }
            Cmd::Heartbeat => unreachable!("answered at the receive"),
            Cmd::CreateQp | Cmd::CreateCq => Reply::Ok,
            Cmd::RegMr { .. } | Cmd::RegOffloadMr { .. } if !ctl.has_session(client) => NO_SESSION,
            Cmd::RegMr { .. } | Cmd::RegOffloadMr { .. } => {
                let buffer = match cmd {
                    Cmd::RegMr { mem, addr, len } => Ok(Buffer { mem, addr, len }),
                    // "the corresponding host buffer is then allocated in
                    // the host delegation process and registered as an
                    // InfiniBand memory region" (§IV-B4).
                    Cmd::RegOffloadMr { len } => ctl.cluster().alloc_pages(host_ref(ctl.node), len),
                    _ => unreachable!("one of the two registrations"),
                };
                match buffer {
                    Ok(buffer) => {
                        // Pin + HCA translation-table update on the host.
                        let cost = ctl.cost();
                        let charge =
                            cost.host_mr_reg_base + cost.host_mr_reg_per_page * buffer.pages();
                        let (job, is_offload) =
                            (job(client), matches!(cmd, Cmd::RegOffloadMr { .. }));
                        return sched.call_after(charge, move |s| {
                            self.registered(s, ep, job, buffer, is_offload)
                        });
                    }
                    Err(_) => Reply::Error {
                        code: err_code::OOM,
                    },
                }
            }
            Cmd::AdoptMr { .. } if !ctl.has_session(client) => NO_SESSION,
            Cmd::AdoptMr { key } => match ctl.ib.mr_handle(verbs::MrKey(key)) {
                Some(mr) => {
                    let buffer = mr.buffer().clone();
                    ctl.with_session(client, |s| s.objects.insert(key, (buffer, false)));
                    outcome = Some(|c| c.mrs_adopted += 1);
                    Reply::MrKey { key }
                }
                None => UNKNOWN_KEY,
            },
            Cmd::DeregMr { key } => {
                match ctl
                    .with_session(client, |s| s.objects.remove(&key))
                    .flatten()
                {
                    Some((buffer, is_offload)) => {
                        ctl.release(key, &buffer, is_offload);
                        outcome = Some(|c| c.mr_deregistered += 1);
                        Reply::Ok
                    }
                    None => UNKNOWN_KEY,
                }
            }
            Cmd::DeregOffloadMr { key } => {
                // Idempotent teardown: a key the reaper (or a crash) already
                // reclaimed — or a whole reclaimed session — is simply gone;
                // the client's intent is satisfied either way.
                let removed = ctl.with_session(client, |s| s.objects.remove(&key));
                if let Some((buffer, _)) = removed.flatten() {
                    ctl.release(key, &buffer, true);
                    outcome = Some(|c| c.offload_deregistered += 1);
                }
                Reply::Ok
            }
            Cmd::InjectFault(fault) => {
                ctl.cluster().inject_link_fault(fault);
                outcome = Some(|c| c.faults_armed += 1);
                Reply::Ok
            }
            Cmd::Bye => {
                ctl.drain_client(client);
                Reply::Ok
            }
        };
        let bye = matches!(cmd, Cmd::Bye);
        self.answer(sched, ep, job(client), reply, outcome, bye);
    }

    /// Step 3, the registration charge paid: register on the HCA and put
    /// the key in the session — or undo, if the lease ran out meanwhile.
    fn registered(
        self: Arc<Self>,
        sched: &Scheduler,
        ep: ScifEndpoint,
        job: Job,
        buffer: Buffer,
        is_offload: bool,
    ) {
        let ctl = &self.ctl;
        if ctl.shared.lock().epoch != self.epoch {
            // The process died during the charge: nothing was registered
            // and a twin's pages go back with its address space.
            if is_offload {
                ctl.cluster().free(&buffer);
            }
            return self.close();
        }
        let key = ctl.vctx.reg_mr_uncharged(buffer.clone()).key().0;
        let adopted = ctl.with_session(job.client, |s| {
            s.objects.insert(key, (buffer.clone(), is_offload));
        });
        let (reply, outcome): (Reply, Outcome) = match (adopted, is_offload) {
            (None, _) => {
                // The lease expired during the charge; undo so nothing
                // dangles outside a session.
                ctl.release(key, &buffer, is_offload);
                (NO_SESSION, None)
            }
            (Some(()), false) => (Reply::MrKey { key }, Some(|c| c.mr_registered += 1)),
            (Some(()), true) => (
                Reply::Offload {
                    key,
                    host_addr: buffer.addr,
                    host_len: buffer.len,
                },
                Some(|c| c.offload_registered += 1),
            ),
        };
        self.answer(sched, ep, job, reply, outcome, false);
    }

    /// The command has executed: count it, remember its reply for
    /// retransmit deduplication, and send it — now, after [`DELAY_REPLY`],
    /// or never, as the fault that fired for it says.
    fn answer(
        self: Arc<Self>,
        sched: &Scheduler,
        ep: ScifEndpoint,
        Job { client, seq, hold }: Job,
        reply: Reply,
        outcome: Outcome,
        bye: bool,
    ) {
        let ctl = &self.ctl;
        // A command's counters go in under one acquisition, on whichever
        // path it leaves by — always before its reply does, so a client
        // that has its answer also sees the command counted.
        let failed = matches!(reply, Reply::Error { .. });
        ctl.stats.update(|c| {
            c.commands += 1;
            if let Some(count) = outcome {
                count(c);
            }
            c.errors += u64::from(failed);
        });
        ctl.with_session(client, |s| {
            s.replies.push_back((seq, reply));
            while s.replies.len() > DEDUP_DEPTH {
                s.replies.pop_front();
            }
        });
        // After `Bye` nothing more is read; otherwise the next frame can
        // be taken up when the reply has left.
        let finish = move |conn: &Arc<Self>, sched: &Scheduler, ep, free_at| match bye {
            true => conn.close(),
            false => conn.done(sched, ep, free_at),
        };
        match hold {
            Some(DaemonFaultKind::DropReply) => finish(&self, sched, ep, sched.now()),
            Some(DaemonFaultKind::DelayReply) => {
                sched.call_after(DELAY_REPLY, move |s| {
                    if self.ctl.shared.lock().epoch != self.epoch {
                        return self.close();
                    }
                    let free_at = self.send(s, &ep, seq, &reply);
                    finish(&self, s, ep, free_at);
                });
            }
            _ => {
                let free_at = self.send(sched, &ep, seq, &reply);
                finish(&self, sched, ep, free_at);
            }
        }
    }
}
