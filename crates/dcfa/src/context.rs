//! The Phi-side DCFA library: the "DCFA IB IF" exposing the host's Verbs
//! interface in co-processor user space, plus the offloading send buffer.
//!
//! The command channel is fault-tolerant: every command carries a sequence
//! id and is retransmitted with exponential backoff when its reply times
//! out (the daemon deduplicates, so retransmits are answered from cache,
//! never re-executed). If retries exhaust — the delegation daemon crashed
//! or this client's lease was reclaimed — the context reconnects, re-greets
//! the daemon with its assigned client id and replays its *resource
//! journal*: surviving MRs are re-adopted ([`Cmd::AdoptMr`]), reclaimed
//! ones re-registered, QPs/CQs re-created. Each re-attach bumps a control
//! epoch the MPI core uses to invalidate MR/offload caches, so stale keys
//! never reach the wire.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use fabric::{Buffer, Cluster, Domain, MemRef, NodeId};
use parking_lot::Mutex;
use scif::{ScifEndpoint, ScifError, ScifFabric};
use simcore::{Ctx, Scheduler, SimDuration, SimTime};
use verbs::{
    CompletionQueue, IbFabric, MemoryRegion, MrKey, QueuePair, SharedReceiveQueue, VerbsContext,
};

use crate::daemon::{CtrlEvent, CtrlHook, CtrlOp, CtrlPerf, DcfaStats, PerfProbe, DCFA_PORT};
use crate::wire::{cmd_frame, decode_reply_frame, err_code, Cmd, Reply, CLIENT_NONE, SEQ_NONE};

/// Errors surfaced by the DCFA user-space library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DcfaError {
    /// Couldn't reach the host delegation daemon.
    Connect(ScifError),
    /// The daemon has no MR under the given key (already deregistered, or
    /// reclaimed with an expired lease).
    UnknownKey,
    /// The host delegation process is out of memory (offload twin
    /// allocation failed).
    Oom,
    /// The daemon could not decode or accept the command.
    BadRequest,
    /// The command went unanswered through every retry and re-attach.
    Timeout,
    /// The daemon refused or failed a command with an unmapped code.
    Command { code: u8 },
    /// The daemon replied with something unexpected (protocol bug).
    Protocol,
}

impl DcfaError {
    fn from_code(code: u8) -> DcfaError {
        match code {
            err_code::OOM => DcfaError::Oom,
            err_code::UNKNOWN_KEY => DcfaError::UnknownKey,
            err_code::BAD_REQUEST => DcfaError::BadRequest,
            _ => DcfaError::Command { code },
        }
    }
}

impl std::fmt::Display for DcfaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DcfaError::Connect(e) => write!(f, "cannot reach DCFA daemon: {e}"),
            DcfaError::UnknownKey => write!(f, "DCFA daemon does not know this MR key"),
            DcfaError::Oom => write!(f, "DCFA daemon out of host memory"),
            DcfaError::BadRequest => write!(f, "DCFA daemon rejected the command"),
            DcfaError::Timeout => write!(f, "DCFA command timed out after retries"),
            DcfaError::Command { code } => write!(f, "DCFA command failed (code {code})"),
            DcfaError::Protocol => write!(f, "DCFA protocol violation"),
        }
    }
}

impl std::error::Error for DcfaError {}

/// Default command reply timeout: generously above the worst-case daemon
/// service time (a multi-MiB registration costs tens of µs), well below the
/// MPI rendezvous watchdog. The MPI core's lazy-connect watchdog rides the
/// same out-of-band channel and runs on the same period.
pub const CMD_TIMEOUT: SimDuration = SimDuration::from_micros(500);
/// Retransmissions of one command (and re-issues of one connect
/// handshake) before giving up on the connection: a command falls back to
/// a full reconnect + journal replay.
pub const CMD_RETRY_LIMIT: u32 = 3;
/// Connect attempts during an initial connect or a re-attach (covers
/// daemon respawn downtime).
const RECONNECT_LIMIT: u32 = 8;
/// Delay before reconnect attempt `n` is `n` times this: it grows linearly.
const RECONNECT_BACKOFF: SimDuration = SimDuration::from_micros(50);

/// Client-side knobs for the fault-tolerant command channel.
#[derive(Clone)]
pub struct DcfaConfig {
    /// How long to wait for a command reply before retransmitting.
    pub cmd_timeout: SimDuration,
    /// Base retransmit backoff; doubles per attempt.
    pub cmd_backoff: SimDuration,
    /// Period of the lease-renewal heartbeat sidecar; `None` disables it
    /// (a silent client relies on commands to renew its lease).
    pub heartbeat_interval: Option<SimDuration>,
    /// Counter sink shared with the node daemons (pass the handle returned
    /// by `spawn_daemons` to aggregate client retries/timeouts there).
    pub stats: DcfaStats,
    /// Control-plane event observer.
    pub hook: Option<CtrlHook>,
    /// Control-plane latency observer (command round-trips, offload-twin
    /// syncs). Fed into the MPI core's metrics hub when profiling is on.
    pub perf: Option<PerfProbe>,
}

impl fmt::Debug for DcfaConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DcfaConfig")
            .field("cmd_timeout", &self.cmd_timeout)
            .field("cmd_backoff", &self.cmd_backoff)
            .field("heartbeat_interval", &self.heartbeat_interval)
            .field("hook", &self.hook.as_ref().map(|_| ".."))
            .field("perf", &self.perf.as_ref().map(|_| ".."))
            .finish_non_exhaustive()
    }
}

impl Default for DcfaConfig {
    fn default() -> Self {
        DcfaConfig {
            cmd_timeout: CMD_TIMEOUT,
            cmd_backoff: SimDuration::from_micros(50),
            heartbeat_interval: None,
            stats: DcfaStats::default(),
            hook: None,
            perf: None,
        }
    }
}

/// An offloading memory region (paper §IV-B4, Fig. 6): the Phi-resident
/// user buffer plus its host twin. Sends source the *host* buffer after a
/// DMA-engine sync, sidestepping the slow HCA-reads-Phi path.
pub struct OffloadMr {
    // (Debug below — MemoryRegion carries a SimEvent, so derive won't do.)
    /// The Phi-resident user buffer.
    pub phi: Buffer,
    /// The host twin, registered as an InfiniBand MR.
    pub host_mr: MemoryRegion,
}

impl std::fmt::Debug for OffloadMr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OffloadMr")
            .field("phi", &self.phi)
            .field("host", self.host_mr.buffer())
            .finish()
    }
}

/// One re-establishable resource in the client journal.
#[derive(Debug, Clone)]
enum JournalEntry {
    /// A registered MR: `key` for re-adoption, `buffer` for re-registration
    /// when the daemon-side object did not survive (lease reclaimed).
    Mr {
        key: u32,
        buffer: Buffer,
    },
    Cq,
    Qp,
}

struct ClientState {
    ep: ScifEndpoint,
    next_seq: u32,
    /// Daemon-assigned client id (stable across reconnects).
    client: u32,
    /// Last daemon incarnation observed in a reply.
    daemon_epoch: u32,
    /// Client control epoch: bumped on every re-attach; upper layers flush
    /// their MR/offload caches when it changes.
    ctrl_epoch: u64,
    journal: Vec<JournalEntry>,
}

/// The DCFA user-space context on a Xeon Phi co-processor: same interface
/// shape as the host Verbs library, with resource operations transparently
/// offloaded to the host delegation daemon over the command channel.
pub struct DcfaContext {
    // (Debug impl below.)
    vctx: VerbsContext,
    cluster: Arc<Cluster>,
    scif: Arc<ScifFabric>,
    cfg: DcfaConfig,
    state: Arc<Mutex<ClientState>>,
    hb_stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for DcfaContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DcfaContext")
            .field("node", &self.node())
            .finish_non_exhaustive()
    }
}

impl DcfaContext {
    /// Connect to the node's DCFA daemon and perform the hello handshake.
    /// Retries briefly to tolerate same-instant daemon startup.
    pub fn open(
        ctx: &mut Ctx,
        ib: &Arc<IbFabric>,
        scif_fabric: &Arc<ScifFabric>,
        node: NodeId,
    ) -> Result<DcfaContext, DcfaError> {
        Self::open_with(ctx, ib, scif_fabric, node, DcfaConfig::default())
    }

    /// [`DcfaContext::open`] with explicit command-channel tunables.
    pub fn open_with(
        ctx: &mut Ctx,
        ib: &Arc<IbFabric>,
        scif_fabric: &Arc<ScifFabric>,
        node: NodeId,
        cfg: DcfaConfig,
    ) -> Result<DcfaContext, DcfaError> {
        let ep = connect_retry(ctx, scif_fabric, node)?;
        let dcfa = DcfaContext {
            vctx: VerbsContext::open(ib.clone(), node, Domain::Phi),
            cluster: ib.cluster().clone(),
            scif: scif_fabric.clone(),
            cfg,
            state: Arc::new(Mutex::new(ClientState {
                ep,
                next_seq: 1,
                client: CLIENT_NONE,
                daemon_epoch: 0,
                ctrl_epoch: 0,
                journal: Vec::new(),
            })),
            hb_stop: Arc::new(AtomicBool::new(false)),
        };
        match dcfa.command(
            ctx,
            Cmd::Hello {
                client: CLIENT_NONE,
            },
        )? {
            Reply::Hello { client } => dcfa.state.lock().client = client,
            Reply::Error { code } => return Err(DcfaError::from_code(code)),
            _ => return Err(DcfaError::Protocol),
        }
        dcfa.start_heartbeat(ctx);
        Ok(dcfa)
    }

    pub fn node(&self) -> NodeId {
        self.vctx.node()
    }

    /// Phi memory of this node.
    pub fn mem_ref(&self) -> MemRef {
        self.vctx.mem_ref()
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The underlying verbs context (data-path operations are direct).
    pub fn verbs(&self) -> &VerbsContext {
        &self.vctx
    }

    /// Daemon-assigned client id.
    pub fn client_id(&self) -> u32 {
        self.state.lock().client
    }

    /// Client control epoch: bumped on every re-attach (daemon restart or
    /// lease loss). Upper layers flush key-holding caches when it moves.
    pub fn ctrl_epoch(&self) -> u64 {
        self.state.lock().ctrl_epoch
    }

    /// Counter handle this context tallies retries/timeouts into.
    pub fn stats(&self) -> &DcfaStats {
        &self.cfg.stats
    }

    fn emit(&self, ev: CtrlEvent) {
        if let Some(hook) = &self.cfg.hook {
            hook(&ev);
        }
    }

    /// Start the lease-renewal sidecar, if configured: a tick that sends
    /// a heartbeat on the command endpoint (fire-and-forget, so it never
    /// consumes command replies), following reconnects, and queues itself
    /// again one interval after the heartbeat has left.
    fn start_heartbeat(&self, ctx: &mut Ctx) {
        let Some(interval) = self.cfg.heartbeat_interval else {
            return;
        };
        let beat = Heartbeat {
            state: self.state.clone(),
            stop: self.hb_stop.clone(),
            interval,
            send_cost: self.cluster.config().cost.cpu_op(Domain::Phi),
        };
        beat.tick_at(&ctx.scheduler(), ctx.now() + interval);
    }

    // -- fault-tolerant command transport ---------------------------------

    fn alloc_seq(&self) -> u32 {
        let mut st = self.state.lock();
        let seq = st.next_seq;
        st.next_seq = st.next_seq.wrapping_add(1);
        seq
    }

    /// Issue one command reliably: retransmit on reply timeout, re-attach
    /// (reconnect + journal replay) when retries exhaust or the daemon
    /// reports our session gone.
    fn command(&self, ctx: &mut Ctx, cmd: Cmd) -> Result<Reply, DcfaError> {
        let started = self.cfg.perf.as_ref().map(|_| ctx.now());
        let result = self.command_inner(ctx, cmd);
        if let (Some(probe), Some(t0)) = (&self.cfg.perf, started) {
            probe(CtrlPerf {
                op: CtrlOp::Command,
                bytes: 0,
                ns: ctx.now().since(t0).as_nanos(),
            });
        }
        result
    }

    /// [`DcfaContext::command`] for a command answered with a bare `Ok`.
    fn command_ok(&self, ctx: &mut Ctx, cmd: Cmd) -> Result<(), DcfaError> {
        match self.command(ctx, cmd)? {
            Reply::Ok => Ok(()),
            Reply::Error { code } => Err(DcfaError::from_code(code)),
            _ => Err(DcfaError::Protocol),
        }
    }

    fn command_inner(&self, ctx: &mut Ctx, cmd: Cmd) -> Result<Reply, DcfaError> {
        let seq = self.alloc_seq();
        let mut reattach_budget = 2u32;
        loop {
            match self.command_attempts(ctx, seq, &cmd)? {
                Some(Reply::Error {
                    code: err_code::NO_SESSION,
                }) if !matches!(cmd, Cmd::Hello { .. }) => {
                    // Lease reclaimed (or daemon restarted) under us.
                }
                Some(reply) => return Ok(reply),
                None => {} // every retransmit timed out
            }
            if reattach_budget == 0 {
                return Err(DcfaError::Timeout);
            }
            reattach_budget -= 1;
            self.reattach(ctx)?;
        }
    }

    /// Send `cmd` under `seq` up to `1 + CMD_RETRY_LIMIT` times on the
    /// current endpoint. `Ok(None)` means every attempt timed out.
    fn command_attempts(
        &self,
        ctx: &mut Ctx,
        seq: u32,
        cmd: &Cmd,
    ) -> Result<Option<Reply>, DcfaError> {
        for attempt in 0..=CMD_RETRY_LIMIT {
            if attempt > 0 {
                self.cfg.stats.update(|c| c.cmd_retries += 1);
                self.emit(CtrlEvent::CmdRetry {
                    client: self.client_id(),
                    seq,
                    attempt,
                });
                // Exponential backoff before the retransmit.
                ctx.sleep(self.cfg.cmd_backoff * (1u64 << (attempt - 1).min(10)));
            }
            let ep = self.state.lock().ep.clone();
            ep.send(ctx, &cmd_frame(seq, cmd));
            match self.await_reply(ctx, &ep, seq)? {
                Some((epoch, reply)) => {
                    self.state.lock().daemon_epoch = epoch;
                    return Ok(Some(reply));
                }
                None => {
                    self.cfg.stats.update(|c| c.cmd_timeouts += 1);
                    self.emit(CtrlEvent::CmdTimeout {
                        client: self.client_id(),
                        seq,
                    });
                }
            }
        }
        Ok(None)
    }

    /// Wait up to `cmd_timeout` for the reply to `seq`, skipping stale
    /// duplicates left over from earlier retransmits.
    fn await_reply(
        &self,
        ctx: &mut Ctx,
        ep: &ScifEndpoint,
        seq: u32,
    ) -> Result<Option<(u32, Reply)>, DcfaError> {
        let deadline = ctx.now() + self.cfg.cmd_timeout;
        loop {
            if ctx.now() >= deadline {
                return Ok(None);
            }
            let wait = deadline - ctx.now();
            match ep.recv_timeout_with(ctx, wait, decode_reply_frame) {
                None => return Ok(None),
                Some(None) => return Err(DcfaError::Protocol),
                Some(Some((rseq, epoch, reply))) if rseq == seq => return Ok(Some((epoch, reply))),
                Some(Some(_)) => {} // duplicate reply to an abandoned attempt
            }
        }
    }

    /// Reconnect to the (possibly respawned) daemon and replay the journal:
    /// re-greet with our client id, re-adopt every journaled MR that
    /// survived on the HCA (re-register those that did not), re-create
    /// QPs/CQs, then bump the control epoch so caches flush stale keys.
    fn reattach(&self, ctx: &mut Ctx) -> Result<(), DcfaError> {
        let node = self.node();
        let mut last_err = DcfaError::Timeout;
        for attempt in 0..RECONNECT_LIMIT {
            if attempt > 0 {
                ctx.sleep(RECONNECT_BACKOFF * attempt as u64);
            }
            let local = MemRef {
                node,
                domain: Domain::Phi,
            };
            let ep = match self.scif.connect(ctx, local, Domain::Host, DCFA_PORT) {
                Ok(ep) => ep,
                Err(e) => {
                    last_err = DcfaError::Connect(e);
                    continue;
                }
            };
            self.state.lock().ep = ep;
            match self.replay_journal(ctx) {
                Ok(()) => return Ok(()),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// One command of the replay under a fresh sequence id, on the current
    /// endpoint only: a timeout fails the replay (and the caller moves on
    /// to the next reconnect attempt) instead of re-attaching recursively.
    fn replay_one(&self, ctx: &mut Ctx, cmd: &Cmd) -> Result<Reply, DcfaError> {
        let seq = self.alloc_seq();
        self.command_attempts(ctx, seq, cmd)?
            .ok_or(DcfaError::Timeout)
    }

    fn replay_journal(&self, ctx: &mut Ctx) -> Result<(), DcfaError> {
        let (client, journal) = {
            let st = self.state.lock();
            (st.client, st.journal.clone())
        };
        let id = match self.replay_one(ctx, &Cmd::Hello { client })? {
            Reply::Hello { client } => client,
            Reply::Error { code } => return Err(DcfaError::from_code(code)),
            _ => return Err(DcfaError::Protocol),
        };
        self.state.lock().client = id;

        let journaled = journal.len() as u64;
        let mut new_journal = Vec::with_capacity(journal.len());
        for entry in journal {
            let cmd = match &entry {
                JournalEntry::Mr { key, .. } => Cmd::AdoptMr { key: *key },
                JournalEntry::Cq => Cmd::CreateCq,
                JournalEntry::Qp => Cmd::CreateQp,
            };
            let mut reply = self.replay_one(ctx, &cmd)?;
            if let (JournalEntry::Mr { buffer, .. }, Reply::Error { code }) = (&entry, reply) {
                if code == err_code::UNKNOWN_KEY {
                    // The MR did not survive (lease reclaimed before we
                    // noticed): register it afresh. Holders of the old key
                    // rediscover it via cache invalidation.
                    let (mem, addr, len) = (buffer.mem, buffer.addr, buffer.len);
                    reply = self.replay_one(ctx, &Cmd::RegMr { mem, addr, len })?;
                }
            }
            new_journal.push(match (entry, reply) {
                (_, Reply::Error { code }) => return Err(DcfaError::from_code(code)),
                (JournalEntry::Mr { buffer, .. }, Reply::MrKey { key }) => {
                    JournalEntry::Mr { key, buffer }
                }
                (entry @ (JournalEntry::Cq | JournalEntry::Qp), Reply::Ok) => entry,
                _ => return Err(DcfaError::Protocol),
            });
        }
        let replayed = new_journal.len() as u64;
        let epoch = {
            let mut st = self.state.lock();
            st.journal = new_journal;
            st.ctrl_epoch += 1;
            st.daemon_epoch
        };
        // (The daemon counts `reattaches` when it sees the re-Hello; we
        // only emit the richer client-side event.)
        self.emit(CtrlEvent::Reattach {
            client: id,
            epoch,
            journaled,
            replayed,
        });
        Ok(())
    }

    // -- resource operations ----------------------------------------------

    /// Register a Phi-resident buffer as an InfiniBand memory region. The
    /// CMD client translates the buffer's pages to physical addresses and
    /// offloads the registration to the host daemon — this is why Phi-side
    /// registration "is much more expensive than that on the host"
    /// (§IV-B3), motivating DCFA-MPI's buffer cache pool.
    pub fn reg_mr(&self, ctx: &mut Ctx, buffer: Buffer) -> Result<MemoryRegion, DcfaError> {
        let cost = &self.cluster.config().cost;
        // Virtual→physical translation of every page, on a slow Phi core.
        ctx.sleep(cost.cpu_op(Domain::Phi) + cost.cmd_translate_per_page * buffer.pages());
        match self.command(
            ctx,
            Cmd::RegMr {
                mem: buffer.mem,
                addr: buffer.addr,
                len: buffer.len,
            },
        )? {
            Reply::MrKey { key } => {
                let mr = self
                    .vctx
                    .fabric()
                    .mr_handle(MrKey(key))
                    .ok_or(DcfaError::Protocol)?;
                self.state.lock().journal.push(JournalEntry::Mr {
                    key,
                    buffer: buffer.clone(),
                });
                Ok(mr)
            }
            Reply::Error { code } => Err(DcfaError::from_code(code)),
            _ => Err(DcfaError::Protocol),
        }
    }

    /// Deregister a memory region through the daemon.
    pub fn dereg_mr(&self, ctx: &mut Ctx, mr: &MemoryRegion) -> Result<(), DcfaError> {
        let key = mr.key().0;
        let result = self.command_ok(ctx, Cmd::DeregMr { key });
        // Either way the resource is gone; stop journaling it.
        self.state
            .lock()
            .journal
            .retain(|e| !matches!(e, JournalEntry::Mr { key: k, .. } if *k == key));
        result
    }

    /// Create a completion queue (resource setup offloaded; the CQ itself
    /// lives in Phi memory and is polled directly).
    pub fn create_cq(&self, ctx: &mut Ctx) -> Result<CompletionQueue, DcfaError> {
        self.command_ok(ctx, Cmd::CreateCq)?;
        self.state.lock().journal.push(JournalEntry::Cq);
        Ok(self.vctx.create_cq())
    }

    /// Create a reliable-connected QP. Resource initialization runs on the
    /// host; posts are issued from the Phi directly to the HCA.
    pub fn create_qp(
        &self,
        ctx: &mut Ctx,
        send_cq: &CompletionQueue,
        recv_cq: &CompletionQueue,
    ) -> Result<QueuePair, DcfaError> {
        self.command_ok(ctx, Cmd::CreateQp)?;
        self.state.lock().journal.push(JournalEntry::Qp);
        Ok(self.vctx.create_qp(send_cq, recv_cq))
    }

    /// Create a shared receive queue. Queue-object setup is offloaded to
    /// the host like a CQ; posts are issued from the Phi directly.
    pub fn create_srq(&self, ctx: &mut Ctx) -> Result<SharedReceiveQueue, DcfaError> {
        self.command_ok(ctx, Cmd::CreateCq)?;
        self.state.lock().journal.push(JournalEntry::Cq);
        Ok(self.vctx.create_srq())
    }

    /// Create a reliable-connected QP attached to a shared receive queue.
    pub fn create_qp_with_srq(
        &self,
        ctx: &mut Ctx,
        send_cq: &CompletionQueue,
        recv_cq: &CompletionQueue,
        srq: &SharedReceiveQueue,
    ) -> Result<QueuePair, DcfaError> {
        self.command_ok(ctx, Cmd::CreateQp)?;
        self.state.lock().journal.push(JournalEntry::Qp);
        Ok(self.vctx.create_qp_with_srq(send_cq, recv_cq, srq))
    }

    /// `reg_offload_mr`: allocate + register a host twin for `phi_buffer`
    /// (paper §IV-B4). Subsequent sends can source the host twin at full
    /// host DMA speed after a [`DcfaContext::sync_offload_mr`]. Twins are
    /// deliberately *not* journaled: they live in the delegation process's
    /// address space and die with it, so after a re-attach callers simply
    /// create fresh ones (or degrade to direct sends).
    pub fn reg_offload_mr(
        &self,
        ctx: &mut Ctx,
        phi_buffer: &Buffer,
    ) -> Result<OffloadMr, DcfaError> {
        assert_eq!(
            phi_buffer.mem.node,
            self.node(),
            "offload twin must be node-local"
        );
        match self.command(
            ctx,
            Cmd::RegOffloadMr {
                len: phi_buffer.len,
            },
        )? {
            Reply::Offload { key, .. } => {
                let host_mr = self
                    .vctx
                    .fabric()
                    .mr_handle(MrKey(key))
                    .ok_or(DcfaError::Protocol)?;
                Ok(OffloadMr {
                    phi: phi_buffer.clone(),
                    host_mr,
                })
            }
            Reply::Error { code } => Err(DcfaError::from_code(code)),
            _ => Err(DcfaError::Protocol),
        }
    }

    /// `sync_offload_mr`: DMA the latest bytes `[offset, offset+len)` from
    /// the Phi buffer into its host twin. Blocks until the host twin is
    /// up to date ("data must be synchronized into the corresponding host
    /// buffer using the DMA engine" before posting the send).
    pub fn sync_offload_mr(&self, ctx: &mut Ctx, omr: &OffloadMr, offset: u64, len: u64) {
        let started = self.cfg.perf.as_ref().map(|_| ctx.now());
        let src = omr.phi.slice(offset, len);
        let dst = omr.host_mr.buffer().slice(offset, len);
        let t = self.cluster.pci_dma(&src, &dst, ctx.now());
        ctx.wait_reason(&t.completion, "sync_offload_mr");
        if let (Some(probe), Some(t0)) = (&self.cfg.perf, started) {
            probe(CtrlPerf {
                op: CtrlOp::OffloadSync,
                bytes: len,
                ns: ctx.now().since(t0).as_nanos(),
            });
        }
    }

    /// `dereg_offload_mr`: destroy the Phi-side descriptor, deregister the
    /// host MR and free the host twin. Idempotent: a twin the daemon
    /// already reclaimed (crash or expired lease) tears down as `Ok`.
    pub fn dereg_offload_mr(&self, ctx: &mut Ctx, omr: OffloadMr) -> Result<(), DcfaError> {
        let key = omr.host_mr.key().0;
        self.command_ok(ctx, Cmd::DeregOffloadMr { key })
    }

    /// Arm a link-fault plan on the cluster fabric through the host
    /// daemon. Lets a Phi-resident test harness schedule transport faults
    /// (consumed by the HCA model on matching posted operations) without
    /// any host-side assist code.
    pub fn inject_fault(&self, ctx: &mut Ctx, fault: fabric::LinkFault) -> Result<(), DcfaError> {
        self.command_ok(ctx, Cmd::InjectFault(fault))
    }

    /// Tell the daemon this client is going away (its connection closes)
    /// and stop the heartbeat sidecar.
    pub fn close(&self, ctx: &mut Ctx) {
        self.hb_stop.store(true, Ordering::Relaxed);
        let _ = self.command(ctx, Cmd::Bye);
        self.state.lock().journal.clear();
    }

    /// Fail-stop teardown: silence the heartbeat sidecar with *no*
    /// goodbye handshake. The daemon only finds out through lease
    /// expiry — the reaper then reclaims the session and its objects,
    /// exactly as it would for a really crashed card.
    pub fn abandon(&self) {
        self.hb_stop.store(true, Ordering::Relaxed);
    }
}

/// The lease-renewal sidecar: not a process but a tick that re-queues
/// itself, like `fabric::health`'s failure-detector sidecar.
struct Heartbeat {
    state: Arc<Mutex<ClientState>>,
    stop: Arc<AtomicBool>,
    interval: SimDuration,
    /// The Phi-side `cpu_op` a send costs before the message leaves.
    send_cost: SimDuration,
}

impl Heartbeat {
    fn tick_at(self, sched: &Scheduler, at: SimTime) {
        sched.call_at(at, move |s| {
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            // Read at fire time: a re-attach may have replaced the endpoint.
            let ep = self.state.lock().ep.clone();
            let depart = s.now() + self.send_cost;
            ep.send_from(depart, &cmd_frame(SEQ_NONE, &Cmd::Heartbeat));
            let next = depart + self.interval;
            self.tick_at(s, next);
        });
    }
}

/// Initial connect with retry: tolerates same-instant daemon startup and
/// short daemon downtime.
fn connect_retry(
    ctx: &mut Ctx,
    scif_fabric: &Arc<ScifFabric>,
    node: NodeId,
) -> Result<ScifEndpoint, DcfaError> {
    let local = MemRef {
        node,
        domain: Domain::Phi,
    };
    let mut last_err = None;
    for attempt in 0..RECONNECT_LIMIT {
        if attempt > 0 {
            ctx.sleep(RECONNECT_BACKOFF * attempt as u64);
        } else {
            // Give a same-instant daemon spawn a chance to listen first.
            ctx.sleep(SimDuration::from_micros(1));
        }
        match scif_fabric.connect(ctx, local, Domain::Host, DCFA_PORT) {
            Ok(ep) => return Ok(ep),
            Err(e) => last_err = Some(e),
        }
    }
    Err(DcfaError::Connect(last_err.unwrap()))
}
