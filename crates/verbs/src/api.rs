//! The Verbs-style user API: fabric-wide registry, per-process contexts,
//! memory regions and queue pairs.
//!
//! Semantics implemented (the subset DCFA-MPI relies on, per the paper):
//!
//! * Reliable-connected QPs; send-queue work requests execute in post
//!   order and their data transfers never overtake each other on a QP.
//! * Two-sided Send/Recv with SGE gather/scatter and FIFO receive matching;
//!   an inbound Send larger than the posted receive completes with
//!   `LocalLengthError` (the paper's §IV-B3 mis-prediction case relies on
//!   length checking).
//! * One-sided RDMA WRITE and RDMA READ against registered regions, with
//!   key and range validation. An RDMA WRITE delivers the payload in SGE
//!   order, so a receiver can poll the tail byte to detect arrival —
//!   exactly the eager-packet design of the paper ("it's ensured that the
//!   data payload of the receive buffer uses the same order as the SGEs
//!   defined in the sender request").

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fabric::{Buffer, Cluster, Domain, MemRef, NodeId, Plane};
use simcore::{Ctx, Scheduler, SimCell, SimEvent, SimTime};

use crate::cq::CompletionQueue;
use crate::types::{
    MrKey, QpNum, RecvWr, SendOpcode, SendWr, Sge, SgeList, VerbsError, Wc, WcOpcode, WcStatus,
};

/// A work request's gather/scatter list resolved to buffer slices at post
/// time, inline like the [`SgeList`] it came from.
type LocalSlices = [Option<Buffer>; SgeList::MAX];

/// Hasher of the fabric tables: their keys are small integers this crate
/// counts up itself (never outside input), resolved two or three times per
/// post and per delivery, so one multiply per word replaces SipHash.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

struct MrEntry {
    buffer: Buffer,
    write_event: SimEvent,
    /// Remote writes delivered into the region ([`MemoryRegion::writes`]).
    /// One writer at a time — a delivery, holding the fabric table — so a
    /// plain load and a `Release` store; readers `Acquire` it without a
    /// lock and see the bytes of every write they count.
    writes: Arc<AtomicU64>,
}

impl MrEntry {
    fn handle(&self, key: MrKey) -> MemoryRegion {
        MemoryRegion {
            key,
            buffer: self.buffer.clone(),
            write_event: self.write_event.clone(),
            writes: self.writes.clone(),
        }
    }

    /// A remote write has landed in the region: count it, wake its pollers.
    fn written(&self, sched: &Scheduler) {
        let n = self.writes.load(Ordering::Relaxed) + 1;
        self.writes.store(n, Ordering::Release);
        self.write_event.notify_all(sched);
    }
}

struct QpShared {
    qpn: QpNum,
    node: NodeId,
    // Fixed at creation, so they sit beside the state lock, not under it:
    // a completion reaches its CQ without locking (or cloning) anything.
    send_cq: CompletionQueue,
    recv_cq: CompletionQueue,
    /// Shared receive queue this QP draws receives from instead of `rq`.
    srq: Option<Arc<SrqShared>>,
    state: SimCell<QpState>,
}

struct QpState {
    remote: Option<(NodeId, QpNum)>,
    /// The QP is in the error state (owner fail-stopped): every posted
    /// or in-flight WR targeting it completes with `WrFlushErr` and no
    /// data moves. Monotone — an errored QP never recovers.
    dead: bool,
    /// End time of the last transfer posted on the send queue (RC ordering).
    sq_busy: SimTime,
    rq: std::collections::VecDeque<RecvWr>,
    /// Sends that arrived before a receive was posted (RNR-style holding).
    backlog: std::collections::VecDeque<InboundSend>,
}

/// A Send held RNR-style: no receive was posted when it arrived, so its
/// payload has no destination yet and lives in an owned copy.
struct InboundSend {
    data: Vec<u8>,
    src: (NodeId, QpNum),
}

struct SrqState {
    rq: std::collections::VecDeque<RecvWr>,
    /// Sends held RNR-style while the pool is empty, remembering the recv
    /// CQ of the QP each arrived on so a later post completes there.
    backlog: std::collections::VecDeque<(InboundSend, CompletionQueue)>,
}

struct SrqShared {
    state: SimCell<SrqState>,
}

/// A shared receive queue (`ibv_srq` analogue): one pool of receive work
/// requests consumed, in post order, by every QP attached to it. An
/// inbound Send on an attached QP pops the SRQ instead of the QP's own
/// receive queue; its completion still surfaces on that QP's recv CQ,
/// carrying `src` so the consumer can tell peers apart.
pub struct SharedReceiveQueue {
    fabric: Arc<IbFabric>,
    shared: Arc<SrqShared>,
    domain: Domain,
}

impl SharedReceiveQueue {
    /// Post a receive work request to the shared pool. If a Send is being
    /// held RNR-style (the pool ran dry when it arrived), it is delivered
    /// into this receive immediately, completing on the recv CQ of the QP
    /// it arrived on.
    pub fn post_recv(&self, ctx: &mut Ctx, wr: RecvWr) -> Result<(), VerbsError> {
        self.fabric.validate(&wr)?;
        let cost = &self.fabric.cluster().config().cost;
        ctx.sleep(cost.cpu_op(self.domain));
        let mut st = self.shared.state.lock();
        if let Some((inbound, recv_cq)) = st.backlog.pop_front() {
            drop(st);
            self.fabric
                .deliver_held(&inbound, &wr, &recv_cq, &ctx.scheduler());
            return Ok(());
        }
        st.rq.push_back(wr);
        Ok(())
    }
}

/// A filtered fault plan: fires (once) on the `after_matches`-th posted
/// data operation that satisfies every filter. Unset filters match
/// everything, so an unfiltered plan counts every posted op; only matching
/// operations tick the skip counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    pub status: WcStatus,
    pub after_matches: u64,
    /// Restrict to one operation kind (e.g. only RDMA READs).
    pub op: Option<SendOpcode>,
    /// Restrict to operations posted by this node's HCA.
    pub initiator: Option<NodeId>,
    /// Restrict to operations targeting this node.
    pub target: Option<NodeId>,
    /// Restrict to operations moving at least this many bytes (isolates
    /// large rendezvous transfers from small ring writes).
    pub min_bytes: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            status: WcStatus::RemoteAccessError,
            after_matches: 0,
            op: None,
            initiator: None,
            target: None,
            min_bytes: 0,
        }
    }
}

impl FaultPlan {
    fn matches(&self, op: SendOpcode, initiator: NodeId, target: NodeId, bytes: u64) -> bool {
        self.op.is_none_or(|o| o == op)
            && self.initiator.is_none_or(|n| n == initiator)
            && self.target.is_none_or(|n| n == target)
            && bytes >= self.min_bytes
    }
}

struct FabState {
    next_qpn: u32,
    next_key: u32,
    mrs: KeyMap<u32, MrEntry>,
    qps: KeyMap<(NodeId, u32), Arc<QpShared>>,
    fault_plans: Vec<FaultPlan>,
}

/// The fabric-wide InfiniBand software state: key and QP registries layered
/// over the hardware [`Cluster`]. One per simulation.
pub struct IbFabric {
    cluster: Arc<Cluster>,
    state: SimCell<FabState>,
}

impl IbFabric {
    pub fn new(cluster: Arc<Cluster>) -> Arc<IbFabric> {
        Arc::new(IbFabric {
            cluster,
            state: SimCell::new(FabState {
                next_qpn: 1,
                next_key: 1,
                mrs: KeyMap::default(),
                qps: KeyMap::default(),
                fault_plans: Vec::new(),
            }),
        })
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Fault injection: arm a fault plan (see [`FaultPlan`]), which makes
    /// a matching data-path operation complete with its `status` instead
    /// of executing (models HCA/link failures). Filtered plans tick
    /// only on matching operations, so a test can target, say, the third
    /// RDMA READ posted by node 2 without counting unrelated traffic.
    pub fn inject_fault_plan(&self, plan: FaultPlan) {
        self.state.lock().fault_plans.push(plan);
    }

    /// The plans armed and not yet fired, each with what it has left to
    /// skip, in arming order.
    pub fn armed_fault_plans(&self) -> Vec<FaultPlan> {
        self.state.lock().fault_plans.clone()
    }

    /// Transition every QP owned by `node` to the error state (fail-stop
    /// teardown): subsequent deliveries on them — in either direction —
    /// flush with [`WcStatus::WrFlushErr`] and move no data. In the
    /// simulated cluster ranks map 1:1 onto nodes, so this is the verbs
    /// half of killing a rank.
    pub fn kill_node(&self, node: NodeId) {
        let st = self.state.lock();
        for qp in st.qps.values() {
            if qp.node == node {
                qp.state.lock().dead = true;
            }
        }
    }

    /// Rebuild a [`MemoryRegion`] handle from its key (used by the DCFA
    /// command client after the host daemon performed the registration).
    pub fn mr_handle(&self, key: MrKey) -> Option<MemoryRegion> {
        let st = self.state.lock();
        Some(st.mrs.get(&key.0)?.handle(key))
    }

    /// Replace the write-notification event of a registered region and
    /// return the refreshed handle. Lets a region registered through the
    /// DCFA daemon participate in a process's multiplexed progress event.
    pub fn set_write_event(&self, key: MrKey, event: SimEvent) -> Option<MemoryRegion> {
        let mut st = self.state.lock();
        let entry = st.mrs.get_mut(&key.0)?;
        entry.write_event = event;
        Some(entry.handle(key))
    }

    /// Check a receive's scatter list eagerly, under one table acquisition.
    fn validate(&self, wr: &RecvWr) -> Result<(), VerbsError> {
        let st = self.state.lock();
        wr.sges
            .iter()
            .try_for_each(|sge| st.resolve_sge(sge).map(drop))
    }

    /// Deliver a Send that was held RNR-style into the receive just posted
    /// for it.
    fn deliver_held(
        &self,
        inbound: &InboundSend,
        wr: &RecvWr,
        recv_cq: &CompletionQueue,
        sched: &Scheduler,
    ) {
        let data = SendData::Held(&inbound.data);
        let table = self.state.lock();
        scatter_into(&table, &self.cluster, data, wr, inbound.src, recv_cq, sched);
    }
}

/// Everything below works on the table already locked: an operation takes
/// the fabric-wide lock once and resolves all its keys and QPs under it.
impl FabState {
    /// The fault plans, one tick per posted data operation: matching ops
    /// tick each plan, and the first exhausted one fires (and is removed).
    fn take_fault(
        &mut self,
        op: SendOpcode,
        initiator: NodeId,
        target: NodeId,
        bytes: u64,
    ) -> Option<WcStatus> {
        let mut fired = None;
        self.fault_plans.retain_mut(|p| {
            if !p.matches(op, initiator, target, bytes) {
                return true;
            }
            if p.after_matches > 0 {
                p.after_matches -= 1;
                return true;
            }
            if fired.is_none() {
                fired = Some(p.status);
                return false;
            }
            true
        });
        fired
    }

    fn qp(&self, (node, qpn): (NodeId, QpNum)) -> Option<&Arc<QpShared>> {
        self.qps.get(&(node, qpn.0))
    }

    /// Resolve an SGE to a concrete buffer slice, validating key and range.
    fn resolve_sge(&self, sge: &Sge) -> Result<Buffer, VerbsError> {
        let out_of_range = VerbsError::SgeOutOfRange {
            addr: sge.addr,
            len: sge.len,
        };
        let buf = &self
            .mrs
            .get(&sge.lkey.0)
            .ok_or(VerbsError::InvalidLKey(sge.lkey))?
            .buffer;
        let Some(end) = sge.addr.checked_add(sge.len) else {
            return Err(out_of_range);
        };
        if sge.addr < buf.addr || end > buf.addr + buf.len {
            return Err(out_of_range);
        }
        Ok(buf.slice(sge.addr - buf.addr, sge.len))
    }

    /// The slice `[addr, addr + len)` of the region `rkey` names, and the
    /// region's entry.
    fn resolve_remote(&self, rkey: MrKey, addr: u64, len: u64) -> Option<(Buffer, &MrEntry)> {
        let entry = self.mrs.get(&rkey.0)?;
        let buf = &entry.buffer;
        if addr < buf.addr || addr + len > buf.addr + buf.len {
            return None;
        }
        Some((buf.slice(addr - buf.addr, len), entry))
    }
}

/// Per-process device context (`ibv_open_device` analogue). `domain` is
/// where the calling software runs: it determines per-operation CPU costs
/// and where SGE content lives.
pub struct VerbsContext {
    fabric: Arc<IbFabric>,
    node: NodeId,
    domain: Domain,
}

impl VerbsContext {
    pub fn open(fabric: Arc<IbFabric>, node: NodeId, domain: Domain) -> Self {
        VerbsContext {
            fabric,
            node,
            domain,
        }
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    pub fn domain(&self) -> Domain {
        self.domain
    }

    pub fn mem_ref(&self) -> MemRef {
        MemRef {
            node: self.node,
            domain: self.domain,
        }
    }

    pub fn fabric(&self) -> &Arc<IbFabric> {
        &self.fabric
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        self.fabric.cluster()
    }

    /// Register a memory region, charging the host-side registration cost
    /// (pin pages + HCA translation-table update). The DCFA layer wraps
    /// this with its command round trip for Phi-resident callers.
    pub fn reg_mr(&self, ctx: &mut Ctx, buffer: Buffer) -> MemoryRegion {
        let cost = &self.cluster().config().cost;
        let d = cost.host_mr_reg_base + cost.host_mr_reg_per_page * buffer.pages();
        ctx.sleep(d);
        self.reg_mr_uncharged(buffer)
    }

    /// Register without charging time (the caller models the cost, e.g. the
    /// DCFA command server which charges the full offload round trip).
    pub fn reg_mr_uncharged(&self, buffer: Buffer) -> MemoryRegion {
        self.reg_mr_with_event(buffer, SimEvent::new())
    }

    /// Register (uncharged) with an externally supplied write event, so
    /// inbound RDMA writes into this region wake a multiplexed waiter.
    pub fn reg_mr_with_event(&self, buffer: Buffer, write_event: SimEvent) -> MemoryRegion {
        let mut st = self.fabric.state.lock();
        let key = MrKey(st.next_key);
        st.next_key += 1;
        let entry = MrEntry {
            buffer,
            write_event,
            writes: Arc::default(),
        };
        let handle = entry.handle(key);
        st.mrs.insert(key.0, entry);
        handle
    }

    /// Deregister a memory region.
    pub fn dereg_mr(&self, mr: &MemoryRegion) {
        self.fabric.state.lock().mrs.remove(&mr.key.0);
    }

    /// Create a completion queue.
    pub fn create_cq(&self) -> CompletionQueue {
        CompletionQueue::new()
    }

    /// Create a reliable-connected queue pair.
    pub fn create_qp(&self, send_cq: &CompletionQueue, recv_cq: &CompletionQueue) -> QueuePair {
        self.create_qp_inner(send_cq, recv_cq, None)
    }

    /// Create a shared receive queue.
    pub fn create_srq(&self) -> SharedReceiveQueue {
        SharedReceiveQueue {
            fabric: self.fabric.clone(),
            shared: Arc::new(SrqShared {
                state: SimCell::new(SrqState {
                    rq: Default::default(),
                    backlog: Default::default(),
                }),
            }),
            domain: self.domain,
        }
    }

    /// Create a reliable-connected queue pair attached to a shared receive
    /// queue: inbound Sends consume SRQ entries, never per-QP receives.
    pub fn create_qp_with_srq(
        &self,
        send_cq: &CompletionQueue,
        recv_cq: &CompletionQueue,
        srq: &SharedReceiveQueue,
    ) -> QueuePair {
        self.create_qp_inner(send_cq, recv_cq, Some(srq.shared.clone()))
    }

    fn create_qp_inner(
        &self,
        send_cq: &CompletionQueue,
        recv_cq: &CompletionQueue,
        srq: Option<Arc<SrqShared>>,
    ) -> QueuePair {
        let mut st = self.fabric.state.lock();
        let qpn = QpNum(st.next_qpn);
        st.next_qpn += 1;
        let shared = Arc::new(QpShared {
            qpn,
            node: self.node,
            send_cq: send_cq.clone(),
            recv_cq: recv_cq.clone(),
            srq,
            state: SimCell::new(QpState {
                remote: None,
                dead: false,
                sq_busy: SimTime::ZERO,
                rq: Default::default(),
                backlog: Default::default(),
            }),
        });
        st.qps.insert((self.node, qpn.0), shared.clone());
        QueuePair {
            qp: Arc::new(Qp {
                fabric: self.fabric.clone(),
                shared,
                domain: self.domain,
            }),
        }
    }
}

/// A registered memory region.
#[derive(Clone)]
pub struct MemoryRegion {
    key: MrKey,
    buffer: Buffer,
    write_event: SimEvent,
    writes: Arc<AtomicU64>,
}

impl MemoryRegion {
    /// lkey == rkey in the simulated fabric.
    pub fn key(&self) -> MrKey {
        self.key
    }

    pub fn rkey(&self) -> MrKey {
        self.key
    }

    pub fn buffer(&self) -> &Buffer {
        &self.buffer
    }

    /// Base address of the region.
    pub fn addr(&self) -> u64 {
        self.buffer.addr
    }

    pub fn len(&self) -> u64 {
        self.buffer.len
    }

    pub fn is_empty(&self) -> bool {
        self.buffer.len == 0
    }

    /// An SGE covering `[offset, offset+len)` of the region.
    pub fn sge(&self, offset: u64, len: u64) -> Sge {
        assert!(offset + len <= self.buffer.len, "sge outside region");
        Sge {
            addr: self.buffer.addr + offset,
            len,
            lkey: self.key,
        }
    }

    /// Fires whenever an inbound RDMA WRITE lands anywhere in this region —
    /// the simulation's stand-in for polling a cache line.
    pub fn write_event(&self) -> &SimEvent {
        &self.write_event
    }

    /// How many remote writes — RDMA WRITEs, and atomics that changed their
    /// word — have been delivered into this region, through whichever
    /// handle. Unlike the write event, which a process may share among
    /// regions and completion queues, this answers "has *this* memory
    /// changed since I last looked?". Takes no lock.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Acquire)
    }
}

/// A reliable-connected queue pair.
pub struct QueuePair {
    /// One `Arc` for everything a delivery needs, so that the event a post
    /// schedules owns a single clone of it.
    qp: Arc<Qp>,
}

/// What a [`QueuePair`] handle is made of. The registry holds only
/// `shared` (which must not point back at the fabric that owns the
/// registry).
struct Qp {
    fabric: Arc<IbFabric>,
    shared: Arc<QpShared>,
    domain: Domain,
}

impl QueuePair {
    pub fn qpn(&self) -> QpNum {
        self.qp.shared.qpn
    }

    pub fn node(&self) -> NodeId {
        self.qp.shared.node
    }

    /// Transition to RTR/RTS against a remote QP (both sides must connect).
    pub fn connect(&self, remote_node: NodeId, remote_qpn: QpNum) {
        self.qp.shared.state.lock().remote = Some((remote_node, remote_qpn));
    }

    /// Transition this QP to the error state: deliveries flush with
    /// [`WcStatus::WrFlushErr`] from now on.
    pub fn set_error(&self) {
        self.qp.shared.state.lock().dead = true;
    }

    /// Convenience: wire two QPs to each other.
    pub fn connect_pair(a: &QueuePair, b: &QueuePair) {
        a.connect(b.node(), b.qpn());
        b.connect(a.node(), a.qpn());
    }

    /// Post a receive work request.
    pub fn post_recv(&self, ctx: &mut Ctx, wr: RecvWr) -> Result<(), VerbsError> {
        let Qp {
            fabric,
            shared,
            domain,
        } = &*self.qp;
        fabric.validate(&wr)?;
        ctx.sleep(fabric.cluster().config().cost.cpu_op(*domain));
        debug_assert!(
            shared.srq.is_none(),
            "post_recv on an SRQ-attached QP (post to the SRQ instead)"
        );
        let mut st = shared.state.lock();
        if let Some(inbound) = st.backlog.pop_front() {
            // RNR-held send: deliver into this receive right away.
            drop(st);
            fabric.deliver_held(&inbound, &wr, &shared.recv_cq, &ctx.scheduler());
            return Ok(());
        }
        st.rq.push_back(wr);
        Ok(())
    }

    /// Post a send-queue work request (Send / RDMA WRITE / RDMA READ).
    pub fn post_send(&self, ctx: &mut Ctx, wr: SendWr) -> Result<(), VerbsError> {
        self.post_send_inner(ctx, wr, true)
    }

    /// Post a send WR whose doorbell rides on the previous post: real HCAs
    /// fetch WQEs in cache-line batches, so software that enqueues several
    /// WQEs and rings once pays the doorbell/WQE-fetch overhead only on the
    /// first. The engine uses this when flushing a backlog of queued
    /// control packets in one sweep.
    pub fn post_send_coalesced(&self, ctx: &mut Ctx, wr: SendWr) -> Result<(), VerbsError> {
        self.post_send_inner(ctx, wr, false)
    }

    fn post_send_inner(
        &self,
        ctx: &mut Ctx,
        wr: SendWr,
        ring_doorbell: bool,
    ) -> Result<(), VerbsError> {
        let Qp {
            fabric,
            shared,
            domain,
        } = &*self.qp;
        let cluster = fabric.cluster();
        let cost = &cluster.config().cost;
        // Software post overhead + HCA doorbell/WQE fetch (the latter only
        // when this post rings its own doorbell).
        if ring_doorbell {
            ctx.sleep(cost.cpu_op(*domain) + cost.hca_wqe_overhead);
        } else {
            ctx.sleep(cost.cpu_op(*domain));
        }

        // One acquisition of this QP for the whole post — `remote` and
        // `sq_busy` are read and `sq_busy` written under it — and, inside
        // it, one of the fabric table for every key the post names.
        let mut qp = shared.state.lock();
        let remote = qp.remote.ok_or(VerbsError::QpNotConnected)?;
        let bytes: u64 = wr.byte_len();
        let mut local_slices = LocalSlices::default();
        let (remote_mem, fault) = {
            let mut table = fabric.state.lock();
            // Resolve the local gather/scatter list now (errors are
            // synchronous).
            for (slice, sge) in local_slices.iter_mut().zip(&wr.sges) {
                *slice = Some(table.resolve_sge(sge)?);
            }
            // The remote side of RDMA ops is wherever the remote region
            // lives; for Send it is wherever the matched receive's SGEs
            // live, which is only known at delivery — for path costing,
            // assume the domain of the receive the remote QP has posted
            // first, Host if it has posted none.
            let remote_mem = match wr.opcode {
                SendOpcode::Send => MemRef {
                    node: remote.0,
                    domain: remote_recv_domain(&table, shared, &qp, remote).unwrap_or(Domain::Host),
                },
                SendOpcode::RdmaWrite | SendOpcode::RdmaRead => {
                    let (rbuf, _) = table
                        .resolve_remote(wr.rkey, wr.remote_addr, bytes)
                        .ok_or(VerbsError::MissingRemote)?;
                    rbuf.mem
                }
                SendOpcode::FetchAdd | SendOpcode::CompareSwap => {
                    assert_eq!(bytes, 8, "IB atomics operate on one 8-byte word");
                    let (rbuf, _) = table
                        .resolve_remote(wr.rkey, wr.remote_addr, 8)
                        .ok_or(VerbsError::MissingRemote)?;
                    rbuf.mem
                }
            };
            // Last, so that a post refused above ticks no fault plan.
            let fault = table.take_fault(wr.opcode, shared.node, remote.0, bytes);
            (remote_mem, fault)
        };

        // Where does the data stream run? Send/RdmaWrite: local -> remote.
        // RdmaRead: remote -> local (initiator is the destination node).
        // The local endpoint of the stream is wherever the registered SGE
        // memory actually lives — this is exactly what the offloading send
        // buffer exploits: a Phi-resident process posting from a host twin
        // sources the transfer at host DMA speed (§IV-B4).
        let local_mem = local_slices[0].as_ref().map(|b| b.mem).unwrap_or(MemRef {
            node: shared.node,
            domain: *domain,
        });
        let (src_mem, dst_mem) = match wr.opcode {
            SendOpcode::Send | SendOpcode::RdmaWrite => (local_mem, remote_mem),
            // Reads and atomics: the payload flows back to the initiator
            // (atomics additionally pay the request hop, like reads).
            SendOpcode::RdmaRead | SendOpcode::FetchAdd | SendOpcode::CompareSwap => {
                (remote_mem, local_mem)
            }
        };
        let after = qp.sq_busy.max(ctx.now());
        let (_start, end) =
            cluster.reserve_ib_path(src_mem, dst_mem, bytes.max(1), shared.node, after);
        qp.sq_busy = end;
        drop(qp);

        // Schedule the delivery. A planned failure completes with an error
        // WC at the would-be completion time and moves no data.
        let qp = self.qp.clone();
        cluster.call_at(end, move |s| match fault {
            Some(status) => qp.shared.send_cq.push(
                s,
                Wc {
                    wr_id: wr.wr_id,
                    status,
                    opcode: wc_opcode_for(wr.opcode),
                    byte_len: bytes,
                    src: None,
                },
            ),
            None => deliver(&qp, wr, local_slices, remote, bytes, s),
        });
        Ok(())
    }
}

/// The memory domain of the first receive posted on QP `remote` (its own
/// queue, or the SRQ it draws from), for costing a two-sided Send from
/// `mine`, whose state the caller holds locked as `mine_state`. The
/// receive buffers of a Phi-resident process live in Phi memory. This only
/// affects path *costing* of two-sided sends (DCFA-MPI uses RDMA for all
/// data movement on rings).
fn remote_recv_domain(
    table: &FabState,
    mine: &Arc<QpShared>,
    mine_state: &QpState,
    remote: (NodeId, QpNum),
) -> Option<Domain> {
    let rqp = table.qp(remote)?;
    let first = |rq: &std::collections::VecDeque<RecvWr>| rq.front().map(|wr| wr.sges[0]);
    let sge = match &rqp.srq {
        Some(srq) => first(&srq.state.lock().rq),
        // A QP connected to itself: its state is the guard already held.
        None if Arc::ptr_eq(rqp, mine) => first(&mine_state.rq),
        None => first(&rqp.state.lock().rq),
    }?;
    Some(table.mrs.get(&sge.lkey.0)?.buffer.mem.domain)
}

/// Visit the gather list in order as `f(plane, slice, offset of the slice
/// in the gathered payload)`, with the byte plane locked once for all of
/// them.
fn for_each_slice(
    cluster: &Cluster,
    slices: &LocalSlices,
    mut f: impl FnMut(&mut Plane, &Buffer, u64),
) {
    cluster.with_plane(|m| {
        let mut off = 0;
        for s in slices.iter().flatten() {
            f(m, s, off);
            off += s.len;
        }
    });
}

/// Where an inbound Send's payload is when it meets its receive.
enum SendData<'a> {
    /// Still in the sender's registered memory: the gather list, in SGE
    /// order.
    Gather(&'a LocalSlices),
    /// Held RNR-style: the backlog's owned copy.
    Held(&'a [u8]),
}

impl SendData<'_> {
    fn len(&self) -> u64 {
        match self {
            SendData::Gather(slices) => slices.iter().flatten().map(|s| s.len).sum(),
            SendData::Held(data) => data.len() as u64,
        }
    }

    /// Move payload bytes `[off, off + len)` to the start of `dst`.
    fn copy_to(&self, cluster: &Cluster, off: u64, dst: &Buffer, len: u64) {
        match self {
            SendData::Held(data) => {
                cluster.write(dst, 0, &data[off as usize..(off + len) as usize]);
            }
            SendData::Gather(slices) => for_each_slice(cluster, slices, |m, s, at| {
                // The part of this slice inside the wanted range.
                let (from, to) = (off.max(at), (off + len).min(at + s.len));
                if from < to {
                    m.copy(s, from - at, dst, from - off, to - from);
                }
            }),
        }
    }
}

/// Copy a gathered payload out of the sender's memory, for a Send that has
/// to wait for its receive.
fn hold(cluster: &Cluster, slices: &LocalSlices, bytes: u64) -> Vec<u8> {
    let mut held = vec![0u8; bytes as usize];
    let mut off = 0;
    for s in slices.iter().flatten() {
        cluster.read(s, 0, &mut held[off..off + s.len as usize]);
        off += s.len as usize;
    }
    held
}

/// Scatter an inbound Send into a receive WR's SGEs — straight from where
/// the payload is — and complete the receive.
fn scatter_into(
    table: &FabState,
    cluster: &Cluster,
    data: SendData<'_>,
    rwr: &RecvWr,
    src: (NodeId, QpNum),
    recv_cq: &CompletionQueue,
    sched: &Scheduler,
) {
    let len = data.len();
    let complete = |status: WcStatus| {
        recv_cq.push(
            sched,
            Wc {
                wr_id: rwr.wr_id,
                status,
                opcode: WcOpcode::Recv,
                byte_len: len,
                src: Some(src),
            },
        );
    };
    if len > rwr.byte_len() {
        return complete(WcStatus::LocalLengthError);
    }
    let mut off = 0u64;
    for sge in &rwr.sges {
        if off >= len {
            break;
        }
        let take = sge.len.min(len - off);
        let Ok(slice) = table.resolve_sge(&Sge {
            addr: sge.addr,
            len: take,
            lkey: sge.lkey,
        }) else {
            // The region was deregistered after the receive was posted:
            // the HCA stops here, so nothing lands past this SGE.
            return complete(WcStatus::LocalProtectionError);
        };
        data.copy_to(cluster, off, &slice, take);
        off += take;
    }
    complete(WcStatus::Success);
}

fn wc_opcode_for(op: SendOpcode) -> WcOpcode {
    match op {
        SendOpcode::Send => WcOpcode::Send,
        SendOpcode::RdmaWrite => WcOpcode::RdmaWrite,
        SendOpcode::RdmaRead => WcOpcode::RdmaRead,
        SendOpcode::FetchAdd => WcOpcode::FetchAdd,
        SendOpcode::CompareSwap => WcOpcode::CompareSwap,
    }
}

/// Executed at transfer end time, in engine context. The payload lands
/// here, straight between the registered buffers, through
/// [`Plane::copy`]: an RDMA WRITE or READ SGE of
/// [`MIRROR_MIN`](fabric::MIRROR_MIN) bytes or more records that its
/// destination reads as its source, anything shorter is one memcpy. The
/// fabric table is locked once, for the whole delivery; each endpoint QP
/// once.
fn deliver(
    qp: &Qp,
    wr: SendWr,
    local_slices: LocalSlices,
    remote: (NodeId, QpNum),
    bytes: u64,
    sched: &Scheduler,
) {
    let shared = &*qp.shared;
    let cluster = qp.fabric.cluster();
    let opcode = wc_opcode_for(wr.opcode);
    let push_local = |status: WcStatus| {
        if wr.signaled {
            shared.send_cq.push(
                sched,
                Wc {
                    wr_id: wr.wr_id,
                    status,
                    opcode,
                    byte_len: bytes,
                    src: None,
                },
            );
        }
    };

    // Fail-stop check at delivery time: if either endpoint QP has been
    // transitioned to the error state since this WR was posted (or the
    // remote one is gone entirely), the WR flushes — an error completion
    // surfaces locally and no data moves. This covers every opcode (RDMA
    // ops resolve payload buffers by rkey and would otherwise never
    // consult the remote QP at all).
    let local_dead = shared.state.lock().dead;
    let table = qp.fabric.state.lock();
    let Some(rqp) = table.qp(remote).filter(|_| !local_dead) else {
        return push_local(WcStatus::WrFlushErr);
    };
    // The remote QP's state, locked once: `dead` for every opcode, and for
    // a Send the receive queue too.
    let mut rst = rqp.state.lock();
    if rst.dead {
        return push_local(WcStatus::WrFlushErr);
    }

    match wr.opcode {
        SendOpcode::Send => {
            // The payload is still in the sender's SGEs (completion-time
            // content). A matched receive takes it from there; only a
            // Send that has to wait for its receive is copied out.
            let src = (shared.node, shared.qpn);
            let held = || InboundSend {
                data: hold(cluster, &local_slices, bytes),
                src,
            };
            let rwr = match &rqp.srq {
                // SRQ-attached QP: consume from the shared pool; complete
                // on this QP's recv CQ.
                Some(srq) => {
                    drop(rst);
                    let mut sst = srq.state.lock();
                    let rwr = sst.rq.pop_front();
                    if rwr.is_none() {
                        sst.backlog.push_back((held(), rqp.recv_cq.clone()));
                    }
                    rwr
                }
                None => {
                    let rwr = rst.rq.pop_front();
                    if rwr.is_none() {
                        rst.backlog.push_back(held());
                    }
                    drop(rst);
                    rwr
                }
            };
            if let Some(rwr) = rwr {
                let payload = SendData::Gather(&local_slices);
                scatter_into(&table, cluster, payload, &rwr, src, &rqp.recv_cq, sched);
            }
            push_local(WcStatus::Success);
        }
        SendOpcode::RdmaWrite => {
            drop(rst);
            let Some((rbuf, region)) = table.resolve_remote(wr.rkey, wr.remote_addr, bytes) else {
                return push_local(WcStatus::RemoteAccessError);
            };
            // Deliver payload in SGE order (tail lands last — pollable).
            for_each_slice(cluster, &local_slices, |m, s, off| {
                m.copy(s, 0, &rbuf, off, s.len);
            });
            region.written(sched);
            push_local(WcStatus::Success);
        }
        SendOpcode::RdmaRead => {
            drop(rst);
            let Some((rbuf, _)) = table.resolve_remote(wr.rkey, wr.remote_addr, bytes) else {
                return push_local(WcStatus::RemoteAccessError);
            };
            for_each_slice(cluster, &local_slices, |m, s, off| {
                m.copy(&rbuf, off, s, 0, s.len);
            });
            push_local(WcStatus::Success);
        }
        SendOpcode::FetchAdd | SendOpcode::CompareSwap => {
            drop(rst);
            let Some((rbuf, region)) = table.resolve_remote(wr.rkey, wr.remote_addr, 8) else {
                return push_local(WcStatus::RemoteAccessError);
            };
            let result = local_slices[0]
                .as_ref()
                .expect("atomics carry a result SGE");
            // The serialized engine makes the read-modify-write atomic by
            // construction (the HCA guarantee).
            let written = cluster.with_plane(|m| {
                let mut word = [0u8; 8];
                m.read(&rbuf, 0, &mut word);
                let original = u64::from_le_bytes(word);
                let new = match wr.opcode {
                    SendOpcode::FetchAdd => Some(original.wrapping_add(wr.compare_add)),
                    SendOpcode::CompareSwap => (original == wr.compare_add).then_some(wr.swap),
                    _ => unreachable!(),
                };
                if let Some(v) = new {
                    m.write(&rbuf, 0, &v.to_le_bytes());
                }
                // Original value lands in the local result SGE.
                m.write(result, 0, &original.to_le_bytes());
                new.is_some()
            });
            if written {
                region.written(sched);
            }
            push_local(WcStatus::Success);
        }
    }
}
