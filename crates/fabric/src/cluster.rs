//! The simulated cluster: nodes with host/Phi memory, PCIe links, HCAs and
//! the InfiniBand network, plus the data-movement primitives every higher
//! layer is built from.

use std::sync::Arc;

use parking_lot::Mutex;
use simcore::{Completion, Scheduler, SimDuration, SimTime};

use crate::channel::BwChannel;
use crate::config::{ClusterConfig, Domain};
use crate::faults::{LinkFault, LinkFaultKind};
use crate::health::HealthBoard;
use crate::mem::{Buffer, MemRef, Memory, NodeId, OutOfMemory};

/// A scheduled data movement: channel reservations are made at post time
/// (deterministically); at `end` the bytes are copied from the source to
/// the destination — one arena-to-arena memcpy, the source is read then,
/// not sampled at post — and `completion` fires. Until `end` the
/// destination keeps its old content, and the poster must leave the source
/// alone, as MPI and verbs require of any in-flight buffer.
#[derive(Clone)]
pub struct Transfer {
    /// When the transfer actually starts (after queueing on busy channels).
    pub start: SimTime,
    /// When the last byte is delivered.
    pub end: SimTime,
    /// Fires at `end`.
    pub completion: Completion,
}

struct NodeState {
    host_mem: Arc<Mutex<Memory>>,
    phi_mem: Arc<Mutex<Memory>>,
    /// PCIe, host→Phi direction (offload copy-in, HCA writes into Phi mem).
    pci_h2p: Mutex<BwChannel>,
    /// PCIe, Phi→host direction (offload sync/copy-out, HCA reads from Phi).
    pci_p2h: Mutex<BwChannel>,
    /// InfiniBand egress port.
    ib_egress: Mutex<BwChannel>,
    /// InfiniBand ingress port.
    ib_ingress: Mutex<BwChannel>,
}

/// The whole simulated machine. Shared via `Arc` by every device model and
/// simulated process.
pub struct Cluster {
    cfg: ClusterConfig,
    sched: Scheduler,
    nodes: Vec<NodeState>,
    /// Armed per-link fault plans (see [`crate::faults`]). Device models
    /// consult these on every posted data operation.
    link_faults: Mutex<Vec<LinkFault>>,
    /// Rank-health board, installed by the MPI world at launch (see
    /// [`crate::health`]). `None` for bare fabric-level tests.
    health: Mutex<Option<Arc<HealthBoard>>>,
}

impl Cluster {
    pub fn new(sched: Scheduler, cfg: ClusterConfig) -> Arc<Cluster> {
        let nodes = (0..cfg.nodes)
            .map(|i| {
                let node = NodeId(i);
                NodeState {
                    host_mem: Arc::new(Mutex::new(Memory::new(
                        MemRef {
                            node,
                            domain: Domain::Host,
                        },
                        cfg.host_mem_capacity,
                    ))),
                    phi_mem: Arc::new(Mutex::new(Memory::new(
                        MemRef {
                            node,
                            domain: Domain::Phi,
                        },
                        cfg.phi_mem_capacity,
                    ))),
                    pci_h2p: Mutex::new(BwChannel::new("pci-h2p")),
                    pci_p2h: Mutex::new(BwChannel::new("pci-p2h")),
                    ib_egress: Mutex::new(BwChannel::new("ib-egress")),
                    ib_ingress: Mutex::new(BwChannel::new("ib-ingress")),
                }
            })
            .collect();
        Arc::new(Cluster {
            cfg,
            sched,
            nodes,
            link_faults: Mutex::new(Vec::new()),
            health: Mutex::new(None),
        })
    }

    /// Install the rank-health board (done once by the MPI world at
    /// launch, before any rank runs).
    pub fn install_health(&self, board: Arc<HealthBoard>) {
        *self.health.lock() = Some(board);
    }

    /// The installed rank-health board, if any.
    pub fn health(&self) -> Option<Arc<HealthBoard>> {
        self.health.lock().clone()
    }

    /// Fail-stop `rank` now: record ground truth on the health board and
    /// run its teardown hook (erroring its QPs so in-flight work
    /// completions flush). Panics if no board is installed.
    pub fn kill_rank(&self, rank: usize) {
        let board = self.health().expect("no health board installed");
        board.kill(&self.sched, rank, self.sched.now());
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    fn node(&self, id: NodeId) -> &NodeState {
        &self.nodes[id.0]
    }

    // ---- fault plans -------------------------------------------------------

    /// Arm a per-link fault plan. The plan fires once, on the data
    /// operation posted `after_ops` matching operations from now.
    pub fn inject_link_fault(&self, fault: LinkFault) {
        self.link_faults.lock().push(fault);
    }

    /// Consult the fault plans for one posted data operation initiated by
    /// `from` targeting `to`. Every matching plan's skip counter ticks;
    /// the first exhausted plan fires (and is removed). Called by the
    /// device layers at post time.
    pub fn take_link_fault(&self, from: NodeId, to: NodeId) -> Option<LinkFaultKind> {
        let mut plans = self.link_faults.lock();
        let mut fired = None;
        plans.retain_mut(|p| {
            if !p.matches(from, to) {
                return true;
            }
            if p.after_ops > 0 {
                p.after_ops -= 1;
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

    /// Number of armed fault plans still waiting to fire.
    pub fn pending_link_faults(&self) -> usize {
        self.link_faults.lock().len()
    }

    fn memory(&self, mem: MemRef) -> &Arc<Mutex<Memory>> {
        match mem.domain {
            Domain::Host => &self.node(mem.node).host_mem,
            Domain::Phi => &self.node(mem.node).phi_mem,
        }
    }

    // ---- memory plane -----------------------------------------------------

    /// Allocate in a domain with explicit alignment.
    pub fn alloc(&self, mem: MemRef, len: u64, align: u64) -> Result<Buffer, OutOfMemory> {
        self.memory(mem).lock().alloc(len, align)
    }

    /// Allocate page-aligned.
    pub fn alloc_pages(&self, mem: MemRef, len: u64) -> Result<Buffer, OutOfMemory> {
        self.memory(mem).lock().alloc_pages(len)
    }

    /// Free a buffer.
    pub fn free(&self, buf: &Buffer) {
        self.memory(buf.mem).lock().free(buf);
    }

    /// Bytes currently allocated in a domain.
    pub fn mem_used(&self, mem: MemRef) -> u64 {
        self.memory(mem).lock().used()
    }

    /// Write bytes (content plane only — charge time separately if needed).
    pub fn write(&self, buf: &Buffer, offset: u64, data: &[u8]) {
        self.memory(buf.mem).lock().write(buf, offset, data);
    }

    /// Read bytes.
    pub fn read(&self, buf: &Buffer, offset: u64, out: &mut [u8]) {
        self.memory(buf.mem).lock().read(buf, offset, out);
    }

    /// Read a whole buffer.
    pub fn read_vec(&self, buf: &Buffer) -> Vec<u8> {
        self.memory(buf.mem).lock().read_vec(buf)
    }

    /// CPU memcpy duration for `bytes` within `domain` (caller sleeps this).
    pub fn copy_duration(&self, domain: Domain, bytes: u64) -> SimDuration {
        simcore::transfer_time(bytes, self.cfg.cost.copy_bw(domain))
    }

    /// Move `len` bytes from `src[src_off..]` to `dst[dst_off..]` with one
    /// memcpy, arena to arena (content plane only, like [`Cluster::write`]).
    /// Every modelled hop moves its payload through here. Ranges within
    /// one arena may overlap (memmove semantics).
    pub fn copy(&self, src: &Buffer, src_off: u64, dst: &Buffer, dst_off: u64, len: u64) {
        copy_between(
            self.memory(src.mem),
            src,
            src_off,
            self.memory(dst.mem),
            dst,
            dst_off,
            len,
        );
    }

    /// CPU-driven local copy within one domain. Moves the bytes immediately
    /// and returns the duration the calling process must charge itself.
    pub fn local_copy(&self, src: &Buffer, dst: &Buffer) -> SimDuration {
        assert_eq!(src.mem, dst.mem, "local_copy must stay within one domain");
        assert_eq!(src.len, dst.len, "local_copy length mismatch");
        self.copy(src, 0, dst, 0, src.len);
        self.copy_duration(src.mem.domain, src.len)
    }

    // ---- PCIe DMA engine (host <-> Phi within one node) --------------------

    /// Reserve the PCIe DMA-engine path between host and Phi of one node,
    /// without moving content. Returns `(start, end)` including DMA latency.
    pub fn reserve_pci_path(
        &self,
        node: NodeId,
        src_domain: Domain,
        bytes: u64,
        after: SimTime,
    ) -> (SimTime, SimTime) {
        let cost = &self.cfg.cost;
        let (chan, rate) = match src_domain {
            Domain::Host => (&self.node(node).pci_h2p, cost.pci_h2p_bw),
            Domain::Phi => (&self.node(node).pci_p2h, cost.pci_p2h_bw),
        };
        let (start, busy_end) = chan.lock().reserve_bytes(after, bytes, rate);
        (start, busy_end + cost.pci_dma_latency)
    }

    /// DMA-engine transfer between host and Phi memory of the same node
    /// (SCIF RMA, offload copy-in/out, offload-send-buffer sync).
    pub fn pci_dma(&self, src: &Buffer, dst: &Buffer, after: SimTime) -> Transfer {
        assert_eq!(src.mem.node, dst.mem.node, "pci_dma is intra-node");
        assert_ne!(
            src.mem.domain, dst.mem.domain,
            "pci_dma crosses the PCIe bus"
        );
        assert_eq!(src.len, dst.len, "pci_dma length mismatch");
        let (start, end) = self.reserve_pci_path(src.mem.node, src.mem.domain, src.len, after);
        self.finish_transfer(src, dst, start, end)
    }

    /// Like [`Cluster::pci_dma`] but capped at `rate` bytes/sec (modeling a
    /// software path — e.g. the Intel offload runtime — that cannot drive
    /// the DMA engine at full speed). The stream still occupies the real
    /// PCIe channel for its whole duration.
    pub fn pci_dma_at_rate(
        &self,
        src: &Buffer,
        dst: &Buffer,
        after: SimTime,
        rate: f64,
    ) -> Transfer {
        assert_eq!(src.mem.node, dst.mem.node, "pci_dma is intra-node");
        assert_ne!(
            src.mem.domain, dst.mem.domain,
            "pci_dma crosses the PCIe bus"
        );
        assert_eq!(src.len, dst.len, "pci_dma length mismatch");
        let cost = &self.cfg.cost;
        let (chan, hw_rate) = match src.mem.domain {
            Domain::Host => (&self.node(src.mem.node).pci_h2p, cost.pci_h2p_bw),
            Domain::Phi => (&self.node(src.mem.node).pci_p2h, cost.pci_p2h_bw),
        };
        let eff = rate.min(hw_rate);
        let (start, busy_end) = chan.lock().reserve_bytes(after, src.len, eff);
        let end = busy_end + cost.pci_dma_latency;
        self.finish_transfer(src, dst, start, end)
    }

    // ---- InfiniBand path ----------------------------------------------------

    /// End-to-end RDMA data movement between two registered buffers through
    /// the HCAs and the switch. `initiator` is the node whose HCA executes
    /// the work request: if it is the *destination* node, this is an RDMA
    /// READ and one extra wire latency is charged for the request packet.
    ///
    /// The path bandwidth is the minimum of: local HCA DMA read (slow when
    /// the source is Phi memory — the paper's bottleneck), the wire, and the
    /// remote HCA DMA write. Every traversed channel is reserved for the
    /// whole stream duration (cut-through, head-of-line queueing).
    pub fn ib_transfer(
        &self,
        src: &Buffer,
        dst: &Buffer,
        initiator: NodeId,
        after: SimTime,
    ) -> Transfer {
        assert_eq!(src.len, dst.len, "ib_transfer length mismatch");
        let (start, end) = self.reserve_ib_path(src.mem, dst.mem, src.len, initiator, after);
        self.finish_transfer(src, dst, start, end)
    }

    /// Reserve the InfiniBand path without moving content. Returns
    /// `(start, end)`; the caller schedules its own delivery at `end`.
    pub fn reserve_ib_path(
        &self,
        src: MemRef,
        dst: MemRef,
        bytes: u64,
        initiator: NodeId,
        after: SimTime,
    ) -> (SimTime, SimTime) {
        let cost = &self.cfg.cost;
        let read_bw = cost.hca_read_bw(src.domain);
        let write_bw = cost.hca_write_bw(dst.domain);
        let min_rate = read_bw.min(cost.ib_bw).min(write_bw);
        let dur = simcore::transfer_time(bytes, min_rate);

        let mut latency = cost.ib_latency;
        if initiator == dst.node && initiator != src.node {
            // RDMA READ: request hop to the remote HCA first.
            latency += cost.ib_latency;
        }

        // The channels this stream occupies.
        let src_node = self.node(src.node);
        let dst_node = self.node(dst.node);
        let crosses_wire = src.node != dst.node;
        let channels = [
            (src.domain == Domain::Phi).then_some(&src_node.pci_p2h),
            crosses_wire.then_some(&src_node.ib_egress),
            crosses_wire.then_some(&dst_node.ib_ingress),
            (dst.domain == Domain::Phi).then_some(&dst_node.pci_h2p),
        ];

        let mut start = after;
        for ch in channels.iter().flatten() {
            start = start.max(ch.lock().ready_at());
        }
        for ch in channels.iter().flatten() {
            ch.lock().reserve_stream(start, dur, bytes);
        }
        (start, start + dur + latency)
    }

    /// Schedule `f` at virtual time `t` (engine context). Convenience
    /// passthrough so device layers don't need their own scheduler handle.
    pub fn call_at<F>(&self, t: SimTime, f: F)
    where
        F: FnOnce(&Scheduler) + Send + 'static,
    {
        self.sched.call_at(t, f);
    }

    /// Move the bytes and fire the completion at `end`. The event carries
    /// the two buffers, not the payload: the source is read at `end`, the
    /// rule verbs delivery follows too. A correct program cannot tell this
    /// from a DMA engine streaming the source over `[start, end]` — every
    /// poster blocks on the completion before touching either buffer, and
    /// mutating an in-flight source is an MPI/verbs usage error — while the
    /// simulator pays one memcpy per hop instead of two plus a
    /// payload-sized allocation.
    fn finish_transfer(
        &self,
        src: &Buffer,
        dst: &Buffer,
        start: SimTime,
        end: SimTime,
    ) -> Transfer {
        let (src, dst) = (src.clone(), dst.clone());
        let (src_mem, dst_mem) = (self.memory(src.mem).clone(), self.memory(dst.mem).clone());
        let completion = Completion::new();
        let c2 = completion.clone();
        self.sched.call_at(end, move |s| {
            copy_between(&src_mem, &src, 0, &dst_mem, &dst, 0, src.len);
            c2.complete_now(s);
        });
        Transfer {
            start,
            end,
            completion,
        }
    }

    /// Channel utilization for diagnostics and ablation benches:
    /// `(name, total_bytes, total_busy)` per channel of `node`.
    pub fn channel_stats(&self, node: NodeId) -> Vec<(&'static str, u64, SimDuration)> {
        self.fabric_stats(node)
            .channels
            .into_iter()
            .map(|c| (c.name, c.bytes, c.busy))
            .collect()
    }

    /// Full per-channel counter snapshot for one node.
    pub fn fabric_stats(&self, node: NodeId) -> FabricStats {
        let n = self.node(node);
        FabricStats {
            node,
            channels: [&n.pci_h2p, &n.pci_p2h, &n.ib_egress, &n.ib_ingress]
                .iter()
                .map(|c| c.lock().stats())
                .collect(),
        }
    }
}

/// The byte plane's one primitive: `len` bytes from `src[src_off..]` in
/// arena `src_mem` to `dst[dst_off..]` in arena `dst_mem`, range-checked on
/// both sides like `read`/`write`.
fn copy_between(
    src_mem: &Mutex<Memory>,
    src: &Buffer,
    src_off: u64,
    dst_mem: &Mutex<Memory>,
    dst: &Buffer,
    dst_off: u64,
    len: u64,
) {
    let len = len as usize;
    if src.mem == dst.mem {
        src_mem.lock().copy_within(src, src_off, dst, dst_off, len);
    } else {
        // Two arenas, two locks, always taken in arena order so that
        // opposite copies can never deadlock.
        let key = |m: MemRef| (m.node, m.domain == Domain::Phi);
        let (from, mut to);
        if key(src.mem) < key(dst.mem) {
            from = src_mem.lock();
            to = dst_mem.lock();
        } else {
            to = dst_mem.lock();
            from = src_mem.lock();
        }
        to.copy_from(dst, dst_off, &from, src, src_off, len);
    }
}

/// Per-node fabric utilization snapshot (see [`Cluster::fabric_stats`]).
#[derive(Debug, Clone)]
pub struct FabricStats {
    pub node: NodeId,
    /// One entry per channel: PCIe h2p / p2h, IB egress / ingress.
    pub channels: Vec<crate::channel::ChannelStats>,
}

impl std::fmt::Display for FabricStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node {}:", self.node)?;
        for c in &self.channels {
            write!(
                f,
                "\n  {:<10} ops {:>8}  bytes {:>12}  busy {:?}",
                c.name, c.ops, c.bytes, c.busy
            )?;
        }
        Ok(())
    }
}
