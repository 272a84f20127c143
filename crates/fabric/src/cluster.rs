//! The simulated cluster: nodes with host/Phi memory, PCIe links, HCAs and
//! the InfiniBand network, plus the data-movement primitives every higher
//! layer is built from.

use std::sync::Arc;

use simcore::{Completion, Scheduler, SimCell, SimDuration, SimTime};

use crate::channel::BwChannel;
use crate::config::{ClusterConfig, Domain};
use crate::health::HealthBoard;
use crate::mem::{Buffer, MemRef, Memory, NodeId, OutOfMemory};
use crate::plane::Plane;

/// A scheduled data movement: channel reservations are made at post time
/// (deterministically); at `end` the destination takes the source's bytes
/// as they are then, not as they were at post — by one [`Plane::copy`],
/// which records a long transfer as the destination reading as the source
/// and copies a short one — and `completion` fires. Until `end` the
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
    /// PCIe, host→Phi direction (offload copy-in, HCA writes into Phi mem).
    pci_h2p: SimCell<BwChannel>,
    /// PCIe, Phi→host direction (offload sync/copy-out, HCA reads from Phi).
    pci_p2h: SimCell<BwChannel>,
    /// InfiniBand egress port.
    ib_egress: SimCell<BwChannel>,
    /// InfiniBand ingress port.
    ib_ingress: SimCell<BwChannel>,
}

/// The whole simulated machine. Shared via `Arc` by every device model and
/// simulated process.
pub struct Cluster {
    cfg: ClusterConfig,
    sched: Scheduler,
    /// Every node's host and Phi memory and the mirrors between them, one
    /// lock (see [`crate::plane`]).
    plane: Arc<SimCell<Plane>>,
    nodes: Vec<NodeState>,
    /// Rank-health board, installed by the MPI world at launch (see
    /// [`crate::health`]). `None` for bare fabric-level tests.
    health: SimCell<Option<Arc<HealthBoard>>>,
}

impl Cluster {
    pub fn new(sched: Scheduler, cfg: ClusterConfig) -> Arc<Cluster> {
        let arenas = (0..cfg.nodes).flat_map(|i| {
            let node = NodeId(i);
            let arena = |domain, capacity| Memory::new(MemRef { node, domain }, capacity);
            [
                arena(Domain::Host, cfg.host_mem_capacity),
                arena(Domain::Phi, cfg.phi_mem_capacity),
            ]
        });
        let plane = Arc::new(SimCell::new(Plane::new(arenas.collect())));
        let nodes = (0..cfg.nodes)
            .map(|_| NodeState {
                pci_h2p: SimCell::new(BwChannel::new("pci-h2p")),
                pci_p2h: SimCell::new(BwChannel::new("pci-p2h")),
                ib_egress: SimCell::new(BwChannel::new("ib-egress")),
                ib_ingress: SimCell::new(BwChannel::new("ib-ingress")),
            })
            .collect();
        Arc::new(Cluster {
            cfg,
            sched,
            plane,
            nodes,
            health: SimCell::new(None),
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

    // ---- memory plane -----------------------------------------------------

    /// Allocate in a domain with explicit alignment.
    pub fn alloc(&self, mem: MemRef, len: u64, align: u64) -> Result<Buffer, OutOfMemory> {
        self.plane.lock().arena_mut(mem).alloc(len, align)
    }

    /// Allocate page-aligned.
    pub fn alloc_pages(&self, mem: MemRef, len: u64) -> Result<Buffer, OutOfMemory> {
        self.alloc(mem, len, crate::config::PAGE_SIZE)
    }

    /// Free a buffer. A mirror reading from it gets its bytes first.
    pub fn free(&self, buf: &Buffer) {
        self.plane.lock().free(buf);
    }

    /// Bytes currently allocated in a domain.
    pub fn mem_used(&self, mem: MemRef) -> u64 {
        self.plane.lock().arena(mem).used()
    }

    /// The extent of a domain's arena: the highest allocation end it ever
    /// handed out.
    pub fn mem_high_water(&self, mem: MemRef) -> u64 {
        self.plane.lock().arena(mem).high_water()
    }

    /// Bytes of host memory backing a domain's arena right now (whole host
    /// pages, as the kernel counts them): what the simulated software
    /// wrote, not what it allocated.
    pub fn mem_resident(&self, mem: MemRef) -> u64 {
        let pages = self.plane.lock().arena(mem).resident_pages();
        (pages * simcore::mapping::page_size()) as u64
    }

    /// Hold `buf`, a whole live allocation, off its pages: what lands in
    /// it lives in side buffers until [`Cluster::discard`] (see
    /// [`Plane::hold_off_page`]).
    pub fn hold_off_page(&self, buf: &Buffer) {
        self.plane.lock().hold_off_page(buf);
    }

    /// End the bytes of `buf`, inside an allocation held off-page: it
    /// reads zero (see [`Plane::discard`]).
    pub fn discard(&self, buf: &Buffer) {
        self.plane.lock().discard(buf);
    }

    /// Run `f` on the byte plane, locked once for everything `f` does
    /// (content plane only, like [`Cluster::write`]): a caller with several
    /// reads, writes or copies — a ring slot's header and tail, all of a
    /// work request's gather/scatter copies — makes them one acquisition
    /// instead of one each.
    pub fn with_plane<R>(&self, f: impl FnOnce(&mut Plane) -> R) -> R {
        f(&mut self.plane.lock())
    }

    /// Write bytes (content plane only — charge time separately if needed).
    pub fn write(&self, buf: &Buffer, offset: u64, data: &[u8]) {
        self.plane.lock().write(buf, offset, data);
    }

    /// Read bytes.
    pub fn read(&self, buf: &Buffer, offset: u64, out: &mut [u8]) {
        self.plane.lock().read(buf, offset, out);
    }

    /// Read a whole buffer.
    pub fn read_vec(&self, buf: &Buffer) -> Vec<u8> {
        let mut out = vec![0u8; buf.len as usize];
        self.read(buf, 0, &mut out);
        out
    }

    /// CPU memcpy duration for `bytes` within `domain` (caller sleeps this).
    pub fn copy_duration(&self, domain: Domain, bytes: u64) -> SimDuration {
        simcore::transfer_time(bytes, self.cfg.cost.copy_bw(domain))
    }

    /// Move `len` bytes from `src[src_off..]` to `dst[dst_off..]` (content
    /// plane only, like [`Cluster::write`]) with [`Plane::copy`]: between
    /// two arenas, [`MIRROR_MIN`](crate::MIRROR_MIN) bytes or more record
    /// that `dst` reads as `src`; anything else is one memcpy, reading
    /// through any mirror the source lies in. Ranges within one arena may
    /// overlap (memmove semantics).
    pub fn copy(&self, src: &Buffer, src_off: u64, dst: &Buffer, dst_off: u64, len: u64) {
        self.plane.lock().copy(src, src_off, dst, dst_off, len);
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

        // One pass, each channel taken once: take them all, find the
        // common start, reserve, release.
        let mut held = channels.map(|ch| ch.map(|ch| ch.lock()));
        let start = held
            .iter()
            .flatten()
            .fold(after, |t, ch| t.max(ch.ready_at()));
        for ch in held.iter_mut().flatten() {
            ch.reserve_stream(start, dur, bytes);
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

    /// Land the bytes and fire the completion at `end`. The event carries
    /// the two buffers, not the payload: the source is taken as it is at
    /// `end`, the rule verbs delivery follows too. Landing is one
    /// [`Plane::copy`]: a transfer of [`MIRROR_MIN`](crate::MIRROR_MIN)
    /// bytes or more copies nothing — the destination is recorded as
    /// reading as the source, and the bytes move when something reads
    /// them, from where they are (see [`crate::plane`]); a shorter one is
    /// one memcpy. A correct program cannot tell this from a DMA engine
    /// streaming the source over `[start, end]` — every poster blocks on
    /// the completion before touching either buffer, and mutating an
    /// in-flight source is an MPI/verbs usage error.
    fn finish_transfer(
        &self,
        src: &Buffer,
        dst: &Buffer,
        start: SimTime,
        end: SimTime,
    ) -> Transfer {
        let (src, dst) = (src.clone(), dst.clone());
        let plane = self.plane.clone();
        let completion = Completion::new();
        let c2 = completion.clone();
        self.sched.call_at(end, move |s| {
            plane.lock().copy(&src, 0, &dst, 0, src.len);
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
