//! The Intel offload runtime model for the "Intel MPI on Xeon where it
//! offloads computation to Xeon Phi co-processors" mode (§III-B).
//!
//! MPI ranks run on the hosts (use `dcfa_mpi` with `Placement::Host` as
//! the host MPI); computation is pushed to the card through this runtime:
//! `offload_transfer`-style copies over PCIe and compute-region
//! invocations that pay a dispatch + OpenMP-team-wakeup overhead. The
//! paper's application-level optimizations are all expressible:
//! persistent buffers (allocate once), 4-KiB alignment (faster DMA is the
//! default here since our buffers are page-aligned), eliminated
//! per-iteration initialization (pay [`OffloadRuntime::new`] once), and
//! double buffering ([`OffloadRuntime::copy_in_async`] overlapping MPI).

use std::sync::Arc;

use fabric::{Buffer, Cluster, Domain, MemRef, NodeId, OutOfMemory, Transfer};
use simcore::{Ctx, SimCell, SimDuration, SimTime};

/// Handle to the offload runtime of one host process driving one Phi card.
pub struct OffloadRuntime {
    cluster: Arc<Cluster>,
    node: NodeId,
    /// The runtime funnels every `offload_transfer` through one COI DMA
    /// stream: transfers serialize against each other even across PCIe
    /// directions (observed KNC behaviour; this is what keeps the mode at
    /// ~half of DCFA-MPI's large-message rate in Fig. 10).
    dma_busy: SimCell<SimTime>,
}

impl OffloadRuntime {
    /// Initialize offloading for the card on `node`. The paper's optimized
    /// application hoists this out of the communication loop; the cost
    /// is one region invocation (device open + COI handshake).
    pub fn new(ctx: &mut Ctx, cluster: Arc<Cluster>, node: NodeId) -> Self {
        let cost = &cluster.config().cost;
        ctx.sleep(cost.offload_region_overhead);
        OffloadRuntime {
            cluster,
            node,
            dma_busy: SimCell::new(SimTime::ZERO),
        }
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    fn phi(&self) -> MemRef {
        MemRef {
            node: self.node,
            domain: Domain::Phi,
        }
    }

    /// Allocate a persistent buffer on the card.
    pub fn alloc_phi(&self, len: u64) -> Result<Buffer, OutOfMemory> {
        self.cluster.alloc_pages(self.phi(), len)
    }

    /// Free a card buffer.
    pub fn free_phi(&self, buf: &Buffer) {
        self.cluster.free(buf);
    }

    /// Synchronous `offload_transfer` in: host → card.
    pub fn copy_in(&self, ctx: &mut Ctx, host: &Buffer, card: &Buffer) {
        let t = self.copy_in_async(ctx, host, card);
        ctx.wait_reason(&t.completion, "offload copy_in");
    }

    /// Synchronous `offload_transfer` out: card → host.
    pub fn copy_out(&self, ctx: &mut Ctx, card: &Buffer, host: &Buffer) {
        let t = self.copy_out_async(ctx, card, host);
        ctx.wait_reason(&t.completion, "offload copy_out");
    }

    /// Asynchronous copy-in (double-buffer method): returns a transfer the
    /// caller can overlap with MPI communication and wait on later. The
    /// invocation overhead is paid synchronously (pragma dispatch); the
    /// stream itself queues on the runtime's single COI DMA stream.
    pub fn copy_in_async(&self, ctx: &mut Ctx, host: &Buffer, card: &Buffer) -> Transfer {
        assert_eq!(host.mem.node, self.node);
        assert_eq!(card.mem, self.phi());
        self.queue_transfer(ctx, host, card)
    }

    /// Asynchronous copy-out.
    pub fn copy_out_async(&self, ctx: &mut Ctx, card: &Buffer, host: &Buffer) -> Transfer {
        assert_eq!(host.mem.node, self.node);
        assert_eq!(card.mem, self.phi());
        self.queue_transfer(ctx, card, host)
    }

    fn queue_transfer(&self, ctx: &mut Ctx, src: &Buffer, dst: &Buffer) -> Transfer {
        let cost = self.cluster.config().cost.clone();
        ctx.sleep(cost.offload_transfer_overhead);
        let after = {
            let busy = self.dma_busy.lock();
            (*busy).max(ctx.now())
        };
        let t = self
            .cluster
            .pci_dma_at_rate(src, dst, after, cost.offload_copy_bw);
        *self.dma_busy.lock() = t.end;
        t
    }

    /// Run a compute region on the card: pays the dispatch overhead plus
    /// the modeled kernel time (e.g. from the `apps` crate's OpenMP
    /// model), and runs `body` for the content-plane side effects (the
    /// actual arithmetic on simulated memory).
    pub fn offload_region<R>(
        &self,
        ctx: &mut Ctx,
        kernel_time: SimDuration,
        body: impl FnOnce(&Arc<Cluster>) -> R,
    ) -> R {
        let cost = &self.cluster.config().cost;
        ctx.sleep(cost.offload_region_overhead);
        let r = body(&self.cluster);
        ctx.sleep(kernel_time);
        r
    }
}
