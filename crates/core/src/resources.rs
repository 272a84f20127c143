//! Placement-dependent resource operations: DCFA (ranks on Phi, resource
//! ops offloaded to the host daemon) vs. direct host verbs (YAMPII mode).

use std::sync::Arc;

use dcfa::{DcfaContext, OffloadMr};
use fabric::{Buffer, Cluster, MemRef};
use simcore::{Ctx, SimEvent};
use verbs::{CompletionQueue, IbFabric, MemoryRegion, QueuePair, SharedReceiveQueue, VerbsContext};

/// The resource backend an MPI rank uses.
pub enum Resources {
    /// DCFA-MPI proper: Phi-resident, resource ops via the host daemon.
    Phi(DcfaContext),
    /// Host MPI (YAMPII baseline): direct host verbs.
    Host(VerbsContext),
}

impl Resources {
    pub fn mem(&self) -> MemRef {
        match self {
            Resources::Phi(d) => d.mem_ref(),
            Resources::Host(v) => v.mem_ref(),
        }
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        match self {
            Resources::Phi(d) => d.cluster(),
            Resources::Host(v) => v.cluster(),
        }
    }

    pub fn ib(&self) -> &Arc<IbFabric> {
        match self {
            Resources::Phi(d) => d.verbs().fabric(),
            Resources::Host(v) => v.fabric(),
        }
    }

    /// Register a memory region, paying the placement-appropriate cost
    /// (Phi: command round trip to the host daemon; host: local pin cost).
    pub fn reg_mr(&self, ctx: &mut Ctx, buf: Buffer) -> MemoryRegion {
        match self {
            Resources::Phi(d) => d.reg_mr(ctx, buf).expect("DCFA reg_mr failed"),
            Resources::Host(v) => v.reg_mr(ctx, buf),
        }
    }

    pub fn dereg_mr(&self, ctx: &mut Ctx, mr: &MemoryRegion) {
        match self {
            Resources::Phi(d) => {
                let _ = d.dereg_mr(ctx, mr);
            }
            Resources::Host(v) => v.dereg_mr(mr),
        }
    }

    pub fn create_cq(&self, ctx: &mut Ctx, event: SimEvent) -> CompletionQueue {
        match self {
            Resources::Phi(d) => {
                // Resource setup offloaded (charged); the CQ object itself
                // is polled directly on the Phi.
                let _ = d.create_cq(ctx).expect("DCFA create_cq failed");
                CompletionQueue::with_event(event)
            }
            Resources::Host(_) => CompletionQueue::with_event(event),
        }
    }

    pub fn create_qp(
        &self,
        ctx: &mut Ctx,
        send_cq: &CompletionQueue,
        recv_cq: &CompletionQueue,
    ) -> QueuePair {
        match self {
            Resources::Phi(d) => d
                .create_qp(ctx, send_cq, recv_cq)
                .expect("DCFA create_qp failed"),
            Resources::Host(v) => v.create_qp(send_cq, recv_cq),
        }
    }

    /// Create a shared receive queue (resource setup through the
    /// placement-appropriate path).
    pub fn create_srq(&self, ctx: &mut Ctx) -> SharedReceiveQueue {
        match self {
            Resources::Phi(d) => d.create_srq(ctx).expect("DCFA create_srq failed"),
            Resources::Host(v) => v.create_srq(),
        }
    }

    /// Create a QP attached to a shared receive queue.
    pub fn create_qp_with_srq(
        &self,
        ctx: &mut Ctx,
        send_cq: &CompletionQueue,
        recv_cq: &CompletionQueue,
        srq: &SharedReceiveQueue,
    ) -> QueuePair {
        match self {
            Resources::Phi(d) => d
                .create_qp_with_srq(ctx, send_cq, recv_cq, srq)
                .expect("DCFA create_qp_with_srq failed"),
            Resources::Host(v) => v.create_qp_with_srq(send_cq, recv_cq, srq),
        }
    }

    /// Offloading send buffer (Phi only). `None` on host placement **or**
    /// when the daemon cannot provide a twin right now (out of host
    /// memory, or unreachable through every retry) — callers degrade to
    /// sourcing the Phi buffer directly.
    pub fn reg_offload(&self, ctx: &mut Ctx, buf: &Buffer) -> Option<OffloadMr> {
        match self {
            Resources::Phi(d) => d.reg_offload_mr(ctx, buf).ok(),
            Resources::Host(_) => None,
        }
    }

    /// Is the registration behind `key` still live on the HCA? False once
    /// the daemon reclaimed it (expired lease, crash drain of a twin):
    /// the caches use this to drop entries before a stale key reaches
    /// the wire.
    pub fn mr_live(&self, key: verbs::MrKey) -> bool {
        self.ib().mr_handle(key).is_some()
    }

    /// Control epoch of the DCFA session: bumped on every re-attach
    /// (daemon respawn or lease loss). Constant 0 for host placement.
    pub fn ctrl_epoch(&self) -> u64 {
        match self {
            Resources::Phi(d) => d.ctrl_epoch(),
            Resources::Host(_) => 0,
        }
    }

    pub fn dereg_offload(&self, ctx: &mut Ctx, omr: OffloadMr) {
        match self {
            Resources::Phi(d) => {
                let _ = d.dereg_offload_mr(ctx, omr);
            }
            Resources::Host(_) => unreachable!("dereg_offload on host placement"),
        }
    }

    /// Close down (tell the DCFA daemon handler to exit).
    pub fn close(&self, ctx: &mut Ctx) {
        if let Resources::Phi(d) = self {
            d.close(ctx);
        }
    }

    /// Fail-stop teardown: stop the DCFA heartbeat sidecar without a
    /// goodbye, so the daemon discovers the death via lease expiry.
    pub fn abandon(&self) {
        if let Resources::Phi(d) = self {
            d.abandon();
        }
    }
}
