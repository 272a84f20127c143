//! # dcfa — Direct Communication Facility for Accelerators
//!
//! The paper's enabling substrate: a user-space InfiniBand Verbs library on
//! the Xeon Phi co-processor. Data-path operations (post send/recv, RDMA,
//! CQ polling) go directly from the co-processor to the HCA; resource
//! operations (HCA init, QP/CQ creation, memory registration) are offloaded
//! over a command channel to a host delegation daemon, so "users don't need
//! to write host assist programs anymore" (§I).
//!
//! Components (paper Fig. 3):
//!
//! * [`DcfaContext`] — the *DCFA IB IF*: same interface shape as host
//!   verbs, usable from Phi-resident simulated processes.
//! * [`wire`] — the *DCFA CMD* protocol between the Phi-side client and the
//!   host-side server.
//! * [`spawn_daemons`] — the host delegation daemon (CMD server), one per
//!   node, servicing offloaded requests and keeping created objects in a
//!   hash table.
//! * [`OffloadMr`] + `reg/sync/dereg_offload_mr` — the offloading send
//!   buffer (§IV-B4) that works around the slow HCA DMA read from Phi
//!   memory by staging sends through a host twin buffer.

mod context;
mod daemon;
pub mod wire;

pub use context::{DcfaConfig, DcfaContext, DcfaError, OffloadMr, CMD_RETRY_LIMIT, CMD_TIMEOUT};
pub use daemon::{
    spawn_daemons, spawn_daemons_with, CtrlEvent, CtrlHook, DaemonConfig, DaemonFault,
    DaemonFaultKind, DcfaCounters, DcfaStats, DCFA_PORT,
};
