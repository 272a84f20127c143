//! # fabric — simulated hardware substrate for the DCFA-MPI reproduction
//!
//! This crate replaces the hardware the paper ran on (Xeon hosts, Xeon Phi
//! co-processor cards, PCIe, Mellanox ConnectX-3 HCAs and an InfiniBand
//! switch) with calibrated behavioural models:
//!
//! * [`Memory`]/[`Buffer`] — per-domain byte arenas with a real allocator;
//!   data movement moves real bytes so protocol correctness is testable.
//!   An arena keeps one sorted list of the extents whose bytes are not in
//!   its pages: recycled zeros, displaced stamps and mirrors.
//! * [`BwChannel`] — serialized bandwidth resources (PCIe directions, IB
//!   ports) with head-of-line queueing.
//! * [`Cluster`] — node topology plus the two data-movement primitives the
//!   software stack is built from: [`Cluster::pci_dma`] (host↔Phi DMA
//!   engine) and [`Cluster::ib_transfer`] (HCA→wire→HCA path, including the
//!   slow DMA-read-from-Phi leg that motivates the paper's offloading send
//!   buffer). Bytes move when they are read: every modelled hop lands
//!   through [`Plane::copy`], which records that a destination of
//!   [`MIRROR_MIN`] bytes or more in another arena reads as its source —
//!   a mirror extent in the destination's list, found from the source by
//!   the plane's one by-source index — and copies anything shorter from
//!   wherever the source's bytes are.
//! * [`ClusterConfig`]/[`CostModel`] — Table-I-analogue configuration with
//!   constants calibrated against the paper's printed numbers.

#![forbid(unsafe_code)]

mod channel;
mod cluster;
mod config;
mod health;
mod mem;
mod plane;

pub use channel::{BwChannel, ChannelStats};
pub use cluster::{Cluster, FabricStats, Transfer};
pub use config::{ClusterConfig, CostModel, Domain, PAGE_SIZE};
pub use health::{HealthBoard, PeerState};
pub use mem::{Buffer, MemRef, Memory, NodeId, OutOfMemory};
pub use plane::{Plane, MIRROR_MIN};
