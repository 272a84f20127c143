//! # dcfa-mpi — Direct MPI Library for (simulated) Intel Xeon Phi co-processors
//!
//! A faithful reimplementation of the paper's DCFA-MPI library on the
//! simulated hardware substrate:
//!
//! * point-to-point messaging over DCFA's InfiniBand interface with the
//!   paper's four protocols (Eager, sender-first / receiver-first /
//!   simultaneous rendezvous), per-pair sequence ids, `MPI_ANY_SOURCE`
//!   sequence locking and mis-prediction recovery (§IV-B3);
//! * the offloading send buffer for large messages (§IV-B4);
//! * the memory-region buffer cache pool;
//! * collectives layered on P2P;
//! * an `mpirun`-style launcher ([`launch`]) with Phi (DCFA-MPI) and Host
//!   (YAMPII baseline) placements.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use parking_lot::Mutex;
//! use dcfa_mpi::{launch, Communicator, LaunchOpts, MpiConfig, Src, TagSel};
//!
//! let mut sim = simcore::Simulation::new();
//! let cluster = fabric::Cluster::new(sim.scheduler(), fabric::ClusterConfig::with_nodes(2));
//! let ib = verbs::IbFabric::new(cluster.clone());
//! let scif = scif::ScifFabric::new(cluster);
//! let got = Arc::new(Mutex::new(Vec::new()));
//! let got2 = got.clone();
//! launch(&sim, &ib, &scif, MpiConfig::dcfa(), 2, LaunchOpts::default(), move |ctx, comm| {
//!     let buf = comm.alloc(64).unwrap();
//!     if comm.rank() == 0 {
//!         comm.write(&buf, 0, b"hello phi");
//!         comm.send(ctx, &buf, 1, 7).unwrap();
//!     } else {
//!         comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(7)).unwrap();
//!         got2.lock().extend_from_slice(&comm.read_vec(&buf)[..9]);
//!     }
//! });
//! sim.run_expect();
//! assert_eq!(&*got.lock(), b"hello phi");
//! ```

mod channel;
pub mod collectives;
mod comm;
mod config;
mod connect;
pub mod datatype;
mod engine;
pub mod hotpath;
mod matching;
pub mod metrics;
mod mrcache;
mod packet;
mod recovery;
mod resources;
#[cfg(test)]
mod seam_tests;
pub mod slots;
mod stats;
pub mod subcomm;
pub mod trace;
mod types;
mod world;

pub use comm::{Comm, Communicator, Persistent};
pub use config::{MpiConfig, Placement};
pub use connect::ConnDirectory;
pub use engine::{CommStats, Engine, PeerEndpoint};
pub use metrics::{HistogramSnapshot, MetricKey, Metrics, MetricsHub, Phase, Span};
pub use mrcache::CacheStats;
pub use packet::PacketKind;
pub use resources::Resources;
pub use stats::StatsReport;
pub use trace::{audit, AuditReport, MsgStage, TraceBuf, TraceEvent};
pub use types::{
    Datatype, MpiError, Rank, ReduceOp, Request, Src, Status, Tag, TagSel, TransportOp,
};
pub use world::{launch, KillSpec, LaunchOpts};
