//! The communication-only application of the paper's second experiment
//! (Table II, Fig. 10): two MPI processes on different nodes exchange `X`
//! bytes per iteration with `MPI_Isend`/`MPI_Irecv`.
//!
//! * **DCFA-MPI**: computing data stays in Phi memory; the iteration is
//!   just the inter-node exchange.
//! * **Intel MPI on Xeon + offload**: ranks on the hosts; per iteration
//!   the data is copied out of the card before the exchange and the
//!   received data copied back in (Table II: Copy In X + Copy Out X on
//!   top of Send X + Receive X), with the paper's optimizations applied —
//!   persistent page-aligned buffers, hoisted offload init, and double
//!   buffering that overlaps the copy-in with the next iteration.

use std::sync::Arc;

use baselines::OffloadRuntime;
use dcfa_mpi::{launch, Communicator, LaunchOpts, MpiConfig, Src, TagSel};
use fabric::{Cluster, ClusterConfig};
use scif::ScifFabric;
use simcore::{SimCell, Simulation};
use verbs::IbFabric;

/// One data point of Fig. 10.
#[derive(Debug, Clone, Copy)]
pub struct CommOnly {
    pub size: u64,
    /// Mean per-iteration time in microseconds.
    pub iter_us: f64,
}

/// DCFA-MPI variant: 2 Phi ranks, exchange X per iteration.
pub fn commonly_dcfa(ccfg: &ClusterConfig, cfg: MpiConfig, x: u64, iters: u32) -> CommOnly {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ccfg.clone());
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    let out = Arc::new(SimCell::new(0.0f64));
    let out2 = out.clone();
    launch(
        &sim,
        &ib,
        &scif,
        cfg,
        2,
        LaunchOpts::default(),
        move |ctx, comm| {
            let sbuf = comm.alloc(x).unwrap();
            let rbuf = comm.alloc(x).unwrap();
            let peer = 1 - comm.rank();
            let warmup = 3u32;
            let mut t0 = ctx.now();
            for i in 0..(warmup + iters) {
                if i == warmup {
                    t0 = ctx.now();
                }
                let rr = comm
                    .irecv(ctx, &rbuf, Src::Rank(peer), TagSel::Tag(1))
                    .unwrap();
                let sr = comm.isend(ctx, &sbuf, peer, 1).unwrap();
                comm.wait(ctx, sr).unwrap();
                comm.wait(ctx, rr).unwrap();
            }
            if comm.rank() == 0 {
                *out2.lock() = (ctx.now() - t0).as_micros_f64() / iters as f64;
            }
        },
    );
    sim.run_expect();
    let iter_us = *out.lock();
    CommOnly { size: x, iter_us }
}

/// Intel-MPI-on-Xeon + offload variant: 2 host ranks, each driving a Phi
/// card whose data must cross PCIe every iteration.
pub fn commonly_offload(ccfg: &ClusterConfig, x: u64, iters: u32) -> CommOnly {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ccfg.clone());
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster.clone());
    let out = Arc::new(SimCell::new(0.0f64));
    let out2 = out.clone();
    let cl = cluster.clone();
    launch(
        &sim,
        &ib,
        &scif,
        MpiConfig::host(),
        2,
        LaunchOpts::default(),
        move |ctx, comm| {
            let node = fabric::NodeId(comm.rank() % cl.num_nodes());
            // Offload init hoisted out of the loop (paper optimization 1).
            let rt = OffloadRuntime::new(ctx, cl.clone(), node);
            // Persistent page-aligned buffers (optimizations 2 and 3).
            let card = rt.alloc_phi(x.max(1)).unwrap();
            let host_out = comm.alloc(x).unwrap();
            // Double buffering (optimization 4): two receive buffers alternate
            // so the copy-in of iteration i-1's data rides the offload stream
            // *behind* iteration i's copy-out and overlaps the MPI exchange.
            let host_in = [comm.alloc(x).unwrap(), comm.alloc(x).unwrap()];
            let peer = 1 - comm.rank();
            let warmup = 3u32;
            let mut t0 = ctx.now();
            let mut pending_in: Option<fabric::Transfer> = None;
            let mut prev_recv: Option<usize> = None;
            for i in 0..(warmup + iters) {
                if i == warmup {
                    t0 = ctx.now();
                }
                // Copy the data to send out of the card.
                let out_t = rt.copy_out_async(ctx, &card, &host_out);
                // Queue the previous iteration's copy-in right behind it; it
                // will overlap this iteration's MPI exchange.
                if let Some(slot) = prev_recv.take() {
                    pending_in = Some(rt.copy_in_async(ctx, &host_in[slot], &card));
                }
                ctx.wait_reason(&out_t.completion, "offload copy-out");
                // Exchange on the host.
                let slot = (i % 2) as usize;
                let rr = comm
                    .irecv(ctx, &host_in[slot], Src::Rank(peer), TagSel::Tag(1))
                    .unwrap();
                let sr = comm.isend(ctx, &host_out, peer, 1).unwrap();
                comm.wait(ctx, sr).unwrap();
                comm.wait(ctx, rr).unwrap();
                if let Some(prev) = pending_in.take() {
                    ctx.wait_reason(&prev.completion, "offload copy-in");
                }
                prev_recv = Some(slot);
            }
            if let Some(slot) = prev_recv.take() {
                let t = rt.copy_in_async(ctx, &host_in[slot], &card);
                ctx.wait_reason(&t.completion, "offload copy-in");
            }
            if comm.rank() == 0 {
                *out2.lock() = (ctx.now() - t0).as_micros_f64() / iters as f64;
            }
        },
    );
    sim.run_expect();
    let iter_us = *out.lock();
    CommOnly { size: x, iter_us }
}
