//! Ping-pong microbenchmarks: the raw RDMA direction study (Fig. 5) and
//! the MPI round-trip / bandwidth sweeps (Figs. 7, 8, 9).

use std::sync::Arc;

use baselines::IntelPhiWorld;
use dcfa_mpi::{launch, Communicator, LaunchOpts, MpiConfig, Src, TagSel};
use fabric::{Cluster, ClusterConfig, Domain, MemRef, NodeId};
use scif::ScifFabric;
use simcore::{SimCell, Simulation};
use verbs::IbFabric;

/// RDMA-write direction pairs of Fig. 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    HostToHost,
    HostToPhi,
    PhiToHost,
    PhiToPhi,
}

impl Direction {
    pub const ALL: [Direction; 4] = [
        Direction::HostToPhi,
        Direction::PhiToHost,
        Direction::PhiToPhi,
        Direction::HostToHost,
    ];

    pub fn domains(self) -> (Domain, Domain) {
        match self {
            Direction::HostToHost => (Domain::Host, Domain::Host),
            Direction::HostToPhi => (Domain::Host, Domain::Phi),
            Direction::PhiToHost => (Domain::Phi, Domain::Host),
            Direction::PhiToPhi => (Domain::Phi, Domain::Phi),
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Direction::HostToHost => "host -> host",
            Direction::HostToPhi => "host -> phi",
            Direction::PhiToHost => "phi -> host",
            Direction::PhiToPhi => "phi -> phi",
        }
    }
}

/// One ping-pong measurement.
#[derive(Debug, Clone, Copy)]
pub struct PingPong {
    pub size: u64,
    /// Mean round-trip (blocking) or exchange-iteration (non-blocking)
    /// time in microseconds.
    pub rtt_us: f64,
    /// Achieved bandwidth in GB/s (message bytes over one-way time).
    pub bw_gbs: f64,
}

/// Fig. 5: raw InfiniBand RDMA-write ping-pong between two nodes with the
/// four buffer-placement combinations.
pub fn rdma_direction(ccfg: &ClusterConfig, dir: Direction, size: u64, iters: u32) -> PingPong {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ccfg.clone());
    let ib = IbFabric::new(cluster.clone());
    let out = Arc::new(SimCell::new(PingPong {
        size,
        rtt_us: 0.0,
        bw_gbs: 0.0,
    }));
    let out2 = out.clone();
    let (sd, dd) = dir.domains();
    sim.spawn("rdma-pingpong", move |ctx| {
        let cl = ib.cluster().clone();
        let a = verbs::VerbsContext::open(ib.clone(), NodeId(0), sd);
        let b = verbs::VerbsContext::open(ib.clone(), NodeId(1), dd);
        let abuf = cl
            .alloc_pages(
                MemRef {
                    node: NodeId(0),
                    domain: sd,
                },
                size,
            )
            .unwrap();
        let bbuf = cl
            .alloc_pages(
                MemRef {
                    node: NodeId(1),
                    domain: dd,
                },
                size,
            )
            .unwrap();
        let amr = a.reg_mr_uncharged(abuf);
        let bmr = b.reg_mr_uncharged(bbuf);
        let cqa = a.create_cq();
        let cqb = b.create_cq();
        let qpa = a.create_qp(&cqa, &cqa);
        let qpb = b.create_qp(&cqb, &cqb);
        verbs::QueuePair::connect_pair(&qpa, &qpb);
        let t0 = ctx.now();
        for i in 0..iters {
            // Ping: full-size a -> b write; pong: 8-byte ack b -> a, so
            // the measurement reflects the *forward* direction (this is
            // how Fig. 5 can show host->phi at host->host speed even
            // though phi->host is slow). A single driver process plays
            // both sides (raw verbs, no MPI semantics involved).
            qpa.post_send(
                ctx,
                verbs::SendWr::rdma_write(i as u64, vec![amr.sge(0, size)], bmr.addr(), bmr.rkey()),
            )
            .unwrap();
            cqa.wait(ctx);
            let ack = size.min(8);
            qpb.post_send(
                ctx,
                verbs::SendWr::rdma_write(i as u64, vec![bmr.sge(0, ack)], amr.addr(), amr.rkey()),
            )
            .unwrap();
            cqb.wait(ctx);
        }
        let rtt = (ctx.now() - t0).as_micros_f64() / iters as f64;
        *out2.lock() = PingPong {
            size,
            rtt_us: rtt,
            bw_gbs: size as f64 / (rtt * 1e-6) / 1e9,
        };
    });
    sim.run_expect();
    let r = *out.lock();
    r
}

/// Which MPI library plays the ping-pong.
#[derive(Debug, Clone)]
pub enum MpiRuntime {
    /// DCFA-MPI (or host YAMPII) with this configuration.
    Dcfa(MpiConfig),
    /// The Intel-MPI-on-Phi proxy-mode model.
    IntelPhi,
}

/// Blocking MPI ping-pong (Fig. 9 methodology: bandwidth from the round
/// trip latency of blocking communication, 2 ranks on 2 nodes).
pub fn mpi_pingpong_blocking(
    ccfg: &ClusterConfig,
    rt: &MpiRuntime,
    size: u64,
    iters: u32,
) -> PingPong {
    run_pingpong(ccfg, rt, size, iters, true)
}

/// Non-blocking exchange (Figs. 7/8 methodology: `MPI_Isend`+`MPI_Irecv`
/// both ways per iteration).
pub fn mpi_pingpong_nonblocking(
    ccfg: &ClusterConfig,
    rt: &MpiRuntime,
    size: u64,
    iters: u32,
) -> PingPong {
    run_pingpong(ccfg, rt, size, iters, false)
}

fn run_pingpong(
    ccfg: &ClusterConfig,
    rt: &MpiRuntime,
    size: u64,
    iters: u32,
    blocking: bool,
) -> PingPong {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ccfg.clone());
    let out = Arc::new(SimCell::new(0.0f64));
    let out2 = out.clone();
    let warmup = 4u32;

    match rt {
        MpiRuntime::Dcfa(cfg) => {
            let ib = IbFabric::new(cluster.clone());
            let scif = ScifFabric::new(cluster.clone());
            launch(
                &sim,
                &ib,
                &scif,
                cfg.clone(),
                2,
                LaunchOpts::default(),
                move |ctx, comm| {
                    let us = body(ctx, comm, size, iters, warmup, blocking);
                    if comm.rank() == 0 {
                        *out2.lock() = us;
                    }
                },
            );
        }
        MpiRuntime::IntelPhi => {
            let world = IntelPhiWorld::new(cluster.clone(), 2);
            world.launch(&sim, move |ctx, comm| {
                let us = body(ctx, comm, size, iters, warmup, blocking);
                if comm.rank() == 0 {
                    *out2.lock() = us;
                }
            });
        }
    }
    sim.run_expect();
    let rtt_us = *out.lock();
    let one_way = rtt_us / if blocking { 2.0 } else { 1.0 };
    PingPong {
        size,
        rtt_us,
        bw_gbs: size as f64 / (one_way * 1e-6) / 1e9,
    }
}

/// The measured loop, shared by both runtimes via the `Communicator`
/// abstraction. Returns the mean per-iteration time in microseconds
/// (only meaningful on rank 0).
fn body<C: Communicator>(
    ctx: &mut simcore::Ctx,
    comm: &mut C,
    size: u64,
    iters: u32,
    warmup: u32,
    blocking: bool,
) -> f64 {
    let sbuf = comm.cluster().alloc_pages(comm.mem(), size).unwrap();
    let rbuf = comm.cluster().alloc_pages(comm.mem(), size).unwrap();
    let me = comm.rank();
    let peer = 1 - me;
    let mut t0 = ctx.now();
    for i in 0..(warmup + iters) {
        if i == warmup {
            t0 = ctx.now();
        }
        if blocking {
            if me == 0 {
                comm.send(ctx, &sbuf, peer, 1).unwrap();
                comm.recv(ctx, &rbuf, Src::Rank(peer), TagSel::Tag(2))
                    .unwrap();
            } else {
                comm.recv(ctx, &rbuf, Src::Rank(peer), TagSel::Tag(1))
                    .unwrap();
                comm.send(ctx, &sbuf, peer, 2).unwrap();
            }
        } else {
            let rr = comm
                .irecv(ctx, &rbuf, Src::Rank(peer), TagSel::Tag(3))
                .unwrap();
            let sr = comm.isend(ctx, &sbuf, peer, 3).unwrap();
            comm.wait(ctx, sr).unwrap();
            comm.wait(ctx, rr).unwrap();
        }
    }
    (ctx.now() - t0).as_micros_f64() / iters as f64
}
