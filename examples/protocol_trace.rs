//! Protocol trace: watch the eager and rendezvous state machines end to
//! end. Sends one small (Eager) and one large (sender-first Rendezvous)
//! message and prints every lifecycle stage each one passes through, at
//! the rank that saw it, with its virtual timestamp. The stage names are
//! the ones `repro --explain-msg` and the Perfetto export use.
//!
//! ```text
//! cargo run --release --example protocol_trace
//! ```

use dcfa_mpi_repro::dcfa_mpi::{
    launch, Communicator, LaunchOpts, MpiConfig, Src, TagSel, TraceBuf, TraceEvent,
};
use dcfa_mpi_repro::fabric::{Cluster, ClusterConfig};
use dcfa_mpi_repro::scif::ScifFabric;
use dcfa_mpi_repro::simcore::{SimDuration, Simulation};
use dcfa_mpi_repro::verbs::IbFabric;

fn main() {
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(2));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);

    let tracer = TraceBuf::new(1 << 12);
    let opts = LaunchOpts {
        tracer: Some(tracer.clone()),
        ..LaunchOpts::default()
    };
    launch(
        &sim,
        &ib,
        &scif,
        MpiConfig::dcfa(),
        2,
        opts,
        move |ctx, comm| {
            let small = comm.alloc(256).unwrap();
            let large = comm.alloc(256 << 10).unwrap();
            if comm.rank() == 0 {
                // Eager: one copy + RDMA write into the peer's ring.
                comm.send(ctx, &small, 1, 1).unwrap();
                // Sender-first rendezvous: RTS -> peer RDMA READ -> DONE.
                comm.send(ctx, &large, 1, 2).unwrap();
            } else {
                comm.recv(ctx, &small, Src::Rank(0), TagSel::Tag(1))
                    .unwrap();
                // Delay so rank 0's RTS arrives before our receive (pure
                // sender-first path).
                ctx.sleep(SimDuration::from_micros(200));
                comm.recv(ctx, &large, Src::Rank(0), TagSel::Tag(2))
                    .unwrap();
            }
        },
    );
    sim.run_expect();

    println!("message lifecycle (virtual ns | rank | (src, dst, seq) | stage):");
    for ev in tracer.snapshot() {
        if let TraceEvent::MsgLife {
            at,
            src,
            dst,
            seq,
            stage,
            t,
            ..
        } = ev
        {
            println!("[{t:>12}] rank{at} ({src}, {dst}, {seq}) {}", stage.name());
        }
    }
}
