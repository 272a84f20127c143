//! Symmetric-mode tests (the third execution mode of §III-B): ranks on
//! both host processors and Xeon Phi co-processors in one job, "messages
//! can be transferred to/from any core".

use std::sync::Arc;

use dcfa_mpi::collectives;
use dcfa_mpi::{
    launch, Comm, Communicator, Datatype, LaunchOpts, MpiConfig, Placement, ReduceOp, Src, TagSel,
};
use fabric::{Cluster, ClusterConfig, Domain};
use scif::ScifFabric;
use simcore::{Ctx, SimCell, Simulation};
use verbs::IbFabric;

fn run_symmetric<F>(placements: Vec<Placement>, f: F)
where
    F: Fn(&mut Ctx, &mut Comm) + Send + Sync + 'static,
{
    let n = placements.len();
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(n.max(2)));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    let opts = LaunchOpts {
        placements: Some(placements),
        ..Default::default()
    };
    launch(&sim, &ib, &scif, MpiConfig::dcfa(), n, opts, f);
    sim.run_expect();
}

#[test]
fn host_and_phi_ranks_exchange_messages() {
    let ok = Arc::new(SimCell::new(0usize));
    let ok2 = ok.clone();
    run_symmetric(vec![Placement::Phi, Placement::Host], move |ctx, comm| {
        // Rank 0 on a card, rank 1 on a host.
        let expect_domain = if comm.rank() == 0 {
            Domain::Phi
        } else {
            Domain::Host
        };
        assert_eq!(comm.mem().domain, expect_domain);
        let peer = 1 - comm.rank();
        let sbuf = comm.alloc(32 << 10).unwrap();
        let rbuf = comm.alloc(32 << 10).unwrap();
        comm.write(&sbuf, 0, &[comm.rank() as u8 + 7; 32 << 10]);
        let rr = comm
            .irecv(ctx, &rbuf, Src::Rank(peer), TagSel::Tag(1))
            .unwrap();
        let sr = comm.isend(ctx, &sbuf, peer, 1).unwrap();
        comm.wait(ctx, sr).unwrap();
        comm.wait(ctx, rr).unwrap();
        assert_eq!(comm.read_vec(&rbuf), vec![peer as u8 + 7; 32 << 10]);
        *ok2.lock() += 1;
    });
    assert_eq!(*ok.lock(), 2);
}

#[test]
fn phi_rank_uses_offload_host_rank_does_not() {
    let stats = Arc::new(SimCell::new(Vec::new()));
    let s2 = stats.clone();
    run_symmetric(vec![Placement::Phi, Placement::Host], move |ctx, comm| {
        let peer = 1 - comm.rank();
        let buf = comm.alloc(256 << 10).unwrap();
        // Both directions: each rank sends one large message.
        let rr = comm
            .irecv(ctx, &buf, Src::Rank(peer), TagSel::Tag(2))
            .unwrap();
        let sbuf = comm.alloc(256 << 10).unwrap();
        let sr = comm.isend(ctx, &sbuf, peer, 2).unwrap();
        comm.wait(ctx, sr).unwrap();
        comm.wait(ctx, rr).unwrap();
        s2.lock().push((comm.rank(), comm.stats()));
    });
    let stats = stats.lock().clone();
    for (rank, st) in stats {
        assert_eq!(st.rndv_sends, 1, "rank {rank}");
        if rank == 0 {
            assert_eq!(st.offload_syncs, 1, "Phi rank stages through the twin");
        } else {
            assert_eq!(st.offload_syncs, 0, "host rank sends directly");
        }
    }
}

#[test]
fn mixed_four_rank_collectives() {
    let got = Arc::new(SimCell::new(Vec::new()));
    let g2 = got.clone();
    run_symmetric(
        vec![
            Placement::Host,
            Placement::Phi,
            Placement::Host,
            Placement::Phi,
        ],
        move |ctx, comm| {
            let buf = comm.alloc(8).unwrap();
            comm.write(&buf, 0, &((comm.rank() + 1) as f64).to_le_bytes());
            collectives::allreduce(comm, ctx, &buf, Datatype::F64, ReduceOp::Sum).unwrap();
            let v = f64::from_le_bytes(comm.read_vec(&buf).try_into().unwrap());
            g2.lock().push(v);
            collectives::barrier(comm, ctx).unwrap();
        },
    );
    assert_eq!(*got.lock(), vec![10.0; 4]);
}

#[test]
fn symmetric_stencil_like_ring() {
    // A ring over alternating placements (the symmetric-mode shape a
    // host+card-per-node job would use).
    run_symmetric(
        vec![
            Placement::Host,
            Placement::Phi,
            Placement::Host,
            Placement::Phi,
        ],
        move |ctx, comm| {
            let n = comm.size();
            let me = comm.rank();
            let right = (me + 1) % n;
            let left = (me + n - 1) % n;
            let sbuf = comm.alloc(10 << 10).unwrap();
            let rbuf = comm.alloc(10 << 10).unwrap();
            comm.write(&sbuf, 0, &[me as u8 * 3 + 1; 10 << 10]);
            for _ in 0..5 {
                let rr = comm
                    .irecv(ctx, &rbuf, Src::Rank(left), TagSel::Tag(4))
                    .unwrap();
                let sr = comm.isend(ctx, &sbuf, right, 4).unwrap();
                comm.wait(ctx, sr).unwrap();
                comm.wait(ctx, rr).unwrap();
                assert_eq!(comm.read_vec(&rbuf)[0], left as u8 * 3 + 1);
            }
        },
    );
}
