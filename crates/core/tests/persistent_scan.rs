//! Persistent-request (`MPI_Send_init`/`MPI_Start`) and `MPI_Scan` tests.

use std::sync::Arc;

use dcfa_mpi::collectives::scan;
use dcfa_mpi::{
    launch, Comm, Communicator, Datatype, LaunchOpts, MpiConfig, ReduceOp, Src, TagSel,
};
use fabric::{Cluster, ClusterConfig};
use scif::ScifFabric;
use simcore::{Ctx, SimCell, Simulation};
use verbs::IbFabric;

fn run_mpi<F>(nprocs: usize, f: F)
where
    F: Fn(&mut Ctx, &mut Comm) + Send + Sync + 'static,
{
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(nprocs.max(2)));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    launch(
        &sim,
        &ib,
        &scif,
        MpiConfig::dcfa(),
        nprocs,
        LaunchOpts::default(),
        f,
    );
    sim.run_expect();
}

#[test]
fn persistent_halo_exchange_loop() {
    // The canonical persistent-request pattern: set up once, start every
    // iteration.
    let sums = Arc::new(SimCell::new(Vec::new()));
    let s2 = sums.clone();
    run_mpi(2, move |ctx, comm| {
        let me = comm.rank();
        let peer = 1 - me;
        let sbuf = comm.alloc(1024).unwrap();
        let rbuf = comm.alloc(1024).unwrap();
        let psend = comm.send_init(&sbuf, peer, 4);
        let precv = comm.recv_init(&rbuf, Src::Rank(peer), TagSel::Tag(4));
        let mut acc = 0u64;
        for iter in 0..10u8 {
            comm.write(&sbuf, 0, &[iter * 2 + me as u8; 1024]);
            let reqs = comm.startall(ctx, &[&precv, &psend]).unwrap();
            comm.waitall(ctx, &reqs).unwrap();
            acc += comm.read_vec(&rbuf)[0] as u64;
        }
        s2.lock().push((me, acc));
    });
    let mut sums = sums.lock().clone();
    sums.sort();
    // Rank 0 receives iter*2+1 each iteration: sum = 2*(0+..+9) + 10 = 100.
    // Rank 1 receives iter*2+0: sum = 90.
    assert_eq!(sums, vec![(0, 100), (1, 90)]);
}

#[test]
fn persistent_request_can_restart_after_wait() {
    run_mpi(2, move |ctx, comm| {
        let me = comm.rank();
        let buf = comm.alloc(64).unwrap();
        if me == 0 {
            let p = comm.send_init(&buf, 1, 1);
            for _ in 0..3 {
                let r = comm.start(ctx, &p).unwrap();
                comm.wait(ctx, r).unwrap();
            }
        } else {
            let p = comm.recv_init(&buf, Src::Rank(0), TagSel::Tag(1));
            for _ in 0..3 {
                let r = comm.start(ctx, &p).unwrap();
                comm.wait(ctx, r).unwrap();
            }
        }
    });
}

#[test]
fn scan_computes_inclusive_prefix_sums() {
    let got = Arc::new(SimCell::new(Vec::new()));
    let g2 = got.clone();
    run_mpi(5, move |ctx, comm| {
        let buf = comm.alloc(8).unwrap();
        comm.write(&buf, 0, &((comm.rank() + 1) as i64).to_le_bytes());
        scan(comm, ctx, &buf, Datatype::I64, ReduceOp::Sum).unwrap();
        let v = i64::from_le_bytes(comm.read_vec(&buf).try_into().unwrap());
        g2.lock().push((comm.rank(), v));
    });
    let mut got = got.lock().clone();
    got.sort();
    // Prefix sums of 1,2,3,4,5.
    assert_eq!(got, vec![(0, 1), (1, 3), (2, 6), (3, 10), (4, 15)]);
}

#[test]
fn scan_max_vector() {
    let got = Arc::new(SimCell::new(Vec::new()));
    let g2 = got.clone();
    run_mpi(4, move |ctx, comm| {
        // Element 0 rises with rank, element 1 falls.
        let buf = comm.alloc(16).unwrap();
        let mut bytes = (comm.rank() as i64).to_le_bytes().to_vec();
        bytes.extend_from_slice(&(10 - comm.rank() as i64).to_le_bytes());
        comm.write(&buf, 0, &bytes);
        scan(comm, ctx, &buf, Datatype::I64, ReduceOp::Max).unwrap();
        let out = comm.read_vec(&buf);
        let a = i64::from_le_bytes(out[..8].try_into().unwrap());
        let b = i64::from_le_bytes(out[8..].try_into().unwrap());
        g2.lock().push((comm.rank(), a, b));
    });
    let mut got = got.lock().clone();
    got.sort();
    for (r, a, b) in got {
        assert_eq!(a, r as i64, "rising element: running max is own value");
        assert_eq!(b, 10, "falling element: running max is rank 0's 10");
    }
}
