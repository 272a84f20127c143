//! Sub-communicator tests: split semantics, key ordering, concurrent
//! groups, MPI_UNDEFINED, and collectives inside sub-groups.

use std::sync::Arc;

use dcfa_mpi::subcomm::split;
use dcfa_mpi::{
    collectives, launch, Comm, Communicator, Datatype, LaunchOpts, MpiConfig, ReduceOp, Src, TagSel,
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
fn even_odd_split_ranks_and_sizes() {
    let got = Arc::new(SimCell::new(Vec::new()));
    let g2 = got.clone();
    run_mpi(6, move |ctx, comm| {
        let me = comm.rank();
        let color = (me % 2) as u32;
        let mut sub = split(comm, ctx, color, 0).unwrap().unwrap();
        g2.lock().push((
            me,
            color,
            sub.rank(),
            sub.size(),
            sub.parent_rank(sub.rank()),
        ));
        // Within-group ring exchange proves isolation.
        let n = sub.size();
        let buf = sub.cluster().alloc_pages(sub.mem(), 64).unwrap();
        sub.cluster().write(&buf, 0, &[sub.rank() as u8; 64]);
        let right = (sub.rank() + 1) % n;
        let left = (sub.rank() + n - 1) % n;
        let rbuf = sub.cluster().alloc_pages(sub.mem(), 64).unwrap();
        let rr = sub
            .irecv(ctx, &rbuf, Src::Rank(left), TagSel::Tag(1))
            .unwrap();
        let sr = sub.isend(ctx, &buf, right, 1).unwrap();
        sub.wait(ctx, sr).unwrap();
        let st = sub.wait(ctx, rr).unwrap();
        assert_eq!(st.source, left);
        assert_eq!(st.tag, 1);
        assert_eq!(sub.cluster().read_vec(&rbuf), vec![left as u8; 64]);
    });
    let mut got = got.lock().clone();
    got.sort();
    // Evens: parent 0,2,4 -> sub 0,1,2 of size 3; odds likewise.
    assert_eq!(
        got,
        vec![
            (0, 0, 0, 3, 0),
            (1, 1, 0, 3, 1),
            (2, 0, 1, 3, 2),
            (3, 1, 1, 3, 3),
            (4, 0, 2, 3, 4),
            (5, 1, 2, 3, 5),
        ]
    );
}

#[test]
fn key_reverses_order() {
    let got = Arc::new(SimCell::new(Vec::new()));
    let g2 = got.clone();
    run_mpi(4, move |ctx, comm| {
        let me = comm.rank();
        // Same color, key descending with rank => sub ranks reversed.
        let sub = split(comm, ctx, 0, -(me as i32)).unwrap().unwrap();
        g2.lock().push((me, sub.rank()));
    });
    let mut got = got.lock().clone();
    got.sort();
    assert_eq!(got, vec![(0, 3), (1, 2), (2, 1), (3, 0)]);
}

#[test]
fn undefined_color_gets_none() {
    let count = Arc::new(SimCell::new(0usize));
    let c2 = count.clone();
    run_mpi(4, move |ctx, comm| {
        let me = comm.rank();
        let color = if me == 3 { u32::MAX } else { 0 };
        let sub = split(comm, ctx, color, 0).unwrap();
        if me == 3 {
            assert!(sub.is_none());
        } else {
            let sub = sub.unwrap();
            assert_eq!(sub.size(), 3);
            *c2.lock() += 1;
        }
    });
    assert_eq!(*count.lock(), 3);
}

#[test]
fn collectives_inside_subgroups_run_concurrently() {
    let sums = Arc::new(SimCell::new(Vec::new()));
    let s2 = sums.clone();
    run_mpi(8, move |ctx, comm| {
        let me = comm.rank();
        let color = (me / 4) as u32; // two groups of 4
        let mut sub = split(comm, ctx, color, 0).unwrap().unwrap();
        let buf = sub.cluster().alloc_pages(sub.mem(), 8).unwrap();
        sub.cluster()
            .write(&buf, 0, &((me + 1) as f64).to_le_bytes());
        collectives::allreduce(&mut sub, ctx, &buf, Datatype::F64, ReduceOp::Sum).unwrap();
        let v = f64::from_le_bytes(sub.cluster().read_vec(&buf).try_into().unwrap());
        s2.lock().push((color, v));
    });
    let sums = sums.lock().clone();
    // Group 0: ranks 0..3 => 1+2+3+4 = 10. Group 1: 5+6+7+8 = 26.
    for (color, v) in sums {
        assert_eq!(v, if color == 0 { 10.0 } else { 26.0 });
    }
}

#[test]
fn sub_traffic_does_not_cross_groups() {
    // Both groups exchange on the SAME application tag simultaneously;
    // payload verification proves no cross-group matching happened.
    run_mpi(4, move |ctx, comm| {
        let me = comm.rank();
        let color = (me % 2) as u32;
        let mut sub = split(comm, ctx, color, 0).unwrap().unwrap();
        let peer = 1 - sub.rank();
        let sbuf = sub.cluster().alloc_pages(sub.mem(), 128).unwrap();
        sub.cluster()
            .write(&sbuf, 0, &[(color as u8 + 1) * 10 + sub.rank() as u8; 128]);
        let rbuf = sub.cluster().alloc_pages(sub.mem(), 128).unwrap();
        let rr = sub
            .irecv(ctx, &rbuf, Src::Rank(peer), TagSel::Tag(9))
            .unwrap();
        let sr = sub.isend(ctx, &sbuf, peer, 9).unwrap();
        sub.wait(ctx, sr).unwrap();
        sub.wait(ctx, rr).unwrap();
        let expect = (color as u8 + 1) * 10 + peer as u8;
        assert!(sub.cluster().read_vec(&rbuf).iter().all(|&b| b == expect));
    });
}
