//! Variable-count collective tests: gatherv, scatterv, alltoallv with
//! uneven (including zero) block sizes.

use std::sync::Arc;

use dcfa_mpi::collectives::{alltoallv, gatherv, scatterv};
use dcfa_mpi::{launch, Comm, Communicator, LaunchOpts, MpiConfig};
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
fn gatherv_uneven_blocks() {
    let counts: Vec<u64> = vec![100, 0, 4096, 33];
    let gathered = Arc::new(SimCell::new(Vec::new()));
    let g2 = gathered.clone();
    let counts2 = counts.clone();
    run_mpi(4, move |ctx, comm| {
        let me = comm.rank();
        let send = comm.alloc(counts2[me].max(1)).unwrap();
        comm.write(&send, 0, &vec![me as u8 + 1; counts2[me] as usize]);
        if me == 0 {
            let total: u64 = counts2.iter().sum();
            let recv = comm.alloc(total).unwrap();
            gatherv(comm, ctx, &send, Some(&recv), &counts2, 0).unwrap();
            *g2.lock() = comm.read_vec(&recv);
        } else {
            gatherv(comm, ctx, &send, None, &counts2, 0).unwrap();
        }
    });
    let g = gathered.lock().clone();
    let mut off = 0usize;
    for (p, &cnt) in counts.iter().enumerate() {
        assert!(
            g[off..off + cnt as usize].iter().all(|&b| b == p as u8 + 1),
            "block from rank {p}"
        );
        off += cnt as usize;
    }
}

#[test]
fn scatterv_uneven_blocks() {
    let counts: Vec<u64> = vec![8, 2048, 0, 500];
    let ok = Arc::new(SimCell::new(0usize));
    let ok2 = ok.clone();
    let counts2 = counts.clone();
    run_mpi(4, move |ctx, comm| {
        let me = comm.rank();
        let recv = comm.alloc(counts2[me].max(1)).unwrap();
        if me == 1 {
            let total: u64 = counts2.iter().sum();
            let send = comm.alloc(total).unwrap();
            let mut off = 0u64;
            for (p, &cnt) in counts2.iter().enumerate() {
                comm.write(&send, off, &vec![p as u8 * 7 + 1; cnt as usize]);
                off += cnt;
            }
            scatterv(comm, ctx, Some(&send), &recv, &counts2, 1).unwrap();
        } else {
            scatterv(comm, ctx, None, &recv, &counts2, 1).unwrap();
        }
        let got = comm.read_vec(&recv.slice(0, counts2[me]));
        assert!(got.iter().all(|&b| b == me as u8 * 7 + 1), "rank {me}");
        *ok2.lock() += 1;
    });
    assert_eq!(*ok.lock(), 4);
}

#[test]
fn alltoallv_triangular_pattern() {
    // Rank i sends (i + j + 1) * 16 bytes to rank j: a fully uneven matrix.
    let n = 4usize;
    let ok = Arc::new(SimCell::new(0usize));
    let ok2 = ok.clone();
    run_mpi(n, move |ctx, comm| {
        let me = comm.rank();
        let count = |from: usize, to: usize| ((from + to + 1) * 16) as u64;
        let send_counts: Vec<u64> = (0..n).map(|j| count(me, j)).collect();
        let recv_counts: Vec<u64> = (0..n).map(|j| count(j, me)).collect();
        let mut send_offs = vec![0u64; n];
        let mut recv_offs = vec![0u64; n];
        for j in 1..n {
            send_offs[j] = send_offs[j - 1] + send_counts[j - 1];
            recv_offs[j] = recv_offs[j - 1] + recv_counts[j - 1];
        }
        let send = comm.alloc(send_counts.iter().sum::<u64>()).unwrap();
        let recv = comm.alloc(recv_counts.iter().sum::<u64>()).unwrap();
        for j in 0..n {
            comm.write(
                &send,
                send_offs[j],
                &vec![(me * 10 + j) as u8; send_counts[j] as usize],
            );
        }
        alltoallv(
            comm,
            ctx,
            &send,
            &send_counts,
            &send_offs,
            &recv,
            &recv_counts,
            &recv_offs,
        )
        .unwrap();
        for j in 0..n {
            let got = comm.read_vec(&recv.slice(recv_offs[j], recv_counts[j]));
            assert!(
                got.iter().all(|&b| b == (j * 10 + me) as u8),
                "rank {me} block from {j}"
            );
        }
        *ok2.lock() += 1;
    });
    assert_eq!(*ok.lock(), n);
}

#[test]
fn alltoallv_with_large_blocks_uses_rendezvous() {
    // Mixed small/large: one pair exchanges 128 KiB (rendezvous), the
    // rest a few bytes.
    let n = 3usize;
    run_mpi(n, move |ctx, comm| {
        let me = comm.rank();
        let count = |from: usize, to: usize| {
            if from == 0 && to == 2 {
                128 << 10
            } else {
                32u64
            }
        };
        let send_counts: Vec<u64> = (0..n).map(|j| count(me, j)).collect();
        let recv_counts: Vec<u64> = (0..n).map(|j| count(j, me)).collect();
        let mut send_offs = vec![0u64; n];
        let mut recv_offs = vec![0u64; n];
        for j in 1..n {
            send_offs[j] = send_offs[j - 1] + send_counts[j - 1];
            recv_offs[j] = recv_offs[j - 1] + recv_counts[j - 1];
        }
        let send = comm.alloc(send_counts.iter().sum::<u64>()).unwrap();
        let recv = comm.alloc(recv_counts.iter().sum::<u64>()).unwrap();
        for j in 0..n {
            comm.write(
                &send,
                send_offs[j],
                &vec![0xA0 + j as u8; send_counts[j] as usize],
            );
        }
        alltoallv(
            comm,
            ctx,
            &send,
            &send_counts,
            &send_offs,
            &recv,
            &recv_counts,
            &recv_offs,
        )
        .unwrap();
        for j in 0..n {
            let got = comm.read_vec(&recv.slice(recv_offs[j], recv_counts[j]));
            assert!(
                got.iter().all(|&b| b == 0xA0 + me as u8),
                "rank {me} from {j}"
            );
        }
    });
}
