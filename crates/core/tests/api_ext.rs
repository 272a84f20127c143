//! Tests for the extended request-management API (probe/iprobe, waitany)
//! and the protocol telemetry counters.

use std::sync::{Arc, OnceLock};

use dcfa_mpi::{launch, Comm, Communicator, LaunchOpts, MpiConfig, Src, TagSel};
use fabric::{Cluster, ClusterConfig};
use scif::ScifFabric;
use simcore::{Ctx, SimCell, SimDuration, Simulation};
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
fn probe_reports_envelope_without_consuming() {
    let ok = Arc::new(SimCell::new(false));
    let ok2 = ok.clone();
    run_mpi(2, move |ctx, comm| {
        if comm.rank() == 0 {
            let buf = comm.alloc(300).unwrap();
            comm.write(&buf, 0, &[7u8; 300]);
            comm.send(ctx, &buf, 1, 9).unwrap();
        } else {
            // Blocking probe sees the message before any receive is posted.
            let st = comm.probe(ctx, Src::Rank(0), TagSel::Tag(9)).unwrap();
            assert_eq!(st.len, 300);
            assert_eq!(st.source, 0);
            assert_eq!(st.tag, 9);
            // Probe again: still there (not consumed).
            assert!(comm.iprobe(ctx, Src::Rank(0), TagSel::Tag(9)).is_some());
            // Allocate exactly the probed size, then receive.
            let buf = comm.alloc(st.len).unwrap();
            let st2 = comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(9)).unwrap();
            assert_eq!(st2.len, 300);
            // Now it's gone.
            assert!(comm.iprobe(ctx, Src::Rank(0), TagSel::Tag(9)).is_none());
            *ok2.lock() = true;
        }
    });
    assert!(*ok.lock());
}

#[test]
fn iprobe_none_when_nothing_pending() {
    run_mpi(2, move |ctx, comm| {
        if comm.rank() == 1 {
            assert!(comm.iprobe(ctx, Src::Any, TagSel::Any).is_none());
        }
    });
}

#[test]
fn probe_sees_rendezvous_rts_envelope() {
    let ok = Arc::new(SimCell::new(false));
    let ok2 = ok.clone();
    run_mpi(2, move |ctx, comm| {
        let len = 256 << 10;
        if comm.rank() == 0 {
            let buf = comm.alloc(len).unwrap();
            comm.send(ctx, &buf, 1, 3).unwrap();
        } else {
            let st = comm.probe(ctx, Src::Any, TagSel::Any).unwrap();
            assert_eq!(st.len, len);
            let buf = comm.alloc(len).unwrap();
            comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(3)).unwrap();
            *ok2.lock() = true;
        }
    });
    assert!(*ok.lock());
}

#[test]
fn waitany_returns_first_completion() {
    let order = Arc::new(SimCell::new(Vec::new()));
    let o2 = order.clone();
    run_mpi(3, move |ctx, comm| {
        match comm.rank() {
            0 => {
                // Rank 1 answers fast, rank 2 slow.
                let b1 = comm.alloc(64).unwrap();
                let b2 = comm.alloc(64).unwrap();
                let r1 = comm.irecv(ctx, &b1, Src::Rank(1), TagSel::Tag(1)).unwrap();
                let r2 = comm.irecv(ctx, &b2, Src::Rank(2), TagSel::Tag(2)).unwrap();
                let reqs = [r2, r1];
                let (idx, st) = comm.waitany(ctx, &reqs);
                o2.lock().push((idx, st.unwrap().source));
                let (idx2, st2) = comm.waitany(ctx, &[reqs[0]]);
                o2.lock().push((idx2, st2.unwrap().source));
            }
            1 => {
                let buf = comm.alloc(64).unwrap();
                comm.send(ctx, &buf, 0, 1).unwrap();
            }
            _ => {
                ctx.sleep(SimDuration::from_millis(2));
                let buf = comm.alloc(64).unwrap();
                comm.send(ctx, &buf, 0, 2).unwrap();
            }
        }
    });
    // First completion is rank 1 (index 1 in [r2, r1]), then rank 2.
    assert_eq!(*order.lock(), vec![(1, 1), (0, 2)]);
}

#[test]
fn stats_count_protocols_and_bytes() {
    let stats = Arc::new(SimCell::new(None));
    let s2 = stats.clone();
    run_mpi(2, move |ctx, comm| {
        let small = comm.alloc(512).unwrap();
        let large = comm.alloc(64 << 10).unwrap();
        if comm.rank() == 0 {
            comm.send(ctx, &small, 1, 1).unwrap(); // eager
            comm.send(ctx, &large, 1, 1).unwrap(); // rndv + offload sync
            comm.send(ctx, &small, 1, 1).unwrap(); // eager
            *s2.lock() = Some(comm.stats());
        } else {
            comm.recv(ctx, &small, Src::Rank(0), TagSel::Tag(1))
                .unwrap();
            comm.recv(ctx, &large, Src::Rank(0), TagSel::Tag(1))
                .unwrap();
            comm.recv(ctx, &small, Src::Rank(0), TagSel::Tag(1))
                .unwrap();
        }
    });
    let st = stats.lock().unwrap();
    assert_eq!(st.eager_sends, 2);
    assert_eq!(st.rndv_sends, 1);
    assert_eq!(st.offload_syncs, 1);
    assert_eq!(st.bytes_sent, 512 + (64 << 10) + 512);
    // Sender processes DONE (and possibly CREDIT) packets.
    assert!(st.packets_processed >= 1);
}

#[test]
fn receiver_stats_count_bytes_received() {
    let stats = Arc::new(SimCell::new(None));
    let s2 = stats.clone();
    run_mpi(2, move |ctx, comm| {
        let buf = comm.alloc(100 << 10).unwrap();
        if comm.rank() == 0 {
            comm.send(ctx, &buf, 1, 1).unwrap();
            comm.send(ctx, &buf.slice(0, 100), 1, 1).unwrap();
        } else {
            comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
            comm.recv(ctx, &buf.slice(0, 100), Src::Rank(0), TagSel::Tag(1))
                .unwrap();
            *s2.lock() = Some(comm.stats());
        }
    });
    let st = stats.lock().unwrap();
    assert_eq!(st.bytes_received, (100 << 10) + 100);
    assert_eq!(st.bytes_sent, 0);
}

#[test]
fn stale_rtr_counter_increments_on_mispredict() {
    let stats = Arc::new(SimCell::new(None));
    let s2 = stats.clone();
    run_mpi(2, move |ctx, comm| {
        if comm.rank() == 0 {
            // Let the RTR arrive before our (small, eager) send.
            ctx.sleep(SimDuration::from_millis(1));
            let small = comm.alloc(64).unwrap();
            comm.send(ctx, &small, 1, 6).unwrap();
            // Drain the stale RTR with one more blocking exchange.
            comm.send(ctx, &small, 1, 7).unwrap();
            *s2.lock() = Some(comm.stats());
        } else {
            let big = comm.alloc(256 << 10).unwrap();
            comm.recv(ctx, &big, Src::Rank(0), TagSel::Tag(6)).unwrap();
            let small = comm.alloc(64).unwrap();
            comm.recv(ctx, &small, Src::Rank(0), TagSel::Tag(7))
                .unwrap();
        }
    });
    let st = stats.lock().unwrap();
    assert_eq!(st.stale_rtrs_dropped, 1, "{st:?}");
}

/// A rank whose Phi memory is full cannot allocate its half of a new
/// pair (ring + staging region). That used to abort the rank; it must
/// surface as `OutOfMemory` from `isend`/`irecv` before a pair sequence
/// id is burnt — and before a queue pair is created: a refused first
/// touch costs the daemon nothing, however often it is retried — so the
/// same operations succeed once memory is back, for exactly the commands
/// a first touch always takes.
fn first_touch_under_exhausted_phi_memory(srq_depth: Option<u32>) {
    let mut sim = Simulation::new();
    let ccfg = ClusterConfig {
        phi_mem_capacity: 8 << 20,
        ..ClusterConfig::with_nodes(3)
    };
    let cluster = Cluster::new(sim.scheduler(), ccfg);
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    let delivered = Arc::new(SimCell::new(0u8));
    let delivered2 = delivered.clone();
    let daemons = Arc::new(OnceLock::<dcfa::DcfaStats>::new());
    let daemons2 = daemons.clone();
    let f = move |ctx: &mut Ctx, comm: &mut Comm| {
        let buf = comm.alloc(256).unwrap();
        let commands = || daemons2.get().expect("set before run").snapshot().commands;
        match comm.rank() {
            0 => {
                // Once every rank's own set-up commands are behind us: what
                // a fresh pair costs, both halves (rank 1 sets its up when
                // our request arrives, and answers only then).
                ctx.sleep(SimDuration::from_millis(1));
                let before = commands();
                comm.send(ctx, &buf, 1, 1).unwrap();
                let fresh = commands() - before;
                assert!(fresh > 0);
                let mut hog = Vec::new();
                while let Ok(b) = comm.alloc(64 << 10) {
                    hog.push(b);
                }
                let before = commands();
                let oom = Err(dcfa_mpi::MpiError::OutOfMemory);
                for _retry in 0..3 {
                    assert_eq!(comm.isend(ctx, &buf, 2, 2).map(|_| ()), oom);
                    assert_eq!(
                        comm.irecv(ctx, &buf, Src::Rank(2), TagSel::Tag(3))
                            .map(|_| ()),
                        oom
                    );
                }
                assert_eq!(commands(), before, "a refused first touch cost commands");
                // An established pair keeps working throughout.
                comm.send(ctx, &buf, 1, 1).unwrap();
                hog.iter().for_each(|b| comm.free(b));
                comm.write(&buf, 0, &[0xAB; 256]);
                let before = commands();
                comm.send(ctx, &buf, 2, 2).unwrap();
                assert_eq!(commands() - before, fresh, "the refusals left something");
            }
            1 => {
                // Any-source: touches the pair only when rank 0 does.
                comm.recv(ctx, &buf, Src::Any, TagSel::Tag(1)).unwrap();
                comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
            }
            _ => {
                comm.recv(ctx, &buf, Src::Any, TagSel::Tag(2)).unwrap();
                *delivered2.lock() = comm.read_vec(&buf)[255];
            }
        }
    };
    let cfg = MpiConfig {
        srq_depth,
        ..MpiConfig::dcfa()
    };
    let stats = launch(&sim, &ib, &scif, cfg, 3, LaunchOpts::default(), f);
    daemons
        .set(stats.expect("Phi ranks have daemons"))
        .expect("set once");
    sim.run_expect();
    assert_eq!(*delivered.lock(), 0xAB);
}

#[test]
fn first_touch_under_exhausted_phi_memory_is_an_error() {
    first_touch_under_exhausted_phi_memory(None);
}

/// With a receive pool only the staging region is per pair, and its
/// queue pair is the one a refusal must not leave behind.
#[test]
fn first_touch_under_exhausted_phi_memory_is_an_error_on_the_pool() {
    first_touch_under_exhausted_phi_memory(Some(128));
}

/// Same for the shared receive pool: when it does not fit, the rank comes
/// up anyway and every first touch reports `OutOfMemory`.
#[test]
fn receive_pool_that_does_not_fit_is_an_error() {
    let mut sim = Simulation::new();
    let ccfg = ClusterConfig {
        phi_mem_capacity: 1 << 20,
        ..ClusterConfig::with_nodes(2)
    };
    let cluster = Cluster::new(sim.scheduler(), ccfg);
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    let cfg = MpiConfig {
        srq_depth: Some(256),
        ..MpiConfig::dcfa()
    };
    launch(
        &sim,
        &ib,
        &scif,
        cfg,
        2,
        LaunchOpts::default(),
        |ctx, comm| {
            let buf = comm.alloc(64).unwrap();
            let peer = 1 - comm.rank();
            assert_eq!(
                comm.isend(ctx, &buf, peer, 0).map(|_| ()),
                Err(dcfa_mpi::MpiError::OutOfMemory)
            );
        },
    );
    sim.run_expect();
}
