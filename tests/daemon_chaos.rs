//! Control-plane fault tolerance through the full MPI stack: the
//! delegation daemons crash (and get respawned), drop replies (answered
//! from the dedup cache on retransmit) and delay replies (forcing
//! retransmits) while 4 ranks run a mixed eager/rendezvous workload with
//! heartbeats and the lease reaper live. Payloads must arrive intact,
//! host twin pages must balance, and the auditor must confirm every
//! crash paired with a respawn and every re-attach replayed its full
//! resource journal.

use std::sync::Arc;

use dcfa_mpi_repro::dcfa::{DaemonConfig, DaemonFault, DaemonFaultKind};
use dcfa_mpi_repro::dcfa_mpi::{
    audit, launch, Communicator, LaunchOpts, MpiConfig, Src, TagSel, TraceBuf,
};
use dcfa_mpi_repro::fabric::{Cluster, ClusterConfig, Domain, MemRef, NodeId};
use dcfa_mpi_repro::scif::ScifFabric;
use dcfa_mpi_repro::simcore::{SimDuration, Simulation};
use dcfa_mpi_repro::verbs::IbFabric;
use simcore::SimCell;

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

/// The headline soak: daemons crash, drop and delay mid-run; everything
/// still completes with correct payloads, nothing leaks, and the audit
/// (which includes crash/respawn pairing and full-journal-replay checks)
/// stays clean.
#[test]
fn four_ranks_survive_daemon_crash_drop_and_delay() {
    const N: usize = 4;
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(N));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster.clone());
    let tracer = TraceBuf::new(1 << 16);
    let opts = LaunchOpts {
        tracer: Some(tracer.clone()),
        daemon: DaemonConfig {
            // "6:crash,20:drop,35:delay" in `repro --faults` syntax.
            faults: [
                (6, DaemonFaultKind::Crash),
                (20, DaemonFaultKind::DropReply),
                (35, DaemonFaultKind::DelayReply),
            ]
            .map(|(after_cmds, kind)| DaemonFault {
                after_cmds,
                kind,
                node: None,
            })
            .to_vec(),
            lease_ttl: Some(SimDuration::from_millis(2)),
            reaper_period: SimDuration::from_micros(500),
            ..Default::default()
        },
        ..Default::default()
    };
    let cfg = MpiConfig {
        heartbeat_interval: Some(SimDuration::from_micros(200)),
        ..MpiConfig::dcfa()
    };
    let corrupt = Arc::new(SimCell::new(0u64));
    let corrupt2 = corrupt.clone();
    let stats = launch(&sim, &ib, &scif, cfg, N, opts, move |ctx, comm| {
        let (r, n) = (comm.rank(), comm.size());
        let next = (r + 1) % n;
        let prev = (r + n - 1) % n;
        let stx = comm.alloc(512).unwrap();
        let srx = comm.alloc(512).unwrap();
        let big = comm.alloc(64 << 10).unwrap();
        // Eager ring traffic, every payload verified.
        for i in 0..8u8 {
            let rr = comm
                .irecv(ctx, &srx, Src::Rank(prev), TagSel::Tag(10))
                .unwrap();
            comm.write(&stx, 0, &pattern(512, i));
            let sr = comm.isend(ctx, &stx, next, 10).unwrap();
            comm.wait(ctx, sr).unwrap();
            comm.wait(ctx, rr).unwrap();
            if comm.read_vec(&srx) != pattern(512, i) {
                *corrupt2.lock() += 1;
            }
        }
        // Rendezvous between pairs, both skews: 64 KiB needs an offload
        // twin from the daemon — the resource op the armed plans crash,
        // drop and delay.
        let peer = r ^ 1;
        let skew = SimDuration::from_micros(150);
        for (round, recv_late) in [true, false].into_iter().enumerate() {
            let salt = 100 + round as u8;
            if r % 2 == 0 {
                if !recv_late {
                    ctx.sleep(skew);
                }
                comm.write(&big, 0, &pattern(64 << 10, salt));
                comm.send(ctx, &big, peer, 20).unwrap();
            } else {
                if recv_late {
                    ctx.sleep(skew);
                }
                comm.recv(ctx, &big, Src::Rank(peer), TagSel::Tag(20))
                    .unwrap();
                if comm.read_vec(&big) != pattern(64 << 10, salt) {
                    *corrupt2.lock() += 1;
                }
            }
        }
    });
    sim.run_expect();

    assert_eq!(*corrupt.lock(), 0, "payloads must survive the chaos intact");

    let d = stats.expect("Phi launch spawns daemons").snapshot();
    assert!(d.daemon_crashes >= 1, "crash plan must fire: {d:?}");
    assert_eq!(
        d.daemon_crashes, d.daemon_respawns,
        "every crash must be respawned: {d:?}"
    );
    assert!(d.reattaches >= 1, "clients must re-attach: {d:?}");
    assert!(d.cmd_retries >= 1, "chaos must force retransmits: {d:?}");
    assert_eq!(d.leases_reclaimed, 0, "heartbeats keep every rank alive");

    let events = tracer.snapshot();
    let report = audit(&events).expect("auditor found invariant violations");
    assert_eq!(report.daemon_crashes, d.daemon_crashes);
    assert!(report.reattaches >= 1);
    assert_eq!(report.mr_leaked, 0);

    // Host memory only ever holds offload twins; after finalize (and
    // crash drains) every page must be back.
    for n in 0..N {
        let used = cluster.mem_used(MemRef {
            node: NodeId(n),
            domain: Domain::Host,
        });
        assert_eq!(used, 0, "node {n} leaked {used} host bytes");
    }
}

/// Degradation: a daemon whose host memory is exhausted cannot provide
/// offload twins; the rank must fall back to direct-from-Phi rendezvous
/// sends (counted, traced) instead of failing the transfer.
#[test]
fn offload_exhaustion_degrades_to_direct_sends() {
    const N: usize = 2;
    let mut sim = Simulation::new();
    // Host memory too small for a 64 KiB twin: every RegOffloadMr OOMs.
    let cluster = Cluster::new(
        sim.scheduler(),
        ClusterConfig {
            host_mem_capacity: 16 << 10,
            ..ClusterConfig::with_nodes(N)
        },
    );
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster.clone());
    let tracer = TraceBuf::new(1 << 16);
    let opts = LaunchOpts {
        tracer: Some(tracer.clone()),
        ..Default::default()
    };
    let reports = Arc::new(SimCell::new(Vec::new()));
    let reports2 = reports.clone();
    launch(
        &sim,
        &ib,
        &scif,
        MpiConfig::dcfa(),
        N,
        opts,
        move |ctx, comm| {
            let big = comm.alloc(64 << 10).unwrap();
            for i in 0..5 {
                if comm.rank() == 0 {
                    comm.write(&big, 0, &pattern(64 << 10, i as u8));
                    comm.send(ctx, &big, 1, i).unwrap();
                } else {
                    comm.recv(ctx, &big, Src::Rank(0), TagSel::Tag(i)).unwrap();
                    assert_eq!(comm.read_vec(&big), pattern(64 << 10, i as u8));
                }
            }
            if comm.rank() == 0 {
                reports2.lock().push(comm.dump());
            }
        },
    );
    sim.run_expect();

    let reports = reports.lock();
    let c = &reports[0].comm;
    assert_eq!(c.rndv_sends, 5, "all transfers must complete: {c:?}");
    assert_eq!(c.offload_syncs, 0, "no twin can exist: {c:?}");
    assert!(
        c.offload_fallbacks >= 3,
        "each failed twin attempt is a fallback: {c:?}"
    );

    let events = tracer.snapshot();
    let report = audit(&events).expect("auditor found invariant violations");
    assert_eq!(
        report.offload_degraded, 1,
        "rank 0 must degrade after repeated failures"
    );
    assert_eq!(report.mr_leaked, 0);
}
