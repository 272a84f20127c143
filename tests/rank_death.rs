//! Rank fail-stop through the full MPI stack: a kill schedule tears
//! ranks down mid-flight (QPs error, heartbeats stop), survivors detect
//! the death (heartbeat staleness or QP-error snooping) and observe
//! `PeerFailed` instead of hanging, revocation drains pending work, and
//! `shrink` agrees on a surviving-ranks sub-communicator that completes
//! a further verified exchange. Every scenario is deterministic: kills
//! trigger on MPI-operation counts, detection on simulated-time TTLs.

use std::sync::Arc;

use dcfa_mpi_repro::dcfa_mpi::{
    audit, launch, CommStats, Communicator, KillSpec, LaunchOpts, MpiConfig, MpiError, Src, TagSel,
    TraceBuf,
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

/// Per-rank outcome a test closure records on its way out. Killed ranks
/// never reach the recording line and stay `None`.
#[derive(Clone, Debug, Default)]
struct RankOut {
    stats: CommStats,
    mr_pinned: usize,
    sub_size: usize,
    corrupt: u64,
    saw_peer_failed: bool,
}

/// Detection without recovery: rank 3 fail-stops mid-run. A pending
/// receive sourced from the corpse resolves with `PeerFailed` (heartbeat
/// TTL detection), sends toward it fail instead of wedging on credits
/// (QP-error snooping), survivor-to-survivor traffic keeps working, and
/// finalize completes without the dead rank.
#[test]
fn killed_rank_is_detected_and_survivors_finish() {
    const N: usize = 4;
    const LEN: usize = 512;
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(N));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster.clone());
    let tracer = TraceBuf::new(1 << 16);
    let opts = LaunchOpts {
        tracer: Some(tracer.clone()),
        // Rank 3 dies as it enters its third MPI operation: after one
        // send to rank 0 and one to rank 1.
        kills: vec![KillSpec {
            rank: 3,
            after_ops: 3,
        }],
        ..Default::default()
    };
    let cfg = MpiConfig {
        peer_ttl: Some(SimDuration::from_micros(50)),
        ..MpiConfig::dcfa()
    };
    let outs: Arc<SimCell<Vec<Option<RankOut>>>> = Arc::new(SimCell::new(vec![None; N]));
    let outs2 = outs.clone();
    launch(&sim, &ib, &scif, cfg, N, opts, move |ctx, comm| {
        let r = comm.rank();
        let buf = comm.alloc(LEN as u64).unwrap();
        let mut out = RankOut::default();
        match r {
            3 => {
                // Two farewell messages, then death at the third op.
                comm.write(&buf, 0, &pattern(LEN, 3));
                comm.send(ctx, &buf, 0, 7).unwrap();
                comm.send(ctx, &buf, 1, 7).unwrap();
                loop {
                    let _ = comm.send(ctx, &buf, 0, 7);
                }
            }
            0 => {
                comm.recv(ctx, &buf, Src::Rank(3), TagSel::Tag(7)).unwrap();
                if comm.read_vec(&buf) != pattern(LEN, 3) {
                    out.corrupt += 1;
                }
                // A receive the dead rank will never satisfy: must fail
                // with PeerFailed once the TTL promotes rank 3, not hang.
                let req = comm
                    .irecv(ctx, &buf, Src::Rank(3), TagSel::Tag(99))
                    .unwrap();
                match comm.wait(ctx, req) {
                    Err(MpiError::PeerFailed(3)) => out.saw_peer_failed = true,
                    other => panic!("pending recv from corpse resolved as {other:?}"),
                }
            }
            1 => {
                comm.recv(ctx, &buf, Src::Rank(3), TagSel::Tag(7)).unwrap();
                if comm.read_vec(&buf) != pattern(LEN, 3) {
                    out.corrupt += 1;
                }
                // Sends toward the corpse must fail finitely (flush
                // completions on the errored QP, then entry checks).
                for _ in 0..10_000 {
                    match comm.send(ctx, &buf, 3, 5) {
                        Ok(()) => {}
                        Err(MpiError::PeerFailed(3)) => {
                            out.saw_peer_failed = true;
                            break;
                        }
                        Err(e) => panic!("send to corpse failed oddly: {e:?}"),
                    }
                }
                assert!(out.saw_peer_failed, "sends to a dead peer never failed");
                // Survivor-to-survivor traffic still works after the death.
                comm.write(&buf, 0, &pattern(LEN, 1));
                comm.send(ctx, &buf, 2, 6).unwrap();
                comm.recv(ctx, &buf, Src::Rank(2), TagSel::Tag(6)).unwrap();
                if comm.read_vec(&buf) != pattern(LEN, 2) {
                    out.corrupt += 1;
                }
            }
            _ => {
                comm.recv(ctx, &buf, Src::Rank(1), TagSel::Tag(6)).unwrap();
                if comm.read_vec(&buf) != pattern(LEN, 1) {
                    out.corrupt += 1;
                }
                comm.write(&buf, 0, &pattern(LEN, 2));
                comm.send(ctx, &buf, 1, 6).unwrap();
            }
        }
        comm.free(&buf);
        out.stats = comm.stats();
        out.mr_pinned = comm.mr_pinned_len();
        outs2.lock()[r] = Some(out);
    });
    sim.run_expect();

    let outs = outs.lock();
    assert!(outs[3].is_none(), "the killed rank must not finish");
    for r in [0usize, 1, 2] {
        let o = outs[r].as_ref().unwrap_or_else(|| panic!("rank {r} hung"));
        assert_eq!(o.corrupt, 0, "rank {r} saw corrupt payloads");
        assert_eq!(o.mr_pinned, 0, "rank {r} left MR leases pinned");
    }
    assert!(outs[0].as_ref().unwrap().saw_peer_failed);
    assert!(outs[1].as_ref().unwrap().saw_peer_failed);
    let deaths: u64 = outs
        .iter()
        .flatten()
        .map(|o| o.stats.peer_deaths_detected)
        .sum();
    assert!(deaths >= 2, "ranks 0 and 1 both reap the corpse: {deaths}");
    let report = audit(&tracer.snapshot()).expect("auditor found invariant violations");
    assert_eq!(report.ranks_killed, 1);
    assert!(report.peers_reaped >= 2, "reaps: {}", report.peers_reaped);
    // Host memory holds only offload twins; survivors' nodes must have
    // returned every page at finalize. (Node 3 keeps whatever the corpse
    // held — its "process" died without cleanup, by design.)
    for node in 0..3 {
        let used = cluster.mem_used(MemRef {
            node: NodeId(node),
            domain: Domain::Host,
        });
        assert_eq!(used, 0, "node {node} leaked {used} host bytes");
    }
}

/// The full ULFM cycle: a death mid-ring surfaces as `PeerFailed`, the
/// observers revoke (two ranks revoke concurrently — the flood must be
/// idempotent), every parked receive drains with an error, `shrink`
/// agrees on the 4 survivors, and a further verified exchange runs on
/// the shrunk communicator with renumbered ranks.
#[test]
fn revoke_drains_and_shrink_rebuilds_the_world() {
    const N: usize = 5;
    const LEN: usize = 256;
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(N));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster.clone());
    let tracer = TraceBuf::new(1 << 16);
    let opts = LaunchOpts {
        tracer: Some(tracer.clone()),
        // Park recv (1), ring iter 1 send+recv (2, 3), death entering
        // the second iteration's send (4).
        kills: vec![KillSpec {
            rank: 2,
            after_ops: 4,
        }],
        ..Default::default()
    };
    let cfg = MpiConfig {
        peer_ttl: Some(SimDuration::from_micros(50)),
        ..MpiConfig::dcfa()
    };
    let outs: Arc<SimCell<Vec<Option<RankOut>>>> = Arc::new(SimCell::new(vec![None; N]));
    let outs2 = outs.clone();
    launch(&sim, &ib, &scif, cfg, N, opts, move |ctx, comm| {
        let (r, n) = (comm.rank(), comm.size());
        let next = (r + 1) % n;
        let prev = (r + n - 1) % n;
        let stx = comm.alloc(LEN as u64).unwrap();
        let srx = comm.alloc(LEN as u64).unwrap();
        let pbuf = comm.alloc(64).unwrap();
        let mut out = RankOut::default();
        // Parked receive: drained by the revocation (or by the source's
        // death), releasing every rank from the ring no matter where the
        // failure interrupted it.
        let park = comm
            .irecv(ctx, &pbuf, Src::Rank(next), TagSel::Tag(777))
            .unwrap();
        let mut failed = false;
        for iter in 0..6u8 {
            comm.write(&stx, 0, &pattern(LEN, (r as u8) ^ iter));
            let mut errs: Vec<MpiError> = Vec::new();
            let sr = comm.isend(ctx, &stx, next, 7);
            let rr = comm.irecv(ctx, &srx, Src::Rank(prev), TagSel::Tag(7));
            let mut done = 0;
            for q in [sr, rr] {
                match q {
                    Ok(q) => match comm.wait(ctx, q) {
                        Ok(_) => done += 1,
                        Err(e) => errs.push(e),
                    },
                    Err(e) => errs.push(e),
                }
            }
            if done == 2 && comm.read_vec(&srx) != pattern(LEN, (prev as u8) ^ iter) {
                out.corrupt += 1;
            }
            // A rank can see both errors in one iteration (its send
            // drained by a neighbour's revoke, its recv reaped by the
            // death): any PeerFailed counts as having seen the corpse.
            for e in &errs {
                match e {
                    MpiError::PeerFailed(p) => {
                        assert_eq!(*p, 2, "only rank 2 dies");
                        out.saw_peer_failed = true;
                    }
                    MpiError::Revoked => {}
                    other => panic!("rank {r} saw unexpected error {other:?}"),
                }
            }
            if !errs.is_empty() {
                failed = true;
                break;
            }
        }
        assert!(
            failed || r == 0 || r == 4,
            "ring neighbours must observe the death"
        );
        // Rank 1's send WR flushes on the corpse's errored QP, so it is
        // guaranteed to see PeerFailed and revoke. Rank 3 revokes on
        // whatever error released it — two concurrent revocations, so
        // the flood must be idempotent (and must spare the subsequent
        // shrink agreement's own traffic).
        if out.saw_peer_failed || (r == 3 && failed) {
            comm.revoke(ctx);
        }
        let park_res = comm.wait(ctx, park);
        assert!(
            park_res.is_err(),
            "parked recv must drain with an error, got {park_res:?}"
        );
        {
            let mut sub = comm.shrink(ctx).expect("survivor must shrink");
            out.sub_size = sub.size();
            let (sr, sn) = (sub.rank(), sub.size());
            let snext = (sr + 1) % sn;
            let sprev = (sr + sn - 1) % sn;
            for iter in 0..3u8 {
                sub.cluster()
                    .write(&stx, 0, &pattern(LEN, 0x40 ^ (sr as u8) ^ iter));
                sub.sendrecv(ctx, &stx, snext, &srx, sprev, 5).unwrap();
                if sub.cluster().read_vec(&srx) != pattern(LEN, 0x40 ^ (sprev as u8) ^ iter) {
                    out.corrupt += 1;
                }
            }
        }
        comm.free(&stx);
        comm.free(&srx);
        comm.free(&pbuf);
        out.stats = comm.stats();
        out.mr_pinned = comm.mr_pinned_len();
        outs2.lock()[r] = Some(out);
    });
    sim.run_expect();

    let outs = outs.lock();
    assert!(outs[2].is_none(), "the killed rank must not finish");
    for r in [0usize, 1, 3, 4] {
        let o = outs[r].as_ref().unwrap_or_else(|| panic!("rank {r} hung"));
        assert_eq!(o.corrupt, 0, "rank {r} saw corrupt payloads");
        assert_eq!(o.sub_size, 4, "rank {r} shrank to the wrong world");
        assert_eq!(o.mr_pinned, 0, "rank {r} left MR leases pinned");
        assert!(
            o.stats.revokes_observed >= 1,
            "rank {r} never observed the revocation"
        );
    }
    // The corpse's upstream neighbour saw PeerFailed (flush snoop).
    assert!(outs[1].as_ref().unwrap().saw_peer_failed);
    let sum =
        |f: fn(&CommStats) -> u64| -> u64 { outs.iter().flatten().map(|o| f(&o.stats)).sum() };
    assert_eq!(
        sum(|s| s.peer_deaths_detected),
        4,
        "4 survivors reap 1 corpse"
    );
    assert!(
        sum(|s| s.reqs_revoked) >= 1,
        "no request drained as Revoked"
    );
    assert!(
        sum(|s| s.dead_reclaimed) >= 1,
        "nothing reclaimed from the corpse"
    );
    let report = audit(&tracer.snapshot()).expect("auditor found invariant violations");
    assert_eq!(report.ranks_killed, 1);
    assert_eq!(report.peers_reaped, 4);
    assert!(report.revokes_observed >= 4);
    assert_eq!(
        report.shrink_commits, 4,
        "every survivor commits the shrink"
    );
}

/// A participant dies *inside* the shrink agreement: rank 4 dies idle
/// (pure heartbeat detection — its QPs never carried traffic), rank 3
/// revokes and then dies posting its agreement report. The remaining
/// ranks must restart the agreement at the new death epoch and commit a
/// 3-rank world.
#[test]
fn death_mid_agreement_restarts_and_commits() {
    const N: usize = 5;
    const LEN: usize = 128;
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(N));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster.clone());
    let tracer = TraceBuf::new(1 << 16);
    let opts = LaunchOpts {
        tracer: Some(tracer.clone()),
        kills: vec![
            // Dies entering its second op: right after parking, before
            // any data ever flows — only heartbeats can expose it.
            KillSpec {
                rank: 4,
                after_ops: 2,
            },
            // Park (1), then the shrink agreement's report send (2):
            // death lands in the middle of the agreement.
            KillSpec {
                rank: 3,
                after_ops: 2,
            },
        ],
        ..Default::default()
    };
    let cfg = MpiConfig {
        peer_ttl: Some(SimDuration::from_micros(50)),
        ..MpiConfig::dcfa()
    };
    let outs: Arc<SimCell<Vec<Option<RankOut>>>> = Arc::new(SimCell::new(vec![None; N]));
    let outs2 = outs.clone();
    launch(&sim, &ib, &scif, cfg, N, opts, move |ctx, comm| {
        let (r, n) = (comm.rank(), comm.size());
        let next = (r + 1) % n;
        let pbuf = comm.alloc(64).unwrap();
        let mut out = RankOut::default();
        let park = comm
            .irecv(ctx, &pbuf, Src::Rank(next), TagSel::Tag(777))
            .unwrap();
        if r == 4 {
            // Dies entering this send; nothing reaches the wire.
            let _ = comm.send(ctx, &pbuf, 0, 50);
            unreachable!("rank 4 is killed at its second operation");
        }
        let park_res = comm.wait(ctx, park);
        assert!(park_res.is_err(), "park must drain, got {park_res:?}");
        if r == 3 {
            // Saw PeerFailed(4) from the park (heartbeat detection),
            // revokes, then dies posting its agreement report.
            assert!(matches!(park_res, Err(MpiError::PeerFailed(4))));
            comm.revoke(ctx);
            let _ = comm.shrink(ctx);
            unreachable!("rank 3 is killed inside the agreement");
        }
        let stx = comm.alloc(LEN as u64).unwrap();
        let srx = comm.alloc(LEN as u64).unwrap();
        {
            let mut sub = comm.shrink(ctx).expect("survivor must shrink");
            out.sub_size = sub.size();
            let (sr, sn) = (sub.rank(), sub.size());
            let snext = (sr + 1) % sn;
            let sprev = (sr + sn - 1) % sn;
            sub.cluster().write(&stx, 0, &pattern(LEN, 0x20 ^ sr as u8));
            sub.sendrecv(ctx, &stx, snext, &srx, sprev, 5).unwrap();
            if sub.cluster().read_vec(&srx) != pattern(LEN, 0x20 ^ sprev as u8) {
                out.corrupt += 1;
            }
        }
        comm.free(&stx);
        comm.free(&srx);
        comm.free(&pbuf);
        out.stats = comm.stats();
        out.mr_pinned = comm.mr_pinned_len();
        outs2.lock()[r] = Some(out);
    });
    sim.run_expect();

    let outs = outs.lock();
    assert!(outs[3].is_none() && outs[4].is_none());
    for r in [0usize, 1, 2] {
        let o = outs[r].as_ref().unwrap_or_else(|| panic!("rank {r} hung"));
        assert_eq!(o.corrupt, 0, "rank {r} saw corrupt payloads");
        assert_eq!(o.sub_size, 3, "rank {r} shrank to the wrong world");
        assert_eq!(o.mr_pinned, 0, "rank {r} left MR leases pinned");
        assert!(
            o.stats.agreement_restarts >= 1,
            "rank {r} never restarted the agreement: {:?}",
            o.stats.agreement_restarts
        );
    }
    let report = audit(&tracer.snapshot()).expect("auditor found invariant violations");
    assert_eq!(report.ranks_killed, 2);
    assert_eq!(report.shrink_commits, 3, "the 3 survivors commit once each");
}

/// Lazy-connect REQ/ACK frames are lost: the handshake watchdog must
/// re-issue them through the timer heap and the transfer still complete.
/// Dropping the first two directory frames covers both the initiator's
/// REQ and the passive side's ACK (or a cross-connect's two REQs).
#[test]
fn dropped_connect_handshake_is_retried() {
    const LEN: usize = 1024;
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(2));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster.clone());
    let tracer = TraceBuf::new(1 << 14);
    let opts = LaunchOpts {
        tracer: Some(tracer.clone()),
        conn_drops: Some((0, 2)),
        ..Default::default()
    };
    let outs: Arc<SimCell<Vec<Option<RankOut>>>> = Arc::new(SimCell::new(vec![None; 2]));
    let outs2 = outs.clone();
    launch(
        &sim,
        &ib,
        &scif,
        MpiConfig::dcfa(),
        2,
        opts,
        move |ctx, comm| {
            let r = comm.rank();
            let buf = comm.alloc(LEN as u64).unwrap();
            let mut out = RankOut::default();
            if r == 0 {
                comm.write(&buf, 0, &pattern(LEN, 0xA5));
                comm.send(ctx, &buf, 1, 3).unwrap();
                comm.recv(ctx, &buf, Src::Rank(1), TagSel::Tag(4)).unwrap();
                if comm.read_vec(&buf) != pattern(LEN, 0x5A) {
                    out.corrupt += 1;
                }
            } else {
                comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(3)).unwrap();
                if comm.read_vec(&buf) != pattern(LEN, 0xA5) {
                    out.corrupt += 1;
                }
                comm.write(&buf, 0, &pattern(LEN, 0x5A));
                comm.send(ctx, &buf, 0, 4).unwrap();
            }
            comm.free(&buf);
            out.stats = comm.stats();
            outs2.lock()[r] = Some(out);
        },
    );
    sim.run_expect();

    let outs = outs.lock();
    let retries: u64 = outs.iter().flatten().map(|o| o.stats.conn_retries).sum();
    assert!(
        retries >= 1,
        "dropped handshake frames were never re-issued"
    );
    for o in outs.iter().flatten() {
        assert_eq!(o.corrupt, 0, "payload corrupted across the retried connect");
    }
    let report = audit(&tracer.snapshot()).expect("auditor found invariant violations");
    assert!(report.conn_retries >= 1);
    for node in 0..2 {
        let used = cluster.mem_used(MemRef {
            node: NodeId(node),
            domain: Domain::Host,
        });
        assert_eq!(used, 0, "node {node} leaked {used} host bytes");
    }
}

/// A blocking probe must not outlive the peer it names or the
/// communicator it runs on: `probe` used to re-check only the unexpected
/// queue — which the reap/drain has just emptied — and park again
/// forever. Rank 2 dies after one farewell; rank 0 is already parked in
/// a probe toward it when the TTL promotes the corpse, rank 1 probes a
/// millisecond after the verdict, and both see `PeerFailed(2)`. Rank 1
/// then revokes while rank 0 sits in an any-source probe, which ends
/// with `Revoked` like a probe issued after the revocation does.
#[test]
fn probe_fails_for_a_dead_peer_and_a_revoked_communicator() {
    const N: usize = 3;
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(N));
    let ib = IbFabric::new(cluster.clone());
    let scif = ScifFabric::new(cluster);
    let opts = LaunchOpts {
        kills: vec![KillSpec {
            rank: 2,
            after_ops: 2,
        }],
        ..Default::default()
    };
    let cfg = MpiConfig {
        peer_ttl: Some(SimDuration::from_micros(50)),
        ..MpiConfig::dcfa()
    };
    let seen: Arc<SimCell<Vec<Vec<MpiError>>>> = Arc::new(SimCell::new(vec![Vec::new(); N]));
    let seen2 = seen.clone();
    launch(&sim, &ib, &scif, cfg, N, opts, move |ctx, comm| {
        let r = comm.rank();
        let buf = comm.alloc(64).unwrap();
        let mut errs = Vec::new();
        match r {
            2 => loop {
                let _ = comm.send(ctx, &buf, 0, 7);
            },
            0 => {
                comm.recv(ctx, &buf, Src::Rank(2), TagSel::Tag(7)).unwrap();
                // Parked before the verdict; the reap wakes it.
                errs.push(comm.probe(ctx, Src::Rank(2), TagSel::Tag(99)).unwrap_err());
                // Parked before the revocation; the drain wakes it.
                errs.push(comm.probe(ctx, Src::Any, TagSel::Tag(5)).unwrap_err());
            }
            _ => {
                ctx.sleep(SimDuration::from_millis(1));
                // Issued after the verdict: refused at entry.
                errs.push(comm.probe(ctx, Src::Rank(2), TagSel::Any).unwrap_err());
                comm.revoke(ctx);
                errs.push(comm.probe(ctx, Src::Rank(0), TagSel::Tag(5)).unwrap_err());
            }
        }
        comm.free(&buf);
        seen2.lock()[r] = errs;
    });
    sim.run_expect();
    let seen = seen.lock();
    for r in [0, 1] {
        assert_eq!(
            seen[r],
            [MpiError::PeerFailed(2), MpiError::Revoked],
            "rank {r}"
        );
    }
}
