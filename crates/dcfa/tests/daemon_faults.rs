//! Control-plane fault tolerance: daemon crashes mid-command, dropped and
//! delayed replies, lease reclamation of dead clients, and journal-replay
//! re-attach must all heal without leaking host pages or reusing MR keys.

use std::sync::Arc;

use dcfa::{
    spawn_daemons_with, CtrlEvent, DaemonConfig, DaemonFault, DaemonFaultKind, DcfaConfig,
    DcfaContext, DcfaStats,
};
use fabric::{Cluster, ClusterConfig, Domain, MemRef, NodeId};
use proptest::prelude::*;
use simcore::{SimCell, SimDuration, Simulation};
use verbs::IbFabric;

struct Rig {
    sim: Simulation,
    ib: Arc<IbFabric>,
    scif: Arc<scif::ScifFabric>,
    stats: DcfaStats,
    events: Arc<SimCell<Vec<CtrlEvent>>>,
}

fn rig_with(nodes: usize, mut dcfg: DaemonConfig) -> Rig {
    let sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(nodes));
    let ib = IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster);
    let events: Arc<SimCell<Vec<CtrlEvent>>> = Arc::new(SimCell::new(Vec::new()));
    let sink = events.clone();
    dcfg.hook = Some(Arc::new(move |ev| sink.lock().push(*ev)));
    let stats = spawn_daemons_with(&sim.scheduler(), &scif, &ib, dcfg);
    Rig {
        sim,
        ib,
        scif,
        stats,
        events,
    }
}

fn client_cfg(r: &Rig) -> DcfaConfig {
    DcfaConfig {
        stats: r.stats.clone(),
        hook: Some({
            let sink = r.events.clone();
            Arc::new(move |ev| sink.lock().push(*ev))
        }),
        ..DcfaConfig::default()
    }
}

fn phi(n: usize) -> MemRef {
    MemRef {
        node: NodeId(n),
        domain: Domain::Phi,
    }
}

fn host(n: usize) -> MemRef {
    MemRef {
        node: NodeId(n),
        domain: Domain::Host,
    }
}

fn crash_after(n: u64) -> DaemonFault {
    DaemonFault {
        after_cmds: n,
        kind: DaemonFaultKind::Crash,
        node: None,
    }
}

// ---- deterministic replays -------------------------------------------------

#[test]
fn crash_mid_reg_mr_retries_through_respawn() {
    // The daemon dies on the client's first RegMr (command #2, after the
    // hello). The client must ride retransmit timeouts into a reconnect,
    // re-greet the respawned incarnation and land the registration.
    let mut r = rig_with(
        1,
        DaemonConfig {
            faults: vec![crash_after(1)],
            ..DaemonConfig::default()
        },
    );
    let (ib, scif, cfg) = (r.ib.clone(), r.scif.clone(), client_cfg(&r));
    r.sim.spawn("rank0", move |ctx| {
        let cl = ib.cluster().clone();
        let d = DcfaContext::open_with(ctx, &ib, &scif, NodeId(0), cfg).unwrap();
        let buf = cl.alloc_pages(phi(0), 4096).unwrap();
        let mr = d.reg_mr(ctx, buf).unwrap();
        assert!(ib.mr_handle(mr.key()).is_some());
        assert_eq!(d.ctrl_epoch(), 1, "exactly one re-attach");
        d.close(ctx);
    });
    r.sim.run_expect();
    let c = r.stats.snapshot();
    assert_eq!(c.daemon_crashes, 1);
    assert_eq!(c.daemon_respawns, 1);
    assert!(c.cmd_timeouts >= 1, "{c:?}");
    assert!(c.cmd_retries >= 1, "{c:?}");
    assert_eq!(c.reattaches, 1);
    assert_eq!(c.mr_registered, 1, "crash fired before execution: {c:?}");
    let evs = r.events.lock();
    assert!(evs
        .iter()
        .any(|e| matches!(e, CtrlEvent::DaemonCrash { .. })));
    assert!(evs
        .iter()
        .any(|e| matches!(e, CtrlEvent::DaemonRespawn { .. })));
}

#[test]
fn dropped_reply_is_answered_from_dedup_cache() {
    // The RegOffloadMr executes but its reply is lost. The retransmission
    // must be served from the reply cache — exactly one twin allocated,
    // no duplicate registration.
    let mut r = rig_with(
        1,
        DaemonConfig {
            faults: vec![DaemonFault {
                after_cmds: 1,
                kind: DaemonFaultKind::DropReply,
                node: None,
            }],
            ..DaemonConfig::default()
        },
    );
    let (ib, scif, cfg) = (r.ib.clone(), r.scif.clone(), client_cfg(&r));
    r.sim.spawn("rank0", move |ctx| {
        let cl = ib.cluster().clone();
        let used0 = cl.mem_used(host(0));
        let d = DcfaContext::open_with(ctx, &ib, &scif, NodeId(0), cfg).unwrap();
        let buf = cl.alloc_pages(phi(0), 16 << 10).unwrap();
        let omr = d.reg_offload_mr(ctx, &buf).unwrap();
        assert_eq!(cl.mem_used(host(0)), used0 + (16 << 10), "one twin only");
        d.dereg_offload_mr(ctx, omr).unwrap();
        assert_eq!(cl.mem_used(host(0)), used0);
        d.close(ctx);
    });
    r.sim.run_expect();
    let c = r.stats.snapshot();
    assert_eq!(c.offload_registered, 1, "{c:?}");
    assert_eq!(c.offload_deregistered, 1, "{c:?}");
    assert!(c.reply_replays >= 1, "{c:?}");
    assert_eq!(c.reattaches, 0, "dedup must heal this without re-attach");
    assert!(r
        .events
        .lock()
        .iter()
        .any(|e| matches!(e, CtrlEvent::ReplyReplayed { .. })));
}

#[test]
fn delayed_reply_heals_without_duplicate_execution() {
    // The reply is held past the client timeout; whether the client rides
    // a retransmit or a full reconnect, the command must execute once.
    let mut r = rig_with(
        1,
        DaemonConfig {
            faults: vec![DaemonFault {
                after_cmds: 1,
                kind: DaemonFaultKind::DelayReply,
                node: None,
            }],
            ..DaemonConfig::default()
        },
    );
    let (ib, scif, cfg) = (r.ib.clone(), r.scif.clone(), client_cfg(&r));
    r.sim.spawn("rank0", move |ctx| {
        let cl = ib.cluster().clone();
        let d = DcfaContext::open_with(ctx, &ib, &scif, NodeId(0), cfg).unwrap();
        let buf = cl.alloc_pages(phi(0), 4096).unwrap();
        let mr = d.reg_mr(ctx, buf).unwrap();
        assert!(ib.mr_handle(mr.key()).is_some());
        d.dereg_mr(ctx, &mr).unwrap();
        d.close(ctx);
    });
    r.sim.run_expect();
    let c = r.stats.snapshot();
    assert_eq!(c.mr_registered, 1, "{c:?}");
    assert_eq!(c.mr_deregistered, 1, "{c:?}");
    assert!(c.cmd_timeouts >= 1, "{c:?}");
}

#[test]
fn respawn_then_reattach_replays_full_journal() {
    // Build up a journal (two MRs, a CQ, a QP = 4 entries), then crash the
    // daemon on the next command. The re-attach must re-establish every
    // journaled resource: plain MRs survive on the HCA and are re-adopted.
    let mut r = rig_with(
        1,
        DaemonConfig {
            faults: vec![crash_after(5)],
            ..DaemonConfig::default()
        },
    );
    let (ib, scif, cfg) = (r.ib.clone(), r.scif.clone(), client_cfg(&r));
    let ib2 = r.ib.clone();
    r.sim.spawn("rank0", move |ctx| {
        let cl = ib.cluster().clone();
        let d = DcfaContext::open_with(ctx, &ib, &scif, NodeId(0), cfg).unwrap();
        let b1 = cl.alloc_pages(phi(0), 4096).unwrap();
        let b2 = cl.alloc_pages(phi(0), 8192).unwrap();
        let mr1 = d.reg_mr(ctx, b1).unwrap(); // cmd 2
        let mr2 = d.reg_mr(ctx, b2).unwrap(); // cmd 3
        let cq = d.create_cq(ctx).unwrap(); // cmd 4
        let _qp = d.create_qp(ctx, &cq, &cq).unwrap(); // cmd 5
                                                       // Command 6 hits the crash; the journal (mr1, mr2, cq, qp) must be
                                                       // replayed against the respawned incarnation before it completes.
        let b3 = cl.alloc_pages(phi(0), 4096).unwrap();
        let mr3 = d.reg_mr(ctx, b3).unwrap();
        assert_eq!(d.ctrl_epoch(), 1);
        // Pre-crash keys stayed live on the HCA through the crash, so
        // rkeys already published to peers keep working.
        assert!(ib2.mr_handle(mr1.key()).is_some());
        assert!(ib2.mr_handle(mr2.key()).is_some());
        assert_ne!(mr3.key(), mr1.key());
        assert_ne!(mr3.key(), mr2.key());
        // Adopted metadata is functional: dereg through the new daemon.
        d.dereg_mr(ctx, &mr1).unwrap();
        d.dereg_mr(ctx, &mr2).unwrap();
        d.close(ctx);
    });
    r.sim.run_expect();
    let c = r.stats.snapshot();
    assert_eq!(c.daemon_crashes, 1);
    assert_eq!(c.daemon_respawns, 1);
    assert_eq!(c.reattaches, 1);
    assert_eq!(c.mrs_adopted, 2, "{c:?}");
    let evs = r.events.lock();
    let reattach = evs
        .iter()
        .find_map(|e| match e {
            CtrlEvent::Reattach {
                journaled,
                replayed,
                ..
            } => Some((*journaled, *replayed)),
            _ => None,
        })
        .expect("re-attach event");
    assert_eq!(reattach, (4, 4), "every journaled resource re-established");
}

#[test]
fn abrupt_client_death_is_reclaimed_without_leaks() {
    // A client registers resources (including a host twin) and vanishes
    // without Bye or heartbeats. The lease reaper must drain its session:
    // host pages back to baseline, alloc/free balanced.
    let mut r = rig_with(
        1,
        DaemonConfig {
            lease_ttl: Some(SimDuration::from_micros(300)),
            reaper_period: SimDuration::from_micros(100),
            ..DaemonConfig::default()
        },
    );
    let (ib, scif, cfg) = (r.ib.clone(), r.scif.clone(), client_cfg(&r));
    let stats = r.stats.clone();
    r.sim.spawn("doomed", move |ctx| {
        let cl = ib.cluster().clone();
        let used0 = cl.mem_used(host(0));
        let d = DcfaContext::open_with(ctx, &ib, &scif, NodeId(0), cfg).unwrap();
        let b = cl.alloc_pages(phi(0), 4096).unwrap();
        let _mr = d.reg_mr(ctx, b.clone()).unwrap();
        let _omr = d.reg_offload_mr(ctx, &b).unwrap();
        assert!(cl.mem_used(host(0)) > used0);
        // Die abruptly: no Bye, no close. The daemon must notice via the
        // expired lease. An observer checks after the TTL.
        let cl2 = cl.clone();
        let stats2 = stats.clone();
        ctx.spawn("observer", move |octx| {
            octx.sleep(SimDuration::from_micros(2000));
            let c = stats2.snapshot();
            assert!(c.leases_reclaimed >= 1, "{c:?}");
            assert_eq!(c.mr_registered, c.mr_deregistered, "{c:?}");
            assert_eq!(c.offload_registered, c.offload_deregistered, "{c:?}");
            assert_eq!(cl2.mem_used(host(0)), used0, "host twin pages leaked");
        });
    });
    r.sim.run_expect();
    assert!(r
        .events
        .lock()
        .iter()
        .any(|e| matches!(e, CtrlEvent::LeaseReclaim { objects: 2, .. })));
}

#[test]
fn heartbeats_keep_an_idle_client_alive() {
    // With the lease TTL shorter than the client's quiet period, only the
    // heartbeat sidecar keeps the session from being reaped.
    let mut r = rig_with(
        1,
        DaemonConfig {
            lease_ttl: Some(SimDuration::from_micros(300)),
            reaper_period: SimDuration::from_micros(100),
            ..DaemonConfig::default()
        },
    );
    let (ib, scif) = (r.ib.clone(), r.scif.clone());
    let cfg = DcfaConfig {
        heartbeat_interval: Some(SimDuration::from_micros(100)),
        ..client_cfg(&r)
    };
    r.sim.spawn("idle", move |ctx| {
        let cl = ib.cluster().clone();
        let d = DcfaContext::open_with(ctx, &ib, &scif, NodeId(0), cfg).unwrap();
        ctx.sleep(SimDuration::from_micros(2000)); // way past the TTL
        let b = cl.alloc_pages(phi(0), 4096).unwrap();
        let mr = d.reg_mr(ctx, b).unwrap();
        d.dereg_mr(ctx, &mr).unwrap();
        d.close(ctx);
    });
    r.sim.run_expect();
    let c = r.stats.snapshot();
    assert_eq!(c.leases_reclaimed, 0, "{c:?}");
    assert_eq!(c.reattaches, 0, "{c:?}");
    assert!(c.heartbeats >= 10, "{c:?}");
}

#[test]
fn dereg_offload_of_reclaimed_twin_is_a_noop_ok() {
    // Crash reclaims all twins. A later dereg of the stale key must be an
    // idempotent Ok, and must not double-free host pages.
    let mut r = rig_with(
        1,
        DaemonConfig {
            faults: vec![crash_after(2)],
            ..DaemonConfig::default()
        },
    );
    let (ib, scif, cfg) = (r.ib.clone(), r.scif.clone(), client_cfg(&r));
    r.sim.spawn("rank0", move |ctx| {
        let cl = ib.cluster().clone();
        let used0 = cl.mem_used(host(0));
        let d = DcfaContext::open_with(ctx, &ib, &scif, NodeId(0), cfg).unwrap();
        let b = cl.alloc_pages(phi(0), 4096).unwrap();
        let omr = d.reg_offload_mr(ctx, &b).unwrap(); // cmd 2
                                                      // Command 3 crashes the daemon: its drain frees the twin.
        let b2 = cl.alloc_pages(phi(0), 4096).unwrap();
        let _mr = d.reg_mr(ctx, b2).unwrap();
        assert_eq!(cl.mem_used(host(0)), used0, "crash drain freed the twin");
        // The stale key tears down cleanly.
        d.dereg_offload_mr(ctx, omr).unwrap();
        assert_eq!(cl.mem_used(host(0)), used0);
        d.close(ctx);
    });
    r.sim.run_expect();
    let c = r.stats.snapshot();
    assert_eq!(c.offload_registered, 1, "{c:?}");
    assert_eq!(c.offload_deregistered, 1, "freed once, by the crash drain");
}

#[test]
fn two_clients_survive_a_shared_daemon_crash() {
    // Both clients of one node daemon lose their sessions in the same
    // crash; both must re-attach independently and finish their work.
    let mut r = rig_with(
        1,
        DaemonConfig {
            faults: vec![crash_after(5)],
            ..DaemonConfig::default()
        },
    );
    for i in 0..2 {
        let (ib, scif, cfg) = (r.ib.clone(), r.scif.clone(), client_cfg(&r));
        r.sim.spawn(format!("rank{i}"), move |ctx| {
            let cl = ib.cluster().clone();
            let d = DcfaContext::open_with(ctx, &ib, &scif, NodeId(0), cfg).unwrap();
            let mut keys = Vec::new();
            for _ in 0..4 {
                let b = cl.alloc_pages(phi(0), 4096).unwrap();
                let mr = d.reg_mr(ctx, b).unwrap();
                keys.push(mr.key().0);
                d.dereg_mr(ctx, &mr).unwrap();
            }
            keys.dedup();
            assert_eq!(keys.len(), 4, "duplicate MR keys handed out");
            d.close(ctx);
        });
    }
    r.sim.run_expect();
    let c = r.stats.snapshot();
    assert_eq!(c.daemon_crashes, 1);
    assert_eq!(c.daemon_respawns, 1);
    assert!(c.reattaches >= 1, "{c:?}");
}

#[test]
fn a_crashed_incarnation_does_not_answer_the_command_it_was_serving() {
    // Two clients, one node. B's 1 MiB RegMr is in its registration charge
    // (15.5 us) when A's command trips the crash plan. The delegation
    // process is dead: B's command gets no reply — not the NO_SESSION a
    // handler that outlived its incarnation used to send, stamped with the
    // dead epoch — and nothing is registered for it. B times out,
    // re-attaches, replays its journal and registers against the new
    // incarnation.
    let mut r = rig_with(
        1,
        DaemonConfig {
            // Hello, Hello, B's first RegMr, B's 1 MiB RegMr; then A's.
            faults: vec![crash_after(4)],
            ..DaemonConfig::default()
        },
    );
    let big_seq = Arc::new(SimCell::new(None));
    let (ib, scif, cfg) = (r.ib.clone(), r.scif.clone(), client_cfg(&r));
    r.sim.spawn("a", move |ctx| {
        let cl = ib.cluster().clone();
        let d = DcfaContext::open_with(ctx, &ib, &scif, NodeId(0), cfg).unwrap();
        // B's big registration is in its charge from 79.9 to 95.4 us; a
        // command issued now reaches its fault tick 9.4 us later.
        ctx.sleep(SimDuration::from_micros(78) - ctx.now().since(simcore::SimTime::ZERO));
        let mr = d
            .reg_mr(ctx, cl.alloc_pages(phi(0), 4096).unwrap())
            .unwrap();
        assert_eq!(d.ctrl_epoch(), 1);
        d.dereg_mr(ctx, &mr).unwrap();
        d.close(ctx);
    });
    let (ib, scif, cfg) = (r.ib.clone(), r.scif.clone(), client_cfg(&r));
    let big_seq2 = big_seq.clone();
    r.sim.spawn("b", move |ctx| {
        let cl = ib.cluster().clone();
        let d = DcfaContext::open_with(ctx, &ib, &scif, NodeId(0), cfg).unwrap();
        let small = d
            .reg_mr(ctx, cl.alloc_pages(phi(0), 4096).unwrap())
            .unwrap();
        // Hello was sequence 1, the small registration 2.
        *big_seq2.lock() = Some((d.client_id(), 3u32));
        let big = d
            .reg_mr(ctx, cl.alloc_pages(phi(0), 1 << 20).unwrap())
            .unwrap();
        assert_eq!(d.ctrl_epoch(), 1, "exactly one re-attach");
        assert!(ib.mr_handle(small.key()).is_some(), "the journal replayed");
        d.dereg_mr(ctx, &big).unwrap();
        d.dereg_mr(ctx, &small).unwrap();
        d.close(ctx);
    });
    r.sim.run_expect();
    let c = r.stats.snapshot();
    assert_eq!((c.daemon_crashes, c.daemon_respawns), (1, 1), "{c:?}");
    assert_eq!(c.errors, 0, "a dead incarnation replied: {c:?}");
    assert_eq!((c.reattaches, c.mrs_adopted), (2, 1), "{c:?}");
    assert_eq!((c.mr_registered, c.mr_deregistered), (3, 3), "{c:?}");
    let (client, seq) = big_seq.lock().expect("b got that far");
    let evs = r.events.lock();
    let timed_out = |e: &&CtrlEvent| matches!(e, CtrlEvent::CmdTimeout { client: c, seq: s } if (*c, *s) == (client, seq));
    assert_eq!(
        evs.iter().filter(timed_out).count(),
        4,
        "b's command was answered by the incarnation that died serving it"
    );
    // Nothing is left on the HCA outside a session: every key ever handed
    // out is gone again.
    let left = (1..16).filter(|&k| r.ib.mr_handle(verbs::MrKey(k)).is_some());
    assert_eq!(left.count(), 0);
}

// ---- property: random control-plane faults never corrupt bookkeeping ------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Arbitrary (bounded) command-channel fault plans: the client-visible
    // contract must hold regardless — every operation eventually succeeds,
    // MR keys are never reused, and host twin pages balance to zero once
    // the client is done.
    #[test]
    fn random_daemon_faults_preserve_keys_and_pages(
        plan in proptest::collection::vec((0u64..10, 0u8..3), 0..4),
    ) {
        let faults: Vec<DaemonFault> = plan
            .iter()
            .map(|&(after_cmds, k)| DaemonFault {
                after_cmds,
                kind: match k {
                    0 => DaemonFaultKind::Crash,
                    1 => DaemonFaultKind::DropReply,
                    _ => DaemonFaultKind::DelayReply,
                },
                node: None,
            })
            .collect();
        let mut r = rig_with(1, DaemonConfig {
            faults,
            ..DaemonConfig::default()
        });
        let (ib, scif, cfg) = (r.ib.clone(), r.scif.clone(), client_cfg(&r));
        let keys_out: Arc<SimCell<Vec<u32>>> = Arc::new(SimCell::new(Vec::new()));
        let keys2 = keys_out.clone();
        let balance: Arc<SimCell<Option<(u64, u64)>>> = Arc::new(SimCell::new(None));
        let balance2 = balance.clone();
        r.sim.spawn("rank0", move |ctx| {
            let cl = ib.cluster().clone();
            let used0 = cl.mem_used(host(0));
            let d = DcfaContext::open_with(ctx, &ib, &scif, NodeId(0), cfg).unwrap();
            let mut keys = Vec::new();
            for i in 0..4 {
                let b = cl.alloc_pages(phi(0), 4096 * (i + 1)).unwrap();
                let mr = d.reg_mr(ctx, b.clone()).unwrap();
                keys.push(mr.key().0);
                let omr = d.reg_offload_mr(ctx, &b).unwrap();
                keys.push(omr.host_mr.key().0);
                d.dereg_offload_mr(ctx, omr).unwrap();
                d.dereg_mr(ctx, &mr).unwrap();
            }
            d.close(ctx);
            *keys2.lock() = keys;
            *balance2.lock() = Some((used0, cl.mem_used(host(0))));
        });
        r.sim.run_expect();
        let keys = keys_out.lock().clone();
        let mut uniq = keys.clone();
        uniq.sort_unstable();
        uniq.dedup();
        prop_assert_eq!(uniq.len(), keys.len(), "MR key reused: {:?}", keys);
        let (used0, used1) = balance.lock().expect("client finished");
        prop_assert_eq!(used0, used1, "host twin pages leaked");
        // Whatever faults fired, crash/respawn bookkeeping must pair up.
        let c = r.stats.snapshot();
        prop_assert_eq!(c.daemon_crashes, c.daemon_respawns);
    }
}
