//! The command service as a state machine, against the handler process it
//! replaced: one command at a time per connection, at the same virtual
//! instants. Every instant pinned here was captured at the parent commit,
//! where each connection had a `dcfa-handler` coroutine.

use std::sync::Arc;

use dcfa::wire::{err_code, Reply};
use dcfa::{
    spawn_daemons_with, CtrlEvent, DaemonConfig, DaemonFault, DaemonFaultKind, DcfaConfig,
    DcfaContext, DcfaError, DcfaStats, DCFA_PORT,
};
use fabric::{Cluster, ClusterConfig, Domain, MemRef, NodeId};
use parking_lot::Mutex;
use simcore::{SimDuration, SimTime, Simulation};
use verbs::{IbFabric, MrKey};

type Timeline = Arc<Mutex<Vec<(u64, CtrlEvent)>>>;

struct Rig {
    sim: Simulation,
    ib: Arc<IbFabric>,
    scif: Arc<scif::ScifFabric>,
    stats: DcfaStats,
    /// Control-plane events of both sides, stamped with their instant.
    events: Timeline,
}

fn stamping_hook(sim: &Simulation, events: &Timeline) -> dcfa::CtrlHook {
    let (sched, sink) = (sim.scheduler(), events.clone());
    Arc::new(move |ev| sink.lock().push((sched.now().as_nanos(), *ev)))
}

fn rig_with(mut dcfg: DaemonConfig) -> Rig {
    let sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(1));
    let ib = IbFabric::new(cluster.clone());
    let scif = scif::ScifFabric::new(cluster);
    let events = Timeline::default();
    dcfg.hook = Some(stamping_hook(&sim, &events));
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
        hook: Some(stamping_hook(&r.sim, &r.events)),
        ..DcfaConfig::default()
    }
}

const PHI: MemRef = MemRef {
    node: NodeId(0),
    domain: Domain::Phi,
};
const HOST: MemRef = MemRef {
    node: NodeId(0),
    domain: Domain::Host,
};

/// Memory regions alive on the HCA among the first `upto` keys handed out.
fn live_mrs(ib: &IbFabric, upto: u32) -> usize {
    (1..=upto)
        .filter(|&k| ib.mr_handle(MrKey(k)).is_some())
        .count()
}

fn fault(after_cmds: u64, kind: DaemonFaultKind) -> DaemonFault {
    DaemonFault {
        after_cmds,
        kind,
        node: None,
    }
}

#[test]
fn a_heartbeat_and_a_retransmit_wait_for_the_registration_in_service() {
    // A 1 MiB RegMr is in service for 21.8 us (6 us of host work, then
    // 4 us + 256 pages x 45 ns of registration, a CPU op either side). The
    // client's 20 us reply timeout retransmits it meanwhile and the 9 us
    // heartbeat sidecar beats twice: all three frames queue behind the
    // command in service and are served — heartbeats first, they arrived
    // first — once its reply has left, 300 ns of receive work apart. A
    // third heartbeat arrives while the retransmit is in service and waits
    // in turn.
    let mut r = rig_with(DaemonConfig::default());
    let (ib, scif) = (r.ib.clone(), r.scif.clone());
    let cfg = DcfaConfig {
        cmd_timeout: SimDuration::from_micros(20),
        cmd_backoff: SimDuration::from_micros(1),
        heartbeat_interval: Some(SimDuration::from_micros(9)),
        ..client_cfg(&r)
    };
    let marks = Arc::new(Mutex::new(Vec::new()));
    let marks2 = marks.clone();
    // What the daemon has counted at the instant of each step and one
    // nanosecond later (a probe queued before the run fires ahead of the
    // step that shares its instant).
    let probes = Arc::new(Mutex::new(Vec::new()));
    for (at, _) in STEPS {
        let (stats, probes) = (r.stats.clone(), probes.clone());
        r.sim.scheduler().call_at(SimTime(at), move |_| {
            let c = stats.snapshot();
            probes
                .lock()
                .push((c.heartbeats, c.reply_replays, c.mr_registered));
        });
    }
    r.sim.spawn("rank0", move |ctx| {
        let cl = ib.cluster().clone();
        let d = DcfaContext::open_with(ctx, &ib, &scif, NodeId(0), cfg).unwrap();
        let buf = cl.alloc_pages(PHI, 1 << 20).unwrap();
        let mark = |ctx: &simcore::Ctx| marks2.lock().push(ctx.now().as_nanos());
        mark(ctx);
        let mr = d.reg_mr(ctx, buf).unwrap();
        mark(ctx);
        d.dereg_mr(ctx, &mr).unwrap();
        mark(ctx);
        d.close(ctx);
        mark(ctx);
    });
    r.sim.run_expect();

    let c = r.stats.snapshot();
    let events = r.events.lock().clone();
    assert_eq!(
        (c.mr_registered, c.mr_deregistered, c.reply_replays),
        (1, 1, 1),
        "{c:?}"
    );
    assert_eq!((c.cmd_timeouts, c.cmd_retries, c.reattaches), (1, 1, 0));
    assert_eq!(*marks.lock(), MARKS_NS);
    assert_eq!(*probes.lock(), STEPS.map(|(_, counted)| counted));
    let at = |want: fn(&CtrlEvent) -> bool| {
        let hits: Vec<u64> = events.iter().filter(|e| want(&e.1)).map(|e| e.0).collect();
        assert_eq!(hits.len(), 1, "{events:?}");
        hits[0]
    };
    assert_eq!(
        at(|e| matches!(e, CtrlEvent::CmdTimeout { .. })),
        TIMEOUT_NS
    );
    assert_eq!(
        at(|e| matches!(e, CtrlEvent::ReplyReplayed { .. })),
        REPLAYED_NS
    );
}

// Captured at the parent commit (handler coroutine per connection).
/// The client before and after `reg_mr`, after `dereg_mr`, after `close`.
const MARKS_NS: [u64; 4] = [20_018, 81_891, 96_105, 110_316];
const TIMEOUT_NS: u64 = 73_538;
const REPLAYED_NS: u64 = 84_980;
/// `(instant, (heartbeats, replays, registrations) counted before it)`.
const STEPS: [(u64, (u64, u64, u64)); 10] = [
    // The registration charge ends; its reply leaves 300 ns later.
    (77_780, (3, 0, 0)),
    (77_781, (3, 0, 1)),
    // The two heartbeats that waited, 300 ns of receive work each.
    (78_380, (3, 0, 1)),
    (78_381, (4, 0, 1)),
    (78_680, (4, 0, 1)),
    (78_681, (5, 0, 1)),
    // The retransmit: receive work, 6 us of host work, the cache.
    (84_980, (5, 0, 1)),
    (84_981, (5, 1, 1)),
    // The heartbeat that arrived meanwhile, after the replayed reply left.
    (85_580, (5, 1, 1)),
    (85_581, (6, 1, 1)),
];

#[test]
fn dropped_and_delayed_replies_replay_from_the_dedup_cache() {
    // Command 2 (the RegMr) loses its reply, command 3 (the twin) has it
    // held for 2 ms: each executes once, each retransmit is answered from
    // the cache, and nothing is registered twice.
    let mut r = rig_with(DaemonConfig {
        faults: vec![
            fault(1, DaemonFaultKind::DropReply),
            fault(2, DaemonFaultKind::DelayReply),
        ],
        ..DaemonConfig::default()
    });
    let (ib, scif, cfg) = (r.ib.clone(), r.scif.clone(), client_cfg(&r));
    let marks = Arc::new(Mutex::new(Vec::new()));
    let marks2 = marks.clone();
    r.sim.spawn("rank0", move |ctx| {
        let cl = ib.cluster().clone();
        let used0 = cl.mem_used(HOST);
        let d = DcfaContext::open_with(ctx, &ib, &scif, NodeId(0), cfg).unwrap();
        let buf = cl.alloc_pages(PHI, 64 << 10).unwrap();
        let mark = |ctx: &simcore::Ctx| marks2.lock().push(ctx.now().as_nanos());
        let mr = d.reg_mr(ctx, buf.clone()).unwrap();
        mark(ctx);
        let twin = d.reg_offload_mr(ctx, &buf).unwrap();
        mark(ctx);
        assert_eq!(cl.mem_used(HOST), used0 + (64 << 10), "one twin only");
        d.dereg_offload_mr(ctx, twin).unwrap();
        d.dereg_mr(ctx, &mr).unwrap();
        mark(ctx);
        d.close(ctx);
        assert_eq!(cl.mem_used(HOST), used0);
    });
    r.sim.run_expect();
    let c = r.stats.snapshot();
    assert_eq!((c.mr_registered, c.offload_registered), (1, 1), "{c:?}");
    assert_eq!((c.mr_deregistered, c.offload_deregistered), (1, 1), "{c:?}");
    // One retransmit after the lost reply; three while the other is held,
    // queued behind it and answered when it has gone.
    assert_eq!((c.reply_replays, c.reattaches), (4, 0), "{c:?}");
    assert_eq!((c.cmd_timeouts, c.cmd_retries), (4, 4), "{c:?}");
    assert_eq!(live_mrs(&r.ib, 8), 0);
    assert_eq!(*marks.lock(), DEDUP_MARKS_NS);
}

const DEDUP_MARKS_NS: [u64; 3] = [588_971, 2_607_926, 2_648_523];

#[test]
fn a_lease_that_expires_during_the_registration_charge_undoes_it() {
    // The lease (5 us, no heartbeats) runs out while the daemon is
    // charging a 1 MiB registration (15.5 us): the reaper takes the
    // session, the registration finds it gone, is undone and answered
    // NO_SESSION. The client re-attaches and the same thing happens, so
    // it gives up — with nothing left on the HCA.
    let mut r = rig_with(DaemonConfig {
        lease_ttl: Some(SimDuration::from_micros(5)),
        reaper_period: SimDuration::from_micros(4),
        ..DaemonConfig::default()
    });
    let (ib, scif, cfg) = (r.ib.clone(), r.scif.clone(), client_cfg(&r));
    let marks = Arc::new(Mutex::new(Vec::new()));
    let marks2 = marks.clone();
    r.sim.spawn("rank0", move |ctx| {
        let cl = ib.cluster().clone();
        let d = DcfaContext::open_with(ctx, &ib, &scif, NodeId(0), cfg).unwrap();
        let buf = cl.alloc_pages(PHI, 1 << 20).unwrap();
        assert_eq!(d.reg_mr(ctx, buf).err(), Some(DcfaError::Timeout));
        marks2.lock().push(ctx.now().as_nanos());
        d.abandon();
    });
    r.sim.run_expect();
    let c = r.stats.snapshot();
    assert_eq!((c.mr_registered, c.mr_deregistered), (0, 0), "{c:?}");
    assert_eq!((c.leases_reclaimed, c.reattaches), (3, 2), "{c:?}");
    assert_eq!(c.errors, 3, "one NO_SESSION per attempt: {c:?}");
    assert_eq!(live_mrs(&r.ib, 8), 0, "an undone registration stayed");
    assert_eq!(*marks.lock(), LEASE_MARKS_NS);
}

const LEASE_MARKS_NS: [u64; 1] = [132_864];

#[test]
fn a_decode_storm_disconnects_at_the_limit() {
    // Eight undecodable frames in a row: seven are answered BAD_REQUEST,
    // the eighth ends the connection — no reply, and nothing after it is
    // read, not even a well-formed command.
    let mut r = rig_with(DaemonConfig::default());
    let scif = r.scif.clone();
    let limit = 8; // the daemon's decode-storm limit
    r.sim.spawn("garbler", move |ctx| {
        ctx.sleep(SimDuration::from_micros(1));
        let ep = scif.connect(ctx, PHI, Domain::Host, DCFA_PORT).unwrap();
        let wait = SimDuration::from_micros(100);
        for i in 1..limit {
            ep.send(ctx, &[0xff; 9]);
            let raw = ep.recv_timeout(ctx, wait).expect("an error reply");
            let (seq, epoch, reply) = dcfa::wire::decode_reply_frame(&raw).unwrap();
            assert_eq!((seq, epoch), (dcfa::wire::SEQ_NONE, 1), "frame {i}");
            assert_eq!(
                reply,
                Reply::Error {
                    code: err_code::BAD_REQUEST
                }
            );
        }
        ep.send(ctx, &[0xff; 9]);
        assert_eq!(ep.recv_timeout(ctx, wait), None, "the storm's last frame");
        let hello = dcfa::wire::Cmd::Hello {
            client: dcfa::wire::CLIENT_NONE,
        };
        ep.send(ctx, &dcfa::wire::cmd_frame(1, &hello));
        assert_eq!(ep.recv_timeout(ctx, wait), None, "the connection is gone");
    });
    r.sim.run_expect();
    let c = r.stats.snapshot();
    assert_eq!((c.connections, c.commands, c.errors), (1, 8, 8), "{c:?}");
}
