//! Unit tests of the seams inside the engine — the channel's operations
//! and `Engine::resolve` — driven on two real ranks of a simulated world.

use simcore::{Ctx, SimDuration, Simulation};

use crate::channel::{Inbound, Payload};
use crate::engine::{Engine, ReqState, SendLease};
use crate::packet::{PacketHeader, PacketKind};
use crate::types::TransportOp;
use crate::{launch, LaunchOpts, MetricsHub, MpiConfig, MpiError, Phase, Rank, Request, Status};

/// Run `f` on both engines of a two-rank world with 8-slot rings.
fn world(srq_depth: Option<u32>, f: impl Fn(&mut Ctx, &mut Engine) + Send + Sync + 'static) {
    let mut sim = Simulation::new();
    let cluster = fabric::Cluster::new(sim.scheduler(), fabric::ClusterConfig::with_nodes(2));
    let (ib, scif) = (
        verbs::IbFabric::new(cluster.clone()),
        scif::ScifFabric::new(cluster),
    );
    let cfg = MpiConfig {
        ring_slots: 8,
        srq_depth,
        ..MpiConfig::dcfa()
    };
    let body = move |ctx: &mut Ctx, comm: &mut crate::Comm| f(ctx, &mut comm.engine);
    launch(&sim, &ib, &scif, cfg, 2, LaunchOpts::default(), body);
    sim.run_expect();
}

/// Establish the pair with `peer` without consuming anything it sends.
fn wire(ctx: &mut Ctx, e: &mut Engine, peer: Rank) {
    e.ch.connect(ctx, &e.res, &mut e.stats, peer).unwrap();
    while e.ch.unwired(peer) {
        e.ch.pump_conn(ctx, &e.res, &mut e.stats);
        ctx.sleep(SimDuration::from_micros(1));
    }
}

fn ctrl(kind: PacketKind, seq: u64) -> PacketHeader {
    PacketHeader::control(kind, 0, 0, seq, 0)
}

#[test]
fn window_closes_two_slots_early_and_credits_use_the_reserve() {
    world(None, |ctx, e| {
        wire(ctx, e, 1 - e.rank);
        if e.rank == 1 {
            // Polls only once rank 0 is done: no credit comes back early.
            return ctx.sleep(SimDuration::from_millis(1));
        }
        let (mut sent, rts) = (0, PacketKind::Rts);
        while e.ch.room(1, rts) {
            e.transmit(ctx, 1, ctrl(rts, sent), None, None, None);
            sent += 1;
            if sent == 3 {
                // *put* into a claimed slot lands at that slot's
                // sequence and claims no new one: the window still takes
                // six fresh packets.
                let put =
                    e.ch.put(ctx, &e.res, &mut e.stats, 1, ctrl(rts, 1), None, Some(1));
                assert_eq!(put.1, 1);
            }
        }
        assert_eq!(sent, 8 - 2);
        // *flush*: a queued CREDIT bypasses the window-blocked RTS ahead
        // of it into the two reserve slots, and only those.
        e.ch.queue_ctrl(1, ctrl(rts, 6));
        for _ in 0..3 {
            e.ch.queue_ctrl(1, ctrl(PacketKind::Credit, 0));
        }
        for _ in 0..2 {
            let hdr = e.ch.next_ctrl(1).expect("reserve slot free");
            assert_eq!(hdr.kind, PacketKind::Credit);
            e.transmit(ctx, 1, hdr, None, None, None);
        }
        assert!(e.ch.next_ctrl(1).is_none());
        assert!(e.ch.ctrl_queued(1, |h| h.kind == rts));
    });
}

#[test]
fn pool_overtaker_is_stashed_and_drained_in_order() {
    world(Some(16), |ctx, e| {
        wire(ctx, e, 1 - e.rank);
        if e.rank == 0 {
            // Slot sequences 0, 1, 2 hit the wire as 1, 2, 0 — what a
            // retried send does to its successors.
            let mut put = |seq| {
                let hdr = ctrl(PacketKind::Done, seq);
                e.ch.put(ctx, &e.res, &mut e.stats, 1, hdr, None, None).0
            };
            let wrs = [put(0), put(1), put(2)];
            for i in [1, 2, 0] {
                e.ch.post(ctx, &mut e.stats, 1, wrs[i], false).unwrap();
            }
            return;
        }
        ctx.sleep(SimDuration::from_millis(1));
        let mut got = Vec::new();
        while let Some(step) = e.ch.poll(ctx, &e.res, &mut e.stats) {
            if let Inbound::Packet(from, hdr, payload) = step {
                got.push((from, hdr.seq, matches!(payload, Payload::Stashed(_))));
            }
        }
        assert_eq!(got, [(0, 0, false), (0, 1, true), (0, 2, true)]);
    });
}

#[test]
fn recycled_payload_buffers_come_back_empty_and_bounded() {
    world(None, |_, e| {
        let slot = e.res.cluster().alloc_pages(e.res.mem(), 8).unwrap();
        // `detach` of an empty payload hands out whatever `recycle` kept.
        let reuse = |e: &mut Engine| {
            let (buf, off) = (slot.clone(), 0);
            e.ch.detach(&e.res, Payload::Slot { buf, off }, 0)
        };
        e.ch.recycle(vec![0xAA; 128]);
        let back = reuse(e);
        assert!(back.is_empty(), "stale bytes must not survive pooling");
        assert!(back.capacity() >= 128, "capacity is what gets reused");
        // A jumbo one-off must not pin its high-water capacity, and the
        // pool itself is capped.
        e.ch.recycle(vec![1; e.cfg.ring_slot_payload as usize + 1]);
        assert_eq!(reuse(e).capacity(), 0);
        (0..40).for_each(|_| e.ch.recycle(vec![7; 16]));
        let kept = (0..40).filter(|_| reuse(e).capacity() > 0).count();
        assert_eq!(kept, 32);
    });
}

#[test]
fn resolve_ends_every_state_once_and_leaves_nothing_held() {
    world(None, |ctx, e| {
        if e.rank == 1 {
            return;
        }
        e.set_metrics(MetricsHub::new()); // spans open only with a hub
        let buf = e.res.cluster().alloc_pages(e.res.mem(), 64 << 10).unwrap();
        let status = Status {
            source: 1,
            tag: 7,
            len: 0,
        };
        let outcomes = [
            Ok(status),
            Err(MpiError::PeerFailed(1)),
            Err(MpiError::Revoked),
            Err(MpiError::Transport {
                status: verbs::WcStatus::RemoteAccessError,
                op: TransportOp::RndvRead,
                attempts: 2,
            }),
        ];
        for (outcome, state) in outcomes.iter().flat_map(|o| (0..7).map(move |s| (o, s))) {
            let mut pin = || e.mr_cache.acquire(ctx, &e.res, &buf);
            let (dst, src, seq, hdr) = (1, 1, 0, ctrl(PacketKind::Rts, 0));
            let state = match state {
                0 => ReqState::EagerSend { status },
                1 | 2 => {
                    let lease = match state {
                        1 => SendLease::Mr(pin()),
                        _ => SendLease::Offload(
                            e.offload_cache.try_acquire(ctx, &e.res, &buf).unwrap(),
                        ),
                    };
                    ReqState::RndvSendAwaitDone {
                        dst,
                        seq,
                        status,
                        lease,
                        hdr,
                    }
                }
                3 => ReqState::RndvSendWriting {
                    dst,
                    seq,
                    full_len: 0,
                    status,
                    lease: SendLease::Mr(pin()),
                },
                4 => ReqState::RecvQueued,
                5 => ReqState::RndvRecvReading {
                    src,
                    seq,
                    status,
                    truncated: None,
                    lease: pin(),
                },
                _ => ReqState::RecvAwaitDone,
            };
            let req = e.reqs.insert(state);
            e.open_span(ctx, Phase::RtsWait, req, 0, 1);
            e.resolve(ctx, req, outcome.clone());
            e.resolve(ctx, req, Err(MpiError::BadRequest)); // already over: no-op
            assert_eq!(e.mr_cache.pinned_regions(), 0);
            assert!(e.open_spans.iter().all(Option::is_none));
            assert_eq!(e.test(ctx, Request(req)), Some(outcome.clone()));
        }
    });
}
