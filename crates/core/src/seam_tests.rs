//! Unit tests of the seams inside the engine — the channel's operations
//! and `Engine::resolve` — driven on two real ranks of a simulated world.

use fabric::{Buffer, NodeId, PAGE_SIZE};
use simcore::{Ctx, SimDuration, SimTime, Simulation};
use verbs::{FaultPlan, WcStatus};

use crate::channel::{Inbound, Payload};
use crate::engine::{Engine, ReqState};
use crate::mrcache::{Kind, TWIN_BUDGET};
use crate::packet::{PacketHeader, PacketKind, HEADER_LEN, SLOT_OVERHEAD, TAIL_LEN};
use crate::protocol::{State, ROWS};
use crate::recovery::{InflightWr, TimeoutKind, WrKind};
use crate::types::TransportOp;
use crate::{
    audit, launch, KillSpec, LaunchOpts, MetricsHub, MpiConfig, MpiError, Phase, Rank, Request,
    Src, Status, TagSel, TraceBuf,
};

/// Slots per ring in these worlds.
const SLOTS: usize = 8;

/// Run `f` on both engines of a two-rank world with 8-slot rings.
fn world(srq_depth: Option<u32>, f: impl Fn(&mut Ctx, &mut Engine) + Send + Sync + 'static) {
    world_with(srq_depth, LaunchOpts::default(), f)
}

fn world_with(
    srq_depth: Option<u32>,
    opts: LaunchOpts,
    f: impl Fn(&mut Ctx, &mut Engine) + Send + Sync + 'static,
) {
    let cfg = MpiConfig {
        ring_slots: SLOTS as u32,
        srq_depth,
        ..MpiConfig::dcfa()
    };
    world_of(2, cfg, opts, f)
}

/// Run `f` on every engine of a `ranks`-rank world, one rank per node.
fn world_of(
    ranks: usize,
    cfg: MpiConfig,
    opts: LaunchOpts,
    f: impl Fn(&mut Ctx, &mut Engine) + Send + Sync + 'static,
) {
    let mut sim = Simulation::new();
    let nodes = fabric::ClusterConfig::with_nodes(ranks);
    let cluster = fabric::Cluster::new(sim.scheduler(), nodes);
    let (ib, scif) = (
        verbs::IbFabric::new(cluster.clone()),
        scif::ScifFabric::new(cluster),
    );
    let body = move |ctx: &mut Ctx, comm: &mut crate::Comm| f(ctx, &mut comm.engine);
    launch(&sim, &ib, &scif, cfg, ranks, opts, body);
    sim.run_expect();
}

/// Establish the pair with `peer` without consuming anything it sends.
fn wire(ctx: &mut Ctx, e: &mut Engine, peer: Rank) {
    e.ch.connect(ctx, &e.res, &mut e.stats, peer).unwrap();
    while e.ch.unwired(peer) {
        e.ch.pump_conn(ctx, &e.res, &mut e.stats, &mut e.wr.watchdogs);
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
                // Never posted, so no completion gives its staging slot back.
                e.ch.release_stage(1, put.2);
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
                e.ch.put(ctx, &e.res, &mut e.stats, 1, hdr, None, None)
            };
            let puts = [put(0), put(1), put(2)];
            for i in [1, 2, 0] {
                e.ch.post(ctx, &mut e.stats, 1, puts[i].0, false).unwrap();
            }
            // Posted untracked: nothing routes their completions, so wait
            // them out and hand the staging slots back by hand.
            ctx.sleep(SimDuration::from_millis(1));
            puts.iter().for_each(|put| e.ch.release_stage(1, put.2));
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

fn pattern(len: u64, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(29) ^ salt)
        .collect()
}

/// Eager payload sizes at a slot's edges: the tail word ending just short
/// of its first page boundary, straddling it and just past it; the
/// payload ending short of it, on it and past it; and a full slot.
fn slot_edges(slot_payload: u64) -> [u64; 7] {
    // The payloads whose tail word, and whose last byte, ends the page.
    let (t, p) = (PAGE_SIZE - HEADER_LEN - TAIL_LEN, PAGE_SIZE - HEADER_LEN);
    [t - 8, t + 4, t + 8, p - 8, p, p + 8, slot_payload]
}

/// Put one EAGER of each size toward rank 1, numbered by `seq` and
/// filled with `pattern(len, salt + seq)`, and post them in `order`.
fn send_eagers(ctx: &mut Ctx, e: &mut Engine, sizes: &[u64], salt: u8, order: &[usize]) {
    let cluster = e.res.cluster().clone();
    let mut puts = Vec::new();
    for (seq, &len) in sizes.iter().enumerate() {
        let buf = cluster.alloc_pages(e.res.mem(), len).unwrap();
        cluster.write(&buf, 0, &pattern(len, salt + seq as u8));
        let hdr = PacketHeader::control(PacketKind::Eager, 0, 0, seq as u64, len);
        puts.push(e.ch.put(ctx, &e.res, &mut e.stats, 1, hdr, Some(&buf), None));
    }
    for &i in order {
        e.ch.post(ctx, &mut e.stats, 1, puts[i].0, false).unwrap();
    }
    // Posted untracked: wait the writes out and hand the staging slots
    // back by hand.
    ctx.sleep(SimDuration::from_millis(1));
    puts.iter().for_each(|put| e.ch.release_stage(1, put.2));
}

/// Every byte of an eager arrival of each size at a slot's edges arrives
/// exact, from a ring slot or a pool slot: delivered or detached in
/// order, and copied off the pool by the reorder stash when overtaken.
#[test]
fn eager_bytes_at_every_slot_edge_arrive_exact() {
    for srq_depth in [None, Some(16)] {
        world(srq_depth, move |ctx, e| {
            wire(ctx, e, 1 - e.rank);
            let sizes = slot_edges(e.cfg.ring_slot_payload);
            let (n, salt) = (sizes.len(), [0, 8]);
            if e.rank == 0 {
                // In order, then with the first packet last: the pool
                // stashes the rest.
                send_eagers(ctx, e, &sizes, salt[0], &[0, 1, 2, 3, 4, 5, 6]);
                return send_eagers(ctx, e, &sizes, salt[1], &[1, 2, 3, 4, 5, 6, 0]);
            }
            for (batch, salt) in salt.into_iter().enumerate() {
                ctx.sleep(SimDuration::from_micros(500 + 500 * batch as u64));
                let (mut seen, mut stashed) = (0, 0);
                while let Some(step) = e.ch.poll(ctx, &e.res, &mut e.stats) {
                    let Inbound::Packet(_, hdr, payload) = step else {
                        continue;
                    };
                    let (seq, len) = (hdr.seq as usize, hdr.len);
                    assert_eq!(len, sizes[seq]);
                    stashed += matches!(payload, Payload::Stashed(_)) as usize;
                    // Odd arrivals leave as the unexpected queue takes
                    // them, even ones as a posted receive does.
                    let got = if seq % 2 == 1 {
                        e.ch.detach(&e.res, payload, len)
                    } else {
                        let dst = e.res.cluster().alloc_pages(e.res.mem(), len).unwrap();
                        e.ch.deliver(&e.res, payload, &dst, len);
                        e.res.cluster().read_vec(&dst)
                    };
                    let want = pattern(len, salt + seq as u8);
                    assert!(got == want, "{len} B, batch {batch}: bytes differ");
                    seen += 1;
                }
                assert_eq!(seen, n);
                let pool = srq_depth.is_some();
                assert_eq!(stashed, if pool && batch == 1 { n - 1 } else { 0 });
            }
        });
    }
}

/// Arrivals of mixed sizes — control-sized, 1 KiB, 4,059 B and a full
/// 8 KiB — on either channel write no page of the buffer they land in and
/// ask the kernel for no page: ring and pool are held off-page. Into a
/// ring they come a lap at a time, each polled before the next; into a
/// pool twice `depth` of them at once, half held back by the SRQ while
/// the pool is dry and delivered into slots as they are reposted. Every
/// arrival's bytes come out exact and its slot reads zero once consumed —
/// one whose payload is dropped unread too, by the next poll.
#[test]
fn inbound_arrivals_back_no_page_and_a_consumed_slot_reads_zero() {
    const DEPTH: u32 = 16;
    for srq_depth in [None, Some(DEPTH)] {
        world(srq_depth, move |ctx, e| {
            inbound_arrivals(ctx, e, srq_depth.is_some());
        });
    }
}

fn inbound_arrivals(ctx: &mut Ctx, e: &mut Engine, pool: bool) {
    const BATCH: SimDuration = SimDuration::from_millis(1);
    wire(ctx, e, 1 - e.rank);
    let sizes = [0, 1024, 4059, 8192];
    assert!(sizes[3] <= e.cfg.ring_slot_payload);
    let cluster = e.res.cluster().clone();
    // Every buffer either rank writes below is written once first, so
    // that a page it populates is not counted against the inbound buffer.
    let bufs: Vec<Buffer> = sizes[1..]
        .iter()
        .map(|&len| {
            let buf = cluster.alloc_pages(e.res.mem(), len).unwrap();
            cluster.write(&buf, 0, &vec![0xEE; len as usize]);
            buf
        })
        .collect();
    if e.rank == 0 {
        let stage = e.ch.stage(1).0.clone();
        cluster.write(&stage, 0, &vec![0; stage.len as usize]);
    }
    // Both ranks past their warm-up writes before either counts.
    let start = SimTime(1_000_000);
    ctx.sleep(start.since(ctx.now()));
    #[cfg(debug_assertions)]
    let populates = simcore::mapping::populate_count();
    let (arrivals, batches) = (32, 32 / SLOTS);
    if e.rank == 0 {
        // A batch per staging-slot round, a lap of the ring each.
        for batch in 0..batches {
            let puts: Vec<_> = (0..SLOTS)
                .map(|k| {
                    let seq = batch * SLOTS + k;
                    let len = sizes[seq % 4];
                    let buf = (len > 0).then(|| &bufs[seq % 4 - 1]);
                    if let Some(buf) = buf {
                        cluster.write(buf, 0, &pattern(len, seq as u8));
                    }
                    let hdr = PacketHeader::control(PacketKind::Eager, 0, 0, seq as u64, len);
                    e.ch.put(ctx, &e.res, &mut e.stats, 1, hdr, buf, None)
                })
                .collect();
            for put in &puts {
                e.ch.post(ctx, &mut e.stats, 1, put.0, false).unwrap();
            }
            ctx.sleep(BATCH);
            puts.iter().for_each(|put| e.ch.release_stage(1, put.2));
        }
        return;
    }
    let inbound = e.ch.inbound(0).expect("a ring or a pool").clone();
    let slot_size = e.cfg.ring_slot_payload + SLOT_OVERHEAD;
    // The pool is polled once everything is sent; a ring halfway through
    // each batch, before the next lap lands.
    let polls: Vec<SimTime> = match pool {
        true => vec![start + BATCH * 10],
        false => (0..batches as u64)
            .map(|b| start + BATCH * b + BATCH / 2)
            .collect(),
    };
    let (mut seen, mut dropped) = (0, None);
    for at in polls {
        ctx.sleep(at.since(ctx.now()));
        while let Some(step) = e.ch.poll(ctx, &e.res, &mut e.stats) {
            if let Some(slot) = dropped.take() {
                assert!(cluster.read_vec(&slot).iter().all(|&b| b == 0));
            }
            let Inbound::Packet(_, hdr, payload) = step else {
                continue;
            };
            let (seq, len) = (hdr.seq as usize, hdr.len);
            assert_eq!((seq, len), (seen, sizes[seen % 4]), "arrivals out of order");
            seen += 1;
            let Payload::Slot(buf, at) = &payload else {
                panic!("arrival {seq} was stashed");
            };
            let slot = buf.slice(*at, slot_size);
            if seq == arrivals - 3 {
                // The engine drops a payload it has no use for unread.
                drop(payload);
                dropped = Some(slot);
                continue;
            }
            let got = if seq % 2 == 1 || len == 0 {
                e.ch.detach(&e.res, payload, len)
            } else {
                let dst = &bufs[seq % 4 - 1];
                e.ch.deliver(&e.res, payload, dst, len);
                cluster.read_vec(dst)
            };
            assert!(
                got == pattern(len, seq as u8),
                "arrival {seq}, {len} B: bytes differ"
            );
            assert!(
                cluster.read_vec(&slot).iter().all(|&b| b == 0),
                "arrival {seq}'s slot still holds bytes once consumed"
            );
        }
        // A ring is polled before the next lap is sent.
        if !pool {
            assert_eq!(seen % SLOTS, 0, "a lap arrived short");
        }
    }
    assert_eq!((seen, dropped), (arrivals, None));
    #[cfg(debug_assertions)]
    assert_eq!(
        simcore::mapping::populate_count(),
        populates,
        "a page was populated"
    );
    assert_eq!(cluster.with_plane(|p| p.resident_pages_in(&inbound)), 0);
    // Every slot has been consumed or reposted, so all of it reads zero.
    assert!(cluster.read_vec(&inbound).iter().all(|&b| b == 0));
}

#[test]
fn recycled_payload_buffers_come_back_empty_and_bounded() {
    world(None, |_, e| {
        let slot = e.res.cluster().alloc_pages(e.res.mem(), 8).unwrap();
        // `detach` of an empty payload hands out whatever `recycle` kept.
        let reuse = |e: &mut Engine| e.ch.detach(&e.res, Payload::Slot(slot.clone(), 0), 0);
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
    let hub = MetricsHub::new(); // counts the samples each resolve records
    let opts = LaunchOpts {
        metrics: Some(hub.clone()),
        ..LaunchOpts::default()
    };
    world_with(None, opts, move |ctx, e| {
        if e.rank == 1 {
            return;
        }
        let rts_waits = || {
            let phases = hub.merged_by_phase();
            phases
                .iter()
                .find(|(p, _)| *p == Phase::RtsWait)
                .map_or(0, |(_, h)| h.count)
        };
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
                status: WcStatus::RemoteAccessError,
                op: TransportOp::RndvRead,
                attempts: 2,
            }),
        ];
        let cases = outcomes.iter().flat_map(|o| (0..7).map(move |s| (o, s)));
        let mut built = Vec::new();
        for (resolved, (outcome, state)) in (1..).zip(cases) {
            let mut pin = |kind| e.cache.acquire(ctx, &e.res, kind, &buf).unwrap();
            let (dst, src, seq, hdr) = (1, 1, 0, ctrl(PacketKind::Rts, 0));
            let state = match state {
                0 => ReqState::EagerSend { status },
                1 | 2 => ReqState::RndvSendAwaitDone {
                    dst,
                    status,
                    lease: pin([Kind::Mr, Kind::Twin][state - 1]),
                    hdr,
                },
                3 | 5 => ReqState::Rdma {
                    read: state == 5,
                    peer: src,
                    seq,
                    status,
                    truncated: None,
                    lease: pin(Kind::Mr),
                },
                4 => ReqState::RecvQueued,
                _ => ReqState::RecvAwaitDone { src, hdr },
            };
            built.push(state.tag());
            let req = e.reqs.insert(state.into());
            e.open_span(ctx, Phase::RtsWait, req, 0, 1);
            e.resolve(ctx, req, outcome.clone());
            assert_eq!(rts_waits(), resolved, "one sample per resolved request");
            e.resolve(ctx, req, Err(MpiError::BadRequest)); // already over: no-op
            assert_eq!(rts_waits(), resolved, "a second resolve records nothing");
            assert_eq!(
                e.cache.pinned(),
                0,
                "a lease of either kind outlived its request"
            );
            assert_eq!(e.test(ctx, Request(req)), Some(outcome.clone()));
        }
        // Every state the protocol table names, but `None` and `Ended`
        // (nothing to resolve), is one of those built above.
        for state in ROWS.iter().flat_map(|r| [r.state, r.next]) {
            let live = !matches!(state, State::None | State::Ended);
            assert!(!live || built.contains(&state), "no case builds {state:?}");
        }
    });
}

/// `ROWS` as the markdown table DESIGN.md §19 quotes.
fn rows_markdown() -> String {
    let mut md =
        String::from("| state | event | action | next | watchdog |\n|---|---|---|---|---|\n");
    for r in ROWS {
        let (s, e, a, n, w) = (r.state, r.event, r.action, r.next, r.watch);
        md += &format!("| {s:?} | {e:?} | `{a}` | {n:?} | {w:?} |\n");
    }
    md
}

#[test]
fn design_quotes_the_protocol_table() {
    let design = include_str!("../../../DESIGN.md");
    let table = rows_markdown();
    assert!(
        design.contains(&table),
        "DESIGN.md §19 must quote `protocol::ROWS` as rendered here:\n{table}"
    );
}

// ---- the registration cache ----------------------------------------------

#[test]
fn twins_past_the_budget_stay_at_their_high_water_mark() {
    let tracer = TraceBuf::new(1 << 12);
    let opts = LaunchOpts {
        tracer: Some(tracer.clone()),
        ..LaunchOpts::default()
    };
    world_with(None, opts, |ctx, e| {
        if e.rank == 1 {
            return;
        }
        let twin = |ctx: &mut Ctx, e: &mut Engine| {
            let buf = e.res.cluster().alloc_pages(e.res.mem(), 16 << 10).unwrap();
            e.cache.acquire(ctx, &e.res, Kind::Twin, &buf).unwrap()
        };
        // Every twin pinned at once: the 17th grows the cache past its budget.
        let leases: Vec<_> = (0..=TWIN_BUDGET).map(|_| twin(ctx, e)).collect();
        assert_eq!(e.cache.resident(Kind::Twin), TWIN_BUDGET + 1);
        leases
            .into_iter()
            .for_each(|l| e.cache.release(ctx, &e.res, l));
        // A miss evicts one and adds one: no shrinking back to the budget.
        let lease = twin(ctx, e);
        e.cache.release(ctx, &e.res, lease);
        assert_eq!(e.cache.resident(Kind::Twin), TWIN_BUDGET + 1);
        assert_eq!(e.cache.stats(Kind::Twin).evictions, 1);
        assert_eq!(e.cache.pinned(), 0);
    });
    let report = audit(&tracer.snapshot()).expect("the audit passes");
    assert_eq!(report.mr_registered, TWIN_BUDGET as u64 + 2);
    assert_eq!(report.mr_leaked, 0, "finalize deregisters every twin");
}

#[test]
fn an_mr_and_a_twin_over_the_same_range_do_not_alias() {
    world(None, |ctx, e| {
        if e.rank == 1 {
            return;
        }
        let alloc = |e: &Engine| e.res.cluster().alloc_pages(e.res.mem(), 64 << 10).unwrap();
        let (a, b) = (alloc(e), alloc(e));
        let mut cycle = |e: &mut Engine, kind, buf: &Buffer| {
            let lease = e.cache.acquire(ctx, &e.res, kind, buf).unwrap();
            e.cache.release(ctx, &e.res, lease);
        };
        // An MR over `a` serves no twin lookup: not of a range inside it,
        // and not of the very same range.
        cycle(e, Kind::Mr, &a);
        cycle(e, Kind::Twin, &a.slice(4 << 10, 4 << 10));
        cycle(e, Kind::Twin, &a);
        let twins = e.cache.stats(Kind::Twin);
        assert_eq!((twins.hits, twins.misses), (0, 2));
        assert_eq!(e.cache.resident(Kind::Twin), 2);
        // A twin over `b` serves no MR lookup of a range inside it.
        cycle(e, Kind::Twin, &b);
        cycle(e, Kind::Mr, &b.slice(4 << 10, 4 << 10));
        let mrs = e.cache.stats(Kind::Mr);
        assert_eq!((mrs.hits, mrs.misses), (0, 2));
        assert_eq!(e.cache.resident(Kind::Mr), 2);
        // Each kind still hits its own entries.
        cycle(e, Kind::Mr, &a.slice(0, 4 << 10));
        cycle(e, Kind::Twin, &b.slice(0, 4 << 10));
        assert_eq!(e.cache.stats(Kind::Mr).hits, 1);
        assert_eq!(e.cache.stats(Kind::Twin).hits, 1);
    });
}

// ---- staging slots -------------------------------------------------------

/// `(slot sequence, staging slot, kind)` of every slot write in flight.
fn slot_writes(e: &Engine) -> Vec<(u64, u32, PacketKind)> {
    let ring = |(_, w): (u64, &InflightWr)| match w.kind {
        WrKind::Ring {
            hdr,
            slot_seq,
            stage,
            ..
        } => Some((slot_seq, stage, hdr.kind)),
        _ => None,
    };
    let mut writes: Vec<_> = e.wr.inflight.iter().filter_map(ring).collect();
    writes.sort_unstable_by_key(|w| w.0);
    writes
}

/// A 64-byte buffer in `e`'s memory filled with `fill`.
fn filled(e: &Engine, fill: u8) -> Buffer {
    let buf = e.res.cluster().alloc_pages(e.res.mem(), 64).unwrap();
    e.res.cluster().write(&buf, 0, &[fill; 64]);
    buf
}

/// Arm a fault for the next data operation rank 0's node posts toward
/// rank 1's.
fn fail_next_write(e: &Engine, status: WcStatus) {
    e.res.ib().inject_fault_plan(FaultPlan {
        status,
        initiator: Some(NodeId(0)),
        target: Some(NodeId(1)),
        ..Default::default()
    });
}

/// Drive progress until `until` holds.
fn progress_until(ctx: &mut Ctx, e: &mut Engine, until: impl Fn(&Engine) -> bool) {
    while !until(e) {
        ctx.sleep(SimDuration::from_micros(1));
        e.progress(ctx);
    }
}

#[test]
fn a_pingpong_stages_in_the_slot_it_last_freed() {
    world(None, |ctx, e| {
        let peer = 1 - e.rank;
        let buf = filled(e, 7);
        for round in 0..50 {
            for half in 0..2 {
                let req = if (half == 0) == (e.rank == 0) {
                    e.isend(ctx, &buf, peer, round)
                } else {
                    e.irecv(ctx, &buf, Src::Rank(peer), TagSel::Tag(round))
                };
                e.wait(ctx, req.unwrap()).unwrap();
            }
        }
        e.quiesce(ctx);
        assert!(e.ch.stages_idle());
        // Every packet starts with its non-zero kind byte: a staging slot
        // that still reads zero there was never staged in. 100 packets and
        // their credits went through the slot freed last and, when a credit
        // met a data packet, one more — round-robin walked all eight.
        let (stage, free) = e.ch.stage(peer);
        assert_eq!(free.len(), SLOTS);
        let slot_size = stage.len / SLOTS as u64;
        let mut kind = [0u8];
        let used = (0..SLOTS as u64).filter(|slot| {
            e.res.cluster().read(stage, slot * slot_size, &mut kind);
            kind[0] != 0
        });
        let used = used.count();
        assert!((1..=2).contains(&used), "{used} staging slots used");
    });
}

#[test]
fn a_retried_slot_write_keeps_its_staging_slot_through_the_backoff() {
    world(None, |ctx, e| {
        // Eight packets around the one that fails: 0–2 before it, 4–7
        // while it waits out its backoff, 8 after.
        const FAILS: usize = 3;
        if e.rank == 1 {
            let bufs: Vec<Buffer> = (0..9).map(|_| filled(e, 0xFF)).collect();
            let post = |b| e.irecv(ctx, b, Src::Rank(0), TagSel::Tag(0)).unwrap();
            let reqs: Vec<Request> = bufs.iter().map(post).collect();
            e.waitall(ctx, &reqs).unwrap();
            for (i, b) in bufs.iter().enumerate() {
                assert_eq!(e.res.cluster().read_vec(b), [i as u8; 64], "message {i}");
            }
            return;
        }
        let bufs: Vec<Buffer> = (0..9).map(|i| filled(e, i)).collect();
        for b in &bufs[..FAILS] {
            let req = e.isend(ctx, b, 1, 0).unwrap();
            e.wait(ctx, req).unwrap();
        }
        fail_next_write(e, WcStatus::RnrRetryExceeded);
        let failing = e.isend(ctx, &bufs[FAILS], 1, 0).unwrap();
        progress_until(ctx, e, |e| e.stats.wr_faults == 1);
        // Waiting for its re-post, it still holds the slot its bytes are in.
        let [(_, held, PacketKind::Eager)] = slot_writes(e)[..] else {
            panic!("the failed write alone is in flight: {:?}", slot_writes(e));
        };
        assert!(!e.ch.stage(1).1.contains(&held));
        let post = |b| e.isend(ctx, b, 1, 0).unwrap();
        let mut reqs: Vec<Request> = bufs[FAILS + 1..8].iter().map(post).collect();
        assert_eq!(e.stats.wr_retries, 0, "still backing off");
        let mut stages: Vec<u32> = slot_writes(e).iter().map(|w| w.1).collect();
        stages.sort_unstable();
        stages.dedup();
        assert_eq!(stages.len(), 5, "five writes in five staging slots");
        reqs.push(failing);
        e.waitall(ctx, &reqs).unwrap();
        assert_eq!(e.stats.wr_retries, 1);
        let req = e.isend(ctx, &bufs[8], 1, 0).unwrap();
        e.wait(ctx, req).unwrap();
        e.quiesce(ctx);
        assert_eq!(e.ch.stage(1).1.len(), SLOTS);
    });
}

#[test]
fn a_dead_slot_write_frees_its_staging_slot_for_the_filler() {
    world(None, |ctx, e| {
        let buf = filled(e, 1);
        if e.rank == 1 {
            let lost = e.irecv(ctx, &buf, Src::Rank(0), TagSel::Tag(0)).unwrap();
            let lost = e.wait(ctx, lost);
            assert!(
                matches!(lost, Err(MpiError::RemoteTransport { .. })),
                "{lost:?}"
            );
            // The stream stayed consumable.
            let next = e.irecv(ctx, &buf, Src::Rank(0), TagSel::Tag(0)).unwrap();
            e.wait(ctx, next).unwrap();
            return;
        }
        // A first message, so the pair is wired and the failing one is
        // not at slot sequence 0.
        let req = e.isend(ctx, &buf, 1, 9).unwrap();
        e.wait(ctx, req).unwrap();
        fail_next_write(e, WcStatus::RemoteAccessError);
        let dead = e.isend(ctx, &buf, 1, 0).unwrap();
        let [(slot_seq, held, PacketKind::Eager)] = slot_writes(e)[..] else {
            panic!("the doomed write alone is in flight: {:?}", slot_writes(e));
        };
        progress_until(ctx, e, |e| e.stats.transport_failures == 1);
        // The filler took the slot the dead packet gave up — it was on top
        // of the stack — and goes to the ring slot the receiver is polling.
        assert_eq!(slot_writes(e), [(slot_seq, held, PacketKind::NackSend)]);
        assert_eq!(e.ch.stage(1).1.len(), SLOTS - 1);
        let dead = e.wait(ctx, dead);
        assert!(matches!(dead, Err(MpiError::Transport { .. })), "{dead:?}");
        let req = e.isend(ctx, &buf, 1, 0).unwrap();
        e.wait(ctx, req).unwrap();
        e.quiesce(ctx);
        assert_eq!(e.ch.stage(1).1.len(), SLOTS);
    });
}

#[test]
fn reaping_a_peer_returns_every_staging_slot_held_toward_it() {
    let kills = vec![KillSpec {
        rank: 1,
        after_ops: 1,
    }];
    let opts = LaunchOpts {
        kills,
        ..LaunchOpts::default()
    };
    world_with(None, opts, |ctx, e| {
        wire(ctx, e, 1 - e.rank);
        if e.rank == 1 {
            // Its first MPI operation is its last.
            let buf = filled(e, 0);
            let _ = e.irecv(ctx, &buf, Src::Rank(0), TagSel::Tag(0));
            unreachable!("rank 1 was to die on entry");
        }
        ctx.sleep(SimDuration::from_micros(100));
        for seq in 0..5 {
            e.transmit(ctx, 1, ctrl(PacketKind::Done, seq), None, None, None);
        }
        assert_eq!(e.ch.stage(1).1.len(), SLOTS - 5);
        // One flush completion is enough: it reaps the corpse, and the
        // reap gives back what the four writes behind it hold.
        progress_until(ctx, e, |e| e.stats.wr_faults > 0);
        assert_eq!(e.ch.stage(1).1.len(), SLOTS);
        assert!(e.wr.inflight.is_empty());
    });
}

// ---- a rank keeps an entry only for the peers it touched ----

/// Three ranks. Rank 0 posts an any-source receive and probes before
/// anyone has sent to it: neither touches a pair. Rank 1's message then
/// arrives unexpected, before rank 0 ever sent to it, and makes the one
/// entry it needs. Rank 2 dies on entry to its first operation, having
/// touched nobody: ranks 0 and 1 reap it cleanly and make no entry for it.
/// Both receive paths.
#[test]
fn untouched_peers_get_no_entry_and_reap_cleanly() {
    for srq_depth in [None, Some(64)] {
        let cfg = MpiConfig {
            ring_slots: SLOTS as u32,
            srq_depth,
            peer_ttl: Some(SimDuration::from_micros(50)),
            ..MpiConfig::dcfa()
        };
        let kills = vec![KillSpec {
            rank: 2,
            after_ops: 1,
        }];
        let opts = LaunchOpts {
            kills,
            ..LaunchOpts::default()
        };
        world_of(3, cfg, opts, |ctx, e| {
            let buf = filled(e, e.rank as u8);
            let entries = |e: &Engine| (0..3).filter(|&p| e.ch.peers.get(p).is_some()).count();
            match e.rank {
                0 => {
                    let any = e.irecv(ctx, &buf, Src::Any, TagSel::Tag(7)).unwrap();
                    assert_eq!(e.iprobe(ctx, Src::Any, TagSel::Any), None);
                    assert_eq!((e.ch.peers.len(), entries(e)), (0, 0));
                    let st = e.probe(ctx, Src::Rank(1), TagSel::Tag(3)).unwrap();
                    assert_eq!((st.source, st.tag), (1, 3));
                    assert_eq!(e.ch.peers.len(), 1);
                    assert!(e.ch.peers.get(1).is_some());
                    progress_until(ctx, e, |e| e.stats.peer_deaths_detected == 1);
                    assert_eq!((e.ch.peers.len(), entries(e)), (1, 1), "the reap made one");
                    let got = e.irecv(ctx, &buf, Src::Rank(1), TagSel::Tag(3)).unwrap();
                    e.wait(ctx, got).unwrap();
                    e.wait(ctx, any).unwrap();
                }
                1 => {
                    ctx.sleep(SimDuration::from_micros(20));
                    let req = e.isend(ctx, &buf, 0, 3).unwrap();
                    e.wait(ctx, req).unwrap();
                    progress_until(ctx, e, |e| e.stats.peer_deaths_detected == 1);
                    assert_eq!((e.ch.peers.len(), entries(e)), (1, 1));
                    let req = e.isend(ctx, &buf, 0, 7).unwrap();
                    e.wait(ctx, req).unwrap();
                }
                _ => {
                    let _ = e.isend(ctx, &buf, 1, 0);
                    unreachable!("rank 2 was to die on entry");
                }
            }
            assert_eq!(e.stats.dead_reclaimed, 0);
        });
    }
}

// ---- an idle ring is not parsed again until something is written into it ----

/// One raw inbound sweep: the slots it parsed and the packets it found.
fn sweep(ctx: &mut Ctx, e: &mut Engine) -> (u64, Vec<(Rank, PacketKind, u64)>) {
    let before = e.ch.slot_parses.get();
    let mut got = Vec::new();
    while let Some(step) = e.ch.poll(ctx, &e.res, &mut e.stats) {
        if let Inbound::Packet(from, hdr, _) = step {
            got.push((from, hdr.kind, hdr.seq));
        }
    }
    (e.ch.slot_parses.get() - before, got)
}

/// Post DONE packets `seqs` toward `dst` and see their writes complete.
fn send_done(ctx: &mut Ctx, e: &mut Engine, dst: Rank, seqs: std::ops::Range<u64>) {
    for seq in seqs {
        e.transmit(ctx, dst, ctrl(PacketKind::Done, seq), None, None, None);
    }
    progress_until(ctx, e, |e| e.ch.stages_idle());
}

#[test]
fn an_idle_ring_is_parsed_once_and_then_not_until_a_write_lands() {
    let cfg = MpiConfig {
        ring_slots: SLOTS as u32,
        ..MpiConfig::dcfa()
    };
    world_of(5, cfg, LaunchOpts::default(), |ctx, e| {
        let done = PacketKind::Done;
        let until = |ctx: &mut Ctx, us: u64| ctx.sleep(SimTime(us * 1_000) - ctx.now());
        if e.rank != 0 {
            wire(ctx, e, 0);
            // Ranks 1–3 never send. Rank 4 sends once rank 0 has gone
            // idle on every ring, and again later.
            if e.rank == 4 {
                until(ctx, 2_000);
                send_done(ctx, e, 0, 0..2);
                until(ctx, 3_000);
                send_done(ctx, e, 0, 2..3);
            }
            return until(ctx, 5_000);
        }
        (1..5).for_each(|p| wire(ctx, e, p));
        // The rings are held off-page: looking into an empty one reads
        // zeros and makes no side buffer.
        let (cluster, mem) = (e.res.cluster().clone(), e.res.mem());
        let sides = || cluster.with_plane(|m| m.side_buffers(mem));
        let before = sides();
        // Four empty rings: each next slot is parsed once...
        assert_eq!(sweep(ctx, e), (4, vec![]));
        // ...and not again while nothing is written, however often we look.
        for _ in 0..50 {
            ctx.sleep(SimDuration::from_micros(1));
            assert_eq!(sweep(ctx, e), (0, vec![]));
        }
        assert_eq!(sides(), before, "polling an empty ring made a side buffer");
        for p in 1..5 {
            let ring = e.ch.inbound(p).expect("a ring");
            assert_eq!(cluster.with_plane(|m| m.resident_pages_in(ring)), 0);
        }
        // Two packets land in rank 4's ring while it is marked idle: the
        // very next sweep sees both, in two parses — the slot behind them
        // is not parsed, as the ring counts no write beyond the two it
        // consumed; the three idle rings are not looked at.
        until(ctx, 2_500);
        assert_eq!(sweep(ctx, e), (2, vec![(4, done, 0), (4, done, 1)]));
        assert_eq!(sweep(ctx, e), (0, vec![]));
        until(ctx, 3_500);
        assert_eq!(sweep(ctx, e), (1, vec![(4, done, 2)]));
        assert_eq!(sweep(ctx, e), (0, vec![]));
        // Reaping a pair forgets what was remembered about its ring: it is
        // parsed once more, found empty, and remembered again.
        e.ch.reap(2);
        assert_eq!(sweep(ctx, e), (1, vec![]));
        assert_eq!(sweep(ctx, e), (0, vec![]));
    });
}

/// A ring slot is ended only by the parse that consumes it: one holding a
/// packet of another lap — its tail names a sequence other than the one
/// awaited — is parsed, found not next, and left as it is.
#[test]
fn a_slot_of_another_lap_is_not_ended_by_the_parse_that_skips_it() {
    world(None, |ctx, e| {
        wire(ctx, e, 1 - e.rank);
        if e.rank == 0 {
            let (hdr, lap) = (ctrl(PacketKind::Credit, 0), Some(SLOTS as u64));
            let (wr, _, held) = e.ch.put(ctx, &e.res, &mut e.stats, 1, hdr, None, lap);
            e.ch.post(ctx, &mut e.stats, 1, wr, false).unwrap();
            ctx.sleep(SimDuration::from_millis(1));
            return e.ch.release_stage(1, held);
        }
        ctx.sleep(SimDuration::from_millis(2));
        let ring = e.ch.inbound(0).expect("a ring").clone();
        let slot = ring.slice(0, e.cfg.ring_slot_payload + SLOT_OVERHEAD);
        let landed = e.res.cluster().read_vec(&slot);
        assert!(landed.iter().any(|&b| b != 0), "the write landed");
        assert_eq!(sweep(ctx, e), (1, vec![]));
        assert!(
            e.res.cluster().read_vec(&slot) == landed,
            "the slot was ended"
        );
    });
}

#[test]
fn the_idle_mark_follows_the_ring_around() {
    world(None, |ctx, e| {
        wire(ctx, e, 1 - e.rank);
        const PACKETS: u64 = 20; // 2.5 times around the 8-slot ring
        const SWEEPS: u64 = 400;
        if e.rank == 0 {
            // One at a time, so that the receiver goes idle in between;
            // the credits that reopen the window come back through our ring.
            for _ in 0..PACKETS {
                let clear = |e: &Engine| e.ch.room(1, PacketKind::Credit) && e.ch.stages_idle();
                progress_until(ctx, e, clear);
                ctx.sleep(SimDuration::from_micros(5));
                let hdr = e.credit_header(1);
                e.transmit(ctx, 1, hdr, None, None, None);
            }
            return progress_until(ctx, e, |e| e.ch.stages_idle());
        }
        for _ in 0..SWEEPS {
            ctx.sleep(SimDuration::from_micros(1));
            e.progress(ctx);
        }
        let (packets, parses) = (e.stats.packets_processed, e.ch.slot_parses.get());
        assert!(packets >= PACKETS, "only {packets} packets made it round");
        // One parse per packet and at most one more, for the empty slot
        // behind it, plus the first look — not one per sweep.
        assert!(
            parses <= 2 * packets + 1,
            "{parses} parses for {packets} packets"
        );
        assert!(parses < SWEEPS / 4);
    });
}

#[test]
fn a_rewrite_of_the_awaited_slot_is_seen() {
    world(None, |ctx, e| {
        wire(ctx, e, 1 - e.rank);
        let buf = filled(e, 1);
        if e.rank == 0 {
            let req = e.isend(ctx, &buf, 1, 9).unwrap();
            e.wait(ctx, req).unwrap();
            // Let the receiver find slot 1 empty, then fail the write into
            // it for good: nothing lands, and the filler rewrites the slot.
            ctx.sleep(SimDuration::from_micros(50));
            fail_next_write(e, WcStatus::RemoteAccessError);
            let dead = e.isend(ctx, &buf, 1, 0).unwrap();
            let dead = e.wait(ctx, dead);
            assert!(matches!(dead, Err(MpiError::Transport { .. })), "{dead:?}");
            return e.quiesce(ctx);
        }
        let mut seen = Vec::new();
        let mut parses = 0;
        while seen.len() < 2 {
            ctx.sleep(SimDuration::from_micros(1));
            let (parsed, got) = sweep(ctx, e);
            parses += parsed;
            seen.extend(got.into_iter().map(|(_, kind, _)| kind));
        }
        assert_eq!(seen, [PacketKind::Eager, PacketKind::NackSend]);
        // The first look and each packet. The empty slot behind each is
        // not parsed: the failed write landed nothing and counts no write,
        // so the ring counts none beyond those consumed.
        assert_eq!(parses, 1 + 2);
    });
}

// ---- the watchdog heap's one armed wake ------------------------------------

/// A 16 KiB buffer: over the eager threshold, so a rendezvous.
fn rndv_buf(e: &Engine) -> Buffer {
    e.res.cluster().alloc_pages(e.res.mem(), 16 << 10).unwrap()
}

/// Block on the progress event, as `wait` does, until a progress pass
/// makes `until` hold; returns the instant that pass began.
fn wait_until(ctx: &mut Ctx, e: &mut Engine, until: impl Fn(&Engine) -> bool) -> SimTime {
    loop {
        let (seen, woke) = (e.progress_event.epoch(), ctx.now());
        e.progress(ctx);
        if until(e) {
            return woke;
        }
        ctx.wait_event(&e.progress_event, seen, "seam test");
    }
}

#[test]
fn a_thousand_rendezvous_arm_two_scheduler_wakes() {
    // A watchdog period the whole exchange (18 ms) fits in: none fires.
    let cfg = MpiConfig {
        ring_slots: SLOTS as u32,
        rndv_timeout: Some(SimDuration::from_millis(100)),
        ..MpiConfig::dcfa()
    };
    world_of(2, cfg, LaunchOpts::default(), |ctx, e| {
        let buf = rndv_buf(e);
        let reqs: Vec<Request> = if e.rank == 0 {
            // Every `isend` arms a watchdog a period out; the connect
            // armed one 500 us out before them.
            let post = |tag| e.isend(ctx, &buf, 1, tag).unwrap();
            (0..1000).map(post).collect()
        } else {
            // Sender-first: the RTSes are there before their receives.
            ctx.sleep(SimDuration::from_micros(100));
            let post = |tag| e.irecv(ctx, &buf, Src::Rank(0), TagSel::Tag(tag)).unwrap();
            (0..1000).map(post).collect()
        };
        e.waitall(ctx, &reqs).unwrap();
        e.quiesce(ctx);
        assert!(ctx.now().as_nanos() < 100_000_000, "before any was due");
        // The connect's, and the one it moved on to when it fired.
        let armed = e.wr.watchdog_wakes_armed;
        assert!(armed <= 2, "rank {}: {armed} wakes armed", e.rank);
        assert_eq!(e.stats.handshake_reissues, 0);
        // Each handshake cancelled its watchdog as it resolved.
        assert!(
            e.wr.watchdogs.is_empty(),
            "rank {}: a watchdog outlived its handshake",
            e.rank
        );
    });
}

#[test]
fn a_watchdog_fires_on_time_behind_five_hundred_resolved_ones() {
    world(None, |ctx, e| {
        let buf = rndv_buf(e);
        let period = e.cfg.rndv_timeout.unwrap();
        for tag in 0..500 {
            let req = match e.rank {
                0 => e.isend(ctx, &buf, 1, tag),
                _ => e.irecv(ctx, &buf, Src::Rank(0), TagSel::Tag(tag)),
            };
            e.wait(ctx, req.unwrap()).unwrap();
        }
        if e.rank == 1 {
            // Deaf for a period and a half: the RTS sits in the ring.
            ctx.sleep(period + period / 2);
            let req = e.irecv(ctx, &buf, Src::Rank(0), TagSel::Tag(500));
            return e.wait(ctx, req.unwrap()).map(drop).unwrap();
        }
        // Those took longer than a period, so the wake has fired and moved
        // on; whatever it is armed for now, it is not this one's deadline.
        let req = e.isend(ctx, &buf, 1, 500).unwrap();
        let due = ctx.now() + period;
        assert!(e.wr.watchdog_wake.is_some_and(|armed| armed < due));
        let woke = wait_until(ctx, e, |e| e.stats.handshake_reissues == 1);
        assert_eq!(woke, due, "re-issued at exactly its deadline");
        e.wait(ctx, req).unwrap();
    });
}

#[test]
fn a_connect_watchdog_fires_on_time_under_a_later_armed_wake() {
    let opts = LaunchOpts {
        conn_drops: Some((0, 1)), // the first connect Req is lost
        ..LaunchOpts::default()
    };
    world_with(None, opts, |ctx, e| {
        let buf = filled(e, 3);
        if e.rank == 1 {
            // From anyone: touches no peer, so rank 0's Req is the first.
            let req = e.irecv(ctx, &buf, Src::Any, TagSel::Tag(0)).unwrap();
            return e.wait(ctx, req).map(drop).unwrap();
        }
        // A wake a rendezvous period out is outstanding …
        let (src, hdr) = (1, ctrl(PacketKind::Rtr, 0));
        let awaiting = ReqState::RecvAwaitDone { src, hdr };
        let req = e.reqs.insert(awaiting.into());
        e.arm_watchdog(ctx, TimeoutKind::Handshake { req });
        let late = e.wr.watchdog_wake.unwrap();
        // … when the connect arms its watchdog, one command timeout out
        // (what `isend`'s first touch of a peer does).
        assert!(e.ch.connect(ctx, &e.res, &mut e.stats, 1).unwrap());
        let (peer, attempt) = (1, 1);
        e.arm_watchdog(ctx, TimeoutKind::Conn { peer, attempt });
        let due = ctx.now() + dcfa::CMD_TIMEOUT;
        assert_eq!(e.wr.watchdog_wake, Some(due));
        assert!(due < late && e.wr.watchdog_wakes_armed == 2);
        let woke = wait_until(ctx, e, |e| e.stats.conn_retries == 1);
        assert_eq!(woke, due, "retried at exactly its deadline");
        let req = e.isend(ctx, &buf, 1, 0).unwrap();
        e.wait(ctx, req).unwrap();
    });
}

// ---- the pairing row is one path for both origins --------------------------

#[test]
fn a_truncated_unexpected_eager_consumes_its_sequence_id() {
    world(None, |ctx, e| {
        wire(ctx, e, 1 - e.rank);
        let (small, large) = (filled(e, 5), rndv_buf(e));
        if e.rank == 0 {
            let req = e.isend(ctx, &small, 1, 0).unwrap();
            e.wait(ctx, req).unwrap();
            ctx.sleep(SimDuration::from_millis(1));
            let req = e.isend(ctx, &large, 1, 1).unwrap();
            return e.wait(ctx, req).map(drop).unwrap();
        }
        // The EAGER is in the unexpected queue when its receive is posted.
        ctx.sleep(SimDuration::from_micros(100));
        let tiny = e.res.cluster().alloc_pages(e.res.mem(), 8).unwrap();
        let req = e.irecv(ctx, &tiny, Src::Rank(0), TagSel::Tag(0)).unwrap();
        let got = e.wait(ctx, req);
        let truncated = MpiError::Truncated {
            got: 64,
            capacity: 8,
        };
        assert_eq!(got, Err(truncated));
        // The large receive's RTR names sequence id 1, not the spent 0, so
        // it is coupled to the message that will come.
        let req = e.irecv(ctx, &large, Src::Rank(0), TagSel::Tag(1)).unwrap();
        e.wait(ctx, req).unwrap();
    });
}

#[test]
fn a_nack_send_that_arrives_before_its_receive_fails_it() {
    world(None, |ctx, e| {
        let buf = filled(e, 1);
        if e.rank == 0 {
            let req = e.isend(ctx, &buf, 1, 9).unwrap();
            e.wait(ctx, req).unwrap();
            fail_next_write(e, WcStatus::RemoteAccessError);
            let dead = e.isend(ctx, &buf, 1, 0).unwrap();
            let dead = e.wait(ctx, dead);
            assert!(matches!(dead, Err(MpiError::Transport { .. })), "{dead:?}");
            return e.quiesce(ctx);
        }
        let first = e.irecv(ctx, &buf, Src::Rank(0), TagSel::Tag(9)).unwrap();
        e.wait(ctx, first).unwrap();
        // The NACK-SEND that replaced the dead EAGER is unexpected by now.
        ctx.sleep(SimDuration::from_millis(1));
        let lost = e.irecv(ctx, &buf, Src::Rank(0), TagSel::Tag(0)).unwrap();
        let lost = e.wait(ctx, lost);
        assert!(
            matches!(lost, Err(MpiError::RemoteTransport { .. })),
            "{lost:?}"
        );
    });
}

#[test]
fn a_nack_send_fails_the_receive_that_advertised_an_rtr() {
    let cfg = MpiConfig {
        ring_slots: SLOTS as u32,
        rndv_timeout: None,
        ..MpiConfig::dcfa()
    };
    world_of(2, cfg, LaunchOpts::default(), |ctx, e| {
        wire(ctx, e, 1 - e.rank);
        let buf = rndv_buf(e);
        if e.rank == 0 {
            // The RTR is on its way when the RTS goes out, and dies.
            ctx.sleep(SimDuration::from_micros(50));
            fail_next_write(e, WcStatus::RemoteAccessError);
            let dead = e.isend(ctx, &buf, 1, 0).unwrap();
            let dead = e.wait(ctx, dead);
            assert!(matches!(dead, Err(MpiError::Transport { .. })), "{dead:?}");
            return e.quiesce(ctx);
        }
        let lost = e.irecv(ctx, &buf, Src::Rank(0), TagSel::Tag(0)).unwrap();
        let lost = e.wait(ctx, lost);
        assert!(
            matches!(lost, Err(MpiError::RemoteTransport { .. })),
            "{lost:?}"
        );
    });
}

#[test]
fn taking_receives_back_leaves_nothing_held() {
    world(None, |ctx, e| {
        wire(ctx, e, 1 - e.rank);
        let (small, large) = (filled(e, 2), rndv_buf(e));
        if e.rank == 0 {
            let req = e.isend(ctx, &small, 1, 0).unwrap();
            return e.wait(ctx, req).map(drop).unwrap();
        }
        let ended = e.irecv(ctx, &small, Src::Rank(0), TagSel::Tag(0)).unwrap();
        progress_until(ctx, e, |e| {
            matches!(e.state(ended.0), Some(ReqState::Ended(_)))
        });
        let queued = e.irecv(ctx, &small, Src::Rank(0), TagSel::Tag(1)).unwrap();
        let advertised = e.irecv(ctx, &large, Src::Rank(0), TagSel::Tag(2)).unwrap();
        for req in [ended, queued, advertised] {
            e.cancel_recv(ctx, req);
        }
        assert_eq!(e.requests_live(), 0);
        assert!(e.mq.recv_q.is_empty());
        assert_eq!(e.cache.pinned(), 0, "the RTR's pin outlived its receive");
        assert!(e.wr.watchdogs.is_empty(), "a watchdog outlived its receive");
    });
}

#[test]
fn an_rtr_watchdog_reissues_to_a_deaf_sender_which_stashes_it_once() {
    world(None, |ctx, e| {
        wire(ctx, e, 1 - e.rank);
        let buf = rndv_buf(e);
        let period = e.cfg.rndv_timeout.unwrap();
        if e.rank == 0 {
            // Deaf for a period and a half: the RTR waits in the ring and
            // its re-issue joins it.
            ctx.sleep(period + period / 2);
            e.iprobe(ctx, Src::Rank(1), TagSel::Any);
            let req = e.isend(ctx, &buf, 1, 0).unwrap();
            assert_eq!(e.stats.rndv_recv_first, 1);
            assert!(e.pair(1).stashed_rtrs.is_empty(), "an RTR stashed twice");
            return e.wait(ctx, req).map(drop).unwrap();
        }
        let req = e.irecv(ctx, &buf, Src::Rank(0), TagSel::Tag(0)).unwrap();
        e.wait(ctx, req).unwrap();
        assert_eq!(e.stats.handshake_reissues, 1);
    });
}

// ---- a sweep runs only on news ----------------------------------------------

/// Call `progress` until a call finds no news; returns the progress epoch
/// then, so that whatever moves it next is the one news to sweep for.
fn quiet(ctx: &mut Ctx, e: &mut Engine) -> u64 {
    let skipped = e.gate.skipped;
    while e.gate.skipped == skipped {
        e.progress(ctx);
    }
    e.progress_event.epoch()
}

/// Park, as `wait` does, until the progress event moves past `seen`; then
/// `source` is the news a sweep would find, and the next call sweeps.
/// Returns the instant the rank woke.
fn news_from(ctx: &mut Ctx, e: &mut Engine, seen: u64, source: &str) -> SimTime {
    ctx.wait_event(&e.progress_event, seen, "news test");
    let woke = ctx.now();
    assert_ne!(e.progress_event.epoch(), seen);
    assert_eq!(e.news(ctx.now()), Some(source), "rank {}", e.rank);
    let run = e.gate.run;
    e.progress(ctx);
    assert_eq!(e.gate.run, run + 1, "{source}: the next call did not sweep");
    assert_eq!(e.news(ctx.now()), None, "{source}: the sweep left news");
    woke
}

#[test]
fn a_send_completion_and_an_arrival_notify_on_either_channel() {
    for srq_depth in [None, Some(16)] {
        world(srq_depth, |ctx, e| {
            wire(ctx, e, 1 - e.rank);
            let seen = quiet(ctx, e);
            if e.rank == 1 {
                // A ring write landing, or a completion in the pool's CQ.
                news_from(ctx, e, seen, "an inbound arrival");
                return;
            }
            ctx.sleep(SimDuration::from_micros(10));
            let seen = quiet(ctx, e);
            let hdr = e.credit_header(1);
            e.transmit(ctx, 1, hdr, None, None, None);
            news_from(ctx, e, seen, "a send completion");
        });
    }
}

#[test]
fn a_connect_request_notifies() {
    world(None, |ctx, e| {
        if e.rank == 1 {
            let seen = quiet(ctx, e);
            news_from(ctx, e, seen, "a connect message");
            return assert!(!e.ch.unwired(0), "the sweep wired the pair");
        }
        ctx.sleep(SimDuration::from_micros(10));
        e.ch.connect(ctx, &e.res, &mut e.stats, 1).unwrap();
        progress_until(ctx, e, |e| !e.ch.unwired(1));
    });
}

#[test]
fn a_peer_death_verdict_notifies() {
    let opts = LaunchOpts {
        health: Some(fabric::HealthBoard::new(2)),
        ..LaunchOpts::default()
    };
    world_with(None, opts, |ctx, e| {
        if e.rank == 1 {
            return;
        }
        let seen = quiet(ctx, e);
        let board = e.health.board.clone().expect("a health board");
        let sched = e.res.cluster().scheduler();
        board.promote_dead(sched, 1, ctx.now());
        news_from(ctx, e, seen, "a health verdict");
        assert_eq!(e.stats.peer_deaths_detected, 1);
    });
}

#[test]
fn a_retry_backoff_notifies_when_it_is_due() {
    world(None, |ctx, e| {
        wire(ctx, e, 1 - e.rank);
        if e.rank == 1 {
            return ctx.sleep(SimDuration::from_millis(1));
        }
        fail_next_write(e, WcStatus::TransportRetryExceeded);
        let seen = quiet(ctx, e);
        let hdr = e.credit_header(1);
        e.transmit(ctx, 1, hdr, None, None, None);
        // The failed completion's sweep puts the write in backoff.
        news_from(ctx, e, seen, "a send completion");
        let due = e.wr.retry_due.front().expect("a retry in backoff");
        let seen = quiet(ctx, e);
        let woke = news_from(ctx, e, seen, "a retry");
        assert_eq!((woke, e.stats.wr_retries), (due, 1));
        e.quiesce(ctx);
    });
}

#[test]
fn a_watchdog_notifies_when_it_is_due() {
    world(None, |ctx, e| {
        wire(ctx, e, 1 - e.rank);
        let period = e.cfg.rndv_timeout.unwrap();
        if e.rank == 1 {
            return ctx.sleep(period * 2);
        }
        let (src, hdr) = (1, ctrl(PacketKind::Rtr, 0));
        let req = e.reqs.insert(ReqState::RecvAwaitDone { src, hdr }.into());
        e.arm_watchdog(ctx, TimeoutKind::Handshake { req });
        let due = ctx.now() + period;
        let seen = quiet(ctx, e);
        let woke = news_from(ctx, e, seen, "a watchdog");
        assert_eq!((woke, e.stats.handshake_reissues), (due, 1));
        e.resolve(ctx, req, Err(MpiError::BadRequest));
        e.reqs.remove(req);
        e.quiesce(ctx);
    });
}

/// Sweeps run and skipped on each rank of a 2-rank world that ping-pongs
/// `ops` eager messages, each rank issuing one blocking operation apiece.
fn pingpong_sweeps(srq_depth: Option<u32>, ops: u32) -> Vec<(u64, u64)> {
    let counts = std::sync::Arc::new(simcore::SimCell::new(vec![(0, 0); 2]));
    let out = counts.clone();
    world(srq_depth, move |ctx, e| {
        let (peer, buf) = (1 - e.rank, filled(e, 5));
        for round in 0..ops {
            let (src, tag) = (Src::Rank(peer), TagSel::Tag(round));
            if (round + e.rank as u32).is_multiple_of(2) {
                let req = e.isend(ctx, &buf, peer, round).unwrap();
                e.wait(ctx, req).unwrap();
            } else {
                let req = e.irecv(ctx, &buf, src, tag).unwrap();
                e.wait(ctx, req).unwrap();
            }
        }
        counts.lock()[e.rank] = (e.gate.run, e.gate.skipped);
    });
    let counts = out.lock().clone();
    counts
}

#[test]
fn a_ten_op_pingpong_sweeps_only_on_news() {
    // (sweeps run, sweeps skipped) per rank. Rank 0 issues the first send,
    // so it waits less and skips more; the pool's arrivals need no first
    // look at a ring, so it runs one sweep fewer per rank.
    assert_eq!(pingpong_sweeps(None, 10), [(19, 15), (19, 10)]);
    assert_eq!(pingpong_sweeps(Some(16), 10), [(18, 12), (18, 7)]);
}
