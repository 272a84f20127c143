//! Fault-injection tests for the fault-tolerant data path: transient
//! faults must heal invisibly through retry/backoff, fatal faults must
//! fail exactly the owning request (NACKing the peer) while every other
//! transfer completes, and the protocol auditor must stay clean through
//! recovery — no rank ever panics.

use std::sync::Arc;

use dcfa_mpi::{
    launch, Comm, Communicator, LaunchOpts, MpiConfig, MpiError, Src, StatsReport, TagSel,
    TraceBuf, TraceEvent, TransportOp,
};
use fabric::{Cluster, ClusterConfig, NodeId};
use proptest::prelude::*;
use scif::ScifFabric;
use simcore::{Ctx, SimCell, SimDuration, Simulation};
use verbs::{FaultPlan, IbFabric, SendOpcode, WcStatus};

/// Run `nprocs` ranks with the given fault plans armed before launch;
/// returns the audited protocol event stream.
fn run_faulted<F>(cfg: MpiConfig, nprocs: usize, plans: Vec<FaultPlan>, f: F) -> Vec<TraceEvent>
where
    F: Fn(&mut Ctx, &mut Comm) + Send + Sync + 'static,
{
    let mut sim = Simulation::new();
    let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(nprocs.max(2)));
    let ib = IbFabric::new(cluster.clone());
    for p in plans {
        ib.inject_fault_plan(p);
    }
    let scif = ScifFabric::new(cluster);
    let tracer = TraceBuf::new(1 << 16);
    let opts = LaunchOpts {
        tracer: Some(tracer.clone()),
        ..Default::default()
    };
    launch(&sim, &ib, &scif, cfg, nprocs, opts, f);
    sim.run_expect();
    tracer.snapshot()
}

fn assert_audit_clean(events: &[TraceEvent]) -> dcfa_mpi::AuditReport {
    match dcfa_mpi::audit(events) {
        Ok(r) => r,
        Err(errs) => panic!("auditor found {} violations: {errs:#?}", errs.len()),
    }
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

fn report_slot() -> Arc<SimCell<Vec<StatsReport>>> {
    Arc::new(SimCell::new(Vec::new()))
}

// ---- eager path ------------------------------------------------------------

#[test]
fn eager_transient_fault_recovers_invisibly() {
    // First ring write by rank 0 completes with RNR-retry-exceeded; the
    // engine must re-post it and the message must arrive intact.
    let reports = report_slot();
    let r2 = reports.clone();
    let events = run_faulted(
        MpiConfig::dcfa(),
        2,
        vec![FaultPlan {
            status: WcStatus::RnrRetryExceeded,
            op: Some(SendOpcode::RdmaWrite),
            initiator: Some(NodeId(0)),
            ..Default::default()
        }],
        move |ctx, comm| {
            let buf = comm.alloc(1024).unwrap();
            if comm.rank() == 0 {
                for i in 0..4u8 {
                    comm.write(&buf, 0, &pattern(1024, i));
                    comm.send(ctx, &buf, 1, 10).unwrap();
                }
                r2.lock().push(comm.dump());
            } else {
                for i in 0..4u8 {
                    let st = comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(10)).unwrap();
                    assert_eq!(st.len, 1024);
                    assert_eq!(comm.read_vec(&buf), pattern(1024, i));
                }
            }
        },
    );
    let reports = reports.lock();
    let c = &reports[0].comm;
    assert!(c.wr_faults >= 1, "fault must be observed: {c:?}");
    assert!(c.wr_retries >= 1, "transient fault must be retried: {c:?}");
    assert_eq!(c.transport_failures, 0, "nothing may fail: {c:?}");
    let report = assert_audit_clean(&events);
    assert!(report.wr_retries >= 1);
}

#[test]
fn eager_fatal_fault_fails_only_the_owning_request() {
    // Every non-transient status is fatal for the owning request and for
    // nothing else — a protection error as much as an access error.
    eager_fatal_fault(WcStatus::RemoteAccessError);
    eager_fatal_fault(WcStatus::LocalProtectionError);
}

fn eager_fatal_fault(status: WcStatus) {
    // The first eager write (tag 1) dies permanently. The sender's wait
    // must return Transport, the receiver's matching recv RemoteTransport,
    // and the follow-up message (tag 2) must sail through untouched.
    let outcomes: Arc<SimCell<Vec<String>>> = Arc::new(SimCell::new(Vec::new()));
    let o2 = outcomes.clone();
    let events = run_faulted(
        MpiConfig::dcfa(),
        2,
        vec![FaultPlan {
            status,
            op: Some(SendOpcode::RdmaWrite),
            initiator: Some(NodeId(0)),
            ..Default::default()
        }],
        move |ctx, comm| {
            let buf = comm.alloc(512).unwrap();
            if comm.rank() == 0 {
                comm.write(&buf, 0, &pattern(512, 1));
                let err = comm.send(ctx, &buf, 1, 1).unwrap_err();
                assert!(
                    matches!(
                        err,
                        MpiError::Transport {
                            op: TransportOp::EagerWrite,
                            status: s,
                            ..
                        } if s == status
                    ),
                    "sender error: {err:?}"
                );
                o2.lock().push(format!("send1 {err}"));
                comm.write(&buf, 0, &pattern(512, 2));
                comm.send(ctx, &buf, 1, 2).unwrap();
                o2.lock().push("send2 ok".into());
            } else {
                let err = comm
                    .recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1))
                    .unwrap_err();
                assert!(
                    matches!(err, MpiError::RemoteTransport { peer: 0, .. }),
                    "receiver error: {err:?}"
                );
                comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(2)).unwrap();
                assert_eq!(comm.read_vec(&buf), pattern(512, 2));
            }
        },
    );
    assert_eq!(outcomes.lock().len(), 2);
    let report = assert_audit_clean(&events);
    assert!(report.transport_failures >= 1);
    assert!(report.nacks >= 1, "the dead slot must carry a NACK");
}

// ---- rendezvous RDMA READ (sender-first) -----------------------------------

#[test]
fn rndv_read_fatal_fails_both_ends_then_heals() {
    // The receiver's RDMA READ dies permanently: the receive fails with
    // Transport{RndvRead}, the sender is NACKed into RemoteTransport, and
    // the next transfer over the same pair succeeds.
    let len: u64 = 256 << 10;
    let events = run_faulted(
        MpiConfig::dcfa(),
        2,
        vec![FaultPlan {
            status: WcStatus::RemoteAccessError,
            op: Some(SendOpcode::RdmaRead),
            initiator: Some(NodeId(1)),
            ..Default::default()
        }],
        move |ctx, comm| {
            let buf = comm.alloc(len).unwrap();
            if comm.rank() == 0 {
                comm.write(&buf, 0, &pattern(len as usize, 7));
                let err = comm.send(ctx, &buf, 1, 1).unwrap_err();
                assert!(
                    matches!(err, MpiError::RemoteTransport { peer: 1, .. }),
                    "sender error: {err:?}"
                );
                comm.send(ctx, &buf, 1, 2).unwrap();
            } else {
                // Arrive late so the sender-first (RTS → RDMA READ) path runs.
                ctx.sleep(SimDuration::from_millis(1));
                let err = comm
                    .recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1))
                    .unwrap_err();
                assert!(
                    matches!(
                        err,
                        MpiError::Transport {
                            op: TransportOp::RndvRead,
                            ..
                        }
                    ),
                    "receiver error: {err:?}"
                );
                let st = comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(2)).unwrap();
                assert_eq!(st.len, len);
                assert_eq!(comm.read_vec(&buf), pattern(len as usize, 7));
            }
        },
    );
    let report = assert_audit_clean(&events);
    assert!(report.transport_failures >= 1);
    assert!(report.nacks >= 1);
}

// ---- rendezvous RDMA WRITE (receiver-first) --------------------------------

#[test]
fn rndv_write_fatal_fails_both_ends_then_heals() {
    // min_bytes isolates the 64 KiB rendezvous WRITE from the ~8 KiB ring
    // writes. The sender fails with Transport{RndvWrite}; the receiver is
    // NACK-WRITEd into RemoteTransport; the retry transfer succeeds.
    let len: u64 = 64 << 10;
    let events = run_faulted(
        MpiConfig::dcfa(),
        2,
        vec![FaultPlan {
            status: WcStatus::RemoteAccessError,
            op: Some(SendOpcode::RdmaWrite),
            initiator: Some(NodeId(0)),
            min_bytes: 32 << 10,
            ..Default::default()
        }],
        move |ctx, comm| {
            let buf = comm.alloc(len).unwrap();
            if comm.rank() == 0 {
                // Arrive late so the receiver-first (RTR → RDMA WRITE) path
                // runs; the probes pump progress so the arrived RTR is
                // stashed before isend decides (otherwise the send would go
                // RTS-first and resolve as a simultaneous rendezvous). Two
                // beats: the first serves the receiver's lazy connect
                // request (only then can its queued RTR transmit), the
                // second processes the RTR itself.
                ctx.sleep(SimDuration::from_millis(2));
                let _ = comm.iprobe(ctx, Src::Rank(1), TagSel::Tag(999));
                ctx.sleep(SimDuration::from_millis(1));
                let _ = comm.iprobe(ctx, Src::Rank(1), TagSel::Tag(999));
                comm.write(&buf, 0, &pattern(len as usize, 3));
                let err = comm.send(ctx, &buf, 1, 1).unwrap_err();
                assert!(
                    matches!(
                        err,
                        MpiError::Transport {
                            op: TransportOp::RndvWrite,
                            ..
                        }
                    ),
                    "sender error: {err:?}"
                );
                comm.send(ctx, &buf, 1, 2).unwrap();
            } else {
                let err = comm
                    .recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1))
                    .unwrap_err();
                assert!(
                    matches!(err, MpiError::RemoteTransport { peer: 0, .. }),
                    "receiver error: {err:?}"
                );
                let st = comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(2)).unwrap();
                assert_eq!(st.len, len);
                assert_eq!(comm.read_vec(&buf), pattern(len as usize, 3));
            }
        },
    );
    let report = assert_audit_clean(&events);
    assert!(report.transport_failures >= 1);
    assert!(report.nacks >= 1);
}

// ---- control packets (RTR handshake, completion packets) -------------------

#[test]
fn rtr_transient_fault_recovers_invisibly() {
    // The receiver's first ring write is its RTR; fault it transiently.
    let reports = report_slot();
    let r2 = reports.clone();
    let len: u64 = 128 << 10;
    let events = run_faulted(
        MpiConfig::dcfa(),
        2,
        vec![FaultPlan {
            status: WcStatus::TransportRetryExceeded,
            op: Some(SendOpcode::RdmaWrite),
            initiator: Some(NodeId(1)),
            ..Default::default()
        }],
        move |ctx, comm| {
            let buf = comm.alloc(len).unwrap();
            if comm.rank() == 0 {
                ctx.sleep(SimDuration::from_millis(2));
                comm.write(&buf, 0, &pattern(len as usize, 5));
                comm.send(ctx, &buf, 1, 1).unwrap();
            } else {
                let st = comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
                assert_eq!(st.len, len);
                assert_eq!(comm.read_vec(&buf), pattern(len as usize, 5));
                r2.lock().push(comm.dump());
            }
        },
    );
    let reports = reports.lock();
    let c = &reports[0].comm;
    assert!(c.wr_retries >= 1, "RTR must be retried: {c:?}");
    assert_eq!(c.transport_failures, 0, "nothing may fail: {c:?}");
    assert_audit_clean(&events);
}

#[test]
fn rtr_fatal_fault_fails_the_receive_and_nacks_the_late_sender() {
    // The receiver's RTR dies permanently: its receive fails locally with
    // Transport{CtrlWrite}; when the late sender's RTS for the same pair
    // sequence arrives, it is NACKed into RemoteTransport. The pair stays
    // healthy for the follow-up transfer.
    let len: u64 = 128 << 10;
    let events = run_faulted(
        MpiConfig::dcfa(),
        2,
        vec![FaultPlan {
            status: WcStatus::RemoteAccessError,
            op: Some(SendOpcode::RdmaWrite),
            initiator: Some(NodeId(1)),
            ..Default::default()
        }],
        move |ctx, comm| {
            let buf = comm.alloc(len).unwrap();
            if comm.rank() == 0 {
                ctx.sleep(SimDuration::from_millis(2));
                let err = comm.send(ctx, &buf, 1, 1).unwrap_err();
                assert!(
                    matches!(err, MpiError::RemoteTransport { peer: 1, .. }),
                    "sender error: {err:?}"
                );
                comm.write(&buf, 0, &pattern(len as usize, 8));
                comm.send(ctx, &buf, 1, 2).unwrap();
            } else {
                let err = comm
                    .recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1))
                    .unwrap_err();
                assert!(
                    matches!(
                        err,
                        MpiError::Transport {
                            op: TransportOp::CtrlWrite,
                            ..
                        }
                    ),
                    "receiver error: {err:?}"
                );
                let st = comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(2)).unwrap();
                assert_eq!(st.len, len);
                assert_eq!(comm.read_vec(&buf), pattern(len as usize, 8));
            }
        },
    );
    let report = assert_audit_clean(&events);
    assert!(report.transport_failures >= 1);
}

#[test]
fn fatal_fault_on_completion_packet_is_retried_not_swallowed() {
    // Regression for the old `CTRL_WR` early return, which silently
    // swallowed every control-write completion error. A faulted DONE (an
    // ownerless completion packet) must be re-posted — dropping it would
    // wedge the sender forever — and the transfer must still complete.
    let reports = report_slot();
    let r2 = reports.clone();
    let len: u64 = 256 << 10;
    let events = run_faulted(
        MpiConfig::dcfa(),
        2,
        vec![FaultPlan {
            status: WcStatus::RemoteAccessError,
            op: Some(SendOpcode::RdmaWrite),
            initiator: Some(NodeId(1)),
            ..Default::default()
        }],
        move |ctx, comm| {
            let buf = comm.alloc(len).unwrap();
            let flush = comm.alloc(64).unwrap();
            if comm.rank() == 0 {
                comm.write(&buf, 0, &pattern(len as usize, 6));
                // This only completes once the receiver's (faulted, then
                // re-posted) DONE arrives.
                comm.send(ctx, &buf, 1, 1).unwrap();
                comm.send(ctx, &flush, 1, 2).unwrap();
            } else {
                // Arrive late: sender-first path, so the receiver's first
                // ring write is its DONE after the RDMA READ. The probe
                // blocks until the sender's RTS is actually here (with
                // lazy connections the pair only establishes once this
                // rank pumps progress, so a fixed sleep no longer
                // guarantees arrival).
                ctx.sleep(SimDuration::from_millis(1));
                comm.probe(ctx, Src::Rank(0), TagSel::Tag(1)).unwrap();
                let st = comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
                assert_eq!(st.len, len);
                assert_eq!(comm.read_vec(&buf), pattern(len as usize, 6));
                // The local receive completes at RDMA-READ time, before the
                // DONE's error completion even arrives; waiting for the
                // sender's flush keeps the engine progressing through the
                // fault + retry so the counters below are in the snapshot.
                comm.recv(ctx, &flush, Src::Rank(0), TagSel::Tag(2))
                    .unwrap();
                r2.lock().push(comm.dump());
            }
        },
    );
    let reports = reports.lock();
    let c = &reports[0].comm;
    assert!(c.wr_faults >= 1, "the ctrl fault must be observed: {c:?}");
    assert!(
        c.wr_retries >= 1,
        "the ctrl packet must be re-posted: {c:?}"
    );
    assert_eq!(c.transport_failures, 0, "no request may fail: {c:?}");
    assert_audit_clean(&events);
}

// ---- rendezvous handshake watchdog -----------------------------------------

#[test]
fn handshake_timeout_reissues_rts_until_answered() {
    // Shrink the watchdog so it fires while the receiver dawdles. The
    // re-issued RTS copies are deduplicated by pair sequence id and the
    // auditor accepts them via the recorded retransmissions.
    let cfg = MpiConfig {
        rndv_timeout: Some(SimDuration::from_micros(50)),
        ..MpiConfig::dcfa()
    };
    let reports = report_slot();
    let r2 = reports.clone();
    let len: u64 = 64 << 10;
    let events = run_faulted(cfg, 2, vec![], move |ctx, comm| {
        let buf = comm.alloc(len).unwrap();
        if comm.rank() == 0 {
            comm.write(&buf, 0, &pattern(len as usize, 4));
            comm.send(ctx, &buf, 1, 1).unwrap();
            r2.lock().push(comm.dump());
        } else {
            ctx.sleep(SimDuration::from_micros(400));
            let st = comm.recv(ctx, &buf, Src::Rank(0), TagSel::Tag(1)).unwrap();
            assert_eq!(st.len, len);
            assert_eq!(comm.read_vec(&buf), pattern(len as usize, 4));
        }
    });
    let reports = reports.lock();
    let c = &reports[0].comm;
    assert!(
        c.handshake_reissues >= 1,
        "watchdog must have re-issued the RTS: {c:?}"
    );
    let report = assert_audit_clean(&events);
    assert!(report.retransmissions >= 1);
}

// ---- multi-rank soak -------------------------------------------------------

#[test]
fn four_rank_mixed_workload_heals_transient_link_faults() {
    // Several transient link faults sprayed across the fabric during a
    // 4-rank mixed eager + rendezvous + ANY_SOURCE workload: every
    // operation must succeed and the auditor must stay clean.
    let reports = report_slot();
    let r2 = reports.clone();
    let links = vec![
        FaultPlan {
            status: WcStatus::RnrRetryExceeded,
            ..Default::default()
        },
        FaultPlan {
            status: WcStatus::TransportRetryExceeded,
            after_matches: 5,
            initiator: Some(NodeId(1)),
            ..Default::default()
        },
        FaultPlan {
            status: WcStatus::RnrRetryExceeded,
            after_matches: 3,
            target: Some(NodeId(0)),
            ..Default::default()
        },
    ];
    let events = run_faulted(MpiConfig::dcfa(), 4, links, move |ctx, comm| {
        let (r, n) = (comm.rank(), comm.size());
        let next = (r + 1) % n;
        let prev = (r + n - 1) % n;
        let small = comm.alloc(512).unwrap();
        let srx = comm.alloc(512).unwrap();
        let big = comm.alloc(64 << 10).unwrap();
        for _ in 0..6 {
            let rr = comm
                .irecv(ctx, &srx, Src::Rank(prev), TagSel::Tag(10))
                .unwrap();
            let sr = comm.isend(ctx, &small, next, 10).unwrap();
            comm.waitall(ctx, &[sr, rr]).unwrap();
        }
        let peer = r ^ 1;
        if r % 2 == 0 {
            comm.send(ctx, &big, peer, 20).unwrap();
        } else {
            comm.recv(ctx, &big, Src::Rank(peer), TagSel::Tag(20))
                .unwrap();
        }
        if r == 0 {
            for _ in 1..n {
                comm.recv(ctx, &srx, Src::Any, TagSel::Any).unwrap();
            }
        } else {
            comm.send(ctx, &small, 0, 30).unwrap();
        }
        r2.lock().push(comm.dump());
    });
    let reports = reports.lock();
    assert_eq!(reports.len(), 4);
    let retries: u64 = reports.iter().map(|r| r.comm.wr_retries).sum();
    let failures: u64 = reports.iter().map(|r| r.comm.transport_failures).sum();
    assert!(retries >= 1, "link faults must surface as retries");
    assert_eq!(failures, 0, "transient faults may not fail any request");
    assert_audit_clean(&events);
}

// ---- waitall / waitany regressions -----------------------------------------

#[test]
fn waitall_completes_every_request_despite_an_early_error() {
    // Regression: `waitall` used to `?`-abandon the remaining requests on
    // the first error, leaking their protocol state. A truncated receive
    // in the middle must not stop the healthy ones on either side.
    let done = Arc::new(SimCell::new(false));
    let d2 = done.clone();
    let events = run_faulted(MpiConfig::dcfa(), 2, vec![], move |ctx, comm| {
        if comm.rank() == 0 {
            let small = comm.alloc(512).unwrap();
            let big = comm.alloc(128 << 10).unwrap();
            comm.write(&small, 0, &pattern(512, 1));
            comm.send(ctx, &small, 1, 1).unwrap();
            comm.send(ctx, &big, 1, 2).unwrap();
            comm.write(&small, 0, &pattern(512, 3));
            comm.send(ctx, &small, 1, 3).unwrap();
            // The engine must not be wedged afterwards.
            comm.recv(ctx, &small, Src::Rank(1), TagSel::Tag(4))
                .unwrap();
        } else {
            let b1 = comm.alloc(512).unwrap();
            let tiny = comm.alloc(4 << 10).unwrap(); // truncates the 128 KiB send
            let b3 = comm.alloc(512).unwrap();
            let r1 = comm.irecv(ctx, &b1, Src::Rank(0), TagSel::Tag(1)).unwrap();
            let r2 = comm
                .irecv(ctx, &tiny, Src::Rank(0), TagSel::Tag(2))
                .unwrap();
            let r3 = comm.irecv(ctx, &b3, Src::Rank(0), TagSel::Tag(3)).unwrap();
            let err = comm.waitall(ctx, &[r1, r2, r3]).unwrap_err();
            assert!(
                matches!(err, MpiError::Truncated { got, capacity }
                    if got == 128 << 10 && capacity == 4 << 10),
                "unexpected waitall error: {err:?}"
            );
            // The healthy requests were driven to completion: their data
            // landed even though waitall reported the truncation.
            assert_eq!(comm.read_vec(&b1), pattern(512, 1));
            assert_eq!(comm.read_vec(&b3), pattern(512, 3));
            comm.send(ctx, &b3, 0, 4).unwrap();
            *d2.lock() = true;
        }
    });
    assert!(*done.lock());
    assert_audit_clean(&events);
}

#[test]
fn waitany_skips_consumed_requests_without_masking_completions() {
    // Regression: request ids absent from the table (already consumed)
    // used to mask real completions. After consuming one request, passing
    // the stale id alongside a live one must still surface the live
    // completion — and an all-consumed set is a `BadRequest` error.
    let done = Arc::new(SimCell::new(false));
    let d2 = done.clone();
    let events = run_faulted(MpiConfig::dcfa(), 2, vec![], move |ctx, comm| {
        if comm.rank() == 0 {
            let buf = comm.alloc(256).unwrap();
            comm.write(&buf, 0, &pattern(256, 2));
            comm.send(ctx, &buf, 1, 2).unwrap();
            ctx.sleep(SimDuration::from_micros(200));
            comm.write(&buf, 0, &pattern(256, 1));
            comm.send(ctx, &buf, 1, 1).unwrap();
        } else {
            let b1 = comm.alloc(256).unwrap();
            let b2 = comm.alloc(256).unwrap();
            let r1 = comm.irecv(ctx, &b1, Src::Rank(0), TagSel::Tag(1)).unwrap();
            let r2 = comm.irecv(ctx, &b2, Src::Rank(0), TagSel::Tag(2)).unwrap();
            // Tag 2 arrives first.
            let (idx, st) = comm.waitany(ctx, &[r1, r2]);
            assert_eq!(idx, 1);
            assert_eq!(st.unwrap().tag, 2);
            // r2 is now consumed; its stale id must not mask r1.
            let (idx, st) = comm.waitany(ctx, &[r1, r2]);
            assert_eq!(idx, 0);
            assert_eq!(st.unwrap().tag, 1);
            assert_eq!(comm.read_vec(&b1), pattern(256, 1));
            // Every id consumed: error, not a hang.
            let (_, st) = comm.waitany(ctx, &[r1, r2]);
            assert!(matches!(st.unwrap_err(), MpiError::BadRequest));
            *d2.lock() = true;
        }
    });
    assert!(*done.lock());
    assert_audit_clean(&events);
}

// ---- property: random transient fault plans never corrupt the stream -------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_transient_faults_never_violate_seq_order(
        faults in proptest::collection::vec(
            (
                0u64..24,
                prop_oneof![
                    Just(WcStatus::RnrRetryExceeded),
                    Just(WcStatus::TransportRetryExceeded)
                ],
            ),
            1..6,
        )
    ) {
        // A generous retry budget so stacked fault plans draining onto one
        // re-posted WR can never exhaust it (each plan is one-shot).
        let cfg = MpiConfig { retry_limit: 16, ..MpiConfig::dcfa() };
        let links = faults
            .iter()
            .map(|&(after_matches, status)| FaultPlan { status, after_matches, ..Default::default() })
            .collect();
        let events = run_faulted(cfg, 2, links, move |ctx, comm| {
            let peer = 1 - comm.rank();
            let small = comm.alloc(512).unwrap();
            let srx = comm.alloc(512).unwrap();
            let big = comm.alloc(32 << 10).unwrap();
            let brx = comm.alloc(32 << 10).unwrap();
            for tag in 0..5u32 {
                let rr = comm.irecv(ctx, &srx, Src::Rank(peer), TagSel::Tag(tag)).unwrap();
                let sr = comm.isend(ctx, &small, peer, tag).unwrap();
                comm.waitall(ctx, &[sr, rr]).unwrap();
            }
            let rr = comm.irecv(ctx, &brx, Src::Rank(peer), TagSel::Tag(99)).unwrap();
            let sr = comm.isend(ctx, &big, peer, 99).unwrap();
            comm.waitall(ctx, &[sr, rr]).unwrap();
        });
        // run_expect already proved termination; the audit proves per-pair
        // sequence monotonicity and exactly-once delivery under retry.
        match dcfa_mpi::audit(&events) {
            Ok(_) => {}
            Err(errs) => prop_assert!(false, "audit violations: {errs:#?}"),
        }
    }
}
