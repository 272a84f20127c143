//! The virtual-time anchors every harness or engine change must leave
//! bit-for-bit: event counts, fingerprints and the committed metrics
//! baseline, on both receive channels. Virtual time is deterministic, so
//! these are exact on any machine; a change that moves one on purpose
//! re-pins it here in the same commit.
//!
//! Each run is pinned twice: `fingerprint()` mixes the scheduler's event
//! count and the trace length, and so moves whenever the simulator does
//! the same thing in fewer events or records a different number of trace
//! events; `virtual_fingerprint()` leaves both out and moves only when the
//! modelled system behaves differently. A simulator- or recording-side
//! change re-pins the first column and the event counts and must leave
//! the second alone.

use bench::{Channel, Scenario};

fn on(channel: Channel, sc: Scenario) -> Scenario {
    Scenario { channel, ..sc }
}

#[test]
fn halo_64_on_both_channels() {
    for (channel, events, virt, highwater) in [
        (Channel::Srq, 29_971, 0x5d4d_1f44_dccd_1fa2_u64, 1),
        (Channel::Ring, 13_024, 0xde24_b6e7_dbec_6986, 0),
    ] {
        let run = bench::run(&on(channel, Scenario::halo_soak(64))).unwrap();
        assert_eq!(run.violations(), Vec::<String>::new(), "{channel:?}");
        assert_eq!(run.sim_events, events, "{channel:?}");
        assert_eq!(run.virtual_fingerprint(), virt, "{channel:?}");
        assert_eq!((run.tally.ok, run.tally.failed), (2048, 0), "{channel:?}");
        assert_eq!(run.established_pairs(), 256);
        assert_eq!(run.bytes_per_rank(), 4_217_344);
        assert_eq!(run.srq_highwater(), highwater, "{channel:?}");
    }
}

#[test]
fn kill_soaks_fingerprint() {
    let four = "10:kill@7,25:kill@31,40:kill@12,55:kill@50";
    let two = "5:kill@3,20:kill@11";
    for (ranks, channel, spec, events, fingerprint, virt, ended) in [
        (
            64,
            Channel::Srq,
            four,
            43_602,
            0xcdf8_5921_2606_307b_u64,
            0x5898_3d68_2b4d_ec01,
            (3308, 128, 404),
        ),
        (
            64,
            Channel::Ring,
            four,
            27_368,
            0x271c_0e2a_e5f9_1218,
            0x5ee1_c862_1807_6012,
            (3320, 128, 392),
        ),
        (
            16,
            Channel::Srq,
            two,
            10_230,
            0x2f95_d7ba_896a_58eb,
            0xf8ea_0bc0_e0a2_8ccc,
            (731, 103, 62),
        ),
        (
            16,
            Channel::Ring,
            two,
            6_234,
            0x4df7_ea3e_7872_c5ef,
            0x91d4_7b9f_dd9e_4f73,
            (724, 103, 69),
        ),
    ] {
        let run = bench::run(&Scenario {
            channel,
            faults: spec.parse().unwrap(),
            ..Scenario::halo_soak(ranks)
        })
        .unwrap();
        let t = &run.tally;
        assert_eq!(
            run.violations(),
            Vec::<String>::new(),
            "{ranks} {channel:?}"
        );
        assert_eq!(run.sim_events, events, "{ranks} {channel:?}");
        assert_eq!(run.fingerprint(), fingerprint, "{ranks} {channel:?}");
        assert_eq!(run.virtual_fingerprint(), virt, "{ranks} {channel:?}");
        assert_eq!(
            (t.ok, t.peer_failed, t.revoked),
            ended,
            "{ranks} {channel:?}"
        );
    }
}

#[test]
fn chaos_seed_1_schedule_fingerprint_and_replay() {
    let mut sc = Scenario {
        faults: Default::default(),
        ..Scenario::halo_soak(64)
    };
    sc.faults.kills = bench::chaos_schedule(1, 64).unwrap();
    assert_eq!(sc.faults.to_string(), "13:kill@39,59:kill@30");
    for (channel, fingerprint, virt) in [
        (
            Channel::Srq,
            0xf84a_2720_7fb3_f1ce_u64,
            0xced1_55d6_6f93_e0aa_u64,
        ),
        (Channel::Ring, 0xaf35_59cb_8c66_9ff5, 0x9fe7_fa19_78ee_97c9),
    ] {
        let chaos = bench::chaos_run(&on(channel, sc.clone())).unwrap();
        assert_eq!(
            chaos.first.violations(),
            Vec::<String>::new(),
            "{channel:?}"
        );
        assert!(chaos.minimal.is_none(), "{channel:?}");
        assert_eq!(chaos.first.fingerprint(), fingerprint, "{channel:?}");
        assert_eq!(chaos.replay_fingerprint, fingerprint, "{channel:?}");
        assert_eq!(chaos.first.virtual_fingerprint(), virt, "{channel:?}");
    }
}

/// The report minus its `wall` line (real machine time, never gated).
fn without_wall(report: &str) -> String {
    let kept: Vec<&str> = report
        .lines()
        .filter(|l| !l.starts_with("\"wall\":"))
        .collect();
    kept.join("\n")
}

#[test]
fn profile_report_equals_committed_baseline() {
    let baseline = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/baseline_metrics.json"
    ))
    .expect("committed baseline");
    let run = bench::run(&Scenario::default()).unwrap();
    assert_eq!(run.violations(), Vec::<String>::new());
    assert_eq!(run.sim_events, 613);
    assert_eq!(run.fingerprint(), 0x1db8_83d3_4bb5_f22f);
    assert_eq!(run.virtual_fingerprint(), 0xda35_ba15_f777_b4f9);
    assert_eq!(
        without_wall(&bench::metrics_report_json(&run)),
        without_wall(&baseline)
    );
}

/// CI's daemon-chaos soak (`repro --faults "6:crash,20:drop@1,35:delay"`):
/// a crash, a lost reply and a held reply on the 4-rank mixed scenario.
#[test]
fn daemon_chaos_soak_fingerprint() {
    let run = bench::run(&Scenario {
        faults: "6:crash,20:drop@1,35:delay".parse().unwrap(),
        ..Scenario::default()
    })
    .unwrap();
    assert_eq!(run.violations(), Vec::<String>::new());
    assert_eq!(run.sim_events, 926);
    assert_eq!(run.fingerprint(), 0x610c_727f_190a_119d);
    assert_eq!(run.virtual_fingerprint(), 0x00ac_21fd_ec52_7e4b);
}

/// CI's link-fault soak (`repro --faults "2:transient,9:fatal@0->1,…"`) on
/// the 4-rank mixed scenario, on both channels: a transient fault, a fatal
/// one on the 0→1 link and a retry-exhaustion on any link into node 2. The
/// `17:retry@*->2` spec never fires its third term (the run posts too few
/// matching work requests), and the run's gates name it; `5:retry@*->2`
/// fires all three.
#[test]
fn link_fault_soak_fingerprint() {
    let old = "2:transient,9:fatal@0->1,17:retry@*->2";
    let new = "2:transient,9:fatal@0->1,5:retry@*->2";
    for (spec, channel, events, fingerprint, virt, faults) in [
        (
            old,
            Channel::Ring,
            624,
            0x2d7b_008a_7838_3cee_u64,
            0x0f01_26fc_0ec7_1278_u64,
            (2, 1),
        ),
        (
            old,
            Channel::Srq,
            1_695,
            0x840a_08ac_c685_259b,
            0x2f48_46ac_6c25_d996,
            (2, 1),
        ),
        (
            new,
            Channel::Ring,
            628,
            0x3c7a_288c_a6ed_f2a5,
            0xb25d_8c86_1f14_a8c9,
            (3, 2),
        ),
        (
            new,
            Channel::Srq,
            1_698,
            0x9347_44fc_8b08_57a2,
            0x18ff_fc53_e1cb_3120,
            (3, 2),
        ),
    ] {
        let run = bench::run(&Scenario {
            channel,
            faults: spec.parse().unwrap(),
            ..Scenario::default()
        })
        .unwrap();
        let t = &run.tally;
        let unfired = (spec == old)
            .then(|| "link fault `retry@*->2` never fired (6 matching posts short)".to_string());
        assert_eq!(
            run.violations(),
            Vec::from_iter(unfired),
            "{spec} {channel:?}"
        );
        assert_eq!(run.sim_events, events, "{spec} {channel:?}");
        assert_eq!(run.fingerprint(), fingerprint, "{spec} {channel:?}");
        assert_eq!(run.virtual_fingerprint(), virt, "{spec} {channel:?}");
        assert_eq!((t.ok, t.failed), (76, 2), "{spec} {channel:?}");
        let audit = run.audit.as_ref().unwrap();
        assert_eq!(
            (audit.wr_faults, audit.wr_retries),
            faults,
            "{spec} {channel:?}"
        );
    }
}
