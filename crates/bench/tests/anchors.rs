//! The virtual-time anchors every harness or engine change must leave
//! bit-for-bit: event counts, fingerprints and the committed metrics
//! baseline, on both receive channels. Virtual time is deterministic, so
//! these are exact on any machine; a change that moves one on purpose
//! re-pins it here in the same commit.
//!
//! Each run is pinned twice: `fingerprint()` mixes the scheduler's event
//! count and so moves whenever the simulator does the same thing in fewer
//! events; `virtual_fingerprint()` leaves it out and moves only when the
//! modelled system behaves differently. A simulator-side change re-pins
//! the first column and the event counts and must leave the second alone.

use bench::{Channel, Scenario};

fn on(channel: Channel, sc: Scenario) -> Scenario {
    Scenario { channel, ..sc }
}

#[test]
fn halo_64_on_both_channels() {
    for (channel, events, virt, highwater) in [
        (Channel::Srq, 32_979, 0xc495_6f24_ea55_8e71_u64, 1),
        (Channel::Ring, 16_416, 0xd11f_849b_e596_a615, 0),
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
            47_382,
            0x73cd_0768_f5d3_c8c6_u64,
            0x52ce_2609_1671_a087,
            (3308, 128, 404),
        ),
        (
            64,
            Channel::Ring,
            four,
            31_980,
            0xfecd_0ea7_13d8_f7cc,
            0xadb9_a216_8555_6e5c,
            (3320, 128, 392),
        ),
        (
            16,
            Channel::Srq,
            two,
            11_130,
            0x3db4_2926_1d94_6b57,
            0xd754_9a98_d362_4bd4,
            (731, 103, 62),
        ),
        (
            16,
            Channel::Ring,
            two,
            7_318,
            0x8a4f_8f6c_c199_9c67,
            0xdc70_d295_79fd_44c5,
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
            0x1666_f69d_caa2_d2c1_u64,
            0xbd47_b49a_f0b8_e8c7_u64,
        ),
        (Channel::Ring, 0xa701_de9e_2d64_6efb, 0x754a_6d9a_6825_0eb4),
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
    assert_eq!(run.sim_events, 785);
    assert_eq!(run.fingerprint(), 0x605b_c2db_85e2_85ef);
    assert_eq!(run.virtual_fingerprint(), 0x5723_4ca4_82e3_2ccf);
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
    assert_eq!(run.sim_events, 1_202);
    assert_eq!(run.fingerprint(), 0x8d4e_0d22_e441_d277);
    assert_eq!(run.virtual_fingerprint(), 0xec4a_c138_b831_dfc1);
}
