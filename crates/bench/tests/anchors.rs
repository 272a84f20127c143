//! The virtual-time anchors every harness or engine change must leave
//! bit-for-bit: event counts, fingerprints and the committed metrics
//! baseline, on both receive channels. Virtual time is deterministic, so
//! these are exact on any machine; a change that moves one on purpose
//! re-pins it here in the same commit.

use bench::{Channel, Scenario};

fn on(channel: Channel, sc: Scenario) -> Scenario {
    Scenario { channel, ..sc }
}

#[test]
fn halo_64_on_both_channels() {
    for (channel, events, highwater) in [(Channel::Srq, 35_923, 1), (Channel::Ring, 19_552, 0)] {
        let run = bench::run(&on(channel, Scenario::halo_soak(64))).unwrap();
        assert_eq!(run.violations(), Vec::<String>::new(), "{channel:?}");
        assert_eq!(run.sim_events, events, "{channel:?}");
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
    for (ranks, channel, spec, events, fingerprint, ended) in [
        (
            64,
            Channel::Srq,
            four,
            51_060,
            0xc65a_d9c3_d861_647b_u64,
            (3308, 128, 404),
        ),
        (
            64,
            Channel::Ring,
            four,
            36_161,
            0x41d7_4285_6823_b9b3,
            (3320, 128, 392),
        ),
        (
            16,
            Channel::Srq,
            two,
            12_012,
            0xc1aa_3d09_59f2_8ad9,
            (731, 103, 62),
        ),
        (
            16,
            Channel::Ring,
            two,
            8_306,
            0xeaf6_9fd3_f350_a268,
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
    for (channel, fingerprint) in [
        (Channel::Srq, 0x9440_6c88_d093_a018_u64),
        (Channel::Ring, 0x5eeb_5684_2354_3b2f),
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
    assert_eq!(run.sim_events, 953);
    assert_eq!(
        without_wall(&bench::metrics_report_json(&run)),
        without_wall(&baseline)
    );
}
