//! The `--faults` grammar (`bench::spec`) and the range checks of
//! `Scenario::validate`, pinned as one table.

use bench::{Channel, Faults, Scenario, Workload};
use dcfa::DaemonFaultKind;
use dcfa_mpi::KillSpec;
use fabric::NodeId;
use verbs::{FaultPlan, WcStatus};

/// Every valid and every rejected term the unit tests of the three retired
/// per-plane parsers (link faults in `fabric`, daemon faults in `dcfa`,
/// the kill schedule in `repro`) held, plus the range checks the kill
/// parser did: (spec, ranks of the halo it is armed on, expected error
/// fragment or `None` for accepted).
#[test]
fn grammar_and_range_table() {
    let table: &[(&str, usize, Option<&str>)] = &[
        // link plane
        ("2:transient, 9:fatal@0->1, 0:retry@*->3", 8, None),
        ("1:rnr,1:access@*->*", 8, None),
        ("", 8, Some("empty")),
        ("transient", 8, Some("expected <after>")),
        ("x:transient", 8, Some("bad count")),
        ("1:meteor", 8, Some("unknown kind")),
        ("1:fatal@0-1", 8, Some("<src>-><dst>")),
        ("1:fatal@a->b", 8, Some("bad node")),
        ("1:fatal@0->8", 8, Some("node 8")),
        // daemon plane
        ("6:crash, 20:drop@1, 35:delay@*", 8, None),
        ("crash", 8, Some("expected <after>")),
        ("x:crash", 8, Some("bad count")),
        ("1:crash@phi", 8, Some("bad node")),
        ("1:crash@9", 8, Some("node 9")),
        // kill plane
        ("10:kill@7,25:kill@31,40:kill@12,55:kill@50", 64, None),
        ("65:kill@2", 8, None),
        ("10:kill", 8, Some("kill needs @<rank>")),
        ("10:kill@x", 8, Some("kill needs @<rank>")),
        ("x:kill@1", 8, Some("bad count")),
        ("0:kill@1", 8, Some("1..=65")),
        ("66:kill@1", 8, Some("1..=65")),
        ("3:kill@8", 8, Some("rank 8")),
        ("3:kill@1,9:kill@1", 8, Some("killed twice")),
        ("3:kill@1", 7, Some("at least 8 ranks")),
        (
            "1:kill@0,1:kill@1,1:kill@2,1:kill@3,1:kill@4",
            8,
            Some("fewer than 4 survivors"),
        ),
        // every plane in one spec
        ("7:transient,6:crash@2,10:kill@7", 8, None),
    ];
    for &(spec, ranks, want) in table {
        let got = spec.parse::<Faults>().and_then(|faults| {
            Scenario {
                ranks,
                workload: Workload::Halo,
                channel: Channel::Srq,
                faults,
            }
            .validate()
        });
        match (got, want) {
            (Ok(()), None) => {}
            (Err(e), Some(frag)) => assert!(e.contains(frag), "{spec:?}: {e}"),
            (got, want) => panic!("{spec:?} on {ranks} ranks: got {got:?}, want {want:?}"),
        }
    }
}

#[test]
fn parsed_plans_are_typed_and_display_round_trips() {
    let f: Faults = "2:transient,9:access@0->1,0:retry@*->3,20:drop@1,35:delay@*,10:kill@7"
        .parse()
        .unwrap();
    assert_eq!(f.link[0].status, WcStatus::RnrRetryExceeded);
    assert_eq!((f.link[0].initiator, f.link[0].target), (None, None));
    assert_eq!(f.link[1].status, WcStatus::RemoteAccessError);
    assert_eq!(
        (f.link[1].initiator, f.link[1].target),
        (Some(NodeId(0)), Some(NodeId(1)))
    );
    assert_eq!(
        (f.link[2].initiator, f.link[2].target),
        (None, Some(NodeId(3)))
    );
    assert_eq!(f.daemon[0].kind, DaemonFaultKind::DropReply);
    assert_eq!(
        (f.daemon[0].after_cmds, f.daemon[0].node),
        (20, Some(NodeId(1)))
    );
    assert_eq!(
        (f.daemon[1].kind, f.daemon[1].node),
        (DaemonFaultKind::DelayReply, None)
    );
    assert_eq!(
        f.kills,
        [KillSpec {
            rank: 7,
            after_ops: 10
        }]
    );
    let text = f.to_string();
    assert_eq!(
        text,
        "2:transient,9:fatal@0->1,0:retry@*->3,20:drop@1,35:delay,10:kill@7"
    );
    assert_eq!(text.parse::<Faults>().unwrap(), f);
    assert_eq!(Faults::default().to_string(), "none");
}

/// Each link kind name arms a verbs fault plan failing the work request
/// with its status, and prints back as the kind's first name.
#[test]
fn each_link_kind_parses_to_its_status_and_prints_back() {
    for (name, status, printed) in [
        ("transient", WcStatus::RnrRetryExceeded, "transient"),
        ("rnr", WcStatus::RnrRetryExceeded, "transient"),
        ("retry", WcStatus::TransportRetryExceeded, "retry"),
        ("fatal", WcStatus::RemoteAccessError, "fatal"),
        ("access", WcStatus::RemoteAccessError, "fatal"),
    ] {
        let f: Faults = format!("4:{name}@1->*").parse().unwrap();
        let plan = FaultPlan {
            status,
            after_matches: 4,
            initiator: Some(NodeId(1)),
            target: None,
            ..Default::default()
        };
        assert_eq!(f.link, [plan], "{name}");
        let text = f.to_string();
        assert_eq!(text, format!("4:{printed}@1->*"), "{name}");
        assert_eq!(text.parse::<Faults>().unwrap(), f, "{name}");
    }
}
