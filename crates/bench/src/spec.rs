//! The one `--faults` grammar: a comma list of `<after>:<kind>[@<scope>]`
//! terms, where the kind names the fault plane.
//!
//! | kinds                                        | scope (`*` = any node) | typed plan             |
//! |----------------------------------------------|------------------------|------------------------|
//! | `transient`/`rnr`, `retry`, `fatal`/`access` | `@<src>-><dst>`        | [`verbs::FaultPlan`]   |
//! | `crash`, `drop`, `delay`                     | `@<node>`              | [`dcfa::DaemonFault`]  |
//! | `kill`                                       | `@<rank>`, required    | [`dcfa_mpi::KillSpec`] |
//!
//! `<after>` counts what the plane counts: matching posted data
//! operations, sequenced daemon commands, or the victim's `isend`/`irecv`
//! entries. Text is a CLI concern, so the parser lives here once and the
//! library crates keep only their typed plans; checks that need the rank
//! count are [`crate::Scenario::validate`]'s. [`Faults`] round-trips
//! through `Display`, which is how the chaos fuzzer prints a reproducer.

use std::fmt;
use std::str::FromStr;

use dcfa::{DaemonFault, DaemonFaultKind};
use dcfa_mpi::KillSpec;
use fabric::NodeId;
use verbs::{FaultPlan, WcStatus};

/// Every fault a scenario arms, one typed plan list per plane.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Faults {
    pub link: Vec<FaultPlan>,
    pub daemon: Vec<DaemonFault>,
    pub kills: Vec<KillSpec>,
}

impl FromStr for Faults {
    type Err = String;

    fn from_str(spec: &str) -> Result<Faults, String> {
        let mut out = Faults::default();
        for term in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let bad = |why: String| format!("bad --faults term `{term}`: {why}");
            let (after, rest) = term
                .split_once(':')
                .ok_or_else(|| bad("expected <after>:<kind>[@<scope>]".into()))?;
            let after: u64 = after
                .trim()
                .parse()
                .map_err(|_| bad(format!("bad count `{after}`")))?;
            let (kind, scope) = match rest.split_once('@') {
                Some((k, s)) => (k.trim(), Some(s.trim())),
                None => (rest.trim(), None),
            };
            let node = |s: &str| match s.trim() {
                "*" => Ok(None),
                n => n
                    .parse()
                    .map(|n| Some(NodeId(n)))
                    .map_err(|_| bad(format!("bad node `{n}`"))),
            };
            match kind {
                "transient" | "rnr" | "retry" | "fatal" | "access" => {
                    let (from, to) = match scope {
                        None => (None, None),
                        Some(s) => {
                            let (a, b) = s
                                .split_once("->")
                                .ok_or_else(|| bad("link scope must be <src>-><dst>".into()))?;
                            (node(a)?, node(b)?)
                        }
                    };
                    out.link.push(FaultPlan {
                        status: match kind {
                            "retry" => WcStatus::TransportRetryExceeded,
                            "fatal" | "access" => WcStatus::RemoteAccessError,
                            _ => WcStatus::RnrRetryExceeded,
                        },
                        after_matches: after,
                        initiator: from,
                        target: to,
                        ..Default::default()
                    });
                }
                "crash" | "drop" | "delay" => out.daemon.push(DaemonFault {
                    after_cmds: after,
                    kind: match kind {
                        "crash" => DaemonFaultKind::Crash,
                        "drop" => DaemonFaultKind::DropReply,
                        _ => DaemonFaultKind::DelayReply,
                    },
                    node: scope.map(node).transpose()?.flatten(),
                }),
                "kill" => out.kills.push(KillSpec {
                    rank: scope
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| bad("kill needs @<rank>".into()))?,
                    after_ops: after,
                }),
                other => return Err(bad(format!("unknown kind `{other}`"))),
            }
        }
        if out == Faults::default() {
            return Err("empty --faults spec".into());
        }
        Ok(out)
    }
}

impl fmt::Display for Faults {
    /// The spec text that parses back to `self` (plane by plane; `none`
    /// when nothing is armed).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut terms = Vec::new();
        for l in &self.link {
            terms.push(format!("{}:{}", l.after_matches, link_term(l)));
        }
        for d in &self.daemon {
            let kind = match d.kind {
                DaemonFaultKind::Crash => "crash",
                DaemonFaultKind::DropReply => "drop",
                DaemonFaultKind::DelayReply => "delay",
            };
            terms.push(match d.node {
                None => format!("{}:{kind}", d.after_cmds),
                Some(n) => format!("{}:{kind}@{}", d.after_cmds, n.0),
            });
        }
        for k in &self.kills {
            terms.push(format!("{}:kill@{}", k.after_ops, k.rank));
        }
        if terms.is_empty() {
            return f.write_str("none");
        }
        f.write_str(&terms.join(","))
    }
}

/// A link plan's term without its count: `<kind>[@<src>-><dst>]`.
pub(crate) fn link_term(l: &FaultPlan) -> String {
    let any = |n: Option<NodeId>| n.map_or("*".to_string(), |n| n.0.to_string());
    let kind = match l.status {
        WcStatus::RnrRetryExceeded => "transient",
        WcStatus::TransportRetryExceeded => "retry",
        _ => "fatal",
    };
    match (l.initiator, l.target) {
        (None, None) => kind.to_string(),
        (a, b) => format!("{kind}@{}->{}", any(a), any(b)),
    }
}
