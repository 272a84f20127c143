//! Cluster-level fault planning: per-link fault plans armed by node pair,
//! consumed by the device layers (the verbs HCA model consults the plan on
//! every posted data operation). Plans are typed; the textual `--faults`
//! grammar is a CLI concern and lives in `bench::spec`.

use crate::mem::NodeId;

/// What kind of completion error a planned fault produces. The fabric
/// layer is deliberately ignorant of verbs' `WcStatus`; the device model
/// maps these onto concrete wire statuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFaultKind {
    /// Receiver-not-ready style: transient, retryable.
    Rnr,
    /// Wire retransmission exhaustion: transient, retryable.
    Retry,
    /// Protection/length violation: permanent.
    Fatal,
}

impl LinkFaultKind {
    pub fn is_transient(self) -> bool {
        matches!(self, LinkFaultKind::Rnr | LinkFaultKind::Retry)
    }
}

/// One planned fault: fail the data operation posted `after_ops` matching
/// operations from now on the scoped link. `from`/`to` of `None` match any
/// initiator / target node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFault {
    pub after_ops: u64,
    pub kind: LinkFaultKind,
    pub from: Option<NodeId>,
    pub to: Option<NodeId>,
}

impl LinkFault {
    pub fn matches(&self, from: NodeId, to: NodeId) -> bool {
        self.from.is_none_or(|f| f == from) && self.to.is_none_or(|t| t == to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_matches_initiator_and_target() {
        let scoped = LinkFault {
            after_ops: 9,
            kind: LinkFaultKind::Fatal,
            from: Some(NodeId(0)),
            to: Some(NodeId(1)),
        };
        assert!(scoped.matches(NodeId(0), NodeId(1)));
        assert!(!scoped.matches(NodeId(1), NodeId(0)));
        let any_src = LinkFault {
            from: None,
            to: Some(NodeId(3)),
            ..scoped
        };
        assert!(any_src.matches(NodeId(7), NodeId(3)));
    }

    #[test]
    fn transience_classification() {
        assert!(LinkFaultKind::Rnr.is_transient());
        assert!(LinkFaultKind::Retry.is_transient());
        assert!(!LinkFaultKind::Fatal.is_transient());
    }
}
