//! `Cluster::reserve_ib_path` locks each channel of a stream once: take
//! them all, find the common start, reserve, release. It used to make two
//! passes — read every channel's `ready_at`, then lock each again to
//! reserve. This keeps the two-pass algorithm as a reference and checks
//! that random transfer sequences get the same `(start, end)` from both
//! and leave the same per-channel counters behind.

use fabric::{BwChannel, ChannelStats, Cluster, ClusterConfig, CostModel, Domain, MemRef, NodeId};
use proptest::prelude::*;
use simcore::{SimTime, Simulation};

const NODES: usize = 3;

/// Index of each channel in a node's array: `fabric_stats` order.
const PCI_H2P: usize = 0;
const PCI_P2H: usize = 1;
const IB_EGRESS: usize = 2;
const IB_INGRESS: usize = 3;

/// The two-pass reservation, channel by channel, as it was.
struct Reference {
    cost: CostModel,
    nodes: Vec<[BwChannel; 4]>,
}

impl Reference {
    fn new(cost: CostModel) -> Reference {
        let names = ["pci-h2p", "pci-p2h", "ib-egress", "ib-ingress"];
        Reference {
            cost,
            nodes: (0..NODES).map(|_| names.map(BwChannel::new)).collect(),
        }
    }

    fn reserve(
        &mut self,
        src: MemRef,
        dst: MemRef,
        bytes: u64,
        initiator: NodeId,
        after: SimTime,
    ) -> (SimTime, SimTime) {
        let cost = &self.cost;
        let min_rate = cost
            .hca_read_bw(src.domain)
            .min(cost.ib_bw)
            .min(cost.hca_write_bw(dst.domain));
        let dur = simcore::transfer_time(bytes, min_rate);
        let mut latency = cost.ib_latency;
        if initiator == dst.node && initiator != src.node {
            latency += cost.ib_latency;
        }
        let crosses_wire = src.node != dst.node;
        // `(does the stream use it, node, channel)`.
        let path = [
            (src.domain == Domain::Phi, src.node.0, PCI_P2H),
            (crosses_wire, src.node.0, IB_EGRESS),
            (crosses_wire, dst.node.0, IB_INGRESS),
            (dst.domain == Domain::Phi, dst.node.0, PCI_H2P),
        ];
        let mut start = after;
        for (used, node, channel) in path {
            if used {
                start = start.max(self.nodes[node][channel].ready_at());
            }
        }
        for (used, node, channel) in path {
            if used {
                self.nodes[node][channel].reserve_stream(start, dur, bytes);
            }
        }
        (start, start + dur + latency)
    }

    fn stats(&self, node: usize) -> Vec<ChannelStats> {
        self.nodes[node].iter().map(BwChannel::stats).collect()
    }
}

fn mem_ref() -> impl Strategy<Value = MemRef> {
    (0..NODES, any::<bool>()).prop_map(|(node, phi)| MemRef {
        node: NodeId(node),
        domain: if phi { Domain::Phi } else { Domain::Host },
    })
}

/// `(src, dst, bytes, initiated by the destination?, ns since the last post)`.
fn transfer() -> impl Strategy<Value = (MemRef, MemRef, u64, bool, u64)> {
    (
        mem_ref(),
        mem_ref(),
        1u64..(4 << 20),
        any::<bool>(),
        0u64..200_000,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_pass_reservation_matches_the_two_pass_reference(
        transfers in proptest::collection::vec(transfer(), 1..80),
    ) {
        let sim = Simulation::new();
        let cluster = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(NODES));
        let mut reference = Reference::new(cluster.config().cost.clone());
        let mut after = SimTime::ZERO;
        for (src, dst, bytes, read, gap) in transfers {
            after = SimTime(after.0 + gap);
            let initiator = if read { dst.node } else { src.node };
            prop_assert_eq!(
                cluster.reserve_ib_path(src, dst, bytes, initiator, after),
                reference.reserve(src, dst, bytes, initiator, after),
                "{} -> {}, {} bytes posted at {:?}", src, dst, bytes, after
            );
        }
        for node in 0..NODES {
            prop_assert_eq!(cluster.fabric_stats(NodeId(node)).channels, reference.stats(node));
        }
    }
}
