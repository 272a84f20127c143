//! Lazy connection establishment: the connect-request control channel.
//!
//! The eager all-pairs bootstrap exchanged endpoints for every `(r, j)`
//! pair up front — O(ranks²) QPs and ring buffers per world, which is
//! what capped the simulated cluster at a handful of ranks. Instead,
//! ranks now allocate a pair's resources *on first touch*: the first
//! `isend`/`irecv` toward a peer allocates the local half (QP, inbound
//! ring, staging region) and posts a [`ConnMsg::Req`] carrying the
//! endpoint through this directory. The peer allocates its half
//! passively when the request arrives and answers with a
//! [`ConnMsg::Ack`]; when both sides initiate at once (cross-connect),
//! each wires from the other's `Req` and no `Ack` flows.
//!
//! The directory models the launcher's out-of-band PMI channel:
//! delivery is charged one wire latency through the simulation
//! scheduler (deterministic — a `call_after` event, not host-thread
//! timing), and the target's progress event is notified so a rank
//! blocked in `wait` wakes up to serve the handshake.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use simcore::{Scheduler, SimCell, SimDuration, SimEvent};

use crate::channel::PeerEndpoint;
use crate::types::Rank;

/// A connection-management frame (never touches the data rings).
pub(crate) enum ConnMsg {
    /// First touch: `from` allocated its half of the pair and advertises
    /// the endpoint the receiver should write toward.
    Req { from: Rank, ep: PeerEndpoint },
    /// The passive side's answer: its freshly allocated endpoint.
    Ack { from: Rank, ep: PeerEndpoint },
}

struct RankSlot {
    /// The rank's progress event, registered at engine creation;
    /// notified on every delivery so blocked ranks serve handshakes.
    event: Option<SimEvent>,
    mailbox: VecDeque<ConnMsg>,
}

/// Shared per-world connect-request directory (one per `launch`).
pub struct ConnDirectory {
    latency: SimDuration,
    inner: SimCell<Vec<RankSlot>>,
    /// Messages delivered and not yet drained, over all ranks. Stored only
    /// with `inner` held and loaded without it (`Release`/`Acquire`): every
    /// progress sweep drains, and after the handshakes nothing is ever
    /// queued again — that answer costs no lock.
    queued: AtomicUsize,
    /// Messages posted so far (drop-injection op counter).
    posted: SimCell<u64>,
    /// Half-open drop window `[start, end)` over the posted counter:
    /// messages whose ordinal falls inside are silently discarded
    /// (deterministic lost-handshake injection for retry tests).
    drop_window: SimCell<Option<(u64, u64)>>,
}

impl ConnDirectory {
    /// Directory for an `n`-rank world; messages are delivered after
    /// `latency` of simulated time.
    pub fn new(n: usize, latency: SimDuration) -> Arc<ConnDirectory> {
        Arc::new(ConnDirectory {
            latency,
            inner: SimCell::new(
                (0..n)
                    .map(|_| RankSlot {
                        event: None,
                        mailbox: VecDeque::new(),
                    })
                    .collect(),
            ),
            queued: AtomicUsize::new(0),
            posted: SimCell::new(0),
            drop_window: SimCell::new(None),
        })
    }

    /// Silently drop the next `count` messages posted after skipping
    /// `after` more (models lost REQ/ACK handshake frames). Windows
    /// don't stack; the last call wins.
    pub fn inject_drop_after(&self, after: u64, count: u64) {
        let base = *self.posted.lock();
        *self.drop_window.lock() = Some((base + after, base + after + count));
    }

    /// Register `rank`'s progress event so deliveries wake it.
    pub(crate) fn register(&self, rank: Rank, event: SimEvent) {
        self.inner.lock()[rank].event = Some(event);
    }

    /// Deliver `msg` to `to` after the directory latency.
    pub(crate) fn post(self: &Arc<Self>, sched: &Scheduler, to: Rank, msg: ConnMsg) {
        let ordinal = {
            let mut posted = self.posted.lock();
            let o = *posted;
            *posted += 1;
            o
        };
        if let Some((start, end)) = *self.drop_window.lock() {
            if (start..end).contains(&ordinal) {
                return; // injected frame loss
            }
        }
        let dir = self.clone();
        sched.call_after(self.latency, move |s| {
            let mut inner = dir.inner.lock();
            let slot = &mut inner[to];
            slot.mailbox.push_back(msg);
            let queued = dir.queued.load(Ordering::Relaxed) + 1;
            dir.queued.store(queued, Ordering::Release);
            if let Some(ev) = slot.event.clone() {
                drop(inner);
                ev.notify_all(s);
            }
        });
    }

    /// Move every delivered message for `rank` into `out`.
    pub(crate) fn drain(&self, rank: Rank, out: &mut Vec<ConnMsg>) {
        if self.idle() {
            return;
        }
        let mut inner = self.inner.lock();
        let mailbox = &mut inner[rank].mailbox;
        let left = self.queued.load(Ordering::Relaxed) - mailbox.len();
        out.extend(mailbox.drain(..));
        self.queued.store(left, Ordering::Release);
    }

    /// Whether a delivered message waits for `rank`.
    pub(crate) fn holds(&self, rank: Rank) -> bool {
        !self.idle() && !self.inner.lock()[rank].mailbox.is_empty()
    }

    /// Whether no message is queued for any rank (for tests/diagnostics).
    /// Takes no lock.
    pub fn idle(&self) -> bool {
        self.queued.load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Simulation;

    fn req(from: Rank) -> ConnMsg {
        ConnMsg::Req {
            from,
            ep: PeerEndpoint {
                qpn: verbs::QpNum(from as u32),
                node: fabric::NodeId(from),
                ring_addr: 0,
                ring_rkey: verbs::MrKey(0),
            },
        }
    }

    /// What `idle()` was before the queued count: scan every mailbox.
    fn no_mailbox_holds_anything(dir: &ConnDirectory) -> bool {
        dir.inner.lock().iter().all(|s| s.mailbox.is_empty())
    }

    /// The lock-free count is the mailboxes' total at every step — posts,
    /// an injected drop window, deliveries, partial drains — and returns
    /// to zero when the last rank has drained.
    #[test]
    fn queued_count_tracks_the_mailboxes_across_a_drop_window() {
        const RANKS: usize = 4;
        let mut sim = Simulation::new();
        let sched = sim.scheduler();
        let dir = ConnDirectory::new(RANKS, SimDuration::from_nanos(100));
        // Of the eight frames posted below, the third and fourth are lost.
        dir.inject_drop_after(2, 2);
        for i in 0..8 {
            dir.post(&sched, i % RANKS, req((i + 1) % RANKS));
        }
        // Posted, not yet delivered: nothing is queued.
        assert!(dir.idle() && no_mailbox_holds_anything(&dir));
        sim.run_expect();
        assert_eq!(dir.queued.load(Ordering::Acquire), 6);
        assert!(!dir.idle() && !no_mailbox_holds_anything(&dir));

        let mut got = Vec::new();
        let mut left = 6;
        for rank in 0..RANKS {
            let before = got.len();
            dir.drain(rank, &mut got);
            left -= got.len() - before;
            assert_eq!(dir.queued.load(Ordering::Acquire), left);
            assert_eq!(dir.idle(), no_mailbox_holds_anything(&dir));
        }
        // Ranks 2 and 3 lost one frame each to the window.
        assert_eq!(got.len(), 6);
        assert!(dir.idle() && no_mailbox_holds_anything(&dir));
    }
}
