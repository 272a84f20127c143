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
use std::sync::Arc;

use parking_lot::Mutex;
use simcore::{Scheduler, SimDuration, SimEvent};

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
    inner: Mutex<Vec<RankSlot>>,
    /// Messages posted so far (drop-injection op counter).
    posted: Mutex<u64>,
    /// Half-open drop window `[start, end)` over the posted counter:
    /// messages whose ordinal falls inside are silently discarded
    /// (deterministic lost-handshake injection for retry tests).
    drop_window: Mutex<Option<(u64, u64)>>,
}

impl ConnDirectory {
    /// Directory for an `n`-rank world; messages are delivered after
    /// `latency` of simulated time.
    pub fn new(n: usize, latency: SimDuration) -> Arc<ConnDirectory> {
        Arc::new(ConnDirectory {
            latency,
            inner: Mutex::new(
                (0..n)
                    .map(|_| RankSlot {
                        event: None,
                        mailbox: VecDeque::new(),
                    })
                    .collect(),
            ),
            posted: Mutex::new(0),
            drop_window: Mutex::new(None),
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
            if let Some(ev) = slot.event.clone() {
                drop(inner);
                ev.notify_all(s);
            }
        });
    }

    /// Move every delivered message for `rank` into `out`.
    pub(crate) fn drain(&self, rank: Rank, out: &mut Vec<ConnMsg>) {
        let mut inner = self.inner.lock();
        out.extend(inner[rank].mailbox.drain(..));
    }

    /// Whether any message is still queued (for tests/diagnostics).
    pub fn idle(&self) -> bool {
        self.inner.lock().iter().all(|s| s.mailbox.is_empty())
    }
}
