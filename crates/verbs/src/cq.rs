//! Completion queues.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use simcore::{Ctx, Scheduler, SimCell, SimEvent};

use crate::types::Wc;

struct CqShared {
    /// `queue.len()`, stored only with `queue` held and loaded without it
    /// (`Release`/`Acquire`: whoever sees a length also sees the entries it
    /// counts, once it takes the lock). Polling is mostly polling an empty
    /// queue; that costs no lock.
    len: AtomicUsize,
    queue: SimCell<VecDeque<Wc>>,
}

/// A completion queue. Cloning yields another handle to the same queue.
///
/// Real HCAs are polled through cache traffic; the simulation additionally
/// exposes a [`SimEvent`] that fires whenever a CQE is pushed so blocked
/// processes wake exactly when a completion lands (standing in for the
/// memory-polling loop without spinning the event queue).
#[derive(Clone)]
pub struct CompletionQueue {
    shared: Arc<CqShared>,
    event: SimEvent,
}

impl Default for CompletionQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CompletionQueue {
    pub fn new() -> Self {
        Self::with_event(SimEvent::new())
    }

    /// Create a CQ whose pushes notify an externally supplied event, so one
    /// process can multiplex-wait on several completion sources (CQs plus
    /// inbound-RDMA region events) — the `ibv_comp_channel` analogue.
    pub fn with_event(event: SimEvent) -> Self {
        CompletionQueue {
            shared: Arc::new(CqShared {
                len: AtomicUsize::new(0),
                queue: SimCell::new(VecDeque::new()),
            }),
            event,
        }
    }

    /// Non-blocking poll, like `ibv_poll_cq` with one entry.
    pub fn poll(&self) -> Option<Wc> {
        if self.is_empty() {
            return None;
        }
        let mut queue = self.shared.queue.lock();
        let wc = queue.pop_front();
        self.shared.len.store(queue.len(), Ordering::Release);
        wc
    }

    /// Non-blocking batched poll, like `ibv_poll_cq` with `max` entries:
    /// drains up to `max` completions into `out` under a single lock
    /// acquisition — none at all when the queue is empty — and returns how
    /// many were appended. `out` is a caller-owned scratch buffer so a
    /// steady-state progress sweep does not allocate.
    pub fn poll_batch(&self, out: &mut Vec<Wc>, max: usize) -> usize {
        if self.is_empty() {
            return 0;
        }
        let mut queue = self.shared.queue.lock();
        let n = max.min(queue.len());
        out.extend(queue.drain(..n));
        self.shared.len.store(queue.len(), Ordering::Release);
        n
    }

    /// Blocking poll: parks the process until a CQE is available.
    pub fn wait(&self, ctx: &mut Ctx) -> Wc {
        loop {
            let seen = self.event.epoch();
            if let Some(wc) = self.poll() {
                return wc;
            }
            ctx.wait_event(&self.event, seen, "cq wait");
        }
    }

    /// Number of queued completions. Takes no lock.
    pub fn len(&self) -> usize {
        self.shared.len.load(Ordering::Acquire)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The notification event (for multiplexed waiting).
    pub fn event(&self) -> &SimEvent {
        &self.event
    }

    /// Device side: push a completion and wake pollers.
    pub(crate) fn push(&self, sched: &Scheduler, wc: Wc) {
        {
            let mut queue = self.shared.queue.lock();
            queue.push_back(wc);
            self.shared.len.store(queue.len(), Ordering::Release);
        }
        self.event.notify_all(sched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{WcOpcode, WcStatus};
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Push,
        Poll,
        PollBatch(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            Just(Op::Push),
            Just(Op::Push),
            Just(Op::Poll),
            (0usize..6).prop_map(Op::PollBatch),
        ]
    }

    // The lock-free length is the queue's length after every operation,
    // and the queue itself behaves as a FIFO.
    proptest! {
        #[test]
        fn length_and_order_agree_with_a_model(ops in proptest::collection::vec(op(), 1..200)) {
            let sim = simcore::Simulation::new();
            let sched = sim.scheduler();
            let cq = CompletionQueue::new();
            let mut model: VecDeque<u64> = VecDeque::new();
            let mut next_id = 0u64;
            for op in ops {
                match op {
                    Op::Push => {
                        let wc = Wc {
                            wr_id: next_id,
                            status: WcStatus::Success,
                            opcode: WcOpcode::Send,
                            byte_len: 0,
                            src: None,
                        };
                        cq.push(&sched, wc);
                        model.push_back(next_id);
                        next_id += 1;
                    }
                    Op::Poll => {
                        prop_assert_eq!(cq.poll().map(|wc| wc.wr_id), model.pop_front());
                    }
                    Op::PollBatch(max) => {
                        let mut out = Vec::new();
                        let n = cq.poll_batch(&mut out, max);
                        let want: Vec<u64> = model.drain(..max.min(model.len())).collect();
                        prop_assert_eq!(n, want.len());
                        prop_assert_eq!(out.iter().map(|wc| wc.wr_id).collect::<Vec<_>>(), want);
                    }
                }
                prop_assert_eq!(cq.len(), model.len());
                prop_assert_eq!(cq.len(), cq.shared.queue.lock().len());
                prop_assert_eq!(cq.is_empty(), model.is_empty());
            }
        }
    }
}
