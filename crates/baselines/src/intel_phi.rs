//! "Intel MPI on Xeon Phi co-processors" mode (paper §III-B, compared in
//! Fig. 9): MPI ranks live on the co-processors and use the MPSS stack —
//! small messages relay through SCIF to the host IB Proxy Daemon and over
//! host InfiniBand; large messages take the direct path, whose bandwidth is
//! capped by the same HCA-DMA-read-from-Phi bottleneck DCFA-MPI suffers
//! *without* the offloading send buffer. Intel MPI has no such offload
//! mode, which is why the paper measures it below 1 GB/s.
//!
//! The model implements real matching semantics (FIFO per pair, tags,
//! any-source) and moves real bytes; path timing reserves the same shared
//! PCIe/InfiniBand channels as every other traffic source in the
//! simulation. The proxy daemon itself is folded into the path model
//! (documented substitution: DESIGN.md §2).

use std::collections::VecDeque;
use std::sync::Arc;

use dcfa_mpi::{Communicator, MpiError, Rank, Request, Src, Status, Tag, TagSel};
use fabric::{Buffer, Cluster, Domain, MemRef, NodeId};
use simcore::{Ctx, SimCell, SimEvent, SimTime, Simulation};

struct Arrival {
    src: Rank,
    tag: Tag,
    data: Vec<u8>,
}

struct RankBox {
    arrivals: SimCell<VecDeque<Arrival>>,
    event: SimEvent,
}

struct WorldState {
    boxes: Vec<Arc<RankBox>>,
    nodes: Vec<NodeId>,
    /// Per ordered pair (from, to): delivery time of the last message, so
    /// later messages never overtake earlier ones (MPI non-overtaking —
    /// the proxy path and the direct path have different latencies, but
    /// the library serializes matching per pair).
    pair_chain: SimCell<std::collections::HashMap<(Rank, Rank), SimTime>>,
}

/// Shared state of one Intel-MPI-on-Phi job.
pub struct IntelPhiWorld {
    cluster: Arc<Cluster>,
    state: Arc<WorldState>,
}

impl IntelPhiWorld {
    pub fn new(cluster: Arc<Cluster>, nprocs: usize) -> Arc<IntelPhiWorld> {
        let nodes = (0..nprocs)
            .map(|r| NodeId(r % cluster.num_nodes()))
            .collect();
        let boxes = (0..nprocs)
            .map(|_| {
                Arc::new(RankBox {
                    arrivals: SimCell::new(VecDeque::new()),
                    event: SimEvent::new(),
                })
            })
            .collect();
        Arc::new(IntelPhiWorld {
            cluster,
            state: Arc::new(WorldState {
                boxes,
                nodes,
                pair_chain: SimCell::new(Default::default()),
            }),
        })
    }

    /// Launch all ranks of the job.
    pub fn launch<F>(self: &Arc<Self>, sim: &Simulation, f: F)
    where
        F: Fn(&mut Ctx, &mut IntelPhiComm) + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        for r in 0..self.state.boxes.len() {
            let world = self.clone();
            let f = f.clone();
            sim.spawn(format!("intelphi-rank{r}"), move |ctx| {
                let mut comm = IntelPhiComm::new(world.clone(), r);
                f(ctx, &mut comm);
            });
        }
    }
}

enum ReqSlot {
    SendDone(Status),
    RecvPending { buf: Buffer, src: Src, tag: TagSel },
    RecvDone(Status),
    Failed(MpiError),
}

/// Per-rank communicator for the Intel-MPI-on-Phi model.
pub struct IntelPhiComm {
    world: Arc<IntelPhiWorld>,
    rank: Rank,
    node: NodeId,
    reqs: std::collections::HashMap<u64, ReqSlot>,
    next_req: u64,
}

impl IntelPhiComm {
    fn new(world: Arc<IntelPhiWorld>, rank: Rank) -> Self {
        let node = world.state.nodes[rank];
        IntelPhiComm {
            world,
            rank,
            node,
            reqs: Default::default(),
            next_req: 1,
        }
    }

    fn mailbox(&self) -> &Arc<RankBox> {
        &self.world.state.boxes[self.rank]
    }

    /// Proxy threshold: below this, messages relay through the host proxy
    /// daemons; above, the direct (DMA-read-limited) path is used.
    const PROXY_MAX: u64 = 16 << 10;

    /// Compute the delivery time of a message and reserve the channels it
    /// occupies. Returns `(send_complete, delivered)`.
    fn schedule_message(&self, ctx: &mut Ctx, dst: Rank, len: u64) -> (SimTime, SimTime) {
        let cl = &self.world.cluster;
        let cost = cl.config().cost.clone();
        let dst_node = self.world.state.nodes[dst];
        let now = ctx.now();
        let me_phi = MemRef {
            node: self.node,
            domain: Domain::Phi,
        };
        let dst_phi = MemRef {
            node: dst_node,
            domain: Domain::Phi,
        };

        if len <= Self::PROXY_MAX {
            // SCIF hop up, host IB, SCIF hop down; proxy daemon work at
            // both ends.
            let up_done =
                now + cost.scif_msg_latency + simcore::transfer_time(len.max(1), cost.scif_msg_bw);
            let host_start = up_done + cost.proxy_host_work;
            let (_, wire_done) = cl.reserve_ib_path(
                MemRef {
                    node: self.node,
                    domain: Domain::Host,
                },
                MemRef {
                    node: dst_node,
                    domain: Domain::Host,
                },
                len.max(1),
                self.node,
                host_start,
            );
            let down_done = wire_done
                + cost.proxy_host_work
                + cost.scif_msg_latency
                + simcore::transfer_time(len.max(1), cost.scif_msg_bw);
            // Sender-side completion: injection into SCIF is buffered.
            (
                now + cost.cpu_op(Domain::Phi),
                down_done + cost.cpu_op(Domain::Phi),
            )
        } else {
            // Direct path, pipelined in chunks, each paying the software
            // overhead — Phi-sourced, so DMA-read limited.
            let mut t = now;
            let mut remaining = len;
            while remaining > 0 {
                let chunk = remaining.min(cost.intel_chunk);
                t += cost.intel_chunk_overhead;
                let (_, end) = cl.reserve_ib_path(me_phi, dst_phi, chunk, self.node, t);
                t = end;
                remaining -= chunk;
            }
            (t, t + cost.cpu_op(Domain::Phi))
        }
    }

    fn try_match(&mut self, ctx: &mut Ctx) {
        let cl = self.world.cluster.clone();
        let cost = cl.config().cost.clone();
        // Pull arrivals and try to match pending receives in post order.
        loop {
            let pending: Vec<u64> = self
                .reqs
                .iter()
                .filter(|(_, s)| matches!(s, ReqSlot::RecvPending { .. }))
                .map(|(id, _)| *id)
                .collect();
            let mut matched = false;
            let mut arrivals = self.mailbox().arrivals.lock();
            'outer: for i in 0..arrivals.len() {
                let a = &arrivals[i];
                let mut ids: Vec<u64> = pending.clone();
                ids.sort_unstable(); // post order == id order
                for id in ids {
                    let Some(ReqSlot::RecvPending { buf, src, tag }) = self.reqs.get(&id) else {
                        continue;
                    };
                    let src_ok = match src {
                        Src::Rank(s) => *s == a.src,
                        Src::Any => true,
                    };
                    if !src_ok || !tag.matches(a.tag) {
                        continue;
                    }
                    let a = arrivals.remove(i).expect("index valid");
                    let buf = buf.clone();
                    drop(arrivals);
                    let slot = if a.data.len() as u64 > buf.len {
                        ReqSlot::Failed(MpiError::Truncated {
                            got: a.data.len() as u64,
                            capacity: buf.len,
                        })
                    } else {
                        cl.write(&buf, 0, &a.data);
                        ctx.sleep(cost.cpu_op(Domain::Phi));
                        ReqSlot::RecvDone(Status {
                            source: a.src,
                            tag: a.tag,
                            len: a.data.len() as u64,
                        })
                    };
                    self.reqs.insert(id, slot);
                    matched = true;
                    break 'outer;
                }
            }
            if !matched {
                break;
            }
        }
    }
}

impl Communicator for IntelPhiComm {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn size(&self) -> usize {
        self.world.state.boxes.len()
    }

    fn mem(&self) -> MemRef {
        MemRef {
            node: self.node,
            domain: Domain::Phi,
        }
    }

    fn cluster(&self) -> &Arc<Cluster> {
        &self.world.cluster
    }

    fn isend(
        &mut self,
        ctx: &mut Ctx,
        buf: &Buffer,
        dst: Rank,
        tag: Tag,
    ) -> Result<Request, MpiError> {
        if dst >= self.size() || dst == self.rank {
            return Err(MpiError::BadRank(dst));
        }
        let cost = self.world.cluster.config().cost.clone();
        ctx.sleep(cost.mpi_call_phi);
        let (send_done, mut delivered) = self.schedule_message(ctx, dst, buf.len);
        {
            // Enforce non-overtaking per ordered pair.
            let mut chain = self.world.state.pair_chain.lock();
            let last = chain
                .entry((self.rank, dst))
                .or_insert(simcore::SimTime::ZERO);
            delivered = delivered.max(*last);
            *last = delivered;
        }
        let data = self.world.cluster.read_vec(buf);
        let target = self.world.state.boxes[dst].clone();
        let src = self.rank;
        let sched = ctx.scheduler();
        sched.call_at(delivered, move |s| {
            target.arrivals.lock().push_back(Arrival { src, tag, data });
            target.event.notify_all(s);
        });
        let id = self.next_req;
        self.next_req += 1;
        let status = Status {
            source: dst,
            tag,
            len: buf.len,
        };
        // Sender-side completion time: park until `send_done`.
        if send_done > ctx.now() {
            ctx.sleep(send_done - ctx.now());
        }
        self.reqs.insert(id, ReqSlot::SendDone(status));
        Ok(Request(id))
    }

    fn irecv(
        &mut self,
        ctx: &mut Ctx,
        buf: &Buffer,
        src: Src,
        tag: TagSel,
    ) -> Result<Request, MpiError> {
        if let Src::Rank(s) = src {
            if s >= self.size() || s == self.rank {
                return Err(MpiError::BadRank(s));
            }
        }
        let cost = self.world.cluster.config().cost.clone();
        ctx.sleep(cost.mpi_call_phi);
        let id = self.next_req;
        self.next_req += 1;
        self.reqs.insert(
            id,
            ReqSlot::RecvPending {
                buf: buf.clone(),
                src,
                tag,
            },
        );
        self.try_match(ctx);
        Ok(Request(id))
    }

    fn wait(&mut self, ctx: &mut Ctx, req: Request) -> Result<Status, MpiError> {
        loop {
            let seen = self.mailbox().event.epoch();
            self.try_match(ctx);
            match self.reqs.get(&req.0) {
                Some(ReqSlot::SendDone(_)) | Some(ReqSlot::RecvDone(_)) => {
                    return match self.reqs.remove(&req.0) {
                        Some(ReqSlot::SendDone(s)) | Some(ReqSlot::RecvDone(s)) => Ok(s),
                        _ => unreachable!(),
                    };
                }
                Some(ReqSlot::Failed(_)) => {
                    return match self.reqs.remove(&req.0) {
                        Some(ReqSlot::Failed(e)) => Err(e),
                        _ => unreachable!(),
                    };
                }
                Some(ReqSlot::RecvPending { .. }) => {
                    let ev = self.mailbox().event.clone();
                    ctx.wait_event(&ev, seen, "intel-phi recv");
                }
                None => return Err(MpiError::BadRequest),
            }
        }
    }
}
