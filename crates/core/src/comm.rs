//! The public communicator: MPI-flavoured point-to-point API over the
//! protocol engine, plus the [`Communicator`] abstraction the workloads are
//! written against (so the Intel-MPI baseline models can run the same
//! applications).

use std::sync::Arc;

use fabric::{Buffer, Cluster, MemRef};
use simcore::Ctx;

use crate::engine::{CommStats, Engine, SHRINK_TAG_BASE};
use crate::mrcache::Kind;
use crate::subcomm::{SubComm, SUBCOMM_TAG_SPACE};
use crate::types::{MpiError, Rank, Request, Src, Status, Tag, TagSel};

/// Tag band for post-shrink sub-communicators: disjoint from application
/// tags, `split` color bands, the shrink-agreement band and the
/// collective band; rotated by shrink epoch so traffic from successive
/// shrink generations never cross-matches.
const SHRUNK_COMM_TAG_BASE: Tag = 0xA000_0000;

/// Minimal point-to-point surface the workloads need. Implemented by
/// DCFA-MPI's [`Comm`] and by the Intel-MPI baseline models in the
/// `baselines` crate.
pub trait Communicator {
    fn rank(&self) -> Rank;
    fn size(&self) -> usize;
    /// The memory domain this rank's buffers live in.
    fn mem(&self) -> MemRef;
    fn cluster(&self) -> &Arc<Cluster>;
    fn isend(
        &mut self,
        ctx: &mut Ctx,
        buf: &Buffer,
        dst: Rank,
        tag: Tag,
    ) -> Result<Request, MpiError>;
    fn irecv(
        &mut self,
        ctx: &mut Ctx,
        buf: &Buffer,
        src: Src,
        tag: TagSel,
    ) -> Result<Request, MpiError>;
    fn wait(&mut self, ctx: &mut Ctx, req: Request) -> Result<Status, MpiError>;

    /// Blocking send.
    fn send(&mut self, ctx: &mut Ctx, buf: &Buffer, dst: Rank, tag: Tag) -> Result<(), MpiError> {
        let r = self.isend(ctx, buf, dst, tag)?;
        self.wait(ctx, r).map(|_| ())
    }

    /// Blocking receive.
    fn recv(
        &mut self,
        ctx: &mut Ctx,
        buf: &Buffer,
        src: Src,
        tag: TagSel,
    ) -> Result<Status, MpiError> {
        let r = self.irecv(ctx, buf, src, tag)?;
        self.wait(ctx, r)
    }

    /// Combined send+receive (deadlock-free halo exchange building block).
    fn sendrecv(
        &mut self,
        ctx: &mut Ctx,
        sbuf: &Buffer,
        dst: Rank,
        rbuf: &Buffer,
        src: Rank,
        tag: Tag,
    ) -> Result<Status, MpiError> {
        let rr = self.irecv(ctx, rbuf, Src::Rank(src), TagSel::Tag(tag))?;
        let sr = self.isend(ctx, sbuf, dst, tag)?;
        self.wait(ctx, sr)?;
        self.wait(ctx, rr)
    }

    /// Wait for all requests in order, returning the first error. Every
    /// request is driven to completion even when an earlier one fails —
    /// abandoning the rest would leak their protocol state and strand
    /// the peers mid-handshake.
    fn waitall(&mut self, ctx: &mut Ctx, reqs: &[Request]) -> Result<Vec<Status>, MpiError> {
        let mut out = Vec::with_capacity(reqs.len());
        let mut first_err = None;
        for &r in reqs {
            match self.wait(ctx, r) {
                Ok(s) => out.push(s),
                Err(e) => {
                    out.push(Status {
                        source: 0,
                        tag: 0,
                        len: 0,
                    });
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

/// `MPI_COMM_WORLD` for a DCFA-MPI (or host-YAMPII) rank.
pub struct Comm {
    pub(crate) engine: Engine,
}

impl Comm {
    pub(crate) fn new(engine: Engine) -> Self {
        Comm { engine }
    }

    /// Non-blocking test; `Some` consumes the request.
    pub fn test(&mut self, ctx: &mut Ctx, req: Request) -> Option<Result<Status, MpiError>> {
        self.engine.test(ctx, req)
    }

    /// Non-blocking probe (`MPI_Iprobe`): envelope of a matching message
    /// that could be received now, without consuming it.
    pub fn iprobe(&mut self, ctx: &mut Ctx, src: Src, tag: TagSel) -> Option<Status> {
        self.engine.iprobe(ctx, src, tag)
    }

    /// Blocking probe (`MPI_Probe`); fails like a receive would when the
    /// named peer is dead or the communicator revoked.
    pub fn probe(&mut self, ctx: &mut Ctx, src: Src, tag: TagSel) -> Result<Status, MpiError> {
        self.engine.probe(ctx, src, tag)
    }

    /// Wait for any request in the set (`MPI_Waitany`).
    pub fn waitany(
        &mut self,
        ctx: &mut Ctx,
        reqs: &[Request],
    ) -> (usize, Result<Status, MpiError>) {
        self.engine.waitany(ctx, reqs)
    }

    /// Protocol/traffic counters for this rank.
    pub fn stats(&self) -> CommStats {
        self.engine.stats()
    }

    /// Live handshake-replay entries (`served_done` + `served_dw`) across
    /// all peers; bounded under load by CREDIT watermark pruning.
    pub fn replay_entries(&self) -> usize {
        self.engine.replay_entries()
    }

    /// Request-table slots currently occupied (issued but not yet
    /// consumed by `wait`/`test`). Zero once every request was reaped —
    /// a stranded request or leaked generation shows up here.
    pub fn requests_live(&self) -> usize {
        self.engine.requests_live()
    }

    /// Allocate a page-aligned buffer in this rank's memory domain. The
    /// Phi the paper ran on has no demand paging, so the buffer counts
    /// against the domain's capacity from the start; the host backs only
    /// the pages something writes (DESIGN §22) — a rendezvous payload
    /// reaches a receive buffer as a mirror, and writes none of them.
    pub fn alloc(&self, len: u64) -> Result<Buffer, MpiError> {
        self.engine
            .cluster()
            .alloc_pages(self.engine.mem(), len)
            .map_err(|_| MpiError::OutOfMemory)
    }

    /// Free a buffer allocated with [`Comm::alloc`].
    pub fn free(&self, buf: &Buffer) {
        self.engine.cluster().free(buf);
    }

    /// Write into a buffer (content plane).
    pub fn write(&self, buf: &Buffer, offset: u64, data: &[u8]) {
        self.engine.cluster().write(buf, offset, data);
    }

    /// Read a buffer's content.
    pub fn read_vec(&self, buf: &Buffer) -> Vec<u8> {
        self.engine.cluster().read_vec(buf)
    }

    /// MR-cache statistics `(hits, misses)` — for the ablation benches.
    pub fn mr_cache_stats(&self) -> (u64, u64) {
        let s = self.engine.cache.stats(Kind::Mr);
        (s.hits, s.misses)
    }

    /// Number of regions currently held by the MR cache pool.
    pub fn mr_cache_len(&self) -> usize {
        self.engine.cache.resident(Kind::Mr)
    }

    /// Number of cached registrations — user-buffer MRs and host twins —
    /// currently pinned by outstanding leases.
    pub fn mr_pinned_len(&self) -> usize {
        self.engine.cache.pinned()
    }

    /// Offload-cache statistics `(hits, misses)`.
    pub fn offload_cache_stats(&self) -> (u64, u64) {
        let s = self.engine.cache.stats(Kind::Twin);
        (s.hits, s.misses)
    }

    /// Consolidated snapshot of every counter this rank maintains.
    pub fn dump(&self) -> crate::StatsReport {
        self.engine.dump()
    }

    /// Library configuration in force.
    pub fn config(&self) -> &crate::MpiConfig {
        self.engine.config()
    }

    /// Host twin of a Phi-resident buffer (for host-staged collectives —
    /// the paper's future-work direction of offloading heavy MPI
    /// functions to the host). `None` on host placement or with the
    /// offloading buffer disabled.
    pub fn host_twin(&mut self, ctx: &mut Ctx, buf: &Buffer) -> Option<Buffer> {
        self.engine.host_twin(ctx, buf)
    }

    /// DMA `buf` up into its host twin (blocking).
    pub fn sync_to_twin(&mut self, ctx: &mut Ctx, buf: &Buffer, twin: &Buffer) {
        self.engine.sync_to_twin(ctx, buf, twin);
    }

    /// DMA the host twin back down into `buf` (blocking).
    pub fn sync_from_twin(&mut self, ctx: &mut Ctx, twin: &Buffer, buf: &Buffer) {
        self.engine.sync_from_twin(ctx, twin, buf);
    }

    /// Create a persistent send request (`MPI_Send_init`): captures the
    /// argument set once; every [`Comm::start`] issues one send with it.
    pub fn send_init(&self, buf: &Buffer, dst: Rank, tag: Tag) -> Persistent {
        Persistent {
            kind: PersistentKind::Send { dst, tag },
            buf: buf.clone(),
        }
    }

    /// Create a persistent receive request (`MPI_Recv_init`).
    pub fn recv_init(&self, buf: &Buffer, src: Src, tag: TagSel) -> Persistent {
        Persistent {
            kind: PersistentKind::Recv { src, tag },
            buf: buf.clone(),
        }
    }

    /// Start a persistent request (`MPI_Start`); complete it with the
    /// ordinary [`Communicator::wait`].
    pub fn start(&mut self, ctx: &mut Ctx, p: &Persistent) -> Result<Request, MpiError> {
        match p.kind {
            PersistentKind::Send { dst, tag } => self.engine.isend(ctx, &p.buf, dst, tag),
            PersistentKind::Recv { src, tag } => self.engine.irecv(ctx, &p.buf, src, tag),
        }
    }

    /// Start a whole set of persistent requests (`MPI_Startall`).
    pub fn startall(
        &mut self,
        ctx: &mut Ctx,
        ps: &[&Persistent],
    ) -> Result<Vec<Request>, MpiError> {
        ps.iter().map(|p| self.start(ctx, p)).collect()
    }

    /// Whether this rank has observed a revocation that no shrink has
    /// cleared yet.
    pub fn is_revoked(&self) -> bool {
        self.engine.health.revoked
    }

    /// Revoke the communicator (ULFM `MPI_Comm_revoke` analogue): flood
    /// a revocation epoch through the health board. Every rank — this
    /// one immediately, the others at their next progress step — drains
    /// its pending and future operations with [`MpiError::Revoked`]
    /// until [`Comm::shrink`] agrees on a surviving-ranks world. No-op
    /// when the failure subsystem is not installed.
    pub fn revoke(&mut self, ctx: &mut Ctx) {
        let Some(board) = self.engine.health.board.clone() else {
            return;
        };
        {
            let cluster = self.engine.cluster();
            board.revoke(cluster.scheduler());
        }
        // Drive one progress step so the caller sees its own engine
        // drained on return.
        self.engine.progress(ctx);
    }

    /// Shrink the communicator (ULFM `MPI_Comm_shrink` analogue):
    /// fault-tolerant tree agreement on the current death epoch across
    /// the survivors, committed through the health board's CAS. The
    /// agreement restarts from scratch whenever a participant dies
    /// mid-attempt (each restart needs at least one new death, so it
    /// terminates). On commit the engine is un-revoked and the returned
    /// sub-communicator covers the survivors with renumbered ranks.
    ///
    /// Collective over the survivors: every live rank must call it.
    pub fn shrink(&mut self, ctx: &mut Ctx) -> Result<SubComm<'_>, MpiError> {
        let me = self.engine.rank;
        let n = self.engine.size;
        let board = self.engine.health.board.clone();
        // Send/recv handles and their backing buffers are carried across
        // restart attempts and retired after the commit: an in-flight
        // eager send always reaches a terminal state (completion or a
        // PeerFailed reap), so nothing is leaked.
        let mut sends: Vec<Request> = Vec::new();
        let mut bufs: Vec<Buffer> = Vec::new();
        let (epoch, survivors) = 'attempt: loop {
            // Opportunistically retire sends from failed attempts.
            sends.retain(|&r| self.engine.test(ctx, r).is_none());
            let epoch = board.as_ref().map_or(0, |b| b.death_epoch());
            let Some(board) = &board else {
                // No failure subsystem: the surviving world is the world.
                self.engine.complete_shrink(0, n as u64);
                break (0, (0..n).collect::<Vec<Rank>>());
            };
            if epoch == 0 {
                self.engine.complete_shrink(0, n as u64);
                break (0, (0..n).collect::<Vec<Rank>>());
            }
            let survivors = board.live_at(epoch);
            let Some(my_idx) = survivors.iter().position(|&r| r == me) else {
                // The board thinks *we* are dead (false positive from an
                // unresponsive stretch): we cannot participate.
                return Err(MpiError::PeerFailed(me));
            };
            let tag = SHRINK_TAG_BASE + (epoch & 0xFFFF) as Tag;
            // Gather: every survivor waits for both tree children (over
            // survivor indices) before reporting up. The root's gather
            // completing proves every survivor reached this epoch.
            // `None` request = the recv needs (re-)posting; a child's
            // entry only leaves the list once its message arrived, so a
            // transient posting failure can never fake a complete gather.
            let mut pending: Vec<(Rank, Option<Request>)> = [2 * my_idx + 1, 2 * my_idx + 2]
                .into_iter()
                .filter(|&c| c < survivors.len())
                .map(|c| (survivors[c], None))
                .collect();
            while !pending.is_empty() {
                if board.death_epoch() != epoch {
                    for (_, r) in pending.drain(..) {
                        if let Some(r) = r {
                            self.engine.cancel_recv(ctx, r);
                        }
                    }
                    self.engine.stats.agreement_restarts += 1;
                    continue 'attempt;
                }
                let seen = self.engine.progress_event.epoch();
                self.engine.progress(ctx);
                let mut progressed = false;
                let mut j = 0;
                while j < pending.len() {
                    let (src, req) = pending[j];
                    match req {
                        None => {
                            let rbuf = self.alloc(8)?;
                            match self
                                .engine
                                .irecv(ctx, &rbuf, Src::Rank(src), TagSel::Tag(tag))
                            {
                                Ok(r) => {
                                    pending[j].1 = Some(r);
                                    bufs.push(rbuf);
                                    progressed = true;
                                }
                                Err(_) => {
                                    // Child already dead (epoch check
                                    // restarts us) or table backpressure:
                                    // retry next round.
                                    self.free(&rbuf);
                                }
                            }
                            j += 1;
                        }
                        Some(r) => match self.engine.test(ctx, r) {
                            Some(Ok(_)) => {
                                pending.swap_remove(j);
                                progressed = true;
                            }
                            Some(Err(_)) => {
                                // Died mid-transfer or drained by a
                                // concurrent revocation: re-post.
                                pending[j].1 = None;
                                progressed = true;
                            }
                            None => j += 1,
                        },
                    }
                }
                if !progressed && !pending.is_empty() && board.death_epoch() == epoch {
                    self.engine.wait_progress(ctx, seen, "shrink-gather");
                }
            }
            if my_idx == 0 {
                // Root: the gather proved every survivor is at `epoch`;
                // commit unless a death raced us there.
                let committed = {
                    let cluster = self.engine.cluster();
                    board.try_commit_shrink(cluster.scheduler(), epoch)
                };
                if committed {
                    break (epoch, survivors);
                }
                self.engine.stats.agreement_restarts += 1;
                continue 'attempt;
            }
            // Non-root: report up, then wait for the root's commit (or a
            // death that restarts the agreement).
            let parent = survivors[(my_idx - 1) / 2];
            let sbuf = self.alloc(8)?;
            self.write(&sbuf, 0, &epoch.to_le_bytes());
            match self.engine.isend(ctx, &sbuf, parent, tag) {
                Ok(r) => {
                    sends.push(r);
                    bufs.push(sbuf);
                }
                Err(e) => {
                    self.free(&sbuf);
                    if board.death_epoch() != epoch {
                        self.engine.stats.agreement_restarts += 1;
                        continue 'attempt;
                    }
                    return Err(e);
                }
            }
            loop {
                // A commit observed while waiting at `epoch` can only be
                // for `epoch`: any later commit would need our tag-E'
                // message, which we have not sent.
                if board.shrink_commit() == epoch {
                    break 'attempt (epoch, survivors);
                }
                if board.death_epoch() != epoch {
                    self.engine.stats.agreement_restarts += 1;
                    continue 'attempt;
                }
                let seen = self.engine.progress_event.epoch();
                self.engine.progress(ctx);
                if board.shrink_commit() == epoch || board.death_epoch() != epoch {
                    continue;
                }
                self.engine.wait_progress(ctx, seen, "shrink-commit");
            }
        };
        // Retire the carried sends (terminal by completion or reap) and
        // release every agreement buffer.
        for r in sends.drain(..) {
            let _ = self.engine.wait(ctx, r);
        }
        for b in bufs.drain(..) {
            self.free(&b);
        }
        if epoch != 0 {
            self.engine.complete_shrink(epoch, survivors.len() as u64);
        }
        let my_idx = survivors
            .iter()
            .position(|&r| r == me)
            .expect("committed survivor set contains me");
        let tag_base =
            SHRUNK_COMM_TAG_BASE.wrapping_add(((epoch % 512) as Tag) * SUBCOMM_TAG_SPACE);
        Ok(SubComm::from_members(self, survivors, my_idx, tag_base))
    }

    pub(crate) fn quiesce(&mut self, ctx: &mut Ctx) {
        self.engine.quiesce(ctx);
    }

    pub(crate) fn finalize(&mut self, ctx: &mut Ctx) {
        self.engine.finalize(ctx);
    }
}

enum PersistentKind {
    Send { dst: Rank, tag: Tag },
    Recv { src: Src, tag: TagSel },
}

/// A persistent communication request: the fixed argument set of a send
/// or receive, reusable across iterations
/// (`MPI_Send_init`/`MPI_Recv_init` + `MPI_Start`) — the classic way
/// fixed-pattern codes such as halo exchanges amortize per-call setup.
pub struct Persistent {
    kind: PersistentKind,
    buf: Buffer,
}

impl Communicator for Comm {
    fn rank(&self) -> Rank {
        self.engine.rank
    }

    fn size(&self) -> usize {
        self.engine.size
    }

    fn mem(&self) -> MemRef {
        self.engine.mem()
    }

    fn cluster(&self) -> &Arc<Cluster> {
        self.engine.cluster()
    }

    fn isend(
        &mut self,
        ctx: &mut Ctx,
        buf: &Buffer,
        dst: Rank,
        tag: Tag,
    ) -> Result<Request, MpiError> {
        self.engine.isend(ctx, buf, dst, tag)
    }

    fn irecv(
        &mut self,
        ctx: &mut Ctx,
        buf: &Buffer,
        src: Src,
        tag: TagSel,
    ) -> Result<Request, MpiError> {
        self.engine.irecv(ctx, buf, src, tag)
    }

    fn wait(&mut self, ctx: &mut Ctx, req: Request) -> Result<Status, MpiError> {
        self.engine.wait(ctx, req)
    }
}
