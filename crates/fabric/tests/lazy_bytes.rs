//! Bytes move when they are read, and no program can tell (DESIGN.md §18).
//!
//! A hop of at least `MIRROR_MIN` bytes between two arenas leaves a mirror
//! instead of a copy, recycled memory is held as zero instead of scrubbed,
//! the few bytes a write into a mirror's source displaces are held by
//! the mirror's destination instead of written into its pages, and what
//! lands in an allocation held off-page is a held run in a side buffer:
//! four kinds of extent in the one list each arena keeps. This file
//! runs seeded random programs over 3 nodes × 2 domains — alloc (some held
//! off-page), free, write, read, copy, several copies under one plane
//! lock, an 8-byte read-modify-write, `pci_dma` and `ib_transfer`, each
//! transfer waited for, with hop lengths on both sides of `MIRROR_MIN`,
//! runs of short writes into the source of the last long hop, and
//! discards of part of an off-page buffer — against a reference model
//! that copies and scrubs eagerly (a discard zeroes), and checks every
//! read byte for byte, and that no page wholly under an off-page buffer
//! is backed while it is held.
//! The cases the rules were written for are also spelled out as programs
//! of their own. Four `mincore` checks hold the point of it all: a synced
//! twin that is only read is never touched, a long InfiniBand transfer
//! writes no page of its destination, a stamp into a mirrored source
//! writes no page of a receive buffer or a twin, and a recycled buffer
//! costs no page until it is written.

use std::sync::Arc;

use fabric::{Buffer, Cluster, ClusterConfig, Domain, MemRef, NodeId, MIRROR_MIN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simcore::{mapping::page_size, SimCell};
use simcore::{Ctx, Simulation};

const NODES: usize = 3;

/// The word after a verbs fetch-and-add of one.
fn add_one(word: [u8; 8]) -> [u8; 8] {
    u64::from_le_bytes(word).wrapping_add(1).to_le_bytes()
}

fn mem(node: usize, domain: Domain) -> MemRef {
    MemRef {
        node: NodeId(node),
        domain,
    }
}

fn pattern(len: u64, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ salt)
        .collect()
}

/// `len` bytes from buffer `src` at `src_off` to buffer `dst` at `dst_off`
/// (indices into the live list).
#[derive(Debug, Clone, Copy)]
struct Hop {
    src: usize,
    src_off: u64,
    dst: usize,
    dst_off: u64,
    len: u64,
}

#[derive(Debug, Clone)]
enum Op {
    /// Domain, length, alignment.
    Alloc(MemRef, u64, u64),
    /// The same, held off-page.
    AllocOffPage(MemRef, u64, u64),
    /// Buffer (held off-page), offset, length: those bytes read zero.
    Discard(usize, u64, u64),
    Free(usize),
    /// Buffer, offset, length, salt.
    Write(usize, u64, u64, u8),
    /// Writes — offset, length, salt — in turn into one buffer, as stamps
    /// land in a send buffer whose last payload is still mirrored.
    Stamps(usize, Vec<(u64, u64, u8)>),
    /// Buffer, offset, length.
    Read(usize, u64, u64),
    Copy(Hop),
    /// In order under one plane lock, as a work request's SGEs land.
    Copies(Vec<Hop>),
    /// Buffer, offset: the word there plus one, read and written under one
    /// plane lock, as a verbs atomic does.
    Rmw(usize, u64),
    /// Between one node's two domains; waited for.
    Dma(Hop),
    /// Initiated by the given node; waited for.
    Ib(Hop, usize),
}

/// The cluster and its reference model: every live buffer with the bytes
/// an eager copy-and-scrub byte plane would hold in it.
struct World {
    cl: Arc<Cluster>,
    live: Vec<(Buffer, Vec<u8>)>,
    /// The live buffers held off-page, each with the pages wholly inside it
    /// that were backed when it was allocated — a previous tenant's.
    off_page: Vec<(Buffer, usize)>,
    log: Vec<Op>,
}

impl World {
    fn fail(&self, what: String) -> String {
        let tail: Vec<String> = self
            .log
            .iter()
            .rev()
            .take(12)
            .map(|o| format!("{o:?}"))
            .collect();
        format!("{what}\nlast ops, newest first:\n  {}", tail.join("\n  "))
    }

    fn check(&self, i: usize, off: u64, len: u64) -> Result<(), String> {
        let (buf, want) = &self.live[i];
        let mut got = vec![0xEE; len as usize];
        self.cl.read(buf, off, &mut got);
        let want = &want[off as usize..(off + len) as usize];
        match got.iter().zip(want).position(|(g, w)| g != w) {
            None => Ok(()),
            Some(at) => Err(self.fail(format!(
                "{buf:?} byte {} reads {:#x}, the eager model {:#x}",
                off as usize + at,
                got[at],
                want[at]
            ))),
        }
    }

    fn check_all(&self) -> Result<(), String> {
        for (i, (buf, want)) in self.live.iter().enumerate() {
            self.check(i, 0, buf.len)?;
            if self.cl.read_vec(buf) != *want {
                return Err(self.fail(format!("read_vec of {buf:?} differs from read")));
            }
        }
        for (buf, before) in &self.off_page {
            let now = self.cl.with_plane(|p| p.resident_pages_in(buf));
            if now != *before {
                let what = format!("{buf:?} is held off-page, yet {before} pages became {now}");
                return Err(self.fail(what));
            }
        }
        Ok(())
    }

    fn is_off_page(&self, i: usize) -> bool {
        self.off_page.iter().any(|(b, _)| *b == self.live[i].0)
    }

    /// The model's half of a hop: copy through a temporary, as an eager
    /// byte plane (or a memmove) would.
    fn model_hop(&mut self, h: Hop) {
        let moved = self.live[h.src].1[h.src_off as usize..][..h.len as usize].to_vec();
        self.live[h.dst].1[h.dst_off as usize..][..h.len as usize].copy_from_slice(&moved);
    }

    fn write(&mut self, i: usize, off: u64, len: u64, salt: u8) {
        let data = pattern(len, salt);
        self.cl.write(&self.live[i].0, off, &data);
        self.live[i].1[off as usize..][..len as usize].copy_from_slice(&data);
    }

    fn slices(&self, h: Hop) -> (Buffer, Buffer) {
        let src = self.live[h.src].0.slice(h.src_off, h.len);
        (src, self.live[h.dst].0.slice(h.dst_off, h.len))
    }

    fn apply(&mut self, ctx: &mut Ctx, op: Op) -> Result<(), String> {
        self.log.push(op.clone());
        match op {
            Op::Alloc(at, len, align) | Op::AllocOffPage(at, len, align) => {
                let buf = self.cl.alloc(at, len, align).expect("fits");
                if matches!(op, Op::AllocOffPage(..)) {
                    self.cl.hold_off_page(&buf);
                    let backed = self.cl.with_plane(|p| p.resident_pages_in(&buf));
                    self.off_page.push((buf.clone(), backed));
                }
                let len = buf.len;
                self.live.push((buf, vec![0; len as usize]));
                // Fresh or recycled, a new buffer reads zero.
                self.check(self.live.len() - 1, 0, len)?;
            }
            Op::Free(i) => {
                let (buf, _) = self.live.remove(i);
                self.off_page.retain(|(b, _)| *b != buf);
                self.cl.free(&buf);
            }
            Op::Discard(i, off, len) => {
                self.cl.discard(&self.live[i].0.slice(off, len));
                self.live[i].1[off as usize..][..len as usize].fill(0);
            }
            Op::Write(i, off, len, salt) => self.write(i, off, len, salt),
            Op::Stamps(i, writes) => {
                for (off, len, salt) in writes {
                    self.write(i, off, len, salt);
                }
            }
            Op::Read(i, off, len) => self.check(i, off, len)?,
            Op::Copy(h) => {
                let (src, dst) = (&self.live[h.src].0, &self.live[h.dst].0);
                self.cl.copy(src, h.src_off, dst, h.dst_off, h.len);
                self.model_hop(h);
            }
            Op::Copies(hops) => {
                let live = &self.live;
                self.cl.with_plane(|m| {
                    for h in &hops {
                        m.copy(&live[h.src].0, h.src_off, &live[h.dst].0, h.dst_off, h.len);
                    }
                });
                for h in hops {
                    self.model_hop(h);
                }
            }
            Op::Rmw(i, off) => {
                let buf = &self.live[i].0;
                self.cl.with_plane(|m| {
                    let mut word = [0u8; 8];
                    m.read(buf, off, &mut word);
                    m.write(buf, off, &add_one(word));
                });
                let word = &mut self.live[i].1[off as usize..][..8];
                let new = add_one((&*word).try_into().expect("a word is eight bytes"));
                word.copy_from_slice(&new);
            }
            Op::Dma(h) => {
                let (src, dst) = self.slices(h);
                let t = self.cl.pci_dma(&src, &dst, ctx.now());
                ctx.wait(&t.completion);
                self.model_hop(h);
            }
            Op::Ib(h, initiator) => {
                let (src, dst) = self.slices(h);
                let t = self
                    .cl
                    .ib_transfer(&src, &dst, NodeId(initiator), ctx.now());
                ctx.wait(&t.completion);
                self.model_hop(h);
            }
        }
        Ok(())
    }
}

/// Run `body` as the only process of a fresh 3-node cluster and return
/// its verdict.
fn on_world(body: impl FnOnce(&mut Ctx, &mut World) -> Result<(), String> + Send + 'static) {
    let mut sim = Simulation::new();
    let cl = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(NODES));
    let verdict = Arc::new(SimCell::new(None));
    let verdict2 = verdict.clone();
    sim.spawn("program", move |ctx| {
        let mut w = World {
            cl,
            live: Vec::new(),
            off_page: Vec::new(),
            log: Vec::new(),
        };
        let v = body(ctx, &mut w).and_then(|()| w.check_all());
        *verdict2.lock() = Some(v);
    });
    sim.run_expect();
    let v = verdict.lock().take().expect("the program ran to its end");
    v.unwrap_or_else(|e| panic!("{e}"));
}

fn run_program(ops: Vec<Op>) {
    on_world(move |ctx, w| ops.into_iter().try_for_each(|op| w.apply(ctx, op)));
}

// ---- random programs ----------------------------------------------------------

const SEEDS: u64 = 48;
const OPS: usize = 300;

/// Often short, often a few pages, often either side of `MIRROR_MIN`.
fn random_len(rng: &mut StdRng) -> u64 {
    match rng.random_range(0..5u32) {
        0 => rng.random_range(1..=64u64),
        1 => 4096 * rng.random_range(1..=3u64),
        2 => rng.random_range(MIRROR_MIN - 2..=MIRROR_MIN + 2),
        3 => rng.random_range(MIRROR_MIN..=3 * MIRROR_MIN),
        _ => rng.random_range(1..=12_288u64),
    }
}

/// An offset and a length inside a `len`-byte buffer: often a short
/// stamp, often the whole buffer.
fn random_span(rng: &mut StdRng, len: u64) -> (u64, u64) {
    match rng.random_range(0..3u32) {
        0 => (0, len),
        1 => {
            let n = rng.random_range(1..=16u64).min(len);
            (rng.random_range(0..=len - n), n)
        }
        _ => {
            let off = rng.random_range(0..len);
            (off, rng.random_range(1..=len - off))
        }
    }
}

fn random_hop(rng: &mut StdRng, live: &[(Buffer, Vec<u8>)], src: usize, dst: usize) -> Hop {
    let most = live[src].0.len.min(live[dst].0.len);
    let len = match rng.random_range(0..4u32) {
        // Either side of the line between a copy and a mirror.
        0 => rng.random_range(MIRROR_MIN - 1..=MIRROR_MIN).min(most),
        _ => random_span(rng, most).1,
    };
    Hop {
        src,
        src_off: rng.random_range(0..=live[src].0.len - len),
        dst,
        dst_off: rng.random_range(0..=live[dst].0.len - len),
        len,
    }
}

/// The source of `op` if `op` is a hop long enough to leave a mirror.
fn mirrored_source(op: &Op, live: &[(Buffer, Vec<u8>)]) -> Option<Buffer> {
    let long = |h: &Hop| {
        let (src, dst) = (&live[h.src].0, &live[h.dst].0);
        (h.len >= MIRROR_MIN && src.mem != dst.mem).then(|| src.clone())
    };
    match op {
        Op::Copy(h) | Op::Dma(h) | Op::Ib(h, _) => long(h),
        Op::Copies(hops) => hops.iter().rev().find_map(long),
        _ => None,
    }
}

/// Two to eight writes of 1–64 bytes at any offsets of a `len`-byte
/// buffer.
fn random_stamps(rng: &mut StdRng, len: u64) -> Vec<(u64, u64, u8)> {
    let writes = rng.random_range(2..=8usize);
    (0..writes)
        .map(|_| {
            let n = rng.random_range(1..=64u64).min(len);
            (rng.random_range(0..=len - n), n, rng.random())
        })
        .collect()
}

/// The next op; `mirrored` is the live buffer, if any, that was the source
/// of the last hop long enough to leave a mirror, and `off_page` a live
/// buffer held off-page, if any.
fn random_op(
    rng: &mut StdRng,
    live: &[(Buffer, Vec<u8>)],
    mirrored: Option<usize>,
    off_page: Option<usize>,
) -> Op {
    if let Some(i) = mirrored.filter(|_| rng.random_range(0..4u32) == 0) {
        return Op::Stamps(i, random_stamps(rng, live[i].0.len));
    }
    if let Some(i) = off_page.filter(|_| rng.random_range(0..8u32) == 0) {
        let (off, len) = random_span(rng, live[i].0.len);
        return Op::Discard(i, off, len);
    }
    let n = live.len();
    if n < 3 || (n < 12 && rng.random_range(0..6u32) == 0) {
        let at = mem(
            rng.random_range(0..NODES),
            [Domain::Host, Domain::Phi][rng.random_range(0..2usize)],
        );
        let align = [1, 8, 4096][rng.random_range(0..3usize)];
        if rng.random_range(0..4u32) == 0 {
            return Op::AllocOffPage(at, random_len(rng), align);
        }
        return Op::Alloc(at, random_len(rng), align);
    }
    if n >= 12 || rng.random_range(0..8u32) == 0 {
        return Op::Free(rng.random_range(0..n));
    }
    let (i, other) = (rng.random_range(0..n), rng.random_range(0..n));
    let len = live[i].0.len;
    match rng.random_range(0..7u32) {
        0 => {
            let (off, len) = random_span(rng, len);
            Op::Write(i, off, len, rng.random())
        }
        1 => {
            let (off, len) = random_span(rng, len);
            Op::Read(i, off, len)
        }
        2 => Op::Copy(random_hop(rng, live, i, other)),
        3 => {
            // A gather into one buffer, as an RDMA WRITE's SGEs land.
            let hops = rng.random_range(2..=3usize);
            Op::Copies(
                (0..hops)
                    .map(|_| {
                        let j = rng.random_range(0..n);
                        random_hop(rng, live, j, other)
                    })
                    .collect(),
            )
        }
        4 if len >= 8 => Op::Rmw(i, rng.random_range(0..=len - 8)),
        4 => Op::Read(i, 0, len),
        5 => {
            // A DMA partner: the same node, the other domain.
            let at = live[i].0.mem;
            let partners: Vec<usize> = (0..n)
                .filter(|&j| live[j].0.mem.node == at.node && live[j].0.mem.domain != at.domain)
                .collect();
            if partners.is_empty() {
                return Op::Read(i, 0, len);
            }
            let j = partners[rng.random_range(0..partners.len())];
            let (src, dst) = if rng.random::<bool>() { (i, j) } else { (j, i) };
            Op::Dma(random_hop(rng, live, src, dst))
        }
        _ => {
            let hop = random_hop(rng, live, i, other);
            Op::Ib(hop, rng.random_range(0..NODES))
        }
    }
}

#[test]
fn random_programs_read_what_an_eager_copy_would_have_written() {
    for seed in 0..SEEDS {
        on_world(move |ctx, w| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut source = None;
            for step in 0..OPS {
                let mirrored = source
                    .as_ref()
                    .and_then(|s| w.live.iter().position(|(b, _)| b == s));
                let off_page = (0..w.live.len()).rev().find(|&i| w.is_off_page(i));
                let op = random_op(&mut rng, &w.live, mirrored, off_page);
                if let Some(s) = mirrored_source(&op, &w.live) {
                    source = Some(s);
                }
                w.apply(ctx, op)
                    .map_err(|e| format!("seed {seed}, op {step}: {e}"))?;
                if step % 32 == 31 {
                    w.check_all()
                        .map_err(|e| format!("seed {seed}, op {step}: {e}"))?;
                }
            }
            Ok(())
        });
    }
}

// ---- the cases the rules were written for -------------------------------------

const PHI0: usize = 0;
const TWIN: usize = 1;
const LEN: u64 = MIRROR_MIN + 4096;

fn whole(src: usize, dst: usize) -> Hop {
    Hop {
        src,
        src_off: 0,
        dst,
        dst_off: 0,
        len: LEN,
    }
}

/// A Phi buffer with a pattern in it and a host twin, both on node 0.
fn phi_and_twin() -> Vec<Op> {
    vec![
        Op::Alloc(mem(0, Domain::Phi), LEN, 4096),
        Op::Alloc(mem(0, Domain::Host), LEN, 4096),
        Op::Write(PHI0, 0, LEN, 0x11),
    ]
}

#[test]
fn sync_to_a_twin_and_back() {
    // `sync_to_twin`, the twin is written on the host, `sync_from_twin`
    // — as a host-staged collective does — and once more with the Phi
    // side stamped in between.
    let mut ops = phi_and_twin();
    ops.extend([
        Op::Dma(whole(PHI0, TWIN)),
        Op::Read(TWIN, 0, LEN),
        Op::Write(TWIN, 100, 8, 0x22),
        Op::Dma(whole(TWIN, PHI0)),
        Op::Read(PHI0, 0, LEN),
        Op::Dma(whole(PHI0, TWIN)),
        Op::Dma(whole(TWIN, PHI0)),
        Op::Write(PHI0, 4000, 200, 0x33),
        Op::Read(TWIN, 0, LEN),
        Op::Dma(whole(TWIN, PHI0)),
    ]);
    run_program(ops);
}

#[test]
fn a_mirror_whose_source_is_itself_mirrored() {
    // Phi → twin, then twin → a second Phi buffer, then twin → a remote
    // node: the second hop's source is a mirror.
    let mut ops = phi_and_twin();
    ops.extend([
        Op::Alloc(mem(0, Domain::Phi), LEN, 4096),
        Op::Alloc(mem(1, Domain::Host), LEN, 4096),
        Op::Dma(whole(PHI0, TWIN)),
        Op::Dma(whole(TWIN, 2)),
        Op::Ib(whole(TWIN, 3), 1),
        Op::Write(PHI0, 0, 8, 0x44),
        Op::Read(TWIN, 0, LEN),
        Op::Read(2, 0, LEN),
        Op::Write(2, 8, 4096, 0x55),
        Op::Dma(whole(2, TWIN)),
        Op::Write(2, 0, LEN, 0x66),
        Op::Read(TWIN, 0, LEN),
        Op::Read(3, 0, LEN),
    ]);
    run_program(ops);
}

#[test]
fn freeing_either_end_of_a_mirror() {
    // Free the source: the twin keeps its bytes. Free the destination:
    // the source is untouched, and the recycled twin reads zero.
    let mut ops = phi_and_twin();
    ops.extend([
        Op::Dma(whole(PHI0, TWIN)),
        Op::Write(PHI0, 8, 8, 0x77),
        Op::Free(PHI0),
        Op::Read(0, 0, LEN),
        Op::Alloc(mem(0, Domain::Phi), LEN, 4096),
        Op::Write(1, 0, LEN, 0x88),
        Op::Dma(whole(1, 0)),
        Op::Free(0),
        Op::Read(0, 0, LEN),
        Op::Alloc(mem(0, Domain::Host), LEN, 4096),
        Op::Write(0, 0, 4, 0x99),
        Op::Read(1, 0, LEN),
    ]);
    run_program(ops);
}

#[test]
fn a_chain_across_three_nodes() {
    // A → B → C: C reads as A, not as B. A stamp into A reaches both, a
    // write into B ends B's hold only, and freeing A copies out to both.
    run_program(vec![
        Op::Alloc(mem(0, Domain::Phi), LEN, 4096),
        Op::Alloc(mem(1, Domain::Host), LEN, 4096),
        Op::Alloc(mem(2, Domain::Phi), LEN, 4096),
        Op::Write(0, 0, LEN, 0x12),
        Op::Ib(whole(0, 1), 1),
        Op::Ib(whole(1, 2), 2),
        Op::Write(0, 100, 8, 0x23),
        Op::Read(1, 0, LEN),
        Op::Read(2, 0, LEN),
        Op::Write(1, 4096, 4096, 0x34),
        Op::Read(2, 0, LEN),
        Op::Free(0),
        Op::Read(0, 0, LEN),
        Op::Read(1, 0, LEN),
    ]);
}

#[test]
fn a_round_trip_comes_home() {
    // A → B → A: into a second buffer beside A, whose run is stored in its
    // own arena and so copied, then back into A itself.
    run_program(vec![
        Op::Alloc(mem(0, Domain::Host), LEN, 4096),
        Op::Alloc(mem(1, Domain::Phi), LEN, 4096),
        Op::Alloc(mem(0, Domain::Host), LEN, 4096),
        Op::Write(0, 0, LEN, 0x45),
        Op::Ib(whole(0, 1), 0),
        Op::Ib(whole(1, 2), 1),
        Op::Write(0, 0, 8, 0x56),
        Op::Read(1, 0, LEN),
        Op::Read(2, 0, LEN),
        Op::Ib(whole(1, 0), 0),
        Op::Read(0, 0, LEN),
        Op::Write(1, 8, 8, 0x67),
        Op::Read(0, 0, LEN),
        Op::Write(0, LEN - 8, 8, 0x78),
        Op::Read(1, 0, LEN),
    ]);
}

#[test]
fn a_write_into_a_source_on_another_node() {
    // Two long copies under one plane lock make node 2's buffer read twice
    // as node 0's. Writes into node 0's buffer — a stamp, a run across the
    // two halves' line, all of it — reach both halves first.
    let half = |dst_off| Hop {
        src: 0,
        src_off: 0,
        dst: 1,
        dst_off,
        len: LEN,
    };
    run_program(vec![
        Op::Alloc(mem(0, Domain::Host), LEN, 4096),
        Op::Alloc(mem(2, Domain::Phi), 2 * LEN, 4096),
        Op::Write(0, 0, LEN, 0x89),
        Op::Copies(vec![half(0), half(LEN)]),
        Op::Write(0, 64, 8, 0x9A),
        Op::Read(1, 0, 2 * LEN),
        Op::Write(0, LEN - 100, 100, 0xAB),
        Op::Read(1, 0, 2 * LEN),
        Op::Write(0, 0, LEN, 0xBC),
        Op::Read(1, 0, 2 * LEN),
    ]);
}

#[test]
fn freeing_either_end_on_either_node() {
    // Node 0's buffer mirrored onto nodes 1 and 2. Free the source: both
    // keep its bytes. Then free a destination whose source is on another
    // node: the source is untouched, and the recycled space reads zero.
    run_program(vec![
        Op::Alloc(mem(0, Domain::Phi), LEN, 4096),
        Op::Alloc(mem(1, Domain::Phi), LEN, 4096),
        Op::Alloc(mem(2, Domain::Host), LEN, 4096),
        Op::Write(0, 0, LEN, 0xCD),
        Op::Ib(whole(0, 1), 0),
        Op::Ib(whole(0, 2), 2),
        Op::Write(0, 8, 8, 0xDE),
        Op::Free(0),
        Op::Read(0, 0, LEN),
        Op::Read(1, 0, LEN),
        Op::Ib(whole(0, 1), 1),
        Op::Free(1),
        Op::Read(0, 0, LEN),
        Op::Alloc(mem(2, Domain::Host), LEN, 4096),
        Op::Write(0, 0, 4, 0xEF),
        Op::Read(1, 0, LEN),
    ]);
}

#[test]
fn an_eight_byte_read_modify_write_on_a_mirrored_destination() {
    // As a verbs atomic does, at the front, in the middle and at the end
    // of a destination; then on the source, then the source rewritten.
    run_program(vec![
        Op::Alloc(mem(0, Domain::Host), LEN, 4096),
        Op::Alloc(mem(1, Domain::Phi), LEN, 4096),
        Op::Write(0, 0, LEN, 0x5C),
        Op::Ib(whole(0, 1), 1),
        Op::Rmw(1, 0),
        Op::Rmw(1, LEN / 2 + 4),
        Op::Rmw(1, LEN - 8),
        Op::Read(1, 0, LEN),
        Op::Rmw(0, 16),
        Op::Read(1, 0, LEN),
        Op::Write(0, 0, LEN, 0x6D),
        Op::Read(1, 0, LEN),
    ]);
}

#[test]
fn an_off_page_pool_from_arrival_to_discard() {
    // A pool held off-page on node 0's host, as an SRQ pool is: a short
    // arrival from node 1 is a held run, read back, copied out within the
    // arena and split by a write, then discarded. A long hop into it is a
    // mirror, whose displaced bytes it holds; a long hop out of it makes
    // it a source, whose mirror takes its bytes before a discard.
    let hop = |src, src_off, dst, dst_off, len| Hop {
        src,
        src_off,
        dst,
        dst_off,
        len,
    };
    run_program(vec![
        Op::AllocOffPage(mem(0, Domain::Host), 4 * LEN, 4096),
        Op::Alloc(mem(1, Domain::Phi), LEN, 4096),
        Op::Alloc(mem(0, Domain::Host), LEN, 4096),
        Op::Alloc(mem(2, Domain::Phi), LEN, 4096),
        Op::Write(1, 0, LEN, 0x31),
        Op::Ib(hop(1, 0, 0, 100, 8192), 1),
        Op::Read(0, 0, 4 * LEN),
        Op::Copy(hop(0, 100, 2, 0, 8192)),
        Op::Write(0, 104, 8, 0x42),
        Op::Discard(0, 0, LEN),
        Op::Read(0, 0, 4 * LEN),
        Op::Ib(hop(1, 0, 0, LEN, LEN), 0),
        Op::Write(1, 0, 8, 0x53),
        Op::Write(1, 8, 4096, 0x64),
        Op::Read(0, 0, 4 * LEN),
        Op::Write(0, 2 * LEN, LEN, 0x75),
        Op::Ib(hop(0, 2 * LEN, 3, 0, LEN), 2),
        Op::Discard(0, 2 * LEN, LEN),
        Op::Read(3, 0, LEN),
        Op::Copy(hop(0, LEN, 0, LEN + 50, 8000)),
        Op::Read(0, 0, 4 * LEN),
        Op::Free(0),
        Op::Read(1, 0, LEN),
    ]);
}

// ---- what the host does not touch -------------------------------------------

/// Resident pages behind one arena.
fn pages(cl: &Cluster, at: MemRef) -> u64 {
    cl.mem_resident(at) / page_size() as u64
}

/// Resident pages behind node 0's host arena.
fn host_pages(cl: &Cluster) -> u64 {
    pages(cl, mem(0, Domain::Host))
}

#[test]
fn a_long_ib_transfer_writes_no_page_of_its_destination() {
    on_world(|ctx, w| {
        let cl = w.cl.clone();
        let src = cl.alloc_pages(mem(0, Domain::Phi), MIRROR_MIN).unwrap();
        let data = pattern(MIRROR_MIN, 0x3C);
        cl.write(&src, 0, &data);
        // One byte shorter is a copy, and writes its destination.
        for (node, len) in [(1, MIRROR_MIN), (2, MIRROR_MIN - 1)] {
            let at = mem(node, Domain::Host);
            let dst = cl.alloc_pages(at, len).unwrap();
            let t = cl.ib_transfer(&src.slice(0, len), &dst, NodeId(node), ctx.now());
            ctx.wait(&t.completion);
            assert_eq!(cl.read_vec(&dst), data[..len as usize]);
            let written = pages(&cl, at);
            if len >= MIRROR_MIN {
                assert_eq!(written, 0, "a {len}-byte transfer wrote its destination");
            } else {
                assert!(written > 0, "a {len}-byte transfer was not copied");
            }
        }
        Ok(())
    });
}

#[test]
fn a_synced_twin_that_is_only_read_touches_no_page() {
    on_world(|ctx, w| {
        let len = 64 << 10;
        let cl = w.cl.clone();
        let phi = cl.alloc_pages(mem(0, Domain::Phi), len).unwrap();
        let twin = cl.alloc_pages(mem(0, Domain::Host), len).unwrap();
        let far = cl.alloc_pages(mem(1, Domain::Phi), len).unwrap();
        let data = pattern(len, 0x5A);
        cl.write(&phi, 0, &data);
        assert_eq!(host_pages(&cl), 0);
        let sync = cl.pci_dma(&phi, &twin, ctx.now());
        ctx.wait(&sync.completion);
        // An RDMA READ of the twin by the far node.
        let read = cl.ib_transfer(&twin, &far, NodeId(1), ctx.now());
        ctx.wait(&read.completion);
        assert_eq!(cl.read_vec(&far), data);
        assert_eq!(cl.read_vec(&twin), data);
        assert_eq!(host_pages(&cl), 0, "the twin was written");
        Ok(())
    });
}

#[test]
fn a_stamp_into_a_mirrored_source_writes_no_page_of_its_destinations() {
    // A Phi send buffer synced into its host twin and read by a receive
    // buffer on node 1; then an 8-byte stamp into the send buffer, as the
    // next message's. Both destinations keep reading the old bytes, and
    // hold the 8 the stamp displaced without a page.
    on_world(|ctx, w| {
        let len = 64 << 10;
        let cl = w.cl.clone();
        let phi = cl.alloc_pages(mem(0, Domain::Phi), len).unwrap();
        let twin = cl.alloc_pages(mem(0, Domain::Host), len).unwrap();
        let recv = cl.alloc_pages(mem(1, Domain::Phi), len).unwrap();
        let data = pattern(len, 0x2B);
        cl.write(&phi, 0, &data);
        let sync = cl.pci_dma(&phi, &twin, ctx.now());
        ctx.wait(&sync.completion);
        let read = cl.ib_transfer(&phi, &recv, NodeId(1), ctx.now());
        ctx.wait(&read.completion);
        cl.write(&phi, 0, &[0xFF; 8]);
        for (dst, at) in [(&twin, mem(0, Domain::Host)), (&recv, mem(1, Domain::Phi))] {
            assert_eq!(cl.read_vec(dst), data, "{at} lost the displaced bytes");
            assert_eq!(pages(&cl, at), 0, "the stamp was written into {at}");
        }
        // A second stamp over the first displaces nothing more.
        cl.write(&phi, 4, &[0xEE; 8]);
        let mut want = data.clone();
        want[..4].copy_from_slice(&[0xFF; 4]);
        want[4..12].copy_from_slice(&[0xEE; 8]);
        assert_eq!(cl.read_vec(&phi), want);
        for (dst, at) in [(&twin, mem(0, Domain::Host)), (&recv, mem(1, Domain::Phi))] {
            let mut head = [0; 16];
            cl.read(dst, 0, &mut head);
            assert_eq!(head, data[..16], "{at} lost the displaced bytes");
            assert_eq!(pages(&cl, at), 0, "the stamp was written into {at}");
        }
        Ok(())
    });
}

#[test]
fn a_recycled_buffer_touches_no_page_until_it_is_written() {
    on_world(|_ctx, w| {
        let len = 64 << 10;
        let cl = w.cl.clone();
        let first = cl.alloc_pages(mem(0, Domain::Host), len).unwrap();
        cl.free(&first);
        let again = cl.alloc_pages(mem(0, Domain::Host), len).unwrap();
        assert_eq!(again.addr, first.addr, "the space is recycled");
        assert_eq!(cl.read_vec(&again), vec![0; len as usize]);
        assert_eq!(host_pages(&cl), 0, "recycling touched the buffer");
        cl.write(&again, len / 2, &[1]);
        assert_eq!(host_pages(&cl), 1);
        let mut want = vec![0; len as usize];
        want[len as usize / 2] = 1;
        assert_eq!(cl.read_vec(&again), want);
        Ok(())
    });
}
