//! Every program of up to four ops over three live buffers, run against
//! the eager model (DESIGN.md §18, ROADMAP item 10a).
//!
//! `lazy_bytes.rs` samples long random programs; this file leaves no short
//! one out. Three buffers sit on 2 nodes × 2 domains in each way that
//! matters to the byte plane — all in one arena, two in one and one in
//! another, each in its own — and a program is up to four ops from this
//! grid:
//! - a hop from the front of one buffer to the back of another, of
//!   `MIRROR_MIN − 1`, `MIRROR_MIN` or `MIRROR_MIN + 4096` bytes;
//! - a write of 8 or 9 bytes (either side of the bytes an arena holds
//!   without a page) at the front, the middle or the end;
//! - the 8-byte read-modify-write of a verbs atomic, at the same places;
//! - a free, with the buffer's successor allocated in its place — so a
//!   free hits whichever end of a mirror the buffer is;
//! - a discard of the buffer held off-page, whole or its middle half.
//!
//! The third buffer is held off-page (`Plane::hold_off_page`), as an SRQ
//! pool is, and so is its successor: what lands in it is a held run in a
//! side buffer, never in its pages, and no page wholly inside it is ever
//! backed — checked after every program through `mincore`.
//!
//! After every op every live byte is checked against an eager
//! copy-and-scrub model, as in `lazy_bytes.rs`; in debug builds the plane
//! also `debug_assert!`s its invariants after every change.
//!
//! The programs are explored breadth first and pruned by canonical state:
//! a program whose state — each byte's value and how the plane is expected
//! to hold it (in its pages, as held zeros, as held bytes, as a held run,
//! or as a mirror of which byte) — was already reached by a shorter or earlier program is
//! not run again, and not extended. Nothing is sampled. How the plane is
//! expected to hold each byte is the model's guess (`Model::apply`), so
//! each program's end state is also checked against the plane's own
//! extents (`Plane::holding`): a rule the model gets wrong fails the check
//! instead of pruning programs unseen.
//!
//! A last case runs a zero-length write and copy inside a mirror's source.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use fabric::{Buffer, Cluster, ClusterConfig, Domain, MemRef, NodeId, MIRROR_MIN};
use simcore::Simulation;

/// Every buffer's length: one byte more than the longest hop, so that the
/// longest hop's source and destination are offset from each other.
const LEN: u64 = MIRROR_MIN + 4096 + 1;
const HOPS: [u64; 3] = [MIRROR_MIN - 1, MIRROR_MIN, MIRROR_MIN + 4096];
/// The most bytes a displacement is held without a page (`HELD_MAX`).
const HELD: u64 = 8;
const DEPTH: usize = 4;
/// The buffer held off-page.
const OFF_PAGE: usize = 2;

fn mem(node: usize, domain: Domain) -> MemRef {
    MemRef {
        node: NodeId(node),
        domain,
    }
}

/// The three ways three buffers can share arenas.
fn placements() -> [[MemRef; 3]; 3] {
    let (h0, p0, p1) = (
        mem(0, Domain::Host),
        mem(0, Domain::Phi),
        mem(1, Domain::Phi),
    );
    [[h0, h0, h0], [p0, p0, h0], [p0, h0, p1]]
}

#[derive(Clone, Copy, Debug)]
enum Op {
    /// `len` bytes from the front of `src` to the back of `dst`.
    Hop { src: usize, dst: usize, len: u64 },
    /// `len` bytes of this op's own data at `off`.
    Write { buf: usize, off: u64, len: u64 },
    /// The word at `off` plus one, read and written under one plane lock.
    Rmw { buf: usize, off: u64 },
    /// Free the buffer and allocate its successor, which reads zero.
    Free { buf: usize },
    /// End `len` bytes of the off-page buffer at `off`: they read zero.
    Discard { off: u64, len: u64 },
}

impl Op {
    fn every() -> Vec<Op> {
        let mut ops = Vec::new();
        for src in 0..3 {
            for dst in (0..3).filter(|&d| d != src) {
                ops.extend(HOPS.map(|len| Op::Hop { src, dst, len }));
            }
        }
        for buf in 0..3 {
            for len in [HELD, HELD + 1] {
                for off in [0, LEN / 2, LEN - len] {
                    ops.push(Op::Write { buf, off, len });
                }
            }
            ops.extend([0, LEN / 2, LEN - 8].map(|off| Op::Rmw { buf, off }));
            ops.push(Op::Free { buf });
        }
        ops.extend([(0, LEN), (LEN / 4, LEN / 2)].map(|(off, len)| Op::Discard { off, len }));
        ops
    }
}

/// Buffer `origin`'s first bytes: no period an offset error could hide in.
fn pattern(origin: usize, off: u64) -> u8 {
    let x = (off + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (origin as u64 + 1) << 56;
    (x >> 40) as u8
}

/// The data write `id` of [`Op::every`] writes.
fn data(id: usize, len: u64) -> Vec<u8> {
    (0..len).map(|k| pattern(id + 3, k) ^ 0xA5).collect()
}

fn add_one(word: [u8; 8]) -> [u8; 8] {
    u64::from_le_bytes(word).wrapping_add(1).to_le_bytes()
}

// ---- the canonical state --------------------------------------------------------

/// Where a run's value comes from, at its first byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Value {
    Zero,
    /// In a canonical state, the `n`th value to appear.
    Name(u8, u32),
    /// Buffer `origin`'s first bytes.
    Pattern(u8, u32),
    /// The data of write `id`.
    Data(u8, u32),
    /// A read-modify-write's new word.
    Word([u8; 8], u8),
}

/// How the plane is expected to hold a run, at its first byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Held {
    /// In the arena's pages.
    Pages,
    /// Recycled space, held as zero.
    Zero,
    /// A displacement of at most [`HELD`] bytes, held without a page.
    Bytes,
    /// A held run of the off-page buffer, in a side buffer.
    Side,
    /// A mirror of buffer `buf` at `off`.
    From(u8, u32),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Run {
    len: u32,
    value: Value,
    held: Held,
}

impl Run {
    /// This run without its first `k` bytes.
    fn skip(self, k: u32) -> Run {
        let value = match self.value {
            Value::Zero => Value::Zero,
            Value::Name(n, at) => Value::Name(n, at + k),
            Value::Pattern(o, at) => Value::Pattern(o, at + k),
            Value::Data(id, at) => Value::Data(id, at + k),
            Value::Word(w, at) => Value::Word(w, at + k as u8),
        };
        let held = match self.held {
            Held::From(b, at) => Held::From(b, at + k),
            h => h,
        };
        Run {
            len: self.len - k,
            value,
            held,
        }
    }

    fn byte(&self, k: u32, writes: &[Vec<u8>]) -> u8 {
        match self.value {
            Value::Zero => 0,
            Value::Name(..) => unreachable!("only a canonical form names values"),
            Value::Pattern(o, at) => pattern(o as usize, (at + k) as u64),
            Value::Data(id, at) => writes[id as usize][(at + k) as usize],
            Value::Word(w, at) => w[at as usize + k as usize],
        }
    }
}

/// Every live buffer as runs: the canonical state the exploration prunes
/// by.
type State = [Vec<Run>; 3];

/// The runs of `runs` over `r`.
fn slice(runs: &[Run], r: std::ops::Range<u32>) -> Vec<Run> {
    let mut out = Vec::new();
    let mut at = 0;
    for run in runs {
        let (lo, hi) = (at.max(r.start), (at + run.len).min(r.end));
        if lo < hi {
            let mut piece = run.skip(lo - at);
            piece.len = hi - lo;
            out.push(piece);
        }
        at += run.len;
    }
    out
}

/// `runs` with `r` replaced by `new`, adjacent runs that continue each
/// other merged (held bytes never are: each displacement is its own).
fn splice(runs: &mut Vec<Run>, r: std::ops::Range<u32>, new: Vec<Run>) {
    let total = runs.iter().map(|r| r.len).sum();
    let mut out = slice(runs, 0..r.start);
    out.extend(new);
    out.extend(slice(runs, r.end..total));
    runs.clear();
    for run in out {
        if let Some(last) = runs.last_mut() {
            let held = last.held != Held::Bytes && run.held != Held::Bytes;
            if held && last.skip(last.len) == (Run { len: 0, ..run }) {
                last.len += run.len;
                continue;
            }
        }
        runs.push(run);
    }
}

/// The model: what every live buffer holds and how, with the arena of
/// each.
#[derive(Clone)]
struct Model {
    at: [MemRef; 3],
    state: State,
}

impl Model {
    fn new(at: [MemRef; 3]) -> Model {
        let fresh = |o| {
            vec![Run {
                len: LEN as u32,
                value: Value::Pattern(o, 0),
                held: stored(o as usize),
            }]
        };
        Model {
            at,
            state: [fresh(0), fresh(1), fresh(2)],
        }
    }

    /// The canonical form of the state. The plane never looks at a
    /// byte's value, so values are named in order of first appearance; and
    /// arenas are all alike to it, so buffers are renumbered by whichever
    /// symmetry of the placement gives the least form.
    fn key(&self) -> State {
        let same = |p: &[usize; 3], i: usize, j: usize| {
            (self.at[i] == self.at[j]) == (self.at[p[i]] == self.at[p[j]])
        };
        let perms = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let forms = perms
            .iter()
            .filter(|p| p[OFF_PAGE] == OFF_PAGE && (0..3).all(|i| (0..3).all(|j| same(p, i, j))));
        forms
            .map(|p| {
                let mut form: State = Default::default();
                for (i, runs) in self.state.iter().enumerate() {
                    form[p[i]] = runs.clone();
                }
                let mut names = Vec::new();
                for run in form.iter_mut().flatten() {
                    if let Held::From(b, at) = run.held {
                        run.held = Held::From(p[b as usize] as u8, at);
                    }
                    let (name, at) = match run.value {
                        Value::Zero | Value::Name(..) => continue,
                        Value::Pattern(o, at) => (Value::Pattern(o, 0), at),
                        Value::Data(id, at) => (Value::Data(id, 0), at),
                        Value::Word(w, at) => (Value::Word(w, 0), at as u32),
                    };
                    let n = names.iter().position(|&v| v == name).unwrap_or_else(|| {
                        names.push(name);
                        names.len() - 1
                    });
                    run.value = Value::Name(n as u8, at);
                }
                form
            })
            .min()
            .expect("the identity is a symmetry")
    }

    /// `buf[r]` is about to change: every mirror of it is displaced — held
    /// if it is short enough, written through otherwise. A mirror is its
    /// runs that continue each other, whatever bytes they hold.
    fn displace(&mut self, buf: usize, r: std::ops::Range<u32>) {
        for (of, runs) in self.state.iter_mut().enumerate() {
            let mut at = 0;
            let mut cuts = Vec::new();
            for (len, held) in merged(runs.iter().map(|r| (r.len, r.held))) {
                if let Held::From(b, off) = held {
                    let (lo, hi) = (off.max(r.start), (off + len).min(r.end));
                    if b as usize == buf && lo < hi {
                        cuts.push(at + lo - off..at + hi - off);
                    }
                }
                at += len;
            }
            for cut in cuts {
                let held = if cut.len() as u64 <= HELD {
                    Held::Bytes
                } else {
                    stored(of)
                };
                let moved = slice(runs, cut.clone())
                    .into_iter()
                    .map(|r| Run { held, ..r })
                    .collect();
                splice(runs, cut, moved);
            }
        }
    }

    fn write(&mut self, buf: usize, off: u32, len: u32, value: Value) {
        self.displace(buf, off..off + len);
        let run = Run {
            len,
            value,
            held: stored(buf),
        };
        splice(&mut self.state[buf], off..off + len, vec![run]);
    }

    fn apply(&mut self, id: usize, op: Op, writes: &[Vec<u8>]) {
        match op {
            Op::Hop { src, dst, len } => {
                let (len, to) = (len as u32, (LEN - len) as u32);
                self.displace(dst, to..to + len);
                let mirrors = len as u64 >= MIRROR_MIN && self.at[src] != self.at[dst];
                let runs = slice(&self.state[src], 0..len);
                let mut at = 0;
                let runs = runs
                    .into_iter()
                    .map(|run| {
                        let held = match run.held {
                            Held::From(b, _) if self.at[b as usize] == self.at[dst] => stored(dst),
                            Held::From(b, off) if mirrors => Held::From(b, off),
                            _ if mirrors => Held::From(src as u8, at),
                            _ => stored(dst),
                        };
                        at += run.len;
                        Run { held, ..run }
                    })
                    .collect();
                splice(&mut self.state[dst], to..to + len, runs);
            }
            Op::Write { buf, off, len } => {
                self.write(buf, off as u32, len as u32, Value::Data(id as u8, 0))
            }
            Op::Rmw { buf, off } => {
                let mut word = [0; 8];
                for (k, run) in slice(&self.state[buf], off as u32..off as u32 + 8)
                    .iter()
                    .flat_map(|r| (0..r.len).map(move |k| (k, *r)))
                    .enumerate()
                {
                    word[k] = run.1.byte(run.0, writes);
                }
                self.write(buf, off as u32, 8, Value::Word(add_one(word), 0));
            }
            Op::Free { buf } => {
                self.displace(buf, 0..LEN as u32);
                self.state[buf] = vec![Run {
                    len: LEN as u32,
                    value: Value::Zero,
                    held: Held::Zero,
                }];
            }
            Op::Discard { off, len } => {
                let r = off as u32..(off + len) as u32;
                self.displace(OFF_PAGE, r.clone());
                let zero = Run {
                    len: len as u32,
                    value: Value::Zero,
                    held: Held::Zero,
                };
                splice(&mut self.state[OFF_PAGE], r, vec![zero]);
            }
        }
    }
}

/// How buffer `buf` holds what is written or copied into it: in its
/// pages, or — held off-page — as a held run.
fn stored(buf: usize) -> Held {
    if buf == OFF_PAGE {
        Held::Side
    } else {
        Held::Pages
    }
}

/// `(len, held)` runs with adjacent ones that continue each other merged:
/// the plane's extents and the model's runs split a run differently.
fn merged(runs: impl IntoIterator<Item = (u32, Held)>) -> Vec<(u32, Held)> {
    let mut out: Vec<(u32, Held)> = Vec::new();
    for (len, held) in runs {
        if let Some((n, last)) = out.last_mut() {
            let next = match *last {
                Held::From(b, at) => Held::From(b, at + *n),
                h => h,
            };
            if next == held {
                *n += len;
                continue;
            }
        }
        out.push((len, held));
    }
    out
}

// ---- the plane and the eager model ---------------------------------------------

/// One cluster reused by every program: the buffers are freed and
/// allocated again, written with their patterns, before each.
struct Rig {
    cl: Arc<Cluster>,
    _sim: Simulation,
    live: Vec<Buffer>,
    eager: [Vec<u8>; 3],
    patterns: [Vec<u8>; 3],
    got: Vec<u8>,
}

impl Rig {
    fn new() -> Rig {
        let sim = Simulation::new();
        let cl = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(2));
        // A pad of its own length in each arena, so that no two buffers in
        // different arenas share an address.
        for (i, at) in [0, 1]
            .iter()
            .flat_map(|&n| [mem(n, Domain::Host), mem(n, Domain::Phi)])
            .enumerate()
        {
            cl.alloc(at, 24 * (i as u64 + 1), 8).expect("fits");
        }
        Rig {
            cl,
            _sim: sim,
            live: Vec::new(),
            eager: Default::default(),
            patterns: [0, 1, 2].map(|o| (0..LEN).map(|k| pattern(o, k)).collect()),
            got: vec![0; LEN as usize],
        }
    }

    fn reset(&mut self, at: [MemRef; 3]) {
        for buf in self.live.drain(..) {
            self.cl.free(&buf);
        }
        for (i, &at) in at.iter().enumerate() {
            let buf = self.alloc(i, at);
            self.eager[i].clone_from(&self.patterns[i]);
            self.cl.write(&buf, 0, &self.eager[i]);
            self.live.push(buf);
        }
    }

    fn apply(&mut self, op: Op, id: usize, writes: &[Vec<u8>]) {
        match op {
            Op::Hop { src, dst, len } => {
                let to = LEN - len;
                self.cl.copy(&self.live[src], 0, &self.live[dst], to, len);
                let [from, into] = self
                    .eager
                    .get_disjoint_mut([src, dst])
                    .expect("two buffers");
                into[to as usize..].copy_from_slice(&from[..len as usize]);
            }
            Op::Write { buf, off, len } => {
                self.cl.write(&self.live[buf], off, &writes[id]);
                self.eager[buf][off as usize..][..len as usize].copy_from_slice(&writes[id]);
            }
            Op::Rmw { buf, off } => {
                let b = &self.live[buf];
                self.cl.with_plane(|m| {
                    let mut word = [0u8; 8];
                    m.read(b, off, &mut word);
                    m.write(b, off, &add_one(word));
                });
                let word = &mut self.eager[buf][off as usize..][..8];
                let new = add_one((&*word).try_into().expect("a word is eight bytes"));
                word.copy_from_slice(&new);
            }
            Op::Free { buf } => {
                let at = self.live[buf].mem;
                self.cl.free(&self.live[buf]);
                self.live[buf] = self.alloc(buf, at);
                self.eager[buf].fill(0);
            }
            Op::Discard { off, len } => {
                self.cl.discard(&self.live[OFF_PAGE].slice(off, len));
                self.eager[OFF_PAGE][off as usize..][..len as usize].fill(0);
            }
        }
    }

    /// Buffer `i`, allocated in `at`: held off-page if it is [`OFF_PAGE`].
    fn alloc(&self, i: usize, at: MemRef) -> Buffer {
        let buf = self.cl.alloc(at, LEN, 8).expect("fits");
        if i == OFF_PAGE {
            self.cl.hold_off_page(&buf);
        }
        buf
    }

    /// Every live byte against the eager model and the canonical state.
    fn check(&mut self, model: &Model, writes: &[Vec<u8>]) -> Result<(), String> {
        for i in 0..3 {
            self.cl.read(&self.live[i], 0, &mut self.got);
            let want = &self.eager[i];
            if self.got != *want {
                let k = self.got.iter().zip(want).position(|(g, w)| g != w);
                let k = k.expect("the two differ");
                return Err(format!(
                    "buffer {i} byte {k} reads {:#x}, the eager model {:#x}",
                    self.got[k], want[k]
                ));
            }
            let mut k = 0;
            for run in &model.state[i] {
                let want = &want[k..k + run.len as usize];
                let ok = match run.value {
                    Value::Zero => want.iter().all(|&b| b == 0),
                    Value::Name(..) => unreachable!("only a canonical form names values"),
                    Value::Pattern(o, at) => {
                        *want == self.patterns[o as usize][at as usize..][..want.len()]
                    }
                    Value::Data(id, at) => {
                        *want == writes[id as usize][at as usize..][..want.len()]
                    }
                    Value::Word(w, at) => *want == w[at as usize..][..want.len()],
                };
                assert!(ok, "the canonical state of buffer {i} is wrong at {k}");
                k += run.len as usize;
            }
            // The plane reports held zeros, held bytes and held runs alike:
            // its rules treat them alike.
            let held = |h| match h {
                Held::Zero | Held::Side => Held::Bytes,
                h => h,
            };
            let want = merged(model.state[i].iter().map(|r| (r.len, held(r.held))));
            let got = merged(self.holding(i)?);
            if got != want {
                return Err(format!(
                    "buffer {i} is held as {got:?}, the model expects {want:?}"
                ));
            }
        }
        Ok(())
    }

    /// Host pages wholly inside the off-page buffer that are backed. Once
    /// backed a page stays so, and the buffer and its successors always
    /// take the same place, so one look after the last program sees a
    /// page any program backed.
    fn off_page_resident(&self) -> usize {
        self.cl
            .with_plane(|p| p.resident_pages_in(&self.live[OFF_PAGE]))
    }

    /// How the plane holds buffer `i`, in the model's terms, with anything
    /// its arena holds as [`Held::Bytes`].
    fn holding(&self, i: usize) -> Result<Vec<(u32, Held)>, String> {
        let extents = self.cl.with_plane(|p| p.holding(&self.live[i]));
        let mut runs = Vec::new();
        let mut at = 0;
        for (r, how) in extents {
            if at < r.start {
                runs.push(((r.start - at) as u32, Held::Pages));
            }
            let held = match how {
                None => Held::Bytes,
                Some(src) => {
                    let (lo, hi) = (src.addr, src.addr + src.len);
                    let of = |b: &Buffer| b.mem == src.mem && b.addr <= lo && hi <= b.addr + LEN;
                    let Some(b) = self.live.iter().position(of) else {
                        return Err(format!("buffer {i} mirrors {src:?}, no live buffer"));
                    };
                    Held::From(b as u8, (lo - self.live[b].addr) as u32)
                }
            };
            runs.push(((r.end - r.start) as u32, held));
            at = r.end;
        }
        if at < LEN {
            runs.push(((LEN - at) as u32, Held::Pages));
        }
        Ok(runs)
    }

    /// `program` from the start.
    fn run(&mut self, at: [MemRef; 3], program: &[(usize, Op)], writes: &[Vec<u8>]) {
        self.reset(at);
        for &(id, op) in program {
            self.apply(op, id, writes);
        }
    }
}

/// Every program over buffers placed `at`, breadth first: how many were
/// run and how many reached.
fn explore(at: [MemRef; 3], ops: &[Op], writes: &[Vec<u8>]) -> (u64, u64) {
    let mut rig = Rig::new();
    let (mut ran, mut reached) = (0u64, 0u64);
    let mut seen = HashSet::new();
    let mut frontier = vec![(Vec::new(), Model::new(at))];
    seen.insert(frontier[0].1.key());
    for depth in 1..=DEPTH {
        let mut next = Vec::new();
        for (program, model) in &frontier {
            for (id, &op) in ops.iter().enumerate() {
                reached += 1;
                let mut model: Model = model.clone();
                model.apply(id, op, writes);
                if !seen.insert(model.key()) {
                    continue;
                }
                let mut program: Vec<(usize, Op)> = program.clone();
                program.push((id, op));
                ran += 1;
                rig.run(at, &program, writes);
                rig.check(&model, writes)
                    .unwrap_or_else(|e| panic!("{at:?}: {program:?}: {e}"));
                if depth < DEPTH {
                    next.push((program, model));
                }
            }
        }
        frontier = next;
    }
    let backed = rig.off_page_resident();
    assert_eq!(
        backed, 0,
        "{at:?}: {backed} pages under the off-page buffer are backed"
    );
    (ran, reached)
}

#[test]
fn every_short_program_reads_what_an_eager_copy_would_have_written() {
    let started = Instant::now();
    let ops = Op::every();
    let writes: Vec<Vec<u8>> = ops
        .iter()
        .enumerate()
        .map(|(id, op)| match *op {
            Op::Write { len, .. } => data(id, len),
            _ => Vec::new(),
        })
        .collect();
    let (ops, writes) = (&ops, &writes);
    // Each placement on a thread of its own, with a cluster of its own.
    let counts = std::thread::scope(|s| {
        let each = placements().map(|at| s.spawn(move || explore(at, ops, writes)));
        each.map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
    });
    let (ran, reached) = counts.iter().fold((0, 0), |(r, n), c| (r + c.0, n + c.1));
    println!(
        "{ran} programs run ({reached} reached, the rest pruned) in {:.2} s",
        started.elapsed().as_secs_f64()
    );
}

#[test]
fn a_zero_length_write_or_copy_inside_a_source_moves_nothing() {
    let (half, tail) = (MIRROR_MIN / 2, (MIRROR_MIN / 2) as usize);
    for copy in [false, true] {
        let sim = Simulation::new();
        let cl = Cluster::new(sim.scheduler(), ClusterConfig::with_nodes(2));
        let [src, dst, other] = [
            mem(0, Domain::Phi),
            mem(0, Domain::Host),
            mem(1, Domain::Phi),
        ]
        .map(|at| cl.alloc(at, LEN, 8).expect("fits"));
        let bytes: Vec<u8> = (0..LEN).map(|k| pattern(0, k)).collect();
        cl.write(&src, 0, &bytes);
        cl.copy(&src, 0, &dst, 0, MIRROR_MIN);
        if copy {
            cl.copy(&other, 0, &src, half, 0);
        } else {
            cl.write(&src, half, &[]);
        }
        let mut got = vec![0; tail];
        cl.read(&dst, half, &mut got);
        assert!(
            got == bytes[tail..2 * tail],
            "copy {copy}: the mirror's rest reads wrong"
        );
        cl.read(&src, half, &mut got);
        assert!(
            got == bytes[tail..2 * tail],
            "copy {copy}: the source moved"
        );
        let want = vec![(0..MIRROR_MIN, Some(src.slice(0, MIRROR_MIN)))];
        assert_eq!(cl.with_plane(|p| p.holding(&dst)), want, "copy {copy}");
    }
}
