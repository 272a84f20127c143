//! The byte plane: every arena of the cluster and the mirrors between them.
//!
//! Bytes move when they are read (DESIGN.md §18). A hop of at least
//! [`MIRROR_MIN`] bytes between two arenas — a PCIe DMA, an InfiniBand
//! transfer, the payload of an RDMA WRITE or READ — does not copy: it
//! records a [`Mirror`], "`dst` reads as `src`". Every access resolves
//! through the mirrors, so a rendezvous payload is copied by nobody until
//! something overwrites the buffer it came from:
//!
//! * a read or copy out of a mirrored range is served from its source;
//! * a write into a mirror's source first hands the bytes it overwrites to
//!   the mirror's destination, and the mirror shrinks by them: up to
//!   `HELD_MAX` (8) — a stamp — are held by the destination's arena
//!   without a page, a longer run is written into its pages;
//! * a write into a mirror's destination ends the mirror there;
//! * a free hands out the bytes of the mirrors that read from the freed
//!   buffer the same way, and ends those that write into it.
//!
//! A hop whose source lies in a mirror's destination records a mirror of
//! that mirror's source, so a source always holds its own bytes. Every read
//! therefore returns what an eager copy would have written. A mirror may
//! join any two arenas of the cluster, so the whole plane is one lock.

use std::ops::Range;

use crate::config::Domain;
use crate::mem::{Buffer, MemRef, Memory, HELD_MAX};

/// The shortest hop between two arenas that records a mirror; a shorter
/// one copies. It sits above the largest eager ring write (an 8 KiB
/// payload plus header and tail): such a write is re-sourced from a reused
/// staging slot, so its mirror would pay the bookkeeping and then be copied
/// when the slot is rewritten. Host ns per hop between two nodes, 64
/// buffer pairs, copied | mirrored (Intel Xeon, release build): a
/// rendezvous-shaped hop (an 8-byte stamp into the source, then the whole
/// destination read) breaks even at 12 KiB (676 | 670) and gains from
/// there (1,224 | 706 at 16 KiB); a slot-shaped one (the whole source
/// rewritten, then a header read) loses at every length (496 | 696 at
/// 8 KiB, 1,264 | 1,458 at 16 KiB).
pub const MIRROR_MIN: u64 = 16 << 10;

/// "`dst` reads as `src`": what a long hop between two arenas leaves
/// instead of a copy. The two buffers have one length.
#[derive(Clone, Debug)]
struct Mirror {
    src: Buffer,
    dst: Buffer,
}

impl Mirror {
    fn len(&self) -> u64 {
        self.dst.len
    }

    fn slice(&self, off: u64, len: u64) -> Mirror {
        Mirror {
            src: self.src.slice(off, len),
            dst: self.dst.slice(off, len),
        }
    }
}

/// Where `mem`'s arena sits in [`Plane::arenas`].
fn slot(mem: MemRef) -> usize {
    mem.node.0 * 2 + usize::from(mem.domain == Domain::Phi)
}

fn span(buf: &Buffer) -> Range<u64> {
    buf.addr..buf.addr + buf.len
}

fn overlap(a: Range<u64>, b: Range<u64>) -> Option<Range<u64>> {
    let o = a.start.max(b.start)..a.end.min(b.end);
    (o.start < o.end).then_some(o)
}

/// `src`'s bytes into `dst`, as stored: one memcpy (a memmove inside one
/// arena), no mirror consulted.
fn raw_copy(arenas: &mut [Memory], src: &Buffer, dst: &Buffer) {
    let (s, d, len) = (slot(src.mem), slot(dst.mem), src.len as usize);
    if s == d {
        return arenas[d].copy_within(src, 0, dst, 0, len);
    }
    let (lo, hi) = arenas.split_at_mut(s.max(d));
    let (to, from) = if d < s {
        (&mut lo[d], &hi[0])
    } else {
        (&mut hi[0], &lo[s])
    };
    to.copy_from(dst, 0, from, src, 0, len);
}

/// `src`'s bytes into `dst`, in another arena, as [`raw_copy`] puts them —
/// but up to [`HELD_MAX`] of them are held by `dst`'s arena instead of
/// written into its pages.
fn displace(arenas: &mut [Memory], src: &Buffer, dst: &Buffer) {
    let len = src.len as usize;
    if len > HELD_MAX {
        return raw_copy(arenas, src, dst);
    }
    let mut bytes = [0; HELD_MAX];
    arenas[slot(src.mem)].read(src, 0, &mut bytes[..len]);
    arenas[slot(dst.mem)].hold(dst, &bytes[..len]);
}

/// One mirror's entry in an arena's index: where the mirror's end in the
/// arena starts and stops, and its id. Ordered by start, then id.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct End {
    start: u64,
    id: u32,
    stop: u64,
}

impl End {
    /// The entry of mirror `id` whose end in this arena is `end`.
    fn of(end: &Buffer, id: u32) -> End {
        End {
            start: end.addr,
            id,
            stop: end.addr + end.len,
        }
    }
}

/// One arena's view of the mirror index.
#[derive(Default)]
struct Ends {
    /// The mirrors writing into the arena, by destination address.
    /// Destinations are disjoint, so their stops are in order too.
    into: Vec<End>,
    /// The mirrors reading from the arena, by source address, then id.
    /// Sources may overlap.
    from: Vec<End>,
    /// No source in `from` is longer, so one that overlaps `r` starts
    /// after `r.start - reach`.
    reach: u64,
}

/// Where the entry of mirror `id`, starting at `start`, sits in `list`.
fn find(list: &[End], start: u64, id: u32) -> Option<usize> {
    let at = list.binary_search_by_key(&(start, id), |e| (e.start, e.id));
    debug_assert!(at.is_ok(), "mirror index lost {id} at {start:#x}");
    at.ok()
}

fn unindex(list: &mut Vec<End>, start: u64, id: u32) {
    if let Some(at) = find(list, start, id) {
        list.remove(at);
    }
}

/// Move the entry of mirror `id` from `start` to `to`, a few bytes up: it
/// passes at most the few entries in between, so no insert or remove
/// shifts the list.
fn rekey(list: &mut [End], start: u64, id: u32, to: u64) {
    let Some(mut at) = find(list, start, id) else {
        return;
    };
    list[at].start = to;
    while at + 1 < list.len() && list[at + 1] < list[at] {
        list.swap(at, at + 1);
        at += 1;
    }
}

/// The entry of mirror `id`, starting at `start`, now stops at `stop`.
fn restop(list: &mut [End], start: u64, id: u32, stop: u64) {
    if let Some(at) = find(list, start, id) {
        list[at].stop = stop;
    }
}

/// Every arena of the cluster and the mirrors between them, behind the
/// cluster's one plane lock: [`Cluster::with_plane`](crate::Cluster::with_plane)
/// hands it to a closure. Every method is range-checked like [`Memory`]'s.
///
/// Invariants, checked after every change in debug builds: destinations
/// are disjoint and hold no held bytes; every mirror joins two
/// different arenas; no source lies inside a destination, so a source's
/// bytes are its own; the by-destination and by-source indexes agree.
pub struct Plane {
    /// Each node's host and Phi arena, in node order.
    arenas: Vec<Memory>,
    /// Per arena, like `arenas`.
    ends: Vec<Ends>,
    /// Every mirror by id; the ids in `free` are not in use. Capacities
    /// settle at the most mirrors ever live, so the steady state allocates
    /// nothing.
    mirrors: Vec<Mirror>,
    free: Vec<u32>,
    /// Scratch, reused: the mirrors a change cuts, and the runs of a hop.
    hit: Vec<u32>,
    runs: Vec<Mirror>,
}

impl Plane {
    pub(crate) fn new(arenas: Vec<Memory>) -> Plane {
        Plane {
            ends: arenas.iter().map(|_| Ends::default()).collect(),
            arenas,
            mirrors: Vec::new(),
            free: Vec::new(),
            hit: Vec::new(),
            runs: Vec::new(),
        }
    }

    pub(crate) fn arena(&self, mem: MemRef) -> &Memory {
        &self.arenas[slot(mem)]
    }

    pub(crate) fn arena_mut(&mut self, mem: MemRef) -> &mut Memory {
        &mut self.arenas[slot(mem)]
    }

    /// `[offset, offset+len)` of `buf`, range-checked, as a buffer at its
    /// arena address.
    fn part(&self, buf: &Buffer, offset: u64, len: u64) -> Buffer {
        let r = self.arena(buf.mem).range(buf, offset, len as usize);
        Buffer {
            mem: buf.mem,
            addr: r.start as u64,
            len,
        }
    }

    /// Whether any mirror reads from or writes into `mem`'s arena.
    fn touched(&self, mem: MemRef) -> bool {
        let e = &self.ends[slot(mem)];
        !(e.into.is_empty() && e.from.is_empty())
    }

    pub(crate) fn free(&mut self, buf: &Buffer) {
        if self.touched(buf.mem) {
            self.unmirror(buf, false);
        }
        self.arena_mut(buf.mem).free(buf);
    }

    /// Write bytes into a buffer.
    pub fn write(&mut self, buf: &Buffer, offset: u64, data: &[u8]) {
        if self.touched(buf.mem) {
            let r = self.part(buf, offset, data.len() as u64);
            self.unmirror(&r, false);
        }
        self.arena_mut(buf.mem).write(buf, offset, data);
    }

    /// Read bytes out of a buffer.
    pub fn read(&self, buf: &Buffer, offset: u64, out: &mut [u8]) {
        if self.ends[slot(buf.mem)].into.is_empty() {
            return self.arena(buf.mem).read(buf, offset, out);
        }
        self.read_mirrored(buf, offset, out);
    }

    #[cold]
    fn read_mirrored(&self, buf: &Buffer, offset: u64, out: &mut [u8]) {
        let r = self.part(buf, offset, out.len() as u64);
        self.pieces(&r, |off, stored| {
            let part = &mut out[off as usize..(off + stored.len) as usize];
            self.arena(stored.mem).read(&stored, 0, part);
        });
    }

    /// The byte plane's one primitive: `len` bytes from `src[src_off..]` to
    /// `dst[dst_off..]`. Between two arenas, [`MIRROR_MIN`] bytes or more
    /// record that the destination reads as the source; anything shorter,
    /// or inside one arena, is copied, reading the source through any
    /// mirror it lies in. Ranges within one arena may overlap (memmove
    /// semantics).
    pub fn copy(&mut self, src: &Buffer, src_off: u64, dst: &Buffer, dst_off: u64, len: u64) {
        let (src, dst) = (self.part(src, src_off, len), self.part(dst, dst_off, len));
        if len >= MIRROR_MIN && src.mem != dst.mem {
            return self.hop(&src, &dst);
        }
        if self.touched(src.mem) || self.touched(dst.mem) {
            return self.copy_mirrored(&src, &dst);
        }
        raw_copy(&mut self.arenas, &src, &dst);
    }

    #[cold]
    fn copy_mirrored(&mut self, src: &Buffer, dst: &Buffer) {
        if src.mem == dst.mem && overlap(span(src), span(dst)).is_some() {
            // A memmove: settle every mirror on either range, so that both
            // hold their own bytes and the move is one.
            let addr = src.addr.min(dst.addr);
            let len = (src.addr + src.len).max(dst.addr + dst.len) - addr;
            let mem = src.mem;
            self.unmirror(&Buffer { mem, addr, len }, true);
            return raw_copy(&mut self.arenas, src, dst);
        }
        self.unmirror(dst, false);
        // Now no mirror reads from `dst`, so writing it cannot change a
        // byte any later run of `src` resolves to.
        let Plane {
            arenas,
            ends,
            mirrors,
            ..
        } = self;
        pieces(&ends[slot(src.mem)], mirrors, src, |off, stored| {
            raw_copy(arenas, &stored, &dst.slice(off, stored.len));
        });
    }

    /// A long hop between two arenas: from now on `dst` reads as `src`, or
    /// as whatever `src` itself reads as. A run whose bytes are stored in
    /// `dst`'s own arena — a round trip — is copied there instead.
    fn hop(&mut self, src: &Buffer, dst: &Buffer) {
        if self.touched(dst.mem) {
            self.unmirror(dst, false);
        }
        let bytes = dst.addr as usize..(dst.addr + dst.len) as usize;
        self.arena_mut(dst.mem).forget(bytes);
        let mut runs = std::mem::take(&mut self.runs);
        self.pieces(src, |off, stored| {
            let dst = dst.slice(off, stored.len);
            runs.push(Mirror { src: stored, dst });
        });
        for run in runs.drain(..) {
            if run.src.mem == run.dst.mem {
                raw_copy(&mut self.arenas, &run.src, &run.dst);
            } else {
                self.link(run);
            }
        }
        self.runs = runs;
        self.check(&[src.mem, dst.mem]);
    }

    /// [`pieces`] over this plane's mirrors.
    fn pieces(&self, r: &Buffer, f: impl FnMut(u64, Buffer)) {
        pieces(&self.ends[slot(r.mem)], &self.mirrors, r, f);
    }

    /// End every mirror's hold on `r`, whose bytes are about to change or
    /// go. A mirror reading from `r` first has those bytes [`displace`]d
    /// into its destination; one writing into `r` ends there — after the
    /// same displacement when `settle` is set, so that `r`'s arena holds
    /// `r`'s bytes. The rest of each mirror stays a mirror.
    #[cold]
    fn unmirror(&mut self, r: &Buffer, settle: bool) {
        if r.len == 0 {
            return;
        }
        let (a, lo, hi) = (slot(r.mem), r.addr, r.addr + r.len);
        let mut hit = std::mem::take(&mut self.hit);
        let e = &self.ends[a];
        let first = e.from.partition_point(|k| k.start + e.reach <= lo);
        let from = e.from[first..].iter().take_while(|k| k.start < hi);
        hit.extend(from.filter(|k| k.stop > lo).map(|k| k.id));
        let first = e.into.partition_point(|k| k.stop <= lo);
        let into = e.into[first..].iter().take_while(|k| k.start < hi);
        hit.extend(into.map(|k| k.id));
        for &id in &hit {
            let m = self.mirrors[id as usize].clone();
            // The two ends lie in different arenas: exactly one is in `r`'s.
            let reads = slot(m.src.mem) == a;
            let end = if reads { &m.src } else { &m.dst };
            let x = lo.max(end.addr) - end.addr;
            let y = hi.min(end.addr + end.len) - end.addr;
            if reads || settle {
                let (src, dst) = (m.src.slice(x, y - x), m.dst.slice(x, y - x));
                displace(&mut self.arenas, &src, &dst);
            }
            self.cut(id, &m, x, y);
        }
        hit.clear();
        self.hit = hit;
        self.check(&[r.mem]);
    }

    /// Drop `[x, y)` of mirror `id`, which is `m`; what is left on either
    /// side stays a mirror.
    fn cut(&mut self, id: u32, m: &Mirror, x: u64, y: u64) {
        let tail = (y < m.len()).then(|| m.slice(y, m.len() - y));
        match (x > 0, tail) {
            // The head keeps the id and both index keys, stopping short.
            (true, tail) => {
                let (into, from) = (slot(m.dst.mem), slot(m.src.mem));
                restop(&mut self.ends[into].into, m.dst.addr, id, m.dst.addr + x);
                restop(&mut self.ends[from].from, m.src.addr, id, m.src.addr + x);
                self.mirrors[id as usize] = m.slice(0, x);
                if let Some(tail) = tail {
                    self.link(tail);
                }
            }
            // So does the tail of a cut at the front — a stamp — with both
            // keys moved up past it.
            (false, Some(tail)) => {
                let (into, from) = (slot(m.dst.mem), slot(m.src.mem));
                rekey(&mut self.ends[into].into, m.dst.addr, id, tail.dst.addr);
                rekey(&mut self.ends[from].from, m.src.addr, id, tail.src.addr);
                self.mirrors[id as usize] = tail;
            }
            (false, None) => {
                unindex(&mut self.ends[slot(m.dst.mem)].into, m.dst.addr, id);
                let e = &mut self.ends[slot(m.src.mem)];
                unindex(&mut e.from, m.src.addr, id);
                if e.from.is_empty() {
                    e.reach = 0;
                }
                self.free.push(id);
            }
        }
    }

    fn link(&mut self, m: Mirror) {
        let (into, from, len) = (slot(m.dst.mem), slot(m.src.mem), m.len());
        let (d, s) = (m.dst.addr, m.src.addr);
        let id = match self.free.pop() {
            Some(id) => {
                self.mirrors[id as usize] = m;
                id
            }
            None => {
                self.mirrors.push(m);
                (self.mirrors.len() - 1) as u32
            }
        };
        let end = |start| End {
            start,
            id,
            stop: start + len,
        };
        let (d, s) = (end(d), end(s));
        let list = &mut self.ends[into].into;
        list.insert(list.partition_point(|&k| k < d), d);
        let e = &mut self.ends[from];
        e.reach = e.reach.max(len);
        e.from.insert(e.from.partition_point(|&k| k < s), s);
    }

    /// The invariants (see [`Plane`]) of the arenas of `mems`, and that the
    /// two indexes hold every live mirror once, in debug builds.
    fn check(&self, mems: &[MemRef]) {
        if !cfg!(debug_assertions) {
            return;
        }
        let count = |f: fn(&Ends) -> usize| self.ends.iter().map(f).sum::<usize>();
        let live = self.mirrors.len() - self.free.len();
        debug_assert!(
            count(|e| e.into.len()) == live && count(|e| e.from.len()) == live,
            "the mirror indexes disagree on {live} live mirrors"
        );
        let indexed =
            |list: &[End], end: &Buffer, id| list.binary_search(&End::of(end, id)).is_ok();
        for &mem in mems {
            let e = &self.ends[slot(mem)];
            debug_assert!(e.into.is_sorted() && e.from.is_sorted());
            for (
                i,
                &End {
                    start: addr,
                    id,
                    stop,
                },
            ) in e.into.iter().enumerate()
            {
                let m = &self.mirrors[id as usize];
                debug_assert!(
                    m.dst.mem == mem
                        && m.dst.addr == addr
                        && addr + m.len() == stop
                        && m.src.len == m.len()
                        && m.len() > 0,
                    "mirror {m:?} is misindexed, empty or uneven"
                );
                debug_assert!(
                    slot(m.src.mem) != slot(mem),
                    "mirror {m:?} stays in one arena"
                );
                debug_assert!(
                    indexed(&self.ends[slot(m.src.mem)].from, &m.src, id),
                    "mirror {m:?} is missing from its source's index"
                );
                debug_assert!(
                    !self.arena(mem).holds_any(addr as usize..stop as usize),
                    "mirror {m:?} writes into held bytes"
                );
                debug_assert!(
                    e.into.get(i + 1).is_none_or(|next| stop <= next.start),
                    "mirror {m:?} overlaps the next destination"
                );
            }
            for &End {
                start: addr,
                id,
                stop,
            } in &e.from
            {
                let m = &self.mirrors[id as usize];
                debug_assert!(
                    m.src.mem == mem
                        && m.src.addr == addr
                        && addr + m.len() == stop
                        && m.len() <= e.reach,
                    "mirror {m:?} is misindexed or out of reach"
                );
                debug_assert!(
                    indexed(&self.ends[slot(m.dst.mem)].into, &m.dst, id),
                    "mirror {m:?} is missing from its destination's index"
                );
                let mut inside = false;
                pieces(e, &self.mirrors, &m.src, |_, stored| {
                    inside |= stored.mem != mem
                });
                debug_assert!(!inside, "mirror {m:?} reads from inside a destination");
            }
        }
    }
}

/// Walk `r` in address order as runs that each read from one place:
/// `f(offset in r, stored)`, where `stored` is the run itself or, inside a
/// mirror's destination, the matching part of the mirror's source. `ends`
/// is the index of `r`'s arena.
fn pieces(ends: &Ends, mirrors: &[Mirror], r: &Buffer, mut f: impl FnMut(u64, Buffer)) {
    let end = r.addr + r.len;
    let mut at = r.addr;
    let own = |from: u64, to: u64| Buffer {
        mem: r.mem,
        addr: from,
        len: to - from,
    };
    let first = ends.into.partition_point(|k| k.stop <= at);
    for k in &ends.into[first..] {
        if k.start >= end {
            break;
        }
        if at < k.start {
            f(at - r.addr, own(at, k.start));
            at = k.start;
        }
        let stop = k.stop.min(end);
        f(
            at - r.addr,
            mirrors[k.id as usize].src.slice(at - k.start, stop - at),
        );
        at = stop;
    }
    if at < end {
        f(at - r.addr, own(at, end));
    }
}
