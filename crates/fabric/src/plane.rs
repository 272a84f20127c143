//! The byte plane: every arena of the cluster and the mirrors between them.
//!
//! Bytes move when they are read (DESIGN.md §18). A hop of at least
//! [`MIRROR_MIN`] bytes between two arenas — a PCIe DMA, an InfiniBand
//! transfer, an RDMA WRITE or READ payload — does not copy: the
//! destination's extent list (see [`crate::mem`]) records a `From` extent,
//! "reads as the source", and the source's arena a by-source entry naming
//! it. A read or copy of a `From` extent is served from its source; a
//! write into a source first hands the bytes it overwrites to each
//! destination — held without a page up to `HELD_MAX`, written through
//! beyond; a write, copy, hop or free cuts the extents of its range; and a
//! hop records a mirror's own source, so a source always holds its own
//! bytes (a run whose source is in the destination's arena is copied).
//! Mirrors join any two arenas of the cluster, so the plane is one lock.
//!
//! One storage rule sits under all of it: in an allocation held off-page
//! ([`Plane::hold_off_page`]) a write, or a hop that copies, becomes a held
//! run in a side buffer instead of bytes in its pages, and
//! [`Plane::discard`] ends those runs. A long hop into one still records a
//! mirror; a mirror reading from one is handed its bytes before a discard.

use std::ops::Range;

use crate::config::Domain;
use crate::mem::{Buffer, Extent, Lazy, MemRef, Memory, HELD_MAX};

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

/// Where `mem`'s arena sits in [`Plane::arenas`].
fn slot(mem: MemRef) -> usize {
    mem.node.0 * 2 + usize::from(mem.domain == Domain::Phi)
}

fn span(buf: &Buffer) -> Range<usize> {
    buf.addr as usize..(buf.addr + buf.len) as usize
}

/// `src`'s bytes into `dst`: one memcpy (a memmove inside one arena)
/// through recycled and held bytes; `src` holds no mirror.
fn raw_copy(arenas: &mut [Memory], src: &Buffer, dst: &Buffer) {
    let (s, d, len) = (slot(src.mem), slot(dst.mem), src.len as usize);
    if s == d {
        return arenas[d].copy_within(src, 0, dst, 0, len);
    }
    let [to, from] = arenas.get_disjoint_mut([d, s]).expect("two arenas");
    to.copy_from(dst, 0, from, src, 0, len);
}

/// A mirror's entry in its source's arena: the source's start and stop and
/// where its `From` extent starts. Ordered by start, then destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Source {
    start: u64,
    arena: u32,
    addr: u64,
    stop: u64,
}

/// One arena's mirrors by source. Sources may overlap.
#[derive(Default)]
struct Sources {
    list: Vec<Source>,
    /// No source in `list` is longer, so one that overlaps `r` starts
    /// after `r.start - reach`.
    reach: u64,
}

impl Sources {
    fn insert(&mut self, k: Source) {
        self.reach = self.reach.max(k.stop - k.start);
        let at = self.list.partition_point(|e| *e < k);
        self.list.insert(at, k);
    }
}

/// The arena of `e`'s source and `e`'s by-source entry, if `e`, an
/// extent of arena `d`, is a mirror.
fn entry(d: usize, e: &Extent) -> Option<(usize, Source)> {
    let Lazy::From { arena, addr: start } = e.lazy else {
        return None;
    };
    let k = Source {
        start,
        arena: d as u32,
        addr: e.at.start as u64,
        stop: start + e.at.len() as u64,
    };
    Some((arena as usize, k))
}

/// The extent `e` of arena `d` loses `r`: a mirror's entry follows — cut
/// short, split, dropped, or moved up past a cut front, passing only the
/// few entries in between so that a stamp shifts no list.
fn recut(sources: &mut [Sources], d: usize, e: &Extent, r: &Range<usize>) {
    let Some((s, k)) = entry(d, e) else {
        return;
    };
    let s = &mut sources[s];
    let Ok(mut i) = s.list.binary_search(&k) else {
        return debug_assert!(false, "{e:?} is not indexed");
    };
    let at = |p: usize| k.start + (p - e.at.start) as u64;
    let (start, addr) = (at(r.end), r.end as u64);
    let rest = Source { start, addr, ..k };
    match (e.at.start < r.start, r.end < e.at.end) {
        (true, tail) => {
            s.list[i].stop = at(r.start);
            if tail {
                s.insert(rest);
            }
        }
        (false, true) => {
            s.list[i] = rest;
            while i + 1 < s.list.len() && s.list[i + 1] < s.list[i] {
                s.list.swap(i, i + 1);
                i += 1;
            }
        }
        (false, false) => {
            s.list.remove(i);
            if s.list.is_empty() {
                s.reach = 0;
            }
        }
    }
}

/// Every arena of the cluster and the mirrors between them, behind the
/// cluster's one plane lock: [`Cluster::with_plane`](crate::Cluster::with_plane)
/// hands it to a closure. Every method is range-checked like [`Memory`]'s.
///
/// Invariants, checked after every change in debug builds: each arena's
/// extents are sorted, disjoint, non-empty and inside one live
/// allocation, held bytes at most `HELD_MAX`; every mirror joins two
/// different arenas and reads from no mirror, so a source's bytes are its
/// own; mirrors and by-source entries match one to one.
pub struct Plane {
    /// Each node's host and Phi arena, in node order.
    arenas: Vec<Memory>,
    /// Per arena, like `arenas`: the mirrors reading from it.
    sources: Vec<Sources>,
    /// Scratch, reused: the (source, destination) pairs a change hands
    /// bytes between. Capacities settle, so the steady state allocates nothing.
    hit: Vec<(Buffer, Buffer)>,
}

impl Plane {
    pub(crate) fn new(arenas: Vec<Memory>) -> Plane {
        Plane {
            sources: arenas.iter().map(|_| Sources::default()).collect(),
            arenas,
            hit: Vec::new(),
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
        let (mem, addr) = (buf.mem, r.start as u64);
        Buffer { mem, addr, len }
    }

    /// Whether a mirror writes into or reads from `mem`'s arena.
    fn touched(&self, mem: MemRef) -> bool {
        let a = slot(mem);
        self.arenas[a].mirrors() > 0 || !self.sources[a].list.is_empty()
    }

    pub(crate) fn free(&mut self, buf: &Buffer) {
        if !self.touched(buf.mem) {
            return self.arena_mut(buf.mem).free(buf);
        }
        self.unmirror(buf, false);
        self.arena_mut(buf.mem).free(buf);
        self.check();
    }

    /// Hold `buf`, a whole live allocation, off its pages (see
    /// [`Memory::hold_off_page`]): from now on what lands in it is kept in
    /// side buffers, never in its pages. A mirror reading from it first
    /// takes its bytes, which are then discarded.
    pub fn hold_off_page(&mut self, buf: &Buffer) {
        if self.touched(buf.mem) {
            self.unmirror(buf, false);
        }
        self.arena_mut(buf.mem).hold_off_page(buf);
        self.check();
    }

    /// End the bytes of `buf`, inside an allocation held off-page: its
    /// held runs' side buffers are recycled and it reads zero. A mirror
    /// reading from it first takes its bytes.
    pub fn discard(&mut self, buf: &Buffer) {
        if self.touched(buf.mem) {
            let r = self.part(buf, 0, buf.len);
            self.unmirror(&r, false);
        }
        self.arena_mut(buf.mem).discard(buf);
        self.check();
    }

    /// Host pages wholly inside `buf` that are backed right now.
    pub fn resident_pages_in(&self, buf: &Buffer) -> usize {
        self.arena(buf.mem).resident_pages_in(buf)
    }

    /// The extents of `buf`, a whole allocation, as offsets into it, each
    /// with the source it mirrors or `None` if its arena holds its bytes
    /// (recycled zeros, displaced bytes, held runs, and whatever of an
    /// allocation held off-page no run covers, which reads zero); the
    /// rest of `buf` is in its pages.
    /// For checks from outside the crate.
    #[doc(hidden)]
    pub fn holding(&self, buf: &Buffer) -> Vec<(Range<u64>, Option<Buffer>)> {
        let r = span(buf);
        let (over, held) = self.arena(buf.mem).extents_in(&r);
        let at = |p: usize| (p - r.start) as u64;
        let source = |e: &Extent| match e.lazy {
            Lazy::From { arena, addr } => {
                let (mem, len) = (self.arenas[arena as usize].mem_ref(), e.at.len() as u64);
                Some(Buffer { mem, addr, len })
            }
            _ => None,
        };
        let mut out = Vec::new();
        let mut gap = r.start;
        for e in over {
            if held && gap < e.at.start {
                out.push((at(gap)..at(e.at.start), None));
            }
            out.push((at(e.at.start)..at(e.at.end), source(e)));
            gap = e.at.end;
        }
        if held && gap < r.end {
            out.push((at(gap)..at(r.end), None));
        }
        out
    }

    /// Side buffers `mem`'s arena has made so far, holding a run or free.
    /// For checks from outside the crate.
    #[doc(hidden)]
    pub fn side_buffers(&self, mem: MemRef) -> usize {
        self.arena(mem).side_buffers()
    }

    /// Write bytes into a buffer.
    pub fn write(&mut self, buf: &Buffer, offset: u64, data: &[u8]) {
        if !self.touched(buf.mem) {
            return self.arena_mut(buf.mem).write(buf, offset, data);
        }
        let r = self.part(buf, offset, data.len() as u64);
        self.unmirror(&r, false);
        self.arena_mut(buf.mem)
            .store(span(&r))
            .copy_from_slice(data);
        self.check();
    }

    /// Read bytes out of a buffer.
    pub fn read(&self, buf: &Buffer, offset: u64, out: &mut [u8]) {
        let arena = self.arena(buf.mem);
        arena.read_at(arena.range(buf, offset, out.len()), out, &self.arenas);
    }

    /// The byte plane's one primitive: `len` bytes from `src[src_off..]` to
    /// `dst[dst_off..]`. Between two arenas, [`MIRROR_MIN`] bytes or more
    /// record that the destination reads as the source; anything shorter,
    /// or inside one arena, is copied, reading the source through any
    /// mirror it lies in. Ranges within one arena may overlap (memmove
    /// semantics).
    pub fn copy(&mut self, src: &Buffer, src_off: u64, dst: &Buffer, dst_off: u64, len: u64) {
        let (src, dst) = (self.part(src, src_off, len), self.part(dst, dst_off, len));
        let mirror = len >= MIRROR_MIN && src.mem != dst.mem;
        if mirror || self.touched(src.mem) || self.touched(dst.mem) {
            return self.copy_lazy(&src, &dst, mirror);
        }
        raw_copy(&mut self.arenas, &src, &dst);
    }

    /// [`Plane::copy`] past a mirror. A long hop leaves `dst` reading as
    /// `src`, or as what `src` reads as; a run stored in `dst`'s own arena —
    /// a round trip — is copied there instead.
    #[cold]
    fn copy_lazy(&mut self, src: &Buffer, dst: &Buffer, mirror: bool) {
        let (from, to) = (span(src), span(dst));
        if src.mem == dst.mem && from.start < to.end && to.start < from.end {
            // A memmove: settle every mirror on either range, so that both
            // hold their own bytes and the move is one.
            let (mem, addr) = (src.mem, from.start.min(to.start) as u64);
            let len = from.end.max(to.end) as u64 - addr;
            self.unmirror(&Buffer { mem, addr, len }, true);
            raw_copy(&mut self.arenas, src, dst);
            return self.check();
        }
        self.unmirror(dst, false);
        // Now no mirror reads from `dst`, so writing it cannot change a
        // byte any later run of `src` resolves to.
        let mut at = src.addr;
        while at < src.addr + src.len {
            let (end, stored) = self.stored(src, at);
            let part = dst.slice(at - src.addr, end - at);
            if mirror && stored.mem != dst.mem {
                self.link(&stored, &part);
            } else {
                raw_copy(&mut self.arenas, &stored, &part);
            }
            at = end;
        }
        self.check();
    }

    /// Where the run of `r` from `at` ends, and what it reads as: a part of
    /// a mirror's source, or — outside every mirror — itself.
    fn stored(&self, r: &Buffer, at: u64) -> (u64, Buffer) {
        let (arena, end) = (self.arena(r.mem), (r.addr + r.len) as usize);
        let (mut stop, lazy) = arena.run_at(at as usize, end);
        let (mem, addr) = match lazy {
            Some(Lazy::From { arena, addr }) => (self.arenas[arena as usize].mem_ref(), addr),
            _ => {
                while stop < end {
                    match arena.run_at(stop, end) {
                        (_, Some(Lazy::From { .. })) => break,
                        (next, _) => stop = next,
                    }
                }
                (r.mem, at)
            }
        };
        let len = stop as u64 - at;
        (stop as u64, Buffer { mem, addr, len })
    }

    /// End every mirror's hold on `r`, whose bytes are about to change or
    /// go. A mirror reading from `r` is first handed those bytes; `r`'s
    /// extents are cut — its mirrors after handing `r` their bytes when
    /// `settle` is set, so that `r`'s arena holds `r`'s bytes. The rest of
    /// each mirror stays a mirror. The caller refills or frees `r`, then
    /// checks the plane.
    #[cold]
    fn unmirror(&mut self, r: &Buffer, settle: bool) {
        // An empty range changes no byte, and would hand over empty extents.
        if r.len == 0 {
            return;
        }
        let (a, lo, hi) = (slot(r.mem), r.addr, r.addr + r.len);
        let mut hit = std::mem::take(&mut self.hit);
        let s = &self.sources[a];
        let first = s.list.partition_point(|k| k.start + s.reach <= lo);
        let from = s.list[first..].iter().take_while(|k| k.start < hi);
        for k in from.filter(|k| k.stop > lo) {
            let (x, len) = (lo.max(k.start), hi.min(k.stop) - lo.max(k.start));
            let mem = self.arenas[k.arena as usize].mem_ref();
            let addr = k.addr + x - k.start;
            hit.push((r.slice(x - lo, len), Buffer { mem, addr, len }));
        }
        let mut at = lo;
        while settle && at < hi {
            let (end, stored) = self.stored(r, at);
            if stored.mem != r.mem {
                hit.push((stored, r.slice(at - lo, end - at)));
            }
            at = end;
        }
        for (src, dst) in hit.drain(..) {
            self.hand_over(&src, &dst);
        }
        self.hit = hit;
        if !settle {
            self.cut(a, span(r));
        }
    }

    /// `dst`, a mirror of `src`, takes `src`'s bytes and stops being one:
    /// up to [`HELD_MAX`] held without a page, more written into its pages.
    fn hand_over(&mut self, src: &Buffer, dst: &Buffer) {
        let d = slot(dst.mem);
        self.cut(d, span(dst));
        let len = src.len as usize;
        if len > HELD_MAX {
            return raw_copy(&mut self.arenas, src, dst);
        }
        let mut bytes = [0; HELD_MAX];
        self.arena(src.mem).read(src, 0, &mut bytes[..len]);
        let (at, lazy) = (span(dst), Lazy::Bytes(bytes));
        self.arenas[d].insert(Extent { at, lazy });
    }

    /// Cut `r` out of arena `a`'s extents, each mirror's by-source entry
    /// following its extent.
    fn cut(&mut self, a: usize, r: Range<usize>) {
        let sources = &mut self.sources;
        self.arenas[a].cut(r.clone(), |e| recut(sources, a, e, &r));
    }

    /// From now on `dst` reads as `src`, in another arena.
    fn link(&mut self, src: &Buffer, dst: &Buffer) {
        let (s, d, addr, at) = (slot(src.mem), slot(dst.mem), src.addr, span(dst));
        let arena = s as u32;
        let lazy = Lazy::From { arena, addr };
        let e = Extent { at, lazy };
        self.sources[s].insert(entry(d, &e).expect("a mirror").1);
        self.arenas[d].insert(e);
    }

    /// The invariants (see [`Plane`]), in debug builds.
    fn check(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let each = self.arenas.iter().enumerate();
        let mirrors = each.flat_map(|(a, m)| {
            let all = m.lists().flat_map(|(list, _)| list.iter());
            all.filter_map(move |e| entry(a, e))
        });
        let entries = self.sources.iter().map(|s| s.list.len()).sum::<usize>();
        debug_assert_eq!(mirrors.count(), entries, "mirrors and entries disagree");
        for (a, arena) in self.arenas.iter().enumerate() {
            let mut own = 0;
            for (extents, off) in arena.lists() {
                for (i, e) in extents.iter().enumerate() {
                    let long = matches!(e.lazy, Lazy::Bytes(_)) && e.at.len() > HELD_MAX;
                    let next = extents.get(i + 1);
                    debug_assert!(
                        !e.at.is_empty() && !long && next.is_none_or(|n| e.at.end <= n.at.start),
                        "extent {e:?} is empty, too long or overlaps the next"
                    );
                    debug_assert!(arena.is_live(&e.at), "extent {e:?} outlived its buffer");
                    // An off-page allocation's runs lie inside it; the
                    // arena's own list reaches none.
                    let placed = match off {
                        Some(o) => o.start <= e.at.start && e.at.end <= o.end,
                        None => !arena.is_off_page(e.at.start),
                    };
                    debug_assert!(placed, "extent {e:?} is on the wrong list");
                    if let Lazy::Side { side, at } = e.lazy {
                        let len = arena.side_len(side);
                        debug_assert!(
                            off.is_some() && len.is_some_and(|n| at as usize + e.at.len() <= n),
                            "held run {e:?} is not off-page or outruns its side buffer"
                        );
                    }
                    let Some((x, k)) = entry(a, e) else {
                        continue;
                    };
                    own += 1;
                    let mem = self.arenas[x].mem_ref();
                    let (len, addr) = (k.stop - k.start, k.start);
                    let (stop, own) = self.stored(&Buffer { mem, addr, len }, addr);
                    debug_assert!(
                        x != a && stop == k.stop && own.mem == mem,
                        "{e:?} reads from its own arena or a mirror"
                    );
                    let indexed = self.sources[x].list.binary_search(&k).is_ok();
                    debug_assert!(indexed, "{e:?} is not indexed");
                }
            }
            debug_assert_eq!(own, arena.mirrors(), "the arena miscounts its mirrors");
            // Pairwise, so that a check on a timed path allocates nothing.
            let sides = || {
                let all = arena.lists().flat_map(|(list, _)| list.iter());
                all.filter_map(|e| match e.lazy {
                    Lazy::Side { side, .. } => Some(side),
                    _ => None,
                })
            };
            for (k, side) in sides().enumerate() {
                let shared = sides().skip(k + 1).any(|s| s == side);
                debug_assert!(!shared, "two held runs share a side buffer");
            }
            let s = &self.sources[a];
            debug_assert!(s.list.is_sorted(), "the by-source index is out of order");
            for k in &s.list {
                let d = k.arena as usize;
                let e = self.arenas[d].extent_at(k.addr as usize);
                debug_assert!(
                    k.stop - k.start <= s.reach && e.is_some_and(|e| entry(d, e) == Some((a, *k))),
                    "by-source entry {k:?} is out of reach or names no mirror"
                );
            }
        }
    }
}
