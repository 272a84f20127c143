//! Simulated memory: per-domain byte arenas with a first-fit allocator.
//!
//! Buffers hold *real bytes* so that protocol correctness (does the receive
//! buffer contain exactly what was sent?) is testable, while capacity
//! accounting models the Phi's hard memory limit (no demand paging on the
//! paper's micro-kernel). The host backs only what simulated software
//! wrote: an arena keeps a sorted list of *extents*, the runs whose
//! bytes are not in its pages — recycled space that reads zero, the few
//! bytes a write into a mirror's source displaced, held runs, and mirrors,
//! which read as another arena's bytes (see [`crate::plane`]) — and every
//! access honours it. Pages are first written in one kernel call, not a
//! trapped fault each: every path that writes pages (`write`,
//! `copy_within`, `copy_from`) first has the whole never-written pages of
//! its destination populated, those above the arena's *written frontier*,
//! and raises the frontier; below it a write costs one compare.
//!
//! An allocation its owner declares *held off-page*
//! ([`Memory::hold_off_page`]) — memory whose bytes live only from one
//! write to the next [`Memory::discard`], as a posted receive's do — is
//! never in its pages: what is written into it is a held run, kept in a
//! recycled side buffer, and the rest of it reads zero. Such an allocation
//! keeps its runs on a list of its own, found through a coarse index of
//! the address range, so the arena's own buffers keep their one-compare
//! paths however many held runs come and go.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use simcore::mapping::{page_size, Mapping};

use crate::config::{Domain, PAGE_SIZE};

/// Node index within the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A memory domain on a specific node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    pub node: NodeId,
    pub domain: Domain,
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.node, self.domain)
    }
}

/// A contiguous allocation inside one memory domain. Cheap to clone; freeing
/// goes through [`Memory::free`] with the original base address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Buffer {
    pub mem: MemRef,
    /// Domain-local address (we treat virtual == physical per domain; the
    /// DCFA command layer still *charges* for translation).
    pub addr: u64,
    pub len: u64,
}

impl Buffer {
    /// A sub-range of this buffer.
    pub fn slice(&self, offset: u64, len: u64) -> Buffer {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "slice {offset}+{len} out of buffer of len {}",
            self.len
        );
        Buffer {
            mem: self.mem,
            addr: self.addr + offset,
            len,
        }
    }

    /// Number of 4-KiB pages this buffer spans.
    pub fn pages(&self) -> u64 {
        let start = self.addr / PAGE_SIZE;
        let end = (self.addr + self.len.max(1) - 1) / PAGE_SIZE;
        end - start + 1
    }

    /// Whether the buffer starts on a page boundary and is a whole number of
    /// pages (the Intel offload runtime's fast-transfer condition, §V).
    pub fn is_page_aligned(&self) -> bool {
        self.addr.is_multiple_of(PAGE_SIZE) && self.len.is_multiple_of(PAGE_SIZE)
    }
}

/// Allocation failure: the domain is out of memory (the Phi kernel has no
/// demand paging, so this is a hard error, cf. §V experiment 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    pub mem: MemRef,
    pub requested: u64,
    pub available: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of memory in {}: requested {} bytes, {} available",
            self.mem, self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// The smallest backing store an arena in use gets (or its whole
/// capacity, if that is less); it doubles from there.
const ARENA_FLOOR: usize = 4 << 20;

/// The most displaced bytes an arena holds without a page. Every write
/// into a mirror's source the workloads make is a message's 8-byte stamp,
/// and a verbs atomic's word is 8 bytes too; a longer displacement is
/// written into the destination's pages.
pub(crate) const HELD_MAX: usize = 8;

/// Pages one entry of [`Memory`]'s off-page index covers: a pool or ring
/// of a few MiB takes a few dozen entries.
const SPAN_PAGES: usize = 16;

/// In a [`Span`]: two allocations held off-page reach the span, or one
/// past the index's reach.
const SHARED: u16 = u16::MAX;

/// One entry of [`Memory`]'s off-page index: which of its span's pages
/// ([`PAGE_SIZE`]) an allocation held off-page reaches, bit `k` for page
/// `k`, and 1 + the slot in `off_page` of the one that does, or
/// [`SHARED`].
#[derive(Clone, Copy, Default)]
struct Span {
    pages: u16,
    at: u16,
}

/// What an [`Extent`] reads as, at its first byte.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Lazy {
    /// Recycled space: zeros.
    Zero,
    /// Displaced bytes, the first `at.len()` of these.
    Bytes([u8; HELD_MAX]),
    /// A held run of an off-page allocation: side buffer `side`'s bytes
    /// from `at` on. Each run owns its side buffer.
    Side { side: u32, at: u32 },
    /// A mirror: the bytes of the plane's arena `arena` from `addr` on.
    From { arena: u32, addr: u64 },
}

impl Lazy {
    /// What the byte `k` bytes further on reads as.
    fn skip(self, k: usize) -> Lazy {
        match self {
            Lazy::Zero => Lazy::Zero,
            Lazy::Bytes(mut b) => {
                b.copy_within(k.., 0);
                Lazy::Bytes(b)
            }
            Lazy::Side { side, at } => Lazy::Side {
                side,
                at: at + k as u32,
            },
            Lazy::From { arena, addr } => Lazy::From {
                arena,
                addr: addr + k as u64,
            },
        }
    }

    /// What a run of recycled space or held bytes reads as, into `out`,
    /// with `side` its arena's side buffers.
    fn read(self, side: &[Vec<u8>], out: &mut [u8]) {
        match self {
            Lazy::Zero => out.fill(0),
            Lazy::Bytes(b) => out.copy_from_slice(&b[..out.len()]),
            Lazy::Side { side: s, at } => {
                out.copy_from_slice(&side[s as usize][at as usize..][..out.len()]);
            }
            Lazy::From { .. } => unreachable!("a mirror is resolved in the plane"),
        }
    }
}

/// A run of an arena whose bytes are not in its pages.
#[derive(Clone, Debug)]
pub(crate) struct Extent {
    pub(crate) at: Range<usize>,
    pub(crate) lazy: Lazy,
}

/// Whether `r` lies outside `list`'s bounds, so no extent of it reaches `r`.
#[inline]
fn clear(list: &[Extent], r: &Range<usize>) -> bool {
    match (list.first(), list.last()) {
        (Some(first), Some(last)) => r.end <= first.at.start || last.at.end <= r.start,
        _ => true,
    }
}

/// Where the run of `list` from `at` inside one extent or outside all
/// ends, and what it reads as inside one.
#[inline]
fn run_in(list: &[Extent], at: usize, end: usize) -> (usize, Option<Lazy>) {
    if clear(list, &(at..end)) {
        return (end, None);
    }
    let i = list.partition_point(|e| e.at.end <= at);
    match list.get(i) {
        Some(e) if e.at.start <= at => (e.at.end.min(end), Some(e.lazy.skip(at - e.at.start))),
        Some(e) => (e.at.start.min(end), None),
        None => (end, None),
    }
}

/// Read `r`, in an allocation held off-page whose runs are `list`, into
/// `out` if it lies inside one held run — a slot's header, tail or
/// payload — or between two, where it reads zero, as an empty slot does:
/// one copy or fill. Whether it did.
#[inline]
fn held_read(list: &[Extent], sides: &Sides, r: &Range<usize>, out: &mut [u8]) -> bool {
    let i = list.partition_point(|e| e.at.end <= r.start);
    match list.get(i) {
        Some(e) if e.at.start <= r.start && r.end <= e.at.end => {
            let Lazy::Side { side, at } = e.lazy else {
                return false;
            };
            let from = at as usize + r.start - e.at.start;
            out.copy_from_slice(&sides.bufs[side as usize][from..from + r.len()]);
        }
        Some(e) if e.at.start < r.end => return false,
        _ => out.fill(0),
    }
    true
}

/// Add `e` to `list` over a range that holds no extent.
#[inline]
fn insert_in(list: &mut Vec<Extent>, e: Extent) {
    if list.last().is_none_or(|k| k.at.start < e.at.start) {
        return list.push(e);
    }
    let at = list.partition_point(|k| k.at.start < e.at.start);
    list.insert(at, e);
}

/// Cut `r` out of every extent of `list`, keeping `mirrors`, the arena's
/// count, up to date; `each_from` sees a mirror's extent before it is
/// cut, and a dropped held run's side buffer goes back to `sides`.
#[inline(never)]
fn trim(
    list: &mut Vec<Extent>,
    sides: &mut Sides,
    mirrors: &mut usize,
    r: Range<usize>,
    mut each_from: impl FnMut(&Extent),
) {
    let mut i = list.partition_point(|e| e.at.end <= r.start);
    // The extents `r` covers whole lie side by side: one drain drops them.
    let mut gone = i..i;
    while i < list.len() && list[i].at.start < r.end {
        let e = &mut list[i];
        let mirror = matches!(e.lazy, Lazy::From { .. });
        if mirror {
            each_from(e);
        }
        let at = e.at.clone();
        if r.end < at.end {
            let tail = Extent {
                at: r.end..at.end,
                lazy: e.lazy.skip(r.end - at.start),
            };
            if r.start <= at.start {
                *e = tail;
                break;
            }
            e.at.end = r.start;
            *mirrors += usize::from(mirror);
            let tail = sides.own(tail);
            return insert_in(list, tail);
        }
        if r.start <= at.start {
            *mirrors -= usize::from(mirror);
            gone.end = i + 1;
        } else {
            e.at.end = r.start;
            gone = i + 1..i + 1;
        }
        i += 1;
    }
    for e in list.drain(gone) {
        if let Lazy::Side { side, .. } = e.lazy {
            sides.free.push(side);
        }
    }
}

/// The side buffers of held runs, by index; `free` lists those no run
/// owns. A buffer keeps the longest length it has held, so the next run
/// it holds is written into it without a fill first.
#[derive(Default)]
struct Sides {
    bufs: Vec<Vec<u8>>,
    free: Vec<u32>,
}

impl Sides {
    /// A free side buffer at least `len` bytes long.
    fn take(&mut self, len: usize) -> u32 {
        let side = self.free.pop().unwrap_or_else(|| {
            self.bufs.push(Vec::new());
            (self.bufs.len() - 1) as u32
        });
        let buf = &mut self.bufs[side as usize];
        if buf.len() < len {
            buf.resize(len, 0);
        }
        side
    }

    /// `e`, the tail of a held run cut in two, with a side buffer of its
    /// own; any other extent as it is.
    fn own(&mut self, e: Extent) -> Extent {
        let Lazy::Side { side, at } = e.lazy else {
            return e;
        };
        let len = e.at.len();
        let own = self.take(len);
        let pair = self.bufs.get_disjoint_mut([side as usize, own as usize]);
        let [from, to] = pair.expect("two side buffers");
        to[..len].copy_from_slice(&from[at as usize..][..len]);
        let lazy = Lazy::Side { side: own, at: 0 };
        Extent { at: e.at, lazy }
    }
}

/// An allocation held off-page, with its own runs: sorted, disjoint and
/// inside it. Whatever of it no run covers reads zero. A free slot of
/// `Memory::off_page` has an empty range.
#[derive(Default)]
struct OffPage {
    at: Range<usize>,
    runs: Vec<Extent>,
}

/// One memory domain: a byte arena plus a first-fit allocator.
pub struct Memory {
    mem: MemRef,
    capacity: u64,
    used: u64,
    /// Arena backing store: one mapping, grown in place as allocations
    /// reach beyond it. The host's resident memory is the pages simulated
    /// software wrote — growth neither copies nor touches any.
    bytes: Mapping,
    /// The written frontier: no byte at or above it has ever been written,
    /// so every page above it is still unbacked. A write reaching past it
    /// has the kernel back the whole pages it fills with one call instead
    /// of a trapped fault each (see [`Memory::store`]).
    written: usize,
    /// Highest allocation end ever handed out. Space above this line has
    /// never been allocated, so it still reads as the kernel's fresh
    /// zeros; recycled space below it is a `Zero` extent.
    high_water: u64,
    /// The runs outside every allocation held off-page whose bytes are not
    /// in their pages (see [`Lazy`]) — sorted, disjoint, each inside one
    /// live allocation. No page under one is touched until a write, copy,
    /// hop or free cuts it. Held off-page memory keeps its runs apart, so
    /// a buffer of the arena's own pays one compare however many held
    /// runs come and go.
    extents: Vec<Extent>,
    /// How many extents, on every list, are mirrors.
    mirrors: usize,
    /// The allocations held off-page, each with its own runs, by slot: an
    /// allocation keeps its slot while it is held, so the index can name
    /// it. `off_free` lists the free slots.
    off_page: Vec<OffPage>,
    off_free: Vec<u32>,
    /// The held slots of `off_page` by start address.
    off_order: Vec<(usize, u32)>,
    /// By [`Span`] from `first_span` on, the pages allocations held
    /// off-page reach — so which list a range is on costs one load, and a
    /// compare on a page one reaches.
    off_index: Vec<Span>,
    first_span: usize,
    sides: Sides,
    /// Free list: base -> len, coalesced on free.
    free: BTreeMap<u64, u64>,
    /// Live allocations: base -> len (double-free / bad-free detection).
    live: BTreeMap<u64, u64>,
}

impl Memory {
    pub fn new(mem: MemRef, capacity: u64) -> Self {
        let mut free = BTreeMap::new();
        free.insert(0, capacity);
        Memory {
            mem,
            capacity,
            used: 0,
            bytes: Mapping::new(),
            written: 0,
            high_water: 0,
            // Recycled space is soon written and a stamp lasts until the
            // next hop, so an arena no mirror writes into holds few extents:
            // room for them keeps the first, often in a timed run, from allocating.
            extents: Vec::with_capacity(4),
            mirrors: 0,
            off_page: Vec::new(),
            off_free: Vec::new(),
            off_order: Vec::new(),
            off_index: Vec::new(),
            first_span: 0,
            sides: Sides::default(),
            free,
            live: BTreeMap::new(),
        }
    }

    pub fn mem_ref(&self) -> MemRef {
        self.mem
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Allocate `len` bytes aligned to `align` (power of two). First-fit.
    pub fn alloc(&mut self, len: u64, align: u64) -> Result<Buffer, OutOfMemory> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let len = len.max(1);
        let mut chosen: Option<(u64, u64, u64)> = None; // (base, blk_len, aligned_start)
        for (&base, &blk_len) in &self.free {
            let aligned = (base + align - 1) & !(align - 1);
            let pad = aligned - base;
            if blk_len >= pad + len {
                chosen = Some((base, blk_len, aligned));
                break;
            }
        }
        let Some((base, blk_len, aligned)) = chosen else {
            return Err(OutOfMemory {
                mem: self.mem,
                requested: len,
                available: self.capacity - self.used,
            });
        };
        self.free.remove(&base);
        // Leading pad stays free.
        if aligned > base {
            self.free.insert(base, aligned - base);
        }
        // Trailing remainder stays free.
        let end = aligned + len;
        let blk_end = base + blk_len;
        if blk_end > end {
            self.free.insert(end, blk_end - end);
        }
        self.live.insert(aligned, len);
        self.used += len;
        // Grow the backing store to cover the allocation: geometrically,
        // with a floor, so a warming-up arena is remapped O(log n) times.
        let need = end as usize;
        if self.bytes.len() < need {
            let floor = ARENA_FLOOR.min(self.capacity as usize);
            self.bytes.grow(need.max(self.bytes.len() * 2).max(floor));
        }
        // Fresh arena space — above the allocation high-water mark — is
        // still the kernel's zeros. Recycled space must read as zero too,
        // so that no tenant sees its predecessor's bytes: it is a `Zero`
        // extent, and nothing touches its pages until something writes them.
        let recycled_end = end.min(self.high_water);
        if aligned < recycled_end {
            let (at, lazy) = (aligned as usize..recycled_end as usize, Lazy::Zero);
            insert_in(&mut self.extents, Extent { at, lazy });
        }
        self.high_water = self.high_water.max(end);
        Ok(Buffer {
            mem: self.mem,
            addr: aligned,
            len,
        })
    }

    /// Allocate page-aligned.
    pub fn alloc_pages(&mut self, len: u64) -> Result<Buffer, OutOfMemory> {
        self.alloc(len, PAGE_SIZE)
    }

    /// Free an allocation by its buffer. Panics on double free or on a
    /// buffer that is not an allocation base (programming error in the
    /// simulated software stack).
    pub fn free(&mut self, buf: &Buffer) {
        assert_eq!(buf.mem, self.mem, "freeing buffer from wrong domain");
        let len = self
            .live
            .remove(&buf.addr)
            .unwrap_or_else(|| panic!("free of unknown buffer at {:#x}", buf.addr));
        assert_eq!(len, buf.len, "free with mismatched length");
        self.used -= len;
        let at = buf.addr as usize..(buf.addr + len) as usize;
        let off = self.off_page_at(at.start);
        self.cut_in(off, at.clone(), |_| ());
        if let Some(i) = off {
            // The rule ends with the allocation.
            self.unhold(i);
        }
        // Insert and coalesce with neighbours.
        let mut base = buf.addr;
        let mut blk_len = len;
        if let Some((&pbase, &plen)) = self.free.range(..base).next_back() {
            if pbase + plen == base {
                self.free.remove(&pbase);
                base = pbase;
                blk_len += plen;
            }
        }
        if let Some((&nbase, &nlen)) = self.free.range(base + blk_len..).next() {
            if base + blk_len == nbase {
                self.free.remove(&nbase);
                blk_len += nlen;
            }
        }
        self.free.insert(base, blk_len);
    }

    /// Arena byte range of `[offset, offset+len)` within `buf`, with the
    /// range checks every access makes.
    pub(crate) fn range(&self, buf: &Buffer, offset: u64, len: usize) -> Range<usize> {
        assert_eq!(buf.mem, self.mem);
        assert!(
            offset.checked_add(len as u64).is_some_and(|e| e <= buf.len),
            "access {offset}+{len} out of buffer len {}",
            buf.len
        );
        let start = (buf.addr + offset) as usize;
        // `alloc` grows the arena to cover every buffer it hands out.
        debug_assert!(start + len <= self.bytes.len(), "buffer beyond arena");
        start..start + len
    }

    /// Write bytes into a buffer.
    pub fn write(&mut self, buf: &Buffer, offset: u64, data: &[u8]) {
        let r = self.range(buf, offset, data.len());
        let off = self.off_page_at(r.start);
        self.cut_in(off, r.clone(), |_| ());
        self.store_in(off, r).copy_from_slice(data);
    }

    /// Read bytes out of a buffer.
    pub fn read(&self, buf: &Buffer, offset: u64, out: &mut [u8]) {
        self.read_at(self.range(buf, offset, out.len()), out, &[]);
    }

    /// `r`'s bytes into `out`, a mirror read from `arenas`, the plane's.
    #[inline]
    pub(crate) fn read_at(&self, r: Range<usize>, out: &mut [u8], arenas: &[Memory]) {
        match self.off_page_at(r.start) {
            None if clear(&self.extents, &r) => out.copy_from_slice(&self.bytes[r]),
            Some(i) if held_read(&self.off_page[i].runs, &self.sides, &r, out) => {}
            off => self.resolve(off, r, out, arenas),
        }
    }

    /// [`Memory::read_at`] through the extents `r` is on: off-page
    /// allocation `off`'s, or else the arena's own. A mirror's source has
    /// none.
    #[inline(never)]
    fn resolve(&self, off: Option<usize>, r: Range<usize>, out: &mut [u8], arenas: &[Memory]) {
        let mut at = r.start;
        while at < r.end {
            let (end, lazy) = self.run_on(off, at, r.end);
            let part = &mut out[at - r.start..end - r.start];
            match lazy {
                None => part.copy_from_slice(&self.bytes[at..end]),
                Some(Lazy::From { arena, addr }) => {
                    let from = addr as usize..addr as usize + part.len();
                    arenas[arena as usize].read_at(from, part, &[]);
                }
                Some(lazy) => lazy.read(&self.sides.bufs, part),
            }
            at = end;
        }
    }

    /// Where the run from `at` inside one extent or outside all ends, and
    /// what it reads as inside one; in an allocation held off-page,
    /// outside all its runs is zeros.
    pub(crate) fn run_at(&self, at: usize, end: usize) -> (usize, Option<Lazy>) {
        self.run_on(self.off_page_at(at), at, end)
    }

    /// [`Memory::run_at`] with `at` in off-page allocation `off`, or else
    /// in none.
    #[inline]
    fn run_on(&self, off: Option<usize>, at: usize, end: usize) -> (usize, Option<Lazy>) {
        match off {
            Some(i) => {
                let (end, lazy) = run_in(&self.off_page[i].runs, at, end);
                (end, Some(lazy.unwrap_or(Lazy::Zero)))
            }
            None => run_in(&self.extents, at, end),
        }
    }

    /// Copy `len` bytes between two buffers of this arena. The ranges may
    /// overlap (memmove semantics).
    pub fn copy_within(
        &mut self,
        src: &Buffer,
        src_off: u64,
        dst: &Buffer,
        dst_off: u64,
        len: usize,
    ) {
        let from = self.range(src, src_off, len);
        let to = self.range(dst, dst_off, len);
        if let Some(i) = self.off_page_at(to.start) {
            return self.copy_within_held(i, from, to);
        }
        self.store_in(None, to.clone());
        let off = self.off_page_at(from.start);
        if off.is_none() && clear(&self.extents, &from) && clear(&self.extents, &to) {
            return self.bytes.copy_within(from, to.start);
        }
        self.copy_within_lazy(off, from, to);
    }

    /// [`Memory::copy_within`] into off-page allocation `i`: `from`'s
    /// bytes, read through its extents, become the held run over `to`.
    #[inline(never)]
    fn copy_within_held(&mut self, i: usize, from: Range<usize>, to: Range<usize>) {
        if to.is_empty() {
            return;
        }
        let side = self.sides.take(to.len());
        let mut run = std::mem::take(&mut self.sides.bufs[side as usize]);
        self.read_at(from, &mut run[..to.len()], &[]);
        self.sides.bufs[side as usize] = run;
        self.cut_in(Some(i), to.clone(), |_| ());
        let lazy = Lazy::Side { side, at: 0 };
        insert_in(&mut self.off_page[i].runs, Extent { at: to, lazy });
    }

    /// [`Memory::copy_within`] into the arena's own pages from `from`, in
    /// off-page allocation `off` or through extents.
    #[inline(never)]
    fn copy_within_lazy(&mut self, off: Option<usize>, from: Range<usize>, to: Range<usize>) {
        // Out of one held run, as a slot's payload is copied out: one copy.
        if let Some(i) = off {
            let into = &mut self.bytes[to.clone()];
            if held_read(&self.off_page[i].runs, &self.sides, &from, into) {
                return self.cut_in(None, to, |_| ());
            }
        }
        // Overlapping, the source's extents are first written into its own
        // pages (under the frontier too), so that the copy is one memmove.
        let overlap = from.start < to.end && to.start < from.end;
        let base = if overlap { from.start } else { to.start };
        let mut at = from.start;
        while at < from.end {
            let (end, lazy) = self.run_at(at, from.end);
            let put = base + at - from.start;
            match lazy {
                None if !overlap => self.bytes.copy_within(at..end, put),
                None => {}
                Some(lazy) => {
                    let into = &mut self.bytes[put..put + end - at];
                    lazy.read(&self.sides.bufs, into);
                }
            }
            at = end;
        }
        if overlap {
            self.written = self.written.max(from.end);
            self.cut_in(None, from.clone(), |_| ());
            self.bytes.copy_within(from, to.start);
        }
        self.cut_in(None, to, |_| ());
    }

    /// Copy `len` bytes out of `src` in another arena into `dst` in this
    /// one.
    pub fn copy_from(
        &mut self,
        dst: &Buffer,
        dst_off: u64,
        from: &Memory,
        src: &Buffer,
        src_off: u64,
        len: usize,
    ) {
        let to = self.range(dst, dst_off, len);
        let src = from.range(src, src_off, len);
        let off = self.off_page_at(to.start);
        self.cut_in(off, to.clone(), |_| ());
        from.read_at(src, self.store_in(off, to), &[]);
    }

    /// Add `e` over a range that holds no extent.
    pub(crate) fn insert(&mut self, e: Extent) {
        self.mirrors += usize::from(matches!(e.lazy, Lazy::From { .. }));
        match self.off_page_at(e.at.start) {
            Some(i) => insert_in(&mut self.off_page[i].runs, e),
            None => insert_in(&mut self.extents, e),
        }
    }

    /// `r` is about to be written, mirrored or freed: cut it out of every
    /// extent. `each_from` sees a mirror's extent before it is cut.
    #[inline]
    pub(crate) fn cut(&mut self, r: Range<usize>, each_from: impl FnMut(&Extent)) {
        self.cut_in(self.off_page_at(r.start), r, each_from);
    }

    /// [`Memory::cut`] of `r`, in off-page allocation `off` or else
    /// outside all.
    #[inline]
    fn cut_in(&mut self, off: Option<usize>, r: Range<usize>, each_from: impl FnMut(&Extent)) {
        let list = match off {
            Some(i) => &mut self.off_page[i].runs,
            None => &mut self.extents,
        };
        if !r.is_empty() && !clear(list, &r) {
            trim(list, &mut self.sides, &mut self.mirrors, r, each_from);
        }
    }

    /// The off-page allocation the byte at `at` lies in, by index: one
    /// load, and a compare if one reaches its page.
    #[inline]
    fn off_page_at(&self, at: usize) -> Option<usize> {
        let page = at / PAGE_SIZE as usize;
        let span = (page / SPAN_PAGES).wrapping_sub(self.first_span);
        let span = self.off_index.get(span)?;
        if span.pages >> (page % SPAN_PAGES) & 1 == 0 {
            return None;
        }
        match span.at {
            SHARED => self.find_off_page(at),
            n => {
                let i = n as usize - 1;
                self.off_page[i].at.contains(&at).then_some(i)
            }
        }
    }

    /// [`Memory::off_page_at`] where the index does not say.
    #[cold]
    fn find_off_page(&self, at: usize) -> Option<usize> {
        let i = self.off_order.partition_point(|o| o.0 <= at);
        let (_, slot) = *self.off_order.get(i.checked_sub(1)?)?;
        let slot = slot as usize;
        self.off_page[slot].at.contains(&at).then_some(slot)
    }

    /// The list of extents the range from `at` is on: an off-page
    /// allocation's runs, or else the arena's own extents, and whether it
    /// is an off-page allocation's, which reads zero outside its runs.
    #[inline]
    fn list_at(&self, at: usize) -> (&[Extent], bool) {
        match self.off_page_at(at) {
            Some(i) => (&self.off_page[i].runs, true),
            None => (&self.extents, false),
        }
    }

    /// Mark in the index the pages of `pages` that off-page slot `slot`
    /// reaches, whose spans the index covers.
    fn index_pages(&mut self, slot: usize, pages: Range<usize>) {
        let o = &self.off_page[slot].at;
        let reach = o.start / PAGE_SIZE as usize..o.end.div_ceil(PAGE_SIZE as usize);
        let id = u16::try_from(slot + 1).unwrap_or(SHARED);
        for p in pages.start.max(reach.start)..pages.end.min(reach.end) {
            let span = &mut self.off_index[p / SPAN_PAGES - self.first_span];
            span.at = if span.pages == 0 || span.at == id {
                id
            } else {
                SHARED
            };
            span.pages |= 1 << (p % SPAN_PAGES);
        }
    }

    /// The spans of the index that `at` reaches, by number, with the index
    /// grown to cover them.
    fn spans_of(&mut self, at: &Range<usize>) -> Range<usize> {
        let page = PAGE_SIZE as usize;
        let spans = at.start / page / SPAN_PAGES..at.end.div_ceil(page).div_ceil(SPAN_PAGES);
        if self.off_index.is_empty() {
            self.first_span = spans.start;
        }
        if spans.start < self.first_span {
            let more = std::iter::repeat_n(Span::default(), self.first_span - spans.start);
            self.off_index.splice(0..0, more);
            self.first_span = spans.start;
        }
        let len = spans.end.max(self.first_span + self.off_index.len()) - self.first_span;
        self.off_index.resize(len, Span::default());
        spans
    }

    /// End the rule for off-page slot `i`: its allocation leaves the
    /// index, whose spans it reached are marked again from the allocations
    /// still held there.
    fn unhold(&mut self, i: usize) {
        let at = std::mem::take(&mut self.off_page[i]).at;
        let k = self.off_order.partition_point(|o| o.0 < at.start);
        self.off_order.remove(k);
        self.off_free.push(i as u32);
        let page = PAGE_SIZE as usize;
        for span in self.spans_of(&at) {
            let pages = span * SPAN_PAGES..(span + 1) * SPAN_PAGES;
            self.off_index[span - self.first_span] = Span::default();
            let (lo, hi) = (pages.start * page, pages.end * page);
            let from = self.off_order.partition_point(|o| o.0 < lo);
            // The one before `from` may reach into the span too.
            for k in from.saturating_sub(1)..self.off_order.len() {
                let (start, slot) = self.off_order[k];
                if start >= hi {
                    break;
                }
                self.index_pages(slot as usize, pages.clone());
            }
        }
    }

    /// The side buffer of held run `side`, for the plane's checks.
    pub(crate) fn side_len(&self, side: u32) -> Option<usize> {
        let owned = !self.sides.free.contains(&side);
        self.sides
            .bufs
            .get(side as usize)
            .filter(|_| owned)
            .map(Vec::len)
    }

    /// Every list of extents, each in address order: the arena's own, then
    /// each allocation held off-page's, with its range.
    pub(crate) fn lists(&self) -> impl Iterator<Item = (&[Extent], Option<&Range<usize>>)> {
        let off = self.off_order.iter().map(|&(_, slot)| {
            let o = &self.off_page[slot as usize];
            (&o.runs[..], Some(&o.at))
        });
        std::iter::once((&self.extents[..], None)).chain(off)
    }

    /// The extents of the list `r` starts in that lie inside `r`, and
    /// whether it is an off-page allocation's, which reads zero outside
    /// its runs.
    pub(crate) fn extents_in(&self, r: &Range<usize>) -> (&[Extent], bool) {
        let (list, held) = self.list_at(r.start);
        let lo = list.partition_point(|e| e.at.start < r.start);
        let hi = list.partition_point(|e| e.at.end <= r.end);
        (&list[lo..hi.max(lo)], held)
    }

    /// The extent that starts at `start`, if any.
    pub(crate) fn extent_at(&self, start: usize) -> Option<&Extent> {
        let (list, _) = self.list_at(start);
        let i = list.binary_search_by_key(&start, |e| e.at.start).ok()?;
        Some(&list[i])
    }

    /// Side buffers made so far, holding a run or free.
    pub(crate) fn side_buffers(&self) -> usize {
        self.sides.bufs.len()
    }

    /// How many extents are mirrors.
    pub(crate) fn mirrors(&self) -> usize {
        self.mirrors
    }

    /// Whether `r` lies inside one live allocation.
    pub(crate) fn is_live(&self, r: &Range<usize>) -> bool {
        let owner = self.live.range(..=r.start as u64).next_back();
        owner.is_some_and(|(&base, &len)| r.end as u64 <= base + len)
    }

    /// Whether the byte at `at` lies in an allocation held off-page.
    pub(crate) fn is_off_page(&self, at: usize) -> bool {
        self.off_page_at(at).is_some()
    }

    /// Read a buffer fully into a fresh Vec.
    pub fn read_vec(&self, buf: &Buffer) -> Vec<u8> {
        let mut v = vec![0u8; buf.len as usize];
        self.read(buf, 0, &mut v);
        v
    }

    /// Hold `buf`, a whole live allocation, off its pages from now on:
    /// what is written into it is kept as held runs, in side buffers, and
    /// never in its pages, for memory whose bytes each live until a
    /// [`Memory::discard`] — a posted receive's. Its bytes so far are
    /// discarded. Freeing it ends the rule.
    pub fn hold_off_page(&mut self, buf: &Buffer) {
        let at = buf.addr as usize..(buf.addr + buf.len) as usize;
        assert_eq!(
            self.live.get(&buf.addr),
            Some(&buf.len),
            "only a whole live allocation is held off-page"
        );
        assert!(!self.is_off_page(at.start), "{at:?} is held off-page twice");
        self.cut_in(None, at.clone(), |_| ());
        let slot = self.off_free.pop().unwrap_or_else(|| {
            self.off_page.push(OffPage::default());
            (self.off_page.len() - 1) as u32
        });
        let k = self.off_order.partition_point(|o| o.0 < at.start);
        self.off_order.insert(k, (at.start, slot));
        let spans = self.spans_of(&at);
        let runs = Vec::new();
        self.off_page[slot as usize] = OffPage { at, runs };
        let pages = spans.start * SPAN_PAGES..spans.end * SPAN_PAGES;
        self.index_pages(slot as usize, pages);
    }

    /// End the bytes of `buf`, inside an allocation held off-page: its
    /// held runs' side buffers are recycled and it reads zero.
    pub fn discard(&mut self, buf: &Buffer) {
        let r = self.range(buf, 0, buf.len as usize);
        if r.is_empty() {
            return;
        }
        let i = self.off_page_at(r.start);
        let i = i.expect("discard inside an off-page allocation");
        let o = &self.off_page[i].at;
        debug_assert!(r.end <= o.end, "{r:?} runs out of off-page {o:?}");
        self.cut_in(Some(i), r, |_| ());
    }

    /// Where the bytes about to be written over `to`, which holds no
    /// extent, go: a held run's side buffer if `to` is held off-page, else
    /// its pages, with the written frontier raised over them (see
    /// [`Memory::store_in`]).
    #[inline]
    pub(crate) fn store(&mut self, to: Range<usize>) -> &mut [u8] {
        self.store_in(self.off_page_at(to.start), to)
    }

    /// [`Memory::store`] with `to` in off-page allocation `off`, or else
    /// in none. Whole pages above the frontier have never been written:
    /// one `madvise` backs them all, where the write would trap a fault on
    /// each. Populating resident pages costs nearly as much as the copy
    /// (DESIGN §22), so a rewrite below the frontier pays one compare;
    /// edge pages fault as before, so residency is what the write touched.
    #[inline]
    fn store_in(&mut self, off: Option<usize>, to: Range<usize>) -> &mut [u8] {
        if let Some(i) = off {
            return self.hold(i, to);
        }
        if to.end > self.written {
            self.populate(to.clone());
        }
        &mut self.bytes[to]
    }

    /// A held run over `to`, in off-page allocation `i`: its side buffer,
    /// for the caller to fill.
    #[inline(never)]
    fn hold(&mut self, i: usize, to: Range<usize>) -> &mut [u8] {
        let len = to.len();
        if len == 0 {
            return &mut [];
        }
        let side = self.sides.take(len);
        let lazy = Lazy::Side { side, at: 0 };
        insert_in(&mut self.off_page[i].runs, Extent { at: to, lazy });
        &mut self.sides.bufs[side as usize][..len]
    }

    #[cold]
    fn populate(&mut self, to: Range<usize>) {
        let page = page_size();
        let first = to.start.max(self.written).next_multiple_of(page);
        let last = to.end - to.end % page;
        if first < last {
            self.bytes.commit(first..last);
        }
        self.written = to.end;
    }

    /// Highest allocation end ever handed out: the arena's extent. Above
    /// it the arena is the kernel's untouched zeros.
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Host pages ([`simcore::mapping::page_size`] bytes each) backing the
    /// arena right now, as the kernel counts them over `[0, high_water)`.
    pub fn resident_pages(&self) -> usize {
        self.bytes.resident_pages(0..self.high_water as usize)
    }

    /// Host pages wholly inside `buf` that are backed right now.
    pub fn resident_pages_in(&self, buf: &Buffer) -> usize {
        let page = page_size();
        let r = self.range(buf, 0, buf.len as usize);
        let (lo, hi) = (r.start.next_multiple_of(page), r.end - r.end % page);
        if lo >= hi {
            return 0;
        }
        self.bytes.resident_pages(lo..hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(
            MemRef {
                node: NodeId(0),
                domain: Domain::Phi,
            },
            1 << 20,
        )
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut m = mem();
        let a = m.alloc(1000, 8).unwrap();
        assert_eq!(m.used(), 1000);
        m.free(&a);
        assert_eq!(m.used(), 0);
    }

    #[test]
    fn alloc_is_aligned() {
        let mut m = mem();
        let _pad = m.alloc(10, 1).unwrap();
        let b = m.alloc(100, 256).unwrap();
        assert_eq!(b.addr % 256, 0);
        let p = m.alloc_pages(PAGE_SIZE * 2).unwrap();
        assert_eq!(p.addr % PAGE_SIZE, 0);
        assert!(p.is_page_aligned());
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut m = mem();
        let err = m.alloc(2 << 20, 1).unwrap_err();
        assert_eq!(err.requested, 2 << 20);
        assert_eq!(err.available, 1 << 20);
    }

    #[test]
    fn free_coalesces() {
        let mut m = mem();
        let a = m.alloc(1024, 1).unwrap();
        let b = m.alloc(1024, 1).unwrap();
        let c = m.alloc(1024, 1).unwrap();
        m.free(&a);
        m.free(&c);
        m.free(&b);
        // After coalescing everything we can allocate the whole capacity.
        let all = m.alloc(1 << 20, 1).unwrap();
        assert_eq!(all.len, 1 << 20);
    }

    #[test]
    #[should_panic(expected = "free of unknown buffer")]
    fn double_free_panics() {
        let mut m = mem();
        let a = m.alloc(64, 1).unwrap();
        m.free(&a);
        m.free(&a);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = mem();
        let a = m.alloc(4096, 4096).unwrap();
        let data: Vec<u8> = (0..=255).cycle().take(4096).collect();
        m.write(&a, 0, &data);
        assert_eq!(m.read_vec(&a), data);
        // Partial read at offset.
        let mut out = [0u8; 4];
        m.read(&a, 256, &mut out);
        assert_eq!(out, [0, 1, 2, 3]);
    }

    #[test]
    fn recycled_memory_reads_zero() {
        let mut m = mem();
        let a = m.alloc(256, 1).unwrap();
        m.write(&a, 0, &[0xAB; 256]);
        m.free(&a);
        // First-fit hands the same region back; it must read as zero
        // like fresh pages do, not leak the previous tenant's bytes.
        let b = m.alloc(256, 1).unwrap();
        assert_eq!(b.addr, a.addr);
        assert_eq!(m.read_vec(&b), vec![0u8; 256]);
        // A write into the middle leaves both sides of it reading zero,
        // and a copy out of them carries zeros, not the old tenant's bytes.
        m.write(&b, 100, &[1, 2, 3]);
        let mut want = vec![0u8; 256];
        want[100..103].copy_from_slice(&[1, 2, 3]);
        assert_eq!(m.read_vec(&b), want);
        let c = m.alloc(256, 1).unwrap();
        m.write(&c, 0, &[0xCD; 256]);
        m.copy_within(&b, 0, &c, 0, 256);
        assert_eq!(m.read_vec(&c), want);
    }

    #[test]
    fn held_bytes_read_back_until_overwritten() {
        let mut m = mem();
        let a = m.alloc(256, 1).unwrap();
        m.write(&a, 0, &[0xCD; 256]);
        let at = a.addr as usize + 100;
        m.insert(Extent {
            at: at..at + 8,
            lazy: Lazy::Bytes([1, 2, 3, 4, 5, 6, 7, 8]),
        });
        let mut want = vec![0xCD; 256];
        want[100..108].copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.read_vec(&a), want);
        // A write through the middle leaves both ends held, and a copy
        // out of them carries the held bytes, not the pages under them.
        m.write(&a, 103, &[9, 9]);
        want[103..105].copy_from_slice(&[9, 9]);
        assert_eq!(m.read_vec(&a), want);
        let b = m.alloc(256, 1).unwrap();
        m.copy_within(&a, 0, &b, 0, 256);
        assert_eq!(m.read_vec(&b), want);
        // So does a memmove over them.
        m.copy_within(&a, 96, &a, 100, 16);
        let moved = want[96..112].to_vec();
        want[100..116].copy_from_slice(&moved);
        assert_eq!(m.read_vec(&a), want);
        m.free(&a);
        assert_eq!(m.read_vec(&b)[100..108], [1, 2, 3, 9, 9, 6, 7, 8]);
    }

    #[test]
    fn the_off_page_index_follows_holds_and_frees_in_any_order() {
        let mut m = Memory::new(mem().mem_ref(), 8 << 20);
        // Lengths that straddle pages, share an index span or reach many.
        let lens = [
            3 * PAGE_SIZE + 17,
            40,
            PAGE_SIZE,
            40 * PAGE_SIZE + 1,
            5,
            17 * PAGE_SIZE,
        ];
        let mut bufs: Vec<_> = (0..30)
            .map(|i| Some((m.alloc(lens[i % lens.len()], 8).unwrap(), i % 3 != 1)))
            .collect();
        let check = |m: &Memory, bufs: &[Option<(Buffer, bool)>]| {
            for (b, held) in bufs.iter().flatten() {
                for at in [b.addr, b.addr + b.len / 2, b.addr + b.len - 1] {
                    assert_eq!(m.is_off_page(at as usize), *held, "{b:?} at {at:#x}");
                }
            }
        };
        // Held from the top down, so that the index grows towards lower
        // addresses; then freed in a stride order, every other one
        // allocated and held again wherever it lands.
        for (b, _) in bufs.iter().rev().flatten().filter(|(_, held)| *held) {
            m.hold_off_page(b);
        }
        check(&m, &bufs);
        for k in 0..30 {
            let i = k * 7 % 30;
            let Some((b, true)) = bufs[i].clone() else {
                continue;
            };
            m.free(&b);
            bufs[i] = None;
            check(&m, &bufs);
            if k % 2 == 0 {
                let b = m.alloc(b.len, 8).unwrap();
                m.hold_off_page(&b);
                bufs.push(Some((b, true)));
                check(&m, &bufs);
            }
        }
    }

    #[test]
    fn untouched_memory_reads_zero() {
        let mut m = mem();
        let a = m.alloc(128, 1).unwrap();
        let mut out = [1u8; 16];
        m.read(&a, 64, &mut out);
        assert_eq!(out, [0u8; 16]);
    }

    #[test]
    fn slice_bounds_checked() {
        let mut m = mem();
        let a = m.alloc(100, 1).unwrap();
        let s = a.slice(10, 20);
        assert_eq!(s.addr, a.addr + 10);
        assert_eq!(s.len, 20);
        let r = std::panic::catch_unwind(|| a.slice(90, 20));
        assert!(r.is_err());
    }

    #[test]
    fn pages_count() {
        let b = Buffer {
            mem: MemRef {
                node: NodeId(0),
                domain: Domain::Host,
            },
            addr: 0,
            len: 4096,
        };
        assert_eq!(b.pages(), 1);
        let b2 = Buffer {
            addr: 4095,
            len: 2,
            ..b.clone()
        };
        assert_eq!(b2.pages(), 2);
        let b3 = Buffer {
            addr: 0,
            len: 4097,
            ..b
        };
        assert_eq!(b3.pages(), 2);
    }
}
