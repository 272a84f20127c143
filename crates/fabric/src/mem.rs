//! Simulated memory: per-domain byte arenas with a first-fit allocator.
//!
//! Buffers hold *real bytes* so that protocol correctness (does the receive
//! buffer contain exactly what was sent?) is testable, while capacity
//! accounting models the Phi's hard memory limit (no demand paging on the
//! paper's micro-kernel).

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use simcore::mapping::Mapping;

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

/// One memory domain: a byte arena plus a first-fit allocator.
pub struct Memory {
    mem: MemRef,
    capacity: u64,
    used: u64,
    /// Arena backing store: one mapping, grown in place as allocations
    /// reach beyond it. The host's resident memory is the pages simulated
    /// software wrote — growth neither copies nor touches any.
    bytes: Mapping,
    /// Highest allocation end ever handed out. Space above this line has
    /// never been allocated, so it still reads as the kernel's fresh
    /// zeros; recycled space below it is recorded in `zeros`.
    high_water: u64,
    /// Recycled ranges that read as zero although their bytes were never
    /// cleared — sorted, disjoint, each inside one live allocation.
    /// `alloc` records one instead of clearing the bytes, so no page of a
    /// recycled buffer is touched before something writes it; a write or
    /// copy into one trims it, and `free` drops the freed buffer's.
    zeros: Vec<Range<usize>>,
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
            high_water: 0,
            // A recycled buffer is written or mirrored soon after it is
            // handed out, so only a few ranges are recorded at once: room
            // for them now keeps the first recycling — often well inside a
            // timed run — from allocating.
            zeros: Vec::with_capacity(4),
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
        // so that no tenant sees its predecessor's bytes: it is recorded
        // as zero, and nothing touches its pages until something writes
        // them.
        let recycled_end = end.min(self.high_water);
        if aligned < recycled_end {
            let r = aligned as usize..recycled_end as usize;
            let at = self.zeros.partition_point(|z| z.start < r.start);
            debug_assert!(
                self.zeros.get(at).is_none_or(|z| r.end <= z.start)
                    && (at == 0 || self.zeros[at - 1].end <= r.start),
                "recorded zeros outlived their buffer"
            );
            self.zeros.insert(at, r);
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
        self.forget_zeros(buf.addr as usize..(buf.addr + len) as usize);
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
        self.forget_zeros(r.clone());
        self.bytes[r].copy_from_slice(data);
    }

    /// Read bytes out of a buffer.
    pub fn read(&self, buf: &Buffer, offset: u64, out: &mut [u8]) {
        let r = self.range(buf, offset, out.len());
        if self.zeros.is_empty() {
            return out.copy_from_slice(&self.bytes[r]);
        }
        self.read_lazy(r, out);
    }

    #[cold]
    fn read_lazy(&self, r: Range<usize>, out: &mut [u8]) {
        runs(&self.zeros, r.clone(), |run, zero| {
            let part = &mut out[run.start - r.start..run.end - r.start];
            if zero {
                part.fill(0);
            } else {
                part.copy_from_slice(&self.bytes[run]);
            }
        });
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
        if self.zeros.is_empty() {
            return self.bytes.copy_within(from, to.start);
        }
        self.copy_within_lazy(from, to);
    }

    #[cold]
    fn copy_within_lazy(&mut self, from: Range<usize>, to: Range<usize>) {
        if from.start < to.end && to.start < from.end {
            // Overlapping: make the source's zeros real first, so that the
            // copy is the one memmove below.
            runs(&self.zeros, from.clone(), |run, zero| {
                if zero {
                    self.bytes[run].fill(0);
                }
            });
            self.forget_zeros(from.clone());
        }
        let Memory { bytes, zeros, .. } = self;
        runs(zeros, from.clone(), |run, zero| {
            let at = to.start + (run.start - from.start);
            if zero {
                bytes[at..at + run.len()].fill(0);
            } else {
                bytes.copy_within(run, at);
            }
        });
        self.forget_zeros(to);
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
        self.forget_zeros(to.clone());
        if from.zeros.is_empty() {
            return self.bytes[to].copy_from_slice(&from.bytes[src]);
        }
        self.copy_from_lazy(to, from, src);
    }

    #[cold]
    fn copy_from_lazy(&mut self, to: Range<usize>, from: &Memory, src: Range<usize>) {
        runs(&from.zeros, src.clone(), |run, zero| {
            let at = to.start + (run.start - src.start);
            let part = &mut self.bytes[at..at + run.len()];
            if zero {
                part.fill(0);
            } else {
                part.copy_from_slice(&from.bytes[run]);
            }
        });
    }

    /// `r` no longer reads as recorded zeros: it is about to be written,
    /// mirrored, or freed.
    #[inline]
    pub(crate) fn forget_zeros(&mut self, r: Range<usize>) {
        if !self.zeros.is_empty() {
            self.trim_zeros(r);
        }
    }

    #[cold]
    fn trim_zeros(&mut self, r: Range<usize>) {
        let mut i = self.zeros.partition_point(|z| z.end <= r.start);
        while i < self.zeros.len() && self.zeros[i].start < r.end {
            let z = self.zeros[i].clone();
            match (z.start < r.start, r.end < z.end) {
                (true, true) => {
                    self.zeros[i].end = r.start;
                    self.zeros.insert(i + 1, r.end..z.end);
                    return;
                }
                (true, false) => {
                    self.zeros[i].end = r.start;
                    i += 1;
                }
                (false, true) => {
                    self.zeros[i].start = r.end;
                    return;
                }
                (false, false) => {
                    self.zeros.remove(i);
                }
            }
        }
    }

    /// Read a buffer fully into a fresh Vec.
    pub fn read_vec(&self, buf: &Buffer) -> Vec<u8> {
        let mut v = vec![0u8; buf.len as usize];
        self.read(buf, 0, &mut v);
        v
    }

    /// Back `[offset, offset+len)` of `buf` with real host pages, contents
    /// unchanged — what pinned or non-pageable memory is on the modelled
    /// hardware. For set-up code whose buffers will be written inside
    /// something timed: the first-touch faults happen here instead.
    pub fn commit(&mut self, buf: &Buffer, offset: u64, len: u64) {
        let r = self.range(buf, offset, len as usize);
        self.bytes.commit(r);
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

    /// Whether any of `r` is recorded as zero.
    pub(crate) fn has_zeros_in(&self, r: Range<usize>) -> bool {
        let mut any = false;
        runs(&self.zeros, r, |_, zero| any |= zero);
        any
    }
}

/// Walk `r` in address order as maximal runs that lie inside one of the
/// sorted, disjoint `zeros` (`f(run, true)`) or outside all of them
/// (`f(run, false)`).
fn runs(zeros: &[Range<usize>], r: Range<usize>, mut f: impl FnMut(Range<usize>, bool)) {
    if r.is_empty() {
        return;
    }
    let mut at = r.start;
    let first = zeros.partition_point(|z| z.end <= r.start);
    for z in zeros[first..].iter().take_while(|z| z.start < r.end) {
        if at < z.start {
            f(at..z.start, false);
        }
        let end = z.end.min(r.end);
        f(at.max(z.start)..end, true);
        at = end;
    }
    if at < r.end {
        f(at..r.end, false);
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
