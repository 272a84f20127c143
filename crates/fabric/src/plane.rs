//! The byte plane of one node: its two arenas and the mirrors between them.
//!
//! Bytes move when they are read (DESIGN.md §18). A PCIe DMA between a
//! node's host and Phi memory does not copy when it completes: it records
//! a [`Mirror`], "`dst` reads as `src`". Every access resolves through the
//! mirrors, so an offloaded rendezvous's RDMA READ of a host twin copies
//! straight out of the Phi send buffer and the twin is never written:
//!
//! * a read or copy out of a mirrored range is served from its source;
//! * a write into a mirror's source first copies the bytes it overwrites
//!   into the mirror's destination, and the mirror shrinks by them;
//! * a write into a mirror's destination ends the mirror there;
//! * a free copies out the mirrors that read from the freed buffer and
//!   ends those that write into it.
//!
//! Every read therefore returns what an eager copy would have written.
//! A mirror never leaves its node, so the node's one lock guards both
//! arenas and the list.

use std::ops::Range;

use crate::config::Domain;
use crate::mem::{Buffer, MemRef, Memory, NodeId};

/// "`dst` reads as `src`": what a PCIe DMA leaves instead of a copy. The
/// two buffers have one length and lie in one node's two domains.
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

fn span(buf: &Buffer) -> Range<u64> {
    buf.addr..buf.addr + buf.len
}

fn overlap(a: Range<u64>, b: Range<u64>) -> Option<Range<u64>> {
    let o = a.start.max(b.start)..a.end.min(b.end);
    (o.start < o.end).then_some(o)
}

/// A node's host and Phi arenas, read and written as they are stored:
/// no mirror consulted.
struct Domains {
    host: Memory,
    phi: Memory,
}

impl Domains {
    fn get(&self, d: Domain) -> &Memory {
        match d {
            Domain::Host => &self.host,
            Domain::Phi => &self.phi,
        }
    }

    fn get_mut(&mut self, d: Domain) -> &mut Memory {
        match d {
            Domain::Host => &mut self.host,
            Domain::Phi => &mut self.phi,
        }
    }

    /// `len` bytes from `src[src_off..]` to `dst[dst_off..]`, one memcpy
    /// (a memmove inside one arena).
    fn copy(&mut self, src: &Buffer, src_off: u64, dst: &Buffer, dst_off: u64, len: u64) {
        let len = len as usize;
        let (to, from) = match (dst.mem.domain, src.mem.domain) {
            (d, s) if d == s => {
                return self.get_mut(d).copy_within(src, src_off, dst, dst_off, len);
            }
            (Domain::Host, _) => (&mut self.host, &self.phi),
            (Domain::Phi, _) => (&mut self.phi, &self.host),
        };
        to.copy_from(dst, dst_off, from, src, src_off, len);
    }
}

/// A node's two arenas and its mirrors, behind the node's one lock.
pub(crate) struct NodeMem {
    domains: Domains,
    /// Invariants, checked after every change in debug builds:
    /// destinations are disjoint and hold no recorded zeros; every mirror
    /// is intra-node and cross-domain; no source lies inside a
    /// destination, so a source's bytes are its own.
    mirrors: Vec<Mirror>,
}

impl NodeMem {
    pub(crate) fn new(host: Memory, phi: Memory) -> NodeMem {
        NodeMem {
            domains: Domains { host, phi },
            mirrors: Vec::new(),
        }
    }

    fn node(&self) -> NodeId {
        self.domains.host.mem_ref().node
    }

    pub(crate) fn arena(&self, d: Domain) -> &Memory {
        self.domains.get(d)
    }

    pub(crate) fn arena_mut(&mut self, d: Domain) -> &mut Memory {
        self.domains.get_mut(d)
    }

    /// Range-checked arena addresses of `[offset, offset+len)` of `buf`.
    fn span(&self, buf: &Buffer, offset: u64, len: u64) -> Range<u64> {
        let r = self.arena(buf.mem.domain).range(buf, offset, len as usize);
        r.start as u64..r.end as u64
    }

    pub(crate) fn free(&mut self, buf: &Buffer) {
        if !self.mirrors.is_empty() {
            self.unmirror(buf.mem.domain, span(buf), false);
        }
        self.arena_mut(buf.mem.domain).free(buf);
    }

    pub(crate) fn write(&mut self, buf: &Buffer, offset: u64, data: &[u8]) {
        if !self.mirrors.is_empty() {
            let r = self.span(buf, offset, data.len() as u64);
            self.unmirror(buf.mem.domain, r, false);
        }
        self.arena_mut(buf.mem.domain).write(buf, offset, data);
    }

    pub(crate) fn read(&self, buf: &Buffer, offset: u64, out: &mut [u8]) {
        if self.mirrors.is_empty() {
            return self.arena(buf.mem.domain).read(buf, offset, out);
        }
        self.read_mirrored(buf, offset, out);
    }

    #[cold]
    fn read_mirrored(&self, buf: &Buffer, offset: u64, out: &mut [u8]) {
        let r = self.span(buf, offset, out.len() as u64);
        pieces(&self.mirrors, buf.mem, r.clone(), |run, stored| {
            let part = &mut out[(run.start - r.start) as usize..(run.end - r.start) as usize];
            self.arena(stored.mem.domain).read(stored, 0, part);
        });
    }

    /// `len` bytes from `src[src_off..]` to `dst[dst_off..]`, both in this
    /// node. Ranges within one arena may overlap (memmove semantics).
    pub(crate) fn copy(
        &mut self,
        src: &Buffer,
        src_off: u64,
        dst: &Buffer,
        dst_off: u64,
        len: u64,
    ) {
        if self.mirrors.is_empty() {
            return self.domains.copy(src, src_off, dst, dst_off, len);
        }
        self.copy_mirrored(src, src_off, dst, dst_off, len);
    }

    #[cold]
    fn copy_mirrored(&mut self, src: &Buffer, src_off: u64, dst: &Buffer, dst_off: u64, len: u64) {
        let (s, t) = (self.span(src, src_off, len), self.span(dst, dst_off, len));
        if src.mem == dst.mem && overlap(s.clone(), t.clone()).is_some() {
            // A memmove: settle every mirror on either range, so that both
            // hold their own bytes and the move is one.
            self.unmirror(src.mem.domain, s.start.min(t.start)..s.end.max(t.end), true);
            return self.domains.copy(src, src_off, dst, dst_off, len);
        }
        self.unmirror(dst.mem.domain, t, false);
        // Now no mirror reads from `dst`'s range, so writing it cannot
        // change a byte any later run of `src` resolves to.
        let NodeMem { domains, mirrors } = self;
        pieces(mirrors, src.mem, s.clone(), |run, stored| {
            let at = dst_off + (run.start - s.start);
            domains.copy(stored, 0, dst, at, run.end - run.start);
        });
    }

    /// `len` bytes from `src[src_off..]` in node `from` to `dst[dst_off..]`
    /// in this one.
    pub(crate) fn copy_in(
        &mut self,
        dst: &Buffer,
        dst_off: u64,
        from: &NodeMem,
        src: &Buffer,
        src_off: u64,
        len: u64,
    ) {
        if self.mirrors.is_empty() && from.mirrors.is_empty() {
            let (to, src_arena) = (self.arena_mut(dst.mem.domain), from.arena(src.mem.domain));
            return to.copy_from(dst, dst_off, src_arena, src, src_off, len as usize);
        }
        self.copy_in_mirrored(dst, dst_off, from, src, src_off, len);
    }

    #[cold]
    fn copy_in_mirrored(
        &mut self,
        dst: &Buffer,
        dst_off: u64,
        from: &NodeMem,
        src: &Buffer,
        src_off: u64,
        len: u64,
    ) {
        let t = self.span(dst, dst_off, len);
        let s = from.span(src, src_off, len);
        self.unmirror(dst.mem.domain, t, false);
        let to = self.arena_mut(dst.mem.domain);
        pieces(&from.mirrors, src.mem, s.clone(), |run, stored| {
            let at = dst_off + (run.start - s.start);
            let stored_arena = from.arena(stored.mem.domain);
            to.copy_from(
                dst,
                at,
                stored_arena,
                stored,
                0,
                (run.end - run.start) as usize,
            );
        });
    }

    /// A whole-buffer hop inside this node has completed: between the two
    /// domains it records that `dst` reads as `src`; inside one it copies.
    pub(crate) fn land(&mut self, src: &Buffer, dst: &Buffer) {
        let (s, t) = (self.span(src, 0, src.len), self.span(dst, 0, dst.len));
        let mirrored =
            |m: &Mirror| m.dst.mem == src.mem && overlap(span(&m.dst), s.clone()).is_some();
        if src.mem.domain == dst.mem.domain || s.is_empty() || self.mirrors.iter().any(mirrored) {
            // A source that is itself mirrored is read through its mirror.
            return self.copy(src, 0, dst, 0, src.len);
        }
        if !self.mirrors.is_empty() {
            self.unmirror(dst.mem.domain, t.clone(), false);
        }
        let bytes = t.start as usize..t.end as usize;
        self.arena_mut(dst.mem.domain).forget_zeros(bytes);
        self.mirrors.push(Mirror {
            src: src.clone(),
            dst: dst.clone(),
        });
        self.check();
    }

    /// End every mirror's hold on `r` of domain `d`, whose bytes are about
    /// to change or go. A mirror reading from `r` first gets those bytes
    /// copied into its destination; one writing into `r` ends there — after
    /// the same copy when `settle` is set, so that `r` holds its own bytes.
    /// The rest of each mirror stays a mirror.
    #[cold]
    fn unmirror(&mut self, d: Domain, r: Range<u64>, settle: bool) {
        let mut i = 0;
        while i < self.mirrors.len() {
            let m = &self.mirrors[i];
            // The two ends lie in different domains: at most one is in `d`.
            let reads = m.src.mem.domain == d;
            let end = if reads { &m.src } else { &m.dst };
            let Some(o) = overlap(span(end), r.clone()) else {
                i += 1;
                continue;
            };
            let (m, a, b) = (m.clone(), o.start - end.addr, o.end - end.addr);
            if reads || settle {
                self.domains.copy(&m.src, a, &m.dst, a, b - a);
            }
            let head = (a > 0).then(|| m.slice(0, a));
            let tail = (b < m.len()).then(|| m.slice(b, m.len() - b));
            match (head, tail) {
                (Some(head), tail) => {
                    self.mirrors[i] = head;
                    self.mirrors.extend(tail);
                    i += 1;
                }
                (None, Some(tail)) => {
                    self.mirrors[i] = tail;
                    i += 1;
                }
                (None, None) => {
                    self.mirrors.swap_remove(i);
                }
            }
        }
        self.check();
    }

    /// The mirror invariants (see `mirrors`), in debug builds.
    fn check(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let node = self.node();
        for (i, m) in self.mirrors.iter().enumerate() {
            debug_assert!(
                m.src.len == m.dst.len && m.len() > 0,
                "mirror {m:?} is empty or uneven"
            );
            debug_assert!(
                m.src.mem.node == node
                    && m.dst.mem.node == node
                    && m.src.mem.domain != m.dst.mem.domain,
                "mirror {m:?} in {node} is not intra-node and cross-domain"
            );
            let dst = span(&m.dst);
            let bytes = dst.start as usize..dst.end as usize;
            debug_assert!(
                !self.arena(m.dst.mem.domain).has_zeros_in(bytes),
                "mirror {m:?} writes into recorded zeros"
            );
            for n in &self.mirrors[i + 1..] {
                debug_assert!(
                    n.dst.mem != m.dst.mem || overlap(span(&n.dst), dst.clone()).is_none(),
                    "mirrors {m:?} and {n:?} write into one range"
                );
            }
            for n in &self.mirrors {
                debug_assert!(
                    n.src.mem != m.dst.mem || overlap(span(&n.src), dst.clone()).is_none(),
                    "mirror {n:?} reads from inside mirror {m:?}'s destination"
                );
            }
        }
    }
}

/// Walk `r` of `mem` in address order as runs that each read from one
/// place: `f(run, stored)`, where `stored` is the run itself or, inside a
/// mirror's destination, the matching part of the mirror's source.
fn pieces(mirrors: &[Mirror], mem: MemRef, r: Range<u64>, mut f: impl FnMut(Range<u64>, &Buffer)) {
    let mut at = r.start;
    while at < r.end {
        let mut next = r.end;
        let mut covering = None;
        for m in mirrors.iter().filter(|m| m.dst.mem == mem) {
            let dst = span(&m.dst);
            if dst.contains(&at) {
                covering = Some(m);
                break;
            }
            if at < dst.start {
                next = next.min(dst.start);
            }
        }
        let (end, from, addr) = match covering {
            Some(m) => {
                let end = (m.dst.addr + m.dst.len).min(r.end);
                (end, m.src.mem, m.src.addr + (at - m.dst.addr))
            }
            None => (next, mem, at),
        };
        let stored = Buffer {
            mem: from,
            addr,
            len: end - at,
        };
        f(at..end, &stored);
        at = end;
    }
}

/// The one or two nodes' memory a closure given to
/// [`Cluster::with_mem`](crate::Cluster::with_mem) /
/// [`Cluster::with_mems`](crate::Cluster::with_mems) works on, locked for
/// as long as it runs. Every method is range-checked like [`Memory`]'s and
/// panics on a buffer in a node that was not locked.
pub struct Arenas<'a> {
    first: &'a mut NodeMem,
    second: Option<&'a mut NodeMem>,
}

impl<'a> Arenas<'a> {
    pub(crate) fn new(first: &'a mut NodeMem, second: Option<&'a mut NodeMem>) -> Self {
        Arenas { first, second }
    }

    fn node(&mut self, mem: MemRef) -> &mut NodeMem {
        if self.first.node() == mem.node {
            return self.first;
        }
        match self.second.as_deref_mut() {
            Some(second) if second.node() == mem.node => second,
            _ => panic!("buffer in {mem}, an arena this call did not lock"),
        }
    }

    /// Write bytes into a buffer.
    pub fn write(&mut self, buf: &Buffer, offset: u64, data: &[u8]) {
        self.node(buf.mem).write(buf, offset, data);
    }

    /// Read bytes out of a buffer.
    pub fn read(&mut self, buf: &Buffer, offset: u64, out: &mut [u8]) {
        self.node(buf.mem).read(buf, offset, out);
    }

    /// The byte plane's one primitive: `len` bytes from `src[src_off..]` to
    /// `dst[dst_off..]`, read through any mirror the source lies in. Ranges
    /// within one arena may overlap (memmove semantics).
    pub fn copy(&mut self, src: &Buffer, src_off: u64, dst: &Buffer, dst_off: u64, len: u64) {
        if src.mem.node == dst.mem.node {
            return self.node(src.mem).copy(src, src_off, dst, dst_off, len);
        }
        let Some(second) = self.second.as_deref_mut() else {
            panic!("copy from {} to {} with one node locked", src.mem, dst.mem);
        };
        let (to, from) = if self.first.node() == dst.mem.node {
            (&mut *self.first, &*second)
        } else {
            (second, &*self.first)
        };
        assert!(
            from.node() == src.mem.node && to.node() == dst.mem.node,
            "copy from {} to {}, arenas this call did not lock",
            src.mem,
            dst.mem
        );
        to.copy_in(dst, dst_off, from, src, src_off, len);
    }

    /// A whole-buffer transfer has completed: inside one node see
    /// [`NodeMem::land`], between two the bytes are copied.
    pub(crate) fn land(&mut self, src: &Buffer, dst: &Buffer) {
        if src.mem.node == dst.mem.node {
            return self.node(src.mem).land(src, dst);
        }
        self.copy(src, 0, dst, 0, src.len);
    }
}
