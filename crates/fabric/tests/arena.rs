//! The arena against a model, across growth and first writes.
//!
//! A [`Memory`]'s backing store is one mapping that grows in place
//! (DESIGN.md "Host memory: touch what a message touches"). Growth must be
//! invisible to simulated software — every live byte keeps its value and
//! its address, fresh and recycled space reads zero — and invisible to the
//! host too: it neither copies nor touches a page. A write past the
//! arena's written frontier has the kernel back the whole fresh pages it
//! fills in one call; the pages resident afterwards are still exactly the
//! pages written, and nothing below the frontier is populated.

use std::collections::BTreeMap;

use fabric::{Buffer, Domain, MemRef, Memory, NodeId, PAGE_SIZE};
use proptest::prelude::*;
use simcore::mapping::page_size;

const MIB: u64 = 1 << 20;

fn arena(capacity: u64) -> Memory {
    let node = NodeId(0);
    Memory::new(
        MemRef {
            node,
            domain: Domain::Phi,
        },
        capacity,
    )
}

/// The allocator's placement rule, written down a second time: first fit
/// over address-ordered free blocks, the aligned start's leading pad and
/// the trailing remainder stay free, neighbours coalesce on free.
struct FirstFit {
    free: BTreeMap<u64, u64>,
}

impl FirstFit {
    fn alloc(&mut self, len: u64, align: u64) -> Option<u64> {
        let (base, blk, at) = self.free.iter().find_map(|(&base, &blk)| {
            let at = base.next_multiple_of(align);
            (at + len <= base + blk).then_some((base, blk, at))
        })?;
        self.free.remove(&base);
        if at > base {
            self.free.insert(base, at - base);
        }
        if base + blk > at + len {
            self.free.insert(at + len, base + blk - (at + len));
        }
        Some(at)
    }

    fn free(&mut self, addr: u64, len: u64) {
        let (mut base, mut blk) = (addr, len);
        if let Some((&p, &plen)) = self.free.range(..addr).next_back() {
            if p + plen == addr {
                self.free.remove(&p);
                (base, blk) = (p, blk + plen);
            }
        }
        if let Some(nlen) = self.free.remove(&(addr + len)) {
            blk += nlen;
        }
        self.free.insert(base, blk);
    }
}

/// An offset and a length, clamped to whichever buffer they land in.
type Span = (u64, u64);

/// Buffers are picked by an arbitrary number modulo the live count.
#[derive(Debug, Clone)]
enum Op {
    /// Length and log2 of the alignment.
    Alloc(u64, u32),
    Free(usize),
    Write(usize, Span, u8),
    Read(usize, Span),
    /// From one buffer to another — or the same.
    Copy(usize, usize, Span),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let alloc = || (1u64..3 * MIB, 0u32..13).prop_map(|(len, align)| Op::Alloc(len, align));
    let pick = any::<usize>;
    let span = || (0u64..3 * MIB, 1u64..MIB);
    // Two arms of allocation to one of freeing: the arena fills.
    prop_oneof![
        alloc(),
        alloc(),
        pick().prop_map(Op::Free),
        (pick(), span(), any::<u8>()).prop_map(|(buf, span, salt)| Op::Write(buf, span, salt)),
        (pick(), span()).prop_map(|(buf, span)| Op::Read(buf, span)),
        (pick(), pick(), span()).prop_map(|(from, to, span)| Op::Copy(from, to, span)),
    ]
}

/// The arena and its model: where first fit puts every buffer, and what
/// every live buffer holds.
struct Checked {
    mem: Memory,
    placement: FirstFit,
    live: BTreeMap<u64, Vec<u8>>,
}

impl Checked {
    fn buffer(&self, pick: usize) -> Option<Buffer> {
        let (&addr, bytes) = self.live.iter().nth(pick % self.live.len().max(1))?;
        Some(Buffer {
            mem: self.mem.mem_ref(),
            addr,
            len: bytes.len() as u64,
        })
    }

    /// `span` clamped to a `len`-byte buffer, as array indices.
    fn clamp(len: u64, (at, want): Span) -> (usize, usize) {
        let at = at % len;
        (at as usize, want.min(len - at) as usize)
    }

    fn alloc(&mut self, len: u64, align: u64) {
        let want = self.placement.alloc(len, align);
        let got = self.mem.alloc(len, align).ok();
        prop_assert_eq!(got.as_ref().map(|b| b.addr), want, "not first fit");
        if let Some(buf) = got {
            // Fresh or recycled, allocated space reads zero.
            let zeros = vec![0u8; len as usize];
            prop_assert!(self.mem.read_vec(&buf) == zeros, "dirty allocation");
            self.live.insert(buf.addr, zeros);
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Alloc(len, align_pow) => self.alloc(len, 1 << align_pow),
            Op::Free(pick) => {
                if let Some(buf) = self.buffer(pick) {
                    self.mem.free(&buf);
                    self.placement.free(buf.addr, buf.len);
                    self.live.remove(&buf.addr);
                }
            }
            Op::Write(pick, span, salt) => {
                if let Some(buf) = self.buffer(pick) {
                    let (at, len) = Self::clamp(buf.len, span);
                    let data: Vec<u8> = (0..len).map(|i| salt.wrapping_add(i as u8)).collect();
                    self.mem.write(&buf, at as u64, &data);
                    let model = self.live.get_mut(&buf.addr).expect("live");
                    model[at..at + len].copy_from_slice(&data);
                }
            }
            Op::Read(pick, span) => {
                if let Some(buf) = self.buffer(pick) {
                    let (at, len) = Self::clamp(buf.len, span);
                    let mut out = vec![0xEE; len];
                    self.mem.read(&buf, at as u64, &mut out);
                    let want = &self.live[&buf.addr][at..at + len];
                    prop_assert!(out == want, "read differs from the model");
                }
            }
            Op::Copy(from, to, span) => {
                if let (Some(src), Some(dst)) = (self.buffer(from), self.buffer(to)) {
                    // Within one buffer the two ranges overlap, which
                    // memmove semantics must survive.
                    let (at, len) = Self::clamp(src.len.min(dst.len), span);
                    let to = if src.addr == dst.addr { at / 2 } else { at };
                    self.mem.copy_within(&src, at as u64, &dst, to as u64, len);
                    let moved = self.live[&src.addr][at..at + len].to_vec();
                    let model = self.live.get_mut(&dst.addr).expect("live");
                    model[to..to + len].copy_from_slice(&moved);
                }
            }
        }
    }

    fn check_every_live_byte(&self) {
        for (&addr, want) in &self.live {
            let len = want.len() as u64;
            let mem = self.mem.mem_ref();
            let got = self.mem.read_vec(&Buffer { mem, addr, len });
            prop_assert!(&got == want, "buffer at {:#x} lost bytes", addr);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // (a) Random traffic, then — whatever the traffic reached — keep
    // allocating past 32 MiB, three doublings above the 4 MiB floor,
    // checking every live byte after each step.
    #[test]
    fn every_live_byte_survives_every_growth(
        ops in proptest::collection::vec(op_strategy(), 20..90),
    ) {
        let capacity = 64 * MIB;
        let mut c = Checked {
            mem: arena(capacity),
            placement: FirstFit { free: BTreeMap::from([(0, capacity)]) },
            live: BTreeMap::new(),
        };
        for op in ops {
            c.apply(op);
        }
        c.check_every_live_byte();
        let mut salt = 0u8;
        while c.mem.high_water() <= 32 * MIB {
            salt = salt.wrapping_add(41);
            c.alloc(3 * MIB - 5, PAGE_SIZE);
            let pick = c.live.len() - 1;
            c.apply(Op::Write(pick, (MIB - 3, 4096), salt));
            c.check_every_live_byte();
        }
        prop_assert!(c.mem.high_water() > 32 * MIB);
    }
}

/// (b) 64 MiB allocated in 64 KiB pieces — five doublings — with one byte
/// written into the first and the last piece costs the host two pages:
/// growth commits nothing, and a one-byte write fills no whole page, so
/// the frontier rule populates nothing either. When the arena grew by
/// allocating a fresh one and copying the old one over, the same count
/// over the `Vec` read 8,194.
#[test]
fn growth_commits_nothing() {
    let mut mem = arena(64 * MIB);
    let pieces: Vec<Buffer> = (0..1024)
        .map(|_| mem.alloc(64 << 10, PAGE_SIZE).expect("fits"))
        .collect();
    assert_eq!(mem.high_water(), 64 * MIB);
    populates(0, "two one-byte writes", || {
        mem.write(&pieces[0], 0, &[1]);
        mem.write(&pieces[1023], (64 << 10) - 1, &[2]);
    });
    assert_eq!(
        mem.resident_pages(),
        2,
        "pages resident behind two written bytes"
    );
}

/// (c) An allocation held off-page backs no page: a write into it and a
/// copy into it from its own arena land as held runs, read back exact,
/// and a discard leaves its range reading zero and the rest as it was.
#[test]
fn an_allocation_held_off_page_backs_no_page() {
    let page = page_size() as u64;
    let mut mem = arena(64 * MIB);
    let src = mem.alloc(2 * page, page).unwrap();
    let data: Vec<u8> = (0..2 * page)
        .map(|i| (i as u8).wrapping_mul(7) ^ 0x5A)
        .collect();
    mem.write(&src, 0, &data);
    let before = mem.resident_pages();
    let buf = mem.alloc(16 * page, page).unwrap();
    mem.hold_off_page(&buf);
    mem.write(&buf, 2 * page + 5, &[7, 8, 9]);
    mem.copy_within(&src, 0, &buf, 4 * page - 1, 2 * page as usize);
    // A memmove inside it, over part of the copy.
    mem.copy_within(&buf, 4 * page, &buf, 4 * page + 100, page as usize);
    let mut want = vec![0u8; 16 * page as usize];
    want[2 * page as usize + 5..][..3].copy_from_slice(&[7, 8, 9]);
    want[4 * page as usize - 1..][..2 * page as usize].copy_from_slice(&data);
    let moved = want[4 * page as usize..][..page as usize].to_vec();
    want[4 * page as usize + 100..][..page as usize].copy_from_slice(&moved);
    assert_eq!(mem.read_vec(&buf), want);
    assert_eq!(mem.resident_pages_in(&buf), 0);
    assert_eq!(mem.resident_pages(), before, "a held run wrote a page");
    mem.discard(&buf.slice(4 * page, 4 * page));
    want[4 * page as usize..][..4 * page as usize].fill(0);
    assert_eq!(mem.read_vec(&buf), want);
    // Copied out, held bytes come back exact.
    mem.copy_within(&buf, 2 * page, &src, 0, page as usize);
    assert_eq!(
        mem.read_vec(&src)[..page as usize],
        want[2 * page as usize..][..page as usize]
    );
    mem.free(&buf);
    let again = mem.alloc(16 * page, page).unwrap();
    assert_eq!(mem.read_vec(&again), vec![0; 16 * page as usize]);
}

/// (d) A backing store the kernel will not map is a panic that says how
/// much was asked for, not a silent abort.
#[test]
#[should_panic(expected = "cannot map 1125899906842624 bytes")]
fn an_arena_that_cannot_be_mapped_panics_with_its_size() {
    let mut mem = arena(1 << 60);
    let _ = mem.alloc(1 << 50, 1);
}

/// Host pages, as the kernel counts residency.
fn page() -> u64 {
    page_size() as u64
}

/// An empty arena and its model.
fn checked() -> Checked {
    let capacity = 64 * MIB;
    Checked {
        mem: arena(capacity),
        placement: FirstFit {
            free: BTreeMap::from([(0, capacity)]),
        },
        live: BTreeMap::new(),
    }
}

/// Allocate `len` page-aligned bytes, in the arena and in the model, without
/// reading them: a read of a never-written page maps the kernel's zero
/// page, which `mincore` counts as resident.
fn alloc_unread(c: &mut Checked, len: u64) {
    let at = c.placement.alloc(len, page());
    let buf = c.mem.alloc(len, page()).expect("fits");
    assert_eq!(Some(buf.addr), at, "not first fit");
    c.live.insert(buf.addr, vec![0; len as usize]);
}

/// Run `f` and assert it asked the kernel to populate pages `want` times.
/// Debug builds count the calls (`simcore::mapping::populate_count`);
/// release builds only run `f`, and the residency and byte checks stand
/// alone.
fn populates(want: u64, what: &str, f: impl FnOnce()) {
    #[cfg(debug_assertions)]
    let before = simcore::mapping::populate_count();
    f();
    #[cfg(debug_assertions)]
    assert_eq!(
        simcore::mapping::populate_count() - before,
        want,
        "populate calls: {what}"
    );
    #[cfg(not(debug_assertions))]
    let _ = (want, what);
}

/// (e) A write of many pages into fresh space backs them with one call
/// and leaves exactly the pages it wrote resident — its edge pages too,
/// which it only partly fills and which fault as before — with its bytes
/// where the model says.
#[test]
fn a_fresh_multi_page_write_backs_exactly_the_pages_it_wrote() {
    let p = page();
    let mut c = checked();
    alloc_unread(&mut c, 32 * p);
    alloc_unread(&mut c, 32 * p);
    // Half a page in, to 100 bytes past page 10: pages 0..=10 of the
    // first buffer, 9 of them whole.
    populates(1, "a write over 9 whole fresh pages", || {
        c.apply(Op::Write(0, (p / 2, 10 * p - p / 2 + 100), 3))
    });
    assert_eq!(c.mem.resident_pages(), 11);
    // A page-aligned write of the whole second buffer: 32 more.
    populates(1, "a write over 32 whole fresh pages", || {
        c.apply(Op::Write(1, (0, 32 * p), 5))
    });
    assert_eq!(c.mem.resident_pages(), 43);
    c.check_every_live_byte();
}

/// (f) A write that starts below the frontier and ends above it
/// populates only the whole fresh pages above the frontier: none when it
/// reaches less than a page past it.
#[test]
fn a_write_across_the_frontier_populates_only_whole_fresh_pages_above_it() {
    let p = page();
    let mut c = checked();
    alloc_unread(&mut c, 32 * p);
    c.apply(Op::Write(0, (0, 4 * p), 1));
    assert_eq!(c.mem.resident_pages(), 4);
    // From page 2 to half-way into page 4: the frontier's page is the
    // only fresh one, and it is not whole.
    populates(0, "no whole page above the frontier", || {
        c.apply(Op::Write(0, (2 * p, 2 * p + p / 2), 2))
    });
    assert_eq!(c.mem.resident_pages(), 5);
    // From page 3 to 10 bytes into page 8: pages 5, 6 and 7 are whole and
    // fresh; 3 and 4 lie below the frontier, and 8 is an edge.
    populates(1, "three whole pages above the frontier", || {
        c.apply(Op::Write(0, (3 * p, 5 * p + 10), 3))
    });
    assert_eq!(c.mem.resident_pages(), 9);
    c.check_every_live_byte();
}

/// (g) Below the frontier nothing is populated: not a rewrite of resident
/// pages, and not a first write into pages that a later allocation's
/// write has already put below it — those fault one by one, as before.
#[test]
fn nothing_below_the_frontier_is_populated() {
    let p = page();
    let mut c = checked();
    alloc_unread(&mut c, 16 * p);
    alloc_unread(&mut c, 16 * p);
    c.apply(Op::Write(1, (0, 16 * p), 1));
    populates(0, "a rewrite of resident pages", || {
        c.apply(Op::Write(1, (0, 16 * p), 2))
    });
    populates(0, "a first write below the frontier", || {
        c.apply(Op::Write(0, (0, 16 * p), 3))
    });
    assert_eq!(c.mem.resident_pages(), 32);
    populates(0, "a copy below the frontier", || {
        c.apply(Op::Copy(1, 0, (p / 2, 15 * p)))
    });
    c.check_every_live_byte();
}

/// (h) `copy_within` and `copy_from` into fresh pages follow the rule
/// `write` does: one call for the whole fresh pages, exactly the pages
/// touched resident, and none for the same copy again.
#[test]
fn copies_into_fresh_pages_follow_the_write_rule() {
    let p = page();
    // Inside one arena: 8 whole source pages, copied half a page in.
    let mut c = checked();
    alloc_unread(&mut c, 16 * p);
    alloc_unread(&mut c, 16 * p);
    c.apply(Op::Write(0, (0, 16 * p), 7));
    let span = (p / 2, 8 * p);
    populates(1, "copy_within into 7 whole fresh pages", || {
        c.apply(Op::Copy(0, 1, span))
    });
    assert_eq!(c.mem.resident_pages(), 16 + 9);
    populates(0, "the same copy_within again", || {
        c.apply(Op::Copy(0, 1, span))
    });

    // Between arenas: the same shape through `copy_from`.
    let mut other = checked();
    alloc_unread(&mut other, 16 * p);
    other.apply(Op::Write(0, (0, 16 * p), 9));
    let src = other.buffer(0).expect("live");
    alloc_unread(&mut c, 16 * p);
    let dst = c.buffer(2).expect("live");
    let (at, len) = (span.0 as usize, span.1 as usize);
    for want in [1, 0] {
        populates(want, "copy_from into fresh pages, then again", || {
            c.mem
                .copy_from(&dst, at as u64, &other.mem, &src, at as u64, len)
        });
        let moved = other.live[&src.addr][at..at + len].to_vec();
        c.live.get_mut(&dst.addr).expect("live")[at..at + len].copy_from_slice(&moved);
        assert_eq!(c.mem.resident_pages(), 16 + 9 + 9);
    }
    c.check_every_live_byte();
}
