//! Anonymous private memory mappings: the workspace's one door to the
//! kernel's memory system calls.
//!
//! A [`Mapping`] is a run of zero-initialised bytes the kernel backs with
//! real pages only where they have been written — what a simulated
//! machine's memory and a simulated process's stack both want: most of
//! either is never touched, and an untouched page costs nothing.
//!
//! * [`Mapping::grow`] lengthens one in place with
//!   `mremap(MREMAP_MAYMOVE)`: the kernel moves page-table entries, never
//!   bytes, so pages that were never touched stay untouched and the new
//!   tail is demand-zero. The bytes may change address; nothing outside
//!   holds one across a `grow`, which takes `&mut self`.
//! * [`Mapping::commit`] is the opposite on purpose: it has the kernel back
//!   a range now (`madvise(MADV_POPULATE_WRITE)`; one written byte per page
//!   where the kernel predates that). An arena calls it ahead of a write
//!   into pages never written before: one call backs them all, where the
//!   write would trap one fault a page.
//! * [`Mapping::resident_pages`] asks the kernel (`mincore`) how many pages
//!   of a range are backed, so tests can hold the two above to their word,
//!   and [`peak_resident_bytes`] how much the whole process ever held.
//!
//! Through `Deref` a mapping is a `[u8]`; every raw pointer stays in this
//! file.

use std::ffi::c_void;
use std::ops::{Deref, DerefMut, Range};
use std::ptr::{self, NonNull};

// <sys/mman.h> and <unistd.h> on Linux, the same on x86_64 and aarch64.
const PROT_NONE: i32 = 0;
const PROT_READ_WRITE: i32 = 1 | 2;
const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;
const MAP_STACK: i32 = 0x2_0000;
const MREMAP_MAYMOVE: i32 = 1;
const MADV_POPULATE_WRITE: i32 = 23;
const SC_PAGESIZE: i32 = 30;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mremap(addr: *mut c_void, old_len: usize, new_len: usize, flags: i32, ...) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> i32;
    fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    fn sysconf(name: i32) -> i64;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs, the
/// first of them `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    longs: [i64; 14],
}

/// The most memory this process has ever had resident, in bytes:
/// `getrusage(RUSAGE_SELF)`'s `ru_maxrss`.
pub fn peak_resident_bytes() -> u64 {
    let mut usage = Rusage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a writable `struct rusage`; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage: {}", std::io::Error::last_os_error());
    u64::try_from(usage.longs[0]).expect("a size") << 10
}

/// The memory this process has resident now, in bytes: the second field
/// of `/proc/self/statm`, in pages. 0 where that file cannot be read.
pub fn resident_bytes() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages = statm.split_whitespace().nth(1).and_then(|p| p.parse().ok());
    pages.unwrap_or(0u64) * page_size() as u64
}

/// Bytes per page of the machine this runs on.
pub fn page_size() -> usize {
    // SAFETY: `sysconf` takes no pointers.
    usize::try_from(unsafe { sysconf(SC_PAGESIZE) }).expect("page size is known")
}

/// `mmap`'s and `mremap`'s failure value.
fn failed(p: *mut c_void) -> bool {
    p as isize == -1
}

#[cfg(debug_assertions)]
thread_local! {
    static POPULATES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Calls of [`Mapping::commit`] on this thread that backed a non-empty
/// range: debug builds only, like `coro::switch_count`, for tests that pin
/// when the arena asks the kernel for pages.
#[cfg(debug_assertions)]
pub fn populate_count() -> u64 {
    POPULATES.get()
}

/// An anonymous private mapping, unmapped on drop (module docs).
pub struct Mapping {
    /// First usable byte; the guard page of a stack lies just below.
    /// Dangling while `len` is zero: nothing is mapped then.
    base: NonNull<u8>,
    /// Usable bytes, a whole number of pages.
    len: usize,
    /// Inaccessible bytes below `base` that belong to the mapping.
    guard: usize,
}

// SAFETY: a `Mapping` owns its pages outright, like a `Vec<u8>` its heap
// block; nothing in it is tied to the thread that made it.
unsafe impl Send for Mapping {}

impl Mapping {
    /// A mapping of no bytes; [`Mapping::grow`] gives it some.
    pub const fn new() -> Mapping {
        Mapping {
            base: NonNull::dangling(),
            len: 0,
            guard: 0,
        }
    }

    /// `len` bytes (rounded up to whole pages) above one inaccessible guard
    /// page, which turns running off the low end — a stack overflow — into
    /// `SIGSEGV` at the faulting instruction.
    ///
    /// # Panics
    /// If the kernel refuses, with the size in the message.
    pub fn stack(len: usize) -> Mapping {
        let page = page_size();
        let len = len.next_multiple_of(page);
        // SAFETY: a fresh private anonymous mapping placed by the kernel
        // aliases nothing; its first page, unused so far, becomes the guard.
        let base = unsafe {
            let flags = MAP_PRIVATE_ANONYMOUS | MAP_STACK;
            let all = mmap(ptr::null_mut(), len + page, PROT_READ_WRITE, flags, -1, 0);
            assert!(
                !failed(all) && mprotect(all, page, PROT_NONE) == 0,
                "cannot map a {len}-byte stack: {}",
                std::io::Error::last_os_error()
            );
            all.cast::<u8>().add(page)
        };
        Mapping {
            base: NonNull::new(base).expect("mmap returns no null mapping"),
            len,
            guard: page,
        }
    }

    /// Lengthen to at least `len` bytes (rounded up to whole pages), in
    /// place: every byte keeps its value and its offset, the new tail reads
    /// zero, and no page is touched — not copied, not zeroed — by the
    /// growth itself. A `len` no longer than the mapping changes nothing.
    ///
    /// # Panics
    /// If the kernel refuses, with the size in the message; and on a
    /// [`Mapping::stack`], whose frames hold their own addresses.
    pub fn grow(&mut self, len: usize) {
        assert_eq!(self.guard, 0, "a stack mapping cannot move");
        let len = len.next_multiple_of(page_size());
        if len <= self.len {
            return;
        }
        // SAFETY: `base`/`self.len` is exactly the mapping made here
        // earlier (or nothing, and the kernel places a fresh one), and
        // `&mut self` says no borrow of its bytes is alive to dangle when
        // the kernel moves it.
        let base = unsafe {
            if self.len == 0 {
                let flags = MAP_PRIVATE_ANONYMOUS;
                mmap(ptr::null_mut(), len, PROT_READ_WRITE, flags, -1, 0)
            } else {
                mremap(self.base.as_ptr().cast(), self.len, len, MREMAP_MAYMOVE)
            }
        };
        assert!(
            !failed(base),
            "cannot map {len} bytes of simulated memory: {}",
            std::io::Error::last_os_error()
        );
        self.base = NonNull::new(base.cast()).expect("mmap returns no null mapping");
        self.len = len;
    }

    /// Back every page that `range` touches with real memory, contents
    /// unchanged.
    ///
    /// # Panics
    /// If `range` reaches beyond the mapping.
    pub fn commit(&mut self, range: Range<usize>) {
        assert!(range.start <= range.end && range.end <= self.len);
        if range.is_empty() {
            return;
        }
        #[cfg(debug_assertions)]
        POPULATES.set(POPULATES.get() + 1);
        let first = range.start - range.start % page_size();
        // SAFETY: `[first, range.end)` starts on a page boundary inside
        // the mapping; populating changes no byte of it.
        let populated = unsafe {
            let start = self.base.as_ptr().add(first);
            madvise(start.cast(), range.end - first, MADV_POPULATE_WRITE) == 0
        };
        if !populated {
            // Linux before 5.14 has no such advice: fault the pages in.
            self.touch(first..range.end);
        }
    }

    /// Write one byte of every page from `range.start`, a page boundary,
    /// to `range.end`, each with the value it already has: two faults a
    /// page (the read maps the shared zero page, the write replaces it)
    /// where `MADV_POPULATE_WRITE` takes none.
    fn touch(&mut self, range: Range<usize>) {
        for at in range.step_by(page_size()) {
            // SAFETY: `at < range.end <= len`, inside the mapping, which
            // `&mut self` gives us alone. Volatile, or the compiler would
            // drop a store of the value just loaded.
            unsafe {
                let byte = self.base.as_ptr().add(at);
                byte.write_volatile(byte.read_volatile());
            }
        }
    }

    /// How many pages that `range` touches are backed by real memory now.
    ///
    /// # Panics
    /// If `range` reaches beyond the mapping.
    pub fn resident_pages(&self, range: Range<usize>) -> usize {
        assert!(range.start <= range.end && range.end <= self.len);
        if range.is_empty() {
            return 0;
        }
        let page = page_size();
        let first = range.start - range.start % page;
        let mut vec = vec![0u8; (range.end - first).div_ceil(page)];
        // SAFETY: `first` is page-aligned, `[first, range.end)` lies inside
        // the mapping and `vec` has one byte for each page of it.
        let rc = unsafe {
            let start = self.base.as_ptr().add(first);
            mincore(start.cast(), range.end - first, vec.as_mut_ptr())
        };
        assert_eq!(rc, 0, "mincore: {}", std::io::Error::last_os_error());
        vec.iter().filter(|&&b| b & 1 == 1).count()
    }
}

impl Default for Mapping {
    fn default() -> Mapping {
        Mapping::new()
    }
}

impl Deref for Mapping {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // SAFETY: `len` readable, zero-initialised bytes at `base` (none,
        // at a dangling but aligned pointer, while nothing is mapped) that
        // only `&mut self` methods change.
        unsafe { std::slice::from_raw_parts(self.base.as_ptr(), self.len) }
    }
}

impl DerefMut for Mapping {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `deref`, and `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.base.as_ptr(), self.len) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: exactly the mapping made in `stack` or `grow`, guard
            // included; no borrow of it outlives `self`.
            unsafe {
                let all = self.base.as_ptr().sub(self.guard);
                munmap(all.cast(), self.len + self.guard);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_in_place_keeping_bytes_and_touching_nothing() {
        let page = page_size();
        let mut m = Mapping::new();
        assert!(m.is_empty());
        m.grow(64 * page);
        assert_eq!(m.len(), 64 * page);
        m[3 * page + 7] = 0xAB;
        m[63 * page] = 0xCD;
        for len in [4096 * page, 64 * page, 16384 * page] {
            m.grow(len);
        }
        assert_eq!(m.len(), 16384 * page);
        // The two written pages are all the memory 64 MiB of mapping costs.
        assert_eq!(m.resident_pages(0..m.len()), 2);
        assert_eq!((m[3 * page + 7], m[63 * page]), (0xAB, 0xCD));
        let fresh = [64 * page, 4097 * page + 3, m.len() - 1];
        assert!(fresh.iter().all(|&at| m[at] == 0), "the new tail is zero");
    }

    #[test]
    fn commit_backs_the_pages_of_its_range_and_changes_no_byte() {
        let page = page_size();
        let mut m = Mapping::new();
        m.grow(16 * page);
        m[5 * page - 1] = 9;
        let before = m.resident_pages(0..m.len());
        assert_eq!(before, 1);
        // One byte either side of a page boundary: two pages.
        m.commit(5 * page - 1..5 * page + 1);
        m.commit(9 * page..9 * page); // empty: nothing
        assert_eq!(m.resident_pages(0..m.len()), 2);
        assert_eq!(m.resident_pages(5 * page..6 * page), 1);
        // What `commit` falls back on where the kernel cannot populate.
        m.touch(12 * page..13 * page + 1);
        assert_eq!(m.resident_pages(0..m.len()), 4);
        assert_eq!(m.resident_pages(12 * page..14 * page), 2);
        assert_eq!(m[5 * page - 1], 9);
        assert!(m[5 * page..].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "cannot map 1125899906842624 bytes")]
    fn a_refused_mapping_panics_with_its_size() {
        Mapping::new().grow(1 << 50);
    }

    #[test]
    fn a_stack_is_writable_to_its_last_byte_and_cannot_grow() {
        let mut s = Mapping::stack(3 * page_size() + 1);
        assert_eq!(s.len(), 4 * page_size());
        (s[0], s[4 * page_size() - 1]) = (1, 2);
        let grown = std::panic::catch_unwind(move || s.grow(1 << 20));
        assert!(grown.is_err());
    }
}
