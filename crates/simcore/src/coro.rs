//! Stackful coroutines: with [`crate::mapping`], which makes their stacks,
//! the only code of `simcore` that touches raw memory.
//!
//! [`Coroutine::resume`] switches the calling thread onto the coroutine's
//! private stack and runs its body until the body calls [`suspend`] (the
//! frames stay put, control returns to the resumer) or ends. No kernel
//! involvement: a switch is a dozen register moves.
//!
//! **Stacks.** One [`Mapping::stack`] of 2 MiB — what `std` gives a spawned
//! thread, which is what process bodies were written against — above its
//! guard page. Pages are committed on first touch. The guard page turns an
//! overflow into `SIGSEGV` at the faulting instruction rather than silent
//! corruption of the mapping below (Rust probes every page of a large
//! frame, so none can step over it). The mapping goes
//! when the coroutine is dropped, except under a body still parked in
//! `suspend`: scoped borrows rely on a frame never vanishing without
//! unwinding, so that case leaks it. [`Coroutine::cancel`] unwinds first.
//!
//! **The switch.** To the compiler `simcore_coro_switch(save, to)` is an
//! `extern "C"` call: it clobbers caller-saved registers and any memory.
//! It pushes what the ABI makes callee-saved (x86-64 System V: `rbx`,
//! `rbp`, `r12`–`r15`, MXCSR and the x87 control word; AAPCS64:
//! `x19`–`x30`, `d8`–`d15`), stores the stack pointer through `save`,
//! adopts `to` and pops the same layout. A fresh stack is seeded with that
//! layout so that its first "return" enters `simcore_coro_trampoline`,
//! which calls [`entry`] and marks itself as the outermost frame for
//! unwinders and backtraces. No panic crosses the hand-built frame:
//! `entry` runs the body under `catch_unwind`.
//!
//! **Threads.** A parked stack may hold addresses of thread-local storage
//! (the compiler may cache them across `suspend`) and `!Send` locals, so a
//! coroutine that has run may only be resumed on the thread that ran it.
//! `Coroutine` is `!Send`; the engine, which moves never-started ones
//! between threads, carries that check (`EngineState::claim_thread`).

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;

use crate::mapping::Mapping;

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!("simcore's coroutine switch is written for Linux on x86_64 and aarch64 only");

/// Usable bytes per stack: `std`'s default for a spawned thread.
const STACK_BYTES: usize = 2 << 20;

extern "C" {
    fn simcore_coro_switch(save: *mut *mut u8, to: *mut u8);
    /// First return address of a fresh stack; never called from Rust.
    fn simcore_coro_trampoline();
}

#[cfg(target_arch = "x86_64")]
mod arch {
    std::arch::global_asm!(
        ".pushsection .text.simcore_coro,\"ax\",@progbits",
        ".p2align 4",
        ".hidden simcore_coro_switch; .global simcore_coro_switch",
        ".type simcore_coro_switch,@function",
        "simcore_coro_switch:",
        "push rbp; push rbx; push r12; push r13; push r14; push r15",
        "sub rsp, 8; stmxcsr [rsp]; fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]; fldcw [rsp + 4]; add rsp, 8",
        "pop r15; pop r14; pop r13; pop r12; pop rbx; pop rbp",
        "ret",
        ".hidden simcore_coro_trampoline; .global simcore_coro_trampoline",
        ".type simcore_coro_trampoline,@function",
        "simcore_coro_trampoline:",
        ".cfi_startproc; .cfi_undefined rip",
        "mov rdi, r12; call r13; ud2",
        ".cfi_endproc",
        ".popsection",
    );

    /// What the switch pops on a fresh stack, lowest address first: the
    /// control words (ABI defaults: exceptions masked, round to nearest),
    /// `r15`, `r14`, `r13` = entry function, `r12` = its argument, `rbx`,
    /// `rbp`, return address; then two zero words that keep the
    /// trampoline's `call` 16-byte aligned and end frame-pointer walks.
    pub fn seed(entry: usize, arg: usize, trampoline: usize) -> [usize; 10] {
        let control = 0x1f80 | (0x037f << 32);
        [control, 0, 0, entry, arg, 0, 0, trampoline, 0, 0]
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    std::arch::global_asm!(
        ".pushsection .text.simcore_coro,\"ax\",%progbits",
        ".p2align 4",
        ".hidden simcore_coro_switch; .global simcore_coro_switch",
        ".type simcore_coro_switch,%function",
        "simcore_coro_switch:",
        "sub sp, sp, #0xa0",
        "stp x19, x20, [sp, #0x00]; stp x21, x22, [sp, #0x10]; stp x23, x24, [sp, #0x20]",
        "stp x25, x26, [sp, #0x30]; stp x27, x28, [sp, #0x40]; stp x29, x30, [sp, #0x50]",
        "stp d8, d9, [sp, #0x60]; stp d10, d11, [sp, #0x70]",
        "stp d12, d13, [sp, #0x80]; stp d14, d15, [sp, #0x90]",
        "mov x9, sp; str x9, [x0]",
        "mov sp, x1",
        "ldp x19, x20, [sp, #0x00]; ldp x21, x22, [sp, #0x10]; ldp x23, x24, [sp, #0x20]",
        "ldp x25, x26, [sp, #0x30]; ldp x27, x28, [sp, #0x40]; ldp x29, x30, [sp, #0x50]",
        "ldp d8, d9, [sp, #0x60]; ldp d10, d11, [sp, #0x70]",
        "ldp d12, d13, [sp, #0x80]; ldp d14, d15, [sp, #0x90]",
        "add sp, sp, #0xa0",
        "ret",
        ".hidden simcore_coro_trampoline; .global simcore_coro_trampoline",
        ".type simcore_coro_trampoline,%function",
        "simcore_coro_trampoline:",
        ".cfi_startproc; .cfi_undefined x30",
        "mov x0, x19; blr x20; brk #1",
        ".cfi_endproc",
        ".popsection",
    );

    /// What the switch pops on a fresh stack, lowest address first: `x19` =
    /// entry's argument, `x20` = entry function, `x21`–`x28`, `x29` (zero:
    /// end of the frame-pointer chain), `x30` = return address, `d8`–`d15`;
    /// then two zero words that keep `sp` 16-byte aligned.
    pub fn seed(entry: usize, arg: usize, trampoline: usize) -> [usize; 22] {
        let mut words = [0; 22];
        (words[0], words[1], words[11]) = (arg, entry, trampoline);
        words
    }
}

type Payload = Box<dyn Any + Send>;

/// State shared between a coroutine's owner and its body; boxed, so its
/// address survives moves of the [`Coroutine`].
struct Control {
    /// The coroutine's stack pointer while it is not running.
    sp: *mut u8,
    /// The resumer's stack pointer while it runs. Per coroutine rather
    /// than per thread, so resumes nest: a body may resume coroutines.
    resumer_sp: *mut u8,
    /// Not running and resumable: never started (`body` still there) or
    /// inside [`suspend`]. False while it runs and once it has ended.
    parked: bool,
    /// Set by [`Coroutine::cancel`]: [`suspend`] unwinds instead of parking.
    cancelled: bool,
    body: Option<Box<dyn FnOnce() + Send>>,
    result: Option<Result<(), Payload>>,
}

thread_local! {
    /// The innermost coroutine running on this thread, null outside any.
    /// Written only by `resume`, around its switch, so while it is non-null
    /// the thread is executing on that coroutine's stack.
    static CURRENT: Cell<*mut Control> = const { Cell::new(ptr::null_mut()) };
}

/// Payload that unwinds a cancelled body; raised with `resume_unwind`,
/// which skips the panic hook, so teardown is silent.
struct Cancelled;

/// What [`Coroutine::resume`] came back with.
pub(crate) enum Resumed {
    /// The body called [`suspend`].
    Suspended,
    /// The body returned, or unwound with this payload.
    Finished(Result<(), Payload>),
}

/// A body closure on a stack of its own (module docs).
pub(crate) struct Coroutine {
    /// A `Box<Control>`, raw because the body reaches it through
    /// [`CURRENT`] while `resume` holds `&mut self`.
    ctl: *mut Control,
    /// `None` once `drop` has leaked it under frames still parked on it.
    stack: Option<Mapping>,
}

impl Coroutine {
    /// A coroutine that runs `body` on its first resume. `Send`, because a
    /// never-started coroutine may change threads with its owner.
    pub(crate) fn new(body: impl FnOnce() + Send + 'static) -> Coroutine {
        let mut stack = Mapping::stack(STACK_BYTES);
        let top = stack.as_mut_ptr_range().end;
        let ctl = Box::into_raw(Box::new(Control {
            sp: ptr::null_mut(),
            resumer_sp: ptr::null_mut(),
            parked: true,
            cancelled: false,
            body: Some(Box::new(body)),
            result: None,
        }));
        let seed = arch::seed(
            entry as *const () as usize,
            ctl as usize,
            simcore_coro_trampoline as *const () as usize,
        );
        // SAFETY: the top `seed.len()` words of the mapping are writable,
        // unaliased and aligned (it is page-aligned and whole pages long);
        // `ctl` was allocated two statements up.
        unsafe {
            let sp = top.cast::<usize>().sub(seed.len());
            sp.copy_from_nonoverlapping(seed.as_ptr(), seed.len());
            (*ctl).sp = sp.cast();
        }
        let stack = Some(stack);
        Coroutine { ctl, stack }
    }

    /// Run the body until it suspends or ends.
    ///
    /// # Panics
    /// If the body already ended.
    pub(crate) fn resume(&mut self) -> Resumed {
        let ctl = self.ctl;
        // SAFETY: `ctl` is the live box from `new`. `&mut self` and the
        // `parked` check mean the body is not running, so nothing else touches
        // `ctl` before the switch. `sp` is the seeded frame or the one
        // `suspend` pushed — the layout the switch pops — on a stack that
        // stays mapped while `self` lives. The body reaches `ctl` only via
        // `CURRENT`, restored before we return, so the pointer does not
        // outlive `self`.
        unsafe {
            assert!((*ctl).parked, "resumed a finished coroutine");
            (*ctl).parked = false;
            let outer = CURRENT.replace(ctl);
            simcore_coro_switch(&raw mut (*ctl).resumer_sp, (*ctl).sp);
            CURRENT.set(outer);
            match (*ctl).result.take() {
                Some(result) => Resumed::Finished(result),
                None => Resumed::Suspended,
            }
        }
    }

    /// Whether the body has started and is parked in [`suspend`].
    pub(crate) fn is_mid_body(&self) -> bool {
        // SAFETY: `ctl` is live and, given `&self`, the body is not running.
        unsafe { (*self.ctl).parked && (*self.ctl).body.is_none() }
    }

    /// Tear down: a body parked mid-way is unwound first (its locals drop,
    /// silently); one that never started is dropped without running.
    pub(crate) fn cancel(mut self) {
        if self.is_mid_body() {
            // SAFETY: as in `is_mid_body`.
            unsafe { (*self.ctl).cancelled = true };
            let resumed = self.resume();
            assert!(
                matches!(resumed, Resumed::Finished(_)),
                "a cancelled coroutine cannot park again"
            );
        }
    }
}

impl Drop for Coroutine {
    fn drop(&mut self) {
        // Frames still parked on the stack (the owner did not `cancel`) may
        // be borrowed from elsewhere: leak the mapping with them.
        if self.is_mid_body() {
            std::mem::forget(self.stack.take());
        }
        // SAFETY: boxed in `new`, freed only here; the body is not running
        // and a leaked stack is never resumed, so nothing reads it again.
        drop(unsafe { Box::from_raw(self.ctl) });
    }
}

/// First Rust frame of every coroutine; entered from the trampoline.
extern "C" fn entry(ctl: *mut Control) -> ! {
    // SAFETY: the trampoline passes the `ctl` seeded by `new`, live as
    // argued in `resume`, whose caller is blocked in the switch meanwhile.
    let body = unsafe { (*ctl).body.take() }.expect("a coroutine is entered once");
    let result = catch_unwind(AssertUnwindSafe(body));
    // SAFETY: as above; `resumer_sp` was stored by the switch of the
    // `resume` that is waiting for us. `resume` refuses a finished
    // coroutine, so this stack is never switched to again.
    unsafe {
        (*ctl).result = Some(result);
        simcore_coro_switch(&raw mut (*ctl).sp, (*ctl).resumer_sp);
    }
    unreachable!("a finished coroutine was resumed")
}

/// Park the coroutine running on this thread until its owner resumes it;
/// unwind it instead if the owner cancelled it.
///
/// # Panics
/// If no coroutine is running on this thread.
pub(crate) fn suspend() {
    let ctl = CURRENT.get();
    assert!(!ctl.is_null(), "suspend called outside a coroutine");
    // SAFETY: `CURRENT` is non-null only between the two switches of the
    // `resume` that put us on this stack, so `ctl` is that live coroutine's
    // control block, its owner is blocked in `resume`, and `resumer_sp` is
    // the frame that call pushed. When the switch returns, a later `resume`
    // of the same coroutine has run and the same holds for it.
    unsafe {
        if !(*ctl).cancelled {
            (*ctl).parked = true;
            simcore_coro_switch(&raw mut (*ctl).sp, (*ctl).resumer_sp);
        }
        if (*ctl).cancelled {
            resume_unwind(Box::new(Cancelled));
        }
    }
}
