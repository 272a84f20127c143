//! Stackful coroutines: with [`crate::mapping`], which makes their stacks,
//! the only code of `simcore` that touches raw memory.
//!
//! A [`Coroutine`] is a body closure on a private stack. Nothing here
//! schedules: the engine decides who runs next and names it by the stack
//! pointer [`Coroutine::unpark`] hands out. [`switch`] leaves a plain thread
//! stack for it, [`Running::park`] leaves one coroutine for another, and a
//! body that has ended says where its thread goes next: control moves
//! straight between any two contexts, a dozen register moves and no kernel.
//!
//! **Stacks.** One [`Mapping::stack`] of 2 MiB — what `std` gives a spawned
//! thread, which is what process bodies were written against — above its
//! guard page, committed on first touch. The guard page turns an overflow
//! into `SIGSEGV` at the faulting instruction rather than silent corruption
//! of the mapping below (Rust probes every page of a large frame, so none
//! can step over it). The mapping goes when the coroutine is dropped — by
//! whoever runs next, never from its own stack — except under a body still
//! parked mid-way: scoped borrows rely on a frame never vanishing without
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
//! unwinders and backtraces. No panic crosses the hand-built frame: the
//! body runs under `catch_unwind`, and everything it owned is dropped by
//! the time `entry` makes the last switch off the stack.
//!
//! **Threads.** A parked stack may hold addresses of thread-local storage
//! and `!Send` locals, so a coroutine that has run may only be switched to
//! on the thread that ran it. `Coroutine` is `!Send`; the engine, which
//! moves never-started ones between threads, carries that check
//! (`EngineState::claim_thread`).

use std::any::Any;
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
    /// [`Coroutine::cancel`]'s stack pointer while it unwinds the body.
    canceller_sp: *mut u8,
    /// Not running and resumable: never started (`body` still there) or
    /// inside [`Running::park`]. False while it runs and once it has ended.
    parked: bool,
    /// Set by [`Coroutine::cancel`]: a park unwinds instead of returning.
    cancelled: bool,
    /// Runs the body, then says whose stack the thread adopts next.
    body: Option<Box<dyn FnOnce(*const Control) -> *mut u8 + Send>>,
}

/// Payload that unwinds a cancelled body; raised with `resume_unwind`,
/// which skips the panic hook, so teardown is silent.
struct Cancelled;

/// Unwind the calling body, which [`Coroutine::cancel`] is tearing down.
pub(crate) fn unwind_cancelled() -> ! {
    resume_unwind(Box::new(Cancelled))
}

#[cfg(debug_assertions)]
thread_local! {
    static SWITCHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Context switches this thread has made: debug builds only, for tests
/// that pin the cost of a hand-off.
#[cfg(debug_assertions)]
pub fn switch_count() -> u64 {
    SWITCHES.get()
}

/// Leave the running context, keeping its stack pointer at `save`, for the
/// one whose stack pointer is `to`; returns when something switches back.
///
/// # Safety
/// `save` is writable until then. `to` is what a switch last stored for a
/// context that is still parked there (or a fresh coroutine's seed), on a
/// stack that is still mapped and belongs to this thread, and nothing else
/// switches to that context.
pub(crate) unsafe fn switch(save: *mut *mut u8, to: *mut u8) {
    #[cfg(debug_assertions)]
    SWITCHES.set(SWITCHES.get() + 1);
    // SAFETY: the caller's contract is the switch's.
    unsafe { simcore_coro_switch(save, to) }
}

/// A coroutine seen from its own stack: how its body leaves it.
#[derive(Clone, Copy)]
pub(crate) struct Running(*mut Control);

impl Running {
    /// Park this coroutine, mid-body, and put its thread on the stack `to`;
    /// returns when something switches to what [`Coroutine::unpark`] hands
    /// out, and unwinds the body instead if that was [`Coroutine::cancel`].
    ///
    /// # Safety
    /// Called on this coroutine's own stack; `to` as for [`switch`].
    pub(crate) unsafe fn park(self, to: *mut u8) {
        // SAFETY: we are running on its stack, so the owner has not dropped
        // the coroutine and its control block is live, and stays so until a
        // switch back — `cancel` holds it across its own.
        unsafe {
            (*self.0).parked = true;
            switch(&raw mut (*self.0).sp, to);
            if (*self.0).cancelled {
                unwind_cancelled();
            }
        }
    }
}

/// A body closure on a stack of its own (module docs).
pub(crate) struct Coroutine {
    /// A `Box<Control>`, raw because the body reaches it through its
    /// [`Running`] handle while the owner holds `self`.
    ctl: *mut Control,
    /// `None` once `drop` has leaked it under frames still parked on it.
    stack: Option<Mapping>,
}

impl Coroutine {
    /// A coroutine that runs `body` when first switched to and, once that
    /// has returned or unwound with the payload given, `after`. Both are
    /// `Send`: a never-started coroutine may change threads with its owner.
    ///
    /// # Safety
    /// `after` returns the stack pointer the thread adopts for good, which
    /// must be `to` as for [`switch`], and sees to it that the coroutine is
    /// dropped only after that switch.
    pub(crate) unsafe fn new(
        body: impl FnOnce() + Send + 'static,
        after: impl FnOnce(Result<(), Payload>) -> *mut u8 + Send + 'static,
    ) -> Coroutine {
        let mut stack = Mapping::stack(STACK_BYTES);
        let top = stack.as_mut_ptr_range().end;
        let run = move |ctl: *const Control| {
            let result = catch_unwind(AssertUnwindSafe(body));
            // SAFETY: `entry` passes the live control block (see there).
            if unsafe { (*ctl).cancelled } {
                unsafe { (*ctl).canceller_sp }
            } else {
                after(result)
            }
        };
        let ctl = Box::into_raw(Box::new(Control {
            sp: ptr::null_mut(),
            canceller_sp: ptr::null_mut(),
            parked: true,
            cancelled: false,
            body: Some(Box::new(run)),
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

    /// Mark the parked coroutine as running and return the stack pointer
    /// the caller switches to next. Panics if it is running or has ended.
    pub(crate) fn unpark(&self) -> *mut u8 {
        // SAFETY: `ctl` is the live box from `new`; parked, the body is not
        // running, so nothing else touches it.
        unsafe {
            assert!(
                (*self.ctl).parked,
                "switched to a running or ended coroutine"
            );
            (*self.ctl).parked = false;
            (*self.ctl).sp
        }
    }

    /// The handle its body leaves it by.
    pub(crate) fn running(&self) -> Running {
        Running(self.ctl)
    }

    /// Whether the body has started and is parked mid-way.
    pub(crate) fn is_mid_body(&self) -> bool {
        // SAFETY: `ctl` is live and, asked by its owner, the body is not running.
        unsafe { (*self.ctl).parked && (*self.ctl).body.is_none() }
    }

    /// Tear down: a body parked mid-way is unwound first (its locals drop,
    /// silently); one that never started is dropped without running.
    pub(crate) fn cancel(self) {
        if self.is_mid_body() {
            // SAFETY: `unpark`'s pointer is the frame `Running::park` pushed
            // on a stack that stays mapped while `self` lives; with
            // `cancelled` set that park unwinds the body and `entry` comes
            // back through `canceller_sp`, which nothing else uses.
            unsafe {
                (*self.ctl).cancelled = true;
                switch(&raw mut (*self.ctl).canceller_sp, self.unpark());
            }
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
        // and a leaked stack is never switched to, so nothing reads it again.
        drop(unsafe { Box::from_raw(self.ctl) });
    }
}

/// First Rust frame of every coroutine; entered from the trampoline.
extern "C" fn entry(ctl: *mut Control) -> ! {
    // SAFETY: the trampoline passes the `ctl` seeded by `new`, live while
    // its stack runs (`Running::park`). `next` is a parked context's stack
    // pointer by `new`'s contract, or `cancel`'s own; the box and all the
    // body owned are gone, so the frames abandoned here hold nothing.
    unsafe {
        let body = (*ctl).body.take().expect("a coroutine is entered once");
        let next = body(ctl);
        switch(&raw mut (*ctl).sp, next);
    }
    unreachable!("an ended coroutine was switched to")
}
