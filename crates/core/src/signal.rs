//! POSIX-signal plumbing for the signal-based LCWS schedulers (§4).
//!
//! A thief that finds a victim's public deque part empty — but its private
//! part non-empty — asks on the flag the victim polls; if the request is
//! still unserved [`EXPOSE_GRACE_NS`] later, a thief sends the victim
//! `SIGUSR1` via `pthread_kill`. The victim's handler transfers work from
//! the private to the public part of its own split deque
//! (`update_public_bottom`), so work-exposure requests are served in
//! **constant time** — the grace plus OS signal-delivery latency — the
//! property that separates LCWS from Lace and from the user-space
//! implementation, and that the paper's asymptotic runtime bound requires.
//!
//! ## Async-signal-safety
//!
//! The handler only:
//! 1. reads a `#[thread_local]`-style `Cell` pointer (const-initialized
//!    `thread_local!`, touched by the worker prologue before any signal can
//!    target the thread, so no lazy initialization runs in the handler),
//! 2. performs Relaxed/Release atomic loads and stores on the thread's own
//!    split deque, and
//! 3. bumps plain `Cell` counters in the same thread's TLS.
//!
//! No allocation, locking, or syscalls — all of which POSIX permits in a
//! handler. The §4 owner-vs-handler interleaving is handled by the
//! `SignalSafe` `pop_bottom` / exposure-policy pairing (see
//! [`crate::deque::SplitDeque`]).

use std::cell::Cell;
use std::sync::atomic::{compiler_fence, Ordering};
use std::sync::Once;

use lcws_metrics::{self as metrics, Event};

use crate::deque::{ExposurePolicy, SplitDeque};
use crate::fault::{self, Site};
use crate::shim::{AtomicBool, AtomicU64};
use crate::trace;

/// The signal used for work-exposure requests, as in the paper's Listing 3.
pub const EXPOSE_SIGNAL: libc::c_int = libc::SIGUSR1;

/// How long an exposure request waits on the victim's polled flag before a
/// thief escalates it to `SIGUSR1` (rent-or-buy: wait as long as the
/// interrupt would cost, then pay it — at most twice the optimum). Sized
/// from what one interrupt costs its *victim*: ≈ 11 µs of owner time per
/// signal-exposed steal on the 2-vCPU host (EXPERIMENTS.md, *Where `signal`
/// lost the flood*). Delivery is slower than that — send → handler-entry
/// median ≈ 39 µs, 92 % of samples in 16–64 µs (`results/siglat_hist.csv`)
/// — so the grace adds about a quarter to the latency of a request that
/// does need its signal. `cargo run --release -p lcws-bench --features
/// trace --bin siglat` re-takes the delivery median to compare.
pub(crate) const EXPOSE_GRACE_NS: u64 = 10_000;

/// Everything [`serve_exposure`] needs: the worker's own deque and the
/// scheduler's exposure policy. Stored at a stable address for the duration
/// of a worker's participation in a pool run.
pub(crate) struct HandlerCtx {
    pub deque: *const SplitDeque,
    pub policy: ExposurePolicy,
    /// Deferred-wake flag for the sleeper subsystem. The serve must **not**
    /// wake sleepers itself — condvar notification locks a mutex the
    /// interrupted thread might hold, which is not async-signal-safe. It
    /// only stores `true` here; the owner drains the flag and performs the
    /// wake outside signal context.
    pub wake_pending: *const AtomicBool,
    /// The worker's `expose_request` word; whoever serves it clears it.
    pub request: *const AtomicU64,
    /// Owner-local mark, up while [`serve_exposure`] runs on this thread:
    /// a handler landing inside the owner's own serve returns early, or the
    /// outer `update_public_bottom` store would *lower* `public_bot`.
    pub exposing: Cell<bool>,
}

thread_local! {
    /// Pointer to the current worker's [`HandlerCtx`]; null whenever the
    /// thread is not acting as a worker (the handler then no-ops, which
    /// safely absorbs stragglers delivered right after a run finishes).
    static HANDLER_CTX: Cell<*const HandlerCtx> = const { Cell::new(std::ptr::null()) };
}

/// The one serve of an exposure request, by the owner's task-boundary poll
/// and by the `SIGUSR1` handler alike: clear the request, expose per the
/// bundle's policy, and leave the wake for what became public to the owner
/// (`wake_pending`). Returns the number of tasks exposed, or `None` when it
/// stood down because this thread is already inside a serve.
///
/// The request is cleared *before* the exposure, so a thief's fresh request
/// that lands meanwhile survives to the next poll. Async-signal-safe: the
/// mark is a plain `Cell` of this thread, so two `compiler_fence`s order it
/// against the deque accesses it guards.
#[cold]
pub(crate) fn serve_exposure(ctx: &HandlerCtx) -> Option<u32> {
    if ctx.exposing.get() {
        return None;
    }
    ctx.exposing.set(true);
    compiler_fence(Ordering::SeqCst);
    // Safety: the pointers target the owner's own pool slot, which outlives
    // its ctx, and this runs on the owner's thread, so
    // `update_public_bottom`'s owner-only contract holds.
    let (request, deque, wake_pending) =
        unsafe { (&*ctx.request, &*ctx.deque, &*ctx.wake_pending) };
    request.store(0, Ordering::Relaxed);
    metrics::bump(Event::ExposureRequest);
    let exposed = deque.update_public_bottom(ctx.policy);
    // Exposed work could feed a parked thief, but waking from a signal
    // handler is forbidden (see `HandlerCtx::wake_pending`).
    if exposed > 0 {
        wake_pending.store(true, Ordering::Release);
    }
    compiler_fence(Ordering::SeqCst);
    ctx.exposing.set(false);
    Some(exposed)
}

/// Three-argument (`SA_SIGINFO`) handler. Everything in here — including
/// the [`trace`] records, which are plain TLS ring-buffer stores plus
/// `clock_gettime(CLOCK_MONOTONIC)` — is on the POSIX async-signal-safe
/// list; see the module docs.
extern "C" fn expose_handler(
    _sig: libc::c_int,
    _info: *mut libc::siginfo_t,
    _uctx: *mut libc::c_void,
) {
    // Signal-handler context: injected actions must be spin delays only.
    fault::point(Site::HandlerEntry);
    trace::record(Event::HandlerEntry, 0);
    let ctx = HANDLER_CTX.with(|c| c.get());
    // Safety: the pointer was installed by this thread's worker prologue and
    // is cleared before the referent is dropped (guard in worker.rs).
    if let Some(exposed) = unsafe { ctx.as_ref() }.and_then(serve_exposure) {
        trace::record(Event::HandlerExpose, exposed);
    }
}

/// Install the process-wide `SIGUSR1` handler (idempotent).
///
/// `SA_RESTART` keeps interrupted slow syscalls (condvar waits between pool
/// runs, I/O in user code) transparent to their callers. `SA_SIGINFO` is
/// set because the handler uses the three-argument `sa_sigaction`
/// signature: registering a 1-arg handler through the `sa_sigaction` field
/// happens to work on Linux only because glibc unions the two fields, and
/// the flag makes the registration match the handler ABI on every POSIX
/// target.
pub(crate) fn install_handler() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| unsafe {
        let mut sa: libc::sigaction = std::mem::zeroed();
        sa.sa_sigaction = expose_handler as *const () as usize;
        sa.sa_flags = libc::SA_RESTART | libc::SA_SIGINFO;
        libc::sigemptyset(&mut sa.sa_mask);
        let rc = libc::sigaction(EXPOSE_SIGNAL, &sa, std::ptr::null_mut());
        assert_eq!(rc, 0, "sigaction(SIGUSR1) failed");
    });
}

/// Point the current thread's handler at `ctx` (null to disarm).
///
/// # Safety
/// `ctx`, when non-null, must stay valid until replaced or cleared.
pub(crate) unsafe fn set_handler_ctx(ctx: *const HandlerCtx) {
    HANDLER_CTX.with(|c| c.set(ctx));
}

/// This thread's pthread handle, for later [`notify`] calls.
pub(crate) fn current_pthread() -> libc::pthread_t {
    unsafe { libc::pthread_self() }
}

/// Send a work-exposure request to `target` (a live pool worker's pthread
/// handle, stored as `u64` in the pool's worker table). One attempt:
/// `tgkill(2)` returns EAGAIN only for real-time signals, so there is
/// nothing to retry.
///
/// Targets are pool threads that normally outlive every run, but a victim
/// racing with teardown can make `pthread_kill` fail (ESRCH/EINVAL). That
/// failure is detected in release builds too, counted, and surfaced to the
/// caller; the steal request then simply stays on the user-space flag the
/// victim polls, instead of being silently dropped.
///
/// A slot whose thread is not (or no longer) in the pool holds a zero
/// handle — a helper before it registers, `run`'s seat after its run
/// closes — and `signal_or_flag` treats zero as "unreachable, leave it on
/// the flag", so no kill can reach a thread that left the pool (a handle
/// can be recycled by the OS once its thread is gone). Helpers never
/// leave mid-run: a panic escaping one aborts the process (DESIGN.md §5e).
pub(crate) fn notify(target: u64) -> Result<(), libc::c_int> {
    // The fault-injection hook lets chaos tests force the failure outcome
    // without a racing thread exit.
    let rc = if fault::fail_at(Site::SignalSend) {
        libc::ESRCH
    } else {
        unsafe { libc::pthread_kill(target as libc::pthread_t, EXPOSE_SIGNAL) }
    };
    // `SignalSent` means *delivered*: the paper's Fig. 8 counts signals that
    // actually reached a victim, so a failed send must not inflate it (it
    // lands in `SignalSendFailed` instead).
    if rc == 0 {
        metrics::bump(Event::SignalSent);
        Ok(())
    } else {
        metrics::bump(Event::SignalSendFailed);
        Err(rc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn handler_noops_without_ctx() {
        install_handler();
        // Deliver a signal to ourselves with no ctx installed: must be a
        // no-op rather than a crash.
        unsafe {
            libc::pthread_kill(libc::pthread_self(), EXPOSE_SIGNAL);
        }
        // If we got here, the handler ran (or the signal is pending and will
        // run at return) without touching a null context.
    }

    /// The owner-side half of the no-re-entry rule (the interleavings it
    /// closes are enumerated in `tests/model.rs`): while the `exposing` mark
    /// is up, a delivered `SIGUSR1` moves nothing and keeps the request.
    #[test]
    fn handler_stands_down_while_the_owner_exposes() {
        install_handler();
        let deque = SplitDeque::new(16);
        for k in 1..=4usize {
            deque.push_bottom((k * 8) as *mut _);
        }
        let request = AtomicU64::new(2);
        let wake_pending = crate::shim::AtomicBool::new(false);
        let ctx = HandlerCtx {
            deque: &deque,
            policy: ExposurePolicy::One,
            wake_pending: &wake_pending,
            request: &request,
            exposing: Cell::new(true),
        };
        unsafe { set_handler_ctx(&ctx) };
        // A signal a thread sends itself is delivered before `pthread_kill`
        // returns, so the handler body runs right here.
        let deliver = || unsafe { libc::pthread_kill(libc::pthread_self(), EXPOSE_SIGNAL) };
        deliver();
        deliver();
        assert_eq!(deque.public_len(), 0, "the owner is mid-exposure");
        assert_eq!(
            request.load(Ordering::Relaxed),
            2,
            "still the owner's to serve"
        );
        ctx.exposing.set(false);
        deliver();
        assert_eq!(deque.public_len(), 1);
        assert_eq!(request.load(Ordering::Relaxed), 0);
        unsafe { set_handler_ctx(std::ptr::null()) };
    }

    #[test]
    fn signal_triggers_exposure_on_target_thread() {
        install_handler();
        metrics::touch();
        let deque = Arc::new(SplitDeque::new(16));
        let ready = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));

        let d2 = Arc::clone(&deque);
        let ready2 = Arc::clone(&ready);
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            metrics::touch();
            // Owner thread: private task, handler armed.
            d2.push_bottom(0x10 as *mut _);
            let request = AtomicU64::new(0);
            let wake_pending = crate::shim::AtomicBool::new(false);
            let ctx = HandlerCtx {
                deque: &*d2,
                policy: ExposurePolicy::One,
                wake_pending: &wake_pending,
                request: &request,
                exposing: Cell::new(false),
            };
            unsafe { set_handler_ctx(&ctx) };
            ready2.store(true, Ordering::Release);
            // Simulate a long sequential task: spin until told to stop.
            while !stop2.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            unsafe { set_handler_ctx(std::ptr::null()) };
        });

        while !ready.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let target = {
            // `pthread_t` isn't exposed by std; grab it via a side channel:
            // signal the whole thread by its JoinHandle's pthread id.
            use std::os::unix::thread::JoinHandleExt;
            handle.as_pthread_t()
        };
        // Thief: request exposure and wait until the boundary moves.
        let mut tries = 0;
        while deque.public_len() == 0 {
            notify(target).expect("live target must accept SIGUSR1");
            std::thread::sleep(std::time::Duration::from_millis(1));
            tries += 1;
            assert!(tries < 5000, "exposure request never handled");
        }
        assert_eq!(deque.public_len(), 1, "exactly one task exposed");
        stop.store(true, Ordering::Release);
        handle.join().unwrap();
    }
}
