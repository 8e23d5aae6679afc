//! Per-worker scheduling logic: Listing 1's `get_task` (split into a local
//! acquisition step and a one-victim steal step), the Listing 3 notification
//! rules, and the fork-join `join` primitive built on top of them.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::Ordering;
use std::time::Duration;

use lcws_metrics::{self as metrics, Event};

use crate::deque::{
    AbpSteal, AnyDeque, DequeFull, ExposurePolicy, PopBottomMode, SplitDeque, Steal,
    STEAL_BATCH_MAX,
};
use crate::fault::{self, Site};
use crate::job::{Job, StackJob, NO_WORKER};
use crate::policy::{NotifyChannel, Policies, StealAmount, VictimSelection};
use crate::pool::{PoolInner, WorkerShared};
use crate::signal::{self, HandlerCtx};
use crate::sleep::{IdleAction, IdleBackoff, WAITER_PARK_TIMEOUT};
use crate::trace;

thread_local! {
    /// The worker context of the current thread, when it participates in a
    /// pool run (workers for the pool's lifetime; the caller thread for the
    /// duration of each `run`).
    static CURRENT: Cell<*const WorkerCtx> = const { Cell::new(ptr::null()) };
}

/// Outcome of one steal iteration, separating "the victim provably held
/// work an instant ago" from "nothing to steal". The distinction drives the
/// idle backoff: contention must not escalate a thief toward parking.
pub(crate) enum StealAttempt {
    /// A task was stolen.
    Taken(*mut Job),
    /// The victim held work but this thief lost the race for it
    /// (`Steal::Abort`): stay hot, the work is being fought over right now.
    Contended,
    /// Nothing stealable was found this iteration.
    NoWork,
}

/// The current thread's worker context, or null outside pool runs.
#[inline]
pub(crate) fn current_ctx() -> *const WorkerCtx {
    CURRENT.with(|c| c.get())
}

/// Which pool `ctx` belongs to, as an address only compared (0 outside one).
#[inline]
pub(crate) fn pool_of(ctx: *const WorkerCtx) -> usize {
    if ctx.is_null() {
        return 0;
    }
    // Safety: non-null ctx pointers stay valid for this call's extent.
    unsafe { (*ctx).pool() as *const PoolInner as usize }
}

/// Deliver the completion wake to worker `index`, the thread known to wait
/// on what the caller just published (a stolen `join` arm's `done`, a
/// scope's last `pending` decrement, a spawn handle's `DONE`). Goes through
/// *pool* state only: the published object may already be freed.
///
/// Runs on whichever thread completed the work. If that thread has no
/// installed ctx (it ran the job inline outside a pool run) there is no
/// pool to route the wake through — but then no worker of one can be
/// parked on it either. A worker never needs to wake itself.
pub(crate) fn wake_worker(index: u32) {
    if index == NO_WORKER {
        return;
    }
    let ctx = current_ctx();
    if !ctx.is_null() {
        // Safety: installed ctx pointers outlive the executing job.
        let ctx = unsafe { &*ctx };
        if ctx.index != index as usize {
            ctx.pool().sleep.wake_worker(index as usize);
        }
    }
}

/// Per-thread scheduling state. Lives at a stable address (worker stack
/// frame) while installed into TLS.
pub(crate) struct WorkerCtx {
    pool: *const PoolInner,
    index: usize,
    rng: Cell<u64>,
    /// Near-first probe cursor ([`VictimSelection::NearFirst`]): how many
    /// consecutive probes the current steal drought has made. Reset on
    /// every successful steal so the ring restarts at the nearest
    /// neighbour.
    probe: Cell<u64>,
    /// The bundle's `pop_bottom` flavour, derived once here so the per-task
    /// path reads a field.
    pop_mode: PopBottomMode,
    /// What [`signal::serve_exposure`] serves from: this worker's split
    /// deque and request word. The owner's poll always uses it; the signal
    /// handler is armed with it only for signal-driven policy bundles.
    handler_ctx: HandlerCtx,
}

impl WorkerCtx {
    pub(crate) fn new(pool: &PoolInner, index: usize) -> WorkerCtx {
        let deque = match &pool.workers[index].deque {
            AnyDeque::Split(d) => d as *const _,
            AnyDeque::Abp(_) => ptr::null(),
        };
        // Distinct, never-zero RNG seed per worker (SplitMix64 of index+1).
        let mut z = (index as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        WorkerCtx {
            pool,
            index,
            rng: Cell::new(z | 1),
            probe: Cell::new(0),
            pop_mode: pool.policies.pop_bottom(),
            handler_ctx: HandlerCtx {
                deque,
                policy: pool.policies.exposure,
                wake_pending: &*pool.workers[index].wake_pending as *const _,
                request: &*pool.workers[index].expose_request as *const _,
                exposing: Cell::new(false),
            },
        }
    }

    #[inline]
    pub(crate) fn pool(&self) -> &PoolInner {
        // Safety: the pool outlives every installed ctx (workers are joined
        // before PoolInner drops; run() clears the caller's ctx on exit).
        unsafe { &*self.pool }
    }

    #[inline]
    pub(crate) fn index(&self) -> usize {
        self.index
    }

    #[inline]
    fn policies(&self) -> &Policies {
        &self.pool().policies
    }

    #[inline]
    fn shared(&self) -> &WorkerShared {
        &self.pool().workers[self.index]
    }

    /// Install this context into TLS (and arm the signal handler context
    /// for signal-based variants). The returned guard restores the previous
    /// state on drop, including during unwinding.
    pub(crate) fn install(&self) -> CtxGuard<'_> {
        CURRENT.with(|c| {
            debug_assert!(c.get().is_null(), "nested worker ctx installation");
            c.set(self as *const WorkerCtx);
        });
        // Arm the trace ring before the handler ctx: once signals can land,
        // the handler's records must already have somewhere to go.
        // Safety: the ring lives in the pool, which outlives the guard.
        #[cfg(feature = "trace")]
        unsafe {
            trace::set_ring(&self.shared().trace)
        };
        if self.policies().uses_signals() {
            // Safety: `self` outlives the guard, which disarms on drop.
            unsafe { signal::set_handler_ctx(&self.handler_ctx) };
        }
        CtxGuard { ctx: self }
    }

    /// Uniformly random victim index ≠ self (xorshift64*; never called with
    /// fewer than two workers).
    fn random_victim(&self, num_workers: usize) -> usize {
        let mut x = self.rng.get();
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.set(x);
        let z = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        victim_from_random(z, num_workers, self.index)
    }

    /// The victim for this steal iteration, per the pool's
    /// [`VictimSelection`] policy. Near-first walks the index ring outward
    /// from self; once a full ring of probes found nothing it falls back to
    /// the bias-free uniform draw (one random probe per ring thereafter)
    /// so a starved neighbourhood cannot capture the thief forever.
    fn choose_victim(&self, num_workers: usize) -> usize {
        if self.policies().victim == VictimSelection::NearFirst {
            let step = self.probe.get();
            self.probe.set(step.wrapping_add(1));
            if let Some(v) = victim_near_first(step, num_workers, self.index) {
                return v;
            }
        }
        self.random_victim(num_workers)
    }

    /// A steal succeeded: restart the near-first probe ring at the nearest
    /// neighbour (no-op for the uniform policy).
    #[inline]
    fn note_steal_success(&self) {
        if self.policies().victim == VictimSelection::NearFirst {
            self.probe.set(0);
        }
    }

    /// Try to push a job at the bottom of this worker's deque. No thief is
    /// woken for it: that is [`WorkerCtx::push_or_run_inline`]'s job, once
    /// per batch. The handler's deferred wake still drains per push — that
    /// one belongs to the signal handler, not to the pusher.
    ///
    /// A pending exposure request is served right after the push (§4 drops
    /// it here, which would lose a request that is still only a flag): a
    /// `scope` spawning for a long time without popping feeds its thieves.
    ///
    /// On [`DequeFull`] the job was **not** enqueued and the caller still
    /// owns it.
    #[inline]
    fn try_push_job(&self, job: *mut Job) -> Result<(), DequeFull> {
        let w = self.shared();
        match &w.deque {
            AnyDeque::Abp(d) => d.try_push_bottom(job)?,
            AnyDeque::Split(d) => {
                d.try_push_bottom(job)?;
                self.poll_request(w);
            }
        }
        self.drain_deferred_wake(w);
        Ok(())
    }

    /// Push `jobs` onto this worker's deque, oldest first, and wake **one**
    /// parked thief for whatever got queued: the tasks became visible
    /// together, and a wake per task would just stampede sleepers at one
    /// deque. Returns whether anything was queued.
    ///
    /// The deque grows on demand, so a push fails only when `faultpoints`
    /// forces `PushBottom`/`DequeResize` or the ring is already at
    /// `MAX_DEQUE_CAPACITY` (2^30 live tasks — runaway recursion, not a
    /// full deque). Every pusher degrades the same way: the rejected job is
    /// still exclusively ours, and "right now, on this worker" is a valid
    /// schedule for any task — overflow costs parallelism, never
    /// correctness. Counted as `OverflowInline`.
    #[inline]
    pub(crate) fn push_or_run_inline(&self, jobs: &[*mut Job]) -> bool {
        let mut queued = false;
        for &job in jobs {
            if self.try_push_job(job).is_ok() {
                queued = true;
                continue;
            }
            debug_assert!(
                cfg!(feature = "faultpoints"),
                "deque overflow without fault injection: growable rings \
                 only report DequeFull when forced (Site::PushBottom / \
                 Site::DequeResize) or at MAX_DEQUE_CAPACITY"
            );
            trace::emit(Event::OverflowInline, 1, 0);
            self.execute(job);
        }
        if queued {
            // New work is visible: give a parked thief a chance at it (or,
            // for a split deque, a chance to request its exposure).
            self.pool().sleep.wake_one();
        }
        queued
    }

    /// Perform the wake an exposure serve deferred to us (it only sets
    /// `wake_pending`: in the handler, condvar notify is not signal-safe).
    #[inline]
    fn drain_deferred_wake(&self, w: &WorkerShared) {
        if w.wake_pending.load(Ordering::Relaxed) {
            self.deferred_wake(w);
        }
    }

    #[cold]
    #[inline(never)]
    fn deferred_wake(&self, w: &WorkerShared) {
        w.wake_pending.store(false, Ordering::Relaxed);
        self.pool().sleep.wake_one();
    }

    /// Is any task observably present in any worker's deque (including
    /// private split-deque parts, whose exposure a thief must stay awake
    /// to request) or in the global injector? Used as the parking recheck.
    fn any_work_visible(&self) -> bool {
        !self.pool().injector.is_empty()
            || self.pool().workers.iter().any(|w| match &w.deque {
                AnyDeque::Abp(d) => !d.is_empty(),
                AnyDeque::Split(d) => !d.is_empty(),
            })
    }

    /// Injector fallback: after a fruitless steal round, run the oldest
    /// externally-submitted task. One task per pull and nothing re-queued:
    /// a task that blocks holds only itself, and the rest of a burst stays
    /// in the injector for the workers its submitter woke. Returns whether
    /// a task was executed.
    pub(crate) fn try_injector(&self) -> bool {
        let Some(job) = self.pool().injector.pop() else {
            return false;
        };
        trace::emit(Event::InjectorPop, 1, 0);
        self.execute(job);
        // The task published its result and cannot unwind: settle the
        // serve count here, so a task carries no pool reference.
        self.pool().task_done();
        true
    }

    /// Listing 1 lines 7–17: take a task from this worker's own deque,
    /// serving a pending exposure request on the way.
    #[inline]
    pub(crate) fn acquire_local(&self) -> Option<*mut Job> {
        let w = self.shared();
        self.drain_deferred_wake(w);
        match &w.deque {
            AnyDeque::Abp(d) => d.pop_bottom(),
            AnyDeque::Split(d) => {
                if let Some(task) = d.pop_bottom(self.pop_mode) {
                    // Every split-deque bundle serves requests at task
                    // granularity (§3); one this poll does not reach within
                    // `EXPOSE_GRACE_NS` is escalated to a signal (§4).
                    self.poll_request(w);
                    return Some(task);
                }
                // No private work is left to expose (Listing 1 line 17),
                // and a task leaving the public part lets thieves ask
                // afresh (§3/§4): a request must not outlive its work.
                let task = d.pop_public_bottom();
                clear_request(w);
                task
            }
        }
    }

    /// The owner's poll after every private pop and push: one Relaxed load,
    /// and on a pending request the serve the handler also runs
    /// ([`signal::serve_exposure`]), then the wake it deferred to us.
    #[inline]
    fn poll_request(&self, w: &WorkerShared) {
        let req = w.expose_request.load(Ordering::Relaxed);
        if req != 0 {
            self.serve_request(w, req);
        }
    }

    #[cold]
    #[inline(never)]
    fn serve_request(&self, w: &WorkerShared, req: u64) {
        fault::point(Site::TargetedPoll);
        trace::record(Event::TargetedPoll, (req & REQUEST_SIGNALLED) as u32);
        signal::serve_exposure(&self.handler_ctx);
        self.drain_deferred_wake(w);
    }

    /// One iteration of the stealing phase (Listing 1 lines 20–23 /
    /// Listing 3): pick a random victim, try to steal, and send the
    /// per-variant work-exposure notification on `PRIVATE_WORK`.
    ///
    /// `Steal::Abort` maps to [`StealAttempt::Contended`], **not** to
    /// no-work: an abort proves the victim held a stealable task an
    /// instant ago (another taker won the CAS), and folding it into the
    /// empty outcome would walk contending thieves up the idle-backoff
    /// ladder toward parking at the exact moment work is available.
    pub(crate) fn steal_once(&self) -> StealAttempt {
        let pool = self.pool();
        let p = pool.workers.len();
        if p <= 1 {
            return StealAttempt::NoWork;
        }
        let victim_idx = self.choose_victim(p);
        let victim = &pool.workers[victim_idx];
        match &victim.deque {
            AnyDeque::Abp(d) => match d.pop_top() {
                AbpSteal::Ok(task) => {
                    trace::record(Event::StealOk, victim_idx as u32);
                    self.note_steal_success();
                    StealAttempt::Taken(task)
                }
                AbpSteal::Abort => StealAttempt::Contended,
                AbpSteal::Empty => StealAttempt::NoWork,
            },
            AnyDeque::Split(d) => {
                let outcome = if self.policies().steal == StealAmount::Half {
                    self.steal_batch(d)
                } else {
                    d.pop_top()
                };
                match outcome {
                    Steal::Ok(task) => {
                        trace::record(Event::StealOk, victim_idx as u32);
                        self.note_steal_success();
                        // Stealing removed a task from the victim's public
                        // part: future thieves may request exposure again.
                        clear_request(victim);
                        StealAttempt::Taken(task)
                    }
                    Steal::PrivateWork => {
                        trace::record(Event::StealPrivate, victim_idx as u32);
                        self.notify_victim(victim_idx, victim, d);
                        StealAttempt::NoWork
                    }
                    Steal::Abort => StealAttempt::Contended,
                    Steal::Empty => StealAttempt::NoWork,
                }
            }
        }
    }

    /// [`StealAmount::Half`]: take up to `⌈public/2⌉` of the victim's
    /// public tasks with one validating age CAS, keep the oldest as this
    /// iteration's task, and requeue the surplus into our own deque — where
    /// the owner pops it synchronization-free and other thieves can
    /// immediately re-steal it. Requeued oldest-first so our deque keeps
    /// the global age order (thieves at our top see the oldest first).
    fn steal_batch(&self, d: &SplitDeque) -> Steal {
        let mut extras: Vec<*mut Job> = Vec::new();
        let outcome = d.pop_top_batch(&mut extras, STEAL_BATCH_MAX - 1);
        if !extras.is_empty() {
            trace::record(Event::StealBatch, (extras.len() + 1) as u32);
            self.push_or_run_inline(&extras);
        }
        outcome
    }

    /// The notification rule for a `PRIVATE_WORK` answer: ask before you
    /// interrupt. The first thief records the request where the victim
    /// polls it (Listing 1 line 22). Under [`NotifyChannel::Signal`] a
    /// later probe — by *any* thief, the stamp is in the shared word — that
    /// finds it unserved after [`signal::EXPOSE_GRACE_NS`] sends Listing
    /// 3's `SIGUSR1`, once. Plain load-then-store as in the paper: a lost
    /// race costs one duplicate signal or one re-asked request.
    /// (`pub(crate)`, like `signal_or_flag`, for the pool regression tests.)
    pub(crate) fn notify_victim(&self, victim_idx: usize, victim: &WorkerShared, d: &SplitDeque) {
        let policies = self.policies();
        let by_signal = policies.notify == NotifyChannel::Signal;
        // Conservative Exposure (§4.1.1): the victim would refuse to
        // expose its last task anyway, so the request would be wasted.
        let conservative = policies.exposure == ExposurePolicy::Conservative;
        if by_signal && conservative && !d.has_two_tasks() {
            return;
        }
        let req = victim.expose_request.load(Ordering::Relaxed);
        if req == 0 {
            let asked = request_word(trace::now_ns());
            victim.expose_request.store(asked, Ordering::Relaxed);
        } else if by_signal
            && req & REQUEST_SIGNALLED == 0
            && request_age_ns(req) >= signal::EXPOSE_GRACE_NS
        {
            let signalled = req | REQUEST_SIGNALLED;
            victim.expose_request.store(signalled, Ordering::Relaxed);
            self.signal_or_flag(victim_idx, victim);
        }
    }

    /// Escalate a request to `SIGUSR1`. When `pthread_kill` fails **or** the
    /// victim has no pthread handle, the request simply stays on the flag
    /// the victim polls at its next task boundary — never silently
    /// dropped, only slower.
    pub(crate) fn signal_or_flag(&self, victim_idx: usize, victim: &WorkerShared) {
        // 0 marks a slot nobody may signal (a dead helper, worker 0 outside
        // `run`). pthread_t has no null value in POSIX; passing our
        // sentinel to pthread_kill is undefined (glibc dereferences it).
        let handle = victim.pthread.load(Ordering::Acquire);
        if handle != 0 {
            // Timestamp *before* pthread_kill: the victim's HandlerEntry
            // minus this record is the true signal-delivery latency.
            trace::record(Event::SignalSend, victim_idx as u32);
            if signal::notify(handle).is_ok() {
                return;
            }
            trace::record(Event::SignalSendFailed, victim_idx as u32);
        }
        trace::emit(Event::SignalFallbackFlag, 1, victim_idx as u32);
    }

    /// Execute a job taken from a deque, with task accounting.
    #[inline]
    pub(crate) fn execute(&self, job: *mut Job) {
        metrics::bump(Event::TaskRun);
        // Safety: deque ownership transfer — exactly one taker per job.
        unsafe { Job::execute(job, self.index as u32) };
    }

    /// The scheduling loop — the only one: run tasks until `done` reports
    /// true. Local pop, else one steal attempt, else the injector (the
    /// fallback victim shared by all workers), else one rung of the idle
    /// ladder: spin → yield → park, rechecking `done() ||
    /// any_work_visible()` after announcing in the sleeper set.
    ///
    /// Every way a worker waits goes through here: the helper main loop
    /// (`done` = the generation closed), `join` awaiting a stolen arm, the
    /// `scope` drain, `JoinHandle::join` on a worker thread, and the
    /// one-worker `shutdown` drain. Blocking a worker on a condvar instead
    /// could deadlock the very pool that must run the awaited task.
    ///
    /// A `done` made true for one worker must read what it waits for with
    /// SeqCst, and the completer must publish with SeqCst and then
    /// `wake_worker` this one — see `crate::sleep` for the pairing. (The
    /// generation close wakes everyone through `wake_all`, whose epoch bump
    /// ahead of its mask scan covers any ordering.) `backstop` bounds the
    /// cost of a missed *work* wake (`Sleep::wake_one`'s gate is
    /// deliberately racy): [`crate::sleep::PARK_TIMEOUT`] for the main
    /// loop, whose only job is finding work, and the lazier
    /// [`WAITER_PARK_TIMEOUT`] for waits, where helping is optional and a
    /// 1 ms re-poll of a long wait would be pure spurious wakes.
    ///
    /// A worker's own deque is empty whenever an executed task returns (its
    /// nested joins/scopes drain everything it pushed), so returning on
    /// `done` never strands work.
    pub(crate) fn help_until(&self, done: impl Fn() -> bool, backstop: Duration) {
        let mut backoff = IdleBackoff::default();
        while !done() {
            if let Some(job) = self.acquire_local() {
                self.execute(job);
                backoff.reset();
                continue;
            }
            match self.steal_once() {
                StealAttempt::Taken(job) => {
                    self.execute(job);
                    backoff.reset();
                }
                StealAttempt::Contended => {
                    // Lost a race on a non-empty victim: work exists, so
                    // retry hot instead of escalating toward a park.
                    metrics::bump(Event::IdleIter);
                    backoff.reset();
                    std::hint::spin_loop();
                }
                StealAttempt::NoWork => {
                    if self.try_injector() {
                        backoff.reset();
                        continue;
                    }
                    metrics::bump(Event::IdleIter);
                    match backoff.next() {
                        IdleAction::Park => {
                            let recheck = || done() || self.any_work_visible();
                            if !self.pool().sleep.park(self.index, backstop, recheck) {
                                backoff.park_aborted();
                            }
                        }
                        action => IdleBackoff::relax(action),
                    }
                }
            }
        }
    }

    /// Fork-join: run `a` and `b` in parallel, `b` being made available to
    /// thieves through this worker's deque.
    pub(crate) fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let job_b = StackJob::new(b, self.index as u32);
        let ptr_b = job_b.as_job_ptr();
        if !self.push_or_run_inline(&[ptr_b]) {
            // Overflow: `b` already ran right here and nobody else ever saw
            // `job_b`; finish sequentially.
            let ra = a();
            // Safety: the inline run completed the job.
            let rb = unsafe { job_b.take_result() };
            return (ra, rb);
        }
        let ra = match panic::catch_unwind(AssertUnwindSafe(a)) {
            Ok(v) => v,
            Err(payload) => {
                // `b` may be running on a thief and referencing this frame:
                // it must complete (or be reclaimed unrun) before we unwind.
                self.await_job(ptr_b, || job_b.is_done());
                panic::resume_unwind(payload);
            }
        };
        if self.await_job(ptr_b, || job_b.is_done()) {
            metrics::bump(Event::TaskRun);
            // Safety: popped back off our own deque, so nobody else has it.
            return (ra, unsafe { job_b.run_inline() });
        }
        // Safety: stolen, and `await_job` returned only after `done`.
        let rb = unsafe { job_b.take_result() };
        (ra, rb)
    }

    /// Wait until a thief has executed the job at `ptr` (`done` reports its
    /// flag), or reclaim it unrun from our own deque. Returns whether it
    /// was reclaimed: `join` then runs it inline on the happy path and
    /// drops it unrun on the panic path.
    ///
    /// On return, either the job ran to completion or it is ours again,
    /// unrun — in both cases no other thread holds a reference to it.
    fn await_job(&self, ptr: *mut Job, done: impl Fn() -> bool) -> bool {
        // Fast path: the job is still at the bottom of our deque. Everything
        // `a` joined above it has been popped or stolen-and-completed, so
        // anything else found here is work `a` left for later — an
        // outer-scope `spawn`, or a batch steal's surplus a nested wait
        // requeued after `ptr` was stolen: run it on the way down.
        while let Some(taken) = self.acquire_local() {
            if taken == ptr {
                return true;
            }
            self.execute(taken);
        }
        // The job was stolen: help along until its executor publishes
        // `done` and wakes us.
        self.help_until(done, WAITER_PARK_TIMEOUT);
        false
    }
}

/// Low bit of a nonzero `WorkerShared::expose_request`: its `SIGUSR1` was
/// sent (or could not be). The other bits are its `CLOCK_MONOTONIC` stamp.
pub(crate) const REQUEST_SIGNALLED: u64 = 1;

/// A fresh exposure request made at `now_ns`: never 0, not yet signalled.
#[inline]
pub(crate) fn request_word(now_ns: u64) -> u64 {
    now_ns.max(1) << 1
}

/// How long ago the (nonzero) request word `req` was asked.
#[inline]
pub(crate) fn request_age_ns(req: u64) -> u64 {
    trace::now_ns().saturating_sub(req >> 1)
}

/// Drop `w`'s pending request, if any (load first: its owner polls the line).
#[inline]
fn clear_request(w: &WorkerShared) {
    if w.expose_request.load(Ordering::Relaxed) != 0 {
        w.expose_request.store(0, Ordering::Relaxed);
    }
}

/// Map a full-width random word to a victim index in
/// `[0, num_workers) \ {self_index}`, without modulo bias: the
/// widening-multiply trick (`(z * n) >> 64`) maps the uniform 64-bit word
/// to `[0, n)` with per-value probability error below 2⁻⁶⁴⁺ˡᵒᵍ²⁽ⁿ⁾,
/// whereas `z % n` overweights small residues by up to `n / 2⁶⁴` — a real
/// skew at the 2⁶⁴-period scale of xorshift64* streams. The candidate is
/// drawn from `n − 1` slots and indices ≥ `self_index` shift up by one,
/// which preserves uniformity over the remaining workers and never
/// selects self.
#[inline]
pub(crate) fn victim_from_random(z: u64, num_workers: usize, self_index: usize) -> usize {
    debug_assert!(num_workers >= 2 && self_index < num_workers);
    let n = (num_workers - 1) as u64;
    let r = ((z as u128 * n as u128) >> 64) as usize;
    if r >= self_index {
        r + 1
    } else {
        r
    }
}

/// Near-first probe order ([`VictimSelection::NearFirst`]): probe `step`
/// of a drought maps to the victim at index distance `step + 1` from self
/// (mod `num_workers`), so one ring of `num_workers − 1` probes covers
/// every other worker exactly once, nearest first. Returns `None` once the
/// ring is exhausted — the caller falls back to the uniform draw, one
/// random probe per subsequent step, keeping long droughts bias-free.
#[inline]
pub(crate) fn victim_near_first(step: u64, num_workers: usize, self_index: usize) -> Option<usize> {
    debug_assert!(num_workers >= 2 && self_index < num_workers);
    let phase = step % num_workers as u64;
    if phase < (num_workers - 1) as u64 {
        Some((self_index + phase as usize + 1) % num_workers)
    } else {
        None
    }
}

/// TLS installation guard; restores a clean slate on drop (including during
/// panics) so stray signals after a run find a disarmed handler.
pub(crate) struct CtxGuard<'a> {
    ctx: &'a WorkerCtx,
}

impl Drop for CtxGuard<'_> {
    fn drop(&mut self) {
        if self.ctx.policies().uses_signals() {
            unsafe { signal::set_handler_ctx(ptr::null()) };
        }
        // Disarm after the handler ctx, mirroring install order.
        #[cfg(feature = "trace")]
        unsafe {
            trace::set_ring(ptr::null())
        };
        CURRENT.with(|c| c.set(ptr::null()));
    }
}

#[cfg(test)]
mod tests {
    use super::{victim_from_random, victim_near_first};

    /// The xorshift64* step used by `random_victim`, extracted for
    /// distribution testing.
    fn xorshift_star(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[test]
    fn victim_never_self_and_in_range() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for num_workers in 2..=9usize {
            for self_index in 0..num_workers {
                for _ in 0..1_000 {
                    let z = xorshift_star(&mut state);
                    let v = victim_from_random(z, num_workers, self_index);
                    assert!(v < num_workers, "victim out of range");
                    assert_ne!(v, self_index, "picked self as victim");
                }
            }
        }
    }

    #[test]
    fn victim_distribution_is_near_uniform() {
        // With the old `z % (n-1)` reduction, a worker count of the form
        // where 2^64 % (n-1) != 0 skews low indices; the widening multiply
        // keeps every victim within a tight band of the expected count.
        const DRAWS: usize = 1_000_000;
        for (num_workers, self_index) in [(3usize, 0usize), (5, 2), (7, 6), (48, 17)] {
            let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (num_workers as u64) << 8;
            let mut counts = vec![0u64; num_workers];
            for _ in 0..DRAWS {
                let z = xorshift_star(&mut state);
                counts[victim_from_random(z, num_workers, self_index)] += 1;
            }
            assert_eq!(counts[self_index], 0);
            let expected = DRAWS as f64 / (num_workers - 1) as f64;
            for (i, &c) in counts.iter().enumerate() {
                if i == self_index {
                    continue;
                }
                let dev = (c as f64 - expected).abs() / expected;
                assert!(
                    dev < 0.02,
                    "victim {i} of {num_workers} (self {self_index}): count {c} deviates \
                     {:.2}% from expected {expected:.0}",
                    dev * 100.0
                );
            }
        }
    }

    #[test]
    fn near_first_ring_covers_every_victim_once_nearest_first() {
        for num_workers in 2..=8usize {
            for self_index in 0..num_workers {
                let mut order = Vec::new();
                for step in 0..(num_workers - 1) as u64 {
                    let v = victim_near_first(step, num_workers, self_index)
                        .expect("ring steps must all yield a victim");
                    assert!(v < num_workers, "victim out of range");
                    assert_ne!(v, self_index, "picked self as victim");
                    // Nearest-first: step k probes index distance k + 1.
                    assert_eq!(
                        v,
                        (self_index + step as usize + 1) % num_workers,
                        "probe order must walk outward by index distance"
                    );
                    order.push(v);
                }
                // One full ring covers every other worker exactly once.
                let mut sorted = order.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), num_workers - 1, "coverage hole in ring");
                // The exhausted ring hands over to the uniform fallback.
                assert_eq!(
                    victim_near_first((num_workers - 1) as u64, num_workers, self_index),
                    None,
                    "ring end must fall back to the uniform draw"
                );
            }
        }
    }

    #[test]
    fn near_first_degenerates_to_single_neighbour_at_two_workers() {
        // With two workers the "ring" is the one other worker, then the
        // fallback slot — from either seat.
        assert_eq!(victim_near_first(0, 2, 0), Some(1));
        assert_eq!(victim_near_first(1, 2, 0), None);
        assert_eq!(victim_near_first(0, 2, 1), Some(0));
        assert_eq!(victim_near_first(1, 2, 1), None);
        // Steps past the ring keep cycling ring-then-fallback.
        assert_eq!(victim_near_first(2, 2, 0), Some(1));
        assert_eq!(victim_near_first(3, 2, 0), None);
    }

    #[test]
    fn victim_covers_all_other_workers() {
        let mut state = 42u64;
        let num_workers = 6;
        for self_index in 0..num_workers {
            let mut seen = vec![false; num_workers];
            for _ in 0..10_000 {
                let z = xorshift_star(&mut state);
                seen[victim_from_random(z, num_workers, self_index)] = true;
            }
            for (i, &s) in seen.iter().enumerate() {
                assert_eq!(s, i != self_index, "coverage hole at worker {i}");
            }
        }
    }
}
