//! The global injector: lock-light MPMC ingress for external task
//! submission ([`crate::ThreadPool::spawn`]), plus the joinable handle
//! machinery ([`JoinHandle`]).
//!
//! ## Why not a third deque protocol
//!
//! The paper's deques are strictly owner + thieves; external producers have
//! neither a deque nor a worker index, so submissions need a queue **any**
//! thread can push into. The injector keeps the synchronization-light
//! spirit by splitting producer and consumer sides:
//!
//! * **Producer side** (`incoming`): a Treiber stack of intrusively-linked
//!   jobs ([`crate::job::Job::next_ptr`]). No allocation beyond the job
//!   itself: [`Injector::push_batch`] links a whole chain locally and
//!   publishes it with a *single* CAS regardless of batch size.
//! * **Consumer side** (`head`): an intrusive FIFO under a lock that only
//!   workers take, and only when the racy gate says work exists (`incoming`
//!   or `head` non-null; no counter). A worker that wins the lock and
//!   finds the FIFO empty grabs the **entire** incoming stack with one
//!   `swap` and reverses it in place — one walk, one link swap per node —
//!   restoring global FIFO submission order. Each pull unlinks **one**
//!   task and runs it; nothing is re-queued into the puller's deque, so a
//!   task that blocks holds only itself — under USLCWS a re-queued task
//!   would sit private until the blocked owner reached a task boundary.
//!
//! The steal loop consults the injector only after a failed steal round
//! (`crate::worker::WorkerCtx::help_until`), so pools running pure
//! fork-join never touch it. §4's signal-window argument is untouched:
//! injector pops happen at task boundaries on the worker's own schedule,
//! never from handler context, and submissions reach deques exclusively via
//! `try_push_job` — the owner-only path the argument already covers.
//!
//! ## Handle lifecycle
//!
//! `spawn` allocates one [`SpawnJob`] per task — job header, [`TaskState`]
//! and closure, shared by the queued job and the [`JoinHandle`]. The job
//! (1) runs the closure under `catch_unwind`, (2) publishes the result and
//! wakes a blocked or helping joiner, then (3) drops its reference; its
//! executor then settles the outstanding count. The state machine is
//! `PENDING → (WAITING) → DONE`: `WAITING` is entered only by a blocking
//! external joiner (worker-thread joiners help run tasks instead of
//! blocking — a blocked worker could deadlock the very pool that must run
//! the task), and the completer takes the state's mutex before notifying
//! iff it observed `WAITING`, the classic no-lost-wakeup handshake.
//! Dropping a handle without joining is fine: an unjoined task's panic
//! payload is simply dropped with the block (only `join` rethrows).

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::fault::{self, Site};
use crate::hb;
use crate::job::{Job, NO_WORKER};
use crate::shim::{AtomicPtr, AtomicU32, AtomicU8};

/// The pool-global ingress queue. See the module docs for the protocol.
pub(crate) struct Injector {
    /// Treiber stack of freshly-pushed jobs (LIFO; reversed on refill).
    incoming: AtomicPtr<Job>,
    /// Consumer-side FIFO, oldest first, linked through the jobs' `next`.
    /// Written only under `consumer`; `is_empty` reads it as a hint.
    head: AtomicPtr<Job>,
    /// Serializes the workers' refills and unlinks; producers never take it.
    consumer: Mutex<()>,
}

// Job pointers cross threads with queue ownership-transfer discipline,
// exactly like deque slots.
unsafe impl Send for Injector {}
unsafe impl Sync for Injector {}

impl Injector {
    pub(crate) fn new() -> Injector {
        Injector {
            incoming: AtomicPtr::new(ptr::null_mut()),
            head: AtomicPtr::new(ptr::null_mut()),
            consumer: Mutex::new(()),
        }
    }

    /// Racy emptiness gate for the parking recheck and the steal-loop
    /// fallback. It misses a chain mid-reversal (off `incoming`, not yet in
    /// `head`); the timed-park backstop covers that, as for the deques.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.incoming.load(Ordering::Relaxed).is_null()
            && self.head.load(Ordering::Relaxed).is_null()
    }

    /// Push `jobs` as one chain with a single CAS on the uncontended path,
    /// whatever the batch size (a lone `spawn` is a slice of one). The
    /// slice order is submission order (restored on the consumer side by
    /// the reversal). On a `faultpoints`-forced [`Site::InjectorPush`] fire
    /// nothing is enqueued and ownership of the whole batch stays with the
    /// caller, which degrades to running it inline — submissions are never
    /// lost.
    pub(crate) fn push_batch(&self, jobs: &[*mut Job]) -> Result<(), ()> {
        let (&tail, rest) = match jobs.split_first() {
            Some(s) => s,
            None => return Ok(()),
        };
        if fault::fail_at(Site::InjectorPush) {
            return Err(());
        }
        // Link locally: stack order is reversed submission order, so chain
        // the slice back-to-front and publish the *last* element as head.
        let mut head = tail;
        for &job in rest {
            // Safety: the caller owns every job until the CAS publishes.
            unsafe { (*job).next_ptr().store(head, Ordering::Relaxed) };
            head = job;
        }
        let mut cur = self.incoming.load(Ordering::Relaxed);
        loop {
            // Safety: `tail` is caller-owned until the CAS below succeeds.
            unsafe { (*tail).next_ptr().store(cur, Ordering::Relaxed) };
            // Release publishes the chain links and the jobs' closures.
            match self.incoming.compare_exchange_weak(
                cur,
                head,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Worker-side pop: the oldest queued job. `None` when the gate reads
    /// empty, the consumer lock is contended (another worker is popping or
    /// refilling; this one retries on its next idle iteration), or a
    /// `faultpoints`-forced [`Site::InjectorPop`] fire empties the round.
    pub(crate) fn pop(&self) -> Option<*mut Job> {
        if self.is_empty() || fault::fail_at(Site::InjectorPop) {
            return None;
        }
        let _consumer = self.consumer.try_lock()?;
        // The consumer lock is a data-carrying edge the checker cannot see
        // on its own (parking_lot is not shimmed): worker A links the FIFO
        // under it, worker B pops those jobs later. Model it as an
        // acquire/release pair on the mutex address.
        let lock = &self.consumer as *const _ as usize;
        hb::lock_acquired(lock);
        let mut job = self.head.load(Ordering::Relaxed);
        if job.is_null() {
            // Take the whole stack in one swap (Acquire pairs with the
            // push's Release) and reverse it in place into FIFO order.
            let mut node = self.incoming.swap(ptr::null_mut(), Ordering::Acquire);
            while !node.is_null() {
                // Safety: the swap transferred ownership of the chain.
                let next = unsafe { (*node).next_ptr().swap(job, Ordering::Relaxed) };
                job = node;
                node = next;
            }
        }
        if !job.is_null() {
            // Safety: the FIFO is ours under the lock.
            let next = unsafe { (*job).next_ptr().swap(ptr::null_mut(), Ordering::Relaxed) };
            self.head.store(next, Ordering::Relaxed);
        }
        hb::lock_releasing(lock);
        (!job.is_null()).then_some(job)
    }
}

impl Drop for Injector {
    fn drop(&mut self) {
        // `shutdown` drains `outstanding` to zero before the pool drops, so
        // a non-empty injector here means the drain protocol was bypassed
        // (e.g. a panicking teardown). Executing foreign closures inside a
        // destructor is worse than leaking them; leak loudly instead.
        debug_assert!(self.is_empty(), "injector dropped with tasks queued");
    }
}

/// Result of a completed spawned task: the value, or the panic payload.
type TaskResult<T> = Result<T, Box<dyn Any + Send + 'static>>;

const PENDING: u8 = 0;
const WAITING: u8 = 1;
const DONE: u8 = 2;

/// Completion state behind a [`JoinHandle`], inside its task's block.
struct TaskState<T> {
    /// `PENDING → (WAITING) → DONE`; see the module docs.
    status: AtomicU8,
    sync: Mutex<()>,
    cv: Condvar,
    /// Index of a **pool-worker** joiner, or [`NO_WORKER`]. The condvar
    /// handshake above only serves *external* joiners; a worker-side `join`
    /// helps run tasks and parks in the pool's sleeper when nothing is
    /// runnable, so completion must route a targeted `wake_worker` there.
    /// Unlike a `join` arm or a scope, the joiner is not known when the
    /// task is spawned, so it writes itself here once before it starts
    /// helping; `complete` reads the slot *after* publishing `DONE`.
    waiter: AtomicU32,
    /// Written once by the completer (before the `DONE` swap releases it),
    /// taken once by the joiner (after acquiring `DONE`).
    result: UnsafeCell<Option<TaskResult<T>>>,
}

impl<T> TaskState<T> {
    fn new() -> TaskState<T> {
        TaskState {
            status: AtomicU8::new(PENDING),
            sync: Mutex::new(()),
            cv: Condvar::new(),
            waiter: AtomicU32::new(NO_WORKER),
            result: UnsafeCell::new(None),
        }
    }

    /// Completer side: publish the result and wake a blocked joiner.
    fn complete(&self, result: TaskResult<T>) {
        // Safety: exactly one completer (the task runs once), and no reader
        // touches the slot until `DONE` is visible.
        hb::on_write(self.result.get() as usize, "TaskState::result (complete)");
        unsafe { *self.result.get() = Some(result) };
        let prev = self.status.swap(DONE, Ordering::SeqCst);
        if prev == WAITING {
            // Taking the lock orders us after the joiner's last status
            // check inside its wait loop: the notify cannot land in the
            // window between that check and the condvar enqueue.
            let _g = self.sync.lock();
            self.cv.notify_all();
        }
        // Publish (SeqCst) → read the waiter (SeqCst) → wake, against the
        // worker-side joiner's register (SeqCst) → announce → SeqCst
        // recheck: a registration this load misses is later in the SeqCst
        // order than `DONE`, so the joiner's recheck sees it. The slot is
        // read after the publication because the `Arc` this runs on keeps
        // it alive — nothing here can be freed under us.
        crate::worker::wake_worker(self.waiter.load(Ordering::SeqCst));
    }

    /// SeqCst: also the worker-side joiner's recheck after it announced
    /// itself in the sleeper set (see `complete`).
    #[inline]
    fn is_done(&self) -> bool {
        self.status.load(Ordering::SeqCst) == DONE
    }

    /// Block the calling (non-worker) thread until completion.
    fn block_until_done(&self) {
        if self.is_done() {
            return;
        }
        // Announce the waiter; a failed CAS means DONE beat us to it.
        if self
            .status
            .compare_exchange(PENDING, WAITING, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        let mut g = self.sync.lock();
        while self.status.load(Ordering::Acquire) != DONE {
            self.cv.wait(&mut g);
        }
    }

    /// Take the result after `is_done`.
    ///
    /// # Safety
    /// At most once, only after `is_done()` returned true.
    unsafe fn take_result(&self) -> TaskResult<T> {
        hb::on_read(
            self.result.get() as usize,
            "TaskState::result (take_result)",
        );
        (*self.result.get())
            .take()
            .expect("task result taken twice")
    }
}

/// One spawned task in one allocation: the job header the injector links,
/// the completion state the [`JoinHandle`] reads, and the closure. The
/// queued job and the handle each own one `Arc` reference; the job gives
/// its reference up once it has run.
#[repr(C)]
pub(crate) struct SpawnJob<F, T> {
    job: Job,
    state: TaskState<T>,
    /// Taken once, by the executor.
    func: UnsafeCell<Option<F>>,
}

// Safety: the header and the state's words are atomics or locks; `func`
// reaches its one executor through the injector (Release CAS, Acquire
// swap), and `result` reaches the joiner through `status`.
unsafe impl<F: Send, T: Send> Sync for SpawnJob<F, T> {}

impl<F, T> SpawnJob<F, T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    /// Allocate the block for `f` on `pool`: the job and its handle.
    pub(crate) fn allocate(f: F, pool: usize) -> (*mut Job, JoinHandle<T>) {
        let block = Arc::new(SpawnJob {
            job: Job::new(Self::run_erased),
            state: TaskState::new(),
            func: UnsafeCell::new(Some(f)),
        });
        hb::on_write(block.func.get() as usize, "SpawnJob::func (allocate)");
        let job = Arc::into_raw(Arc::clone(&block)) as *mut Job;
        (job, JoinHandle { block, pool })
    }

    /// # Safety
    /// `ptr` is a job `allocate` returned, executed exactly once.
    unsafe fn run_erased(ptr: *const Job, _executor: u32) {
        // Reclaim the queue's reference: exactly one executor gets here.
        let this = Arc::from_raw(ptr as *const SpawnJob<F, T>);
        hb::on_read(this.func.get() as usize, "SpawnJob::func (run_erased)");
        let func = (*this.func.get())
            .take()
            .expect("spawned task executed twice");
        this.state
            .complete(panic::catch_unwind(AssertUnwindSafe(func)));
        // Frees the block if the handle is gone: an unjoined result's
        // destructor must not unwind into the executor's `task_done`.
        let _ = panic::catch_unwind(AssertUnwindSafe(move || drop(this)));
    }
}

impl<F, T> Drop for SpawnJob<F, T> {
    fn drop(&mut self) {
        // The address will be recycled: forget the whole block's history
        // (link, state words, result and closure cells).
        hb::forget_range(self as *const _ as usize, std::mem::size_of::<Self>());
    }
}

/// What a [`JoinHandle`] sees of its task's block, whatever the closure.
trait Spawned<T>: Send + Sync {
    fn state(&self) -> &TaskState<T>;
}

impl<F: Send, T: Send> Spawned<T> for SpawnJob<F, T> {
    fn state(&self) -> &TaskState<T> {
        &self.state
    }
}

/// An owned handle to a task submitted with [`crate::ThreadPool::spawn`].
///
/// Dropping the handle detaches the task (it still runs to completion
/// before [`crate::ThreadPool::shutdown`] returns); [`JoinHandle::join`]
/// blocks until completion and returns the closure's value, rethrowing its
/// panic. Joining **from a worker thread** (e.g. inside another task) helps
/// execute queued work instead of blocking, so a task may join a sibling
/// without deadlocking the pool (a worker of another pool just blocks).
pub struct JoinHandle<T> {
    block: Arc<dyn Spawned<T>>,
    /// Address of the pool the task was spawned on (whose workers it wakes).
    pool: usize,
}

impl<T: Send> JoinHandle<T> {
    /// Has the task finished (successfully or by panicking)?
    pub fn is_finished(&self) -> bool {
        self.block.state().is_done()
    }

    /// Wait for the task and return its result, rethrowing the task's
    /// panic on this thread.
    pub fn join(self) -> T {
        let state = self.block.state();
        let ctx = crate::worker::current_ctx();
        if ctx.is_null() || crate::worker::pool_of(ctx) != self.pool {
            state.block_until_done();
        } else {
            // Worker thread: the condvar wake is useless here (we must keep
            // scheduling to make progress), so name ourselves as the worker
            // to wake and run local/stolen/injector work until the state
            // flips. `join` consumes the only handle: one joiner, ever.
            // Safety: installed ctx pointers outlive the call on this
            // thread (CtxGuard discipline).
            let ctx = unsafe { &*ctx };
            state.waiter.store(ctx.index() as u32, Ordering::SeqCst);
            ctx.help_until(|| state.is_done(), crate::sleep::WAITER_PARK_TIMEOUT);
        }
        // Safety: DONE observed; sole consumer (join takes self).
        match unsafe { state.take_result() } {
            Ok(v) => v,
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle")
            .field("finished", &self.block.state().is_done())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The opaque-cookie trick from the deque tests cannot exercise the
    // intrusive link (push dereferences `next_ptr`), so these tests use
    // real no-op spawn jobs, handles dropped, throughout.
    fn real_job() -> *mut Job {
        SpawnJob::allocate(|| {}, 0).0
    }

    #[test]
    fn fifo_order_across_push_and_batch() {
        let inj = Injector::new();
        let a = real_job();
        let b = real_job();
        let c = real_job();
        let d = real_job();
        let e = real_job();
        inj.push_batch(&[a]).unwrap();
        inj.push_batch(&[b, c]).unwrap();
        inj.push_batch(&[d]).unwrap();
        assert_eq!(inj.pop(), Some(a));
        assert!(!inj.is_empty(), "the refilled FIFO still holds b, c, d");
        inj.push_batch(&[e]).unwrap();
        let mut got = vec![a];
        got.extend(std::iter::from_fn(|| inj.pop()));
        assert_eq!(got, vec![a, b, c, d, e], "submission order must survive");
        assert!(inj.is_empty());
        for j in got {
            // Execute to free the jobs.
            unsafe { Job::execute(j, NO_WORKER) };
        }
    }

    #[test]
    fn pop_takes_one_and_leaves_the_rest_queued() {
        let inj = Injector::new();
        let jobs: Vec<_> = (0..7).map(|_| real_job()).collect();
        inj.push_batch(&jobs).unwrap();
        assert_eq!(inj.pop(), Some(jobs[0]));
        assert!(!inj.is_empty(), "one pop leaves the other six queued");
        let rest: Vec<_> = std::iter::from_fn(|| inj.pop()).collect();
        assert_eq!(rest, jobs[1..]);
        assert!(inj.is_empty());
        for j in jobs {
            unsafe { Job::execute(j, NO_WORKER) };
        }
    }

    #[test]
    fn empty_pop_is_cheap_and_empty_batch_push_ok() {
        let inj = Injector::new();
        assert!(inj.pop().is_none());
        inj.push_batch(&[]).unwrap();
        assert!(inj.is_empty());
    }

    #[test]
    fn concurrent_producers_no_loss_no_duplication() {
        use std::collections::HashSet;

        const PRODUCERS: usize = 8;
        const PER: usize = 500;
        let inj = Injector::new();
        let taken = Mutex::new(Vec::<usize>::new());
        // Producers push real jobs tagged via a side map (addresses as
        // plain usize so the map is Send); consumers drain until every
        // producer finished *and* the queue reads empty.
        let ids = Mutex::new(std::collections::HashMap::<usize, usize>::new());
        let producing = std::sync::atomic::AtomicUsize::new(PRODUCERS);
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let inj = &inj;
                let ids = &ids;
                let producing = &producing;
                s.spawn(move || {
                    for i in 0..PER {
                        let j = real_job();
                        ids.lock().insert(j as usize, p * PER + i);
                        inj.push_batch(&[j]).unwrap();
                    }
                    producing.fetch_sub(1, Ordering::Release);
                });
            }
            for _ in 0..2 {
                let inj = &inj;
                let taken = &taken;
                let ids = &ids;
                let producing = &producing;
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let Some(j) = inj.pop() else {
                            if producing.load(Ordering::Acquire) == 0 && inj.is_empty() {
                                break;
                            }
                            std::hint::spin_loop();
                            continue;
                        };
                        local.push(ids.lock()[&(j as usize)]);
                        unsafe { Job::execute(j, NO_WORKER) };
                    }
                    taken.lock().extend(local);
                });
            }
        });
        let all = taken.into_inner();
        let set: HashSet<_> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len(), "a task was executed twice");
        assert_eq!(set.len(), PRODUCERS * PER, "a task was lost");
    }

    #[test]
    fn task_state_handshake_external_join() {
        let (job, h) = SpawnJob::allocate(|| 42u32, 0);
        // Addresses, not pointers: the thread closure must be `Send`.
        let job = job as usize;
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            // Safety: never published; executed exactly once, here.
            unsafe { Job::execute(job as *const Job, NO_WORKER) };
        });
        assert_eq!(h.join(), 42);
        t.join().unwrap();
    }

    #[test]
    fn task_state_done_before_join_does_not_block() {
        let (job, h) = SpawnJob::allocate(|| "done", 0);
        unsafe { Job::execute(job, NO_WORKER) };
        assert!(h.is_finished());
        assert_eq!(h.join(), "done");
    }

    #[test]
    fn a_panicking_result_destructor_stays_inside_the_job() {
        struct Bomb;
        impl Drop for Bomb {
            fn drop(&mut self) {
                panic!("result destructor");
            }
        }
        let (job, h) = SpawnJob::allocate(|| Bomb, 0);
        drop(h);
        // The executor settles the serve count right after `execute`, so
        // the job must return normally.
        unsafe { Job::execute(job, NO_WORKER) };
    }
}

/// The injector under the DFS explorer (ROADMAP item 4(b)): its words are
/// shim atomics like the deques', so every `incoming`/`head`/`next` access
/// of a registered model thread is a scheduling point.
#[cfg(all(test, feature = "model"))]
mod model_tests {
    use super::*;
    use crate::model::{explore, Execution, Options, Report};

    /// Two producers (a lone push, a batch of two) race one consumer's `pop`
    /// over real spawn jobs; the explorer thread then pops until `gate` — a
    /// worker's "is there injector work?" — reads empty, and executes
    /// (frees) every job. Properties, after SNIPPETS.md's
    /// `WorkStealing.tla`: **W1** every pushed job is popped, **W2** none
    /// is popped twice, and a producer's own jobs come out in the order it
    /// submitted them.
    fn explore_push_pop(gate: fn(&Injector) -> bool) -> Report {
        explore(Options::default(), || {
            let inj = Injector::new();
            // Addresses, not pointers: the thread closures must be `Send`.
            let [a, b1, b2] = [0; 3].map(|_| SpawnJob::allocate(|| {}, 0).0 as usize);
            let popped = Mutex::new(Vec::new());
            Execution::new()
                .thread("producer-a", || {
                    inj.push_batch(&[a as *mut Job]).unwrap();
                })
                .thread("producer-b", || {
                    inj.push_batch(&[b1 as *mut Job, b2 as *mut Job]).unwrap();
                })
                .thread("consumer", || {
                    popped.lock().extend(inj.pop().map(|j| j as usize));
                })
                .run();
            let mut popped = popped.into_inner();
            while !gate(&inj) {
                popped.extend(inj.pop().map(|j| j as usize));
            }
            // Empty the injector whatever the gate said (its `Drop` asserts
            // emptiness), free every job, then judge the pops.
            let stranded: Vec<_> = std::iter::from_fn(|| inj.pop()).collect();
            for j in [a, b1, b2] {
                // Safety: each job is executed exactly once, here, after the
                // injector handed it out (or never published it).
                unsafe { Job::execute(j as *const Job, NO_WORKER) };
            }
            let mut sorted = popped.clone();
            sorted.sort_unstable();
            let mut expect = vec![a, b1, b2];
            expect.sort_unstable();
            if sorted != expect {
                return Err(format!(
                    "task loss/duplication: popped {popped:x?}, pushed {expect:x?}, \
                     {} left behind a gate that read empty",
                    stranded.len()
                ));
            }
            let at = |j| popped.iter().position(|&p| p == j);
            if at(b1) > at(b2) {
                return Err(format!("producer-b's batch came out reversed: {popped:x?}"));
            }
            if !inj.is_empty() {
                return Err("the drained injector does not read empty".into());
            }
            Ok(())
        })
    }

    /// While `incoming`, the old `len` counter and the job links were `std`
    /// aliases under `model` (every PR before the shim fold), this same
    /// script explored exactly **1** schedule: no access of it was a
    /// scheduling point.
    #[test]
    fn injector_loses_and_duplicates_nothing() {
        let report = explore_push_pop(Injector::is_empty);
        report.assert_exhaustive_pass("injector push/push_batch vs pop");
        assert!(
            report.schedules >= 100,
            "the injector's words must be scheduling points, got {} schedules",
            report.schedules
        );
    }

    /// Negative twin (W1): a gate that reads only the consumer FIFO misses
    /// jobs still on the incoming stack — a worker trusting it would park
    /// on published work. The explorer must find such a schedule.
    #[test]
    fn head_only_gate_loses_a_job() {
        let report = explore_push_pop(|inj| inj.head.load(Ordering::Relaxed).is_null());
        let v = report
            .violation
            .expect("a head-only emptiness gate must lose a pushed job");
        assert!(
            v.message.contains("task loss"),
            "unexpected violation kind: {}",
            v.message
        );
    }
}
