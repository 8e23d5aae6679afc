//! Type-erased, run-once job objects stored in the work-stealing deques.
//!
//! A deque slot holds a thin `*mut Job` pointer. `Job` is the common header
//! of two concrete layouts:
//!
//! * [`StackJob`] — lives in the stack frame of a `join`; holds the closure,
//!   a slot for its result, the `done` flag and the index of the worker
//!   that pushed it (the only thread that can ever wait on it). The frame
//!   outlives the job because `join` does not return until `done` is set.
//! * [`HeapJob`] — boxed closure spawned into a [`crate::scope`]; frees
//!   itself after running. Completion is the closure's business (the
//!   scope's pending counter). External spawns use `injector::SpawnJob`.
//!
//! Execution goes through an erased `unsafe fn(*const Job)` stored in the
//! header (a hand-rolled single-method vtable, so deque slots stay one word
//! wide — the layout the paper's C++ `Task*` arrays use).
//!
//! Panic discipline: job bodies run under `catch_unwind`. A `StackJob`
//! parks the payload for the joining worker to rethrow; a `HeapJob` hands it
//! to its scope. Workers themselves never unwind across the steal loop.

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::Ordering;

use crate::hb;
use crate::shim::{AtomicBool, AtomicPtr};

/// "Not a pool worker": the executor index of a job run outside any pool
/// run, the owner of a scope opened there, and the empty state of a spawn
/// handle's waiter slot.
pub(crate) const NO_WORKER: u32 = u32::MAX;

/// Common header of every job. Must be the first field of each concrete
/// job type so a `*mut Job` can be recovered from the concrete pointer.
#[repr(C)]
pub struct Job {
    /// Erased entry point; takes the header pointer and the executing
    /// worker's index, and runs the job once.
    run_fn: unsafe fn(*const Job, u32),
    /// Intrusive link for the global injector's incoming stack; null while
    /// the job is not enqueued there (deque-resident jobs never use it).
    next: AtomicPtr<Job>,
}

impl Job {
    pub(crate) fn new(run_fn: unsafe fn(*const Job, u32)) -> Job {
        Job {
            run_fn,
            next: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Execute the job. `executor` is the index of the pool worker running
    /// it, or `u32::MAX` outside a pool run; a `join` job compares it with
    /// the worker that pushed it to tell "popped back" from "stolen".
    ///
    /// # Safety
    /// `ptr` must point to a live, not-yet-executed job of the concrete type
    /// `run_fn` expects, and no other thread may execute it concurrently
    /// (deque ownership transfer guarantees this).
    #[inline]
    pub unsafe fn execute(ptr: *const Job, executor: u32) {
        ((*ptr).run_fn)(ptr, executor)
    }

    /// Intrusive injector link (crate-internal; used only while the job
    /// sits in the global injector's incoming stack).
    #[inline]
    pub(crate) fn next_ptr(&self) -> &AtomicPtr<Job> {
        &self.next
    }
}

/// Result of a completed job body: the value, or the panic payload.
type JobResult<R> = Result<R, Box<dyn Any + Send + 'static>>;

/// A run-once job allocated in the caller's stack frame (used by `join`).
///
/// The lifetime contract is enforced by the caller: `join` keeps the frame
/// alive until [`StackJob::is_done`] is observed true.
#[repr(C)]
pub struct StackJob<F, R> {
    job: Job,
    /// Index of the worker whose `join` frame this is — the only thread
    /// that ever waits on `done`, known before the job is published, so
    /// completion needs no waiter registration (see `run_erased`).
    owner: u32,
    /// Set after the job body finished — successfully or by panicking.
    done: AtomicBool,
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<JobResult<R>>>,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R,
{
    /// Wrap `func` into a job pushable by worker `owner`.
    pub fn new(func: F, owner: u32) -> Self {
        StackJob {
            job: Job::new(Self::run_erased),
            owner,
            done: AtomicBool::new(false),
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(None),
        }
    }

    /// Header pointer to push into a deque.
    ///
    /// Doubles as the checker's record of the owner's pre-publication
    /// writes to the closure/result cells: it runs on the settled stack
    /// binding (unlike `new`, whose local may still move) and immediately
    /// precedes the deque push that publishes them.
    pub fn as_job_ptr(&self) -> *mut Job {
        hb::on_write(self.func.get() as usize, "StackJob::func (pre-publish)");
        hb::on_write(self.result.get() as usize, "StackJob::result (pre-publish)");
        &self.job as *const Job as *mut Job
    }

    /// Whether the job body has completed (panicked counts as completed).
    /// SeqCst: this is the owner's recheck after announcing itself in the
    /// sleeper set, the load half of the pairing in `run_erased`.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::SeqCst)
    }

    unsafe fn run_erased(ptr: *const Job, executor: u32) {
        let this = ptr as *const StackJob<F, R>;
        // Ownership: exactly one executor reaches this point (the deque hands
        // a task to exactly one taker), so the closure slot is uncontended.
        hb::on_read((*this).func.get() as usize, "StackJob::func (run_erased)");
        let func = (*(*this).func.get())
            .take()
            .expect("StackJob executed twice");
        let result = panic::catch_unwind(AssertUnwindSafe(func));
        hb::on_write(
            (*this).result.get() as usize,
            "StackJob::result (run_erased)",
        );
        *(*this).result.get() = Some(result.map_err(|e| e as Box<dyn Any + Send>));
        let owner = (*this).owner;
        if executor == owner {
            // Popped back by the owner itself: nobody is waiting, and the
            // owner reads `done` in program order. `done_store_order()` is
            // a compile-time `Release` unless an hb negative test weakens
            // it to show the checker catches the severed result edge.
            (*this).done.store(true, hb::negative::done_store_order());
        } else {
            // Stolen: the owner may be parking on this job right now. The
            // `done` store is the frame's last valid access (the owner can
            // return as soon as it is visible), so `owner` was read first
            // and the wake goes through pool state only. SeqCst store, then
            // `wake_worker`'s SeqCst mask load, against the owner's SeqCst
            // mask announce, then SeqCst `is_done` recheck: either we see
            // the announced bit or the recheck sees `done`.
            (*this).done.store(true, Ordering::SeqCst);
            crate::worker::wake_worker(owner);
        }
    }

    /// Take the result after observing `is_done()`, rethrowing a panic from
    /// the job body on the joining thread.
    ///
    /// # Safety
    /// Must be called at most once, only after `is_done()` returned true.
    pub unsafe fn take_result(&self) -> R {
        debug_assert!(self.is_done());
        hb::on_read(self.result.get() as usize, "StackJob::result (take_result)");
        match (*self.result.get()).take().expect("result taken twice") {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

// The job is handed between threads through the deque; the closure and its
// result must therefore be sendable. The pointer-based handoff is what makes
// this `unsafe impl` necessary.
unsafe impl<F: Send, R: Send> Sync for StackJob<F, R> {}

impl<F, R> Drop for StackJob<F, R> {
    fn drop(&mut self) {
        // The frame is about to be reused (same thread, or a respawned
        // worker mapped onto the dead worker's stack range); drop the
        // checker's access history for it.
        hb::forget_range(self as *const _ as usize, std::mem::size_of::<Self>());
    }
}

/// A boxed, self-freeing job used by [`crate::scope`] spawns.
#[repr(C)]
pub struct HeapJob<F> {
    job: Job,
    func: Option<F>,
}

impl<F> HeapJob<F>
where
    F: FnOnce() + Send,
{
    /// Box `func` and leak it as a job pointer; the job frees itself when
    /// executed. The caller must guarantee it *is* eventually executed
    /// (the scheduler runs every pushed job before a pool run completes).
    pub fn push_new(func: F) -> *mut Job {
        let boxed = Box::new(HeapJob {
            job: Job::new(Self::run_erased),
            func: Some(func),
        });
        hb::on_write(&boxed.func as *const _ as usize, "HeapJob::func (push_new)");
        Box::into_raw(boxed) as *mut Job
    }

    unsafe fn run_erased(ptr: *const Job, _executor: u32) {
        // Reclaim the box; the closure runs (and is dropped) before the
        // allocation is freed at the end of this scope.
        let mut this = Box::from_raw(ptr as *mut HeapJob<F>);
        hb::on_read(
            &this.func as *const _ as usize,
            "HeapJob::func (run_erased)",
        );
        let func = this.func.take().expect("HeapJob executed twice");
        // Scope-level panic bookkeeping is handled inside `func` itself
        // (see `scope`); an unwind past this frame would abort, so `func`
        // is always a non-unwinding wrapper.
        func();
        // The allocation dies here; drop the checker's state for it so a
        // later job reusing the address is not misread as racing this one.
        hb::forget_range(
            &*this as *const _ as usize,
            std::mem::size_of::<HeapJob<F>>(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn stack_job_runs_once_and_yields_result() {
        let job = StackJob::new(|| 21 * 2, 0);
        assert!(!job.is_done());
        unsafe { Job::execute(job.as_job_ptr(), 0) };
        assert!(job.is_done());
        assert_eq!(unsafe { job.take_result() }, 42);
    }

    #[test]
    fn stack_job_captures_panic() {
        let job: StackJob<_, ()> = StackJob::new(|| panic!("boom"), 0);
        unsafe { Job::execute(job.as_job_ptr(), 0) };
        assert!(job.is_done(), "panicking jobs still complete");
        let caught = panic::catch_unwind(AssertUnwindSafe(|| unsafe { job.take_result() }));
        assert!(caught.is_err(), "take_result rethrows the payload");
    }

    #[test]
    fn heap_job_runs_and_frees() {
        static RAN: AtomicUsize = AtomicUsize::new(0);
        let ptr = HeapJob::push_new(|| {
            RAN.fetch_add(1, Ordering::SeqCst);
        });
        unsafe { Job::execute(ptr, NO_WORKER) };
        assert_eq!(RAN.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn done_flag_is_acquire_visible_across_threads() {
        let job = StackJob::new(|| vec![1, 2, 3], 0);
        std::thread::scope(|s| {
            let job_ref = &job;
            // A thief: not the owner, and no pool to route a wake through.
            s.spawn(move || unsafe { Job::execute(job_ref.as_job_ptr(), NO_WORKER) });
            while !job.is_done() {
                std::hint::spin_loop();
            }
        });
        assert_eq!(unsafe { job.take_result() }, vec![1, 2, 3]);
    }
}
