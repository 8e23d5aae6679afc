//! Type-erased, run-once job objects stored in the work-stealing deques.
//!
//! A deque slot holds a thin `*mut Job` pointer. `Job` is the common header
//! of two concrete layouts:
//!
//! * [`StackJob`] — lives in the stack frame of a `join`; holds the closure,
//!   a slot for its result, the `done` flag and the index of the worker
//!   that pushed it (the only thread that can ever wait on it). The frame
//!   outlives the job because `join` returns only after `done` is set or
//!   after popping the job back (or failing to push it), which it runs as
//!   a direct call ([`StackJob::run_inline`]): no erased call, result slot
//!   or `done`.
//! * [`ScopeJob`] — a closure spawned into a [`crate::scope`], carved from
//!   its owner's chunks ([`Blocks`]) and handed back, not freed: a stolen
//!   task costs no cross-thread `malloc`/`free`. (Ingress: `SpawnJob`.)
//!
//! Execution goes through an erased `unsafe fn(*const Job)` stored in the
//! header (a hand-rolled single-method vtable, so deque slots stay one word
//! wide — the layout the paper's C++ `Task*` arrays use).
//!
//! Panic discipline: erased job bodies run under `catch_unwind`. A stolen
//! `StackJob` parks the payload for its joiner to rethrow, a `ScopeJob`
//! hands it to its scope; workers never unwind across the steal loop.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::mem::{align_of, offset_of, size_of, ManuallyDrop, MaybeUninit};
use std::panic::{self, AssertUnwindSafe};
use std::ptr;
use std::sync::atomic::Ordering;

use crossbeam_utils::CachePadded;

use crate::api::Scope;
use crate::hb;
use crate::shim::{AtomicBool, AtomicPtr, AtomicUsize};

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
    run_fn: RunFn,
    /// Intrusive link: the global injector's incoming stack, or a scope
    /// block's free list or return stack once its job has been taken.
    next: AtomicPtr<Job>,
}

type RunFn = unsafe fn(*const Job, u32);

impl Job {
    pub(crate) fn new(run_fn: RunFn) -> Job {
        Job {
            run_fn,
            next: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Execute the job. `executor` is the index of the pool worker running
    /// it, or `u32::MAX` outside a pool run; a scope job compares it with
    /// its scope's owner to hand its block back without a CAS.
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
    /// that ever waits on `done` — known before the job is published, so
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

    unsafe fn run_erased(ptr: *const Job, _executor: u32) {
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
        // Usually stolen, with the owner perhaps parking on this job right
        // now; or the owner's own `help_until` popped it while waiting in
        // `a` (its wake to itself is a no-op). The `done` store is
        // the frame's last valid access, so `owner` was read first and the
        // wake goes through pool state only. SeqCst store, then
        // `wake_worker`'s SeqCst mask load, against the owner's SeqCst mask
        // announce, then SeqCst `is_done` recheck: either we see the
        // announced bit or the recheck sees `done`. `done_store_order()` is
        // that SeqCst unless an hb negative test weakens it.
        let owner = (*this).owner;
        (*this).done.store(true, hb::negative::done_store_order());
        crate::worker::wake_worker(owner);
    }

    /// Run the closure as a direct call after its owner popped the job back
    /// or failed to push it: nobody else saw it, so no `catch_unwind`,
    /// result cell or `done` store (a panic unwinds through `join` like a
    /// sequential call's would).
    ///
    /// # Safety
    /// The job must have been reclaimed from the caller's own deque, or
    /// never published.
    pub(crate) unsafe fn run_inline(&self) -> R {
        hb::on_read(self.func.get() as usize, "StackJob::func (run_inline)");
        let func = (*self.func.get()).take().expect("StackJob executed twice");
        func()
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

/// A scope-job block, one cache line: header, scope pointer and a closure
/// of up to 40 bytes; a thief handing one back writes no other task's line.
pub(crate) const BLOCK: usize = 64;

/// A chunk of blocks, one page: one `malloc` per 64 spawns.
pub(crate) const CHUNK: usize = 4096;

/// Line-, not page-aligned: glibc pads a page-aligned `malloc` by a page.
#[repr(align(64))]
struct Chunk {
    _bytes: [u8; CHUNK],
}

/// Chunk addresses, freed when the list drops (with its scope, after the
/// drain: every block came back before its task's `pending` decrement).
#[derive(Default)]
struct Chunks(Vec<usize>);

impl Drop for Chunks {
    fn drop(&mut self) {
        for &chunk in &self.0 {
            // `malloc` may hand the page to any thread next.
            hb::forget_range(chunk, CHUNK);
            // Safety: a `Box` leaked by `Blocks::next_chunk`.
            drop(unsafe { Box::from_raw(chunk as *mut MaybeUninit<Chunk>) });
        }
    }
}

/// A scope owner's job memory (addresses as `usize`); others use `returned`.
#[derive(Default)]
pub(crate) struct Blocks {
    /// Reusable blocks, linked through their header's `next`.
    free: Cell<usize>,
    /// Blocks other workers handed back (a Treiber stack).
    returned: CachePadded<AtomicUsize>,
    /// Carving cursor and end, in the last of `chunks`.
    bump: Cell<usize>,
    end: Cell<usize>,
    chunks: Cell<Chunks>,
}

// Safety: `Scope::spawn` calls `alloc` only on the owner thread, and
// `give_back` touches `free` only `by_owner`.
unsafe impl Sync for Blocks {}

impl Blocks {
    /// Owner only: a block from the free list, the return stack or a chunk.
    #[inline]
    pub(crate) fn alloc(&self) -> *mut Job {
        let mut block = self.free.get() as *mut Job;
        // Read before the swap: an empty stack's line stays shared.
        if block.is_null() && self.returned.load(Ordering::Relaxed) != 0 {
            block = self.take_returned();
        }
        if block.is_null() {
            if self.bump.get() == self.end.get() {
                self.next_chunk();
            }
            block = self.bump.get() as *mut Job;
            self.bump.set(block as usize + BLOCK);
        } else {
            // Safety: a listed block is a handed-back job header.
            let next = unsafe { (*block).next_ptr().load(Ordering::Relaxed) };
            self.free.set(next as usize);
        }
        hb::on_write(block as usize, "ScopeJob block (alloc)");
        block
    }

    /// Owner only: all handed-back blocks, in one swap.
    pub(crate) fn take_returned(&self) -> *mut Job {
        self.returned.swap(0, Ordering::Acquire) as *mut Job
    }

    #[cold]
    #[inline(never)]
    fn next_chunk(&self) {
        let chunk = Box::into_raw(Box::<Chunk>::new_uninit()) as usize;
        let mut chunks = self.chunks.take();
        chunks.0.push(chunk);
        self.chunks.set(chunks);
        self.bump.set(chunk);
        self.end.set(chunk + CHUNK);
    }

    /// Hand `block` back, its closure moved out: to the free list
    /// `by_owner`, else to the return stack.
    ///
    /// # Safety
    /// `block` came from this `alloc`, and is handed back once.
    pub(crate) unsafe fn give_back(&self, block: *mut Job, by_owner: bool) {
        // End the last job's history; the stamp orders the next `alloc`.
        hb::forget_range(block as usize, BLOCK);
        hb::on_write(block as usize, "ScopeJob block (hand back)");
        let link = (*block).next_ptr();
        if by_owner {
            link.store(self.free.get() as *mut Job, Ordering::Relaxed);
            return self.free.set(block as usize);
        }
        let (new, returned) = (block as usize, &self.returned);
        let mut head = returned.load(Ordering::Relaxed);
        loop {
            link.store(head as *mut Job, Ordering::Relaxed);
            match returned.compare_exchange_weak(head, new, Ordering::Release, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => head = seen,
            }
        }
    }
}

/// A task spawned into a [`crate::scope`]: in a scope's [`Blocks`] block if
/// the owner spawned it and it fits, else boxed; released before it runs.
#[repr(C)]
pub(crate) struct ScopeJob<F> {
    job: Job,
    scope: *const Scope<'static>,
    func: ManuallyDrop<F>,
}

impl<F: FnOnce() + Send> ScopeJob<F> {
    const FITS_BLOCK: bool = size_of::<Self>() <= BLOCK && align_of::<Self>() <= BLOCK;

    /// The job for `func` in `scope`, spawned on its owner thread or not.
    pub(crate) fn allocate(scope: &Scope<'_>, func: F, by_owner: bool) -> *mut Job {
        let (job, run): (*mut Self, RunFn) = if by_owner && Self::FITS_BLOCK {
            (scope.blocks.alloc().cast(), Self::run_in_block)
        } else {
            let boxed = Box::into_raw(Box::<Self>::new_uninit());
            (boxed.cast(), Self::run_boxed)
        };
        let (scope, func) = (ptr::from_ref(scope).cast(), ManuallyDrop::new(func));
        let value = ScopeJob {
            job: Job::new(run),
            scope,
            func,
        };
        // Safety: fresh memory that fits `Self`, not yet published.
        unsafe { job.write(value) };
        hb::on_write(job as usize + offset_of!(Self, func), "ScopeJob::func");
        job.cast()
    }

    unsafe fn run_in_block(ptr: *const Job, executor: u32) {
        let this = ptr as *mut Self;
        let (scope, func) = ((*this).scope, ptr::addr_of_mut!((*this).func));
        hb::on_read(func as usize, "ScopeJob::func");
        let func = ManuallyDrop::take(&mut *func);
        let by_owner = executor == (*scope).owner;
        (*scope).blocks.give_back(this.cast(), by_owner);
        Scope::complete(scope, func);
    }

    unsafe fn run_boxed(ptr: *const Job, _executor: u32) {
        hb::on_read(ptr as usize + offset_of!(Self, func), "ScopeJob::func");
        hb::forget_range(ptr as usize, size_of::<Self>());
        let ScopeJob { scope, func, .. } = *Box::from_raw(ptr as *mut Self);
        Scope::complete(scope, ManuallyDrop::into_inner(func));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Owner hand-backs go on the free list, others on the return stack;
    /// `alloc` reuses both before carving, then carves chunk after chunk.
    #[test]
    fn blocks_are_reused_before_carving() {
        unsafe fn noop(_: *const Job, _: u32) {}
        let job = |blocks: &Blocks| {
            let block = blocks.alloc();
            assert_eq!(block as usize % BLOCK, 0, "blocks are line-aligned");
            unsafe { block.write(Job::new(noop)) };
            block
        };
        let blocks = Blocks::default();
        let (a, b) = (job(&blocks), job(&blocks));
        assert_eq!(b as usize, a as usize + BLOCK, "carved in order");
        unsafe { blocks.give_back(a, true) };
        assert_eq!(job(&blocks), a, "the owner's free list first");
        std::thread::scope(|s| {
            let (a, b) = (a as usize, b as usize);
            let blocks = &blocks;
            s.spawn(move || unsafe {
                blocks.give_back(a as *mut Job, false);
                blocks.give_back(b as *mut Job, false);
            });
        });
        assert_eq!(job(&blocks), b, "then the return stack, newest first");
        assert_eq!(job(&blocks), a);
        // `a` was the first block carved: the chunk's base.
        let chunk = a as usize;
        for k in 2..CHUNK / BLOCK {
            assert_eq!(job(&blocks) as usize, chunk + k * BLOCK);
        }
        let past = job(&blocks) as usize;
        assert!(!(chunk..chunk + CHUNK).contains(&past), "a full chunk");
        let chunks = blocks.chunks.take();
        assert_eq!(
            chunks.0,
            [chunk, past],
            "a second chunk, carved from its base"
        );
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

/// Scope-job memory under the DFS explorer: the return stack is shim
/// atomics, so every hand-back and take is a scheduling point, and so is
/// the scope's `pending` counter.
#[cfg(all(test, feature = "model"))]
mod model_tests {
    use super::*;
    use crate::model::{explore, Execution, Options, Report};

    /// Every block on the free list, the return stack and `taken`.
    fn listed(blocks: &Blocks, taken: *mut Job) -> Vec<usize> {
        let mut out = Vec::new();
        let (free, returned) = (blocks.free.get(), blocks.returned.load(Ordering::Relaxed));
        for mut b in [free as *mut Job, returned as *mut Job, taken] {
            while !b.is_null() {
                out.push(b as usize);
                b = unsafe { (*b).next_ptr().load(Ordering::Relaxed) };
            }
        }
        out
    }

    /// The owner spawned jobs 1 and 2; two thieves run them and hand their
    /// blocks back while the owner takes the return stack with `take`,
    /// spawns job 3, and — if `pending` reads zero — takes the stack once
    /// more, as the drain's last look before its chunks are freed. Then the
    /// explorer thread runs job 3 on the owner and checks:
    ///
    /// * each job ran exactly once, its own closure: a block handed out
    ///   while its job was live would be overwritten under its thief;
    /// * every carved block is back on the free list or the return stack,
    ///   each once: none lost, none listed twice;
    /// * once the owner read `pending` as zero, nothing came back: the
    ///   hand-back precedes the decrement, so the drain never frees a chunk
    ///   under a writer.
    fn explore_hand_back(take: fn(&Blocks) -> *mut Job) -> Report {
        // A scope outside any pool: its owner is `NO_WORKER`.
        explore(Options::default(), || {
            crate::scope(|sc| {
                let ran = std::sync::Mutex::new(Vec::new());
                let spawn = |id: usize| {
                    let ran = &ran;
                    ScopeJob::allocate(sc, move || ran.lock().unwrap().push(id), true) as usize
                };
                let (j1, j2) = (spawn(1), spawn(2));
                sc.pending.fetch_add(2, Ordering::Relaxed);
                let drained = AtomicBool::new(false);
                let (j3, last_take) = (std::sync::Mutex::new(0), std::sync::Mutex::new(0));
                Execution::new()
                    .thread("thief-1", || unsafe { Job::execute(j1 as *const Job, 1) })
                    .thread("thief-2", || unsafe { Job::execute(j2 as *const Job, 2) })
                    .thread("owner", || {
                        // The free list is empty: the taken chain becomes it.
                        sc.blocks.free.set(take(&sc.blocks) as usize);
                        *j3.lock().unwrap() = spawn(3);
                        if sc.pending.load(Ordering::SeqCst) == 0 {
                            drained.store(true, Ordering::Relaxed);
                            *last_take.lock().unwrap() = take(&sc.blocks) as usize;
                        }
                    })
                    .run();
                let late = sc.blocks.returned.load(Ordering::Relaxed) != 0;
                if drained.load(Ordering::Relaxed) && late {
                    return Err("a block came back after the drain saw pending == 0".into());
                }
                sc.pending.fetch_add(1, Ordering::Relaxed);
                let j3 = j3.into_inner().unwrap();
                unsafe { Job::execute(j3 as *const Job, NO_WORKER) };
                let mut ran = ran.into_inner().unwrap();
                ran.sort_unstable();
                if ran != [1, 2, 3] {
                    return Err(format!("block reused while live: jobs ran {ran:?}"));
                }
                let chunks = sc.blocks.chunks.take();
                let chunk = chunks.0[0];
                sc.blocks.chunks.set(chunks);
                let carved: Vec<usize> = (chunk..sc.blocks.bump.get()).step_by(BLOCK).collect();
                let taken = last_take.into_inner().unwrap() as *mut Job;
                let mut listed = listed(&sc.blocks, taken);
                listed.sort_unstable();
                if listed != carved {
                    return Err(format!(
                    "returned block lost or listed twice: carved {carved:x?}, listed {listed:x?}"
                ));
                }
                Ok(())
            })
        })
    }

    #[test]
    fn hand_back_loses_and_reuses_nothing_early() {
        let report = explore_hand_back(Blocks::take_returned);
        report.assert_exhaustive_pass("scope block hand-back vs owner take");
        eprintln!("{} schedules", report.schedules);
        assert!(
            report.schedules >= 100,
            "the return stack must be scheduling points, got {} schedules",
            report.schedules
        );
    }

    /// Negative twin: taking the stack with a load and a store instead of
    /// one swap drops a block pushed between the two.
    #[test]
    fn load_then_store_take_loses_a_block() {
        let report = explore_hand_back(|blocks| {
            let head = blocks.returned.load(Ordering::Acquire);
            blocks.returned.store(0, Ordering::Relaxed);
            head as *mut Job
        });
        let v = report
            .violation
            .expect("a load-then-store take must lose a handed-back block");
        assert!(
            v.message.contains("lost"),
            "unexpected violation: {}",
            v.message
        );
    }
}
