//! The depth-first interleaving explorer behind the `model` feature.
//!
//! One *execution* runs the script's threads on real OS threads, but every
//! shim atomic access first parks its thread on a token scheduler: the
//! controller (the thread that called [`explore`]) waits until every
//! unfinished thread is parked, consults the decision stack for which
//! thread — or the pending signal — goes next, and grants exactly one.
//! An execution is therefore a deterministic function of its decision
//! vector, and [`explore`] enumerates all vectors depth-first: replay the
//! recorded prefix, extend with first choices until the execution
//! completes, run the script's invariant check, then backtrack by bumping
//! the deepest decision that still has unexplored alternatives.
//!
//! Signal delivery is one extra decision: whenever the handler's target
//! thread is parked and the handler has not been delivered yet in this
//! execution, "deliver now" is an option. Taking it runs the handler
//! closure inline on the target thread *before* the access the target was
//! parked on — a full handler run between two adjacent owner accesses,
//! with the handler's own accesses remaining scheduling points other
//! threads can interleave with.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Sentinel for threads that are not part of a model execution.
const UNREGISTERED: usize = usize::MAX;

thread_local! {
    static THREAD_INDEX: Cell<usize> = const { Cell::new(UNREGISTERED) };
    static IN_HANDLER: Cell<bool> = const { Cell::new(false) };
    static EXPLORER_CTX: RefCell<Option<ExplorerCtx>> = const { RefCell::new(None) };
}

/// Exploration limits. The defaults comfortably cover the deque scripts in
/// `tests/model.rs` (thousands to tens of thousands of schedules).
#[derive(Debug, Clone)]
pub struct Options {
    /// Stop (reporting `complete: false`) after this many executions.
    pub max_schedules: u64,
    /// Panic if a single execution makes this many scheduling decisions —
    /// a livelocked script (e.g. an unbounded retry loop).
    pub max_steps: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            max_schedules: 2_000_000,
            max_steps: 20_000,
        }
    }
}

/// A failing interleaving, as returned by the script's check function.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The script's own description of what went wrong.
    pub message: String,
    /// The decision vector reproducing the execution (option index at each
    /// scheduling point).
    pub schedule: Vec<usize>,
    /// Human-readable access trace of the failing execution, one line per
    /// scheduled event.
    pub trace: Vec<String>,
}

impl Violation {
    /// Multi-line rendering for test output and EXPERIMENTS walkthroughs.
    pub fn render(&self) -> String {
        let mut out = format!(
            "violation: {}\nschedule (decision vector): {:?}\ninterleaving trace:\n",
            self.message, self.schedule
        );
        for line in &self.trace {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Result of an [`explore`] call.
#[derive(Debug)]
pub struct Report {
    /// Number of executions (complete thread schedules) explored.
    pub schedules: u64,
    /// Whether the decision tree was exhausted (false when stopped early by
    /// `max_schedules` or by a violation).
    pub complete: bool,
    /// The first violating interleaving found, if any.
    pub violation: Option<Violation>,
}

impl Report {
    /// Assert this report proves the property: the tree was exhausted and
    /// no interleaving violated the check. Panics with the rendered
    /// counterexample otherwise.
    #[track_caller]
    pub fn assert_exhaustive_pass(&self, what: &str) {
        if let Some(v) = &self.violation {
            panic!("{what}: counterexample found\n{}", v.render());
        }
        assert!(
            self.complete,
            "{what}: exploration stopped early after {} schedules",
            self.schedules
        );
    }
}

/// Per-`explore` state, living in the explorer thread's TLS so the
/// controller and the schedule loop share it without threading it through
/// the user's script closure.
struct ExplorerCtx {
    decisions: DecisionStack,
    last_log: Vec<String>,
    max_steps: usize,
}

fn with_explorer<T>(f: impl FnOnce(&mut ExplorerCtx) -> T) -> T {
    EXPLORER_CTX.with(|c| {
        let mut borrow = c.borrow_mut();
        let ctx = borrow
            .as_mut()
            .expect("model Execution::run outside model::explore");
        f(ctx)
    })
}

/// The DFS decision vector: `(chosen option, number of options)` per
/// scheduling point, replayed from the top on every execution.
#[derive(Default)]
struct DecisionStack {
    chosen: Vec<(usize, usize)>,
    cursor: usize,
}

impl DecisionStack {
    /// Next decision: replay the recorded prefix, then extend with option 0.
    fn next(&mut self, num_options: usize) -> usize {
        debug_assert!(num_options > 0);
        if self.cursor < self.chosen.len() {
            let (choice, recorded) = self.chosen[self.cursor];
            assert_eq!(
                recorded, num_options,
                "non-deterministic model execution: replay diverged at \
                 decision {} (recorded {} options, now {})",
                self.cursor, recorded, num_options
            );
            self.cursor += 1;
            choice
        } else {
            self.chosen.push((0, num_options));
            self.cursor += 1;
            0
        }
    }

    /// Advance to the next unexplored schedule; false when exhausted.
    fn advance(&mut self) -> bool {
        self.cursor = 0;
        while let Some(last) = self.chosen.last_mut() {
            if last.0 + 1 < last.1 {
                last.0 += 1;
                return true;
            }
            self.chosen.pop();
        }
        false
    }

    fn schedule(&self) -> Vec<usize> {
        self.chosen.iter().map(|&(c, _)| c).collect()
    }
}

/// A signal-handler closure borrowing from its script's environment.
type Handler<'env> = Box<dyn Fn() + Send + Sync + 'env>;
type HandlerFn = Handler<'static>;
/// One named thread's script closure.
type Script<'env> = Box<dyn FnOnce() + Send + 'env>;

struct SessState {
    /// Thread i is parked on the scheduler, wanting to run.
    waiting: Vec<bool>,
    /// Thread i has returned from its script closure.
    finished: Vec<bool>,
    /// The single thread currently granted to run (consumed on wake).
    turn: Option<usize>,
    /// Grant carries a signal delivery: the woken thread must run the
    /// handler before its pending access.
    deliver_handler: bool,
    /// The (at most one) delivery already happened this execution.
    handler_delivered: bool,
    /// Controller panicked: threads run free so the scope can unwind.
    free_run: bool,
    /// Scheduling decisions made this execution (livelock guard).
    steps: usize,
    log: Vec<String>,
}

struct Session {
    state: Mutex<SessState>,
    cv: Condvar,
    names: Vec<&'static str>,
    handler: Option<(usize, HandlerFn)>,
}

/// The live session, published for `access()` calls from arbitrary deque
/// code on registered threads. Null outside `Execution::run`.
static SESSION: AtomicPtr<Session> = AtomicPtr::new(std::ptr::null_mut());

impl Session {
    fn new(names: Vec<&'static str>, handler: Option<(usize, HandlerFn)>) -> Session {
        let n = names.len();
        Session {
            state: Mutex::new(SessState {
                waiting: vec![false; n],
                finished: vec![false; n],
                turn: None,
                deliver_handler: false,
                handler_delivered: false,
                free_run: false,
                steps: 0,
                log: Vec::new(),
            }),
            cv: Condvar::new(),
            names,
            handler,
        }
    }

    fn lock(&self) -> MutexGuard<'_, SessState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push_log(&self, idx: usize, msg: &str) {
        let marker = if IN_HANDLER.with(|c| c.get()) {
            "(handler)"
        } else {
            ""
        };
        self.lock()
            .log
            .push(format!("{}{}: {}", self.names[idx], marker, msg));
    }

    /// Park until granted; if the grant carries a signal delivery, run the
    /// handler inline first, then park again for the original access.
    fn step(&self, idx: usize) {
        loop {
            let mut g = self.lock();
            if g.free_run {
                return;
            }
            g.waiting[idx] = true;
            self.cv.notify_all();
            while g.turn != Some(idx) {
                if g.free_run {
                    g.waiting[idx] = false;
                    return;
                }
                g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
            g.turn = None;
            g.waiting[idx] = false;
            let deliver = g.deliver_handler;
            g.deliver_handler = false;
            drop(g);
            if deliver {
                let (_, handler) = self
                    .handler
                    .as_ref()
                    .expect("signal delivery without a handler");
                IN_HANDLER.with(|c| c.set(true));
                handler();
                IN_HANDLER.with(|c| c.set(false));
                self.push_log(idx, "handler returns; original access resumes");
                continue;
            }
            return;
        }
    }

    fn finish(&self, idx: usize) {
        let mut g = self.lock();
        g.finished[idx] = true;
        g.waiting[idx] = false;
        self.cv.notify_all();
    }

    /// The controller loop: one decision per iteration until every thread
    /// finished.
    fn control(&self) {
        let n = self.names.len();
        let target = self.handler.as_ref().map(|&(t, _)| t);
        loop {
            let mut g = self.lock();
            loop {
                if g.finished.iter().all(|&f| f) {
                    return;
                }
                // Decide only once the previous grant has been consumed
                // (`turn` cleared by the woken thread) and every unfinished
                // thread is parked again — otherwise the still-`waiting`
                // flag of a granted-but-not-yet-woken thread would trigger
                // a spurious extra decision.
                if g.turn.is_none() && (0..n).all(|i| g.finished[i] || g.waiting[i]) {
                    break;
                }
                g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
            // Options: any parked thread may run; additionally, if the
            // armed handler has not been delivered and its target is still
            // alive (parked), the signal may arrive now. `None` encodes
            // "deliver the signal".
            let mut options: Vec<Option<usize>> =
                (0..n).filter(|&i| !g.finished[i]).map(Some).collect();
            if let Some(t) = target {
                if !g.handler_delivered && !g.finished[t] {
                    options.push(None);
                }
            }
            g.steps += 1;
            let (choice, max_steps) =
                with_explorer(|e| (e.decisions.next(options.len()), e.max_steps));
            assert!(
                g.steps <= max_steps,
                "model execution exceeded {max_steps} scheduling decisions — \
                 livelocked script? (raise Options::max_steps if intended)"
            );
            match options[choice] {
                Some(i) => g.turn = Some(i),
                None => {
                    let t = target.expect("handler option without target");
                    g.handler_delivered = true;
                    g.deliver_handler = true;
                    g.turn = Some(t);
                    let line = format!("signal: SIGUSR1 delivered to {}", self.names[t]);
                    g.log.push(line);
                }
            }
            self.cv.notify_all();
        }
    }

    /// Unblock every parked thread permanently (controller bail-out path).
    fn release_all(&self) {
        let mut g = self.lock();
        g.free_run = true;
        self.cv.notify_all();
    }
}

/// Route one atomic access through the scheduler. Called by the shim types;
/// passthrough for threads that are not part of a model execution.
pub fn access<T>(op: impl FnOnce() -> T, describe: impl FnOnce(&T) -> String) -> T {
    let idx = THREAD_INDEX.with(|c| c.get());
    if idx == UNREGISTERED {
        return op();
    }
    let session = SESSION.load(Ordering::Acquire);
    if session.is_null() {
        return op();
    }
    // Safety: non-null only while `Execution::run` is on the stack of the
    // controlling thread, and registered threads are scoped within it.
    let session = unsafe { &*session };
    session.step(idx);
    let value = op();
    session.push_log(idx, &describe(&value));
    value
}

/// Explicit scheduling point with no attached atomic access; see
/// [`crate::model::pause`] for the cross-feature documentation.
pub fn pause() {
    let idx = THREAD_INDEX.with(|c| c.get());
    if idx == UNREGISTERED {
        return;
    }
    let session = SESSION.load(Ordering::Acquire);
    if session.is_null() {
        return;
    }
    // Safety: as in `access`.
    let session = unsafe { &*session };
    session.step(idx);
    session.push_log(idx, "pause (no access)");
}

/// Marks a model thread finished even when its closure unwinds, so the
/// controller never waits forever on a panicking thread.
struct FinishGuard<'a> {
    session: &'a Session,
    idx: usize,
}

impl Drop for FinishGuard<'_> {
    fn drop(&mut self) {
        THREAD_INDEX.with(|c| c.set(UNREGISTERED));
        IN_HANDLER.with(|c| c.set(false));
        self.session.finish(self.idx);
    }
}

/// One concurrent program over the shim atomics: up to a handful of named
/// threads plus an optional signal handler targeting one of them.
#[derive(Default)]
pub struct Execution<'env> {
    threads: Vec<(&'static str, Script<'env>)>,
    handler: Option<(usize, Handler<'env>)>,
}

impl<'env> Execution<'env> {
    /// An execution with no threads yet.
    pub fn new() -> Self {
        Execution::default()
    }

    /// Add a named thread running `f` (builder style; thread indices are
    /// assigned in call order).
    pub fn thread(mut self, name: &'static str, f: impl FnOnce() + Send + 'env) -> Self {
        self.threads.push((name, Box::new(f)));
        self
    }

    /// Arm a signal handler that the scheduler may deliver (at most once
    /// per execution) to thread `target` at any of its scheduling points.
    pub fn handler_on(mut self, target: usize, f: impl Fn() + Send + Sync + 'env) -> Self {
        self.handler = Some((target, Box::new(f)));
        self
    }

    /// Run the execution under the current [`explore`] decision vector.
    /// Must be called from inside an `explore` body, on the explorer
    /// thread.
    pub fn run(self) {
        let Execution { threads, handler } = self;
        let n = threads.len();
        assert!(n > 0, "an execution needs at least one thread");
        let names: Vec<&'static str> = threads.iter().map(|&(name, _)| name).collect();
        let handler: Option<(usize, HandlerFn)> = handler.map(|(t, f)| {
            assert!(t < n, "handler target {t} out of range (n = {n})");
            // Safety: lifetime erasure only. The session — and with it the
            // only reference to this closure — is dropped before `run`
            // returns, which is within 'env.
            let f: HandlerFn = unsafe { std::mem::transmute::<Handler<'env>, HandlerFn>(f) };
            (t, f)
        });
        let session = Session::new(names, handler);
        SESSION.store(
            &session as *const Session as *mut Session,
            Ordering::Release,
        );
        let controlled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            std::thread::scope(|s| {
                for (i, (_, f)) in threads.into_iter().enumerate() {
                    let sess: &Session = &session;
                    s.spawn(move || {
                        THREAD_INDEX.with(|c| c.set(i));
                        let _finish = FinishGuard {
                            session: sess,
                            idx: i,
                        };
                        f();
                    });
                }
                let control = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    session.control();
                }));
                if control.is_err() {
                    // Let the threads run to completion unscheduled so the
                    // scope can join them, then re-raise.
                    session.release_all();
                }
                control
            })
        }));
        SESSION.store(std::ptr::null_mut(), Ordering::Release);
        let log = std::mem::take(&mut session.lock().log);
        with_explorer(|e| e.last_log = log);
        match controlled {
            // A controller panic (replay divergence, livelock guard)
            // surfaces after the scope exits cleanly.
            Ok(Err(payload)) | Err(payload) => std::panic::resume_unwind(payload),
            Ok(Ok(())) => {}
        }
    }
}

/// Serializes explorations across test threads: the scheduler session is a
/// process-wide singleton.
static EXPLORE_LOCK: Mutex<()> = Mutex::new(());

/// Exhaustively explore every schedule of the executions `body` runs.
///
/// `body` is called once per schedule. It must be deterministic apart from
/// the scheduler's decisions: set up state, build and [`Execution::run`]
/// one execution, then check invariants, returning `Err(description)` on a
/// violation (which stops the search and captures the interleaving trace).
pub fn explore(opts: Options, mut body: impl FnMut() -> Result<(), String>) -> Report {
    let _serial = EXPLORE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    EXPLORER_CTX.with(|c| {
        *c.borrow_mut() = Some(ExplorerCtx {
            decisions: DecisionStack::default(),
            last_log: Vec::new(),
            max_steps: opts.max_steps,
        })
    });
    let mut schedules = 0u64;
    let mut violation = None;
    let complete = loop {
        schedules += 1;
        match body() {
            Ok(()) => {}
            Err(message) => {
                violation = Some(with_explorer(|e| Violation {
                    message,
                    schedule: e.decisions.schedule(),
                    trace: std::mem::take(&mut e.last_log),
                }));
                break false;
            }
        }
        if !with_explorer(|e| e.decisions.advance()) {
            break true;
        }
        if schedules >= opts.max_schedules {
            break false;
        }
    };
    EXPLORER_CTX.with(|c| *c.borrow_mut() = None);
    Report {
        schedules,
        complete,
        violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shim;
    use std::sync::atomic::Ordering as O;

    #[test]
    fn two_single_access_threads_have_two_schedules() {
        let report = explore(Options::default(), || {
            let a = shim::AtomicU32::named(0, "a");
            let b = shim::AtomicU32::named(0, "b");
            Execution::new()
                .thread("t0", || a.store(1, O::Relaxed))
                .thread("t1", || b.store(1, O::Relaxed))
                .run();
            assert_eq!(a.load(O::Relaxed), 1); // post-run: passthrough access
            assert_eq!(b.load(O::Relaxed), 1);
            Ok(())
        });
        report.assert_exhaustive_pass("two independent stores");
        assert_eq!(report.schedules, 2, "t0-first and t1-first");
    }

    #[test]
    fn handler_injects_at_every_boundary() {
        // One thread with two accesses, plus a handler: the handler can
        // arrive before access 1, between the accesses, or never — three
        // schedules. (After the last access the thread finishes immediately,
        // so "after access 2" coincides with "never" unless the script adds
        // a trailing pause.)
        let report = explore(Options::default(), || {
            let x = shim::AtomicU32::named(0, "x");
            let seen = shim::AtomicU32::named(0, "seen");
            Execution::new()
                .thread("owner", || {
                    x.store(1, O::Relaxed);
                    x.store(2, O::Relaxed);
                })
                .handler_on(0, || {
                    // Unscheduled bookkeeping only (plain std atomic would
                    // also do): record what the handler observed.
                    let _ = &seen;
                })
                .run();
            Ok(())
        });
        report.assert_exhaustive_pass("handler positions");
        assert_eq!(report.schedules, 3);
    }

    #[test]
    fn trailing_pause_exposes_post_protocol_delivery() {
        let report = explore(Options::default(), || {
            let x = shim::AtomicU32::named(0, "x");
            Execution::new()
                .thread("owner", || {
                    x.store(1, O::Relaxed);
                    pause();
                })
                .handler_on(0, || {})
                .run();
            Ok(())
        });
        report.assert_exhaustive_pass("pause point");
        // Deliver before the store, between store and pause, or never.
        assert_eq!(report.schedules, 3);
    }

    #[test]
    fn dfs_finds_the_lost_update() {
        // The canonical non-atomic increment: two threads doing
        // load-then-store(+1) on one cell. Some interleaving must lose an
        // update, and the explorer must find and report it.
        let report = explore(Options::default(), || {
            let x = shim::AtomicU32::named(0, "x");
            let bump = || {
                let v = x.load(O::Relaxed);
                x.store(v + 1, O::Relaxed);
            };
            Execution::new().thread("t0", bump).thread("t1", bump).run();
            let v = x.load(O::Relaxed);
            if v == 2 {
                Ok(())
            } else {
                Err(format!("lost update: x = {v} after two increments"))
            }
        });
        let v = report
            .violation
            .expect("explorer must find the lost update");
        assert!(v.message.contains("lost update"));
        assert!(!v.trace.is_empty(), "counterexample carries a trace");
        assert!(!v.schedule.is_empty(), "counterexample carries a schedule");
        // The rendered form is what EXPERIMENTS.md tells users to read.
        assert!(v.render().contains("interleaving trace"));
    }

    #[test]
    fn handler_accesses_interleave_with_other_threads() {
        // A handler whose body performs scheduled accesses: a thief access
        // can land *inside* the handler run. Verified by finding an
        // interleaving where the thief's load sees the handler's first
        // store but not its second.
        let report = explore(Options::default(), || {
            let a = shim::AtomicU32::named(0, "a");
            let b = shim::AtomicU32::named(0, "b");
            let saw_torn = std::sync::atomic::AtomicBool::new(false);
            Execution::new()
                .thread("owner", || {
                    pause();
                    pause();
                })
                .thread("thief", || {
                    let av = a.load(O::Relaxed);
                    let bv = b.load(O::Relaxed);
                    if av == 1 && bv == 0 {
                        saw_torn.store(true, O::Relaxed);
                    }
                })
                .handler_on(0, || {
                    a.store(1, O::Relaxed);
                    b.store(1, O::Relaxed);
                })
                .run();
            if saw_torn.load(O::Relaxed) {
                Err("thief observed the handler mid-run".into())
            } else {
                Ok(())
            }
        });
        assert!(
            report.violation.is_some(),
            "some schedule must interleave the thief inside the handler"
        );
    }

    #[test]
    fn replay_is_deterministic_across_many_schedules() {
        // A 3-thread script with several accesses each: exhausting it
        // without a replay-divergence panic is itself the assertion.
        let report = explore(Options::default(), || {
            let x = shim::AtomicU32::named(0, "x");
            let work = || {
                let v = x.load(O::Relaxed);
                x.store(v | 1, O::Relaxed);
            };
            Execution::new()
                .thread("a", work)
                .thread("b", work)
                .thread("c", work)
                .run();
            Ok(())
        });
        report.assert_exhaustive_pass("three-thread determinism");
        assert!(report.schedules >= 90, "6 orderings × interleavings");
    }
}
