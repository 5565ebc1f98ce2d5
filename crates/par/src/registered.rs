//! Preregistered job slots: frame-rate dispatch with the per-frame
//! allocations removed, and a guard-object API for keeping a run **in
//! flight** while the caller does other work.
//!
//! A real-time volume loop announces the *same* job shape thousands of
//! times per second, so anything allocated per run — a job core, one
//! boxed closure per task — is steady per-frame heap traffic on the
//! dispatch path. A [`JobHandle`] has none: its completion barrier is
//! allocated **once**, at [`ThreadPool::register`], and every run
//! re-announces it with borrowed state dispatched through a
//! monomorphized function pointer — no task boxing, no `Arc` creation,
//! no per-tile allocation of any kind. It is the only kind of job the
//! pool runs; a one-shot parallel section registers a handle, runs it
//! once and drops it.
//!
//! Two ways to run a handle share that machinery:
//!
//! * [`JobHandle::run`] — synchronous: announce, help drain, return when
//!   every task has finished (the shape `usbf_beamform::VolumeLoop`
//!   drives every frame);
//! * [`JobHandle::start`] — asynchronous: announce and return a
//!   [`PendingJob`] guard immediately, leaving the tasks to the pool's
//!   workers. The guard borrows the state slice and the shared context,
//!   so the borrow checker proves they outlive the in-flight work;
//!   [`PendingJob::wait`] joins (helping drain) and re-throws the first
//!   task panic, [`PendingJob::try_wait`] polls without blocking, and
//!   dropping the guard joins silently. This is what lets
//!   `usbf_beamform::FramePipeline::submit` kick off beamforming of
//!   frame `n` and hand control back to a caller still consuming volume
//!   `n − 1`.
//!
//! Tasks are indexed rather than enqueued: a run claims each index in
//! `0..states.len()` exactly once (one claim under the job mutex),
//! handing task `i` exclusive access to `states[i]`. That fits the fixed
//! work shape of a frame loop — one task per depth band or schedule
//! tile, each owning its warm slab — and is what lets the borrow discipline stay sound
//! without erasing one closure per task.

use crate::pool::ThreadPool;
use std::any::Any;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The monomorphized trampoline stored for the duration of one run:
/// `(context pointer, user fn pointer, task index, state base pointer)`.
type CallFn = fn(*const (), *const (), usize, *mut ());

/// Mutable state of the current (or most recent) run, guarded by one
/// mutex. The raw pointers are only ever dereferenced by tasks claimed
/// while `active` is true, and the run's owner ([`JobHandle::run`], or
/// the [`PendingJob`] guard for asynchronous runs) does not release its
/// borrows until every claimed task has finished — which is what makes
/// the borrowed context and state slice sound.
struct RunState {
    call: Option<CallFn>,
    /// Erased `&C` shared context of the current run.
    ctx: *const (),
    /// Erased `fn(&C, usize, &mut S)` the trampoline re-types.
    user: *const (),
    states: *mut (),
    /// Next task index to claim.
    next: usize,
    /// One past the last task index of this run.
    n_tasks: usize,
    /// Claimed but not yet finished tasks.
    in_flight: usize,
    /// True between announce and barrier completion; stale worker
    /// wake-ups observe `false` and leave immediately.
    active: bool,
}

// SAFETY: the raw pointers inside `RunState` are only dereferenced by
// tasks claimed under the mutex while `active` is true; the run's owner
// (`JobHandle::run`, or the `PendingJob` guard that `JobHandle::start`
// returns) holds the pointed-to borrows for the whole run and blocks on
// the barrier (`next == n_tasks && in_flight == 0`) before deactivating,
// so no thread can observe them dangling. The pointed-to types are
// constrained by the `start` bounds (`C: Sync`, `S: Send`).
#[allow(unsafe_code)]
unsafe impl Send for RunState {}

/// Shared core of one preregistered job: the completion barrier that is
/// allocated once and reused by every run.
pub(crate) struct RegisteredCore {
    run: Mutex<RunState>,
    complete: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Lock-free shadow of `RunState::active`, used by the workers'
    /// registry sweep (`crate::arena::ClaimArena`) to skip idle jobs
    /// without touching the run mutex. A stale `true` only costs one
    /// no-op lock; a stale `false` only delays a claim until the next
    /// sweep — correctness still rests entirely on the mutex-guarded
    /// claim in `drain`. `JobHandle::start` sets it before announcing,
    /// so a worker woken by that announcement never reads it stale.
    active_hint: AtomicBool,
}

impl RegisteredCore {
    fn new() -> Self {
        RegisteredCore {
            run: Mutex::new(RunState {
                call: None,
                ctx: std::ptr::null(),
                user: std::ptr::null(),
                states: std::ptr::null_mut(),
                next: 0,
                n_tasks: 0,
                in_flight: 0,
                active: false,
            }),
            complete: Condvar::new(),
            panic: Mutex::new(None),
            active_hint: AtomicBool::new(false),
        }
    }

    /// Cheap pre-check for the registry sweep: whether this job *might*
    /// have claimable tasks. See `active_hint`.
    pub(crate) fn maybe_claimable(&self) -> bool {
        self.active_hint.load(Ordering::Relaxed)
    }

    /// Claims and runs tasks, returning how many tasks this call
    /// executed. Workers (`owner == false`) leave as soon as no task is
    /// claimable — the job may be inactive, finished, or not yet
    /// announced again. The owner keeps waiting until every task of the
    /// current run has been claimed **and** finished.
    pub(crate) fn drain(&self, owner: bool) -> usize {
        let mut executed = 0;
        let mut run = self.run.lock().unwrap();
        loop {
            if run.active && run.next < run.n_tasks {
                let i = run.next;
                run.next += 1;
                run.in_flight += 1;
                let (call, ctx, user, states) = (
                    run.call.expect("active run has a call"),
                    run.ctx,
                    run.user,
                    run.states,
                );
                drop(run);
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| call(ctx, user, i, states)))
                {
                    let mut slot = self.panic.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
                run = self.run.lock().unwrap();
                run.in_flight -= 1;
                executed += 1;
                self.complete.notify_all();
                continue;
            }
            if !owner || (run.next >= run.n_tasks && run.in_flight == 0) {
                return executed;
            }
            run = self.complete.wait(run).unwrap();
        }
    }

    /// Whether the current run has claimed and finished every task.
    /// Meaningful only between announce and deactivation.
    fn is_complete(&self) -> bool {
        let run = self.run.lock().unwrap();
        run.next >= run.n_tasks && run.in_flight == 0
    }

    /// Ends the current run: clears the erased pointers so stale worker
    /// wake-ups can never claim into freed borrows.
    fn deactivate(&self) {
        let mut run = self.run.lock().unwrap();
        run.active = false;
        self.active_hint.store(false, Ordering::Relaxed);
        run.call = None;
        run.ctx = std::ptr::null();
        run.user = std::ptr::null();
        run.states = std::ptr::null_mut();
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic.lock().unwrap().take()
    }
}

/// A reusable, preregistered job slot on a [`ThreadPool`], created by
/// [`ThreadPool::register`].
///
/// A `JobHandle` owns its completion barrier for life and dispatches
/// every run through borrowed state — a warm [`run`](JobHandle::run) or
/// [`start`](JobHandle::start) performs **zero** heap allocations (waking
/// the workers bumps a counter). Every parallel run in the workspace sits
/// on it: `usbf_beamform::VolumeLoop` registers one handle at
/// construction and re-announces it every frame (a cold
/// `Beamformer::beamform_volume` is one such frame), and
/// `usbf_beamform::FramePipeline` starts one asynchronous run per
/// submitted frame.
///
/// ```
/// let pool = std::sync::Arc::new(usbf_par::ThreadPool::new(2));
/// let mut job = usbf_par::ThreadPool::register(&pool);
/// let mut totals = vec![0u64; 8];
/// for frame in 1..=3u64 {
///     // Borrowed closure, one task per slot: no boxing, no Arc churn.
///     job.run(&mut totals, &|i, slot: &mut u64| *slot += frame + i as u64);
/// }
/// assert_eq!(totals[0], 6);
/// assert_eq!(totals[7], 27);
/// ```
#[must_use = "a registered job does nothing until `run` or `start` is called"]
pub struct JobHandle {
    core: Arc<RegisteredCore>,
    pool: Arc<ThreadPool>,
    /// This handle's enrollment ticket in the pool's claim arena (slot
    /// index + generation), taken at `register` and returned on drop so
    /// the slot can be reused by a later registrant.
    arena_slot: usize,
    arena_generation: u64,
}

/// Monomorphized trampoline: recovers the typed context, user function
/// and state slice from the erased pointers captured for a run.
fn call_shim<S, C>(ctx: *const (), user: *const (), i: usize, states: *mut ()) {
    // SAFETY: the run's owner stores `ctx`/`states` from live borrows
    // (held by `JobHandle::run`'s stack frame or by the `PendingJob`
    // guard) and does not release them until the barrier observes every
    // claimed task finished, so both pointers are valid for the whole
    // task. Each index is claimed exactly once per run, so
    // `states.add(i)` is an exclusive `&mut S`. `user` was created by
    // casting a `fn(&C, usize, &mut S)` pointer in `start`, the only
    // writer, and this shim is monomorphized over the same `(S, C)`
    // pair, so transmuting it back recovers the original function
    // pointer (fn pointers and data pointers share a representation on
    // every platform this crate supports).
    #[allow(unsafe_code)]
    unsafe {
        let f: fn(&C, usize, &mut S) = std::mem::transmute(user);
        f(&*(ctx as *const C), i, &mut *(states as *mut S).add(i));
    }
}

impl JobHandle {
    /// Runs `f(i, &mut states[i])` for every `i` in `0..states.len()`,
    /// in parallel on the pool's workers and the calling thread, and
    /// returns once **all** tasks have finished.
    ///
    /// Each index is claimed exactly once per run, so every task has
    /// exclusive access to its state slot; `f` may borrow anything that
    /// outlives the call (per-frame inputs like an RF frame or a delay
    /// engine go here, not into the registration). Pools of ≤ 1 thread
    /// and single-task runs execute inline on the caller.
    ///
    /// If a task panics, the first panic is re-thrown here after the
    /// completion barrier, and the handle (and pool) remain fully usable
    /// for subsequent runs.
    pub fn run<S, F>(&mut self, states: &mut [S], f: &F)
    where
        S: Send,
        F: Fn(usize, &mut S) + Sync,
    {
        // Single-worker pools and single-task runs skip the announce
        // machinery entirely: the caller was going to drain its own job
        // anyway, so inline execution is the same schedule minus the
        // coordination (and minus the barrier, so panics unwind
        // directly).
        if self.pool.threads() <= 1 || states.len() <= 1 {
            for (i, state) in states.iter_mut().enumerate() {
                f(i, state);
            }
            return;
        }
        fn invoke<S, F: Fn(usize, &mut S)>(f: &F, i: usize, state: &mut S) {
            f(i, state)
        }
        self.start(states, f, invoke::<S, F>).wait();
    }

    /// Announces a run and returns immediately with a [`PendingJob`]
    /// guard, leaving the tasks to the pool's workers: `call(ctx, i,
    /// &mut states[i])` runs for every `i` in `0..states.len()` while
    /// the caller is free to do other work. Redeem the guard with
    /// [`PendingJob::wait`] (blocks, helps drain, re-throws the first
    /// task panic and hands the state slice back), poll it with
    /// [`PendingJob::try_wait`], or drop it to join silently.
    ///
    /// `ctx` is the run's shared read-only context (per-frame inputs
    /// like an RF frame or a delay engine); `call` is a plain function
    /// pointer so nothing of the run needs to be boxed or moved — the
    /// guard borrows `states` and `ctx`, which is what keeps them alive
    /// for the in-flight tasks. On a pool with no workers
    /// (`threads() == 0`) the run executes inline here and the returned
    /// guard is already complete.
    ///
    /// ```
    /// let pool = std::sync::Arc::new(usbf_par::ThreadPool::new(2));
    /// let mut job = usbf_par::ThreadPool::register(&pool);
    /// let mut slots = vec![0u64; 4];
    /// let bias = 7u64;
    /// let pending = job.start(&mut slots, &bias, |b, i, s: &mut u64| *s = b + i as u64);
    /// // ... caller-side work overlaps the in-flight tasks here ...
    /// let slots = pending.wait();
    /// assert_eq!(slots, &mut [7, 8, 9, 10]);
    /// ```
    pub fn start<'a, S, C>(
        &'a mut self,
        states: &'a mut [S],
        ctx: &'a C,
        call: fn(&C, usize, &mut S),
    ) -> PendingJob<'a, S>
    where
        S: Send,
        C: Sync,
    {
        let n = states.len();
        // No workers to hand the tasks to: run them here, now. The guard
        // comes back already complete (panics are still delivered at
        // `wait`, matching the announced path).
        if self.pool.threads() == 0 || n == 0 {
            for (i, state) in states.iter_mut().enumerate() {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| call(ctx, i, state))) {
                    let mut slot = self.core.panic.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                }
            }
            return PendingJob {
                core: Arc::clone(&self.core),
                announced: false,
                states: Some(states),
                _ctx: PhantomData,
            };
        }

        {
            let mut run = self.core.run.lock().unwrap();
            // A hard assert, not a debug_assert: with the guard API this
            // is unreachable through sound code (starting needs `&mut
            // self`, which the live PendingJob holds), so tripping it
            // means a guard was leaked — fail loudly rather than hand
            // two runs one RunState.
            assert!(
                !run.active,
                "a JobHandle supports one run at a time (was a PendingJob leaked?)"
            );
            run.call = Some(call_shim::<S, C>);
            run.ctx = ctx as *const C as *const ();
            run.user = call as *const ();
            run.states = states.as_mut_ptr() as *mut ();
            run.next = 0;
            run.n_tasks = n;
            run.in_flight = 0;
            run.active = true;
            self.core.active_hint.store(true, Ordering::Relaxed);
        }
        // Only now, with the run active and `active_hint` set, wake the
        // workers: a worker woken by this announcement sweeps the
        // registry and sees the run.
        self.pool.announce();
        PendingJob {
            core: Arc::clone(&self.core),
            announced: true,
            states: Some(states),
            _ctx: PhantomData,
        }
    }
}

/// A guard over one in-flight run of a preregistered job, returned by
/// [`JobHandle::start`].
///
/// While the guard lives, the pool's workers are executing the run's
/// tasks against the borrowed state slice and context; the borrow
/// checker therefore proves those borrows outlive the work. The guard
/// **joins on every exit path**:
///
/// * [`wait`](PendingJob::wait) blocks until all tasks finish (helping
///   drain them), re-throws the first task panic, and returns the state
///   slice;
/// * [`wait_result`](PendingJob::wait_result) is the same join but hands
///   the panic payload back as a value instead of unwinding — the shape
///   runtime layers that convert panics into typed errors want;
/// * [`try_wait`](PendingJob::try_wait) polls completion without
///   blocking (panics stay queued for the eventual `wait`);
/// * dropping the guard blocks until all tasks finish and **discards**
///   any captured panic — drop-joins keep the borrows sound even when a
///   frame is abandoned, but only `wait`/`wait_result` observe failures.
///
/// Leaking the guard (e.g. [`std::mem::forget`]) is outside the
/// contract: the join in `wait`/drop is what guarantees the borrows are
/// not released while tasks still run, exactly like the pre-1.0
/// `JoinGuard` scoped-thread API this mirrors. Do not forget a
/// `PendingJob`. As defense in depth, dropping the [`JobHandle`] itself
/// joins any still-active run, and a `start` while a leaked run is
/// still active panics — owners that keep the handle declared before
/// the state it dispatches over (as `usbf_beamform::FramePipeline`
/// does) therefore stay join-before-free even on the leak path.
#[must_use = "dropping a PendingJob joins it immediately, discarding any panic; call wait()"]
pub struct PendingJob<'a, S: Send> {
    core: Arc<RegisteredCore>,
    /// Whether the run went through the announce path (false for the
    /// inline no-worker path, whose tasks already finished in `start`).
    announced: bool,
    /// The borrowed state slice, handed back by `wait`. `None` only
    /// after the join already consumed it.
    states: Option<&'a mut [S]>,
    _ctx: PhantomData<&'a ()>,
}

impl<'a, S: Send> PendingJob<'a, S> {
    /// Returns `true` once every task of the run has finished, without
    /// blocking. A `true` result means [`wait`](PendingJob::wait) will
    /// return without further blocking (it still performs the panic
    /// delivery and hands the states back).
    pub fn try_wait(&self) -> bool {
        !self.announced || self.core.is_complete()
    }

    /// Blocks until every task has finished (claiming and running
    /// remaining tasks on the calling thread, like a synchronous
    /// [`JobHandle::run`]), then hands back the panic payload — if any
    /// task panicked — together with the state slice either way.
    ///
    /// This is the non-unwinding join used by runtime layers that turn
    /// task panics into typed per-frame errors
    /// (`usbf_beamform::PipelineError::Beamform`).
    pub fn wait_result(mut self) -> (&'a mut [S], Option<Box<dyn Any + Send>>) {
        let payload = self.join();
        let states = self.states.take().expect("join leaves the states in place");
        // The drop join is a no-op now: `join` cleared `announced` and
        // drained the panic slot, so letting the guard drop normally
        // just releases its `Arc` clone.
        (states, payload)
    }

    /// Blocks until every task has finished, re-throws the first task
    /// panic if there was one, and hands the state slice back (its
    /// borrow ends with the guard, so the caller regains full access).
    pub fn wait(self) -> &'a mut [S] {
        let (states, payload) = self.wait_result();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
        states
    }

    /// The join shared by `wait_result` and `Drop`: help drain, block on
    /// the barrier, deactivate the run and collect any panic.
    fn join(&mut self) -> Option<Box<dyn Any + Send>> {
        if self.announced {
            self.core.drain(true);
            self.core.deactivate();
            self.announced = false;
        }
        self.core.take_panic()
    }
}

impl<S: Send> Drop for PendingJob<'_, S> {
    fn drop(&mut self) {
        // Dropping without `wait` still joins — the borrows this guard
        // holds must not end while tasks run — but the panic (if any) is
        // discarded: there is no caller to deliver it to, and leaving it
        // queued would mis-attribute it to the handle's next run.
        let _ = self.join();
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        // Defense in depth against a leaked PendingJob: if a guard was
        // forgotten while its run was active, join that run before the
        // handle goes away. Owners that declare the handle before the
        // state it dispatches over (as `usbf_beamform::FramePipeline`
        // does) are then guaranteed the workers are done before the
        // state is freed, even on the leak path.
        let active = self.core.run.lock().map(|run| run.active).unwrap_or(false);
        if active {
            self.core.drain(true);
            self.core.deactivate();
            let _ = self.core.take_panic();
        }
        // Hand the arena slot back (generation-checked, so a slot this
        // handle no longer owns is left alone). Workers mid-sweep hold a
        // `Weak` at most — retiring never races a running sweep into a
        // freed core.
        self.pool
            .arena()
            .retire(self.arena_slot, self.arena_generation);
    }
}

impl ThreadPool {
    /// Registers a reusable job slot on this pool, allocating its
    /// completion barrier once. Every subsequent [`JobHandle::run`] or
    /// [`JobHandle::start`] re-announces the same slot — no per-frame
    /// `Arc`, no per-task boxing. See [`JobHandle`] for the dispatch
    /// contract.
    pub fn register(self: &Arc<Self>) -> JobHandle {
        let core = Arc::new(RegisteredCore::new());
        let (arena_slot, arena_generation) = self.arena().enroll(&core);
        JobHandle {
            core,
            pool: Arc::clone(self),
            arena_slot,
            arena_generation,
        }
    }
}
