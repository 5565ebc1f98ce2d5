//! The persistent worker pool.

use crate::arena::ClaimArena;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// The workers' one park point: a counter bumped by every announcement,
/// plus the shutdown flag. A worker reads `epoch` before sweeping the
/// registry and parks only while it is unchanged, so a run announced
/// during the sweep is never slept through. Neither field allocates,
/// so announcing is free of heap traffic on the warm path
/// (`tests/warm_frame_allocs.rs` asserts **0** allocations across warm
/// frames).
struct WakeState {
    epoch: u64,
    /// Set when the pool drops: every worker returns at its next check.
    closed: bool,
}

/// Why locking the wake-up state cannot fail: nothing that holds the
/// lock can panic (a `u64` bump, a flag store, a condvar check).
const UNPOISONED: &str = "no code panics while holding the wake-up lock";

/// A pool of persistent worker threads that take their tasks from one
/// registry of preregistered jobs.
///
/// Workers are spawned **once**, at construction, and park on one
/// shared wake-up counter. Every registered [`JobHandle`] (see
/// [`register`](ThreadPool::register)) is listed in the pool's job
/// registry; starting a run bumps the counter and wakes every worker,
/// and each woken worker sweeps the registry for claimable tasks. No
/// thread is spawned per frame, which is what removes the per-frame
/// thread-creation cost from real-time volume loops (see
/// `usbf_beamform::VolumeLoop`). The calling thread always participates
/// in its own run, so a pool is deadlock-free even when all workers are
/// busy — a run started from inside another run's task simply runs on
/// the thread already committed to it.
///
/// ```
/// let pool = std::sync::Arc::new(usbf_par::ThreadPool::new(2));
/// let mut job = usbf_par::ThreadPool::register(&pool);
/// let mut squares = vec![0u64; 4];
/// job.run(&mut squares, &|i, s: &mut u64| *s = (i as u64 + 1).pow(2));
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// // The same two workers serve every subsequent run.
/// job.run(&mut squares, &|i, s: &mut u64| *s += i as u64);
/// assert_eq!(squares, vec![1, 5, 11, 19]);
/// ```
///
/// [`JobHandle`]: crate::JobHandle
pub struct ThreadPool {
    wake: Arc<(Mutex<WakeState>, Condvar)>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    /// Registry of enrolled preregistered jobs: the workers' only
    /// source of tasks — see `crate::arena`.
    arena: Arc<ClaimArena>,
}

impl ThreadPool {
    /// Builds a pool with exactly `threads` persistent workers.
    ///
    /// A pool of 0 or 1 threads is valid: [`JobHandle::run`] then runs
    /// every task inline on the caller, with no wake-up or coordination
    /// cost, and [`JobHandle::start`] on a 0-thread pool runs them
    /// inline before returning an already complete guard.
    ///
    /// [`JobHandle::run`]: crate::JobHandle::run
    /// [`JobHandle::start`]: crate::JobHandle::start
    ///
    /// The constructor blocks until every worker is actually **running**,
    /// not merely spawned: a freshly created OS thread performs lazy
    /// startup work (signal-stack handler, thread-info strings) with a
    /// few heap allocations on its *own* first schedule, which — on a
    /// loaded host where a parked worker may not run for seconds — would
    /// otherwise leak into the first warm frames that happen to wake it.
    /// The startup barrier pins those allocations to construction, where
    /// all other pool allocation already lives, keeping the warm-frame
    /// zero-allocation guarantee (`tests/warm_frame_allocs.rs`)
    /// scheduler-independent.
    pub fn new(threads: usize) -> Self {
        let wake = Arc::new((
            Mutex::new(WakeState {
                epoch: 0,
                closed: false,
            }),
            Condvar::new(),
        ));
        let arena = Arc::new(ClaimArena::new());
        let started = Arc::new(std::sync::Barrier::new(threads + 1));
        let handles = (0..threads)
            .map(|i| {
                let wake = Arc::clone(&wake);
                let arena = Arc::clone(&arena);
                let started = Arc::clone(&started);
                std::thread::Builder::new()
                    .name(format!("usbf-par-{i}"))
                    .spawn(move || {
                        started.wait();
                        worker_loop(&wake, &arena)
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        started.wait();
        ThreadPool {
            wake,
            handles,
            threads,
            arena,
        }
    }

    /// Number of persistent workers (not counting callers, which also
    /// run tasks of their own jobs).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Lifetime count of tasks executed by the pool's workers, that is,
    /// every task not drained by its own run's owner. Monotonic; purely
    /// telemetry — useful for asserting that workers actually take part
    /// under heterogeneous shard load.
    pub fn steal_count(&self) -> u64 {
        self.arena.stolen()
    }

    /// The pool's claim arena (enroll/retire happens in
    /// `ThreadPool::register` / `JobHandle::drop`).
    pub(crate) fn arena(&self) -> &ClaimArena {
        &self.arena
    }

    /// Wakes every worker to sweep the registry. Called once per run,
    /// after the run is active, so a woken worker's sweep sees it.
    pub(crate) fn announce(&self) {
        let (state, parked) = &*self.wake;
        state.lock().expect(UNPOISONED).epoch += 1;
        parked.notify_all();
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // No handle (and so no run) outlives the pool: close, wake every
        // worker so it returns, then join.
        let (state, parked) = &*self.wake;
        state.lock().expect(UNPOISONED).closed = true;
        parked.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(wake: &(Mutex<WakeState>, Condvar), arena: &ClaimArena) {
    // Sweep the registry until a sweep finds nothing to run, then park
    // until the next announcement. The epoch is read *before* the sweep:
    // a run announced while the sweep was in progress has bumped it, so
    // the worker sweeps again instead of parking.
    let (state, parked) = wake;
    loop {
        let epoch = {
            let state = state.lock().expect(UNPOISONED);
            if state.closed {
                return;
            }
            state.epoch
        };
        if arena.steal() {
            continue;
        }
        let _woken = parked
            .wait_while(state.lock().expect(UNPOISONED), |s| {
                s.epoch == epoch && !s.closed
            })
            .expect(UNPOISONED);
    }
}

static GLOBAL: OnceLock<Arc<ThreadPool>> = OnceLock::new();

/// The process-wide shared pool, built on first use and sized by
/// [`default_threads`](crate::default_threads), as a cloneable handle
/// for owners that store it (e.g. `usbf_beamform::VolumeLoop`).
pub fn global_arc() -> Arc<ThreadPool> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(ThreadPool::new(crate::default_threads()))))
}
