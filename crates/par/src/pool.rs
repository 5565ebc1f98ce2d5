//! The persistent worker pool.

use crate::arena::ClaimArena;
use crate::registered::RegisteredCore;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// What a worker queue carries: the core of a preregistered job slot,
/// allocated once at `ThreadPool::register`. Announcing a run only
/// clones the `Arc`.
type WorkItem = Arc<RegisteredCore>;

/// How many announcements a worker queue can hold before its ring
/// buffer grows. Queues drain continuously (an announcement is an
/// `Arc` clone, consumed as soon as the worker wakes), so this is
/// burst headroom, not a throughput limit; any growth is retained, so
/// warm frames never re-allocate. Sized for the elastic sharded
/// runtime's worst burst: every live shard of a 64-shard fleet
/// announcing to every queue in one round.
const QUEUE_CAPACITY: usize = 256;

/// One worker's announcement queue: a preallocated ring plus a parking
/// condvar. This deliberately replaces `std::sync::mpsc` — channel
/// sends allocate a fresh block every ~32 messages, which is exactly
/// the kind of steady per-frame heap traffic the warm real-time path
/// must not have (see `tests/warm_frame_allocs.rs`, which asserts **0**
/// allocations across warm frames, announcements included).
struct WorkQueue {
    state: Mutex<QueueState>,
    available: Condvar,
}

struct QueueState {
    items: VecDeque<WorkItem>,
    /// Set when the pool drops: the worker exits once the queue drains.
    closed: bool,
}

impl WorkQueue {
    fn new() -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(QUEUE_CAPACITY),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueues an announcement and wakes the worker. Announcements to
    /// a closed (dropping) pool are discarded — the announcing owner
    /// always drains its own job, so tasks are never lost.
    fn push(&self, item: WorkItem) {
        let mut state = self.state.lock().unwrap();
        if state.closed {
            return;
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
    }

    /// Closes the queue and wakes the worker so it can exit.
    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.available.notify_all();
    }

    /// Blocks until an announcement arrives (`Some`) or the queue is
    /// closed and empty (`None`).
    fn pop(&self) -> Option<WorkItem> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).unwrap();
        }
    }

    /// Non-blocking pop, used by the worker loop to interleave queue
    /// drains with arena steal sweeps without parking.
    fn try_pop(&self) -> Popped {
        let mut state = self.state.lock().unwrap();
        match state.items.pop_front() {
            Some(item) => Popped::Item(item),
            None if state.closed => Popped::Closed,
            None => Popped::Empty,
        }
    }
}

/// Result of a non-blocking [`WorkQueue::try_pop`].
enum Popped {
    Item(WorkItem),
    Empty,
    Closed,
}

/// A pool of persistent worker threads with a per-worker job injector.
///
/// Workers are spawned **once**, at construction, and parked on their own
/// preallocated work queue; every run of a registered [`JobHandle`]
/// (see [`register`](ThreadPool::register)) is announced to the
/// per-worker queues instead of spawning threads, which is what removes
/// the per-frame thread-creation cost from real-time volume loops (see
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
    queues: Vec<Arc<WorkQueue>>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    next_announce: AtomicUsize,
    /// Registry of enrolled preregistered jobs that idle workers steal
    /// tasks from — see `crate::arena`.
    arena: Arc<ClaimArena>,
}

impl ThreadPool {
    /// Builds a pool with exactly `threads` persistent workers.
    ///
    /// A pool of 0 or 1 threads is valid: [`JobHandle::run`] then runs
    /// every task inline on the caller, with no queueing or
    /// coordination cost, and [`JobHandle::start`] on a 0-thread pool
    /// runs them inline before returning an already complete guard.
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
        let mut queues = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        let started = Arc::new(std::sync::Barrier::new(threads + 1));
        let arena = Arc::new(ClaimArena::new());
        for i in 0..threads {
            let queue = Arc::new(WorkQueue::new());
            let worker_queue = Arc::clone(&queue);
            let worker_arena = Arc::clone(&arena);
            let worker_started = Arc::clone(&started);
            let handle = std::thread::Builder::new()
                .name(format!("usbf-par-{i}"))
                .spawn(move || {
                    worker_started.wait();
                    worker_loop(&worker_queue, &worker_arena)
                })
                .expect("spawn pool worker");
            queues.push(queue);
            handles.push(handle);
        }
        started.wait();
        ThreadPool {
            queues,
            handles,
            threads,
            next_announce: AtomicUsize::new(0),
            arena,
        }
    }

    /// Builds a pool sized like [`default_threads`](Self::default_threads).
    pub fn with_default_size() -> Self {
        Self::new(Self::default_threads())
    }

    /// The default worker count: the `USBF_POOL_THREADS` environment
    /// variable if set and positive, otherwise the machine's available
    /// parallelism.
    pub fn default_threads() -> usize {
        if let Some(n) = std::env::var("USBF_POOL_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Number of persistent workers (not counting callers, which also
    /// run tasks of their own jobs).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Lifetime count of tasks executed through the work-stealing path
    /// (an idle worker claiming a task of a job announced elsewhere).
    /// Monotonic; purely telemetry — useful for asserting that stealing
    /// actually engages under heterogeneous shard load.
    pub fn steal_count(&self) -> u64 {
        self.arena.stolen()
    }

    /// The pool's claim arena (enroll/retire happens in
    /// `ThreadPool::register` / `JobHandle::drop`).
    pub(crate) fn arena(&self) -> &ClaimArena {
        &self.arena
    }

    /// Announces a preregistered job to `count` distinct worker queues,
    /// round-robin. One announcement per *worker*, never per task: the
    /// job's tasks are claimed by index from the shared core, so waking
    /// `min(threads, tasks)` workers is all the fan-out a run needs.
    pub(crate) fn announce_registered(&self, core: &Arc<RegisteredCore>, count: usize) {
        if self.queues.is_empty() {
            return;
        }
        let n = count.min(self.queues.len());
        let start = self.next_announce.fetch_add(n, Ordering::Relaxed);
        for k in 0..n {
            let i = (start + k) % self.queues.len();
            // Announcing to a dropping pool is a no-op; the run's owner
            // drains its own job regardless, so tasks are never lost.
            self.queues[i].push(Arc::clone(core));
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Close every queue so workers fall out of `pop`, then join.
        for queue in &self.queues {
            queue.close();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(queue: &WorkQueue, arena: &ClaimArena) {
    // Drain the own queue first (announcements carry fresh work and the
    // wake-up), then steal from any enrolled job with claimable tasks,
    // and only park when both come up empty. The blocking `pop` is the
    // park point; a new announcement to *this* queue is what wakes the
    // worker, and `JobHandle::start` announces every run to every
    // queue, so no run can pend while a worker sleeps.
    loop {
        match queue.try_pop() {
            Popped::Item(core) => {
                core.drain(false);
                continue;
            }
            Popped::Closed => return,
            Popped::Empty => {}
        }
        if arena.steal() {
            continue;
        }
        match queue.pop() {
            Some(core) => {
                core.drain(false);
            }
            None => return,
        }
    }
}

static GLOBAL: OnceLock<Arc<ThreadPool>> = OnceLock::new();

/// The process-wide shared pool, built on first use and sized by
/// [`ThreadPool::default_threads`], as a cloneable handle for owners
/// that store it (e.g. `usbf_beamform::VolumeLoop`).
pub fn global_arc() -> Arc<ThreadPool> {
    Arc::clone(GLOBAL.get_or_init(|| Arc::new(ThreadPool::with_default_size())))
}
