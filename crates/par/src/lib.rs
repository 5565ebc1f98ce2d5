//! Persistent worker-pool runtime for the workspace's data parallelism.
//!
//! The build environment has no registry access, so this crate provides
//! the small slice of a rayon-style runtime the workspace needs, backed
//! by a **persistent [`ThreadPool`]**. The paper's streaming architecture
//! beamforms thousands of volumes per second; spawning a thread per tile
//! per volume is exactly the kind of per-frame cost it amortizes away, so
//! workers here are created once, parked on one shared wake-up counter,
//! and take their tasks from the pool's registry of preregistered jobs.
//!
//! Two layers:
//!
//! * [`ThreadPool`] — the pool itself: `new(threads)` or the process-wide
//!   instance behind [`global_arc`] (sized from `USBF_POOL_THREADS` or
//!   the available parallelism);
//! * [`ThreadPool::register`] / [`JobHandle::run`] /
//!   [`JobHandle::start`] — preregistered job slots, the one dispatch
//!   shape: the completion barrier is allocated once and listed in the
//!   pool's registry for the handle's lifetime; a run only activates it
//!   and wakes the workers, with borrowed state dispatched through a
//!   function pointer, so a warm run performs **zero per-task heap
//!   allocations** (no `Arc` churn, no task boxing). `run` joins before
//!   returning; `start` returns a [`PendingJob`] guard that keeps the run
//!   in flight while the caller does other work — `wait()`/`try_wait()`
//!   redeem it, dropping it joins. A one-shot parallel section is a fresh
//!   handle run once.
//!
//! Tasks are claimed by index, so stragglers don't serialize the pool.
//! Every announcement wakes every worker; a woken worker claims the
//! unclaimed tasks of *any* active registered run until none is left,
//! then parks again. The calling thread always participates in its own
//! run, which makes a `run` started from inside another run's task
//! deadlock-free: the inner run is drained by its own caller even when
//! every worker is busy.
//!
//! ```
//! let pool = std::sync::Arc::new(usbf_par::ThreadPool::new(2));
//! let items = [1u64, 2, 3, 4];
//! let mut squares = vec![0u64; items.len()];
//! usbf_par::ThreadPool::register(&pool).run(&mut squares, &|i, s: &mut u64| {
//!     *s = items[i] * items[i];
//! });
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod pool;
mod registered;

pub use pool::{global_arc, ThreadPool};
pub use registered::{JobHandle, PendingJob};

/// The pool's default sizing: `USBF_POOL_THREADS` when set to a positive
/// integer, the host's available parallelism otherwise. This is the size
/// the global pool ([`global_arc`]) is built with, exposed so schedule
/// planners (e.g. tile fitting) can agree with the pool instead of
/// re-deriving a core count that ignores the override. A pure query — it
/// does not build the global pool.
pub fn default_threads() -> usize {
    std::env::var("USBF_POOL_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn global_pool_is_built_once() {
        assert!(Arc::ptr_eq(&global_arc(), &global_arc()));
        assert_eq!(global_arc().threads(), default_threads());
    }
}
