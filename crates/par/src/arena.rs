//! The claim arena: a generation-tagged registry of the pool's
//! preregistered job slots, and the pool workers' **only** source of
//! tasks.
//!
//! Every [`JobHandle`](crate::JobHandle) is enrolled here for its whole
//! lifetime; each of its runs keeps its own claim cursor (the
//! `RunState::next` index inside the job's `RegisteredCore`). The arena
//! is the shared view over those per-shard cursors. An announcement
//! carries no work, it only wakes the workers: each woken worker walks
//! the arena and drains every enrolled run that still has unclaimed
//! tasks, and parks again once a whole sweep runs nothing.
//!
//! Why this matters for the sharded runtime: the set of workers that
//! can touch a run is never fixed at announce time. One shard with slow
//! tiles cannot idle the pool while a sibling's tiles wait — *any* awake
//! worker claims them.
//!
//! Soundness: a sweep only ever calls [`RegisteredCore::drain`] with
//! `owner == false`, which claims task indices under the run's own
//! mutex — the same exactly-once claim the owning guard uses. Slots are
//! generation-tagged so a retired handle's slot can be reused without a
//! stale retire clearing the newcomer: `retire(slot, generation)` is a
//! no-op unless the generation still matches. The arena holds `Weak`
//! references, so it never extends a core's lifetime; an un-upgradable
//! slot is simply skipped.

use crate::registered::RegisteredCore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// One enrolled job slot: the generation tag plus a weak handle on the
/// job's shared core. `core == None` marks a free (reusable) slot.
struct ArenaSlot {
    generation: u64,
    core: Option<Weak<RegisteredCore>>,
}

/// The pool-wide registry of enrolled preregistered jobs. See the module
/// docs for the claim contract.
pub(crate) struct ClaimArena {
    slots: Mutex<Vec<ArenaSlot>>,
    /// Tasks executed by sweeps, that is, by pool workers (telemetry,
    /// monotonic).
    stolen: AtomicU64,
}

impl ClaimArena {
    pub(crate) fn new() -> Self {
        ClaimArena {
            slots: Mutex::new(Vec::new()),
            stolen: AtomicU64::new(0),
        }
    }

    /// Enrolls a job core, returning its `(slot, generation)` ticket.
    /// Allocation (a possible `Vec` grow) happens here — at
    /// `ThreadPool::register` time — never on the warm sweep path.
    pub(crate) fn enroll(&self, core: &Arc<RegisteredCore>) -> (usize, u64) {
        let mut slots = self.slots.lock().unwrap();
        if let Some(i) = slots.iter().position(|s| s.core.is_none()) {
            slots[i].generation += 1;
            slots[i].core = Some(Arc::downgrade(core));
            return (i, slots[i].generation);
        }
        slots.push(ArenaSlot {
            generation: 0,
            core: Some(Arc::downgrade(core)),
        });
        (slots.len() - 1, 0)
    }

    /// Retires an enrollment. A stale ticket (the slot was already
    /// reused by a later enrollee) is a no-op — the generation tag is
    /// what makes shard-slot reuse safe under detach/attach churn.
    pub(crate) fn retire(&self, slot: usize, generation: u64) {
        let mut slots = self.slots.lock().unwrap();
        if let Some(s) = slots.get_mut(slot) {
            if s.generation == generation {
                s.core = None;
            }
        }
    }

    /// One sweep: drains every enrolled core that currently has
    /// claimable tasks, returning `true` if at least one task was
    /// actually executed here. The slots mutex is never held while a
    /// task runs — each iteration takes the lock only long enough to
    /// upgrade one weak handle.
    pub(crate) fn steal(&self) -> bool {
        let mut executed = 0u64;
        let mut i = 0;
        loop {
            let core = {
                let slots = self.slots.lock().unwrap();
                let Some(slot) = slots.get(i) else { break };
                slot.core.as_ref().and_then(Weak::upgrade)
            };
            if let Some(core) = core {
                if core.maybe_claimable() {
                    executed += core.drain(false) as u64;
                }
            }
            i += 1;
        }
        if executed > 0 {
            self.stolen.fetch_add(executed, Ordering::Relaxed);
        }
        executed > 0
    }

    /// Lifetime count of tasks executed by sweeps.
    pub(crate) fn stolen(&self) -> u64 {
        self.stolen.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use crate::ThreadPool;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Barrier};

    /// Deterministic steal: pin both workers inside one job's tasks,
    /// start a second job that no worker is free to sweep,
    /// and run a steal sweep from the test thread — it must claim and
    /// execute every one of the second job's tasks exactly once.
    #[test]
    fn steal_sweep_executes_unclaimed_tasks_exactly_once() {
        let pool = Arc::new(ThreadPool::new(2));
        let mut pinner = ThreadPool::register(&pool);
        let mut victim = ThreadPool::register(&pool);

        // Rendezvous A: both workers are inside `pinner` tasks.
        // Rendezvous B: released only after the steal assertions.
        let entered = Arc::new(Barrier::new(3));
        let release = Arc::new(Barrier::new(3));
        let gates = (Arc::clone(&entered), Arc::clone(&release));

        let mut pin_slots = vec![0u8; 2];
        let pending_pin = pinner.start(&mut pin_slots, &gates, |g, _, s: &mut u8| {
            g.0.wait();
            g.1.wait();
            *s = 1;
        });
        entered.wait();

        let hits = AtomicU64::new(0);
        let mut slots = vec![0u64; 3];
        let ctx = &hits;
        let pending = victim.start(&mut slots, &ctx, |h, i, s: &mut u64| {
            h.fetch_add(1, Ordering::Relaxed);
            *s = i as u64 + 1;
        });

        let before = pool.steal_count();
        assert!(pool.arena().steal(), "sweep must claim the pending tasks");
        assert_eq!(hits.load(Ordering::Relaxed), 3, "each task ran once");
        assert_eq!(pool.steal_count(), before + 3);
        assert!(pending.try_wait(), "stolen run is complete");
        // A second sweep finds nothing claimable.
        assert!(!pool.arena().steal());
        assert_eq!(pool.steal_count(), before + 3);

        release.wait();
        pending_pin.wait();
        let slots = pending.wait();
        assert_eq!(slots, &mut [1, 2, 3]);
        assert_eq!(pin_slots, vec![1, 1]);
    }

    /// Slot reuse across register/drop churn is generation-checked: a
    /// retired handle's slot is handed to the next registrant, and the
    /// old ticket can no longer clear it.
    #[test]
    fn enrollment_slots_recycle_with_fresh_generations() {
        let pool = Arc::new(ThreadPool::new(2));
        let arena = pool.arena();
        drop(ThreadPool::register(&pool)); // frees its slot for reuse
        for round in 0..8u64 {
            let mut job = ThreadPool::register(&pool);
            let mut slots = vec![0u64; 4];
            job.run(&mut slots, &|i, s: &mut u64| *s = round + i as u64);
            assert_eq!(slots[3], round + 3);
            // Dropping retires; a stale steal sweep between lifetimes
            // must find nothing.
            drop(job);
            assert!(!arena.steal(), "round {round}: retired slot not idle");
        }
    }
}
