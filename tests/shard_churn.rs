//! Churn soak for the elastic sharded runtime: a fleet that grows to 64
//! heterogeneous shards and shrinks back under seeded random
//! attach/detach, with sibling shards streaming throughout.
//!
//! What it pins down, in one `#[test]` (the binary carries a counting
//! global allocator, so no concurrent test may pollute the counter):
//!
//! * **bit-exactness under churn** — every live shard's every volume
//!   equals its serial `VolumeLoop` baseline, bit for bit, no matter
//!   how many siblings attached or detached around it;
//! * **fair progress** — within every epoch, shards that stay live gain
//!   frames within a skew of ≤ 2 of each other (observed: 0 — `round`
//!   advances every admitted shard exactly once);
//! * **zero warm-path allocations** — once every live shard is warm,
//!   steady rounds of the full fleet perform **zero** heap allocations,
//!   churn or not in the epochs around them;
//! * **mid-flight detach safety** — detaching a shard while another
//!   pipeline's tiles are in flight on the shared pool never deadlocks,
//!   never leaks a claim, and never perturbs the in-flight volume;
//! * **typed backpressure** — attaching past the budget's shard cap is
//!   rejected with `AdmissionError::ShardLimit`, not queued;
//! * **honest telemetry** — every shard's latency histogram counts
//!   exactly its completed frames and reports a non-degenerate
//!   p50 ≤ p99; the fleet merge preserves totals.
//!
//! Scale knobs (reduced in CI's determinism matrix): `USBF_CHURN_SHARDS`
//! (peak fleet, default 64), `USBF_CHURN_EPOCHS` (default 8),
//! `USBF_CHURN_ROUNDS` (rounds per epoch, default 5), `USBF_CHURN_SEED`,
//! and `USBF_POOL_THREADS` for the pool width.

mod shard_test_harness;

use shard_test_harness::{shard_plans, Rng, ShardPlan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use usbf::beamform::{
    AdmissionError, BeamformedVolume, Beamformer, FramePipeline, FrameRing, RuntimeBudget, ShardId,
    ShardedRuntime,
};
use usbf::core::NappeSchedule;
use usbf::par::ThreadPool;

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// One attached session: which recipe it runs and the id naming it.
struct Live {
    plan: usize,
    id: ShardId,
}

#[test]
fn churning_fleet_stays_bit_identical_fair_and_allocation_free() {
    let peak = env_or("USBF_CHURN_SHARDS", 64).max(4);
    let epochs = env_or("USBF_CHURN_EPOCHS", 8).max(2);
    let rounds = env_or("USBF_CHURN_ROUNDS", 5).max(3);
    let workers = env_or("USBF_POOL_THREADS", 4).max(1);
    let seed = env_or("USBF_CHURN_SEED", 0x0C0A_57A1) as u64;
    let mut rng = Rng(seed);

    // The full cast and their serial baselines, computed once up front.
    let plans = shard_plans(peak, seed);
    let baselines: Vec<Vec<BeamformedVolume>> =
        plans.iter().map(ShardPlan::serial_baselines).collect();

    let pool = Arc::new(ThreadPool::new(workers));
    let mut rt = ShardedRuntime::with_budget(
        Arc::clone(&pool),
        RuntimeBudget {
            max_live_shards: peak,
            max_in_flight: usize::MAX,
            max_round_voxels: None,
        },
    );

    // A standalone pipeline on the same pool, used to hold a frame
    // in flight across a detach (the runtime's own tickets borrow the
    // runtime, so a sibling *outside* it exercises detach-while-busy).
    let witness_plan = &plans[0];
    let mut witness = FramePipeline::with_pool(
        Beamformer::new(&witness_plan.spec),
        Arc::clone(&witness_plan.engine),
        FrameRing::new(witness_plan.ring.clone()),
        Arc::clone(&pool),
        &NappeSchedule::fitted(&witness_plan.spec, workers * 2),
    );
    let mut witness_frames = 0usize;

    let mut live: Vec<Live> = Vec::with_capacity(peak);
    let mut outcomes = Vec::with_capacity(peak);
    let mut detached_sessions = 0u64;
    let mut detached_frames = 0u64;

    // Seed fleet: half the peak.
    for _ in 0..peak / 2 {
        let plan = rng.below(plans.len());
        let id = rt.attach_shard(plans[plan].config()).expect("under budget");
        live.push(Live { plan, id });
    }

    for epoch in 0..epochs {
        let churn_epoch = epoch % 2 == 1;
        if churn_epoch {
            // Detach a random subset (keep a couple alive), collecting
            // final stats; one detach happens while the witness has a
            // frame mid-flight on the shared pool.
            let ticket = witness.submit().expect("witness submit");
            let mut i = 0;
            let mut detached_this_epoch = false;
            while i < live.len() {
                if live.len() > 2 && rng.chance(30) {
                    let gone = live.swap_remove(i);
                    let stats = rt.detach_shard(gone.id).expect("live shard detaches");
                    assert_eq!(stats.errors, 0, "detached shard had errors");
                    assert_eq!(
                        stats.latency.count(),
                        stats.frames,
                        "latency histogram must count every completed frame"
                    );
                    assert!(
                        rt.detach_shard(gone.id).is_none(),
                        "stale id must be inert after detach"
                    );
                    detached_sessions += 1;
                    detached_frames += stats.frames;
                    detached_this_epoch = true;
                } else {
                    i += 1;
                }
            }
            assert!(detached_this_epoch || live.len() <= 2);
            // Redeem the in-flight frame: the detaches above must not
            // have deadlocked the pool or corrupted the claim state.
            ticket.wait().expect("witness frame survives detaches");
            witness_frames += 1;
            let expect = &baselines[0][(witness_frames - 1) % witness_plan.ring.len()];
            assert_eq!(
                witness.volume(),
                Some(expect),
                "mid-flight frame diverged across detach (epoch {epoch})"
            );

            // Attach replacements, sometimes all the way to the cap.
            let target = if rng.chance(25) {
                peak
            } else {
                (live.len() + 1 + rng.below(peak - 2)).min(peak)
            };
            while live.len() < target {
                let plan = rng.below(plans.len());
                let id = rt.attach_shard(plans[plan].config()).expect("under budget");
                live.push(Live { plan, id });
            }
            if live.len() == peak {
                // At the cap, admission must reject with the typed error.
                assert_eq!(
                    rt.attach_shard(plans[0].config()).unwrap_err(),
                    AdmissionError::ShardLimit {
                        live: peak,
                        max: peak
                    },
                    "attach past the cap must be a typed rejection"
                );
            }
        }
        assert_eq!(rt.n_shards(), live.len());

        // Frame counts at epoch start, for the fairness bound.
        let start_frames: Vec<u64> = live
            .iter()
            .map(|l| rt.stats_of(l.id).expect("live").frames)
            .collect();

        // Two warm rounds (fresh shards allocate their slabs/threads
        // here), then measured rounds that must allocate nothing.
        for r in 0..rounds {
            let measured = r >= 2;
            let before = ALLOCS.load(Ordering::SeqCst);
            rt.round_into(&mut outcomes);
            let delta = ALLOCS.load(Ordering::SeqCst) - before;
            assert!(
                outcomes.iter().all(|o| o.is_ok()),
                "epoch {epoch} round {r}: unhealthy outcome"
            );
            assert_eq!(outcomes.len(), live.len());
            if measured {
                assert_eq!(
                    delta,
                    0,
                    "epoch {epoch} round {r}: a warm churned round of {} shards \
                     allocated {delta} times — the warm path regressed",
                    live.len()
                );
            }
            // Bit-identity: every live shard against its own serial
            // baseline, every round.
            for l in &live {
                let frames = rt.stats_of(l.id).expect("live").frames;
                assert!(frames > 0);
                let ring = &baselines[l.plan];
                let expect = &ring[(frames as usize - 1) % ring.len()];
                assert_eq!(
                    rt.volume_of(l.id),
                    Some(expect),
                    "{} (shard {}) diverged at epoch {epoch} round {r}",
                    plans[l.plan].name,
                    l.id
                );
            }
        }

        // Fairness: every shard that was live for the whole epoch gained
        // the same number of frames, within the documented skew bound.
        let gained: Vec<u64> = live
            .iter()
            .zip(&start_frames)
            .map(|(l, start)| rt.stats_of(l.id).expect("live").frames - start)
            .collect();
        let max = *gained.iter().max().unwrap();
        let min = *gained.iter().min().unwrap();
        assert!(
            max - min <= 2,
            "epoch {epoch}: unfair progress among continuously-live shards: \
             gained {gained:?}"
        );
        assert_eq!(max as usize, rounds, "lock-step rounds gain one frame each");
    }

    // Telemetry is honest fleet-wide: the merged histogram preserves
    // totals, and every shard's own histogram is non-degenerate.
    let fleet = rt.fleet_latency();
    let mut sum = 0u64;
    for l in &live {
        let stats = rt.stats_of(l.id).expect("live");
        assert_eq!(stats.errors, 0, "{}", plans[l.plan].name);
        assert_eq!(stats.abandoned, 0, "{}", plans[l.plan].name);
        assert_eq!(stats.latency.count(), stats.frames);
        assert!(stats.frames > 0);
        let (p50, p99) = (stats.latency.p50(), stats.latency.p99());
        assert!(
            std::time::Duration::ZERO < p50 && p50 <= p99,
            "{}: degenerate latency profile p50={p50:?} p99={p99:?}",
            plans[l.plan].name
        );
        assert!(!stats.latency.saturated(), "{}", plans[l.plan].name);
        sum += stats.frames;
    }
    assert_eq!(fleet.count(), sum, "fleet merge must preserve totals");
    eprintln!(
        "CHURN_SOAK peak={peak} workers={workers} epochs={epochs} \
         live_end={} detached={detached_sessions} frames_live={sum} \
         frames_detached={detached_frames} steals={} fleet_p50={:?} fleet_p99={:?}",
        live.len(),
        pool.steal_count(),
        fleet.p50(),
        fleet.p99(),
    );

    // Drain the fleet completely; the shared pool must keep serving.
    for l in live.drain(..) {
        rt.detach_shard(l.id).expect("final detach");
    }
    assert_eq!(rt.n_shards(), 0);
    assert_eq!(rt.fleet_latency().count(), 0);
    let items: Vec<usize> = (0..64).collect();
    let mut probe = vec![0usize; items.len()];
    ThreadPool::register(&pool).run(&mut probe, &|i, s: &mut usize| *s = items[i] * 2);
    assert_eq!(probe, items.iter().map(|x| x * 2).collect::<Vec<_>>());
}
