//! Soak test for the multi-probe sharded runtime: a heterogeneous fleet
//! (different probes, specs and delay engines) multiplexed on one pool
//! for hundreds of frames, at several pool sizes and fleet sizes.
//!
//! What it pins down, per (pool size, fleet size) combination:
//!
//! * **bit-exactness under multiplexing** — every shard's every volume
//!   equals the serial per-shard baseline (`VolumeLoop` over the same
//!   ring of frames), bit for bit, for the whole soak; interleaving
//!   many pipelines' tile tasks on shared workers must never leak into
//!   results;
//! * **fair progress** — shards advance in lock-step rounds, so no
//!   shard may lag more than 2 frames behind the leader at any
//!   checkpoint (with `ShardedRuntime::round` the observed gap is 0;
//!   the bound leaves room for a driver that redeems out of order);
//! * **health** — no errors, no abandoned frames, per-shard counters
//!   consistent, stats monotonic, per-shard latency histograms counting
//!   every frame.
//!
//! The shard recipes and serial baselines come from the shared
//! `shard_test_harness` module, the same fixtures the churn and
//! admission tiers build on.

mod shard_test_harness;

use shard_test_harness::{shard_plans, ShardPlan};
use std::sync::Arc;
use usbf::beamform::{BeamformedVolume, ShardedRuntime};
use usbf::par::ThreadPool;

/// Soaked rounds per (pool size, fleet size) combination, sized so the
/// classic 3-shard soak still clears the test layer's 500-frame floor
/// per shard on every pool size.
const FRAMES: usize = 500;

/// Progress checkpoints: fairness is asserted every this many rounds.
const CHECK_EVERY: usize = 50;

/// One soak: `n_shards` heterogeneous shards on a `workers`-wide pool
/// for `rounds` rounds, every volume checked against its serial
/// baseline.
fn soak(plans: &[ShardPlan], workers: usize, rounds: usize) {
    let baselines: Vec<Vec<BeamformedVolume>> =
        plans.iter().map(ShardPlan::serial_baselines).collect();
    let ring_lens: Vec<usize> = plans.iter().map(|p| p.ring.len()).collect();

    let pool = Arc::new(ThreadPool::new(workers));
    let configs = plans.iter().map(ShardPlan::config).collect();
    let mut rt = ShardedRuntime::new(pool, configs);
    let ids = rt.shard_ids();
    let mut outcomes = Vec::new();

    for round in 0..rounds {
        rt.round_into(&mut outcomes);
        for (shard, outcome) in outcomes.iter().enumerate() {
            assert!(
                outcome.is_ok(),
                "{} round {round} with {workers} worker(s): {outcome:?}",
                plans[shard].name
            );
            let expect = &baselines[shard][round % ring_lens[shard]];
            assert_eq!(
                rt.volume_of(ids[shard]).expect("completed frame"),
                expect,
                "{} diverged from its serial baseline at round {round} \
                 with {workers} worker(s)",
                plans[shard].name
            );
        }
        if round % CHECK_EVERY == CHECK_EVERY - 1 {
            let counts = rt.frame_counts();
            let leader = *counts.iter().max().unwrap();
            let laggard = *counts.iter().min().unwrap();
            assert!(
                leader - laggard <= 2,
                "unfair progress at round {round} with {workers} worker(s): {counts:?}"
            );
        }
    }

    let counts = rt.frame_counts();
    assert_eq!(
        counts,
        vec![rounds as u64; plans.len()],
        "every shard completes every frame ({workers} workers)"
    );
    for (shard, plan) in plans.iter().enumerate() {
        let stats = rt.stats_of(ids[shard]).expect("live shard");
        assert_eq!(stats.frames, rounds as u64, "{}", plan.name);
        assert_eq!(stats.errors, 0, "{}", plan.name);
        assert_eq!(stats.abandoned, 0, "{}", plan.name);
        assert!(stats.frames_per_second() > 0.0);
        assert_eq!(
            stats.latency.count(),
            rounds as u64,
            "{}: every completed frame must be recorded in the latency \
             histogram",
            plan.name
        );
        assert!(stats.latency.p99() >= stats.latency.p50(), "{}", plan.name);
    }
}

#[test]
fn three_heterogeneous_shards_soak_bit_identical_at_every_pool_size() {
    // The historical fixed cast: seed 0 reproduces the exact probes,
    // engines and target rings this soak has always used.
    let plans = shard_plans(3, 0);
    for workers in [1usize, 2, 4] {
        soak(&plans, workers, FRAMES);
    }
}

#[test]
fn wider_fleets_soak_bit_identical() {
    // Fleet sizes above the worker count (6 shards / 4 workers) and far
    // above it (10 / 2): tile claims from many shards contend for few
    // workers, the regime the pool's shared job registry exists for.
    // Shorter soaks — the 3-shard test above owns the long-haul budget.
    for (n_shards, workers, rounds) in [(6usize, 4usize, 120usize), (10, 2, 60)] {
        let plans = shard_plans(n_shards, 0xFEED_FACE ^ n_shards as u64);
        soak(&plans, workers, rounds);
    }
}
