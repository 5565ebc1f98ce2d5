//! Sharded-runtime throughput: the asynchronous submit/ticket shape vs
//! the synchronous loop, and 1–4 probes multiplexed on one fixed-size
//! pool.
//!
//! Two views:
//!
//! * `shard_async_vs_sync` — one pipeline fed by a front end with real
//!   acquisition latency, driven synchronously (`next_volume`) and
//!   asynchronously (`submit` → consume previous volume → `wait`). The
//!   async shape additionally hides the caller's own consumption work
//!   behind the in-flight beamforming;
//! * `shard_scaling` — one [`ShardedRuntime`] round at 1, 2 and 4
//!   shards on the same 4-worker pool. Throughput is volumes/s
//!   (`Elements(n_shards)` per round): fair multiplexing should scale
//!   volumes per round with shard count until the workers saturate,
//!   rather than serializing shard after shard behind pool handoffs;
//! * `shard_elastic` — the churn costs of the elastic runtime: a full
//!   attach→round→detach session cycle against a streaming 3-shard
//!   fleet (the control-plane price of elasticity, dominated by
//!   schedule fitting and the pipeline's acquisition thread), and a
//!   16-shard round (fleet-scale multiplexing, 4× oversubscribed
//!   workers, where any awake worker claiming any shard's tiles earns
//!   its keep).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use usbf_beamform::{Beamformer, FramePipeline, FrameSource, ShardConfig, ShardedRuntime};
use usbf_core::{DelayEngine, ExactEngine, TableSteerConfig, TableSteerEngine};
use usbf_geometry::{SystemSpec, VoxelIndex};
use usbf_par::ThreadPool;
use usbf_sim::{EchoSynthesizer, Phantom, Pulse, RfFrame};

/// Pinned worker count: benches must not depend on host core count.
const WORKERS: usize = 4;

/// Modeled front-end latency for the async-vs-sync comparison (the
/// acoustic round trip plus transfer; what the overlap hides).
const ACQUISITION_LATENCY: Duration = Duration::from_millis(1);

fn recorded_frame(spec: &SystemSpec, vox: VoxelIndex) -> RfFrame {
    EchoSynthesizer::new(spec).synthesize(
        &Phantom::point(spec.volume_grid.position(vox)),
        &Pulse::from_spec(spec),
    )
}

/// A prerecorded frame behind a modeled acquisition latency.
fn paced_ring(frame: RfFrame) -> impl FrameSource {
    move |out: &mut RfFrame| {
        std::thread::sleep(ACQUISITION_LATENCY);
        out.copy_from(&frame);
    }
}

fn bench_shard(c: &mut Criterion) {
    let spec = SystemSpec::tiny();
    let frame = recorded_frame(&spec, VoxelIndex::new(4, 4, 8));
    let pool = Arc::new(ThreadPool::new(WORKERS));
    let steer: Arc<dyn DelayEngine + Send + Sync> =
        Arc::new(TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds"));

    // One probe: synchronous loop vs asynchronous submit/consume/wait.
    let mut g = c.benchmark_group("shard_async_vs_sync");
    g.throughput(Throughput::Elements(1));
    g.bench_function("synchronous_next_volume", |b| {
        let schedule = usbf_beamform::shard_fitted_schedule(&spec, WORKERS, 1);
        let mut pipe = FramePipeline::with_pool(
            Beamformer::new(&spec),
            Arc::clone(&steer),
            paced_ring(frame.clone()),
            Arc::clone(&pool),
            &schedule,
        );
        pipe.next_volume().expect("warm-up frame");
        b.iter(|| {
            let vol = pipe.next_volume().expect("warm frame");
            black_box(vol.max_abs())
        })
    });
    g.bench_function("async_submit_consume_wait", |b| {
        let schedule = usbf_beamform::shard_fitted_schedule(&spec, WORKERS, 1);
        let mut pipe = FramePipeline::with_pool(
            Beamformer::new(&spec),
            Arc::clone(&steer),
            paced_ring(frame.clone()),
            Arc::clone(&pool),
            &schedule,
        );
        pipe.next_volume().expect("warm-up frame");
        b.iter(|| {
            let ticket = pipe.submit().expect("warm submit");
            // Caller-side consumption of frame n−1, overlapped with the
            // in-flight beamforming of frame n.
            let consumed = ticket.previous_volume().map(|v| v.max_abs());
            black_box(consumed);
            let vol = ticket.wait().expect("warm frame");
            black_box(vol.max_abs())
        })
    });
    g.finish();

    // 1–4 probes on the same pool: volumes per second across shards.
    let mut g = c.benchmark_group("shard_scaling");
    for n_shards in [1usize, 2, 4] {
        g.throughput(Throughput::Elements(n_shards as u64));
        g.bench_function(format!("{n_shards}_shards_round"), |b| {
            let configs = (0..n_shards)
                .map(|i| {
                    let engine: Arc<dyn DelayEngine + Send + Sync> = if i % 2 == 0 {
                        Arc::new(ExactEngine::new(&spec))
                    } else {
                        Arc::clone(&steer)
                    };
                    ShardConfig::new(
                        Beamformer::new(&spec),
                        engine,
                        usbf_beamform::FrameRing::new(vec![frame.clone()]),
                    )
                })
                .collect();
            let mut rt = ShardedRuntime::new(Arc::clone(&pool), configs);
            let mut outcomes = Vec::new();
            rt.round_into(&mut outcomes); // warm-up
            b.iter(|| {
                rt.round_into(&mut outcomes);
                black_box(outcomes.iter().filter(|o| o.is_ok()).count())
            })
        });
    }
    g.finish();

    // Elasticity: session churn against a streaming fleet, and a
    // fleet-scale round.
    let mut g = c.benchmark_group("shard_elastic");
    let shard_config = |i: usize| {
        let engine: Arc<dyn DelayEngine + Send + Sync> = if i.is_multiple_of(2) {
            Arc::new(ExactEngine::new(&spec))
        } else {
            Arc::clone(&steer)
        };
        ShardConfig::new(
            Beamformer::new(&spec),
            engine,
            usbf_beamform::FrameRing::new(vec![frame.clone()]),
        )
    };
    g.throughput(Throughput::Elements(1));
    g.bench_function("attach_round_detach", |b| {
        let mut rt = ShardedRuntime::new(Arc::clone(&pool), (0..3).map(shard_config).collect());
        let mut outcomes = Vec::new();
        rt.round_into(&mut outcomes); // warm the resident fleet
        b.iter(|| {
            let id = rt.attach_shard(shard_config(3)).expect("under budget");
            rt.round_into(&mut outcomes);
            let stats = rt.detach_shard(id).expect("live");
            black_box(stats.frames)
        })
    });
    g.throughput(Throughput::Elements(16));
    g.bench_function("16_shards_round", |b| {
        let mut rt = ShardedRuntime::new(Arc::clone(&pool), (0..16).map(shard_config).collect());
        let mut outcomes = Vec::new();
        rt.round_into(&mut outcomes); // warm-up
        b.iter(|| {
            rt.round_into(&mut outcomes);
            black_box(outcomes.iter().filter(|o| o.is_ok()).count())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_shard);
criterion_main!(benches);
