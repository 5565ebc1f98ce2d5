//! Frame-loop dispatch cost: spawn-per-frame scoped threads vs the
//! persistent worker pool.
//!
//! The paper's streaming architecture beamforms volumes continuously, so
//! per-frame orchestration overhead is paid thousands of times per
//! second. Three views, all with a fixed worker count so the comparison
//! is meaningful on any host:
//!
//! * `dispatch_only` — the pure overhead floor: map a trivial closure
//!   over the schedule-tile count, spawn-per-call vs pool;
//! * `frames_per_second` — end-to-end `beamform_volume` frames, tiled
//!   over spawned scoped threads vs a warm [`VolumeLoop`] (the reported
//!   rate in elements/s **is** frames/s);
//! * `warm_loop` — the steady-state `VolumeLoop` frame time on the
//!   host-fitted schedule, the number a real-time loop budgets against.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use usbf_beamform::{Beamformer, VolumeLoop};
use usbf_core::{DelayEngine, NappeSchedule, TableSteerConfig, TableSteerEngine, Tile};
use usbf_geometry::{SystemSpec, VoxelIndex};
use usbf_par::ThreadPool;
use usbf_sim::{EchoSynthesizer, Phantom, Pulse, RfFrame};

/// Pinned worker count: benches must not depend on host core count.
const WORKERS: usize = 4;

/// The pre-pool dispatcher, kept verbatim as the baseline: spawn `n`
/// scoped threads per call, claim items dynamically, join.
fn spawn_per_call_map<T: Sync, R: Send, F: Fn(usize, &T) -> R + Sync>(
    workers: usize,
    items: &[T],
    f: F,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut chunks: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for chunk in chunks.drain(..) {
        for (i, r) in chunk {
            out[i] = Some(r);
        }
    }
    out.into_iter().map(|r| r.unwrap()).collect()
}

/// Beamform one full volume by spawning fresh threads over the schedule
/// tiles and scattering into a freshly allocated output — what every
/// frame of a real-time loop cost before the pool existed (per-frame
/// slabs, staging buffers, output volume and thread spawns).
fn beamform_spawn_per_frame(
    bf: &Beamformer,
    engine: &dyn DelayEngine,
    rf: &RfFrame,
    tiles: &[Tile],
) -> usbf_beamform::BeamformedVolume {
    let n_depth = bf.spec().volume_grid.n_depth();
    let per_tile = spawn_per_call_map(WORKERS.min(tiles.len()), tiles, |_, &tile| {
        let mut state = usbf_beamform::TileState::new(bf, tile);
        bf.beamform_tile_into(engine, rf, &mut state);
        state
    });
    let mut out = usbf_beamform::BeamformedVolume::zeros(bf.spec());
    for (tile, state) in tiles.iter().zip(per_tile) {
        for (slot, it, ip) in tile.iter_scanlines() {
            for (id, &v) in state.values()[slot * n_depth..(slot + 1) * n_depth]
                .iter()
                .enumerate()
            {
                out.set(VoxelIndex::new(it, ip, id), v);
            }
        }
    }
    out
}

fn bench_pool(c: &mut Criterion) {
    let spec = SystemSpec::tiny();
    let rf = EchoSynthesizer::new(&spec).synthesize(
        &Phantom::point(spec.volume_grid.position(VoxelIndex::new(4, 4, 8))),
        &Pulse::from_spec(&spec),
    );
    let engine = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds");
    let pool = Arc::new(ThreadPool::new(WORKERS));
    let schedule = NappeSchedule::fitted(&spec, WORKERS * 4);
    let tiles = schedule.tiles();

    // Pure dispatch overhead: the work itself is one multiply per item,
    // so the difference is thread spawn + join vs re-announcing a
    // registered job.
    let items: Vec<u64> = (0..tiles.len() as u64).collect();
    let mut g = c.benchmark_group("pool_dispatch_only");
    g.bench_function("spawn_per_call", |b| {
        b.iter(|| spawn_per_call_map(WORKERS, black_box(&items), |_, &x| x * 2))
    });
    g.bench_function("persistent_pool", |b| {
        let mut job = ThreadPool::register(&pool);
        let mut out = vec![0u64; items.len()];
        b.iter(|| {
            let items = black_box(&items);
            job.run(&mut out, &|i, s: &mut u64| *s = items[i] * 2);
            black_box(out[0])
        })
    });
    g.finish();

    // End-to-end frames per second: identical tile kernels, different
    // orchestration. Throughput is 1 element per iteration, so the
    // reported elements/s is frames/s.
    let mut g = c.benchmark_group("pool_frames_per_second");
    g.throughput(Throughput::Elements(1));
    g.bench_function("spawn_per_frame", |b| {
        let bf = Beamformer::new(&spec);
        b.iter(|| beamform_spawn_per_frame(&bf, black_box(&engine), black_box(&rf), &tiles))
    });
    g.bench_function("persistent_pool_volume_loop", |b| {
        let mut rt = VolumeLoop::with_pool(Beamformer::new(&spec), Arc::clone(&pool), &schedule);
        rt.beamform(&engine, &rf); // warm-up: all allocation happens here
        b.iter(|| {
            rt.beamform(black_box(&engine), black_box(&rf));
            black_box(rt.volume().max_abs())
        })
    });
    g.finish();

    // Steady-state warm loop on the default (host-fitted) configuration.
    let mut g = c.benchmark_group("pool_warm_loop");
    g.throughput(Throughput::Elements(1));
    g.bench_function("volume_loop_host_default", |b| {
        let mut rt = VolumeLoop::new(Beamformer::new(&spec));
        rt.beamform(&engine, &rf);
        b.iter(|| {
            rt.beamform(black_box(&engine), black_box(&rf));
            black_box(rt.volume().max_abs())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_pool);
criterion_main!(benches);
