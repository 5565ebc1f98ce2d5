//! Pool-size determinism: volumes must be **bit-identical** whatever the
//! worker count.
//!
//! The paper's architectures are deterministic hardware — the same
//! insonification always produces the same delays — so the host runtime
//! must not let scheduling leak into results: tile claims race, but each
//! tile's arithmetic and the sequential scatter are fixed, so
//! `VolumeLoop`, `FramePipeline` and `ShardedRuntime` outputs may not
//! depend on `USBF_POOL_THREADS`. CI runs the whole suite at three pool
//! sizes (see `.github/workflows/ci.yml`); this file additionally pins
//! the property inside one process by comparing explicit pools of 1, 2
//! and 4 workers (1 exercises the inline path, 2 and 4 the announced
//! paths).

mod shard_test_harness;

use shard_test_harness::shard_plans;
use std::sync::Arc;
use usbf::beamform::{
    Beamformer, BmodeConfig, FramePipeline, FrameRing, PostChain, RuntimeBudget, ShardConfig,
    ShardedRuntime, VolumeLoop,
};
use usbf::core::{
    DelayEngine, ExactEngine, NaiveTableEngine, NappeSchedule, TableFreeConfig, TableFreeEngine,
    TableSteerConfig, TableSteerEngine,
};
use usbf::geometry::scan::ScanOrder;
use usbf::geometry::{SystemSpec, VoxelIndex};
use usbf::par::ThreadPool;
use usbf::sim::{EchoSynthesizer, Phantom, Pulse, RfFrame};

const POOL_SIZES: [usize; 3] = [1, 2, 4];

fn recorded_frames(spec: &SystemSpec, n: usize) -> Vec<RfFrame> {
    let synth = EchoSynthesizer::new(spec);
    let pulse = Pulse::from_spec(spec);
    (0..n)
        .map(|i| {
            let vox = VoxelIndex::new(1 + i, 2 + i, 4 + 3 * i);
            synth.synthesize(&Phantom::point(spec.volume_grid.position(vox)), &pulse)
        })
        .collect()
}

#[test]
fn volume_loop_is_bit_identical_across_pool_sizes() {
    let spec = SystemSpec::tiny();
    let frames = recorded_frames(&spec, 2);
    let schedule = NappeSchedule::fitted(&spec, 8);
    let exact = ExactEngine::new(&spec);
    let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
    let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
    for engine in [&exact as &dyn DelayEngine, &tablefree, &tablesteer] {
        let mut reference = None;
        for threads in POOL_SIZES {
            let pool = Arc::new(ThreadPool::new(threads));
            let mut rt = VolumeLoop::with_pool(Beamformer::new(&spec), pool, &schedule);
            let volumes: Vec<_> = frames
                .iter()
                .map(|rf| rt.beamform(engine, rf).clone())
                .collect();
            match &reference {
                None => reference = Some(volumes),
                Some(expect) => {
                    assert_eq!(
                        &volumes,
                        expect,
                        "{} with {} worker(s) diverged",
                        engine.name(),
                        threads
                    );
                }
            }
        }
    }
}

#[test]
fn direct_group_emit_is_bit_identical_across_pool_sizes() {
    // 32-scanline tiles hold whole 16-row groups, so TABLESTEER writes
    // them with its direct group emit (the tests above run 8-row tiles,
    // which never fill a group inside a tile).
    let spec = SystemSpec::tiny();
    let frames = recorded_frames(&spec, 2);
    let schedule = NappeSchedule::fitted(&spec, 2);
    assert!(schedule.tiles().iter().all(|t| t.scanlines() >= 16));
    let engine = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
    let mut reference = None;
    for threads in POOL_SIZES {
        let pool = Arc::new(ThreadPool::new(threads));
        let mut rt = VolumeLoop::with_pool(Beamformer::new(&spec), pool, &schedule);
        let volumes: Vec<_> = frames
            .iter()
            .map(|rf| rt.beamform(&engine, rf).clone())
            .collect();
        match &reference {
            None => reference = Some(volumes),
            Some(expect) => assert_eq!(&volumes, expect, "{threads} worker(s) diverged"),
        }
    }
    let bf = Beamformer::new(&spec);
    let expect = reference.expect("one pool size ran");
    for (rf, volume) in frames.iter().zip(&expect) {
        for i in 0..spec.volume_grid.voxel_count() {
            let v = spec.volume_grid.voxel_at(i);
            let scalar = bf.beamform_voxel(&engine, rf, v);
            assert_eq!(volume.get(v).to_bits(), scalar.to_bits(), "{v}");
        }
    }
}

#[test]
fn frame_pipeline_is_bit_identical_across_pool_sizes() {
    let spec = SystemSpec::tiny();
    let frames = recorded_frames(&spec, 3);
    let schedule = NappeSchedule::fitted(&spec, 8);
    let engine: Arc<dyn DelayEngine + Send + Sync> =
        Arc::new(TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap());
    let mut reference: Option<Vec<_>> = None;
    for threads in POOL_SIZES {
        let pool = Arc::new(ThreadPool::new(threads));
        let mut pipe = FramePipeline::with_pool(
            Beamformer::new(&spec),
            Arc::clone(&engine),
            FrameRing::new(frames.clone()),
            pool,
            &schedule,
        );
        // Alternate the synchronous and asynchronous redemption shapes:
        // both must be bit-identical at every pool size.
        let volumes: Vec<_> = (0..6)
            .map(|round| {
                if round % 2 == 0 {
                    pipe.next_volume().expect("healthy pipeline").clone()
                } else {
                    let ticket = pipe.submit().expect("healthy acquisition");
                    ticket.wait().expect("healthy beamforming").clone()
                }
            })
            .collect();
        match &reference {
            None => reference = Some(volumes),
            Some(expect) => {
                assert_eq!(
                    &volumes, expect,
                    "pipeline with {threads} worker(s) diverged"
                );
            }
        }
    }
}

#[test]
fn pool_sized_runtimes_run_the_task_shape_the_tests_above_compare() {
    // The two tests above would pass without ever running a depth band
    // if the runtimes fell back to fan-tile tasks; this pins which shape
    // each pool size actually runs. A single-transmit frame, raw or
    // post-processed, is two whole-fan depth bands per worker, not one
    // task per schedule tile.
    let spec = SystemSpec::tiny();
    let frames = recorded_frames(&spec, 1);
    let schedule = NappeSchedule::fitted(&spec, 8);
    let engine: Arc<dyn DelayEngine + Send + Sync> = Arc::new(ExactEngine::new(&spec));
    let bmode = PostChain::bmode(BmodeConfig::from_spec(&spec));
    for threads in POOL_SIZES {
        let pool = Arc::new(ThreadPool::new(threads));
        let rt = VolumeLoop::with_pool(Beamformer::new(&spec), Arc::clone(&pool), &schedule);
        assert_eq!(rt.tile_count(), 8);
        assert_eq!(rt.task_count(), 2 * threads, "{threads} worker(s)");
        let pipe = |bf: Beamformer| {
            FramePipeline::with_pool(
                bf,
                Arc::clone(&engine),
                FrameRing::new(frames.clone()),
                Arc::clone(&pool),
                &schedule,
            )
        };
        assert_eq!(pipe(Beamformer::new(&spec)).task_count(), 2 * threads);
        let post = pipe(Beamformer::new(&spec).with_postproc(bmode.clone()));
        assert_eq!(post.task_count(), 2 * threads);
    }
}

#[test]
fn sharded_runtime_is_bit_identical_across_pool_sizes() {
    let spec = SystemSpec::tiny();
    let frames = recorded_frames(&spec, 2);
    let exact: Arc<dyn DelayEngine + Send + Sync> = Arc::new(ExactEngine::new(&spec));
    let steer: Arc<dyn DelayEngine + Send + Sync> =
        Arc::new(TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap());
    let mut reference: Option<Vec<_>> = None;
    for threads in POOL_SIZES {
        let pool = Arc::new(ThreadPool::new(threads));
        let mut rt = ShardedRuntime::new(
            pool,
            vec![
                ShardConfig::new(
                    Beamformer::new(&spec),
                    Arc::clone(&exact),
                    FrameRing::new(frames.clone()),
                ),
                ShardConfig::new(
                    Beamformer::new(&spec),
                    Arc::clone(&steer),
                    FrameRing::new(frames.clone()),
                ),
            ],
        );
        let ids = rt.shard_ids();
        let mut volumes = Vec::new();
        for round in 0..4 {
            let outcomes = rt.round();
            assert!(outcomes.iter().all(|o| o.is_ok()), "round {round}");
            for &id in &ids {
                volumes.push(rt.volume_of(id).expect("completed frame").clone());
            }
        }
        match &reference {
            None => reference = Some(volumes),
            Some(expect) => {
                assert_eq!(
                    &volumes, expect,
                    "sharded runtime with {threads} worker(s) diverged"
                );
            }
        }
    }
}

#[test]
fn churned_elastic_runtime_is_bit_identical_across_pool_sizes() {
    // The same scripted attach/detach/round sequence — including a
    // deferring in-flight window — must produce the same volume stream
    // at every pool size: elasticity and admission rotate *when* frames
    // run, never what they compute.
    let plans = shard_plans(5, 0xD37E_2215);
    let mut reference: Option<Vec<_>> = None;
    for threads in POOL_SIZES {
        let pool = Arc::new(ThreadPool::new(threads));
        let mut rt = ShardedRuntime::with_budget(
            Arc::clone(&pool),
            RuntimeBudget {
                max_live_shards: plans.len(),
                max_in_flight: 3,
                max_round_voxels: None,
            },
        );
        let mut ids = Vec::new();
        for plan in plans.iter().take(3) {
            ids.push(rt.attach_shard(plan.config()).expect("under budget"));
        }
        let mut volumes = Vec::new();
        let mut next_plan = 3usize;
        for round in 0..12 {
            let outcomes = rt.round();
            assert!(outcomes.iter().all(|o| o.is_ok()), "round {round}");
            for id in &ids {
                // Deferred shards contribute their previous volume (or
                // nothing before their first frame) — also scripted, so
                // also identical across pool sizes.
                if let Some(v) = rt.volume_of(*id) {
                    volumes.push(v.clone());
                }
            }
            if round % 3 == 2 {
                let gone = ids.remove(round % ids.len());
                rt.detach_shard(gone).expect("scripted detach");
                let plan = &plans[next_plan % plans.len()];
                next_plan += 1;
                ids.push(rt.attach_shard(plan.config()).expect("under budget"));
            }
        }
        match &reference {
            None => reference = Some(volumes),
            Some(expect) => {
                assert_eq!(
                    &volumes, expect,
                    "churned runtime with {threads} worker(s) diverged"
                );
            }
        }
    }
}

#[test]
fn fused_bmode_post_stages_are_bit_identical_to_the_scalar_reference() {
    // The demod → envelope → log-compress chain run by the warm
    // FramePipeline (once over the volume its depth bands scatter into,
    // at redemption) must reproduce, bit for bit, the scalar reference — a
    // per-voxel ScanlineByScanline walk followed by the same
    // whole-volume post-processing pass — for all four delay engines at
    // every pool size.
    let spec = SystemSpec::tiny();
    let frames = recorded_frames(&spec, 2);
    let schedule = NappeSchedule::fitted(&spec, 8);
    let bmode = PostChain::bmode(BmodeConfig::from_spec(&spec));
    let exact: Arc<dyn DelayEngine + Send + Sync> = Arc::new(ExactEngine::new(&spec));
    let naive: Arc<dyn DelayEngine + Send + Sync> =
        Arc::new(NaiveTableEngine::build(&spec, u64::MAX).unwrap());
    let tablefree: Arc<dyn DelayEngine + Send + Sync> =
        Arc::new(TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap());
    let tablesteer: Arc<dyn DelayEngine + Send + Sync> =
        Arc::new(TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap());
    for engine in [&exact, &naive, &tablefree, &tablesteer] {
        let reference: Vec<_> = frames
            .iter()
            .map(|rf| {
                Beamformer::new(&spec)
                    .with_order(ScanOrder::ScanlineByScanline)
                    .with_postproc(bmode.clone())
                    .beamform_volume(engine.as_ref(), rf)
            })
            .collect();
        for threads in POOL_SIZES {
            let pool = Arc::new(ThreadPool::new(threads));
            let mut pipe = FramePipeline::with_pool(
                Beamformer::new(&spec).with_postproc(bmode.clone()),
                Arc::clone(engine),
                FrameRing::new(frames.clone()),
                pool,
                &schedule,
            );
            for (i, expect) in reference.iter().enumerate() {
                let vol = pipe.next_volume().expect("healthy pipeline");
                assert_eq!(
                    vol,
                    expect,
                    "{} frame {i} with {threads} worker(s) diverged from the scalar B-mode reference",
                    engine.name()
                );
            }
            // The view over the pipeline's volume agrees with the
            // scalar reference's projections.
            let view = pipe.view().expect("frames completed");
            let last = reference.last().unwrap();
            for axis in [
                usbf::beamform::ProjectionAxis::Theta,
                usbf::beamform::ProjectionAxis::Phi,
                usbf::beamform::ProjectionAxis::Depth,
            ] {
                assert_eq!(view.mip(axis), last.mip(axis), "{}", engine.name());
            }
        }
    }
}

#[test]
fn pool_sized_loops_match_the_cold_single_shot_path() {
    // The cold path runs on the global pool (whatever size CI's matrix
    // gave it); explicit pools of every size must reproduce it exactly.
    let spec = SystemSpec::tiny();
    let rf = &recorded_frames(&spec, 1)[0];
    let engine = ExactEngine::new(&spec);
    let cold = Beamformer::new(&spec).beamform_volume(&engine, rf);
    let schedule = NappeSchedule::fitted(&spec, 8);
    for threads in POOL_SIZES {
        let pool = Arc::new(ThreadPool::new(threads));
        let mut rt = VolumeLoop::with_pool(Beamformer::new(&spec), pool, &schedule);
        assert_eq!(rt.beamform(&engine, rf), &cold, "{threads} worker(s)");
    }
}

#[test]
fn concurrent_cold_calls_on_the_global_pool_match_the_scalar_walk() {
    // Every cold nappe-order call registers a one-shot job on the global
    // pool and retires it when the call returns. Four callers doing that
    // at once must each get their own frame's volume, bit-identical to
    // the scalar walk.
    const CALLERS: usize = 4;
    let spec = SystemSpec::tiny();
    let frames = recorded_frames(&spec, CALLERS);
    let engine = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
    let scalar: Vec<_> = frames
        .iter()
        .map(|rf| {
            Beamformer::new(&spec)
                .with_order(ScanOrder::ScanlineByScanline)
                .beamform_volume(&engine, rf)
        })
        .collect();
    let start = std::sync::Barrier::new(CALLERS);
    std::thread::scope(|s| {
        for (caller, (rf, expect)) in frames.iter().zip(&scalar).enumerate() {
            let (spec, engine, start) = (&spec, &engine, &start);
            s.spawn(move || {
                start.wait();
                for round in 0..3 {
                    let cold = Beamformer::new(spec).beamform_volume(engine, rf);
                    assert_eq!(&cold, expect, "caller {caller} round {round}");
                }
            });
        }
    });
}
