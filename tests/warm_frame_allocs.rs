//! Allocation discipline of the warm frame path, measured with a
//! counting global allocator.
//!
//! The tentpole claim of the real-time runtime is that a warm frame
//! performs **zero heap allocations**: no thread spawns, no
//! slab/buffer/volume allocations, no per-tile job allocations and no
//! channel nodes. With 64 schedule tiles per frame, the pre-pool
//! dispatcher allocated one boxed task per tile per frame (plus an
//! `Arc` job core and the collection buffers); the preregistered-job
//! path allocates nothing per tile, and the pipeline's RF handoff moves
//! buffers through a preallocated two-slot exchange instead of an
//! `mpsc` channel. This test counts actual heap allocations across many
//! warm frames — through the synchronous `VolumeLoop`, the synchronous
//! and asynchronous `FramePipeline` shapes, and multi-shard
//! `ShardedRuntime` rounds — and asserts the warm paths measure **0**.
//! All measurements live in one `#[test]` so no concurrent test
//! pollutes the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use usbf::beamform::{
    Beamformer, BmodeConfig, FramePipeline, FrameRing, PostChain, ProjectionAxis, ShardConfig,
    ShardedRuntime, SlicePlane, VolumeLoop,
};
use usbf::core::{
    DelayEngine, ExactEngine, NappeSchedule, TableFreeConfig, TableFreeEngine, TableSteerConfig,
    TableSteerEngine,
};
use usbf::geometry::{deg, SystemSpec, TransmitModel, VolumeSpec, VoxelIndex};
use usbf::par::ThreadPool;
use usbf::sim::{EchoSynthesizer, Phantom, Pulse};

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

const FRAMES: u64 = 20;
const WORKERS: usize = 4;

#[test]
fn warm_frames_do_no_per_tile_allocation() {
    let spec = SystemSpec::tiny();
    let rf = EchoSynthesizer::new(&spec).synthesize(
        &Phantom::point(spec.volume_grid.position(VoxelIndex::new(4, 4, 8))),
        &Pulse::from_spec(&spec),
    );
    let engine = ExactEngine::new(&spec);
    // 64 one-scanline tiles: a per-tile allocation regression shows up
    // 64× per frame, far above the asserted budget.
    let schedule = NappeSchedule::fitted(&spec, 64);
    let tiles = schedule.tiles().len() as u64;
    assert_eq!(tiles, 64);

    // --- VolumeLoop on an explicit pool ---
    let pool = Arc::new(ThreadPool::new(WORKERS));
    let mut rt = VolumeLoop::with_pool(Beamformer::new(&spec), Arc::clone(&pool), &schedule);
    // A raw single-transmit frame runs as whole-fan depth bands, each
    // band's slab re-pointed at all 64 tiles per nappe.
    assert_eq!(rt.task_count(), 2 * WORKERS);
    for _ in 0..5 {
        rt.beamform(&engine, &rf); // warm-up: all allocation happens here
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..FRAMES {
        rt.beamform(&engine, &rf);
    }
    let loop_allocs = ALLOCS.load(Ordering::SeqCst) - before;
    eprintln!("LOOP_ALLOCS={loop_allocs}");
    // One boxed task per tile would be FRAMES × 64 = 1280; the warm
    // preregistered path (announcements included, now that worker
    // queues are preallocated rings instead of mpsc channels) measures
    // exactly zero.
    assert_eq!(
        loop_allocs, 0,
        "warm VolumeLoop frames must not allocate ({FRAMES} frames, \
         {tiles} tiles each) — the per-tile dispatch path is allocating again"
    );

    // --- The banded loop's views: depth slices and MIPs stitched from
    // the bands' staging buffers into caller-owned buffers ---
    let (n_theta, n_phi, n_depth) = rt.view().dims();
    let mut slice_buf = vec![0.0; n_theta * n_phi];
    let mut column_buf = vec![0.0; n_phi * n_depth];
    let mut mip_buf = vec![0.0; n_theta * n_phi];
    let before = ALLOCS.load(Ordering::SeqCst);
    for id in 0..FRAMES as usize {
        rt.beamform(&engine, &rf);
        let view = rt.view();
        view.slice_into(SlicePlane::Depth(id % n_depth), &mut slice_buf);
        view.slice_into(SlicePlane::Theta(id % n_theta), &mut column_buf);
        view.mip_into(ProjectionAxis::Depth, &mut mip_buf);
    }
    let view_allocs = ALLOCS.load(Ordering::SeqCst) - before;
    eprintln!("BANDED_VIEW_ALLOCS={view_allocs}");
    assert_eq!(
        view_allocs, 0,
        "warm banded VolumeLoop frames plus slice/MIP views must not allocate"
    );

    // --- FramePipeline, synchronous shape (acquisition handoff + pool
    // dispatch; the RF buffers move through the pipeline's preallocated
    // two-slot exchange, so unlike an mpsc channel the handoff itself
    // never allocates) ---
    let arc_engine: Arc<dyn DelayEngine + Send + Sync> = Arc::new(ExactEngine::new(&spec));
    let mut pipe = FramePipeline::with_pool(
        Beamformer::new(&spec),
        Arc::clone(&arc_engine),
        FrameRing::new(vec![rf.clone()]),
        Arc::clone(&pool),
        &schedule,
    );
    for _ in 0..5 {
        pipe.next_volume().expect("warm-up frame");
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..FRAMES {
        pipe.next_volume().expect("warm frame");
    }
    let pipe_allocs = ALLOCS.load(Ordering::SeqCst) - before;
    eprintln!("PIPE_ALLOCS={pipe_allocs}");
    assert_eq!(
        pipe_allocs, 0,
        "warm synchronous FramePipeline frames must not allocate \
         ({FRAMES} frames, {tiles} tiles each)"
    );

    // --- FramePipeline, asynchronous shape (submit → ticket → wait,
    // with caller-side work between — the three-stage overlap) ---
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..FRAMES {
        let ticket = pipe.submit().expect("warm submit");
        let _ = ticket.previous_volume().map(|v| v.max_abs()); // consume n−1
        while !ticket.try_wait() {
            std::thread::yield_now();
        }
        ticket.wait().expect("warm redeem");
    }
    let async_allocs = ALLOCS.load(Ordering::SeqCst) - before;
    eprintln!("ASYNC_ALLOCS={async_allocs}");
    assert_eq!(
        async_allocs, 0,
        "warm submit/wait cycles must not allocate \
         ({FRAMES} frames, {tiles} tiles each)"
    );
    drop(pipe);

    // --- The approximating engines (TABLESTEER's correction registers,
    // TABLEFREE's PWL argument rows) run on slab-resident scratch, so
    // their warm pipelines must measure 0 too, not just EXACT's ---
    let approx_engines: [Arc<dyn DelayEngine + Send + Sync>; 2] = [
        Arc::new(TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds")),
        Arc::new(TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds")),
    ];
    for eng in approx_engines {
        let name = eng.name();
        let mut pipe = FramePipeline::with_pool(
            Beamformer::new(&spec),
            Arc::clone(&eng),
            FrameRing::new(vec![rf.clone()]),
            Arc::clone(&pool),
            &schedule,
        );
        for _ in 0..5 {
            pipe.next_volume().expect("warm-up frame");
        }
        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..FRAMES {
            pipe.next_volume().expect("warm frame");
        }
        let engine_allocs = ALLOCS.load(Ordering::SeqCst) - before;
        eprintln!("{name}_ALLOCS={engine_allocs}");
        assert_eq!(
            engine_allocs, 0,
            "warm {name} FramePipeline frames must not allocate \
             ({FRAMES} frames, {tiles} tiles each)"
        );
    }

    // --- FramePipeline with the fused B-mode post-stages: the demod →
    // envelope → log-compress chain runs per tile on the slab-resident
    // I/Q scratch, so warm frames still measure 0 — and the zero-scatter
    // views fill caller-provided buffers without materializing the
    // volume ---
    let mut pipe = FramePipeline::with_pool(
        Beamformer::new(&spec).with_postproc(PostChain::bmode(BmodeConfig::from_spec(&spec))),
        Arc::clone(&arc_engine),
        FrameRing::new(vec![rf.clone()]),
        Arc::clone(&pool),
        &schedule,
    );
    for _ in 0..5 {
        pipe.next_volume().expect("warm-up frame");
    }
    let (n_theta, n_phi, n_depth) = pipe.view().expect("frames completed").dims();
    let mut slice_buf = vec![0.0; n_phi * n_depth];
    let mut mip_buf = vec![0.0; n_theta * n_phi];
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..FRAMES {
        pipe.next_volume().expect("warm frame");
        let view = pipe.view().expect("frames completed");
        view.slice_into(SlicePlane::Theta(n_theta / 2), &mut slice_buf);
        view.mip_into(ProjectionAxis::Depth, &mut mip_buf);
    }
    let bmode_allocs = ALLOCS.load(Ordering::SeqCst) - before;
    eprintln!("BMODE_ALLOCS={bmode_allocs}");
    assert_eq!(
        bmode_allocs, 0,
        "warm B-mode FramePipeline frames plus slice/MIP views must not \
         allocate ({FRAMES} frames, {tiles} tiles each)"
    );
    drop(pipe);

    // --- Coherent plane-wave compounding: a warm 4-angle compound
    // frame fills the receive-leg slab once per nappe and adds each
    // transmit's per-voxel term in the rounding pass that writes the
    // same live-row block — all of it slab/state-resident, so the
    // N-angle frame must measure 0 just like the single-transmit one. (Narrow cone: under tiny()'s ±36.5° the
    // plane-wave footprints miss the whole grid and the compound would
    // be vacuously zero.) ---
    let lambda = spec.wavelength();
    let cpwc_spec = SystemSpec::new(
        spec.speed_of_sound,
        spec.sampling_frequency,
        spec.transducer.clone(),
        VolumeSpec {
            theta_max: deg(4.0),
            phi_max: deg(4.0),
            depth_max: 60.0 * lambda,
            ..spec.volume.clone()
        },
        spec.origin,
        spec.frame_rate,
    )
    .with_transmits(TransmitModel::plane_wave_fan(4, deg(10.0)));
    let cpwc_rf = EchoSynthesizer::new(&cpwc_spec).synthesize(
        &Phantom::point(cpwc_spec.volume_grid.position(VoxelIndex::new(4, 4, 10))),
        &Pulse::from_spec(&cpwc_spec),
    );
    let cpwc_schedule = NappeSchedule::fitted(&cpwc_spec, 64);
    let cpwc_engine: Arc<dyn DelayEngine + Send + Sync> = Arc::new(ExactEngine::new(&cpwc_spec));
    let mut pipe = FramePipeline::with_pool(
        Beamformer::new(&cpwc_spec),
        Arc::clone(&cpwc_engine),
        FrameRing::new(vec![cpwc_rf]),
        Arc::clone(&pool),
        &cpwc_schedule,
    );
    for _ in 0..5 {
        pipe.next_volume().expect("warm-up compound frame");
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..FRAMES {
        pipe.next_volume().expect("warm compound frame");
    }
    let cpwc_allocs = ALLOCS.load(Ordering::SeqCst) - before;
    eprintln!("CPWC_ALLOCS={cpwc_allocs}");
    assert_eq!(
        cpwc_allocs,
        0,
        "warm 4-angle compound frames must not allocate \
         ({FRAMES} frames, {} tiles each, 4 transmits per frame)",
        cpwc_schedule.tiles().len()
    );
    drop(pipe);

    // --- ShardedRuntime (3 shards multiplexed on the same pool) ---
    let shard = |fill: f64| {
        let mut frame = rf.clone();
        frame.fill(fill).expect("a finite fill value");
        ShardConfig::new(
            Beamformer::new(&spec),
            Arc::clone(&arc_engine),
            FrameRing::new(vec![frame]),
        )
    };
    let mut rt = ShardedRuntime::new(pool, vec![shard(0.0), shard(0.5), shard(1.0)]);
    let mut outcomes = Vec::new();
    for _ in 0..5 {
        rt.round_into(&mut outcomes);
        assert!(outcomes.iter().all(|o| o.is_ok()), "warm-up round");
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..FRAMES {
        rt.round_into(&mut outcomes);
        assert!(outcomes.iter().all(|o| o.is_ok()), "warm round");
    }
    let shard_allocs = ALLOCS.load(Ordering::SeqCst) - before;
    eprintln!("SHARD_ALLOCS={shard_allocs}");
    assert_eq!(
        shard_allocs,
        0,
        "warm sharded rounds must not allocate \
         ({FRAMES} rounds, {} shards)",
        rt.n_shards()
    );
}
