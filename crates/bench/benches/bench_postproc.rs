//! Cost of the B-mode post-processing chain and the volume views.
//!
//! Three groups:
//!
//! * `frames_per_second` — warm [`FramePipeline`] frame rate, at a fixed
//!   worker count so the comparison is meaningful on any host, with no
//!   post-processing vs with the demod → envelope → log-compress chain,
//!   which runs once over the scattered volume on the redeeming thread.
//!   The gap is the whole cost of turning raw beamformed depth traces
//!   into B-mode; the reported elements/s **is** frames/s;
//! * `volume_pass` — that serial chain pass alone, on one thread:
//!   [`PostChain::apply_volume`] with caller scratch over a 16 × 16 × 64
//!   volume (the benchmark's mid grid), the work a runtime adds to the
//!   thread that redeems each B-mode frame. Each iteration first
//!   restores the raw volume (a 128 KB copy); the reported elements/s
//!   are voxels/s;
//! * `views` — `VolumeView::slice_into`/`mip_into` copied out of the
//!   pipeline's volume into a caller buffer, against the
//!   `BeamformedVolume::slice`/`mip` reference that allocates its
//!   result per call.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use usbf_beamform::{
    BeamformedVolume, Beamformer, BmodeConfig, FramePipeline, FrameRing, PostChain, PostScratch,
    ProjectionAxis, SlicePlane,
};
use usbf_core::{DelayEngine, ExactEngine, NappeSchedule};
use usbf_geometry::{SystemSpec, VolumeSpec, VoxelIndex};
use usbf_par::ThreadPool;
use usbf_sim::{EchoSynthesizer, Phantom, Pulse};

/// Pinned worker count: benches must not depend on host core count.
const WORKERS: usize = 4;

fn bench_postproc(c: &mut Criterion) {
    let spec = SystemSpec::tiny();
    let rf = EchoSynthesizer::new(&spec).synthesize(
        &Phantom::point(spec.volume_grid.position(VoxelIndex::new(4, 4, 8))),
        &Pulse::from_spec(&spec),
    );
    let engine: Arc<dyn DelayEngine + Send + Sync> = Arc::new(ExactEngine::new(&spec));
    let pool = Arc::new(ThreadPool::new(WORKERS));
    let schedule = NappeSchedule::fitted(&spec, WORKERS * 4);

    // Raw vs B-mode warm frame rate: the chain runs on the pipeline's
    // preallocated scratch, so the difference is the chain's arithmetic
    // and its one pass over the volume, not allocation.
    let mut g = c.benchmark_group("postproc_frames_per_second");
    g.throughput(Throughput::Elements(1));
    let chains = [
        ("raw_beamform", PostChain::empty()),
        (
            "bmode_chain",
            PostChain::bmode(BmodeConfig::from_spec(&spec)),
        ),
    ];
    for (name, chain) in &chains {
        g.bench_function(*name, |b| {
            let mut pipe = FramePipeline::with_pool(
                Beamformer::new(&spec).with_postproc(chain.clone()),
                Arc::clone(&engine),
                FrameRing::new(vec![rf.clone()]),
                Arc::clone(&pool),
                &schedule,
            );
            pipe.next_volume().expect("warm-up frame");
            b.iter(|| {
                let vol = pipe.next_volume().expect("warm frame");
                black_box(vol.max_abs())
            })
        });
    }
    g.finish();

    bench_volume_pass(c);

    // Views into caller buffers vs the allocating volume reference.
    let mut pipe = FramePipeline::with_pool(
        Beamformer::new(&spec).with_postproc(PostChain::bmode(BmodeConfig::from_spec(&spec))),
        Arc::clone(&engine),
        FrameRing::new(vec![rf.clone()]),
        Arc::clone(&pool),
        &schedule,
    );
    let vol = pipe.next_volume().expect("warm-up frame").clone();
    let (n_theta, n_phi, n_depth) = pipe.view().expect("frames completed").dims();
    let mut g = c.benchmark_group("postproc_views");
    g.bench_function("view_slice_into", |b| {
        let view = pipe.view().expect("frames completed");
        let mut out = vec![0.0; n_phi * n_depth];
        b.iter(|| {
            view.slice_into(black_box(SlicePlane::Theta(n_theta / 2)), &mut out);
            black_box(out[0])
        })
    });
    g.bench_function("view_mip_into", |b| {
        let view = pipe.view().expect("frames completed");
        let mut out = vec![0.0; n_theta * n_phi];
        b.iter(|| {
            view.mip_into(black_box(ProjectionAxis::Depth), &mut out);
            black_box(out[0])
        })
    });
    g.bench_function("materialized_slice", |b| {
        b.iter(|| black_box(vol.slice(black_box(SlicePlane::Theta(n_theta / 2)))))
    });
    g.bench_function("materialized_mip", |b| {
        b.iter(|| black_box(vol.mip(black_box(ProjectionAxis::Depth))))
    });
    g.finish();
}

/// The serial chain pass over a mid-grid volume whose columns carry the
/// axial carrier at a different amplitude each.
fn bench_volume_pass(c: &mut Criterion) {
    let reduced = SystemSpec::reduced();
    let mid = SystemSpec::new(
        reduced.speed_of_sound,
        reduced.sampling_frequency,
        reduced.transducer.clone(),
        VolumeSpec {
            n_theta: 16,
            n_phi: 16,
            n_depth: 64,
            ..reduced.volume.clone()
        },
        reduced.origin,
        reduced.frame_rate,
    );
    let config = BmodeConfig::from_spec(&mid);
    let w = 2.0 * std::f64::consts::PI * config.carrier_cycles_per_sample;
    let grid = &mid.volume_grid;
    let mut raw = BeamformedVolume::zeros(&mid);
    for i in 0..grid.voxel_count() {
        let vox = grid.voxel_at(i);
        let amplitude = 1.0 + (vox.it * grid.n_phi() + vox.ip) as f64;
        raw.set(vox, amplitude * (w * vox.id as f64).cos());
    }
    let chain = PostChain::bmode(config);
    let n_depth = grid.n_depth();
    let mut g = c.benchmark_group("postproc_volume_pass");
    g.throughput(Throughput::Elements(grid.voxel_count() as u64));
    g.bench_function("apply_volume_mid_one_thread", |b| {
        let mut vol = raw.clone();
        let mut scratch = PostScratch::new(n_depth);
        b.iter(|| {
            for (column, source) in vol.columns_mut().zip(raw.as_slice().chunks_exact(n_depth)) {
                column.copy_from_slice(source);
            }
            chain.apply_volume(&mut vol, &mut scratch);
            black_box(vol.as_slice()[0])
        })
    });
    g.finish();
}

criterion_group!(benches, bench_postproc);
criterion_main!(benches);
