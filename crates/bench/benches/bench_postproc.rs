//! Cost of the fused B-mode post-processing chain and the volume views.
//!
//! Two groups, both at a fixed worker count so the comparison is
//! meaningful on any host:
//!
//! * `frames_per_second` — warm [`FramePipeline`] frame rate with no
//!   post-processing vs with the fused demod → envelope → log-compress
//!   chain applied per tile column before the scatter. The gap is the
//!   whole cost of turning raw beamformed depth traces into B-mode;
//!   the reported elements/s **is** frames/s;
//! * `views` — `VolumeView::slice_into`/`mip_into` copied out of the
//!   pipeline's volume into a caller buffer, against the
//!   `BeamformedVolume::slice`/`mip` reference that allocates its
//!   result per call.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use usbf_beamform::{
    Beamformer, BmodeConfig, FramePipeline, FrameRing, PostChain, ProjectionAxis, SlicePlane,
};
use usbf_core::{DelayEngine, ExactEngine, NappeSchedule};
use usbf_geometry::{SystemSpec, VoxelIndex};
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

    // Raw vs fused warm frame rate: the chain runs on slab-resident
    // scratch inside the tile kernel, so the difference is pure
    // arithmetic, not allocation or an extra volume pass.
    let mut g = c.benchmark_group("postproc_frames_per_second");
    g.throughput(Throughput::Elements(1));
    let chains = [
        ("raw_beamform", PostChain::empty()),
        (
            "fused_bmode_chain",
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

criterion_group!(benches, bench_postproc);
criterion_main!(benches);
