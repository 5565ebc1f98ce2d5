//! Overlapped-pipeline throughput and preregistered-job dispatch cost.
//!
//! Three views, all with a fixed worker count so the comparison is
//! meaningful on any host:
//!
//! * `dispatch_only` — per-frame dispatch overhead of a preregistered
//!   [`JobHandle`](usbf_par::JobHandle) run (barrier allocated once,
//!   borrowed closure, no per-tile boxing) over trivial tasks;
//! * `frames_per_second` — end-to-end frame rate, acquisition included:
//!   a serial loop (acquire, then beamform, on one thread) vs the
//!   overlapped [`FramePipeline`] (acquisition of frame `n+1` hidden
//!   behind beamforming of frame `n`). The source models a front end
//!   with real acquisition latency — the acoustic round trip plus
//!   transfer time that a probe cannot hand a frame over faster than —
//!   followed by CPU-side echo synthesis; that latency is exactly what
//!   the overlap hides, on any core count. The reported elements/s
//!   **is** frames/s;
//! * `volume_loop_dispatch` — the warm `VolumeLoop` frame itself, on its
//!   preregistered job.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use usbf_beamform::{Beamformer, FramePipeline, FrameSource, SynthesizedFrames, VolumeLoop};
use usbf_core::{NappeSchedule, TableSteerConfig, TableSteerEngine};
use usbf_geometry::{SystemSpec, Vec3};
use usbf_par::ThreadPool;
use usbf_sim::{EchoSynthesizer, Phantom, Pulse, RfFrame};

/// Pinned worker count: benches must not depend on host core count.
const WORKERS: usize = 4;

/// Front-end acquisition latency per frame: the sound's round trip to
/// 500λ depth and back plus transducer-to-host transfer. 2 ms ≈ a
/// 500-volume/s front end — conservative against the paper's rates.
const ACQUISITION_LATENCY: std::time::Duration = std::time::Duration::from_millis(2);

/// A speckle phantom with enough scatterers that acquisition is a
/// meaningful fraction of frame time — the regime overlap exists for.
fn speckle_phantom() -> Phantom {
    Phantom::speckle(
        40,
        Vec3::new(-0.01, -0.01, 0.02),
        Vec3::new(0.01, 0.01, 0.06),
        7,
    )
}

/// An acquisition front end: waits out the physical acquisition latency,
/// then synthesizes the frame's echoes into the buffer.
fn paced_source(spec: &SystemSpec, pulse: &Pulse, phantom: &Phantom) -> impl FrameSource {
    let mut inner = SynthesizedFrames::new(
        EchoSynthesizer::new(spec),
        pulse.clone(),
        vec![phantom.clone()],
    );
    move |out: &mut RfFrame| {
        std::thread::sleep(ACQUISITION_LATENCY);
        inner.next_frame(out);
    }
}

fn bench_pipeline(c: &mut Criterion) {
    let spec = SystemSpec::tiny();
    let engine =
        Arc::new(TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds"));
    let pool = Arc::new(ThreadPool::new(WORKERS));
    let schedule = NappeSchedule::fitted(&spec, WORKERS * 4);
    let n_tiles = schedule.tiles().len();
    let pulse = Pulse::from_spec(&spec);
    let phantom = speckle_phantom();

    // Pure dispatch overhead: trivial per-task work, so the time is the
    // re-announce, claim and barrier of one run.
    let mut g = c.benchmark_group("pipeline_dispatch_only");
    g.bench_function("preregistered_job", |b| {
        let mut job = ThreadPool::register(&pool);
        let mut slots = vec![0u64; n_tiles];
        b.iter(|| {
            job.run(&mut slots, &|_, slot: &mut u64| {
                *slot = black_box(*slot) * 2 + 1;
            });
            black_box(slots[0])
        })
    });
    g.finish();

    // End-to-end: acquisition + beamforming per frame. The serial loop
    // pays them in sequence; the pipeline hides acquisition behind the
    // previous frame's beamforming.
    let mut g = c.benchmark_group("pipeline_frames_per_second");
    g.throughput(Throughput::Elements(1));
    g.bench_function("serial_acquire_then_beamform", |b| {
        let mut source = paced_source(&spec, &pulse, &phantom);
        let mut rf = RfFrame::zeros(
            spec.elements.nx(),
            spec.elements.ny(),
            spec.echo_buffer_len(),
        );
        let mut rt = VolumeLoop::with_pool(Beamformer::new(&spec), Arc::clone(&pool), &schedule);
        b.iter(|| {
            source.next_frame(&mut rf);
            rt.beamform(black_box(engine.as_ref()), black_box(&rf));
            black_box(rt.volume().max_abs())
        })
    });
    g.bench_function("overlapped_frame_pipeline", |b| {
        let mut pipe = FramePipeline::with_pool(
            Beamformer::new(&spec),
            Arc::clone(&engine) as Arc<dyn usbf_core::DelayEngine + Send + Sync>,
            paced_source(&spec, &pulse, &phantom),
            Arc::clone(&pool),
            &schedule,
        );
        pipe.next_volume().expect("warm-up frame");
        b.iter(|| {
            let vol = pipe.next_volume().expect("warm frame");
            black_box(vol.max_abs())
        })
    });
    g.bench_function("async_submit_ticket_wait", |b| {
        // The three-stage shape: the ticket is redeemed only after the
        // caller touches the previous volume, so redemption overlaps
        // caller-side consumption as well as the next acquisition.
        let mut pipe = FramePipeline::with_pool(
            Beamformer::new(&spec),
            Arc::clone(&engine) as Arc<dyn usbf_core::DelayEngine + Send + Sync>,
            paced_source(&spec, &pulse, &phantom),
            Arc::clone(&pool),
            &schedule,
        );
        pipe.next_volume().expect("warm-up frame");
        b.iter(|| {
            let ticket = pipe.submit().expect("warm submit");
            let consumed = ticket.previous_volume().map(|v| v.max_abs());
            black_box(consumed);
            let vol = ticket.wait().expect("warm frame");
            black_box(vol.max_abs())
        })
    });
    g.finish();

    // The warm VolumeLoop frame on its preregistered job.
    let mut g = c.benchmark_group("pipeline_volume_loop_dispatch");
    g.throughput(Throughput::Elements(1));
    let rf = EchoSynthesizer::new(&spec).synthesize(&phantom, &pulse);
    g.bench_function("preregistered_volume_loop", |b| {
        let mut rt = VolumeLoop::with_pool(Beamformer::new(&spec), Arc::clone(&pool), &schedule);
        rt.beamform(engine.as_ref(), &rf); // warm-up
        b.iter(|| {
            rt.beamform(black_box(engine.as_ref()), black_box(&rf));
            black_box(rt.volume().max_abs())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
