//! Real-time asynchronous pipeline demo: a target moving through the
//! volume is acquired and beamformed continuously, with acquisition of
//! frame `n+1`, beamforming of frame `n` and "display" of volume `n−1`
//! overlapped through the submit/ticket API.
//!
//! Run with: `cargo run --release --example realtime_pipeline`

use std::sync::Arc;
use std::time::Instant;
use usbf::beamform::{Beamformer, FramePipeline, SynthesizedFrames, VolumeLoop};
use usbf::core::{TableSteerConfig, TableSteerEngine};
use usbf::geometry::{SystemSpec, VoxelIndex};
use usbf::sim::{EchoSynthesizer, Phantom, Pulse, RfFrame};

fn main() {
    let spec = SystemSpec::tiny();
    let engine =
        Arc::new(TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("engine builds"));
    let pulse = Pulse::from_spec(&spec);

    // A point target sweeping down one scanline: one phantom per frame.
    let phantoms: Vec<Phantom> = (2..14)
        .map(|id| Phantom::point(spec.volume_grid.position(VoxelIndex::new(4, 4, id))))
        .collect();
    let n_frames = 60usize;

    println!(
        "== realtime_pipeline: {} frames, TABLESTEER, tiny spec ==",
        n_frames
    );

    // Serial reference: acquire, then beamform, on one thread.
    let synth = EchoSynthesizer::new(&spec);
    let mut serial_loop = VolumeLoop::new(Beamformer::new(&spec));
    let mut rf = RfFrame::zeros(
        spec.elements.nx(),
        spec.elements.ny(),
        spec.echo_buffer_len(),
    );
    let mut scratch = Vec::new();
    let mut serial_peaks = Vec::with_capacity(n_frames);
    let serial_start = Instant::now();
    for i in 0..n_frames {
        synth
            .synthesize_into(&phantoms[i % phantoms.len()], &pulse, &mut scratch, &mut rf)
            .expect("finite echoes");
        let vol = serial_loop.beamform(engine.as_ref(), &rf);
        serial_peaks.push(vol.argmax());
    }
    let serial_elapsed = serial_start.elapsed();

    // Asynchronous pipeline: same frames, same engine, same pool size.
    // Each step submits frame n (beamforming starts on the pool, frame
    // n+1 starts acquiring) and "displays" frame n−1 from the ticket
    // while n is still in flight — the three-stage overlap.
    let source = SynthesizedFrames::new(EchoSynthesizer::new(&spec), pulse, phantoms.clone());
    let mut pipe = FramePipeline::new(Beamformer::new(&spec), engine, source);
    let mut pipe_peaks = Vec::with_capacity(n_frames);
    let mut displayed = 0usize;
    for _ in 0..n_frames {
        let ticket = pipe.submit().expect("healthy acquisition");
        // Caller-side consumption of the previous volume, overlapped
        // with the in-flight beamforming of the current one.
        if let Some(prev) = ticket.previous_volume() {
            let _ = prev.max_abs();
            displayed += 1;
        }
        let vol = ticket.wait().expect("healthy beamforming");
        pipe_peaks.push(vol.argmax());
    }
    let stats = pipe.stats();

    assert_eq!(
        serial_peaks, pipe_peaks,
        "pipelined volumes track the same target"
    );
    println!(
        "target swept {} -> {} (peak voxel per frame, identical in both modes)",
        serial_peaks[0],
        serial_peaks[phantoms.len() - 1]
    );
    println!(
        "serial    : {:8.1} frames/s  ({:.2?} total)",
        n_frames as f64 / serial_elapsed.as_secs_f64(),
        serial_elapsed
    );
    println!(
        "pipelined : {:8.1} frames/s  ({:.2?} total, {} frames, {} errors, {} volumes displayed mid-flight)",
        stats.frames_per_second(),
        stats.wall,
        stats.frames,
        stats.errors,
        displayed
    );
    println!(
        "            mean acquire wait {:.2?}, mean beamform (redemption) wait {:.2?}, overlap fraction {:.2}",
        stats.mean_acquire_wait(),
        stats.mean_beamform_wait(),
        stats.overlap_fraction()
    );
    println!(
        "            {} schedule tiles in {} tasks per frame, zero heap allocations on warm frames (see tests/warm_frame_allocs.rs)",
        pipe.tile_count(),
        pipe.task_count()
    );
    println!(
        "(with purely CPU-bound acquisition the two modes tie on a single core; the overlap pays \
         once the front end has real acquisition latency or a second core exists — see \
         bench_pipeline and bench_shard)"
    );
}
