//! Coherent plane-wave compounding demo: a 16-angle steered fan
//! acquired and beamformed as ONE compound frame through the warm
//! `FramePipeline`, with the tile kernel's stages (the per-nappe emit
//! set-up vs the per-transmit emit runs vs the gather/MAC back end)
//! timed individually on one whole-fan task, the shape a compound
//! frame's depth bands run as.
//!
//! Run with: `cargo run --release --example cpwc_compound`

use std::sync::Arc;
use std::time::Instant;
use usbf::beamform::{Beamformer, FramePipeline, FrameRing, TileState};
use usbf::core::{DelayEngine, ExactEngine, NappeDelays};
use usbf::geometry::{deg, SystemSpec, TransmitModel, VolumeSpec, VoxelIndex};
use usbf::sim::{EchoSynthesizer, Phantom, Pulse};

const N_ANGLES: usize = 16;
const FRAMES: usize = 50;

/// Tiny-scale CPWC geometry: a narrow cone (±4° over 60λ) whose voxels
/// sit inside the plane-wave footprints, carrying a 16-wave fan over
/// ±10° (the same shape the cpwc benches measure).
fn cpwc_spec(n_angles: usize) -> SystemSpec {
    let reference = SystemSpec::tiny();
    let lambda = reference.wavelength();
    SystemSpec::new(
        reference.speed_of_sound,
        reference.sampling_frequency,
        reference.transducer.clone(),
        VolumeSpec {
            theta_max: deg(4.0),
            phi_max: deg(4.0),
            depth_max: 60.0 * lambda,
            ..reference.volume.clone()
        },
        reference.origin,
        reference.frame_rate,
    )
    .with_transmits(TransmitModel::plane_wave_fan(n_angles, deg(10.0)))
}

/// Mean seconds per call of `f` over a fixed wall budget.
fn time_mean(budget_s: f64, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed().as_secs_f64() < budget_s || iters < 2 {
        f();
        iters += 1;
    }
    start.elapsed().as_secs_f64() / iters as f64
}

fn main() {
    let spec = cpwc_spec(N_ANGLES);
    let grid = &spec.volume_grid;
    let target_vox = VoxelIndex::new(grid.n_theta() / 2, grid.n_phi() / 2, grid.n_depth() * 5 / 8);
    let rf = EchoSynthesizer::new(&spec).synthesize(
        &Phantom::point(grid.position(target_vox)),
        &Pulse::from_spec(&spec),
    );
    let engine = ExactEngine::new(&spec);
    println!(
        "== cpwc_compound: {N_ANGLES}-angle plane-wave fan, {} voxels, EXACT ==",
        grid.voxel_count()
    );

    // --- Per-stage split on one whole-fan task over every nappe,
    // single-threaded: peel the compound kernel apart through the public
    // engine API. The emit is set up ONCE per nappe regardless of the
    // angle count (EXACT's set-up is its receive-leg fill); only the
    // emit runs — transmit terms, receive leg and rounding in one pass —
    // and the gather/MAC scale with N. ---
    let bf = Beamformer::new(&spec);
    let mut slab = NappeDelays::full(&spec);
    let fan = slab.tile();
    let n_depth = grid.n_depth();
    let n_tx = spec.n_transmits();
    let runs = bf.aperture().runs();
    let active = bf.aperture().len();
    // The kernel's run: one group of 16 rows of nearest-fetch indices.
    const RUN: usize = 16;
    let mut indices = vec![0i32; RUN * active];
    let budget = 0.2;
    let set_up_s = time_mean(budget, || {
        for id in 0..n_depth {
            engine.begin_emit(id, runs, &mut slab);
        }
        std::hint::black_box(slab.samples()[0]);
    });
    // Mirror the kernel: every row of the nappe, masked or not, is
    // emitted for each transmit, a run of rows at a time, over the
    // active aperture.
    let set_up_emit_s = time_mean(budget, || {
        for id in 0..n_depth {
            engine.begin_emit(id, runs, &mut slab);
            for tx in 0..n_tx {
                for first in (0..fan.scanlines()).step_by(RUN) {
                    let run = first..(first + RUN).min(fan.scanlines());
                    let out = &mut indices[..run.len() * active];
                    engine.emit_run(tx, &slab, run, runs, out);
                }
            }
        }
        std::hint::black_box(indices[0]);
    });
    let mut state = TileState::band(&bf, &[fan], 0..n_depth);
    let total_s = time_mean(budget, || {
        bf.beamform_tile_into(&engine, &rf, &mut state);
        std::hint::black_box(state.values()[0]);
    });
    let emit_s = (set_up_emit_s - set_up_s).max(0.0);
    let back_end_s = (total_s - set_up_emit_s).max(0.0);
    println!(
        "per-stage split on one whole-fan task ({} voxels, {N_ANGLES} transmits):",
        fan.scanlines() * n_depth
    );
    for (stage, s) in [
        ("emit set-up (once per nappe)", set_up_s),
        ("emit runs (xN angles)", emit_s),
        ("gather + MAC (xN)", back_end_s),
        ("total tile kernel", total_s),
    ] {
        println!(
            "  {stage:<36} {:10.1} us  ({:5.1}% of total)",
            s * 1e6,
            s / total_s * 100.0
        );
    }

    // --- End to end: the 16-angle compound as warm pipeline frames. ---
    let arc_engine: Arc<dyn DelayEngine + Send + Sync> = Arc::new(ExactEngine::new(&spec));
    let mut pipe = FramePipeline::new(Beamformer::new(&spec), arc_engine, FrameRing::new(vec![rf]));
    for _ in 0..5 {
        pipe.next_volume().expect("warm-up compound frame");
    }
    let start = Instant::now();
    let mut peak = VoxelIndex::new(0, 0, 0);
    for _ in 0..FRAMES {
        let vol = pipe.next_volume().expect("warm compound frame");
        peak = vol.argmax();
    }
    let wall = start.elapsed().as_secs_f64();
    let stats = pipe.stats();
    // The steered fan on this coarse grid can pull the compound peak to
    // a neighbouring voxel — require adjacency, not exact coincidence.
    assert!(
        peak.it.abs_diff(target_vox.it) <= 1
            && peak.ip.abs_diff(target_vox.ip) <= 1
            && peak.id.abs_diff(target_vox.id) <= 1,
        "compound peak {peak} must focus next to the phantom {target_vox}"
    );
    println!(
        "pipeline: {FRAMES} warm {N_ANGLES}-angle compound frames in {wall:.3} s = {:.1} compound frames/s",
        FRAMES as f64 / wall
    );
    println!(
        "          peak at {peak} (phantom at {target_vox}), overlap fraction {:.2}, {} schedule tiles",
        stats.overlap_fraction(),
        pipe.tile_count()
    );
}
