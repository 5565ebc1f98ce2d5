//! End-to-end coherent plane-wave compounding (CPWC): a multi-angle
//! transmit sequence beamformed through every delay engine, every
//! runtime path and every pool size must produce one bit-identical
//! compound volume — and the edge-region mask must keep un-insonified
//! voxels out of the coherent sum entirely.

use std::sync::Arc;
use usbf_beamform::{Beamformer, FramePipeline, FrameRing, VolumeLoop};
use usbf_core::{
    DelayEngine, ExactEngine, NaiveTableEngine, NappeSchedule, TableFreeConfig, TableFreeEngine,
    TableSteerConfig, TableSteerEngine,
};
use usbf_geometry::scan::ScanOrder;
use usbf_geometry::{deg, SystemSpec, TransducerSpec, TransmitModel, Vec3, VolumeSpec, VoxelIndex};
use usbf_par::ThreadPool;
use usbf_sim::{EchoSynthesizer, Phantom, Pulse, RfError, RfFrame};

/// A plane-wave-friendly geometry: the stock test cone (±36.5° to 500λ)
/// back-projects every voxel outside a small aperture's footprint, so
/// CPWC there compounds nothing but zero-weight voxels. This spec keeps
/// the tiny voxel count but narrows the cone to ±4° over 60λ under a
/// 16×16 aperture — most voxels sit inside the unsteered footprint and
/// the steered angles cover it partially, exercising the ramp weights.
fn cpwc_base() -> SystemSpec {
    let reference = SystemSpec::tiny();
    let lambda = reference.wavelength();
    SystemSpec::new(
        reference.speed_of_sound,
        reference.sampling_frequency,
        TransducerSpec {
            nx: 16,
            ny: 16,
            pitch: lambda / 2.0,
            ..reference.transducer.clone()
        },
        VolumeSpec {
            theta_max: deg(4.0),
            phi_max: deg(4.0),
            depth_max: 60.0 * lambda,
            n_theta: 8,
            n_phi: 8,
            n_depth: 16,
        },
        Vec3::ZERO,
        reference.frame_rate,
    )
}

/// A 4-angle compound sequence on the narrow-cone spec.
fn cpwc_spec() -> SystemSpec {
    cpwc_base().with_transmits(TransmitModel::plane_wave_fan(4, deg(10.0)))
}

fn cpwc_rf(spec: &SystemSpec) -> RfFrame {
    let g = &spec.volume_grid;
    let target = g.position(VoxelIndex::new(
        g.n_theta() / 2,
        g.n_phi() / 2,
        g.n_depth() * 5 / 8,
    ));
    EchoSynthesizer::new(spec).synthesize(&Phantom::point(target), &Pulse::from_spec(spec))
}

fn voxels(spec: &SystemSpec) -> Vec<VoxelIndex> {
    let g = &spec.volume_grid;
    let mut out = Vec::with_capacity(g.n_theta() * g.n_phi() * g.n_depth());
    for it in 0..g.n_theta() {
        for ip in 0..g.n_phi() {
            for id in 0..g.n_depth() {
                out.push(VoxelIndex::new(it, ip, id));
            }
        }
    }
    out
}

fn all_engines(spec: &SystemSpec) -> Vec<Arc<dyn DelayEngine + Send + Sync>> {
    vec![
        Arc::new(ExactEngine::new(spec)),
        Arc::new(NaiveTableEngine::build(spec, u64::MAX).expect("tiny table fits")),
        Arc::new(TableFreeEngine::new(spec, TableFreeConfig::paper()).expect("builds")),
        Arc::new(TableSteerEngine::new(spec, TableSteerConfig::bits18()).expect("builds")),
    ]
}

/// The hand-rolled reference: beamform each angle's low-resolution image
/// per voxel and coherently sum under the mask weights, skipping
/// masked-out angles — the definition the compound kernel must match.
fn per_angle_then_sum(
    bf: &Beamformer,
    engine: &dyn DelayEngine,
    rf: &RfFrame,
    vox: VoxelIndex,
) -> f64 {
    let spec = bf.spec();
    let s = spec.volume_grid.position(vox);
    let mut acc = 0.0;
    for tx in 0..spec.n_transmits() {
        let m = spec.transmit_weight(tx, s);
        if m != 0.0 {
            acc += m * bf.beamform_voxel_for(engine, rf, tx, vox);
        }
    }
    acc
}

#[test]
fn compound_volume_matches_per_angle_then_sum_reference_for_all_engines() {
    let spec = cpwc_spec();
    let rf = cpwc_rf(&spec);
    for engine in all_engines(&spec) {
        let bf = Beamformer::new(&spec);
        let tiled = bf.beamform_volume(engine.as_ref(), &rf);
        assert!(
            voxels(&spec).iter().any(|&v| tiled.get(v) != 0.0),
            "{}: the compound must actually insonify the grid — an \
             all-zero volume would make this comparison vacuous",
            engine.name()
        );
        for vox in voxels(&spec) {
            let expect = per_angle_then_sum(&bf, engine.as_ref(), &rf, vox);
            assert_eq!(
                tiled.get(vox).to_bits(),
                expect.to_bits(),
                "{} voxel {vox}",
                engine.name()
            );
        }
    }
}

#[test]
fn compound_frame_is_one_pipeline_frame_and_pool_size_invariant() {
    // An N-angle compound moves through FramePipeline as ONE frame, and
    // the volume is bit-identical across 1/2/4-worker pools and to the
    // scalar reference walk.
    let spec = cpwc_spec();
    let rf = cpwc_rf(&spec);
    for engine in all_engines(&spec) {
        let scalar = Beamformer::new(&spec)
            .with_order(ScanOrder::ScanlineByScanline)
            .beamform_volume(engine.as_ref(), &rf);
        for workers in [1usize, 2, 4] {
            let pool = Arc::new(ThreadPool::new(workers));
            let schedule = NappeSchedule::fitted(&spec, workers * 4);
            let mut pipe = FramePipeline::with_pool(
                Beamformer::new(&spec),
                Arc::clone(&engine),
                FrameRing::new(vec![rf.clone()]),
                pool,
                &schedule,
            );
            for frame in 0..2 {
                let vol = pipe.next_volume().expect("healthy pipeline");
                assert_eq!(
                    vol,
                    &scalar,
                    "{} with {workers} workers, frame {frame}",
                    engine.name()
                );
            }
            assert_eq!(pipe.frames(), 2, "one compound = one frame");
        }
    }
}

#[test]
fn masked_angle_cannot_poison_the_compound_sum() {
    // The NaN-safety contract, at both of its layers. A NaN or ±∞
    // acquisition cannot become a frame: 16-bit RF has no value for it,
    // so it is rejected with a typed error where it enters. And a voxel
    // outside one angle's insonified footprint must take NO arithmetic
    // contribution from that angle — not even `0 · x`: a finite block
    // near `f64::MAX` makes that angle's scaled sum overflow to ±∞, and
    // `0 · ∞` is NaN, so it stays quarantined only if it is skipped.
    let spec = cpwc_base().with_transmits(vec![
        TransmitModel::plane_wave(0.0, 0.0),
        TransmitModel::plane_wave(deg(35.0), 0.0),
    ]);
    let clean = cpwc_rf(&spec);
    let (nx, ny, n) = (clean.nx(), clean.ny(), clean.n_samples());
    let peak = clean.max_abs();
    assert!(peak > 0.0);
    // Transmit 0 is the clean acquisition times `gain`; `block_1` writes
    // transmit 1.
    let with_blocks = |gain: f64, block_1: f64| {
        RfFrame::from_traces(nx, ny, n, 2, |tx, e, t| {
            for (d, s) in t.iter_mut().zip(clean.trace_for(0, e).iter()) {
                *d = if tx == 0 { gain * s } else { block_1 };
            }
        })
    };
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let err = with_blocks(1.0, bad).expect_err("a non-finite acquisition has no 16-bit value");
        assert!(matches!(err, RfError::NonFinite { tx: 1, .. }), "{err}");
    }
    // Block 1 sets the frame's scale at `f64::MAX / 2`; block 0 is
    // raised to 1/64 of that, so it still reads on ~9 bits of the
    // shared scale.
    let huge = f64::MAX / 2.0;
    let rf = with_blocks(huge / 64.0 / peak, huge).expect("finite samples");
    assert_eq!(rf.scale(), huge / f64::from(i16::MAX));
    // Find a voxel the unsteered wave insonifies, and hears an echo
    // at, but the hard-steered one misses (its footprint back-projects
    // far off the tiny aperture).
    let engine = ExactEngine::new(&spec);
    let bf = Beamformer::new(&spec);
    let probe = voxels(&spec)
        .into_iter()
        .find(|&v| {
            let s = spec.volume_grid.position(v);
            spec.transmit_weight(0, s) != 0.0
                && spec.transmit_weight(1, s) == 0.0
                && bf.beamform_voxel_for(&engine, &rf, 0, v) != 0.0
        })
        .expect("the steered footprint must exclude some echoing voxel");
    let tiled = bf.beamform_volume(&engine, &rf);
    let scalar_bf = Beamformer::new(&spec).with_order(ScanOrder::ScanlineByScanline);
    let scalar = scalar_bf.beamform_volume(&engine, &rf);
    assert!(
        tiled.get(probe).is_finite(),
        "masked block poisoned the tiled compound: {}",
        tiled.get(probe)
    );
    assert!(
        scalar.get(probe).is_finite(),
        "masked block poisoned the scalar compound: {}",
        scalar.get(probe)
    );
    assert_eq!(tiled.get(probe).to_bits(), scalar.get(probe).to_bits());
    // And the surviving value is exactly the unsteered angle's masked
    // contribution.
    let s = spec.volume_grid.position(probe);
    let expect = spec.transmit_weight(0, s) * bf.beamform_voxel_for(&engine, &rf, 0, probe);
    assert_eq!(tiled.get(probe).to_bits(), expect.to_bits());
    // The steered angle's own sum at the probe is out of range, so only
    // skipping it keeps the compound finite.
    let steered = bf.beamform_voxel_for(&engine, &rf, 1, probe);
    assert!(steered.is_infinite(), "steered sum {steered} must overflow");
}

#[test]
fn degenerate_single_theta_fan_compounds_end_to_end() {
    // A fan collapsed to one theta line (n_theta == 1, the angle_of
    // n == 1 branch) must still compound through the full pipeline.
    let base = cpwc_base();
    let spec = SystemSpec::new(
        base.speed_of_sound,
        base.sampling_frequency,
        base.transducer.clone(),
        VolumeSpec {
            n_theta: 1,
            ..base.volume.clone()
        },
        base.origin,
        base.frame_rate,
    )
    .with_transmits(TransmitModel::plane_wave_fan(4, deg(8.0)));
    let rf = cpwc_rf(&spec);
    let engine = Arc::new(ExactEngine::new(&spec));
    let scalar = Beamformer::new(&spec)
        .with_order(ScanOrder::ScanlineByScanline)
        .beamform_volume(engine.as_ref(), &rf);
    let mut pipe = FramePipeline::new(
        Beamformer::new(&spec),
        Arc::clone(&engine) as Arc<dyn DelayEngine + Send + Sync>,
        FrameRing::new(vec![rf.clone()]),
    );
    let vol = pipe.next_volume().expect("healthy pipeline");
    assert_eq!(vol, &scalar);
    // The degenerate fan's single theta line reads as the unsteered
    // angle (angle_of with n == 1 returns the fan centre).
    assert_eq!(spec.volume_grid.n_theta(), 1);
}

#[test]
fn single_angle_fan_reduces_to_unsteered_plane_wave() {
    // plane_wave_fan(1, …) is the unsteered wave; the compound of one
    // angle is that angle's masked LRI, through serial and warm paths.
    let spec = cpwc_base().with_transmits(TransmitModel::plane_wave_fan(1, deg(10.0)));
    assert_eq!(
        spec.transmits[0],
        TransmitModel::plane_wave(0.0, 0.0),
        "a 1-angle fan must be unsteered"
    );
    let rf = cpwc_rf(&spec);
    let engine = ExactEngine::new(&spec);
    let bf = Beamformer::new(&spec);
    let vol = bf.beamform_volume(&engine, &rf);
    let mut warm = VolumeLoop::new(Beamformer::new(&spec));
    assert_eq!(warm.beamform(&engine, &rf), &vol);
    for vox in voxels(&spec) {
        let expect = per_angle_then_sum(&bf, &engine, &rf, vox);
        assert_eq!(vol.get(vox).to_bits(), expect.to_bits(), "voxel {vox}");
    }
}

#[test]
fn mixed_transmit_sequences_compound_too() {
    // The transmit abstraction is not plane-wave-only: a sequence mixing
    // the classic point emission with steered waves compounds under the
    // same accumulator (point emissions carry unit weight everywhere).
    let spec = cpwc_base().with_transmits(vec![
        TransmitModel::PointSource,
        TransmitModel::plane_wave(deg(-6.0), 0.0),
        TransmitModel::plane_wave(deg(6.0), 0.0),
    ]);
    let rf = cpwc_rf(&spec);
    for engine in all_engines(&spec) {
        let bf = Beamformer::new(&spec);
        let tiled = bf.beamform_volume(engine.as_ref(), &rf);
        let scalar = Beamformer::new(&spec)
            .with_order(ScanOrder::ScanlineByScanline)
            .beamform_volume(engine.as_ref(), &rf);
        assert_eq!(tiled, scalar, "{}", engine.name());
        let probe = VoxelIndex::new(4, 4, 10);
        assert_eq!(
            tiled.get(probe).to_bits(),
            per_angle_then_sum(&bf, engine.as_ref(), &rf, probe).to_bits(),
            "{}",
            engine.name()
        );
    }
    let target = Vec3::new(0.0, 0.0, 0.05);
    assert_eq!(spec.transmit_weight(0, target), 1.0);
}
