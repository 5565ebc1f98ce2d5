//! Property-based invariants of the beamforming pipeline.

use proptest::prelude::*;
use usbf_beamform::{Apodization, Beamformer, BmodeConfig, Interpolation, PostChain};
use usbf_core::{
    DelayEngine, ExactEngine, NaiveTableEngine, TableFreeConfig, TableFreeEngine, TableSteerConfig,
    TableSteerEngine,
};
use usbf_geometry::scan::ScanOrder;
use usbf_geometry::{
    SystemSpec, TransducerSpec, TransmitModel, Vec3, VolumeSpec, VoxelIndex, SPEED_OF_SOUND,
};
use usbf_sim::{EchoSynthesizer, Phantom, Pulse};

fn rf_for(spec: &SystemSpec, vox: VoxelIndex) -> usbf_sim::RfFrame {
    EchoSynthesizer::new(spec).synthesize(
        &Phantom::point(spec.volume_grid.position(vox)),
        &Pulse::from_spec(spec),
    )
}

/// A randomized tiny geometry with the paper's physical extents (the
/// same shape the core crate's slab-fill proptests randomize).
fn random_spec(nx: usize, ny: usize, n_theta: usize, n_phi: usize, n_depth: usize) -> SystemSpec {
    let fc = 4.0e6;
    let lambda = SPEED_OF_SOUND / fc;
    SystemSpec::new(
        SPEED_OF_SOUND,
        32.0e6,
        TransducerSpec {
            center_frequency: fc,
            bandwidth: 4.0e6,
            nx,
            ny,
            pitch: lambda / 2.0,
        },
        VolumeSpec {
            theta_max: usbf_geometry::deg(36.5),
            phi_max: usbf_geometry::deg(36.5),
            depth_max: 500.0 * lambda,
            n_theta,
            n_phi,
            n_depth,
        },
        Vec3::ZERO,
        15.0,
    )
}

/// Like [`random_spec`] but with a narrow cone (±4° over 60λ) so
/// plane-wave footprints actually intersect the grid: under the stock
/// ±36.5° cone every voxel back-projects outside a tiny aperture and
/// all compound masks degenerate to zero.
fn random_compound_spec(
    nx: usize,
    ny: usize,
    n_theta: usize,
    n_phi: usize,
    n_depth: usize,
) -> SystemSpec {
    let wide = random_spec(nx, ny, n_theta, n_phi, n_depth);
    let lambda = wide.wavelength();
    SystemSpec::new(
        wide.speed_of_sound,
        wide.sampling_frequency,
        wide.transducer.clone(),
        VolumeSpec {
            theta_max: usbf_geometry::deg(4.0),
            phi_max: usbf_geometry::deg(4.0),
            depth_max: 60.0 * lambda,
            ..wide.volume.clone()
        },
        wide.origin,
        wide.frame_rate,
    )
}

/// A random transmit sequence mixing steered plane waves with the
/// classic point emission (bit `i` of `kinds` picks the flavour).
fn random_transmits(n_tx: usize, kinds: usize, a: usize, b: usize) -> Vec<TransmitModel> {
    (0..n_tx)
        .map(|i| {
            if (kinds >> i) & 1 == 0 {
                TransmitModel::PointSource
            } else {
                let theta = ((a + 7 * i) % 25) as f64 - 12.0;
                let phi = ((b + 5 * i) % 25) as f64 - 12.0;
                TransmitModel::plane_wave(usbf_geometry::deg(theta), usbf_geometry::deg(phi))
            }
        })
        .collect()
}

/// Asserts the factored compound path (rx slab filled once per nappe +
/// per-transmit combines) reproduces the fused per-transmit loop bit for
/// bit on one engine: `FusedOnly` hides the factored family, forcing the
/// fallback loop on an otherwise-identical engine instance.
fn prop_factored_matches_fused<E>(
    spec: &SystemSpec,
    rf: &usbf_sim::RfFrame,
    make: impl Fn() -> E,
) -> Result<(), TestCaseError>
where
    E: DelayEngine + Clone + std::fmt::Debug,
{
    let schedule = usbf_core::NappeSchedule::fitted(spec, 3);
    for interp in [Interpolation::Nearest, Interpolation::Linear] {
        let factored_engine = make();
        prop_assert!(
            factored_engine.supports_factored_fill(),
            "{} must join the factored family",
            factored_engine.name()
        );
        let fused_engine = usbf_core::FusedOnly(make());
        let bf = Beamformer::new(spec).with_interpolation(interp);
        let factored = bf.beamform_volume_tiled(&factored_engine, rf, &schedule);
        let fused = bf.beamform_volume_tiled(&fused_engine, rf, &schedule);
        for (i, (a, b)) in factored.as_slice().iter().zip(fused.as_slice()).enumerate() {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} {:?} voxel {}: {} vs {}",
                factored_engine.name(),
                interp,
                i,
                a,
                b
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn factored_compound_path_bit_identical_to_fused_on_random_transmits(
        nx in 2usize..6,
        ny in 2usize..6,
        n_theta in 2usize..6,
        n_phi in 2usize..6,
        n_depth in 4usize..10,
        target in 0usize..1_000_000,
        n_tx in 1usize..5,
        kinds in 0usize..16,
        angle_a in 0usize..1000,
        angle_b in 0usize..1000,
    ) {
        // The PR 10 tentpole invariant: factoring the transmit-invariant
        // receive leg out of the compound loop (one fill_nappe_rx per
        // (nappe, tile) + per-transmit combine_tx_row) changes the
        // delay-generation cost, not a single output bit — for all four
        // engines × both interpolations, on random transmit sequences
        // mixing steered plane waves with point emissions. TABLESTEER
        // additionally proves the rounding
        // telemetry matches: the factored nearest kernel quantizes every
        // transmit's combined row, masked ones included, exactly like
        // the fused kernel.
        let spec = random_compound_spec(nx, ny, n_theta, n_phi, n_depth)
            .with_transmits(random_transmits(n_tx, kinds, angle_a, angle_b));
        let vox = spec.volume_grid.voxel_at(target % spec.volume_grid.voxel_count());
        let rf = rf_for(&spec, vox);
        prop_factored_matches_fused(&spec, &rf, || ExactEngine::new(&spec))?;
        prop_factored_matches_fused(&spec, &rf, || {
            NaiveTableEngine::build(&spec, u64::MAX).expect("tiny table fits")
        })?;
        prop_factored_matches_fused(&spec, &rf, || {
            TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds")
        })?;
        prop_factored_matches_fused(&spec, &rf, || {
            TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds")
        })?;
        // Rounding-telemetry leg: clamp counts advance identically on
        // the factored and fused nearest kernels (clones start zeroed).
        let factored_engine = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds");
        let fused_engine = usbf_core::FusedOnly(factored_engine.clone());
        let schedule = usbf_core::NappeSchedule::fitted(&spec, 3);
        let bf = Beamformer::new(&spec);
        bf.beamform_volume_tiled(&factored_engine, &rf, &schedule);
        bf.beamform_volume_tiled(&fused_engine, &rf, &schedule);
        prop_assert_eq!(factored_engine.clamp_events(), fused_engine.0.clamp_events());
    }

    #[test]
    fn beamforming_is_linear_in_rf(
        it in 0usize..8,
        ip in 0usize..8,
        id in 2usize..16,
        gain in 0.25f64..4.0,
    ) {
        let spec = SystemSpec::tiny();
        let vox = VoxelIndex::new(it, ip, id);
        let rf = rf_for(&spec, vox);
        // Scale the RF by `gain` and compare beamformed values.
        let mut scaled = usbf_sim::RfFrame::zeros(8, 8, rf.n_samples());
        for e in spec.elements.iter() {
            let src = rf.trace(e).to_vec();
            for (d, s) in scaled.trace_mut(e).iter_mut().zip(src) {
                *d = gain * s;
            }
        }
        let bf = Beamformer::new(&spec);
        let engine = ExactEngine::new(&spec);
        let a = bf.beamform_voxel(&engine, &rf, vox);
        let b = bf.beamform_voxel(&engine, &scaled, vox);
        prop_assert!((b - gain * a).abs() < 1e-9 * gain.max(1.0) * a.abs().max(1.0));
    }

    #[test]
    fn apodized_peak_never_exceeds_rect_peak(
        it in 0usize..8,
        ip in 0usize..8,
        id in 2usize..16,
    ) {
        let spec = SystemSpec::tiny();
        let vox = VoxelIndex::new(it, ip, id);
        let rf = rf_for(&spec, vox);
        let engine = ExactEngine::new(&spec);
        let rect = Beamformer::new(&spec)
            .with_apodization(Apodization::Rect)
            .beamform_voxel(&engine, &rf, vox)
            .abs();
        for apod in [Apodization::Hann, Apodization::Hamming, Apodization::Tukey(0.5)] {
            let v = Beamformer::new(&spec)
                .with_apodization(apod)
                .beamform_voxel(&engine, &rf, vox)
                .abs();
            prop_assert!(v <= rect + 1e-9, "{:?}: {} > {}", apod, v, rect);
        }
    }

    #[test]
    fn volume_values_order_independent(
        it in 0usize..8,
        ip in 0usize..8,
        id in 0usize..16,
    ) {
        let spec = SystemSpec::tiny();
        let probe = VoxelIndex::new(it, ip, id);
        let rf = rf_for(&spec, VoxelIndex::new(4, 4, 8));
        let engine = ExactEngine::new(&spec);
        let nappe = Beamformer::new(&spec).with_order(ScanOrder::NappeByNappe);
        let scan = Beamformer::new(&spec).with_order(ScanOrder::ScanlineByScanline);
        let a = nappe.beamform_volume(&engine, &rf);
        let b = scan.beamform_volume(&engine, &rf);
        prop_assert_eq!(a.get(probe), b.get(probe));
    }

    #[test]
    fn vectorized_kernel_bit_identical_to_scalar_reference_on_random_specs(
        nx in 2usize..6,
        ny in 2usize..6,
        n_theta in 2usize..6,
        n_phi in 2usize..6,
        n_depth in 4usize..10,
        target in 0usize..1_000_000,
        apod_pick in 0usize..3,
        tiles_pick in 0usize..1000,
    ) {
        // The voxel-parallel tile kernel (per nappe: batched quantize_row
        // into the [scanline][active] block, then one channel at a time
        // into per-scanline accumulators) reproduces the scalar
        // ScanlineByScanline walk bit for bit, for all four engines ×
        // both interpolations, on randomized geometry — including
        // apertures with zero-weight borders (Hann) that exercise the row
        // compaction and the full Rect aperture that skips it. Both the
        // global pool's schedule and a random tile count from one
        // single-scanline tile per scanline up to one whole-fan tile
        // drive the block kernel.
        let spec = random_spec(nx, ny, n_theta, n_phi, n_depth);
        let schedule =
            usbf_core::NappeSchedule::fitted(&spec, 1 + tiles_pick % (n_theta * n_phi));
        let vox = spec.volume_grid.voxel_at(target % spec.volume_grid.voxel_count());
        let rf = rf_for(&spec, vox);
        let apod = [Apodization::Rect, Apodization::Hann, Apodization::Tukey(0.5)][apod_pick];
        let exact = ExactEngine::new(&spec);
        let naive = NaiveTableEngine::build(&spec, u64::MAX).expect("tiny table fits");
        let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds");
        let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds");
        let engines: [&dyn DelayEngine; 4] = [&exact, &naive, &tablefree, &tablesteer];
        for engine in engines {
            for interp in [Interpolation::Nearest, Interpolation::Linear] {
                let bf = |order| {
                    Beamformer::new(&spec)
                        .with_apodization(apod)
                        .with_interpolation(interp)
                        .with_order(order)
                };
                let scalar = bf(ScanOrder::ScanlineByScanline).beamform_volume(engine, &rf);
                let pooled = bf(ScanOrder::NappeByNappe).beamform_volume(engine, &rf);
                let tiled = bf(ScanOrder::NappeByNappe).beamform_volume_tiled(engine, &rf, &schedule);
                for (label, vectorized) in [("pool", &pooled), ("fitted", &tiled)] {
                    for (i, (a, b)) in vectorized
                        .as_slice()
                        .iter()
                        .zip(scalar.as_slice())
                        .enumerate()
                    {
                        prop_assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{} {:?} {:?} {} schedule ({} tiles) voxel {}: {} vs {}",
                            engine.name(), interp, apod, label, schedule.tiles().len(), i, a, b
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn compound_kernel_bit_identical_to_scalar_reference_on_random_transmits(
        nx in 2usize..6,
        ny in 2usize..6,
        n_theta in 2usize..6,
        n_phi in 2usize..6,
        n_depth in 4usize..10,
        target in 0usize..1_000_000,
        n_tx in 1usize..5,
        kinds in 0usize..16,
        angle_a in 0usize..1000,
        angle_b in 0usize..1000,
    ) {
        // The PR 9 tentpole invariant: the compound tile kernel (per
        // transmit: batched fill → gather → MAC into the low-resolution
        // scratch, then the masked skip-on-zero accumulate) reproduces
        // the scalar per-voxel compound walk bit for bit, for all four
        // engines × both interpolations, on random transmit sequences
        // mixing steered plane waves with point emissions.
        let spec = random_compound_spec(nx, ny, n_theta, n_phi, n_depth)
            .with_transmits(random_transmits(n_tx, kinds, angle_a, angle_b));
        let vox = spec.volume_grid.voxel_at(target % spec.volume_grid.voxel_count());
        let rf = rf_for(&spec, vox);
        let exact = ExactEngine::new(&spec);
        let naive = NaiveTableEngine::build(&spec, u64::MAX).expect("tiny table fits");
        let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds");
        let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds");
        let engines: [&dyn DelayEngine; 4] = [&exact, &naive, &tablefree, &tablesteer];
        for engine in engines {
            for interp in [Interpolation::Nearest, Interpolation::Linear] {
                let bf = |order| {
                    Beamformer::new(&spec)
                        .with_interpolation(interp)
                        .with_order(order)
                };
                let tiled = bf(ScanOrder::NappeByNappe).beamform_volume(engine, &rf);
                let scalar = bf(ScanOrder::ScanlineByScanline).beamform_volume(engine, &rf);
                for (i, (a, b)) in tiled.as_slice().iter().zip(scalar.as_slice()).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} {:?} {} transmits (kinds {:#x}) voxel {}: {} vs {}",
                        engine.name(), interp, n_tx, kinds, i, a, b
                    );
                }
            }
        }
    }

    #[test]
    fn fused_bmode_chain_bit_identical_to_scalar_reference_on_random_specs(
        nx in 2usize..6,
        ny in 2usize..6,
        n_theta in 2usize..6,
        n_phi in 2usize..6,
        n_depth in 4usize..10,
        target in 0usize..1_000_000,
    ) {
        // The PR 8 tentpole invariant: the demod → envelope →
        // log-compress chain fused into the per-tile kernel (each tile
        // column runs through the chain on slab-resident scratch before
        // the scatter) reproduces the scalar reference — a
        // ScanlineByScanline walk followed by a separate whole-volume
        // post-processing pass — bit for bit, for all four engines, on
        // randomized geometry. Holds because every stage is
        // column-local and the log-compression reference level is
        // fixed, so the chain commutes with tiling.
        let spec = random_spec(nx, ny, n_theta, n_phi, n_depth);
        let vox = spec.volume_grid.voxel_at(target % spec.volume_grid.voxel_count());
        let rf = rf_for(&spec, vox);
        let bmode = PostChain::bmode(BmodeConfig::from_spec(&spec));
        let exact = ExactEngine::new(&spec);
        let naive = NaiveTableEngine::build(&spec, u64::MAX).expect("tiny table fits");
        let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds");
        let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds");
        let engines: [&dyn DelayEngine; 4] = [&exact, &naive, &tablefree, &tablesteer];
        for engine in engines {
            let bf = |order| {
                Beamformer::new(&spec)
                    .with_order(order)
                    .with_postproc(bmode.clone())
            };
            let fused = bf(ScanOrder::NappeByNappe).beamform_volume(engine, &rf);
            let scalar = bf(ScanOrder::ScanlineByScanline).beamform_volume(engine, &rf);
            for (i, (a, b)) in fused.as_slice().iter().zip(scalar.as_slice()).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} voxel {}: {} vs {}",
                    engine.name(), i, a, b
                );
            }
        }
    }

    #[test]
    fn interpolation_agrees_on_integer_delays(
        it in 0usize..8,
        ip in 0usize..8,
        id in 2usize..16,
    ) {
        // With an all-ones apodization and a synthetic frame whose traces
        // are constant, nearest and linear fetch agree exactly.
        let spec = SystemSpec::tiny();
        let mut rf = usbf_sim::RfFrame::zeros(8, 8, spec.echo_buffer_len());
        for e in spec.elements.iter() {
            for v in rf.trace_mut(e) {
                *v = 1.0;
            }
        }
        let engine = ExactEngine::new(&spec);
        let vox = VoxelIndex::new(it, ip, id);
        let near = Beamformer::new(&spec)
            .with_apodization(Apodization::Rect)
            .with_interpolation(Interpolation::Nearest)
            .beamform_voxel(&engine, &rf, vox);
        let lin = Beamformer::new(&spec)
            .with_apodization(Apodization::Rect)
            .with_interpolation(Interpolation::Linear)
            .beamform_voxel(&engine, &rf, vox);
        // Constant traces: both read 1.0 per element wherever the index
        // lands inside the buffer.
        prop_assert!((near - lin).abs() < 1e-9);
    }
}
