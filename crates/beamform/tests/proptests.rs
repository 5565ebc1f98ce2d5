//! Property-based invariants of the beamforming pipeline.

use proptest::prelude::*;
use usbf_beamform::{
    ActiveAperture, Apodization, Beamformer, BmodeConfig, Interpolation, PostChain, TileState,
    VolumeLoop,
};
use usbf_core::{
    DelayEngine, ExactEngine, NaiveTableEngine, NappeSchedule, TableFreeConfig, TableFreeEngine,
    TableSteerConfig, TableSteerEngine, Tile,
};
use usbf_geometry::scan::ScanOrder;
use usbf_geometry::{
    ElementIndex, SystemSpec, TransducerArray, TransducerSpec, TransmitModel, Vec3, VolumeSpec,
    VoxelIndex, SPEED_OF_SOUND,
};
use usbf_par::global_arc;
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

/// The schedule tiles inside a rectangle of `schedule`'s tile grid: tile
/// rows `a % rows ..` spanning `1 + b % …` of them, likewise for tile
/// columns — from one tile up to the whole fan.
fn tile_rectangle(spec: &SystemSpec, schedule: &NappeSchedule, a: usize, b: usize) -> Vec<Tile> {
    let block = schedule.block_spec();
    let rows = spec.volume_grid.n_theta() / block.x_per_cycle;
    let cols = spec.volume_grid.n_phi() / block.y_per_cycle;
    let (r0, c0) = (a % rows, (a / rows) % cols);
    let (r1, c1) = (r0 + 1 + b % (rows - r0), c0 + 1 + (b / rows) % (cols - c0));
    schedule
        .tiles()
        .into_iter()
        .filter(|t| {
            let (r, c) = (
                t.theta_start / block.x_per_cycle,
                t.phi_start / block.y_per_cycle,
            );
            (r0..r1).contains(&r) && (c0..c1).contains(&c)
        })
        .collect()
}

/// Beamforms one task and checks every voxel it covers against the
/// scalar walk, bit for bit.
fn task_matches_scalar(
    bf: &Beamformer,
    engine: &dyn DelayEngine,
    rf: &usbf_sim::RfFrame,
    tiles: &[Tile],
    nappes: std::ops::Range<usize>,
) -> Result<(), TestCaseError> {
    let mut state = TileState::band(bf, tiles, nappes.clone());
    bf.beamform_tile_into(engine, rf, &mut state);
    let region = state.region();
    let columns = state.values().chunks_exact(nappes.len());
    for (column, (_, it, ip)) in columns.zip(region.iter_scanlines()) {
        for (&v, id) in column.iter().zip(nappes.clone()) {
            let scalar = bf.beamform_voxel(engine, rf, VoxelIndex::new(it, ip, id));
            prop_assert_eq!(
                v.to_bits(),
                scalar.to_bits(),
                "{} {:?} region {:?} ({} tiles) nappes {:?} voxel ({},{},{}): {} vs {}",
                engine.name(),
                bf.aperture().len(),
                region,
                tiles.len(),
                nappes,
                it,
                ip,
                id,
                v,
                scalar
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_task_shape_is_bit_identical_to_scalar_reference(
        nx in 2usize..6,
        ny in 2usize..6,
        n_theta in 1usize..7,
        n_phi in 1usize..7,
        n_depth in 3usize..12,
        target in 0usize..1_000_000,
        apod_pick in 0usize..3,
        tiles_pick in 0usize..1000,
        rect_a in 0usize..1000,
        rect_b in 0usize..1000,
        band_start in 0usize..1000,
        band_len in 0usize..1000,
    ) {
        // A depth-band task over any rectangle of schedule tiles — one
        // sub-tile up to the whole fan — and any run of nappes, most of
        // which do not divide the depth count, sums every voxel it covers
        // exactly as the scalar walk does, for all four engines × both
        // interpolations × Rect/Hann/Tukey. Fans of 1 to 36 scanlines put
        // the packed row count below, at and just past the group widths
        // (8 and 16 rows), so full groups and exact tails both run.
        let spec = random_spec(nx, ny, n_theta, n_phi, n_depth);
        let schedule = NappeSchedule::fitted(&spec, 1 + tiles_pick % (n_theta * n_phi));
        let tiles = tile_rectangle(&spec, &schedule, rect_a, rect_b);
        let start = band_start % n_depth;
        let nappes = start..start + 1 + band_len % (n_depth - start);
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
                let bf = Beamformer::new(&spec).with_apodization(apod).with_interpolation(interp);
                task_matches_scalar(&bf, engine, &rf, &tiles, nappes.clone())?;
            }
        }
    }

    #[test]
    fn compound_tasks_straddling_the_group_width_match_scalar_reference(
        shape in 0usize..7,
        nx in 2usize..6,
        ny in 2usize..6,
        n_depth in 3usize..9,
        target in 0usize..1_000_000,
        n_tx in 2usize..5,
        kinds in 0usize..16,
        angle_a in 0usize..1000,
        angle_b in 0usize..1000,
        apod_pick in 0usize..3,
        band_start in 0usize..1000,
    ) {
        // A compound frame's task covers one schedule tile. Here that
        // tile is the whole fan, of 1, 7, 8, 9, 15, 16 or 17 scanlines —
        // one row, L − 1, L and L + 1 live rows of a point-source
        // transmit for both group widths L (8 linear, 16 nearest) — while
        // the plane waves' masks leave other live-row counts. Every
        // voxel of the task, over a random run of nappes, matches the
        // scalar compound walk.
        let (n_theta, n_phi) = [(1, 1), (7, 1), (2, 4), (3, 3), (3, 5), (4, 4), (17, 1)][shape];
        let mut txs = random_transmits(n_tx, kinds, angle_a, angle_b);
        txs[0] = TransmitModel::PointSource;
        let spec = random_compound_spec(nx, ny, n_theta, n_phi, n_depth).with_transmits(txs);
        let tiles = NappeSchedule::fitted(&spec, 1).tiles();
        let start = band_start % n_depth;
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
                let bf = Beamformer::new(&spec).with_apodization(apod).with_interpolation(interp);
                task_matches_scalar(&bf, engine, &rf, &tiles, start..n_depth)?;
            }
        }
    }

    #[test]
    fn vector_pack_and_gather_mac_match_the_scalar_walk_on_1_to_40_channels(
        nx in 1usize..9,
        ny in 1usize..6,
        n_theta in 4usize..7,
        n_phi in 4usize..7,
        n_depth in 3usize..7,
        target in 0usize..1_000_000,
        apod_pick in 0usize..3,
        compound in 0usize..2,
        n_tx in 2usize..4,
        kinds in 0usize..8,
        angle_a in 0usize..1000,
        angle_b in 0usize..1000,
    ) {
        // The nearest kernel's AVX2 stages (where the CPU has them): a
        // full 16-row group takes the vector pack for its whole
        // 16-channel squares and the gather MAC for each whole block of
        // four channels, and the scalar stages take the remaining
        // channels and the partial group. Apertures of 1 to 40 active
        // channels (Rect, Hann or Tukey; an aperture the window empties
        // falls back to Rect) over fans of 16 to 36 scanlines put every
        // split of the aperture and of the rows in play, and every voxel
        // matches the scalar walk, single-transmit and compound.
        let spec = if compound == 0 {
            random_spec(nx, ny, n_theta, n_phi, n_depth)
        } else {
            let mut txs = random_transmits(n_tx, kinds, angle_a, angle_b);
            txs[0] = TransmitModel::PointSource;
            random_compound_spec(nx, ny, n_theta, n_phi, n_depth).with_transmits(txs)
        };
        let vox = spec.volume_grid.voxel_at(target % spec.volume_grid.voxel_count());
        let rf = rf_for(&spec, vox);
        let apod = [Apodization::Rect, Apodization::Hann, Apodization::Tukey(0.5)][apod_pick];
        let exact = ExactEngine::new(&spec);
        let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds");
        let tiles = NappeSchedule::fitted(&spec, 1).tiles();
        for engine in [&exact as &dyn DelayEngine, &tablesteer] {
            for interp in [Interpolation::Nearest, Interpolation::Linear] {
                let mut bf = Beamformer::new(&spec).with_apodization(apod).with_interpolation(interp);
                if bf.aperture().is_empty() {
                    bf = bf.with_apodization(Apodization::Rect);
                }
                prop_assert!((1..=40).contains(&bf.aperture().len()));
                task_matches_scalar(&bf, engine, &rf, &tiles, 0..n_depth)?;
            }
        }
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
        let scaled = usbf_sim::RfFrame::from_traces(8, 8, rf.n_samples(), 1, |_, e, t| {
            for (d, s) in t.iter_mut().zip(rf.trace(e).iter()) {
                *d = gain * s;
            }
        })
        .unwrap();
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
        // The voxel-parallel tile kernel (per nappe: the engine's emit
        // into the [scanline][active] block, then one channel at a time
        // into per-scanline accumulators) reproduces the scalar
        // ScanlineByScanline walk bit for bit, for all four engines ×
        // both interpolations, on randomized geometry — including
        // apertures with zero-weight borders (Hann), whose emit walks
        // several runs, and the full Rect aperture, one run. Both the
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
                let mut fitted =
                    VolumeLoop::with_pool(bf(ScanOrder::NappeByNappe), global_arc(), &schedule);
                let tiled = fitted.beamform(engine, &rf);
                for (label, vectorized) in [("pool", &pooled), ("fitted", tiled)] {
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
        apod_pick in 0usize..3,
        tiles_pick in 0usize..1000,
    ) {
        // The tile kernel on a compound sequence (per nappe: one
        // receive-leg fill; per transmit: combine each insonified row,
        // pack it into the live block, channel-outer MAC, masked
        // skip-on-zero accumulate) reproduces the scalar per-voxel
        // compound walk bit for bit, for all four engines × both
        // interpolations, on random transmit sequences mixing steered
        // plane waves with point emissions. Live-row packing depends on
        // the tile shape and the emit's run walk on the aperture, so both
        // are random too.
        let spec = random_compound_spec(nx, ny, n_theta, n_phi, n_depth)
            .with_transmits(random_transmits(n_tx, kinds, angle_a, angle_b));
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
                let mut fitted =
                    VolumeLoop::with_pool(bf(ScanOrder::NappeByNappe), global_arc(), &schedule);
                let tiled = fitted.beamform(engine, &rf);
                let scalar = bf(ScanOrder::ScanlineByScanline).beamform_volume(engine, &rf);
                for (i, (a, b)) in tiled.as_slice().iter().zip(scalar.as_slice()).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} {:?} {:?} {} transmits (kinds {:#x}), {} tiles, voxel {}: {} vs {}",
                        engine.name(), interp, apod, n_tx, kinds, schedule.tiles().len(), i, a, b
                    );
                }
            }
        }
        // Rounding-telemetry leg: the nearest kernel quantizes every
        // (voxel, transmit) row, masked ones included, so TABLESTEER's
        // clamp count equals that of per-element `delay_index` queries
        // over every voxel × transmit × active channel (clones start
        // zeroed). The loop runs the frame as whole-fan depth bands, so
        // the count is taken through the band shape.
        let oracle = tablesteer.clone();
        let batched = tablesteer.clone();
        let bf = Beamformer::new(&spec).with_apodization(apod);
        let mut banded = VolumeLoop::with_pool(bf.clone(), global_arc(), &schedule);
        let fan = NappeSchedule::fitted(&spec, 1).tiles()[0];
        let mut next = 0;
        for task in banded.tasks() {
            prop_assert_eq!(task.region(), fan, "a band spans the whole fan");
            prop_assert_eq!(task.nappes().start, next, "bands are contiguous");
            next = task.nappes().end;
        }
        prop_assert_eq!(next, n_depth, "bands cover every nappe");
        banded.beamform(&batched, &rf);
        let nx = spec.elements.nx();
        for i in 0..spec.volume_grid.voxel_count() {
            let vox = spec.volume_grid.voxel_at(i);
            for tx in 0..n_tx {
                for &chan in bf.aperture().channels() {
                    let e = ElementIndex::new(chan as usize % nx, chan as usize / nx);
                    oracle.delay_index(tx, vox, e);
                }
            }
        }
        prop_assert_eq!(batched.clamp_events(), oracle.clamp_events());
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
        // The demod → envelope → log-compress chain run once over the
        // volume the depth bands scatter into — by a cold nappe-order
        // call and by warm loops on 1 and 3 workers, whose band counts
        // (2 and 6) need not divide `n_depth` — reproduces the scalar
        // reference (a ScanlineByScanline walk followed by the same
        // whole-volume pass) bit for bit, for all four engines, on
        // randomized geometry. Every warm frame equals it, so the chain
        // runs once per column per frame.
        let spec = random_spec(nx, ny, n_theta, n_phi, n_depth);
        let vox = spec.volume_grid.voxel_at(target % spec.volume_grid.voxel_count());
        let rf = rf_for(&spec, vox);
        let bmode = PostChain::bmode(BmodeConfig::from_spec(&spec));
        let exact = ExactEngine::new(&spec);
        let naive = NaiveTableEngine::build(&spec, u64::MAX).expect("tiny table fits");
        let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds");
        let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds");
        let engines: [&dyn DelayEngine; 4] = [&exact, &naive, &tablefree, &tablesteer];
        let bf = |order| {
            Beamformer::new(&spec)
                .with_order(order)
                .with_postproc(bmode.clone())
        };
        let mut loops: Vec<(usize, VolumeLoop)> = [1, 3]
            .into_iter()
            .map(|workers| {
                let pool = std::sync::Arc::new(usbf_par::ThreadPool::new(workers));
                let schedule = NappeSchedule::fitted(&spec, 4 * workers);
                (workers, VolumeLoop::with_pool(bf(ScanOrder::NappeByNappe), pool, &schedule))
            })
            .collect();
        for (workers, rt) in &loops {
            prop_assert_eq!(rt.task_count(), (2 * workers).min(n_depth), "{} workers", workers);
        }
        for engine in engines {
            let scalar = bf(ScanOrder::ScanlineByScanline).beamform_volume(engine, &rf);
            let mut volumes = vec![(
                "cold nappe order".to_string(),
                bf(ScanOrder::NappeByNappe).beamform_volume(engine, &rf),
            )];
            for (workers, rt) in &mut loops {
                for frame in 0..2 {
                    let vol = rt.beamform(engine, &rf).clone();
                    volumes.push((format!("{workers} workers frame {frame}"), vol));
                }
            }
            for (path, vol) in &volumes {
                for (i, (a, b)) in vol.as_slice().iter().zip(scalar.as_slice()).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} {} voxel {}: {} vs {}",
                        engine.name(), path, i, a, b
                    );
                }
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
        let rf = usbf_sim::RfFrame::from_traces(8, 8, spec.echo_buffer_len(), 1, |_, _, t| {
            t.fill(1.0);
        })
        .unwrap();
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

    #[test]
    fn aperture_runs_cover_the_channels(
        nx in 1usize..14,
        ny in 1usize..14,
        column in any::<bool>(),
        apod_pick in 0usize..4,
        taper in 0.0f64..1.0,
    ) {
        // `column` forces a 1×N array; other draws cover odd and even
        // sizes of both axes.
        let nx = if column { 1 } else { nx };
        let apod = match apod_pick {
            0 => Apodization::Rect,
            1 => Apodization::Hann,
            2 => Apodization::Hamming,
            _ => Apodization::Tukey(taper),
        };
        let array = TransducerArray::new(nx, ny, 0.2e-3);
        let aperture = ActiveAperture::build(apod, &array);
        let runs = aperture.runs();
        prop_assert!(runs.iter().all(|r| !r.is_empty()), "{:?} {}x{}: empty run", apod, nx, ny);
        prop_assert!(
            runs.windows(2).all(|p| p[0].end < p[1].start),
            "{:?} {}x{}: runs unsorted or adjacent: {:?}", apod, nx, ny, runs
        );
        let covered: Vec<u32> = runs.iter().flat_map(|r| r.clone()).map(|c| c as u32).collect();
        prop_assert_eq!(covered.as_slice(), aperture.channels(), "{:?} {}x{}", apod, nx, ny);
    }
}
