//! Property-based invariants of the delay engines.

use proptest::prelude::*;
use usbf_core::stats::SampleErrorStats;
use usbf_core::{
    DelayEngine, ExactEngine, NaiveTableEngine, NappeDelays, NappeSchedule, TableFreeConfig,
    TableFreeEngine, TableSteerConfig, TableSteerEngine, Tile,
};
use usbf_geometry::{
    SystemSpec, TransducerSpec, TransmitModel, Vec3, VolumeSpec, VoxelIndex, SPEED_OF_SOUND,
};
use usbf_tables::error::{steering_error_samples, theoretical_bound_seconds};

use std::sync::OnceLock;

/// A randomized tiny geometry with the paper's physical extents: small
/// enough that all four engines build and fill in microseconds, varied
/// enough that slab layouts, fold maps and PWL walks see every
/// even/odd × wide/narrow combination. `origin` places the array
/// origin: on axis TABLESTEER folds its reference table, off axis it
/// stores it whole.
fn random_spec(
    nx: usize,
    ny: usize,
    n_theta: usize,
    n_phi: usize,
    n_depth: usize,
    origin: Vec3,
) -> SystemSpec {
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
        origin,
        15.0,
    )
}

/// An array origin from a proptest integer: on axis for even `pick`,
/// else off axis by a nonzero offset in each of x and y (±0.125 to
/// ±0.875 mm, the scale of the random arrays).
fn random_origin(pick: usize) -> Vec3 {
    if pick.is_multiple_of(2) {
        return Vec3::ZERO;
    }
    let offset = |k: usize| ((k % 8) as f64 - 3.5) * 0.25e-3;
    Vec3::new(offset(pick / 2), offset(pick / 16), 0.0)
}

/// One of the three TABLESTEER fixed-point configurations.
fn random_tablesteer_config(pick: usize) -> TableSteerConfig {
    match pick % 3 {
        0 => TableSteerConfig::bits18(),
        1 => TableSteerConfig::bits14(),
        _ => TableSteerConfig::int13(),
    }
}

/// A random transmit sequence mixing steered plane waves with the
/// classic point emission, deterministically derived from proptest
/// integers: bit `i` of `kinds` picks transmit `i`'s flavour, `a`/`b`
/// seed the steering angles (±12° in 1° steps, varied per transmit).
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

/// A narrow CPWC cone over a random tiny geometry: half-angles of 2° to
/// 8° and 40λ to 80λ deep from `(a, b)`, where steered plane-wave
/// footprints cover the grid (under the stock ±36.5° cone most voxels
/// back-project outside a tiny aperture).
fn random_cpwc_spec(
    nx: usize,
    ny: usize,
    n_theta: usize,
    n_phi: usize,
    n_depth: usize,
    origin: Vec3,
    (a, b): (usize, usize),
) -> SystemSpec {
    let wide = random_spec(nx, ny, n_theta, n_phi, n_depth, origin);
    let lambda = wide.wavelength();
    SystemSpec::new(
        wide.speed_of_sound,
        wide.sampling_frequency,
        wide.transducer.clone(),
        VolumeSpec {
            theta_max: usbf_geometry::deg(2.0 + (a % 7) as f64),
            phi_max: usbf_geometry::deg(2.0 + (b % 7) as f64),
            depth_max: (40 + (a / 7) % 41) as f64 * lambda,
            ..wide.volume.clone()
        },
        origin,
        wide.frame_rate,
    )
}

/// `SampleErrorStats` of `engine`'s batched delay rows against EXACT's,
/// over every (transmit, voxel, element) of `spec`: per nappe the
/// receive-leg fill, then one `combine_tx_row` per row and transmit —
/// the rows the tile kernel rounds.
fn row_error_stats(
    engine: &dyn DelayEngine,
    exact: &ExactEngine,
    spec: &SystemSpec,
) -> SampleErrorStats {
    let mut rx = NappeDelays::full(spec);
    let mut rx_exact = NappeDelays::full(spec);
    let n = rx.n_elements();
    let (mut row, mut row_exact) = (vec![0.0; n], vec![0.0; n]);
    let (mut count, mut sum, mut max) = (0u64, 0.0, 0.0f64);
    for id in 0..spec.volume_grid.n_depth() {
        engine.fill_nappe_rx(id, &mut rx);
        exact.fill_nappe_rx(id, &mut rx_exact);
        for tx in 0..spec.n_transmits() {
            for (slot, it, ip) in rx.scanlines() {
                let vox = VoxelIndex::new(it, ip, id);
                engine.combine_tx_row(tx, vox, rx.row(slot), &mut row);
                exact.combine_tx_row(tx, vox, rx_exact.row(slot), &mut row_exact);
                for (a, b) in row.iter().zip(&row_exact) {
                    let d = (a - b).abs();
                    count += 1;
                    sum += d;
                    max = max.max(d);
                }
            }
        }
    }
    SampleErrorStats {
        count,
        mean_abs: sum / count as f64,
        max_abs: max,
    }
}

/// A random fan tile: `(a, b)` picks start/width within `n` lines.
fn random_span(n: usize, a: usize, b: usize) -> (usize, usize) {
    let start = a % n;
    let width = 1 + b % (n - start);
    (start, start + width)
}

struct Fixture {
    spec: SystemSpec,
    exact: ExactEngine,
    naive: NaiveTableEngine,
    tablefree: TableFreeEngine,
    tablesteer: TableSteerEngine,
    bound_samples: f64,
}

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| {
        let spec = SystemSpec::tiny();
        Fixture {
            exact: ExactEngine::new(&spec),
            naive: NaiveTableEngine::build(&spec, u64::MAX).expect("tiny table fits"),
            tablefree: TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds"),
            tablesteer: TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds"),
            bound_samples: spec.seconds_to_samples(theoretical_bound_seconds(&spec)),
            spec,
        }
    })
}

/// One rounding-stage input from a 64-bit draw: mostly finite delays in
/// `±2·echo_len`, with every edge of the `floor(x + ½)` clamp mixed in —
/// NaN, ±∞, ±0, exact half-integers and both window edges (`−½` and
/// `echo_len − ½`) with their next-lower neighbours.
fn rounding_input(draw: u64, echo_len: usize) -> f64 {
    let n = echo_len as f64;
    let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
    match draw % 16 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => (unit * 4.0 * n).floor() - 2.0 * n + 0.5,
        6 => -0.5,
        7 => f64::next_down(-0.5),
        8 => n - 0.5,
        9 => f64::next_down(n - 0.5),
        _ => (unit * 2.0 - 1.0) * 2.0 * n,
    }
}

/// SplitMix64: a deterministic stream of draws from one proptest seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #[test]
    fn quantize_row_equals_per_element_rounding_for_every_engine(
        seed in any::<u64>(),
        len in 1usize..70,
    ) {
        // The batched rounding stage against its scalar definition, on
        // rows long and short enough to hit both the vector body and the
        // scalar tail of the loop. TABLESTEER runs on fresh clones (zeroed
        // counters), so its clamp telemetry can be compared exactly.
        let f = fixture();
        let mut state = seed;
        let echo_len = f.exact.echo_buffer_len();
        let row: Vec<f64> = (0..len)
            .map(|_| rounding_input(splitmix(&mut state), echo_len))
            .collect();
        let batched_ts = f.tablesteer.clone();
        let scalar_ts = f.tablesteer.clone();
        let engines: [(&dyn DelayEngine, &dyn DelayEngine); 4] = [
            (&f.exact, &f.exact),
            (&f.naive, &f.naive),
            (&f.tablefree, &f.tablefree),
            (&batched_ts, &scalar_ts),
        ];
        for (batched, scalar) in engines {
            prop_assert_eq!(batched.echo_buffer_len(), echo_len);
            let mut out = vec![-1i32; len];
            batched.quantize_row(&row, &mut out);
            for (&x, &o) in row.iter().zip(&out) {
                prop_assert_eq!(
                    i64::from(o), scalar.delay_index_from(x),
                    "{} rounds {:?} differently", batched.name(), x
                );
            }
        }
        let clamps = row
            .iter()
            .filter(|&&x| {
                let idx = (x + 0.5).floor() as i64;
                idx != idx.clamp(0, echo_len as i64 - 1)
            })
            .count() as u64;
        prop_assert_eq!(scalar_ts.clamp_events(), clamps);
        prop_assert_eq!(batched_ts.clamp_events(), clamps, "row {:?}", row);
    }

    #[test]
    fn tablefree_error_envelope_everywhere(
        vox_pick in 0usize..100_000,
        e_pick in 0usize..64,
    ) {
        let f = fixture();
        let vox = f.spec.volume_grid.voxel_at(vox_pick % f.spec.volume_grid.voxel_count());
        let e = f.spec.elements.element_at(e_pick % f.spec.elements.count());
        let err = (f.tablefree.delay_samples(0, vox, e) - f.exact.delay_samples(0, vox, e)).abs();
        // Two δ=0.25 PWL approximations + quantization headroom.
        prop_assert!(err <= 0.7, "err = {}", err);
        let sel = (f.tablefree.delay_index(0, vox, e) - f.exact.delay_index(0, vox, e)).abs();
        prop_assert!(sel <= 2, "selection error {}", sel);
    }

    #[test]
    fn tablesteer_error_below_theoretical_bound(
        vox_pick in 0usize..100_000,
        e_pick in 0usize..64,
    ) {
        let f = fixture();
        let vox = f.spec.volume_grid.voxel_at(vox_pick % f.spec.volume_grid.voxel_count());
        let e = f.spec.elements.element_at(e_pick % f.spec.elements.count());
        let err = (f.tablesteer.delay_samples(0, vox, e) - f.exact.delay_samples(0, vox, e)).abs();
        prop_assert!(err <= f.bound_samples + 1.0, "err = {} bound = {}", err, f.bound_samples);
    }

    #[test]
    fn steered_plane_wave_rows_stay_within_format_bounds_of_exact(
        nx in 2usize..7,
        ny in 2usize..7,
        n_theta in 2usize..7,
        n_phi in 2usize..7,
        n_depth in 4usize..10,
        cone in (0usize..1000, 0usize..1000),
        origin_pick in 0usize..1000,
        config_pick in 0usize..3,
        n_tx in 1usize..6,
        angle_a in 0usize..1000,
        angle_b in 0usize..1000,
    ) {
        // Accuracy of the compound rows against EXACT, on random steered
        // plane-wave sequences (±12°) over random narrow CPWC cones. Each
        // engine's plane-wave transmit leg is exact up to one
        // quantization, so its error budget is its point-source budget
        // plus that quantization:
        // * TABLESTEER: the largest Taylor error of the steered reference
        //   over the grid (`steering_error_samples`, in double precision:
        //   the error its point-source rows already carry), plus ½ LSB of
        //   the reference and ½ LSB for each of cx, cy and the folded Δtx
        //   register — the mean likewise;
        // * TABLEFREE: the n̂ · S projection is exact, so only the receive
        //   root errs — δ of the PWL, its coefficient and output LSBs
        //   (`quantization_error_bound`), ½ LSB of the argument register
        //   times the root's steepest slope `1 / (2√α_lo)`, and ½ LSB of
        //   the multiplier register.
        let origin = random_origin(origin_pick);
        let spec = random_cpwc_spec(nx, ny, n_theta, n_phi, n_depth, origin, cone)
            .with_transmits(random_transmits(n_tx, usize::MAX, angle_a, angle_b));
        let exact = ExactEngine::new(&spec);
        let slop = 1e-9;
        let config = random_tablesteer_config(config_pick);
        let tablesteer = TableSteerEngine::new(&spec, config).expect("builds");
        let (r, c) = (config.reference_format.resolution(), config.correction_format.resolution());
        let quantization = r / 2.0 + 3.0 * c / 2.0 + slop;
        let (reference, steering) = (tablesteer.reference(), tablesteer.steering());
        let mut taylor = Vec::new();
        for i in 0..spec.volume_grid.voxel_count() {
            let vox = spec.volume_grid.voxel_at(i);
            for e in spec.elements.iter() {
                taylor.push(steering_error_samples(&spec, reference, steering, vox, e).abs());
            }
        }
        let taylor_max = taylor.iter().copied().fold(0.0, f64::max);
        let taylor_mean = taylor.iter().sum::<f64>() / taylor.len() as f64;
        let ts = row_error_stats(&tablesteer, &exact, &spec);
        prop_assert!(
            ts.max_abs <= taylor_max + quantization,
            "TABLESTEER {:?}: max {} > {} + {} ({:?})", config, ts.max_abs, taylor_max, quantization, ts
        );
        prop_assert!(
            ts.mean_abs <= taylor_mean + quantization,
            "TABLESTEER {:?}: mean {} > {} + {}", config, ts.mean_abs, taylor_mean, quantization
        );
        let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds");
        let q = tablefree.quantized();
        let f = q.formats();
        let (alpha_lo, _) = TableFreeEngine::sqrt_domain(&spec);
        let free_bound = tablefree.config().delta
            + q.quantization_error_bound()
            + f.argument.resolution() / 2.0 / (2.0 * alpha_lo.sqrt())
            + f.accumulator.resolution() / 2.0
            + slop;
        let tf = row_error_stats(&tablefree, &exact, &spec);
        prop_assert!(
            tf.max_abs <= free_bound,
            "TABLEFREE: max {} > {} ({:?})", tf.max_abs, free_bound, tf
        );
        let every = (spec.volume_grid.voxel_count() * spec.elements.count() * n_tx) as u64;
        prop_assert_eq!((ts.count, tf.count), (every, every));
        prop_assert!(ts.mean_abs <= ts.max_abs && tf.mean_abs <= tf.max_abs);
    }

    #[test]
    fn indices_always_inside_echo_buffer(
        vox_pick in 0usize..100_000,
        e_pick in 0usize..64,
    ) {
        let f = fixture();
        let vox = f.spec.volume_grid.voxel_at(vox_pick % f.spec.volume_grid.voxel_count());
        let e = f.spec.elements.element_at(e_pick % f.spec.elements.count());
        for eng in [&f.exact as &dyn DelayEngine, &f.tablefree, &f.tablesteer] {
            let idx = eng.delay_index(0, vox, e);
            prop_assert!(idx >= 0 && (idx as usize) < eng.echo_buffer_len());
        }
    }

    #[test]
    fn engines_are_deterministic(
        vox_pick in 0usize..100_000,
        e_pick in 0usize..64,
    ) {
        let f = fixture();
        let vox = f.spec.volume_grid.voxel_at(vox_pick % f.spec.volume_grid.voxel_count());
        let e = f.spec.elements.element_at(e_pick % f.spec.elements.count());
        for eng in [&f.exact as &dyn DelayEngine, &f.tablefree, &f.tablesteer] {
            prop_assert_eq!(eng.delay_samples(0, vox, e), eng.delay_samples(0, vox, e));
            prop_assert_eq!(eng.delay_index(0, vox, e), eng.delay_index(0, vox, e));
        }
    }

    #[test]
    fn batched_fills_bit_identical_to_scalar_for_all_engines_on_random_geometries(
        nx in 2usize..6,
        ny in 2usize..6,
        n_theta in 2usize..8,
        n_phi in 2usize..8,
        n_depth in 4usize..12,
        tile_theta in (0usize..1000, 0usize..1000),
        tile_phi in (0usize..1000, 0usize..1000),
        nappe_pick in 0usize..1000,
        origin_pick in 0usize..1000,
        config_pick in 0usize..3,
    ) {
        let origin = random_origin(origin_pick);
        let spec = random_spec(nx, ny, n_theta, n_phi, n_depth, origin);
        let exact = ExactEngine::new(&spec);
        let naive = NaiveTableEngine::build(&spec, u64::MAX).expect("tiny table fits");
        let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds");
        let config = random_tablesteer_config(config_pick);
        let tablesteer = TableSteerEngine::new(&spec, config).expect("builds");
        prop_assert_eq!(tablesteer.reference().is_folded(), origin == Vec3::ZERO);
        let (theta_start, theta_end) = random_span(n_theta, tile_theta.0, tile_theta.1);
        let (phi_start, phi_end) = random_span(n_phi, tile_phi.0, tile_phi.1);
        let tile = Tile { theta_start, theta_end, phi_start, phi_end };
        let nappe = nappe_pick % n_depth;
        for engine in [&exact as &dyn DelayEngine, &naive, &tablefree, &tablesteer] {
            let mut batched = NappeDelays::for_tile(&spec, tile);
            engine.fill_nappe(nappe, &mut batched);
            let mut scalar = NappeDelays::for_tile(&spec, tile);
            scalar.fill_scalar(engine, 0, nappe);
            prop_assert_eq!(
                batched.samples(), scalar.samples(),
                "{} {}x{} elements, {}x{}x{} fan, tile {:?}, nappe {}, origin {:?}, {:?}",
                engine.name(), nx, ny, n_theta, n_phi, n_depth, tile, nappe, origin, config
            );
        }
    }

    #[test]
    fn multi_transmit_fills_bit_identical_to_scalar_per_transmit_on_random_sequences(
        nx in 2usize..6,
        ny in 2usize..6,
        n_theta in 2usize..8,
        n_phi in 2usize..8,
        n_depth in 4usize..12,
        tile_theta in (0usize..1000, 0usize..1000),
        tile_phi in (0usize..1000, 0usize..1000),
        nappe_pick in 0usize..1000,
        origin_pick in 0usize..1000,
        config_pick in 0usize..3,
        n_tx in 1usize..5,
        kinds in 0usize..16,
        angle_a in 0usize..1000,
        angle_b in 0usize..1000,
    ) {
        // Every engine's receive-leg fill plus per-row transmit combine
        // must reproduce the scalar per-voxel reference bit for bit on
        // every transmit of a random compound sequence, and `fill_nappe`
        // (the same pair, in place) must do the same for transmit 0.
        let transmits = random_transmits(n_tx, kinds, angle_a, angle_b);
        let origin = random_origin(origin_pick);
        let spec =
            random_spec(nx, ny, n_theta, n_phi, n_depth, origin).with_transmits(transmits);
        let exact = ExactEngine::new(&spec);
        let naive = NaiveTableEngine::build(&spec, u64::MAX).expect("tiny table fits");
        let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds");
        let config = random_tablesteer_config(config_pick);
        let tablesteer = TableSteerEngine::new(&spec, config).expect("builds");
        prop_assert_eq!(tablesteer.reference().is_folded(), origin == Vec3::ZERO);
        let (theta_start, theta_end) = random_span(n_theta, tile_theta.0, tile_theta.1);
        let (phi_start, phi_end) = random_span(n_phi, tile_phi.0, tile_phi.1);
        let tile = Tile { theta_start, theta_end, phi_start, phi_end };
        let nappe = nappe_pick % n_depth;
        for engine in [&exact as &dyn DelayEngine, &naive, &tablefree, &tablesteer] {
            prop_assert_eq!(engine.transmit_count(), n_tx, "{}", engine.name());
            let mut scalar = NappeDelays::for_tile(&spec, tile);
            let mut rx = NappeDelays::for_tile(&spec, tile);
            engine.fill_nappe_rx(nappe, &mut rx);
            let mut combined = vec![0.0; rx.n_elements()];
            for tx in 0..n_tx {
                scalar.fill_scalar(engine, tx, nappe);
                for (slot, it, ip) in tile.iter_scanlines() {
                    let vox = VoxelIndex::new(it, ip, nappe);
                    engine.combine_tx_row(tx, vox, rx.row(slot), &mut combined);
                    prop_assert_eq!(
                        combined.as_slice(), scalar.row(slot),
                        "{} tx {}/{} slot {} on {}x{} elements, {}x{}x{} fan, tile {:?}, nappe {}, origin {:?}, {:?}",
                        engine.name(), tx, n_tx, slot, nx, ny, n_theta, n_phi, n_depth, tile, nappe,
                        origin, config
                    );
                }
            }

            scalar.fill_scalar(engine, 0, nappe);
            let mut filled = NappeDelays::for_tile(&spec, tile);
            engine.fill_nappe(nappe, &mut filled);
            prop_assert_eq!(
                filled.samples(), scalar.samples(),
                "{} fill_nappe drifted from scalar transmit 0", engine.name()
            );
        }
    }

    #[test]
    fn row_methods_are_element_wise_on_compacted_receive_rows(
        nx in 2usize..6,
        ny in 2usize..6,
        n_theta in 2usize..6,
        n_phi in 2usize..6,
        n_depth in 4usize..10,
        nappe_pick in 0usize..1000,
        origin_pick in 0usize..1000,
        config_pick in 0usize..3,
        n_tx in 1usize..5,
        kinds in 0usize..16,
        angle_a in 0usize..1000,
        angle_b in 0usize..1000,
        runs_seed in any::<u64>(),
    ) {
        // The contract the tile kernel compacts under: each entry of
        // `combine_tx_row` / `quantize_tx_run` depends only on its own
        // receive entry. Combining a receive row compacted to random
        // runs of active elements must equal compacting the full
        // combined row, bit for bit, on every transmit; the fused
        // rounding of a run of rows compacted in place must equal
        // `quantize_row` of each such row, TABLESTEER's clamp count
        // included.
        let transmits = random_transmits(n_tx, kinds, angle_a, angle_b);
        let origin = random_origin(origin_pick);
        let spec =
            random_spec(nx, ny, n_theta, n_phi, n_depth, origin).with_transmits(transmits);
        let n_elements = nx * ny;
        let mut state = runs_seed;
        let mut on = splitmix(&mut state).is_multiple_of(2);
        let mut channels: Vec<usize> = (0..n_elements)
            .filter(|_| {
                if splitmix(&mut state).is_multiple_of(3) {
                    on = !on;
                }
                on
            })
            .collect();
        if channels.is_empty() {
            channels.push((runs_seed % n_elements as u64) as usize);
        }
        let exact = ExactEngine::new(&spec);
        let naive = NaiveTableEngine::build(&spec, u64::MAX).expect("tiny table fits");
        let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds");
        let config = random_tablesteer_config(config_pick);
        let fused_ts = TableSteerEngine::new(&spec, config).expect("builds");
        let split_ts = fused_ts.clone();
        let nappe = nappe_pick % n_depth;
        let pairs: [(&dyn DelayEngine, &dyn DelayEngine); 4] = [
            (&exact, &exact),
            (&naive, &naive),
            (&tablefree, &tablefree),
            (&fused_ts, &split_ts),
        ];
        let compact = |row: &[f64]| channels.iter().map(|&c| row[c]).collect::<Vec<f64>>();
        let active = channels.len();
        for (fused, split) in pairs {
            let mut rx = NappeDelays::full(&spec);
            fused.fill_nappe_rx(nappe, &mut rx);
            let mut compacted = rx.clone();
            for slot in 0..rx.scanline_count() {
                let row = compact(rx.row(slot));
                compacted.row_mut(slot)[..active].copy_from_slice(&row);
            }
            let rows = rx.scanline_count();
            let mut full = vec![0.0; n_elements];
            let mut combined = vec![0.0; active];
            let mut run = vec![0i32; rows * active];
            let mut expected = vec![0i32; active];
            for tx in 0..n_tx {
                fused.quantize_tx_run(tx, &compacted, 0..rows, &mut run);
                for (slot, it, ip) in rx.scanlines() {
                    let vox = VoxelIndex::new(it, ip, nappe);
                    let rx_active = compact(rx.row(slot));
                    split.combine_tx_row(tx, vox, rx.row(slot), &mut full);
                    fused.combine_tx_row(tx, vox, &rx_active, &mut combined);
                    let bits = |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(
                        bits(&combined), bits(&compact(&full)),
                        "{} tx {}/{} slot {} channels {:?}", fused.name(), tx, n_tx, slot, channels
                    );
                    split.quantize_row(&compact(&full), &mut expected);
                    prop_assert_eq!(
                        &run[slot * active..(slot + 1) * active], &expected[..],
                        "{} tx {}/{} slot {} channels {:?}", fused.name(), tx, n_tx, slot, channels
                    );
                }
            }
        }
        prop_assert_eq!(fused_ts.clamp_events(), split_ts.clamp_events());
    }

    #[test]
    fn tablefree_batched_fill_keeps_scalar_op_telemetry_on_random_geometries(
        nx in 2usize..6,
        ny in 2usize..6,
        n_theta in 2usize..8,
        n_phi in 2usize..8,
        n_depth in 4usize..12,
        tile_theta in (0usize..1000, 0usize..1000),
        tile_phi in (0usize..1000, 0usize..1000),
        nappe_pick in 0usize..1000,
        exact_transmit in any::<bool>(),
    ) {
        // The segment-major row fill must advance the sqrt-evaluation
        // counter by exactly the batched-datapath cost the paper argues
        // for — scanlines × (elements + 1 transmit eval unless exact) —
        // while the scalar walk pays the transmit eval per element; both
        // formulas are part of the engine's telemetry contract.
        let spec = random_spec(nx, ny, n_theta, n_phi, n_depth, Vec3::ZERO);
        let config = TableFreeConfig { exact_transmit, ..TableFreeConfig::paper() };
        let tablefree = TableFreeEngine::new(&spec, config).expect("builds");
        let (theta_start, theta_end) = random_span(n_theta, tile_theta.0, tile_theta.1);
        let (phi_start, phi_end) = random_span(n_phi, tile_phi.0, tile_phi.1);
        let tile = Tile { theta_start, theta_end, phi_start, phi_end };
        let nappe = nappe_pick % n_depth;

        let mut batched = NappeDelays::for_tile(&spec, tile);
        let before = tablefree.sqrt_evals();
        tablefree.fill_nappe(nappe, &mut batched);
        let batched_evals = tablefree.sqrt_evals() - before;

        let mut scalar = NappeDelays::for_tile(&spec, tile);
        let before = tablefree.sqrt_evals();
        scalar.fill_scalar(&tablefree, 0, nappe);
        let scalar_evals = tablefree.sqrt_evals() - before;

        let scanlines = tile.scanlines() as u64;
        let elements = (nx * ny) as u64;
        let per_voxel = elements + u64::from(!exact_transmit);
        prop_assert_eq!(batched_evals, scanlines * per_voxel, "batched op counter drifted");
        let per_query = 1 + u64::from(!exact_transmit);
        prop_assert_eq!(scalar_evals, scanlines * elements * per_query, "scalar op counter drifted");
        prop_assert_eq!(batched.samples(), scalar.samples());
    }

    #[test]
    fn fitted_schedules_partition_random_fans_exactly(
        n_theta in 1usize..17,
        n_phi in 1usize..17,
        target_tiles in 1usize..40,
    ) {
        let spec = random_spec(2, 2, n_theta, n_phi, 4, Vec3::ZERO);
        let schedule = NappeSchedule::fitted(&spec, target_tiles);
        let mut covered = vec![0u32; n_theta * n_phi];
        for tile in schedule.tiles() {
            prop_assert!(tile.theta_end <= n_theta && tile.phi_end <= n_phi);
            for it in tile.theta_start..tile.theta_end {
                for ip in tile.phi_start..tile.phi_end {
                    covered[it * n_phi + ip] += 1;
                }
            }
        }
        // Exactly partitioned: every scanline in exactly one tile.
        prop_assert!(
            covered.iter().all(|&c| c == 1),
            "fan {}x{} target {}: coverage {:?}",
            n_theta, n_phi, target_tiles, covered
        );
        // And the slot enumeration agrees with the partition.
        for tile in schedule.tiles() {
            let mut slots: Vec<usize> = tile.iter_scanlines().map(|(s, _, _)| s).collect();
            slots.sort_unstable();
            prop_assert_eq!(slots, (0..tile.scanlines()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn steering_correction_antisymmetric_across_fan(
        it in 0usize..8,
        ip in 0usize..8,
        id in 0usize..16,
        e_pick in 0usize..64,
    ) {
        // Mirroring both the steering line and the element through the
        // array centre leaves the steered delay unchanged — the symmetry
        // TABLESTEER's folded storage exploits.
        let f = fixture();
        let v = &f.spec.volume_grid;
        let e = f.spec.elements.element_at(e_pick % f.spec.elements.count());
        let m = usbf_geometry::ElementIndex::new(7 - e.ix, 7 - e.iy);
        let vox = VoxelIndex::new(it, ip, id);
        let mvox = VoxelIndex::new(v.n_theta() - 1 - it, v.n_phi() - 1 - ip, id);
        let a = f.tablesteer.float_delay_samples(vox, e);
        let b = f.tablesteer.float_delay_samples(mvox, m);
        prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
    }
}
