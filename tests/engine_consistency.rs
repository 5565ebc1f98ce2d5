//! Cross-crate integration: all delay engines agree with the golden model
//! within their documented error envelopes, across geometries.

use usbf::core::{
    stats, DelayEngine, ExactEngine, NaiveTableEngine, NappeDelays, NappeSchedule, TableFreeConfig,
    TableFreeEngine, TableSteerConfig, TableSteerEngine,
};
use usbf::geometry::{SystemSpec, Vec3};
use usbf::tables::error::theoretical_bound_seconds;

/// Asserts that an engine's batched `fill_nappe` is bit-exact with the
/// scalar `delay_samples` walk over the given slab tile and nappes.
fn assert_fill_nappe_bit_exact(
    engine: &dyn DelayEngine,
    spec: &SystemSpec,
    tile: usbf::core::Tile,
    nappes: &[usize],
) {
    let mut batched = NappeDelays::for_tile(spec, tile);
    let mut scalar = NappeDelays::for_tile(spec, tile);
    for &id in nappes {
        engine.fill_nappe(id, &mut batched);
        scalar.fill_scalar(engine, 0, id);
        for (slot, (a, b)) in batched.samples().iter().zip(scalar.samples()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: nappe {id}, slab entry {slot}: {a} vs {b}",
                engine.name()
            );
        }
    }
}

#[test]
fn all_engines_agree_on_tiny_geometry() {
    let spec = SystemSpec::tiny();
    let exact = ExactEngine::new(&spec);
    let naive = NaiveTableEngine::build(&spec, u64::MAX).unwrap();
    let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
    let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();

    // NAIVE is bit-identical to EXACT.
    let s = stats::selection_error(&naive, &exact, &spec, 1, 1);
    assert_eq!(s.max_abs, 0);

    // TABLEFREE: §VI-A envelope (max selection error 2).
    let s = stats::selection_error(&tablefree, &exact, &spec, 1, 1);
    assert!(s.max_abs <= 2, "TABLEFREE max = {}", s.max_abs);

    // TABLESTEER: algorithmic error below the theoretical bound.
    let bound = spec.seconds_to_samples(theoretical_bound_seconds(&spec)) + 1.0;
    let s = stats::sample_error(&tablesteer, &exact, &spec, 1, 1);
    assert!(
        s.max_abs <= bound,
        "TABLESTEER max = {} > {}",
        s.max_abs,
        bound
    );
}

#[test]
fn engines_respect_error_ordering_in_far_field() {
    // Deep voxels, small aperture: TABLESTEER's far-field assumption is
    // excellent there, and both engines are within a couple samples.
    let spec = SystemSpec::tiny();
    let exact = ExactEngine::new(&spec);
    let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
    let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
    let v = &spec.volume_grid;
    for it in 0..v.n_theta() {
        for ip in 0..v.n_phi() {
            let vox = usbf::geometry::VoxelIndex::new(it, ip, v.n_depth() - 1);
            for e in spec.elements.iter() {
                let te = exact.delay_samples(0, vox, e);
                assert!((tablefree.delay_samples(0, vox, e) - te).abs() < 1.0);
                assert!((tablesteer.delay_samples(0, vox, e) - te).abs() < 2.0);
            }
        }
    }
}

#[test]
fn engine_trait_objects_are_interchangeable() {
    let spec = SystemSpec::tiny();
    let engines: Vec<Box<dyn DelayEngine>> = vec![
        Box::new(ExactEngine::new(&spec)),
        Box::new(TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap()),
        Box::new(TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap()),
    ];
    let vox = usbf::geometry::VoxelIndex::new(3, 3, 10);
    let e = spec.elements.center_element();
    let reference = engines[0].delay_samples(0, vox, e);
    for eng in &engines {
        assert!(
            (eng.delay_samples(0, vox, e) - reference).abs() < 2.0,
            "{}",
            eng.name()
        );
        assert!(eng.delay_index(0, vox, e) >= 0);
        assert_eq!(eng.echo_buffer_len(), spec.echo_buffer_len());
    }
}

#[test]
fn off_axis_origin_consistency() {
    // A displaced emission origin (synthetic-aperture mode): TABLEFREE and
    // TABLESTEER still track the exact engine.
    let base = SystemSpec::tiny();
    let spec = SystemSpec::new(
        base.speed_of_sound,
        base.sampling_frequency,
        base.transducer.clone(),
        base.volume.clone(),
        Vec3::new(1.5e-3, -1.0e-3, 0.0),
        base.frame_rate,
    );
    let exact = ExactEngine::new(&spec);
    let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
    let s = stats::sample_error(&tablefree, &exact, &spec, 3, 1);
    assert!(s.max_abs < 1.0, "TABLEFREE off-axis max = {}", s.max_abs);

    let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
    assert!(
        !tablesteer.reference().is_folded(),
        "off-axis origin cannot fold"
    );
    // Note: the steering correction assumes a centred origin; with a
    // displaced origin the reference table carries the origin offset and
    // the correction plane stays a valid far-field approximation.
    let s = stats::sample_error(&tablesteer, &exact, &spec, 3, 1);
    let bound = spec.seconds_to_samples(theoretical_bound_seconds(&spec)) + 60.0;
    assert!(s.max_abs < bound, "TABLESTEER off-axis max = {}", s.max_abs);
}

#[test]
fn batched_fill_is_bit_exact_for_all_engines_on_tiny() {
    // All four engines, every nappe, whole fan, every element.
    let spec = SystemSpec::tiny();
    let exact = ExactEngine::new(&spec);
    let naive = NaiveTableEngine::build(&spec, u64::MAX).unwrap();
    let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
    let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
    let full = NappeDelays::full(&spec).tile();
    let nappes: Vec<usize> = (0..spec.volume_grid.n_depth()).collect();
    for engine in [&exact as &dyn DelayEngine, &naive, &tablefree, &tablesteer] {
        assert_fill_nappe_bit_exact(engine, &spec, full, &nappes);
    }
}

#[test]
fn batched_fill_is_bit_exact_at_full_scale() {
    // The paper's full Table I geometry: 100×100 elements, 128×128×1000
    // focal points. One whole-fan slab is 163.8M delays, so check one
    // schedule tile (a Fig. 4 block's 8×16 ownership, all 10 000
    // elements) at shallow, middle and deep nappes — 3 × 1.28M delays per
    // engine. NAIVE is excluded: its full-scale table is the 328 GB
    // non-starter the paper rules out.
    let spec = SystemSpec::paper();
    let schedule = NappeSchedule::paper();
    let tile = schedule.tile_of(77);
    let nappes = [0usize, 499, 999];
    let exact = ExactEngine::new(&spec);
    assert_fill_nappe_bit_exact(&exact, &spec, tile, &nappes);
    let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
    assert_fill_nappe_bit_exact(&tablefree, &spec, tile, &nappes);
    let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
    assert_fill_nappe_bit_exact(&tablesteer, &spec, tile, &nappes);
}

#[test]
fn batched_fill_is_bit_exact_on_off_axis_origin() {
    // Synthetic-aperture mode: displaced emission origin, unfolded
    // reference table, exact-transmit TABLEFREE ablation.
    let base = SystemSpec::tiny();
    let spec = SystemSpec::new(
        base.speed_of_sound,
        base.sampling_frequency,
        base.transducer.clone(),
        base.volume.clone(),
        Vec3::new(1.5e-3, -1.0e-3, 0.0),
        base.frame_rate,
    );
    let full = NappeDelays::full(&spec).tile();
    let nappes: Vec<usize> = (0..spec.volume_grid.n_depth()).collect();
    let tablefree = TableFreeEngine::new(
        &spec,
        TableFreeConfig {
            exact_transmit: true,
            ..TableFreeConfig::paper()
        },
    )
    .unwrap();
    assert_fill_nappe_bit_exact(&tablefree, &spec, full, &nappes);
    let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits14()).unwrap();
    assert_fill_nappe_bit_exact(&tablesteer, &spec, full, &nappes);
}

/// The PR 5 batched-quantization contract: every engine's `quantize_row`
/// (specialized or default) writes exactly `delay_index_from(row[i])`
/// for every entry of a slab row.
#[test]
fn quantize_row_matches_per_element_delay_index_from_for_every_engine() {
    let spec = SystemSpec::tiny();
    let exact = ExactEngine::new(&spec);
    let naive = NaiveTableEngine::build(&spec, u64::MAX).unwrap();
    let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
    let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
    let engines: [&dyn DelayEngine; 4] = [&exact, &naive, &tablefree, &tablesteer];
    for engine in engines {
        let mut slab = NappeDelays::full(&spec);
        let mut out = vec![0i32; slab.n_elements()];
        for id in [
            0,
            spec.volume_grid.n_depth() / 2,
            spec.volume_grid.n_depth() - 1,
        ] {
            engine.fill_nappe(id, &mut slab);
            for slot in 0..slab.scanline_count() {
                let row = slab.row(slot).to_vec();
                engine.quantize_row(&row, &mut out);
                for (j, (&s, &o)) in row.iter().zip(&out).enumerate() {
                    assert_eq!(
                        i64::from(o),
                        engine.delay_index_from(s),
                        "{}: nappe {id} slot {slot} element {j} ({s})",
                        engine.name()
                    );
                }
            }
        }
    }
}

/// Synthetic out-of-window rows: the batched quantization must round,
/// clamp *and count* exactly like the per-element path, including the
/// half-up tie, NaN/±∞ saturation and both window edges.
#[test]
fn quantize_row_clamps_and_counts_like_the_scalar_rounding_stage() {
    let spec = SystemSpec::tiny();
    let len = spec.echo_buffer_len() as f64;
    let row = [
        -1.0e12,
        -1.5,
        -0.6,
        -0.5,
        -0.4999,
        0.0,
        0.49,
        0.5,
        len / 2.0,
        len - 1.0,
        len - 0.51,
        len - 0.5,
        len + 3.0,
        1.0e12,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let exact = ExactEngine::new(&spec);
    let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
    let engines: [&dyn DelayEngine; 2] = [&exact, &tablefree];
    for engine in engines {
        let mut out = vec![0i32; row.len()];
        engine.quantize_row(&row, &mut out);
        for (&s, &o) in row.iter().zip(&out) {
            assert_eq!(
                i64::from(o),
                engine.delay_index_from(s),
                "{} at {s}",
                engine.name()
            );
        }
    }
    // TABLESTEER additionally keeps clamp telemetry: the batched count
    // must advance by exactly what per-element delay_index_from calls
    // would have added (one per out-of-window entry).
    let batched = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
    let scalar = batched.clone(); // fresh zeroed counter
    let mut out = vec![0i32; row.len()];
    batched.quantize_row(&row, &mut out);
    for &s in &row {
        let _ = scalar.delay_index_from(s);
    }
    assert!(scalar.clamp_events() > 0, "rows must actually clamp");
    assert_eq!(batched.clamp_events(), scalar.clamp_events());
    for (&s, &o) in row.iter().zip(&out) {
        assert_eq!(
            i64::from(o),
            scalar.delay_index_from(s),
            "TABLESTEER at {s}"
        );
    }
}

#[test]
fn reduced_geometry_selection_errors_match_paper_regime() {
    // The E3 experiment at reduced scale: TABLEFREE mean selection error
    // in the ~0.25 regime, max ≤ 2.
    let spec = SystemSpec::reduced();
    let exact = ExactEngine::new(&spec);
    let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
    let s = stats::selection_error(&tablefree, &exact, &spec, 97, 7);
    assert!(s.max_abs <= 2, "max = {}", s.max_abs);
    assert!(
        s.mean_abs > 0.1 && s.mean_abs < 0.4,
        "mean = {}",
        s.mean_abs
    );
}
