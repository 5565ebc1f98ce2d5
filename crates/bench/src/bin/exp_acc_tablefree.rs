//! Experiment E3 — §VI-A TABLEFREE accuracy:
//!
//! * theory: two δ = 0.25 approximations sum to mean |error| ≈ 0.204,
//!   max 0.5;
//! * fixed point: mean absolute *selection* error ≈ 0.2489, max 2.
//!
//! The paper measured the full geometry; we sweep the paper-extent
//! geometry with strides (edges always included).
//!
//! Run with: `cargo run --release -p usbf-bench --bin exp_acc_tablefree`

use usbf_bench::{compare_line, inaccuracy_selection, section};
use usbf_core::{stats, DelayEngine, ExactEngine, TableFreeConfig, TableFreeEngine};
use usbf_geometry::SystemSpec;

fn main() {
    let spec = SystemSpec::paper();
    let exact = ExactEngine::new(&spec);
    let engine = TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("engine builds");

    println!("{}", section("E3: TABLEFREE accuracy at paper scale"));
    println!(
        "{}",
        compare_line(
            "PWL segments (δ = 0.25)",
            "70",
            &engine.segment_count().to_string()
        )
    );

    // Strided sweep: 13 θ × 13 φ × 51 depth × 100 elements ≈ 0.9M pairs.
    let (vox_stride, el_stride) = (1290, 101);
    let smp = stats::sample_error(&engine, &exact, &spec, vox_stride, el_stride);
    println!(
        "{}",
        compare_line(
            "pre-rounding |error| (samples)",
            "mean 0.204, max 0.5",
            &format!(
                "mean {:.4}, max {:.4}  ({} pairs)",
                smp.mean_abs, smp.max_abs, smp.count
            )
        )
    );

    let sel = stats::selection_error(&engine, &exact, &spec, vox_stride, el_stride);
    println!(
        "{}",
        compare_line(
            "selection |error| (integer index)",
            "mean 0.2489, max 2",
            &format!("{}  ({} pairs)", inaccuracy_selection(&sel), sel.count)
        )
    );
    println!("selection-error histogram: {:?}", &sel.histogram[..3]);

    println!("{}", section("E7 (§IV-B): datapath accounting"));
    let (adds, sqrts) = TableFreeEngine::ops_per_element();
    println!(
        "{}",
        compare_line(
            "ops per element per point",
            "2 additions + 1 √",
            &format!("{adds} additions + {sqrts} PWL √ (1 mult + 1 add + LUTs)")
        )
    );
    let before = engine.sqrt_evals();
    let vox = spec.volume_grid.voxel_at(1000);
    engine.delay_samples(0, vox, spec.elements.center_element());
    println!(
        "{}",
        compare_line(
            "√ evaluations per delay query",
            "2 (tx + rx)",
            &(engine.sqrt_evals() - before).to_string()
        )
    );

    println!("{}", section("Ablation: exact transmit √ (§IV note)"));
    let tx_exact = TableFreeEngine::new(
        &spec,
        TableFreeConfig {
            exact_transmit: true,
            ..TableFreeConfig::paper()
        },
    )
    .expect("engine builds");
    let smp_tx = stats::sample_error(&tx_exact, &exact, &spec, vox_stride, el_stride);
    println!(
        "{}",
        compare_line(
            "pre-rounding |error| w/ exact tx",
            "(halves the budget)",
            &format!("mean {:.4}, max {:.4}", smp_tx.mean_abs, smp_tx.max_abs)
        )
    );

    println!("{}", section("Ablation: δ sweep (accuracy vs LUT area)"));
    println!(
        "{:>8} {:>10} {:>14} {:>12}",
        "δ", "segments", "mean sel err", "max sel err"
    );
    for &delta in &[0.5, 0.25, 0.125] {
        let e = TableFreeEngine::new(&spec, TableFreeConfig::with_delta(delta)).expect("builds");
        let s = stats::selection_error(&e, &exact, &spec, vox_stride * 4, el_stride);
        println!(
            "{:>8} {:>10} {:>14.4} {:>12}",
            delta,
            e.segment_count(),
            s.mean_abs,
            s.max_abs
        );
    }
}
