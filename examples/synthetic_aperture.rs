//! Synthetic-aperture support (§V extension): repositioned emission
//! origins need one reference table each — and off-axis origins lose the
//! quadrant fold.
//!
//! Run with: `cargo run --release --example synthetic_aperture`

use usbf::core::{DelayEngine, ExactEngine, TableSteerConfig, TableSteerEngine};
use usbf::geometry::{SystemSpec, Vec3, VoxelIndex};
use usbf::tables::{ReferenceTable, TableBudget};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let paper = SystemSpec::paper();
    let budget = TableBudget::for_spec(&paper, 18, 18);
    println!("=== Synthetic-aperture table cost (paper scale, 18-bit) ===");
    println!(
        "single centred origin : {:>6.1} Mb reference",
        budget.reference_megabits()
    );
    for n in [2u64, 4, 8] {
        let multi = budget.with_origins(n, true);
        println!(
            "{n} centred origins     : {:>6.1} Mb ({}x)",
            multi.reference_megabits(),
            n
        );
    }
    let off_axis = budget.with_origins(4, false);
    println!(
        "4 off-axis origins    : {:>6.1} Mb (4x origins x 4x fold loss)",
        off_axis.reference_megabits()
    );
    println!("→ \"an off-chip repository of delay tables may be needed\" (§VI-B)\n");

    // Demonstrate the fold loss concretely on a small geometry.
    let base = SystemSpec::tiny();
    let centred = ReferenceTable::build(&base);
    let displaced_spec = SystemSpec::new(
        base.speed_of_sound,
        base.sampling_frequency,
        base.transducer.clone(),
        base.volume.clone(),
        Vec3::new(2.0e-3, 0.0, 0.0), // origin displaced 2 mm along x
        base.frame_rate,
    );
    let displaced = ReferenceTable::build(&displaced_spec);
    println!("=== Fold demonstration (tiny geometry) ===");
    println!(
        "centred origin   : folded = {:>5} entries ({} unfolded)",
        centred.entry_count(),
        centred.unfolded_entry_count()
    );
    println!(
        "displaced origin : folded = {:>5} entries (fold disabled: {})",
        displaced.entry_count(),
        !displaced.is_folded()
    );

    // The displaced-origin engine still works — with its larger table.
    let eng = TableSteerEngine::new(&displaced_spec, TableSteerConfig::bits18())?;
    let exact = ExactEngine::new(&displaced_spec);
    let vox = VoxelIndex::new(4, 4, 10);
    let e = displaced_spec.elements.center_element();
    println!(
        "\ndisplaced-origin delay check at {vox}: steer = {:.2}, exact = {:.2} samples",
        eng.delay_samples(0, vox, e),
        exact.delay_samples(0, vox, e)
    );
    Ok(())
}
