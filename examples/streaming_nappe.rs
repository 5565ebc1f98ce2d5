//! The §V-B streaming design walked end to end: memory budget, circular
//! BRAM buffer, DRAM bandwidth, and the nappe-order table walk that makes
//! it work.
//!
//! Run with: `cargo run --release --example streaming_nappe`

use usbf::core::{
    DelayEngine, NappeDelays, NappeSchedule, SteerBlockSpec, TableSteerConfig, TableSteerEngine,
};
use usbf::geometry::scan::ScanOrder;
use usbf::geometry::SystemSpec;
use usbf::tables::{InsonificationPlan, ReferenceTable, SliceWindow, StreamingPlan, TableBudget};

fn main() {
    let spec = SystemSpec::paper();
    let budget = TableBudget::for_spec(&spec, 18, 18);
    println!("=== TABLESTEER memory budget (§V-B, 18-bit words) ===");
    println!(
        "reference table   : {} entries = {:.1} Mb",
        budget.reference_entries,
        budget.reference_megabits()
    );
    println!(
        "corrections       : {} coefficients = {:.2} Mib",
        budget.correction_entries,
        budget.correction_mebibits()
    );
    println!(
        "fully resident    : {:.1} Mb total (Virtex-7 BRAM capacity: 67.7 Mb) → fits: {}",
        budget.total_bits() as f64 / 1e6,
        budget.fits_on_chip(67_700_000)
    );

    let plan = InsonificationPlan::paper();
    let insonif = plan.insonifications_per_second(spec.frame_rate);
    let stream = StreamingPlan::paper();
    println!("\n=== Streaming alternative ===");
    println!(
        "acquisition       : {} insonifications/volume x {} scanlines = {} insonif/s at {} fps",
        plan.insonifications_per_volume,
        plan.scanlines_per_insonification,
        insonif,
        spec.frame_rate
    );
    println!(
        "on-chip buffer    : {} banks x {} words x {} bits = {:.2} Mb (vs {:.0} Mb resident)",
        stream.bram_banks,
        stream.bank_words,
        stream.word_bits,
        stream.on_chip_bits() as f64 / 1e6,
        budget.reference_megabits()
    );
    println!(
        "DRAM bandwidth    : {:.2} GB/s (paper: ~5.3 GB/s)",
        stream.dram_bandwidth_bytes(&budget, insonif) / 1e9
    );
    println!(
        "refill margin     : {} cycles per bank",
        stream.latency_margin_cycles()
    );

    let block = SteerBlockSpec::paper();
    println!("\n=== Fig. 4 block structure ===");
    println!(
        "{} blocks x ({}x{} corrections) = {} steered delays/cycle/block, {} adders/block",
        block.n_blocks,
        block.x_per_cycle,
        block.y_per_cycle,
        block.points_per_cycle_per_block(),
        block.adders_per_block()
    );
    println!(
        "peak throughput   : {:.2} Tdelays/s at 200 MHz → {:.1} volumes/s",
        block.delays_per_second(200.0e6) / 1e12,
        block.frame_rate(200.0e6, &spec)
    );

    // Demonstrate the locality property that justifies streaming: in nappe
    // order, consecutive focal points hit the same depth slice of the
    // reference table, so each slice is fetched exactly once per frame.
    let small = SystemSpec::tiny();
    let table = ReferenceTable::build(&small);
    let mut slice_switches = 0u32;
    let mut last_depth = usize::MAX;
    for vox in ScanOrder::NappeByNappe.iter(&small.volume_grid) {
        if vox.id != last_depth {
            slice_switches += 1;
            last_depth = vox.id;
        }
    }
    println!("\n=== Nappe-order locality (tiny geometry) ===");
    println!(
        "depth-slice switches in nappe order   : {} (= {} nappes: each slice loaded once)",
        slice_switches,
        table.n_depth()
    );
    let mut scanline_switches = 0u32;
    last_depth = usize::MAX;
    for vox in ScanOrder::ScanlineByScanline.iter(&small.volume_grid) {
        if vox.id != last_depth {
            scanline_switches += 1;
            last_depth = vox.id;
        }
    }
    println!(
        "depth-slice switches in scanline order: {} ({}x more table walking)",
        scanline_switches,
        scanline_switches / slice_switches
    );

    // The same locality, measured through the circular buffer's residency
    // window: a nappe-major consumer fetches each slice exactly once; a
    // scanline-major consumer refetches evicted slices at every restart.
    let mut nappe_window = SliceWindow::paper();
    for vox in ScanOrder::NappeByNappe.iter(&small.volume_grid) {
        nappe_window.access(vox.id);
    }
    let mut scanline_window = SliceWindow::paper();
    for vox in ScanOrder::ScanlineByScanline.iter(&small.volume_grid) {
        scanline_window.access(vox.id);
    }
    println!(
        "window fetches, nappe order           : {} (clean: {})",
        nappe_window.fetches(),
        nappe_window.streaming_clean()
    );
    println!(
        "window fetches, scanline order        : {} ({} refetches)",
        scanline_window.fetches(),
        scanline_window.refetches()
    );

    // And the consumer side of that stream: the batched delay pipeline.
    // Each schedule tile owns a per-nappe slab filled by fill_nappe —
    // TABLESTEER reads exactly one reference slice per slab, which is
    // what the circular buffer above feeds.
    let engine = TableSteerEngine::new(&small, TableSteerConfig::bits18()).expect("builds");
    let schedule = NappeSchedule::fitted(&small, 4);
    println!("\n=== Batched slab consumption (tiny geometry) ===");
    println!(
        "schedule          : {} tiles of {} scanlines",
        schedule.n_blocks(),
        schedule.tile_of(0).scanlines()
    );
    let mut slab = NappeDelays::for_tile(&small, schedule.tile_of(0));
    let mut checked = 0u32;
    for id in 0..small.volume_grid.n_depth() {
        engine.fill_nappe(id, &mut slab);
        for (_, it, ip) in slab.scanlines() {
            for e in small.elements.iter() {
                let vox = usbf::geometry::VoxelIndex::new(it, ip, id);
                assert_eq!(slab.at(it, ip, e), engine.delay_samples(0, vox, e));
                checked += 1;
            }
        }
    }
    println!(
        "slab vs scalar    : {checked} delays across {} nappes, all bit-exact",
        small.volume_grid.n_depth()
    );
}
