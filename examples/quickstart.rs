//! Quickstart: build the paper's system, query all three delay
//! architectures, and print the headline numbers of §II.
//!
//! Run with: `cargo run --release --example quickstart`

use usbf::core::{
    DelayEngine, ExactEngine, NaiveTableEngine, TableFreeConfig, TableFreeEngine, TableSteerConfig,
    TableSteerEngine,
};
use usbf::geometry::{ElementIndex, SystemSpec, VoxelIndex};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Table I, full scale — used for the storage/bandwidth arithmetic.
    let paper = SystemSpec::paper();
    println!("=== System (Table I) ===");
    println!("speed of sound        : {} m/s", paper.speed_of_sound);
    println!(
        "center frequency      : {} MHz",
        paper.transducer.center_frequency / 1e6
    );
    println!("wavelength λ          : {:.3} mm", paper.wavelength() * 1e3);
    println!(
        "transducer            : {}x{} @ λ/2 pitch",
        paper.transducer.nx, paper.transducer.ny
    );
    println!(
        "volume                : {:.0}°x{:.0}°x{:.0}λ, {}x{}x{} focal points",
        2.0 * paper.volume.theta_max.to_degrees(),
        2.0 * paper.volume.phi_max.to_degrees(),
        paper.volume.depth_max / paper.wavelength(),
        paper.volume.n_theta,
        paper.volume.n_phi,
        paper.volume.n_depth,
    );
    println!();
    println!("=== The bottleneck (§II) ===");
    println!(
        "naive delay table     : {:.1}e9 coefficients",
        paper.naive_table_entries() as f64 / 1e9
    );
    println!(
        "  as 16-bit entries   : {:.0} GB",
        NaiveTableEngine::required_bytes(&paper) as f64 / 1e9
    );
    println!(
        "delay values at 15fps : {:.2}e12 per second",
        paper.delays_per_second() / 1e12
    );
    println!(
        "echo buffer           : {} samples ({}-bit index)",
        paper.echo_buffer_len(),
        paper.echo_index_bits()
    );

    // The naive baseline refuses to build at full scale:
    let err = NaiveTableEngine::build(&paper, 8 << 30).unwrap_err();
    println!("naive build (8 GiB)   : {err}");
    println!();

    // A laptop-scale geometry for actually querying engines.
    let spec = SystemSpec::reduced();
    let exact = ExactEngine::new(&spec);
    let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper())?;
    let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18())?;
    println!(
        "=== Engine comparison (reduced {}x{} probe) ===",
        spec.transducer.nx, spec.transducer.ny
    );
    println!(
        "TABLEFREE PWL         : {} segments for δ = {}",
        tablefree.segment_count(),
        tablefree.config().delta
    );
    let (ref_bits, corr_bits) = tablesteer.storage_bits();
    println!(
        "TABLESTEER tables     : {:.2} Mb reference + {:.2} Mb corrections",
        ref_bits as f64 / 1e6,
        corr_bits as f64 / 1e6
    );

    let vox = VoxelIndex::new(5, 20, 100);
    println!("\ndelays for voxel {vox} (samples):");
    println!("{:<12} {:>10} {:>8}", "element", "engine", "delay");
    for e in [
        ElementIndex::new(0, 0),
        ElementIndex::new(15, 15),
        ElementIndex::new(31, 31),
    ] {
        for eng in [&exact as &dyn DelayEngine, &tablefree, &tablesteer] {
            println!(
                "{:<12} {:>10} {:>8.2}",
                e.to_string(),
                eng.name(),
                eng.delay_samples(0, vox, e)
            );
        }
    }

    // The streaming view: delays are consumed one nappe slab at a time,
    // not queried per voxel — this is what the hardware architectures
    // (and the batched beamformer) actually do.
    use usbf::core::NappeDelays;
    let mut slab = NappeDelays::full(&spec);
    tablesteer.fill_nappe(vox.id, &mut slab);
    println!("\n=== Batched nappe access (fill_nappe) ===");
    println!(
        "one nappe slab        : {} scanlines x {} elements = {} delays",
        slab.scanline_count(),
        slab.n_elements(),
        slab.samples().len()
    );
    let scalar = tablesteer.delay_samples(0, vox, ElementIndex::new(15, 15));
    let batched = slab.at(vox.it, vox.ip, ElementIndex::new(15, 15));
    println!(
        "bit-exact vs scalar   : {} ({batched} == {scalar})",
        batched == scalar
    );
    Ok(())
}
