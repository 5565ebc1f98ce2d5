//! Shared helpers for the experiment binaries and criterion benches.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §5 for the experiment index) and prints
//! paper-vs-measured values; EXPERIMENTS.md records the outputs.

use usbf_core::stats::{SampleErrorStats, SelectionErrorStats};
use usbf_geometry::{deg, SystemSpec, TransmitModel, VolumeSpec};

/// Formats a paper-vs-measured comparison line.
pub fn compare_line(label: &str, paper: &str, measured: &str) -> String {
    format!("{label:<44} paper: {paper:<22} measured: {measured}")
}

/// The CPWC benchmark geometry: tiny-scale voxel/element counts on a
/// narrow cone (±4° over 60λ) whose voxels actually sit inside the
/// plane-wave footprints (under the stock ±36.5° cone every voxel
/// back-projects outside a small aperture and the compound masks
/// degenerate to zero), carrying an `n_angles`-wave fan over ±10°.
pub fn cpwc_spec(n_angles: usize) -> SystemSpec {
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

/// Renders selection-error stats the way Table II's inaccuracy column
/// does: `avg <mean>, max <max>`.
pub fn inaccuracy_selection(s: &SelectionErrorStats) -> String {
    format!("avg {:.4}, max {}", s.mean_abs, s.max_abs)
}

/// Renders sample-error stats as `avg <mean>, max <max>` in samples.
pub fn inaccuracy_samples(s: &SampleErrorStats) -> String {
    format!("avg {:.2}, max {:.0}", s.mean_abs, s.max_abs)
}

/// A section header for experiment output.
pub fn section(title: &str) -> String {
    format!("\n=== {title} ===")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_line_contains_both_values() {
        let l = compare_line("x", "1", "2");
        assert!(l.contains("paper: 1") && l.contains("measured: 2"));
    }

    #[test]
    fn inaccuracy_formats() {
        let sel = SelectionErrorStats {
            count: 10,
            mean_abs: 0.25,
            max_abs: 2,
            histogram: vec![8, 2],
        };
        assert_eq!(inaccuracy_selection(&sel), "avg 0.2500, max 2");
        let smp = SampleErrorStats {
            count: 10,
            mean_abs: 1.44,
            max_abs: 99.6,
        };
        assert_eq!(inaccuracy_samples(&smp), "avg 1.44, max 100");
    }

    #[test]
    fn section_header() {
        assert!(section("T1").contains("=== T1 ==="));
    }
}
