//! Shared helpers for the experiment binaries and criterion benches.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §5 for the experiment index) and prints
//! paper-vs-measured values; EXPERIMENTS.md records the outputs.

use usbf_beamform::{Beamformer, Interpolation};
use usbf_core::stats::{SampleErrorStats, SelectionErrorStats};
use usbf_core::{DelayEngine, NappeDelays, TableFreeEngine};
use usbf_geometry::{deg, ElementIndex, SystemSpec, TransmitModel, Vec3, VolumeSpec, VoxelIndex};
use usbf_sim::RfFrame;

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

/// The PR 4 inner kernel, kept verbatim as the measured baseline for
/// `Beamformer::beamform_tile_into`: per element per voxel it
/// pays a virtual `delay_index_from` call, an `ElementIndex` div/mod
/// recovery, a `w == 0` branch, a per-fetch channel-offset recompute
/// inside `RfFrame::sample`, and a per-element interpolation match.
/// Outputs are bit-identical to the tile kernel — only the per-sample
/// overhead differs, which is exactly what `bench_beamform`'s
/// `tile_kernel_reduced` group quantifies.
pub fn legacy_beamform_tile_into(
    bf: &Beamformer,
    interpolation: Interpolation,
    engine: &dyn DelayEngine,
    rf: &RfFrame,
    weights: &[f64],
    slab: &mut NappeDelays,
    values: &mut [f64],
) {
    let tile = slab.tile();
    let n_depth = bf.spec().volume_grid.n_depth();
    let n_elements = bf.spec().elements.count();
    let nx = bf.spec().elements.nx();
    assert_eq!(
        values.len(),
        tile.scanlines() * n_depth,
        "values buffer must cover the tile"
    );
    for id in 0..n_depth {
        engine.fill_nappe(id, slab);
        for slot in 0..tile.scanlines() {
            let row = slab.row(slot);
            let mut acc = 0.0;
            for j in 0..n_elements {
                let w = weights[j];
                if w == 0.0 {
                    continue;
                }
                let e = ElementIndex::new(j % nx, j / nx);
                let v = match interpolation {
                    Interpolation::Nearest => rf.sample(e, engine.delay_index_from(row[j])),
                    Interpolation::Linear => rf.sample_interp(e, row[j]),
                };
                acc += w * v;
            }
            values[slot * n_depth + id] = acc;
        }
    }
}

/// The PR 5 TABLEFREE slab fill, kept verbatim as the measured baseline
/// for the segment-major batched row evaluator: per element per focal
/// point it pays one `eval_tracked` call — a pointer walk plus the full
/// `Fixed` quantize/multiply/add/round datapath with every per-segment
/// constant re-derived (three `exp2` libm calls per element). Outputs
/// are bit-identical to `TableFreeEngine::fill_nappe`'s batched row
/// path — only the per-element overhead differs, which is what
/// `bench_beamform`'s `tablefree_fill_reduced` group quantifies. (The
/// baseline skips the engine's op-counter update: atomics are irrelevant
/// to the measured datapath.)
pub struct LegacyTableFreeFill {
    /// Element positions in linear order, precomputed like the engine
    /// caches them so the timed region measures only the fill.
    elem_pos: Vec<Vec3>,
    samples_per_metre: f64,
}

impl LegacyTableFreeFill {
    /// Precomputes the fill's element-position cache for `engine`'s spec.
    #[must_use]
    pub fn new(engine: &TableFreeEngine) -> Self {
        let spec = engine.spec();
        LegacyTableFreeFill {
            elem_pos: spec
                .elements
                .iter()
                .map(|e| spec.elements.position(e))
                .collect(),
            samples_per_metre: spec.sampling_frequency / spec.speed_of_sound,
        }
    }

    /// The PR 5 per-element `eval_tracked` fill loop, verbatim.
    pub fn fill(&self, engine: &TableFreeEngine, nappe_idx: usize, out: &mut NappeDelays) {
        let tile = out.tile();
        let n_elements = out.n_elements();
        let spm = self.samples_per_metre;
        let exact_transmit = engine.config().exact_transmit;
        let quant = engine.quantized();
        let grid = &engine.spec().volume_grid;
        let buf = out.begin_fill(nappe_idx);
        let mut tx_hint = 0usize;
        let mut rx_hint = 0usize;
        for (slot, it, ip) in tile.iter_scanlines() {
            let vox = VoxelIndex::new(it, ip, nappe_idx);
            let s = grid.position(vox);
            let tx_alpha = engine.tx_alpha(vox);
            let tx = if exact_transmit {
                tx_alpha.sqrt()
            } else {
                quant.eval_tracked(&mut tx_hint, tx_alpha)
            };
            let dz = s.z * spm;
            let dz2 = dz * dz;
            let row = &mut buf[slot * n_elements..(slot + 1) * n_elements];
            for (j, value) in row.iter_mut().enumerate() {
                let d = self.elem_pos[j];
                let dx = (s.x - d.x) * spm;
                let dy = (s.y - d.y) * spm;
                let rx_alpha = dx * dx + dy * dy + dz2;
                *value = tx + quant.eval_tracked(&mut rx_hint, rx_alpha);
            }
        }
    }
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

    #[test]
    fn fused_baseline_is_bit_identical_to_factored_compound_path() {
        // Same discipline as the legacy-fill baselines: the
        // `factored_vs_fused` bench group's fused side (the engine
        // behind `usbf_core::FusedOnly`, forced onto the per-transmit
        // loop) must stay a truthful stand-in — same tile values, bit
        // for bit, for the engines the group measures.
        let spec = cpwc_spec(4);
        let bf = Beamformer::new(&spec);
        let tile = usbf_core::NappeSchedule::fitted(&spec, 16).tiles()[5];
        let g = &spec.volume_grid;
        let rf = usbf_sim::EchoSynthesizer::new(&spec).synthesize(
            &usbf_sim::Phantom::point(g.position(VoxelIndex::new(
                g.n_theta() / 2,
                g.n_phi() / 2,
                g.n_depth() * 5 / 8,
            ))),
            &usbf_sim::Pulse::from_spec(&spec),
        );
        let tile_into = |engine: &dyn DelayEngine| {
            let mut state = usbf_beamform::TileState::new(&bf, tile);
            bf.beamform_tile_into(engine, &rf, &mut state);
            state.values().to_vec()
        };
        let exact = usbf_core::ExactEngine::new(&spec);
        let tablefree = TableFreeEngine::new(&spec, usbf_core::TableFreeConfig::paper()).unwrap();
        for (name, factored, fused) in [
            (
                "EXACT",
                tile_into(&exact),
                tile_into(&usbf_core::FusedOnly(exact.clone())),
            ),
            (
                "TABLEFREE",
                tile_into(&tablefree),
                tile_into(&usbf_core::FusedOnly(tablefree.clone())),
            ),
        ] {
            for (i, (a, b)) in factored.iter().zip(&fused).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{name} voxel {i}");
            }
        }
    }

    #[test]
    fn legacy_tablefree_fill_is_bit_identical_to_batched_fill() {
        // The benchmark baseline must stay a truthful stand-in for the
        // old fill: same slabs, bit for bit.
        let spec = usbf_geometry::SystemSpec::tiny();
        let engine = TableFreeEngine::new(&spec, usbf_core::TableFreeConfig::paper()).unwrap();
        let legacy = LegacyTableFreeFill::new(&engine);
        let mut a = NappeDelays::full(&spec);
        let mut b = NappeDelays::full(&spec);
        for id in [0, 5, 15] {
            engine.fill_nappe(id, &mut a);
            legacy.fill(&engine, id, &mut b);
            for (x, y) in a.samples().iter().zip(b.samples()) {
                assert_eq!(x.to_bits(), y.to_bits(), "nappe {id}");
            }
        }
    }
}
