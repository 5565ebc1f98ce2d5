//! The double-precision golden model.

use crate::{DelayEngine, NappeDelays};
use std::ops::Range;
use usbf_geometry::{ElementIndex, SystemSpec, TransmitModel, Vec3, VoxelIndex};

/// Exact Eq. 2 evaluation in double precision — the reference every
/// approximate architecture is compared against ("we compared our
/// approximated fixed-point implementation with an exact computation",
/// §VI-A).
///
/// ```
/// use usbf_core::{DelayEngine, ExactEngine};
/// use usbf_geometry::{SystemSpec, VoxelIndex, ElementIndex};
/// let spec = SystemSpec::tiny();
/// let e = ExactEngine::new(&spec);
/// let t = e.delay_samples(0, VoxelIndex::new(4, 4, 15), ElementIndex::new(0, 0));
/// assert!(t > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ExactEngine {
    spec: SystemSpec,
    /// Element positions in linear order, cached for the batched fill.
    elem_pos: Vec<Vec3>,
    echo_len: usize,
}

impl ExactEngine {
    /// Creates the golden model for a system specification.
    pub fn new(spec: &SystemSpec) -> Self {
        ExactEngine {
            elem_pos: spec
                .elements
                .iter()
                .map(|e| spec.elements.position(e))
                .collect(),
            spec: spec.clone(),
            echo_len: spec.echo_buffer_len(),
        }
    }

    /// The underlying specification.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Transmit `tx`'s one-way distance (metres) to each focal point of
    /// `voxels`, in one pass with the transmit model resolved once — the
    /// `t` of the row methods' `((t + rx) / c) · fs`, the same expression
    /// as the scalar [`SystemSpec::transmit_distance`].
    fn tx_distances(&self, tx: usize, voxels: &[VoxelIndex], out: &mut [f64]) {
        let grid = &self.spec.volume_grid;
        let points = voxels.iter().map(|&v| grid.position(v));
        match &self.spec.transmits[tx] {
            TransmitModel::PointSource => {
                let o = self.spec.origin;
                for (t, s) in out.iter_mut().zip(points) {
                    *t = s.distance(o);
                }
            }
            TransmitModel::PlaneWave(pw) => {
                let n = pw.normal();
                for (t, s) in out.iter_mut().zip(points) {
                    *t = n.dot(s);
                }
            }
        }
    }

    /// The element-wise combine: a transmit distance and a receive
    /// distance to the two-way delay in samples.
    #[inline]
    fn delay(&self) -> impl Fn(f64, f64) -> f64 {
        let (c, fs) = (self.spec.speed_of_sound, self.spec.sampling_frequency);
        move |t, rx| (t + rx) / c * fs
    }
}

impl DelayEngine for ExactEngine {
    fn name(&self) -> &'static str {
        "EXACT"
    }

    fn echo_buffer_len(&self) -> usize {
        self.echo_len
    }

    fn transmit_count(&self) -> usize {
        self.spec.n_transmits()
    }

    fn delay_samples(&self, tx: usize, vox: VoxelIndex, e: ElementIndex) -> f64 {
        let s = self.spec.volume_grid.position(vox);
        let d = self.spec.elements.position(e);
        self.spec.two_way_delay_samples_for(tx, s, d)
    }

    /// Receive-leg fill: the slab rows hold `|S − D|` in **metres** — the
    /// per-element Euclidean distances, the expensive, transmit-invariant
    /// part of the scalar `((tx + |S − D|) / c) · fs`. The focal-point
    /// position is computed once per row (the scalar path re-derives it
    /// per query). It is the emit's set-up over the whole aperture.
    fn fill_nappe_rx(&self, nappe_idx: usize, out: &mut NappeDelays) {
        let all = 0..out.n_elements();
        self.begin_emit(nappe_idx, std::slice::from_ref(&all), out);
    }

    /// Transmit combine: `((t + rx) / c) · fs` with the transmit distance
    /// `t` computed once per row — literally the scalar per-element
    /// expression with the receive distance read from the rx slab, so the
    /// output is bit-identical to [`ExactEngine::delay_samples`].
    fn combine_tx_row(&self, tx: usize, vox: VoxelIndex, rx_row: &[f64], out: &mut [f64]) {
        assert_eq!(rx_row.len(), out.len(), "combine row length mismatch");
        let mut t = [0.0];
        self.tx_distances(tx, &[vox], &mut t);
        let delay = self.delay();
        for (o, &rx) in out.iter_mut().zip(rx_row) {
            *o = delay(t[0], rx);
        }
    }

    /// The emit's set-up: the receive leg
    /// ([`fill_nappe_rx`](DelayEngine::fill_nappe_rx)) of the active
    /// elements alone, `|S − D|` for the elements of `runs`, compacted to
    /// each row's front.
    fn begin_emit(&self, nappe_idx: usize, runs: &[Range<usize>], slab: &mut NappeDelays) {
        let tile = slab.tile();
        let n_elements = slab.n_elements();
        let buf = slab.begin_fill(nappe_idx);
        for ((_, it, ip), row) in tile.iter_scanlines().zip(buf.chunks_exact_mut(n_elements)) {
            let s = self
                .spec
                .volume_grid
                .position(VoxelIndex::new(it, ip, nappe_idx));
            let active = runs.iter().flat_map(|run| &self.elem_pos[run.clone()]);
            for (value, d) in row.iter_mut().zip(active) {
                *value = s.distance(*d);
            }
        }
    }

    /// The run's transmit distances in one pass, then per row the combine
    /// inside the shared rounding loop, over the staged active entries.
    fn emit_run(
        &self,
        tx: usize,
        slab: &NappeDelays,
        slots: Range<usize>,
        runs: &[Range<usize>],
        out: &mut [i32],
    ) {
        let terms = |voxels: &[VoxelIndex], t: &mut [f64]| self.tx_distances(tx, voxels, t);
        crate::engine::emit_rows_f64(self.echo_len, slab, slots, runs, out, terms, self.delay());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_axis_two_way_is_twice_depth() {
        // Odd-grid spec puts a scanline exactly on the z axis and an
        // element exactly at the origin.
        let base = SystemSpec::tiny();
        let spec = SystemSpec::new(
            base.speed_of_sound,
            base.sampling_frequency,
            usbf_geometry::TransducerSpec {
                nx: 9,
                ny: 9,
                ..base.transducer.clone()
            },
            usbf_geometry::VolumeSpec {
                n_theta: 9,
                n_phi: 9,
                ..base.volume.clone()
            },
            base.origin,
            base.frame_rate,
        );
        let eng = ExactEngine::new(&spec);
        let vox = VoxelIndex::new(4, 4, 7);
        let center = spec.elements.center_element();
        let expect = 2.0 * spec.metres_to_samples(spec.volume_grid.depth_of(7));
        assert!((eng.delay_samples(0, vox, center) - expect).abs() < 1e-9);
    }

    #[test]
    fn delay_increases_with_element_distance() {
        let spec = SystemSpec::tiny();
        let eng = ExactEngine::new(&spec);
        // On-axis-ish voxel: farther elements have longer receive paths.
        let vox = VoxelIndex::new(4, 4, 15);
        let near = eng.delay_samples(0, vox, ElementIndex::new(4, 4));
        let far = eng.delay_samples(0, vox, ElementIndex::new(0, 0));
        assert!(far > near);
    }

    #[test]
    fn index_is_rounding_of_samples() {
        let spec = SystemSpec::tiny();
        let eng = ExactEngine::new(&spec);
        let vox = VoxelIndex::new(2, 5, 9);
        let e = ElementIndex::new(1, 6);
        let s = eng.delay_samples(0, vox, e);
        assert_eq!(eng.delay_index(0, vox, e), (s + 0.5).floor() as i64);
    }

    #[test]
    fn plane_wave_transmit_matches_projection_delay() {
        let theta = usbf_geometry::deg(10.0);
        let spec = SystemSpec::tiny().with_transmits(vec![
            usbf_geometry::TransmitModel::PointSource,
            usbf_geometry::TransmitModel::plane_wave(theta, 0.0),
        ]);
        let eng = ExactEngine::new(&spec);
        assert_eq!(eng.transmit_count(), 2);
        let vox = VoxelIndex::new(4, 4, 10);
        let e = ElementIndex::new(2, 3);
        let s = spec.volume_grid.position(vox);
        let d = spec.elements.position(e);
        let n = usbf_geometry::SphericalDirection::new(theta, 0.0).unit();
        let expect = (n.dot(s) + s.distance(d)) / spec.speed_of_sound * spec.sampling_frequency;
        assert!((eng.delay_samples(1, vox, e) - expect).abs() < 1e-9);
    }

    #[test]
    fn rx_fill_plus_combine_bit_identical_to_scalar_per_transmit() {
        let spec = SystemSpec::tiny().with_transmits(vec![
            usbf_geometry::TransmitModel::PointSource,
            usbf_geometry::TransmitModel::plane_wave(usbf_geometry::deg(10.0), 0.0),
            usbf_geometry::TransmitModel::plane_wave(usbf_geometry::deg(-12.0), 0.0),
        ]);
        let eng = ExactEngine::new(&spec);
        crate::engine::assert_rx_combine_matches_scalar(&eng, &spec, &[0, 7, 15]);
    }

    #[test]
    fn engine_metadata() {
        let spec = SystemSpec::tiny();
        let eng = ExactEngine::new(&spec);
        assert_eq!(eng.name(), "EXACT");
        assert_eq!(eng.echo_buffer_len(), spec.echo_buffer_len());
        assert_eq!(eng.spec().elements.count(), 64);
    }
}
