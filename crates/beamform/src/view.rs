//! Cheap volume views: re-slices and max-intensity projections computed
//! straight from the warm tile outputs.
//!
//! A dashboard viewer pulls a 2D image, not a 100 MB volume. Serving
//! that image from the scattered [`BeamformedVolume`] means the runtime
//! first merges every tile into the dense volume and the consumer then
//! re-reads a plane of it. [`VolumeView`] skips both steps: it borrows
//! the runtime's per-tile staging buffers (each tile's scanline columns
//! in `[scanline][depth]` order) and assembles the requested plane
//! directly — O(plane) writes, no volume-sized buffer touched, and with
//! the `_into` variants no allocation at all. The values read are the
//! most recent beamformed frame's, post-processing included when the
//! beamformer carries a [`PostChain`](crate::PostChain).

use crate::beamformer::TileState;

/// A plane of the volume selected by fixing one coordinate.
///
/// The produced slice is stored row-major in the two remaining
/// coordinates, slower axis first, in the volume's canonical θ → φ →
/// depth order: `Theta(it)` yields `[φ][depth]`, `Phi(ip)` yields
/// `[θ][depth]`, `Depth(id)` yields `[θ][φ]` (the C-scan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlicePlane {
    /// Fix the θ steering index: a φ × depth fan slice.
    Theta(usize),
    /// Fix the φ steering index: a θ × depth fan slice.
    Phi(usize),
    /// Fix the depth index: a θ × φ constant-depth slice.
    Depth(usize),
}

/// The axis a max-intensity projection collapses.
///
/// The output keeps the two remaining coordinates in canonical order:
/// projecting along `Theta` yields `[φ][depth]`, along `Phi` yields
/// `[θ][depth]`, along `Depth` yields `[θ][φ]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProjectionAxis {
    /// Collapse θ: each output pixel is the max over all θ lines.
    Theta,
    /// Collapse φ.
    Phi,
    /// Collapse depth (the classic top-down MIP).
    Depth,
}

/// A read-only window onto a runtime's most recent beamformed frame,
/// assembled per request from the warm task outputs — fan tiles or
/// whole-fan depth bands alike, each task's values read through its own
/// region and band. Borrowed from
/// [`VolumeLoop::view`](crate::VolumeLoop::view),
/// [`FramePipeline::view`](crate::FramePipeline::view) or
/// [`ShardedRuntime::view_of`](crate::ShardedRuntime::view_of); the
/// borrow checker guarantees no frame can be in flight while a view is
/// alive.
#[derive(Clone, Copy)]
pub struct VolumeView<'a> {
    states: &'a [TileState],
    n_theta: usize,
    n_phi: usize,
    n_depth: usize,
}

impl<'a> VolumeView<'a> {
    pub(crate) fn new(
        states: &'a [TileState],
        n_theta: usize,
        n_phi: usize,
        n_depth: usize,
    ) -> Self {
        VolumeView {
            states,
            n_theta,
            n_phi,
            n_depth,
        }
    }

    /// The `(n_theta, n_phi, n_depth)` extents of the viewed volume.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.n_theta, self.n_phi, self.n_depth)
    }

    /// Output length of [`slice`](Self::slice) for a plane.
    ///
    /// # Panics
    ///
    /// Panics if the fixed index is out of range.
    pub fn slice_len(&self, plane: SlicePlane) -> usize {
        match plane {
            SlicePlane::Theta(it) => {
                assert!(it < self.n_theta, "theta index {it} out of range");
                self.n_phi * self.n_depth
            }
            SlicePlane::Phi(ip) => {
                assert!(ip < self.n_phi, "phi index {ip} out of range");
                self.n_theta * self.n_depth
            }
            SlicePlane::Depth(id) => {
                assert!(id < self.n_depth, "depth index {id} out of range");
                self.n_theta * self.n_phi
            }
        }
    }

    /// Output length of [`mip`](Self::mip) along an axis.
    pub fn mip_len(&self, axis: ProjectionAxis) -> usize {
        match axis {
            ProjectionAxis::Theta => self.n_phi * self.n_depth,
            ProjectionAxis::Phi => self.n_theta * self.n_depth,
            ProjectionAxis::Depth => self.n_theta * self.n_phi,
        }
    }

    /// Extracts a plane into a fresh buffer. See [`SlicePlane`] for the
    /// output layout. Only the plane is ever written — the full volume
    /// is never materialized.
    pub fn slice(&self, plane: SlicePlane) -> Vec<f64> {
        let mut out = vec![0.0; self.slice_len(plane)];
        self.slice_into(plane, &mut out);
        out
    }

    /// Extracts a plane into a caller-owned buffer of exactly
    /// [`slice_len`](Self::slice_len) values — the allocation-free form
    /// a per-viewer buffer pool would drive.
    ///
    /// # Panics
    ///
    /// Panics if the fixed index is out of range or `out` has the wrong
    /// length.
    pub fn slice_into(&self, plane: SlicePlane, out: &mut [f64]) {
        assert_eq!(out.len(), self.slice_len(plane), "output length mismatch");
        let nd = self.n_depth;
        for state in self.states {
            let (region, band) = (state.region(), state.nappes());
            let columns = state.values().chunks_exact(band.len());
            match plane {
                SlicePlane::Theta(it) => {
                    for (column, (_, t, ip)) in columns.zip(region.iter_scanlines()) {
                        if t == it {
                            out[ip * nd..(ip + 1) * nd][band.clone()].copy_from_slice(column);
                        }
                    }
                }
                SlicePlane::Phi(ip) => {
                    for (column, (_, it, p)) in columns.zip(region.iter_scanlines()) {
                        if p == ip {
                            out[it * nd..(it + 1) * nd][band.clone()].copy_from_slice(column);
                        }
                    }
                }
                SlicePlane::Depth(id) => {
                    if !band.contains(&id) {
                        continue;
                    }
                    for (column, (_, it, ip)) in columns.zip(region.iter_scanlines()) {
                        out[it * self.n_phi + ip] = column[id - band.start];
                    }
                }
            }
        }
    }

    /// Max-intensity projection along an axis, into a fresh buffer. See
    /// [`ProjectionAxis`] for the output layout. The fold is a signed
    /// [`f64::max`] — correct for envelope and dB data, where larger
    /// means brighter — and skips NaN.
    pub fn mip(&self, axis: ProjectionAxis) -> Vec<f64> {
        let mut out = vec![0.0; self.mip_len(axis)];
        self.mip_into(axis, &mut out);
        out
    }

    /// Max-intensity projection into a caller-owned buffer of exactly
    /// [`mip_len`](Self::mip_len) values (allocation-free).
    ///
    /// # Panics
    ///
    /// Panics if `out` has the wrong length.
    pub fn mip_into(&self, axis: ProjectionAxis, out: &mut [f64]) {
        assert_eq!(out.len(), self.mip_len(axis), "output length mismatch");
        out.fill(f64::NEG_INFINITY);
        let nd = self.n_depth;
        for state in self.states {
            let (region, band) = (state.region(), state.nappes());
            let columns = state.values().chunks_exact(band.len());
            for (column, (_, it, ip)) in columns.zip(region.iter_scanlines()) {
                let row = match axis {
                    ProjectionAxis::Theta => &mut out[ip * nd..(ip + 1) * nd][band.clone()],
                    ProjectionAxis::Phi => &mut out[it * nd..(it + 1) * nd][band.clone()],
                    ProjectionAxis::Depth => {
                        let o = &mut out[it * self.n_phi + ip];
                        *o = column.iter().fold(*o, |m, &v| m.max(v));
                        continue;
                    }
                };
                for (o, &v) in row.iter_mut().zip(column) {
                    *o = o.max(v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Beamformer, BmodeConfig, FramePipeline, FrameRing, PostChain, ShardConfig, ShardedRuntime,
        VolumeLoop,
    };
    use std::sync::Arc;
    use usbf_core::ExactEngine;
    use usbf_geometry::{SystemSpec, VoxelIndex};
    use usbf_sim::{EchoSynthesizer, Phantom, Pulse, RfFrame};

    fn setup() -> (SystemSpec, RfFrame) {
        let spec = SystemSpec::tiny();
        let target = spec.volume_grid.position(VoxelIndex::new(4, 4, 8));
        let rf = EchoSynthesizer::new(&spec)
            .synthesize(&Phantom::point(target), &Pulse::from_spec(&spec));
        (spec, rf)
    }

    fn all_planes(spec: &SystemSpec) -> Vec<SlicePlane> {
        let v = &spec.volume_grid;
        let mut planes = Vec::new();
        for it in 0..v.n_theta() {
            planes.push(SlicePlane::Theta(it));
        }
        for ip in 0..v.n_phi() {
            planes.push(SlicePlane::Phi(ip));
        }
        for id in 0..v.n_depth() {
            planes.push(SlicePlane::Depth(id));
        }
        planes
    }

    const AXES: [ProjectionAxis; 3] = [
        ProjectionAxis::Theta,
        ProjectionAxis::Phi,
        ProjectionAxis::Depth,
    ];

    #[test]
    fn loop_view_matches_dense_volume_slices_and_mips() {
        let (spec, rf) = setup();
        let engine = ExactEngine::new(&spec);
        for post in [
            PostChain::empty(),
            PostChain::bmode(BmodeConfig::from_spec(&spec)),
        ] {
            let mut rt = VolumeLoop::new(Beamformer::new(&spec).with_postproc(post));
            rt.beamform(&engine, &rf);
            let dense = rt.volume().clone();
            let view = rt.view();
            assert_eq!(view.dims(), (8, 8, 16));
            for plane in all_planes(&spec) {
                assert_eq!(view.slice(plane), dense.slice(plane), "{plane:?}");
                let mut out = vec![0.0; view.slice_len(plane)];
                view.slice_into(plane, &mut out);
                assert_eq!(out, dense.slice(plane), "{plane:?} (into)");
            }
            for axis in AXES {
                assert_eq!(view.mip(axis), dense.mip(axis), "{axis:?}");
                let mut out = vec![0.0; view.mip_len(axis)];
                view.mip_into(axis, &mut out);
                assert_eq!(out, dense.mip(axis), "{axis:?} (into)");
            }
        }
    }

    #[test]
    fn banded_view_crosses_band_boundaries() {
        // Two workers run a raw tiny frame as 4 whole-fan bands of 4
        // nappes: depth slices on both sides of each band edge, every
        // θ/φ slice (which stitch all four bands into each column) and
        // every MIP must equal the dense volume's.
        let (spec, rf) = setup();
        let engine = ExactEngine::new(&spec);
        let pool = Arc::new(usbf_par::ThreadPool::new(2));
        let schedule = usbf_core::NappeSchedule::fitted(&spec, 4);
        let mut rt = VolumeLoop::with_pool(Beamformer::new(&spec), pool, &schedule);
        assert_eq!(rt.task_count(), 4);
        rt.beamform(&engine, &rf);
        let dense = rt.volume().clone();
        let view = rt.view();
        for id in [3, 4, 7, 8, 11, 12] {
            let plane = SlicePlane::Depth(id);
            assert_eq!(view.slice(plane), dense.slice(plane), "{plane:?}");
        }
        for plane in all_planes(&spec) {
            assert_eq!(view.slice(plane), dense.slice(plane), "{plane:?}");
        }
        for axis in AXES {
            assert_eq!(view.mip(axis), dense.mip(axis), "{axis:?}");
        }
    }

    #[test]
    fn pipeline_view_appears_after_first_frame() {
        let (spec, rf) = setup();
        let mut pipe = FramePipeline::new(
            Beamformer::new(&spec).with_postproc(PostChain::bmode(BmodeConfig::from_spec(&spec))),
            Arc::new(ExactEngine::new(&spec)),
            FrameRing::new(vec![rf]),
        );
        assert!(pipe.view().is_none(), "no view before the first frame");
        pipe.next_volume().expect("healthy pipeline");
        let dense = pipe.volume().expect("one frame done").clone();
        let view = pipe.view().expect("view after the first frame");
        let plane = SlicePlane::Phi(3);
        assert_eq!(view.slice(plane), dense.slice(plane));
        assert_eq!(
            view.mip(ProjectionAxis::Depth),
            dense.mip(ProjectionAxis::Depth)
        );
    }

    #[test]
    fn sharded_views_serve_each_shard_independently() {
        let (spec, rf) = setup();
        let engine = Arc::new(ExactEngine::new(&spec));
        let bmode = PostChain::bmode(BmodeConfig::from_spec(&spec));
        let mut rt = ShardedRuntime::new(
            Arc::new(usbf_par::ThreadPool::new(2)),
            vec![
                ShardConfig::new(
                    Beamformer::new(&spec),
                    Arc::clone(&engine) as _,
                    FrameRing::new(vec![rf.clone()]),
                ),
                ShardConfig::new(
                    Beamformer::new(&spec).with_postproc(bmode),
                    engine as _,
                    FrameRing::new(vec![rf]),
                ),
            ],
        );
        let ids = rt.shard_ids();
        assert!(rt.view_of(ids[0]).is_none(), "no frames yet");
        rt.round();
        for (shard, &id) in ids.iter().enumerate() {
            let dense = rt.volume_of(id).expect("round completed").clone();
            let view = rt.view_of(id).expect("view after a round");
            for axis in AXES {
                assert_eq!(view.mip(axis), dense.mip(axis), "shard {shard} {axis:?}");
            }
            assert_eq!(
                view.slice(SlicePlane::Depth(8)),
                dense.slice(SlicePlane::Depth(8)),
                "shard {shard}"
            );
        }
        // The raw and post-processed shards must actually differ.
        assert_ne!(
            rt.view_of(ids[0]).unwrap().slice(SlicePlane::Depth(8)),
            rt.view_of(ids[1]).unwrap().slice(SlicePlane::Depth(8))
        );
    }

    #[test]
    #[should_panic(expected = "depth index")]
    fn out_of_range_plane_panics() {
        let (spec, rf) = setup();
        let engine = ExactEngine::new(&spec);
        let mut rt = VolumeLoop::new(Beamformer::new(&spec));
        rt.beamform(&engine, &rf);
        rt.view().slice(SlicePlane::Depth(16));
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn wrong_output_length_panics() {
        let (spec, rf) = setup();
        let engine = ExactEngine::new(&spec);
        let mut rt = VolumeLoop::new(Beamformer::new(&spec));
        rt.beamform(&engine, &rf);
        let mut out = vec![0.0; 3];
        rt.view().mip_into(ProjectionAxis::Depth, &mut out);
    }
}
