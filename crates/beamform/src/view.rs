//! Cheap volume views: re-slices and max-intensity projections of a
//! runtime's most recent volume.
//!
//! A dashboard viewer pulls a 2D image, not a 100 MB volume.
//! [`VolumeView`] borrows the volume a runtime scattered its last
//! successful frame into and copies out only the requested plane or
//! projection: O(plane) writes, with the `_into` variants no allocation
//! at all. The volume keeps each scanline column contiguous
//! (`[θ][φ][depth]`), so a θ slice is one copy, a φ slice one copy per
//! column and a depth slice one read per column. The values read are
//! post-processed when the beamformer carries a
//! [`PostChain`](crate::PostChain).

use crate::BeamformedVolume;

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

/// A read-only window onto a runtime's most recent successful volume,
/// borrowed from [`VolumeLoop::view`](crate::VolumeLoop::view),
/// [`FramePipeline::view`](crate::FramePipeline::view) or
/// [`ShardedRuntime::view_of`](crate::ShardedRuntime::view_of) — the
/// same volume their `volume` accessors return. The borrow checker
/// guarantees no frame can be in flight while a view is alive, and a
/// failed or abandoned frame never reaches the volume, so a view never
/// shows one.
#[derive(Clone, Copy)]
pub struct VolumeView<'a> {
    volume: &'a BeamformedVolume,
    n_theta: usize,
    n_phi: usize,
    n_depth: usize,
}

impl<'a> VolumeView<'a> {
    pub(crate) fn new(volume: &'a BeamformedVolume) -> Self {
        let (n_theta, n_phi, n_depth) = volume.dims();
        VolumeView {
            volume,
            n_theta,
            n_phi,
            n_depth,
        }
    }

    /// The volume's scanline columns, θ-major and φ-inner, each one
    /// contiguous run of `n_depth` values.
    fn columns(&self) -> std::slice::ChunksExact<'a, f64> {
        self.volume.as_slice().chunks_exact(self.n_depth)
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
    /// output layout.
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
        let per_theta = self.n_phi * self.n_depth;
        match plane {
            SlicePlane::Theta(it) => {
                out.copy_from_slice(&self.volume.as_slice()[it * per_theta..][..per_theta]);
            }
            SlicePlane::Phi(ip) => {
                let columns = self.columns().skip(ip).step_by(self.n_phi);
                for (row, column) in out.chunks_exact_mut(self.n_depth).zip(columns) {
                    row.copy_from_slice(column);
                }
            }
            SlicePlane::Depth(id) => {
                for (o, column) in out.iter_mut().zip(self.columns()) {
                    *o = column[id];
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
        // The volume one θ plane at a time, each `[φ][depth]`.
        let planes = self.volume.as_slice().chunks_exact(self.n_phi * nd);
        match axis {
            ProjectionAxis::Theta => {
                for plane in planes {
                    fold_max(out, plane);
                }
            }
            ProjectionAxis::Phi => {
                for (row, plane) in out.chunks_exact_mut(nd).zip(planes) {
                    for column in plane.chunks_exact(nd) {
                        fold_max(row, column);
                    }
                }
            }
            ProjectionAxis::Depth => {
                for (o, column) in out.iter_mut().zip(self.columns()) {
                    *o = column.iter().fold(*o, |m, &v| m.max(v));
                }
            }
        }
    }
}

/// `out[i] = max(out[i], values[i])` for every `i`.
fn fold_max(out: &mut [f64], values: &[f64]) {
    for (o, &v) in out.iter_mut().zip(values) {
        *o = o.max(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Beamformer, BmodeConfig, DelayEngine, FramePipeline, FrameRing, PipelineError, PostChain,
        ShardConfig, ShardedRuntime, VolumeLoop,
    };
    use std::ops::Range;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use usbf_core::{ExactEngine, NappeDelays};
    use usbf_geometry::{ElementIndex, SystemSpec, VoxelIndex};
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

    /// EXACT with an injected fault: when armed, the emit set-up of the
    /// last nappe panics — after every task has beamformed its other
    /// nappes into its buffers.
    struct LateFault {
        inner: ExactEngine,
        last: usize,
        armed: AtomicBool,
    }

    impl DelayEngine for LateFault {
        fn name(&self) -> &'static str {
            "LATE_FAULT"
        }
        fn echo_buffer_len(&self) -> usize {
            self.inner.echo_buffer_len()
        }
        fn delay_samples(&self, tx: usize, vox: VoxelIndex, e: ElementIndex) -> f64 {
            self.inner.delay_samples(tx, vox, e)
        }
        fn fill_nappe_rx(&self, nappe_idx: usize, out: &mut NappeDelays) {
            self.inner.fill_nappe_rx(nappe_idx, out);
        }
        fn combine_tx_row(&self, tx: usize, vox: VoxelIndex, rx_row: &[f64], out: &mut [f64]) {
            self.inner.combine_tx_row(tx, vox, rx_row, out);
        }
        fn begin_emit(&self, nappe_idx: usize, runs: &[Range<usize>], slab: &mut NappeDelays) {
            let armed = self.armed.load(Ordering::SeqCst);
            assert!(!(armed && nappe_idx == self.last), "injected late fault");
            self.inner.begin_emit(nappe_idx, runs, slab);
        }
        fn emit_run(
            &self,
            tx: usize,
            slab: &NappeDelays,
            slots: Range<usize>,
            runs: &[Range<usize>],
            out: &mut [i32],
        ) {
            self.inner.emit_run(tx, slab, slots, runs, out);
        }
    }

    /// Every slice and MIP of `view` equals the same one of `volume`.
    fn assert_view_is(view: Option<VolumeView<'_>>, volume: Option<&BeamformedVolume>, what: &str) {
        let (view, volume) = (view.expect("a view"), volume.expect("a volume"));
        for plane in all_planes(&SystemSpec::tiny()) {
            assert_eq!(view.slice(plane), volume.slice(plane), "{what}: {plane:?}");
        }
        for axis in AXES {
            assert_eq!(view.mip(axis), volume.mip(axis), "{what}: {axis:?}");
        }
    }

    #[test]
    fn views_stay_on_the_last_successful_frame() {
        // A ring of three distinct frames: the first completes, the
        // second is beamformed and abandoned, the third fails at its last
        // nappe. Each leaves the view on the first frame's volume — what
        // `volume` returns — through a pipeline and through a shard, for
        // raw and post-processed frames (both run as band tasks).
        let spec = SystemSpec::tiny();
        let frames: Vec<RfFrame> = [(4, 4, 8), (2, 5, 11), (6, 1, 3)]
            .into_iter()
            .map(|(it, ip, id)| {
                let target = spec.volume_grid.position(VoxelIndex::new(it, ip, id));
                EchoSynthesizer::new(&spec)
                    .synthesize(&Phantom::point(target), &Pulse::from_spec(&spec))
            })
            .collect();
        let engine = Arc::new(LateFault {
            inner: ExactEngine::new(&spec),
            last: spec.volume_grid.n_depth() - 1,
            armed: AtomicBool::new(false),
        });
        let pool = Arc::new(usbf_par::ThreadPool::new(2));
        for post in [
            PostChain::empty(),
            PostChain::bmode(BmodeConfig::from_spec(&spec)),
        ] {
            let bf = Beamformer::new(&spec).with_postproc(post);
            let mut pipe = FramePipeline::with_pool(
                bf.clone(),
                Arc::clone(&engine) as _,
                FrameRing::new(frames.clone()),
                Arc::clone(&pool),
                &usbf_core::NappeSchedule::fitted(&spec, 4),
            );
            pipe.next_volume().expect("a healthy frame");
            drop(pipe.submit().expect("a submitted frame"));
            assert_eq!(pipe.abandoned(), 1);
            assert_view_is(pipe.view(), pipe.volume(), "pipeline, abandoned");
            engine.armed.store(true, Ordering::SeqCst);
            assert!(matches!(
                pipe.next_volume(),
                Err(PipelineError::Beamform(_))
            ));
            engine.armed.store(false, Ordering::SeqCst);
            assert_view_is(pipe.view(), pipe.volume(), "pipeline, failed");

            let mut rt = ShardedRuntime::new(
                Arc::clone(&pool),
                vec![ShardConfig::new(
                    bf,
                    Arc::clone(&engine) as _,
                    FrameRing::new(frames.clone()),
                )],
            );
            let id = rt.shard_ids()[0];
            assert!(rt.round()[0].is_ok(), "a healthy round");
            drop(rt.shard_mut_of(id).expect("a live shard").submit());
            assert_view_is(rt.view_of(id), rt.volume_of(id), "shard, abandoned");
            engine.armed.store(true, Ordering::SeqCst);
            assert!(matches!(
                rt.round()[0].error(),
                Some(PipelineError::Beamform(_))
            ));
            engine.armed.store(false, Ordering::SeqCst);
            assert_view_is(rt.view_of(id), rt.volume_of(id), "shard, failed");
        }
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
