//! The real-time frame loop: repeated volumes with warm, preallocated
//! state on the persistent worker pool.
//!
//! The paper's architecture exists to sustain delay generation at 3D
//! frame rates — the delays for a volume are regenerated for **every
//! insonification**, thousands of times per second. A cold
//! [`Beamformer::beamform_volume`] call is one frame of a loop built for
//! that call, so calling it per frame pays, each time, for a tile
//! schedule, one delay slab and one values buffer per task, a fresh
//! output volume and a pool job registration. [`VolumeLoop`] kept
//! across frames hoists all of that out of the frame path: it owns a
//! handle to the persistent [`ThreadPool`], one [`NappeDelays`] slab and
//! values buffer per task, a reusable output volume, and a
//! preregistered [`JobHandle`] on the pool. After the first frame,
//! beamforming a volume performs **no thread spawns, no slab, buffer or
//! volume allocations, and no per-tile job allocations** — the job's
//! completion barrier is allocated once at construction and re-announced
//! per frame with a borrowed closure.

use crate::beamformer::TileState;
use crate::{BeamformedVolume, Beamformer};
use std::sync::Arc;
use usbf_core::{DelayEngine, NappeSchedule};
use usbf_par::{JobHandle, ThreadPool};
use usbf_sim::RfFrame;

/// A persistent volume-rate beamforming loop.
///
/// Bit-exactness invariant: for the same engine, RF frame and schedule,
/// [`VolumeLoop::beamform`] produces a volume **bit-identical** to a cold
/// [`Beamformer::beamform_volume`] call — the loop only reuses memory; it
/// never reorders the arithmetic.
///
/// ```
/// use usbf_beamform::{Beamformer, VolumeLoop};
/// use usbf_core::ExactEngine;
/// use usbf_geometry::SystemSpec;
/// use usbf_sim::RfFrame;
///
/// let spec = SystemSpec::tiny();
/// let engine = ExactEngine::new(&spec);
/// let rf = RfFrame::zeros(
///     spec.elements.nx(),
///     spec.elements.ny(),
///     spec.echo_buffer_len(),
/// );
/// let beamformer = Beamformer::new(&spec);
/// let cold = beamformer.beamform_volume(&engine, &rf);
/// let mut rt = VolumeLoop::new(beamformer);
/// for _ in 0..3 {
///     let vol = rt.beamform(&engine, &rf); // warm path, no reallocation
///     assert_eq!(vol, &cold);
/// }
/// assert_eq!(rt.frames(), 3);
/// ```
pub struct VolumeLoop {
    beamformer: Beamformer,
    job: JobHandle,
    /// Schedule tiles per frame.
    n_tiles: usize,
    states: Vec<TileState>,
    out: BeamformedVolume,
    frames: u64,
}

impl VolumeLoop {
    /// Builds a loop on the global pool with a schedule fitted to that
    /// pool's worker count. A cold [`Beamformer::beamform_volume`] call
    /// in nappe order is one frame of such a loop (outputs are
    /// bit-identical for *any* pool and schedule).
    #[must_use]
    pub fn new(beamformer: Beamformer) -> Self {
        let pool = usbf_par::global_arc();
        let schedule = crate::beamformer::pool_fitted_schedule(beamformer.spec(), &pool);
        Self::with_pool(beamformer, pool, &schedule)
    }

    /// Builds a loop on an explicit pool and schedule. All allocation
    /// happens here: one slab and one values buffer per task (see
    /// [`task_count`](Self::task_count)), the output volume, and the
    /// preregistered pool job the frame path
    /// re-announces.
    #[must_use]
    pub fn with_pool(
        beamformer: Beamformer,
        pool: Arc<ThreadPool>,
        schedule: &NappeSchedule,
    ) -> Self {
        let spec = beamformer.spec().clone();
        let tiles = schedule.tiles();
        let states = crate::beamformer::warm_task_states(&beamformer, &tiles, pool.threads());
        let n_tiles = tiles.len();
        let out = BeamformedVolume::zeros(&spec);
        VolumeLoop {
            beamformer,
            job: ThreadPool::register(&pool),
            n_tiles,
            states,
            out,
            frames: 0,
        }
    }

    /// Beamforms one frame into the loop's reusable volume and returns
    /// it. Each task (a whole-fan depth band or a schedule tile) is one
    /// task of the loop's preregistered pool job, writing into its own
    /// warm slab and staging buffer; the
    /// sequential scatter into the output volume is deterministic, so
    /// repeated frames of identical input are bit-identical (and
    /// identical to the cold path), for **any** pool size.
    pub fn beamform(&mut self, engine: &dyn DelayEngine, rf: &RfFrame) -> &BeamformedVolume {
        let beamformer = &self.beamformer;
        self.job.run(&mut self.states, &|_, state: &mut TileState| {
            beamformer.beamform_tile_into(engine, rf, state);
        });
        crate::beamformer::scatter_tasks(&mut self.out, &self.states);
        self.frames += 1;
        &self.out
    }

    /// The most recently beamformed volume (zeros before the first
    /// frame).
    pub fn volume(&self) -> &BeamformedVolume {
        &self.out
    }

    /// A zero-scatter view over the most recent frame's tile outputs:
    /// [`slice`](crate::VolumeView::slice) and
    /// [`mip`](crate::VolumeView::mip) read the warm staging buffers
    /// directly, without the merged volume. Zeros before the first
    /// frame, like [`volume`](Self::volume).
    pub fn view(&self) -> crate::VolumeView<'_> {
        let grid = &self.beamformer.spec().volume_grid;
        crate::VolumeView::new(&self.states, grid.n_theta(), grid.n_phi(), grid.n_depth())
    }

    /// Frames beamformed since construction.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Number of schedule tiles: the units of delay generation.
    pub fn tile_count(&self) -> usize {
        self.n_tiles
    }

    /// Parallel tasks per frame: two whole-fan depth bands per pool
    /// worker for a raw frame (single-transmit or compound), one task per
    /// schedule tile for a post-processed one.
    pub fn task_count(&self) -> usize {
        self.states.len()
    }

    /// The loop's warm task states, in task order: their regions and
    /// nappes are the frame's task shape, their values the most recent
    /// frame's staged output.
    pub fn tasks(&self) -> &[TileState] {
        &self.states
    }

    /// The beamformer configuration driving the loop.
    pub fn beamformer(&self) -> &Beamformer {
        &self.beamformer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usbf_core::{ExactEngine, TableSteerConfig, TableSteerEngine};
    use usbf_geometry::SystemSpec;
    use usbf_sim::{EchoSynthesizer, Phantom, Pulse};

    fn setup() -> (SystemSpec, RfFrame) {
        let spec = SystemSpec::tiny();
        // A point target sitting exactly on a voxel, so volumes carry
        // real signal energy.
        let target = spec
            .volume_grid
            .position(usbf_geometry::VoxelIndex::new(4, 4, 8));
        let rf = EchoSynthesizer::new(&spec)
            .synthesize(&Phantom::point(target), &Pulse::from_spec(&spec));
        (spec, rf)
    }

    #[test]
    fn warm_loop_is_bit_identical_to_cold_beamform_volume() {
        let (spec, rf) = setup();
        let exact = ExactEngine::new(&spec);
        let steer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        for engine in [&exact as &dyn DelayEngine, &steer] {
            let beamformer = Beamformer::new(&spec);
            let cold = beamformer.beamform_volume(engine, &rf);
            let mut rt = VolumeLoop::new(beamformer);
            for frame in 0..5 {
                let warm = rt.beamform(engine, &rf);
                assert_eq!(warm, &cold, "{} frame {frame}", engine.name());
            }
        }
    }

    #[test]
    fn warm_loop_reuses_slabs_and_buffers() {
        let (spec, rf) = setup();
        let engine = ExactEngine::new(&spec);
        let mut rt = VolumeLoop::new(Beamformer::new(&spec));
        rt.beamform(&engine, &rf);
        let slab_ptrs: Vec<*const f64> = rt
            .states
            .iter()
            .map(|s| s.slab.samples().as_ptr())
            .collect();
        let value_ptrs: Vec<*const f64> = rt.states.iter().map(|s| s.values.as_ptr()).collect();
        let out_ptr = rt.out.as_slice().as_ptr();
        for _ in 0..10 {
            rt.beamform(&engine, &rf);
        }
        // No slab, staging-buffer or output-volume reallocation after
        // warm-up: the frame path only writes into memory owned since
        // construction.
        for (state, (&sp, &vp)) in rt
            .states
            .iter()
            .zip(slab_ptrs.iter().zip(value_ptrs.iter()))
        {
            assert_eq!(state.slab.samples().as_ptr(), sp);
            assert_eq!(state.values.as_ptr(), vp);
        }
        assert_eq!(rt.out.as_slice().as_ptr(), out_ptr);
        assert_eq!(rt.frames(), 11);
    }

    #[test]
    fn explicit_pool_and_schedule_match_default_path() {
        let (spec, rf) = setup();
        let engine = ExactEngine::new(&spec);
        let cold = Beamformer::new(&spec).beamform_volume(&engine, &rf);
        for target_tiles in [1, 4, 16] {
            let schedule = NappeSchedule::fitted(&spec, target_tiles);
            let pool = Arc::new(ThreadPool::new(3));
            let mut rt = VolumeLoop::with_pool(Beamformer::new(&spec), pool, &schedule);
            assert!(rt.tile_count() >= target_tiles);
            assert_eq!(rt.beamform(&engine, &rf), &cold, "{target_tiles} tiles");
        }
    }

    #[test]
    fn volume_accessor_tracks_last_frame() {
        let (spec, rf) = setup();
        let engine = ExactEngine::new(&spec);
        let mut rt = VolumeLoop::new(Beamformer::new(&spec));
        assert_eq!(rt.volume().max_abs(), 0.0);
        assert_eq!(rt.frames(), 0);
        let peak = rt.beamform(&engine, &rf).max_abs();
        assert!(peak > 0.0);
        assert_eq!(rt.volume().max_abs(), peak);
    }
}
