//! Delay-and-sum beamforming over pluggable delay engines.
//!
//! This is the consumer of the paper's delay architectures: Eq. 1,
//! `s(S) = Σ_D w(S)·e(D, tp(O,S,D))`, evaluated for every focal point of
//! the imaging volume in either traversal order of Algorithm 1. The delay
//! index for each `(S, D)` pair comes from any [`DelayEngine`] — exact,
//! TABLEFREE or TABLESTEER — so end-to-end image differences measure
//! exactly the delay-generation error.
//!
//! * [`Apodization`] — separable aperture windows (the `w(S)` weights the
//!   paper leaves out of scope but relies on to suppress edge artifacts);
//! * [`Beamformer`] — per-voxel delay-and-sum with nearest-index fetch
//!   (the paper's datapath) or linear interpolation (extension); nearest
//!   fetch runs one voxel-parallel tile kernel over the compacted
//!   [`ActiveAperture`] and a reusable [`TileState`] (a whole-fan depth
//!   band in every runtime; emitted index rows → grouped index block →
//!   channel-outer gather and accumulate), bit-identical to the scalar
//!   walk, which also serves linear interpolation;
//! * [`BeamformedVolume`] — the reconstructed volume with profile/slice
//!   accessors for image-quality metrics;
//! * [`PostChain`] — none, or B-mode post-processing: one fixed function
//!   calling the `usbf_sim` envelope kernels in order (IQ demodulation →
//!   envelope detection → log compression), run by every volume path as
//!   one serial pass over the assembled volume with preallocated scratch;
//! * [`VolumeView`] — re-slices ([`SlicePlane`]) and max-intensity
//!   projections ([`ProjectionAxis`]) of a runtime's most recent
//!   successful volume, copied out one plane at a time;
//! * [`VolumeLoop`] — the real-time frame loop: repeated volumes on the
//!   persistent `usbf_par` worker pool with preallocated delay slabs and
//!   buffers and a preregistered pool job, bit-identical to the cold
//!   path;
//! * [`FramePipeline`] — the asynchronous runtime: `submit` kicks off
//!   beamforming of frame `n` on the shared pool and returns a
//!   [`VolumeTicket`] immediately, so acquisition of frame `n+1` (any
//!   [`FrameSource`]), beamforming of `n` and the caller's consumption
//!   of volume `n−1` all overlap;
//! * [`ShardedRuntime`] — several probes' pipelines (distinct specs,
//!   engines and sources per [`ShardConfig`]) multiplexed fairly on one
//!   worker pool, with per-shard stats and failure isolation.
//!
//! # Example
//!
//! ```
//! use usbf_beamform::{Apodization, Beamformer};
//! use usbf_core::ExactEngine;
//! use usbf_geometry::{SystemSpec, VoxelIndex};
//! use usbf_sim::{EchoSynthesizer, Phantom, Pulse};
//!
//! let spec = SystemSpec::tiny();
//! // A point target sitting exactly on a voxel of the focal grid:
//! let vox = VoxelIndex::new(4, 4, 8);
//! let target = spec.volume_grid.position(vox);
//! let rf = EchoSynthesizer::new(&spec)
//!     .synthesize(&Phantom::point(target), &Pulse::from_spec(&spec));
//! let engine = ExactEngine::new(&spec);
//! let bf = Beamformer::new(&spec).with_apodization(Apodization::Hann);
//! let vol = bf.beamform_volume(&engine, &rf);
//! assert_eq!(vol.argmax(), vox);
//! ```

// `unsafe` is denied rather than forbidden so that one module, `simd`
// (the kernel's runtime-detected AVX2 stages), can allow it; every block
// there carries a `// SAFETY:` note.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod apodization;
mod beamformer;
mod frame_pipeline;
mod latency;
mod postproc;
mod sharded;
mod simd;
mod view;
mod volume;
mod volume_loop;

pub use apodization::{ActiveAperture, Apodization};
pub use beamformer::{Beamformer, Interpolation, TileState};
pub use frame_pipeline::{
    FramePipeline, FrameRing, FrameSource, PipelineError, PipelineStats, SynthesizedFrames,
    VolumeTicket,
};
pub use latency::LatencyHistogram;
pub use postproc::{BmodeConfig, PostChain, PostScratch};
pub use sharded::{
    shard_fitted_schedule, AdmissionError, RuntimeBudget, ShardConfig, ShardId, ShardRound,
    ShardedRuntime,
};
pub use view::{ProjectionAxis, SlicePlane, VolumeView};
pub use volume::BeamformedVolume;
pub use volume_loop::VolumeLoop;

/// The nearest-fetch tile kernel's pack and MAC stages, AVX2 and scalar,
/// for microbenchmarks: not a stable API.
#[doc(hidden)]
pub mod kernel_stages {
    pub use crate::beamformer::{mac_channel_scalar, pack_group_scalar};
    pub use crate::simd::{Avx2, MAC_CHANNELS};
}

pub use usbf_core::DelayEngine;
