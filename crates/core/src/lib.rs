//! Delay-generation engines for 3D ultrasound beamforming — the primary
//! contribution of the DATE 2015 paper.
//!
//! Receive beamforming needs the two-way propagation delay `tp(O, S, D)`
//! (Eq. 2) for every focal point `S` and element `D`, quantized to the
//! echo-sampling grid. This crate implements the paper's two architectures
//! plus the reference and baseline they are measured against, all behind
//! one trait:
//!
//! * [`DelayEngine`] — random-access delay queries (float samples and the
//!   hardware integer index);
//! * [`ExactEngine`] — double-precision golden model;
//! * [`NaiveTableEngine`] — the §II-B baseline: a fully precomputed table,
//!   feasible only for small geometries (~164 × 10⁹ entries at full scale —
//!   construction fails with a byte-budget error);
//! * [`TableFreeEngine`] — §IV: on-the-fly computation with two additions
//!   plus one piecewise-linear square root per element (Fig. 2), no tables;
//! * [`TableSteerEngine`] — §V: a folded reference table steered by the
//!   precomputed Eq. 7 correction planes in fixed point (Fig. 4);
//! * [`stats`] — index-selection error sweeps comparing any engine against
//!   the exact one (the §VI-A accuracy numbers).
//!
//! # Example
//!
//! ```
//! use usbf_core::{DelayEngine, ExactEngine, TableFreeEngine, TableFreeConfig};
//! use usbf_geometry::{SystemSpec, VoxelIndex};
//!
//! let spec = SystemSpec::tiny();
//! let exact = ExactEngine::new(&spec);
//! let tf = TableFreeEngine::new(&spec, TableFreeConfig::paper())?;
//! let vox = VoxelIndex::new(3, 4, 10);
//! for e in spec.elements.iter() {
//!     let err = (tf.delay_samples(0, vox, e) - exact.delay_samples(0, vox, e)).abs();
//!     assert!(err < 1.0); // two δ=0.25 approximations + fixed point
//! }
//! # Ok::<(), usbf_core::EngineError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod exact;
mod naive;
mod nappe;
mod schedule;
pub mod stats;
mod tablefree;
mod tablesteer;

pub use engine::{DelayEngine, EngineError};
pub use exact::ExactEngine;
pub use naive::NaiveTableEngine;
pub use nappe::{FillBuffers, NappeDelays};
pub use schedule::{NappeSchedule, Tile};
pub use tablefree::{TableFreeConfig, TableFreeEngine};
pub use tablesteer::{SteerBlockSpec, TableSteerConfig, TableSteerEngine};
