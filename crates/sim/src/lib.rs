//! Synthetic acoustic substrate: pulses, phantoms, RF echo synthesis and
//! image-quality metrics.
//!
//! The paper evaluates delay architectures against exact delay
//! computation; to validate them *end to end* (through beamformed images)
//! we need receive data. This crate generates it synthetically:
//!
//! * [`Pulse`] — a Gaussian-modulated sinusoid at the probe's centre
//!   frequency and bandwidth (Table I: 4 MHz / 4 MHz);
//! * [`Phantom`] — collections of point scatterers (single points, grids,
//!   random speckle, cyst voids);
//! * [`EchoSynthesizer`] — per-element RF traces: every (scatterer,
//!   element) pair contributes a pulse at the exact two-way propagation
//!   delay of Eq. 2, with optional spreading loss, element directivity and
//!   additive noise;
//! * [`RfFrame`] — the sampled echo buffers (one per element, "slightly
//!   more than 8000 samples" deep at paper scale), stored as 16-bit
//!   samples with one scale per frame;
//! * [`metrics`] — FWHM, peak-sidelobe level, RMSE, contrast.
//!
//! This substitutes for probe hardware and tissue: delay-architecture
//! accuracy only depends on propagation-delay geometry, which is computed
//! here in double precision (see DESIGN.md §2).
//!
//! # Example
//!
//! ```
//! use usbf_geometry::{SystemSpec, Vec3};
//! use usbf_sim::{EchoSynthesizer, Phantom, Pulse};
//!
//! let spec = SystemSpec::tiny();
//! let phantom = Phantom::point(Vec3::new(0.0, 0.0, 0.05));
//! let pulse = Pulse::from_spec(&spec);
//! let rf = EchoSynthesizer::new(&spec).synthesize(&phantom, &pulse);
//! assert_eq!(rf.n_elements(), 64);
//! assert!(rf.max_abs() > 0.0);
//! ```

// `deny`, not `forbid`: the cache-prefetch hint in `rf.rs` is the one
// audited `#[allow(unsafe_code)]` block in this crate.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod echo;
mod envelope;
pub mod metrics;
mod phantom;
mod pulse;
mod rf;

pub use echo::{EchoOptions, EchoSynthesizer};
pub use envelope::{
    boxcar_period, demodulate_into, envelope, envelope_from_iq_into, log_compress_into,
};
pub use phantom::{Phantom, Scatterer};
pub use pulse::Pulse;
pub use rf::{RfError, RfFrame, Trace, FULL_SCALE};
