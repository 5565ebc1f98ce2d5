//! Piecewise-linear (PWL) minimax approximation of the square root, as used
//! by the paper's TABLEFREE delay architecture (§IV, Fig. 2).
//!
//! The receive-delay datapath must evaluate `√α` (α = squared distance in
//! sample units) once per element per focal point — far too often for an
//! exact square-root block. The paper approximates √ piecewise linearly
//! such that the absolute error stays below a chosen δ (0.25 samples),
//! which takes *about 70 segments* over the system's argument range, and
//! exploits the slow drift of α between consecutive focal points to
//! **track** the active segment instead of searching for it: the evaluator
//! is just one multiplier, one adder and a few coefficient LUTs.
//!
//! This crate provides:
//!
//! * [`Concave`] — the class of functions the minimax construction applies
//!   to, with [`SqrtFn`] (closed-form segment solving) as the primary
//!   instance;
//! * [`PwlApprox`] — the segment table built greedily so each segment's
//!   minimax error is exactly δ (except the last);
//! * [`QuantizedPwl`] — coefficient LUTs quantized to fixed point, the
//!   hardware-faithful evaluation path, with a branch-free row evaluator
//!   bit-identical to it;
//! * [`TrackingEvaluator`] — the segment-pointer evaluator with step
//!   statistics and an optional strict mode for failure injection.
//!
//! # Example
//!
//! ```
//! use usbf_pwl::{PwlApprox, SqrtFn};
//!
//! // The paper's δ = 0.25 samples over a [64, 16e6] squared-sample range.
//! let pwl = PwlApprox::build(&SqrtFn, (64.0, 16.0e6), 0.25)?;
//! assert!(pwl.segment_count() < 100);
//! let x = 1.234e6;
//! assert!((pwl.eval(x) - x.sqrt()).abs() <= 0.25 + 1e-9);
//! # Ok::<(), usbf_pwl::PwlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod approx;
mod funcs;
mod lut;
mod segment;
mod tracker;

pub use approx::{PwlApprox, PwlError};
pub use funcs::{Concave, SqrtFn};
pub use lut::{LutFormats, QuantizedPwl};
pub use segment::Segment;
pub use tracker::{TrackerStats, TrackingError, TrackingEvaluator};
