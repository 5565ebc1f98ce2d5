//! # usbf — 3D ultrasound beamforming delay generation
//!
//! A reproduction of the DATE 2015 paper *"Tackling the Bottleneck of Delay
//! Tables in 3D Ultrasound Imaging"* (Ibrahim, Hager, Bartolini, Angiolini,
//! Arditi, Benini, De Micheli).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`geometry`] — probes, imaging volumes, scan orders (Table I, Fig. 1);
//! * [`fixed`] — Q-format fixed-point arithmetic;
//! * [`pwl`] — piecewise-linear √ approximation with segment tracking (Fig. 2);
//! * [`tables`] — reference delay tables, symmetry folding, steering (Fig. 3);
//! * [`core`] — the delay engines: TABLEFREE and TABLESTEER (§IV, §V);
//! * [`sim`] — synthetic acoustic echoes and image-quality metrics;
//! * [`beamform`] — delay-and-sum beamforming over any engine, plus the
//!   real-time [`VolumeLoop`](beamform::VolumeLoop) frame loop;
//! * [`fpga`] — the Virtex-7 resource/timing model behind Table II;
//! * [`par`] — the persistent worker-pool runtime the parallel paths run on.
//!
//! See `ARCHITECTURE.md` at the repository root for the map from crates
//! and modules to the paper's sections.
//!
//! # Quickstart
//!
//! ```
//! use usbf::geometry::{SystemSpec, VoxelIndex};
//! use usbf::core::{DelayEngine, ExactEngine, TableSteerEngine, TableSteerConfig};
//!
//! let spec = SystemSpec::tiny();
//! let exact = ExactEngine::new(&spec);
//! let steer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
//! let vox = VoxelIndex::new(4, 4, 8);
//! let e = spec.elements.center_element();
//! let t_exact = exact.delay_samples(0, vox, e);
//! let t_steer = steer.delay_samples(0, vox, e);
//! assert!((t_exact - t_steer).abs() < 4.0); // within a few samples near axis
//! ```
//!
//! Delays are consumed in bulk, one nappe slab at a time — the paper's
//! streaming granularity and the hot path of the batched beamformer:
//!
//! ```
//! use usbf::core::{DelayEngine, NappeDelays, TableSteerEngine, TableSteerConfig};
//! use usbf::geometry::{SystemSpec, VoxelIndex};
//!
//! let spec = SystemSpec::tiny();
//! let steer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
//! let mut slab = NappeDelays::full(&spec);
//! steer.fill_nappe(8, &mut slab);
//! let e = spec.elements.center_element();
//! // Batched fills are bit-exact with scalar queries.
//! assert_eq!(slab.at(4, 4, e), steer.delay_samples(0, VoxelIndex::new(4, 4, 8), e));
//! ```

#![forbid(unsafe_code)]

pub use usbf_beamform as beamform;
pub use usbf_core as core;
pub use usbf_fixed as fixed;
pub use usbf_fpga as fpga;
pub use usbf_geometry as geometry;
pub use usbf_par as par;
pub use usbf_pwl as pwl;
pub use usbf_sim as sim;
pub use usbf_tables as tables;
