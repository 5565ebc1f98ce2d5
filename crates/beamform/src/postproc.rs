//! B-mode post-processing: IQ demodulation → envelope detection → log
//! compression over every depth column of a beamformed volume.
//!
//! The delay-and-sum output oscillates at the carrier; a display consumer
//! wants the log-compressed envelope (B-mode). The chain needs whole
//! depth columns, while a runtime's tasks are depth bands, so it runs
//! after the tasks: [`PostChain::apply_volume`] makes one serial pass
//! over the assembled raw volume, on the thread that redeems the frame,
//! with one [`PostScratch`] the runtime allocates at construction — warm
//! pipelined frames stay at zero heap allocations. The cold scalar
//! reference path runs the same call on its voxel walk's volume, so
//! every path applies the chain through one function.
//!
//! A [`PostChain`] is either empty (raw output) or B-mode; there is no
//! stage list. [`PostChain::apply_column`] calls the three `usbf_sim`
//! envelope building blocks directly, in a fixed order
//! ([`demodulate_into`](usbf_sim::demodulate_into) into the scratch I/Q,
//! [`envelope_from_iq_into`](usbf_sim::envelope_from_iq_into) back over
//! the column, [`log_compress_into`](usbf_sim::log_compress_into) in
//! place), so the envelope always reads the demodulation it needs; this
//! module only decides *where* they run. Every step is local to one
//! axial scanline column — log compression is relative to a **fixed**
//! [`BmodeConfig::reference`] level, never the volume peak — so a
//! column's output depends on that column alone.

use crate::BeamformedVolume;
use usbf_geometry::SystemSpec;

/// Parameters of the standard B-mode chain, expressed in the axial
/// sample domain of a beamformed scanline (depth samples, not RF time
/// samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BmodeConfig {
    /// Carrier cycles per depth sample along a beamformed scanline. For
    /// a depth step `dz` this is `2·fc·dz/c` — the factor 2 is the
    /// two-way travel: advancing one depth sample lengthens the echo
    /// path by `2·dz`.
    pub carrier_cycles_per_sample: f64,
    /// Fixed amplitude mapped to 0 dB by the log compression. A fixed
    /// level (rather than the per-volume peak) keeps the transform
    /// pointwise, so a column's output depends on that column alone.
    pub reference: f64,
    /// Darkest displayed level; envelope values at or below silence
    /// clamp here.
    pub floor_db: f64,
}

impl BmodeConfig {
    /// The chain parameters implied by a system spec: axial carrier rate
    /// from the probe's centre frequency and the grid's depth step,
    /// reference level 1.0, −60 dB floor.
    #[must_use]
    pub fn from_spec(spec: &SystemSpec) -> Self {
        let dz = spec.volume_grid.depth_step();
        BmodeConfig {
            carrier_cycles_per_sample: 2.0 * spec.transducer.center_frequency * dz
                / spec.speed_of_sound,
            reference: 1.0,
            floor_db: -60.0,
        }
    }

    /// Angular carrier frequency in radians per depth sample.
    #[inline]
    fn carrier_w(&self) -> f64 {
        2.0 * std::f64::consts::PI * self.carrier_cycles_per_sample
    }

    /// Boxcar length of the envelope low-pass: one axial carrier period,
    /// at least 2 samples.
    #[inline]
    fn period(&self) -> usize {
        usbf_sim::boxcar_period(self.carrier_cycles_per_sample, 1.0)
    }
}

/// Preallocated I/Q intermediates for post-processing: two depth-length
/// rows, allocated once (at construction, for the warm runtimes) and
/// refilled every column.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PostScratch {
    i: Vec<f64>,
    q: Vec<f64>,
}

impl PostScratch {
    /// Allocates scratch for columns of `n_depth` samples.
    #[must_use]
    pub fn new(n_depth: usize) -> Self {
        PostScratch {
            i: vec![0.0; n_depth],
            q: vec![0.0; n_depth],
        }
    }
}

/// The post-processing a beamformer applies to every scanline column it
/// produces: none (raw delay-and-sum output, the default) or the B-mode
/// chain.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PostChain {
    bmode: Option<BmodeConfig>,
}

impl PostChain {
    /// The B-mode chain: IQ demodulation → envelope → log compression.
    #[must_use]
    pub fn bmode(config: BmodeConfig) -> Self {
        PostChain {
            bmode: Some(config),
        }
    }

    /// No post-processing (the raw-output default).
    #[must_use]
    pub fn empty() -> Self {
        PostChain::default()
    }

    /// Whether the chain leaves columns untouched.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bmode.is_none()
    }

    /// Applies the chain to one scanline's depth column: demodulation
    /// into `scratch`, the envelope of that I/Q back over the column,
    /// then log compression in place. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if the chain is B-mode and `scratch` is shorter than the
    /// column.
    #[inline]
    pub fn apply_column(&self, column: &mut [f64], scratch: &mut PostScratch) {
        let Some(config) = &self.bmode else {
            return;
        };
        let n = column.len();
        usbf_sim::demodulate_into(column, config.carrier_w(), &mut scratch.i, &mut scratch.q);
        usbf_sim::envelope_from_iq_into(&scratch.i[..n], &scratch.q[..n], config.period(), column);
        usbf_sim::log_compress_into(column, config.reference, config.floor_db);
    }

    /// Scratch for this chain's columns of `n_depth` samples: empty (no
    /// allocation) for an empty chain, which never touches it.
    pub(crate) fn scratch(&self, n_depth: usize) -> PostScratch {
        PostScratch::new(if self.is_empty() { 0 } else { n_depth })
    }

    /// Applies the chain to a whole beamformed volume, column by column,
    /// using `scratch` for the intermediates — the one whole-volume chain
    /// site, shared by the scalar reference path and every runtime. The
    /// chain is not idempotent: apply it once per raw volume.
    ///
    /// # Panics
    ///
    /// Panics if the chain is B-mode and `scratch` is shorter than the
    /// volume's depth columns.
    pub fn apply_volume(&self, volume: &mut BeamformedVolume, scratch: &mut PostScratch) {
        if self.is_empty() {
            return;
        }
        for column in volume.columns_mut() {
            self.apply_column(column, scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usbf_geometry::VoxelIndex;

    const CCPS: f64 = 0.25; // 4 depth samples per carrier cycle

    fn config() -> BmodeConfig {
        BmodeConfig {
            carrier_cycles_per_sample: CCPS,
            reference: 1.0,
            floor_db: -60.0,
        }
    }

    /// One modulated column through the chain must equal the allocating
    /// `usbf_sim` trace transform with the same parameters.
    #[test]
    fn bmode_column_matches_sim_envelope_blocks() {
        let n = 64;
        let w = 2.0 * std::f64::consts::PI * CCPS;
        let mut column: Vec<f64> = (0..n)
            .map(|k| (w * k as f64).cos() * (0.2 + k as f64 / n as f64))
            .collect();
        let raw = column.clone();
        let chain = PostChain::bmode(config());
        let mut scratch = PostScratch::new(n);
        chain.apply_column(&mut column, &mut scratch);

        // usbf_sim reference: envelope at fc/fs = CCPS, then fixed-ref
        // log compression.
        let mut expect = usbf_sim::envelope(&raw, CCPS, 1.0);
        usbf_sim::log_compress_into(&mut expect, 1.0, -60.0);
        assert_eq!(column, expect, "chain diverges from the sim blocks");
    }

    #[test]
    fn from_spec_uses_two_way_axial_carrier() {
        let spec = usbf_geometry::SystemSpec::tiny();
        let cfg = BmodeConfig::from_spec(&spec);
        let expect = 2.0 * spec.transducer.center_frequency * spec.volume_grid.depth_step()
            / spec.speed_of_sound;
        assert_eq!(cfg.carrier_cycles_per_sample, expect);
        assert!(cfg.carrier_cycles_per_sample > 0.0);
    }

    #[test]
    fn apply_volume_is_columnwise() {
        // Two identical columns in different (θ, φ) positions must come
        // out identical: the chain has no cross-column coupling.
        let spec = usbf_geometry::SystemSpec::tiny();
        let mut vol = BeamformedVolume::zeros(&spec);
        let w = 2.0 * std::f64::consts::PI * CCPS;
        for id in 0..spec.volume_grid.n_depth() {
            let v = (w * id as f64).cos();
            vol.set(VoxelIndex::new(1, 2, id), v);
            vol.set(VoxelIndex::new(6, 3, id), v);
        }
        let mut scratch = PostScratch::new(spec.volume_grid.n_depth());
        PostChain::bmode(config()).apply_volume(&mut vol, &mut scratch);
        for id in 0..spec.volume_grid.n_depth() {
            assert_eq!(
                vol.get(VoxelIndex::new(1, 2, id)),
                vol.get(VoxelIndex::new(6, 3, id))
            );
        }
        // Silent columns clamp to the floor.
        assert_eq!(vol.get(VoxelIndex::new(0, 0, 0)), -60.0);
    }

    #[test]
    fn empty_chain_leaves_volume_untouched() {
        let spec = usbf_geometry::SystemSpec::tiny();
        let mut vol = BeamformedVolume::zeros(&spec);
        vol.set(VoxelIndex::new(3, 3, 3), 7.0);
        let before = vol.clone();
        assert!(PostChain::empty().is_empty());
        assert!(!PostChain::bmode(config()).is_empty());
        PostChain::empty().apply_volume(&mut vol, &mut PostScratch::default());
        assert_eq!(vol, before);
    }
}
