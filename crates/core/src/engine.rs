//! The delay-engine abstraction and shared error type.

use crate::NappeDelays;
use std::error::Error;
use std::fmt;
use usbf_geometry::{ElementIndex, VoxelIndex};

/// A source of beamforming delays: given a transmit, a focal point and a
/// receive element, produce the two-way propagation delay.
///
/// Engines expose two per-query views, both indexed by the transmit `tx`
/// of the spec's sequence (0 for the classic single emission):
///
/// * [`DelayEngine::delay_samples`] — the delay in (possibly approximated)
///   fractional samples, before final index rounding; this is what accuracy
///   analyses compare;
/// * [`DelayEngine::delay_index`] — the integer echo-buffer index the
///   hardware would emit (final `floor(x + ½)` rounding stage);
///
/// plus the batched streaming view of the paper's architecture, per nappe
/// (one depth step) over a fan tile:
///
/// * [`DelayEngine::fill_nappe_streamed`] — every delay of transmit 0,
///   fused, each row handed over cache-hot (the single-transmit path);
/// * [`DelayEngine::fill_nappe_rx`] + [`DelayEngine::combine_tx_row`] —
///   the transmit-invariant receive leg once per nappe, then one cheap
///   per-row combine per transmit (the compound path).
///
/// Every batched view must stay **bit-exact** with the scalar per-voxel
/// queries ([`NappeDelays::fill_scalar`] is the oracle).
///
/// Engines are `Sync` so beamformers can fan one engine out across
/// schedule tiles on multiple threads.
///
/// Implementations must be deterministic: repeated queries for the same
/// `(tx, vox, e)` return identical values.
pub trait DelayEngine: Sync {
    /// Short architecture name (e.g. `"TABLEFREE"`), used in reports.
    fn name(&self) -> &'static str;

    /// Length of the echo buffer this engine indexes into.
    fn echo_buffer_len(&self) -> usize;

    /// Number of transmits this engine serves delays for — the length of
    /// the spec's transmit sequence it was built against. Engines without
    /// multi-transmit support report 1 (the default).
    fn transmit_count(&self) -> usize {
        1
    }

    /// Two-way delay of transmit `tx` in fractional samples at the
    /// system's `fs`.
    fn delay_samples(&self, tx: usize, vox: VoxelIndex, e: ElementIndex) -> f64;

    /// Integer echo-buffer index of transmit `tx`: the rounded delay,
    /// clamped to `[0, echo_buffer_len)`.
    fn delay_index(&self, tx: usize, vox: VoxelIndex, e: ElementIndex) -> i64 {
        self.delay_index_from(self.delay_samples(tx, vox, e))
    }

    /// Final rounding stage: echo-buffer index for an already-computed
    /// fractional delay (`floor(x + ½)`, clamped). Both the scalar
    /// [`DelayEngine::delay_index`] and batched slab consumers route
    /// through this, so engines with rounding telemetry (TABLESTEER's
    /// clamp counter) observe every path.
    fn delay_index_from(&self, samples: f64) -> i64 {
        let idx = (samples + 0.5).floor() as i64;
        idx.clamp(0, self.echo_buffer_len() as i64 - 1)
    }

    /// Batched final rounding: quantizes one row of fractional delays to
    /// echo-buffer indices, writing `out[i] = delay_index_from(row[i])`.
    ///
    /// This is the per-row counterpart of
    /// [`DelayEngine::delay_index_from`]: the beamformer's inner kernel
    /// calls it **once per (nappe, scanline) row** instead of making one
    /// virtual `delay_index_from` call per element, so specialized
    /// overrides run a tight, monomorphic clamp loop. Overrides must be
    /// bit-identical to the default, and engines with rounding telemetry
    /// (TABLESTEER's clamp counter) must accumulate **exactly** the same
    /// counts the per-element path would — `tests/engine_consistency.rs`
    /// enforces both.
    ///
    /// # Panics
    ///
    /// Panics if `row` and `out` differ in length.
    fn quantize_row(&self, row: &[f64], out: &mut [i32]) {
        assert_eq!(row.len(), out.len(), "index row must match delay row");
        assert!(
            self.echo_buffer_len() as u64 <= i32::MAX as u64,
            "echo buffer too long for i32 indices"
        );
        for (o, &s) in out.iter_mut().zip(row) {
            *o = self.delay_index_from(s) as i32;
        }
    }

    /// Whether this engine's final rounding stage carries **observable
    /// telemetry** — counters a caller could read that advance once per
    /// quantized value (TABLESTEER's clamp counter is the one live
    /// example). The tile kernel skips a (voxel, transmit) row whose mask
    /// weight is zero, since it contributes nothing to the sum; for an
    /// engine answering `true` it still quantizes that row (and discards
    /// it), so the counters count every (voxel, transmit) row of a frame
    /// — the same count as `delay_index` over every voxel, transmit and
    /// active channel. Engines that add rounding telemetry MUST override
    /// this to `true`, or masked rows stop being counted.
    fn rounding_telemetry(&self) -> bool {
        false
    }

    /// Fused slab fill of **transmit 0**: fills `out` with every delay of
    /// nappe `nappe_idx` over the slab's fan tile, handing each completed
    /// row to `consume(slot, row)` as soon as it is produced, while the
    /// row is still cache-hot.
    ///
    /// This is the single-transmit path of the tile kernel: for
    /// fill-bound engines (TABLEFREE's PWL datapath) the kernel quantizes
    /// row *s* while it is hot instead of only after the whole slab is
    /// done. Rows are delivered exactly once each, in slab slot order,
    /// and the slab is completely filled when this returns. Specialized
    /// implementations (TABLEFREE's tracked PWL walk, TABLESTEER's
    /// per-scanline correction reuse) must produce bit-identical slabs —
    /// `tests/engine_consistency.rs` enforces this.
    ///
    /// The default fills through the scalar [`NappeDelays::fill_scalar`]
    /// walk and then replays the rows.
    ///
    /// # Panics
    ///
    /// Panics if `nappe_idx` is outside the slab's depth range (checked
    /// in release builds at the [`NappeDelays::begin_fill`] boundary).
    fn fill_nappe_streamed(
        &self,
        nappe_idx: usize,
        out: &mut NappeDelays,
        consume: &mut dyn FnMut(usize, &[f64]),
    ) {
        out.fill_scalar(self, 0, nappe_idx);
        for slot in 0..out.scanline_count() {
            consume(slot, out.row(slot));
        }
    }

    /// Fills `out` with every delay of transmit 0 for nappe `nappe_idx`:
    /// [`DelayEngine::fill_nappe_streamed`] with no row consumer.
    ///
    /// # Panics
    ///
    /// Same contract as [`DelayEngine::fill_nappe_streamed`].
    ///
    /// ```
    /// use usbf_core::{DelayEngine, ExactEngine, NappeDelays};
    /// use usbf_geometry::{SystemSpec, VoxelIndex};
    ///
    /// let spec = SystemSpec::tiny();
    /// let engine = ExactEngine::new(&spec);
    /// let mut slab = NappeDelays::full(&spec);
    /// engine.fill_nappe(8, &mut slab);
    /// // The slab holds exactly what per-voxel queries would return:
    /// let e = spec.elements.center_element();
    /// let vox = VoxelIndex::new(4, 4, 8);
    /// assert_eq!(slab.at(4, 4, e), engine.delay_samples(0, vox, e));
    /// ```
    fn fill_nappe(&self, nappe_idx: usize, out: &mut NappeDelays) {
        self.fill_nappe_streamed(nappe_idx, out, &mut |_, _| {});
    }

    /// Fills `out` with the transmit-invariant **receive leg** of nappe
    /// `nappe_idx`: the per-element part of Eq. 2 (`|S − D|`), which
    /// dominates fill cost and is shared by every transmit of a compound
    /// frame. Consumers fill it once per (nappe, tile) and run one cheap
    /// [`DelayEngine::combine_tx_row`] per transmit, turning the per-voxel
    /// fill cost from `O(N · elements)` into `O(elements + N)`.
    ///
    /// The slab's contents after this call are **engine-defined
    /// intermediates** (EXACT stores receive distances in metres,
    /// TABLESTEER pre-scale raw fixed-point sums, …): only the output of
    /// [`DelayEngine::combine_tx_row`] on a slab row is specified. The
    /// slab's nappe marker is set, so warm slabs are reused exactly like
    /// fused fills reuse them.
    ///
    /// # Panics
    ///
    /// Panics if `nappe_idx` is out of range, as
    /// [`DelayEngine::fill_nappe`] does.
    fn fill_nappe_rx(&self, nappe_idx: usize, out: &mut NappeDelays);

    /// Combines one receive-leg row (row `slot` of a
    /// [`DelayEngine::fill_nappe_rx`] slab, for the scanline of `vox`)
    /// with transmit `tx`'s per-voxel term, writing into `out` the exact
    /// fractional-delay row the scalar [`DelayEngine::delay_samples`]
    /// queries of `(tx, vox)` produce — **bit-identical**, before the
    /// engine's own quantization stage. For EXACT / NAIVE / TABLEFREE the
    /// combine is an f64 add (or a table widen); for TABLESTEER it is the
    /// already-folded fixed-point transmit-correction constant.
    ///
    /// # Panics
    ///
    /// Implementations panic if `rx_row` and `out` differ in length.
    fn combine_tx_row(&self, tx: usize, vox: VoxelIndex, rx_row: &[f64], out: &mut [f64]);
}

/// The shared branch-free body of the specialized
/// [`DelayEngine::quantize_row`] overrides: `floor(x + ½)` rounding
/// clamped to `[0, echo_len)`, exactly the default `delay_index_from`
/// arithmetic, plus a clamp count for engines that keep rounding
/// telemetry. One definition so the engines cannot drift from each other
/// (or from the scalar rounding stage).
#[inline]
pub(crate) fn quantize_row_clamped(echo_len: usize, row: &[f64], out: &mut [i32]) -> u64 {
    assert_eq!(row.len(), out.len(), "index row must match delay row");
    assert!(
        echo_len as u64 <= i32::MAX as u64,
        "echo buffer too long for i32 indices"
    );
    // Adding 2⁵² to an integer-valued f64 in [0, 2³¹) leaves the integer
    // in the low mantissa bits.
    const BIAS: f64 = (1u64 << 52) as f64;
    let hi = (echo_len - 1) as f64;
    let lim = echo_len as f64;
    let mut clamps = 0u64;
    for (o, &s) in out.iter_mut().zip(row) {
        // Floor and clamp in float space, then read the integer out of
        // the biased value's bits. The saturating `f64 as i32` cast keeps
        // the loop scalar even on x86-64-v3 (its NaN and range fix-ups
        // have no packed form); `floor` (`vroundpd`), `max`/`min` and the
        // bias add are all packed ops, so this loop vectorizes. It is
        // bit-identical to the default `floor(x+½).clamp(0, hi)` path:
        // `max` maps NaN to 0 like the saturating int cast does, and the
        // clamped value is an integer in `[0, hi]`, so `z + 2⁵²` is exact
        // and its low 32 bits are `z`. A fetch is out of window exactly
        // when `x+½ < 0` (floor < 0) or `x+½ ≥ echo_len` (floor > hi),
        // which is the clamp-telemetry condition below.
        let y = s + 0.5;
        let z = y.floor().max(0.0).min(hi);
        clamps += u64::from((y < 0.0) | (y >= lim));
        *o = (z + BIAS).to_bits() as i32;
    }
    clamps
}

/// Test oracle shared by the engines' unit tests: for every transmit of
/// the engine and each of `nappes`, the receive-leg fill plus
/// [`DelayEngine::combine_tx_row`] must reproduce the scalar per-transmit
/// walk ([`NappeDelays::fill_scalar`]) bit for bit over the whole fan.
#[cfg(test)]
pub(crate) fn assert_rx_combine_matches_scalar(
    engine: &dyn DelayEngine,
    spec: &usbf_geometry::SystemSpec,
    nappes: &[usize],
) {
    let mut rx = NappeDelays::full(spec);
    let mut scalar = NappeDelays::full(spec);
    let mut combined = vec![0.0; rx.n_elements()];
    for &id in nappes {
        engine.fill_nappe_rx(id, &mut rx);
        assert_eq!(rx.nappe(), Some(id));
        for tx in 0..engine.transmit_count() {
            scalar.fill_scalar(engine, tx, id);
            for (slot, it, ip) in rx.scanlines() {
                let vox = VoxelIndex::new(it, ip, id);
                engine.combine_tx_row(tx, vox, rx.row(slot), &mut combined);
                for (a, b) in combined.iter().zip(scalar.row(slot)) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} tx {tx} nappe {id} slot {slot}",
                        engine.name()
                    );
                }
            }
        }
    }
}

/// Errors from engine construction.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A precomputed table would exceed the allowed memory budget
    /// (the §II-B infeasibility, made concrete).
    TableTooLarge {
        /// Bytes the table would need.
        required_bytes: u64,
        /// The configured limit.
        limit_bytes: u64,
    },
    /// A fixed-point coefficient did not fit its format.
    Fixed(usbf_fixed::FixedError),
    /// The PWL square-root table could not be built.
    Pwl(usbf_pwl::PwlError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::TableTooLarge {
                required_bytes,
                limit_bytes,
            } => write!(
                f,
                "delay table needs {required_bytes} bytes, exceeding the {limit_bytes}-byte budget"
            ),
            EngineError::Fixed(e) => write!(f, "fixed-point error: {e}"),
            EngineError::Pwl(e) => write!(f, "PWL construction error: {e}"),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Fixed(e) => Some(e),
            EngineError::Pwl(e) => Some(e),
            EngineError::TableTooLarge { .. } => None,
        }
    }
}

impl From<usbf_fixed::FixedError> for EngineError {
    fn from(e: usbf_fixed::FixedError) -> Self {
        EngineError::Fixed(e)
    }
}

impl From<usbf_pwl::PwlError> for EngineError {
    fn from(e: usbf_pwl::PwlError) -> Self {
        EngineError::Pwl(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct ConstEngine(f64);
    impl DelayEngine for ConstEngine {
        fn name(&self) -> &'static str {
            "CONST"
        }
        fn delay_samples(&self, _: usize, _: VoxelIndex, _: ElementIndex) -> f64 {
            self.0
        }
        fn echo_buffer_len(&self) -> usize {
            100
        }
        fn fill_nappe_rx(&self, nappe_idx: usize, out: &mut NappeDelays) {
            out.fill_scalar(self, 0, nappe_idx);
        }
        fn combine_tx_row(&self, _: usize, _: VoxelIndex, rx_row: &[f64], out: &mut [f64]) {
            out.copy_from_slice(rx_row);
        }
    }

    #[test]
    fn default_index_rounds_half_up() {
        let v = VoxelIndex::new(0, 0, 0);
        let e = ElementIndex::new(0, 0);
        assert_eq!(ConstEngine(10.49).delay_index(0, v, e), 10);
        assert_eq!(ConstEngine(10.5).delay_index(0, v, e), 11);
    }

    #[test]
    fn default_index_clamps_to_buffer() {
        let v = VoxelIndex::new(0, 0, 0);
        let e = ElementIndex::new(0, 0);
        assert_eq!(ConstEngine(1e9).delay_index(0, v, e), 99);
        assert_eq!(ConstEngine(-5.0).delay_index(0, v, e), 0);
    }

    #[test]
    fn default_quantize_row_matches_per_element_rounding() {
        let eng = ConstEngine(0.0);
        let row = [10.49, 10.5, -3.0, 1e9, 98.7, 0.0];
        let mut out = [0i32; 6];
        eng.quantize_row(&row, &mut out);
        for (&s, &o) in row.iter().zip(&out) {
            assert_eq!(o as i64, eng.delay_index_from(s));
        }
        assert_eq!(out, [10, 11, 0, 99, 99, 0]);
    }

    #[test]
    fn quantize_row_clamped_counts_every_clamp() {
        let row = [-1.0, 0.0, 50.0, 99.2, 2e9];
        let mut out = [0i32; 5];
        let clamps = quantize_row_clamped(100, &row, &mut out);
        assert_eq!(out, [0, 0, 50, 99, 99]);
        assert_eq!(clamps, 2); // -1.0 and 2e9 fall outside the window
    }

    #[test]
    #[should_panic(expected = "index row must match delay row")]
    fn quantize_row_rejects_length_mismatch() {
        ConstEngine(0.0).quantize_row(&[1.0, 2.0], &mut [0i32; 3]);
    }

    #[test]
    fn default_streamed_fill_delivers_every_row_once_in_order() {
        let spec = usbf_geometry::SystemSpec::tiny();
        let eng = ConstEngine(7.25);
        let mut slab = NappeDelays::full(&spec);
        let mut seen = Vec::new();
        eng.fill_nappe_streamed(3, &mut slab, &mut |slot, row| {
            assert!(row.iter().all(|&d| d == 7.25));
            seen.push((slot, row.len()));
        });
        assert_eq!(slab.nappe(), Some(3));
        let expected: Vec<_> = (0..slab.scanline_count())
            .map(|s| (s, slab.n_elements()))
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn error_display_and_source() {
        let e = EngineError::TableTooLarge {
            required_bytes: 100,
            limit_bytes: 10,
        };
        assert!(e.to_string().contains("exceeding"));
        assert!(e.source().is_none());
        let e: EngineError = usbf_pwl::PwlError::InvalidDelta(0.0).into();
        assert!(e.source().is_some());
    }
}
