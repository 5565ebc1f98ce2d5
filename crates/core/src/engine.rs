//! The delay-engine abstraction and shared error type.

use crate::NappeDelays;
use std::error::Error;
use std::fmt;
use std::ops::Range;
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
/// plus two batched views of the paper's architecture, per nappe (one
/// depth step) over a fan tile, for every transmit sequence:
///
/// * the **emit** — the Fig. 4 datapath, and the tile kernel's only delay
///   source: a per-(tile, nappe) set-up for the active aperture's runs
///   ([`DelayEngine::begin_emit`]), then per transmit and run of rows
///   one pass that adds the receive leg and the transmit term and
///   rounds, writing `i32` echo-buffer indices of the active channels
///   straight into the caller's staging rows
///   ([`DelayEngine::emit_run`]). No delay row is stored, and no pass
///   compacts one: TABLESTEER's emit walks the runs itself, and the
///   other engines' set-up writes only the active entries of their
///   receive leg;
/// * the **row methods** — the transmit-invariant receive leg as an `f64`
///   slab ([`DelayEngine::fill_nappe_rx`]) once per nappe, then per
///   transmit the per-voxel transmit term added to one row
///   ([`DelayEngine::combine_tx_row`], fractional delays) and the final
///   rounding of a row ([`DelayEngine::quantize_row`]). Both views take
///   the transmit term from the same per-engine computation, so a row's
///   term is the same bits whichever adds it.
///
/// The row methods are **element-wise**: entry `i` of a row's output
/// depends only on `(tx, vox, rx_row[i])`.
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
    /// fractional delay (`floor(x + ½)`, clamped). The scalar
    /// [`DelayEngine::delay_index`] routes through this;
    /// [`DelayEngine::quantize_row`] and [`DelayEngine::emit_run`] must
    /// match it bit for bit, rounding telemetry (TABLESTEER's clamp
    /// counter) included.
    fn delay_index_from(&self, samples: f64) -> i64 {
        let idx = (samples + 0.5).floor() as i64;
        idx.clamp(0, self.echo_buffer_len() as i64 - 1)
    }

    /// Batched final rounding: quantizes one row of fractional delays to
    /// echo-buffer indices, writing `out[i] = delay_index_from(row[i])`.
    ///
    /// The default is the shared vector loop, bit-identical to the
    /// default [`DelayEngine::delay_index_from`]. An engine that overrides
    /// the scalar stage (TABLESTEER, to count clamps) must override this
    /// too and accumulate **exactly** the counts the per-element path
    /// would — `tests/engine_consistency.rs` enforces both.
    ///
    /// # Panics
    ///
    /// Panics if `row` and `out` differ in length.
    fn quantize_row(&self, row: &[f64], out: &mut [i32]) {
        quantize_row_clamped(self.echo_buffer_len(), row, out, |x| x);
    }

    /// Fills `out` with every delay of transmit 0 for nappe `nappe_idx`:
    /// the receive leg ([`DelayEngine::fill_nappe_rx`]), then exactly one
    /// [`DelayEngine::combine_tx_row`] per row, in place.
    ///
    /// # Panics
    ///
    /// Same contract as [`DelayEngine::fill_nappe_rx`].
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
        self.fill_nappe_rx(nappe_idx, out);
        out.rewrite_rows(|vox, rx, row| self.combine_tx_row(0, vox, rx, row));
    }

    /// Fills `out` with the transmit-invariant **receive leg** of nappe
    /// `nappe_idx`: the per-element part of Eq. 2 (`|S − D|`), which
    /// dominates fill cost and is shared by every transmit of a compound
    /// frame. Consumers fill it once per (nappe, tile) and run one cheap
    /// row method per transmit, turning the per-voxel fill cost from
    /// `O(N · elements)` into `O(elements + N)`.
    ///
    /// The slab's contents after this call are **engine-defined
    /// intermediates** (EXACT stores receive distances in metres,
    /// TABLESTEER pre-scale raw fixed-point sums, NAIVE element slots, …):
    /// only the output of the row methods on a slab row is specified. The
    /// slab's nappe marker is set, so warm slabs are reused in place.
    ///
    /// # Panics
    ///
    /// Panics if `nappe_idx` is outside the slab's depth range (checked
    /// in release builds at the [`NappeDelays::begin_fill`] boundary).
    fn fill_nappe_rx(&self, nappe_idx: usize, out: &mut NappeDelays);

    /// Combines receive-leg entries (from row `slot` of a
    /// [`DelayEngine::fill_nappe_rx`] slab, for the scanline of `vox`, or
    /// any element-wise selection of them) with transmit `tx`'s per-voxel
    /// term, writing
    /// into `out` the fractional delays the scalar
    /// [`DelayEngine::delay_samples`] queries of `(tx, vox)` produce for
    /// those elements — **bit-identical**, before the engine's own
    /// quantization stage. For EXACT and TABLEFREE the combine is an f64
    /// add, for NAIVE a table read, and for TABLESTEER the already-folded
    /// fixed-point transmit correction plus the final scale. Element-wise
    /// (see the trait docs).
    ///
    /// # Panics
    ///
    /// Implementations panic if `rx_row` and `out` differ in length.
    fn combine_tx_row(&self, tx: usize, vox: VoxelIndex, rx_row: &[f64], out: &mut [f64]);

    /// The emit's per-(tile, nappe) set-up: stages in `slab` what
    /// [`DelayEngine::emit_run`] reads for nappe `nappe_idx` over the
    /// slab's tile and the active aperture `runs` (the runs every emit of
    /// this set-up walks), and sets the slab's nappe marker. EXACT,
    /// TABLEFREE and NAIVE stage the active entries of their receive leg,
    /// compacted to the front of each row — over the whole aperture it
    /// is their [`DelayEngine::fill_nappe_rx`]: EXACT and NAIVE compute
    /// only those entries, TABLEFREE evaluates whole rows (its root count
    /// is per element) and compacts each while it is hot. TABLESTEER
    /// stages the nappe's unfolded reference row, the BRAM stream of
    /// Fig. 4 (its correction registers are depth-independent and held
    /// by the engine), and for a single transmit leaves the slab's `f64`
    /// rows untouched; with several, whose emits all add the same
    /// receive leg, it stages that leg once, compacted to the runs.
    ///
    /// # Panics
    ///
    /// Same contract as [`DelayEngine::fill_nappe_rx`].
    fn begin_emit(&self, nappe_idx: usize, runs: &[Range<usize>], slab: &mut NappeDelays);

    /// The emit: transmit `tx`'s echo-buffer indices for the rows `slots`
    /// of `slab`'s tile at its held nappe, over the active aperture
    /// `runs` — ascending, disjoint ranges of linear element slots.
    /// `out` holds one row of `width` indices per slot, in slot order,
    /// where `width` is the runs' total length, and entry `k` of a row
    /// is the index of the `k`-th active element. Every row's transmit
    /// term is computed first, in one pass over the run of rows; each
    /// row is then one pass over the runs that adds the receive leg and
    /// the term and rounds, reading and writing only active channels.
    ///
    /// Row `k` is bit-identical to the scalar
    /// [`DelayEngine::delay_index`] of each active element, and rounding
    /// telemetry (TABLESTEER's clamp counter, TABLEFREE's square-root
    /// counter) advances by exactly what
    /// [`DelayEngine::combine_tx_row`] and [`DelayEngine::quantize_row`]
    /// of those rows would add, published once per call. `slab` must
    /// hold this engine's [`DelayEngine::begin_emit`] of its tile and
    /// nappe, for the same `runs`. This is the tile kernel's only delay
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if `slab` holds no nappe, if `slots` runs past its tile, if
    /// a run ends past [`NappeDelays::n_elements`], or if `out.len()` is
    /// not `slots.len()` rows of `width` entries.
    fn emit_run(
        &self,
        tx: usize,
        slab: &NappeDelays,
        slots: Range<usize>,
        runs: &[Range<usize>],
        out: &mut [i32],
    );
}

/// Most rows one term pass of [`emit_passes`] covers: the focal points
/// and transmit terms of a pass are staged in on-stack arrays of this
/// length.
pub(crate) const RUN_PASS: usize = 16;

/// Validates a [`DelayEngine::emit_run`] call and returns its shape: the
/// slab's held nappe, its tile and the row width (the runs' total
/// length).
///
/// # Panics
///
/// Same contract as [`DelayEngine::emit_run`].
fn emit_shape(
    slab: &NappeDelays,
    slots: &Range<usize>,
    runs: &[Range<usize>],
    out_len: usize,
) -> (usize, crate::Tile, usize) {
    let id = slab.nappe().expect("an emit reads a set-up slab");
    let tile = slab.tile();
    assert!(
        slots.start <= slots.end && slots.end <= tile.scanlines(),
        "run {slots:?} outside the slab's {} rows",
        tile.scanlines()
    );
    assert!(
        runs.iter().all(|r| r.end <= slab.n_elements()),
        "aperture runs must lie within the slab's {} elements",
        slab.n_elements()
    );
    let width: usize = runs.iter().map(ExactSizeIterator::len).sum();
    assert!(
        width * slots.len() == out_len,
        "emit output must be {} rows of {width} entries",
        slots.len()
    );
    (id, tile, width)
}

/// The pass walk behind every engine's [`DelayEngine::emit_run`]: per
/// pass of up to [`RUN_PASS`] rows, `terms` writes every row's transmit
/// term from its focal point in one pass, then `rows` writes the pass's
/// rows of indices (`out`, `width` entries per row) from their focal
/// points and terms, returning their clamp count. Returns the call's
/// clamp count.
///
/// # Panics
///
/// Same contract as [`DelayEngine::emit_run`].
pub(crate) fn emit_passes<T: Copy + Default>(
    slab: &NappeDelays,
    slots: Range<usize>,
    runs: &[Range<usize>],
    out: &mut [i32],
    mut terms: impl FnMut(&[VoxelIndex], &mut [T]),
    mut rows: impl FnMut(&[VoxelIndex], &[T], Range<usize>, usize, &mut [i32]) -> u64,
) -> u64 {
    let (id, tile, width) = emit_shape(slab, &slots, runs, out.len());
    let mut voxels = [VoxelIndex::new(0, 0, 0); RUN_PASS];
    let mut term = [T::default(); RUN_PASS];
    let mut clamps = 0;
    let mut scanlines = tile.iter_scanlines().skip(slots.start);
    for first in slots.clone().step_by(RUN_PASS) {
        let pass = first..(first + RUN_PASS).min(slots.end);
        let n = pass.len();
        for (v, (_, it, ip)) in voxels[..n].iter_mut().zip(scanlines.by_ref()) {
            *v = VoxelIndex::new(it, ip, id);
        }
        terms(&voxels[..n], &mut term[..n]);
        let k = first - slots.start;
        let out = &mut out[k * width..(k + n) * width];
        clamps += rows(&voxels[..n], &term[..n], pass, width, out);
    }
    clamps
}

/// The emit of an `f64` receive leg (EXACT, TABLEFREE, NAIVE) on
/// [`emit_passes`]: each row's staged receive leg — the active entries
/// of its slab row, which the engine's set-up wrote compacted to the
/// row's front — goes through `combine(term, rx)`, the engine's
/// element-wise transmit combine, inside the shared rounding loop
/// ([`quantize_row_clamped`]), one contiguous row per voxel. Returns the
/// call's clamp count.
///
/// # Panics
///
/// Same contract as [`DelayEngine::emit_run`].
#[inline(always)]
pub(crate) fn emit_rows_f64<T: Copy + Default>(
    echo_len: usize,
    slab: &NappeDelays,
    slots: Range<usize>,
    runs: &[Range<usize>],
    out: &mut [i32],
    terms: impl FnMut(&[VoxelIndex], &mut [T]),
    combine: impl Fn(T, f64) -> f64,
) -> u64 {
    emit_passes(
        slab,
        slots,
        runs,
        out,
        terms,
        |_, terms, pass, width, out| {
            let rows = out.chunks_exact_mut(width.max(1)).zip(terms).zip(pass);
            rows.map(|((o, &t), slot)| {
                let rx = &slab.row(slot)[..width];
                quantize_row_clamped(echo_len, rx, o, |x| combine(t, x))
            })
            .sum()
        },
    )
}

/// Compacts one filled receive-leg row to the active aperture in place,
/// `row[k] = row[channels[k]]`, one slice move per run of `runs`
/// (ascending, so each moves left over entries already read); a run
/// already in place, as all of a full aperture is, is not moved.
#[inline]
pub(crate) fn compact_row(row: &mut [f64], runs: &[Range<usize>]) {
    let mut k = 0;
    for run in runs {
        if run.start != k {
            row.copy_within(run.clone(), k);
        }
        k += run.len();
    }
}

/// The shared branch-free rounding loop behind every row method:
/// `out[i] = floor(f(row[i]) + ½)` clamped to `[0, echo_len)` — exactly
/// the default `delay_index_from` arithmetic on `f(row[i])` — returning
/// the clamp count for engines that keep rounding telemetry. `f` is the
/// engine's element-wise transmit combine (the identity for
/// [`DelayEngine::quantize_row`]), inlined so the combine and the
/// rounding are one pass. One definition so the engines cannot drift
/// from each other (or from the scalar rounding stage).
///
/// # Panics
///
/// Panics if `row` and `out` differ in length, or if `echo_len` does not
/// fit an `i32`.
#[inline(always)]
pub(crate) fn quantize_row_clamped(
    echo_len: usize,
    row: &[f64],
    out: &mut [i32],
    f: impl Fn(f64) -> f64,
) -> u64 {
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
    for (o, &x) in out.iter_mut().zip(row) {
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
        let y = f(x) + 0.5;
        let z = y.floor().max(0.0).min(hi);
        clamps += u64::from((y < 0.0) | (y >= lim));
        *o = (z + BIAS).to_bits() as i32;
    }
    clamps
}

/// Test oracle shared by the engines' unit tests: for every transmit of
/// the engine and each of `nappes`, the receive-leg fill plus
/// [`DelayEngine::combine_tx_row`] must reproduce the scalar per-transmit
/// walk ([`NappeDelays::fill_scalar`]) bit for bit over the whole fan,
/// and [`DelayEngine::emit_run`] after [`DelayEngine::begin_emit`] — over
/// the whole slab in one call (several term passes) and in runs of 3
/// rows, on the full aperture and on runs that split element rows and
/// span several — must equal [`DelayEngine::quantize_row`] of each
/// combined row's active entries.
#[cfg(test)]
pub(crate) fn assert_rx_combine_matches_scalar(
    engine: &dyn DelayEngine,
    spec: &usbf_geometry::SystemSpec,
    nappes: &[usize],
) {
    let mut rx = NappeDelays::full(spec);
    let mut emit = NappeDelays::full(spec);
    let mut scalar = NappeDelays::full(spec);
    let n = rx.n_elements();
    let rows = rx.scanline_count();
    let mut combined = vec![0.0; n];
    let mut quantized = vec![0; n];
    let split = [1..n / 2 - 1, n / 2..n / 2 + 1, n / 2 + 3..n];
    for runs in [std::slice::from_ref(&(0..n)), &split[..]] {
        let channels: Vec<usize> = runs.iter().flat_map(Range::clone).collect();
        let width = channels.len();
        let mut whole = vec![0; rows * width];
        let mut by_three = vec![0; rows * width];
        for &id in nappes {
            engine.fill_nappe_rx(id, &mut rx);
            engine.begin_emit(id, runs, &mut emit);
            assert_eq!(rx.nappe(), Some(id));
            assert_eq!(emit.nappe(), Some(id));
            for tx in 0..engine.transmit_count() {
                scalar.fill_scalar(engine, tx, id);
                engine.emit_run(tx, &emit, 0..rows, runs, &mut whole);
                for first in (0..rows).step_by(3) {
                    let run = first..(first + 3).min(rows);
                    let out = &mut by_three[first * width..run.end * width];
                    engine.emit_run(tx, &emit, run, runs, out);
                }
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
                    engine.quantize_row(&combined, &mut quantized);
                    let expected: Vec<i32> = channels.iter().map(|&c| quantized[c]).collect();
                    let row = slot * width..(slot + 1) * width;
                    let what = format!("{} tx {tx} nappe {id} runs {runs:?}", engine.name());
                    assert_eq!(whole[row.clone()], expected, "{what}");
                    assert_eq!(by_three[row], expected, "{what}");
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
        fn begin_emit(&self, nappe_idx: usize, _: &[Range<usize>], slab: &mut NappeDelays) {
            self.fill_nappe_rx(nappe_idx, slab);
        }
        fn emit_run(
            &self,
            _: usize,
            slab: &NappeDelays,
            slots: Range<usize>,
            runs: &[Range<usize>],
            out: &mut [i32],
        ) {
            emit_rows_f64(
                100,
                slab,
                slots,
                runs,
                out,
                |_, t: &mut [()]| t.fill(()),
                |(), x| x,
            );
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
        let clamps = quantize_row_clamped(100, &row, &mut out, |x| x);
        assert_eq!(out, [0, 0, 50, 99, 99]);
        assert_eq!(clamps, 2); // -1.0 and 2e9 fall outside the window
    }

    #[test]
    #[should_panic(expected = "index row must match delay row")]
    fn quantize_row_rejects_length_mismatch() {
        ConstEngine(0.0).quantize_row(&[1.0, 2.0], &mut [0i32; 3]);
    }

    #[test]
    #[should_panic(expected = "emit output must be 2 rows of 7 entries")]
    fn emit_run_rejects_a_ragged_output() {
        let spec = usbf_geometry::SystemSpec::tiny();
        let mut slab = NappeDelays::full(&spec);
        ConstEngine(0.0).begin_emit(3, &[1..4, 9..13], &mut slab);
        ConstEngine(0.0).emit_run(0, &slab, 4..6, &[1..4, 9..13], &mut [0i32; 15]);
    }

    #[test]
    #[should_panic(expected = "within the slab's 64 elements")]
    fn emit_run_rejects_runs_past_the_row() {
        let spec = usbf_geometry::SystemSpec::tiny();
        let mut slab = NappeDelays::full(&spec);
        ConstEngine(0.0).begin_emit(3, std::slice::from_ref(&(0..64)), &mut slab);
        ConstEngine(0.0).emit_run(
            0,
            &slab,
            0..1,
            std::slice::from_ref(&(60..65)),
            &mut [0i32; 5],
        );
    }

    #[test]
    #[should_panic(expected = "set-up slab")]
    fn emit_run_needs_a_set_up_slab() {
        let slab = NappeDelays::full(&usbf_geometry::SystemSpec::tiny());
        ConstEngine(0.0).emit_run(
            0,
            &slab,
            0..1,
            std::slice::from_ref(&(0..8)),
            &mut [0i32; 8],
        );
    }

    #[test]
    fn fused_rounding_counts_clamps_of_the_combined_value() {
        // The combine runs before the rounding: 60 + 50 overruns a
        // 100-sample window although 60 alone does not.
        let row = [-20.0, 10.0, 60.0];
        let mut out = [0i32; 3];
        let clamps = quantize_row_clamped(100, &row, &mut out, |x| x + 50.0);
        assert_eq!(out, [30, 60, 99]);
        assert_eq!(clamps, 1);
    }

    #[test]
    fn default_fill_nappe_combines_every_row_exactly_once() {
        // The receive leg stamps the element slot, the combine adds one
        // per call: each entry ends one above its slot only if its row
        // was combined exactly once, in place.
        struct Slots;
        impl DelayEngine for Slots {
            fn name(&self) -> &'static str {
                "SLOTS"
            }
            fn echo_buffer_len(&self) -> usize {
                100
            }
            fn delay_samples(&self, _: usize, _: VoxelIndex, e: ElementIndex) -> f64 {
                (e.iy * 8 + e.ix) as f64 + 1.0
            }
            fn fill_nappe_rx(&self, nappe_idx: usize, out: &mut NappeDelays) {
                let n = out.n_elements();
                for row in out.begin_fill(nappe_idx).chunks_exact_mut(n) {
                    for (j, x) in row.iter_mut().enumerate() {
                        *x = j as f64;
                    }
                }
            }
            fn combine_tx_row(&self, _: usize, _: VoxelIndex, rx_row: &[f64], out: &mut [f64]) {
                for (o, &x) in out.iter_mut().zip(rx_row) {
                    *o = x + 1.0;
                }
            }
            fn begin_emit(&self, nappe_idx: usize, _: &[Range<usize>], slab: &mut NappeDelays) {
                self.fill_nappe_rx(nappe_idx, slab);
            }
            fn emit_run(
                &self,
                _: usize,
                slab: &NappeDelays,
                slots: Range<usize>,
                runs: &[Range<usize>],
                out: &mut [i32],
            ) {
                let terms = |_: &[VoxelIndex], t: &mut [f64]| t.fill(1.0);
                emit_rows_f64(100, slab, slots, runs, out, terms, |t, x| x + t);
            }
        }
        let spec = usbf_geometry::SystemSpec::tiny();
        let mut slab = NappeDelays::full(&spec);
        let mut scalar = NappeDelays::full(&spec);
        Slots.fill_nappe(3, &mut slab);
        scalar.fill_scalar(&Slots, 0, 3);
        assert_eq!(slab.nappe(), Some(3));
        assert_eq!(slab, scalar);
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
