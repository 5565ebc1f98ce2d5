//! Sampled RF receive data: one echo buffer per element, stored at the
//! acquisition width of a probe front end.

use std::error::Error;
use std::fmt;
use usbf_geometry::ElementIndex;

/// The raw value a frame's largest |sample| maps to: every raw sample
/// lies in `±FULL_SCALE` (so `i16::MIN` never occurs).
pub const FULL_SCALE: i16 = i16::MAX;

/// Samples per 64-byte cache line: the step of a window prefetch.
const SAMPLES_PER_LINE: usize = 64 / std::mem::size_of::<i16>();

/// Most cache lines one [`RfFrame::prefetch_window_for`] call requests,
/// so a pathological window cannot turn a hint into a trace-long sweep.
const MAX_PREFETCH_LINES: usize = 32;

/// Issues a prefetch-to-L1 hint for the cache line holding `sample`.
#[inline(always)]
fn prefetch_line(sample: &i16) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is `unsafe` only because it takes a raw
    // pointer. It never dereferences it architecturally — a prefetch is a
    // hint that cannot fault — and the pointer here comes from a live
    // reference to an in-bounds sample anyway. SSE is part of the x86-64
    // baseline, so the instruction always exists.
    #[allow(unsafe_code)]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(sample).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = sample;
}

/// The value of raw sample `raw` in a frame of scale `scale` — the one
/// definition every per-sample read uses.
#[inline(always)]
fn value(raw: i16, scale: f64) -> f64 {
    f64::from(raw) * scale
}

/// Adding 1.5·2⁵² to a double of magnitude below 2⁵¹ rounds it to an
/// integer (half to even, the default rounding mode) and leaves that
/// integer, two's complement, in the low bits of the sum's pattern.
const ROUND_BIAS: f64 = 6_755_399_441_055_744.0;

/// The raw sample nearest `x` at a nonzero `scale` (a finite `|x|` no
/// larger than the frame's peak): `x / scale` rounded half to even. The
/// rounding reads its integer out of a [`ROUND_BIAS`]ed double rather
/// than a saturating cast, so a loop of these vectorizes.
#[inline(always)]
fn quantize(x: f64, scale: f64) -> i16 {
    let full = f64::from(FULL_SCALE);
    let y = (x / scale).clamp(-full, full);
    (y + ROUND_BIAS).to_bits() as i16
}

/// Why `f64` samples could not become an [`RfFrame`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RfError {
    /// A sample is NaN or infinite: it has no place on a 16-bit scale.
    NonFinite {
        /// Transmit block of the offending sample.
        tx: usize,
        /// Element whose trace holds it.
        element: ElementIndex,
        /// Its index within the trace.
        index: usize,
    },
}

impl fmt::Display for RfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RfError::NonFinite { tx, element, index } => write!(
                f,
                "non-finite RF sample {index} of element {element}, transmit {tx}"
            ),
        }
    }
}

impl Error for RfError {}

/// A frame of receive data: `n_elements` traces of `n_samples` each,
/// sampled at the system's `fs`. Element traces are stored row-major in
/// the transducer's linear order (`iy·nx + ix`).
///
/// Samples are stored as a front end delivers them: 16-bit integers
/// with one `f64` scale per frame, the frame's largest |sample| mapped
/// to ±[`FULL_SCALE`]. A sample's value is `f64::from(raw) · scale`;
/// consumers that sum many raw samples (the beamformer) may instead sum
/// the raw values and apply the scale once per sum. Frames are built
/// from `f64` samples by [`from_traces`](Self::from_traces) or the
/// [`EchoSynthesizer`](crate::EchoSynthesizer), which reject NaN and ±∞
/// with an [`RfError`].
///
/// A frame may hold the acquisitions of several **transmit events**
/// (coherent plane-wave compounding fires the full aperture once per
/// steering angle and keeps every acquisition until the compound sum):
/// the sample buffer is transmit-major, one full `n_elements ×
/// n_samples` block per transmit. A single-transmit frame
/// ([`RfFrame::zeros`]) is block 0 alone, so every historical accessor
/// keeps its meaning unchanged. All blocks share the frame's scale.
///
/// The buffer ends in one pad sample past the last trace, always zero,
/// so every trace has one more `i16` after it in memory
/// ([`Trace::raw_padded`]): a 4-byte vector gather at a trace's last
/// sample stays inside the buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct RfFrame {
    /// Every trace, transmit-major, then the zero pad sample.
    data: Vec<i16>,
    /// The value of one raw step: the frame's peak over [`FULL_SCALE`].
    scale: f64,
    nx: usize,
    ny: usize,
    n_samples: usize,
    n_transmits: usize,
    /// Start offset of every channel's trace within one transmit block,
    /// in linear element order — precomputed once so per-channel reads
    /// never re-derive `linear(e) * n_samples` per fetch.
    bases: Vec<usize>,
}

impl RfFrame {
    /// Allocates a zeroed single-transmit frame for an `nx × ny` probe
    /// with `n_samples` per trace.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros(nx: usize, ny: usize, n_samples: usize) -> Self {
        Self::zeros_multi(nx, ny, n_samples, 1)
    }

    /// Allocates a zeroed frame holding `n_transmits` acquisitions — one
    /// `nx × ny × n_samples` block per transmit event of a compound
    /// sequence.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros_multi(nx: usize, ny: usize, n_samples: usize, n_transmits: usize) -> Self {
        assert!(
            nx > 0 && ny > 0 && n_samples > 0 && n_transmits > 0,
            "dimensions must be nonzero"
        );
        RfFrame {
            data: vec![0; n_transmits * nx * ny * n_samples + 1],
            scale: 0.0,
            nx,
            ny,
            n_samples,
            n_transmits,
            bases: (0..nx * ny).map(|l| l * n_samples).collect(),
        }
    }

    /// Quantizes a frame from `f64` traces: `trace(tx, e, out)` writes
    /// the samples of element `e`'s trace in transmit block `tx` into the
    /// zeroed `out`, once per trace, transmit-major and in linear element
    /// order. The traces are staged at full width, then the frame's
    /// largest |sample| sets its scale.
    ///
    /// # Errors
    ///
    /// [`RfError::NonFinite`] for the first NaN or ±∞ sample.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn from_traces(
        nx: usize,
        ny: usize,
        n_samples: usize,
        n_transmits: usize,
        mut trace: impl FnMut(usize, ElementIndex, &mut [f64]),
    ) -> Result<Self, RfError> {
        let mut rf = Self::zeros_multi(nx, ny, n_samples, n_transmits);
        let mut samples = vec![0.0; rf.samples().len()];
        let mut peak = 0.0f64;
        for (k, out) in samples.chunks_exact_mut(n_samples).enumerate() {
            let (tx, e) = rf.trace_at(k);
            trace(tx, e, out);
            peak = peak.max(trace_peak(tx, e, out)?);
        }
        rf.store_frame(peak, &samples);
        Ok(rf)
    }

    /// The (transmit, element) of the `k`-th trace in storage order.
    fn trace_at(&self, k: usize) -> (usize, ElementIndex) {
        let l = k % self.n_elements();
        (
            k / self.n_elements(),
            ElementIndex::new(l % self.nx, l / self.nx),
        )
    }

    /// Sets the scale for a frame whose largest |sample| is `peak` — the
    /// first half of quantizing a frame, before its traces are stored
    /// with [`store_trace`](Self::store_trace).
    pub(crate) fn set_peak(&mut self, peak: f64) {
        debug_assert!(peak.is_finite() && peak >= 0.0, "peak {peak}");
        self.scale = peak / f64::from(FULL_SCALE);
    }

    /// Quantizes a whole frame staged at full width — `staged` holds
    /// every trace in storage order, finite, with largest |sample|
    /// `peak`.
    pub(crate) fn store_frame(&mut self, peak: f64, staged: &[f64]) {
        debug_assert_eq!(staged.len(), self.samples().len());
        self.set_peak(peak);
        for (k, trace) in staged.chunks_exact(self.n_samples).enumerate() {
            let (tx, e) = self.trace_at(k);
            self.store_trace(tx, e, trace);
        }
    }

    /// Quantizes `samples` (finite, no larger than the peak given to
    /// [`set_peak`](Self::set_peak)) into element `e`'s trace of
    /// transmit block `tx`.
    pub(crate) fn store_trace(&mut self, tx: usize, e: ElementIndex, samples: &[f64]) {
        let scale = self.scale;
        let start = self.transmit_base(tx) + self.linear(e) * self.n_samples;
        let raw = &mut self.data[start..start + self.n_samples];
        // Echo traces are mostly silence between pulses, and the division
        // is the loop's cost: a line of ±0 (every line of a zero-scale
        // frame) is stored without it.
        let lines = raw.chunks_mut(SAMPLES_PER_LINE);
        for (r, x) in lines.zip(samples.chunks(SAMPLES_PER_LINE)) {
            if x.iter().fold(0, |any, v| any | v.to_bits() << 1) == 0 {
                r.fill(0);
                continue;
            }
            for (r, &x) in r.iter_mut().zip(x) {
                *r = quantize(x, scale);
            }
        }
    }

    /// Number of element traces.
    #[inline]
    pub fn n_elements(&self) -> usize {
        self.nx * self.ny
    }

    /// Element-grid width (probe `nx`).
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Element-grid height (probe `ny`).
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Samples per trace (the echo-buffer depth).
    #[inline]
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Transmit acquisitions held by this frame (1 for the classic
    /// single-emission frame).
    #[inline]
    pub fn n_transmits(&self) -> usize {
        self.n_transmits
    }

    /// The value of one raw step: the frame's largest |sample| over
    /// [`FULL_SCALE`] (0 for an all-zero frame).
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Bytes of sample storage the frame holds (its traces; the one pad
    /// sample is not counted).
    #[inline]
    pub fn sample_bytes(&self) -> usize {
        std::mem::size_of_val(self.samples())
    }

    /// Every trace's raw samples, without the pad.
    #[inline]
    fn samples(&self) -> &[i16] {
        &self.data[..self.data.len() - 1]
    }

    /// Flat-sample offset of transmit block `tx`.
    #[inline]
    fn transmit_base(&self, tx: usize) -> usize {
        debug_assert!(tx < self.n_transmits, "transmit {tx} out of range");
        tx * self.nx * self.ny * self.n_samples
    }

    #[inline]
    fn linear(&self, e: ElementIndex) -> usize {
        debug_assert!(e.ix < self.nx && e.iy < self.ny, "element {e} out of range");
        e.iy * self.nx + e.ix
    }

    /// One element's full trace (transmit 0).
    pub fn trace(&self, e: ElementIndex) -> Trace<'_> {
        self.trace_for(0, e)
    }

    /// One element's trace of transmit event `tx`.
    pub fn trace_for(&self, tx: usize, e: ElementIndex) -> Trace<'_> {
        self.trace_at_offset(self.transmit_base(tx) + self.linear(e) * self.n_samples)
    }

    /// The trace starting at flat sample `start`, with the one sample
    /// after it.
    #[inline]
    fn trace_at_offset(&self, start: usize) -> Trace<'_> {
        Trace {
            padded: &self.data[start..=start + self.n_samples],
            scale: self.scale,
        }
    }

    /// Start offset of every channel's trace in the flat sample buffer,
    /// in linear element order (`iy·nx + ix`) — precomputed at
    /// construction for the per-channel trace reads.
    #[inline]
    pub fn channel_bases(&self) -> &[usize] {
        &self.bases
    }

    /// One channel's trace of transmit event `tx`, addressed by flat
    /// channel index (`iy·nx + ix`, the order of
    /// [`channel_bases`](Self::channel_bases)) — the per-channel read side
    /// of the beamformer's voxel-parallel kernel, which sums its
    /// [`raw`](Trace::raw) samples.
    ///
    /// # Panics
    ///
    /// Panics if `tx` or `channel` is out of range.
    #[inline]
    pub fn channel_trace_for(&self, tx: usize, channel: u32) -> Trace<'_> {
        assert!(tx < self.n_transmits, "transmit {tx} out of range");
        self.trace_at_offset(self.transmit_base(tx) + self.bases[channel as usize])
    }

    /// Asks the CPU to pull the samples between indices `a` and `b`
    /// (inclusive, in either order) of flat channel `channel`, transmit
    /// `tx`, into cache ahead of its reads. The window is clipped to the
    /// trace, so a window wholly outside it prefetches nothing, and at
    /// most 32 cache lines (1024 samples) from its low end are requested.
    /// A prefetch is only a hint: it never changes what any read returns.
    /// (A no-op on targets other than x86-64.)
    ///
    /// # Panics
    ///
    /// Panics if `tx` or `channel` is out of range.
    #[inline]
    pub fn prefetch_window_for(&self, tx: usize, channel: u32, a: i32, b: i32) {
        let trace = self.channel_trace_for(tx, channel).raw();
        let (lo, hi) = (i64::from(a.min(b)).max(0), i64::from(a.max(b)));
        let hi = hi.min(trace.len() as i64 - 1);
        if lo > hi {
            return;
        }
        let window = &trace[lo as usize..=hi as usize];
        // Chunk starts lie one line apart, so they touch every line from
        // the window's first up to one short of its last; the last sample
        // covers that final line.
        for line in window.chunks(SAMPLES_PER_LINE).take(MAX_PREFETCH_LINES) {
            prefetch_line(&line[0]);
        }
        if window.len() <= MAX_PREFETCH_LINES * SAMPLES_PER_LINE {
            prefetch_line(&window[window.len() - 1]);
        }
    }

    /// Sets every sample of every trace to `value` (no reallocation):
    /// each raw sample becomes ±[`FULL_SCALE`] (or 0), and the scale
    /// `|value| / FULL_SCALE`.
    ///
    /// # Errors
    ///
    /// [`RfError::NonFinite`] naming the frame's first sample (index 0 of
    /// element (0, 0), transmit 0) if `value` is NaN or ±∞; the frame is
    /// left untouched.
    pub fn fill(&mut self, value: f64) -> Result<(), RfError> {
        if !value.is_finite() {
            return Err(RfError::NonFinite {
                tx: 0,
                element: ElementIndex::new(0, 0),
                index: 0,
            });
        }
        self.set_peak(value.abs());
        let raw = if value == 0.0 {
            0
        } else {
            quantize(value, self.scale)
        };
        let pad = self.data.len() - 1;
        self.data[..pad].fill(raw);
        Ok(())
    }

    /// Copies another frame's samples and scale into this one, reusing
    /// this frame's buffer — the handoff a prerecorded frame ring
    /// performs per acquisition.
    ///
    /// # Panics
    ///
    /// Panics if the two frames' dimensions differ.
    pub fn copy_from(&mut self, src: &RfFrame) {
        assert!(
            self.nx == src.nx
                && self.ny == src.ny
                && self.n_samples == src.n_samples
                && self.n_transmits == src.n_transmits,
            "frame shapes must match: {}x{}x{}x{} vs {}x{}x{}x{}",
            self.n_transmits,
            self.nx,
            self.ny,
            self.n_samples,
            src.n_transmits,
            src.nx,
            src.ny,
            src.n_samples
        );
        self.data.copy_from_slice(&src.data);
        self.scale = src.scale;
    }

    /// Largest |sample| in the frame.
    pub fn max_abs(&self) -> f64 {
        let peak = self.samples().iter().map(|r| r.unsigned_abs()).max();
        peak.map_or(0.0, |p| f64::from(p) * self.scale)
    }

    /// Total energy (sum of squares).
    pub fn energy(&self) -> f64 {
        self.samples()
            .iter()
            .map(|&r| value(r, self.scale).powi(2))
            .sum()
    }
}

/// Largest |sample| of element `e`'s trace of transmit `tx`, or the
/// first NaN or ±∞ sample as an error.
pub(crate) fn trace_peak(tx: usize, e: ElementIndex, samples: &[f64]) -> Result<f64, RfError> {
    // |x|'s bit pattern orders finite doubles by magnitude, with ±∞ and
    // NaN above them all, so one integer max (which vectorizes) finds
    // both the peak and whether any sample is out of place.
    let top = samples.iter().fold(0u64, |m, x| m.max(x.abs().to_bits()));
    if top < f64::INFINITY.to_bits() {
        return Ok(f64::from_bits(top));
    }
    let index = samples.iter().position(|x| !x.is_finite());
    Err(RfError::NonFinite {
        tx,
        element: e,
        index: index.expect("a sample above the finite range"),
    })
}

/// A read-only view of one trace of an [`RfFrame`]: its raw samples and
/// the frame's scale. Iterating it yields sample values
/// (`f64::from(raw) · scale`). Two views are equal when their samples
/// and scales are.
#[derive(Debug, Clone, Copy)]
pub struct Trace<'a> {
    /// The trace's samples, then the one `i16` that follows them in the
    /// frame's buffer.
    padded: &'a [i16],
    scale: f64,
}

impl PartialEq for Trace<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.raw() == other.raw() && self.scale == other.scale
    }
}

impl<'a> Trace<'a> {
    /// The raw 16-bit samples.
    #[inline]
    pub fn raw(&self) -> &'a [i16] {
        &self.padded[..self.padded.len() - 1]
    }

    /// The raw samples followed by the one `i16` after them in the
    /// frame's buffer — the next trace's first sample, or the frame's
    /// zero pad after its last trace: `len() + 1` samples, so a 4-byte
    /// load at the last sample stays in bounds. Its last entry is not a
    /// sample of this trace.
    #[inline]
    pub fn raw_padded(&self) -> &'a [i16] {
        self.padded
    }

    /// Samples in the trace.
    #[inline]
    pub fn len(&self) -> usize {
        self.padded.len() - 1
    }

    /// `true` for a trace of no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raw sample `i` as an unscaled value, or `0.0` outside the trace
    /// (the hardware clamps fetches to the buffer window; zero keeps
    /// clamped fetches from biasing sums). The sample's value is this
    /// times the frame's [`scale`](RfFrame::scale).
    #[inline]
    pub fn raw_at(&self, i: i64) -> f64 {
        usize::try_from(i)
            .ok()
            .and_then(|i| self.raw().get(i))
            .map_or(0.0, |&r| f64::from(r))
    }

    /// The linearly interpolated raw read at fractional index `t` —
    /// `raw_at(⌊t⌋)·(1 − f) + raw_at(⌊t⌋ + 1)·f` with `f = t − ⌊t⌋`, an
    /// extension beyond the paper's nearest-index fetch. Unscaled, like
    /// [`raw_at`](Self::raw_at).
    #[inline]
    pub fn raw_interp(&self, t: f64) -> f64 {
        let i0 = t.floor() as i64;
        let frac = t - i0 as f64;
        self.raw_at(i0) * (1.0 - frac) + self.raw_at(i0 + 1) * frac
    }

    /// The sample values, in order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        let scale = self.scale;
        self.raw().iter().map(move |&r| value(r, scale))
    }

    /// The sample values, collected.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `true` when `read` is within half a raw step (`scale / 2`) of the
    /// `input` it was quantized from, up to the rounding of the read's
    /// own product.
    fn near(read: f64, input: f64, scale: f64) -> bool {
        (read - input).abs() <= scale / 2.0 + 2.0 * f64::EPSILON * input.abs()
    }

    /// The value of sample `i` of element `e`'s trace of transmit `tx`
    /// (`0.0` outside the trace).
    fn at(rf: &RfFrame, tx: usize, e: ElementIndex, i: i64) -> f64 {
        rf.trace_for(tx, e).raw_at(i) * rf.scale()
    }

    /// A frame whose traces `f` writes, quantized.
    fn frame(
        nx: usize,
        ny: usize,
        n: usize,
        n_tx: usize,
        f: impl FnMut(usize, ElementIndex, &mut [f64]),
    ) -> RfFrame {
        RfFrame::from_traces(nx, ny, n, n_tx, f).expect("finite samples")
    }

    #[test]
    fn traces_are_independent() {
        let target = ElementIndex::new(1, 0);
        let rf = frame(3, 2, 10, 1, |_, e, t| {
            if e == target {
                t[5] = 2.5;
            }
        });
        assert_eq!(rf.trace(target).raw()[5], FULL_SCALE);
        assert!(near(at(&rf, 0, target, 5), 2.5, rf.scale()));
        assert_eq!(at(&rf, 0, ElementIndex::new(0, 0), 5), 0.0);
        assert_eq!(at(&rf, 0, ElementIndex::new(1, 1), 5), 0.0);
    }

    #[test]
    fn out_of_range_reads_zero() {
        let rf = frame(2, 2, 8, 1, |_, _, t| t.fill(1.0));
        let e = ElementIndex::new(0, 0);
        assert_eq!(rf.trace(e).raw_at(-1), 0.0);
        assert_eq!(rf.trace(e).raw_at(8), 0.0);
        assert_eq!(rf.trace(e).raw_at(7), f64::from(FULL_SCALE));
        assert!(near(at(&rf, 0, e, 7), 1.0, rf.scale()));
    }

    #[test]
    fn interpolation_is_linear() {
        let e = ElementIndex::new(0, 0);
        let rf = frame(1, 1, 4, 1, |_, _, t| {
            t.copy_from_slice(&[0.0, 1.0, 3.0, 0.0])
        });
        let trace = rf.trace(e);
        let (one, three) = (trace.raw_at(1), trace.raw_at(2));
        assert!(near(one * rf.scale(), 1.0, rf.scale()));
        assert!(near(three * rf.scale(), 3.0, rf.scale()));
        assert_eq!(trace.raw_interp(1.0), one);
        assert_eq!(trace.raw_interp(1.5), (one + three) / 2.0);
        assert_eq!(trace.raw_interp(0.25), one / 4.0);
        assert_eq!(trace.raw_interp(3.5), 0.0);
        assert_eq!(trace.raw_interp(-0.5), 0.0);
    }

    #[test]
    fn channel_bases_cover_every_trace() {
        let rf = RfFrame::zeros(3, 2, 10);
        assert_eq!(rf.channel_bases(), &[0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn energy_and_max_abs() {
        let rf = frame(1, 2, 3, 1, |_, e, t| {
            if e == ElementIndex::new(0, 0) {
                t.copy_from_slice(&[1.0, -2.0, 0.0]);
            }
        });
        assert!(near(rf.max_abs(), 2.0, rf.scale()));
        assert_eq!(
            rf.trace(ElementIndex::new(0, 0)).raw(),
            &[16384, -FULL_SCALE, 0]
        );
        assert!((rf.energy() - 5.0).abs() < 2.0 * rf.scale());
    }

    #[test]
    fn every_trace_has_one_sample_after_it() {
        let mut rf = ramp_frame();
        rf.fill(-3.0).unwrap();
        let rf = rf;
        let last = rf.channel_trace_for(1, 5);
        assert_eq!(last.raw_padded().len(), 41);
        assert_eq!(last.raw_padded()[..40], *last.raw());
        assert_eq!(last.raw_padded()[40], 0, "the frame's pad stays zero");
        let first = rf.channel_trace_for(0, 0);
        assert_eq!(first.raw_padded()[40], rf.channel_trace_for(0, 1).raw()[0]);
        assert_eq!(rf.sample_bytes(), 2 * 6 * 40 * 2, "the pad is not a sample");
    }

    #[test]
    fn a_frame_is_a_sixteen_bit_buffer() {
        let rf = RfFrame::zeros_multi(32, 32, 8192, 1);
        assert_eq!(rf.sample_bytes(), 32 * 32 * 8192 * 2);
    }

    #[test]
    #[should_panic(expected = "dimensions must be nonzero")]
    fn zero_dimension_rejected() {
        RfFrame::zeros(0, 1, 1);
    }

    #[test]
    fn all_zero_frames_read_zero_everywhere() {
        for rf in [
            RfFrame::zeros_multi(2, 3, 16, 2),
            frame(2, 3, 16, 2, |_, _, _| ()),
            frame(2, 3, 16, 2, |_, _, t| t.fill(-0.0)),
        ] {
            assert_eq!(rf.scale(), 0.0);
            assert_eq!(rf.max_abs(), 0.0);
            for tx in 0..2 {
                for c in 0..6 {
                    let trace = rf.channel_trace_for(tx, c);
                    assert!(trace.iter().all(|v| v.to_bits() == 0));
                    let e = ElementIndex::new(c as usize % 2, c as usize / 2);
                    for i in -2..18 {
                        assert_eq!(at(&rf, tx, e, i).to_bits(), 0);
                        let read = rf.trace_for(tx, e).raw_interp(i as f64 + 0.5);
                        assert_eq!(read.to_bits(), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn non_finite_samples_are_rejected_with_their_place() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = RfFrame::from_traces(3, 2, 8, 2, |tx, e, t| {
                t.fill(0.25);
                if tx == 1 && e == ElementIndex::new(2, 1) {
                    t[6] = bad;
                }
            })
            .expect_err("a non-finite sample has no 16-bit value");
            assert_eq!(
                err,
                RfError::NonFinite {
                    tx: 1,
                    element: ElementIndex::new(2, 1),
                    index: 6
                }
            );
            assert!(err.to_string().contains("non-finite"));
        }
    }

    #[test]
    fn fill_rejects_non_finite_values() {
        let src = frame(2, 2, 4, 1, |_, _, t| t.fill(0.5));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut rf = src.clone();
            assert_eq!(
                rf.fill(bad),
                Err(RfError::NonFinite {
                    tx: 0,
                    element: ElementIndex::new(0, 0),
                    index: 0
                })
            );
            assert_eq!(rf, src, "a rejected fill leaves the frame untouched");
            assert_eq!(rf.scale().to_bits(), src.scale().to_bits());
        }
    }

    #[test]
    fn fill_and_copy_from_reuse_the_buffer() {
        let src = frame(2, 2, 4, 1, |_, e, t| {
            if e == ElementIndex::new(1, 1) {
                t.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
            }
        });
        let mut dst = RfFrame::zeros(2, 2, 4);
        dst.fill(-9.0).unwrap();
        assert_eq!(dst.trace(ElementIndex::new(0, 1)).raw(), &[-FULL_SCALE; 4]);
        assert!(dst
            .trace(ElementIndex::new(0, 1))
            .iter()
            .all(|v| near(v, -9.0, dst.scale())));
        let ptr = dst.trace(ElementIndex::new(0, 0)).raw().as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.scale().to_bits(), src.scale().to_bits());
        assert_eq!(dst.trace(ElementIndex::new(0, 0)).raw().as_ptr(), ptr);
    }

    #[test]
    #[should_panic(expected = "frame shapes must match")]
    fn copy_from_rejects_shape_mismatch() {
        let src = RfFrame::zeros(2, 2, 4);
        RfFrame::zeros(2, 2, 5).copy_from(&src);
    }

    #[test]
    #[should_panic(expected = "frame shapes must match")]
    fn copy_from_rejects_transmit_count_mismatch() {
        let src = RfFrame::zeros_multi(2, 2, 4, 3);
        RfFrame::zeros_multi(2, 2, 4, 2).copy_from(&src);
    }

    #[test]
    fn transmit_blocks_are_independent() {
        let e = ElementIndex::new(1, 0);
        let rf = frame(2, 2, 4, 3, |tx, el, t| {
            if tx == 1 && el == e {
                t[2] = 7.5;
            }
        });
        assert!(near(at(&rf, 1, e, 2), 7.5, rf.scale()));
        assert_eq!(at(&rf, 0, e, 2), 0.0);
        assert_eq!(at(&rf, 2, e, 2), 0.0);
        // Transmit 0 is the historical single-transmit view.
        assert_eq!(rf.trace(e), rf.trace_for(0, e));
    }

    /// A 3×2-element, 2-transmit, 40-sample frame whose every sample is
    /// distinct, so a read of the wrong place would show.
    fn ramp_frame() -> RfFrame {
        frame(3, 2, 40, 2, |tx, e, t| {
            let l = e.iy * 3 + e.ix;
            for (i, v) in t.iter_mut().enumerate() {
                *v = (tx * 1000 + l * 100 + i) as f64;
            }
        })
    }

    #[test]
    fn channel_trace_matches_element_trace_in_every_block() {
        let rf = ramp_frame();
        for tx in 0..2 {
            for c in 0..6u32 {
                let e = ElementIndex::new(c as usize % 3, c as usize / 3);
                assert_eq!(rf.channel_trace_for(tx, c), rf.trace_for(tx, e));
            }
        }
    }

    #[test]
    fn trace_views_yield_the_sample_values() {
        let rf = ramp_frame();
        let e = ElementIndex::new(2, 1);
        let trace = rf.trace_for(1, e);
        assert_eq!(trace.len(), 40);
        assert!(!trace.is_empty());
        let values = trace.to_vec();
        for (i, &v) in values.iter().enumerate() {
            let raw = f64::from(trace.raw()[i]);
            assert_eq!(trace.raw_at(i as i64), raw);
            assert_eq!(v.to_bits(), (raw * rf.scale()).to_bits());
        }
        assert_eq!(trace.iter().len(), 40);
    }

    #[test]
    #[should_panic(expected = "transmit 2 out of range")]
    fn channel_trace_rejects_missing_transmit() {
        ramp_frame().channel_trace_for(2, 0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn prefetch_rejects_missing_channel() {
        ramp_frame().prefetch_window_for(0, 6, 0, 3);
    }

    #[test]
    fn prefetch_accepts_any_window_and_changes_no_read() {
        let rf = ramp_frame();
        let indices = [0i64, 39, 7, -1, 40, 20];
        let delays = [0.5, 38.75, -0.5, 39.5, 12.25, 0.0];
        let reads = |rf: &RfFrame, tx: usize| -> Vec<(f64, f64)> {
            (0..6)
                .map(|l| {
                    let e = ElementIndex::new(l % 3, l / 3);
                    let trace = rf.trace_for(tx, e);
                    (trace.raw_at(indices[l]), trace.raw_interp(delays[l]))
                })
                .collect()
        };
        let before = [reads(&rf, 0), reads(&rf, 1)];
        let windows = [
            (3, 17),              // inside the trace
            (-25, 4),             // crosses the start
            (30, 90),             // crosses the end
            (-5, 60),             // covers the whole trace
            (33, 2),              // reversed
            (-9, -1),             // empty: wholly before the start
            (40, 41),             // empty: wholly past the end
            (7, 7),               // one sample
            (i32::MIN, i32::MAX), // extreme
        ];
        for tx in 0..2 {
            for c in 0..6 {
                for (a, b) in windows {
                    rf.prefetch_window_for(tx, c, a, b);
                }
            }
        }
        // A window longer than the line cap is clipped, not rejected.
        let long = RfFrame::zeros(1, 1, 4096);
        long.prefetch_window_for(0, 0, 0, 4095);
        assert_eq!(before, [reads(&rf, 0), reads(&rf, 1)]);
    }

    #[test]
    fn single_transmit_frames_report_one_transmit() {
        assert_eq!(RfFrame::zeros(2, 2, 4).n_transmits(), 1);
        assert_eq!(RfFrame::zeros_multi(2, 2, 4, 5).n_transmits(), 5);
    }
}
