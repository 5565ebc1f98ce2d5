//! Sampled RF receive data: one echo buffer per element.

use usbf_geometry::ElementIndex;

/// Samples per 64-byte cache line: the step of a window prefetch.
const SAMPLES_PER_LINE: usize = 64 / std::mem::size_of::<f64>();

/// Most cache lines one [`RfFrame::prefetch_window_for`] call requests,
/// so a pathological window cannot turn a hint into a trace-long sweep.
const MAX_PREFETCH_LINES: usize = 32;

/// Issues a prefetch-to-L1 hint for the cache line holding `sample`.
#[inline(always)]
fn prefetch_line(sample: &f64) {
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

/// A frame of receive data: `n_elements` traces of `n_samples` each,
/// sampled at the system's `fs`. Element traces are stored row-major in
/// the transducer's linear order (`iy·nx + ix`).
///
/// A frame may hold the acquisitions of several **transmit events**
/// (coherent plane-wave compounding fires the full aperture once per
/// steering angle and keeps every acquisition until the compound sum):
/// the sample buffer is transmit-major, one full `n_elements ×
/// n_samples` block per transmit. A single-transmit frame
/// ([`RfFrame::zeros`]) is block 0 alone, so every historical accessor
/// keeps its meaning unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct RfFrame {
    data: Vec<f64>,
    nx: usize,
    ny: usize,
    n_samples: usize,
    n_transmits: usize,
    /// Start offset of every channel's trace within one transmit block,
    /// in linear element order — precomputed once so the gather paths
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
            data: vec![0.0; n_transmits * nx * ny * n_samples],
            nx,
            ny,
            n_samples,
            n_transmits,
            bases: (0..nx * ny).map(|l| l * n_samples).collect(),
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
    pub fn trace(&self, e: ElementIndex) -> &[f64] {
        self.trace_for(0, e)
    }

    /// Mutable trace access for transmit 0 (used by the synthesizer).
    pub fn trace_mut(&mut self, e: ElementIndex) -> &mut [f64] {
        self.trace_for_mut(0, e)
    }

    /// One element's trace of transmit event `tx`.
    pub fn trace_for(&self, tx: usize, e: ElementIndex) -> &[f64] {
        let start = self.transmit_base(tx) + self.linear(e) * self.n_samples;
        &self.data[start..start + self.n_samples]
    }

    /// Mutable trace access for transmit event `tx`.
    pub fn trace_for_mut(&mut self, tx: usize, e: ElementIndex) -> &mut [f64] {
        let start = self.transmit_base(tx) + self.linear(e) * self.n_samples;
        &mut self.data[start..start + self.n_samples]
    }

    /// Sample `idx` of element `e` (transmit 0), with out-of-range
    /// indices reading as zero (the hardware clamps fetches to the buffer
    /// window; zero keeps clamped fetches from biasing sums).
    #[inline]
    pub fn sample(&self, e: ElementIndex, idx: i64) -> f64 {
        self.sample_for(0, e, idx)
    }

    /// Sample `idx` of element `e` in transmit block `tx`, with
    /// out-of-range indices reading as zero.
    #[inline]
    pub fn sample_for(&self, tx: usize, e: ElementIndex, idx: i64) -> f64 {
        if idx < 0 || idx >= self.n_samples as i64 {
            return 0.0;
        }
        let l = self.linear(e);
        self.data[self.transmit_base(tx) + l * self.n_samples + idx as usize]
    }

    /// Linearly interpolated fractional-sample read of transmit 0
    /// (extension beyond the paper's nearest-index fetch).
    #[inline]
    pub fn sample_interp(&self, e: ElementIndex, t: f64) -> f64 {
        self.sample_interp_for(0, e, t)
    }

    /// Linearly interpolated fractional-sample read of transmit `tx`.
    #[inline]
    pub fn sample_interp_for(&self, tx: usize, e: ElementIndex, t: f64) -> f64 {
        let i0 = t.floor() as i64;
        let frac = t - i0 as f64;
        self.sample_for(tx, e, i0) * (1.0 - frac) + self.sample_for(tx, e, i0 + 1) * frac
    }

    /// Start offset of every channel's trace in the flat sample buffer,
    /// in linear element order (`iy·nx + ix`) — precomputed at
    /// construction for the gather paths.
    #[inline]
    pub fn channel_bases(&self) -> &[usize] {
        &self.bases
    }

    /// Gathers one nearest-index sample per channel: for each position
    /// `k`, reads sample `indices[k]` of flat channel `channels[k]` into
    /// `out[k]`. Out-of-window indices read as `0.0` through a branchless
    /// in-range mask — the same clamped-fetch semantics as
    /// [`RfFrame::sample`], without its per-fetch channel-offset
    /// recompute or early return. This is the fetch stage of the
    /// beamformer's per-voxel compound kernels.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length or a channel is out of
    /// range.
    #[inline]
    pub fn gather_nearest_into(&self, channels: &[u32], indices: &[i32], out: &mut [f64]) {
        self.gather_nearest_into_for(0, channels, indices, out);
    }

    /// [`gather_nearest_into`](Self::gather_nearest_into) over transmit
    /// block `tx` — the fetch stage of the compound kernel, reading one
    /// steering angle's acquisition. Transmit 0 is bit-identical to the
    /// single-transmit gather (the block offset is zero).
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length or a channel is out of
    /// range.
    #[inline]
    pub fn gather_nearest_into_for(
        &self,
        tx: usize,
        channels: &[u32],
        indices: &[i32],
        out: &mut [f64],
    ) {
        assert_eq!(channels.len(), indices.len(), "one index per channel");
        assert_eq!(channels.len(), out.len(), "one output slot per channel");
        let n = self.n_samples;
        let base = self.transmit_base(tx);
        // Four independent fetch lanes per iteration: each lane is a pure
        // load + select with no cross-lane dependency, so unrolling wides
        // the memory-level parallelism without touching the arithmetic —
        // every lane computes exactly what the scalar loop computes, and
        // no accumulation exists to reassociate, so the unroll is
        // trivially bit-identical.
        let mut oc = out.chunks_exact_mut(4);
        let mut cc = channels.chunks_exact(4);
        let mut ic = indices.chunks_exact(4);
        for ((o, c), i) in (&mut oc).zip(&mut cc).zip(&mut ic) {
            o[0] = self.fetch_nearest(base, c[0], i[0], n);
            o[1] = self.fetch_nearest(base, c[1], i[1], n);
            o[2] = self.fetch_nearest(base, c[2], i[2], n);
            o[3] = self.fetch_nearest(base, c[3], i[3], n);
        }
        for ((o, &c), &i) in oc
            .into_remainder()
            .iter_mut()
            .zip(cc.remainder())
            .zip(ic.remainder())
        {
            *o = self.fetch_nearest(base, c, i, n);
        }
    }

    /// One nearest-index fetch lane of the gather: negative indices wrap
    /// to huge values under the unsigned compare, so one test covers both
    /// window edges; the conditional compiles to a select, not a branch,
    /// and the masked fetch reads the trace head so it never faults.
    #[inline(always)]
    fn fetch_nearest(&self, base: usize, c: u32, i: i32, n: usize) -> f64 {
        let inside = (i as usize) < n;
        let v = self.data[base + self.bases[c as usize] + if inside { i as usize } else { 0 }];
        if inside {
            v
        } else {
            0.0
        }
    }

    /// Gathers one linearly interpolated sample per channel: for each
    /// position `k`, reads the fractional delay `delays[k]` of flat
    /// channel `channels[k]` into `out[k]`, bit-identical to
    /// [`RfFrame::sample_interp`] (same floor/blend arithmetic, same
    /// zero reads outside the window) with the channel offset looked up
    /// once and branchless edge masks.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length or a channel is out of
    /// range.
    #[inline]
    pub fn gather_linear_into(&self, channels: &[u32], delays: &[f64], out: &mut [f64]) {
        self.gather_linear_into_for(0, channels, delays, out);
    }

    /// [`gather_linear_into`](Self::gather_linear_into) over transmit
    /// block `tx`. Transmit 0 is bit-identical to the single-transmit
    /// gather.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length or a channel is out of
    /// range.
    #[inline]
    pub fn gather_linear_into_for(
        &self,
        tx: usize,
        channels: &[u32],
        delays: &[f64],
        out: &mut [f64],
    ) {
        assert_eq!(channels.len(), delays.len(), "one delay per channel");
        assert_eq!(channels.len(), out.len(), "one output slot per channel");
        let n = self.n_samples as u64;
        let tx_base = self.transmit_base(tx);
        // Same 4-lane unroll as the nearest gather: each lane's
        // floor/blend arithmetic is per-element and independent, so the
        // unroll stays bit-identical to the scalar loop.
        let mut oc = out.chunks_exact_mut(4);
        let mut cc = channels.chunks_exact(4);
        let mut dc = delays.chunks_exact(4);
        for ((o, c), t) in (&mut oc).zip(&mut cc).zip(&mut dc) {
            o[0] = self.fetch_linear(tx_base, c[0], t[0], n);
            o[1] = self.fetch_linear(tx_base, c[1], t[1], n);
            o[2] = self.fetch_linear(tx_base, c[2], t[2], n);
            o[3] = self.fetch_linear(tx_base, c[3], t[3], n);
        }
        for ((o, &c), &t) in oc
            .into_remainder()
            .iter_mut()
            .zip(cc.remainder())
            .zip(dc.remainder())
        {
            *o = self.fetch_linear(tx_base, c, t, n);
        }
    }

    /// One linear-interpolation fetch lane: the same floor/blend
    /// arithmetic as [`RfFrame::sample_interp`], with branchless edge
    /// masks on both neighbouring reads.
    #[inline(always)]
    fn fetch_linear(&self, tx_base: usize, c: u32, t: f64, n: u64) -> f64 {
        let base = tx_base + self.bases[c as usize];
        let i0 = t.floor() as i64;
        let frac = t - i0 as f64;
        let in0 = (i0 as u64) < n;
        let in1 = ((i0 + 1) as u64) < n;
        let r0 = self.data[base + if in0 { i0 as usize } else { 0 }];
        let r1 = self.data[base + if in1 { (i0 + 1) as usize } else { 0 }];
        let v0 = if in0 { r0 } else { 0.0 };
        let v1 = if in1 { r1 } else { 0.0 };
        v0 * (1.0 - frac) + v1 * frac
    }

    /// One channel's trace of transmit event `tx`, addressed by flat
    /// channel index (`iy·nx + ix`, the order of
    /// [`channel_bases`](Self::channel_bases)) — the per-channel read side
    /// of the beamformer's voxel-parallel kernel.
    ///
    /// # Panics
    ///
    /// Panics if `tx` or `channel` is out of range.
    #[inline]
    pub fn channel_trace_for(&self, tx: usize, channel: u32) -> &[f64] {
        assert!(tx < self.n_transmits, "transmit {tx} out of range");
        let start = self.transmit_base(tx) + self.bases[channel as usize];
        &self.data[start..start + self.n_samples]
    }

    /// Asks the CPU to pull the samples between indices `a` and `b`
    /// (inclusive, in either order) of flat channel `channel`, transmit
    /// `tx`, into cache ahead of a gather. The window is clipped to the
    /// trace, so a window wholly outside it prefetches nothing, and at
    /// most 32 cache lines (256 samples) from its low end are requested.
    /// A prefetch is only a hint: it never changes what any read returns.
    /// (A no-op on targets other than x86-64.)
    ///
    /// # Panics
    ///
    /// Panics if `tx` or `channel` is out of range.
    #[inline]
    pub fn prefetch_window_for(&self, tx: usize, channel: u32, a: i32, b: i32) {
        let trace = self.channel_trace_for(tx, channel);
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

    /// Sets every sample of every trace to `value` (no reallocation) —
    /// how warm frame buffers are cleared between acquisitions.
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Copies another frame's samples into this one, reusing this
    /// frame's buffer — the handoff a prerecorded frame ring performs
    /// per acquisition.
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
    }

    /// Largest |sample| in the frame.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Total energy (sum of squares).
    pub fn energy(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_independent() {
        let mut rf = RfFrame::zeros(3, 2, 10);
        rf.trace_mut(ElementIndex::new(1, 0))[5] = 2.5;
        assert_eq!(rf.sample(ElementIndex::new(1, 0), 5), 2.5);
        assert_eq!(rf.sample(ElementIndex::new(0, 0), 5), 0.0);
        assert_eq!(rf.sample(ElementIndex::new(1, 1), 5), 0.0);
    }

    #[test]
    fn out_of_range_reads_zero() {
        let rf = RfFrame::zeros(2, 2, 8);
        let e = ElementIndex::new(0, 0);
        assert_eq!(rf.sample(e, -1), 0.0);
        assert_eq!(rf.sample(e, 8), 0.0);
        assert_eq!(rf.sample(e, 7), 0.0);
    }

    #[test]
    fn interpolation_is_linear() {
        let mut rf = RfFrame::zeros(1, 1, 4);
        let e = ElementIndex::new(0, 0);
        rf.trace_mut(e).copy_from_slice(&[0.0, 1.0, 3.0, 0.0]);
        assert_eq!(rf.sample_interp(e, 1.0), 1.0);
        assert!((rf.sample_interp(e, 1.5) - 2.0).abs() < 1e-12);
        assert!((rf.sample_interp(e, 0.25) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn channel_bases_cover_every_trace() {
        let rf = RfFrame::zeros(3, 2, 10);
        assert_eq!(rf.channel_bases(), &[0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn gather_nearest_matches_per_element_sample() {
        let mut rf = RfFrame::zeros(3, 2, 4);
        for (l, e) in [(0, (0, 0)), (2, (2, 0)), (4, (1, 1))] {
            let e = ElementIndex::new(e.0, e.1);
            for (i, v) in rf.trace_mut(e).iter_mut().enumerate() {
                *v = -(l as f64) - i as f64 * 0.25;
            }
        }
        let channels: Vec<u32> = (0..6).collect();
        let indices = [0i32, -1, 3, 4, 2, 1];
        let mut out = [9.0; 6];
        rf.gather_nearest_into(&channels, &indices, &mut out);
        for ((&c, &i), &o) in channels.iter().zip(&indices).zip(&out) {
            let e = ElementIndex::new(c as usize % 3, c as usize / 3);
            assert_eq!(o, rf.sample(e, i as i64), "channel {c} index {i}");
        }
    }

    #[test]
    fn gather_linear_matches_per_element_interp() {
        let mut rf = RfFrame::zeros(2, 2, 4);
        for e in [ElementIndex::new(0, 0), ElementIndex::new(1, 1)] {
            rf.trace_mut(e).copy_from_slice(&[-1.0, 2.0, -3.0, 4.0]);
        }
        let channels = [0u32, 1, 2, 3, 0, 3];
        let delays = [0.5, 1.25, -0.75, 3.5, -2.0, 2.999];
        let mut out = [0.0; 6];
        rf.gather_linear_into(&channels, &delays, &mut out);
        for ((&c, &t), &o) in channels.iter().zip(&delays).zip(&out) {
            let e = ElementIndex::new(c as usize % 2, c as usize / 2);
            assert_eq!(
                o.to_bits(),
                rf.sample_interp(e, t).to_bits(),
                "channel {c} delay {t}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one index per channel")]
    fn gather_rejects_length_mismatch() {
        let rf = RfFrame::zeros(2, 2, 4);
        rf.gather_nearest_into(&[0, 1], &[0], &mut [0.0, 0.0]);
    }

    #[test]
    fn energy_and_max_abs() {
        let mut rf = RfFrame::zeros(1, 2, 3);
        rf.trace_mut(ElementIndex::new(0, 0))
            .copy_from_slice(&[1.0, -2.0, 0.0]);
        assert_eq!(rf.max_abs(), 2.0);
        assert_eq!(rf.energy(), 5.0);
    }

    #[test]
    #[should_panic(expected = "dimensions must be nonzero")]
    fn zero_dimension_rejected() {
        RfFrame::zeros(0, 1, 1);
    }

    #[test]
    fn fill_and_copy_from_reuse_the_buffer() {
        let mut src = RfFrame::zeros(2, 2, 4);
        src.trace_mut(ElementIndex::new(1, 1))
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let mut dst = RfFrame::zeros(2, 2, 4);
        dst.fill(9.0);
        let ptr = dst.trace(ElementIndex::new(0, 0)).as_ptr();
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert_eq!(dst.trace(ElementIndex::new(0, 0)).as_ptr(), ptr);
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
        let mut rf = RfFrame::zeros_multi(2, 2, 4, 3);
        let e = ElementIndex::new(1, 0);
        rf.trace_for_mut(1, e)[2] = 7.5;
        assert_eq!(rf.sample_for(1, e, 2), 7.5);
        assert_eq!(rf.sample_for(0, e, 2), 0.0);
        assert_eq!(rf.sample_for(2, e, 2), 0.0);
        // Transmit 0 is the historical single-transmit view.
        assert_eq!(rf.trace(e), rf.trace_for(0, e));
        assert_eq!(rf.sample(e, 2), rf.sample_for(0, e, 2));
    }

    #[test]
    fn multi_transmit_gathers_read_their_block() {
        let mut rf = RfFrame::zeros_multi(2, 1, 4, 2);
        let e = ElementIndex::new(0, 0);
        rf.trace_for_mut(0, e)
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        rf.trace_for_mut(1, e)
            .copy_from_slice(&[-1.0, -2.0, -3.0, -4.0]);
        let channels = [0u32, 0];
        let mut out = [0.0; 2];
        rf.gather_nearest_into_for(1, &channels, &[1, 3], &mut out);
        assert_eq!(out, [-2.0, -4.0]);
        rf.gather_linear_into_for(1, &channels, &[0.5, 2.0], &mut out);
        assert_eq!(out[0].to_bits(), rf.sample_interp_for(1, e, 0.5).to_bits());
        assert_eq!(out[1], -3.0);
        // The tx-0 gathers match the historical single-transmit gathers.
        let mut a = [0.0; 2];
        let mut b = [0.0; 2];
        rf.gather_nearest_into(&channels, &[0, 2], &mut a);
        rf.gather_nearest_into_for(0, &channels, &[0, 2], &mut b);
        assert_eq!(a, b);
    }

    /// A 3×2-element, 2-transmit, 40-sample frame whose every sample is
    /// distinct, so a gather that read the wrong place would show.
    fn ramp_frame() -> RfFrame {
        let mut rf = RfFrame::zeros_multi(3, 2, 40, 2);
        for tx in 0..2 {
            for l in 0..6 {
                let e = ElementIndex::new(l % 3, l / 3);
                for (i, v) in rf.trace_for_mut(tx, e).iter_mut().enumerate() {
                    *v = (tx * 1000 + l * 100 + i) as f64;
                }
            }
        }
        rf
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
        let channels: Vec<u32> = (0..6).collect();
        let indices = [0i32, 39, 7, -1, 40, 20];
        let delays = [0.5, 38.75, -0.5, 39.5, 12.25, 0.0];
        let gathers = |rf: &RfFrame, tx: usize| {
            let (mut near, mut lin) = ([0.0; 6], [0.0; 6]);
            rf.gather_nearest_into_for(tx, &channels, &indices, &mut near);
            rf.gather_linear_into_for(tx, &channels, &delays, &mut lin);
            (near, lin)
        };
        let before = [gathers(&rf, 0), gathers(&rf, 1)];
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
        assert_eq!(before, [gathers(&rf, 0), gathers(&rf, 1)]);
    }

    #[test]
    fn single_transmit_frames_report_one_transmit() {
        assert_eq!(RfFrame::zeros(2, 2, 4).n_transmits(), 1);
        assert_eq!(RfFrame::zeros_multi(2, 2, 4, 5).n_transmits(), 5);
    }
}
