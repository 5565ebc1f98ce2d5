//! Fixed-point coefficient LUTs: the hardware-faithful PWL evaluation.
//!
//! Fig. 2(a) of the paper stores per-segment `c1` (slope) and `c0`
//! (intercept) coefficients in small LUTs; the datapath computes
//! `√α ≈ c1·α + c0` with one multiplier and one adder. This module
//! quantizes a [`PwlApprox`] into such LUTs and models the datapath
//! arithmetic bit-exactly.

use crate::{Concave, PwlApprox, SqrtFn, TrackerStats};
use usbf_fixed::{Fixed, FixedError, QFormat, RoundingMode};

/// Fixed-point formats of the PWL datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LutFormats {
    /// Format of the `c1` slope LUT entries.
    pub slope: QFormat,
    /// Format of the `c0` intercept LUT entries.
    pub intercept: QFormat,
    /// Format of the argument register (squared distance in samples²).
    pub argument: QFormat,
    /// Format of the multiplier output register.
    pub accumulator: QFormat,
    /// Format of the result register (delay in samples).
    pub output: QFormat,
}

impl LutFormats {
    /// The defaults used for the paper-scale system: 30 fractional slope
    /// bits (the product `α·Δc1` stays ≪ δ for α up to ~2²⁵), signed 14.6
    /// intercepts, integer 25-bit arguments, and a u13.5 output matching
    /// the TABLESTEER reference format.
    pub fn paper_default() -> Self {
        LutFormats {
            slope: QFormat::unsigned(0, 30),
            intercept: QFormat::signed(14, 6),
            argument: QFormat::unsigned(25, 0),
            accumulator: QFormat::signed(15, 8),
            output: QFormat::unsigned(13, 5),
        }
    }

    /// Picks formats that fit a given table: widens the slope/intercept
    /// integer parts to hold the table's extremes while keeping the
    /// default fractional precision.
    pub fn fitted_to(table: &PwlApprox) -> Self {
        let mut max_slope = 0.0f64;
        let mut max_icept = 0.0f64;
        for s in table.segments() {
            max_slope = max_slope.max(s.slope.abs());
            max_icept = max_icept.max(s.intercept.abs());
        }
        let slope_int = if max_slope < 1.0 {
            0
        } else {
            (max_slope.log2().floor() as u32) + 1
        };
        let icept_int = (max_icept.max(1.0).log2().floor() as u32) + 2;
        let (_, hi) = table.domain();
        let arg_int = (hi.max(1.0).log2().floor() as u32) + 1;
        let out_max = hi.sqrt();
        let out_int = (out_max.max(1.0).log2().floor() as u32) + 1;
        LutFormats {
            slope: QFormat::unsigned(slope_int, 30),
            intercept: QFormat::signed(icept_int, 6),
            argument: QFormat::unsigned(arg_int, 0),
            accumulator: QFormat::signed(out_int + 2, 8),
            output: QFormat::unsigned(out_int, 5),
        }
    }
}

/// A PWL table with coefficients quantized to fixed point, evaluated with
/// the bit-true datapath of Fig. 2.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedPwl {
    boundaries: Vec<f64>,
    slopes: Vec<Fixed>,
    intercepts: Vec<Fixed>,
    formats: LutFormats,
    /// The row datapath's constants, resolved once from `formats`.
    kernel: RowKernel,
}

impl QuantizedPwl {
    /// Quantizes every segment of `table` into the given formats.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`FixedError`] if any coefficient overflows
    /// its format.
    pub fn quantize(table: &PwlApprox, formats: LutFormats) -> Result<Self, FixedError> {
        let mut boundaries = Vec::with_capacity(table.segment_count() + 1);
        let mut slopes = Vec::with_capacity(table.segment_count());
        let mut intercepts = Vec::with_capacity(table.segment_count());
        for s in table.segments() {
            boundaries.push(s.x0);
            slopes.push(Fixed::from_f64(
                s.slope,
                formats.slope,
                RoundingMode::Nearest,
            )?);
            intercepts.push(Fixed::from_f64(
                s.intercept,
                formats.intercept,
                RoundingMode::Nearest,
            )?);
        }
        boundaries.push(table.domain().1);
        Ok(QuantizedPwl {
            boundaries,
            slopes,
            intercepts,
            kernel: RowKernel::new(&formats),
            formats,
        })
    }

    /// Number of segments.
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.slopes.len()
    }

    /// The datapath formats.
    #[inline]
    pub fn formats(&self) -> &LutFormats {
        &self.formats
    }

    /// Segment index containing `x` (clamped at the ends), by binary
    /// search.
    pub fn locate(&self, x: f64) -> usize {
        let n = self.segment_count();
        match self.boundaries[..n]
            .binary_search_by(|b| b.partial_cmp(&x).expect("finite boundaries"))
        {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// Bit-true evaluation using segment `idx`: quantize α, one fixed-point
    /// multiply into the accumulator, one full-width add of `c0`, then a
    /// final rounding into the output register. Saturates (as hardware
    /// registers do) instead of failing.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn eval_at(&self, idx: usize, x: f64) -> f64 {
        let arg = Fixed::saturating_from_f64(x, self.formats.argument, RoundingMode::Nearest);
        let prod = match arg.mul_into(
            self.slopes[idx],
            self.formats.accumulator,
            RoundingMode::HalfUp,
        ) {
            Ok(p) => p,
            Err(_) => Fixed::saturating_from_f64(
                arg.to_f64() * self.slopes[idx].to_f64(),
                self.formats.accumulator,
                RoundingMode::HalfUp,
            ),
        };
        let sum = prod.wide_add(self.intercepts[idx]);
        Fixed::saturating_from_f64(sum.to_f64(), self.formats.output, RoundingMode::HalfUp).to_f64()
    }

    /// Locate + evaluate.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        self.eval_at(self.locate(x), x)
    }

    /// Segment index containing `x`, found by walking from `hint` — the
    /// §IV-B tracking policy ("transitions across segments are gradual, so
    /// no search is needed"). Returns exactly what [`QuantizedPwl::locate`]
    /// returns, in O(steps) instead of O(log n) when arguments drift
    /// slowly, as a nappe-major sweep produces.
    pub fn locate_from(&self, hint: usize, x: f64) -> usize {
        let n = self.segment_count();
        let mut i = hint.min(n - 1);
        while i > 0 && x < self.boundaries[i] {
            i -= 1;
        }
        while i + 1 < n && x >= self.boundaries[i + 1] {
            i += 1;
        }
        i
    }

    /// Tracked locate + evaluate: walks the segment pointer from `*hint`,
    /// stores the found segment back into it, and evaluates there.
    /// Bit-identical to [`QuantizedPwl::eval`].
    #[inline]
    pub fn eval_tracked(&self, hint: &mut usize, x: f64) -> f64 {
        *hint = self.locate_from(*hint, x);
        self.eval_at(*hint, x)
    }

    /// Evaluates a whole row of arguments segment-major: walks the
    /// segment pointer from `*hint` exactly like per-element
    /// [`QuantizedPwl::eval_tracked`] calls would, but fetches each
    /// segment's `(c1, c0)` coefficients **once per contiguous span** of
    /// arguments instead of once per element, and runs the span through a
    /// branch-free fixed-point multiply-add and saturating quantize.
    ///
    /// Bit-identical to calling `eval_tracked(hint, x)` for every element
    /// in order — same [`Fixed`] rounding at every stage, same final
    /// pointer in `*hint` — and the returned [`TrackerStats`] match what
    /// a [`crate::TrackingEvaluator`]-style per-element step count would
    /// accumulate: `evals = xs.len()`, `steps`/`max_step` from the
    /// pointer movements (elements inside a span move the pointer by 0),
    /// and `seeks = 0` (tracking never searches).
    ///
    /// Arguments must not be NaN (the scalar datapath rejects NaN with a
    /// panic; the batched kernel's behaviour on NaN is unspecified).
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `out` have different lengths.
    pub fn eval_row_tracked(&self, hint: &mut usize, xs: &[f64], out: &mut [f64]) -> TrackerStats {
        assert_eq!(xs.len(), out.len(), "argument/output rows must match");
        let n = self.segment_count();
        let mut stats = TrackerStats {
            evals: xs.len() as u64,
            ..TrackerStats::default()
        };
        let mut cur = (*hint).min(n - 1);
        let mut i = 0;
        while i < xs.len() {
            let target = self.locate_from(cur, xs[i]);
            let moved = (target as i64 - cur as i64).unsigned_abs();
            stats.steps += moved;
            stats.max_step = stats.max_step.max(moved);
            cur = target;
            // The span stays on segment `cur` exactly while
            // `locate_from(cur, x) == cur`: at the table ends the pointer
            // clamps, so the matching boundary check drops away.
            let lo = if cur == 0 {
                f64::NEG_INFINITY
            } else {
                self.boundaries[cur]
            };
            let hi = if cur + 1 == n {
                f64::INFINITY
            } else {
                self.boundaries[cur + 1]
            };
            let start = i;
            i += 1;
            while i < xs.len() && xs[i] >= lo && xs[i] < hi {
                i += 1;
            }
            self.eval_span(cur, hi, &xs[start..i], &mut out[start..i]);
        }
        *hint = cur;
        stats
    }

    /// Segment-major row evaluation starting from a binary-search seek on
    /// the first element — bit-identical to per-element
    /// [`QuantizedPwl::eval`].
    pub fn eval_row(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "argument/output rows must match");
        if xs.is_empty() {
            return;
        }
        let mut hint = self.locate(xs[0]);
        self.eval_row_tracked(&mut hint, xs, out);
    }

    /// Evaluates one contiguous span of arguments that all live on segment
    /// `idx`, with the coefficients fetched once. Bit-identical to calling
    /// [`QuantizedPwl::eval_at`] per element.
    fn eval_span(&self, idx: usize, hi: f64, xs: &[f64], out: &mut [f64]) {
        let k = &self.kernel;
        if !k.fast {
            for (o, &x) in out.iter_mut().zip(xs) {
                *o = self.eval_at(idx, x);
            }
            return;
        }
        let slope_raw = self.slopes[idx].raw();
        let icept_shifted = self.intercepts[idx].raw() << k.sh_icept;
        if k.vec {
            // Overflow is decided once per span, not per element: every
            // span element satisfies `x < hi` (the segment's upper
            // boundary; +∞ on the last segment, where the argument
            // register saturates anyway), the argument register is
            // non-negative, and the accumulator is monotone in it
            // (non-negative slope, rounded rescale, truncation). If even
            // the span's largest possible accumulator fits, no element
            // needs the saturating fallback and the whole span runs
            // branch-free.
            let t_max = if hi.is_finite() {
                ((hi + 0.5) as i64).min(k.arg_max_raw).max(0)
            } else {
                k.arg_max_raw
            };
            let acc_span_max = ((t_max * slope_raw) as f64 * k.mul_inv + 0.5) as i64;
            if acc_span_max <= k.acc_max_raw {
                // The same datapath as the checked loop below, run
                // entirely in IEEE doubles (exact under the `vec` format
                // gate): straight-line floor/trunc/min/select ops that
                // the compiler auto-vectorizes, no i64↔f64 round trips.
                let slope_f = slope_raw as f64;
                let icept_f = icept_shifted as f64;
                let arg_max_f = k.arg_max_raw as f64;
                for (o, &x) in out.iter_mut().zip(xs) {
                    let r = (x + 0.5).floor().min(arg_max_f);
                    let t = if x < 0.5 { 0.0 } else { r };
                    let acc = (t * slope_f * k.mul_inv + 0.5).trunc();
                    let sum = acc * k.acc_scale + icept_f;
                    let w = (sum * k.sum_res) * k.out_scale + 0.5;
                    let raw = if w < 1.0 {
                        0.0
                    } else if w >= k.out_max_f {
                        k.out_max_f
                    } else {
                        w.trunc()
                    };
                    *o = raw * k.out_res;
                }
                return;
            }
        }
        for (o, &x) in out.iter_mut().zip(xs) {
            // Argument register: Nearest-rounded integer quantize with
            // saturation. The `x < 0.5` guard keeps values that round to
            // zero (including 0.49999999999999994, where `x + 0.5`
            // float-rounds up to 1.0) off the add; the cast saturates
            // huge and infinite x before the clamp.
            let t = if x < 0.5 { 0 } else { (x + 0.5) as i64 };
            let t = t.min(k.arg_max_raw);
            // Multiplier → accumulator register: exact integer product,
            // rescaled through f64 exactly like `mul_into`'s division
            // path, HalfUp-rounded (the product is non-negative, so
            // `floor` is a truncating cast).
            let prod = t * slope_raw;
            let acc_raw = (prod as f64 * k.mul_inv + 0.5) as i64;
            if acc_raw > k.acc_max_raw {
                // Accumulator overflow: the scalar path re-quantizes with
                // saturation. Rare and cold — delegate to the scalar.
                *o = self.eval_at(idx, x);
                continue;
            }
            // Full-width adder, then HalfUp into the output register with
            // a saturating compare-select (`floor(w) ≤ 0 ⟺ w < 1`,
            // `floor(w) ≥ max ⟺ w ≥ max` for integer max).
            let sum_raw = (acc_raw << k.sh_acc) + icept_shifted;
            let w = (sum_raw as f64 * k.sum_res) * k.out_scale + 0.5;
            let raw = if w < 1.0 {
                0
            } else if w >= k.out_max_f {
                k.out_max_raw
            } else {
                w as i64
            };
            *o = raw as f64 * k.out_res;
        }
    }

    /// Total LUT storage in bits: boundaries (argument format) + slopes +
    /// intercepts — "a few LUTs" in the paper's words.
    pub fn storage_bits(&self) -> u64 {
        let n = self.segment_count() as u64;
        n * (self.formats.argument.total_bits() as u64
            + self.formats.slope.total_bits() as u64
            + self.formats.intercept.total_bits() as u64)
    }

    /// Upper bound on the *extra* error introduced by quantization on top
    /// of the PWL error: `α_max·½LSB(c1) + ½LSB(c0) + ½LSB(out)`.
    pub fn quantization_error_bound(&self) -> f64 {
        let alpha_max = *self.boundaries.last().expect("non-empty table");
        alpha_max * self.formats.slope.resolution() / 2.0
            + self.formats.intercept.resolution() / 2.0
            + self.formats.output.resolution() / 2.0
    }

    /// Maximum |quantized eval − √x| over `n` uniform samples — the
    /// end-to-end fixed-point accuracy probe of §VI-A.
    pub fn max_error_sampled(&self, n: usize) -> f64 {
        assert!(n >= 2);
        let lo = self.boundaries[0];
        let hi = *self.boundaries.last().expect("non-empty");
        let mut max = 0.0f64;
        for i in 0..n {
            let x = lo + (hi - lo) * i as f64 / (n as f64 - 1.0);
            max = max.max((self.eval(x) - SqrtFn.eval(x)).abs());
        }
        max
    }
}

/// Per-row constants of the batched datapath (see [`RowKernel::new`]).
#[derive(Debug, Clone, PartialEq)]
struct RowKernel {
    /// Whether the formats admit the libm-free fast span kernel.
    fast: bool,
    /// Whether they additionally admit the all-f64 vector span kernel.
    vec: bool,
    /// Saturation bound of the argument register.
    arg_max_raw: i64,
    /// Exact reciprocal `2^-shift` of the multiplier's rescale divisor.
    mul_inv: f64,
    /// Saturation bound of the accumulator register.
    acc_max_raw: i64,
    /// Left shift aligning the accumulator raw into the sum format.
    sh_acc: u32,
    /// The same shift as an exact power-of-two factor (vector path only).
    acc_scale: f64,
    /// Left shift aligning the intercept raw into the sum format.
    sh_icept: u32,
    /// Resolution of the full-width sum format.
    sum_res: f64,
    /// `2^frac` of the output register.
    out_scale: f64,
    /// Saturation bound of the output register.
    out_max_raw: i64,
    /// The same bound as f64 (exact: ≤ 52 bits on the fast path).
    out_max_f: f64,
    /// Resolution of the output register.
    out_res: f64,
}

impl RowKernel {
    /// Resolves the constants of the row datapath: everything in
    /// [`QuantizedPwl::eval_at`] that depends only on the formats, hoisted
    /// out of the element loop — once per table, at quantization.
    fn new(formats: &LutFormats) -> RowKernel {
        let arg = formats.argument;
        let slope = formats.slope;
        let acc = formats.accumulator;
        let icept = formats.intercept;
        let output = formats.output;
        let sum = QFormat::sum_format(acc, icept);
        let shift = (arg.frac_bits() + slope.frac_bits()) as i32 - acc.frac_bits() as i32;
        // The libm-free fast kernel replicates the scalar rounding only
        // under these conditions (all hold for the paper's formats and
        // every `fitted_to` output):
        //  * integer unsigned argument ≤ 52 bits — `round(x)` reduces to
        //    the guarded `(x + 0.5) as i64` (exact: x + 0.5 is exactly
        //    representable for 0.5 ≤ x < 2^52, and `max_raw as f64` is);
        //  * unsigned slope with arg·slope ≤ 62 bits — the product fits
        //    i64 and is non-negative, so HalfUp's `floor` is a plain
        //    truncating cast;
        //  * positive multiplier shift — the accumulator rescale is the
        //    float division path, reproduced by multiplying with the
        //    exact reciprocal `2^-shift`;
        //  * unsigned output ≤ 52 bits — the saturating compare-select
        //    works on exactly-representable bounds.
        let fast = !arg.is_signed()
            && arg.frac_bits() == 0
            && arg.total_bits() <= 52
            && !slope.is_signed()
            && arg.total_bits() + slope.total_bits() <= 62
            && shift > 0
            && !output.is_signed()
            && output.total_bits() <= 52;
        // The branch-free *vector* kernel additionally runs the integer
        // registers as IEEE doubles, which is bit-exact only while every
        // raw value stays exactly representable: a ≤52-bit slope makes
        // the f64 product of two exact factors round identically to the
        // exact integer product, and a ≤52-bit sum format makes the
        // accumulator truncation, the power-of-two alignments and the
        // aligned add all exact.
        let vec = fast && slope.total_bits() <= 52 && sum.total_bits() <= 52;
        let sh_acc = sum.frac_bits() - acc.frac_bits();
        RowKernel {
            fast,
            vec,
            arg_max_raw: arg.max_raw(),
            mul_inv: (-shift as f64).exp2(),
            acc_max_raw: acc.max_raw(),
            sh_acc,
            acc_scale: if vec { (1u64 << sh_acc) as f64 } else { 0.0 },
            sh_icept: sum.frac_bits() - icept.frac_bits(),
            sum_res: sum.resolution(),
            out_scale: (output.frac_bits() as f64).exp2(),
            out_max_raw: output.max_raw(),
            out_max_f: output.max_raw() as f64,
            out_res: output.resolution(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PwlApprox;

    fn table() -> PwlApprox {
        PwlApprox::build(&SqrtFn, (64.0, 16.0e6), 0.25).unwrap()
    }

    #[test]
    fn quantize_succeeds_with_defaults() {
        let q = QuantizedPwl::quantize(&table(), LutFormats::paper_default()).unwrap();
        assert_eq!(q.segment_count(), table().segment_count());
    }

    #[test]
    fn quantized_error_stays_near_delta() {
        let q = QuantizedPwl::quantize(&table(), LutFormats::paper_default()).unwrap();
        let bound = 0.25 + q.quantization_error_bound();
        let max = q.max_error_sampled(50_000);
        assert!(max <= bound + 1e-9, "max = {max}, bound = {bound}");
        // And quantization cost is small versus δ.
        assert!(q.quantization_error_bound() < 0.1);
    }

    #[test]
    fn fitted_formats_cover_table() {
        let t = PwlApprox::build(&SqrtFn, (1.0, 1e4), 0.1).unwrap();
        let f = LutFormats::fitted_to(&t);
        let q = QuantizedPwl::quantize(&t, f).unwrap();
        assert!(q.max_error_sampled(10_000) < 0.1 + q.quantization_error_bound() + 1e-9);
    }

    #[test]
    fn locate_matches_float_table() {
        let t = table();
        let q = QuantizedPwl::quantize(&t, LutFormats::paper_default()).unwrap();
        for i in 0..1000 {
            let x = 64.0 + (16.0e6 - 64.0) * i as f64 / 999.0;
            assert_eq!(q.locate(x), t.locate(x), "x = {x}");
        }
    }

    #[test]
    fn locate_from_any_hint_matches_binary_search() {
        let q = QuantizedPwl::quantize(&table(), LutFormats::paper_default()).unwrap();
        let n = q.segment_count();
        for i in 0..2000 {
            let x = 64.0 + (16.0e6 - 64.0) * i as f64 / 1999.0;
            let expected = q.locate(x);
            for hint in [0, n / 2, n - 1, expected] {
                assert_eq!(q.locate_from(hint, x), expected, "x = {x}, hint = {hint}");
            }
        }
        // Out-of-domain arguments clamp exactly like binary search.
        assert_eq!(q.locate_from(n - 1, 1.0), q.locate(1.0));
        assert_eq!(q.locate_from(0, 1e12), q.locate(1e12));
    }

    #[test]
    fn eval_tracked_is_bit_identical_to_eval() {
        let q = QuantizedPwl::quantize(&table(), LutFormats::paper_default()).unwrap();
        let mut hint = 0usize;
        // A drifting argument stream, as one element's unit sees per nappe.
        for i in 0..5000 {
            let x = 64.0 + (16.0e6 - 64.0) * (i as f64 / 4999.0).powi(2);
            assert_eq!(q.eval_tracked(&mut hint, x).to_bits(), q.eval(x).to_bits());
        }
    }

    #[test]
    fn eval_saturates_out_of_range() {
        let q = QuantizedPwl::quantize(&table(), LutFormats::paper_default()).unwrap();
        // Far beyond the domain: output register saturates, no panic.
        let y = q.eval_at(q.segment_count() - 1, 1e12);
        assert!(y <= QFormat::unsigned(13, 5).max_value());
    }

    #[test]
    fn storage_is_a_few_kilobits() {
        // ~70 segments × (25 + 30 + 21) bits ≈ 5.3 kb: "a few LUTs".
        let q = QuantizedPwl::quantize(&table(), LutFormats::paper_default()).unwrap();
        let bits = q.storage_bits();
        assert!(bits < 20_000, "bits = {bits}");
        assert!(bits > 1_000);
    }

    /// A drifting argument stream with out-of-domain excursions at both
    /// ends, exercising every saturation edge of the row kernel.
    fn edge_stream() -> Vec<f64> {
        let mut xs = Vec::new();
        for i in 0..4000 {
            let x = 64.0 + (16.0e6 - 64.0) * (i as f64 / 3999.0).powi(2);
            xs.push(x);
        }
        xs.extend([0.0, 0.25, 0.49999999999999994, 0.5, 1.0, 63.9]);
        xs.extend([16.0e6, 1e9, 1e12, f64::INFINITY, 5e5, 100.0]);
        xs
    }

    #[test]
    fn eval_row_tracked_bit_identical_to_scalar_eval_tracked() {
        let q = QuantizedPwl::quantize(&table(), LutFormats::paper_default()).unwrap();
        let xs = edge_stream();
        for start_hint in [0usize, 10, q.segment_count() - 1, usize::MAX] {
            let mut scalar_hint = start_hint;
            let expected: Vec<f64> = xs
                .iter()
                .map(|&x| q.eval_tracked(&mut scalar_hint, x))
                .collect();
            let mut row_hint = start_hint;
            let mut got = vec![0.0; xs.len()];
            q.eval_row_tracked(&mut row_hint, &xs, &mut got);
            for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                assert_eq!(g.to_bits(), e.to_bits(), "element {i}, x = {}", xs[i]);
            }
            assert_eq!(row_hint, scalar_hint, "final pointer, hint {start_hint}");
        }
    }

    #[test]
    fn eval_row_tracked_telemetry_matches_per_element_tracking() {
        let q = QuantizedPwl::quantize(&table(), LutFormats::paper_default()).unwrap();
        let xs = edge_stream();
        let n = q.segment_count();
        for start_hint in [0usize, n / 2, n - 1] {
            // Per-element reference: what a chain of locate_from calls
            // moves the pointer by.
            let mut cur = start_hint.min(n - 1);
            let mut expected = TrackerStats {
                evals: xs.len() as u64,
                ..TrackerStats::default()
            };
            for &x in &xs {
                let target = q.locate_from(cur, x);
                let moved = (target as i64 - cur as i64).unsigned_abs();
                expected.steps += moved;
                expected.max_step = expected.max_step.max(moved);
                cur = target;
            }
            let mut hint = start_hint;
            let mut out = vec![0.0; xs.len()];
            let got = q.eval_row_tracked(&mut hint, &xs, &mut out);
            assert_eq!(got, expected, "hint {start_hint}");
            assert_eq!(got.seeks, 0);
        }
    }

    #[test]
    fn eval_row_bit_identical_to_per_element_eval() {
        let q = QuantizedPwl::quantize(&table(), LutFormats::paper_default()).unwrap();
        let xs = edge_stream();
        let mut got = vec![0.0; xs.len()];
        q.eval_row(&xs, &mut got);
        for (i, (&g, &x)) in got.iter().zip(&xs).enumerate() {
            assert_eq!(g.to_bits(), q.eval(x).to_bits(), "element {i}, x = {x}");
        }
    }

    #[test]
    fn eval_row_generic_fallback_formats_stay_bit_identical() {
        // Formats the fast kernel refuses (fractional argument bits,
        // signed output): the generic span path must still match the
        // scalar datapath bit for bit.
        let t = table();
        let mut formats = LutFormats::paper_default();
        formats.argument = QFormat::unsigned(25, 2);
        formats.output = QFormat::signed(13, 5);
        let q = QuantizedPwl::quantize(&t, formats).unwrap();
        let xs = edge_stream();
        let mut scalar_hint = 0usize;
        let mut row_hint = 0usize;
        let expected: Vec<f64> = xs
            .iter()
            .map(|&x| q.eval_tracked(&mut scalar_hint, x))
            .collect();
        let mut got = vec![0.0; xs.len()];
        q.eval_row_tracked(&mut row_hint, &xs, &mut got);
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(g.to_bits(), e.to_bits(), "element {i}, x = {}", xs[i]);
        }
        assert_eq!(row_hint, scalar_hint);
    }

    #[test]
    fn paper_and_fitted_formats_take_the_vector_span_kernel() {
        // The perf claim rides on the all-f64 vector path: the paper's
        // formats (and any fitted_to output) must pass both gates, or
        // the fill silently degrades to the checked scalar loop.
        let t = table();
        for formats in [LutFormats::paper_default(), LutFormats::fitted_to(&t)] {
            let q = QuantizedPwl::quantize(&t, formats).unwrap();
            let k = &q.kernel;
            assert!(k.fast && k.vec, "formats {formats:?} left the vector path");
        }
    }

    #[test]
    fn eval_row_wide_slope_format_uses_checked_loop_bit_identically() {
        // A 53-bit slope passes the fast gate (arg 9 + slope 53 = 62)
        // but not the vector gate: the checked integer loop must carry
        // the span bit-identically to the scalar datapath.
        let t = PwlApprox::build(&SqrtFn, (64.0, 500.0), 0.25).unwrap();
        let mut formats = LutFormats::fitted_to(&t);
        formats.slope = QFormat::unsigned(0, 53);
        let q = QuantizedPwl::quantize(&t, formats).unwrap();
        assert!(q.kernel.fast && !q.kernel.vec);
        let xs: Vec<f64> = (0..500)
            .map(|i| 64.0 + 436.0 * (i as f64 / 499.0))
            .chain([0.0, 63.9, 500.0, 1e9, f64::INFINITY, 80.0])
            .collect();
        let mut got = vec![0.0; xs.len()];
        q.eval_row(&xs, &mut got);
        for (i, (&g, &x)) in got.iter().zip(&xs).enumerate() {
            assert_eq!(g.to_bits(), q.eval(x).to_bits(), "element {i}, x = {x}");
        }
    }

    #[test]
    fn eval_row_accumulator_overflow_spans_fall_back_bit_identically() {
        // A deliberately narrow accumulator: the span precheck must
        // refuse the vector loop wherever any element could overflow,
        // and the checked loop's per-element fallback must saturate
        // exactly like the scalar datapath.
        let t = table();
        let mut formats = LutFormats::fitted_to(&t);
        formats.accumulator = QFormat::signed(4, 8);
        let q = QuantizedPwl::quantize(&t, formats).unwrap();
        assert!(q.kernel.vec, "gate is format-only; overflow is per span");
        let xs = edge_stream();
        let mut scalar_hint = 0usize;
        let mut row_hint = 0usize;
        let expected: Vec<f64> = xs
            .iter()
            .map(|&x| q.eval_tracked(&mut scalar_hint, x))
            .collect();
        let mut got = vec![0.0; xs.len()];
        q.eval_row_tracked(&mut row_hint, &xs, &mut got);
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(g.to_bits(), e.to_bits(), "element {i}, x = {}", xs[i]);
        }
        assert_eq!(row_hint, scalar_hint);
    }

    #[test]
    fn eval_row_empty_is_a_no_op() {
        let q = QuantizedPwl::quantize(&table(), LutFormats::paper_default()).unwrap();
        q.eval_row(&[], &mut []);
        let mut hint = 3usize;
        let stats = q.eval_row_tracked(&mut hint, &[], &mut []);
        assert_eq!(hint, 3);
        assert_eq!(stats, TrackerStats::default());
    }

    #[test]
    #[should_panic(expected = "argument/output rows must match")]
    fn eval_row_rejects_mismatched_lengths() {
        let q = QuantizedPwl::quantize(&table(), LutFormats::paper_default()).unwrap();
        q.eval_row(&[100.0, 200.0], &mut [0.0]);
    }

    #[test]
    fn narrow_slope_format_overflows() {
        let t = PwlApprox::build(&SqrtFn, (0.01, 10.0), 0.05).unwrap();
        // Slope near x=0.01 is 1/(2·0.1) = 5 — does not fit u0.30.
        let err = QuantizedPwl::quantize(&t, LutFormats::paper_default());
        assert!(err.is_err());
    }
}
