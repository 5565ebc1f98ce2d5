//! Fixed-point coefficient LUTs: the hardware-faithful PWL evaluation.
//!
//! Fig. 2(a) of the paper stores per-segment `c1` (slope) and `c0`
//! (intercept) coefficients in small LUTs; the datapath computes
//! `√α ≈ c1·α + c0` with one multiplier and one adder. This module
//! quantizes a [`PwlApprox`] into such LUTs and models the datapath
//! arithmetic bit-exactly.

use crate::{Concave, PwlApprox, SqrtFn};
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
    /// Per segment, the vector row kernel's folded coefficients; `None`
    /// where the formats or the segment fail its exactness gates.
    lanes: Vec<Option<Lane>>,
}

/// Widest segment range the vector row kernel selects among. A mid-size
/// receive row touches at most 7 segments; wider rows are split.
const WINDOW_MAX: usize = 8;

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
        let kernel = RowKernel::new(&formats);
        let n = slopes.len();
        let lanes = (0..n)
            .map(|s| {
                // The last segment also takes every argument past the
                // domain, up to the argument register's maximum.
                let hi = if s + 1 == n {
                    f64::INFINITY
                } else {
                    boundaries[s + 1]
                };
                kernel.lane(slopes[s].raw(), intercepts[s].raw(), hi)
            })
            .collect();
        Ok(QuantizedPwl {
            boundaries,
            slopes,
            intercepts,
            formats,
            kernel,
            lanes,
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
    /// slowly.
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

    /// Evaluates a whole row of arguments, bit-identical to calling
    /// [`QuantizedPwl::eval`] per element: a one-row
    /// [`QuantizedPwl::eval_grid`] whose range comes from one vectorized
    /// reduction over the row.
    ///
    /// Arguments must not be NaN (the scalar datapath rejects NaN with a
    /// panic; the row kernel's behaviour on NaN is unspecified).
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `out` have different lengths.
    pub fn eval_row(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "argument/output rows must match");
        // `(x + 0.0) + 0.0` is x except that −0.0 becomes +0.0, which
        // lands on the same segment and the same argument register.
        self.eval_grid(xs, &[0.0], 0.0, 0.0, out);
    }

    /// Evaluates the separable argument grid of §IV-B — the squared
    /// distance assembled from per-column and per-row partial sums with
    /// two adders, `α = (cols[c] + rows[r]) + offset` — and adds `add` to
    /// each result, the datapath's final adder: row-major,
    /// `out[r · cols.len() + c] = eval(α) + add`, bit-identical to those
    /// scalar expressions.
    ///
    /// Rounding is monotone, so `(min cols + min rows) + offset` and
    /// `(max cols + max rows) + offset` are the grid's exact extreme
    /// arguments. They fix the few consecutive segments it can touch.
    /// When those segments pass the vector gates, every element picks
    /// its `(c₁, c₀)` by compare-select against the boundaries inside
    /// that range and runs the folded datapath — one branch-free pass
    /// that builds the argument, evaluates and adds, whatever the order
    /// of the arguments. Grids touching more than 8 segments
    /// are split by rows; formats outside the vector gate, segments that
    /// fail its overflow gate and single rows that are still too wide
    /// take the checked integer or scalar datapath per element.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != cols.len() · rows.len()`.
    pub fn eval_grid(&self, cols: &[f64], rows: &[f64], offset: f64, add: f64, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            cols.len() * rows.len(),
            "argument/output rows must match"
        );
        if out.is_empty() {
            return;
        }
        let ((c_lo, c_hi), (r_lo, r_hi)) = (bounds(cols), bounds(rows));
        let (lo, hi) = ((c_lo + r_lo) + offset, (c_hi + r_hi) + offset);
        // The vector kernel needs every argument inside the argument
        // register's range, where rounding it never saturates.
        if 0.0 <= lo && hi <= self.kernel.arg_max_f {
            let (first, last) = (self.locate(lo), self.locate(hi));
            let width = last - first + 1;
            if width <= WINDOW_MAX && self.lanes[first..=last].iter().all(Option::is_some) {
                let grid = Grid {
                    cols,
                    rows,
                    offset,
                    add,
                };
                return match width {
                    1 => Window::<1>::new(self, first, width).eval(&self.kernel, grid, out),
                    2 => Window::<2>::new(self, first, width).eval(&self.kernel, grid, out),
                    3 | 4 => Window::<4>::new(self, first, width).eval(&self.kernel, grid, out),
                    _ => {
                        Window::<WINDOW_MAX>::new(self, first, width).eval(&self.kernel, grid, out)
                    }
                };
            }
            if width > WINDOW_MAX && self.kernel.vec && rows.len() > 1 {
                let (rows_a, rows_b) = rows.split_at(rows.len() / 2);
                let (out_a, out_b) = out.split_at_mut(rows_a.len() * cols.len());
                self.eval_grid(cols, rows_a, offset, add, out_a);
                self.eval_grid(cols, rows_b, offset, add, out_b);
                return;
            }
        }
        // The per-element tiers: the segment pointer walks from element
        // to element (only NaNs leave no range; the scalar datapath
        // reports them).
        let mut idx = 0;
        for (out_r, &r) in out.chunks_exact_mut(cols.len()).zip(rows) {
            for (o, &c) in out_r.iter_mut().zip(cols) {
                let x = (c + r) + offset;
                idx = self.locate_from(idx, x);
                *o = self.eval_checked(idx, x) + add;
            }
        }
    }

    /// [`QuantizedPwl::eval_at`] through the libm-free checked integer
    /// datapath where the formats allow it (the fast gate).
    fn eval_checked(&self, idx: usize, x: f64) -> f64 {
        let k = &self.kernel;
        if !k.fast {
            return self.eval_at(idx, x);
        }
        // Argument register: Nearest-rounded integer quantize with
        // saturation. The `x < 0.5` guard keeps values that round to zero
        // (including 0.49999999999999994, where `x + 0.5` float-rounds up
        // to 1.0) off the add; the cast saturates huge and infinite x
        // before the clamp.
        let t = if x < 0.5 { 0 } else { (x + 0.5) as i64 };
        let t = t.min(k.arg_max_raw);
        // Multiplier → accumulator register: exact integer product,
        // rescaled through f64 exactly like `mul_into`'s division path,
        // HalfUp-rounded (the product is non-negative, so `floor` is a
        // truncating cast).
        let prod = t * self.slopes[idx].raw();
        let acc_raw = (prod as f64 * k.mul_inv + 0.5) as i64;
        if acc_raw > k.acc_max_raw {
            // Accumulator overflow: the scalar path re-quantizes with
            // saturation. Rare and cold — delegate to the scalar.
            return self.eval_at(idx, x);
        }
        // Full-width adder, then HalfUp into the output register with a
        // saturating compare-select (`floor(w) ≤ 0 ⟺ w < 1`,
        // `floor(w) ≥ max ⟺ w ≥ max` for integer max).
        let sum_raw = (acc_raw << k.sh_acc) + (self.intercepts[idx].raw() << k.sh_icept);
        let w = (sum_raw as f64 * k.sum_res) * k.out_scale + 0.5;
        let raw = if w < 1.0 {
            0
        } else if w >= k.out_max_f {
            k.out_max_raw
        } else {
            w as i64
        };
        raw as f64 * k.out_res
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

/// Smallest and largest of `xs` (NaN-free input). Compares run on the
/// IEEE total-order keys: a signed-integer min/max the compiler
/// vectorizes, where f64 compare-select reductions stay scalar.
fn bounds(xs: &[f64]) -> (f64, f64) {
    // The key is an involution: it maps keys back to values too.
    let key = |x: u64| (x ^ (((x as i64 >> 63) as u64) >> 1)) as i64;
    let (mut lo, mut hi) = (i64::MAX, i64::MIN);
    for &x in xs {
        let k = key(x.to_bits());
        lo = lo.min(k);
        hi = hi.max(k);
    }
    (
        f64::from_bits(key(lo as u64) as u64),
        f64::from_bits(key(hi as u64) as u64),
    )
}

/// The arguments and final add of [`QuantizedPwl::eval_grid`].
#[derive(Clone, Copy)]
struct Grid<'a> {
    cols: &'a [f64],
    rows: &'a [f64],
    offset: f64,
    add: f64,
}

/// `0.5⁻`, the largest double below ½. For `x ≥ 0`, `trunc(x + 0.5⁻)`
/// is `round(x)` (half away from zero); `floor(x + 0.5)` is not, because
/// `0.49999999999999994 + 0.5` rounds up to 1.0.
const HALF_DOWN: f64 = 0.49999999999999994;

/// The vector row kernel's registers for the `width ≤ K` consecutive
/// segments from `first`: slot `j` holds segment `first + j` from its
/// lower boundary on. Slots past the range repeat its last segment
/// behind a +∞ boundary that no argument reaches; slot 0's boundary is
/// never compared.
struct Window<const K: usize> {
    lo: [f64; K],
    slope: [f64; K],
    icept: [f64; K],
}

impl<const K: usize> Window<K> {
    fn new(q: &QuantizedPwl, first: usize, width: usize) -> Self {
        let mut w = Window {
            lo: [f64::INFINITY; K],
            slope: [0.0; K],
            icept: [0.0; K],
        };
        for j in 0..K {
            let s = first + j.min(width - 1);
            let lane = q.lanes[s].expect("window segments pass the vector gate");
            w.slope[j] = lane.slope;
            w.icept[j] = lane.icept;
            if j < width {
                w.lo[j] = q.boundaries[s];
            }
        }
        w
    }

    /// Runs the grid through the folded datapath, bit-identical to
    /// [`QuantizedPwl::eval_at`] on each element's segment plus `add`:
    /// every argument lies inside the window by construction.
    fn eval(&self, k: &RowKernel, g: Grid<'_>, out: &mut [f64]) {
        let (acc_out, out_max, out_res) = (k.acc_out, k.out_max_f, k.out_res);
        for (out_r, &r) in out.chunks_exact_mut(g.cols.len()).zip(g.rows) {
            for (o, &c) in out_r.iter_mut().zip(g.cols) {
                let x = (c + r) + g.offset;
                // Segment choice: the last boundary at or below x wins,
                // exactly as `locate` picks.
                let (mut m, mut b) = (self.slope[0], self.icept[0]);
                for j in 1..K {
                    if x >= self.lo[j] {
                        m = self.slope[j];
                        b = self.icept[j];
                    }
                }
                // Argument register: round half away (x lies inside the
                // register's range, so it never saturates).
                let t = (x + HALF_DOWN).trunc();
                // Multiplier → accumulator, HalfUp (non-negative, so
                // `trunc` is `floor`); the rescale is folded into `m`.
                let acc = (t * m + 0.5).trunc();
                // Adder → output register, HalfUp with `c₀ + ½` folded
                // into `b`: `acc · 2^(out − acc)` is exact, so the fused
                // multiply-add rounds once, like the scalar sum.
                // `acc` and `b` are non-negative, so only the upper
                // saturation bound can bind.
                let w = acc.mul_add(acc_out, b);
                let w = if w < out_max { w } else { out_max };
                // The output scale is a power of two: exact product,
                // one rounding in the final adder.
                *o = w.trunc().mul_add(out_res, g.add);
            }
        }
    }
}

/// One segment's coefficients folded for the vector row kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Lane {
    /// `c₁ · 2^-shift`: the slope with the multiplier's rescale applied.
    slope: f64,
    /// `c₀` aligned to the output register's scale, plus ½.
    icept: f64,
}

/// Per-table constants of the row datapath (see [`RowKernel::new`]).
#[derive(Debug, Clone, PartialEq)]
struct RowKernel {
    /// Whether the formats admit the libm-free checked integer datapath.
    fast: bool,
    /// Whether they additionally admit the all-f64 vector row kernel.
    vec: bool,
    /// Saturation bound of the argument register.
    arg_max_raw: i64,
    /// The same bound as f64 (exact: ≤ 52 bits on the fast path).
    arg_max_f: f64,
    /// Exact reciprocal `2^-shift` of the multiplier's rescale divisor.
    mul_inv: f64,
    /// Saturation bound of the accumulator register.
    acc_max_raw: i64,
    /// Left shift aligning the accumulator raw into the sum format.
    sh_acc: u32,
    /// Left shift aligning the intercept raw into the sum format.
    sh_icept: u32,
    /// Resolution of the full-width sum format.
    sum_res: f64,
    /// `2^frac` of the output register.
    out_scale: f64,
    /// Exponent taking an intercept raw to the output register's scale.
    icept_to_out: i32,
    /// `2^(out.frac − acc.frac)`: an accumulator raw at the output scale.
    acc_out: f64,
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
        // The libm-free checked datapath replicates the scalar rounding
        // only under these conditions (all hold for the paper's formats
        // and every `fitted_to` output):
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
        // exact integer product, and a ≤52-bit sum format keeps the
        // full-width sum exact.
        let vec = fast && slope.total_bits() <= 52 && sum.total_bits() <= 52;
        RowKernel {
            fast,
            vec,
            arg_max_raw: arg.max_raw(),
            arg_max_f: arg.max_raw() as f64,
            mul_inv: (-shift as f64).exp2(),
            acc_max_raw: acc.max_raw(),
            sh_acc: sum.frac_bits() - acc.frac_bits(),
            sh_icept: sum.frac_bits() - icept.frac_bits(),
            sum_res: sum.resolution(),
            out_scale: (output.frac_bits() as f64).exp2(),
            icept_to_out: output.frac_bits() as i32 - icept.frac_bits() as i32,
            acc_out: ((output.frac_bits() as i32 - acc.frac_bits() as i32) as f64).exp2(),
            out_max_raw: output.max_raw(),
            out_max_f: output.max_raw() as f64,
            out_res: output.resolution(),
        }
    }

    /// Folds one segment's coefficients for the vector kernel, or `None`
    /// if the folded datapath could differ from the scalar one by a bit
    /// anywhere below `hi`, the segment's upper boundary:
    ///
    /// * the accumulator must not overflow — it is monotone in the
    ///   non-negative argument register (non-negative slope, rounded
    ///   rescale, truncation), so checking the largest argument the
    ///   segment sees decides it for all of them;
    /// * `c₁ · 2^-shift` must stay normal, so the power-of-two rescale
    ///   stays exact and `t · m` rounds like the scaled integer product;
    /// * `c₀ · 2^(out − icept) + ½` must be exact: then
    ///   `acc · 2^(out − acc) + c`, whose product is exact, rounds once,
    ///   at the same real value as the scalar path's
    ///   `sum · 2^(out − sum) + ½` (fused or not);
    /// * and non-negative (every square-root table's intercepts are), so
    ///   the sum never needs the output register's lower saturation.
    fn lane(&self, slope_raw: i64, icept_raw: i64, hi: f64) -> Option<Lane> {
        if !self.vec {
            return None;
        }
        let t_max = if hi.is_finite() {
            ((hi + 0.5) as i64).min(self.arg_max_raw).max(0)
        } else {
            self.arg_max_raw
        };
        let acc_max = ((t_max * slope_raw) as f64 * self.mul_inv + 0.5) as i64;
        let slope = slope_raw as f64 * self.mul_inv;
        if acc_max > self.acc_max_raw || (slope_raw != 0 && !slope.is_normal()) {
            return None;
        }
        // `c₀ · 2^e + ½` in units of 2^-f, f ≥ 1 fractional bits: exact
        // iff that integer fits the 53-bit significand.
        let e = self.icept_to_out;
        let f = (-e).max(1);
        let units = (i128::from(icept_raw) << (e + f)) + (1i128 << (f - 1));
        if !(0..=1i128 << 53).contains(&units) {
            return None;
        }
        Some(Lane {
            slope,
            icept: units as f64 * (-f as f64).exp2(),
        })
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

    /// `eval_row` against per-element `eval`, bit for bit.
    fn assert_row_matches_eval(q: &QuantizedPwl, xs: &[f64]) {
        let mut got = vec![f64::NAN; xs.len()];
        q.eval_row(xs, &mut got);
        for (i, (&g, &x)) in got.iter().zip(xs).enumerate() {
            assert_eq!(
                g.to_bits(),
                q.eval(x).to_bits(),
                "element {i} of {}, x = {x:e}",
                xs.len()
            );
        }
    }

    /// Segment range `last − first` the row kernel sees for a row.
    fn segment_range(q: &QuantizedPwl, xs: &[f64]) -> usize {
        let (lo, hi) = bounds(xs);
        q.locate(hi) - q.locate(lo)
    }

    #[test]
    fn eval_row_bit_identical_to_per_element_eval() {
        let q = QuantizedPwl::quantize(&table(), LutFormats::paper_default()).unwrap();
        assert_row_matches_eval(&q, &edge_stream());
    }

    #[test]
    fn eval_row_generic_fallback_formats_stay_bit_identical() {
        // Formats the fast gate refuses (fractional argument bits,
        // signed output): the per-element scalar tier must still match
        // the scalar datapath bit for bit.
        let t = table();
        let mut formats = LutFormats::paper_default();
        formats.argument = QFormat::unsigned(25, 2);
        formats.output = QFormat::signed(13, 5);
        let q = QuantizedPwl::quantize(&t, formats).unwrap();
        assert!(!q.kernel.fast && q.lanes.iter().all(Option::is_none));
        assert_row_matches_eval(&q, &edge_stream());
    }

    #[test]
    fn paper_and_fitted_formats_take_the_vector_row_kernel() {
        // The perf claim rides on the all-f64 vector kernel: the paper's
        // formats (and any fitted_to output) must pass its gates on
        // every segment, or the fill silently degrades to the checked
        // per-element loop.
        let t = table();
        for formats in [LutFormats::paper_default(), LutFormats::fitted_to(&t)] {
            let q = QuantizedPwl::quantize(&t, formats).unwrap();
            assert!(
                q.kernel.fast && q.kernel.vec,
                "formats {formats:?} left the vector path"
            );
            assert!(q.lanes.iter().all(Option::is_some), "formats {formats:?}");
        }
    }

    #[test]
    fn eval_row_wide_slope_format_uses_checked_loop_bit_identically() {
        // A 53-bit slope passes the fast gate (arg 9 + slope 53 = 62)
        // but not the vector gate: the checked integer loop must carry
        // the row bit-identically to the scalar datapath.
        let t = PwlApprox::build(&SqrtFn, (64.0, 500.0), 0.25).unwrap();
        let mut formats = LutFormats::fitted_to(&t);
        formats.slope = QFormat::unsigned(0, 53);
        let q = QuantizedPwl::quantize(&t, formats).unwrap();
        assert!(q.kernel.fast && !q.kernel.vec);
        let xs: Vec<f64> = (0..500)
            .map(|i| 64.0 + 436.0 * (i as f64 / 499.0))
            .chain([0.0, 63.9, 500.0, 1e9, f64::INFINITY, 80.0])
            .collect();
        assert_row_matches_eval(&q, &xs);
    }

    /// A deliberately narrow accumulator: the overflow gate refuses the
    /// vector kernel on the segments where some argument could overflow,
    /// and keeps it on the others.
    fn narrow_accumulator() -> QuantizedPwl {
        let t = table();
        let mut formats = LutFormats::fitted_to(&t);
        formats.accumulator = QFormat::signed(4, 8);
        QuantizedPwl::quantize(&t, formats).unwrap()
    }

    #[test]
    fn eval_row_accumulator_overflow_segments_fall_back_bit_identically() {
        let q = narrow_accumulator();
        assert!(
            q.kernel.vec,
            "the format gate passes; overflow is per segment"
        );
        assert!(q.lanes.iter().any(Option::is_none));
        assert!(q.lanes.iter().any(Option::is_some));
        assert_row_matches_eval(&q, &edge_stream());
    }

    /// Every edge the row kernel's compare-selects and roundings meet:
    /// each segment boundary and the doubles either side of it, the
    /// half-integers around it, `0.49999999999999994`, ±0.0, ±∞ and
    /// negative arguments, and the argument register's saturation point.
    fn edge_arguments(q: &QuantizedPwl) -> Vec<f64> {
        let mut xs = vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.49999999999999994,
            0.5,
            0.5f64.next_up(),
            1.5,
            2.5,
            -0.5,
            -1e300,
            1e300,
        ];
        for &b in &q.boundaries {
            xs.extend([b, b.next_up(), b.next_down()]);
            let h = b.floor() + 0.5;
            xs.extend([h, h.next_up(), h.next_down(), h + 1.0, h - 1.0]);
        }
        let am = q.kernel.arg_max_raw as f64;
        xs.extend([am - 0.5, am, am + 0.5, am.next_up(), am + 1.0]);
        xs.extend([2f64.powi(52), 2f64.powi(52) - 0.5, 2f64.powi(53)]);
        xs
    }

    /// A row spanning segments `first ..= first + range`: a parabola
    /// whose vertex sits on the first segment's lower boundary — the
    /// shape of a receive row along one aperture row — salted with the
    /// inner boundaries and their neighbours.
    fn parabola_row(q: &QuantizedPwl, first: usize, range: usize, len: usize) -> Vec<f64> {
        let lo = q.boundaries[first];
        let top = q.boundaries[first + range + 1].next_down();
        let mut xs: Vec<f64> = (0..len)
            .map(|i| {
                let u = 2.0 * i as f64 / (len.max(2) - 1) as f64 - 1.0;
                lo + (top - lo) * u * u
            })
            .collect();
        for &b in &q.boundaries[first + 1..=first + range] {
            let at = xs.len() / 2;
            xs.splice(at..at, [b.next_down(), b, b.next_up()]);
        }
        xs
    }

    #[test]
    fn eval_row_is_edge_exact() {
        let t = table();
        let mut narrow_output = LutFormats::fitted_to(&t);
        // sqrt(16e6) = 4000 overflows a u10.5 result register.
        narrow_output.output = QFormat::unsigned(10, 5);
        let mut cases = vec![
            QuantizedPwl::quantize(&t, LutFormats::paper_default()).unwrap(),
            QuantizedPwl::quantize(&t, narrow_output).unwrap(),
            narrow_accumulator(),
        ];
        // A table whose domain passes the argument register's saturation
        // point, so the saturated arguments meet a real segment.
        let short = PwlApprox::build(&SqrtFn, (1.0, 3000.0), 0.25).unwrap();
        let mut saturating = LutFormats::fitted_to(&short);
        saturating.argument = QFormat::unsigned(10, 0);
        cases.push(QuantizedPwl::quantize(&short, saturating).unwrap());
        for q in &cases {
            let mut edges = edge_arguments(q);
            assert_row_matches_eval(q, &edges);
            edges.sort_by(f64::total_cmp);
            assert_row_matches_eval(q, &edges);
            // Short rows and every vector remainder, at every offset.
            for len in 0..=17 {
                for start in (0..=edges.len() - len).step_by(5) {
                    assert_row_matches_eval(q, &edges[start..start + len]);
                }
            }
        }
    }

    #[test]
    fn eval_row_is_exact_at_every_window_width() {
        // Rows touching 1, 2, …, WINDOW_MAX + 2 segments: each window
        // size the kernel dispatches on, and the split past it.
        let q = QuantizedPwl::quantize(&table(), LutFormats::paper_default()).unwrap();
        let n = q.segment_count();
        for range in 0..=WINDOW_MAX + 1 {
            for first in [0, 1, n / 2, n - 1 - range] {
                for len in [1, 2, 3, 5, 8, 17, 64, 1024] {
                    let xs = parabola_row(&q, first, range, len);
                    if len >= 3 {
                        assert_eq!(segment_range(&q, &xs), range, "first {first}, len {len}");
                    }
                    assert_row_matches_eval(&q, &xs);
                }
            }
        }
    }

    #[test]
    fn eval_row_empty_is_a_no_op() {
        let q = QuantizedPwl::quantize(&table(), LutFormats::paper_default()).unwrap();
        q.eval_row(&[], &mut []);
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
