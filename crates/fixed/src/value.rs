//! Fixed-point values and arithmetic.

use crate::QFormat;
use std::error::Error;
use std::fmt;

/// How a real value is quantized onto a fixed-point grid (or a fixed-point
/// value onto the integer sample grid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoundingMode {
    /// Round to nearest, ties away from zero (`f64::round`).
    Nearest,
    /// `floor(x + ½LSB)` — the hardware adder-plus-truncate round; ties go
    /// toward +∞. This is what the paper's datapaths implement.
    #[default]
    HalfUp,
    /// Round toward −∞ (truncation of the two's-complement word).
    Floor,
    /// Round toward zero.
    TowardZero,
}

impl RoundingMode {
    /// Applies the mode to a real number, returning an integer-valued f64.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            RoundingMode::Nearest => x.round(),
            RoundingMode::HalfUp => (x + 0.5).floor(),
            RoundingMode::Floor => x.floor(),
            RoundingMode::TowardZero => x.trunc(),
        }
    }
}

/// Errors from fixed-point construction and arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixedError {
    /// The value does not fit the target format.
    Overflow {
        /// Format that overflowed.
        format: QFormat,
    },
    /// Two operands had incompatible formats for the requested operation.
    FormatMismatch {
        /// Left-hand format.
        lhs: QFormat,
        /// Right-hand format.
        rhs: QFormat,
    },
    /// The input was not a finite number.
    NotFinite,
}

impl fmt::Display for FixedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixedError::Overflow { format } => {
                write!(f, "value does not fit fixed-point format {format}")
            }
            FixedError::FormatMismatch { lhs, rhs } => {
                write!(f, "fixed-point format mismatch: {lhs} vs {rhs}")
            }
            FixedError::NotFinite => write!(f, "input value was not finite"),
        }
    }
}

impl Error for FixedError {}

/// A fixed-point value: a raw two's-complement integer interpreted through
/// a [`QFormat`].
///
/// ```
/// use usbf_fixed::{Fixed, QFormat, RoundingMode};
/// let f = QFormat::CORR_18; // signed 13.4
/// let a = Fixed::from_f64(-3.14159, f, RoundingMode::Nearest)?;
/// assert!((a.to_f64() + 3.125).abs() < 1e-12); // -3.14159 → -50/16
/// # Ok::<(), usbf_fixed::FixedError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fixed {
    raw: i64,
    format: QFormat,
}

impl Fixed {
    /// The zero value in the given format.
    #[inline]
    pub fn zero(format: QFormat) -> Self {
        Fixed { raw: 0, format }
    }

    /// Builds a value from a raw integer (already scaled by `2^frac`).
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::Overflow`] if `raw` is outside the format's
    /// range.
    pub fn from_raw(raw: i64, format: QFormat) -> Result<Self, FixedError> {
        if raw < format.min_raw() || raw > format.max_raw() {
            return Err(FixedError::Overflow { format });
        }
        Ok(Fixed { raw, format })
    }

    /// Quantizes a real value into the format with the given rounding mode.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::NotFinite`] for NaN/∞ and
    /// [`FixedError::Overflow`] if the rounded value is out of range.
    pub fn from_f64(x: f64, format: QFormat, mode: RoundingMode) -> Result<Self, FixedError> {
        if !x.is_finite() {
            return Err(FixedError::NotFinite);
        }
        let scaled = mode.apply(x * format.scale());
        if scaled < format.min_raw() as f64 || scaled > format.max_raw() as f64 {
            return Err(FixedError::Overflow { format });
        }
        Ok(Fixed {
            raw: scaled as i64,
            format,
        })
    }

    /// Quantizes a real value, clamping to the format's range instead of
    /// failing (the behaviour of a saturating hardware register).
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    #[inline]
    pub fn saturating_from_f64(x: f64, format: QFormat, mode: RoundingMode) -> Self {
        assert!(!x.is_nan(), "cannot quantize NaN");
        let scaled = mode.apply(x * format.scale());
        let raw = if scaled <= format.min_raw() as f64 {
            format.min_raw()
        } else if scaled >= format.max_raw() as f64 {
            format.max_raw()
        } else {
            scaled as i64
        };
        Fixed { raw, format }
    }

    /// The raw scaled integer.
    #[inline]
    pub fn raw(&self) -> i64 {
        self.raw
    }

    /// The value's format.
    #[inline]
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Converts back to floating point (exact: the backing i64 is within
    /// f64's 53-bit mantissa by construction).
    #[inline]
    pub fn to_f64(&self) -> f64 {
        self.raw as f64 * self.format.resolution()
    }

    /// Re-expresses the value in another format.
    ///
    /// Widening (more fractional bits, larger range) is exact; narrowing
    /// re-quantizes with `mode`.
    ///
    /// # Errors
    ///
    /// Returns [`FixedError::Overflow`] if the value is outside the target
    /// range.
    pub fn convert(&self, format: QFormat, mode: RoundingMode) -> Result<Self, FixedError> {
        let from = self.format.frac_bits();
        let to = format.frac_bits();
        let raw = if to >= from {
            self.raw << (to - from)
        } else {
            let shifted = self.raw as f64 / ((from - to) as f64).exp2();
            mode.apply(shifted) as i64
        };
        Fixed::from_raw(raw, format)
    }

    /// Adds two values, producing the exact sum in
    /// [`QFormat::sum_format`] — models a full-width hardware adder.
    #[inline]
    pub fn wide_add(&self, rhs: Fixed) -> Fixed {
        let fmt = QFormat::sum_format(self.format, rhs.format);
        let fa = fmt.frac_bits();
        let a = self.raw << (fa - self.format.frac_bits());
        let b = rhs.raw << (fa - rhs.format.frac_bits());
        Fixed {
            raw: a + b,
            format: fmt,
        }
    }

    /// Checked addition of two values in the *same* format.
    ///
    /// # Errors
    ///
    /// [`FixedError::FormatMismatch`] when the formats differ;
    /// [`FixedError::Overflow`] when the sum leaves the format's range.
    pub fn checked_add(&self, rhs: Fixed) -> Result<Fixed, FixedError> {
        if self.format != rhs.format {
            return Err(FixedError::FormatMismatch {
                lhs: self.format,
                rhs: rhs.format,
            });
        }
        Fixed::from_raw(self.raw + rhs.raw, self.format)
    }

    /// Saturating addition in the same format.
    ///
    /// # Panics
    ///
    /// Panics if the formats differ.
    pub fn saturating_add(&self, rhs: Fixed) -> Fixed {
        assert_eq!(
            self.format, rhs.format,
            "saturating_add requires equal formats"
        );
        let raw = (self.raw + rhs.raw).clamp(self.format.min_raw(), self.format.max_raw());
        Fixed {
            raw,
            format: self.format,
        }
    }

    /// Full-precision multiply: the raw product with summed fractional
    /// bits, re-quantized into `out` with `mode` — models a DSP multiplier
    /// feeding a narrower register.
    ///
    /// # Errors
    ///
    /// [`FixedError::Overflow`] if the product is outside `out`'s range.
    pub fn mul_into(
        &self,
        rhs: Fixed,
        out: QFormat,
        mode: RoundingMode,
    ) -> Result<Fixed, FixedError> {
        let prod = self.raw as i128 * rhs.raw as i128;
        let prod_frac = self.format.frac_bits() + rhs.format.frac_bits();
        let shift = prod_frac as i32 - out.frac_bits() as i32;
        let raw = if shift <= 0 {
            let wide = prod << (-shift as u32);
            if wide > i64::MAX as i128 || wide < i64::MIN as i128 {
                return Err(FixedError::Overflow { format: out });
            }
            wide as i64
        } else {
            let scaled = prod as f64 / (shift as f64).exp2();
            mode.apply(scaled) as i64
        };
        Fixed::from_raw(raw, out)
    }

    /// Rounds the value to an integer (sample index) with the given mode —
    /// the final stage of the delay datapath.
    #[inline]
    pub fn round_to_int(&self, mode: RoundingMode) -> i64 {
        mode.apply(self.to_f64()) as i64
    }

    /// Absolute quantization error committed when this value was built
    /// from `original`.
    #[inline]
    pub fn quantization_error(&self, original: f64) -> f64 {
        (self.to_f64() - original).abs()
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.to_f64(), self.format)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_modes_on_halves() {
        assert_eq!(RoundingMode::Nearest.apply(2.5), 3.0);
        assert_eq!(RoundingMode::Nearest.apply(-2.5), -3.0);
        assert_eq!(RoundingMode::HalfUp.apply(2.5), 3.0);
        assert_eq!(RoundingMode::HalfUp.apply(-2.5), -2.0);
        assert_eq!(RoundingMode::Floor.apply(-2.5), -3.0);
        assert_eq!(RoundingMode::TowardZero.apply(-2.5), -2.0);
    }

    #[test]
    fn from_f64_quantizes_within_half_lsb() {
        let fmt = QFormat::REF_18;
        for &x in &[0.0, 0.015625, 1234.5678, 8191.96875] {
            let f = Fixed::from_f64(x, fmt, RoundingMode::Nearest).unwrap();
            assert!(
                f.quantization_error(x) <= fmt.resolution() / 2.0 + 1e-15,
                "x = {x}"
            );
        }
    }

    #[test]
    fn overflow_detected() {
        let fmt = QFormat::unsigned(3, 1);
        assert!(Fixed::from_f64(8.0, fmt, RoundingMode::Nearest).is_err());
        assert!(Fixed::from_f64(-0.5, fmt, RoundingMode::Nearest).is_err());
        assert!(Fixed::from_f64(7.5, fmt, RoundingMode::Nearest).is_ok());
    }

    #[test]
    fn nan_and_infinity_rejected() {
        let fmt = QFormat::REF_18;
        assert_eq!(
            Fixed::from_f64(f64::NAN, fmt, RoundingMode::Nearest),
            Err(FixedError::NotFinite)
        );
        assert_eq!(
            Fixed::from_f64(f64::INFINITY, fmt, RoundingMode::Nearest),
            Err(FixedError::NotFinite)
        );
    }

    #[test]
    fn saturating_from_f64_clamps() {
        let fmt = QFormat::unsigned(3, 1);
        assert_eq!(
            Fixed::saturating_from_f64(100.0, fmt, RoundingMode::Nearest).to_f64(),
            7.5
        );
        assert_eq!(
            Fixed::saturating_from_f64(-5.0, fmt, RoundingMode::Nearest).to_f64(),
            0.0
        );
    }

    #[test]
    fn convert_widening_is_exact() {
        let a = Fixed::from_f64(12.25, QFormat::CORR_18, RoundingMode::Nearest).unwrap();
        let b = a
            .convert(QFormat::signed(14, 8), RoundingMode::Nearest)
            .unwrap();
        assert_eq!(b.to_f64(), 12.25);
    }

    #[test]
    fn convert_narrowing_requantizes() {
        let a = Fixed::from_f64(1.03125, QFormat::REF_18, RoundingMode::Nearest).unwrap();
        let b = a.convert(QFormat::REF_14, RoundingMode::Nearest).unwrap();
        assert_eq!(b.to_f64(), 1.0);
    }

    #[test]
    fn wide_add_mixed_formats_is_exact() {
        // Sign-extended sum of unsigned 13.5 reference and signed 13.4
        // correction — the §V-B datapath.
        let r = Fixed::from_f64(4000.5, QFormat::REF_18, RoundingMode::Nearest).unwrap();
        let c = Fixed::from_f64(-120.25, QFormat::CORR_18, RoundingMode::Nearest).unwrap();
        let s = r.wide_add(c);
        assert_eq!(s.to_f64(), 4000.5 - 120.25);
        assert!(s.format().is_signed());
    }

    #[test]
    fn checked_add_detects_mismatch_and_overflow() {
        let a = Fixed::from_f64(1.0, QFormat::REF_18, RoundingMode::Nearest).unwrap();
        let b = Fixed::from_f64(1.0, QFormat::CORR_18, RoundingMode::Nearest).unwrap();
        assert!(matches!(
            a.checked_add(b),
            Err(FixedError::FormatMismatch { .. })
        ));
        let big = Fixed::from_f64(8000.0, QFormat::REF_18, RoundingMode::Nearest).unwrap();
        assert!(matches!(
            big.checked_add(big),
            Err(FixedError::Overflow { .. })
        ));
    }

    #[test]
    fn saturating_add_clamps() {
        let fmt = QFormat::unsigned(3, 0);
        let a = Fixed::from_f64(6.0, fmt, RoundingMode::Nearest).unwrap();
        let b = Fixed::from_f64(5.0, fmt, RoundingMode::Nearest).unwrap();
        assert_eq!(a.saturating_add(b).to_f64(), 7.0);
    }

    #[test]
    fn mul_into_matches_float_product() {
        let a = Fixed::from_f64(3.25, QFormat::signed(8, 4), RoundingMode::Nearest).unwrap();
        let b = Fixed::from_f64(-2.5, QFormat::signed(8, 4), RoundingMode::Nearest).unwrap();
        let p = a
            .mul_into(b, QFormat::signed(16, 8), RoundingMode::Nearest)
            .unwrap();
        assert!((p.to_f64() - (3.25 * -2.5)).abs() <= QFormat::signed(16, 8).resolution());
    }

    #[test]
    fn round_to_int_final_stage() {
        let s = Fixed::from_f64(1234.4, QFormat::REF_18, RoundingMode::Nearest).unwrap();
        assert_eq!(s.round_to_int(RoundingMode::HalfUp), 1234);
        let s = Fixed::from_f64(1234.6, QFormat::REF_18, RoundingMode::Nearest).unwrap();
        assert_eq!(s.round_to_int(RoundingMode::HalfUp), 1235);
        // A value quantized onto an exact .5 grid point rounds up (HalfUp).
        let s = Fixed::from_f64(1234.5, QFormat::REF_18, RoundingMode::Nearest).unwrap();
        assert_eq!(s.round_to_int(RoundingMode::HalfUp), 1235);
    }

    #[test]
    fn display_nonempty() {
        let a = Fixed::zero(QFormat::REF_18);
        assert!(!a.to_string().is_empty());
    }

    #[test]
    fn from_raw_bounds() {
        let fmt = QFormat::signed(3, 1);
        assert!(Fixed::from_raw(fmt.max_raw(), fmt).is_ok());
        assert!(Fixed::from_raw(fmt.max_raw() + 1, fmt).is_err());
        assert!(Fixed::from_raw(fmt.min_raw(), fmt).is_ok());
        assert!(Fixed::from_raw(fmt.min_raw() - 1, fmt).is_err());
    }
}
