//! Q-format descriptors.

use std::fmt;

/// A fixed-point format: `int_bits` integer bits, `frac_bits` fractional
/// bits, plus one sign bit when signed (two's complement).
///
/// The paper writes these as `I.F`, e.g. "13.5 unsigned" (18 bits total) or
/// "signed 13.4" (18 bits total including the sign).
///
/// ```
/// use usbf_fixed::QFormat;
/// assert_eq!(QFormat::REF_18.total_bits(), 18);
/// assert_eq!(QFormat::CORR_18.total_bits(), 18);
/// assert_eq!(QFormat::REF_18.resolution(), 1.0 / 32.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    int_bits: u32,
    frac_bits: u32,
    signed: bool,
}

impl QFormat {
    /// Reference-delay format of the 18-bit TABLESTEER design: unsigned
    /// 13.5 (§V-B).
    pub const REF_18: QFormat = QFormat {
        int_bits: 13,
        frac_bits: 5,
        signed: false,
    };
    /// Correction format of the 18-bit design: signed 13.4 (§V-B).
    pub const CORR_18: QFormat = QFormat {
        int_bits: 13,
        frac_bits: 4,
        signed: true,
    };
    /// Reference-delay format of the 14-bit design: unsigned 13.1.
    pub const REF_14: QFormat = QFormat {
        int_bits: 13,
        frac_bits: 1,
        signed: false,
    };
    /// Correction format of the 14-bit design: signed 13.0.
    pub const CORR_14: QFormat = QFormat {
        int_bits: 13,
        frac_bits: 0,
        signed: true,
    };
    /// Plain 13-bit unsigned integer delays (the §VI-A "13 bit integers"
    /// baseline).
    pub const INT_13: QFormat = QFormat {
        int_bits: 13,
        frac_bits: 0,
        signed: false,
    };

    /// Creates an unsigned format with the given integer and fractional
    /// bit counts.
    ///
    /// # Panics
    ///
    /// Panics if the total width is 0 or exceeds 62 bits (the headroom kept
    /// for intermediate sums in `i64` arithmetic).
    pub const fn unsigned(int_bits: u32, frac_bits: u32) -> Self {
        assert!(
            int_bits + frac_bits > 0,
            "format must have at least one bit"
        );
        assert!(
            int_bits + frac_bits <= 62,
            "format too wide for i64 backing"
        );
        QFormat {
            int_bits,
            frac_bits,
            signed: false,
        }
    }

    /// Creates a signed (two's complement) format; the sign bit is *in
    /// addition to* `int_bits + frac_bits`.
    ///
    /// # Panics
    ///
    /// Panics if the total width is 0 or exceeds 62 bits.
    pub const fn signed(int_bits: u32, frac_bits: u32) -> Self {
        assert!(
            int_bits + frac_bits > 0,
            "format must have at least one bit"
        );
        assert!(
            int_bits + frac_bits <= 61,
            "format too wide for i64 backing"
        );
        QFormat {
            int_bits,
            frac_bits,
            signed: true,
        }
    }

    /// Number of integer bits.
    #[inline]
    pub const fn int_bits(&self) -> u32 {
        self.int_bits
    }

    /// Number of fractional bits.
    #[inline]
    pub const fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Whether the format carries a sign bit.
    #[inline]
    pub const fn is_signed(&self) -> bool {
        self.signed
    }

    /// Total storage width in bits (including the sign bit if any) — what a
    /// BRAM word must hold.
    #[inline]
    pub const fn total_bits(&self) -> u32 {
        self.int_bits + self.frac_bits + self.signed as u32
    }

    /// Value of one least-significant bit: `2^-frac_bits`.
    #[inline]
    pub fn resolution(&self) -> f64 {
        // 2^-n assembled directly from the exponent field: identical to
        // `(-n).exp2()` for every normal power of two (both are exact),
        // but a couple of integer ops instead of a libm call — this sits
        // under `Fixed::to_f64` in the delay-generation hot loops.
        if self.frac_bits <= 1022 {
            f64::from_bits(u64::from(1023 - self.frac_bits) << 52)
        } else {
            (-(self.frac_bits as f64)).exp2()
        }
    }

    /// Raw units per unit value, `2^frac_bits`: the factor a real value
    /// is scaled by before it is rounded onto the format's grid.
    #[inline]
    pub fn scale(&self) -> f64 {
        // Assembled from the exponent field like `resolution`: the
        // constructors keep `frac_bits ≤ 62`, so 2^n is a normal f64 and
        // equals `(n as f64).exp2()` exactly — without the libm call
        // that sat under every `Fixed::from_f64` conversion.
        f64::from_bits(u64::from(1023 + self.frac_bits) << 52)
    }

    /// Largest representable raw integer.
    #[inline]
    pub const fn max_raw(&self) -> i64 {
        (1i64 << (self.int_bits + self.frac_bits)) - 1
    }

    /// Smallest representable raw integer (0 for unsigned formats).
    #[inline]
    pub const fn min_raw(&self) -> i64 {
        if self.signed {
            -(1i64 << (self.int_bits + self.frac_bits))
        } else {
            0
        }
    }

    /// Largest representable value.
    #[inline]
    pub fn max_value(&self) -> f64 {
        self.max_raw() as f64 * self.resolution()
    }

    /// Smallest representable value.
    #[inline]
    pub fn min_value(&self) -> f64 {
        self.min_raw() as f64 * self.resolution()
    }

    /// Whether every value of `other` is exactly representable in `self`
    /// (at least as many fractional bits, at least as wide an integer
    /// range, and not dropping a needed sign bit).
    pub fn can_hold(&self, other: &QFormat) -> bool {
        self.frac_bits >= other.frac_bits
            && (self.signed || !other.signed)
            && self.max_value() >= other.max_value()
            && self.min_value() <= other.min_value()
    }

    /// A format able to hold the exact sum of values in `a` and `b`: max
    /// fractional bits, max integer bits + 1 (carry), signed if either is.
    #[inline]
    pub fn sum_format(a: QFormat, b: QFormat) -> QFormat {
        let int_bits = a.int_bits.max(b.int_bits) + 1;
        let frac_bits = a.frac_bits.max(b.frac_bits);
        if a.signed || b.signed {
            QFormat::signed(int_bits, frac_bits)
        } else {
            QFormat::unsigned(int_bits, frac_bits)
        }
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}.{}",
            if self.signed { "s" } else { "u" },
            self.int_bits,
            self.frac_bits
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_have_18_and_14_bit_widths() {
        assert_eq!(QFormat::REF_18.total_bits(), 18);
        assert_eq!(QFormat::CORR_18.total_bits(), 18);
        assert_eq!(QFormat::REF_14.total_bits(), 14);
        assert_eq!(QFormat::CORR_14.total_bits(), 14);
        assert_eq!(QFormat::INT_13.total_bits(), 13);
    }

    #[test]
    fn resolution_is_power_of_two() {
        assert_eq!(QFormat::REF_18.resolution(), 1.0 / 32.0);
        assert_eq!(QFormat::CORR_18.resolution(), 1.0 / 16.0);
        assert_eq!(QFormat::INT_13.resolution(), 1.0);
    }

    #[test]
    fn scale_is_the_exact_power_of_two_for_every_admitted_format() {
        // Every fractional width a format admits: 0 ..= 62 (unsigned with
        // no integer bits; a zero-width format needs one integer bit).
        for n in 0..=62 {
            let f = QFormat::unsigned(u32::from(n == 0), n);
            assert_eq!(f.scale().to_bits(), (n as f64).exp2().to_bits(), "{f}");
            assert_eq!(f.scale() * f.resolution(), 1.0, "{f}");
        }
    }

    #[test]
    fn ranges() {
        let u = QFormat::unsigned(3, 1); // 0 .. 7.5
        assert_eq!(u.min_value(), 0.0);
        assert_eq!(u.max_value(), 7.5);
        let s = QFormat::signed(3, 1); // -8.0 .. 7.5
        assert_eq!(s.min_value(), -8.0);
        assert_eq!(s.max_value(), 7.5);
    }

    #[test]
    fn ref18_covers_echo_buffer() {
        // 13 integer bits address 8192 sample slots — enough for the
        // "slightly more than 8000 samples" echo window.
        assert!(QFormat::REF_18.max_value() >= 8000.0);
    }

    #[test]
    fn can_hold_rules() {
        assert!(QFormat::signed(14, 5).can_hold(&QFormat::REF_18));
        assert!(QFormat::signed(14, 5).can_hold(&QFormat::CORR_18));
        // Fewer fractional bits cannot hold more.
        assert!(!QFormat::REF_14.can_hold(&QFormat::REF_18));
        // Unsigned cannot hold signed.
        assert!(!QFormat::unsigned(14, 5).can_hold(&QFormat::CORR_18));
    }

    #[test]
    fn sum_format_holds_extremes() {
        let s = QFormat::sum_format(QFormat::REF_18, QFormat::CORR_18);
        assert!(s.is_signed());
        assert!(s.max_value() >= QFormat::REF_18.max_value() + QFormat::CORR_18.max_value());
        assert!(s.min_value() <= QFormat::CORR_18.min_value());
    }

    #[test]
    fn display_format() {
        assert_eq!(QFormat::REF_18.to_string(), "u13.5");
        assert_eq!(QFormat::CORR_18.to_string(), "s13.4");
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn empty_format_rejected() {
        QFormat::unsigned(0, 0);
    }
}
