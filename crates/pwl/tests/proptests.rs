//! Property-based bit-identity of the row evaluator.
//!
//! `eval_row` is a fast path over the scalar `eval` datapath: this
//! property drives it with random tables, random coefficient formats
//! (exercising the vector row kernel, its split of wide rows and the
//! per-element fallback) and randomly-shaped argument streams — including
//! out-of-domain saturation excursions at both ends — and requires every
//! value to match the per-element datapath exactly.

use proptest::prelude::*;
use usbf_fixed::QFormat;
use usbf_pwl::{LutFormats, PwlApprox, QuantizedPwl, SqrtFn};

/// Builds a random table + formats from the generated picks. Formats
/// cycle through fitted (fast kernel), fractional-argument and
/// signed-output variants (generic fallback) so every row path runs.
fn random_quantized(lo: f64, span: f64, delta: f64, fmt_pick: usize) -> QuantizedPwl {
    let table = PwlApprox::build(&SqrtFn, (lo, lo + span), delta).expect("valid domain");
    let mut formats = LutFormats::fitted_to(&table);
    match fmt_pick % 3 {
        0 => {}
        1 => {
            // Fractional argument bits: the fast gate refuses these.
            formats.argument = QFormat::unsigned(formats.argument.int_bits(), 2);
        }
        _ => {
            // Signed output: also refused by the fast gate.
            formats.output = QFormat::signed(formats.output.int_bits(), formats.output.frac_bits());
        }
    }
    QuantizedPwl::quantize(&table, formats).expect("fitted formats hold the table")
}

/// A drifting argument stream over (and beyond) the table domain: three
/// scan shapes — a nappe-style slow sweep, a scanline-style sawtooth with
/// restarts, and a jumpy stride — each salted with out-of-domain points
/// below and above the table.
fn random_stream(lo: f64, span: f64, shape: usize, len: usize, salt: usize) -> Vec<f64> {
    let hi = lo + span;
    let mut xs = Vec::with_capacity(len + 6);
    for i in 0..len {
        let t = i as f64 / len.max(2) as f64;
        let x = match shape % 3 {
            0 => lo + span * t * t, // slow nappe drift
            1 => lo + span * ((i % (len / 4 + 1)) as f64 * 4.0 / len as f64), // sawtooth
            _ => lo + span * (((i * 7919 + salt) % len) as f64 / len as f64), // jumpy
        };
        xs.push(x.min(hi));
    }
    // Saturation edges: below the domain (down to 0) and far above it.
    let inject = (salt % len.max(1)).min(xs.len());
    xs.insert(inject, 0.0);
    xs.insert(inject, lo * 0.5);
    xs.push(hi * 4.0);
    xs.push(hi * 1e4);
    xs.push(lo + span * 0.37);
    xs.push(lo);
    xs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn eval_row_matches_per_element_eval(
        lo in 1.0f64..500.0,
        span in 100.0f64..2.0e6,
        delta in 0.05f64..0.5,
        fmt_pick in 0usize..3,
        shape in 0usize..3,
        len in 16usize..400,
        salt in 0usize..10_000,
        range_pick in 0usize..2,
    ) {
        let q = random_quantized(lo, span, delta, fmt_pick);
        let mut xs = random_stream(lo, span, shape, len, salt);
        if range_pick == 1 {
            // Without the excursions past the argument register, rows
            // within a few segments take the vector kernel.
            let arg_max = q.formats().argument.max_value();
            xs.retain(|&x| x <= arg_max);
        }
        let mut got = vec![0.0; xs.len()];
        q.eval_row(&xs, &mut got);
        for (i, (&g, &x)) in got.iter().zip(&xs).enumerate() {
            prop_assert_eq!(
                g.to_bits(), q.eval(x).to_bits(),
                "element {} at x = {}", i, x
            );
        }
    }

    #[test]
    fn eval_grid_matches_per_element_eval(
        lo in 1.0f64..500.0,
        span in 100.0f64..2.0e6,
        delta in 0.05f64..0.5,
        fmt_pick in 0usize..3,
        n_cols in 0usize..40,
        n_rows in 0usize..40,
        col_reach in 0.0f64..1.0,
        row_reach in 0.0f64..1.0,
        salt in 0usize..10_000,
        add in -100.0f64..5000.0,
    ) {
        // A separable grid like a receive row's: squared column and row
        // distances around a vertex, plus a depth term, spanning anywhere
        // from one segment to the whole table.
        let q = random_quantized(lo, span, delta, fmt_pick);
        let square = |i: usize, n: usize, reach: f64| {
            let u = (i as f64 + 0.5) / n as f64 - (salt % 7) as f64 / 7.0;
            u * u * span * reach
        };
        let cols: Vec<f64> = (0..n_cols).map(|i| square(i, n_cols, col_reach)).collect();
        let rows: Vec<f64> = (0..n_rows).map(|i| square(i, n_rows, row_reach)).collect();
        let offset = lo + (salt % 13) as f64;
        let mut got = vec![0.0; n_cols * n_rows];
        q.eval_grid(&cols, &rows, offset, add, &mut got);
        for (i, &g) in got.iter().enumerate() {
            let x = (cols[i % n_cols] + rows[i / n_cols]) + offset;
            prop_assert_eq!(
                g.to_bits(), (q.eval(x) + add).to_bits(),
                "element {} at x = {}", i, x
            );
        }
    }
}
