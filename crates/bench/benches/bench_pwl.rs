//! PWL square-root evaluation: direct (binary-search) vs tracked
//! (the Fig. 2 hardware policy) vs quantized datapath, and the row
//! evaluator on real receive rows.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use usbf_core::{TableFreeConfig, TableFreeEngine};
use usbf_geometry::VoxelIndex;
use usbf_pwl::{LutFormats, PwlApprox, QuantizedPwl, SqrtFn, TrackingEvaluator};

fn bench_pwl(c: &mut Criterion) {
    let table = PwlApprox::build(&SqrtFn, (64.0, 16.0e6), 0.25).expect("builds");
    let quant = QuantizedPwl::quantize(&table, LutFormats::paper_default()).expect("quantizes");
    // A slowly drifting argument sequence, as a nappe sweep produces.
    let args: Vec<f64> = (0..8192).map(|i| 100.0 + i as f64 * 1900.0).collect();

    let mut g = c.benchmark_group("pwl_eval");
    g.throughput(Throughput::Elements(args.len() as u64));
    g.bench_function("direct_binary_search", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &x in &args {
                acc += table.eval(black_box(x));
            }
            acc
        })
    });
    g.bench_function("tracking_pointer", |b| {
        b.iter(|| {
            let mut tr = TrackingEvaluator::new(&table);
            let mut acc = 0.0;
            for &x in &args {
                acc += tr.eval(black_box(x)).expect("unbounded tracker");
            }
            acc
        })
    });
    g.bench_function("quantized_datapath", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &x in &args {
                acc += quant.eval(black_box(x));
            }
            acc
        })
    });
    g.bench_function("f64_sqrt_baseline", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &x in &args {
                acc += black_box(x).sqrt();
            }
            acc
        })
    });
    g.finish();

    // `eval_row` on the mid-size probe's receive rows (32 × 32 elements
    // flattened: a parabola along every aperture row) at shallow, middle
    // and deep nappes of one off-axis line — rows that cross segment
    // boundaries, named by how many segments they touch — and on a row
    // that stays on one segment.
    let spec = usbf_bench::mid_spec();
    let engine = TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds");
    let mid = engine.quantized();
    let n = spec.elements.count();
    let mut out = vec![0.0; n];
    let mut g = c.benchmark_group("pwl_row");
    g.throughput(Throughput::Elements(n as u64));
    for nappe in [8, 32, 56] {
        let vox = VoxelIndex::new(3, 5, nappe);
        let row: Vec<f64> = spec
            .elements
            .iter()
            .map(|e| engine.rx_alpha(vox, e))
            .collect();
        let segs = |f: fn(f64, f64) -> f64| mid.locate(row.iter().copied().fold(row[0], f));
        let touched = segs(f64::max) - segs(f64::min) + 1;
        g.bench_function(format!("mid_rx_nappe{nappe}_{touched}seg"), |b| {
            b.iter(|| {
                mid.eval_row(black_box(&row), &mut out);
                black_box(out[0])
            })
        });
    }
    let seg = &table.segments()[table.locate(250_000.0)];
    let single: Vec<f64> = (0..n)
        .map(|i| seg.x0 + (seg.x1 - seg.x0) * 0.99 * i as f64 / n as f64)
        .collect();
    g.bench_function("single_segment_1024", |b| {
        b.iter(|| {
            quant.eval_row(black_box(&single), &mut out);
            black_box(out[0])
        })
    });
    g.finish();

    let mut g = c.benchmark_group("pwl_build");
    for &delta in &[0.5, 0.25, 0.125] {
        g.bench_function(format!("delta_{delta}"), |b| {
            b.iter(|| PwlApprox::build(&SqrtFn, (64.0, 16.0e6), black_box(delta)).expect("builds"))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_pwl);
criterion_main!(benches);
