//! Cost of the acquisition hand-off: [`RfFrame::copy_from`], the copy a
//! prerecorded frame ring performs into a warm buffer every frame.
//!
//! `rf_copy/mid_32x32x8192` times it on the mid-size probe's frame — a
//! 32 × 32-element array with the paper's 8192-sample echo buffers, 16 MB
//! of 16-bit samples plus the frame's scale. The reported bytes/s is the
//! copy bandwidth.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use usbf_sim::RfFrame;

fn bench_rf_copy(c: &mut Criterion) {
    let (nx, ny, n_samples) = (32, 32, 8192);
    let src = RfFrame::from_traces(nx, ny, n_samples, 1, |_, e, trace| {
        for (i, v) in trace.iter_mut().enumerate() {
            *v = ((7 * i + 3 * e.ix + e.iy) % 64) as f64 - 32.0;
        }
    })
    .expect("finite samples");
    let mut dst = RfFrame::zeros(nx, ny, n_samples);
    let mut g = c.benchmark_group("rf_copy");
    g.throughput(Throughput::Bytes(src.sample_bytes() as u64));
    g.bench_function("mid_32x32x8192", |b| {
        b.iter(|| {
            dst.copy_from(black_box(&src));
            black_box(dst.scale())
        });
    });
    g.finish();
}

criterion_group!(benches, bench_rf_copy);
criterion_main!(benches);
