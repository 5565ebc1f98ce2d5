//! Coherent plane-wave compounding cost: how per-engine delay
//! generation and end-to-end frame rate scale with the number of
//! compounded transmit angles.
//!
//! Three groups on the narrow-cone CPWC spec ([`usbf_bench::cpwc_spec`]),
//! each swept over 1 / 4 / 16 angles:
//!
//! * `cpwc_fill` — per-engine delay generation for the full transmit
//!   sequence, the way the tile kernel runs it: one receive-leg
//!   `fill_nappe_rx` per nappe of a full-fan slab, then one
//!   `combine_tx_row` per row and transmit. EXACT recomputes the
//!   transmit leg per row, NAIVE-TABLE reads its per-transmit table
//!   rows, TABLESTEER adds its folded Δtx constant and TABLEFREE pays no
//!   sqrt for the linear plane-wave leg — the sweep makes those scaling
//!   laws measurable;
//! * `cpwc_quantize_run` — the delay calls the nearest-fetch tile kernel
//!   makes: one `begin_emit` per nappe of a full-fan slab, then one
//!   `emit_run` per run of 16 rows and transmit over the Hann aperture's
//!   active runs, which computes the run's transmit terms in one pass and
//!   adds the receive leg and rounds every active entry, beside
//!   `cpwc_fill`'s per-row combine;
//! * `cpwc_compound_frame` — warm `FramePipeline` frames/s with the
//!   N-angle compound running as ONE frame on a pinned 4-worker pool.
//!   The reported elements/s **is** compound frames/s.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use usbf_beamform::{Beamformer, FramePipeline, FrameRing};
use usbf_core::{
    DelayEngine, ExactEngine, NaiveTableEngine, NappeDelays, NappeSchedule, TableFreeConfig,
    TableFreeEngine, TableSteerConfig, TableSteerEngine,
};
use usbf_geometry::{SystemSpec, VoxelIndex};
use usbf_par::ThreadPool;
use usbf_sim::{EchoSynthesizer, Phantom, Pulse, RfFrame};

/// Pinned worker count: benches must not depend on host core count.
const WORKERS: usize = 4;

const ANGLES: [usize; 3] = [1, 4, 16];

fn engines(spec: &SystemSpec) -> Vec<(&'static str, Box<dyn DelayEngine>)> {
    vec![
        ("EXACT", Box::new(ExactEngine::new(spec))),
        (
            "NAIVE-TABLE",
            Box::new(NaiveTableEngine::build(spec, u64::MAX).expect("tiny table fits")),
        ),
        (
            "TABLEFREE",
            Box::new(TableFreeEngine::new(spec, TableFreeConfig::paper()).expect("builds")),
        ),
        (
            "TABLESTEER-18b",
            Box::new(TableSteerEngine::new(spec, TableSteerConfig::bits18()).expect("builds")),
        ),
    ]
}

fn compound_rf(spec: &SystemSpec) -> RfFrame {
    let g = &spec.volume_grid;
    let target = g.position(VoxelIndex::new(
        g.n_theta() / 2,
        g.n_phi() / 2,
        g.n_depth() * 5 / 8,
    ));
    EchoSynthesizer::new(spec).synthesize(&Phantom::point(target), &Pulse::from_spec(spec))
}

fn bench_cpwc(c: &mut Criterion) {
    // Per-engine delay generation for the whole compound sequence.
    let mut g = c.benchmark_group("cpwc_fill");
    for n_angles in ANGLES {
        let spec = usbf_bench::cpwc_spec(n_angles);
        let mut slab = NappeDelays::full(&spec);
        let mut tx_row = vec![0.0; slab.n_elements()];
        let delays_per_pass = n_angles as u64
            * spec.volume_grid.n_depth() as u64
            * slab.scanline_count() as u64
            * slab.n_elements() as u64;
        g.throughput(Throughput::Elements(delays_per_pass));
        for (name, engine) in engines(&spec) {
            g.bench_function(format!("{name}/{n_angles}"), |b| {
                b.iter(|| {
                    for id in 0..spec.volume_grid.n_depth() {
                        engine.fill_nappe_rx(id, &mut slab);
                        for (slot, it, ip) in slab.scanlines() {
                            let vox = VoxelIndex::new(it, ip, id);
                            for tx in 0..n_angles {
                                engine.combine_tx_row(tx, vox, slab.row(slot), &mut tx_row);
                            }
                        }
                    }
                    black_box(tx_row[0])
                })
            });
        }
    }
    g.finish();

    // The kernel's delay calls: per nappe one emit set-up, then per run
    // of one index group (16 rows) and transmit one emit over the active
    // aperture.
    const RUN: usize = 16;
    let mut g = c.benchmark_group("cpwc_quantize_run");
    for n_angles in ANGLES {
        let spec = usbf_bench::cpwc_spec(n_angles);
        let mut slab = NappeDelays::full(&spec);
        let rows = slab.scanline_count();
        let aperture = Beamformer::new(&spec).aperture().clone();
        let active = aperture.len();
        let mut indices = vec![0i32; RUN * active];
        let delays_per_pass =
            n_angles as u64 * spec.volume_grid.n_depth() as u64 * rows as u64 * active as u64;
        g.throughput(Throughput::Elements(delays_per_pass));
        for (name, engine) in engines(&spec) {
            g.bench_function(format!("{name}/{n_angles}"), |b| {
                b.iter(|| {
                    for id in 0..spec.volume_grid.n_depth() {
                        engine.begin_emit(id, aperture.runs(), &mut slab);
                        for tx in 0..n_angles {
                            for first in (0..rows).step_by(RUN) {
                                let run = first..(first + RUN).min(rows);
                                let out = &mut indices[..run.len() * active];
                                engine.emit_run(tx, &slab, run, aperture.runs(), out);
                            }
                        }
                    }
                    black_box(indices[0])
                })
            });
        }
    }
    g.finish();

    // End-to-end: the N-angle compound as one warm pipeline frame.
    let mut g = c.benchmark_group("cpwc_compound_frame");
    g.throughput(Throughput::Elements(1));
    let pool = Arc::new(ThreadPool::new(WORKERS));
    for n_angles in ANGLES {
        let spec = usbf_bench::cpwc_spec(n_angles);
        let schedule = NappeSchedule::fitted(&spec, WORKERS * 4);
        let rf = compound_rf(&spec);
        for (name, engine) in [
            (
                "EXACT",
                Arc::new(ExactEngine::new(&spec)) as Arc<dyn DelayEngine + Send + Sync>,
            ),
            (
                "TABLESTEER-18b",
                Arc::new(TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds")),
            ),
        ] {
            g.bench_function(format!("{name}/{n_angles}"), |b| {
                let mut pipe = FramePipeline::with_pool(
                    Beamformer::new(&spec),
                    engine.clone(),
                    FrameRing::new(vec![rf.clone()]),
                    Arc::clone(&pool),
                    &schedule,
                );
                pipe.next_volume().expect("warm-up frame");
                b.iter(|| {
                    let vol = pipe.next_volume().expect("warm frame");
                    black_box(vol.max_abs())
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_cpwc);
criterion_main!(benches);
