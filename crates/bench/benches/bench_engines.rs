//! Host-side delay-generation throughput per engine (delays/s on CPU).
//!
//! Table II's throughput column is an FPGA figure (regenerated by
//! `exp_table2`); this bench gives the software-model equivalent and the
//! relative cost ordering of the architectures.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;
use usbf_core::{
    DelayEngine, ExactEngine, NaiveTableEngine, NappeDelays, TableFreeConfig, TableFreeEngine,
    TableSteerConfig, TableSteerEngine, GROUP_ROWS,
};
use usbf_geometry::SystemSpec;

fn queries(
    spec: &SystemSpec,
    n: usize,
) -> Vec<(usbf_geometry::VoxelIndex, usbf_geometry::ElementIndex)> {
    let v = &spec.volume_grid;
    let e = &spec.elements;
    (0..n)
        .map(|i| {
            (
                v.voxel_at((i * 7919) % v.voxel_count()),
                e.element_at((i * 127) % e.count()),
            )
        })
        .collect()
}

fn bench_engines(c: &mut Criterion) {
    let spec = SystemSpec::reduced();
    let q = queries(&spec, 4096);
    let exact = ExactEngine::new(&spec);
    let naive = NaiveTableEngine::build(&spec, u64::MAX).expect("reduced spec fits");
    let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds");
    let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds");

    let mut g = c.benchmark_group("delay_index_throughput");
    g.throughput(Throughput::Elements(q.len() as u64));
    let engines: [(&str, &dyn DelayEngine); 4] = [
        ("exact", &exact),
        ("naive_table", &naive),
        ("tablefree", &tablefree),
        ("tablesteer18", &tablesteer),
    ];
    for (name, eng) in engines {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut acc = 0i64;
                for &(vox, e) in &q {
                    acc = acc.wrapping_add(eng.delay_index(0, black_box(vox), black_box(e)));
                }
                acc
            })
        });
    }
    g.finish();

    // Batched nappe-slab generation vs the scalar per-voxel fallback: the
    // tentpole comparison. Throughput is delays per second; one iteration
    // fills four representative nappes (shallow, two mid, deep) over the
    // full fan and all elements of the reduced geometry.
    let nappes = [0usize, 42, 84, 127];
    let slab_entries =
        (spec.volume_grid.scanline_count() * spec.elements.count() * nappes.len()) as u64;
    let mut g = c.benchmark_group("delay_fill_nappe");
    g.throughput(Throughput::Elements(slab_entries));
    let batched: [(&str, &dyn DelayEngine); 4] = [
        ("exact", &exact),
        ("naive_table", &naive),
        ("tablefree", &tablefree),
        ("tablesteer18", &tablesteer),
    ];
    for (name, eng) in batched {
        g.bench_function(format!("{name}_batched"), |b| {
            let mut slab = NappeDelays::full(&spec);
            b.iter(|| {
                for id in nappes {
                    eng.fill_nappe(black_box(id), &mut slab);
                }
                slab.samples()[0]
            })
        });
        g.bench_function(format!("{name}_scalar"), |b| {
            let mut slab = NappeDelays::full(&spec);
            b.iter(|| {
                for id in nappes {
                    slab.fill_scalar(eng, 0, black_box(id));
                }
                slab.samples()[0]
            })
        });
    }
    g.finish();

    // The tile kernel's delay source on the mid band shape: one
    // whole-fan depth band of 16 nappes of the mid geometry, its slab
    // re-pointed at each of the 8 tiles a 2-worker pool's schedule cuts
    // the fan into; per (tile, nappe) one emit set-up, then one emit per
    // 16-row run over the Hann aperture's 900 active channels.
    // Throughput is active delays, so the time per element is ns per
    // active delay.
    let mid = usbf_bench::mid_spec();
    let hann = usbf_beamform::Beamformer::new(&mid);
    let runs = hann.aperture().runs();
    let active = hann.aperture().len();
    let tiles = usbf_core::NappeSchedule::fitted(&mid, 8).tiles();
    let band = 24..40;
    let mut g = c.benchmark_group("delay_emit");
    g.throughput(Throughput::Elements(
        (mid.volume_grid.scanline_count() * active * band.len()) as u64,
    ));
    let mid_engines: [(&str, Box<dyn DelayEngine>); 3] = [
        (
            "tablesteer18",
            Box::new(TableSteerEngine::new(&mid, TableSteerConfig::bits18()).expect("builds")),
        ),
        (
            "tablefree",
            Box::new(TableFreeEngine::new(&mid, TableFreeConfig::paper()).expect("builds")),
        ),
        ("exact", Box::new(ExactEngine::new(&mid))),
    ];
    for (name, eng) in &mid_engines {
        g.bench_function(format!("{name}_mid_band"), |b| {
            let mut slab = NappeDelays::for_tile(&mid, tiles[0]);
            let mut staged = vec![0i32; 16 * active];
            b.iter(|| {
                for id in band.clone() {
                    for &tile in &tiles {
                        slab.retarget(tile);
                        eng.begin_emit(black_box(id), runs, &mut slab);
                        for first in (0..tile.scanlines()).step_by(16) {
                            let run = first..(first + 16).min(tile.scanlines());
                            let out = &mut staged[..run.len() * active];
                            eng.emit_run(0, &slab, run, runs, out);
                        }
                    }
                }
                staged[0]
            })
        });
    }
    // TABLESTEER's direct group emit on the same band: every 16-row
    // group written as one 16-entry line per active channel, its read
    // window widened, straight into a grouped block.
    g.bench_function("tablesteer18_mid_band_group", |b| {
        let steer = TableSteerEngine::new(&mid, TableSteerConfig::bits18()).expect("builds");
        let mut slab = NappeDelays::for_tile(&mid, tiles[0]);
        let mut block = vec![[0i32; GROUP_ROWS]; active * tiles[0].scanlines() / GROUP_ROWS];
        let mut windows = vec![0i32; 2 * active];
        b.iter(|| {
            for id in band.clone() {
                for &tile in &tiles {
                    slab.retarget(tile);
                    steer.begin_emit(black_box(id), runs, &mut slab);
                    let groups = block.chunks_exact_mut(active);
                    for (first, lines) in (0..tile.scanlines()).step_by(GROUP_ROWS).zip(groups) {
                        let taken =
                            steer.emit_group(0, &mut slab, first, runs, lines, &mut windows);
                        assert!(taken, "a single transmit takes the direct emit");
                    }
                }
            }
            block[0][0]
        })
    });
    g.finish();

    let mut g = c.benchmark_group("engine_construction");
    g.bench_function("tablefree_build_reduced", |b| {
        b.iter_batched(
            || spec.clone(),
            |s| TableFreeEngine::new(&s, TableFreeConfig::paper()).expect("builds"),
            BatchSize::SmallInput,
        )
    });
    g.bench_function("tablesteer_build_reduced", |b| {
        b.iter_batched(
            || spec.clone(),
            |s| TableSteerEngine::new(&s, TableSteerConfig::bits18()).expect("builds"),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
