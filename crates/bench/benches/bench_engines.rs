//! Host-side delay-generation throughput per engine (delays/s on CPU).
//!
//! Table II's throughput column is an FPGA figure (regenerated by
//! `exp_table2`); this bench gives the software-model equivalent and the
//! relative cost ordering of the architectures.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;
use usbf_core::{
    DelayEngine, ExactEngine, NaiveTableEngine, NappeDelays, TableFreeConfig, TableFreeEngine,
    TableSteerConfig, TableSteerEngine,
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
