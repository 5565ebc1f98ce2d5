//! End-to-end beamforming rate (voxels/s) per delay engine.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use usbf_beamform::{Apodization, Beamformer};
use usbf_core::{
    DelayEngine, ExactEngine, TableFreeConfig, TableFreeEngine, TableSteerConfig, TableSteerEngine,
};
use usbf_geometry::{SystemSpec, VoxelIndex};
use usbf_sim::{EchoSynthesizer, Phantom, Pulse};

fn bench_beamform(c: &mut Criterion) {
    let spec = SystemSpec::tiny();
    let vox = VoxelIndex::new(4, 4, 8);
    let rf = EchoSynthesizer::new(&spec).synthesize(
        &Phantom::point(spec.volume_grid.position(vox)),
        &Pulse::from_spec(&spec),
    );
    let bf = Beamformer::new(&spec).with_apodization(Apodization::Hann);
    let exact = ExactEngine::new(&spec);
    let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds");
    let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds");

    let mut g = c.benchmark_group("beamform_volume_tiny");
    g.throughput(Throughput::Elements(spec.volume_grid.voxel_count() as u64));
    let engines: [(&str, &dyn DelayEngine); 3] = [
        ("exact", &exact),
        ("tablefree", &tablefree),
        ("tablesteer18", &tablesteer),
    ];
    for (name, eng) in engines {
        g.bench_function(name, |b| {
            b.iter(|| bf.beamform_volume(black_box(eng), black_box(&rf)))
        });
    }
    g.finish();

    // Batched parallel pipeline vs the scalar per-voxel reference walk on
    // a realistic fan (32×32×128 voxels, 1024 elements): nappe order runs
    // the tiled kernel across threads, scanline order the scalar loop.
    // Outputs are bit-identical; only the throughput differs.
    use usbf_geometry::scan::ScanOrder;
    let red = SystemSpec::reduced();
    let red_rf = EchoSynthesizer::new(&red).synthesize(
        &Phantom::point(red.volume_grid.position(VoxelIndex::new(16, 16, 64))),
        &Pulse::from_spec(&red),
    );
    let red_steer = TableSteerEngine::new(&red, TableSteerConfig::bits18()).expect("builds");
    let mut g = c.benchmark_group("beamform_volume_reduced");
    g.throughput(Throughput::Elements(red.volume_grid.voxel_count() as u64));
    g.bench_function("tablesteer18_batched_parallel", |b| {
        let bf = Beamformer::new(&red).with_order(ScanOrder::NappeByNappe);
        b.iter(|| bf.beamform_volume(black_box(&red_steer), black_box(&red_rf)))
    });
    g.bench_function("tablesteer18_scalar_single_thread", |b| {
        let bf = Beamformer::new(&red).with_order(ScanOrder::ScanlineByScanline);
        b.iter(|| bf.beamform_volume(black_box(&red_steer), black_box(&red_rf)))
    });
    g.finish();

    // Single-thread inner-kernel throughput on one schedule tile of the
    // reduced spec (1024 elements per voxel): the voxel-parallel tile
    // kernel (emit → index block → channel-outer MAC).
    use usbf_beamform::TileState;
    let tile = usbf_core::NappeSchedule::fitted(&red, 64).tiles()[27];
    let tile_voxels = (tile.scanlines() * red.volume_grid.n_depth()) as u64;
    let mut g = c.benchmark_group("tile_kernel_reduced");
    g.throughput(Throughput::Elements(tile_voxels));
    let red_exact = ExactEngine::new(&red);
    for (name, eng) in [
        ("tablesteer18", &red_steer as &dyn DelayEngine),
        ("exact", &red_exact as &dyn DelayEngine),
    ] {
        let bf = Beamformer::new(&red).with_apodization(Apodization::Hann);
        g.bench_function(format!("{name}_vectorized"), |b| {
            let mut state = TileState::new(&bf, tile);
            b.iter(|| {
                bf.beamform_tile_into(black_box(eng), black_box(&red_rf), &mut state);
                black_box(state.values()[0])
            })
        });
    }
    // The same kernel as a depth-band task: 16 nappes over the whole fan,
    // its slab re-pointed at each of the 8 tiles a 2-worker pool's
    // schedule cuts the fan into. A 128-scanline tile's block (461 KB at
    // 900 channels) is all one MAC pass holds, so every channel's lookups
    // for a nappe are one pass over its trace per tile. Voxels per second
    // compare directly with the fan-tile task above.
    let tiles = usbf_core::NappeSchedule::fitted(&red, 8).tiles();
    let band = 56..72;
    g.throughput(Throughput::Elements(
        (red.volume_grid.scanline_count() * band.len()) as u64,
    ));
    g.bench_function("tablesteer18_whole_fan_band", |b| {
        let bf = Beamformer::new(&red).with_apodization(Apodization::Hann);
        let mut state = TileState::band(&bf, &tiles, band.clone());
        b.iter(|| {
            bf.beamform_tile_into(black_box(&red_steer), black_box(&red_rf), &mut state);
            black_box(state.values()[0])
        })
    });
    g.finish();

    // The nearest kernel's pack and MAC stages, AVX2 against scalar, on
    // one whole-fan band of the reduced spec (1024 rows × 900 Hann
    // channels, nappe 64): the pack transposes every staged 16-row group
    // into the grouped block (throughput in entries), and the MAC sums
    // every channel of that block into one accumulator per row
    // (throughput in MACs). The staged rows are precomputed, so the pack
    // reads them from a 3.7 MB buffer rather than one group kept hot.
    use usbf_beamform::kernel_stages::{mac_channel_scalar, pack_group_scalar, Avx2, MAC_CHANNELS};
    let hann = Beamformer::new(&red).with_apodization(Apodization::Hann);
    let aperture = hann.aperture();
    let active = aperture.len();
    let mut slab = usbf_core::NappeDelays::full(&red);
    red_steer.begin_emit(64, aperture.runs(), &mut slab);
    let rows = slab.scanline_count();
    let mut staged = vec![0; rows * active];
    red_steer.emit_run(0, &slab, 0..rows, aperture.runs(), &mut staged);
    let group_len = 16 * active;
    let mut block = vec![0; staged.len()];
    let (mut lows, mut highs) = (vec![i32::MAX; active], vec![i32::MIN; active]);
    let avx2 = Avx2::detect();
    let mut g = c.benchmark_group("tile_kernel_pack");
    g.throughput(Throughput::Elements(staged.len() as u64));
    g.bench_function("scalar", |b| {
        b.iter(|| {
            for (stage, group) in staged
                .chunks_exact(group_len)
                .zip(block.chunks_exact_mut(group_len))
            {
                pack_group_scalar(black_box(stage), group, &mut lows, &mut highs, 0);
            }
            black_box(block[0])
        })
    });
    if let Some(avx2) = avx2 {
        g.bench_function("avx2", |b| {
            b.iter(|| {
                for (stage, group) in staged
                    .chunks_exact(group_len)
                    .zip(block.chunks_exact_mut(group_len))
                {
                    let done = avx2.pack(black_box(stage), group, &mut lows, &mut highs);
                    assert_eq!(done, active / 16 * 16);
                }
                black_box(block[0])
            })
        });
    }
    g.finish();
    let channels = aperture.channels();
    let weights = aperture.weights();
    let mut acc = vec![0.0; rows];
    let mut g = c.benchmark_group("tile_kernel_mac");
    g.throughput(Throughput::Elements((rows * active) as u64));
    g.bench_function("scalar", |b| {
        b.iter(|| {
            acc.fill(0.0);
            for (k, (&chan, &w)) in channels.iter().zip(weights).enumerate() {
                let trace = red_rf.channel_trace_for(0, chan).raw();
                mac_channel_scalar(&block[k * 16..], active, trace, w, &mut acc);
            }
            black_box(acc[0])
        })
    });
    if let Some(avx2) = avx2 {
        assert_eq!(active % MAC_CHANNELS, 0, "every channel in a block of four");
        g.bench_function("avx2", |b| {
            b.iter(|| {
                acc.fill(0.0);
                for first in (0..active).step_by(MAC_CHANNELS) {
                    let traces = std::array::from_fn(|c| {
                        red_rf
                            .channel_trace_for(0, channels[first + c])
                            .raw_padded()
                    });
                    let w = std::array::from_fn(|c| weights[first + c]);
                    avx2.mac4(&block[first * 16..], active, traces, w, &mut acc);
                }
                black_box(acc[0])
            })
        });
    }
    g.finish();

    // TABLEFREE slab-fill throughput (delays/s) on the reduced spec: the
    // one-pass row evaluator.
    let red_free = TableFreeEngine::new(&red, TableFreeConfig::paper()).expect("builds");
    let mut g = c.benchmark_group("tablefree_fill_reduced");
    {
        let mut slab = usbf_core::NappeDelays::full(&red);
        let per_pass = red.volume_grid.n_depth() as u64
            * slab.scanline_count() as u64
            * slab.n_elements() as u64;
        g.throughput(Throughput::Elements(per_pass));
        g.bench_function("batched_rows", |b| {
            b.iter(|| {
                for id in 0..red.volume_grid.n_depth() {
                    red_free.fill_nappe(id, &mut slab);
                }
                black_box(slab.samples()[0])
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("beamform_single_voxel");
    g.bench_function("exact_hann", |b| {
        b.iter(|| bf.beamform_voxel(&exact, black_box(&rf), black_box(vox)))
    });
    g.finish();

    let mut g = c.benchmark_group("echo_synthesis");
    let phantom = Phantom::speckle(
        256,
        usbf_geometry::Vec3::new(-0.02, -0.02, 0.05),
        usbf_geometry::Vec3::new(0.02, 0.02, 0.15),
        7,
    );
    let pulse = Pulse::from_spec(&spec);
    g.bench_function("speckle_256_tiny", |b| {
        b.iter(|| EchoSynthesizer::new(&spec).synthesize(black_box(&phantom), black_box(&pulse)))
    });
    // The live-source path: one pass into a kept frame and scratch.
    g.bench_function("speckle_256_tiny_into", |b| {
        let synth = EchoSynthesizer::new(&spec);
        let mut scratch = vec![0.0; synth.frame_len()];
        let mut out = synth.synthesize(&phantom, &pulse);
        b.iter(|| {
            synth
                .synthesize_into(
                    black_box(&phantom),
                    black_box(&pulse),
                    &mut scratch,
                    &mut out,
                )
                .expect("finite echoes");
            black_box(out.scale())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_beamform);
criterion_main!(benches);
