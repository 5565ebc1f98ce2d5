//! End-to-end integration: synthetic echoes → delay engines → delay-and-
//! sum → image metrics.

use usbf::beamform::{Apodization, Beamformer};
use usbf::core::{
    DelayEngine, ExactEngine, TableFreeConfig, TableFreeEngine, TableSteerConfig, TableSteerEngine,
};
use usbf::geometry::scan::ScanOrder;
use usbf::geometry::{SystemSpec, VoxelIndex};
use usbf::sim::{metrics, EchoOptions, EchoSynthesizer, Phantom, Pulse};

fn point_setup(spec: &SystemSpec, vox: VoxelIndex) -> usbf::sim::RfFrame {
    let target = spec.volume_grid.position(vox);
    EchoSynthesizer::new(spec).synthesize(&Phantom::point(target), &Pulse::from_spec(spec))
}

#[test]
fn every_engine_focuses_the_point_on_its_voxel() {
    let spec = SystemSpec::tiny();
    let vox = VoxelIndex::new(5, 2, 9);
    let rf = point_setup(&spec, vox);
    let bf = Beamformer::new(&spec);
    let exact = ExactEngine::new(&spec);
    let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
    let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
    for eng in [&exact as &dyn DelayEngine, &tablefree, &tablesteer] {
        let vol = bf.beamform_volume(eng, &rf);
        assert_eq!(vol.argmax(), vox, "{} failed to focus", eng.name());
    }
}

#[test]
fn approximate_engines_preserve_most_of_the_peak() {
    let spec = SystemSpec::tiny();
    let vox = VoxelIndex::new(4, 4, 8);
    let rf = point_setup(&spec, vox);
    let bf = Beamformer::new(&spec).with_apodization(Apodization::Rect);
    let exact_peak = bf.beamform_voxel(&ExactEngine::new(&spec), &rf, vox).abs();
    let tf = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
    let ts = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
    for (name, eng) in [("TABLEFREE", &tf as &dyn DelayEngine), ("TABLESTEER", &ts)] {
        let peak = bf.beamform_voxel(eng, &rf, vox).abs();
        assert!(
            peak > 0.85 * exact_peak,
            "{name} peak ratio {}",
            peak / exact_peak
        );
    }
}

#[test]
fn scan_order_equivalence_through_all_engines() {
    // Fig. 1: identical volumes regardless of traversal order, for every
    // engine (delays are deterministic functions of (S, D)).
    let spec = SystemSpec::tiny();
    let rf = point_setup(&spec, VoxelIndex::new(3, 5, 7));
    let exact = ExactEngine::new(&spec);
    let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits14()).unwrap();
    for eng in [&exact as &dyn DelayEngine, &tablesteer] {
        let a = Beamformer::new(&spec)
            .with_order(ScanOrder::NappeByNappe)
            .beamform_volume(eng, &rf);
        let b = Beamformer::new(&spec)
            .with_order(ScanOrder::ScanlineByScanline)
            .beamform_volume(eng, &rf);
        assert_eq!(a, b, "{} volumes differ across orders", eng.name());
    }
}

#[test]
fn apodization_trades_peak_for_sidelobes() {
    // Needs an aperture wide enough for resolvable sidelobes (32 columns
    // → first sidelobe ≈5° off axis), a lateral grid fine enough to
    // sample them (65 θ lines over ±36.5°), and a narrowband (quasi-CW)
    // pulse so the array factor — not pulse decorrelation — shapes the
    // off-axis response; target exactly on the central line.
    let base = SystemSpec::tiny();
    let spec = SystemSpec::new(
        base.speed_of_sound,
        base.sampling_frequency,
        usbf::geometry::TransducerSpec {
            nx: 32,
            ny: 8,
            bandwidth: 0.4e6,
            ..base.transducer.clone()
        },
        usbf::geometry::VolumeSpec {
            n_theta: 65,
            n_phi: 9,
            ..base.volume.clone()
        },
        base.origin,
        base.frame_rate,
    );
    let vox = VoxelIndex::new(32, 4, 8);
    let rf = point_setup(&spec, vox);
    let exact = ExactEngine::new(&spec);
    let lateral = |apod: Apodization| -> Vec<f64> {
        let bf = Beamformer::new(&spec).with_apodization(apod);
        (0..65)
            .map(|it| bf.beamform_voxel(&exact, &rf, VoxelIndex::new(it, 4, 8)))
            .collect()
    };
    let lat_rect = lateral(Apodization::Rect);
    let lat_hann = lateral(Apodization::Hann);
    // Rect keeps more energy at the peak…
    assert!(lat_rect[32].abs() > lat_hann[32].abs());
    // …and Hann widens the main lobe…
    let fwhm_rect = metrics::fwhm(&lat_rect);
    let fwhm_hann = metrics::fwhm(&lat_hann);
    assert!(
        fwhm_hann > fwhm_rect,
        "hann {fwhm_hann} vs rect {fwhm_rect}"
    );
    // …while suppressing sidelobes outside each window's own main lobe.
    let psl_rect = metrics::peak_sidelobe_db(&lat_rect, fwhm_rect.ceil() as usize + 2);
    let psl_hann = metrics::peak_sidelobe_db(&lat_hann, fwhm_hann.ceil() as usize + 2);
    assert!(
        psl_hann < psl_rect,
        "hann PSL {psl_hann} should be below rect PSL {psl_rect}"
    );
}

#[test]
fn noisy_speckle_image_is_stable_across_engines() {
    let spec = SystemSpec::tiny();
    let phantom = Phantom::speckle(
        500,
        usbf::geometry::Vec3::new(-0.02, -0.02, 0.06),
        usbf::geometry::Vec3::new(0.02, 0.02, 0.12),
        99,
    );
    let rf = EchoSynthesizer::new(&spec)
        .with_options(EchoOptions {
            noise_rms: 0.05,
            seed: 1,
            ..EchoOptions::default()
        })
        .synthesize(&phantom, &Pulse::from_spec(&spec));
    let bf = Beamformer::new(&spec);
    let ve = bf.beamform_volume(&ExactEngine::new(&spec), &rf);
    let vs = bf.beamform_volume(
        &TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap(),
        &rf,
    );
    let nrmse = metrics::nrmse(ve.as_slice(), vs.as_slice());
    assert!(nrmse < 0.2, "nrmse = {nrmse}");
}
