//! Property-based invariants of the acoustic simulation substrate.

use proptest::prelude::*;
use usbf_geometry::{ElementIndex, SystemSpec, Vec3};
use usbf_sim::{metrics, EchoSynthesizer, Phantom, Pulse, RfFrame};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pulse_is_bounded_by_unit_envelope(t in -2e-6f64..2e-6) {
        let p = Pulse::gaussian(4.0e6, 4.0e6, 32.0e6);
        prop_assert!(p.sample(t).abs() <= 1.0 + 1e-12);
    }

    #[test]
    fn pulse_envelope_decreases_away_from_peak(
        t in 0.0f64..8e-7,
        dt in 1e-8f64..2e-7,
    ) {
        // Compare envelopes (sampled at carrier peaks to avoid phase
        // effects): use the analytic envelope bound instead.
        let p = Pulse::gaussian(4.0e6, 4.0e6, 32.0e6);
        let env = |t: f64| (-t * t / (2.0 * p.sigma() * p.sigma())).exp();
        prop_assert!(env(t + dt) <= env(t));
    }

    #[test]
    fn echo_peak_time_matches_geometry(
        sx in -0.01f64..0.01,
        sz in 0.02f64..0.15,
        ex in 0usize..8,
        ey in 0usize..8,
    ) {
        let spec = SystemSpec::tiny();
        let target = Vec3::new(sx, 0.0, sz);
        let rf = EchoSynthesizer::new(&spec)
            .synthesize(&Phantom::point(target), &Pulse::from_spec(&spec));
        let e = ElementIndex::new(ex, ey);
        let expect = spec.two_way_delay_samples(target, spec.elements.position(e));
        let trace = rf.trace(e);
        let peak = metrics::peak_index(trace);
        prop_assert!((peak as f64 - expect).abs() <= 1.5, "peak {} vs {}", peak, expect);
    }

    #[test]
    fn echo_amplitude_scales_linearly(
        amp in 0.1f64..5.0,
    ) {
        let spec = SystemSpec::tiny();
        let pos = Vec3::new(0.0, 0.0, 0.06);
        let unit = Phantom::point(pos);
        let scaled = Phantom::from_scatterers(vec![usbf_sim::Scatterer { position: pos, amplitude: amp }]);
        let synth = EchoSynthesizer::new(&spec);
        let pulse = Pulse::from_spec(&spec);
        let a = synth.synthesize(&unit, &pulse);
        let b = synth.synthesize(&scaled, &pulse);
        prop_assert!((b.max_abs() - amp * a.max_abs()).abs() < 1e-9 * amp.max(1.0));
    }

    #[test]
    fn interp_is_between_neighbors(
        idx in 0usize..30,
        frac in 0.0f64..1.0,
        a in -2.0f64..2.0,
        b in -2.0f64..2.0,
    ) {
        let mut rf = RfFrame::zeros(1, 1, 32);
        let e = ElementIndex::new(0, 0);
        rf.trace_mut(e)[idx] = a;
        rf.trace_mut(e)[idx + 1] = b;
        let v = rf.sample_interp(e, idx as f64 + frac);
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    #[test]
    fn prefetch_never_panics_and_never_changes_a_gather(
        a in any::<i32>(),
        b in any::<i32>(),
        near_a in -40i32..80,
        near_b in -40i32..80,
        tx in 0usize..3,
        channel in 0u32..6,
        seed in 0u64..1000,
    ) {
        // A prefetch is a hint: for any window — random extremes and
        // windows near the 48-sample trace, in either order — it must
        // neither panic nor change what a gather reads.
        let mut rf = RfFrame::zeros_multi(3, 2, 48, 3);
        for t in 0..3 {
            for l in 0..6 {
                let e = ElementIndex::new(l % 3, l / 3);
                for (i, v) in rf.trace_for_mut(t, e).iter_mut().enumerate() {
                    *v = ((seed as usize + 31 * t + 7 * l + i) % 97) as f64 - 48.0;
                }
            }
        }
        let channels: Vec<u32> = (0..6).collect();
        let indices: Vec<i32> = (0..6).map(|k| near_a + 9 * k).collect();
        let delays: Vec<f64> = (0..6).map(|k| f64::from(near_b) + 7.25 * k as f64).collect();
        let read = |rf: &RfFrame| {
            let (mut near, mut lin) = (vec![0.0; 6], vec![0.0; 6]);
            rf.gather_nearest_into_for(tx, &channels, &indices, &mut near);
            rf.gather_linear_into_for(tx, &channels, &delays, &mut lin);
            (near, lin)
        };
        let before = read(&rf);
        rf.prefetch_window_for(tx, channel, a, b);
        rf.prefetch_window_for(tx, channel, near_a, near_b);
        rf.prefetch_window_for(tx, channel, near_b, near_a);
        let after = read(&rf);
        prop_assert_eq!(before, after);
    }

    #[test]
    fn fwhm_scales_with_gaussian_sigma(sigma in 2.0f64..10.0) {
        let profile: Vec<f64> = (0..201)
            .map(|i| (-((i as f64 - 100.0) / sigma).powi(2) / 2.0).exp())
            .collect();
        let w = metrics::fwhm(&profile);
        prop_assert!((w - 2.3548 * sigma).abs() < 0.2, "w = {} σ = {}", w, sigma);
    }

    #[test]
    fn envelope_never_negative(seed in 0u64..1000) {
        let spec = SystemSpec::tiny();
        let rf = EchoSynthesizer::new(&spec)
            .with_options(usbf_sim::EchoOptions { noise_rms: 0.3, seed, ..Default::default() })
            .synthesize(&Phantom::empty(), &Pulse::from_spec(&spec));
        let trace = rf.trace(ElementIndex::new(0, 0));
        let env = usbf_sim::envelope(&trace[..256], 4.0e6, 32.0e6);
        prop_assert!(env.iter().all(|&v| v >= 0.0));
    }
}
