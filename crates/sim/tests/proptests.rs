//! Property-based invariants of the acoustic simulation substrate.

use proptest::prelude::*;
use usbf_geometry::{ElementIndex, SystemSpec, Vec3};
use usbf_sim::{metrics, EchoSynthesizer, Phantom, Pulse, RfFrame, FULL_SCALE};

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
        let trace = rf.trace(e).to_vec();
        let peak = metrics::peak_index(&trace);
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
    fn prefetch_never_panics_and_never_changes_a_read(
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
        // neither panic nor change what a read returns.
        let rf = RfFrame::from_traces(3, 2, 48, 3, |t, e, trace| {
            let l = e.iy * 3 + e.ix;
            for (i, v) in trace.iter_mut().enumerate() {
                *v = ((seed as usize + 31 * t + 7 * l + i) % 97) as f64 - 48.0;
            }
        })
        .unwrap();
        let read = |rf: &RfFrame| -> Vec<f64> {
            (0..6)
                .map(|l| {
                    let e = ElementIndex::new(l % 3, l / 3);
                    let i = i64::from(near_a) + 9 * l as i64;
                    rf.trace_for(tx, e).raw_at(i)
                })
                .collect()
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
        let trace = rf.trace(ElementIndex::new(0, 0)).to_vec();
        let env = usbf_sim::envelope(&trace[..256], 4.0e6, 32.0e6);
        prop_assert!(env.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn quantized_reads_stay_within_half_a_step(
        nx in 1usize..4,
        ny in 1usize..4,
        n in 1usize..40,
        n_tx in 1usize..3,
        magnitude in -12i32..12,
        seed in 0u64..1_000_000,
    ) {
        // Random samples over a random decade: the frame's largest
        // |sample| maps to ±FULL_SCALE, every read is within scale/2 of
        // its input, and a copy carries the raw samples and the scale.
        let amp = 10f64.powi(magnitude);
        let mut state = seed;
        let mut inputs = Vec::new();
        let rf = RfFrame::from_traces(nx, ny, n, n_tx, |_, _, t| {
            for v in t.iter_mut() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *v = amp * ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
            }
            inputs.extend_from_slice(t);
        })
        .unwrap();
        let peak = inputs.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        prop_assert_eq!(rf.scale(), peak / f64::from(FULL_SCALE));
        let mut k = 0;
        for tx in 0..n_tx {
            for c in 0..(nx * ny) as u32 {
                let trace = rf.channel_trace_for(tx, c);
                for (v, &raw) in trace.iter().zip(trace.raw()) {
                    let x = inputs[k];
                    k += 1;
                    prop_assert!(raw.unsigned_abs() <= FULL_SCALE.unsigned_abs());
                    if rf.scale() != 0.0 {
                        prop_assert_eq!(raw, (x / rf.scale()).round_ties_even() as i16);
                    }
                    prop_assert!(
                        (v - x).abs() <= rf.scale() / 2.0 + 2.0 * f64::EPSILON * x.abs(),
                        "{} read as {} at scale {}", x, v, rf.scale()
                    );
                    if x.abs() == peak {
                        prop_assert_eq!(raw.unsigned_abs(), FULL_SCALE.unsigned_abs());
                    }
                }
            }
        }
        let mut copy = RfFrame::zeros_multi(nx, ny, n, n_tx);
        copy.fill(-amp).expect("a finite fill value");
        copy.copy_from(&rf);
        prop_assert_eq!(copy.scale().to_bits(), rf.scale().to_bits());
        prop_assert_eq!(&copy, &rf);
    }
}
