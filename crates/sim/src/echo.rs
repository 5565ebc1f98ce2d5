//! RF echo synthesis: exact two-way propagation into sampled traces.

use crate::rf::trace_peak;
use crate::{Phantom, Pulse, RfError, RfFrame};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use usbf_geometry::{Directivity, ElementIndex, SystemSpec};

/// Physical options for echo synthesis.
#[derive(Debug, Clone)]
pub struct EchoOptions {
    /// Apply `1/(r_tx·r_rx)` spherical spreading loss (normalized so a
    /// scatterer at 10 mm has unit gain).
    pub spreading: bool,
    /// Element receive directivity weighting (None = omnidirectional).
    pub directivity: Option<Directivity>,
    /// RMS of additive white Gaussian noise (0 = noiseless).
    pub noise_rms: f64,
    /// Noise seed (synthesis is deterministic given the seed).
    pub seed: u64,
}

impl Default for EchoOptions {
    fn default() -> Self {
        EchoOptions {
            spreading: false,
            directivity: None,
            noise_rms: 0.0,
            seed: 0,
        }
    }
}

/// Synthesizes per-element receive traces for a phantom: for every
/// transmit event of the spec's sequence, each (scatterer, element) pair
/// adds a pulse centred at the exact Eq. 2 delay `(d_tx(P) + |P−D|)/c`,
/// where the transmit leg `d_tx` follows the spec's
/// [`TransmitModel`](usbf_geometry::TransmitModel) — `|P−O|` for the
/// historical point emission, the wavefront projection `n̂·P` for a
/// steered plane wave. Plane-wave scatterer amplitudes are additionally
/// scaled by the insonification weight (zero outside the steered
/// aperture footprint), so echoes only come from regions the wave
/// actually sweeps.
#[derive(Debug, Clone)]
pub struct EchoSynthesizer {
    spec: SystemSpec,
    options: EchoOptions,
}

impl EchoSynthesizer {
    /// Creates a synthesizer with default (noiseless, omnidirectional)
    /// options.
    #[must_use]
    pub fn new(spec: &SystemSpec) -> Self {
        EchoSynthesizer {
            spec: spec.clone(),
            options: EchoOptions::default(),
        }
    }

    /// Sets the synthesis options.
    #[must_use = "with_options returns the configured synthesizer; dropping it discards the options"]
    pub fn with_options(mut self, options: EchoOptions) -> Self {
        self.options = options;
        self
    }

    /// The spec this synthesizer was built for.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Generates one receive frame — one acquisition block per transmit
    /// event of the spec's sequence.
    ///
    /// Bit-identical to [`synthesize_into`](Self::synthesize_into), but
    /// lean: it stages one trace at full `f64` width, not the whole
    /// frame, and so synthesizes every trace twice — once to find the
    /// frame's largest |sample|, which sets its scale, and once to
    /// quantize. A frame-long staging buffer would be four times the
    /// 16-bit frame; this one-shot path builds set-up rings, where peak
    /// memory counts and per-frame time does not.
    ///
    /// # Panics
    ///
    /// Panics if an echo is NaN or ±∞ (a non-finite scatterer amplitude or
    /// position); [`synthesize_into`](Self::synthesize_into) reports that
    /// as an [`RfError`] instead.
    pub fn synthesize(&self, phantom: &Phantom, pulse: &Pulse) -> RfFrame {
        let spec = &self.spec;
        let mut rf = RfFrame::zeros_multi(
            spec.elements.nx(),
            spec.elements.ny(),
            spec.echo_buffer_len(),
            spec.n_transmits(),
        );
        let mut trace = vec![0.0; rf.n_samples()];
        let mut peak = 0.0f64;
        let found = self.traces(phantom, pulse, &mut trace, |tx, e, samples| {
            peak = peak.max(trace_peak(tx, e, samples)?);
            Ok(())
        });
        if let Err(e) = found {
            panic!("echo synthesis failed: {e}");
        }
        rf.set_peak(peak);
        let stored = self.traces(phantom, pulse, &mut trace, |tx, e, samples| {
            rf.store_trace(tx, e, samples);
            Ok(())
        });
        debug_assert!(stored.is_ok());
        rf
    }

    /// Generates one receive frame into a caller-owned buffer — the
    /// allocation-free variant real-time frame sources drive every
    /// acquisition.
    ///
    /// Every trace is synthesized once, at full `f64` width, into
    /// `scratch` (grown to one frame of samples if shorter — keep it
    /// across calls), and the frame is quantized once from there.
    ///
    /// # Errors
    ///
    /// [`RfError::NonFinite`] if an echo is NaN or ±∞; `rf` then keeps
    /// its previous contents.
    ///
    /// # Panics
    ///
    /// Panics if `rf`'s shape does not match the spec: the element grid
    /// must be exactly `nx × ny` (a transposed grid would silently route
    /// traces to the wrong elements) and the trace depth must be the
    /// spec's echo-buffer length (a shorter buffer would silently
    /// truncate echoes).
    pub fn synthesize_into(
        &self,
        phantom: &Phantom,
        pulse: &Pulse,
        scratch: &mut Vec<f64>,
        rf: &mut RfFrame,
    ) -> Result<(), RfError> {
        let spec = &self.spec;
        assert!(
            rf.nx() == spec.elements.nx()
                && rf.ny() == spec.elements.ny()
                && rf.n_samples() == spec.echo_buffer_len()
                && rf.n_transmits() == spec.n_transmits(),
            "RF frame shape {}x{}x{}x{} must match the spec's {}x{}x{}x{}",
            rf.n_transmits(),
            rf.nx(),
            rf.ny(),
            rf.n_samples(),
            spec.n_transmits(),
            spec.elements.nx(),
            spec.elements.ny(),
            spec.echo_buffer_len()
        );
        let len = self.frame_len();
        if scratch.len() < len {
            scratch.resize(len, 0.0);
        }
        let staged = &mut scratch[..len];
        let mut peak = 0.0f64;
        self.traces(phantom, pulse, staged, |tx, e, samples| {
            peak = peak.max(trace_peak(tx, e, samples)?);
            Ok(())
        })?;
        rf.store_frame(peak, staged);
        Ok(())
    }

    /// Samples in one frame of the spec: the length of a
    /// [`synthesize_into`](Self::synthesize_into) scratch buffer.
    pub fn frame_len(&self) -> usize {
        let spec = &self.spec;
        spec.n_transmits() * spec.elements.count() * spec.echo_buffer_len()
    }

    /// Synthesizes every trace of the spec's sequence, one at a time in
    /// the frame's storage order (transmit-major, in element order), and
    /// hands each to `each`. Trace `k` is written at `k · n_samples`
    /// modulo the length of `staging`: a frame-long `staging` keeps every
    /// trace, a one-trace one reuses its start. Every call draws the same
    /// noise: the stream restarts from the seed.
    fn traces(
        &self,
        phantom: &Phantom,
        pulse: &Pulse,
        staging: &mut [f64],
        mut each: impl FnMut(usize, ElementIndex, &[f64]) -> Result<(), RfError>,
    ) -> Result<(), RfError> {
        let spec = &self.spec;
        let n_samples = spec.echo_buffer_len();
        debug_assert!(!staging.is_empty() && staging.len().is_multiple_of(n_samples));
        let half = pulse.half_duration_samples() as i64;
        let fs = spec.sampling_frequency;
        // Every transmit event is its own acquisition, so each block gets
        // independent noise from the one seeded stream.
        let mut rng =
            (self.options.noise_rms > 0.0).then(|| StdRng::seed_from_u64(self.options.seed));

        let mut at = 0;
        for tx in 0..spec.n_transmits() {
            for e in spec.elements.iter() {
                let d = spec.elements.position(e);
                let start = at;
                at = (at + n_samples) % staging.len();
                let trace = &mut staging[start..start + n_samples];
                trace.fill(0.0);
                for s in phantom.scatterers() {
                    let r_tx = spec.transmit_distance(tx, s.position);
                    let r_rx = s.position.distance(d);
                    let t = (r_tx + r_rx) / spec.speed_of_sound;
                    let center = t * fs;
                    let mut amp = s.amplitude * spec.transmit_weight(tx, s.position);
                    if self.options.spreading {
                        let norm = 10.0e-3;
                        amp *= (norm * norm) / (r_tx.max(1e-6) * r_rx.max(1e-6));
                    }
                    if let Some(dir) = &self.options.directivity {
                        amp *= dir.weight(s.position, d);
                    }
                    if amp == 0.0 {
                        continue;
                    }
                    let lo = ((center.ceil() as i64) - half).max(0);
                    let hi = ((center.floor() as i64) + half).min(n_samples as i64 - 1);
                    for i in lo..=hi {
                        trace[i as usize] += amp * pulse.sample((i as f64 - center) / fs);
                    }
                }
                if let Some(rng) = &mut rng {
                    for v in trace.iter_mut() {
                        // Box–Muller: two uniforms → one standard normal.
                        let u1: f64 = rng.random_range(f64::EPSILON..1.0);
                        let u2: f64 = rng.random_range(0.0..1.0);
                        let n = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                        *v += self.options.noise_rms * n;
                    }
                }
                each(tx, e, trace)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usbf_geometry::{deg, ElementIndex, Vec3};

    fn spec() -> SystemSpec {
        SystemSpec::tiny()
    }

    #[test]
    fn echo_lands_at_exact_delay() {
        let spec = spec();
        let target = Vec3::new(0.0, 0.0, 0.05);
        let rf = EchoSynthesizer::new(&spec)
            .synthesize(&Phantom::point(target), &Pulse::from_spec(&spec));
        // Find the peak of one element's trace; it must sit at the
        // rounded two-way delay.
        let e = ElementIndex::new(3, 3);
        let trace = rf.trace(e);
        let expect = spec.two_way_delay_samples(target, spec.elements.position(e));
        let (peak, _) = trace
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap();
        assert!(
            (peak as f64 - expect).abs() <= 1.0,
            "peak {peak} vs expected {expect}"
        );
    }

    #[test]
    fn empty_phantom_gives_silence() {
        let spec = spec();
        let rf =
            EchoSynthesizer::new(&spec).synthesize(&Phantom::empty(), &Pulse::from_spec(&spec));
        assert_eq!(rf.max_abs(), 0.0);
    }

    #[test]
    fn spreading_attenuates_deep_targets() {
        let spec = spec();
        let near = Phantom::point(Vec3::new(0.0, 0.0, 0.02));
        let far = Phantom::point(Vec3::new(0.0, 0.0, 0.12));
        let synth = EchoSynthesizer::new(&spec).with_options(EchoOptions {
            spreading: true,
            ..EchoOptions::default()
        });
        let pulse = Pulse::from_spec(&spec);
        let rf_near = synth.synthesize(&near, &pulse);
        let rf_far = synth.synthesize(&far, &pulse);
        assert!(rf_near.max_abs() > rf_far.max_abs());
    }

    #[test]
    fn directivity_silences_steep_targets() {
        let spec = spec();
        // A target far off-axis at shallow depth: outside every element's
        // 10° cone.
        let target = Phantom::point(Vec3::new(0.05, 0.0, 0.005));
        let synth = EchoSynthesizer::new(&spec).with_options(EchoOptions {
            directivity: Some(Directivity::new(deg(10.0), 1.0)),
            ..EchoOptions::default()
        });
        let rf = synth.synthesize(&target, &Pulse::from_spec(&spec));
        assert_eq!(rf.max_abs(), 0.0);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let spec = spec();
        let opts = EchoOptions {
            noise_rms: 0.1,
            seed: 42,
            ..EchoOptions::default()
        };
        let synth = EchoSynthesizer::new(&spec).with_options(opts.clone());
        let pulse = Pulse::from_spec(&spec);
        let a = synth.synthesize(&Phantom::empty(), &pulse);
        let b = synth.synthesize(&Phantom::empty(), &pulse);
        assert_eq!(a, b);
        let c = EchoSynthesizer::new(&spec)
            .with_options(EchoOptions { seed: 43, ..opts })
            .synthesize(&Phantom::empty(), &pulse);
        assert_ne!(a, c);
    }

    #[test]
    fn noise_rms_is_calibrated() {
        let spec = spec();
        let rf = EchoSynthesizer::new(&spec)
            .with_options(EchoOptions {
                noise_rms: 0.5,
                seed: 1,
                ..EchoOptions::default()
            })
            .synthesize(&Phantom::empty(), &Pulse::from_spec(&spec));
        let n = (rf.n_elements() * rf.n_samples()) as f64;
        let rms = (rf.energy() / n).sqrt();
        assert!((rms - 0.5).abs() < 0.02, "rms = {rms}");
    }

    #[test]
    fn synthesize_into_matches_synthesize_bit_exactly() {
        // One transmit, and a compound frame whose every block must land
        // in its place: the one-pass path stages the whole frame, the
        // lean path restages one trace.
        let fan = usbf_geometry::TransmitModel::plane_wave_fan(3, deg(10.0));
        for spec in [spec(), spec().with_transmits(fan)] {
            let phantom = Phantom::point(Vec3::new(0.002, -0.001, 0.04));
            let pulse = Pulse::from_spec(&spec);
            let synth = EchoSynthesizer::new(&spec).with_options(EchoOptions {
                noise_rms: 0.05,
                seed: 9,
                spreading: true,
                ..EchoOptions::default()
            });
            let fresh = synth.synthesize(&phantom, &pulse);
            // A dirty, reused buffer must come out identical:
            // synthesize_into clears before accumulating.
            let n_tx = spec.n_transmits();
            let mut reused = RfFrame::zeros_multi(8, 8, spec.echo_buffer_len(), n_tx);
            reused.fill(123.0);
            let mut scratch = vec![f64::NAN; synth.frame_len()];
            let ptrs = |rf: &RfFrame, scratch: &[f64]| {
                (
                    rf.trace(ElementIndex::new(0, 0)).raw().as_ptr(),
                    scratch.as_ptr(),
                )
            };
            let before = ptrs(&reused, &scratch);
            synth
                .synthesize_into(&phantom, &pulse, &mut scratch, &mut reused)
                .unwrap();
            assert_eq!(reused, fresh);
            assert_eq!(ptrs(&reused, &scratch), before, "no reallocation");
        }
    }

    #[test]
    fn quantization_maps_the_peak_to_full_scale_and_rounds_every_sample() {
        let spec = spec();
        let phantom = Phantom::point(Vec3::new(0.001, 0.002, 0.05));
        let pulse = Pulse::from_spec(&spec);
        let synth = EchoSynthesizer::new(&spec).with_options(EchoOptions {
            noise_rms: 0.02,
            seed: 4,
            ..EchoOptions::default()
        });
        let rf = synth.synthesize(&phantom, &pulse);
        let mut full = Vec::new();
        let mut trace = vec![0.0; spec.echo_buffer_len()];
        synth
            .traces(&phantom, &pulse, &mut trace, |tx, e, samples| {
                full.push((tx, e, samples.to_vec()));
                Ok(())
            })
            .unwrap();
        let peak = full
            .iter()
            .flat_map(|(_, _, t)| t.iter())
            .fold(0.0f64, |m, x| m.max(x.abs()));
        assert_eq!(rf.scale(), peak / f64::from(crate::FULL_SCALE));
        let mut at_full_scale = 0;
        for (tx, e, samples) in &full {
            let read = rf.trace_for(*tx, *e);
            for ((v, &raw), &x) in read.iter().zip(read.raw()).zip(samples) {
                assert!((v - x).abs() <= rf.scale() / 2.0 + 2.0 * f64::EPSILON * x.abs());
                if x.abs() == peak {
                    assert_eq!(raw.unsigned_abs(), crate::FULL_SCALE.unsigned_abs());
                    at_full_scale += 1;
                }
            }
        }
        assert!(at_full_scale >= 1);
    }

    #[test]
    fn non_finite_echoes_are_rejected_and_leave_the_frame_alone() {
        let spec = spec();
        let pulse = Pulse::from_spec(&spec);
        let synth = EchoSynthesizer::new(&spec);
        let mut rf = synth.synthesize(&Phantom::point(Vec3::new(0.0, 0.0, 0.04)), &pulse);
        let before = rf.clone();
        for amplitude in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let hostile = Phantom::from_scatterers(vec![crate::Scatterer {
                position: Vec3::new(0.0, 0.0, 0.05),
                amplitude,
            }]);
            let err = synth
                .synthesize_into(&hostile, &pulse, &mut Vec::new(), &mut rf)
                .expect_err("a non-finite echo has no 16-bit value");
            assert!(matches!(err, RfError::NonFinite { tx: 0, .. }), "{err}");
            assert_eq!(rf, before);
        }
    }

    #[test]
    #[should_panic(expected = "must match the spec")]
    fn synthesize_into_rejects_mismatched_frames() {
        let spec = spec();
        let mut rf = RfFrame::zeros(4, 4, 64);
        EchoSynthesizer::new(&spec)
            .synthesize_into(
                &Phantom::empty(),
                &Pulse::from_spec(&spec),
                &mut Vec::new(),
                &mut rf,
            )
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "must match the spec")]
    fn synthesize_into_rejects_transposed_grids() {
        // Same element *count*, wrong shape: must be rejected, not
        // silently routed to the wrong traces.
        let base = spec();
        let wide = SystemSpec::new(
            base.speed_of_sound,
            base.sampling_frequency,
            usbf_geometry::TransducerSpec {
                nx: 16,
                ny: 4,
                ..base.transducer.clone()
            },
            base.volume.clone(),
            base.origin,
            base.frame_rate,
        );
        let mut rf = RfFrame::zeros(4, 16, wide.echo_buffer_len());
        EchoSynthesizer::new(&wide)
            .synthesize_into(
                &Phantom::empty(),
                &Pulse::from_spec(&wide),
                &mut Vec::new(),
                &mut rf,
            )
            .unwrap();
    }

    #[test]
    fn plane_wave_echo_lands_at_projected_delay() {
        let theta = deg(8.0);
        let spec = SystemSpec::tiny()
            .with_transmits(vec![usbf_geometry::TransmitModel::plane_wave(theta, 0.0)]);
        // On the steering ray: back-projecting along n̂ lands at the
        // aperture centre, so the wave fully insonifies the target.
        let dir = usbf_geometry::SphericalDirection::new(theta, 0.0).unit();
        let target = Vec3::new(dir.x * 0.05, dir.y * 0.05, dir.z * 0.05);
        let rf = EchoSynthesizer::new(&spec)
            .synthesize(&Phantom::point(target), &Pulse::from_spec(&spec));
        let e = ElementIndex::new(3, 3);
        let trace = rf.trace_for(0, e);
        let n = usbf_geometry::SphericalDirection::new(theta, 0.0).unit();
        let expect =
            spec.metres_to_samples(n.dot(target) + target.distance(spec.elements.position(e)));
        let (peak, _) = trace
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap();
        assert!(
            (peak as f64 - expect).abs() <= 1.0,
            "peak {peak} vs expected {expect}"
        );
    }

    #[test]
    fn compound_blocks_match_per_angle_synthesis() {
        // Each transmit block of a compound frame must be bit-identical
        // to synthesizing that angle alone with a single-transmit spec at
        // full width; quantized, each frame is within half its own raw
        // step of those samples.
        let fan = usbf_geometry::TransmitModel::plane_wave_fan(3, deg(10.0));
        let spec = SystemSpec::tiny().with_transmits(fan.clone());
        let phantom = Phantom::point(Vec3::new(0.002, -0.001, 0.045));
        let pulse = Pulse::from_spec(&spec);
        let full_width = |synth: &EchoSynthesizer| {
            let mut out = Vec::new();
            let mut trace = vec![0.0; spec.echo_buffer_len()];
            synth
                .traces(&phantom, &pulse, &mut trace, |_, _, t| {
                    out.extend(t.iter().map(|v| v.to_bits()));
                    Ok(())
                })
                .unwrap();
            out
        };
        let synth = EchoSynthesizer::new(&spec);
        let compound_bits = full_width(&synth);
        let compound = synth.synthesize(&phantom, &pulse);
        assert_eq!(compound.n_transmits(), 3);
        let block = spec.elements.count() * spec.echo_buffer_len();
        for (tx, model) in fan.iter().enumerate() {
            let single_spec = SystemSpec::tiny().with_transmits(vec![*model]);
            let single_synth = EchoSynthesizer::new(&single_spec);
            assert_eq!(
                compound_bits[tx * block..(tx + 1) * block],
                full_width(&single_synth)[..],
                "tx {tx}"
            );
            let single = single_synth.synthesize(&phantom, &pulse);
            let tol = (compound.scale() + single.scale()) / 2.0 + 1e-12;
            for e in spec.elements.iter() {
                for (a, b) in compound.trace_for(tx, e).iter().zip(single.trace(e).iter()) {
                    assert!((a - b).abs() <= tol, "tx {tx} element {e}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn steered_footprint_silences_excluded_targets() {
        // A hard-steered wave never sweeps a target far on the opposite
        // side of the aperture footprint: its block stays silent while an
        // unsteered emission still hears the target.
        let spec = SystemSpec::tiny().with_transmits(vec![
            usbf_geometry::TransmitModel::plane_wave(0.0, 0.0),
            usbf_geometry::TransmitModel::plane_wave(deg(35.0), 0.0),
        ]);
        // On axis: inside the straight-down footprint; the hard-steered
        // wave's footprint back-projects tens of millimetres off-axis,
        // far outside the tiny aperture.
        let phantom = Phantom::point(Vec3::new(0.0, 0.0, 0.09));
        let rf = EchoSynthesizer::new(&spec).synthesize(&phantom, &Pulse::from_spec(&spec));
        let e = ElementIndex::new(3, 3);
        let loud: f64 = rf.trace_for(0, e).iter().map(|v| v.abs()).sum();
        let silent: f64 = rf.trace_for(1, e).iter().map(|v| v.abs()).sum();
        assert!(loud > 0.0, "unsteered block must hear the target");
        assert_eq!(silent, 0.0, "steered-away block must stay silent");
    }

    #[test]
    fn two_scatterers_superpose() {
        let spec = spec();
        let pulse = Pulse::from_spec(&spec);
        let a = Phantom::point(Vec3::new(0.0, 0.0, 0.03));
        let b = Phantom::point(Vec3::new(0.0, 0.0, 0.09));
        let mut both = a.clone();
        both.extend(&b);
        let synth = EchoSynthesizer::new(&spec);
        let rf_a = synth.synthesize(&a, &pulse);
        let rf_b = synth.synthesize(&b, &pulse);
        let rf_ab = synth.synthesize(&both, &pulse);
        // Each frame carries its own scale, so the sum holds to within
        // half a raw step of each.
        let tol = (rf_a.scale() + rf_b.scale() + rf_ab.scale()) / 2.0 + 1e-12;
        let e = ElementIndex::new(0, 0);
        let (ta, tb) = (rf_a.trace(e), rf_b.trace(e));
        for ((va, vb), vab) in ta.iter().zip(tb.iter()).zip(rf_ab.trace(e).iter()) {
            assert!((vab - (va + vb)).abs() <= tol);
        }
    }
}
