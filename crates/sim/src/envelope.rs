//! Envelope detection by quadrature demodulation.
//!
//! Beamformed RF values oscillate at the carrier; image metrics (FWHM,
//! contrast) are conventionally taken on the *envelope*. This module
//! extracts it by mixing with the carrier (I/Q demodulation) and low-pass
//! filtering with a moving-average kernel sized to the carrier period.
//!
//! The transform is exposed at two granularities:
//!
//! * [`envelope`] — an allocating, whole-trace convenience wrapper, the
//!   reference the building blocks are tested against;
//! * [`demodulate_into`] / [`envelope_from_iq_into`] /
//!   [`log_compress_into`] — allocation-free building blocks operating on
//!   caller-owned buffers, which the beamformer's B-mode chain calls in
//!   that order where warm frames must not touch the heap. Log
//!   compression is relative to a fixed reference level, never the
//!   trace's peak.

/// Mix an RF trace down to baseband I/Q at angular carrier frequency `w`
/// (radians per sample), writing into caller-owned buffers.
///
/// `i_out[k] = 2·rf[k]·cos(w·k)`, `q_out[k] = -2·rf[k]·sin(w·k)` — the
/// factor 2 restores the envelope amplitude lost in mixing. The input is
/// left untouched, so a scratch pair can be refilled from the same row
/// every frame. Empty inputs are a no-op.
///
/// # Panics
///
/// Panics if the output buffers are shorter than `rf`.
pub fn demodulate_into(rf: &[f64], w: f64, i_out: &mut [f64], q_out: &mut [f64]) {
    let n = rf.len();
    assert!(
        i_out.len() >= n && q_out.len() >= n,
        "I/Q scratch too short"
    );
    for (k, &v) in rf.iter().enumerate() {
        let ph = w * k as f64;
        i_out[k] = 2.0 * v * ph.cos();
        q_out[k] = -2.0 * v * ph.sin();
    }
}

/// Boxcar-filtered magnitude of an I/Q pair: the envelope.
///
/// The low-pass is a centred moving average over `period` samples (one
/// carrier period), whose zeros land on the 2·fc mixing image. `out` may
/// not alias the inputs — the window around sample `k` is read after
/// `out[k]` would be written. Empty inputs are a no-op.
///
/// # Panics
///
/// Panics if `period < 2`, the I/Q lengths differ, or `out` is shorter
/// than the input.
pub fn envelope_from_iq_into(i_mix: &[f64], q_mix: &[f64], period: usize, out: &mut [f64]) {
    let n = i_mix.len();
    assert_eq!(n, q_mix.len(), "I/Q length mismatch");
    assert!(out.len() >= n, "output buffer too short");
    assert!(period >= 2, "boxcar must span at least 2 samples");
    let half = period / 2;
    for (k, o) in out.iter_mut().enumerate().take(n) {
        let lo = k.saturating_sub(half);
        let hi = (lo + period).min(n);
        let len = (hi - lo) as f64;
        let i_avg: f64 = i_mix[lo..hi].iter().sum::<f64>() / len;
        let q_avg: f64 = q_mix[lo..hi].iter().sum::<f64>() / len;
        *o = (i_avg * i_avg + q_avg * q_avg).sqrt();
    }
}

/// In-place log compression: `v ← max(20·log10(|v|/reference), floor_db)`.
///
/// `reference` is a *fixed* level (not the trace peak): keeping the
/// transform pointwise means a column's output depends on that column
/// alone, whatever else the volume holds. Zeros map to `floor_db` (via `-inf`), and NaN
/// inputs also clamp to `floor_db` because [`f64::max`] returns the
/// non-NaN operand.
///
/// # Panics
///
/// Panics if `reference` is not strictly positive.
pub fn log_compress_into(v: &mut [f64], reference: f64, floor_db: f64) {
    assert!(reference > 0.0, "reference level must be positive");
    for x in v.iter_mut() {
        *x = (20.0 * (x.abs() / reference).log10()).max(floor_db);
    }
}

/// Number of samples per carrier period for the boxcar low-pass:
/// `round(fs/fc)` clamped to at least 2.
pub fn boxcar_period(fc: f64, fs: f64) -> usize {
    assert!(fc > 0.0 && fs > 0.0, "frequencies must be positive");
    (fs / fc).round().max(2.0) as usize
}

/// Envelope of an RF signal sampled at `fs`, demodulated at carrier
/// frequency `fc`.
///
/// The low-pass is a centred moving average over one carrier period
/// (boxcar), which suppresses the 2·fc mixing image while preserving the
/// pulse envelope.
///
/// # Panics
///
/// Panics if the signal is empty or the frequencies are not positive.
///
/// ```
/// // A pure tone has a flat envelope.
/// let fs = 32.0e6;
/// let fc = 4.0e6;
/// let rf: Vec<f64> = (0..256)
///     .map(|i| (2.0 * std::f64::consts::PI * fc * i as f64 / fs).cos())
///     .collect();
/// let env = usbf_sim::envelope(&rf, fc, fs);
/// for &e in &env[16..240] {
///     assert!((e - 1.0).abs() < 0.05, "flat envelope, got {e}");
/// }
/// ```
pub fn envelope(rf: &[f64], fc: f64, fs: f64) -> Vec<f64> {
    assert!(!rf.is_empty(), "empty signal");
    assert!(fc > 0.0 && fs > 0.0, "frequencies must be positive");
    let n = rf.len();
    let w = 2.0 * std::f64::consts::PI * fc / fs;
    let mut i_mix = vec![0.0; n];
    let mut q_mix = vec![0.0; n];
    demodulate_into(rf, w, &mut i_mix, &mut q_mix);
    // Boxcar of exactly one carrier period: its zeros land on the 2·fc
    // mixing image (fs/fc samples per period, 8 for the paper's system).
    let period = boxcar_period(fc, fs);
    let mut out = vec![0.0; n];
    envelope_from_iq_into(&i_mix, &q_mix, period, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::try_peak_index;
    use crate::Pulse;

    const FS: f64 = 32.0e6;
    const FC: f64 = 4.0e6;

    #[test]
    fn tone_envelope_is_flat() {
        let rf: Vec<f64> = (0..512)
            .map(|i| (2.0 * std::f64::consts::PI * FC * i as f64 / FS).cos())
            .collect();
        let env = envelope(&rf, FC, FS);
        for &e in &env[32..480] {
            assert!((e - 1.0).abs() < 0.03, "e = {e}");
        }
    }

    #[test]
    fn scaled_tone_scales_envelope() {
        let rf: Vec<f64> = (0..512)
            .map(|i| 0.25 * (2.0 * std::f64::consts::PI * FC * i as f64 / FS).sin())
            .collect();
        let env = envelope(&rf, FC, FS);
        for &e in &env[32..480] {
            assert!((e - 0.25).abs() < 0.01, "e = {e}");
        }
    }

    #[test]
    fn pulse_envelope_peaks_at_pulse_center() {
        let pulse = Pulse::gaussian(FC, 4.0e6, FS);
        let w = pulse.waveform();
        let mut rf = vec![0.0; 400];
        let at = 200 - pulse.half_duration_samples();
        for (k, &v) in w.iter().enumerate() {
            rf[at + k] += v;
        }
        let env = envelope(&rf, FC, FS);
        let peak = try_peak_index(&env).expect("envelope has finite samples");
        assert!((peak as i64 - 200).unsigned_abs() <= 2, "peak at {peak}");
        // The envelope bridges the carrier nulls: two samples off the
        // pulse centre the RF crosses zero (quarter carrier period at
        // fs/fc = 8), but the true envelope is still ≈0.8 there.
        assert!(
            rf[202].abs() < 0.1,
            "expected carrier null, rf = {}",
            rf[202]
        );
        assert!(
            env[202] > 0.5,
            "envelope must bridge the null, env = {}",
            env[202]
        );
    }

    #[test]
    fn building_blocks_compose_to_envelope() {
        // The _into building blocks must reproduce the allocating wrapper
        // bit-for-bit: the beamformer's B-mode chain leans on this.
        let rf: Vec<f64> = (0..300)
            .map(|i| {
                let t = i as f64 / FS;
                (2.0 * std::f64::consts::PI * FC * t).cos()
                    * (-(i as f64 - 150.0).powi(2) / 800.0).exp()
            })
            .collect();
        let w = 2.0 * std::f64::consts::PI * FC / FS;
        let mut i_mix = vec![0.0; rf.len()];
        let mut q_mix = vec![0.0; rf.len()];
        let mut out = vec![0.0; rf.len()];
        demodulate_into(&rf, w, &mut i_mix, &mut q_mix);
        envelope_from_iq_into(&i_mix, &q_mix, boxcar_period(FC, FS), &mut out);
        let reference = envelope(&rf, FC, FS);
        assert_eq!(out, reference, "fused blocks diverge from envelope()");
    }

    #[test]
    fn log_compress_handles_zero_and_nan() {
        let mut v = [1.0, 0.5, 0.0, f64::NAN, -0.5];
        log_compress_into(&mut v, 1.0, -60.0);
        assert_eq!(v[0], 0.0);
        assert!((v[1] - 20.0 * 0.5f64.log10()).abs() < 1e-12);
        assert_eq!(v[2], -60.0, "silence clamps to the floor");
        assert_eq!(v[3], -60.0, "NaN clamps to the floor");
        assert!((v[4] - v[1]).abs() < 1e-12, "compression is on |v|");
    }

    #[test]
    fn demodulate_into_empty_is_noop() {
        let mut i_mix: [f64; 0] = [];
        let mut q_mix: [f64; 0] = [];
        demodulate_into(&[], 1.0, &mut i_mix, &mut q_mix);
        let mut out: [f64; 0] = [];
        envelope_from_iq_into(&i_mix, &q_mix, 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "empty signal")]
    fn empty_signal_panics() {
        envelope(&[], FC, FS);
    }
}
