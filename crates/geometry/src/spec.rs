//! The paper's Table I system specification and derived quantities.

use crate::{ImagingVolume, TransducerArray, TransmitModel, Vec3, SPEED_OF_SOUND};

/// Transducer-head portion of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct TransducerSpec {
    /// Center frequency `fc` in Hz (Table I: 4 MHz).
    pub center_frequency: f64,
    /// Bandwidth `B` in Hz (Table I: 4 MHz).
    pub bandwidth: f64,
    /// Matrix size along x (Table I: 100).
    pub nx: usize,
    /// Matrix size along y (Table I: 100).
    pub ny: usize,
    /// Element pitch in metres (Table I: λ/2).
    pub pitch: f64,
}

/// Beamformer-volume portion of Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct VolumeSpec {
    /// Azimuth half-angle in radians (Table I: 73°/2 = 36.5°).
    pub theta_max: f64,
    /// Elevation half-angle in radians (Table I: 36.5°).
    pub phi_max: f64,
    /// Maximum depth in metres (Table I: 500λ = 96.25 mm).
    pub depth_max: f64,
    /// Focal points along θ (Table I: 128).
    pub n_theta: usize,
    /// Focal points along φ (Table I: 128).
    pub n_phi: usize,
    /// Focal points along depth (Table I: 1000).
    pub n_depth: usize,
}

/// Complete system specification (Table I) plus the emission origin and the
/// target frame rate used in the paper's bandwidth arithmetic (§II-C).
///
/// ```
/// use usbf_geometry::SystemSpec;
/// let s = SystemSpec::paper();
/// // §II-B: ~164e9 delay coefficients for the naive table.
/// assert_eq!(s.naive_table_entries(), 163_840_000_000);
/// // §II-C: ~2.5e12 delay values per second at 15 fps.
/// assert!((s.delays_per_second() - 2.4576e12).abs() < 1e9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// Speed of sound in the medium, m/s (Table I: 1540).
    pub speed_of_sound: f64,
    /// Echo sampling frequency `fs` in Hz (Table I: 32 MHz).
    pub sampling_frequency: f64,
    /// Transducer head.
    pub transducer: TransducerSpec,
    /// Imaging volume.
    pub volume: VolumeSpec,
    /// Emission reference point `O` (origin of transmit delays). The paper's
    /// TABLESTEER analysis assumes it at the array centre.
    pub origin: Vec3,
    /// Target volume rate in frames/s (§II-C: 15).
    pub frame_rate: f64,
    /// Transmit sequence of one frame: one [`TransmitModel`] per
    /// insonification. The historical single focused emission from `origin`
    /// is the default `[PointSource]`; a CPWC frame lists one plane wave
    /// per compounding angle.
    pub transmits: Vec<TransmitModel>,
    /// Pre-built transducer array (kept in sync with `transducer`).
    pub elements: TransducerArray,
    /// Pre-built imaging volume grid (kept in sync with `volume`).
    pub volume_grid: ImagingVolume,
}

impl SystemSpec {
    /// Builds a spec from its parts, deriving the array and volume grids.
    ///
    /// # Panics
    ///
    /// Panics on non-positive frequencies or frame rate, or if the
    /// underlying [`TransducerArray`] / [`ImagingVolume`] constructors
    /// reject their inputs.
    pub fn new(
        speed_of_sound: f64,
        sampling_frequency: f64,
        transducer: TransducerSpec,
        volume: VolumeSpec,
        origin: Vec3,
        frame_rate: f64,
    ) -> Self {
        assert!(speed_of_sound > 0.0, "speed of sound must be positive");
        assert!(
            sampling_frequency > 0.0,
            "sampling frequency must be positive"
        );
        assert!(
            transducer.center_frequency > 0.0,
            "center frequency must be positive"
        );
        assert!(frame_rate > 0.0, "frame rate must be positive");
        let elements = TransducerArray::new(transducer.nx, transducer.ny, transducer.pitch);
        let volume_grid = ImagingVolume::new(
            volume.theta_max,
            volume.phi_max,
            volume.depth_max,
            volume.n_theta,
            volume.n_phi,
            volume.n_depth,
        );
        SystemSpec {
            speed_of_sound,
            sampling_frequency,
            transducer,
            volume,
            origin,
            frame_rate,
            transmits: vec![TransmitModel::PointSource],
            elements,
            volume_grid,
        }
    }

    /// Replaces the transmit sequence (builder style).
    ///
    /// # Panics
    ///
    /// Panics on an empty sequence — a frame needs at least one transmit.
    #[must_use = "with_transmits returns the configured spec; dropping it discards the transmits"]
    pub fn with_transmits(mut self, transmits: Vec<TransmitModel>) -> Self {
        assert!(!transmits.is_empty(), "a frame needs at least one transmit");
        self.transmits = transmits;
        self
    }

    /// Number of transmits per frame (compounding angles; 1 for the
    /// historical single-emission scan).
    #[inline]
    pub fn n_transmits(&self) -> usize {
        self.transmits.len()
    }

    /// `true` for the paper's single point-source emission, whose
    /// mask weight is 1 everywhere. Only the scalar per-voxel walk (which
    /// then sums without the per-transmit mask loop) and the benchmark's
    /// per-layer replay branch on it; the tile kernel branches on the
    /// transmit count instead.
    #[inline]
    pub fn is_single_point_source(&self) -> bool {
        self.transmits.len() == 1 && self.transmits[0] == TransmitModel::PointSource
    }

    /// One-way transmit distance (metres) of transmit `k` to field point
    /// `s` — the transmit leg of Eq. 2 generalized per transmit model.
    #[inline]
    pub fn transmit_distance(&self, k: usize, s: Vec3) -> f64 {
        self.transmits[k].distance(self.origin, s)
    }

    /// One-way transmit delay of transmit `k` to `s`, in samples at `fs`.
    #[inline]
    pub fn transmit_delay_samples(&self, k: usize, s: Vec3) -> f64 {
        self.metres_to_samples(self.transmit_distance(k, s))
    }

    /// Insonification weight of field point `s` under transmit `k` — see
    /// [`TransmitModel::weight`].
    #[inline]
    pub fn transmit_weight(&self, k: usize, s: Vec3) -> f64 {
        self.transmits[k].weight(&self.elements, s)
    }

    fn with_scale(nx: usize, ny: usize, n_theta: usize, n_phi: usize, n_depth: usize) -> Self {
        let fc = 4.0e6;
        let lambda = SPEED_OF_SOUND / fc;
        let transducer = TransducerSpec {
            center_frequency: fc,
            bandwidth: 4.0e6,
            nx,
            ny,
            pitch: lambda / 2.0,
        };
        let volume = VolumeSpec {
            theta_max: crate::deg(36.5),
            phi_max: crate::deg(36.5),
            depth_max: 500.0 * lambda,
            n_theta,
            n_phi,
            n_depth,
        };
        SystemSpec::new(SPEED_OF_SOUND, 32.0e6, transducer, volume, Vec3::ZERO, 15.0)
    }

    /// The full Table I specification: 100 × 100 elements,
    /// 128 × 128 × 1000 focal points, 73° × 73° × 500λ, fs = 32 MHz,
    /// 15 frames/s.
    pub fn paper() -> Self {
        Self::with_scale(100, 100, 128, 128, 1000)
    }

    /// A reduced preset (32 × 32 elements, 32 × 32 × 128 voxels) with the
    /// paper's physical extents, small enough for exhaustive host-side
    /// error sweeps and beamforming tests.
    pub fn reduced() -> Self {
        Self::with_scale(32, 32, 32, 32, 128)
    }

    /// The demo geometry of Fig. 3a: 16 × 16 elements, 500 depths.
    pub fn figure3() -> Self {
        Self::with_scale(16, 16, 16, 16, 500)
    }

    /// A tiny geometry for unit tests (8 × 8 elements, 8 × 8 × 16 voxels).
    pub fn tiny() -> Self {
        Self::with_scale(8, 8, 8, 8, 16)
    }

    /// Acoustic wavelength λ = c / fc in metres.
    #[inline]
    pub fn wavelength(&self) -> f64 {
        self.speed_of_sound / self.transducer.center_frequency
    }

    /// Converts a time in seconds to delay samples at `fs`.
    #[inline]
    pub fn seconds_to_samples(&self, t: f64) -> f64 {
        t * self.sampling_frequency
    }

    /// Converts delay samples at `fs` to seconds.
    #[inline]
    pub fn samples_to_seconds(&self, n: f64) -> f64 {
        n / self.sampling_frequency
    }

    /// Converts a distance in metres to one-way propagation delay samples.
    #[inline]
    pub fn metres_to_samples(&self, d: f64) -> f64 {
        d / self.speed_of_sound * self.sampling_frequency
    }

    /// Exact two-way propagation delay (Eq. 2) in **seconds** from the
    /// emission origin to point `s` and back to element position `d`.
    #[inline]
    pub fn two_way_delay_seconds(&self, s: Vec3, d: Vec3) -> f64 {
        (s.distance(self.origin) + s.distance(d)) / self.speed_of_sound
    }

    /// Exact two-way propagation delay (Eq. 2) in **samples** at `fs`.
    #[inline]
    pub fn two_way_delay_samples(&self, s: Vec3, d: Vec3) -> f64 {
        self.seconds_to_samples(self.two_way_delay_seconds(s, d))
    }

    /// Exact two-way delay of transmit `k` in **seconds**: the transmit
    /// leg per that transmit's model plus the receive leg `|s − d|`.
    /// Reduces to [`SystemSpec::two_way_delay_seconds`] for a point source.
    #[inline]
    pub fn two_way_delay_seconds_for(&self, k: usize, s: Vec3, d: Vec3) -> f64 {
        (self.transmit_distance(k, s) + s.distance(d)) / self.speed_of_sound
    }

    /// Exact two-way delay of transmit `k` in **samples** at `fs`.
    #[inline]
    pub fn two_way_delay_samples_for(&self, k: usize, s: Vec3, d: Vec3) -> f64 {
        self.seconds_to_samples(self.two_way_delay_seconds_for(k, s, d))
    }

    /// Size of the naive fully precomputed delay table in coefficients:
    /// one per (voxel, element) pair (§II-B: ≈164 × 10⁹ for Table I).
    #[inline]
    pub fn naive_table_entries(&self) -> u64 {
        self.volume_grid.voxel_count() as u64 * self.elements.count() as u64
    }

    /// Delay values consumed per second at the target frame rate
    /// (§II-C: ≈2.5 × 10¹² for Table I at 15 fps).
    #[inline]
    pub fn delays_per_second(&self) -> f64 {
        self.naive_table_entries() as f64 * self.frame_rate
    }

    /// Worst-case two-way delay in samples over the entire geometry: the
    /// echo-buffer depth needed ("slightly more than 8000 samples" → a
    /// 13-bit index, §V-B).
    ///
    /// The maximum is attained at maximum depth and extreme steering, with
    /// the farthest element in the opposite corner; it is found by scanning
    /// the volume's corner directions against the aperture corners.
    pub fn max_two_way_delay_samples(&self) -> f64 {
        let v = &self.volume_grid;
        let r = v.depth_max();
        let corners_s: Vec<Vec3> = [
            (v.theta_max(), v.phi_max()),
            (v.theta_max(), -v.phi_max()),
            (-v.theta_max(), v.phi_max()),
            (-v.theta_max(), -v.phi_max()),
            (v.theta_max(), 0.0),
            (0.0, v.phi_max()),
            (0.0, 0.0),
        ]
        .iter()
        .map(|&(t, p)| crate::SphericalDirection::new(t, p).point_at(r))
        .collect();
        let e = &self.elements;
        let corners_d = [
            Vec3::new(e.x_of(0), e.y_of(0), 0.0),
            Vec3::new(e.x_of(e.nx() - 1), e.y_of(0), 0.0),
            Vec3::new(e.x_of(0), e.y_of(e.ny() - 1), 0.0),
            Vec3::new(e.x_of(e.nx() - 1), e.y_of(e.ny() - 1), 0.0),
        ];
        let mut max = 0.0f64;
        for s in &corners_s {
            for d in &corners_d {
                max = max.max(self.two_way_delay_samples(*s, *d));
            }
        }
        max
    }

    /// Worst-case **one-way** propagation delay in samples over the
    /// geometry: the larger of the deepest transmit path `|S − O|` and the
    /// farthest receive path `|S − D|` (extreme steering × opposite
    /// aperture corner). This bounds the argument range of the TABLEFREE
    /// square-root approximation.
    pub fn max_one_way_delay_samples(&self) -> f64 {
        let v = &self.volume_grid;
        let r = v.depth_max();
        let corners_s: Vec<Vec3> = [
            (v.theta_max(), v.phi_max()),
            (v.theta_max(), -v.phi_max()),
            (-v.theta_max(), v.phi_max()),
            (-v.theta_max(), -v.phi_max()),
        ]
        .iter()
        .map(|&(t, p)| crate::SphericalDirection::new(t, p).point_at(r))
        .collect();
        let e = &self.elements;
        let corners_d = [
            Vec3::new(e.x_of(0), e.y_of(0), 0.0),
            Vec3::new(e.x_of(e.nx() - 1), e.y_of(e.ny() - 1), 0.0),
        ];
        let mut max = r + self.origin.norm(); // transmit leg bound
        for s in &corners_s {
            for d in &corners_d {
                max = max.max(s.distance(*d));
            }
        }
        self.metres_to_samples(max)
    }

    /// Number of index bits needed to address the nominal on-axis two-way
    /// window `2·depth_max·fs` — 13 for the paper's geometry ("slightly
    /// more than 8000 samples … requires 13-bit precision", §V-B).
    pub fn echo_index_bits(&self) -> u32 {
        let window = (2.0 * self.volume.depth_max / self.speed_of_sound * self.sampling_frequency)
            .ceil() as u64
            + 1;
        64 - (window - 1).leading_zeros()
    }

    /// Echo-buffer length: the nominal window rounded up to the full
    /// addressable size of [`SystemSpec::echo_index_bits`] (8192 for
    /// Table I). The true geometric worst case
    /// ([`SystemSpec::max_two_way_delay_samples`]) slightly exceeds even
    /// this at extreme steering × opposite aperture corner; those fetches
    /// lie outside element directivity and clamp.
    pub fn echo_buffer_len(&self) -> usize {
        1usize << self.echo_index_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_wavelength_matches_table1() {
        let s = SystemSpec::paper();
        assert!((s.wavelength() - 0.385e-3).abs() < 1e-9);
        // 500λ = 192.5 mm.
        assert!((s.volume.depth_max - 192.5e-3).abs() < 1e-12);
    }

    #[test]
    fn naive_table_is_164e9() {
        // §II-B: "the theoretical number of delay values ... about 164e9".
        let s = SystemSpec::paper();
        assert_eq!(s.naive_table_entries(), 128 * 128 * 1000 * 10_000);
    }

    #[test]
    fn bandwidth_is_2_5e12_per_second() {
        // §II-C: "about 2.5e12 delay values/s ... at 15 frames/s".
        let s = SystemSpec::paper();
        let rate = s.delays_per_second();
        assert!(rate > 2.4e12 && rate < 2.6e12, "rate = {rate}");
    }

    #[test]
    fn echo_buffer_slightly_more_than_8000() {
        // §V-B: "slightly more than 8000 samples ... requires 13-bit".
        let s = SystemSpec::paper();
        let len = s.echo_buffer_len();
        assert!(len > 8000, "len = {len}");
        assert!(len <= 8192, "len = {len} should still fit 13 bits");
        assert_eq!(s.echo_index_bits(), 13);
        // The true geometric worst case exceeds the nominal window; it lies
        // outside element directivity and is clamped by the beamformer.
        assert!(s.max_two_way_delay_samples() > len as f64);
    }

    #[test]
    fn on_axis_delay_is_round_trip() {
        let s = SystemSpec::paper();
        // Deepest on-axis point against centre element ≈ 2×500λ → 8000
        // samples (1000 λ at 8 samples/λ: fs/fc = 8).
        let p = Vec3::new(0.0, 0.0, s.volume.depth_max);
        let d = Vec3::ZERO;
        let n = s.two_way_delay_samples(p, d);
        assert!((n - 8000.0).abs() < 1e-9, "n = {n}");
    }

    #[test]
    fn sample_conversions_roundtrip() {
        let s = SystemSpec::paper();
        let t = 1.2345e-4;
        assert!((s.samples_to_seconds(s.seconds_to_samples(t)) - t).abs() < 1e-18);
        assert!((s.metres_to_samples(s.speed_of_sound) - s.sampling_frequency).abs() < 1e-6);
    }

    #[test]
    fn presets_are_consistent() {
        for s in [
            SystemSpec::paper(),
            SystemSpec::reduced(),
            SystemSpec::figure3(),
            SystemSpec::tiny(),
        ] {
            assert_eq!(s.elements.nx(), s.transducer.nx);
            assert_eq!(s.volume_grid.n_depth(), s.volume.n_depth);
            assert!(s.echo_buffer_len() > 0);
        }
    }

    #[test]
    fn reduced_preset_keeps_physical_extent() {
        let full = SystemSpec::paper();
        let red = SystemSpec::reduced();
        assert_eq!(full.volume.depth_max, red.volume.depth_max);
        assert_eq!(full.volume.theta_max, red.volume.theta_max);
        assert!(red.naive_table_entries() < full.naive_table_entries());
    }

    #[test]
    fn max_delay_exceeds_on_axis_delay() {
        let s = SystemSpec::paper();
        assert!(s.max_two_way_delay_samples() > 8000.0);
    }

    #[test]
    fn default_transmit_is_single_point_source() {
        let s = SystemSpec::tiny();
        assert_eq!(s.n_transmits(), 1);
        assert_eq!(s.transmits[0], TransmitModel::PointSource);
        let p = Vec3::new(1.0e-3, -2.0e-3, 30.0e-3);
        let d = Vec3::new(0.5e-3, 0.5e-3, 0.0);
        assert_eq!(
            s.two_way_delay_seconds_for(0, p, d),
            s.two_way_delay_seconds(p, d)
        );
        assert_eq!(s.transmit_weight(0, p), 1.0);
    }

    #[test]
    fn plane_wave_transmit_leg_never_exceeds_point_source_leg() {
        // |n̂·s| ≤ |s| means a CPWC frame always fits the point-source
        // echo buffer: no resizing on transmit-model change.
        let s =
            SystemSpec::tiny().with_transmits(TransmitModel::plane_wave_fan(4, crate::deg(10.0)));
        assert_eq!(s.n_transmits(), 4);
        for k in 0..4 {
            for p in [
                Vec3::new(0.01, 0.0, 0.05),
                Vec3::new(-0.02, 0.015, 0.09),
                Vec3::new(0.0, 0.0, 0.001),
            ] {
                assert!(s.transmit_distance(k, p) <= p.norm() + 1e-15);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one transmit")]
    fn empty_transmit_sequence_rejected() {
        let _ = SystemSpec::tiny().with_transmits(vec![]);
    }

    #[test]
    #[should_panic(expected = "frame rate must be positive")]
    fn invalid_frame_rate_rejected() {
        let s = SystemSpec::paper();
        SystemSpec::new(
            s.speed_of_sound,
            s.sampling_frequency,
            s.transducer,
            s.volume,
            Vec3::ZERO,
            0.0,
        );
    }
}
