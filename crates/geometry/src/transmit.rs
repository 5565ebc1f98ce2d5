//! Pluggable transmit models: point emission and steered plane waves.
//!
//! The paper's delay model (Eq. 2) assumes every transmit is a spherical
//! emission from the reference point `O`; that is [`TransmitModel::PointSource`]
//! here. Coherent plane-wave compounding (CPWC) instead fires a small set of
//! steered plane waves and coherently sums the per-transmit low-resolution
//! volumes. [`TransmitModel::PlaneWave`] models one such insonification with
//! the pixel-based transmit delay of Nguyen & Prager: the wavefront passes
//! through the array origin at `t = 0` and reaches a field point `S` after
//! travelling the signed projection `n̂ · S` onto the steering direction.
//!
//! A steered plane wave only insonifies the oblique prism swept by the
//! aperture; outside it the transmit delay is undefined and the echo is pure
//! noise. [`TransmitModel::weight`] implements the Nguyen–Prager edge-region
//! treatment: back-project the field point along the steering direction onto
//! the aperture plane and ramp the weight from 1 (inside the footprint) to 0
//! (more than one pitch outside), so compounding can blend edge pixels
//! instead of hard-clipping or poisoning the sum.

use crate::{SphericalDirection, TransducerArray, Vec3};

/// A steered plane-wave transmit: the wavefront normal follows the paper's
/// Eq. 5 steering convention and crosses the array origin at `t = 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaneWave {
    /// Steering direction of the wavefront normal.
    pub steering: SphericalDirection,
    /// `steering.unit()`, computed once: delay engines project a focal
    /// point onto it per delay row.
    normal: Vec3,
}

impl PlaneWave {
    /// The unit wavefront normal `n̂` (bit-identical to
    /// `self.steering.unit()`).
    #[inline]
    pub fn normal(&self) -> Vec3 {
        self.normal
    }
}

/// The transmit model of one insonification.
///
/// Every [`crate::SystemSpec`] carries a list of these (one per transmit of
/// a compound frame); the historical single focused/diverging emission from
/// the spec origin is the one-element `[PointSource]` default.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum TransmitModel {
    /// Spherical emission from the spec's reference point `O` — the paper's
    /// Eq. 2 transmit leg `|S − O|`.
    #[default]
    PointSource,
    /// A steered plane wave with pixel-based transmit delay `n̂ · S`.
    PlaneWave(PlaneWave),
}

impl TransmitModel {
    /// A plane wave steered by `(theta, phi)` radians.
    #[inline]
    pub fn plane_wave(theta: f64, phi: f64) -> Self {
        let steering = SphericalDirection::new(theta, phi);
        TransmitModel::PlaneWave(PlaneWave {
            steering,
            normal: steering.unit(),
        })
    }

    /// An evenly spaced azimuthal fan of `n` plane waves spanning
    /// `[-half_angle, +half_angle]` radians at `φ = 0` — the standard CPWC
    /// acquisition sequence. `n == 1` yields the single unsteered wave.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn plane_wave_fan(n: usize, half_angle: f64) -> Vec<TransmitModel> {
        assert!(n > 0, "a transmit fan needs at least one angle");
        (0..n)
            .map(|i| {
                let theta = if n == 1 {
                    0.0
                } else {
                    -half_angle + 2.0 * half_angle * i as f64 / (n - 1) as f64
                };
                TransmitModel::plane_wave(theta, 0.0)
            })
            .collect()
    }

    /// One-way transmit distance (metres) from emission to field point `s`:
    /// `|s − origin|` for a point source, the signed projection `n̂ · s` for
    /// a plane wave.
    #[inline]
    pub fn distance(&self, origin: Vec3, s: Vec3) -> f64 {
        match self {
            TransmitModel::PointSource => s.distance(origin),
            TransmitModel::PlaneWave(pw) => pw.normal.dot(s),
        }
    }

    /// Insonification weight of field point `s` in `[0, 1]`.
    ///
    /// Point sources illuminate the whole volume (weight 1). A plane wave
    /// illuminates the oblique prism swept by the aperture: the weight is 1
    /// where the back-projection of `s` along the steering direction lands
    /// inside the aperture footprint, ramps linearly to 0 over one element
    /// pitch outside each edge (the Nguyen–Prager interpolated edge region),
    /// and is exactly 0 beyond — so masked voxels contribute nothing to a
    /// coherent compound instead of injecting undefined delays.
    pub fn weight(&self, elements: &TransducerArray, s: Vec3) -> f64 {
        match self {
            TransmitModel::PointSource => 1.0,
            TransmitModel::PlaneWave(pw) => {
                let n = pw.normal;
                if n.z <= 1e-12 {
                    return 0.0; // steered past the aperture plane
                }
                // Back-project s along n̂ onto the aperture plane z = 0.
                let t = s.z / n.z;
                let fx = s.x - t * n.x;
                let fy = s.y - t * n.y;
                let (ax, ay) = elements.aperture();
                let pitch = elements.pitch();
                let ramp = |half: f64, f: f64| ((half - f.abs()) / pitch + 1.0).clamp(0.0, 1.0);
                ramp(ax / 2.0, fx) * ramp(ay / 2.0, fy)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deg;

    fn array() -> TransducerArray {
        TransducerArray::new(8, 8, 0.2e-3)
    }

    #[test]
    fn point_source_distance_matches_eq2_leg() {
        let o = Vec3::new(0.0, 0.0, -1.0e-3);
        let s = Vec3::new(3.0e-3, 0.0, 3.0e-3);
        let d = TransmitModel::PointSource.distance(o, s);
        assert!((d - s.distance(o)).abs() < 1e-18);
    }

    #[test]
    fn unsteered_plane_wave_distance_is_depth() {
        let pw = TransmitModel::plane_wave(0.0, 0.0);
        let s = Vec3::new(5.0e-3, -2.0e-3, 40.0e-3);
        assert!((pw.distance(Vec3::ZERO, s) - s.z).abs() < 1e-18);
    }

    #[test]
    fn steered_plane_wave_distance_is_projection() {
        let theta = deg(10.0);
        let pw = TransmitModel::plane_wave(theta, 0.0);
        let s = Vec3::new(0.0, 0.0, 50.0e-3);
        // On-axis point: projection shortens by cos θ.
        assert!((pw.distance(Vec3::ZERO, s) - s.z * theta.cos()).abs() < 1e-15);
    }

    #[test]
    fn cached_normal_is_the_steering_unit_vector() {
        for (theta, phi) in [(0.0, 0.0), (deg(10.0), 0.0), (deg(-7.0), deg(12.5))] {
            let TransmitModel::PlaneWave(pw) = TransmitModel::plane_wave(theta, phi) else {
                unreachable!()
            };
            let (n, u) = (pw.normal(), pw.steering.unit());
            assert_eq!(
                [n.x, n.y, n.z].map(f64::to_bits),
                [u.x, u.y, u.z].map(f64::to_bits)
            );
        }
    }

    #[test]
    fn fan_is_symmetric_and_ordered() {
        let fan = TransmitModel::plane_wave_fan(5, deg(8.0));
        assert_eq!(fan.len(), 5);
        let thetas: Vec<f64> = fan
            .iter()
            .map(|m| match m {
                TransmitModel::PlaneWave(pw) => pw.steering.theta,
                TransmitModel::PointSource => unreachable!(),
            })
            .collect();
        assert!((thetas[0] + deg(8.0)).abs() < 1e-15);
        assert!((thetas[2]).abs() < 1e-15);
        assert!((thetas[4] - deg(8.0)).abs() < 1e-15);
        assert!(thetas.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn single_angle_fan_is_unsteered() {
        let fan = TransmitModel::plane_wave_fan(1, deg(15.0));
        assert_eq!(fan, vec![TransmitModel::plane_wave(0.0, 0.0)]);
    }

    #[test]
    fn point_source_weight_is_one_everywhere() {
        let a = array();
        for s in [
            Vec3::new(0.0, 0.0, 1.0e-3),
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(-0.5, 0.3, 0.01),
        ] {
            assert_eq!(TransmitModel::PointSource.weight(&a, s), 1.0);
        }
    }

    #[test]
    fn unsteered_weight_is_one_inside_footprint_zero_outside() {
        let a = array();
        let (ax, _) = a.aperture();
        let pw = TransmitModel::plane_wave(0.0, 0.0);
        // Directly under the array centre: fully insonified.
        assert_eq!(pw.weight(&a, Vec3::new(0.0, 0.0, 30.0e-3)), 1.0);
        // Far outside laterally: dark.
        assert_eq!(pw.weight(&a, Vec3::new(ax, 0.0, 30.0e-3)), 0.0);
        // Exactly on the edge: in the interpolated ramp (0 < w < 1].
        let w = pw.weight(&a, Vec3::new(ax / 2.0, 0.0, 30.0e-3));
        assert!(w > 0.0 && w <= 1.0, "edge weight {w}");
    }

    #[test]
    fn steering_tilts_the_insonified_prism() {
        let a = array();
        let theta = deg(20.0);
        let pw = TransmitModel::plane_wave(theta, 0.0);
        let depth = 50.0e-3;
        // The prism centreline at this depth sits at x = depth·tanθ.
        let centre = Vec3::new(depth * theta.tan(), 0.0, depth);
        assert_eq!(pw.weight(&a, centre), 1.0);
        // The untilted centreline has left the prism at sufficient depth.
        assert_eq!(pw.weight(&a, Vec3::new(-depth, 0.0, depth)), 0.0);
    }

    #[test]
    fn degenerate_steering_is_dark() {
        let a = array();
        let pw = TransmitModel::plane_wave(deg(90.0), 0.0);
        assert_eq!(pw.weight(&a, Vec3::new(0.0, 0.0, 10.0e-3)), 0.0);
    }
}
