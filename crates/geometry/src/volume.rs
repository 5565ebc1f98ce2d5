//! The imaging volume: a spherical-sector grid of focal points.

use crate::{SphericalDirection, Vec3};
use std::fmt;

/// Index of one focal point (voxel) in the imaging volume grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VoxelIndex {
    /// Azimuth (θ) grid index.
    pub it: usize,
    /// Elevation (φ) grid index.
    pub ip: usize,
    /// Depth grid index.
    pub id: usize,
}

impl VoxelIndex {
    /// Creates a voxel index.
    #[inline]
    pub const fn new(it: usize, ip: usize, id: usize) -> Self {
        VoxelIndex { it, ip, id }
    }
}

impl fmt::Display for VoxelIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S[θ{},φ{},d{}]", self.it, self.ip, self.id)
    }
}

/// The volume of interest `V`: `nθ × nφ` steered lines of sight, each
/// sampled at `nd` depths (Table I: 128 × 128 × 1000 over 73° × 73° ×
/// 500λ).
///
/// Angles are linearly spaced on `[-θmax, +θmax]` / `[-φmax, +φmax]`
/// (inclusive). Depths are `d_k = (k + 1)·Δd` with `Δd = depth_max / nd`,
/// so the first focal point sits one depth-step below the probe — the
/// origin itself is never a focal point (its steering direction is
/// undefined and its delay trivially zero).
///
/// ```
/// use usbf_geometry::{ImagingVolume, VoxelIndex, deg};
/// let v = ImagingVolume::new(deg(36.5), deg(36.5), 0.09625, 128, 128, 1000);
/// assert_eq!(v.voxel_count(), 128 * 128 * 1000);
/// let center = v.position(VoxelIndex::new(64, 64, 499));
/// assert!(center.z > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ImagingVolume {
    theta_max: f64,
    phi_max: f64,
    depth_max: f64,
    n_theta: usize,
    n_phi: usize,
    n_depth: usize,
    /// `(sin, cos)` of every azimuth line's angle, then of every
    /// elevation line's: [`position`](Self::position) runs per delay row,
    /// so the trigonometry of Eq. 5 is done once per line here.
    line_sin_cos: Vec<(f64, f64)>,
}

impl ImagingVolume {
    /// Creates a volume with half-angles `theta_max`, `phi_max` (radians),
    /// maximum depth `depth_max` (metres) and the given grid resolution.
    ///
    /// # Panics
    ///
    /// Panics if any grid dimension is zero, the depth is not positive, or a
    /// half-angle is outside `(0, π/2)`.
    pub fn new(
        theta_max: f64,
        phi_max: f64,
        depth_max: f64,
        n_theta: usize,
        n_phi: usize,
        n_depth: usize,
    ) -> Self {
        assert!(
            n_theta > 0 && n_phi > 0 && n_depth > 0,
            "grid dimensions must be nonzero"
        );
        assert!(depth_max > 0.0, "depth must be positive, got {depth_max}");
        assert!(
            theta_max > 0.0 && theta_max < std::f64::consts::FRAC_PI_2,
            "theta_max must be in (0, π/2), got {theta_max}"
        );
        assert!(
            phi_max > 0.0 && phi_max < std::f64::consts::FRAC_PI_2,
            "phi_max must be in (0, π/2), got {phi_max}"
        );
        let lines = |n, max| (0..n).map(move |i| Self::angle_of(i, n, max).sin_cos());
        ImagingVolume {
            theta_max,
            phi_max,
            depth_max,
            n_theta,
            n_phi,
            n_depth,
            line_sin_cos: lines(n_theta, theta_max)
                .chain(lines(n_phi, phi_max))
                .collect(),
        }
    }

    /// Azimuth half-angle θmax in radians.
    #[inline]
    pub fn theta_max(&self) -> f64 {
        self.theta_max
    }

    /// Elevation half-angle φmax in radians.
    #[inline]
    pub fn phi_max(&self) -> f64 {
        self.phi_max
    }

    /// Maximum imaging depth in metres.
    #[inline]
    pub fn depth_max(&self) -> f64 {
        self.depth_max
    }

    /// Number of azimuth lines.
    #[inline]
    pub fn n_theta(&self) -> usize {
        self.n_theta
    }

    /// Number of elevation lines.
    #[inline]
    pub fn n_phi(&self) -> usize {
        self.n_phi
    }

    /// Number of focal depths per line of sight.
    #[inline]
    pub fn n_depth(&self) -> usize {
        self.n_depth
    }

    /// Total number of focal points.
    #[inline]
    pub fn voxel_count(&self) -> usize {
        self.n_theta * self.n_phi * self.n_depth
    }

    /// Number of steered lines of sight (scanlines).
    #[inline]
    pub fn scanline_count(&self) -> usize {
        self.n_theta * self.n_phi
    }

    /// Depth-step Δd in metres.
    #[inline]
    pub fn depth_step(&self) -> f64 {
        self.depth_max / self.n_depth as f64
    }

    fn angle_of(index: usize, n: usize, max: f64) -> f64 {
        if n == 1 {
            0.0
        } else {
            -max + 2.0 * max * index as f64 / (n as f64 - 1.0)
        }
    }

    /// Azimuth angle of grid line `it`.
    #[inline]
    pub fn theta_of(&self, it: usize) -> f64 {
        debug_assert!(it < self.n_theta);
        Self::angle_of(it, self.n_theta, self.theta_max)
    }

    /// Elevation angle of grid line `ip`.
    #[inline]
    pub fn phi_of(&self, ip: usize) -> f64 {
        debug_assert!(ip < self.n_phi);
        Self::angle_of(ip, self.n_phi, self.phi_max)
    }

    /// Radial distance of depth index `id` from the origin.
    #[inline]
    pub fn depth_of(&self, id: usize) -> f64 {
        debug_assert!(id < self.n_depth);
        (id as f64 + 1.0) * self.depth_step()
    }

    /// Steering direction of the scanline through voxel column `(it, ip)`.
    #[inline]
    pub fn direction(&self, it: usize, ip: usize) -> SphericalDirection {
        SphericalDirection::new(self.theta_of(it), self.phi_of(ip))
    }

    /// Cartesian position of a focal point (Eq. 5): bit-identical to
    /// `self.direction(v.it, v.ip).point_at(self.depth_of(v.id))`, with
    /// the direction's sines and cosines read from the per-line table.
    #[inline]
    pub fn position(&self, v: VoxelIndex) -> Vec3 {
        debug_assert!(v.it < self.n_theta && v.ip < self.n_phi);
        let (st, ct) = self.line_sin_cos[v.it];
        let (sp, cp) = self.line_sin_cos[self.n_theta + v.ip];
        Vec3::new(cp * st, sp, cp * ct) * self.depth_of(v.id)
    }

    /// Flattens a voxel index into scanline-major linear order
    /// (θ outermost, then φ, then depth).
    #[inline]
    pub fn linear_index(&self, v: VoxelIndex) -> usize {
        debug_assert!(v.it < self.n_theta && v.ip < self.n_phi && v.id < self.n_depth);
        (v.it * self.n_phi + v.ip) * self.n_depth + v.id
    }

    /// Inverse of [`ImagingVolume::linear_index`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.voxel_count()`.
    pub fn voxel_at(&self, i: usize) -> VoxelIndex {
        assert!(
            i < self.voxel_count(),
            "linear voxel index {i} out of range"
        );
        let id = i % self.n_depth;
        let rest = i / self.n_depth;
        VoxelIndex::new(rest / self.n_phi, rest % self.n_phi, id)
    }

    /// Returns a volume identical to `self` but with a different grid
    /// resolution — used to down-sample sweeps while keeping the physical
    /// extent of the paper's geometry.
    pub fn with_resolution(&self, n_theta: usize, n_phi: usize, n_depth: usize) -> Self {
        ImagingVolume::new(
            self.theta_max,
            self.phi_max,
            self.depth_max,
            n_theta,
            n_phi,
            n_depth,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deg;

    fn vol() -> ImagingVolume {
        ImagingVolume::new(deg(36.5), deg(36.5), 0.09625, 8, 6, 10)
    }

    #[test]
    fn angles_span_symmetric_range() {
        let v = vol();
        assert!((v.theta_of(0) + v.theta_max()).abs() < 1e-15);
        assert!((v.theta_of(7) - v.theta_max()).abs() < 1e-15);
        assert!((v.phi_of(0) + v.phi_max()).abs() < 1e-15);
        assert!((v.phi_of(5) - v.phi_max()).abs() < 1e-15);
    }

    #[test]
    fn single_line_grid_is_on_axis() {
        let v = ImagingVolume::new(deg(10.0), deg(10.0), 0.05, 1, 1, 4);
        assert_eq!(v.theta_of(0), 0.0);
        assert_eq!(v.phi_of(0), 0.0);
        let p = v.position(VoxelIndex::new(0, 0, 3));
        assert_eq!((p.x, p.y), (0.0, 0.0));
        assert!((p.z - 0.05).abs() < 1e-15);
    }

    #[test]
    fn depths_start_one_step_in_and_end_at_max() {
        let v = vol();
        assert!((v.depth_of(0) - v.depth_step()).abs() < 1e-18);
        assert!((v.depth_of(9) - 0.09625).abs() < 1e-15);
    }

    #[test]
    fn voxel_positions_have_expected_radius() {
        let v = vol();
        for id in 0..v.n_depth() {
            let p = v.position(VoxelIndex::new(3, 2, id));
            assert!((p.norm() - v.depth_of(id)).abs() < 1e-15);
        }
    }

    #[test]
    fn tabled_positions_equal_the_eq5_direction_walk_bit_for_bit() {
        for v in [
            vol(),
            ImagingVolume::new(deg(4.0), deg(70.0), 0.02, 1, 17, 3),
        ] {
            for i in 0..v.voxel_count() {
                let vox = v.voxel_at(i);
                let walk = v.direction(vox.it, vox.ip).point_at(v.depth_of(vox.id));
                let p = v.position(vox);
                assert_eq!(
                    [p.x, p.y, p.z].map(f64::to_bits),
                    [walk.x, walk.y, walk.z].map(f64::to_bits),
                    "{vox}"
                );
            }
        }
    }

    #[test]
    fn linear_index_roundtrip() {
        let v = vol();
        for i in 0..v.voxel_count() {
            assert_eq!(v.linear_index(v.voxel_at(i)), i);
        }
    }

    #[test]
    fn with_resolution_keeps_extent() {
        let v = vol().with_resolution(3, 3, 5);
        assert_eq!(v.n_theta(), 3);
        assert!((v.theta_max() - deg(36.5)).abs() < 1e-15);
        assert!((v.depth_max() - 0.09625).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "grid dimensions must be nonzero")]
    fn zero_grid_rejected() {
        ImagingVolume::new(deg(10.0), deg(10.0), 0.05, 0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "theta_max must be in")]
    fn right_angle_rejected() {
        ImagingVolume::new(deg(90.0), deg(10.0), 0.05, 2, 2, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn voxel_at_out_of_range_panics() {
        vol().voxel_at(8 * 6 * 10);
    }
}
