//! The reconstructed volume container.

use crate::{ProjectionAxis, SlicePlane};
use usbf_geometry::{SystemSpec, VoxelIndex};

/// A beamformed volume: one value per focal point, stored in
/// scanline-major linear order.
#[derive(Debug, Clone, PartialEq)]
pub struct BeamformedVolume {
    data: Vec<f64>,
    n_theta: usize,
    n_phi: usize,
    n_depth: usize,
}

impl BeamformedVolume {
    /// Allocates a zeroed volume matching a spec's focal grid.
    pub fn zeros(spec: &SystemSpec) -> Self {
        let v = &spec.volume_grid;
        BeamformedVolume {
            data: vec![0.0; v.voxel_count()],
            n_theta: v.n_theta(),
            n_phi: v.n_phi(),
            n_depth: v.n_depth(),
        }
    }

    #[inline]
    fn linear(&self, vox: VoxelIndex) -> usize {
        debug_assert!(
            vox.it < self.n_theta && vox.ip < self.n_phi && vox.id < self.n_depth,
            "voxel {vox} out of range"
        );
        (vox.it * self.n_phi + vox.ip) * self.n_depth + vox.id
    }

    /// Value at a voxel.
    #[inline]
    pub fn get(&self, vox: VoxelIndex) -> f64 {
        self.data[self.linear(vox)]
    }

    /// Sets the value at a voxel.
    #[inline]
    pub fn set(&mut self, vox: VoxelIndex, value: f64) {
        let i = self.linear(vox);
        self.data[i] = value;
    }

    /// Total voxels.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the volume has no voxels (never true for a spec-built
    /// volume).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Largest |value|.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Voxel with the largest |value|.
    pub fn argmax(&self) -> VoxelIndex {
        let (mut best, mut best_i) = (-1.0f64, 0);
        for (i, &v) in self.data.iter().enumerate() {
            if v.abs() > best {
                best = v.abs();
                best_i = i;
            }
        }
        let id = best_i % self.n_depth;
        let rest = best_i / self.n_depth;
        VoxelIndex::new(rest / self.n_phi, rest % self.n_phi, id)
    }

    /// The raw values in scanline-major order.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The `(n_theta, n_phi, n_depth)` extents.
    pub(crate) fn dims(&self) -> (usize, usize, usize) {
        (self.n_theta, self.n_phi, self.n_depth)
    }

    /// Depth samples per scanline column.
    #[inline]
    pub fn n_depth(&self) -> usize {
        self.n_depth
    }

    /// Mutable iteration over the volume's scanline columns (each one
    /// contiguous axial trace of `n_depth` values), in θ-major, φ-inner
    /// order — the granularity the post-processing chain operates at.
    pub fn columns_mut(&mut self) -> impl Iterator<Item = &mut [f64]> {
        self.data.chunks_exact_mut(self.n_depth)
    }

    /// Extracts a plane from the dense volume — the materialized
    /// reference [`VolumeView::slice`](crate::VolumeView::slice) is
    /// tested against. Same output layout as the view.
    ///
    /// # Panics
    ///
    /// Panics if the fixed index is out of range.
    pub fn slice(&self, plane: SlicePlane) -> Vec<f64> {
        match plane {
            SlicePlane::Theta(it) => {
                assert!(it < self.n_theta, "theta index {it} out of range");
                (0..self.n_phi)
                    .flat_map(|ip| {
                        (0..self.n_depth).map(move |id| self.get(VoxelIndex::new(it, ip, id)))
                    })
                    .collect()
            }
            SlicePlane::Phi(ip) => {
                assert!(ip < self.n_phi, "phi index {ip} out of range");
                (0..self.n_theta)
                    .flat_map(|it| {
                        (0..self.n_depth).map(move |id| self.get(VoxelIndex::new(it, ip, id)))
                    })
                    .collect()
            }
            SlicePlane::Depth(id) => {
                assert!(id < self.n_depth, "depth index {id} out of range");
                (0..self.n_theta)
                    .flat_map(|it| {
                        (0..self.n_phi).map(move |ip| self.get(VoxelIndex::new(it, ip, id)))
                    })
                    .collect()
            }
        }
    }

    /// Max-intensity projection along an axis from the dense volume —
    /// the materialized reference
    /// [`VolumeView::mip`](crate::VolumeView::mip) is tested against.
    /// Signed [`f64::max`] fold, like the view.
    pub fn mip(&self, axis: ProjectionAxis) -> Vec<f64> {
        let fold_len = match axis {
            ProjectionAxis::Theta => self.n_theta,
            ProjectionAxis::Phi => self.n_phi,
            ProjectionAxis::Depth => self.n_depth,
        };
        let get = |a: usize, b: usize, k: usize| match axis {
            ProjectionAxis::Theta => self.get(VoxelIndex::new(k, a, b)),
            ProjectionAxis::Phi => self.get(VoxelIndex::new(a, k, b)),
            ProjectionAxis::Depth => self.get(VoxelIndex::new(a, b, k)),
        };
        let (rows, cols) = match axis {
            ProjectionAxis::Theta => (self.n_phi, self.n_depth),
            ProjectionAxis::Phi => (self.n_theta, self.n_depth),
            ProjectionAxis::Depth => (self.n_theta, self.n_phi),
        };
        (0..rows)
            .flat_map(|a| {
                (0..cols)
                    .map(move |b| (0..fold_len).fold(f64::NEG_INFINITY, |m, k| m.max(get(a, b, k))))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vol() -> BeamformedVolume {
        BeamformedVolume::zeros(&SystemSpec::tiny())
    }

    #[test]
    fn set_get_roundtrip() {
        let mut v = vol();
        let vox = VoxelIndex::new(2, 3, 4);
        v.set(vox, 1.5);
        assert_eq!(v.get(vox), 1.5);
        assert_eq!(v.get(VoxelIndex::new(2, 3, 5)), 0.0);
    }

    #[test]
    fn argmax_finds_largest_magnitude() {
        let mut v = vol();
        v.set(VoxelIndex::new(1, 1, 1), 0.5);
        v.set(VoxelIndex::new(7, 6, 15), -2.0);
        assert_eq!(v.argmax(), VoxelIndex::new(7, 6, 15));
        assert_eq!(v.max_abs(), 2.0);
    }

    #[test]
    fn volume_covers_the_grid() {
        let v = vol();
        assert_eq!(v.len(), 8 * 8 * 16);
        assert!(!v.is_empty());
    }
}
