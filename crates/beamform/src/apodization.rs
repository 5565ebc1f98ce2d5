//! Aperture apodization windows — the `w(S)` weights of Eq. 1.

use std::ops::Range;
use usbf_geometry::{ElementIndex, TransducerArray};

/// A separable aperture window: the element weight is
/// `w(ξx)·w(ξy)` with `ξ ∈ [−1, 1]` the normalized position along each
/// aperture axis. Rect is the unweighted sum; Hann/Hamming trade main-lobe
/// width for sidelobe suppression; Tukey interpolates between Rect and
/// Hann with a taper fraction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Apodization {
    /// Uniform weights (no apodization).
    Rect,
    /// Hann window: `0.5·(1 + cos(πξ))`.
    #[default]
    Hann,
    /// Hamming window: `0.54 + 0.46·cos(πξ)`.
    Hamming,
    /// Tukey (tapered-cosine) window with taper fraction in `[0, 1]`
    /// (0 → Rect, 1 → Hann).
    Tukey(f64),
}

impl Apodization {
    fn axis_weight(self, xi: f64) -> f64 {
        let xi = xi.clamp(-1.0, 1.0).abs();
        match self {
            Apodization::Rect => 1.0,
            Apodization::Hann => 0.5 * (1.0 + (std::f64::consts::PI * xi).cos()),
            Apodization::Hamming => 0.54 + 0.46 * (std::f64::consts::PI * xi).cos(),
            Apodization::Tukey(taper) => {
                let taper = taper.clamp(0.0, 1.0);
                if taper == 0.0 || xi < 1.0 - taper {
                    1.0
                } else {
                    0.5 * (1.0 + ((std::f64::consts::PI / taper) * (xi - 1.0 + taper)).cos())
                }
            }
        }
    }

    /// Weight of element `e` on array `array`, in `[0, 1]`.
    pub fn weight(self, array: &TransducerArray, e: ElementIndex) -> f64 {
        let half_x = array.x_of(array.nx() - 1).abs().max(f64::MIN_POSITIVE);
        let half_y = array.y_of(array.ny() - 1).abs().max(f64::MIN_POSITIVE);
        let xi_x = array.x_of(e.ix) / half_x;
        let xi_y = array.y_of(e.iy) / half_y;
        self.axis_weight(xi_x) * self.axis_weight(xi_y)
    }

    /// Precomputes the weights of every element in linear order.
    pub fn weights(self, array: &TransducerArray) -> Vec<f64> {
        array.iter().map(|e| self.weight(array, e)).collect()
    }
}

/// The compacted aperture: every element whose apodization weight is
/// nonzero, as parallel `(flat channel index, weight)` lists in linear
/// element order.
///
/// Windows that vanish at the aperture edge (Hann, wide Tukey tapers)
/// zero entire border rows and columns; the scalar Eq. 1 loop re-tested
/// `w == 0.0` for **every element of every voxel**. Compacting once per
/// beamformer lifetime removes both that branch and the zero-weight
/// elements themselves from the inner kernel — the kernel iterates the
/// active lists directly, with no `j % nx` / `j / nx` recovery of the
/// element coordinates.
///
/// A separable window zeroes whole border rows and columns, so the active
/// channels fall into a few long runs of consecutive channels (Hann on a
/// 32×32 array: 30 runs of 30). The runs are recorded at build time, and
/// [`compact_in_place`](Self::compact_in_place) moves them as slices
/// instead of gathering channel by channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ActiveAperture {
    channels: Vec<u32>,
    weights: Vec<f64>,
    /// `channels` as maximal ranges of consecutive channels, ascending.
    runs: Vec<Range<usize>>,
    n_elements: usize,
}

impl ActiveAperture {
    /// Compacts `apodization` over `array`, keeping elements with
    /// `weight != 0.0` in linear element order.
    #[must_use]
    pub fn build(apodization: Apodization, array: &TransducerArray) -> Self {
        let mut channels = Vec::new();
        let mut weights = Vec::new();
        for (j, w) in apodization.weights(array).into_iter().enumerate() {
            if w != 0.0 {
                channels.push(j as u32);
                weights.push(w);
            }
        }
        // Counted first, so the runs take one exact-size allocation: a
        // run list grown alongside `channels` shifted glibc's heap layout
        // enough to keep a dropped RF ring buffer resident (+8–16 MB peak
        // RSS on the benchmark's cpwc16-tiny set-up, 2-vCPU x86-64).
        let breaks = channels.windows(2).filter(|p| p[1] != p[0] + 1).count();
        let mut runs: Vec<Range<usize>> =
            Vec::with_capacity(usize::from(!channels.is_empty()) + breaks);
        for &c in &channels {
            let c = c as usize;
            match runs.last_mut() {
                Some(run) if run.end == c => run.end += 1,
                _ => runs.push(c..c + 1),
            }
        }
        ActiveAperture {
            channels,
            weights,
            runs,
            n_elements: array.count(),
        }
    }

    /// Flat channel indices of the active elements, ascending.
    #[inline]
    pub fn channels(&self) -> &[u32] {
        &self.channels
    }

    /// Weights of the active elements, parallel to
    /// [`channels`](Self::channels).
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The active channels as maximal ranges of consecutive flat channel
    /// indices, ascending: concatenated, they are exactly
    /// [`channels`](Self::channels), and no two ranges touch.
    #[inline]
    pub fn runs(&self) -> &[Range<usize>] {
        &self.runs
    }

    /// Compacts one full element row down to the active aperture in
    /// place, `row[k] = row[channels[k]]`, one slice move per run, and
    /// returns the compacted prefix of [`len`](Self::len) entries. Runs
    /// ascend, so each moves left over entries already read; a run
    /// already in place (all of a full aperture) is not moved.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than the array.
    #[inline]
    pub fn compact_in_place<'r>(&self, row: &'r mut [f64]) -> &'r [f64] {
        let mut k = 0;
        for run in &self.runs {
            if run.start != k {
                row.copy_within(run.clone(), k);
            }
            k += run.len();
        }
        &row[..k]
    }

    /// Number of active elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// Whether no element carries weight (degenerate windows only).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Whether every element of the array is active — when true,
    /// compaction leaves a row as it is.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.channels.len() == self.n_elements
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> TransducerArray {
        TransducerArray::new(9, 9, 0.2e-3)
    }

    #[test]
    fn rect_is_uniform() {
        let a = array();
        for e in a.iter() {
            assert_eq!(Apodization::Rect.weight(&a, e), 1.0);
        }
    }

    #[test]
    fn hann_peaks_at_center_vanishes_at_edges() {
        let a = array();
        let center = Apodization::Hann.weight(&a, a.center_element());
        assert!((center - 1.0).abs() < 1e-12);
        let corner = Apodization::Hann.weight(&a, ElementIndex::new(0, 0));
        assert!(corner.abs() < 1e-12);
    }

    #[test]
    fn hamming_keeps_edge_pedestal() {
        let a = array();
        let corner = Apodization::Hamming.weight(&a, ElementIndex::new(0, 0));
        // Hamming edge value is 0.08 per axis → 0.0064 at the corner.
        assert!((corner - 0.08 * 0.08).abs() < 1e-12);
    }

    #[test]
    fn tukey_limits() {
        let a = array();
        for e in a.iter() {
            let rect = Apodization::Rect.weight(&a, e);
            let t0 = Apodization::Tukey(0.0).weight(&a, e);
            assert!((t0 - rect).abs() < 1e-12);
            let hann = Apodization::Hann.weight(&a, e);
            let t1 = Apodization::Tukey(1.0).weight(&a, e);
            assert!((t1 - hann).abs() < 1e-12, "e={e}: {t1} vs {hann}");
        }
    }

    #[test]
    fn weights_are_symmetric() {
        let a = array();
        for apod in [
            Apodization::Hann,
            Apodization::Hamming,
            Apodization::Tukey(0.5),
        ] {
            for e in a.iter() {
                let m = ElementIndex::new(a.nx() - 1 - e.ix, a.ny() - 1 - e.iy);
                assert!(
                    (apod.weight(&a, e) - apod.weight(&a, m)).abs() < 1e-12,
                    "{apod:?} at {e}"
                );
            }
        }
    }

    #[test]
    fn weights_vector_matches_per_element() {
        let a = array();
        let w = Apodization::Hann.weights(&a);
        for (i, e) in a.iter().enumerate() {
            assert_eq!(w[i], Apodization::Hann.weight(&a, e));
        }
    }

    #[test]
    fn active_aperture_drops_exactly_the_zero_weights() {
        let a = array();
        for apod in [
            Apodization::Rect,
            Apodization::Hann,
            Apodization::Hamming,
            Apodization::Tukey(0.5),
        ] {
            let full = apod.weights(&a);
            let active = ActiveAperture::build(apod, &a);
            assert_eq!(active.len(), full.iter().filter(|&&w| w != 0.0).count());
            for (&c, &w) in active.channels().iter().zip(active.weights()) {
                assert_eq!(w, full[c as usize], "{apod:?} channel {c}");
                assert_ne!(w, 0.0);
            }
            // Channels ascend, so the compacted order is the linear order.
            assert!(active.channels().windows(2).all(|p| p[0] < p[1]));
            assert_eq!(active.is_full(), active.len() == a.count());
        }
        // Hann vanishes on the border of the 9×9 array: 32 border
        // elements of 81 drop out.
        let hann = ActiveAperture::build(Apodization::Hann, &a);
        assert_eq!(hann.len(), 49);
        assert!(!hann.is_full() && !hann.is_empty());
        assert!(ActiveAperture::build(Apodization::Rect, &a).is_full());
    }

    #[test]
    fn separable_windows_compact_into_row_runs() {
        // Hann zeroes the border rows and columns of a 32×32 array: the
        // 900 active channels are 30 runs of 30, one per interior row.
        let hann = ActiveAperture::build(Apodization::Hann, &TransducerArray::new(32, 32, 0.2e-3));
        assert_eq!(hann.runs().len(), 30);
        assert!(hann.runs().iter().all(|r| r.len() == 30));
        assert_eq!(hann.runs()[0], 33..63);
        // A full window is one run; a 1×N column loses only its two ends.
        let rect = ActiveAperture::build(Apodization::Rect, &array());
        assert_eq!(rect.runs(), std::slice::from_ref(&(0..81)));
        let column = ActiveAperture::build(Apodization::Hann, &TransducerArray::new(1, 9, 0.2e-3));
        assert_eq!(column.runs(), std::slice::from_ref(&(1..8)));
    }

    #[test]
    fn all_weights_in_unit_interval() {
        let a = TransducerArray::new(16, 12, 0.2e-3);
        for apod in [
            Apodization::Rect,
            Apodization::Hann,
            Apodization::Hamming,
            Apodization::Tukey(0.3),
        ] {
            for w in apod.weights(&a) {
                assert!((0.0..=1.0).contains(&w), "{apod:?}: w = {w}");
            }
        }
    }
}
