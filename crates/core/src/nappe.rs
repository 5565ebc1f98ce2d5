//! Batched per-nappe delay slabs — the streaming unit of the paper's
//! architecture.
//!
//! The paper's central observation is that delays should not be looked up
//! (or recomputed) voxel by voxel: a nappe-by-nappe traversal lets every
//! consumer stream one *slab* of delays per depth step, with strong
//! nappe-to-nappe locality. [`NappeDelays`] is that slab on the host side:
//! all delays for one nappe, restricted to one [`Tile`] of the steering
//! fan (a [`NappeSchedule`](crate::NappeSchedule) block's ownership), for
//! every element.
//!
//! Engines fill slabs with one source, the receive leg
//! ([`fill_nappe_rx`](crate::DelayEngine::fill_nappe_rx)), for every
//! transmit sequence; each transmit's delays are that leg plus a per-row
//! transmit term. A slab is also the emit's per-(tile, nappe) set-up
//! ([`begin_emit`](crate::DelayEngine::begin_emit)), which for a single
//! TABLESTEER transmit is only the nappe's reference row in the slab's
//! integer scratch; its direct group emit
//! ([`emit_group`](crate::DelayEngine::emit_group)) sets up each group's
//! transposed correction registers in the slab's group registers.
//! [`NappeDelays::fill_scalar`] falls back to scalar
//! [`delay_samples`](crate::DelayEngine::delay_samples) queries and is the
//! bit-exactness reference for both.

use crate::engine::GROUP_ROWS;
use crate::schedule::Tile;
use usbf_geometry::{ElementIndex, SystemSpec, VoxelIndex};

/// One nappe's delays over a tile of the steering fan: layout
/// `[scanline within tile (θ-major, φ-inner)][element (linear order)]`,
/// in fractional samples at the system's `fs` — exactly what
/// [`delay_samples`](crate::DelayEngine::delay_samples) returns.
#[derive(Debug, Clone)]
pub struct NappeDelays {
    samples: Vec<f64>,
    tile: Tile,
    n_elements: usize,
    elements_nx: usize,
    n_depth: usize,
    /// `(n_theta, n_phi)` of the fan, the bound on retargeted tiles.
    fan: (usize, usize),
    nappe: Option<usize>,
    // Engine fill scratch, preallocated with the slab so warm refills
    // stay allocation-free (excluded from equality — scratch contents
    // are not part of the slab's value).
    row_args: Vec<f64>,
    row_regs: Vec<f64>,
    row_raw: Vec<i32>,
    group_regs: Vec<[i32; GROUP_ROWS]>,
}

impl PartialEq for NappeDelays {
    fn eq(&self, other: &Self) -> bool {
        self.samples == other.samples
            && self.tile == other.tile
            && self.n_elements == other.n_elements
            && self.elements_nx == other.elements_nx
            && self.n_depth == other.n_depth
            && self.fan == other.fan
            && self.nappe == other.nappe
    }
}

/// Split borrows of a slab mid-fill: the sample buffer plus the engine
/// scratch rows, handed out together by
/// [`NappeDelays::begin_fill_scratch`] so an engine can use both without
/// fighting the borrow checker.
pub struct FillBuffers<'a> {
    /// The slab's raw sample buffer, row-major.
    pub samples: &'a mut [f64],
    /// One element-row of scratch (`n_elements` slots): TABLESTEER's
    /// per-element reference registers, or TABLEFREE's per-row squared
    /// y-distances in its first `elements_ny` slots.
    pub row_args: &'a mut [f64],
    /// One element-row of register scratch (`elements_nx` slots):
    /// TABLESTEER's per-scanline x-corrections, held as integer-valued
    /// `f64`s, or TABLEFREE's per-column squared x-distances.
    pub row_regs: &'a mut [f64],
    /// One element-row of integer registers (`n_elements` slots):
    /// TABLESTEER's unfolded reference row.
    pub row_raw: &'a mut [i32],
}

impl NappeDelays {
    /// Allocates a zeroed slab covering `tile` of `spec`'s steering fan.
    ///
    /// # Panics
    ///
    /// Panics if the tile exceeds the fan.
    pub fn for_tile(spec: &SystemSpec, tile: Tile) -> Self {
        let v = &spec.volume_grid;
        assert!(
            tile.theta_start < tile.theta_end
                && tile.phi_start < tile.phi_end
                && tile.theta_end <= v.n_theta()
                && tile.phi_end <= v.n_phi(),
            "tile {tile:?} outside the {}x{} fan",
            v.n_theta(),
            v.n_phi()
        );
        let n_elements = spec.elements.count();
        NappeDelays {
            samples: vec![0.0; tile.scanlines() * n_elements],
            tile,
            n_elements,
            elements_nx: spec.elements.nx(),
            n_depth: v.n_depth(),
            fan: (v.n_theta(), v.n_phi()),
            nappe: None,
            row_args: vec![0.0; n_elements],
            row_regs: vec![0.0; spec.elements.nx()],
            row_raw: vec![0; n_elements],
            group_regs: vec![[0; GROUP_ROWS]; spec.elements.nx() + spec.elements.ny()],
        }
    }

    /// Allocates a slab covering the whole steering fan.
    pub fn full(spec: &SystemSpec) -> Self {
        let v = &spec.volume_grid;
        Self::for_tile(
            spec,
            Tile {
                theta_start: 0,
                theta_end: v.n_theta(),
                phi_start: 0,
                phi_end: v.n_phi(),
            },
        )
    }

    /// The fan tile this slab covers.
    #[inline]
    pub fn tile(&self) -> Tile {
        self.tile
    }

    /// Elements per scanline row.
    #[inline]
    pub fn n_elements(&self) -> usize {
        self.n_elements
    }

    /// Element-matrix width, for mapping linear element slots back to
    /// [`ElementIndex`] (`j → (j % nx, j / nx)`).
    #[inline]
    pub fn elements_nx(&self) -> usize {
        self.elements_nx
    }

    /// The nappe currently held, if any fill has happened.
    #[inline]
    pub fn nappe(&self) -> Option<usize> {
        self.nappe
    }

    /// Scanlines in the tile.
    #[inline]
    pub fn scanline_count(&self) -> usize {
        self.tile.scanlines()
    }

    /// Row slot of scanline `(it, ip)` within the tile.
    ///
    /// # Panics
    ///
    /// Panics if the scanline is outside the tile.
    #[inline]
    pub fn slot_of(&self, it: usize, ip: usize) -> usize {
        self.tile.slot_of(it, ip)
    }

    /// Iterates `(slot, it, ip)` over the tile in slab row order.
    pub fn scanlines(&self) -> impl Iterator<Item = (usize, usize, usize)> {
        self.tile.iter_scanlines()
    }

    /// One scanline's delays for all elements, in linear element order.
    #[inline]
    pub fn row(&self, slot: usize) -> &[f64] {
        &self.samples[slot * self.n_elements..(slot + 1) * self.n_elements]
    }

    /// The integer register row an engine's set-up left in the slab
    /// ([`FillBuffers::row_raw`]).
    #[inline]
    pub(crate) fn row_raw(&self) -> &[i32] {
        &self.row_raw
    }

    /// The integer register row an engine's set-up left in the slab, and
    /// the slab's group registers: one [`GROUP_ROWS`]-lane register per
    /// element column, then one per element row — TABLESTEER's
    /// transposed correction registers for
    /// [`emit_group`](crate::DelayEngine::emit_group).
    #[inline]
    pub(crate) fn group_registers(&mut self) -> (&[i32], &mut [[i32; GROUP_ROWS]]) {
        (&self.row_raw, &mut self.group_regs)
    }

    /// Delay for scanline `(it, ip)` and element `e` — the batched
    /// counterpart of [`delay_samples`](crate::DelayEngine::delay_samples)
    /// at the held nappe.
    #[inline]
    pub fn at(&self, it: usize, ip: usize, e: ElementIndex) -> f64 {
        self.row(self.slot_of(it, ip))[e.iy * self.elements_nx + e.ix]
    }

    /// The whole slab, row-major.
    #[inline]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Depth steps (nappes) of the volume grid this slab was built for —
    /// the exclusive upper bound on fillable nappe indices.
    #[inline]
    pub fn n_depth(&self) -> usize {
        self.n_depth
    }

    /// Re-points the slab at another tile of the same shape, clearing
    /// the held-nappe marker — how one slab serves every schedule tile
    /// of a depth-band task in turn without a reallocation. A fill after
    /// retargeting equals a fresh [`for_tile`](Self::for_tile) slab's
    /// fill of the same tile.
    ///
    /// # Panics
    ///
    /// Panics if `tile`'s shape differs from the slab's, or if it lies
    /// outside the fan.
    pub fn retarget(&mut self, tile: Tile) {
        let shape = |t: Tile| (t.theta_end - t.theta_start, t.phi_end - t.phi_start);
        assert_eq!(
            shape(tile),
            shape(self.tile),
            "retarget to {tile:?} needs the slab's shape, {:?}",
            self.tile
        );
        assert!(
            tile.theta_end <= self.fan.0 && tile.phi_end <= self.fan.1,
            "tile {tile:?} outside the {}x{} fan",
            self.fan.0,
            self.fan.1
        );
        self.tile = tile;
        self.nappe = None;
    }

    /// Clears the held-nappe marker, returning the slab to its
    /// freshly-allocated state without touching the buffer. Useful when
    /// handing a recycled slab to a different consumer; plain refills
    /// don't need it — [`begin_fill`](Self::begin_fill) overwrites the
    /// marker unconditionally, which is how warm loops reuse slabs.
    pub fn reset(&mut self) {
        self.nappe = None;
    }

    /// Marks the slab as holding `nappe_idx` and hands out the raw buffer
    /// for an engine's batched fill.
    ///
    /// Every engine's slab fill (receive-leg or scalar) routes
    /// through here, so this is the single validation point for
    /// the slab API.
    ///
    /// # Panics
    ///
    /// Panics (in release builds too — the engines' own geometry checks
    /// are `debug_assert`s) if `nappe_idx` is outside the volume grid's
    /// depth range.
    pub fn begin_fill(&mut self, nappe_idx: usize) -> &mut [f64] {
        assert!(
            nappe_idx < self.n_depth,
            "nappe index {nappe_idx} out of range: the volume grid has {} depth steps",
            self.n_depth
        );
        self.nappe = Some(nappe_idx);
        &mut self.samples
    }

    /// Like [`begin_fill`](Self::begin_fill), but also hands out the
    /// slab's preallocated scratch rows — the warm state engines with a
    /// batched datapath (TABLEFREE's argument rows, TABLESTEER's unfolded
    /// reference row and correction registers) use so a warm refill or
    /// emit set-up allocates nothing.
    ///
    /// # Panics
    ///
    /// Same contract as [`begin_fill`](Self::begin_fill).
    pub fn begin_fill_scratch(&mut self, nappe_idx: usize) -> FillBuffers<'_> {
        self.begin_fill(nappe_idx);
        FillBuffers {
            samples: &mut self.samples,
            row_args: &mut self.row_args,
            row_regs: &mut self.row_regs,
            row_raw: &mut self.row_raw,
        }
    }

    /// Rewrites every row of the held nappe in place: `f(vox, old, row)`
    /// receives the row's focal point, a copy of its current contents
    /// (kept in the slab's scratch row, so nothing is allocated) and the
    /// row to overwrite — how
    /// [`fill_nappe`](crate::DelayEngine::fill_nappe) turns a receive-leg
    /// slab into delays with one transmit combine per row.
    ///
    /// # Panics
    ///
    /// Panics if no nappe has been filled.
    pub(crate) fn rewrite_rows(&mut self, mut f: impl FnMut(VoxelIndex, &[f64], &mut [f64])) {
        let id = self.nappe.expect("rewrite_rows needs a filled slab");
        let rows = self.samples.chunks_exact_mut(self.n_elements);
        for ((_, it, ip), row) in self.tile.iter_scanlines().zip(rows) {
            self.row_args.copy_from_slice(row);
            f(VoxelIndex::new(it, ip, id), &self.row_args, row);
        }
    }

    /// Scalar reference fill of transmit `tx`: one
    /// [`delay_samples`](crate::DelayEngine::delay_samples) query per slab
    /// entry — the bit-exactness oracle for every batched path: each
    /// transmit's receive-leg fill plus
    /// [`combine_tx_row`](crate::DelayEngine::combine_tx_row), and the
    /// emit ([`emit_run`](crate::DelayEngine::emit_run)).
    pub fn fill_scalar<E: crate::DelayEngine + ?Sized>(
        &mut self,
        engine: &E,
        tx: usize,
        nappe_idx: usize,
    ) {
        let tile = self.tile;
        let n_elements = self.n_elements;
        let nx = self.elements_nx;
        let buf = self.begin_fill(nappe_idx);
        for (s, it, ip) in tile.iter_scanlines() {
            let vox = VoxelIndex::new(it, ip, nappe_idx);
            let row = &mut buf[s * n_elements..(s + 1) * n_elements];
            for (j, out) in row.iter_mut().enumerate() {
                *out = engine.delay_samples(tx, vox, ElementIndex::new(j % nx, j / nx));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayEngine, ExactEngine};

    #[test]
    fn full_slab_covers_fan_and_elements() {
        let spec = SystemSpec::tiny();
        let slab = NappeDelays::full(&spec);
        assert_eq!(slab.scanline_count(), 64);
        assert_eq!(slab.n_elements(), 64);
        assert_eq!(slab.samples().len(), 64 * 64);
        assert_eq!(slab.nappe(), None);
    }

    #[test]
    fn slots_enumerate_theta_major_phi_inner() {
        let spec = SystemSpec::tiny();
        let tile = Tile {
            theta_start: 2,
            theta_end: 4,
            phi_start: 1,
            phi_end: 4,
        };
        let slab = NappeDelays::for_tile(&spec, tile);
        let order: Vec<_> = slab.scanlines().collect();
        assert_eq!(order[0], (0, 2, 1));
        assert_eq!(order[1], (1, 2, 2));
        assert_eq!(order[3], (3, 3, 1));
        for &(s, it, ip) in &order {
            assert_eq!(slab.slot_of(it, ip), s);
        }
    }

    #[test]
    fn scalar_fill_matches_point_queries() {
        let spec = SystemSpec::tiny();
        let engine = ExactEngine::new(&spec);
        let tile = Tile {
            theta_start: 1,
            theta_end: 3,
            phi_start: 0,
            phi_end: 2,
        };
        let mut slab = NappeDelays::for_tile(&spec, tile);
        slab.fill_scalar(&engine, 0, 5);
        assert_eq!(slab.nappe(), Some(5));
        for (_, it, ip) in slab.scanlines() {
            for e in spec.elements.iter() {
                let vox = VoxelIndex::new(it, ip, 5);
                assert_eq!(slab.at(it, ip, e), engine.delay_samples(0, vox, e));
            }
        }
    }

    #[test]
    fn fill_scratch_marks_nappe_and_sizes_rows() {
        let spec = SystemSpec::tiny();
        let tile = Tile {
            theta_start: 1,
            theta_end: 3,
            phi_start: 0,
            phi_end: 3,
        };
        let mut slab = NappeDelays::for_tile(&spec, tile);
        let bufs = slab.begin_fill_scratch(7);
        assert_eq!(bufs.samples.len(), 6 * 64);
        assert_eq!(bufs.row_args.len(), 64);
        assert_eq!(bufs.row_regs.len(), 8);
        assert_eq!(bufs.row_raw.len(), 64);
        bufs.row_args[0] = 42.0; // scratch contents are not slab value…
        assert_eq!(slab.nappe(), Some(7));
        let fresh = {
            let mut s = NappeDelays::for_tile(&spec, tile);
            s.begin_fill(7);
            s
        };
        assert_eq!(slab, fresh); // …so equality ignores them
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_depth_nappe_rejected_at_fill_boundary() {
        // Release-mode boundary check: the geometry layer only
        // debug_asserts depth indices, so the slab API must reject them
        // unconditionally for every engine (all fills route through
        // begin_fill).
        let spec = SystemSpec::tiny();
        let engine = ExactEngine::new(&spec);
        let mut slab = NappeDelays::full(&spec);
        engine.fill_nappe(16, &mut slab); // tiny grid has n_depth == 16
    }

    #[test]
    fn reset_clears_held_nappe() {
        let spec = SystemSpec::tiny();
        let engine = ExactEngine::new(&spec);
        let mut slab = NappeDelays::full(&spec);
        assert_eq!(slab.n_depth(), 16);
        engine.fill_nappe(3, &mut slab);
        assert_eq!(slab.nappe(), Some(3));
        slab.reset();
        assert_eq!(slab.nappe(), None);
    }

    #[test]
    fn retargeted_fill_equals_a_fresh_slab_fill() {
        let spec = SystemSpec::tiny();
        let engines: [&dyn DelayEngine; 4] = [
            &ExactEngine::new(&spec),
            &crate::NaiveTableEngine::build(&spec, u64::MAX).unwrap(),
            &crate::TableFreeEngine::new(&spec, crate::TableFreeConfig::paper()).unwrap(),
            &crate::TableSteerEngine::new(&spec, crate::TableSteerConfig::bits18()).unwrap(),
        ];
        let tiles = crate::NappeSchedule::fitted(&spec, 4).tiles();
        for engine in engines {
            let mut slab = NappeDelays::for_tile(&spec, tiles[0]);
            for id in [2, 9] {
                for &tile in tiles.iter().rev() {
                    engine.fill_nappe(id, &mut slab);
                    slab.retarget(tile);
                    assert_eq!(slab.nappe(), None, "retarget clears the marker");
                    engine.fill_nappe(id, &mut slab);
                    let mut fresh = NappeDelays::for_tile(&spec, tile);
                    engine.fill_nappe(id, &mut fresh);
                    assert_eq!(slab, fresh, "{} {tile:?} nappe {id}", engine.name());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "needs the slab's shape")]
    fn retarget_rejects_another_shape() {
        let spec = SystemSpec::tiny();
        let tile = |theta_end, phi_end| Tile {
            theta_start: 0,
            theta_end,
            phi_start: 0,
            phi_end,
        };
        NappeDelays::for_tile(&spec, tile(2, 4)).retarget(tile(4, 2));
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn retarget_rejects_a_tile_outside_the_fan() {
        let spec = SystemSpec::tiny();
        let tile = |theta_start| Tile {
            theta_start,
            theta_end: theta_start + 4,
            phi_start: 0,
            phi_end: 4,
        };
        NappeDelays::for_tile(&spec, tile(0)).retarget(tile(6));
    }

    #[test]
    #[should_panic(expected = "outside tile")]
    fn out_of_tile_scanline_panics() {
        let spec = SystemSpec::tiny();
        let tile = Tile {
            theta_start: 0,
            theta_end: 2,
            phi_start: 0,
            phi_end: 2,
        };
        NappeDelays::for_tile(&spec, tile).slot_of(5, 0);
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn oversized_tile_rejected() {
        let spec = SystemSpec::tiny();
        let tile = Tile {
            theta_start: 0,
            theta_end: 9,
            phi_start: 0,
            phi_end: 8,
        };
        NappeDelays::for_tile(&spec, tile);
    }
}
