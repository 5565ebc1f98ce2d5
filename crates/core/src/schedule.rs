//! The Fig. 4 control schedule: who computes what, when.
//!
//! The paper's TABLESTEER block description implies a static work split:
//! "the system can be arranged so that each block keeps using the same
//! correction coefficients through each insonification, entirely removing
//! the coefficients from the critical timing path", and "the delay values
//! loaded in each [BRAM] should be staggered rather than consecutive, so
//! that a beamformer trying to fetch delay samples for consecutive nappes
//! can retrieve them from the 128 BRAMs in parallel."
//!
//! [`NappeSchedule`] makes that arrangement explicit: each block owns one
//! `x_per_cycle × y_per_cycle` tile of the steering fan (its correction
//! registers never change within an insonification) and streams every
//! element's reference delay for the active nappe from its own staggered
//! BRAM copy. Verifying the schedule covers each (scanline, element) pair
//! exactly once per nappe is what turns Fig. 4 from a picture into an
//! architecture.

use crate::SteerBlockSpec;
use usbf_geometry::SystemSpec;

/// A static assignment of steering-fan tiles to delay-computation blocks.
///
/// ```
/// use usbf_core::NappeSchedule;
/// use usbf_geometry::SystemSpec;
///
/// // The paper's Fig. 4 layout: 128 blocks, each owning an 8 × 16 tile
/// // of the 128 × 128 fan and streaming one nappe of delays per step.
/// let schedule = NappeSchedule::paper();
/// assert_eq!(schedule.n_blocks(), 128);
/// assert_eq!(schedule.tile_of(0).scanlines(), 128);
///
/// // Host-side: fit a schedule to any spec with enough tiles to keep a
/// // worker pool busy (the parallel work list of `beamform_volume`).
/// let fitted = NappeSchedule::fitted(&SystemSpec::tiny(), 4);
/// assert_eq!(fitted.tiles().len(), fitted.n_blocks());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NappeSchedule {
    block: SteerBlockSpec,
    n_theta: usize,
    n_phi: usize,
    elements: usize,
}

/// One block's tile of the steering fan: half-open index ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// First θ line of the tile.
    pub theta_start: usize,
    /// One past the last θ line.
    pub theta_end: usize,
    /// First φ line.
    pub phi_start: usize,
    /// One past the last φ line.
    pub phi_end: usize,
}

impl Tile {
    /// Steered lines of sight in this tile.
    pub fn scanlines(&self) -> usize {
        (self.theta_end - self.theta_start) * (self.phi_end - self.phi_start)
    }

    /// Whether a scanline belongs to this tile.
    pub fn contains(&self, it: usize, ip: usize) -> bool {
        it >= self.theta_start && it < self.theta_end && ip >= self.phi_start && ip < self.phi_end
    }

    /// Row slot of scanline `(it, ip)` in the tile's canonical order
    /// (θ-major, φ-inner) — the layout of every per-nappe delay slab.
    ///
    /// # Panics
    ///
    /// Panics if the scanline is outside the tile.
    #[inline]
    pub fn slot_of(&self, it: usize, ip: usize) -> usize {
        assert!(
            self.contains(it, ip),
            "scanline ({it},{ip}) outside tile {self:?}"
        );
        (it - self.theta_start) * (self.phi_end - self.phi_start) + (ip - self.phi_start)
    }

    /// Inverse of [`Tile::slot_of`]: the scanline `(it, ip)` stored at row
    /// `slot` of the tile's canonical order — how a streamed-row consumer
    /// recovers the focal direction of a delivered slab row.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `slot` is outside the tile.
    #[inline]
    pub fn scanline_at(&self, slot: usize) -> (usize, usize) {
        debug_assert!(slot < self.scanlines(), "slot {slot} outside tile {self:?}");
        let phi_w = self.phi_end - self.phi_start;
        (
            self.theta_start + slot / phi_w,
            self.phi_start + slot % phi_w,
        )
    }

    /// Iterates `(slot, it, ip)` over the tile in canonical slot order —
    /// the single source of truth for slab row enumeration. The scanline
    /// steps along φ and wraps to the next θ line, so enumerating a row
    /// costs no integer division.
    pub fn iter_scanlines(self) -> impl Iterator<Item = (usize, usize, usize)> {
        let (mut it, mut ip) = (self.theta_start, self.phi_start);
        (0..self.scanlines()).map(move |s| {
            let at = (s, it, ip);
            ip += 1;
            if ip == self.phi_end {
                (it, ip) = (it + 1, self.phi_start);
            }
            at
        })
    }
}

impl NappeSchedule {
    /// Builds the schedule for a spec and block structure.
    ///
    /// # Panics
    ///
    /// Panics if the steering fan does not tile exactly into
    /// `x_per_cycle × y_per_cycle` blocks of `n_blocks` (the paper's
    /// 128 × 128 fan tiles into 128 blocks of 8 × 16).
    pub fn new(spec: &SystemSpec, block: SteerBlockSpec) -> Self {
        let v = &spec.volume_grid;
        assert!(
            v.n_theta().is_multiple_of(block.x_per_cycle)
                && v.n_phi().is_multiple_of(block.y_per_cycle),
            "fan {}x{} must tile into {}x{} blocks",
            v.n_theta(),
            v.n_phi(),
            block.x_per_cycle,
            block.y_per_cycle
        );
        let tiles = (v.n_theta() / block.x_per_cycle) * (v.n_phi() / block.y_per_cycle);
        assert!(
            tiles == block.n_blocks,
            "{tiles} tiles need exactly {} blocks, got {}",
            tiles,
            block.n_blocks
        );
        NappeSchedule {
            block,
            n_theta: v.n_theta(),
            n_phi: v.n_phi(),
            elements: spec.elements.count(),
        }
    }

    /// The paper's schedule: 128 blocks × (8 × 16) tiles over the
    /// 128 × 128 fan.
    pub fn paper() -> Self {
        NappeSchedule::new(&SystemSpec::paper(), SteerBlockSpec::paper())
    }

    /// A schedule fitted to any spec: picks the largest tile shape (by
    /// scanlines per tile) whose grid still yields at least
    /// `target_tiles` blocks, among the divisors of the fan dimensions.
    /// Falls back to 1 × 1 tiles when the whole fan has fewer scanlines
    /// than `target_tiles`. Deterministic for a given `(spec, target)`.
    pub fn fitted(spec: &SystemSpec, target_tiles: usize) -> Self {
        let v = &spec.volume_grid;
        let (nt, np) = (v.n_theta(), v.n_phi());
        let target = target_tiles.max(1);
        let divisors = |n: usize| (1..=n).filter(move |d| n.is_multiple_of(*d));
        let mut best: Option<(usize, usize)> = None;
        for dx in divisors(nt) {
            for dy in divisors(np) {
                if (nt / dx) * (np / dy) < target {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bx, by)) => {
                        let (area, barea) = (dx * dy, bx * by);
                        area > barea || (area == barea && dx.abs_diff(dy) < bx.abs_diff(by))
                    }
                };
                if better {
                    best = Some((dx, dy));
                }
            }
        }
        let (dx, dy) = best.unwrap_or((1, 1));
        let block = SteerBlockSpec {
            n_blocks: (nt / dx) * (np / dy),
            x_per_cycle: dx,
            y_per_cycle: dy,
        };
        NappeSchedule::new(spec, block)
    }

    /// A schedule sized for host-side parallel beamforming: enough tiles
    /// to keep every pool worker busy with headroom for load balancing.
    ///
    /// Sizes from [`usbf_par::default_threads`] — the same sizing the
    /// global thread pool uses — so a `USBF_POOL_THREADS` override
    /// resizes the tile grid and the worker count together instead of
    /// leaving the schedule stuck on the raw core count.
    pub fn for_host(spec: &SystemSpec) -> Self {
        Self::fitted(spec, usbf_par::default_threads() * 4)
    }

    /// Number of blocks (= tiles) in the schedule.
    pub fn n_blocks(&self) -> usize {
        self.block.n_blocks
    }

    /// All tiles in block order — the parallel work list of a batched
    /// beamformer.
    pub fn tiles(&self) -> Vec<Tile> {
        (0..self.block.n_blocks).map(|b| self.tile_of(b)).collect()
    }

    /// The underlying block structure.
    pub fn block_spec(&self) -> SteerBlockSpec {
        self.block
    }

    /// The fan tile owned by block `b` (tiles laid out φ-major, matching
    /// the nappe traversal's inner order).
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn tile_of(&self, b: usize) -> Tile {
        assert!(b < self.block.n_blocks, "block {b} out of range");
        let tiles_phi = self.n_phi / self.block.y_per_cycle;
        let t_theta = b / tiles_phi;
        let t_phi = b % tiles_phi;
        Tile {
            theta_start: t_theta * self.block.x_per_cycle,
            theta_end: (t_theta + 1) * self.block.x_per_cycle,
            phi_start: t_phi * self.block.y_per_cycle,
            phi_end: (t_phi + 1) * self.block.y_per_cycle,
        }
    }

    /// The block that computes scanline `(it, ip)`.
    ///
    /// # Panics
    ///
    /// Panics if the scanline is out of range.
    pub fn block_of(&self, it: usize, ip: usize) -> usize {
        assert!(
            it < self.n_theta && ip < self.n_phi,
            "scanline out of range"
        );
        let tiles_phi = self.n_phi / self.block.y_per_cycle;
        (it / self.block.x_per_cycle) * tiles_phi + ip / self.block.y_per_cycle
    }

    /// Cycles each block needs per nappe: one per element (every block
    /// walks the whole element set, applying its fixed tile of
    /// corrections).
    pub fn cycles_per_nappe(&self) -> usize {
        self.elements
    }

    /// Cycles per frame (all nappes).
    pub fn cycles_per_frame(&self, n_depth: usize) -> u64 {
        self.cycles_per_nappe() as u64 * n_depth as u64
    }

    /// Ideal frame rate at a clock (no overhead): the cross-check against
    /// the throughput arithmetic of §V-B — 200 MHz / (10⁴ × 10³ cycles) =
    /// 20 volumes/s.
    pub fn ideal_frame_rate(&self, clock_hz: f64, n_depth: usize) -> f64 {
        clock_hz / self.cycles_per_frame(n_depth) as f64
    }

    /// Staggered BRAM start offset for block `b`: block `b` begins its
    /// element walk at element `b·(elements/blocks)`, so at any instant
    /// the 128 blocks read 128 *different* addresses and a refill engine
    /// can stream nappes into all banks in parallel.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn stagger_offset(&self, b: usize) -> usize {
        assert!(b < self.block.n_blocks, "block {b} out of range");
        b * (self.elements / self.block.n_blocks)
    }

    /// The element index block `b` reads at cycle `t` of a nappe.
    pub fn element_at_cycle(&self, b: usize, t: usize) -> usize {
        (self.stagger_offset(b) + t) % self.elements
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn scanline_at_inverts_slot_of() {
        let tile = Tile {
            theta_start: 2,
            theta_end: 6,
            phi_start: 3,
            phi_end: 8,
        };
        for (slot, it, ip) in tile.iter_scanlines() {
            assert_eq!(tile.scanline_at(slot), (it, ip));
            assert_eq!(tile.slot_of(it, ip), slot);
        }
    }

    #[test]
    fn paper_schedule_has_128_tiles_of_128_scanlines() {
        let s = NappeSchedule::paper();
        for b in 0..128 {
            assert_eq!(s.tile_of(b).scanlines(), 128);
        }
    }

    #[test]
    fn tiles_partition_the_fan_exactly() {
        let s = NappeSchedule::paper();
        let mut seen = vec![false; 128 * 128];
        for b in 0..128 {
            let t = s.tile_of(b);
            for it in t.theta_start..t.theta_end {
                for ip in t.phi_start..t.phi_end {
                    let idx = it * 128 + ip;
                    assert!(!seen[idx], "scanline ({it},{ip}) covered twice");
                    seen[idx] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every scanline covered");
    }

    #[test]
    fn block_of_inverts_tile_of() {
        let s = NappeSchedule::paper();
        for b in [0usize, 1, 17, 64, 127] {
            let t = s.tile_of(b);
            assert!(t.contains(t.theta_start, t.phi_start));
            assert_eq!(s.block_of(t.theta_start, t.phi_start), b);
            assert_eq!(s.block_of(t.theta_end - 1, t.phi_end - 1), b);
        }
    }

    #[test]
    fn frame_rate_crosscheck() {
        // 200 MHz / (10 000 elements × 1 000 nappes) = 20 volumes/s — the
        // same number the §V-B throughput arithmetic gives.
        let s = NappeSchedule::paper();
        assert_eq!(s.cycles_per_nappe(), 10_000);
        assert_eq!(s.cycles_per_frame(1000), 10_000_000);
        assert!((s.ideal_frame_rate(200.0e6, 1000) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn stagger_gives_distinct_concurrent_addresses() {
        let s = NappeSchedule::paper();
        for t in [0usize, 1, 999, 5000] {
            let addrs: HashSet<usize> = (0..128).map(|b| s.element_at_cycle(b, t)).collect();
            assert_eq!(
                addrs.len(),
                128,
                "all blocks read distinct addresses at cycle {t}"
            );
        }
    }

    #[test]
    fn element_walk_covers_every_element() {
        let s = NappeSchedule::paper();
        let seen: HashSet<usize> = (0..10_000).map(|t| s.element_at_cycle(7, t)).collect();
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn fitted_partitions_any_fan() {
        for (spec, target) in [
            (SystemSpec::tiny(), 4),
            (SystemSpec::tiny(), 16),
            (SystemSpec::reduced(), 7),
            (SystemSpec::figure3(), 3),
        ] {
            let s = NappeSchedule::fitted(&spec, target);
            assert!(
                s.n_blocks() >= target,
                "{} blocks < target {target}",
                s.n_blocks()
            );
            let v = &spec.volume_grid;
            let mut seen = vec![false; v.scanline_count()];
            for t in s.tiles() {
                for it in t.theta_start..t.theta_end {
                    for ip in t.phi_start..t.phi_end {
                        let i = it * v.n_phi() + ip;
                        assert!(!seen[i], "({it},{ip}) covered twice");
                        seen[i] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "every scanline covered");
        }
    }

    #[test]
    fn fitted_prefers_large_tiles() {
        // 8×8 fan, 4 tiles: the best split is 2×2 tiles of 4×8... no —
        // largest tile area with ≥4 tiles is 4×4 (16 scanlines, 4 tiles).
        let s = NappeSchedule::fitted(&SystemSpec::tiny(), 4);
        assert_eq!(s.n_blocks(), 4);
        assert_eq!(s.tiles()[0].scanlines(), 16);
    }

    #[test]
    fn fitted_with_oversized_target_degrades_to_unit_tiles() {
        let s = NappeSchedule::fitted(&SystemSpec::tiny(), 1_000_000);
        assert_eq!(s.n_blocks(), 64);
        assert_eq!(s.tiles()[0].scanlines(), 1);
    }

    #[test]
    fn fitted_matches_paper_layout_at_paper_scale() {
        // With the paper's own 128-block target the fitted schedule tiles
        // the 128×128 fan into 128 tiles of 128 scanlines, same as Fig. 4.
        let s = NappeSchedule::fitted(&SystemSpec::paper(), 128);
        assert_eq!(s.n_blocks(), 128);
        assert_eq!(s.tiles()[0].scanlines(), 128);
    }

    #[test]
    fn for_host_yields_a_valid_schedule() {
        let s = NappeSchedule::for_host(&SystemSpec::tiny());
        assert!(s.n_blocks() >= 1);
        assert_eq!(s.tiles().len(), s.n_blocks());
    }

    #[test]
    #[should_panic(expected = "must tile")]
    fn non_tiling_fan_rejected() {
        // tiny spec: 8×8 fan cannot tile into 8×16 blocks.
        NappeSchedule::new(&SystemSpec::tiny(), SteerBlockSpec::paper());
    }

    #[test]
    fn reduced_spec_tiles_with_adjusted_blocks() {
        // 32×32 fan with 8×16 tiles → 4×2 = 8 blocks.
        let spec = SystemSpec::reduced();
        let block = SteerBlockSpec {
            n_blocks: 8,
            ..SteerBlockSpec::paper()
        };
        let s = NappeSchedule::new(&spec, block);
        assert_eq!(s.cycles_per_nappe(), 1024);
        assert_eq!(s.tile_of(7).scanlines(), 128);
    }
}
