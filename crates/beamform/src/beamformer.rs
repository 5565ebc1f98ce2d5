//! The delay-and-sum kernel (Eq. 1) over any delay engine.
//!
//! The volume path mirrors the paper's architecture: delays are consumed
//! as per-nappe receive-leg slabs ([`DelayEngine::fill_nappe_rx`]) plus
//! one transmit term per row, computed a run of rows at a time, whatever
//! the transmit sequence, rather than per-voxel queries, and the steering
//! fan is split into [`NappeSchedule`] tiles, each filled like a Fig. 4
//! block bound to its correction registers. A raw frame's parallel tasks
//! are whole-fan depth bands, so each channel's echo samples for a nappe
//! are read in one pass — the paper's nappe-major streaming applied to
//! the echo buffer: a single-transmit band's slab visits every schedule
//! tile per nappe, and a compound band's slab covers the whole fan, so
//! one receive-leg fill per nappe serves every transmit. A
//! post-processed frame's tasks are the schedule tiles, each walking
//! every nappe. The output volume is bit-identical to the scalar
//! per-voxel path, which is kept as the reference implementation (and as
//! the executed path for scanline-by-scanline traversal).

use crate::postproc::{PostChain, PostScratch};
use crate::{ActiveAperture, Apodization, BeamformedVolume};
use std::ops::Range;
use usbf_core::{DelayEngine, NappeDelays, NappeSchedule, Tile};
use usbf_geometry::scan::ScanOrder;
use usbf_geometry::{ElementIndex, SystemSpec, VoxelIndex};
use usbf_sim::RfFrame;

/// The schedule the parallel volume paths run on: fitted to the pool
/// that will execute it (~4 tiles per worker for claim balancing) —
/// the same sizing rule as [`NappeSchedule::for_host`].
pub(crate) fn pool_fitted_schedule(
    spec: &SystemSpec,
    pool: &usbf_par::ThreadPool,
) -> NappeSchedule {
    NappeSchedule::fitted(spec, pool.threads().max(1) * 4)
}

/// The depth bands a raw frame is split into on a pool of `workers`: two
/// per worker (so a worker that finishes early can claim a second band),
/// never more than the volume has nappes. Each band is one task over the
/// whole fan, single-transmit and compound frames alike.
pub(crate) fn depth_bands(n_depth: usize, workers: usize) -> impl Iterator<Item = Range<usize>> {
    let n = (2 * workers.max(1)).min(n_depth);
    (0..n).map(move |b| b * n_depth / n..(b + 1) * n_depth / n)
}

/// Builds a runtime's warm task states for one frame shape. A frame with
/// raw output runs as whole-fan depth bands ([`depth_bands`]). A
/// single-transmit band's slab is one schedule tile, re-pointed at every
/// tile in turn. A compound band's receive leg is reused by every
/// transmit, so its slab can never move: its one tile is the fan region
/// the schedule tiles cover ([`bounding_region`]), and the slab holds
/// that whole region's receive leg — `scanlines × elements × 8 B` per
/// band (32 KB on the 8 × 8-line, 64-element benchmark compounds; 2 MB
/// for a 16 × 16-line fan under a 32 × 32 aperture). Post-processed
/// frames (whose chain needs whole depth columns) run one task per
/// schedule tile over every nappe. The only place the task shape is
/// chosen.
pub(crate) fn warm_task_states(
    beamformer: &Beamformer,
    tiles: &[Tile],
    workers: usize,
) -> Vec<TileState> {
    let spec = beamformer.spec();
    if beamformer.postproc().is_empty() {
        let fan = [bounding_region(tiles)];
        let tiles = if spec.n_transmits() == 1 { tiles } else { &fan };
        depth_bands(spec.volume_grid.n_depth(), workers)
            .map(|band| TileState::band(beamformer, tiles, band))
            .collect()
    } else {
        tiles
            .iter()
            .map(|&tile| TileState::new(beamformer, tile))
            .collect()
    }
}

/// Scatters every task's staged values into the output volume, in task
/// order — the deterministic sequential merge every runtime ends a frame
/// with, and the single copy of the task→volume layout mapping. Each
/// state's `values` hold `[scanline-in-region][nappe-in-band]`; a
/// column's band is contiguous in the volume's depth-inner layout.
pub(crate) fn scatter_tasks(out: &mut BeamformedVolume, states: &[TileState]) {
    for state in states {
        let band = state.nappes();
        for (column, (_, it, ip)) in state
            .values
            .chunks_exact(band.len())
            .zip(state.region.iter_scanlines())
        {
            for (id, &v) in band.clone().zip(column) {
                out.set(VoxelIndex::new(it, ip, id), v);
            }
        }
    }
}

/// Warm per-task state: one task's delay slab, output staging buffer and
/// the kernel's scratch, allocated once at construction and refilled
/// every frame.
///
/// A task beamforms a depth band (`nappes`) over a fan region (`region`),
/// tiled by one or more tiles of one shape. Its slab is one tile in size
/// and is re-pointed at each of them in turn ([`NappeDelays::retarget`]),
/// so the engines' per-(tile, nappe) fill is the same whatever the task
/// shape. A compound task has one tile, which is the whole region: its
/// receive leg serves every transmit. [`TileState::new`] builds the
/// fan-tile task (one schedule tile, every nappe); [`TileState::band`]
/// builds any other — a runtime's raw frames run as whole-fan bands.
///
/// The kernel's block holds one (nappe, transmit)'s worth of quantized
/// indices (or fractional delays) for up to every scanline of the
/// region, in channel-interleaved groups of rows, with one accumulator
/// per block row and a `live` map from block rows back to scanlines.
/// One definition shared by [`VolumeLoop`](crate::VolumeLoop) and
/// [`FramePipeline`](crate::FramePipeline) (and through the latter,
/// [`ShardedRuntime`](crate::ShardedRuntime)), so the warm-state shape
/// (and with it the bit-identical-to-serial invariant) cannot drift
/// between the runtimes.
pub struct TileState {
    pub(crate) slab: NappeDelays,
    /// The fan region the task covers: the union of `tiles`.
    region: Tile,
    /// The nappes the task covers.
    nappes: Range<usize>,
    /// The schedule tiles the slab is re-pointed at, in the order given.
    tiles: Vec<Tile>,
    /// Output, `[scanline-in-region][nappe-in-band]`.
    pub(crate) values: Vec<f64>,
    /// Nearest kernel: quantized echo-buffer indices in the grouped
    /// `[group][channel][row-in-group]` layout (see [`Fetch::GROUP`]),
    /// plus one group's slack for aligning it to a cache line. Empty for
    /// linear interpolation.
    pub(crate) index_block: Vec<i32>,
    /// Nearest kernel: one group of packed rows, `[row-in-group][active]`
    /// — [`DelayEngine::quantize_tx_run`] writes each run of rows here,
    /// after the live rows already staged, and a full group is
    /// transposed into `index_block` in one pass.
    index_staging: Vec<i32>,
    /// Linear kernel: compacted fractional delays, same grouped layout as
    /// `index_block`. Empty for nearest interpolation.
    pub(crate) delay_block: Vec<f64>,
    /// Linear kernel: one group of packed rows, like `index_staging`,
    /// written by [`DelayEngine::combine_tx_row`].
    delay_staging: Vec<f64>,
    /// Per active channel, the lowest sample index the block's rows
    /// read, then per active channel the highest: the windows the kernel
    /// prefetches.
    windows: Vec<i32>,
    /// One running sum per block row: the kernel's independent
    /// accumulator chains.
    pub(crate) acc: Vec<f64>,
    /// The region slot each block row belongs to: only insonified
    /// (nonzero-weight) rows are packed into the block.
    pub(crate) live: Vec<u32>,
    /// Mask weights, `[transmit][scanline-in-region][nappe-in-band]`
    /// (same inner layout as `values`): the per-voxel insonification
    /// weight of each transmit, precomputed at construction so the warm
    /// accumulate is a pure multiply-add with an explicit zero skip.
    pub(crate) tx_weights: Vec<f64>,
    /// I/Q scratch for the fused post-processing chain (empty when the
    /// beamformer carries no chain).
    pub(crate) post_scratch: PostScratch,
}

impl TileState {
    /// Allocates the warm state of a fan-tile task: one schedule tile of
    /// `beamformer`'s spec over every nappe.
    #[must_use]
    pub fn new(beamformer: &Beamformer, tile: Tile) -> Self {
        Self::band(
            beamformer,
            &[tile],
            0..beamformer.spec().volume_grid.n_depth(),
        )
    }

    /// Allocates the warm state of the task that beamforms the depth
    /// band `nappes` over the fan region `tiles` partition: the delay
    /// slab (one tile in size), the `[scanline][nappe]` values buffer,
    /// the grouped index (nearest) or delay (linear) block and its
    /// one-group staging buffer, sized to the region and the compacted
    /// aperture, and every transmit's mask weights. A compound band over
    /// the whole fan passes the fan as its one tile.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is empty, mixes tile shapes, or does not
    /// exactly partition its bounding rectangle; if `nappes` is empty or
    /// runs past the grid; if a compound sequence's task has more than
    /// one tile (its receive leg is reused across transmits, so the slab
    /// cannot move); or if a post-processing chain's task does not cover
    /// every nappe (the chain filters whole depth columns).
    #[must_use]
    pub fn band(beamformer: &Beamformer, tiles: &[Tile], nappes: Range<usize>) -> Self {
        let spec = beamformer.spec();
        let n_depth = spec.volume_grid.n_depth();
        let region = bounding_region(tiles);
        assert!(
            !nappes.is_empty() && nappes.end <= n_depth,
            "nappes {nappes:?} outside the grid's {n_depth} depth steps"
        );
        assert!(
            spec.n_transmits() == 1 || tiles.len() == 1,
            "a compound task covers one schedule tile"
        );
        assert!(
            beamformer.postproc().is_empty() || nappes == (0..n_depth),
            "a post-processed task covers every nappe"
        );
        let active = beamformer.aperture().len();
        let rows = region.scanlines();
        let n_values = rows * nappes.len();
        let nearest = beamformer.interpolation == Interpolation::Nearest;
        // Precompute every transmit's per-voxel mask weight in the
        // `values` layout, so the warm accumulate never calls back into
        // geometry.
        let mut tx_weights = vec![0.0; spec.n_transmits() * n_values];
        for (tx, weights) in tx_weights.chunks_exact_mut(n_values).enumerate() {
            for (column, (_, it, ip)) in weights
                .chunks_exact_mut(nappes.len())
                .zip(region.iter_scanlines())
            {
                for (w, id) in column.iter_mut().zip(nappes.clone()) {
                    let s = spec.volume_grid.position(VoxelIndex::new(it, ip, id));
                    *w = spec.transmit_weight(tx, s);
                }
            }
        }
        let block = |group: usize| block_len(rows, active, group);
        let staging = |group: usize| group * active;
        TileState {
            slab: NappeDelays::for_tile(spec, tiles[0]),
            region,
            nappes,
            tiles: tiles.to_vec(),
            values: vec![0.0; n_values],
            acc: vec![0.0; rows],
            live: vec![0; rows],
            tx_weights,
            windows: vec![0; 2 * active],
            // The blocks are allocated after the small row buffers: placed
            // between them, a block shifted glibc's heap layout so that a
            // pipeline's dropped RF ring stayed resident (+8 MB peak RSS
            // on the benchmark's cpwc16-tiny set-up, 2-vCPU x86-64).
            index_staging: vec![0; if nearest { staging(i32::GROUP) } else { 0 }],
            delay_staging: vec![0.0; if nearest { 0 } else { staging(f64::GROUP) }],
            index_block: vec![0; if nearest { block(i32::GROUP) } else { 0 }],
            delay_block: vec![0.0; if nearest { 0 } else { block(f64::GROUP) }],
            post_scratch: if beamformer.postproc().is_empty() {
                PostScratch::default()
            } else {
                PostScratch::new(n_depth)
            },
        }
    }

    /// The fan region this task beamforms.
    #[inline]
    pub fn region(&self) -> Tile {
        self.region
    }

    /// The nappes (depth indices) this task beamforms.
    #[inline]
    pub fn nappes(&self) -> Range<usize> {
        self.nappes.clone()
    }

    /// The staged output values in `[scanline-in-region][nappe-in-band]`
    /// order — scanlines in the region's slot order
    /// ([`Tile::iter_scanlines`]), each holding one value per nappe of
    /// [`nappes`](Self::nappes) (the layout the volume scatter and
    /// [`VolumeView`](crate::VolumeView) consume).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Entries of a grouped block over `rows` rows of `active` channels:
/// whole groups, plus one group of slack so the kernel can start it on a
/// cache line.
fn block_len(rows: usize, active: usize, group: usize) -> usize {
    (rows.div_ceil(group) * active + 1) * group
}

/// The rectangle `tiles` partition.
///
/// # Panics
///
/// Panics if `tiles` is empty, mixes shapes, or leaves a gap or overlap.
fn bounding_region(tiles: &[Tile]) -> Tile {
    let first = *tiles.first().expect("a task needs at least one tile");
    let region = tiles.iter().fold(first, |r, t| Tile {
        theta_start: r.theta_start.min(t.theta_start),
        theta_end: r.theta_end.max(t.theta_end),
        phi_start: r.phi_start.min(t.phi_start),
        phi_end: r.phi_end.max(t.phi_end),
    });
    let shape = |t: &Tile| (t.theta_end - t.theta_start, t.phi_end - t.phi_start);
    let overlap = |a: &Tile, b: &Tile| {
        a.theta_start < b.theta_end
            && b.theta_start < a.theta_end
            && a.phi_start < b.phi_end
            && b.phi_start < a.phi_end
    };
    for (i, t) in tiles.iter().enumerate() {
        assert_eq!(shape(t), shape(&first), "a task's tiles share one shape");
        assert!(
            tiles[..i].iter().all(|u| !overlap(t, u)),
            "tiles overlap at {t:?}"
        );
    }
    // Disjoint tiles inside the rectangle cover it exactly when their
    // areas add up to its area.
    assert_eq!(
        tiles.len() * first.scanlines(),
        region.scanlines(),
        "tiles must partition their bounding region {region:?}"
    );
    region
}

/// Channels the tile kernel prefetches ahead of the one it sums: far
/// enough for a sample window eight traces away (128 KB at 8192 16-bit
/// samples per trace) to arrive, near enough that it is still cached
/// when its turn comes.
const PREFETCH_AHEAD: usize = 8;

/// One interpolation mode of the tile kernel: the block entry type
/// (`i32` echo-buffer indices for nearest fetch, `f64` fractional delays
/// for linear), how a run of compacted receive-leg rows becomes block
/// rows, and how a trace is read at an entry. The kernel is generic over
/// it, so each mode compiles to its own monomorphized loop.
trait Fetch: Copy {
    /// Block rows per group: one channel's entries for a group fill one
    /// 64-byte cache line.
    const GROUP: usize = 64 / std::mem::size_of::<Self>();

    /// Writes transmit `tx`'s block rows for the run `slots` of `slab`,
    /// whose rows hold the active channels' receive-leg entries in their
    /// first `out.len() / slots.len()` slots.
    fn pack(
        engine: &dyn DelayEngine,
        tx: usize,
        slab: &NappeDelays,
        slots: Range<usize>,
        out: &mut [Self],
    );

    /// Reads the raw samples `trace` at this entry as an unscaled value,
    /// bit-identical to the scalar walk's read; out-of-window reads give
    /// `0.0`.
    fn read(trace: &[i16], at: Self) -> f64;

    /// The sample index this entry reads near, for prefetching.
    fn index(self) -> i32;

    /// Moves staged rows (`[row][active]`, at most [`GROUP`](Self::GROUP)
    /// of them) into one group of the block (`[channel][row-in-group]`,
    /// one line per channel), widening each channel's `lows`/`highs`
    /// read window to cover the rows' indices.
    fn transpose(staging: &[Self], group: &mut [Self], lows: &mut [i32], highs: &mut [i32]);
}

impl Fetch for i32 {
    /// The run's transmit terms in one engine pass, each added in the
    /// engine's own final rounding stage ([`DelayEngine::quantize_tx_run`]),
    /// so rounding telemetry (TABLESTEER's clamp counter) advances
    /// exactly as it does for per-element queries.
    #[inline]
    fn pack(
        engine: &dyn DelayEngine,
        tx: usize,
        slab: &NappeDelays,
        slots: Range<usize>,
        out: &mut [i32],
    ) {
        engine.quantize_tx_run(tx, slab, slots, out);
    }

    /// Negative indices wrap to huge under the cast and read `0.0` like
    /// any other out-of-window index.
    #[inline(always)]
    fn read(trace: &[i16], i: i32) -> f64 {
        trace.get(i as usize).map_or(0.0, |&r| f64::from(r))
    }

    #[inline(always)]
    fn index(self) -> i32 {
        self
    }

    fn transpose(staging: &[i32], group: &mut [i32], lows: &mut [i32], highs: &mut [i32]) {
        transpose_group::<i32, 16>(staging, group, lows, highs);
    }
}

impl Fetch for f64 {
    /// No quantization stage: one transmit combine per row writes the
    /// fractional delays straight into the staging rows.
    #[inline]
    fn pack(
        engine: &dyn DelayEngine,
        tx: usize,
        slab: &NappeDelays,
        slots: Range<usize>,
        out: &mut [f64],
    ) {
        let active = out.len() / slots.len();
        let id = slab.nappe().expect("the kernel packs filled slabs");
        let tile = slab.tile();
        for (k, slot) in slots.enumerate() {
            let (it, ip) = tile.scanline_at(slot);
            let vox = VoxelIndex::new(it, ip, id);
            let out = &mut out[k * active..(k + 1) * active];
            engine.combine_tx_row(tx, vox, &slab.row(slot)[..active], out);
        }
    }

    /// The floor/blend arithmetic of [`usbf_sim::Trace::raw_interp`], with the
    /// same zero reads outside the window.
    #[inline(always)]
    fn read(trace: &[i16], t: f64) -> f64 {
        let i0 = t.floor() as i64;
        let frac = t - i0 as f64;
        let at = |i: i64| {
            usize::try_from(i)
                .ok()
                .and_then(|i| trace.get(i))
                .map_or(0.0, |&r| f64::from(r))
        };
        at(i0) * (1.0 - frac) + at(i0 + 1) * frac
    }

    #[inline(always)]
    fn index(self) -> i32 {
        self as i32
    }

    fn transpose(staging: &[f64], group: &mut [f64], lows: &mut [i32], highs: &mut [i32]) {
        transpose_group::<f64, 8>(staging, group, lows, highs);
    }
}

/// The kernel's per-(nappe, transmit) block under construction: rows are
/// pushed a run at a time in region order, the insonified ones packed
/// densely into a staging buffer, and each full group transposed into the
/// grouped block.
///
/// The block is `[group][channel][row-in-group]`: one cache line per
/// (group, channel), holding that channel's entries for [`Fetch::GROUP`]
/// consecutive rows.
struct Block<'a, T> {
    /// The grouped block, starting on a cache line.
    rows: &'a mut [T],
    /// One group of packed rows, `[row-in-group][active]`: the live rows
    /// not yet transposed, then the run being packed.
    staging: &'a mut [T],
    /// Per channel, the lowest index the block reads, then per channel
    /// the highest.
    windows: &'a mut [i32],
    live: &'a mut [u32],
    /// Packed (live) rows so far.
    len: usize,
}

impl<T: Fetch> Block<'_, T> {
    /// Offers transmit `tx`'s rows `slots` of `slab` — no more than the
    /// staged group has room for — with `places` giving each row's region
    /// slot and mask weight, in slot order. Every row of the run is
    /// packed, in one [`Fetch::pack`], after the rows already staged; the
    /// insonified ones then move down over the masked ones, so a masked
    /// row never reaches the block, but the engine's rounding telemetry
    /// counts it. A group the run fills is transposed.
    #[inline]
    fn push_run(
        &mut self,
        engine: &dyn DelayEngine,
        tx: usize,
        slab: &NappeDelays,
        slots: Range<usize>,
        places: impl Iterator<Item = (usize, f64)>,
    ) {
        let active = self.windows.len() / 2;
        let pending = self.len % T::GROUP;
        debug_assert!(pending + slots.len() <= T::GROUP);
        let run = &mut self.staging[pending * active..(pending + slots.len()) * active];
        T::pack(engine, tx, slab, slots.clone(), run);
        let mut staged = pending;
        for (k, (r, m)) in places.take(slots.len()).enumerate() {
            if m != 0.0 {
                let at = (pending + k) * active;
                if staged != pending + k {
                    self.staging.copy_within(at..at + active, staged * active);
                }
                self.live[self.len] = r as u32;
                self.len += 1;
                staged += 1;
            }
        }
        if staged == T::GROUP {
            self.transpose(T::GROUP);
        }
    }

    /// Transposes the last partial group, if any, and returns the number
    /// of live rows.
    fn finish(&mut self) -> usize {
        let tail = self.len % T::GROUP;
        if tail != 0 {
            self.transpose(tail);
        }
        self.len
    }

    /// Moves the first `rows` staging rows into the block's group that
    /// ends at row `len`, and widens each channel's read window to cover
    /// them (starting the windows afresh at the block's first group).
    fn transpose(&mut self, rows: usize) {
        let active = self.windows.len() / 2;
        let g = (self.len - rows) / T::GROUP;
        let size = active * T::GROUP;
        let (lows, highs) = self.windows.split_at_mut(active);
        if g == 0 {
            lows.fill(i32::MAX);
            highs.fill(i32::MIN);
        }
        let group = &mut self.rows[g * size..(g + 1) * size];
        T::transpose(&self.staging[..rows * active], group, lows, highs);
    }
}

/// [`Fetch::transpose`] for a group of `N` rows (`N` = the type's
/// [`Fetch::GROUP`]). The group is written one `N × N` square at a time
/// — `N` channels × the staged rows — so the staging lines read and the
/// block lines written stay in L1, and with `N` a constant the square's
/// loops unroll and the window updates run across its channels as vector
/// min/max.
#[inline]
fn transpose_group<T: Fetch, const N: usize>(
    staging: &[T],
    group: &mut [T],
    lows: &mut [i32],
    highs: &mut [i32],
) {
    debug_assert_eq!(N, T::GROUP);
    let active = lows.len();
    let (lines, _) = group.as_chunks_mut::<N>();
    let squares = lines
        .chunks_mut(N)
        .zip(lows.chunks_mut(N).zip(highs.chunks_mut(N)));
    for (c, (square, (lo, hi))) in squares.enumerate() {
        let width = lo.len();
        let rows = staging
            .chunks_exact(active)
            .map(|row| &row[c * N..][..width]);
        if let (Ok(square), Ok(lo), Ok(hi)) = (
            <&mut [[T; N]; N]>::try_from(&mut *square),
            <&mut [i32; N]>::try_from(&mut *lo),
            <&mut [i32; N]>::try_from(&mut *hi),
        ) {
            for (r, src) in rows.enumerate() {
                let src = <&[T; N]>::try_from(src).expect("a whole square row");
                for k in 0..N {
                    square[k][r] = src[k];
                    lo[k] = lo[k].min(src[k].index());
                    hi[k] = hi[k].max(src[k].index());
                }
            }
        } else {
            // The aperture's last channels, fewer than `N`.
            for (r, src) in rows.enumerate() {
                let lanes = square.iter_mut().zip(lo.iter_mut().zip(hi.iter_mut()));
                for ((line, (l, h)), &x) in lanes.zip(src) {
                    line[r] = x;
                    *l = (*l).min(x.index());
                    *h = (*h).max(x.index());
                }
            }
        }
    }
}

/// The kernel's row-sized scratch, borrowed out of a [`TileState`].
struct Scratch<'a> {
    acc: &'a mut [f64],
    live: &'a mut [u32],
    windows: &'a mut [i32],
}

/// What a [`TileState`] covers, borrowed out of it for the kernel.
struct Task<'a> {
    slab: &'a mut NappeDelays,
    region: Tile,
    nappes: Range<usize>,
    tiles: &'a [Tile],
}

/// How echo samples are fetched at the computed delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Interpolation {
    /// Nearest-sample fetch via the engine's integer index — the paper's
    /// datapath (delays "are used as an index into an echo buffer").
    #[default]
    Nearest,
    /// Linear interpolation at the fractional delay (extension; quantifies
    /// how much of the error budget comes from index rounding).
    Linear,
}

/// A delay-and-sum beamformer bound to a system spec.
///
/// The engine is passed per call, so one beamformer can compare multiple
/// delay architectures on identical data.
#[derive(Debug, Clone)]
pub struct Beamformer {
    spec: SystemSpec,
    apodization: Apodization,
    interpolation: Interpolation,
    order: ScanOrder,
    /// The compacted `(channel, weight)` aperture — Eq. 1's `w`, built
    /// once per beamformer lifetime and shared by every path (scalar
    /// voxel walk and vectorized tile kernel alike, so both see the
    /// identical weights in the identical order).
    aperture: ActiveAperture,
    /// Post-processing chain applied to every scanline column the volume
    /// paths produce (empty by default: raw delay-and-sum output).
    post: PostChain,
}

impl Beamformer {
    /// Creates a beamformer with Hann apodization, nearest-index fetch and
    /// nappe-by-nappe traversal (the paper's preferred order).
    #[must_use]
    pub fn new(spec: &SystemSpec) -> Self {
        Beamformer {
            spec: spec.clone(),
            apodization: Apodization::default(),
            interpolation: Interpolation::default(),
            order: ScanOrder::NappeByNappe,
            aperture: ActiveAperture::build(Apodization::default(), &spec.elements),
            post: PostChain::empty(),
        }
    }

    /// Sets the apodization window (and rebuilds the compacted aperture
    /// when the window actually changes).
    #[must_use = "with_apodization returns the configured beamformer; dropping it discards the window"]
    pub fn with_apodization(mut self, apodization: Apodization) -> Self {
        if apodization != self.apodization {
            self.apodization = apodization;
            self.aperture = ActiveAperture::build(apodization, &self.spec.elements);
        }
        self
    }

    /// Sets the sample-fetch interpolation.
    #[must_use = "with_interpolation returns the configured beamformer; dropping it discards the mode"]
    pub fn with_interpolation(mut self, interpolation: Interpolation) -> Self {
        self.interpolation = interpolation;
        self
    }

    /// Sets the traversal order (Algorithm 1 flavour).
    #[must_use = "with_order returns the configured beamformer; dropping it discards the order"]
    pub fn with_order(mut self, order: ScanOrder) -> Self {
        self.order = order;
        self
    }

    /// Sets the post-processing chain the volume paths apply to every
    /// scanline column they produce (e.g. [`PostChain::bmode`] for
    /// log-compressed envelope output). The chain runs fused per tile in
    /// the batched paths — each tile's columns flow cache-hot from the
    /// delay-and-sum kernel into the stages, before the volume scatter —
    /// and as a whole-volume pass in the scalar reference path; the two
    /// are bit-identical because every stage is column-local.
    ///
    /// The per-voxel/per-scanline query paths
    /// ([`beamform_voxel`](Self::beamform_voxel),
    /// [`beamform_scanline`](Self::beamform_scanline)) stay raw: they
    /// answer point questions about the delay-and-sum output itself.
    #[must_use = "with_postproc returns the configured beamformer; dropping it discards the chain"]
    pub fn with_postproc(mut self, post: PostChain) -> Self {
        self.post = post;
        self
    }

    /// The configured post-processing chain (empty when the output is
    /// raw delay-and-sum).
    #[inline]
    pub fn postproc(&self) -> &PostChain {
        &self.post
    }

    /// The configured scan order.
    pub fn order(&self) -> ScanOrder {
        self.order
    }

    /// The system spec this beamformer is bound to.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Apodization weights for every element, in linear element order —
    /// the `w` of Eq. 1 before compaction (zero-weight elements
    /// included).
    pub fn element_weights(&self) -> Vec<f64> {
        self.apodization.weights(&self.spec.elements)
    }

    /// The compacted aperture every beamforming path sums over: the
    /// `(flat channel, weight)` list of elements with nonzero weight,
    /// precomputed once per beamformer lifetime.
    #[inline]
    pub fn aperture(&self) -> &ActiveAperture {
        &self.aperture
    }

    /// Beamforms a single focal point: `Σ_D w·e(D, tp)` for the classic
    /// single-emission scan, and the coherent compound `Σ_tx m_tx(tp) ·
    /// Σ_D w·e_tx(D, tp)` for a multi-transmit sequence (`m_tx` is the
    /// transmit's insonification mask weight; masked-out angles are
    /// **skipped**, never multiplied — a masked angle must not be able
    /// to poison the sum with non-finite staging values).
    ///
    /// This is the scalar reference walk; it iterates the precomputed
    /// compacted aperture (same weights, same order as the tile kernel),
    /// so it no longer re-derives the apodization window per element per
    /// call.
    pub fn beamform_voxel(&self, engine: &dyn DelayEngine, rf: &RfFrame, vox: VoxelIndex) -> f64 {
        if self.spec.is_single_point_source() {
            return self.beamform_voxel_for(engine, rf, 0, vox);
        }
        let s = self.spec.volume_grid.position(vox);
        let mut acc = 0.0;
        for tx in 0..self.spec.n_transmits() {
            let m = self.spec.transmit_weight(tx, s);
            if m != 0.0 {
                acc += m * self.beamform_voxel_for(engine, rf, tx, vox);
            }
        }
        acc
    }

    /// Beamforms a single focal point from one transmit event's
    /// acquisition: the low-resolution-image sample `Σ_D w·e_tx(D, tp)`
    /// before the compound mask weight is applied, summed over the raw
    /// 16-bit samples and scaled once (`scale · Σ_D w·raw_tx(D, tp)`).
    /// Transmit 0 of a single-emission spec reproduces
    /// [`beamform_voxel`](Self::beamform_voxel).
    pub fn beamform_voxel_for(
        &self,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        tx: usize,
        vox: VoxelIndex,
    ) -> f64 {
        // Eq. 1 over the compacted aperture on raw samples: one running
        // accumulator from `0.0`, in ascending aperture order — the
        // addition order every batched kernel reproduces per voxel — and
        // the frame's scale applied once to the sum.
        let nx = self.spec.elements.nx();
        let mut acc = 0.0;
        for (&chan, &w) in self.aperture.channels().iter().zip(self.aperture.weights()) {
            let e = ElementIndex::new(chan as usize % nx, chan as usize / nx);
            let trace = rf.channel_trace_for(tx, chan);
            acc += w * match self.interpolation {
                Interpolation::Nearest => trace.raw_at(engine.delay_index(tx, vox, e)),
                Interpolation::Linear => trace.raw_interp(engine.delay_samples(tx, vox, e)),
            };
        }
        rf.scale() * acc
    }

    /// Beamforms the whole volume.
    ///
    /// Nappe-by-nappe order (the default) runs the batched kernel as one
    /// frame of a [`VolumeLoop`](crate::VolumeLoop) on the global
    /// `usbf_par` pool, with the schedule fitted to that pool: the same
    /// tasks, slabs and kernel as every warm frame, built for this call
    /// and dropped after it. Delay rows come from the engine's receive
    /// leg ([`DelayEngine::fill_nappe_rx`]) plus one transmit term per row
    /// (see [`beamform_tile_into`](Self::beamform_tile_into)).
    /// Scanline-by-scanline order keeps the scalar per-voxel walk as the
    /// reference path. Both produce bit-identical volumes. For repeated
    /// frames, keep a [`VolumeLoop`](crate::VolumeLoop), which reuses its
    /// slabs and buffers across calls.
    ///
    /// ```
    /// use usbf_beamform::Beamformer;
    /// use usbf_core::ExactEngine;
    /// use usbf_geometry::SystemSpec;
    /// use usbf_sim::RfFrame;
    ///
    /// let spec = SystemSpec::tiny();
    /// let rf = RfFrame::zeros(
    ///     spec.elements.nx(),
    ///     spec.elements.ny(),
    ///     spec.echo_buffer_len(),
    /// );
    /// let vol = Beamformer::new(&spec).beamform_volume(&ExactEngine::new(&spec), &rf);
    /// assert_eq!(vol.len(), spec.volume_grid.voxel_count());
    /// ```
    pub fn beamform_volume(&self, engine: &dyn DelayEngine, rf: &RfFrame) -> BeamformedVolume {
        match self.order {
            ScanOrder::NappeByNappe => crate::VolumeLoop::new(self.clone())
                .beamform(engine, rf)
                .clone(),
            ScanOrder::ScanlineByScanline => {
                let mut out = BeamformedVolume::zeros(&self.spec);
                for vox in self.order.iter(&self.spec.volume_grid) {
                    out.set(vox, self.beamform_voxel(engine, rf, vox));
                }
                // The scalar reference applies the chain as a separate
                // whole-volume pass — the layout the fused per-tile
                // application must stay bit-identical to.
                self.post.apply_volume(&mut out);
                out
            }
        }
    }

    /// Beamforms one task into caller-owned warm state ([`TileState`]):
    /// the state selects the fan region, the depth band and the schedule
    /// tiles its slab visits, and its `values` buffer receives the result
    /// in `[scanline-in-region][nappe-in-band]` order. This is the
    /// allocation-free kernel [`VolumeLoop`](crate::VolumeLoop) and
    /// [`FramePipeline`](crate::FramePipeline) drive every frame.
    ///
    /// One voxel-parallel kernel serves every transmit sequence and task
    /// shape, split by interpolation mode into two monomorphized loops
    /// chosen **once per task**. Per (tile, nappe), the engine fills the
    /// receive leg ([`DelayEngine::fill_nappe_rx`]) once; per transmit,
    /// the transmit terms of a run of rows are computed in one pass and
    /// added in the rounding pass ([`DelayEngine::quantize_tx_run`],
    /// nearest), or one row's term by [`DelayEngine::combine_tx_row`]
    /// (linear). The insonified rows are
    /// packed into a grouped block that is summed
    /// one channel at a time into per-row accumulators. Every voxel's
    /// delay-and-sum starts at `0.0` and adds its `w·s` terms in ascending
    /// aperture order, and each transmit's sum enters the voxel as `m·sum`
    /// in transmit order, skipping `m == 0` — so the output is
    /// bit-identical to the scalar [`beamform_voxel`](Self::beamform_voxel)
    /// walk.
    ///
    /// # Panics
    ///
    /// Panics if `state` was built for a different spec, aperture or
    /// interpolation, or if the engine or RF frame does not carry every
    /// transmit of the spec's sequence.
    pub fn beamform_tile_into(
        &self,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        state: &mut TileState,
    ) {
        let n_tx = self.spec.n_transmits();
        let n_values = state.region.scanlines() * state.nappes.len();
        assert_eq!(
            state.values.len(),
            n_values,
            "values buffer must cover the task"
        );
        assert_eq!(
            state.tx_weights.len(),
            n_tx * n_values,
            "task state must be built for this spec's transmit sequence"
        );
        assert_eq!(
            state.windows.len(),
            2 * self.aperture.len(),
            "scratch rows must match the compacted aperture"
        );
        assert_eq!(
            engine.transmit_count(),
            n_tx,
            "engine must cover the spec's transmit sequence"
        );
        assert_eq!(
            rf.n_transmits(),
            n_tx,
            "RF frame must hold every transmit acquisition"
        );
        let TileState {
            slab,
            region,
            nappes,
            tiles,
            values,
            index_block,
            index_staging,
            delay_block,
            delay_staging,
            windows,
            acc,
            live,
            tx_weights,
            post_scratch,
        } = state;
        let (blocked, group) = match self.interpolation {
            Interpolation::Nearest => (index_block.len(), i32::GROUP),
            Interpolation::Linear => (delay_block.len(), f64::GROUP),
        };
        assert_eq!(
            blocked,
            block_len(region.scanlines(), self.aperture.len(), group),
            "task state must be built for this beamformer's interpolation"
        );
        let task = Task {
            slab,
            region: *region,
            nappes: nappes.clone(),
            tiles,
        };
        let scratch = Scratch { acc, live, windows };
        match self.interpolation {
            Interpolation::Nearest => self.tile_kernel(
                engine,
                rf,
                task,
                values,
                tx_weights,
                scratch,
                index_block,
                index_staging,
            ),
            Interpolation::Linear => self.tile_kernel(
                engine,
                rf,
                task,
                values,
                tx_weights,
                scratch,
                delay_block,
                delay_staging,
            ),
        }
        if !self.post.is_empty() {
            // Fused post-processing: each scanline column runs through
            // the chain while it is still cache-hot from the kernel and
            // before the scatter, using the task's preallocated I/Q
            // scratch (no heap traffic on the warm path). A
            // post-processed task covers every nappe, so each column is
            // whole; columns are independent, so per-task application is
            // bit-identical to the whole-volume pass of the scalar
            // reference.
            for column in values.chunks_exact_mut(nappes.len()) {
                self.post.apply_column(column, post_scratch);
            }
        }
    }

    /// The voxel-parallel tile kernel, for one interpolation mode.
    ///
    /// Per nappe of the task's band and per transmit:
    ///
    /// 1. At transmit 0, the slab is re-pointed at each tile of the task
    ///    in turn and filled with the transmit-invariant receive leg
    ///    ([`DelayEngine::fill_nappe_rx`]); a compound task has one tile,
    ///    the whole region, so that fill serves every transmit. The rows
    ///    go in scanline order, in runs that end where the one-group
    ///    staging buffer fills (a whole group of rows when every row is
    ///    insonified): at transmit 0 each run's rows are first compacted
    ///    in place to the active aperture, then every run gets its
    ///    transmit terms in one engine call — computed for the whole run
    ///    and fused into the rounding pass
    ///    ([`DelayEngine::quantize_tx_run`]) for nearest fetch, or one
    ///    [`DelayEngine::combine_tx_row`] per row for linear. Both are
    ///    element-wise, so compacting first is exact.
    /// 2. A run is packed into the staging buffer after the live rows
    ///    already staged, and each full group is transposed into the
    ///    block's `[group][channel][row-in-group]` layout. Only
    ///    insonified rows (mask weight `m ≠ 0`) stay staged, the `live`
    ///    map recording their region slots; a masked row is overwritten
    ///    by the live rows after it, so it never reaches the block, but
    ///    TABLESTEER's clamp counter counts every (voxel, transmit) row.
    /// 3. The aperture is walked channel by channel: channel `k` adds
    ///    `w[k] · raw_k[block[r][k]]` (the 16-bit sample, unscaled) into
    ///    `acc[r]` for every block row,
    ///    group by group, each group one unit-stride cache line of
    ///    entries. Per voxel that is the scalar walk's ascending-order sum
    ///    from `0.0`; across voxels the accumulators are independent
    ///    chains, and one channel's lookups for every scanline of the
    ///    nappe are one pass over a short stretch of its trace. Before
    ///    channel `k`, the window channel `k + 8` will read — from the
    ///    lowest index of its rows to the highest, tracked during the
    ///    transposes — is prefetched, so the trace 128 KB away (at 8192
    ///    two-byte samples per trace) is in flight while this channel
    ///    sums.
    /// 4. Each live voxel adds `m · (scale · acc[r])`, the frame's scale
    ///    applied once per (voxel, transmit) exactly as the scalar walk
    ///    applies it to its sum. The zero-weight skip is a
    ///    correctness requirement, not an optimization: outside a steered
    ///    wave's footprint the sum is meaningless (and may be non-finite
    ///    under hostile inputs), so it must never enter the arithmetic —
    ///    `0.0 * NaN` is NaN. A point source weighs 1 everywhere, and an
    ///    accumulator starting at `+0.0` never becomes `-0.0`, so there
    ///    `0.0 + 1.0 · acc` is `acc` bit for bit.
    #[allow(clippy::too_many_arguments)]
    fn tile_kernel<T: Fetch>(
        &self,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        task: Task<'_>,
        values: &mut [f64],
        tx_weights: &[f64],
        scratch: Scratch<'_>,
        block: &mut [T],
        staging: &mut [T],
    ) {
        let Task {
            slab,
            region,
            nappes,
            tiles,
        } = task;
        let Scratch { acc, live, windows } = scratch;
        let band = nappes.len();
        let n_values = values.len();
        // The block's first whole cache line: every (group, channel) line
        // then sits on one.
        let aligned = block.as_ptr().align_offset(64);
        let block = &mut block[aligned..];
        values.fill(0.0);
        for (j, id) in nappes.enumerate() {
            for (tx, mask) in tx_weights.chunks_exact(n_values).enumerate() {
                let mut rows = Block {
                    rows: &mut *block,
                    staging: &mut *staging,
                    windows: &mut *windows,
                    live: &mut *live,
                    len: 0,
                };
                for &tile in tiles {
                    if tx == 0 {
                        slab.retarget(tile);
                        engine.fill_nappe_rx(id, slab);
                    }
                    let mut places = tile.iter_scanlines().map(|(_, it, ip)| {
                        let r = region.slot_of(it, ip);
                        (r, mask[r * band + j])
                    });
                    // Runs end where the staged group fills, so a run
                    // never outgrows the one-group staging buffer.
                    let n_rows = tile.scanlines();
                    let mut first = 0;
                    while first < n_rows {
                        let room = T::GROUP - rows.len % T::GROUP;
                        let run = first..(first + room).min(n_rows);
                        if tx == 0 {
                            // Compacted in place just before the run is
                            // rounded, and reused by later transmits.
                            for slot in run.clone() {
                                self.aperture.compact_in_place(slab.row_mut(slot));
                            }
                        }
                        first = run.end;
                        rows.push_run(engine, tx, slab, run, places.by_ref());
                    }
                }
                let n_live = rows.finish();
                self.accumulate(
                    rf, tx, j, band, block, windows, n_live, acc, live, mask, values,
                );
            }
        }
    }

    /// Steps 3 and 4 of [`tile_kernel`](Self::tile_kernel) for one
    /// (nappe `j` of a `band`-nappe task, transmit `tx`): the
    /// channel-outer MAC over the first `n_live` rows of the grouped
    /// `block`, then each live voxel's `m · (scale · acc)` into `values`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn accumulate<T: Fetch>(
        &self,
        rf: &RfFrame,
        tx: usize,
        j: usize,
        band: usize,
        block: &[T],
        windows: &[i32],
        n_live: usize,
        acc: &mut [f64],
        live: &[u32],
        mask: &[f64],
        values: &mut [f64],
    ) {
        if n_live == 0 {
            return;
        }
        let channels = self.aperture.channels();
        let weights = self.aperture.weights();
        let active = channels.len();
        let group = T::GROUP;
        let full = n_live / group;
        let acc = &mut acc[..n_live];
        acc.fill(0.0);
        let (full_acc, tail_acc) = acc.split_at_mut(full * group);
        for (k, (&chan, &w)) in channels.iter().zip(weights).enumerate() {
            if let Some(&ahead) = channels.get(k + PREFETCH_AHEAD) {
                let next = k + PREFETCH_AHEAD;
                rf.prefetch_window_for(tx, ahead, windows[next], windows[active + next]);
            }
            let trace = rf.channel_trace_for(tx, chan).raw();
            let lines = block[k * group..].chunks(group).step_by(active);
            for (accs, line) in full_acc.chunks_exact_mut(group).zip(lines) {
                for (a, &at) in accs.iter_mut().zip(line) {
                    *a += w * T::read(trace, at);
                }
            }
            if !tail_acc.is_empty() {
                let line = &block[(full * active + k) * group..];
                for (a, &at) in tail_acc.iter_mut().zip(line) {
                    *a += w * T::read(trace, at);
                }
            }
        }
        let scale = rf.scale();
        for (&slot, &a) in live.iter().zip(acc.iter()) {
            let v = slot as usize * band + j;
            values[v] += mask[v] * (scale * a);
        }
    }

    /// Beamforms one scanline (all depths along direction `(it, ip)`),
    /// returning the axial profile.
    pub fn beamform_scanline(
        &self,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        it: usize,
        ip: usize,
    ) -> Vec<f64> {
        usbf_geometry::scan::scanline(&self.spec.volume_grid, it, ip)
            .map(|vox| self.beamform_voxel(engine, rf, vox))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use usbf_core::{ExactEngine, TableSteerConfig, TableSteerEngine};
    use usbf_geometry::Vec3;
    use usbf_sim::{EchoSynthesizer, Phantom, Pulse};

    fn setup(target: Vec3) -> (SystemSpec, RfFrame) {
        let spec = SystemSpec::tiny();
        let rf = EchoSynthesizer::new(&spec)
            .synthesize(&Phantom::point(target), &Pulse::from_spec(&spec));
        (spec, rf)
    }

    /// Put the target exactly on a voxel of the tiny grid.
    fn on_voxel_target(spec: &SystemSpec, vox: VoxelIndex) -> Vec3 {
        spec.volume_grid.position(vox)
    }

    #[test]
    fn point_target_peaks_at_its_voxel() {
        let spec = SystemSpec::tiny();
        let vox = VoxelIndex::new(3, 4, 9);
        let target = on_voxel_target(&spec, vox);
        let rf = EchoSynthesizer::new(&spec)
            .synthesize(&Phantom::point(target), &Pulse::from_spec(&spec));
        let engine = ExactEngine::new(&spec);
        let bf = Beamformer::new(&spec);
        let vol = bf.beamform_volume(&engine, &rf);
        assert_eq!(vol.argmax(), vox, "energy must focus on the target voxel");
    }

    #[test]
    fn scan_orders_produce_identical_volumes() {
        // Fig. 1 / Algorithm 1: the two orders visit the same voxels.
        let (spec, rf) = setup(Vec3::new(0.005, -0.003, 0.06));
        let engine = ExactEngine::new(&spec);
        let nappe = Beamformer::new(&spec).with_order(ScanOrder::NappeByNappe);
        let scanline = Beamformer::new(&spec).with_order(ScanOrder::ScanlineByScanline);
        let a = nappe.beamform_volume(&engine, &rf);
        let b = scanline.beamform_volume(&engine, &rf);
        assert_eq!(a, b);
    }

    #[test]
    fn focused_sum_exceeds_defocused_sum() {
        let spec = SystemSpec::tiny();
        let vox = VoxelIndex::new(4, 4, 8);
        let target = on_voxel_target(&spec, vox);
        let rf = EchoSynthesizer::new(&spec)
            .synthesize(&Phantom::point(target), &Pulse::from_spec(&spec));
        let engine = ExactEngine::new(&spec);
        let bf = Beamformer::new(&spec).with_apodization(Apodization::Rect);
        let at_focus = bf.beamform_voxel(&engine, &rf, vox).abs();
        let off_focus = bf
            .beamform_voxel(&engine, &rf, VoxelIndex::new(0, 0, 15))
            .abs();
        assert!(
            at_focus > 5.0 * off_focus,
            "focus {at_focus} vs off {off_focus}"
        );
    }

    #[test]
    fn tablesteer_volume_close_to_exact_volume() {
        let spec = SystemSpec::tiny();
        let vox = VoxelIndex::new(4, 4, 8);
        let target = on_voxel_target(&spec, vox);
        let rf = EchoSynthesizer::new(&spec)
            .synthesize(&Phantom::point(target), &Pulse::from_spec(&spec));
        let bf = Beamformer::new(&spec);
        let exact = ExactEngine::new(&spec);
        let steer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        let ve = bf.beamform_volume(&exact, &rf);
        let vs = bf.beamform_volume(&steer, &rf);
        // Peak lands on the same voxel and amplitude degrades mildly.
        assert_eq!(vs.argmax(), ve.argmax());
        let ratio = vs.max_abs() / ve.max_abs();
        assert!(ratio > 0.8, "peak ratio = {ratio}");
    }

    #[test]
    fn linear_interpolation_at_least_as_focused() {
        let spec = SystemSpec::tiny();
        let vox = VoxelIndex::new(4, 4, 8);
        let target = on_voxel_target(&spec, vox);
        let rf = EchoSynthesizer::new(&spec)
            .synthesize(&Phantom::point(target), &Pulse::from_spec(&spec));
        let engine = ExactEngine::new(&spec);
        let nearest = Beamformer::new(&spec).with_interpolation(Interpolation::Nearest);
        let linear = Beamformer::new(&spec).with_interpolation(Interpolation::Linear);
        let pn = nearest.beamform_voxel(&engine, &rf, vox).abs();
        let pl = linear.beamform_voxel(&engine, &rf, vox).abs();
        assert!(pl > 0.9 * pn, "linear {pl} vs nearest {pn}");
    }

    #[test]
    fn scanline_profile_matches_volume_column() {
        let (spec, rf) = setup(Vec3::new(0.0, 0.0, 0.05));
        let engine = ExactEngine::new(&spec);
        let bf = Beamformer::new(&spec);
        let vol = bf.beamform_volume(&engine, &rf);
        let profile = bf.beamform_scanline(&engine, &rf, 2, 3);
        for (id, &v) in profile.iter().enumerate() {
            assert_eq!(v, vol.get(VoxelIndex::new(2, 3, id)));
        }
    }

    #[test]
    fn batched_tiled_path_is_bit_identical_to_scalar_path() {
        // The tentpole invariant: the parallel nappe-slab pipeline must
        // reproduce the per-voxel reference walk exactly, for approximate
        // engines and for both interpolation modes.
        let (spec, rf) = setup(Vec3::new(0.004, -0.002, 0.055));
        let exact = ExactEngine::new(&spec);
        let steer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        for interp in [Interpolation::Nearest, Interpolation::Linear] {
            for engine in [&exact as &dyn usbf_core::DelayEngine, &steer] {
                let batched = Beamformer::new(&spec)
                    .with_interpolation(interp)
                    .with_order(ScanOrder::NappeByNappe)
                    .beamform_volume(engine, &rf);
                let scalar = Beamformer::new(&spec)
                    .with_interpolation(interp)
                    .with_order(ScanOrder::ScanlineByScanline)
                    .beamform_volume(engine, &rf);
                assert_eq!(batched, scalar, "{} {interp:?}", engine.name());
            }
        }
    }

    #[test]
    fn batched_path_preserves_clamp_telemetry() {
        // A wide aperture on the tiny grid steers some corner fetches out
        // of the echo window; the batched path must count those clamps
        // exactly like the scalar path does — over the full aperture and
        // over a Hann aperture, whose receive rows are compacted before
        // the fused rounding.
        let base = SystemSpec::tiny();
        let spec = SystemSpec::new(
            base.speed_of_sound,
            base.sampling_frequency,
            usbf_geometry::TransducerSpec {
                nx: 100,
                ny: 100,
                ..base.transducer.clone()
            },
            base.volume.clone(),
            base.origin,
            base.frame_rate,
        );
        let rf = RfFrame::zeros(100, 100, spec.echo_buffer_len());
        for apodization in [crate::Apodization::Rect, crate::Apodization::Hann] {
            let scalar_engine = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
            let batched_engine = scalar_engine.clone(); // fresh zeroed counter
            let bf = |order| {
                Beamformer::new(&spec)
                    .with_apodization(apodization)
                    .with_order(order)
            };
            assert_eq!(
                bf(ScanOrder::NappeByNappe).aperture().is_full(),
                apodization == crate::Apodization::Rect
            );
            bf(ScanOrder::ScanlineByScanline).beamform_volume(&scalar_engine, &rf);
            bf(ScanOrder::NappeByNappe).beamform_volume(&batched_engine, &rf);
            assert!(
                scalar_engine.clamp_events() > 0,
                "{apodization:?} setup must actually clamp"
            );
            assert_eq!(
                batched_engine.clamp_events(),
                scalar_engine.clamp_events(),
                "{apodization:?}"
            );
        }
    }

    #[test]
    fn whole_fan_band_frame_counts_one_transmit_root_per_row() {
        // TABLEFREE's op counter over one whole-fan depth-band frame: per
        // (tile, nappe) the receive leg counts one root per element, and
        // each row's fused rounding one transmit root — scanlines ×
        // (elements + 1) × nappes in all, the fill cost §IV-B argues for.
        let (spec, rf) = setup(Vec3::new(0.0, 0.0, 0.05));
        let engine =
            usbf_core::TableFreeEngine::new(&spec, usbf_core::TableFreeConfig::paper()).unwrap();
        let bf = Beamformer::new(&spec);
        let tiles = NappeSchedule::fitted(&spec, 4).tiles();
        assert!(tiles.len() > 1, "the band must re-point its slab");
        let n_depth = spec.volume_grid.n_depth();
        let mut state = TileState::band(&bf, &tiles, 0..n_depth);
        let before = engine.sqrt_evals();
        bf.beamform_tile_into(&engine, &rf, &mut state);
        let scanlines = spec.volume_grid.n_theta() * spec.volume_grid.n_phi();
        let per_row = spec.elements.count() + 1;
        assert_eq!(
            engine.sqrt_evals() - before,
            (scanlines * per_row * n_depth) as u64
        );
    }

    /// Requires `tasks` to be the compound band shape: depth bands that
    /// cover every nappe once, each over the whole fan, with a slab that
    /// holds the whole fan's receive leg.
    fn assert_whole_fan_compound_bands(spec: &SystemSpec, tasks: &[TileState]) {
        let fan = NappeDelays::full(spec).tile();
        assert!(spec.n_transmits() > 1, "a compound sequence");
        let mut next = 0;
        for state in tasks {
            assert_eq!(state.region(), fan, "a compound band spans the whole fan");
            assert_eq!(state.slab.tile(), fan, "its slab holds the whole fan");
            assert_eq!(state.nappes().start, next, "bands are contiguous");
            next = state.nappes().end;
        }
        assert_eq!(next, spec.volume_grid.n_depth(), "bands cover every nappe");
    }

    #[test]
    fn compound_band_frame_counts_rx_roots_once_and_one_root_per_point_source_row() {
        // TABLEFREE's op counter over one frame of whole-fan compound
        // bands, on a mixed sequence: per nappe, each band's fan-wide
        // receive leg counts one root per element, and each row's
        // point-source transmits one root each (plane waves are a free
        // projection) — scanlines × (elements + point-source transmits)
        // × nappes, whatever the band count.
        let spec = SystemSpec::tiny().with_transmits(vec![
            usbf_geometry::TransmitModel::PointSource,
            usbf_geometry::TransmitModel::plane_wave(usbf_geometry::deg(5.0), 0.0),
            usbf_geometry::TransmitModel::PointSource,
            usbf_geometry::TransmitModel::plane_wave(0.0, usbf_geometry::deg(-5.0)),
        ]);
        let rf = RfFrame::zeros_multi(8, 8, spec.echo_buffer_len(), spec.n_transmits());
        let engine =
            usbf_core::TableFreeEngine::new(&spec, usbf_core::TableFreeConfig::paper()).unwrap();
        let mut rt = crate::VolumeLoop::with_pool(
            Beamformer::new(&spec),
            std::sync::Arc::new(usbf_par::ThreadPool::new(2)),
            &NappeSchedule::fitted(&spec, 8),
        );
        assert_eq!(rt.task_count(), 4);
        assert_whole_fan_compound_bands(&spec, rt.tasks());
        let before = engine.sqrt_evals();
        rt.beamform(&engine, &rf);
        let scanlines = spec.volume_grid.n_theta() * spec.volume_grid.n_phi();
        let per_row = spec.elements.count() + 2;
        assert_eq!(
            engine.sqrt_evals() - before,
            (scanlines * per_row * spec.volume_grid.n_depth()) as u64
        );
    }

    #[test]
    fn every_tile_schedule_gives_the_same_volume() {
        let (spec, rf) = setup(Vec3::new(0.0, 0.003, 0.06));
        let engine = ExactEngine::new(&spec);
        let bf = Beamformer::new(&spec);
        let beamform_on = |target| {
            let schedule = usbf_core::NappeSchedule::fitted(&spec, target);
            crate::VolumeLoop::with_pool(bf.clone(), usbf_par::global_arc(), &schedule)
                .beamform(&engine, &rf)
                .clone()
        };
        let reference = beamform_on(1);
        for target in [2, 4, 16, 64] {
            let vol = beamform_on(target);
            assert_eq!(vol, reference, "{target} tiles");
        }
    }

    /// A 4-angle compound spec on the tiny grid, with a synthesized
    /// multi-transmit acquisition.
    fn compound_setup() -> (SystemSpec, RfFrame) {
        let spec = SystemSpec::tiny().with_transmits(usbf_geometry::TransmitModel::plane_wave_fan(
            4,
            usbf_geometry::deg(10.0),
        ));
        let rf = EchoSynthesizer::new(&spec).synthesize(
            &Phantom::point(Vec3::new(0.002, -0.001, 0.05)),
            &Pulse::from_spec(&spec),
        );
        (spec, rf)
    }

    #[test]
    fn compound_path_preserves_clamp_telemetry() {
        // The nearest kernel must quantize every transmit's combined row
        // — masked ones included — so TABLESTEER's clamp counter ends at
        // exactly the count of per-element `delay_index` queries over
        // every voxel × transmit × active channel. A wide aperture on the
        // tiny grid (same trick as the single-source telemetry test)
        // steers corner fetches out of the echo window so clamps actually
        // happen.
        let base = SystemSpec::tiny();
        let spec = SystemSpec::new(
            base.speed_of_sound,
            base.sampling_frequency,
            usbf_geometry::TransducerSpec {
                nx: 100,
                ny: 100,
                ..base.transducer.clone()
            },
            base.volume.clone(),
            base.origin,
            base.frame_rate,
        )
        .with_transmits({
            // A point-source emission in the sequence reproduces the
            // clamping geometry of the single-source telemetry test
            // (two-way distances overrun the echo window at the
            // corners); the plane waves ride along as the compound part,
            // masked over much of the fan.
            let mut txs = vec![usbf_geometry::TransmitModel::PointSource];
            txs.extend(usbf_geometry::TransmitModel::plane_wave_fan(
                3,
                usbf_geometry::deg(10.0),
            ));
            txs
        });
        let rf = RfFrame::zeros_multi(100, 100, spec.echo_buffer_len(), spec.n_transmits());
        let batched = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        let oracle = batched.clone(); // fresh zeroed counter
        let bf = Beamformer::new(&spec).with_apodization(crate::Apodization::Hann);
        let mut rt = crate::VolumeLoop::with_pool(
            bf.clone(),
            usbf_par::global_arc(),
            &usbf_core::NappeSchedule::fitted(&spec, 2),
        );
        assert_whole_fan_compound_bands(&spec, rt.tasks());
        rt.beamform(&batched, &rf);
        let nx = spec.elements.nx();
        for i in 0..spec.volume_grid.voxel_count() {
            let vox = spec.volume_grid.voxel_at(i);
            for tx in 0..spec.n_transmits() {
                for &chan in bf.aperture().channels() {
                    let e = ElementIndex::new(chan as usize % nx, chan as usize / nx);
                    oracle.delay_index(tx, vox, e);
                }
            }
        }
        assert!(oracle.clamp_events() > 0, "setup must actually clamp");
        assert_eq!(batched.clamp_events(), oracle.clamp_events());
    }

    #[test]
    fn compound_path_matches_scalar_reference() {
        // End-to-end: the batched compound volume (receive-leg fill plus
        // per-transmit combines) equals the per-voxel scalar compound
        // walk, which reaches the same numbers through per-element
        // delay_index / delay_samples queries, never the row family.
        let (spec, rf) = compound_setup();
        let engine = ExactEngine::new(&spec);
        for interp in [Interpolation::Nearest, Interpolation::Linear] {
            let bf = |order| {
                Beamformer::new(&spec)
                    .with_interpolation(interp)
                    .with_order(order)
            };
            let batched = bf(ScanOrder::NappeByNappe).beamform_volume(&engine, &rf);
            let scalar = bf(ScanOrder::ScanlineByScanline).beamform_volume(&engine, &rf);
            assert_eq!(batched, scalar, "{interp:?}");
        }
    }

    #[test]
    fn stale_block_entries_are_never_read() {
        // Garbage past the live rows — NaN delays, indices at both ends
        // of the i32 range — in every block, staging and window buffer
        // must not reach the output: every task shape, both
        // interpolations and a compound frame (whose masks leave short
        // tails), on one schedule tile and as a whole-fan band, give the
        // volume a fresh state gives.
        let (spec, rf) = setup(Vec3::new(0.003, 0.001, 0.05));
        let (cspec, crf) = compound_setup();
        for (spec, rf) in [(&spec, &rf), (&cspec, &crf)] {
            let engine = ExactEngine::new(spec);
            let n_depth = spec.volume_grid.n_depth();
            let tiles = NappeSchedule::fitted(spec, 4).tiles();
            let tasks: Vec<(Vec<Tile>, Range<usize>)> = if spec.n_transmits() == 1 {
                vec![(tiles.clone(), 3..10), (tiles[1..2].to_vec(), 0..n_depth)]
            } else {
                let fan = NappeDelays::full(spec).tile();
                vec![(tiles[2..3].to_vec(), 5..n_depth), (vec![fan], 3..10)]
            };
            for interp in [Interpolation::Nearest, Interpolation::Linear] {
                let bf = Beamformer::new(spec).with_interpolation(interp);
                for (tiles, nappes) in &tasks {
                    let mut fresh = TileState::band(&bf, tiles, nappes.clone());
                    bf.beamform_tile_into(&engine, rf, &mut fresh);
                    let mut stale = TileState::band(&bf, tiles, nappes.clone());
                    for (i, x) in stale.index_block.iter_mut().enumerate() {
                        *x = if i % 2 == 0 { i32::MIN } else { i32::MAX };
                    }
                    stale.index_staging.fill(i32::MAX);
                    stale.delay_block.fill(f64::NAN);
                    stale.delay_staging.fill(f64::NAN);
                    stale.acc.fill(f64::NAN);
                    stale.values.fill(f64::NAN);
                    stale.windows.fill(i32::MIN);
                    bf.beamform_tile_into(&engine, rf, &mut stale);
                    let bits =
                        |s: &TileState| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&stale), bits(&fresh), "{interp:?} {nappes:?}");
                    // A second frame reuses the block the first one left.
                    bf.beamform_tile_into(&engine, rf, &mut stale);
                    assert_eq!(bits(&stale), bits(&fresh), "{interp:?} {nappes:?} warm");
                }
            }
        }
    }

    #[test]
    fn grouped_block_lays_one_line_per_group_and_channel() {
        // The block read by the MAC: entry (row r, channel k) of a task
        // sits at [r / L][k][r % L], with each (group, channel) line
        // starting on a 64-byte boundary — checked against the quantized
        // rows of a scalar fill.
        let (spec, rf) = setup(Vec3::new(0.0, 0.0, 0.05));
        let engine = ExactEngine::new(&spec);
        let bf = Beamformer::new(&spec);
        let active = bf.aperture().len();
        let tiles = NappeSchedule::fitted(&spec, 2).tiles();
        let last = spec.volume_grid.n_depth() - 1;
        let mut state = TileState::band(&bf, &tiles, last..last + 1);
        bf.beamform_tile_into(&engine, &rf, &mut state);
        let offset = state.index_block.as_ptr().align_offset(64);
        let block = &state.index_block[offset..];
        let region = state.region();
        let mut expected = vec![0; active];
        let mut r = 0;
        for &tile in &tiles {
            let mut slab = NappeDelays::for_tile(&spec, tile);
            engine.fill_nappe(last, &mut slab);
            for (slot, it, ip) in tile.iter_scanlines() {
                let row = bf.aperture().compact_in_place(slab.row_mut(slot));
                engine.quantize_row(row, &mut expected);
                assert_eq!(state.live[r] as usize, region.slot_of(it, ip));
                for (k, &e) in expected.iter().enumerate() {
                    assert_eq!(
                        block[((r / 16) * active + k) * 16 + r % 16],
                        e,
                        "row {r} channel {k}"
                    );
                }
                r += 1;
            }
        }
        assert_eq!(r, 64, "every scanline of the fan is one block row");
        assert_eq!((block.as_ptr() as usize) % 64, 0);
    }

    #[test]
    #[should_panic(expected = "compound task covers one schedule tile")]
    fn compound_band_over_several_tiles_is_rejected() {
        let (spec, _) = compound_setup();
        let tiles = NappeSchedule::fitted(&spec, 4).tiles();
        let _ = TileState::band(&Beamformer::new(&spec), &tiles, 0..4);
    }

    #[test]
    #[should_panic(expected = "post-processed task covers every nappe")]
    fn post_processed_band_is_rejected() {
        let spec = SystemSpec::tiny();
        let bf = Beamformer::new(&spec)
            .with_postproc(PostChain::bmode(crate::BmodeConfig::from_spec(&spec)));
        let _ = TileState::band(&bf, &NappeSchedule::fitted(&spec, 1).tiles(), 0..8);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn tiles_that_leave_a_gap_are_rejected() {
        let spec = SystemSpec::tiny();
        let tiles = NappeSchedule::fitted(&spec, 4).tiles();
        let _ = TileState::band(&Beamformer::new(&spec), &[tiles[0], tiles[3]], 0..4);
    }

    #[test]
    fn depth_bands_cover_every_nappe_once() {
        for (n_depth, workers) in [(16, 4), (64, 2), (5, 4), (3, 1), (7, 0)] {
            let bands: Vec<_> = depth_bands(n_depth, workers).collect();
            assert_eq!(bands.len(), (2 * workers.max(1)).min(n_depth));
            assert_eq!(bands[0].start, 0);
            assert_eq!(bands.last().unwrap().end, n_depth);
            assert!(bands.windows(2).all(|b| b[0].end == b[1].start));
            assert!(bands.iter().all(|b| !b.is_empty()));
        }
    }

    #[test]
    fn empty_rf_gives_zero_volume() {
        let spec = SystemSpec::tiny();
        let rf = RfFrame::zeros(
            spec.elements.nx(),
            spec.elements.ny(),
            spec.echo_buffer_len(),
        );
        let engine = ExactEngine::new(&spec);
        let vol = Beamformer::new(&spec).beamform_volume(&engine, &rf);
        assert_eq!(vol.max_abs(), 0.0);
    }
}
