//! The delay-and-sum kernel (Eq. 1) over any delay engine.
//!
//! The volume path mirrors the paper's architecture: delays are not
//! queried per voxel but emitted as echo-buffer indices, a run of rows
//! at a time — one engine set-up per (tile, nappe)
//! ([`DelayEngine::begin_emit`]), then per transmit one pass that adds
//! the receive leg and the transmit term and rounds, whatever the
//! transmit sequence. Where the engine has the path (a single TABLESTEER
//! transmit), a whole group of 16 insonified rows is written straight
//! into the MAC's index lines ([`DelayEngine::emit_group`]); every other
//! run goes into the kernel's staging rows ([`DelayEngine::emit_run`])
//! and is transposed into those lines. The
//! steering fan is split into [`NappeSchedule`] tiles, each emitted like
//! a Fig. 4 block bound to its correction registers. A raw frame's
//! parallel tasks are whole-fan depth bands, so each channel's echo
//! samples for a nappe are read in one pass — the paper's nappe-major
//! streaming applied to the echo buffer: a single-transmit band's slab
//! visits every schedule tile per nappe, and a compound band's slab
//! covers the whole fan, so one set-up per nappe serves every transmit.
//! A task's values are always raw delay-and-sum: a beamformer's
//! post-processing chain runs once over the assembled volume
//! ([`PostChain::apply_volume`]).
//!
//! The kernel is nearest fetch only — the paper's datapath, where a
//! delay "is used as an index into an echo buffer" — and its output is
//! bit-identical to the scalar per-voxel walk, which is kept as the
//! reference implementation. The scalar walk is also the executed path
//! for scanline-by-scanline traversal.

use crate::postproc::{PostChain, PostScratch};
use crate::simd::{Avx2, GROUP, MAC_CHANNELS};
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

/// Builds a runtime's warm task states: every frame, raw or
/// post-processed, runs as whole-fan depth bands ([`depth_bands`]). A
/// single-transmit band's slab is one schedule tile, re-pointed at every
/// tile in turn. A compound band's receive leg is reused by every
/// transmit, so its slab can never move: its one tile is the fan region
/// the schedule tiles cover ([`bounding_region`]), and the slab holds
/// that whole region's receive leg — `scanlines × elements × 8 B` per
/// band (32 KB on the 8 × 8-line, 64-element benchmark compounds; 2 MB
/// for a 16 × 16-line fan under a 32 × 32 aperture). The only place the
/// task shape is chosen.
pub(crate) fn warm_task_states(
    beamformer: &Beamformer,
    tiles: &[Tile],
    workers: usize,
) -> Vec<TileState> {
    let spec = beamformer.spec();
    let fan = [bounding_region(tiles)];
    let tiles = if spec.n_transmits() == 1 { tiles } else { &fan };
    depth_bands(spec.volume_grid.n_depth(), workers)
        .map(|band| TileState::band(beamformer, tiles, band))
        .collect()
}

/// Ends a runtime's successful frame (never a failed or abandoned one):
/// scatters every task's values into the output volume, in task order —
/// the single copy of the task→volume layout mapping, where a column's
/// band is contiguous — then runs `post` once over the volume, on this
/// thread. The bands cover every column whole, so the chain sees each
/// column once.
pub(crate) fn finish_frame(
    out: &mut BeamformedVolume,
    states: &[TileState],
    post: &PostChain,
    scratch: &mut PostScratch,
) {
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
    post.apply_volume(out, scratch);
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
/// receive leg serves every transmit. [`TileState::band`] builds any
/// task — every runtime frame runs as whole-fan bands; [`TileState::new`]
/// builds a fan-tile task (one schedule tile, every nappe), which only
/// kernel benchmarks run. A task's `values` are raw delay-and-sum.
///
/// The kernel's block holds one MAC pass's worth of quantized indices —
/// the rows of as many whole tiles as keep it within 512 KB, the whole
/// region when it fits — in channel-interleaved groups of rows, with
/// one accumulator per block row and a `live` map from block rows back
/// to scanlines. One definition shared by [`VolumeLoop`](crate::VolumeLoop) and
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
    /// Quantized echo-buffer indices in the grouped
    /// `[group][channel][row-in-group]` layout ([`GROUP`] rows per
    /// group), plus one group's slack for aligning it to a cache line.
    pub(crate) index_block: Vec<i32>,
    /// One group of packed rows, `[row-in-group][active]` —
    /// [`DelayEngine::emit_run`] writes each run of rows the direct group
    /// emit does not take here, after the live rows already staged, and a
    /// full group is transposed into `index_block` in one pass.
    index_staging: Vec<i32>,
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
    /// the grouped index block (one MAC pass's rows) and its one-group
    /// staging buffer, sized to the active aperture, and every
    /// transmit's mask weights. A compound band over
    /// the whole fan passes the fan as its one tile.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is empty, mixes tile shapes, or does not
    /// exactly partition its bounding rectangle; if `nappes` is empty or
    /// runs past the grid; or if a compound sequence's task has more than
    /// one tile (its receive leg is reused across transmits, so the slab
    /// cannot move).
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
        let active = beamformer.aperture().len();
        let pass = pass_rows(tiles, active);
        let rows = region.scanlines();
        let n_values = rows * nappes.len();
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
            index_staging: vec![0; GROUP * active],
            index_block: vec![0; block_len(pass, active)],
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
    /// [`nappes`](Self::nappes) (the layout the volume scatter consumes).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// The most bytes of grouped indices one MAC pass sums: a mid-size band
/// (256 scanlines, 900 active channels) sums its fan in two passes of
/// four 32-scanline tiles, holding a 461 KB block instead of 922 KB.
const PASS_BLOCK_BYTES: usize = 512 << 10;

/// Rows one MAC pass of a task over `tiles` packs at most: whole tiles
/// whose block stays within [`PASS_BLOCK_BYTES`], at least one.
fn pass_rows(tiles: &[Tile], active: usize) -> usize {
    let tile = tiles[0].scanlines();
    let fit = PASS_BLOCK_BYTES / (4 * active.max(1) * tile);
    tile * fit.clamp(1, tiles.len())
}

/// Entries of a grouped block over `rows` rows of `active` channels:
/// whole groups, plus one group of slack so the kernel can start it on a
/// cache line.
fn block_len(rows: usize, active: usize) -> usize {
    (rows.div_ceil(GROUP) * active + 1) * GROUP
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

/// The kernel's index block for one MAC pass of a (nappe, transmit):
/// rows are pushed a run at a time in region order. A whole group of
/// insonified rows the engine can emit directly is written straight into
/// the grouped block ([`emit_group`](Self::emit_group)); other runs have
/// their insonified rows packed densely into a staging buffer, each full
/// group transposed into the block. The block is then summed channel by
/// channel.
///
/// The block is `[group][channel][row-in-group]`: one cache line per
/// (group, channel), holding that channel's indices for [`GROUP`]
/// consecutive rows.
struct Block<'a> {
    /// The grouped block, starting on a cache line.
    rows: &'a mut [i32],
    /// One group of packed rows, `[row-in-group][active]`: the live rows
    /// not yet transposed, then the run being packed.
    staging: &'a mut [i32],
    /// Per channel, the lowest index the block reads, then per channel
    /// the highest.
    windows: &'a mut [i32],
    live: &'a mut [u32],
    /// Packed (live) rows so far.
    len: usize,
    /// The vector stages this CPU has.
    isa: Option<Avx2>,
}

impl Block<'_> {
    /// Offers transmit `tx`'s rows `slots` of `slab` — no more than the
    /// staged group has room for — with `places` giving each row's region
    /// slot and mask weight, in slot order. Every row of the run is
    /// emitted over the aperture's `runs` after the rows already staged,
    /// in one engine call that adds the receive leg and the run's
    /// transmit terms and rounds ([`DelayEngine::emit_run`]), so rounding
    /// telemetry (TABLESTEER's clamp counter) advances exactly as it
    /// does for per-element queries. The insonified rows then move down
    /// over the masked ones, so a masked row never reaches the block, but
    /// the telemetry counts it. A group the run fills is transposed.
    #[inline]
    fn push_run(
        &mut self,
        engine: &dyn DelayEngine,
        tx: usize,
        slab: &NappeDelays,
        slots: Range<usize>,
        runs: &[Range<usize>],
        places: impl Iterator<Item = (usize, f64)>,
    ) {
        let active = self.windows.len() / 2;
        let pending = self.len % GROUP;
        debug_assert!(pending + slots.len() <= GROUP);
        let run = &mut self.staging[pending * active..(pending + slots.len()) * active];
        engine.emit_run(tx, slab, slots.clone(), runs, run);
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
        if staged == GROUP {
            self.transpose(GROUP);
        }
    }

    /// Ends a pass: transposes the last partial group, if any, sums the
    /// live rows over `aperture` ([`mac`](Self::mac)) into `acc`, hands
    /// each live row's region slot and sum to `add`, and empties the
    /// block for the next pass.
    fn flush(
        &mut self,
        aperture: &ActiveAperture,
        rf: &RfFrame,
        tx: usize,
        acc: &mut [f64],
        add: &mut impl FnMut(usize, f64),
    ) {
        let tail = self.len % GROUP;
        if tail != 0 {
            self.transpose(tail);
        }
        if self.len != 0 {
            let acc = &mut acc[..self.len];
            self.mac(aperture, rf, tx, acc);
            for (&slot, &a) in self.live.iter().zip(acc.iter()) {
                add(slot as usize, a);
            }
        }
        self.len = 0;
    }

    /// Offers transmit `tx`'s whole group of rows `first..first + GROUP`
    /// of `slab` to the engine's direct group emit
    /// ([`DelayEngine::emit_group`]), which writes each active channel's
    /// line straight into the block's next group and widens its window —
    /// no staging row and no transpose. The block must be at a group
    /// boundary, and every row of `places` (the rows' region slots and
    /// mask weights, in slot order) insonified. Returns whether the
    /// engine took the group; only then are `places` consumed.
    fn emit_group(
        &mut self,
        engine: &dyn DelayEngine,
        tx: usize,
        slab: &mut NappeDelays,
        first: usize,
        runs: &[Range<usize>],
        places: impl Iterator<Item = (usize, f64)>,
    ) -> bool {
        debug_assert_eq!(self.len % GROUP, 0);
        let group = open_group(self.rows, self.windows, self.len / GROUP);
        let (lines, _) = group.as_chunks_mut::<GROUP>();
        if !engine.emit_group(tx, slab, first, runs, lines, self.windows) {
            return false;
        }
        for (r, _) in places.take(GROUP) {
            self.live[self.len] = r as u32;
            self.len += 1;
        }
        true
    }

    /// Moves the first `rows` staging rows into the block's group that
    /// ends at row `len`, and widens each channel's read window to cover
    /// them.
    fn transpose(&mut self, rows: usize) {
        let active = self.windows.len() / 2;
        let group = open_group(self.rows, self.windows, (self.len - rows) / GROUP);
        let (lows, highs) = self.windows.split_at_mut(active);
        pack_group(self.isa, &self.staging[..rows * active], group, lows, highs);
    }

    /// Sums the block's first `acc.len()` rows over `aperture`, channel
    /// by channel in aperture order, into `acc` from `0.0`: channel `k`
    /// adds `w[k] · raw_k[index]`, reading transmit `tx`'s 16-bit trace
    /// unscaled. Before each channel, the window of the channel
    /// [`PREFETCH_AHEAD`] on is prefetched. With AVX2, four whole
    /// channels over the full groups take the masked-gather MAC; the rest,
    /// and the partial group's rows, the scalar channel loop. Either way
    /// each row's channels arrive in ascending order.
    #[inline]
    fn mac(&self, aperture: &ActiveAperture, rf: &RfFrame, tx: usize, acc: &mut [f64]) {
        let (block, windows) = (&*self.rows, &*self.windows);
        let channels = aperture.channels();
        let weights = aperture.weights();
        let active = channels.len();
        let full = acc.len() / GROUP;
        acc.fill(0.0);
        let (full_acc, tail_acc) = acc.split_at_mut(full * GROUP);
        let trace = |k: usize| rf.channel_trace_for(tx, channels[k]);
        for first in (0..active).step_by(MAC_CHANNELS) {
            let ks = first..(first + MAC_CHANNELS).min(active);
            for next in ks.clone().map(|k| k + PREFETCH_AHEAD) {
                if let Some(&ahead) = channels.get(next) {
                    rf.prefetch_window_for(tx, ahead, windows[next], windows[active + next]);
                }
            }
            let vector = match self.isa {
                Some(avx2) if ks.len() == MAC_CHANNELS => {
                    avx2.mac4(
                        &block[first * GROUP..],
                        active,
                        std::array::from_fn(|c| trace(first + c).raw_padded()),
                        std::array::from_fn(|c| weights[first + c]),
                        full_acc,
                    );
                    true
                }
                _ => false,
            };
            for k in ks {
                let (raw, w) = (trace(k).raw(), weights[k]);
                if !vector {
                    mac_channel_scalar(&block[k * GROUP..], active, raw, w, full_acc);
                }
                if !tail_acc.is_empty() {
                    let line = &block[(full * active + k) * GROUP..];
                    mac_channel_scalar(line, active, raw, w, tail_acc);
                }
            }
        }
    }
}

/// Group `g` of a grouped block `rows`, about to be written: at the
/// block's first group the read `windows` (per channel the low, then per
/// channel the high) start afresh.
fn open_group<'b>(rows: &'b mut [i32], windows: &mut [i32], g: usize) -> &'b mut [i32] {
    let active = windows.len() / 2;
    if g == 0 {
        let (lows, highs) = windows.split_at_mut(active);
        lows.fill(i32::MAX);
        highs.fill(i32::MIN);
    }
    &mut rows[g * active * GROUP..(g + 1) * active * GROUP]
}

/// The pack of a staged group into the block: [`pack_group_scalar`] for
/// every channel, except that a full group's leading 16-channel squares
/// take the AVX2 pack where `isa` has it.
fn pack_group(
    isa: Option<Avx2>,
    staging: &[i32],
    group: &mut [i32],
    lows: &mut [i32],
    highs: &mut [i32],
) {
    let done = match isa {
        Some(avx2) if staging.len() == group.len() => avx2.pack(staging, group, lows, highs),
        _ => 0,
    };
    pack_group_scalar(staging, group, lows, highs, done);
}

/// The scalar pack: moves staged rows (`[row][active]`, at most 16) into
/// one group of the block (`[channel][row-in-group]`, one 16-entry line
/// per channel), widening each channel's `lows`/`highs` read window over
/// the rows — for the channels from `done` (a multiple of 16) on, the
/// ones before it being already written. The group is written one
/// 16 × 16 square at a time — 16 channels × the staged rows — so the
/// staging lines read and the block lines written stay in L1, and with
/// the square's size a constant its loops unroll and the window updates
/// run across its channels as vector min/max. [`Avx2::pack`] does the
/// same for a full group's leading whole squares.
#[inline]
pub fn pack_group_scalar(
    staging: &[i32],
    group: &mut [i32],
    lows: &mut [i32],
    highs: &mut [i32],
    done: usize,
) {
    let active = lows.len();
    let (lines, _) = group.as_chunks_mut::<GROUP>();
    let squares = lines
        .chunks_mut(GROUP)
        .zip(lows.chunks_mut(GROUP).zip(highs.chunks_mut(GROUP)));
    for (c, (square, (lo, hi))) in squares.enumerate().skip(done / GROUP) {
        let width = lo.len();
        let rows = staging
            .chunks_exact(active)
            .map(|row| &row[c * GROUP..][..width]);
        if let (Ok(square), Ok(lo), Ok(hi)) = (
            <&mut [[i32; GROUP]; GROUP]>::try_from(&mut *square),
            <&mut [i32; GROUP]>::try_from(&mut *lo),
            <&mut [i32; GROUP]>::try_from(&mut *hi),
        ) {
            for (r, src) in rows.enumerate() {
                let src = <&[i32; GROUP]>::try_from(src).expect("a whole square row");
                for k in 0..GROUP {
                    square[k][r] = src[k];
                    lo[k] = lo[k].min(src[k]);
                    hi[k] = hi[k].max(src[k]);
                }
            }
        } else {
            // The aperture's last channels, fewer than `GROUP`.
            for (r, src) in rows.enumerate() {
                let lanes = square.iter_mut().zip(lo.iter_mut().zip(hi.iter_mut()));
                for ((line, (l, h)), &x) in lanes.zip(src) {
                    line[r] = x;
                    *l = (*l).min(x);
                    *h = (*h).max(x);
                }
            }
        }
    }
}

/// The scalar MAC: adds one channel's `w · raw[index]` into `acc`, where
/// accumulator `r` takes entry `r % GROUP` of the channel's line in group
/// `r / GROUP`, with `lines` starting at the channel's line of group 0
/// and `active` lines per group. A short last chunk of `acc` reads the
/// front of its line. An index outside `raw` reads `0.0` (a negative one
/// wraps to huge under the cast). [`Avx2::mac4`] does the same for four
/// channels at a time.
#[inline]
pub fn mac_channel_scalar(lines: &[i32], active: usize, raw: &[i16], w: f64, acc: &mut [f64]) {
    let read = |i: i32| raw.get(i as usize).map_or(0.0, |&r| f64::from(r));
    let mut lines = lines.chunks(GROUP).step_by(active);
    let mut accs = acc.chunks_exact_mut(GROUP);
    for (accs, line) in accs.by_ref().zip(lines.by_ref()) {
        for (a, &i) in accs.iter_mut().zip(line) {
            *a += w * read(i);
        }
    }
    if let Some(line) = lines.next() {
        for (a, &i) in accs.into_remainder().iter_mut().zip(line) {
            *a += w * read(i);
        }
    }
}

/// A delay-and-sum beamformer bound to a system spec.
///
/// The engine is passed per call, so one beamformer can compare multiple
/// delay architectures on identical data.
#[derive(Debug, Clone)]
pub struct Beamformer {
    spec: SystemSpec,
    apodization: Apodization,
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

    /// Sets the traversal order (Algorithm 1 flavour).
    #[must_use = "with_order returns the configured beamformer; dropping it discards the order"]
    pub fn with_order(mut self, order: ScanOrder) -> Self {
        self.order = order;
        self
    }

    /// Sets the post-processing chain the volume paths apply to every
    /// scanline column they produce (e.g. [`PostChain::bmode`] for
    /// log-compressed envelope output). Every path runs it the same way:
    /// one serial [`PostChain::apply_volume`] pass over the assembled
    /// raw volume — after the band scatter in the runtimes, on the
    /// thread that redeems the frame, and after the voxel walk in the
    /// scalar reference path.
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
            acc += w * trace.raw_at(engine.delay_index(tx, vox, e));
        }
        rf.scale() * acc
    }

    /// Beamforms the whole volume.
    ///
    /// Nappe-by-nappe order (the default) runs the batched kernel as one
    /// frame of a [`VolumeLoop`](crate::VolumeLoop) on the global
    /// `usbf_par` pool, with the schedule fitted to that pool: the same
    /// tasks, slabs and kernel as every warm frame, built for this call
    /// and dropped after it. Delay indices come from the engine's emit
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
                self.post.apply_volume(
                    &mut out,
                    &mut self.post.scratch(self.spec.volume_grid.n_depth()),
                );
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
    /// One voxel-parallel kernel runs for every transmit sequence and
    /// task shape. Per (tile, nappe), the engine sets up its
    /// emit ([`DelayEngine::begin_emit`]) once; per transmit, a run of
    /// rows is emitted in one call that adds the receive leg and the
    /// transmit terms and rounds, over the active aperture only
    /// ([`DelayEngine::emit_run`], or for a whole group of insonified rows
    /// [`DelayEngine::emit_group`] where the engine has it). The
    /// insonified rows are packed into a grouped index block that is
    /// summed one channel at a time into per-row accumulators. Every
    /// voxel's delay-and-sum starts at `0.0` and adds its `w·s` terms in
    /// ascending aperture order, and each transmit's sum enters the voxel
    /// as `m·sum` in transmit order, skipping `m == 0` — so the output is
    /// bit-identical to the scalar [`beamform_voxel`](Self::beamform_voxel)
    /// walk.
    ///
    /// # Panics
    ///
    /// Panics if `state` was built for a different spec or aperture, or
    /// if the engine or RF frame does not carry every
    /// transmit of the spec's sequence.
    pub fn beamform_tile_into(
        &self,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        state: &mut TileState,
    ) {
        let n_tx = self.spec.n_transmits();
        let rows = state.region.scanlines();
        let n_values = rows * state.nappes.len();
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
        let active = self.aperture.len();
        assert_eq!(
            state.index_block.len(),
            block_len(pass_rows(&state.tiles, active), active),
            "task state must be built for this aperture and these tiles"
        );
        self.tile_kernel(engine, rf, Avx2::detect(), state);
    }

    /// The voxel-parallel tile kernel, with the vector
    /// stages `isa` names — `None` runs the scalar pack and MAC alone.
    ///
    /// Per nappe of the task's band and per transmit:
    ///
    /// 1. At transmit 0, the slab is re-pointed at each tile of the task
    ///    in turn and the engine's emit is set up for it
    ///    ([`DelayEngine::begin_emit`]); a compound task has one tile, the
    ///    whole region, so that set-up serves every transmit. The rows go
    ///    in scanline order, in runs that end where the one-group staging
    ///    buffer fills (a whole group of rows when every row is
    ///    insonified), and every run is one engine call that adds the
    ///    receive leg and the run's transmit terms over the aperture's
    ///    active runs and rounds — no delay row is stored, and the kernel
    ///    makes no compaction pass.
    /// 2. A run of a whole group of insonified rows, starting a block
    ///    group, is first offered to the engine's direct group emit
    ///    ([`DelayEngine::emit_group`]): a single TABLESTEER transmit
    ///    writes each active channel's 16-row line straight into the
    ///    block's `[group][channel][row-in-group]` layout and widens the
    ///    channel's read window, with no staging row and no transpose.
    ///    After the engine's first decline the task stops offering. Every
    ///    other run — a partial group, a group with a masked row, a
    ///    compound's, an `f64` engine's — is emitted into the staging
    ///    buffer ([`DelayEngine::emit_run`]) after the live rows already
    ///    staged, and each full group is transposed into the block. Only
    ///    insonified rows (mask weight `m ≠ 0`) stay staged, the `live`
    ///    map recording their region slots; a masked row is overwritten
    ///    by the live rows after it, so it never reaches the block, but
    ///    TABLESTEER's clamp counter counts every (voxel, transmit) row.
    ///    Tiles are packed until the next one would overflow one pass's
    ///    rows ([`pass_rows`]); the block is then summed (3–4) and
    ///    emptied, and the last pass is summed after the last tile.
    /// 3. The aperture is walked channel by channel: channel `k` adds
    ///    `w[k] · raw_k[block[r][k]]` (the 16-bit sample, unscaled) into
    ///    `acc[r]` for every block row, group by group, each group one
    ///    unit-stride cache line of indices. Per voxel that is the scalar
    ///    walk's ascending-order sum from `0.0`; across voxels the
    ///    accumulators are independent chains, and one channel's lookups
    ///    for every scanline of the pass are one pass over a short
    ///    stretch of its trace. Before channel `k`, the window channel
    ///    `k + 8` will read — from the lowest index of its rows to the
    ///    highest, tracked by the direct emit and the transposes — is
    ///    prefetched, so the trace 128 KB away (at 8192 two-byte samples
    ///    per trace) is in flight while this channel sums. With AVX2 the kernel packs a
    ///    full group's whole 16-channel squares with vector shuffles
    ///    ([`Avx2::pack`]) and sums the full groups four channels at a
    ///    time with masked gathers ([`Avx2::mac4`]); the scalar loops
    ///    take the rest, in the same order per row.
    /// 4. Each live voxel adds `m · (scale · acc[r])`, the frame's scale
    ///    applied once per (voxel, transmit) exactly as the scalar walk
    ///    applies it to its sum. The zero-weight skip is a
    ///    correctness requirement, not an optimization: outside a steered
    ///    wave's footprint the sum is meaningless (and may be non-finite
    ///    under hostile inputs), so it must never enter the arithmetic —
    ///    `0.0 * NaN` is NaN. A point source weighs 1 everywhere, and an
    ///    accumulator starting at `+0.0` never becomes `-0.0`, so there
    ///    `0.0 + 1.0 · acc` is `acc` bit for bit.
    fn tile_kernel(
        &self,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        isa: Option<Avx2>,
        state: &mut TileState,
    ) {
        let TileState {
            slab,
            region,
            nappes,
            tiles,
            values,
            index_block,
            index_staging,
            windows,
            acc,
            live,
            tx_weights,
            ..
        } = state;
        let band = nappes.len();
        let n_values = values.len();
        let scale = rf.scale();
        // The block's first whole cache line: every (group, channel) line
        // then sits on one.
        let aligned = index_block.as_ptr().align_offset(64);
        let block = &mut index_block[aligned..];
        let pass = pass_rows(tiles, self.aperture.len());
        let runs = self.aperture.runs();
        // Whether to offer whole groups to the engine's direct emit:
        // until its first decline, which holds for the engine's lifetime.
        let mut direct = true;
        values.fill(0.0);
        for (j, id) in nappes.clone().enumerate() {
            for (tx, mask) in tx_weights.chunks_exact(n_values).enumerate() {
                let mut add = |slot: usize, a: f64| {
                    let v = slot * band + j;
                    values[v] += mask[v] * (scale * a);
                };
                let mut rows = Block {
                    rows: &mut *block,
                    staging: index_staging,
                    windows,
                    live,
                    len: 0,
                    isa,
                };
                for &tile in tiles.iter() {
                    if rows.len + tile.scanlines() > pass {
                        rows.flush(&self.aperture, rf, tx, acc, &mut add);
                    }
                    if tx == 0 {
                        slab.retarget(tile);
                        engine.begin_emit(id, runs, slab);
                    }
                    let mut places = tile.iter_scanlines().map(|(_, it, ip)| {
                        let r = region.slot_of(it, ip);
                        (r, mask[r * band + j])
                    });
                    // Runs end where the staged group fills, so a run
                    // never outgrows the one-group staging buffer. A whole
                    // group of insonified rows at a group boundary is
                    // offered to the engine's direct emit first, until
                    // the engine declines.
                    let n_rows = tile.scanlines();
                    let mut first = 0;
                    while first < n_rows {
                        let room = GROUP - rows.len % GROUP;
                        let run = first..(first + room).min(n_rows);
                        first = run.end;
                        if direct
                            && run.len() == GROUP
                            && places.clone().take(GROUP).all(|(_, m)| m != 0.0)
                        {
                            direct =
                                rows.emit_group(engine, tx, slab, run.start, runs, &mut places);
                            if direct {
                                continue;
                            }
                        }
                        rows.push_run(engine, tx, slab, run, runs, places.by_ref());
                    }
                }
                rows.flush(&self.aperture, rf, tx, acc, &mut add);
            }
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

    /// The tiny spec with an acquisition of a point target on voxel
    /// `vox`: off the grid's voxels, a point's short echo falls between
    /// depth steps and the volume reads all zeros.
    fn setup(vox: VoxelIndex) -> (SystemSpec, RfFrame) {
        let spec = SystemSpec::tiny();
        let rf = point_rf(&spec, vox);
        (spec, rf)
    }

    /// An acquisition of a point target on voxel `vox` of `spec`'s grid.
    fn point_rf(spec: &SystemSpec, vox: VoxelIndex) -> RfFrame {
        EchoSynthesizer::new(spec).synthesize(
            &Phantom::point(on_voxel_target(spec, vox)),
            &Pulse::from_spec(spec),
        )
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
        let (spec, rf) = setup(VoxelIndex::new(5, 2, 5));
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
    fn scanline_profile_matches_volume_column() {
        let (spec, rf) = setup(VoxelIndex::new(2, 3, 4));
        let engine = ExactEngine::new(&spec);
        let bf = Beamformer::new(&spec);
        let vol = bf.beamform_volume(&engine, &rf);
        assert!(vol.max_abs() > 0.0, "the volume must carry signal");
        let profile = bf.beamform_scanline(&engine, &rf, 2, 3);
        for (id, &v) in profile.iter().enumerate() {
            assert_eq!(v, vol.get(VoxelIndex::new(2, 3, id)));
        }
    }

    #[test]
    fn batched_tiled_path_is_bit_identical_to_scalar_path() {
        // The tentpole invariant: the parallel nappe-slab pipeline must
        // reproduce the per-voxel reference walk exactly, for approximate
        // engines too.
        let (spec, rf) = setup(VoxelIndex::new(6, 2, 5));
        let exact = ExactEngine::new(&spec);
        let steer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        for engine in [&exact as &dyn usbf_core::DelayEngine, &steer] {
            let batched = Beamformer::new(&spec)
                .with_order(ScanOrder::NappeByNappe)
                .beamform_volume(engine, &rf);
            let scalar = Beamformer::new(&spec)
                .with_order(ScanOrder::ScanlineByScanline)
                .beamform_volume(engine, &rf);
            assert!(scalar.max_abs() > 0.0, "{}", engine.name());
            assert_eq!(batched, scalar, "{}", engine.name());
        }
    }

    #[test]
    fn batched_path_preserves_clamp_telemetry() {
        // A wide aperture on the tiny grid steers some corner fetches out
        // of the echo window; the batched path must count those clamps
        // exactly like the scalar path does — over the full aperture and
        // over a Hann aperture, whose rows are emitted over its active
        // runs only.
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
        let (spec, rf) = setup(VoxelIndex::new(4, 4, 4));
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
        let (spec, rf) = setup(VoxelIndex::new(4, 5, 5));
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

    /// A 4-angle compound spec on a narrow cone of the tiny grid
    /// (±4° × 60λ, like the benchmark's plane-wave workloads), with a
    /// synthesized multi-transmit acquisition of a point on a voxel. On
    /// the tiny grid's ±36.5° cone no plane wave insonifies any voxel,
    /// so every compound volume would read all zeros; the narrow cone
    /// is inside every plane wave's footprint.
    fn compound_setup() -> (SystemSpec, RfFrame) {
        let tiny = SystemSpec::tiny();
        let spec = SystemSpec::new(
            tiny.speed_of_sound,
            tiny.sampling_frequency,
            tiny.transducer.clone(),
            usbf_geometry::VolumeSpec {
                theta_max: usbf_geometry::deg(4.0),
                phi_max: usbf_geometry::deg(4.0),
                depth_max: 60.0 * tiny.wavelength(),
                ..tiny.volume.clone()
            },
            tiny.origin,
            tiny.frame_rate,
        )
        .with_transmits(usbf_geometry::TransmitModel::plane_wave_fan(
            4,
            usbf_geometry::deg(10.0),
        ));
        let weights: f64 = (0..spec.volume_grid.voxel_count())
            .map(|i| spec.volume_grid.position(spec.volume_grid.voxel_at(i)))
            .flat_map(|s| (0..spec.n_transmits()).map(move |tx| (tx, s)))
            .map(|(tx, s)| spec.transmit_weight(tx, s))
            .sum();
        assert!(weights > 0.0, "the plane waves must insonify the grid");
        let rf = point_rf(&spec, VoxelIndex::new(3, 4, 6));
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
        // delay_index queries, never the row family.
        let (spec, rf) = compound_setup();
        let engine = ExactEngine::new(&spec);
        let bf = |order| Beamformer::new(&spec).with_order(order);
        let batched = bf(ScanOrder::NappeByNappe).beamform_volume(&engine, &rf);
        let scalar = bf(ScanOrder::ScanlineByScanline).beamform_volume(&engine, &rf);
        assert!(scalar.max_abs() > 0.0);
        assert_eq!(batched, scalar);
    }

    #[test]
    fn stale_block_entries_are_never_read() {
        // Garbage past the live rows — NaN sums, indices at both ends
        // of the i32 range — in every block, staging and window buffer
        // must not reach the output: every task shape and a compound
        // frame (whose masks leave short tails), on one schedule tile and as a whole-fan band, give the
        // volume a fresh state gives.
        let (spec, rf) = setup(VoxelIndex::new(5, 4, 5));
        let (cspec, crf) = compound_setup();
        for (spec, rf) in [(&spec, &rf), (&cspec, &crf)] {
            let engine = ExactEngine::new(spec);
            let reference = Beamformer::new(spec)
                .with_order(ScanOrder::ScanlineByScanline)
                .beamform_volume(&engine, rf);
            assert!(
                reference.max_abs() > 0.0,
                "{} transmits",
                spec.n_transmits()
            );
            let n_depth = spec.volume_grid.n_depth();
            let tiles = NappeSchedule::fitted(spec, 4).tiles();
            let tasks: Vec<(Vec<Tile>, Range<usize>)> = if spec.n_transmits() == 1 {
                vec![(tiles.clone(), 3..10), (tiles[1..2].to_vec(), 0..n_depth)]
            } else {
                let fan = NappeDelays::full(spec).tile();
                vec![(tiles[2..3].to_vec(), 5..n_depth), (vec![fan], 3..10)]
            };
            let bf = Beamformer::new(spec);
            for (tiles, nappes) in &tasks {
                let mut fresh = TileState::band(&bf, tiles, nappes.clone());
                bf.beamform_tile_into(&engine, rf, &mut fresh);
                let mut stale = TileState::band(&bf, tiles, nappes.clone());
                for (i, x) in stale.index_block.iter_mut().enumerate() {
                    *x = if i % 2 == 0 { i32::MIN } else { i32::MAX };
                }
                stale.index_staging.fill(i32::MAX);
                stale.acc.fill(f64::NAN);
                stale.values.fill(f64::NAN);
                stale.windows.fill(i32::MIN);
                bf.beamform_tile_into(&engine, rf, &mut stale);
                let bits =
                    |s: &TileState| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&stale), bits(&fresh), "{nappes:?}");
                // A second frame reuses the block the first one left.
                bf.beamform_tile_into(&engine, rf, &mut stale);
                assert_eq!(bits(&stale), bits(&fresh), "{nappes:?} warm");
            }
        }
    }

    #[test]
    fn scalar_stages_alone_match_the_scalar_walk() {
        // The kernel without its vector stages — the scalar pack and MAC
        // over whole groups too, as on a CPU without AVX2 — for all four
        // engines, a single-transmit and a compound sequence, as a
        // whole-fan depth band and as a fan tile over every nappe, gives
        // the scalar walk's bits at every voxel. The targets sit on a
        // voxel, and the compound cone is narrow enough for every plane
        // wave's footprint to cover the grid, so no volume is all zeros.
        for (spec, rf) in [setup(VoxelIndex::new(3, 4, 6)), compound_setup()] {
            let exact = ExactEngine::new(&spec);
            let naive = usbf_core::NaiveTableEngine::build(&spec, u64::MAX).unwrap();
            let tablefree =
                usbf_core::TableFreeEngine::new(&spec, usbf_core::TableFreeConfig::paper())
                    .unwrap();
            let tablesteer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
            let engines: [&dyn DelayEngine; 4] = [&exact, &naive, &tablefree, &tablesteer];
            let bf = Beamformer::new(&spec);
            let tiles = NappeSchedule::fitted(&spec, 4).tiles();
            let fan = if spec.n_transmits() == 1 {
                tiles.clone()
            } else {
                vec![NappeDelays::full(&spec).tile()]
            };
            for engine in engines {
                let band = TileState::band(&bf, &fan, 3..11);
                for mut state in [band, TileState::new(&bf, tiles[1])] {
                    bf.tile_kernel(engine, &rf, None, &mut state);
                    let nappes = state.nappes();
                    let columns = state.values().chunks_exact(nappes.len());
                    for (column, (_, it, ip)) in columns.zip(state.region().iter_scanlines()) {
                        for (v, id) in column.iter().zip(nappes.clone()) {
                            let vox = VoxelIndex::new(it, ip, id);
                            let walk = bf.beamform_voxel(engine, &rf, vox);
                            assert_eq!(v.to_bits(), walk.to_bits(), "{} {vox}", engine.name());
                        }
                    }
                    assert!(
                        state.values().iter().any(|&v| v != 0.0),
                        "{}",
                        engine.name()
                    );
                }
            }
        }
    }

    #[test]
    fn multi_pass_band_matches_the_scalar_walk() {
        // A 64 × 64 aperture on the tiny grid: a 16-scanline tile's block
        // is 4 B × 3844 Hann channels × 16 rows ≈ 246 KB, so one MAC pass
        // holds two of the band's four tiles and the band sums its fan in
        // two passes, every voxel still the scalar walk's bits.
        let base = SystemSpec::tiny();
        let spec = SystemSpec::new(
            base.speed_of_sound,
            base.sampling_frequency,
            usbf_geometry::TransducerSpec {
                nx: 64,
                ny: 64,
                ..base.transducer.clone()
            },
            base.volume.clone(),
            base.origin,
            base.frame_rate,
        );
        let rf = point_rf(&spec, VoxelIndex::new(3, 4, 6));
        let exact = ExactEngine::new(&spec);
        let steer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        let bf = Beamformer::new(&spec);
        let tiles = NappeSchedule::fitted(&spec, 4).tiles();
        let region = bounding_region(&tiles).scanlines();
        assert_eq!(pass_rows(&tiles, bf.aperture().len()), region / 2);
        for engine in [&exact as &dyn DelayEngine, &steer] {
            let mut state = TileState::band(&bf, &tiles, 3..11);
            bf.beamform_tile_into(engine, &rf, &mut state);
            let columns = state.values().chunks_exact(8);
            for (column, (_, it, ip)) in columns.zip(state.region().iter_scanlines()) {
                for (v, id) in column.iter().zip(3..11) {
                    let vox = VoxelIndex::new(it, ip, id);
                    let walk = bf.beamform_voxel(engine, &rf, vox);
                    assert_eq!(v.to_bits(), walk.to_bits(), "{} {vox}", engine.name());
                }
            }
            assert!(
                state.values().iter().any(|&v| v != 0.0),
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn grouped_block_lays_one_line_per_group_and_channel() {
        // The block read by the MAC: entry (row r, channel k) of a task
        // sits at [r / L][k][r % L], with each (group, channel) line
        // starting on a 64-byte boundary — checked against the quantized
        // rows of a scalar fill.
        let (spec, rf) = setup(VoxelIndex::new(4, 4, 4));
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
        let mut row = vec![0.0; active];
        let mut r = 0;
        for &tile in &tiles {
            let mut slab = NappeDelays::for_tile(&spec, tile);
            engine.fill_nappe(last, &mut slab);
            for (slot, it, ip) in tile.iter_scanlines() {
                for (x, &c) in row.iter_mut().zip(bf.aperture().channels()) {
                    *x = slab.row(slot)[c as usize];
                }
                engine.quantize_row(&row, &mut expected);
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

    /// A deterministic stream of pseudo-random `u64`s (xorshift64*).
    fn stream(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed.max(1);
        move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    #[test]
    fn avx2_pack_matches_the_scalar_transpose() {
        // Full and partial staged groups of random indices over 1 to 40
        // channels (whole 16-channel squares, their tails, and fewer than
        // one square): the AVX2 path writes the same block lines and
        // widens the same windows as `pack_group_scalar`, from equal
        // windows. Without AVX2 there is nothing to compare.
        let Some(avx2) = Avx2::detect() else {
            eprintln!("no AVX2 on this CPU: only the scalar pack runs");
            return;
        };
        let mut next = stream(25);
        for active in 1..=40 {
            for rows in [16, 1, 7, 15] {
                let staging: Vec<i32> = (0..rows * active).map(|_| next() as i32).collect();
                let windows: Vec<i32> = (0..2 * active).map(|_| next() as i32 >> 4).collect();
                let mut scalar = (vec![-1; 16 * active], windows.clone());
                let mut vector = scalar.clone();
                {
                    let (lows, highs) = scalar.1.split_at_mut(active);
                    pack_group_scalar(&staging, &mut scalar.0, lows, highs, 0);
                }
                let (lows, highs) = vector.1.split_at_mut(active);
                pack_group(Some(avx2), &staging, &mut vector.0, lows, highs);
                assert_eq!(vector, scalar, "{active} channels, {rows} rows");
                if rows == 16 {
                    let mut lines = vec![-1; 16 * active];
                    let mut windows = windows.clone();
                    let (lows, highs) = windows.split_at_mut(active);
                    let done = avx2.pack(&staging, &mut lines, lows, highs);
                    assert_eq!(done, active / 16 * 16);
                    assert_eq!(lines[..16 * done], scalar.0[..16 * done]);
                    assert!(lines[16 * done..].iter().all(|&x| x == -1));
                }
            }
        }
    }

    #[test]
    fn masked_gather_mac_matches_the_scalar_read_on_hostile_indices() {
        // Block entries at and past both ends of a trace — i32::MIN, −1,
        // 0, n − 2, n − 1, n, i32::MAX — and random ones, on every
        // channel of a two-transmit frame, the last channel of the last
        // transmit included (its 4-byte gather at n − 1 reads the
        // frame's pad sample): the four-channel gather MAC leaves every
        // accumulator bit-identical to four scalar channel passes.
        let Some(avx2) = Avx2::detect() else {
            eprintln!("no AVX2 on this CPU: the masked-gather MAC is not run");
            return;
        };
        let n = 40;
        let rf = RfFrame::from_traces(3, 2, n, 2, |tx, e, t| {
            for (i, v) in t.iter_mut().enumerate() {
                *v = ((tx * 7 + e.ix * 3 + e.iy * 5 + i) % 23) as f64 - 11.0;
            }
        })
        .expect("finite samples");
        let n = n as i32;
        let hostile = [i32::MIN, -1, 0, n - 2, n - 1, n, i32::MAX];
        let mut next = stream(7);
        let (active, groups) = (6, 3);
        let weights = [0.25, -1.5, 3.0e-3, 0.75, 1.0, 0.5];
        for tx in 0..2 {
            for trial in 0..40 {
                let block: Vec<i32> = (0..(groups * active + 1) * 16)
                    .map(|i| match next() % 3 {
                        0 => hostile[(i + trial) % hostile.len()],
                        1 => (next() % n as u64) as i32,
                        _ => next() as i32,
                    })
                    .collect();
                for first in [0, active - MAC_CHANNELS] {
                    let start: Vec<f64> = (0..groups * 16).map(|r| r as f64 * 0.5).collect();
                    let mut scalar = start.clone();
                    for k in first..first + MAC_CHANNELS {
                        let trace = rf.channel_trace_for(tx, k as u32).raw();
                        mac_channel_scalar(
                            &block[k * 16..],
                            active,
                            trace,
                            weights[k],
                            &mut scalar,
                        );
                    }
                    let mut vector = start;
                    avx2.mac4(
                        &block[first * 16..],
                        active,
                        std::array::from_fn(|c| {
                            rf.channel_trace_for(tx, (first + c) as u32).raw_padded()
                        }),
                        std::array::from_fn(|c| weights[first + c]),
                        &mut vector,
                    );
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&vector),
                        bits(&scalar),
                        "tx {tx} trial {trial} first {first}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "compound task covers one schedule tile")]
    fn compound_band_over_several_tiles_is_rejected() {
        let (spec, _) = compound_setup();
        let tiles = NappeSchedule::fitted(&spec, 4).tiles();
        let _ = TileState::band(&Beamformer::new(&spec), &tiles, 0..4);
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

    /// A tiny narrow-cone geometry (±4° over 60λ, so plane-wave
    /// footprints meet the grid) of an `nx × ny` array whose pitch is
    /// `pitch` wavelengths, with `n_tx` transmits: bit `i` of `kinds`
    /// makes transmit `i` a plane wave steered by `a` and `b`, else a
    /// point emission.
    fn mask_spec(
        (nx, ny, pitch): (usize, usize, f64),
        (n_theta, n_phi, n_depth): (usize, usize, usize),
        (n_tx, kinds, a, b): (usize, usize, usize, usize),
    ) -> SystemSpec {
        use usbf_geometry::{deg, TransducerSpec, TransmitModel, VolumeSpec, SPEED_OF_SOUND};
        let (fc, lambda) = (4.0e6, SPEED_OF_SOUND / 4.0e6);
        let transducer = TransducerSpec {
            center_frequency: fc,
            bandwidth: 4.0e6,
            nx,
            ny,
            pitch: pitch * lambda,
        };
        let volume = VolumeSpec {
            theta_max: deg(4.0),
            phi_max: deg(4.0),
            depth_max: 60.0 * lambda,
            n_theta,
            n_phi,
            n_depth,
        };
        let transmits = (0..n_tx)
            .map(|i| {
                if (kinds >> i) & 1 == 0 {
                    TransmitModel::PointSource
                } else {
                    let theta = ((a + 7 * i) % 25) as f64 - 12.0;
                    let phi = ((b + 5 * i) % 25) as f64 - 12.0;
                    TransmitModel::plane_wave(deg(theta), deg(phi))
                }
            })
            .collect();
        SystemSpec::new(SPEED_OF_SOUND, 32.0e6, transducer, volume, Vec3::ZERO, 15.0)
            .with_transmits(transmits)
    }

    /// Random per-element weights of `n` elements from `seed`: on and off
    /// stretches of random length, so the active runs split element rows,
    /// leave interior holes and span several rows; never all off.
    fn random_mask(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut on = next().is_multiple_of(2);
        let mut weights: Vec<f64> = (0..n)
            .map(|_| {
                if next().is_multiple_of(3) {
                    on = !on;
                }
                if on {
                    0.25 + (next() % 64) as f64 / 64.0
                } else {
                    0.0
                }
            })
            .collect();
        if weights.iter().all(|&w| w == 0.0) {
            weights[(seed % n as u64) as usize] = 1.0;
        }
        weights
    }

    #[test]
    fn whole_groups_take_the_direct_emit_bit_identically() {
        // Tiles of 16, 24, 32 and 40 rows: a whole group inside a tile
        // takes TABLESTEER's direct group emit, a partial tail and a
        // group that straddles two tiles the staged pack, and a group
        // with a masked row (a plane wave's footprint) falls back in the
        // middle of the band. A 40λ pitch makes TABLESTEER clamp. The
        // values must be the scalar walk's bit for bit, the clamp count
        // the per-element queries', and in the band's last (nappe, pass)
        // every block line the per-element indices of its live rows and
        // every window exactly their extremes.
        use usbf_core::Tile;
        let shapes = [
            ((4, 4), (8, 8)),
            ((4, 6), (8, 12)),
            ((4, 8), (8, 8)),
            ((5, 8), (10, 8)),
        ];
        for (case, ((dt, dp), (n_theta, n_phi))) in shapes.into_iter().enumerate() {
            for (wide, plane) in [(false, false), (false, true), (true, false), (true, true)] {
                let pitch = if wide { 40.0 } else { 0.5 };
                let spec = mask_spec((5, 4, pitch), (n_theta, n_phi, 5), (1, plane.into(), 14, 9));
                let mut bf = Beamformer::new(&spec);
                bf.aperture = ActiveAperture::from_weights(&random_mask(20, 3 + case as u64));
                let tiles: Vec<Tile> = (0..n_theta / dt)
                    .flat_map(|a| (0..n_phi / dp).map(move |b| (a, b)))
                    .map(|(a, b)| Tile {
                        theta_start: a * dt,
                        theta_end: (a + 1) * dt,
                        phi_start: b * dp,
                        phi_end: (b + 1) * dp,
                    })
                    .collect();
                let band = 1..5;
                let rf = point_rf(&spec, VoxelIndex::new(n_theta / 2, n_phi / 2, 3));
                let engine = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
                let (oracle, scalar) = (engine.clone(), engine.clone());
                let mut state = TileState::band(&bf, &tiles, band.clone());
                let (region, active) = (state.region, bf.aperture.len());
                assert_eq!(pass_rows(&tiles, active), region.scanlines(), "one pass");
                bf.beamform_tile_into(&engine, &rf, &mut state);
                let what = format!("{dt}x{dp} tiles, wide {wide}, plane {plane}");

                let mut masked = 0;
                for (slot, it, ip) in region.iter_scanlines() {
                    for (j, id) in band.clone().enumerate() {
                        let v = VoxelIndex::new(it, ip, id);
                        let (a, b) = (
                            state.values[slot * band.len() + j],
                            bf.beamform_voxel(&oracle, &rf, v),
                        );
                        assert_eq!(a.to_bits(), b.to_bits(), "{what} {v}: {a} vs {b}");
                        masked += usize::from(state.tx_weights[slot * band.len() + j] == 0.0);
                        for &chan in bf.aperture.channels() {
                            let e = ElementIndex::new(chan as usize % 5, chan as usize / 5);
                            scalar.delay_index(0, v, e);
                        }
                    }
                }
                assert_eq!(engine.clamp_events(), scalar.clamp_events(), "{what}");
                assert_eq!(wide, scalar.clamp_events() > 0, "{what}");
                let n_voxels = region.scanlines() * band.len();
                // The narrow aperture's plane-wave footprint covers part of
                // the fan (a 40λ aperture's covers all of it).
                let partly_masked = masked > 0 && masked < n_voxels;
                assert_eq!(partly_masked, plane && !wide, "{what}: {masked} masked");

                let last = band.len() - 1;
                // The live rows in block order: tile by tile.
                let live: Vec<usize> = tiles
                    .iter()
                    .flat_map(|t| t.iter_scanlines())
                    .map(|(_, it, ip)| region.slot_of(it, ip))
                    .filter(|&slot| state.tx_weights[slot * band.len() + last] != 0.0)
                    .collect();
                let block_rows = state.live[..live.len()].iter().map(|&r| r as usize);
                assert!(block_rows.eq(live.iter().copied()), "{what}");
                let block = &state.index_block[state.index_block.as_ptr().align_offset(64)..];
                for (k, &chan) in bf.aperture.channels().iter().enumerate() {
                    let e = ElementIndex::new(chan as usize % 5, chan as usize / 5);
                    let line: Vec<i32> = (0..live.len())
                        .map(|i| block[((i / GROUP) * active + k) * GROUP + i % GROUP])
                        .collect();
                    let expected: Vec<i32> = live
                        .iter()
                        .map(|&slot| {
                            let (it, ip) = region.scanline_at(slot);
                            oracle.delay_index(0, VoxelIndex::new(it, ip, band.end - 1), e) as i32
                        })
                        .collect();
                    assert_eq!(line, expected, "{what} channel {k}");
                    let window = (state.windows[k], state.windows[active + k]);
                    let extremes = (*line.iter().min().unwrap(), *line.iter().max().unwrap());
                    assert_eq!(window, extremes, "{what} channel {k}");
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn emit_over_random_masks_matches_the_scalar_walk_and_its_telemetry(
            nx in 2usize..7,
            ny in 2usize..7,
            n_theta in 2usize..5,
            n_phi in 2usize..5,
            n_depth in 3usize..8,
            target in 0usize..1_000_000,
            n_tx in 1usize..4,
            kinds in 0usize..16,
            angle_a in 0usize..1000,
            angle_b in 0usize..1000,
            wide in proptest::prelude::any::<bool>(),
            mask_seed in proptest::prelude::any::<u64>(),
            tiles_pick in 0usize..1000,
        ) {
            // The tile kernel's only delay source is the engines' emit
            // over the aperture's active runs. Random masks make runs that
            // split element rows, leave interior holes and span several
            // rows; the volume must be the scalar `beamform_voxel` walk's
            // bit for bit, for all four engines, on single-transmit frames
            // (multi-tile bands) and compounds (whole-fan bands). A wide
            // pitch puts far elements out of the echo window, so
            // TABLESTEER clamps, and its clamp count must equal the scalar
            // `delay_index` count over every voxel × transmit × active
            // channel; TABLEFREE's root count must equal the row methods'
            // (the receive-leg fill of every nappe, one `combine_tx_row`
            // per row and transmit).
            use crate::VolumeLoop;
            use proptest::prelude::*;
            use usbf_core::{NaiveTableEngine, TableFreeConfig, TableFreeEngine};
            use usbf_par::global_arc;
            let pitch = if wide { 40.0 } else { 0.5 };
            let spec = mask_spec(
                (nx, ny, pitch),
                (n_theta, n_phi, n_depth),
                (n_tx, kinds, angle_a, angle_b),
            );
            let mut bf = Beamformer::new(&spec);
            bf.aperture = ActiveAperture::from_weights(&random_mask(nx * ny, mask_seed));
            let schedule = NappeSchedule::fitted(&spec, 1 + tiles_pick % (n_theta * n_phi));
            let grid = &spec.volume_grid;
            let rf = point_rf(&spec, grid.voxel_at(target % grid.voxel_count()));
            let exact = ExactEngine::new(&spec);
            let naive = NaiveTableEngine::build(&spec, u64::MAX).expect("tiny table fits");
            let tablefree = TableFreeEngine::new(&spec, TableFreeConfig::paper()).expect("builds");
            let tablesteer =
                TableSteerEngine::new(&spec, TableSteerConfig::bits18()).expect("builds");
            let engines: [&dyn DelayEngine; 4] = [&exact, &naive, &tablefree, &tablesteer];
            let what = format!(
                "{nx}x{ny} mask {:?}, {n_tx} transmits (kinds {kinds:#x}), wide {wide}",
                bf.aperture.runs()
            );
            for engine in engines {
                let mut banded = VolumeLoop::with_pool(bf.clone(), global_arc(), &schedule);
                let volume = banded.beamform(engine, &rf);
                for i in 0..grid.voxel_count() {
                    let v = grid.voxel_at(i);
                    let (a, b) = (volume.get(v), bf.beamform_voxel(engine, &rf, v));
                    prop_assert_eq!(
                        a.to_bits(), b.to_bits(),
                        "{} {} {}: {} vs {}", engine.name(), what, v, a, b
                    );
                }
            }

            let (batched, oracle) = (tablesteer.clone(), tablesteer.clone());
            VolumeLoop::with_pool(bf.clone(), global_arc(), &schedule).beamform(&batched, &rf);
            for i in 0..grid.voxel_count() {
                for tx in 0..n_tx {
                    for &chan in bf.aperture.channels() {
                        let e = ElementIndex::new(chan as usize % nx, chan as usize / nx);
                        oracle.delay_index(tx, grid.voxel_at(i), e);
                    }
                }
            }
            prop_assert!(!wide || oracle.clamp_events() > 0, "a wide aperture clamps: {}", what);
            prop_assert_eq!(batched.clamp_events(), oracle.clamp_events(), "{}", what);

            let (batched, oracle) = (tablefree.clone(), tablefree.clone());
            VolumeLoop::with_pool(bf, global_arc(), &schedule).beamform(&batched, &rf);
            let mut slab = NappeDelays::full(&spec);
            let mut row = vec![0.0; nx * ny];
            for id in 0..n_depth {
                oracle.fill_nappe_rx(id, &mut slab);
                for (slot, it, ip) in slab.scanlines() {
                    for tx in 0..n_tx {
                        let vox = VoxelIndex::new(it, ip, id);
                        oracle.combine_tx_row(tx, vox, slab.row(slot), &mut row);
                    }
                }
            }
            prop_assert_eq!(batched.sqrt_evals(), oracle.sqrt_evals(), "{}", what);
        }
    }
}
