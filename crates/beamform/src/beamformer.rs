//! The delay-and-sum kernel (Eq. 1) over any delay engine.
//!
//! The volume path mirrors the paper's architecture: delays are consumed
//! as per-nappe slabs ([`DelayEngine::fill_nappe`]) rather than per-voxel
//! queries, and the steering fan is split into [`NappeSchedule`] tiles
//! beamformed in parallel — each worker owns one tile's slab and walks
//! the nappes in depth order, exactly like a Fig. 4 block bound to its
//! correction registers. The output volume is bit-identical to the scalar
//! per-voxel path, which is kept as the reference implementation (and as
//! the executed path for scanline-by-scanline traversal).

use crate::postproc::{PostChain, PostScratch};
use crate::{ActiveAperture, Apodization, BeamformedVolume};
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

/// Scatters one tile's beamformed values (in
/// `[scanline-within-tile][depth]` order) into the output volume — the
/// single copy of the tile→volume layout mapping, shared by the cold
/// tiled path, [`VolumeLoop`](crate::VolumeLoop) and
/// [`FramePipeline`](crate::FramePipeline) so all three stay
/// bit-identical by construction.
pub(crate) fn scatter_tile(out: &mut BeamformedVolume, tile: Tile, values: &[f64], n_depth: usize) {
    for (slot, it, ip) in tile.iter_scanlines() {
        let column = &values[slot * n_depth..(slot + 1) * n_depth];
        for (id, &v) in column.iter().enumerate() {
            out.set(VoxelIndex::new(it, ip, id), v);
        }
    }
}

/// Warm per-tile state: one task's delay slab, output staging buffer and
/// the kernel's scratch, allocated once at construction and refilled
/// every frame. The kernel's block holds one (nappe, transmit)'s worth of
/// quantized indices (or fractional delays) for up to every scanline of
/// the tile, with one accumulator per block row and a `live` map from
/// block rows back to scanlines — the voxel-parallel block it sums one
/// channel at a time. One definition shared by
/// [`VolumeLoop`](crate::VolumeLoop) and
/// [`FramePipeline`](crate::FramePipeline) (and through the latter,
/// [`ShardedRuntime`](crate::ShardedRuntime)), so the warm-state shape
/// (and with it the bit-identical-to-serial invariant) cannot drift
/// between the runtimes.
pub struct TileState {
    pub(crate) slab: NappeDelays,
    pub(crate) values: Vec<f64>,
    /// Active elements' delays of one row, compacted out of a full
    /// element row before quantization (bypassed when the aperture is
    /// full — the row is already the active row).
    pub(crate) delays: Vec<f64>,
    /// Nearest kernel: quantized echo-buffer indices,
    /// `[block row][active]` row-major — one
    /// [`DelayEngine::quantize_row`] call writes each row. Empty for
    /// linear interpolation.
    pub(crate) index_block: Vec<i32>,
    /// Linear kernel: compacted fractional delays, same
    /// `[block row][active]` shape. Empty for nearest interpolation.
    pub(crate) delay_block: Vec<f64>,
    /// One running sum per block row: the kernel's independent
    /// accumulator chains.
    pub(crate) acc: Vec<f64>,
    /// The scanline slot each block row belongs to: only insonified
    /// (nonzero-weight) rows are packed into the block.
    pub(crate) live: Vec<u32>,
    /// One combined per-transmit delay row of a compound frame:
    /// [`DelayEngine::combine_tx_row`] writes the transmit term folded
    /// onto a receive-leg slab row here. Sized to the full element row.
    pub(crate) tx_row: Vec<f64>,
    /// Mask weights, `[transmit][scanline-within-tile][depth]` (same
    /// inner layout as `values`): the per-voxel insonification weight of
    /// each transmit, precomputed at construction so the warm accumulate
    /// is a pure multiply-add with an explicit zero skip.
    pub(crate) tx_weights: Vec<f64>,
    /// I/Q scratch for the fused post-processing chain (empty when the
    /// beamformer carries no chain).
    pub(crate) post_scratch: PostScratch,
}

impl TileState {
    /// Allocates the warm state for one schedule tile of `beamformer`'s
    /// spec: the delay slab, the `[scanline][depth]` staging buffer, the
    /// index (nearest) or delay (linear) block sized to the compacted
    /// aperture, and every transmit's mask weights.
    #[must_use]
    pub fn new(beamformer: &Beamformer, tile: Tile) -> Self {
        let spec = beamformer.spec();
        let active = beamformer.aperture().len();
        let n_depth = spec.volume_grid.n_depth();
        let n_values = tile.scanlines() * n_depth;
        let block = tile.scanlines() * active;
        let nearest = beamformer.interpolation == Interpolation::Nearest;
        // Precompute every transmit's per-voxel mask weight in the
        // `values` layout, so the warm accumulate never calls back into
        // geometry.
        let mut tx_weights = vec![0.0; spec.n_transmits() * n_values];
        for (tx, weights) in tx_weights.chunks_exact_mut(n_values).enumerate() {
            for (slot, it, ip) in tile.iter_scanlines() {
                for id in 0..n_depth {
                    let s = spec.volume_grid.position(VoxelIndex::new(it, ip, id));
                    weights[slot * n_depth + id] = spec.transmit_weight(tx, s);
                }
            }
        }
        TileState {
            slab: NappeDelays::for_tile(spec, tile),
            values: vec![0.0; n_values],
            delays: vec![0.0; active],
            acc: vec![0.0; tile.scanlines()],
            live: vec![0; tile.scanlines()],
            tx_row: vec![0.0; spec.elements.count()],
            tx_weights,
            // The block is allocated after the small row buffers: placed
            // between them, it shifted glibc's heap layout so that a
            // pipeline's dropped RF ring stayed resident (+8 MB peak RSS
            // on the benchmark's cpwc16-tiny set-up, 2-vCPU x86-64).
            index_block: vec![0; if nearest { block } else { 0 }],
            delay_block: vec![0.0; if nearest { 0 } else { block }],
            post_scratch: if beamformer.postproc().is_empty() {
                PostScratch::default()
            } else {
                PostScratch::new(n_depth)
            },
        }
    }

    /// The tile this state beamforms.
    #[inline]
    pub fn tile(&self) -> Tile {
        self.slab.tile()
    }

    /// The staged output values in `[scanline-within-tile][depth]` order
    /// (the layout the volume scatter consumes).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Builds the warm state for every tile of a schedule: the only place
/// the slab/values/scratch sizing lives.
pub(crate) fn warm_tile_states(beamformer: &Beamformer, tiles: &[Tile]) -> Vec<TileState> {
    tiles
        .iter()
        .map(|&tile| TileState::new(beamformer, tile))
        .collect()
}

/// Scatters every tile's staged values into the output volume, in tile
/// order — the deterministic sequential merge both runtimes end a frame
/// with.
pub(crate) fn scatter_tiles(
    out: &mut BeamformedVolume,
    tiles: &[Tile],
    states: &[TileState],
    n_depth: usize,
) {
    for (tile, state) in tiles.iter().zip(states) {
        scatter_tile(out, *tile, &state.values, n_depth);
    }
}

/// Channels the tile kernel prefetches ahead of the one it sums: far
/// enough for a sample window 64 KB away to arrive, near enough that it
/// is still cached when its turn comes.
const PREFETCH_AHEAD: usize = 8;

/// One interpolation mode of the tile kernel: the block entry type
/// (`i32` echo-buffer indices for nearest fetch, `f64` fractional delays
/// for linear), how a full element delay row is packed into a block row,
/// and how a trace is read at an entry. The kernel is generic over it, so
/// each mode compiles to its own monomorphized loop.
trait Fetch: Copy {
    /// Whether packing runs the engine's rounding stage (and with it any
    /// rounding telemetry).
    const ROUNDS: bool;

    /// Packs one full element row into one block row of active
    /// channels, using `scratch` for the compaction if needed.
    fn pack(
        engine: &dyn DelayEngine,
        aperture: &ActiveAperture,
        row: &[f64],
        scratch: &mut [f64],
        out: &mut [Self],
    );

    /// Reads `trace` at this entry, bit-identical to the scalar walk's
    /// [`RfFrame`] read; out-of-window reads give `0.0`.
    fn read(trace: &[f64], at: Self) -> f64;

    /// The sample index this entry reads near, for prefetching.
    fn index(self) -> i32;
}

impl Fetch for i32 {
    const ROUNDS: bool = true;

    /// Compaction, then the engine's own final rounding stage via one
    /// [`DelayEngine::quantize_row`] call, so rounding telemetry
    /// (TABLESTEER's clamp counter) advances exactly as it does for
    /// per-element queries.
    #[inline]
    fn pack(
        engine: &dyn DelayEngine,
        aperture: &ActiveAperture,
        row: &[f64],
        scratch: &mut [f64],
        out: &mut [i32],
    ) {
        let active = if aperture.is_full() {
            row
        } else {
            aperture.compact_row(row, scratch);
            scratch
        };
        engine.quantize_row(active, out);
    }

    /// [`RfFrame::sample`]: negative indices wrap to huge under the cast
    /// and read `0.0` like any other out-of-window index.
    #[inline(always)]
    fn read(trace: &[f64], i: i32) -> f64 {
        trace.get(i as usize).copied().unwrap_or(0.0)
    }

    #[inline(always)]
    fn index(self) -> i32 {
        self
    }
}

impl Fetch for f64 {
    const ROUNDS: bool = false;

    /// No quantization stage: the row is copied (or compacted) straight
    /// into the block.
    #[inline]
    fn pack(
        _: &dyn DelayEngine,
        aperture: &ActiveAperture,
        row: &[f64],
        _: &mut [f64],
        out: &mut [f64],
    ) {
        if aperture.is_full() {
            out.copy_from_slice(row);
        } else {
            aperture.compact_row(row, out);
        }
    }

    /// The floor/blend arithmetic of [`RfFrame::sample_interp`], with the
    /// same zero reads outside the window.
    #[inline(always)]
    fn read(trace: &[f64], t: f64) -> f64 {
        let i0 = t.floor() as i64;
        let frac = t - i0 as f64;
        let at = |i: i64| {
            usize::try_from(i)
                .ok()
                .and_then(|i| trace.get(i))
                .copied()
                .unwrap_or(0.0)
        };
        at(i0) * (1.0 - frac) + at(i0 + 1) * frac
    }

    #[inline(always)]
    fn index(self) -> i32 {
        self as i32
    }
}

/// The kernel's per-(nappe, transmit) block under construction: rows are
/// pushed in scanline order and the insonified ones packed densely.
struct Block<'a, T> {
    rows: &'a mut [T],
    live: &'a mut [u32],
    scratch: &'a mut [f64],
    /// Packed (live) rows so far.
    len: usize,
}

impl<T: Fetch> Block<'_, T> {
    /// Offers scanline `slot`'s delay row with mask weight `m`. A live
    /// row is packed into the next free block row; a masked row is
    /// dropped, unless `keep_masked` — then it is still packed into the
    /// next free row (which the next live row overwrites) so the engine's
    /// rounding telemetry counts it.
    #[inline]
    fn push(
        &mut self,
        engine: &dyn DelayEngine,
        aperture: &ActiveAperture,
        slot: usize,
        m: f64,
        keep_masked: bool,
        row: &[f64],
    ) {
        if m == 0.0 && !keep_masked {
            return;
        }
        let active = aperture.len();
        let out = &mut self.rows[self.len * active..(self.len + 1) * active];
        T::pack(engine, aperture, row, self.scratch, out);
        if m != 0.0 {
            self.live[self.len] = slot as u32;
            self.len += 1;
        }
    }
}

/// The kernel's row-sized scratch, borrowed out of a [`TileState`].
struct Scratch<'a> {
    delays: &'a mut [f64],
    acc: &'a mut [f64],
    live: &'a mut [u32],
    tx_row: &'a mut [f64],
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
            return self.scalar_aperture_sum(&mut |e| match self.interpolation {
                Interpolation::Nearest => rf.sample(e, engine.delay_index(0, vox, e)),
                Interpolation::Linear => rf.sample_interp(e, engine.delay_samples(0, vox, e)),
            });
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
    /// before the compound mask weight is applied. Transmit 0 of a
    /// single-emission spec reproduces
    /// [`beamform_voxel`](Self::beamform_voxel).
    pub fn beamform_voxel_for(
        &self,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        tx: usize,
        vox: VoxelIndex,
    ) -> f64 {
        self.scalar_aperture_sum(&mut |e| match self.interpolation {
            Interpolation::Nearest => rf.sample_for(tx, e, engine.delay_index(tx, vox, e)),
            Interpolation::Linear => rf.sample_interp_for(tx, e, engine.delay_samples(tx, vox, e)),
        })
    }

    /// The scalar reference walk's Eq. 1 sum over the compacted aperture,
    /// with `fetch` producing each element's delayed sample: one running
    /// accumulator from `0.0`, in ascending aperture order — the addition
    /// order every batched kernel reproduces per voxel.
    fn scalar_aperture_sum(&self, fetch: &mut dyn FnMut(ElementIndex) -> f64) -> f64 {
        let nx = self.spec.elements.nx();
        let mut acc = 0.0;
        for (&chan, &w) in self.aperture.channels().iter().zip(self.aperture.weights()) {
            acc += w * fetch(ElementIndex::new(chan as usize % nx, chan as usize / nx));
        }
        acc
    }

    /// Beamforms the whole volume.
    ///
    /// Nappe-by-nappe order (the default) runs the batched pipeline:
    /// parallel over [`NappeSchedule`] tiles on the persistent
    /// `usbf_par` pool, one delay slab per (tile, nappe) via
    /// [`DelayEngine::fill_nappe`]. Scanline-by-scanline order keeps the
    /// scalar per-voxel walk as the reference path. Both produce
    /// bit-identical volumes. For repeated frames, prefer
    /// [`VolumeLoop`](crate::VolumeLoop), which reuses this path's slabs
    /// and buffers across calls.
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
            ScanOrder::NappeByNappe => {
                let schedule = pool_fitted_schedule(&self.spec, usbf_par::global());
                self.beamform_volume_tiled(engine, rf, &schedule)
            }
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

    /// Beamforms the whole volume with an explicit tile schedule: each
    /// tile is an independent unit of work (run in parallel, one worker
    /// slab each), and within a tile delays stream one nappe slab at a
    /// time in depth order.
    pub fn beamform_volume_tiled(
        &self,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        schedule: &NappeSchedule,
    ) -> BeamformedVolume {
        let tiles = schedule.tiles();
        let per_tile: Vec<TileState> = usbf_par::par_map(&tiles, |_, &tile| {
            let mut state = TileState::new(self, tile);
            self.beamform_tile_into(engine, rf, &mut state);
            state
        });
        let n_depth = self.spec.volume_grid.n_depth();
        let mut out = BeamformedVolume::zeros(&self.spec);
        for (tile, state) in tiles.iter().zip(per_tile) {
            scatter_tile(&mut out, *tile, &state.values, n_depth);
        }
        out
    }

    /// Beamforms one tile into caller-owned warm state ([`TileState`]):
    /// the state's slab selects the fan region and its `values` buffer
    /// receives the result in `[scanline-within-tile][depth]` order. This
    /// is the allocation-free kernel [`VolumeLoop`](crate::VolumeLoop)
    /// and [`FramePipeline`](crate::FramePipeline) drive every frame.
    ///
    /// One voxel-parallel kernel serves every transmit sequence, split by
    /// interpolation mode into two monomorphized loops chosen **once per
    /// tile**. Per (nappe, transmit), delay rows come from the engine's
    /// fused [`DelayEngine::fill_nappe_streamed`] for a single transmit,
    /// or from one [`DelayEngine::fill_nappe_rx`] per nappe plus one
    /// [`DelayEngine::combine_tx_row`] per row for a compound sequence;
    /// the insonified rows are packed into a `[row][active]` block that
    /// is summed one channel at a time into per-row accumulators. Every
    /// voxel's delay-and-sum starts at `0.0` and adds its `w·s` terms in
    /// ascending aperture order, and each transmit's sum enters the voxel
    /// as `m·sum` in transmit order, skipping `m == 0` — so the output is
    /// bit-identical to the scalar
    /// [`beamform_voxel`](Self::beamform_voxel) walk.
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
        let tile = state.slab.tile();
        let n_depth = self.spec.volume_grid.n_depth();
        let n_tx = self.spec.n_transmits();
        let n_values = tile.scanlines() * n_depth;
        assert_eq!(
            state.values.len(),
            n_values,
            "values buffer must cover the tile"
        );
        assert_eq!(
            state.tx_weights.len(),
            n_tx * n_values,
            "tile state must be built for this spec's transmit sequence"
        );
        assert_eq!(
            state.delays.len(),
            self.aperture.len(),
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
            values,
            delays,
            index_block,
            delay_block,
            acc,
            live,
            tx_row,
            tx_weights,
            post_scratch,
        } = state;
        let block_len = match self.interpolation {
            Interpolation::Nearest => index_block.len(),
            Interpolation::Linear => delay_block.len(),
        };
        assert_eq!(
            block_len,
            tile.scanlines() * self.aperture.len(),
            "tile state must be built for this beamformer's interpolation"
        );
        let scratch = Scratch {
            delays,
            acc,
            live,
            tx_row,
        };
        match self.interpolation {
            Interpolation::Nearest => {
                self.tile_kernel(engine, rf, slab, values, tx_weights, scratch, index_block)
            }
            Interpolation::Linear => {
                self.tile_kernel(engine, rf, slab, values, tx_weights, scratch, delay_block)
            }
        }
        if !self.post.is_empty() {
            // Fused post-processing: each scanline column runs through
            // the chain while it is still cache-hot from the kernel and
            // before the scatter, using the tile's preallocated I/Q
            // scratch (no heap traffic on the warm path). Columns are
            // independent, so per-tile application is bit-identical to
            // the whole-volume pass of the scalar reference.
            for column in values.chunks_exact_mut(n_depth) {
                self.post.apply_column(column, post_scratch);
            }
        }
    }

    /// The voxel-parallel tile kernel, for one interpolation mode.
    ///
    /// Per nappe and transmit:
    ///
    /// 1. Delay rows arrive in scanline order. A single-transmit frame
    ///    takes them from the engine's fused
    ///    [`DelayEngine::fill_nappe_streamed`], each row handed over
    ///    cache-hot; a compound frame fills the transmit-invariant
    ///    receive leg once per nappe ([`DelayEngine::fill_nappe_rx`]) and
    ///    builds each transmit's row with one
    ///    [`DelayEngine::combine_tx_row`]. (Routing a single transmit
    ///    through the receive leg plus a combine measured slower than the
    ///    one-pass fused fill.)
    /// 2. Only insonified rows (mask weight `m ≠ 0`) are packed into the
    ///    `[row][active]` block, the `live` map recording their
    ///    scanlines. A masked row contributes nothing, so it is skipped
    ///    — except in nearest mode under an engine with rounding
    ///    telemetry ([`DelayEngine::rounding_telemetry`]), where it is
    ///    still quantized into the next free row (and overwritten) so
    ///    TABLESTEER's clamp counter counts every (voxel, transmit) row.
    /// 3. The aperture is walked channel by channel: channel `k` adds
    ///    `w[k] · trace_k[block[r][k]]` into `acc[r]` for every block row.
    ///    Per voxel that is the scalar walk's ascending-order sum from
    ///    `0.0`; across voxels the accumulators are independent chains,
    ///    and one channel's lookups stay inside a short window of one
    ///    trace. `block` is read with a stride of one row rather than
    ///    transposed into a channel-major copy, whose scattered writes
    ///    would be a second pass over the block. Before channel `k`, the
    ///    window channel `k + 8` will read — from its first row's index
    ///    to its last's — is prefetched, so the trace 64 KB away is in
    ///    flight while this channel sums.
    /// 4. Each live voxel adds `m · acc[r]`. The zero-weight skip is a
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
        slab: &mut NappeDelays,
        values: &mut [f64],
        tx_weights: &[f64],
        scratch: Scratch<'_>,
        block: &mut [T],
    ) {
        let Scratch {
            delays,
            acc,
            live,
            tx_row,
        } = scratch;
        let tile = slab.tile();
        let n_depth = self.spec.volume_grid.n_depth();
        let n_values = values.len();
        let aperture = &self.aperture;
        let single = self.spec.n_transmits() == 1;
        let keep_masked = T::ROUNDS && engine.rounding_telemetry();
        values.fill(0.0);
        for id in 0..n_depth {
            for (tx, mask) in tx_weights.chunks_exact(n_values).enumerate() {
                let mut rows = Block {
                    rows: &mut *block,
                    live: &mut *live,
                    scratch: &mut *delays,
                    len: 0,
                };
                if single {
                    engine.fill_nappe_streamed(id, slab, &mut |slot, row| {
                        let m = mask[slot * n_depth + id];
                        rows.push(engine, aperture, slot, m, keep_masked, row);
                    });
                } else {
                    if tx == 0 {
                        engine.fill_nappe_rx(id, slab);
                    }
                    for (slot, it, ip) in tile.iter_scanlines() {
                        let m = mask[slot * n_depth + id];
                        if m == 0.0 && !keep_masked {
                            continue;
                        }
                        let vox = VoxelIndex::new(it, ip, id);
                        engine.combine_tx_row(tx, vox, slab.row(slot), tx_row);
                        rows.push(engine, aperture, slot, m, keep_masked, tx_row);
                    }
                }
                let n_live = rows.len;
                self.accumulate(rf, tx, id, block, n_live, acc, live, mask, values);
            }
        }
    }

    /// Steps 3 and 4 of [`tile_kernel`](Self::tile_kernel) for one
    /// (nappe `id`, transmit `tx`): the channel-outer MAC over the first
    /// `n_live` rows of `block`, then each live voxel's `m · acc` into
    /// `values`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn accumulate<T: Fetch>(
        &self,
        rf: &RfFrame,
        tx: usize,
        id: usize,
        block: &[T],
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
        let block = &block[..n_live * active];
        let acc = &mut acc[..n_live];
        let last_row = (n_live - 1) * active;
        acc.fill(0.0);
        for (k, (&chan, &w)) in channels.iter().zip(weights).enumerate() {
            if let Some(&ahead) = channels.get(k + PREFETCH_AHEAD) {
                let j = k + PREFETCH_AHEAD;
                rf.prefetch_window_for(tx, ahead, block[j].index(), block[last_row + j].index());
            }
            let trace = rf.channel_trace_for(tx, chan);
            for (a, &at) in acc.iter_mut().zip(block[k..].iter().step_by(active)) {
                *a += w * T::read(trace, at);
            }
        }
        let n_depth = self.spec.volume_grid.n_depth();
        for (&slot, &a) in live.iter().zip(acc.iter()) {
            let v = slot as usize * n_depth + id;
            values[v] += mask[v] * a;
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
        // exactly like the scalar path does.
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
        let scalar_engine = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        let batched_engine = scalar_engine.clone(); // fresh zeroed counter
        let bf = |order| {
            Beamformer::new(&spec)
                .with_apodization(crate::Apodization::Rect)
                .with_order(order)
        };
        bf(ScanOrder::ScanlineByScanline).beamform_volume(&scalar_engine, &rf);
        bf(ScanOrder::NappeByNappe).beamform_volume(&batched_engine, &rf);
        assert!(
            scalar_engine.clamp_events() > 0,
            "setup must actually clamp"
        );
        assert_eq!(batched_engine.clamp_events(), scalar_engine.clamp_events());
    }

    #[test]
    fn every_tile_schedule_gives_the_same_volume() {
        let (spec, rf) = setup(Vec3::new(0.0, 0.003, 0.06));
        let engine = ExactEngine::new(&spec);
        let bf = Beamformer::new(&spec);
        let reference =
            bf.beamform_volume_tiled(&engine, &rf, &usbf_core::NappeSchedule::fitted(&spec, 1));
        for target in [2, 4, 16, 64] {
            let schedule = usbf_core::NappeSchedule::fitted(&spec, target);
            let vol = bf.beamform_volume_tiled(&engine, &rf, &schedule);
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
        bf.beamform_volume_tiled(&batched, &rf, &usbf_core::NappeSchedule::fitted(&spec, 2));
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
