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
/// every frame. A single-transmit tile carries one nappe's worth of
/// quantized indices (or fractional delays) for every scanline of the
/// tile plus one accumulator per scanline — the voxel-parallel block
/// the kernel sums one channel at a time; a compound tile carries the
/// row-length scratch of the per-voxel compound kernels instead. One
/// definition shared by [`VolumeLoop`](crate::VolumeLoop) and
/// [`FramePipeline`](crate::FramePipeline) (and through the latter,
/// [`ShardedRuntime`](crate::ShardedRuntime)), so the warm-state shape
/// (and with it the bit-identical-to-serial invariant) cannot drift
/// between the runtimes.
pub struct TileState {
    pub(crate) slab: NappeDelays,
    pub(crate) values: Vec<f64>,
    /// Active elements' delays of one scanline row, compacted out of the
    /// slab row (bypassed when the aperture is full — the slab row is
    /// already the active row).
    pub(crate) delays: Vec<f64>,
    /// Single-transmit nearest kernel: the nappe's quantized echo-buffer
    /// indices, `[scanline-within-tile][active]` row-major — one
    /// [`DelayEngine::quantize_row`] call writes each scanline's row.
    /// Empty for linear interpolation and for compound sequences.
    pub(crate) index_block: Vec<i32>,
    /// Single-transmit linear kernel: the nappe's compacted fractional
    /// delays, same `[scanline-within-tile][active]` shape. Empty for
    /// nearest interpolation and for compound sequences.
    pub(crate) delay_block: Vec<f64>,
    /// One running sum per scanline of the tile: the single-transmit
    /// kernels' independent accumulator chains. Empty for compound
    /// sequences.
    pub(crate) acc: Vec<f64>,
    /// Compound kernels: the quantized echo-buffer index row of one
    /// (voxel, transmit). Empty for the single point-source emission.
    pub(crate) indices: Vec<i32>,
    /// Compound kernels: the gathered sample row the weighted accumulate
    /// consumes. Empty for the single point-source emission.
    pub(crate) samples: Vec<f64>,
    /// Low-resolution-image staging for compound sequences: one
    /// transmit's tile volume, re-beamformed per angle and accumulated
    /// into `values`. Empty for the classic single point-source emission
    /// (which beamforms straight into `values`).
    pub(crate) lri: Vec<f64>,
    /// One combined per-transmit delay row of the factored compound
    /// kernel: [`DelayEngine::combine_tx_row`] writes the transmit term
    /// folded onto the receive-leg slab row here, per (voxel, transmit).
    /// Sized to the full element row; empty for the single point-source
    /// emission (which never runs the factored loop).
    pub(crate) tx_row: Vec<f64>,
    /// Compound mask weights, `[transmit][scanline-within-tile][depth]`
    /// (same inner layout as `values`): the per-voxel insonification
    /// weight of each transmit, precomputed at construction so the warm
    /// accumulate is a pure multiply-add with an explicit zero skip.
    /// Empty for the single point-source emission.
    pub(crate) tx_weights: Vec<f64>,
    /// I/Q scratch for the fused post-processing chain (empty when the
    /// beamformer carries no chain).
    pub(crate) post_scratch: PostScratch,
}

impl TileState {
    /// Allocates the warm state for one schedule tile of `beamformer`'s
    /// spec: the delay slab, the `[scanline][depth]` staging buffer and
    /// the kernel's scratch, sized to the compacted aperture — the index
    /// (nearest) or delay (linear) block and per-scanline accumulators
    /// for a single transmit, the per-voxel rows and mask weights for a
    /// compound sequence.
    #[must_use]
    pub fn new(beamformer: &Beamformer, tile: Tile) -> Self {
        let spec = beamformer.spec();
        let active = beamformer.aperture().len();
        let n_depth = spec.volume_grid.n_depth();
        let n_values = tile.scanlines() * n_depth;
        let single = spec.is_single_point_source();
        // A single transmit needs one nappe's block and one accumulator
        // per scanline; a compound sequence needs the per-voxel rows.
        let (block, n_acc, compound_row) = if single {
            (tile.scanlines() * active, tile.scanlines(), 0)
        } else {
            (0, 0, active)
        };
        let nearest = beamformer.interpolation == Interpolation::Nearest;
        let (lri, tx_weights) = if single {
            (Vec::new(), Vec::new())
        } else {
            // Compound sequence: stage each angle's low-resolution image
            // and precompute every transmit's per-voxel mask weight in
            // the `values` layout, so the warm accumulate never calls
            // back into geometry.
            let mut weights = vec![0.0; spec.n_transmits() * n_values];
            for tx in 0..spec.n_transmits() {
                let block = &mut weights[tx * n_values..(tx + 1) * n_values];
                for (slot, it, ip) in tile.iter_scanlines() {
                    for id in 0..n_depth {
                        let s = spec.volume_grid.position(VoxelIndex::new(it, ip, id));
                        block[slot * n_depth + id] = spec.transmit_weight(tx, s);
                    }
                }
            }
            (vec![0.0; n_values], weights)
        };
        TileState {
            slab: NappeDelays::for_tile(spec, tile),
            values: vec![0.0; n_values],
            delays: vec![0.0; active],
            index_block: vec![0; if nearest { block } else { 0 }],
            delay_block: vec![0.0; if nearest { 0 } else { block }],
            acc: vec![0.0; n_acc],
            indices: vec![0; compound_row],
            samples: vec![0.0; compound_row],
            tx_row: if single {
                Vec::new()
            } else {
                vec![0.0; spec.elements.count()]
            },
            lri,
            tx_weights,
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

/// Compacts one slab row down to the active aperture: `out[k] =
/// row[channels[k]]`. Skipped entirely when the aperture is full.
#[inline]
fn compact_row(row: &[f64], channels: &[u32], out: &mut [f64]) {
    for (o, &c) in out.iter_mut().zip(channels) {
        *o = row[c as usize];
    }
}

/// Channels the voxel-parallel kernels prefetch ahead of the one they
/// sum: far enough for a sample window 64 KB away to arrive, near enough
/// that it is still cached when its turn comes.
const PREFETCH_AHEAD: usize = 8;

/// Nearest-index read of one trace, bit-identical to
/// [`RfFrame::sample`]: out-of-window indices (negative ones wrap to huge
/// under the cast) read as `0.0`.
#[inline(always)]
fn read_nearest(trace: &[f64], i: i32) -> f64 {
    trace.get(i as usize).copied().unwrap_or(0.0)
}

/// Linearly interpolated read of one trace: the floor/blend arithmetic of
/// [`RfFrame::sample_interp`], with the same zero reads outside the
/// window.
#[inline(always)]
fn read_linear(trace: &[f64], t: f64) -> f64 {
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

/// The Eq. 1 accumulate of the compound kernels: `Σ_k w[k] · s[k]` over
/// one compacted sample row, unrolled in chunks of 8 multiply-accumulates.
/// One running accumulator keeps the addition order identical to the
/// scalar walk's per-element loop, so the chunking only removes
/// loop-control overhead.
#[inline]
fn weighted_sum(weights: &[f64], samples: &[f64]) -> f64 {
    debug_assert_eq!(weights.len(), samples.len());
    let mut acc = 0.0;
    let mut wc = weights.chunks_exact(8);
    let mut sc = samples.chunks_exact(8);
    for (w, s) in (&mut wc).zip(&mut sc) {
        acc += w[0] * s[0];
        acc += w[1] * s[1];
        acc += w[2] * s[2];
        acc += w[3] * s[3];
        acc += w[4] * s[4];
        acc += w[5] * s[5];
        acc += w[6] * s[6];
        acc += w[7] * s[7];
    }
    for (&w, &s) in wc.remainder().iter().zip(sc.remainder()) {
        acc += w * s;
    }
    acc
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
                Interpolation::Nearest => rf.sample(e, engine.delay_index(vox, e)),
                Interpolation::Linear => rf.sample_interp(e, engine.delay_samples(vox, e)),
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
            Interpolation::Nearest => rf.sample_for(tx, e, engine.delay_index_for(tx, vox, e)),
            Interpolation::Linear => {
                rf.sample_interp_for(tx, e, engine.delay_samples_for(tx, vox, e))
            }
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
    /// A single transmit runs the voxel-parallel kernel, split by
    /// interpolation mode into two monomorphized loops chosen **once per
    /// tile**: per nappe, one [`DelayEngine::quantize_row`] (or
    /// fractional-delay copy) per scanline fills the state's
    /// `[scanline][active]` block, then the aperture is walked one
    /// channel at a time, each channel's sample adding into one
    /// accumulator per scanline. A compound sequence runs the per-voxel
    /// compound kernels (gather a sample row, then one sequential
    /// multiply-accumulate). Either way every voxel's sum starts at
    /// `0.0` and adds its `w·s` terms in ascending aperture order, so the
    /// output is bit-identical to the scalar
    /// [`beamform_voxel`](Self::beamform_voxel) walk, and engines'
    /// rounding telemetry (TABLESTEER clamp counts) advances exactly as
    /// the per-element path would.
    ///
    /// # Panics
    ///
    /// Panics if `state` was built for a different spec, aperture or
    /// interpolation, or (for a compound sequence) if the engine or RF
    /// frame does not carry every transmit of the spec's sequence.
    pub fn beamform_tile_into(
        &self,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        state: &mut TileState,
    ) {
        let tile = state.slab.tile();
        let n_depth = self.spec.volume_grid.n_depth();
        assert_eq!(
            state.values.len(),
            tile.scanlines() * n_depth,
            "values buffer must cover the tile"
        );
        assert_eq!(
            state.delays.len(),
            self.aperture.len(),
            "scratch rows must match the compacted aperture"
        );
        let TileState {
            slab,
            values,
            delays,
            index_block,
            delay_block,
            acc,
            indices,
            samples,
            tx_row,
            lri,
            tx_weights,
            post_scratch,
        } = state;
        if self.spec.is_single_point_source() {
            // The classic single-emission path: beamform straight into
            // the staging buffer.
            let block_len = match self.interpolation {
                Interpolation::Nearest => index_block.len(),
                Interpolation::Linear => delay_block.len(),
            };
            assert_eq!(
                block_len,
                tile.scanlines() * self.aperture.len(),
                "tile state must be built for this beamformer's interpolation"
            );
            match self.interpolation {
                Interpolation::Nearest => {
                    self.tile_block_nearest(engine, rf, slab, values, delays, index_block, acc)
                }
                Interpolation::Linear => {
                    self.tile_block_linear(engine, rf, slab, values, delay_block, acc)
                }
            }
        } else {
            // Coherent compounding: beamform each transmit's
            // low-resolution image into the staging buffer and
            // mask-weight it into the accumulator. The zero-weight skip
            // is a correctness requirement, not an optimization: outside
            // a steered wave's footprint the LRI value is meaningless
            // (and may be non-finite under hostile inputs), so it must
            // never enter the arithmetic — `0.0 * NaN` is NaN.
            let n_tx = self.spec.n_transmits();
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
            values.fill(0.0);
            let n_values = values.len();
            if engine.supports_factored_fill() {
                // Factored compound loop: the transmit-invariant receive
                // leg is generated ONCE per (nappe, tile) via
                // `fill_nappe_rx_streamed`, and each transmit only adds
                // its per-voxel scalar term onto the cached row —
                // per-angle delay-generation cost drops from
                // O(N·elements) to O(elements + N) per voxel. Per-voxel
                // accumulation stays transmit-ascending, so the output is
                // bit-identical to the fused per-transmit loop below.
                match self.interpolation {
                    Interpolation::Nearest => self.tile_compound_factored_nearest(
                        engine, rf, n_tx, slab, values, tx_row, delays, indices, samples,
                        tx_weights,
                    ),
                    Interpolation::Linear => self.tile_compound_factored_linear(
                        engine, rf, n_tx, slab, values, tx_row, delays, samples, tx_weights,
                    ),
                }
            } else {
                // Fused fallback, for engines without a separable receive
                // leg: one full per-transmit slab fill per nappe, each row
                // summed into that transmit's low-resolution image.
                for tx in 0..n_tx {
                    for id in 0..n_depth {
                        engine.fill_nappe_streamed_for(tx, id, slab, &mut |slot, row| {
                            let active = self.active_row(row, delays);
                            lri[slot * n_depth + id] = match self.interpolation {
                                Interpolation::Nearest => {
                                    engine.quantize_row(active, indices);
                                    self.sum_nearest(rf, tx, indices, samples)
                                }
                                Interpolation::Linear => self.sum_linear(rf, tx, active, samples),
                            };
                        });
                    }
                    let mask = &tx_weights[tx * n_values..(tx + 1) * n_values];
                    for ((v, &l), &m) in values.iter_mut().zip(lri.iter()).zip(mask) {
                        if m != 0.0 {
                            *v += m * l;
                        }
                    }
                }
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

    /// The single-transmit nearest-index kernel, voxel-parallel per
    /// nappe.
    ///
    /// 1. Rows arrive through [`DelayEngine::fill_nappe_streamed_for`]
    ///    (so engines with a batched fill hand each row over cache-hot);
    ///    each is compacted to the active aperture and quantized by one
    ///    [`DelayEngine::quantize_row`] call straight into its scanline's
    ///    row of `block` — the engine's own final rounding stage, so
    ///    rounding telemetry (TABLESTEER's clamp counter) advances
    ///    exactly as it does for per-element queries.
    /// 2. The aperture is walked channel by channel: channel `k` adds
    ///    `w[k] · trace_k[block[slot][k]]` into `acc[slot]` for every
    ///    scanline of the tile. Per voxel that is the scalar walk's
    ///    ascending-order sum from `0.0`, so the output is bit-identical
    ///    to it; across voxels the tile's accumulators are independent
    ///    chains, and one channel's lookups stay inside a short window
    ///    of one trace. `block` is read with a stride of one row rather
    ///    than transposed into a channel-major copy, whose scattered
    ///    writes would be a second pass over the block every nappe.
    /// 3. Before channel `k`, the window channel `k + 8` will read — from
    ///    its first scanline's index to its last's — is prefetched, so
    ///    the trace 64 KB away is in flight while this channel sums.
    #[allow(clippy::too_many_arguments)]
    fn tile_block_nearest(
        &self,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        slab: &mut NappeDelays,
        out: &mut [f64],
        delays: &mut [f64],
        block: &mut [i32],
        acc: &mut [f64],
    ) {
        let n_depth = self.spec.volume_grid.n_depth();
        let channels = self.aperture.channels();
        let weights = self.aperture.weights();
        let active = channels.len();
        let last_row = block.len() - active;
        for id in 0..n_depth {
            engine.fill_nappe_streamed_for(0, id, slab, &mut |slot, row| {
                let indices = &mut block[slot * active..(slot + 1) * active];
                engine.quantize_row(self.active_row(row, delays), indices);
            });
            acc.fill(0.0);
            for (k, (&chan, &w)) in channels.iter().zip(weights).enumerate() {
                if let Some(&ahead) = channels.get(k + PREFETCH_AHEAD) {
                    let j = k + PREFETCH_AHEAD;
                    rf.prefetch_window_for(0, ahead, block[j], block[last_row + j]);
                }
                let trace = rf.channel_trace_for(0, chan);
                for (a, &i) in acc.iter_mut().zip(block[k..].iter().step_by(active)) {
                    *a += w * read_nearest(trace, i);
                }
            }
            for (slot, &a) in acc.iter().enumerate() {
                out[slot * n_depth + id] = a;
            }
        }
    }

    /// The single-transmit linear-interpolation kernel: the
    /// voxel-parallel loop of [`tile_block_nearest`](Self::tile_block_nearest)
    /// over a block of compacted fractional delays. No quantization
    /// stage — each row is copied (or compacted) into the block and the
    /// channel walk interpolates straight from it.
    fn tile_block_linear(
        &self,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        slab: &mut NappeDelays,
        out: &mut [f64],
        block: &mut [f64],
        acc: &mut [f64],
    ) {
        let n_depth = self.spec.volume_grid.n_depth();
        let channels = self.aperture.channels();
        let weights = self.aperture.weights();
        let full = self.aperture.is_full();
        let active = channels.len();
        let last_row = block.len() - active;
        for id in 0..n_depth {
            engine.fill_nappe_streamed_for(0, id, slab, &mut |slot, row| {
                let delays = &mut block[slot * active..(slot + 1) * active];
                if full {
                    delays.copy_from_slice(row);
                } else {
                    compact_row(row, channels, delays);
                }
            });
            acc.fill(0.0);
            for (k, (&chan, &w)) in channels.iter().zip(weights).enumerate() {
                if let Some(&ahead) = channels.get(k + PREFETCH_AHEAD) {
                    let j = k + PREFETCH_AHEAD;
                    rf.prefetch_window_for(0, ahead, block[j] as i32, block[last_row + j] as i32);
                }
                let trace = rf.channel_trace_for(0, chan);
                for (a, &t) in acc.iter_mut().zip(block[k..].iter().step_by(active)) {
                    *a += w * read_linear(trace, t);
                }
            }
            for (slot, &a) in acc.iter().enumerate() {
                out[slot * n_depth + id] = a;
            }
        }
    }

    /// The active-aperture view of a full element row: the row itself
    /// when the aperture is full, else its compaction into `scratch`.
    #[inline]
    fn active_row<'a>(&self, row: &'a [f64], scratch: &'a mut [f64]) -> &'a [f64] {
        if self.aperture.is_full() {
            row
        } else {
            compact_row(row, self.aperture.channels(), scratch);
            scratch
        }
    }

    /// One compound voxel's nearest-index sum: gathers transmit `tx`'s
    /// samples at the quantized `indices` and reduces them against the
    /// aperture weights.
    #[inline]
    fn sum_nearest(&self, rf: &RfFrame, tx: usize, indices: &[i32], samples: &mut [f64]) -> f64 {
        rf.gather_nearest_into_for(tx, self.aperture.channels(), indices, samples);
        weighted_sum(self.aperture.weights(), samples)
    }

    /// One compound voxel's linear-interpolation sum over the compacted
    /// fractional `delays` of transmit `tx`.
    #[inline]
    fn sum_linear(&self, rf: &RfFrame, tx: usize, delays: &[f64], samples: &mut [f64]) -> f64 {
        rf.gather_linear_into_for(tx, self.aperture.channels(), delays, samples);
        weighted_sum(self.aperture.weights(), samples)
    }

    /// The factored compound nearest-index kernel: one receive-leg slab
    /// fill per nappe ([`DelayEngine::fill_nappe_rx_streamed`]), then per
    /// voxel an inner transmit loop that combines the cached row with
    /// each transmit's per-voxel term ([`DelayEngine::combine_tx_row`])
    /// and runs the usual compact → quantize → gather → MAC stages.
    ///
    /// Masked transmits are where the factored kernel earns its keep on
    /// steered fans: a zero mask weight contributes nothing to the sum,
    /// so when the engine's rounding stage is side-effect-free
    /// ([`DelayEngine::rounding_telemetry`] is `false`) the whole
    /// per-transmit body is skipped — bit-identical output, and no
    /// telemetry exists to diverge. Engines **with** rounding telemetry
    /// (TABLESTEER's clamp counter) still combine and quantize every
    /// (voxel, transmit) pair, because the fused per-transmit kernel
    /// quantizes masked pairs too and the counters must advance
    /// identically on both paths; only the gather/MAC/accumulate is
    /// skipped on a zero mask weight there (same non-finite-poisoning
    /// guard as the fused accumulate).
    #[allow(clippy::too_many_arguments)]
    fn tile_compound_factored_nearest(
        &self,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        n_tx: usize,
        slab: &mut NappeDelays,
        values: &mut [f64],
        tx_row: &mut [f64],
        delays: &mut [f64],
        indices: &mut [i32],
        samples: &mut [f64],
        tx_weights: &[f64],
    ) {
        let tile = slab.tile();
        let n_depth = self.spec.volume_grid.n_depth();
        let n_values = values.len();
        let skip_masked = !engine.rounding_telemetry();
        for id in 0..n_depth {
            engine.fill_nappe_rx_streamed(id, slab, &mut |slot, rx_row| {
                let (it, ip) = tile.scanline_at(slot);
                let vox = VoxelIndex::new(it, ip, id);
                for tx in 0..n_tx {
                    let m = tx_weights[tx * n_values + slot * n_depth + id];
                    if skip_masked && m == 0.0 {
                        continue;
                    }
                    engine.combine_tx_row(tx, vox, rx_row, tx_row);
                    engine.quantize_row(self.active_row(tx_row, delays), indices);
                    if m != 0.0 {
                        values[slot * n_depth + id] +=
                            m * self.sum_nearest(rf, tx, indices, samples);
                    }
                }
            });
        }
    }

    /// The factored compound linear-interpolation kernel: one receive-leg
    /// slab fill per nappe, per-voxel transmit combines feeding the
    /// fractional-delay gather directly (no quantization stage, so no
    /// rounding telemetry advances and the whole per-transmit body can be
    /// skipped on a zero mask weight).
    #[allow(clippy::too_many_arguments)]
    fn tile_compound_factored_linear(
        &self,
        engine: &dyn DelayEngine,
        rf: &RfFrame,
        n_tx: usize,
        slab: &mut NappeDelays,
        values: &mut [f64],
        tx_row: &mut [f64],
        delays: &mut [f64],
        samples: &mut [f64],
        tx_weights: &[f64],
    ) {
        let tile = slab.tile();
        let n_depth = self.spec.volume_grid.n_depth();
        let n_values = values.len();
        for id in 0..n_depth {
            engine.fill_nappe_rx_streamed(id, slab, &mut |slot, rx_row| {
                let (it, ip) = tile.scanline_at(slot);
                let vox = VoxelIndex::new(it, ip, id);
                for tx in 0..n_tx {
                    let m = tx_weights[tx * n_values + slot * n_depth + id];
                    if m == 0.0 {
                        continue;
                    }
                    engine.combine_tx_row(tx, vox, rx_row, tx_row);
                    let active = self.active_row(tx_row, delays);
                    values[slot * n_depth + id] += m * self.sum_linear(rf, tx, active, samples);
                }
            });
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
    fn factored_compound_path_is_bit_identical_to_fused_path() {
        // The tentpole invariant: routing the compound loop through
        // fill_nappe_rx_streamed + combine_tx_row must reproduce the
        // fused per-transmit kernel exactly. `FusedOnly` hides the
        // factored family, forcing the fallback loop on the same engine.
        let (spec, rf) = compound_setup();
        let exact = ExactEngine::new(&spec);
        let steer = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        for interp in [Interpolation::Nearest, Interpolation::Linear] {
            for engine in [&exact as &dyn usbf_core::DelayEngine, &steer] {
                assert!(engine.supports_factored_fill());
                let bf = Beamformer::new(&spec).with_interpolation(interp);
                let schedule = usbf_core::NappeSchedule::fitted(&spec, 4);
                let factored = bf.beamform_volume_tiled(engine, &rf, &schedule);
                let fused = match engine.name() {
                    "EXACT" => bf.beamform_volume_tiled(
                        &usbf_core::FusedOnly(exact.clone()),
                        &rf,
                        &schedule,
                    ),
                    _ => bf.beamform_volume_tiled(
                        &usbf_core::FusedOnly(steer.clone()),
                        &rf,
                        &schedule,
                    ),
                };
                assert_eq!(factored, fused, "{} {interp:?}", engine.name());
            }
        }
    }

    #[test]
    fn factored_compound_path_preserves_clamp_telemetry() {
        // The factored nearest kernel must quantize every transmit's
        // combined row — masked ones included — exactly like the fused
        // kernel does, so TABLESTEER's clamp counter advances
        // identically on both paths. A wide aperture on the tiny grid
        // (same trick as the single-source telemetry test) steers corner
        // fetches out of the echo window so clamps actually happen.
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
            // corners); the plane waves ride along as the compound part.
            let mut txs = vec![usbf_geometry::TransmitModel::PointSource];
            txs.extend(usbf_geometry::TransmitModel::plane_wave_fan(
                3,
                usbf_geometry::deg(10.0),
            ));
            txs
        });
        let rf = RfFrame::zeros_multi(100, 100, spec.echo_buffer_len(), spec.n_transmits());
        let factored_engine = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        let fused_engine = usbf_core::FusedOnly(factored_engine.clone()); // fresh zeroed counter
        let bf = Beamformer::new(&spec).with_apodization(crate::Apodization::Rect);
        let schedule = usbf_core::NappeSchedule::fitted(&spec, 2);
        bf.beamform_volume_tiled(&factored_engine, &rf, &schedule);
        bf.beamform_volume_tiled(&fused_engine, &rf, &schedule);
        assert!(
            factored_engine.clamp_events() > 0,
            "setup must actually clamp"
        );
        assert_eq!(
            factored_engine.clamp_events(),
            fused_engine.0.clamp_events()
        );
    }

    #[test]
    fn factored_compound_path_matches_scalar_reference() {
        // End-to-end: the factored batched volume equals the per-voxel
        // scalar compound walk (which reaches the same numbers through
        // delay_index_for / delay_samples_for, never the row family).
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
