//! TABLESTEER: reference delay table plus fixed-point steering (§V, Fig. 4).

use crate::engine::{emit_passes, emit_rows_f64, RUN_PASS};
use crate::{DelayEngine, EngineError, NappeDelays};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use usbf_fixed::{Fixed, FixedError, QFormat, RoundingMode};
use usbf_geometry::{ElementIndex, SystemSpec, TransmitModel, VoxelIndex};
use usbf_tables::{fold_coord, ReferenceTable, SteeringTables};

/// Folds an element coordinate into the stored quadrant: identity when the
/// table is unfolded (`q == n`), otherwise the tables crate's own
/// [`fold_coord`] — the single source of truth for the storage fold.
#[inline]
fn fold(i: usize, n: usize, q: usize) -> usize {
    if q == n {
        i // unfolded storage
    } else {
        fold_coord(i, n)
    }
}

/// Fixed-point configuration of the TABLESTEER datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableSteerConfig {
    /// Format of the stored reference delays.
    pub reference_format: QFormat,
    /// Format of the stored steering corrections.
    pub correction_format: QFormat,
}

impl TableSteerConfig {
    /// The 18-bit design of §V-B: unsigned 13.5 reference, signed 13.4
    /// corrections (Table II row TABLESTEER-18b).
    pub fn bits18() -> Self {
        TableSteerConfig {
            reference_format: QFormat::REF_18,
            correction_format: QFormat::CORR_18,
        }
    }

    /// The 14-bit design (Table II row TABLESTEER-14b): unsigned 13.1
    /// reference, signed 13.0 corrections.
    pub fn bits14() -> Self {
        TableSteerConfig {
            reference_format: QFormat::REF_14,
            correction_format: QFormat::CORR_14,
        }
    }

    /// The §VI-A "13 bit integers" baseline: integer reference delays with
    /// 13.4 corrections.
    pub fn int13() -> Self {
        TableSteerConfig {
            reference_format: QFormat::INT_13,
            correction_format: QFormat::CORR_18,
        }
    }

    /// Word width of the reference storage (what the BRAM banks hold).
    pub fn reference_word_bits(&self) -> u32 {
        self.reference_format.total_bits()
    }
}

/// The Fig. 4 block structure: one BRAM bank per block streaming reference
/// delays; per cycle each block applies all permutations of
/// `x_per_cycle` θ-corrections and `y_per_cycle` φ-corrections to one
/// reference sample, emitting `x·y` steered delays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteerBlockSpec {
    /// Number of replicated blocks (also BRAM banks).
    pub n_blocks: usize,
    /// First-stage corrections applied per cycle (8 in the paper).
    pub x_per_cycle: usize,
    /// Second-stage corrections applied per cycle (16 in the paper).
    pub y_per_cycle: usize,
}

impl SteerBlockSpec {
    /// The paper's design point: 128 blocks × (8 × 16) corrections.
    pub fn paper() -> Self {
        SteerBlockSpec {
            n_blocks: 128,
            x_per_cycle: 8,
            y_per_cycle: 16,
        }
    }

    /// Steered delay samples produced per cycle per block
    /// (8 × 16 = 128 in the paper).
    pub fn points_per_cycle_per_block(&self) -> usize {
        self.x_per_cycle * self.y_per_cycle
    }

    /// Adders per block: `x + x·y` ("8 + 16×8 = 136 adders per block").
    pub fn adders_per_block(&self) -> usize {
        self.x_per_cycle + self.points_per_cycle_per_block()
    }

    /// Adders that also perform final rounding ("of which 128 must also
    /// perform rounding to integer").
    pub fn rounding_adders_per_block(&self) -> usize {
        self.points_per_cycle_per_block()
    }

    /// Aggregate throughput in delays/s at a clock frequency
    /// ("a peak throughput of 3.3 Tdelays/s at 200 MHz").
    pub fn delays_per_second(&self, clock_hz: f64) -> f64 {
        self.n_blocks as f64 * self.points_per_cycle_per_block() as f64 * clock_hz
    }

    /// Achievable volume rate for a spec at a clock frequency.
    pub fn frame_rate(&self, clock_hz: f64, spec: &SystemSpec) -> f64 {
        self.delays_per_second(clock_hz) / spec.naive_table_entries() as f64
    }
}

impl Default for SteerBlockSpec {
    fn default() -> Self {
        Self::paper()
    }
}

/// The table-steering delay engine: folded reference table + Eq. 7
/// correction planes, summed in fixed point and rounded to the echo-buffer
/// index.
///
/// ```
/// use usbf_core::{DelayEngine, TableSteerEngine, TableSteerConfig};
/// use usbf_geometry::SystemSpec;
/// let spec = SystemSpec::tiny();
/// let eng = TableSteerEngine::new(&spec, TableSteerConfig::bits18())?;
/// assert_eq!(eng.name(), "TABLESTEER");
/// # Ok::<(), usbf_core::EngineError>(())
/// ```
#[derive(Debug)]
pub struct TableSteerEngine {
    spec: SystemSpec,
    config: TableSteerConfig,
    reference: ReferenceTable,
    steering: SteeringTables,
    /// Quantized reference delays, same layout as iterating
    /// `(id, iy, ix)` over the *unfolded* grid would see via the fold.
    ref_fixed: Vec<Fixed>,
    /// Quadrant fold of every element column / row (identity when the
    /// table is unfolded), resolved once at construction.
    fold_x: Vec<usize>,
    fold_y: Vec<usize>,
    /// Quantized y-corrections for every `(φ line, element row)` pair,
    /// indexed `ip · ny + iy`. Depth- and θ-independent, so built once.
    cy_fixed: Vec<Fixed>,
    /// Quantized x-corrections, the raw integers of the correction
    /// format, for every `(θ line, folded φ line, element column)`,
    /// indexed `(it · ⌈nφ/2⌉ + fold(ip)) · nx + ix` — one contiguous
    /// register row per scanline, folded in φ like [`SteeringTables`]
    /// (the x-term is even in φ). Depth-independent, so built once; the
    /// scalar query, the receive-leg fill and the emit all read them.
    cx_fixed: Vec<i32>,
    /// The batched fills' wide-add chain, derived once from the formats.
    chain: SumChain,
    echo_len: usize,
    clamp_events: AtomicU64,
}

/// The raw-integer form of the scalar `ref + cx + cy + Δtx` wide-add
/// chain: every operand of a batched path shares the same three formats,
/// so the alignment shifts of [`Fixed::wide_add`] and the output scale of
/// [`Fixed::to_f64`] are fixed per engine. With them, one element's raw
/// sum is `(r << (sh_r + sh_12)) + (cx << (sh_c1 + sh_12)) + (cy << sh_c2)
/// + (Δtx << sh_c2)` — the scalar chain's raw integers through the same
/// shifts (a shift distributes over an integer add), so the sums match
/// it exactly in any order. The delay is that sum times `res`, and since
/// `res` is `2^-frac`, the rounded index `floor(sum · res + ½)` is
/// `(sum + half) >> frac` with `half = 2^frac >> 1`, bit for bit.
///
/// The emit adds those raw integers in `i32` lanes, so the chain requires
/// the final sum format `f3` to be at most 32 bits wide. Then every
/// partial sum, in any order, and the rounding's `+ half` stay inside
/// `i32`: with `M` the widest operand's integer bits and `F` the fraction
/// bits, `f3` is `M + F + 4` bits and the four operands and `half` add
/// to less than `4.5 · 2^(M+F)`, a quarter of `2^32`. [`SumChain::new`]
/// rejects wider formats, and with them the engine. The receive-leg fill
/// runs the same adds on integer-valued `f64`s, exact far past that.
#[derive(Debug, Clone, Copy)]
struct SumChain {
    /// Reference → `f1 = ref + cx` alignment.
    sh_r: u32,
    /// Correction → `f1` alignment.
    sh_c1: u32,
    /// `f1` → `f2 = f1 + cy` alignment.
    sh_12: u32,
    /// Correction → `f2` alignment. `f3 = f2 + Δtx` shares `f2`'s
    /// fraction bits (both cy and Δtx carry the correction format), so
    /// the last add, the transmit combine's, reuses this shift.
    sh_c2: u32,
    /// Resolution of the final sum format `f3`, `2^-frac`.
    res: f64,
    /// Fraction bits of `f3`: the rounding shift.
    frac: u32,
}

/// Widest final sum format whose raw integers (and every partial sum on
/// the way to them) the emit's `i32` lanes hold.
const I32_LANE_BITS: u32 = i32::BITS;

impl SumChain {
    /// Derives the chain from the engine's formats.
    ///
    /// # Errors
    ///
    /// [`FixedError::Overflow`] naming `f3` when the final sum format is
    /// wider than 32 bits, the most the emit's `i32` lanes hold.
    fn new(config: &TableSteerConfig) -> Result<Self, FixedError> {
        let (r, c) = (config.reference_format, config.correction_format);
        let f1 = QFormat::sum_format(r, c);
        let f2 = QFormat::sum_format(f1, c);
        let f3 = QFormat::sum_format(f2, c);
        debug_assert_eq!(f3.frac_bits(), f2.frac_bits());
        if f3.total_bits() > I32_LANE_BITS {
            return Err(FixedError::Overflow { format: f3 });
        }
        Ok(SumChain {
            sh_r: f1.frac_bits() - r.frac_bits(),
            sh_c1: f1.frac_bits() - c.frac_bits(),
            sh_12: f2.frac_bits() - f1.frac_bits(),
            sh_c2: f2.frac_bits() - c.frac_bits(),
            res: f3.resolution(),
            frac: f3.frac_bits(),
        })
    }
}

impl Clone for TableSteerEngine {
    /// Clones the engine with a fresh (zeroed) clamp counter.
    fn clone(&self) -> Self {
        TableSteerEngine {
            spec: self.spec.clone(),
            config: self.config,
            reference: self.reference.clone(),
            steering: self.steering.clone(),
            ref_fixed: self.ref_fixed.clone(),
            fold_x: self.fold_x.clone(),
            fold_y: self.fold_y.clone(),
            cy_fixed: self.cy_fixed.clone(),
            cx_fixed: self.cx_fixed.clone(),
            chain: self.chain,
            echo_len: self.echo_len,
            clamp_events: AtomicU64::new(0),
        }
    }
}

impl TableSteerEngine {
    /// Builds and quantizes both tables.
    ///
    /// # Errors
    ///
    /// Returns a fixed-point overflow error if a delay or correction does
    /// not fit the configured formats (e.g. a geometry whose delays exceed
    /// 13 integer bits), or if the formats' final sum is wider than the 32
    /// bits the emit adds in `i32` lanes.
    pub fn new(spec: &SystemSpec, config: TableSteerConfig) -> Result<Self, EngineError> {
        let chain = SumChain::new(&config)?;
        let reference = ReferenceTable::build(spec);
        let steering = SteeringTables::build(spec);
        // Quantize the folded reference storage once; indexed through the
        // same fold as the float table.
        let (qx, qy) = reference.quadrant_dims();
        let n_depth = reference.n_depth();
        let mut ref_fixed = Vec::with_capacity(qx * qy * n_depth);
        for id in 0..n_depth {
            for &v in reference.slice(id) {
                ref_fixed.push(Fixed::from_f64(
                    v,
                    config.reference_format,
                    RoundingMode::Nearest,
                )?);
            }
        }
        // Depth-independent state for the batched fill path: quadrant
        // fold of every element coordinate and the quantized
        // y-correction registers per (φ line, element row).
        let nx = spec.elements.nx();
        let ny = spec.elements.ny();
        let fold_x: Vec<usize> = (0..nx).map(|ix| fold(ix, nx, qx)).collect();
        let fold_y: Vec<usize> = (0..ny).map(|iy| fold(iy, ny, qy)).collect();
        let fmt = config.correction_format;
        let quantize = |x: f64| Fixed::saturating_from_f64(-x, fmt, RoundingMode::Nearest);
        let (n_theta, n_phi) = (spec.volume_grid.n_theta(), spec.volume_grid.n_phi());
        let cy_fixed = (0..n_phi)
            .flat_map(|ip| (0..ny).map(move |iy| (iy, ip)))
            .map(|(iy, ip)| quantize(steering.y_term_samples(iy, ip)))
            .collect();
        // `n_phi / 2 + ipf` is the fold's representative φ line, so
        // `fold_coord(ip)` reads the register of every line it folds to.
        let cx_fixed = (0..n_theta)
            .flat_map(|it| (0..n_phi.div_ceil(2)).map(move |ipf| (it, n_phi / 2 + ipf)))
            .flat_map(|(it, ip)| (0..nx).map(move |ix| (ix, it, ip)))
            .map(|(ix, it, ip)| {
                let raw = quantize(steering.x_term_samples(ix, it, ip)).raw();
                i32::try_from(raw).expect("a correction register fits the i32 lanes")
            })
            .collect();
        Ok(TableSteerEngine {
            spec: spec.clone(),
            config,
            reference,
            steering,
            ref_fixed,
            fold_x,
            fold_y,
            cy_fixed,
            cx_fixed,
            chain,
            echo_len: spec.echo_buffer_len(),
            clamp_events: AtomicU64::new(0),
        })
    }

    /// The engine's fixed-point configuration.
    pub fn config(&self) -> &TableSteerConfig {
        &self.config
    }

    /// The underlying (float) reference table.
    pub fn reference(&self) -> &ReferenceTable {
        &self.reference
    }

    /// The underlying (float) steering tables.
    pub fn steering(&self) -> &SteeringTables {
        &self.steering
    }

    /// The Fig. 4 block structure appropriate for this spec (paper layout).
    pub fn block_spec(&self) -> SteerBlockSpec {
        SteerBlockSpec::paper()
    }

    /// Algorithmic-only delay (double-precision reference + correction):
    /// isolates the Taylor steering error from fixed-point effects.
    pub fn float_delay_samples(&self, vox: VoxelIndex, e: ElementIndex) -> f64 {
        self.reference.delay_samples(vox.id, e) + self.steering.correction_samples(vox, e)
    }

    /// Times the final index clamped against the echo-buffer bounds
    /// (observability for out-of-window fetches at extreme geometry).
    pub fn clamp_events(&self) -> u64 {
        self.clamp_events.load(Ordering::Relaxed)
    }

    /// Storage of both quantized tables in bits `(reference, corrections)`.
    pub fn storage_bits(&self) -> (u64, u64) {
        let ref_bits =
            self.ref_fixed.len() as u64 * self.config.reference_format.total_bits() as u64;
        let corr_bits = self.steering.coefficient_count() as u64
            * self.config.correction_format.total_bits() as u64;
        (ref_bits, corr_bits)
    }

    #[inline]
    fn ref_fixed_at(&self, id: usize, e: ElementIndex) -> Fixed {
        // Recover the folded linear index via the cached quadrant fold of
        // each element coordinate (matches the float table's fold).
        let (qx, qy) = self.reference.quadrant_dims();
        self.ref_fixed[(id * qy + self.fold_y[e.iy]) * qx + self.fold_x[e.ix]]
    }

    /// Scanline `(it, ip)`'s x-correction registers, one per element
    /// column, as raw integers of the correction format.
    #[inline]
    fn cx_row(&self, it: usize, ip: usize) -> &[i32] {
        let nx = self.spec.elements.nx();
        let n_phi = self.spec.volume_grid.n_phi();
        let row = it * n_phi.div_ceil(2) + fold_coord(ip, n_phi);
        &self.cx_fixed[row * nx..(row + 1) * nx]
    }

    /// The two quantized correction terms for a query, as the hardware
    /// registers hold them.
    fn corrections_fixed(&self, vox: VoxelIndex, e: ElementIndex) -> (Fixed, Fixed) {
        let fmt = self.config.correction_format;
        let cx = i64::from(self.cx_row(vox.it, vox.ip)[e.ix]);
        (
            Fixed::from_raw(cx, fmt).expect("a stored register fits its format"),
            self.cy_fixed[vox.ip * self.spec.elements.ny() + e.iy],
        )
    }

    /// The quantized transmit-model correction for transmit `tx` at focal
    /// point `vox`: the difference (in samples) between the configured
    /// transmit leg and the point-source leg `|S − O|` the steered
    /// reference table already approximates. Element-independent — one
    /// more correction register per scanline in the Fig. 4 datapath —
    /// and **exactly zero** for point sources (`d − d = 0` quantizes to
    /// raw 0), which keeps the historical single-transmit output
    /// bit-identical.
    #[inline]
    fn dtx_fixed(&self, tx: usize, vox: VoxelIndex) -> Fixed {
        let s = self.spec.volume_grid.position(vox);
        let delta = self
            .spec
            .metres_to_samples(self.spec.transmit_distance(tx, s) - s.distance(self.spec.origin));
        Fixed::saturating_from_f64(delta, self.config.correction_format, RoundingMode::Nearest)
    }

    /// The quantized transmit corrections of transmit `tx` at each focal
    /// point of `voxels`, pre-shifted into the sum chain's raw units —
    /// `Δtx_raw << sh_c2`, the last addend of the raw sum — in one pass
    /// with the transmit model resolved once. A point source's correction
    /// is exactly zero (see [`dtx_fixed`](Self::dtx_fixed)); a plane
    /// wave's is `dtx_fixed`'s arithmetic per row, written as `i32`s for
    /// the emit's adders or as `f64`s for the shared rounding loop.
    fn dtx_terms<T: From<i32> + Copy>(&self, tx: usize, voxels: &[VoxelIndex], out: &mut [T]) {
        let TransmitModel::PlaneWave(pw) = &self.spec.transmits[tx] else {
            out.fill(T::from(0));
            return;
        };
        let (grid, o, n) = (&self.spec.volume_grid, self.spec.origin, pw.normal());
        let fmt = self.config.correction_format;
        let sh = self.chain.sh_c2;
        for (t, &v) in out.iter_mut().zip(voxels) {
            let s = grid.position(v);
            let delta = self.spec.metres_to_samples(n.dot(s) - s.distance(o));
            // In range: `f3` fits the i32 lanes (`SumChain::new`).
            let raw = Fixed::saturating_from_f64(delta, fmt, RoundingMode::Nearest).raw();
            *t = T::from((raw << sh) as i32);
        }
    }

    /// The set-up both batched paths share: unfolds nappe `nappe_idx`'s
    /// folded reference slice into `refs`, one register per element in
    /// linear order, pre-shifted into the raw sum's units
    /// (`r << (sh_r + sh_12)`) — the nappe's BRAM stream.
    fn stage_reference(&self, nappe_idx: usize, refs: &mut [i32]) {
        let (qx, qy) = self.reference.quadrant_dims();
        let nx = self.spec.elements.nx();
        let shift = self.chain.sh_r + self.chain.sh_12;
        let slice = &self.ref_fixed[nappe_idx * qy * qx..(nappe_idx + 1) * qy * qx];
        for (ref_row, &fy) in refs.chunks_exact_mut(nx).zip(&self.fold_y) {
            let folded = &slice[fy * qx..(fy + 1) * qx];
            for (r, &fx) in ref_row.iter_mut().zip(&self.fold_x) {
                // In range: `f3` fits the i32 lanes (`SumChain::new`).
                *r = (folded[fx].raw() << shift) as i32;
            }
        }
    }

    /// The receive-leg rows of nappe `nappe_idx` over `out`'s tile (see
    /// [`fill_nappe_rx`](DelayEngine::fill_nappe_rx)), each compacted to
    /// the entries of `runs` while it is hot.
    fn receive_rows(&self, nappe_idx: usize, runs: &[Range<usize>], out: &mut NappeDelays) {
        let tile = out.tile();
        let n_elements = out.n_elements();
        let nx = self.spec.elements.nx();
        let ny = self.spec.elements.ny();
        let SumChain {
            sh_c1,
            sh_12,
            sh_c2,
            ..
        } = self.chain;
        let bufs = out.begin_fill_scratch(nappe_idx);
        self.stage_reference(nappe_idx, &mut bufs.row_raw[..n_elements]);
        let refs = &mut bufs.row_args[..n_elements];
        for (r, &raw) in refs.iter_mut().zip(&*bufs.row_raw) {
            *r = f64::from(raw);
        }
        let cx = &mut bufs.row_regs[..nx];
        let rows = bufs.samples.chunks_exact_mut(n_elements);
        for ((_, it, ip), row) in tile.iter_scanlines().zip(rows) {
            for (c, &raw) in cx.iter_mut().zip(self.cx_row(it, ip)) {
                *c = f64::from(raw << (sh_c1 + sh_12));
            }
            let cy_col = &self.cy_fixed[ip * ny..(ip + 1) * ny];
            for ((chunk, ref_row), cy) in row
                .chunks_exact_mut(nx)
                .zip(refs.chunks_exact(nx))
                .zip(cy_col)
            {
                let row_const = (cy.raw() << sh_c2) as f64;
                for ((value, &r), &c) in chunk.iter_mut().zip(ref_row).zip(&*cx) {
                    *value = (r + c) + row_const;
                }
            }
            crate::engine::compact_row(row, runs);
        }
    }

    /// Adds one call's clamps to the counter: one atomic add per row or
    /// run, none for a call without clamps.
    #[inline]
    fn publish_clamps(&self, clamps: u64) {
        if clamps > 0 {
            self.clamp_events.fetch_add(clamps, Ordering::Relaxed);
        }
    }
}

impl DelayEngine for TableSteerEngine {
    fn name(&self) -> &'static str {
        "TABLESTEER"
    }

    fn echo_buffer_len(&self) -> usize {
        self.echo_len
    }

    fn transmit_count(&self) -> usize {
        self.spec.n_transmits()
    }

    /// Scalar fixed-point chain `ref + cx + cy + Δtx`. The transmit
    /// correction shares the correction format, so the fourth `wide_add`
    /// widens by one integer bit but keeps the resolution — for point
    /// sources (Δtx raw = 0) it leaves the three-term sum unchanged.
    fn delay_samples(&self, tx: usize, vox: VoxelIndex, e: ElementIndex) -> f64 {
        let r = self.ref_fixed_at(vox.id, e);
        let (cx, cy) = self.corrections_fixed(vox, e);
        r.wide_add(cx)
            .wide_add(cy)
            .wide_add(self.dtx_fixed(tx, vox))
            .to_f64()
    }

    /// Final rounding with clamp telemetry: both the scalar `delay_index`
    /// and the batched beamformer route through this, so `clamp_events`
    /// counts out-of-window fetches on every path.
    fn delay_index_from(&self, samples: f64) -> i64 {
        let idx = (samples + 0.5).floor() as i64;
        let clamped = idx.clamp(0, self.echo_len as i64 - 1);
        if clamped != idx {
            self.clamp_events.fetch_add(1, Ordering::Relaxed);
        }
        clamped
    }

    /// Batched rounding with batched clamp telemetry: the row's clamp
    /// count is accumulated locally and published with **one** atomic
    /// add, so a row of N elements costs one `fetch_add` instead of up
    /// to N — while `clamp_events` advances by exactly what N
    /// per-element `delay_index_from` calls would have added.
    fn quantize_row(&self, row: &[f64], out: &mut [i32]) {
        self.publish_clamps(crate::engine::quantize_row_clamped(
            self.echo_len,
            row,
            out,
            |x| x,
        ));
    }

    /// Receive-leg fill: the `ref + cx + cy` chain as **pre-scale raw**
    /// sums (engine-defined intermediates, not delays); Δtx and the final
    /// scale are the row methods' work. A compound's emit set-up stages
    /// these rows, compacted ([`DelayEngine::begin_emit`]); a single
    /// transmit's stages the reference row alone.
    ///
    /// The nappe's reference row is staged as for the emit, in the slab's
    /// `row_raw`, and each element is `(ref + cx) + (cy << sh_c2)` from
    /// the engine's correction registers, added as packed `f64`s:
    /// integer-valued `f64`s below 2⁵³ add exactly, so every sum equals
    /// the scalar chain's integer sum.
    fn fill_nappe_rx(&self, nappe_idx: usize, out: &mut NappeDelays) {
        let all = 0..out.n_elements();
        self.receive_rows(nappe_idx, std::slice::from_ref(&all), out);
    }

    /// Transmit combine: adds the pre-shifted raw transmit correction and
    /// applies the final scale — `(rx_raw + Δtx_raw) · res`. Bit-identical
    /// to the scalar chain because both addends are integer-valued `f64`s
    /// below 2⁵³ (a precondition checked at construction), so the float
    /// add reproduces the raw i64 add exactly, and the closing multiply
    /// is the identical operation on the identical value.
    fn combine_tx_row(&self, tx: usize, vox: VoxelIndex, rx_row: &[f64], out: &mut [f64]) {
        assert_eq!(rx_row.len(), out.len(), "combine row length mismatch");
        let mut dtx = [0.0];
        self.dtx_terms(tx, &[vox], &mut dtx);
        let (dtx, res) = (dtx[0], self.chain.res);
        for (o, &rx) in out.iter_mut().zip(rx_row) {
            *o = (rx + dtx) * res;
        }
    }

    /// The emit's set-up. A single transmit's emit reads the nappe's
    /// reference row, unfolded into the slab's integer registers, and
    /// the engine's correction registers, and touches no `f64` row. With
    /// several transmits the receive leg serves all of them, so it is
    /// staged once: the receive-leg rows, each compacted to the active
    /// `runs`.
    fn begin_emit(&self, nappe_idx: usize, runs: &[Range<usize>], slab: &mut NappeDelays) {
        if self.transmit_count() > 1 {
            self.receive_rows(nappe_idx, runs, slab);
        } else {
            self.stage_reference(nappe_idx, slab.begin_fill_scratch(nappe_idx).row_raw);
        }
    }

    /// Fig. 4 in software: the run's Δtx registers in one pass, then per
    /// piece of an active run — its share of one element row — one pass
    /// of raw `i32` adders per row,
    /// `((ref + cx + cy + Δtx + half) >> frac).clamp(0, len − 1)`: the
    /// reference row the set-up staged, each scanline's x-correction
    /// registers and one `cy + Δtx + half` constant per (row, piece). The
    /// pieces are the outer loop and the rows the inner one, so a piece's
    /// bookkeeping is paid once per pass of rows. No float conversion and
    /// no stored delay. With several transmits each row's staged receive
    /// sums take the shared rounding loop instead, `(rx + Δtx) · res`, one
    /// contiguous row per voxel: 16 plane waves on 8 × 8 elements, whose
    /// active pieces are 6 entries long, ran at 1.3× the volume rate of
    /// adding the whole chain per transmit (2-vCPU x86-64-v3 host).
    /// Either way the call's clamps are published with one atomic add.
    fn emit_run(
        &self,
        tx: usize,
        slab: &NappeDelays,
        slots: Range<usize>,
        runs: &[Range<usize>],
        out: &mut [i32],
    ) {
        if self.transmit_count() > 1 {
            let terms = |voxels: &[VoxelIndex], t: &mut [f64]| self.dtx_terms(tx, voxels, t);
            let res = self.chain.res;
            let combine = move |dtx, rx| (rx + dtx) * res;
            let clamps = emit_rows_f64(self.echo_len, slab, slots, runs, out, terms, combine);
            self.publish_clamps(clamps);
            return;
        }
        let nx = self.spec.elements.nx();
        let ny = self.spec.elements.ny();
        let n_phi = self.spec.volume_grid.n_phi();
        let SumChain {
            sh_c1,
            sh_12,
            sh_c2,
            frac,
            ..
        } = self.chain;
        let sh_cx = sh_c1 + sh_12;
        let hi = i32::try_from(self.echo_len - 1).expect("echo buffer too long for i32 indices");
        let half = (1i32 << frac) >> 1;
        let refs = slab.row_raw();
        let terms = |voxels: &[VoxelIndex], t: &mut [i32]| self.dtx_terms(tx, voxels, t);
        let rows = |voxels: &[VoxelIndex], dtx: &[i32], _, width, out: &mut [i32]| {
            // Per row, where its x-correction registers start and its
            // y-correction column.
            let mut cx_at = [0; RUN_PASS];
            let mut cy_at = [0; RUN_PASS];
            for ((x, y), v) in cx_at.iter_mut().zip(&mut cy_at).zip(voxels) {
                *x = (v.it * n_phi.div_ceil(2) + fold_coord(v.ip, n_phi)) * nx;
                *y = v.ip * ny;
            }
            let mut flags = [0; LANES];
            let mut k = 0;
            for (j, iy, len) in pieces(runs, nx) {
                let (ix, refs) = (j - iy * nx, &refs[j..j + len]);
                let rows = out.chunks_exact_mut(width).zip(dtx);
                for ((row, &dtx), (&cx, &cy)) in rows.zip(cx_at.iter().zip(&cy_at)) {
                    // In range: `f3` fits the i32 lanes (`SumChain::new`).
                    let c = (self.cy_fixed[cy + iy].raw() << sh_c2) as i32 + dtx + half;
                    let adder = |re: i32, x: i32| {
                        let idx = (re + (x << sh_cx) + c) >> frac;
                        let z = idx.clamp(0, hi);
                        (z, u32::from(z != idx))
                    };
                    // Whole passes of `LANES` adders, then the rest one
                    // by one.
                    let cx = &self.cx_fixed[cx + ix..cx + ix + len];
                    let (outs, out_rest) = row[k..k + len].as_chunks_mut::<LANES>();
                    let (res, re_rest) = refs.as_chunks::<LANES>();
                    let (cs, c_rest) = cx.as_chunks::<LANES>();
                    for (o, (re, x)) in outs.iter_mut().zip(res.iter().zip(cs)) {
                        for i in 0..LANES {
                            let clamped;
                            (o[i], clamped) = adder(re[i], x[i]);
                            flags[i] += clamped;
                        }
                    }
                    let rest = re_rest.iter().zip(c_rest);
                    for (o, (&re, &x)) in out_rest.iter_mut().zip(rest) {
                        let clamped;
                        (*o, clamped) = adder(re, x);
                        flags[0] += clamped;
                    }
                }
                k += len;
            }
            flags.iter().map(|&f| u64::from(f)).sum()
        };
        let clamps = emit_passes(slab, slots, runs, out, terms, rows);
        self.publish_clamps(clamps);
    }
}

/// Lanes of one pass of the emit's rounding adders: eight `i32`
/// indices, one `ymm` of them on x86-64-v3.
const LANES: usize = 8;

/// The pieces of `runs` on an aperture `nx` elements wide: each run cut
/// at the ends of element rows, as `(first element, element row,
/// length)`, in run order.
fn pieces(runs: &[Range<usize>], nx: usize) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
    runs.iter().flat_map(move |run| {
        (run.start / nx..run.end.div_ceil(nx)).map(move |iy| {
            let first = run.start.max(iy * nx);
            (first, iy, run.end.min((iy + 1) * nx) - first)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactEngine;
    use usbf_tables::error::theoretical_bound_seconds;

    fn engines() -> (SystemSpec, TableSteerEngine, ExactEngine) {
        let spec = SystemSpec::tiny();
        let ts = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        let ex = ExactEngine::new(&spec);
        (spec, ts, ex)
    }

    #[test]
    fn fixed_path_tracks_float_path_within_quantization() {
        let (spec, ts, _) = engines();
        let lsb_r = TableSteerConfig::bits18().reference_format.resolution();
        let lsb_c = TableSteerConfig::bits18().correction_format.resolution();
        let bound = lsb_r / 2.0 + lsb_c; // ref + two corrections, ½ LSB each
        for i in (0..spec.volume_grid.voxel_count()).step_by(5) {
            let vox = spec.volume_grid.voxel_at(i);
            for e in spec.elements.iter() {
                let d = (ts.delay_samples(0, vox, e) - ts.float_delay_samples(vox, e)).abs();
                assert!(d <= bound + 1e-12, "{vox} {e}: {d}");
            }
        }
    }

    #[test]
    fn error_against_exact_below_theoretical_bound() {
        let (spec, ts, ex) = engines();
        let bound = spec.seconds_to_samples(theoretical_bound_seconds(&spec)) + 1.0;
        for i in (0..spec.volume_grid.voxel_count()).step_by(3) {
            let vox = spec.volume_grid.voxel_at(i);
            for e in spec.elements.iter() {
                let d = (ts.delay_samples(0, vox, e) - ex.delay_samples(0, vox, e)).abs();
                assert!(d <= bound, "{vox} {e}: {d} > {bound}");
            }
        }
    }

    #[test]
    fn exact_on_reference_scanline_of_odd_grid() {
        let base = SystemSpec::tiny();
        let spec = SystemSpec::new(
            base.speed_of_sound,
            base.sampling_frequency,
            base.transducer.clone(),
            usbf_geometry::VolumeSpec {
                n_theta: 9,
                n_phi: 9,
                ..base.volume.clone()
            },
            base.origin,
            base.frame_rate,
        );
        let ts = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        let ex = ExactEngine::new(&spec);
        for id in 0..spec.volume_grid.n_depth() {
            let vox = VoxelIndex::new(4, 4, id);
            for e in spec.elements.iter() {
                let d = (ts.delay_samples(0, vox, e) - ex.delay_samples(0, vox, e)).abs();
                // Only quantization remains on the unsteered line.
                assert!(d <= 0.05, "{vox} {e}: {d}");
            }
        }
    }

    #[test]
    fn bits14_is_coarser_than_bits18() {
        let spec = SystemSpec::tiny();
        let e18 = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        let e14 = TableSteerEngine::new(&spec, TableSteerConfig::bits14()).unwrap();
        let (mut q18, mut q14) = (0.0, 0.0);
        for i in (0..spec.volume_grid.voxel_count()).step_by(7) {
            let vox = spec.volume_grid.voxel_at(i);
            for e in spec.elements.iter() {
                q18 += (e18.delay_samples(0, vox, e) - e18.float_delay_samples(vox, e)).abs();
                q14 += (e14.delay_samples(0, vox, e) - e14.float_delay_samples(vox, e)).abs();
            }
        }
        assert!(
            q14 > q18,
            "14-bit quantization error {q14} should exceed 18-bit {q18}"
        );
    }

    #[test]
    fn storage_bits_match_budget_arithmetic() {
        let (spec, ts, _) = engines();
        let (ref_bits, corr_bits) = ts.storage_bits();
        let budget = usbf_tables::TableBudget::for_spec(&spec, 18, 18);
        assert_eq!(ref_bits, budget.reference_bits);
        assert_eq!(corr_bits, budget.correction_bits);
    }

    #[test]
    fn block_spec_matches_paper_figures() {
        let b = SteerBlockSpec::paper();
        assert_eq!(b.points_per_cycle_per_block(), 128);
        assert_eq!(b.adders_per_block(), 136);
        assert_eq!(b.rounding_adders_per_block(), 128);
        // 3.3 Tdelays/s at 200 MHz.
        assert!((b.delays_per_second(200.0e6) / 1e12 - 3.28).abs() < 0.01);
        // ~20 fps at paper scale.
        let fps = b.frame_rate(200.0e6, &SystemSpec::paper());
        assert!((fps - 20.0).abs() < 0.5, "fps = {fps}");
    }

    #[test]
    fn clamp_counter_flags_only_extreme_steering() {
        let (spec, ts, _) = engines();
        let v = &spec.volume_grid;
        // Central quarter of the steering fan: delays stay inside the
        // nominal echo window — no clamping.
        for it in v.n_theta() / 4..3 * v.n_theta() / 4 {
            for ip in v.n_phi() / 4..3 * v.n_phi() / 4 {
                for id in (0..v.n_depth()).step_by(3) {
                    for e in spec.elements.iter() {
                        let _ = ts.delay_index(0, VoxelIndex::new(it, ip, id), e);
                    }
                }
            }
        }
        assert_eq!(ts.clamp_events(), 0);
        // With the paper's full 100×100 aperture, extreme corner steering
        // at full depth exceeds even the 8192-sample window (those pairs
        // lie outside element directivity; the beamformer clamps and
        // apodization zeroes them).
        let base = SystemSpec::tiny();
        let wide = SystemSpec::new(
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
        let ts = TableSteerEngine::new(&wide, TableSteerConfig::bits18()).unwrap();
        let vw = &wide.volume_grid;
        for e in wide.elements.iter() {
            let _ = ts.delay_index(0, VoxelIndex::new(0, 0, vw.n_depth() - 1), e);
        }
        assert!(ts.clamp_events() > 0);
    }

    #[test]
    fn fill_nappe_bit_exact_with_scalar_path() {
        let (spec, ts, _) = engines();
        let mut batched = NappeDelays::full(&spec);
        let mut scalar = NappeDelays::full(&spec);
        for id in 0..spec.volume_grid.n_depth() {
            ts.fill_nappe(id, &mut batched);
            scalar.fill_scalar(&ts, 0, id);
            for (a, b) in batched.samples().iter().zip(scalar.samples()) {
                assert_eq!(a.to_bits(), b.to_bits(), "nappe {id}");
            }
        }
    }

    #[test]
    fn fill_nappe_bit_exact_on_unfolded_table() {
        // Off-axis origin disables quadrant folding; the batched fold maps
        // must degenerate to identity.
        let base = SystemSpec::tiny();
        let spec = SystemSpec::new(
            base.speed_of_sound,
            base.sampling_frequency,
            base.transducer.clone(),
            base.volume.clone(),
            usbf_geometry::Vec3::new(1.0e-3, -0.5e-3, 0.0),
            base.frame_rate,
        );
        let ts = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        assert!(!ts.reference().is_folded());
        let mut batched = NappeDelays::full(&spec);
        let mut scalar = NappeDelays::full(&spec);
        ts.fill_nappe(7, &mut batched);
        scalar.fill_scalar(&ts, 0, 7);
        assert_eq!(batched, scalar);
    }

    #[test]
    fn fill_nappe_tile_matches_scalar_queries() {
        let (spec, ts, _) = engines();
        let tile = crate::Tile {
            theta_start: 1,
            theta_end: 5,
            phi_start: 2,
            phi_end: 6,
        };
        let mut slab = NappeDelays::for_tile(&spec, tile);
        ts.fill_nappe(3, &mut slab);
        for (_, it, ip) in slab.scanlines() {
            for e in spec.elements.iter() {
                let vox = VoxelIndex::new(it, ip, 3);
                assert_eq!(
                    slab.at(it, ip, e).to_bits(),
                    ts.delay_samples(0, vox, e).to_bits()
                );
            }
        }
    }

    #[test]
    fn plane_wave_fill_bit_exact_with_scalar_path() {
        // A single steered wave: transmit 0's combine adds a nonzero
        // Δtx to the receive leg.
        let spec =
            SystemSpec::tiny().with_transmits(vec![usbf_geometry::TransmitModel::plane_wave(
                usbf_geometry::deg(8.0),
                0.0,
            )]);
        let ts = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        let mut batched = NappeDelays::full(&spec);
        let mut scalar = NappeDelays::full(&spec);
        for id in [0, 7, 15] {
            ts.fill_nappe(id, &mut batched);
            scalar.fill_scalar(&ts, 0, id);
            for (a, b) in batched.samples().iter().zip(scalar.samples()) {
                assert_eq!(a.to_bits(), b.to_bits(), "nappe {id}");
            }
        }
    }

    #[test]
    fn point_source_transmit_keeps_historical_bits() {
        // A multi-transmit engine whose transmit 0 is the point source
        // must serve it bit-identical to the single-transmit engine: the
        // Δtx register is exactly zero there.
        let single = SystemSpec::tiny();
        let multi = SystemSpec::tiny().with_transmits(vec![
            usbf_geometry::TransmitModel::PointSource,
            usbf_geometry::TransmitModel::plane_wave(usbf_geometry::deg(5.0), 0.0),
        ]);
        let ts1 = TableSteerEngine::new(&single, TableSteerConfig::bits18()).unwrap();
        let ts2 = TableSteerEngine::new(&multi, TableSteerConfig::bits18()).unwrap();
        for i in (0..single.volume_grid.voxel_count()).step_by(11) {
            let vox = single.volume_grid.voxel_at(i);
            for e in single.elements.iter() {
                assert_eq!(
                    ts1.delay_samples(0, vox, e).to_bits(),
                    ts2.delay_samples(0, vox, e).to_bits()
                );
            }
        }
    }

    #[test]
    fn plane_wave_steers_the_transmit_leg() {
        // At a steered scanline aligned with the wave normal the
        // plane-wave delay must undercut the point-source delay (the
        // projection n̂·S < |S|) by roughly r(1 − cos∠).
        let spec = SystemSpec::tiny().with_transmits(vec![
            usbf_geometry::TransmitModel::PointSource,
            usbf_geometry::TransmitModel::plane_wave(usbf_geometry::deg(20.0), 0.0),
        ]);
        let ts = TableSteerEngine::new(&spec, TableSteerConfig::bits18()).unwrap();
        let vox = VoxelIndex::new(0, 4, 10); // steered off-normal scanline
        let e = spec.elements.center_element();
        let ps = ts.delay_samples(0, vox, e);
        let pw = ts.delay_samples(1, vox, e);
        assert!(pw < ps, "plane wave {pw} !< point source {ps}");
    }

    #[test]
    fn rx_fill_plus_combine_bit_identical_to_scalar_per_transmit() {
        // All three fixed-point configurations, mixed transmit models —
        // the raw-integer argument behind the combine must hold for every
        // format pair.
        let spec = SystemSpec::tiny().with_transmits(vec![
            usbf_geometry::TransmitModel::PointSource,
            usbf_geometry::TransmitModel::plane_wave(usbf_geometry::deg(7.0), 0.0),
            usbf_geometry::TransmitModel::plane_wave(0.0, usbf_geometry::deg(-7.0)),
        ]);
        for config in [
            TableSteerConfig::bits18(),
            TableSteerConfig::bits14(),
            TableSteerConfig::int13(),
        ] {
            let ts = TableSteerEngine::new(&spec, config).unwrap();
            crate::engine::assert_rx_combine_matches_scalar(&ts, &spec, &[0, 9, 15]);
        }
    }

    #[test]
    fn sum_formats_wider_than_f64_mantissa_are_rejected() {
        // The emit adds raw integers in i32 lanes, exact only while the
        // final sum format `f3` is at most 32 bits wide. Reference u24.4
        // + three s13.4 corrections sums into s27.4 (32 bits, the widest
        // accepted); one more reference integer bit gives s28.4.
        let spec = SystemSpec::tiny();
        let config = |int_bits| TableSteerConfig {
            reference_format: QFormat::unsigned(int_bits, 4),
            correction_format: QFormat::CORR_18,
        };
        let widest = TableSteerEngine::new(&spec, config(24)).expect("32-bit sum builds");
        let mut batched = NappeDelays::full(&spec);
        let mut scalar = NappeDelays::full(&spec);
        widest.fill_nappe(9, &mut batched);
        scalar.fill_scalar(&widest, 0, 9);
        assert_eq!(batched, scalar);
        crate::engine::assert_rx_combine_matches_scalar(&widest, &spec, &[9]);
        for int_bits in [25, 46, 54] {
            let err = TableSteerEngine::new(&spec, config(int_bits)).unwrap_err();
            let f3 = QFormat::signed(int_bits + 3, 4);
            assert_eq!(
                err,
                EngineError::Fixed(FixedError::Overflow { format: f3 }),
                "u{int_bits}.4 reference"
            );
        }
    }

    #[test]
    fn quantized_tables_are_the_exp2_scaled_roundings() {
        // `Fixed::from_f64` and `saturating_from_f64` scale by a power of
        // two built from exponent bits rather than libm `exp2`: every
        // stored reference delay and y-correction register must still be
        // the raw integer the `exp2` scaling rounds to, for all three
        // configurations, folded and unfolded.
        let base = SystemSpec::tiny();
        let off_axis = SystemSpec::new(
            base.speed_of_sound,
            base.sampling_frequency,
            base.transducer.clone(),
            base.volume.clone(),
            usbf_geometry::Vec3::new(1.0e-3, -0.5e-3, 0.0),
            base.frame_rate,
        );
        for spec in [SystemSpec::tiny(), off_axis, SystemSpec::reduced()] {
            for config in [
                TableSteerConfig::bits18(),
                TableSteerConfig::bits14(),
                TableSteerConfig::int13(),
            ] {
                let ts = TableSteerEngine::new(&spec, config).unwrap();
                let scaled = |x: f64, fmt: QFormat| x * (fmt.frac_bits() as f64).exp2();
                let reference = (0..ts.reference.n_depth()).flat_map(|id| ts.reference.slice(id));
                let fmt = config.reference_format;
                assert_eq!(ts.ref_fixed.len(), reference.clone().count());
                for (q, &v) in ts.ref_fixed.iter().zip(reference) {
                    assert_eq!(q.raw(), scaled(v, fmt).round() as i64, "reference {v}");
                }
                let fmt = config.correction_format;
                let ny = spec.elements.ny();
                for (i, q) in ts.cy_fixed.iter().enumerate() {
                    let v = -ts.steering.y_term_samples(i % ny, i / ny);
                    let raw = (scaled(v, fmt).round() as i64).clamp(fmt.min_raw(), fmt.max_raw());
                    assert_eq!(q.raw(), raw, "y-correction {v}");
                }
                let v = &spec.volume_grid;
                for (it, ip, ix) in (0..v.n_theta())
                    .flat_map(|it| (0..v.n_phi()).map(move |ip| (it, ip)))
                    .flat_map(|(it, ip)| (0..spec.elements.nx()).map(move |ix| (it, ip, ix)))
                {
                    let x = -ts.steering.x_term_samples(ix, it, ip);
                    let raw = (scaled(x, fmt).round() as i64).clamp(fmt.min_raw(), fmt.max_raw());
                    assert_eq!(i64::from(ts.cx_row(it, ip)[ix]), raw, "x-correction {x}");
                }
            }
        }
    }

    #[test]
    fn int13_reference_quantizes_to_integers() {
        let spec = SystemSpec::tiny();
        let ts = TableSteerEngine::new(&spec, TableSteerConfig::int13()).unwrap();
        let vox = VoxelIndex::new(3, 3, 8);
        let e = ElementIndex::new(1, 1);
        // Reference contribution is integer; only corrections carry
        // fraction bits (1/16).
        let v = ts.delay_samples(0, vox, e);
        let frac = (v * 16.0).round() / 16.0;
        assert!((v - frac).abs() < 1e-12);
    }
}
