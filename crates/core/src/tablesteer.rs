//! TABLESTEER: reference delay table plus fixed-point steering (§V, Fig. 4).

use crate::{DelayEngine, EngineError, NappeDelays};
use std::sync::atomic::{AtomicU64, Ordering};
use usbf_fixed::{Fixed, FixedError, QFormat, RoundingMode};
use usbf_geometry::{ElementIndex, SystemSpec, VoxelIndex};
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
    /// The batched fills' wide-add chain, derived once from the formats.
    chain: SumChain,
    echo_len: usize,
    clamp_events: AtomicU64,
}

/// The raw-integer form of the scalar `ref + cx + cy + Δtx` wide-add
/// chain: every operand of a batched fill shares the same three formats,
/// so the alignment shifts of [`Fixed::wide_add`] and the output scale of
/// [`Fixed::to_f64`] are fixed per engine. With them, one element is
/// `((r << (sh_r + sh_12)) + (cx << (sh_c1 + sh_12)) + ((cy + Δtx) <<
/// sh_c2)) · res` — the scalar chain's raw integers through the same
/// shifts (a shift distributes over an integer add), so the final `f64`s
/// match it bit for bit.
///
/// The batched fills run those adds on integer-valued `f64`s rather than
/// `i64`s, which is exact only while every partial sum stays below 2⁵³ in
/// magnitude. The partial sums all fit the final sum format `f3`, so the
/// chain requires `f3` to be at most 53 bits wide; [`SumChain::new`]
/// rejects wider formats, and with them the engine.
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
    /// the last add needs no shift of its own and Δtx folds into the
    /// per-row constant alongside cy.
    sh_c2: u32,
    /// Resolution of the final sum format `f3`.
    res: f64,
}

/// Widest final sum format whose raw integers (and every partial sum on
/// the way to them) an `f64` holds exactly.
const F64_EXACT_BITS: u32 = f64::MANTISSA_DIGITS;

impl SumChain {
    /// Derives the chain from the engine's formats.
    ///
    /// # Errors
    ///
    /// [`FixedError::Overflow`] naming `f3` when the final sum format is
    /// wider than 53 bits, where integer-valued `f64` adds stop being
    /// exact.
    fn new(config: &TableSteerConfig) -> Result<Self, FixedError> {
        let (r, c) = (config.reference_format, config.correction_format);
        let f1 = QFormat::sum_format(r, c);
        let f2 = QFormat::sum_format(f1, c);
        let f3 = QFormat::sum_format(f2, c);
        debug_assert_eq!(f3.frac_bits(), f2.frac_bits());
        if f3.total_bits() > F64_EXACT_BITS {
            return Err(FixedError::Overflow { format: f3 });
        }
        Ok(SumChain {
            sh_r: f1.frac_bits() - r.frac_bits(),
            sh_c1: f1.frac_bits() - c.frac_bits(),
            sh_12: f2.frac_bits() - f1.frac_bits(),
            sh_c2: f2.frac_bits() - c.frac_bits(),
            res: f3.resolution(),
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
    /// 13 integer bits), or if the formats' final sum is wider than the 53
    /// bits the batched fills add exactly in `f64`.
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
        let n_phi = spec.volume_grid.n_phi();
        let mut cy_fixed = Vec::with_capacity(n_phi * ny);
        for ip in 0..n_phi {
            for iy in 0..ny {
                cy_fixed.push(Fixed::saturating_from_f64(
                    -steering.y_term_samples(iy, ip),
                    fmt,
                    RoundingMode::Nearest,
                ));
            }
        }
        Ok(TableSteerEngine {
            spec: spec.clone(),
            config,
            reference,
            steering,
            ref_fixed,
            fold_x,
            fold_y,
            cy_fixed,
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

    /// The two quantized correction terms for a query, as the hardware
    /// registers hold them.
    fn corrections_fixed(&self, vox: VoxelIndex, e: ElementIndex) -> (Fixed, Fixed) {
        let fmt = self.config.correction_format;
        let cx = -self.steering.x_term_samples(e.ix, vox.it, vox.ip);
        let cy = -self.steering.y_term_samples(e.iy, vox.ip);
        (
            Fixed::saturating_from_f64(cx, fmt, RoundingMode::Nearest),
            Fixed::saturating_from_f64(cy, fmt, RoundingMode::Nearest),
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

    /// The batched slab walk shared by both fills — the Fig. 4 schedule
    /// in software. Within one insonification the correction registers
    /// of a block never change: the quadrant fold maps and the quantized
    /// y-corrections are depth-independent and cached at construction,
    /// and the quantized x-corrections are built once per scanline
    /// **row** (`nx` conversions) instead of `2·nx·ny` float→fixed
    /// conversions per scanline; the reference BRAM is read as one
    /// nappe slice, exactly what the §V-B circular buffer streams.
    ///
    /// The chain runs as packed `f64` adds on the raw integers of
    /// [`SumChain`]. The nappe's folded reference slice is unfolded once
    /// per call into the slab's `row_args` scratch as `r << (sh_r +
    /// sh_12)`, and each scanline's x-corrections go into `row_regs` as
    /// `cx << (sh_c1 + sh_12)` (both preallocated with the slab, so a
    /// warm refill allocates nothing). One element is then
    /// `((ref + cx) + row_const) · scale`: integer-valued `f64`s below
    /// 2⁵³ add exactly, so every sum equals the scalar chain's `i64` sum
    /// and the closing multiply is the scalar chain's `raw as f64 · res`.
    ///
    /// With `with_tx` (the fused transmit-0 fill), transmit 0's Δtx — a
    /// per-scanline constant at a fixed nappe depth — folds into the
    /// per-row constant alongside the y-correction, so the fourth add of
    /// the scalar chain costs **nothing** in the inner loop, and each raw
    /// sum is scaled to samples. Without it (the receive-leg fill) the
    /// rows hold the **pre-scale raw** sums (engine-defined
    /// intermediates, not delays): Δtx and the scale move into
    /// [`combine_tx_row`](DelayEngine::combine_tx_row).
    fn fill_rows(
        &self,
        nappe_idx: usize,
        out: &mut NappeDelays,
        with_tx: bool,
        consume: &mut dyn FnMut(usize, &[f64]),
    ) {
        let tile = out.tile();
        let n_elements = out.n_elements();
        let (qx, qy) = self.reference.quadrant_dims();
        let nx = self.spec.elements.nx();
        let ny = self.spec.elements.ny();
        let fmt = self.config.correction_format;
        let SumChain {
            sh_r,
            sh_c1,
            sh_12,
            sh_c2,
            res,
        } = self.chain;
        let scale = if with_tx { res } else { 1.0 };
        let ref_slice = &self.ref_fixed[nappe_idx * qy * qx..(nappe_idx + 1) * qy * qx];
        let bufs = out.begin_fill_scratch(nappe_idx);
        let buf = bufs.samples;
        let refs = &mut bufs.row_args[..n_elements];
        for (ref_row, &fy) in refs.chunks_exact_mut(nx).zip(&self.fold_y) {
            let folded = &ref_slice[fy * qx..(fy + 1) * qx];
            for (r, &fx) in ref_row.iter_mut().zip(&self.fold_x) {
                *r = (folded[fx].raw() << (sh_r + sh_12)) as f64;
            }
        }
        let cx = &mut bufs.row_regs[..nx];
        for (slot, it, ip) in tile.iter_scanlines() {
            for (ix, c) in cx.iter_mut().enumerate() {
                let raw = Fixed::saturating_from_f64(
                    -self.steering.x_term_samples(ix, it, ip),
                    fmt,
                    RoundingMode::Nearest,
                )
                .raw();
                *c = (raw << (sh_c1 + sh_12)) as f64;
            }
            let dtx = if with_tx {
                self.dtx_fixed(0, VoxelIndex::new(it, ip, nappe_idx)).raw() << sh_c2
            } else {
                0
            };
            let cy_col = &self.cy_fixed[ip * ny..(ip + 1) * ny];
            let row = &mut buf[slot * n_elements..(slot + 1) * n_elements];
            for ((chunk, ref_row), cy) in row
                .chunks_exact_mut(nx)
                .zip(refs.chunks_exact(nx))
                .zip(cy_col)
            {
                let row_const = ((cy.raw() << sh_c2) + dtx) as f64;
                for ((value, &r), &c) in chunk.iter_mut().zip(ref_row).zip(&*cx) {
                    *value = ((r + c) + row_const) * scale;
                }
            }
            consume(slot, row);
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
        let clamps = crate::engine::quantize_row_clamped(self.echo_len, row, out);
        if clamps > 0 {
            self.clamp_events.fetch_add(clamps, Ordering::Relaxed);
        }
    }

    /// TABLESTEER's rounding stage publishes clamp telemetry
    /// ([`TableSteerEngine::clamp_events`]), so the tile kernel keeps
    /// quantizing masked rows to count their clamps.
    fn rounding_telemetry(&self) -> bool {
        true
    }

    /// Batched fused fill of transmit 0 (see the shared slab walk behind
    /// both fills). Bit-exact with the scalar path by construction
    /// (`fill_nappe_bit_exact_*` tests).
    fn fill_nappe_streamed(
        &self,
        nappe_idx: usize,
        out: &mut NappeDelays,
        consume: &mut dyn FnMut(usize, &[f64]),
    ) {
        self.fill_rows(nappe_idx, out, true, consume);
    }

    /// Receive-leg fill: TABLESTEER's datapath **already factors** the
    /// transmit term, so the rx pass is the fused `r + cx + cy` raw chain
    /// with Δtx and the final scale left to the combine.
    fn fill_nappe_rx(&self, nappe_idx: usize, out: &mut NappeDelays) {
        self.fill_rows(nappe_idx, out, false, &mut |_, _| {});
    }

    /// Transmit combine: adds the pre-shifted raw transmit correction and
    /// applies the final scale — `(rx_raw + Δtx_raw) · res`. Bit-identical
    /// to the scalar chain because both addends are integer-valued `f64`s
    /// below 2⁵³ (a precondition checked at construction),
    /// so the float add reproduces the raw i64 add exactly, and the
    /// closing multiply is the identical operation on the identical
    /// value.
    fn combine_tx_row(&self, tx: usize, vox: VoxelIndex, rx_row: &[f64], out: &mut [f64]) {
        assert_eq!(rx_row.len(), out.len(), "combine row length mismatch");
        let SumChain { sh_c2, res, .. } = self.chain;
        let dtx = (self.dtx_fixed(tx, vox).raw() << sh_c2) as f64;
        for (o, &rx) in out.iter_mut().zip(rx_row) {
            *o = (rx + dtx) * res;
        }
    }
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
    fn quantization_reports_rounding_telemetry() {
        // TABLESTEER is the one engine whose rounding stage has an
        // observable counter; the flag is what keeps the tile kernel from
        // skipping masked quantizations (and their clamp counts).
        let (_, ts, ex) = engines();
        assert!(ts.rounding_telemetry());
        assert!(!ex.rounding_telemetry());
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
        // A single steered wave: the fused transmit-0 fill folds a
        // nonzero Δtx into the row constant.
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
        // The batched fills add raw integers as f64s, exact only while
        // the final sum format `f3` is at most 53 bits wide. Reference
        // u45.4 + three s13.4 corrections sums into s48.4 (53 bits, the
        // widest accepted); one more reference integer bit gives s49.4.
        let spec = SystemSpec::tiny();
        let config = |int_bits| TableSteerConfig {
            reference_format: QFormat::unsigned(int_bits, 4),
            correction_format: QFormat::CORR_18,
        };
        let widest = TableSteerEngine::new(&spec, config(45)).expect("53-bit sum builds");
        let mut batched = NappeDelays::full(&spec);
        let mut scalar = NappeDelays::full(&spec);
        widest.fill_nappe(9, &mut batched);
        scalar.fill_scalar(&widest, 0, 9);
        assert_eq!(batched, scalar);
        for int_bits in [46, 50, 54] {
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
