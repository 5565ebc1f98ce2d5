//! TABLEFREE: on-the-fly delay computation (§IV, Fig. 2).

use crate::{DelayEngine, EngineError, NappeDelays};
use std::sync::atomic::{AtomicU64, Ordering};
use usbf_geometry::scan::ScanOrder;
use usbf_geometry::{ElementIndex, SystemSpec, TransmitModel, VoxelIndex};
use usbf_pwl::{LutFormats, PwlApprox, QuantizedPwl, SqrtFn, TrackerStats, TrackingEvaluator};

/// Configuration of the TABLEFREE engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableFreeConfig {
    /// Maximum PWL square-root error in samples (the paper's δ = 0.25,
    /// chosen so the delay-selection error stays within ±1 sample).
    pub delta: f64,
    /// Coefficient-LUT formats; `None` picks formats fitted to the table
    /// ([`LutFormats::fitted_to`]).
    pub lut_formats: Option<LutFormats>,
    /// Evaluate the transmit square root exactly instead of through the
    /// PWL (ablation: §IV notes the first square root "is comparatively
    /// much less critical"; the paper's error analysis still sums two
    /// approximations, which is the default here).
    pub exact_transmit: bool,
}

impl TableFreeConfig {
    /// The paper's operating point: δ = 0.25, fitted LUT formats, both
    /// square roots approximated.
    pub fn paper() -> Self {
        TableFreeConfig {
            delta: 0.25,
            lut_formats: None,
            exact_transmit: false,
        }
    }

    /// Same as [`TableFreeConfig::paper`] but with a custom δ.
    pub fn with_delta(delta: f64) -> Self {
        TableFreeConfig {
            delta,
            ..Self::paper()
        }
    }
}

impl Default for TableFreeConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The table-free delay engine: delays are never stored; each query
/// assembles the squared transmit/receive distances (two additions per
/// element thanks to per-row/column reuse) and pushes them through a
/// piecewise-linear square root evaluated from quantized coefficient LUTs.
///
/// ```
/// use usbf_core::{DelayEngine, TableFreeEngine, TableFreeConfig};
/// use usbf_geometry::SystemSpec;
/// let spec = SystemSpec::tiny();
/// let eng = TableFreeEngine::new(&spec, TableFreeConfig::paper())?;
/// // ~70 segments at paper scale; fewer for the tiny test geometry.
/// assert!(eng.segment_count() > 10);
/// # Ok::<(), usbf_core::EngineError>(())
/// ```
#[derive(Debug)]
pub struct TableFreeEngine {
    spec: SystemSpec,
    config: TableFreeConfig,
    pwl: PwlApprox,
    quant: QuantizedPwl,
    /// Element x positions by column (`ix`) and y positions by row
    /// (`iy`): the grid is separable, so the batched fill squares each
    /// column's and each row's distance once per scanline.
    elem_x: Vec<f64>,
    elem_y: Vec<f64>,
    echo_len: usize,
    samples_per_metre: f64,
    sqrt_evals: AtomicU64,
}

impl Clone for TableFreeEngine {
    /// Clones the engine with a fresh (zeroed) op counter.
    fn clone(&self) -> Self {
        TableFreeEngine {
            spec: self.spec.clone(),
            config: self.config,
            pwl: self.pwl.clone(),
            quant: self.quant.clone(),
            elem_x: self.elem_x.clone(),
            elem_y: self.elem_y.clone(),
            echo_len: self.echo_len,
            samples_per_metre: self.samples_per_metre,
            sqrt_evals: AtomicU64::new(0),
        }
    }
}

impl TableFreeEngine {
    /// Builds the PWL table for the spec's distance range and quantizes
    /// the coefficient LUTs.
    ///
    /// # Errors
    ///
    /// Propagates PWL-construction and coefficient-quantization failures.
    pub fn new(spec: &SystemSpec, config: TableFreeConfig) -> Result<Self, EngineError> {
        let (lo, hi) = Self::sqrt_domain(spec);
        let pwl = PwlApprox::build(&SqrtFn, (lo, hi), config.delta)?;
        let formats = config
            .lut_formats
            .unwrap_or_else(|| LutFormats::fitted_to(&pwl));
        let quant = QuantizedPwl::quantize(&pwl, formats)?;
        Ok(TableFreeEngine {
            elem_x: (0..spec.elements.nx())
                .map(|ix| spec.elements.position(ElementIndex::new(ix, 0)).x)
                .collect(),
            elem_y: (0..spec.elements.ny())
                .map(|iy| spec.elements.position(ElementIndex::new(0, iy)).y)
                .collect(),
            spec: spec.clone(),
            config,
            pwl,
            quant,
            echo_len: spec.echo_buffer_len(),
            samples_per_metre: spec.sampling_frequency / spec.speed_of_sound,
            sqrt_evals: AtomicU64::new(0),
        })
    }

    /// The squared-distance domain (in samples²) the PWL table must cover:
    /// from half the shallowest possible one-way path (the first focal
    /// depth, foreshortened by extreme steering) to the longest one-way
    /// path, with a small safety margin.
    pub fn sqrt_domain(spec: &SystemSpec) -> (f64, f64) {
        let v = &spec.volume_grid;
        let z_min = v.depth_of(0) * v.theta_max().cos() * v.phi_max().cos();
        let lo_samples = 0.5 * spec.metres_to_samples(z_min);
        let hi_samples = spec.max_one_way_delay_samples() * 1.01;
        ((lo_samples * lo_samples).max(0.25), hi_samples * hi_samples)
    }

    /// Number of PWL segments (the paper finds ~70 for δ = 0.25 at Table I
    /// scale).
    pub fn segment_count(&self) -> usize {
        self.pwl.segment_count()
    }

    /// The underlying float-coefficient PWL table.
    pub fn pwl(&self) -> &PwlApprox {
        &self.pwl
    }

    /// The quantized coefficient LUTs.
    pub fn quantized(&self) -> &QuantizedPwl {
        &self.quant
    }

    /// The engine's configuration.
    pub fn config(&self) -> &TableFreeConfig {
        &self.config
    }

    /// The system spec the engine was built for.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Transmit squared distance in samples² — the PWL argument of the
    /// first square root, shared by every element of a focal point.
    #[inline]
    pub fn tx_alpha(&self, vox: VoxelIndex) -> f64 {
        let s = self.spec.volume_grid.position(vox);
        let o = self.spec.origin;
        let dx = (s.x - o.x) * self.samples_per_metre;
        let dy = (s.y - o.y) * self.samples_per_metre;
        let dz = (s.z - o.z) * self.samples_per_metre;
        dx * dx + dy * dy + dz * dz
    }

    /// Number of square-root evaluations performed so far (op counter).
    pub fn sqrt_evals(&self) -> u64 {
        self.sqrt_evals.load(Ordering::Relaxed)
    }

    /// Per-element datapath cost of one delay: **2 additions** (assembling
    /// the squared receive distance from per-row/column partial sums) and
    /// **1 PWL square root** (1 multiplier + 1 adder + LUTs). This is the
    /// §IV-B claim; the transmit term amortizes over all N elements.
    pub fn ops_per_element() -> (u64, u64) {
        (2, 1)
    }

    #[inline]
    fn sqrt_approx(&self, alpha: f64) -> f64 {
        self.sqrt_evals.fetch_add(1, Ordering::Relaxed);
        self.quant.eval(alpha)
    }

    /// The transmit term of transmit `tx` at a focal point, in samples.
    /// Point sources go through the (approximated or exact) square root;
    /// plane waves are a **linear projection** `n̂ · S` — no square root at
    /// all, so the TABLEFREE datapath gets *cheaper* per added CPWC angle.
    #[inline]
    fn tx_term(&self, tx: usize, vox: VoxelIndex) -> f64 {
        match &self.spec.transmits[tx] {
            TransmitModel::PointSource => {
                let alpha = self.tx_alpha(vox);
                if self.config.exact_transmit {
                    alpha.sqrt()
                } else {
                    self.sqrt_approx(alpha)
                }
            }
            TransmitModel::PlaneWave(pw) => {
                let s = self.spec.volume_grid.position(vox);
                pw.steering.unit().dot(s) * self.samples_per_metre
            }
        }
    }

    /// Square-root evaluations the transmit term of transmit `tx` costs
    /// per focal point (0 for plane waves and exact transmit).
    #[inline]
    fn tx_sqrt_cost(&self, tx: usize) -> u64 {
        match &self.spec.transmits[tx] {
            TransmitModel::PointSource => u64::from(!self.config.exact_transmit),
            TransmitModel::PlaneWave(_) => 0,
        }
    }

    /// Receive squared distance in samples² — the PWL argument stream a
    /// per-element hardware unit sees.
    #[inline]
    pub fn rx_alpha(&self, vox: VoxelIndex, e: ElementIndex) -> f64 {
        let s = self.spec.volume_grid.position(vox);
        let d = self.spec.elements.position(e);
        let dx = (s.x - d.x) * self.samples_per_metre;
        let dy = (s.y - d.y) * self.samples_per_metre;
        let dz = s.z * self.samples_per_metre; // element z = 0
        dx * dx + dy * dy + dz * dz
    }

    /// Drives a hardware-style segment tracker through the α sequence one
    /// element's unit sees for a whole frame in the given scan order, and
    /// returns the tracker statistics — validating the "no segment search
    /// needed" claim of §IV-B.
    pub fn tracking_stats_for_element(&self, e: ElementIndex, order: ScanOrder) -> TrackerStats {
        let mut tracker = TrackingEvaluator::new(&self.pwl);
        let mut first = true;
        for vox in order.iter(&self.spec.volume_grid) {
            let alpha = self.rx_alpha(vox, e);
            if first {
                tracker.seek(alpha);
                first = false;
            }
            let _ = tracker.eval(alpha);
        }
        tracker.stats()
    }

    /// The segment-major slab walk shared by both batched fills (§IV-B's
    /// streaming view). Per scanline, the receive arguments are assembled
    /// into a row and pushed through [`QuantizedPwl::eval_row_tracked`],
    /// which fetches each PWL segment's `(c1, c0)` once per contiguous
    /// element span instead of once per element. The arguments a
    /// nappe-major sweep produces drift slowly — exactly the paper's "no
    /// segment search needed" operating regime, which is also what makes
    /// the spans long and the walk O(segments) per row. Bit-exact with
    /// the scalar path because the row evaluator replicates the `Fixed`
    /// datapath stage for stage.
    ///
    /// With `with_tx` (the fused transmit-0 fill), the transmit terms of
    /// the nappe are first evaluated in one batched pass — one tracked
    /// row evaluation for a point source, the exact projection `n̂ · S`
    /// for a plane wave (no square root: CPWC makes TABLEFREE's transmit
    /// leg free) — and added to each receive value in the scalar path's
    /// `tx + rx` order. Without it (the receive-leg fill) the rows hold
    /// the receive square roots alone. Each completed row is handed to
    /// `consume` while still cache-hot.
    fn fill_rows(
        &self,
        nappe_idx: usize,
        out: &mut NappeDelays,
        with_tx: bool,
        consume: &mut dyn FnMut(usize, &[f64]),
    ) {
        let tile = out.tile();
        let n_elements = out.n_elements();
        let spm = self.samples_per_metre;
        let bufs = out.begin_fill_scratch(nappe_idx);
        let buf = bufs.samples;
        let line_args = bufs.line_args;
        let line_vals = bufs.line_vals;
        let row_args = bufs.row_args;
        let dx2 = bufs.row_regs;
        let position = |it, ip| {
            self.spec
                .volume_grid
                .position(VoxelIndex::new(it, ip, nappe_idx))
        };
        // Pass 1: all transmit terms of the nappe, batched.
        if with_tx {
            match &self.spec.transmits[0] {
                TransmitModel::PointSource => {
                    for (slot, it, ip) in tile.iter_scanlines() {
                        line_args[slot] = self.tx_alpha(VoxelIndex::new(it, ip, nappe_idx));
                    }
                    if self.config.exact_transmit {
                        for (v, &a) in line_vals.iter_mut().zip(line_args.iter()) {
                            *v = a.sqrt();
                        }
                    } else {
                        let mut tx_hint = 0usize;
                        self.quant
                            .eval_row_tracked(&mut tx_hint, line_args, line_vals);
                    }
                }
                TransmitModel::PlaneWave(pw) => {
                    // The same `unit().dot(s) * spm` expression as the
                    // scalar `tx_term`, so the batched path stays
                    // bit-exact.
                    let n = pw.steering.unit();
                    for (slot, it, ip) in tile.iter_scanlines() {
                        line_vals[slot] = n.dot(position(it, ip)) * spm;
                    }
                }
            }
        }
        // Pass 2: one receive row per scanline, segment-major.
        let mut rx_hint = 0usize;
        for (slot, it, ip) in tile.iter_scanlines() {
            let s = position(it, ip);
            let dz = s.z * spm;
            let dz2 = dz * dz;
            // §IV-B's per-row/column reuse: DX² once per element column
            // and DY² once per element row, then two adds per element.
            // `(DX²[ix] + DY²[iy]) + dz²` is the scalar `rx_alpha`'s
            // `dx*dx + dy*dy + dz*dz` in the same order, so bit-identical.
            for (q, &x) in dx2.iter_mut().zip(&self.elem_x) {
                let dx = (s.x - x) * spm;
                *q = dx * dx;
            }
            for (args, &y) in row_args.chunks_exact_mut(dx2.len()).zip(&self.elem_y) {
                let dy = (s.y - y) * spm;
                let dy2 = dy * dy;
                for (a, &q) in args.iter_mut().zip(dx2.iter()) {
                    *a = q + dy2 + dz2;
                }
            }
            let row = &mut buf[slot * n_elements..(slot + 1) * n_elements];
            self.quant.eval_row_tracked(&mut rx_hint, row_args, row);
            if with_tx {
                let t = line_vals[slot];
                // IEEE addition commutes bit-for-bit, so += matches the
                // scalar path's `tx + rx` exactly.
                for value in row.iter_mut() {
                    *value += t;
                }
            }
            consume(slot, row);
        }
        // One bulk update keeps the op counter consistent with the scalar
        // path's per-evaluation increments.
        let per_voxel = n_elements as u64 + if with_tx { self.tx_sqrt_cost(0) } else { 0 };
        self.sqrt_evals
            .fetch_add(tile.scanlines() as u64 * per_voxel, Ordering::Relaxed);
    }
}

impl DelayEngine for TableFreeEngine {
    fn name(&self) -> &'static str {
        "TABLEFREE"
    }

    fn echo_buffer_len(&self) -> usize {
        self.echo_len
    }

    fn transmit_count(&self) -> usize {
        self.spec.n_transmits()
    }

    fn delay_samples(&self, tx: usize, vox: VoxelIndex, e: ElementIndex) -> f64 {
        let t = self.tx_term(tx, vox);
        let rx = self.sqrt_approx(self.rx_alpha(vox, e));
        t + rx
    }

    /// Batched rounding: one monomorphic clamp loop per row instead of a
    /// virtual `delay_index_from` call per element.
    fn quantize_row(&self, row: &[f64], out: &mut [i32]) {
        crate::engine::quantize_row_clamped(self.echo_len, row, out);
    }

    /// Segment-major fused fill of transmit 0 (see the shared slab walk
    /// behind both fills): the gather/MAC of row *s* can run while row
    /// *s + 1* is generated.
    fn fill_nappe_streamed(
        &self,
        nappe_idx: usize,
        out: &mut NappeDelays,
        consume: &mut dyn FnMut(usize, &[f64]),
    ) {
        self.fill_rows(nappe_idx, out, true, consume);
    }

    /// Receive-leg fill: the fused fill's per-element datapath **without**
    /// the transmit add — the slab rows hold the receive square roots in
    /// samples. This is where the factorization pays: the per-element PWL
    /// evaluations (the §IV datapath cost) run once per compound frame
    /// instead of once per angle, so `sqrt_evals` grows by
    /// `scanlines · elements` here and only by the per-row transmit cost
    /// in each combine — `O(elements + N)` per voxel instead of
    /// `O(N · elements)`.
    fn fill_nappe_rx(&self, nappe_idx: usize, out: &mut NappeDelays) {
        self.fill_rows(nappe_idx, out, false, &mut |_, _| {});
    }

    /// Transmit combine: `rx + t` with the transmit term computed once
    /// per row (point sources one PWL/exact square root, plane waves the
    /// free projection `n̂ · S`). IEEE addition commutes bit-for-bit and
    /// the tracked row evaluation is bit-exact with the scalar
    /// [`QuantizedPwl::eval`], so the combined row matches the scalar
    /// [`delay_samples`](DelayEngine::delay_samples) queries exactly. The
    /// square-root counter advances by the transmit cost only — the
    /// receive roots were already counted by the rx fill.
    fn combine_tx_row(&self, tx: usize, vox: VoxelIndex, rx_row: &[f64], out: &mut [f64]) {
        assert_eq!(rx_row.len(), out.len(), "combine row length mismatch");
        let t = self.tx_term(tx, vox);
        for (o, &rx) in out.iter_mut().zip(rx_row) {
            *o = rx + t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactEngine;

    fn engines() -> (SystemSpec, TableFreeEngine, ExactEngine) {
        let spec = SystemSpec::tiny();
        let tf = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
        let ex = ExactEngine::new(&spec);
        (spec, tf, ex)
    }

    #[test]
    fn sample_error_bounded_by_two_deltas_plus_quantization() {
        let (spec, tf, ex) = engines();
        let bound = 2.0 * 0.25 + 2.0 * tf.quantized().quantization_error_bound() + 0.1;
        for i in 0..spec.volume_grid.voxel_count() {
            let vox = spec.volume_grid.voxel_at(i);
            for e in spec.elements.iter() {
                let err = (tf.delay_samples(0, vox, e) - ex.delay_samples(0, vox, e)).abs();
                assert!(err <= bound, "{vox} {e}: err = {err}");
            }
        }
    }

    #[test]
    fn selection_error_max_two_samples() {
        // §VI-A: "maximum absolute selection error of 2".
        let (spec, tf, ex) = engines();
        let mut max = 0i64;
        for i in 0..spec.volume_grid.voxel_count() {
            let vox = spec.volume_grid.voxel_at(i);
            for e in spec.elements.iter() {
                let d = (tf.delay_index(0, vox, e) - ex.delay_index(0, vox, e)).abs();
                max = max.max(d);
            }
        }
        assert!(max <= 2, "max selection error = {max}");
        assert!(max >= 1, "approximation should be visible at integer grain");
    }

    #[test]
    fn exact_transmit_reduces_error() {
        let spec = SystemSpec::tiny();
        let both = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
        let tx_exact = TableFreeEngine::new(
            &spec,
            TableFreeConfig {
                exact_transmit: true,
                ..TableFreeConfig::paper()
            },
        )
        .unwrap();
        let ex = ExactEngine::new(&spec);
        let (mut sum_both, mut sum_tx) = (0.0, 0.0);
        for i in (0..spec.volume_grid.voxel_count()).step_by(7) {
            let vox = spec.volume_grid.voxel_at(i);
            for e in spec.elements.iter() {
                sum_both += (both.delay_samples(0, vox, e) - ex.delay_samples(0, vox, e)).abs();
                sum_tx += (tx_exact.delay_samples(0, vox, e) - ex.delay_samples(0, vox, e)).abs();
            }
        }
        assert!(sum_tx < sum_both, "{sum_tx} !< {sum_both}");
    }

    #[test]
    fn smaller_delta_means_more_segments_and_less_error() {
        let spec = SystemSpec::tiny();
        let coarse = TableFreeEngine::new(&spec, TableFreeConfig::with_delta(0.5)).unwrap();
        let fine = TableFreeEngine::new(&spec, TableFreeConfig::with_delta(0.125)).unwrap();
        assert!(fine.segment_count() > coarse.segment_count());
        let ex = ExactEngine::new(&spec);
        let vox = VoxelIndex::new(0, 7, 3);
        let e = ElementIndex::new(7, 0);
        let ec = (coarse.delay_samples(0, vox, e) - ex.delay_samples(0, vox, e)).abs();
        let ef = (fine.delay_samples(0, vox, e) - ex.delay_samples(0, vox, e)).abs();
        assert!(ef <= ec + 0.1);
    }

    #[test]
    fn paper_scale_segment_count_near_70() {
        // §IV-B: "we found 70 segments to be needed" for δ = 0.25.
        let spec = SystemSpec::paper();
        let eng = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
        let n = eng.segment_count();
        assert!((55..=85).contains(&n), "segments = {n}");
    }

    #[test]
    fn op_counter_counts_two_sqrts_per_query() {
        let (_, tf, _) = engines();
        let before = tf.sqrt_evals();
        tf.delay_samples(0, VoxelIndex::new(0, 0, 0), ElementIndex::new(0, 0));
        assert_eq!(tf.sqrt_evals() - before, 2);
        let tx_exact = TableFreeEngine::new(
            &SystemSpec::tiny(),
            TableFreeConfig {
                exact_transmit: true,
                ..TableFreeConfig::paper()
            },
        )
        .unwrap();
        tx_exact.delay_samples(0, VoxelIndex::new(0, 0, 0), ElementIndex::new(0, 0));
        assert_eq!(tx_exact.sqrt_evals(), 1);
    }

    #[test]
    fn tracking_needs_no_search_in_nappe_order() {
        // §IV-B: transitions across segments are gradual in nappe order —
        // the pointer steps by a small constant, never searches. The
        // realistic angular resolution of the `reduced` preset (32×32
        // lines) keeps per-eval drift well below one segment; only the
        // depth advance at a nappe boundary moves a few segments at once.
        let spec = SystemSpec::reduced();
        let tf = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
        let stats =
            tf.tracking_stats_for_element(spec.elements.center_element(), ScanOrder::NappeByNappe);
        assert_eq!(stats.evals as usize, spec.volume_grid.voxel_count());
        assert!(stats.max_step <= 4, "max_step = {}", stats.max_step);
        assert!(
            stats.mean_steps() < 0.05,
            "mean_steps = {}",
            stats.mean_steps()
        );
    }

    #[test]
    fn tracking_in_scanline_order_jumps_at_restarts() {
        // The paper points out "where inefficiencies could arise if paired
        // with a scanline-by-scanline beamformer": every scanline restart
        // snaps the argument from the deepest point back to the shallowest,
        // forcing a large pointer jump (a hardware design would need a
        // reset/seek there).
        let (_spec, tf, _) = engines();
        let stats =
            tf.tracking_stats_for_element(ElementIndex::new(0, 0), ScanOrder::ScanlineByScanline);
        assert!(
            stats.max_step > 4,
            "scanline restarts should force large jumps, got {}",
            stats.max_step
        );
    }

    #[test]
    fn domain_covers_all_arguments() {
        let (spec, tf, _) = engines();
        let (lo, hi) = TableFreeEngine::sqrt_domain(&spec);
        for i in (0..spec.volume_grid.voxel_count()).step_by(3) {
            let vox = spec.volume_grid.voxel_at(i);
            for e in spec.elements.iter() {
                let a = tf.rx_alpha(vox, e);
                assert!(a >= lo && a <= hi, "α = {a} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn fill_nappe_bit_exact_with_scalar_path() {
        let (spec, tf, _) = engines();
        let mut batched = NappeDelays::full(&spec);
        let mut scalar = NappeDelays::full(&spec);
        for id in 0..spec.volume_grid.n_depth() {
            tf.fill_nappe(id, &mut batched);
            scalar.fill_scalar(&tf, 0, id);
            for (a, b) in batched.samples().iter().zip(scalar.samples()) {
                assert_eq!(a.to_bits(), b.to_bits(), "nappe {id}");
            }
        }
    }

    #[test]
    fn fill_nappe_bit_exact_with_scalar_path_exact_transmit() {
        let spec = SystemSpec::tiny();
        let tf = TableFreeEngine::new(
            &spec,
            TableFreeConfig {
                exact_transmit: true,
                ..TableFreeConfig::paper()
            },
        )
        .unwrap();
        let mut batched = NappeDelays::full(&spec);
        let mut scalar = NappeDelays::full(&spec);
        for id in [0, 7, 15] {
            tf.fill_nappe(id, &mut batched);
            scalar.fill_scalar(&tf, 0, id);
            for (a, b) in batched.samples().iter().zip(scalar.samples()) {
                assert_eq!(a.to_bits(), b.to_bits(), "nappe {id}");
            }
        }
    }

    #[test]
    fn streamed_fill_rows_match_final_slab() {
        let (spec, tf, _) = engines();
        let mut slab = NappeDelays::full(&spec);
        let mut reference = NappeDelays::full(&spec);
        tf.fill_nappe(5, &mut reference);
        let mut seen = Vec::new();
        let mut captured = Vec::new();
        tf.fill_nappe_streamed(5, &mut slab, &mut |slot, row| {
            seen.push(slot);
            captured.extend_from_slice(row);
        });
        // Rows arrive once each, in slot order, already in final form.
        assert_eq!(seen, (0..slab.scanline_count()).collect::<Vec<_>>());
        for (a, b) in captured.iter().zip(reference.samples()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(slab, reference);
    }

    #[test]
    fn fill_nappe_counts_ops_like_scalar() {
        let spec = SystemSpec::tiny();
        let tf = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
        let mut slab = NappeDelays::full(&spec);
        tf.fill_nappe(0, &mut slab);
        // 64 scanlines × (64 rx + 1 tx) evaluations.
        assert_eq!(tf.sqrt_evals(), 64 * 65);
    }

    #[test]
    fn fill_nappe_tile_matches_full_slab() {
        let (spec, tf, _) = engines();
        let tile = crate::Tile {
            theta_start: 2,
            theta_end: 6,
            phi_start: 4,
            phi_end: 8,
        };
        let mut tile_slab = NappeDelays::for_tile(&spec, tile);
        let mut full = NappeDelays::full(&spec);
        tf.fill_nappe(9, &mut tile_slab);
        tf.fill_nappe(9, &mut full);
        for (_, it, ip) in tile_slab.scanlines() {
            for e in spec.elements.iter() {
                assert_eq!(
                    tile_slab.at(it, ip, e).to_bits(),
                    full.at(it, ip, e).to_bits()
                );
            }
        }
    }

    #[test]
    fn plane_wave_fill_bit_exact_with_scalar_path() {
        // A single steered wave: the fused transmit-0 fill takes the
        // projection pass instead of the transmit square roots.
        let spec = SystemSpec::tiny().with_transmits(vec![TransmitModel::plane_wave(
            usbf_geometry::deg(10.0),
            0.0,
        )]);
        let tf = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
        let mut batched = NappeDelays::full(&spec);
        let mut scalar = NappeDelays::full(&spec);
        for id in [0, 8, 15] {
            tf.fill_nappe(id, &mut batched);
            scalar.fill_scalar(&tf, 0, id);
            assert_eq!(batched, scalar, "nappe {id}");
        }
    }

    #[test]
    fn plane_wave_transmit_costs_no_square_roots() {
        // CPWC's transmit leg is a linear projection: only the receive
        // roots are counted, scalar and batched alike.
        let spec = SystemSpec::tiny().with_transmits(vec![TransmitModel::plane_wave(0.1, 0.0)]);
        let tf = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
        tf.delay_samples(0, VoxelIndex::new(0, 0, 0), ElementIndex::new(0, 0));
        assert_eq!(tf.sqrt_evals(), 1); // receive root only
        let mut slab = NappeDelays::full(&spec);
        tf.fill_nappe(0, &mut slab);
        // 64 scanlines × 64 rx evaluations, no tx term.
        assert_eq!(tf.sqrt_evals(), 1 + 64 * 64);
    }

    #[test]
    fn rx_fill_plus_combine_bit_identical_to_scalar_per_transmit() {
        // Mixed sequence: a point source and plane waves, so the combine
        // exercises both transmit models.
        let spec = SystemSpec::tiny().with_transmits(vec![
            TransmitModel::PointSource,
            TransmitModel::plane_wave(usbf_geometry::deg(6.0), 0.0),
            TransmitModel::plane_wave(usbf_geometry::deg(-6.0), 0.0),
        ]);
        let tf = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
        crate::engine::assert_rx_combine_matches_scalar(&tf, &spec, &[0, 7, 15]);
    }

    #[test]
    fn factored_fill_counts_rx_roots_once() {
        // The factorization's whole point: one rx root per element per
        // focal point per *frame*, plus one tx root per focal point per
        // point-source transmit — not per (transmit, element).
        let spec = SystemSpec::tiny().with_transmits(vec![
            TransmitModel::PointSource,
            TransmitModel::plane_wave(usbf_geometry::deg(5.0), 0.0),
        ]);
        let tf = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
        let mut rx = NappeDelays::full(&spec);
        let mut combined = vec![0.0; rx.n_elements()];
        tf.fill_nappe_rx(0, &mut rx);
        assert_eq!(tf.sqrt_evals(), 64 * 64); // 64 scanlines × 64 elements
        for (slot, it, ip) in rx.scanlines().collect::<Vec<_>>() {
            for tx in 0..2 {
                tf.combine_tx_row(tx, VoxelIndex::new(it, ip, 0), rx.row(slot), &mut combined);
            }
        }
        // + one tx root per scanline for the point source, none for the
        // plane wave: O(elements + N) per voxel, not O(N·elements).
        assert_eq!(tf.sqrt_evals(), 64 * 64 + 64);
    }

    #[test]
    fn engine_metadata() {
        let (spec, tf, _) = engines();
        assert_eq!(tf.name(), "TABLEFREE");
        assert_eq!(tf.echo_buffer_len(), spec.echo_buffer_len());
        assert_eq!(TableFreeEngine::ops_per_element(), (2, 1));
        assert_eq!(tf.config().delta, 0.25);
    }
}
