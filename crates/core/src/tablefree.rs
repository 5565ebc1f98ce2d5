//! TABLEFREE: on-the-fly delay computation (§IV, Fig. 2).

use crate::{DelayEngine, EngineError, NappeDelays};
use std::ops::Range;
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
    sqrt_evals: OpCounter,
}

/// The square-root counter, on cache lines of its own: every worker's
/// row methods bump it once per delay row, and a counter sharing a line
/// with the engine's read-mostly fields would evict them from the other
/// workers' caches at each bump. 128 bytes, because the adjacent-line
/// prefetcher moves lines in pairs.
#[derive(Debug, Default)]
#[repr(align(128))]
struct OpCounter(AtomicU64);

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
            sqrt_evals: OpCounter::default(),
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
            sqrt_evals: OpCounter::default(),
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
        self.sqrt_evals.0.load(Ordering::Relaxed)
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
        self.sqrt_evals.0.fetch_add(1, Ordering::Relaxed);
        self.quant.eval(alpha)
    }

    /// The transmit term of transmit `tx` at each focal point of
    /// `voxels` (at most a run pass of them), in samples, in one pass
    /// with the transmit model resolved once. Point sources go through
    /// the square root — the PWL for all the points as one
    /// [`QuantizedPwl::eval_row`] (bit-identical to a scalar evaluation
    /// per point), counted with one add, or the exact root; plane waves
    /// are a **linear projection** `n̂ · S` — no square root at all, so
    /// the TABLEFREE datapath gets *cheaper* per added CPWC angle.
    fn tx_terms(&self, tx: usize, voxels: &[VoxelIndex], out: &mut [f64]) {
        match &self.spec.transmits[tx] {
            TransmitModel::PointSource => {
                let mut alpha = [0.0; crate::engine::RUN_PASS];
                let alpha = &mut alpha[..voxels.len()];
                for (a, &v) in alpha.iter_mut().zip(voxels) {
                    *a = self.tx_alpha(v);
                }
                if self.config.exact_transmit {
                    for (t, &a) in out.iter_mut().zip(&*alpha) {
                        *t = a.sqrt();
                    }
                } else {
                    self.quant.eval_row(alpha, out);
                    self.sqrt_evals
                        .0
                        .fetch_add(voxels.len() as u64, Ordering::Relaxed);
                }
            }
            TransmitModel::PlaneWave(pw) => {
                let (grid, n) = (&self.spec.volume_grid, pw.normal());
                for (t, &v) in out.iter_mut().zip(voxels) {
                    *t = n.dot(grid.position(v)) * self.samples_per_metre;
                }
            }
        }
    }

    /// The transmit term of transmit `tx` at one focal point — the scalar
    /// path's: the same arithmetic as [`tx_terms`](Self::tx_terms).
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
                pw.normal().dot(s) * self.samples_per_metre
            }
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

    /// Receive-leg fill (§IV-B's streaming view): the slab rows hold the
    /// receive square roots in samples. A receive row is the aperture
    /// flattened: along every aperture row its argument is a parabola in
    /// the element column, so most rows cross a PWL segment boundary,
    /// back and forth. Each row therefore goes through
    /// [`QuantizedPwl::eval_grid`] as the separable
    /// `(DX²[ix] + DY²[iy]) + dz²` it is: the row's exact argument range
    /// fixes the few segments it touches, every element picks its
    /// `(c1, c0)` by compare-select, and the argument build and the PWL
    /// square root run as one branch-free pass that writes the row into
    /// the slab.
    /// Bit-exact with the scalar path because the row evaluator
    /// replicates the `Fixed` datapath stage for stage.
    ///
    /// This is where the factorization pays: the per-element PWL
    /// evaluations (the §IV datapath cost) run once per nappe whatever
    /// the transmit count, so `sqrt_evals` grows by `scanlines ·
    /// elements` here and only by the per-row transmit cost in each row
    /// method — `O(elements + N)` per voxel instead of `O(N · elements)`.
    fn fill_nappe_rx(&self, nappe_idx: usize, out: &mut NappeDelays) {
        let all = 0..out.n_elements();
        self.begin_emit(nappe_idx, std::slice::from_ref(&all), out);
    }

    /// Transmit combine: `rx + t` with the transmit term computed once
    /// per call (point sources one PWL/exact square root, plane waves the
    /// free projection `n̂ · S`, so CPWC makes TABLEFREE's transmit leg
    /// free). IEEE addition commutes bit-for-bit and the row evaluator is
    /// bit-exact with the scalar [`QuantizedPwl::eval`], so the combined
    /// row matches the scalar [`delay_samples`](DelayEngine::delay_samples)
    /// queries exactly. The square-root counter advances by the transmit
    /// cost only — the receive roots were counted by the rx fill — so a
    /// full row must be combined in **one** call.
    fn combine_tx_row(&self, tx: usize, vox: VoxelIndex, rx_row: &[f64], out: &mut [f64]) {
        assert_eq!(rx_row.len(), out.len(), "combine row length mismatch");
        let mut t = [0.0];
        self.tx_terms(tx, &[vox], &mut t);
        for (o, &rx) in out.iter_mut().zip(rx_row) {
            *o = rx + t[0];
        }
    }

    /// The emit's set-up: the receive leg
    /// ([`fill_nappe_rx`](DelayEngine::fill_nappe_rx)), whose roots it
    /// evaluates and counts for every element of the tile's rows, one
    /// [`QuantizedPwl::eval_grid`] pass per row, each row then compacted
    /// to the entries of `runs` while it is hot.
    fn begin_emit(&self, nappe_idx: usize, runs: &[Range<usize>], slab: &mut NappeDelays) {
        let tile = slab.tile();
        let n_elements = slab.n_elements();
        let spm = self.samples_per_metre;
        let bufs = slab.begin_fill_scratch(nappe_idx);
        let dx2 = bufs.row_regs;
        let dy2 = &mut bufs.row_args[..self.elem_y.len()];
        let rows = bufs.samples.chunks_exact_mut(n_elements);
        for ((_, it, ip), row) in tile.iter_scanlines().zip(rows) {
            let s = self
                .spec
                .volume_grid
                .position(VoxelIndex::new(it, ip, nappe_idx));
            let dz = s.z * spm;
            // §IV-B's per-row/column reuse: DX² once per element column
            // and DY² once per element row, then two adds per element.
            // `(DX²[ix] + DY²[iy]) + dz²` is the scalar `rx_alpha`'s
            // `dx*dx + dy*dy + dz*dz` in the same order, so bit-identical.
            for (q, &x) in dx2.iter_mut().zip(&self.elem_x) {
                let dx = (s.x - x) * spm;
                *q = dx * dx;
            }
            for (q, &y) in dy2.iter_mut().zip(&self.elem_y) {
                let dy = (s.y - y) * spm;
                *q = dy * dy;
            }
            // `rx + 0.0` is `rx`: the PWL never yields −0.0.
            self.quant.eval_grid(dx2, dy2, dz * dz, 0.0, row);
            crate::engine::compact_row(row, runs);
        }
        // One bulk update keeps the op counter consistent with the scalar
        // path's per-evaluation increments.
        self.sqrt_evals
            .0
            .fetch_add((tile.scanlines() * n_elements) as u64, Ordering::Relaxed);
    }

    /// The run's transmit terms in one pass — one counter add for its
    /// point-source roots — then each row's `rx + t` inside the shared
    /// rounding loop, over the staged active entries.
    fn emit_run(
        &self,
        tx: usize,
        slab: &NappeDelays,
        slots: Range<usize>,
        runs: &[Range<usize>],
        out: &mut [i32],
    ) {
        let terms = |voxels: &[VoxelIndex], t: &mut [f64]| self.tx_terms(tx, voxels, t);
        crate::engine::emit_rows_f64(self.echo_len, slab, slots, runs, out, terms, |t, rx| rx + t);
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

    /// Fills `nappes` of the whole fan batched and scalar and requires
    /// every delay to match bit for bit, and the batched fill to count
    /// one receive root per delay plus one transmit root per scanline.
    fn assert_fill_matches_scalar(spec: &SystemSpec, nappes: &[usize]) {
        let tf = TableFreeEngine::new(spec, TableFreeConfig::paper()).unwrap();
        let mut batched = NappeDelays::full(spec);
        let mut scalar = NappeDelays::full(spec);
        let per_fill = (batched.scanline_count() * (batched.n_elements() + 1)) as u64;
        for &id in nappes {
            let before = tf.sqrt_evals();
            tf.fill_nappe(id, &mut batched);
            assert_eq!(tf.sqrt_evals() - before, per_fill, "nappe {id}");
            scalar.fill_scalar(&tf, 0, id);
            for (i, (a, b)) in batched.samples().iter().zip(scalar.samples()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "nappe {id}, slab entry {i}");
            }
        }
    }

    #[test]
    fn fill_nappe_bit_exact_with_scalar_path() {
        let tiny = SystemSpec::tiny();
        assert_fill_matches_scalar(&tiny, &(0..tiny.volume_grid.n_depth()).collect::<Vec<_>>());
        // Real-geometry receive rows: a 32 × 32 aperture flattened, whose
        // argument is a parabola along every aperture row, so most rows
        // cross PWL segment boundaries several times — a shape the
        // random monotone streams of the pwl tests never produce.
        // Shallow, middle and deep nappes of a 16 × 16-line fan.
        let r = SystemSpec::reduced();
        let spec = SystemSpec::new(
            r.speed_of_sound,
            r.sampling_frequency,
            r.transducer.clone(),
            usbf_geometry::VolumeSpec {
                n_theta: 16,
                n_phi: 16,
                n_depth: 64,
                ..r.volume.clone()
            },
            r.origin,
            r.frame_rate,
        );
        assert_eq!(spec.elements.count(), 1024);
        let tf = TableFreeEngine::new(&spec, TableFreeConfig::paper()).unwrap();
        let q = tf.quantized();
        let nappes = [0, 31, 63];
        let v = &spec.volume_grid;
        let rows: Vec<VoxelIndex> = nappes
            .iter()
            .flat_map(|&id| {
                (0..v.n_theta())
                    .flat_map(move |it| (0..v.n_phi()).map(move |ip| VoxelIndex::new(it, ip, id)))
            })
            .collect();
        let crossing = rows
            .iter()
            .filter(|&&vox| {
                let segs: Vec<usize> = spec
                    .elements
                    .iter()
                    .map(|e| q.locate(tf.rx_alpha(vox, e)))
                    .collect();
                segs.iter().min() != segs.iter().max()
            })
            .count();
        assert!(
            2 * crossing > rows.len(),
            "most rows should cross a segment boundary, {crossing} of {} do",
            rows.len()
        );
        assert_fill_matches_scalar(&spec, &nappes);
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
        // A single steered wave: transmit 0's combine adds the
        // projection instead of a transmit square root.
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
