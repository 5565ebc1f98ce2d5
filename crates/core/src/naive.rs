//! The §II-B baseline: a fully precomputed per-(voxel, element) table.

use crate::{DelayEngine, EngineError, ExactEngine, NappeDelays};
use std::ops::Range;
use usbf_geometry::{ElementIndex, SystemSpec, VoxelIndex};

/// The naive architecture the paper rules out: every delay index
/// precomputed and stored. Each entry is a 16-bit sample index (13 bits
/// would do; memories are byte-addressed).
///
/// For Table I this is `128·128·1000 × 100·100 ≈ 164 × 10⁹` entries —
/// ≈328 GB — which is why construction takes an explicit memory budget and
/// fails loudly at paper scale:
///
/// ```
/// use usbf_core::{NaiveTableEngine, EngineError};
/// use usbf_geometry::SystemSpec;
/// let err = NaiveTableEngine::build(&SystemSpec::paper(), 1 << 30).unwrap_err();
/// assert!(matches!(err, EngineError::TableTooLarge { .. }));
/// ```
#[derive(Debug, Clone)]
pub struct NaiveTableEngine {
    table: Vec<u16>,
    elements_per_voxel: usize,
    /// Table entries per transmit: `voxel_count × elements_per_voxel`.
    transmit_stride: usize,
    n_transmits: usize,
    echo_len: usize,
    n_phi: usize,
    n_depth: usize,
    nx: usize,
}

impl NaiveTableEngine {
    /// Bytes the table would need for a given spec: one full
    /// per-(voxel, element) table **per transmit** — multi-transmit frames
    /// multiply the §II-B storage wall.
    pub fn required_bytes(spec: &SystemSpec) -> u64 {
        spec.naive_table_entries() * 2 * spec.n_transmits() as u64
    }

    /// Precomputes the full table, refusing if it exceeds `limit_bytes`.
    ///
    /// # Errors
    ///
    /// [`EngineError::TableTooLarge`] when the table exceeds the budget.
    pub fn build(spec: &SystemSpec, limit_bytes: u64) -> Result<Self, EngineError> {
        let required = Self::required_bytes(spec);
        if required > limit_bytes {
            return Err(EngineError::TableTooLarge {
                required_bytes: required,
                limit_bytes,
            });
        }
        let exact = ExactEngine::new(spec);
        let echo_len = spec.echo_buffer_len();
        let v = &spec.volume_grid;
        let el = &spec.elements;
        let elements_per_voxel = el.count();
        let transmit_stride = v.voxel_count() * elements_per_voxel;
        let n_transmits = spec.n_transmits();
        let mut table = vec![0u16; transmit_stride * n_transmits];
        for tx in 0..n_transmits {
            let base = tx * transmit_stride;
            for i in 0..v.voxel_count() {
                let vox = v.voxel_at(i);
                for (j, e) in el.iter().enumerate() {
                    table[base + i * elements_per_voxel + j] = exact.delay_index(tx, vox, e) as u16;
                }
            }
        }
        Ok(NaiveTableEngine {
            table,
            elements_per_voxel,
            transmit_stride,
            n_transmits,
            echo_len,
            n_phi: v.n_phi(),
            n_depth: v.n_depth(),
            nx: el.nx(),
        })
    }

    /// Actual storage used, in bytes.
    pub fn storage_bytes(&self) -> u64 {
        self.table.len() as u64 * 2
    }

    /// Transmit `tx`'s stored index row of focal point `vox`: one
    /// contiguous run of the table, in linear element order.
    fn table_row(&self, tx: usize, vox: VoxelIndex) -> &[u16] {
        let vi = (vox.it * self.n_phi + vox.ip) * self.n_depth + vox.id;
        let base = tx * self.transmit_stride + vi * self.elements_per_voxel;
        &self.table[base..base + self.elements_per_voxel]
    }
}

impl DelayEngine for NaiveTableEngine {
    fn name(&self) -> &'static str {
        "NAIVE-TABLE"
    }

    fn echo_buffer_len(&self) -> usize {
        self.echo_len
    }

    fn transmit_count(&self) -> usize {
        self.n_transmits
    }

    fn delay_samples(&self, tx: usize, vox: VoxelIndex, e: ElementIndex) -> f64 {
        self.delay_index(tx, vox, e) as f64
    }

    fn delay_index(&self, tx: usize, vox: VoxelIndex, e: ElementIndex) -> i64 {
        let vi = (vox.it * self.n_phi + vox.ip) * self.n_depth + vox.id;
        let ei = e.iy * self.nx + e.ix;
        self.table[tx * self.transmit_stride + vi * self.elements_per_voxel + ei] as i64
    }

    /// The naive table has **no separable receive leg** — it stores the
    /// final rounded index per `(transmit, voxel, element)`, with the two
    /// legs fused at precompute time. Its receive leg is therefore each
    /// element's slot in the row (`j` as an `f64`), and the row methods
    /// read `(tx, vox)`'s table row through those slots — element-wise,
    /// so a compacted receive row reads exactly its own elements.
    fn fill_nappe_rx(&self, nappe_idx: usize, out: &mut NappeDelays) {
        let n_elements = out.n_elements();
        for row in out.begin_fill(nappe_idx).chunks_exact_mut(n_elements) {
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = j as f64;
            }
        }
    }

    /// Transmit combine: the `u16 → f64` widen of `(tx, vox)`'s table
    /// entries at the receive row's element slots.
    fn combine_tx_row(&self, tx: usize, vox: VoxelIndex, rx_row: &[f64], out: &mut [f64]) {
        assert_eq!(rx_row.len(), out.len(), "combine row length mismatch");
        let row = self.table_row(tx, vox);
        for (o, &j) in out.iter_mut().zip(rx_row) {
            *o = f64::from(row[j as usize]);
        }
    }

    /// The table read inside the shared rounding loop, one stored row
    /// per run row — the naive table's transmit terms. The stored indices
    /// are already integral and in-window, but the arithmetic stays the
    /// shared rounding stage so the table path cannot drift from
    /// `delay_index_from`.
    fn quantize_tx_run(&self, tx: usize, rx: &NappeDelays, slots: Range<usize>, out: &mut [i32]) {
        let (id, tile, width) = crate::engine::run_shape(rx, &slots, out.len());
        for (slot, o) in slots.zip(out.chunks_exact_mut(width.max(1))) {
            let (it, ip) = tile.scanline_at(slot);
            let row = self.table_row(tx, VoxelIndex::new(it, ip, id));
            crate::engine::quantize_row_clamped(self.echo_len, &rx.row(slot)[..width], o, |j| {
                f64::from(row[j as usize])
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_exact_indices_everywhere() {
        let spec = SystemSpec::tiny();
        let naive = NaiveTableEngine::build(&spec, u64::MAX).unwrap();
        let exact = ExactEngine::new(&spec);
        for i in 0..spec.volume_grid.voxel_count() {
            let vox = spec.volume_grid.voxel_at(i);
            for e in spec.elements.iter() {
                assert_eq!(naive.delay_index(0, vox, e), exact.delay_index(0, vox, e));
            }
        }
    }

    #[test]
    fn paper_scale_is_infeasible() {
        // §II-B: "obviously impractical to pre-compute, due to the storage
        // requirements".
        let required = NaiveTableEngine::required_bytes(&SystemSpec::paper());
        assert_eq!(required, 163_840_000_000 * 2);
        assert!(required > 300_000_000_000u64);
    }

    #[test]
    fn storage_accounting() {
        let spec = SystemSpec::tiny();
        let naive = NaiveTableEngine::build(&spec, u64::MAX).unwrap();
        assert_eq!(
            naive.storage_bytes(),
            NaiveTableEngine::required_bytes(&spec)
        );
        // tiny: 8·8·16 voxels × 64 elements × 2 B = 131 072 B.
        assert_eq!(naive.storage_bytes(), 131_072);
    }

    #[test]
    fn budget_is_enforced_exactly() {
        let spec = SystemSpec::tiny();
        let required = NaiveTableEngine::required_bytes(&spec);
        assert!(NaiveTableEngine::build(&spec, required).is_ok());
        let err = NaiveTableEngine::build(&spec, required - 1).unwrap_err();
        match err {
            EngineError::TableTooLarge {
                required_bytes,
                limit_bytes,
            } => {
                assert_eq!(required_bytes, required);
                assert_eq!(limit_bytes, required - 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn multi_transmit_table_matches_exact_per_transmit() {
        let spec = SystemSpec::tiny().with_transmits(usbf_geometry::TransmitModel::plane_wave_fan(
            3,
            usbf_geometry::deg(8.0),
        ));
        let naive = NaiveTableEngine::build(&spec, u64::MAX).unwrap();
        let exact = ExactEngine::new(&spec);
        assert_eq!(naive.transmit_count(), 3);
        for tx in 0..3 {
            for i in (0..spec.volume_grid.voxel_count()).step_by(5) {
                let vox = spec.volume_grid.voxel_at(i);
                for e in spec.elements.iter() {
                    assert_eq!(naive.delay_index(tx, vox, e), exact.delay_index(tx, vox, e));
                }
            }
        }
        crate::engine::assert_rx_combine_matches_scalar(&naive, &spec, &[0, 7, 15]);
    }

    #[test]
    fn multi_transmit_multiplies_storage() {
        let single = SystemSpec::tiny();
        let compound = SystemSpec::tiny().with_transmits(
            usbf_geometry::TransmitModel::plane_wave_fan(4, usbf_geometry::deg(10.0)),
        );
        assert_eq!(
            NaiveTableEngine::required_bytes(&compound),
            4 * NaiveTableEngine::required_bytes(&single)
        );
        let naive = NaiveTableEngine::build(&compound, u64::MAX).unwrap();
        assert_eq!(naive.storage_bytes(), 4 * 131_072);
    }

    #[test]
    fn name_and_buffer() {
        let spec = SystemSpec::tiny();
        let naive = NaiveTableEngine::build(&spec, u64::MAX).unwrap();
        assert_eq!(naive.name(), "NAIVE-TABLE");
        assert_eq!(naive.echo_buffer_len(), spec.echo_buffer_len());
    }
}
