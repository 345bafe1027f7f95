//! Algorithm-based fault tolerance (ABFT) signatures: block row/column
//! sums over tile outputs.
//!
//! For the paper's linear stencil operators a single corrupted cell
//! perturbs its row-block sum, its column-block sum and the total, so an
//! exact `f64` comparison against a reference-propagated signature
//! detects single-event upsets the FIFO/AXI checks miss. A wrapping
//! bit-pattern fold rides along for the exact regime: it catches the one
//! upset class the arithmetic sums are blind to, a sign flip on a zero
//! cell (`0.0` → `-0.0` leaves every sum unchanged but fails the
//! campaign's bitwise golden comparison). The RK4 chain (RTM) is
//! compared through the same machinery with an optional tolerance band.

use serde::{Deserialize, Serialize};
use sf_mesh::Element;

/// Number of row and column blocks a signature folds the mesh into.
/// Fixed so signatures from different mesh sizes stay comparable in cost
/// and the on-record representation stays bounded.
pub const ABFT_BLOCKS: usize = 16;

/// Block row/column checksum signature of one mesh state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AbftSignature {
    /// Per-row-block sums (stream units folded into [`ABFT_BLOCKS`] bins).
    pub row_sums: Vec<f64>,
    /// Per-column-block sums (cells within a unit folded into bins).
    pub col_sums: Vec<f64>,
    /// Grand total over every lane of every cell.
    pub total: f64,
    /// Wrapping sum of every lane's raw bit pattern. The arithmetic sums
    /// are blind to upsets that preserve the numeric value (a sign flip
    /// on `0.0` yields `-0.0`); the bit fold is not, and any single-lane
    /// flip perturbs it. Only consulted in the exact (`tol = 0`) regime.
    pub bit_fold: u64,
}

impl AbftSignature {
    /// Compute the signature of a cell slice organized as stream units of
    /// `unit_len` cells (rows for 2D, planes for 3D). All element lanes
    /// are accumulated in `f64`, cell by cell in storage order.
    pub fn compute<T: Element>(cells: &[T], unit_len: usize) -> AbftSignature {
        let unit_len = unit_len.max(1);
        let n_units = cells.len().div_ceil(unit_len).max(1);
        let n_row_blocks = ABFT_BLOCKS.min(n_units).max(1);
        let n_col_blocks = ABFT_BLOCKS.min(unit_len).max(1);
        // Column block `b` holds the cells `w` of a unit with
        // `w · n_col_blocks / unit_len == b`, the run from `col_start[b]`
        // to `col_start[b + 1]`, so no cell needs a division.
        let mut col_start = [unit_len; ABFT_BLOCKS + 1];
        for (b, start) in col_start.iter_mut().enumerate().take(n_col_blocks) {
            *start = (b * unit_len).div_ceil(n_col_blocks);
        }
        let mut row_sums = vec![0.0f64; n_row_blocks];
        let mut col_sums = vec![0.0f64; n_col_blocks];
        let mut total = 0.0f64;
        let mut bit_fold = 0u64;
        for (unit, unit_cells) in cells.chunks(unit_len).enumerate() {
            let row = &mut row_sums[(unit * n_row_blocks / n_units).min(n_row_blocks - 1)];
            for (b, col) in col_sums.iter_mut().enumerate() {
                let end = col_start[b + 1].min(unit_cells.len());
                for c in &unit_cells[col_start[b].min(end)..end] {
                    let mut s = 0.0f64;
                    for l in 0..T::LANES {
                        s += f64::from(c.lane(l));
                        bit_fold = bit_fold.wrapping_add(u64::from(c.lane(l).to_bits()));
                    }
                    *row += s;
                    *col += s;
                    total += s;
                }
            }
        }
        AbftSignature { row_sums, col_sums, total, bit_fold }
    }

    /// Compare against an expected signature within `tol` (absolute, per
    /// entry). `tol = 0.0` demands exact equality — valid for the linear
    /// operators because the simulated datapath is bit-exact against the
    /// reference kernels — and additionally compares the bit folds, which
    /// catch value-preserving upsets (`0.0` → `-0.0`) the sums cannot.
    /// Non-finite sums (NaN from a corrupted exponent) never match.
    pub fn matches(&self, expected: &AbftSignature, tol: f64) -> bool {
        if self.row_sums.len() != expected.row_sums.len()
            || self.col_sums.len() != expected.col_sums.len()
        {
            return false;
        }
        if tol == 0.0 && self.bit_fold != expected.bit_fold {
            return false;
        }
        let ok = |a: f64, b: f64| a.is_finite() && b.is_finite() && (a - b).abs() <= tol;
        if !ok(self.total, expected.total) {
            return false;
        }
        self.row_sums.iter().zip(&expected.row_sums).all(|(&a, &b)| ok(a, b))
            && self.col_sums.iter().zip(&expected.col_sums).all(|(&a, &b)| ok(a, b))
    }
}

/// Cycle cost of one ABFT check: the checksum tree consumes one vector
/// of `v` cells per cycle alongside the output stream.
pub fn abft_check_cycles(cells: u64, v: usize) -> u64 {
    cells.div_ceil(v.max(1) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_mesh::VecN;

    #[test]
    fn identical_states_match_exactly() {
        let cells: Vec<f32> = (0..64).map(|i| (i as f32) * 0.1 - 3.0).collect();
        let a = AbftSignature::compute(&cells, 8);
        let b = AbftSignature::compute(&cells, 8);
        assert!(a.matches(&b, 0.0));
    }

    #[test]
    fn single_cell_corruption_is_detected() {
        let cells: Vec<f32> = (0..64).map(|i| (i as f32) * 0.1 - 3.0).collect();
        let clean = AbftSignature::compute(&cells, 8);
        for victim in [0usize, 17, 63] {
            let mut bad = cells.clone();
            bad[victim] = f32::from_bits(bad[victim].to_bits() ^ (1 << 22));
            let sig = AbftSignature::compute(&bad, 8);
            assert!(!sig.matches(&clean, 0.0), "flip at {victim} must break the signature");
        }
    }

    #[test]
    fn sign_flip_on_zero_is_detected_in_exact_mode() {
        // 0.0 → -0.0 leaves every arithmetic sum unchanged; only the bit
        // fold sees it. This is the RTM wavefield escape: demo inputs are
        // mostly zero, so a window-buffer sign flip lands on a zero cell.
        let cells: Vec<f32> = vec![0.0; 64];
        let clean = AbftSignature::compute(&cells, 8);
        let mut bad = cells.clone();
        bad[13] = -0.0;
        let sig = AbftSignature::compute(&bad, 8);
        assert_eq!(sig.total, clean.total);
        assert!(!sig.matches(&clean, 0.0), "exact mode must catch 0.0 -> -0.0");
        // with a tolerance band (RK4/hardware drift) the bit fold is
        // intentionally not consulted
        assert!(sig.matches(&clean, 1e-9));
    }

    #[test]
    fn nan_corruption_never_matches() {
        let cells: Vec<f32> = vec![1.0; 32];
        let clean = AbftSignature::compute(&cells, 8);
        let mut bad = cells.clone();
        bad[5] = f32::NAN;
        assert!(!AbftSignature::compute(&bad, 8).matches(&clean, 1e9));
    }

    #[test]
    fn tolerance_band_admits_small_drift() {
        let cells: Vec<f32> = vec![2.0; 32];
        let a = AbftSignature::compute(&cells, 8);
        let mut drifted = cells.clone();
        drifted[0] = 2.0 + 1e-6;
        let b = AbftSignature::compute(&drifted, 8);
        assert!(!b.matches(&a, 0.0));
        assert!(b.matches(&a, 1e-3));
    }

    #[test]
    fn vector_lanes_participate_in_sums() {
        let cells: Vec<VecN<2>> = (0..16).map(|i| VecN::new([i as f32, 1.0])).collect();
        let clean = AbftSignature::compute(&cells, 4);
        let mut bad = cells.clone();
        bad[9].set_lane(1, 5.0);
        assert!(!AbftSignature::compute(&bad, 4).matches(&clean, 0.0));
    }

    /// The per-cell definition the unit-by-unit walk must reproduce.
    fn compute_spec<T: Element>(cells: &[T], unit_len: usize) -> AbftSignature {
        let unit_len = unit_len.max(1);
        let n_units = cells.len().div_ceil(unit_len).max(1);
        let n_row_blocks = ABFT_BLOCKS.min(n_units).max(1);
        let n_col_blocks = ABFT_BLOCKS.min(unit_len).max(1);
        let mut row_sums = vec![0.0f64; n_row_blocks];
        let mut col_sums = vec![0.0f64; n_col_blocks];
        let mut total = 0.0f64;
        let mut bit_fold = 0u64;
        for (i, c) in cells.iter().enumerate() {
            let unit = i / unit_len;
            let within = i % unit_len;
            let rb = (unit * n_row_blocks / n_units).min(n_row_blocks - 1);
            let cb = (within * n_col_blocks / unit_len).min(n_col_blocks - 1);
            let mut s = 0.0f64;
            for l in 0..T::LANES {
                s += f64::from(c.lane(l));
                bit_fold = bit_fold.wrapping_add(u64::from(c.lane(l).to_bits()));
            }
            row_sums[rb] += s;
            col_sums[cb] += s;
            total += s;
        }
        AbftSignature { row_sums, col_sums, total, bit_fold }
    }

    /// Bitwise equality of two signatures (`PartialEq` on `f64` equates
    /// `0.0` with `-0.0`).
    fn bits(sig: &AbftSignature) -> (Vec<u64>, Vec<u64>, u64, u64) {
        let b = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        (b(&sig.row_sums), b(&sig.col_sums), sig.total.to_bits(), sig.bit_fold)
    }

    #[test]
    fn unit_walk_matches_the_per_cell_definition_bitwise() {
        // Values of mixed magnitude so that a changed summation order
        // changes the rounded sums.
        let value = |i: usize, l: usize| ((i * 7919 + l * 104_729) % 1000) as f32 * 1.37e-3 - 0.6;
        let scalar: Vec<f32> = (0..1000).map(|i| value(i, 0) * (1 + i % 5) as f32).collect();
        let vector: Vec<VecN<3>> =
            (0..300).map(|i| VecN::new([value(i, 0), value(i, 1) * 1e3, value(i, 2)])).collect();
        // (cells, unit_len): whole units, a ragged last unit, fewer units
        // than blocks, units narrower than the block count, unit_len 0 and
        // 1, a single short unit, and no cells at all.
        let shapes = [
            (1000, 40),
            (1000, 33),
            (999, 100),
            (100, 10),
            (37, 5),
            (64, 1),
            (5, 0),
            (7, 64),
            (0, 8),
            (1000, 17),
            (250, 250),
        ];
        for &(len, unit_len) in &shapes {
            let cells = &scalar[..len];
            let (got, want) =
                (AbftSignature::compute(cells, unit_len), compute_spec(cells, unit_len));
            assert_eq!(bits(&got), bits(&want), "f32 len {len} unit_len {unit_len}");
            let cells = &vector[..len.min(vector.len())];
            let (got, want) =
                (AbftSignature::compute(cells, unit_len), compute_spec(cells, unit_len));
            assert_eq!(bits(&got), bits(&want), "VecN len {} unit_len {unit_len}", cells.len());
        }
    }

    #[test]
    fn check_cycles_scale_with_vector_width() {
        assert_eq!(abft_check_cycles(64, 8), 8);
        assert_eq!(abft_check_cycles(65, 8), 9);
        assert_eq!(abft_check_cycles(10, 0), 10);
    }
}
