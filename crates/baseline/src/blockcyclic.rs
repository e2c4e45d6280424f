//! 2D distribution used by the PGEQRF baseline: cyclic rows, block-cyclic
//! columns.
//!
//! Process `(prow, pcol)` of a `pr × pc` grid owns global rows
//! `{i : i ≡ prow (mod pr)}` and global columns `{j : ⌊j/nb⌋ ≡ pcol (mod pc)}`.
//! Row-cyclic layout keeps panel reflector segments perfectly balanced;
//! column blocks of width `nb` keep each elimination panel on a single
//! process column, exactly as ScaLAPACK does.

use dense::{MatRef, Matrix};

/// Descriptor of the baseline's 2D distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BlockCyclic {
    /// Process-grid rows.
    pub pr: usize,
    /// Process-grid columns.
    pub pc: usize,
    /// Column block width (ScaLAPACK `NB`).
    pub nb: usize,
}

impl BlockCyclic {
    /// Number of local rows of an `m`-row matrix on process row `prow`.
    pub fn local_rows(&self, m: usize, prow: usize) -> usize {
        (m + self.pr - 1 - prow) / self.pr
    }

    /// First local row whose global index is ≥ `g`.
    pub fn local_row_start(&self, g: usize, prow: usize) -> usize {
        (g + self.pr - 1).saturating_sub(prow) / self.pr
    }

    /// Global row of local row `li` on process row `prow`.
    pub fn global_row(&self, li: usize, prow: usize) -> usize {
        li * self.pr + prow
    }

    /// Number of column *blocks* with index `< jb` owned by `pcol`.
    pub fn blocks_before(&self, jb: usize, pcol: usize) -> usize {
        jb / self.pc + usize::from(jb % self.pc > pcol)
    }

    /// Number of local columns of an `n`-column matrix on process column
    /// `pcol` (requires `nb | n`).
    pub fn local_cols(&self, n: usize, pcol: usize) -> usize {
        assert_eq!(n % self.nb, 0, "this layout requires nb | n");
        self.blocks_before(n / self.nb, pcol) * self.nb
    }

    /// Owner process column of global column `j`.
    pub fn col_owner(&self, j: usize) -> usize {
        (j / self.nb) % self.pc
    }

    /// Local column index of global column `j` on its owner.
    pub fn local_col(&self, j: usize) -> usize {
        let jb = j / self.nb;
        (jb / self.pc) * self.nb + j % self.nb
    }

    /// Global column of local column `lj` on process column `pcol`.
    pub fn global_col(&self, lj: usize, pcol: usize) -> usize {
        let lb = lj / self.nb;
        (lb * self.pc + pcol) * self.nb + lj % self.nb
    }

    /// Extracts the local piece of a global matrix (owned or a borrowed
    /// view) for process `(prow, pcol)`.
    pub fn scatter<'a>(&self, global: impl Into<MatRef<'a>>, prow: usize, pcol: usize) -> Matrix {
        let global = global.into();
        let lr = self.local_rows(global.rows(), prow);
        let lc = self.local_cols(global.cols(), pcol);
        Matrix::from_fn(lr, lc, |li, lj| {
            global.at(self.global_row(li, prow), self.global_col(lj, pcol))
        })
    }

    /// Reassembles the global matrix from every process's local piece
    /// (`pieces[prow][pcol]`).
    pub fn assemble(&self, m: usize, n: usize, pieces: &[Vec<Matrix>]) -> Matrix {
        let mut out = Matrix::zeros(m, n);
        for (prow, row) in pieces.iter().enumerate() {
            for (pcol, block) in row.iter().enumerate() {
                for li in 0..block.rows() {
                    for lj in 0..block.cols() {
                        out.set(self.global_row(li, prow), self.global_col(lj, pcol), block.get(li, lj));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_assemble_round_trip() {
        let bc = BlockCyclic { pr: 3, pc: 2, nb: 4 };
        let g = Matrix::from_fn(13, 16, |i, j| (i * 100 + j) as f64);
        let pieces: Vec<Vec<Matrix>> = (0..3).map(|r| (0..2).map(|c| bc.scatter(&g, r, c)).collect()).collect();
        assert_eq!(bc.assemble(13, 16, &pieces), g);
    }

    #[test]
    fn col_mapping_round_trips() {
        let bc = BlockCyclic { pr: 2, pc: 4, nb: 8 };
        for j in 0..64 {
            let owner = bc.col_owner(j);
            let lj = bc.local_col(j);
            assert_eq!(bc.global_col(lj, owner), j);
        }
    }

    #[test]
    fn row_start_is_first_at_least() {
        let bc = BlockCyclic { pr: 4, pc: 1, nb: 1 };
        for prow in 0..4 {
            for g in 0..17 {
                let li = bc.local_row_start(g, prow);
                // li is the first local row with global >= g.
                assert!(bc.global_row(li, prow) >= g);
                if li > 0 {
                    assert!(bc.global_row(li - 1, prow) < g);
                }
            }
        }
    }

    #[test]
    fn blocks_before_counts() {
        let bc = BlockCyclic { pr: 1, pc: 3, nb: 2 };
        // blocks 0,3,6.. -> pcol 0; 1,4,7.. -> 1; 2,5,8.. -> 2.
        assert_eq!(bc.blocks_before(4, 0), 2); // blocks 0, 3
        assert_eq!(bc.blocks_before(4, 1), 1); // block 1
        assert_eq!(bc.blocks_before(4, 2), 1); // block 2
    }
}
