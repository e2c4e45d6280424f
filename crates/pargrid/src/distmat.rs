//! Distributed matrices: a local cyclic block plus its descriptor.
//!
//! A [`DistMatrix`] describes the 2D cyclic layout of the paper: for a grid
//! slice with `rp` row-processors and `cp` column-processors, processor
//! `(pr, pc)` owns global entries `(i, j)` with `i ≡ pr (mod rp)` and
//! `j ≡ pc (mod cp)`, stored as a dense `⌈m/rp⌉ × ⌈n/cp⌉` local block with
//! local index `(i / rp, j / cp)`.
//!
//! The replication dimension (`z`, and the `d/c` y-groups for `n × n`
//! intermediates) is *not* part of the descriptor — replicas simply hold
//! identical `DistMatrix` values, which tests assert.

use crate::window::CyclicWindows;
use dense::{MatMut, MatRef, Matrix};

/// Copies the `(my_r, my_c)` cyclic piece of `global` into `local`, a row at
/// a time: whole row slices when the columns are not split, strided runs
/// otherwise.
fn gather_piece(global: MatRef<'_>, rp: usize, cp: usize, my_r: usize, my_c: usize, mut local: MatMut<'_>) {
    let rows = global.step_rows(my_r, rp);
    for li in 0..local.rows() {
        let (dst, src) = (local.row_mut(li), rows.row(li));
        if cp == 1 {
            dst.copy_from_slice(src);
        } else {
            for (d, s) in dst.iter_mut().zip(src.iter().skip(my_c).step_by(cp)) {
                *d = *s;
            }
        }
    }
}

/// A cyclically distributed dense matrix (one processor's view).
#[derive(Clone, Debug, PartialEq)]
pub struct DistMatrix {
    /// The local block.
    pub local: Matrix,
    /// Global row count.
    pub grows: usize,
    /// Global column count.
    pub gcols: usize,
    /// Row-processor count of the distribution.
    pub rp: usize,
    /// Column-processor count of the distribution.
    pub cp: usize,
    /// This processor's row coordinate in `[0, rp)`.
    pub my_r: usize,
    /// This processor's column coordinate in `[0, cp)`.
    pub my_c: usize,
}

impl DistMatrix {
    /// Local block dimensions for a given global size and distribution.
    pub fn local_dims(grows: usize, gcols: usize, rp: usize, cp: usize, my_r: usize, my_c: usize) -> (usize, usize) {
        (
            crate::dist::local_count(grows, my_r, rp),
            crate::dist::local_count(gcols, my_c, cp),
        )
    }

    /// A zero-initialized distributed matrix.
    pub fn zeros(grows: usize, gcols: usize, rp: usize, cp: usize, my_r: usize, my_c: usize) -> DistMatrix {
        let (lr, lc) = Self::local_dims(grows, gcols, rp, cp, my_r, my_c);
        DistMatrix {
            local: Matrix::zeros(lr, lc),
            grows,
            gcols,
            rp,
            cp,
            my_r,
            my_c,
        }
    }

    /// Extracts this processor's cyclic piece of a (replicated) global matrix.
    pub fn from_global(global: &Matrix, rp: usize, cp: usize, my_r: usize, my_c: usize) -> DistMatrix {
        let (grows, gcols) = (global.rows(), global.cols());
        let (lr, lc) = Self::local_dims(grows, gcols, rp, cp, my_r, my_c);
        let mut local = Matrix::zeros(lr, lc);
        gather_piece(global.as_ref(), rp, cp, my_r, my_c, local.as_mut());
        DistMatrix {
            local,
            grows,
            gcols,
            rp,
            cp,
            my_r,
            my_c,
        }
    }

    /// Extracts this processor's cyclic piece of a global matrix (or view)
    /// into **workspace-backed** storage (just the local block — the
    /// descriptor fields are implied by the arguments). A rank needs this
    /// packed copy only when the columns are split (`cp > 1`); a row-cyclic
    /// block is [`MatRef::step_rows`] of the global matrix, in place.
    /// Recycle the returned matrix into the same pool when done.
    pub fn local_from_global<'g>(
        global: impl Into<MatRef<'g>>,
        rp: usize,
        cp: usize,
        my_r: usize,
        my_c: usize,
        ws: &mut dense::Workspace,
    ) -> Matrix {
        let global = global.into();
        let (lr, lc) = Self::local_dims(global.rows(), global.cols(), rp, cp, my_r, my_c);
        let mut local = ws.take_matrix_stale(lr, lc);
        gather_piece(global, rp, cp, my_r, my_c, local.as_mut());
        local
    }

    /// Whether `piece` is bitwise the `(my_r, my_c)` cyclic piece of `global`
    /// — [`local_from_global`](DistMatrix::local_from_global) without the
    /// copy, compared a row run at a time. The drivers check replicas against
    /// the deposited output with it.
    pub fn holds_piece(global: MatRef<'_>, rp: usize, cp: usize, my_r: usize, my_c: usize, piece: MatRef<'_>) -> bool {
        let rows = global.step_rows(my_r, rp);
        rows.rows() == piece.rows()
            && (0..piece.rows()).all(|li| rows.row(li).iter().skip(my_c).step_by(cp).eq(piece.row(li)))
    }

    /// Reassembles a global matrix from every processor's piece (test/driver
    /// helper; `pieces[r][c]` is the local block of processor `(r, c)`).
    pub fn assemble(grows: usize, gcols: usize, rp: usize, cp: usize, pieces: &[Vec<Matrix>]) -> Matrix {
        assert_eq!(pieces.len(), rp);
        let mut out = Matrix::zeros(grows, gcols);
        let windows = CyclicWindows::split(out.data_mut(), grows, gcols, rp, cp);
        for (r, row) in pieces.iter().enumerate() {
            assert_eq!(row.len(), cp);
            for (c, block) in row.iter().enumerate() {
                windows.take(r, c).deposit(block.as_ref());
            }
        }
        drop(windows);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_matrix(m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |i, j| (i * 100 + j) as f64)
    }

    #[test]
    fn scatter_gather_round_trip() {
        let g = test_matrix(12, 8);
        let (rp, cp) = (4, 2);
        let pieces: Vec<Vec<Matrix>> = (0..rp)
            .map(|r| {
                (0..cp)
                    .map(|c| DistMatrix::from_global(&g, rp, cp, r, c).local)
                    .collect()
            })
            .collect();
        let re = DistMatrix::assemble(12, 8, rp, cp, &pieces);
        assert_eq!(re, g);
    }

    #[test]
    fn holds_piece_accepts_exactly_the_owners_piece() {
        let g = test_matrix(7, 5);
        for (r, c) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
            let mut piece = DistMatrix::from_global(&g, 2, 2, r, c).local;
            assert!(DistMatrix::holds_piece(g.as_ref(), 2, 2, r, c, piece.as_ref()));
            assert!(!DistMatrix::holds_piece(g.as_ref(), 2, 2, 1 - r, c, piece.as_ref()));
            let last = (piece.rows() - 1, piece.cols() - 1);
            piece.set(last.0, last.1, -1.0);
            assert!(!DistMatrix::holds_piece(g.as_ref(), 2, 2, r, c, piece.as_ref()));
        }
    }

    #[test]
    fn local_dims_divide_evenly() {
        let d = DistMatrix::zeros(16, 8, 4, 2, 1, 1);
        assert_eq!((d.local.rows(), d.local.cols()), (4, 4));
    }

    #[test]
    fn local_from_global_matches_from_global_and_recycles() {
        let g = test_matrix(9, 6);
        let mut ws = dense::Workspace::new();
        for _ in 0..3 {
            let local = DistMatrix::local_from_global(&g, 3, 2, 2, 1, &mut ws);
            assert_eq!(local, DistMatrix::from_global(&g, 3, 2, 2, 1).local);
            ws.recycle(local);
        }
        assert_eq!(ws.heap_allocations(), 1, "warm extraction must not allocate");
    }

    #[test]
    fn uneven_sizes_are_supported() {
        let g = test_matrix(7, 5);
        let (rp, cp) = (2, 2);
        let pieces: Vec<Vec<Matrix>> = (0..rp)
            .map(|r| {
                (0..cp)
                    .map(|c| DistMatrix::from_global(&g, rp, cp, r, c).local)
                    .collect()
            })
            .collect();
        assert_eq!(pieces[0][0].rows(), 4); // rows 0,2,4,6
        assert_eq!(pieces[1][0].rows(), 3); // rows 1,3,5
        let re = DistMatrix::assemble(7, 5, rp, cp, &pieces);
        assert_eq!(re, g);
    }
}
