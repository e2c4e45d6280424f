//! Block-partial triangular inverses and the recursive `X = B·R⁻¹` solver.
//!
//! CFR3D returns the inverse of the Cholesky factor in this representation:
//! a binary tree whose `Full` leaves hold (the local cyclic pieces of) fully
//! inverted diagonal blocks `Yᵢᵢ = Lᵢᵢ⁻¹`, and whose `Split` nodes — present
//! only in the top `InverseDepth` levels — hold the subdiagonal panel `L₂₁`
//! *uninverted*. With `InverseDepth = 0` the tree is a single `Full` leaf
//! (the paper's default: explicit `L⁻¹`).
//!
//! Applying `R⁻¹ = (Lᵀ)⁻¹ = Yᵀ` from the right then recurses over the tree:
//!
//! ```text
//! [X₁ X₂] = [B₁ B₂]·Yᵀ:   X₁ = B₁·Y₁₁ᵀ
//!                          X₂ = (B₂ − X₁·L₂₁ᵀ)·Y₂₂ᵀ
//! ```
//!
//! each product being an MM3D over the cube — this is exactly the paper's
//! alternative strategy of "computing triangular inverted blocks of dimension
//! n₀ and solving for Q with multiple instances of MM3D" (§III-A). It also
//! serves CFR3D's own recursion: `L₂₁ ← A₂₁·Y₁₁ᵀ` is the same operation.
//!
//! # Workspace contract
//!
//! Every matrix inside an `InvTree` built by [`crate::cfr3d()`] is
//! workspace-backed, as is every matrix [`InvTree::apply_rinv`] returns.
//! When a tree dies, hand it to [`InvTree::recycle_into`] so its storage
//! returns to the arena instead of the allocator — that is what keeps
//! repeated CA-CQR2 factorizations allocation-free at the workspace layer.

use crate::mm3d::{mm3d, mm3d_scaled, transpose_cube};
use dense::{BackendKind, MatRef, Matrix, Workspace};
use pargrid::CubeComms;
use simgrid::Rank;

/// A (possibly block-partial) inverse of a lower-triangular matrix,
/// distributed cyclically over a cube. See module docs.
#[derive(Clone, Debug)]
pub enum InvTree {
    /// Fully inverted block: the local piece of `Y = L⁻¹` for a `dim × dim`
    /// global block.
    Full {
        /// Global dimension of the block.
        dim: usize,
        /// Local cyclic piece of `Y`.
        y: Matrix,
    },
    /// Partially inverted block: children inverses plus the uninverted
    /// subdiagonal panel.
    Split {
        /// Global dimension of the block.
        dim: usize,
        /// Inverse of the leading diagonal block (`dim/2`).
        y11: Box<InvTree>,
        /// Inverse of the trailing diagonal block (`dim/2`).
        y22: Box<InvTree>,
        /// Local cyclic piece of the subdiagonal panel `L₂₁` (`dim/2 × dim/2`).
        l21: Matrix,
    },
}

impl InvTree {
    /// Consumes the tree, parking every matrix it owns back into the
    /// workspace. Call this when a factorization pass is done with its
    /// inverse — the storage funds the next pass's temporaries.
    pub fn recycle_into(self, ws: &mut Workspace) {
        match self {
            InvTree::Full { y, .. } => ws.recycle(y),
            InvTree::Split { y11, y22, l21, .. } => {
                y11.recycle_into(ws);
                y22.recycle_into(ws);
                ws.recycle(l21);
            }
        }
    }

    /// Computes `X = B·R⁻¹ = B·Yᵀ` (with `R = Lᵀ` upper triangular), where
    /// `b` is this rank's local piece (any view) of a matrix whose columns
    /// are cyclic over the cube. Collective over the cube; the MM3D local
    /// products go through the given kernel backend. The returned matrix is
    /// workspace-backed.
    pub fn apply_rinv(
        &self,
        rank: &mut Rank,
        cube: &CubeComms,
        b: MatRef<'_>,
        backend: BackendKind,
        ws: &mut Workspace,
    ) -> Matrix {
        match self {
            InvTree::Full { y, .. } => {
                let yt = transpose_cube(rank, cube, y, ws);
                let out = mm3d_scaled(rank, cube, 1.0, b, &yt, backend, ws);
                ws.recycle(yt);
                out
            }
            InvTree::Split { y11, y22, l21, .. } => {
                let (lr, lc) = (b.rows(), b.cols());
                let hl = lc / 2; // local width of each half (columns cyclic over c)
                                 // X₁ = B₁·Y₁₁ᵀ
                let x1 = y11.apply_rinv(rank, cube, b.sub(0, 0, lr, hl), backend, ws);
                // X₂ = (B₂ − X₁·L₂₁ᵀ)·Y₂₂ᵀ
                let l21t = transpose_cube(rank, cube, l21, ws);
                let t = mm3d(rank, cube, &x1, &l21t, backend, ws);
                ws.recycle(l21t);
                let mut b2c = ws.take_copy(b.sub(0, hl, lr, lc - hl));
                for (x, y) in b2c.data_mut().iter_mut().zip(t.data()) {
                    *x -= y;
                }
                ws.recycle(t);
                rank.charge_flops(dense::flops::axpy(lr, lc - hl));
                let x2 = y22.apply_rinv(rank, cube, b2c.as_ref(), backend, ws);
                ws.recycle(b2c);
                // Concatenate local column halves.
                let mut out = ws.take_matrix_stale(lr, lc);
                out.view_mut(0, 0, lr, hl).copy_from(x1.as_ref());
                out.view_mut(0, hl, lr, lc - hl).copy_from(x2.as_ref());
                ws.recycle(x1);
                ws.recycle(x2);
                out
            }
        }
    }
}
