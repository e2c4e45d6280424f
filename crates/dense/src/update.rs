//! Rank-k row-append / row-downdate kernels for an upper-triangular factor.
//!
//! These are the dense building blocks of the streaming QR subsystem
//! (`cacqr::stream`). Both operate on the `R` factor alone, exploiting the
//! CholeskyQR identity that `R` is determined by the Gram matrix, and both
//! are spelled in the backend's level-3 kernels — the same Gram → Cholesky →
//! triangular-product shape as the batch algorithms:
//!
//! * [`rank_k_append`] — given `R` with `RᵀR = AᵀA` and a block `B` of `k`
//!   new rows, replaces `R` by `R'` with `R'ᵀR' = RᵀR + BᵀB`: one blocked
//!   SYRK over the stack `[B; R]`, re-factored by `potrf_upper`.
//!   Cost `O(kn² + n³)` — independent of the row count `m` already folded in.
//! * [`rank_k_downdate`] — removes `k` previously appended rows, in panels
//!   of at most `n` rows, by the block downdate:
//!   1. `W = B·R⁻¹` (right triangular solve; row `j` of `W` is the vector
//!      `a = R⁻ᵀx` a row-at-a-time LINPACK `dchdd` sweep would solve for).
//!   2. `T = I_k − W·Wᵀ = L_T·L_Tᵀ`. Removing rows one at a time, row `j`'s
//!      pivot is `α_j² = 1 − w_jᵀ(I − W_{<j}ᵀW_{<j})⁻¹w_j
//!      = det(I − W_{≤j}W_{≤j}ᵀ) / det(I − W_{<j}W_{<j}ᵀ)` — the `j`-th
//!      Schur-complement pivot of `T`, i.e. `L_T[j][j]²`. So the Cholesky of
//!      `T` yields every sequential `α²`, and breaks down at exactly the row
//!      that would make the shrunk Gram matrix indefinite, reported as a
//!      typed [`UpdateError::DowndateIndefinite`] instead of a garbage
//!      factor.
//!   3. `S = I_n − Wᵀ·W = L·Lᵀ` and `R' = Lᵀ·R`, since
//!      `R'ᵀR' = Rᵀ(I − WᵀW)R = RᵀR − BᵀB`.
//!
//!   Each Gram → Cholesky → product chain stays in the upper triangle, where
//!   `Lᵀ` is wanted, so no step mirrors or transposes.
//!
//!   Both Cholesky factorizations act on `I − (·)` with norm at most 1, so
//!   the rounding error of the result is amplified by `1/min α²` only —
//!   never by `κ(R)²`; that pivot is what the kernel returns.
//!
//! Both kernels are **transactional** (on error `r` is left untouched),
//! **deterministic** (every product is a thread-count-invariant backend
//! kernel), and **allocation-free when warm** (all scratch drawn from the
//! caller's [`Workspace`] arena; the `Blocked` solves and the triangular
//! product draw theirs from the thread-local arena).
//!
//! Every step of both chains runs on the `Blocked` backend's 8-row tile
//! where its flops are: the Grams (`[B; R]`'s packed straight from `B` and
//! `R`, `W·Wᵀ` and `WᵀW` as upper-triangle SYRKs), the Cholesky's trailing
//! updates, the off-diagonal blocks of the `W = B·R⁻¹` solve, and the
//! `Lᵀ·R` product ([`trmm_upper_upper`]), which the last downdate panel
//! writes straight into `r`. The rest — the Cholesky's 32-row block
//! sweeps and the solve's diagonal blocks — runs independent elements in
//! SIMD lanes in the loop form's order, so an update's bits do not depend
//! on the instruction set.

use crate::backend::blocked::{isa, trmm_upper_upper_with_isa};
use crate::backend::Backend;
use crate::cholesky::{potrf_upper, CholeskyError};
use crate::matrix::{MatMut, MatRef, Matrix};
use crate::trsm::trmm_upper_upper;
use crate::workspace::Workspace;

/// Typed failure of a rank-k factor update.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UpdateError {
    /// The update block's column count does not match the factor's order.
    ShapeMismatch {
        /// Order of the square factor `R`.
        order: usize,
        /// Rows of the offending update block.
        rows: usize,
        /// Columns of the offending update block.
        cols: usize,
    },
    /// The appended Gram matrix lost positive definiteness during
    /// re-factorization (numerically rank-deficient row set).
    NotPositiveDefinite(CholeskyError),
    /// Downdating by row `row` of the block would make the Gram matrix
    /// indefinite: the rows being removed are not (numerically) contained
    /// in the factored row set.
    DowndateIndefinite {
        /// Index within the update block of the first offending row.
        row: usize,
        /// The downdate pivot `α² = 1 − ‖R⁻ᵀx‖²` (`R` already shrunk by the
        /// block's earlier rows) that should have been positive. The more
        /// negative, the further the row is from the factored set.
        deficiency: f64,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::ShapeMismatch { order, rows, cols } => write!(
                f,
                "update block is {rows}x{cols} but the factor is {order}x{order} \
                 (column counts must match)"
            ),
            UpdateError::NotPositiveDefinite(e) => {
                write!(f, "appended Gram matrix is not positive definite: {e}")
            }
            UpdateError::DowndateIndefinite { row, deficiency } => write!(
                f,
                "downdate row {row} leaves the factor indefinite (alpha^2 = {deficiency:.3e}); \
                 the removed rows are not part of the factored row set"
            ),
        }
    }
}

impl std::error::Error for UpdateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UpdateError::NotPositiveDefinite(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CholeskyError> for UpdateError {
    fn from(e: CholeskyError) -> Self {
        UpdateError::NotPositiveDefinite(e)
    }
}

fn check_block(order: usize, b: MatRef<'_>) -> Result<(), UpdateError> {
    if b.cols() != order {
        return Err(UpdateError::ShapeMismatch {
            order,
            rows: b.rows(),
            cols: b.cols(),
        });
    }
    Ok(())
}

/// Appends `k = b.rows()` rows to the factorization: replaces the upper
/// triangular `r` by `R'` with `R'ᵀR' = RᵀR + BᵀB`.
///
/// The updated Gram matrix is one backend SYRK over the stack `[B; R]`
/// ([`Backend::stacked_gram_upper_into`], which reads only `r`'s upper
/// triangle and, on `Blocked`, packs straight from `b` and `r`),
/// re-factored with `potrf_upper`. `R` goes below `B` so each packed column
/// panel of the stack ends in `R`'s zero triangle, which the SYRK tiles
/// skip. On success
/// `r` holds `R'` (upper triangular, positive diagonal); on error `r` is
/// left **unchanged**. All scratch, a built stack included, comes from
/// `ws`: warm calls on `Blocked` perform zero heap allocations.
pub fn rank_k_append(
    mut r: MatMut<'_>,
    b: MatRef<'_>,
    backend: &dyn Backend,
    ws: &mut Workspace,
) -> Result<(), UpdateError> {
    let n = r.rows();
    assert_eq!(r.cols(), n, "factor must be square");
    check_block(n, b)?;
    if b.rows() == 0 {
        return Ok(());
    }
    let mut g = ws.take_matrix_stale(n, n);
    backend.stacked_gram_upper_into(b, r.rb(), g.as_mut(), ws);
    let factored = potrf_upper(g.as_mut(), backend);
    if factored.is_ok() {
        // R' = Lᵀ, written back transactionally only on success.
        r.copy_from(g.as_ref());
    }
    ws.recycle(g);
    Ok(factored?)
}

/// Removes `k = b.rows()` previously appended rows from the factorization:
/// replaces `r` by `R'` with `R'ᵀR' = RᵀR − BᵀB`, by the block downdate of
/// the [module docs](self) applied to panels of at most `n` rows (so no
/// scratch matrix outgrows `n × n`).
///
/// Returns the smallest pivot `α² = 1 − ‖R⁻ᵀx‖²` observed across the block
/// — a direct conditioning signal: `1/α²` bounds the error amplification of
/// the downdate, and `α² ≤ 0` means the downdated Gram matrix is no longer
/// positive definite, reported as [`UpdateError::DowndateIndefinite`]. The
/// panels run on arena copies and commit only on success, so on error `r` is
/// left **unchanged** even when an earlier panel was already applied. On
/// success `r` is upper triangular with a positive diagonal.
pub fn rank_k_downdate(
    mut r: MatMut<'_>,
    b: MatRef<'_>,
    backend: &dyn Backend,
    ws: &mut Workspace,
) -> Result<f64, UpdateError> {
    let n = r.rows();
    assert_eq!(r.cols(), n, "factor must be square");
    check_block(n, b)?;
    if b.rows() == 0 || n == 0 {
        return Ok(1.0);
    }
    // Each panel's factor `Lᵀ` multiplies the factor so far: into arena
    // scratch while panels remain, and straight into `r` (in place, for a
    // one-panel block) for the last, after which nothing can fail — so `r`
    // changes only once every panel has succeeded.
    let (mut done, mut least_alpha_sq): (Option<Matrix>, f64) = (None, 1.0);
    for first in (0..b.rows()).step_by(n) {
        let panel = b.sub(first, 0, n.min(b.rows() - first), n);
        let from = done.as_ref().map_or(r.rb(), Matrix::as_ref);
        let (alpha_sq, s) = match downdate_panel(from, panel, backend, ws) {
            Ok(factored) => factored,
            Err((row, deficiency)) => {
                if let Some(m) = done {
                    ws.recycle(m);
                }
                return Err(UpdateError::DowndateIndefinite {
                    row: first + row,
                    deficiency,
                });
            }
        };
        least_alpha_sq = least_alpha_sq.min(alpha_sq);
        match (first + n >= b.rows(), done.take()) {
            (true, None) => trmm_upper_upper_with_isa(isa(), s.as_ref(), None, r.rb_mut()),
            (true, Some(prev)) => {
                trmm_upper_upper(s.as_ref(), prev.as_ref(), r.rb_mut());
                ws.recycle(prev);
            }
            (false, prev) => {
                let mut next = ws.take_matrix_stale(n, n);
                trmm_upper_upper(s.as_ref(), prev.as_ref().map_or(r.rb(), Matrix::as_ref), next.as_mut());
                if let Some(m) = prev {
                    ws.recycle(m);
                }
                done = Some(next);
            }
        }
        ws.recycle(s);
    }
    Ok(least_alpha_sq)
}

/// `G ← I − G` on the upper triangle, the one `potrf_upper` reads.
fn identity_minus(mut g: MatMut<'_>) {
    for i in 0..g.rows() {
        let row = &mut g.row_mut(i)[i..];
        for v in row.iter_mut() {
            *v = -*v;
        }
        row[0] += 1.0;
    }
}

/// One panel (`k ≤ n` rows) of the block downdate: returns the panel's
/// smallest `α²` and, in arena scratch, the factor `Lᵀ` of `S = I − WᵀW`
/// that the shrunk factor `Lᵀ·R` takes, or the offending row and its pivot.
/// A breakdown in the second Cholesky (`S`, which is positive definite
/// exactly when `T` is) can only be rounding at `α² ≈ 0`; it is attributed
/// to the row whose pivot was smallest.
fn downdate_panel(
    r: MatRef<'_>,
    b: MatRef<'_>,
    backend: &dyn Backend,
    ws: &mut Workspace,
) -> Result<(f64, Matrix), (usize, f64)> {
    let (n, k) = (r.rows(), b.rows());
    let mut w = ws.take_copy(b);
    backend.trsm_right_upper(r, w.as_mut());
    let mut t = ws.take_matrix_stale(k, k);
    backend.gram_rows_upper_into(w.as_ref(), t.as_mut());
    identity_minus(t.as_mut());
    let mut s = ws.take_matrix_stale(n, n);
    let result = potrf_upper(t.as_mut(), backend)
        .map_err(|e| (e.index, e.pivot))
        .and_then(|()| {
            let (row, alpha_sq) =
                (0..k)
                    .map(|j| (j, t.get(j, j) * t.get(j, j)))
                    .fold(
                        (0, f64::INFINITY),
                        |least, pivot| if pivot.1 < least.1 { pivot } else { least },
                    );
            backend.syrk_upper_into(w.as_ref(), s.as_mut());
            identity_minus(s.as_mut());
            potrf_upper(s.as_mut(), backend).map_err(|e| (row, e.pivot))?;
            Ok(alpha_sq)
        });
    ws.recycle(t);
    ws.recycle(w);
    match result {
        Ok(alpha_sq) => Ok((alpha_sq, s)),
        Err(e) => {
            ws.recycle(s);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{rank_k_append, UpdateError, Workspace};
    use crate::backend::BackendKind;
    use crate::matrix::Matrix;
    use crate::random::{gaussian_matrix, well_conditioned};
    use crate::syrk::syrk;
    use crate::{potrf, rank_k_downdate};

    /// Upper factor of AᵀA, the CholeskyQR way: R = chol(AᵀA)ᵀ.
    fn r_of(a: &Matrix) -> Matrix {
        let mut g = syrk(a.as_ref());
        potrf(g.as_mut()).expect("well-conditioned Gram");
        g.transposed()
    }

    fn concat(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.cols());
        let mut out = Matrix::zeros(a.rows() + b.rows(), a.cols());
        out.view_mut(0, 0, a.rows(), a.cols()).copy_from(a.as_ref());
        out.view_mut(a.rows(), 0, b.rows(), b.cols()).copy_from(b.as_ref());
        out
    }

    fn assert_close(got: &Matrix, want: &Matrix, tol: f64) {
        for (u, v) in got.data().iter().zip(want.data()) {
            assert!((u - v).abs() < tol * (1.0 + v.abs()), "{u} vs {v}");
        }
    }

    #[test]
    fn append_matches_from_scratch_factor() {
        for &(m, n, k) in &[(96, 24, 8), (40, 40, 1), (200, 31, 64)] {
            let a = well_conditioned(m, n, 11);
            let b = gaussian_matrix(k, n, 17);
            let mut r = r_of(&a);
            let backend = BackendKind::default_kind().get();
            let mut ws = Workspace::new();
            rank_k_append(r.as_mut(), b.as_ref(), backend, &mut ws).unwrap();
            let want = r_of(&concat(&a, &b));
            assert_close(&r, &want, 1e-9);
            assert_eq!(ws.takes(), ws.recycles(), "arena stays balanced");
        }
    }

    #[test]
    fn append_is_warm_allocation_free_across_block_sizes() {
        // n = 96 takes two block rows of the blocked Cholesky (a trailing
        // gemm), n = 32 one. `Naive` builds the stack `[B; R]` in the arena.
        for kind in BackendKind::ALL {
            for &n in &[32usize, 96] {
                let a = well_conditioned(2 * n, n, 5);
                let b = gaussian_matrix(8, n, 6);
                let mut r = r_of(&a);
                let backend = kind.get();
                let mut ws = Workspace::new();
                rank_k_append(r.as_mut(), b.as_ref(), backend, &mut ws).unwrap();
                let (cold, takes) = (ws.heap_allocations(), ws.takes());
                for _ in 0..3 {
                    rank_k_append(r.as_mut(), b.as_ref(), backend, &mut ws).unwrap();
                }
                assert_eq!(
                    ws.heap_allocations(),
                    cold,
                    "{kind}: warm appends draw from the arena (n={n})"
                );
                let per_append = match kind {
                    BackendKind::Blocked => 1, // the Gram
                    BackendKind::Naive => 2,   // the Gram and the stack
                };
                assert_eq!(ws.takes() - takes, 3 * per_append, "{kind}: arena takes (n={n})");
                assert_eq!(ws.takes(), ws.recycles(), "{kind}: arena stays balanced (n={n})");
            }
        }
    }

    #[test]
    fn downdate_undoes_append() {
        let (m, n, k) = (128, 24, 8);
        let a = well_conditioned(m, n, 3);
        let b = gaussian_matrix(k, n, 4);
        let r0 = r_of(&a);
        let mut r = r0.clone();
        let backend = BackendKind::default_kind().get();
        let mut ws = Workspace::new();
        rank_k_append(r.as_mut(), b.as_ref(), backend, &mut ws).unwrap();
        let alpha_sq = rank_k_downdate(r.as_mut(), b.as_ref(), &mut ws).unwrap();
        assert!(alpha_sq > 0.0 && alpha_sq <= 1.0, "pivot {alpha_sq}");
        assert_close(&r, &r0, 1e-8);
        assert_eq!(ws.takes(), ws.recycles());
    }

    #[test]
    fn downdate_of_foreign_rows_is_indefinite_and_transactional() {
        let n = 16;
        let a = well_conditioned(64, n, 9);
        let r0 = r_of(&a);
        let mut r = r0.clone();
        // A row far outside the factored set: norm much larger than any
        // column of A.
        let huge = Matrix::from_fn(1, n, |_, j| 1e6 * (j + 1) as f64);
        let mut ws = Workspace::new();
        let err = rank_k_downdate(r.as_mut(), huge.as_ref(), &mut ws).unwrap_err();
        match err {
            UpdateError::DowndateIndefinite { row, deficiency } => {
                assert_eq!(row, 0);
                assert!(deficiency <= 0.0);
            }
            other => panic!("expected DowndateIndefinite, got {other:?}"),
        }
        assert_eq!(r.data(), r0.data(), "failed downdate must not touch R");
        assert_eq!(ws.takes(), ws.recycles(), "error path recycles its scratch");
    }

    #[test]
    fn multi_row_downdate_failure_rolls_back_earlier_rows() {
        let n = 12;
        let a = well_conditioned(48, n, 21);
        let b = gaussian_matrix(2, n, 22);
        let mut r = r_of(&a);
        let backend = BackendKind::default_kind().get();
        let mut ws = Workspace::new();
        rank_k_append(r.as_mut(), b.as_ref(), backend, &mut ws).unwrap();
        let before = r.clone();
        // First row of the block is genuinely removable, second is foreign:
        // the sweep applies row 0 to its scratch copy, then must roll back.
        let mut block = Matrix::zeros(2, n);
        block.view_mut(0, 0, 1, n).copy_from(b.view(0, 0, 1, n));
        for j in 0..n {
            block.set(1, j, 1e7);
        }
        let err = rank_k_downdate(r.as_mut(), block.as_ref(), &mut ws).unwrap_err();
        assert!(matches!(err, UpdateError::DowndateIndefinite { row: 1, .. }), "{err:?}");
        assert_eq!(r.data(), before.data(), "partial sweep must not leak into R");
    }

    #[test]
    fn shape_mismatch_is_typed() {
        let mut r = Matrix::identity(8);
        let b = Matrix::zeros(3, 5);
        let backend = BackendKind::default_kind().get();
        let mut ws = Workspace::new();
        let err = rank_k_append(r.as_mut(), b.as_ref(), backend, &mut ws).unwrap_err();
        assert_eq!(
            err,
            UpdateError::ShapeMismatch {
                order: 8,
                rows: 3,
                cols: 5
            }
        );
        let err = rank_k_downdate(r.as_mut(), b.as_ref(), &mut ws).unwrap_err();
        assert!(matches!(err, UpdateError::ShapeMismatch { .. }));
    }

    #[test]
    fn append_failure_leaves_factor_untouched() {
        // A singular "factor" makes the accumulated Gram matrix exactly
        // rank-deficient, so re-factorization must fail …
        let n = 8;
        let mut r = Matrix::zeros(n, n);
        for i in 1..n {
            r.set(i, i, 1.0);
        }
        r.set(0, 3, 2.5);
        let before = r.clone();
        let b = Matrix::zeros(2, n);
        let backend = BackendKind::default_kind().get();
        let mut ws = Workspace::new();
        let err = rank_k_append(r.as_mut(), b.as_ref(), backend, &mut ws).unwrap_err();
        assert!(matches!(err, UpdateError::NotPositiveDefinite(_)), "{err:?}");
        // … and the original factor survives bitwise.
        assert_eq!(r.data(), before.data());
        assert_eq!(ws.takes(), ws.recycles());
    }

    #[test]
    fn empty_blocks_are_no_ops() {
        let a = well_conditioned(32, 8, 2);
        let mut r = r_of(&a);
        let before = r.clone();
        let b = Matrix::zeros(0, 8);
        let backend = BackendKind::default_kind().get();
        let mut ws = Workspace::new();
        rank_k_append(r.as_mut(), b.as_ref(), backend, &mut ws).unwrap();
        assert_eq!(rank_k_downdate(r.as_mut(), b.as_ref(), &mut ws).unwrap(), 1.0);
        assert_eq!(r.data(), before.data());
    }

    /// The LINPACK `dchdd` row-at-a-time sweep the block downdate replaced:
    /// per removed row, solve `Rᵀa = x`, test `α² = 1 − ‖a‖²`, and apply the
    /// bottom-up rotations column by column. Kept only as the reference for
    /// the pivots, the failing row and the factor.
    fn dchdd_reference(r: &mut Matrix, b: &Matrix) -> Result<f64, UpdateError> {
        let n = r.rows();
        let mut work = r.clone();
        let (mut a, mut c, mut s) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        let mut min_alpha_sq = 1.0_f64;
        for row in 0..b.rows() {
            let x = b.as_ref().row(row);
            for i in 0..n {
                let mut t = x[i];
                for k in 0..i {
                    t -= work.get(k, i) * a[k];
                }
                a[i] = t / work.get(i, i);
            }
            let alpha_sq = 1.0 - a.iter().map(|v| v * v).sum::<f64>();
            if alpha_sq.is_nan() || alpha_sq <= 0.0 {
                return Err(UpdateError::DowndateIndefinite {
                    row,
                    deficiency: alpha_sq,
                });
            }
            min_alpha_sq = min_alpha_sq.min(alpha_sq);
            let mut alpha = alpha_sq.sqrt();
            for i in (0..n).rev() {
                let scale = alpha + a[i].abs();
                let (aa, bb) = (alpha / scale, a[i] / scale);
                let nrm = (aa * aa + bb * bb).sqrt();
                c[i] = aa / nrm;
                s[i] = bb / nrm;
                alpha = scale * nrm;
            }
            for j in 0..n {
                let mut xx = 0.0;
                for i in (0..=j).rev() {
                    let t = c[i] * xx + s[i] * work.get(i, j);
                    work.set(i, j, c[i] * work.get(i, j) - s[i] * xx);
                    xx = t;
                }
            }
        }
        for i in 0..n {
            if work.get(i, i) < 0.0 {
                for j in i..n {
                    work.set(i, j, -work.get(i, j));
                }
            }
        }
        *r = work;
        Ok(min_alpha_sq)
    }

    /// The first `k` rows of a `κ`-conditioned matrix, scaled by `scale`
    /// (large scales shrink `α²` without touching `κ`), and the factor of the
    /// whole row set.
    fn block_and_factor(n: usize, k: usize, kappa: f64, scale: f64) -> (Matrix, Matrix) {
        let mut full = crate::random::matrix_with_condition(4 * n + 8 + k, n, kappa, 7 + n as u64);
        for v in &mut full.data_mut()[..k * n] {
            *v *= scale;
        }
        let block = Matrix::from_view(full.view(0, 0, k, n));
        let (_, mut r) = crate::householder::qr(&full);
        crate::norms::normalize_qr_signs(&mut Matrix::zeros(0, n), &mut r);
        (block, r)
    }

    #[test]
    fn block_downdate_agrees_with_the_dchdd_sweep() {
        let mut ws = Workspace::new();
        for &n in &[1usize, 7, 64, 65, 128] {
            for &k in &[1usize, 8, 64, n + 3] {
                for &kappa in &[1.0, 1e3] {
                    for &scale in &[1.0, 30.0] {
                        let (block, r0) = block_and_factor(n, k, kappa, scale);
                        let (mut blocked, mut swept) = (r0.clone(), r0.clone());
                        let got = rank_k_downdate(blocked.as_mut(), block.as_ref(), &mut ws).unwrap();
                        let want = dchdd_reference(&mut swept, &block).unwrap();
                        let label = format!("n={n} k={k} κ={kappa:e} scale={scale}");
                        // Both pivots come out of a solve with R: ε·κ apart at most.
                        let size = (n + k) as f64;
                        assert!(
                            (got - want).abs() <= 64.0 * f64::EPSILON * kappa * size,
                            "{label}: α² {got:e} vs {want:e}"
                        );
                        if kappa == 1.0 {
                            assert!((got - want).abs() <= 1e-10 * want, "{label}: α² {got:e} vs {want:e}");
                        }
                        let scale_r = crate::norms::frobenius(swept.as_ref());
                        let mut diff = blocked.clone();
                        for (d, w) in diff.data_mut().iter_mut().zip(swept.data()) {
                            *d -= w;
                        }
                        let err = crate::norms::frobenius(diff.as_ref()) / scale_r;
                        assert!(
                            err <= 64.0 * f64::EPSILON * size / want,
                            "{label}: factors differ by {err:e}"
                        );
                        for i in 0..n {
                            assert!(blocked.get(i, i) > 0.0, "{label}: positive diagonal");
                            assert!(blocked.as_ref().row(i)[..i].iter().all(|&v| v == 0.0));
                        }
                    }
                }
            }
        }
        assert_eq!(ws.takes(), ws.recycles());
    }

    #[test]
    fn block_downdate_fails_at_the_row_the_sweep_fails_at() {
        // One foreign row inside the block, in the first panel or (k > n) a
        // later one: both forms apply the rows before it and stop there.
        let mut ws = Workspace::new();
        for &(n, k, bad) in &[
            (7usize, 10usize, 0usize),
            (7, 10, 6),
            (7, 10, 8),
            (64, 67, 65),
            (65, 8, 5),
        ] {
            let (mut block, r0) = block_and_factor(n, k, 1.0, 1.0);
            for v in block.as_mut().row_mut(bad) {
                *v *= 1e3;
            }
            let (mut blocked, mut swept) = (r0.clone(), r0.clone());
            let got = rank_k_downdate(blocked.as_mut(), block.as_ref(), &mut ws).unwrap_err();
            let want = dchdd_reference(&mut swept, &block).unwrap_err();
            match (got, want) {
                (
                    UpdateError::DowndateIndefinite { row, deficiency },
                    UpdateError::DowndateIndefinite {
                        row: want_row,
                        deficiency: want_deficiency,
                    },
                ) => {
                    assert_eq!((row, want_row), (bad, bad), "n={n} k={k}");
                    assert!(
                        (deficiency - want_deficiency).abs() <= 1e-10 * want_deficiency.abs(),
                        "n={n} k={k}: {deficiency:e} vs {want_deficiency:e}"
                    );
                }
                other => panic!("expected two DowndateIndefinite, got {other:?}"),
            }
            assert_eq!(blocked.data(), r0.data(), "failed downdate must not touch R");
            assert_eq!(ws.takes(), ws.recycles());
        }
    }
}
