//! Cholesky factorization and triangular inversion.
//!
//! Three entry points:
//!
//! * [`potrf`] — blocked right-looking Cholesky, `A = LLᵀ` (lower factor).
//! * [`trtri_lower`] — recursive lower-triangular inverse `Y = L⁻¹`.
//! * [`cholinv`] — the paper's Algorithm 2: a *joint* recursion computing
//!   `L` and `Y = L⁻¹` together. This is the sequential kernel executed
//!   redundantly at the CFR3D base case (Algorithm 3, line 3), and the
//!   per-processor factorization of 1D-CQR (Algorithm 6, line 3).
//!
//! All routines report failure (a non-positive pivot, i.e. a numerically
//! non-SPD input) through [`CholeskyError`] instead of panicking — the
//! CholeskyQR drivers use this to detect loss of positive-definiteness in
//! `AᵀA` for ill-conditioned `A` and to trigger the shifted variant.

use crate::backend::{Backend, BackendKind};
use crate::gemm::Trans;
use crate::matrix::{MatMut, MatRef, Matrix};
use crate::workspace::Workspace;

/// Cholesky failure: the pivot at `index` was non-positive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CholeskyError {
    /// Global row/column index of the offending pivot.
    pub index: usize,
    /// Value of the pivot that should have been positive.
    pub pivot: f64,
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite: pivot {} at index {}",
            self.pivot, self.index
        )
    }
}

impl std::error::Error for CholeskyError {}

/// Unblocked lower Cholesky on a view, in place: on return the lower triangle
/// of `a` holds `L`; the strict upper triangle is zeroed.
fn potrf_unblocked(mut a: MatMut<'_>, index_offset: usize) -> Result<(), CholeskyError> {
    // Chaos faultpoint at the pivot site: an injected breakdown is
    // indistinguishable from a genuine loss of positive-definiteness to
    // everything upstream (suppressed inside SPMD regions; see
    // `crate::fault`). The sentinel pivot −∞ marks it as injected.
    crate::faultpoint!(crate::fault::CHOLESKY, {
        return Err(CholeskyError {
            index: index_offset,
            pivot: f64::NEG_INFINITY,
        });
    });
    let n = a.rows();
    for j in 0..n {
        let mut d = a.at(j, j);
        for k in 0..j {
            let v = a.at(j, k);
            d -= v * v;
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(CholeskyError {
                index: index_offset + j,
                pivot: d,
            });
        }
        let ljj = d.sqrt();
        a.set(j, j, ljj);
        for i in (j + 1)..n {
            let mut s = a.at(i, j);
            // s -= Σ_{k<j} L[i][k]·L[j][k]
            for k in 0..j {
                s -= a.at(i, k) * a.at(j, k);
            }
            a.set(i, j, s / ljj);
        }
    }
    // Zero the strict upper triangle so the result is exactly L.
    for i in 0..n {
        let row = a.row_mut(i);
        for v in &mut row[i + 1..] {
            *v = 0.0;
        }
    }
    Ok(())
}

/// Blocked right-looking Cholesky: factors `A = LLᵀ` in place, returning the
/// lower factor in `a` (strict upper triangle zeroed). [`potrf_ws`] on the
/// process default backend ([`BackendKind::default_kind`]) with a throwaway
/// arena — not the thread-local one, which the blocked gemm borrows for its
/// pack buffers.
pub fn potrf(a: MatMut<'_>) -> Result<(), CholeskyError> {
    potrf_ws(a, BackendKind::default_kind().get(), &mut Workspace::new())
}

/// Blocked right-looking Cholesky with an explicit kernel backend for the
/// panel solve and trailing update, drawing the panel copy from a
/// [`Workspace`] arena.
///
/// The blocked trailing update needs a stable copy of the just-solved `L21`
/// panel (the gemm reads and writes overlapping storage otherwise). The copy
/// is taken from `ws` and recycled, so warm calls perform no heap
/// allocations — the streaming path's zero-steady-state-allocation contract.
pub fn potrf_ws(mut a: MatMut<'_>, backend: &dyn Backend, ws: &mut Workspace) -> Result<(), CholeskyError> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "Cholesky input must be square");
    const NB: usize = 64;
    if n <= NB {
        return potrf_unblocked(a, 0);
    }
    let mut k = 0;
    while k < n {
        let nb = NB.min(n - k);
        // Factor diagonal block.
        potrf_unblocked(a.rb_mut().sub(k, k, nb, nb), k)?;
        if k + nb < n {
            let rest = n - k - nb;
            // Panel solve: A[k+nb.., k..k+nb] ← A[k+nb.., k..k+nb] · L[k,k]⁻ᵀ
            let (diag_rows, below) = a.rb_mut().sub(k, k, n - k, nb).split_rows(nb);
            backend.trsm_right_lower_trans(diag_rows.rb(), below);
            // Trailing update: A22 ← A22 − L21·L21ᵀ (lower triangle suffices,
            // but a full gemm keeps the kernel simple; the strict upper part
            // of the trailing block is rewritten symmetrically).
            let l21_copy = ws.take_copy(a.rb().sub(k + nb, k, rest, nb));
            let a22 = a.rb_mut().sub(k + nb, k + nb, rest, rest);
            backend.gemm(
                -1.0,
                l21_copy.as_ref(),
                Trans::No,
                l21_copy.as_ref(),
                Trans::Yes,
                1.0,
                a22,
            );
            ws.recycle(l21_copy);
        }
        k += nb;
    }
    // The block loop only zeroes the strict upper triangle inside each
    // diagonal block; clear the rest so the result is exactly L.
    for i in 0..n {
        let row = a.row_mut(i);
        for v in &mut row[i + 1..] {
            *v = 0.0;
        }
    }
    Ok(())
}

/// Unblocked inverse of a lower-triangular matrix by forward substitution.
fn trtri_unblocked(l: MatRef<'_>) -> Matrix {
    let n = l.rows();
    let mut y = Matrix::zeros(n, n);
    for j in 0..n {
        y.set(j, j, 1.0 / l.at(j, j));
        for i in (j + 1)..n {
            let mut s = 0.0;
            for k in j..i {
                s += l.at(i, k) * y.get(k, j);
            }
            y.set(i, j, -s / l.at(i, i));
        }
    }
    y
}

/// Inverse of a lower-triangular matrix: `Y = L⁻¹`.
///
/// Recursive blocked algorithm mirroring the paper's `Inv` recursion
/// (§II-D): `Y₁₁ = L₁₁⁻¹`, `Y₂₂ = L₂₂⁻¹`, `Y₂₁ = −Y₂₂·L₂₁·Y₁₁`.
pub fn trtri_lower(l: MatRef<'_>) -> Matrix {
    trtri_lower_with(l, BackendKind::default_kind().get())
}

/// [`trtri_lower`] with an explicit kernel backend for the off-diagonal
/// multiplies.
pub fn trtri_lower_with(l: MatRef<'_>, backend: &dyn Backend) -> Matrix {
    let n = l.rows();
    assert_eq!(l.cols(), n, "triangular inverse input must be square");
    const NB: usize = 32;
    if n <= NB {
        return trtri_unblocked(l);
    }
    let h = n / 2;
    let y11 = trtri_lower_with(l.sub(0, 0, h, h), backend);
    let y22 = trtri_lower_with(l.sub(h, h, n - h, n - h), backend);
    // Y21 = -Y22 · L21 · Y11
    let t = backend.matmul(l.sub(h, 0, n - h, h), Trans::No, y11.as_ref(), Trans::No);
    let mut y = Matrix::zeros(n, n);
    y.view_mut(0, 0, h, h).copy_from(y11.as_ref());
    y.view_mut(h, h, n - h, n - h).copy_from(y22.as_ref());
    backend.gemm(
        -1.0,
        y22.as_ref(),
        Trans::No,
        t.as_ref(),
        Trans::No,
        0.0,
        y.view_mut(h, 0, n - h, h),
    );
    y
}

/// The paper's Algorithm 2 (`CholInv`): given SPD `A`, returns `(L, Y)` with
/// `A = LLᵀ` and `Y = L⁻¹`, computed by a single joint recursion.
///
/// ```text
/// L11, Y11 ← CholInv(A11)
/// L21 ← A21·Y11ᵀ
/// L22, Y22 ← CholInv(A22 − L21·L21ᵀ)
/// Y21 ← −Y22·L21·Y11
/// ```
///
/// This sequential routine is what every processor runs redundantly at the
/// CFR3D base case; the distributed CFR3D (crate `cacqr`) parallelizes the
/// same recursion with MM3D in place of the local multiplies.
pub fn cholinv(a: MatRef<'_>) -> Result<(Matrix, Matrix), CholeskyError> {
    cholinv_with(a, BackendKind::default_kind().get())
}

/// [`cholinv`] with an explicit kernel backend for the panel and inverse
/// multiplies. Every distributed caller threads its configured backend here
/// so redundant base-case factorizations stay bitwise replicated.
pub fn cholinv_with(a: MatRef<'_>, backend: &dyn Backend) -> Result<(Matrix, Matrix), CholeskyError> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "CholInv input must be square");
    cholinv_inner(a, 0, backend)
}

fn cholinv_inner(a: MatRef<'_>, index_offset: usize, backend: &dyn Backend) -> Result<(Matrix, Matrix), CholeskyError> {
    let n = a.rows();
    const NB: usize = 32;
    if n <= NB {
        let mut l = a.to_owned();
        potrf_unblocked(l.as_mut(), index_offset)?;
        let y = trtri_unblocked(l.as_ref());
        return Ok((l, y));
    }
    let h = n / 2;
    let (l11, y11) = cholinv_inner(a.sub(0, 0, h, h), index_offset, backend)?;
    // L21 = A21 · Y11ᵀ
    let l21 = backend.matmul(a.sub(h, 0, n - h, h), Trans::No, y11.as_ref(), Trans::Yes);
    // S = A22 − L21·L21ᵀ
    let mut s = a.sub(h, h, n - h, n - h).to_owned();
    backend.gemm(-1.0, l21.as_ref(), Trans::No, l21.as_ref(), Trans::Yes, 1.0, s.as_mut());
    let (l22, y22) = cholinv_inner(s.as_ref(), index_offset + h, backend)?;
    // Y21 = −Y22·(L21·Y11)
    let t = backend.matmul(l21.as_ref(), Trans::No, y11.as_ref(), Trans::No);
    let mut l = Matrix::zeros(n, n);
    let mut y = Matrix::zeros(n, n);
    l.view_mut(0, 0, h, h).copy_from(l11.as_ref());
    l.view_mut(h, 0, n - h, h).copy_from(l21.as_ref());
    l.view_mut(h, h, n - h, n - h).copy_from(l22.as_ref());
    y.view_mut(0, 0, h, h).copy_from(y11.as_ref());
    y.view_mut(h, h, n - h, n - h).copy_from(y22.as_ref());
    backend.gemm(
        -1.0,
        y22.as_ref(),
        Trans::No,
        t.as_ref(),
        Trans::No,
        0.0,
        y.view_mut(h, 0, n - h, h),
    );
    Ok((l, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Trans};
    use crate::norms::{frobenius, max_abs};

    /// Builds a well-conditioned SPD matrix: AᵀA + n·I of a seeded pseudo-random A.
    fn spd(n: usize) -> Matrix {
        let a = Matrix::from_fn(n, n, |i, j| ((i * n + j) as f64 * 0.61).sin());
        let mut s = crate::syrk::syrk(a.as_ref());
        for i in 0..n {
            let v = s.get(i, i);
            s.set(i, i, v + n as f64);
        }
        s
    }

    fn reconstruct_err(a: &Matrix, l: &Matrix) -> f64 {
        let llt = matmul(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
        let mut d = a.clone();
        for (x, y) in d.data_mut().iter_mut().zip(llt.data()) {
            *x -= y;
        }
        frobenius(d.as_ref()) / frobenius(a.as_ref())
    }

    #[test]
    fn potrf_reconstructs_small() {
        let a = spd(17);
        let mut l = a.clone();
        potrf(l.as_mut()).unwrap();
        assert!(reconstruct_err(&a, &l) < 1e-13);
    }

    #[test]
    fn potrf_reconstructs_blocked() {
        let a = spd(193); // crosses several 64-blocks, non-multiple size
        let mut l = a.clone();
        potrf(l.as_mut()).unwrap();
        assert!(reconstruct_err(&a, &l) < 1e-12);
    }

    #[test]
    fn potrf_ws_matches_potrf_bitwise_and_stays_arena_balanced() {
        let a = spd(193); // blocked path: several 64-blocks plus a ragged tail
        let mut want = a.clone();
        potrf(want.as_mut()).unwrap();
        let backend = BackendKind::default_kind().get();
        let mut ws = Workspace::new();
        let mut got = a.clone();
        potrf_ws(got.as_mut(), backend, &mut ws).unwrap();
        assert_eq!(want.data(), got.data(), "the wrapper must be the core, bit for bit");
        assert_eq!(ws.takes(), ws.recycles(), "every take recycled");
        let cold = ws.heap_allocations();
        let mut warm = a.clone();
        potrf_ws(warm.as_mut(), backend, &mut ws).unwrap();
        assert_eq!(ws.heap_allocations(), cold, "warm call draws entirely from the arena");
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let mut a = Matrix::identity(4);
        a.set(2, 2, -1.0);
        let err = potrf(a.as_mut()).unwrap_err();
        assert_eq!(err.index, 2);
        assert!(err.pivot <= 0.0);
    }

    #[test]
    fn trtri_inverts() {
        let a = spd(48);
        let mut l = a.clone();
        potrf(l.as_mut()).unwrap();
        let y = trtri_lower(l.as_ref());
        let prod = matmul(y.as_ref(), Trans::No, l.as_ref(), Trans::No);
        let mut d = prod.clone();
        for i in 0..48 {
            let v = d.get(i, i);
            d.set(i, i, v - 1.0);
        }
        assert!(max_abs(d.as_ref()) < 1e-12);
    }

    #[test]
    fn cholinv_agrees_with_potrf_trtri() {
        let a = spd(70); // odd split sizes exercise the n-h paths
        let (l, y) = cholinv(a.as_ref()).unwrap();
        assert!(reconstruct_err(&a, &l) < 1e-12);
        let mut l2 = a.clone();
        potrf(l2.as_mut()).unwrap();
        let y2 = trtri_lower(l2.as_ref());
        for (u, v) in l.data().iter().zip(l2.data()) {
            assert!((u - v).abs() < 1e-11);
        }
        for (u, v) in y.data().iter().zip(y2.data()) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn cholinv_error_index_is_global() {
        // SPD leading block, failure deep in the trailing part.
        let n = 40;
        let mut a = Matrix::identity(n);
        a.set(37, 37, -5.0);
        let err = cholinv(a.as_ref()).unwrap_err();
        assert_eq!(err.index, 37);
    }

    #[test]
    fn factor_is_exactly_lower_triangular() {
        let a = spd(33);
        let (l, y) = cholinv(a.as_ref()).unwrap();
        for i in 0..33 {
            for j in (i + 1)..33 {
                assert_eq!(l.get(i, j), 0.0);
                assert_eq!(y.get(i, j), 0.0);
            }
        }
    }
}
