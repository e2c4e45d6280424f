//! Symmetric rank-k update: `C = AᵀA`.
//!
//! This is the Gram-matrix kernel at the heart of CholeskyQR: each processor
//! computes `AᵀA` of its local panel (paper Algorithm 6 line 1 and
//! Algorithm 8 line 2). Only the lower triangle is computed; the result is
//! mirrored so callers get a full symmetric matrix (the distributed reduction
//! then operates on plain dense buffers).
//!
//! These loop nests are the **bitwise oracle** for the blocked backend's
//! symmetry-aware SYRK ([`crate::backend::Blocked`]): simple enough to audit
//! by eye, with a straight-line inner loop (no data-dependent branches) so
//! the accumulation order — ascending `k`, then ascending `j` within a row —
//! is a pure function of the operand shape.

use crate::matrix::{MatMut, MatRef, Matrix};

/// Writes the full symmetric matrix `AᵀA` into `c` (`n × n` for `A` of
/// shape `m × n`), overwriting any previous contents: a zero fill, then
/// [`syrk_add`].
///
/// The flop convention charged for this kernel is `m·n²` (see
/// [`crate::flops::syrk`]) even though the dense sweep performs `~m·n²`
/// multiply-adds on the symmetric half.
pub fn syrk_into(a: MatRef<'_>, mut c: MatMut<'_>) {
    c.fill(0.0);
    syrk_add(a, c);
}

/// Adds `AᵀA` into the lower triangle of `c` and mirrors it onto the upper
/// (whose contents on entry are ignored). Accumulates the lower triangle
/// with a cache-friendly outer-product sweep over the rows of `A`, so adding
/// the row panels of `A` in order is bitwise one call over all of them.
pub fn syrk_add(a: MatRef<'_>, mut c: MatMut<'_>) {
    let (m, n) = (a.rows(), a.cols());
    assert_eq!((c.rows(), c.cols()), (n, n), "syrk output must be n x n");
    // Accumulate lower triangle: C[i][j] += A[k][i] * A[k][j], j <= i.
    // Deliberately branch-free: a zero-operand fast path only helps
    // pathological sparse inputs and defeats pipelining on dense panels.
    for k in 0..m {
        let row = a.row(k);
        for i in 0..n {
            let aki = row[i];
            let dst = &mut c.row_mut(i)[..i + 1];
            for (d, &v) in dst.iter_mut().zip(row) {
                *d += aki * v;
            }
        }
    }
    // Mirror to upper triangle.
    for i in 0..n {
        for j in 0..i {
            let v = c.at(i, j);
            c.set(j, i, v);
        }
    }
}

/// Returns the full symmetric matrix `AᵀA` as a fresh allocation
/// (convenience wrapper over [`syrk_into`]).
pub fn syrk(a: MatRef<'_>) -> Matrix {
    let n = a.cols();
    let mut c = Matrix::zeros(n, n);
    syrk_into(a, c.as_mut());
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Trans};
    use crate::matrix::Matrix;

    #[test]
    fn matches_gemm_ata() {
        let a = Matrix::from_fn(11, 5, |i, j| ((i * 5 + j) as f64 * 0.7).sin());
        let c = syrk(a.as_ref());
        let reference = matmul(a.as_ref(), Trans::Yes, a.as_ref(), Trans::No);
        for i in 0..5 {
            for j in 0..5 {
                assert!((c.get(i, j) - reference.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn result_is_exactly_symmetric() {
        let a = Matrix::from_fn(9, 6, |i, j| (i as f64 * 1.3 - j as f64 * 0.7).cos());
        let c = syrk(a.as_ref());
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(c.get(i, j), c.get(j, i), "bitwise symmetry expected");
            }
        }
    }

    #[test]
    fn gram_of_orthonormal_is_identity() {
        // Columns of the identity embedded in a taller matrix are orthonormal.
        let a = Matrix::from_fn(8, 3, |i, j| if i == j { 1.0 } else { 0.0 });
        let c = syrk(a.as_ref());
        assert_eq!(c, Matrix::identity(3));
    }

    #[test]
    fn empty_rows() {
        let a = Matrix::zeros(0, 4);
        assert_eq!(syrk(a.as_ref()), Matrix::zeros(4, 4));
    }

    #[test]
    fn into_variant_overwrites_stale_output() {
        let a = Matrix::from_fn(7, 4, |i, j| ((i + 3 * j) as f64 * 0.31).sin());
        let mut stale = Matrix::from_fn(4, 4, |_, _| f64::NAN);
        syrk_into(a.as_ref(), stale.as_mut());
        assert_eq!(stale, syrk(a.as_ref()), "syrk_into must ignore prior contents");
    }
}
