//! General matrix-matrix multiplication.
//!
//! The workhorse is an `i-k-j` loop nest over row-major storage, which keeps
//! the innermost loop a unit-stride multiply, then add (unfused) over the
//! rows of `B` and `C` (auto-vectorizes well). Transposed operands are
//! packed into row-major temporaries first (a full `to_owned_transposed()`
//! copy — fine for an oracle; the `Blocked` backend instead absorbs
//! transposes into its panel packing).
//!
//! This module is the **naive reference path**: it backs
//! [`crate::backend::Naive`] and serves as the correctness oracle that the
//! blocked backend's property tests compare against. Performance-sensitive
//! callers should go through [`crate::backend::Backend`].

use crate::matrix::{MatMut, MatRef, Matrix};

/// Transpose flag for a gemm operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the operand's transpose.
    Yes,
}

/// `C ← α·op(A)·op(B) + β·C`.
///
/// Shapes: with `op(A)` of shape `m × k` and `op(B)` of shape `k × n`,
/// `C` must be `m × n`. Panics on mismatch.
pub fn gemm(alpha: f64, a: MatRef<'_>, ta: Trans, b: MatRef<'_>, tb: Trans, beta: f64, mut c: MatMut<'_>) {
    // Pack transposed operands so the core kernel only sees row-major data.
    let a_packed;
    let a_eff: MatRef<'_> = match ta {
        Trans::No => a,
        Trans::Yes => {
            a_packed = a.to_owned_transposed();
            a_packed.as_ref()
        }
    };
    let b_packed;
    let b_eff: MatRef<'_> = match tb {
        Trans::No => b,
        Trans::Yes => {
            b_packed = b.to_owned_transposed();
            b_packed.as_ref()
        }
    };

    let (m, k) = (a_eff.rows(), a_eff.cols());
    let n = b_eff.cols();
    assert_eq!(b_eff.rows(), k, "gemm inner dimension mismatch");
    assert_eq!((c.rows(), c.cols()), (m, n), "gemm output shape mismatch");

    if beta != 1.0 {
        for i in 0..m {
            let row = c.row_mut(i);
            if beta == 0.0 {
                row.fill(0.0);
            } else {
                for v in row {
                    *v *= beta;
                }
            }
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    // Block over k to keep the active B panel in cache.
    const KB: usize = 256;
    for k0 in (0..k).step_by(KB) {
        let kb = KB.min(k - k0);
        for i in 0..m {
            let arow = &a_eff.row(i)[k0..k0 + kb];
            let crow = c.row_mut(i);
            for (kk, &aik) in arow.iter().enumerate() {
                let s = alpha * aik;
                if s == 0.0 {
                    continue;
                }
                let brow = b_eff.row(k0 + kk);
                for (cv, bv) in crow.iter_mut().zip(brow) {
                    *cv += s * bv;
                }
            }
        }
    }
}

/// Convenience wrapper: returns `op(A)·op(B)` as a new matrix.
pub fn matmul(a: MatRef<'_>, ta: Trans, b: MatRef<'_>, tb: Trans) -> Matrix {
    let m = match ta {
        Trans::No => a.rows(),
        Trans::Yes => a.cols(),
    };
    let n = match tb {
        Trans::No => b.cols(),
        Trans::Yes => b.rows(),
    };
    let mut c = Matrix::zeros(m, n);
    gemm(1.0, a, ta, b, tb, 0.0, c.as_mut());
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                c.set(i, j, s);
            }
        }
        c
    }

    fn close(a: &Matrix, b: &Matrix, tol: f64) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs()))
    }

    #[test]
    fn matches_naive_nn() {
        let a = Matrix::from_fn(7, 5, |i, j| ((i * 5 + j) as f64).sin());
        let b = Matrix::from_fn(5, 9, |i, j| ((i * 9 + j) as f64).cos());
        let c = matmul(a.as_ref(), Trans::No, b.as_ref(), Trans::No);
        assert!(close(&c, &naive(&a, &b), 1e-13));
    }

    #[test]
    fn matches_naive_all_transpose_combos() {
        let a = Matrix::from_fn(6, 4, |i, j| (i as f64 - j as f64) * 0.37);
        let b = Matrix::from_fn(6, 4, |i, j| (i as f64 + 2.0 * j as f64) * 0.11);
        // AᵀB : (4x6)(6x4)
        let c1 = matmul(a.as_ref(), Trans::Yes, b.as_ref(), Trans::No);
        assert!(close(&c1, &naive(&a.transposed(), &b), 1e-13));
        // ABᵀ : (6x4)(4x6)
        let c2 = matmul(a.as_ref(), Trans::No, b.as_ref(), Trans::Yes);
        assert!(close(&c2, &naive(&a, &b.transposed()), 1e-13));
        // AᵀBᵀ needs op(B) with rows matching op(A)'s cols: use a 4x6 B here.
        let b2 = Matrix::from_fn(4, 6, |i, j| (i as f64 * 0.5 - j as f64) * 0.19);
        let c3 = matmul(a.as_ref(), Trans::Yes, b2.as_ref(), Trans::Yes);
        assert!(close(&c3, &naive(&a.transposed(), &b2.transposed()), 1e-13));
    }

    #[test]
    fn alpha_beta_combine() {
        let a = Matrix::from_fn(3, 3, |i, j| (i + j) as f64);
        let b = Matrix::identity(3);
        let mut c = Matrix::from_fn(3, 3, |_, _| 1.0);
        gemm(2.0, a.as_ref(), Trans::No, b.as_ref(), Trans::No, 3.0, c.as_mut());
        // C = 2A + 3*ones
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(c.get(i, j), 2.0 * (i + j) as f64 + 3.0);
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        let a = Matrix::identity(2);
        let b = Matrix::identity(2);
        let mut c = Matrix::from_fn(2, 2, |_, _| f64::NAN);
        gemm(1.0, a.as_ref(), Trans::No, b.as_ref(), Trans::No, 0.0, c.as_mut());
        assert_eq!(c, Matrix::identity(2));
    }

    #[test]
    fn works_on_strided_views() {
        let big_a = Matrix::from_fn(8, 8, |i, j| (i * 8 + j) as f64);
        let big_b = Matrix::from_fn(8, 8, |i, j| ((i * 8 + j) as f64).sqrt());
        let a = big_a.view(2, 1, 3, 4);
        let b = big_b.view(0, 3, 4, 2);
        let c = matmul(a, Trans::No, b, Trans::No);
        let a_own = a.to_owned();
        let b_own = b.to_owned();
        assert!(close(&c, &naive(&a_own, &b_own), 1e-13));
    }

    #[test]
    fn empty_dims_are_ok() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        let c = matmul(a.as_ref(), Trans::No, b.as_ref(), Trans::No);
        assert_eq!((c.rows(), c.cols()), (0, 2));
    }
}
