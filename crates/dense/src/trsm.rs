//! Triangular solves and multiplies.
//!
//! CholeskyQR applies `R⁻¹` from the right (`Q = A·R⁻¹`); with `R = Lᵀ` from
//! the Cholesky factor this is either an explicit multiply by the inverse
//! (the paper's default path) or a right-sided triangular solve (the
//! `InverseDepth > 0` path). Both row-sweep kernels below are `O(m·n²)` for an
//! `m × n` right-hand side.
//!
//! The five solves are the oracle loop nests: `backend::Naive` forwards to
//! them, and the `Blocked` backend's diagonal-block solves reproduce their
//! bits. [`trmm_upper_upper`] is the exception — it runs on the blocked
//! backend's packed microkernel, whichever backend the caller uses.

use crate::matrix::{MatMut, MatRef};

/// Solves `X·Lᵀ = B` in place (`B` is overwritten with `X`).
///
/// `l` is lower triangular `n × n`; `b` is `m × n`. Since `Lᵀ` is upper
/// triangular, each row of `B` is solved by forward substitution across
/// columns.
pub fn trsm_right_lower_trans(l: MatRef<'_>, mut b: MatMut<'_>) {
    let n = l.rows();
    assert_eq!(l.cols(), n, "triangular factor must be square");
    assert_eq!(b.cols(), n, "rhs width must match triangular dimension");
    for i in 0..b.rows() {
        let row = b.row_mut(i);
        // Row solve: x·Lᵀ = b  ⇔  for j ascending: x[j] = (b[j] - Σ_{k<j} x[k]·Lᵀ[k][j]) / L[j][j]
        // and Lᵀ[k][j] = L[j][k].
        for j in 0..n {
            let lrow = l.row(j);
            let mut s = row[j];
            for k in 0..j {
                s -= row[k] * lrow[k];
            }
            row[j] = s / lrow[j];
        }
    }
}

/// Solves `X·U = B` in place (`B` is overwritten with `X`), `U` upper triangular.
pub fn trsm_right_upper(u: MatRef<'_>, b: MatMut<'_>) {
    let n = u.rows();
    assert_eq!(u.cols(), n, "triangular factor must be square");
    assert_eq!(b.cols(), n, "rhs width must match triangular dimension");
    right_upper_body(u, b);
}

/// The loop of [`trsm_right_upper`], which the `Blocked` backend also
/// compiles per ISA as its few-rows path.
#[inline(always)]
pub(crate) fn right_upper_body(u: MatRef<'_>, mut b: MatMut<'_>) {
    let n = u.rows();
    for i in 0..b.rows() {
        let row = b.row_mut(i);
        // x·U = b ⇔ for j ascending: x[j] = (b[j] - Σ_{k<j} x[k]·U[k][j]) / U[j][j].
        // Right-looking: once x[j] is known, its term leaves every later
        // column — each element still sees its subtractions in ascending k,
        // but the inner loop walks row j of U instead of a column.
        for j in 0..n {
            let urow = u.row(j);
            let x = row[j] / urow[j];
            row[j] = x;
            for (v, &ujc) in row[j + 1..].iter_mut().zip(&urow[j + 1..]) {
                *v -= x * ujc;
            }
        }
    }
}

/// Solves `L·X = B` in place (`B` overwritten with `X`), `L` lower triangular.
pub fn trsm_left_lower(l: MatRef<'_>, mut b: MatMut<'_>) {
    let n = l.rows();
    assert_eq!(l.cols(), n, "triangular factor must be square");
    assert_eq!(b.rows(), n, "rhs height must match triangular dimension");
    for i in 0..n {
        let lrow = l.row(i);
        let diag = lrow[i];
        // b[i] -= Σ_{k<i} L[i][k]·b[k], then scale. Split keeps the borrows
        // of row i (write) and rows < i (read) disjoint.
        let (done, mut active) = b.rb_mut().split_rows(i);
        let done = done.rb();
        let bi = active.row_mut(0);
        for k in 0..i {
            let lik = lrow[k];
            if lik == 0.0 {
                continue;
            }
            let bk = done.row(k);
            for (x, y) in bi.iter_mut().zip(bk) {
                *x -= lik * y;
            }
        }
        for v in bi {
            *v /= diag;
        }
    }
}

/// Solves `U·X = B` in place (`B` overwritten with `X`), `U` upper
/// triangular — the backward substitution used to recover least-squares
/// solutions from `R·x = Qᵀb`.
pub fn trsm_left_upper(u: MatRef<'_>, mut b: MatMut<'_>) {
    let n = u.rows();
    assert_eq!(u.cols(), n, "triangular factor must be square");
    assert_eq!(b.rows(), n, "rhs height must match triangular dimension");
    for i in (0..n).rev() {
        let urow = u.row(i);
        let diag = urow[i];
        // b[i] -= Σ_{k>i} U[i][k]·b[k], then scale. Rows > i are final.
        let (mut active, done) = b.rb_mut().split_rows(i + 1);
        let done = done.rb();
        let bi = active.row_mut(i);
        for k in (i + 1)..n {
            let uik = urow[k];
            if uik == 0.0 {
                continue;
            }
            let bk = done.row(k - i - 1);
            for (x, y) in bi.iter_mut().zip(bk) {
                *x -= uik * y;
            }
        }
        for v in bi {
            *v /= diag;
        }
    }
}

/// Solves `Uᵀ·X = B` in place (`B` overwritten with `X`), `U` upper
/// triangular — the forward substitution of the semi-normal-equations solve
/// `RᵀR·x = Aᵀb`, reading `R`'s columns directly so no transposed copy of
/// the factor is ever materialized.
pub fn trsm_left_lower_trans(u: MatRef<'_>, mut b: MatMut<'_>) {
    let n = u.rows();
    assert_eq!(u.cols(), n, "triangular factor must be square");
    assert_eq!(b.rows(), n, "rhs height must match triangular dimension");
    for i in 0..n {
        let diag = u.at(i, i);
        // b[i] -= Σ_{k<i} Uᵀ[i][k]·b[k] = Σ_{k<i} U[k][i]·b[k], then scale.
        // Split keeps the borrows of row i (write) and rows < i (read)
        // disjoint.
        let (done, mut active) = b.rb_mut().split_rows(i);
        let done = done.rb();
        let bi = active.row_mut(0);
        for k in 0..i {
            let uki = u.at(k, i);
            if uki == 0.0 {
                continue;
            }
            let bk = done.row(k);
            for (x, y) in bi.iter_mut().zip(bk) {
                *x -= uki * y;
            }
        }
        for v in bi {
            *v /= diag;
        }
    }
}

/// Writes the product `U₂·U₁` of two upper-triangular matrices into `out`,
/// which ends exactly upper triangular (its strict lower part is zeroed).
/// Used for the CQR2 update `R = R₂·R₁` (paper Algorithm 5 line 3, charged
/// `n³/3` flops) and by the streaming updates, which hand it arena storage.
///
/// Unlike the solves above this is not a loop nest: it runs on the blocked
/// backend's packed microkernel (pack buffers from the thread-local arena).
/// For finite operands each element is the fma chain `acc = fma(u2_ik,
/// u1_kj, acc)` from `+0` over ascending `k`, skipping zero `u2_ik`.
pub fn trmm_upper_upper(u2: MatRef<'_>, u1: MatRef<'_>, out: MatMut<'_>) {
    let n = u2.rows();
    assert_eq!(u2.cols(), n);
    assert_eq!((u1.rows(), u1.cols()), (n, n));
    assert_eq!((out.rows(), out.cols()), (n, n));
    crate::backend::blocked::trmm_upper_upper_with_isa(crate::backend::blocked::isa(), u2, u1, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Trans};
    use crate::matrix::Matrix;

    /// The row-axpy loop [`trmm_upper_upper`] replaced, accumulating with the
    /// microkernel's fused multiply-add: the bitwise reference.
    fn trmm_upper_upper_reference(u2: MatRef<'_>, u1: MatRef<'_>, mut out: MatMut<'_>) {
        let n = u2.rows();
        assert_eq!(u2.cols(), n);
        assert_eq!((u1.rows(), u1.cols()), (n, n));
        assert_eq!((out.rows(), out.cols()), (n, n));
        for i in 0..n {
            let dst = out.row_mut(i);
            dst.fill(0.0);
            for k in i..n {
                let v = u2.at(i, k);
                if v == 0.0 {
                    continue;
                }
                // Row i of the result accumulates v * row k of u1, columns k..n only
                // (earlier columns of row k are structurally zero).
                for (d, s) in dst[k..].iter_mut().zip(&u1.row(k)[k..]) {
                    *d = v.mul_add(*s, *d);
                }
            }
        }
    }

    fn lower_test_matrix(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if j > i {
                0.0
            } else if i == j {
                2.0 + i as f64
            } else {
                ((i * n + j) as f64 * 0.13).sin()
            }
        })
    }

    #[test]
    fn right_lower_trans_solves() {
        let l = lower_test_matrix(5);
        let x_true = Matrix::from_fn(7, 5, |i, j| (i as f64 - 2.0 * j as f64) * 0.3);
        // B = X·Lᵀ
        let mut b = matmul(x_true.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
        trsm_right_lower_trans(l.as_ref(), b.as_mut());
        for (x, y) in b.data().iter().zip(x_true.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn right_upper_solves() {
        let u = lower_test_matrix(4).transposed();
        let x_true = Matrix::from_fn(6, 4, |i, j| ((i + j) as f64).cos());
        let mut b = matmul(x_true.as_ref(), Trans::No, u.as_ref(), Trans::No);
        trsm_right_upper(u.as_ref(), b.as_mut());
        for (x, y) in b.data().iter().zip(x_true.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn left_upper_solves() {
        let u = lower_test_matrix(6).transposed();
        let x_true = Matrix::from_fn(6, 2, |i, j| (i as f64 + 1.0) * (j as f64 - 0.5));
        let mut b = matmul(u.as_ref(), Trans::No, x_true.as_ref(), Trans::No);
        trsm_left_upper(u.as_ref(), b.as_mut());
        for (x, y) in b.data().iter().zip(x_true.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn left_lower_solves() {
        let l = lower_test_matrix(5);
        let x_true = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f64 * 0.21 - 1.0);
        let mut b = matmul(l.as_ref(), Trans::No, x_true.as_ref(), Trans::No);
        trsm_left_lower(l.as_ref(), b.as_mut());
        for (x, y) in b.data().iter().zip(x_true.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn left_lower_trans_solves() {
        let u = lower_test_matrix(6).transposed();
        let x_true = Matrix::from_fn(6, 3, |i, j| ((i * 2 + j) as f64 * 0.17).sin() + 0.4);
        // B = Uᵀ·X
        let mut b = matmul(u.as_ref(), Trans::Yes, x_true.as_ref(), Trans::No);
        trsm_left_lower_trans(u.as_ref(), b.as_mut());
        for (x, y) in b.data().iter().zip(x_true.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn upper_times_upper_is_upper() {
        let u1 = lower_test_matrix(6).transposed();
        let u2 = lower_test_matrix(6).transposed();
        // NaN on entry: the kernel overwrites every element, zeros included.
        let mut p = Matrix::from_fn(6, 6, |_, _| f64::NAN);
        trmm_upper_upper(u2.as_ref(), u1.as_ref(), p.as_mut());
        let reference = matmul(u2.as_ref(), Trans::No, u1.as_ref(), Trans::No);
        for i in 0..6 {
            for j in 0..6 {
                assert!((p.get(i, j) - reference.get(i, j)).abs() < 1e-12);
                if j < i {
                    assert_eq!(p.get(i, j), 0.0, "product must be exactly upper triangular");
                }
            }
        }
    }

    /// The packed product is the fused row-axpy loop bit for bit under every
    /// instruction set: NaN below the diagonals (never read as values),
    /// exact zeros inside the triangles (the loop skips those terms), and a
    /// NaN-filled output (every element is written).
    #[test]
    fn trmm_is_bitwise_the_loop_it_replaced_under_every_isa() {
        use crate::backend::blocked::{trmm_upper_upper_with_isa, Isa};
        let upper = |n: usize, salt: usize| {
            Matrix::from_fn(n, n, |i, j| match (i, j) {
                (i, j) if j < i => f64::NAN,
                (i, j) if (i * 7 + j * 3 + salt).is_multiple_of(11) && i != j => 0.0,
                (i, j) => ((i * n + j + salt) as f64 * 0.37).sin() + if i == j { 2.0 } else { 0.0 },
            })
        };
        for which in Isa::available() {
            for n in (1..=130).chain([193]) {
                let (u2, u1) = (upper(n, 1), upper(n, 4));
                let mut want = Matrix::from_fn(n, n, |_, _| f64::NAN);
                let mut got = want.clone();
                trmm_upper_upper_reference(u2.as_ref(), u1.as_ref(), want.as_mut());
                trmm_upper_upper_with_isa(which, u2.as_ref(), u1.as_ref(), got.as_mut());
                for (k, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{which:?} n={n}: element {k} is {g}, the loop gave {w}"
                    );
                }
            }
        }
    }
}
