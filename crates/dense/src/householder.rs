//! Blocked Householder QR.
//!
//! This is the sequential reference factorization (what the paper calls
//! "Householder QR", the accuracy gold standard for CQR2), and the node-local
//! kernel under the ScaLAPACK-`PGEQRF` baseline: the `baseline` crate reuses
//! [`panel_qr`] (factor + compact-WY `T`) and [`apply_block_reflector`] for
//! its distributed panel/trailing-update schedule.
//!
//! Conventions follow LAPACK `dgeqrf`: reflectors are `H_j = I − τ_j v_j v_jᵀ`
//! with `v_j[j] = 1` implicit, stored below the diagonal; `R` is stored on and
//! above the diagonal.

use crate::backend::BackendKind;
use crate::blas1::nrm2;
use crate::gemm::Trans;
use crate::matrix::{MatMut, MatRef, Matrix};

/// Result of a Householder factorization: packed `V\R` storage plus the
/// scalar reflector coefficients.
#[derive(Clone, Debug)]
pub struct QrFactors {
    /// `m × n` packed storage: `R` on/above the diagonal, reflector vectors
    /// (unit diagonal implicit) below it.
    pub packed: Matrix,
    /// The `τ` coefficients, one per reflector (length `min(m, n)`).
    pub tau: Vec<f64>,
}

impl QrFactors {
    /// Extracts the `n × n` upper-triangular factor `R` (for `m ≥ n`).
    pub fn r(&self) -> Matrix {
        let n = self.packed.cols();
        let k = n.min(self.packed.rows());
        let mut r = Matrix::zeros(k, n);
        for i in 0..k {
            for j in i..n {
                r.set(i, j, self.packed.get(i, j));
            }
        }
        r
    }
}

/// Generates one Householder reflector in place.
///
/// On entry `x` is the column to annihilate (length ≥ 1). On exit `x[0]` is
/// the resulting diagonal entry of `R`, `x[1..]` holds the reflector tail
/// (unit head implicit), and the returned value is `τ`. The column norm is
/// formed by `hypot` from the scaled tail norm, never from squares, so it
/// neither overflows nor underflows anywhere in the exponent range.
fn make_reflector(x: &mut [f64]) -> f64 {
    let alpha = x[0];
    let xnorm = nrm2(&x[1..]);
    if xnorm == 0.0 {
        // Column already upper triangular; H = I.
        return 0.0;
    }
    let norm = alpha.hypot(xnorm);
    let beta = if alpha >= 0.0 { -norm } else { norm };
    let tau = (beta - alpha) / beta;
    let scale = 1.0 / (alpha - beta);
    for v in &mut x[1..] {
        *v *= scale;
    }
    x[0] = beta;
    tau
}

/// Applies `H = I − τ v vᵀ` from the left to `c` (`v` has implicit unit head).
fn apply_reflector(v_tail: &[f64], tau: f64, mut c: MatMut<'_>) {
    if tau == 0.0 {
        return;
    }
    let n = c.cols();
    // w = vᵀ C  (v = [1, v_tail])
    let mut w = vec![0.0f64; n];
    w.copy_from_slice(c.row(0));
    for (i, &vi) in v_tail.iter().enumerate() {
        let row = c.row(i + 1);
        for (wj, &cj) in w.iter_mut().zip(row) {
            *wj += vi * cj;
        }
    }
    // C -= τ v wᵀ
    {
        let r0 = c.row_mut(0);
        for (cj, &wj) in r0.iter_mut().zip(&w) {
            *cj -= tau * wj;
        }
    }
    for (i, &vi) in v_tail.iter().enumerate() {
        let s = tau * vi;
        let row = c.row_mut(i + 1);
        for (cj, &wj) in row.iter_mut().zip(&w) {
            *cj -= s * wj;
        }
    }
}

/// Unblocked Householder QR on a view, in place; returns `τ` values.
fn qr_unblocked(mut a: MatMut<'_>) -> Vec<f64> {
    let (m, n) = (a.rows(), a.cols());
    let k = m.min(n);
    let mut taus = Vec::with_capacity(k);
    let mut col = Vec::new();
    for j in 0..k {
        // Gather column j (rows j..m) into a contiguous buffer.
        col.clear();
        col.extend((j..m).map(|i| a.at(i, j)));
        let tau = make_reflector(&mut col);
        // Scatter back.
        for (off, &v) in col.iter().enumerate() {
            a.set(j + off, j, v);
        }
        taus.push(tau);
        if j + 1 < n {
            let trailing = a.rb_mut().sub(j, j + 1, m - j, n - j - 1);
            apply_reflector(&col[1..], tau, trailing);
        }
    }
    taus
}

/// Forms the compact-WY triangular factor `T` (`k × k`, upper triangular)
/// such that `H_0 H_1 ⋯ H_{k−1} = I − V T Vᵀ`, from packed reflectors `v`
/// (an `m × k` unit-lower-trapezoidal view) and their `τ` values.
///
/// LAPACK `dlarft` forward/columnwise convention.
pub fn larft(v: MatRef<'_>, tau: &[f64]) -> Matrix {
    let k = v.cols();
    let m = v.rows();
    let mut t = Matrix::zeros(k, k);
    for j in 0..k {
        let tj = tau[j];
        t.set(j, j, tj);
        if tj == 0.0 {
            continue;
        }
        if j > 0 {
            // w = Vᵀ[0..j] v_j  (exploiting the unit-lower structure of V).
            let mut w = vec![0.0f64; j];
            for (idx, wv) in w.iter_mut().enumerate() {
                // v_idx has unit head at row idx; v_j has unit head at row j.
                let mut s = v.at(j, idx); // row j of column idx times the implicit 1 of v_j
                for i in (j + 1)..m {
                    s += v.at(i, idx) * v.at(i, j);
                }
                *wv = s;
            }
            // T[0..j, j] = −τ_j · T[0..j, 0..j] · w
            for i in 0..j {
                let mut s = 0.0;
                for l in i..j {
                    s += t.get(i, l) * w[l];
                }
                t.set(i, j, -tj * s);
            }
        }
    }
    t
}

/// Applies the block reflector `Hᵀ = (I − V T Vᵀ)ᵀ` from the left:
/// `C ← C − V·Tᵀ·(Vᵀ C)`, the three level-3 products on the default
/// backend.
///
/// `v` is `m × k` unit-lower-trapezoidal (as stored by [`panel_qr`]),
/// `t` is the `k × k` factor from [`larft`], `c` is `m × n`.
pub fn apply_block_reflector(v: MatRef<'_>, t: MatRef<'_>, c: MatMut<'_>) {
    let backend = BackendKind::default_kind().get();
    let k = v.cols();
    if k == 0 || c.cols() == 0 {
        return;
    }
    // Materialize V with explicit unit diagonal / zero upper part so plain
    // gemms apply (panel widths are small; the copy is cheap).
    let mut vfull = v.to_owned();
    for i in 0..k.min(vfull.rows()) {
        for j in (i + 1)..k {
            vfull.set(i, j, 0.0);
        }
        vfull.set(i, i, 1.0);
    }
    // W = Vᵀ C  (k × n)
    let w = backend.matmul(vfull.as_ref(), Trans::Yes, c.rb(), Trans::No);
    // W ← Tᵀ W
    let tw = backend.matmul(t, Trans::Yes, w.as_ref(), Trans::No);
    // C ← C − V W
    backend.gemm(-1.0, vfull.as_ref(), Trans::No, tw.as_ref(), Trans::No, 1.0, c);
}

/// Factors an `m × k` panel in place and returns `(τ, T)`; the panel is left
/// in packed `V\R` form. This is the ScaLAPACK `pdgeqr2 + pdlarft` pair used
/// by the `baseline` crate.
pub fn panel_qr(mut panel: MatMut<'_>) -> (Vec<f64>, Matrix) {
    let tau = qr_unblocked(panel.rb_mut());
    let t = larft(panel.rb(), &tau);
    (tau, t)
}

/// Blocked Householder QR of `a` in place. Returns the factors. Uses the
/// default backend for the trailing updates.
pub fn householder_qr(a: &Matrix) -> QrFactors {
    let mut packed = a.clone();
    let (m, n) = (packed.rows(), packed.cols());
    let kmax = m.min(n);
    const NB: usize = 32;
    let mut tau = Vec::with_capacity(kmax);
    let mut j = 0;
    while j < kmax {
        let nb = NB.min(kmax - j);
        let (mut panel_taus, t) = {
            let panel = packed.view_mut(j, j, m - j, nb);
            panel_qr(panel)
        };
        if j + nb < n {
            // Disjoint column ranges: split so the panel (read) and the
            // trailing block (write) can coexist.
            let all = packed.view_mut(j, 0, m - j, n);
            let (left, trailing) = all.split_cols(j + nb);
            let v = left.rb().sub(0, j, m - j, nb);
            apply_block_reflector(v, t.as_ref(), trailing);
        }
        tau.append(&mut panel_taus);
        j += nb;
    }
    QrFactors { packed, tau }
}

/// Forms the reduced `m × n` orthonormal factor `Q` from packed reflectors
/// (LAPACK `dorgqr`, backward accumulation).
pub fn form_q(f: &QrFactors) -> Matrix {
    let (m, n) = (f.packed.rows(), f.packed.cols());
    let k = f.tau.len();
    let mut q = Matrix::zeros(m, n);
    for i in 0..n.min(m) {
        q.set(i, i, 1.0);
    }
    let mut vtail = Vec::new();
    for j in (0..k).rev() {
        vtail.clear();
        vtail.extend((j + 1..m).map(|i| f.packed.get(i, j)));
        let block = q.view_mut(j, j, m - j, n - j);
        apply_reflector(&vtail, f.tau[j], block);
    }
    q
}

/// Convenience: full reduced QR returning `(Q, R)` with `Q` `m × n`
/// orthonormal and `R` `n × n` upper triangular (requires `m ≥ n`).
pub fn qr(a: &Matrix) -> (Matrix, Matrix) {
    assert!(a.rows() >= a.cols(), "reduced QR requires m >= n");
    let f = householder_qr(a);
    (form_q(&f), f.r())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::{frobenius, orthogonality_error, residual_error};

    fn pseudo(m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |i, j| {
            ((i * n + j) as f64 * 0.37).sin() + if i == j { 2.0 } else { 0.0 }
        })
    }

    #[test]
    fn qr_reconstructs_tall() {
        let a = pseudo(40, 12);
        let (q, r) = qr(&a);
        assert!(residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-13);
        assert!(orthogonality_error(q.as_ref()) < 1e-13);
    }

    #[test]
    fn qr_reconstructs_blocked_path() {
        let a = pseudo(200, 90); // spans several 32-wide panels
        let (q, r) = qr(&a);
        assert!(residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-12);
        assert!(orthogonality_error(q.as_ref()) < 1e-12);
    }

    /// A power-of-two scale commutes with every step, so a 2^±900-scaled
    /// input, whose squares over- or underflow, factors to exactly 2^±900
    /// times the unscaled `R` with the same reflectors, on the unblocked and
    /// the blocked path.
    #[test]
    fn power_of_two_scaled_inputs_scale_the_factors_exactly() {
        for (m, n) in [(40, 12), (200, 90)] {
            let a = pseudo(m, n);
            let want = householder_qr(&a);
            for e in [900, -900] {
                let scale = 2f64.powi(e);
                let got = householder_qr(&Matrix::from_fn(m, n, |i, j| scale * a.get(i, j)));
                assert_eq!(got.tau, want.tau, "{m}x{n} at 2^{e}");
                for i in 0..m {
                    for j in 0..n {
                        let w = want.packed.get(i, j) * if j >= i { scale } else { 1.0 };
                        assert_eq!(got.packed.get(i, j), w, "{m}x{n} at 2^{e}: ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn r_is_upper_triangular() {
        let a = pseudo(30, 10);
        let (_, r) = qr(&a);
        for i in 0..10 {
            for j in 0..i {
                assert_eq!(r.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn square_qr() {
        let a = pseudo(24, 24);
        let (q, r) = qr(&a);
        assert!(residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-13);
        assert!(orthogonality_error(q.as_ref()) < 1e-13);
    }

    #[test]
    fn already_triangular_input() {
        // Upper-triangular input: reflectors are identity, R = A (up to sign).
        let mut a = Matrix::identity(8);
        a.set(0, 5, 3.0);
        let (q, r) = qr(&a);
        assert!(residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-14);
        assert!(orthogonality_error(q.as_ref()) < 1e-14);
    }

    #[test]
    fn larft_matches_sequential_application() {
        // Check I − V·T·Vᵀ equals H0·H1·…·H_{k−1} by applying both to I.
        let a = pseudo(16, 5);
        let mut packed = a.clone();
        let (tau, t) = panel_qr(packed.as_mut());
        // Blocked application to the identity.
        let mut c1 = Matrix::identity(16);
        apply_block_reflector(packed.view(0, 0, 16, 5), t.as_ref(), c1.as_mut());
        // One-at-a-time application of Hᵀ… note H is symmetric (I − τvvᵀ),
        // and the product applied by apply_block_reflector is (H0⋯Hk−1)ᵀ =
        // Hk−1⋯H0. Apply reflectors in that order.
        let mut c2 = Matrix::identity(16);
        for j in 0..5 {
            let vtail: Vec<f64> = (j + 1..16).map(|i| packed.get(i, j)).collect();
            let block = c2.view_mut(j, 0, 16 - j, 16);
            apply_reflector(&vtail, tau[j], block);
        }
        let mut d = c1.clone();
        for (x, y) in d.data_mut().iter_mut().zip(c2.data()) {
            *x -= y;
        }
        assert!(frobenius(d.as_ref()) < 1e-13, "WY and sequential application disagree");
    }
}
