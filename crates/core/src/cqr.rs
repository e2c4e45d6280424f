//! Algorithms 4–5: sequential CholeskyQR and CholeskyQR2, plus the shifted
//! CholeskyQR3 extension.
//!
//! ```text
//! CQR(A):   W = AᵀA;  Rᵀ, R⁻ᵀ = CholInv(W);  Q = A·R⁻¹
//! CQR2(A):  Q₁, R₁ = CQR(A);  Q, R₂ = CQR(Q₁);  R = R₂·R₁
//! ```
//!
//! CQR's orthogonality error grows as `ε·κ(A)²`; CQR2 repairs it to
//! Householder levels provided `κ(A) ≲ 1/√ε` (§I). For worse-conditioned
//! inputs the Cholesky of `AᵀA` fails outright; [`shifted_cqr3`] implements
//! the unconditionally stable variant the paper cites as reference \[3\] and names as
//! future work in §V: one CholeskyQR on `AᵀA + σI` followed by CQR2.
//!
//! With `P = 1` the 1D pass is the sequential one, so each helper is a
//! one-rank run of its 1D body ([`mod@crate::cqr1d`]: Algorithms 6–7 and
//! the shifted CQR3), inline on the calling thread, with a throwaway arena.

use crate::cqr1d::{cqr1d, cqr2_1d, cqr3_1d, FlopCharges};
use dense::cholesky::CholeskyError;
use dense::trsm::trmm_upper_upper;
use dense::{BackendKind, MatMut, MatRef, Matrix, Workspace};
use simgrid::{run_spmd, Comm, Rank, SimConfig};

/// `R = R₂·R₁` as a fresh upper-triangular matrix.
pub(crate) fn triu_product(r2: &Matrix, r1: &Matrix) -> Matrix {
    let mut r = Matrix::zeros(r1.rows(), r1.cols());
    trmm_upper_upper(r2.as_ref(), r1.as_ref(), r.as_mut());
    r
}

/// Runs a 1D body on one rank over all of `a`, returning `(Q, R)`.
fn one_rank(
    a: &Matrix,
    body: impl Fn(&mut Rank, &Comm, MatRef<'_>, MatMut<'_>, &mut Workspace) -> Result<Matrix, CholeskyError> + Sync,
) -> Result<(Matrix, Matrix), CholeskyError> {
    let mut report = run_spmd(1, SimConfig::default(), |rank| {
        let world = rank.world();
        let mut q = Matrix::zeros(a.rows(), a.cols());
        let r = body(rank, &world, a.as_ref(), q.as_mut(), &mut Workspace::new())?;
        Ok((q, r))
    });
    report.results.pop().expect("one rank ran")
}

/// One CholeskyQR pass (Algorithm 4): `A = QR` with `Q` having *nearly*
/// orthonormal columns (error `O(ε·κ²)`) and `R` upper triangular. Local
/// arithmetic goes through the given kernel backend (pass
/// [`BackendKind::default_kind`] for the default).
pub fn cqr(a: &Matrix, backend: BackendKind) -> Result<(Matrix, Matrix), CholeskyError> {
    one_rank(a, |rank, comm, a, q, ws| {
        cqr1d(rank, comm, a, q, 0.0, FlopCharges::OneD, backend, ws)
    })
}

/// CholeskyQR2 (Algorithm 5): two CQR passes; accuracy comparable to
/// Householder QR for `κ(A) = O(1/√ε)`.
pub fn cqr2(a: &Matrix, backend: BackendKind) -> Result<(Matrix, Matrix), CholeskyError> {
    one_rank(a, |rank, comm, a, q, ws| {
        cqr2_1d(rank, comm, a, q, false, FlopCharges::OneD, backend, ws).map(|(r, _)| r)
    })
}

/// The first pass of every shifted CholeskyQR3: `pass` at the Gram shift of
/// Fukaya et al. for an `m × n` matrix with squared Frobenius norm
/// `frob_sq`, `σ = 11·(mn + n(n+1))·ε·‖A‖₂²` bounding `‖A‖₂ ≤ ‖A‖_F`, under
/// which `AᵀA + σI` is positive definite in floating point for any
/// numerically full-rank `A`. On a failed Cholesky (pathological input) σ
/// grows ×100, up to four tries; the last try's breakdown is the error.
/// Ranks that derive `frob_sq` from allreduced data all grow the same shift.
pub(crate) fn shifted_pass<T>(
    m: usize,
    n: usize,
    frob_sq: f64,
    mut pass: impl FnMut(f64) -> Result<T, CholeskyError>,
) -> Result<T, CholeskyError> {
    let mut sigma = 11.0 * ((m * n) as f64 + (n * (n + 1)) as f64) * f64::EPSILON * frob_sq;
    let mut first = pass(sigma);
    for _ in 1..4 {
        if first.is_ok() {
            break;
        }
        sigma *= 100.0;
        first = pass(sigma);
    }
    first
}

/// Shifted CholeskyQR3: unconditionally stable QR for numerically
/// full-rank `A`.
///
/// The first pass factors `AᵀA + σI` with the shift of Fukaya et al., which is
/// guaranteed positive definite in floating point; the resulting `Q₁` has
/// `κ(Q₁) = O(1)` and two further CholeskyQR passes (CQR2) finish the job.
/// If the shifted Cholesky still fails (pathological input), the shift is
/// grown ×100 up to a small number of retries.
pub fn shifted_cqr3(a: &Matrix, backend: BackendKind) -> Result<(Matrix, Matrix), CholeskyError> {
    one_rank(a, |rank, comm, a, q, ws| {
        cqr3_1d(rank, comm, a, q, FlopCharges::OneD, backend, ws)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::norms::{lower_residual, orthogonality_error, residual_error};
    use dense::random::{matrix_with_condition, well_conditioned};

    #[test]
    fn cqr_factorizes_well_conditioned() {
        let a = well_conditioned(60, 12, 1);
        let (q, r) = cqr(&a, BackendKind::default_kind()).unwrap();
        assert!(residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-13);
        assert!(orthogonality_error(q.as_ref()) < 1e-12);
        assert_eq!(lower_residual(r.as_ref()), 0.0);
    }

    #[test]
    fn cqr2_repairs_orthogonality() {
        // κ = 1e4: CQR loses ~ε·κ² ≈ 1e-8 of orthogonality; CQR2 restores ~ε.
        let a = matrix_with_condition(80, 10, 1e4, 2);
        let (q1, _) = cqr(&a, BackendKind::default_kind()).unwrap();
        let (q2, r2) = cqr2(&a, BackendKind::default_kind()).unwrap();
        let e1 = orthogonality_error(q1.as_ref());
        let e2 = orthogonality_error(q2.as_ref());
        assert!(e1 > 1e-11, "CQR should visibly degrade at κ=1e4 (got {e1:.2e})");
        assert!(e2 < 1e-13, "CQR2 should restore orthogonality (got {e2:.2e})");
        assert!(residual_error(a.as_ref(), q2.as_ref(), r2.as_ref()) < 1e-12);
    }

    #[test]
    fn cqr_fails_beyond_sqrt_eps() {
        // κ ≈ 1e9 ≫ 1/√ε: AᵀA is numerically indefinite (Cholesky breaks)
        // or the computed Q is far from orthonormal.
        let a = matrix_with_condition(64, 8, 1e9, 3);
        match cqr(&a, BackendKind::default_kind()) {
            Err(_) => {}
            Ok((q, _)) => assert!(orthogonality_error(q.as_ref()) > 1e-3),
        }
    }

    #[test]
    fn shifted_cqr3_handles_extreme_condition() {
        for kappa in [1e8, 1e12] {
            let a = matrix_with_condition(96, 12, kappa, 4);
            let (q, r) = shifted_cqr3(&a, BackendKind::default_kind()).expect("shifted CQR3 must not fail");
            assert!(
                orthogonality_error(q.as_ref()) < 1e-12,
                "κ={kappa}: orthogonality {:.2e}",
                orthogonality_error(q.as_ref())
            );
            assert!(residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-11);
        }
    }

    #[test]
    fn r_factors_match_householder_up_to_sign() {
        let a = well_conditioned(50, 8, 7);
        let (mut q_c, mut r_c) = cqr2(&a, BackendKind::default_kind()).unwrap();
        let (mut q_h, mut r_h) = dense::householder::qr(&a);
        dense::norms::normalize_qr_signs(&mut q_c, &mut r_c);
        dense::norms::normalize_qr_signs(&mut q_h, &mut r_h);
        for (u, v) in r_c.data().iter().zip(r_h.data()) {
            assert!((u - v).abs() < 1e-9 * (1.0 + v.abs()), "{u} vs {v}");
        }
        for (u, v) in q_c.data().iter().zip(q_h.data()) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }
}
