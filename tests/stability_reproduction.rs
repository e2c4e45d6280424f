//! Reproduction of the paper's §I numerical-stability claims as assertions,
//! and the escalation ladder's contract — for `factor` and for a stream's
//! refresh — as κ-sweep properties.

use cacqr::{Algorithm, PlanError, QrPlan, RetryPolicy};
use dense::norms::orthogonality_error;
use dense::random::matrix_with_condition;
use dense::{BackendKind, Matrix};
use pargrid::GridShape;

#[test]
fn cqr_error_grows_as_kappa_squared() {
    // Fit the growth exponent of ‖QᵀQ−I‖ against κ: should be ≈ 2.
    let (m, n) = (96usize, 12usize);
    let mut lk = Vec::new();
    let mut le = Vec::new();
    for exp in [2i32, 3, 4, 5] {
        let kappa = 10f64.powi(exp);
        let a = matrix_with_condition(m, n, kappa, 500 + exp as u64);
        let (q, _) = cacqr::cqr(&a, BackendKind::default_kind()).expect("κ ≤ 1e5 must factor");
        lk.push(kappa.ln());
        le.push(orthogonality_error(q.as_ref()).ln());
    }
    // Least-squares slope.
    let mean_x: f64 = lk.iter().sum::<f64>() / lk.len() as f64;
    let mean_y: f64 = le.iter().sum::<f64>() / le.len() as f64;
    let num: f64 = lk.iter().zip(&le).map(|(x, y)| (x - mean_x) * (y - mean_y)).sum();
    let den: f64 = lk.iter().map(|x| (x - mean_x) * (x - mean_x)).sum();
    let slope = num / den;
    assert!(
        (1.6..2.4).contains(&slope),
        "CholeskyQR orthogonality loss should scale as κ²; measured exponent {slope:.2}"
    );
}

#[test]
fn cqr2_matches_householder_within_its_domain() {
    // "the QR factorization given by CholeskyQR2 will be as accurate as
    // Householder QR" for κ = O(√(1/ε)).
    let (m, n) = (96usize, 12usize);
    for exp in [1i32, 3, 5, 6, 7] {
        let kappa = 10f64.powi(exp);
        let a = matrix_with_condition(m, n, kappa, 600 + exp as u64);
        let (q2, _) = cacqr::cqr2(&a, BackendKind::default_kind()).expect("within the CQR2 domain");
        let (qh, _) = dense::householder::qr(&a);
        let e2 = orthogonality_error(q2.as_ref());
        let eh = orthogonality_error(qh.as_ref());
        assert!(
            e2 < 20.0 * eh.max(1e-15),
            "κ=1e{exp}: CQR2 {e2:.2e} vs Householder {eh:.2e}"
        );
    }
}

#[test]
fn distributed_cacqr2_inherits_sequential_stability() {
    // The distribution must not change the numerics: distributed CA-CQR2 on
    // a moderately conditioned input stays at machine precision.
    let (m, n) = (128usize, 16usize);
    let a = matrix_with_condition(m, n, 1e5, 9);
    let shape = GridShape::new(2, 8).unwrap();
    let run = QrPlan::new(m, n)
        .grid(shape)
        .base_size(4)
        .build()
        .unwrap()
        .factor(&a)
        .unwrap();
    assert!(run.orthogonality_error < 5e-14);
}

#[test]
fn shifted_cqr3_is_unconditional() {
    let (m, n) = (96usize, 12usize);
    for exp in [8i32, 10, 12, 14] {
        let kappa = 10f64.powi(exp);
        let a = matrix_with_condition(m, n, kappa, 700 + exp as u64);
        let (q, _) =
            cacqr::shifted_cqr3(&a, BackendKind::default_kind()).expect("shifted CQR3 is unconditionally stable");
        assert!(
            orthogonality_error(q.as_ref()) < 1e-12,
            "κ=1e{exp}: {:.2e}",
            orthogonality_error(q.as_ref())
        );
    }
}

/// The κ₁ limit `RetryPolicy::escalate()` holds a non-terminal rung to: the
/// CQR2 family's `KAPPA_MAX`, and shifted CQR3's Fukaya et al. bound
/// `KAPPA_MAX² / (64·(mn + n(n+1)))` derived from it.
fn rung_limit(algorithm: Algorithm, m: usize, n: usize) -> f64 {
    let kappa_max = RetryPolicy::KAPPA_MAX;
    match algorithm {
        Algorithm::CaCqr3 => kappa_max * kappa_max / (64 * (m * n + n * (n + 1))) as f64,
        _ => kappa_max,
    }
}

#[test]
fn escalation_ladder_accepts_each_input_on_the_first_rung_whose_limit_covers_it() {
    let plans = [
        (256, 32, Algorithm::Cqr2_1d, GridShape::one_d(1).unwrap()),
        (2048, 64, Algorithm::Cqr2_1d, GridShape::one_d(4).unwrap()),
        (64, 16, Algorithm::CaCqr2, GridShape::new(2, 2).unwrap()),
        (512, 256, Algorithm::CaCqr2, GridShape::new(2, 2).unwrap()),
    ];
    for (m, n, primary, grid) in plans {
        let plan = QrPlan::new(m, n)
            .algorithm(primary)
            .grid(grid)
            .retry(RetryPolicy::escalate())
            .build()
            .unwrap();
        let ladder: Vec<Algorithm> = std::iter::once(primary).chain(plan.escalation_rungs()).collect();
        for exp in 0..=16 {
            let cell = format!("{m}x{n} {primary} κ=1e{exp}");
            let a = matrix_with_condition(m, n, 10f64.powi(exp), 1000 + exp as u64);
            let report = plan
                .factor(&a)
                .unwrap_or_else(|e| panic!("{cell}: the ladder must end on a stable rung: {e}"));
            let esc = report.escalation.as_ref().expect("an enabled policy records its walk");
            let chain: Vec<Algorithm> = esc.attempts.iter().map(|at| at.algorithm).collect();
            assert_eq!(chain, ladder[..chain.len()], "{cell}: the walk follows the ladder");
            let (accepted, rejected) = esc.attempts.split_last().unwrap();
            assert!(accepted.error.is_none(), "{cell}: the last attempt is the accepted one");
            assert_eq!(report.algorithm, accepted.algorithm);
            for at in rejected {
                match at.error.as_deref() {
                    Some(PlanError::NotPositiveDefinite(_)) => {}
                    Some(&PlanError::ConditionTooHigh { estimate, limit }) => {
                        assert_eq!(limit, rung_limit(at.algorithm, m, n), "{cell}: {} limit", at.algorithm);
                        assert!(estimate > limit, "{cell}: {} rejected inside its limit", at.algorithm);
                    }
                    other => panic!("{cell}: {} rejected by {other:?}", at.algorithm),
                }
            }
            // Rejections above mean every earlier rung broke down or was out
            // of range; a non-terminal accepted rung must be within its own.
            if chain.len() < ladder.len() {
                let limit = rung_limit(accepted.algorithm, m, n);
                assert!(esc.condition_estimate <= limit, "{cell}: accepted beyond its limit");
            }
            let (qh, _) = dense::householder::qr(&a);
            let oracle = orthogonality_error(qh.as_ref());
            assert!(
                report.orthogonality_error <= 1e-13 && report.residual_error <= 1e-13,
                "{cell}: {} gave orthogonality {:.2e}, residual {:.2e}",
                report.algorithm,
                report.orthogonality_error,
                report.residual_error
            );
            assert!(
                report.orthogonality_error <= 10.0 * oracle,
                "{cell}: {} orthogonality {:.2e} against Householder's {oracle:.2e}",
                report.algorithm,
                report.orthogonality_error
            );
            // The benchmark's hard job ends on its second rung, and an input
            // past every Gram rung on the terminal one.
            if (m, n, exp) == (256, 32, 10) {
                assert_eq!(chain, [Algorithm::Cqr2_1d, Algorithm::CaCqr3], "{cell}");
            }
            if exp == 16 {
                assert_eq!(report.algorithm, *ladder.last().unwrap(), "{cell}: terminal rung");
            }
        }
    }
}

/// `‖(A·R⁻¹)ᵀ(A·R⁻¹) − I‖_F`: how well `r` alone orthogonalizes `a`.
fn r_orthogonality(a: &Matrix, r: &Matrix) -> f64 {
    let mut q = a.clone();
    dense::trsm_right_upper(r.as_ref(), q.as_mut());
    orthogonality_error(q.as_ref())
}

/// The stream half of the sweep: a refresh at a row count other than the
/// plan's runs the plan's own ladder on one rank, so its `R` is as good as
/// Householder's at every κ the stream can reach, with or without
/// escalation. A 256 × 32 one-rank 1D plan takes 16 appended rows, then
/// refreshes at 272 rows. The sweep stops at κ = 1e8: at 1e9 the append
/// itself (`rank_k_append`, a Cholesky of `RᵀR + BᵀB`) reports
/// `NotPositiveDefinite` before any refresh runs.
#[test]
fn off_shape_stream_refresh_is_as_accurate_as_householder() {
    let (m0, n, k) = (256, 32, 16);
    for policy in [RetryPolicy::none(), RetryPolicy::escalate()] {
        let plan = QrPlan::new(m0, n)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(1).unwrap())
            .retry(policy)
            .build()
            .unwrap();
        for exp in 0..=8 {
            let cell = format!("{policy:?} κ=1e{exp}");
            let rows = matrix_with_condition(m0 + k, n, 10f64.powi(exp), 77);
            let initial = Matrix::from_view(rows.view(0, 0, m0, n));
            let bare = Matrix::zeros(m0, 0);
            let mut s = plan
                .stream_with_rhs(&initial, &bare)
                .unwrap()
                .with_drift_threshold(f64::INFINITY);
            s.append_rows_with(rows.view(m0, 0, k, n), bare.view(0, 0, k, 0))
                .unwrap();
            s.refresh().unwrap_or_else(|e| panic!("{cell}: {e}"));
            let got = r_orthogonality(&rows, s.r());
            let oracle = r_orthogonality(&rows, &dense::householder::qr(&rows).1);
            assert!(
                got <= 10.0 * oracle,
                "{cell}: refreshed R orthogonalizes to {got:.2e}, Householder's to {oracle:.2e}"
            );
        }
    }
}
