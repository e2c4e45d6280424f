//! Failure injection: rank-deficient and ill-conditioned inputs must
//! produce *consistent, informative* errors on every rank — never a hang,
//! panic, or divergent control flow.

use cacqr::{Algorithm, CfrParams, PlanError, QrPlan, RetryPolicy};
use dense::random::{matrix_with_condition, well_conditioned};
use dense::{BackendKind, Matrix};
use pargrid::{DistMatrix, GridShape, TunableComms};
use simgrid::{run_spmd, SimConfig};

#[test]
fn rank_deficient_input_reports_pivot_on_all_ranks() {
    // An exactly-zero column: AᵀA has a zero pivot at that index. Every
    // rank must see the same CholeskyError, at the right global index.
    let (m, n) = (32usize, 8usize);
    let mut a = well_conditioned(m, n, 3);
    for i in 0..m {
        a.set(i, 5, 0.0);
    }
    let shape = GridShape::new(2, 4).unwrap();
    let report = run_spmd(shape.p(), SimConfig::default(), move |rank| {
        let comms = TunableComms::build(rank, shape);
        let (x, y, _) = comms.coords;
        let al = DistMatrix::from_global(&a, 4, 2, y, x);
        let params = CfrParams::validated(n, 2, 4, 0).unwrap();
        cacqr::ca_cqr2(
            rank,
            &comms,
            al.local.as_ref(),
            n,
            &params,
            &mut dense::Workspace::new(),
        )
        .err()
    });
    let first = report.results[0].expect("singular input must fail");
    for r in &report.results {
        assert_eq!(*r, Some(first), "all ranks must report the identical error");
    }
    assert_eq!(first.index, 5, "the zero column's pivot index must surface globally");
}

#[test]
fn duplicate_columns_fail_or_factor_validly() {
    // Exactly duplicated columns make AᵀA singular in exact arithmetic. In
    // floating point the Cholesky may survive on a roundoff-sized pivot —
    // and when it does, CQR2's second pass still delivers a *valid*
    // factorization: orthonormal Q, small residual, and a (near-)zero
    // diagonal entry in R exposing the rank deficiency to the caller.
    let (m, n) = (32usize, 8usize);
    let mut a = well_conditioned(m, n, 3);
    for i in 0..m {
        let v = a.get(i, 2);
        a.set(i, 5, v);
    }
    let shape = GridShape::new(2, 4).unwrap();
    let plan = QrPlan::new(m, n).grid(shape).base_size(4).build().unwrap();
    match plan.factor(&a) {
        Err(PlanError::NotPositiveDefinite(_)) => {}
        Err(e) => panic!("only loss of positive definiteness is acceptable, got {e}"),
        Ok(run) => {
            assert!(dense::norms::orthogonality_error(run.q.as_ref()) < 1e-12);
            assert!(dense::norms::residual_error(a.as_ref(), run.q.as_ref(), run.r.as_ref()) < 1e-10);
            let min_diag = (0..n).map(|i| run.r.get(i, i).abs()).fold(f64::INFINITY, f64::min);
            let max_diag = (0..n).map(|i| run.r.get(i, i).abs()).fold(0.0, f64::max);
            assert!(
                min_diag < 1e-6 * max_diag,
                "rank deficiency must surface as a tiny R diagonal ({min_diag:.2e} vs {max_diag:.2e})"
            );
        }
    }
}

#[test]
fn driver_surfaces_errors_not_panics() {
    let a = matrix_with_condition(64, 8, 1e13, 5);
    let plan = QrPlan::new(64, 8)
        .grid(GridShape::new(2, 4).unwrap())
        .base_size(4)
        .build()
        .unwrap();
    assert!(matches!(plan.factor(&a), Err(PlanError::NotPositiveDefinite(_))));
    // The same input through the unconditionally stable variant succeeds.
    let plan3 = QrPlan::new(64, 8)
        .algorithm(Algorithm::CaCqr3)
        .grid(GridShape::new(2, 4).unwrap())
        .base_size(4)
        .build()
        .unwrap();
    let report = plan3.factor(&a).expect("CA-CQR3 is unconditionally stable");
    assert!(report.orthogonality_error < 1e-12);
}

#[test]
fn shifted_cqr3_rescues_what_cqr2_cannot() {
    let a = matrix_with_condition(96, 12, 1e12, 8);
    let be = BackendKind::default_kind();
    assert!(cacqr::cqr2(&a, be).is_err(), "plain CQR2 must fail at kappa = 1e12");
    let (q, r) = cacqr::shifted_cqr3(&a, be).expect("shifted CQR3 must succeed");
    assert!(dense::norms::orthogonality_error(q.as_ref()) < 1e-12);
    assert!(dense::norms::residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-11);
}

#[test]
fn grid_validation_rejects_bad_shapes() {
    assert!(GridShape::new(3, 9).is_err(), "non-power-of-two");
    assert!(GridShape::new(4, 2).is_err(), "d < c");
    assert!(CfrParams::validated(64, 4, 2, 0).is_err(), "base below cube edge");
    assert!(CfrParams::validated(64, 2, 16, 9).is_err(), "inverse depth too deep");
}

#[test]
fn facade_rejects_indivisible_rows_without_panicking() {
    let shape = GridShape::new(2, 4).unwrap();
    let err = QrPlan::new(30, 8).grid(shape).build().unwrap_err();
    assert_eq!(
        err,
        PlanError::RowsNotDivisible {
            m: 30,
            divisor: 4,
            algorithm: Algorithm::CaCqr2,
        }
    );
}

#[test]
fn zero_matrix_fails_cleanly() {
    let a = Matrix::zeros(32, 8);
    let shape = GridShape::new(2, 4).unwrap();
    let plan = QrPlan::new(32, 8).grid(shape).base_size(4).build().unwrap();
    match plan.factor(&a) {
        Err(PlanError::NotPositiveDefinite(e)) => {
            assert_eq!(e.index, 0, "first pivot of a zero Gram matrix")
        }
        other => panic!("zero matrix must not factor: {other:?}"),
    }
}

#[test]
fn pgeqrf_handles_rank_deficiency_gracefully() {
    // Householder QR of a rank-deficient matrix is still well defined
    // (R acquires zero diagonal entries); it must not panic.
    let (m, n) = (32usize, 8usize);
    let mut a = well_conditioned(m, n, 11);
    for i in 0..m {
        a.set(i, 7, 0.0);
    }
    let grid = baseline::BlockCyclic { pr: 4, pc: 2, nb: 4 };
    let plan = QrPlan::new(m, n)
        .algorithm(Algorithm::Pgeqrf)
        .block_cyclic(grid)
        .build()
        .unwrap();
    let run = plan.factor(&a).unwrap();
    assert!(dense::norms::residual_error(a.as_ref(), run.q.as_ref(), run.r.as_ref()) < 1e-12);
    assert!(
        run.r.get(7, 7).abs() < 1e-12,
        "zero column must give a zero diagonal in R"
    );
}

#[test]
fn non_finite_input_never_factors_to_ok() {
    // One NaN or +∞ entry: a Gram rung breaks down on it, and Householder
    // QR runs to the end with a non-finite R. Either way the walk scans the
    // input and stops at its first rung with `NonFinite` of the plan's own
    // algorithm — under both policies, on any grid — instead of escalating
    // to rungs that cannot factor it either.
    let (m, n) = (256usize, 16usize);
    let plans = [
        QrPlan::new(m, n)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(2).unwrap()),
        QrPlan::new(m, n).grid(GridShape::new(2, 2).unwrap()),
        QrPlan::new(m, n)
            .algorithm(Algorithm::Pgeqrf)
            .block_cyclic(baseline::BlockCyclic { pr: 2, pc: 1, nb: 16 }),
    ];
    for bad in [f64::NAN, f64::INFINITY] {
        let mut a = well_conditioned(m, n, 20);
        a.set(37, 5, bad);
        for builder in plans {
            let plan = builder.build().unwrap();
            let algorithm = plan.algorithm();
            for policy in [RetryPolicy::none(), RetryPolicy::escalate()] {
                match plan.factor_with_policy(&a, policy) {
                    Err(PlanError::NonFinite { algorithm: got }) => assert_eq!(got, algorithm),
                    other => panic!("{algorithm} with a {bad} entry, {policy:?}: {other:?}"),
                }
            }
        }
    }
    // A finite input whose Gram matrix overflows is not non-finite input:
    // the scan finds nothing, and an escalating walk keeps its whole chain,
    // the terminal Householder rung refusing its non-finite R.
    let well = well_conditioned(m, n, 20);
    let huge = Matrix::from_fn(m, n, |i, j| 1e155 * well.get(i, j));
    for builder in plans {
        let plan = builder.build().unwrap();
        let algorithm = plan.algorithm();
        match plan.factor_with_policy(&huge, RetryPolicy::escalate()) {
            Err(PlanError::EscalationExhausted { attempts }) => {
                let rungs = if algorithm == Algorithm::Pgeqrf { 1 } else { 3 };
                assert_eq!(attempts.len(), rungs, "{attempts:?}");
                let terminal = attempts[rungs - 1].error.as_deref();
                let want = PlanError::NonFinite {
                    algorithm: Algorithm::Pgeqrf,
                };
                assert_eq!(terminal, Some(&want), "{attempts:?}");
            }
            other => panic!("{algorithm} on a 1e155-scaled input: {other:?}"),
        }
    }
}

#[test]
fn a_non_finite_diagnostic_is_never_ok() {
    // A finite input scaled by 2^-900 or 1e-300: the Gram rungs break down
    // on a zero pivot, and the terminal Householder rung runs to a finite R
    // whose report diagnostics the unscaled norms cannot form (‖A‖²
    // underflows, so the residual is 0/0). Nothing vouches for that R: the
    // escalating walk ends in a typed error, not in an `Ok` report.
    let (m, n) = (256usize, 16usize);
    let well = well_conditioned(m, n, 20);
    let plans = [
        QrPlan::new(m, n)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(2).unwrap()),
        QrPlan::new(m, n).grid(GridShape::new(2, 2).unwrap()),
    ];
    for scale in [2f64.powi(-900), 1e-300] {
        let tiny = Matrix::from_fn(m, n, |i, j| scale * well.get(i, j));
        for builder in plans {
            let plan = builder.build().unwrap();
            match plan.factor_with_policy(&tiny, RetryPolicy::escalate()) {
                Err(PlanError::NonFiniteDiagnostics {
                    algorithm: Algorithm::Pgeqrf,
                    diagnostics: (ortho, resid),
                }) => assert!(!(ortho.is_finite() && resid.is_finite())),
                other => panic!("{} on a {scale:e}-scaled input: {other:?}", plan.algorithm()),
            }
        }
    }
}

#[test]
fn a_zero_matrix_factors_exactly_on_householder() {
    // PGEQRF factors a zero A exactly (every τ = 0, so R = 0 and Q is
    // orthonormal); its residual 0/0 reads 0, so the report is `Ok`, on the
    // algorithm itself and where an escalating walk from CQR2 ends.
    let (m, n) = (64usize, 8usize);
    let zeros = Matrix::zeros(m, n);
    let plans = [
        QrPlan::new(m, n)
            .algorithm(Algorithm::Pgeqrf)
            .block_cyclic(baseline::BlockCyclic { pr: 2, pc: 1, nb: 8 }),
        QrPlan::new(m, n)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(2).unwrap()),
    ];
    for builder in plans {
        let plan = builder.build().unwrap();
        let report = plan
            .factor_with_policy(&zeros, RetryPolicy::escalate())
            .unwrap_or_else(|e| panic!("{} on zeros: {e}", plan.algorithm()));
        assert_eq!(report.algorithm, Algorithm::Pgeqrf);
        assert!(report.r.data().iter().all(|&v| v == 0.0));
        assert_eq!(report.residual_error, 0.0);
        assert!(report.orthogonality_error < 1e-12, "{}", report.orthogonality_error);
    }
}
