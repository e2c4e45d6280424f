//! Condition-adaptive escalation and service resilience, end to end.
//!
//! * **Acceptance (the ladder works):** a κ ≈ 1e9 input that provably
//!   defeats plain CQR2 (its Gram matrix squares the conditioning past
//!   1/ε) completes through automatic escalation, records the full attempt
//!   chain, and matches the Householder oracle's `R` to batch-CQR2
//!   accuracy bounds.
//! * **Streams escalate too:** a drift-triggered refresh that fails on the
//!   plain sequential path retries on the shifted-CQR3 and Householder
//!   rungs instead of parking the stream in `refresh_failed`.
//! * **The service counts what it did:** a κ ≈ 1e9 panel submitted with an
//!   escalating retry policy and a zero-deadline submission against a warm
//!   queue show up in `stats()` as one retry (the panel ends on shifted
//!   CQR3), one escalation and one shed job.
//! * **Non-finite input is typed at once:** an escalating job with a NaN
//!   operand fails with `NonFinite` from its first rung.
//! * **Stable partial-failure indices:** `try_factor_many` maps each panel's
//!   typed outcome to its submission index regardless of how ranges were
//!   stolen across the pool.

use cacqr::service::JobSpec;
use cacqr::{Algorithm, PlanError, QrPlan, QrService, RetryPolicy, ServiceError, SubmitOptions};
use dense::random::{gaussian_matrix, matrix_with_condition, well_conditioned};
use dense::Matrix;
use pargrid::GridShape;
use std::time::Duration;

/// Normalize row signs of an upper-triangular factor so factors from
/// Gram-based (positive-diagonal) and Householder-based paths compare.
fn positive_diag(r: &Matrix) -> Matrix {
    Matrix::from_fn(r.rows(), r.cols(), |i, j| {
        let d = r.get(i, i);
        if d < 0.0 {
            -r.get(i, j)
        } else {
            r.get(i, j)
        }
    })
}

#[test]
fn kappa_1e9_input_completes_via_escalation_and_matches_householder() {
    let hard = matrix_with_condition(64, 16, 1e9, 41);
    let plan = QrPlan::new(64, 16)
        .grid(GridShape::new(2, 2).unwrap())
        .retry(RetryPolicy::escalate())
        .build()
        .unwrap();
    // The ladder-shaped input must actually defeat the primary rung.
    assert!(
        plan.factor_with_policy(&hard, RetryPolicy::none()).is_err(),
        "kappa 1e9 squared must break plain CQR2's Cholesky"
    );
    let report = plan.factor(&hard).unwrap();
    let esc = report
        .escalation
        .as_ref()
        .expect("policy-enabled run records its ladder");
    assert!(esc.escalated(), "recovery must have climbed at least one rung");
    assert!(esc.attempts.len() >= 2);
    assert!(esc.attempts.last().unwrap().error.is_none());
    assert_ne!(report.algorithm, Algorithm::CaCqr2);

    // Batch-CQR2-grade accuracy from the escalated result...
    assert!(report.orthogonality_error < 1e-12, "got {}", report.orthogonality_error);
    assert!(report.residual_error < 1e-12, "got {}", report.residual_error);

    // ...and agreement with the Householder oracle on the same input, up to
    // the row-sign convention, at the accuracy CQR2's own equivalence tests
    // use.
    let (_, oracle_r) = dense::householder::qr(&hard);
    let ours = positive_diag(&report.r);
    let reference = positive_diag(&oracle_r);
    let denom = reference.data().iter().map(|x| x * x).sum::<f64>().sqrt();
    let diff = ours
        .data()
        .iter()
        .zip(reference.data())
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    assert!(
        diff / denom < 1e-8,
        "escalated R must agree with the Householder oracle (rel diff {:.3e})",
        diff / denom
    );
}

#[test]
fn escalation_report_is_deterministic_across_repeats() {
    let hard = matrix_with_condition(64, 16, 1e9, 17);
    let plan = QrPlan::new(64, 16)
        .grid(GridShape::new(2, 2).unwrap())
        .retry(RetryPolicy::escalate())
        .build()
        .unwrap();
    let r1 = plan.factor(&hard).unwrap();
    let r2 = plan.factor(&hard).unwrap();
    assert_eq!(r1.algorithm, r2.algorithm);
    assert_eq!(r1.r.data(), r2.r.data(), "ladder walks are bitwise reproducible");
    let (e1, e2) = (r1.escalation.unwrap(), r2.escalation.unwrap());
    assert_eq!(e1.attempts.len(), e2.attempts.len());
    assert_eq!(e1.condition_estimate.to_bits(), e2.condition_estimate.to_bits());
}

/// A window whose trailing block is numerically singular once the leading
/// rows are removed: the committed downdate succeeds, but re-factoring the
/// live rows through plain sequential CQR2 breaks down. (Mirrors the
/// construction in `streaming.rs`.)
fn refresh_failure_window(c_rows: usize, d_rows: usize, n: usize, seed: u64) -> Matrix {
    let c = gaussian_matrix(c_rows, n, seed);
    let core = gaussian_matrix(d_rows, n, seed ^ 0xd00d);
    let s_scale = 1e7;
    let delta = 1e-9;
    Matrix::from_fn(c_rows + d_rows, n, |i, j| {
        if i < c_rows {
            10.0 * c.get(i, j)
        } else {
            let i = i - c_rows;
            if j < n - 2 {
                s_scale * core.get(i, j)
            } else {
                let avg: f64 = (0..n - 2).map(|k| core.get(i, k)).sum::<f64>() / (n - 2) as f64;
                let alt: f64 = (0..n - 2)
                    .map(|k| if k % 2 == 0 { core.get(i, k) } else { -core.get(i, k) })
                    .sum::<f64>()
                    / (n - 2) as f64;
                let combo = if j == n - 2 { avg } else { alt };
                s_scale * (combo + delta * core.get(i, j))
            }
        }
    })
}

#[test]
fn stream_refresh_escalates_instead_of_parking_in_refresh_failed() {
    let n = 8usize;
    let (c_rows, d_rows) = (16usize, 48usize);
    let a0 = refresh_failure_window(c_rows, d_rows, n, 0);
    let oldest = Matrix::from_view(a0.view(0, 0, c_rows, n));

    // Without a policy the refresh fails and the stream parks (covered in
    // streaming.rs); with escalation enabled the same refresh walks the
    // sequential ladder — shifted CQR3, then Householder — and succeeds.
    let plan = QrPlan::new(c_rows + d_rows, n)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(4).unwrap())
        .retry(RetryPolicy::escalate())
        .build()
        .unwrap();
    let mut s = plan
        .stream_with_rhs(&a0, &Matrix::zeros(a0.rows(), 0))
        .unwrap()
        .with_drift_threshold(0.0);
    let status = s
        .downdate_rows_with(oldest.as_ref(), Matrix::zeros(oldest.rows(), 0).as_ref())
        .expect("the downdate itself commits");
    assert!(
        status.refreshed,
        "an enabled policy must rescue the refresh through the ladder"
    );
    assert!(!status.refresh_failed);
    assert_eq!(status.rows, d_rows);
    assert!(s.last_refresh_error().is_none());
    assert_eq!(s.drift(), 0.0, "a successful escalated refresh resets drift");
}

#[test]
fn service_stats_count_escalation_and_shedding() {
    let service = QrService::builder().build();
    let single_rank = |m, n| {
        JobSpec::new(m, n)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(1).unwrap())
    };
    let report = service
        .submit_with(
            &single_rank(64, 16),
            matrix_with_condition(64, 16, 1e9, 41),
            SubmitOptions::new().retry(RetryPolicy::escalate()),
        )
        .unwrap()
        .wait()
        .expect("the ladder terminates at a stable rung");
    let esc = report
        .escalation
        .as_ref()
        .expect("a kappa 1e9 panel cannot pass plain CQR2: the ladder must engage");
    assert!(esc.escalated(), "accepted rung should not be the primary algorithm");

    // Warm the queue-wait histogram so admission control has an observed
    // p99, then present a deadline no queue can meet.
    let small = single_rank(16, 4);
    let warm: Vec<_> = (0..8)
        .map(|s| service.submit(&small, well_conditioned(16, 4, 100 + s)).unwrap())
        .collect();
    for h in warm {
        h.wait().unwrap();
    }
    let shed = service
        .submit_with(
            &small,
            well_conditioned(16, 4, 7),
            SubmitOptions::new().deadline(Duration::ZERO),
        )
        .err();
    assert!(
        matches!(shed, Some(ServiceError::Overloaded { .. })),
        "a zero deadline against a warm queue must be shed, got {shed:?}"
    );

    let stats = service.stats();
    assert_eq!(stats.retries, 1, "CQR2 breaks down, shifted CQR3 is accepted");
    assert_eq!(stats.escalations, 1);
    assert_eq!(stats.shed, 1);
}

/// A NaN operand ends an escalating job's walk at its first rung: the
/// handle delivers `NonFinite` of the spec's algorithm, not an exhausted
/// ladder.
#[test]
fn an_escalating_job_with_a_nan_operand_is_non_finite() {
    let service = QrService::builder().workers(1).build();
    let spec = JobSpec::new(64, 16)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(2).unwrap());
    let mut a = well_conditioned(64, 16, 43);
    a.set(9, 4, f64::NAN);
    let outcome = service
        .submit_with(&spec, a, SubmitOptions::new().retry(RetryPolicy::escalate()))
        .unwrap()
        .wait();
    assert!(
        matches!(
            outcome,
            Err(ServiceError::Plan(PlanError::NonFinite {
                algorithm: Algorithm::Cqr2_1d
            }))
        ),
        "{outcome:?}"
    );
}

#[test]
fn factor_many_error_indices_are_stable_under_stealing() {
    let service = QrService::builder().workers(8).build();
    let spec = JobSpec::new(64, 16).grid(GridShape::new(2, 2).unwrap());
    let bad_at = [5usize, 17, 40];
    let batch: Vec<Matrix> = (0..48)
        .map(|i| {
            if bad_at.contains(&i) {
                // Zero column: the Gram matrix loses positive definiteness.
                let mut m = well_conditioned(64, 16, i as u64);
                for r in 0..64 {
                    m.set(r, 3, 0.0);
                }
                m
            } else {
                well_conditioned(64, 16, i as u64)
            }
        })
        .collect();
    let plan = service.plan(&spec).unwrap();
    let reference: Vec<_> = batch.iter().map(|a| plan.factor(a)).collect();
    let outcomes = service.try_factor_many(&spec, batch).unwrap();
    assert_eq!(outcomes.len(), 48);
    for (i, outcome) in outcomes.iter().enumerate() {
        if bad_at.contains(&i) {
            assert!(
                matches!(outcome, Err(ServiceError::Plan(PlanError::NotPositiveDefinite(_)))),
                "panel {i} must fail typed in place, got {outcome:?}"
            );
        } else {
            let report = outcome.as_ref().expect("healthy siblings keep their reports");
            assert_eq!(
                report.r.data(),
                reference[i].as_ref().unwrap().r.data(),
                "panel {i}'s result must be bitwise the sequential factor"
            );
        }
    }
}
