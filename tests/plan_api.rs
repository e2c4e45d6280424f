//! Plan-API contract: every invalid configuration yields the *right* typed
//! [`PlanError`] variant (never a panic or a stringly error), every valid
//! configuration factors through the unified report, and a built plan is
//! reusable across a batch of matrices.

use ca_cqr2::baseline::BlockCyclic;
use ca_cqr2::cacqr::ParamError;
use ca_cqr2::dense::norms::{lower_residual, normalize_qr_signs};
use ca_cqr2::dense::random::well_conditioned;
use ca_cqr2::pargrid::{GridError, GridShape};
use ca_cqr2::simgrid::Machine;
use ca_cqr2::{Algorithm, PlanError, QrPlan};

fn grid(c: usize, d: usize) -> GridShape {
    GridShape::new(c, d).unwrap()
}

// ---------------------------------------------------------------------------
// Build-time validation: each constraint maps to its own variant.
// ---------------------------------------------------------------------------

#[test]
fn non_power_of_two_n_is_a_param_error() {
    let err = QrPlan::new(96, 12).grid(grid(2, 4)).build().unwrap_err();
    assert_eq!(
        err,
        PlanError::Param(ParamError::NotPowerOfTwo { what: "n", value: 12 })
    );
}

#[test]
fn non_power_of_two_base_size_is_a_param_error() {
    let err = QrPlan::new(64, 16).grid(grid(2, 4)).base_size(6).build().unwrap_err();
    assert_eq!(
        err,
        PlanError::Param(ParamError::NotPowerOfTwo { what: "n0", value: 6 })
    );
}

#[test]
fn non_power_of_two_grid_is_a_grid_error() {
    // The grid itself is validated at construction; the typed error
    // converts losslessly into the facade's error type.
    let err = GridShape::new(3, 8).unwrap_err();
    assert_eq!(err, GridError::NotPowerOfTwo { c: 3, d: 8 });
    assert_eq!(PlanError::from(err), PlanError::Grid(err));
    assert_eq!(
        GridShape::new(4, 2).unwrap_err(),
        GridError::DSmallerThanC { c: 4, d: 2 }
    );
    assert_eq!(GridShape::new(0, 2).unwrap_err(), GridError::ZeroDimension);
}

#[test]
fn rows_not_divisible_by_d() {
    let err = QrPlan::new(60, 8).grid(grid(2, 8)).build().unwrap_err();
    assert_eq!(
        err,
        PlanError::RowsNotDivisible {
            m: 60,
            divisor: 8,
            algorithm: Algorithm::CaCqr2,
        }
    );
}

#[test]
fn rows_not_divisible_by_p_for_1d() {
    // 1D-CQR2 partitions rows over all P = c²·d ranks.
    let err = QrPlan::new(36, 8)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(grid(2, 4))
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        PlanError::RowsNotDivisible {
            m: 36,
            divisor: 16,
            algorithm: Algorithm::Cqr2_1d,
        }
    );
}

#[test]
fn cols_not_divisible_by_c() {
    let err = QrPlan::new(64, 4).grid(grid(8, 8)).build().unwrap_err();
    assert_eq!(err, PlanError::ColsNotDivisible { n: 4, divisor: 8 });
}

#[test]
fn inverse_depth_too_deep() {
    // n = 16, n₀ = 4: φ = 2 levels; depth 3 is out of range.
    let err = QrPlan::new(64, 16)
        .grid(grid(2, 4))
        .base_size(4)
        .inverse_depth(3)
        .build()
        .unwrap_err();
    assert_eq!(
        err,
        PlanError::Param(ParamError::InverseDepthTooDeep {
            inverse_depth: 3,
            levels: 2,
        })
    );
}

#[test]
fn base_size_bounds_are_param_errors() {
    let err = QrPlan::new(64, 16).grid(grid(4, 4)).base_size(2).build().unwrap_err();
    assert_eq!(
        err,
        PlanError::Param(ParamError::BaseBelowGridEdge { base_size: 2, c: 4 })
    );
    let err = QrPlan::new(64, 16).grid(grid(2, 4)).base_size(32).build().unwrap_err();
    assert_eq!(
        err,
        PlanError::Param(ParamError::BaseExceedsMatrix { base_size: 32, n: 16 })
    );
}

#[test]
fn pgeqrf_block_size_must_divide_n() {
    let err = QrPlan::new(64, 16)
        .algorithm(Algorithm::Pgeqrf)
        .block_cyclic(BlockCyclic { pr: 4, pc: 2, nb: 5 })
        .build()
        .unwrap_err();
    assert_eq!(err, PlanError::BlockSizeMismatch { n: 16, nb: 5 });
}

#[test]
fn pgeqrf_rejects_empty_layout() {
    let err = QrPlan::new(64, 16)
        .algorithm(Algorithm::Pgeqrf)
        .block_cyclic(BlockCyclic { pr: 0, pc: 2, nb: 8 })
        .build()
        .unwrap_err();
    assert_eq!(err, PlanError::BlockCyclicZero { pr: 0, pc: 2, nb: 8 });
}

#[test]
fn pgeqrf_rejects_non_power_of_two_communicators() {
    // The butterfly collectives only handle power-of-two groups; before
    // PR 6 this tripped an `assert!` deep in the runtime mid-factorization.
    // Now it is a typed error at build time.
    let err = QrPlan::new(96, 16)
        .algorithm(Algorithm::Pgeqrf)
        .block_cyclic(BlockCyclic { pr: 3, pc: 2, nb: 8 })
        .build()
        .unwrap_err();
    assert_eq!(err, PlanError::CommNotPowerOfTwo { what: "pr", size: 3 });
    let err = QrPlan::new(96, 16)
        .algorithm(Algorithm::Pgeqrf)
        .block_cyclic(BlockCyclic { pr: 4, pc: 6, nb: 8 })
        .build()
        .unwrap_err();
    assert_eq!(err, PlanError::CommNotPowerOfTwo { what: "pc", size: 6 });
}

#[test]
fn missing_grid_and_missing_block_cyclic() {
    for alg in [Algorithm::Cqr2_1d, Algorithm::CaCqr2, Algorithm::CaCqr3] {
        let err = QrPlan::new(64, 16).algorithm(alg).build().unwrap_err();
        assert_eq!(err, PlanError::MissingGrid { algorithm: alg });
    }
    let err = QrPlan::new(64, 16).algorithm(Algorithm::Pgeqrf).build().unwrap_err();
    assert_eq!(err, PlanError::MissingBlockCyclic);
}

#[test]
fn wide_matrices_are_rejected() {
    let err = QrPlan::new(8, 16).grid(grid(2, 4)).build().unwrap_err();
    assert_eq!(err, PlanError::NotTall { m: 8, n: 16 });
}

#[test]
fn errors_display_and_source() {
    // The whole error surface is `Display + std::error::Error`.
    let err = QrPlan::new(96, 12).grid(grid(2, 4)).build().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("12"), "message must carry the offending value: {msg}");
    let src = std::error::Error::source(&err).expect("wrapped ParamError is the source");
    assert!(src.to_string().contains("power of two"));
}

// ---------------------------------------------------------------------------
// Streaming: the typed error surface of QrPlan::stream_with_rhs.
// ---------------------------------------------------------------------------

#[test]
fn stream_shape_mismatch_is_a_typed_update_error() {
    use ca_cqr2::cacqr::stream::StreamingQr;
    use ca_cqr2::dense::random::gaussian_matrix;
    use ca_cqr2::dense::update::UpdateError;
    use ca_cqr2::dense::Matrix;

    let plan = QrPlan::new(64, 16)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(4).unwrap())
        .build()
        .unwrap();
    let bare = Matrix::zeros(64, 0);
    let mut s: StreamingQr = plan.stream_with_rhs(&well_conditioned(64, 16, 1), &bare).unwrap();
    let err = s
        .append_rows_with(gaussian_matrix(2, 8, 1).as_ref(), bare.view(0, 0, 2, 0))
        .unwrap_err();
    assert_eq!(
        err,
        PlanError::Update(UpdateError::ShapeMismatch {
            order: 16,
            rows: 2,
            cols: 8,
        })
    );
    // The chain is Display + source all the way down to the kernel error.
    assert!(err.to_string().contains("streaming update failed"), "{err}");
    let src = std::error::Error::source(&err).expect("kernel error is the source");
    assert!(src.to_string().contains("16"), "{src}");
    // The rejected block left the stream usable.
    let status = s
        .append_rows_with(gaussian_matrix(2, 16, 2).as_ref(), bare.view(0, 0, 2, 0))
        .unwrap();
    assert_eq!(status.rows, 66);
}

#[test]
fn downdating_rows_never_appended_is_rejected_or_indefinite() {
    use ca_cqr2::dense::random::gaussian_matrix;
    use ca_cqr2::dense::Matrix;

    let plan = QrPlan::new(32, 8)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(4).unwrap())
        .build()
        .unwrap();
    let a0 = well_conditioned(32, 8, 3);
    let foreign = Matrix::from_fn(1, 8, |_, j| 1e6 * (j + 1) as f64);

    // The bitwise history audit catches the lie before any math runs, and
    // leaves R untouched. (The kernel's own `DowndateIndefinite` check and
    // its rollback are covered by the `dense` breakdown tests.)
    let bare = Matrix::zeros(32, 0);
    let mut s = plan.stream_with_rhs(&a0, &bare).unwrap();
    s.append_rows_with(gaussian_matrix(2, 8, 4).as_ref(), bare.view(0, 0, 2, 0))
        .unwrap();
    let r_before = s.r().clone();
    let err = s
        .downdate_rows_with(foreign.as_ref(), bare.view(0, 0, 1, 0))
        .unwrap_err();
    assert_eq!(err, PlanError::StreamHistoryMismatch { row: 0 });
    assert!(err.to_string().contains("oldest"), "{err}");
    assert_eq!(s.r().data(), r_before.data(), "failed downdates must roll back");
    assert_eq!(s.rows(), 34, "a rejected downdate removes no rows");
    // The stream stays usable: the next append lands on the un-downdated
    // row count.
    let status = s
        .append_rows_with(gaussian_matrix(2, 8, 5).as_ref(), bare.view(0, 0, 2, 0))
        .unwrap();
    assert_eq!(status.rows, 36);
}

#[test]
fn rhs_track_errors_are_typed() {
    use ca_cqr2::dense::random::gaussian_matrix;
    use ca_cqr2::dense::Matrix;

    let plan = QrPlan::new(32, 8)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(4).unwrap())
        .build()
        .unwrap();
    let a0 = well_conditioned(32, 8, 9);

    // Opening: the right-hand sides must pair one-to-one with the rows.
    let err = plan.stream_with_rhs(&a0, &gaussian_matrix(16, 1, 9)).unwrap_err();
    assert_eq!(
        err,
        PlanError::RhsShapeMismatch {
            expected: (32, 1),
            got: (16, 1),
        }
    );

    let b0 = gaussian_matrix(32, 1, 10);
    let mut s = plan.stream_with_rhs(&a0, &b0).unwrap();

    // A right-hand-side block at the wrong width is rejected up front.
    let err = s
        .append_rows_with(gaussian_matrix(2, 8, 12).as_ref(), gaussian_matrix(2, 3, 12).as_ref())
        .unwrap_err();
    assert_eq!(
        err,
        PlanError::RhsShapeMismatch {
            expected: (2, 1),
            got: (2, 3),
        }
    );

    // `solve_into` validates the caller's output shape.
    let mut x = Matrix::zeros(4, 1);
    let err = s.solve_into(&mut x).unwrap_err();
    assert_eq!(
        err,
        PlanError::RhsShapeMismatch {
            expected: (8, 1),
            got: (4, 1),
        }
    );
}

#[test]
fn stream_downdate_below_n_rows_is_not_tall() {
    use ca_cqr2::dense::Matrix;

    let plan = QrPlan::new(12, 8)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(4).unwrap())
        .build()
        .unwrap();
    let a0 = well_conditioned(12, 8, 7);
    let bare = Matrix::zeros(12, 0);
    let mut s = plan.stream_with_rhs(&a0, &bare).unwrap();
    let oldest = Matrix::from_view(a0.view(0, 0, 8, 8));
    let err = s
        .downdate_rows_with(oldest.as_ref(), bare.view(0, 0, 8, 0))
        .unwrap_err();
    assert_eq!(err, PlanError::NotTall { m: 4, n: 8 });
}

// ---------------------------------------------------------------------------
// Execution: the cross-algorithm loop and plan reuse.
// ---------------------------------------------------------------------------

#[test]
fn all_four_algorithms_factor_through_one_loop() {
    let (m, n) = (64usize, 16usize);
    let a = well_conditioned(m, n, 2024);
    let (mut qh, mut rh) = ca_cqr2::dense::householder::qr(&a);
    normalize_qr_signs(&mut qh, &mut rh);

    for alg in Algorithm::ALL {
        let plan = QrPlan::new(m, n)
            .algorithm(alg)
            .grid(grid(2, 4))
            .block_cyclic(BlockCyclic { pr: 4, pc: 2, nb: 8 })
            .machine(Machine::stampede2(64))
            .build()
            .unwrap_or_else(|e| panic!("{alg}: {e}"));
        let report = plan.factor(&a).unwrap_or_else(|e| panic!("{alg}: {e}"));
        assert_eq!(report.algorithm, alg);
        assert!(
            report.orthogonality_error < 1e-12,
            "{alg}: orthogonality {:.2e}",
            report.orthogonality_error
        );
        assert!(
            report.residual_error < 1e-12,
            "{alg}: residual {:.2e}",
            report.residual_error
        );
        assert!(lower_residual(report.r.as_ref()) < 1e-13, "{alg}: R not triangular");
        assert!(report.elapsed > 0.0, "{alg}: a real machine must charge time");
        assert_eq!(report.ledgers.len(), plan.processors(), "{alg}: one ledger per rank");
        assert!(report.total_flops() > 0.0, "{alg}");

        // Same factorization as Householder up to column signs.
        let (mut q, mut r) = (report.q, report.r);
        normalize_qr_signs(&mut q, &mut r);
        for (u, v) in r.data().iter().zip(rh.data()) {
            assert!((u - v).abs() < 1e-9 * (1.0 + v.abs()), "{alg}: R drifted");
        }
    }
}

#[test]
fn one_plan_factors_a_batch() {
    let plan = QrPlan::new(128, 16)
        .grid(grid(2, 8))
        .machine(Machine::stampede2(64))
        .build()
        .unwrap();
    let mut elapsed = None;
    for seed in 0..5u64 {
        let a = well_conditioned(128, 16, 300 + seed);
        let report = plan.factor(&a).unwrap();
        assert!(report.orthogonality_error < 1e-12, "seed {seed}");
        // Same shape + same schedule ⇒ identical virtual time for every
        // batch member: data independence of the communication schedule.
        match elapsed {
            None => elapsed = Some(report.elapsed),
            Some(t) => assert_eq!(report.elapsed, t, "schedule must be data-independent"),
        }
    }
}

#[test]
fn factor_rejects_mismatched_input_shape() {
    let plan = QrPlan::new(64, 16).grid(grid(2, 4)).build().unwrap();
    let err = plan.factor(&well_conditioned(64, 8, 1)).unwrap_err();
    assert_eq!(
        err,
        PlanError::InputShapeMismatch {
            expected: (64, 16),
            got: (64, 8),
        }
    );
}

#[test]
fn cqr2_1d_matches_cacqr2_on_degenerate_grid() {
    // c = 1: Algorithm 9 degenerates to Algorithm 7 bitwise; the facade
    // must preserve that equivalence.
    let (m, n) = (48usize, 8usize);
    let a = well_conditioned(m, n, 99);
    let shape = GridShape::one_d(4).unwrap();
    let r1d = QrPlan::new(m, n)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(shape)
        .build()
        .unwrap()
        .factor(&a)
        .unwrap();
    let rca = QrPlan::new(m, n)
        .algorithm(Algorithm::CaCqr2)
        .grid(shape)
        .build()
        .unwrap()
        .factor(&a)
        .unwrap();
    assert_eq!(r1d.q, rca.q);
    assert_eq!(r1d.r, rca.r);
}
