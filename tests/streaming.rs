//! Streaming QR end-to-end invariants.
//!
//! * **Property (proptest over ragged shapes/widths):** a stream that
//!   absorbs N appended blocks and then snapshots is equivalent to a
//!   from-scratch `QrPlan::factor` of the concatenated matrix — the
//!   snapshot's diagnostics meet the batch CQR2 bounds, and its `R` agrees
//!   with the batch `R`.
//! * **Sliding window:** appends followed by downdates of the oldest rows
//!   reproduce the factor of the slid window.
//! * **A snapshot is a refresh that keeps `Q`:** its `R` is bitwise a
//!   refresh's, at and off the plan's row count, and a snapshot fails,
//!   escalates and is recorded exactly where a refresh does.
//! * **Least squares (proptest):** `solve()` on a stream that absorbed
//!   appends and downdates through its right-hand-side track matches the
//!   solution computed from a from-scratch batch factor of the live window.
//! * **One track of any width:** a stream with `k` right-hand sides solves
//!   bitwise like `k` one-column streams, and a zero-width stream's `R` is
//!   bitwise a tracked stream's.
//! * **Transactionality:** an append of any width whose factor update fails
//!   inside the kernel (a NaN row included) rolls back completely (`R`,
//!   `d`, history, counters all untouched); a failed drift-triggered
//!   auto-refresh after a committed update *surfaces* through
//!   `StreamStatus::refresh_failed` without corrupting the stream, and the
//!   next successful refresh clears it.
//! * **Caller-owned:** a `StreamingQr` is `Send`, so a caller may move it
//!   to another thread or share it behind a `Mutex` (checked at compile
//!   time).

use cacqr::{Algorithm, PlanError, QrPlan, RetryPolicy, StreamStatus, StreamingQr};
use dense::norms::rel_diff;
use dense::random::{gaussian_matrix, well_conditioned};
use dense::trsm::{trsm_left_lower_trans, trsm_left_upper};
use dense::update::UpdateError;
use dense::{matmul, MatRef, Matrix, Trans};
use pargrid::GridShape;
use proptest::prelude::*;

fn stream_plan(m: usize, n: usize) -> QrPlan {
    QrPlan::new(m, n)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(4).unwrap())
        .build()
        .unwrap()
}

/// Opens a stream that keeps only `R`: its right-hand side is `m × 0`.
fn open_bare(plan: &QrPlan, a0: &Matrix) -> StreamingQr {
    plan.stream_with_rhs(a0, &Matrix::zeros(a0.rows(), 0)).unwrap()
}

/// Appends rows to a bare stream, with their `k × 0` right-hand sides.
fn append(s: &mut StreamingQr, b: MatRef<'_>) -> Result<StreamStatus, PlanError> {
    s.append_rows_with(b, Matrix::zeros(b.rows(), 0).as_ref())
}

/// Downdates a bare stream's oldest rows, with their `k × 0` right-hand
/// sides.
fn downdate(s: &mut StreamingQr, b: MatRef<'_>) -> Result<StreamStatus, PlanError> {
    s.downdate_rows_with(b, Matrix::zeros(b.rows(), 0).as_ref())
}

/// Stack `a0` and the appended blocks into one matrix.
fn concat(a0: &Matrix, blocks: &[Matrix]) -> Matrix {
    let n = a0.cols();
    let total = a0.rows() + blocks.iter().map(|b| b.rows()).sum::<usize>();
    let mut data = Vec::with_capacity(total * n);
    data.extend_from_slice(a0.data());
    for b in blocks {
        data.extend_from_slice(b.data());
    }
    Matrix::from_vec(total, n, data)
}

/// From-scratch factor of arbitrary-height input (trivial 1-rank grid: no
/// divisibility constraint).
fn batch_r(a: &Matrix) -> Matrix {
    QrPlan::new(a.rows(), a.cols())
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(1).unwrap())
        .build()
        .unwrap()
        .factor(a)
        .unwrap()
        .r
}

/// Reference least-squares solve: batch-factor `a` from scratch, then the
/// semi-normal equations `RᵀR·x = Aᵀb` against the batch `R`.
fn batch_solve(a: &Matrix, b: &Matrix) -> Matrix {
    let r = batch_r(a);
    let mut x = matmul(a.as_ref(), Trans::Yes, b.as_ref(), Trans::No);
    trsm_left_lower_trans(r.as_ref(), x.as_mut());
    trsm_left_upper(r.as_ref(), x.as_mut());
    x
}

/// Stack row-slices `a[skip..]` and the given blocks into one matrix.
fn concat_window(a0: &Matrix, skip: usize, blocks: &[Matrix]) -> Matrix {
    let n = a0.cols();
    let total = a0.rows() - skip + blocks.iter().map(|b| b.rows()).sum::<usize>();
    let mut data = Vec::with_capacity(total * n);
    data.extend_from_slice(&a0.data()[skip * n..]);
    for b in blocks {
        data.extend_from_slice(b.data());
    }
    Matrix::from_vec(total, n, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn appends_plus_snapshot_match_from_scratch_factor(
        quarters in 3usize..14,
        n_raw in 2usize..17,
        w1 in 0usize..14,
        w2 in 1usize..14,
        w3 in 0usize..14,
        seed in 0u64..500,
    ) {
        let m0 = 4 * quarters;
        let n = n_raw.min(m0);
        let a0 = well_conditioned(m0, n, seed);
        let mut s = open_bare(&stream_plan(m0, n), &a0);
        let mut blocks = Vec::new();
        for (i, &w) in [w1, w2, w3].iter().enumerate() {
            let b = gaussian_matrix(w, n, seed ^ (0xb10c + i as u64));
            append(&mut s, b.as_ref()).unwrap();
            blocks.push(b);
        }
        let full = concat(&a0, &blocks);
        prop_assert_eq!(s.rows(), full.rows());
        let snap = s.snapshot().unwrap();
        // The snapshot's diagnostics meet the batch CQR2 bounds...
        prop_assert!(snap.orthogonality_error.unwrap() < 1e-12, "{:?}", snap.orthogonality_error);
        prop_assert!(snap.residual_error.unwrap() < 1e-12, "{:?}", snap.residual_error);
        // ...and its R is the batch R: off the plan's row count the
        // snapshot re-factors the live rows with the plan's algorithm on
        // one rank, as the batch factor does.
        let want = batch_r(&full);
        prop_assert!(
            rel_diff(snap.r.as_ref(), want.as_ref()) < 1e-10,
            "rel diff {}",
            rel_diff(snap.r.as_ref(), want.as_ref())
        );
    }

    #[test]
    fn sliding_window_matches_factor_of_the_window(
        quarters in 4usize..12,
        n_raw in 2usize..13,
        k in 1usize..8,
        seed in 0u64..500,
    ) {
        let m0 = 4 * quarters;
        let n = n_raw.min(m0 - 8);
        let a0 = well_conditioned(m0, n, seed.wrapping_add(1));
        let mut s = open_bare(&stream_plan(m0, n), &a0);
        let b = gaussian_matrix(k, n, seed ^ 0x51_1d);
        append(&mut s, b.as_ref()).unwrap();
        let oldest = Matrix::from_view(a0.view(0, 0, k, n));
        let status = downdate(&mut s, oldest.as_ref()).unwrap();
        prop_assert_eq!(status.rows, m0);
        // The slid window, factored from scratch.
        let mut window = Matrix::zeros(m0, n);
        window.view_mut(0, 0, m0 - k, n).copy_from(a0.view(k, 0, m0 - k, n));
        window.view_mut(m0 - k, 0, k, n).copy_from(b.as_ref());
        let want = batch_r(&window);
        // Downdates amplify roundoff by the hyperbolic pivot, so the bound
        // is looser than the append-only property.
        prop_assert!(
            rel_diff(s.r().as_ref(), want.as_ref()) < 1e-7,
            "rel diff {}",
            rel_diff(s.r().as_ref(), want.as_ref())
        );
    }

    /// The tentpole property: a streamed `solve()` after N appends and a
    /// sliding-window downdate equals the least-squares solution computed
    /// from a from-scratch batch factor of the live window.
    #[test]
    fn streamed_solve_matches_batch_least_squares(
        quarters in 4usize..12,
        n_raw in 2usize..13,
        nrhs in 1usize..4,
        w1 in 1usize..12,
        w2 in 1usize..12,
        down in 0usize..6,
        seed in 0u64..500,
    ) {
        let m0 = 4 * quarters;
        let n = n_raw.min(m0 - 8);
        let a0 = well_conditioned(m0, n, seed.wrapping_add(2));
        let b0 = gaussian_matrix(m0, nrhs, seed ^ 0xb0b);
        let mut s = stream_plan(m0, n).stream_with_rhs(&a0, &b0).unwrap();
        let mut ablocks = Vec::new();
        let mut bblocks = Vec::new();
        for (i, &w) in [w1, w2].iter().enumerate() {
            let ab = gaussian_matrix(w, n, seed ^ (0xa10 + i as u64));
            let bb = gaussian_matrix(w, nrhs, seed ^ (0xb10 + i as u64));
            s.append_rows_with(ab.as_ref(), bb.as_ref()).unwrap();
            ablocks.push(ab);
            bblocks.push(bb);
        }
        if down > 0 {
            let oldest_a = Matrix::from_view(a0.view(0, 0, down, n));
            let oldest_b = Matrix::from_view(b0.view(0, 0, down, nrhs));
            s.downdate_rows_with(oldest_a.as_ref(), oldest_b.as_ref()).unwrap();
        }
        let x = s.solve().unwrap();
        // Solving is read-only and deterministic.
        let again = s.solve().unwrap();
        prop_assert_eq!(x.data(), again.data());
        let window_a = concat_window(&a0, down, &ablocks);
        let window_b = concat_window(&b0, down, &bblocks);
        prop_assert_eq!(x.rows(), n);
        prop_assert_eq!(x.cols(), nrhs);
        let want = batch_solve(&window_a, &window_b);
        prop_assert!(
            rel_diff(x.as_ref(), want.as_ref()) < 1e-8,
            "rel diff {}",
            rel_diff(x.as_ref(), want.as_ref())
        );
    }
}

/// Regression: an append wider than the window whose factor update fails
/// must roll back *everything* — a rejected delta must not leave the
/// stream claiming rows its factor never absorbed. A NaN row fails the same
/// way: the appended Gram matrix's Cholesky rejects it.
#[test]
fn failed_wide_append_rolls_back_completely() {
    // A stream the caller owns may cross threads: compile-time check.
    fn assert_send<T: Send>() {}
    assert_send::<StreamingQr>();
    let (m0, n) = (32usize, 8usize);
    let k = 64usize;
    let a0 = well_conditioned(m0, n, 77);
    let b0 = gaussian_matrix(m0, 1, 78);
    let mut s = stream_plan(m0, n).stream_with_rhs(&a0, &b0).unwrap();
    let r_before = s.r().clone();
    let x_before = s.solve().unwrap();

    // Entries at 1e160 overflow the appended Gram matrix to infinity, so
    // the kernel's Cholesky rejects the pivot deterministically on every
    // backend; a NaN entry makes the pivot NaN.
    let wide = Matrix::from_fn(k, n, |i, j| 1e160 * (1.0 + ((i + j) % 3) as f64));
    let mut nan_row = gaussian_matrix(2, n, 93);
    nan_row.set(1, 3, f64::NAN);
    for bad in [wide, nan_row] {
        let bad_rhs = gaussian_matrix(bad.rows(), 1, 79);
        let err = s.append_rows_with(bad.as_ref(), bad_rhs.as_ref()).unwrap_err();
        assert!(
            matches!(err, PlanError::Update(UpdateError::NotPositiveDefinite(_))),
            "{err:?}"
        );

        // No observable trace: row count, refresh count, factor, and
        // projection all pristine.
        assert_eq!(s.rows(), m0, "rejected delta must not count toward live rows");
        assert_eq!(s.refreshes(), 0);
        assert_eq!(s.r().data(), r_before.data(), "R must be bitwise untouched");
        assert_eq!(
            s.solve().unwrap().data(),
            x_before.data(),
            "d (and the histories behind it) must be bitwise untouched"
        );
    }

    // And the stream remains fully operational afterwards.
    s.append_rows_with(gaussian_matrix(4, n, 80).as_ref(), gaussian_matrix(4, 1, 81).as_ref())
        .unwrap();
    assert_eq!(s.rows(), m0 + 4);
    let snap = s.snapshot().unwrap();
    assert!(snap.orthogonality_error.unwrap() < 1e-12);
}

/// Builds the satellite-2 scenario: `C` (strong support rows, scale 10) on
/// top of `D` (huge rows whose last column is almost a linear combination
/// of the others — numerically rank-deficient on its own, fine with `C`).
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
                // Two independent near-dependencies: each of the last two
                // columns is a combination of the leading ones plus δ·noise.
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

/// Regression (PR 8): when a committed downdate's drift-triggered refresh
/// fails, the stream must stay exactly as the successful downdate left it
/// and report the failure through `StreamStatus::refresh_failed` — before
/// the fix the `Err` propagated, claiming the rows were never removed.
#[test]
fn failed_auto_refresh_surfaces_without_corrupting_the_stream() {
    let n = 8usize;
    let (c_rows, d_rows) = (16usize, 48usize);
    let m0 = c_rows + d_rows;
    let a0 = refresh_failure_window(c_rows, d_rows, n, 0);
    // Threshold 0: every committed update triggers a refresh attempt.
    let mut s = open_bare(&stream_plan(m0, n), &a0).with_drift_threshold(0.0);
    let oldest = Matrix::from_view(a0.view(0, 0, c_rows, n));

    // The hyperbolic downdate kernel succeeds (the remaining Gram keeps a
    // small but robustly positive margin in the weak direction), but the
    // refresh re-factors D alone, whose Gram is numerically singular.
    let status = downdate(&mut s, oldest.as_ref()).expect("the downdate itself commits");
    assert!(status.refresh_failed, "the failed refresh must be surfaced");
    assert!(!status.refreshed);
    assert_eq!(status.rows, d_rows, "the rows really were removed");
    assert!(
        s.drift() > 0.0,
        "drift stays above threshold so the next update retries"
    );
    assert!(
        matches!(s.last_refresh_error(), Some(PlanError::NotPositiveDefinite(_))),
        "{:?}",
        s.last_refresh_error()
    );

    // The factor is exactly what the committed downdate produced: a
    // reference stream with auto-refresh disabled applies the same
    // sequence and must agree bitwise.
    let mut reference = open_bare(&stream_plan(m0, n), &a0).with_drift_threshold(f64::INFINITY);
    downdate(&mut reference, oldest.as_ref()).unwrap();
    assert_eq!(
        s.r().data(),
        reference.r().data(),
        "a failed refresh must leave R exactly as the update committed it"
    );

    // Appending strong generic rows repairs the two deficient directions;
    // the retried refresh now succeeds and clears the failure state.
    let rescue_core = gaussian_matrix(2, n, 4242);
    let rescue = Matrix::from_fn(2, n, |i, j| 1e7 * rescue_core.get(i, j));
    let status = append(&mut s, rescue.as_ref()).expect("full-rank append");
    assert!(status.refreshed, "drift retry must fire on the next update");
    assert!(!status.refresh_failed);
    assert_eq!(s.drift(), 0.0);
    assert!(
        s.last_refresh_error().is_none(),
        "a successful refresh clears the sticky error"
    );
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.data().iter().map(|x| x.to_bits()).collect()
}

/// A snapshot is the refresh that keeps `Q`: on two clones of one stream,
/// the snapshot's `R` is bitwise the one a refresh leaves — off the plan's
/// row count (the one-rank rungs) and at it (the plan's two ranks) — and at
/// the plan's shape its diagnostics are bitwise `QrPlan::factor`'s of the
/// same rows.
#[test]
fn a_snapshot_is_the_refresh_that_keeps_q() {
    let (m0, n, k) = (64usize, 8usize, 8usize);
    let a0 = well_conditioned(m0, n, 61);
    let b = gaussian_matrix(k, n, 62);
    let plan = QrPlan::new(m0, n)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(2).unwrap())
        .build()
        .unwrap();
    let mut s = open_bare(&plan, &a0).with_drift_threshold(f64::INFINITY);
    append(&mut s, b.as_ref()).unwrap();
    for on_shape in [false, true] {
        if on_shape {
            downdate(&mut s, a0.view(0, 0, k, n)).unwrap();
        }
        assert_eq!(s.rows() == m0, on_shape);
        let mut refreshed = s.clone();
        refreshed.refresh().unwrap();
        let mut snapshotted = s.clone();
        let snap = snapshotted.snapshot().unwrap();
        assert_eq!(bits(&snap.r), bits(refreshed.r()), "on shape: {on_shape}");
        assert_eq!(bits(snapshotted.r()), bits(refreshed.r()), "the stream keeps it");
        assert_eq!((snap.refreshes, snapshotted.drift()), (refreshed.refreshes(), 0.0));
        assert!(snap.orthogonality_error.unwrap() < 1e-12 && snap.residual_error.unwrap() < 1e-12);
        if on_shape {
            let report = plan.factor(&concat_window(&a0, k, std::slice::from_ref(&b))).unwrap();
            assert_eq!(bits(snap.q.as_ref().unwrap()), bits(&report.q));
            let ortho = snap.orthogonality_error.map(f64::to_bits);
            assert_eq!(ortho, Some(report.orthogonality_error.to_bits()));
            let resid = snap.residual_error.map(f64::to_bits);
            assert_eq!(resid, Some(report.residual_error.to_bits()));
        }
    }
}

/// A snapshot fails, or escalates, exactly where a refresh of the same rows
/// does. Without escalation it returns the refresh's breakdown and leaves
/// `R`, the solve and the counters bitwise as they were, recording the
/// error; with it the same rows climb the ladder to an orthonormal `Q`.
#[test]
fn a_failing_snapshot_is_recorded_like_a_failing_refresh() {
    let n = 8usize;
    let (c_rows, d_rows) = (16usize, 48usize);
    let m0 = c_rows + d_rows;
    let a0 = refresh_failure_window(c_rows, d_rows, n, 0);
    let b0 = gaussian_matrix(m0, 1, 63);
    for policy in [RetryPolicy::none(), RetryPolicy::escalate()] {
        let plan = QrPlan::new(m0, n)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(4).unwrap())
            .retry(policy)
            .build()
            .unwrap();
        let mut s = plan
            .stream_with_rhs(&a0, &b0)
            .unwrap()
            .with_drift_threshold(f64::INFINITY);
        s.downdate_rows_with(a0.view(0, 0, c_rows, n), b0.view(0, 0, c_rows, 1))
            .unwrap();
        if policy.is_enabled() {
            let snap = s.snapshot().unwrap();
            assert!(snap.orthogonality_error.unwrap() < 1e-12, "{snap:?}");
            assert!(s.last_refresh_error().is_none());
            continue;
        }
        let want = s.clone().refresh().unwrap_err();
        assert!(matches!(want, PlanError::NotPositiveDefinite(_)), "{want:?}");
        let (r, x, refreshes, drift) = (s.r().clone(), s.solve().unwrap(), s.refreshes(), s.drift());
        assert_eq!(s.snapshot().unwrap_err(), want);
        assert_eq!(bits(s.r()), bits(&r), "R must be bitwise untouched");
        assert_eq!(bits(&s.solve().unwrap()), bits(&x), "d must be bitwise untouched");
        assert_eq!((s.rows(), s.refreshes(), s.drift()), (d_rows, refreshes, drift));
        assert_eq!(s.last_refresh_error(), Some(&want));
    }
}

fn column(b: &Matrix, l: usize) -> Matrix {
    Matrix::from_fn(b.rows(), 1, |i, _| b.get(i, l))
}

/// A stream with three right-hand sides solves bitwise like three
/// one-column streams over the same rows — each column's fold,
/// substitutions and refinement run the single-column kernels on their own
/// — across an append, a downdate and a refresh.
#[test]
fn a_three_column_stream_solves_bitwise_like_three_one_column_streams() {
    let (m0, n, k, nrhs) = (64usize, 8usize, 8usize, 3usize);
    let plan = stream_plan(m0, n);
    let a0 = well_conditioned(m0, n, 71);
    let b0 = gaussian_matrix(m0, nrhs, 72);
    let (a1, b1) = (gaussian_matrix(k, n, 73), gaussian_matrix(k, nrhs, 74));
    let oldest_b = Matrix::from_view(b0.view(0, 0, k, nrhs));
    let mut wide = plan.stream_with_rhs(&a0, &b0).unwrap();
    let mut narrow: Vec<StreamingQr> = (0..nrhs)
        .map(|l| plan.stream_with_rhs(&a0, &column(&b0, l)).unwrap())
        .collect();
    for step in ["open", "append", "downdate", "refresh"] {
        match step {
            "append" => {
                wide.append_rows_with(a1.as_ref(), b1.as_ref()).unwrap();
                for (l, s) in narrow.iter_mut().enumerate() {
                    s.append_rows_with(a1.as_ref(), column(&b1, l).as_ref()).unwrap();
                }
            }
            "downdate" => {
                wide.downdate_rows_with(a0.view(0, 0, k, n), oldest_b.as_ref()).unwrap();
                for (l, s) in narrow.iter_mut().enumerate() {
                    s.downdate_rows_with(a0.view(0, 0, k, n), column(&oldest_b, l).as_ref())
                        .unwrap();
                }
            }
            "refresh" => {
                wide.refresh().unwrap();
                for s in &mut narrow {
                    s.refresh().unwrap();
                }
            }
            _ => {}
        }
        let x = wide.solve().unwrap();
        assert_eq!((x.rows(), x.cols()), (n, nrhs));
        for (l, s) in narrow.iter().enumerate() {
            assert_eq!(bits(&column(&x, l)), bits(&s.solve().unwrap()), "{step}, column {l}");
        }
    }
}

/// A zero-width right-hand side keeps only `R`: bitwise a tracked stream's
/// `R` across an append, a downdate, a refresh and a snapshot, and its
/// solve is `n × 0`.
#[test]
fn a_zero_width_stream_keeps_a_tracked_streams_r() {
    let (m0, n, k) = (64usize, 8usize, 8usize);
    let plan = stream_plan(m0, n);
    let a0 = well_conditioned(m0, n, 81);
    let b0 = gaussian_matrix(m0, 2, 82);
    let (a1, b1) = (gaussian_matrix(k, n, 83), gaussian_matrix(k, 2, 84));
    let mut tracked = plan.stream_with_rhs(&a0, &b0).unwrap();
    let mut bare = open_bare(&plan, &a0);
    assert_eq!((bare.nrhs(), tracked.nrhs()), (0, 2));
    assert_eq!(bits(bare.r()), bits(tracked.r()), "open");
    tracked.append_rows_with(a1.as_ref(), b1.as_ref()).unwrap();
    append(&mut bare, a1.as_ref()).unwrap();
    assert_eq!(bits(bare.r()), bits(tracked.r()), "append");
    tracked
        .downdate_rows_with(a0.view(0, 0, k, n), b0.view(0, 0, k, 2))
        .unwrap();
    downdate(&mut bare, a0.view(0, 0, k, n)).unwrap();
    assert_eq!(bits(bare.r()), bits(tracked.r()), "downdate");
    tracked.refresh().unwrap();
    bare.refresh().unwrap();
    assert_eq!(bits(bare.r()), bits(tracked.r()), "refresh");
    let (snap_tracked, snap_bare) = (tracked.snapshot().unwrap(), bare.snapshot().unwrap());
    assert_eq!(bits(&snap_bare.r), bits(&snap_tracked.r), "snapshot");
    assert_eq!(bits(bare.r()), bits(tracked.r()), "after the snapshot");
    let x = bare.solve().unwrap();
    assert_eq!((x.rows(), x.cols()), (n, 0));
}
