//! Property sweep: the `Blocked` backend must agree with the `Naive` oracle
//! for gemm/syrk/trsm across transpose flags, alpha/beta ∈ {0, 1, −2.5},
//! gemm `B` operands dense, triangular and all zero, and edge shapes
//! straddling every blocking boundary (microkernel MR/NR, contraction block
//! KC, trsm block TRSM_NB), including empty dimensions —
//! and so must the report diagnostics built on them (`norms::qr_diagnostics`)
//! and the rank-k block downdate (`update::rank_k_downdate`), which is
//! also held to a Householder factor of the rows that remain.

use dense::backend::blocked::{KC, MR, NR, TRSM_NB};
use dense::backend::BackendKind;
use dense::cholesky::{cholinv, potrf, trtri_lower};
use dense::gemm::Trans;
use dense::norms::{
    combine_diagnostics, normalize_qr_signs, qr_diagnostics, slab_count, slab_diagnostics, slab_rows, PANEL_ROWS,
};
use dense::random::matrix_with_condition;
use dense::update::{rank_k_downdate, UpdateError};
use dense::{MatRef, Matrix, Workspace};

fn filled(rows: usize, cols: usize, salt: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let x = (i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((j as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(salt.wrapping_mul(0x94d0_49bb_1331_11eb));
        // Map to roughly [-1, 1] with enough entropy to catch index bugs.
        (x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    })
}

/// `src` as a window at `(r0, c0)` of a larger matrix whose border holds
/// poison the kernels must never read — or, for an output, never write.
fn framed(src: &Matrix, r0: usize, c0: usize) -> Matrix {
    let mut big = Matrix::from_fn(src.rows() + 2 * r0, src.cols() + 2 * c0, |_, _| f64::NAN);
    big.view_mut(r0, c0, src.rows(), src.cols()).copy_from(src.as_ref());
    big
}

/// `b` with the zeros of a `kind` operand: `op(B)` upper or lower
/// triangular, all zero, or (`"dense"`) untouched. The blocked gemm skips
/// the zero rows of each packed `B` panel, so these are inputs of their own.
fn gemm_b_kind(b: MatRef<'_>, tb: Trans, kind: &str) -> Matrix {
    Matrix::from_fn(b.rows(), b.cols(), |r, c| {
        let (p, j) = match tb {
            Trans::No => (r, c),
            Trans::Yes => (c, r),
        };
        match kind {
            "upper" if p > j => 0.0,
            "lower" if p < j => 0.0,
            "zero" => 0.0,
            _ => b.at(r, c),
        }
    })
}

const GEMM_B_KINDS: [&str; 4] = ["dense", "upper", "lower", "zero"];

fn assert_close(label: &str, got: &Matrix, want: &Matrix, tol: f64) {
    assert_eq!((got.rows(), got.cols()), (want.rows(), want.cols()), "{label}: shape");
    for i in 0..got.rows() {
        for j in 0..got.cols() {
            let (g, w) = (got.get(i, j), want.get(i, j));
            assert!(
                (g - w).abs() <= tol * (1.0 + w.abs()),
                "{label}: ({i},{j}) blocked {g} vs naive {w}"
            );
        }
    }
}

#[test]
fn gemm_matches_naive_across_shapes_flags_and_scalars() {
    let naive = BackendKind::Naive.get();
    let blocked = BackendKind::Blocked.get();
    let m_dims = [0usize, 1, MR - 1, MR + 1, 2 * NR + 3];
    let n_dims = [0usize, 1, NR - 1, NR, NR + 1, 19];
    let k_dims = [0usize, 1, 7, KC - 1, KC, KC + 1];
    let scalars = [0.0f64, 1.0, -2.5];
    for &m in &m_dims {
        for &n in &n_dims {
            for &k in &k_dims {
                for (ta, tb) in [
                    (Trans::No, Trans::No),
                    (Trans::Yes, Trans::No),
                    (Trans::No, Trans::Yes),
                    (Trans::Yes, Trans::Yes),
                ] {
                    let a = match ta {
                        Trans::No => filled(m, k, 1),
                        Trans::Yes => filled(k, m, 1),
                    };
                    let dense_b = match tb {
                        Trans::No => filled(k, n, 2),
                        Trans::Yes => filled(n, k, 2),
                    };
                    let c0 = filled(m, n, 3);
                    for kind in GEMM_B_KINDS {
                        let b = gemm_b_kind(dense_b.as_ref(), tb, kind);
                        for &alpha in &scalars {
                            for &beta in &scalars {
                                let mut cn = c0.clone();
                                naive.gemm(alpha, a.as_ref(), ta, b.as_ref(), tb, beta, cn.as_mut());
                                let mut cb = c0.clone();
                                blocked.gemm(alpha, a.as_ref(), ta, b.as_ref(), tb, beta, cb.as_mut());
                                let label =
                                    format!("gemm {kind} m={m} n={n} k={k} ta={ta:?} tb={tb:?} α={alpha} β={beta}");
                                assert_close(&label, &cb, &cn, 1e-12 * (k.max(1) as f64).sqrt());
                            }
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn gemm_beta_zero_overwrites_nan_like_naive() {
    let blocked = BackendKind::Blocked.get();
    let a = Matrix::identity(NR + 1);
    let b = filled(NR + 1, NR + 1, 4);
    let mut c = Matrix::from_fn(NR + 1, NR + 1, |_, _| f64::NAN);
    blocked.gemm(1.0, a.as_ref(), Trans::No, b.as_ref(), Trans::No, 0.0, c.as_mut());
    assert_close("beta-zero NaN overwrite", &c, &b, 0.0);
}

#[test]
fn gemm_matches_on_strided_views_and_odd_sizes() {
    let naive = BackendKind::Naive.get();
    let blocked = BackendKind::Blocked.get();
    let big_a = filled(140, 300, 5);
    let a = big_a.view(7, 11, 129, KC + 1);
    for kind in GEMM_B_KINDS {
        // The kind's zeros inside the window, the border left as it was.
        let mut big_b = filled(300, 90, 6);
        let window = gemm_b_kind(big_b.view(3, 5, KC + 1, 65), Trans::No, kind);
        big_b.view_mut(3, 5, KC + 1, 65).copy_from(window.as_ref());
        let b = big_b.view(3, 5, KC + 1, 65);
        let mut cn = filled(129, 65, 7);
        let mut cb = cn.clone();
        naive.gemm(-2.5, a, Trans::No, b, Trans::No, 1.0, cn.as_mut());
        blocked.gemm(-2.5, a, Trans::No, b, Trans::No, 1.0, cb.as_mut());
        assert_close(&format!("strided odd gemm, {kind} B"), &cb, &cn, 1e-11);
    }
}

#[test]
fn syrk_matches_naive_and_is_bitwise_symmetric() {
    let naive = BackendKind::Naive.get();
    let blocked = BackendKind::Blocked.get();
    for &(m, n) in &[(0usize, 4usize), (1, 1), (KC + 1, NR + 1), (57, 33), (3, 19)] {
        let a = filled(m, n, 8);
        let want = naive.syrk(a.as_ref());
        let got = blocked.syrk(a.as_ref());
        assert_close(&format!("syrk {m}x{n}"), &got, &want, 1e-12 * (m.max(1) as f64).sqrt());
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    got.get(i, j),
                    got.get(j, i),
                    "syrk {m}x{n}: bitwise symmetry at ({i},{j})"
                );
            }
        }
    }
}

#[test]
fn syrk_is_bitwise_identical_to_own_gemm() {
    // The CholeskyQR paths compute the Gram matrix via syrk (1D) and via
    // gemm (CA); their bitwise agreement is a workspace invariant.
    for kind in BackendKind::ALL {
        let backend = kind.get();
        let a = filled(KC + 3, 2 * NR + 1, 9);
        let via_syrk = backend.syrk(a.as_ref());
        let via_gemm = backend.matmul(a.as_ref(), Trans::Yes, a.as_ref(), Trans::No);
        for (s, g) in via_syrk.data().iter().zip(via_gemm.data()) {
            assert_eq!(s, g, "{kind}: syrk must be bitwise its own gemm(Aᵀ, A)");
        }
    }
}

#[test]
fn trsm_variants_match_naive_across_block_boundaries() {
    let naive = BackendKind::Naive.get();
    let blocked = BackendKind::Blocked.get();
    let n_dims = [1usize, TRSM_NB - 1, TRSM_NB, TRSM_NB + 1, 2 * TRSM_NB + 5];
    let m_dims = [1usize, 5, 33];
    for &n in &n_dims {
        // Well-conditioned lower-triangular factor.
        let l = Matrix::from_fn(n, n, |i, j| {
            if j > i {
                0.0
            } else if i == j {
                2.0 + (i % 7) as f64 * 0.25
            } else {
                ((i * 31 + j * 17) as f64 * 0.13).sin() * 0.3
            }
        });
        let u = l.transposed();
        for &m in &m_dims {
            let right = filled(m, n, 10);
            let left = filled(n, m, 11);
            let tol = 1e-11 * (n as f64);

            let mut want = right.clone();
            naive.trsm_right_lower_trans(l.as_ref(), want.as_mut());
            let mut got = right.clone();
            blocked.trsm_right_lower_trans(l.as_ref(), got.as_mut());
            assert_close(&format!("trsm_right_lower_trans n={n} m={m}"), &got, &want, tol);

            let mut want = right.clone();
            naive.trsm_right_upper(u.as_ref(), want.as_mut());
            let mut got = right.clone();
            blocked.trsm_right_upper(u.as_ref(), got.as_mut());
            assert_close(&format!("trsm_right_upper n={n} m={m}"), &got, &want, tol);

            let mut want = left.clone();
            naive.trsm_left_lower(l.as_ref(), want.as_mut());
            let mut got = left.clone();
            blocked.trsm_left_lower(l.as_ref(), got.as_mut());
            assert_close(&format!("trsm_left_lower n={n} m={m}"), &got, &want, tol);

            let mut want = left.clone();
            naive.trsm_left_upper(u.as_ref(), want.as_mut());
            let mut got = left.clone();
            blocked.trsm_left_upper(u.as_ref(), got.as_mut());
            assert_close(&format!("trsm_left_upper n={n} m={m}"), &got, &want, tol);
        }
    }
}

#[test]
fn blocked_results_do_not_depend_on_thread_count() {
    // A kernel runs on its caller's thread, so there is no thread count to
    // vary: determinism is structural (fixed k-order, disjoint row blocks),
    // and a multi-block product must agree bitwise with itself on a repeat
    // run.
    let blocked = BackendKind::Blocked.get();
    let a = filled(300, 300, 12);
    let b = filled(300, 300, 13);
    let mut c1 = Matrix::zeros(300, 300);
    let mut c2 = Matrix::zeros(300, 300);
    blocked.gemm(1.0, a.as_ref(), Trans::No, b.as_ref(), Trans::No, 0.0, c1.as_mut());
    blocked.gemm(1.0, a.as_ref(), Trans::No, b.as_ref(), Trans::No, 0.0, c2.as_mut());
    assert_eq!(c1, c2, "repeated blocked gemm must be bitwise reproducible");
}

/// Textbook `(‖QᵀQ − I‖_F, ‖A − QR‖_F / ‖A‖_F)` by explicit index loops —
/// shares no code with `norms`, so it checks the oracle form itself.
fn textbook_diagnostics(a: MatRef<'_>, q: MatRef<'_>, r: MatRef<'_>) -> (f64, f64) {
    let (m, n, k) = (a.rows(), a.cols(), q.cols());
    let mut ortho = 0.0;
    for i in 0..k {
        for j in 0..k {
            let g: f64 = (0..m).map(|p| q.at(p, i) * q.at(p, j)).sum();
            ortho += (g - if i == j { 1.0 } else { 0.0 }).powi(2);
        }
    }
    let (mut diff, mut norm) = (0.0, 0.0);
    for i in 0..m {
        for j in 0..n {
            let qr: f64 = (0..k).map(|p| q.at(i, p) * r.at(p, j)).sum();
            diff += (a.at(i, j) - qr).powi(2);
            norm += a.at(i, j).powi(2);
        }
    }
    (ortho.sqrt(), diff.sqrt() / norm.sqrt())
}

/// The stated tolerance of the diagnostics property: the two backends (and
/// the textbook form) agree to a relative 1e-12, above a floor of
/// `8·ε·n·√m` — on an accurate factorization both numbers *are* rounding
/// error of that size, and each arithmetic rounds differently.
fn assert_diagnostics_agree(label: &str, got: (f64, f64), want: (f64, f64), m: usize, n: usize) {
    let floor = 8.0 * f64::EPSILON * n as f64 * (m as f64).sqrt();
    for (what, g, w) in [("orthogonality", got.0, want.0), ("residual", got.1, want.1)] {
        assert!(
            (g - w).abs() <= 1e-12 * w.abs() + floor,
            "{label}: {what} {g:e} vs {w:e}"
        );
    }
}

#[test]
fn qr_diagnostics_blocked_matches_naive_oracle_and_textbook() {
    // (m, n, row offset, column offset) of the view each operand is taken
    // at inside a larger allocation: ragged last panel, n < NR, n > KC, a
    // single short panel, exact panel multiples.
    let shapes = [
        (PANEL_ROWS + 37, NR - 3, 0, 0),
        (3 * PANEL_ROWS, NR, 0, 0),
        (2 * PANEL_ROWS + 1, KC + 9, 0, 0),
        (PANEL_ROWS - 1, 2 * NR + 1, 0, 0),
        (PANEL_ROWS + 70, 40, 5, 3),
    ];
    let mut ws = Workspace::new();
    for &(m, n, r0, c0) in &shapes {
        let a = filled(m, n, 14);
        let factors = dense::householder_qr(&a);
        let (q, r) = (dense::form_q(&factors), factors.r());
        let (fa, fq, fr) = (framed(&a, r0, c0), framed(&q, r0, c0), framed(&r, r0, c0));
        let (av, qv, rv) = (fa.view(r0, c0, m, n), fq.view(r0, c0, m, n), fr.view(r0, c0, n, n));

        // An accurate factorization, a slightly wrong one (one column of Q
        // stretched, one entry of R off), and a grossly wrong one (Q is not
        // orthogonal at all, R belongs to another matrix).
        let mut q_off = q.clone();
        let mut r_off = r.clone();
        (0..m).for_each(|i| q_off.set(i, n / 2, q.get(i, n / 2) * (1.0 + 1e-6)));
        r_off.set(0, n - 1, r.get(0, n - 1) + 1e-5);
        let r_other = dense::householder_qr(&filled(m, n, 15)).r();
        let cases = [
            ("accurate", qv, rv, 0.0, 1e-12),
            ("perturbed", q_off.as_ref(), r_off.as_ref(), 1e-9, 1e-4),
            ("wrong", av, r_other.as_ref(), 0.5, f64::INFINITY),
        ];
        for (case, qc, rc, at_least, at_most) in cases {
            let label = format!("{case} {m}x{n} at ({r0},{c0})");
            let naive = qr_diagnostics(av, qc, rc, BackendKind::Naive, &mut ws);
            let blocked = qr_diagnostics(av, qc, rc, BackendKind::Blocked, &mut ws);
            assert_diagnostics_agree(&label, blocked, naive, m, n);
            assert_diagnostics_agree(&label, naive, textbook_diagnostics(av, qc, rc), m, n);
            for (what, e) in [("orthogonality", blocked.0), ("residual", blocked.1)] {
                assert!(
                    (at_least..=at_most).contains(&e),
                    "{label}: {what} {e:e} outside [{at_least:e}, {at_most:e}]"
                );
            }
        }
    }
    // No rows at all: QᵀQ = 0, so ‖−I‖_F = √n exactly, and the relative
    // residual is 0/0 — on either backend.
    let (empty, eye) = (Matrix::zeros(0, 6), Matrix::identity(6));
    for kind in BackendKind::ALL {
        let (ortho, resid) = qr_diagnostics(empty.as_ref(), empty.as_ref(), eye.as_ref(), kind, &mut ws);
        assert_eq!(ortho, 6f64.sqrt(), "{kind}");
        assert!(resid.is_nan(), "{kind}: {resid}");
    }
    assert_eq!(ws.recycles(), ws.takes(), "every scratch buffer goes back to the arena");
}

#[test]
fn cholinv_and_trtri_write_interior_views_exactly_like_contiguous_outputs() {
    // 33 and 70 split unevenly, 129 recurses twice; the frame is 5 rows and
    // 3 columns of NaN around the input and around every output.
    let (r0, c0) = (5, 3);
    let mut ws = Workspace::new();
    for kind in BackendKind::ALL {
        let backend = kind.get();
        for &n in &[33usize, 70, 129] {
            let label = format!("{kind} n={n}");
            let mut a = backend.syrk(filled(2 * n, n, 21).as_ref());
            (0..n).for_each(|i| a.set(i, i, a.get(i, i) + n as f64));
            let poison = Matrix::from_fn(n, n, |_, _| f64::NAN);
            let (mut l, mut y, mut inv) = (poison.clone(), poison.clone(), poison.clone());
            cholinv(a.as_ref(), l.as_mut(), y.as_mut(), backend, &mut ws).unwrap();
            trtri_lower(l.as_ref(), inv.as_mut(), backend, &mut ws);

            let fa = framed(&a, r0, c0);
            let (mut fl, mut fy, mut finv) = (
                framed(&poison, r0, c0),
                framed(&poison, r0, c0),
                framed(&poison, r0, c0),
            );
            cholinv(
                fa.view(r0, c0, n, n),
                fl.view_mut(r0, c0, n, n),
                fy.view_mut(r0, c0, n, n),
                backend,
                &mut ws,
            )
            .unwrap();
            trtri_lower(fl.view(r0, c0, n, n), finv.view_mut(r0, c0, n, n), backend, &mut ws);

            for (what, got, want) in [("L", &fl, &l), ("Y", &fy, &y), ("trtri", &finv, &inv)] {
                for i in 0..got.rows() {
                    for j in 0..got.cols() {
                        let v = got.get(i, j);
                        if (r0..r0 + n).contains(&i) && (c0..c0 + n).contains(&j) {
                            let w = want.get(i - r0, j - c0);
                            assert_eq!(v.to_bits(), w.to_bits(), "{label}: {what}({i},{j}) {v} vs {w}");
                            assert!(j - c0 <= i - r0 || v == 0.0, "{label}: {what} strict upper {v}");
                        } else {
                            assert!(v.is_nan(), "{label}: {what} frame ({i},{j}) overwritten with {v}");
                        }
                    }
                }
            }
        }
    }
    assert_eq!(ws.recycles(), ws.takes(), "every scratch buffer goes back to the arena");
}

/// The diagnostics the way a rank team of `team` computes them: one
/// `slab_diagnostics` per row slab, combined in slab order.
fn team_diagnostics(
    a: MatRef<'_>,
    q: MatRef<'_>,
    r: MatRef<'_>,
    team: usize,
    kind: BackendKind,
    ws: &mut Workspace,
) -> (f64, f64) {
    let m = a.rows();
    let slabs = slab_count(m, team);
    let parts: Vec<_> = (0..slabs)
        .map(|s| {
            let rows = slab_rows(m, slabs, s);
            let (a_b, q_b) = (
                a.sub(rows.start, 0, rows.len(), a.cols()),
                q.sub(rows.start, 0, rows.len(), q.cols()),
            );
            slab_diagnostics(a_b, q_b, r, kind, ws)
        })
        .collect();
    let out = combine_diagnostics(&parts);
    parts.into_iter().for_each(|part| ws.recycle(part.gram));
    out
}

#[test]
fn slab_partition_is_contiguous_panel_aligned_and_never_wider_than_the_team() {
    for m in [
        0,
        1,
        PANEL_ROWS - 1,
        PANEL_ROWS,
        PANEL_ROWS + 1,
        5 * PANEL_ROWS,
        8 * PANEL_ROWS + 37,
    ] {
        for team in [1usize, 2, 3, 8, 64] {
            let slabs = slab_count(m, team);
            assert!((1..=team).contains(&slabs), "m={m} team={team}: {slabs} slabs");
            let mut next = 0;
            for s in 0..slabs {
                let rows = slab_rows(m, slabs, s);
                assert_eq!(
                    rows.start,
                    next,
                    "m={m} team={team}: slab {s} starts where {} ended",
                    s.max(1) - 1
                );
                assert_eq!(rows.start % PANEL_ROWS, 0, "slabs start on panel boundaries");
                assert!(m == 0 || !rows.is_empty(), "m={m} team={team}: slab {s} is empty");
                next = rows.end;
            }
            assert_eq!(next, m, "m={m} team={team}: the slabs cover every row");
        }
    }
}

#[test]
fn team_diagnostics_match_the_naive_one_slab_oracle() {
    // Ragged last slab (9 panels over 8 slabs, the last 37 rows short), fewer
    // panels than members, a single short panel (one slab whatever the team),
    // exact multiples.
    let shapes = [
        (8 * PANEL_ROWS + 37, 24),
        (3 * PANEL_ROWS + 1, NR + 1),
        (PANEL_ROWS - 5, 12),
        (2 * PANEL_ROWS, 8),
    ];
    let mut ws = Workspace::new();
    for &(m, n) in &shapes {
        let a = filled(m, n, 17);
        let factors = dense::householder_qr(&a);
        let (q, mut r) = (dense::form_q(&factors), factors.r());
        for perturbed in [false, true] {
            if perturbed {
                r.set(0, n - 1, r.get(0, n - 1) + 1e-5);
            }
            let (av, qv, rv) = (a.as_ref(), q.as_ref(), r.as_ref());
            let oracle = qr_diagnostics(av, qv, rv, BackendKind::Naive, &mut ws);
            for kind in BackendKind::ALL {
                let one_slab = qr_diagnostics(av, qv, rv, kind, &mut ws);
                for team in [1usize, 2, 8] {
                    let label = format!("{kind} {m}x{n} team {team} perturbed {perturbed}");
                    let got = team_diagnostics(av, qv, rv, team, kind, &mut ws);
                    assert_diagnostics_agree(&label, got, oracle, m, n);
                    if slab_count(m, team) == 1 {
                        assert_eq!(got, one_slab, "{label}: one slab is qr_diagnostics, bitwise");
                    }
                }
            }
        }
    }
    assert_eq!(ws.recycles(), ws.takes(), "every scratch buffer goes back to the arena");
}

/// Householder `R` with the CholeskyQR sign convention (positive diagonal).
fn householder_r(a: &Matrix) -> Matrix {
    let mut r = dense::householder_qr(a).r();
    normalize_qr_signs(&mut Matrix::zeros(0, r.cols()), &mut r);
    r
}

fn relative_distance(got: &Matrix, want: &Matrix) -> f64 {
    let diff: f64 = got.data().iter().zip(want.data()).map(|(g, w)| (g - w) * (g - w)).sum();
    (diff / want.data().iter().map(|w| w * w).sum::<f64>()).sqrt()
}

#[test]
fn block_downdate_matches_a_householder_factor_of_the_remaining_rows() {
    // The removed block is the first k rows of a κ-conditioned matrix,
    // scaled up in the small-α² cells (which leaves κ alone). Stated bound:
    // ‖R' − R_rest‖_F ≤ c·ε·(n + k)/α² · ‖R_rest‖_F — no κ, let alone κ².
    let mut ws = Workspace::new();
    for &n in &[1usize, 7, 64, 65, 128, 200] {
        for &k in &[1usize, 8, 64, n + 3] {
            for &kappa in &[1.0, 1e3, 1e6] {
                let base = matrix_with_condition(2 * n + 8 + k, n, kappa, 31 + n as u64);
                for &scale in &[1.0, 30.0] {
                    let mut full = base.clone();
                    full.data_mut()[..k * n].iter_mut().for_each(|v| *v *= scale);
                    let block = full.view(0, 0, k, n);
                    let r_full = householder_r(&full);
                    let r_rest = householder_r(&Matrix::from_view(full.view(k, 0, full.rows() - k, n)));
                    let label = format!("n={n} k={k} κ={kappa:e} scale={scale}");
                    let mut results = Vec::new();
                    for kind in BackendKind::ALL {
                        let mut r = r_full.clone();
                        let alpha_sq = rank_k_downdate(r.as_mut(), block, kind.get(), &mut ws).unwrap();
                        assert!(alpha_sq > 0.0 && alpha_sq <= 1.0, "{label} {kind}: α² = {alpha_sq:e}");
                        let bound = 32.0 * f64::EPSILON * (n + k) as f64 / alpha_sq;
                        let err = relative_distance(&r, &r_rest);
                        assert!(err <= bound, "{label} {kind}: error {err:e} above {bound:e}");
                        for i in 0..n {
                            assert!(r.get(i, i) > 0.0, "{label} {kind}: positive diagonal");
                            assert!(
                                r.as_ref().row(i)[..i].iter().all(|&v| v == 0.0),
                                "{label} {kind}: upper"
                            );
                        }
                        results.push((r, alpha_sq, bound));
                    }
                    let ((naive, naive_alpha, bound), (blocked, blocked_alpha, _)) = (&results[0], &results[1]);
                    assert!(
                        relative_distance(blocked, naive) <= 2.0 * bound,
                        "{label}: backends apart"
                    );
                    let pivot_tol = 64.0 * f64::EPSILON * kappa * (n + k) as f64;
                    assert!(
                        (naive_alpha - blocked_alpha).abs() <= pivot_tol,
                        "{label}: α² {blocked_alpha:e} vs {naive_alpha:e}"
                    );
                }
            }
        }
    }
    assert_eq!(ws.takes(), ws.recycles(), "arena balanced");
}

#[test]
fn block_downdate_breakdown_in_the_second_cholesky_is_typed_and_transactional() {
    // T = 1 − ‖w‖² and S = I − wᵀw are positive definite together, so S can
    // only fail once T has passed when α² is within rounding of zero: scan
    // unit-factor rows whose squared norm sits a few ulps under 1. The naive
    // backend's arithmetic is plain IEEE loops, so its scan must find such a
    // row; under either backend every one found has to honour the contract.
    let mut second_stage_failures = [0usize; 2];
    for &n in &[100usize, 128, 200] {
        let raw: Vec<f64> = (0..n).map(|i| 1.0 + 0.37 * ((i * 7 + 3) % 11) as f64).collect();
        let norm = raw.iter().map(|v| v * v).sum::<f64>().sqrt();
        for ulps in 0..64u32 {
            let target = (1.0 - f64::from(ulps) * f64::EPSILON).sqrt();
            let row = Matrix::from_fn(1, n, |_, j| raw[j] / norm * target);
            for (slot, kind) in BackendKind::ALL.into_iter().enumerate() {
                let backend = kind.get();
                let mut ws = Workspace::new();
                // The first stage, spelled with the same calls the kernel makes.
                let mut w = row.clone();
                backend.trsm_right_upper(Matrix::identity(n).as_ref(), w.as_mut());
                let mut t = Matrix::zeros(1, 1);
                backend.gemm(1.0, w.as_ref(), Trans::No, w.as_ref(), Trans::Yes, 0.0, t.as_mut());
                t.set(0, 0, 1.0 - t.get(0, 0));
                let first_stage_passes = potrf(t.as_mut(), backend, &mut ws).is_ok();

                let mut r = Matrix::identity(n);
                let outcome = rank_k_downdate(r.as_mut(), row.as_ref(), backend, &mut ws);
                assert_eq!(ws.takes(), ws.recycles(), "n={n} ulps={ulps} {kind}: arena balanced");
                let Err(err) = outcome else {
                    assert!(first_stage_passes);
                    continue;
                };
                assert!(
                    matches!(err, UpdateError::DowndateIndefinite { row: 0, deficiency } if deficiency <= 0.0),
                    "n={n} ulps={ulps} {kind}: {err:?}"
                );
                assert_eq!(r, Matrix::identity(n), "n={n} ulps={ulps} {kind}: r untouched");
                second_stage_failures[slot] += usize::from(first_stage_passes);
            }
        }
    }
    assert!(
        second_stage_failures[0] > 0,
        "no row of the scan reached the second Cholesky's breakdown: {second_stage_failures:?}"
    );
}
