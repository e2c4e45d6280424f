//! Panel-blocked CholeskyQR2 — the paper's §V future-work extension.
//!
//! CQR2 performs `4mn² + 5n³/3` flops against Householder's `2mn² − ⅔n³`;
//! the overhead is painful for near-square matrices. The fix the paper
//! sketches ("a CA-CQR2 algorithm that operates on subpanels to reduce
//! computation cost") is a block Gram–Schmidt sweep: split `A` into column
//! panels of width `b`, CQR2 each panel (for which `b ≪ m` restores the
//! tall-skinny regime), and update the trailing panels with BLAS-3 products:
//!
//! ```text
//! for each panel k:                      (n/b panels)
//!     Q_k, R_kk = CQR2(A_k)
//!     R_{k,k+1:} = Q_kᵀ · A_{k+1:}       (projection)
//!     A_{k+1:} −= Q_k · R_{k,k+1:}       (update)
//! ```
//!
//! [`panel_cqr2`] is the sequential form; [`panel_cqr2_flops`] quantifies
//! the flop reduction (the ablation bench sweeps the panel width). A second
//! Gram–Schmidt pass per panel (`reorth`) keeps `QᵀQ − I` at Householder
//! levels; with one pass the algorithm matches classical block Gram–Schmidt
//! stability instead.

use dense::cholesky::CholeskyError;
use dense::gemm::Trans;
use dense::workspace;
use dense::{Backend, BackendKind, Matrix};

/// Panel-blocked CQR2 (see module docs). Requires `b ≥ 1`; `b ≥ n` collapses
/// to plain CQR2. `reorth` enables a second projection pass per panel. The
/// panel CQR2s and block Gram–Schmidt updates go through the given kernel
/// backend (pass [`BackendKind::default_kind`] for the process default).
/// Panel copies and projection blocks are scratch from the thread-local
/// workspace arena, so the `n/b` panel sweep re-allocates nothing.
pub fn panel_cqr2(a: &Matrix, b: usize, reorth: bool, backend: BackendKind) -> Result<(Matrix, Matrix), CholeskyError> {
    let be: &dyn Backend = backend.get();
    let (m, n) = (a.rows(), a.cols());
    assert!(b >= 1, "panel width must be positive");
    assert!(m >= n, "reduced QR requires m >= n");
    let take_copy = |v: dense::MatRef<'_>| workspace::with_thread_local(|ws| ws.take_copy(v));
    let give = |m: Matrix| workspace::recycle_local_vec(m.into_vec());
    let mut work = take_copy(a.as_ref());
    let mut q = Matrix::zeros(m, n);
    let mut r = Matrix::zeros(n, n);

    let mut k = 0;
    while k < n {
        let w = b.min(n - k);
        // Panel CQR2.
        let panel = take_copy(work.view(0, k, m, w));
        let factored = crate::cqr::cqr2(&panel, backend);
        give(panel);
        let (qk, rkk) = factored?;
        q.view_mut(0, k, m, w).copy_from(qk.as_ref());
        r.view_mut(k, k, w, w).copy_from(rkk.as_ref());

        let rest = n - k - w;
        if rest > 0 {
            // One Gram–Schmidt pass against Q_k: the projection
            // `Q_kᵀ · A_{:, k+w:}`, subtracted from the trailing panels.
            let project_out = |work: &mut Matrix| {
                let trailing = take_copy(work.view(0, k + w, m, rest));
                let mut proj = workspace::with_thread_local(|ws| ws.take_matrix_stale(w, rest));
                let qk = qk.as_ref();
                be.gemm(1.0, qk, Trans::Yes, trailing.as_ref(), Trans::No, 0.0, proj.as_mut());
                give(trailing);
                let block = work.view_mut(0, k + w, m, rest);
                be.gemm(-1.0, qk, Trans::No, proj.as_ref(), Trans::No, 1.0, block);
                proj
            };
            let mut total_proj = project_out(&mut work);
            if reorth {
                let proj2 = project_out(&mut work);
                for (x, y) in total_proj.data_mut().iter_mut().zip(proj2.data()) {
                    *x += y;
                }
                give(proj2);
            }
            r.view_mut(k, k + w, w, rest).copy_from(total_proj.as_ref());
            give(total_proj);
        }
        k += w;
    }
    give(work);
    Ok((q, r))
}

/// Flop count of [`panel_cqr2`] (single-pass), for the ablation bench:
/// `n/b` panel CQR2s of shape `m × b` plus the Gram–Schmidt updates.
pub fn panel_cqr2_flops(m: usize, n: usize, b: usize, reorth: bool) -> f64 {
    let (mf, bf) = (m as f64, b as f64);
    let panels = n.div_ceil(b);
    let mut flops = 0.0;
    for k in 0..panels {
        let done = (k * b) as f64;
        let rest = n as f64 - done - bf;
        flops += dense::flops::cqr2_flops(m, b);
        if rest > 0.0 {
            let gs = 2.0 * mf * bf * rest * 2.0; // projection + update
            flops += if reorth { 2.0 * gs } else { gs };
        }
    }
    flops
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::norms::{lower_residual, orthogonality_error, residual_error};
    use dense::random::{matrix_with_condition, well_conditioned};

    #[test]
    fn matches_qr_invariants() {
        let a = well_conditioned(96, 32, 41);
        for b in [4usize, 8, 16, 32, 64] {
            let (q, r) = panel_cqr2(&a, b, true, BackendKind::default_kind()).unwrap();
            assert!(orthogonality_error(q.as_ref()) < 1e-12, "b={b}");
            assert!(residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-12, "b={b}");
            assert!(lower_residual(r.as_ref()) < 1e-13, "b={b}");
        }
    }

    #[test]
    fn full_width_is_plain_cqr2() {
        let a = well_conditioned(40, 10, 43);
        let (qp, rp) = panel_cqr2(&a, 10, false, BackendKind::default_kind()).unwrap();
        let (qc, rc) = crate::cqr::cqr2(&a, BackendKind::default_kind()).unwrap();
        assert_eq!(qp, qc);
        assert_eq!(rp, rc);
    }

    #[test]
    fn flop_reduction_for_near_square() {
        // For a square-ish matrix, small panels avoid most of the n³ terms:
        // the paper's motivation for the subpanel variant.
        let (m, n) = (4096usize, 2048usize);
        let full = panel_cqr2_flops(m, n, n, false);
        let paneled = panel_cqr2_flops(m, n, 128, false);
        assert!(
            paneled < 0.8 * full,
            "panels should cut flops substantially: {paneled:.3e} vs {full:.3e}"
        );
        let householder = dense::flops::householder_qr_flops(m, n);
        assert!(
            paneled < 2.0 * householder,
            "paneled CQR2 should approach 2x Householder"
        );
    }

    #[test]
    fn moderate_condition_number_with_reorth() {
        let a = matrix_with_condition(80, 16, 1e4, 44);
        let (q, r) = panel_cqr2(&a, 4, true, BackendKind::default_kind()).unwrap();
        assert!(orthogonality_error(q.as_ref()) < 1e-12);
        assert!(residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-12);
    }
}
