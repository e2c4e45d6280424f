//! Algorithm 9: `CA-CQR2` — the paper's headline algorithm.
//!
//! Two CA-CQR passes (Algorithm 8) plus one subcube MM3D assembling the
//! final triangular factor `R = R₂·R₁`. With the grid tuned so
//! `m/d = n/c`, the bandwidth and memory costs reach `(mn²/P)^{2/3}` —
//! a `Θ(P^{1/6})` improvement over any 2D QR (Table I, last row).

use crate::cacqr::ca_cqr;
use crate::config::CfrParams;
use crate::mm3d::{mm3d, transpose_cube};
use dense::cholesky::CholeskyError;
use dense::{MatRef, Matrix, Workspace};
use pargrid::TunableComms;
use simgrid::Rank;

/// Result of CA-CQR2 on one rank. Both matrices are **workspace-backed**;
/// the global drivers deposit the owners' pieces into the output inside the
/// region and recycle every piece, so repeated factorizations through one
/// plan are allocation-free at the arena layer.
pub struct CaCqr2Output {
    /// This rank's piece of `Q` (rows `≡ y (mod d)`, cols `≡ x (mod c)`,
    /// replicated across depth).
    pub q_local: Matrix,
    /// This rank's subcube-slice piece of the upper-triangular `R`
    /// (rows `≡ y mod c`, cols `≡ x (mod c)`, replicated across depth and
    /// across the `d/c` subcubes).
    pub r_local: Matrix,
}

/// CholeskyQR2 over the tunable `c × d × c` grid (see module docs).
///
/// `a_local` is this rank's cyclic piece of the global `m × n` input
/// (shape `(m/d) × (n/c)`, any view), replicated across depth. The Gram matrix, the
/// first-pass `Q₁`, and every reduction/broadcast scratch buffer come from
/// `ws` and are reused across the two passes (and across calls when the
/// caller keeps the workspace warm).
pub fn ca_cqr2(
    rank: &mut Rank,
    comms: &TunableComms,
    a_local: MatRef<'_>,
    n: usize,
    params: &CfrParams,
    ws: &mut Workspace,
) -> Result<CaCqr2Output, CholeskyError> {
    // Line 1: first pass on A.
    let (q1, l1) = ca_cqr(rank, comms, a_local, n, params, 0.0, ws)?;
    // Line 2: second pass on Q₁ (recycling the pass-1 outputs even when the
    // second Cholesky fails — failure is how ill-conditioning reports).
    let second = ca_cqr(rank, comms, q1.as_ref(), n, params, 0.0, ws);
    ws.recycle(q1);
    let (q, l2) = match second {
        Ok(out) => out,
        Err(e) => {
            ws.recycle(l1);
            return Err(e);
        }
    };
    // Line 4: R = R₂·R₁ over the subcube (R_i = L_iᵀ).
    let r2 = transpose_cube(rank, &comms.subcube, &l2, ws);
    let r1 = transpose_cube(rank, &comms.subcube, &l1, ws);
    ws.recycle(l1);
    ws.recycle(l2);
    let r_local = mm3d(rank, &comms.subcube, &r2, &r1, params.backend, ws);
    ws.recycle(r1);
    ws.recycle(r2);
    Ok(CaCqr2Output { q_local: q, r_local })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::run_cacqr2_global;
    use dense::norms::{lower_residual, normalize_qr_signs, orthogonality_error, residual_error};
    use dense::random::{matrix_with_condition, well_conditioned};
    use pargrid::GridShape;
    use simgrid::SimConfig;

    fn check(shape: GridShape, m: usize, n: usize, seed: u64, params: CfrParams) {
        let a = well_conditioned(m, n, seed);
        let run = run_cacqr2_global(&a, shape, params, SimConfig::default(), &dense::WorkspacePool::new())
            .expect("well-conditioned input");
        assert!(
            orthogonality_error(run.q.as_ref()) < 1e-12,
            "orthogonality {:.2e} on grid c={} d={}",
            orthogonality_error(run.q.as_ref()),
            shape.c,
            shape.d
        );
        assert!(residual_error(a.as_ref(), run.q.as_ref(), run.r.as_ref()) < 1e-12);
        assert!(lower_residual(run.r.as_ref()) < 1e-13, "R must be upper triangular");
    }

    #[test]
    fn grid_1d() {
        check(GridShape::one_d(4).unwrap(), 32, 8, 1, CfrParams::default_for(8, 1));
    }

    #[test]
    fn grid_tunable_2_4() {
        check(
            GridShape::new(2, 4).unwrap(),
            32,
            8,
            2,
            CfrParams::validated(8, 2, 4, 0).unwrap(),
        );
    }

    #[test]
    fn grid_tunable_2_8() {
        check(
            GridShape::new(2, 8).unwrap(),
            64,
            16,
            3,
            CfrParams::validated(16, 2, 4, 0).unwrap(),
        );
    }

    #[test]
    fn grid_cubic_2() {
        check(
            GridShape::cubic(2).unwrap(),
            16,
            8,
            4,
            CfrParams::validated(8, 2, 4, 0).unwrap(),
        );
    }

    #[test]
    fn grid_cubic_2_with_inverse_depth() {
        check(
            GridShape::cubic(2).unwrap(),
            32,
            16,
            5,
            CfrParams::validated(16, 2, 8, 1).unwrap(),
        );
    }

    #[test]
    fn matches_householder_up_to_signs() {
        let (m, n) = (48, 8);
        let a = well_conditioned(m, n, 6);
        let shape = GridShape::new(2, 4).unwrap();
        let run = run_cacqr2_global(
            &a,
            shape,
            CfrParams::validated(n, 2, 4, 0).unwrap(),
            SimConfig::default(),
            &dense::WorkspacePool::new(),
        )
        .unwrap();
        let (mut qh, mut rh) = dense::householder::qr(&a);
        let (mut qc, mut rc) = (run.q, run.r);
        normalize_qr_signs(&mut qh, &mut rh);
        normalize_qr_signs(&mut qc, &mut rc);
        for (u, v) in rc.data().iter().zip(rh.data()) {
            assert!((u - v).abs() < 1e-9 * (1.0 + v.abs()));
        }
        for (u, v) in qc.data().iter().zip(qh.data()) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn repairs_moderate_condition_number() {
        // The CQR2 headline property must survive the distribution.
        let (m, n) = (64, 8);
        let a = matrix_with_condition(m, n, 1e4, 7);
        let shape = GridShape::new(2, 4).unwrap();
        let run = run_cacqr2_global(
            &a,
            shape,
            CfrParams::validated(n, 2, 4, 0).unwrap(),
            SimConfig::default(),
            &dense::WorkspacePool::new(),
        )
        .unwrap();
        assert!(orthogonality_error(run.q.as_ref()) < 1e-13);
        assert!(residual_error(a.as_ref(), run.q.as_ref(), run.r.as_ref()) < 1e-12);
    }

    #[test]
    fn ill_conditioned_input_reports_error() {
        let (m, n) = (64, 8);
        let a = matrix_with_condition(m, n, 1e12, 8);
        let shape = GridShape::new(2, 4).unwrap();
        let res = run_cacqr2_global(
            &a,
            shape,
            CfrParams::validated(n, 2, 4, 0).unwrap(),
            SimConfig::default(),
            &dense::WorkspacePool::new(),
        );
        assert!(
            res.is_err(),
            "κ=1e12 must fail the Cholesky (and be reported, not panic)"
        );
    }
}
