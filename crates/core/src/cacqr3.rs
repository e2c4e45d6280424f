//! Distributed shifted CholeskyQR3 over the tunable grid — the paper's §V
//! future work ("minimal modifications are necessary to implement shifted
//! Cholesky-QR"), made concrete.
//!
//! The first pass factors the *shifted* Gram matrix `AᵀA + σI` with
//! `σ = 11(mn + n(n+1))·ε·‖A‖²` (Fukaya et al., the paper's reference \[3\]), which is positive
//! definite in floating point for any numerically full-rank `A`; the
//! resulting `Q₁` has `κ(Q₁) = O(1)` and an ordinary CA-CQR2 finishes the
//! job. Total: three CholeskyQR passes, all communication-avoiding.
//!
//! The only communication beyond CA-CQR2 is a 1-word allreduce for
//! `‖A‖_F²` (bounding `‖A‖₂²`), which rides the existing grid communicators.

use crate::cacqr::ca_cqr;
use crate::cacqr2::{ca_cqr2, CaCqr2Output};
use crate::config::CfrParams;
use crate::mm3d::{mm3d, transpose_cube};
use dense::cholesky::CholeskyError;
use dense::{MatRef, Workspace};
use pargrid::TunableComms;
use simgrid::Rank;

/// Shifted CholeskyQR3 on the tunable grid: unconditionally stable for
/// numerically full-rank input. Returns the same distribution (and the
/// same workspace-backed output contract) as [`crate::ca_cqr2`].
pub fn ca_cqr3(
    rank: &mut Rank,
    comms: &TunableComms,
    a_local: MatRef<'_>,
    m: usize,
    n: usize,
    params: &CfrParams,
    ws: &mut Workspace,
) -> Result<CaCqr2Output, CholeskyError> {
    // ‖A‖_F²: this rank's piece's partial, summed over one depth slice (the
    // depth replicates): over rows (y) by the contiguous y-group (subcube
    // column), then across groups (ystride); over columns (x) by the row.
    let rows = (0..a_local.rows()).flat_map(|i| a_local.row(i));
    let mut norm2 = vec![rows.map(|v| v * v).sum::<f64>()];
    rank.charge_flops(2.0 * (a_local.rows() * a_local.cols()) as f64);
    comms.subcube.col.allreduce(rank, &mut norm2);
    comms.ystride.allreduce(rank, &mut norm2);
    comms.subcube.row.allreduce(rank, &mut norm2);

    // Pass 1: shifted CA-CQR, the shift grown on pathological input.
    let (q1, l1) = crate::cqr::shifted_pass(m, n, norm2[0], |sigma| {
        ca_cqr(rank, comms, a_local, n, params, sigma, ws)
    })?;

    // Passes 2–3: plain CA-CQR2 on the now well-conditioned Q₁ (recycling
    // the pass-1 outputs even on failure, to keep the arena balanced).
    let passes = ca_cqr2(rank, comms, q1.as_ref(), n, params, ws);
    ws.recycle(q1);
    let CaCqr2Output { q_local, r_local: r23 } = match passes {
        Ok(out) => out,
        Err(e) => {
            ws.recycle(l1);
            return Err(e);
        }
    };

    // R = R₂₃ · R₁ over the subcube (R₁ = L₁ᵀ).
    let r1 = transpose_cube(rank, &comms.subcube, &l1, ws);
    ws.recycle(l1);
    let r_local = mm3d(rank, &comms.subcube, &r23, &r1, params.backend, ws);
    ws.recycle(r1);
    ws.recycle(r23);
    Ok(CaCqr2Output { q_local, r_local })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::norms::{orthogonality_error, residual_error};
    use dense::random::matrix_with_condition;
    use dense::Matrix;
    use pargrid::{DistMatrix, GridShape};
    use simgrid::{run_spmd, SimConfig};

    fn run_ca_cqr3(shape: GridShape, m: usize, n: usize, kappa: f64, seed: u64) -> (Matrix, Matrix, Matrix) {
        let a = matrix_with_condition(m, n, kappa, seed);
        let (c, d) = (shape.c, shape.d);
        let a2 = a.clone();
        let report = run_spmd(shape.p(), SimConfig::default(), move |rank| {
            let comms = TunableComms::build(rank, shape);
            let (x, y, z) = comms.coords;
            let al = DistMatrix::from_global(&a2, d, c, y, x);
            let params = CfrParams::default_for(n, c);
            let mut ws = dense::Workspace::new();
            let out = ca_cqr3(rank, &comms, al.local.as_ref(), m, n, &params, &mut ws)
                .expect("ca_cqr3 is unconditionally stable");
            (x, y, z, out.q_local, out.r_local)
        });
        let mut qp: Vec<Vec<Matrix>> = (0..d).map(|_| (0..c).map(|_| Matrix::zeros(0, 0)).collect()).collect();
        let mut rp: Vec<Vec<Matrix>> = (0..c).map(|_| (0..c).map(|_| Matrix::zeros(0, 0)).collect()).collect();
        for (x, y, z, q, r) in &report.results {
            if *z == 0 {
                qp[*y][*x] = q.clone();
                if *y < c {
                    rp[*y][*x] = r.clone();
                }
            }
        }
        (
            a,
            DistMatrix::assemble(m, n, d, c, &qp),
            DistMatrix::assemble(n, n, c, c, &rp),
        )
    }

    #[test]
    fn handles_extreme_condition_numbers() {
        for kappa in [1e2, 1e8, 1e12] {
            let (a, q, r) = run_ca_cqr3(GridShape::new(2, 4).unwrap(), 64, 8, kappa, 91);
            assert!(
                orthogonality_error(q.as_ref()) < 1e-12,
                "κ={kappa}: orthogonality {:.2e}",
                orthogonality_error(q.as_ref())
            );
            assert!(
                residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-10,
                "κ={kappa}: residual {:.2e}",
                residual_error(a.as_ref(), q.as_ref(), r.as_ref())
            );
        }
    }

    #[test]
    fn one_d_grid_matches_sequential_shifted_cqr3_behaviour() {
        let (a, q, r) = run_ca_cqr3(GridShape::one_d(4).unwrap(), 32, 8, 1e10, 93);
        assert!(orthogonality_error(q.as_ref()) < 1e-12);
        assert!(residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-10);
    }

    #[test]
    fn well_conditioned_input_unharmed_by_shift() {
        let (a, q, r) = run_ca_cqr3(GridShape::cubic(2).unwrap(), 16, 8, 1.0, 95);
        assert!(orthogonality_error(q.as_ref()) < 1e-13);
        assert!(residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-12);
    }
}
