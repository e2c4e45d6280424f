//! Algorithm 8: `CA-CQR` — one CholeskyQR pass over the tunable `c × d × c`
//! grid.
//!
//! The `m × n` matrix `A` is replicated on every depth slice and partitioned
//! cyclically: processor `(x, y, z)` owns rows `≡ y (mod d)` and columns
//! `≡ x (mod c)`. The pass computes `Z = AᵀA` with a distributed SYRK whose
//! reduction is *staged* so that every `c × c × c` subcube ends up with a
//! full replicated copy of `Z` — after which the `d/c` subcubes proceed
//! completely independently (CFR3D + MM3D for `Q = A·R⁻¹`):
//!
//! 1. `Bcast(Π⟨A⟩, W, z, Π[:, y, z])` — row broadcast from `x = z`,
//! 2. `Π⟨X⟩ = Π⟨W⟩ᵀ·Π⟨A⟩` — local Gram contribution over this rank's rows,
//! 3. `Reduce(X, z, Π[x, c⌊y/c⌋ .. c⌈y/c⌉, z])` — within the contiguous
//!    y-group, onto the root with `y ≡ z (mod c)`,
//! 4. `Allreduce(X, Π[x, (y mod c)::c, z])` — across the `d/c` groups; only
//!    the classes on the "diagonal" `y ≡ z` carry the true sums,
//! 5. `Bcast(Z, y mod c, Π[x, y, :])` — depth broadcast from the diagonal,
//!    leaving every rank with its cyclic piece of `Z` replicated subcube-wide,
//! 6. `CFR3D(Z, Π_subcube)` — `d/c` simultaneous factorizations,
//! 7. `Q = A·R⁻¹` via the InvTree solver (MM3D) on each subcube.
//!
//! Setting `c = 1` degenerates to exactly Algorithm 6 (1D-CQR), bit for bit:
//! so at `c = 1, n₀ = n` the global drivers
//! [`run_cacqr2_global`](crate::validate::run_cacqr2_global) and
//! [`run_cacqr3_global`](crate::validate::run_cacqr3_global) — under every
//! plan, service job and stream refresh — run [`crate::cqr2_1d`] and
//! [`crate::cqr3_1d`] instead, charged this pass's flops. `c = d` gives the
//! 3D algorithm of §III-A.

use crate::cfr3d::cfr3d;
use crate::config::CfrParams;
use dense::cholesky::CholeskyError;
use dense::gemm::Trans;
use dense::{MatRef, Matrix, Workspace};
use pargrid::TunableComms;
use simgrid::Rank;

/// One CholeskyQR pass over the tunable grid (see module docs), factoring
/// the Gram matrix shifted by `sigma` (`0` for Algorithm 8 proper; the
/// shifted pass of [`crate::ca_cqr3`] otherwise), as [`crate::cqr1d()`] does.
/// `a_local` is this rank's cyclic piece of the global `m × n` matrix — any
/// view: with `c = 1` the piece is [`MatRef::step_rows`] of the global
/// matrix itself — `n` must be a power of two divisible by `c` and the row
/// count must satisfy `d | m`.
///
/// Returns this rank's piece of `Q` (rows `≡ y (mod d)`, cols
/// `≡ x (mod c)`) and its subcube piece of `L = Rᵀ`, cyclic over the
/// `c × c` subcube slice. Both are **workspace-backed**: recycle them when
/// they die so repeated passes reuse the same storage (the pass recycles
/// its own inverse tree).
pub fn ca_cqr(
    rank: &mut Rank,
    comms: &TunableComms,
    a_local: MatRef<'_>,
    n: usize,
    params: &CfrParams,
    sigma: f64,
    ws: &mut Workspace,
) -> Result<(Matrix, Matrix), CholeskyError> {
    let c = comms.shape.c;
    let (x, y, z) = comms.coords;
    let lr = a_local.rows(); // m/d
    let lc = a_local.cols(); // n/c
    assert_eq!(lc, n / c, "local width must be n/c");

    // Line 1: row broadcast of A pieces from the member with x == z.
    let mut w = ws.take_copy(a_local);
    comms.subcube.row.bcast(rank, z, w.data_mut());

    // Line 2: local Gram contribution X = Wᵀ·A ((n/c) × (n/c)).
    let mut xm = ws.take_matrix_stale(lc, lc);
    params
        .backend
        .get()
        .gemm(1.0, w.as_ref(), Trans::Yes, a_local, Trans::No, 0.0, xm.as_mut());
    rank.charge_flops(dense::flops::gemm(lc, lr, lc));
    ws.recycle(w);

    // Line 3: reduce within the contiguous y-group onto the root ŷ == z.
    let mut xbuf = xm.into_vec();
    comms.subcube.col.reduce(rank, z, &mut xbuf);
    if y % c != z {
        // Non-root partial state is undefined after the reduce; zero it so
        // the cross-group allreduce of off-diagonal classes is inert.
        xbuf.iter_mut().for_each(|v| *v = 0.0);
    }

    // Line 4: allreduce across the d/c groups (strided y-classes).
    comms.ystride.allreduce(rank, &mut xbuf);

    // Line 5: depth broadcast from the diagonal member z == y mod c.
    comms.subcube.depth.bcast(rank, y % c, &mut xbuf);
    let mut z_local = Matrix::from_vec(lc, lc, xbuf);

    // Shift: Z ← Z + σI. Global diagonal entries (j, j) live on ranks with
    // x == y mod c at local index (j/c, j/c).
    if sigma != 0.0 && x == y % c {
        for lj in 0..lc {
            let v = z_local.get(lj, lj);
            z_local.set(lj, lj, v + sigma);
        }
    }

    // Lines 6–7: subcube Cholesky factorization + inverse.
    let result = cfr3d(rank, &comms.subcube, &z_local, n, params, ws);
    ws.recycle(z_local);
    let (l_local, inv) = result?;

    // Line 8: Q = A·R⁻¹ over the subcube.
    let q_local = inv.apply_rinv(rank, &comms.subcube, a_local, params.backend, ws);
    inv.recycle_into(ws);
    Ok((q_local, l_local))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::norms::{orthogonality_error, residual_error};
    use dense::random::well_conditioned;
    use pargrid::{DistMatrix, GridShape};
    use simgrid::{run_spmd, SimConfig};

    fn run_ca_cqr(shape: GridShape, m: usize, n: usize, seed: u64, params: CfrParams, sigma: f64) -> (Matrix, Matrix) {
        let a = well_conditioned(m, n, seed);
        let (c, d) = (shape.c, shape.d);
        let a2 = a.clone();
        let report = run_spmd(shape.p(), SimConfig::default(), move |rank| {
            let comms = TunableComms::build(rank, shape);
            let (x, y, z) = comms.coords;
            let mut ws = dense::Workspace::new();
            let al = DistMatrix::from_global(&a2, d, c, y, x);
            let (q, l) = ca_cqr(rank, &comms, al.local.as_ref(), n, &params, sigma, &mut ws).expect("well-conditioned");
            (x, y, z, q, l)
        });
        // Assemble Q from the z = 0 slice; check replication across z.
        let mut qp: Vec<Vec<Matrix>> = (0..d).map(|_| (0..c).map(|_| Matrix::zeros(0, 0)).collect()).collect();
        let mut lp: Vec<Vec<Matrix>> = (0..c).map(|_| (0..c).map(|_| Matrix::zeros(0, 0)).collect()).collect();
        for (x, y, z, q, l) in &report.results {
            if *z == 0 {
                qp[*y][*x] = q.clone();
                if *y < c {
                    lp[*y][*x] = l.clone();
                }
            } else {
                assert_eq!(*q, qp[*y][*x], "Q must be replicated across depth");
            }
        }
        // Check R replication across subcubes (groups beyond the first).
        for (x, y, z, _, l) in &report.results {
            if *z == 0 && *y >= c {
                assert_eq!(*l, lp[*y % c][*x], "L must be replicated across subcubes");
            }
        }
        let q = DistMatrix::assemble(m, n, d, c, &qp);
        let l = DistMatrix::assemble(n, n, c, c, &lp);
        (q, l.transposed())
    }

    #[test]
    fn ca_cqr_c1_equals_1d_cqr() {
        // c = 1 must produce bitwise the result of Algorithm 6, shifted or
        // not: every rank holds diagonal entries (x == y % c), and each adds
        // the same σ to them.
        let (m, n, p) = (32usize, 8usize, 4usize);
        let a = well_conditioned(m, n, 21);
        let shape = GridShape::one_d(p).unwrap();
        let params = CfrParams::default_for(n, 1);
        for sigma in [0.0, 0.5] {
            let (q_ca, r_ca) = run_ca_cqr(shape, m, n, 21, params, sigma);
            let report = run_spmd(p, SimConfig::default(), |rank| {
                let world = rank.world();
                let a_local = a.as_ref().step_rows(rank.id(), p);
                let mut q = Matrix::zeros(a_local.rows(), n);
                let mut ws = dense::Workspace::new();
                let (kind, charges) = (dense::BackendKind::default_kind(), crate::FlopCharges::OneD);
                let r = crate::cqr1d(rank, &world, a_local, q.as_mut(), sigma, charges, kind, &mut ws).unwrap();
                (rank.id(), q, r)
            });
            let mut pieces: Vec<Vec<Matrix>> = (0..p).map(|_| vec![Matrix::zeros(0, 0)]).collect();
            for (id, q, _) in &report.results {
                pieces[*id][0] = q.clone();
            }
            let q_1d = DistMatrix::assemble(m, n, p, 1, &pieces);
            let r_1d = report.results[0].2.clone();
            assert_eq!(q_ca, q_1d, "CA-CQR with c=1 must equal 1D-CQR bitwise (σ = {sigma})");
            assert_eq!(r_ca, r_1d, "σ = {sigma}");
        }
    }

    #[test]
    fn ca_cqr_tunable_grid_2_4() {
        let shape = GridShape::new(2, 4).unwrap();
        let (m, n) = (32, 8);
        let params = CfrParams::validated(n, 2, 4, 0).unwrap();
        let (q, r) = run_ca_cqr(shape, m, n, 31, params, 0.0);
        let a = well_conditioned(m, n, 31);
        assert!(orthogonality_error(q.as_ref()) < 1e-12);
        assert!(residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-12);
    }

    #[test]
    fn ca_cqr_cubic_grid() {
        // c = d = 2: the 3D algorithm.
        let shape = GridShape::cubic(2).unwrap();
        let (m, n) = (16, 8);
        let params = CfrParams::validated(n, 2, 4, 0).unwrap();
        let (q, r) = run_ca_cqr(shape, m, n, 33, params, 0.0);
        let a = well_conditioned(m, n, 33);
        assert!(orthogonality_error(q.as_ref()) < 1e-12);
        assert!(residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-12);
    }

    #[test]
    fn ca_cqr_with_inverse_depth() {
        let shape = GridShape::new(2, 4).unwrap();
        let (m, n) = (64, 16);
        let params = CfrParams::validated(n, 2, 4, 1).unwrap();
        let (q, r) = run_ca_cqr(shape, m, n, 35, params, 0.0);
        let a = well_conditioned(m, n, 35);
        assert!(orthogonality_error(q.as_ref()) < 1e-12);
        assert!(residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-12);
    }
}
