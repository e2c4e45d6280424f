//! Algorithm 3: `CFR3D` — recursive 3D Cholesky factorization with
//! triangular inversion.
//!
//! Factors a symmetric positive definite `n × n` matrix `A` (cyclically
//! distributed over every slice of a `c × c × c` cube) into `A = LLᵀ` while
//! simultaneously computing `Y = L⁻¹` (possibly block-partially, per
//! [`crate::CfrParams::inverse_depth`]):
//!
//! ```text
//! L₁₁, Y₁₁ ← CFR3D(A₁₁)                    (recursion)
//! L₂₁    ← A₂₁·Y₁₁ᵀ                         (InvTree::apply_rinv → MM3D)
//! L₂₂, Y₂₂ ← CFR3D(A₂₂ − L₂₁·L₂₁ᵀ)          (Transpose + MM3D + axpy)
//! Y₂₁    ← −Y₂₂·(L₂₁·Y₁₁)                   (2×MM3D; skipped above InverseDepth)
//! ```
//!
//! At `n = n₀` the block is allgathered over each slice (`c²` processors)
//! and factored redundantly by every processor with the sequential `CholInv`
//! of Algorithm 2.
//!
//! Because the distribution is cyclic, each quadrant's local piece is a
//! contiguous quadrant of the local block, so recursion is pure view
//! arithmetic. Per-line costs are those of the paper's Table II with our
//! exact collective formulas; see `costmodel::cfr3d`.

use crate::config::CfrParams;
use crate::invtree::InvTree;
use crate::mm3d::{mm3d, mm3d_scaled, transpose_cube};
use dense::cholesky::CholeskyError;
use dense::{Matrix, Workspace};
use pargrid::CubeComms;
use simgrid::Rank;

/// Factors the SPD matrix whose local cyclic piece is `a_local` (an
/// `(n/c) × (n/c)` block). Returns this rank's piece of `L` and the inverse
/// tree — both **workspace-backed**: recycle `L` (and the tree, via
/// [`InvTree::recycle_into`]) when they die. Collective over the cube.
pub fn cfr3d(
    rank: &mut Rank,
    cube: &CubeComms,
    a_local: &Matrix,
    n: usize,
    params: &CfrParams,
    ws: &mut Workspace,
) -> Result<(Matrix, InvTree), CholeskyError> {
    let c = cube.c;
    assert!(n.is_power_of_two(), "CFR3D requires a power-of-two dimension (got {n})");
    assert_eq!(a_local.rows(), n / c, "local block must be (n/c) x (n/c)");
    assert_eq!(a_local.cols(), n / c, "local block must be (n/c) x (n/c)");
    assert!(
        params.base_size >= c,
        "base case must give every processor at least one entry"
    );
    recurse(rank, cube, a_local, n, 0, 0, params, ws)
}

#[allow(clippy::too_many_arguments)] // internal recursion carries its full context
fn recurse(
    rank: &mut Rank,
    cube: &CubeComms,
    a_local: &Matrix,
    n: usize,
    depth: usize,
    offset: usize,
    params: &CfrParams,
    ws: &mut Workspace,
) -> Result<(Matrix, InvTree), CholeskyError> {
    let c = cube.c;
    if n <= params.base_size {
        return base_case(rank, cube, a_local, n, offset, params.backend, ws);
    }
    let h = n / 2;
    let hl = h / c;

    let a11 = ws.take_copy(a_local.view(0, 0, hl, hl));
    let a21 = ws.take_copy(a_local.view(hl, 0, hl, hl));

    // L11, Y11 <- CFR3D(A11). Error paths recycle their outstanding takes
    // before propagating: a Cholesky failure is a *normal* outcome here
    // (ill-conditioned Gram matrices, the shifted-CQR3 retry loop), and the
    // zero-steady-state-allocation contract must survive it — every rank
    // fails the same collective, so the recycling is replicated too.
    let first = recurse(rank, cube, &a11, h, depth + 1, offset, params, ws);
    ws.recycle(a11);
    let (l11, inv11) = match first {
        Ok(v) => v,
        Err(e) => {
            ws.recycle(a21);
            return Err(e);
        }
    };

    // L21 <- A21 · Y11^T  (Transpose + MM3D for a Full inverse; recursive
    // block solve when the child is partially inverted).
    let l21 = inv11.apply_rinv(rank, cube, a21.as_ref(), params.backend, ws);
    ws.recycle(a21);

    // Z <- A22 - L21·L21^T
    let l21t = transpose_cube(rank, cube, &l21, ws);
    let u = mm3d(rank, cube, &l21, &l21t, params.backend, ws);
    ws.recycle(l21t);
    let mut z = ws.take_copy(a_local.view(hl, hl, hl, hl));
    for (x, y) in z.data_mut().iter_mut().zip(u.data()) {
        *x -= y;
    }
    ws.recycle(u);
    rank.charge_flops(dense::flops::axpy(hl, hl));

    // L22, Y22 <- CFR3D(Z)
    let second = recurse(rank, cube, &z, h, depth + 1, offset + h, params, ws);
    ws.recycle(z);
    let (l22, inv22) = match second {
        Ok(v) => v,
        Err(e) => {
            ws.recycle(l11);
            ws.recycle(l21);
            inv11.recycle_into(ws);
            return Err(e);
        }
    };

    // Assemble L locally: [[L11, 0], [L21, L22]].
    let mut l_local = ws.take_matrix(2 * hl, 2 * hl);
    l_local.view_mut(0, 0, hl, hl).copy_from(l11.as_ref());
    l_local.view_mut(hl, 0, hl, hl).copy_from(l21.as_ref());
    l_local.view_mut(hl, hl, hl, hl).copy_from(l22.as_ref());
    ws.recycle(l11);
    ws.recycle(l22);

    // Inverse: form Y21 only below the InverseDepth horizon.
    let inv = if depth < params.inverse_depth {
        InvTree::Split {
            dim: n,
            y11: Box::new(inv11),
            y22: Box::new(inv22),
            l21,
        }
    } else {
        // Take the children's inverses by value — the trees are dead after
        // this merge, so their storage moves instead of being cloned.
        let y11 = match inv11 {
            InvTree::Full { y, .. } => y,
            InvTree::Split { .. } => unreachable!("children below InverseDepth are fully inverted"),
        };
        let y22 = match inv22 {
            InvTree::Full { y, .. } => y,
            InvTree::Split { .. } => unreachable!("children below InverseDepth are fully inverted"),
        };
        // Y21 = -Y22·(L21·Y11)
        let t = mm3d(rank, cube, &l21, &y11, params.backend, ws);
        let y21 = mm3d_scaled(rank, cube, -1.0, y22.as_ref(), &t, params.backend, ws);
        ws.recycle(t);
        let mut y_local = ws.take_matrix(2 * hl, 2 * hl);
        y_local.view_mut(0, 0, hl, hl).copy_from(y11.as_ref());
        y_local.view_mut(hl, 0, hl, hl).copy_from(y21.as_ref());
        y_local.view_mut(hl, hl, hl, hl).copy_from(y22.as_ref());
        ws.recycle(y11);
        ws.recycle(y21);
        ws.recycle(y22);
        ws.recycle(l21);
        InvTree::Full { dim: n, y: y_local }
    };

    Ok((l_local, inv))
}

/// Base case: allgather the `n₀ × n₀` block over the slice and factor it
/// redundantly with the sequential CholInv (Algorithm 2).
fn base_case(
    rank: &mut Rank,
    cube: &CubeComms,
    a_local: &Matrix,
    n: usize,
    offset: usize,
    backend: dense::BackendKind,
    ws: &mut Workspace,
) -> Result<(Matrix, InvTree), CholeskyError> {
    let c = cube.c;
    let lb = n / c;
    let gathered = cube.slice.allgather(rank, a_local.data());
    // Reassemble: slice member (ŷ'·c + x') contributed the piece with rows
    // ≡ ŷ' and columns ≡ x' (mod c).
    let mut full = ws.take_matrix_stale(n, n);
    let windows = pargrid::CyclicWindows::split(full.data_mut(), n, n, c, c);
    for (idx, piece) in gathered.chunks_exact(lb * lb).enumerate() {
        windows
            .take(idx / c, idx % c)
            .deposit(dense::MatRef::from_slice(piece, lb, lb));
    }
    drop(windows);
    rank.recycle_comm(gathered);
    // CholInv's factors are transient here: only the cyclic pieces survive.
    let (mut l, mut y) = (ws.take_matrix_stale(n, n), ws.take_matrix_stale(n, n));
    let factored = dense::cholesky::cholinv(full.as_ref(), l.as_mut(), y.as_mut(), backend.get(), ws);
    ws.recycle(full);
    let (x, yh, _z) = cube.coords;
    let pieces = factored.map(|()| {
        (
            pargrid::DistMatrix::local_from_global(&l, c, c, yh, x, ws),
            pargrid::DistMatrix::local_from_global(&y, c, c, yh, x, ws),
        )
    });
    ws.recycle(l);
    ws.recycle(y);
    let (l_local, y_local) = pieces.map_err(|e| CholeskyError {
        index: offset + e.index,
        pivot: e.pivot,
    })?;
    rank.charge_flops(dense::flops::cholinv(n));
    Ok((l_local, InvTree::Full { dim: n, y: y_local }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gemm::{matmul, Trans};
    use dense::norms::{frobenius, max_abs};
    use dense::BackendKind;
    use pargrid::{DistMatrix, GridShape, TunableComms};
    use simgrid::{run_spmd, SimConfig};

    /// Materializes the full explicit inverse `Y` (local piece) from `inv`,
    /// forming the missing `Y₂₁ = −Y₂₂·L₂₁·Y₁₁` blocks with MM3D. Collective
    /// over the cube; the returned matrix is a plain allocation.
    fn densify(inv: &InvTree, rank: &mut Rank, cube: &CubeComms, backend: BackendKind, ws: &mut Workspace) -> Matrix {
        match inv {
            InvTree::Full { y, .. } => y.clone(),
            InvTree::Split { y11, y22, l21, .. } => {
                let y11d = densify(y11, rank, cube, backend, ws);
                let y22d = densify(y22, rank, cube, backend, ws);
                let t = mm3d(rank, cube, l21, &y11d, backend, ws);
                let y21 = mm3d_scaled(rank, cube, -1.0, y22d.as_ref(), &t, backend, ws);
                ws.recycle(t);
                let hl = y11d.rows();
                let mut out = Matrix::zeros(2 * hl, 2 * y11d.cols());
                out.view_mut(0, 0, hl, y11d.cols()).copy_from(y11d.as_ref());
                out.view_mut(hl, 0, hl, y21.cols()).copy_from(y21.as_ref());
                out.view_mut(hl, y11d.cols(), hl, y22d.cols()).copy_from(y22d.as_ref());
                ws.recycle(y21);
                out
            }
        }
    }

    /// A well-conditioned SPD test matrix.
    fn spd(n: usize) -> Matrix {
        let a = Matrix::from_fn(n, n, |i, j| ((i * n + j) as f64 * 0.37).sin());
        let mut s = dense::syrk(a.as_ref());
        for i in 0..n {
            let v = s.get(i, i);
            s.set(i, i, v + 2.0 * n as f64);
        }
        s
    }

    fn run_cfr3d_global(c: usize, n: usize, params: CfrParams) -> (Matrix, Matrix) {
        let a = spd(n);
        let a2 = a.clone();
        let p = c * c * c;
        let report = run_spmd(p, SimConfig::default(), move |rank| {
            let shape = GridShape::cubic(c).unwrap();
            let comms = TunableComms::build(rank, shape);
            let cube = &comms.subcube;
            let (x, yh, z) = cube.coords;
            let mut ws = dense::Workspace::new();
            let al = DistMatrix::from_global(&a2, c, c, yh, x);
            let (l, inv) = cfr3d(rank, cube, &al.local, n, &params, &mut ws).expect("SPD input must factor");
            let y = densify(&inv, rank, cube, BackendKind::default_kind(), &mut ws);
            inv.recycle_into(&mut ws);
            (x, yh, z, l, y)
        });
        let mut lp: Vec<Vec<Matrix>> = (0..c).map(|_| (0..c).map(|_| Matrix::zeros(0, 0)).collect()).collect();
        let mut yp = lp.clone();
        for (x, yh, z, l, y) in &report.results {
            if *z == 0 {
                lp[*yh][*x] = l.clone();
                yp[*yh][*x] = y.clone();
            } else {
                assert_eq!(*l, lp[*yh][*x], "L must be replicated across depth");
            }
        }
        (
            DistMatrix::assemble(n, n, c, c, &lp),
            DistMatrix::assemble(n, n, c, c, &yp),
        )
    }

    fn check_factorization(n: usize, a: &Matrix, l: &Matrix, y: &Matrix) {
        // A = L·Lᵀ
        let llt = matmul(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
        let mut d = a.clone();
        for (x, v) in d.data_mut().iter_mut().zip(llt.data()) {
            *x -= v;
        }
        assert!(
            frobenius(d.as_ref()) / frobenius(a.as_ref()) < 1e-12,
            "reconstruction error too large for n={n}"
        );
        // Y·L = I
        let mut yl = matmul(y.as_ref(), Trans::No, l.as_ref(), Trans::No);
        for i in 0..n {
            let v = yl.get(i, i);
            yl.set(i, i, v - 1.0);
        }
        assert!(max_abs(yl.as_ref()) < 1e-10, "inverse error too large for n={n}");
        // L strictly lower (upper part exactly zero).
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(l.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn cfr3d_c1_is_sequential() {
        let n = 32;
        let params = CfrParams::default_for(n, 1);
        let (l, y) = run_cfr3d_global(1, n, params);
        check_factorization(n, &spd(n), &l, &y);
    }

    #[test]
    fn cfr3d_c2_matches_sequential() {
        let n = 32;
        let params = CfrParams::validated(n, 2, 8, 0).unwrap();
        let (l, y) = run_cfr3d_global(2, n, params);
        check_factorization(n, &spd(n), &l, &y);

        // Cross-check against the sequential CholInv.
        let (lref, yref) = dense::cholinv(spd(n).as_ref()).unwrap();
        for (u, v) in l.data().iter().zip(lref.data()) {
            assert!((u - v).abs() < 1e-10);
        }
        for (u, v) in y.data().iter().zip(yref.data()) {
            assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn cfr3d_immediate_base_case() {
        // n == n₀: the whole factorization is one redundant base case.
        let n = 16;
        let params = CfrParams::validated(n, 2, 16, 0).unwrap();
        let (l, y) = run_cfr3d_global(2, n, params);
        check_factorization(n, &spd(n), &l, &y);
    }

    #[test]
    fn cfr3d_deep_recursion_small_base() {
        let n = 64;
        let params = CfrParams::validated(n, 2, 2, 0).unwrap();
        let (l, y) = run_cfr3d_global(2, n, params);
        check_factorization(n, &spd(n), &l, &y);
    }

    #[test]
    fn cfr3d_with_inverse_depth() {
        // InverseDepth > 0: same factorization, partially materialized Y;
        // densify must still produce the exact inverse.
        let n = 64;
        for inv_depth in [1usize, 2] {
            let params = CfrParams::validated(n, 2, 8, inv_depth).unwrap();
            let (l, y) = run_cfr3d_global(2, n, params);
            check_factorization(n, &spd(n), &l, &y);
        }
    }

    #[test]
    fn cfr3d_c4() {
        let n = 64;
        let params = CfrParams::default_for(n, 4); // n₀ = 4
        let (l, y) = run_cfr3d_global(4, n, params);
        check_factorization(n, &spd(n), &l, &y);
    }

    #[test]
    fn cfr3d_detects_indefinite() {
        let n = 16;
        let c = 2;
        let report = run_spmd(8, SimConfig::default(), move |rank| {
            let shape = GridShape::cubic(c).unwrap();
            let comms = TunableComms::build(rank, shape);
            let cube = &comms.subcube;
            let (x, yh, _z) = cube.coords;
            let mut bad = Matrix::identity(n);
            bad.set(11, 11, -3.0); // indefinite pivot deep in the matrix
            let al = DistMatrix::from_global(&bad, c, c, yh, x);
            let params = CfrParams::validated(n, c, 4, 0).unwrap();
            let mut ws = dense::Workspace::new();
            cfr3d(rank, cube, &al.local, n, &params, &mut ws).err().map(|e| e.index)
        });
        for r in report.results {
            assert_eq!(r, Some(11), "every rank must report the global pivot index");
        }
    }
}
