//! Algorithm 1: `MM3D` — 3D matrix multiplication with slice-replicated
//! output.
//!
//! All operands live on a `c × c × c` cube: an `m × n` operand is replicated
//! on every 2D slice `Π[:, :, z]`, and each processor `(x, ŷ, z)` owns the
//! cyclic piece with (cube-local) rows `≡ ŷ` and columns `≡ x (mod c)`. The
//! schedule is the paper's customized 3D SUMMA:
//!
//! 1. `Bcast(Π⟨A⟩, Π⟨X⟩, z, Π[:, ŷ, z])` — slice `z` receives the pieces of
//!    `A`'s `z`-th cyclic column class,
//! 2. `Bcast(Π⟨B⟩, Π⟨Y⟩, z, Π[x, :, z])` — and of `B`'s `z`-th cyclic row
//!    class,
//! 3. local `Z = X·Y` — the partial product over contraction indices
//!    `≡ z (mod c)`,
//! 4. `Allreduce(Π⟨Z⟩, Π⟨C⟩, Π[x, ŷ, :])` — depth reduction, leaving `C`
//!    replicated on every slice with the same distribution as `A`.
//!
//! Unlike standard 3D SUMMA, the row partition of `A` (and hence `C`) can be
//! *any* equal-size partition indexed by `ŷ` — in CA-CQR2 the subcube's rows
//! are a stride-`d` subset of the global matrix. Only the contraction
//! dimension must be cyclic over `c`.
//!
//! Cost per rank (l_r × l_k local `A`, l_k × l_c local `B`):
//! `2·log₂c·α + 2(l_r·l_k)(1−1/c)β` (row bcast) + the symmetric column
//! bcast, `2·log₂c·α + 2(l_r·l_c)(1−1/c)β + (l_r·l_c)(1−1/c)γ` (depth
//! allreduce), and `2·l_r·l_k·l_c·γ` local compute — Table I's
//! `(mn + nk + mk)/P^{2/3}·β + (mnk/P)·γ` with `log P · α`.
//!
//! # Workspace contract
//!
//! Every function here takes `ws: &mut Workspace` and draws its broadcast
//! buffers and the partial-product block from it; the **returned matrix is
//! workspace-backed** — the caller must either recycle it into the same
//! pool when it dies or knowingly let it escape (the global drivers recycle
//! rank outputs after assembly). After one warm call per shape, these
//! functions perform zero arena allocations.

use dense::{BackendKind, MatRef, Matrix, Workspace};
use pargrid::CubeComms;
use simgrid::Rank;

/// `C = A·B` over the cube (see module docs). `a` and `b` are this rank's
/// local pieces; the returned matrix is this rank's piece of `C`,
/// workspace-backed. Local arithmetic goes through the given kernel backend
/// (pass [`BackendKind::default_kind`] for the default).
pub fn mm3d(
    rank: &mut Rank,
    cube: &CubeComms,
    a: &Matrix,
    b: &Matrix,
    backend: BackendKind,
    ws: &mut Workspace,
) -> Matrix {
    mm3d_scaled(rank, cube, 1.0, a.as_ref(), b, backend, ws)
}

/// `C = alpha·A·B` over the cube. The backend changes only local
/// arithmetic: the collective schedule and the `2·l_r·l_k·l_c` flops
/// charged to the γ ledger are identical for every backend. `a` may be any
/// view — its first use is the copy into the row-broadcast buffer.
pub fn mm3d_scaled(
    rank: &mut Rank,
    cube: &CubeComms,
    alpha: f64,
    a: MatRef<'_>,
    b: &Matrix,
    backend: BackendKind,
    ws: &mut Workspace,
) -> Matrix {
    let (_x, _yh, z) = cube.coords;
    let (lr, lk) = (a.rows(), a.cols());
    let (lkb, lc) = (b.rows(), b.cols());
    assert_eq!(lk, lkb, "mm3d: local contraction dimensions must agree (cyclic over c)");

    // Step 1: broadcast A pieces along rows from the member with x == z.
    let mut xm = ws.take_copy(a);
    cube.row.bcast(rank, z, xm.data_mut());
    // Step 2: broadcast B pieces along columns from the member with ŷ == z.
    let mut ybuf = ws.take_vec(lk * lc);
    ybuf.copy_from_slice(b.data());
    cube.col.bcast(rank, z, &mut ybuf);

    let ym = Matrix::from_vec(lk, lc, ybuf);

    // Step 3: local partial product (β = 0 overwrites the stale contents).
    let mut zm = ws.take_matrix_stale(lr, lc);
    use dense::gemm::Trans;
    backend
        .get()
        .gemm(alpha, xm.as_ref(), Trans::No, ym.as_ref(), Trans::No, 0.0, zm.as_mut());
    rank.charge_flops(dense::flops::gemm(lr, lk, lc));
    ws.recycle(xm);
    ws.recycle(ym);

    // Step 4: sum partial products along the depth fiber.
    let mut cbuf = zm.into_vec();
    cube.depth.allreduce(rank, &mut cbuf);
    Matrix::from_vec(lr, lc, cbuf)
}

/// Global transpose of a square cyclically distributed matrix: processor
/// `(x, ŷ, z)` swaps its local block with `(ŷ, x, z)` (paper's `Transpose`
/// primitive, §II-B) and transposes it locally. Cost: `α + l_r·l_c·β` for
/// off-diagonal ranks, free on the diagonal. The returned matrix is
/// workspace-backed.
pub fn transpose_cube(rank: &mut Rank, cube: &CubeComms, m: &Matrix, ws: &mut Workspace) -> Matrix {
    assert_eq!(
        m.rows(),
        m.cols(),
        "transpose_cube handles square cyclic blocks (square global matrices)"
    );
    let (x, yh, _z) = cube.coords;
    let partner = cube.slice_index(yh, x); // slice index of (x', ŷ') = (ŷ, x)
    let swapped = cube.slice.sendrecv(rank, partner, m.data());
    let n = m.rows();
    let mut out = ws.take_matrix_stale(n, n);
    out.as_mut().copy_transposed_from(MatRef::from_slice(&swapped, n, n));
    rank.recycle_comm(swapped);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::gemm::{matmul, Trans};
    use pargrid::DistMatrix;
    use simgrid::{run_spmd, Machine, SimConfig};

    /// Runs mm3d on a cube of edge `c` for global `A (m×n) · B (n×k)` and
    /// reassembles the result.
    fn run_mm3d_global(c: usize, a: &Matrix, b: &Matrix) -> (Matrix, f64, f64) {
        let (m, n) = (a.rows(), a.cols());
        let k = b.cols();
        let p = c * c * c;
        let a = a.clone();
        let b = b.clone();
        // α-cost run for the cost check; the data path is identical.
        let report = run_spmd(p, SimConfig::with_machine(Machine::alpha_only()), move |rank| {
            let shape = pargrid::GridShape::cubic(c).unwrap();
            let comms = pargrid::TunableComms::build(rank, shape);
            let cube = &comms.subcube;
            let (x, yh, _z) = cube.coords;
            let mut ws = Workspace::new();
            let al = DistMatrix::from_global(&a, c, c, yh, x);
            let bl = DistMatrix::from_global(&b, c, c, yh, x);
            let cl = mm3d(rank, cube, &al.local, &bl.local, BackendKind::default_kind(), &mut ws);
            (x, yh, cube.coords.2, cl)
        });
        let mut pieces: Vec<Vec<Matrix>> = (0..c).map(|_| (0..c).map(|_| Matrix::zeros(0, 0)).collect()).collect();
        for (x, yh, z, cl) in &report.results {
            if *z == 0 {
                pieces[*yh][*x] = cl.clone();
            } else {
                // Replication check: every depth layer holds the same C.
                assert_eq!(*cl, pieces[*yh][*x]);
            }
        }
        let assembled = DistMatrix::assemble(m, k, c, c, &pieces);
        (assembled, report.elapsed, n as f64)
    }

    #[test]
    fn mm3d_matches_sequential_c2() {
        let a = Matrix::from_fn(8, 8, |i, j| ((i * 8 + j) as f64 * 0.3).sin());
        let b = Matrix::from_fn(8, 8, |i, j| ((i + 2 * j) as f64 * 0.1).cos());
        let (c3d, alpha_cost, _) = run_mm3d_global(2, &a, &b);
        let reference = matmul(a.as_ref(), Trans::No, b.as_ref(), Trans::No);
        for (u, v) in c3d.data().iter().zip(reference.data()) {
            assert!((u - v).abs() < 1e-12);
        }
        // α cost: two bcasts (2·log c each) + allreduce (2·log c) = 6·log₂c.
        assert_eq!(alpha_cost, 6.0);
    }

    #[test]
    fn mm3d_matches_sequential_c4_rectangular() {
        let a = Matrix::from_fn(16, 8, |i, j| (i as f64 - j as f64) * 0.05 + 1.0);
        let b = Matrix::from_fn(8, 12, |i, j| ((i * 12 + j) as f64).sqrt());
        let (c3d, alpha_cost, _) = run_mm3d_global(4, &a, &b);
        let reference = matmul(a.as_ref(), Trans::No, b.as_ref(), Trans::No);
        for (u, v) in c3d.data().iter().zip(reference.data()) {
            assert!((u - v).abs() < 1e-11);
        }
        assert_eq!(alpha_cost, 12.0); // 6·log₂4
    }

    #[test]
    fn mm3d_trivial_cube() {
        // c = 1: mm3d degenerates to a local gemm.
        let a = Matrix::from_fn(4, 4, |i, j| (i + j) as f64);
        let b = Matrix::identity(4);
        let (c3d, alpha_cost, _) = run_mm3d_global(1, &a, &b);
        assert_eq!(c3d, a);
        assert_eq!(alpha_cost, 0.0);
    }

    #[test]
    fn mm3d_scaled_negates() {
        let a = Matrix::identity(4);
        let b = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let b2 = b.clone();
        let report = run_spmd(8, SimConfig::default(), move |rank| {
            let shape = pargrid::GridShape::cubic(2).unwrap();
            let comms = pargrid::TunableComms::build(rank, shape);
            let cube = &comms.subcube;
            let (x, yh, _) = cube.coords;
            let mut ws = Workspace::new();
            let al = DistMatrix::from_global(&a, 2, 2, yh, x);
            let bl = DistMatrix::from_global(&b, 2, 2, yh, x);
            mm3d_scaled(
                rank,
                cube,
                -1.0,
                al.local.as_ref(),
                &bl.local,
                BackendKind::default_kind(),
                &mut ws,
            )
        });
        // piece (0,0) of -(I·B) = -B: entries (0,0), (0,2), (2,0), (2,2).
        let p00 = &report.results[0];
        assert_eq!(p00.get(0, 0), -b2.get(0, 0));
        assert_eq!(p00.get(1, 1), -b2.get(2, 2));
    }

    #[test]
    fn transpose_cube_round_trip() {
        let g = Matrix::from_fn(8, 8, |i, j| (i * 8 + j) as f64);
        let g2 = g.clone();
        let report = run_spmd(8, SimConfig::default(), move |rank| {
            let shape = pargrid::GridShape::cubic(2).unwrap();
            let comms = pargrid::TunableComms::build(rank, shape);
            let cube = &comms.subcube;
            let (x, yh, _) = cube.coords;
            let mut ws = Workspace::new();
            let local = DistMatrix::from_global(&g, 2, 2, yh, x);
            let t = transpose_cube(rank, cube, &local.local, &mut ws);
            let tt = transpose_cube(rank, cube, &t, &mut ws);
            (x, yh, t, tt, local.local)
        });
        for (x, yh, t, tt, orig) in &report.results {
            // T's local piece must equal the global transpose's cyclic piece.
            let expect = DistMatrix::from_global(&g2.transposed(), 2, 2, *yh, *x);
            assert_eq!(*t, expect.local);
            assert_eq!(*tt, *orig, "double transpose is identity");
        }
    }

    #[test]
    fn mm3d_reaches_zero_arena_growth_when_warm() {
        let a = Matrix::from_fn(8, 8, |i, j| ((i * 8 + j) as f64 * 0.3).sin());
        let b = Matrix::from_fn(8, 8, |i, j| ((i + 2 * j) as f64 * 0.1).cos());
        let report = run_spmd(8, SimConfig::default(), move |rank| {
            let shape = pargrid::GridShape::cubic(2).unwrap();
            let comms = pargrid::TunableComms::build(rank, shape);
            let cube = &comms.subcube;
            let (x, yh, _) = cube.coords;
            let mut ws = Workspace::new();
            let al = DistMatrix::from_global(&a, 2, 2, yh, x);
            let bl = DistMatrix::from_global(&b, 2, 2, yh, x);
            let warm = mm3d(rank, cube, &al.local, &bl.local, BackendKind::default_kind(), &mut ws);
            ws.recycle(warm);
            let after_warm = ws.heap_allocations();
            for _ in 0..3 {
                let c = mm3d(rank, cube, &al.local, &bl.local, BackendKind::default_kind(), &mut ws);
                ws.recycle(c);
            }
            (after_warm, ws.heap_allocations())
        });
        for (warm, steady) in &report.results {
            assert_eq!(warm, steady, "warm mm3d must not grow its arena");
        }
    }
}
