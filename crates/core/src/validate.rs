//! Whole-pipeline drivers (the **expert layer**): run a distributed
//! factorization on the simulator from a global input matrix, assert the
//! replication invariants, reassemble the global `Q`/`R`, and return the
//! cost report.
//!
//! Most callers should use the [`crate::driver`] facade instead: build a
//! [`crate::driver::QrPlan`] once and call
//! [`factor`](crate::driver::QrPlan::factor) per matrix. The functions here
//! are the layer underneath — they skip the facade's validation (invalid
//! grid/shape combinations `assert!` rather than returning typed errors)
//! and expose exactly one algorithm each, which is what the cost-model
//! cross-validation binaries need when they measure a single schedule under
//! a unit machine.
//!
//! # Workspace pooling
//!
//! Each driver takes a [`WorkspacePool`]: every simulated rank checks an
//! arena out for its SPMD body, and after reassembly the driver recycles
//! the (workspace-backed) per-rank `Q`/`R` pieces back into the pool. Run
//! the same driver repeatedly against one pool — which is exactly what
//! [`QrPlan::factor`](crate::driver::QrPlan::factor) does with the pool the
//! plan owns — and the steady state performs **zero arena allocations**:
//! every Gram matrix, broadcast buffer, quadrant copy, and output piece is
//! served from storage warmed up by the first call.

use crate::cacqr2::{ca_cqr2, CaCqr2Output};
use crate::cacqr3::ca_cqr3;
use crate::config::CfrParams;
use dense::cholesky::CholeskyError;
use dense::{BackendKind, Matrix, Workspace, WorkspacePool};
use pargrid::{DistMatrix, GridShape, TunableComms};
use simgrid::{run_spmd_pooled, Rank, SimConfig};

/// Per-rank body of one CA-family algorithm, as consumed by
/// [`run_ca_family`]: `(rank, comms, a_local, m, n, params, ws) → output`.
type CaAlgorithm = fn(
    &mut Rank,
    &TunableComms,
    &Matrix,
    usize,
    usize,
    &CfrParams,
    &mut Workspace,
) -> Result<CaCqr2Output, CholeskyError>;

/// A completed distributed QR run with global factors and cost accounting —
/// the same struct every global driver returns, the baseline's included.
pub type QrRun = baseline::PgeqrfRun;

/// Runs CA-CQR2 on the simulator for a global input `a`, asserting the
/// replication invariants (identical pieces across depth layers and across
/// subcubes) and reassembling the global factors. Scratch (and the per-rank
/// output pieces) cycle through `pool`; pass a fresh
/// [`WorkspacePool::new()`] for one-off runs or a long-lived pool to make
/// repeated runs allocation-free.
///
/// The `cfg` chooses both the machine model *and* the execution backend
/// ([`SimConfig::on_runtime`]): the same per-rank bodies run over simulated
/// mailboxes or over pinned shared-memory threads.
///
/// # Examples
///
/// ```
/// use cacqr::{validate::run_cacqr2_global, CfrParams};
/// use dense::WorkspacePool;
/// use pargrid::GridShape;
/// use simgrid::SimConfig;
///
/// let a = dense::random::well_conditioned(64, 8, 1);
/// let shape = GridShape::new(2, 4).unwrap(); // c=2, d=4: P = 16 ranks
/// let pool = WorkspacePool::new();
/// let run = run_cacqr2_global(&a, shape, CfrParams::default_for(8, 2), SimConfig::default(), &pool).unwrap();
/// assert!(dense::norms::orthogonality_error(run.q.as_ref()) < 1e-12);
/// assert!(dense::norms::residual_error(a.as_ref(), run.q.as_ref(), run.r.as_ref()) < 1e-12);
/// ```
pub fn run_cacqr2_global(
    a: &Matrix,
    shape: GridShape,
    params: CfrParams,
    cfg: SimConfig,
    pool: &WorkspacePool,
) -> Result<QrRun, CholeskyError> {
    run_ca_family(
        a,
        shape,
        params,
        cfg,
        pool,
        |rank, comms, a_local, _m, n, params, ws| ca_cqr2(rank, comms, a_local, n, params, ws),
    )
}

/// Runs shifted CA-CQR3 (unconditionally stable for numerically full-rank
/// input) on the simulator and reassembles the factors. Same distribution,
/// invariants, and pooling as [`run_cacqr2_global`].
pub fn run_cacqr3_global(
    a: &Matrix,
    shape: GridShape,
    params: CfrParams,
    cfg: SimConfig,
    pool: &WorkspacePool,
) -> Result<QrRun, CholeskyError> {
    run_ca_family(a, shape, params, cfg, pool, ca_cqr3)
}

/// Shared driver for the CA family (Algorithms 8–9 and the shifted-CQR3
/// extension): scatter cyclically over the `c × d × c` grid, run `alg` on
/// every rank, check replication, reassemble, and return the per-rank
/// pieces' storage to the pool.
fn run_ca_family(
    a: &Matrix,
    shape: GridShape,
    params: CfrParams,
    cfg: SimConfig,
    pool: &WorkspacePool,
    alg: CaAlgorithm,
) -> Result<QrRun, CholeskyError> {
    let (m, n) = (a.rows(), a.cols());
    let (c, d) = (shape.c, shape.d);
    assert_eq!(m % d, 0, "the CA family requires d | m (m={m}, d={d})");
    assert_eq!(n % c, 0, "the CA family requires c | n (n={n}, c={c})");
    let report = run_spmd_pooled(shape.p(), cfg, pool, |rank| {
        let comms = TunableComms::build(rank, shape);
        let (x, y, z) = comms.coords;
        let id = rank.id();
        let mut ws = pool.checkout_at(id);
        let al = DistMatrix::local_from_global(a, d, c, y, x, &mut ws);
        let result = alg(rank, &comms, &al, m, n, &params, &mut ws);
        ws.recycle(al);
        match result {
            Ok(out) => Ok((id, x, y, z, out.q_local, out.r_local)),
            Err(e) => Err(e),
        }
    });

    let mut results = Vec::with_capacity(report.results.len());
    for res in report.results {
        match res {
            Ok(t) => results.push(t),
            Err(e) => return Err(e),
        }
    }
    // Move the representative pieces (z = 0; first subcube for R) into the
    // assembly grids, deferring the duplicates; then check every duplicate
    // against its representative by direct grid indexing (O(1) per piece,
    // no clones) and recycle its storage into its *producer's* pool slot —
    // that keeps each rank arena's inventory balanced call to call.
    let mut qp: Vec<Vec<Matrix>> = (0..d).map(|_| (0..c).map(|_| Matrix::zeros(0, 0)).collect()).collect();
    let mut rp: Vec<Vec<Matrix>> = (0..c).map(|_| (0..c).map(|_| Matrix::zeros(0, 0)).collect()).collect();
    let mut owner_q: Vec<Vec<usize>> = (0..d).map(|_| vec![0; c]).collect();
    let mut owner_r: Vec<Vec<usize>> = (0..c).map(|_| vec![0; c]).collect();
    let mut duplicates = Vec::with_capacity(results.len());
    for (id, x, y, z, q, r) in results {
        if z == 0 {
            let prev = std::mem::replace(&mut qp[y][x], q);
            debug_assert_eq!(prev.rows(), 0);
            owner_q[y][x] = id;
            if y < c {
                rp[y][x] = r;
                owner_r[y][x] = id;
            } else {
                duplicates.push((id, x, y, None, Some(r)));
            }
        } else {
            duplicates.push((id, x, y, Some(q), Some(r)));
        }
    }
    for (id, x, y, q, r) in duplicates {
        let mut ws = pool.checkout_at(id);
        if let Some(q) = q {
            assert_eq!(q, qp[y][x], "Q pieces must be replicated across depth");
            ws.recycle(q);
        }
        if let Some(r) = r {
            assert_eq!(r, rp[y % c][x], "R pieces must be replicated across depth and subcubes");
            ws.recycle(r);
        }
    }
    let q = DistMatrix::assemble(m, n, d, c, &qp);
    let r = DistMatrix::assemble(n, n, c, c, &rp);
    for (piece, id) in qp.into_iter().flatten().zip(owner_q.into_iter().flatten()) {
        pool.checkout_at(id).recycle(piece);
    }
    for (piece, id) in rp.into_iter().flatten().zip(owner_r.into_iter().flatten()) {
        pool.checkout_at(id).recycle(piece);
    }
    Ok(QrRun {
        q,
        r,
        elapsed: report.elapsed,
        wall_seconds: report.wall_seconds,
        ledgers: report.ledgers,
    })
}

/// Runs 1D-CQR2 (Algorithm 7) on the simulator and reassembles the factors.
/// Local kernels go through `backend`; scratch and the per-rank `Q` pieces
/// cycle through `pool` (see [`run_cacqr2_global`]).
pub fn run_cqr2_1d_global(
    a: &Matrix,
    p: usize,
    backend: BackendKind,
    cfg: SimConfig,
    pool: &WorkspacePool,
) -> Result<QrRun, CholeskyError> {
    let (m, n) = (a.rows(), a.cols());
    assert_eq!(m % p, 0, "1D-CQR2 requires p | m");
    let report = run_spmd_pooled(p, cfg, pool, |rank| {
        let world = rank.world();
        let mut ws = pool.checkout_at(rank.id());
        let al = DistMatrix::local_from_global(a, p, 1, rank.id(), 0, &mut ws);
        let result = crate::cqr1d::cqr2_1d(rank, &world, &al, backend, &mut ws);
        ws.recycle(al);
        result.map(|(q, r)| (rank.id(), q, r))
    });
    let mut pieces: Vec<Vec<Matrix>> = (0..p).map(|_| vec![Matrix::zeros(0, 0)]).collect();
    let mut r0: Option<Matrix> = None;
    for res in report.results {
        let (id, q, r) = res?;
        pieces[id][0] = q;
        match &r0 {
            // R is a plain allocation (it escapes into the report), so the
            // duplicates are dropped rather than recycled.
            None => r0 = Some(r),
            Some(existing) => assert_eq!(r, *existing, "R must be replicated"),
        }
    }
    let q = DistMatrix::assemble(m, n, p, 1, &pieces);
    for (id, piece) in pieces.into_iter().enumerate() {
        let mut ws = pool.checkout_at(id);
        for p in piece {
            ws.recycle(p);
        }
    }
    Ok(QrRun {
        q,
        r: r0.unwrap(),
        elapsed: report.elapsed,
        wall_seconds: report.wall_seconds,
        ledgers: report.ledgers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::norms::{orthogonality_error, residual_error};
    use dense::random::{matrix_with_condition, well_conditioned};
    use simgrid::Machine;

    #[test]
    fn driver_runs_and_reports_costs() {
        let a = well_conditioned(32, 8, 17);
        let shape = GridShape::new(2, 4).unwrap();
        let params = CfrParams::validated(8, 2, 4, 0).unwrap();
        let run = run_cacqr2_global(
            &a,
            shape,
            params,
            SimConfig::with_machine(Machine::stampede2(64)),
            &WorkspacePool::new(),
        )
        .unwrap();
        assert!(orthogonality_error(run.q.as_ref()) < 1e-12);
        assert!(residual_error(a.as_ref(), run.q.as_ref(), run.r.as_ref()) < 1e-12);
        assert!(run.elapsed > 0.0, "a real machine model must yield positive time");
        assert_eq!(run.ledgers.len(), 16);
        assert!(run.ledgers.iter().all(|l| l.flops > 0.0));
    }

    #[test]
    fn one_d_driver_matches_ca_driver_with_c1() {
        let a = well_conditioned(24, 8, 19);
        let pool = WorkspacePool::new();
        let run1 = run_cqr2_1d_global(&a, 4, BackendKind::default_kind(), SimConfig::default(), &pool).unwrap();
        let shape = GridShape::one_d(4).unwrap();
        let run2 = run_cacqr2_global(&a, shape, CfrParams::default_for(8, 1), SimConfig::default(), &pool).unwrap();
        assert_eq!(
            run1.q, run2.q,
            "bitwise agreement between Algorithm 7 and Algorithm 9 with c=1"
        );
        assert_eq!(run1.r, run2.r);
    }

    #[test]
    fn cacqr3_driver_survives_ill_conditioning() {
        let a = matrix_with_condition(64, 8, 1e12, 91);
        let shape = GridShape::new(2, 4).unwrap();
        let run = run_cacqr3_global(
            &a,
            shape,
            CfrParams::default_for(8, 2),
            SimConfig::default(),
            &WorkspacePool::new(),
        )
        .unwrap();
        assert!(orthogonality_error(run.q.as_ref()) < 1e-12);
        assert!(residual_error(a.as_ref(), run.q.as_ref(), run.r.as_ref()) < 1e-10);
    }

    #[test]
    fn failed_runs_stay_arena_balanced() {
        // Cholesky failure is how ill-conditioning reports — the shifted-
        // CQR3 retry loop hits it on every hard input — so the error paths
        // must recycle their outstanding takes too: repeated *failing*
        // factors may not grow the pool once warm.
        let a = matrix_with_condition(64, 8, 1e12, 41);
        let shape = GridShape::new(2, 4).unwrap();
        let params = CfrParams::validated(8, 2, 4, 0).unwrap();
        let pool = WorkspacePool::new();
        let mut baseline = 0;
        for round in 0..10 {
            assert!(
                run_cacqr2_global(&a, shape, params, SimConfig::default(), &pool).is_err(),
                "κ=1e12 must fail"
            );
            let now = pool.heap_allocations();
            if round > 0 && now == baseline {
                break;
            }
            assert!(round < 9, "failing-run inventory must converge");
            baseline = now;
        }
        for _ in 0..3 {
            let _ = run_cacqr2_global(&a, shape, params, SimConfig::default(), &pool);
        }
        assert_eq!(
            pool.heap_allocations(),
            baseline,
            "failed factorizations must not leak arena inventory"
        );
    }

    #[test]
    fn repeated_runs_through_one_pool_stop_allocating() {
        let a = well_conditioned(32, 8, 23);
        let shape = GridShape::new(2, 4).unwrap();
        let params = CfrParams::validated(8, 2, 4, 0).unwrap();
        let pool = WorkspacePool::new();
        // Warm until the arena inventory settles: best-fit reuse can convert
        // a bounded number of buffers to larger size classes before every
        // take is served warm.
        let warm = run_cacqr2_global(&a, shape, params, SimConfig::default(), &pool).unwrap();
        let mut baseline = pool.heap_allocations();
        for round in 0..10 {
            let _ = run_cacqr2_global(&a, shape, params, SimConfig::default(), &pool).unwrap();
            let _ = run_cqr2_1d_global(&a, 4, BackendKind::default_kind(), SimConfig::default(), &pool).unwrap();
            let now = pool.heap_allocations();
            if round > 0 && now == baseline {
                break;
            }
            assert!(round < 9, "arena inventory must converge");
            baseline = now;
        }
        let arenas = pool.arenas();
        for _ in 0..3 {
            let run = run_cacqr2_global(&a, shape, params, SimConfig::default(), &pool).unwrap();
            assert_eq!(run.q, warm.q, "pooling must not change results");
            let _ = run_cqr2_1d_global(&a, 4, BackendKind::default_kind(), SimConfig::default(), &pool).unwrap();
        }
        assert_eq!(
            pool.heap_allocations(),
            baseline,
            "steady-state factorizations must perform zero arena allocations"
        );
        assert_eq!(pool.arenas(), arenas, "no new arenas in steady state");
    }
}
