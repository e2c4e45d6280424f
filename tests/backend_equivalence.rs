//! Backend-invariance contract: swapping the node-local kernel backend
//! (`Naive` oracle vs `Blocked`) must leave every distributed algorithm's
//! *validation* unchanged — same residual/orthogonality quality, the same
//! factors up to kernel rounding — and must leave the α-β-γ cost ledgers
//! bitwise identical, because flop charges come from shape-based
//! conventions, never from kernel internals. Plans always run `Blocked`, so
//! these comparisons drive the expert layer, where the backend is an
//! argument.

use baseline::{run_pgeqrf_global, PgeqrfConfig};
use cacqr::validate::{run_cacqr2_global, run_cqr2_1d_global, QrRun};
use cacqr::CfrParams;
use dense::norms::{orthogonality_error, residual_error};
use dense::random::well_conditioned;
use dense::{BackendKind, Matrix, WorkspacePool};
use pargrid::{DistMatrix, GridShape, TunableComms};
use simgrid::{run_spmd, Machine, SimConfig};

/// Elementwise closeness for factors produced by different kernel backends
/// (same math, different rounding).
fn assert_factors_close(label: &str, a: &Matrix, b: &Matrix, tol: f64) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{label}: shape");
    for (x, y) in a.data().iter().zip(b.data()) {
        assert!((x - y).abs() <= tol * (1.0 + y.abs()), "{label}: {x} vs {y}");
    }
}

/// Runs `run` under each backend, checks each factorization, and checks
/// that the two agree up to kernel rounding with bitwise-equal cost
/// accounting: same messages, words, flops, and so the same simulated time.
fn assert_backend_invariant(what: &str, a: &Matrix, run: impl Fn(BackendKind) -> QrRun) {
    let runs: Vec<QrRun> = BackendKind::ALL
        .into_iter()
        .map(|kind| {
            let run = run(kind);
            assert!(
                orthogonality_error(run.q.as_ref()) < 1e-12,
                "{what} {kind}: orthogonality {:.2e}",
                orthogonality_error(run.q.as_ref())
            );
            assert!(
                residual_error(a.as_ref(), run.q.as_ref(), run.r.as_ref()) < 1e-12,
                "{what} {kind}: residual {:.2e}",
                residual_error(a.as_ref(), run.q.as_ref(), run.r.as_ref())
            );
            run
        })
        .collect();
    let (naive, blocked) = (&runs[0], &runs[1]);
    assert_factors_close(&format!("{what} Q across backends"), &blocked.q, &naive.q, 1e-10);
    assert_factors_close(&format!("{what} R across backends"), &blocked.r, &naive.r, 1e-10);
    assert_eq!(
        naive.ledgers, blocked.ledgers,
        "{what}: ledgers must not depend on the backend"
    );
    assert_eq!(
        naive.elapsed, blocked.elapsed,
        "{what}: virtual time must not depend on the backend"
    );
}

#[test]
fn cacqr2_validates_identically_under_both_backends() {
    let (m, n) = (64usize, 16usize);
    let a = well_conditioned(m, n, 123);
    let shape = GridShape::new(2, 4).unwrap();
    let cfg = SimConfig::with_machine(Machine::stampede2(64));
    let pool = WorkspacePool::new();
    assert_backend_invariant("CA-CQR2", &a, |kind| {
        let params = CfrParams {
            backend: kind,
            ..CfrParams::validated(n, 2, 4, 1).unwrap()
        };
        run_cacqr2_global(&a, shape, params, cfg, &pool).unwrap()
    });
    // Algorithm 7, the 1D row-block path a tall-skinny plan runs.
    assert_backend_invariant("1D-CQR2", &a, |kind| {
        run_cqr2_1d_global(&a, 4, kind, cfg, &pool).unwrap()
    });
}

#[test]
fn pgeqrf_validates_identically_under_both_backends() {
    let (m, n) = (64usize, 32usize);
    let a = well_conditioned(m, n, 55);
    let grid = baseline::BlockCyclic { pr: 4, pc: 2, nb: 8 };
    let cfg = SimConfig::with_machine(Machine::bluewaters(16));
    assert_backend_invariant("pgeqrf", &a, |backend| {
        run_pgeqrf_global(a.as_ref(), PgeqrfConfig { grid, backend }, cfg)
    });
}

#[test]
fn mm3d_validates_identically_under_both_backends() {
    let c = 2usize;
    let (m, k, n) = (16usize, 8usize, 12usize);
    let a = Matrix::from_fn(m, k, |i, j| ((i * k + j) as f64 * 0.29).sin());
    let b = Matrix::from_fn(k, n, |i, j| ((i + 3 * j) as f64 * 0.17).cos());
    let reference = dense::gemm::matmul(a.as_ref(), dense::gemm::Trans::No, b.as_ref(), dense::gemm::Trans::No);

    let mut outcomes = Vec::new();
    for kind in BackendKind::ALL {
        let (a, b) = (a.clone(), b.clone());
        let report = run_spmd(
            c * c * c,
            SimConfig::with_machine(Machine::stampede2(64)),
            move |rank| {
                let shape = GridShape::cubic(c).unwrap();
                let comms = TunableComms::build(rank, shape);
                let cube = &comms.subcube;
                let (x, yh, _z) = cube.coords;
                let al = DistMatrix::from_global(&a, c, c, yh, x);
                let bl = DistMatrix::from_global(&b, c, c, yh, x);
                let cl = cacqr::mm3d::mm3d(rank, cube, &al.local, &bl.local, kind, &mut dense::Workspace::new());
                (x, yh, cl, rank.ledger())
            },
        );
        let mut pieces: Vec<Vec<Matrix>> = (0..c).map(|_| (0..c).map(|_| Matrix::zeros(0, 0)).collect()).collect();
        for (x, yh, cl, _) in &report.results {
            pieces[*yh][*x] = cl.clone();
        }
        let assembled = DistMatrix::assemble(m, n, c, c, &pieces);
        for (got, want) in assembled.data().iter().zip(reference.data()) {
            assert!(
                (got - want).abs() < 1e-11,
                "{kind}: mm3d drifted from the sequential product"
            );
        }
        let ledgers: Vec<_> = report.results.iter().map(|(_, _, _, l)| *l).collect();
        outcomes.push((assembled, ledgers, report.elapsed));
    }
    let (naive, blocked) = (&outcomes[0], &outcomes[1]);
    assert_factors_close("mm3d C across backends", &blocked.0, &naive.0, 1e-11);
    assert_eq!(naive.1, blocked.1, "mm3d ledgers must not depend on the backend");
    assert_eq!(naive.2, blocked.2, "mm3d virtual time must not depend on the backend");
}

#[test]
fn sequential_cqr2_validates_identically_under_both_backends() {
    let a = well_conditioned(96, 24, 9);
    let mut qs = Vec::new();
    for kind in BackendKind::ALL {
        let (q, r) = cacqr::cqr::cqr2(&a, kind).unwrap();
        assert!(orthogonality_error(q.as_ref()) < 1e-13, "{kind}");
        assert!(residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-13, "{kind}");
        qs.push((q, r));
    }
    assert_factors_close("cqr2 Q across backends", &qs[1].0, &qs[0].0, 1e-11);
    assert_factors_close("cqr2 R across backends", &qs[1].1, &qs[0].1, 1e-10);
}
