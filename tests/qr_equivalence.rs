//! Cross-algorithm integration tests: every QR variant in the workspace,
//! factored on the same matrices, must agree with sequential Householder QR
//! up to column signs and produce orthonormal factors.

use cacqr::validate::{run_cacqr2_global, run_cacqr3_global};
use cacqr::{Algorithm, CfrParams, QrPlan};
use dense::cholesky::CholeskyError;
use dense::norms::{lower_residual, normalize_qr_signs, orthogonality_error, residual_error};
use dense::random::{matrix_with_condition, well_conditioned};
use dense::{BackendKind, Matrix, Workspace, WorkspacePool};
use pargrid::{DistMatrix, GridShape, TunableComms};
use simgrid::{run_spmd, CostLedger, Machine, RuntimeKind, SimConfig};

fn assert_valid_qr(label: &str, a: &Matrix, q: &Matrix, r: &Matrix) {
    assert!(
        orthogonality_error(q.as_ref()) < 1e-12,
        "{label}: orthogonality {:.2e}",
        orthogonality_error(q.as_ref())
    );
    assert!(
        residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-12,
        "{label}: residual {:.2e}",
        residual_error(a.as_ref(), q.as_ref(), r.as_ref())
    );
    assert!(lower_residual(r.as_ref()) < 1e-13, "{label}: R not upper triangular");
}

fn assert_same_factorization(label: &str, qa: &Matrix, ra: &Matrix, qb: &Matrix, rb: &Matrix) {
    let (mut qa, mut ra) = (qa.clone(), ra.clone());
    let (mut qb, mut rb) = (qb.clone(), rb.clone());
    normalize_qr_signs(&mut qa, &mut ra);
    normalize_qr_signs(&mut qb, &mut rb);
    for (u, v) in ra.data().iter().zip(rb.data()) {
        assert!(
            (u - v).abs() < 1e-9 * (1.0 + v.abs()),
            "{label}: R factors differ: {u} vs {v}"
        );
    }
    for (u, v) in qa.data().iter().zip(qb.data()) {
        assert!((u - v).abs() < 1e-9, "{label}: Q factors differ: {u} vs {v}");
    }
}

#[test]
fn all_variants_agree_on_one_matrix() {
    let (m, n) = (64usize, 16usize);
    let a = well_conditioned(m, n, 123);
    let (qh, rh) = dense::householder::qr(&a);
    assert_valid_qr("householder", &a, &qh, &rh);

    // Sequential CQR2.
    let (qs, rs) = cacqr::cqr2(&a, BackendKind::default_kind()).unwrap();
    assert_valid_qr("cqr2-seq", &a, &qs, &rs);
    assert_same_factorization("cqr2-seq vs householder", &qs, &rs, &qh, &rh);

    // Every distributed variant, through one facade loop: 1D-CQR2, the
    // CA family, and the ScaLAPACK-like baseline, all on 16 ranks.
    for alg in Algorithm::ALL {
        let plan = QrPlan::new(m, n)
            .algorithm(alg)
            .grid(GridShape::new(2, 4).unwrap())
            .block_cyclic(baseline::BlockCyclic { pr: 4, pc: 2, nb: 8 })
            .build()
            .unwrap();
        let report = plan.factor(&a).unwrap();
        assert_valid_qr(&format!("{alg}"), &a, &report.q, &report.r);
        assert_same_factorization(&format!("{alg} vs seq"), &report.q, &report.r, &qs, &rs);
    }

    // CA-CQR2 on assorted further grids.
    for (c, d) in [(1usize, 8usize), (2, 8), (2, 16), (4, 4)] {
        let plan = QrPlan::new(m, n).grid(GridShape::new(c, d).unwrap()).build().unwrap();
        let run = plan.factor(&a).unwrap();
        assert_valid_qr(&format!("ca-cqr2 c={c} d={d}"), &a, &run.q, &run.r);
        assert_same_factorization(&format!("ca c={c} d={d} vs seq"), &run.q, &run.r, &qs, &rs);
    }
}

#[test]
fn inverse_depth_variants_are_bitwise_equivalent_in_q() {
    // Different InverseDepth settings change the schedule, not the math;
    // results must stay within rounding of each other and valid.
    let (m, n) = (128usize, 32usize);
    let a = well_conditioned(m, n, 7);
    let shape = GridShape::new(2, 8).unwrap();
    let plan = |inv: usize| {
        QrPlan::new(m, n)
            .grid(shape)
            .base_size(4)
            .inverse_depth(inv)
            .build()
            .unwrap()
    };
    let r0 = plan(0).factor(&a).unwrap();
    for inv in [1usize, 2, 3] {
        let ri = plan(inv).factor(&a).unwrap();
        assert_valid_qr(&format!("inverse_depth={inv}"), &a, &ri.q, &ri.r);
        for (u, v) in ri.q.data().iter().zip(r0.q.data()) {
            assert!((u - v).abs() < 1e-10, "Q should agree across InverseDepth settings");
        }
    }
}

#[test]
fn base_case_size_does_not_change_results() {
    let (m, n) = (64usize, 32usize);
    let a = well_conditioned(m, n, 9);
    let shape = GridShape::new(2, 4).unwrap();
    let mut reference: Option<Matrix> = None;
    for base in [2usize, 4, 8, 16, 32] {
        let run = QrPlan::new(m, n)
            .grid(shape)
            .base_size(base)
            .build()
            .unwrap()
            .factor(&a)
            .unwrap();
        assert_valid_qr(&format!("n0={base}"), &a, &run.q, &run.r);
        match &reference {
            None => reference = Some(run.q),
            Some(qref) => {
                for (u, v) in run.q.data().iter().zip(qref.data()) {
                    assert!((u - v).abs() < 1e-10, "n0={base}: Q drifted");
                }
            }
        }
    }
}

#[test]
fn square_matrix_support() {
    // m == n: the "rectangular" algorithm must still work (d | m permitting).
    let n = 32usize;
    let a = well_conditioned(n, n, 31);
    let shape = GridShape::new(2, 4).unwrap();
    let run = QrPlan::new(n, n)
        .grid(shape)
        .base_size(8)
        .build()
        .unwrap()
        .factor(&a)
        .unwrap();
    assert_valid_qr("square", &a, &run.q, &run.r);
}

#[test]
fn wide_range_of_shapes_and_grids() {
    for (m, n, c, d, seed) in [
        (256usize, 8usize, 2usize, 8usize, 1u64),
        (128, 64, 2, 4, 2),
        (512, 16, 4, 8, 3),
        (96, 8, 1, 12, 4), // non-power-of-two d with c = 1 (1D path)
    ] {
        if !d.is_power_of_two() && c != 1 {
            continue;
        }
        let a = well_conditioned(m, n, seed);
        // d = 12 is not a power of two: GridShape rejects it — skip validly.
        let Ok(shape) = GridShape::new(c, d) else { continue };
        let run = QrPlan::new(m, n).grid(shape).build().unwrap().factor(&a).unwrap();
        assert_valid_qr(&format!("m={m} n={n} c={c} d={d}"), &a, &run.q, &run.r);
    }
}

/// `Q`, `R`, virtual clock bits and per-rank ledgers of one run.
type Outcome = Result<(Matrix, Matrix, u64, Vec<CostLedger>), CholeskyError>;

/// The CA-CQR2 / CA-CQR3 per-rank bodies on the `1 × d × 1` grid: each rank
/// is scattered a packed copy of its rows — its contiguous row block where
/// the drivers route to the 1D bodies (`n₀ ≥ n`), which read those, and its
/// cyclic rows otherwise — `Q` is reassembled from the pieces and `R`
/// (whole on every rank at `c = 1`) taken from rank 0.
fn ca_bodies(a: &Matrix, d: usize, params: CfrParams, algorithm: Algorithm, cfg: SimConfig) -> Outcome {
    let (m, n) = (a.rows(), a.cols());
    let shape = GridShape::one_d(d).unwrap();
    let routed = params.base_size >= n;
    let report = run_spmd(d, cfg, |rank| {
        let comms = TunableComms::build(rank, shape);
        let block = match routed {
            true => a.view(rank.id() * (m / d), 0, m / d, n).to_owned(),
            false => DistMatrix::from_global(a, d, 1, rank.id(), 0).local,
        };
        let ws = &mut Workspace::new();
        match algorithm {
            Algorithm::CaCqr3 => cacqr::ca_cqr3(rank, &comms, block.as_ref(), m, n, &params, ws),
            _ => cacqr::ca_cqr2(rank, &comms, block.as_ref(), n, &params, ws),
        }
        .map(|out| (out.q_local, out.r_local))
    });
    let mut pieces = Vec::new();
    let mut r0 = None;
    for result in report.results {
        let (q, r) = result?;
        pieces.push(q);
        r0.get_or_insert(r);
    }
    let q = match routed {
        true => Matrix::from_vec(m, n, pieces.iter().flat_map(Matrix::data).copied().collect()),
        false => DistMatrix::assemble(m, n, d, 1, &pieces.into_iter().map(|q| vec![q]).collect::<Vec<_>>()),
    };
    Ok((q, r0.unwrap(), report.elapsed.to_bits(), report.ledgers))
}

/// The routed global driver, which runs the 1D bodies at `c = 1, n₀ = n`.
fn routed(a: &Matrix, d: usize, params: CfrParams, algorithm: Algorithm, cfg: SimConfig) -> Outcome {
    let (shape, pool) = (GridShape::one_d(d).unwrap(), WorkspacePool::new());
    let run = match algorithm {
        Algorithm::CaCqr3 => run_cacqr3_global(a, shape, params, cfg, &pool),
        _ => run_cacqr2_global(a, shape, params, cfg, &pool),
    }?;
    Ok((run.q, run.r, run.elapsed.to_bits(), run.ledgers))
}

fn assert_same_outcome(label: &str, got: Outcome, want: Outcome) {
    match (got, want) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.0, want.0, "{label}: Q");
            assert_eq!(got.1, want.1, "{label}: R");
            assert_eq!(got.2, want.2, "{label}: virtual clock");
            assert_eq!(got.3, want.3, "{label}: ledgers");
        }
        (Err(got), Err(want)) => {
            assert_eq!(got.index, want.index, "{label}: failing pivot index");
            assert_eq!(got.pivot.to_bits(), want.pivot.to_bits(), "{label}: failing pivot");
        }
        (got, want) => panic!("{label}: routed {:?} vs bodies {:?}", got.err(), want.err()),
    }
}

#[test]
fn one_layer_ca_configs_run_algorithm_6_bit_for_bit_and_ledger_for_ledger() {
    // §III: CA-CQR with c = 1 degenerates to exactly Algorithm 6, so the
    // drivers route c = 1, n₀ = n to the 1D bodies. That must be invisible:
    // same factors, clocks, ledgers, and the same typed failure.
    let machine = Machine {
        alpha: 1e-3,
        beta: 1e-6,
        gamma: 1e-9,
    };
    let mut cqr2_failures = 0;
    for runtime in [RuntimeKind::Simulated, RuntimeKind::SharedMem] {
        let cfg = SimConfig::with_machine(machine).on_runtime(runtime);
        let check = |label: &str, a: &Matrix, d: usize, params: CfrParams, algorithm: Algorithm| {
            let got = routed(a, d, params, algorithm, cfg);
            let want = ca_bodies(a, d, params, algorithm, cfg);
            let failed = got.is_err();
            assert_same_outcome(&format!("{label} {} on {runtime}", algorithm.name()), got, want);
            failed
        };
        for (m, n, d) in [(256usize, 32usize, 1usize), (64, 16, 4), (4096, 64, 2)] {
            let params = CfrParams::default_for(n, 1);
            assert_eq!(params.base_size, n, "the default n₀ at c = 1 is n");
            for kappa in [1.0, 1e6, 1e10] {
                let a = matrix_with_condition(m, n, kappa, 7);
                let label = format!("{m}x{n} d={d} κ={kappa:e}");
                cqr2_failures += usize::from(check(&label, &a, d, params, Algorithm::CaCqr2));
                assert!(
                    !check(&label, &a, d, params, Algorithm::CaCqr3),
                    "{label}: shifted CQR3 is stable"
                );
            }
            // Rank-deficient input: an all-zero matrix exhausts CA-CQR3's
            // four shifted tries (σ = 0); a zero column passes the shifted
            // pass and fails the CQR2 on Q₁.
            let zero = Matrix::zeros(m, n);
            let mut zero_column = matrix_with_condition(m, n, 1e2, 9);
            (0..m).for_each(|i| zero_column.set(i, n / 2, 0.0));
            for (what, a) in [("zero", &zero), ("zero column", &zero_column)] {
                assert!(check(&format!("{m}x{n} d={d} {what}"), a, d, params, Algorithm::CaCqr3));
            }
        }
        // An explicit n₀ < n recurses in CFR3D, which rounds differently
        // from the 1D body here: the plan must keep the CA path.
        let (m, n, d) = (4096, 64, 2);
        let a = matrix_with_condition(m, n, 1e6, 7);
        let plan = QrPlan::new(m, n)
            .grid(GridShape::one_d(d).unwrap())
            .base_size(16)
            .machine(machine)
            .runtime(runtime)
            .build()
            .unwrap();
        let report = plan.factor(&a).unwrap();
        let params = CfrParams::validated(n, 1, 16, 0).unwrap();
        let planned = Ok((report.q, report.r, report.elapsed.to_bits(), report.ledgers));
        let want = ca_bodies(&a, d, params, Algorithm::CaCqr2, cfg);
        let one_d = ca_bodies(&a, d, CfrParams::default_for(n, 1), Algorithm::CaCqr2, cfg).unwrap();
        assert_ne!(want.as_ref().unwrap().0, one_d.0, "n₀ = 16 must round differently");
        assert_same_outcome("n0=16 plan", planned, want);
    }
    assert!(cqr2_failures > 0, "CQR2 at κ = 1e10 must exercise the typed failure");
}
