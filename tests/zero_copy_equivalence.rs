//! The global drivers move no matrix — ranks read their blocks of `A` through
//! strided views of the caller's storage and write `Q`/`R` through disjoint
//! windows of one preallocated output — and that must be *unobservable*: the
//! factors, the per-rank ledgers and the virtual clocks are bitwise those of
//! the copying pipeline the drivers replaced, which this file keeps as the
//! reference: scatter every rank a packed block (`DistMatrix::from_global`),
//! run the same per-rank body on it, reassemble the pieces
//! (`DistMatrix::assemble`).
//!
//! Both runtimes, every driver, grids with and without a column split. CI
//! runs this file in a ×10 loop next to `runtime_equivalence`: the windows
//! are the factor path's only `unsafe`, and a race there is a flake here.

use cacqr::validate::{run_cacqr2_global, run_cacqr3_global, run_cqr2_1d_global, QrRun};
use cacqr::{Algorithm, CfrParams, QrPlan};
use dense::cholesky::CholeskyError;
use dense::random::{matrix_with_condition, well_conditioned};
use dense::{BackendKind, Matrix, Workspace, WorkspacePool};
use pargrid::{DistMatrix, GridShape, TunableComms};
use simgrid::{run_spmd, CostLedger, Machine, RuntimeKind, SimConfig};

const RUNTIMES: [RuntimeKind; 2] = [RuntimeKind::Simulated, RuntimeKind::SharedMem];

fn config(runtime: RuntimeKind) -> SimConfig {
    SimConfig::with_machine(Machine::stampede2(64)).on_runtime(runtime)
}

/// What the copying pipeline produces: global factors, clock and ledgers.
struct Reference {
    q: Matrix,
    r: Matrix,
    elapsed: f64,
    ledgers: Vec<CostLedger>,
}

fn grid_of(rows: usize, cols: usize) -> Vec<Vec<Matrix>> {
    (0..rows)
        .map(|_| (0..cols).map(|_| Matrix::zeros(0, 0)).collect())
        .collect()
}

/// Rank `id`'s contiguous row block of `a` over `p` ranks, copied out: the
/// 1D layout.
fn row_block(a: &Matrix, p: usize, id: usize) -> Matrix {
    let lr = a.rows() / p;
    a.view(id * lr, 0, lr, a.cols()).to_owned()
}

/// The global matrix whose `id`-th contiguous row block is `blocks[id]`.
fn stack_row_blocks(blocks: &[Matrix]) -> Matrix {
    let rows = blocks.iter().map(Matrix::rows).sum();
    let mut out = Matrix::zeros(rows, blocks[0].cols());
    let mut r0 = 0;
    for block in blocks {
        out.view_mut(r0, 0, block.rows(), block.cols())
            .copy_from(block.as_ref());
        r0 += block.rows();
    }
    out
}

/// 1D-CQR2 the copying way, on contiguous row blocks.
fn reference_1d(a: &Matrix, p: usize, cfg: SimConfig) -> Result<Reference, CholeskyError> {
    let n = a.cols();
    let report = run_spmd(p, cfg, |rank| {
        let world = rank.world();
        let block = row_block(a, p, rank.id());
        let mut q = Matrix::zeros(block.rows(), n);
        let kind = BackendKind::default_kind();
        cacqr::cqr2_1d(
            rank,
            &world,
            block.as_ref(),
            q.as_mut(),
            false,
            cacqr::FlopCharges::OneD,
            kind,
            &mut Workspace::new(),
        )
        .map(|(r, _)| (q, r))
    });
    let mut pieces = Vec::new();
    let mut r0 = None;
    for result in report.results {
        let (q, r) = result?;
        pieces.push(q);
        r0.get_or_insert(r);
    }
    Ok(Reference {
        q: stack_row_blocks(&pieces),
        r: r0.unwrap(),
        elapsed: report.elapsed,
        ledgers: report.ledgers,
    })
}

/// CA-CQR2 / CA-CQR3 the copying way: the `z = 0` layer's pieces (first
/// subcube for `R`) are the result. At `c = 1` (where the tests keep
/// `n₀ = n`, so the drivers run the 1D bodies) the ranks hold contiguous
/// row blocks, as those bodies do; otherwise cyclic blocks.
fn reference_ca(
    a: &Matrix,
    shape: GridShape,
    params: CfrParams,
    algorithm: Algorithm,
    cfg: SimConfig,
) -> Result<Reference, CholeskyError> {
    let (m, n) = (a.rows(), a.cols());
    let (c, d) = (shape.c, shape.d);
    let report = run_spmd(shape.p(), cfg, |rank| {
        let comms = TunableComms::build(rank, shape);
        let (x, y, z) = comms.coords;
        let block = match c {
            1 => row_block(a, d, y),
            _ => DistMatrix::from_global(a, d, c, y, x).local,
        };
        let ws = &mut Workspace::new();
        let out = match algorithm {
            Algorithm::CaCqr3 => cacqr::ca_cqr3(rank, &comms, block.as_ref(), m, n, &params, ws),
            _ => cacqr::ca_cqr2(rank, &comms, block.as_ref(), n, &params, ws),
        };
        out.map(|out| (x, y, z, out.q_local, out.r_local))
    });
    let (mut qp, mut rp) = (grid_of(d, c), grid_of(c, c));
    for result in report.results {
        let (x, y, z, q, r) = result?;
        if z == 0 {
            qp[y][x] = q;
            if y < c {
                rp[y][x] = r;
            }
        }
    }
    let q = match c {
        1 => stack_row_blocks(&qp.concat()),
        _ => DistMatrix::assemble(m, n, d, c, &qp),
    };
    Ok(Reference {
        q,
        r: DistMatrix::assemble(n, n, c, c, &rp),
        elapsed: report.elapsed,
        ledgers: report.ledgers,
    })
}

fn assert_matches(run: &QrRun, reference: &Reference, what: &str) {
    assert_eq!(
        run.q, reference.q,
        "{what}: Q written in place must be bitwise the assembled Q"
    );
    assert_eq!(run.r, reference.r, "{what}: R");
    assert_eq!(
        run.elapsed.to_bits(),
        reference.elapsed.to_bits(),
        "{what}: virtual clock"
    );
    assert_eq!(run.ledgers, reference.ledgers, "{what}: per-rank ledgers");
}

#[test]
fn cqr2_1d_in_place_equals_scatter_body_assemble() {
    for runtime in RUNTIMES {
        for (m, n, p) in [(64usize, 8usize, 4usize), (96, 16, 2), (40, 8, 1), (512, 32, 8)] {
            let a = well_conditioned(m, n, (m + p) as u64);
            let what = format!("1d-cqr2 {m}x{n} p={p} on {runtime}");
            let run = run_cqr2_1d_global(
                &a,
                p,
                BackendKind::default_kind(),
                config(runtime),
                &WorkspacePool::new(),
            )
            .unwrap();
            assert_matches(&run, &reference_1d(&a, p, config(runtime)).unwrap(), &what);
        }
    }
}

#[test]
fn ca_family_in_place_equals_scatter_body_assemble() {
    // c = 1 reads row-cyclic views in place; c = 2 packs column-cyclic
    // blocks and deposits interleaved pieces; d > c has replicated subcubes.
    let grids = [(1usize, 4usize), (2, 2), (2, 4)];
    for runtime in RUNTIMES {
        for (c, d) in grids {
            let shape = GridShape::new(c, d).unwrap();
            let (m, n) = (16 * d, 16);
            let params = CfrParams::default_for(n, c);
            for algorithm in [Algorithm::CaCqr2, Algorithm::CaCqr3] {
                let a = match algorithm {
                    Algorithm::CaCqr3 => matrix_with_condition(m, n, 1e10, (c * 10 + d) as u64),
                    _ => well_conditioned(m, n, (c * 10 + d) as u64),
                };
                let what = format!("{} {m}x{n} c={c} d={d} on {runtime}", algorithm.name());
                let pool = WorkspacePool::new();
                let run = match algorithm {
                    Algorithm::CaCqr3 => run_cacqr3_global(&a, shape, params, config(runtime), &pool),
                    _ => run_cacqr2_global(&a, shape, params, config(runtime), &pool),
                }
                .unwrap();
                let reference = reference_ca(&a, shape, params, algorithm, config(runtime)).unwrap();
                assert_matches(&run, &reference, &what);
            }
        }
    }
}

#[test]
fn a_view_of_foreign_storage_factors_like_the_matrix_it_shows() {
    // The stream hands its row history to the drivers as a view; a window of
    // a larger allocation must factor bitwise like an owned copy of it.
    let (m, n) = (64, 8);
    let big = well_conditioned(m + 6, n + 5, 9);
    let view = big.view(3, 2, m, n);
    let owned = view.to_owned();
    let pool = WorkspacePool::new();
    let kind = BackendKind::default_kind();
    for runtime in RUNTIMES {
        let from_view = run_cqr2_1d_global(view, 4, kind, config(runtime), &pool).unwrap();
        let from_owned = run_cqr2_1d_global(&owned, 4, kind, config(runtime), &pool).unwrap();
        assert_eq!(from_view.q, from_owned.q);
        assert_eq!(from_view.r, from_owned.r);
        let shape = GridShape::new(2, 2).unwrap();
        let params = CfrParams::default_for(n, 2);
        let from_view = run_cacqr2_global(view, shape, params, config(runtime), &pool).unwrap();
        let from_owned = run_cacqr2_global(&owned, shape, params, config(runtime), &pool).unwrap();
        assert_eq!(from_view.q, from_owned.q);
        assert_eq!(from_view.r, from_owned.r);
    }
}

#[test]
fn a_failing_cholesky_is_the_same_error_and_leaves_the_arenas_balanced() {
    // κ = 1e12 squares past 1/ε: both pipelines must report the same pivot.
    // `Err` carries no matrix, so no half-written output can escape; what
    // can leak is arena inventory, so repeated failures must stop allocating.
    let a = matrix_with_condition(64, 8, 1e12, 41);
    let shape = GridShape::new(2, 4).unwrap();
    let params = CfrParams::validated(8, 2, 4, 0).unwrap();
    let kind = BackendKind::default_kind();
    for runtime in RUNTIMES {
        let cfg = config(runtime);
        let pool = WorkspacePool::new();
        let mut settled = usize::MAX;
        for round in 0.. {
            let ca = run_cacqr2_global(&a, shape, params, cfg, &pool)
                .err()
                .expect("κ=1e12 must fail");
            let one_d = run_cqr2_1d_global(&a, 4, kind, cfg, &pool)
                .err()
                .expect("κ=1e12 must fail");
            if round == 0 {
                let reference = reference_ca(&a, shape, params, Algorithm::CaCqr2, cfg).err().unwrap();
                assert_eq!(ca, reference, "ca-cqr2 on {runtime}");
                assert_eq!(one_d, reference_1d(&a, 4, cfg).err().unwrap(), "1d-cqr2 on {runtime}");
            }
            let now = pool.heap_allocations();
            if now == settled {
                break;
            }
            assert!(round < 10, "{runtime}: failing-run inventory must converge");
            settled = now;
        }
        for _ in 0..3 {
            assert!(run_cacqr2_global(&a, shape, params, cfg, &pool).is_err());
            assert!(run_cqr2_1d_global(&a, 4, kind, cfg, &pool).is_err());
        }
        assert_eq!(
            pool.heap_allocations(),
            settled,
            "{runtime}: failed factorizations must not leak arena inventory"
        );
    }
}

#[test]
fn team_diagnostics_are_bitwise_equal_across_runtimes() {
    // Tall enough for one diagnostics slab per rank (m > P panels of 256
    // rows, ragged tail): the report's two numbers are a function of the
    // factors and the plan's rank count, not of which runtime ran the slabs.
    let (m, n) = (4 * 300, 16);
    let a = well_conditioned(m, n, 77);
    for (algorithm, grid) in [
        (Algorithm::Cqr2_1d, GridShape::one_d(4).unwrap()),
        (Algorithm::CaCqr2, GridShape::new(2, 2).unwrap()),
    ] {
        let report = |runtime| {
            let plan = QrPlan::new(m, n).algorithm(algorithm).grid(grid).runtime(runtime);
            plan.build().unwrap().factor(&a).unwrap()
        };
        let (sim, shm) = (report(RuntimeKind::Simulated), report(RuntimeKind::SharedMem));
        assert_eq!(sim.q, shm.q);
        assert_eq!(sim.orthogonality_error.to_bits(), shm.orthogonality_error.to_bits());
        assert_eq!(sim.residual_error.to_bits(), shm.residual_error.to_bits());
        assert!(sim.orthogonality_error < 1e-13 && sim.residual_error < 1e-13);
    }
}
