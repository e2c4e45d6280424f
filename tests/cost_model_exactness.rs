//! The methodology contract: the closed-form cost models (which generate
//! every figure) must equal the simulator's measured virtual time exactly,
//! across a sweep of algorithms, grids, and parameters.

use cacqr::service::{JobSpec, QrService};
use cacqr::{CfrParams, QrPlan};
use dense::random::well_conditioned;
use pargrid::{DistMatrix, GridShape, TunableComms};
use simgrid::{run_spmd, Machine, SimConfig};
use std::sync::Arc;

fn measure_cacqr2(shape: GridShape, m: usize, n: usize, base: usize, inv: usize, machine: Machine) -> f64 {
    let (c, d) = (shape.c, shape.d);
    run_spmd(shape.p(), SimConfig::with_machine(machine), move |rank| {
        let comms = TunableComms::build(rank, shape);
        let (x, y, _) = comms.coords;
        let al = DistMatrix::from_global(&well_conditioned(m, n, 77), d, c, y, x);
        let params = CfrParams::validated(n, c, base, inv).unwrap();
        cacqr::ca_cqr2(
            rank,
            &comms,
            al.local.as_ref(),
            n,
            &params,
            &mut dense::Workspace::new(),
        )
        .unwrap();
    })
    .elapsed
}

#[test]
fn cacqr2_exact_over_parameter_sweep() {
    // (c, d, m, n, n0, inverse_depth): grids from 1D to cubic, all
    // InverseDepth and base-size regimes.
    let cases = [
        (1usize, 4usize, 32usize, 8usize, 8usize, 0usize),
        (1, 16, 64, 8, 8, 0),
        (2, 2, 16, 8, 4, 0),
        (2, 4, 32, 16, 4, 0),
        (2, 4, 32, 16, 8, 1),
        (2, 8, 64, 16, 4, 2),
        (2, 16, 128, 32, 16, 0),
        (4, 4, 64, 16, 4, 0),
        (4, 8, 128, 32, 8, 1),
    ];
    for (c, d, m, n, base, inv) in cases {
        let shape = GridShape::new(c, d).unwrap();
        let model = costmodel::ca_cqr2(m, n, c, d, base, inv);
        let a = measure_cacqr2(shape, m, n, base, inv, Machine::alpha_only());
        assert_eq!(
            a, model.alpha,
            "alpha mismatch at c={c} d={d} m={m} n={n} n0={base} id={inv}"
        );
        let b = measure_cacqr2(shape, m, n, base, inv, Machine::beta_only());
        assert_eq!(
            b, model.beta,
            "beta mismatch at c={c} d={d} m={m} n={n} n0={base} id={inv}"
        );
        let g = measure_cacqr2(shape, m, n, base, inv, Machine::gamma_only());
        assert!(
            (g - model.gamma).abs() < 1e-9 * model.gamma.max(1.0),
            "gamma mismatch at c={c} d={d}: {g} vs {}",
            model.gamma
        );
    }
}

#[test]
fn mixed_machine_time_is_separable() {
    // With synchronous collectives, total time = α-part + β-part + γ-part
    // exactly — the property that lets the figures decompose cost.
    let shape = GridShape::new(2, 8).unwrap();
    let (m, n, base, inv) = (64usize, 16usize, 4usize, 0usize);
    let machine = Machine {
        alpha: 1e-3,
        beta: 1e-6,
        gamma: 1e-9,
    };
    let total = measure_cacqr2(shape, m, n, base, inv, machine);
    let model = costmodel::ca_cqr2(m, n, 2, 8, base, inv);
    let predicted = model.time(&machine);
    assert!(
        (total - predicted).abs() < 1e-9 * predicted,
        "mixed-machine time {total} != model {predicted}"
    );
}

#[test]
fn cached_plan_reuse_preserves_cost_ledgers_exactly() {
    // Golden contract: routing a factorization through the service's plan
    // cache must not perturb the simulated cost model by a single word,
    // message, flop, or tick — a cached Arc<QrPlan> is the same schedule,
    // not a re-derived one.
    let machine = Machine {
        alpha: 1e-3,
        beta: 1e-6,
        gamma: 1e-9,
    };
    let shape = GridShape::new(2, 4).unwrap();
    let (m, n) = (64usize, 16usize);
    let a = well_conditioned(m, n, 42);

    let fresh = QrPlan::new(m, n)
        .grid(shape)
        .machine(machine)
        .build()
        .unwrap()
        .factor(&a)
        .unwrap();

    let service = QrService::builder().workers(2).machine(machine).build();
    let spec = JobSpec::new(m, n).grid(shape);
    let cold = service.plan(&spec).unwrap(); // first build populates the cache
    let batch = service.factor_many(&spec, vec![a.clone(), a.clone()]).unwrap();
    let warm = service.plan(&spec).unwrap();
    assert!(Arc::ptr_eq(&cold, &warm), "reuse must hit the cache, not rebuild");

    for (label, report) in [("cold", &batch[0]), ("warm", &batch[1])] {
        assert_eq!(
            report.ledgers, fresh.ledgers,
            "{label} cached-plan ledgers must equal a fresh plan's exactly"
        );
        assert_eq!(
            report.elapsed, fresh.elapsed,
            "{label} simulated time must be identical"
        );
        assert_eq!(report.q, fresh.q);
        assert_eq!(report.r, fresh.r);
    }

    // And the cached ledgers still satisfy the closed-form model: words on
    // the β-clock critical path match costmodel::ca_cqr2 under β-only
    // accounting, so the cache cannot mask a model drift either.
    let beta_service = QrService::builder().workers(1).machine(Machine::beta_only()).build();
    let beta_reports = beta_service.factor_many(&spec, vec![a]).unwrap();
    let beta_report = &beta_reports[0];
    let params = CfrParams::default_for(n, shape.c);
    let model = costmodel::ca_cqr2(m, n, shape.c, shape.d, params.base_size, params.inverse_depth);
    assert_eq!(
        beta_report.elapsed, model.beta,
        "cached plan must stay on the closed-form β cost"
    );
}

#[test]
fn pgeqrf_model_tracks_implementation() {
    for (m, n, pr, pc, nb) in [
        (128usize, 32usize, 4usize, 2usize, 8usize),
        (256, 64, 8, 2, 16),
        (128, 64, 2, 4, 16),
    ] {
        let grid = baseline::BlockCyclic { pr, pc, nb };
        let model = costmodel::pgeqrf(m, n, pr, pc, nb);
        for (machine, label, expect) in [
            (Machine::alpha_only(), "alpha", model.alpha),
            (Machine::beta_only(), "beta", model.beta),
            (Machine::gamma_only(), "gamma", model.gamma),
        ] {
            let got = run_spmd(pr * pc, SimConfig::with_machine(machine), move |rank| {
                let comms = baseline::pgeqrf::PgeqrfComms::build(rank, grid);
                let mut local = grid.scatter(&well_conditioned(m, n, 3), comms.prow, comms.pcol);
                baseline::pgeqrf(rank, &comms, baseline::PgeqrfConfig::new(grid), &mut local, m, n);
            })
            .elapsed;
            assert!(
                (got - expect).abs() <= 0.2 * expect.max(1.0),
                "{label} at pr={pr} pc={pc}: measured {got}, model {expect}"
            );
        }
    }
}

#[test]
fn ledger_words_match_beta_totals() {
    // The per-rank ledgers must account for every word the β clock charges:
    // max over ranks of words_sent bounds the β-only elapsed time from below
    // and the total words from above (critical path ≤ total work).
    let shape = GridShape::new(2, 4).unwrap();
    let (m, n) = (32usize, 8usize);
    let (c, d) = (shape.c, shape.d);
    let report = run_spmd(shape.p(), SimConfig::with_machine(Machine::beta_only()), move |rank| {
        let comms = TunableComms::build(rank, shape);
        let (x, y, _) = comms.coords;
        let al = DistMatrix::from_global(&well_conditioned(m, n, 5), d, c, y, x);
        let params = CfrParams::validated(n, c, 4, 0).unwrap();
        cacqr::ca_cqr2(
            rank,
            &comms,
            al.local.as_ref(),
            n,
            &params,
            &mut dense::Workspace::new(),
        )
        .unwrap();
        rank.ledger()
    });
    let max_sent = report.results.iter().map(|l| l.words_sent).max().unwrap();
    let total_sent: u64 = report.results.iter().map(|l| l.words_sent).sum();
    let total_recv: u64 = report.results.iter().map(|l| l.words_recv).sum();
    assert_eq!(total_sent, total_recv, "every sent word must be received");
    assert!(
        report.elapsed >= max_sent as f64,
        "critical path can't undercut the busiest rank"
    );
    assert!(
        report.elapsed <= total_sent as f64,
        "critical path can't exceed total traffic"
    );
}
