//! The staged replay of one factor at a workload's headline shape, and the
//! other per-layer rows that depend on that shape.
//!
//! `QrPlan::factor` is opaque from outside: scatter, SPMD region, assembly
//! and diagnostics happen inside one call. The replay times the real call
//! and, next to it, the same stages through the public functions the driver
//! itself calls — `DistMatrix::local_from_global` for every rank, the expert
//! driver `validate::run_*_global` (SPMD region + assembly, no diagnostics),
//! `DistMatrix::assemble`, and the two `norms` diagnostics — so the share of
//! a factor spent in each can be read without touching the library.

use crate::factor::{build_plan, Counts};
use crate::metrics::Metrics;
use crate::stats::{median, median_time, median_time_capped};
use crate::trace::Tracer;
use crate::workload::{within, Headline, FACTOR_TOL};
use baseline::BlockCyclic;
use cacqr::validate::{run_cacqr2_global, run_cqr2_1d_global};
use cacqr::{Algorithm, CfrParams, QrPlan};
use costmodel::Cost;
use dense::{BackendKind, Matrix, Workspace, WorkspacePool};
use pargrid::DistMatrix;
use simgrid::{Machine, SimConfig};
use std::time::Instant;

/// Replays until this many are timed, or the budget is spent with at least
/// the minimum: the tall-skinny replay costs ~0.1 s a time.
const MAX_REPLAYS: usize = 50;
const MIN_REPLAYS: usize = 10;
const REPLAY_BUDGET_S: f64 = 3.0;

/// Row and column process counts of the cyclic layout the headline's
/// algorithm scatters over, and each rank's position in it.
fn layout(h: &Headline) -> (usize, usize, Vec<(usize, usize)>) {
    match h.algorithm {
        Algorithm::Cqr2_1d => {
            let p = h.grid.p();
            (p, 1, (0..p).map(|r| (r, 0)).collect())
        }
        _ => {
            let positions = (0..h.grid.p())
                .map(|rank| {
                    let (x, y, _z) = h.grid.coords(rank);
                    (y, x)
                })
                .collect();
            (h.grid.d, h.grid.c, positions)
        }
    }
}

/// Runs the staged replay, records its spans, and sets the `cacqr.*`,
/// `pargrid.*`, `simgrid.*_per_op` and `dense.diagnostics_s` rows.
pub fn staged_replay(
    h: &Headline,
    inputs: &[Matrix],
    tracer: &mut Tracer,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let plan = build_plan(h)?;
    plan.warm_up(&inputs[0]).map_err(|e| e.to_string())?;
    let (rp, cp, positions) = layout(h);
    let cfg = SimConfig::with_machine(Machine::zero()).on_runtime(h.runtime);
    let pool = WorkspacePool::new();
    let mut ws = Workspace::new();
    let mut spmd_s = Vec::new();
    let mut counts = None;
    let start = Instant::now();
    let mut rep = 0;
    while rep < MIN_REPLAYS || (rep < MAX_REPLAYS && start.elapsed().as_secs_f64() < REPLAY_BUDGET_S) {
        let a = &inputs[rep % inputs.len()];
        let root = tracer.begin("bench.replay", None, rep);
        let report = tracer
            .span("cacqr.replay_factor", root, rep, || plan.factor(a))
            .map_err(|e| e.to_string())?;
        let locals = tracer.span("pargrid.scatter", root, rep, || {
            positions
                .iter()
                .map(|&(r, c)| DistMatrix::local_from_global(a, rp, cp, r, c, &mut ws))
                .collect::<Vec<Matrix>>()
        });
        locals.into_iter().for_each(|m| ws.recycle(m));
        let expert = tracer.span("cacqr.expert_run", root, rep, || match h.algorithm {
            Algorithm::Cqr2_1d => run_cqr2_1d_global(a, h.grid.p(), BackendKind::default_kind(), cfg, &pool),
            _ => run_cacqr2_global(a, h.grid, CfrParams::default_for(h.n, h.grid.c), cfg, &pool),
        });
        let expert = expert.map_err(|e| format!("expert run: {e:?}"))?;
        // Untimed: the per-rank Q pieces the driver would be holding.
        let pieces: Vec<Vec<Matrix>> = (0..rp)
            .map(|r| {
                (0..cp)
                    .map(|c| DistMatrix::from_global(&report.q, rp, cp, r, c).local)
                    .collect()
            })
            .collect();
        let q = tracer.span("pargrid.assemble", root, rep, || {
            DistMatrix::assemble(h.m, h.n, rp, cp, &pieces)
        });
        let ortho = tracer.span("dense.orthogonality_error", root, rep, || {
            dense::norms::orthogonality_error(q.as_ref())
        });
        let resid = tracer.span("dense.residual_error", root, rep, || {
            dense::norms::residual_error(a.as_ref(), q.as_ref(), expert.r.as_ref())
        });
        tracer.end(root);
        if !(within(ortho, FACTOR_TOL) && within(resid, FACTOR_TOL)) {
            return Err(format!("replay accuracy: orthogonality {ortho:e}, residual {resid:e}"));
        }
        spmd_s.push(report.wall_seconds);
        counts = Some(Counts::of(&report));
        rep += 1;
    }

    let p50 = |name: &str| median(&tracer.durations(name));
    let factor_s = p50("cacqr.replay_factor");
    let expert_s = p50("cacqr.expert_run");
    let diagnostics_s = p50("dense.orthogonality_error") + p50("dense.residual_error");
    metrics.set("cacqr.spmd_s", median(&spmd_s));
    metrics.set("cacqr.expert_run_s", expert_s);
    metrics.set("cacqr.factor_s", factor_s);
    metrics.set("cacqr.factor_overhead_s", factor_s - expert_s - diagnostics_s);
    metrics.set("dense.diagnostics_s", diagnostics_s);
    metrics.set("pargrid.scatter_s", p50("pargrid.scatter"));
    metrics.set("pargrid.assemble_s", p50("pargrid.assemble"));
    let counts = counts.expect("at least MIN_REPLAYS replays ran");
    metrics.set("simgrid.msgs_per_op", counts.msgs as f64);
    metrics.set("simgrid.words_per_op", counts.words as f64);
    metrics.set("cacqr.flops_per_op", counts.flops);
    metrics.set("cacqr.critical_flops_per_op", counts.critical_flops);
    Ok(())
}

/// The PGEQRF baseline and the plain single-threaded Householder run of the
/// same problem, and the κ₁ estimate every escalating job pays for.
pub fn baselines(h: &Headline, a: &Matrix, metrics: &mut Metrics) -> Result<(), String> {
    let p = h.grid.p();
    // A 2D layout for P = 8 (the paper's PGEQRF grids are 2D), one process
    // column otherwise; nb = 32 divides every headline width.
    let (pr, pc) = if p >= 8 { (p / 2, 2) } else { (p, 1) };
    let pgeqrf = QrPlan::new(h.m, h.n)
        .algorithm(Algorithm::Pgeqrf)
        .block_cyclic(BlockCyclic { pr, pc, nb: 32 })
        .runtime(h.runtime)
        .build()
        .map_err(|e| e.to_string())?;
    let mut failed = None;
    let pgeqrf_s = median_time_capped(5, 30, 2.0, || {
        if let Err(e) = pgeqrf.factor(a) {
            failed = Some(e.to_string());
        }
    });
    if let Some(why) = failed {
        return Err(format!("pgeqrf baseline: {why}"));
    }
    metrics.set("baseline.pgeqrf_op_s", pgeqrf_s);

    let householder_s = median_time_capped(5, 50, 2.0, || dense::householder_qr(a));
    metrics.set(
        "dense.householder_qr_gflops",
        crate::factor::credited_flops(h.m, h.n) / householder_s * 1e-9,
    );

    let r = dense::householder_qr(a).r();
    metrics.set(
        "dense.cond_estimate_s",
        median_time(50, || (), |()| dense::cond_estimate(r.as_ref())),
    );
    Ok(())
}

/// The closed-form α-β-γ cost of the headline factorization.
pub fn predicted_cost(h: &Headline) -> Cost {
    match h.algorithm {
        Algorithm::Cqr2_1d => costmodel::cqr2_1d(h.m, h.n, h.grid.p()),
        _ => {
            let base = CfrParams::default_for(h.n, h.grid.c).base_size;
            costmodel::ca_cqr2(h.m, h.n, h.grid.c, h.grid.d, base, 0)
        }
    }
}
