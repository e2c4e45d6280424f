//! The two direct-factor workloads: `tall_skinny_1d` and `square_ca_3d`.
//! An op is one `QrPlan::factor` call on the shared-memory runtime.

use crate::gen::{gaussian_matrix, Rng};
use crate::metrics::Metrics;
use crate::stats::digest;
use crate::trace::Tracer;
use crate::workload::{within, Headline, Run, Workload, FACTOR_TOL};
use cacqr::{Algorithm, QrPlan, QrReport};
use dense::Matrix;
use pargrid::GridShape;
use simgrid::RuntimeKind;
use std::time::Instant;

/// Seeded inputs the ops rotate over: enough that consecutive ops never see
/// the same matrix, few enough that set-up stays short.
const INPUTS: usize = 4;

/// Exact per-op counts from the ledgers of a report.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Counts {
    /// Max over ranks of messages sent.
    pub msgs: u64,
    /// Max over ranks of words sent.
    pub words: u64,
    /// Flops charged, summed over ranks.
    pub flops: f64,
    /// Flops charged to the busiest rank.
    pub critical_flops: f64,
}

impl Counts {
    pub fn of(report: &QrReport) -> Counts {
        Counts {
            msgs: report.ledgers.iter().map(|l| l.msgs_sent).max().unwrap_or(0),
            words: report.ledgers.iter().map(|l| l.words_sent).max().unwrap_or(0),
            flops: report.total_flops(),
            critical_flops: report.ledgers.iter().map(|l| l.flops).fold(0.0, f64::max),
        }
    }
}

/// The flop count the paper credits a QR of an `m × n` matrix with,
/// whatever the algorithm spent (§IV-C): `2mn² − ⅔n³`.
pub fn credited_flops(m: usize, n: usize) -> f64 {
    let (m, n) = (m as f64, n as f64);
    2.0 * m * n * n - 2.0 / 3.0 * n * n * n
}

pub struct FactorWorkload {
    headline: Headline,
    plan: QrPlan,
    inputs: Vec<Matrix>,
    next: usize,
    counts: Option<Counts>,
    first_r_digest: Option<u64>,
    ortho_max: f64,
    resid_max: f64,
    arena_allocs_at_start: usize,
    plan_build_s: f64,
    warm_up_s: f64,
}

impl FactorWorkload {
    /// 16384×64 by 1D-CQR2 on two ranks: the paper's m ≫ n regime.
    pub fn tall_skinny_1d(seed: u64) -> Result<FactorWorkload, String> {
        FactorWorkload::setup(
            seed,
            Headline {
                m: 16384,
                n: 64,
                algorithm: Algorithm::Cqr2_1d,
                grid: GridShape::one_d(2).map_err(|e| e.to_string())?,
                runtime: RuntimeKind::SharedMem,
            },
        )
    }

    /// 512×256 by CA-CQR2 on the 2×2×2 grid: the only grid with c > 1 that
    /// fits the box.
    pub fn square_ca_3d(seed: u64) -> Result<FactorWorkload, String> {
        FactorWorkload::setup(
            seed,
            Headline {
                m: 512,
                n: 256,
                algorithm: Algorithm::CaCqr2,
                grid: GridShape::new(2, 2).map_err(|e| e.to_string())?,
                runtime: RuntimeKind::SharedMem,
            },
        )
    }

    fn setup(seed: u64, headline: Headline) -> Result<FactorWorkload, String> {
        let mut rng = Rng::new(seed, 1);
        let inputs: Vec<Matrix> = (0..INPUTS)
            .map(|_| gaussian_matrix(&mut rng, headline.m, headline.n))
            .collect();
        let t = Instant::now();
        let plan = build_plan(&headline)?;
        let plan_build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        plan.warm_up(&inputs[0]).map_err(|e| e.to_string())?;
        let warm_up_s = t.elapsed().as_secs_f64();
        let mut workload = FactorWorkload {
            headline,
            plan,
            inputs,
            next: 0,
            counts: None,
            first_r_digest: None,
            ortho_max: 0.0,
            resid_max: 0.0,
            arena_allocs_at_start: 0,
            plan_build_s,
            warm_up_s,
        };
        let mut warm = Run::new(None);
        for _ in 0..10 {
            workload.step(&mut warm);
        }
        if let Some(why) = warm.first_failure {
            return Err(format!("warm-up op failed: {why}"));
        }
        workload.next = 0;
        workload.arena_allocs_at_start = workload.plan.workspace().heap_allocations();
        Ok(workload)
    }

    fn verify(&mut self, report: &QrReport) -> Result<(), String> {
        self.ortho_max = self.ortho_max.max(report.orthogonality_error);
        self.resid_max = self.resid_max.max(report.residual_error);
        if !(within(report.orthogonality_error, FACTOR_TOL) && within(report.residual_error, FACTOR_TOL)) {
            return Err(format!(
                "accuracy: orthogonality {:e}, residual {:e}",
                report.orthogonality_error, report.residual_error
            ));
        }
        let counts = Counts::of(report);
        match self.counts {
            None => {
                self.counts = Some(counts);
                self.first_r_digest = Some(digest(report.r.data()));
            }
            Some(first) if first != counts => return Err(format!("counts changed: {first:?} then {counts:?}")),
            Some(_) => {}
        }
        Ok(())
    }
}

/// The plan a headline describes, as the workloads and the replay build it.
pub fn build_plan(h: &Headline) -> Result<QrPlan, String> {
    QrPlan::new(h.m, h.n)
        .algorithm(h.algorithm)
        .grid(h.grid)
        .runtime(h.runtime)
        .build()
        .map_err(|e| e.to_string())
}

impl Workload for FactorWorkload {
    fn round(&self) -> usize {
        INPUTS
    }

    fn step(&mut self, run: &mut Run) {
        let op = self.next;
        self.next += 1;
        let t = Instant::now();
        let root = run.begin("bench.op", None, op);
        let result = run.span("cacqr.factor", root, op, || self.plan.factor(&self.inputs[op % INPUTS]));
        let checked = run.span("bench.verify", root, op, || match &result {
            Ok(report) => self.verify(report),
            Err(e) => Err(e.to_string()),
        });
        run.end(root);
        run.latencies.push(t.elapsed().as_secs_f64());
        run.check(checked);
    }

    fn headline(&self) -> Headline {
        self.headline
    }

    fn headline_inputs(&self) -> Vec<Matrix> {
        self.inputs.clone()
    }

    fn describe(&self) -> Vec<String> {
        let Headline { m, n, .. } = self.headline;
        vec![
            format!("first op R digest      {:016x}", self.first_r_digest.unwrap_or(0)),
            format!(
                "credited flops per op  {:e} (2mn^2 - 2/3 n^3, m = {m}, n = {n})",
                credited_flops(m, n)
            ),
            format!("exact counts per op    {:?}", self.counts),
        ]
    }

    fn layer_metrics(&self, _tracer: &Tracer, metrics: &mut Metrics) -> Result<(), String> {
        let arena_allocs = self.plan.workspace().heap_allocations() - self.arena_allocs_at_start;
        metrics.set(
            "cacqr.arena_allocs_per_op",
            arena_allocs as f64 / self.next.max(1) as f64,
        );
        metrics.set("cacqr.plan_build_s", self.plan_build_s);
        metrics.set("cacqr.warm_up_s", self.warm_up_s);
        metrics.set("cacqr.ortho_err_max", self.ortho_max);
        metrics.set("cacqr.resid_err_max", self.resid_max);
        Ok(())
    }
}
