//! `stream_window`: a sliding window over a live `StreamingQr` with a
//! right-hand-side track. An op is one step — append 64 rows, downdate the
//! oldest 64, solve — plus the snapshot or explicit refresh when one is due.

use crate::gen::{gaussian_matrix, Rng};
use crate::metrics::Metrics;
use crate::stats::{digest, median};
use crate::trace::Tracer;
use crate::workload::{within, Headline, Run, Workload, ESCALATED_TOL};
use cacqr::{Algorithm, StreamingQr};
use dense::Matrix;
use pargrid::GridShape;
use simgrid::RuntimeKind;
use std::time::Instant;

const WINDOW_ROWS: usize = 4096;
const COLS: usize = 128;
const BLOCK_ROWS: usize = 64;
/// Seeded row blocks the window cycles through; the window holds 64 of them.
const BLOCKS: usize = 256;
/// Every round holds one snapshot (at its last step) and one explicit
/// refresh (at its middle step), so both fall above the 90th percentile.
const ROUND: usize = 128;
/// Untimed steps at the end of set-up. The stream cannot be rewound, so the
/// measured steps start at this index.
const WARM_STEPS: usize = 10;
/// The final streamed solve must match a solve after a fresh refresh.
const SOLVE_TOL: f64 = 1e-8;

pub struct StreamWorkload {
    stream: StreamingQr,
    blocks: Vec<Matrix>,
    rhs: Vec<Matrix>,
    solution: Matrix,
    initial: Matrix,
    next: usize,
    first_r_digest: Option<u64>,
    drift_max: f64,
    refreshes_at_start: usize,
    solve_rel_diff: f64,
    plan_build_s: f64,
    warm_up_s: f64,
}

fn headline() -> Headline {
    Headline {
        m: WINDOW_ROWS,
        n: COLS,
        algorithm: Algorithm::Cqr2_1d,
        grid: GridShape::one_d(2).expect("two ranks are a valid 1D grid"),
        runtime: RuntimeKind::SharedMem,
    }
}

/// Stacks `blocks[range]` into one matrix.
fn stack(blocks: &[Matrix]) -> Matrix {
    let cols = blocks[0].cols();
    let data: Vec<f64> = blocks.iter().flat_map(|b| b.data().iter().copied()).collect();
    Matrix::from_vec(data.len() / cols, cols, data)
}

impl StreamWorkload {
    pub fn setup(seed: u64) -> Result<StreamWorkload, String> {
        let mut rng = Rng::new(seed, 3);
        let blocks: Vec<Matrix> = (0..BLOCKS)
            .map(|_| gaussian_matrix(&mut rng, BLOCK_ROWS, COLS))
            .collect();
        // b = A·x + noise, so the least-squares problem has a meaningful answer.
        let truth: Vec<f64> = (0..COLS).map(|_| rng.gaussian()).collect();
        let rhs: Vec<Matrix> = blocks
            .iter()
            .map(|block| {
                Matrix::from_fn(BLOCK_ROWS, 1, |i, _| {
                    let exact: f64 = (0..COLS).map(|j| block.get(i, j) * truth[j]).sum();
                    exact + 0.01 * rng.gaussian()
                })
            })
            .collect();
        let resident = WINDOW_ROWS / BLOCK_ROWS;
        let initial = stack(&blocks[..resident]);
        let initial_rhs = stack(&rhs[..resident]);

        let t = Instant::now();
        let plan = crate::factor::build_plan(&headline())?;
        let plan_build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        plan.warm_up(&initial).map_err(|e| e.to_string())?;
        let warm_up_s = t.elapsed().as_secs_f64();
        let mut stream = plan
            .stream_with_rhs(&initial, &initial_rhs)
            .map_err(|e| e.to_string())?;
        stream.reserve_rows(WINDOW_ROWS + BLOCK_ROWS);

        let mut workload = StreamWorkload {
            stream,
            blocks,
            rhs,
            solution: Matrix::zeros(COLS, 1),
            initial,
            next: 0,
            first_r_digest: None,
            drift_max: 0.0,
            refreshes_at_start: 0,
            solve_rel_diff: 0.0,
            plan_build_s,
            warm_up_s,
        };
        let mut warm = Run::new(None);
        for _ in 0..WARM_STEPS {
            workload.step(&mut warm);
        }
        if let Some(why) = warm.first_failure {
            return Err(format!("warm-up step failed: {why}"));
        }
        workload.refreshes_at_start = workload.stream.refreshes();
        Ok(workload)
    }

    /// One step's library calls, each under its own span; the first error
    /// fails the op.
    fn apply(&mut self, step: usize, root: u32, run: &mut Run) -> Result<(), String> {
        let resident = WINDOW_ROWS / BLOCK_ROWS;
        let (newest, oldest) = ((step + resident) % BLOCKS, step % BLOCKS);
        let status = run
            .span("stream.append", root, step, || {
                self.stream
                    .append_rows_with(self.blocks[newest].as_ref(), self.rhs[newest].as_ref())
            })
            .map_err(|e| format!("append: {e}"))?;
        self.drift_max = self.drift_max.max(status.drift);
        let status = run
            .span("stream.downdate", root, step, || {
                self.stream
                    .downdate_rows_with(self.blocks[oldest].as_ref(), self.rhs[oldest].as_ref())
            })
            .map_err(|e| format!("downdate: {e}"))?;
        self.drift_max = self.drift_max.max(status.drift);
        run.span("stream.solve", root, step, || {
            self.stream.solve_into(&mut self.solution)
        })
        .map_err(|e| format!("solve: {e}"))?;
        if self.first_r_digest.is_none() {
            self.first_r_digest = Some(digest(self.stream.r().data()));
        }
        match step % ROUND {
            r if r == ROUND - 1 => {
                let snapshot = run
                    .span("stream.snapshot", root, step, || self.stream.snapshot())
                    .map_err(|e| format!("snapshot: {e}"))?;
                let ortho = snapshot.orthogonality_error.unwrap_or(f64::NAN);
                if !within(ortho, ESCALATED_TOL) {
                    return Err(format!("snapshot orthogonality {ortho:e}"));
                }
            }
            r if r == ROUND / 2 - 1 => run
                .span("stream.refresh", root, step, || self.stream.refresh())
                .map_err(|e| format!("refresh: {e}"))?,
            _ => {}
        }
        Ok(())
    }
}

impl Workload for StreamWorkload {
    fn round(&self) -> usize {
        ROUND
    }

    fn step(&mut self, run: &mut Run) {
        let step = self.next;
        self.next += 1;
        let t = Instant::now();
        let root = run.begin("bench.op", None, step);
        let applied = self.apply(step, root, run);
        run.end(root);
        run.latencies.push(t.elapsed().as_secs_f64());
        run.check(applied);
    }

    /// The final streamed solve against a solve after a fresh refresh.
    fn finish(&mut self, run: &mut Run) {
        let streamed = self.solution.clone();
        let fresh = self
            .stream
            .refresh()
            .and_then(|()| self.stream.solve())
            .map_err(|e| e.to_string());
        match fresh {
            Ok(fresh) => {
                self.solve_rel_diff = dense::norms::rel_diff(streamed.as_ref(), fresh.as_ref());
                if !within(self.solve_rel_diff, SOLVE_TOL) {
                    run.fail(format!(
                        "final streamed solve differs from a fresh one by {:e}",
                        self.solve_rel_diff
                    ));
                }
            }
            Err(why) => run.fail(format!("final refresh: {why}")),
        }
    }

    fn headline(&self) -> Headline {
        headline()
    }

    fn headline_inputs(&self) -> Vec<Matrix> {
        vec![self.initial.clone()]
    }

    fn describe(&self) -> Vec<String> {
        let (n, k) = (COLS as f64, BLOCK_ROWS as f64);
        vec![
            format!("first op R digest      {:016x}", self.first_r_digest.unwrap_or(0)),
            format!(
                "credited flops per op  {:e} (append kn^2 + 2/3 n^3, downdate 3kn^2, refined solve 4mn + 4n^2)",
                k * n * n + 2.0 / 3.0 * n * n * n + 3.0 * k * n * n + 4.0 * WINDOW_ROWS as f64 * n + 4.0 * n * n
            ),
            format!(
                "exact counts           {} steps, {} refreshes (snapshots included), final solve rel diff {:e}",
                self.next - WARM_STEPS,
                self.stream.refreshes() - self.refreshes_at_start,
                self.solve_rel_diff
            ),
        ]
    }

    fn layer_metrics(&self, tracer: &Tracer, metrics: &mut Metrics) -> Result<(), String> {
        for (metric, span) in [
            ("stream.append_p50_s", "stream.append"),
            ("stream.downdate_p50_s", "stream.downdate"),
            ("stream.solve_p50_s", "stream.solve"),
            ("stream.snapshot_p50_s", "stream.snapshot"),
            ("stream.refresh_p50_s", "stream.refresh"),
        ] {
            metrics.set(metric, median(&tracer.durations(span)));
        }
        // `finish` adds one refresh after the last step; it is not a step's.
        let steps = self.next - WARM_STEPS;
        let refreshes = self.stream.refreshes() - self.refreshes_at_start - 1;
        metrics.set("stream.refreshes_per_kstep", refreshes as f64 * 1000.0 / steps as f64);
        metrics.set("stream.drift_max", self.drift_max);
        metrics.set("stream.solve_rel_diff", self.solve_rel_diff);
        metrics.set("cacqr.plan_build_s", self.plan_build_s);
        metrics.set("cacqr.warm_up_s", self.warm_up_s);
        Ok(())
    }
}
