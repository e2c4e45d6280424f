//! `service_small_panels`: a seeded mix of small single-rank jobs through
//! one `QrService`, one client thread, a fixed window of outstanding jobs.
//! An op is one job, from its `submit` call to the return of its `wait`.

use crate::gen::{gaussian_matrix, matrix_with_condition, Rng};
use crate::metrics::Metrics;
use crate::stats::{digest, median, quantile};
use crate::trace::{SpanId, Tracer};
use crate::workload::{within, Headline, Run, Workload, ESCALATED_TOL, FACTOR_TOL};
use cacqr::service::{JobHandle, JobInput, JobSpec, QrService, ServiceStats, SubmitOptions};
use cacqr::{Algorithm, QrReport, RetryPolicy};
use dense::Matrix;
use pargrid::GridShape;
use simgrid::RuntimeKind;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Panel shapes and how many of each a 16-job block holds (8 : 5 : 3).
const SHAPES: [(usize, usize, usize); 3] = [(16, 4, 8), (64, 16, 5), (256, 32, 3)];
const BLOCK: usize = 16;
/// A round is 256 independently shuffled blocks. Every fourth 256×32 job —
/// three in 64 jobs, 4.7 % of all — is ill-conditioned. A job's latency
/// depends on its neighbours in the window, so a short repeated permutation
/// would make the latency distribution a property of the seed; 256 blocks
/// average that out.
const ROUND: usize = 256 * BLOCK;
/// Jobs of the warm-up and of each reference run of the schedule.
const WARM_JOBS: usize = 128;
const REFERENCE_JOBS: usize = 2048;
const HARD_KAPPA: f64 = 1e10;
/// Seeded inputs per shape the jobs rotate over.
const POOL: usize = 16;
/// Jobs outstanding before the client waits for the oldest.
const WINDOW: usize = 4;
const WORKERS: usize = 2;

#[derive(Clone, Copy)]
struct Job {
    shape: usize,
    hard: bool,
}

struct Outstanding {
    op: usize,
    job: Job,
    submitted: Instant,
    root: SpanId,
    handle: JobHandle,
}

pub struct ServiceWorkload {
    service: QrService,
    specs: Vec<JobSpec>,
    /// Well-conditioned inputs per shape.
    pools: Vec<Vec<Arc<Matrix>>>,
    /// κ = 1e10 inputs of the largest shape.
    hard: Vec<Arc<Matrix>>,
    /// One round of jobs in seeded order.
    schedule: Vec<Job>,
    next: usize,
    window: VecDeque<Outstanding>,
    first_r_digest: Option<u64>,
    ortho_max: f64,
    resid_max: f64,
    stats_at_start: ServiceStats,
    plan_build_s: f64,
    warm_up_s: f64,
}

impl ServiceWorkload {
    pub fn setup(seed: u64) -> Result<ServiceWorkload, String> {
        let mut rng = Rng::new(seed, 2);
        let pools: Vec<Vec<Arc<Matrix>>> = SHAPES
            .iter()
            .map(|&(m, n, _)| (0..POOL).map(|_| Arc::new(gaussian_matrix(&mut rng, m, n))).collect())
            .collect();
        let (hm, hn, _) = SHAPES[2];
        let hard = (0..POOL / 4)
            .map(|_| Arc::new(matrix_with_condition(&mut rng, hm, hn, HARD_KAPPA)))
            .collect();

        let mut schedule = Vec::with_capacity(ROUND);
        let mut large = 0;
        for _block in 0..ROUND / BLOCK {
            let mut block: Vec<usize> = SHAPES
                .iter()
                .enumerate()
                .flat_map(|(shape, &(_, _, count))| std::iter::repeat_n(shape, count))
                .collect();
            rng.shuffle(&mut block);
            for shape in block {
                let hard = shape == 2 && {
                    large += 1;
                    large % 4 == 0
                };
                schedule.push(Job { shape, hard });
            }
        }

        let service = QrService::builder()
            .workers(WORKERS)
            .runtime(RuntimeKind::Simulated)
            .build();
        let single_rank = GridShape::one_d(1).map_err(|e| e.to_string())?;
        let specs: Vec<JobSpec> = SHAPES
            .iter()
            .map(|&(m, n, _)| JobSpec::new(m, n).algorithm(Algorithm::Cqr2_1d).grid(single_rank))
            .collect();
        let t = Instant::now();
        let plans = specs
            .iter()
            .map(|spec| service.plan(spec))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let plan_build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for (plan, pool) in plans.iter().zip(&pools) {
            plan.warm_up(&pool[0]).map_err(|e| e.to_string())?;
        }
        let warm_up_s = t.elapsed().as_secs_f64();

        let stats_at_start = service.stats();
        let mut workload = ServiceWorkload {
            service,
            specs,
            pools,
            hard,
            schedule,
            next: 0,
            window: VecDeque::with_capacity(WINDOW),
            first_r_digest: None,
            ortho_max: 0.0,
            resid_max: 0.0,
            stats_at_start,
            plan_build_s,
            warm_up_s,
        };
        // Jobs through the pool warm the workers' thread-local pack buffers
        // and the escalation rungs' arenas as well.
        let mut warm = Run::new(None);
        for _ in 0..WARM_JOBS {
            workload.step(&mut warm);
        }
        workload.drain(&mut warm);
        if let Some(why) = warm.first_failure {
            return Err(format!("warm-up job failed: {why}"));
        }
        workload.next = 0;
        workload.stats_at_start = workload.service.stats();
        Ok(workload)
    }

    fn input(&self, op: usize, job: Job) -> &Arc<Matrix> {
        if job.hard {
            &self.hard[op % self.hard.len()]
        } else {
            &self.pools[job.shape][op % POOL]
        }
    }

    fn verify(&mut self, job: Job, report: &QrReport) -> Result<(), String> {
        self.ortho_max = self.ortho_max.max(report.orthogonality_error);
        self.resid_max = self.resid_max.max(report.residual_error);
        let tol = if job.hard { ESCALATED_TOL } else { FACTOR_TOL };
        if !(within(report.orthogonality_error, tol) && within(report.residual_error, tol)) {
            return Err(format!(
                "accuracy: orthogonality {:e}, residual {:e} (hard: {})",
                report.orthogonality_error, report.residual_error, job.hard
            ));
        }
        if job.hard {
            // An ill-conditioned job must have climbed the ladder, and the
            // chain must end in the rung that was accepted.
            let accepted = report
                .escalation
                .as_ref()
                .is_some_and(|e| e.escalated() && e.attempts.last().is_some_and(|a| a.error.is_none()));
            if !accepted {
                return Err(format!(
                    "escalation chain missing or unaccepted: {:?}",
                    report.escalation
                ));
            }
        }
        if self.first_r_digest.is_none() {
            self.first_r_digest = Some(digest(report.r.data()));
        }
        Ok(())
    }

    /// Waits for the oldest outstanding job and records it as one op.
    fn retire(&mut self, run: &mut Run) {
        let Some(out) = self.window.pop_front() else {
            return;
        };
        let result = run.span("service.wait", out.root, out.op, || out.handle.wait());
        let checked = match &result {
            Ok(report) => self.verify(out.job, report),
            Err(e) => Err(e.to_string()),
        };
        run.end(out.root);
        run.latencies.push(out.submitted.elapsed().as_secs_f64());
        run.check(checked);
    }

    /// The first `REFERENCE_JOBS` jobs of the schedule as `(shape, hard,
    /// input)` triples: the same jobs the measured loop submits, for the two
    /// reference runs.
    fn reference_jobs(&self) -> Vec<(usize, bool, Arc<Matrix>)> {
        (0..REFERENCE_JOBS)
            .map(|op| {
                let job = self.schedule[op % ROUND];
                (job.shape, job.hard, Arc::clone(self.input(op, job)))
            })
            .collect()
    }

    /// Jobs per second of the schedule as bare `plan.factor` calls on this
    /// thread: what the kernels alone sustain, the denominator for dispatch
    /// overhead.
    fn direct_jobs_per_s(&self) -> Result<f64, String> {
        let plans = self
            .specs
            .iter()
            .map(|spec| self.service.plan(spec))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let jobs = self.reference_jobs();
        let t = Instant::now();
        for (shape, hard, input) in &jobs {
            let policy = if *hard {
                RetryPolicy::escalate()
            } else {
                RetryPolicy::none()
            };
            plans[*shape]
                .factor_with_policy(input, policy)
                .map_err(|e| e.to_string())?;
        }
        Ok(jobs.len() as f64 / t.elapsed().as_secs_f64())
    }

    /// Jobs per second of the schedule through the batch entry point: one
    /// `factor_many` per (shape, policy) group.
    fn factor_many_jobs_per_s(&self) -> Result<f64, String> {
        let jobs = self.reference_jobs();
        let mut groups: Vec<(JobSpec, Vec<Matrix>)> = self
            .specs
            .iter()
            .map(|&spec| (spec, Vec::new()))
            .chain(std::iter::once((
                self.specs[2].retry(RetryPolicy::escalate()),
                Vec::new(),
            )))
            .collect();
        for (shape, hard, input) in &jobs {
            let group = if *hard { 3 } else { *shape };
            groups[group].1.push(Matrix::clone(input));
        }
        // The escalating group's plan is a cache entry of its own: build and
        // warm it outside the timed region, as set-up did for the others.
        let escalating = self.service.plan(&groups[3].0).map_err(|e| e.to_string())?;
        escalating.warm_up(&self.hard[0]).map_err(|e| e.to_string())?;
        let t = Instant::now();
        for (spec, batch) in groups {
            self.service.factor_many(&spec, batch).map_err(|e| e.to_string())?;
        }
        Ok(jobs.len() as f64 / t.elapsed().as_secs_f64())
    }
}

impl Workload for ServiceWorkload {
    fn round(&self) -> usize {
        ROUND
    }

    fn step(&mut self, run: &mut Run) {
        let op = self.next;
        self.next += 1;
        let job = self.schedule[op % ROUND];
        let input = Arc::clone(self.input(op, job));
        let spec = self.specs[job.shape];
        let submitted = Instant::now();
        let root = run.begin("bench.op", None, op);
        let handle = run.span("service.submit", root, op, || {
            if job.hard {
                let escalate = SubmitOptions::new().retry(RetryPolicy::escalate());
                self.service.submit_with(&spec, JobInput::Shared(input), escalate)
            } else {
                self.service.submit_ref(&spec, &input)
            }
        });
        match handle {
            Ok(handle) => self.window.push_back(Outstanding {
                op,
                job,
                submitted,
                root,
                handle,
            }),
            Err(e) => {
                run.end(root);
                run.latencies.push(submitted.elapsed().as_secs_f64());
                run.fail(format!("submit: {e}"));
            }
        }
        if self.window.len() == WINDOW {
            self.retire(run);
        }
    }

    fn drain(&mut self, run: &mut Run) {
        while !self.window.is_empty() {
            self.retire(run);
        }
    }

    fn headline(&self) -> Headline {
        let (m, n, _) = SHAPES[2];
        Headline {
            m,
            n,
            algorithm: Algorithm::Cqr2_1d,
            grid: GridShape::one_d(1).expect("a single rank is a valid grid"),
            runtime: RuntimeKind::Simulated,
        }
    }

    fn headline_inputs(&self) -> Vec<Matrix> {
        self.pools[2].iter().map(|a| Matrix::clone(a)).collect()
    }

    fn describe(&self) -> Vec<String> {
        let credited: f64 = self
            .schedule
            .iter()
            .map(|job| crate::factor::credited_flops(SHAPES[job.shape].0, SHAPES[job.shape].1))
            .sum();
        let stats = self.service.stats();
        vec![
            format!("first op R digest      {:016x}", self.first_r_digest.unwrap_or(0)),
            format!(
                "credited flops per op  {:e} (mean of 2mn^2 - 2/3 n^3 over the job mix)",
                credited / ROUND as f64
            ),
            format!(
                "exact counts           {} jobs: {} retries, {} escalations, {} shed, {} expired, {} cancelled",
                stats.completed - self.stats_at_start.completed,
                stats.retries - self.stats_at_start.retries,
                stats.escalations - self.stats_at_start.escalations,
                stats.shed,
                stats.expired,
                stats.cancelled
            ),
        ]
    }

    fn layer_metrics(&self, tracer: &Tracer, metrics: &mut Metrics) -> Result<(), String> {
        metrics.set("service.submit_s", median(&tracer.durations("service.submit")));
        metrics.set("service.op_p99_s", quantile(&tracer.durations("bench.op"), 0.99));
        // The service's own histograms: power-of-two buckets, so these are
        // estimates within a factor √2 — and they cover every job since
        // set-up, not only the traced segment.
        let stats = self.service.stats();
        metrics.set("service.queue_wait_p50_s", stats.queue_wait.p50.as_secs_f64());
        metrics.set("service.queue_wait_p99_s", stats.queue_wait.p99.as_secs_f64());
        metrics.set("service.execute_p50_s", stats.execution.p50.as_secs_f64());
        metrics.set("service.execute_p99_s", stats.execution.p99.as_secs_f64());
        metrics.set("service.e2e_p99_s", stats.end_to_end.p99.as_secs_f64());
        let kjobs = (stats.completed - self.stats_at_start.completed) as f64 / 1000.0;
        metrics.set(
            "service.retries_per_kjob",
            (stats.retries - self.stats_at_start.retries) as f64 / kjobs,
        );
        metrics.set(
            "service.escalations_per_kjob",
            (stats.escalations - self.stats_at_start.escalations) as f64 / kjobs,
        );
        metrics.set("service.shed", stats.shed as f64);
        metrics.set("service.expired", stats.expired as f64);
        metrics.set("cacqr.plan_build_s", self.plan_build_s);
        metrics.set("cacqr.warm_up_s", self.warm_up_s);
        metrics.set("cacqr.ortho_err_max", self.ortho_max);
        metrics.set("cacqr.resid_err_max", self.resid_max);
        // Reference runs of the same schedule, after the counters above were
        // read so they do not disturb them.
        metrics.set("service.direct_jobs_per_s", self.direct_jobs_per_s()?);
        metrics.set("service.factor_many_jobs_per_s", self.factor_many_jobs_per_s()?);
        Ok(())
    }
}
