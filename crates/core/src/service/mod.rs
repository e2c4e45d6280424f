//! `QrService`: a thread-safe, plan-caching batch factorization engine.
//!
//! The paper's premise is amortization: CholeskyQR2's setup (grid wiring,
//! parameter validation, schedule resolution) is paid once and reused over
//! many tall-skinny panels. [`QrPlan`] gives one matrix that amortization;
//! this module scales it to a *serving workload* in the TSQR tradition
//! (Demmel et al.), where batched tall-skinny factorizations arrive
//! concurrently from many callers — and where the panels are small enough
//! that dispatch and data movement, not flops, decide throughput.
//!
//! There is one way to do each job. [`QrService::submit`] enqueues one
//! factorization (`submit_with` adds a deadline or retry override,
//! `submit_ref` shares the operand zero-copy), blocking while the queue is
//! full, and returns a [`JobHandle`]. [`QrService::try_factor_many`]
//! admits a whole same-shape batch as one dispatched job with per-index
//! results; [`factor_many`](QrService::factor_many) is its all-or-nothing
//! wrapper. A live [`StreamingQr`](crate::StreamingQr) is not a service
//! job: the caller owns it (behind a `Mutex` when several threads share
//! it) and orders its updates itself.
//!
//! Single jobs and batches share one job core, one module per piece:
//! `spec` (the cache key, the operand, the per-submission options),
//! `cache` (the plan cache), `queue` and `worker` (the one bounded FIFO
//! every unit travels through, and the pool that drains it; a worker runs
//! each job's kernels on its own thread), `handle` and `stats`. Every
//! queued unit carries one ticket, so admission control and the
//! dequeue-time cancel/deadline check each live in one place; and every
//! executed panel passes one epilogue — the `worker` fault site, panic
//! isolation into a typed [`ServiceError`], the escalation counters, and
//! the latency histograms that [`QrService::stats`] snapshots as
//! [`ServiceStats`].
//!
//! Determinism is preserved end to end: a given `(plan, matrix)` pair
//! produces bitwise-identical factors whether it runs on the caller's
//! thread, one worker, or whichever worker of a saturated pool claims it,
//! and batch reports come back in submission order.
//!
//! # Example
//!
//! ```
//! use cacqr::service::{JobSpec, QrService};
//! use pargrid::GridShape;
//!
//! let service = QrService::builder().workers(2).build();
//! let spec = JobSpec::new(64, 16).grid(GridShape::new(2, 2)?);
//! let batch: Vec<_> = (0..4)
//!     .map(|seed| dense::random::well_conditioned(64, 16, seed))
//!     .collect();
//! let reports = service.factor_many(&spec, batch)?;
//! assert_eq!(reports.len(), 4);
//! assert!(reports.iter().all(|r| r.orthogonality_error < 1e-12));
//! // Repeat shapes hit the cache: the same Arc<QrPlan>, not a rebuild.
//! assert!(std::sync::Arc::ptr_eq(&service.plan(&spec)?, &service.plan(&spec)?));
//! // Telemetry: four panels completed, latencies recorded.
//! assert_eq!(service.stats().completed, 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod cache;
mod error;
mod handle;
mod queue;
mod spec;
mod stats;
mod worker;

pub use error::ServiceError;
pub use handle::JobHandle;
pub use spec::{JobInput, JobSpec, SubmitOptions};
pub use stats::{LatencySummary, ServiceStats};

use crate::driver::{PlanError, QrPlan, QrReport};
use cache::PlanCache;
use dense::Matrix;
use handle::Ticket;
use queue::Fifo;
use simgrid::{Machine, RuntimeKind};
use stats::Recorder;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use worker::{FactorJob, ManyBatch, Work};

/// State shared between the service front end and its workers.
struct Shared {
    queue: Fifo<Work>,
    /// The pool width: a `factor_many` batch is re-offered to the queue
    /// only when another worker could pick it up.
    workers: usize,
    cache: PlanCache,
    stats: Recorder,
    machine: Machine,
    runtime: RuntimeKind,
}

/// Builder for [`QrService`]; created by [`QrService::builder`].
#[derive(Clone, Copy, Debug)]
#[must_use = "a builder does nothing until .build() is called"]
pub struct QrServiceBuilder {
    workers: Option<usize>,
    machine: Machine,
    runtime: RuntimeKind,
}

impl QrServiceBuilder {
    /// Sets the pool width, at least 1. Default: one worker per core the
    /// process may run on ([`simgrid::cores`]). The bounded submission
    /// queue holds `2 × workers` unstarted jobs; [`QrService::submit`]
    /// blocks while it is full. A `factor_many` batch counts once, however
    /// many panels — admission control is per submission, not per panel.
    pub fn workers(mut self, workers: usize) -> QrServiceBuilder {
        self.workers = Some(workers.max(1));
        self
    }

    /// Sets the simulated machine model charged by every job (default
    /// [`Machine::zero`]).
    pub fn machine(mut self, machine: Machine) -> QrServiceBuilder {
        self.machine = machine;
        self
    }

    /// Sets the rank placement every job runs on (default
    /// [`RuntimeKind::Simulated`]). Like the machine model,
    /// the runtime is a property of the whole service, not of individual
    /// specs — equal specs share one cached plan either way.
    pub fn runtime(mut self, runtime: RuntimeKind) -> QrServiceBuilder {
        self.runtime = runtime;
        self
    }

    /// Spawns the worker pool and returns the running service.
    pub fn build(self) -> QrService {
        let workers = self.workers.unwrap_or_else(simgrid::cores);
        let shared = Arc::new(Shared {
            queue: Fifo::new(2 * workers, workers),
            workers,
            cache: PlanCache::default(),
            stats: Recorder::new(),
            machine: self.machine,
            runtime: self.runtime,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qrservice-worker-{i}"))
                    .spawn(move || worker::worker_loop(&shared))
                    .expect("failed to spawn QrService worker thread")
            })
            .collect();
        QrService { shared, handles }
    }
}

/// The concurrent plan-caching batch factorization engine. See the
/// [module docs](self).
///
/// Shared by reference: every method takes `&self`, so one service instance
/// can serve any number of submitting threads. Dropping the service closes
/// the queue, lets the workers drain already-accepted jobs, and joins them;
/// [`QrService::close`] does the closing half early, from `&self`.
pub struct QrService {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

/// Rejects an operand whose shape is not the plan's, up front — before the
/// job is accepted.
fn check_shape(plan: &QrPlan, a: &Matrix) -> Result<(), ServiceError> {
    if (a.rows(), a.cols()) == (plan.m(), plan.n()) {
        return Ok(());
    }
    Err(ServiceError::Plan(PlanError::InputShapeMismatch {
        expected: (plan.m(), plan.n()),
        got: (a.rows(), a.cols()),
    }))
}

impl QrService {
    /// Starts configuring a service.
    pub fn builder() -> QrServiceBuilder {
        QrServiceBuilder {
            workers: None,
            machine: Machine::zero(),
            runtime: RuntimeKind::Simulated,
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Capacity of the bounded submission queue: `2 × workers`.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue.capacity()
    }

    /// The machine model every job is charged under.
    pub fn machine(&self) -> Machine {
        self.shared.machine
    }

    /// The execution backend every job runs on.
    pub fn runtime(&self) -> RuntimeKind {
        self.shared.runtime
    }

    /// Point-in-time latency and throughput telemetry: p50/p99 queue-wait,
    /// execution, and end-to-end latency plus sustained jobs-per-second
    /// since the pool started. Lock-free to record, cheap to snapshot —
    /// safe to poll from a monitoring loop.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats.snapshot()
    }

    /// Validates the operand against the spec's plan and enqueues the job,
    /// blocking while the submission queue is full (backpressure).
    ///
    /// Takes anything convertible to a [`JobInput`]: an owned [`Matrix`]
    /// (moved) or an `Arc<Matrix>` (shared — no data copy; see
    /// [`QrService::submit_ref`]).
    ///
    /// Planning errors (invalid spec, shape mismatch) surface here, before
    /// the job is accepted; execution errors surface from
    /// [`JobHandle::wait`]. A closed or worker-less service fails with
    /// [`ServiceError::ShuttingDown`] instead of blocking forever.
    pub fn submit(&self, spec: &JobSpec, a: impl Into<JobInput>) -> Result<JobHandle, ServiceError> {
        self.submit_with(spec, a, SubmitOptions::new())
    }

    /// [`QrService::submit`] with per-job quality-of-service knobs: a
    /// deadline (enforced lazily at dequeue, see
    /// [`SubmitOptions::deadline`]) and/or a
    /// [`RetryPolicy`](crate::RetryPolicy) override.
    ///
    /// Deadline submissions pass admission control first: when the pool's
    /// observed p99 queue wait already exceeds the budget, the job is shed
    /// with [`ServiceError::Overloaded`] instead of queued — it would
    /// almost certainly expire at dequeue anyway, and shedding keeps the
    /// queue slot for work that can still meet its deadline.
    pub fn submit_with(
        &self,
        spec: &JobSpec,
        a: impl Into<JobInput>,
        opts: SubmitOptions,
    ) -> Result<JobHandle, ServiceError> {
        let ticket = Ticket::admit(&self.shared.stats, opts.deadline)?;
        let plan = self.plan(spec)?;
        let input = a.into();
        check_shape(&plan, input.matrix())?;
        let (slot, handle) = ticket.handle();
        let job = FactorJob {
            ticket,
            plan,
            input,
            retry: opts.retry,
            slot,
        };
        self.shared.queue.push(Work::Factor(job))?;
        Ok(handle)
    }

    /// Zero-copy submission: the job borrows the caller's `Arc<Matrix>`
    /// (pointer clone only — the matrix data is never copied), so fanning
    /// one operand out to many jobs, or submitting while keeping a handle
    /// on the input, costs nothing per submission.
    pub fn submit_ref(&self, spec: &JobSpec, a: &Arc<Matrix>) -> Result<JobHandle, ServiceError> {
        self.submit(spec, a)
    }

    /// Factors a whole batch of (typically small) panels under one spec,
    /// all-or-nothing: reports come back in input order, and the first
    /// per-panel failure is returned as [`ServiceError::BatchJobFailed`]
    /// (carrying the failing index) with the other reports dropped — use
    /// [`QrService::try_factor_many`], which this wraps, to keep them.
    pub fn factor_many(&self, spec: &JobSpec, batch: Vec<Matrix>) -> Result<Vec<QrReport>, ServiceError> {
        self.try_factor_many(spec, batch)?
            .into_iter()
            .enumerate()
            .map(|(index, outcome)| {
                outcome.map_err(|e| ServiceError::BatchJobFailed {
                    index,
                    source: Box::new(e),
                })
            })
            .collect()
    }

    /// The batch entry point: factors every panel of `batch` as **one**
    /// dispatched job — a single queue slot, a single completion wait,
    /// and panels the pool's workers claim one at a time from a cursor the
    /// batch carries, so it balances itself however uneven the panels are.
    /// This amortizes the per-job dispatch (queue round-trip, slot
    /// allocation, wakeups) that dominates when panels take microseconds;
    /// callers that want per-panel handles, deadlines or shared operands
    /// loop over [`QrService::submit`] instead.
    ///
    /// Takes the batch by value: panels are moved, never cloned. Element
    /// `i` of the result is panel `i`'s outcome — its report, bitwise
    /// identical to a sequential `plan.factor` loop, or its typed error —
    /// so one failed panel does not discard its siblings' reports, and
    /// outcomes stay at their input position at every pool width: which
    /// worker factors panel `i`, and in what order panels retire, never
    /// changes where its result lands, because every result is written by
    /// absolute panel index, not arrival order. The outer `Result` fails
    /// only when the batch could not be admitted at all (invalid spec,
    /// shape mismatch, shutdown). An empty batch returns an empty list
    /// without touching the pool.
    pub fn try_factor_many(
        &self,
        spec: &JobSpec,
        batch: Vec<Matrix>,
    ) -> Result<Vec<Result<QrReport, ServiceError>>, ServiceError> {
        let ticket = Ticket::admit(&self.shared.stats, None)?;
        let plan = self.plan(spec)?;
        batch.iter().try_for_each(|a| check_shape(&plan, a))?;
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let panels = batch.len();
        let (slot, handle) = ticket.handle();
        let batch = Arc::new(ManyBatch {
            ticket,
            plan,
            inputs: batch,
            next: AtomicUsize::new(0),
            results: Mutex::new((0..panels).map(|_| None).collect()),
            remaining: AtomicUsize::new(panels),
            slot,
        });
        self.shared.queue.push(Work::Many(batch))?;
        handle.wait()
    }

    /// Closes the service from a shared reference: no new jobs are
    /// accepted (submissions fail with [`ServiceError::ShuttingDown`]),
    /// already-accepted work drains, and the workers exit once the queue
    /// is empty. The threads are joined by `Drop` as usual — `close` is
    /// the half of shutdown that any clone-holder of `&QrService` may
    /// trigger, e.g. a signal handler asking a serving process to wind
    /// down while in-flight handles stay redeemable.
    pub fn close(&self) {
        self.shared.queue.close();
    }
}

impl Drop for QrService {
    fn drop(&mut self) {
        self.shared.queue.close();
        for h in self.handles.drain(..) {
            // A worker can only panic outside catch_unwind during queue
            // teardown; propagating would double-panic in Drop, so swallow.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::random::well_conditioned;
    use pargrid::GridShape;
    use std::time::Duration;

    pub(super) fn spec_64x16() -> JobSpec {
        JobSpec::new(64, 16).grid(GridShape::new(2, 2).unwrap())
    }

    #[test]
    fn submit_and_wait_round_trip() {
        let service = QrService::builder().workers(2).build();
        let a = well_conditioned(64, 16, 7);
        let handle = service.submit(&spec_64x16(), a).unwrap();
        let report = handle.wait().unwrap();
        assert!(report.orthogonality_error < 1e-12);
        assert!(report.residual_error < 1e-12);
        let stats = service.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.end_to_end.count, 1);
        assert!(stats.end_to_end.p99 >= stats.execution.p50);
    }

    #[test]
    fn submit_ref_shares_the_operand() {
        let service = QrService::builder().workers(2).build();
        let a = Arc::new(well_conditioned(64, 16, 7));
        let owned = service.submit(&spec_64x16(), (*a).clone()).unwrap().wait().unwrap();
        // Fan the same Arc out to several jobs: no data copies, identical
        // bits out.
        let handles: Vec<_> = (0..3).map(|_| service.submit_ref(&spec_64x16(), &a).unwrap()).collect();
        for h in handles {
            let shared = h.wait().unwrap();
            assert_eq!(
                shared.r.data(),
                owned.r.data(),
                "shared and owned inputs factor identically"
            );
        }
        // After the workers join, every job's reference is dropped.
        drop(service);
        assert_eq!(Arc::strong_count(&a), 1, "jobs release their references");
    }

    #[test]
    fn invalid_specs_fail_at_submission() {
        let service = QrService::builder().workers(1).build();
        let err = service
            .submit(&JobSpec::new(64, 16), well_conditioned(64, 16, 1))
            .unwrap_err();
        assert!(matches!(err, ServiceError::Plan(PlanError::MissingGrid { .. })));
        let err = service.submit(&spec_64x16(), well_conditioned(32, 16, 1)).unwrap_err();
        assert!(matches!(err, ServiceError::Plan(PlanError::InputShapeMismatch { .. })));
    }

    /// A 64×16 panel whose Gram matrix loses positive definiteness.
    fn singular_panel() -> Matrix {
        let mut bad = well_conditioned(64, 16, 5);
        for i in 0..64 {
            bad.set(i, 3, 0.0);
        }
        bad
    }

    #[test]
    fn batch_failures_carry_index_and_spare_siblings() {
        let service = QrService::builder().workers(2).build();
        let spec = spec_64x16();
        let batch = vec![
            well_conditioned(64, 16, 1),
            singular_panel(),
            well_conditioned(64, 16, 2),
        ];
        match service.factor_many(&spec, batch.clone()).unwrap_err() {
            ServiceError::BatchJobFailed { index, source } => {
                assert_eq!(index, 1, "the error must name the failing input");
                assert!(matches!(*source, ServiceError::Plan(PlanError::NotPositiveDefinite(_))));
            }
            other => panic!("expected BatchJobFailed, got {other}"),
        }
        let outcomes = service.try_factor_many(&spec, batch).unwrap();
        assert!(outcomes[0].is_ok(), "siblings of a failed panel keep their reports");
        assert!(outcomes[1].is_err());
        assert!(outcomes[2].is_ok());
    }

    #[test]
    fn factor_many_matches_a_sequential_loop_and_handles_edges() {
        let service = QrService::builder().workers(2).build();
        let spec = spec_64x16();
        assert_eq!(service.factor_many(&spec, Vec::new()).unwrap().len(), 0);
        let batch: Vec<_> = (0..17).map(|s| well_conditioned(64, 16, s)).collect();
        let plan = service.plan(&spec).unwrap();
        let sequential: Vec<_> = batch.iter().map(|a| plan.factor(a).unwrap()).collect();
        let via_many = service.factor_many(&spec, batch).unwrap();
        assert_eq!(via_many.len(), 17);
        for (a, b) in via_many.iter().zip(&sequential) {
            assert_eq!(a.r.data(), b.r.data(), "factor_many is bitwise the sequential loop");
        }
        assert_eq!(service.stats().completed, 17, "one completion per panel");
        // Shape errors reject the whole batch before admission.
        let err = service
            .factor_many(&spec, vec![well_conditioned(32, 16, 0)])
            .unwrap_err();
        assert!(matches!(err, ServiceError::Plan(PlanError::InputShapeMismatch { .. })));
    }

    #[test]
    fn admission_control_sheds_deadlines_the_pool_cannot_meet() {
        let service = QrService::builder().workers(1).build();
        let spec = spec_64x16();
        // Warm the queue-wait histogram so p99 is nonzero.
        for seed in 0..3 {
            service
                .submit(&spec, well_conditioned(64, 16, seed))
                .unwrap()
                .wait()
                .unwrap();
        }
        assert!(service.stats().queue_wait.p99 > Duration::ZERO);
        // A zero budget now loses to the observed p99: shed, not queued.
        let err = service
            .submit_with(
                &spec,
                well_conditioned(64, 16, 7),
                SubmitOptions::new().deadline(Duration::ZERO),
            )
            .unwrap_err();
        match err {
            ServiceError::Overloaded { queue_p99, budget } => {
                assert!(queue_p99 > budget);
                assert_eq!(budget, Duration::ZERO);
            }
            other => panic!("expected Overloaded, got {other}"),
        }
        assert_eq!(service.stats().shed, 1);
        // Deadline-less submissions are never shed.
        service
            .submit(&spec, well_conditioned(64, 16, 8))
            .unwrap()
            .wait()
            .unwrap();
    }

    #[test]
    fn close_makes_submissions_fail_fast() {
        let service = QrService::builder().workers(1).build();
        let spec = spec_64x16();
        let pre = service.submit(&spec, well_conditioned(64, 16, 1)).unwrap();
        service.close();
        pre.wait().unwrap(); // accepted work drains
        assert!(matches!(
            service.submit(&spec, well_conditioned(64, 16, 2)).unwrap_err(),
            ServiceError::ShuttingDown
        ));
        assert!(matches!(
            service
                .factor_many(&spec, vec![well_conditioned(64, 16, 2)])
                .unwrap_err(),
            ServiceError::ShuttingDown
        ));
    }

    #[test]
    fn a_job_cancelled_in_the_queue_resolves_typed_without_executing() {
        // No pool: the test thread is the only worker, so the job is still
        // queued when it is cancelled, whatever the scheduler does.
        let shared = Shared {
            queue: Fifo::new(1, 1),
            workers: 1,
            cache: PlanCache::default(),
            stats: Recorder::new(),
            machine: Machine::zero(),
            runtime: RuntimeKind::Simulated,
        };
        let ticket = Ticket::admit(&shared.stats, None).unwrap();
        let (slot, handle) = ticket.handle();
        let job = FactorJob {
            ticket,
            plan: Arc::new(QrPlan::new(64, 16).grid(GridShape::new(2, 2).unwrap()).build().unwrap()),
            input: well_conditioned(64, 16, 4).into(),
            retry: None,
            slot,
        };
        assert!(shared.queue.push(Work::Factor(job)).is_ok());
        handle.cancel();
        shared.queue.close();
        worker::worker_loop(&shared); // pops the cancelled job, then the end
        assert!(matches!(handle.wait(), Err(ServiceError::Cancelled)));
        let stats = shared.stats.snapshot();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.execution.count, 0, "a cancelled job never reaches the kernels");
    }

    #[test]
    fn a_pool_is_as_wide_as_asked_and_queues_two_jobs_per_worker() {
        // A pool is as wide as asked, at least 1, and one worker per core by
        // default; its queue holds two unstarted jobs per worker.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (builder, workers) in [
            (QrService::builder().workers(0), 1),
            (QrService::builder().workers(3), 3),
            (QrService::builder(), cores),
        ] {
            let pool = builder.build();
            assert_eq!(pool.workers(), workers);
            assert_eq!(pool.queue_capacity(), 2 * workers);
        }
    }

    #[test]
    fn drop_drains_accepted_jobs() {
        let service = QrService::builder().workers(2).build();
        let spec = spec_64x16();
        let handles: Vec<_> = (0..8)
            .map(|s| service.submit(&spec, well_conditioned(64, 16, s)).unwrap())
            .collect();
        drop(service);
        for h in handles {
            assert!(h.is_finished(), "accepted jobs must complete before the drop returns");
            h.wait().unwrap();
        }
    }
}
