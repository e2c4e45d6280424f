//! The worker side of the pool: the loop that drains the queue, the shared
//! cursor a `factor_many` batch balances itself from, and the one
//! factor-and-settle body every executed panel — a single job's or a
//! batch's — passes through.

use super::handle::{Slot, Ticket};
use super::spec::JobInput;
use super::{ServiceError, Shared};
use crate::driver::{QrPlan, QrReport, RetryPolicy};
use dense::Matrix;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One unit of queued work: a single job or a whole batch. Both enter
/// through the one bounded FIFO and share its backpressure; a
/// [`factor_many`](super::QrService::factor_many) batch is additionally
/// re-offered to it by the workers that pop it (see [`run_many`]).
pub(super) enum Work {
    Factor(FactorJob),
    Many(Arc<ManyBatch>),
}

/// One queued factorization: its ticket, the resolved plan, the operand,
/// the per-job retry override, and the slot the worker completes.
pub(super) struct FactorJob {
    pub(super) ticket: Ticket,
    pub(super) plan: Arc<QrPlan>,
    pub(super) input: JobInput,
    pub(super) retry: Option<RetryPolicy>,
    pub(super) slot: Arc<Slot<QrReport>>,
}

/// An admitted `factor_many` batch: one dispatch covering many panels,
/// shared out by [`run_many`]. Each completed panel decrements `remaining`,
/// and the worker that retires the last one completes the slot with all
/// results in submission order.
pub(super) struct ManyBatch {
    pub(super) ticket: Ticket,
    pub(super) plan: Arc<QrPlan>,
    pub(super) inputs: Vec<Matrix>,
    /// The next unclaimed panel index; at or past `inputs.len()` once the
    /// batch has been handed out completely.
    pub(super) next: AtomicUsize,
    pub(super) results: Mutex<Vec<Option<Result<QrReport, ServiceError>>>>,
    pub(super) remaining: AtomicUsize,
    pub(super) slot: Arc<Slot<Vec<Result<QrReport, ServiceError>>>>,
}

/// Worker body: drain work until the queue closes, surviving job panics.
///
/// The consumer guard deregisters this worker on *any* exit — normal
/// shutdown or a panic that escapes a job guard — so producers blocked on
/// a full queue fail with [`ServiceError::ShuttingDown`] instead of
/// waiting on a pool that will never drain. Every kernel of a job runs on
/// this thread, armed with the fault schedule its submitter was armed with
/// (the ticket's), from just after the pop on.
pub(super) fn worker_loop(shared: &Shared) {
    let _consumer = shared.queue.consumer();
    while let Some(work) = shared.queue.pop() {
        let faults = match &work {
            Work::Factor(job) => job.ticket.faults.clone(),
            Work::Many(batch) => batch.ticket.faults.clone(),
        };
        faults.arm(|| {
            dense::fault::maybe_delay(dense::fault::DEQUEUE);
            match work {
                Work::Factor(job) => {
                    let outcome = factor_panel(
                        shared,
                        &job.ticket,
                        Instant::now(),
                        &job.plan,
                        job.input.matrix(),
                        job.retry,
                    );
                    job.slot.complete(outcome);
                }
                Work::Many(batch) => run_many(shared, batch),
            }
        });
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Factors one panel picked up at `picked`, unless its ticket was cancelled
/// or expired in the queue (then the kernels never run). The factor runs
/// behind the worker fault site and the panic-isolation boundary, so a
/// schedule arming the `worker` site reaches every job its submitter sends,
/// and a panic comes back as a typed [`ServiceError`]; every executed panel records its
/// execution and end-to-end latencies and one completion. A completed
/// report's escalation record feeds the service counters: each rung beyond
/// the first is a retry; an accepted non-primary rung is an escalation.
fn factor_panel(
    shared: &Shared,
    ticket: &Ticket,
    picked: Instant,
    plan: &QrPlan,
    a: &Matrix,
    retry: Option<RetryPolicy>,
) -> Result<QrReport, ServiceError> {
    if let Some(err) = ticket.dequeue_reject(&shared.stats, picked) {
        return Err(err);
    }
    let policy = retry.unwrap_or_else(|| plan.retry_policy());
    let t0 = Instant::now();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        dense::faultpoint!(dense::fault::WORKER, {
            panic!("injected worker fault (fault site `worker`)");
        });
        plan.factor_with_policy(a, policy)
    }));
    shared.stats.execution.record(t0.elapsed());
    shared.stats.end_to_end.record(ticket.enqueued.elapsed());
    shared.stats.complete(1);
    let report = match outcome {
        Ok(report) => report?,
        Err(payload) => {
            return Err(ServiceError::WorkerPanicked {
                message: panic_message(payload.as_ref()),
            })
        }
    };
    if let Some(esc) = &report.escalation {
        shared.stats.retried(esc.attempts.len().saturating_sub(1) as u64);
        if esc.escalated() {
            shared.stats.escalated();
        }
    }
    Ok(report)
}

/// One worker's share of a `factor_many` batch: claim panel indices from
/// the batch's cursor until it runs out, and deliver the batch when its
/// last panel retires. While more than this worker's first panel remains
/// and the pool has another worker, the batch goes back on the queue once,
/// so the next idle worker joins; a batch popped after its cursor ran out
/// is a no-op.
fn run_many(shared: &Shared, batch: Arc<ManyBatch>) {
    let panels = batch.inputs.len();
    let picked = Instant::now();
    // Relaxed: the cursor only hands out indices; the panels themselves
    // were published by the queue's mutex.
    let mut i = batch.next.fetch_add(1, Ordering::Relaxed);
    if shared.workers > 1 && i + 1 < panels {
        shared.queue.reoffer(Work::Many(Arc::clone(&batch)));
    }
    let mut done = 0;
    while i < panels {
        let outcome = factor_panel(shared, &batch.ticket, picked, &batch.plan, &batch.inputs[i], None);
        batch.results.lock().unwrap_or_else(|e| e.into_inner())[i] = Some(outcome);
        done += 1;
        i = batch.next.fetch_add(1, Ordering::Relaxed);
    }
    if done > 0 && batch.remaining.fetch_sub(done, Ordering::SeqCst) == done {
        // This worker retired the batch's last panel: deliver everything
        // in submission order.
        let results = std::mem::take(&mut *batch.results.lock().unwrap_or_else(|e| e.into_inner()));
        batch.slot.complete(Ok(results
            .into_iter()
            .map(|r| r.expect("every panel index was factored exactly once"))
            .collect()));
    }
}

#[cfg(test)]
mod tests {
    use crate::driver::{Algorithm, PlanError};
    use crate::service::tests::spec_64x16;
    use crate::service::{QrService, ServiceError, SubmitOptions};
    use dense::fault::{self, FaultPlan};
    use dense::random::well_conditioned;
    use std::time::Duration;

    /// Dequeues a 4-panel `factor_many` batch costs at pool width `workers`
    /// (every pop fires the `dequeue` site under a rate-1 plan), counted
    /// after shutdown so a late no-op pop would be seen.
    fn batch_dequeues(workers: usize) -> u64 {
        let plan = FaultPlan::new(7).site(fault::DEQUEUE, 1.0).delay(Duration::ZERO);
        fault::with_plan(plan, || {
            let service = QrService::builder().workers(workers).build();
            let batch = (0..4).map(|s| well_conditioned(64, 16, s)).collect();
            assert_eq!(service.factor_many(&spec_64x16(), batch).unwrap().len(), 4);
            drop(service);
            fault::injected(fault::DEQUEUE)
        })
    }

    #[test]
    fn a_lone_worker_pops_a_batch_once() {
        assert_eq!(batch_dequeues(1), 1, "no other worker to share the batch with");
    }

    #[test]
    fn a_wider_pool_still_shares_a_batch() {
        assert!(
            batch_dequeues(2) >= 2,
            "the batch must be re-offered to the second worker"
        );
    }

    #[test]
    fn expired_factor_job_never_executes() {
        let service = QrService::builder().workers(1).build();
        let spec = spec_64x16();
        let handle = service
            .submit_with(
                &spec,
                well_conditioned(64, 16, 9),
                SubmitOptions::new().deadline(Duration::ZERO),
            )
            .unwrap();
        assert!(matches!(handle.wait(), Err(ServiceError::DeadlineExceeded { .. })));
        let stats = service.stats();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.execution.count, 0, "an expired job must never reach the kernels");
    }

    #[test]
    fn per_job_retry_override_escalates_without_rekeying_the_cache() {
        let service = QrService::builder().workers(2).build();
        let spec = spec_64x16();
        let hard = dense::random::matrix_with_condition(64, 16, 1e9, 41);
        // Under the spec's default policy the squared conditioning kills
        // CQR2.
        let err = service.submit(&spec, hard.clone()).unwrap().wait().unwrap_err();
        assert!(matches!(err, ServiceError::Plan(PlanError::NotPositiveDefinite(_))));
        // The same spec (same cached plan) with a per-job override walks
        // the ladder instead.
        let report = service
            .submit_with(&spec, hard, SubmitOptions::new().retry(crate::RetryPolicy::escalate()))
            .unwrap()
            .wait()
            .unwrap();
        let esc = report
            .escalation
            .as_ref()
            .expect("policy-enabled run records its ladder");
        assert!(esc.escalated(), "kappa 1e9 must escalate past CQR2");
        assert_eq!(report.algorithm, Algorithm::CaCqr3, "well inside shifted CQR3's limit");
        assert_eq!(service.plan_cache_len(), 1, "the override must not re-key the cache");
        let stats = service.stats();
        assert_eq!(stats.retries, 1, "one rung above the primary");
        assert_eq!(stats.escalations, 1);
    }
}
