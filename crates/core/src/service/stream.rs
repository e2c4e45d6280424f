//! Stateful stream jobs: named live [`StreamingQr`] factors served through
//! the same queue and worker pool as batch traffic.
//!
//! Per key, operations execute strictly in submission order: a sequence
//! turnstile serializes them across workers, and the queue is one FIFO, so
//! queue order equals sequence order. Across keys, and against
//! factorizations, everything runs concurrently.

use super::handle::{Slot, StreamHandle, Ticket};
use super::spec::{JobSpec, SubmitOptions};
use super::worker::{execute, Work};
use super::{QrService, ServiceError, Shared};
use crate::stream::{StreamSnapshot, StreamStatus, StreamingQr};
use dense::Matrix;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// One stream operation, submitted through [`QrService::stream_submit`]
/// (directly, or via the [`QrService::append_rows`] family of
/// conveniences, which construct these).
#[derive(Debug)]
#[must_use = "a StreamOp does nothing until submitted to a QrService"]
pub enum StreamOp {
    /// Append a block of rows to the stream's factor.
    Append(Matrix),
    /// Append rows together with their right-hand-side rows (streams
    /// opened with [`QrService::stream_open_with_rhs`]).
    AppendWith(Matrix, Matrix),
    /// Retire the stream's oldest rows (which must match `Matrix`).
    Downdate(Matrix),
    /// Retire rows together with their right-hand-side rows.
    DowndateWith(Matrix, Matrix),
    /// Answer the least-squares solve over the rows live at this
    /// operation's turnstile slot.
    Solve,
    /// Materialize a full [`StreamSnapshot`].
    Snapshot,
}

/// What a completed stream job produced: appends and downdates report the
/// stream's [`StreamStatus`]; solve jobs deliver the least-squares
/// solution; snapshot jobs deliver the full [`StreamSnapshot`].
#[derive(Clone, Debug)]
pub enum StreamOutcome {
    /// An append or downdate was applied.
    Update(StreamStatus),
    /// A least-squares solve was answered: the `n × nrhs` solution of
    /// `min ‖Ax − b‖` over the rows live at the solve's turnstile slot.
    Solution(Matrix),
    /// A snapshot was materialized.
    Snapshot(StreamSnapshot),
}

impl StreamOutcome {
    /// The update status, when this outcome came from an append/downdate.
    pub fn status(&self) -> Option<StreamStatus> {
        match self {
            StreamOutcome::Update(s) => Some(*s),
            StreamOutcome::Solution(_) | StreamOutcome::Snapshot(_) => None,
        }
    }

    /// The solution, when this outcome came from a solve job.
    pub fn into_solution(self) -> Option<Matrix> {
        match self {
            StreamOutcome::Solution(x) => Some(x),
            StreamOutcome::Update(_) | StreamOutcome::Snapshot(_) => None,
        }
    }

    /// The snapshot, when this outcome came from a snapshot job.
    pub fn into_snapshot(self) -> Option<StreamSnapshot> {
        match self {
            StreamOutcome::Snapshot(s) => Some(s),
            StreamOutcome::Update(_) | StreamOutcome::Solution(_) => None,
        }
    }
}

/// The mutable half of a registered stream: the live factor plus the
/// turnstile counter of operations already applied to it.
pub(super) struct StreamState {
    pub(super) applied: u64,
    pub(super) qr: StreamingQr,
}

/// A registered live stream. `state`/`turn` form the execution turnstile
/// (workers apply operations strictly by sequence number); `submit` issues
/// those sequence numbers, and is held across the queue push so that
/// per-stream queue order always equals sequence order — the invariant
/// that keeps a worker holding a later operation from waiting on one still
/// *behind* it in the queue (which would deadlock a width-1 pool).
pub(super) struct StreamEntry {
    pub(super) state: Mutex<StreamState>,
    pub(super) turn: Condvar,
    submit: Mutex<u64>,
}

/// One queued stream operation with its turnstile sequence number.
pub(super) struct StreamJob {
    ticket: Ticket,
    entry: Arc<StreamEntry>,
    op: StreamOp,
    seq: u64,
    slot: Arc<Slot<StreamOutcome>>,
}

/// Applies one stream operation at its turnstile slot.
///
/// Waits until every earlier-submitted operation on the same stream has
/// been applied (the FIFO queue guarantees those are already popped by
/// some worker, never still queued behind this one), applies this one, and
/// advances the turnstile — *unconditionally*, even when the operation
/// failed or panicked, or every later queued operation on the stream would
/// wait forever.
pub(super) fn run_stream_job(shared: &Shared, job: StreamJob) {
    // Lazy cancellation/expiry — but a stream operation owns a turnstile
    // sequence number, so it must still *consume its slot*: deliver the
    // typed error now (the caller stops waiting immediately), then take the
    // turn and advance the counter without touching the factor. Skipping
    // the turn would wedge every later operation on the stream forever.
    let rejected = job.ticket.dequeue_reject(&shared.stats, Instant::now());
    let runs = rejected.is_none();
    if let Some(err) = rejected {
        job.slot.complete(Err(err));
    }
    let mut st = job.entry.state.lock().unwrap_or_else(|e| e.into_inner());
    while st.applied != job.seq {
        st = job.entry.turn.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    let qr = &mut st.qr;
    let outcome = runs.then(|| {
        execute(shared, &job.ticket, || match &job.op {
            StreamOp::Append(b) => qr.append_rows(b.as_ref()).map(StreamOutcome::Update),
            StreamOp::AppendWith(b, c) => qr.append_rows_with(b.as_ref(), c.as_ref()).map(StreamOutcome::Update),
            StreamOp::Downdate(b) => qr.downdate_rows(b.as_ref()).map(StreamOutcome::Update),
            StreamOp::DowndateWith(b, c) => qr.downdate_rows_with(b.as_ref(), c.as_ref()).map(StreamOutcome::Update),
            StreamOp::Solve => qr.solve().map(StreamOutcome::Solution),
            StreamOp::Snapshot => qr.snapshot().map(StreamOutcome::Snapshot),
        })
    });
    st.applied += 1;
    job.entry.turn.notify_all();
    drop(st);
    if let Some(outcome) = outcome {
        job.slot.complete(outcome);
    }
}

impl QrService {
    /// Opens a named stream: factors `initial` through the spec's cached
    /// plan (synchronously, on the caller's thread — so planning and
    /// conditioning errors surface here, typed) and registers the live
    /// factor under `key`. Subsequent [`append_rows`](QrService::append_rows)
    /// / [`downdate_rows`](QrService::downdate_rows) /
    /// [`snapshot`](QrService::snapshot) jobs address it by key and run on
    /// the worker pool, sharing the service's plan cache and warm arena
    /// pools with batch traffic.
    pub fn stream_open(&self, key: &str, spec: &JobSpec, initial: &Matrix) -> Result<(), ServiceError> {
        self.stream_adopt(key, self.plan(spec)?.stream(initial)?)
    }

    /// Like [`stream_open`](QrService::stream_open), but the stream also
    /// maintains the right-hand-side track `d = Aᵀb` (see
    /// [`QrPlan::stream_with_rhs`](crate::QrPlan::stream_with_rhs)), so the
    /// service can answer [`solve`](QrService::solve) jobs against it.
    /// Updates must then go through
    /// [`append_rows_with`](QrService::append_rows_with) /
    /// [`downdate_rows_with`](QrService::downdate_rows_with) so the track
    /// stays synchronized with the factor.
    pub fn stream_open_with_rhs(
        &self,
        key: &str,
        spec: &JobSpec,
        initial: &Matrix,
        rhs: &Matrix,
    ) -> Result<(), ServiceError> {
        self.stream_adopt(key, self.plan(spec)?.stream_with_rhs(initial, rhs)?)
    }

    /// Registers a caller-configured [`StreamingQr`] under `key` — the
    /// escape hatch for streams that need knobs
    /// [`stream_open`](QrService::stream_open) does not expose, such as a
    /// custom [drift threshold](StreamingQr::with_drift_threshold). The
    /// adopted stream serves [`append_rows`](QrService::append_rows) /
    /// [`stream_submit`](QrService::stream_submit) jobs exactly like an
    /// opened one. The stream should come from a plan compatible with this
    /// service's runtime — typically one resolved via
    /// [`QrService::plan`].
    pub fn stream_adopt(&self, key: &str, qr: StreamingQr) -> Result<(), ServiceError> {
        let mut map = self.shared.streams.write().unwrap_or_else(|e| e.into_inner());
        if map.contains_key(key) {
            return Err(ServiceError::StreamExists { key: key.to_string() });
        }
        map.insert(
            key.to_string(),
            Arc::new(StreamEntry {
                state: Mutex::new(StreamState { applied: 0, qr }),
                turn: Condvar::new(),
                submit: Mutex::new(0),
            }),
        );
        Ok(())
    }

    /// Closes the named stream, returning whether one was open.
    ///
    /// Close is a *drain*, not a cancel: operations already queued hold
    /// their own `Arc` to the stream entry, so they execute to completion
    /// in submission order and their handles stay redeemable — including
    /// solves and snapshots queued just before the close. Only operations
    /// submitted after the close fail, with
    /// [`ServiceError::UnknownStream`]. The stream's factor state is
    /// dropped when the last queued operation finishes.
    pub fn stream_close(&self, key: &str) -> bool {
        self.shared
            .streams
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(key)
            .is_some()
    }

    /// Number of streams currently open.
    pub fn open_streams(&self) -> usize {
        self.shared.streams.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Enqueues a rank-k row-append against the named stream. Per key,
    /// operations apply strictly in submission order; the handle's
    /// [`StreamOutcome::status`] reports the post-append state (including
    /// whether a refresh fired).
    pub fn append_rows(&self, key: &str, rows: Matrix) -> Result<StreamHandle, ServiceError> {
        self.stream_submit(key, StreamOp::Append(rows), SubmitOptions::new())
    }

    /// Enqueues a rank-k row-append carrying the matching right-hand-side
    /// rows, for streams opened with
    /// [`stream_open_with_rhs`](QrService::stream_open_with_rhs): the
    /// factor and `d = Aᵀb` advance in the same turnstile slot.
    pub fn append_rows_with(&self, key: &str, rows: Matrix, rhs: Matrix) -> Result<StreamHandle, ServiceError> {
        self.stream_submit(key, StreamOp::AppendWith(rows, rhs), SubmitOptions::new())
    }

    /// Enqueues a downdate of the named stream's `rows.rows()` oldest rows
    /// (which must match what was appended — see
    /// [`StreamingQr::downdate_rows`]).
    pub fn downdate_rows(&self, key: &str, rows: Matrix) -> Result<StreamHandle, ServiceError> {
        self.stream_submit(key, StreamOp::Downdate(rows), SubmitOptions::new())
    }

    /// Enqueues a downdate that also retires the matching right-hand-side
    /// rows from the stream's `d = Aᵀb` track (see
    /// [`StreamingQr::downdate_rows_with`]).
    pub fn downdate_rows_with(&self, key: &str, rows: Matrix, rhs: Matrix) -> Result<StreamHandle, ServiceError> {
        self.stream_submit(key, StreamOp::DowndateWith(rows, rhs), SubmitOptions::new())
    }

    /// Enqueues a least-squares solve against the named stream: the handle
    /// delivers [`StreamOutcome::Solution`] with the `n × nrhs` minimizer
    /// of `min ‖Ax − b‖` over exactly the rows live when the solve's
    /// turnstile slot comes up — ordered after every operation submitted
    /// before it, bitwise-deterministic under pool contention. Requires a
    /// stream opened with
    /// [`stream_open_with_rhs`](QrService::stream_open_with_rhs).
    pub fn solve(&self, key: &str) -> Result<StreamHandle, ServiceError> {
        self.stream_submit(key, StreamOp::Solve, SubmitOptions::new())
    }

    /// Enqueues a snapshot of the named stream: the handle delivers a
    /// [`StreamSnapshot`] with explicit `Q` and batch-grade diagnostics
    /// (see [`StreamingQr::snapshot`]), ordered after every operation
    /// submitted before it.
    pub fn snapshot(&self, key: &str) -> Result<StreamHandle, ServiceError> {
        self.stream_submit(key, StreamOp::Snapshot, SubmitOptions::new())
    }

    /// The general stream submission entry: enqueues `op` against the
    /// named stream with per-job quality-of-service knobs (the
    /// [`QrService::append_rows`] family delegates here with defaults).
    /// Deadline submissions pass the same admission control as
    /// [`QrService::submit_with`]; a cancelled or expired stream operation
    /// still consumes its turnstile slot — later operations on the stream
    /// are never wedged — but leaves the factor state untouched.
    pub fn stream_submit(&self, key: &str, op: StreamOp, opts: SubmitOptions) -> Result<StreamHandle, ServiceError> {
        let ticket = Ticket::admit(&self.shared.stats, opts.deadline)?;
        let entry = self
            .shared
            .streams
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .map(Arc::clone)
            .ok_or_else(|| ServiceError::UnknownStream { key: key.to_string() })?;
        // Hold the sequence lock across the push: per-stream queue order
        // must equal sequence order (see `StreamEntry`). Only submitters to
        // the *same* stream serialize here.
        let mut next = entry.submit.lock().unwrap_or_else(|e| e.into_inner());
        let (slot, handle) = ticket.handle();
        self.enqueue(Work::Stream(StreamJob {
            ticket,
            entry: Arc::clone(&entry),
            op,
            seq: *next,
            slot,
        }))?;
        *next += 1;
        Ok(handle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::PlanError;
    use crate::service::tests::spec_64x16;
    use dense::random::{gaussian_matrix, well_conditioned};
    use std::time::Duration;

    #[test]
    fn cancelled_jobs_resolve_typed_without_executing() {
        let service = QrService::builder().workers(1).build();
        let spec = spec_64x16();
        let plan = service.plan(&spec).unwrap();
        // Park the lone worker deterministically: hand it a stream job
        // whose turnstile slot is one ahead of the applied counter, so it
        // waits until this thread advances the counter by hand.
        let entry = Arc::new(StreamEntry {
            state: Mutex::new(StreamState {
                applied: 0,
                qr: plan.stream(&well_conditioned(64, 16, 3)).unwrap(),
            }),
            turn: Condvar::new(),
            submit: Mutex::new(2),
        });
        let ticket = Ticket::admit(&service.shared.stats, None).unwrap();
        let (slot, parked) = ticket.handle();
        service
            .enqueue(Work::Stream(StreamJob {
                ticket,
                entry: Arc::clone(&entry),
                op: StreamOp::Snapshot,
                seq: 1,
                slot,
            }))
            .expect("queue open");
        // Queue a factor job behind the parked worker, then cancel it
        // before any worker can dequeue it.
        let handle = service.submit(&spec, well_conditioned(64, 16, 4)).unwrap();
        handle.cancel();
        assert!(
            handle.wait_timeout(Duration::from_millis(5)).is_none(),
            "the job cannot run while the only worker is parked"
        );
        // Release the turnstile; the worker applies the parked snapshot,
        // then pops the cancelled job and completes it typed.
        {
            let mut st = entry.state.lock().unwrap_or_else(|e| e.into_inner());
            st.applied = 1;
            entry.turn.notify_all();
        }
        parked.wait().unwrap();
        assert!(matches!(handle.wait(), Err(ServiceError::Cancelled)));
        assert_eq!(service.stats().cancelled, 1);
        // The pool survives and keeps serving.
        let report = service
            .submit(&spec, well_conditioned(64, 16, 5))
            .unwrap()
            .wait()
            .unwrap();
        assert!(report.orthogonality_error < 1e-12);
    }

    #[test]
    fn expired_stream_job_is_typed_and_does_not_wedge_the_turnstile() {
        // Fresh service: no queue-wait samples yet, so a zero budget
        // passes admission (p99 = 0 is not > 0) and then deterministically
        // expires at dequeue.
        let service = QrService::builder().workers(2).build();
        let spec = spec_64x16();
        service
            .stream_open("live", &spec, &well_conditioned(64, 16, 23))
            .unwrap();
        let expired = service
            .stream_submit(
                "live",
                StreamOp::Append(gaussian_matrix(2, 16, 1)),
                SubmitOptions::new().deadline(Duration::ZERO),
            )
            .unwrap();
        match expired.wait().unwrap_err() {
            ServiceError::DeadlineExceeded { budget, .. } => assert_eq!(budget, Duration::ZERO),
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        // The turnstile advanced past the expired slot and the factor
        // never saw its rows: the next append lands on 64 live rows.
        let ok = service.append_rows("live", gaussian_matrix(2, 16, 2)).unwrap();
        assert_eq!(ok.wait().unwrap().status().unwrap().rows, 66);
        assert_eq!(service.stats().expired, 1);
    }

    #[test]
    fn stream_jobs_apply_in_submission_order_and_match_a_direct_stream() {
        let service = QrService::builder().workers(4).build();
        let spec = spec_64x16();
        let a0 = well_conditioned(64, 16, 21);
        service.stream_open("live", &spec, &a0).unwrap();
        assert_eq!(service.open_streams(), 1);
        assert!(matches!(
            service.stream_open("live", &spec, &a0).unwrap_err(),
            ServiceError::StreamExists { .. }
        ));
        // Mirror the exact update sequence on a direct (single-threaded)
        // stream off the same cached plan.
        let mut direct = service.plan(&spec).unwrap().stream(&a0).unwrap();
        // Queue a burst of appends while batch jobs contend for the pool.
        let mut handles = Vec::new();
        let mut batch = Vec::new();
        for round in 0..6u64 {
            handles.push(service.append_rows("live", gaussian_matrix(2, 16, 30 + round)).unwrap());
            batch.push(service.submit(&spec, well_conditioned(64, 16, 50 + round)).unwrap());
        }
        for (round, h) in handles.into_iter().enumerate() {
            let status = h.wait().unwrap().status().unwrap();
            assert_eq!(status.rows, 64 + 2 * (round + 1), "appends apply in submission order");
            direct
                .append_rows(gaussian_matrix(2, 16, 30 + round as u64).as_ref())
                .unwrap();
        }
        let snap = service
            .snapshot("live")
            .unwrap()
            .wait()
            .unwrap()
            .into_snapshot()
            .unwrap();
        let direct_snap = direct.snapshot().unwrap();
        assert_eq!(
            snap.r.data(),
            direct_snap.r.data(),
            "bitwise determinism per (seed, update sequence) under contention"
        );
        assert!(snap.orthogonality_error.unwrap() < 1e-12);
        for h in batch {
            h.wait().unwrap();
        }
        assert!(service.stream_close("live"));
        assert_eq!(service.open_streams(), 0);
        assert!(matches!(
            service.append_rows("live", gaussian_matrix(2, 16, 1)).unwrap_err(),
            ServiceError::UnknownStream { .. }
        ));
        assert!(!service.stream_close("live"));
    }

    #[test]
    fn stream_job_failures_are_typed_and_do_not_wedge_the_stream() {
        let service = QrService::builder().workers(2).build();
        let spec = spec_64x16();
        let a0 = well_conditioned(64, 16, 23);
        service.stream_open("live", &spec, &a0).unwrap();
        // Wrong width: the kernel's typed shape error comes back through
        // the handle...
        let bad = service.append_rows("live", gaussian_matrix(2, 8, 1)).unwrap();
        assert!(matches!(
            bad.wait().unwrap_err(),
            ServiceError::Plan(PlanError::Update(dense::update::UpdateError::ShapeMismatch { .. }))
        ));
        // ...and the turnstile advanced past the failure: later operations
        // still run.
        let ok = service.append_rows("live", gaussian_matrix(2, 16, 2)).unwrap();
        assert_eq!(ok.wait().unwrap().status().unwrap().rows, 66);
    }
}
