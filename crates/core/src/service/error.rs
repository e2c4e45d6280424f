//! The typed error surface of the [`QrService`](super::QrService) engine.
//!
//! Service-level failures extend the existing [`PlanError`] hierarchy: every
//! planning or factorization error surfaces unchanged inside
//! [`ServiceError::Plan`] (via [`From`], so `?` composes), and the engine
//! adds only the failure modes the plan layer cannot have — a shut-down
//! pool, a worker that died mid-job, and a job shed, expired or cancelled
//! before it ran.

use crate::driver::PlanError;

/// Why the service could not accept, schedule, or complete a job.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// Planning or factoring failed; carries the underlying typed
    /// [`PlanError`] (invalid configuration, shape mismatch, loss of
    /// positive definiteness, …).
    Plan(PlanError),
    /// The service no longer accepts jobs: it was closed
    /// ([`close`](super::QrService::close) or drop-in-progress), or its
    /// last worker has exited, so nothing would ever drain the queue. A
    /// submission that would previously have blocked forever against a
    /// dead pool fails with this instead — including submitters already
    /// parked on a full queue when the pool dies.
    ShuttingDown,
    /// The worker executing the job panicked. Carries the panic payload's
    /// message when it was a string. The pool survives: the worker catches
    /// the unwind and keeps serving subsequent jobs.
    WorkerPanicked {
        /// Panic message, or `"<non-string panic payload>"`.
        message: String,
    },
    /// One panel of a [`factor_many`](super::QrService::factor_many) call
    /// failed; carries which input and why. Use
    /// [`try_factor_many`](super::QrService::try_factor_many) to keep the
    /// other panels' reports instead.
    BatchJobFailed {
        /// Index of the failing matrix within the submitted batch.
        index: usize,
        /// The job's underlying failure.
        source: Box<ServiceError>,
    },
    /// The job's deadline passed before a worker could execute it. The
    /// job never ran (deadlines are checked at dequeue — *lazy*
    /// cancellation), so no partial work exists and the service's state is
    /// exactly as if the job had not been submitted.
    DeadlineExceeded {
        /// How long the job sat in the queue before the expiry was
        /// observed.
        waited: std::time::Duration,
        /// The deadline budget the submission carried.
        budget: std::time::Duration,
    },
    /// The job was cancelled via [`JobHandle::cancel`](super::JobHandle::cancel)
    /// before a worker dequeued it. Like an expired deadline, the job never
    /// ran.
    Cancelled,
    /// Admission control rejected the submission: the pool's observed p99
    /// queue wait already exceeds the job's deadline budget, so accepting
    /// it would almost certainly waste a queue slot on a job that expires
    /// at dequeue. Retry later, raise the deadline, or submit without one.
    Overloaded {
        /// The pool's current p99 queue wait.
        queue_p99: std::time::Duration,
        /// The deadline budget that lost to it.
        budget: std::time::Duration,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Plan(e) => write!(f, "job failed: {e}"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::WorkerPanicked { message } => {
                write!(f, "worker panicked while factoring: {message}")
            }
            ServiceError::BatchJobFailed { index, source } => {
                write!(f, "batch job {index} failed: {source}")
            }
            ServiceError::DeadlineExceeded { waited, budget } => {
                write!(
                    f,
                    "job deadline exceeded before execution (waited {waited:?}, budget {budget:?})"
                )
            }
            ServiceError::Cancelled => write!(f, "job was cancelled before execution"),
            ServiceError::Overloaded { queue_p99, budget } => {
                write!(
                    f,
                    "service overloaded: p99 queue wait {queue_p99:?} exceeds the deadline budget {budget:?}"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Plan(e) => Some(e),
            ServiceError::BatchJobFailed { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The queue refuses work only once it is closed or has no worker left.
impl<T> From<super::queue::PushError<T>> for ServiceError {
    fn from(_: super::queue::PushError<T>) -> ServiceError {
        ServiceError::ShuttingDown
    }
}

impl From<PlanError> for ServiceError {
    fn from(e: PlanError) -> ServiceError {
        ServiceError::Plan(e)
    }
}

impl From<pargrid::GridError> for ServiceError {
    fn from(e: pargrid::GridError) -> ServiceError {
        ServiceError::Plan(PlanError::Grid(e))
    }
}

impl From<crate::config::ParamError> for ServiceError {
    fn from(e: crate::config::ParamError) -> ServiceError {
        ServiceError::Plan(PlanError::Param(e))
    }
}

impl From<crate::tuner::TunerError> for ServiceError {
    fn from(e: crate::tuner::TunerError) -> ServiceError {
        ServiceError::Plan(PlanError::Tuning(e))
    }
}
