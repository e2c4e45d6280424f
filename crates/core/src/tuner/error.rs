//! The typed error surface of the autotuner.
//!
//! Tuner failures fold into the existing [`PlanError`](crate::driver::PlanError)
//! / [`ServiceError`](crate::service::ServiceError) hierarchy via [`From`],
//! so `?` composes from a tuning call all the way out through the service
//! layer — and an empty candidate set is a value, never a panic.

/// Why the tuner could not produce a ranked report.
#[derive(Clone, Debug, PartialEq)]
pub enum TunerError {
    /// No runnable configuration exists for the requested shape, rank
    /// count, and algorithm filter. Carries the search that came up empty.
    NoCandidates {
        /// Global row count.
        m: usize,
        /// Global column count.
        n: usize,
        /// Simulated rank count searched.
        processors: usize,
    },
}

impl std::fmt::Display for TunerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TunerError::NoCandidates { m, n, processors } => {
                write!(
                    f,
                    "no runnable configuration for a {m}x{n} factorization on {processors} ranks"
                )
            }
        }
    }
}

impl std::error::Error for TunerError {}
