//! The typed error surface of the [`QrPlan`](super::QrPlan) facade.
//!
//! Every way a plan can be rejected at [`build`](super::QrPlanBuilder::build)
//! time — and every way a built plan can fail at
//! [`factor`](super::QrPlan::factor) time — is a distinct [`PlanError`]
//! variant carrying the offending values. Lower-layer errors
//! ([`ParamError`], [`GridError`], [`CholeskyError`]) convert in via
//! [`From`], so `?` composes across the layers.

use super::{Algorithm, EscalationAttempt};
use crate::config::ParamError;
use crate::tuner::TunerError;
use dense::cholesky::CholeskyError;
use dense::update::UpdateError;
use pargrid::GridError;

/// Why a [`QrPlan`](super::QrPlan) could not be built, or why a built plan
/// could not factor the given matrix.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanError {
    /// Invalid CFR3D parameters (base-case size / `InverseDepth` / grid
    /// power-of-two constraints).
    Param(ParamError),
    /// Invalid `c × d × c` grid shape.
    Grid(GridError),
    /// The chosen algorithm needs a [`pargrid::GridShape`] but none was
    /// supplied to the builder.
    MissingGrid {
        /// The algorithm that needed the grid.
        algorithm: Algorithm,
    },
    /// `Algorithm::Pgeqrf` needs a [`baseline::BlockCyclic`] descriptor but
    /// none was supplied to the builder.
    MissingBlockCyclic,
    /// The block-cyclic descriptor has a zero dimension or block size.
    BlockCyclicZero {
        /// Process-grid rows.
        pr: usize,
        /// Process-grid columns.
        pc: usize,
        /// Column block width.
        nb: usize,
    },
    /// The algorithm's row partition must divide the row count evenly.
    RowsNotDivisible {
        /// Global row count.
        m: usize,
        /// Required divisor (`d` for the CA family, `P` for 1D-CQR2).
        divisor: usize,
        /// The algorithm imposing the constraint.
        algorithm: Algorithm,
    },
    /// The CA family requires the grid's `c` to divide the column count.
    ColsNotDivisible {
        /// Global column count.
        n: usize,
        /// Required divisor (`c`).
        divisor: usize,
    },
    /// A communicator the plan would create is not a power of two in size.
    /// The butterfly collective schedules (recursive doubling/halving,
    /// binomial trees) on both execution backends require power-of-two
    /// groups; catching this at build time replaces a runtime panic in the
    /// collectives layer.
    CommNotPowerOfTwo {
        /// Which grid dimension forms the offending communicator
        /// (`"pr"` / `"pc"` for the block-cyclic baseline's column and row
        /// groups).
        what: &'static str,
        /// The non-power-of-two group size.
        size: usize,
    },
    /// `Algorithm::Pgeqrf` requires the panel width `nb` to divide `n`.
    BlockSizeMismatch {
        /// Global column count.
        n: usize,
        /// Block-cyclic panel width.
        nb: usize,
    },
    /// Reduced QR requires `m ≥ n`.
    NotTall {
        /// Global row count.
        m: usize,
        /// Global column count.
        n: usize,
    },
    /// The matrix handed to [`factor`](super::QrPlan::factor) does not have
    /// the shape the plan was built for.
    InputShapeMismatch {
        /// `(m, n)` the plan was built for.
        expected: (usize, usize),
        /// `(rows, cols)` of the matrix actually supplied.
        got: (usize, usize),
    },
    /// The factorization itself failed: the Gram matrix lost positive
    /// definiteness (ill-conditioned or rank-deficient input). Carries the
    /// offending pivot; consider [`Algorithm::CaCqr3`], which is
    /// unconditionally stable for numerically full-rank input.
    NotPositiveDefinite(CholeskyError),
    /// A factorization nominally succeeded but the computed `R` failed its
    /// rung's condition gate (`κ₁(R)` estimate above the range that rung's
    /// stability proof covers). The per-attempt error an escalating walk
    /// records for a rejected non-terminal rung.
    ConditionTooHigh {
        /// The Hager–Higham κ₁ estimate of the computed `R`.
        estimate: f64,
        /// The rejected rung's acceptance limit:
        /// [`RetryPolicy::KAPPA_MAX`](super::RetryPolicy::KAPPA_MAX) for the
        /// CQR2 family, `KAPPA_MAX² / (64·(mn + n(n+1)))` for shifted CQR3.
        limit: f64,
    },
    /// The input holds a NaN or an infinity, or a factorization ran to the
    /// end with an `R` that does (a finite input that overflows). No run
    /// with such an `R` is accepted. A rung that breaks down on a
    /// non-finite pivot or ends with a non-finite `R` has its input
    /// scanned, and a non-finite entry ends the walk at that first rung
    /// with this error under either policy; an overflowing finite input
    /// gets it from its terminal rung, bare under a disabled policy and
    /// inside [`PlanError::EscalationExhausted`] under an escalating one.
    NonFinite {
        /// The algorithm whose run ended the walk.
        algorithm: Algorithm,
    },
    /// A run was accepted, but its report diagnostics are not both finite
    /// (`‖A‖²` of a nonzero input left the exponent range, or a factor holds
    /// an `∞` or NaN), so nothing vouches for its factors: `factor` and a
    /// stream's `snapshot` return this instead.
    NonFiniteDiagnostics {
        /// The algorithm whose run was accepted.
        algorithm: Algorithm,
        /// Its `(orthogonality_error, residual_error)`.
        diagnostics: (f64, f64),
    },
    /// Every rung of an escalating walk failed, the terminal one included.
    /// Carries the full attempt chain — algorithm and error per rung — so
    /// the caller sees exactly what was tried. The terminal rung is
    /// accepted whatever its κ, so only its own breakdown or a non-finite
    /// `R` from a finite input ends a walk here (a non-finite input ends it
    /// at the first rung as [`PlanError::NonFinite`]); every ladder the
    /// builder makes ends on Householder `Pgeqrf`, which has no Cholesky to
    /// break.
    EscalationExhausted {
        /// One entry per attempted rung, in execution order.
        attempts: Vec<EscalationAttempt>,
    },
    /// Automatic planning ([`QrPlan::auto`](super::QrPlan::auto)) failed:
    /// the tuner found no runnable configuration.
    Tuning(TunerError),
    /// A streaming rank-k factor update failed (shape mismatch, appended
    /// Gram matrix not positive definite, or an indefinite downdate).
    Update(UpdateError),
    /// A downdate block does not match the oldest retained rows. Streams
    /// remove rows strictly oldest-first (a sliding window), and the rows
    /// handed to
    /// [`downdate_rows_with`](crate::stream::StreamingQr::downdate_rows_with),
    /// and their right-hand sides, must be bitwise the ones that were
    /// appended.
    StreamHistoryMismatch {
        /// Index within the downdate block of the first mismatched row.
        row: usize,
    },
    /// A right-hand-side block does not have the shape the stream (or the
    /// solve output) requires: its rows must pair one-to-one with the row
    /// block's, and its width must match the track's `nrhs` fixed at open
    /// (any width, zero included).
    RhsShapeMismatch {
        /// `(rows, nrhs)` the operation required.
        expected: (usize, usize),
        /// `(rows, cols)` actually supplied.
        got: (usize, usize),
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Param(e) => write!(f, "invalid CFR3D parameters: {e}"),
            PlanError::Grid(e) => write!(f, "invalid grid shape: {e}"),
            PlanError::MissingGrid { algorithm } => {
                write!(f, "{algorithm} needs a processor grid: call QrPlanBuilder::grid")
            }
            PlanError::MissingBlockCyclic => {
                write!(
                    f,
                    "pgeqrf needs a block-cyclic layout: call QrPlanBuilder::block_cyclic"
                )
            }
            PlanError::BlockCyclicZero { pr, pc, nb } => {
                write!(f, "block-cyclic layout must be non-empty (pr={pr}, pc={pc}, nb={nb})")
            }
            PlanError::RowsNotDivisible { m, divisor, algorithm } => {
                write!(f, "{algorithm} requires {divisor} | m (m={m})")
            }
            PlanError::ColsNotDivisible { n, divisor } => {
                write!(f, "the CA family requires c | n (n={n}, c={divisor})")
            }
            PlanError::CommNotPowerOfTwo { what, size } => {
                write!(
                    f,
                    "the collective schedules require power-of-two communicators: {what}={size}"
                )
            }
            PlanError::BlockSizeMismatch { n, nb } => {
                write!(f, "pgeqrf requires nb | n (n={n}, nb={nb})")
            }
            PlanError::NotTall { m, n } => {
                write!(f, "reduced QR requires m >= n (m={m}, n={n})")
            }
            PlanError::InputShapeMismatch { expected, got } => {
                write!(
                    f,
                    "plan was built for a {}x{} matrix but factor() received {}x{}",
                    expected.0, expected.1, got.0, got.1
                )
            }
            PlanError::NotPositiveDefinite(e) => write!(f, "factorization failed: {e}"),
            PlanError::ConditionTooHigh { estimate, limit } => {
                write!(
                    f,
                    "computed R fails the condition gate: kappa estimate {estimate:.3e} > limit {limit:.3e}"
                )
            }
            PlanError::NonFinite { algorithm } => {
                write!(f, "{algorithm} produced a non-finite R")
            }
            PlanError::NonFiniteDiagnostics { algorithm, diagnostics } => {
                write!(f, "{algorithm} ran to non-finite diagnostics {diagnostics:?}")
            }
            PlanError::EscalationExhausted { attempts } => {
                write!(f, "all {} escalation rungs failed:", attempts.len())?;
                for attempt in attempts {
                    match &attempt.error {
                        Some(e) => write!(f, " [{}: {e}]", attempt.algorithm)?,
                        None => write!(f, " [{}: ok]", attempt.algorithm)?,
                    }
                }
                Ok(())
            }
            PlanError::Tuning(e) => write!(f, "automatic planning failed: {e}"),
            PlanError::Update(e) => write!(f, "streaming update failed: {e}"),
            PlanError::StreamHistoryMismatch { row } => {
                write!(
                    f,
                    "downdate row {row} does not match the oldest retained rows \
                     (downdates remove rows oldest-first)"
                )
            }
            PlanError::RhsShapeMismatch { expected, got } => {
                write!(
                    f,
                    "right-hand-side block must be {}x{} but was {}x{}",
                    expected.0, expected.1, got.0, got.1
                )
            }
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Param(e) => Some(e),
            PlanError::Grid(e) => Some(e),
            PlanError::NotPositiveDefinite(e) => Some(e),
            PlanError::Tuning(e) => Some(e),
            PlanError::Update(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParamError> for PlanError {
    fn from(e: ParamError) -> PlanError {
        PlanError::Param(e)
    }
}

impl From<GridError> for PlanError {
    fn from(e: GridError) -> PlanError {
        PlanError::Grid(e)
    }
}

impl From<CholeskyError> for PlanError {
    fn from(e: CholeskyError) -> PlanError {
        PlanError::NotPositiveDefinite(e)
    }
}

impl From<TunerError> for PlanError {
    fn from(e: TunerError) -> PlanError {
        PlanError::Tuning(e)
    }
}

impl From<UpdateError> for PlanError {
    fn from(e: UpdateError) -> PlanError {
        PlanError::Update(e)
    }
}
