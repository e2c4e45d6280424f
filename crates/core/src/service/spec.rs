//! What a submission says: the plan-cache key ([`JobSpec`]), the operand
//! ([`JobInput`]) and the per-submission quality-of-service knobs
//! ([`SubmitOptions`]).

use crate::config::CfrParams;
use crate::driver::{Algorithm, PlanError, QrPlan, QrPlanBuilder, RetryPolicy};
use baseline::BlockCyclic;
use costmodel::CandidateConfig;
use dense::Matrix;
use pargrid::GridShape;
use simgrid::{Machine, RuntimeKind};
use std::sync::Arc;
use std::time::Duration;

/// A hashable description of *what* to factor: the plan-cache key.
///
/// These are the [`QrPlanBuilder`] knobs that affect the schedule — shape,
/// [`Algorithm`], grid or block-cyclic layout, CFR3D base size, inverse
/// depth and retry policy (the builder carries one `JobSpec` plus the
/// machine model and runtime, which are properties of the whole service).
/// Knobs left unset are resolved into a [`CandidateConfig`] when the plan
/// is built. Two jobs with equal specs share one cached [`QrPlan`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[must_use = "a JobSpec does nothing until submitted to a QrService"]
pub struct JobSpec {
    pub(crate) m: usize,
    pub(crate) n: usize,
    pub(crate) algorithm: Algorithm,
    pub(crate) grid: Option<GridShape>,
    pub(crate) block_cyclic: Option<BlockCyclic>,
    pub(crate) base_size: Option<usize>,
    pub(crate) inverse_depth: usize,
    pub(crate) retry: RetryPolicy,
}

impl JobSpec {
    /// Starts a spec for factoring `m × n` matrices with the defaults of
    /// [`QrPlan::new`]: algorithm [`Algorithm::CaCqr2`], the paper's base
    /// size, `inverse_depth = 0`.
    pub fn new(m: usize, n: usize) -> JobSpec {
        JobSpec {
            m,
            n,
            algorithm: Algorithm::CaCqr2,
            grid: None,
            block_cyclic: None,
            base_size: None,
            inverse_depth: 0,
            retry: RetryPolicy::none(),
        }
    }

    /// Chooses the QR variant.
    pub fn algorithm(mut self, algorithm: Algorithm) -> JobSpec {
        self.algorithm = algorithm;
        self
    }

    /// Sets the `c × d × c` processor grid (CA family and 1D-CQR2).
    pub fn grid(mut self, grid: GridShape) -> JobSpec {
        self.grid = Some(grid);
        self
    }

    /// Sets the 2D block-cyclic layout ([`Algorithm::Pgeqrf`]).
    pub fn block_cyclic(mut self, block_cyclic: BlockCyclic) -> JobSpec {
        self.block_cyclic = Some(block_cyclic);
        self
    }

    /// Overrides the CFR3D base-case size `n₀` (CA family).
    pub fn base_size(mut self, base_size: usize) -> JobSpec {
        self.base_size = Some(base_size);
        self
    }

    /// Sets the paper's `InverseDepth` knob (CA family).
    pub fn inverse_depth(mut self, inverse_depth: usize) -> JobSpec {
        self.inverse_depth = inverse_depth;
        self
    }

    /// Sets the default [`RetryPolicy`] of this spec's plan: every job
    /// factored through it escalates on Cholesky breakdown or a failed
    /// condition gate (see [`QrPlan::factor_with_policy`]). Part of the
    /// cache key — specs differing only in policy cache separate plans.
    /// Per-job overrides via [`SubmitOptions::retry`] don't need this.
    pub fn retry(mut self, retry: RetryPolicy) -> JobSpec {
        self.retry = retry;
        self
    }

    /// Row count of matrices this spec factors.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Column count of matrices this spec factors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The spec that asks for exactly `config` on `m × n` matrices — every
    /// schedule knob set, the retry policy at its default. Does not check
    /// that `config` is runnable: building the plan does.
    pub(crate) fn from_config(m: usize, n: usize, config: &CandidateConfig) -> JobSpec {
        let spec = JobSpec::new(m, n).algorithm(config.algorithm());
        match *config {
            CandidateConfig::Cqr1d { p } => spec.grid(GridShape { c: 1, d: p }),
            CandidateConfig::CaCqr2 {
                c,
                d,
                base_size,
                inverse_depth,
            }
            | CandidateConfig::CaCqr3 {
                c,
                d,
                base_size,
                inverse_depth,
            } => spec
                .grid(GridShape { c, d })
                .base_size(base_size)
                .inverse_depth(inverse_depth),
            CandidateConfig::Pgeqrf { pr, pc, nb } => spec.block_cyclic(BlockCyclic { pr, pc, nb }),
        }
    }

    /// Resolves the optional knobs into the [`CandidateConfig`] this spec
    /// asks for: the 1D partition takes its rank count from the grid, an
    /// unset base size becomes the paper's `n/c²`, knobs irrelevant to the
    /// algorithm are dropped. Errors only when the layout knob is unset;
    /// runnability is [`driver::validate`](crate::driver::validate)'s call.
    pub(crate) fn resolve(&self) -> Result<CandidateConfig, PlanError> {
        let algorithm = self.algorithm;
        if algorithm == Algorithm::Pgeqrf {
            let BlockCyclic { pr, pc, nb } = self.block_cyclic.ok_or(PlanError::MissingBlockCyclic)?;
            return Ok(CandidateConfig::Pgeqrf { pr, pc, nb });
        }
        let grid = self.grid.ok_or(PlanError::MissingGrid { algorithm })?;
        if algorithm == Algorithm::Cqr2_1d {
            return Ok(CandidateConfig::Cqr1d { p: grid.p() });
        }
        let GridShape { c, d } = grid;
        let base_size = self
            .base_size
            .unwrap_or_else(|| CfrParams::default_for(self.n, c).base_size);
        let inverse_depth = self.inverse_depth;
        Ok(match algorithm {
            Algorithm::CaCqr3 => CandidateConfig::CaCqr3 {
                c,
                d,
                base_size,
                inverse_depth,
            },
            _ => CandidateConfig::CaCqr2 {
                c,
                d,
                base_size,
                inverse_depth,
            },
        })
    }

    /// Builds the validated plan this spec describes, under the given
    /// simulated machine model and rank placement. Services do this
    /// internally (and cache the result, keyed on the spec itself); tuner
    /// callers use it to build plans straight from
    /// [`TunerCandidate`](crate::tuner::TunerCandidate) specs.
    pub fn build_plan(&self, machine: Machine, runtime: RuntimeKind) -> Result<QrPlan, PlanError> {
        QrPlanBuilder {
            spec: *self,
            machine,
            runtime,
        }
        .build()
    }
}

/// A job's operand: owned outright, or shared behind an `Arc` so submission
/// copies a pointer instead of the matrix.
///
/// Built implicitly — [`QrService::submit`](super::QrService::submit) takes
/// `impl Into<JobInput>`, so `submit(&spec, matrix)` moves the operand in
/// while `submit(&spec, arc)` (or the
/// [`submit_ref`](super::QrService::submit_ref) convenience) shares it
/// zero-copy.
pub enum JobInput {
    /// The job owns its operand (moved in; freed when the job completes).
    Owned(Matrix),
    /// The operand is shared; the caller keeps its `Arc` and the service
    /// clones only the pointer.
    Shared(Arc<Matrix>),
}

impl JobInput {
    /// The operand, however it is held.
    pub fn matrix(&self) -> &Matrix {
        match self {
            JobInput::Owned(m) => m,
            JobInput::Shared(m) => m,
        }
    }
}

impl From<Matrix> for JobInput {
    fn from(m: Matrix) -> JobInput {
        JobInput::Owned(m)
    }
}

impl From<Arc<Matrix>> for JobInput {
    fn from(m: Arc<Matrix>) -> JobInput {
        JobInput::Shared(m)
    }
}

impl From<&Arc<Matrix>> for JobInput {
    fn from(m: &Arc<Matrix>) -> JobInput {
        JobInput::Shared(Arc::clone(m))
    }
}

/// Per-submission quality-of-service knobs, taken by
/// [`QrService::submit_with`](super::QrService::submit_with).
///
/// The default (`SubmitOptions::new()`) is exactly the plain `submit`
/// behavior: no deadline, no cancellation pressure, the plan's own retry
/// policy.
#[derive(Clone, Copy, Debug, Default)]
#[must_use = "options do nothing until passed to a submission"]
pub struct SubmitOptions {
    pub(super) deadline: Option<Duration>,
    pub(super) retry: Option<RetryPolicy>,
}

impl SubmitOptions {
    /// No deadline, no retry override.
    pub fn new() -> SubmitOptions {
        SubmitOptions::default()
    }

    /// Gives the job `budget` from submission to *start of execution*.
    /// Deadlines are enforced lazily at dequeue: a worker that pops an
    /// expired job fulfills its handle with
    /// [`DeadlineExceeded`](super::ServiceError::DeadlineExceeded) without
    /// executing it. A job already running when its budget lapses runs to
    /// completion — kernels are never interrupted mid-factorization.
    /// Submissions with a deadline also pass admission control: when the
    /// pool's observed p99 queue wait already exceeds `budget`, the
    /// submission is shed with
    /// [`Overloaded`](super::ServiceError::Overloaded) instead of queued.
    pub fn deadline(mut self, budget: Duration) -> SubmitOptions {
        self.deadline = Some(budget);
        self
    }

    /// Overrides the plan's [`RetryPolicy`] for this job only — e.g.
    /// enabling escalation for one suspect input without re-keying the
    /// plan cache.
    pub fn retry(mut self, retry: RetryPolicy) -> SubmitOptions {
        self.retry = Some(retry);
        self
    }
}
