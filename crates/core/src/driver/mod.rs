//! The `QrPlan` facade: one typed entry point for every QR variant.
//!
//! # Plan / execute split
//!
//! The paper evaluates a *family* of algorithms — 1D-CQR2, CA-CQR2, the
//! shifted CA-CQR3 extension, and a ScaLAPACK-`PGEQRF`-like baseline — and
//! every experiment runs the same factorization many times over
//! different data. This module therefore splits the work the way
//! TSQR-style libraries do (Demmel, Grigori, Hoemmen & Langou):
//!
//! 1. **Plan** — [`QrPlan::new(m, n)`](QrPlan::new) returns a builder;
//!    choose the [`Algorithm`], the processor grid, the simulated
//!    [`simgrid::Machine`] and the CFR3D tuning knobs, then
//!    call [`build`](QrPlanBuilder::build). *All* validation happens here,
//!    once, and returns a typed [`PlanError`] (never a `panic!` or a
//!    `String`): power-of-two and divisibility constraints,
//!    `inverse_depth ≤ φ`, grid-vs-algorithm compatibility, `nb | n` for
//!    the baseline (see "One validator" below).
//! 2. **Execute** — [`QrPlan::factor`] borrows the plan (`&self`), runs the
//!    simulator, and returns a unified [`QrReport`]: global `Q`/`R`, the
//!    simulated elapsed time, the per-rank α-β-γ [`CostLedger`]s, and
//!    computed orthogonality/residual diagnostics. A plan is reusable
//!    across any number of same-shape matrices — the batching primitive
//!    for high-throughput workloads — and comparing algorithms is a loop
//!    over [`Algorithm::ALL`] instead of four bespoke call sites.
//!
//! # One validator
//!
//! "What runs" has one resolved description, [`costmodel::CandidateConfig`]
//! (an [`Algorithm`] plus exactly that algorithm's schedule knobs), and one
//! rule for "is this config runnable for `m × n`": [`validate`]. Its callers:
//! [`QrPlanBuilder::build`], after resolving the optional knobs into a
//! config (the only place [`PlanError::MissingGrid`] /
//! [`PlanError::MissingBlockCyclic`] arise); the escalation ladder, which
//! proposes a shifted-CQR3 and a Householder config and keeps what
//! validates (a stream refresh off the plan's row count filters the
//! one-rank form of the plan's rungs the same way); the
//! [`Tuner`](crate::tuner::Tuner), which hands it to
//! [`costmodel::enumerate`] as the acceptance predicate, so every ranked
//! candidate builds by construction. A built plan stores the validated
//! config (and its ladder as a list of configs); `factor` never
//! revalidates.
//!
//! # Which layer to use when
//!
//! * **The service layer** ([`crate::service::QrService`]) — concurrent
//!   batch serving on top of this facade: a keyed plan cache (repeat shapes
//!   never rebuild) and a bounded-queue worker pool, one thread per
//!   worker. Reach for it when many matrices — or many callers — need
//!   factoring at once.
//! * **This facade** — anything that factors matrices and wants validated
//!   configuration, unified reports, or cross-algorithm loops: examples,
//!   integration tests, applications.
//! * **The expert layer** ([`crate::validate`],
//!   [`baseline::run_pgeqrf_global`]) — single-algorithm global drivers
//!   without validation; useful when you need a factorization *without*
//!   the facade's diagnostics, e.g. exact cost cross-validation of one
//!   schedule under a unit machine.
//! * **The SPMD layer** ([`crate::ca_cqr2`], [`crate::cqr2_1d`],
//!   [`baseline::pgeqrf()`], …) — per-rank algorithm bodies for custom
//!   simulator harnesses: per-line cost measurement, fault injection,
//!   partial pipelines (e.g. PGEQRF without Q formation).
//!
//! # Example
//!
//! ```
//! use cacqr::driver::{Algorithm, QrPlan};
//! use pargrid::GridShape;
//! use simgrid::Machine;
//!
//! let a = dense::random::well_conditioned(64, 16, 1);
//! // Build once: validated, reusable.
//! let plan = QrPlan::new(64, 16)
//!     .algorithm(Algorithm::CaCqr2)
//!     .grid(GridShape::new(2, 4)?) // c=2, d=4: P = 16 simulated ranks
//!     .machine(Machine::stampede2(64))
//!     .build()?;
//! // Execute many times: factor borrows &self.
//! let report = plan.factor(&a)?;
//! assert!(report.orthogonality_error < 1e-12);
//! assert!(report.residual_error < 1e-12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod error;

pub use costmodel::Algorithm;
pub use error::PlanError;

use crate::config::CfrParams;
use crate::cqr1d::FlopCharges;
use crate::service::JobSpec;
use crate::validate::{run_ca_family, run_row_blocks, Diagnosed, Family, QrRun};
use baseline::{run_pgeqrf_global, BlockCyclic, PgeqrfConfig};
use costmodel::CandidateConfig;
use dense::cholesky::CholeskyError;
use dense::norms;
use dense::{BackendKind, MatRef, Matrix, WorkspacePool};
use pargrid::GridShape;
use simgrid::{run_spmd_pooled, CostLedger, Machine, RuntimeKind, SimConfig};
use std::sync::Arc;

/// Whether a plan may escalate to a more stable algorithm after a failed or
/// condition-rejected attempt: [`RetryPolicy::none`] or
/// [`RetryPolicy::escalate`].
///
/// The CQR2 family squares the condition number in the Gram matrix, so a
/// Cholesky breakdown on ill-conditioned input is a *normal operating
/// event*, not a bug. An escalating plan responds by walking a fixed
/// stability ladder — 1D-CQR2 / CA-CQR2 → shifted CA-CQR3 → the Householder
/// `Pgeqrf` baseline — re-running each rung from the same pooled arenas and
/// recording the attempt chain in [`QrReport::escalation`]. A stream's
/// refresh walks the same ladder at any live row count
/// ([`StreamingQr::refresh`](crate::stream::StreamingQr::refresh)).
///
/// An attempt escalates when it either breaks down
/// ([`PlanError::NotPositiveDefinite`]) or produces an `R` whose cheap
/// κ₁ estimate ([`dense::cond_estimate`]) exceeds its rung's limit
/// ([`PlanError::ConditionTooHigh`]), the range that rung's stability proof
/// covers: [`RetryPolicy::KAPPA_MAX`] for 1D-CQR2 / CA-CQR2,
/// `KAPPA_MAX² / (64·(mn + n(n+1)))` for shifted CA-CQR3 on `m × n` input
/// (`1/(64·(mn + n(n+1))·ε)`: 7.6e9 at 256 × 32); the terminal rung is
/// accepted whatever its κ. No rung is accepted with a NaN or an infinity
/// in its `R`, and an input holding one ends the walk at its first rung
/// ([`PlanError::NonFinite`]) under either policy. The default policy is
/// [`RetryPolicy::none`]: no retries, errors surface exactly as they did
/// before escalation existed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RetryPolicy {
    escalate: bool,
}

impl RetryPolicy {
    /// The CQR2 rung's condition-acceptance threshold: `1/√ε ≈ 6.7e7`, the
    /// classical boundary beyond which a CQR2-family `R` stops being
    /// trustworthy (the Gram matrix's κ² reaches 1/ε). The shifted CQR3
    /// rung's limit, `KAPPA_MAX² / (64·(mn + n(n+1)))`, is derived from it.
    pub const KAPPA_MAX: f64 = 6.7e7;

    /// No retries: a breakdown or condition violation surfaces directly.
    pub fn none() -> RetryPolicy {
        RetryPolicy { escalate: false }
    }

    /// Full escalation: walk every available ladder rung, gating each
    /// non-terminal rung on its own limit; the terminal rung is accepted
    /// whatever its κ.
    pub fn escalate() -> RetryPolicy {
        RetryPolicy { escalate: true }
    }

    /// Whether this policy ever retries.
    pub fn is_enabled(&self) -> bool {
        self.escalate
    }
}

/// The κ₁ limit a non-terminal rung running `algorithm` on `m × n` input is
/// accepted under. Shifted CholeskyQR3 is stable for
/// `κ₂(A) ≤ 1/(c·(mn + n(n+1))·u)` (Fukaya, Kannan, Nakatsukasa, Yamamoto &
/// Yanagisawa, SIAM J. Sci. Comput. 42(1), 2020): their shift
/// `α = 11(mn + n(n+1))u` leaves `κ₂(Q₁) = O(√α·κ₂(A))`, and CholeskyQR2 on
/// `Q₁` needs `8·κ₂(Q₁)·√((mn + n(n+1))u) ≤ 1` (Yamamoto et al., ETNA 44,
/// 2015), so `c` is `8·√11` times that `O`'s constant. We take `c·u = 64·ε`
/// (`c = 128`, 4.8 × `8·√11`, of which `cqr::shifted_pass`'s `ε = 2u` spends
/// √2) and write `1/ε` as `KAPPA_MAX²`. Not covered: that shift bounds
/// `‖A‖₂` by `‖A‖_F`, and the gate reads a κ₁ estimate; the κ sweeps in
/// `tests/stability_reproduction.rs` check accepted results against the
/// Householder oracle.
pub(crate) fn rung_limit(algorithm: Algorithm, m: usize, n: usize) -> f64 {
    let kappa_max = RetryPolicy::KAPPA_MAX;
    match algorithm {
        Algorithm::CaCqr3 => kappa_max * kappa_max / (64 * (m * n + n * (n + 1))) as f64,
        // PGEQRF only ever runs as the terminal rung.
        _ => kappa_max,
    }
}

/// One rung of an escalation ladder walk: which algorithm ran, and why it
/// was rejected (`None` marks the accepted attempt).
#[derive(Clone, Debug, PartialEq)]
pub struct EscalationAttempt {
    /// The algorithm this rung executed.
    pub algorithm: Algorithm,
    /// The typed rejection — breakdown or condition gate — or `None` for
    /// the attempt whose result the report carries.
    pub error: Option<Box<PlanError>>,
}

/// The record of a policy-enabled factorization: every rung attempted (in
/// order, with per-attempt errors) and the κ₁ estimate of the accepted `R`.
#[derive(Clone, Debug, PartialEq)]
pub struct EscalationReport {
    /// Attempted rungs in execution order; the last entry is the accepted
    /// one (its `error` is `None`).
    pub attempts: Vec<EscalationAttempt>,
    /// Hager–Higham κ₁ estimate of the accepted `R`.
    pub condition_estimate: f64,
}

impl EscalationReport {
    /// True when the accepted result came from a rung above the primary
    /// algorithm (i.e. at least one attempt was rejected).
    pub fn escalated(&self) -> bool {
        self.attempts.len() > 1
    }
}

/// The one rule for "is `config` runnable for `m × n` matrices" (callers:
/// [module docs](self#one-validator)). The 1D partition is the `1 × p × 1`
/// grid, so it shares the CA family's checks. The butterfly collectives
/// only handle power-of-two communicators: the grid shape enforces that for
/// the CA family, the baseline checks its column (`pr`) and row (`pc`)
/// groups here instead of letting the runtime assert mid-factorization.
pub fn validate(m: usize, n: usize, config: &CandidateConfig) -> Result<(), PlanError> {
    if m < n {
        return Err(PlanError::NotTall { m, n });
    }
    let (c, d, cfr) = match *config {
        CandidateConfig::Pgeqrf { pr, pc, nb } => {
            if pr == 0 || pc == 0 || nb == 0 {
                return Err(PlanError::BlockCyclicZero { pr, pc, nb });
            }
            if !n.is_multiple_of(nb) {
                return Err(PlanError::BlockSizeMismatch { n, nb });
            }
            for (what, size) in [("pr", pr), ("pc", pc)] {
                if !size.is_power_of_two() {
                    return Err(PlanError::CommNotPowerOfTwo { what, size });
                }
            }
            return Ok(());
        }
        CandidateConfig::Cqr1d { p } => (1, p, None),
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
        } => (c, d, Some((base_size, inverse_depth))),
    };
    GridShape::new(c, d)?;
    if !m.is_multiple_of(d) {
        return Err(PlanError::RowsNotDivisible {
            m,
            divisor: d,
            algorithm: config.algorithm(),
        });
    }
    if !n.is_multiple_of(c) {
        return Err(PlanError::ColsNotDivisible { n, divisor: c });
    }
    if let Some((base_size, inverse_depth)) = cfr {
        CfrParams::validated(n, c, base_size, inverse_depth)?;
    }
    Ok(())
}

/// A validated, reusable recipe for factoring `m × n` matrices.
///
/// Built by [`QrPlan::new`] → [`QrPlanBuilder::build`]; executed by
/// [`QrPlan::factor`], any number of times. See the [module docs](self).
///
/// A plan owns a [`WorkspacePool`]: the first `factor` warms one scratch
/// arena per simulated rank (Gram matrices, broadcast buffers, recursion
/// temporaries, local pieces — and the report diagnostics' Gram partial and
/// row panel, which run on the same ranks), and every later `factor` — from
/// any thread;
/// clones share the pool — reuses that storage with **zero arena
/// allocations**. This is the steady-state contract the batching layers
/// ([`crate::service::QrService`]) build their throughput on, and the
/// `alloc_steady_state` integration test enforces it.
#[derive(Clone, Debug)]
pub struct QrPlan {
    m: usize,
    n: usize,
    machine: Machine,
    runtime: RuntimeKind,
    /// What `factor` runs: validated once, at build.
    config: CandidateConfig,
    retry: RetryPolicy,
    /// Escalation rungs strictly above the primary algorithm, validated at
    /// build time (unviable rungs — e.g. no grid shape that satisfies a
    /// rung's divisibility — are simply absent).
    ladder: Vec<CandidateConfig>,
    pool: Arc<WorkspacePool>,
}

/// Builder for [`QrPlan`]; created by [`QrPlan::new`].
///
/// Unset knobs fall back to sensible defaults: algorithm
/// [`Algorithm::CaCqr2`], machine [`Machine::zero`] (pure correctness, no
/// simulated time), the paper's bandwidth-minimizing base-case size
/// `n₀ = n/c²`, and `inverse_depth = 0`. Knobs irrelevant to the chosen
/// algorithm (e.g. `inverse_depth` under [`Algorithm::Pgeqrf`]) are ignored.
/// The local kernels are not a knob: every plan runs
/// [`BackendKind::default_kind`] (the packed `Blocked` kernels).
#[derive(Clone, Copy, Debug)]
#[must_use = "a builder does nothing until .build() is called"]
pub struct QrPlanBuilder {
    /// Shape, schedule knobs and retry policy — the part of the
    /// configuration a service keys its plan cache on.
    pub(crate) spec: JobSpec,
    pub(crate) machine: Machine,
    pub(crate) runtime: RuntimeKind,
}

impl QrPlan {
    /// Starts planning a factorization of `m × n` matrices.
    #[allow(clippy::new_ret_no_self)] // the builder idiom the ISSUE-facing API specifies
    pub fn new(m: usize, n: usize) -> QrPlanBuilder {
        QrPlanBuilder {
            spec: JobSpec::new(m, n),
            machine: Machine::zero(),
            runtime: RuntimeKind::Simulated,
        }
    }

    /// Plans a factorization of `m × n` matrices *automatically*: the
    /// [`Tuner`](crate::tuner::Tuner) enumerates every runnable
    /// configuration (algorithm × grid × block size), scores them
    /// with the closed-form cost models on the host profile, and the
    /// winner is built into a validated plan — no hand-picked knobs.
    ///
    /// The choice is the cost model's alone, so it is a pure function of
    /// `(m, n)`, the rank count searched and the process's core count. To
    /// re-rank the leaders by measured runs in this process, drive the
    /// [`Tuner`](crate::tuner::Tuner) directly with
    /// [`calibrate`](crate::tuner::Tuner::calibrate) and build the winner
    /// via [`TunerReport::best_plan`](crate::tuner::TunerReport::best_plan).
    ///
    /// Errors with [`PlanError::Tuning`] when no runnable configuration
    /// exists (e.g. `m < n`).
    pub fn auto(m: usize, n: usize) -> Result<QrPlan, PlanError> {
        crate::tuner::Tuner::new(m, n).report()?.best_plan(Machine::zero())
    }

    /// Global row count the plan factors.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Global column count the plan factors.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The algorithm this plan runs.
    pub fn algorithm(&self) -> Algorithm {
        self.config.algorithm()
    }

    /// The simulated machine model charged during [`QrPlan::factor`].
    pub fn machine(&self) -> Machine {
        self.machine
    }

    /// The execution backend [`QrPlan::factor`] runs on: the simulator
    /// (unpinned rank threads) or the measured shared-memory runtime (rank
    /// threads pinned to cores). Both run the same shared-window transport.
    pub fn runtime(&self) -> RuntimeKind {
        self.runtime
    }

    /// The plan's default [`RetryPolicy`]. [`QrPlan::factor`] uses it;
    /// [`QrPlan::factor_with_policy`] overrides it per call.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The escalation rungs available above the primary algorithm, in the
    /// order a policy-enabled factorization would try them.
    pub fn escalation_rungs(&self) -> Vec<Algorithm> {
        self.ladder.iter().map(CandidateConfig::algorithm).collect()
    }

    /// The plan's scratch-arena pool: one warm algorithm arena and one
    /// communication arena per simulated rank after the first
    /// [`factor`](QrPlan::factor) (the diagnostics borrow the same ones).
    /// Exposed for observability
    /// — [`WorkspacePool::heap_allocations`] going flat across calls is the
    /// zero-steady-state-allocation guarantee, and
    /// [`WorkspacePool::parked_capacity`] is the plan's resident scratch
    /// footprint.
    pub fn workspace(&self) -> &WorkspacePool {
        &self.pool
    }

    /// Factors `a` repeatedly until the workspace pool's inventory settles
    /// (best-fit reuse converts a bounded number of buffers to larger size
    /// classes before every take is served warm), returning the number of
    /// warm-up calls performed. After this, `factor` runs with **zero**
    /// arena allocations for same-shape inputs — the precondition the
    /// allocation-counting tests, the repo benchmark's timed loops and
    /// latency-sensitive serving paths rely on.
    ///
    /// Warming is capped at a generous round bound; hitting the cap
    /// (possible when other threads factor through the same shared pool
    /// concurrently, keeping the counters moving) returns normally with
    /// the cap as the round count rather than failing — callers that need
    /// a hard guarantee assert pool flatness themselves afterwards, as the
    /// steady-state tests do. Errors only propagate from `factor` itself.
    pub fn warm_up(&self, a: &Matrix) -> Result<usize, PlanError> {
        const MAX_ROUNDS: usize = 12;
        let mut last = usize::MAX;
        for round in 1..=MAX_ROUNDS {
            self.factor(a)?;
            let now = self.pool.heap_allocations();
            if now == last {
                return Ok(round);
            }
            last = now;
        }
        Ok(MAX_ROUNDS)
    }

    /// Number of simulated ranks a factorization occupies.
    pub fn processors(&self) -> usize {
        self.config.processors()
    }

    /// Factors `a`, returning the unified report.
    ///
    /// Borrows the plan immutably: one plan can factor any number of
    /// same-shape matrices (sequentially or from multiple threads). The
    /// runtime errors are:
    ///
    /// - [`PlanError::InputShapeMismatch`]: `a` is not the plan's shape;
    /// - [`PlanError::NonFinite`]: `a` holds a NaN or an infinity (under
    ///   either policy) or, under a disabled policy, the run's `R` does;
    /// - [`PlanError::NotPositiveDefinite`]: under a disabled policy, loss
    ///   of positive definiteness on ill-conditioned input (see
    ///   [`Algorithm::CaCqr3`] for the unconditionally stable variant);
    /// - [`PlanError::EscalationExhausted`]: under an escalating policy, the
    ///   walk's terminal rung failed too. Its chain holds each rung's
    ///   breakdown, [`PlanError::ConditionTooHigh`] rejection or non-finite
    ///   `R`; a [`PlanError::ConditionTooHigh`] is never returned on its own.
    ///
    /// The caller's thread does no `O(mn)` work but allocating `Q`, which
    /// glibc clears on this thread once a freed `Q` has raised its mmap
    /// threshold (measured: from the third 8 MiB `Q` on). The ranks read
    /// their blocks of `a` in place and write `Q` in place into that one
    /// output allocation ([`crate::validate`]), and the returned report's
    /// *computed* diagnostics ([`dense::norms`]) run on the rank team too:
    /// `‖QᵀQ − I‖_F` from a symmetry-aware SYRK (`mn²` flops) and
    /// `‖A − QR‖_F / ‖A‖_F` from `A − QR` streamed through a 256-row scratch
    /// panel (`2mn²` flops) — `3mn²` next to CQR2's `≈4mn²` — are sums over
    /// contiguous row slabs, the partials combined in rank order (no `m × n`
    /// temporary, no allocation once warm). A 1D-CQR2 run (the 1D plan, and
    /// CA-CQR2 at `c = 1, n₀ = n`) is one region: each rank adds its row
    /// block's partials in its second pass while each `Q` panel is in cache
    /// ([`crate::cqr2_1d`]), on every rung the walk runs: a rung the walk
    /// then rejects for its κ₁ spends them. Any other run is
    /// diagnosed over `min(P, ⌈m/256⌉)` slabs of whole 256-row panels in a
    /// second region on the plan's runtime, which runs inline on the
    /// calling thread when it has one slab. A stream's
    /// [`snapshot`](crate::stream::StreamingQr::snapshot) runs all of this
    /// over the stream's live rows. The numbers are a pure
    /// function of `(a, Q, R)` and the slabs — bitwise equal across the two
    /// runtimes, and across the two routes when `m/P` is whole panels — and
    /// [`QrReport::wall_seconds`] leaves them out. Computing them eagerly
    /// keeps the report self-contained: the alternative — lazy diagnostics —
    /// would have to retain a copy of `a` inside every report, which is
    /// strictly worse for the batching path. Callers that need the factors
    /// with *no* post-processing at all belong on the expert layer
    /// ([`crate::validate`]).
    pub fn factor(&self, a: &Matrix) -> Result<QrReport, PlanError> {
        self.factor_with_policy(a, self.retry)
    }

    /// [`factor`](QrPlan::factor) with an explicit [`RetryPolicy`]
    /// overriding the plan's default — the per-job escalation hook the
    /// service layer's `SubmitOptions::retry` rides on.
    ///
    /// With a disabled policy this is byte-for-byte the classic single
    /// attempt. With an enabled one, a breakdown or a κ₁ estimate above the
    /// rung's limit walks the build-time escalation ladder
    /// (1D-CQR2 / CA-CQR2 → shifted CA-CQR3 → `Pgeqrf`), re-running from
    /// the same pooled arenas; the returned report records every attempt
    /// in [`QrReport::escalation`] and names the algorithm that actually
    /// produced the factors. Each rung has its own limit ([`RetryPolicy`]),
    /// so `Pgeqrf` runs only beyond shifted CQR3's or after a CQR3
    /// breakdown. The terminal rung is accepted whatever its κ; only a walk
    /// whose last rung itself fails returns the full chain as
    /// [`PlanError::EscalationExhausted`], and a Householder terminal rung
    /// has no Cholesky to fail. An input holding a NaN or an infinity fails
    /// at its first rung as [`PlanError::NonFinite`] under either policy.
    pub fn factor_with_policy(&self, a: &Matrix, policy: RetryPolicy) -> Result<QrReport, PlanError> {
        self.check_shape(a.as_ref())?;
        let accepted = self.run_rows(a.as_ref(), policy, true)?;
        QrReport::from_run(self, a.as_ref(), accepted)
    }

    /// The shape check of the entries that promise one: `factor` and a
    /// stream's open.
    pub(crate) fn check_shape(&self, a: MatRef<'_>) -> Result<(), PlanError> {
        if (a.rows(), a.cols()) != (self.m, self.n) {
            return Err(PlanError::InputShapeMismatch {
                expected: (self.m, self.n),
                got: (a.rows(), a.cols()),
            });
        }
        Ok(())
    }

    /// The one run entry: [`factor_with_policy`](QrPlan::factor_with_policy)
    /// up to the report, for `factor`, the tuner's measured runs and a
    /// stream's open, refresh and snapshot. It hands back the run, the
    /// algorithm that produced it and the escalation chain, plus the
    /// diagnostics when `diagnose` asked for them and the accepted run added
    /// them in its region (see [`QrPlan::factor`]). Callers that keep only
    /// `R` (a stream's open and refresh) or time the algorithm alone (the
    /// tuner) pass `false`.
    ///
    /// `a` has `n` columns and any row count from `n` up (a stream's floats).
    /// At the plan's `m` the plan's primary and ladder run on its ranks. At
    /// any other row count they run on one rank — 1D-CQR2 and CA-CQR2 as
    /// `Cqr1d { p: 1 }`, shifted CA-CQR3 on the `1 × 1` grid with `n₀ = n`,
    /// PGEQRF as one `n`-wide panel — each kept when it [`validate`]s for
    /// that row count, so a rung the build dropped stays absent here too.
    pub(crate) fn run_rows(
        &self,
        a: MatRef<'_>,
        policy: RetryPolicy,
        diagnose: bool,
    ) -> Result<AcceptedRun, PlanError> {
        if a.rows() == self.m {
            return self.walk(a, self.config, &self.ladder, policy, diagnose);
        }
        let (m, n) = (a.rows(), self.n);
        let one_rank = |config: &CandidateConfig| match config.algorithm() {
            Algorithm::Cqr2_1d | Algorithm::CaCqr2 => CandidateConfig::Cqr1d { p: 1 },
            Algorithm::CaCqr3 => CandidateConfig::CaCqr3 {
                c: 1,
                d: 1,
                base_size: n,
                inverse_depth: 0,
            },
            Algorithm::Pgeqrf => CandidateConfig::Pgeqrf { pr: 1, pc: 1, nb: n },
        };
        let primary = one_rank(&self.config);
        validate(m, n, &primary)?;
        let ladder: Vec<CandidateConfig> = self
            .ladder
            .iter()
            .map(one_rank)
            .filter(|config| validate(m, n, config).is_ok())
            .collect();
        self.walk(a, primary, &ladder, policy, diagnose)
    }

    /// The one escalation ladder walk: `primary`, then — under an enabled
    /// policy — each rung of `ladder` until one is accepted. Under a
    /// disabled policy the ladder is empty, the primary is the terminal
    /// rung, and its error comes back bare. A non-terminal rung is accepted
    /// when its `R`'s κ₁ estimate is within [`rung_limit`] for `a`'s shape;
    /// the terminal rung whatever the estimate. The walk makes that estimate
    /// itself, on this thread, once per finished rung and only under an
    /// enabled policy, whose escalation report records the accepted rung's:
    /// it is a factor's one κ₁ decision. No run is accepted whose `R` holds a
    /// NaN or an infinity: that is [`PlanError::NonFinite`], the terminal
    /// rung's error. A rung that breaks down on a non-finite pivot, or ends
    /// with a non-finite `R`, has `a` scanned on this thread: a NaN or an
    /// infinity there ends the walk at once with
    /// [`PlanError::NonFinite`] of that rung's algorithm, under either
    /// policy, since no rung can factor it.
    /// With `diagnose`, each rung adds the report diagnostics in its region
    /// where it can ([`QrPlan::run_config`]); a rung rejected for its κ₁ has
    /// spent them.
    fn walk(
        &self,
        a: MatRef<'_>,
        primary: CandidateConfig,
        ladder: &[CandidateConfig],
        policy: RetryPolicy,
        diagnose: bool,
    ) -> Result<AcceptedRun, PlanError> {
        let cfg = SimConfig::with_machine(self.machine).on_runtime(self.runtime);
        let ladder = if policy.is_enabled() { ladder } else { &[] };
        let mut attempts: Vec<EscalationAttempt> = Vec::new();
        for (i, config) in std::iter::once(primary).chain(ladder.iter().copied()).enumerate() {
            let algorithm = config.algorithm();
            let terminal = i == ladder.len();
            let limit = rung_limit(algorithm, a.rows(), a.cols());
            let (error, non_finite) = match self.run_config(config, a, cfg, diagnose) {
                Ok((run, diagnostics)) => {
                    let estimate = policy.is_enabled().then(|| dense::cond_estimate(run.r.as_ref()));
                    let finite = run.r.data().iter().all(|x| x.is_finite());
                    // The terminal rung is accepted whatever its κ — there
                    // is nothing better to escalate to, and Householder QR
                    // does not degrade with κ the way the Gram path does.
                    let within = terminal || estimate.is_some_and(|estimate| estimate <= limit);
                    let error = match estimate {
                        Some(estimate) if !within => PlanError::ConditionTooHigh { estimate, limit },
                        _ if !finite => PlanError::NonFinite { algorithm },
                        _ => {
                            let escalation = estimate.map(|condition_estimate| {
                                attempts.push(EscalationAttempt { algorithm, error: None });
                                EscalationReport {
                                    attempts,
                                    condition_estimate,
                                }
                            });
                            return Ok(AcceptedRun {
                                algorithm,
                                run,
                                diagnostics,
                                escalation,
                            });
                        }
                    };
                    (error, !finite)
                }
                Err(e) => (PlanError::NotPositiveDefinite(e), !e.pivot.is_finite()),
            };
            if non_finite && (0..a.rows()).any(|i| a.row(i).iter().any(|x| !x.is_finite())) {
                return Err(PlanError::NonFinite { algorithm });
            }
            if !policy.is_enabled() {
                return Err(error);
            }
            attempts.push(EscalationAttempt {
                algorithm,
                error: Some(Box::new(error)),
            });
        }
        Err(PlanError::EscalationExhausted { attempts })
    }

    /// Runs one validated config against the plan's pooled arenas, handing
    /// `diagnose` to the drivers that add the report diagnostics in their
    /// region: every config that runs 1D-CQR2 ([`run_row_blocks`]).
    /// Before a Gram rung, the chaos faultpoint injects a typed breakdown
    /// *upstream* of rank dispatch, so every simulated rank observes one
    /// consistent failure (the in-kernel pivot faultpoint is suppressed
    /// inside SPMD regions for exactly that reason); the Householder rung has
    /// no Cholesky to break.
    fn run_config(
        &self,
        config: CandidateConfig,
        a: MatRef<'_>,
        cfg: SimConfig,
        diagnose: bool,
    ) -> Result<Diagnosed, CholeskyError> {
        if config.algorithm() != Algorithm::Pgeqrf && dense::faultpoint!(dense::fault::CHOLESKY) {
            return Err(CholeskyError {
                index: 0,
                pivot: f64::NEG_INFINITY,
            });
        }
        let (backend, pool) = (BackendKind::default_kind(), &self.pool);
        match config {
            CandidateConfig::Cqr1d { p } => {
                run_row_blocks(a, p, cfg, pool, Family::Cqr2, FlopCharges::OneD, backend, diagnose)
            }
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
            } => {
                let shape = GridShape { c, d };
                let params = CfrParams {
                    base_size,
                    inverse_depth,
                    backend,
                };
                let family = match config.algorithm() {
                    Algorithm::CaCqr3 => Family::Cqr3,
                    _ => Family::Cqr2,
                };
                run_ca_family(a, shape, params, cfg, pool, family, diagnose)
            }
            CandidateConfig::Pgeqrf { pr, pc, nb } => {
                let grid = BlockCyclic { pr, pc, nb };
                Ok((run_pgeqrf_global(a, PgeqrfConfig { grid, backend }, cfg), None))
            }
        }
    }

    /// The report diagnostics of `a ≈ q·r` on the plan's rank team, for the
    /// runs that did not add them in their own region (the CA family's
    /// other configs, shifted CQR3, PGEQRF — a `factor`'s or a stream
    /// snapshot's): one contiguous row slab per rank of a second pooled
    /// region on the plan's runtime, partials summed in rank order (see
    /// [`QrPlan::factor`] and [`dense::norms`]). A one-slab region runs
    /// inline on this thread. `a` may have any row count (a stream's live
    /// window), not only the plan's.
    pub(crate) fn diagnose(&self, a: MatRef<'_>, q: &Matrix, r: &Matrix) -> (f64, f64) {
        let slabs = norms::slab_count(a.rows(), self.processors());
        let cfg = SimConfig::with_machine(self.machine).on_runtime(self.runtime);
        let report = run_spmd_pooled(slabs, cfg, &self.pool, |rank| {
            let rows = norms::slab_rows(a.rows(), slabs, rank.id());
            norms::slab_diagnostics(
                a.sub(rows.start, 0, rows.len(), a.cols()),
                q.view(rows.start, 0, rows.len(), q.cols()),
                r.as_ref(),
                BackendKind::default_kind(),
                &mut self.pool.checkout_at(rank.id()),
            )
        });
        let diagnostics = norms::combine_diagnostics(&report.results);
        // Each Gram partial goes back to the arena of the rank that took it.
        for (id, slab) in report.results.into_iter().enumerate() {
            self.pool.checkout_at(id).recycle(slab.gram);
        }
        diagnostics
    }

    /// Opens a [`StreamingQr`](crate::stream::StreamingQr) seeded by
    /// factoring `initial` through this plan: a live `R` factor that then
    /// absorbs rank-k row appends and downdates in `O(kn² + n³)` instead of
    /// re-factoring at any `k`, auto-refreshing through the plan only when
    /// its drift bound is crossed. Beside `R` the stream keeps a
    /// right-hand-side track, the projection `d = Aᵀb`, through every
    /// append/downdate, so [`solve`](crate::stream::StreamingQr::solve)
    /// answers `min ‖Ax − b‖` for the live row set at any moment without
    /// any caller-side accumulator.
    ///
    /// `initial` must have the plan's exact shape (the stream's width stays
    /// `n` for life; its row count then floats freely above `n`). `rhs`
    /// rows pair one-to-one with `initial`'s
    /// ([`PlanError::RhsShapeMismatch`] otherwise); its column count, zero
    /// included, fixes `nrhs` for the stream's life, and an `m × 0` `rhs`
    /// opens a stream that keeps only `R`. Clones the plan into the stream
    /// — plans are cheap handles sharing the arena pool and plan cache, so
    /// batch `factor` calls and any number of streams reuse one warm
    /// footprint.
    pub fn stream_with_rhs(&self, initial: &Matrix, rhs: &Matrix) -> Result<crate::stream::StreamingQr, PlanError> {
        crate::stream::StreamingQr::open(self.clone(), initial, rhs)
    }
}

impl QrPlanBuilder {
    /// Chooses the QR variant (default [`Algorithm::CaCqr2`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> QrPlanBuilder {
        self.spec = self.spec.algorithm(algorithm);
        self
    }

    /// Sets the `c × d × c` processor grid used by the CA family; for
    /// [`Algorithm::Cqr2_1d`] the grid contributes its total rank count
    /// `P = c²·d` (the 1D row partition ignores the shape).
    pub fn grid(mut self, shape: GridShape) -> QrPlanBuilder {
        self.spec = self.spec.grid(shape);
        self
    }

    /// Sets the 2D block-cyclic layout used by [`Algorithm::Pgeqrf`].
    pub fn block_cyclic(mut self, grid: BlockCyclic) -> QrPlanBuilder {
        self.spec = self.spec.block_cyclic(grid);
        self
    }

    /// Sets the simulated machine model (default [`Machine::zero`]).
    pub fn machine(mut self, machine: Machine) -> QrPlanBuilder {
        self.machine = machine;
        self
    }

    /// Chooses the rank placement (default [`RuntimeKind::Simulated`]:
    /// unpinned rank threads). [`RuntimeKind::SharedMem`] runs the same
    /// per-rank bodies on threads pinned to cores, making
    /// [`QrReport::wall_seconds`] a real measurement.
    pub fn runtime(mut self, runtime: RuntimeKind) -> QrPlanBuilder {
        self.runtime = runtime;
        self
    }

    /// Overrides the CFR3D base-case size `n₀` (default: the paper's
    /// bandwidth-minimizing `n/c²`, clamped to `[c, n]`). CA family only.
    pub fn base_size(mut self, base_size: usize) -> QrPlanBuilder {
        self.spec = self.spec.base_size(base_size);
        self
    }

    /// Sets the paper's `InverseDepth` knob (default 0: full explicit
    /// inverse). Must satisfy `inverse_depth ≤ log₂(n/n₀)`. CA family only.
    pub fn inverse_depth(mut self, inverse_depth: usize) -> QrPlanBuilder {
        self.spec = self.spec.inverse_depth(inverse_depth);
        self
    }

    /// Sets the plan's default [`RetryPolicy`] (default
    /// [`RetryPolicy::none`]: no escalation, classic error surfacing).
    pub fn retry(mut self, retry: RetryPolicy) -> QrPlanBuilder {
        self.spec = self.spec.retry(retry);
        self
    }

    /// Validates the configuration and returns the reusable plan.
    ///
    /// The optional knobs resolve into one [`CandidateConfig`] and
    /// [`validate`] checks every constraint on it here, once, so
    /// [`QrPlan::factor`] cannot trip an `assert!` in the layers below.
    pub fn build(self) -> Result<QrPlan, PlanError> {
        let spec = self.spec;
        let config = spec.resolve()?;
        validate(spec.m, spec.n, &config)?;
        Ok(QrPlan {
            m: spec.m,
            n: spec.n,
            machine: self.machine,
            runtime: self.runtime,
            config,
            retry: spec.retry,
            ladder: self.escalation_ladder(&config),
            pool: Arc::new(WorkspacePool::new()),
        })
    }

    /// Resolves the escalation rungs above the chosen algorithm. The ladder
    /// is always built (it is nearly free) so a per-call policy can enable
    /// escalation on a plan whose default policy is `none`. Rungs are
    /// proposed from this builder's configuration and kept when they
    /// [`validate`] — a shorter ladder, never a failed build.
    fn escalation_ladder(&self, primary: &CandidateConfig) -> Vec<CandidateConfig> {
        let (m, n, algorithm) = (self.spec.m, self.spec.n, self.spec.algorithm);
        let runnable = |config: &CandidateConfig| validate(m, n, config).is_ok();
        let mut rungs = Vec::new();
        // Shifted CA-CQR3 on the same grid at the default `n₀`: the
        // stability escalation within the Gram family.
        if matches!(algorithm, Algorithm::Cqr2_1d | Algorithm::CaCqr2) {
            let knobs = JobSpec {
                algorithm: Algorithm::CaCqr3,
                base_size: None,
                inverse_depth: 0,
                ..self.spec
            };
            rungs.extend(knobs.resolve().ok().filter(runnable));
        }
        // Householder Pgeqrf: the terminal rung — no Gram matrix, no κ²
        // squeeze. Use the builder's block-cyclic layout when it is
        // runnable, else a single-column grid: one n-wide panel, pr = the
        // largest power of two that keeps every rank holding at least one
        // row block, capped by the primary plan's rank count.
        if algorithm != Algorithm::Pgeqrf {
            let cap = primary.processors().min((m / n.max(1)).max(1)).max(1);
            let derived = CandidateConfig::Pgeqrf {
                pr: 1 << cap.ilog2(),
                pc: 1,
                nb: n,
            };
            let own = self.spec.algorithm(Algorithm::Pgeqrf).resolve().ok();
            rungs.extend(own.into_iter().chain([derived]).find(runnable));
        }
        rungs
    }
}

/// A completed factorization: global factors, cost accounting, and
/// numerical diagnostics — the same shape for every [`Algorithm`].
#[derive(Clone, Debug)]
pub struct QrReport {
    /// The algorithm that produced this report — under an enabled
    /// [`RetryPolicy`] this is the *accepted* rung, which may sit above the
    /// plan's primary algorithm.
    pub algorithm: Algorithm,
    /// The assembled `m × n` orthonormal factor.
    pub q: Matrix,
    /// The assembled `n × n` upper-triangular factor.
    pub r: Matrix,
    /// Simulated elapsed time under the plan's machine model.
    pub elapsed: f64,
    /// Measured wall-clock seconds of the algorithm's SPMD region — the
    /// real quantity on the shared-memory runtime (one process-wide
    /// measurement, not a model output). It times the algorithm alone: a
    /// 1D-CQR2 run adds the report diagnostics inside its region, and the
    /// slowest rank's seconds on them are taken out; a second diagnostics
    /// region is not counted at all.
    pub wall_seconds: f64,
    /// Per-rank α-β-γ cost ledgers.
    pub ledgers: Vec<CostLedger>,
    /// `‖QᵀQ − I‖_F` — deviation from orthogonality.
    pub orthogonality_error: f64,
    /// `‖A − QR‖_F / ‖A‖_F` — relative residual.
    pub residual_error: f64,
    /// The escalation record of a policy-enabled factorization: the full
    /// attempt chain with per-attempt errors and the accepted `R`'s κ₁
    /// estimate. `None` under the default [`RetryPolicy::none`] (the single
    /// classic attempt).
    pub escalation: Option<EscalationReport>,
}

/// What [`QrPlan::run_rows`] hands back: the accepted attempt's factors
/// and ledgers, and its report diagnostics when its region added them.
pub(crate) struct AcceptedRun {
    pub(crate) algorithm: Algorithm,
    pub(crate) run: QrRun,
    pub(crate) diagnostics: Option<(f64, f64)>,
    pub(crate) escalation: Option<EscalationReport>,
}

impl QrReport {
    /// The report of an accepted run over `a`, diagnosed in a second region
    /// ([`QrPlan::diagnose`]) when its own region added no diagnostics, or
    /// [`PlanError::NonFiniteDiagnostics`] when a diagnostic is not finite:
    /// nothing then vouches for the factors. A zero `A` factored with a zero
    /// `R` is exact, and its residual `0/0` reads `0`.
    pub(crate) fn from_run(plan: &QrPlan, a: MatRef<'_>, accepted: AcceptedRun) -> Result<QrReport, PlanError> {
        let AcceptedRun {
            algorithm,
            run,
            diagnostics,
            escalation,
        } = accepted;
        let (orthogonality_error, mut residual_error) = diagnostics.unwrap_or_else(|| plan.diagnose(a, &run.q, &run.r));
        let zero = |v: &[f64]| v.iter().all(|&x| x == 0.0);
        if residual_error.is_nan() && zero(run.r.data()) && (0..a.rows()).all(|i| zero(a.row(i))) {
            residual_error = 0.0;
        }
        if !(orthogonality_error.is_finite() && residual_error.is_finite()) {
            let diagnostics = (orthogonality_error, residual_error);
            return Err(PlanError::NonFiniteDiagnostics { algorithm, diagnostics });
        }
        Ok(QrReport {
            algorithm,
            q: run.q,
            r: run.r,
            elapsed: run.elapsed,
            wall_seconds: run.wall_seconds,
            ledgers: run.ledgers,
            orthogonality_error,
            residual_error,
            escalation,
        })
    }

    /// Total flops charged across all ranks.
    pub fn total_flops(&self) -> f64 {
        self.ledgers.iter().map(|l| l.flops).sum()
    }

    /// Total words sent across all ranks (8-byte `f64` units).
    pub fn total_words(&self) -> u64 {
        self.ledgers.iter().map(|l| l.words_sent).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::random::well_conditioned;

    #[test]
    fn plans_are_reusable_and_clone_shares_the_pool() {
        let plan = QrPlan::new(32, 8).grid(GridShape::new(2, 4).unwrap()).build().unwrap();
        let a = well_conditioned(32, 8, 1);
        let b = well_conditioned(32, 8, 2);
        let ra = plan.factor(&a).unwrap();
        let rb = plan.factor(&b).unwrap();
        assert!(ra.orthogonality_error < 1e-12);
        assert!(rb.orthogonality_error < 1e-12);
        assert_ne!(ra.r, rb.r, "different inputs, different factors");
        // Re-factoring the same input is bitwise reproducible — including
        // through a clone, which shares the warmed workspace pool.
        let clone = plan.clone();
        assert!(std::ptr::eq(plan.workspace(), clone.workspace()));
        let ra2 = clone.factor(&a).unwrap();
        assert_eq!(ra.q, ra2.q);
        assert_eq!(ra.r, ra2.r);
    }

    #[test]
    fn factor_reaches_zero_arena_allocation_steady_state() {
        let a = well_conditioned(32, 8, 5);
        for (name, plan) in [
            (
                "1d-cqr2",
                QrPlan::new(32, 8)
                    .algorithm(Algorithm::Cqr2_1d)
                    .grid(GridShape::one_d(4).unwrap())
                    .build()
                    .unwrap(),
            ),
            (
                "ca-cqr2",
                QrPlan::new(32, 8).grid(GridShape::new(2, 4).unwrap()).build().unwrap(),
            ),
        ] {
            let rounds = plan.warm_up(&a).unwrap();
            assert!(rounds >= 2, "{name}: convergence detection needs at least two calls");
            let baseline = plan.workspace().heap_allocations();
            assert!(baseline > 0, "{name}: the warm calls populate the pool");
            for _ in 0..3 {
                let _ = plan.factor(&a).unwrap();
            }
            assert_eq!(
                plan.workspace().heap_allocations(),
                baseline,
                "{name}: steady-state factors must not touch the arena allocator"
            );
        }
        // One-rank escalating jobs climb to shifted CQR3, every rung run by
        // the 1D bodies: a κ = 1e10 CA-CQR2 job breaks down, and a κ = 5e8
        // 1D-CQR2 job factors, adds its diagnostics in the region, and is
        // then rejected by the κ₁ gate. The failed rung, its spent Gram
        // partials and the retry must settle too.
        let one_rank = |m, n, algorithm| {
            let plan = QrPlan::new(m, n).algorithm(algorithm);
            plan.grid(GridShape::one_d(1).unwrap()).build().unwrap()
        };
        let cases = [
            (one_rank(256, 32, Algorithm::CaCqr2), (256, 32, 1e10, 5), false),
            (one_rank(128, 8, Algorithm::Cqr2_1d), (128, 8, 5e8, 2), true),
        ];
        for (plan, (m, n, kappa, seed), rejected_by_kappa) in cases {
            let hard = dense::random::matrix_with_condition(m, n, kappa, seed);
            let escalate = || {
                let report = plan.factor_with_policy(&hard, RetryPolicy::escalate()).unwrap();
                assert_eq!(
                    report.algorithm,
                    Algorithm::CaCqr3,
                    "κ = {kappa:e}: the job escalates one rung"
                );
                let first = &report.escalation.expect("an escalating walk records it").attempts[0];
                let condition = matches!(first.error.as_deref(), Some(PlanError::ConditionTooHigh { .. }));
                assert_eq!(condition, rejected_by_kappa, "κ = {kappa:e}: {first:?}");
            };
            let mut baseline = usize::MAX;
            for round in 0..12 {
                escalate();
                let now = plan.workspace().heap_allocations();
                if now == baseline {
                    break;
                }
                assert!(round < 11, "κ = {kappa:e}: arena inventory must converge");
                baseline = now;
            }
            for _ in 0..3 {
                escalate();
            }
            assert_eq!(
                plan.workspace().heap_allocations(),
                baseline,
                "κ = {kappa:e}: steady-state factors must not touch the arena allocator"
            );
        }
    }

    #[test]
    fn one_d_in_region_diagnostics_are_bitwise_the_second_regions() {
        // m/P is two whole panels, so the second region's slabs are exactly
        // the ranks' row blocks.
        let (m, n, p) = (4 * 2 * dense::norms::PANEL_ROWS, 16, 4);
        let a = well_conditioned(m, n, 29);
        for runtime in [RuntimeKind::Simulated, RuntimeKind::SharedMem] {
            let plan = QrPlan::new(m, n)
                .algorithm(Algorithm::Cqr2_1d)
                .grid(GridShape::one_d(p).unwrap())
                .runtime(runtime)
                .build()
                .unwrap();
            let accepted = plan.run_rows(a.as_ref(), RetryPolicy::none(), true).unwrap();
            let (ortho, resid) = accepted.diagnostics.expect("a 1D-CQR2 run adds them in its region");
            let (o2, r2) = plan.diagnose(a.as_ref(), &accepted.run.q, &accepted.run.r);
            assert_eq!(
                (ortho.to_bits(), resid.to_bits()),
                (o2.to_bits(), r2.to_bits()),
                "{runtime}"
            );
            let report = plan.factor(&a).unwrap();
            assert_eq!(
                report.orthogonality_error.to_bits(),
                ortho.to_bits(),
                "{runtime}: factor reports them"
            );
            assert_eq!(report.residual_error.to_bits(), resid.to_bits(), "{runtime}");
            let undiagnosed = plan.run_rows(a.as_ref(), RetryPolicy::none(), false).unwrap();
            assert!(
                undiagnosed.diagnostics.is_none(),
                "{runtime}: only a caller that reports them asks"
            );
            // Escalating, the accepted rung's diagnostics are the same.
            let escalated = plan.factor_with_policy(&a, RetryPolicy::escalate()).unwrap();
            assert_eq!(escalated.orthogonality_error.to_bits(), ortho.to_bits(), "{runtime}");
        }
    }

    #[test]
    fn the_escalation_report_carries_the_kappa_of_its_r() {
        // The walk's one estimate, of the accepted `R`, on every layout: a
        // 1D rung that adds its diagnostics in the region, a 2×2×2 CA rung
        // that adds them in a second region, and a terminal PGEQRF rung
        // after the CQR2 and shifted-CQR3 rungs were rejected.
        let (m, n) = (64, 16);
        let plan = |grid| QrPlan::new(m, n).grid(grid).retry(RetryPolicy::escalate());
        let cases = [
            (
                plan(GridShape::one_d(4).unwrap()).algorithm(Algorithm::Cqr2_1d),
                well_conditioned(m, n, 3),
                Algorithm::Cqr2_1d,
            ),
            (
                plan(GridShape::cubic(2).unwrap()),
                well_conditioned(m, n, 3),
                Algorithm::CaCqr2,
            ),
            (
                plan(GridShape::new(2, 2).unwrap()),
                dense::random::matrix_with_condition(m, n, 1e12, 1012),
                Algorithm::Pgeqrf,
            ),
        ];
        for (builder, a, algorithm) in cases {
            let report = builder.build().unwrap().factor(&a).unwrap();
            assert_eq!(report.algorithm, algorithm);
            let kappa = report
                .escalation
                .expect("an escalating walk records it")
                .condition_estimate;
            let want = dense::cond_estimate(report.r.as_ref());
            assert_eq!(kappa.to_bits(), want.to_bits(), "{algorithm:?}");
        }
    }

    #[test]
    fn unified_report_carries_costs() {
        let plan = QrPlan::new(32, 8)
            .grid(GridShape::new(2, 4).unwrap())
            .machine(Machine::stampede2(64))
            .build()
            .unwrap();
        let report = plan.factor(&well_conditioned(32, 8, 3)).unwrap();
        assert_eq!(report.ledgers.len(), plan.processors());
        assert!(report.elapsed > 0.0);
        assert!(report.total_flops() > 0.0);
        assert!(report.total_words() > 0);
    }

    #[test]
    fn factor_rejects_wrong_shape() {
        let plan = QrPlan::new(32, 8).grid(GridShape::new(2, 4).unwrap()).build().unwrap();
        let err = plan.factor(&well_conditioned(16, 8, 1)).unwrap_err();
        assert_eq!(
            err,
            PlanError::InputShapeMismatch {
                expected: (32, 8),
                got: (16, 8),
            }
        );
    }

    #[test]
    fn algorithm_names_are_stable() {
        let names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        assert_eq!(names, ["1d-cqr2", "ca-cqr2", "ca-cqr3", "pgeqrf"]);
    }

    #[test]
    fn escalation_ladder_is_built_per_primary_algorithm() {
        // CA-CQR2 on a divisible grid climbs through CA-CQR3 to PGEQRF.
        let plan = QrPlan::new(64, 16).grid(GridShape::new(2, 2).unwrap()).build().unwrap();
        assert_eq!(plan.escalation_rungs(), vec![Algorithm::CaCqr3, Algorithm::Pgeqrf]);
        // CA-CQR3 has only the terminal rung above it.
        let plan = QrPlan::new(64, 16)
            .algorithm(Algorithm::CaCqr3)
            .grid(GridShape::new(2, 2).unwrap())
            .build()
            .unwrap();
        assert_eq!(plan.escalation_rungs(), vec![Algorithm::Pgeqrf]);
        // PGEQRF is terminal: nothing above it.
        let plan = QrPlan::new(64, 16)
            .algorithm(Algorithm::Pgeqrf)
            .block_cyclic(baseline::BlockCyclic { pr: 2, pc: 1, nb: 16 })
            .build()
            .unwrap();
        assert!(plan.escalation_rungs().is_empty());
        // Default policy: disabled, and factor() reports no escalation.
        assert!(!plan.retry_policy().is_enabled());
    }

    #[test]
    fn default_policy_factor_carries_no_escalation_report() {
        let plan = QrPlan::new(32, 8).grid(GridShape::new(2, 4).unwrap()).build().unwrap();
        let report = plan.factor(&well_conditioned(32, 8, 1)).unwrap();
        assert!(report.escalation.is_none());
    }

    #[test]
    fn enabled_policy_records_the_accepted_rung_and_kappa() {
        let plan = QrPlan::new(64, 16)
            .grid(GridShape::new(2, 2).unwrap())
            .retry(RetryPolicy::escalate())
            .build()
            .unwrap();
        // A benign input is accepted on the primary rung, with the ladder
        // recorded as a single successful attempt.
        let report = plan.factor(&well_conditioned(64, 16, 11)).unwrap();
        let esc = report
            .escalation
            .as_ref()
            .expect("policy-enabled run records its ladder");
        assert!(!esc.escalated());
        assert_eq!(esc.attempts.len(), 1);
        assert_eq!(esc.attempts[0].algorithm, Algorithm::CaCqr2);
        assert!(esc.attempts[0].error.is_none());
        assert!(esc.condition_estimate >= 1.0);
        assert!(esc.condition_estimate <= RetryPolicy::KAPPA_MAX);
        assert_eq!(report.algorithm, Algorithm::CaCqr2);
    }

    #[test]
    fn breakdown_escalates_to_a_stable_rung() {
        let plan = QrPlan::new(64, 16)
            .grid(GridShape::new(2, 2).unwrap())
            .retry(RetryPolicy::escalate())
            .build()
            .unwrap();
        // kappa ~ 1e9 squares past 1/eps: the Gram matrix loses positive
        // definiteness and the primary CQR2 rung must break down.
        let hard = dense::random::matrix_with_condition(64, 16, 1e9, 41);
        assert!(
            plan.factor_with_policy(&hard, RetryPolicy::none()).is_err(),
            "the ladder-shaped input must actually defeat plain CQR2"
        );
        let report = plan.factor(&hard).unwrap();
        let esc = report.escalation.as_ref().unwrap();
        assert!(esc.escalated());
        assert_eq!(esc.attempts[0].algorithm, Algorithm::CaCqr2);
        assert!(matches!(
            esc.attempts[0].error.as_deref(),
            Some(PlanError::NotPositiveDefinite(_) | PlanError::ConditionTooHigh { .. })
        ));
        assert_ne!(report.algorithm, Algorithm::CaCqr2);
        assert!(esc.attempts.last().unwrap().error.is_none());
        // The escalated result matches direct PGEQRF to batch-CQR2-grade
        // bounds: orthogonality at working accuracy.
        assert!(report.orthogonality_error < 1e-12, "got {}", report.orthogonality_error);
        assert!(report.residual_error < 1e-12, "got {}", report.residual_error);
    }

    #[test]
    fn condition_gate_rejects_a_successful_but_untrustworthy_rung() {
        // Each non-terminal rung's limit is its own stability proof's range:
        // the CQR2 family's constant, and shifted CQR3's Fukaya et al. bound,
        // which shrinks as m·n grows.
        let (m, n) = (64, 16);
        let kappa_max = RetryPolicy::KAPPA_MAX;
        let cqr3_limit = kappa_max * kappa_max / (64.0 * (m * n + n * (n + 1)) as f64);
        assert_eq!(rung_limit(Algorithm::Cqr2_1d, m, n), kappa_max);
        assert_eq!(rung_limit(Algorithm::CaCqr2, m, n), kappa_max);
        assert_eq!(rung_limit(Algorithm::CaCqr3, m, n), cqr3_limit);
        assert_eq!(rung_limit(Algorithm::Pgeqrf, m, n), kappa_max);
        let plan = QrPlan::new(m, n)
            .grid(GridShape::new(2, 2).unwrap())
            .retry(RetryPolicy::escalate())
            .build()
            .unwrap();
        // The κ = 1e12 cell of the stability sweep: shifted CQR3 factors it,
        // but its R lies past that rung's proven range, so the gate rejects
        // a successful attempt and the terminal rung is accepted.
        let a = dense::random::matrix_with_condition(m, n, 1e12, 1012);
        let report = plan.factor(&a).unwrap();
        let esc = report.escalation.as_ref().unwrap();
        assert_eq!(report.algorithm, Algorithm::Pgeqrf);
        let chain: Vec<Algorithm> = esc.attempts.iter().map(|at| at.algorithm).collect();
        assert_eq!(chain, [Algorithm::CaCqr2, Algorithm::CaCqr3, Algorithm::Pgeqrf]);
        match esc.attempts[1].error.as_deref() {
            Some(&PlanError::ConditionTooHigh { estimate, limit }) => {
                assert_eq!(limit, cqr3_limit, "the rejection carries CQR3's own limit");
                assert!(estimate > limit);
            }
            other => panic!("expected CQR3's condition rejection, got {other:?}"),
        }
    }

    #[test]
    fn escalated_results_are_bitwise_reproducible() {
        let plan = QrPlan::new(64, 16)
            .grid(GridShape::new(2, 2).unwrap())
            .retry(RetryPolicy::escalate())
            .build()
            .unwrap();
        let hard = dense::random::matrix_with_condition(64, 16, 1e9, 41);
        let r1 = plan.factor(&hard).unwrap();
        let r2 = plan.factor(&hard).unwrap();
        assert_eq!(r1.algorithm, r2.algorithm);
        assert_eq!(r1.q, r2.q);
        assert_eq!(r1.r, r2.r);
    }
}
