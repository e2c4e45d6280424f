//! The cost-model-guided autotuner: from shape to configuration, no hands.
//!
//! The paper's thesis is that the best QR configuration is a *function of
//! the problem shape and the machine*: the tunable `c × d × c` grid trades
//! bandwidth for latency, algorithm choice itself flips with aspect ratio
//! (CAQR-family results; Demmel et al.), and block sizes move with cache
//! geometry. Until now every [`QrPlan`] caller re-derived that function by
//! hand. This module closes the loop:
//!
//! 1. **Enumerate** — [`Tuner::report`] lists every runnable configuration
//!    for `(m, n, P)`: the proposals of [`costmodel::enumerate`] (all four
//!    [`Algorithm`]s, every grid split, a base-size/panel-width sweep) that
//!    the plan validator [`driver::validate`](crate::driver::validate)
//!    accepts — so every candidate builds.
//! 2. **Score** — each candidate is priced with the exact closed-form cost
//!    models on a [`MachineCal`] profile. The default profile models *this
//!    process*: a nominal flop rate for the packed kernels every plan runs,
//!    a nominal α-β network (per-message software overhead for the
//!    simulated collectives, per-word memcpy cost), and an
//!    oversubscription factor for running `P` simulated ranks on `threads`
//!    cores. With [`Tuner::calibrate`] the flop rate is measured live
//!    ([`dense::probe`]) instead of assumed; the network stays nominal.
//! 3. **Refine** — under calibration, the top three candidates by
//!    predicted time — plus the best-predicted candidate of every algorithm
//!    family, so no family is eliminated by model bias alone — are run for
//!    real on [`RuntimeKind::Simulated`] (short, scaled-down rows, seeded
//!    input) and re-ranked by measured wall time, in this process only.
//!
//! The result is a [`TunerReport`]: every candidate, ranked, with predicted
//! α-β-γ cost and (optionally) measured seconds. [`QrPlan::auto`] and
//! [`QrService::plan_auto`](crate::service::QrService::plan_auto) are the
//! one-line front doors: both take the uncalibrated cost-model pick.
//!
//! Determinism: with calibration off (the default), tuning is a pure
//! function of `(m, n, P, threads)` — same inputs, same chosen
//! configuration, every time. Calibration adds wall-clock measurement and
//! therefore machine-dependent (but still seed-stable in *inputs*)
//! refinement.
//!
//! # Example
//!
//! ```
//! use cacqr::driver::QrPlan;
//!
//! // One line: enumerate, score, pick, validate.
//! let plan = QrPlan::auto(256, 32)?;
//! let report = plan.factor(&dense::random::well_conditioned(256, 32, 1))?;
//! assert!(report.orthogonality_error < 1e-12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod error;
pub mod json;

pub use error::TunerError;

use crate::driver::{validate, Algorithm, PlanError, QrPlan};
use crate::service::JobSpec;
use costmodel::{CandidateConfig, Cost, MachineCal};
use dense::random::well_conditioned;
use dense::BackendKind;
use simgrid::{Machine, RuntimeKind};
use std::time::Instant;

/// How many leading candidates by predicted time the calibration pass
/// measures (the best of each algorithm family is measured besides).
const TOP_K: usize = 3;

/// Target row count of the scaled-down calibration runs, rounded to each
/// candidate's row-divisibility constraint and capped at `m`.
const CALIBRATION_ROWS: usize = 512;

/// Repetitions per measured calibration run; the minimum is kept.
const CALIBRATION_REPS: usize = 2;

/// Nominal effective flop rate (seconds per flop) of the packed kernels
/// every plan runs, assumed when no live probe has run. It scales every
/// candidate's γ term alike, so it weighs computation against the nominal
/// α-β network without ranking kernels.
const NOMINAL_SECONDS_PER_FLOP: f64 = 2.5e-10;

/// The scoring profile for running simulated ranks inside this process:
/// a nominal per-message software overhead α (thread-pool synchronization,
/// not wire latency), a nominal per-word β at memcpy speed, and the given
/// measured or nominal compute rate.
fn host_profile(seconds_per_flop: f64) -> MachineCal {
    let net = Machine {
        alpha: 1.0e-6,
        beta: 1.5e-9,
        gamma: 0.0,
    };
    MachineCal::calibrated("host", net, seconds_per_flop)
}

/// One scored (and possibly measured) configuration in a [`TunerReport`].
#[derive(Clone, Copy, Debug)]
pub struct TunerCandidate {
    /// The configuration, as the cost model describes it.
    pub config: CandidateConfig,
    /// The ready-to-submit job spec ([`QrService`](crate::service::QrService)
    /// cache key) this candidate corresponds to.
    pub spec: JobSpec,
    /// Closed-form predicted α-β-γ cost.
    pub predicted: Cost,
    /// Predicted wall seconds on the scoring profile (including the
    /// simulated-ranks-on-real-cores oversubscription factor).
    pub predicted_seconds: f64,
    /// Measured wall seconds of the short calibration run, when one ran.
    pub measured_seconds: Option<f64>,
}

impl TunerCandidate {
    /// The candidate's algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.config.algorithm()
    }

    /// The seconds this candidate is ranked by: measured when available,
    /// predicted otherwise.
    pub fn score_seconds(&self) -> f64 {
        self.measured_seconds.unwrap_or(self.predicted_seconds)
    }
}

/// A completed tuning run: every candidate, ranked best-first.
#[derive(Clone, Debug)]
pub struct TunerReport {
    /// Global row count tuned for.
    pub m: usize,
    /// Global column count tuned for.
    pub n: usize,
    /// Simulated rank count searched.
    pub processors: usize,
    /// Cores the scoring assumed the ranks share (`simgrid::cores`).
    pub threads: usize,
    /// Whether live calibration (probe + measured top-K) ran.
    pub calibrated: bool,
    /// The microkernel probes backing the calibrated flop rates — one
    /// gemm probe *and one Gram-kernel (syrk) probe* of the packed kernels
    /// (empty without calibration or with an explicit scoring profile).
    /// The symmetry-aware blocked SYRK runs at a different effective rate
    /// than square gemm, so Gram-dominated rankings carry both.
    pub probes: Vec<dense::ProbeReport>,
    /// All scored candidates, best first.
    pub candidates: Vec<TunerCandidate>,
}

impl TunerReport {
    /// The winning candidate (reports are never empty).
    pub fn best(&self) -> &TunerCandidate {
        &self.candidates[0]
    }

    /// The winning spec, ready for a service cache.
    pub fn best_spec(&self) -> JobSpec {
        self.best().spec
    }

    /// Builds the winning plan under the given simulated machine model, on
    /// [`RuntimeKind::Simulated`], where the tuner measured it.
    pub fn best_plan(&self, machine: Machine) -> Result<QrPlan, PlanError> {
        self.best().spec.build_plan(machine, RuntimeKind::Simulated)
    }
}

/// Seed of the calibration input matrices.
const CALIBRATION_SEED: u64 = 0x5eed;

/// The autotuner. Configure with the builder-style methods, then call
/// [`Tuner::report`]. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Tuner {
    m: usize,
    n: usize,
    processors: Option<usize>,
    profile: Option<MachineCal>,
    algorithms: Vec<Algorithm>,
    calibrate: bool,
}

impl Tuner {
    /// Starts tuning factorizations of `m × n` matrices with the defaults:
    /// auto-chosen rank count, all algorithms, the nominal host scoring
    /// profile, calibration off.
    pub fn new(m: usize, n: usize) -> Tuner {
        Tuner {
            m,
            n,
            processors: None,
            profile: None,
            algorithms: Algorithm::ALL.to_vec(),
            calibrate: false,
        }
    }

    /// Pins the simulated rank count `P` (default: the first of
    /// {16, 8, 4, 32, 64, 2, 1} with a runnable candidate).
    pub fn processors(mut self, p: usize) -> Tuner {
        self.processors = Some(p);
        self
    }

    /// Scores candidates on an explicit machine profile (e.g.
    /// [`MachineCal::stampede2`] to plan for the paper's machine) instead
    /// of the host profile.
    pub fn profile(mut self, profile: MachineCal) -> Tuner {
        self.profile = Some(profile);
        self
    }

    /// Restricts the search to the given algorithms (default: all four).
    pub fn algorithms(mut self, algorithms: &[Algorithm]) -> Tuner {
        self.algorithms = algorithms.to_vec();
        self
    }

    /// Enables live calibration: a microkernel probe replaces the nominal
    /// flop rate, and the top three candidates by predicted time (plus the
    /// best-predicted candidate of each algorithm family) are re-ranked by
    /// short measured runs on scaled-down rows.
    pub fn calibrate(mut self, calibrate: bool) -> Tuner {
        self.calibrate = calibrate;
        self
    }

    /// Enumerates, scores, optionally calibrates, and ranks. Errors with
    /// [`TunerError::NoCandidates`] when nothing runnable exists — never
    /// panics on an empty search space.
    pub fn report(&self) -> Result<TunerReport, TunerError> {
        let threads = simgrid::cores();
        let processors = match self.processors {
            Some(p) => p,
            None => self.pick_processors(),
        };
        let configs = self.runnable_configs(processors);
        // Running P simulated ranks on `threads` real cores serializes the
        // surplus: all candidates share the factor, so it scales the
        // predicted seconds into wall-clock territory without moving ranks.
        let oversubscription = (processors as f64 / threads as f64).max(1.0);

        let mut probes = Vec::new();
        let cal = match self.profile {
            Some(cal) => cal,
            None if self.calibrate => {
                let p = dense::default_probe(BackendKind::default_kind());
                let ps = dense::default_syrk_probe(BackendKind::default_kind());
                probes = vec![p, ps];
                // Price the CQR2 family's γ with the measured Gram rate
                // blended in: CholeskyQR's local flops split roughly evenly
                // between the Gram kernel (syrk, ~2× the gemm ledger rate
                // under the symmetry-aware kernel) and gemm-shaped work
                // (Q = A·R⁻¹), so a gemm-only rate systematically
                // over-prices the Gram-heavy candidates. PGEQRF stays at the
                // pure gemm rate (Householder has no Gram kernel). The top-K
                // re-rank below still measures whole factorizations live.
                host_profile(p.seconds_per_flop).with_gamma_cqr2(0.5 * (p.seconds_per_flop + ps.seconds_per_flop))
            }
            None => host_profile(NOMINAL_SECONDS_PER_FLOP),
        };
        let mut candidates: Vec<TunerCandidate> = configs
            .iter()
            .filter(|config| cal.candidate_fits(self.m, self.n, config))
            .map(|config| TunerCandidate {
                config: *config,
                spec: JobSpec::from_config(self.m, self.n, config),
                predicted: costmodel::predicted_cost(self.m, self.n, config),
                predicted_seconds: cal.time_candidate(self.m, self.n, config) * oversubscription,
                measured_seconds: None,
            })
            .collect();
        if candidates.is_empty() {
            return Err(TunerError::NoCandidates {
                m: self.m,
                n: self.n,
                processors,
            });
        }
        candidates.sort_by(|a, b| a.predicted_seconds.total_cmp(&b.predicted_seconds));

        if self.calibrate {
            // Measure the global top-K by predicted time, plus the best
            // candidate of every algorithm family present: the families'
            // effective flop rates differ (BLAS-1/2-bound panels vs large
            // gemms), so a single-rate model can systematically misrank one
            // family — the stopwatch gets a vote from each.
            let mut measure_set: Vec<usize> = (0..TOP_K.min(candidates.len())).collect();
            for algorithm in &self.algorithms {
                if let Some(i) = candidates.iter().position(|c| c.algorithm() == *algorithm) {
                    if !measure_set.contains(&i) {
                        measure_set.push(i);
                    }
                }
            }
            for i in measure_set {
                let measured = self.measure(&candidates[i]);
                candidates[i].measured_seconds = Some(measured);
            }
            // Finite measured candidates outrank unmeasured ones (a
            // model-only score never overrules a stopwatch), and a
            // candidate whose calibration run *failed* (non-finite
            // "measurement") ranks behind everything — it must never win.
            let class = |c: &TunerCandidate| match c.measured_seconds {
                Some(v) if v.is_finite() => 0u8,
                None => 1,
                Some(_) => 2,
            };
            candidates.sort_by(|a, b| {
                class(a)
                    .cmp(&class(b))
                    .then(a.score_seconds().total_cmp(&b.score_seconds()))
            });
        }

        Ok(TunerReport {
            m: self.m,
            n: self.n,
            processors,
            threads,
            calibrated: self.calibrate,
            probes,
            candidates,
        })
    }

    /// The searched configurations for `processors` ranks: every proposal of
    /// [`costmodel::enumerate`] that belongs to an enabled algorithm and
    /// that the plan validator accepts for this shape.
    fn runnable_configs(&self, processors: usize) -> Vec<CandidateConfig> {
        costmodel::enumerate(self.n, processors, |config| {
            self.algorithms.contains(&config.algorithm()) && validate(self.m, self.n, config).is_ok()
        })
    }

    /// The default rank count: the first of a fixed preference order that
    /// yields at least one runnable candidate under the same filters
    /// `report` applies (algorithm set *and* the scoring profile's memory
    /// feasibility — a P that enumerates candidates which all exceed node
    /// memory would otherwise error spuriously). Deterministic by
    /// construction.
    fn pick_processors(&self) -> usize {
        // Memory feasibility does not depend on the flop rate, so the
        // nominal profile stands in for a calibrated one.
        let cal = self.profile.unwrap_or_else(|| host_profile(NOMINAL_SECONDS_PER_FLOP));
        for p in [16usize, 8, 4, 32, 64, 2, 1] {
            if self
                .runnable_configs(p)
                .iter()
                .any(|c| cal.candidate_fits(self.m, self.n, c))
            {
                return p;
            }
        }
        1
    }

    /// Short measured run of one candidate on scaled-down rows; returns the
    /// best wall time over the configured repetitions, or `+∞` when the
    /// run fails (an unmeasurable candidate loses the ranking, it does not
    /// abort the tuning).
    fn measure(&self, cand: &TunerCandidate) -> f64 {
        let divisor = match cand.config {
            CandidateConfig::Cqr1d { p } => p,
            CandidateConfig::CaCqr2 { d, .. } | CandidateConfig::CaCqr3 { d, .. } => d,
            CandidateConfig::Pgeqrf { .. } => 1,
        };
        let mut rows = (CALIBRATION_ROWS / divisor).max(1) * divisor;
        while rows < self.n {
            rows += divisor;
        }
        if rows > self.m {
            rows = self.m; // the candidate validated for m, so divisor | m
        }
        let spec = JobSpec::from_config(rows, self.n, &cand.config);
        let Ok(plan) = spec.build_plan(Machine::zero(), RuntimeKind::Simulated) else {
            return f64::INFINITY;
        };
        let a = well_conditioned(rows, self.n, CALIBRATION_SEED);
        let mut best = f64::INFINITY;
        for _ in 0..CALIBRATION_REPS {
            let t = Instant::now();
            // The undiagnosed core: the report diagnostics are the same
            // `3·rows·n²` flops whatever the candidate runs, so timing them
            // only dilutes the differences this run exists to rank.
            if plan.run_rows(a.as_ref(), plan.retry_policy(), false).is_err() {
                return f64::INFINITY;
            }
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_ranks_ascending_by_prediction() {
        let report = Tuner::new(256, 32).report().unwrap();
        assert!(!report.candidates.is_empty());
        assert!(!report.calibrated);
        assert_eq!(report.threads, simgrid::cores());
        for pair in report.candidates.windows(2) {
            assert!(pair[0].predicted_seconds <= pair[1].predicted_seconds);
        }
        // The winner builds and factors.
        let plan = report.best_plan(Machine::zero()).unwrap();
        let out = plan.factor(&well_conditioned(256, 32, 3)).unwrap();
        assert!(out.orthogonality_error < 1e-12);
    }

    #[test]
    fn empty_search_space_is_a_typed_error() {
        // A prime column count kills every CA grid with c > 1; filtering to
        // the CA family with a c=1-hostile row count leaves nothing.
        let err = Tuner::new(100, 7)
            .processors(64)
            .algorithms(&[Algorithm::CaCqr2])
            .report()
            .unwrap_err();
        assert_eq!(
            err,
            TunerError::NoCandidates {
                m: 100,
                n: 7,
                processors: 64
            }
        );
    }

    #[test]
    fn runnable_configs_cover_all_families_on_exactly_p_ranks() {
        let cands = Tuner::new(1 << 12, 1 << 6).runnable_configs(64);
        for algorithm in Algorithm::ALL {
            assert!(cands.iter().any(|c| c.algorithm() == algorithm), "{algorithm}");
        }
        assert!(cands.iter().any(|c| matches!(c, CandidateConfig::CaCqr2 { c: 2, .. })));
        // Every candidate occupies exactly the requested rank count.
        assert!(cands.iter().all(|c| c.processors() == 64));
    }

    #[test]
    fn enumeration_respects_divisibility() {
        // m = 100 excludes d = 64 CA grids and p = 64 1D; a prime n excludes
        // every CA grid with c > 1 and clamps the baseline to nb = n.
        let cands = Tuner::new(100, 7).runnable_configs(64);
        assert!(!cands.iter().any(|c| matches!(c, CandidateConfig::Cqr1d { .. })));
        assert!(!cands.iter().any(|c| matches!(c, CandidateConfig::CaCqr2 { .. })));
        assert!(cands.iter().all(|c| matches!(c, CandidateConfig::Pgeqrf { nb: 7, .. })));
        assert!(!cands.is_empty());
    }

    #[test]
    fn wide_matrices_enumerate_nothing() {
        assert!(Tuner::new(8, 16).runnable_configs(4).is_empty());
    }

    #[test]
    fn costs_are_positive_and_finite() {
        for cand in Tuner::new(1 << 10, 1 << 5).runnable_configs(16) {
            let cost = costmodel::predicted_cost(1 << 10, 1 << 5, &cand);
            assert!(cost.gamma > 0.0 && cost.gamma.is_finite(), "{cand}: {cost:?}");
            assert!(cost.alpha >= 0.0 && cost.beta >= 0.0);
        }
    }

    #[test]
    fn tuning_is_deterministic_without_calibration() {
        let a = Tuner::new(1 << 12, 1 << 6).report().unwrap();
        let b = Tuner::new(1 << 12, 1 << 6).report().unwrap();
        assert_eq!(a.best().spec, b.best().spec);
        assert_eq!(a.candidates.len(), b.candidates.len());
        for (x, y) in a.candidates.iter().zip(&b.candidates) {
            assert_eq!(x.config, y.config);
            assert_eq!(x.predicted_seconds.to_bits(), y.predicted_seconds.to_bits());
        }
    }

    #[test]
    fn calibration_measures_the_leaders() {
        let report = Tuner::new(128, 16).processors(4).calibrate(true).report().unwrap();
        assert!(report.calibrated);
        assert!(report.probes.iter().any(|p| p.kernel == dense::ProbeKernel::Gemm));
        let measured = report
            .candidates
            .iter()
            .filter(|c| c.measured_seconds.is_some())
            .count();
        assert!(measured >= 2, "at least the top-K get stopwatches, got {measured}");
        // Every algorithm family present was measured at least once.
        for algorithm in Algorithm::ALL {
            let family: Vec<_> = report
                .candidates
                .iter()
                .filter(|c| c.algorithm() == algorithm)
                .collect();
            if !family.is_empty() {
                assert!(
                    family.iter().any(|c| c.measured_seconds.is_some()),
                    "{algorithm} family must get a measured vote"
                );
            }
        }
        // Measured candidates lead the ranking.
        assert!(report.candidates[0].measured_seconds.is_some());
        assert!(report.best().measured_seconds.unwrap().is_finite());
    }
}
