//! Candidate configurations: the one resolved description of "what runs".
//!
//! The paper's central claim is that the right algorithm *and* the right
//! grid flip with the matrix shape: tall-skinny wants 1D-ish grids (small
//! `c`), squarer shapes want replication (large `c`), and past a latency
//! threshold the Householder baseline wins outright. This module turns that
//! search space into data. A [`CandidateConfig`] is an [`Algorithm`] plus
//! exactly that algorithm's schedule knobs — the value the plan builder
//! resolves its optional knobs into, a built plan executes and the tuner
//! ranks. [`enumerate`] *proposes* configurations
//! for `(n, P)` — every split of `P`, a base-size sweep, a block-size sweep
//! — and keeps the ones its caller's predicate accepts; [`predicted_cost`]
//! prices each one with the crate's exact closed-form models, so a tuner
//! can rank them on any machine profile without touching the simulator.
//!
//! Whether a configuration is *runnable* for an `m × n` matrix is not
//! decided here: that rule lives in one place, `cacqr::driver::validate`,
//! which the tuner passes to [`enumerate`] as the predicate.

use crate::cost::Cost;

/// The QR variants the workspace implements, as data.
///
/// Cross-algorithm comparisons iterate [`Algorithm::ALL`] and build one
/// plan per variant from the same builder configuration.
#[allow(non_camel_case_types)] // `Cqr2_1d` mirrors the paper's "1D-CQR2" naming
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Algorithm 7: 1D-CholeskyQR2 over a flat row partition (`P` ranks).
    Cqr2_1d,
    /// Algorithm 9: CA-CQR2 over the tunable `c × d × c` grid — the paper's
    /// headline algorithm. `c = d` gives 3D-CQR2, `c = 1` matches
    /// [`Algorithm::Cqr2_1d`] bitwise.
    CaCqr2,
    /// Shifted CA-CQR3 (the paper's §V extension): one shifted pass then
    /// CA-CQR2; unconditionally stable for numerically full-rank input.
    CaCqr3,
    /// The ScaLAPACK-`PGEQRF`-like 2D block-cyclic Householder baseline.
    Pgeqrf,
}

impl Algorithm {
    /// Every variant, in the order the paper presents them.
    pub const ALL: [Algorithm; 4] = [
        Algorithm::Cqr2_1d,
        Algorithm::CaCqr2,
        Algorithm::CaCqr3,
        Algorithm::Pgeqrf,
    ];

    /// Short display name (`"1d-cqr2"`, `"ca-cqr2"`, `"ca-cqr3"`,
    /// `"pgeqrf"`).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Cqr2_1d => "1d-cqr2",
            Algorithm::CaCqr2 => "ca-cqr2",
            Algorithm::CaCqr3 => "ca-cqr3",
            Algorithm::Pgeqrf => "pgeqrf",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One configuration: algorithm plus every knob that changes the schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CandidateConfig {
    /// 1D-CholeskyQR2 over a flat row partition of `p` ranks.
    Cqr1d {
        /// Rank count (the 1D grid is `1 × p × 1`).
        p: usize,
    },
    /// CA-CQR2 on the tunable `c × d × c` grid.
    CaCqr2 {
        /// Replication-dimension size.
        c: usize,
        /// Row-dimension size (`P = c²d`).
        d: usize,
        /// CFR3D base-case size `n₀`.
        base_size: usize,
        /// The paper's `InverseDepth` knob.
        inverse_depth: usize,
    },
    /// Shifted CA-CQR3 on the tunable grid.
    CaCqr3 {
        /// Replication-dimension size.
        c: usize,
        /// Row-dimension size (`P = c²d`).
        d: usize,
        /// CFR3D base-case size `n₀`.
        base_size: usize,
        /// The paper's `InverseDepth` knob.
        inverse_depth: usize,
    },
    /// The ScaLAPACK-like 2D block-cyclic Householder baseline.
    Pgeqrf {
        /// Process-grid rows.
        pr: usize,
        /// Process-grid columns.
        pc: usize,
        /// Column block width.
        nb: usize,
    },
}

impl CandidateConfig {
    /// Total simulated ranks the configuration occupies.
    pub fn processors(&self) -> usize {
        match *self {
            CandidateConfig::Cqr1d { p } => p,
            CandidateConfig::CaCqr2 { c, d, .. } | CandidateConfig::CaCqr3 { c, d, .. } => c * c * d,
            CandidateConfig::Pgeqrf { pr, pc, .. } => pr * pc,
        }
    }

    /// The algorithm the configuration runs.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            CandidateConfig::Cqr1d { .. } => Algorithm::Cqr2_1d,
            CandidateConfig::CaCqr2 { .. } => Algorithm::CaCqr2,
            CandidateConfig::CaCqr3 { .. } => Algorithm::CaCqr3,
            CandidateConfig::Pgeqrf { .. } => Algorithm::Pgeqrf,
        }
    }
}

impl std::fmt::Display for CandidateConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ", self.algorithm())?;
        match *self {
            CandidateConfig::Cqr1d { p } => write!(f, "p={p}"),
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
            } => write!(f, "c={c} d={d} n0={base_size} id={inverse_depth}"),
            CandidateConfig::Pgeqrf { pr, pc, nb } => write!(f, "pr={pr} pc={pc} nb={nb}"),
        }
    }
}

/// Predicted α-β-γ cost of one candidate for an `m × n` factorization, from
/// the crate's closed-form models.
pub fn predicted_cost(m: usize, n: usize, config: &CandidateConfig) -> Cost {
    match *config {
        CandidateConfig::Cqr1d { p } => crate::cqr1d::cqr2_1d(m, n, p),
        CandidateConfig::CaCqr2 {
            c,
            d,
            base_size,
            inverse_depth,
        } => crate::cacqr2::ca_cqr2(m, n, c, d, base_size, inverse_depth),
        CandidateConfig::CaCqr3 {
            c,
            d,
            base_size,
            inverse_depth,
        } => crate::cacqr3::ca_cqr3(m, n, c, d, base_size, inverse_depth),
        CandidateConfig::Pgeqrf { pr, pc, nb } => crate::pgeqrf::pgeqrf(m, n, pr, pc, nb),
    }
}

/// Proposes every configuration of the search space for an `n`-column
/// factorization on `p` ranks and returns the ones `runnable` accepts, in a
/// deterministic order: 1D-CQR2 first, then the CA family over growing `c`,
/// then the baseline over shrinking `pr`.
///
/// The proposals are the splits of `p` (`c²·d` with `c` a power of two;
/// `pr × pc` with `pc` a power of two and `pr ≥ pc`, since tall matrices
/// want tall grids) crossed with the knob sweeps: the paper's
/// bandwidth-minimizing base size `n₀ = n/c²` (clamped to `[c, n]`) plus
/// one step down and one step up, `InverseDepth ∈ {0, 1}`, and the usual
/// ScaLAPACK panel widths with a single `n`-wide panel as the fallback when
/// `runnable` accepts none of them. Returns an empty vector when nothing is
/// accepted; the caller decides whether that is an error.
pub fn enumerate(n: usize, p: usize, runnable: impl Fn(&CandidateConfig) -> bool) -> Vec<CandidateConfig> {
    let mut out = Vec::new();
    let mut propose = |config: CandidateConfig| {
        let accepted = runnable(&config);
        if accepted {
            out.push(config);
        }
        accepted
    };

    propose(CandidateConfig::Cqr1d { p });

    let mut c = 1usize;
    while c * c * c <= p {
        if p.is_multiple_of(c * c) {
            let d = p / (c * c);
            let default = (n / (c * c)).max(c).min(n);
            for base_size in [default / 2, default, default * 2] {
                for inverse_depth in [0usize, 1] {
                    propose(CandidateConfig::CaCqr2 {
                        c,
                        d,
                        base_size,
                        inverse_depth,
                    });
                    propose(CandidateConfig::CaCqr3 {
                        c,
                        d,
                        base_size,
                        inverse_depth,
                    });
                }
            }
        }
        c *= 2;
    }

    let mut pc = 1usize;
    while pc * pc <= p {
        if p.is_multiple_of(pc) {
            let pr = p / pc;
            let mut any_standard = false;
            for nb in [4usize, 8, 16, 32, 64] {
                any_standard |= propose(CandidateConfig::Pgeqrf { pr, pc, nb });
            }
            if !any_standard {
                propose(CandidateConfig::Pgeqrf { pr, pc, nb: n });
            }
        }
        pc *= 2;
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proposals_cover_all_families() {
        let cands = enumerate(1 << 6, 64, |_| true);
        assert!(cands.iter().any(|c| matches!(c, CandidateConfig::Cqr1d { p: 64 })));
        assert!(cands.iter().any(|c| matches!(c, CandidateConfig::CaCqr2 { c: 2, .. })));
        assert!(cands.iter().any(|c| matches!(c, CandidateConfig::CaCqr3 { .. })));
        assert!(cands.iter().any(|c| matches!(c, CandidateConfig::Pgeqrf { .. })));
        // Every proposal is a split of exactly the requested rank count.
        assert!(cands.iter().all(|c| c.processors() == 64));
    }

    #[test]
    fn only_accepted_proposals_are_returned() {
        let cands = enumerate(32, 16, |c| c.algorithm() == Algorithm::CaCqr3);
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|c| c.algorithm() == Algorithm::CaCqr3));
        assert!(enumerate(32, 16, |_| false).is_empty());
    }

    #[test]
    fn n_wide_panel_is_proposed_only_when_no_standard_width_is_accepted() {
        let pgeqrf_widths = |accept: &dyn Fn(usize) -> bool| -> Vec<usize> {
            enumerate(7, 1, |c| matches!(*c, CandidateConfig::Pgeqrf { nb, .. } if accept(nb)))
                .iter()
                .map(|c| match *c {
                    CandidateConfig::Pgeqrf { nb, .. } => nb,
                    _ => unreachable!(),
                })
                .collect()
        };
        assert_eq!(pgeqrf_widths(&|nb| nb == 7), [7]);
        assert_eq!(pgeqrf_widths(&|nb| nb == 7 || nb == 8), [8]);
    }

    #[test]
    fn enumeration_is_deterministic() {
        assert_eq!(enumerate(1 << 5, 16, |_| true), enumerate(1 << 5, 16, |_| true));
    }

    #[test]
    fn algorithm_names_are_unique_and_lead_the_config_display() {
        let mut names: Vec<_> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Algorithm::ALL.len());
        assert_eq!(
            CandidateConfig::Pgeqrf { pr: 4, pc: 2, nb: 8 }.to_string(),
            "pgeqrf pr=4 pc=2 nb=8"
        );
    }
}
