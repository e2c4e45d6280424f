//! Calibrated machine models for evaluating the paper's figures at scale.
//!
//! The network side (α, β) comes straight from published hardware specs
//! (§IV-B): per-node injection bandwidth divided across the processes per
//! node, plus a per-message latency. The compute side is calibrated per
//! algorithm *family*, because the two codes achieve very different
//! fractions of peak:
//!
//! * **CQR2-family** (`gamma_cqr2`): dominated by large local gemms. On KNL
//!   these run from MCDRAM at high efficiency; when the per-node working set
//!   exceeds the 16 GB MCDRAM capacity, gemms stream from DDR4 and slow down
//!   by `ddr_penalty` — this mechanism reproduces the *rising*
//!   Gigaflops/node that the paper's strong-scaling CA-CQR2 curves show
//!   (locals shrink into MCDRAM as nodes grow).
//! * **PGEQRF** (`gamma_pgeqrf`): panel factorization is BLAS-1/2 bound and
//!   latency-ridden; ScaLAPACK on 64-ppn KNL sustains a far smaller fraction
//!   of peak (the paper's own Figure 1 shows ≈ 145 Gf/node at 64 nodes
//!   against a ≈ 2 Tf/s DGEMM node).
//!
//! Note on conventions: our implementation charges full `2mnk` for the Gram
//! and `Q = A·R⁻¹` multiplies (as the paper's Tables V–VI do), while real
//! BLAS exploits symmetry/triangularity for ≈ 2× fewer flops; the
//! `gamma_cqr2` constant absorbs that factor. The calibration targets are
//! one Gf/node value per machine, taken from the paper's small-node-count,
//! compute-bound data points; everything else is prediction.

use crate::candidates::CandidateConfig;
use crate::cost::Cost;
use simgrid::Machine;

/// A calibrated machine: network model + per-algorithm effective flop rates.
#[derive(Clone, Copy, Debug)]
pub struct MachineCal {
    /// Human-readable name.
    pub name: &'static str,
    /// α and β per process (γ field unused here).
    pub net: Machine,
    /// Processes per node used in the paper's runs.
    pub ppn: usize,
    /// Seconds per (charged) flop for the CQR2 family, MCDRAM-resident.
    pub gamma_cqr2: f64,
    /// Seconds per flop for the Householder baseline.
    pub gamma_pgeqrf: f64,
    /// High-bandwidth-memory capacity per node in bytes, if the node has a
    /// small fast tier (KNL MCDRAM).
    pub hbm_bytes: Option<f64>,
    /// γ multiplier applied to the CQR2 family when the per-node working
    /// set exceeds `hbm_bytes`.
    pub ddr_penalty: f64,
    /// DDR capacity per node in bytes (feasibility limit for replication).
    pub node_mem_bytes: f64,
}

impl MachineCal {
    /// Stampede2-like: Intel KNL, Omni-Path fat tree, 64 ppn.
    pub fn stampede2() -> MachineCal {
        MachineCal {
            name: "stampede2",
            // 12.5 GB/s per direction (full-duplex 100 Gb/s
            // Omni-Path; butterfly rounds are symmetric exchanges, so each
            // direction carries half the traffic), shared by 64 processes;
            // ~5 µs effective per-round latency (wire latency ~1 µs plus MPI/collective software overhead at scale).
            net: Machine {
                alpha: 5.0e-6,
                beta: 8.0 * 64.0 / (2.0 * 12.5e9),
                gamma: 0.0,
            },
            ppn: 64,
            // Calibrated to Fig. 1(a): CA-CQR2 ≈ 110-130 Gf/node (credited)
            // at 64 nodes (DDR-streaming) rising past 200 Gf/node once the
            // working set fits MCDRAM.
            gamma_cqr2: 6.1e-11,
            ddr_penalty: 3.0,
            // Calibrated to Fig. 1(a): PGEQRF ≈ 145 Gf/node at 64 nodes.
            gamma_pgeqrf: 64.0 / 145.0e9,
            hbm_bytes: Some(16.0e9),
            node_mem_bytes: 96.0e9,
        }
    }

    /// Blue-Waters-like: Cray XE (Bulldozer), Gemini torus, 16 ppn.
    pub fn bluewaters() -> MachineCal {
        MachineCal {
            name: "bluewaters",
            // 9.6 GB/s per direction (Gemini), 16 ppn.
            net: Machine {
                alpha: 3.0e-6,
                beta: 8.0 * 16.0 / (2.0 * 9.6e9),
                gamma: 0.0,
            },
            ppn: 16,
            // Calibrated to Fig. 6(b): CA-CQR2 ≈ 42 Gf/node (credited) at
            // small node counts; no fast-memory tier on XE nodes.
            gamma_cqr2: 16.0 / (4.0 * 42.0e9),
            ddr_penalty: 1.0,
            // Calibrated to Fig. 6(b): PGEQRF ≈ 68 Gf/node at 32 nodes.
            gamma_pgeqrf: 16.0 / 68.0e9,
            hbm_bytes: None,
            node_mem_bytes: 64.0e9,
        }
    }

    /// A machine calibrated from live measurements instead of published
    /// specs: network parameters from `net`, a single measured effective
    /// flop rate (e.g. from `dense::probe`) for both algorithm families, no
    /// fast-memory tier, and an effectively unbounded node memory. This is
    /// the autotuner's hook for scoring candidates against the machine the
    /// process actually runs on.
    pub fn calibrated(name: &'static str, net: Machine, seconds_per_flop: f64) -> MachineCal {
        MachineCal {
            name,
            net,
            ppn: 1,
            gamma_cqr2: seconds_per_flop,
            gamma_pgeqrf: seconds_per_flop,
            hbm_bytes: None,
            ddr_penalty: 1.0,
            node_mem_bytes: f64::INFINITY,
        }
    }

    /// Same machine with a re-measured CQR2-family flop rate (s/flop).
    pub fn with_gamma_cqr2(mut self, seconds_per_flop: f64) -> MachineCal {
        self.gamma_cqr2 = seconds_per_flop;
        self
    }

    /// Predicted time of one tuner candidate on this machine: routes the
    /// candidate's closed-form cost through the per-family effective flop
    /// rate, charging the CQR2 family's fast-memory residency penalty from
    /// its actual working set.
    pub fn time_candidate(&self, m: usize, n: usize, config: &CandidateConfig) -> f64 {
        let cost = crate::candidates::predicted_cost(m, n, config);
        match *config {
            CandidateConfig::Pgeqrf { .. } => self.time_pgeqrf(cost),
            CandidateConfig::Cqr1d { p } => self.time_cqr2(cost, self.cqr2_workingset(m, n, 1, p)),
            CandidateConfig::CaCqr2 { c, d, .. } | CandidateConfig::CaCqr3 { c, d, .. } => {
                self.time_cqr2(cost, self.cqr2_workingset(m, n, c, d))
            }
        }
    }

    /// Whether a candidate's replication fits this machine's node memory
    /// (the baseline never replicates, so it always fits).
    pub fn candidate_fits(&self, m: usize, n: usize, config: &CandidateConfig) -> bool {
        match *config {
            CandidateConfig::Pgeqrf { .. } => true,
            CandidateConfig::Cqr1d { p } => self.cqr2_fits(m, n, 1, p),
            CandidateConfig::CaCqr2 { c, d, .. } | CandidateConfig::CaCqr3 { c, d, .. } => self.cqr2_fits(m, n, c, d),
        }
    }

    /// Re-derives the per-process parameters for a different
    /// processes-per-node count (node-level bandwidth and flop rate are
    /// conserved; each process gets proportionally more of both when fewer
    /// processes share a node — the paper's `(ppn, tpr) = (16, 4)` variants).
    pub fn with_ppn(mut self, ppn: usize) -> MachineCal {
        let scale = ppn as f64 / self.ppn as f64;
        self.net.beta *= scale;
        self.gamma_cqr2 *= scale;
        self.gamma_pgeqrf *= scale;
        self.ppn = ppn;
        self
    }

    /// Effective CQR2 γ for a per-node working set: `gamma_cqr2` when the
    /// set fits the fast-memory tier; otherwise the penalty is applied in
    /// proportion to the non-resident fraction (`1 − hbm/ws`), modelling
    /// gemms that stream part of their operands from DDR.
    pub fn gamma_cqr2_at(&self, workingset_bytes_per_node: f64) -> f64 {
        match self.hbm_bytes {
            Some(cap) if workingset_bytes_per_node > cap => {
                let nonresident = 1.0 - cap / workingset_bytes_per_node;
                self.gamma_cqr2 * (1.0 + (self.ddr_penalty - 1.0) * nonresident)
            }
            _ => self.gamma_cqr2,
        }
    }

    /// Time for a CQR2-family cost given the per-node working set in bytes
    /// (decides MCDRAM residency).
    pub fn time_cqr2(&self, cost: Cost, workingset_bytes_per_node: f64) -> f64 {
        cost.time_with_gamma(&self.net, self.gamma_cqr2_at(workingset_bytes_per_node))
    }

    /// Time for a PGEQRF cost.
    pub fn time_pgeqrf(&self, cost: Cost) -> f64 {
        cost.time_with_gamma(&self.net, self.gamma_pgeqrf)
    }

    /// Per-node working set of CA-CQR2 in bytes: `A`, the row-broadcast `W`,
    /// `Q₁`, `Q`, and collective scratch (≈ 5 local `m × n` pieces) plus the
    /// `n × n` intermediates (`Z`, `L`, `Y`, `R`).
    pub fn cqr2_workingset(&self, m: usize, n: usize, c: usize, d: usize) -> f64 {
        let local_mn = (m as f64 / d as f64) * (n as f64 / c as f64);
        let local_nn = (n as f64 / c as f64) * (n as f64 / c as f64);
        self.ppn as f64 * 8.0 * (5.0 * local_mn + 4.0 * local_nn)
    }

    /// Whether a CA-CQR2 grid fits in node memory.
    pub fn cqr2_fits(&self, m: usize, n: usize, c: usize, d: usize) -> bool {
        self.cqr2_workingset(m, n, c, d) <= self.node_mem_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_to_bandwidth_gap_matches_paper() {
        // §IV: "the ratio of peak flops to injection bandwidth is roughly 8X
        // higher on Stampede2".
        let s = MachineCal::stampede2();
        let b = MachineCal::bluewaters();
        let s_ratio = s.net.beta / s.gamma_cqr2;
        let b_ratio = b.net.beta / b.gamma_cqr2;
        assert!(
            s_ratio > 3.0 * b_ratio,
            "Stampede2 must be far more communication-bound: {s_ratio:.1} vs {b_ratio:.1}"
        );
    }

    #[test]
    fn mcdram_threshold_changes_rate() {
        let s = MachineCal::stampede2();
        let cost = Cost::flops(1e12);
        let fast = s.time_cqr2(cost, 8.0e9);
        let slow = s.time_cqr2(cost, 40.0e9);
        // 60% non-resident at 40 GB: penalty = 1 + (3−1)·0.6 = 2.2.
        assert!(slow > fast, "spilling out of MCDRAM must slow gemms");
        assert!((slow / fast - 2.2).abs() < 1e-9, "got {}", slow / fast);
        // The penalty saturates at ddr_penalty for huge working sets.
        let huge = s.time_cqr2(cost, 1.0e15);
        assert!((huge / fast - s.ddr_penalty).abs() < 1e-3);
    }

    #[test]
    fn replication_feasibility() {
        let s = MachineCal::stampede2();
        // 2^25 × 2^10 over P = 4096 with c = 16: 16× replication of a 274 GB
        // matrix over 64 nodes does not fit.
        assert!(!s.cqr2_fits(1 << 25, 1 << 10, 16, 16));
        // But c = 2 does.
        assert!(s.cqr2_fits(1 << 25, 1 << 10, 2, 1024));
    }
}
