//! Timed microkernel probes: measure the *live* machine instead of trusting
//! published specs.
//!
//! The closed-form cost models predict flop counts exactly, but turning
//! flops into seconds needs an effective flop rate — and that rate depends
//! on the backend, the CPU, and whatever else shares the
//! machine. [`probe_gemm`] runs a short, seeded, square `gemm` on the chosen
//! backend with a wall clock around it and reports the measured seconds per
//! flop; the autotuner feeds that into the machine profile it scores
//! candidates with (`costmodel::MachineCal::calibrated`), and the repo
//! benchmark reports it as the roofline its kernel rows are read against.
//!
//! [`probe_syrk`] is the Gram-kernel sibling: CholeskyQR's arithmetic is
//! dominated by `AᵀA` on tall panels, and the symmetry-aware blocked SYRK
//! runs at a *different* effective rate than square gemm (half the tile
//! flops against the same `m·n²` ledger convention). Calibration that only
//! watches gemm systematically mispredicts the Gram-heavy algorithms, so
//! tuning sweeps record both rates.
//!
//! Probes are deliberately cheap (a few milliseconds) and deterministic in
//! *work* (seeded operands, fixed dimension, fixed repetition count) —
//! only the measured wall time varies run to run, and the minimum over
//! `reps` repetitions is reported to shed scheduler noise.

use crate::backend::BackendKind;
use crate::gemm::Trans;
use crate::matrix::Matrix;
use crate::random::gaussian_matrix;
use std::time::Instant;

/// Which kernel a probe timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeKernel {
    /// Square `dim × dim × dim` general matrix multiply.
    Gemm,
    /// Tall-panel Gram matrix `AᵀA` (`rows × dim` input).
    Syrk,
}

impl std::fmt::Display for ProbeKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ProbeKernel::Gemm => "gemm",
            ProbeKernel::Syrk => "syrk",
        })
    }
}

/// Result of one timed microkernel probe.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeReport {
    /// The backend that was measured.
    pub backend: BackendKind,
    /// The kernel that was measured.
    pub kernel: ProbeKernel,
    /// Contraction rows: equal to `dim` for the square gemm probe, the
    /// panel height `m` for the syrk probe.
    pub rows: usize,
    /// Probe dimension: the gemm multiplied two `dim × dim` operands; the
    /// syrk computed the `dim × dim` Gram matrix of a `rows × dim` panel.
    pub dim: usize,
    /// Repetitions timed (the minimum is kept).
    pub reps: usize,
    /// Best measured wall time of one kernel run, in seconds.
    pub seconds: f64,
    /// Measured effective compute rate in seconds per flop — against the
    /// *ledger convention* for the kernel (`2·dim³` for gemm, `rows·dim²`
    /// for syrk), so it plugs directly into a machine model's γ.
    pub seconds_per_flop: f64,
}

impl ProbeReport {
    /// Measured effective rate in Gflop/s (convenience for reports).
    pub fn gflops(&self) -> f64 {
        1.0 / (self.seconds_per_flop * 1e9)
    }
}

/// Shared timing loop: one untimed warm-up, then the best of `reps`.
fn time_best(reps: usize, mut run: impl FnMut()) -> f64 {
    run();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        run();
        let dt = t.elapsed().as_secs_f64();
        if dt < best {
            best = dt;
        }
    }
    // Guard against a clock too coarse to see the kernel at all.
    best.max(1e-9)
}

/// Times a square `dim × dim × dim` gemm on `backend`, returning the best
/// of `reps` runs. `dim` is clamped to at least 8 and `reps` to at least 1.
///
/// The flop convention matches the cost ledger's ([`crate::flops::gemm`]),
/// so the returned `seconds_per_flop` plugs directly into a machine
/// model's γ (seconds per flop) against model-predicted flop counts.
pub fn probe_gemm(backend: BackendKind, dim: usize, reps: usize) -> ProbeReport {
    let dim = dim.max(8);
    let reps = reps.max(1);
    let a = gaussian_matrix(dim, dim, 0x9e3779b97f4a7c15);
    let b = gaussian_matrix(dim, dim, 0x6a09e667f3bcc909);
    let mut c = Matrix::zeros(dim, dim);
    let kernel = backend.get();
    let seconds = time_best(reps, || {
        kernel.gemm(1.0, a.as_ref(), Trans::No, b.as_ref(), Trans::No, 0.0, c.as_mut());
    });
    ProbeReport {
        backend,
        kernel: ProbeKernel::Gemm,
        rows: dim,
        dim,
        reps,
        seconds,
        seconds_per_flop: seconds / crate::flops::gemm(dim, dim, dim),
    }
}

/// Times the Gram kernel `AᵀA` of a `rows × dim` panel on `backend`
/// (through [`Backend::syrk_into`](crate::Backend::syrk_into), the hot-path
/// entry), returning the best of `reps` runs. `rows` is clamped to at least
/// `dim`, `dim` to at least 8, and `reps` to at least 1.
///
/// `seconds_per_flop` is charged against the ledger convention
/// [`crate::flops::syrk`]` = rows·dim²` — the same count the cost models
/// predict — so a symmetry-aware kernel that skips the upper triangle shows
/// up as a *faster effective rate*, exactly what calibration should see.
pub fn probe_syrk(backend: BackendKind, rows: usize, dim: usize, reps: usize) -> ProbeReport {
    let dim = dim.max(8);
    let rows = rows.max(dim);
    let reps = reps.max(1);
    let a = gaussian_matrix(rows, dim, 0xbf58476d1ce4e5b9);
    let mut c = Matrix::zeros(dim, dim);
    let kernel = backend.get();
    let seconds = time_best(reps, || {
        kernel.syrk_into(a.as_ref(), c.as_mut());
    });
    ProbeReport {
        backend,
        kernel: ProbeKernel::Syrk,
        rows,
        dim,
        reps,
        seconds,
        seconds_per_flop: seconds / crate::flops::syrk(rows, dim),
    }
}

/// The default gemm probe the autotuner uses: a 256³ gemm, best of 3.
pub fn default_probe(backend: BackendKind) -> ProbeReport {
    probe_gemm(backend, 256, 3)
}

/// The default Gram-kernel probe: `AᵀA` of a 2048 × 96 panel (the paper's
/// tall-skinny regime), best of 3.
pub fn default_syrk_probe(backend: BackendKind) -> ProbeReport {
    probe_syrk(backend, 2048, 96, 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_reports_sane_rates() {
        for kind in BackendKind::ALL {
            let report = probe_gemm(kind, 64, 2);
            assert_eq!(report.backend, kind);
            assert_eq!(report.kernel, ProbeKernel::Gemm);
            assert!(report.seconds > 0.0);
            assert!(report.seconds_per_flop > 0.0 && report.seconds_per_flop.is_finite());
            // Anything between 1 Mflop/s and 10 Tflop/s is believable; the
            // point is catching unit errors (flops vs Gflops), not speed.
            assert!(
                (1e-13..1e-6).contains(&report.seconds_per_flop),
                "{kind}: {} s/flop",
                report.seconds_per_flop
            );
        }
    }

    #[test]
    fn syrk_probe_reports_sane_rates() {
        for kind in BackendKind::ALL {
            let report = probe_syrk(kind, 512, 48, 2);
            assert_eq!(report.backend, kind);
            assert_eq!(report.kernel, ProbeKernel::Syrk);
            assert_eq!((report.rows, report.dim), (512, 48));
            assert!(report.seconds > 0.0);
            assert!(
                (1e-13..1e-6).contains(&report.seconds_per_flop),
                "{kind}: {} s/flop",
                report.seconds_per_flop
            );
        }
    }

    #[test]
    fn probe_clamps_degenerate_requests() {
        let report = probe_gemm(BackendKind::Naive, 0, 0);
        assert_eq!(report.dim, 8);
        assert_eq!(report.reps, 1);
        let report = probe_syrk(BackendKind::Naive, 0, 0, 0);
        assert_eq!(report.dim, 8);
        assert_eq!(report.rows, 8, "rows clamps up to dim");
        assert_eq!(report.reps, 1);
    }
}
