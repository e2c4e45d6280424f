//! Autotuning tour: from "just factor this shape" to a serving cache of
//! tuned plans.
//!
//! 1. `QrPlan::auto` — one line, no knobs: the tuner enumerates every
//!    runnable configuration, scores them with the closed-form cost models,
//!    and builds the winner.
//! 2. A calibrated `Tuner` — a live microkernel probe replaces the nominal
//!    flop rate and the leading candidates get short measured runs.
//! 3. `QrService::plan_auto` — the same cost-model pick, cached in a
//!    service: factor a batch through it, then evict it.
//!
//! Run: `cargo run --release --example autotune`

use ca_cqr2::dense::ProbeKernel;
use ca_cqr2::{QrPlan, QrService, Tuner};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The one-liner. ---
    let (m, n) = (2048, 64);
    let plan = QrPlan::auto(m, n)?;
    println!(
        "auto({m}, {n}): {} on {} simulated ranks",
        plan.algorithm(),
        plan.processors()
    );
    let a = ca_cqr2::dense::random::well_conditioned(m, n, 1);
    let report = plan.factor(&a)?;
    println!(
        "  orthogonality {:.2e}, residual {:.2e}",
        report.orthogonality_error, report.residual_error
    );

    // --- 2. Calibrated tuning: model proposes, stopwatch disposes. ---
    let tuned = Tuner::new(m, n).calibrate(true).report()?;
    let probe = *tuned
        .probes
        .iter()
        .find(|p| p.kernel == ProbeKernel::Gemm)
        .expect("calibration probes the gemm kernel");
    println!(
        "calibrated: probe measured {:.1} Gflop/s on `{}`; {} candidates ranked",
        probe.gflops(),
        probe.backend,
        tuned.candidates.len()
    );
    for cand in tuned.candidates.iter().take(3) {
        println!(
            "  {:<32} predicted {:.3e} s{}",
            cand.config.to_string(),
            cand.predicted_seconds,
            cand.measured_seconds
                .map(|s| format!(", measured {s:.3e} s"))
                .unwrap_or_default()
        );
    }

    // --- 3. The service's auto front door: tune once, cache, serve. ---
    let service = QrService::builder().workers(2).build();
    let served = service.plan_auto(m, n)?;
    println!(
        "service: plan_auto({m}, {n}) cached {} on {} ranks (cache holds {})",
        served.algorithm(),
        served.processors(),
        service.plan_cache_len()
    );
    // The tuned shape factors through the cached plan — and the cache is
    // observable and boundable.
    let batch: Vec<_> = (0..4)
        .map(|s| ca_cqr2::dense::random::well_conditioned(m, n, s))
        .collect();
    let spec = Tuner::new(m, n).report()?.best_spec();
    let reports = service.factor_many(&spec, batch)?;
    println!(
        "service: factored a batch of {} through the cached plan (cache holds {})",
        reports.len(),
        service.plan_cache_len()
    );
    let evicted = service.evict(&spec);
    println!(
        "service: evicted the {m}x{n} plan ({evicted}); cache now holds {}",
        service.plan_cache_len()
    );
    Ok(())
}
