//! Autotuning tour: from "just factor this shape" to a persistent,
//! service-preloaded tuning profile.
//!
//! 1. `QrPlan::auto` — one line, no knobs: the tuner enumerates every
//!    runnable configuration, scores them with the closed-form cost models,
//!    and builds the winner.
//! 2. A calibrated `Tuner` — a live microkernel probe replaces the nominal
//!    flop rate and the leading candidates get short measured runs.
//! 3. `TuningProfile` — persist the winners as versioned JSON, reload them
//!    bit-identically, and preload a `QrService` cache so the first request
//!    of each tuned shape never pays planning.
//!
//! Run: `cargo run --release --example autotune`

use ca_cqr2::{QrPlan, QrService, Tuner, TuningProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. The one-liner. ---
    let (m, n) = (2048, 64);
    let plan = QrPlan::auto(m, n)?;
    println!(
        "auto({m}, {n}): {} on {} simulated ranks, backend {}",
        plan.algorithm(),
        plan.processors(),
        plan.backend()
    );
    let a = ca_cqr2::dense::random::well_conditioned(m, n, 1);
    let report = plan.factor(&a)?;
    println!(
        "  orthogonality {:.2e}, residual {:.2e}",
        report.orthogonality_error, report.residual_error
    );

    // --- 2. Calibrated tuning: model proposes, stopwatch disposes. ---
    let tuned = Tuner::new(m, n)
        .calibrate(true)
        .top_k(3)
        .calibration_rows(256)
        .report()?;
    let probe = *tuned
        .probe_for(tuned.best().backend)
        .expect("calibration probes every swept backend");
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

    // --- 3. Persist, reload, preload. ---
    let mut profile = TuningProfile::new();
    profile.insert(tuned.profile_entry());
    profile.insert(Tuner::new(4096, 32).report()?.profile_entry());
    let path = std::env::temp_dir().join("cacqr_autotune_profile.json");
    std::fs::write(&path, profile.to_json())?;
    let reloaded = TuningProfile::from_json(&std::fs::read_to_string(&path)?)?;
    assert_eq!(reloaded, profile, "profiles round-trip exactly");
    println!("profile: {} entries saved to {}", reloaded.len(), path.display());

    let service = QrService::builder().workers(2).build();
    let built = service.preload_profile(&reloaded)?;
    println!(
        "service: preloaded {built} plans (cache holds {})",
        service.plan_cache_len()
    );
    // Tuned shapes now factor through cached plans — and the cache is
    // observable and boundable.
    let batch: Vec<_> = (0..4)
        .map(|s| ca_cqr2::dense::random::well_conditioned(m, n, s))
        .collect();
    let spec = reloaded.lookup(m, n).expect("we just tuned this shape").spec()?;
    let reports = service.factor_many(&spec, batch)?;
    println!(
        "service: factored a batch of {} through the preloaded plan",
        reports.len()
    );
    let evicted = service.evict(&spec);
    println!(
        "service: evicted the {m}x{n} plan ({evicted}); cache now holds {}",
        service.plan_cache_len()
    );
    Ok(())
}
