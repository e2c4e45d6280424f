//! Integration tests for the autotuning subsystem: `QrPlan::auto`
//! determinism, the Table-1 golden ranking, and the service's `plan_auto`
//! cache and its agreement with `QrPlan::auto`.

use ca_cqr2::costmodel::{CandidateConfig, MachineCal};
use ca_cqr2::dense::random::well_conditioned;
use ca_cqr2::simgrid::{Machine, RuntimeKind};
use ca_cqr2::{Algorithm, PlanError, QrPlan, QrService, ServiceError, Tuner, TunerError};

/// `QrPlan::auto` is a pure function of `(m, n)` (plus rank count and
/// thread budget): same inputs, same configuration, bitwise-identical
/// factors per seed.
#[test]
fn auto_is_deterministic() {
    let (m, n) = (512, 64);
    let p1 = QrPlan::auto(m, n).unwrap();
    let p2 = QrPlan::auto(m, n).unwrap();
    assert_eq!(p1.algorithm(), p2.algorithm());
    assert_eq!(p1.processors(), p2.processors());
    for seed in [1u64, 7, 42] {
        let a = well_conditioned(m, n, seed);
        let r1 = p1.factor(&a).unwrap();
        let r2 = p2.factor(&a).unwrap();
        assert_eq!(r1.q, r2.q, "seed {seed}: auto plans must factor bitwise identically");
        assert_eq!(r1.r, r2.r);
    }
    // The tuner's ranked report is deterministic too, spec for spec.
    let ra = Tuner::new(m, n).report().unwrap();
    let rb = Tuner::new(m, n).report().unwrap();
    assert_eq!(ra.best_spec(), rb.best_spec());
}

/// Golden ranking for the paper's Table-1 regime on the calibrated
/// Stampede2 model: at small aspect ratios (squarer matrices) the tunable
/// grid's replication pays and CA-CQR2 must outrank 1D-CQR2, with real
/// replication (`c > 1`); at extreme aspect ratios the 1D-like grids win
/// within the CA family. This is the cost-model half of the paper's
/// central claim, checked through the tuner's ranking end to end.
#[test]
fn table1_shapes_prefer_cacqr2_over_1d_at_small_aspect_ratios() {
    let p = 4096usize;
    let cal = MachineCal::stampede2();

    // Small aspect ratio: 2^17 × 2^13 (m/n = 16).
    let report = Tuner::new(1 << 17, 1 << 13)
        .processors(p)
        .profile(cal)
        .algorithms(&[Algorithm::CaCqr2, Algorithm::Cqr2_1d])
        .report()
        .unwrap();
    let best_ca = report
        .candidates
        .iter()
        .position(|c| c.algorithm() == Algorithm::CaCqr2)
        .expect("CA-CQR2 candidates exist");
    let best_1d = report
        .candidates
        .iter()
        .position(|c| c.algorithm() == Algorithm::Cqr2_1d);
    if let Some(best_1d) = best_1d {
        assert!(
            best_ca < best_1d,
            "near-square: CA-CQR2 (rank {best_ca}) must beat 1D-CQR2 (rank {best_1d})"
        );
        let speedup = report.candidates[best_1d].predicted_seconds / report.candidates[best_ca].predicted_seconds;
        assert!(speedup > 1.5, "replication should pay substantially, got {speedup:.2}x");
    }
    match report.best().config {
        CandidateConfig::CaCqr2 { c, .. } => {
            assert!(c >= 4, "small aspect ratio wants real replication, got c={c}")
        }
        ref other => panic!("expected a CA-CQR2 winner, got {other}"),
    }

    // Extreme aspect ratio: 2^24 × 2^7 (m/n = 131072) — 1D-ish grids win.
    let tall = Tuner::new(1 << 24, 1 << 7)
        .processors(p)
        .profile(cal)
        .algorithms(&[Algorithm::CaCqr2, Algorithm::Cqr2_1d])
        .report()
        .unwrap();
    match tall.best().config {
        CandidateConfig::CaCqr2 { c, .. } => {
            assert!(c <= 2, "tall-skinny wants a 1D-like grid, got c={c}")
        }
        CandidateConfig::Cqr1d { .. } => {}
        ref other => panic!("unexpected winner {other}"),
    }
}

/// The empty candidate set is a typed error through every layer — the
/// facade and the service — never a panic.
#[test]
fn empty_candidate_sets_surface_as_typed_errors() {
    // m < n enumerates nothing.
    let err = QrPlan::auto(8, 16).unwrap_err();
    assert!(matches!(
        err,
        PlanError::Tuning(TunerError::NoCandidates { m: 8, n: 16, .. })
    ));
    let service = QrService::builder().workers(1).build();
    let err = service.plan_auto(8, 16).unwrap_err();
    assert!(matches!(
        err,
        ServiceError::Plan(PlanError::Tuning(TunerError::NoCandidates { .. }))
    ));
}

/// Every ranked candidate builds — awkward shapes, every rank count, powers
/// of two or not — because the tuner keeps exactly the proposals the plan
/// validator accepts; and a search space with nothing runnable is
/// `NoCandidates`, not a ranking of unbuildable winners.
#[test]
fn every_candidate_builds_and_unrunnable_search_spaces_are_typed() {
    for (m, n) in [(768usize, 32usize), (512, 256), (16384, 64), (100, 7)] {
        for p in 1..=64usize {
            match Tuner::new(m, n).processors(p).report() {
                Ok(report) => {
                    for cand in &report.candidates {
                        assert_eq!(cand.config.processors(), p, "{m}x{n}: {}", cand.config);
                        if let Err(e) = cand.spec.build_plan(Machine::zero(), RuntimeKind::Simulated) {
                            panic!("{m}x{n} p={p}: ranked candidate {} does not build: {e}", cand.config);
                        }
                    }
                }
                Err(e) => assert_eq!(e, TunerError::NoCandidates { m, n, processors: p }),
            }
        }
    }
    // 12 ranks admit no power-of-two communicator split for any algorithm.
    assert_eq!(
        Tuner::new(768, 32).processors(12).report().unwrap_err(),
        TunerError::NoCandidates {
            m: 768,
            n: 32,
            processors: 12
        }
    );
}

/// `plan_auto` fills an observable (`plan_cache_len`), boundable (`evict`)
/// cache keyed on the tuned spec, and the service's auto front door picks
/// what `QrPlan::auto` picks.
#[test]
fn plan_auto_fills_an_observable_cache() {
    let service = QrService::builder().workers(2).build();
    assert_eq!(service.plan_cache_len(), 0);

    let p1 = service.plan_auto(512, 64).unwrap();
    assert_eq!(service.plan_cache_len(), 1);
    service.plan_auto(1024, 32).unwrap();
    assert_eq!(service.plan_cache_len(), 2);
    // Repeat calls hit the same cache entry, pointer-equal.
    let p2 = service.plan_auto(512, 64).unwrap();
    assert!(std::sync::Arc::ptr_eq(&p1, &p2));
    assert_eq!(service.plan_cache_len(), 2);

    // The cached plan serves jobs through the tuned spec.
    let spec = Tuner::new(512, 64).report().unwrap().best_spec();
    let report = service
        .submit(&spec, well_conditioned(512, 64, 3))
        .unwrap()
        .wait()
        .unwrap();
    assert!(report.orthogonality_error < 1e-12);
    assert_eq!(service.plan_cache_len(), 2, "the tuned spec is the cached key");

    // Eviction bounds the cache and reports what it removed.
    assert!(service.evict(&spec));
    assert!(!service.evict(&spec), "double eviction finds nothing");
    assert_eq!(service.plan_cache_len(), 1);

    // The two auto front doors agree.
    for (m, n) in [(512usize, 64usize), (2048, 64), (4096, 32), (256, 32)] {
        let served = service.plan_auto(m, n).unwrap();
        let direct = QrPlan::auto(m, n).unwrap();
        assert_eq!(
            (served.algorithm(), served.processors()),
            (direct.algorithm(), direct.processors()),
            "{m}x{n}"
        );
    }
}

/// Calibrated tuning picks a configuration whose measured time is
/// competitive: the winner must be within a factor of the other measured
/// candidates (a loose structural check: single short runs are too noisy
/// for a tight percentage).
#[test]
fn calibrated_winner_is_measured_and_competitive() {
    let report = Tuner::new(256, 64).calibrate(true).report().unwrap();
    let winner = report.best();
    let winner_time = winner.measured_seconds.expect("calibrated winner carries a stopwatch");
    for cand in report.candidates.iter().filter(|c| c.measured_seconds.is_some()) {
        assert!(
            winner_time <= cand.measured_seconds.unwrap() + 1e-12,
            "winner must have the best measured time"
        );
    }
}
