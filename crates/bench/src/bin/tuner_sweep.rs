//! Tuner sweep: the CI perf gate and the autotuner's end-to-end evidence.
//!
//! For a ladder of benchmark shapes (tall-skinny through near-square) this
//! binary runs the autotuner with live calibration, factors the winning
//! configuration for real, and emits a JSON artifact (`BENCH_PR4.json`)
//! recording, per shape: the chosen algorithm/configuration, the predicted
//! α-β-γ cost, the measured wall seconds, and a machine-speed-*normalized*
//! time (wall seconds divided by the same run's microkernel probe time) so
//! the numbers are comparable across machines of different speeds.
//!
//! Modes:
//!
//! * `--smoke` — small shapes, fast: what CI's `perf-gate` job runs on
//!   every push.
//! * `--exhaustive` — additionally measures *every* candidate per shape and
//!   reports how close the tuner's pick came to the measured optimum (the
//!   "within 15%" acceptance evidence; slow, run locally).
//! * `--gate <baseline.json>` — compares the normalized times against a
//!   checked-in baseline of the same format and exits non-zero when any
//!   tracked shape regresses by more than 25%.
//! * `--out <path>` — artifact path (default `BENCH_PR4.json`). Regenerate
//!   the baseline by pointing `--out` at `bench/baseline.json`.
//! * `--profile <path>` — additionally save the calibrated winners as a
//!   [`TuningProfile`]; installing it (`cacqr::tuner::install_profile`)
//!   makes `QrPlan::auto` pick these measured choices.
//!
//! Run: `cargo run --release -p bench --bin tuner_sweep -- --smoke`

use bench_harness::{gate, object, timed_entry, write_artifact, Flags};
use cacqr::tuner::json::JsonValue;
use cacqr::tuner::{Tuner, TuningProfile};
use dense::random::well_conditioned;
use simgrid::Machine;
use std::time::Instant;

/// Normalized times may regress by at most this factor before the gate
/// fails the build.
const GATE_TOLERANCE: f64 = 1.25;

/// Appends the kernel-level gate entries: `syrk-<m>x<n>` (the
/// symmetry-aware blocked SYRK) and `steady-{1d,ca}-<m>x<n>` (warm-plan
/// factor latency).
///
/// The syrk entries are normalized by the *syrk probe* — the syrk-to-gemm
/// rate ratio is itself machine-dependent (ISA mix, cache geometry), so
/// dividing a Gram kernel's wall time by a gemm probe would not cancel
/// machine speed across baseline and CI hosts. The steady entries are whole
/// factorizations (mixed kernels) and keep the gemm-probe basis the shape
/// ladder uses.
fn kernel_entries(
    probe: &dense::ProbeReport,
    syrk_probe: &dense::ProbeReport,
    reps: usize,
    results: &mut Vec<JsonValue>,
) {
    use cacqr::{Algorithm, QrPlan};
    use pargrid::GridShape;

    let threads = dense::max_threads();
    let be = dense::BackendKind::Blocked.get();
    for (m, n) in [(4096usize, 64usize), (8192, 128)] {
        let a = dense::random::well_conditioned(m, n, 7);
        let mut c = dense::Matrix::zeros(n, n);
        let mut best_syrk = f64::INFINITY;
        be.syrk_into(a.as_ref(), c.as_mut()); // warm packs + dispatch
        for _ in 0..reps.max(3) {
            let t = Instant::now();
            be.syrk_into(a.as_ref(), c.as_mut());
            best_syrk = best_syrk.min(t.elapsed().as_secs_f64());
        }
        println!(
            "syrk-{m}x{n}     blocked syrk {best_syrk:.4e}s  ({:.2}x the syrk probe)",
            best_syrk / syrk_probe.seconds
        );
        let name = format!("syrk-{m}x{n}");
        results.push(timed_entry(&name, threads, best_syrk, syrk_probe.seconds, vec![]));
    }

    let (m, n) = (2048usize, 64usize);
    let a = dense::random::well_conditioned(m, n, 9);
    let steady = [
        (
            format!("steady-1d-{m}x{n}"),
            QrPlan::new(m, n)
                .algorithm(Algorithm::Cqr2_1d)
                .grid(GridShape::one_d(16).unwrap())
                .build()
                .expect("1d steady plan builds"),
        ),
        (
            format!("steady-ca-{m}x{n}"),
            QrPlan::new(m, n)
                .algorithm(Algorithm::CaCqr2)
                .grid(GridShape::new(2, 4).unwrap())
                .build()
                .expect("ca steady plan builds"),
        ),
    ];
    for (name, plan) in steady {
        // Warm until the plan's arena pool settles, then time steady calls.
        plan.warm_up(&a).expect("well-conditioned steady input");
        let allocs_before = plan.workspace().heap_allocations();
        let wall = measure_plan(&plan, &a, reps.max(3));
        let steady_allocs = plan.workspace().heap_allocations() - allocs_before;
        println!("{name}  {wall:.4e}s  (arena allocations during timing: {steady_allocs})");
        let extra = vec![(
            "steady_state_arena_allocations",
            JsonValue::Number(steady_allocs as f64),
        )];
        results.push(timed_entry(&name, threads, wall, probe.seconds, extra));
    }
}

fn measure_plan(plan: &cacqr::QrPlan, a: &dense::Matrix, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        plan.factor(a).expect("benchmark inputs are well conditioned");
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let flags = Flags::from_env();
    let smoke = flags.has("--smoke");
    let exhaustive = flags.has("--exhaustive");
    let out_path = flags.value("--out").unwrap_or_else(|| "BENCH_PR4.json".to_string());

    // The shape ladder: m/n from extremely tall-skinny down to square.
    let shapes: Vec<(usize, usize)> = if smoke {
        vec![(4096, 16), (2048, 32), (1024, 64), (512, 128), (512, 256), (256, 256)]
    } else {
        vec![
            (1 << 16, 32),
            (1 << 14, 64),
            (1 << 13, 128),
            (1 << 12, 256),
            (2048, 512),
            (1024, 1024),
        ]
    };
    let reps = 3;

    // One probe normalizes every wall time in this run: a checked-in
    // baseline from one machine stays meaningful on another. The Gram-kernel
    // (syrk) probe rides along so the profile records the real Gram rate —
    // the symmetry-aware kernel beats the gemm ledger rate by ~2×.
    let probe = dense::default_probe(dense::BackendKind::default_kind());
    let syrk_probe = dense::default_syrk_probe(dense::BackendKind::default_kind());
    println!(
        "# tuner_sweep ({}) — probe: {} {}³ gemm at {:.2} Gflop/s, {}x{} syrk at {:.2} ledger-Gflop/s",
        if smoke { "smoke" } else { "full" },
        probe.backend,
        probe.dim,
        probe.gflops(),
        syrk_probe.rows,
        syrk_probe.dim,
        syrk_probe.gflops()
    );
    println!("shape          chosen configuration                predicted_s  wall_s     normalized");

    let mut results: Vec<JsonValue> = Vec::new();
    let mut profile = TuningProfile::new();
    for &(m, n) in &shapes {
        let report = Tuner::new(m, n)
            .calibrate(true)
            .top_k(if smoke { 6 } else { 8 })
            .calibration_reps(3)
            .calibration_rows(if smoke { 512 } else { 1024 })
            .report()
            .expect("benchmark shapes always have candidates");
        profile.insert(report.profile_entry());
        let best = *report.best();
        let plan = report.best_plan(Machine::zero()).expect("winner must build");
        let a = well_conditioned(m, n, 42);
        let wall = measure_plan(&plan, &a, reps);
        let normalized = wall / probe.seconds;

        // Exhaustive evidence: measure every candidate at full size and see
        // how close the tuner's pick came to the measured optimum.
        let mut within_best: Option<f64> = None;
        if exhaustive {
            let mut best_measured = f64::INFINITY;
            for cand in &report.candidates {
                if let Ok(p) = cand.spec.build_plan(Machine::zero(), cand.backend) {
                    best_measured = best_measured.min(measure_plan(&p, &a, reps));
                }
            }
            within_best = Some(wall / best_measured);
        }

        let name = format!("{m}x{n}");
        println!(
            "{name:<14} {:<35} {:<12.4e} {wall:<10.4e} {normalized:.3}{}",
            best.config.to_string(),
            best.predicted_seconds,
            within_best
                .map(|r| format!("  (within {:.1}% of best)", (r - 1.0) * 100.0))
                .unwrap_or_default(),
        );

        let num = JsonValue::Number;
        results.push(object(vec![
            ("name", JsonValue::String(name)),
            ("m", num(m as f64)),
            ("n", num(n as f64)),
            ("processors", num(report.processors as f64)),
            ("threads", num(report.threads as f64)),
            ("algorithm", JsonValue::String(best.algorithm().name().to_string())),
            ("config", JsonValue::String(best.config.to_string())),
            ("backend", JsonValue::String(best.backend.to_string())),
            (
                "predicted_cost",
                object(vec![
                    ("alpha", num(best.predicted.alpha)),
                    ("beta", num(best.predicted.beta)),
                    ("gamma", num(best.predicted.gamma)),
                ]),
            ),
            ("predicted_seconds", num(best.predicted_seconds)),
            ("wall_seconds", num(wall)),
            ("normalized", num(normalized)),
            ("within_best_ratio", within_best.map(num).unwrap_or(JsonValue::Null)),
        ]));
    }

    // Kernel-level trajectory entries, gated like the shapes: the
    // symmetry-aware blocked SYRK against the syrk probe, and the
    // steady-state (warm-plan) factor latency for the 1D and CA paths, which
    // the plan-owned workspace pool keeps allocation free.
    kernel_entries(&probe, &syrk_probe, reps, &mut results);

    let num = JsonValue::Number;
    write_artifact(
        &out_path,
        vec![
            ("version", num(2.0)),
            (
                "mode",
                JsonValue::String(if smoke { "smoke" } else { "full" }.to_string()),
            ),
            ("probe_gflops", num(probe.gflops())),
            ("probe_seconds", num(probe.seconds)),
            ("syrk_gflops", num(syrk_probe.gflops())),
            ("syrk_probe_seconds", num(syrk_probe.seconds)),
        ],
        "shapes",
        &results,
    );
    if let Some(path) = flags.value("--profile") {
        profile.probe_gemm_seconds_per_flop = Some(probe.seconds_per_flop);
        profile.probe_syrk_seconds_per_flop = Some(syrk_probe.seconds_per_flop);
        std::fs::write(&path, profile.to_json()).unwrap_or_else(|e| panic!("cannot write profile {path}: {e}"));
        println!("# wrote tuning profile {path} ({} entries)", profile.len());
    }

    if let Some(path) = flags.value("--gate") {
        gate("perf gate", &path, "shapes", |_| true, &results, GATE_TOLERANCE, "");
    }
}
