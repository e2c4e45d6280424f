//! Shared-memory scaling bench: *measured* communication avoidance.
//!
//! Factors the same paper-ladder shapes with 1D-CQR2 and CA-CQR2 on the
//! shared-memory runtime at `P = 8` ranks and records the wall-clock
//! seconds of the SPMD region itself (`QrReport::wall_seconds`, the real
//! measurement PR 6 adds — not the virtual α-β-γ clock). The headline
//! number is the CA-over-1D speedup: 1D-CQR2 makes every rank redundantly
//! Cholesky-factor and invert the full `n × n` Gram matrix, while CA-CQR2
//! distributes that work over the `c × d × c` grid — so even on a single
//! socket the communication-avoiding schedule must win wall-clock time at
//! the fat end of the ladder. Emits `BENCH_PR6.json`.
//!
//! Flags (same conventions as `tuner_sweep`):
//!
//! * `--gate <baseline.json>` — compares normalized times and speedups
//!   against the checked-in baseline's top-level `"shm"` array and exits
//!   non-zero on regression (> 25% slower, or speedup below both the
//!   baseline-derived floor and 1.0).
//! * `--out <path>` — artifact path (default `BENCH_PR6.json`). Regenerate
//!   the baseline section by pasting the `"shm"` array from the artifact.
//!
//! Run: `cargo run --release -p bench --bin shm_scaling`

use bench_harness::{entry_field, gate, object, timed_entry, write_artifact, Flags};
use cacqr::tuner::json::JsonValue;
use cacqr::{Algorithm, QrPlan};
use dense::random::well_conditioned;
use pargrid::GridShape;
use simgrid::RuntimeKind;

/// Normalized times may regress by at most this factor — and measured
/// speedups may shrink by at most this factor — before the gate fails.
const GATE_TOLERANCE: f64 = 1.25;

/// Ranks for every measurement: the acceptance criterion asks for measured
/// speedup at ≥ 8 ranks.
const RANKS: usize = 8;

/// Wall seconds of the SPMD region, best of `reps` on a warm plan.
fn measure(plan: &QrPlan, a: &dense::Matrix, reps: usize) -> f64 {
    plan.warm_up(a).expect("well-conditioned input");
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let report = plan.factor(a).expect("well-conditioned input");
        assert!(report.orthogonality_error < 1e-12, "measured runs must stay correct");
        best = best.min(report.wall_seconds);
    }
    best
}

fn main() {
    let flags = Flags::from_env();
    let out_path = flags.value("--out").unwrap_or_else(|| "BENCH_PR6.json".to_string());

    // The fat end of the paper ladder, where the n³-redundancy of 1D-CQR2
    // dominates and communication avoidance pays off even within a socket.
    let shapes: Vec<(usize, usize)> = vec![(512, 256), (256, 256)];
    let reps = 3;

    // Probe-normalize every wall time (tuner_sweep's convention) so the
    // checked-in baseline survives machine changes; report the measured
    // transport constants alongside for the record.
    let probe = dense::default_probe(dense::BackendKind::default_kind());
    let net = simgrid::probe_shm_alpha_beta();
    println!(
        "# shm_scaling — probe: {} {}³ gemm at {:.2} Gflop/s; shm transport α = {:.1} ns, β = {:.3} ns/word",
        probe.backend,
        probe.dim,
        probe.gflops(),
        net.alpha * 1e9,
        net.beta * 1e9,
    );
    println!("shape          algorithm   wall_s      normalized  speedup");

    let mut results: Vec<JsonValue> = Vec::new();
    for &(m, n) in &shapes {
        let a = well_conditioned(m, n, 42);
        let plan_1d = QrPlan::new(m, n)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(RANKS).unwrap())
            .runtime(RuntimeKind::SharedMem)
            .build()
            .expect("ladder shapes divide evenly over 8 ranks");
        let plan_ca = QrPlan::new(m, n)
            .algorithm(Algorithm::CaCqr2)
            .grid(GridShape::new(2, 2).unwrap())
            .runtime(RuntimeKind::SharedMem)
            .build()
            .expect("2x2x2 grid fits the ladder shapes");
        assert_eq!(plan_ca.processors(), RANKS);

        let wall_1d = measure(&plan_1d, &a, reps);
        let wall_ca = measure(&plan_ca, &a, reps);
        let norm_1d = wall_1d / probe.seconds;
        let norm_ca = wall_ca / probe.seconds;
        let speedup = wall_1d / wall_ca;

        let name = format!("{m}x{n}");
        println!("{name:<14} 1d-cqr2     {wall_1d:<11.4e} {norm_1d:<11.3}");
        println!("{name:<14} ca-cqr2     {wall_ca:<11.4e} {norm_ca:<11.3} {speedup:.2}x");

        let threads = dense::max_threads();
        for (algorithm, label, wall) in [("1d-cqr2", "1d", wall_1d), ("ca-cqr2", "ca", wall_ca)] {
            let extra = vec![
                ("m", JsonValue::Number(m as f64)),
                ("n", JsonValue::Number(n as f64)),
                ("processors", JsonValue::Number(RANKS as f64)),
                ("algorithm", JsonValue::String(algorithm.to_string())),
            ];
            let entry_name = format!("shm-{label}-{name}");
            results.push(timed_entry(&entry_name, threads, wall, probe.seconds, extra));
        }
        results.push(object(vec![
            ("name", JsonValue::String(format!("shm-speedup-{name}"))),
            ("threads", JsonValue::Number(threads as f64)),
            ("speedup", JsonValue::Number(speedup)),
        ]));
    }

    let num = JsonValue::Number;
    write_artifact(
        &out_path,
        vec![
            ("version", num(1.0)),
            ("runtime", JsonValue::String("shm".to_string())),
            ("ranks", num(RANKS as f64)),
            ("probe_gflops", num(probe.gflops())),
            ("probe_seconds", num(probe.seconds)),
            ("net_alpha_seconds", num(net.alpha)),
            ("net_beta_seconds_per_word", num(net.beta)),
        ],
        "shm",
        &results,
    );

    // The acceptance floor stands on its own, baseline or not: CA-CQR2 must
    // measurably beat 1D-CQR2 at the headline shape.
    let headline = entry_field(&results, "shm-speedup-512x256", "speedup").expect("headline shape is always measured");
    if headline < 1.0 {
        eprintln!("# shm gate: FAILED — CA-CQR2 speedup over 1D-CQR2 at 512x256 is {headline:.2}x (< 1.0)");
        std::process::exit(1);
    }

    if let Some(path) = flags.value("--gate") {
        let summary = format!("; headline speedup {headline:.2}x");
        gate("shm gate", &path, "shm", |_| true, &results, GATE_TOLERANCE, &summary);
    }
}
