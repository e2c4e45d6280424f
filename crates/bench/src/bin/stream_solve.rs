//! Streaming solve bench: *measured* solve-after-delta economics.
//!
//! Opens a `StreamingQr` with a right-hand-side track on the paper's
//! tall-skinny ladder shapes and times the full streamed reaction to one
//! rank-64 arrival — `append_rows_with` + `solve_into`, `O(kn² + mn)` with
//! the refinement sweep — against what a batch-only engine pays for the
//! same freshness: re-factor the retained rows (`StreamingQr::refresh`,
//! `O(mn²)`) and then solve. The headline number is the streamed-solve
//! speedup at 8192×128: it must beat refactor-then-solve by ≥ 5x (the
//! PR's acceptance floor), and the streamed coefficients must match a
//! freshly re-factored solve to semi-normal-equation accuracy. Emits
//! `BENCH_PR8.json`.
//!
//! Flags (same conventions as `stream_update`):
//!
//! * `--gate <baseline.json>` — compares normalized times and speedups
//!   against the checked-in baseline's top-level `"stream"` array (only
//!   the `stream-solve-` / `stream-refactor-solve-` entries; the update
//!   bench owns the rest) and exits non-zero on regression.
//! * `--out <path>` — artifact path (default `BENCH_PR8.json`).
//!
//! Run: `cargo run --release -p bench --bin stream_solve`

use bench_harness::{entry_field, gate, time_best, timed_entry, write_artifact, Flags};
use cacqr::stream::StreamingQr;
use cacqr::tuner::json::JsonValue;
use cacqr::{Algorithm, QrPlan};
use dense::random::{gaussian_matrix, well_conditioned};
use dense::Matrix;
use pargrid::GridShape;

/// Normalized times may regress by at most this factor — and measured
/// speedups may shrink by at most this factor — before the gate fails.
/// Matches `stream_update`: these ops are milliseconds at most, so the
/// probe-normalized numbers carry more scheduler noise than the
/// hundreds-of-milliseconds collective benchmarks.
const GATE_TOLERANCE: f64 = 1.4;

/// The acceptance floor: a streamed append+solve at the headline shape
/// must beat refactor-then-solve by at least this much.
const HEADLINE_FLOOR: f64 = 5.0;

/// Rank of the timed arrival. 64 is the widest (most refactor-friendly)
/// delta the update bench tracks, so the floor is conservative.
const DELTA_ROWS: usize = 64;

/// Untimed warm-up and timed repetitions for the streamed op (each rep
/// appends `DELTA_ROWS` rows for real — the reservation below covers
/// them all, so history pushes stay pure copies in the timed region).
const SOLVE_WARM: usize = 5;
const SOLVE_REPS: usize = 15;

/// Independent measurement passes per shape, each on a freshly opened
/// stream; every wall is the best across passes.
const PASSES: usize = 3;

/// Max relative coefficient difference between two solution matrices.
fn rel_diff(x: &Matrix, y: &Matrix) -> f64 {
    let mut worst = 0.0_f64;
    for i in 0..x.rows() {
        for j in 0..x.cols() {
            let denom = y.get(i, j).abs().max(1.0);
            worst = worst.max((x.get(i, j) - y.get(i, j)).abs() / denom);
        }
    }
    worst
}

fn main() {
    let flags = Flags::from_env();
    let out_path = flags.value("--out").unwrap_or_else(|| "BENCH_PR8.json".to_string());

    // The tall-skinny ladder: m ≫ n makes the refactor's O(mn²) Gram pass
    // expensive while the streamed append+solve stays O(kn² + mn).
    let shapes: Vec<(usize, usize)> = vec![(8192, 128), (4096, 64)];
    let threads = dense::max_threads();

    let probe = dense::probe_gemm(dense::BackendKind::default_kind(), 256, 8);
    println!(
        "# stream_solve — probe: {} {}³ gemm at {:.2} Gflop/s",
        probe.backend,
        probe.dim,
        probe.gflops(),
    );
    println!("shape          op               wall_s      normalized  speedup");

    let mut results: Vec<JsonValue> = Vec::new();
    let mut worst_solve_diff = 0.0_f64;
    for &(m0, n) in &shapes {
        let a0 = well_conditioned(m0, n, 42);
        let b0 = gaussian_matrix(m0, 1, 4242);
        let plan = QrPlan::new(m0, n)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(8).unwrap())
            .build()
            .expect("ladder shapes divide evenly over 8 ranks");
        let name = format!("{m0}x{n}");
        let mut wall_refactor = f64::INFINITY;
        let mut wall_streamed = f64::INFINITY;
        let mut last_stream: Option<StreamingQr> = None;
        for _pass in 0..PASSES {
            // Infinite drift threshold: the refactor path is the thing being
            // measured, so the auto-refresh stays out of the streamed loop.
            // Correctness is still asserted against a fresh refresh below.
            let mut s: StreamingQr = plan
                .stream_with_rhs(&a0, &b0)
                .expect("well-conditioned seed")
                .with_drift_threshold(f64::INFINITY);
            s.reserve_rows((SOLVE_WARM + SOLVE_REPS + 1) * DELTA_ROWS + 16);
            let mut x = Matrix::zeros(n, 1);

            // The batch-only engine's reaction to a delta: re-factor every
            // retained row, then solve. One append first so the row count is
            // off-plan — the honest streaming state (refresh keeps the row
            // count fixed, so best-of-reps is well defined).
            let d0 = gaussian_matrix(DELTA_ROWS, n, 7);
            let e0 = gaussian_matrix(DELTA_ROWS, 1, 77);
            s.append_rows_with(d0.as_ref(), e0.as_ref()).expect("append");
            wall_refactor = wall_refactor.min(time_best(1, 5, || {
                s.refresh().expect("well-conditioned rows");
                s.solve_into(&mut x).expect("factor is live");
            }));

            // The streamed reaction: fold the delta into R and d = Aᵀb, then
            // solve via corrected semi-normal equations. Warm path: the
            // reservation above plus the pooled arenas make it allocation-free.
            let b = gaussian_matrix(DELTA_ROWS, n, 1000);
            let c = gaussian_matrix(DELTA_ROWS, 1, 2000);
            wall_streamed = wall_streamed.min(time_best(SOLVE_WARM, SOLVE_REPS, || {
                let status = s.append_rows_with(b.as_ref(), c.as_ref()).expect("append");
                assert!(!status.refreshed, "timed appends must stay on the update path");
                s.solve_into(&mut x).expect("factor is live");
            }));
            last_stream = Some(s);
        }

        let norm_refactor = wall_refactor / probe.seconds;
        println!("{name:<14} refactor+solve   {wall_refactor:<11.4e} {norm_refactor:<11.3}");
        let entry_name = format!("stream-refactor-solve-{name}");
        results.push(timed_entry(&entry_name, threads, wall_refactor, probe.seconds, vec![]));
        let norm_streamed = wall_streamed / probe.seconds;
        let speedup = wall_refactor / wall_streamed;
        println!("{name:<14} append+solve     {wall_streamed:<11.4e} {norm_streamed:<11.3} {speedup:.2}x");
        let entry_name = format!("stream-solve-{name}");
        let extra = vec![("speedup", JsonValue::Number(speedup))];
        results.push(timed_entry(&entry_name, threads, wall_streamed, probe.seconds, extra));

        // The streamed coefficients must still be *right* after all the
        // timed traffic: a fresh re-factorization of the same rows must
        // reproduce them to semi-normal-equation accuracy.
        let mut s = last_stream.expect("PASSES ≥ 1");
        let streamed_x = s.solve().expect("factor is live");
        s.refresh().expect("well-conditioned rows");
        let fresh_x = s.solve().expect("factor is live");
        let diff = rel_diff(&streamed_x, &fresh_x);
        assert!(
            diff < 1e-8,
            "{name}: streamed solve drifted {diff:.3e} from the re-factored solve"
        );
        worst_solve_diff = worst_solve_diff.max(diff);
    }

    let num = JsonValue::Number;
    write_artifact(
        &out_path,
        vec![
            ("version", num(1.0)),
            ("probe_gflops", num(probe.gflops())),
            ("probe_seconds", num(probe.seconds)),
            ("solve_rel_diff_worst", num(worst_solve_diff)),
        ],
        "stream",
        &results,
    );

    // The acceptance floor stands on its own, baseline or not.
    let headline =
        entry_field(&results, "stream-solve-8192x128", "speedup").expect("headline shape is always measured");
    if headline < HEADLINE_FLOOR {
        eprintln!(
            "# stream-solve gate: FAILED — streamed append+solve speedup over refactor-then-solve \
             at 8192x128 is {headline:.2}x (< {HEADLINE_FLOOR}x)"
        );
        std::process::exit(1);
    }

    if let Some(path) = flags.value("--gate") {
        // The `"stream"` array is shared with `stream_update`: each bin
        // gates only the entries it produces, keyed by name prefix.
        let tracks = |name: &str| name.starts_with("stream-solve-") || name.starts_with("stream-refactor-solve-");
        let summary = format!("; headline speedup {headline:.2}x");
        gate(
            "stream-solve gate",
            &path,
            "stream",
            tracks,
            &results,
            GATE_TOLERANCE,
            &summary,
        );
    }
}
