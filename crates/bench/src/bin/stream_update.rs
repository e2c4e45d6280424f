//! Streaming update bench: *measured* update-vs-refresh economics.
//!
//! Opens a `StreamingQr` on the paper's tall-skinny ladder shapes and times
//! warm rank-k row-appends at k ∈ {1, 16, 64} against a full
//! re-factorization (`StreamingQr::refresh`) of the same retained rows —
//! the cost a batch-only engine pays to incorporate every delta. The
//! headline number is the rank-64 speedup at 8192×128: the `O(kn² + n³)`
//! update must beat the `O(mn² + n³)` refresh by ≥ 5x there (the PR's
//! acceptance floor), and the closing snapshot's diagnostics must meet the
//! batch CQR2 orthogonality/residual bounds. Emits `BENCH_PR7.json`.
//!
//! Flags (same conventions as `shm_scaling`):
//!
//! * `--gate <baseline.json>` — compares normalized times and speedups
//!   against the checked-in baseline's top-level `"stream"` array and exits
//!   non-zero on regression (> 25% slower, or speedup shrunk > 25%).
//! * `--out <path>` — artifact path (default `BENCH_PR7.json`). Regenerate
//!   the baseline section by pasting the `"stream"` array from the artifact.
//!
//! Run: `cargo run --release -p bench --bin stream_update`

use bench_harness::{entry_field, gate, time_best, timed_entry, write_artifact, Flags};
use cacqr::stream::StreamingQr;
use cacqr::tuner::json::JsonValue;
use cacqr::{Algorithm, QrPlan};
use dense::random::{gaussian_matrix, well_conditioned};
use pargrid::GridShape;

/// Normalized times may regress by at most this factor — and measured
/// speedups may shrink by at most this factor — before the gate fails.
/// Looser than `shm_scaling`'s 1.25x: the append entries are sub-millisecond,
/// so even best-of-many timing carries more scheduler noise than the
/// hundreds-of-milliseconds collective benchmarks.
const GATE_TOLERANCE: f64 = 1.4;

/// The acceptance floor: a rank-64 append at the headline shape must beat a
/// full re-factorization by at least this much.
const HEADLINE_FLOOR: f64 = 5.0;

const UPDATE_WIDTHS: [usize; 3] = [1, 16, 64];

/// Untimed warm-up and timed repetitions per append width (each rep appends
/// `k` rows for real, so the history reservation below must cover them all).
const APPEND_WARM: usize = 5;
const APPEND_REPS: usize = 15;

/// Independent measurement passes per shape, each on a freshly opened
/// stream; every wall is the best across passes. One pass covers only a few
/// milliseconds, so a single scheduler stall can poison all its reps — the
/// passes spread the sampling window wide enough to dodge it.
const PASSES: usize = 3;

fn main() {
    let flags = Flags::from_env();
    let out_path = flags.value("--out").unwrap_or_else(|| "BENCH_PR7.json".to_string());

    // The tall-skinny ladder: the regime where m ≫ n makes the refresh's
    // O(mn²) Gram pass expensive and the update's O(kn² + n³) cheap.
    let shapes: Vec<(usize, usize)> = vec![(8192, 128), (4096, 64)];
    let threads = dense::max_threads();

    // Best-of-8 instead of the default best-of-3: the probe sets the
    // normalization denominator for every gated entry, so its noise floor
    // must sit well under the gate tolerance.
    let probe = dense::probe_gemm(dense::BackendKind::default_kind(), 256, 8);
    let append_probe = dense::default_append_probe(dense::BackendKind::default_kind());
    println!(
        "# stream_update — probe: {} {}³ gemm at {:.2} Gflop/s; append kernel at {:.2} Gflop/s",
        probe.backend,
        probe.dim,
        probe.gflops(),
        append_probe.gflops(),
    );
    println!("shape          op          wall_s      normalized  speedup");

    let mut results: Vec<JsonValue> = Vec::new();
    let mut worst_orth = 0.0_f64;
    let mut worst_resid = 0.0_f64;
    for &(m0, n) in &shapes {
        let a0 = well_conditioned(m0, n, 42);
        let plan = QrPlan::new(m0, n)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(8).unwrap())
            .build()
            .expect("ladder shapes divide evenly over 8 ranks");
        let name = format!("{m0}x{n}");
        let mut wall_refresh = f64::INFINITY;
        let mut wall_append = vec![f64::INFINITY; UPDATE_WIDTHS.len()];
        let mut last_stream: Option<StreamingQr> = None;
        for _pass in 0..PASSES {
            // Infinite drift threshold: this bench measures raw update
            // latency, so the auto-refresh (whose economics it is
            // measuring) stays out of the timed loop. Correctness is still
            // asserted via the closing snapshot.
            let mut s: StreamingQr = plan
                .stream(&a0)
                .expect("well-conditioned seed")
                .with_drift_threshold(f64::INFINITY);
            // Every row this pass will ever append, so history pushes are
            // pure copies in the timed region.
            s.reserve_rows(
                UPDATE_WIDTHS
                    .iter()
                    .map(|k| (APPEND_WARM + APPEND_REPS) * k)
                    .sum::<usize>()
                    + 16,
            );

            // Full re-factorization of the retained rows: the refresh path
            // the engine would otherwise pay per delta (live row count stays
            // fixed across refreshes, so best-of-reps is well defined). One
            // append first so the row count is off-plan — the honest
            // streaming state.
            s.append_rows(gaussian_matrix(1, n, 7).as_ref()).expect("append");
            wall_refresh = wall_refresh.min(time_best(1, 5, || s.refresh().expect("well-conditioned rows")));

            for (j, &k) in UPDATE_WIDTHS.iter().enumerate() {
                let b = gaussian_matrix(k, n, 1000 + k as u64);
                // Sub-millisecond ops: best-of-15 spans a window long enough
                // to dodge a sustained scheduler stall within the pass.
                wall_append[j] = wall_append[j].min(time_best(APPEND_WARM, APPEND_REPS, || {
                    let status = s.append_rows(b.as_ref()).expect("append");
                    assert!(!status.refreshed, "timed appends must stay on the update path");
                }));
            }
            last_stream = Some(s);
        }

        let norm_refresh = wall_refresh / probe.seconds;
        println!("{name:<14} refresh     {wall_refresh:<11.4e} {norm_refresh:<11.3}");
        let entry_name = format!("stream-refresh-{name}");
        results.push(timed_entry(&entry_name, threads, wall_refresh, probe.seconds, vec![]));
        for (j, &k) in UPDATE_WIDTHS.iter().enumerate() {
            let wall = wall_append[j];
            let norm = wall / probe.seconds;
            let speedup = wall_refresh / wall;
            println!("{name:<14} append-k{k:<4}{wall:<11.4e} {norm:<11.3} {speedup:.2}x");
            let entry_name = format!("stream-append-{name}-k{k}");
            let extra = vec![("speedup", JsonValue::Number(speedup))];
            results.push(timed_entry(&entry_name, threads, wall, probe.seconds, extra));
        }

        // The stream must still be *correct* after all the timed traffic:
        // snapshot diagnostics meet the batch CQR2 bounds.
        let snap = last_stream
            .expect("PASSES ≥ 1")
            .snapshot()
            .expect("well-conditioned rows");
        let orth = snap.orthogonality_error.expect("history retained");
        let resid = snap.residual_error.expect("history retained");
        assert!(
            orth < 1e-12,
            "{name}: snapshot orthogonality {orth:.3e} must meet the batch bound"
        );
        assert!(
            resid < 1e-12,
            "{name}: snapshot residual {resid:.3e} must meet the batch bound"
        );
        worst_orth = worst_orth.max(orth);
        worst_resid = worst_resid.max(resid);
    }

    let num = JsonValue::Number;
    write_artifact(
        &out_path,
        vec![
            ("version", num(1.0)),
            ("probe_gflops", num(probe.gflops())),
            ("probe_seconds", num(probe.seconds)),
            ("append_probe_gflops", num(append_probe.gflops())),
            ("snapshot_orthogonality_worst", num(worst_orth)),
            ("snapshot_residual_worst", num(worst_resid)),
        ],
        "stream",
        &results,
    );

    // The acceptance floor stands on its own, baseline or not.
    let headline =
        entry_field(&results, "stream-append-8192x128-k64", "speedup").expect("headline shape is always measured");
    if headline < HEADLINE_FLOOR {
        eprintln!(
            "# stream gate: FAILED — rank-64 append speedup over refresh at 8192x128 is \
             {headline:.2}x (< {HEADLINE_FLOOR}x)"
        );
        std::process::exit(1);
    }

    if let Some(path) = flags.value("--gate") {
        // The `"stream"` array is shared with `stream_solve`: each bin
        // gates only the entries it produces, keyed by name prefix.
        let tracks = |name: &str| name.starts_with("stream-refresh-") || name.starts_with("stream-append-");
        let summary = format!("; headline speedup {headline:.2}x");
        gate(
            "stream gate",
            &path,
            "stream",
            tracks,
            &results,
            GATE_TOLERANCE,
            &summary,
        );
    }
}
