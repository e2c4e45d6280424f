//! Online least squares over a row stream — the streaming counterpart of
//! `examples/least_squares.rs`.
//!
//! Observations of a polynomial model arrive in batches. Instead of
//! re-factoring the whole design matrix per batch (`O(mn²)` each time), a
//! [`StreamingQr`] opened with a right-hand-side track folds each batch
//! into a live `R` *and* `d = Aᵀb` at `O(kn² + n³)`, and
//! [`StreamingQr::solve`] re-estimates the coefficients after every
//! arrival via corrected semi-normal equations — no caller-side
//! bookkeeping. A sliding-window phase then *downdates* the oldest rows so
//! the fit tracks only the recent past, and a final section replays the
//! same traffic through a caller-owned map of named streams, each behind a
//! `Mutex`, from another thread — the shared, contention-safe route to
//! identical factors and solutions.
//!
//! Run: `cargo run --release --example online_lsq`

use ca_cqr2::dense::random::SeededRng;
use ca_cqr2::dense::Matrix;
use ca_cqr2::pargrid::GridShape;
use ca_cqr2::{Algorithm, QrPlan, StreamingQr};
use std::collections::HashMap;
use std::sync::Mutex;

/// Ground truth: y(t) = 3 − 2t + 0.5t² − 0.1t³ plus noise.
const TRUTH: [f64; 4] = [3.0, -2.0, 0.5, -0.1];

/// One batch of observations at times `ts`: Vandermonde rows + noisy values.
fn observe(ts: &[f64], n: usize, rng: &mut SeededRng) -> (Matrix, Matrix) {
    let design = Matrix::from_fn(ts.len(), n, |i, j| ts[i].powi(j as i32));
    let values = Matrix::from_fn(ts.len(), 1, |i, _| {
        let t = ts[i];
        let clean: f64 = TRUTH.iter().enumerate().map(|(k, c)| c * t.powi(k as i32)).sum();
        clean + 0.01 * (rng.uniform() - 0.5)
    });
    (design, values)
}

fn main() {
    let n = 4usize; // fit exactly the generating degree-3 model
    let m0 = 256usize;
    let batch = 16usize;
    let batches = 8usize;
    let mut rng = SeededRng::seed_from_u64(11);
    let time_at = |i: usize| -1.0 + 2.0 * (i % 512) as f64 / 511.0;

    // Initial window + live stream with its right-hand-side track. The
    // plan validates once; the stream shares its workspace pool, so warm
    // appends and solves allocate nothing.
    let ts0: Vec<f64> = (0..m0).map(time_at).collect();
    let (a0, b0) = observe(&ts0, n, &mut rng);
    let plan = QrPlan::new(m0, n)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(4).unwrap())
        .build()
        .expect("256 rows split evenly over 4 ranks");
    let mut stream: StreamingQr = plan.stream_with_rhs(&a0, &b0).expect("well-conditioned window");
    stream.reserve_rows(batches * batch);

    println!("online fit of a degree-3 model, {batch}-row batches onto {m0} initial rows:");
    println!("  rows    drift       max |coeff err|");
    let mut appended: Vec<(Matrix, Matrix)> = Vec::new();
    for arrival in 0..batches {
        let ts: Vec<f64> = (0..batch).map(|i| time_at(m0 + arrival * batch + i)).collect();
        let (a_k, b_k) = observe(&ts, n, &mut rng);
        let status = stream
            .append_rows_with(a_k.as_ref(), b_k.as_ref())
            .expect("full-rank batch");
        appended.push((a_k, b_k));

        let x = stream.solve().expect("factor is live");
        let worst = (0..n).map(|k| (x.get(k, 0) - TRUTH[k]).abs()).fold(0.0, f64::max);
        println!("  {:<7} {:<11.3e} {worst:.5}", status.rows, status.drift);
        assert!(worst < 0.05, "streamed fit must track the generating model");
    }

    // Sliding window: retire the initial rows so only streamed batches
    // remain. The downdate subtracts the same rows from both RᵀR and d.
    let retire = Matrix::from_view(a0.view(0, 0, m0 / 2, n));
    let retire_b = Matrix::from_view(b0.view(0, 0, m0 / 2, 1));
    let status = stream
        .downdate_rows_with(retire.as_ref(), retire_b.as_ref())
        .expect("rows are in the window");
    let x = stream.solve().expect("factor is live");
    let worst = (0..n).map(|k| (x.get(k, 0) - TRUTH[k]).abs()).fold(0.0, f64::max);
    println!(
        "  after retiring the oldest {} rows: {} live, max |coeff err| {worst:.5}",
        m0 / 2,
        status.rows
    );
    assert!(worst < 0.05, "the slid window still covers the model");

    // Snapshot: explicit Q plus batch-grade diagnostics (the CQR2 repair
    // pass runs under the hood, so the bounds match a from-scratch factor).
    let snap = stream.snapshot().expect("well-conditioned window");
    println!(
        "  snapshot: {} rows, orthogonality {:.2e}, residual {:.2e}, {} refreshes",
        snap.rows,
        snap.orthogonality_error.expect("history retained"),
        snap.residual_error.expect("history retained"),
        snap.refreshes,
    );
    assert!(snap.orthogonality_error.unwrap() < 1e-12);
    assert!(snap.residual_error.unwrap() < 1e-12);

    // The same traffic through streams the caller owns: a map of named
    // streams, each behind its own `Mutex`, shared by reference with the
    // threads that feed them. The caller orders each stream's updates (here,
    // one feeding thread per key); the plan is shared, so every stream draws
    // on its warm workspaces. Factors and solutions are bitwise-identical
    // to the direct run above.
    let streams: HashMap<String, Mutex<StreamingQr>> = HashMap::from([(
        "telemetry".to_string(),
        Mutex::new(plan.stream_with_rhs(&a0, &b0).expect("well-conditioned window")),
    )]);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut live = streams["telemetry"].lock().unwrap();
            for (a_k, b_k) in &appended {
                live.append_rows_with(a_k.as_ref(), b_k.as_ref())
                    .expect("full-rank batch");
            }
            live.downdate_rows_with(retire.as_ref(), retire_b.as_ref())
                .expect("rows are in the window");
        });
    });
    let mut live = streams["telemetry"].lock().unwrap();
    assert_eq!(
        live.solve().expect("factor is live").data(),
        x.data(),
        "a shared stream's solve must match the direct stream bitwise"
    );
    assert_eq!(
        live.snapshot().expect("well-conditioned window").r.data(),
        snap.r.data(),
        "a shared stream must match the direct stream bitwise"
    );
    println!(
        "  shared replay: bitwise-identical R and x after {} updates from another thread",
        appended.len() + 1
    );
}
