//! Least squares via CA-CQR2 — the motivating application of the paper's
//! introduction ("very overdetermined systems of equations in a large
//! number of variables").
//!
//! Fits a polynomial model to noisy synthetic observations by solving
//! `min ‖Ax − b‖₂` through the distributed QR: `x = R⁻¹·(Qᵀb)`.
//!
//! Run: `cargo run --release --example least_squares`

use ca_cqr2::dense::gemm::{matmul, Trans};
use ca_cqr2::dense::random::SeededRng;
use ca_cqr2::dense::{BackendKind, Matrix};
use ca_cqr2::pargrid::GridShape;
use ca_cqr2::simgrid::Machine;
use ca_cqr2::QrPlan;

fn main() {
    // Ground truth: y(t) = 3 − 2t + 0.5t² − 0.1t³ plus noise.
    let truth = [3.0, -2.0, 0.5, -0.1];
    let degree = truth.len();
    let m = 2048usize;
    let n = 8usize; // fit degree-7 polynomial; trailing coefficients ≈ 0

    let mut rng = SeededRng::seed_from_u64(7);
    let ts: Vec<f64> = (0..m).map(|i| -1.0 + 2.0 * i as f64 / (m - 1) as f64).collect();
    // Vandermonde design matrix, m × n.
    let a = Matrix::from_fn(m, n, |i, j| ts[i].powi(j as i32));
    // Observations with noise.
    let b = Matrix::from_fn(m, 1, |i, _| {
        let t = ts[i];
        let clean: f64 = truth.iter().enumerate().map(|(k, c)| c * t.powi(k as i32)).sum();
        clean + 0.01 * (rng.uniform() - 0.5)
    });

    // Distributed QR of the design matrix on a 2x8x2 grid. The plan is
    // validated once and could be reused for every refit of the model.
    let plan = QrPlan::new(m, n)
        .grid(GridShape::new(2, 8).unwrap())
        .machine(Machine::stampede2(64))
        .build()
        .expect("valid plan");
    let run = plan.factor(&a).expect("full-rank design");

    // Solve R·x = Qᵀb by backward substitution.
    let mut x = matmul(run.q.as_ref(), Trans::Yes, b.as_ref(), Trans::No); // n × 1
    BackendKind::default_kind()
        .get()
        .trsm_left_upper(run.r.as_ref(), x.as_mut());
    let x = x.transposed(); // 1 × n for printing

    println!(
        "least squares fit of a degree-{} model ({} observations, {} unknowns):",
        degree - 1,
        m,
        n
    );
    println!("  coefficient   truth      estimate");
    for k in 0..n {
        let t = truth.get(k).copied().unwrap_or(0.0);
        println!("  x[{k}]          {t:>8.4}   {:>9.5}", x.get(0, k));
        if k < degree {
            assert!(
                (x.get(0, k) - t).abs() < 0.05,
                "fit should recover the generating model"
            );
        }
    }
    // Residual check.
    let ax = matmul(a.as_ref(), Trans::No, x.transposed().as_ref(), Trans::No);
    let mut r2 = 0.0;
    for i in 0..m {
        let d = ax.get(i, 0) - b.get(i, 0);
        r2 += d * d;
    }
    println!(
        "  residual 2-norm: {:.4e} (noise floor ~ {:.1e})",
        r2.sqrt(),
        0.01 * (m as f64 / 12.0).sqrt()
    );
    println!("  simulated factorization time: {:.3} ms", run.elapsed * 1e3);
}
