//! Quickstart: build one `QrPlan`, factor a batch of tall-skinny matrices
//! with CA-CQR2 on a simulated `c × d × c` grid, and compare every
//! algorithm in the family on the same input.
//!
//! Run: `cargo run --release --example quickstart`
//!
//! Every plan runs the packed `Blocked` kernels; the loop-nest `Naive`
//! oracle is reachable only on the expert layer (`CfrParams::backend`,
//! `PgeqrfConfig::backend`, `run_cqr2_1d_global`).

use ca_cqr2::baseline::BlockCyclic;
use ca_cqr2::dense::random::well_conditioned;
use ca_cqr2::pargrid::GridShape;
use ca_cqr2::simgrid::Machine;
use ca_cqr2::{Algorithm, PlanError, QrPlan};

fn main() -> Result<(), PlanError> {
    // ---- Plan once. -------------------------------------------------------
    //
    // A 512 × 32 problem on a 2 × 8 × 2 tunable grid: P = c²·d = 32
    // simulated processors, factored on the simulated Stampede2-like
    // machine. All validation (power-of-two constraints, divisibility,
    // InverseDepth bounds) happens in `build()`, which returns a typed
    // `PlanError` on misconfiguration — `factor` can no longer hit an
    // assert in the layers below.
    let (m, n) = (512usize, 32usize);
    let shape = GridShape::new(2, 8)?;
    let plan = QrPlan::new(m, n)
        .algorithm(Algorithm::CaCqr2)
        .grid(shape)
        .machine(Machine::stampede2(64))
        .build()?;

    // ---- Execute many times. ---------------------------------------------
    //
    // The plan borrows &self, so one validated plan amortizes over a whole
    // batch of same-shape matrices — the pattern a high-throughput service
    // uses. Here: a batch of 4.
    println!(
        "CA-CQR2 on a {}x{}x{} grid (P = {}), batch of 4:",
        shape.c,
        shape.d,
        shape.c,
        plan.processors()
    );
    let mut last = None;
    for seed in 0..4u64 {
        let a = well_conditioned(m, n, 42 + seed);
        let report = plan.factor(&a)?;
        println!(
            "  seed {:>2}: orthogonality {:.3e}, residual {:.3e}, simulated {:.3} ms",
            42 + seed,
            report.orthogonality_error,
            report.residual_error,
            report.elapsed * 1e3
        );
        last = Some((a, report));
    }
    let (a, report) = last.unwrap();
    println!(
        "  last run: Q is {} x {}, R is {} x {}, {} words sent, {:.3e} flops",
        report.q.rows(),
        report.q.cols(),
        report.r.rows(),
        report.r.cols(),
        report.total_words(),
        report.total_flops()
    );

    // ---- Compare the whole family. ---------------------------------------
    //
    // Cross-algorithm comparison is a loop over `Algorithm::ALL`: the same
    // builder configuration serves all four variants (the CA family reads
    // `grid`, the baseline reads `block_cyclic`, 1D-CQR2 uses the grid's
    // total rank count).
    println!("\nevery algorithm in the family on the same {m} x {n} matrix:");
    for alg in Algorithm::ALL {
        let plan = QrPlan::new(m, n)
            .algorithm(alg)
            .grid(shape)
            .block_cyclic(BlockCyclic { pr: 16, pc: 2, nb: 16 })
            .machine(Machine::stampede2(64))
            .build()?;
        let report = plan.factor(&a)?;
        println!(
            "  {:<8} P={:<3} simulated {:>8.3} ms, orthogonality {:.3e}, residual {:.3e}",
            report.algorithm.to_string(),
            plan.processors(),
            report.elapsed * 1e3,
            report.orthogonality_error,
            report.residual_error
        );
    }

    // Misconfigurations are typed, not stringly or panicky.
    let err = QrPlan::new(m, 24).grid(shape).build().unwrap_err();
    println!("\na bad plan is a typed error: {err}");
    Ok(())
}
