//! The bare κ sweep: each of the four algorithms, run once with no
//! escalation (`RetryPolicy::none()`) on both runtimes, on inputs of
//! prescribed condition `κ₂ = 10⁰ … 10¹⁵`.
//!
//! Inside an algorithm's proven range a cell either meets the paper's
//! contract — orthogonality within 10× of Householder QR's on the same
//! input and a residual of `O(ε)` — or returns a typed error (a Cholesky
//! breakdown near the edge of the range is allowed; a wrong answer is not).
//! Outside the range a cell may return anything but must not panic. The
//! ranges are the escalation ladder's rung limits (`driver::rung_limit`):
//! CQR2 and CA-CQR2 are proven for `κ ≤ 1/√ε` (Yamamoto et al., ETNA 44,
//! 2015), shifted CQR3 for `κ ≤ 1/(64·(mn + n(n+1))·ε)` (Fukaya et al.,
//! SIAM J. Sci. Comput. 42(1), 2020), and PGEQRF everywhere.
//!
//! Run with `--nocapture` to print the per-algorithm outcome table.

use baseline::BlockCyclic;
use cacqr::{Algorithm, QrPlan, RetryPolicy};
use dense::norms::orthogonality_error;
use dense::random::matrix_with_condition;
use pargrid::GridShape;
use simgrid::RuntimeKind;

/// The largest exponent swept: `κ = 10¹⁵` is within a factor of ten of `1/ε`.
const MAX_EXP: i32 = 15;

/// The residual bound: `‖A − QR‖_F / ‖A‖_F ≤ 64·ε` is `O(ε)` with room for
/// the `√n`-sized constant of a backward-stable QR at these widths.
const RESIDUAL_BOUND: f64 = 64.0 * f64::EPSILON;

/// The largest `κ₂` for which `algorithm` on `m × n` input is proven stable
/// (the κ₁ limit `driver::rung_limit` gates each ladder rung on).
fn proven_range(algorithm: Algorithm, m: usize, n: usize) -> f64 {
    let kappa_max = RetryPolicy::KAPPA_MAX;
    match algorithm {
        Algorithm::Cqr2_1d | Algorithm::CaCqr2 => kappa_max,
        Algorithm::CaCqr3 => kappa_max * kappa_max / (64 * (m * n + n * (n + 1))) as f64,
        Algorithm::Pgeqrf => f64::INFINITY,
    }
}

/// One row of the outcome table: how the cells of one (shape, algorithm)
/// ended, in range and beyond it, and the worst in-range bound ratios.
#[derive(Default)]
struct Tally {
    met: usize,
    typed_errors: usize,
    worst_ortho_ratio: f64,
    worst_residual: f64,
    beyond_ok: usize,
    beyond_errors: usize,
}

#[test]
fn bare_algorithms_meet_their_bounds_or_fail_typed_inside_their_proven_ranges() {
    // (m, n, CA grid, PGEQRF layout on the same ranks)
    let shapes = [
        (
            2048,
            32,
            GridShape::one_d(4).unwrap(),
            BlockCyclic { pr: 4, pc: 1, nb: 32 },
        ),
        (
            512,
            64,
            GridShape::new(2, 2).unwrap(),
            BlockCyclic { pr: 4, pc: 2, nb: 16 },
        ),
    ];
    let mut table = String::new();
    for (m, n, grid, layout) in shapes {
        let mut tallies: Vec<Tally> = Algorithm::ALL.iter().map(|_| Tally::default()).collect();
        for exp in 0..=MAX_EXP {
            let kappa = 10f64.powi(exp);
            let a = matrix_with_condition(m, n, kappa, 4000 + exp as u64);
            let (qh, _) = dense::householder::qr(&a);
            let oracle = orthogonality_error(qh.as_ref());
            for (algorithm, tally) in Algorithm::ALL.into_iter().zip(&mut tallies) {
                let in_range = kappa <= proven_range(algorithm, m, n);
                for runtime in [RuntimeKind::Simulated, RuntimeKind::SharedMem] {
                    let cell = format!("{m}x{n} {algorithm} {runtime:?} κ=1e{exp}");
                    let plan = QrPlan::new(m, n)
                        .algorithm(algorithm)
                        .grid(grid)
                        .block_cyclic(layout)
                        .runtime(runtime)
                        .retry(RetryPolicy::none())
                        .build()
                        .unwrap_or_else(|e| panic!("{cell}: {e}"));
                    // Outside its range a cell only has to return.
                    let result = plan.factor(&a);
                    if !in_range {
                        match result {
                            Ok(_) => tally.beyond_ok += 1,
                            Err(_) => tally.beyond_errors += 1,
                        }
                        continue;
                    }
                    let Ok(report) = result else {
                        tally.typed_errors += 1;
                        continue;
                    };
                    let (ortho, resid) = (report.orthogonality_error, report.residual_error);
                    assert!(
                        ortho <= 10.0 * oracle,
                        "{cell}: orthogonality {ortho:.2e} against Householder's {oracle:.2e}"
                    );
                    assert!(resid <= RESIDUAL_BOUND, "{cell}: residual {resid:.2e}");
                    tally.met += 1;
                    tally.worst_ortho_ratio = tally.worst_ortho_ratio.max(ortho / oracle);
                    tally.worst_residual = tally.worst_residual.max(resid);
                }
            }
        }
        for (algorithm, t) in Algorithm::ALL.into_iter().zip(&tallies) {
            table += &format!(
                "| {m}×{n} | {algorithm} | {:.1e} | {} | {} | {:.2} | {:.1e} | {} / {} |\n",
                proven_range(algorithm, m, n),
                t.met,
                t.typed_errors,
                t.worst_ortho_ratio,
                t.worst_residual,
                t.beyond_ok,
                t.beyond_errors
            );
        }
    }
    println!(
        "| shape | algorithm | proven κ ≤ | met | typed errors | worst ortho / Householder | worst residual \
         | beyond range: Ok / typed error |"
    );
    println!("|---|---|---:|---:|---:|---:|---:|---:|");
    print!("{table}");
}
