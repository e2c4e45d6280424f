//! Miniature strong/weak scaling figures measured *entirely on the
//! simulator* (no closed-form models): the same experiment design as
//! Figures 1/6/7 at laptop scale, with real distributed execution, real
//! data, and virtual-time measurement under the Stampede2 machine model.
//!
//! This demonstrates the full pipeline end to end and shows the same
//! qualitative behaviour as the model-evaluated figures: ScaLAPACK's
//! latency-bound decline and CA-CQR2's grid-dependent crossovers.
//!
//! Run: `cargo run --release -p bench --bin figs_simulated`

use cacqr::QrPlan;
use dense::random::well_conditioned;
use pargrid::GridShape;
use simgrid::{run_spmd, Machine, SimConfig};

fn simulate_ca(m: usize, n: usize, c: usize, d: usize) -> f64 {
    let plan = QrPlan::new(m, n)
        .grid(GridShape::new(c, d).unwrap())
        .machine(Machine::stampede2(64))
        .build()
        .unwrap();
    plan.factor(&well_conditioned(m, n, 17)).unwrap().elapsed
}

fn simulate_pg(m: usize, n: usize, pr: usize, pc: usize, nb: usize) -> f64 {
    let grid = baseline::BlockCyclic { pr, pc, nb };
    run_spmd(pr * pc, SimConfig::with_machine(Machine::stampede2(64)), move |rank| {
        let comms = baseline::pgeqrf::PgeqrfComms::build(rank, grid);
        let mut local = grid.scatter(&well_conditioned(m, n, 17), comms.prow, comms.pcol);
        baseline::pgeqrf(rank, &comms, baseline::PgeqrfConfig::new(grid), &mut local, m, n);
    })
    .elapsed
}

fn main() {
    println!("# Simulated mini strong scaling (real execution): 2048 x 64, P = 8..64");
    println!("algorithm\tP\tvirtual_time_s\tspeedup_vs_P8");
    let (m, n) = (2048usize, 64usize);
    let mut base_ca = None;
    let mut base_pg = None;
    for p in [8usize, 16, 32, 64] {
        // Best CA grid at this P (by simulated time).
        let mut best = f64::INFINITY;
        let mut best_grid = (1, p);
        let mut c = 1usize;
        while c * c * c <= p {
            if p % (c * c) == 0 {
                let d = p / (c * c);
                if d >= c && m % d == 0 && n % c == 0 {
                    let t = simulate_ca(m, n, c, d);
                    if t < best {
                        best = t;
                        best_grid = (c, d);
                    }
                }
            }
            c *= 2;
        }
        let b = *base_ca.get_or_insert(best);
        println!(
            "CA-CQR2 (c={},d={})\t{p}\t{best:.6}\t{:.2}",
            best_grid.0,
            best_grid.1,
            b / best
        );

        let pr = p / 2;
        let t = simulate_pg(m, n, pr.max(1), p / pr.max(1), 16);
        let b = *base_pg.get_or_insert(t);
        println!("PGEQRF (pr={})\t{p}\t{t:.6}\t{:.2}", pr.max(1), b / t);
    }

    println!();
    println!("# Simulated mini weak scaling: 256·(P/8) x 32, per-rank work constant");
    println!("algorithm\tP\tvirtual_time_s");
    for p in [8usize, 16, 32, 64] {
        let m = 256 * (p / 8);
        let t = simulate_ca(m, 32, 2, p / 4);
        println!("CA-CQR2 (c=2)\t{p}\t{t:.6}");
        let t = simulate_pg(m, 32, p / 2, 2, 16);
        println!("PGEQRF\t{p}\t{t:.6}");
    }
    println!();
    println!(
        "# Real-execution counterpart of the model-evaluated figures; see crossvalidate for exact agreement checks."
    );
}
