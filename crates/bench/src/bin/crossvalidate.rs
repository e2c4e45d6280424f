//! Cross-validation: every figure's methodology, checked end to end.
//!
//! The figure binaries evaluate closed-form cost models at paper scale. This
//! binary replays *scaled-down* versions of each figure's configurations on
//! the threaded simulator (real distributed execution, real data) and
//! verifies that the simulator's elapsed virtual time equals the model
//! prediction under the three unit machines — the evidence that the curves
//! printed by `fig1`/`fig4`–`fig7` describe the code in this repository.
//!
//! Run: `cargo run --release -p bench --bin crossvalidate`

use cacqr::QrPlan;
use dense::random::well_conditioned;
use pargrid::GridShape;
use simgrid::{run_spmd, Machine, SimConfig};

fn main() {
    println!("# Cross-validation: simulator (real execution) vs closed-form model");
    println!("config\tquantity\tsimulated\tmodel\tstatus");
    let mut failures = 0usize;

    // Scaled-down strong/weak scaling grid configurations (same c/d family
    // as Figures 1, 5, 6, 7; matrix shrunk to laptop scale).
    let ca_cases: Vec<(usize, usize, usize, usize, usize)> = vec![
        // (m, n, c, d, inverse_depth)
        (512, 32, 1, 16, 0),  // fig7d-like: c = 1 family
        (512, 32, 2, 8, 0),   // fig7c-like: c = 2 family
        (256, 64, 4, 4, 0),   // fig7a-like: large-c cubic family
        (512, 64, 2, 16, 1),  // fig5c-like: InverseDepth = 1
        (1024, 32, 2, 32, 0), // fig1b-like: weak-scaling shape
    ];
    for (m, n, c, d, inv) in ca_cases {
        let shape = GridShape::new(c, d).unwrap();
        let base = (n / (c * c)).max(c).min(n);
        let model = costmodel::ca_cqr2(m, n, c, d, base, inv);
        let a = well_conditioned(m, n, 7);
        for (machine, label, expect) in [
            (Machine::alpha_only(), "alpha", model.alpha),
            (Machine::beta_only(), "beta", model.beta),
            (Machine::gamma_only(), "gamma", model.gamma),
        ] {
            // One facade plan per unit machine: the virtual elapsed time is
            // the same quantity the raw SPMD harness used to measure.
            let plan = QrPlan::new(m, n)
                .grid(shape)
                .base_size(base)
                .inverse_depth(inv)
                .machine(machine)
                .build()
                .unwrap();
            let got = plan.factor(&a).unwrap().elapsed;
            let ok = (got - expect).abs() <= 1e-6 * expect.max(1.0);
            if !ok {
                failures += 1;
            }
            println!(
                "CA-CQR2 m={m} n={n} c={c} d={d} id={inv}\t{label}\t{got}\t{expect}\t{}",
                if ok { "exact" } else { "MISMATCH" }
            );
        }
    }

    // PGEQRF configurations (model is approximate; tolerance 20%).
    let pg_cases: Vec<(usize, usize, usize, usize, usize)> =
        vec![(256, 64, 8, 2, 8), (512, 64, 4, 4, 16), (256, 128, 2, 8, 16)];
    for (m, n, pr, pc, nb) in pg_cases {
        let grid = baseline::BlockCyclic { pr, pc, nb };
        let model = costmodel::pgeqrf(m, n, pr, pc, nb);
        for (machine, label, expect) in [
            (Machine::alpha_only(), "alpha", model.alpha),
            (Machine::beta_only(), "beta", model.beta),
            (Machine::gamma_only(), "gamma", model.gamma),
        ] {
            // The model covers the factorization only (no Q formation), so
            // this one stays on the per-rank SPMD layer below the facade.
            let got = run_spmd(pr * pc, SimConfig::with_machine(machine), move |rank| {
                let comms = baseline::pgeqrf::PgeqrfComms::build(rank, grid);
                let mut local = grid.scatter(&well_conditioned(m, n, 3), comms.prow, comms.pcol);
                baseline::pgeqrf(rank, &comms, baseline::PgeqrfConfig::new(grid), &mut local, m, n);
            })
            .elapsed;
            let ok = (got - expect).abs() <= 0.2 * expect.max(1.0);
            if !ok {
                failures += 1;
            }
            println!(
                "PGEQRF m={m} n={n} pr={pr} pc={pc} nb={nb}\t{label}\t{got:.1}\t{expect:.1}\t{}",
                if ok { "within 20%" } else { "MISMATCH" }
            );
        }
    }

    println!();
    if failures == 0 {
        println!("# All configurations validated.");
    } else {
        println!("# {failures} MISMATCHES — the figure methodology is broken; investigate before trusting curves.");
        std::process::exit(1);
    }
}
