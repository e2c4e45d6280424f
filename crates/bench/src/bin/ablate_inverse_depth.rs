//! Ablation: the `InverseDepth` knob (§III-A).
//!
//! "This strategy can lower the computational cost by nearly a factor of 2
//! when n₀ = n/2, incurring close to a 2x increase in synchronization cost."
//!
//! Sweeps `inverse_depth` at fixed matrix/grid and prints the per-rank
//! α/β/γ split from the validated cost model, plus the predicted time on
//! both machine models — showing where deeper partial inverses pay off.
//!
//! Run: `cargo run --release -p bench --bin ablate_inverse_depth`

use bench_harness::default_base;
use costmodel::MachineCal;

fn main() {
    let cases = [
        // (m, n, c, d) — a squarish case (n³ terms matter) and a tall case.
        (1usize << 17, 1usize << 13, 8usize, 64usize),
        (1usize << 22, 1usize << 10, 4usize, 1024usize),
    ];
    let s2 = MachineCal::stampede2();
    let bw = MachineCal::bluewaters();
    for (m, n, c, d) in cases {
        let base = default_base(n, c);
        let levels = (n / base).trailing_zeros() as usize;
        println!("# InverseDepth sweep: m={m} n={n} grid c={c} d={d} (n0={base}, {levels} levels)");
        println!("inverse_depth\talpha\tbeta\tgamma\tgamma_vs_id0\talpha_vs_id0\tt_stampede2\tt_bluewaters");
        let ref_cost = costmodel::ca_cqr2(m, n, c, d, base, 0);
        for id in 0..=levels.min(4) {
            let cost = costmodel::ca_cqr2(m, n, c, d, base, id);
            let ws = s2.cqr2_workingset(m, n, c, d);
            println!(
                "{id}\t{:.0}\t{:.3e}\t{:.3e}\t{:.3}\t{:.3}\t{:.4}\t{:.4}",
                cost.alpha,
                cost.beta,
                cost.gamma,
                cost.gamma / ref_cost.gamma,
                cost.alpha / ref_cost.alpha,
                s2.time_cqr2(cost, ws),
                bw.time_cqr2(cost, bw.cqr2_workingset(m, n, c, d)),
            );
        }
        println!();
    }
    println!("# Expected: gamma falls (toward ~0.5-0.7x for squarish matrices) while alpha rises with depth —");
    println!("# the paper's compute-for-synchronization trade. Tall-skinny cases see little gamma benefit.");
}
