//! Ablation: the CFR3D base-case size `n₀` (§II-D).
//!
//! "Choice of n/n₀ creates a tradeoff between the synchronization cost and
//! the communication cost. We minimize communication cost over
//! synchronization by choosing n₀ = n/P^{2/3}."
//!
//! Sweeps `n₀` for a fixed CFR3D problem and prints the α/β/γ split; the
//! paper's choice should sit at (or near) the β minimum while small `n₀`
//! inflates α and large `n₀` inflates β (the `n·n₀` allgather term) and
//! redundant γ.
//!
//! Run: `cargo run --release -p bench --bin ablate_basecase`

fn main() {
    for (n, c) in [(4096usize, 8usize), (2048, 4)] {
        println!(
            "# Base-case sweep: CFR3D n={n}, cube c={c} (paper default n0 = n/c^2 = {})",
            n / (c * c)
        );
        println!("n0\talpha\tbeta\tgamma");
        let mut n0 = c;
        while n0 <= n {
            let cost = costmodel::cfr3d(n, c, n0, 0);
            let marker = if n0 == (n / (c * c)).max(c) {
                "  <- paper default"
            } else {
                ""
            };
            println!("{n0}\t{:.0}\t{:.4e}\t{:.4e}{marker}", cost.alpha, cost.beta, cost.gamma);
            n0 *= 2;
        }
        println!();
    }
    println!("# Expected: alpha decreases monotonically with larger n0 (fewer recursion levels),");
    println!("# beta is minimized near n0 = n/c^2, gamma explodes as n0 -> n (redundant factorization).");
}
