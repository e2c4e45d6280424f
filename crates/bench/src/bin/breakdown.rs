//! Prints the α/β/γ time breakdown of CA-CQR2 and PGEQRF for a given
//! configuration — the calibration/debugging companion to the figure
//! binaries.
//!
//! Usage: `cargo run --release -p bench --bin breakdown -- m n nodes [c]`
//! (defaults: the Figure 1(b) point (1,2): m=131072, n=2048, nodes=32).

use bench_harness::default_base;
use costmodel::MachineCal;

fn main() {
    let args: Vec<usize> = std::env::args().skip(1).filter_map(|s| s.parse().ok()).collect();
    let m = args.first().copied().unwrap_or(131072);
    let n = args.get(1).copied().unwrap_or(2048);
    let nodes = args.get(2).copied().unwrap_or(32);
    let cal = MachineCal::stampede2();
    let p = cal.ppn * nodes;

    println!(
        "m={m} n={n} nodes={nodes} P={p}  (Stampede2 model: alpha={:.1e}s beta={:.2e}s/word)",
        cal.net.alpha, cal.net.beta
    );
    println!("algorithm\tconfig\talpha_s\tbeta_s\tgamma_s\ttotal_s\tGf/node");
    let mut c = 1usize;
    while c * c * c <= p {
        if p.is_multiple_of(c * c) {
            let d = p / (c * c);
            if d >= c && m % d == 0 && n % c == 0 {
                let cost = costmodel::ca_cqr2(m, n, c, d, default_base(n, c), 0);
                let ws = cal.cqr2_workingset(m, n, c, d);
                let gamma_rate = if cal.hbm_bytes.map(|cap| ws > cap).unwrap_or(false) {
                    cal.gamma_cqr2 * cal.ddr_penalty
                } else {
                    cal.gamma_cqr2
                };
                let (ta, tb, tg) = (
                    cost.alpha * cal.net.alpha,
                    cost.beta * cal.net.beta,
                    cost.gamma * gamma_rate,
                );
                let t = ta + tb + tg;
                let fits = if cal.cqr2_fits(m, n, c, d) {
                    ""
                } else {
                    " (exceeds node memory!)"
                };
                println!(
                    "CA-CQR2\tc={c} d={d}{fits}\t{ta:.4}\t{tb:.4}\t{tg:.4}\t{t:.4}\t{:.1}",
                    bench_harness::gflops_per_node(m, n, t, nodes)
                );
            }
        }
        c *= 2;
    }
    for (pr_exp, nb) in [(2usize, 32usize), (3, 32), (4, 32)] {
        let pr = p / (1 << pr_exp);
        let pc = p / pr;
        if n % nb != 0 {
            continue;
        }
        let cost = costmodel::pgeqrf(m, n, pr, pc, nb);
        let (ta, tb, tg) = (
            cost.alpha * cal.net.alpha,
            cost.beta * cal.net.beta,
            cost.gamma * cal.gamma_pgeqrf,
        );
        let t = ta + tb + tg;
        println!(
            "PGEQRF\tpr={pr} pc={pc} nb={nb}\t{ta:.4}\t{tb:.4}\t{tg:.4}\t{t:.4}\t{:.1}",
            bench_harness::gflops_per_node(m, n, t, nodes)
        );
    }
}
