//! Table I: asymptotic cost summary — the paper's table side by side with
//! scaling exponents *measured* from the exact cost models (and spot-checked
//! against the simulator by the `crossvalidate` binary and the test suite).
//!
//! Run: `cargo run --release -p bench --bin table1`

use costmodel::table1::{fit_exponent, table1_paper};

fn main() {
    println!("# Table I (paper): asymptotic costs");
    println!("algorithm\tlatency(alpha)\tbandwidth(beta)\tflops(gamma)");
    for row in table1_paper() {
        println!("{}\t{}\t{}\t{}", row.algorithm, row.latency, row.bandwidth, row.flops);
    }
    println!();

    println!("# Measured scaling exponents vs P (log-log fits of the exact per-rank cost models)");
    println!("algorithm\tquantity\tmeasured_exponent\tpaper_exponent");

    // MM3D: fixed 1024³ product, cubes c = 8..32.
    let n = 1024usize;
    let cs = [8usize, 16, 32];
    let ps: Vec<f64> = cs.iter().map(|c| (c * c * c) as f64).collect();
    let betas: Vec<f64> = cs
        .iter()
        .map(|&c| costmodel::mm3d_local(n / c, n / c, n / c, c).beta)
        .collect();
    let gammas: Vec<f64> = cs
        .iter()
        .map(|&c| costmodel::mm3d_local(n / c, n / c, n / c, c).gamma)
        .collect();
    println!("MM3D\tbeta\t{:.3}\t-2/3", fit_exponent(&ps, &betas));
    println!("MM3D\tgamma\t{:.3}\t-1", fit_exponent(&ps, &gammas));

    // CFR3D: fixed n = 65536 (large enough that n₀ = n/c² is never clamped
    // to the cube edge), n₀ = n/c².
    let n = 65536usize;
    let betas: Vec<f64> = cs
        .iter()
        .map(|&c| costmodel::cfr3d(n, c, (n / (c * c)).max(c), 0).beta)
        .collect();
    let gammas: Vec<f64> = cs
        .iter()
        .map(|&c| costmodel::cfr3d(n, c, (n / (c * c)).max(c), 0).gamma)
        .collect();
    let alphas: Vec<f64> = cs
        .iter()
        .map(|&c| costmodel::cfr3d(n, c, (n / (c * c)).max(c), 0).alpha)
        .collect();
    println!("CFR3D\talpha\t{:.3}\t+2/3 (P^(2/3) log P)", fit_exponent(&ps, &alphas));
    println!("CFR3D\tbeta\t{:.3}\t-2/3", fit_exponent(&ps, &betas));
    println!("CFR3D\tgamma\t{:.3}\t-1", fit_exponent(&ps, &gammas));

    // 1D-CQR: m = 2^20, n = 256; bandwidth must be P-independent.
    let (m, n) = (1usize << 20, 256usize);
    let pls = [64usize, 256, 1024, 4096];
    let ps: Vec<f64> = pls.iter().map(|&p| p as f64).collect();
    let betas: Vec<f64> = pls.iter().map(|&p| costmodel::cqr1d(m, n, p).beta).collect();
    let alphas: Vec<f64> = pls.iter().map(|&p| costmodel::cqr1d(m, n, p).alpha).collect();
    println!(
        "1D-CQR\tbeta\t{:.3}\t0 (n^2, independent of P)",
        fit_exponent(&ps, &betas)
    );
    println!("1D-CQR\talpha exponent\t{:.3}\t~0 (log P)", fit_exponent(&ps, &alphas));

    // CA-CQR2 with the optimal grid (m/d = n/c): β ~ (mn²/P)^{2/3}.
    let (m, n) = (1usize << 22, 1usize << 15);
    let cs = [8usize, 16, 32];
    let mut ps = Vec::new();
    let mut betas = Vec::new();
    let mut gammas = Vec::new();
    for &c in &cs {
        let d = m / (n / c);
        ps.push((c * c * d) as f64);
        let cost = costmodel::ca_cqr2(m, n, c, d, (n / (c * c)).max(c), 0);
        betas.push(cost.beta);
        gammas.push(cost.gamma);
    }
    println!(
        "CA-CQR2 (best c,d)\tbeta\t{:.3}\t-2/3 ((mn^2/P)^(2/3))",
        fit_exponent(&ps, &betas)
    );
    println!(
        "CA-CQR2 (best c,d)\tgamma\t{:.3}\t-1 (mn^2/P)",
        fit_exponent(&ps, &gammas)
    );

    println!();
    println!("# The Θ(P^(1/6)) claim: CA-CQR2's bandwidth advantage over the best 2D grid, growing with P");
    println!("P\tbest_pgeqrf_beta\tcacqr2_beta\tratio");
    // Aspect ratio m/n = 64 (the regime of Figure 7(a), where the paper
    // measures its largest wins): the advantage appears once P ≫ m/n.
    let (m, n) = (1usize << 20, 1usize << 14);
    let mut ps = Vec::new();
    let mut ratios = Vec::new();
    for &c in &[8usize, 16, 32] {
        let d = m / (n / c);
        let p = c * c * d;
        let ca = costmodel::ca_cqr2(m, n, c, d, (n / (c * c)).max(c), 0).beta;
        // Best 2D grid: minimize β over pr (power-of-two factorizations).
        let mut pg = f64::INFINITY;
        let mut pr = 1usize;
        while pr <= p {
            if p % pr == 0 {
                pg = pg.min(costmodel::pgeqrf(m, n, pr, p / pr, 32).beta);
            }
            pr *= 2;
        }
        ps.push(p as f64);
        ratios.push(pg / ca);
        println!("{p}\t{pg:.3e}\t{ca:.3e}\t{:.2}", pg / ca);
    }
    println!(
        "# fitted ratio exponent vs P: {:.3} (paper's asymptotic claim: 1/6 ≈ 0.167)",
        fit_exponent(&ps, &ratios)
    );
}
