//! Figure 1: headline strong (a) and weak (b) scaling on Stampede2 —
//! best-performing grid per node count for both algorithms.
//!
//! Regenerates the series of the paper's Figure 1 from the validated cost
//! models on the Stampede2 machine model. Run:
//! `cargo run --release -p bench --bin fig1`

use bench_harness::{best_cacqr2, best_pgeqrf, gflops_per_node, print_figure, Point, WEAK_AB};
use costmodel::MachineCal;

fn main() {
    let cal = MachineCal::stampede2();

    // ---- Figure 1(a): strong scaling. ----
    let matrices: [(usize, usize, &str); 4] = [
        (1 << 25, 1 << 10, "2^25 x 2^10"),
        (1 << 23, 1 << 11, "2^23 x 2^11"),
        (1 << 21, 1 << 12, "2^21 x 2^12"),
        (1 << 19, 1 << 13, "2^19 x 2^13"),
    ];
    let mut pts = Vec::new();
    let mut summary = Vec::new();
    for &(m, n, label) in &matrices {
        let mut at_1024 = (0.0f64, 0.0f64);
        for nodes in [64usize, 128, 256, 512, 1024] {
            let p = 64 * nodes;
            if let Some((grid, t)) = best_pgeqrf(&cal, m, n, p) {
                let gf = gflops_per_node(m, n, t, nodes);
                pts.push(Point {
                    series: format!("ScaLAPACK {label} (pr={} nb={})", grid.pr, grid.nb),
                    x: nodes.to_string(),
                    gflops: gf,
                });
                if nodes == 1024 {
                    at_1024.0 = t;
                }
            }
            if let Some((grid, t)) = best_cacqr2(&cal, m, n, p) {
                let gf = gflops_per_node(m, n, t, nodes);
                pts.push(Point {
                    series: format!("CA-CQR2 {label} (c={} d={} id={})", grid.c, grid.d, grid.inverse_depth),
                    x: nodes.to_string(),
                    gflops: gf,
                });
                if nodes == 1024 {
                    at_1024.1 = t;
                }
            }
        }
        if at_1024.1 > 0.0 {
            summary.push(format!(
                "strong {label}: CA-CQR2 speedup over ScaLAPACK at 1024 nodes = {:.2}x",
                at_1024.0 / at_1024.1
            ));
        }
    }
    print_figure(
        "Figure 1(a): QR strong scaling, Stampede2, best grids (paper: CA-CQR2 2.6x-3.3x at 1024 nodes)",
        &pts,
    );

    // ---- Figure 1(b): weak scaling, m = 131072a, n = 1024b, nodes = 8ab². ----
    let mut pts = Vec::new();
    for &(a, b) in &WEAK_AB {
        let nodes = 8 * a * b * b;
        let p = 64 * nodes;
        let (m, n) = (131072 * a, 1024 * b);
        if let Some((grid, t)) = best_pgeqrf(&cal, m, n, p) {
            pts.push(Point {
                series: format!("ScaLAPACK (pr={} nb={})", grid.pr, grid.nb),
                x: format!("({a},{b})"),
                gflops: gflops_per_node(m, n, t, nodes),
            });
        }
        if let Some((grid, t)) = best_cacqr2(&cal, m, n, p) {
            pts.push(Point {
                series: format!("CA-CQR2 (c={} d={})", grid.c, grid.d),
                x: format!("({a},{b})"),
                gflops: gflops_per_node(m, n, t, nodes),
            });
        }
        // Weak-scaling speedup at the largest configuration.
        if (a, b) == (8, 4) {
            if let (Some((_, ts)), Some((_, tc))) = (best_pgeqrf(&cal, m, n, p), best_cacqr2(&cal, m, n, p)) {
                summary.push(format!(
                    "weak 131072a x 1024b at (8,4): CA-CQR2 speedup = {:.2}x",
                    ts / tc
                ));
            }
        }
    }
    print_figure(
        "Figure 1(b): QR weak scaling 131072a x 1024b, Stampede2 (paper: CA-CQR2 1.1x-1.9x)",
        &pts,
    );

    println!("# Summary");
    for s in &summary {
        println!("# {s}");
    }
}
