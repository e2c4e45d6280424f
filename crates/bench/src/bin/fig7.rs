//! Figure 7(a–d): strong scaling on Stampede2 for four matrix sizes, with
//! the paper's exact legend configurations.
//!
//! Strong-scaling legends: CA-CQR2 `(d, c, InverseDepth, ppn, tpr)` with `d`
//! scaling with the node count `N` (e.g. `16N` or `N/4`); ScaLAPACK
//! `(pr, nb, ppn, tpr)` with `pr ∝ N`.
//! Run: `cargo run --release -p bench --bin fig7`

use bench_harness::{cacqr2_time, gflops_per_node, pgeqrf_time, print_figure, Point};
use costmodel::MachineCal;

/// CA-CQR2 strong-scaling legend: `d = d_num·N / d_den`.
struct CaLegend {
    d_num: usize,
    d_den: usize,
    c: usize,
    inv: usize,
    ppn: usize,
}

struct SclLegend {
    pr_coef: usize,
    nb: usize,
}

struct Plot {
    title: &'static str,
    m: usize,
    n: usize,
    scl: Vec<SclLegend>,
    ca: Vec<CaLegend>,
}

fn main() {
    let plots = vec![
        Plot {
            title: "Figure 7(a): strong scaling 524288 x 8192, Stampede2 (paper: CA-CQR2 2.6x at 1024 nodes, c=8)",
            m: 524288,
            n: 8192,
            scl: vec![SclLegend { pr_coef: 8, nb: 16 }, SclLegend { pr_coef: 4, nb: 32 }],
            ca: vec![
                CaLegend {
                    d_num: 1,
                    d_den: 1,
                    c: 8,
                    inv: 0,
                    ppn: 64,
                },
                CaLegend {
                    d_num: 1,
                    d_den: 1,
                    c: 8,
                    inv: 1,
                    ppn: 64,
                },
                CaLegend {
                    d_num: 1,
                    d_den: 4,
                    c: 16,
                    inv: 0,
                    ppn: 64,
                },
            ],
        },
        Plot {
            title: "Figure 7(b): strong scaling 2097152 x 4096, Stampede2 (paper: 3.3x at 1024 nodes, c=4)",
            m: 2097152,
            n: 4096,
            scl: vec![SclLegend { pr_coef: 64, nb: 64 }, SclLegend { pr_coef: 16, nb: 32 }],
            ca: vec![
                CaLegend {
                    d_num: 4,
                    d_den: 1,
                    c: 4,
                    inv: 0,
                    ppn: 64,
                },
                CaLegend {
                    d_num: 4,
                    d_den: 1,
                    c: 4,
                    inv: 1,
                    ppn: 64,
                },
                CaLegend {
                    d_num: 1,
                    d_den: 1,
                    c: 8,
                    inv: 0,
                    ppn: 64,
                },
                CaLegend {
                    d_num: 16,
                    d_den: 1,
                    c: 2,
                    inv: 0,
                    ppn: 64,
                },
            ],
        },
        Plot {
            title: "Figure 7(c): strong scaling 8388608 x 2048, Stampede2 (paper: 3.1x at 1024 nodes, c=4)",
            m: 8388608,
            n: 2048,
            scl: vec![SclLegend { pr_coef: 32, nb: 32 }, SclLegend { pr_coef: 64, nb: 32 }],
            ca: vec![
                CaLegend {
                    d_num: 16,
                    d_den: 1,
                    c: 1,
                    inv: 0,
                    ppn: 16,
                },
                CaLegend {
                    d_num: 16,
                    d_den: 1,
                    c: 2,
                    inv: 0,
                    ppn: 64,
                },
                CaLegend {
                    d_num: 4,
                    d_den: 1,
                    c: 4,
                    inv: 0,
                    ppn: 64,
                },
            ],
        },
        Plot {
            title: "Figure 7(d): strong scaling 33554432 x 1024, Stampede2 (paper: 2.7x at 1024 nodes, c=1)",
            m: 33554432,
            n: 1024,
            scl: vec![SclLegend { pr_coef: 64, nb: 16 }, SclLegend { pr_coef: 64, nb: 32 }],
            ca: vec![
                CaLegend {
                    d_num: 64,
                    d_den: 1,
                    c: 1,
                    inv: 0,
                    ppn: 64,
                },
                CaLegend {
                    d_num: 16,
                    d_den: 1,
                    c: 1,
                    inv: 0,
                    ppn: 16,
                },
                CaLegend {
                    d_num: 16,
                    d_den: 1,
                    c: 2,
                    inv: 0,
                    ppn: 64,
                },
                CaLegend {
                    d_num: 4,
                    d_den: 1,
                    c: 2,
                    inv: 0,
                    ppn: 16,
                },
            ],
        },
    ];

    let cal64 = MachineCal::stampede2();
    let cal16 = MachineCal::stampede2().with_ppn(16);

    for plot in &plots {
        let mut pts = Vec::new();
        let mut best_at_1024: (f64, f64) = (f64::INFINITY, f64::INFINITY); // (scl, ca)
        for nodes in [64usize, 128, 256, 512, 1024] {
            for s in &plot.scl {
                let p = 64 * nodes;
                let pr = s.pr_coef * nodes;
                if pr == 0 || pr > p || p % pr != 0 || plot.n % s.nb != 0 {
                    continue;
                }
                let t = pgeqrf_time(&cal64, plot.m, plot.n, pr, p / pr, s.nb);
                if nodes == 1024 {
                    best_at_1024.0 = best_at_1024.0.min(t);
                }
                pts.push(Point {
                    series: format!("ScaLAPACK-({}N,{},64,1)", s.pr_coef, s.nb),
                    x: nodes.to_string(),
                    gflops: gflops_per_node(plot.m, plot.n, t, nodes),
                });
            }
            for s in &plot.ca {
                let (cal, ppn) = if s.ppn == 64 { (&cal64, 64usize) } else { (&cal16, 16) };
                let p = ppn * nodes;
                if s.d_num * nodes % s.d_den != 0 {
                    continue;
                }
                let d = s.d_num * nodes / s.d_den;
                if d == 0 || s.c * s.c * d != p || d < s.c || plot.m % d != 0 || plot.n % s.c != 0 {
                    continue;
                }
                if !cal.cqr2_fits(plot.m, plot.n, s.c, d) {
                    continue;
                }
                let t = cacqr2_time(cal, plot.m, plot.n, s.c, d, s.inv);
                if nodes == 1024 {
                    best_at_1024.1 = best_at_1024.1.min(t);
                }
                let dspec = if s.d_den == 1 {
                    format!("{}N", s.d_num)
                } else {
                    format!("N/{}", s.d_den)
                };
                pts.push(Point {
                    series: format!("CA-CQR2-({},{},{},{},{})", dspec, s.c, s.inv, ppn, 64 / ppn),
                    x: nodes.to_string(),
                    gflops: gflops_per_node(plot.m, plot.n, t, nodes),
                });
            }
        }
        print_figure(plot.title, &pts);
        if best_at_1024.0.is_finite() && best_at_1024.1.is_finite() {
            println!(
                "# model speedup at 1024 nodes (best legend entries): {:.2}x\n",
                best_at_1024.0 / best_at_1024.1
            );
        }
    }
}
