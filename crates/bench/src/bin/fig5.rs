//! Figure 5(a–d): weak scaling on Stampede2 for four matrix aspect ratios,
//! with the paper's exact legend configurations.
//!
//! Weak-scaling rule: `nodes = 8ab²`, matrices `M·a × N·b`; CA-CQR2 legends
//! are `(d/c = coef·a/b, InverseDepth, ppn, tpr)`, ScaLAPACK legends
//! `(pr = coef·ab, nb, ppn, tpr)`.
//! Run: `cargo run --release -p bench --bin fig5`

use bench_harness::{cacqr2_time, gflops_per_node, pgeqrf_time, print_figure, weak_legend_grid, Point, WEAK_AB};
use costmodel::MachineCal;

struct CaLegend {
    coef: usize,
    inv: usize,
    ppn: usize,
}

struct SclLegend {
    pr_coef: usize,
    nb: usize,
}

struct Plot {
    title: &'static str,
    m_coef: usize,
    n_coef: usize,
    scl: Vec<SclLegend>,
    ca: Vec<CaLegend>,
}

fn main() {
    let plots = vec![
        Plot {
            title: "Figure 5(a): weak scaling 131072a x 8192b, Stampede2",
            m_coef: 131072,
            n_coef: 8192,
            scl: vec![
                SclLegend { pr_coef: 256, nb: 64 },
                SclLegend { pr_coef: 128, nb: 32 },
                SclLegend { pr_coef: 64, nb: 32 },
            ],
            ca: vec![
                CaLegend {
                    coef: 1,
                    inv: 0,
                    ppn: 64,
                },
                CaLegend {
                    coef: 8,
                    inv: 0,
                    ppn: 64,
                },
                CaLegend {
                    coef: 64,
                    inv: 0,
                    ppn: 64,
                },
            ],
        },
        Plot {
            title: "Figure 5(b): weak scaling 262144a x 4096b, Stampede2",
            m_coef: 262144,
            n_coef: 4096,
            scl: vec![
                SclLegend { pr_coef: 256, nb: 32 },
                SclLegend { pr_coef: 256, nb: 64 },
                SclLegend { pr_coef: 128, nb: 32 },
            ],
            ca: vec![
                CaLegend {
                    coef: 8,
                    inv: 0,
                    ppn: 64,
                },
                CaLegend {
                    coef: 1,
                    inv: 0,
                    ppn: 64,
                },
                CaLegend {
                    coef: 64,
                    inv: 0,
                    ppn: 64,
                },
            ],
        },
        Plot {
            title: "Figure 5(c): weak scaling 524288a x 2048b, Stampede2",
            m_coef: 524288,
            n_coef: 2048,
            scl: vec![SclLegend { pr_coef: 512, nb: 32 }, SclLegend { pr_coef: 512, nb: 64 }],
            ca: vec![
                CaLegend {
                    coef: 64,
                    inv: 1,
                    ppn: 64,
                },
                CaLegend {
                    coef: 128,
                    inv: 0,
                    ppn: 16,
                },
            ],
        },
        Plot {
            title: "Figure 5(d): weak scaling 1048576a x 1024b, Stampede2",
            m_coef: 1048576,
            n_coef: 1024,
            scl: vec![SclLegend { pr_coef: 512, nb: 32 }],
            ca: vec![
                CaLegend {
                    coef: 512,
                    inv: 1,
                    ppn: 64,
                },
                CaLegend {
                    coef: 512,
                    inv: 0,
                    ppn: 64,
                },
                CaLegend {
                    coef: 64,
                    inv: 1,
                    ppn: 64,
                },
                CaLegend {
                    coef: 64,
                    inv: 0,
                    ppn: 64,
                },
            ],
        },
    ];

    let cal64 = MachineCal::stampede2();
    let cal16 = MachineCal::stampede2().with_ppn(16);

    for plot in &plots {
        let mut pts = Vec::new();
        for &(a, b) in &WEAK_AB {
            let nodes = 8 * a * b * b;
            let (m, n) = (plot.m_coef * a, plot.n_coef * b);
            for s in &plot.scl {
                let p = 64 * nodes;
                let pr = s.pr_coef * a * b;
                if pr == 0 || p % pr != 0 || pr > p {
                    continue;
                }
                let pc = p / pr;
                if n % s.nb != 0 {
                    continue;
                }
                let t = pgeqrf_time(&cal64, m, n, pr, pc, s.nb);
                pts.push(Point {
                    series: format!("ScaLAPACK-({}ab,{},64,1)", s.pr_coef, s.nb),
                    x: format!("({a},{b})"),
                    gflops: gflops_per_node(m, n, t, nodes),
                });
            }
            for s in &plot.ca {
                let (cal, ppn) = if s.ppn == 64 { (&cal64, 64) } else { (&cal16, 16) };
                let p = ppn * nodes;
                let Some((c, d)) = weak_legend_grid(p, s.coef, a, b) else {
                    continue;
                };
                if m % d != 0 || n % c != 0 || !cal.cqr2_fits(m, n, c, d) {
                    continue;
                }
                let t = cacqr2_time(cal, m, n, c, d, s.inv);
                pts.push(Point {
                    series: format!("CA-CQR2-({}a/b,{},{},{})", s.coef, s.inv, ppn, 64 / ppn),
                    x: format!("({a},{b})"),
                    gflops: gflops_per_node(m, n, t, nodes),
                });
            }
        }
        print_figure(plot.title, &pts);
    }
    println!("# Paper reference: CA-CQR2 beats ScaLAPACK at 1024 nodes by 1.1x (a, c=32), 1.3x (b, c=16), 1.7x (c, c=8), 1.9x (d, c=4).");
}
