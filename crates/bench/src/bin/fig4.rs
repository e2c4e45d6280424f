//! Figure 4(a–c): weak scaling on Blue Waters for three matrix aspect
//! ratios (`nodes = 16ab²`, 16 ppn), with the paper's legend configurations.
//!
//! The expected *shape*: ScaLAPACK generally at or above CA-CQR2 (Blue
//! Waters' low flop-to-bandwidth ratio leaves little for communication
//! avoidance to win), with CA-CQR2 closing the gap as the row-to-column
//! ratio grows from (a) to (c).
//! Run: `cargo run --release -p bench --bin fig4`

use bench_harness::{cacqr2_time, gflops_per_node, pgeqrf_time, print_figure, weak_legend_grid, Point, WEAK_AB};
use costmodel::MachineCal;

struct CaLegend {
    coef: usize,
    inv: usize,
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
            title: "Figure 4(a): weak scaling 65536a x 2048b, Blue Waters",
            m_coef: 65536,
            n_coef: 2048,
            scl: vec![
                SclLegend { pr_coef: 256, nb: 32 },
                SclLegend { pr_coef: 256, nb: 64 },
                SclLegend { pr_coef: 128, nb: 32 },
                SclLegend { pr_coef: 64, nb: 32 },
            ],
            ca: vec![
                CaLegend { coef: 4, inv: 0 },
                CaLegend { coef: 4, inv: 1 },
                CaLegend { coef: 32, inv: 0 },
                CaLegend { coef: 256, inv: 0 },
            ],
        },
        Plot {
            title: "Figure 4(b): weak scaling 262144a x 1024b, Blue Waters",
            m_coef: 262144,
            n_coef: 1024,
            scl: vec![
                SclLegend { pr_coef: 256, nb: 32 },
                SclLegend { pr_coef: 256, nb: 64 },
                SclLegend { pr_coef: 128, nb: 32 },
            ],
            ca: vec![
                CaLegend { coef: 32, inv: 0 },
                CaLegend { coef: 256, inv: 0 },
                CaLegend { coef: 4, inv: 0 },
            ],
        },
        Plot {
            title: "Figure 4(c): weak scaling 1048576a x 512b, Blue Waters",
            m_coef: 1048576,
            n_coef: 512,
            scl: vec![SclLegend { pr_coef: 256, nb: 32 }, SclLegend { pr_coef: 256, nb: 64 }],
            ca: vec![
                CaLegend { coef: 256, inv: 0 },
                CaLegend { coef: 512, inv: 0 },
                CaLegend { coef: 32, inv: 0 },
            ],
        },
    ];

    let cal = MachineCal::bluewaters();
    for plot in &plots {
        let mut pts = Vec::new();
        for &(a, b) in &WEAK_AB {
            let nodes = 16 * a * b * b;
            let p = 16 * nodes;
            let (m, n) = (plot.m_coef * a, plot.n_coef * b);
            for s in &plot.scl {
                let pr = s.pr_coef * a * b;
                if pr == 0 || pr > p || p % pr != 0 || n % s.nb != 0 {
                    continue;
                }
                let t = pgeqrf_time(&cal, m, n, pr, p / pr, s.nb);
                pts.push(Point {
                    series: format!("ScaLAPACK-({}ab,{},16,1)", s.pr_coef, s.nb),
                    x: format!("({a},{b})"),
                    gflops: gflops_per_node(m, n, t, nodes),
                });
            }
            for s in &plot.ca {
                let Some((c, d)) = weak_legend_grid(p, s.coef, a, b) else {
                    continue;
                };
                if m % d != 0 || n % c != 0 || !cal.cqr2_fits(m, n, c, d) {
                    continue;
                }
                let t = cacqr2_time(&cal, m, n, c, d, s.inv);
                pts.push(Point {
                    series: format!("CA-CQR2-({}a/b,{},16,1)", s.coef, s.inv),
                    x: format!("({a},{b})"),
                    gflops: gflops_per_node(m, n, t, nodes),
                });
            }
        }
        print_figure(plot.title, &pts);
    }
    println!("# Paper reference: on Blue Waters ScaLAPACK wins at most scales; CA-CQR2's relative position improves from (a) to (c).");
}
