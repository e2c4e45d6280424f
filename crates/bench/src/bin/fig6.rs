//! Figure 6(a–b): strong scaling on Blue Waters (16 ppn), with the paper's
//! legend configurations.
//!
//! Expected shape: ScaLAPACK ahead at low node counts; CA-CQR2 scales
//! better, with c-crossovers — small-c grids win at few nodes, larger-c
//! grids take over as the node count grows (paper: c=1→c=2 at N=256,
//! c=2→c=4 at N=512 in panel (b)).
//! Run: `cargo run --release -p bench --bin fig6`

use bench_harness::{cacqr2_time, gflops_per_node, pgeqrf_time, print_figure, Point};
use costmodel::MachineCal;

struct CaLegend {
    d_num: usize,
    d_den: usize,
    c: usize,
    inv: usize,
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
            title: "Figure 6(a): strong scaling 1048576 x 4096, Blue Waters",
            m: 1048576,
            n: 4096,
            scl: vec![
                SclLegend { pr_coef: 8, nb: 32 },
                SclLegend { pr_coef: 8, nb: 64 },
                SclLegend { pr_coef: 4, nb: 32 },
            ],
            ca: vec![
                CaLegend {
                    d_num: 1,
                    d_den: 1,
                    c: 4,
                    inv: 0,
                },
                CaLegend {
                    d_num: 4,
                    d_den: 1,
                    c: 2,
                    inv: 0,
                },
                CaLegend {
                    d_num: 1,
                    d_den: 4,
                    c: 8,
                    inv: 0,
                },
                CaLegend {
                    d_num: 1,
                    d_den: 4,
                    c: 8,
                    inv: 2,
                },
            ],
        },
        Plot {
            title: "Figure 6(b): strong scaling 4194304 x 2048, Blue Waters",
            m: 4194304,
            n: 2048,
            scl: vec![
                SclLegend { pr_coef: 16, nb: 32 },
                SclLegend { pr_coef: 16, nb: 64 },
                SclLegend { pr_coef: 8, nb: 32 },
                SclLegend { pr_coef: 8, nb: 64 },
            ],
            ca: vec![
                CaLegend {
                    d_num: 16,
                    d_den: 1,
                    c: 1,
                    inv: 0,
                },
                CaLegend {
                    d_num: 4,
                    d_den: 1,
                    c: 2,
                    inv: 0,
                },
                CaLegend {
                    d_num: 1,
                    d_den: 1,
                    c: 4,
                    inv: 0,
                },
            ],
        },
    ];

    let cal = MachineCal::bluewaters();
    for plot in &plots {
        let mut pts = Vec::new();
        for nodes in [32usize, 64, 128, 256, 512, 1024, 2048] {
            let p = 16 * nodes;
            for s in &plot.scl {
                let pr = s.pr_coef * nodes;
                if pr == 0 || pr > p || p % pr != 0 || plot.n % s.nb != 0 {
                    continue;
                }
                let t = pgeqrf_time(&cal, plot.m, plot.n, pr, p / pr, s.nb);
                pts.push(Point {
                    series: format!("ScaLAPACK-({}N,{},16,1)", s.pr_coef, s.nb),
                    x: nodes.to_string(),
                    gflops: gflops_per_node(plot.m, plot.n, t, nodes),
                });
            }
            for s in &plot.ca {
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
                let t = cacqr2_time(&cal, plot.m, plot.n, s.c, d, s.inv);
                let dspec = if s.d_den == 1 {
                    format!("{}N", s.d_num)
                } else {
                    format!("N/{}", s.d_den)
                };
                pts.push(Point {
                    series: format!("CA-CQR2-({},{},{},16,1)", dspec, s.c, s.inv),
                    x: nodes.to_string(),
                    gflops: gflops_per_node(plot.m, plot.n, t, nodes),
                });
            }
        }
        print_figure(plot.title, &pts);
    }

    // Report the c-crossover node counts in panel (b), the paper's example.
    println!("# Crossover check for panel (b): the node count where each larger-c grid overtakes the smaller.");
    let plot_m = 4194304usize;
    let plot_n = 2048usize;
    let variants: [(usize, usize, usize); 3] = [(16, 1, 1), (4, 1, 2), (1, 1, 4)];
    let mut prev_best: Option<(usize, usize)> = None;
    for nodes in [32usize, 64, 128, 256, 512, 1024, 2048] {
        let p = 16 * nodes;
        let mut best: Option<(f64, usize)> = None;
        for &(dn, dd, c) in &variants {
            let d = dn * nodes / dd;
            if c * c * d != p || !plot_m.is_multiple_of(d) {
                continue;
            }
            let t = cacqr2_time(&cal, plot_m, plot_n, c, d, 0);
            if best.map(|(bt, _)| t < bt).unwrap_or(true) {
                best = Some((t, c));
            }
        }
        if let Some((_, c)) = best {
            if prev_best.map(|(_, pc)| pc != c).unwrap_or(false) {
                println!(
                    "# crossover: best c changes {} -> {} at N={}",
                    prev_best.unwrap().1,
                    c,
                    nodes
                );
            }
            prev_best = Some((nodes, c));
        }
    }
    println!("# Paper: crossovers at N=256 (c=1 to c=2) and N=512 (c=2 to c=4).");
}
