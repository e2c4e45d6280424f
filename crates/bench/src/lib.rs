//! Reproduction bins: regenerate every table and figure of the paper.
//!
//! The binaries in `src/bin/` print the same series the paper plots
//! (tab-separated: series label, x value, Gigaflops/s/node), evaluated from
//! the validated cost models on the calibrated machine models at the paper's
//! full scale. `crossvalidate` additionally replays scaled-down versions of
//! each configuration on the threaded simulator and checks the model
//! matches. Nothing here measures wall-clock: that is the repo benchmark's
//! job (`bench/benchmark`, README "Measuring performance").
//!
//! Figure-of-merit convention (paper §IV-C): both algorithms are credited
//! `2mn² − ⅔n³` flops — CQR2's ~2× extra arithmetic is *not* credited, so
//! its achieved fraction of peak is understated exactly as in the paper.

use costmodel::MachineCal;

/// Gigaflops/s/node for a run of `time` seconds on `nodes` nodes
/// (Householder flop crediting).
pub fn gflops_per_node(m: usize, n: usize, time: f64, nodes: usize) -> f64 {
    dense::flops::householder_qr_flops(m, n) / (time * nodes as f64 * 1e9)
}

/// The paper's default CFR3D base size, clamped to validity.
pub fn default_base(n: usize, c: usize) -> usize {
    (n / (c * c)).max(c).min(n)
}

/// Predicted CA-CQR2 time on a calibrated machine.
pub fn cacqr2_time(cal: &MachineCal, m: usize, n: usize, c: usize, d: usize, inverse_depth: usize) -> f64 {
    let base = default_base(n, c);
    let levels = (n / base).trailing_zeros() as usize;
    let inv = inverse_depth.min(levels);
    let cost = costmodel::ca_cqr2(m, n, c, d, base, inv);
    cal.time_cqr2(cost, cal.cqr2_workingset(m, n, c, d))
}

/// Predicted PGEQRF time on a calibrated machine.
pub fn pgeqrf_time(cal: &MachineCal, m: usize, n: usize, pr: usize, pc: usize, nb: usize) -> f64 {
    cal.time_pgeqrf(costmodel::pgeqrf(m, n, pr, pc, nb))
}

/// A CA-CQR2 grid choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CaGrid {
    /// Replication dimension.
    pub c: usize,
    /// Row dimension (`P = c²d`).
    pub d: usize,
    /// InverseDepth parameter.
    pub inverse_depth: usize,
}

/// Searches all valid `(c, d, inverse_depth)` for `P` ranks and returns the
/// fastest feasible configuration with its predicted time. Mirrors the
/// paper's "best performing choice of processor grid at each node count".
pub fn best_cacqr2(cal: &MachineCal, m: usize, n: usize, p: usize) -> Option<(CaGrid, f64)> {
    let mut best: Option<(CaGrid, f64)> = None;
    let mut c = 1usize;
    while c * c * c <= p {
        if p.is_multiple_of(c * c) {
            let d = p / (c * c);
            if d >= c && m.is_multiple_of(d) && n.is_multiple_of(c) && n / c >= 1 && cal.cqr2_fits(m, n, c, d) {
                for inv in [0usize, 1, 2] {
                    let t = cacqr2_time(cal, m, n, c, d, inv);
                    if best.map(|(_, bt)| t < bt).unwrap_or(true) {
                        best = Some((
                            CaGrid {
                                c,
                                d,
                                inverse_depth: inv,
                            },
                            t,
                        ));
                    }
                }
            }
        }
        c *= 2;
    }
    best
}

/// A PGEQRF grid choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PgGrid {
    /// Process-grid rows.
    pub pr: usize,
    /// Process-grid columns.
    pub pc: usize,
    /// Block size.
    pub nb: usize,
}

/// Searches `pr × pc` factorizations (powers of two) and block sizes for the
/// fastest PGEQRF configuration.
pub fn best_pgeqrf(cal: &MachineCal, m: usize, n: usize, p: usize) -> Option<(PgGrid, f64)> {
    let mut best: Option<(PgGrid, f64)> = None;
    let mut pr = 1usize;
    while pr <= p {
        let pc = p / pr;
        if pr * pc == p && pr >= pc {
            for nb in [16usize, 32, 64] {
                if !n.is_multiple_of(nb) {
                    continue;
                }
                let t = pgeqrf_time(cal, m, n, pr, pc, nb);
                if best.map(|(_, bt)| t < bt).unwrap_or(true) {
                    best = Some((PgGrid { pr, pc, nb }, t));
                }
            }
        }
        pr *= 2;
    }
    best
}

/// One printed data point.
pub struct Point {
    /// Series label (legend entry).
    pub series: String,
    /// X-axis label (node count or `(a,b)` pair).
    pub x: String,
    /// Gigaflops/s/node.
    pub gflops: f64,
}

/// Prints a figure header and its points as TSV.
pub fn print_figure(title: &str, points: &[Point]) {
    println!("# {title}");
    println!("series\tx\tgflops_per_node");
    for p in points {
        println!("{}\t{}\t{:.2}", p.series, p.x, p.gflops);
    }
    println!();
}

/// The weak-scaling `(a, b)` progression used by Figures 1(b), 4, and 5.
pub const WEAK_AB: [(usize, usize); 7] = [(2, 1), (1, 2), (2, 2), (4, 2), (8, 2), (4, 4), (8, 4)];

/// Resolves a weak-scaling CA-CQR2 legend `d/c = coef·a/b` into a concrete
/// `(c, d)` for `P` ranks, if one exists with power-of-two dims:
/// `c = (P·b/(coef·a))^{1/3}`, `d = P/c²`.
pub fn weak_legend_grid(p: usize, coef: usize, a: usize, b: usize) -> Option<(usize, usize)> {
    let num = p.checked_mul(b)?;
    let den = coef.checked_mul(a)?;
    if den == 0 || num % den != 0 {
        return None;
    }
    let c3 = num / den;
    let c = (c3 as f64).cbrt().round() as usize;
    if c == 0 || c * c * c != c3 || !c.is_power_of_two() {
        return None;
    }
    let d = p / (c * c);
    if d < c || !p.is_multiple_of(c * c) {
        return None;
    }
    Some((c, d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legend_mapping_fig5() {
        // Figure 5: P = 512ab² (64 ppn, nodes = 8ab²). Legend "8a/b" with
        // (a,b) = (2,1): P = 2048 → c = (2048·1/16)^{1/3} ≈ 5.04 → invalid;
        // with (a,b) = (1,2): P = 2048, c = (2048·2/8)^{1/3} = 8, d = 32.
        assert_eq!(weak_legend_grid(2048, 8, 1, 2), Some((8, 32)));
        // Legend "1a/b" with (a,b) = (2,2): P = 4096, c = (4096·2/2)^{1/3} = 16, d = 16.
        assert_eq!(weak_legend_grid(4096, 1, 2, 2), Some((16, 16)));
    }

    #[test]
    fn best_grid_prefers_small_c_for_tall() {
        let cal = MachineCal::stampede2();
        let (grid, _) = best_cacqr2(&cal, 1 << 25, 1 << 10, 4096).unwrap();
        assert!(grid.c <= 4, "very tall matrices should pick small c, got {}", grid.c);
    }

    #[test]
    fn gflops_convention() {
        // 2mn² − ⅔n³ flops in 1 second on 1 node.
        let gf = gflops_per_node(1 << 20, 1 << 8, 1.0, 1);
        let expect = (2.0 * (1u64 << 20) as f64 * 65536.0 - 2.0 / 3.0 * 16777216.0) / 1e9;
        assert!((gf - expect).abs() < 1e-9);
    }
}
