//! Bench harness: regenerates every table and figure of the paper.
//!
//! The binaries in `src/bin/` print the same series the paper plots
//! (tab-separated: series label, x value, Gigaflops/s/node), evaluated from
//! the validated cost models on the calibrated machine models at the paper's
//! full scale. `crossvalidate` additionally replays scaled-down versions of
//! each configuration on the threaded simulator and checks the model
//! matches. The Criterion benches in `benches/` measure real wall-clock of
//! the kernels, collectives, and distributed algorithms at laptop scale.
//! The perf-gate binaries (`tuner_sweep`, `shm_scaling`, `stream_update`,
//! `stream_solve`, `service_slo`) share one harness from here: flag
//! parsing ([`Flags`]), best-of timing ([`time_best`]), the JSON entry and
//! artifact emitters, and the baseline comparison ([`gate`]).
//!
//! Figure-of-merit convention (paper §IV-C): both algorithms are credited
//! `2mn² − ⅔n³` flops — CQR2's ~2× extra arithmetic is *not* credited, so
//! its achieved fraction of peak is understated exactly as in the paper.

use cacqr::tuner::json::{self, JsonValue};
use costmodel::MachineCal;
use std::time::Instant;

/// The command line of a gate binary: boolean switches (`--smoke`) and
/// valued flags (`--out <path>`, `--gate <baseline.json>`).
pub struct Flags(Vec<String>);

impl Flags {
    /// The process arguments, program name skipped.
    pub fn from_env() -> Flags {
        Flags(std::env::args().skip(1).collect())
    }

    /// Whether the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// The argument following `flag`, if both are present.
    pub fn value(&self, flag: &str) -> Option<String> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).cloned()
    }
}

/// Best-of-`reps` wall seconds of `op` after `warm` untimed runs.
pub fn time_best(warm: usize, reps: usize, mut op: impl FnMut()) -> f64 {
    for _ in 0..warm {
        op();
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        op();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best.max(1e-9)
}

/// A JSON object from `(key, value)` pairs, in the order given.
pub fn object(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The gate entry of one timed workload: `name`, the `threads` budget it ran
/// under, `wall_seconds` and `normalized` (wall over the run's probe
/// `basis_seconds`, so a checked-in baseline survives machine changes),
/// then the workload's `extra` fields — a `speedup` over a reference path is
/// the one the gate also tracks.
pub fn timed_entry(
    name: &str,
    threads: usize,
    wall: f64,
    basis_seconds: f64,
    extra: Vec<(&str, JsonValue)>,
) -> JsonValue {
    let mut fields = vec![
        ("name", JsonValue::String(name.to_string())),
        ("threads", JsonValue::Number(threads as f64)),
        ("wall_seconds", JsonValue::Number(wall)),
        ("normalized", JsonValue::Number(wall / basis_seconds)),
    ];
    fields.extend(extra);
    object(fields)
}

/// Numeric `field` of the entry called `name`, if both exist.
pub fn entry_field(entries: &[JsonValue], name: &str, field: &str) -> Option<f64> {
    let entry = entries
        .iter()
        .find(|e| e.get("name").and_then(JsonValue::as_str) == Some(name))?;
    entry.get(field).and_then(JsonValue::as_f64)
}

/// Writes the run's artifact to `path`: the `header` fields, then the
/// measured `entries` as the array `key` — the same key the baseline file
/// tracks them under.
pub fn write_artifact<'a>(path: &str, mut header: Vec<(&'a str, JsonValue)>, key: &'a str, entries: &[JsonValue]) {
    header.push((key, JsonValue::Array(entries.to_vec())));
    std::fs::write(path, object(header).to_pretty()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("# wrote {path}");
}

/// Compares this run's `entries` against the baseline file's array `key`
/// and exits non-zero on a regression. Of the baseline entries whose name
/// `tracks` accepts, each must be present in this run, its `normalized`
/// time may grow by at most `tolerance`, and its `speedup` may shrink by at
/// most `tolerance`. Normalization cancels machine speed, not parallelism,
/// so an entry recorded under a different thread budget is skipped (loudly)
/// — and a gate that skipped everything fails. `label` prefixes every line
/// printed; `summary` is appended to the OK line.
pub fn gate(
    label: &str,
    baseline_path: &str,
    key: &str,
    tracks: impl Fn(&str) -> bool,
    entries: &[JsonValue],
    tolerance: f64,
    summary: &str,
) {
    let text =
        std::fs::read_to_string(baseline_path).unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let baseline = json::parse(&text).unwrap_or_else(|e| panic!("baseline {baseline_path} is not valid JSON: {e}"));
    let all = baseline
        .get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("baseline {baseline_path} has no \"{key}\" array"));
    let name_of = |e: &JsonValue| {
        e.get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or("<unnamed>")
            .to_string()
    };
    let tracked: Vec<&JsonValue> = all.iter().filter(|e| tracks(&name_of(e))).collect();
    let mut regressions = Vec::new();
    let mut skipped = 0usize;
    for base in &tracked {
        let name = name_of(base);
        let Some(now) = entries.iter().find(|e| name_of(e) == name) else {
            regressions.push(format!("{name}: tracked entry missing from this run"));
            continue;
        };
        let field = |e: &JsonValue, f: &str| e.get(f).and_then(JsonValue::as_f64);
        let (base_threads, threads) = (field(base, "threads"), field(now, "threads"));
        if base_threads.is_some() && base_threads != threads {
            println!(
                "# {label}: skipping {name} (baseline threads={}, this run threads={})",
                base_threads.unwrap_or_default(),
                threads.unwrap_or_default()
            );
            skipped += 1;
            continue;
        }
        let (base_norm, base_speedup) = (field(base, "normalized"), field(base, "speedup"));
        if base_norm.is_none() && base_speedup.is_none() {
            regressions.push(format!(
                "{name}: baseline entry has neither \"normalized\" nor \"speedup\""
            ));
        }
        if let (Some(base), Some(now)) = (base_norm, field(now, "normalized")) {
            if now > base * tolerance {
                regressions.push(format!(
                    "{name}: normalized {now:.3} vs baseline {base:.3} (> {tolerance}x)"
                ));
            }
        }
        if let (Some(base), Some(now)) = (base_speedup, field(now, "speedup")) {
            if now < base / tolerance {
                regressions.push(format!(
                    "{name}: speedup {now:.2}x vs baseline {base:.2}x (shrunk > {tolerance}x)"
                ));
            }
        }
    }
    if skipped == tracked.len() && !tracked.is_empty() {
        regressions.push(format!(
            "all {skipped} tracked entries skipped (thread-budget mismatch): \
             re-record the baseline under this budget or set CACQR_THREADS to match"
        ));
    }
    if regressions.is_empty() {
        println!(
            "# {label}: OK ({} tracked entries within {tolerance}x{summary})",
            tracked.len()
        );
        return;
    }
    eprintln!("# {label}: FAILED");
    for r in &regressions {
        eprintln!("#   {r}");
    }
    std::process::exit(1);
}

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
