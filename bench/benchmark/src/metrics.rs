//! The metric tables — name and unit of every metric the benchmark prints —
//! and the result line the driver reads. `BENCHMARK.json` at the repo root
//! lists the same names and units (plus direction and bound).

use std::collections::BTreeMap;

/// What a caller of the library waits for; printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
];

/// Where the time goes, layer by layer; printed by a traced run. A metric a
/// workload does not exercise (`stream.*` under a factor workload) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // dense: kernels at the shapes the workloads induce, against a roofline
    // measured in the same run.
    ("dense.probe_gflops", "Gflop/s"),
    ("dense.triad_gbs", "GB/s"),
    ("dense.gemm_gflops", "Gflop/s"),
    ("dense.gemm_roofline_frac", "ratio"),
    ("dense.syrk_gflops", "Gflop/s"),
    ("dense.syrk_roofline_frac", "ratio"),
    ("dense.potrf_gflops", "Gflop/s"),
    ("dense.cholinv_gflops", "Gflop/s"),
    ("dense.trtri_gflops", "Gflop/s"),
    ("dense.trsm_gflops", "Gflop/s"),
    ("dense.rank_k_append_gflops", "Gflop/s"),
    ("dense.rank_k_downdate_gflops", "Gflop/s"),
    ("dense.householder_qr_gflops", "Gflop/s"),
    ("dense.cond_estimate_s", "s"),
    ("dense.diagnostics_s", "s"),
    // simgrid: the measured transport and its collectives.
    ("simgrid.alpha_s", "s"),
    ("simgrid.beta_s_per_word", "s/word"),
    ("simgrid.spawn_join_p2_s", "s"),
    ("simgrid.spawn_join_p8_s", "s"),
    ("simgrid.allreduce_p2_s", "s"),
    ("simgrid.allreduce_p8_s", "s"),
    ("simgrid.bcast_p8_s", "s"),
    ("simgrid.allgather_p8_s", "s"),
    ("simgrid.barrier_p8_s", "s"),
    ("simgrid.sim_allreduce_p2_s", "s"),
    ("simgrid.msgs_per_op", "count"),
    ("simgrid.words_per_op", "count"),
    // pargrid: the global <-> per-rank copies around every factor.
    ("pargrid.scatter_s", "s"),
    ("pargrid.assemble_s", "s"),
    // cacqr: algorithms and driver.
    ("cacqr.spmd_s", "s"),
    ("cacqr.expert_run_s", "s"),
    ("cacqr.factor_s", "s"),
    ("cacqr.factor_overhead_s", "s"),
    ("cacqr.mm3d_s", "s"),
    ("cacqr.cfr3d_s", "s"),
    ("cacqr.flops_per_op", "flop"),
    ("cacqr.critical_flops_per_op", "flop"),
    ("cacqr.arena_allocs_per_op", "count"),
    ("cacqr.plan_build_s", "s"),
    ("cacqr.warm_up_s", "s"),
    ("cacqr.ortho_err_max", "ratio"),
    ("cacqr.resid_err_max", "ratio"),
    // service: dispatch, queueing, plan cache, escalation ladder.
    ("service.submit_s", "s"),
    ("service.queue_wait_p50_s", "s"),
    ("service.queue_wait_p99_s", "s"),
    ("service.execute_p50_s", "s"),
    ("service.execute_p99_s", "s"),
    ("service.e2e_p99_s", "s"),
    ("service.op_p99_s", "s"),
    ("service.plan_hit_s", "s"),
    ("service.plan_miss_s", "s"),
    ("service.retries_per_kjob", "1/kjob"),
    ("service.escalations_per_kjob", "1/kjob"),
    ("service.shed", "count"),
    ("service.expired", "count"),
    ("service.factor_many_jobs_per_s", "1/s"),
    ("service.direct_jobs_per_s", "1/s"),
    // stream: the incremental update path.
    ("stream.append_p50_s", "s"),
    ("stream.downdate_p50_s", "s"),
    ("stream.solve_p50_s", "s"),
    ("stream.snapshot_p50_s", "s"),
    ("stream.refresh_p50_s", "s"),
    ("stream.refreshes_per_kstep", "1/kstep"),
    ("stream.drift_max", "ratio"),
    ("stream.solve_rel_diff", "ratio"),
    // tuner, baseline, cost model.
    ("tuner.report_s", "s"),
    ("baseline.pgeqrf_op_s", "s"),
    ("baseline.cqr2_speedup", "ratio"),
    ("costmodel.predicted_s", "s"),
    ("costmodel.residual", "ratio"),
    // the process, and the cost of tracing itself.
    ("proc.peak_rss_mib", "MiB"),
    ("proc.cpu_s_per_op", "s"),
    ("proc.heap_allocs_per_op", "count"),
    ("proc.heap_peak_mib", "MiB"),
    ("trace.overhead_frac", "ratio"),
];

/// Measured values by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records a value. Panics on a name missing from both tables (a typo
    /// in this program, not a condition of the run).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name:?} is not in the metric tables"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// True when every recorded value is a finite number.
    pub fn all_finite(&self) -> bool {
        self.0.values().all(|v| v.is_finite())
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric of `table`, each with all its digits.
pub fn result_line(table: &[(&str, &str)], metrics: &Metrics, attempted: usize, failed: usize) -> String {
    let correct = failed == 0 && metrics.all_finite();
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = metrics.get(name);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
