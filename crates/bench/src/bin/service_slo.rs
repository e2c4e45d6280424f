//! Service SLO bench: *measured* serving throughput and tail latency.
//!
//! Drives a `QrService` with the small-panel workload the TSQR line of
//! work motivates — thousands of tiny tall-skinny QRs whose cost is
//! dispatch and data movement, not flops — and measures the two
//! quantities the service layer promises:
//!
//! 1. **Throughput** — probe-normalized wall time (and jobs/sec) of the
//!    two ways to serve a batch over identical kernels: a per-job `submit`
//!    loop, and the one-dispatch `factor_many` path. Both produce
//!    bitwise-identical factors.
//! 2. **Tail latency** — p50/p99 end-to-end latency of a sustained
//!    zero-copy `submit_ref` stream under backpressure, read from the
//!    service's own lock-free `ServiceStats` recorder.
//!
//! Emits `BENCH_PR9.json`. Flags (same conventions as `tuner_sweep` /
//! `stream_update`):
//!
//! * `--smoke` — small batches, fast: what CI's `check` job runs on every
//!   push.
//! * `--gate <baseline.json>` — compares normalized times/latencies
//!   against the checked-in baseline's top-level `"service"` array and
//!   exits non-zero on regression (> 1.4x slower). Entries recorded under
//!   a different thread budget are skipped, like every other gate.
//! * `--out <path>` — artifact path (default `BENCH_PR9.json`).
//!   Regenerate the baseline section by pasting the `"service"` array
//!   from the artifact (recorded with `CACQR_THREADS=8`).
//!
//! Run: `CACQR_THREADS=8 cargo run --release -p bench --bin service_slo`

use bench_harness::{gate, time_best, timed_entry, write_artifact, Flags};
use cacqr::service::{JobSpec, QrService};
use cacqr::tuner::json::JsonValue;
use cacqr::{Algorithm, RetryPolicy, ServiceError, SubmitOptions};
use dense::random::{matrix_with_condition, well_conditioned};
use pargrid::GridShape;
use std::sync::Arc;
use std::time::Duration;

/// Normalized times and latencies may regress by at most this factor
/// before the gate fails. Matches `stream_update`: these are
/// microsecond-scale quantities, noisier than the collective benchmarks.
const GATE_TOLERANCE: f64 = 1.4;

/// The small-panel shape: single-rank 1D-CQR2, a few microseconds per
/// factor — the regime where dispatch dominates and the service layer is
/// the bottleneck under test. (At 64×16 the kernel alone is ~35µs and
/// every dispatch scheme measures the same; at 16×4 the per-job queue
/// round-trip costs more than the factorization.)
const PANEL_M: usize = 16;
const PANEL_N: usize = 4;

fn main() {
    let flags = Flags::from_env();
    let smoke = flags.has("--smoke");
    let out_path = flags.value("--out").unwrap_or_else(|| "BENCH_PR9.json".to_string());

    let threads = dense::max_threads();
    let batch_jobs = if smoke { 256 } else { 2048 };
    let latency_jobs = if smoke { 512 } else { 4096 };
    let spec = JobSpec::new(PANEL_M, PANEL_N)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(1).expect("single rank is always a valid 1D grid"));
    let shape = format!("{PANEL_M}x{PANEL_N}");

    let probe = dense::probe_gemm(dense::BackendKind::default_kind(), 256, 8);
    println!(
        "# service_slo ({}) — probe: {} {}³ gemm at {:.2} Gflop/s; pool width {threads}",
        if smoke { "smoke" } else { "full" },
        probe.backend,
        probe.dim,
        probe.gflops(),
    );

    let mut results: Vec<JsonValue> = Vec::new();

    // ---- Phase 1: throughput — per-job dispatch vs one-dispatch batch.
    let service = QrService::builder().build();
    let workers = service.workers();
    let batch: Vec<_> = (0..batch_jobs)
        .map(|s| well_conditioned(PANEL_M, PANEL_N, s as u64))
        .collect();
    // Warm the plan and its arenas on the caller thread so the timed
    // regions measure serving, not first-touch growth.
    let plan = service.plan(&spec).expect("valid spec");
    plan.warm_up(&batch[0]).expect("well-conditioned panel");

    // The two ways to serve a batch: one submission (and one handle) per
    // panel, or the whole batch as one dispatched job.
    let wall_submit = time_best(1, 3, || {
        let handles: Vec<_> = batch
            .iter()
            .map(|a| service.submit(&spec, a.clone()).expect("accepting"))
            .collect();
        for h in handles {
            h.wait().expect("panels factor");
        }
    });
    let wall_many = time_best(1, 3, || {
        let reports = service.factor_many(&spec, batch.clone()).expect("panels factor");
        assert_eq!(reports.len(), batch_jobs);
    });
    let submit_rate = batch_jobs as f64 / wall_submit;
    let many_rate = batch_jobs as f64 / wall_many;
    println!("workload            wall_s      normalized  jobs/s");
    for (name, wall, rate) in [
        (format!("service-submit-{shape}"), wall_submit, submit_rate),
        (format!("service-many-{shape}"), wall_many, many_rate),
    ] {
        println!("{name:<19} {wall:<11.4e} {:<11.3} {rate:<11.0}", wall / probe.seconds);
        results.push(timed_entry(&name, threads, wall, probe.seconds, vec![]));
    }
    drop(service);

    // ---- Phase 2: tail latency of a sustained zero-copy submit stream.
    // A fresh service so the stats recorder sees only this phase.
    let service = QrService::builder().build();
    service
        .plan(&spec)
        .expect("valid spec")
        .warm_up(&batch[0])
        .expect("panel");
    let operand = Arc::new(well_conditioned(PANEL_M, PANEL_N, 7));
    let mut handles = Vec::with_capacity(latency_jobs);
    for _ in 0..latency_jobs {
        // Blocking submit: the bounded injector applies backpressure, so
        // queue wait — and therefore p99 — is bounded by design.
        handles.push(service.submit_ref(&spec, &operand).expect("accepting"));
    }
    for h in handles {
        h.wait().expect("well-conditioned panel");
    }
    let stats = service.stats();
    assert_eq!(stats.completed, latency_jobs as u64);
    println!(
        "# sustained submit_ref: {:.0} jobs/s, queue-wait p99 {:.1}µs, exec p50 {:.1}µs",
        stats.jobs_per_sec,
        stats.queue_wait.p99.as_secs_f64() * 1e6,
        stats.execution.p50.as_secs_f64() * 1e6,
    );
    for (name, wall) in [
        (format!("service-e2e-p50-{shape}"), stats.end_to_end.p50.as_secs_f64()),
        (format!("service-e2e-p99-{shape}"), stats.end_to_end.p99.as_secs_f64()),
    ] {
        println!("{name:<19} {wall:<11.4e} {:<11.3}", wall / probe.seconds);
        results.push(timed_entry(&name, threads, wall, probe.seconds, vec![]));
    }
    drop(service);

    // ---- Phase 3: resilience counters. The robustness layer's escalation
    // and shedding paths must be live in the serving build, not just in
    // unit tests: drive one κ≈1e9 panel through the retry ladder and one
    // unmeetable deadline through admission control, then assert the
    // `stats()` counters saw both.
    let service = QrService::builder().build();
    let hard_spec = JobSpec::new(64, 16)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(1).expect("single rank is always a valid 1D grid"));
    let hard = matrix_with_condition(64, 16, 1.0e9, 41);
    let report = service
        .submit_with(&hard_spec, hard, SubmitOptions::new().retry(RetryPolicy::escalate()))
        .expect("accepting")
        .wait()
        .expect("the ladder terminates at a stable rung");
    let esc = report
        .escalation
        .as_ref()
        .expect("a κ≈1e9 panel cannot pass plain CQR2: the ladder must engage");
    assert!(esc.escalated(), "accepted rung should not be the primary algorithm");
    // Warm the queue-wait histogram so admission control has an observed
    // p99, then present a deadline no queue can meet.
    for h in (0..8)
        .map(|s| {
            service
                .submit(&spec, well_conditioned(PANEL_M, PANEL_N, 100 + s))
                .expect("accepting")
        })
        .collect::<Vec<_>>()
    {
        h.wait().expect("well-conditioned panel");
    }
    let shed_err = service
        .submit_with(
            &spec,
            well_conditioned(PANEL_M, PANEL_N, 7),
            SubmitOptions::new().deadline(Duration::ZERO),
        )
        .err();
    assert!(
        matches!(shed_err, Some(ServiceError::Overloaded { .. })),
        "a zero deadline against a warm queue must be shed, got {shed_err:?}"
    );
    let rstats = service.stats();
    assert!(rstats.retries >= 1, "escalation implies at least one retry");
    assert_eq!(rstats.escalations, 1);
    assert_eq!(rstats.shed, 1);
    println!(
        "# resilience: accepted rung {:?}, retries {}, escalations {}, shed {}",
        report.algorithm, rstats.retries, rstats.escalations, rstats.shed
    );
    drop(service);

    let num = JsonValue::Number;
    write_artifact(
        &out_path,
        vec![
            ("version", num(1.0)),
            (
                "mode",
                JsonValue::String(if smoke { "smoke" } else { "full" }.to_string()),
            ),
            ("probe_gflops", num(probe.gflops())),
            ("probe_seconds", num(probe.seconds)),
            ("pool_workers", num(workers as f64)),
            ("batch_jobs", num(batch_jobs as f64)),
            ("submit_jobs_per_sec", num(submit_rate)),
            ("many_jobs_per_sec", num(many_rate)),
            ("resilience_retries", num(rstats.retries as f64)),
            ("resilience_escalations", num(rstats.escalations as f64)),
            ("resilience_shed", num(rstats.shed as f64)),
        ],
        "service",
        &results,
    );

    if let Some(path) = flags.value("--gate") {
        let tracks = |name: &str| name.starts_with("service-");
        gate("service gate", &path, "service", tracks, &results, GATE_TOLERANCE, "");
    }
}
