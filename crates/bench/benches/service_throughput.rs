//! Throughput of the `QrService` batch engine against the sequential
//! `plan.factor` loop it replaces.
//!
//! The serving workload is the TSQR one: a batch of 32 tall-skinny panels,
//! identical shape, factored back to back. The baseline already amortizes
//! planning (one `QrPlan`, reused); the service adds pool-level concurrency
//! on top, so the delta is pure scheduling.
//!
//! The plans are single-rank 1D-CQR2 (`GridShape::one_d(1)`), so each job
//! is one thread's worth of node-local arithmetic: the bench isolates
//! pool-level scaling instead of conflating it with the simulator's
//! per-rank threading. At 512×32 each factorization's kernels sit below the
//! block-parallel threshold, so the sequential baseline does not secretly
//! multithread either.
//!
//! Worker-pool width is clamped to the `CACQR_THREADS` budget (default: the
//! machine's parallelism); run e.g.
//! `CACQR_THREADS=4 cargo bench -p bench --bench service_throughput` to pin
//! the budget. The `factor_many/4_workers` line should reach ≥2× the
//! `sequential_loop` throughput on ≥4 available cores. Labels carry the
//! *actual* (post-clamp) pool width so a constrained box is visible in the
//! output.

use cacqr::service::{JobSpec, QrService};
use cacqr::{Algorithm, QrPlan};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use dense::random::well_conditioned;
use dense::Matrix;
use pargrid::GridShape;

const BATCH: usize = 32;
const M: usize = 512;
const N: usize = 32;

fn tall_skinny_batch() -> Vec<Matrix> {
    (0..BATCH).map(|s| well_conditioned(M, N, s as u64 + 1)).collect()
}

fn spec() -> JobSpec {
    JobSpec::new(M, N)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(1).unwrap())
}

fn service_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);
    let batch = tall_skinny_batch();

    let plan = QrPlan::new(M, N)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(1).unwrap())
        .build()
        .unwrap();
    group.bench_with_input(
        BenchmarkId::new("sequential_loop", format!("{BATCH}x{M}x{N}")),
        &batch,
        |b, batch| {
            b.iter(|| {
                for a in batch {
                    black_box(plan.factor(a).unwrap());
                }
            })
        },
    );

    for requested in [1usize, 2, 4] {
        let service = QrService::builder().workers(requested).queue_capacity(BATCH).build();
        let spec = spec();
        let label = if service.workers() == requested {
            format!("{requested}_workers")
        } else {
            format!("{requested}_workers_clamped_to_{}", service.workers())
        };
        group.bench_with_input(BenchmarkId::new("factor_many", label), &batch, |b, batch| {
            b.iter(|| black_box(service.factor_many(&spec, batch.clone()).unwrap()))
        });
    }
    group.finish();
}

fn plan_cache(c: &mut Criterion) {
    // A CA-CQR2 plan on a 2×8×2 grid: building it runs the full validation
    // pipeline (grid constraints, divisibility, base-size/inverse-depth
    // checks), which is what the cache saves on every repeat shape.
    let mut group = c.benchmark_group("plan_cache");
    group.sample_size(10);
    let service = QrService::builder().workers(1).build();
    let spec = JobSpec::new(M, N).grid(GridShape::new(2, 8).unwrap());
    service.plan(&spec).unwrap(); // warm the cache
    group.bench_function("hit", |b| b.iter(|| black_box(service.plan(&spec).unwrap())));
    group.bench_function("rebuild", |b| {
        b.iter(|| black_box(QrPlan::new(M, N).grid(GridShape::new(2, 8).unwrap()).build().unwrap()))
    });
    group.finish();
}

fn factor_steady_state(c: &mut Criterion) {
    // Warm-plan factor latency: after the first calls populate the plan's
    // workspace pool, every later factor is allocation-free at the arena
    // layer — this group is the wall-clock face of that contract (and the
    // `steady-*` entries in the perf gate track the same quantity).
    let mut group = c.benchmark_group("factor_steady_state");
    group.sample_size(10);
    let (m, n) = (2048usize, 64usize);
    let a = well_conditioned(m, n, 3);
    let plans = [
        (
            "1d-cqr2-p16",
            QrPlan::new(m, n)
                .algorithm(Algorithm::Cqr2_1d)
                .grid(GridShape::one_d(16).unwrap())
                .build()
                .unwrap(),
        ),
        (
            "ca-cqr2-2x4",
            QrPlan::new(m, n)
                .algorithm(Algorithm::CaCqr2)
                .grid(GridShape::new(2, 4).unwrap())
                .build()
                .unwrap(),
        ),
    ];
    for (name, plan) in plans {
        // Converge the arena inventory before timing.
        plan.warm_up(&a).unwrap();
        group.bench_with_input(BenchmarkId::new(name, format!("{m}x{n}")), &a, |b, a| {
            b.iter(|| black_box(plan.factor(a).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, service_throughput, plan_cache, factor_steady_state);
criterion_main!(benches);
