//! Naive vs Blocked kernel backends on square gemm — the perf trajectory
//! anchor for the pluggable-backend refactor. The acceptance bar: `Blocked`
//! beats `Naive` by ≥ 3× at 512³.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dense::backend::BackendKind;
use dense::gemm::Trans;
use dense::Matrix;

fn bench_gemm_backends(crit: &mut Criterion) {
    let mut g = crit.benchmark_group("dense_backends/gemm");
    g.sample_size(10);
    for &n in &[128usize, 512, 1024] {
        let a = Matrix::from_fn(n, n, |i, j| ((i * n + j) as f64 * 0.3).sin());
        let b = Matrix::from_fn(n, n, |i, j| ((i + 2 * j) as f64 * 0.17).cos());
        g.throughput(Throughput::Elements((2 * n * n * n) as u64));
        if n <= 512 {
            // 1024³ naive takes too long for the default suite; the 512
            // point is the comparison the acceptance criterion uses.
            g.bench_with_input(BenchmarkId::new("naive", n), &n, |bench, _| {
                let backend = BackendKind::Naive.get();
                let mut c = Matrix::zeros(n, n);
                bench.iter(|| backend.gemm(1.0, a.as_ref(), Trans::No, b.as_ref(), Trans::No, 0.0, c.as_mut()));
            });
        }
        g.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
            let backend = BackendKind::Blocked.get();
            let mut c = Matrix::zeros(n, n);
            bench.iter(|| backend.gemm(1.0, a.as_ref(), Trans::No, b.as_ref(), Trans::No, 0.0, c.as_mut()));
        });
    }
    g.finish();
}

fn bench_syrk_backends(crit: &mut Criterion) {
    let mut g = crit.benchmark_group("dense_backends/syrk");
    g.sample_size(10);
    for &(m, n) in &[(2048usize, 128usize), (8192, 64)] {
        let a = dense::random::well_conditioned(m, n, 1);
        g.throughput(Throughput::Elements((m * n * n) as u64));
        for kind in BackendKind::ALL {
            g.bench_with_input(
                BenchmarkId::new(kind.to_string(), format!("{m}x{n}")),
                &m,
                |bench, _| {
                    let backend = kind.get();
                    bench.iter(|| backend.syrk(a.as_ref()));
                },
            );
        }
    }
    g.finish();
}

fn bench_trsm_backends(crit: &mut Criterion) {
    let mut g = crit.benchmark_group("dense_backends/trsm_right_lower_trans");
    g.sample_size(10);
    let n = 256usize;
    let m = 1024usize;
    let l = Matrix::from_fn(n, n, |i, j| {
        if j > i {
            0.0
        } else if i == j {
            2.0 + i as f64 * 0.01
        } else {
            ((i * n + j) as f64 * 0.13).sin() * 0.1
        }
    });
    let b0 = Matrix::from_fn(m, n, |i, j| ((i + j) as f64 * 0.21).cos());
    g.throughput(Throughput::Elements((m * n * n) as u64));
    for kind in BackendKind::ALL {
        g.bench_with_input(
            BenchmarkId::new(kind.to_string(), format!("{m}x{n}")),
            &m,
            |bench, _| {
                let backend = kind.get();
                bench.iter(|| {
                    let mut b = b0.clone();
                    backend.trsm_right_lower_trans(l.as_ref(), b.as_mut());
                    b
                });
            },
        );
    }
    g.finish();
}

/// The symmetry-aware blocked SYRK at the two shapes the perf gate's
/// `syrk-*` entries time (`tuner_sweep`), for a criterion-style reading of
/// the same kernel.
fn bench_syrk_gate_shapes(crit: &mut Criterion) {
    let mut g = crit.benchmark_group("syrk");
    g.sample_size(10);
    for &(m, n) in &[(4096usize, 64usize), (8192, 128)] {
        let a = dense::random::well_conditioned(m, n, 1);
        let backend = BackendKind::Blocked.get();
        g.throughput(Throughput::Elements((m * n * n) as u64));
        g.bench_with_input(BenchmarkId::new("blocked_syrk", format!("{m}x{n}")), &m, |bench, _| {
            let mut c = Matrix::zeros(n, n);
            bench.iter(|| backend.syrk_into(a.as_ref(), c.as_mut()));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_gemm_backends,
    bench_syrk_backends,
    bench_syrk_gate_shapes,
    bench_trsm_backends
);
criterion_main!(benches);
