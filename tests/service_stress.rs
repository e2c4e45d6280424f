//! Stress tests for the `QrService` engine: many threads hammering one
//! service with mixed shapes and algorithms must hold every numerical
//! invariant, stay deterministic per `(seed, shape)`, and share cached
//! plans pointer-for-pointer.
//!
//! The pools here range from one worker (pure queueing semantics) to eight
//! (wider than a small runner — real contention, batches claimed panel by
//! panel across the pool). The mixed batch-and-stream test runs under both
//! rank placements: unpinned (the default) and pinned to cores
//! (`RuntimeKind::SharedMem`), which must give the same bits.

mod common;

use cacqr::service::{JobSpec, QrService, ServiceError};
use cacqr::{Algorithm, PlanError};
use common::{input_for, mixed_specs};
use dense::random::well_conditioned;
use dense::Matrix;
use pargrid::GridShape;
use simgrid::RuntimeKind;
use std::sync::Arc;

#[test]
fn concurrent_mixed_load_holds_numerical_invariants() {
    let service = QrService::builder().workers(4).build();
    let specs = mixed_specs();
    let submitters = 6usize;
    let jobs_per_thread = 8usize;
    std::thread::scope(|scope| {
        for t in 0..submitters {
            let service = &service;
            let specs = &specs;
            scope.spawn(move || {
                for i in 0..jobs_per_thread {
                    let spec = &specs[(t + i) % specs.len()];
                    let seed = (t * 1000 + i) as u64;
                    let report = service
                        .submit(spec, input_for(spec, seed))
                        .expect("submission of a valid spec must be accepted")
                        .wait()
                        .expect("well-conditioned input must factor");
                    assert!(
                        report.orthogonality_error < 1e-11,
                        "orthogonality bound violated under load: {:.3e} (spec {spec:?}, seed {seed})",
                        report.orthogonality_error
                    );
                    assert!(
                        report.residual_error < 1e-11,
                        "residual bound violated under load: {:.3e} (spec {spec:?}, seed {seed})",
                        report.residual_error
                    );
                    assert_eq!(report.q.rows(), spec.m());
                    assert_eq!(report.r.rows(), spec.n());
                }
            });
        }
    });
    // One cached plan per distinct spec, regardless of contention.
    assert_eq!(service.plan_cache_len(), specs.len());
}

#[test]
fn reports_are_deterministic_per_seed_and_shape() {
    // The same (seed, shape) job must produce bitwise-identical factors no
    // matter which worker runs it, how saturated the pool is, or whether it
    // runs through the service at all.
    let service = QrService::builder().workers(4).build();
    let specs = mixed_specs();
    for spec in &specs {
        let seed = 77u64;
        let a = input_for(spec, seed);
        let baseline_report = service.plan(spec).unwrap().factor(&a).unwrap();
        // Resubmit the identical job many times interleaved with noise jobs
        // from other shapes, so it lands on different workers amid load.
        let noise: Vec<_> = (0..8)
            .map(|i| {
                let other = &specs[i % specs.len()];
                service.submit(other, input_for(other, 5000 + i as u64)).unwrap()
            })
            .collect();
        let repeats: Vec<_> = (0..4).map(|_| service.submit(spec, a.clone()).unwrap()).collect();
        for handle in repeats {
            let report = handle.wait().unwrap();
            assert_eq!(report.q, baseline_report.q, "Q must be bitwise reproducible");
            assert_eq!(report.r, baseline_report.r, "R must be bitwise reproducible");
            assert_eq!(report.elapsed, baseline_report.elapsed);
            assert_eq!(report.ledgers, baseline_report.ledgers);
        }
        for handle in noise {
            handle.wait().unwrap();
        }
    }
}

#[test]
fn cache_returns_pointer_equal_plans_under_contention() {
    let service = QrService::builder().workers(2).build();
    let spec = JobSpec::new(64, 16).grid(GridShape::new(2, 4).unwrap());
    // Race 8 threads on a cold cache: everyone must end up with the same
    // Arc allocation (the build-race loser discards its work).
    let plans: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8).map(|_| scope.spawn(|| service.plan(&spec).unwrap())).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for p in &plans[1..] {
        assert!(
            Arc::ptr_eq(&plans[0], p),
            "every thread must receive the same cached Arc<QrPlan>"
        );
    }
    assert_eq!(service.plan_cache_len(), 1);
    // And the key distinguishes every knob that changes the schedule.
    let variants = [
        spec.base_size(8),
        spec.inverse_depth(1),
        spec.algorithm(Algorithm::CaCqr3),
        JobSpec::new(64, 16).grid(GridShape::new(1, 4).unwrap()),
    ];
    for v in &variants {
        let p = service.plan(v).unwrap();
        assert!(
            !Arc::ptr_eq(&plans[0], &p),
            "distinct spec {v:?} must build a distinct plan"
        );
    }
    assert_eq!(service.plan_cache_len(), 1 + variants.len());
}

#[test]
fn typed_errors_flow_through_the_pool() {
    let service = QrService::builder().workers(2).build();
    // Exactly-zero column: the Gram matrix loses positive definiteness and
    // the worker must deliver the typed PlanError through the handle.
    let spec = JobSpec::new(32, 8).grid(GridShape::new(2, 4).unwrap());
    let mut a = well_conditioned(32, 8, 3);
    for i in 0..32 {
        a.set(i, 5, 0.0);
    }
    let err = service.submit(&spec, a).unwrap().wait().unwrap_err();
    match err {
        ServiceError::Plan(PlanError::NotPositiveDefinite(e)) => {
            assert_eq!(e.index, 5, "the zero column's pivot index must survive the pool");
        }
        other => panic!("expected NotPositiveDefinite, got {other}"),
    }
    // The pool survives the failure and keeps serving.
    let ok = service
        .submit(&spec, well_conditioned(32, 8, 9))
        .unwrap()
        .wait()
        .unwrap();
    assert!(ok.orthogonality_error < 1e-12);
}

#[test]
fn mixed_batch_and_stream_traffic_is_bitwise_deterministic_across_pool_widths() {
    // The scheduler may run any schedule — jobs on whichever worker pops
    // them, factor_many panels claimed by whichever worker gets to the
    // cursor first — but the results must be bitwise identical to
    // sequential execution at every pool width and under either rank
    // placement. Compute the sequential reference once (unpinned), then
    // replay the identical mixed workload at widths 1, 2, and 8 on both
    // placements: the batch through the pool, and a caller-owned stream
    // updated on its own thread while the pool is busy.
    let spec = JobSpec::new(64, 16).grid(GridShape::new(2, 4).unwrap());
    let many: Vec<_> = (0..24).map(|s| input_for(&spec, 200 + s)).collect();
    let stream_seed = well_conditioned(64, 16, 300);
    let updates: Vec<_> = (0..6).map(|r| dense::random::gaussian_matrix(2, 16, 400 + r)).collect();

    // Sequential reference: a plain plan loop plus a direct stream.
    let reference = QrService::builder().workers(1).build();
    let plan = reference.plan(&spec).unwrap();
    let ref_reports: Vec<_> = many.iter().map(|a| plan.factor(a).unwrap()).collect();
    // Streams that keep only `R`: zero-width right-hand sides.
    let (bare_seed, bare_update) = (Matrix::zeros(64, 0), Matrix::zeros(2, 0));
    let mut direct = plan.stream_with_rhs(&stream_seed, &bare_seed).unwrap();
    for u in &updates {
        direct.append_rows_with(u.as_ref(), bare_update.as_ref()).unwrap();
    }
    let ref_snap = direct.snapshot().unwrap();
    drop(reference);

    for (runtime, workers) in [RuntimeKind::Simulated, RuntimeKind::SharedMem]
        .into_iter()
        .flat_map(|runtime| [1usize, 2, 8].map(|workers| (runtime, workers)))
    {
        let service = QrService::builder().workers(workers).runtime(runtime).build();
        let mut live = service
            .plan(&spec)
            .unwrap()
            .stream_with_rhs(&stream_seed, &bare_seed)
            .unwrap();
        // Interleave: the stream's updates run while the factor_many batch
        // is claimed panel by panel across the workers.
        let (reports, snap) = std::thread::scope(|s| {
            let streamer = s.spawn(|| {
                for u in &updates {
                    live.append_rows_with(u.as_ref(), bare_update.as_ref()).unwrap();
                }
                live.snapshot().unwrap()
            });
            let reports = service.factor_many(&spec, many.clone()).unwrap();
            (reports, streamer.join().unwrap())
        });
        for (got, expect) in reports.iter().zip(&ref_reports) {
            assert_eq!(
                got.q, expect.q,
                "factor_many Q must be bitwise sequential (workers={workers}, {runtime})"
            );
            assert_eq!(
                got.r, expect.r,
                "factor_many R must be bitwise sequential (workers={workers}, {runtime})"
            );
        }
        assert_eq!(
            snap.r.data(),
            ref_snap.r.data(),
            "stream R must be bitwise sequential under contention (workers={workers}, {runtime})"
        );
    }
}

#[test]
fn batch_order_is_submission_order_under_load() {
    let service = QrService::builder().workers(4).build();
    let spec = JobSpec::new(64, 8)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(4).unwrap());
    let batch: Vec<_> = (0..16).map(|s| input_for(&spec, s)).collect();
    // More jobs than queue slots: submissions block under backpressure
    // while earlier jobs drain, and every handle still resolves to its own
    // input's report.
    let handles: Vec<_> = batch
        .iter()
        .map(|a| service.submit(&spec, a.clone()).unwrap())
        .collect();
    let reports: Vec<_> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
    let plan = service.plan(&spec).unwrap();
    for (a, report) in batch.iter().zip(&reports) {
        let expect = plan.factor(a).unwrap();
        assert_eq!(
            report.q, expect.q,
            "batch reports must align with their inputs, in order"
        );
        assert_eq!(report.r, expect.r);
    }
}
