//! Edge-case coverage for the `QrService` scheduler — one bounded FIFO
//! that `factor_many` batches re-offer themselves to: empty batches,
//! shutdown semantics (`close`, handles outliving accepted work), zero-copy
//! submission, `factor_many`'s equivalence to the per-job path at every
//! pool width, and a batch's progress while the queue is held full.

use cacqr::service::{JobSpec, QrService, ServiceError};
use dense::random::well_conditioned;
use pargrid::GridShape;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn spec() -> JobSpec {
    JobSpec::new(64, 16).grid(GridShape::new(2, 2).unwrap())
}

#[test]
fn empty_batches_complete_without_touching_the_pool() {
    let service = QrService::builder().workers(1).build();
    let s = spec();
    assert!(service.factor_many(&s, Vec::new()).unwrap().is_empty());
    assert!(service.try_factor_many(&s, Vec::new()).unwrap().is_empty());
    // No work units were dispatched for the empty batches.
    assert_eq!(service.stats().completed, 0);
}

#[test]
fn close_fails_new_submissions_and_keeps_accepted_handles_redeemable() {
    let service = QrService::builder().workers(2).build();
    let s = spec();
    let accepted: Vec<_> = (0..4)
        .map(|seed| service.submit(&s, well_conditioned(64, 16, seed)).unwrap())
        .collect();
    service.close();
    // New traffic of every kind fails fast and typed.
    assert!(matches!(
        service.submit(&s, well_conditioned(64, 16, 9)).unwrap_err(),
        ServiceError::ShuttingDown
    ));
    assert!(matches!(
        service.factor_many(&s, vec![well_conditioned(64, 16, 9)]).unwrap_err(),
        ServiceError::ShuttingDown
    ));
    // Accepted work drains and stays redeemable after the close.
    for h in accepted {
        h.wait().unwrap();
    }
}

#[test]
fn submit_ref_fans_one_operand_out_bitwise_identically() {
    let service = QrService::builder().workers(4).build();
    let s = spec();
    let a = Arc::new(well_conditioned(64, 16, 42));
    let expect = service.plan(&s).unwrap().factor(&a).unwrap();
    let handles: Vec<_> = (0..16).map(|_| service.submit_ref(&s, &a).unwrap()).collect();
    for h in handles {
        let report = h.wait().unwrap();
        assert_eq!(report.q, expect.q, "shared-operand jobs factor bitwise identically");
        assert_eq!(report.r, expect.r);
    }
    drop(service);
    assert_eq!(Arc::strong_count(&a), 1, "the service releases every shared reference");
}

#[test]
fn factor_many_matches_the_per_job_path_at_every_width() {
    let s = spec();
    let batch: Vec<_> = (0..40).map(|seed| well_conditioned(64, 16, 100 + seed)).collect();
    let mut reference = None;
    for workers in [1usize, 2, 8] {
        let service = QrService::builder().workers(workers).build();
        // Twice on one pool: the first batch's spent re-offer may still be
        // queued when the second is admitted. A panel claimed twice, or a
        // spent re-offer that still did work, would overshoot the count.
        for round in 1..=2u64 {
            let via_many = service.factor_many(&s, batch.clone()).unwrap();
            assert_eq!(via_many.len(), batch.len());
            let stats = service.stats();
            assert_eq!(
                stats.completed,
                round * batch.len() as u64,
                "width {workers}: each panel counts toward throughput exactly once"
            );
            assert_eq!(stats.end_to_end.count, stats.completed);
            match &reference {
                None => reference = Some(via_many),
                Some(expect) => {
                    for (got, want) in via_many.iter().zip(expect) {
                        assert_eq!(got.q, want.q, "width {workers} must match width 1 bitwise");
                        assert_eq!(got.r, want.r);
                    }
                }
            }
        }
    }
}

#[test]
fn a_batch_runs_to_completion_while_the_queue_is_held_full() {
    let service = QrService::builder().workers(2).build();
    let s = spec();
    let batch: Vec<_> = (0..64).map(|seed| well_conditioned(64, 16, 200 + seed)).collect();
    let plan = service.plan(&s).unwrap();
    let expect: Vec<_> = batch.iter().map(|a| plan.factor(a).unwrap()).collect();
    let filler_input = Arc::new(well_conditioned(64, 16, 7));
    let batch_done = AtomicBool::new(false);
    let (accepted, got) = std::thread::scope(|scope| {
        // Refills every queue slot the workers free for as long as the
        // batch runs, blocking while the queue is full: every re-offer of
        // the batch then lands on a full queue, and must go through without
        // waiting for a slot the filler takes first.
        let filler = scope.spawn(|| {
            let mut accepted = Vec::new();
            while !batch_done.load(Ordering::SeqCst) {
                accepted.push(service.submit(&s, &filler_input).unwrap());
            }
            accepted
        });
        let got = service.factor_many(&s, batch);
        batch_done.store(true, Ordering::SeqCst);
        (filler.join().unwrap(), got.unwrap())
    });
    assert_eq!(got.len(), expect.len());
    for (got, want) in got.iter().zip(&expect) {
        assert_eq!(got.q, want.q, "a contended batch is still the sequential loop, bitwise");
        assert_eq!(got.r, want.r);
    }
    let singles = accepted.len() as u64;
    for h in accepted {
        h.wait().unwrap();
    }
    assert_eq!(service.stats().completed, 64 + singles);
}

#[test]
fn stats_expose_latency_quantiles_and_throughput() {
    let service = QrService::builder().workers(2).build();
    let s = spec();
    for seed in 0..8u64 {
        service
            .submit(&s, well_conditioned(64, 16, seed))
            .unwrap()
            .wait()
            .unwrap();
    }
    let stats = service.stats();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.end_to_end.count, 8);
    assert_eq!(stats.queue_wait.count, 8);
    assert_eq!(stats.execution.count, 8);
    assert!(stats.jobs_per_sec > 0.0);
    assert!(stats.end_to_end.p50 <= stats.end_to_end.p99);
    assert!(stats.end_to_end.p99 <= stats.end_to_end.max);
    // End-to-end covers execution: the p99 tail cannot undercut the
    // median kernel time.
    assert!(stats.end_to_end.p99 >= stats.execution.p50);
    assert!(stats.uptime.as_nanos() > 0);
}
