//! Batch serving: one `QrService` factoring a mixed stream of tall-skinny
//! panels concurrently — plan cache, one bounded FIFO under the workers,
//! zero-copy submission (`submit_ref` / `factor_many`), bounded-queue
//! backpressure, and live latency stats.
//!
//! Run: `cargo run --release --example batch_service`
//!
//! Each worker is one thread and runs its jobs' kernels on that thread.

use ca_cqr2::baseline::BlockCyclic;
use ca_cqr2::dense::random::well_conditioned;
use ca_cqr2::pargrid::GridShape;
use ca_cqr2::simgrid::Machine;
use ca_cqr2::{Algorithm, JobSpec, QrService, ServiceError};
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), ServiceError> {
    // ---- One engine for the whole process. --------------------------------
    //
    // Four worker threads, a bounded queue of 8 (two per worker) in-flight
    // jobs, every job charged under the simulated Stampede2-like machine.
    let service = QrService::builder().workers(4).machine(Machine::stampede2(64)).build();
    println!(
        "QrService: {} workers, queue capacity {}",
        service.workers(),
        service.queue_capacity()
    );

    // ---- Batch path: many same-shape matrices, one spec. ------------------
    //
    // One plan, built and cached once, factors all 32; the batch is one
    // dispatched job whose panels the workers claim one at a time.
    let spec = JobSpec::new(512, 32)
        .algorithm(Algorithm::CaCqr2)
        .grid(GridShape::new(2, 8)?);
    let batch: Vec<_> = (0..32).map(|seed| well_conditioned(512, 32, seed)).collect();
    let t0 = Instant::now();
    let reports = service.factor_many(&spec, batch)?;
    let dt = t0.elapsed().as_secs_f64();
    let worst = reports.iter().map(|r| r.orthogonality_error).fold(0.0, f64::max);
    println!(
        "batch of {}: {:.3} s wall ({:.1} factorizations/s), worst orthogonality {:.3e}",
        reports.len(),
        dt,
        reports.len() as f64 / dt,
        worst
    );

    // ---- Mixed stream: ragged shapes and algorithms, submit/wait. ---------
    //
    // Each distinct spec gets its own cached plan; repeat shapes are cache
    // hits. `submit` returns a handle immediately (blocking only when the
    // bounded queue is full), so callers overlap their own work with the
    // pool's.
    let mixed = [
        JobSpec::new(256, 16).grid(GridShape::new(2, 4)?),
        JobSpec::new(128, 8)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(4)?),
        JobSpec::new(256, 16)
            .algorithm(Algorithm::CaCqr3)
            .grid(GridShape::new(2, 4)?),
        JobSpec::new(128, 16)
            .algorithm(Algorithm::Pgeqrf)
            .block_cyclic(BlockCyclic { pr: 4, pc: 2, nb: 8 }),
    ];
    let handles: Vec<_> = (0..16)
        .map(|i| {
            let spec = mixed[i % mixed.len()];
            let a = well_conditioned(spec.m(), spec.n(), 1000 + i as u64);
            service.submit(&spec, a)
        })
        .collect::<Result<_, _>>()?;
    println!("\nmixed stream of {} jobs across {} specs:", handles.len(), mixed.len());
    for (i, handle) in handles.into_iter().enumerate() {
        let report = handle.wait()?;
        if i < mixed.len() {
            println!(
                "  {:<8} {}x{:<3} simulated {:>8.3} ms, residual {:.3e}",
                report.algorithm.to_string(),
                report.q.rows(),
                report.q.cols(),
                report.elapsed * 1e3,
                report.residual_error
            );
        }
    }
    println!(
        "plans cached: {} (one per distinct spec; repeat shapes never rebuilt)",
        service.plan_cache_len()
    );

    // ---- Zero-copy fan-out: one operand, many jobs, no clones. ------------
    //
    // `submit_ref` hands workers a shared reference; re-submitting the same
    // panel 8 times copies nothing. `factor_many` goes further for
    // same-shape fleets: the whole vector rides one queue push and the
    // workers share it out between themselves from one cursor.
    let tiny = JobSpec::new(128, 8)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(4)?);
    let shared = Arc::new(well_conditioned(128, 8, 77));
    let refs: Vec<_> = (0..8)
        .map(|_| service.submit_ref(&tiny, &shared))
        .collect::<Result<_, _>>()?;
    for handle in refs {
        handle.wait()?;
    }
    let fleet: Vec<_> = (0..64).map(|seed| well_conditioned(128, 8, 2000 + seed)).collect();
    let t1 = Instant::now();
    let many = service.factor_many(&tiny, fleet)?;
    println!(
        "\nzero-copy: 8 submit_ref jobs off one Arc'd panel, then factor_many \
         of {} panels in one dispatch ({:.3} s)",
        many.len(),
        t1.elapsed().as_secs_f64()
    );

    // ---- Serving health, from the lock-free recorder. ---------------------
    let stats = service.stats();
    println!(
        "stats: {} jobs, {:.0} jobs/s | e2e p50 {:?} p99 {:?} | queue-wait p99 {:?} | exec p50 {:?}",
        stats.completed,
        stats.jobs_per_sec,
        stats.end_to_end.p50,
        stats.end_to_end.p99,
        stats.queue_wait.p99,
        stats.execution.p50,
    );

    // Errors stay typed end to end: a shape mismatch is refused at submit.
    let err = service.submit(&spec, well_conditioned(64, 32, 0)).unwrap_err();
    println!("\na bad submission is a typed error: {err}");

    // And shutdown is typed too: after close(), accepted work drains but
    // new traffic fails fast instead of blocking on a dead pool.
    service.close();
    let err = service.submit(&tiny, well_conditioned(128, 8, 1)).unwrap_err();
    println!("after close(): {err}");
    Ok(())
}
