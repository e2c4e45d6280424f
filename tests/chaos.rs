//! Chaos suite: deterministic fault injection against the full stack.
//!
//! Every test arms its own thread with a seeded [`FaultPlan`]
//! ([`fault::with_plan`]): the rank threads and service workers that run the
//! work it starts carry the same schedule, and no other thread sees it, so
//! the tests run in parallel with no lock. Each runs real work under a
//! watchdog and asserts the robustness contract:
//!
//! * **No hangs.** Each body runs under a hard watchdog; a deadlocked pool
//!   or wedged queue fails the test instead of wedging CI.
//! * **Typed or recovered.** Every injected fault either surfaces as a
//!   typed error (`WorkerPanicked`, `NotPositiveDefinite`) or is absorbed
//!   by a successful escalated retry — never a crash, never silence.
//! * **Bitwise recovery.** Delay-kind schedules perturb interleavings at
//!   pool widths 1/2/8 on both rank placements; results must remain bitwise
//!   identical to a fault-free run.
//! * **Confinement.** A schedule reaches only the work of the thread armed
//!   with it.

mod common;

use cacqr::service::{JobSpec, QrService, ServiceError};
use cacqr::{Algorithm, QrPlan, QrReport, RetryPolicy};
use common::{input_for, mixed_specs};
use dense::fault::{self, FaultPlan};
use dense::random::{gaussian_matrix, matrix_with_condition, well_conditioned};
use dense::Matrix;
use pargrid::GridShape;
use simgrid::RuntimeKind;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Generous per-test budget: the suite's work completes in seconds; only a
/// genuine hang (a wedged queue, a deadlocked collective) reaches it.
const WATCHDOG: Duration = Duration::from_secs(120);

/// The two seeded delay-only schedules, light and heavy, that
/// [`ci_schedules_leave_service_stream_and_escalation_bitwise_intact`] runs
/// under. Delay-only: that test expects every result bitwise fault-free, so
/// the schedules perturb timing, not results.
fn ci_schedules() -> [FaultPlan; 2] {
    [
        FaultPlan::new(11)
            .delay(Duration::from_micros(40))
            .site(fault::COLLECTIVE, 0.03)
            .site(fault::DEQUEUE, 0.05)
            .site(fault::ARENA, 0.03),
        FaultPlan::new(29)
            .delay(Duration::from_micros(120))
            .site(fault::COLLECTIVE, 0.08)
            .site(fault::DEQUEUE, 0.12)
            .site(fault::ARENA, 0.05),
    ]
}

/// Run `body` on its own thread, armed with `plan` when there is one,
/// failing loudly if it neither finishes nor panics within [`WATCHDOG`].
fn with_faults<T: Send + 'static>(plan: Option<FaultPlan>, body: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let out = match plan {
            Some(plan) => fault::with_plan(plan, body),
            None => body(),
        };
        let _ = tx.send(out);
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(value) => {
            worker.join().expect("body already sent its result");
            value
        }
        Err(RecvTimeoutError::Disconnected) => match worker.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("sender dropped without panicking or sending"),
        },
        Err(RecvTimeoutError::Timeout) => {
            // Leak the stuck thread: joining it would hang the harness too.
            panic!("chaos watchdog expired after {WATCHDOG:?}: probable hang or deadlock");
        }
    }
}

fn ca_spec() -> JobSpec {
    JobSpec::new(64, 16).grid(GridShape::new(2, 4).unwrap())
}

/// Delay-kind faults stall workers mid-dequeue, ranks mid-collective, and
/// arena checkouts — reshuffling every interleaving the scheduler would
/// otherwise produce — while factors stay bitwise equal to a fault-free
/// width-1 replay, at every pool width, on both rank placements, for two
/// seeds.
#[test]
fn delay_schedules_replay_bitwise_identically_across_pool_widths() {
    for runtime in [RuntimeKind::Simulated, RuntimeKind::SharedMem] {
        let spec = ca_spec();
        let batch: Vec<_> = (0..10).map(|s| well_conditioned(64, 16, 500 + s)).collect();

        let reference = with_faults(None, {
            let (spec, batch) = (spec, batch.clone());
            move || {
                let service = QrService::builder().workers(1).runtime(runtime).build();
                service.factor_many(&spec, batch).expect("fault-free replay")
            }
        });

        for seed in [11u64, 23] {
            let plan = FaultPlan::new(seed)
                .site(fault::COLLECTIVE, 0.10)
                .site(fault::DEQUEUE, 0.25)
                .site(fault::ARENA, 0.10)
                .delay(Duration::from_micros(50));
            let reports = with_faults(Some(plan), {
                let (spec, batch) = (spec, batch.clone());
                move || {
                    let mut all = Vec::new();
                    for workers in [1usize, 2, 8] {
                        let service = QrService::builder().workers(workers).runtime(runtime).build();
                        all.push((
                            workers,
                            service
                                .factor_many(&spec, batch.clone())
                                .expect("delays never fail jobs"),
                        ));
                    }
                    assert!(
                        fault::injected_total() > 0,
                        "the schedule must actually fire (seed {seed}, {runtime:?})"
                    );
                    all
                }
            });
            for (workers, got) in &reports {
                for (g, want) in got.iter().zip(&reference) {
                    assert_eq!(
                        g.r, want.r,
                        "R must be bitwise fault-free (seed {seed}, workers {workers}, {runtime:?})"
                    );
                    assert_eq!(
                        g.q, want.q,
                        "Q must be bitwise fault-free (seed {seed}, workers {workers}, {runtime:?})"
                    );
                }
            }
        }
    }
}

/// An injected Cholesky breakdown (rate 1.0: *every* Gram rung fails) is
/// indistinguishable from a genuine loss of positive definiteness. A
/// retry-enabled stream refresh walks the plan's ladder, on one rank at
/// this row count, past both Gram-based rungs and recovers on Householder;
/// a policy-less stream surfaces the same injection as a typed error.
#[test]
fn injected_cholesky_breakdown_escalates_or_surfaces_typed() {
    // Streams are built (and shrunk below the plan's `m`, so a refresh
    // re-factors on the *sequential* path) before the schedule lands:
    // seeding and downdating run factorizations of their own, and this
    // test is about the refresh ladder.
    let initial = well_conditioned(64, 16, 9);
    let oldest = dense::Matrix::from_view(initial.view(0, 0, 16, 16));
    let make_stream = |retry: RetryPolicy| {
        let plan = QrPlan::new(64, 16)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(4).unwrap())
            .retry(retry)
            .build()
            .unwrap();
        let bare = dense::Matrix::zeros(64, 0);
        let mut s = plan
            .stream_with_rhs(&initial, &bare)
            .unwrap()
            .with_drift_threshold(f64::INFINITY);
        s.downdate_rows_with(oldest.as_ref(), bare.view(0, 0, 16, 0)).unwrap();
        s
    };
    let mut rescued = make_stream(RetryPolicy::escalate());
    let mut parked = make_stream(RetryPolicy::none());

    with_faults(Some(FaultPlan::new(5).site(fault::CHOLESKY, 1.0)), move || {
        rescued
            .refresh()
            .expect("the Householder rung has no Cholesky to break");
        assert_eq!(rescued.drift(), 0.0, "an escalated refresh still resets drift");
        assert!(rescued.last_refresh_error().is_none());
        assert!(
            fault::injected(fault::CHOLESKY) >= 2,
            "both Gram rungs must have hit the injected pivot"
        );

        let err = parked.refresh().expect_err("no policy, no ladder");
        assert!(
            matches!(err, cacqr::PlanError::NotPositiveDefinite { .. }),
            "injected breakdown must surface as the genuine typed error, got {err}"
        );
        assert!(parked.last_refresh_error().is_some());
    });
}

/// The injected breakdown fires before every Gram rung and never before
/// the Householder one, which has no Cholesky: at rate 1.0 an escalating
/// `factor` is accepted on `Pgeqrf` after exactly one injection per Gram
/// rung below it.
#[test]
fn injected_cholesky_breakdown_ends_factor_on_the_householder_rung() {
    let plan = QrPlan::new(64, 16)
        .grid(GridShape::new(2, 2).unwrap())
        .retry(RetryPolicy::escalate())
        .build()
        .unwrap();
    let a = well_conditioned(64, 16, 7);
    with_faults(Some(FaultPlan::new(7).site(fault::CHOLESKY, 1.0)), move || {
        let report = plan.factor(&a).expect("the Householder rung has no Cholesky to break");
        let esc = report.escalation.as_ref().expect("an enabled policy records its walk");
        let chain: Vec<Algorithm> = esc.attempts.iter().map(|at| at.algorithm).collect();
        assert_eq!(chain, [Algorithm::CaCqr2, Algorithm::CaCqr3, Algorithm::Pgeqrf]);
        for at in &esc.attempts[..2] {
            assert!(
                matches!(at.error.as_deref(), Some(cacqr::PlanError::NotPositiveDefinite(_))),
                "{}: {:?}",
                at.algorithm,
                at.error
            );
        }
        assert_eq!(fault::injected(fault::CHOLESKY), 2, "one injection per Gram rung");
        assert!(report.orthogonality_error < 1e-12);
    });
}

/// Worker panic isolation, with no test-only wiring: a `worker`-site fault
/// panics inside the pool's `catch_unwind` boundary on the exact release
/// code path, the submitter gets the typed error, and the same pool keeps
/// serving the jobs its submitter sends once it is unarmed.
#[test]
fn injected_worker_panics_stay_isolated_and_the_pool_survives() {
    with_faults(None, || {
        let spec = ca_spec();
        let service = QrService::builder().workers(2).build();
        fault::with_plan(FaultPlan::new(3).site(fault::WORKER, 1.0), || {
            let err = service
                .submit(&spec, well_conditioned(64, 16, 1))
                .expect("accepting")
                .wait()
                .expect_err("a rate-1.0 worker fault panics every factor job");
            match err {
                ServiceError::WorkerPanicked { message } => {
                    assert!(
                        message.contains("injected worker fault"),
                        "panic payload must name the injection, got {message:?}"
                    );
                }
                other => panic!("expected WorkerPanicked, got {other}"),
            }
            assert!(fault::injected(fault::WORKER) >= 1);

            // Batched panels pass the same fault site, one injection per
            // panel: every index comes back `WorkerPanicked`, none is skipped.
            let before = fault::injected(fault::WORKER);
            let panels: Vec<_> = (0..6).map(|s| well_conditioned(64, 16, 10 + s)).collect();
            let outcomes = service.try_factor_many(&spec, panels).expect("admitted");
            assert_eq!(outcomes.len(), 6);
            for (index, outcome) in outcomes.iter().enumerate() {
                assert!(
                    matches!(outcome, Err(ServiceError::WorkerPanicked { .. })),
                    "panel {index} must hit the worker fault, got {outcome:?}"
                );
            }
            assert!(fault::injected(fault::WORKER) - before >= 6);
        });

        // Unarmed again: the panicked-through workers are still alive, and
        // the jobs this thread submits now carry no schedule.
        let report = service
            .submit(&spec, well_conditioned(64, 16, 2))
            .expect("accepting")
            .wait()
            .expect("the pool must survive isolated panics");
        assert!(report.orthogonality_error < 1e-12);
        let served = service
            .factor_many(&spec, vec![well_conditioned(64, 16, 3), well_conditioned(64, 16, 4)])
            .expect("batches are served normally once the plan is lifted");
        assert_eq!(served.len(), 2);
    });
}

/// The CI schedules are delay-only: the traffic they wrap expects every
/// result bitwise fault-free, so an error-kind site creeping into one must
/// fail here first.
#[test]
fn ci_schedules_are_delay_only() {
    for plan in ci_schedules() {
        let probe =
            |site: &str| fault::with_plan(plan.clone(), || (0..512).filter(|_| fault::should_fire(site)).count());
        for error_site in [fault::CHOLESKY, fault::WORKER] {
            assert_eq!(probe(error_site), 0, "{plan:?} must not arm error site `{error_site}`");
        }
        for delay_site in [fault::COLLECTIVE, fault::DEQUEUE, fault::ARENA] {
            assert!(probe(delay_site) > 0, "{plan:?} should actually perturb `{delay_site}`");
        }
    }
}

/// The factors of one report, and the rungs its ladder walked.
type Factors = (Matrix, Matrix, Vec<Algorithm>);

fn factors(report: &QrReport) -> Factors {
    let rungs = report
        .escalation
        .iter()
        .flat_map(|esc| esc.attempts.iter().map(|at| at.algorithm));
    (report.q.clone(), report.r.clone(), rungs.collect())
}

/// Runs `body` and checks that the calling thread's schedule reached the
/// rank threads of the regions it ran: the `collective` delay fired.
fn reaching_ranks<T>(what: &str, body: impl FnOnce() -> T) -> T {
    let before = fault::injected(fault::COLLECTIVE);
    let out = body();
    assert!(
        fault::injected(fault::COLLECTIVE) > before,
        "{what}: no collective delay fired"
    );
    out
}

/// The mixed-spec batches, each followed by a single job of its spec,
/// through pools of widths 1, 2 and 8. (The lone worker pops each batch
/// once, so the single jobs are what carry it to the light schedule's first
/// `dequeue` draw, its 11th pop.)
fn service_batches() -> Vec<Factors> {
    let mut out = Vec::new();
    for workers in [1usize, 2, 8] {
        let service = QrService::builder().workers(workers).build();
        for (i, spec) in mixed_specs().iter().enumerate() {
            let batch = (0..4).map(|s| input_for(spec, 100 * i as u64 + s)).collect();
            let reports = service.factor_many(spec, batch).expect("delays never fail jobs");
            out.extend(reports.iter().map(factors));
            let single = service.submit(spec, input_for(spec, 100 * i as u64 + 4)).unwrap();
            out.push(factors(&single.wait().expect("delays never fail jobs")));
        }
    }
    out
}

/// A sliding window on a `StreamingQr` with a right-hand side: eight steps
/// of append 8 rows, downdate the oldest 8 and solve, then a refresh on the
/// plan's 2 × 4 grid and a last solve.
fn stream_window() -> Vec<Matrix> {
    let (m, n, k) = (64usize, 16usize, 8usize);
    let plan = QrPlan::new(m, n).grid(GridShape::new(2, 4).unwrap()).build().unwrap();
    let (a0, b0) = (well_conditioned(m, n, 61), gaussian_matrix(m, 1, 62));
    let mut stream = plan.stream_with_rhs(&a0, &b0).unwrap();
    let mut window: std::collections::VecDeque<(Matrix, Matrix)> = (0..m / k)
        .map(|i| {
            let rows = |x: &Matrix| Matrix::from_view(x.view(i * k, 0, k, x.cols()));
            (rows(&a0), rows(&b0))
        })
        .collect();
    let mut out = Vec::new();
    for step in 0..8 {
        let (a, b) = (gaussian_matrix(k, n, 70 + step), gaussian_matrix(k, 1, 80 + step));
        stream.append_rows_with(a.as_ref(), b.as_ref()).unwrap();
        window.push_back((a, b));
        let (old_a, old_b) = window.pop_front().unwrap();
        stream.downdate_rows_with(old_a.as_ref(), old_b.as_ref()).unwrap();
        out.push(stream.solve().unwrap());
    }
    stream.refresh().unwrap();
    out.push(stream.r().clone());
    out.push(stream.solve().unwrap());
    out
}

/// A κ = 1e10 panel factored under an escalating policy: plain CA-CQR2
/// breaks down, and the ladder walks on.
fn escalating_factor() -> Factors {
    let plan = QrPlan::new(64, 16)
        .grid(GridShape::new(2, 4).unwrap())
        .retry(RetryPolicy::escalate())
        .build()
        .unwrap();
    let report = plan.factor(&matrix_with_condition(64, 16, 1e10, 43)).unwrap();
    let esc = report.escalation.as_ref().expect("an enabled policy records its walk");
    assert!(esc.escalated(), "κ = 1e10 must escalate past CA-CQR2");
    factors(&report)
}

/// Under each CI schedule, armed on its own thread: the mixed-spec batches
/// at pool widths 1/2/8, a sliding stream window (append, downdate, solve,
/// refresh) and an escalating κ = 1e10 factor each come out bitwise equal
/// to a fault-free run. Each run's rank threads were delayed, and the
/// schedule fired at every delay site: `collective`, `dequeue` and `arena`.
/// (A rank thread lives for one region and takes two or three arenas, so
/// the light schedule, whose arena draw first fires on a thread's 78th
/// visit, stalls arenas only on threads that live across many: the
/// workers and the stream's caller.)
#[test]
fn ci_schedules_leave_service_stream_and_escalation_bitwise_intact() {
    let reference = with_faults(None, || (service_batches(), stream_window(), escalating_factor()));
    for plan in ci_schedules() {
        let label = format!("{plan:?}");
        let (got, fired) = with_faults(Some(plan), || {
            let got = (
                reaching_ranks("service batches", service_batches),
                reaching_ranks("stream window", stream_window),
                reaching_ranks("escalating factor", escalating_factor),
            );
            (
                got,
                [fault::COLLECTIVE, fault::DEQUEUE, fault::ARENA].map(fault::injected),
            )
        });
        assert!(
            got.0 == reference.0,
            "service batches must be bitwise fault-free under {label}"
        );
        assert!(
            got.1 == reference.1,
            "the stream window must be bitwise fault-free under {label}"
        );
        assert!(
            got.2 == reference.2,
            "the escalated factor must be bitwise fault-free under {label}"
        );
        assert!(
            fired.iter().all(|&n| n > 0),
            "[collective, dequeue, arena] fired {fired:?} times under {label}"
        );
    }
}

/// A schedule is armed on a thread, not on the process: while one thread
/// armed with `cholesky = 1.0` escalates every factor to Householder, a
/// thread factoring the same plan at the same time sees no injection and
/// no escalation.
#[test]
fn a_schedule_armed_on_one_thread_leaves_a_concurrent_thread_untouched() {
    const ROUNDS: usize = 8;
    with_faults(None, || {
        let plan = Arc::new(
            QrPlan::new(64, 16)
                .grid(GridShape::new(2, 2).unwrap())
                .retry(RetryPolicy::escalate())
                .build()
                .unwrap(),
        );
        let a = Arc::new(well_conditioned(64, 16, 7));
        let start = Arc::new(Barrier::new(2));
        let factor_rounds = {
            let (plan, a, start) = (Arc::clone(&plan), Arc::clone(&a), Arc::clone(&start));
            move || {
                start.wait();
                let rungs = (0..ROUNDS)
                    .map(|_| factors(&plan.factor(&a).unwrap()).2)
                    .collect::<Vec<_>>();
                (rungs, fault::injected_total())
            }
        };
        let armed = std::thread::spawn({
            let factor_rounds = factor_rounds.clone();
            move || fault::with_plan(FaultPlan::new(7).site(fault::CHOLESKY, 1.0), factor_rounds)
        });
        let bystander = std::thread::spawn(factor_rounds);
        let (armed_rungs, armed_injected) = armed.join().unwrap();
        let (bystander_rungs, bystander_injected) = bystander.join().unwrap();
        let walked = [Algorithm::CaCqr2, Algorithm::CaCqr3, Algorithm::Pgeqrf];
        assert!(armed_rungs.iter().all(|r| r == &walked), "{armed_rungs:?}");
        assert_eq!(armed_injected, 2 * ROUNDS as u64, "one injection per Gram rung");
        assert!(
            bystander_rungs.iter().all(|r| r == &[Algorithm::CaCqr2]),
            "{bystander_rungs:?}"
        );
        assert_eq!(bystander_injected, 0, "the unarmed thread sees no injection");
    });
}
