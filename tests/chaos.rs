//! Chaos suite: deterministic fault injection against the full stack.
//!
//! Every test installs a seeded [`FaultPlan`] (the same machinery the
//! `CACQR_FAULTS` environment schedule drives), runs real work under a
//! watchdog, and asserts the robustness contract:
//!
//! * **No hangs.** Each body runs under a hard watchdog; a deadlocked pool
//!   or wedged queue fails the test instead of wedging CI.
//! * **Typed or recovered.** Every injected fault either surfaces as a
//!   typed error (`WorkerPanicked`, `NotPositiveDefinite`) or is absorbed
//!   by a successful escalated retry — never a crash, never silence.
//! * **Bitwise recovery.** Delay-kind schedules perturb interleavings at
//!   pool widths 1/2/8 on both runtimes; results must remain bitwise
//!   identical to a fault-free sequential replay.
//!
//! The fault state is process-global, so every test serializes on one
//! mutex and restores the disabled state before releasing it.

use cacqr::service::{JobSpec, QrService, ServiceError};
use cacqr::{Algorithm, QrPlan, RetryPolicy};
use dense::fault::{self, FaultPlan};
use dense::random::well_conditioned;
use pargrid::GridShape;
use simgrid::RuntimeKind;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Mutex;
use std::time::Duration;

/// Generous per-test budget: the suite's work completes in seconds; only a
/// genuine hang (a wedged queue, a deadlocked collective) reaches it.
const WATCHDOG: Duration = Duration::from_secs(120);

/// The two CI chaos schedules (`.github/workflows/ci.yml` must stay in
/// sync). Delay-only sites: the service suites that run under them expect
/// every job to succeed, so the schedules perturb timing, not results.
const CI_SCHEDULES: [&str; 2] = [
    "seed=11;delay_us=40;collective=0.03;dequeue=0.05;arena=0.03",
    "seed=29;delay_us=120;collective=0.08;dequeue=0.12;arena=0.05",
];

static FAULT_STATE: Mutex<()> = Mutex::new(());

/// Run `body` on its own thread with `plan` installed, failing loudly if it
/// neither finishes nor panics within [`WATCHDOG`]. Serializes on the
/// process-global fault state and always restores the disabled state.
fn with_faults<T: Send + 'static>(plan: Option<FaultPlan>, body: impl FnOnce() -> T + Send + 'static) -> T {
    let guard = FAULT_STATE.lock().unwrap_or_else(|e| e.into_inner());
    fault::install(plan);
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    let out = match rx.recv_timeout(WATCHDOG) {
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
    };
    fault::install(None);
    drop(guard);
    out
}

fn ca_spec() -> JobSpec {
    JobSpec::new(64, 16).grid(GridShape::new(2, 4).unwrap())
}

/// Delay-kind faults stall workers mid-dequeue, ranks mid-collective, and
/// arena checkouts — reshuffling every interleaving the scheduler would
/// otherwise produce — while factors stay bitwise equal to a fault-free
/// width-1 replay, at every pool width, on both runtimes, for two seeds.
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
        let mut s = plan.stream(&initial).unwrap().with_drift_threshold(f64::INFINITY);
        s.downdate_rows(oldest.as_ref()).unwrap();
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
/// serving once the schedule is lifted.
#[test]
fn injected_worker_panics_stay_isolated_and_the_pool_survives() {
    with_faults(Some(FaultPlan::new(3).site(fault::WORKER, 1.0)), || {
        let spec = ca_spec();
        let service = QrService::builder().workers(2).build();
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

        // Batched panels pass the same fault site, one injection per panel:
        // every index comes back `WorkerPanicked`, none is skipped.
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

        // Lift the schedule: the panicked-through workers are still alive.
        fault::install(None);
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

/// The CI chaos schedules stay parseable and delay-only: the service
/// suites they wrap expect every job to succeed, so an error-kind site
/// creeping into `ci.yml` must fail here first.
#[test]
fn ci_schedules_parse_and_are_delay_only() {
    for spec in CI_SCHEDULES {
        let plan = FaultPlan::parse(spec).unwrap_or_else(|e| panic!("CI schedule {spec:?}: {e}"));
        let probe = |site: &str| {
            let _guard = FAULT_STATE.lock().unwrap_or_else(|e| e.into_inner());
            fault::install(Some(plan.clone()));
            let fired = (0..512).filter(|_| fault::should_fire(site)).count();
            fault::install(None);
            fired
        };
        for error_site in [fault::CHOLESKY, fault::WORKER] {
            assert_eq!(
                probe(error_site),
                0,
                "CI schedule {spec:?} must not arm error site `{error_site}`"
            );
        }
        assert!(
            probe(fault::DEQUEUE) > 0,
            "CI schedule {spec:?} should actually perturb dequeues"
        );
    }
}
