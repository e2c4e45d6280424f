//! What a workload is, and the closed measured loop that drives one.

use crate::metrics::Metrics;
use crate::trace::{SpanId, Tracer};
use cacqr::Algorithm;
use pargrid::GridShape;
use simgrid::RuntimeKind;
use std::time::Instant;

/// Accuracy every factor must meet, and the looser bound for a job that was
/// accepted on an escalation rung (a κ = 1e10 input through shifted CQR3 or
/// Householder) and for a stream snapshot (one CholeskyQR repair pass).
pub const FACTOR_TOL: f64 = 1e-12;
pub const ESCALATED_TOL: f64 = 1e-10;

/// True when an error measure meets its tolerance; a NaN never does.
pub fn within(error: f64, tol: f64) -> bool {
    error <= tol
}

/// The factorization a workload is built around — what its ops factor
/// directly, or what its plans and refreshes factor underneath. The shape-
/// dependent per-layer rows (staged replay, PGEQRF baseline, plain
/// Householder run, cost-model prediction) are measured at this shape.
#[derive(Clone, Copy)]
pub struct Headline {
    pub m: usize,
    pub n: usize,
    pub algorithm: Algorithm,
    pub grid: GridShape,
    pub runtime: RuntimeKind,
}

/// What one measured segment accumulates: a latency per completed op, the
/// failed ops, and (traced segments only) the spans.
pub struct Run {
    pub latencies: Vec<f64>,
    pub failed: usize,
    pub first_failure: Option<String>,
    pub tracer: Option<Tracer>,
}

impl Run {
    pub fn new(tracer: Option<Tracer>) -> Run {
        Run {
            latencies: Vec::with_capacity(1 << 16),
            failed: 0,
            first_failure: None,
            tracer,
        }
    }

    /// Counts one failed op; the first reason is kept for the report.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Adds another segment's ops and failures to this one's.
    pub fn absorb(&mut self, other: Run) {
        self.latencies.extend(other.latencies);
        self.failed += other.failed;
        self.first_failure = self.first_failure.take().or(other.first_failure);
    }

    /// Counts a failed op unless `check` passed.
    pub fn check(&mut self, check: Result<(), String>) {
        if let Err(why) = check {
            self.fail(why);
        }
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: usize) -> SpanId {
        self.tracer.as_mut().map_or(0, |t| t.begin(name, parent, op))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(t) = self.tracer.as_mut() {
            t.end(id);
        }
    }

    pub fn span<R>(&mut self, name: &'static str, parent: SpanId, op: usize, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, Some(parent), op);
        let out = f();
        self.end(id);
        out
    }
}

/// One of the four workloads, set up and warm. Ops are issued one at a time
/// by [`measure`]; the workload owns its position in its seeded schedule, so
/// consecutive segments continue where the previous one stopped.
pub trait Workload {
    /// Ops per round of the schedule. A segment always runs whole rounds, so
    /// the op mix — and every per-op count — is the same in every segment.
    fn round(&self) -> usize;

    /// Issues the next op and records every op that completed meanwhile
    /// (exactly one, except under the service workload's window).
    fn step(&mut self, run: &mut Run);

    /// Retires ops still outstanding at the end of a segment.
    fn drain(&mut self, _run: &mut Run) {}

    /// Whole-run checks after the last segment (each miss is a failed op).
    fn finish(&mut self, _run: &mut Run) {}

    fn headline(&self) -> Headline;

    /// Inputs of the headline shape for the staged replay to rotate over,
    /// as the workload's own ops do.
    fn headline_inputs(&self) -> Vec<dense::Matrix>;

    /// Human-readable facts for the report: digest of the first op's `R`,
    /// credited flops per op, exact counts.
    fn describe(&self) -> Vec<String>;

    /// The per-layer metrics only this workload can measure, from the spans
    /// of its traced rounds.
    fn layer_metrics(&self, tracer: &Tracer, metrics: &mut Metrics) -> Result<(), String>;
}

/// The closed loop: whole rounds of ops, each starting when the previous one
/// returned, until `seconds` have passed at a round boundary (so zero seconds
/// is exactly one round). Latencies, failures and spans accumulate in `run`;
/// returns the wall seconds spent.
pub fn measure(workload: &mut dyn Workload, seconds: f64, run: &mut Run) -> f64 {
    let start = Instant::now();
    loop {
        for _ in 0..workload.round() {
            workload.step(run);
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    workload.drain(run);
    start.elapsed().as_secs_f64()
}
