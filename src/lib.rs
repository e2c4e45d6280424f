//! # ca-cqr2 — Communication-Avoiding CholeskyQR2 for Rectangular Matrices
//!
//! Umbrella crate for the reproduction of Hutter & Solomonik,
//! *"Communication-avoiding CholeskyQR2 for rectangular matrices"*
//! (IPDPS 2019).
//!
//! ## The front door: [`QrPlan`]
//!
//! Every QR variant in the workspace — 1D-CQR2, CA-CQR2, shifted CA-CQR3,
//! and the ScaLAPACK-`PGEQRF`-like baseline — runs through one typed,
//! validated facade with a plan/execute split: build a [`QrPlan`] once,
//! then [`factor`](QrPlan::factor) any number of same-shape matrices, each
//! returning a unified [`QrReport`] (global `Q`/`R`, simulated time,
//! per-rank cost ledgers, numerical diagnostics).
//!
//! ```
//! use ca_cqr2::{Algorithm, QrPlan};
//! use ca_cqr2::pargrid::GridShape;
//! use ca_cqr2::simgrid::Machine;
//!
//! let a = ca_cqr2::dense::random::well_conditioned(64, 16, 1);
//! let plan = QrPlan::new(64, 16)
//!     .algorithm(Algorithm::CaCqr2)
//!     .grid(GridShape::new(2, 4)?)
//!     .machine(Machine::stampede2(64))
//!     .build()?;
//! let report = plan.factor(&a)?;
//! assert!(report.orthogonality_error < 1e-12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See [`cacqr::driver`] for the full plan/execute story and the layering
//! guide (facade vs expert vs SPMD layer).
//!
//! ## Batch serving: [`QrService`]
//!
//! For throughput workloads — many matrices, many submitting threads — the
//! [`QrService`] engine sits on top of the facade: it caches plans per
//! [`JobSpec`] (repeat shapes never revalidate), factors jobs concurrently
//! on a bounded-queue worker pool, one thread per worker, each running its
//! jobs' kernels on its own thread. See [`cacqr::service`] and
//! `examples/batch_service.rs`.
//!
//! ## Streaming updates: [`StreamingQr`]
//!
//! For row sets that change over time, [`QrPlan::stream_with_rhs`] opens a
//! live factor, with a least-squares right-hand-side track of any width
//! (zero included), that absorbs rank-k row appends and downdates in
//! `O(kn² + n³)` — independent of how many rows are already folded in, at
//! any delta width — with a tracked drift bound that is the only automatic trigger of a full
//! CholeskyQR2 refresh through the owning plan. The caller owns the
//! stream: a `StreamingQr` is `Send`, so several threads share one behind
//! a `Mutex` (a map of them, keyed by name, serves many). See
//! [`cacqr::stream`] and `examples/online_lsq.rs`.
//!
//! ## Robustness: escalation, deadlines, fault injection
//!
//! Breakdown on ill-conditioned input is a normal event for the CQR2
//! family (it squares κ before the Cholesky). [`RetryPolicy::escalate`]
//! escalates failed factorizations up a stability ladder (CQR2 → shifted
//! CQR3 → Householder), accepting each rung inside the κ range its own
//! stability proof covers — CQR2 up to `RetryPolicy::KAPPA_MAX`, shifted
//! CQR3 up to `KAPPA_MAX² / (64·(mn + n(n+1)))`, Householder always — and
//! records the walk in a [`QrReport::escalation`] chain; a stream's refresh
//! walks the same ladder at any row count. [`SubmitOptions`] adds
//! per-job deadlines, cancellation, and load-shedding admission control to
//! the service; and `dense::fault` provides the deterministic chaos
//! injection `tests/chaos.rs` drives: `fault::with_plan(plan, body)` arms
//! the calling thread with a seeded `FaultPlan`, and the rank threads and
//! service workers running the work `body` starts carry the same schedule.
//! The library reads no environment variable. See the README's "Robustness" section
//! for the error taxonomy and contracts.
//!
//! ## The workspace crates
//!
//! * [`dense`] — sequential dense linear algebra kernels (the BLAS/LAPACK
//!   substrate) with the pluggable `Backend` layer.
//! * [`simgrid`] — a deterministic SPMD message-passing runtime with α-β-γ
//!   cost accounting (the MPI substitute).
//! * [`pargrid`] — tunable `c × d × c` processor grids and cyclic
//!   distributions.
//! * [`cacqr`] — the paper's algorithms (MM3D, CFR3D, 1D-/3D-/CA-CQR2) and
//!   the [`QrPlan`] driver.
//! * [`baseline`] — the ScaLAPACK-`PGEQRF`-like 2D Householder QR baseline.
//! * [`costmodel`] — closed-form α-β-γ cost recurrences (paper Tables I–VI).
//!
//! See `examples/quickstart.rs` for a five-minute tour.

pub use baseline;
pub use cacqr;
pub use costmodel;
pub use dense;
pub use pargrid;
pub use simgrid;

pub use cacqr::driver::{
    Algorithm, EscalationAttempt, EscalationReport, PlanError, QrPlan, QrPlanBuilder, QrReport, RetryPolicy,
};
pub use cacqr::service::{
    JobHandle, JobInput, JobSpec, LatencySummary, QrService, QrServiceBuilder, ServiceError, ServiceStats,
    SubmitOptions,
};
pub use cacqr::stream::{StreamSnapshot, StreamStatus, StreamingQr};
pub use cacqr::tuner::{Tuner, TunerError, TunerReport};

/// The README's Rust blocks, compiled and run as doctests so that it never
/// names an API the crates no longer have.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
