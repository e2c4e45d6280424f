//! The paper's algorithms: communication-avoiding CholeskyQR2.
//!
//! This crate implements every algorithm in Hutter & Solomonik (IPDPS 2019),
//! bottom-up:
//!
//! * [`mm3d()`] — Algorithm 1: 3D SUMMA-style matrix multiplication over a
//!   cubic grid, with `C` replicated on every 2D slice.
//! * [`cfr3d()`] — Algorithm 3: recursive 3D Cholesky factorization computing
//!   both `L` and (possibly block-partially) `L⁻¹`, with tunable base-case
//!   size `n₀` and `InverseDepth`.
//! * [`invtree`] — the partial-inverse representation behind the paper's
//!   `InverseDepth` knob, and the recursive `X = B·R⁻¹` block solver built
//!   on MM3D.
//! * [`mod@cqr`] — Algorithms 4–5: sequential CholeskyQR and CholeskyQR2, plus
//!   the shifted CholeskyQR3 extension (reference \[3\] in the paper, its §V future
//!   work), as one-rank runs of Algorithms 6–7.
//! * [`mod@cqr1d`] — Algorithms 6–7: the existing 1D parallelization, and
//!   the shifted CQR3 built from the same pass.
//! * [`cacqr`] / [`cacqr2`] / [`cacqr3`] — Algorithms 8–9: the paper's
//!   contribution, over the tunable `c × d × c` grid, and the shifted CQR3
//!   built from the same pass. `c = d` gives 3D-CQR2; `c = 1` reproduces
//!   1D-CQR2.
//! * [`config`] — grid/base-case/inverse-depth parameter handling.
//! * [`driver`] — **the recommended entry point**: the [`QrPlan`] facade.
//!   Build a validated, reusable plan for any [`Algorithm`] in the family
//!   (1D-CQR2, CA-CQR2, CA-CQR3, or the `PGEQRF` baseline) and factor
//!   matrices through one unified [`QrReport`].
//! * [`validate`] — the expert layer underneath the facade: single-
//!   algorithm global drivers without validation, for cost
//!   cross-validation harnesses.
//! * [`stream`] — the incremental layer beside the facade: [`StreamingQr`],
//!   a live per-plan `R` factor that absorbs rank-k row appends and
//!   block downdates in `O(kn² + n³)`, tracks a drift bound,
//!   and refreshes through the owning plan when the bound is crossed or
//!   the caller asks — never because a delta is wide.
//! * [`service`] — the throughput layer above the facade: [`QrService`], a
//!   thread-safe engine that caches plans per [`service::JobSpec`] and
//!   factors many matrices concurrently through a bounded-queue worker
//!   pool, one thread per worker.
//! * [`tuner`] — the self-configuration layer: [`Tuner`] enumerates every
//!   runnable configuration for a shape and scores them with the
//!   `costmodel` crate; with calibration on it re-ranks the leaders by live
//!   measured runs in this process. [`QrPlan::auto`] is the one-line front
//!   door and takes the cost model's pick.

pub mod cacqr;
pub mod cacqr2;
pub mod cacqr3;
pub mod cfr3d;
pub mod config;
pub mod cqr;
pub mod cqr1d;
pub mod driver;
pub mod invtree;
pub mod mm3d;
pub mod service;
pub mod stream;
pub mod tuner;
pub mod validate;

pub use cacqr2::{ca_cqr2, CaCqr2Output};
pub use cacqr3::ca_cqr3;
pub use cfr3d::cfr3d;
pub use config::{CfrParams, ParamError};
pub use cqr::{cqr, cqr2, shifted_cqr3};
pub use cqr1d::{cqr1d, cqr2_1d, cqr3_1d, FlopCharges};
pub use driver::{
    Algorithm, EscalationAttempt, EscalationReport, PlanError, QrPlan, QrPlanBuilder, QrReport, RetryPolicy,
};
pub use invtree::InvTree;
pub use mm3d::{mm3d, mm3d_scaled, transpose_cube};
pub use service::{JobHandle, JobSpec, QrService, QrServiceBuilder, ServiceError, SubmitOptions};
pub use stream::{StreamSnapshot, StreamStatus, StreamingQr};
pub use tuner::{Tuner, TunerError, TunerReport};
