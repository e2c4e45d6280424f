//! Closed-form α-β-γ cost models for every algorithm in the workspace
//! (the paper's Tables I–VI, made exact).
//!
//! Each function here mirrors the corresponding implementation **term by
//! term**: the same collective schedules (including buffer padding), the
//! same recursion structure, the same flop-charging conventions. The
//! integration tests assert that the simulator's measured elapsed time under
//! `Machine::alpha_only()` / `beta_only()` / `gamma_only()` equals these
//! predictions exactly (α, β) or to rounding (γ) — so every figure the bench
//! harness regenerates from the model is backed by an executable, validated
//! implementation at small scale.
//!
//! Exceptions: [`pgeqrf()`] models the ScaLAPACK-like baseline's *leading*
//! terms (its per-rank costs are slightly ragged across the process grid);
//! its tests assert agreement within a few percent instead.
//!
//! [`machines`] holds the calibrated machine models used to evaluate the
//! paper's figures at full scale (node counts and matrix sizes that do not
//! fit a laptop); its module docs state what each constant is calibrated
//! against.

pub mod cacqr2;
pub mod cacqr3;
pub mod candidates;
pub mod cfr3d;
pub mod collectives;
pub mod cost;
pub mod cqr1d;
pub mod machines;
pub mod mm3d;
pub mod pgeqrf;
pub mod table1;

pub use cacqr2::{ca_cqr, ca_cqr2};
pub use cacqr3::ca_cqr3;
pub use candidates::{enumerate, predicted_cost, Algorithm, CandidateConfig};
pub use cfr3d::{apply_rinv, cfr3d};
pub use cost::Cost;
pub use cqr1d::{cqr1d, cqr2_1d};
pub use machines::MachineCal;
pub use mm3d::{mm3d_local, transpose_cube};
pub use pgeqrf::pgeqrf;
