//! Sequential dense linear algebra kernels: the BLAS/LAPACK substrate of the
//! CA-CQR2 reproduction.
//!
//! The paper's implementation calls BLAS (`dgemm`, `dsyrk`, `dtrsm`) and
//! LAPACK (`dpotrf`, `dtrtri`, `dgeqrf`) for all node-local computation.
//! This crate provides from-scratch Rust equivalents:
//!
//! * [`Matrix`] — an owned row-major `f64` matrix with strided views
//!   ([`MatRef`]/[`MatMut`]) that make blocked algorithms natural.
//! * [`backend`] — the pluggable BLAS-3 kernel layer: a [`Backend`] trait
//!   with two implementations, [`backend::Naive`] (the audited loop-nest
//!   oracle) and [`backend::Blocked`] (packed cache-blocked panels, an
//!   `MR × NR` register-tiled microkernel, on the caller's thread).
//!   Select by value with [`BackendKind`]; the default is the constant
//!   `Blocked`, and `Naive` runs only where a caller names it.
//! * [`gemm()`] — general matrix multiply with transpose flags (the naive
//!   reference path; backend-routed code calls `Backend::gemm`).
//! * [`syrk()`] — symmetric rank-k update `C = AᵀA` (naive reference).
//! * [`trsm`] — triangular solves (naive reference) and the triangular
//!   product `U₂·U₁` (on the blocked microkernel).
//! * [`cholesky`] — blocked Cholesky, triangular inversion, and the paper's
//!   joint `CholInv` recursion (Algorithm 2).
//! * [`update`] — rank-k row append / downdate of a triangular factor.
//! * [`defaults`] — the four shorter spellings the benchmark package pins,
//!   re-exported at the crate root.
//! * [`householder`] — blocked Householder QR on the default backend
//!   (the sequential reference the tests compare against).
//! * [`cond`] — Hager–Higham triangular 1-norm condition estimation: the
//!   O(n²) κ₁(R) estimate the escalation ladder gates on.
//! * [`fault`] — deterministic fault injection: a [`FaultPlan`] armed on a
//!   thread ([`fault::with_plan`]) and carried with the work it starts
//!   ([`fault::FaultHandle`]); named faultpoints at the Cholesky pivot and
//!   arena checkout sites (consumers add collective/worker sites), one
//!   thread-local load on an unarmed thread.
//! * [`svd`] — one-sided Jacobi SVD, used to measure condition numbers.
//!   (Pure BLAS-1 column rotations — there is no BLAS-3 call to route
//!   through a backend.)
//! * [`norms`] — error metrics (orthogonality, residual, triangularity);
//!   [`norms::qr_diagnostics`] computes a factorization's two report
//!   diagnostics on a backend's kernels, streamed, from arena scratch.
//! * [`probe`] — timed microkernel probes measuring the live machine's
//!   effective flop rate per backend (the autotuner's calibration input).
//! * [`random`] — seeded Gaussian matrices and prescribed-κ test matrices.
//! * [`workspace`] — grow-only scratch arenas ([`Workspace`]) and the
//!   thread-safe [`WorkspacePool`]: the hot factor paths draw every
//!   temporary from these and re-allocate nothing once warm.
//! * [`flops`] — the floating-point-operation conventions charged to the
//!   α-β-γ cost ledger (chosen to match the paper's accounting). Charges
//!   depend only on operand shapes, never on the backend, so cost-model
//!   exactness is backend-invariant.
//!
//! # One kernel signature
//!
//! Every kernel above the [`Backend`] trait — [`cholesky`]'s three and
//! [`update`]'s two — has one body, `f(input views…, output views…, &dyn
//! Backend, &mut Workspace)`: operands and results are [`MatRef`]/[`MatMut`]
//! views (an output's contents on entry are ignored), every temporary comes
//! from the caller's [`Workspace`], and a warm call allocates nothing
//! ([`cholesky::potrf`], which needs no scratch, takes no workspace, and
//! [`trsm::trmm_upper_upper`], with no backend argument, takes just the
//! views). There are no `_with` / `_ws` / `_into` twins; CI counts them.
//! The thread-local arena ([`workspace::with_thread_local`]) serves
//! `Blocked`'s pack buffers and solve lanes, `trmm_upper_upper`'s packs and
//! [`cond_estimate`]'s two vectors, nothing outside this crate.
//!
//! **The oracle is exempt.** The free loop nests [`gemm()`], [`matmul`],
//! [`syrk()`] / [`syrk_into`] and the five `trsm::trsm_*` solves are the
//! reference implementations the tests compare against and what
//! [`backend::Naive`] forwards to, and `Backend::{syrk, matmul}` are the
//! allocating conveniences those tests call: they keep their spellings, and
//! CI's twin counter skips `gemm.rs`, `syrk.rs` and `trsm.rs`.
//!
//! All kernels are deterministic; given identical inputs they produce
//! bitwise-identical outputs, which the distributed tests rely on.

// Index-based loops are the house style for the numeric kernels: the
// subscripts mirror the paper's subscripted recurrences.
#![allow(clippy::needless_range_loop)]

pub mod backend;
pub mod blas1;
pub mod cholesky;
pub mod cond;
pub mod defaults;
pub mod fault;
pub mod flops;
pub mod gemm;
pub mod householder;
pub mod matrix;
pub mod norms;
pub mod probe;
pub mod random;
pub mod svd;
pub mod syrk;
pub mod trsm;
pub mod update;
pub mod workspace;

pub use backend::{Backend, BackendKind};
pub use cholesky::CholeskyError;
pub use cond::cond_estimate;
pub use defaults::{cholinv, potrf, rank_k_downdate, trtri_lower};
pub use fault::FaultPlan;
pub use gemm::{gemm, matmul, Trans};
pub use householder::{form_q, householder_qr, QrFactors};
pub use matrix::{MatMut, MatRef, Matrix};
pub use norms::{frobenius, max_abs, orthogonality_error, residual_error};
pub use probe::{default_probe, default_syrk_probe, probe_gemm, probe_syrk, ProbeKernel, ProbeReport};
pub use syrk::{syrk, syrk_into};
pub use trsm::{trmm_upper_upper, trsm_left_lower_trans, trsm_left_upper, trsm_right_lower_trans, trsm_right_upper};
pub use update::{rank_k_append, UpdateError};
pub use workspace::{PooledWorkspace, Workspace, WorkspacePool};
