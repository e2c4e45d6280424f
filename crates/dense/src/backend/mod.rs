//! Pluggable kernel backends for the BLAS-3 substrate.
//!
//! Every algorithm in the workspace — MM3D, CFR3D, the CQR family, the
//! ScaLAPACK-like `PGEQRF` baseline — bottoms out in local `gemm` / `syrk` /
//! `trsm` calls, so those three kernels are the hot path under the entire
//! simulated stack. This module makes the kernel implementation a runtime
//! choice behind the [`Backend`] trait:
//!
//! * [`Naive`] — the original straightforward loop nests (see
//!   [`mod@crate::gemm`], [`mod@crate::syrk`], [`mod@crate::trsm`]). Kept as the
//!   correctness oracle: simple enough to audit by eye, and the reference
//!   the property tests compare against.
//! * [`Blocked`] — a cache-blocked implementation in the BLIS/faer style:
//!   `B` and a transposed `A` are packed into cache-sized panels (packing
//!   absorbs operand transposes — no up-front full-matrix transpose copy),
//!   an untransposed `A` is read in place, and a register-tiled `MR × NR`
//!   microkernel does the arithmetic over each `B` panel's nonzero rows, on
//!   the caller's thread. Its `syrk` is *symmetry-aware*: lower-triangle
//!   micro-tiles are skipped (mirrored afterwards) and the `A`-side
//!   micro-panels are derived from the packed `B` buffer, while staying
//!   bitwise identical to the full `gemm(1, Aᵀ, A)`. Pack buffers come from the thread-local
//!   [`crate::workspace`] arena, so warm threads allocate nothing.
//!
//! Selection is threaded through the layers above by value as a
//! [`BackendKind`] (a `Copy` enum, so it can live inside `Copy` parameter
//! structs like `cacqr`'s `CfrParams`): `kind.get()` yields the
//! `&'static dyn Backend` to call. The default,
//! [`BackendKind::default_kind`], is the constant [`BackendKind::Blocked`];
//! the oracle runs only where a caller names [`BackendKind::Naive`].
//!
//! # Determinism and cost-model invariance
//!
//! Both backends are bitwise deterministic: for every output element the
//! floating-point accumulation order is a fixed function of the operand
//! shapes. The simulator's γ-cost
//! accounting is unaffected by backend choice by construction — flop counts
//! are charged from the closed-form conventions in [`crate::flops`], not
//! measured from kernel internals — so the `costmodel` exactness contract
//! holds under either backend.

pub mod blocked;

pub use blocked::Blocked;

use crate::gemm::Trans;
use crate::matrix::{MatMut, MatRef, Matrix};

/// A sequential-kernel implementation: the BLAS-3 surface the distributed
/// algorithms compute with.
///
/// All methods must be bitwise deterministic given identical inputs; the
/// distributed replication invariants (identical `R` pieces across depth
/// layers, etc.) rely on it.
pub trait Backend: Send + Sync + std::fmt::Debug {
    /// Short human-readable name (`"naive"`, `"blocked"`).
    fn name(&self) -> &'static str;

    /// `C ← α·op(A)·op(B) + β·C`.
    #[allow(clippy::too_many_arguments)] // the BLAS dgemm signature
    fn gemm(&self, alpha: f64, a: MatRef<'_>, ta: Trans, b: MatRef<'_>, tb: Trans, beta: f64, c: MatMut<'_>);

    /// Adds the Gram matrix `AᵀA` into the lower triangle of the
    /// caller-owned `n × n` buffer `c` and mirrors it onto the upper (whose
    /// contents on entry are ignored).
    ///
    /// Adding the row panels of `A` in order — [`KC`](blocked::KC)-row
    /// panels on `Blocked`, any on `Naive` — is bitwise one call over all of
    /// them: a tall panel's Gram can be summed while each panel is in cache.
    fn syrk_add(&self, a: MatRef<'_>, c: MatMut<'_>);

    /// Writes the full symmetric Gram matrix `AᵀA` into the caller-owned
    /// `n × n` buffer `c`, overwriting any previous contents: a zero fill,
    /// then [`Backend::syrk_add`].
    ///
    /// This is the allocation-free primitive the hot paths use (the buffer
    /// typically comes from a [`crate::workspace::Workspace`]).
    /// Implementations must produce bits identical to their own
    /// `gemm(1, Aᵀ, A)` — the 1D and CA CholeskyQR paths compute the Gram
    /// matrix through `syrk` and `gemm` respectively and the test suite
    /// asserts bitwise agreement between them.
    fn syrk_into(&self, a: MatRef<'_>, mut c: MatMut<'_>) {
        c.fill(0.0);
        self.syrk_add(a, c);
    }

    /// Writes the upper triangle of `AᵀA` into `c`, bitwise the one
    /// [`Backend::syrk_into`] writes, for a Cholesky in the upper triangle
    /// to read; the strict lower triangle is left unspecified (`Blocked`
    /// skips the mirror).
    fn syrk_upper_into(&self, a: MatRef<'_>, c: MatMut<'_>) {
        self.syrk_into(a, c);
    }

    /// Returns the full symmetric Gram matrix `AᵀA` as a fresh allocation
    /// (convenience wrapper over [`Backend::syrk_into`]).
    fn syrk(&self, a: MatRef<'_>) -> Matrix {
        let n = a.cols();
        let mut c = Matrix::zeros(n, n);
        self.syrk_into(a, c.as_mut());
        c
    }

    /// Solves `X·Lᵀ = B` in place (`L` lower triangular).
    fn trsm_right_lower_trans(&self, l: MatRef<'_>, b: MatMut<'_>);

    /// Solves `X·U = B` in place (`U` upper triangular).
    fn trsm_right_upper(&self, u: MatRef<'_>, b: MatMut<'_>);

    /// Solves `L·X = B` in place (`L` lower triangular).
    fn trsm_left_lower(&self, l: MatRef<'_>, b: MatMut<'_>);

    /// Solves `U·X = B` in place (`U` upper triangular).
    fn trsm_left_upper(&self, u: MatRef<'_>, b: MatMut<'_>);

    /// Convenience: `op(A)·op(B)` as a new matrix.
    fn matmul(&self, a: MatRef<'_>, ta: Trans, b: MatRef<'_>, tb: Trans) -> Matrix {
        let m = match ta {
            Trans::No => a.rows(),
            Trans::Yes => a.cols(),
        };
        let n = match tb {
            Trans::No => b.cols(),
            Trans::Yes => b.rows(),
        };
        let mut c = Matrix::zeros(m, n);
        self.gemm(1.0, a, ta, b, tb, 0.0, c.as_mut());
        c
    }
}

/// The original loop-nest kernels, kept verbatim as the correctness oracle.
#[derive(Clone, Copy, Debug, Default)]
pub struct Naive;

impl Backend for Naive {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn gemm(&self, alpha: f64, a: MatRef<'_>, ta: Trans, b: MatRef<'_>, tb: Trans, beta: f64, c: MatMut<'_>) {
        crate::gemm::gemm(alpha, a, ta, b, tb, beta, c);
    }

    fn syrk_add(&self, a: MatRef<'_>, c: MatMut<'_>) {
        crate::syrk::syrk_add(a, c);
    }

    fn trsm_right_lower_trans(&self, l: MatRef<'_>, b: MatMut<'_>) {
        crate::trsm::trsm_right_lower_trans(l, b);
    }

    fn trsm_right_upper(&self, u: MatRef<'_>, b: MatMut<'_>) {
        crate::trsm::trsm_right_upper(u, b);
    }

    fn trsm_left_lower(&self, l: MatRef<'_>, b: MatMut<'_>) {
        crate::trsm::trsm_left_lower(l, b);
    }

    fn trsm_left_upper(&self, u: MatRef<'_>, b: MatMut<'_>) {
        crate::trsm::trsm_left_upper(u, b);
    }
}

static NAIVE: Naive = Naive;
static BLOCKED: Blocked = Blocked;

/// Value-level backend selector, cheap to copy and store in parameter
/// structs (`cacqr::CfrParams`, `baseline::PgeqrfConfig`, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The loop-nest oracle.
    Naive,
    /// The packed, cache-blocked, register-tiled implementation.
    Blocked,
}

impl BackendKind {
    /// Resolves to the backend implementation.
    pub fn get(self) -> &'static dyn Backend {
        match self {
            BackendKind::Naive => &NAIVE,
            BackendKind::Blocked => &BLOCKED,
        }
    }

    /// The default every layer falls back to: `Blocked`, a constant, so
    /// every layer agrees and the bitwise cross-algorithm equalities hold.
    /// `Naive` runs only where it is named.
    pub const fn default_kind() -> BackendKind {
        BackendKind::Blocked
    }

    /// Every selectable backend, for sweeps in tests and benches.
    pub const ALL: [BackendKind; 2] = [BackendKind::Naive, BackendKind::Blocked];
}

impl Default for BackendKind {
    fn default() -> Self {
        BackendKind::default_kind()
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.get().name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_display_their_backend_names() {
        assert_eq!(BackendKind::default_kind(), BackendKind::Blocked);
        for kind in BackendKind::ALL {
            assert_eq!(kind.to_string(), kind.get().name());
        }
    }

    #[test]
    fn trait_matmul_matches_free_matmul() {
        let a = Matrix::from_fn(5, 7, |i, j| (i * 7 + j) as f64 * 0.31);
        let b = Matrix::from_fn(7, 4, |i, j| (i as f64 - j as f64) * 0.21);
        let via_trait = Naive.matmul(a.as_ref(), Trans::No, b.as_ref(), Trans::No);
        let via_free = crate::gemm::matmul(a.as_ref(), Trans::No, b.as_ref(), Trans::No);
        assert_eq!(via_trait, via_free);
    }
}
