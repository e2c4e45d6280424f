//! Error metrics used by the correctness tests, the stability experiments
//! and every `cacqr::QrReport`.
//!
//! # The factorization diagnostics
//!
//! [`qr_diagnostics`] computes the two numbers the CholeskyQR2 literature
//! reports — `‖QᵀQ − I‖_F` and `‖A − QR‖_F / ‖A‖_F` — and is the only
//! implementation of either; [`orthogonality_error`] and [`residual_error`]
//! are its two halves behind the process-default backend. The ledger prices
//! them at another `≈3mn²` flops — most of the `≈4mn²` of the CholeskyQR2
//! they check — so they run on the same [`Backend`] kernels the
//! factorization does:
//!
//! * orthogonality is one symmetry-aware [`Backend::syrk_into`] into an
//!   `n × n` scratch Gram matrix, then one pass over it;
//! * the residual streams the tall operands through fast memory once, in
//!   [`PANEL_ROWS`]-row panels (the sequential-TSQR access pattern of
//!   Demmel, Grigori, Hoemmen & Langou): `D_b ← A_b − Q_b·R` by one
//!   [`Backend::gemm`] into a single reused scratch panel, with `‖A_b‖²`
//!   accumulated while `A_b` is copied in and `‖D_b‖²` while the panel is
//!   still in cache. No `m × n` temporary exists at any point.
//!
//! The blocked kernels multiply less than that ledger: SYRK computes only
//! the tiles on and below the diagonal, and the residual's gemm contracts
//! each `NR`-wide panel of the upper-triangular `R` over its nonzero rows
//! only — at `n = 64` that is 0.625 of the product's `2mn²` (the bits are
//! the full product's; [`crate::backend::blocked`]). At 16384 × 64 on one
//! thread of a two-vCPU AVX-512 box that took both numbers from
//! ≈ 14.6–16.2 ms to ≈ 11.1–12.3 ms (README, "Performance").
//!
//! The only scratch is that Gram matrix and that panel, both drawn from the
//! caller's [`Workspace`]: a warm arena makes the whole computation
//! allocation-free (the blocked kernels' pack buffers come from the calling
//! thread's own arena, warm after its first call).
//!
//! # Slabs and the combine
//!
//! Both numbers are sums over rows, so the work splits by contiguous row
//! slabs: [`slab_diagnostics`] is the computation above over one slab's rows
//! — a `k × k` Gram partial `Q_bᵀQ_b`, `‖A_b‖²` and `‖A_b − Q_b·R‖²` — and
//! [`combine_diagnostics`] adds the partials up and takes the norms.
//! [`slab_count`] and [`slab_rows`] are the partition: whole
//! [`PANEL_ROWS`]-row panels, at most one slab per team member, so a matrix
//! of one panel or a team of one is one slab. [`qr_diagnostics`] *is* the
//! one-slab case (slab, then combine, on the calling thread); a rank team
//! runs one slab per member side by side and combines once
//! (`cacqr::QrReport`). There is no second implementation.
//!
//! **Determinism rule:** partials are combined in slab order, entry by
//! entry, on one thread. The result is therefore a pure function of
//! `(A, Q, R)` and the slab count — bitwise the same whichever runtime ran
//! the slabs, in whatever order they finished, and under any
//! `CACQR_THREADS` (each kernel call is itself thread-count-independent).
//! Different slab counts differ by rounding only.
//!
//! **`BackendKind::Naive` is the oracle form.** With it the two products are
//! the audited loop nests of [`mod@crate::syrk`] and [`mod@crate::gemm`] —
//! every element accumulated in ascending-`k` order starting from `A`'s
//! entry, exactly the textbook `A − QR` — and the property tests compare
//! the blocked form against it. There is no size- or caller-keyed choice
//! between the two: the backend argument is the whole selection.

use crate::backend::{Backend, BackendKind};
use crate::blas1::dot_lanes;
use crate::gemm::Trans;
use crate::matrix::{MatRef, Matrix};
use crate::workspace::Workspace;

/// Frobenius norm `‖A‖_F`.
pub fn frobenius(a: MatRef<'_>) -> f64 {
    let mut s = 0.0;
    for i in 0..a.rows() {
        for &v in a.row(i) {
            s += v * v;
        }
    }
    s.sqrt()
}

/// Max-absolute-entry norm `‖A‖_max`.
pub fn max_abs(a: MatRef<'_>) -> f64 {
    let mut m = 0.0f64;
    for i in 0..a.rows() {
        for &v in a.row(i) {
            m = m.max(v.abs());
        }
    }
    m
}

/// Height of the row panels the residual streams `A` and `Q` through: tall
/// enough that one panel's `2·rows·n²` flops dwarf re-packing `R` for it,
/// short enough that the `rows × n` scratch panel stays cache-resident
/// between the gemm that writes it and the sweep that sums it.
pub const PANEL_ROWS: usize = 256;

/// How many slabs the diagnostics of an `m`-row matrix split into for a team
/// of `team` members: one per member, but never less than a whole panel each.
pub fn slab_count(m: usize, team: usize) -> usize {
    team.min(m.div_ceil(PANEL_ROWS)).max(1)
}

/// The rows of slab `s` of `slabs`: contiguous, whole panels (the last slab
/// takes the ragged tail), as even as the panel count allows.
pub fn slab_rows(m: usize, slabs: usize, s: usize) -> std::ops::Range<usize> {
    let panels = m.div_ceil(PANEL_ROWS);
    let bound = |s: usize| (s * panels / slabs * PANEL_ROWS).min(m);
    bound(s)..bound(s + 1)
}

/// One row slab's share of [`qr_diagnostics`] — what [`slab_diagnostics`]
/// computes where the slab's rows live and [`combine_diagnostics`] sums.
pub struct SlabDiagnostics {
    /// `Q_bᵀ·Q_b` over the slab's rows (`k × k`). **Workspace-backed**:
    /// recycle it into the arena it was taken from once combined.
    pub gram: Matrix,
    /// `‖A_b‖_F²` over the slab's rows.
    pub a_sq: f64,
    /// `‖A_b − Q_b·R‖_F²` over the slab's rows.
    pub d_sq: f64,
}

/// `Q_bᵀ·Q_b` by one `syrk_into` into arena scratch.
fn gram_partial(q: MatRef<'_>, kernels: &dyn Backend, ws: &mut Workspace) -> Matrix {
    let mut g = ws.take_matrix_stale(q.cols(), q.cols());
    kernels.syrk_into(q, g.as_mut());
    g
}

/// `‖Σ_b G_b − I‖_F`, every entry summed over the partials in iteration
/// order.
fn gram_deviation<'a>(grams: impl Iterator<Item = &'a Matrix> + Clone) -> f64 {
    let n = grams.clone().next().map_or(0, Matrix::rows);
    let mut s = 0.0;
    for i in 0..n {
        for j in 0..n {
            let v: f64 = grams.clone().map(|g| g.get(i, j)).sum();
            let d = if i == j { v - 1.0 } else { v };
            s += d * d;
        }
    }
    s.sqrt()
}

/// `(‖A_b‖_F², ‖A_b − Q_b·R‖_F²)`, streamed in [`PANEL_ROWS`]-row panels
/// through one arena scratch panel. The row sums of squares are lane-split
/// ([`dot_lanes`]): a strictly sequential sum over `m·n` elements is
/// latency-bound and would cost as much as the panel gemms it follows.
fn residual_partial(
    a: MatRef<'_>,
    q: MatRef<'_>,
    r: MatRef<'_>,
    kernels: &dyn Backend,
    ws: &mut Workspace,
) -> (f64, f64) {
    let (m, n) = (a.rows(), a.cols());
    assert_eq!(q.rows(), m, "Q must have A's row count");
    let mut panel = ws.take_matrix_stale(PANEL_ROWS.min(m), n);
    let (mut a_sq, mut d_sq) = (0.0, 0.0);
    for i0 in (0..m).step_by(PANEL_ROWS) {
        let rows = PANEL_ROWS.min(m - i0);
        let mut d = panel.view_mut(0, 0, rows, n);
        for i in 0..rows {
            let src = a.row(i0 + i);
            d.row_mut(i).copy_from_slice(src);
            a_sq += dot_lanes(src, src);
        }
        kernels.gemm(
            -1.0,
            q.sub(i0, 0, rows, q.cols()),
            Trans::No,
            r,
            Trans::No,
            1.0,
            d.rb_mut(),
        );
        for i in 0..rows {
            d_sq += dot_lanes(d.row(i), d.row(i));
        }
    }
    ws.recycle(panel);
    (a_sq, d_sq)
}

/// The diagnostics' share of one contiguous row slab: `a` and `q` are the
/// slab's rows of `A` and `Q` (sub-views of the caller's storage; `r` is the
/// whole `k × n` factor). Costs `≈ rows·(k² + 2kn)` flops at kernel speed and
/// takes a `k × k` and a `min(rows, PANEL_ROWS) × n` buffer from `ws`; the
/// `k × k` one leaves in the result. See the [module docs](self).
pub fn slab_diagnostics(
    a: MatRef<'_>,
    q: MatRef<'_>,
    r: MatRef<'_>,
    backend: BackendKind,
    ws: &mut Workspace,
) -> SlabDiagnostics {
    let kernels = backend.get();
    let gram = gram_partial(q, kernels, ws);
    let (a_sq, d_sq) = residual_partial(a, q, r, kernels, ws);
    SlabDiagnostics { gram, a_sq, d_sq }
}

/// Sums slab partials **in slice order** into
/// `(‖QᵀQ − I‖_F, ‖A − QR‖_F / ‖A‖_F)`. The order is the determinism rule:
/// the result is a function of the partials and their order alone, whoever
/// computed them and however many threads their kernels used.
pub fn combine_diagnostics(slabs: &[SlabDiagnostics]) -> (f64, f64) {
    let a_sq: f64 = slabs.iter().map(|s| s.a_sq).sum();
    let d_sq: f64 = slabs.iter().map(|s| s.d_sq).sum();
    (gram_deviation(slabs.iter().map(|s| &s.gram)), d_sq.sqrt() / a_sq.sqrt())
}

/// Both factorization diagnostics of `A ≈ QR` on the kernels of `backend`:
/// returns `(‖QᵀQ − I‖_F, ‖A − QR‖_F / ‖A‖_F)`. This is the one-slab case of
/// [`slab_diagnostics`] + [`combine_diagnostics`], on the calling thread.
///
/// `a` is `m × n`, `q` is `m × k`, `r` is `k × n` (any views; `r` is used as
/// stored, so entries below its diagonal count against the residual). Costs
/// `≈ mk² + 2mkn` flops at kernel speed, reads `A` once and `Q` twice, and
/// takes a `k × k` and a `min(m, PANEL_ROWS) × n` buffer from `ws` — nothing
/// else is allocated once `ws` is warm. See the [module docs](self).
///
/// An empty or all-zero `A` has no relative residual: that half is `NaN`.
pub fn qr_diagnostics(
    a: MatRef<'_>,
    q: MatRef<'_>,
    r: MatRef<'_>,
    backend: BackendKind,
    ws: &mut Workspace,
) -> (f64, f64) {
    let slab = slab_diagnostics(a, q, r, backend, ws);
    let out = combine_diagnostics(std::slice::from_ref(&slab));
    ws.recycle(slab.gram);
    out
}

/// Deviation from orthonormality: `‖QᵀQ − I‖_F`.
///
/// This is the metric the CholeskyQR2 literature reports: ≈ machine-ε for
/// Householder QR and CQR2 on well-conditioned input, ≈ `ε·κ(A)²` for plain
/// CholeskyQR. The first half of [`qr_diagnostics`] on the process-default
/// backend, with throwaway scratch.
pub fn orthogonality_error(q: MatRef<'_>) -> f64 {
    let gram = gram_partial(q, BackendKind::default_kind().get(), &mut Workspace::new());
    gram_deviation(std::iter::once(&gram))
}

/// Relative residual `‖A − QR‖_F / ‖A‖_F`. The second half of
/// [`qr_diagnostics`] on the process-default backend, with throwaway
/// scratch.
pub fn residual_error(a: MatRef<'_>, q: MatRef<'_>, r: MatRef<'_>) -> f64 {
    let (a_sq, d_sq) = residual_partial(a, q, r, BackendKind::default_kind().get(), &mut Workspace::new());
    d_sq.sqrt() / a_sq.sqrt()
}

/// Frobenius norm of the strictly-lower part (how far from upper triangular).
pub fn lower_residual(r: MatRef<'_>) -> f64 {
    let mut s = 0.0;
    for i in 0..r.rows() {
        let row = r.row(i);
        for &v in &row[..i.min(row.len())] {
            s += v * v;
        }
    }
    s.sqrt()
}

/// Relative elementwise difference `‖A − B‖_F / max(1, ‖A‖_F)`, streamed
/// row by row (no temporary).
pub fn rel_diff(a: MatRef<'_>, b: MatRef<'_>) -> f64 {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    let (mut d_sq, mut a_sq) = (0.0, 0.0);
    for i in 0..a.rows() {
        for (&x, &y) in a.row(i).iter().zip(b.row(i)) {
            d_sq += (x - y) * (x - y);
            a_sq += x * x;
        }
    }
    d_sq.sqrt() / a_sq.sqrt().max(1.0)
}

/// Normalizes the sign of an upper-triangular factor so that diagonals are
/// non-negative, applying the compensating signs to the columns of `Q`.
/// QR is unique only up to these signs; tests comparing factorizations from
/// different algorithms normalize both first.
pub fn normalize_qr_signs(q: &mut Matrix, r: &mut Matrix) {
    let n = r.rows();
    for i in 0..n {
        if r.get(i, i) < 0.0 {
            for j in 0..r.cols() {
                let v = r.get(i, j);
                r.set(i, j, -v);
            }
            for k in 0..q.rows() {
                let v = q.get(k, i);
                q.set(k, i, -v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::householder::qr;
    use crate::matrix::Matrix;

    #[test]
    fn frobenius_known() {
        let a = Matrix::from_vec(2, 2, vec![3.0, 0.0, 0.0, 4.0]);
        assert_eq!(frobenius(a.as_ref()), 5.0);
    }

    #[test]
    fn identity_is_orthogonal() {
        let q = Matrix::identity(6);
        assert_eq!(orthogonality_error(q.as_ref()), 0.0);
    }

    #[test]
    fn scaled_identity_is_not() {
        let mut q = Matrix::identity(3);
        q.set(0, 0, 2.0);
        assert!(orthogonality_error(q.as_ref()) > 1.0);
    }

    #[test]
    fn sign_normalization_preserves_product() {
        let a = Matrix::from_fn(10, 4, |i, j| ((i + 3 * j) as f64).sin());
        let (mut q, mut r) = qr(&a);
        let before = residual_error(a.as_ref(), q.as_ref(), r.as_ref());
        normalize_qr_signs(&mut q, &mut r);
        let after = residual_error(a.as_ref(), q.as_ref(), r.as_ref());
        assert!((before - after).abs() < 1e-14);
        for i in 0..4 {
            assert!(r.get(i, i) >= 0.0);
        }
    }
}
