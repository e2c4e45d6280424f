//! Cholesky factorization and triangular inversion.
//!
//! Three kernels, each one body over views (the two recursions also take a
//! caller [`Workspace`]):
//!
//! * [`potrf`] — blocked right-looking Cholesky, `A = LLᵀ` (lower factor),
//!   in place: a mirror around its upper-triangle form `potrf_upper`
//!   (`A = UᵀU`, `U = Lᵀ`, crate private), which the rank-k updates call
//!   with no mirror pass. Block rows are 32 deep: each is one lane sweep
//!   (diagonal block and the panel right of it), and the trailing update is
//!   one SYRK on the backend ([`Backend::syrk_sub_upper`]), so at order 128
//!   most of the flops run on the `Blocked` tile. It needs no scratch and
//!   takes no workspace.
//! * [`trtri_lower`] — recursive lower-triangular inverse `Y = L⁻¹`.
//! * [`cholinv`] — the paper's Algorithm 2: a *joint* recursion computing
//!   `L` and `Y = L⁻¹` together. This is the sequential kernel executed
//!   redundantly at the CFR3D base case (Algorithm 3, line 3), and the
//!   per-processor factorization of 1D-CQR (Algorithm 6, line 3).
//!
//! The two recursions write each child straight into its quadrant of the
//! caller's output (any view: contents on entry are ignored) and draw their
//! temporaries from the workspace, so a warm call allocates nothing.
//!
//! The unblocked cores under them — the Cholesky's block rows (diagonal
//! block and panel in one sweep) and the `cholinv` / `trtri_lower` base
//! cases — put independent elements side by side in SIMD lanes: the entries
//! right of each pivot of `U` (a column of `L` is a contiguous row of `U`),
//! the entries of each row of the inverse. Each element runs the
//! operation sequence of the plain loop form, in the same order, so a
//! breakdown reports the same index and pivot. At order `n ≤ 32` — every
//! `cholinv` base case — that is multiply, then add or subtract, never
//! fused, so the factors are the loop's bits on every instruction set (the
//! tests keep the loops as the reference). Past one block the Cholesky's
//! sweep fuses each subtraction into one fma, which halves its
//! instructions; its bits then depend on the blocking, and every
//! instruction set still gives the same ones.
//!
//! All routines report failure (a non-positive pivot, i.e. a numerically
//! non-SPD input) through [`CholeskyError`] instead of panicking — the
//! CholeskyQR drivers use this to detect loss of positive-definiteness in
//! `AᵀA` for ill-conditioned `A` and to trigger the shifted variant. On
//! error the outputs hold unspecified values.

use crate::backend::blocked::{isa, isa_dispatch, Isa};
use crate::backend::Backend;
use crate::gemm::Trans;
use crate::matrix::{MatMut, MatRef};
use crate::workspace::Workspace;

/// Cholesky failure: the pivot at `index` was non-positive.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CholeskyError {
    /// Global row/column index of the offending pivot.
    pub index: usize,
    /// Value of the pivot that should have been positive.
    pub pivot: f64,
}

impl std::fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite: pivot {} at index {}",
            self.pivot, self.index
        )
    }
}

impl std::error::Error for CholeskyError {}

/// Recursion cut-off of [`trtri_lower`] and [`cholinv`]: blocks this small
/// run the unblocked loops.
const RECURSION_NB: usize = 32;

/// Unblocked upper Cholesky of the block row `a` (`nb × w`, `w ≥ nb`) in
/// place; see [`potrf_lanes_body`]. `fused` picks the fused sweep.
fn potrf_unblocked(which: Isa, a: MatMut<'_>, index_offset: usize, fused: bool) -> Result<(), CholeskyError> {
    // Chaos faultpoint at the pivot site: an injected breakdown is
    // indistinguishable from a genuine loss of positive-definiteness to
    // everything upstream (suppressed inside SPMD regions; see
    // `crate::fault`). The sentinel pivot −∞ marks it as injected.
    crate::faultpoint!(crate::fault::CHOLESKY, {
        return Err(CholeskyError {
            index: index_offset,
            pivot: f64::NEG_INFINITY,
        });
    });
    match fused {
        true => potrf_lanes_fused(which, a),
        false => potrf_lanes(which, a),
    }
    .map_err(|(j, pivot)| CholeskyError {
        index: index_offset + j,
        pivot,
    })
}

/// Left-looking Cholesky of the block row `a` (`nb × w`) in place, in the
/// upper triangle, where column `j` of `L` is the contiguous row `j` of
/// `U = Lᵀ`; returns the failing row and its pivot. It reads the upper
/// triangle of the leading `nb × nb` block and the panel `A₁₂` right of it,
/// and leaves `U₁₁` and `U₁₂ = U₁₁⁻ᵀ·A₁₂` there. The entries `i ≥ j` of row
/// `j` advance as lanes, up to 64 at a time in registers, through the
/// sequence the loop form gave each element — `s ← a_ji`, `s −= u_ki · u_kj`
/// for ascending `k < j` — and then the pivot `d = s_jj` is checked,
/// `u_jj = √d` and `u_ji = s_ji / u_jj`. That is also the sequence the
/// blocked right solve gives the panel (`X·L₁₁ᵀ = A₂₁` on the lower form).
/// With `FUSED` each subtraction is one fma, `s = fma(−u_ki, u_kj, s)`,
/// rounded once: twice the lanes per instruction, with the same order; and
/// the row is scaled by `1/u_jj` as LAPACK's `dpotf2` does, a multiply per
/// entry where a divide would cost more than the sweep.
///
/// The row is swept in column chunks of [`SWEEP_CHUNK`], every row's part
/// of one chunk before the next, so the rows a lane group reads stay in L1;
/// a row's pivot is taken in the chunk that holds its diagonal entry. Each
/// element still sees its own sequence in order. Within a chunk, groups are
/// laid from its end leftwards, each as wide as the lanes it has left (a
/// power of two, at most 64). A group may reach left of the pivot into the
/// strict lower triangle, whose values are junk: those lanes compute unused
/// values there.
#[inline(always)]
fn potrf_lanes_body<const FUSED: bool>(mut a: MatMut<'_>) -> Result<(), (usize, f64)> {
    let w = a.cols();
    for c0 in (0..w).step_by(SWEEP_CHUNK) {
        let c1 = w.min(c0 + SWEEP_CHUNK);
        for j in 0..a.rows().min(c1) {
            // A row whose pivot lies in an earlier chunk keeps its finished
            // entries there: its groups start inside this chunk.
            let (lo, floor) = if j < c0 { (c0, c0) } else { (j, 0) };
            let mut end = c1;
            while end > lo {
                let w = end - lo;
                let fit = if w > 32 { 64 } else { w.next_power_of_two() };
                let g = if end - floor >= fit { fit } else { 1 << w.ilog2() };
                match g {
                    64 => chol_lanes::<64, FUSED>(a.rb_mut(), j, end - g),
                    32 => chol_lanes::<32, FUSED>(a.rb_mut(), j, end - g),
                    16 => chol_lanes::<16, FUSED>(a.rb_mut(), j, end - g),
                    8 => chol_lanes::<8, FUSED>(a.rb_mut(), j, end - g),
                    4 => chol_lanes::<4, FUSED>(a.rb_mut(), j, end - g),
                    2 => chol_lanes::<2, FUSED>(a.rb_mut(), j, end - g),
                    _ => chol_lanes::<1, FUSED>(a.rb_mut(), j, end - g),
                }
                end -= g;
            }
            let row = &mut a.row_mut(j)[..c1];
            if j >= c0 {
                let d = row[j];
                if d <= 0.0 || !d.is_finite() {
                    return Err((j, d));
                }
                row[j] = d.sqrt();
            }
            let (ljj, first) = (row[j], lo.max(j + 1));
            if FUSED {
                // LAPACK's scaling: one reciprocal, then a multiply per entry,
                // since a divide per entry costs more than the sweep.
                let inv = 1.0 / ljj;
                row[first..].iter_mut().for_each(|v| *v *= inv);
            } else {
                row[first..].iter_mut().for_each(|v| *v /= ljj);
            }
        }
    }
    Ok(())
}

/// Columns per chunk of the Cholesky lane sweep.
const SWEEP_CHUNK: usize = 64;

/// Lanes `i..i + G` of row `j`: `s −= u_ki · u_kj` over the finished rows
/// `k < j`, with the `G` sums in registers.
#[inline(always)]
fn chol_lanes<const G: usize, const FUSED: bool>(mut a: MatMut<'_>, j: usize, i: usize) {
    let mut acc = [0.0f64; G];
    acc.copy_from_slice(&a.row(j)[i..i + G]);
    for k in 0..j {
        let lk = a.row(k);
        let (ljk, lik) = (lk[j], &lk[i..i + G]);
        for l in 0..G {
            acc[l] = if FUSED {
                (-lik[l]).mul_add(ljk, acc[l])
            } else {
                acc[l] - lik[l] * ljk
            };
        }
    }
    a.row_mut(j)[i..i + G].copy_from_slice(&acc);
}

isa_dispatch! {
    fn potrf_lanes(a: MatMut<'_>) -> Result<(), (usize, f64)> => potrf_lanes_body::<false>
}

isa_dispatch! {
    fn potrf_lanes_fused(a: MatMut<'_>) -> Result<(), (usize, f64)> => potrf_lanes_body::<true>
}

/// Block rows of the blocked Cholesky: small enough that most of its flops
/// are the trailing SYRKs, and the block order of the `cholinv` base case,
/// so a Cholesky of order `n ≤ NB` is one lane sweep.
const NB: usize = RECURSION_NB;

/// The blocked right-looking loop of `potrf_upper`, which leaves junk in
/// the strict lower triangle: per block row, one lane sweep factors the
/// diagonal block and solves the panel right of it (`U₁₂ = U₁₁⁻ᵀ·A₁₂`, the
/// panel's columns in lanes; fused when `n > NB`, so an order of at most
/// `NB` — every `cholinv` base case — keeps the loop form's bits), then
/// the trailing update
/// `A₂₂ ← A₂₂ − U₁₂ᵀ·U₁₂` is one [`Backend::syrk_sub_upper`]. `U₁₂` and
/// `A₂₂` are disjoint views, so the loop needs no scratch.
fn potrf_rows(which: Isa, mut a: MatMut<'_>, backend: &dyn Backend) -> Result<(), CholeskyError> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "Cholesky input must be square");
    for k in (0..n).step_by(NB) {
        let (nb, rest) = (NB.min(n - k), n - k - NB.min(n - k));
        potrf_unblocked(which, a.rb_mut().sub(k, k, nb, n - k), k, n > NB)?;
        if rest > 0 {
            let (top, bottom) = a.rb_mut().split_rows(k + nb);
            backend.syrk_sub_upper(top.rb().sub(k, k + nb, nb, rest), bottom.sub(0, k + nb, rest, rest));
        }
    }
    Ok(())
}

/// Blocked Cholesky in the upper triangle: factors the symmetric `a` from
/// its upper triangle as `A = UᵀU` in place, `U = Lᵀ` with the strict lower
/// triangle zeroed. [`potrf`] runs its loop between two mirrors.
pub(crate) fn potrf_upper(mut a: MatMut<'_>, backend: &dyn Backend) -> Result<(), CholeskyError> {
    potrf_rows(isa(), a.rb_mut(), backend)?;
    for i in 1..a.rows() {
        a.row_mut(i)[..i].fill(0.0);
    }
    Ok(())
}

/// Blocked right-looking Cholesky: factors `A = LLᵀ` in place from the lower
/// triangle of `a` (strict upper triangle zeroed). The lower triangle is
/// mirrored up, factored by `potrf_upper`'s loop and mirrored back; each
/// mirror stores along rows and loads down columns, since strided stores
/// cost more. The loop needs no scratch, so it takes no workspace.
pub fn potrf(mut a: MatMut<'_>, backend: &dyn Backend) -> Result<(), CholeskyError> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "Cholesky input must be square");
    for j in 0..n {
        for i in j + 1..n {
            let v = a.at(i, j);
            a.set(j, i, v);
        }
    }
    potrf_rows(isa(), a.rb_mut(), backend)?;
    // Bottom-up, so each row's upper part is cleared only after the rows
    // below it have read their entries out of it.
    for i in (0..n).rev() {
        for j in 0..i {
            let v = a.at(j, i);
            a.set(i, j, v);
        }
        a.row_mut(i)[i + 1..].fill(0.0);
    }
    Ok(())
}

/// Unblocked inverse of a lower-triangular matrix, in row-axpy form; `y`
/// ends exactly lower triangular. Row `i` of `Y` is `−(Σ_k l_ik · y_k) / l_ii`
/// over the finished rows `k < i`: its entries are the lanes, `G` at a time
/// in registers, and each runs the sequence the column loop gave it —
/// `s ← +0`, `s += l_ik · y_kj` for ascending `k ∈ [j, i)`, `y_ij = −s / l_ii`.
/// A lane `j > k` takes no term at step `k` (masked, not multiplied by the
/// zero above the diagonal), so non-finite entries reach exactly the
/// entries they reach in the column loop.
#[inline(always)]
fn trtri_body(l: MatRef<'_>, mut y: MatMut<'_>) {
    let n = l.rows();
    // Row `i` has `i` lanes: the narrowest power-of-two group that holds
    // them, capped by the row length and at 32.
    let cap = 32.min(1 << n.max(1).ilog2());
    for i in 0..n {
        match i.next_power_of_two().min(cap) {
            32 => trtri_row::<32>(l, y.rb_mut(), i),
            16 => trtri_row::<16>(l, y.rb_mut(), i),
            8 => trtri_row::<8>(l, y.rb_mut(), i),
            4 => trtri_row::<4>(l, y.rb_mut(), i),
            2 => trtri_row::<2>(l, y.rb_mut(), i),
            _ => trtri_row::<1>(l, y.rb_mut(), i),
        }
        let yi = y.row_mut(i);
        yi[i] = 1.0 / l.at(i, i);
        yi[i + 1..].fill(0.0);
    }
}

/// Lanes `0..i` of row `i` in groups of `G ≤ n`. The last group is shifted
/// left to end inside the row, recomputing the lanes it overlaps to the same
/// bits; lanes past the diagonal are rewritten by the caller.
#[inline(always)]
fn trtri_row<const G: usize>(l: MatRef<'_>, mut y: MatMut<'_>, i: usize) {
    let (n, li) = (l.rows(), l.row(i));
    let mut g0 = 0;
    while g0 < i {
        let start = g0.min(n - G);
        let mut acc = [0.0f64; G];
        for k in start..i {
            let (lik, yk) = (li[k], &y.row(k)[start..start + G]);
            if k + 1 < start + G {
                // +0 leaves an untouched lane's +0 sum as it is.
                for l in 0..G {
                    acc[l] += if start + l <= k { lik * yk[l] } else { 0.0 };
                }
            } else {
                for l in 0..G {
                    acc[l] += lik * yk[l];
                }
            }
        }
        for (v, s) in y.row_mut(i)[start..start + G].iter_mut().zip(acc) {
            *v = -s / li[i];
        }
        g0 = start + G;
    }
}

isa_dispatch! {
    fn trtri_unblocked(l: MatRef<'_>, y: MatMut<'_>) => trtri_body
}

/// `Y₂₁ = −Y₂₂·(L₂₁·Y₁₁)`, the off-diagonal block both recursions finish
/// with; the `L₂₁·Y₁₁` temporary comes from `ws`.
fn inverse_off_diagonal(
    l21: MatRef<'_>,
    y11: MatRef<'_>,
    y22: MatRef<'_>,
    y21: MatMut<'_>,
    backend: &dyn Backend,
    ws: &mut Workspace,
) {
    let mut t = ws.take_matrix_stale(l21.rows(), l21.cols());
    backend.gemm(1.0, l21, Trans::No, y11, Trans::No, 0.0, t.as_mut());
    backend.gemm(-1.0, y22, Trans::No, t.as_ref(), Trans::No, 0.0, y21);
    ws.recycle(t);
}

/// Inverse of a lower-triangular matrix: writes `Y = L⁻¹` into `y` (exactly
/// lower triangular).
///
/// Recursive blocked algorithm mirroring the paper's `Inv` recursion
/// (§II-D): `Y₁₁ = L₁₁⁻¹`, `Y₂₂ = L₂₂⁻¹`, `Y₂₁ = −Y₂₂·L₂₁·Y₁₁`, each block
/// written in place into its quadrant of `y`.
pub fn trtri_lower(l: MatRef<'_>, y: MatMut<'_>, backend: &dyn Backend, ws: &mut Workspace) {
    let n = l.rows();
    assert_eq!(l.cols(), n, "triangular inverse input must be square");
    assert_eq!((y.rows(), y.cols()), (n, n), "triangular inverse output shape mismatch");
    if n <= RECURSION_NB {
        return trtri_unblocked(isa(), l, y);
    }
    let h = n / 2;
    let (mut y11, mut y12, y21, mut y22) = y.split_quad(h, h);
    trtri_lower(l.sub(0, 0, h, h), y11.rb_mut(), backend, ws);
    trtri_lower(l.sub(h, h, n - h, n - h), y22.rb_mut(), backend, ws);
    y12.fill(0.0);
    inverse_off_diagonal(l.sub(h, 0, n - h, h), y11.rb(), y22.rb(), y21, backend, ws);
}

/// The paper's Algorithm 2 (`CholInv`): given SPD `A`, writes `L` and
/// `Y = L⁻¹` with `A = LLᵀ` (both exactly lower triangular), computed by a
/// single joint recursion.
///
/// ```text
/// L11, Y11 ← CholInv(A11)
/// L21 ← A21·Y11ᵀ
/// L22, Y22 ← CholInv(A22 − L21·L21ᵀ)
/// Y21 ← −Y22·L21·Y11
/// ```
///
/// This sequential routine is what every processor runs redundantly at the
/// CFR3D base case; the distributed CFR3D (crate `cacqr`) parallelizes the
/// same recursion with MM3D in place of the local multiplies. Every
/// distributed caller threads its configured backend here so redundant
/// base-case factorizations stay bitwise replicated.
pub fn cholinv(
    a: MatRef<'_>,
    l: MatMut<'_>,
    y: MatMut<'_>,
    backend: &dyn Backend,
    ws: &mut Workspace,
) -> Result<(), CholeskyError> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "CholInv input must be square");
    assert_eq!((l.rows(), l.cols()), (n, n), "CholInv factor shape mismatch");
    assert_eq!((y.rows(), y.cols()), (n, n), "CholInv inverse shape mismatch");
    cholinv_at(a, l, y, 0, backend, ws)
}

/// [`cholinv`] of the diagonal block that starts at global pivot
/// `index_offset`.
fn cholinv_at(
    a: MatRef<'_>,
    mut l: MatMut<'_>,
    y: MatMut<'_>,
    index_offset: usize,
    backend: &dyn Backend,
    ws: &mut Workspace,
) -> Result<(), CholeskyError> {
    let n = a.rows();
    if n <= RECURSION_NB {
        l.copy_from(a);
        potrf(l.rb_mut(), backend).map_err(|e| CholeskyError {
            index: index_offset + e.index,
            ..e
        })?;
        trtri_unblocked(isa(), l.rb(), y);
        return Ok(());
    }
    let h = n / 2;
    let (mut l11, mut l12, mut l21, mut l22) = l.split_quad(h, h);
    let (mut y11, mut y12, y21, mut y22) = y.split_quad(h, h);
    cholinv_at(a.sub(0, 0, h, h), l11.rb_mut(), y11.rb_mut(), index_offset, backend, ws)?;
    l12.fill(0.0);
    y12.fill(0.0);
    // L21 = A21 · Y11ᵀ
    backend.gemm(
        1.0,
        a.sub(h, 0, n - h, h),
        Trans::No,
        y11.rb(),
        Trans::Yes,
        0.0,
        l21.rb_mut(),
    );
    // S = A22 − L21·L21ᵀ
    let mut s = ws.take_copy(a.sub(h, h, n - h, n - h));
    backend.gemm(-1.0, l21.rb(), Trans::No, l21.rb(), Trans::Yes, 1.0, s.as_mut());
    let trailing = cholinv_at(s.as_ref(), l22.rb_mut(), y22.rb_mut(), index_offset + h, backend, ws);
    ws.recycle(s);
    trailing?;
    inverse_off_diagonal(l21.rb(), y11.rb(), y22.rb(), y21, backend, ws);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::CholeskyError;
    use crate::backend::blocked::Isa;
    use crate::backend::BackendKind;
    use crate::gemm::{matmul, Trans};
    use crate::matrix::{MatMut, MatRef};
    use crate::norms::{frobenius, max_abs};
    use crate::{cholinv, potrf, trtri_lower, Matrix, Workspace};

    fn zero_strict_upper(mut a: MatMut<'_>) {
        for i in 0..a.rows() {
            a.row_mut(i)[i + 1..].fill(0.0);
        }
    }

    /// The dot-form loop [`super::potrf_unblocked`] replaced: the bitwise reference.
    fn potrf_unblocked_reference(mut a: MatMut<'_>, index_offset: usize) -> Result<(), CholeskyError> {
        let n = a.rows();
        for j in 0..n {
            let mut d = a.at(j, j);
            for k in 0..j {
                let v = a.at(j, k);
                d -= v * v;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(CholeskyError {
                    index: index_offset + j,
                    pivot: d,
                });
            }
            let ljj = d.sqrt();
            a.set(j, j, ljj);
            for i in (j + 1)..n {
                let mut s = a.at(i, j);
                // s -= Σ_{k<j} L[i][k]·L[j][k]
                for k in 0..j {
                    s -= a.at(i, k) * a.at(j, k);
                }
                a.set(i, j, s / ljj);
            }
        }
        zero_strict_upper(a);
        Ok(())
    }

    /// The column loop [`super::trtri_unblocked`] replaced: the bitwise reference.
    fn trtri_unblocked_reference(l: MatRef<'_>, mut y: MatMut<'_>) {
        let n = l.rows();
        y.fill(0.0);
        for j in 0..n {
            y.set(j, j, 1.0 / l.at(j, j));
            for i in (j + 1)..n {
                let mut s = 0.0;
                for k in j..i {
                    s += l.at(i, k) * y.at(k, j);
                }
                y.set(i, j, -s / l.at(i, i));
            }
        }
    }

    /// Builds a well-conditioned SPD matrix: AᵀA + n·I of a seeded pseudo-random A.
    fn spd(n: usize) -> Matrix {
        let a = Matrix::from_fn(n, n, |i, j| ((i * n + j) as f64 * 0.61).sin());
        let mut s = crate::syrk::syrk(a.as_ref());
        for i in 0..n {
            let v = s.get(i, i);
            s.set(i, i, v + n as f64);
        }
        s
    }

    /// Every size the lane groups split differently, plus a blocked one.
    fn sizes() -> impl Iterator<Item = usize> {
        (1..=130).chain([193])
    }

    /// [`spd`] with NaN in the strict upper triangle, which the lower form
    /// never reads.
    fn spd_with_upper_junk(n: usize) -> Matrix {
        let mut a = spd(n);
        for i in 0..n {
            a.as_mut().row_mut(i)[i + 1..].fill(f64::NAN);
        }
        a
    }

    /// The upper triangle of `got` against `want` transposed.
    fn assert_upper_is_transposed(got: &Matrix, want: &Matrix, what: &str) {
        for i in 0..got.rows() {
            for j in i..got.cols() {
                let (g, w) = (got.get(i, j), want.get(j, i));
                assert!(same_bits(g, w), "{what}: ({i},{j}) is {g}, the lower form gave {w}");
            }
        }
    }

    /// Bitwise equality, except that any NaN matches any NaN: the compiler
    /// may swap the operands of an add, so which NaN payload and sign an
    /// operation on two NaNs returns is not fixed even for the loop itself.
    fn same_bits(g: f64, w: f64) -> bool {
        g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan())
    }

    fn assert_bits(got: &Matrix, want: &Matrix, what: &str) {
        for (k, (&g, &w)) in got.data().iter().zip(want.data()).enumerate() {
            assert!(same_bits(g, w), "{what}: element {k} is {g}, the loop gave {w}");
        }
    }

    /// The lane kernels are the loops they replaced, bit for bit, under
    /// every instruction set the CPU has.
    #[test]
    fn unblocked_kernels_are_bitwise_the_loops_they_replaced_under_every_isa() {
        for which in Isa::available() {
            for n in sizes() {
                let a = spd_with_upper_junk(n);
                let (mut want, mut got) = (a.clone(), a.transposed());
                potrf_unblocked_reference(want.as_mut(), 3).unwrap();
                super::potrf_unblocked(which, got.as_mut(), 3, false).unwrap();
                assert_upper_is_transposed(&got, &want, &format!("{which:?} potrf n={n}"));
                let mut l = want;
                for i in 0..n {
                    l.as_mut().row_mut(i)[i + 1..].fill(f64::NAN);
                }
                let mut want = Matrix::from_fn(n, n, |_, _| f64::NAN);
                let mut got = want.clone();
                trtri_unblocked_reference(l.as_ref(), want.as_mut());
                super::trtri_unblocked(which, l.as_ref(), got.as_mut());
                assert_bits(&got, &want, &format!("{which:?} trtri n={n}"));
            }
        }
    }

    /// Non-finite entries below the diagonal reach exactly the entries of
    /// the inverse they reached in the loop: a lane takes no term before its
    /// column, so an infinite `l_ik` is never multiplied by a zero above the
    /// diagonal of `Y`.
    #[test]
    fn unblocked_inverse_propagates_non_finite_entries_like_the_loop() {
        for which in Isa::available() {
            for (n, (i, k), v) in [
                (5, (3, 1), f64::INFINITY),
                (40, (33, 2), f64::NAN),
                (70, (69, 40), f64::NEG_INFINITY),
            ] {
                let mut l = spd(n);
                potrf(l.as_mut()).unwrap();
                l.set(i, k, v);
                let mut want = Matrix::from_fn(n, n, |_, _| 7.0);
                let mut got = want.clone();
                trtri_unblocked_reference(l.as_ref(), want.as_mut());
                super::trtri_unblocked(which, l.as_ref(), got.as_mut());
                assert_bits(&got, &want, &format!("{which:?} n={n}, {v} at ({i},{k})"));
            }
        }
    }

    /// A breakdown reports the same column and the same pivot bits as the
    /// loop: negative, zero, NaN and infinite pivots, and non-finite entries
    /// that reach a pivot through the sums.
    #[test]
    fn unblocked_cholesky_fails_where_the_loop_failed() {
        let cases: [(usize, (usize, usize), f64); 8] = [
            (5, (0, 0), -1.0),
            (40, (37, 37), -1e9),
            (64, (63, 63), 0.0),
            (33, (12, 12), f64::NAN),
            (17, (16, 16), f64::INFINITY),
            (70, (50, 3), f64::NAN),
            (48, (47, 46), f64::INFINITY),
            (9, (4, 1), 1e200),
        ];
        for which in Isa::available() {
            for (n, (i, j), v) in cases {
                let mut a = spd_with_upper_junk(n);
                a.set(i, j, v);
                let want = potrf_unblocked_reference(a.clone().as_mut(), 11).unwrap_err();
                let got = super::potrf_unblocked(which, a.transposed().as_mut(), 11, false).unwrap_err();
                assert!(
                    got.index == want.index && same_bits(got.pivot, want.pivot),
                    "{which:?} n={n}, {v} at ({i},{j}): {got:?} vs {want:?}"
                );
            }
        }
    }

    /// The blocked loop in the upper triangle gives the same bits under
    /// every instruction set (its trailing SYRKs on the same one), reads no
    /// strict-lower entry, agrees with the `Naive` backend's lower Cholesky
    /// within rounding, and at order `n ≤ NB` is one lane sweep, the loop
    /// form's bits transposed; `potrf` is `potrf_upper` transposed, bit for
    /// bit.
    #[test]
    fn upper_cholesky_agrees_across_isas_and_with_naive() {
        use crate::backend::blocked::tests::BlockedOn;
        let isas = Isa::available();
        for n in [1, 31, 32, 33, 64, 65, 127, 128, 130, 193] {
            let a = spd(n);
            let mut want = a.clone();
            potrf_unblocked_reference(want.as_mut(), 0).unwrap();
            let mut naive = a.clone();
            super::potrf(naive.as_mut(), BackendKind::Naive.get()).unwrap();
            let run = |which: Isa| {
                let mut got = a.transposed();
                for i in 0..n {
                    got.as_mut().row_mut(i)[..i].fill(f64::NAN);
                }
                super::potrf_rows(which, got.as_mut(), &BlockedOn(which)).unwrap();
                got
            };
            let first = run(isas[0]);
            for i in 0..n {
                for j in i..n {
                    let (g, w) = (first.get(i, j), naive.get(j, i));
                    assert!(
                        (g - w).abs() <= 1e-12 * (1.0 + w.abs()),
                        "n={n} ({i},{j}): {g} vs Naive {w}"
                    );
                }
            }
            if n <= super::NB {
                assert_upper_is_transposed(&first, &want, &format!("n={n} against the loop form"));
            }
            for &which in &isas[1..] {
                assert_upper_is_transposed(&run(which), &first.transposed(), &format!("{which:?} n={n}"));
            }
            let backend = BackendKind::Blocked.get();
            let (mut lower, mut upper) = (spd_with_upper_junk(n), a.transposed());
            super::potrf(lower.as_mut(), backend).unwrap();
            super::potrf_upper(upper.as_mut(), backend).unwrap();
            assert_bits(
                &lower,
                &upper.transposed(),
                &format!("potrf is potrf_upper transposed, n={n}"),
            );
        }
    }

    fn reconstruct_err(a: &Matrix, l: &Matrix) -> f64 {
        let llt = matmul(l.as_ref(), Trans::No, l.as_ref(), Trans::Yes);
        let mut d = a.clone();
        for (x, y) in d.data_mut().iter_mut().zip(llt.data()) {
            *x -= y;
        }
        frobenius(d.as_ref()) / frobenius(a.as_ref())
    }

    #[test]
    fn potrf_reconstructs_small() {
        let a = spd(17);
        let mut l = a.clone();
        potrf(l.as_mut()).unwrap();
        assert!(reconstruct_err(&a, &l) < 1e-13);
    }

    #[test]
    fn potrf_reconstructs_blocked() {
        let a = spd(193); // crosses several 64-blocks, non-multiple size
        let mut l = a.clone();
        potrf(l.as_mut()).unwrap();
        assert!(reconstruct_err(&a, &l) < 1e-12);
    }

    #[test]
    fn kernels_stay_arena_balanced_and_draw_nothing_new_when_warm() {
        // 193: several potrf blocks plus a ragged tail, odd recursion splits.
        let a = spd(193);
        let backend = BackendKind::default_kind().get();
        let mut ws = Workspace::new();
        let (mut l, mut y, mut inv) = (
            Matrix::zeros(193, 193),
            Matrix::zeros(193, 193),
            Matrix::zeros(193, 193),
        );
        let mut run = |ws: &mut Workspace| {
            let mut p = a.clone();
            super::potrf(p.as_mut(), backend).unwrap();
            super::trtri_lower(p.as_ref(), inv.as_mut(), backend, ws);
            super::cholinv(a.as_ref(), l.as_mut(), y.as_mut(), backend, ws).unwrap();
        };
        run(&mut ws);
        assert_eq!(ws.takes(), ws.recycles(), "every take recycled");
        let cold = ws.heap_allocations();
        run(&mut ws);
        assert_eq!(ws.heap_allocations(), cold, "warm calls draw entirely from the arena");
    }

    #[test]
    fn potrf_rejects_indefinite() {
        let mut a = Matrix::identity(4);
        a.set(2, 2, -1.0);
        let err = potrf(a.as_mut()).unwrap_err();
        assert_eq!(err.index, 2);
        assert!(err.pivot <= 0.0);
    }

    #[test]
    fn trtri_inverts() {
        let a = spd(48);
        let mut l = a.clone();
        potrf(l.as_mut()).unwrap();
        let y = trtri_lower(l.as_ref());
        let prod = matmul(y.as_ref(), Trans::No, l.as_ref(), Trans::No);
        let mut d = prod.clone();
        for i in 0..48 {
            let v = d.get(i, i);
            d.set(i, i, v - 1.0);
        }
        assert!(max_abs(d.as_ref()) < 1e-12);
    }

    #[test]
    fn cholinv_agrees_with_potrf_trtri() {
        let a = spd(70); // odd split sizes exercise the n-h paths
        let (l, y) = cholinv(a.as_ref()).unwrap();
        assert!(reconstruct_err(&a, &l) < 1e-12);
        let mut l2 = a.clone();
        potrf(l2.as_mut()).unwrap();
        let y2 = trtri_lower(l2.as_ref());
        for (u, v) in l.data().iter().zip(l2.data()) {
            assert!((u - v).abs() < 1e-11);
        }
        for (u, v) in y.data().iter().zip(y2.data()) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn cholinv_error_index_is_global() {
        // SPD leading block, failure deep in the trailing part.
        let n = 40;
        let mut a = Matrix::identity(n);
        a.set(37, 37, -5.0);
        let err = cholinv(a.as_ref()).unwrap_err();
        assert_eq!(err.index, 37);
    }

    #[test]
    fn factor_is_exactly_lower_triangular() {
        let a = spd(33);
        let (l, y) = cholinv(a.as_ref()).unwrap();
        for i in 0..33 {
            for j in (i + 1)..33 {
                assert_eq!(l.get(i, j), 0.0);
                assert_eq!(y.get(i, j), 0.0);
            }
        }
    }
}
