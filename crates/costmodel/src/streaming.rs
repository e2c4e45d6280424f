//! Streaming-update vs. full-refresh economics (the crossover rule behind
//! `cacqr::stream::StreamingQr`'s auto-refresh decision).
//!
//! A rank-k row-append costs `O(kn² + n³)` — independent of the number of
//! rows `m` already folded into the factor — while re-running sequential
//! CholeskyQR2 over the retained history costs `O(mn² + n³)`. For small `k`
//! the update wins by roughly `m/k`; once a single delta carries a sizable
//! fraction of the total row count the refresh's drift-reset makes it the
//! better buy (see [`REFRESH_AMORTIZATION`] for the pricing).
//! [`crossover_width`] is the break-even `k`, and the streaming engine
//! consults [`append_beats_refresh`] before every delta.

use crate::cost::Cost;
use crate::cqr1d;

/// Cost of folding `k` appended rows into an `n × n` factor
/// (`dense::update::rank_k_append`): one SYRK over the stacked
/// `(n + k) × n` panel `[R; B]` and the Cholesky re-factorization.
pub fn rank_k_append(n: usize, k: usize) -> Cost {
    Cost::flops(dense_flops_syrk(n + k, n) + cube_third(n))
}

/// Cost of removing `k` rows by the block downdate
/// (`dense::update::rank_k_downdate`), summed over its panels of `kb ≤ n`
/// rows: the solve `W = B·R⁻¹`, `T = I − W·Wᵀ` and its Cholesky,
/// `S = I − Wᵀ·W` and its Cholesky, and the triangular product `Lᵀ·R`.
pub fn rank_k_downdate(n: usize, k: usize) -> Cost {
    let panel = |kb: usize| {
        dense_flops_syrk(kb, n)
            + dense_flops_gemm(kb, n, kb)
            + cube_third(kb)
            + dense_flops_syrk(kb, n)
            + cube_third(n)
            + cube_third(n)
    };
    Cost::flops((0..k).step_by(n.max(1)).map(|first| panel(n.min(k - first))).sum())
}

/// Cost of a full sequential CQR2 refresh over the `m` retained rows — the
/// 1D model at `p = 1` (no communication terms survive a single rank).
pub fn refresh(m: usize, n: usize) -> Cost {
    cqr1d::cqr2_1d(m, n, 1)
}

/// Cost of maintaining the right-hand-side track `d = Aᵀb` through a rank-k
/// delta with `nrhs` right-hand sides (`dense::flops::rhs_update`): one
/// `n × k · k × nrhs` gemm folded into the same arrival as the factor
/// update.
pub fn rhs_update(n: usize, k: usize, nrhs: usize) -> Cost {
    Cost::flops(dense_flops_gemm(n, k, nrhs))
}

/// Cost of the warm semi-normal-equations solve `RᵀR·x = d`
/// (`dense::flops::stream_solve`): two triangular substitutions through the
/// live factor, `O(n²·nrhs)` — independent of the retained row count, which
/// is what makes per-arrival solves cheap next to any refactorization.
pub fn solve(n: usize, nrhs: usize) -> Cost {
    Cost::flops(2.0 * nrhs as f64 * n as f64 * n as f64)
}

/// Cost of the *corrected* semi-normal-equations solve over `m` retained
/// rows (`dense::flops::stream_solve_refined`): the plain solve plus one
/// refinement sweep — residual, projection, and a second pair of
/// substitutions.
pub fn solve_refined(m: usize, n: usize, nrhs: usize) -> Cost {
    let base = solve(n, nrhs).gamma;
    Cost::flops(2.0 * base + dense_flops_gemm(m, n, nrhs) + 2.0 * m as f64 * nrhs as f64 + dense_flops_gemm(n, m, nrhs))
}

/// Amortization credit a refresh is priced with in
/// [`append_beats_refresh`]. A raw flop comparison would *never* choose the
/// refresh: re-factoring also processes the k appended rows, so its cost
/// grows with `k` faster than the update's. But a refresh additionally
/// resets accumulated drift — value an update does not deliver — so its
/// cost is credited as amortizing over the drift headroom it restores.
/// A credit of 12 puts the break-even at `k ≈ m₀ − 2.4n` for `m₀` rows
/// retained before the delta (refresh `≈ 6mn² + 5n³/3` over `m = m₀ + k`
/// rows against the append's `(n + k)n² + n³/3`): a delta about as wide as
/// the rows already retained re-factors, while every realistic streaming
/// width (`k ≪ m`) stays on the `O(kn² + n³)` update path.
pub const REFRESH_AMORTIZATION: f64 = 12.0;

/// Whether folding a `k`-row delta into an `n`-column factor is cheaper
/// than an (amortization-credited, see [`REFRESH_AMORTIZATION`]) full
/// refresh of the `m` retained rows. `m` counts the rows *after* the
/// append.
pub fn append_beats_refresh(m: usize, n: usize, k: usize) -> bool {
    rank_k_append(n, k).gamma < refresh(m, n).gamma / REFRESH_AMORTIZATION
}

/// The break-even update width: the smallest `k` for which a rank-k append
/// is no longer cheaper than a full refresh of `m` rows. Every `k` below
/// the returned value satisfies [`append_beats_refresh`].
pub fn crossover_width(m: usize, n: usize) -> usize {
    let nf = n as f64;
    let append_fixed = 4.0 * nf * nf * nf / 3.0;
    let guess = (refresh(m, n).gamma / REFRESH_AMORTIZATION - append_fixed) / (nf * nf);
    let mut k = if guess <= 1.0 { 1 } else { guess.ceil() as usize };
    // The closed form and the summed cost terms round differently in f64;
    // nudge onto the exact predicate boundary.
    while append_beats_refresh(m, n, k) {
        k += 1;
    }
    while k > 1 && !append_beats_refresh(m, n, k - 1) {
        k -= 1;
    }
    k
}

// Flop conventions duplicated from `dense::flops` (costmodel does not depend
// on `dense`; the equality is asserted in the tests below).
fn dense_flops_syrk(m: usize, n: usize) -> f64 {
    m as f64 * n as f64 * n as f64
}

fn dense_flops_gemm(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}

/// `n³/3`: a Cholesky, or a triangular·triangular product.
fn cube_third(n: usize) -> f64 {
    let n = n as f64;
    n * n * n / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conventions_match_dense() {
        for &(n, k) in &[(8usize, 1usize), (64, 16), (128, 64), (31, 7), (16, 35), (1, 4)] {
            assert_eq!(rank_k_append(n, k).gamma, dense::flops::rank_k_append(n, k));
            assert_eq!(rank_k_downdate(n, k).gamma, dense::flops::rank_k_downdate(n, k));
        }
    }

    #[test]
    fn solve_conventions_match_dense() {
        for &(m, n, k, nrhs) in &[(512usize, 8usize, 1usize, 1usize), (8192, 128, 64, 4), (60, 16, 3, 2)] {
            assert_eq!(rhs_update(n, k, nrhs).gamma, dense::flops::rhs_update(n, k, nrhs));
            assert_eq!(solve(n, nrhs).gamma, dense::flops::stream_solve(n, nrhs));
            assert_eq!(
                solve_refined(m, n, nrhs).gamma,
                dense::flops::stream_solve_refined(m, n, nrhs)
            );
        }
    }

    #[test]
    fn streamed_solve_is_m_independent_and_cheap() {
        // The tentpole's economics: a warm solve costs O(n²·nrhs) while the
        // refactor-then-solve alternative pays the full O(mn²) refresh per
        // arrival — the wall-clock gate's ≥5x has orders of magnitude of
        // flop-count headroom.
        let (m, n) = (8192usize, 128usize);
        let streamed = rank_k_append(n, 64).gamma + solve_refined(m, n, 1).gamma;
        let refactor = refresh(m, n).gamma + solve(n, 1).gamma;
        assert!(refactor / streamed > 5.0, "ratio {}", refactor / streamed);
    }

    #[test]
    fn refresh_at_one_rank_is_communication_free() {
        let c = refresh(8192, 128);
        assert_eq!(c.alpha, 0.0);
        assert_eq!(c.beta, 0.0);
        assert!(c.gamma > 0.0);
    }

    #[test]
    fn small_appends_beat_refresh_at_the_headline_shape() {
        // "Appending is cheaper than re-factoring" in cost-model terms: a
        // rank-64 append at 8192×128 does a small fraction of the refresh
        // work.
        let (m, n) = (8192usize, 128usize);
        for k in [1usize, 16, 64] {
            assert!(append_beats_refresh(m + k, n, k), "k={k}");
        }
        let ratio = refresh(m, n).gamma / rank_k_append(n, 64).gamma;
        assert!(
            ratio > 5.0,
            "a rank-64 append must do under a fifth of the refresh flops: {ratio:.1}"
        );
    }

    #[test]
    fn crossover_is_consistent_with_the_predicate() {
        for &(m, n) in &[(4096usize, 64usize), (8192, 128), (512, 256)] {
            let kc = crossover_width(m, n);
            assert!(kc >= 1);
            if kc > 1 {
                assert!(append_beats_refresh(m, n, kc - 1), "below break-even at m={m} n={n}");
            }
            assert!(!append_beats_refresh(m, n, kc), "at break-even at m={m} n={n}");
        }
    }

    #[test]
    fn wide_factors_lower_the_relative_payoff() {
        // Appends pay an O(n³) refactorization regardless of k, so the
        // m/k-style advantage shrinks as n approaches m.
        let r_tall = refresh(8192, 64).gamma / rank_k_append(64, 16).gamma;
        let r_fat = refresh(512, 256).gamma / rank_k_append(256, 16).gamma;
        assert!(r_tall > r_fat);
    }
}
