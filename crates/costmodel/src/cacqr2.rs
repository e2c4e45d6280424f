//! Cost of CA-CQR / CA-CQR2 (Algorithms 8–9, paper Tables V–VI) — exact.

use crate::cfr3d::{apply_rinv, cfr3d};
use crate::collectives;
use crate::cost::Cost;
use crate::mm3d::{mm3d_local, transpose_cube};

/// One CA-CQR pass for an `m × n` matrix on the `c × d × c` grid with the
/// given CFR3D parameters. Mirrors `cacqr::ca_cqr` line by line.
pub fn ca_cqr(m: usize, n: usize, c: usize, d: usize, base_size: usize, inverse_depth: usize) -> Cost {
    let lr = m / d;
    let lc = n / c;
    let mut cost = Cost::ZERO;
    // Line 1: row broadcast of the (m/d)×(n/c) piece over c ranks.
    cost += collectives::bcast(lr * lc, c);
    // Line 2: local Gram X = Wᵀ·A.
    cost += Cost::flops(2.0 * lc as f64 * lr as f64 * lc as f64);
    // Line 3: reduce within the contiguous y-group (size c).
    cost += collectives::reduce(lc * lc, c);
    // Line 4: allreduce across the d/c groups.
    cost += collectives::allreduce(lc * lc, d / c);
    // Line 5: depth broadcast.
    cost += collectives::bcast(lc * lc, c);
    // Lines 6–7: subcube CFR3D.
    cost += cfr3d(n, c, base_size, inverse_depth);
    // Line 8: Q = A·R⁻¹ via the inverse tree.
    cost += apply_rinv(lr, n, c, inverse_depth);
    cost
}

/// CA-CQR2 (Algorithm 9): two passes plus the subcube `R = R₂·R₁`
/// (two transposes + one MM3D, mirroring the implementation).
pub fn ca_cqr2(m: usize, n: usize, c: usize, d: usize, base_size: usize, inverse_depth: usize) -> Cost {
    let lc = n / c;
    ca_cqr(m, n, c, d, base_size, inverse_depth)
        + ca_cqr(m, n, c, d, base_size, inverse_depth)
        + transpose_cube(lc * lc, c) * 2.0
        + mm3d_local(lc, lc, lc, c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::random::well_conditioned;
    use pargrid::{DistMatrix, GridShape, TunableComms};
    use simgrid::{run_spmd, Machine, SimConfig};

    fn measure(shape: GridShape, m: usize, n: usize, base: usize, inv: usize, machine: Machine) -> f64 {
        let (c, d) = (shape.c, shape.d);
        run_spmd(shape.p(), SimConfig::with_machine(machine), move |rank| {
            let comms = TunableComms::build(rank, shape);
            let (x, y, _z) = comms.coords;
            let a = well_conditioned(m, n, 9);
            let al = DistMatrix::from_global(&a, d, c, y, x);
            let params = cacqr::CfrParams::validated(n, c, base, inv).unwrap();
            cacqr::ca_cqr2(
                rank,
                &comms,
                al.local.as_ref(),
                n,
                &params,
                &mut dense::Workspace::new(),
            )
            .unwrap();
        })
        .elapsed
    }

    #[test]
    fn model_is_exact_across_grids() {
        let cases = [
            (GridShape::one_d(4).unwrap(), 32usize, 8usize, 8usize, 0usize),
            (GridShape::new(2, 4).unwrap(), 32, 8, 4, 0),
            (GridShape::new(2, 8).unwrap(), 64, 16, 4, 0),
            (GridShape::cubic(2).unwrap(), 16, 8, 4, 0),
            (GridShape::new(2, 4).unwrap(), 64, 16, 4, 1),
        ];
        for (shape, m, n, base, inv) in cases {
            let model = ca_cqr2(m, n, shape.c, shape.d, base, inv);
            assert_eq!(
                measure(shape, m, n, base, inv, Machine::alpha_only()),
                model.alpha,
                "alpha c={} d={} m={m} n={n} inv={inv}",
                shape.c,
                shape.d
            );
            assert_eq!(
                measure(shape, m, n, base, inv, Machine::beta_only()),
                model.beta,
                "beta c={} d={} m={m} n={n} inv={inv}",
                shape.c,
                shape.d
            );
            let g = measure(shape, m, n, base, inv, Machine::gamma_only());
            assert!(
                (g - model.gamma).abs() < 1e-9 * model.gamma,
                "gamma c={} d={}: {g} vs {}",
                shape.c,
                shape.d,
                model.gamma
            );
        }
    }

    /// β-optimal c over all valid grids for P ranks.
    fn best_c(m: usize, n: usize, p: usize) -> usize {
        let mut best = (f64::INFINITY, 1usize);
        let mut c = 1usize;
        while c * c * c <= p {
            if p.is_multiple_of(c * c) {
                let d = p / (c * c);
                if d >= c && m.is_multiple_of(d) && n.is_multiple_of(c) {
                    let base = (n / (c * c)).max(c).min(n);
                    let beta = ca_cqr2(m, n, c, d, base, 0).beta;
                    if beta < best.0 {
                        best = (beta, c);
                    }
                }
            }
            c *= 2;
        }
        best.1
    }

    #[test]
    fn interpolates_between_1d_and_3d() {
        // The paper's qualitative claim (§IV-D/E): tall-skinny matrices want
        // small c (1D-like grids), squarer matrices want large c (3D-like
        // grids); the tunable grid interpolates.
        let p = 4096usize;
        // Extremely tall: 2^24 × 2^7 (m/n = 131072) — 1D-ish is optimal.
        let tall = best_c(1 << 24, 1 << 7, p);
        // Wide: 2^17 × 2^13 (m/n = 16) — replication pays.
        let wide = best_c(1 << 17, 1 << 13, p);
        assert!(tall <= 2, "tall-skinny should favor c ≤ 2, got c = {tall}");
        assert!(wide >= 8, "squarer shapes should favor c ≥ 8, got c = {wide}");
    }

    #[test]
    fn communication_improvement_over_2d_scales_as_sqrt_c() {
        // §IV: "the more replication (c), the larger the expected
        // communication improvement (√c) over 2D algorithms".
        // With m/d = n/c fixed, β ≈ (mn²/P)^{2/3}; doubling P at fixed
        // matrix shrinks β by 2^{2/3}.
        let (m, n) = (1 << 20, 1 << 10);
        let b1 = ca_cqr2(m, n, 8, m / (n / 8), n / 64, 0).beta;
        let b2 = ca_cqr2(m, n, 16, m / (n / 16), n / 256, 0).beta;
        // P grows by (16/8)² · ((m/(n/16))/(m/(n/8))) = 8; β should drop ~4x.
        let ratio = b1 / b2;
        assert!((2.5..6.0).contains(&ratio), "β ratio {ratio}");
    }
}
