//! Cost of 1D-CQR / 1D-CQR2 (Algorithms 6–7, paper Tables III–IV) — exact.

use crate::collectives;
use crate::cost::Cost;

/// One 1D-CQR pass for an `m × n` matrix over `p` ranks.
pub fn cqr1d(m: usize, n: usize, p: usize) -> Cost {
    let lr = m / p;
    Cost::flops(dense_flops_syrk(lr, n))
        + collectives::allreduce(n * n, p)
        + Cost::flops(dense_flops_cholinv(n))
        + Cost::flops(dense_flops_gemm(lr, n, n))
}

/// 1D-CQR2: two passes plus the local `R = R₂·R₁`.
pub fn cqr2_1d(m: usize, n: usize, p: usize) -> Cost {
    cqr1d(m, n, p) + cqr1d(m, n, p) + Cost::flops(dense_flops_triu(n))
}

// Flop conventions duplicated from `dense::flops` (costmodel does not depend
// on `dense`; the equality is asserted in the integration tests).
fn dense_flops_syrk(m: usize, n: usize) -> f64 {
    m as f64 * n as f64 * n as f64
}
fn dense_flops_gemm(m: usize, n: usize, k: usize) -> f64 {
    2.0 * m as f64 * n as f64 * k as f64
}
fn dense_flops_cholinv(n: usize) -> f64 {
    2.0 * (n as f64).powi(3) / 3.0
}
fn dense_flops_triu(n: usize) -> f64 {
    (n as f64).powi(3) / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::random::well_conditioned;
    use simgrid::{run_spmd, Machine, SimConfig};

    fn measure(p: usize, m: usize, n: usize, machine: Machine) -> f64 {
        run_spmd(p, SimConfig::with_machine(machine), move |rank| {
            let world = rank.world();
            let a = well_conditioned(m, n, 5);
            let a_local = a.as_ref().step_rows(rank.id(), p);
            let mut q_local = dense::Matrix::zeros(a_local.rows(), n);
            cacqr::cqr2_1d(
                rank,
                &world,
                a_local,
                q_local.as_mut(),
                false,
                cacqr::FlopCharges::OneD,
                dense::BackendKind::default_kind(),
                &mut dense::Workspace::new(),
            )
            .unwrap();
        })
        .elapsed
    }

    #[test]
    fn model_is_exact() {
        for (p, m, n) in [(1usize, 16usize, 8usize), (2, 32, 8), (4, 64, 16), (8, 64, 8)] {
            let model = cqr2_1d(m, n, p);
            assert_eq!(measure(p, m, n, Machine::alpha_only()), model.alpha, "alpha p={p}");
            assert_eq!(measure(p, m, n, Machine::beta_only()), model.beta, "beta p={p}");
            let g = measure(p, m, n, Machine::gamma_only());
            assert!(
                (g - model.gamma).abs() < 1e-9 * model.gamma,
                "gamma p={p}: {g} vs {}",
                model.gamma
            );
        }
    }

    #[test]
    fn table1_1dcqr_shape() {
        // Table I row 3: latency Θ(log P), bandwidth Θ(n²), flops Θ(mn²/P + n³).
        let (m, n) = (1 << 16, 64usize);
        let c8 = cqr1d(m, n, 8);
        let c64 = cqr1d(m, n, 64);
        // Bandwidth is independent of P.
        assert!((c8.beta / c64.beta - 1.0).abs() < 0.2, "β must not scale with P");
        // α grows logarithmically: ratio log(64)/log(8) = 2.
        assert!((c64.alpha / c8.alpha - 2.0).abs() < 0.01);
    }
}
