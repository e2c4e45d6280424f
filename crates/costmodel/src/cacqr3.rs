//! Cost of shifted CA-CQR3 (the paper's §V extension) — exact for the
//! non-retrying path.
//!
//! Mirrors `cacqr::ca_cqr3` line by line: the `‖A‖_F²` estimation (local
//! square-sum plus three 1-word allreduces over the `ygroup`, `ystride`, and
//! `row` communicators), one shifted CA-CQR pass (the diagonal shift itself
//! adds no charged flops), a plain CA-CQR2 on the well-conditioned `Q₁`, and
//! the final `R = R₂₃·R₁` combine over the subcube (one transpose + one
//! MM3D). The model assumes the shifted Cholesky succeeds on the first try,
//! which holds for every numerically full-rank input the implementation's
//! shift bound covers; pathological retries re-run the first pass and are
//! deliberately not modelled.

use crate::cacqr2::{ca_cqr, ca_cqr2};
use crate::collectives;
use crate::cost::Cost;
use crate::mm3d::{mm3d_local, transpose_cube};

/// CA-CQR3 for an `m × n` matrix on the `c × d × c` grid with the given
/// CFR3D parameters.
pub fn ca_cqr3(m: usize, n: usize, c: usize, d: usize, base_size: usize, inverse_depth: usize) -> Cost {
    let lr = m / d;
    let lc = n / c;
    // ‖A‖_F²: local partial plus the ygroup → ystride → row allreduce chain.
    let mut cost = Cost::flops(2.0 * lr as f64 * lc as f64);
    cost += collectives::allreduce(1, c);
    cost += collectives::allreduce(1, d / c);
    cost += collectives::allreduce(1, c);
    // Pass 1: shifted CA-CQR (identical schedule and flop charges to the
    // plain pass — the `+σI` writes are not charged).
    cost += ca_cqr(m, n, c, d, base_size, inverse_depth);
    // Passes 2–3: CA-CQR2 on Q₁.
    cost += ca_cqr2(m, n, c, d, base_size, inverse_depth);
    // R = R₂₃ · R₁ over the subcube.
    cost += transpose_cube(lc * lc, c);
    cost += mm3d_local(lc, lc, lc, c);
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::random::well_conditioned;
    use pargrid::{DistMatrix, GridShape, TunableComms};
    use simgrid::{run_spmd, Machine, SimConfig};

    fn measure(shape: GridShape, m: usize, n: usize, machine: Machine) -> f64 {
        let (c, d) = (shape.c, shape.d);
        run_spmd(shape.p(), SimConfig::with_machine(machine), move |rank| {
            let comms = TunableComms::build(rank, shape);
            let (x, y, _z) = comms.coords;
            let a = well_conditioned(m, n, 11);
            let al = DistMatrix::from_global(&a, d, c, y, x);
            let params = cacqr::CfrParams::default_for(n, c);
            cacqr::ca_cqr3(
                rank,
                &comms,
                al.local.as_ref(),
                m,
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
        for (shape, m, n) in [
            (GridShape::one_d(4).unwrap(), 32usize, 8usize),
            (GridShape::new(2, 4).unwrap(), 32, 8),
            (GridShape::cubic(2).unwrap(), 16, 8),
        ] {
            let params = cacqr::CfrParams::default_for(n, shape.c);
            let model = ca_cqr3(m, n, shape.c, shape.d, params.base_size, params.inverse_depth);
            assert_eq!(
                measure(shape, m, n, Machine::alpha_only()),
                model.alpha,
                "alpha c={} d={}",
                shape.c,
                shape.d
            );
            assert_eq!(
                measure(shape, m, n, Machine::beta_only()),
                model.beta,
                "beta c={} d={}",
                shape.c,
                shape.d
            );
            let g = measure(shape, m, n, Machine::gamma_only());
            assert!(
                (g - model.gamma).abs() < 1e-9 * model.gamma,
                "gamma c={} d={}: {g} vs {}",
                shape.c,
                shape.d,
                model.gamma
            );
        }
    }

    #[test]
    fn costs_roughly_three_passes() {
        // CQR3 runs three CholeskyQR passes against CQR2's two: γ must land
        // between 1.2× and 1.8× the CQR2 cost for a bandwidth-dominated shape.
        let (m, n, c, d) = (1 << 20, 1 << 10, 4, 1 << 14);
        let base = (n / (c * c)).max(c);
        let r = ca_cqr3(m, n, c, d, base, 0).gamma / ca_cqr2(m, n, c, d, base, 0).gamma;
        assert!((1.2..1.8).contains(&r), "γ ratio {r}");
    }
}
