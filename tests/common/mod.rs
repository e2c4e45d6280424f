//! Fixtures shared by the service suites.

use cacqr::service::JobSpec;
use cacqr::Algorithm;
use dense::random::well_conditioned;
use dense::Matrix;
use pargrid::GridShape;

/// The mixed workload: every algorithm family, several shapes and grids.
pub fn mixed_specs() -> Vec<JobSpec> {
    vec![
        JobSpec::new(64, 16).grid(GridShape::new(2, 4).unwrap()),
        JobSpec::new(64, 8)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(4).unwrap()),
        JobSpec::new(32, 8)
            .algorithm(Algorithm::CaCqr3)
            .grid(GridShape::new(2, 2).unwrap()),
        JobSpec::new(64, 8)
            .algorithm(Algorithm::Pgeqrf)
            .block_cyclic(baseline::BlockCyclic { pr: 2, pc: 2, nb: 4 }),
        JobSpec::new(128, 16).grid(GridShape::new(1, 8).unwrap()),
        JobSpec::new(64, 16).grid(GridShape::new(2, 4).unwrap()).base_size(8),
    ]
}

/// The seeded well-conditioned operand of `spec`'s shape.
pub fn input_for(spec: &JobSpec, seed: u64) -> Matrix {
    well_conditioned(spec.m(), spec.n(), seed)
}
