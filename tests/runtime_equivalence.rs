//! Cross-backend equivalence: the simulated runtime and the measured
//! shared-memory runtime must be *indistinguishable* in every model-level
//! output.
//!
//! Both runtimes run the one butterfly schedule `simgrid::collectives` has
//! per collective over the one shared-window transport — virtual ranks,
//! block orders, reduction orders and α-β-γ charges are shared code; only
//! the pinning of rank threads differs — so for every algorithm and shape
//! the two backends must agree **bitwise** on the factors, and exactly on
//! the virtual clocks and per-rank ledgers. `simgrid`'s unit tests check
//! that per collective; this suite checks it through whole factorizations
//! (grids, nested sub-communicators, transposes). Anything less would mean
//! the wall-clock numbers measured on the shm backend describe a different
//! computation than the one the cost model prices.

use baseline::BlockCyclic;
use cacqr::driver::{Algorithm, QrPlan, QrPlanBuilder, QrReport};
use pargrid::GridShape;
use simgrid::{Machine, RuntimeKind};

/// Builds the same plan on both backends and factors the same matrix.
fn factor_both(build: impl Fn() -> QrPlanBuilder, m: usize, n: usize, seed: u64) -> (QrReport, QrReport) {
    let a = dense::random::well_conditioned(m, n, seed);
    let sim = build()
        .runtime(RuntimeKind::Simulated)
        .build()
        .unwrap()
        .factor(&a)
        .unwrap();
    let shm = build()
        .runtime(RuntimeKind::SharedMem)
        .build()
        .unwrap()
        .factor(&a)
        .unwrap();
    (sim, shm)
}

fn assert_identical(sim: &QrReport, shm: &QrReport, what: &str) {
    assert_eq!(sim.q, shm.q, "{what}: Q must be bitwise identical across backends");
    assert_eq!(sim.r, shm.r, "{what}: R must be bitwise identical across backends");
    assert_eq!(
        sim.elapsed.to_bits(),
        shm.elapsed.to_bits(),
        "{what}: virtual clocks must agree exactly"
    );
    assert_eq!(sim.ledgers.len(), shm.ledgers.len());
    for (i, (a, b)) in sim.ledgers.iter().zip(&shm.ledgers).enumerate() {
        assert_eq!(a.msgs_sent, b.msgs_sent, "{what}: rank {i} message count");
        assert_eq!(a.words_sent, b.words_sent, "{what}: rank {i} word count");
        assert_eq!(a.msgs_recv, b.msgs_recv, "{what}: rank {i} receive count");
        assert_eq!(a.words_recv, b.words_recv, "{what}: rank {i} received words");
        assert_eq!(a.flops.to_bits(), b.flops.to_bits(), "{what}: rank {i} flops");
    }
    assert_eq!(
        sim.orthogonality_error.to_bits(),
        shm.orthogonality_error.to_bits(),
        "{what}: identical factors give identical diagnostics"
    );
    assert_eq!(sim.residual_error.to_bits(), shm.residual_error.to_bits());
    assert!(sim.orthogonality_error < 1e-12, "{what}: and the factors are good");
}

/// The paper's evaluation ladder: tall-skinny shapes at a few aspect
/// ratios, under a real machine model so the clock comparison is
/// non-trivial.
const LADDER: [(usize, usize); 3] = [(128, 16), (256, 32), (512, 32)];

#[test]
fn cqr2_1d_backends_agree_bitwise() {
    for (m, n) in LADDER {
        let (sim, shm) = factor_both(
            || {
                QrPlan::new(m, n)
                    .algorithm(Algorithm::Cqr2_1d)
                    .grid(GridShape::one_d(8).unwrap())
                    .machine(Machine::stampede2(64))
            },
            m,
            n,
            1,
        );
        assert_identical(&sim, &shm, &format!("1d-cqr2 {m}x{n}"));
    }
}

#[test]
fn ca_cqr2_backends_agree_bitwise() {
    for (m, n) in LADDER {
        let (sim, shm) = factor_both(
            || {
                QrPlan::new(m, n)
                    .algorithm(Algorithm::CaCqr2)
                    .grid(GridShape::new(2, 4).unwrap())
                    .machine(Machine::stampede2(64))
            },
            m,
            n,
            2,
        );
        assert_identical(&sim, &shm, &format!("ca-cqr2 {m}x{n}"));
    }
}

#[test]
fn ca_cqr3_backends_agree_bitwise() {
    for (m, n) in LADDER {
        let (sim, shm) = factor_both(
            || {
                QrPlan::new(m, n)
                    .algorithm(Algorithm::CaCqr3)
                    .grid(GridShape::new(2, 4).unwrap())
                    .machine(Machine::stampede2(64))
            },
            m,
            n,
            3,
        );
        assert_identical(&sim, &shm, &format!("ca-cqr3 {m}x{n}"));
    }
}

#[test]
fn pgeqrf_backends_agree_bitwise() {
    for (m, n) in LADDER {
        let (sim, shm) = factor_both(
            || {
                QrPlan::new(m, n)
                    .algorithm(Algorithm::Pgeqrf)
                    .block_cyclic(BlockCyclic { pr: 4, pc: 2, nb: 8 })
                    .machine(Machine::stampede2(64))
            },
            m,
            n,
            4,
        );
        assert_identical(&sim, &shm, &format!("pgeqrf {m}x{n}"));
    }
}

/// The wall clock is a real measurement on both backends (positive), and
/// the runtime knob round-trips through the plan.
#[test]
fn wall_seconds_is_populated_and_runtime_is_observable() {
    let plan = QrPlan::new(128, 16)
        .grid(GridShape::new(2, 4).unwrap())
        .runtime(RuntimeKind::SharedMem)
        .build()
        .unwrap();
    assert_eq!(plan.runtime(), RuntimeKind::SharedMem);
    let report = plan.factor(&dense::random::well_conditioned(128, 16, 9)).unwrap();
    assert!(report.wall_seconds > 0.0, "the SPMD region takes measurable time");
}
