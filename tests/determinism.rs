//! Determinism: repeated runs must be bitwise identical — results, cost
//! ledgers, and virtual clocks — regardless of OS thread scheduling. The
//! fixed collective schedules and combine orders guarantee it; these tests
//! enforce it.

use cacqr::{Algorithm, QrPlan};
use dense::random::well_conditioned;
use pargrid::GridShape;
use simgrid::{run_spmd, Machine, SimConfig};

#[test]
fn repeated_cacqr2_runs_are_bitwise_identical() {
    let a = well_conditioned(64, 16, 99);
    // One plan, many factorizations: the reuse path must also be bitwise
    // reproducible.
    let plan = QrPlan::new(64, 16)
        .grid(GridShape::new(2, 4).unwrap())
        .base_size(4)
        .machine(Machine::stampede2(64))
        .build()
        .unwrap();
    let first = plan.factor(&a).unwrap();
    for _ in 0..3 {
        let again = plan.factor(&a).unwrap();
        assert_eq!(first.q, again.q, "Q must be bitwise reproducible");
        assert_eq!(first.r, again.r, "R must be bitwise reproducible");
        assert_eq!(
            first.elapsed, again.elapsed,
            "virtual time must be bitwise reproducible"
        );
        assert_eq!(first.ledgers, again.ledgers, "ledgers must be bitwise reproducible");
    }
}

#[test]
fn allreduce_result_is_schedule_independent() {
    // Stress the transport/thread layer: many repetitions under contention
    // must all produce the identical bits.
    let p = 16usize;
    let n = 257usize; // odd length exercises the padding path
    let reference = run_spmd(p, SimConfig::default(), move |rank| {
        let world = rank.world();
        let mut buf: Vec<f64> = (0..n).map(|i| ((rank.id() * n + i) as f64).sin()).collect();
        world.allreduce(rank, &mut buf);
        buf
    })
    .results;
    for _ in 0..5 {
        let again = run_spmd(p, SimConfig::default(), move |rank| {
            let world = rank.world();
            let mut buf: Vec<f64> = (0..n).map(|i| ((rank.id() * n + i) as f64).sin()).collect();
            world.allreduce(rank, &mut buf);
            buf
        })
        .results;
        assert_eq!(reference, again);
    }
}

#[test]
fn pgeqrf_is_deterministic() {
    let a = well_conditioned(64, 32, 55);
    let plan = QrPlan::new(64, 32)
        .algorithm(Algorithm::Pgeqrf)
        .block_cyclic(baseline::BlockCyclic { pr: 4, pc: 2, nb: 8 })
        .machine(Machine::bluewaters(16))
        .build()
        .unwrap();
    let first = plan.factor(&a).unwrap();
    let again = plan.factor(&a).unwrap();
    assert_eq!(first.q, again.q);
    assert_eq!(first.r, again.r);
    assert_eq!(first.elapsed, again.elapsed);
}
