//! Property-based tests (proptest) on the core invariants: collective
//! semantics, distribution round-trips, QR invariants over random shapes and
//! grids, the partial-inverse solver, and the batch-service equivalence
//! (`factor_many` is bit-identical to a sequential `plan.factor` loop).

use cacqr::service::{JobSpec, QrService};
use cacqr::{Algorithm, CfrParams, QrPlan};
use dense::norms::lower_residual;
use dense::random::well_conditioned;
use dense::{BackendKind, Matrix};
use pargrid::{CyclicWindows, DistMatrix, GridShape};
use proptest::prelude::*;
use simgrid::{run_spmd, Machine, SimConfig};

/// Power-of-two in [lo, hi].
fn pow2_in(lo: u32, hi: u32) -> impl Strategy<Value = usize> {
    (lo..=hi).prop_map(|e| 1usize << e)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn allreduce_equals_sequential_sum(
        p in pow2_in(0, 4),
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let report = run_spmd(p, SimConfig::default(), move |rank| {
            let world = rank.world();
            let mut buf: Vec<f64> = (0..n)
                .map(|i| (((rank.id() * n + i) as u64).wrapping_mul(seed + 1) % 997) as f64 * 0.01)
                .collect();
            world.allreduce(rank, &mut buf);
            buf
        });
        // All ranks identical, and equal to the sequential sum within rounding.
        for r in &report.results[1..] {
            prop_assert_eq!(r, &report.results[0]);
        }
        for (i, v) in report.results[0].iter().enumerate() {
            let expect: f64 = (0..p)
                .map(|r| (((r * n + i) as u64).wrapping_mul(seed + 1) % 997) as f64 * 0.01)
                .sum();
            prop_assert!((v - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn bcast_any_root_delivers(
        p in pow2_in(0, 4),
        n in 1usize..60,
        root_pick in 0usize..16,
        seed in 0u64..1000,
    ) {
        let root = root_pick % p;
        let report = run_spmd(p, SimConfig::default(), move |rank| {
            let world = rank.world();
            let mut buf: Vec<f64> = if world.my_index() == root {
                (0..n).map(|i| (i as f64 + seed as f64) * 0.5).collect()
            } else {
                vec![f64::NAN; n]
            };
            world.bcast(rank, root, &mut buf);
            buf
        });
        let expect: Vec<f64> = (0..n).map(|i| (i as f64 + seed as f64) * 0.5).collect();
        for r in &report.results {
            prop_assert_eq!(r, &expect);
        }
    }

    #[test]
    fn cyclic_distribution_round_trips(
        m in 1usize..40,
        n in 1usize..40,
        rp in 1usize..6,
        cp in 1usize..6,
    ) {
        let g = Matrix::from_fn(m, n, |i, j| (i * 131 + j) as f64);
        let pieces: Vec<Vec<Matrix>> = (0..rp)
            .map(|r| (0..cp).map(|c| DistMatrix::from_global(&g, rp, cp, r, c).local).collect())
            .collect();
        let re = DistMatrix::assemble(m, n, rp, cp, &pieces);
        prop_assert_eq!(re, g);
    }

    #[test]
    fn cyclic_windows_are_pairwise_disjoint_and_cover_the_matrix(
        m in 0usize..40,
        n in 0usize..40,
        rp in 1usize..6,
        cp in 1usize..6,
    ) {
        // Every window stamps its owner's id on everything it can write.
        // Stamping in ascending and in descending owner order leaves the same
        // matrix only if no window reaches an element of another's class: a
        // stray write survives in whichever order its writer comes second.
        let stamp = |owners: &mut dyn Iterator<Item = usize>| {
            let mut out = vec![-1.0; m * n];
            let windows = CyclicWindows::split(&mut out, m, n, rp, cp);
            let mut written = 0;
            for owner in owners {
                let (r, c) = (owner / cp, owner % cp);
                let mut window = windows.take(r, c);
                let (lr, lc) = window.local_dims();
                assert_eq!((lr, lc), DistMatrix::local_dims(m, n, rp, cp, r, c));
                written += lr * lc;
                window.deposit(Matrix::from_fn(lr, lc, |_, _| owner as f64).as_ref());
            }
            drop(windows);
            (out, written)
        };
        let (up, written) = stamp(&mut (0..rp * cp));
        let (down, _) = stamp(&mut (0..rp * cp).rev());
        prop_assert_eq!(written, m * n, "the windows' sizes add up to the matrix");
        for i in 0..m {
            for j in 0..n {
                let owner = ((i % rp) * cp + j % cp) as f64;
                prop_assert_eq!(up[i * n + j], owner, "({}, {}) ascending", i, j);
                prop_assert_eq!(down[i * n + j], owner, "({}, {}) descending", i, j);
            }
        }
    }

    #[test]
    fn block_cyclic_round_trips(
        m in 1usize..50,
        nblocks in 1usize..6,
        pr in 1usize..5,
        pc in 1usize..4,
        nb in 1usize..8,
    ) {
        let n = nblocks * nb * pc;
        let bc = baseline::BlockCyclic { pr, pc, nb };
        let g = Matrix::from_fn(m, n, |i, j| (i * 517 + j) as f64);
        let pieces: Vec<Vec<Matrix>> = (0..pr)
            .map(|r| (0..pc).map(|c| bc.scatter(&g, r, c)).collect())
            .collect();
        prop_assert_eq!(bc.assemble(m, n, &pieces), g);
    }

    #[test]
    fn cacqr2_qr_invariants_random_configs(
        c_exp in 0u32..2,
        d_extra in 0u32..3,
        m_mult in 1usize..5,
        n in pow2_in(3, 5),
        seed in 0u64..500,
    ) {
        let c = 1usize << c_exp;
        let d = c << d_extra;
        let m = (m_mult * d * n.max(8)).next_multiple_of(d);
        prop_assume!(m >= n);
        let a = well_conditioned(m, n, seed);
        let shape = GridShape::new(c, d).unwrap();
        let run = QrPlan::new(m, n).grid(shape).build().unwrap().factor(&a).unwrap();
        prop_assert!(run.orthogonality_error < 1e-11);
        prop_assert!(run.residual_error < 1e-11);
        prop_assert!(lower_residual(run.r.as_ref()) < 1e-12);
    }

    #[test]
    fn cost_model_exact_on_random_configs(
        c_exp in 0u32..2,
        d_extra in 0u32..3,
        n in pow2_in(3, 5),
        base_exp in 0u32..3,
        seed in 0u64..100,
    ) {
        let c = 1usize << c_exp;
        let d = c << d_extra;
        let m = 4 * d.max(n);
        let base = (n >> base_exp).max(c);
        let inv = 0usize;
        let shape = GridShape::new(c, d).unwrap();
        let model = costmodel::ca_cqr2(m, n, c, d, base, inv);
        let elapsed = run_spmd(shape.p(), SimConfig::with_machine(Machine::beta_only()), move |rank| {
            let comms = pargrid::TunableComms::build(rank, shape);
            let (x, y, _) = comms.coords;
            let al = DistMatrix::from_global(&well_conditioned(m, n, seed), d, c, y, x);
            let params = CfrParams::validated(n, c, base, inv).unwrap();
            cacqr::ca_cqr2(rank, &comms, al.local.as_ref(), n, &params, &mut dense::Workspace::new()).unwrap();
        })
        .elapsed;
        prop_assert_eq!(elapsed, model.beta);
    }

    #[test]
    fn factor_many_is_bit_identical_to_sequential_loop(
        batch_size in 1usize..9,
        n in pow2_in(2, 4),
        d_exp in 0u32..3,
        workers in 1usize..5,
        seed in 0u64..1000,
    ) {
        // A random batch size through a random-width pool must reproduce,
        // bit for bit, what a sequential plan.factor loop computes.
        let d = 1usize << d_exp;
        let m = (4 * n.max(d)).next_multiple_of(d);
        let spec = JobSpec::new(m, n).grid(GridShape::new(1, d).unwrap());
        let batch: Vec<Matrix> = (0..batch_size)
            .map(|i| well_conditioned(m, n, seed * 31 + i as u64))
            .collect();
        let service = QrService::builder().workers(workers).build();
        let reports = service.factor_many(&spec, batch.clone()).unwrap();
        let plan = service.plan(&spec).unwrap();
        prop_assert_eq!(reports.len(), batch.len());
        for (a, report) in batch.iter().zip(&reports) {
            let expect = plan.factor(a).unwrap();
            prop_assert_eq!(&report.q, &expect.q);
            prop_assert_eq!(&report.r, &expect.r);
            prop_assert_eq!(report.elapsed, expect.elapsed);
            prop_assert_eq!(&report.ledgers, &expect.ledgers);
        }
    }

    #[test]
    fn ragged_shape_mix_matches_sequential_factors(
        n1 in pow2_in(2, 4),
        n2 in pow2_in(2, 4),
        jobs in 2usize..10,
        seed in 0u64..1000,
    ) {
        // Two shapes interleaved through one service via submit(): each
        // report must match its own plan's sequential factorization, and the
        // cache must hold exactly one plan per distinct spec.
        let specs = [
            JobSpec::new(8 * n1, n1).grid(GridShape::new(2, 2).unwrap()),
            JobSpec::new(16 * n2, n2).algorithm(Algorithm::Cqr2_1d).grid(GridShape::one_d(4).unwrap()),
        ];
        let service = QrService::builder().workers(3).build();
        let inputs: Vec<(usize, Matrix)> = (0..jobs)
            .map(|i| {
                let which = i % specs.len();
                let s = &specs[which];
                (which, well_conditioned(s.m(), s.n(), seed * 17 + i as u64))
            })
            .collect();
        let handles: Vec<_> = inputs
            .iter()
            .map(|(which, a)| service.submit(&specs[*which], a.clone()).unwrap())
            .collect();
        for ((which, a), handle) in inputs.iter().zip(handles) {
            let report = handle.wait().unwrap();
            let expect = service.plan(&specs[*which]).unwrap().factor(a).unwrap();
            prop_assert_eq!(&report.q, &expect.q);
            prop_assert_eq!(&report.r, &expect.r);
        }
        prop_assert_eq!(service.plan_cache_len(), specs.len().min(jobs));
    }

    #[test]
    fn sequential_qr_equivalences(
        m in 16usize..64,
        n in 2usize..14,
        seed in 0u64..1000,
    ) {
        prop_assume!(m >= n);
        let a = well_conditioned(m, n, seed);
        // Householder and CQR2 must agree up to column signs.
        let (mut qh, mut rh) = dense::householder::qr(&a);
        let (mut qc, mut rc) = cacqr::cqr2(&a, BackendKind::default_kind()).unwrap();
        dense::norms::normalize_qr_signs(&mut qh, &mut rh);
        dense::norms::normalize_qr_signs(&mut qc, &mut rc);
        for (u, v) in rc.data().iter().zip(rh.data()) {
            prop_assert!((u - v).abs() < 1e-8 * (1.0 + v.abs()));
        }
        for (u, v) in qc.data().iter().zip(qh.data()) {
            prop_assert!((u - v).abs() < 1e-8);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The symmetry-aware blocked SYRK against the branch-free naive
    /// oracle, over ragged shapes straddling every blocking boundary
    /// (micro-tile, row-block, KC): 1e-13-relative agreement with the
    /// oracle, *bitwise* agreement with the backend's own gemm(Aᵀ, A)
    /// (the 1D-vs-CA Gram invariant), and bitwise symmetry. The per-ISA
    /// (scalar / AVX2 / AVX-512) sweep of the same contract lives in
    /// `dense::backend::blocked`'s unit tests.
    #[test]
    fn blocked_syrk_matches_naive_oracle_on_ragged_shapes(
        m in 1usize..300,
        n in 1usize..140,
        seed in 0u64..1000,
    ) {
        let a = dense::random::gaussian_matrix(m, n, seed);
        let naive = BackendKind::Naive.get();
        let blocked = BackendKind::Blocked.get();
        let want = naive.syrk(a.as_ref());
        let got = blocked.syrk(a.as_ref());
        let tol = 1e-13 * (m as f64).max(1.0);
        for i in 0..n {
            for j in 0..n {
                let (g, w) = (got.get(i, j), want.get(i, j));
                prop_assert!(
                    (g - w).abs() <= tol * (1.0 + w.abs()),
                    "{}x{} ({},{}): blocked {} vs naive {}", m, n, i, j, g, w
                );
                prop_assert_eq!(got.get(i, j), got.get(j, i), "bitwise symmetry");
            }
        }
        let via_gemm = blocked.matmul(a.as_ref(), dense::Trans::Yes, a.as_ref(), dense::Trans::No);
        for (s, g) in got.data().iter().zip(via_gemm.data()) {
            prop_assert_eq!(s, g, "syrk must be bitwise its own gemm(At, A)");
        }
        // The _into variant is the same kernel writing a caller buffer.
        let mut into = dense::Matrix::from_fn(n, n, |_, _| f64::NAN);
        blocked.syrk_into(a.as_ref(), into.as_mut());
        prop_assert_eq!(&into, &got);
    }
}
