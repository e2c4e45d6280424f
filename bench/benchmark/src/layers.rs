//! The fixed per-layer suite of a traced run: each row times one public
//! function of one layer at the shape a workload induces (named in the row's
//! comment), as a median over at least 50 calls. The suite is the same under
//! every workload, so any traced run can be compared with any other.

use crate::gen::{gaussian_matrix, spd_matrix, Rng};
use crate::metrics::Metrics;
use crate::stats::{median, median_time};
use cacqr::service::{JobSpec, QrService};
use cacqr::{Algorithm, CfrParams, Tuner};
use dense::{BackendKind, Matrix, Trans, Workspace};
use pargrid::{DistMatrix, GridShape, TunableComms};
use simgrid::{run_spmd, Comm, Rank, RuntimeKind, SimConfig};
use std::time::Instant;

const REPS: usize = 50;

/// Elements per triad array: 32 MiB, 8× the 4 MiB L2 of the reference box.
/// (Its 260 MiB L3 is a slice of a shared host cache; arrays 4× that size
/// would not fit the run's time, so the row is L3-or-better bandwidth and
/// the README says so.)
const TRIAD_LEN: usize = 4 << 20;

/// A kernel row: achieved rate, plus the computed traffic the choosing-
/// metrics sheet asks for (array sizes only — cache misses not counted).
struct KernelRow {
    name: &'static str,
    flops: f64,
    computed_bytes: f64,
    seconds: f64,
}

impl KernelRow {
    fn gflops(&self) -> f64 {
        self.flops / self.seconds * 1e-9
    }

    /// Achieved rate over the roofline bound: the lower of the measured peak
    /// rate and measured bandwidth × operations per byte.
    fn roofline_frac(&self, peak_gflops: f64, triad_gbs: f64) -> f64 {
        self.gflops() / peak_gflops.min(triad_gbs * self.flops / self.computed_bytes)
    }
}

fn bytes_of(elements: usize) -> f64 {
    8.0 * elements as f64
}

/// `dense`: the roofline, then every kernel the four workloads lean on.
fn dense_rows(seed: u64, metrics: &mut Metrics, report: &mut Vec<String>) {
    let kind = BackendKind::default_kind();
    let backend = kind.get();
    let mut rng = Rng::new(seed, 100);

    let probe = dense::probe_gemm(kind, 256, 10);
    let peak = probe.gflops();
    let (mut x, y, z) = (
        vec![0.0f64; TRIAD_LEN],
        vec![1.0f64; TRIAD_LEN],
        vec![2.0f64; TRIAD_LEN],
    );
    let triad_s = median_time(
        REPS,
        || (),
        |()| {
            for ((xi, yi), zi) in x.iter_mut().zip(&y).zip(&z) {
                *xi = yi + 3.0 * zi;
            }
            x[TRIAD_LEN / 2]
        },
    );
    let triad_gbs = bytes_of(3 * TRIAD_LEN) / triad_s * 1e-9;
    metrics.set("dense.probe_gflops", peak);
    metrics.set("dense.triad_gbs", triad_gbs);

    let mut rows = Vec::new();
    // tall_skinny_1d, per rank: Q = A·R⁻¹ and the Gram matrix of an 8192×64 panel.
    let (pm, pn) = (8192, 64);
    let panel = gaussian_matrix(&mut rng, pm, pn);
    let small = gaussian_matrix(&mut rng, pn, pn);
    let mut out = Matrix::zeros(pm, pn);
    let seconds = median_time(
        REPS,
        || (),
        |()| {
            backend.gemm(
                1.0,
                panel.as_ref(),
                Trans::No,
                small.as_ref(),
                Trans::No,
                0.0,
                out.as_mut(),
            )
        },
    );
    rows.push(KernelRow {
        name: "dense.gemm_gflops",
        flops: 2.0 * (pm * pn * pn) as f64,
        computed_bytes: bytes_of(2 * pm * pn + pn * pn),
        seconds,
    });
    let mut gram = Matrix::zeros(pn, pn);
    let seconds = median_time(REPS, || (), |()| backend.syrk_into(panel.as_ref(), gram.as_mut()));
    rows.push(KernelRow {
        name: "dense.syrk_gflops",
        flops: (pm * pn * pn) as f64,
        computed_bytes: bytes_of(pm * pn + pn * pn),
        seconds,
    });

    // square_ca_3d: the n = 256 Cholesky family under CFR3D.
    let n = 256;
    let cube = (n * n * n) as f64;
    let spd = spd_matrix(&mut rng, n);
    let seconds = median_time(REPS, || spd.clone(), |mut a| dense::potrf(a.as_mut()).is_ok());
    rows.push(KernelRow {
        name: "dense.potrf_gflops",
        flops: cube / 3.0,
        computed_bytes: bytes_of(2 * n * n),
        seconds,
    });
    let seconds = median_time(REPS, || (), |()| dense::cholinv(spd.as_ref()).is_ok());
    rows.push(KernelRow {
        name: "dense.cholinv_gflops",
        flops: 2.0 * cube / 3.0,
        computed_bytes: bytes_of(3 * n * n),
        seconds,
    });
    let mut lower = spd.clone();
    dense::potrf(lower.as_mut()).expect("Gram matrix of a Gaussian 2n×n panel is positive definite");
    let seconds = median_time(REPS, || (), |()| dense::trtri_lower(lower.as_ref()));
    rows.push(KernelRow {
        name: "dense.trtri_gflops",
        flops: cube / 3.0,
        computed_bytes: bytes_of(2 * n * n),
        seconds,
    });

    // stream_window: snapshot's 4096×128 right-upper solve, and the rank-64
    // append and downdate of a 128×128 factor.
    let (sm, sn, sk) = (4096, 128, 64);
    let window = gaussian_matrix(&mut rng, sm, sn);
    let mut gram = spd_matrix(&mut rng, sn);
    dense::potrf(gram.as_mut()).expect("Gram matrix of a Gaussian 2n×n panel is positive definite");
    let upper = gram.transposed();
    let seconds = median_time(
        REPS,
        || window.clone(),
        |mut b| dense::trsm_right_upper(upper.as_ref(), b.as_mut()),
    );
    rows.push(KernelRow {
        name: "dense.trsm_gflops",
        flops: (sm * sn * sn) as f64,
        computed_bytes: bytes_of(2 * sm * sn + sn * sn),
        seconds,
    });
    let block = gaussian_matrix(&mut rng, sk, sn);
    let mut ws = Workspace::new();
    let seconds = median_time(
        REPS,
        || upper.clone(),
        |mut r| dense::rank_k_append(r.as_mut(), block.as_ref(), backend, &mut ws).is_ok(),
    );
    rows.push(KernelRow {
        name: "dense.rank_k_append_gflops",
        flops: (sk * sn * sn) as f64 + 2.0 * (sn * sn * sn) as f64 / 3.0,
        computed_bytes: bytes_of(sk * sn + 2 * sn * sn),
        seconds,
    });
    let mut appended = upper.clone();
    dense::rank_k_append(appended.as_mut(), block.as_ref(), backend, &mut ws).expect("append of a Gaussian block");
    let seconds = median_time(
        REPS,
        || appended.clone(),
        |mut r| dense::rank_k_downdate(r.as_mut(), block.as_ref(), &mut ws).is_ok(),
    );
    rows.push(KernelRow {
        name: "dense.rank_k_downdate_gflops",
        flops: 3.0 * (sk * sn * sn) as f64,
        computed_bytes: bytes_of(sk * sn + 2 * sn * sn),
        seconds,
    });

    report.push(format!(
        "roofline: peak {peak:.2} Gflop/s (probe_gemm 256^3), triad {triad_gbs:.2} GB/s (3 x {} MiB arrays)",
        (TRIAD_LEN * 8) >> 20
    ));
    for row in &rows {
        metrics.set(row.name, row.gflops());
        report.push(format!(
            "{:<30} {:>8.3} Gflop/s  computed {:>10.0} bytes, {:>6.2} flop/byte, {:.2} of roofline",
            row.name,
            row.gflops(),
            row.computed_bytes,
            row.flops / row.computed_bytes,
            row.roofline_frac(peak, triad_gbs),
        ));
    }
    metrics.set("dense.gemm_roofline_frac", rows[0].roofline_frac(peak, triad_gbs));
    metrics.set("dense.syrk_roofline_frac", rows[1].roofline_frac(peak, triad_gbs));
}

/// Rank 0's median seconds of one `collective` over a `words`-word buffer
/// among `p` ranks, from a loop of timed calls inside one `run_spmd` region.
fn collective_s(
    p: usize,
    runtime: RuntimeKind,
    words: usize,
    collective: impl Fn(&mut Rank, &Comm, &mut [f64]) + Sync,
) -> f64 {
    let cfg = SimConfig::default().on_runtime(runtime);
    let report = run_spmd(p, cfg, |rank| {
        let world = rank.world();
        let mut buf = vec![0.0; words];
        let samples: Vec<f64> = (0..2 * REPS + 5)
            .map(|_| {
                buf.fill(1.0);
                let t = Instant::now();
                collective(rank, &world, &mut buf);
                t.elapsed().as_secs_f64()
            })
            .collect();
        // The first five calls warm the communication arena.
        median(&samples[5..])
    });
    report.results[0]
}

/// `simgrid`: the measured transport, region start/join, and the
/// collectives at the sizes the factor workloads send.
fn simgrid_rows(metrics: &mut Metrics) {
    let shm = RuntimeKind::SharedMem;
    let probe = simgrid::probe_shm_alpha_beta();
    metrics.set("simgrid.alpha_s", probe.alpha);
    metrics.set("simgrid.beta_s_per_word", probe.beta);
    for (name, p) in [("simgrid.spawn_join_p2_s", 2), ("simgrid.spawn_join_p8_s", 8)] {
        let cfg = SimConfig::default().on_runtime(shm);
        metrics.set(
            name,
            median_time(REPS, || (), |()| run_spmd(p, cfg, |_| ()).wall_seconds),
        );
    }
    // A 64×64 Gram matrix (tall_skinny_1d's two allreduces) and a 16384-word
    // panel (square_ca_3d's broadcasts and CFR3D's base-case allgather).
    let allreduce = |rank: &mut Rank, world: &Comm, buf: &mut [f64]| world.allreduce(rank, buf);
    metrics.set("simgrid.allreduce_p2_s", collective_s(2, shm, 4096, allreduce));
    metrics.set("simgrid.allreduce_p8_s", collective_s(8, shm, 4096, allreduce));
    metrics.set(
        "simgrid.sim_allreduce_p2_s",
        collective_s(2, RuntimeKind::Simulated, 4096, allreduce),
    );
    metrics.set(
        "simgrid.bcast_p8_s",
        collective_s(8, shm, 16384, |rank, world, buf| world.bcast(rank, 0, buf)),
    );
    metrics.set(
        "simgrid.allgather_p8_s",
        collective_s(8, shm, 16384 / 8, |rank, world, buf| {
            let gathered = world.allgather(rank, buf);
            rank.recycle_comm(gathered);
        }),
    );
    metrics.set(
        "simgrid.barrier_p8_s",
        collective_s(8, shm, 0, |rank, world, _| world.barrier(rank)),
    );
}

/// `cacqr`: MM3D and CFR3D at n = 256 on the c = 2 cube (square_ca_3d's
/// subcube), rank 0's median from a loop inside one shm region.
fn cacqr_rows(seed: u64, metrics: &mut Metrics) {
    let (n, c) = (256, 2);
    let mut rng = Rng::new(seed, 101);
    let a = gaussian_matrix(&mut rng, n, n);
    let spd = spd_matrix(&mut rng, n);
    let params = CfrParams::default_for(n, c);
    let cfg = SimConfig::default().on_runtime(RuntimeKind::SharedMem);
    let report = run_spmd(c * c * c, cfg, |rank| {
        let comms = TunableComms::build(rank, GridShape::cubic(c).expect("c = 2 is a valid cube"));
        let cube = &comms.subcube;
        let (x, yh, _z) = cube.coords;
        let a_local = DistMatrix::from_global(&a, c, c, yh, x).local;
        let spd_local = DistMatrix::from_global(&spd, c, c, yh, x).local;
        let mut ws = Workspace::new();
        let (mut mm3d_s, mut cfr3d_s) = (Vec::new(), Vec::new());
        for rep in 0..REPS + 5 {
            let t = Instant::now();
            let product = cacqr::mm3d(rank, cube, &a_local, &a_local, params.backend, &mut ws);
            let mm3d = t.elapsed().as_secs_f64();
            ws.recycle(product);
            let t = Instant::now();
            let (l, tree) = cacqr::cfr3d(rank, cube, &spd_local, n, &params, &mut ws).expect("SPD input");
            let cfr3d = t.elapsed().as_secs_f64();
            ws.recycle(l);
            tree.recycle_into(&mut ws);
            // The first five calls warm the arena.
            if rep >= 5 {
                mm3d_s.push(mm3d);
                cfr3d_s.push(cfr3d);
            }
        }
        (median(&mm3d_s), median(&cfr3d_s))
    });
    metrics.set("cacqr.mm3d_s", report.results[0].0);
    metrics.set("cacqr.cfr3d_s", report.results[0].1);
}

/// `tuner` and the service's plan cache: a cost-model-only report for
/// 512×256 at P = 8, a cache hit, and an evict-then-rebuild miss.
fn planning_rows(metrics: &mut Metrics) -> Result<(), String> {
    let tuner = Tuner::new(512, 256).processors(8).calibrate(false);
    tuner.report().map_err(|e| e.to_string())?;
    metrics.set("tuner.report_s", median_time(REPS, || (), |()| tuner.report().is_ok()));

    let service = QrService::builder().workers(1).runtime(RuntimeKind::Simulated).build();
    let spec = JobSpec::new(64, 16)
        .algorithm(Algorithm::Cqr2_1d)
        .grid(GridShape::one_d(1).map_err(|e| e.to_string())?);
    service.plan(&spec).map_err(|e| e.to_string())?;
    // A hit is tens of nanoseconds: time batches so the clock can see it.
    const BATCH: usize = 256;
    let hit_s = median_time(
        REPS,
        || (),
        |()| {
            (0..BATCH)
                .filter(|_| service.plan(std::hint::black_box(&spec)).is_ok())
                .count()
        },
    );
    metrics.set("service.plan_hit_s", hit_s / BATCH as f64);
    let miss_s = median_time(
        REPS,
        || (),
        |()| {
            service.evict(&spec);
            service.plan(&spec).is_ok()
        },
    );
    metrics.set("service.plan_miss_s", miss_s);
    Ok(())
}

/// Runs the whole suite; `report` collects the human-readable kernel table.
pub fn layer_suite(seed: u64, metrics: &mut Metrics, report: &mut Vec<String>) -> Result<(), String> {
    dense_rows(seed, metrics, report);
    simgrid_rows(metrics);
    cacqr_rows(seed, metrics);
    planning_rows(metrics)
}
