//! Tables II–VI: per-line cost verification.
//!
//! For each algorithm (CFR3D, 1D-CQR/CQR2, CA-CQR/CQR2) this binary runs the
//! *implementation* on the simulator under the three unit machines
//! (α-only / β-only / γ-only) and prints measured versus modelled costs —
//! the executable form of the paper's per-line cost tables.
//!
//! Run: `cargo run --release -p bench --bin tables2_6`

use cacqr::CfrParams;
use dense::random::well_conditioned;
use dense::Matrix;
use pargrid::{DistMatrix, GridShape, TunableComms};
use simgrid::{run_spmd, Machine, SimConfig};

fn measure3(p: usize, f: impl Fn(&mut simgrid::Rank) + Sync + Copy) -> (f64, f64, f64) {
    let a = run_spmd(p, SimConfig::with_machine(Machine::alpha_only()), f).elapsed;
    let b = run_spmd(p, SimConfig::with_machine(Machine::beta_only()), f).elapsed;
    let g = run_spmd(p, SimConfig::with_machine(Machine::gamma_only()), f).elapsed;
    (a, b, g)
}

fn spd(n: usize) -> Matrix {
    let a = Matrix::from_fn(n, n, |i, j| ((i * n + j) as f64 * 0.37).sin());
    let mut s = dense::syrk(a.as_ref());
    for i in 0..n {
        let v = s.get(i, i);
        s.set(i, i, v + 2.0 * n as f64);
    }
    s
}

fn row(label: &str, measured: (f64, f64, f64), model: costmodel::Cost) {
    let ok = |m: f64, pred: f64| {
        if (m - pred).abs() <= 1e-6 * pred.max(1.0) {
            "exact"
        } else {
            "DIFFERS"
        }
    };
    println!(
        "{label}\talpha {} ({} vs {})\tbeta {} ({} vs {})\tgamma {} ({:.1} vs {:.1})",
        ok(measured.0, model.alpha),
        measured.0,
        model.alpha,
        ok(measured.1, model.beta),
        measured.1,
        model.beta,
        ok(measured.2, model.gamma),
        measured.2,
        model.gamma
    );
}

fn main() {
    println!("# Table II: CFR3D measured (simulator) vs model, per configuration");
    for (c, n, base, inv) in [(2usize, 32usize, 8usize, 0usize), (2, 64, 8, 1), (4, 64, 4, 0)] {
        let meas = measure3(c * c * c, move |rank| {
            let shape = GridShape::cubic(c).unwrap();
            let comms = TunableComms::build(rank, shape);
            let (x, yh, _) = comms.subcube.coords;
            let al = DistMatrix::from_global(&spd(n), c, c, yh, x);
            let params = CfrParams::validated(n, c, base, inv).unwrap();
            cacqr::cfr3d(
                rank,
                &comms.subcube,
                &al.local,
                n,
                &params,
                &mut dense::Workspace::new(),
            )
            .unwrap();
        });
        row(
            &format!("CFR3D c={c} n={n} n0={base} invdepth={inv}"),
            meas,
            costmodel::cfr3d(n, c, base, inv),
        );
    }
    println!();

    println!("# Tables III/IV: 1D-CQR2 measured vs model");
    for (p, m, n) in [(4usize, 64usize, 16usize), (8, 128, 16), (16, 256, 32)] {
        let meas = measure3(p, move |rank| {
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
        });
        row(&format!("1D-CQR2 P={p} m={m} n={n}"), meas, costmodel::cqr2_1d(m, n, p));
    }
    println!();

    println!("# Tables V/VI: CA-CQR2 measured vs model");
    for (c, d, m, n, base, inv) in [
        (1usize, 8usize, 64usize, 16usize, 16usize, 0usize),
        (2, 4, 32, 8, 4, 0),
        (2, 8, 64, 16, 4, 0),
        (2, 8, 64, 16, 8, 1),
        (4, 4, 64, 16, 4, 0),
    ] {
        let shape = GridShape::new(c, d).unwrap();
        let meas = measure3(shape.p(), move |rank| {
            let comms = TunableComms::build(rank, shape);
            let (x, y, _) = comms.coords;
            let al = DistMatrix::from_global(&well_conditioned(m, n, 9), d, c, y, x);
            let params = CfrParams::validated(n, c, base, inv).unwrap();
            cacqr::ca_cqr2(
                rank,
                &comms,
                al.local.as_ref(),
                n,
                &params,
                &mut dense::Workspace::new(),
            )
            .unwrap();
        });
        row(
            &format!("CA-CQR2 c={c} d={d} m={m} n={n} n0={base} id={inv}"),
            meas,
            costmodel::ca_cqr2(m, n, c, d, base, inv),
        );
    }
    println!();
    println!("# 'exact' = simulator elapsed time equals the closed-form model (alpha/beta to the ulp, gamma to 1e-6 relative).");
}
