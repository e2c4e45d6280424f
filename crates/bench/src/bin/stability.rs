//! Stability experiment: reproduces the paper's §I numerical claims.
//!
//! Sweeps the condition number and measures the deviation from
//! orthogonality `‖QᵀQ − I‖_F` and relative residual for CholeskyQR,
//! CholeskyQR2 (sequential and distributed CA-CQR2), Householder QR, and
//! shifted CholeskyQR3:
//!
//! * CQR degrades as `ε·κ²` and the Cholesky fails outright near
//!   `κ ≈ 1/√ε ≈ 10⁸`;
//! * CQR2 stays at Householder levels up to that boundary (the paper's
//!   headline property);
//! * shifted CQR3 stays at Householder levels unconditionally.
//!
//! Run: `cargo run --release -p bench --bin stability`

use cacqr::{Algorithm, QrPlan};
use dense::norms::{orthogonality_error, residual_error};
use dense::random::matrix_with_condition;
use dense::svd::condition_number;
use dense::BackendKind;
use pargrid::GridShape;

fn main() {
    let (m, n) = (192usize, 16usize);
    println!("# Stability vs condition number, {m} x {n} random matrices with prescribed spectrum");
    println!("kappa\tmeasured_kappa\talgorithm\torthogonality\tresidual");
    for exp in [1i32, 2, 4, 6, 7, 8, 10, 12, 14] {
        let kappa = 10f64.powi(exp);
        let a = matrix_with_condition(m, n, kappa, 1000 + exp as u64);
        let measured = condition_number(&a);

        // Householder reference.
        let (q, r) = dense::householder::qr(&a);
        println!(
            "1e{exp}\t{measured:.2e}\tHouseholder\t{:.2e}\t{:.2e}",
            orthogonality_error(q.as_ref()),
            residual_error(a.as_ref(), q.as_ref(), r.as_ref())
        );

        let be = BackendKind::default_kind();
        // Plain CholeskyQR.
        match cacqr::cqr(&a, be) {
            Ok((q, r)) => println!(
                "1e{exp}\t{measured:.2e}\tCholeskyQR\t{:.2e}\t{:.2e}",
                orthogonality_error(q.as_ref()),
                residual_error(a.as_ref(), q.as_ref(), r.as_ref())
            ),
            Err(e) => println!("1e{exp}\t{measured:.2e}\tCholeskyQR\tFAILED ({e})\t-"),
        }

        // CholeskyQR2 (sequential).
        match cacqr::cqr2(&a, be) {
            Ok((q, r)) => println!(
                "1e{exp}\t{measured:.2e}\tCholeskyQR2\t{:.2e}\t{:.2e}",
                orthogonality_error(q.as_ref()),
                residual_error(a.as_ref(), q.as_ref(), r.as_ref())
            ),
            Err(e) => println!("1e{exp}\t{measured:.2e}\tCholeskyQR2\tFAILED ({e})\t-"),
        }

        // Distributed CA-CQR2 and CA-CQR3 on a 2x4x2 grid, through the
        // facade: identical stability behaviour to their sequential kin.
        for alg in [Algorithm::CaCqr2, Algorithm::CaCqr3] {
            let plan = QrPlan::new(m, n)
                .algorithm(alg)
                .grid(GridShape::new(2, 4).unwrap())
                .base_size(8)
                .build()
                .expect("valid plan");
            match plan.factor(&a) {
                Ok(run) => println!(
                    "1e{exp}\t{measured:.2e}\t{alg}(2x4x2)\t{:.2e}\t{:.2e}",
                    run.orthogonality_error, run.residual_error
                ),
                Err(e) => println!("1e{exp}\t{measured:.2e}\t{alg}(2x4x2)\tFAILED ({e})\t-"),
            }
        }

        // Shifted CholeskyQR3 (the paper's §V future-work variant).
        match cacqr::shifted_cqr3(&a, be) {
            Ok((q, r)) => println!(
                "1e{exp}\t{measured:.2e}\tShiftedCQR3\t{:.2e}\t{:.2e}",
                orthogonality_error(q.as_ref()),
                residual_error(a.as_ref(), q.as_ref(), r.as_ref())
            ),
            Err(e) => println!("1e{exp}\t{measured:.2e}\tShiftedCQR3\tFAILED ({e})\t-"),
        }
        println!();
    }
    println!("# Expected: CholeskyQR orthogonality ~ eps*kappa^2, failing near kappa=1e8;");
    println!("# CholeskyQR2/CA-CQR2 at Householder levels until the same boundary; ShiftedCQR3 always.");
}
