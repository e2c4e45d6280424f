//! Algorithms 6–7: the existing 1D parallelization of CholeskyQR2, and the
//! shifted CholeskyQR3 built from the same pass.
//!
//! The `m × n` matrix is partitioned by rows over a 1D grid of `P`
//! processors. The bodies take any row views; the global drivers
//! ([`crate::validate`]) hand rank `i` the contiguous block of rows
//! `[i·m/P, (i+1)·m/P)`, so every pass reads and writes its rows with unit
//! row stride. Each processor:
//!
//! 1. forms the local Gram matrix `Π⟨X⟩ = Π⟨A⟩ᵀ·Π⟨A⟩` (`syrk`),
//! 2. allreduces it (`n²` words — the scalability bottleneck the paper's
//!    CA-CQR2 removes),
//! 3. redundantly computes `CholInv` of the `n × n` result,
//! 4. forms its rows of `Q = A·R⁻¹` locally.
//!
//! Costs per Table III/IV: `T_syrk(m/P, n) + T_allreduce(n², P) +
//! T_cholinv(n) + T_MM(m/P, n, n)`, i.e. `O(log P·α + n²β + (mn²/P + n³)γ)`.
//!
//! [`cqr1d`] takes a Gram shift `σ` (`0` is Algorithm 6 proper), so the
//! shifted pass of [`cqr3_1d`] (Fukaya et al., the paper's reference \[3\])
//! is the same body. The flops a pass charges are data ([`FlopCharges`]):
//! Algorithm 6's closed forms, or the CA family's at `c = 1`, where the
//! CA-CQR2/CA-CQR3 drivers of [`crate::validate`] run these bodies — the
//! same arithmetic, hence the same bits, and the same ledgers. At `P = 1`
//! they are the sequential Algorithms 4–5 too ([`mod@crate::cqr`]).

use dense::cholesky::{cholinv, CholeskyError};
use dense::gemm::Trans;
use dense::norms::{SlabDiagnostics, PANEL_ROWS};
use dense::{Backend, BackendKind, MatMut, MatRef, Matrix, Workspace};
use simgrid::{Comm, Rank};
use std::time::Instant;

/// Whose closed forms a 1D pass charges to the γ ledger. The kernels and
/// their bits are the same either way (the rule that keeps the backend out
/// of the ledger too); only the Gram and `R₂·R₁` conventions differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlopCharges {
    /// Algorithm 6: a `syrk` Gram and a triangular `R₂·R₁`.
    OneD,
    /// The CA family at `c = 1` (Algorithms 8–9): the full-gemm Gram
    /// `2·lr·n²` and MM3D's `R₂·R₁`. CFR3D's base case and `apply_rinv`
    /// charge Algorithm 6's CholInv and gemm.
    CaFamily,
}

impl FlopCharges {
    /// The `(Gram, R₂·R₁)` charges for `lr` local rows of width `n`.
    fn gram_merge(self, lr: usize, n: usize) -> (f64, f64) {
        use dense::flops::{gemm, syrk, triu_mul};
        match self {
            FlopCharges::OneD => (syrk(lr, n), triu_mul(n)),
            FlopCharges::CaFamily => (gemm(n, lr, n), gemm(n, n, n)),
        }
    }
}

/// One 1D-CholeskyQR pass (Algorithm 6) over the Gram matrix shifted by
/// `sigma` (`0` for the plain pass). `a_local` holds this rank's rows and
/// `q_local` receives its rows of `Q` — both any views of the same shape, so
/// a rank can read its block of the caller's matrix and write its block of
/// the result in place. Returns `R`, replicated on every rank. The local
/// syrk, CholInv, and `Q = A·R⁻¹` products go through the given kernel
/// backend (pass [`BackendKind::default_kind`] for the default).
///
/// The Gram matrix (which doubles as the allreduce buffer) and CholInv's two
/// factors are **workspace-backed** scratch; `R` is a plain allocation.
/// `q_local` is written only after the Cholesky succeeded.
#[allow(clippy::too_many_arguments)] // a pass carries its shift and its ledger convention
pub fn cqr1d(
    rank: &mut Rank,
    comm: &Comm,
    a_local: MatRef<'_>,
    q_local: MatMut<'_>,
    sigma: f64,
    charges: FlopCharges,
    backend: BackendKind,
    ws: &mut Workspace,
) -> Result<Matrix, CholeskyError> {
    let be = backend.get();
    let (lr, n) = (a_local.rows(), a_local.cols());

    // Line 1: local Gram matrix (into the arena — the paper's hot kernel).
    let mut x = ws.take_matrix_stale(n, n);
    be.syrk_into(a_local, x.as_mut());
    rank.charge_flops(charges.gram_merge(lr, n).0);

    let (l, y) = reduce_and_invert(rank, comm, x, sigma, be, ws)?;
    // Line 4: local Q rows (β = 0 overwrites whatever the output held).
    be.gemm(1.0, a_local, Trans::No, y.as_ref(), Trans::Yes, 0.0, q_local);
    rank.charge_flops(dense::flops::gemm(lr, n, n));
    let r = l.transposed();
    ws.recycle(l);
    ws.recycle(y);
    Ok(r)
}

/// Lines 2–3 of a pass: allreduce the local Gram `x` over the 1D grid
/// (reusing its storage), add `sigma` to the reduced diagonal, and CholInv
/// it redundantly. Returns the arena-backed `(L, Y = L⁻¹)`; on a breakdown
/// every buffer has already gone back to the arena.
fn reduce_and_invert(
    rank: &mut Rank,
    comm: &Comm,
    x: Matrix,
    sigma: f64,
    be: &dyn Backend,
    ws: &mut Workspace,
) -> Result<(Matrix, Matrix), CholeskyError> {
    let n = x.rows();
    let mut z = x.into_vec();
    comm.allreduce(rank, &mut z);
    let mut z = Matrix::from_vec(n, n, z);
    (0..n).for_each(|i| z.set(i, i, z.get(i, i) + sigma));
    let (mut l, mut y) = (ws.take_matrix_stale(n, n), ws.take_matrix_stale(n, n));
    let factored = cholinv(z.as_ref(), l.as_mut(), y.as_mut(), be, ws);
    ws.recycle(z);
    match factored {
        Ok(()) => {
            rank.charge_flops(dense::flops::cholinv(n));
            Ok((l, y))
        }
        Err(e) => {
            ws.recycle(l);
            ws.recycle(y);
            Err(e)
        }
    }
}

/// 1D-CholeskyQR2 (Algorithm 7): two 1D-CQR passes plus the local triangular
/// update `R = R₂·R₁`. Pass 2 writes `Q` straight into `q_local`, in
/// [`PANEL_ROWS`]-row panels. The first-pass `Q₁` and both passes'
/// Gram/reduction scratch come from `ws` (reused across the passes).
/// Returns `R`, a plain allocation.
///
/// With `diagnose`, pass 2 also adds the report diagnostics of this rank's
/// rows ([`dense::norms`]), each `Q` panel's partials while it is in cache
/// ([`SlabDiagnostics::add_panel`]), and returns them with the wall seconds
/// they took. None of this is charged to the ledger; whether the run is
/// kept (its κ₁) is for the caller to decide.
#[allow(clippy::too_many_arguments)] // a pass's arguments and the diagnostics switch
pub fn cqr2_1d(
    rank: &mut Rank,
    comm: &Comm,
    a_local: MatRef<'_>,
    mut q_local: MatMut<'_>,
    diagnose: bool,
    charges: FlopCharges,
    backend: BackendKind,
    ws: &mut Workspace,
) -> Result<(Matrix, Option<(SlabDiagnostics, f64)>), CholeskyError> {
    let be = backend.get();
    let (lr, n) = (a_local.rows(), a_local.cols());
    let (gram, merge) = charges.gram_merge(lr, n);
    let mut q1 = ws.take_matrix_stale(lr, n);
    // Pass 2 up to its CholInv. Recycle Q₁ whichever Cholesky fails (the
    // normal way ill-conditioning reports) so failed factors stay
    // arena-balanced.
    let passes = cqr1d(rank, comm, a_local, q1.as_mut(), 0.0, charges, backend, ws).and_then(|r1| {
        let mut x2 = ws.take_matrix_stale(n, n);
        be.syrk_into(q1.as_ref(), x2.as_mut());
        rank.charge_flops(gram);
        Ok((r1, reduce_and_invert(rank, comm, x2, 0.0, be, ws)?))
    });
    let (r1, (l2, y2)) = match passes {
        Ok(passes) => passes,
        Err(e) => {
            ws.recycle(q1);
            return Err(e);
        }
    };
    let r = crate::cqr::triu_product(&l2.transposed(), &r1);
    let mut diagnostics = diagnose.then(|| (SlabDiagnostics::new(n, ws), 0.0));
    for i0 in (0..lr).step_by(PANEL_ROWS) {
        let rows = PANEL_ROWS.min(lr - i0);
        let q1_b = q1.view_mut(i0, 0, rows, n);
        let mut q_b = q_local.rb_mut().sub(i0, 0, rows, n);
        be.gemm(1.0, q1_b.rb(), Trans::No, y2.as_ref(), Trans::Yes, 0.0, q_b.rb_mut());
        if let Some((slab, seconds)) = &mut diagnostics {
            // `Q₁`'s panel is spent: it is the residual's scratch.
            let t = Instant::now();
            slab.add_panel(a_local.sub(i0, 0, rows, n), q_b.rb(), r.as_ref(), be, q1_b);
            *seconds += t.elapsed().as_secs_f64();
        }
    }
    rank.charge_flops(dense::flops::gemm(lr, n, n));
    rank.charge_flops(merge);
    for buf in [q1, l2, y2] {
        ws.recycle(buf);
    }
    Ok((r, diagnostics))
}

/// Shifted 1D-CholeskyQR3: one [`cqr1d`] pass on `AᵀA + σI` with the shift
/// of Fukaya et al. (grown ×100 on a failed Cholesky, up to four tries),
/// then [`cqr2_1d`] on `Q₁`, and `R = R₂₃·R₁`. Unconditionally stable for
/// numerically full-rank input; the only extra communication is a 1-word
/// allreduce of `‖A‖_F²`. Scratch and output as for [`cqr2_1d`].
pub fn cqr3_1d(
    rank: &mut Rank,
    comm: &Comm,
    a_local: MatRef<'_>,
    q_local: MatMut<'_>,
    charges: FlopCharges,
    backend: BackendKind,
    ws: &mut Workspace,
) -> Result<Matrix, CholeskyError> {
    let (lr, n) = (a_local.rows(), a_local.cols());
    let mut norm2 = [(0..lr).flat_map(|i| a_local.row(i)).map(|v| v * v).sum::<f64>()];
    rank.charge_flops(2.0 * (lr * n) as f64);
    comm.allreduce(rank, &mut norm2);
    let mut q1 = ws.take_matrix_stale(lr, n);
    let first = crate::cqr::shifted_pass(lr * comm.size(), n, norm2[0], |sigma| {
        cqr1d(rank, comm, a_local, q1.as_mut(), sigma, charges, backend, ws)
    });
    let passes = first.and_then(|r1| {
        let (r23, _) = cqr2_1d(rank, comm, q1.as_ref(), q_local, false, charges, backend, ws)?;
        Ok((r1, r23))
    });
    ws.recycle(q1);
    let (r1, r23) = passes?;
    rank.charge_flops(charges.gram_merge(lr, n).1);
    Ok(crate::cqr::triu_product(&r23, &r1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::norms::{orthogonality_error, residual_error};
    use dense::random::well_conditioned;
    use pargrid::DistMatrix;
    use simgrid::{run_spmd, Machine, SimConfig};

    fn run_1d(p: usize, m: usize, n: usize, seed: u64) -> (Matrix, Matrix, f64) {
        let a = well_conditioned(m, n, seed);
        let a2 = a.clone();
        let report = run_spmd(p, SimConfig::with_machine(Machine::alpha_only()), move |rank| {
            let world = rank.world();
            let mut ws = dense::Workspace::new();
            let a_local = a2.as_ref().step_rows(rank.id(), p);
            let mut q = Matrix::zeros(a_local.rows(), n);
            let r = cqr2_1d(
                rank,
                &world,
                a_local,
                q.as_mut(),
                false,
                FlopCharges::OneD,
                BackendKind::default_kind(),
                &mut ws,
            )
            .expect("well-conditioned input")
            .0;
            (rank.id(), q, r)
        });
        let mut pieces: Vec<Vec<Matrix>> = (0..p).map(|_| vec![Matrix::zeros(0, 0)]).collect();
        let r0 = report.results[0].2.clone();
        for (id, q, r) in &report.results {
            pieces[*id][0] = q.clone();
            assert_eq!(*r, r0, "R must be bitwise replicated on every rank");
        }
        let q = DistMatrix::assemble(m, n, p, 1, &pieces);
        let _ = a;
        (q, r0, report.elapsed)
    }

    #[test]
    fn matches_qr_invariants_p4() {
        let (q, r, alpha_cost) = run_1d(4, 64, 8, 11);
        let a = well_conditioned(64, 8, 11);
        assert!(orthogonality_error(q.as_ref()) < 1e-13);
        assert!(residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-13);
        // Two allreduces over P=4: 2 × 2·log₂4 = 8 α.
        assert_eq!(alpha_cost, 8.0);
    }

    #[test]
    fn p8_wide_matrix() {
        let (q, r, _) = run_1d(8, 128, 16, 9);
        let a = well_conditioned(128, 16, 9);
        assert!(orthogonality_error(q.as_ref()) < 1e-13);
        assert!(residual_error(a.as_ref(), q.as_ref(), r.as_ref()) < 1e-13);
    }

    #[test]
    fn flop_ledger_matches_convention() {
        // γ per rank: 2·(syrk + cholinv + gemm) + triu_mul + allreduce adds.
        let (p, m, n) = (4usize, 64usize, 8usize);
        let a = well_conditioned(m, n, 3);
        let report = run_spmd(p, SimConfig::default(), move |rank| {
            let world = rank.world();
            let mut ws = dense::Workspace::new();
            let a_local = a.as_ref().step_rows(rank.id(), p);
            let mut q = Matrix::zeros(a_local.rows(), n);
            cqr2_1d(
                rank,
                &world,
                a_local,
                q.as_mut(),
                false,
                FlopCharges::OneD,
                BackendKind::default_kind(),
                &mut ws,
            )
            .unwrap();
            rank.ledger().flops
        });
        let lr = m / p;
        let allreduce_adds = (n * n) as f64 * (1.0 - 1.0 / p as f64);
        let expect = 2.0
            * (dense::flops::syrk(lr, n) + dense::flops::cholinv(n) + dense::flops::gemm(lr, n, n) + allreduce_adds)
            + dense::flops::triu_mul(n);
        for f in &report.results {
            assert!((f - expect).abs() < 1e-9, "ledger {f} vs model {expect}");
        }
    }
}
