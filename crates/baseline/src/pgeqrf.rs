//! The distributed blocked Householder QR (`PGEQRF`).
//!
//! See the crate docs for the schedule. The reflector conventions match
//! `dense::householder` (LAPACK `dgeqrf`): `H_j = I − τ v vᵀ`, unit head.

use crate::blockcyclic::BlockCyclic;
use dense::gemm::Trans;
use dense::{Backend, BackendKind, MatRef, Matrix};
use simgrid::{Comm, Rank};

/// Configuration of a PGEQRF run.
#[derive(Clone, Copy, Debug)]
pub struct PgeqrfConfig {
    /// The process grid and block size.
    pub grid: BlockCyclic,
    /// Node-local kernel backend for the panel Gram and trailing-update
    /// gemms. Never changes the communication schedule or charged flops.
    pub backend: BackendKind,
}

impl PgeqrfConfig {
    /// Config with the default backend.
    pub fn new(grid: BlockCyclic) -> PgeqrfConfig {
        PgeqrfConfig {
            grid,
            backend: BackendKind::default_kind(),
        }
    }
}

/// One factored elimination panel, replicated along its process row after
/// the panel broadcast: the reflectors (explicit unit heads) and the
/// compact-WY `T` factor.
pub struct Panel {
    /// First global column of the panel.
    pub jcol: usize,
    /// Panel width (`nb`, possibly clamped at the matrix edge).
    pub width: usize,
    /// Local rows of `V` (zeros above each head, `1` at the head).
    pub v: Matrix,
    /// The `width × width` upper-triangular `T`.
    pub t: Matrix,
}

/// Process-grid communicators for the baseline (rank = `prow·pc + pcol`).
pub struct PgeqrfComms {
    /// This process's grid row.
    pub prow: usize,
    /// This process's grid column.
    pub pcol: usize,
    /// All processes in this process column (size `pr`); index = `prow`.
    pub col: Comm,
    /// All processes in this process row (size `pc`); index = `pcol`.
    pub row: Comm,
}

impl PgeqrfComms {
    /// Collectively builds the 2D grid communicators.
    pub fn build(rank: &mut Rank, grid: BlockCyclic) -> PgeqrfComms {
        let (pr, pc) = (grid.pr, grid.pc);
        assert_eq!(rank.world_size(), pr * pc, "grid must match world size");
        let prow = rank.id() / pc;
        let pcol = rank.id() % pc;
        let col = Comm::subset(rank, (0..pr).map(|r| r * pc + pcol).collect());
        let row = Comm::subset(rank, (0..pc).map(|c| prow * pc + c).collect());
        PgeqrfComms { prow, pcol, col, row }
    }
}

/// Factors the distributed matrix in place (packed `V\R` storage, as LAPACK)
/// and returns the broadcast panels for later use by [`pgeqrf_form_q`].
///
/// `a_local` is this process's piece per the [`BlockCyclic`] in `config`;
/// `m ≥ n`, `nb | n`. Local gemms go through the config's kernel backend.
pub fn pgeqrf(
    rank: &mut Rank,
    comms: &PgeqrfComms,
    config: PgeqrfConfig,
    a_local: &mut Matrix,
    m: usize,
    n: usize,
) -> Vec<Panel> {
    let grid = config.grid;
    let be: &dyn Backend = config.backend.get();
    assert!(m >= n, "reduced QR requires m >= n");
    assert_eq!(n % grid.nb, 0, "this implementation requires nb | n");
    let (prow, pcol) = (comms.prow, comms.pcol);
    let mloc = a_local.rows();
    let nloc = a_local.cols();
    let nb = grid.nb;
    let mut panels = Vec::with_capacity(n / nb);

    let mut j = 0;
    while j < n {
        let w = nb.min(n - j);
        let jb = j / nb;
        let owner_col = grid.col_owner(j);
        let lrs = grid.local_row_start(j, prow);

        // --- Panel factorization (process column `owner_col` only). ---
        let mut taus = vec![0.0f64; w];
        if pcol == owner_col {
            let lc0 = grid.local_col(j);
            for jj in 0..w {
                let gd = j + jj;
                let lc = lc0 + jj;
                let head_owner = gd % grid.pr;
                let li_head = gd / grid.pr;
                let li0 = grid.local_row_start(gd + 1, prow);

                // Column norm and head element: one small allreduce.
                let mut contrib = [0.0f64; 2];
                if prow == head_owner {
                    contrib[0] = a_local.get(li_head, lc);
                }
                let mut ssq = 0.0;
                for li in li0..mloc {
                    let v = a_local.get(li, lc);
                    ssq += v * v;
                }
                contrib[1] = ssq;
                rank.charge_flops(2.0 * (mloc - li0) as f64);
                comms.col.allreduce(rank, &mut contrib);
                let (alpha, ssq) = (contrib[0], contrib[1]);

                let tau = if ssq == 0.0 {
                    0.0
                } else {
                    let norm = (alpha * alpha + ssq).sqrt();
                    let beta = if alpha >= 0.0 { -norm } else { norm };
                    let scale = 1.0 / (alpha - beta);
                    for li in li0..mloc {
                        let v = a_local.get(li, lc);
                        a_local.set(li, lc, v * scale);
                    }
                    rank.charge_flops((mloc - li0) as f64);
                    if prow == head_owner {
                        a_local.set(li_head, lc, beta);
                    }
                    (beta - alpha) / beta
                };
                taus[jj] = tau;

                // Apply H to the remaining panel columns.
                let wlen = w - jj - 1;
                if wlen > 0 && tau != 0.0 {
                    let mut wv = vec![0.0f64; wlen];
                    for (kk, wvk) in wv.iter_mut().enumerate() {
                        let lck = lc + 1 + kk;
                        let mut s = if prow == head_owner {
                            a_local.get(li_head, lck)
                        } else {
                            0.0
                        };
                        for li in li0..mloc {
                            s += a_local.get(li, lc) * a_local.get(li, lck);
                        }
                        *wvk = s;
                    }
                    rank.charge_flops(2.0 * (mloc - li0) as f64 * wlen as f64);
                    comms.col.allreduce(rank, &mut wv);
                    for (kk, &wvk) in wv.iter().enumerate() {
                        let lck = lc + 1 + kk;
                        if prow == head_owner {
                            let v = a_local.get(li_head, lck);
                            a_local.set(li_head, lck, v - tau * wvk);
                        }
                        for li in li0..mloc {
                            let v = a_local.get(li, lck);
                            a_local.set(li, lck, v - tau * a_local.get(li, lc) * wvk);
                        }
                    }
                    rank.charge_flops(2.0 * (mloc - li0 + 1) as f64 * wlen as f64);
                }
            }
        }

        // --- Build V (explicit heads) and T on the owner column. ---
        let mut v = Matrix::zeros(mloc, w);
        let mut t = Matrix::zeros(w, w);
        if pcol == owner_col {
            let lc0 = grid.local_col(j);
            for jj in 0..w {
                let gd = j + jj;
                for li in grid.local_row_start(gd + 1, prow)..mloc {
                    v.set(li, jj, a_local.get(li, lc0 + jj));
                }
                if prow == gd % grid.pr {
                    v.set(gd / grid.pr, jj, 1.0);
                }
            }
            // G = VᵀV (rows ≥ j suffice), allreduced over the column.
            let mut g = Matrix::zeros(w, w);
            be.gemm(
                1.0,
                v.view(lrs, 0, mloc - lrs, w),
                Trans::Yes,
                v.view(lrs, 0, mloc - lrs, w),
                Trans::No,
                0.0,
                g.as_mut(),
            );
            rank.charge_flops(dense::flops::gemm(w, mloc - lrs, w));
            let mut gbuf = g.into_vec();
            comms.col.allreduce(rank, &mut gbuf);
            let g = Matrix::from_vec(w, w, gbuf);
            // T from G and τ (LAPACK dlarft recurrence).
            for jj in 0..w {
                t.set(jj, jj, taus[jj]);
                if taus[jj] == 0.0 {
                    continue;
                }
                for i in 0..jj {
                    let mut s = 0.0;
                    for l in i..jj {
                        s += t.get(i, l) * g.get(l, jj);
                    }
                    t.set(i, jj, -taus[jj] * s);
                }
            }
            rank.charge_flops((w * w * w) as f64 / 3.0);
        }

        // --- Broadcast V and T along the process row. ---
        let mut buf = vec![0.0f64; mloc * w + w * w];
        if pcol == owner_col {
            buf[..mloc * w].copy_from_slice(v.data());
            buf[mloc * w..].copy_from_slice(t.data());
        }
        comms.row.bcast(rank, owner_col, &mut buf);
        if pcol != owner_col {
            v = Matrix::from_vec(mloc, w, buf[..mloc * w].to_vec());
            t = Matrix::from_vec(w, w, buf[mloc * w..].to_vec());
        }

        // --- Trailing update: C ← C − V·Tᵀ·(VᵀC). ---
        let lcstart = grid.blocks_before(jb + 1, pcol) * nb;
        let ncrest = nloc - lcstart;
        if ncrest > 0 {
            let vsub = v.view(lrs, 0, mloc - lrs, w);
            let csub = a_local.view(lrs, lcstart, mloc - lrs, ncrest);
            let mut wmat = Matrix::zeros(w, ncrest);
            be.gemm(1.0, vsub, Trans::Yes, csub, Trans::No, 0.0, wmat.as_mut());
            rank.charge_flops(dense::flops::gemm(w, mloc - lrs, ncrest));
            let mut wbuf = wmat.into_vec();
            comms.col.allreduce(rank, &mut wbuf);
            let wmat = Matrix::from_vec(w, ncrest, wbuf);
            // W2 = Tᵀ·W
            let mut w2 = Matrix::zeros(w, ncrest);
            be.gemm(1.0, t.as_ref(), Trans::Yes, wmat.as_ref(), Trans::No, 0.0, w2.as_mut());
            rank.charge_flops(dense::flops::gemm(w, w, ncrest));
            // C −= V·W2
            let vsub = v.view(lrs, 0, mloc - lrs, w);
            be.gemm(
                -1.0,
                vsub,
                Trans::No,
                w2.as_ref(),
                Trans::No,
                1.0,
                a_local.view_mut(lrs, lcstart, mloc - lrs, ncrest),
            );
            rank.charge_flops(dense::flops::gemm(mloc - lrs, w, ncrest));
        }

        panels.push(Panel {
            jcol: j,
            width: w,
            v,
            t,
        });
        j += w;
    }
    panels
}

/// Forms the reduced `Q` (distributed like `A`) from the factored panels by
/// backward accumulation: `Q = (I − V₀T₀V₀ᵀ)⋯(I − V_{K−1}T_{K−1}V_{K−1}ᵀ)·E`.
pub fn pgeqrf_form_q(
    rank: &mut Rank,
    comms: &PgeqrfComms,
    config: PgeqrfConfig,
    panels: &[Panel],
    m: usize,
    n: usize,
) -> Matrix {
    let grid = config.grid;
    let be: &dyn Backend = config.backend.get();
    let (prow, pcol) = (comms.prow, comms.pcol);
    let mloc = grid.local_rows(m, prow);
    let nloc = grid.local_cols(n, pcol);
    // Distributed identity.
    let mut e = Matrix::from_fn(mloc, nloc, |li, lj| {
        if grid.global_row(li, prow) == grid.global_col(lj, pcol) {
            1.0
        } else {
            0.0
        }
    });
    for panel in panels.iter().rev() {
        let (j, w) = (panel.jcol, panel.width);
        let lrs = grid.local_row_start(j, prow);
        if lrs >= mloc || nloc == 0 {
            // No local rows in the reflector's support; still participate in
            // the column allreduce for SPMD consistency.
            let mut dummy = vec![0.0f64; w * nloc];
            comms.col.allreduce(rank, &mut dummy);
            continue;
        }
        let vsub = panel.v.view(lrs, 0, mloc - lrs, w);
        let esub = e.view(lrs, 0, mloc - lrs, nloc);
        let mut wmat = Matrix::zeros(w, nloc);
        be.gemm(1.0, vsub, Trans::Yes, esub, Trans::No, 0.0, wmat.as_mut());
        rank.charge_flops(dense::flops::gemm(w, mloc - lrs, nloc));
        let mut wbuf = wmat.into_vec();
        comms.col.allreduce(rank, &mut wbuf);
        let wmat = Matrix::from_vec(w, nloc, wbuf);
        let mut w2 = Matrix::zeros(w, nloc);
        be.gemm(
            1.0,
            panel.t.as_ref(),
            Trans::No,
            wmat.as_ref(),
            Trans::No,
            0.0,
            w2.as_mut(),
        );
        rank.charge_flops(dense::flops::gemm(w, w, nloc));
        let vsub = panel.v.view(lrs, 0, mloc - lrs, w);
        be.gemm(
            -1.0,
            vsub,
            Trans::No,
            w2.as_ref(),
            Trans::No,
            1.0,
            e.view_mut(lrs, 0, mloc - lrs, nloc),
        );
        rank.charge_flops(dense::flops::gemm(mloc - lrs, w, nloc));
    }
    e
}

/// A completed distributed QR run with global factors and cost accounting
/// (`cacqr::validate::QrRun` is this type: every global driver returns it).
pub struct PgeqrfRun {
    /// The assembled `m × n` orthonormal factor.
    pub q: Matrix,
    /// The assembled `n × n` upper-triangular factor.
    pub r: Matrix,
    /// Simulated elapsed time under the machine model used for the run.
    pub elapsed: f64,
    /// Measured wall-clock seconds of the SPMD region. Meaningful for the
    /// shared-memory runtime; on the simulated backend the rank threads are
    /// unpinned and it is not a model quantity.
    pub wall_seconds: f64,
    /// Per-rank cost ledgers.
    pub ledgers: Vec<simgrid::CostLedger>,
}

/// Scatters `a`, runs PGEQRF + Q formation on the simulator, reassembles.
///
/// This is the expert layer; most callers should factor through a
/// `QrPlan` with `Algorithm::Pgeqrf` (see the `cacqr` crate's `driver`
/// module), which validates the configuration and returns the unified
/// report type.
pub fn run_pgeqrf_global(a: MatRef<'_>, config: PgeqrfConfig, cfg: simgrid::SimConfig) -> PgeqrfRun {
    let grid = config.grid;
    let (m, n) = (a.rows(), a.cols());
    let p = grid.pr * grid.pc;
    let report = simgrid::run_spmd(p, cfg, |rank| {
        let comms = PgeqrfComms::build(rank, grid);
        let mut local = grid.scatter(a, comms.prow, comms.pcol);
        let panels = pgeqrf(rank, &comms, config, &mut local, m, n);
        let q = pgeqrf_form_q(rank, &comms, config, &panels, m, n);
        (comms.prow, comms.pcol, local, q)
    });
    let mut qp: Vec<Vec<Matrix>> = (0..grid.pr)
        .map(|_| (0..grid.pc).map(|_| Matrix::zeros(0, 0)).collect())
        .collect();
    // R = upper triangle of the packed factorization, read from the local
    // rows that hold the first n global rows.
    let mut r = Matrix::zeros(n, n);
    for (prow, pcol, local, q) in report.results {
        for li in 0..grid.local_rows(n, prow) {
            let i = grid.global_row(li, prow);
            for lj in 0..local.cols() {
                let j = grid.global_col(lj, pcol);
                if j >= i {
                    r.set(i, j, local.get(li, lj));
                }
            }
        }
        qp[prow][pcol] = q;
    }
    let q = grid.assemble(m, n, &qp);
    PgeqrfRun {
        q,
        r,
        elapsed: report.elapsed,
        wall_seconds: report.wall_seconds,
        ledgers: report.ledgers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dense::norms::{normalize_qr_signs, orthogonality_error, residual_error};
    use dense::random::well_conditioned;
    use simgrid::{Machine, SimConfig};

    fn check(m: usize, n: usize, pr: usize, pc: usize, nb: usize, seed: u64) -> PgeqrfRun {
        let a = well_conditioned(m, n, seed);
        let grid = BlockCyclic { pr, pc, nb };
        let run = run_pgeqrf_global(a.as_ref(), PgeqrfConfig::new(grid), SimConfig::default());
        assert!(
            orthogonality_error(run.q.as_ref()) < 1e-12,
            "orthogonality {:.2e} for grid {pr}x{pc} nb={nb}",
            orthogonality_error(run.q.as_ref())
        );
        assert!(
            residual_error(a.as_ref(), run.q.as_ref(), run.r.as_ref()) < 1e-12,
            "residual too large for grid {pr}x{pc} nb={nb}"
        );
        run
    }

    #[test]
    fn single_process_matches_sequential() {
        let (m, n) = (40, 16);
        let a = well_conditioned(m, n, 1);
        let run = check(m, n, 1, 1, 8, 1);
        let (mut qh, mut rh) = dense::householder::qr(&a);
        let (mut q, mut r) = (run.q, run.r);
        normalize_qr_signs(&mut qh, &mut rh);
        normalize_qr_signs(&mut q, &mut r);
        for (u, v) in r.data().iter().zip(rh.data()) {
            assert!((u - v).abs() < 1e-10 * (1.0 + v.abs()));
        }
    }

    #[test]
    fn column_of_processes() {
        check(64, 16, 4, 1, 8, 2);
    }

    #[test]
    fn row_of_processes() {
        check(32, 16, 1, 4, 4, 3);
    }

    #[test]
    fn full_2d_grid() {
        check(64, 32, 4, 2, 8, 4);
    }

    #[test]
    fn square_matrix_2d() {
        check(32, 32, 2, 2, 8, 5);
    }

    #[test]
    fn uneven_rows() {
        // m not divisible by pr exercises the ragged local row counts.
        check(61, 16, 4, 2, 8, 6);
    }

    #[test]
    fn latency_scales_with_columns() {
        // PGEQRF's defining cost: per-column synchronization. Doubling n
        // should roughly double the α cost at fixed nb.
        let grid = BlockCyclic { pr: 4, pc: 1, nb: 4 };
        let a1 = well_conditioned(128, 16, 7);
        let a2 = well_conditioned(128, 32, 7);
        let r1 = run_pgeqrf_global(
            a1.as_ref(),
            PgeqrfConfig::new(grid),
            SimConfig::with_machine(Machine::alpha_only()),
        );
        let r2 = run_pgeqrf_global(
            a2.as_ref(),
            PgeqrfConfig::new(grid),
            SimConfig::with_machine(Machine::alpha_only()),
        );
        let ratio = r2.elapsed / r1.elapsed;
        assert!(
            (1.6..=2.4).contains(&ratio),
            "α cost should scale ~linearly in n: {} -> {} (ratio {ratio:.2})",
            r1.elapsed,
            r2.elapsed
        );
    }
}
