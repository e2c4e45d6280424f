//! The packed, cache-blocked, register-tiled kernel backend.
//!
//! `gemm` follows the classic BLIS/faer loop structure over row-major
//! storage:
//!
//! ```text
//! for jc in steps of NC over n:              (B column block)
//!   for pc in steps of KC over k:            (contraction block)
//!     pack op(B)[pc, jc] into NR-wide column micro-panels,
//!       noting each panel's nonzero band [lo, hi) of k rows
//!     for ic in steps of MC over m:          (A row block)
//!       op(A) = A: read its MR-row micro-panels in place
//!       op(A) = Aᵀ, or a ragged last micro-panel: pack MR-tall panels
//!       for each (MR × NR) tile of C[ic, jc]:
//!         tile: MR×NR register accumulators over [lo, hi),
//!           or the whole KC range if the A micro-panel is not all finite
//!         first KC block: C = β·C + α·acc (0 + α·acc at β = 0); later: C += α·acc
//! ```
//!
//! **The tile** is `MR × NR = 8 × 16`. On AVX-512 (`avx512_tile`) each
//! row of accumulators is two zmm registers, sixteen independent fma chains
//! that cover the fma latency on both ports; a `k` step is two `B` loads,
//! eight broadcasts of `A` and sixteen `vfmadd`s, and the tile is stored
//! straight from the registers as `β·C + α·acc` — a multiply, then an add,
//! lane by lane, in the scalar store's order, under a mask of the tile's
//! columns. Elsewhere `tile_body` runs the same chains four rows per pass
//! (a `4 × 16` tile is the whole AVX2 register file). One tile serves every
//! `A` source (`TileA`): micro-panels read in place, packed, or read out
//! of the SYRK's `B` pack.
//!
//! **`unsafe`** lives in two places here. `avx512_tile` uses `std::arch`
//! intrinsics, called only through `tile` when `isa` reports AVX-512;
//! its loads are bounded by two length checks on entry and its `C` access
//! by the lane mask, each with a SAFETY comment. `isa_dispatch!` calls the
//! `#[target_feature]` builds of each kernel body behind the same check.
//!
//! None of the three shortcuts changes a bit. The tile accumulates
//! `acc = fma(a, b, acc)` from `+0`, and an exact-zero `B` entry times a
//! finite `A` entry adds `±0` exactly, a no-op on any sum but an underflowed
//! `−0`: skipping `B`'s leading and trailing zero rows (a triangular factor's
//! zero triangle) is exact up to the sign of such a zero, and an `A`
//! micro-panel holding an `∞` or NaN in any of its rows takes the full range
//! so `∞·0 = NaN` still lands where it did. Reading `A` in place changes only
//! where the loads come from. Folding `β` into the first store performs the
//! operations the separate fill or scale pass did, in the same order.
//!
//! Packing reads the operands *through* their transpose flags, so a
//! transposed operand costs only a strided panel copy that the kernel needs
//! anyway — never a full-matrix `to_owned_transposed()` copy like the naive
//! path takes. Pack buffers come from the **thread-local workspace arena**
//! ([`crate::workspace`]): one `take`/`recycle` pair per buffer use, so the
//! per-`(jc, pc)`-block (and, for `apack`, per-row-block) allocations are
//! gone — a *persistent* thread (a `QrService` worker, a bench loop, the
//! sequential CQR helpers) reaches zero steady-state pack allocations.
//! Threads that live for one kernel sweep (the simulator's per-call rank
//! threads) still pay one allocation per buffer size per thread lifetime;
//! their arena dies with them. A kernel call always runs on its caller's
//! thread: ranks and service workers are the only threads.
//!
//! `syrk` is a *symmetry-aware* instance of the same loop structure: the
//! Gram matrix `AᵀA` is computed by the identical packed tile sweep with
//! `op(A) = Aᵀ` and `op(B) = A`, except that micro-tiles lying entirely
//! below the diagonal are **skipped** (their values are recovered by the
//! final mirror, which a Cholesky in the upper triangle does without). Each
//! tile contracts over its two panels' nonzero bands. Every computed element
//! accumulates in the order the full gemm would use, so the result is
//! bitwise `gemm(1, Aᵀ, A)` at roughly half the tile arithmetic. The same
//! body gives the Cholesky's trailing update (`C −= AᵀA`), the Gram of a
//! matrix's rows (`A·Aᵀ`), and the rank-k append's Gram of `[B; triu(R)]`,
//! packed straight from `B` and `R`.
//!
//! Determinism: for every `C[i, j]` the contraction is accumulated in
//! ascending-`k` order — KC blocks outermost-to-innermost, then ascending
//! within the packed panel — and each row block of `C` is one disjoint
//! sub-view. The same ordering argument makes `AᵀA` bitwise symmetric (the
//! `(i, j)` and `(j, i)` sums are term-for-term identical products), which
//! the syrk mirror relies on.
//!
//! `trsm` partitions the triangular dimension into [`TRSM_NB`]-wide blocks:
//! off-diagonal updates go through the blocked `gemm`, and each diagonal
//! block is solved with independent elements side by side in SIMD lanes —
//! the rows of `B` for the right-side solves (a 32-row group
//! transposed into thread-local scratch), its columns for the left-side
//! ones — each element running exactly the operation sequence of the oracle
//! loop nest in `crate::trsm`, so the diagonal solves are the oracle's bits.
//! At 32, most of a 128-wide solve's flops are `gemm`. A right upper solve
//! of a few rows is that oracle loop, at vector speed; an upper left solve
//! of one column (`upper_column`) runs 8-lane dot products over the solved
//! rows and the oracle's substitution within 8-row blocks, and agrees with
//! the oracle within rounding.
//! `trsm::trmm_upper_upper` runs on the tile here too, over 8-row panels of
//! `U₂`, into a separate output or in place over `U₁`.
//!
//! Every kernel body is written once, `#[inline(always)]`, and compiled per
//! instruction set (scalar, AVX2, AVX-512) by `isa_dispatch!`, which
//! `blas1` and `cholesky` use as well. The tile's `f64::mul_add` (and
//! `vfmadd` in `avx512_tile`) is a correctly rounded fma on every ISA, as
//! is the Cholesky's fused sweep; every other body multiplies, then adds or
//! subtracts, never fused. So every ISA rounds every element identically.

use super::Backend;
use crate::gemm::Trans;
use crate::matrix::{MatMut, MatRef};
use crate::workspace::{recycle_local_vec, take_local_vec, Workspace};

/// Tile height (rows of `C` held in registers).
pub const MR: usize = 8;
/// Tile width (columns of `C` held in registers). With MR = 8 this makes
/// sixteen independent zmm accumulator chains on AVX-512, which cover the
/// fma latency on both fma ports.
pub const NR: usize = 16;
/// Contraction block: one `A` micro-panel (`MR × KC`) plus one packed `B`
/// micro-panel (`KC × NR`) stay resident in L1.
pub const KC: usize = 256;
/// Row block: the packed `MC × KC` `A` block targets L2.
pub const MC: usize = 128;
/// Column block: the packed `KC × NC` `B` block targets the outer cache.
pub const NC: usize = 512;
/// Triangular-solve block width: diagonal blocks this size are solved in
/// lanes with the oracle's per-element sequence, everything else is blocked
/// `gemm`. The width fixes where the `gemm` sums start, so it fixes the bits.
pub const TRSM_NB: usize = 32;

/// The blocked backend (unit struct: all state is per-call, with pack
/// buffers borrowed from the thread-local workspace arena).
#[derive(Clone, Copy, Debug, Default)]
pub struct Blocked;

#[inline]
fn op_shape(a: MatRef<'_>, t: Trans) -> (usize, usize) {
    match t {
        Trans::No => (a.rows(), a.cols()),
        Trans::Yes => (a.cols(), a.rows()),
    }
}

/// An operand read `k`-row by `k`-row for packing: `op(M)` of a stored
/// matrix, or the rank-k append's stack `[B; triu(R)]` — the rows of `B`,
/// then those of `R` with zeros left of its diagonal, whose strict lower
/// triangle is never read.
#[derive(Clone, Copy)]
enum Rows<'a> {
    Op(MatRef<'a>, Trans),
    Stacked(MatRef<'a>, MatRef<'a>),
}

impl Rows<'_> {
    /// `(k, n)`: the operand's rows and columns.
    fn shape(self) -> (usize, usize) {
        match self {
            Rows::Op(m, t) => op_shape(m, t),
            Rows::Stacked(b, r) => (b.rows() + r.rows(), b.cols()),
        }
    }
}

/// Packs rows `k0 .. k0+kc`, columns `col0 .. col0+nc` of `src` into
/// `W`-wide panels: panel `jp` holds columns `jp·W ..` as `kc` consecutive
/// `W`-vectors (zero-padded past `nc`). `W = NR` packs a gemm's `op(B)`;
/// `W = MR` packs `op(A)` as `op(A)ᵀ`'s columns, `MR`-tall micro-panels.
/// `gemm` packs only a transposed `A` and the ragged last micro-panel of an
/// untransposed one, whose full panels it reads in place.
fn pack<const W: usize>(src: Rows<'_>, k0: usize, kc: usize, col0: usize, nc: usize, buf: &mut [f64]) {
    debug_assert!(buf.len() >= nc.div_ceil(W) * kc * W);
    for jp in 0..nc.div_ceil(W) {
        let (j0, w) = (jp * W, W.min(nc - jp * W));
        let c0 = col0 + j0;
        let panel = &mut buf[jp * kc * W..(jp + 1) * kc * W];
        if w < W {
            panel.fill(0.0);
        }
        let chunks = panel.chunks_exact_mut(W).take(kc).enumerate();
        match src {
            Rows::Op(m, Trans::No) => {
                chunks.for_each(|(kk, chunk)| chunk[..w].copy_from_slice(&m.row(k0 + kk)[c0..c0 + w]));
            }
            // Row `p` of op(M) is column `p` of the stored matrix.
            Rows::Op(m, Trans::Yes) => {
                for c in 0..w {
                    for (kk, &v) in m.row(c0 + c)[k0..k0 + kc].iter().enumerate() {
                        panel[kk * W + c] = v;
                    }
                }
            }
            Rows::Stacked(b, r) => chunks.for_each(|(kk, chunk)| match (k0 + kk).checked_sub(b.rows()) {
                None => chunk[..w].copy_from_slice(&b.row(k0 + kk)[c0..c0 + w]),
                Some(i) => {
                    chunk[..w].copy_from_slice(&r.row(i)[c0..c0 + w]);
                    chunk[..i.saturating_sub(c0).min(w)].fill(0.0);
                }
            }),
        }
    }
}

/// Instruction sets the kernels are specialized for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Isa {
    /// Every ISA variant the running CPU can execute, scalar first. Used by
    /// the per-ISA equivalence tests; dispatch itself goes through [`isa`].
    #[cfg(test)]
    pub(crate) fn available() -> Vec<Isa> {
        #[allow(unused_mut)]
        let mut v = vec![Isa::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                v.push(Isa::Avx2);
            }
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("fma") {
                v.push(Isa::Avx512);
            }
        }
        v
    }
}

/// Detects the widest ISA once per process. The microkernel fuses with a
/// correctly rounded `fma` (in software in the scalar body, which a CPU
/// without `fma` runs) and every other body multiplies, then adds or
/// subtracts, so the ISAs agree bit for bit; caching the choice keeps the
/// instruction schedule, too, fixed for the process lifetime.
#[cfg(target_arch = "x86_64")]
pub(crate) fn isa() -> Isa {
    use std::sync::OnceLock;
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(|| {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("fma") {
            Isa::Avx512
        } else if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            Isa::Avx2
        } else {
            Isa::Scalar
        }
    })
}

/// Non-x86 targets always use the portable scalar body.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn isa() -> Isa {
    Isa::Scalar
}

/// `fn name(args…) -> R => body` defines `name(which: Isa, args…) -> R`,
/// which runs the `#[inline(always)]` kernel `body` compiled for `which`:
/// one body per kernel, one instruction-schedule build of it per [`Isa`].
macro_rules! isa_dispatch {
    ($vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? => $body:path) => {
        #[allow(clippy::too_many_arguments)]
        $vis fn $name(which: $crate::backend::blocked::Isa, $($arg: $ty),*) $(-> $ret)? {
            /// # Safety
            ///
            /// Requires the `avx2` and `fma` CPU features.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2", enable = "fma")]
            unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                $body($($arg),*)
            }
            /// # Safety
            ///
            /// Requires the `avx512f` and `fma` CPU features.
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f", enable = "fma")]
            unsafe fn avx512($($arg: $ty),*) $(-> $ret)? {
                $body($($arg),*)
            }
            match which {
                $crate::backend::blocked::Isa::Scalar => $body($($arg),*),
                // SAFETY: `isa()` (and `Isa::available`) only report ISAs the
                // CPU advertises.
                #[cfg(target_arch = "x86_64")]
                $crate::backend::blocked::Isa::Avx2 => unsafe { avx2($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                $crate::backend::blocked::Isa::Avx512 => unsafe { avx512($($arg),*) },
            }
        }
    };
}
pub(crate) use isa_dispatch;

/// The `A` side of one tile: row `r`'s entry at `k` is `rows[r][k · step]`
/// — a packed micro-panel (`step = MR`), one derived from a packed `B` panel
/// (`step = NR`), or `MR` rows of `A` read in place (`step = 1`).
#[derive(Clone, Copy)]
struct TileA<'a> {
    rows: [&'a [f64]; MR],
    step: usize,
}

impl<'a> TileA<'a> {
    /// The `MR` interleaved rows of a packed micro-panel with `step` values
    /// per `k` step, starting at `off` within each step.
    fn packed(panel: &'a [f64], off: usize, step: usize) -> TileA<'a> {
        TileA {
            rows: std::array::from_fn(|r| panel.get(off + r..).unwrap_or_default()),
            step,
        }
    }
}

/// How a finished tile lands in its `C` block.
#[derive(Clone, Copy)]
enum Write {
    /// `C = acc`.
    Copy,
    /// `C = β·C + α·acc`: `C + α·acc` at `β = 1`, and `0 + α·acc` at
    /// `β = 0`, which never reads `C`.
    Scale { alpha: f64, beta: f64 },
}

/// One register tile: `acc[r][c]`, an fma chain from `+0` over `k` in
/// ascending order, `acc = fma(a_rk, b_kc, acc)` — the packed `B` panel
/// holds `b_kc` at `bpanel[k · NR + c]` — written into `c` (`mr × nr`, at
/// most `MR × NR`) as `write` says, element by element. On AVX-512 this is
/// [`avx512_tile`]; elsewhere the portable [`tile_body`].
fn tile(which: Isa, kc: usize, a: TileA<'_>, bpanel: &[f64], c: MatMut<'_>, write: Write) {
    match which {
        // SAFETY: `isa()` (and `Isa::available`) report `Avx512` only on a
        // CPU that has `avx512f`.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { avx512_tile(kc, a, bpanel, c, write) },
        _ => tile_portable(which, kc, a, bpanel, c, write),
    }
}

/// The portable tile, compiled per ISA: four rows per pass over `k`, since
/// a `4 × NR` tile is the whole AVX2 register file. Every element runs the
/// same fma chain as in [`avx512_tile`], so the bits agree.
#[inline(always)]
fn tile_body(kc: usize, a: TileA<'_>, bpanel: &[f64], mut c: MatMut<'_>, write: Write) {
    debug_assert!(kc == 0 || a.rows.iter().all(|row| row.len() > (kc - 1) * a.step));
    let mut acc = [[0.0f64; NR]; MR];
    for (half, pass) in acc.chunks_exact_mut(MR / 2).enumerate() {
        let mut h = [[0.0f64; NR]; MR / 2];
        let [r0, r1, r2, r3] = std::array::from_fn(|r| a.rows[half * MR / 2 + r].iter().step_by(a.step));
        let rows = r0.zip(r1).zip(r2).zip(r3);
        for (b, (((&x0, &x1), &x2), &x3)) in bpanel[..kc * NR].chunks_exact(NR).zip(rows) {
            let b: &[f64; NR] = b.try_into().unwrap();
            for (h_row, x) in h.iter_mut().zip([x0, x1, x2, x3]) {
                for c in 0..NR {
                    h_row[c] = x.mul_add(b[c], h_row[c]);
                }
            }
        }
        pass.copy_from_slice(&h);
    }
    for (r, acc_row) in acc.iter().enumerate().take(c.rows()) {
        let tile = c.row_mut(r).iter_mut().zip(acc_row);
        match write {
            Write::Copy => tile.for_each(|(cv, &av)| *cv = av),
            Write::Scale { alpha, beta: 1.0 } => tile.for_each(|(cv, &av)| *cv += alpha * av),
            Write::Scale { alpha, beta: 0.0 } => tile.for_each(|(cv, &av)| *cv = 0.0 + alpha * av),
            Write::Scale { alpha, beta } => tile.for_each(|(cv, &av)| *cv = beta * *cv + alpha * av),
        }
    }
}

isa_dispatch! {
    fn tile_portable(kc: usize, a: TileA<'_>, bpanel: &[f64], c: MatMut<'_>, write: Write) => tile_body
}

/// The AVX-512 tile: each row of `acc` is two zmm registers, sixteen
/// independent fma chains in all, and a `k` step is two `B` loads, eight
/// broadcasts of `A` and sixteen `vfmadd`s, with the accumulators in
/// registers throughout. The write is [`tile_body`]'s, lane by lane — a
/// multiply, then an add, never fused — under a mask of the tile's `nr`
/// columns, so `C` is read and written only inside the block.
///
/// # Safety
///
/// Requires the `avx512f` CPU feature.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn avx512_tile(kc: usize, a: TileA<'_>, bpanel: &[f64], mut c: MatMut<'_>, write: Write) {
    use std::arch::x86_64::*;
    let (mr, nr) = (c.rows(), c.cols());
    assert!(mr <= MR && nr <= NR && bpanel.len() >= kc * NR);
    assert!(kc == 0 || a.rows.iter().all(|row| row.len() > (kc - 1) * a.step));
    let (bp, ap) = (bpanel.as_ptr(), a.rows.map(<[f64]>::as_ptr));
    let mut acc = [[_mm512_setzero_pd(); 2]; MR];
    for k in 0..kc {
        // SAFETY: `k·NR + NR ≤ kc·NR ≤ bpanel.len()` (asserted above).
        let (b0, b1) = unsafe { (_mm512_loadu_pd(bp.add(k * NR)), _mm512_loadu_pd(bp.add(k * NR + 8))) };
        for (acc_row, &row) in acc.iter_mut().zip(&ap) {
            // SAFETY: `k·step` is inside every `A` row (asserted above).
            let x = _mm512_set1_pd(unsafe { *row.add(k * a.step) });
            *acc_row = [_mm512_fmadd_pd(x, b0, acc_row[0]), _mm512_fmadd_pd(x, b1, acc_row[1])];
        }
    }
    for (r, acc_row) in acc.iter().enumerate().take(mr) {
        let dst = c.row_mut(r).as_mut_ptr();
        for (h, &v) in acc_row.iter().enumerate().take(nr.div_ceil(8)) {
            let mask = (0xffu32 >> (8 - (nr - 8 * h).min(8))) as __mmask8;
            // SAFETY: lanes outside `mask` are neither loaded nor stored, and
            // those inside are columns `8h..nr` of row `r` of `c`.
            unsafe {
                let p = dst.add(8 * h);
                let out = match write {
                    Write::Copy => v,
                    Write::Scale { alpha, beta } => {
                        let av = _mm512_mul_pd(_mm512_set1_pd(alpha), v);
                        if beta == 1.0 {
                            _mm512_add_pd(_mm512_maskz_loadu_pd(mask, p), av)
                        } else if beta == 0.0 {
                            _mm512_add_pd(_mm512_setzero_pd(), av)
                        } else {
                            let bc = _mm512_mul_pd(_mm512_set1_pd(beta), _mm512_maskz_loadu_pd(mask, p));
                            _mm512_add_pd(bc, av)
                        }
                    }
                };
                _mm512_mask_storeu_pd(p, mask, out);
            }
        }
    }
}

/// The `k` rows `[lo, hi)` of a packed `B` micro-panel outside which every
/// entry is an exact zero (`lo == hi` when the panel is all zeros).
fn nonzero_band(panel: &[f64], kc: usize) -> (usize, usize) {
    let rows = panel[..kc * NR].chunks_exact(NR);
    let zero = |row: &&[f64]| row.iter().all(|&v| v == 0.0);
    let lo = rows.clone().take_while(zero).count();
    let hi = kc - rows.rev().take_while(zero).count();
    (lo, hi.max(lo))
}

/// Nonzero exactly when `v` holds an `∞` or NaN: `x − x` is `+0` for a
/// finite `x` and NaN otherwise, so OR-ing the bits tests a panel in one
/// branch-free read.
#[inline(always)]
#[allow(clippy::eq_op)]
fn nonfinite(v: &[f64]) -> u64 {
    v.iter().fold(0, |bits, &x| bits | (x - x).to_bits())
}

/// Multiplies one row block of `op(A)` — its first `arows.rows()` rows (a
/// multiple of `MR`) read in place, the rest the micro-panels `pack`
/// wrote into `apack` — against the packed `B` block, and stores
/// `beta · cblk + alpha ·` the product into `cblk` (`0 + alpha ·` the
/// product at `beta = 0`, which never reads `cblk`), one [`tile`] at a
/// time. The tiles against `B` panel `jp` contract over `bands[jp]` only,
/// except for `A` micro-panels that hold an `∞` or NaN.
#[allow(clippy::too_many_arguments)] // mirrors the BLIS block-product shape
fn block_product(
    which: Isa,
    alpha: f64,
    beta: f64,
    arows: MatRef<'_>,
    apack: &[f64],
    bpack: &[f64],
    bands: &[(usize, usize)],
    kc: usize,
    mut cblk: MatMut<'_>,
) {
    let (mc, nc, in_place) = (cblk.rows(), cblk.cols(), arows.rows() / MR);
    let banded = bands.iter().any(|&(lo, hi)| hi - lo < kc);
    let write = Write::Scale { alpha, beta };
    for ip in 0..mc.div_ceil(MR) {
        let (i0, mr) = (ip * MR, MR.min(mc - ip * MR));
        let rows: Option<[&[f64]; MR]> = (ip < in_place).then(|| std::array::from_fn(|r| arows.row(i0 + r)));
        let apanel = &apack[ip.saturating_sub(in_place) * kc * MR..];
        // ∞·0 = NaN, so only an all-finite micro-panel skips `B`'s zero rows.
        let finite = banded
            && match rows {
                Some(rows) => rows.iter().fold(0, |bits, row| bits | nonfinite(row)),
                None => nonfinite(&apanel[..kc * MR]),
            } == 0;
        for (jp, &band) in bands.iter().enumerate() {
            let (j0, (lo, hi)) = (jp * NR, if finite { band } else { (0, kc) });
            let a = match rows {
                Some(rows) => TileA {
                    rows: rows.map(|row| &row[lo..hi]),
                    step: 1,
                },
                None => TileA::packed(apanel, lo * MR, MR),
            };
            let c = cblk.rb_mut().sub(i0, j0, mr, NR.min(nc - j0));
            tile(which, hi - lo, a, &bpack[(jp * kc + lo) * NR..], c, write);
        }
    }
}

/// The [`nonzero_band`] of each packed `kc`-row panel of `bpack` — or all
/// of `kc` for every panel when some band is short and the block holds an
/// `∞` or NaN, whose products with the skipped zeros must still land.
#[inline(always)]
fn syrk_bands_body(bpack: &[f64], kc: usize, bands: &mut [(usize, usize)]) {
    for (band, panel) in bands.iter_mut().zip(bpack.chunks_exact(kc * NR)) {
        *band = nonzero_band(panel, kc);
    }
    if bands.iter().any(|&(lo, hi)| hi - lo < kc) && nonfinite(bpack) != 0 {
        bands.fill((0, kc));
    }
}

isa_dispatch! {
    fn syrk_bands(bpack: &[f64], kc: usize, bands: &mut [(usize, usize)]) => syrk_bands_body
}

/// The syrk row-block product: `cblk = beta · cblk + alpha · AᵀA` on the
/// micro-tiles
/// that touch or lie above the diagonal, the `A` micro-panels **read out of
/// the packed `B` buffer** — for `AᵀA` both packed operands hold the same
/// columns of `A` over the same `k` range, so a tile's `A` rows are `MR`
/// contiguous values of an `NR`-wide panel per `k` step, and the Gram
/// kernel packs once. `arow0` is `cblk`'s first row *within the packed
/// column range* (`i0 − jc`), `MR`-aligned so every tile's `A` slice stays
/// inside one `NR` panel. A tile contracts over the intersection of its two
/// panels' [`syrk_bands`], so it and its mirror image sum the same terms in
/// the same order.
#[allow(clippy::too_many_arguments)] // mirrors the BLIS block-product shape
fn block_product_packed_b(
    which: Isa,
    (alpha, beta): (f64, f64),
    bpack: &[f64],
    bands: &[(usize, usize)],
    arow0: usize,
    kc: usize,
    mut cblk: MatMut<'_>,
    (row0, col0): (usize, usize),
) {
    debug_assert_eq!(arow0 % MR, 0);
    let (mc, nc) = (cblk.rows(), cblk.cols());
    for jp in 0..nc.div_ceil(NR) {
        let j0 = jp * NR;
        let nr = NR.min(nc - j0);
        // The strip stops at the first tile whose top row lies below the
        // panel's last column.
        for ip in 0..(col0 + j0 + nr).saturating_sub(row0).div_ceil(MR).min(mc.div_ceil(MR)) {
            let i0 = ip * MR;
            let (acol, ap) = (arow0 + i0, (arow0 + i0) / NR);
            let (lo, hi) = (bands[ap].0.max(bands[jp].0), bands[ap].1.min(bands[jp].1));
            let a = TileA::packed(&bpack[(ap * kc + lo) * NR..], acol % NR, NR);
            let c = cblk.rb_mut().sub(i0, j0, MR.min(mc - i0), nr);
            tile(
                which,
                hi.max(lo) - lo,
                a,
                &bpack[(jp * kc + lo) * NR..],
                c,
                Write::Scale { alpha, beta },
            );
        }
    }
}

/// The blocked gemm body, parameterized over the microkernel ISA (the
/// public entry resolves [`isa`] once; tests sweep every available ISA).
#[allow(clippy::too_many_arguments)] // the BLAS dgemm signature
fn gemm_with_isa(
    which: Isa,
    alpha: f64,
    a: MatRef<'_>,
    ta: Trans,
    b: MatRef<'_>,
    tb: Trans,
    beta: f64,
    mut c: MatMut<'_>,
) {
    let (m, k) = op_shape(a, ta);
    let (kb, n) = op_shape(b, tb);
    assert_eq!(kb, k, "gemm inner dimension mismatch");
    assert_eq!((c.rows(), c.cols()), (m, n), "gemm output shape mismatch");

    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        if beta != 1.0 {
            for i in 0..m {
                let row = c.row_mut(i);
                if beta == 0.0 {
                    row.fill(0.0);
                } else {
                    for v in row {
                        *v *= beta;
                    }
                }
            }
        }
        return;
    }

    // Both pack buffers live in the workspace arena — hoisted out of every
    // loop level; a warm thread allocates nothing here.
    let mut bpack = take_local_vec(NC.min(n).div_ceil(NR) * NR * KC.min(k));
    let mut bands = [(0, 0); NC / NR];

    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack::<NR>(Rows::Op(b, tb), pc, kc, jc, nc, &mut bpack);
            let bpack = &bpack[..nc.div_ceil(NR) * kc * NR];
            for (band, panel) in bands.iter_mut().zip(bpack.chunks_exact(kc * NR)) {
                *band = nonzero_band(panel, kc);
            }
            let bands = &bands[..nc.div_ceil(NR)];
            // β folds into the first KC block's store; later blocks add.
            let beta = if pc == 0 { beta } else { 1.0 };
            for i0 in (0..m).step_by(MC) {
                let mc = MC.min(m - i0);
                // An untransposed `A` is read in place, all but a ragged
                // last micro-panel; a transposed one is packed whole.
                let (arows, at) = match ta {
                    Trans::No => (a.sub(i0, pc, mc / MR * MR, kc), Trans::Yes),
                    Trans::Yes => (a.sub(0, 0, 0, 0), Trans::No),
                };
                let len = (mc - arows.rows()).div_ceil(MR) * MR * kc;
                let mut apack = if len > 0 { take_local_vec(len) } else { Vec::new() };
                pack::<MR>(
                    Rows::Op(a, at),
                    pc,
                    kc,
                    i0 + arows.rows(),
                    mc - arows.rows(),
                    &mut apack,
                );
                let cblk = c.rb_mut().sub(i0, jc, mc, nc);
                block_product(which, alpha, beta, arows, &apack, bpack, bands, kc, cblk);
                if len > 0 {
                    recycle_local_vec(apack);
                }
            }
            pc += kc;
        }
        jc += nc;
    }
    recycle_local_vec(bpack);
}

/// The symmetry-aware blocked SYRK body: `c = beta · c + alpha · op(A)ᵀ·op(A)`
/// (`alpha` is `±1`, `beta` is 0 or 1, and `beta = 0` never reads `c`),
/// computing only micro-tiles that touch or lie above the diagonal, then,
/// with `mirror`, copying the upper triangle onto the lower one. Every
/// computed element is bitwise what
/// [`gemm_with_isa`]`(which, alpha, op(A)ᵀ, op(A), beta, c)` produces (same
/// packing, KC blocking and ascending-`k` order; skipping zero rows beside
/// finite panels moves at most the sign of an underflowed zero sum) at
/// ≈half the tile arithmetic. Each later KC block lands as one
/// `c += alpha · acc` per tile, so adding KC-row panels one call each is
/// bitwise one call over all of them.
fn syrk_with_isa(which: Isa, alpha: f64, x: Rows<'_>, beta: f64, mut c: MatMut<'_>, mirror: bool) {
    let (k, n) = x.shape(); // contraction over the rows of X; output n × n
    assert_eq!((c.rows(), c.cols()), (n, n), "syrk output must be n x n");
    if n == 0 || k == 0 {
        if beta == 0.0 {
            (0..n).for_each(|i| c.row_mut(i)[i..].fill(0.0));
        }
        return;
    }

    let mut bpack = take_local_vec(NC.min(n).div_ceil(NR) * NR * KC.min(k));
    let mut bands = [(0, 0); NC / NR];

    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack::<NR>(x, pc, kc, jc, nc, &mut bpack);
            let bpack = &bpack[..nc.div_ceil(NR) * kc * NR];
            syrk_bands(which, bpack, kc, &mut bands[..nc.div_ceil(NR)]);
            // β folds into the first KC block's store; later blocks add.
            let beta = if pc == 0 { beta } else { 1.0 };

            // Row blocks that hold this column block's part of the upper
            // triangle (`MC` divides `NC`, so none straddles `jc + nc`).
            for i0 in (0..jc + nc).step_by(MC) {
                let mc = MC.min(n - i0);
                let cblk = c.rb_mut().sub(i0, jc, mc, nc);
                if i0 >= jc && i0 + mc <= jc + nc {
                    // The output rows of this block are columns the B pack
                    // already holds: derive the A micro-panels from it and
                    // skip the `A` pack entirely. This is the whole
                    // kernel whenever n ≤ NC — every CholeskyQR panel width.
                    block_product_packed_b(which, (alpha, beta), bpack, &bands, i0 - jc, kc, cblk, (i0, jc));
                } else {
                    // Row block outside the packed column range (n > NC),
                    // wholly on the computed side: every tile, packed A.
                    let mut apack = take_local_vec(mc.div_ceil(MR) * MR * kc);
                    pack::<MR>(x, pc, kc, i0, mc, &mut apack);
                    let (arows, bands) = (MatRef::from_slice(&[], 0, 0), &[(0, kc); NC / NR][..nc.div_ceil(NR)]);
                    block_product(which, alpha, beta, arows, &apack, bpack, bands, kc, cblk);
                    recycle_local_vec(apack);
                }
            }
            pc += kc;
        }
        jc += nc;
    }
    recycle_local_vec(bpack);

    // Mirror the computed upper triangle onto the (partially skipped)
    // lower triangle; ascending-k accumulation makes the two bitwise equal
    // wherever both were computed, so this is exactly the naive contract.
    if mirror {
        for i in 0..n {
            for j in 0..i {
                let v = c.at(j, i);
                c.set(i, j, v);
            }
        }
    }
}

/// Rows of `B` one right-side diagonal solve keeps in flight: lane `r` of
/// every accumulator belongs to row `r` of the group, so the 32 dependent
/// chains of a row group advance side by side (four zmm or eight ymm
/// registers).
const SOLVE_LANES: usize = 32;

/// Solves `X·Lᵀ = B` (`upper` false) or `X·U = B` in place for one diagonal
/// block `t` (`jb × jb`), with `b` `m × jb` and `lanes` `jb · SOLVE_LANES`
/// scratch. Each group of [`SOLVE_LANES`] rows is transposed into `lanes`,
/// so row `k` of `lanes` is column `k` of the group and the rows of `B` are
/// the lanes. Every element runs the oracle's sequence
/// (`trsm::trsm_right_lower_trans` / `trsm_right_upper`): start from `B`,
/// subtract `x_k · c_jk` in ascending `k` (`c_jk` is `l_jk`, or `u_kj`),
/// divide by `c_jj`.
#[inline(always)]
fn right_solve_body(t: MatRef<'_>, upper: bool, b: MatMut<'_>, lanes: &mut [f64]) {
    match upper {
        true => right_solve_groups::<true>(t, b, lanes),
        false => right_solve_groups::<false>(t, b, lanes),
    }
}

#[inline(always)]
fn right_solve_groups<const UPPER: bool>(t: MatRef<'_>, mut b: MatMut<'_>, lanes: &mut [f64]) {
    let jb = t.rows();
    let coef = |j: usize, k: usize| if UPPER { t.at(k, j) } else { t.at(j, k) };
    let mut i0 = 0;
    while i0 < b.rows() {
        let rows = SOLVE_LANES.min(b.rows() - i0);
        for (k, xk) in lanes.chunks_exact_mut(SOLVE_LANES).take(jb).enumerate() {
            for (r, v) in xk.iter_mut().enumerate() {
                *v = if r < rows { b.at(i0 + r, k) } else { 0.0 };
            }
        }
        for j in 0..jb {
            let (done, rest) = lanes.split_at_mut(j * SOLVE_LANES);
            let xj = &mut rest[..SOLVE_LANES];
            let mut acc = [0.0f64; SOLVE_LANES];
            acc.copy_from_slice(xj);
            for (k, xk) in done.chunks_exact(SOLVE_LANES).enumerate() {
                let cjk = coef(j, k);
                for l in 0..SOLVE_LANES {
                    acc[l] -= xk[l] * cjk;
                }
            }
            let cjj = coef(j, j);
            for (x, s) in xj.iter_mut().zip(acc) {
                *x = s / cjj;
            }
        }
        for r in 0..rows {
            for (k, v) in b.row_mut(i0 + r)[..jb].iter_mut().enumerate() {
                *v = lanes[k * SOLVE_LANES + r];
            }
        }
        i0 += rows;
    }
}

isa_dispatch! {
    fn right_solve(t: MatRef<'_>, upper: bool, b: MatMut<'_>, lanes: &mut [f64]) => right_solve_body
}

/// Solves `T·X = B` in place for one diagonal block, `T` lower (`upper`
/// false: rows top-down) or upper triangular (rows bottom-up). The columns
/// of `B` are the lanes, `G` at a time; every element runs the oracle's
/// sequence (`trsm::trsm_left_lower` / `trsm_left_upper`): start from `B`,
/// subtract `t_ik · x_k` over the solved rows in ascending `k`, skipping
/// exact-zero `t_ik`, divide by `t_ii`.
#[inline(always)]
fn left_solve_lanes<const G: usize>(t: MatRef<'_>, upper: bool, mut b: MatMut<'_>, c0: usize) {
    let n = t.rows();
    for step in 0..n {
        let i = if upper { n - 1 - step } else { step };
        let trow = t.row(i);
        let mut acc = [0.0f64; G];
        acc.copy_from_slice(&b.row(i)[c0..c0 + G]);
        for k in if upper { i + 1..n } else { 0..i } {
            let tik = trow[k];
            if tik == 0.0 {
                continue;
            }
            let xk = &b.row(k)[c0..c0 + G];
            for l in 0..G {
                acc[l] -= tik * xk[l];
            }
        }
        for (v, a) in b.row_mut(i)[c0..c0 + G].iter_mut().zip(acc) {
            *v = a / trow[i];
        }
    }
}

#[inline(always)]
fn left_solve_body(t: MatRef<'_>, upper: bool, mut b: MatMut<'_>) {
    let mut c0 = 0;
    while c0 < b.cols() {
        let g = match b.cols() - c0 {
            w if w >= 32 => 32,
            w if w >= 8 => 8,
            _ => 1,
        };
        match g {
            32 => left_solve_lanes::<32>(t, upper, b.rb_mut(), c0),
            8 => left_solve_lanes::<8>(t, upper, b.rb_mut(), c0),
            _ => left_solve_lanes::<1>(t, upper, b.rb_mut(), c0),
        }
        c0 += g;
    }
}

isa_dispatch! {
    fn left_solve(t: MatRef<'_>, upper: bool, b: MatMut<'_>) => left_solve_body
}

/// Below this many rows, where [`right_solve`]'s lane groups would run
/// mostly empty, `X·U = B` is the oracle loop `trsm::trsm_right_upper`
/// compiled per ISA, right-looking with each row's entries as the lanes.
/// On a 2-core Xeon (AVX-512) it ran 31–87 % under the blocked solve at 1–3
/// rows for n = 32…512, and lost from 6 rows at n = 512.
const FEW_ROWS: usize = 4;

isa_dispatch! {
    fn right_upper_rows(u: MatRef<'_>, b: MatMut<'_>) => crate::trsm::right_upper_body
}

/// The blocked right solve: `X·Lᵀ = B` for lower `t` (`upper` false) or
/// `X·U = B` for upper `t`, over [`TRSM_NB`]-wide column blocks — a `gemm`
/// update from the solved columns, then [`right_solve`] on the diagonal
/// block. An upper solve of fewer than [`FEW_ROWS`] rows is
/// [`right_upper_rows`] instead.
fn trsm_right_with_isa(which: Isa, t: MatRef<'_>, upper: bool, mut b: MatMut<'_>) {
    let n = t.rows();
    assert_eq!(t.cols(), n, "triangular factor must be square");
    assert_eq!(b.cols(), n, "rhs width must match triangular dimension");
    if upper && b.rows() < FEW_ROWS {
        return right_upper_rows(which, t, b);
    }
    let mut lanes = take_local_vec(TRSM_NB * SOLVE_LANES);
    let mut j0 = 0;
    while j0 < n {
        let jb = TRSM_NB.min(n - j0);
        let (solved, rest) = b.rb_mut().split_cols(j0);
        let (active, _) = rest.split_cols(jb);
        if j0 > 0 {
            // B_j −= X_done · (U[0..j0, j-block], or that slab of Lᵀ).
            let (slab, trans) = match upper {
                true => (t.sub(0, j0, j0, jb), Trans::No),
                false => (t.sub(j0, 0, jb, j0), Trans::Yes),
            };
            gemm_with_isa(which, -1.0, solved.rb(), Trans::No, slab, trans, 1.0, active);
        }
        let (_, rest) = b.rb_mut().split_cols(j0);
        let (active, _) = rest.split_cols(jb);
        right_solve(which, t.sub(j0, j0, jb, jb), upper, active, &mut lanes);
        j0 += jb;
    }
    recycle_local_vec(lanes);
}

/// Rows per diagonal block of [`upper_column`], short for its dependent chains.
const COLUMN_NB: usize = 8;

/// `U·x = b` in place for one contiguous column `x`, over [`COLUMN_NB`]-row
/// blocks bottom-up. Each row of a block first subtracts its dot product
/// with the solved part of `x` (8 lanes, then the tail in order; the rows
/// overlap), then the block runs the oracle's substitution. An exact-zero
/// `u_ik`'s term is `+0` (a bit mask keeps the loop vectorized), which no
/// sum tells from the oracle's skip, so an `∞` in `x` spreads only where
/// the oracle spreads it. The sums are not the oracle's bits: its order is
/// one dependent chain of `n²/2` subtractions, each row summing the most
/// recent solution first.
#[inline(always)]
fn upper_column_body(u: MatRef<'_>, x: &mut [f64]) {
    let term = |r: f64, s: f64| f64::from_bits((r * s).to_bits() & ((r != 0.0) as u64).wrapping_neg());
    let n = u.rows();
    for i0 in (0..n.div_ceil(COLUMN_NB)).rev().map(|b| b * COLUMN_NB) {
        let i1 = n.min(i0 + COLUMN_NB);
        let (head, solved) = x.split_at_mut(i1);
        let whole = solved.len() / 8 * 8;
        for (i, xi) in (i0..i1).zip(&mut head[i0..]) {
            let (row, mut lanes) = (&u.row(i)[i1..], [0.0f64; 8]);
            for (r, s) in row.chunks_exact(8).zip(solved.chunks_exact(8)) {
                for l in 0..8 {
                    lanes[l] += term(r[l], s[l]);
                }
            }
            let tail = (whole..row.len()).fold(0.0, |t, k| t + term(row[k], solved[k]));
            *xi -= lanes.iter().sum::<f64>() + tail;
        }
        for i in (i0..i1).rev() {
            let (row, mut acc) = (u.row(i), x[i]);
            for k in i + 1..i1 {
                acc -= term(row[k], x[k]);
            }
            x[i] = acc / row[i];
        }
    }
}

isa_dispatch! {
    fn upper_column(u: MatRef<'_>, x: &mut [f64]) => upper_column_body
}

/// The blocked left solve: `L·X = B` for lower `t` (`upper` false, row
/// blocks top-down) or `U·X = B` for upper `t` (bottom-up), over
/// [`TRSM_NB`]-tall row blocks — a `gemm` update from the solved rows, then
/// [`left_solve`] on the diagonal block. An upper solve of one column (the
/// back substitution `R·x = Qᵀb`) is [`upper_column`], where the `gemm`
/// update would multiply mostly the padding of its `NR`-wide `B` panel.
fn trsm_left_with_isa(which: Isa, t: MatRef<'_>, upper: bool, mut b: MatMut<'_>) {
    let n = t.rows();
    assert_eq!(t.cols(), n, "triangular factor must be square");
    assert_eq!(b.rows(), n, "rhs height must match triangular dimension");
    if upper && b.cols() == 1 {
        let mut x = take_local_vec(n);
        x.iter_mut().enumerate().for_each(|(i, v)| *v = b.at(i, 0));
        upper_column(which, t, &mut x);
        x.iter().enumerate().for_each(|(i, &v)| b.set(i, 0, v));
        return recycle_local_vec(x);
    }
    let nblocks = n.div_ceil(TRSM_NB);
    for step in 0..nblocks {
        let i0 = TRSM_NB * if upper { nblocks - 1 - step } else { step };
        let i1 = n.min(i0 + TRSM_NB);
        let (top, below) = b.rb_mut().split_rows(i1);
        let (above, mut active) = top.split_rows(i0);
        // B_i −= T[i-block, solved rows] · X_solved.
        let (slab, solved) = match upper {
            true => (t.sub(i0, i1, i1 - i0, n - i1), below),
            false => (t.sub(i0, 0, i1 - i0, i0), above),
        };
        if solved.rows() > 0 {
            let (x, b_i) = (solved.rb(), active.rb_mut());
            gemm_with_isa(which, -1.0, slab, Trans::No, x, Trans::No, 1.0, b_i);
        }
        left_solve(which, t.sub(i0, i0, i1 - i0, i1 - i0), upper, active);
    }
}

/// `out = U₂·U₁` for upper-triangular `U₂`, `U₁` on the gemm microkernel.
/// Both operands are packed whole (`U₂` in `MR`-row panels with structural
/// zeros left of the diagonal, `U₁` in `NR`-column panels with structural
/// zeros below it), and the tile at rows `i0..`, columns `j0..` contracts
/// only over `k ∈ [i0, j0 + NR)`, where its terms can be nonzero, in one
/// pass. Tiles below the diagonal are skipped, and the strict lower
/// triangle is written as zeros. For finite operands this is the oracle's fma chain bit for bit:
/// it starts at `+0`, takes `acc = fma(u2_ik, u1_kj, acc)` in ascending `k`,
/// and only ever adds an exact zero where the oracle skips a term — a no-op
/// unless an underflow has left the sum at `−0`. With `u1` `None`, `out`
/// holds `U₁` on entry and is overwritten in place: `U₁` is packed whole
/// before any tile is written.
pub(crate) fn trmm_upper_upper_with_isa(which: Isa, u2: MatRef<'_>, u1: Option<MatRef<'_>>, mut out: MatMut<'_>) {
    let n = u2.rows();
    let (mpanels, npanels) = (n.div_ceil(MR), n.div_ceil(NR));
    let mut apack = take_local_vec(mpanels * n * MR);
    let mut bpack = take_local_vec(npanels * n * NR);
    // Panel `ip` holds rows `i0..` from `k = i0` on, panel `jp` columns
    // `j0..` up to `k = j0 + NR`; then the structural zeros in the two
    // triangles where a panel meets the diagonal.
    for ip in 0..mpanels {
        let (i0, mr) = (ip * MR, MR.min(n - ip * MR));
        let panel = &mut apack[(ip * n + i0) * MR..(ip + 1) * n * MR];
        pack::<MR>(Rows::Op(u2, Trans::Yes), i0, n - i0, i0, mr, panel);
        for r in 1..mr {
            for k in 0..r {
                panel[k * MR + r] = 0.0;
            }
        }
    }
    for jp in 0..npanels {
        let (j0, nr) = (jp * NR, NR.min(n - jp * NR));
        let panel = &mut bpack[jp * n * NR..(jp * n + j0 + nr) * NR];
        pack::<NR>(Rows::Op(u1.unwrap_or(out.rb()), Trans::No), 0, j0 + nr, j0, nr, panel);
        for c in 0..nr {
            for k in j0 + c + 1..j0 + nr {
                panel[k * NR + c] = 0.0;
            }
        }
    }
    for ip in 0..mpanels {
        let (i0, mr) = (ip * MR, MR.min(n - ip * MR));
        let a = TileA::packed(&apack[(ip * n + i0) * MR..], 0, MR);
        for jp in (i0 / NR)..npanels {
            let (j0, nr) = (jp * NR, NR.min(n - jp * NR));
            let (kend, c) = (n.min(j0 + NR), out.rb_mut().sub(i0, j0, mr, nr));
            tile(which, kend - i0, a, &bpack[(jp * n + i0) * NR..], c, Write::Copy);
        }
    }
    for i in 0..n {
        out.row_mut(i)[..i].fill(0.0);
    }
    recycle_local_vec(bpack);
    recycle_local_vec(apack);
}

impl Backend for Blocked {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn gemm(&self, alpha: f64, a: MatRef<'_>, ta: Trans, b: MatRef<'_>, tb: Trans, beta: f64, c: MatMut<'_>) {
        gemm_with_isa(isa(), alpha, a, ta, b, tb, beta, c);
    }

    fn syrk_add(&self, a: MatRef<'_>, c: MatMut<'_>) {
        syrk_with_isa(isa(), 1.0, Rows::Op(a, Trans::No), 1.0, c, true);
    }

    fn syrk_upper_into(&self, a: MatRef<'_>, c: MatMut<'_>) {
        syrk_with_isa(isa(), 1.0, Rows::Op(a, Trans::No), 0.0, c, false);
    }

    fn gram_rows_upper_into(&self, a: MatRef<'_>, c: MatMut<'_>) {
        syrk_with_isa(isa(), 1.0, Rows::Op(a, Trans::Yes), 0.0, c, false);
    }

    fn stacked_gram_upper_into(&self, b: MatRef<'_>, r: MatRef<'_>, c: MatMut<'_>, _ws: &mut Workspace) {
        syrk_with_isa(isa(), 1.0, Rows::Stacked(b, r), 0.0, c, false);
    }

    fn syrk_sub_upper(&self, a: MatRef<'_>, c: MatMut<'_>) {
        syrk_with_isa(isa(), -1.0, Rows::Op(a, Trans::No), 1.0, c, false);
    }

    fn trsm_right_lower_trans(&self, l: MatRef<'_>, b: MatMut<'_>) {
        trsm_right_with_isa(isa(), l, false, b);
    }

    fn trsm_right_upper(&self, u: MatRef<'_>, b: MatMut<'_>) {
        trsm_right_with_isa(isa(), u, true, b);
    }

    fn trsm_left_lower(&self, l: MatRef<'_>, b: MatMut<'_>) {
        trsm_left_with_isa(isa(), l, false, b);
    }

    fn trsm_left_upper(&self, u: MatRef<'_>, b: MatMut<'_>) {
        trsm_left_with_isa(isa(), u, true, b);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn filled(rows: usize, cols: usize, salt: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            let x = (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((j as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
                .wrapping_add(salt.wrapping_mul(0x94d0_49bb_1331_11eb));
            (x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
    }

    /// The headline bitwise contract, per ISA: the symmetry-aware SYRK and
    /// the full gemm must agree bit for bit under the *same* instruction
    /// schedule — scalar, AVX2, and AVX-512 each verify independently on
    /// hardware that has them.
    #[test]
    fn syrk_is_bitwise_gemm_under_every_available_isa() {
        for which in Isa::available() {
            for &(m, n) in &[
                (1usize, 1usize),
                (KC + 3, 2 * NR + 1),
                (KC - 1, MC + MR + 1),
                (37, NC.min(200) + 5),
                (64, MC),
                (5, 3),
            ] {
                let a = filled(m, n, 8 + m as u64);
                let mut via_syrk = Matrix::zeros(n, n);
                syrk_with_isa(
                    which,
                    1.0,
                    Rows::Op(a.as_ref(), Trans::No),
                    1.0,
                    via_syrk.as_mut(),
                    true,
                );
                let mut via_gemm = Matrix::zeros(n, n);
                gemm_with_isa(
                    which,
                    1.0,
                    a.as_ref(),
                    Trans::Yes,
                    a.as_ref(),
                    Trans::No,
                    0.0,
                    via_gemm.as_mut(),
                );
                for i in 0..n {
                    for j in 0..n {
                        assert_eq!(
                            via_syrk.get(i, j),
                            via_gemm.get(i, j),
                            "{which:?} {m}x{n}: syrk must be bitwise gemm at ({i},{j})"
                        );
                    }
                }
            }
        }
    }

    /// A Gram summed from KC-row panels, one `syrk_add` each and a ragged
    /// last panel, is bitwise one `syrk_into` (a zero fill, then one add)
    /// over the whole operand, per ISA: a tall panel's Gram can be added
    /// while each panel is in cache without moving a bit.
    #[test]
    fn gram_summed_from_kc_panels_is_bitwise_one_syrk_under_every_available_isa() {
        for which in Isa::available() {
            for &(m, n) in &[(3 * KC + 37, 64usize), (2 * KC + 1, NR + 3), (KC + 5, NC + 9)] {
                let a = filled(m, n, 5 + m as u64);
                let mut whole = Matrix::zeros(n, n);
                syrk_with_isa(which, 1.0, Rows::Op(a.as_ref(), Trans::No), 1.0, whole.as_mut(), true);
                let mut summed = Matrix::zeros(n, n);
                for i0 in (0..m).step_by(KC) {
                    let rows = KC.min(m - i0);
                    syrk_with_isa(
                        which,
                        1.0,
                        Rows::Op(a.as_ref().sub(i0, 0, rows, n), Trans::No),
                        1.0,
                        summed.as_mut(),
                        true,
                    );
                }
                assert_eq!(
                    summed, whole,
                    "{which:?} {m}x{n}: panel-summed Gram must be bitwise one syrk"
                );
            }
        }
    }

    /// Every ISA's syrk must also match the naive oracle numerically: the
    /// oracle multiplies, then adds, in another order, while the microkernel
    /// fuses each term, so this is a tolerance check.
    #[test]
    fn syrk_matches_naive_oracle_under_every_available_isa() {
        for which in Isa::available() {
            let (m, n) = (KC + 7, MC + 9);
            let a = filled(m, n, 21);
            let want = crate::syrk::syrk(a.as_ref());
            let mut got = Matrix::zeros(n, n);
            syrk_with_isa(which, 1.0, Rows::Op(a.as_ref(), Trans::No), 1.0, got.as_mut(), true);
            for i in 0..n {
                for j in 0..n {
                    let (g, w) = (got.get(i, j), want.get(i, j));
                    assert!(
                        (g - w).abs() <= 1e-13 * (m as f64) * (1.0 + w.abs()),
                        "{which:?}: ({i},{j}) blocked {g} vs naive {w}"
                    );
                }
            }
        }
    }

    /// The row-block skip must agree with the unskipped sweep at every
    /// block boundary the `first`-block formula can produce.
    #[test]
    fn syrk_row_block_skip_boundaries() {
        // The last entry exceeds NC, exercising the packed-`A` fallback for row
        // blocks outside the packed column range.
        for n in [MC - 1, MC, MC + 1, 2 * MC + 3, 3 * MC, NC + NR + 4] {
            let a = filled(19, n, 31 + n as u64);
            let via_syrk = Blocked.syrk(a.as_ref());
            let via_gemm = Blocked.matmul(a.as_ref(), Trans::Yes, a.as_ref(), Trans::No);
            assert_eq!(via_syrk, via_gemm, "n={n}");
        }
    }

    /// Warm-thread gemm and syrk must not grow the thread-local arena.
    #[test]
    fn kernels_reach_zero_alloc_steady_state_on_one_thread() {
        let a = filled(KC + 5, 70, 3);
        let b = filled(70, 40, 4);
        let mut c = Matrix::zeros(KC + 5, 40);
        let mut g = Matrix::zeros(70, 70);
        // Warm up both kernels' pack-buffer sizes.
        Blocked.gemm(1.0, a.as_ref(), Trans::No, b.as_ref(), Trans::No, 0.0, c.as_mut());
        Blocked.syrk_into(a.as_ref(), g.as_mut());
        let before = crate::workspace::with_thread_local(|ws| ws.heap_allocations());
        for _ in 0..4 {
            Blocked.gemm(1.0, a.as_ref(), Trans::No, b.as_ref(), Trans::No, 0.0, c.as_mut());
            Blocked.syrk_into(a.as_ref(), g.as_mut());
        }
        let after = crate::workspace::with_thread_local(|ws| ws.heap_allocations());
        assert_eq!(before, after, "steady-state kernels must not allocate pack buffers");
    }

    #[test]
    fn syrk_empty_dims() {
        assert_eq!(Blocked.syrk(Matrix::zeros(0, 4).as_ref()), Matrix::zeros(4, 4));
        assert_eq!(Blocked.syrk(Matrix::zeros(4, 0).as_ref()), Matrix::zeros(0, 0));
    }

    /// A triangular factor of order `n` (`upper` or lower) with a dominant
    /// diagonal, some exact zeros in its triangle (the left solves skip those
    /// terms) and NaN in the other triangle, which no solve reads.
    fn triangle(n: usize, upper: bool, salt: u64) -> Matrix {
        let f = filled(n, n, salt);
        Matrix::from_fn(n, n, |i, j| match (i, j) {
            (i, j) if (j > i) != upper && i != j => f64::NAN,
            (i, j) if i == j => 2.0 + f.get(i, j).abs(),
            (i, j) if (i + 2 * j) % 7 == 3 => 0.0,
            (i, j) => f.get(i, j),
        })
    }

    /// Bitwise equality, any NaN matching any NaN (the compiler may swap the
    /// operands of an add, so the NaN an add of two NaNs returns is not
    /// fixed even for the oracle).
    fn assert_bits(got: &Matrix, want: &Matrix, what: &str) {
        for (k, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
            assert!(same, "{what}: element {k} is {g}, the oracle gave {w}");
        }
    }

    /// The gemm contract element by element, with none of the kernel's
    /// packing, tiling or shortcuts, over `op(A)` and `op(B)` given as
    /// stored matrices: a fill or scale pass over `C`, then for each `KC`
    /// block of the contraction an fma chain from `+0` over ascending `p`,
    /// added into `C` as `c += α·acc`.
    fn reference_gemm(alpha: f64, opa: &Matrix, opb: &Matrix, beta: f64, c: &mut Matrix) {
        let (m, k, n) = (opa.rows(), opa.cols(), opb.cols());
        if beta != 1.0 {
            for v in c.data_mut() {
                *v = if beta == 0.0 { 0.0 } else { *v * beta };
            }
        }
        if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
            return;
        }
        for pc in (0..k).step_by(KC) {
            for i in 0..m {
                for j in 0..n {
                    let terms = pc..k.min(pc + KC);
                    let acc = terms.fold(0.0, |acc, p| opa.get(i, p).mul_add(opb.get(p, j), acc));
                    c.set(i, j, c.get(i, j) + alpha * acc);
                }
            }
        }
    }

    /// The gemm is the element-wise reference above bit for bit under every ISA,
    /// across shapes on both sides of `MR`, `NR`, `KC`, `MC` and `NC`, both
    /// transpose flags, special `α` and `β`, `B` dense, triangular, all
    /// zero and zero in its leading or trailing rows, `C` holding NaN or
    /// `−0.0`, and `A` holding `±∞` and NaN in the rows `B`'s bands skip.
    /// Each shape and `B` kind draws the other choices from a fixed
    /// splitmix sequence.
    #[test]
    fn gemm_is_bitwise_the_reference_body_under_every_isa() {
        let mut state = 0x5eed_u64;
        let mut draw = |n: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            ((z ^ (z >> 31)) % n as u64) as usize
        };
        let trans = [Trans::No, Trans::Yes];
        for m in [1, 3, 4, 5, 129, 300] {
            for k in [1, 17, 64, 256, 257, 600] {
                for n in [1, 15, 16, 17, 64, 513] {
                    for kind in ["dense", "upper", "lower", "zero", "zero first rows", "zero last rows"] {
                        let (ta, tb) = (trans[draw(2)], trans[draw(2)]);
                        let alpha = [1.0, -1.0, -2.5, 0.0][draw(4)];
                        let beta = [0.0, 1.0, -2.5][draw(3)];
                        let (zeros, dense) = ((k / 3).max(1), filled(k, n, 2));
                        let opb = Matrix::from_fn(k, n, |p, j| match kind {
                            "upper" if p > j => 0.0,
                            "lower" if p < j => 0.0,
                            "zero" => 0.0,
                            "zero first rows" if p < zeros => 0.0,
                            "zero last rows" if p + zeros >= k => 0.0,
                            _ => dense.get(p, j),
                        });
                        let mut opa = filled(m, k, 1);
                        if draw(2) == 1 {
                            opa.set(0, k - 1, f64::INFINITY);
                            opa.set(m - 1, 0, f64::NAN);
                            opa.set(m / 2, k / 2, f64::NEG_INFINITY);
                        }
                        let c0 = Matrix::from_fn(m, n, |_, _| [f64::NAN, -0.0][draw(2)]);
                        let mut want = c0.clone();
                        reference_gemm(alpha, &opa, &opb, beta, &mut want);
                        let a = if ta == Trans::No { opa } else { opa.transposed() };
                        let b = if tb == Trans::No { opb } else { opb.transposed() };
                        for which in Isa::available() {
                            let mut got = c0.clone();
                            gemm_with_isa(which, alpha, a.as_ref(), ta, b.as_ref(), tb, beta, got.as_mut());
                            let what = format!("{which:?} {m}x{k}x{n} {kind} {ta:?} {tb:?} α={alpha} β={beta}");
                            assert_bits(&got, &want, &what);
                        }
                    }
                }
            }
        }
    }

    /// The microkernel rounds once per term on every ISA: the scalar body's
    /// `f64::mul_add` is the correctly rounded `fma`, which is what the AVX
    /// bodies' `vfmadd` computes, so gemm (both transpose flags, `B` dense or
    /// banded triangular), SYRK and the triangular product give the same bits
    /// everywhere, at shapes on both sides of `KC`, `MC` and `NC` and with
    /// `−0` and `±∞` among the inputs.
    #[test]
    fn fused_kernels_agree_bitwise_across_isas() {
        // `filled` with `−0` at every 13th entry and one `+∞` and one `−∞`.
        let special = |rows: usize, cols: usize, salt: u64| {
            let mut x = filled(rows, cols, salt);
            for (k, v) in x.data_mut().iter_mut().enumerate() {
                if k % 13 == 5 {
                    *v = -0.0;
                }
            }
            x.set(rows / 2, cols - 1, f64::INFINITY);
            x.set(rows - 1, cols / 3, f64::NEG_INFINITY);
            x
        };
        let (isas, trans) = (Isa::available(), [Trans::No, Trans::Yes]);
        let agree = |what: &str, run: &dyn Fn(Isa) -> Matrix| {
            let want = run(Isa::Scalar);
            for &which in &isas[1..] {
                assert_bits(&run(which), &want, &format!("{which:?} {what}"));
            }
        };
        for (m, k, n) in [(1, 1, 1), (5, 17, 3), (MC + 5, KC + 3, NC + NR + 1)] {
            for (case, kind) in ["dense", "upper", "lower"].into_iter().enumerate() {
                let dense = special(k, n, 2);
                let opb = Matrix::from_fn(k, n, |p, j| match kind {
                    "upper" if p > j => 0.0,
                    "lower" if p < j => -0.0,
                    _ => dense.get(p, j),
                });
                let (opa, beta) = (special(m, k, 1), [0.0, 1.0, -2.5][case]);
                let c0 = Matrix::from_fn(m, n, |i, j| if (i + j) % 2 == 0 { -0.0 } else { 0.5 });
                for (ta, tb) in trans.into_iter().flat_map(|ta| trans.map(|tb| (ta, tb))) {
                    let a = if ta == Trans::No { opa.clone() } else { opa.transposed() };
                    let b = if tb == Trans::No { opb.clone() } else { opb.transposed() };
                    agree(&format!("gemm {m}x{k}x{n} {kind} {ta:?} {tb:?}"), &|which| {
                        let mut c = c0.clone();
                        gemm_with_isa(which, -1.5, a.as_ref(), ta, b.as_ref(), tb, beta, c.as_mut());
                        c
                    });
                }
            }
        }
        for (k, n) in [(1, 1), (KC + 3, MC + 5), (KC + 3, NC + NR + 1)] {
            let a = special(k, n, 3);
            agree(&format!("syrk {k}x{n}"), &|which| {
                let mut c = Matrix::zeros(n, n);
                syrk_with_isa(which, 1.0, Rows::Op(a.as_ref(), Trans::No), 1.0, c.as_mut(), true);
                c
            });
        }
        for n in [1, 17, KC + 3] {
            let upper = |salt| {
                let f = special(n, n, salt);
                Matrix::from_fn(n, n, |i, j| if j < i { f64::NAN } else { f.get(i, j) })
            };
            let (u2, u1) = (upper(4), upper(5));
            agree(&format!("trmm n={n}"), &|which| {
                let mut out = Matrix::zeros(n, n);
                trmm_upper_upper_with_isa(which, u2.as_ref(), Some(u1.as_ref()), out.as_mut());
                out
            });
        }
    }

    /// The diagonal-block solves are the oracle loop nests bit for bit under
    /// every ISA, at every block order and at row counts on and off the lane
    /// width (but an upper left solve of one column: that takes
    /// [`upper_column`]). One entry of `B` is infinite, so a term the left solves skip
    /// (an exact-zero coefficient) would show as a NaN if it were taken.
    #[test]
    fn diagonal_solves_are_bitwise_the_oracle_under_every_isa() {
        for which in Isa::available() {
            for n in 1..=TRSM_NB {
                let (l, u) = (triangle(n, false, n as u64), triangle(n, true, 3 + n as u64));
                for m in [1, 5, SOLVE_LANES - 1, SOLVE_LANES, SOLVE_LANES + 1, 67, 130] {
                    let mut b = filled(m, n, m as u64);
                    b.set(0, 0, f64::INFINITY);
                    let what = format!("{which:?} n={n} m={m}");
                    let (mut want, mut got) = (b.clone(), b.clone());
                    crate::trsm::trsm_right_lower_trans(l.as_ref(), want.as_mut());
                    trsm_right_with_isa(which, l.as_ref(), false, got.as_mut());
                    assert_bits(&got, &want, &format!("right lower-trans {what}"));
                    let (mut want, mut got) = (b.clone(), b.clone());
                    crate::trsm::trsm_right_upper(u.as_ref(), want.as_mut());
                    trsm_right_with_isa(which, u.as_ref(), true, got.as_mut());
                    assert_bits(&got, &want, &format!("right upper {what}"));
                    let b = b.transposed();
                    let (mut want, mut got) = (b.clone(), b.clone());
                    crate::trsm::trsm_left_lower(l.as_ref(), want.as_mut());
                    trsm_left_with_isa(which, l.as_ref(), false, got.as_mut());
                    assert_bits(&got, &want, &format!("left lower {what}"));
                    if m == 1 {
                        continue; // the column path; see `one_column_upper_left_solve_…`
                    }
                    let (mut want, mut got) = (b.clone(), b.clone());
                    crate::trsm::trsm_left_upper(u.as_ref(), want.as_mut());
                    trsm_left_with_isa(which, u.as_ref(), true, got.as_mut());
                    assert_bits(&got, &want, &format!("left upper {what}"));
                }
            }
        }
    }

    /// The few-rows right solve is the oracle bit for bit under every ISA,
    /// at orders on both sides of the lane widths and past one diagonal
    /// block, with exact zeros, `−0` and `∞` in `U` or `B`. Every term is
    /// taken, as the oracle takes it, so an `∞` times a zero lands as NaN.
    #[test]
    fn few_rows_right_solve_is_bitwise_the_oracle_under_every_isa() {
        for which in Isa::available() {
            for n in [1, 5, 31, 32, 33, 128, 130] {
                let finite = triangle(n, true, 11 + n as u64);
                let mut infinite = finite.clone();
                infinite.set(0, n - 1, f64::INFINITY);
                infinite.set(n / 2, n / 2, -0.0);
                for (u, kind) in [(finite, "finite U"), (infinite, "∞ and −0 in U")] {
                    for rows in 1..FEW_ROWS {
                        let mut b = filled(rows, n, rows as u64);
                        b.set(rows - 1, n / 3, -0.0);
                        b.set(0, n - 1, 0.0);
                        if rows > 1 {
                            b.set(1, 0, f64::INFINITY);
                        }
                        let (mut want, mut got) = (b.clone(), b);
                        crate::trsm::trsm_right_upper(u.as_ref(), want.as_mut());
                        trsm_right_with_isa(which, u.as_ref(), true, got.as_mut());
                        assert_bits(&got, &want, &format!("{which:?} n={n} rows={rows} {kind}"));
                    }
                }
            }
        }
    }

    /// `[B; R]` as the append stacks it: a `k × n` dense block over an
    /// upper-triangular `R` (exact zeros, and `−0` in its triangle), so every
    /// packed column panel ends in a run of zero rows.
    fn stacked(k: usize, n: usize, salt: u64) -> Matrix {
        let (b, r) = (filled(k, n, salt), filled(n, n, salt + 1));
        Matrix::from_fn(k + n, n, |i, j| match i.checked_sub(k) {
            None => b.get(i, j),
            Some(i) if i > j => 0.0,
            Some(i) if (i + j) % 9 == 4 => -0.0,
            Some(i) => r.get(i, j),
        })
    }

    /// The SYRK of `p`, both forms, against `gemm(1, Pᵀ, P)` under one ISA:
    /// the mirrored form everywhere, the upper form on its triangle.
    fn assert_syrk_is_its_gemm(which: Isa, p: &Matrix, what: &str) {
        let n = p.cols();
        let mut via_gemm = Matrix::zeros(n, n);
        gemm_with_isa(
            which,
            1.0,
            p.as_ref(),
            Trans::Yes,
            p.as_ref(),
            Trans::No,
            0.0,
            via_gemm.as_mut(),
        );
        let (mut mirrored, mut upper) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
        syrk_with_isa(
            which,
            1.0,
            Rows::Op(p.as_ref(), Trans::No),
            1.0,
            mirrored.as_mut(),
            true,
        );
        syrk_with_isa(which, 1.0, Rows::Op(p.as_ref(), Trans::No), 1.0, upper.as_mut(), false);
        assert_bits(&mirrored, &via_gemm, &format!("{which:?} {what} mirrored"));
        for i in 0..n {
            for j in 0..i {
                upper.set(i, j, via_gemm.get(i, j));
            }
        }
        assert_bits(&upper, &via_gemm, &format!("{which:?} {what} upper"));
    }

    /// The SYRK tiles contract over the panels' nonzero bands, and the
    /// result is still its own gemm bit for bit under every ISA: the append's
    /// `[B; R]` stack at widths on both sides of `NR`, `MC` and `NC`, and
    /// depths on both sides of `KC`.
    #[test]
    fn banded_syrk_is_bitwise_its_gemm_under_every_isa() {
        for which in Isa::available() {
            for (k, n) in [(1, 1), (3, 17), (64, 128), (64, 130), (KC + 3, 40), (5, NC + 9)] {
                assert_syrk_is_its_gemm(which, &stacked(k, n, 3 + n as u64), &format!("[B; R] {k}+{n}x{n}"));
            }
        }
    }

    /// The append's Gram packs straight from `B` and `R` and is bitwise the
    /// SYRK of the materialized stack `[B; triu(R)]` under every ISA, NaN in
    /// `R`'s strict lower triangle unread — `Blocked` and the trait's
    /// default (which builds the stack) alike — at widths on both sides of
    /// `NR`, `MC` and `NC` (the last packs its `A` rows too).
    #[test]
    fn stacked_gram_is_bitwise_the_gram_of_the_stack_under_every_isa() {
        for (k, n) in [(1, 1), (3, 17), (64, 128), (KC + 3, 40), (5, NC + 9)] {
            let stack = stacked(k, n, 9 + n as u64);
            let (b, r) = (
                stack.view(0, 0, k, n),
                Matrix::from_fn(n, n, |i, j| match j < i {
                    true => f64::NAN,
                    false => stack.get(k + i, j),
                }),
            );
            let mut default = Matrix::zeros(n, n);
            super::super::Naive.stacked_gram_upper_into(b, r.as_ref(), default.as_mut(), &mut Workspace::new());
            let mut naive = Matrix::zeros(n, n);
            super::super::Naive.syrk_upper_into(stack.as_ref(), naive.as_mut());
            assert_bits(&default, &naive, &format!("default {k}+{n}x{n}"));
            for which in Isa::available() {
                let (mut want, mut got) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
                syrk_with_isa(
                    which,
                    1.0,
                    Rows::Op(stack.as_ref(), Trans::No),
                    0.0,
                    want.as_mut(),
                    true,
                );
                syrk_with_isa(which, 1.0, Rows::Stacked(b, r.as_ref()), 0.0, got.as_mut(), true);
                assert_bits(&got, &want, &format!("{which:?} {k}+{n}x{n}"));
            }
        }
    }

    /// A zero row of one panel is not skipped beside a panel holding an `∞`
    /// in that row: `∞·0 = NaN` lands where the gemm puts it.
    #[test]
    fn syrk_bands_keep_the_terms_of_an_infinite_panel_under_every_isa() {
        let (k, n) = (4, 48);
        for which in Isa::available() {
            let mut p = stacked(k, n, 7);
            // Row 40 of `R`, column 2: inside panel 0, and in the zero rows
            // that end panel 1 (columns 16..32).
            p.set(k + 40, 2, f64::INFINITY);
            assert_syrk_is_its_gemm(which, &p, "∞ in a zero row");
            let mut upper = Matrix::zeros(n, n);
            syrk_with_isa(which, 1.0, Rows::Op(p.as_ref(), Trans::No), 1.0, upper.as_mut(), false);
            assert!(upper.get(2, 20).is_nan(), "{which:?}: ∞·0 must reach (2, 20)");
        }
    }

    /// Past one diagonal block the blocked solves add `gemm` updates, so
    /// they leave the oracle's bits; they still agree with it numerically,
    /// and every ISA gives the same bits.
    #[test]
    fn blocked_solves_agree_across_isas_and_with_the_oracle() {
        type Solve = fn(Isa, MatRef<'_>, bool, MatMut<'_>);
        type Oracle = fn(MatRef<'_>, MatMut<'_>);
        let cases: [(&str, bool, Solve, Oracle); 4] = [
            (
                "right lower-trans",
                false,
                trsm_right_with_isa,
                crate::trsm::trsm_right_lower_trans,
            ),
            ("right upper", true, trsm_right_with_isa, crate::trsm::trsm_right_upper),
            ("left lower", false, trsm_left_with_isa, crate::trsm::trsm_left_lower),
            ("left upper", true, trsm_left_with_isa, crate::trsm::trsm_left_upper),
        ];
        let isas = Isa::available();
        for n in [TRSM_NB + 1, 100, 130, 193] {
            for m in [SOLVE_LANES + 3, 67] {
                for (name, upper, solve, oracle) in cases {
                    let t = triangle(n, upper, 5 + upper as u64);
                    let b = if name.starts_with("right") {
                        filled(m, n, 7)
                    } else {
                        filled(n, m, 7)
                    };
                    let mut want = b.clone();
                    oracle(t.as_ref(), want.as_mut());
                    let mut first = b.clone();
                    solve(isas[0], t.as_ref(), upper, first.as_mut());
                    for (g, w) in first.data().iter().zip(want.data()) {
                        assert!(
                            (g - w).abs() <= 1e-9 * (1.0 + w.abs()),
                            "{name} n={n} m={m}: {g} vs {w}"
                        );
                    }
                    for &which in &isas[1..] {
                        let mut got = b.clone();
                        solve(which, t.as_ref(), upper, got.as_mut());
                        assert_bits(&got, &first, &format!("{name} {which:?} n={n} m={m}"));
                    }
                }
            }
        }
    }

    /// `Blocked` with every kernel on one instruction set, for the per-ISA
    /// tests of the kernels above the trait (`cholesky`, `update`).
    #[derive(Debug)]
    pub(crate) struct BlockedOn(pub(crate) Isa);

    impl Backend for BlockedOn {
        fn name(&self) -> &'static str {
            "blocked-on"
        }
        fn gemm(&self, alpha: f64, a: MatRef<'_>, ta: Trans, b: MatRef<'_>, tb: Trans, beta: f64, c: MatMut<'_>) {
            gemm_with_isa(self.0, alpha, a, ta, b, tb, beta, c);
        }
        fn syrk_add(&self, a: MatRef<'_>, c: MatMut<'_>) {
            syrk_with_isa(self.0, 1.0, Rows::Op(a, Trans::No), 1.0, c, true);
        }
        fn syrk_sub_upper(&self, a: MatRef<'_>, c: MatMut<'_>) {
            syrk_with_isa(self.0, -1.0, Rows::Op(a, Trans::No), 1.0, c, false);
        }
        fn trsm_right_lower_trans(&self, l: MatRef<'_>, b: MatMut<'_>) {
            trsm_right_with_isa(self.0, l, false, b);
        }
        fn trsm_right_upper(&self, u: MatRef<'_>, b: MatMut<'_>) {
            trsm_right_with_isa(self.0, u, true, b);
        }
        fn trsm_left_lower(&self, l: MatRef<'_>, b: MatMut<'_>) {
            trsm_left_with_isa(self.0, l, false, b);
        }
        fn trsm_left_upper(&self, u: MatRef<'_>, b: MatMut<'_>) {
            trsm_left_with_isa(self.0, u, true, b);
        }
    }

    /// The 8-row tile is the element-wise reference bit for bit under every
    /// ISA where its shape shows: row counts off a multiple of `MR`, so the
    /// last micro-panel is packed beside in-place ones, or is the only one,
    /// on both sides of the in-place/packed boundary and of `MC`, a
    /// transposed (wholly packed) `A`, and `β ∈ {0, 1, 0.5}`. `B` is upper
    /// triangular, so its panels' zero rows are skipped beside finite
    /// micro-panels, and `A` holds an `∞` in one half of one micro-panel,
    /// in a column those zero rows meet: the whole micro-panel takes the
    /// full `k` range, so `∞·0 = NaN` lands in that row.
    #[test]
    fn eight_row_tile_is_bitwise_the_reference_under_every_isa() {
        for m in [1, 5, MR - 1, MR + 1, MR + 4, 2 * MR + 3, MC - 3, MC + 5] {
            for (k, n) in [(MR + 3, NR + 5), (40, 2 * NR), (KC + 9, 3 * NR + 1)] {
                let opb = Matrix::from_fn(k, n, |p, j| if p > j { 0.0 } else { filled(k, n, 3).get(p, j) });
                let mut opa = filled(m, k, 4);
                let (row, col) = ((m - 1).min(MR / 2 + 1), k - 1);
                opa.set(row, col, f64::INFINITY);
                for beta in [0.0, 1.0, 0.5] {
                    for ta in [Trans::No, Trans::Yes] {
                        let c0 = Matrix::from_fn(m, n, |i, j| if (i + j) % 3 == 0 { -0.0 } else { 0.25 });
                        let mut want = c0.clone();
                        reference_gemm(-1.5, &opa, &opb, beta, &mut want);
                        assert!(want.get(row, 0).is_nan() || k - 1 == 0, "∞·0 must reach row {row}");
                        let a = if ta == Trans::No { opa.clone() } else { opa.transposed() };
                        for which in Isa::available() {
                            let mut got = c0.clone();
                            gemm_with_isa(which, -1.5, a.as_ref(), ta, opb.as_ref(), Trans::No, beta, got.as_mut());
                            assert_bits(&got, &want, &format!("{which:?} {m}x{k}x{n} β={beta} {ta:?}"));
                        }
                    }
                }
            }
        }
    }

    /// The SYRK tile reads its `A` rows out of the packed `B` panel at an
    /// offset `acol % NR` of `0` or `MR`; widths with `n % MR` of 0 and 4
    /// end the triangle on a full or a half-empty tile, and an `∞` in one
    /// half of a micro-panel makes every band full, as the gemm takes them.
    /// Each form is its gemm bit for bit under every ISA.
    #[test]
    fn syrk_tile_pairs_are_bitwise_their_gemm_under_every_isa() {
        for which in Isa::available() {
            for n in [MR, MR + 4, 2 * NR, 2 * NR + 4, MC + 4, MC + 8] {
                for k in [3, MR + 1, 70] {
                    let p = stacked(k, n, 5 + n as u64);
                    assert_syrk_is_its_gemm(which, &p, &format!("[B; R] {k}+{n}x{n}"));
                    let mut half = p.clone();
                    half.set(k + n - 1, MR / 2 + 1, f64::NAN);
                    assert_syrk_is_its_gemm(which, &half, &format!("NaN in one half {k}+{n}x{n}"));
                }
            }
        }
    }

    /// [`upper_column`] element by element: per `COLUMN_NB` block bottom-up,
    /// each row subtracts its 8-lane dot product with the solved part
    /// (`blas1::dot_lanes`' split, exact-zero coefficients' terms taken as
    /// `+0`), then the block runs the oracle's substitution over its own rows.
    fn reference_upper_column(u: &Matrix, x: &mut [f64]) {
        let n = u.rows();
        for i0 in (0..n).step_by(COLUMN_NB).rev() {
            let i1 = n.min(i0 + COLUMN_NB);
            for i in i0..i1 {
                let (mut lanes, mut tail) = ([0.0f64; 8], 0.0);
                let whole = i1 + (n - i1) / 8 * 8;
                for k in i1..n {
                    let term = if u.get(i, k) == 0.0 { 0.0 } else { u.get(i, k) * x[k] };
                    match k < whole {
                        true => lanes[(k - i1) % 8] += term,
                        false => tail += term,
                    }
                }
                x[i] -= lanes.iter().sum::<f64>() + tail;
            }
            for i in (i0..i1).rev() {
                let mut acc = x[i];
                for k in i + 1..i1 {
                    if u.get(i, k) != 0.0 {
                        acc -= u.get(i, k) * x[k];
                    }
                }
                x[i] = acc / u.get(i, i);
            }
        }
    }

    /// An upper left solve of one column is [`upper_column`] bit for bit
    /// under every ISA, and agrees with the oracle: within rounding where
    /// the oracle is finite (the dot products sum in another order, so it
    /// cannot be the oracle's bits: the oracle's own order is one dependent
    /// chain), and exactly where it is not. In the second case `B` holds
    /// `∞` in its last row `p` and `−0` in row `q = p/2`, and `U`'s columns
    /// `p` and `q` are exact zeros above the diagonal but at `u_qp`: the
    /// skipped terms keep every row but `p` and `q` finite, as the oracle
    /// does, where a taken `0·∞` would be NaN.
    #[test]
    fn one_column_upper_left_solve_is_the_column_path_under_every_isa() {
        for n in [1, 7, 8, 9, 31, 32, 33, 64, 65, 128, 130, 193] {
            let (p, q) = (n - 1, (n - 1) / 2);
            let finite = (triangle(n, true, 21 + n as u64), filled(n, 1, 9));
            let mut u = finite.0.clone();
            for i in 0..p {
                u.set(i, p, if i == q { 0.75 } else { 0.0 });
                if i < q {
                    u.set(i, q, 0.0);
                }
            }
            let mut b = finite.1.clone();
            b.set(q, 0, -0.0);
            b.set(p, 0, f64::INFINITY);
            for (kind, (u, b)) in [("finite", finite), ("∞ and zeros", (u, b))] {
                let what = format!("n={n} {kind}");
                let mut want = b.clone();
                reference_upper_column(&u, want.data_mut());
                let mut oracle = b.clone();
                crate::trsm::trsm_left_upper(u.as_ref(), oracle.as_mut());
                for (i, (g, w)) in want.data().iter().zip(oracle.data()).enumerate() {
                    match w.is_finite() {
                        true => assert!((g - w).abs() <= 1e-12 * (1.0 + w.abs()), "{what} row {i}: {g} vs {w}"),
                        false => assert!(
                            g.to_bits() == w.to_bits() || g.is_nan() && w.is_nan(),
                            "{what} row {i}: {g} vs {w}"
                        ),
                    }
                }
                if kind != "finite" {
                    let infinite: Vec<usize> = (0..n).filter(|&i| !oracle.get(i, 0).is_finite()).collect();
                    assert_eq!(infinite, if p == q { vec![p] } else { vec![q, p] }, "{what}");
                }
                for which in Isa::available() {
                    let mut got = b.clone();
                    trsm_left_with_isa(which, u.as_ref(), true, got.as_mut());
                    assert_bits(&got, &want, &format!("{which:?} {what}"));
                }
            }
        }
    }

    /// The triangular tier on the tile — both blocked upper solves (their
    /// few-rows and one-column paths included) and `trmm_upper_upper` — gives
    /// the same bits under every ISA, and agrees with the `Naive` oracle
    /// within rounding, at orders on both sides of the solve blocks and the
    /// Cholesky's (`cholesky`'s tests do `potrf_upper`).
    #[test]
    fn triangular_tier_agrees_across_isas_and_with_naive() {
        let isas = Isa::available();
        for n in [1, 31, 32, 33, 64, 65, 127, 128, 130, 193] {
            let (u, u2) = (triangle(n, true, 40 + n as u64), triangle(n, true, 41 + n as u64));
            type Run<'a> = Box<dyn Fn(Isa) -> Matrix + 'a>;
            let solve = |upper_rhs: (usize, usize), run: fn(Isa, MatRef<'_>, MatMut<'_>)| -> Run<'_> {
                let (u, b) = (u.clone(), filled(upper_rhs.0, upper_rhs.1, 43));
                Box::new(move |which| {
                    let mut x = b.clone();
                    run(which, u.as_ref(), x.as_mut());
                    x
                })
            };
            let mut cases: Vec<(String, Run<'_>, Matrix)> = Vec::new();
            let naive = |f: fn(MatRef<'_>, MatMut<'_>), rows: usize, cols: usize| {
                let mut x = filled(rows, cols, 43);
                f(u.as_ref(), x.as_mut());
                x
            };
            for rows in [1, 3, 64] {
                let right = solve((rows, n), |w, u, b| trsm_right_with_isa(w, u, true, b));
                cases.push((
                    format!("right upper {rows} rows"),
                    right,
                    naive(crate::trsm::trsm_right_upper, rows, n),
                ));
                let left = solve((n, rows), |w, u, b| trsm_left_with_isa(w, u, true, b));
                cases.push((
                    format!("left upper {rows} cols"),
                    left,
                    naive(crate::trsm::trsm_left_upper, n, rows),
                ));
            }
            let trmm: Run<'_> = Box::new(|which| {
                let mut out = Matrix::zeros(n, n);
                trmm_upper_upper_with_isa(which, u2.as_ref(), Some(u.as_ref()), out.as_mut());
                out
            });
            let clean = |m: &Matrix| Matrix::from_fn(n, n, |i, j| if j < i { 0.0 } else { m.get(i, j) });
            let want = crate::gemm::matmul(clean(&u2).as_ref(), Trans::No, clean(&u).as_ref(), Trans::No);
            cases.push(("trmm_upper_upper".into(), trmm, want));
            for (name, run, want) in &cases {
                let first = run(isas[0]);
                let scale = want.data().iter().fold(1.0f64, |m, v| m.max(v.abs()));
                for (g, w) in first.data().iter().zip(want.data()) {
                    assert!((g - w).abs() <= 1e-10 * scale, "{name} n={n}: {g} vs Naive {w}");
                }
                for &which in &isas[1..] {
                    assert_bits(&run(which), &first, &format!("{name} {which:?} n={n}"));
                }
            }
        }
    }
}
