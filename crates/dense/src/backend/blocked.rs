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
//!         microkernel: MR×NR register accumulators over [lo, hi),
//!           or the whole KC range if the A micro-panel is not all finite
//!         first KC block: C = β·C + α·acc (0 + α·acc at β = 0); later: C += α·acc
//! ```
//!
//! None of the three shortcuts changes a bit. The microkernel accumulates
//! `acc = fma(a, b, acc)` from `+0`, and an exact-zero `B` entry times a
//! finite `A` entry adds `±0` exactly, a no-op on any sum but an underflowed
//! `−0`: skipping `B`'s leading and trailing zero rows (a triangular factor's
//! zero triangle) is exact up to the sign of such a zero, and an `A`
//! micro-panel holding an `∞` or NaN takes the full range so `∞·0 = NaN`
//! still lands where it did. Reading `A` in place changes only where the
//! loads come from. Folding `β` into the first store performs the
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
//! Gram matrix `AᵀA` is computed by the identical packed microkernel sweep
//! with `op(A) = Aᵀ` and `op(B) = A`, except that micro-tiles lying entirely
//! above the diagonal are **skipped** (their values are recovered by the
//! final mirror). Every computed element accumulates in exactly the order
//! the full gemm would use, so the result is bitwise identical to
//! `gemm(1, Aᵀ, A)` while performing roughly half the tile arithmetic —
//! the `≈2×` flop reduction the CholeskyQR Gram kernel is entitled to.
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
//! `trsm::trmm_upper_upper` runs on the microkernel here too.
//!
//! Every kernel body is written once, `#[inline(always)]`, and compiled per
//! instruction set (scalar, AVX2, AVX-512) by `isa_dispatch!`, which
//! `blas1` and `cholesky` use as well. The microkernel's `f64::mul_add` is a
//! correctly rounded fma on every ISA; every other body multiplies, then adds
//! or subtracts, never fused. So every ISA rounds every element identically.

use super::Backend;
use crate::gemm::Trans;
use crate::matrix::{MatMut, MatRef};
use crate::workspace::{recycle_local_vec, take_local_vec};

/// Microkernel tile height (rows of `C` held in registers).
pub const MR: usize = 4;
/// Microkernel tile width (columns of `C` held in registers). With MR = 4
/// this makes eight independent zmm accumulator chains on AVX-512 — enough
/// to cover the fma latency.
pub const NR: usize = 16;
/// Contraction block: one packed `A` micro-panel (`MR × KC`) plus one packed
/// `B` micro-panel (`KC × NR`) stay resident in L1.
pub const KC: usize = 256;
/// Row block: the packed `MC × KC` `A` block targets L2.
pub const MC: usize = 128;
/// Column block: the packed `KC × NC` `B` block targets the outer cache.
pub const NC: usize = 512;
/// Triangular-solve block width: diagonal blocks this size are solved in
/// lanes with the oracle's per-element sequence, everything else is blocked
/// `gemm`. The width fixes where the `gemm` sums start, so it fixes the bits.
pub const TRSM_NB: usize = 64;

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

/// Packs `op(A)[row0 .. row0+mc, k0 .. k0+kc]` into MR-tall micro-panels:
/// panel `ip` holds rows `ip·MR ..` as `kc` consecutive MR-vectors
/// (zero-padded past `mc`). `gemm` packs only `op(A) = Aᵀ` and the ragged
/// last micro-panel of an untransposed `A`, whose full panels it reads in
/// place; the SYRK fallback and `trmm_upper_upper` pack their operands whole.
fn pack_a(a: MatRef<'_>, ta: Trans, row0: usize, mc: usize, k0: usize, kc: usize, buf: &mut [f64]) {
    let panels = mc.div_ceil(MR);
    debug_assert!(buf.len() >= panels * kc * MR);
    for ip in 0..panels {
        let i0 = ip * MR;
        let mr = MR.min(mc - i0);
        let panel = &mut buf[ip * kc * MR..(ip + 1) * kc * MR];
        if mr < MR {
            panel.fill(0.0);
        }
        match ta {
            Trans::No => {
                for r in 0..mr {
                    let src = &a.row(row0 + i0 + r)[k0..k0 + kc];
                    for (kk, &v) in src.iter().enumerate() {
                        panel[kk * MR + r] = v;
                    }
                }
            }
            Trans::Yes => {
                // Column `i` of op(A) is row `i` of the stored matrix, so a
                // packed K-slab is a contiguous run of each stored row.
                for (kk, chunk) in panel.chunks_exact_mut(MR).enumerate().take(kc) {
                    let src = &a.row(k0 + kk)[row0 + i0..row0 + i0 + mr];
                    chunk[..mr].copy_from_slice(src);
                }
            }
        }
    }
}

/// Packs `op(B)[k0 .. k0+kc, col0 .. col0+nc]` into NR-wide micro-panels:
/// panel `jp` holds columns `jp·NR ..` as `kc` consecutive NR-vectors
/// (zero-padded past `nc`).
fn pack_b(b: MatRef<'_>, tb: Trans, k0: usize, kc: usize, col0: usize, nc: usize, buf: &mut [f64]) {
    let panels = nc.div_ceil(NR);
    debug_assert!(buf.len() >= panels * kc * NR);
    for jp in 0..panels {
        let j0 = jp * NR;
        let nr = NR.min(nc - j0);
        let panel = &mut buf[jp * kc * NR..(jp + 1) * kc * NR];
        if nr < NR {
            panel.fill(0.0);
        }
        match tb {
            Trans::No => {
                for (kk, chunk) in panel.chunks_exact_mut(NR).enumerate().take(kc) {
                    let src = &b.row(k0 + kk)[col0 + j0..col0 + j0 + nr];
                    chunk[..nr].copy_from_slice(src);
                }
            }
            Trans::Yes => {
                // Row `p` of op(B) is column `p` of the stored matrix.
                for c in 0..nr {
                    let src = &b.row(col0 + j0 + c)[k0..k0 + kc];
                    for (kk, &v) in src.iter().enumerate() {
                        panel[kk * NR + c] = v;
                    }
                }
            }
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

/// The register-tiled inner product: an `MR × NR` accumulator tile over one
/// packed A panel and one packed B panel. On AVX-512 each accumulator row is
/// two zmm registers, eight independent fma chains for the tile; on AVX2 the
/// tile is the whole ymm register file, so operand loads spill.
#[inline(always)]
fn microkernel_body(kc: usize, apanel: &[f64], bpanel: &[f64]) -> [[f64; NR]; MR] {
    let mut acc = [[0.0f64; NR]; MR];
    let a_iter = apanel.chunks_exact(MR);
    let b_iter = bpanel.chunks_exact(NR);
    for (a, b) in a_iter.zip(b_iter).take(kc) {
        let a: &[f64; MR] = a.try_into().unwrap();
        let b: &[f64; NR] = b.try_into().unwrap();
        for r in 0..MR {
            let ar = a[r];
            for c in 0..NR {
                acc[r][c] = ar.mul_add(b[c], acc[r][c]);
            }
        }
    }
    acc
}

isa_dispatch! {
    fn microkernel(kc: usize, apanel: &[f64], bpanel: &[f64]) -> [[f64; NR]; MR] => microkernel_body
}

/// The tile body over `op(A) = A` read in place: `arows` are the `MR` rows
/// of the micro-panel over one `k` range, so each `k` step broadcasts one
/// entry per row as the packed body does, without the `pack_a` transpose.
/// Same ascending-`k` accumulation, identical bits. The destructuring pins
/// `MR = 4`, and the zipped iterators keep the loop free of bounds checks.
#[inline(always)]
fn microkernel_body_rows(arows: [&[f64]; MR], bpanel: &[f64]) -> [[f64; NR]; MR] {
    let mut acc = [[0.0f64; NR]; MR];
    let [a0, a1, a2, a3] = arows;
    for ((((b, &x0), &x1), &x2), &x3) in bpanel.chunks_exact(NR).zip(a0).zip(a1).zip(a2).zip(a3) {
        let b: &[f64; NR] = b.try_into().unwrap();
        for (acc_row, ar) in acc.iter_mut().zip([x0, x1, x2, x3]) {
            for c in 0..NR {
                acc_row[c] = ar.mul_add(b[c], acc_row[c]);
            }
        }
    }
    acc
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

/// The syrk specialization of the tile body: the `A` operand is read
/// *directly out of the packed `B` buffer* — for `AᵀA` both packed operands
/// hold the same columns of `A` over the same `k` range, so the `MR`-tall
/// micro-panel at output-row offset `a_off` inside `apanel` (an NR-wide
/// panel of the B pack) is `MR` **contiguous** values per `k` step. Same
/// loads and order as [`microkernel_body`], identical bits, and no `pack_a`
/// pass: the Gram kernel packs once.
#[inline(always)]
fn microkernel_body_packed_b(kc: usize, apanel: &[f64], a_off: usize, bpanel: &[f64]) -> [[f64; NR]; MR] {
    debug_assert!(a_off + MR <= NR);
    let mut acc = [[0.0f64; NR]; MR];
    let a_iter = apanel.chunks_exact(NR);
    let b_iter = bpanel.chunks_exact(NR);
    for (a, b) in a_iter.zip(b_iter).take(kc) {
        let a: &[f64; MR] = a[a_off..a_off + MR].try_into().unwrap();
        let b: &[f64; NR] = b.try_into().unwrap();
        for r in 0..MR {
            let ar = a[r];
            for c in 0..NR {
                acc[r][c] = ar.mul_add(b[c], acc[r][c]);
            }
        }
    }
    acc
}

isa_dispatch! {
    fn microkernel_packed_b(kc: usize, apanel: &[f64], a_off: usize, bpanel: &[f64]) -> [[f64; NR]; MR] =>
        microkernel_body_packed_b
}

/// Multiplies one row block of `op(A)` — its first `arows.rows()` rows (a
/// multiple of `MR`) read in place, the rest the micro-panels `pack_a`
/// wrote into `apack` — against the packed `B` block, and stores
/// `beta · cblk + alpha ·` the product into `cblk` (`0 + alpha ·` the
/// product at `beta = 0`, which never reads `cblk`) with each tile's
/// accumulators still in registers. The tiles against `B` panel `jp`
/// contract over `bands[jp]` only, except for `A` micro-panels that hold an
/// `∞` or NaN.
///
/// `skip_above_diag` is the syrk specialization: with
/// `Some((row0, col0))` — the global coordinates of `cblk`'s top-left
/// element — micro-tiles lying entirely above the matrix diagonal are
/// skipped. Tiles that touch or straddle the diagonal are computed (and
/// written) in full, which keeps every written element's accumulation
/// order identical to the unskipped product.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // mirrors the BLIS block-product shape
fn block_product_body(
    alpha: f64,
    beta: f64,
    arows: MatRef<'_>,
    apack: &[f64],
    bpack: &[f64],
    bands: &[(usize, usize)],
    kc: usize,
    mut cblk: MatMut<'_>,
    skip_above_diag: Option<(usize, usize)>,
) {
    let (mc, nc, in_place) = (cblk.rows(), cblk.cols(), arows.rows() / MR);
    let banded = bands.iter().any(|&(lo, hi)| hi - lo < kc);
    // `x − x` is `+0` for a finite `x` and NaN otherwise: OR-ing the bits
    // tests a micro-panel in one branch-free read.
    #[allow(clippy::eq_op)]
    let nonfinite = |v: &[f64]| v.iter().fold(0, |bits, &x| bits | (x - x).to_bits());
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
        // Lower-triangle specialization: the strip stops before the first
        // tile whose first column `col0 + j0` lies right of its deepest row
        // `row0 + i0 + MR − 1`.
        let panels = match skip_above_diag {
            Some((row0, col0)) => (row0 + i0 + MR).saturating_sub(col0).div_ceil(NR).min(bands.len()),
            None => bands.len(),
        };
        for (jp, &band) in bands[..panels].iter().enumerate() {
            let (j0, (lo, hi)) = (jp * NR, if finite { band } else { (0, kc) });
            let bpanel = &bpack[(jp * kc + lo) * NR..];
            let acc = match rows {
                Some(rows) => microkernel_body_rows(rows.map(|row| &row[lo..hi]), bpanel),
                None => microkernel_body(hi - lo, &apanel[lo * MR..], bpanel),
            };
            for (r, acc_row) in acc.iter().enumerate().take(mr) {
                let tile = cblk.row_mut(i0 + r)[j0..nc.min(j0 + NR)].iter_mut().zip(acc_row);
                if beta == 1.0 {
                    tile.for_each(|(cv, &av)| *cv += alpha * av);
                } else if beta == 0.0 {
                    tile.for_each(|(cv, &av)| *cv = 0.0 + alpha * av);
                } else {
                    tile.for_each(|(cv, &av)| *cv = beta * *cv + alpha * av);
                }
            }
        }
    }
}

isa_dispatch! {
    fn block_product(
        alpha: f64,
        beta: f64,
        arows: MatRef<'_>,
        apack: &[f64],
        bpack: &[f64],
        bands: &[(usize, usize)],
        kc: usize,
        cblk: MatMut<'_>,
        skip_above_diag: Option<(usize, usize)>,
    ) => block_product_body
}

/// The syrk row-block product: like [`block_product`] with the
/// lower-triangle skip, but the `A` micro-panels are **derived from the
/// packed `B` buffer** (see [`microkernel_body_packed_b`]) instead of a
/// separate `pack_a` pass. `arow0` is the output-row offset of `cblk`'s
/// first row *within the packed column range* (`i0 − jc`), which must be
/// `MR`-aligned so every tile's `A` slice stays inside one `NR` panel.
#[allow(clippy::too_many_arguments)] // mirrors the BLIS block-product shape
fn block_product_packed_b(
    which: Isa,
    bpack: &[f64],
    arow0: usize,
    kc: usize,
    mc: usize,
    nc: usize,
    mut cblk: MatMut<'_>,
    row0: usize,
    col0: usize,
) {
    debug_assert_eq!(arow0 % MR, 0);
    let npanels = nc.div_ceil(NR);
    let mpanels = mc.div_ceil(MR);
    for jp in 0..npanels {
        let j0 = jp * NR;
        let nr = NR.min(nc - j0);
        let bpanel = &bpack[jp * kc * NR..(jp + 1) * kc * NR];
        let ip_start = ((col0 + j0 + 1).saturating_sub(row0 + MR)).div_ceil(MR).min(mpanels);
        for ip in ip_start..mpanels {
            let i0 = ip * MR;
            let mr = MR.min(mc - i0);
            let acol = arow0 + i0;
            let apanel = &bpack[(acol / NR) * kc * NR..(acol / NR + 1) * kc * NR];
            let acc = microkernel_packed_b(which, kc, apanel, acol % NR, bpanel);
            for (r, acc_row) in acc.iter().enumerate().take(mr) {
                let dst = &mut cblk.row_mut(i0 + r)[j0..j0 + nr];
                for (cv, &av) in dst.iter_mut().zip(acc_row) {
                    *cv += av;
                }
            }
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
            pack_b(b, tb, pc, kc, jc, nc, &mut bpack);
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
                let arows = match ta {
                    Trans::No => a.sub(i0, pc, mc / MR * MR, kc),
                    Trans::Yes => a.sub(0, 0, 0, 0),
                };
                let len = (mc - arows.rows()).div_ceil(MR) * MR * kc;
                let mut apack = if len > 0 { take_local_vec(len) } else { Vec::new() };
                pack_a(a, ta, i0 + arows.rows(), mc - arows.rows(), pc, kc, &mut apack);
                let cblk = c.rb_mut().sub(i0, jc, mc, nc);
                block_product(which, alpha, beta, arows, &apack, bpack, bands, kc, cblk, None);
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

/// The symmetry-aware blocked SYRK body: writes `AᵀA` into `c`, computing
/// only micro-tiles that touch or lie below the diagonal and mirroring the
/// rest. Every computed element is bitwise identical to what
/// [`gemm_with_isa`]`(which, 1, Aᵀ, A, 0, c)` produces (same packing, same
/// KC blocking, same ascending-`k` microkernel order), so the mirrored
/// result equals the full product exactly while skipping ≈half the tile
/// arithmetic.
fn syrk_into_with_isa(which: Isa, a: MatRef<'_>, mut c: MatMut<'_>) {
    let (k, n) = (a.rows(), a.cols()); // contraction over rows; output n × n
    assert_eq!((c.rows(), c.cols()), (n, n), "syrk output must be n x n");
    for i in 0..n {
        c.row_mut(i).fill(0.0);
    }
    if n == 0 || k == 0 {
        return;
    }

    let mut bpack = take_local_vec(NC.min(n).div_ceil(NR) * NR * KC.min(k));

    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b(a, Trans::No, pc, kc, jc, nc, &mut bpack);
            let bpack = &bpack[..nc.div_ceil(NR) * kc * NR];

            // Row blocks whose deepest row stays above column `jc` hold no
            // lower-triangle element of this column block: skip them whole
            // (no pack, no tiles).
            let first = (jc + 1).saturating_sub(MC).div_ceil(MC);
            for i0 in (first * MC..n).step_by(MC) {
                let mc = MC.min(n - i0);
                let cblk = c.rb_mut().sub(i0, jc, mc, nc);
                if i0 >= jc && i0 + mc <= jc + nc {
                    // The output rows of this block are columns the B pack
                    // already holds: derive the A micro-panels from it and
                    // skip the pack_a pass entirely. This is the whole
                    // kernel whenever n ≤ NC — every CholeskyQR panel width.
                    block_product_packed_b(which, bpack, i0 - jc, kc, mc, nc, cblk, i0, jc);
                } else {
                    // Row block outside the packed column range (n > NC):
                    // fall back to a packed A operand.
                    let mut apack = take_local_vec(mc.div_ceil(MR) * MR * kc);
                    pack_a(a, Trans::Yes, i0, mc, pc, kc, &mut apack);
                    let (arows, bands) = (a.sub(0, 0, 0, 0), &[(0, kc); NC / NR][..nc.div_ceil(NR)]);
                    block_product(which, 1.0, 1.0, arows, &apack, bpack, bands, kc, cblk, Some((i0, jc)));
                    recycle_local_vec(apack);
                }
            }
            pc += kc;
        }
        jc += nc;
    }
    recycle_local_vec(bpack);

    // Mirror the computed lower triangle onto the (partially skipped)
    // upper triangle; ascending-k accumulation makes the two bitwise equal
    // wherever both were computed, so this is exactly the naive contract.
    for i in 0..n {
        for j in 0..i {
            let v = c.at(i, j);
            c.set(j, i, v);
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

/// The blocked right solve: `X·Lᵀ = B` for lower `t` (`upper` false) or
/// `X·U = B` for upper `t`, over [`TRSM_NB`]-wide column blocks — a `gemm`
/// update from the solved columns, then [`right_solve`] on the diagonal
/// block.
fn trsm_right_with_isa(which: Isa, t: MatRef<'_>, upper: bool, mut b: MatMut<'_>) {
    let n = t.rows();
    assert_eq!(t.cols(), n, "triangular factor must be square");
    assert_eq!(b.cols(), n, "rhs width must match triangular dimension");
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

/// The blocked left solve: `L·X = B` for lower `t` (`upper` false, row
/// blocks top-down) or `U·X = B` for upper `t` (bottom-up), over
/// [`TRSM_NB`]-tall row blocks — a `gemm` update from the solved rows, then
/// [`left_solve`] on the diagonal block.
fn trsm_left_with_isa(which: Isa, t: MatRef<'_>, upper: bool, mut b: MatMut<'_>) {
    let n = t.rows();
    assert_eq!(t.cols(), n, "triangular factor must be square");
    assert_eq!(b.rows(), n, "rhs height must match triangular dimension");
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
/// pass. Tiles below the diagonal and the strict lower triangle are written
/// as zeros. For finite operands this is the oracle's fma chain bit for bit:
/// it starts at `+0`, takes `acc = fma(u2_ik, u1_kj, acc)` in ascending `k`,
/// and only ever adds an exact zero where the oracle skips a term — a no-op
/// unless an underflow has left the sum at `−0`.
pub(crate) fn trmm_upper_upper_with_isa(which: Isa, u2: MatRef<'_>, u1: MatRef<'_>, mut out: MatMut<'_>) {
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
        pack_a(u2, Trans::No, i0, mr, i0, n - i0, panel);
        for r in 1..mr {
            for k in 0..r {
                panel[k * MR + r] = 0.0;
            }
        }
    }
    for jp in 0..npanels {
        let (j0, nr) = (jp * NR, NR.min(n - jp * NR));
        let panel = &mut bpack[jp * n * NR..(jp * n + j0 + nr) * NR];
        pack_b(u1, Trans::No, 0, j0 + nr, j0, nr, panel);
        for c in 0..nr {
            for k in j0 + c + 1..j0 + nr {
                panel[k * NR + c] = 0.0;
            }
        }
    }
    for ip in 0..mpanels {
        let (i0, mr) = (ip * MR, MR.min(n - ip * MR));
        for jp in 0..npanels {
            let (j0, nr) = (jp * NR, NR.min(n - jp * NR));
            let (kend, ak, bk) = (n.min(j0 + NR), (ip * n + i0) * MR, (jp * n + i0) * NR);
            let acc = match i0 < kend {
                true => microkernel(which, kend - i0, &apack[ak..], &bpack[bk..]),
                false => [[0.0; NR]; MR],
            };
            for (r, acc_row) in acc.iter().enumerate().take(mr) {
                for (c, v) in out.row_mut(i0 + r)[j0..j0 + nr].iter_mut().enumerate() {
                    *v = if j0 + c >= i0 + r { acc_row[c] } else { 0.0 };
                }
            }
        }
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

    fn syrk_into(&self, a: MatRef<'_>, c: MatMut<'_>) {
        syrk_into_with_isa(isa(), a, c);
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
mod tests {
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
                let mut via_syrk = Matrix::from_fn(n, n, |_, _| f64::NAN);
                syrk_into_with_isa(which, a.as_ref(), via_syrk.as_mut());
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
            syrk_into_with_isa(which, a.as_ref(), got.as_mut());
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
        // The last entry exceeds NC, exercising the pack_a fallback for row
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

    /// The gemm body as it was before `A` was read in place, `B`'s zero bands
    /// were skipped and `β` was folded into the first store: a fill or scale
    /// pass over `C`, then every tile of packed `A` and packed `B` over the
    /// full `KC` range, added into `C`.
    #[allow(clippy::too_many_arguments)] // the BLAS dgemm signature
    fn reference_gemm(
        which: Isa,
        alpha: f64,
        a: MatRef<'_>,
        ta: Trans,
        b: MatRef<'_>,
        tb: Trans,
        beta: f64,
        c: &mut Matrix,
    ) {
        let ((m, k), (_, n)) = (op_shape(a, ta), op_shape(b, tb));
        if beta != 1.0 {
            for v in c.data_mut() {
                *v = if beta == 0.0 { 0.0 } else { *v * beta };
            }
        }
        if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
            return;
        }
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let mut bpack = vec![0.0; nc.div_ceil(NR) * NR * kc];
                pack_b(b, tb, pc, kc, jc, nc, &mut bpack);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    let mut apack = vec![0.0; mc.div_ceil(MR) * MR * kc];
                    pack_a(a, ta, ic, mc, pc, kc, &mut apack);
                    for j0 in (0..nc).step_by(NR) {
                        for i0 in (0..mc).step_by(MR) {
                            let acc = microkernel(which, kc, &apack[i0 * kc..], &bpack[j0 * kc..]);
                            for (r, acc_row) in acc.iter().enumerate().take(mc - i0) {
                                for (j, &av) in acc_row.iter().enumerate().take(nc - j0) {
                                    let (i, j) = (ic + i0 + r, jc + j0 + j);
                                    c.set(i, j, c.get(i, j) + alpha * av);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The gemm is the reference body above bit for bit under every ISA,
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
        for which in Isa::available() {
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
                            let a = if ta == Trans::No { opa } else { opa.transposed() };
                            let b = if tb == Trans::No { opb } else { opb.transposed() };
                            let mut want = c0.clone();
                            reference_gemm(which, alpha, a.as_ref(), ta, b.as_ref(), tb, beta, &mut want);
                            let mut got = c0;
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
                syrk_into_with_isa(which, a.as_ref(), c.as_mut());
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
                trmm_upper_upper_with_isa(which, u2.as_ref(), u1.as_ref(), out.as_mut());
                out
            });
        }
    }

    /// The diagonal-block solves are the oracle loop nests bit for bit under
    /// every ISA, at every block order and at row counts on and off the lane
    /// width. One entry of `B` is infinite, so a term the left solves skip
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
                    let (mut want, mut got) = (b.clone(), b.clone());
                    crate::trsm::trsm_left_upper(u.as_ref(), want.as_mut());
                    trsm_left_with_isa(which, u.as_ref(), true, got.as_mut());
                    assert_bits(&got, &want, &format!("left upper {what}"));
                }
            }
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
}
