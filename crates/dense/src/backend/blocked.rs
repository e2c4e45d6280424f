//! The packed, cache-blocked, register-tiled kernel backend.
//!
//! `gemm` follows the classic BLIS/faer loop structure over row-major
//! storage:
//!
//! ```text
//! for jc in steps of NC over n:              (B column block)
//!   for pc in steps of KC over k:            (contraction block)
//!     pack op(B)[pc, jc] into NR-wide column micro-panels
//!     for ic in steps of MC over m:          (A row block — parallel)
//!       pack op(A)[ic, pc] into MR-tall row micro-panels
//!       for each (MR × NR) tile of C[ic, jc]:
//!         microkernel: MR×NR register accumulators over the KC range
//! ```
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
//! threads, `par_blocks` workers) still pay one allocation per buffer size
//! per thread lifetime; their arena dies with them.
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
//! within the packed panel — regardless of how row blocks are scheduled
//! across threads. Thread count therefore never changes results. The same
//! ordering argument makes `AᵀA` bitwise symmetric (the `(i, j)` and
//! `(j, i)` sums are term-for-term identical products), which the syrk
//! mirror relies on.
//!
//! `trsm` partitions the triangular dimension into [`TRSM_NB`]-wide blocks:
//! diagonal blocks are solved with the naive row sweeps, off-diagonal
//! updates go through the blocked `gemm`, which is where nearly all the
//! arithmetic lives.

use super::parallel::{kernel_threads, par_blocks};
use super::Backend;
use crate::gemm::Trans;
use crate::matrix::{MatMut, MatRef};
use crate::workspace::{recycle_local_vec, take_local_vec};

/// Microkernel tile height (rows of `C` held in registers).
pub const MR: usize = 4;
/// Microkernel tile width (columns of `C` held in registers). With MR = 4
/// this makes eight independent FMA accumulator chains — enough to cover
/// FMA latency on AVX-512 and AVX2 alike.
pub const NR: usize = 16;
/// Contraction block: one packed `A` micro-panel (`MR × KC`) plus one packed
/// `B` micro-panel (`KC × NR`) stay resident in L1.
pub const KC: usize = 256;
/// Row block: the packed `MC × KC` `A` block targets L2.
pub const MC: usize = 128;
/// Column block: the packed `KC × NC` `B` block targets the outer cache.
pub const NC: usize = 512;
/// Triangular-solve block width: diagonal blocks this size are solved with
/// the naive kernels, everything else is blocked `gemm`.
pub const TRSM_NB: usize = 64;

/// Minimum `2mnk` flop volume per `(jc, pc)` block before worker threads
/// are recruited; below this the spawn overhead dominates.
const PAR_FLOP_THRESHOLD: f64 = 4e6;

/// The blocked backend (unit struct: all state is per-call, with pack
/// buffers borrowed from the thread-local workspace arena).
#[derive(Clone, Copy, Debug, Default)]
pub struct Blocked;

/// Shared base pointer for handing disjoint `C` row blocks to workers.
#[derive(Clone, Copy)]
struct RawC {
    ptr: *mut f64,
    stride: usize,
}

// SAFETY: workers derive disjoint row-block views from the pointer; the
// parallel partition guarantees no two blocks overlap.
unsafe impl Send for RawC {}
unsafe impl Sync for RawC {}

#[inline]
fn op_shape(a: MatRef<'_>, t: Trans) -> (usize, usize) {
    match t {
        Trans::No => (a.rows(), a.cols()),
        Trans::Yes => (a.cols(), a.rows()),
    }
}

/// Packs `op(A)[row0 .. row0+mc, k0 .. k0+kc]` into MR-tall micro-panels:
/// panel `ip` holds rows `ip·MR ..` as `kc` consecutive MR-vectors
/// (zero-padded past `mc`).
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

/// The register-tiled inner product: an `MR × NR` accumulator tile over one
/// packed A panel and one packed B panel. Shared by every ISA variant so
/// they are instruction-schedule specializations of the same arithmetic.
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
                acc[r][c] += ar * b[c];
            }
        }
    }
    acc
}

fn microkernel_scalar(kc: usize, apanel: &[f64], bpanel: &[f64]) -> [[f64; NR]; MR] {
    microkernel_body(kc, apanel, bpanel)
}

/// The syrk specialization of the tile body: the `A` operand is read
/// *directly out of the packed `B` buffer* — for `AᵀA` both packed
/// operands hold the same columns of `A` over the same `k` range, so the
/// `MR`-tall micro-panel at output-row offset `a_off` inside `apanel`
/// (an NR-wide panel of the B pack) is just `MR` **contiguous** values per
/// `k` step. Same loads per iteration as [`microkernel_body`], same
/// ascending-`k` accumulation order, identical bits — but the separate
/// `pack_a` pass (and its buffer) disappears from the syrk hot path
/// entirely: the Gram kernel packs once.
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
                acc[r][c] += ar * b[c];
            }
        }
    }
    acc
}

fn microkernel_packed_b_scalar(kc: usize, apanel: &[f64], a_off: usize, bpanel: &[f64]) -> [[f64; NR]; MR] {
    microkernel_body_packed_b(kc, apanel, a_off, bpanel)
}

/// AVX2+FMA build of the packed-B syrk body.
///
/// # Safety
///
/// Requires the `avx2` and `fma` CPU features (checked by [`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_packed_b_avx2(kc: usize, apanel: &[f64], a_off: usize, bpanel: &[f64]) -> [[f64; NR]; MR] {
    microkernel_body_packed_b(kc, apanel, a_off, bpanel)
}

/// AVX-512 build of the packed-B syrk body.
///
/// # Safety
///
/// Requires the `avx512f` CPU feature (checked by [`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "fma")]
unsafe fn microkernel_packed_b_avx512(kc: usize, apanel: &[f64], a_off: usize, bpanel: &[f64]) -> [[f64; NR]; MR] {
    microkernel_body_packed_b(kc, apanel, a_off, bpanel)
}

#[inline]
fn microkernel_packed_b(which: Isa, kc: usize, apanel: &[f64], a_off: usize, bpanel: &[f64]) -> [[f64; NR]; MR] {
    match which {
        Isa::Scalar => microkernel_packed_b_scalar(kc, apanel, a_off, bpanel),
        // SAFETY: `isa()` (and `Isa::available`) only report ISAs the CPU
        // advertises.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { microkernel_packed_b_avx2(kc, apanel, a_off, bpanel) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { microkernel_packed_b_avx512(kc, apanel, a_off, bpanel) },
    }
}

/// AVX2+FMA build of the same body. The 4×16 tile is 16 ymm registers —
/// the whole AVX2 register file — so operand loads spill; still well ahead
/// of the scalar schedule.
///
/// # Safety
///
/// Requires the `avx2` and `fma` CPU features (checked by [`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn microkernel_avx2(kc: usize, apanel: &[f64], bpanel: &[f64]) -> [[f64; NR]; MR] {
    microkernel_body(kc, apanel, bpanel)
}

/// AVX-512 build: each accumulator row is two zmm registers (8 zmm total
/// for the tile), giving eight independent FMA chains to cover FMA latency.
///
/// # Safety
///
/// Requires the `avx512f` CPU feature (checked by [`isa`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "fma")]
unsafe fn microkernel_avx512(kc: usize, apanel: &[f64], bpanel: &[f64]) -> [[f64; NR]; MR] {
    microkernel_body(kc, apanel, bpanel)
}

/// Instruction sets the microkernel is specialized for.
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

/// Detects the best microkernel ISA once per process. Caching keeps the
/// choice (and therefore rounding behavior: FMA contracts differently from
/// scalar mul+add) fixed for the process lifetime, preserving the bitwise
/// replication invariants.
#[cfg(target_arch = "x86_64")]
fn isa() -> Isa {
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
fn isa() -> Isa {
    Isa::Scalar
}

#[inline]
fn microkernel(which: Isa, kc: usize, apanel: &[f64], bpanel: &[f64]) -> [[f64; NR]; MR] {
    match which {
        Isa::Scalar => microkernel_scalar(kc, apanel, bpanel),
        // SAFETY: `isa()` (and `Isa::available`) only report ISAs the CPU
        // advertises.
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { microkernel_avx2(kc, apanel, bpanel) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { microkernel_avx512(kc, apanel, bpanel) },
    }
}

/// Multiplies one packed `A` row block against the packed `B` block,
/// accumulating `alpha ·` the product into the `mc × nc` view `cblk`.
///
/// `skip_above_diag` is the syrk specialization: with
/// `Some((row0, col0))` — the global coordinates of `cblk`'s top-left
/// element — micro-tiles lying entirely above the matrix diagonal are
/// skipped. Tiles that touch or straddle the diagonal are computed (and
/// written) in full, which keeps every written element's accumulation
/// order identical to the unskipped product.
#[allow(clippy::too_many_arguments)] // mirrors the BLIS block-product shape
fn block_product(
    which: Isa,
    alpha: f64,
    apack: &[f64],
    bpack: &[f64],
    kc: usize,
    mc: usize,
    nc: usize,
    mut cblk: MatMut<'_>,
    skip_above_diag: Option<(usize, usize)>,
) {
    let npanels = nc.div_ceil(NR);
    let mpanels = mc.div_ceil(MR);
    for jp in 0..npanels {
        let j0 = jp * NR;
        let nr = NR.min(nc - j0);
        let bpanel = &bpack[jp * kc * NR..(jp + 1) * kc * NR];
        // Lower-triangle specialization: the first row panel whose deepest
        // row `row0 + ip·MR + MR − 1` reaches the tile's first column
        // `col0 + j0`; everything before it is strictly above the diagonal.
        let ip_start = match skip_above_diag {
            Some((row0, col0)) => ((col0 + j0 + 1).saturating_sub(row0 + MR)).div_ceil(MR).min(mpanels),
            None => 0,
        };
        for ip in ip_start..mpanels {
            let i0 = ip * MR;
            let mr = MR.min(mc - i0);
            let apanel = &apack[ip * kc * MR..(ip + 1) * kc * MR];
            let acc = microkernel(which, kc, apanel, bpanel);
            for (r, acc_row) in acc.iter().enumerate().take(mr) {
                let dst = &mut cblk.row_mut(i0 + r)[j0..j0 + nr];
                for (cv, &av) in dst.iter_mut().zip(acc_row) {
                    *cv += alpha * av;
                }
            }
        }
    }
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
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    let threads = kernel_threads();
    let raw = RawC {
        ptr: c.as_mut_ptr(),
        stride: c.stride(),
    };
    // Capture the Sync wrapper by reference: precise closure capture
    // would otherwise grab the raw-pointer field itself, which is not
    // Sync.
    let raw = &raw;
    // Both pack buffers live in the workspace arena — hoisted out of every
    // loop level; a warm thread allocates nothing here.
    let mut bpack = take_local_vec(NC.min(n).div_ceil(NR) * NR * KC.min(k));

    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b(b, tb, pc, kc, jc, nc, &mut bpack);
            let bpack = &bpack[..nc.div_ceil(NR) * kc * NR];

            let nblocks = m.div_ceil(MC);
            let flops = 2.0 * m as f64 * nc as f64 * kc as f64;
            // Scale worker count with the work available so that
            // near-threshold gemms recruit few threads: this keeps the
            // per-(jc, pc) spawn/join overhead a small fraction of the
            // compute, and softens oversubscription when many simulated
            // ranks (one OS thread each) multiply concurrently.
            let workers = ((flops / PAR_FLOP_THRESHOLD) as usize).clamp(1, threads);
            par_blocks(nblocks, workers, |blk| {
                let i0 = blk * MC;
                let mc = MC.min(m - i0);
                let mut apack = take_local_vec(mc.div_ceil(MR) * MR * kc);
                pack_a(a, ta, i0, mc, pc, kc, &mut apack);
                // SAFETY: row blocks [i0, i0+mc) are disjoint across
                // `blk`, and `raw` stays valid for the whole call.
                let cblk = unsafe { MatMut::from_raw_parts(raw.ptr.add(i0 * raw.stride + jc), mc, nc, raw.stride) };
                block_product(which, alpha, &apack, bpack, kc, mc, nc, cblk, None);
                recycle_local_vec(apack);
            });
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

    let threads = kernel_threads();
    let raw = RawC {
        ptr: c.as_mut_ptr(),
        stride: c.stride(),
    };
    let raw = &raw;
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
            let nblocks = n.div_ceil(MC);
            let first = (jc + 1).saturating_sub(MC).div_ceil(MC);
            let active = nblocks - first;
            let rows_active = n - first * MC;
            let flops = rows_active as f64 * nc as f64 * kc as f64; // ≈half the full product
            let workers = ((flops / PAR_FLOP_THRESHOLD) as usize).clamp(1, threads);
            par_blocks(active, workers, |blk| {
                let i0 = (first + blk) * MC;
                let mc = MC.min(n - i0);
                // SAFETY: row blocks [i0, i0+mc) are disjoint across
                // `blk`, and `raw` stays valid for the whole call.
                let cblk = unsafe { MatMut::from_raw_parts(raw.ptr.add(i0 * raw.stride + jc), mc, nc, raw.stride) };
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
                    block_product(which, 1.0, &apack, bpack, kc, mc, nc, cblk, Some((i0, jc)));
                    recycle_local_vec(apack);
                }
            });
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

    fn trsm_right_lower_trans(&self, l: MatRef<'_>, mut b: MatMut<'_>) {
        let n = l.rows();
        assert_eq!(l.cols(), n, "triangular factor must be square");
        assert_eq!(b.cols(), n, "rhs width must match triangular dimension");
        let mut j0 = 0;
        while j0 < n {
            let jb = TRSM_NB.min(n - j0);
            if j0 > 0 {
                let (solved, rest) = b.rb_mut().split_cols(j0);
                let (active, _) = rest.split_cols(jb);
                // B_j −= X_done · L[j-block, 0..j0]ᵀ  (that slab of Lᵀ).
                self.gemm(
                    -1.0,
                    solved.rb(),
                    Trans::No,
                    l.sub(j0, 0, jb, j0),
                    Trans::Yes,
                    1.0,
                    active,
                );
            }
            let (_, rest) = b.rb_mut().split_cols(j0);
            let (active, _) = rest.split_cols(jb);
            crate::trsm::trsm_right_lower_trans(l.sub(j0, j0, jb, jb), active);
            j0 += jb;
        }
    }

    fn trsm_right_upper(&self, u: MatRef<'_>, mut b: MatMut<'_>) {
        let n = u.rows();
        assert_eq!(u.cols(), n, "triangular factor must be square");
        assert_eq!(b.cols(), n, "rhs width must match triangular dimension");
        let mut j0 = 0;
        while j0 < n {
            let jb = TRSM_NB.min(n - j0);
            if j0 > 0 {
                let (solved, rest) = b.rb_mut().split_cols(j0);
                let (active, _) = rest.split_cols(jb);
                // B_j −= X_done · U[0..j0, j-block].
                self.gemm(
                    -1.0,
                    solved.rb(),
                    Trans::No,
                    u.sub(0, j0, j0, jb),
                    Trans::No,
                    1.0,
                    active,
                );
            }
            let (_, rest) = b.rb_mut().split_cols(j0);
            let (active, _) = rest.split_cols(jb);
            crate::trsm::trsm_right_upper(u.sub(j0, j0, jb, jb), active);
            j0 += jb;
        }
    }

    fn trsm_left_lower(&self, l: MatRef<'_>, mut b: MatMut<'_>) {
        let n = l.rows();
        assert_eq!(l.cols(), n, "triangular factor must be square");
        assert_eq!(b.rows(), n, "rhs height must match triangular dimension");
        let mut i0 = 0;
        while i0 < n {
            let ib = TRSM_NB.min(n - i0);
            if i0 > 0 {
                let (solved, rest) = b.rb_mut().split_rows(i0);
                let (active, _) = rest.split_rows(ib);
                // B_i −= L[i-block, 0..i0] · X_done.
                self.gemm(
                    -1.0,
                    l.sub(i0, 0, ib, i0),
                    Trans::No,
                    solved.rb(),
                    Trans::No,
                    1.0,
                    active,
                );
            }
            let (_, rest) = b.rb_mut().split_rows(i0);
            let (active, _) = rest.split_rows(ib);
            crate::trsm::trsm_left_lower(l.sub(i0, i0, ib, ib), active);
            i0 += ib;
        }
    }

    fn trsm_left_upper(&self, u: MatRef<'_>, mut b: MatMut<'_>) {
        let n = u.rows();
        assert_eq!(u.cols(), n, "triangular factor must be square");
        assert_eq!(b.rows(), n, "rhs height must match triangular dimension");
        // Backward substitution over row blocks, bottom-up.
        let nblocks = n.div_ceil(TRSM_NB);
        for blk in (0..nblocks).rev() {
            let i0 = blk * TRSM_NB;
            let ib = TRSM_NB.min(n - i0);
            let i1 = i0 + ib;
            if i1 < n {
                let (top, solved) = b.rb_mut().split_rows(i1);
                let (_, active) = top.split_rows(i0);
                // B_i −= U[i-block, i1..n] · X_done.
                self.gemm(
                    -1.0,
                    u.sub(i0, i1, ib, n - i1),
                    Trans::No,
                    solved.rb(),
                    Trans::No,
                    1.0,
                    active,
                );
            }
            let (top, _) = b.rb_mut().split_rows(i1);
            let (_, active) = top.split_rows(i0);
            crate::trsm::trsm_left_upper(u.sub(i0, i0, ib, ib), active);
        }
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

    /// Every ISA's syrk must also match the naive oracle numerically (the
    /// schedules contract FMA differently, so this is a tolerance check).
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
}
