//! Collective operations with the butterfly schedules of §II-B.
//!
//! Cost behaviour for **large messages** (`n ≥ p`; p = communicator size,
//! n = buffer words; exact formulas — the `costmodel` crate mirrors them
//! term for term):
//!
//! | collective | messages/rank (critical path) | words (critical path) | reduction flops |
//! |---|---|---|---|
//! | `bcast` (scatter + allgather) | `2·log₂p` | `2n(1−1/p)` | — |
//! | `reduce` (reduce-scatter + gather) | `2·log₂p` | `2n(1−1/p)` | `n(1−1/p)` |
//! | `allreduce` (reduce-scatter + allgather) | `2·log₂p` | `2n(1−1/p)` | `n(1−1/p)` |
//! | `allgather` (recursive doubling) | `log₂p` | `n(1−1/p)` | — |
//! | `sendrecv` (pairwise exchange) | `1` | `n` | — |
//!
//! These match the paper's table (`2·log₂P·α + 2nδ(P)β` for
//! bcast/reduce/allreduce, `log₂P·α + nδ(P)β` for allgather) including the
//! `δ(P)` behaviour: every operation is a no-op on single-member
//! communicators. Buffers not divisible by `p` are padded
//! (`n̄ = p·⌈n/p⌉`).
//!
//! **Small messages** (`n < p`) switch to tree algorithms, exactly as MPI
//! implementations do: binomial broadcast/reduce and recursive-doubling
//! allreduce, all costing `log₂p·(α + n·β)` (+ `n·log₂p` reduction flops) —
//! without this split, a 2-word allreduce over 16384 ranks would be charged
//! thousands of padded words.
//!
//! All communicator sizes must be powers of two (the paper's processor grids
//! are).
//!
//! Each schedule exists once, as a sequence of rounds over the primitive in
//! `round.rs` (shared windows between barrier crossings): the message and
//! word counts above are properties of that one piece of code, whichever
//! runtime executes it.

use crate::comm::Comm;
use crate::round::Crossing::{Group, Pair};
use crate::runtime::Rank;

fn is_pow2(p: usize) -> bool {
    p != 0 && p & (p - 1) == 0
}

/// Elementwise `acc += words`: the reduction step of every summing schedule.
fn add_into(acc: &mut [f64], words: &[f64]) {
    debug_assert_eq!(acc.len(), words.len());
    for (x, y) in acc.iter_mut().zip(words) {
        *x += y;
    }
}

// Every schedule below is a sequence of `Comm::round` calls (see `round.rs`
// for the transport and the invariant that makes it sound). Two rules keep
// the schedules within that invariant:
//
// * Every member runs every round of a schedule, passing `None` for the
//   halves it sits out — tree schedules have idle members but no early
//   exits.
// * A round's outgoing slice and the region its `on_recv` closure writes are
//   disjoint borrows (`split_at_mut`, or a separate staging buffer), because
//   a peer may be reading the former in place while the closure runs.
impl Comm {
    /// This member's *virtual* index relative to `root` (the root is 0).
    fn virtual_index(&self, root: usize) -> usize {
        (self.my_index() + self.size() - root) % self.size()
    }

    /// Global rank id of the member with virtual index `vr` relative to
    /// `root`.
    fn global_of_virtual(&self, vr: usize, root: usize) -> usize {
        self.member((vr + root) % self.size())
    }

    /// Pairwise exchange with the member at index `partner`: sends `data`,
    /// returns the partner's message. Exchanging with oneself is a free copy
    /// (used by diagonal ranks in the matrix transpose).
    ///
    /// The returned buffer is served from the rank's communication arena —
    /// hand it back with [`Rank::recycle_comm`] when done to keep the
    /// steady-state communication path allocation-free.
    pub fn sendrecv(&self, rank: &mut Rank, partner: usize, data: &[f64]) -> Vec<f64> {
        let mut out = rank.comm_take(data.len());
        if partner == self.my_index() {
            out.copy_from_slice(data);
        } else {
            let peer = self.member(partner);
            self.round(rank, Pair(peer), Some((peer, data)), Some(peer), |words| {
                out.copy_from_slice(words)
            });
        }
        out
    }

    /// Runs `op` on `buf` zero-padded to the next multiple of the
    /// communicator size, so the block schedules apply; the cost model
    /// mirrors this padding (`n̄ = p·⌈n/p⌉`).
    fn padded(&self, rank: &mut Rank, buf: &mut [f64], op: impl FnOnce(&mut Rank, &mut [f64])) {
        let n = buf.len();
        let mut padded = rank.comm_take(n.next_multiple_of(self.size()));
        padded[..n].copy_from_slice(buf);
        padded[n..].fill(0.0);
        op(rank, &mut padded);
        buf.copy_from_slice(&padded[..n]);
        rank.recycle_comm(padded);
    }

    /// Broadcast from `root` (member index). Large messages (`n ≥ p`) use
    /// binomial scatter + recursive-doubling allgather (van de Geijn):
    /// `2·log₂p·α + 2n̄(1−1/p)·β` with `n̄ = p·⌈n/p⌉`. Small messages
    /// (`n < p`) use a binomial tree: `log₂p·(α + n·β)` — the same
    /// large/small split MPI implementations make.
    ///
    /// On entry non-roots must pass a buffer of the correct length; on exit
    /// every member holds the root's data.
    pub fn bcast(&self, rank: &mut Rank, root: usize, buf: &mut [f64]) {
        let p = self.size();
        assert!(is_pow2(p), "communicator size must be a power of two (got {p})");
        if p == 1 {
            return;
        }
        let n = buf.len();
        if n >= p && !n.is_multiple_of(p) {
            return self.padded(rank, buf, |rank, padded| self.bcast(rank, root, padded));
        }
        self.lift_clocks(rank);
        if n < p {
            return self.bcast_binomial(rank, root, buf);
        }
        let b = n / p;
        let vr = self.virtual_index(root);

        // Phase 1: binomial scatter in virtual space. Block `v` (buffer words
        // [v·b, (v+1)·b)) ends up at virtual rank v: at distance d, every
        // multiple of 2d hands the upper half of its 2d blocks to vr + d.
        let mut d = p / 2;
        while d >= 1 {
            let sends = vr.is_multiple_of(2 * d);
            let (keep, give) = buf.split_at_mut(if sends { (vr + d) * b } else { n });
            let send = sends.then(|| (self.global_of_virtual(vr + d, root), &give[..d * b]));
            let recv = (vr % (2 * d) == d).then(|| self.global_of_virtual(vr - d, root));
            self.round(rank, Group, send, recv, |words| {
                keep[vr * b..(vr + d) * b].copy_from_slice(words)
            });
            d /= 2;
        }

        // Phase 2: recursive-doubling allgather in virtual space.
        self.allgather_blocks(rank, buf, b, vr, root);
    }

    /// Small-message binomial-tree broadcast: `log₂p` rounds of the full
    /// buffer.
    fn bcast_binomial(&self, rank: &mut Rank, root: usize, buf: &mut [f64]) {
        let p = self.size();
        let vr = self.virtual_index(root);
        let mut k = 1;
        while k < p {
            // A member sends the whole buffer or receives into it, never both.
            let (keep, give) = buf.split_at_mut(if vr < k { 0 } else { buf.len() });
            let send = (vr < k).then(|| (self.global_of_virtual(vr + k, root), &*give));
            let recv = (k <= vr && vr < 2 * k).then(|| self.global_of_virtual(vr - k, root));
            self.round(rank, Group, send, recv, |words| keep.copy_from_slice(words));
            k *= 2;
        }
    }

    /// Small-message recursive-doubling allreduce: `log₂p` exchanges of the
    /// full buffer, each followed by an elementwise add. Both partners
    /// update their buffers in place, so the partner's pre-add values are
    /// staged in scratch and added once the round is over.
    fn allreduce_doubling(&self, rank: &mut Rank, buf: &mut [f64]) {
        let p = self.size();
        let me = self.my_index();
        let mut theirs = rank.comm_take(buf.len());
        let mut d = 1;
        while d < p {
            let peer = self.member(me ^ d);
            self.round(rank, Group, Some((peer, &*buf)), Some(peer), |words| {
                theirs.copy_from_slice(words)
            });
            add_into(buf, &theirs);
            rank.charge_flops(buf.len() as f64);
            d *= 2;
        }
        rank.recycle_comm(theirs);
    }

    /// Small-message binomial-tree reduce onto virtual root 0: at distance
    /// d, every odd multiple of d sends its partial sum to `vr − d` and is
    /// idle from then on.
    fn reduce_binomial(&self, rank: &mut Rank, root: usize, buf: &mut [f64]) {
        let p = self.size();
        let vr = self.virtual_index(root);
        let mut d = 1;
        while d < p {
            let sends = vr % (2 * d) == d;
            let recvs = vr.is_multiple_of(2 * d);
            let (keep, give) = buf.split_at_mut(if sends { 0 } else { buf.len() });
            let send = sends.then(|| (self.global_of_virtual(vr - d, root), &*give));
            let recv = recvs.then(|| self.global_of_virtual(vr + d, root));
            self.round(rank, Group, send, recv, |words| add_into(keep, words));
            if recvs {
                rank.charge_flops(buf.len() as f64);
            }
            d *= 2;
        }
    }

    /// Allgather: each member contributes `local` (equal length on all
    /// members); returns the concatenation in member-index order.
    /// `log₂p·α + n(1−1/p)·β` for total gathered size `n = p·|local|`.
    ///
    /// The returned buffer is served from the rank's communication arena —
    /// hand it back with [`Rank::recycle_comm`] when done to keep the
    /// steady-state communication path allocation-free.
    pub fn allgather(&self, rank: &mut Rank, local: &[f64]) -> Vec<f64> {
        let p = self.size();
        assert!(is_pow2(p), "communicator size must be a power of two (got {p})");
        let b = local.len();
        // Stale contents are fine: every block is written below (the local
        // copy plus one doubling round per remote block).
        let mut buf = rank.comm_take(b * p);
        let me = self.my_index();
        buf[me * b..(me + 1) * b].copy_from_slice(local);
        if p > 1 {
            self.lift_clocks(rank);
            self.allgather_blocks(rank, &mut buf, b, me, 0);
        }
        buf
    }

    /// Recursive-doubling allgather over `buf` split into `p` blocks of `b`
    /// words; this rank initially holds block `vr`; `root` maps virtual
    /// indices to members. At distance d a member holds the d-aligned run of
    /// d blocks around `vr` and swaps it for its sibling run.
    fn allgather_blocks(&self, rank: &mut Rank, buf: &mut [f64], b: usize, vr: usize, root: usize) {
        let p = self.size();
        let mut d = 1;
        while d < p {
            let base = vr & !(2 * d - 1);
            let (low, high) = buf[base * b..(base + 2 * d) * b].split_at_mut(d * b);
            let (mine, theirs) = if vr & d == 0 { (low, high) } else { (high, low) };
            let peer = self.global_of_virtual(vr ^ d, root);
            self.round(rank, Group, Some((peer, &*mine)), Some(peer), |words| {
                theirs.copy_from_slice(words)
            });
            d *= 2;
        }
    }

    /// Recursive-halving reduce-scatter: on return, member `i` holds the
    /// elementwise sum of everyone's block `i` at `buf[i·b..(i+1)·b]`
    /// (other regions hold partial garbage). Returns the block size `b`.
    fn reduce_scatter_blocks(&self, rank: &mut Rank, buf: &mut [f64]) -> usize {
        let p = self.size();
        let n = buf.len();
        assert_eq!(
            n % p,
            0,
            "reduce buffer length {n} not divisible by communicator size {p}"
        );
        let b = n / p;
        let me = self.my_index();
        let (mut lo, mut hi) = (0usize, p);
        let mut d = p / 2;
        while d >= 1 {
            // Keep the half of the active range [lo, hi) that contains `me`,
            // give the other half to the partner across it.
            let (low, high) = buf[lo * b..hi * b].split_at_mut(d * b);
            let (keep, give) = if me & d == 0 { (low, high) } else { (high, low) };
            let peer = self.member(me ^ d);
            self.round(rank, Group, Some((peer, &*give)), Some(peer), |words| {
                add_into(keep, words)
            });
            rank.charge_flops((d * b) as f64);
            if me & d == 0 {
                hi = lo + d;
            } else {
                lo += d;
            }
            d /= 2;
        }
        debug_assert_eq!((lo, hi), (me, me + 1));
        b
    }

    /// Allreduce (elementwise sum): recursive-halving reduce-scatter plus
    /// recursive-doubling allgather — `2·log₂p·α + 2n(1−1/p)·β` and
    /// `n(1−1/p)` reduction flops. Every member ends with the bitwise-same
    /// result (each block is combined in one fixed tree order and then
    /// replicated).
    pub fn allreduce(&self, rank: &mut Rank, buf: &mut [f64]) {
        let p = self.size();
        assert!(is_pow2(p), "communicator size must be a power of two (got {p})");
        if p == 1 {
            return;
        }
        let n = buf.len();
        if n >= p && !n.is_multiple_of(p) {
            return self.padded(rank, buf, |rank, padded| self.allreduce(rank, padded));
        }
        self.lift_clocks(rank);
        if n < p {
            return self.allreduce_doubling(rank, buf);
        }
        let b = self.reduce_scatter_blocks(rank, buf);
        self.allgather_blocks(rank, buf, b, self.my_index(), 0);
    }

    /// Reduce (elementwise sum) onto `root` (member index): reduce-scatter
    /// plus binomial gather — `2·log₂p·α + 2n(1−1/p)·β`. Only the root's
    /// buffer holds the result on return; other members' buffers are
    /// clobbered with partial sums (matching MPI_Reduce, where non-root
    /// output is undefined).
    pub fn reduce(&self, rank: &mut Rank, root: usize, buf: &mut [f64]) {
        let p = self.size();
        assert!(is_pow2(p), "communicator size must be a power of two (got {p})");
        if p == 1 {
            return;
        }
        let n = buf.len();
        if n >= p && !n.is_multiple_of(p) {
            return self.padded(rank, buf, |rank, padded| self.reduce(rank, root, padded));
        }
        self.lift_clocks(rank);
        if n < p {
            return self.reduce_binomial(rank, root, buf);
        }
        let b = self.reduce_scatter_blocks(rank, buf);
        // Binomial gather to root in virtual space. Virtual rank v holds the
        // reduced block with *index* i(v) = (v + root) % p; after k rounds it
        // holds the blocks of virtual range [aligned(v), aligned(v) + 2^k).
        // At distance d, every odd multiple of d serializes its d blocks in
        // virtual order and sends them to `vr − d`.
        let vr = self.virtual_index(root);
        let block = |w: usize| {
            let idx = (w + root) % p;
            idx * b..(idx + 1) * b
        };
        let mut d = 1;
        while d < p {
            let sends = vr % (2 * d) == d;
            let mut packed = Vec::new();
            if sends {
                packed = rank.comm_take(d * b);
                for (off, w) in (vr..vr + d).enumerate() {
                    packed[off * b..(off + 1) * b].copy_from_slice(&buf[block(w)]);
                }
            }
            let send = sends.then(|| (self.global_of_virtual(vr - d, root), &packed[..]));
            let recv = vr.is_multiple_of(2 * d).then(|| self.global_of_virtual(vr + d, root));
            self.round(rank, Group, send, recv, |words| {
                for (off, w) in (vr + d..vr + 2 * d).enumerate() {
                    buf[block(w)].copy_from_slice(&words[off * b..(off + 1) * b]);
                }
            });
            rank.recycle_comm(packed);
            d *= 2;
        }
    }

    /// Barrier: a zero-payload synchronization using the allreduce pattern
    /// (charges `2·log₂p·α`).
    pub fn barrier(&self, rank: &mut Rank) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let mut token = rank.comm_take_zeroed(p);
        self.allreduce(rank, &mut token);
        rank.recycle_comm(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::runtime::{run_spmd, RuntimeKind, SimConfig, SimReport};

    /// Runs `test` once per runtime: the schedules and the transport are
    /// shared, so every delivery and cost assertion below must hold on both.
    fn on_both_runtimes(test: impl Fn(RuntimeKind)) {
        test(RuntimeKind::Simulated);
        test(RuntimeKind::SharedMem);
    }

    fn zero_cfg(rt: RuntimeKind) -> SimConfig {
        SimConfig::default().on_runtime(rt)
    }

    fn alpha_cfg(rt: RuntimeKind) -> SimConfig {
        SimConfig::with_machine(Machine::alpha_only()).on_runtime(rt)
    }

    fn beta_cfg(rt: RuntimeKind) -> SimConfig {
        SimConfig::with_machine(Machine::beta_only()).on_runtime(rt)
    }

    #[test]
    fn bcast_delivers_and_costs_match() {
        on_both_runtimes(|rt| {
            for p in [1usize, 2, 4, 8, 16] {
                let n = 64usize;
                let report = run_spmd(p, alpha_cfg(rt), move |rank| {
                    let world = rank.world();
                    let mut buf = if world.my_index() == 1 % p {
                        (0..n).map(|i| i as f64).collect::<Vec<_>>()
                    } else {
                        vec![0.0; n]
                    };
                    world.bcast(rank, 1 % p, &mut buf);
                    buf
                });
                for r in &report.results {
                    assert_eq!(r.len(), n);
                    for (i, v) in r.iter().enumerate() {
                        assert_eq!(*v, i as f64, "p={p}");
                    }
                }
                // α cost: exactly 2·log₂p.
                let expect = if p == 1 { 0.0 } else { 2.0 * (p as f64).log2() };
                assert_eq!(report.elapsed, expect, "alpha cost at p={p}");
            }
        });
    }

    #[test]
    fn bcast_beta_cost_exact() {
        on_both_runtimes(|rt| {
            let p = 8;
            let n = 64usize;
            let report = run_spmd(p, beta_cfg(rt), move |rank| {
                let world = rank.world();
                let mut buf = vec![rank.id() as f64; n];
                world.bcast(rank, 0, &mut buf);
            });
            // β cost: 2n(1−1/p).
            let expect = 2.0 * n as f64 * (1.0 - 1.0 / p as f64);
            assert_eq!(report.elapsed, expect);
        });
    }

    #[test]
    fn allgather_concatenates_in_member_order() {
        on_both_runtimes(|rt| {
            let p = 8;
            let report = run_spmd(p, alpha_cfg(rt), move |rank| {
                let world = rank.world();
                let local = vec![rank.id() as f64; 3];
                world.allgather(rank, &local)
            });
            for r in &report.results {
                let expect: Vec<f64> = (0..p).flat_map(|i| std::iter::repeat_n(i as f64, 3)).collect();
                assert_eq!(*r, expect);
            }
            assert_eq!(report.elapsed, (p as f64).log2());
        });
    }

    #[test]
    fn allgather_beta_cost_exact() {
        on_both_runtimes(|rt| {
            let p = 4;
            let b = 10usize;
            let report = run_spmd(p, beta_cfg(rt), move |rank| {
                let world = rank.world();
                let local = vec![1.0; b];
                world.allgather(rank, &local);
            });
            let n = (b * p) as f64;
            assert_eq!(report.elapsed, n * (1.0 - 1.0 / p as f64));
        });
    }

    #[test]
    fn allreduce_sums_identically_everywhere() {
        on_both_runtimes(|rt| {
            let p = 8;
            let n = 32usize;
            let report = run_spmd(p, zero_cfg(rt), move |rank| {
                let world = rank.world();
                let mut buf: Vec<f64> = (0..n).map(|i| (rank.id() * n + i) as f64 * 0.1).collect();
                world.allreduce(rank, &mut buf);
                buf
            });
            let first = &report.results[0];
            for r in &report.results[1..] {
                assert_eq!(r, first, "allreduce must be bitwise identical on every rank");
            }
            // Value check against sequential summation (tolerance: different order).
            for (i, v) in first.iter().enumerate() {
                let expect: f64 = (0..p).map(|r| (r * n + i) as f64 * 0.1).sum();
                assert!((v - expect).abs() < 1e-9);
            }
        });
    }

    #[test]
    fn allreduce_costs_match_model() {
        on_both_runtimes(|rt| {
            let p = 16;
            let n = 64usize;
            let report = run_spmd(p, alpha_cfg(rt), move |rank| {
                let world = rank.world();
                let mut buf = vec![1.0; n];
                world.allreduce(rank, &mut buf);
            });
            assert_eq!(report.elapsed, 2.0 * (p as f64).log2());
            let report = run_spmd(p, beta_cfg(rt), move |rank| {
                let world = rank.world();
                let mut buf = vec![1.0; n];
                world.allreduce(rank, &mut buf);
            });
            assert_eq!(report.elapsed, 2.0 * n as f64 * (1.0 - 1.0 / p as f64));
            // Reduction flops: n(1−1/p) adds per rank.
            let report = run_spmd(p, zero_cfg(rt), move |rank| {
                let world = rank.world();
                let mut buf = vec![1.0; n];
                world.allreduce(rank, &mut buf);
                rank.ledger().flops
            });
            for f in &report.results {
                assert_eq!(*f, n as f64 * (1.0 - 1.0 / p as f64));
            }
        });
    }

    #[test]
    fn reduce_collects_to_root_only() {
        on_both_runtimes(|rt| {
            let p = 8;
            let n = 24usize;
            for root in [0usize, 3, 7] {
                let report = run_spmd(p, zero_cfg(rt), move |rank| {
                    let world = rank.world();
                    let mut buf: Vec<f64> = (0..n).map(|i| (rank.id() + i) as f64).collect();
                    world.reduce(rank, root, &mut buf);
                    buf
                });
                let got = &report.results[root];
                for (i, v) in got.iter().enumerate() {
                    let expect: f64 = (0..p).map(|r| (r + i) as f64).sum();
                    assert!((v - expect).abs() < 1e-9, "root={root} i={i}");
                }
            }
        });
    }

    #[test]
    fn reduce_cost_matches_allreduce() {
        on_both_runtimes(|rt| {
            let p = 8;
            let n = 64usize;
            let r1 = run_spmd(p, alpha_cfg(rt), move |rank| {
                let world = rank.world();
                let mut buf = vec![1.0; n];
                world.reduce(rank, 2, &mut buf);
            });
            assert_eq!(r1.elapsed, 2.0 * (p as f64).log2());
            let r2 = run_spmd(p, beta_cfg(rt), move |rank| {
                let world = rank.world();
                let mut buf = vec![1.0; n];
                world.reduce(rank, 2, &mut buf);
            });
            assert_eq!(r2.elapsed, 2.0 * n as f64 * (1.0 - 1.0 / p as f64));
        });
    }

    #[test]
    fn sendrecv_swaps() {
        on_both_runtimes(|rt| {
            let report = run_spmd(4, zero_cfg(rt), |rank| {
                let world = rank.world();
                let partner = world.my_index() ^ 1;
                let out = vec![rank.id() as f64; 2];
                world.sendrecv(rank, partner, &out)
            });
            assert_eq!(report.results[0], vec![1.0, 1.0]);
            assert_eq!(report.results[1], vec![0.0, 0.0]);
            assert_eq!(report.results[2], vec![3.0, 3.0]);
            assert_eq!(report.results[3], vec![2.0, 2.0]);
        });
    }

    #[test]
    fn sendrecv_with_self_is_free() {
        on_both_runtimes(|rt| {
            let report = run_spmd(2, alpha_cfg(rt), |rank| {
                let world = rank.world();
                let out = vec![rank.id() as f64];
                world.sendrecv(rank, world.my_index(), &out)
            });
            assert_eq!(report.elapsed, 0.0);
            assert_eq!(report.results[1], vec![1.0]);
        });
    }

    #[test]
    fn collectives_on_subcommunicators() {
        on_both_runtimes(|rt| {
            // Split 8 ranks into two groups of 4 by parity; allreduce within each.
            let report = run_spmd(8, zero_cfg(rt), |rank| {
                let members: Vec<usize> = (0..8).filter(|r| r % 2 == rank.id() % 2).collect();
                let comm = Comm::subset(rank, members);
                let mut buf = vec![rank.id() as f64];
                comm.allreduce(rank, &mut buf);
                buf[0]
            });
            // evens: 0+2+4+6 = 12; odds: 1+3+5+7 = 16.
            for r in 0..8 {
                let expect = if r % 2 == 0 { 12.0 } else { 16.0 };
                assert_eq!(report.results[r], expect);
            }
        });
    }

    #[test]
    fn nested_collectives_on_communicators_sharing_members() {
        on_both_runtimes(|rt| {
            // Interleave ops on two communicators that share members.
            let report = run_spmd(4, zero_cfg(rt), |rank| {
                let w1 = rank.world();
                let w2 = rank.world();
                let mut a = vec![rank.id() as f64; 4];
                let mut b = vec![(rank.id() * 10) as f64; 4];
                w1.allreduce(rank, &mut a);
                w2.allreduce(rank, &mut b);
                w1.bcast(rank, 0, &mut b);
                (a[0], b[0])
            });
            for (a, b) in &report.results {
                assert_eq!(*a, 6.0);
                assert_eq!(*b, 60.0);
            }
        });
    }

    /// Rank- and position-dependent operand whose sums round differently in
    /// different orders, so a reordered reduction shows up bitwise.
    fn operand(id: usize, n: usize, salt: usize) -> Vec<f64> {
        (0..n).map(|i| ((id * 131 + i * 17 + salt) as f64).sin()).collect()
    }

    /// One collective as one rank saw it: what ran, the words it returned,
    /// and the rank's ledger and clock afterwards (floats as bit patterns).
    #[derive(Debug, PartialEq)]
    struct Step {
        what: String,
        words: Vec<u64>,
        ledger: [u64; 5],
        clock: u64,
    }

    /// Every collective over every root and a spread of sizes (tree, padded
    /// and exact block schedules), on the world and on a strided
    /// sub-communicator, each checked against its definition as it runs.
    fn sweep(p: usize, rt: RuntimeKind) -> SimReport<Vec<Step>> {
        let cfg = SimConfig::with_machine(Machine::stampede2(64)).on_runtime(rt);
        run_spmd(p, cfg, move |rank| {
            let world = rank.world();
            let strided = Comm::subset(rank, (rank.id() % 2..p).step_by(2).collect());
            let mut steps = Vec::new();
            let mut record = |rank: &Rank, what: String, words: &[f64]| {
                let l = rank.ledger();
                steps.push(Step {
                    what,
                    words: words.iter().map(|w| w.to_bits()).collect(),
                    ledger: [l.msgs_sent, l.words_sent, l.msgs_recv, l.words_recv, l.flops.to_bits()],
                    clock: rank.clock().to_bits(),
                });
            };
            for (name, comm) in [("world", &world), ("strided", &strided)] {
                let q = comm.size();
                let me = comm.my_index();
                let sum_of = |n: usize, salt: usize| {
                    let mut sum = vec![0.0; n];
                    for &id in comm.members() {
                        add_into(&mut sum, &operand(id, n, salt));
                    }
                    sum
                };
                let assert_close = |got: &[f64], want: &[f64], what: &str| {
                    for (g, w) in got.iter().zip(want) {
                        assert!((g - w).abs() < 1e-12 * q as f64, "{what}: {g} vs {w}");
                    }
                };
                for n in [1, q - 1, q, q + 3, 64, 1000] {
                    for root in 0..q {
                        let what = format!("{name} p={p} n={n} bcast root={root}");
                        let mut buf = operand(rank.id(), n, root);
                        comm.bcast(rank, root, &mut buf);
                        assert_eq!(buf, operand(comm.member(root), n, root), "{what}");
                        record(rank, what, &buf);

                        // Only the root's buffer is defined after a reduce.
                        let what = format!("{name} p={p} n={n} reduce root={root}");
                        let mut buf = operand(rank.id(), n, root);
                        comm.reduce(rank, root, &mut buf);
                        if me == root {
                            assert_close(&buf, &sum_of(n, root), &what);
                        }
                        record(rank, what, if me == root { &buf } else { &[] });
                    }

                    let what = format!("{name} p={p} n={n} allreduce");
                    let mut buf = operand(rank.id(), n, 7);
                    comm.allreduce(rank, &mut buf);
                    assert_close(&buf, &sum_of(n, 7), &what);
                    record(rank, what, &buf);

                    let what = format!("{name} p={p} n={n} allgather");
                    let all = comm.allgather(rank, &operand(rank.id(), n, 8));
                    let want: Vec<f64> = comm.members().iter().flat_map(|&id| operand(id, n, 8)).collect();
                    assert_eq!(all, want, "{what}");
                    record(rank, what, &all);

                    let what = format!("{name} p={p} n={n} sendrecv");
                    let partner = if q == 1 { me } else { me ^ 1 };
                    let got = comm.sendrecv(rank, partner, &operand(rank.id(), n, 9));
                    assert_eq!(got, operand(comm.member(partner), n, 9), "{what}");
                    record(rank, what, &got);
                }
                comm.barrier(rank);
                record(rank, format!("{name} p={p} barrier"), &[]);
            }
            steps
        })
    }

    #[test]
    fn runtimes_agree_bitwise_on_results_ledgers_and_clocks() {
        for p in [2usize, 4, 8, 16] {
            let sim = sweep(p, RuntimeKind::Simulated);
            let shm = sweep(p, RuntimeKind::SharedMem);
            for (id, (a, b)) in sim.results.iter().zip(&shm.results).enumerate() {
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x, y, "rank {id}: simulated (left) vs shared-memory (right)");
                }
            }
            assert_eq!(sim.ledgers, shm.ledgers, "p={p}");
            assert_eq!(sim.elapsed.to_bits(), shm.elapsed.to_bits(), "p={p}");
        }
    }
}
