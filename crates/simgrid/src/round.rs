//! The round primitive: the one place words move between ranks.
//!
//! Every schedule in [`crate::collectives`] is a sequence of rounds, and a
//! round is "optionally post this slice to a peer, optionally receive from a
//! peer, hand the received words to a closure". The schedules (virtual
//! ranks, block ranges, reduction orders, flop charges) are written once
//! against [`Comm::round`]; this module moves the words over the region's
//! shared windows: charge the send and publish the slice, first crossing,
//! read the peer's window in place and charge the receive, second crossing.
//! The charges go through [`Rank::charge_send`]/[`Rank::charge_recv`], so
//! ledgers and virtual clocks are the α-β model's whichever
//! [`RuntimeKind`](crate::RuntimeKind) pins (or does not pin) the threads.
//!
//! A collective also lifts its members' virtual clocks to the group maximum
//! on entry ([`Comm::lift_clocks`]) by folding the clocks through the
//! communicator's own barrier, one more crossing of the kind every round
//! already makes.
//!
//! # The two-crossing invariant
//!
//! A window may be read only between the crossing that follows its publish
//! and the crossing after that. Three things uphold it, all visible here:
//!
//! 1. Everyone named by the [`Crossing`] calls `round` the same number of
//!    times — including rounds in which it moves no data — so the crossings
//!    pair up. This is the SPMD discipline; it is why the schedules have no
//!    early exits.
//! 2. A sender's `round` call holds a shared borrow of the published slice
//!    from the publish to its own second crossing, so the owner cannot write
//!    it (its `on_recv` closure cannot capture an overlapping `&mut`) or
//!    free it while a peer may still read.
//! 3. A receiver touches the peer's window only inside `on_recv`, which runs
//!    between its two crossings.

use crate::comm::Comm;
use crate::runtime::Rank;

/// Who meets at a round's two crossings.
#[derive(Clone, Copy)]
pub(crate) enum Crossing {
    /// Every member of the communicator, at the group's barrier.
    Group,
    /// This rank and the given global rank only, by pair-epoch handshake —
    /// for [`Comm::sendrecv`], which self-paired members never enter, so a
    /// communicator-wide barrier could deadlock.
    Pair(usize),
}

impl Comm {
    /// Entry synchronization of a collective: lifts this rank's clock to the
    /// maximum over the communicator's members, the BSP-style accounting
    /// the paper's per-line cost tables assume (no-op on single-member
    /// communicators).
    pub(crate) fn lift_clocks(&self, rank: &mut Rank) {
        if self.size() <= 1 {
            return;
        }
        let lifted = self.shm_group().max_clock(rank.clock());
        rank.set_clock(lifted);
    }

    /// One round of a schedule: posts `send = (dst, words)` and hands the
    /// words received from `recv` to `on_recv` (called iff `recv` is `Some`).
    /// Peers are global rank ids; a round's sender and receiver must name
    /// each other.
    pub(crate) fn round(
        &self,
        rank: &mut Rank,
        crossing: Crossing,
        send: Option<(usize, &[f64])>,
        recv: Option<usize>,
        on_recv: impl FnOnce(&[f64]),
    ) {
        // Chaos faultpoint: a late rank at the round. Delay-only — peers
        // wait at the crossing until this rank arrives, so the round still
        // completes and results are unchanged.
        dense::fault::maybe_delay(dense::fault::COLLECTIVE);
        if let Some((_, words)) = send {
            rank.charge_send(words.len());
            rank.shm().publish(rank.id(), words, rank.clock());
        }
        self.cross(rank, crossing);
        if let Some(src) = recv {
            // SAFETY: the two-crossing invariant (module docs). `src` sends
            // to this rank this round, so it published before the crossing
            // above and keeps the slice borrowed, unwritten, until it passes
            // the crossing below — which it cannot before this rank arrives
            // there, after `on_recv` has returned.
            let (words, depart) = unsafe { rank.shm().peer_slice(src) };
            let n = words.len();
            on_recv(words);
            rank.charge_recv(n, depart);
        }
        self.cross(rank, crossing);
    }

    fn cross(&self, rank: &Rank, crossing: Crossing) {
        match crossing {
            Crossing::Group => self.shm_group().wait(),
            Crossing::Pair(peer) => {
                let shm = rank.shm();
                let step = shm.pair_advance(rank.id(), peer);
                shm.pair_wait(peer, rank.id(), step);
            }
        }
    }
}
