//! Communicators: ordered subsets of ranks with a private tag space.
//!
//! A [`Comm`] is plain data — the sorted member list, this rank's index in
//! it, and a tag namespace. Collective operations (in [`crate::collectives`])
//! take `&mut Rank` plus `&Comm`; each operation draws one sequence number
//! from the communicator, so as long as the program is SPMD-consistent
//! (every member executes the same operations on the same communicator in
//! the same order — the MPI contract), tags match across ranks without any
//! central coordination.
//!
//! Communicator *creation* is likewise collective: every rank allocates ids
//! from a local counter, and because creation happens in identical program
//! order on every rank, ids agree globally. Different member-sets created at
//! the same point in the program (e.g. "my row" on every rank) share an id,
//! which is safe because messages are additionally matched on source rank
//! and disjoint groups never exchange messages on the same communicator.

use crate::runtime::Rank;
use crate::shm::ShmGroup;
use std::cell::Cell;

/// An ordered group of ranks with a private tag space.
#[derive(Debug)]
pub struct Comm {
    members: Vec<usize>,
    my_index: usize,
    comm_id: u32,
    next_seq: Cell<u32>,
    /// Shared-memory barrier handle: `Some` iff the owning rank runs on the
    /// shm backend and the group has more than one member. Created at
    /// communicator creation (the only place the barrier registry's mutex
    /// is touched), never on the collective hot path.
    shm_group: Option<ShmGroup>,
}

impl Comm {
    /// Builds a communicator from a member list (must contain the calling
    /// rank; order defines member indices and must be identical on all
    /// members — use sorted global ids).
    pub fn from_members(rank: &mut Rank, members: Vec<usize>) -> Comm {
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "member list must be strictly sorted"
        );
        let my_index = members
            .iter()
            .position(|&m| m == rank.id())
            .expect("calling rank must be a member of its communicator");
        let comm_id = rank.alloc_comm_id();
        let shm_group = if rank.is_shm() && members.len() > 1 {
            // Keyed by (comm_id, lowest member): comm ids agree across ranks
            // by SPMD discipline, and disjoint groups created at the same
            // program point differ in their minimum member.
            Some(ShmGroup::new(rank.shm().barrier_for(
                comm_id,
                members[0],
                members.len(),
            )))
        } else {
            None
        };
        Comm {
            members,
            my_index,
            comm_id,
            next_seq: Cell::new(0),
            shm_group,
        }
    }

    /// Collectively creates a sub-communicator. Every rank of the parent must
    /// call this at the same program point; `members` lists *global* rank ids
    /// (this rank's own subgroup). Rank ids in `members` must be sorted.
    pub fn subset(rank: &mut Rank, members: Vec<usize>) -> Comm {
        Comm::from_members(rank, members)
    }

    /// Number of members.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's index within the communicator, in `[0, size)`.
    #[inline]
    pub fn my_index(&self) -> usize {
        self.my_index
    }

    /// Global rank id of member `idx`.
    #[inline]
    pub fn member(&self, idx: usize) -> usize {
        self.members[idx]
    }

    /// The member list.
    #[inline]
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Draws the next operation tag. One per collective (or per matched
    /// point-to-point pattern); identical across members by SPMD discipline.
    pub(crate) fn next_tag(&self) -> u64 {
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        ((self.comm_id as u64) << 32) | seq as u64
    }

    /// This member's handle on the group's shared-memory barrier.
    /// Collective rounds are bracketed by two crossings of it: publish →
    /// wait → read/copy → wait, so windows are never republished while a
    /// peer may still read them.
    pub(crate) fn shm_group(&self) -> &ShmGroup {
        self.shm_group
            .as_ref()
            .expect("a group barrier requires the shm backend and size > 1")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{run_spmd, SimConfig};

    #[test]
    fn world_indices_match_ids() {
        let report = run_spmd(4, SimConfig::default(), |rank| {
            let world = rank.world();
            assert_eq!(world.size(), 4);
            assert_eq!(world.my_index(), rank.id());
            world.member(world.my_index())
        });
        assert_eq!(report.results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn subset_indices_are_positional() {
        let report = run_spmd(4, SimConfig::default(), |rank| {
            // Two disjoint groups: {0, 2} and {1, 3}.
            let members = if rank.id() % 2 == 0 { vec![0, 2] } else { vec![1, 3] };
            let comm = Comm::subset(rank, members);
            comm.my_index()
        });
        assert_eq!(report.results, vec![0, 0, 1, 1]);
    }

    #[test]
    fn tags_differ_across_comms_and_ops() {
        let report = run_spmd(2, SimConfig::default(), |rank| {
            let a = rank.world();
            let b = rank.world();
            let t1 = a.next_tag();
            let t2 = a.next_tag();
            let t3 = b.next_tag();
            assert_ne!(t1, t2);
            assert_ne!(t1, t3);
            assert_ne!(t2, t3);
            (t1, t2, t3)
        });
        assert_eq!(report.results[0], report.results[1], "tags must agree across ranks");
    }
}
