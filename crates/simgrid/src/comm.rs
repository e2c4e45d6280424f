//! Communicators: ordered subsets of ranks sharing a barrier.
//!
//! A [`Comm`] is plain data — the sorted member list, this rank's index in
//! it, and (for two or more members) a handle on the group's barrier.
//! Collective operations (in [`crate::collectives`]) take `&mut Rank` plus
//! `&Comm`; as long as the program is SPMD-consistent (every member executes
//! the same operations on the same communicator in the same order — the MPI
//! contract), every member crosses the group's barrier the same number of
//! times without any central coordination.
//!
//! Communicator *creation* is likewise collective: every rank allocates ids
//! from a local counter, and because creation happens in identical program
//! order on every rank, ids agree globally. Different member-sets created at
//! the same point in the program (e.g. "my row" on every rank) share an id,
//! so the barrier registry keys a group on its id *and* its lowest member:
//! disjoint groups created at the same point differ in the latter.

use crate::runtime::Rank;
use crate::shm::ShmGroup;

/// An ordered group of ranks.
#[derive(Debug)]
pub struct Comm {
    members: Vec<usize>,
    my_index: usize,
    /// Barrier handle: `Some` iff the group has more than one member.
    /// Created at communicator creation (the only place the barrier
    /// registry's mutex is touched), never on the collective hot path.
    shm_group: Option<ShmGroup>,
}

impl Comm {
    /// Collectively creates a sub-communicator. Every rank of the parent must
    /// call this at the same program point; `members` lists *global* rank ids
    /// (this rank's own subgroup, which must contain it). Rank ids in
    /// `members` must be strictly sorted; their order defines member indices.
    pub fn subset(rank: &mut Rank, members: Vec<usize>) -> Comm {
        debug_assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "member list must be strictly sorted"
        );
        let my_index = members
            .iter()
            .position(|&m| m == rank.id())
            .expect("calling rank must be a member of its communicator");
        let comm_id = rank.alloc_comm_id();
        let shm_group =
            (members.len() > 1).then(|| ShmGroup::new(rank.shm().barrier_for(comm_id, members[0], members.len())));
        Comm {
            members,
            my_index,
            shm_group,
        }
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

    /// This member's handle on the group's barrier. Collective rounds are
    /// bracketed by two crossings of it: publish → wait → read/copy → wait,
    /// so windows are never republished while a peer may still read them.
    pub(crate) fn shm_group(&self) -> &ShmGroup {
        self.shm_group
            .as_ref()
            .expect("a group barrier requires two or more members")
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
}
