//! Shared-memory transport: the primitives every multi-rank SPMD region
//! communicates through, on either runtime.
//!
//! * [`GroupBarrier`] — a sense-reversing centralized barrier, one per
//!   communicator group. Collective rounds are bracketed by barrier waits so
//!   partners read each other's buffers in place, with no copies beyond the
//!   block moves the butterfly schedules themselves require.
//! * [`ShmShared`] — the per-region shared state: one publication [`Window`]
//!   per rank (a pointer/length pair plus the sender's virtual clock, all
//!   atomics), a directed pair-epoch matrix for point-to-point exchanges
//!   ([`Comm::sendrecv`](crate::Comm::sendrecv)), and a lazily built
//!   registry of group barriers keyed by communicator identity.
//!
//! None of the steady-state operations here allocate: windows and epochs are
//! preallocated at run start, and a group's barrier is created once (behind
//! a mutex touched only at communicator creation, never in a collective hot
//! path).
//!
//! # Oversubscription
//!
//! A region is *oversubscribed* when it has more ranks than the process has
//! cores ([`cores`], read once per process). That one bit sets both
//! scheduling choices, and for `p ≤ cores` both are the plain ones:
//!
//! * [`spin_budget`]: a waiter at a barrier or pair epoch spins
//!   [`SPIN_LIMIT`] `pause`s before yielding — or yields at once when
//!   oversubscribed, because then the peer it waits for is likely queued on
//!   the very core it is spinning on.
//! * [`pinned_core`]: `SharedMem` pins rank `i` to core `i`, or, when
//!   oversubscribed, to core `⌊i·cores/p⌋`. Contiguous blocks of ranks share
//!   a core, so on a `c × d × c` grid (`rank = x + c·y + c·d·z`) each
//!   replicated slice `Π[:, :, z]` hands off between threads of one core and
//!   only depth reductions cross cores.
//!
//! # Safety model
//!
//! A rank publishes a sub-slice of a buffer it owns, then everyone in the
//! group crosses a barrier, then peers read the published slice while the
//! owner writes only *disjoint* regions of the same buffer, then everyone
//! crosses a second barrier before any window is republished or any read
//! region is mutated. The barrier's acquire/release pairs make each round's
//! writes visible to the next round's readers; disjointness makes the
//! concurrent access race-free. The one caller of [`ShmShared::peer_slice`]
//! outside this module's tests is the round primitive in `round`, which
//! states how that two-crossing bracket is upheld (every member executes
//! every round's crossings, even in rounds where it neither sends nor
//! receives).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Spins this many iterations before yielding the core, in a region where
/// every rank has a core of its own: a partner running elsewhere usually
/// arrives within a short spin. An oversubscribed region spins not at all
/// ([`spin_budget`]): its partners only make progress when the waiter lets
/// the scheduler run them.
const SPIN_LIMIT: u32 = 128;

/// The cores this process may run on, read once: the query parses cgroup
/// limits and costs microseconds, and regions are spawned per `factor`.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How many `pause`s a waiter in a `p`-rank region on `cores` cores spins
/// before yielding: [`SPIN_LIMIT`], or none when the region is
/// oversubscribed.
pub(crate) fn spin_budget(p: usize, cores: usize) -> u32 {
    if p > cores {
        0
    } else {
        SPIN_LIMIT
    }
}

/// The core a `SharedMem` region of `p` ranks on `cores` cores pins rank
/// `rank` to: core `rank` while every rank has a core of its own, otherwise
/// `⌊rank·cores/p⌋`, so that contiguous blocks of ranks (a grid's
/// replicated slices) share one core.
pub fn pinned_core(rank: usize, p: usize, cores: usize) -> usize {
    debug_assert!(rank < p && cores > 0);
    if p <= cores {
        rank
    } else {
        rank * cores / p
    }
}

/// Waits until `ready()` holds: spins up to `spin_limit` `pause`s, then
/// yields the core between polls.
#[inline]
fn wait_until(spin_limit: u32, ready: impl Fn() -> bool) {
    let mut spins = 0;
    while !ready() {
        if spins < spin_limit {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// A sense-reversing centralized barrier for one communicator group.
///
/// Each member keeps a local sense flag (stored in its `Comm` handle) that
/// flips per wait; the last arriver resets the count and flips the shared
/// sense, releasing the waiters. All members of a group must wait the same
/// number of times — guaranteed by the SPMD discipline the collectives
/// follow (see `round`).
pub(crate) struct GroupBarrier {
    count: AtomicUsize,
    sense: AtomicBool,
    size: usize,
    /// The region's [`spin_budget`].
    spin_limit: u32,
    /// Two slots for the group-maximum virtual clock, used alternately by
    /// consecutive [`ShmGroup::max_clock`] calls. Relaxed accesses
    /// throughout: every one is ordered by the crossing it sits next to
    /// (the `count` AcqRel / `sense` Release–Acquire pair of `wait`).
    clock_bits: [AtomicU64; 2],
}

impl GroupBarrier {
    fn new(size: usize, spin_limit: u32) -> GroupBarrier {
        GroupBarrier {
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            size,
            spin_limit,
            clock_bits: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// Blocks until all `size` members have arrived. `local_sense` is the
    /// caller's per-member flag and is flipped by this call. The last
    /// arriver runs `on_last` before it releases the others: everyone else
    /// is parked inside this crossing, so `on_last` has the group's shared
    /// state to itself.
    pub(crate) fn wait(&self, local_sense: &mut bool, on_last: impl FnOnce()) {
        let s = !*local_sense;
        *local_sense = s;
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.size {
            on_last();
            // Reset before release so early leavers can re-arrive safely.
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(s, Ordering::Release);
        } else {
            wait_until(self.spin_limit, || self.sense.load(Ordering::Acquire) == s);
        }
    }
}

/// One rank's publication slot: a raw view of the slice it is currently
/// exposing to its group, plus its virtual clock at publication time.
/// Aligned out to its own cache line pair to keep the publish/poll traffic
/// of different ranks from false-sharing.
#[repr(align(128))]
struct Window {
    ptr: AtomicUsize,
    len: AtomicUsize,
    clock: AtomicU64,
}

impl Window {
    fn new() -> Window {
        Window {
            ptr: AtomicUsize::new(0),
            len: AtomicUsize::new(0),
            clock: AtomicU64::new(0),
        }
    }
}

/// Per-region shared state. One instance is built by `run_spmd` per region
/// of two or more ranks and handed to every rank.
pub(crate) struct ShmShared {
    p: usize,
    /// The region's [`spin_budget`], for pair waits and every group barrier.
    spin_limit: u32,
    windows: Vec<Window>,
    /// Directed pair epochs: slot `a·p + b` counts handshake steps from `a`
    /// towards `b`. Only rank `a` writes it. Used by `sendrecv`, whose
    /// partners cannot use a group barrier (self-paired members skip the
    /// exchange entirely).
    pair_seq: Vec<AtomicU64>,
    /// Group barriers keyed by `(comm_id, lowest member)`: comm ids agree
    /// across ranks by SPMD discipline, and disjoint groups created at the
    /// same program point differ in their lowest member.
    barriers: Mutex<HashMap<(u32, usize), Arc<GroupBarrier>>>,
}

impl ShmShared {
    pub(crate) fn new(p: usize, spin_limit: u32) -> ShmShared {
        ShmShared {
            p,
            spin_limit,
            windows: (0..p).map(|_| Window::new()).collect(),
            pair_seq: (0..p * p).map(|_| AtomicU64::new(0)).collect(),
            barriers: Mutex::new(HashMap::new()),
        }
    }

    /// Fetches (or creates) the barrier for a communicator group. Called
    /// once per communicator per member, at communicator creation — never on
    /// the collective hot path.
    pub(crate) fn barrier_for(&self, comm_id: u32, lowest: usize, size: usize) -> Arc<GroupBarrier> {
        let mut reg = self.barriers.lock().unwrap_or_else(|e| e.into_inner());
        let b = reg
            .entry((comm_id, lowest))
            .or_insert_with(|| Arc::new(GroupBarrier::new(size, self.spin_limit)));
        assert_eq!(b.size, size, "communicator identity collision in barrier registry");
        Arc::clone(b)
    }

    /// Publishes `data` (and the owner's current virtual clock) in rank
    /// `owner`'s window. Relaxed stores: ordering is provided by the barrier
    /// or pair-epoch handshake that follows.
    pub(crate) fn publish(&self, owner: usize, data: &[f64], clock: f64) {
        let w = &self.windows[owner];
        w.ptr.store(data.as_ptr() as usize, Ordering::Relaxed);
        w.len.store(data.len(), Ordering::Relaxed);
        w.clock.store(clock.to_bits(), Ordering::Relaxed);
    }

    /// Reads rank `owner`'s published slice and clock.
    ///
    /// # Safety
    ///
    /// The caller must be between the barrier (or epoch) that ordered the
    /// owner's publish and the one that permits the owner to republish or
    /// mutate the slice, and must not write any region overlapping it.
    pub(crate) unsafe fn peer_slice(&self, owner: usize) -> (&[f64], f64) {
        let w = &self.windows[owner];
        let ptr = w.ptr.load(Ordering::Relaxed) as *const f64;
        let len = w.len.load(Ordering::Relaxed);
        let clock = f64::from_bits(w.clock.load(Ordering::Relaxed));
        (unsafe { std::slice::from_raw_parts(ptr, len) }, clock)
    }

    /// Advances this rank's directed epoch towards `peer`, returning the new
    /// value. Release: makes the preceding publish visible to the peer's
    /// matching [`pair_wait`](ShmShared::pair_wait).
    pub(crate) fn pair_advance(&self, me: usize, peer: usize) -> u64 {
        let c = &self.pair_seq[me * self.p + peer];
        let v = c.load(Ordering::Relaxed) + 1;
        c.store(v, Ordering::Release);
        v
    }

    /// Waits until `peer`'s directed epoch towards `me` reaches `target`.
    pub(crate) fn pair_wait(&self, peer: usize, me: usize, target: u64) {
        let c = &self.pair_seq[peer * self.p + me];
        wait_until(self.spin_limit, || c.load(Ordering::Acquire) >= target);
    }
}

/// A member's handle on its group's barrier: the shared barrier plus this
/// member's local sense flag.
pub(crate) struct ShmGroup {
    barrier: Arc<GroupBarrier>,
    sense: std::cell::Cell<bool>,
    /// Which clock slot this member's next [`max_clock`](ShmGroup::max_clock)
    /// uses; flips per call, in step across members by SPMD discipline.
    clock_slot: std::cell::Cell<usize>,
}

impl ShmGroup {
    pub(crate) fn new(barrier: Arc<GroupBarrier>) -> ShmGroup {
        ShmGroup {
            barrier,
            sense: std::cell::Cell::new(false),
            clock_slot: std::cell::Cell::new(0),
        }
    }

    /// One barrier crossing for this member.
    pub(crate) fn wait(&self) {
        self.wait_then(|| ());
    }

    fn wait_then(&self, on_last: impl FnOnce()) {
        let mut s = self.sense.get();
        self.barrier.wait(&mut s, on_last);
        self.sense.set(s);
    }

    /// The maximum of every member's `clock`, at the cost of one crossing:
    /// each member folds its clock into this call's slot, all cross, each
    /// reads the slot. Non-negative floats order like their bit patterns, so
    /// the fold is an integer `fetch_max`. The last arriver zeroes the
    /// *other* slot for the call after this one — nobody can still be
    /// reading it (its readers all had to leave the previous call to arrive
    /// here) and nobody can be folding into it yet (that is past this
    /// crossing).
    pub(crate) fn max_clock(&self, clock: f64) -> f64 {
        let bits = clock.to_bits();
        assert!(
            bits <= f64::INFINITY.to_bits(),
            "virtual clocks are non-negative and never NaN (got {clock})"
        );
        let slot = self.clock_slot.get();
        self.clock_slot.set(slot ^ 1);
        let slots = &self.barrier.clock_bits;
        slots[slot].fetch_max(bits, Ordering::Relaxed);
        self.wait_then(|| slots[slot ^ 1].store(0, Ordering::Relaxed));
        f64::from_bits(slots[slot].load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for ShmGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmGroup").field("size", &self.barrier.size).finish()
    }
}

/// Best-effort pinning of the current thread to `core`, which
/// [`pinned_core`] chose below [`cores`]. Failures (restricted cpusets,
/// non-Linux hosts) are ignored — pinning is a performance hint, not a
/// correctness requirement.
#[cfg(target_os = "linux")]
pub(crate) fn pin_to_core(core: usize) {
    const SET_WORDS: usize = 16; // 1024-bit cpu_set_t
    let mut mask = [0u64; SET_WORDS];
    mask[(core / 64) % SET_WORDS] |= 1u64 << (core % 64);
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // pid 0 = the calling thread.
    let _ = unsafe { sched_setaffinity(0, SET_WORDS * 8, mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn pin_to_core(_core: usize) {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both wait rules: the plain spin and the oversubscribed immediate yield.
    const BUDGETS: [u32; 2] = [SPIN_LIMIT, 0];

    #[test]
    fn placement_is_identity_until_oversubscribed_then_contiguous_blocks() {
        for cores in [1, 2, 8] {
            for p in 1..=cores {
                let map: Vec<usize> = (0..p).map(|i| pinned_core(i, p, cores)).collect();
                assert_eq!(map, (0..p).collect::<Vec<_>>(), "p = {p}, cores = {cores}");
            }
        }
        let map: Vec<usize> = (0..8).map(|i| pinned_core(i, 8, 2)).collect();
        assert_eq!(map, [0, 0, 0, 0, 1, 1, 1, 1]);
        let map: Vec<usize> = (0..64).map(|i| pinned_core(i, 64, 2)).collect();
        assert!(map.iter().enumerate().all(|(i, &core)| core == i / 32), "{map:?}");
        assert!((0..3).all(|i| pinned_core(i, 3, 1) == 0));
    }

    #[test]
    fn spin_budget_drops_to_zero_when_oversubscribed() {
        for cores in [1, 2, 8] {
            for p in 1..=cores {
                assert_eq!(spin_budget(p, cores), SPIN_LIMIT, "p = {p}, cores = {cores}");
            }
            assert_eq!(spin_budget(cores + 1, cores), 0);
            assert_eq!(spin_budget(8 * cores, cores), 0);
        }
    }

    #[test]
    fn group_barrier_synchronizes() {
        for spin_limit in BUDGETS {
            group_barrier_synchronizes_with(spin_limit);
        }
    }

    fn group_barrier_synchronizes_with(spin_limit: u32) {
        let barrier = Arc::new(GroupBarrier::new(4, spin_limit));
        let hits = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let barrier = Arc::clone(&barrier);
                let hits = Arc::clone(&hits);
                scope.spawn(move || {
                    let mut sense = false;
                    for round in 1..=50usize {
                        hits.fetch_add(1, Ordering::Relaxed);
                        barrier.wait(&mut sense, || ());
                        // After the wait, all 4 arrivals of this round (and
                        // every earlier round) must be visible.
                        assert!(hits.load(Ordering::Relaxed) >= 4 * round);
                        barrier.wait(&mut sense, || ());
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn max_clock_lifts_every_member_to_the_group_maximum() {
        for spin_limit in BUDGETS {
            max_clock_lifts_with(spin_limit);
        }
    }

    fn max_clock_lifts_with(spin_limit: u32) {
        let barrier = Arc::new(GroupBarrier::new(4, spin_limit));
        std::thread::scope(|scope| {
            for me in 0..4usize {
                let group = ShmGroup::new(Arc::clone(&barrier));
                scope.spawn(move || {
                    for round in 0..200usize {
                        // A different member leads each round, and the values
                        // *fall* from round to round (real clocks never do):
                        // a slot that was not cleared would win the maximum
                        // with a value from two rounds earlier.
                        let base = (199 - round) * 4;
                        let lifted = group.max_clock((base + (me + round) % 4) as f64 * 0.5);
                        assert_eq!(lifted, (base + 3) as f64 * 0.5, "round {round}, member {me}");
                        // Ordinary crossings interleave with clock lifts.
                        group.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn pair_epochs_handshake() {
        for spin_limit in BUDGETS {
            pair_epochs_handshake_with(spin_limit);
        }
    }

    fn pair_epochs_handshake_with(spin_limit: u32) {
        let shm = Arc::new(ShmShared::new(2, spin_limit));
        std::thread::scope(|scope| {
            for me in 0..2usize {
                let shm = Arc::clone(&shm);
                scope.spawn(move || {
                    let peer = 1 - me;
                    let data = [me as f64; 8];
                    for round in 0..100u64 {
                        shm.publish(me, &data, round as f64);
                        let s = shm.pair_advance(me, peer);
                        assert_eq!(s, 2 * round + 1);
                        shm.pair_wait(peer, me, s);
                        let (slice, clock) = unsafe { shm.peer_slice(peer) };
                        assert_eq!(slice[0], peer as f64);
                        assert_eq!(clock, round as f64);
                        let s = shm.pair_advance(me, peer);
                        shm.pair_wait(peer, me, s);
                    }
                });
            }
        });
    }
}
