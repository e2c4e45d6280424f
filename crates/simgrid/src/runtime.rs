//! The SPMD runtime: rank spawning, virtual clocks, and the per-region
//! shared windows every multi-rank region communicates through.

use crate::cost::CostLedger;
use crate::machine::Machine;
use crate::shm::ShmShared;
use dense::fault::FaultHandle;
use dense::{Workspace, WorkspacePool};
use std::sync::Arc;

/// Where [`run_spmd`] places its rank threads: unpinned or pinned.
///
/// Both placements run ranks as scoped OS threads executing the same SPMD
/// closure over the same transport: the collectives run in place over
/// published shared slices bracketed by sense-reversing barriers, with zero
/// heap traffic and no copies beyond the block moves the butterfly
/// schedules require. Numerical results, ledgers, and virtual clocks are
/// therefore bitwise identical across them. They differ only in pinning,
/// and so in what *wall-clock* time means:
///
/// * [`Simulated`](RuntimeKind::Simulated), the default, leaves rank
///   threads unpinned, to the OS scheduler. Wall time is incidental; the
///   virtual α-β-γ clock is the measurement.
/// * [`SharedMem`](RuntimeKind::SharedMem) pins rank `i` of `p` to core
///   `i` while `p` ≤ the process's core count, and to core `⌊i·cores/p⌋`
///   beyond it ([`pinned_core`](crate::pinned_core)), so each replicated
///   grid slice shares one core. Wall time is a real measurement of the
///   communication-avoidance claim; the virtual clock is still maintained
///   (same charges), so simulated accounting stays available for free.
///
/// On either placement a rank waiting at a crossing spins briefly before
/// yielding its core, or yields at once when the region has more ranks
/// than the process has cores. A one-rank region has no peer to talk to and
/// runs inline on the calling thread under either placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RuntimeKind {
    /// Unpinned rank threads; the virtual clock is the measurement.
    Simulated,
    /// Rank threads pinned to cores; wall time is a measurement too.
    SharedMem,
}

impl RuntimeKind {
    /// Short stable name (`"sim"` / `"shm"`), e.g. for bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            RuntimeKind::Simulated => "sim",
            RuntimeKind::SharedMem => "shm",
        }
    }
}

impl std::fmt::Display for RuntimeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration of an SPMD run.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// The α-β-γ parameters charged to the virtual clocks. Every collective
    /// synchronizes its members' virtual clocks on entry — the BSP-style
    /// accounting the paper's per-line cost tables assume, and what the
    /// `costmodel` crate predicts exactly.
    pub machine: Machine,
    /// The rank placement (default [`RuntimeKind::Simulated`]).
    pub runtime: RuntimeKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            machine: Machine::zero(),
            runtime: RuntimeKind::Simulated,
        }
    }
}

impl SimConfig {
    /// Config with a machine model and the default rank placement.
    pub fn with_machine(machine: Machine) -> SimConfig {
        SimConfig {
            machine,
            ..SimConfig::default()
        }
    }

    /// Same config with an explicitly chosen rank placement.
    pub fn on_runtime(mut self, runtime: RuntimeKind) -> SimConfig {
        self.runtime = runtime;
        self
    }
}

/// Outcome of an SPMD run: one result and one ledger per rank, plus the
/// simulated elapsed time (maximum virtual clock) and the measured wall
/// time of the whole region.
#[derive(Debug)]
pub struct SimReport<T> {
    /// Per-rank return values of the SPMD closure, indexed by rank.
    pub results: Vec<T>,
    /// Per-rank cost ledgers, indexed by rank.
    pub ledgers: Vec<CostLedger>,
    /// Simulated elapsed time: `max` over ranks of the final virtual clock.
    pub elapsed: f64,
    /// Measured wall-clock seconds of the SPMD region (spawn to join). Only
    /// meaningful as a performance number on the shared-memory backend; on
    /// the simulator the unpinned rank threads share cores as the OS
    /// scheduler sees fit.
    pub wall_seconds: f64,
}

/// One simulated process. Owns its virtual clock, its ledger, and a handle
/// on the region's shared windows.
///
/// All communication goes through [`crate::Comm`] (created from
/// [`Rank::world`] and [`crate::Comm::subset`]).
pub struct Rank {
    id: usize,
    p: usize,
    machine: Machine,
    clock: f64,
    ledger: CostLedger,
    next_comm_id: u32,
    /// The region's shared windows; `None` in a one-rank region, which has
    /// no peer to publish to.
    shm: Option<Arc<ShmShared>>,
    /// This rank's communication arena: every collective's scratch (padding
    /// buffers, staging, allgather/sendrecv outputs) is served from here, so
    /// the communication layer reaches the same zero-allocation steady
    /// state as the compute layer. Seeded from the caller's pool by
    /// [`run_spmd_pooled`] so warmth survives across runs.
    comm_ws: Workspace,
}

impl Rank {
    /// This rank's id in `[0, P)`.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Total number of ranks.
    #[inline]
    pub fn world_size(&self) -> usize {
        self.p
    }

    /// The machine model in effect.
    #[inline]
    pub fn machine(&self) -> Machine {
        self.machine
    }

    /// Current virtual time.
    #[inline]
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Snapshot of the cost ledger.
    #[inline]
    pub fn ledger(&self) -> CostLedger {
        self.ledger
    }

    /// Charges `flops` floating-point operations to the ledger and advances
    /// the clock by `flops · γ`.
    pub fn charge_flops(&mut self, flops: f64) {
        debug_assert!(flops >= 0.0);
        self.ledger.flops += flops;
        self.clock += flops * self.machine.gamma;
    }

    /// A communicator spanning all ranks.
    pub fn world(&mut self) -> crate::Comm {
        let members = (0..self.p).collect();
        crate::Comm::subset(self, members)
    }

    /// Allocates the next communicator id. Communicator creation is a
    /// collective operation in program order, so ids agree across ranks.
    pub(crate) fn alloc_comm_id(&mut self) -> u32 {
        let id = self.next_comm_id;
        self.next_comm_id += 1;
        id
    }

    /// Sets the virtual clock to the group maximum an entry barrier found.
    pub(crate) fn set_clock(&mut self, lifted: f64) {
        debug_assert!(lifted >= self.clock, "an entry barrier never turns a clock back");
        self.clock = lifted;
    }

    /// The region's shared windows (multi-rank regions only: a lone rank
    /// never reaches a round or a barrier).
    #[inline]
    pub(crate) fn shm(&self) -> &ShmShared {
        self.shm.as_ref().expect("shared windows in a multi-rank region")
    }

    /// The α-β charge of one outgoing message: advances the clock by
    /// `α + n·β` and counts the message.
    pub(crate) fn charge_send(&mut self, n: usize) {
        self.clock += self.machine.alpha + n as f64 * self.machine.beta;
        self.ledger.msgs_sent += 1;
        self.ledger.words_sent += n as u64;
    }

    /// The receive side of [`charge_send`](Rank::charge_send): synchronizes
    /// the clock to the sender's departure time and counts the message.
    pub(crate) fn charge_recv(&mut self, n: usize, depart: f64) {
        self.clock = self.clock.max(depart);
        self.ledger.msgs_recv += 1;
        self.ledger.words_recv += n as u64;
    }

    /// Takes a buffer of exactly `len` words (unspecified contents) from the
    /// communication arena. Pair with [`recycle_comm`](Rank::recycle_comm)
    /// to keep caller-side message buffers allocation-free too.
    pub fn comm_take(&mut self, len: usize) -> Vec<f64> {
        self.comm_ws.take_vec(len)
    }

    /// Takes an all-zero buffer of `len` words from the communication arena.
    pub(crate) fn comm_take_zeroed(&mut self, len: usize) -> Vec<f64> {
        self.comm_ws.take_zeroed(len)
    }

    /// Returns a buffer that a collective handed out (an
    /// [`allgather`](crate::Comm::allgather) or
    /// [`sendrecv`](crate::Comm::sendrecv) result) to the communication
    /// arena. Callers that let such buffers drop instead merely lose reuse,
    /// not correctness — but recycling is what keeps the steady-state
    /// communication path allocation-free.
    pub fn recycle_comm(&mut self, buf: Vec<f64>) {
        self.comm_ws.recycle_vec(buf);
    }
}

/// Runs `f` as an SPMD program on `p` simulated ranks and collects results.
///
/// Panics in any rank propagate (the run aborts), which keeps test failures
/// loud. Every rank thread runs armed with the caller's fault schedule
/// ([`FaultHandle::current`]), with error-kind sites quiet inside the
/// region. The closure receives a mutable [`Rank`] handle; everything else it
/// captures must be `Sync` (shared read-only input) — per-rank mutable state
/// lives inside the closure.
///
/// # Examples
///
/// Sum rank ids with an allreduce and measure the α-β-γ critical path:
///
/// ```
/// use simgrid::{run_spmd, Machine, SimConfig};
///
/// let report = run_spmd(8, SimConfig::with_machine(Machine::alpha_only()), |rank| {
///     let world = rank.world();
///     let mut buf = vec![rank.id() as f64; 8];
///     world.allreduce(rank, &mut buf);
///     buf[0]
/// });
/// assert!(report.results.iter().all(|&v| v == 28.0)); // 0+1+…+7
/// assert_eq!(report.elapsed, 6.0); // 2·log₂(8) rounds of latency
/// ```
pub fn run_spmd<T, F>(p: usize, cfg: SimConfig, f: F) -> SimReport<T>
where
    T: Send,
    F: Fn(&mut Rank) -> T + Sync,
{
    run_spmd_inner(p, cfg, None, f)
}

/// Like [`run_spmd`], but each rank's *communication arena* is taken from
/// (and parked back into) `pool` at slot `p + rank_id` — disjoint from the
/// `0..p` slots the algorithm arenas conventionally use. Repeated runs
/// through one pool therefore reuse warm collective scratch: the second and
/// every later run performs zero heap allocations in the communication
/// layer.
pub fn run_spmd_pooled<T, F>(p: usize, cfg: SimConfig, pool: &WorkspacePool, f: F) -> SimReport<T>
where
    T: Send,
    F: Fn(&mut Rank) -> T + Sync,
{
    run_spmd_inner(p, cfg, Some(pool), f)
}

fn run_spmd_inner<T, F>(p: usize, cfg: SimConfig, pool: Option<&WorkspacePool>, f: F) -> SimReport<T>
where
    T: Send,
    F: Fn(&mut Rank) -> T + Sync,
{
    assert!(p > 0, "need at least one rank");
    let start = std::time::Instant::now();
    let mut report = SimReport {
        results: Vec::with_capacity(p),
        ledgers: Vec::with_capacity(p),
        elapsed: 0.0,
        wall_seconds: 0.0,
    };
    let mut absorb = |(out, ledger, clock): (T, CostLedger, f64)| {
        report.results.push(out);
        report.ledgers.push(ledger);
        report.elapsed = report.elapsed.max(clock);
    };
    // A lone rank has no peer and no barrier: it runs inline on the calling
    // thread, unpinned, with no shared windows. A spawn-and-join would cost
    // tens of µs against what is often a microsecond-scale panel
    // factorization, and pinning (on the shm backend) would put every
    // concurrent one-rank region, and the kernel threads it spawns, on core 0.
    if p == 1 {
        absorb(run_rank(0, 1, cfg, None, pool, &f));
    } else {
        // Whether the region outnumbers the cores decides both how its
        // ranks wait and where `SharedMem` pins them (see `shm`).
        let cores = crate::shm::cores();
        let shm = Arc::new(ShmShared::new(p, crate::shm::spin_budget(p, cores)));
        let pin = cfg.runtime == RuntimeKind::SharedMem;
        // The caller's fault schedule, read once: every rank thread runs
        // armed with it (see `dense::fault`).
        let faults = FaultHandle::current();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..p)
                .map(|id| {
                    let shm = Arc::clone(&shm);
                    let (f, faults) = (&f, &faults);
                    scope.spawn(move || {
                        if pin {
                            crate::shm::pin_to_core(crate::shm::pinned_core(id, p, cores));
                        }
                        faults.arm(|| run_rank(id, p, cfg, Some(shm), pool, f))
                    })
                })
                .collect();
            for h in handles {
                absorb(h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)));
            }
        });
    }
    report.wall_seconds = start.elapsed().as_secs_f64();
    report
}

/// Runs rank `id`'s share of the SPMD program on the current thread and
/// returns its result, ledger and final clock. The communication arena comes
/// from (and goes back to) `pool` slot `p + id`.
fn run_rank<T>(
    id: usize,
    p: usize,
    cfg: SimConfig,
    shm: Option<Arc<ShmShared>>,
    pool: Option<&WorkspacePool>,
    f: &impl Fn(&mut Rank) -> T,
) -> (T, CostLedger, f64) {
    let mut rank = Rank {
        id,
        p,
        machine: cfg.machine,
        clock: 0.0,
        ledger: CostLedger::default(),
        next_comm_id: 0,
        shm,
        comm_ws: pool.map_or_else(Workspace::new, |pool| pool.take_at(p + id)),
    };
    let out = {
        // Mark the SPMD region so error-kind faultpoints stay quiet on the
        // rank thread; see `dense::fault`.
        let _spmd = dense::fault::spmd_scope();
        f(&mut rank)
    };
    if let Some(pool) = pool {
        pool.put_at(p + id, rank.comm_ws);
    }
    (out, rank.ledger, rank.clock)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_computes() {
        let report = run_spmd(1, SimConfig::default(), |rank| rank.id() * 10);
        assert_eq!(report.results, vec![0]);
        assert_eq!(report.elapsed, 0.0);
    }

    #[test]
    fn one_rank_runs_on_the_calling_thread() {
        for rt in [RuntimeKind::Simulated, RuntimeKind::SharedMem] {
            let caller = std::thread::current().id();
            let report = run_spmd(1, SimConfig::default().on_runtime(rt), |_| std::thread::current().id());
            assert_eq!(report.results, vec![caller], "{rt}");
        }
    }

    /// The communicator `{me, partner}` (just `{me}` if they are the same
    /// rank), created at the same program point by every rank.
    fn pair(rank: &mut Rank, partner: usize) -> crate::Comm {
        let me = rank.id();
        let mut members = vec![me.min(partner), me.max(partner)];
        members.dedup();
        crate::Comm::subset(rank, members)
    }

    #[test]
    fn ring_pass_moves_data_and_time() {
        // Rank i passes i to rank (i+1) % p: first across the pairs
        // {0,1}, {2,3}, then across {1,2}, {0,3}. Each exchange costs α + β.
        let machine = Machine {
            alpha: 1.0,
            beta: 0.5,
            gamma: 0.0,
        };
        let p = 4;
        let report = run_spmd(p, SimConfig::with_machine(machine), |rank| {
            let me = rank.id();
            let (next, prev) = ((me + 1) % p, (me + p - 1) % p);
            let mut got = 0.0;
            let mut first_hop = 0.0;
            for phase in 0..2 {
                let partner = if (me + phase) % 2 == 0 { next } else { prev };
                let comm = pair(rank, partner);
                let words = comm.sendrecv(rank, comm.my_index() ^ 1, &[me as f64]);
                if partner == prev {
                    got = words[0];
                }
                if phase == 0 {
                    first_hop = rank.clock();
                }
            }
            (got, first_hop)
        });
        let got: Vec<f64> = report.results.iter().map(|r| r.0).collect();
        assert_eq!(got, vec![3.0, 0.0, 1.0, 2.0]);
        // One exchange of 1 word = α + β = 1.5; receive syncs to the
        // sender's identical departure time. Two exchanges per rank.
        assert!(report.results.iter().all(|r| r.1 == 1.5));
        assert_eq!(report.elapsed, 3.0);
        for l in &report.ledgers {
            assert_eq!(l.msgs_sent, 2);
            assert_eq!(l.words_sent, 2);
            assert_eq!(l.msgs_recv, 2);
        }
    }

    #[test]
    fn clock_chains_through_relays() {
        // 0 -> 1 -> 2 relay over the pairs {0,1} then {1,2}: rank 2's clock
        // must reflect both hops (2α), even though rank 2 sent only once.
        let machine = Machine {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
        };
        let report = run_spmd(3, SimConfig::with_machine(machine), |rank| {
            let me = rank.id();
            let first = pair(rank, if me == 2 { 2 } else { me ^ 1 });
            let second = pair(rank, if me == 0 { 0 } else { 3 - me });
            match me {
                0 => {
                    first.sendrecv(rank, 1, &[7.0]);
                }
                1 => {
                    let v = first.sendrecv(rank, 0, &[0.0]);
                    second.sendrecv(rank, 1, &v);
                }
                _ => {
                    let v = second.sendrecv(rank, 0, &[0.0]);
                    assert_eq!(v, vec![7.0]);
                }
            }
            rank.clock()
        });
        assert_eq!(report.results, vec![1.0, 2.0, 2.0]);
        assert_eq!(report.elapsed, 2.0);
    }

    #[test]
    fn gamma_advances_clock() {
        let machine = Machine::gamma_only();
        let report = run_spmd(2, SimConfig::with_machine(machine), |rank| {
            rank.charge_flops(100.0);
            if rank.id() == 0 {
                rank.charge_flops(50.0);
            }
            rank.clock()
        });
        assert_eq!(report.results, vec![150.0, 100.0]);
        assert_eq!(report.elapsed, 150.0);
    }
}
