//! The SPMD runtime: rank spawning, point-to-point messaging, virtual clocks.

use crate::cost::CostLedger;
use crate::machine::Machine;
use crate::mailbox::{Envelope, Mailbox};
use crate::shm::ShmShared;
use dense::{Workspace, WorkspacePool};
use std::sync::Arc;

/// Which execution backend [`run_spmd`] uses.
///
/// Both backends run ranks as scoped OS threads executing the same SPMD
/// closure with the same collective schedules, so numerical results,
/// ledgers, and virtual clocks are bitwise identical across them; what
/// differs is the transport underneath and what *wall-clock* time means:
///
/// * [`Simulated`](RuntimeKind::Simulated) moves messages through tagged
///   mailboxes (a heap envelope per send). Wall time is meaningless; the
///   virtual α-β-γ clock is the measurement.
/// * [`SharedMem`](RuntimeKind::SharedMem) pins ranks to cores and runs the
///   collectives in place over published shared slices bracketed by
///   sense-reversing barriers — zero heap traffic and zero copies beyond
///   the block moves the butterfly schedules require. Wall time is a real
///   measurement of the communication-avoidance claim; the virtual clock is
///   still maintained (same charges), so simulated accounting stays
///   available for free.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RuntimeKind {
    /// Virtual-time simulation over mailbox message passing.
    Simulated,
    /// Measured shared-memory execution over in-place collectives.
    SharedMem,
}

impl RuntimeKind {
    /// The process-wide default backend: `CACQR_RUNTIME=shm` (or `shared`)
    /// selects the shared-memory runtime, `sim` or unset the simulator, and
    /// any other value panics naming it — a typo must not silently run the
    /// suite on the default. Read once and cached — the CI matrix uses this
    /// to flip an entire test suite onto the shm backend without touching
    /// call sites.
    pub fn from_env() -> RuntimeKind {
        static KIND: std::sync::OnceLock<RuntimeKind> = std::sync::OnceLock::new();
        *KIND.get_or_init(|| {
            RuntimeKind::from_var(std::env::var("CACQR_RUNTIME").ok().as_deref())
                .unwrap_or_else(|e| panic!("CACQR_RUNTIME: {e}"))
        })
    }

    /// What a `CACQR_RUNTIME` value selects; unset is the simulator.
    fn from_var(value: Option<&str>) -> Result<RuntimeKind, String> {
        value.map_or(Ok(RuntimeKind::Simulated), str::parse)
    }

    /// Short stable name (`"sim"` / `"shm"`), e.g. for bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            RuntimeKind::Simulated => "sim",
            RuntimeKind::SharedMem => "shm",
        }
    }
}

impl std::str::FromStr for RuntimeKind {
    type Err = String;

    fn from_str(s: &str) -> Result<RuntimeKind, String> {
        match s {
            "sim" | "simulated" => Ok(RuntimeKind::Simulated),
            "shm" | "shared" | "shared-mem" => Ok(RuntimeKind::SharedMem),
            other => Err(format!("unknown runtime {other:?} (expected sim|shm)")),
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
    /// The α-β-γ parameters charged to the virtual clocks.
    pub machine: Machine,
    /// When true (default), every collective synchronizes its members'
    /// virtual clocks on entry — the BSP-style accounting the paper's
    /// per-line cost tables assume, and what the `costmodel` crate predicts
    /// exactly. When false, clocks only synchronize through actual message
    /// dependencies (the honest asynchronous critical path, which can be
    /// *cheaper* because point-to-point costs hide in collective slack).
    pub sync_collectives: bool,
    /// The execution backend (defaults to [`RuntimeKind::from_env`]).
    pub runtime: RuntimeKind,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            machine: Machine::zero(),
            sync_collectives: true,
            runtime: RuntimeKind::from_env(),
        }
    }
}

impl SimConfig {
    /// Config with a machine model and the default synchronous accounting.
    pub fn with_machine(machine: Machine) -> SimConfig {
        SimConfig {
            machine,
            ..SimConfig::default()
        }
    }

    /// Fully asynchronous critical-path accounting.
    pub fn asynchronous(machine: Machine) -> SimConfig {
        SimConfig {
            machine,
            sync_collectives: false,
            runtime: RuntimeKind::from_env(),
        }
    }

    /// Same config on an explicitly chosen backend.
    pub fn on_runtime(mut self, runtime: RuntimeKind) -> SimConfig {
        self.runtime = runtime;
        self
    }
}

/// Shared registry implementing the virtual-time entry barrier of
/// synchronous collectives on the mailbox transport: all members deposit
/// their clocks, everyone leaves with the maximum. Zero cost is charged —
/// this is an accounting device, not a communication operation. (The shm
/// transport takes the same maximum through the communicator's own barrier;
/// `round.rs` holds the split.)
#[derive(Default)]
pub struct BarrierTable {
    inner: std::sync::Mutex<std::collections::HashMap<(u64, usize), BarrierEntry>>,
    cv: std::sync::Condvar,
}

#[derive(Default)]
struct BarrierEntry {
    arrived: usize,
    departed: usize,
    max_clock: f64,
    complete: bool,
}

impl BarrierTable {
    fn sync(&self, key: (u64, usize), size: usize, clock: f64) -> f64 {
        let mut g = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        {
            let e = g.entry(key).or_default();
            e.arrived += 1;
            e.max_clock = e.max_clock.max(clock);
            if e.arrived == size {
                e.complete = true;
                self.cv.notify_all();
            }
        }
        while !g.get(&key).map(|e| e.complete).unwrap_or(false) {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
        let e = g.get_mut(&key).expect("barrier entry must exist until all depart");
        let result = e.max_clock;
        e.departed += 1;
        if e.departed == size {
            g.remove(&key);
        }
        result
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
    /// the simulator it is dominated by mailbox traffic.
    pub wall_seconds: f64,
}

/// One simulated process. Owns its mailbox handle, virtual clock, and ledger.
///
/// All communication goes through [`crate::Comm`] (created from
/// [`Rank::world`] and [`crate::Comm::subset`]); the raw `send`/`recv` here
/// are the transport those collectives are built on.
pub struct Rank {
    id: usize,
    p: usize,
    boxes: Arc<Vec<Arc<Mailbox>>>,
    barriers: Arc<BarrierTable>,
    machine: Machine,
    sync_collectives: bool,
    clock: f64,
    ledger: CostLedger,
    next_comm_id: u32,
    /// Shared-memory transport state; `None` on the simulated backend.
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

    /// Sends `data` to global rank `dst` with tag `tag`.
    ///
    /// Charges `α + len·β` to this rank's clock; the envelope carries the
    /// post-transfer timestamp so the receiver can synchronize.
    pub fn send(&mut self, dst: usize, tag: u64, data: &[f64]) {
        debug_assert!(dst < self.p);
        debug_assert_ne!(dst, self.id, "self-sends must be short-circuited by the caller");
        self.charge_send(data.len());
        self.boxes[dst].post(
            self.id,
            tag,
            Envelope {
                data: data.to_vec(),
                depart: self.clock,
            },
        );
    }

    /// Receives the message from global rank `src` with tag `tag`, blocking
    /// until it arrives. Synchronizes the virtual clock to the arrival time.
    pub fn recv(&mut self, src: usize, tag: u64) -> Vec<f64> {
        debug_assert!(src < self.p);
        let env = self.boxes[self.id].take(src, tag);
        self.charge_recv(env.data.len(), env.depart);
        env.data
    }

    /// A communicator spanning all ranks.
    pub fn world(&mut self) -> crate::Comm {
        let members = (0..self.p).collect();
        crate::Comm::from_members(self, members)
    }

    /// Allocates the next communicator id. Communicator creation is a
    /// collective operation in program order, so ids agree across ranks.
    pub(crate) fn alloc_comm_id(&mut self) -> u32 {
        let id = self.next_comm_id;
        self.next_comm_id += 1;
        id
    }

    /// Whether collectives synchronize their members' clocks on entry
    /// ([`SimConfig::sync_collectives`]).
    #[inline]
    pub(crate) fn syncs_collectives(&self) -> bool {
        self.sync_collectives
    }

    /// The mailbox transport's entry barrier: deposits this rank's clock in
    /// the run's table and returns the maximum over the `size` members that
    /// meet there. `key` must be unique per operation and identical across
    /// members (a communicator tag plus the lowest member id).
    pub(crate) fn table_max_clock(&self, key: (u64, usize), size: usize) -> f64 {
        self.barriers.sync(key, size, self.clock)
    }

    /// Sets the virtual clock to the group maximum an entry barrier found.
    pub(crate) fn set_clock(&mut self, lifted: f64) {
        debug_assert!(lifted >= self.clock, "an entry barrier never turns a clock back");
        self.clock = lifted;
    }

    /// Whether this rank runs on the shared-memory backend.
    #[inline]
    pub(crate) fn is_shm(&self) -> bool {
        self.shm.is_some()
    }

    /// The shared-memory transport state (shm backend only).
    #[inline]
    pub(crate) fn shm(&self) -> &ShmShared {
        self.shm
            .as_ref()
            .expect("shared-memory transport state on the shm backend")
    }

    /// The α-β charge of one outgoing message, on either transport:
    /// advances the clock by `α + n·β` and counts the message.
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
/// loud. The closure receives a mutable [`Rank`] handle; everything else it
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
    // Single simulated rank: run inline on the calling thread. A lone rank
    // never communicates cross-thread, so the mailboxes/barrier/scope
    // machinery only adds a thread spawn-and-join (~tens of µs) to what is
    // often a microsecond-scale panel factorization — the dominant cost for
    // small-panel serving workloads. Results are identical to the spawned
    // path: same Rank construction, same closure, same ledger. The shm
    // runtime keeps the spawned path even at p = 1 because it pins ranks to
    // cores, and pinning the *caller's* thread would outlive the run.
    if p == 1 && matches!(cfg.runtime, RuntimeKind::Simulated) {
        let start = std::time::Instant::now();
        let comm_ws = match pool {
            Some(pool) => pool.take_at(1),
            None => Workspace::new(),
        };
        let mut rank = Rank {
            id: 0,
            p: 1,
            boxes: Arc::new(vec![Arc::new(Mailbox::new())]),
            barriers: Arc::new(BarrierTable::default()),
            machine: cfg.machine,
            sync_collectives: cfg.sync_collectives,
            clock: 0.0,
            ledger: CostLedger::default(),
            next_comm_id: 0,
            shm: None,
            comm_ws,
        };
        let out = {
            // Mark the SPMD region so error-kind faultpoints stay quiet on
            // the (caller's) rank thread; see `dense::fault`.
            let _spmd = dense::fault::spmd_scope();
            f(&mut rank)
        };
        if let Some(pool) = pool {
            pool.put_at(1, rank.comm_ws);
        }
        return SimReport {
            results: vec![out],
            ledgers: vec![rank.ledger],
            elapsed: rank.clock,
            wall_seconds: start.elapsed().as_secs_f64(),
        };
    }
    let boxes: Arc<Vec<Arc<Mailbox>>> = Arc::new((0..p).map(|_| Arc::new(Mailbox::new())).collect());
    let barriers = Arc::new(BarrierTable::default());
    let shm: Option<Arc<ShmShared>> = match cfg.runtime {
        RuntimeKind::Simulated => None,
        RuntimeKind::SharedMem => Some(Arc::new(ShmShared::new(p))),
    };
    let mut slots: Vec<Option<(T, CostLedger, f64)>> = (0..p).map(|_| None).collect();

    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for (id, slot) in slots.iter_mut().enumerate() {
            let boxes = Arc::clone(&boxes);
            let barriers = Arc::clone(&barriers);
            let shm = shm.clone();
            let fref = &f;
            let machine = cfg.machine;
            let sync_collectives = cfg.sync_collectives;
            handles.push(scope.spawn(move || {
                if shm.is_some() {
                    crate::shm::pin_to_core(id);
                }
                let comm_ws = match pool {
                    Some(pool) => pool.take_at(p + id),
                    None => Workspace::new(),
                };
                let mut rank = Rank {
                    id,
                    p,
                    boxes,
                    barriers,
                    machine,
                    sync_collectives,
                    clock: 0.0,
                    ledger: CostLedger::default(),
                    next_comm_id: 0,
                    shm,
                    comm_ws,
                };
                let out = {
                    let _spmd = dense::fault::spmd_scope();
                    fref(&mut rank)
                };
                if let Some(pool) = pool {
                    pool.put_at(p + id, rank.comm_ws);
                }
                *slot = Some((out, rank.ledger, rank.clock));
            }));
        }
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    let wall_seconds = start.elapsed().as_secs_f64();

    let mut results = Vec::with_capacity(p);
    let mut ledgers = Vec::with_capacity(p);
    let mut elapsed = 0.0f64;
    for slot in slots {
        let (out, ledger, clock) = slot.expect("rank did not complete");
        results.push(out);
        ledgers.push(ledger);
        elapsed = elapsed.max(clock);
    }
    SimReport {
        results,
        ledgers,
        elapsed,
        wall_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_variable_fails_closed() {
        assert_eq!(RuntimeKind::from_var(None), Ok(RuntimeKind::Simulated));
        assert_eq!(RuntimeKind::from_var(Some("sim")), Ok(RuntimeKind::Simulated));
        assert_eq!(RuntimeKind::from_var(Some("shm")), Ok(RuntimeKind::SharedMem));
        assert_eq!(RuntimeKind::from_var(Some("shared-mem")), Ok(RuntimeKind::SharedMem));
        let err = RuntimeKind::from_var(Some("shn")).unwrap_err();
        assert!(err.contains("\"shn\""), "{err}");
    }

    #[test]
    fn single_rank_computes() {
        let report = run_spmd(1, SimConfig::default(), |rank| rank.id() * 10);
        assert_eq!(report.results, vec![0]);
        assert_eq!(report.elapsed, 0.0);
    }

    #[test]
    fn ring_pass_moves_data_and_time() {
        // Rank i sends i as f64 to rank (i+1) % p; elapsed = α + β per hop.
        let machine = Machine {
            alpha: 1.0,
            beta: 0.5,
            gamma: 0.0,
        };
        let p = 4;
        let report = run_spmd(p, SimConfig::with_machine(machine), |rank| {
            let me = rank.id();
            let next = (me + 1) % p;
            let prev = (me + p - 1) % p;
            rank.send(next, 0, &[me as f64]);
            let got = rank.recv(prev, 0);
            got[0]
        });
        assert_eq!(report.results, vec![3.0, 0.0, 1.0, 2.0]);
        // Each rank: one send of 1 word = α + β = 1.5; receive syncs to the
        // sender's identical departure time.
        assert_eq!(report.elapsed, 1.5);
        for l in &report.ledgers {
            assert_eq!(l.msgs_sent, 1);
            assert_eq!(l.words_sent, 1);
            assert_eq!(l.msgs_recv, 1);
        }
    }

    #[test]
    fn clock_chains_through_relays() {
        // 0 -> 1 -> 2 relay: rank 2's clock must reflect both hops (2α),
        // even though rank 2 itself sent nothing.
        let machine = Machine {
            alpha: 1.0,
            beta: 0.0,
            gamma: 0.0,
        };
        let report = run_spmd(3, SimConfig::with_machine(machine), |rank| match rank.id() {
            0 => {
                rank.send(1, 0, &[7.0]);
                rank.clock()
            }
            1 => {
                let v = rank.recv(0, 0);
                rank.send(2, 0, &v);
                rank.clock()
            }
            _ => {
                let v = rank.recv(1, 0);
                assert_eq!(v, vec![7.0]);
                rank.clock()
            }
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

    #[test]
    fn out_of_order_tags_match_correctly() {
        let report = run_spmd(2, SimConfig::default(), |rank| {
            if rank.id() == 0 {
                rank.send(1, 5, &[5.0]);
                rank.send(1, 6, &[6.0]);
                0.0
            } else {
                // Receive in reverse tag order.
                let six = rank.recv(0, 6);
                let five = rank.recv(0, 5);
                six[0] * 10.0 + five[0]
            }
        });
        assert_eq!(report.results[1], 65.0);
    }
}
