//! A deterministic SPMD runtime with α-β-γ cost accounting — one transport,
//! two rank placements.
//!
//! The paper evaluates CA-CQR2 with MPI on Stampede2 and Blue Waters. This
//! crate substitutes a distributed machine whose ranks are OS threads that
//! communicate through preallocated shared windows: the collectives run *in
//! place* over shared slices between sense-reversing barriers, drawing
//! scratch from pooled arenas ([`run_spmd_pooled`]) so the warm path
//! performs zero heap allocations. Two placements run that one transport,
//! selected per run via [`SimConfig::on_runtime`], and differ only in
//! pinning:
//!
//! * **Simulated** ([`RuntimeKind::Simulated`], the default): rank threads
//!   are left to the OS scheduler, and the point of a run is its *virtual*
//!   clock — predict scaling on any machine you can parameterize.
//! * **Shared-memory** ([`RuntimeKind::SharedMem`]): the same ranks, pinned
//!   to cores ([`pinned_core`]: one rank per core, or contiguous blocks of
//!   ranks per core when they outnumber the cores).
//!   [`SimReport::wall_seconds`] is then a real measurement, and
//!   [`probe_shm_alpha_beta`] calibrates the machine model's α and β from
//!   live transport microprobes.
//!
//! Results, ledgers, and virtual clocks are bitwise identical across the two.
//!
//! In either mode:
//!
//! * [`run_spmd`] launches `P` ranks as OS threads (a lone rank runs inline
//!   on the caller's). Each rank owns only its local data — the algorithms
//!   built on top are genuinely distributed (no shared matrices).
//! * Every send charges `α + n·β` to the sender's **virtual clock** and the
//!   receive synchronizes the receiver's clock to the message's arrival time
//!   (LogP-style timestamp piggybacking). Local compute charges `n_flops·γ`.
//!   The simulated elapsed time of a run is the maximum clock over ranks —
//!   a faithful critical-path measurement under the α-β-γ model of §II-A.
//! * [`collectives`] implements Bcast, Reduce, Allreduce, Allgather and
//!   pairwise exchange with the exact butterfly schedules the paper's cost
//!   table assumes (§II-B): broadcast is binomial-scatter + recursive-doubling
//!   allgather (`2·log₂P·α + 2nβ`), allreduce is recursive-halving
//!   reduce-scatter + allgather (`2·log₂P·α + 2nβ`), allgather is recursive
//!   doubling (`log₂P·α + nβ`).
//! * [`CostLedger`] tracks messages, words, flops, and virtual time per rank;
//!   the `costmodel` crate reproduces these counts in closed form and the
//!   test suite asserts **exact** agreement.
//!
//! Determinism: collective schedules and reduction orders are fixed, so both
//! numerical results and virtual clocks are bitwise reproducible for a given
//! rank count.

pub mod collectives;
pub mod comm;
pub mod cost;
pub mod machine;
pub mod probe;
mod round;
pub mod runtime;
mod shm;

pub use comm::Comm;
pub use cost::CostLedger;
pub use machine::Machine;
pub use probe::{probe_shm_alpha_beta, probe_shm_alpha_beta_with, ShmProbe};
pub use runtime::{run_spmd, run_spmd_pooled, Rank, RuntimeKind, SimConfig, SimReport};
pub use shm::{cores, pinned_core};
