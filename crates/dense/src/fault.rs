//! Deterministic fault injection for chaos testing.
//!
//! A *faultpoint* is a named site in the code (`cholesky`, `collective`,
//! `dequeue`, `arena`, `worker`) that consults this module before doing its
//! real work. A schedule is armed on a thread, never on the process: the
//! check reads one `const` thread-local and takes a predicted branch when the
//! calling thread is unarmed, cheap enough to leave compiled into release
//! builds, which is the point: chaos tests exercise the exact code that
//! ships.
//!
//! # Arming
//!
//! A [`FaultPlan`] is a value: a seed, the stall delay-kind sites inject, and
//! per-site firing rates. [`with_plan`] arms the calling thread with it for
//! the duration of a closure:
//!
//! ```
//! use dense::fault::{self, FaultPlan};
//!
//! let plan = FaultPlan::new(42).site(fault::CHOLESKY, 1.0);
//! let mut a = dense::Matrix::identity(4);
//! let err = fault::with_plan(plan, || dense::potrf(a.as_mut()).unwrap_err());
//! assert_eq!(err.pivot, f64::NEG_INFINITY, "the injected breakdown's sentinel pivot");
//! assert!(dense::potrf(a.as_mut()).is_ok(), "the thread is unarmed again");
//! ```
//!
//! The schedule travels with the work it applies to as a [`FaultHandle`]:
//! `simgrid::run_spmd` reads the caller's handle once per region and arms
//! each rank thread with it, and a `QrService` job carries its submitter's
//! handle to the worker that runs it. Every thread armed with one handle
//! counts into the same [`injected`] totals; a thread nobody armed sees no
//! fault, whatever other threads are doing.
//!
//! # Determinism
//!
//! Firing is a pure function of `(seed, site, hit-index)` where the hit
//! index is a per-thread counter: the k-th time a thread reaches a given
//! site under one handle, the decision is always the same for the same seed.
//! The counters start at 0 whenever a thread consults a handle other than
//! the last one it consulted. Rank threads are spawned fresh per region, so
//! every rank of every run replays an identical schedule; a service worker
//! keeps counting across the jobs it runs under one handle, so a site it
//! reaches once per job (`dequeue`) fires at the plan's rate rather than
//! for every job or none. There is no cross-thread counter to race on.
//!
//! # Site kinds
//!
//! Sites are either *delay* sites (`collective`, `dequeue`, `arena` — they
//! stall the thread for the plan's delay, perturbing interleavings without
//! changing results) or *error* sites (`cholesky` injects a typed
//! [`CholeskyError`](crate::CholeskyError) breakdown; `worker` makes the
//! service worker panic inside its isolation boundary). Error sites are
//! suppressed inside SPMD regions (see [`spmd_scope`]): a single rank
//! erroring out of a collective would deadlock its peers, which is a bug in
//! the harness, not the code under test. Delay sites fire everywhere.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cholesky pivot site (error kind): injects a typed breakdown.
pub const CHOLESKY: &str = "cholesky";
/// Collective round site (delay kind): stalls a rank before a round of any
/// collective.
pub const COLLECTIVE: &str = "collective";
/// Service worker dequeue site (delay kind): stalls a worker between jobs.
pub const DEQUEUE: &str = "dequeue";
/// Arena checkout site (delay kind): stalls a workspace checkout.
pub const ARENA: &str = "arena";
/// Service worker execution site (error kind): panics inside the worker's
/// `catch_unwind` boundary, exercising panic isolation end to end.
pub const WORKER: &str = "worker";

const SITES: &[&str] = &[CHOLESKY, COLLECTIVE, DEQUEUE, ARENA, WORKER];
const ERROR_SITES: &[&str] = &[CHOLESKY, WORKER];

const DEFAULT_DELAY_US: u64 = 20;

/// A fault schedule: seed, injected delay, and per-site firing rates.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    delay: Duration,
    rates: [f64; SITES.len()],
}

impl FaultPlan {
    /// An empty schedule (the given seed, a 20 µs delay, all rates zero).
    /// Build it up with [`FaultPlan::site`] and [`FaultPlan::delay`].
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            delay: Duration::from_micros(DEFAULT_DELAY_US),
            rates: [0.0; SITES.len()],
        }
    }

    /// Set a site's firing rate. Panics on unknown site names or rates
    /// outside `[0, 1]` — schedules are test infrastructure and deserve
    /// loud failure.
    pub fn site(mut self, name: &str, rate: f64) -> FaultPlan {
        let idx = site_index(name).unwrap_or_else(|| panic!("unknown fault site `{name}`"));
        assert!((0.0..=1.0).contains(&rate), "fault rate {rate} outside [0, 1]");
        self.rates[idx] = rate;
        self
    }

    /// Set the stall injected by delay-kind sites.
    pub fn delay(mut self, delay: Duration) -> FaultPlan {
        self.delay = delay;
        self
    }

    fn is_empty(&self) -> bool {
        self.rates.iter().all(|&r| r == 0.0)
    }
}

fn site_index(name: &str) -> Option<usize> {
    SITES.iter().position(|&s| s == name)
}

fn is_error_site(idx: usize) -> bool {
    ERROR_SITES.contains(&SITES[idx])
}

/// A plan and the injection counters of every thread armed with it.
#[derive(Debug)]
struct Schedule {
    plan: FaultPlan,
    injected: [AtomicU64; SITES.len()],
}

/// A fault schedule as threads carry it: an armed [`FaultPlan`] and its
/// injection counters, shared by every thread armed with this handle (or a
/// clone of it), or no schedule at all. Cloning is an `Arc` clone.
///
/// [`FaultHandle::current`] reads the handle the calling thread is armed
/// with, and [`FaultHandle::arm`] arms another thread with it: that is how
/// the rank threads of an SPMD region and the service worker running a job
/// inherit the schedule of the thread that started the work.
#[derive(Clone, Debug, Default)]
pub struct FaultHandle(Option<Arc<Schedule>>);

thread_local! {
    // The handle this thread is armed with.
    static ARMED: RefCell<FaultHandle> = const { RefCell::new(FaultHandle(None)) };
    // Per-site hit counters and the handle they count for (see the module
    // docs on determinism).
    static HITS: RefCell<(FaultHandle, [u64; SITES.len()])> =
        const { RefCell::new((FaultHandle(None), [0; SITES.len()])) };
    // Whether `ARMED` holds a plan with any site armed: the one load the off
    // path makes.
    static ON: Cell<bool> = const { Cell::new(false) };
    static SPMD_DEPTH: Cell<u32> = const { Cell::new(0) };
}

impl FaultHandle {
    /// A fresh handle for `plan`, with its injection counters at zero.
    fn new(plan: FaultPlan) -> FaultHandle {
        FaultHandle(Some(Arc::new(Schedule {
            plan,
            injected: [(); SITES.len()].map(|()| AtomicU64::new(0)),
        })))
    }

    /// The handle the calling thread is armed with; the default (no
    /// schedule) on a thread nobody armed.
    pub fn current() -> FaultHandle {
        ARMED.with_borrow(FaultHandle::clone)
    }

    /// Runs `body` on the calling thread armed with this handle, then
    /// restores whatever the thread was armed with before (also when `body`
    /// panics). Arming with the default handle runs `body` unarmed.
    pub fn arm<R>(&self, body: impl FnOnce() -> R) -> R {
        struct Restore(Option<FaultHandle>, bool);
        impl Drop for Restore {
            fn drop(&mut self) {
                ARMED.set(self.0.take().expect("restored once"));
                ON.set(self.1);
            }
        }
        let on = self.0.as_ref().is_some_and(|s| !s.plan.is_empty());
        let _restore = Restore(Some(ARMED.replace(self.clone())), ON.replace(on));
        body()
    }

    fn same(&self, other: &FaultHandle) -> bool {
        match (&self.0, &other.0) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Runs `body` on the calling thread armed with a fresh handle for `plan`
/// (see [`FaultHandle::arm`]); the work `body` starts on rank threads or
/// service workers carries the same handle.
pub fn with_plan<R>(plan: FaultPlan, body: impl FnOnce() -> R) -> R {
    FaultHandle::new(plan).arm(body)
}

/// Consult the calling thread's schedule at a named site. Returns `true`
/// when the fault fires. Deterministic per `(seed, site, thread hit
/// index)`; error-kind sites never fire inside an SPMD region (see
/// [`spmd_scope`]).
#[inline]
pub fn should_fire(site: &str) -> bool {
    ON.get() && fire(site).is_some()
}

/// The armed schedule's decision at `site`: `Some(delay)` when it fires.
#[cold]
fn fire(site: &str) -> Option<Duration> {
    let idx = site_index(site)?;
    if is_error_site(idx) && SPMD_DEPTH.get() > 0 {
        return None;
    }
    ARMED.with_borrow(|handle| {
        let schedule = handle.0.as_ref()?;
        let rate = schedule.plan.rates[idx];
        if rate <= 0.0 {
            return None;
        }
        let hit = HITS.with_borrow_mut(|(owner, hits)| {
            if !owner.same(handle) {
                *owner = handle.clone();
                *hits = [0; SITES.len()];
            }
            hits[idx] += 1;
            hits[idx] - 1
        });
        if unit_draw(schedule.plan.seed, idx as u64, hit) >= rate {
            return None;
        }
        schedule.injected[idx].fetch_add(1, Ordering::Relaxed);
        Some(schedule.plan.delay)
    })
}

/// SplitMix64-style mix of (seed, site, hit) mapped to a uniform draw in
/// `[0, 1)`.
fn unit_draw(seed: u64, site: u64, hit: u64) -> f64 {
    let mut z = seed
        .wrapping_add(site.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(hit.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Delay-kind faultpoint: stall the thread for the schedule's delay when
/// the site fires. One thread-local load on an unarmed thread.
#[inline]
pub fn maybe_delay(site: &str) {
    if !ON.get() {
        return;
    }
    if let Some(delay) = fire(site).filter(|d| !d.is_zero()) {
        std::thread::sleep(delay);
    }
}

/// How many times `site` has fired under the calling thread's handle, on
/// every thread armed with it; 0 on an unarmed thread.
pub fn injected(site: &str) -> u64 {
    let Some(idx) = site_index(site) else {
        return 0;
    };
    ARMED.with_borrow(|handle| handle.0.as_ref().map_or(0, |s| s.injected[idx].load(Ordering::Relaxed)))
}

/// Total fires across all sites under the calling thread's handle.
pub fn injected_total() -> u64 {
    SITES.iter().map(|site| injected(site)).sum()
}

/// RAII marker for an SPMD region: while alive on this thread, error-kind
/// sites are suppressed (a lone rank erroring mid-collective would deadlock
/// its peers) while delay-kind sites keep firing. Runtimes install this
/// around rank bodies; it nests.
pub struct SpmdScope {
    // !Send: the counter is thread-local.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Enter an SPMD region on this thread. See [`SpmdScope`].
pub fn spmd_scope() -> SpmdScope {
    SPMD_DEPTH.set(SPMD_DEPTH.get() + 1);
    SpmdScope {
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for SpmdScope {
    fn drop(&mut self) {
        SPMD_DEPTH.set(SPMD_DEPTH.get() - 1);
    }
}

/// Check a faultpoint by site name; with a second argument, run that
/// expression (e.g. `return Err(...)` or `panic!(...)`) when it fires.
/// Compiles to one thread-local load and a predicted branch on an unarmed
/// thread.
#[macro_export]
macro_rules! faultpoint {
    ($site:expr) => {
        $crate::fault::should_fire($site)
    };
    ($site:expr, $body:expr) => {
        if $crate::fault::should_fire($site) {
            $body
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_thread_and_seed() {
        let sample = |seed: u64| -> Vec<bool> {
            with_plan(FaultPlan::new(seed).site(CHOLESKY, 0.3), || {
                (0..64).map(|_| should_fire(CHOLESKY)).collect()
            })
        };
        let a = sample(7);
        let b = sample(7);
        let c = sample(8);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_ne!(a, c, "different seeds must differ");
        let hits = a.iter().filter(|&&f| f).count();
        assert!(hits > 5 && hits < 30, "rate 0.3 over 64 draws fired {hits} times");
    }

    #[test]
    fn unarmed_sites_and_spmd_regions_suppress_correctly() {
        assert!(!should_fire(CHOLESKY));
        assert_eq!(injected_total(), 0);

        with_plan(FaultPlan::new(1).site(CHOLESKY, 1.0).site(ARENA, 1.0), || {
            assert!(should_fire(CHOLESKY));
            assert_eq!(injected(CHOLESKY), 1);
            assert!(!should_fire(COLLECTIVE), "a site the plan does not arm never fires");
            {
                let _spmd = spmd_scope();
                assert!(!should_fire(CHOLESKY), "error sites must not fire inside SPMD");
                assert!(should_fire(ARENA), "delay sites keep firing inside SPMD");
            }
            assert!(should_fire(CHOLESKY), "suppression ends with the scope");
            assert_eq!(injected_total(), 3);
        });
        assert!(!should_fire(CHOLESKY), "unarmed once the plan's scope ends");
        assert_eq!(injected_total(), 0);
    }

    /// A handle carries its plan and counters to another thread; a thread
    /// nobody armed sees nothing meanwhile. Hit indices count per thread
    /// and start over when a thread consults another handle.
    #[test]
    fn a_handle_arms_the_threads_it_is_carried_to() {
        let plan = FaultPlan::new(5).site(CHOLESKY, 0.5);
        with_plan(plan.clone(), || {
            let here: Vec<bool> = (0..32).map(|_| should_fire(CHOLESKY)).collect();
            let handle = FaultHandle::current();
            let there =
                std::thread::spawn(move || handle.arm(|| (0..32).map(|_| should_fire(CHOLESKY)).collect::<Vec<_>>()));
            let bystander = std::thread::spawn(|| ((0..32).any(|_| should_fire(CHOLESKY)), injected_total()));
            assert_eq!(
                there.join().unwrap(),
                here,
                "every armed thread replays the same schedule"
            );
            assert_eq!(bystander.join().unwrap(), (false, 0), "an unarmed thread sees no fault");
            let fired = here.iter().filter(|&&f| f).count() as u64;
            assert_eq!(injected(CHOLESKY), 2 * fired, "both threads count into the handle");

            let again = FaultHandle::current().arm(|| should_fire(CHOLESKY));
            assert_eq!(
                again,
                should_fire_at(&plan, 32),
                "re-arming with one handle keeps counting"
            );
            let other = FaultPlan::new(6).site(CHOLESKY, 0.5);
            assert_eq!(
                with_plan(other.clone(), || should_fire(CHOLESKY)),
                should_fire_at(&other, 0)
            );
            assert_eq!(
                should_fire(CHOLESKY),
                should_fire_at(&plan, 0),
                "another handle in between restarts the count"
            );
            FaultHandle::default().arm(|| assert!(!should_fire(CHOLESKY), "the default handle disarms"));
        });
    }

    /// The decision the k-th visit of a thread armed with `plan` makes.
    fn should_fire_at(plan: &FaultPlan, hit: u64) -> bool {
        let idx = site_index(CHOLESKY).unwrap();
        unit_draw(plan.seed, idx as u64, hit) < plan.rates[idx]
    }

    #[test]
    fn faultpoint_macro_fires_the_armed_expression() {
        let mut hit = false;
        with_plan(FaultPlan::new(3).site(WORKER, 1.0), || {
            faultpoint!(WORKER, hit = true);
        });
        assert!(hit);
        assert!(!faultpoint!(WORKER), "unarmed again after the plan's scope");
    }
}
