//! Lock-free service latency instrumentation.
//!
//! Every completed job deposits three durations — queue wait (submit →
//! worker pickup), execution (kernel time), and end-to-end (submit →
//! fulfill) — into fixed log-linear histograms made of plain `AtomicU64`
//! counters. Recording is wait-free (one `fetch_add` per histogram plus a
//! `fetch_max` for the exact maximum), so the hot path never takes a lock
//! and the recorder never perturbs the latencies it measures.
//! [`ServiceStats`] is a consistent-enough snapshot for SLO reporting:
//! quantiles are read by walking the bucket counts, which is exact to
//! within one bucket (eight per octave, so a reported quantile is within
//! 1/16 of the true value — a 12 µs execute and a 23 µs queue wait land in
//! different buckets, as do a 290 µs and a 330 µs one).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Log-linear nanosecond buckets: durations below `SUB` ns get one bucket
/// each; above, each octave `[2^e, 2^(e+1))` splits into `SUB` equal
/// sub-buckets. 496 buckets cover every representable `u64` nanosecond
/// count (~584 years).
const BUCKETS: usize = SUB * (65 - SUB_BITS as usize);

pub(crate) struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

fn bucket_of(nanos: u64) -> usize {
    if nanos < SUB as u64 {
        return nanos as usize;
    }
    // `nanos >> shift` keeps the leading bit and SUB_BITS below it: a value
    // in [SUB, 2·SUB) whose low bits pick the sub-bucket.
    let shift = (63 - nanos.leading_zeros() - SUB_BITS) as usize;
    shift * SUB + (nanos >> shift) as usize
}

/// Midpoint of bucket `i`'s range — the point estimate for its samples.
fn bucket_mid_nanos(i: usize) -> f64 {
    if i < 2 * SUB {
        return i as f64;
    }
    let shift = i / SUB - 1;
    ((i % SUB + SUB) << shift) as f64 + (1u64 << shift) as f64 / 2.0
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            buckets: [(); BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    pub fn record(&self, d: Duration) {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Smallest duration `q` of the recorded samples are ≤, estimated at
    /// the covering bucket's midpoint (and clamped by the exact observed
    /// maximum, so p99 of a uniform workload never exceeds max).
    fn quantile(&self, counts: &[u64; BUCKETS], total: u64, q: f64) -> Duration {
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let mid = bucket_mid_nanos(i);
                let max = self.max_nanos.load(Ordering::Relaxed) as f64;
                return Duration::from_nanos(mid.min(max) as u64);
            }
        }
        Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed))
    }

    pub fn summary(&self) -> LatencySummary {
        let mut counts = [0u64; BUCKETS];
        for (slot, b) in counts.iter_mut().zip(&self.buckets) {
            *slot = b.load(Ordering::Relaxed);
        }
        // `count` may lag the bucket sum under concurrent recording; the
        // bucket sum is the self-consistent total for quantile walking.
        let total: u64 = counts.iter().sum();
        let sum = self.sum_nanos.load(Ordering::Relaxed);
        LatencySummary {
            count: total,
            mean: Duration::from_nanos(sum.checked_div(total).unwrap_or(0)),
            p50: self.quantile(&counts, total, 0.50),
            p99: self.quantile(&counts, total, 0.99),
            max: Duration::from_nanos(self.max_nanos.load(Ordering::Relaxed)),
        }
    }
}

/// One latency dimension's summary: count, mean, p50/p99 (bucket-midpoint
/// estimates, within 1/16 of exact), and the exact observed maximum.
#[derive(Clone, Copy, Debug)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median estimate.
    pub p50: Duration,
    /// 99th-percentile estimate — the SLO tail number.
    pub p99: Duration,
    /// Exact maximum observed.
    pub max: Duration,
}

/// Point-in-time service telemetry from
/// [`QrService::stats`](crate::service::QrService::stats): per-dimension
/// latency summaries plus sustained throughput since the pool started.
#[derive(Clone, Copy, Debug)]
pub struct ServiceStats {
    /// Submit → worker-pickup latency of completed jobs.
    pub queue_wait: LatencySummary,
    /// Kernel execution latency (the factorization proper).
    pub execution: LatencySummary,
    /// Submit → result-fulfilled latency: what a caller actually waits.
    pub end_to_end: LatencySummary,
    /// Jobs completed since the service started. Counts *panels* for
    /// `factor_many` batches — the unit a throughput SLO cares about.
    pub completed: u64,
    /// Retried factorization attempts: rungs of the escalation ladder that
    /// ran beyond the first (each job contributes `attempts − 1`). Zero
    /// unless a job carried an enabled [`RetryPolicy`](crate::RetryPolicy).
    pub retries: u64,
    /// Jobs whose *accepted* result came from an escalation rung rather
    /// than the plan's primary algorithm.
    pub escalations: u64,
    /// Submissions rejected by admission control
    /// ([`ServiceError::Overloaded`](super::ServiceError::Overloaded)):
    /// the observed p99 queue wait exceeded the job's deadline budget.
    pub shed: u64,
    /// Jobs observed cancelled at dequeue (never executed).
    pub cancelled: u64,
    /// Jobs whose deadline expired before a worker dequeued them (never
    /// executed).
    pub expired: u64,
    /// Time since the worker pool started.
    pub uptime: Duration,
    /// `completed / uptime` — sustained throughput.
    pub jobs_per_sec: f64,
}

/// The service-wide recorder: three histograms, a completion counter, and
/// the resilience counters (retries, escalations, shed/cancelled/expired
/// jobs). All wait-free `fetch_add`s.
pub(crate) struct Recorder {
    pub queue_wait: Histogram,
    pub execution: Histogram,
    pub end_to_end: Histogram,
    completed: AtomicU64,
    retries: AtomicU64,
    escalations: AtomicU64,
    shed: AtomicU64,
    cancelled: AtomicU64,
    expired: AtomicU64,
    started: Instant,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            queue_wait: Histogram::new(),
            execution: Histogram::new(),
            end_to_end: Histogram::new(),
            completed: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            escalations: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    pub fn complete(&self, jobs: u64) {
        self.completed.fetch_add(jobs, Ordering::Relaxed);
    }

    pub fn retried(&self, attempts_beyond_first: u64) {
        self.retries.fetch_add(attempts_beyond_first, Ordering::Relaxed);
    }

    pub fn escalated(&self) {
        self.escalations.fetch_add(1, Ordering::Relaxed);
    }

    pub fn shed_one(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn cancelled_one(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    pub fn expired_one(&self) {
        self.expired.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> ServiceStats {
        let completed = self.completed.load(Ordering::Relaxed);
        let uptime = self.started.elapsed();
        ServiceStats {
            queue_wait: self.queue_wait.summary(),
            execution: self.execution.summary(),
            end_to_end: self.end_to_end.summary(),
            completed,
            retries: self.retries.load(Ordering::Relaxed),
            escalations: self.escalations.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            uptime,
            jobs_per_sec: completed as f64 / uptime.as_secs_f64().max(1e-9),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_linear_and_total_order_is_kept() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(7), 7);
        assert_eq!(bucket_of(15), 15);
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_of(17), 16);
        assert_eq!(bucket_of(18), 17);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every bucket's midpoint maps back to it, in increasing order.
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_of(bucket_mid_nanos(i) as u64), i);
            assert!(bucket_mid_nanos(i) < bucket_mid_nanos(i + 1));
        }
        let h = Histogram::new();
        for micros in [1u64, 10, 100, 1000] {
            for _ in 0..25 {
                h.record(Duration::from_micros(micros));
            }
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, Duration::from_micros(1000));
        // p50 falls in the 10µs sample band, p99 on the largest band.
        assert!(
            s.p50.abs_diff(Duration::from_micros(10)) <= Duration::from_micros(1),
            "p50 = {:?}",
            s.p50
        );
        assert!(s.p99 >= Duration::from_micros(900), "p99 = {:?}", s.p99);
        assert!(s.p99 <= s.max);
        assert!(s.mean >= s.p50 && s.mean <= s.max);
    }

    #[test]
    fn a_twelve_and_a_twenty_three_microsecond_sample_stay_apart() {
        // Power-of-two buckets lumped these two together; eight sub-buckets
        // per octave keep them apart and resolve a quantile within 10 %.
        let (fast, slow) = (Duration::from_micros(12), Duration::from_micros(23));
        assert_ne!(bucket_of(fast.as_nanos() as u64), bucket_of(slow.as_nanos() as u64));
        let h = Histogram::new();
        for _ in 0..60 {
            h.record(fast);
        }
        for _ in 0..40 {
            h.record(slow);
        }
        let s = h.summary();
        assert!(s.p50.abs_diff(fast) <= fast / 10, "p50 = {:?}", s.p50);
        assert!(s.p99.abs_diff(slow) <= slow / 10, "p99 = {:?}", s.p99);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let s = Histogram::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, Duration::ZERO);
        assert_eq!(s.p99, Duration::ZERO);
        assert_eq!(s.max, Duration::ZERO);
    }

    #[test]
    fn recorder_counts_panels_for_throughput() {
        let r = Recorder::new();
        r.complete(3);
        r.complete(1);
        let s = r.snapshot();
        assert_eq!(s.completed, 4);
        assert!(s.jobs_per_sec > 0.0);
    }

    #[test]
    fn resilience_counters_start_zero_and_accumulate() {
        let r = Recorder::new();
        let s = r.snapshot();
        assert_eq!(
            (s.retries, s.escalations, s.shed, s.cancelled, s.expired),
            (0, 0, 0, 0, 0)
        );
        r.retried(2);
        r.escalated();
        r.shed_one();
        r.cancelled_one();
        r.cancelled_one();
        r.expired_one();
        let s = r.snapshot();
        assert_eq!(
            (s.retries, s.escalations, s.shed, s.cancelled, s.expired),
            (2, 1, 1, 2, 1)
        );
    }
}
