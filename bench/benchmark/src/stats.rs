//! Small measurement helpers: order statistics, a timing loop, a digest.

use std::time::Instant;

/// The `q`-quantile by nearest rank (`q` in `(0, 1]`) of an unsorted sample.
/// Panics on an empty sample: every caller times at least one call.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median seconds of `run` over `reps` timed calls after one untimed warm
/// call; `prep` builds each call's (untimed) input, e.g. a fresh copy of a
/// matrix an in-place kernel overwrites.
pub fn median_time<T, R>(reps: usize, mut prep: impl FnMut() -> T, mut run: impl FnMut(T) -> R) -> f64 {
    std::hint::black_box(run(prep()));
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let input = prep();
            let t = Instant::now();
            let out = run(input);
            let dt = t.elapsed().as_secs_f64();
            std::hint::black_box(out);
            dt
        })
        .collect();
    median(&samples)
}

/// [`median_time`] for rows too slow for a fixed repetition count: at least
/// `min_reps` calls, then more until `budget_s` is spent or `max_reps` is
/// reached.
pub fn median_time_capped<R>(min_reps: usize, max_reps: usize, budget_s: f64, mut run: impl FnMut() -> R) -> f64 {
    std::hint::black_box(run());
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || (samples.len() < max_reps && start.elapsed().as_secs_f64() < budget_s) {
        let t = Instant::now();
        let out = run();
        samples.push(t.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    median(&samples)
}

/// FNV-1a over the bit patterns of a matrix's entries: two runs (or, later,
/// two runtimes) produced the same factor iff the digests agree.
pub fn digest(values: &[f64]) -> u64 {
    values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}
