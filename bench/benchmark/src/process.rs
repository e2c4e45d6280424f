//! Process-level measurements: CPU time and peak RSS from `/proc`, and a
//! counting global allocator that is armed only during a traced segment.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// User + system CPU seconds of this process, exited threads included (the
/// shm runtime spawns and joins its rank threads on every factor, so
/// per-thread accounting would lose them). `/proc/self/stat` counts in
/// `USER_HZ` ticks, which is 100 on every Linux ABI.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 11 and 12 after the `)`.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus, while armed, a count of allocations and the
/// peak of bytes live since arming. Disarmed it costs one relaxed load per
/// call, so the untraced end-to-end run is not perturbed.
pub struct CountingAllocator;

/// Books `new` bytes replacing `old` live bytes as one allocation event.
fn count(old: usize, new: usize) {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // Saturating: blocks allocated before arming may shrink or die after.
        let before = LIVE_BYTES
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(old as u64) + new as u64)
            })
            .unwrap_or(0);
        PEAK_BYTES.fetch_max(before.saturating_sub(old as u64) + new as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged (all four, so `calloc` and in-place `realloc` keep their speed);
// the counters are statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(0, layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(0, layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout.size(), new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.load(Ordering::Relaxed) {
            let _ = LIVE_BYTES.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(layout.size() as u64))
            });
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation count and peak live MiB between [`arm`] and [`disarm`].
pub struct HeapUse {
    pub allocs: u64,
    pub peak_mib: f64,
}

pub fn arm() {
    ALLOCS.store(0, Ordering::Relaxed);
    LIVE_BYTES.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
}

pub fn disarm() -> HeapUse {
    ARMED.store(false, Ordering::Relaxed);
    HeapUse {
        allocs: ALLOCS.load(Ordering::Relaxed),
        peak_mib: PEAK_BYTES.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0),
    }
}
