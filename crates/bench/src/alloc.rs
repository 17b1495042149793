//! A tracking global allocator: live-heap and peak-heap counters.
//!
//! The paper measures peak memory with `time(1)` (max RSS). For a
//! single-purpose benchmark process, live-heap peak tracks max RSS up to a
//! constant runtime overhead, and unlike RSS it is deterministic. Each
//! harness binary installs this allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: gcm_bench::TrackingAlloc = gcm_bench::TrackingAlloc::new();
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static OPS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's share of `OPS`. `const`-initialised and without a
    /// destructor, so touching it from inside the allocator never
    /// allocates or registers anything.
    static THREAD_OPS: Cell<usize> = const { Cell::new(0) };
}

/// System allocator wrapper that tracks live and peak heap bytes.
pub struct TrackingAlloc;

impl TrackingAlloc {
    /// Creates the allocator (const, for `#[global_allocator]`).
    pub const fn new() -> Self {
        TrackingAlloc
    }
}

impl Default for TrackingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn add(size: usize) {
    let cur = CURRENT.fetch_add(size, Ordering::Relaxed) + size;
    // Racy max is fine for benchmarking purposes.
    let mut peak = PEAK.load(Ordering::Relaxed);
    while cur > peak {
        match PEAK.compare_exchange_weak(peak, cur, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
}

/// Counts one allocation operation, process-wide and for this thread.
#[inline]
fn count_op() {
    OPS.fetch_add(1, Ordering::Relaxed);
    THREAD_OPS.with(|ops| ops.set(ops.get() + 1));
}

#[inline]
fn sub(size: usize) {
    CURRENT.fetch_sub(size, Ordering::Relaxed);
}

// SAFETY: defers to `System` for all allocation; only counters are added.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            add(layout.size());
            count_op();
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        sub(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            sub(layout.size());
            add(new_size);
            count_op();
        }
        p
    }
}

/// Currently live heap bytes.
pub fn live_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Peak live heap bytes since start / last reset.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Number of allocation operations (alloc + realloc) since process start.
/// Lets tests assert that a steady-state loop performs **zero** heap
/// allocation, which live/peak byte counters cannot distinguish from
/// balanced alloc/free churn.
pub fn alloc_ops() -> usize {
    OPS.load(Ordering::Relaxed)
}

/// Number of allocation operations (alloc + realloc) made by the calling
/// thread since it started. Unlike [`alloc_ops`], other threads of the
/// process — a test harness's main thread, pool workers — cannot move
/// it, so a zero-allocation check on kernels that run on the calling
/// thread is not disturbed by what the rest of the process does.
pub fn thread_alloc_ops() -> usize {
    THREAD_OPS.with(Cell::get)
}

/// Resets the peak to the current live size and returns the live size.
pub fn reset_peak() -> usize {
    let cur = CURRENT.load(Ordering::Relaxed);
    PEAK.store(cur, Ordering::Relaxed);
    cur
}

#[cfg(test)]
mod tests {
    // The allocator is only *installed* in the harness binaries, so these
    // tests exercise the counter arithmetic directly. The counters are
    // process-wide, so the tests that move them hold `COUNTERS` to keep
    // the test threads from seeing each other's adds.
    use super::*;
    use std::sync::Mutex;

    static COUNTERS: Mutex<()> = Mutex::new(());

    #[test]
    fn counters_move() {
        let _guard = COUNTERS.lock().unwrap();
        let before = live_bytes();
        add(1000);
        assert_eq!(live_bytes(), before + 1000);
        assert!(peak_bytes() >= before + 1000);
        sub(1000);
        assert_eq!(live_bytes(), before);
    }

    #[test]
    fn thread_ops_count_only_this_thread() {
        let before = thread_alloc_ops();
        count_op();
        assert_eq!(thread_alloc_ops(), before + 1);
        let other = std::thread::spawn(|| {
            count_op();
            thread_alloc_ops()
        })
        .join()
        .unwrap();
        assert_eq!(other, 1);
        assert_eq!(thread_alloc_ops(), before + 1);
    }

    #[test]
    fn reset_peak_returns_live() {
        let _guard = COUNTERS.lock().unwrap();
        add(512);
        let live = reset_peak();
        assert_eq!(live, live_bytes());
        assert_eq!(peak_bytes(), live);
        sub(512);
    }
}
