//! The tracking global allocator behind the allocation and memory
//! budgets (`{forward,backward,drain}_allocations`, `setup_memory`,
//! `telemetry_overhead`, `response_footprint`): calls, bytes requested,
//! live bytes and their peak, process-wide. The call and byte counts
//! leave out libtest's own main thread while a test measures from
//! another one: that thread grows its running-test map just after it
//! spawns the test's thread, and when the scheduler delays it the
//! insertion lands inside the first measured window (one extra call,
//! seen on up to two runs in three).
//!
//! Each of those binaries holds one `#[test]` function on purpose:
//! integration-test binaries run their tests on parallel threads, and a
//! second thread's allocations would bleed into these counters and
//! flake the assertions.

// Every binary uses its own subset of the probes.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

struct TrackingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Its address names the thread. Const-initialised and without a
    /// destructor, so reading it inside the allocator allocates nothing.
    static THREAD_MARK: u8 = const { 0 };
}

fn this_thread() -> usize {
    THREAD_MARK
        .try_with(|mark| mark as *const u8 as usize)
        .unwrap_or(0)
}

/// The thread of the process's first allocation: the one the runtime
/// starts, on which libtest's `main` runs.
static MAIN_THREAD: AtomicUsize = AtomicUsize::new(0);
/// The thread inside [`allocated_during`], 0 when there is none.
static MEASURING_THREAD: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let me = this_thread();
    let main = match MAIN_THREAD.compare_exchange(0, me, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => me,
        Err(main) => main,
    };
    // The harness's bookkeeping is not the code under test, unless the
    // test itself runs on that thread (`--test-threads=1`).
    if me != main || MEASURING_THREAD.load(Ordering::Relaxed) == main {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: defers to `System` for every request; the counters are plain
// atomics and touch no allocator state.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static TRACKER: TrackingAllocator = TrackingAllocator;

/// Allocations and bytes requested while running `f`, on any thread.
pub fn allocated_during(f: impl FnOnce()) -> (u64, u64) {
    let outer = MEASURING_THREAD.swap(this_thread(), Ordering::Relaxed);
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    f();
    let during = (
        ALLOCATIONS.load(Ordering::Relaxed) - before.0,
        BYTES.load(Ordering::Relaxed) - before.1,
    );
    MEASURING_THREAD.store(outer, Ordering::Relaxed);
    during
}

/// Allocations observed while running `f`.
pub fn allocations_during(f: impl FnOnce()) -> u64 {
    allocated_during(f).0
}

/// Runs `f`; returns its result and the most bytes that were live at
/// once during it, over what was live when it started.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - before)
}

/// The bytes `value` kept live: what dropping it gives back.
pub fn bytes_held_by<T>(value: T) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    drop(value);
    before - LIVE.load(Ordering::Relaxed)
}
