//! The counting allocator of the traced pass.
//!
//! `bench-trace` installs [`CountingAlloc`] as its `#[global_allocator]`;
//! `bench` leaves the system allocator untouched, so the end-to-end
//! numbers never pay for the counters. (This is the benchmark's own
//! copy; `tests/telemetry_overhead.rs` keeps its own.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations go uncounted. Initialized at
    /// compile time and without a destructor, so reading it from inside
    /// the allocator neither allocates nor outlives the thread's data.
    static EXEMPT: Cell<bool> = const { Cell::new(false) };
}

/// Leaves the calling thread's allocations out of the counts from now
/// on. The calibration helpers call it: their reference allocates by
/// design, beside the program and not as part of it.
pub fn exempt_this_thread() {
    EXEMPT.with(|exempt| exempt.set(true));
}

fn count(bytes: usize) {
    if !EXEMPT.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// The system allocator plus two relaxed counters (the counters publish
/// no other data, so `Relaxed` is enough).
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// thread-local read and two atomic increments, which neither allocate
// nor unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `alloc` contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller's contract requires.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `alloc_zeroed` contract is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` came from this allocator, and the
        // caller guarantees `new_size` as `realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and bytes requested so far, process-wide. Both stay
/// zero in a binary that did not install [`CountingAlloc`].
pub fn counts() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Allocation calls and bytes requested while `f` ran (all threads but
/// the exempt ones).
pub fn during<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (calls, bytes) = counts();
    let out = f();
    let (calls_after, bytes_after) = counts();
    (out, calls_after - calls, bytes_after - bytes)
}
