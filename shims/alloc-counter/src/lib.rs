//! Counting global allocator for allocation-budget tests.
//!
//! Unlike the other directories under `shims/`, this crate does not stand in
//! for a crates.io dependency — it is a tiny test utility: a
//! [`CountingAllocator`] that wraps the system allocator and counts every
//! allocation, so a test can assert an allocation *budget* (e.g. "a logical
//! send to `r` replicas performs O(1) payload-sized allocations, not
//! O(r)").
//!
//! Usage in a test binary:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;
//!
//! alloc_counter::set_large_threshold(512 * 1024);
//! let before = alloc_counter::snapshot();
//! // ... code under budget ...
//! let stats = alloc_counter::since(&before);
//! assert!(stats.large_allocs <= 4);
//! ```
//!
//! From the first [`reset_peak`] on, it also tracks the bytes live and
//! their peak: a footprint that, unlike the resident set, does not depend
//! on the host.  A binary that never calls it pays nothing for that.
//!
//! Counters are process-wide and updated with relaxed atomics; tests that
//! measure a window spanning several threads should make the window cover
//! the whole multi-threaded region (as the replication fan-out test does)
//! rather than expect per-thread attribution.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Allocations of at least this size count as "large" (payload-sized).
static LARGE_THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);
static TRACK_LIVE: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since tracking started.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// A `GlobalAlloc` wrapper around [`System`] that counts allocations.
pub struct CountingAllocator;

fn note(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    if size >= LARGE_THRESHOLD.load(Ordering::Relaxed) {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Moves the live bytes by `delta` and raises the peak to match, once
/// tracking is on.  The peak is written only when it grows: every
/// allocation of the process comes through here.
fn note_live(delta: i64) {
    if !TRACK_LIVE.load(Ordering::Relaxed) {
        return;
    }
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    if delta > 0 && live > PEAK_LIVE_BYTES.load(Ordering::Relaxed) {
        PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: defers every allocation verbatim to `System`; the only added
// behaviour is relaxed atomic counting, which allocates nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_live(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_live(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing realloc materializes `new_size` fresh bytes; count it
        // like an allocation of the new size; the live bytes move by the
        // difference.
        note(new_size);
        note_live(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Counter values at one instant (see [`snapshot`] / [`since`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Number of allocations.
    pub allocs: u64,
    /// Total bytes requested.
    pub bytes: u64,
    /// Allocations at least as large as the configured threshold.
    pub large_allocs: u64,
}

/// Sets the size (in bytes) from which an allocation counts as "large".
pub fn set_large_threshold(bytes: usize) {
    LARGE_THRESHOLD.store(bytes, Ordering::Relaxed);
}

/// Current counter values.
pub fn snapshot() -> Stats {
    Stats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        large_allocs: LARGE_ALLOCS.load(Ordering::Relaxed),
    }
}

/// Counter deltas since an earlier [`snapshot`].
pub fn since(before: &Stats) -> Stats {
    let now = snapshot();
    Stats {
        allocs: now.allocs - before.allocs,
        bytes: now.bytes - before.bytes,
        large_allocs: now.large_allocs - before.large_allocs,
    }
}

/// Bytes allocated minus bytes freed since the first [`reset_peak`]
/// (negative when more was freed than allocated since).
pub fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Starts a new peak window, and live-byte tracking on the first call: the
/// peak becomes the bytes live right now.
pub fn reset_peak() {
    TRACK_LIVE.store(true, Ordering::Relaxed);
    PEAK_LIVE_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The most bytes live at once since the last [`reset_peak`].
pub fn peak_live_bytes() -> i64 {
    PEAK_LIVE_BYTES.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: the allocator is only *installed* in binaries that declare it as
    // their `#[global_allocator]`; these unit tests exercise the counting
    // logic directly.
    #[test]
    fn counting_and_thresholds() {
        set_large_threshold(1024);
        let before = snapshot();
        note(8);
        note(2048);
        let s = since(&before);
        assert_eq!(s.allocs, 2);
        assert_eq!(s.bytes, 2056);
        assert_eq!(s.large_allocs, 1);
    }

    #[test]
    fn live_bytes_rise_and_fall_and_the_peak_remembers() {
        reset_peak();
        let base = live_bytes();
        note_live(100);
        note_live(50);
        note_live(-120);
        assert_eq!(live_bytes(), base + 30);
        assert_eq!(peak_live_bytes(), base + 150);
        reset_peak();
        assert_eq!(peak_live_bytes(), base + 30);
        note_live(-30);
        assert_eq!(live_bytes(), base);
    }
}
