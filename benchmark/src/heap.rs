//! Counting global allocator: live and peak heap bytes.
//!
//! `main.rs` installs [`CountingAlloc`] as the global allocator; the
//! harness calls [`HeapCounter::reset_peak`] on [`COUNTER`] before each
//! iteration and reads [`HeapCounter::peak`] after it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live and peak heap byte counts. The counts publish no other data, so
/// every access is `Relaxed`.
pub struct HeapCounter {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl HeapCounter {
    /// A counter at zero.
    pub const fn new() -> HeapCounter {
        HeapCounter {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Starts a new peak window at the current live count and returns
    /// that count.
    pub fn reset_peak(&self) -> usize {
        let live = self.live.load(Ordering::Relaxed);
        self.peak.store(live, Ordering::Relaxed);
        live
    }

    /// Highest live count since the last [`HeapCounter::reset_peak`].
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }
}

/// The process-wide counter [`CountingAlloc`] updates.
pub static COUNTER: HeapCounter = HeapCounter::new();

/// [`System`] with every allocation counted in [`COUNTER`].
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter updates are lock-free
// atomics that neither allocate nor touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc` obligations pass through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            COUNTER.grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            COUNTER.grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        COUNTER.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`, plus the caller's `new_size` guarantee.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                COUNTER.grow(new_size - layout.size());
            } else {
                COUNTER.shrink(layout.size() - new_size);
            }
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_resets_to_the_live_count() {
        let c = HeapCounter::new();
        c.grow(1000);
        c.shrink(900);
        assert_eq!(c.peak(), 1000);
        assert_eq!(c.reset_peak(), 100, "reset returns the live count");
        assert_eq!(c.peak(), 100);
        c.grow(50);
        c.shrink(50);
        assert_eq!(c.peak(), 150, "the new window sees only its own peak");
    }

    #[test]
    fn global_counter_sees_a_large_allocation() {
        let before = COUNTER.reset_peak();
        let block = vec![0u8; 64 << 20];
        std::hint::black_box(&block);
        drop(block);
        // Other tests allocate concurrently, so only the lower bound holds.
        assert!(COUNTER.peak() >= before + (64 << 20));
    }
}
