//! Counting allocator for `bench-layers`. Installed there as the
//! `#[global_allocator]`; `bench` keeps the system allocator so end-to-end
//! numbers carry no instrumentation.
//!
//! Counts are per thread: a span reads them on the thread that does the
//! work, so on the two-thread workloads a run's count holds only its own
//! allocations and repeats exactly, which a process-wide counter would not
//! give. The cells are plain `u64`s with no destructor, so the allocator
//! can touch them at any point of a thread's life.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus two thread-local counters.
pub struct Counting;

fn count(bytes: usize) {
    CALLS.with(|c| c.set(c.get() + 1));
    BYTES.with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never allocate, unwind
// or touch the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and bytes requested by the current thread so far.
/// Always zero in a binary that does not install [`Counting`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub calls: u64,
    pub bytes: u64,
}

impl AllocCount {
    pub fn now() -> AllocCount {
        AllocCount {
            calls: CALLS.with(Cell::get),
            bytes: BYTES.with(Cell::get),
        }
    }

    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}
