//! Counting global allocator behind the `alloc.*` per-layer metrics.
//!
//! The only `unsafe` in or near the repository, confined to this
//! module. It is always installed — traced or not, on every commit —
//! so its cost (two relaxed atomic adds per allocation) is a constant
//! of the measurement rather than a difference between runs. The
//! package lives outside the root workspace, so the workspace's own
//! "ships no unsafe" contract (lint A1) is untouched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards every request unchanged to [`System`], counting
/// allocation calls and requested bytes on the way.
pub struct Counting;

impl Counting {
    fn count(bytes: usize) {
        // Relaxed: pure statistics, publishing no other data.
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method passes its arguments to the same method of
// `System` without altering them and returns `System`'s result as is,
// so `System`'s own upholding of the `GlobalAlloc` contract carries
// over. The counters are plain atomics touched before the forwarded
// call; they neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller guarantees `layout` has non-zero size, as
        // `GlobalAlloc::alloc` requires; it is forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: same contract as `alloc`, forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`; every block this allocator hands out comes
        // from `System`, so it is `System`'s to free.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // block of this allocator (hence of `System`) and that
        // `new_size` is valid for `layout.align()`; forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocation calls, bytes requested)` since process start.
pub fn snapshot() -> (u64, u64) {
    (CALLS.load(Relaxed), BYTES.load(Relaxed))
}
