//! A counting global allocator for the `*_peak_bytes_per_node` metrics.
//!
//! Counting is off by default: then every call is one relaxed load plus the
//! system allocator.  [`measure_peak`] switches it on for one closure and
//! returns the highest live-heap growth seen while the closure ran.  Only
//! passes whose timings are not reported run under it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Mutex, PoisonError};

/// The benchmark binary's global allocator.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        let now = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics only and never affect the returned
// pointers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` was returned by `System` for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size);
        shrink(layout.size());
        // SAFETY: `ptr` was returned by `System` for `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Run `f` with counting on; return its result and the peak growth of the
/// live heap above its level when `f` started, in bytes.  Frees of memory
/// allocated before `f` count as shrinkage, so the figure never overstates.
/// Calls are serialised; allocations by other threads while `f` runs are
/// counted too.  Without `Counting` installed as the global allocator the
/// result is 0.
pub fn measure_peak<R>(f: impl FnOnce() -> R) -> (R, u64) {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    LIVE.store(0, Ordering::SeqCst);
    PEAK.store(0, Ordering::SeqCst);
    ON.store(true, Ordering::SeqCst);
    let out = f();
    ON.store(false, Ordering::SeqCst);
    (out, PEAK.load(Ordering::SeqCst).max(0) as u64)
}
