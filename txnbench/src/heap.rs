//! Live-heap accounting: the benchmark's global allocator forwards to the
//! system allocator and counts the bytes it has handed out. Unlike the
//! resident set (`VmHWM`), the count does not depend on how the allocator
//! spreads threads over arenas or returns freed pages.
//!
//! A phase reports the time-averaged live heap. A peak would be a step
//! function of how much work the phase did — a hash table that doubles
//! near a power of two holds both copies for a moment — so two phases a
//! few percent apart in throughput can read 15 or 21 MiB; the average
//! moves smoothly with the work done.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// Statistics only: the counter publishes no other data, so `Relaxed`.
fn grow(bytes: usize) {
    LIVE.fetch_add(bytes, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's guarantees;
// the counting touches only an atomic and never the memory itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which got it from `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; `ptr` came from `System` with `layout`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        new
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Samples the live heap at most once per [`Sampler::EVERY`]; callers
/// offer a sample whenever a transaction finishes.
#[derive(Debug)]
pub struct Sampler {
    next: Instant,
    sum_mb: f64,
    samples: u64,
}

impl Sampler {
    const EVERY: Duration = Duration::from_millis(10);

    pub fn new(start: Instant) -> Sampler {
        Sampler {
            next: start,
            sum_mb: 0.0,
            samples: 0,
        }
    }

    pub fn offer(&mut self, now: Instant) {
        if now >= self.next {
            self.sum_mb += LIVE.load(Ordering::Relaxed) as f64 / MIB;
            self.samples += 1;
            self.next = now + Self::EVERY;
        }
    }

    /// Mean of the samples taken, in MiB.
    pub fn mean_mb(&self) -> f64 {
        self.sum_mb / self.samples.max(1) as f64
    }
}
