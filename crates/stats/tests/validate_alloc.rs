//! The pin that `ChromeTrace::validate` never builds a tree again: on a
//! 200 000-event document (12 MB) it may allocate under 64 KiB *in total* —
//! the phase buffer and the 13-entry kind map — where a tree of the document
//! is several times the text. `ci.sh` runs this test by name.
//!
//! Alone in its test binary: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use tyr_stats::probe::{ChromeTrace, Probe, ProbeEvent};

/// Counts every byte asked of the system allocator.
struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic and guards nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size as u64, Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn validating_a_large_trace_allocates_next_to_nothing() {
    const EVENTS: u64 = 200_000;
    let mut trace = ChromeTrace::new();
    trace.declare_block(0, "main");
    trace.declare_node(0, "n", 0);
    for i in 0..EVENTS {
        let ev = match i % 4 {
            0 => ProbeEvent::TagAllocated { space: 0, tag: i },
            1 => ProbeEvent::TokenProduced { node: 0 },
            2 => ProbeEvent::MemAccess { node: 0, addr: -(i as i64), write: false },
            _ => ProbeEvent::TokenConsumed { node: 0, count: 1 },
        };
        trace.event(i, ev);
    }
    let text = trace.render(EVENTS);
    assert!(text.len() > 10_000_000, "a document of {} bytes is too small to tell", text.len());

    let before = ALLOCATED.load(Relaxed);
    let kinds = ChromeTrace::validate(&text);
    let allocated = ALLOCATED.load(Relaxed) - before;

    assert_eq!(kinds.expect("the trace validates").values().sum::<u64>(), EVENTS);
    assert!(
        allocated < 64 * 1024,
        "validate allocated {allocated} bytes on {} of text",
        text.len()
    );
}
