//! The Matrix Market header is untrusted: its counts must never size an
//! allocation the file's body does not back. A counting global allocator
//! records the largest single request made while a file is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sparse::mm::{read_pattern, MmError};

struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a relaxed counter
// update, which allocates nothing.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LargestRequest = LargestRequest;

/// Reads `src` and returns the parse message and the largest single
/// allocation made meanwhile.
fn parse_error_and_largest_request(src: &str) -> (String, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let outcome = read_pattern(src.as_bytes());
    let largest = LARGEST.load(Ordering::Relaxed);
    match outcome {
        Err(MmError::Parse(msg)) => (msg, largest),
        other => panic!("expected a parse error, got {other:?}"),
    }
}

// One test function: the harness runs tests on parallel threads, and the
// counter is process-wide.
#[test]
fn header_counts_do_not_drive_allocation() {
    // One past what a u32 row pointer addresses: refused from the header
    // alone, before the builder or the duplicate set exists.
    let past = u32::MAX as u64 + 1;
    let (msg, largest) = parse_error_and_largest_request(&format!(
        "%%MatrixMarket matrix coordinate pattern general\n2 2 {past}\n1 1\n"
    ));
    assert!(msg.contains(&format!("{past} entries exceed")), "{msg}");
    assert!(largest < 1 << 16, "refusal allocated {largest} bytes");

    // The largest accepted count, symmetric (so doubled), over a one-line
    // body: the reservations stay capped and the count mismatch is found.
    let most = u32::MAX;
    let (msg, largest) = parse_error_and_largest_request(&format!(
        "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 {most}\n1 1\n"
    ));
    assert!(msg.contains(&format!("expected {most} entries, found 1")), "{msg}");
    assert!(largest <= 1 << 28, "a one-line file allocated {largest} bytes at once");
}
