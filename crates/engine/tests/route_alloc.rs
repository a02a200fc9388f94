//! Allocation pin for the router: a routed batch allocates in proportion to
//! what it routes, not to the graph. The only `m`-sized allocation a call may
//! make is the returned [`congest_engine::Metrics`] congestion vector
//! (`8·m` bytes); everything else — hop sequences, local slots, queues,
//! planned loads, active flags — is indexed by the directed edges the batch
//! touches. The same small batch is routed on a graph with `m ≈ 10³` and one
//! with `m ≈ 10⁵`, and the bytes allocated during each call must stay within
//! `8·m` plus a bound that does not depend on `m`.
//!
//! A global allocator is process-wide, so this lives in its own test binary
//! with exactly one `#[test]` (see `alloc_regression.rs`), and the routing
//! runs on the sequential executor, on the test's own thread.

use congest_engine::router::{route_with, RouteTask};
use congest_engine::ExecutorConfig;
use congest_graph::{generators, Graph, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper counting the bytes of every allocation and
/// reallocation (the new size, conservatively).
struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes a call may allocate beyond the congestion vector, for any `m`.
const BATCH_BOUND: u64 = 32 * 1024;

/// Routes the fixed batch on `g` and returns the bytes allocated by the call.
fn routed_bytes(g: &Graph, tasks: &[RouteTask]) -> u64 {
    let cfg = ExecutorConfig::sequential();
    let before = BYTES.load(Ordering::SeqCst);
    let report = route_with(g, tasks, &cfg).expect("walks in a complete graph");
    let bytes = BYTES.load(Ordering::SeqCst) - before;
    assert_eq!(report.metrics.congestion().len(), g.m());
    assert!(report.metrics.messages > 0);
    bytes
}

#[test]
fn routing_allocates_the_congestion_vector_plus_a_batch_bound() {
    // Forty walks over nodes 0..12, contending and multi-word: every node pair
    // is adjacent in a complete graph, so the batch is valid at both sizes.
    let tasks: Vec<RouteTask> = (0..40)
        .map(|i| RouteTask {
            path: (0..2 + i % 6)
                .map(|h| NodeId::new((i + 5 * h) % 12))
                .collect(),
            words: 1 + i % 4,
        })
        .collect();
    for n in [46, 448] {
        let g = generators::complete(n);
        let m = g.m() as u64;
        let bytes = routed_bytes(&g, &tasks);
        assert!(
            bytes <= 8 * m + BATCH_BOUND,
            "routing on m = {m} allocated {bytes} bytes, more than 8·m + {BATCH_BOUND}"
        );
    }
}
