//! Allocation guard for route computation at paper scale (108 ToRs x 6
//! uplinks): counts that repeat exactly, where a timing would not. Its own
//! test binary because it installs a counting `#[global_allocator]`; the
//! count is per thread, so the harness and sibling tests do not disturb it.

use openoptics_fabric::OpticalSchedule;
use openoptics_proto::NodeId;
use openoptics_routing::earliest_arrival;
use openoptics_sim::SliceConfig;
use openoptics_topo::round_robin;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded to `System` unchanged, so its
// guarantees carry over; the thread-local is const-initialised and has no
// destructor, so touching it here neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (`realloc` included: the default goes through `alloc`) this
/// thread performs inside `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCATIONS.with(Cell::get) - before
}

fn paper_scale() -> OpticalSchedule {
    let (circuits, slices) = round_robin(108, 6);
    OpticalSchedule::build(SliceConfig::new(300_000, slices, 1_000), 108, 6, &circuits)
        .expect("the 108 x 6 round robin is a valid schedule")
}

#[test]
fn one_sweep_allocates_only_its_result_and_scratch_vectors() {
    let s = paper_scale();
    for arr in 0..s.slice_config().num_slices {
        // `best`, `prev` and the dirty flags; 10,000 to 22,000 when
        // `neighbors()` returned a `Vec` per node visit.
        let n = allocations_in(|| earliest_arrival(&s, NodeId(0), arr, 4));
        assert_eq!(n, 3, "arrival slice {arr}");
    }
}

#[test]
fn iterating_neighbors_allocates_nothing() {
    let s = paper_scale();
    let n = allocations_in(|| {
        let mut lit = 0;
        for ts in 0..s.slice_config().num_slices {
            for v in (0..108).map(NodeId) {
                lit += s.neighbors(v, ts).count();
                lit += usize::from(s.port_to(v, NodeId(0), ts).is_some());
            }
        }
        lit
    });
    assert_eq!(n, 0);
}
