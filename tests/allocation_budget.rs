//! Heap-allocation budget of the distributed engine's per-delta path.
//!
//! Allocations are an exact, host-independent work counter: the same
//! program, topology and thread count allocate the same number of times on
//! any machine, so a regression on the per-delta path (a key projected into
//! a fresh vector on every membership test, a bucket per index signature
//! that should not exist, a list copied to be read) shows up here as a
//! number rather than as timing noise.
//!
//! The workload is the paper's core computation: all-pairs hop-count
//! shortest paths with aggregate selections, compiled with link-first body
//! order, on the 52-node GT-ITM overlay, run to quiescence at 1 executor
//! thread. Measured when the budget was set: 180,460 heap allocations for
//! 33,243 derivations — 5.43 allocations per derivation. The budget
//! allows 1.25× the measured rate.
//!
//! The same run pins a second exact counter: relation-name registry
//! lookups. Every name the derivation path needs was resolved to a handle
//! when the program was planned, so running to quiescence makes none.
//!
//! This file holds a single test: the counting allocator is global to the
//! test binary, and a second concurrently running test would be counted
//! too.

use ndlog_core::{DistributedEngine, EngineConfig};
use ndlog_lang::optimizer::{optimize, Pipeline};
use ndlog_lang::reorder::BodyOrder;
use ndlog_lang::{programs, Value};
use ndlog_net::gtitm::{generate, TransitStubConfig};
use ndlog_net::overlay::{Overlay, OverlayConfig};
use ndlog_net::topology::Metric;
use ndlog_runtime::{Rel, Tuple};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations per derivation measured when the budget was set.
const MEASURED_PER_DERIVATION: f64 = 5.43;
/// Headroom over the measured rate before the test fails.
const BUDGET_FACTOR: f64 = 1.25;

/// Counts every allocation and reallocation, then defers to the system
/// allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn converge_stays_within_the_allocation_budget() {
    let underlay = generate(&TransitStubConfig::medium());
    let overlay = Overlay::random_neighbors(&underlay.topology, &OverlayConfig::default());
    let links = overlay.links();
    let pipeline = Pipeline::new(Vec::new(), Some(BodyOrder::LinkFirst));
    let optimized = optimize(&programs::shortest_path("hops"), &pipeline).unwrap();
    let plan = ndlog_core::plan(&optimized.program).unwrap();
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    config.max_seconds = 300.0;
    config.parallelism = 1;
    let mut engine =
        DistributedEngine::new(overlay.graph.clone(), std::slice::from_ref(&plan), config).unwrap();
    for link in &links {
        let tuple = Tuple::new(vec![
            Value::Addr(link.src),
            Value::Addr(link.dst),
            Value::Float(link.cost(Metric::HopCount)),
        ]);
        engine.insert_base(link.src, "link_hops", tuple).unwrap();
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let lookups_before = Rel::registry_lookups();
    let report = engine.run_to_quiescence().unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let registry_lookups = Rel::registry_lookups() - lookups_before;

    assert!(report.quiesced);
    assert_eq!(engine.result_count("shortestPath_hops"), 52 * 51);
    let derivations = engine.computation_stats().derivations;
    assert!(derivations > 0);
    let per_derivation = allocations as f64 / derivations as f64;
    let budget = MEASURED_PER_DERIVATION * BUDGET_FACTOR;
    println!(
        "{allocations} allocations for {derivations} derivations: {per_derivation:.2} per derivation (budget {budget:.2})"
    );
    assert_eq!(
        registry_lookups, 0,
        "the derivation path names relations by handle, never by string"
    );
    assert!(
        per_derivation <= budget,
        "{per_derivation:.2} allocations per derivation exceeds the budget of {budget:.2} \
         ({allocations} allocations, {derivations} derivations)"
    );
}
