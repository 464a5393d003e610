//! The relation-name registry stays off the derivation path.
//!
//! Deltas name their relation with a `Rel` handle resolved when the
//! program is planned; only callers naming a relation by string (base
//! facts, queries) look a name up in the process-wide registry. This test
//! drives every path a delta takes at runtime besides the insert-only one
//! `tests/allocation_budget.rs` pins — soft-state refresh and expiry,
//! message loss, duplication and jitter, a node down for longer than the
//! TTL and its rejoin, and DRed deletions after link removals — on two
//! executor threads, and asserts that no run makes a single registry
//! lookup.
//!
//! This file holds a single test: the lookup counter is global to the test
//! binary, and a concurrently running test would be counted too.

use ndlog_core::{plan, DistributedEngine, EngineConfig, RefreshConfig};
use ndlog_lang::{programs, Value};
use ndlog_net::gtitm::{generate, TransitStubConfig};
use ndlog_net::overlay::{Overlay, OverlayConfig};
use ndlog_net::sim::ms;
use ndlog_net::topology::Metric;
use ndlog_net::{FaultPlan, LinkFaults, NodeAddr};
use ndlog_runtime::{Rel, Tuple};

fn link(a: NodeAddr, b: NodeAddr, c: f64) -> Tuple {
    Tuple::new(vec![Value::Addr(a), Value::Addr(b), Value::Float(c)])
}

/// Run the engine to quiescence, returning the registry lookups it made.
fn lookups_while_running(engine: &mut DistributedEngine) -> u64 {
    let before = Rel::registry_lookups();
    let report = engine.run_to_quiescence().unwrap();
    assert!(report.quiesced);
    Rel::registry_lookups() - before
}

#[test]
fn faulty_soft_state_runs_with_deletions_never_look_a_name_up() {
    let ts = generate(&TransitStubConfig::small());
    let overlay = Overlay::random_neighbors(&ts.topology, &OverlayConfig::default());
    let addrs: Vec<NodeAddr> = overlay.graph.nodes().collect();
    let ttl_s = 5.0;
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    config.parallelism = 2;
    config.max_seconds = 60.0;
    config.fault = Some(
        FaultPlan::new(11)
            .with_default_faults(LinkFaults {
                loss: 0.1,
                duplicate: 0.05,
                jitter_ms: 1.5,
            })
            .with_active_until(ms(4_000.0))
            // Down for longer than the TTL: what the crashed node used to
            // refresh expires at its neighbors.
            .with_crash(addrs[1], ms(2_000.0), ms(9_000.0)),
    );
    config.refresh = Some(RefreshConfig {
        interval_seconds: 2.0,
        horizon_seconds: 9.0 + ttl_s + 8.0,
    });
    let query = plan(&programs::shortest_path_soft("", ttl_s)).unwrap();
    let mut engine = DistributedEngine::new(overlay.graph.clone(), &[query], config).unwrap();
    let links = overlay.links();
    for l in &links {
        let cost = l.cost(Metric::Reliability);
        engine
            .insert_base(l.src, "link", link(l.src, l.dst, cost))
            .unwrap();
    }
    assert_eq!(lookups_while_running(&mut engine), 0, "converging run");
    let stats = engine.fault_stats();
    assert!(stats.dropped > 0 && stats.crash_drops > 0, "the faults bit");

    // Remove a few links: their retractions cascade through DRed.
    for l in links.iter().take(4) {
        let cost = l.cost(Metric::Reliability);
        engine
            .delete_base(l.src, "link", link(l.src, l.dst, cost))
            .unwrap();
    }
    assert_eq!(lookups_while_running(&mut engine), 0, "deletion run");
}
