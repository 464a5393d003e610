//! End-to-end integration tests: NDlog text → parse → validate → plan →
//! distributed execution over a simulated overlay, checked against an
//! independent graph-algorithm oracle (Dijkstra / BFS on the overlay).

use ndlog_core::{plan, DistributedEngine, EngineConfig};
use ndlog_lang::{parse_program, programs, validate, Value};
use ndlog_net::gtitm::{generate, TransitStubConfig};
use ndlog_net::overlay::{Overlay, OverlayConfig};
use ndlog_net::topology::Metric;
use ndlog_net::NodeAddr;
use ndlog_runtime::{Evaluator, Strategy, Tuple};

fn small_overlay() -> Overlay {
    let ts = generate(&TransitStubConfig::small());
    Overlay::random_neighbors(&ts.topology, &OverlayConfig::default())
}

/// A sparser overlay for comparisons that run without aggregate selections
/// (they materialize every cycle-free path).
fn sparse_overlay() -> Overlay {
    // A 6-node underlay (2 transit nodes, one 2-node stub each) keeps the
    // number of cycle-free paths small enough for an exhaustive,
    // selection-free comparison even in debug builds.
    let ts = generate(&TransitStubConfig {
        transit_nodes: 2,
        stubs_per_transit: 1,
        nodes_per_stub: 2,
        ..TransitStubConfig::paper()
    });
    let config = OverlayConfig {
        neighbors_per_node: 2,
        seed: 0xc0ffee,
    };
    Overlay::random_neighbors(&ts.topology, &config)
}

fn load_links(engine: &mut DistributedEngine, overlay: &Overlay, relation: &str, metric: Metric) {
    for l in overlay.links() {
        engine
            .insert_base(
                l.src,
                relation,
                Tuple::new(vec![
                    Value::Addr(l.src),
                    Value::Addr(l.dst),
                    Value::Float(l.cost(metric)),
                ]),
            )
            .unwrap();
    }
}

#[test]
fn distributed_shortest_paths_match_dijkstra_on_the_overlay() {
    let overlay = small_overlay();
    let n = overlay.node_count();
    let query_plan = plan(&programs::shortest_path("")).unwrap();
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    let mut engine = DistributedEngine::new(overlay.graph.clone(), &[query_plan], config).unwrap();
    load_links(&mut engine, &overlay, "link", Metric::Latency);
    let report = engine.run_to_quiescence().unwrap();
    assert!(report.quiesced, "network must quiesce");

    // Every (source, destination) pair has exactly one shortestPath result
    // stored at the source, and its cost equals Dijkstra over the overlay.
    assert_eq!(engine.result_count("shortestPath"), n * (n - 1));
    for src in overlay.graph.nodes() {
        let oracle = overlay.graph.shortest_distances(src, Metric::Latency);
        for (node, tuple) in engine.results("shortestPath") {
            if node != src || tuple.get(0) != Some(&Value::Addr(src)) {
                continue;
            }
            let dst = tuple.get(1).unwrap().as_addr().unwrap();
            let cost = tuple.get(3).unwrap().as_f64().unwrap();
            let expected = oracle[dst.index()];
            assert!(
                (cost - expected).abs() < 1e-6,
                "cost {src} -> {dst}: engine {cost} vs dijkstra {expected}"
            );
        }
    }
}

#[test]
fn reachability_program_reaches_every_node() {
    let overlay = small_overlay();
    let n = overlay.node_count();
    let query_plan = plan(&programs::reachability("")).unwrap();
    let mut engine = DistributedEngine::new(
        overlay.graph.clone(),
        &[query_plan],
        EngineConfig::default(),
    )
    .unwrap();
    load_links(&mut engine, &overlay, "link", Metric::HopCount);
    engine.run_to_quiescence().unwrap();
    // The overlay is connected, so every ordered pair (including loops via
    // cycles) is reachable.
    assert_eq!(engine.result_count("reachable"), n * n);
}

#[test]
fn redundant_derivations_are_counted_on_the_distributed_path() {
    // The overlay has cycles, so a node hears of most reachable pairs from
    // several neighbours; every repeat after the first is absorbed by the
    // count algorithm at the receiving node — a redundant derivation under
    // the kernel's one definition, shared with the centralized evaluator.
    let overlay = small_overlay();
    let query_plan = plan(&programs::reachability("")).unwrap();
    let mut engine = DistributedEngine::new(
        overlay.graph.clone(),
        &[query_plan],
        EngineConfig::default(),
    )
    .unwrap();
    load_links(&mut engine, &overlay, "link", Metric::HopCount);
    engine.run_to_quiescence().unwrap();
    let stats = engine.computation_stats();
    assert!(
        stats.redundant_derivations > 0,
        "redundant paths must show up as redundant derivations"
    );
    assert!(stats.redundant_derivations <= stats.derivations);
}

#[test]
fn hand_written_program_runs_distributed() {
    // A two-rule "neighbor of neighbor" discovery program written inline.
    let src = r#"
        materialize(link, keys(1,2)).
        materialize(twoHop, keys(1,2)).
        n1 twoHop(@S,@D) :- #link(@S,@Z,C1), nbr(@Z,@D).
        n2 nbr(@S,@D) :- #link(@S,@D,C).
        query twoHop(@S,@D).
    "#;
    let program = parse_program(src).unwrap();
    assert!(validate(&program).is_empty());
    let query_plan = plan(&program).unwrap();

    let overlay = small_overlay();
    let mut engine = DistributedEngine::new(
        overlay.graph.clone(),
        &[query_plan],
        EngineConfig::default(),
    )
    .unwrap();
    load_links(&mut engine, &overlay, "link", Metric::HopCount);
    engine.run_to_quiescence().unwrap();

    // Oracle: S has a two-hop entry for D iff some neighbor Z of S has D as
    // a neighbor.
    for (node, tuple) in engine.results("twoHop") {
        let s = tuple.get(0).unwrap().as_addr().unwrap();
        let d = tuple.get(1).unwrap().as_addr().unwrap();
        assert_eq!(node, s, "results live at their location specifier");
        let ok = overlay
            .graph
            .neighbors(s)
            .any(|z| overlay.graph.has_link(z, d));
        assert!(ok, "twoHop({s},{d}) has no witness in the overlay");
    }
    assert!(engine.result_count("twoHop") > 0);
}

#[test]
fn centralized_and_distributed_agree_on_the_same_overlay() {
    let overlay = sparse_overlay();
    let program = programs::shortest_path("");
    let query_plan = plan(&program).unwrap();
    let mut engine = DistributedEngine::new(
        overlay.graph.clone(),
        &[query_plan],
        EngineConfig::default(),
    )
    .unwrap();
    load_links(&mut engine, &overlay, "link", Metric::Reliability);

    let mut evaluator = Evaluator::new(&program).unwrap();
    for l in overlay.links() {
        evaluator.insert_fact(
            "link",
            Tuple::new(vec![
                Value::Addr(l.src),
                Value::Addr(l.dst),
                Value::Float(l.cost(Metric::Reliability)),
            ]),
        );
    }

    engine.run_to_quiescence().unwrap();
    evaluator.run(Strategy::Pipelined).unwrap();

    let mut distributed: Vec<Tuple> = engine
        .results("shortestPath")
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let mut centralized = evaluator.results("shortestPath");
    distributed.sort();
    centralized.sort();
    assert_eq!(distributed, centralized);
}

#[test]
fn distance_vector_program_runs_on_the_overlay() {
    let overlay = small_overlay();
    let query_plan = plan(&programs::distance_vector("", 12)).unwrap();
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    let mut engine = DistributedEngine::new(overlay.graph.clone(), &[query_plan], config).unwrap();
    load_links(&mut engine, &overlay, "link", Metric::HopCount);
    engine.run_to_quiescence().unwrap();
    let n = overlay.node_count();
    // Every node learns a best route to every other node (self-routes may
    // also exist via cycles).
    assert!(engine.result_count("bestRoute") >= n * (n - 1));
    // Next hops are always direct neighbors.
    for (node, tuple) in engine.results("bestRoute") {
        let next = tuple.get(2).unwrap().as_addr().unwrap();
        if next != node {
            assert!(overlay.graph.has_link(node, next));
        }
    }
}

#[test]
fn magic_destination_variant_limits_results() {
    let overlay = small_overlay();
    let program = programs::shortest_path_magic_dst("");
    let query_plan = plan(&program).unwrap();
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    let mut engine = DistributedEngine::new(overlay.graph.clone(), &[query_plan], config).unwrap();
    load_links(&mut engine, &overlay, "link", Metric::HopCount);
    // Only destination 3 is of interest: the magic table lives at the
    // destination (its location specifier is @D), so it is seeded there.
    let dst = NodeAddr(3);
    engine
        .insert_base(dst, "magicDst", Tuple::new(vec![Value::Addr(dst)]))
        .unwrap();
    engine.run_to_quiescence().unwrap();
    let n = overlay.node_count();
    // Exactly one shortest path per source towards the magic destination.
    assert_eq!(engine.result_count("shortestPath"), n - 1);
    for (_, tuple) in engine.results("shortestPath") {
        assert_eq!(tuple.get(1), Some(&Value::Addr(dst)));
    }
    // And it is far cheaper than the all-pairs run on the same overlay.
    let all_pairs_plan = plan(&programs::shortest_path("ap")).unwrap();
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    let mut all_pairs =
        DistributedEngine::new(overlay.graph.clone(), &[all_pairs_plan], config).unwrap();
    load_links(&mut all_pairs, &overlay, "link_ap", Metric::HopCount);
    all_pairs.run_to_quiescence().unwrap();
    assert!(engine.stats().total_bytes() < all_pairs.stats().total_bytes());
}
