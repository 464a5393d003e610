//! Property-based tests (proptest) for the core invariants:
//!
//! * **Theorem 1** — SN, BSN and PSN compute the same fixpoint on random
//!   graphs;
//! * **Theorem 3** — applying a random sequence of insertions and deletions
//!   incrementally yields the same state as evaluating the final base data
//!   from scratch;
//! * aggregate views always equal a from-scratch recomputation of the
//!   aggregate over their inputs;
//! * parsing is stable under pretty-printing (display → parse round-trip);
//! * link-restricted programs localize to single-site rule bodies.

use ndlog_lang::localize::{is_localized, localize};
use ndlog_lang::{parse_program, programs, Value};
use ndlog_runtime::{AggregateView, Evaluator, Strategy as EvalStrategy, Tuple, TupleDelta};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A random directed edge list over `n` nodes (no self-loops).
fn edges_strategy(max_nodes: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32, u8)>> {
    (2..=max_nodes).prop_flat_map(move |n| {
        prop::collection::vec(
            (0..n, 0..n, 1u8..10u8).prop_filter("no self-loops", |(a, b, _)| a != b),
            1..=max_edges,
        )
    })
}

fn link(a: u32, b: u32, c: f64) -> Tuple {
    Tuple::new(vec![Value::addr(a), Value::addr(b), Value::Float(c)])
}

fn run_reachability(edges: &[(u32, u32, u8)], strategy: EvalStrategy) -> BTreeSet<Tuple> {
    let program = programs::reachability("");
    let mut eval = Evaluator::new(&program).unwrap();
    for &(a, b, c) in edges {
        eval.insert_fact("link", link(a, b, f64::from(c)));
    }
    eval.run(strategy).unwrap();
    eval.results("reachable").into_iter().collect()
}

/// Oracle: transitive closure by iterated squaring over the edge set.
fn closure_oracle(edges: &[(u32, u32, u8)]) -> BTreeSet<(u32, u32)> {
    let mut reach: BTreeSet<(u32, u32)> = edges.iter().map(|&(a, b, _)| (a, b)).collect();
    loop {
        let mut next = reach.clone();
        for &(a, b) in &reach {
            for &(c, d) in &reach {
                if b == c {
                    next.insert((a, d));
                }
            }
        }
        if next == reach {
            return reach;
        }
        reach = next;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 1: the three evaluation strategies produce identical result
    /// sets, and they match an independent transitive-closure oracle.
    #[test]
    fn theorem1_strategies_agree_on_random_graphs(edges in edges_strategy(7, 14)) {
        let psn = run_reachability(&edges, EvalStrategy::Pipelined);
        let sn = run_reachability(&edges, EvalStrategy::SemiNaive);
        let bsn = run_reachability(&edges, EvalStrategy::Buffered { batch: 2 });
        prop_assert_eq!(&psn, &sn);
        prop_assert_eq!(&psn, &bsn);

        let oracle = closure_oracle(&edges);
        let computed: BTreeSet<(u32, u32)> = psn
            .iter()
            .map(|t| {
                (
                    t.get(0).unwrap().as_addr().unwrap().0,
                    t.get(1).unwrap().as_addr().unwrap().0,
                )
            })
            .collect();
        prop_assert_eq!(computed, oracle);
    }

    /// Theorem 3: incremental maintenance of a random update sequence ends
    /// in the same state as evaluating the final base data from scratch.
    #[test]
    fn theorem3_incremental_equals_from_scratch(
        initial in edges_strategy(6, 10),
        updates in prop::collection::vec((0u32..6, 0u32..6, 1u8..10u8, prop::bool::ANY), 1..8),
    ) {
        let program = programs::reachability("");
        let mut incremental = Evaluator::new(&program).unwrap();
        let mut base: BTreeSet<(u32, u32, u8)> = BTreeSet::new();
        for &(a, b, c) in &initial {
            if base.insert((a, b, c)) {
                incremental.insert_fact("link", link(a, b, f64::from(c)));
            }
        }
        incremental.run(EvalStrategy::Pipelined).unwrap();

        for &(a, b, c, insert) in &updates {
            if a == b {
                continue;
            }
            if insert {
                if base.insert((a, b, c)) {
                    incremental.update(TupleDelta::insert("link", link(a, b, f64::from(c)))).unwrap();
                }
            } else if base.remove(&(a, b, c)) {
                incremental.update(TupleDelta::delete("link", link(a, b, f64::from(c)))).unwrap();
            }
        }

        let mut scratch = Evaluator::new(&program).unwrap();
        for &(a, b, c) in &base {
            scratch.insert_fact("link", link(a, b, f64::from(c)));
        }
        scratch.run(EvalStrategy::Pipelined).unwrap();

        let inc: BTreeSet<Tuple> = incremental.results("reachable").into_iter().collect();
        let scr: BTreeSet<Tuple> = scratch.results("reachable").into_iter().collect();
        prop_assert_eq!(inc, scr);
    }

    /// The incremental aggregate view equals a from-scratch recomputation
    /// over whatever inputs remain after a random insert/delete sequence.
    #[test]
    fn aggregate_view_matches_recomputation(
        ops in prop::collection::vec((0u32..4, 1i64..30, prop::bool::ANY), 1..40),
    ) {
        let rule = parse_program("a best(@G, min<C>) :- obs(@G, C).").unwrap().rules[0].clone();
        let mut view = AggregateView::from_rule(&rule).unwrap();
        let store = ndlog_runtime::Store::new();
        let mut live: Vec<(u32, i64)> = Vec::new();
        for &(g, c, insert) in &ops {
            let tuple = Tuple::new(vec![Value::addr(g), Value::Int(c)]);
            if insert {
                live.push((g, c));
                view.apply(&store, &TupleDelta::insert("obs", tuple));
            } else if let Some(pos) = live.iter().position(|&(lg, lc)| lg == g && lc == c) {
                live.remove(pos);
                view.apply(&store, &TupleDelta::delete("obs", tuple));
            } else {
                // Deleting something never inserted must be a no-op.
                view.apply(&store, &TupleDelta::delete("obs", tuple));
            }
        }
        for g in 0u32..4 {
            let expected = live.iter().filter(|&&(lg, _)| lg == g).map(|&(_, c)| c).min();
            let probe = Tuple::new(vec![Value::addr(g), Value::Int(0)]);
            let actual = view.current_for(&probe).and_then(|v| v.as_int());
            prop_assert_eq!(actual, expected);
        }
    }

    /// Pretty-printing then re-parsing a program yields the same rules.
    #[test]
    fn parser_display_roundtrip(seed in 0u32..4) {
        let program = match seed {
            0 => programs::shortest_path(""),
            1 => programs::shortest_path_magic_dst("m"),
            2 => programs::shortest_path_source_routing("sd"),
            _ => programs::distance_vector("dv", 16),
        };
        let printed = program.to_string();
        let reparsed = parse_program(&printed).unwrap();
        prop_assert_eq!(program.rules, reparsed.rules);
        prop_assert_eq!(program.queries, reparsed.queries);
    }

    /// Localization always yields a program whose rule bodies are
    /// single-site, and preserves the centralized fixpoint.
    #[test]
    fn localization_preserves_results(edges in edges_strategy(6, 10)) {
        let program = programs::shortest_path("");
        let localized = localize(&program).unwrap();
        prop_assert!(is_localized(&localized));

        // Compare (source, destination, cost): when two paths tie on cost,
        // the original and localized programs may legitimately keep
        // different representative path vectors.
        let run = |p: &ndlog_lang::Program| -> BTreeSet<(Value, Value, Value)> {
            let mut eval = Evaluator::new(p).unwrap();
            for &(a, b, c) in &edges {
                eval.insert_fact("link", link(a, b, f64::from(c)));
                eval.insert_fact("link", link(b, a, f64::from(c)));
            }
            eval.run(EvalStrategy::Pipelined).unwrap();
            eval.results("shortestPath")
                .into_iter()
                .map(|t| {
                    (
                        t.get(0).unwrap().clone(),
                        t.get(1).unwrap().clone(),
                        t.get(3).unwrap().clone(),
                    )
                })
                .collect()
        };
        prop_assert_eq!(run(&program), run(&localized));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every strategy's batched run is semantics-identical to a run of
    /// one-trigger batches (`Buffered { batch: 1 }`), which fires triggers
    /// in exactly the order a tuple-at-a-time loop would: identical stores
    /// (tuples with their derivation counts, timestamps and expiries) and
    /// identical `derivations`, `redundant_derivations` and
    /// `tuples_processed`; under PSN, whose iterations are consumed
    /// triggers, `iterations` match too. The probe counters are
    /// deliberately not compared: a wide batch fires every queued delta
    /// against one store snapshot — buckets are probed before, rather than
    /// after, sibling insertions that the visibility limit hides either way
    /// — and a batch stopped by a mid-batch removal re-fires its remainder,
    /// re-counting those probes. Grouped, ungrouped and per-trigger firing
    /// of one batch are compared counter by counter at the strand level
    /// (`strand::tests::fire_batch_matches_fire_per_trigger`).
    #[test]
    fn batched_strategies_match_one_trigger_batches(
        edges in edges_strategy(6, 10),
        updates in prop::collection::vec((0u32..6, 0u32..6, 1u8..6u8, prop::bool::ANY), 0..6),
    ) {
        let program = programs::shortest_path("");
        let run = |strategy: EvalStrategy| {
            let mut eval = Evaluator::new(&program).unwrap();
            for &(a, b, c) in &edges {
                eval.insert_fact("link", link(a, b, f64::from(c)));
                eval.insert_fact("link", link(b, a, f64::from(c)));
            }
            let mut stats = eval.run(strategy).unwrap();
            // A post-fixpoint burst with deletions exercises the mid-batch
            // invalidation + DRed path.
            for &(a, b, c, insert) in &updates {
                if a == b {
                    continue;
                }
                let delta = if insert {
                    TupleDelta::insert("link", link(a, b, f64::from(c)))
                } else {
                    TupleDelta::delete("link", link(a, b, f64::from(c)))
                };
                stats += eval.update(delta).unwrap();
            }
            (eval, stats)
        };
        let (reference, reference_stats) = run(EvalStrategy::Buffered { batch: 1 });
        for strategy in [
            EvalStrategy::SemiNaive,
            EvalStrategy::Buffered { batch: 2 },
            EvalStrategy::Pipelined,
        ] {
            let (this, this_stats) = run(strategy);
            prop_assert!(
                this_stats.distinct_probes <= this_stats.logical_probes,
                "{:?}: distinct probes exceed logical", strategy
            );
            if strategy == EvalStrategy::Pipelined {
                prop_assert_eq!(
                    this_stats.iterations, reference_stats.iterations,
                    "{:?}: iteration counts diverge", strategy
                );
            }
            prop_assert_eq!(
                this_stats.tuples_processed, reference_stats.tuples_processed,
                "{:?}: processed-tuple counts diverge", strategy
            );
            prop_assert_eq!(
                this_stats.derivations, reference_stats.derivations,
                "{:?}: derivation counts diverge", strategy
            );
            prop_assert_eq!(
                this_stats.redundant_derivations, reference_stats.redundant_derivations,
                "{:?}: redundant-derivation counts diverge", strategy
            );

            prop_assert_eq!(
                this.store().current_seq(),
                reference.store().current_seq(),
                "{:?}: timestamp counters diverge", strategy
            );
            let names: Vec<String> = reference
                .store()
                .relation_names()
                .map(str::to_string)
                .collect();
            let this_names: Vec<String> = this
                .store()
                .relation_names()
                .map(str::to_string)
                .collect();
            prop_assert_eq!(&names, &this_names);
            for name in &names {
                let a: Vec<_> = this.store().relation(name).unwrap().iter().collect();
                let b: Vec<_> = reference.store().relation(name).unwrap().iter().collect();
                prop_assert_eq!(
                    a, b,
                    "{:?}: relation {} diverges from one-trigger batches",
                    strategy, name
                );
            }
        }
    }
}
