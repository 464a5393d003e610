//! Differential tests for the relation access paths.
//!
//! `Relation::lookup` answers an equality lookup through one of four
//! paths — a point lookup on the primary map, a location walk, a secondary
//! index probe with residual checks, or a scan — and every one of them
//! must return exactly what `Relation::scan_match` returns, in the same
//! (primary-key) order. The random relations below cover keyed and keyless
//! schemas, pinned and unpinned locations, mixed arities' absence and
//! numeric Int/Float conflation, deletions, key replacements and
//! visibility limits. The grouped form (`lookup_n`, which looks up once at
//! unrestricted visibility and leaves `seq_limit` to each member) must
//! account exactly like one `lookup` per member.
//!
//! Index ids are scoped to their relation (each relation interns its own
//! values), so a further test runs two relations of one store that share
//! some values and not others through every path, and checks that a value
//! stored only in the other relation finds no bucket.
//!
//! A final engine test checks what the consolidation buys on the paper's
//! shortest-path program: no per-node index signature contains the
//! location column or covers a primary key.

use ndlog_core::{DistributedEngine, EngineConfig};
use ndlog_lang::optimizer::{optimize, Pipeline};
use ndlog_lang::reorder::BodyOrder;
use ndlog_lang::{programs, Value};
use ndlog_net::topology::{LinkMetrics, Topology};
use ndlog_net::NodeAddr;
use ndlog_runtime::index::JoinStats;
use ndlog_runtime::{Relation, RelationSchema, Store, Tuple, TupleDelta};

/// A small deterministic generator (xorshift64*), so every case replays.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % bound
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// A random sorted subset of `0..arity`.
    fn columns(&mut self, arity: usize) -> Vec<usize> {
        (0..arity).filter(|_| self.chance(45)).collect()
    }
}

/// A small value domain, so lookups hit: ints, addresses, an occasional
/// float equal to an int, and short lists.
fn value(rng: &mut Rng) -> Value {
    match rng.below(10) {
        0..=4 => Value::Int(rng.below(4) as i64),
        5..=6 => Value::addr(rng.below(3) as u32),
        7 => Value::Float(rng.below(4) as f64),
        _ => Value::list((0..rng.below(3)).map(|i| Value::Int(i as i64)).collect()),
    }
}

/// A random relation: schema, optional location pin, declared signatures
/// and a history of inserts, deletions and key replacements.
fn relation(rng: &mut Rng, here: &Value) -> (Relation, usize, u64) {
    let arity = 2 + rng.below(3) as usize;
    let keys = if rng.chance(60) {
        let mut keys = rng.columns(arity);
        if keys.is_empty() {
            keys.push(0);
        }
        keys
    } else {
        Vec::new()
    };
    let mut rel = Relation::new(RelationSchema::new("r").with_keys(keys));
    let pinned = rng.chance(50);
    if pinned {
        rel.set_location(here.clone());
    }
    for _ in 0..rng.below(4) {
        rel.ensure_index(&rng.columns(arity));
    }
    if rng.chance(50) {
        rel.ensure_index(&[0]);
    }
    let mut seq = 0;
    let mut stored: Vec<Tuple> = Vec::new();
    for _ in 0..rng.below(40) {
        seq += 1;
        if !stored.is_empty() && rng.chance(20) {
            let victim = stored.swap_remove(rng.below(stored.len() as u64) as usize);
            rel.remove(&victim);
            continue;
        }
        let mut values: Vec<Value> = (0..arity).map(|_| value(rng)).collect();
        if pinned {
            values[0] = here.clone();
        }
        let tuple = Tuple::new(values);
        rel.insert(tuple.clone(), seq, 0);
        stored.retain(|t| rel.contains(t));
        stored.push(tuple);
    }
    // Indexes declared after the data must backfill.
    if rng.chance(30) {
        rel.ensure_index(&rng.columns(arity));
    }
    (rel, arity, seq)
}

/// A lookup's bound columns and values: drawn from a stored tuple (so the
/// point, walk and bucket paths find something) or at random.
fn lookup_key(rng: &mut Rng, rel: &Relation, arity: usize) -> (Vec<usize>, Vec<Value>) {
    let mut cols = match rng.below(4) {
        // Cover the primary key (a point lookup when keyed).
        0 => {
            let mut cols = rel.schema().key_columns.clone();
            cols.extend(rng.columns(arity));
            cols.sort_unstable();
            cols.dedup();
            cols
        }
        // Location only.
        1 => vec![0],
        _ => rng.columns(arity),
    };
    if rel.location().is_some() && rng.chance(50) && !cols.contains(&0) {
        cols.insert(0, 0);
    }
    let source: Vec<Value> = match rel.iter().nth(rng.below(rel.len().max(1) as u64) as usize) {
        Some(stored) if rng.chance(80) => stored.tuple.values().to_vec(),
        _ => (0..arity).map(|_| value(rng)).collect(),
    };
    let key = cols.iter().map(|&c| source[c].clone()).collect();
    (cols, key)
}

fn tuples<'r>(
    matches: impl Iterator<Item = &'r ndlog_runtime::relation::StoredTuple>,
) -> Vec<Tuple> {
    matches.map(|s| s.tuple.clone()).collect()
}

#[test]
fn every_access_path_matches_the_scan() {
    let here = Value::addr(1u32);
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let mut paths = [0usize; 3]; // point, location-only, other probes
    for _ in 0..400 {
        let (rel, arity, max_seq) = relation(&mut rng, &here);
        for _ in 0..12 {
            let (cols, key) = lookup_key(&mut rng, &rel, arity);
            let seq_limit = if rng.chance(30) {
                u64::MAX
            } else {
                rng.below(max_seq + 1)
            };
            let bound: Vec<(usize, Value)> =
                cols.iter().copied().zip(key.iter().cloned()).collect();
            let expected = tuples(rel.scan_match(&bound, seq_limit));
            let mut stats = JoinStats::default();
            let got = tuples(rel.lookup(&cols, &key, seq_limit, &mut stats));
            assert_eq!(
                got,
                expected,
                "lookup on {cols:?} = {key:?} (keys {:?}, pinned {}, seq_limit {seq_limit})",
                rel.schema().key_columns,
                rel.location().is_some()
            );
            assert_eq!(stats.logical_probes + stats.scans, 1);
            if rel.schema().key_covered_by(&cols) {
                paths[0] += 1;
                assert_eq!(stats.scans, 0, "a covered key is a point lookup");
                assert!(stats.tuples_examined <= 1);
            } else if cols == [0] && rel.location().is_some() {
                paths[1] += 1;
            } else if stats.logical_probes == 1 {
                paths[2] += 1;
            }
        }
    }
    assert!(
        paths.iter().all(|&n| n > 100),
        "every path family is exercised: {paths:?}"
    );
}

#[test]
fn grouped_lookups_account_like_one_lookup_per_member() {
    let here = Value::addr(1u32);
    let mut rng = Rng(0x51_7c_c1_b7_27_22_0a_95);
    for _ in 0..300 {
        let (rel, arity, max_seq) = relation(&mut rng, &here);
        for _ in 0..8 {
            let (cols, key) = lookup_key(&mut rng, &rel, arity);
            let limits: Vec<u64> = (0..1 + rng.below(4))
                .map(|_| rng.below(max_seq + 2))
                .collect();
            // Grouped: one lookup at unrestricted visibility, each member
            // then applying its own limit (what the batch path does).
            let mut grouped = JoinStats::default();
            let shared = rel
                .lookup_n(&cols, &key, u64::MAX, limits.len(), &mut grouped)
                .collect::<Vec<_>>();
            let mut single = JoinStats::default();
            for &limit in &limits {
                let alone = tuples(rel.lookup(&cols, &key, limit, &mut single));
                let filtered = tuples(shared.iter().copied().filter(|s| s.seq <= limit));
                assert_eq!(alone, filtered, "member view of the shared lookup");
            }
            assert_eq!(grouped.logical_probes, single.logical_probes);
            assert_eq!(grouped.scans, single.scans);
            assert_eq!(
                grouped.tuples_examined, single.tuples_examined,
                "examined counts precede the visibility filter on {cols:?}"
            );
            assert!(grouped.distinct_probes <= single.distinct_probes);
        }
    }
}

#[test]
fn interned_ids_are_scoped_to_their_relation() {
    // `a` is keyed and pinned to its node, `b` keyless and unpinned. Both
    // draw from shared small ints plus a string domain of their own, and
    // `b` is filled first, so the shared values hold different ids in the
    // two relations' interners.
    let here = Value::addr(1u32);
    let mut store = Store::new();
    store.ensure(RelationSchema::new("a").with_keys(vec![0, 1]));
    store.ensure(RelationSchema::new("b"));
    store.set_location(NodeAddr(1), &["a".to_string()].into_iter().collect());
    for cols in [&[0, 2][..], &[0, 1, 2], &[0]] {
        store.declare_index("a", cols);
    }
    for cols in [&[0][..], &[1], &[0, 2]] {
        store.declare_index("b", cols);
    }
    let mut rng = Rng(0x2f8e_11c4_9d03_b7a1);
    let own = |rng: &mut Rng, tag: &str| -> Value {
        if rng.chance(50) {
            Value::Int(rng.below(6) as i64)
        } else {
            Value::str(format!("{tag}{}", rng.below(6)))
        }
    };
    let mut seq = 0;
    for relation in ["b", "a"] {
        for _ in 0..60 {
            let tuple = match relation {
                "a" => Tuple::new(vec![here.clone(), own(&mut rng, "a"), own(&mut rng, "a")]),
                _ => Tuple::new(vec![
                    own(&mut rng, "b"),
                    own(&mut rng, "b"),
                    own(&mut rng, "b"),
                ]),
            };
            seq = store.apply(&TupleDelta::insert(relation, tuple)).seq;
        }
    }
    let a = store.relation("a").unwrap();
    let b = store.relation("b").unwrap();
    assert!(a.interned() > 0 && b.interned() > 0);

    // Every path of either relation, probed with values from both
    // domains, still equals the scan.
    let mut hits = 0;
    for rel in [a, b] {
        for _ in 0..400 {
            let mut cols = rng.columns(3);
            if rel.location().is_some() && rng.chance(50) && !cols.contains(&0) {
                cols.insert(0, 0);
            }
            let key: Vec<Value> = cols
                .iter()
                .map(|&c| match (c, rel.location()) {
                    (0, Some(here)) if rng.chance(80) => here.clone(),
                    _ => {
                        let tag = if rng.chance(50) { "a" } else { "b" };
                        own(&mut rng, tag)
                    }
                })
                .collect();
            let seq_limit = rng.below(seq + 1);
            let bound: Vec<(usize, Value)> =
                cols.iter().copied().zip(key.iter().cloned()).collect();
            let expected = tuples(rel.scan_match(&bound, seq_limit));
            let got = tuples(rel.lookup(&cols, &key, seq_limit, &mut JoinStats::default()));
            assert_eq!(
                got,
                expected,
                "{} lookup on {cols:?} = {key:?}",
                rel.schema().name
            );
            hits += usize::from(!got.is_empty());
        }
    }
    assert!(hits > 100, "lookups find tuples: {hits}");

    // A value stored only in `b` has no id in `a`: the probe of `a`'s
    // secondary index finds no bucket, so it examines nothing.
    let only_b = b
        .iter()
        .flat_map(|s| s.tuple.values().iter())
        .find(|v| v.to_string().contains('b'))
        .expect("b stores some of its own values")
        .clone();
    let mut stats = JoinStats::default();
    assert_eq!(
        a.lookup(&[0, 2], &[here.clone(), only_b], u64::MAX, &mut stats)
            .count(),
        0
    );
    assert_eq!(stats.logical_probes, 1, "answered by the index");
    assert_eq!(stats.tuples_examined, 0, "no bucket for a foreign value");
}

fn uniform_link() -> LinkMetrics {
    LinkMetrics {
        latency_ms: 2.0,
        reliability: 1.0,
        random: 1.0,
        bandwidth_bps: 10_000_000.0,
    }
}

#[test]
fn shortest_path_stores_index_neither_location_nor_primary_keys() {
    // A ring with one chord, so every node has paths to store.
    let n = 6u32;
    let mut graph = Topology::with_nodes(n as usize);
    for i in 0..n {
        graph
            .add_link(NodeAddr(i), NodeAddr((i + 1) % n), uniform_link())
            .unwrap();
    }
    graph
        .add_link(NodeAddr(0), NodeAddr(3), uniform_link())
        .unwrap();
    let pipeline = Pipeline::new(Vec::new(), Some(BodyOrder::LinkFirst));
    for program in [programs::shortest_path(""), programs::shortest_path("hops")] {
        let optimized = optimize(&program, &pipeline).unwrap();
        let plan = ndlog_core::plan(&optimized.program).unwrap();
        let link = plan
            .program
            .rules
            .iter()
            .flat_map(|r| r.body_atoms())
            .find(|a| a.name.starts_with("link"))
            .map(|a| a.name.clone())
            .unwrap();
        let mut config = EngineConfig::default();
        config.node.aggregate_selections = true;
        let mut engine =
            DistributedEngine::new(graph.clone(), std::slice::from_ref(&plan), config).unwrap();
        for (x, y, _) in graph.links() {
            for (a, b) in [(x, y), (y, x)] {
                let tuple = Tuple::new(vec![Value::Addr(a), Value::Addr(b), Value::Float(1.0)]);
                engine.insert_base(a, &link, tuple).unwrap();
            }
        }
        engine.run_to_quiescence().unwrap();
        for (addr, node) in engine.nodes() {
            let store = node.store();
            let mut signatures = 0;
            for name in store.relation_names() {
                let rel = store.relation(name).unwrap();
                assert_eq!(
                    rel.location(),
                    Some(&Value::Addr(addr)),
                    "{name} at {addr:?} is pinned to its node"
                );
                for sig in rel.index_signatures() {
                    signatures += 1;
                    assert!(
                        !sig.columns().contains(&0),
                        "{name} at {addr:?} indexes its location column: {sig:?}"
                    );
                    assert!(
                        !rel.schema().key_covered_by(sig.columns()),
                        "{name} at {addr:?} indexes its primary key: {sig:?}"
                    );
                }
            }
            // link [1], path [1] and [1, 4], and the transfer relation
            // [1].
            assert_eq!(signatures, 4, "index signatures at {addr:?}");
        }
    }
}
