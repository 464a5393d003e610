//! A single node's engine: the per-node half of the P2 dataflow.
//!
//! Every network node runs the same plan over its own store, through the
//! same evaluation kernel as the centralized evaluator
//! ([`ndlog_runtime::Kernel`], addressed with this node). Tuples arrive
//! either from local base-data changes or from the network; insertions are
//! processed with pipelined semi-naive evaluation, the work queue fired as
//! delta batches with timestamp-guarded joins, and derivations whose
//! location specifier names another node come out of the kernel's outbox
//! to be sent along the corresponding link. Deletions take the DRed path
//! instead (`ndlog_runtime::dred`): any tuple actually removed from the
//! local store seeds an over-delete of its local downstream closure —
//! shipping deletion derivations headed at other nodes — followed by
//! re-derivation of the survivors, so retractions stay exact whatever the
//! derivation counts say.
//!
//! What the node adds to the kernel: outbound routing with hold/flush
//! buffers, soft-state expiry, crash/refire, and the wire-buffer arena.
//! It also implements the per-node halves of the paper's optimizations:
//!
//! * **aggregate selections** (Section 5.1.1): an insertion into a relation
//!   with an inferred monotonic aggregate selection is pruned (by the
//!   kernel) unless it is strictly better than the node's current
//!   aggregate for its group, so only improvements are stored, extended
//!   and propagated;
//! * **periodic aggregate selections**: outbound tuples of such relations
//!   are buffered and, on a periodic flush, only the best tuple per
//!   (destination, group) is actually sent;
//! * **opportunistic message sharing** (Section 5.2): all outbound tuples
//!   are delayed briefly so the engine can combine tuples that share
//!   attribute values into one message;
//! * **propagation blocking**, used by the query-result caching experiment
//!   to model a node answering from its cache instead of forwarding an
//!   exploration.

use crate::exec::arena::{ArenaStats, DeltaArena};
use crate::plan::QueryPlan;
use ndlog_lang::aggsel::AggSelectionSpec;
use ndlog_net::sim::SimTime;
use ndlog_net::NodeAddr;
use ndlog_runtime::store::located_relations;
use ndlog_runtime::{
    AggregateView, CompiledStrand, EvalError, EvalStats, Kernel, Rel, Sign, Store, TupleDelta,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Per-node configuration (shared by all nodes in an experiment except for
/// the blocked-relation set, which the caching experiment varies per node).
#[derive(Debug, Clone, Default)]
pub struct NodeConfig {
    /// Enable aggregate-selection pruning.
    pub aggregate_selections: bool,
    /// Buffer outbound tuples of selection relations and flush them
    /// periodically (the *periodic aggregate selections* variant).
    pub periodic_flush: Option<SimTime>,
    /// Delay all outbound tuples by this long to create message-sharing
    /// opportunities (Section 5.2; the paper uses 300 ms).
    pub sharing_delay: Option<SimTime>,
    /// Relations whose outbound propagation from this node is suppressed
    /// (query-result caching: this node answers from its cache instead).
    pub blocked_relations: BTreeSet<String>,
    /// Relations whose changes should be reported to the distributed engine
    /// for convergence tracking.
    pub tracked_relations: BTreeSet<String>,
}

/// What one processing step produced.
#[derive(Debug, Default)]
pub struct ProcessOutput {
    /// Outbound deltas grouped by destination node.
    pub outbound: BTreeMap<NodeAddr, Vec<TupleDelta>>,
    /// Visibility transitions of tracked relations, in store order.
    pub changes: Vec<TupleDelta>,
    /// Whether the node buffered outbound tuples and needs a flush timer.
    pub request_flush: bool,
}

/// The per-node engine.
pub struct NodeEngine {
    addr: NodeAddr,
    config: NodeConfig,
    /// Store, strands, views, queue, DRed and stats. Its tap is subscribed
    /// to the tracked relations: what it records is the change report.
    kernel: Kernel,
    /// The aggregate selections of the plans, by relation handle.
    selections: Vec<(Rel, AggSelectionSpec)>,
    /// `config.blocked_relations`, resolved to handles.
    blocked: Vec<Rel>,
    /// Outbound deltas held for periodic flush / message sharing.
    held: Vec<(NodeAddr, TupleDelta)>,
    /// Pool of reusable wire-payload buffers: delivered payloads are
    /// recycled here after ingestion and the outbound path rents from it,
    /// so message buffers circulate instead of being reallocated (see
    /// `crate::exec::arena`).
    arena: DeltaArena,
}

impl NodeEngine {
    /// Build a node engine for a set of plans (one per concurrent query).
    /// `strands` is the concatenation of all plans' strands, shared across
    /// nodes.
    pub fn new(
        addr: NodeAddr,
        plans: &[QueryPlan],
        strands: Arc<Vec<CompiledStrand>>,
        config: NodeConfig,
    ) -> Result<Self, String> {
        let mut store = Store::new();
        let mut views = Vec::new();
        let mut selections = Vec::new();
        for plan in plans {
            store.add_program(&plan.program);
            for rule in &plan.aggregate_rules {
                views.push(AggregateView::from_rule(rule)?);
            }
        }
        // Every tuple this node stores of a located relation is located
        // here, so those relations' indexes leave column 0 out (the kernel
        // declares the indexes after this).
        store.set_location(addr, &located_relations(plans.iter().map(|p| &p.program)));
        for plan in plans {
            for sel in &plan.selections {
                let Some(view_idx) = views
                    .iter()
                    .position(|v| v.head_relation() == sel.aggregate_relation)
                else {
                    return Err(format!(
                        "aggregate selection on {} has no matching aggregate view",
                        sel.relation
                    ));
                };
                selections.push((sel.clone(), view_idx));
            }
        }
        let by_relation: Vec<(Rel, AggSelectionSpec)> = selections
            .iter()
            .map(|(sel, _)| (Rel::new(&sel.relation), sel.clone()))
            .collect();
        let pruning = if config.aggregate_selections {
            selections
        } else {
            Vec::new()
        };
        let mut kernel = Kernel::new(store, strands, views, pruning, Some(addr));
        for relation in &config.tracked_relations {
            kernel.tap_mut().subscribe(relation);
        }
        let blocked = config.blocked_relations.iter().map(Rel::from).collect();
        Ok(NodeEngine {
            addr,
            config,
            kernel,
            selections: by_relation,
            blocked,
            held: Vec::new(),
            arena: DeltaArena::default(),
        })
    }

    /// This node's address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// The node's store (for inspection).
    pub fn store(&self) -> &Store {
        self.kernel.store()
    }

    /// Number of insertions pruned by aggregate selections so far.
    pub fn pruned(&self) -> u64 {
        self.kernel.pruned()
    }

    /// Cumulative evaluation statistics: processed deltas, derivations, and
    /// the probe/scan/tuples-examined counters that quantify computation
    /// overhead (the per-node counterpart of the network byte accounting).
    /// Probes are counted at both granularities — `logical_probes` per
    /// binding environment and `distinct_probes` for the bucket lookups
    /// actually executed after key-grouped probe sharing; both are
    /// deterministic for a given event order, so they participate in the
    /// bitwise-identity checks across executor thread counts.
    pub fn eval_stats(&self) -> EvalStats {
        self.kernel.stats()
    }

    /// Advance the node's logical clock (for soft-state expiry).
    pub fn set_time(&mut self, now_micros: u64) {
        self.kernel.set_time(now_micros);
    }

    /// Accept deltas arriving from the network (or from local base-data
    /// changes). They are applied to the store and queued; call
    /// [`NodeEngine::process`] to run them to a local fixpoint. The
    /// drained payload buffer is recycled into this node's arena, closing
    /// the zero-copy loop: the vector allocated by some sender's outbound
    /// path becomes one of this node's future outbound batches.
    pub fn receive(&mut self, mut deltas: Vec<TupleDelta>) {
        let payload_len = deltas.len();
        for delta in deltas.drain(..) {
            self.kernel.ingest(delta);
        }
        self.arena.recycle(payload_len, deltas);
    }

    /// This node's wire-buffer pool counters (meaningful summed across all
    /// nodes — buffers rent at senders and recycle at receivers).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Expire soft-state tuples; the expired tuples seed the next DRed
    /// pass (they are already removed from the store, and an expiry is
    /// authoritative — never re-derived).
    pub fn expire_soft_state(&mut self, now_micros: u64) {
        self.kernel.expire(now_micros);
    }

    /// Crash the node: all volatile state — stored tuples, aggregate-view
    /// groups, the evaluation queue, pending deletions and held outbound
    /// tuples — is lost, exactly as a process restart would lose it.
    /// Tracked relations see an explicit retraction of every stored tuple
    /// so downstream result logs stay exact; sequence numbers and the
    /// logical clock survive (a rejoining node must not travel back in
    /// time). Returns the tracked-relation retractions.
    pub fn crash_reset(&mut self) -> Vec<TupleDelta> {
        self.kernel.clear();
        self.held.clear();
        self.kernel.drain_tap()
    }

    /// Queue every stored tuple for re-firing with its original stored
    /// timestamp. Joins fire once per pair (the member with the larger
    /// timestamp sees the smaller one, never vice versa — the pipelined
    /// visibility rule), so one refire pass re-derives the node's current
    /// conclusions without duplicating derivation pairs. Re-derived local
    /// conclusions are absorbed as duplicates (which refreshes their
    /// soft-state expiry); remote conclusions are re-sent — exactly the
    /// repair traffic a soft-state refresh cycle pays, and what heals
    /// receivers that lost the original message.
    pub fn refresh_refire(&mut self) {
        let store = self.kernel.store();
        let entries: Vec<(TupleDelta, u64)> = store
            .relations()
            .flat_map(|(name, rel)| {
                rel.iter()
                    .map(move |s| (TupleDelta::insert(name, s.tuple.clone()), s.seq))
            })
            .collect();
        for (delta, seq) in entries {
            self.kernel.enqueue(delta, seq);
        }
    }

    /// Run queued work to a local fixpoint, producing outbound messages and
    /// tracked-relation changes (see [`Kernel::run_pipelined`]). Remote
    /// derivations leave the kernel's outbox in production order; each is
    /// dropped if its relation is blocked here, held for a flush when
    /// message sharing or a periodic selection applies, and otherwise
    /// appended to its destination's arena-rented outbound batch.
    pub fn process(&mut self) -> Result<ProcessOutput, EvalError> {
        self.kernel.run_pipelined()?;
        let mut outbound: BTreeMap<NodeAddr, Vec<TupleDelta>> = BTreeMap::new();
        let mut request_flush = false;
        for (dest, delta) in self.kernel.take_outbox() {
            if self.blocked.contains(&delta.relation) {
                continue;
            }
            let hold_for_sharing = self.config.sharing_delay.is_some();
            let hold_for_periodic = self.config.periodic_flush.is_some()
                && self
                    .selections
                    .iter()
                    .any(|(relation, _)| *relation == delta.relation);
            if hold_for_sharing || hold_for_periodic {
                self.held.push((dest, delta));
                request_flush = true;
            } else {
                outbound
                    .entry(dest)
                    .or_insert_with(|| self.arena.rent())
                    .push(delta);
            }
        }
        Ok(ProcessOutput {
            outbound,
            changes: self.kernel.drain_tap(),
            request_flush,
        })
    }

    /// The flush interval currently in effect (sharing delay takes
    /// precedence over the periodic-selection interval when both are set,
    /// since it is the shorter-lived buffer in the paper's experiments).
    pub fn flush_interval(&self) -> Option<SimTime> {
        self.config.sharing_delay.or(self.config.periodic_flush)
    }

    /// Flush held outbound tuples.
    ///
    /// For relations under a monotonic aggregate selection, only the best
    /// held insertion per (destination, group) is sent — the *periodic
    /// aggregate selections* saving. Buffers containing deletions for a
    /// group are flushed verbatim to preserve FIFO correctness.
    ///
    /// Decisions are made over borrowed entries, then the survivors are
    /// *moved* out of the held buffer into arena-rented wire buffers — the
    /// flush tail allocates no tuples and clones no deltas.
    pub fn flush(&mut self) -> BTreeMap<NodeAddr, Vec<TupleDelta>> {
        let held = std::mem::take(&mut self.held);
        // Group keys that contain any deletion are exempt from deduplication.
        let mut has_delete: BTreeSet<(NodeAddr, Rel, Vec<ndlog_lang::Value>)> = BTreeSet::new();
        for (dest, delta) in &held {
            if delta.sign == Sign::Delete {
                if let Some(key) = self.group_key(delta) {
                    has_delete.insert((*dest, delta.relation, key));
                }
            }
        }
        // Decide each entry's fate: sent verbatim, or competing for best
        // insertion per (dest, relation, group).
        let mut verbatim = vec![false; held.len()];
        let mut best: BTreeMap<(NodeAddr, Rel, Vec<ndlog_lang::Value>), (usize, f64)> =
            BTreeMap::new();
        for (idx, (dest, delta)) in held.iter().enumerate() {
            let Some(sel) = self.selection_for(delta.relation) else {
                verbatim[idx] = true;
                continue;
            };
            if delta.sign == Sign::Delete {
                verbatim[idx] = true;
                continue;
            }
            let Some(key) = self.group_key(delta) else {
                verbatim[idx] = true;
                continue;
            };
            let full_key = (*dest, delta.relation, key);
            if has_delete.contains(&full_key) {
                verbatim[idx] = true;
                continue;
            }
            let value = delta
                .tuple
                .get(sel.value_col)
                .and_then(|v| v.as_f64())
                .unwrap_or(f64::INFINITY);
            match best.get(&full_key) {
                Some((_, current)) if !sel.is_better(value, *current) => {}
                _ => {
                    best.insert(full_key, (idx, value));
                }
            }
        }
        let winners: BTreeSet<usize> = best.into_values().map(|(idx, _)| idx).collect();
        let mut out: BTreeMap<NodeAddr, Vec<TupleDelta>> = BTreeMap::new();
        for (idx, (dest, delta)) in held.into_iter().enumerate() {
            if verbatim[idx] || winners.contains(&idx) {
                out.entry(dest)
                    .or_insert_with(|| self.arena.rent())
                    .push(delta);
            }
        }
        out
    }

    fn selection_for(&self, relation: Rel) -> Option<&AggSelectionSpec> {
        self.selections
            .iter()
            .find(|(r, _)| *r == relation)
            .map(|(_, sel)| sel)
    }

    fn group_key(&self, delta: &TupleDelta) -> Option<Vec<ndlog_lang::Value>> {
        let sel = self.selection_for(delta.relation)?;
        if sel.group_cols.iter().any(|&c| delta.tuple.get(c).is_none()) {
            return None;
        }
        Some(delta.tuple.project(&sel.group_cols))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan;
    use ndlog_lang::{programs, Value};
    use ndlog_runtime::Tuple;

    fn addr(i: u32) -> Value {
        Value::addr(i)
    }

    fn link(s: u32, d: u32, c: f64) -> Tuple {
        Tuple::new(vec![addr(s), addr(d), Value::Float(c)])
    }

    fn make_node(node: u32, config: NodeConfig) -> NodeEngine {
        let plan = plan(&programs::shortest_path("")).unwrap();
        let strands = Arc::new(plan.strands.clone());
        NodeEngine::new(NodeAddr(node), &[plan], strands, config).unwrap()
    }

    #[test]
    fn one_hop_path_stays_local_and_transfer_goes_remote() {
        let mut node = make_node(0, NodeConfig::default());
        node.receive(vec![TupleDelta::insert("link", link(0, 1, 5.0))]);
        let out = node.process().unwrap();
        // sp1 derives path(0,1,...) locally; sp2a derives sp2_xd(@1, @0, 5)
        // which must be shipped to node 1.
        assert_eq!(node.store().count("path"), 1);
        assert!(out.outbound.contains_key(&NodeAddr(1)));
        let to_1 = &out.outbound[&NodeAddr(1)];
        assert!(to_1.iter().any(|d| d.relation == "path_sp2_xd"));
        assert!(to_1.iter().all(|d| d.tuple.location() == Some(NodeAddr(1))));
    }

    #[test]
    fn aggregate_selection_prunes_worse_paths() {
        let config = NodeConfig {
            aggregate_selections: true,
            ..Default::default()
        };
        let mut node = make_node(0, config);
        let path = |z: u32, c: f64| {
            Tuple::new(vec![
                addr(0),
                addr(9),
                addr(z),
                Value::list(vec![addr(0), addr(z), addr(9)]),
                Value::Float(c),
            ])
        };
        node.receive(vec![TupleDelta::insert("path", path(1, 5.0))]);
        node.process().unwrap();
        // The aggregate governing the selection is the stored spCost.
        let sp_cost = |c: f64| vec![Tuple::new(vec![addr(0), addr(9), Value::Float(c)])];
        assert_eq!(node.store().count("path"), 1);
        assert_eq!(node.store().tuples("spCost"), sp_cost(5.0));
        // A worse path for the same (S, D) group is pruned entirely.
        node.receive(vec![TupleDelta::insert("path", path(2, 7.0))]);
        node.process().unwrap();
        assert_eq!(node.store().count("path"), 1);
        assert_eq!(node.pruned(), 1);
        // A better one replaces the aggregate and is stored.
        node.receive(vec![TupleDelta::insert("path", path(3, 2.0))]);
        node.process().unwrap();
        assert_eq!(node.store().count("path"), 2);
        assert_eq!(node.store().tuples("spCost"), sp_cost(2.0));
        // The shortestPath result reflects the best cost.
        let sp = node.store().tuples("shortestPath");
        assert_eq!(sp.len(), 1);
        assert_eq!(sp[0].get(3), Some(&Value::Float(2.0)));
    }

    #[test]
    fn without_selections_all_paths_are_stored() {
        let mut node = make_node(0, NodeConfig::default());
        let path = |z: u32, c: f64| {
            Tuple::new(vec![
                addr(0),
                addr(9),
                addr(z),
                Value::list(vec![addr(0), addr(z), addr(9)]),
                Value::Float(c),
            ])
        };
        node.receive(vec![
            TupleDelta::insert("path", path(1, 5.0)),
            TupleDelta::insert("path", path(2, 7.0)),
        ]);
        node.process().unwrap();
        assert_eq!(node.store().count("path"), 2);
        assert_eq!(node.pruned(), 0);
    }

    #[test]
    fn tracked_relations_report_changes() {
        let config = NodeConfig {
            tracked_relations: ["shortestPath".to_string()].into_iter().collect(),
            ..Default::default()
        };
        let mut node = make_node(0, config);
        node.receive(vec![
            TupleDelta::insert("link", link(0, 1, 5.0)),
            TupleDelta::insert(
                "path_sp2_xd",
                Tuple::new(vec![addr(0), addr(1), Value::Float(5.0)]),
            ),
        ]);
        let events = node.process().unwrap().changes;
        assert!(events
            .iter()
            .any(|d| d.relation == "shortestPath" && d.sign == Sign::Insert));
        assert!(events.iter().all(|d| d.relation == "shortestPath"));

        // Deleting the link retracts the derived shortest path: the
        // result log sees the exact retraction, not a silent disappearance.
        node.receive(vec![TupleDelta::delete("link", link(0, 1, 5.0))]);
        let retractions = node.process().unwrap().changes;
        assert!(retractions
            .iter()
            .any(|d| d.relation == "shortestPath" && d.sign == Sign::Delete));
        assert!(node.store().tuples("shortestPath").is_empty());
    }

    #[test]
    fn periodic_flush_holds_and_dedups_outbound_paths() {
        let config = NodeConfig {
            aggregate_selections: true,
            periodic_flush: Some(100_000),
            ..Default::default()
        };
        // This node (1) stores paths to destination 9 and ships extension
        // candidates to its neighbor 0.
        let plan = plan(&programs::shortest_path("")).unwrap();
        let strands = Arc::new(plan.strands.clone());
        let mut node = NodeEngine::new(NodeAddr(1), &[plan], strands, config).unwrap();
        // Neighbor relationship: node 1 knows the reverse link and transfer
        // tuple for node 0.
        node.receive(vec![
            TupleDelta::insert("link", link(1, 0, 1.0)),
            TupleDelta::insert(
                "path_sp2_xd",
                Tuple::new(vec![addr(1), addr(0), Value::Float(1.0)]),
            ),
        ]);
        node.process().unwrap();
        // Two successively better paths to 9 (via different next hops, so no
        // primary-key replacement) arrive within one flush window.
        let path = |z: u32, c: f64| {
            Tuple::new(vec![
                addr(1),
                addr(9),
                addr(z),
                Value::list(vec![addr(1), addr(z), addr(9)]),
                Value::Float(c),
            ])
        };
        node.receive(vec![TupleDelta::insert("path", path(2, 5.0))]);
        let out1 = node.process().unwrap();
        node.receive(vec![TupleDelta::insert("path", path(3, 3.0))]);
        let out2 = node.process().unwrap();
        // Nothing was sent immediately; a flush was requested.
        assert!(out1.outbound.is_empty() && out2.outbound.is_empty());
        assert!(out1.request_flush);
        // The flush sends only the better of the two buffered extensions.
        let flushed = node.flush();
        let to_0 = &flushed[&NodeAddr(0)];
        let path_msgs: Vec<_> = to_0.iter().filter(|d| d.relation == "path").collect();
        assert_eq!(path_msgs.len(), 1);
        assert_eq!(path_msgs[0].tuple.get(4), Some(&Value::Float(4.0)));
        // Flushing again sends nothing.
        assert!(node.flush().is_empty());
    }

    #[test]
    fn sharing_delay_holds_all_outbound() {
        let config = NodeConfig {
            sharing_delay: Some(300_000),
            ..Default::default()
        };
        let mut node = make_node(0, config);
        node.receive(vec![TupleDelta::insert("link", link(0, 1, 5.0))]);
        let out = node.process().unwrap();
        assert!(out.outbound.is_empty());
        assert!(out.request_flush);
        let flushed = node.flush();
        assert!(flushed.contains_key(&NodeAddr(1)));
        assert_eq!(node.flush_interval(), Some(300_000));
    }

    #[test]
    fn blocked_relations_are_not_propagated() {
        let config = NodeConfig {
            blocked_relations: ["path_sp2_xd".to_string()].into_iter().collect(),
            ..Default::default()
        };
        let mut node = make_node(0, config);
        node.receive(vec![TupleDelta::insert("link", link(0, 1, 5.0))]);
        let out = node.process().unwrap();
        assert!(
            !out.outbound
                .values()
                .flatten()
                .any(|d| d.relation == "path_sp2_xd"),
            "blocked relation must not leave the node"
        );
    }

    #[test]
    fn soft_state_expiry_queues_deletions() {
        let program = ndlog_lang::parse_program(
            r#"
            materialize(ping, keys(1,2), ttl(1)).
            materialize(alive, keys(1,2)).
            a1 alive(@S,@D) :- ping(@S,@D).
            "#,
        )
        .unwrap();
        let plan = plan(&program).unwrap();
        let strands = Arc::new(plan.strands.clone());
        let mut node =
            NodeEngine::new(NodeAddr(0), &[plan], strands, NodeConfig::default()).unwrap();
        node.receive(vec![TupleDelta::insert(
            "ping",
            Tuple::new(vec![addr(0), addr(1)]),
        )]);
        node.process().unwrap();
        assert_eq!(node.store().count("alive"), 1);
        node.expire_soft_state(2_000_000);
        node.process().unwrap();
        assert_eq!(node.store().count("ping"), 0);
        assert_eq!(node.store().count("alive"), 0, "derived tuple retracted");
    }

    #[test]
    fn duplicate_source_leaves_no_stale_aggregate_output() {
        // b(5) duplicates a(5)'s cost tuple, which refreshes the view's
        // output best(5) without deriving it again. Were the refresh
        // counted, best(5) would hold two derivations, the view's
        // retraction of it when a(3) improves the group would only
        // decrement the count, and best(5) would survive next to best(3).
        // Both engines run one kernel and must end with best(3) alone.
        let program = ndlog_lang::parse_program(
            r#"
            c1 cost(@S,@D,C) :- a(@S,@D,C).
            c2 cost(@S,@D,C) :- b(@S,@D,C).
            m1 best(@S,@D,min<C>) :- cost(@S,@D,C).
            "#,
        )
        .unwrap();
        let fact = |c: i64| Tuple::new(vec![addr(0), addr(0), Value::Int(c)]);
        let mut eval = ndlog_runtime::Evaluator::new(&program).unwrap();
        let plan = plan(&program).unwrap();
        let strands = Arc::new(plan.strands.clone());
        let mut node =
            NodeEngine::new(NodeAddr(0), &[plan], strands, NodeConfig::default()).unwrap();
        for (relation, cost) in [("a", 5), ("b", 5), ("a", 3)] {
            eval.update(TupleDelta::insert(relation, fact(cost)))
                .unwrap();
            node.receive(vec![TupleDelta::insert(relation, fact(cost))]);
            node.process().unwrap();
        }
        assert_eq!(eval.results("best"), vec![fact(3)]);
        assert_eq!(node.store().tuples("best"), vec![fact(3)]);
    }
}
