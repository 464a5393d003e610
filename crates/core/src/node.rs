//! A single node's engine: the per-node half of the P2 dataflow.
//!
//! Every network node runs the same plan over its own store. Tuples arrive
//! either from local base-data changes or from the network; insertions are
//! processed with pipelined semi-naive evaluation (one tuple at a time,
//! timestamp-guarded joins), and derivations whose location specifier names
//! another node are handed back to the distributed engine to be sent along
//! the corresponding link. Deletions take the DRed path instead
//! (`ndlog_runtime::dred`): any tuple actually removed from the local
//! store seeds an over-delete of its local downstream closure — shipping
//! deletion derivations headed at other nodes — followed by re-derivation
//! of the survivors, so retractions stay exact whatever the derivation
//! counts say.
//!
//! The node also implements the per-node halves of the paper's
//! optimizations:
//!
//! * **aggregate selections** (Section 5.1.1): an insertion into a relation
//!   with an inferred monotonic aggregate selection is pruned unless it is
//!   strictly better than the node's current aggregate for its group, so
//!   only improvements are stored, extended and propagated;
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
use ndlog_runtime::batch::{BatchOutput, BatchScratch, BatchTrigger};
use ndlog_runtime::dred;
use ndlog_runtime::store::{located_relations, Applied};
use ndlog_runtime::strand::{Derivation, JoinStats};
use ndlog_runtime::{
    AggregateView, CompiledStrand, DeltaTap, EvalError, EvalStats, Sign, Store, Tuple, TupleDelta,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
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

/// A change to a tracked relation, reported to the distributed engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultChange {
    /// Relation name.
    pub relation: String,
    /// The tuple that was inserted or deleted.
    pub tuple: Tuple,
    /// Insertion or deletion.
    pub sign: Sign,
}

/// What one processing step produced.
#[derive(Debug, Default)]
pub struct ProcessOutput {
    /// Outbound deltas grouped by destination node.
    pub outbound: BTreeMap<NodeAddr, Vec<TupleDelta>>,
    /// Changes to tracked relations.
    pub changes: Vec<ResultChange>,
    /// Whether the node buffered outbound tuples and needs a flush timer.
    pub request_flush: bool,
}

/// The per-node engine.
pub struct NodeEngine {
    addr: NodeAddr,
    config: NodeConfig,
    store: Store,
    strands: Arc<Vec<CompiledStrand>>,
    views: Vec<AggregateView>,
    /// (selection, index of the aggregate view that tracks its groups).
    selections: Vec<(AggSelectionSpec, usize)>,
    /// Insert-only work queue: applied deltas whose strands have not fired.
    queue: VecDeque<(TupleDelta, u64)>,
    /// Tuples actually removed from the store (arriving deletions whose
    /// count reached zero, replacement old-halves, soft-state expiries),
    /// awaiting the next DRed over-delete/re-derive pass.
    pending_deletes: Vec<TupleDelta>,
    /// Outbound deltas held for periodic flush / message sharing.
    held: Vec<(NodeAddr, TupleDelta)>,
    changes: Vec<ResultChange>,
    /// Count of insertions pruned by aggregate selections.
    pruned: u64,
    /// Cumulative evaluation statistics (probe/scan/tuples-examined
    /// counters and processed-delta counts) for computation-overhead
    /// reporting.
    stats: EvalStats,
    /// Reusable flat buffers for batch-delta strand firing.
    scratch: BatchScratch,
    batch_out: BatchOutput,
    /// Probe signatures shared by two or more strands (across *all* of
    /// this node's query plans). Non-empty arms a per-round cross-rule
    /// probe cache, so one round's distinct `(relation, cols, key)`
    /// lookups execute once no matter how many strands share them (see
    /// `ndlog_runtime::subplan`).
    shared_sigs: Vec<(String, Vec<usize>)>,
    /// Live-query hook: records visibility transitions of subscribed
    /// relations at this node (see `ndlog_runtime::tap`).
    tap: DeltaTap,
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
        // here, so those relations' indexes leave column 0 out. Then build
        // every index the shared strands' probe plans and the views' guard
        // checks declare, once per node at construction time.
        store.set_location(addr, &located_relations(plans.iter().map(|p| &p.program)));
        store.declare_indexes(strands.iter());
        for view in &views {
            for (relation, cols) in view.index_requirements() {
                store.declare_index(&relation, &cols);
            }
        }
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
        let shared_sigs = ndlog_runtime::subplan::shared_signatures(&strands);
        Ok(NodeEngine {
            addr,
            config,
            store,
            strands,
            views,
            selections,
            queue: VecDeque::new(),
            pending_deletes: Vec::new(),
            held: Vec::new(),
            changes: Vec::new(),
            pruned: 0,
            stats: EvalStats::default(),
            scratch: BatchScratch::default(),
            batch_out: BatchOutput::default(),
            shared_sigs,
            tap: DeltaTap::new(),
            arena: DeltaArena::default(),
        })
    }

    /// This node's address.
    pub fn addr(&self) -> NodeAddr {
        self.addr
    }

    /// The live-query delta tap for this node.
    pub fn tap(&self) -> &DeltaTap {
        &self.tap
    }

    /// Mutable access to the delta tap (subscribe/unsubscribe relations).
    pub fn tap_mut(&mut self) -> &mut DeltaTap {
        &mut self.tap
    }

    /// Take the visibility transitions recorded at this node since the
    /// last drain, in store order.
    pub fn drain_tap(&mut self) -> Vec<TupleDelta> {
        self.tap.drain()
    }

    /// The node's store (for inspection).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Number of insertions pruned by aggregate selections so far.
    pub fn pruned(&self) -> u64 {
        self.pruned
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
        self.stats
    }

    /// Whether the node has unprocessed work queued.
    pub fn has_pending(&self) -> bool {
        !self.queue.is_empty() || !self.pending_deletes.is_empty()
    }

    /// Advance the node's logical clock (for soft-state expiry).
    pub fn set_time(&mut self, now_micros: u64) {
        self.store.set_time(now_micros);
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
            self.ingest(delta);
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
        let deltas = self.store.expire(now_micros);
        self.pending_deletes.extend(deltas);
    }

    /// Crash the node: all volatile state — stored tuples, aggregate-view
    /// groups, the evaluation queue, pending deletions and held outbound
    /// tuples — is lost, exactly as a process restart would lose it.
    /// Tracked relations and tap subscribers see an explicit retraction of
    /// every stored tuple so downstream result logs stay exact; sequence
    /// numbers and the logical clock survive (a rejoining node must not
    /// travel back in time). Returns the tracked-relation retractions.
    pub fn crash_reset(&mut self) -> Vec<ResultChange> {
        let names: Vec<String> = self.store.relation_names().map(str::to_string).collect();
        for name in names {
            for tuple in self.store.tuples(&name) {
                let delta = TupleDelta::delete(name.clone(), tuple);
                self.tap.record(&delta);
                if self.config.tracked_relations.contains(&name) {
                    self.changes.push(ResultChange {
                        relation: name.clone(),
                        tuple: delta.tuple.clone(),
                        sign: Sign::Delete,
                    });
                }
            }
        }
        self.store.clear_tuples();
        self.queue.clear();
        self.pending_deletes.clear();
        self.held.clear();
        for view in &mut self.views {
            view.reset();
        }
        std::mem::take(&mut self.changes)
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
        let names: Vec<String> = self.store.relation_names().map(str::to_string).collect();
        for name in names {
            let entries: Vec<(Tuple, u64)> = match self.store.relation(&name) {
                Some(rel) => rel.iter().map(|s| (s.tuple.clone(), s.seq)).collect(),
                None => continue,
            };
            for (tuple, seq) in entries {
                self.queue
                    .push_back((TupleDelta::insert(name.clone(), tuple), seq));
            }
        }
    }

    /// Returns the current aggregate value governing a selection relation
    /// group, if any (used by tests).
    pub fn current_best(&self, relation: &str, tuple: &Tuple) -> Option<ndlog_lang::Value> {
        self.selections
            .iter()
            .find(|(sel, _)| sel.relation == relation)
            .and_then(|(_, idx)| self.views[*idx].current_for(tuple))
    }

    /// Apply a delta to the local store, with aggregate-selection pruning,
    /// view maintenance and change tracking; queue whatever changed.
    fn ingest(&mut self, delta: TupleDelta) {
        // Aggregate-selection pruning: drop insertions that cannot improve
        // their group's aggregate.
        if self.config.aggregate_selections && delta.sign == Sign::Insert {
            if let Some((sel, view_idx)) = self
                .selections
                .iter()
                .find(|(sel, _)| sel.relation == delta.relation)
            {
                if let (Some(candidate), Some(current)) = (
                    delta.tuple.get(sel.value_col).and_then(|v| v.as_f64()),
                    self.views[*view_idx]
                        .current_for(&delta.tuple)
                        .and_then(|v| v.as_f64()),
                ) {
                    if !sel.is_better(candidate, current) {
                        // A re-announcement of the reigning best tuple is
                        // "not strictly better" too, but it must still
                        // reach the store so its soft-state expiry moves
                        // forward (the Duplicate outcome propagates
                        // nothing); everything else is pruned outright.
                        if self
                            .store
                            .relation(&delta.relation)
                            .is_some_and(|r| r.contains(&delta.tuple))
                        {
                            self.store.apply(&delta);
                            self.refresh_view_outputs(&delta);
                        }
                        self.pruned += 1;
                        return;
                    }
                }
            }
        }

        let effect = self.store.apply(&delta);
        // An actual removal (count reached zero, or the old half of a
        // replacement) seeds the next DRed pass instead of cascading by
        // count. The views are not fed — the pass rebuilds the affected
        // groups from the store.
        match effect.outcome {
            Applied::Absorbed => {
                // A duplicate insertion still re-exercised the derivations
                // downstream of this tuple; aggregate-view outputs emit
                // nothing when the best is unchanged, so their soft-state
                // expiry has to be moved forward here.
                if delta.sign == Sign::Insert {
                    self.refresh_view_outputs(&delta);
                }
            }
            Applied::Changed if delta.sign == Sign::Delete => self.pending_deletes.push(delta),
            Applied::Changed => self.after_store_change(delta, effect.seq),
            Applied::Replaced(old) => {
                self.pending_deletes
                    .push(TupleDelta::delete(delta.relation.clone(), old));
                self.after_store_change(delta, effect.seq);
            }
        }
    }

    /// Bookkeeping after a real insertion: tracking, view maintenance,
    /// queueing.
    /// A duplicate insertion of a view's source tuple keeps that group's
    /// aggregate derivable, so the group's current output tuple must have
    /// its soft-state expiry refreshed along with the source — the view
    /// itself emits nothing while the best is unchanged. Only outputs
    /// still present in the store are touched (a bare store insert here
    /// would bypass the tracking/queueing bookkeeping).
    fn refresh_view_outputs(&mut self, delta: &TupleDelta) {
        for view in &self.views {
            if view.source_relation() != delta.relation {
                continue;
            }
            let Some(best) = view.current_output_for(&delta.tuple) else {
                continue;
            };
            if self
                .store
                .relation(view.head_relation())
                .is_some_and(|r| r.contains(best))
            {
                self.store
                    .apply(&TupleDelta::insert(view.head_relation(), best.clone()));
            }
        }
    }

    fn after_store_change(&mut self, delta: TupleDelta, seq: u64) {
        // A propagated insert is a 0 → >0 visibility transition.
        self.tap.record(&delta);
        if self.config.tracked_relations.contains(&delta.relation) {
            self.changes.push(ResultChange {
                relation: delta.relation.clone(),
                tuple: delta.tuple.clone(),
                sign: delta.sign,
            });
        }
        // Feed aggregate views; their outputs are local (aggregate rules
        // are local rules) and are ingested recursively.
        let mut view_outputs = Vec::new();
        for view in &mut self.views {
            if view.source_relation() == delta.relation {
                view_outputs.extend(view.apply(&self.store, &delta));
            }
        }
        self.queue.push_back((delta, seq));
        for out in view_outputs {
            self.ingest(out);
        }
    }

    /// Send a derivation headed at another node along its link, honoring
    /// the blocked-relation set and the hold-for-flush buffers.
    fn route_remote(
        &mut self,
        dest: NodeAddr,
        delta: TupleDelta,
        outbound: &mut BTreeMap<NodeAddr, Vec<TupleDelta>>,
        request_flush: &mut bool,
    ) {
        if self.config.blocked_relations.contains(&delta.relation) {
            return;
        }
        let hold_for_sharing = self.config.sharing_delay.is_some();
        let hold_for_periodic = self.config.periodic_flush.is_some()
            && self
                .selections
                .iter()
                .any(|(sel, _)| sel.relation == delta.relation);
        if hold_for_sharing || hold_for_periodic {
            self.held.push((dest, delta));
            *request_flush = true;
        } else {
            outbound
                .entry(dest)
                .or_insert_with(|| self.arena.rent())
                .push(delta);
        }
    }

    /// Run one DRed pass over the pending removals: over-delete the local
    /// downstream closure (shipping deletion derivations headed at other
    /// nodes), rebuild the pinned aggregate groups, and re-ingest the
    /// surviving derivations. Remote over-deletions may over-approximate;
    /// the re-derive cascade re-ships the insertions that still hold, so
    /// the net effect at every receiver is exact.
    fn run_dred(
        &mut self,
        outbound: &mut BTreeMap<NodeAddr, Vec<TupleDelta>>,
        request_flush: &mut bool,
    ) -> Result<(), EvalError> {
        let seeds = std::mem::take(&mut self.pending_deletes);
        let mut joins = JoinStats::default();
        let mut marking = dred::over_delete(
            &mut self.store,
            &self.strands,
            &self.views,
            seeds,
            Some(self.addr),
            &mut joins,
        )?;
        // Each removal is one processed delta, and a tracked-relation
        // change the result log must see.
        self.stats.iterations += marking.removed.len();
        self.stats.tuples_processed += marking.removed.len();
        for delta in &marking.removed {
            // Every marked tuple actually left the store; re-derived
            // survivors come back through `ingest` as inserts.
            self.tap.record(delta);
            if self.config.tracked_relations.contains(&delta.relation) {
                self.changes.push(ResultChange {
                    relation: delta.relation.clone(),
                    tuple: delta.tuple.clone(),
                    sign: Sign::Delete,
                });
            }
        }
        for (dest, delta) in std::mem::take(&mut marking.remote) {
            self.route_remote(dest, delta, outbound, request_flush);
        }
        let mut inserts: Vec<TupleDelta> = Vec::new();
        for (view_idx, key) in &marking.dirty_groups {
            inserts.extend(self.views[*view_idx].rebuild_group(&self.store, key, &mut joins));
        }
        for candidate in marking.rederive_candidates() {
            inserts.extend(dred::rederive_inserts(
                &self.store,
                &self.strands,
                candidate,
                &mut joins,
            )?);
        }
        self.stats.derivations += inserts.len();
        self.stats.absorb_joins(joins);
        for delta in inserts {
            debug_assert_eq!(delta.sign, Sign::Insert);
            self.ingest(delta);
        }
        Ok(())
    }

    /// Run queued work to a local fixpoint, producing outbound messages and
    /// tracked-relation changes. Pending removals are drained first (and
    /// whenever an insertion cascade causes further removals), so every
    /// retraction is handled by a DRed pass before dependent insertions
    /// fire.
    ///
    /// The queue is consumed in **delta batches**: every currently queued
    /// insertion fires against one store snapshot through the strands'
    /// slot-compiled batch plans (flat reusable buffers, no per-environment
    /// allocation), and the precomputed derivations are then routed/ingested
    /// trigger by trigger in the exact tuple-at-a-time order. Firing
    /// before sibling ingests is PSN-exact — sibling derivations carry
    /// timestamps above every batch trigger's visibility limit — and any
    /// mid-batch removal invalidates the batch remainder, which returns to
    /// the queue front and re-fires after the DRed pass.
    pub fn process(&mut self) -> Result<ProcessOutput, EvalError> {
        let mut outbound: BTreeMap<NodeAddr, Vec<TupleDelta>> = BTreeMap::new();
        let mut request_flush = false;

        loop {
            if !self.pending_deletes.is_empty() {
                self.run_dred(&mut outbound, &mut request_flush)?;
                continue;
            }
            if self.queue.is_empty() {
                break;
            }
            let round: Vec<(TupleDelta, u64)> = self.queue.drain(..).collect();
            let mut derived = self.fire_batch_round(&round)?.into_iter().peekable();
            let mut consumed = round.len();
            for i in 0..round.len() {
                self.stats.iterations += 1;
                self.stats.tuples_processed += 1;
                while let Some((_, derivation)) = derived.next_if(|(trigger, _)| *trigger == i) {
                    self.stats.derivations += 1;
                    match derivation.location {
                        Some(dest) if dest != self.addr => {
                            self.route_remote(
                                dest,
                                derivation.delta,
                                &mut outbound,
                                &mut request_flush,
                            );
                        }
                        _ => {
                            // Local derivation (or location-free test
                            // program).
                            self.ingest(derivation.delta);
                        }
                    }
                }
                if !self.pending_deletes.is_empty() {
                    consumed = i + 1;
                    break;
                }
            }
            // A mid-batch removal invalidates the remaining precomputed
            // firings: their triggers return to the queue front (still
            // ahead of any derivation ingested above) and re-fire against
            // the post-DRed store on the next loop turn.
            for entry in round.into_iter().skip(consumed).rev() {
                self.queue.push_front(entry);
            }
        }

        Ok(ProcessOutput {
            outbound,
            changes: std::mem::take(&mut self.changes),
            request_flush,
        })
    }

    /// Fire every strand over a batch of applied-but-unfired insertion
    /// deltas against the current store snapshot, returning every
    /// derivation tagged with its trigger's index in `round`, in the order
    /// the tuple-at-a-time loop would route them (trigger by trigger,
    /// strands in declaration order per trigger). Triggers whose tuple a
    /// DRed pass has since over-deleted (or a replacement vacated) yield
    /// nothing: the consequences are moot, and a re-derived tuple fires
    /// through its own queued insert. That status cannot change mid-batch,
    /// because any removal interrupts the batch for a DRed pass before the
    /// next trigger is consumed.
    fn fire_batch_round(
        &mut self,
        round: &[(TupleDelta, u64)],
    ) -> Result<Vec<(usize, Derivation)>, EvalError> {
        // One flat buffer for the whole round, filled strand by strand.
        let mut derived: Vec<(usize, Derivation)> = Vec::new();
        let live: Vec<bool> = round
            .iter()
            .map(|(delta, _)| {
                debug_assert_eq!(delta.sign, Sign::Insert);
                self.store
                    .relation(&delta.relation)
                    .is_some_and(|r| r.contains(&delta.tuple))
            })
            .collect();
        let mut joins = JoinStats::default();
        // Arm the cross-rule probe cache for this round when the plans
        // share probe signatures: every strand fires against this one
        // store snapshot (ingestion happens after the round), so cached
        // candidate sets stay valid for exactly the cache's lifetime.
        let mut cache = (!self.shared_sigs.is_empty())
            .then(|| ndlog_runtime::subplan::ProbeCache::new(&self.shared_sigs));
        let mut triggers: Vec<BatchTrigger> = Vec::new();
        let mut indices: Vec<usize> = Vec::new();
        for strand in self.strands.iter() {
            triggers.clear();
            indices.clear();
            for (i, (delta, seq)) in round.iter().enumerate() {
                if live[i] && strand.trigger_relation() == delta.relation {
                    triggers.push(BatchTrigger {
                        delta,
                        seq_limit: *seq,
                    });
                    indices.push(i);
                }
            }
            if triggers.is_empty() {
                continue;
            }
            match cache.as_mut() {
                Some(cache) => strand.fire_batch_shared(
                    &self.store,
                    &triggers,
                    &mut joins,
                    &mut self.scratch,
                    &mut self.batch_out,
                    cache,
                )?,
                None => strand.fire_batch(
                    &self.store,
                    &triggers,
                    &mut joins,
                    &mut self.scratch,
                    &mut self.batch_out,
                )?,
            }
            self.batch_out
                .drain_into(|local, derivation| derived.push((indices[local], derivation)));
        }
        self.stats.absorb_joins(joins);
        // Stable: each trigger's derivations keep their strand order.
        derived.sort_by_key(|&(trigger, _)| trigger);
        Ok(derived)
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
        let mut has_delete: BTreeSet<(NodeAddr, String, Vec<ndlog_lang::Value>)> = BTreeSet::new();
        for (dest, delta) in &held {
            if delta.sign == Sign::Delete {
                if let Some(key) = self.group_key(delta) {
                    has_delete.insert((*dest, delta.relation.clone(), key));
                }
            }
        }
        // Decide each entry's fate: sent verbatim, or competing for best
        // insertion per (dest, relation, group).
        let mut verbatim = vec![false; held.len()];
        let mut best: BTreeMap<(NodeAddr, String, Vec<ndlog_lang::Value>), (usize, f64)> =
            BTreeMap::new();
        for (idx, (dest, delta)) in held.iter().enumerate() {
            let Some(sel) = self.selection_for(&delta.relation) else {
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
            let full_key = (*dest, delta.relation.clone(), key);
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

    fn selection_for(&self, relation: &str) -> Option<&AggSelectionSpec> {
        self.selections
            .iter()
            .find(|(sel, _)| sel.relation == relation)
            .map(|(sel, _)| sel)
    }

    fn group_key(&self, delta: &TupleDelta) -> Option<Vec<ndlog_lang::Value>> {
        let sel = self.selection_for(&delta.relation)?;
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
        assert_eq!(node.store().count("path"), 1);
        assert_eq!(
            node.current_best("path", &path(1, 5.0)),
            Some(Value::Float(5.0))
        );
        // A worse path for the same (S, D) group is pruned entirely.
        node.receive(vec![TupleDelta::insert("path", path(2, 7.0))]);
        node.process().unwrap();
        assert_eq!(node.store().count("path"), 1);
        assert_eq!(node.pruned(), 1);
        // A better one replaces the aggregate and is stored.
        node.receive(vec![TupleDelta::insert("path", path(3, 2.0))]);
        node.process().unwrap();
        assert_eq!(node.store().count("path"), 2);
        assert_eq!(
            node.current_best("path", &path(1, 0.0)),
            Some(Value::Float(2.0))
        );
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
        node.receive(vec![TupleDelta::insert("link", link(0, 1, 5.0))]);
        let out = node.process().unwrap();
        assert!(out
            .changes
            .iter()
            .any(|c| c.relation == "shortestPath" && c.sign == Sign::Insert));
    }

    #[test]
    fn tap_records_insert_and_retract_transitions() {
        let mut node = make_node(0, NodeConfig::default());
        node.tap_mut().subscribe("shortestPath");
        node.receive(vec![
            TupleDelta::insert("link", link(0, 1, 5.0)),
            TupleDelta::insert(
                "path_sp2_xd",
                Tuple::new(vec![addr(0), addr(1), Value::Float(5.0)]),
            ),
        ]);
        node.process().unwrap();
        let events = node.drain_tap();
        assert!(events
            .iter()
            .any(|d| d.relation == "shortestPath" && d.sign == Sign::Insert));
        assert!(events.iter().all(|d| d.relation == "shortestPath"));

        // Deleting the link retracts the derived shortest path: the
        // subscriber sees the exact retraction, not a silent disappearance.
        node.receive(vec![TupleDelta::delete("link", link(0, 1, 5.0))]);
        node.process().unwrap();
        let retractions = node.drain_tap();
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
}
