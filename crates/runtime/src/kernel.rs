//! The evaluation kernel: pipelined semi-naive evaluation with DRed
//! deletions, written once.
//!
//! The paper runs one semantics in two places — the centralized evaluator
//! of Section 3 and every P2 node's dataflow — and Theorems 1 and 3 say the
//! two agree. [`Kernel`] is that semantics. [`crate::Evaluator`] is a
//! kernel plus the SN/BSN/PSN drivers; `ndlog-core`'s `NodeEngine` is a
//! kernel plus outbound routing, hold/flush, soft-state expiry,
//! crash/refire and its wire-buffer arena.
//!
//! A kernel owns a node's store, the compiled strands, the aggregate
//! views, the insert-only work queue, the pending removals, the delta tap,
//! the batch scratch buffers, the shared probe signatures and the
//! cumulative [`EvalStats`]. Its steps:
//!
//! * [`Kernel::ingest`] applies one delta: aggregate-selection pruning
//!   (when the kernel was built with selections), then the store, the
//!   aggregate views and the tap; real insertions join the queue, real
//!   removals wait for the next DRed pass;
//! * `Kernel::fire_round` fires a round of queued insertions as delta
//!   batches against one store snapshot, ingests the derivations trigger
//!   by trigger, stops at the first pending removal and reports how many
//!   triggers it consumed — the drivers differ only in what they do with
//!   the unconsumed remainder;
//! * `Kernel::drain_deletions` runs DRed passes ([`crate::dred`]) until
//!   no removal is pending;
//! * derivations located at another node than the kernel's own address
//!   (`here`) are not ingested but collected, in production order, in an
//!   outbox the node engine drains into its outbound batches. A kernel
//!   without an address keeps everything local.

use crate::aggview::AggregateView;
use crate::batch::{BatchOutput, BatchScratch, BatchTrigger};
use crate::expr::EvalError;
use crate::store::{Applied, Store};
use crate::strand::{CompiledStrand, Derivation, JoinStats};
use crate::tap::DeltaTap;
use crate::tuple::{Rel, Sign, TupleDelta};
use ndlog_lang::aggsel::AggSelectionSpec;
use ndlog_net::NodeAddr;
use std::collections::VecDeque;
use std::sync::Arc;

/// Cumulative work counters of a kernel. One definition serves the
/// centralized evaluator and every node engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Iterations: one per iteration under SN/BSN, one per consumed
    /// trigger under PSN (the node engine's only strategy); every tuple a
    /// DRed pass removes counts one too.
    pub iterations: usize,
    /// Head tuples derived: one per strand derivation, whether ingested
    /// locally or shipped to another node, and one per DRed re-insertion
    /// (re-derived tuples and rebuilt aggregate outputs).
    pub derivations: usize,
    /// Insertions whose tuple was already stored, absorbed by the count
    /// algorithm — the duplicate inferences Theorem 2 is about. Counted
    /// wherever an insertion meets the store: local derivations, base
    /// facts, aggregate outputs and, on a node, insertions arriving from
    /// other nodes. Insertions pruned by aggregate selections are not
    /// counted here.
    pub redundant_derivations: usize,
    /// Triggers consumed by firing rounds plus tuples removed by DRed
    /// passes.
    pub tuples_processed: usize,
    /// Joins answered by a secondary-index probe, counted per binding
    /// environment (one per trigger per atom), whether or not the batch
    /// shares its probes.
    pub logical_probes: usize,
    /// Index bucket lookups actually executed. Key-grouped batch probing
    /// answers every same-key trigger of a batch with one lookup, so this
    /// is `≤ logical_probes`.
    pub distinct_probes: usize,
    /// Joins that fell back to scanning a relation.
    pub scans: usize,
    /// Stored tuples examined across all joins — the computation-overhead
    /// counterpart of the paper's communication metrics. With probe plans
    /// this grows with the number of matches, not with relation sizes.
    pub tuples_examined: usize,
}

impl EvalStats {
    /// Fold join-level counters into the run statistics.
    pub fn absorb_joins(&mut self, joins: JoinStats) {
        self.logical_probes += joins.logical_probes;
        self.distinct_probes += joins.distinct_probes;
        self.scans += joins.scans;
        self.tuples_examined += joins.tuples_examined;
    }
}

impl std::ops::AddAssign for EvalStats {
    fn add_assign(&mut self, other: EvalStats) {
        self.iterations += other.iterations;
        self.derivations += other.derivations;
        self.redundant_derivations += other.redundant_derivations;
        self.tuples_processed += other.tuples_processed;
        self.logical_probes += other.logical_probes;
        self.distinct_probes += other.distinct_probes;
        self.scans += other.scans;
        self.tuples_examined += other.tuples_examined;
    }
}

/// The counter-wise difference of two cumulative snapshots (e.g. "work
/// attributable to the update bursts" = after − before). Saturates at zero.
impl std::ops::Sub for EvalStats {
    type Output = EvalStats;
    fn sub(self, earlier: EvalStats) -> EvalStats {
        EvalStats {
            iterations: self.iterations.saturating_sub(earlier.iterations),
            derivations: self.derivations.saturating_sub(earlier.derivations),
            redundant_derivations: self
                .redundant_derivations
                .saturating_sub(earlier.redundant_derivations),
            tuples_processed: self
                .tuples_processed
                .saturating_sub(earlier.tuples_processed),
            logical_probes: self.logical_probes.saturating_sub(earlier.logical_probes),
            distinct_probes: self.distinct_probes.saturating_sub(earlier.distinct_probes),
            scans: self.scans.saturating_sub(earlier.scans),
            tuples_examined: self.tuples_examined.saturating_sub(earlier.tuples_examined),
        }
    }
}

/// Shared evaluation state and steps (see the module docs).
pub struct Kernel {
    store: Store,
    strands: Arc<Vec<CompiledStrand>>,
    views: Vec<AggregateView>,
    /// Aggregate selections to prune insertions with: (the selection's
    /// relation, the selection, index of the aggregate view that tracks its
    /// groups). Empty = no pruning.
    selections: Vec<(Rel, AggSelectionSpec, usize)>,
    /// The node this kernel evaluates at; `None` keeps every derivation
    /// local.
    here: Option<NodeAddr>,
    /// Insert-only work queue: applied deltas whose strands have not fired,
    /// with their apply timestamps.
    pub(crate) queue: VecDeque<(TupleDelta, u64)>,
    /// Tuples actually removed from the store (deletions whose count
    /// reached zero, replacement old halves, soft-state expiries),
    /// awaiting the next DRed pass.
    pending: Vec<TupleDelta>,
    /// Derivations headed at other nodes, in production order.
    outbox: Vec<(NodeAddr, TupleDelta)>,
    /// Live-query hook: records visibility transitions of subscribed
    /// relations (see [`crate::tap`]).
    tap: DeltaTap,
    /// Probe signatures shared by two or more strands
    /// ([`crate::subplan::shared_signatures`], computed once at plan
    /// time). Non-empty arms a per-round cross-rule
    /// [`crate::subplan::ProbeCache`], so each distinct `(relation, cols,
    /// key)` lookup of a round executes once across every strand sharing
    /// it.
    shared_sigs: Vec<(Rel, Vec<usize>)>,
    /// Reusable flat buffers for batch firing.
    scratch: BatchScratch,
    batch_out: BatchOutput,
    pub(crate) stats: EvalStats,
    /// Insertions dropped by aggregate-selection pruning.
    pruned: u64,
}

impl Kernel {
    /// A kernel over `store` (its schemas already declared). Every index
    /// the strands' probe plans and the views' guard checks need is built
    /// here, once, before any tuple arrives.
    pub fn new(
        mut store: Store,
        strands: Arc<Vec<CompiledStrand>>,
        views: Vec<AggregateView>,
        selections: Vec<(AggSelectionSpec, usize)>,
        here: Option<NodeAddr>,
    ) -> Kernel {
        store.declare_indexes(strands.iter());
        for view in &views {
            for (relation, cols) in view.index_requirements() {
                store.declare_index(&relation, &cols);
            }
        }
        let shared_sigs = crate::subplan::shared_signatures(&strands);
        let selections = selections
            .into_iter()
            .map(|(sel, view)| (Rel::new(&sel.relation), sel, view))
            .collect();
        Kernel {
            store,
            strands,
            views,
            selections,
            here,
            queue: VecDeque::new(),
            pending: Vec::new(),
            outbox: Vec::new(),
            tap: DeltaTap::new(),
            shared_sigs,
            scratch: BatchScratch::default(),
            batch_out: BatchOutput::default(),
            stats: EvalStats::default(),
            pruned: 0,
        }
    }

    /// The store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The delta tap.
    pub fn tap(&self) -> &DeltaTap {
        &self.tap
    }

    /// Mutable access to the delta tap (subscribe/unsubscribe relations).
    pub fn tap_mut(&mut self) -> &mut DeltaTap {
        &mut self.tap
    }

    /// Take the visibility transitions recorded since the last drain, in
    /// store order.
    pub fn drain_tap(&mut self) -> Vec<TupleDelta> {
        self.tap.drain()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Insertions pruned by aggregate selections so far.
    pub fn pruned(&self) -> u64 {
        self.pruned
    }

    /// Advance the store's logical clock (for soft-state expiry).
    pub fn set_time(&mut self, now_micros: u64) {
        self.store.set_time(now_micros);
    }

    /// Expire soft-state tuples; they are already out of the store and
    /// seed the next DRed pass (an expiry is authoritative — never
    /// re-derived).
    pub fn expire(&mut self, now_micros: u64) {
        let expired = self.store.expire(now_micros);
        self.pending.extend(expired);
    }

    /// Queue an insertion for firing without applying it: the trigger of
    /// a stored tuple, with the tuple's own timestamp.
    pub fn enqueue(&mut self, delta: TupleDelta, seq: u64) {
        self.queue.push_back((delta, seq));
    }

    /// Drop every stored tuple, queued trigger, pending removal, outbound
    /// derivation and aggregate group. The tap records a retraction of
    /// every stored tuple first, so subscribers stay exact; timestamps and
    /// the logical clock survive.
    pub fn clear(&mut self) {
        for (name, relation) in self.store.relations() {
            if self.tap.is_subscribed(&name) {
                for stored in relation.iter() {
                    self.tap
                        .record(&TupleDelta::delete(name, stored.tuple.clone()));
                }
            }
        }
        self.store.clear_tuples();
        self.queue.clear();
        self.pending.clear();
        self.outbox.clear();
        for view in &mut self.views {
            view.reset();
        }
    }

    /// Take the derivations headed at other nodes, in production order.
    /// The buffer goes with them: a node's busiest round would otherwise
    /// pin its capacity for the rest of the run.
    pub fn take_outbox(&mut self) -> Vec<(NodeAddr, TupleDelta)> {
        std::mem::take(&mut self.outbox)
    }

    /// Apply a delta to the store, feed the aggregate views and the tap,
    /// and queue whatever actually changed. Actual removals (deletions
    /// whose count reached zero and the old halves of replacements) wait
    /// for the next DRed pass instead; the views are *not* fed deletions —
    /// the pass rebuilds the affected groups from the store (group
    /// pinning).
    pub fn ingest(&mut self, delta: TupleDelta) {
        if delta.sign == Sign::Insert && self.prune(&delta) {
            self.pruned += 1;
            return;
        }
        let effect = self.store.apply(&delta);
        match effect.outcome {
            Applied::Absorbed => {
                if delta.sign == Sign::Insert {
                    self.stats.redundant_derivations += 1;
                    self.refresh_view_outputs(&delta);
                }
            }
            Applied::Changed if delta.sign == Sign::Delete => self.pending.push(delta),
            Applied::Changed => self.propagate_insert(delta, effect.seq),
            Applied::Replaced(old) => {
                self.pending.push(TupleDelta::delete(delta.relation, old));
                self.propagate_insert(delta, effect.seq);
            }
        }
    }

    /// Aggregate-selection pruning (Section 5.1.1): whether an insertion
    /// into a selection relation is no better than its group's current
    /// aggregate, so it is neither stored, extended nor propagated.
    fn prune(&mut self, delta: &TupleDelta) -> bool {
        let Some((_, sel, view_idx)) = self
            .selections
            .iter()
            .find(|(relation, _, _)| *relation == delta.relation)
        else {
            return false;
        };
        let (Some(candidate), Some(current)) = (
            delta.tuple.get(sel.value_col).and_then(|v| v.as_f64()),
            self.views[*view_idx]
                .current_for(&delta.tuple)
                .and_then(|v| v.as_f64()),
        ) else {
            return false;
        };
        if sel.is_better(candidate, current) {
            return false;
        }
        // A re-announcement of the reigning best tuple is "not strictly
        // better" too, but it must still reach the store so its soft-state
        // expiry moves forward (the duplicate propagates nothing);
        // everything else is pruned outright.
        if self
            .store
            .relation(&delta.relation)
            .is_some_and(|r| r.contains(&delta.tuple))
        {
            self.store.apply(delta);
            self.refresh_view_outputs(delta);
        }
        true
    }

    /// A duplicate insertion of a view's source tuple keeps that group's
    /// aggregate derivable, so the group's current output must have its
    /// soft-state expiry refreshed along with the source — the view itself
    /// emits nothing while the best is unchanged. The refresh counts no
    /// derivation: the output was not derived again, and a counted
    /// refresh would let the view's later retraction of it merely
    /// decrement the count and leave a stale output behind.
    fn refresh_view_outputs(&mut self, delta: &TupleDelta) {
        for view in &self.views {
            if view.source_relation() != delta.relation {
                continue;
            }
            if let Some(best) = view.current_output_for(&delta.tuple) {
                self.store.refresh(&view.head_relation(), best);
            }
        }
    }

    /// Bookkeeping after a real insertion: tap, view maintenance, queueing.
    fn propagate_insert(&mut self, delta: TupleDelta, seq: u64) {
        // A propagated insert is a 0 → >0 visibility transition.
        self.tap.record(&delta);
        // Aggregate views react to every real insertion of their source;
        // their outputs are local (aggregate rules are local rules) and
        // are ingested recursively.
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

    /// Run queued work to a fixpoint with pipelined semi-naive evaluation
    /// (Algorithm 3), consuming the queue in delta batches: each round
    /// drains the whole queue. Pending removals are drained first, and
    /// whenever a round stops at one; the round's unconsumed remainder
    /// returns to the queue front — still ahead of every derivation the
    /// round ingested — and re-fires against the post-DRed store, exactly
    /// where one-trigger rounds would have fired it.
    pub fn run_pipelined(&mut self) -> Result<(), EvalError> {
        loop {
            self.drain_deletions()?;
            if self.queue.is_empty() {
                return Ok(());
            }
            let round: Vec<(TupleDelta, u64)> = self.queue.drain(..).collect();
            let consumed = self.fire_round(&round)?;
            self.stats.iterations += consumed;
            for entry in round.into_iter().skip(consumed).rev() {
                self.queue.push_front(entry);
            }
        }
    }

    /// Fire every strand over a round of applied-but-unfired insertions
    /// against the current store snapshot, then ingest (or, when located
    /// elsewhere, put in the outbox) each trigger's derivations in trigger
    /// order, strands in declaration order per trigger. Returns how many
    /// triggers were consumed: all of them, or up to the first whose
    /// derivations left a removal pending — the rest were fired against a
    /// store the coming DRed pass invalidates, and must fire again.
    ///
    /// Firing a trigger before its siblings' derivations are applied is
    /// PSN-exact: those derivations carry timestamps above every trigger's
    /// visibility limit (its own apply timestamp), so the joins could not
    /// have seen them anyway, and two triggers of one round that join each
    /// other derive the head exactly once, from the later one.
    pub(crate) fn fire_round(&mut self, round: &[(TupleDelta, u64)]) -> Result<usize, EvalError> {
        let mut derived = self.fire_batches(round)?.into_iter().peekable();
        let mut consumed = round.len();
        for i in 0..round.len() {
            while let Some((_, derivation)) = derived.next_if(|(trigger, _)| *trigger == i) {
                self.stats.derivations += 1;
                match (self.here, derivation.location) {
                    (Some(here), Some(dest)) if dest != here => {
                        self.outbox.push((dest, derivation.delta));
                    }
                    _ => self.ingest(derivation.delta),
                }
            }
            if !self.pending.is_empty() {
                consumed = i + 1;
                break;
            }
        }
        self.stats.tuples_processed += consumed;
        Ok(consumed)
    }

    /// The batch half of [`Kernel::fire_round`]: every derivation of the
    /// round tagged with its trigger's index, sorted by trigger (stably, so
    /// each trigger's derivations keep their strand order). Triggers whose
    /// tuple is no longer stored — over-deleted or replaced since being
    /// queued — yield nothing: the consequences are moot, and a re-derived
    /// tuple fires through its own queued insert. That status cannot change
    /// mid-round, because any removal stops the round for a DRed pass
    /// before the next trigger is consumed.
    fn fire_batches(
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
            .then(|| crate::subplan::ProbeCache::new(&self.shared_sigs));
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
        derived.sort_by_key(|&(trigger, _)| trigger);
        Ok(derived)
    }

    /// Run DRed passes until no removal is pending: over-delete the
    /// closure of the pending removals (derivations located at other
    /// nodes go to the outbox as deletions), rebuild the pinned aggregate
    /// groups, and ingest the re-derivation insertions — which may replace
    /// keyed tuples and thereby leave further removals pending, hence the
    /// loop. Remote over-deletions may over-approximate; the re-derive
    /// cascade re-ships the insertions that still hold, so the net effect
    /// at every receiver is exact.
    pub(crate) fn drain_deletions(&mut self) -> Result<(), EvalError> {
        while !self.pending.is_empty() {
            let seeds = std::mem::take(&mut self.pending);
            let mut joins = JoinStats::default();
            let mut marking = crate::dred::over_delete(
                &mut self.store,
                &self.strands,
                &self.views,
                seeds,
                self.here,
                &mut joins,
            )?;
            // Every marked tuple — seeds, replacement old halves and the
            // over-deleted closure — actually left the store: one processed
            // delta (and one PSN-style iteration) each, and a visibility
            // transition. Re-derived survivors come back through `ingest`.
            self.stats.iterations += marking.removed.len();
            self.stats.tuples_processed += marking.removed.len();
            for removal in &marking.removed {
                self.tap.record(removal);
            }
            self.outbox.append(&mut marking.remote);
            // Rebuild every pinned group from the post-removal store; the
            // new aggregate outputs cascade like ordinary insertions.
            let mut inserts: Vec<TupleDelta> = Vec::new();
            for (view_idx, key) in &marking.dirty_groups {
                inserts.extend(self.views[*view_idx].rebuild_group(&self.store, key, &mut joins));
            }
            // One-step re-derivation of each over-deleted tuple; survivors
            // further downstream come from the insert cascade.
            for candidate in marking.rederive_candidates() {
                inserts.extend(crate::dred::rederive_inserts(
                    &self.store,
                    &self.strands,
                    candidate,
                    &mut joins,
                    &mut self.scratch,
                    &mut self.batch_out,
                )?);
            }
            self.stats.derivations += inserts.len();
            self.stats.absorb_joins(joins);
            for delta in inserts {
                self.ingest(delta);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use ndlog_lang::seminaive::delta_rewrite_full;
    use ndlog_lang::{parse_program, Value};

    fn kernel(here: Option<NodeAddr>) -> Kernel {
        let program = parse_program("r1 out(@D, @S) :- in(@S, @D).").unwrap();
        let strands = delta_rewrite_full(&program)
            .into_iter()
            .map(CompiledStrand::new)
            .collect();
        let store = Store::for_program(&program);
        Kernel::new(store, Arc::new(strands), Vec::new(), Vec::new(), here)
    }

    fn fact(d: u32) -> TupleDelta {
        TupleDelta::insert("in", Tuple::new(vec![Value::addr(0u32), Value::addr(d)]))
    }

    #[test]
    fn derivations_located_elsewhere_leave_through_the_outbox_in_order() {
        let mut node = kernel(Some(NodeAddr(0)));
        for d in [2, 0, 1] {
            node.ingest(fact(d));
        }
        node.run_pipelined().unwrap();
        let shipped: Vec<NodeAddr> = node
            .take_outbox()
            .into_iter()
            .map(|(dest, _)| dest)
            .collect();
        assert_eq!(shipped, vec![NodeAddr(2), NodeAddr(1)]);
        assert_eq!(node.store().count("out"), 1, "out(@0, @0) stays here");
        assert_eq!(node.stats().derivations, 3, "shipped derivations count");

        let mut central = kernel(None);
        for d in [2, 0, 1] {
            central.ingest(fact(d));
        }
        central.run_pipelined().unwrap();
        assert!(central.take_outbox().is_empty());
        assert_eq!(central.store().count("out"), 3);
    }

    #[test]
    fn absorbed_insertions_count_as_redundant() {
        let mut central = kernel(None);
        central.ingest(fact(1));
        central.ingest(fact(1));
        central.run_pipelined().unwrap();
        let stats = central.stats();
        assert_eq!(stats.redundant_derivations, 1);
        assert_eq!(
            stats.tuples_processed, 2,
            "in(@0, @1) and out(@1, @0) fire; the duplicate never does"
        );
        assert_eq!(stats.derivations, 1);
    }
}
