//! The epoch executor: concurrent per-node evaluation with a deterministic
//! merge.
//!
//! # Execution model
//!
//! One epoch = one batch of simulator events drained by
//! [`ndlog_net::Simulator::drain_epoch`]: all events sharing the next
//! timestamp, or within a conservative lookahead window no larger than the
//! minimum link propagation delay. Within such a window no event can
//! causally affect a *different* node's events (a message sent inside the
//! window arrives after it), so the executor may evaluate each node's
//! events concurrently as long as every node sees *its own* events in
//! `(time, seq)` order.
//!
//! [`EpochExecutor::run_epoch`] does exactly that:
//!
//! 1. group the epoch's [`NodeTask`]s by destination node, preserving
//!    order;
//! 2. put one work item per active node on a shared [`WorkQueue`] and let
//!    every lane — the calling thread plus the reusable
//!    [`WorkerPool`] — *steal* items until the queue is dry, so a lane
//!    stuck on one expensive node never idles the others
//!    ([`crate::exec::queue`]);
//! 3. each lane runs the sequential engine's per-event recipe for its
//!    stolen nodes — `receive` → `set_time` → `expire_soft_state` →
//!    `process` for deliveries, `flush` for flush timers — recording one
//!    [`EpochOutcome`] per task *without* touching any shared mutable
//!    state. With **delivery coalescing** (the default), a run of
//!    consecutive deliveries to the same node is merged into one receive
//!    batch: every payload is ingested, then a single
//!    `set_time`/`expire_soft_state`/`process` runs at the run's *last*
//!    `(time, seq)`, handing `fire_batch` one wide delta batch instead of
//!    many single-row rounds (the whole point of the key-grouped probe
//!    path). Flush timers break a run, so flush ordering relative to
//!    deliveries is preserved;
//! 4. **pre-serialization**: the lane also renders each outcome's effects
//!    into their replay-ready form — tracked-relation changes become
//!    timestamped [`ResultRecord`]s and each outbound batch's wire size is
//!    computed up front ([`OutboundBatch`]) — so the serial replay tail
//!    only appends records and pushes pre-sized messages;
//! 5. merge: concatenate the lanes' outcome buffers and sort by the unique
//!    `(time, seq)` key of the triggering event.
//!
//! # Determinism contract
//!
//! The merged outcome sequence is exactly the sequence of
//! (result-recording, send, timer-scheduling) effects the sequential event
//! loop produces, because (a) per node, events are evaluated in the same
//! order with the same store clock, (b) across nodes, effects are replayed
//! in the same global order the sequential loop would have emitted them,
//! and (c) the pre-serialized forms (records, wire sizes) are pure
//! functions of each outcome, computed by the same code the sequential
//! loop uses. Which lane evaluates which node is timing-dependent and
//! deliberately irrelevant. The driver replays the merged outcomes into
//! the simulator in order, advancing simulated time to each outcome's
//! timestamp first, so message sequence numbers, FIFO link clocks, traffic
//! statistics and the result log are all byte-for-byte identical to a
//! single-threaded run — `threads = N` is observationally equivalent to
//! `threads = 1`.
//!
//! Delivery coalescing preserves this contract across thread counts: the
//! merge structure (which consecutive deliveries fuse into one batch) is a
//! pure function of the epoch's per-node task sequences, which are fixed
//! before any lane runs — it never depends on lane assignment or timing.
//! Coalescing *is* a different evaluation schedule than per-event delivery
//! (a merged batch processes at its last member's timestamp, so sends
//! merge and traffic traces differ between the two modes), which is why it
//! is a mode on the executor rather than an always-on rewrite: within
//! either mode, any thread count is bit-for-bit identical to the same mode
//! at `threads = 1`, and both modes reach the same fixpoint on the result
//! relations (see the `coalescing` integration test).
//!
//! On an evaluation error the guarantee is narrower (see [`EpochResult`]):
//! the error surfaced is the one the sequential loop would have hit first,
//! and every effect strictly preceding the failing event is still replayed;
//! state beyond that point is unspecified in both modes.

use crate::engine::ResultRecord;
use crate::exec::queue::WorkQueue;
use crate::exec::worker::WorkerPool;
use crate::node::NodeEngine;
use crate::sharing;
use ndlog_net::sim::SimTime;
use ndlog_net::NodeAddr;
use ndlog_runtime::{EvalError, TupleDelta};
use std::collections::BTreeMap;

/// What an epoch event asks a node to do.
#[derive(Debug)]
pub enum NodeAction {
    /// A message delivery: ingest the payload and process to a local
    /// fixpoint.
    Deliver(Vec<TupleDelta>),
    /// A flush timer: release the node's held outbound tuples.
    Flush,
    /// A crash: the node loses all volatile state (store tuples, queues,
    /// aggregate views) and retracts its tracked results.
    Crash,
    /// A soft-state refresh tick (also the rejoin path): re-announce the
    /// node's seed facts, re-fire its stored state, and process to a local
    /// fixpoint — re-sending current remote conclusions so lost messages
    /// are repaired and receiver-side expiry clocks move forward.
    Refresh(Vec<TupleDelta>),
}

/// One epoch event routed to a node, keyed by the simulator's `(time, seq)`
/// so its effects can be merged back into the sequential order.
#[derive(Debug)]
pub struct NodeTask {
    /// Simulation time of the event.
    pub time: SimTime,
    /// The simulator queue sequence number (unique tie-breaker).
    pub seq: u64,
    /// The node the event targets.
    pub node: NodeAddr,
    /// What to do at the node.
    pub action: NodeAction,
}

/// One outbound message batch with its payload wire size pre-computed
/// (sharing-combined or plain, matching the engine's sharing mode), so the
/// serial replay tail hands the simulator a ready-to-send message instead
/// of walking every tuple again.
#[derive(Debug, Clone, PartialEq)]
pub struct OutboundBatch {
    /// Destination node.
    pub dest: NodeAddr,
    /// The tuple deltas of the batch.
    pub deltas: Vec<TupleDelta>,
    /// Payload bytes as accounted on the wire (header excluded — the
    /// simulator adds it).
    pub payload_bytes: usize,
}

/// Render an outbound map into pre-sized batches in ascending destination
/// order — the order the sequential loop sends them in. The single wire-
/// size implementation shared by the sequential path and the epoch lanes,
/// so the two cannot drift.
pub fn outbound_batches(
    sharing_enabled: bool,
    outbound: BTreeMap<NodeAddr, Vec<TupleDelta>>,
) -> Vec<OutboundBatch> {
    outbound
        .into_iter()
        .map(|(dest, deltas)| {
            let payload_bytes = if sharing_enabled {
                sharing::combined_wire_size(&deltas)
            } else {
                sharing::plain_wire_size(&deltas)
            };
            OutboundBatch {
                dest,
                deltas,
                payload_bytes,
            }
        })
        .collect()
}

/// Timestamp tracked-relation changes into result-log records. Shared by
/// the sequential path and the epoch lanes.
pub fn result_records(
    node: NodeAddr,
    time: SimTime,
    changes: Vec<TupleDelta>,
) -> Vec<ResultRecord> {
    changes
        .into_iter()
        .map(|c| ResultRecord {
            time,
            node,
            relation: c.relation,
            tuple: c.tuple,
            sign: c.sign,
        })
        .collect()
}

/// The externally visible effects of one [`NodeTask`], pre-serialized and
/// ready to replay into the simulator in merged `(time, seq)` order.
#[derive(Debug)]
pub struct EpochOutcome {
    /// Simulation time of the triggering event.
    pub time: SimTime,
    /// Sequence number of the triggering event.
    pub seq: u64,
    /// The node the event ran at.
    pub node: NodeAddr,
    /// Timestamped result-log records for tracked-relation changes.
    pub records: Vec<ResultRecord>,
    /// Pre-sized outbound batches in ascending destination order — the
    /// order the sequential loop sends them in.
    pub sends: Vec<OutboundBatch>,
    /// Whether the node buffered outbound tuples and wants a flush timer.
    pub request_flush: bool,
    /// Whether this outcome came from a flush timer (the driver clears its
    /// pending-flush flag before replaying the sends).
    pub was_flush: bool,
}

/// An evaluation error tagged with the `(time, seq)` of the event that
/// raised it, so concurrent failures resolve to the one the sequential
/// loop would have hit first.
struct FailedAt {
    time: SimTime,
    seq: u64,
    error: EvalError,
}

/// What one epoch produced: the merged outcomes to replay, and the first
/// evaluation error (by event order) if any task failed.
///
/// On error, `outcomes` still contains every outcome whose `(time, seq)`
/// strictly precedes the failing event — the driver replays them before
/// surfacing the error, so the result log, message trace and statistics up
/// to the failure point match the sequential engine's. (Node-local store
/// mutations from events *concurrent with* the failure may have happened
/// anyway; like the sequential engine's state after a mid-run error, the
/// post-error state is not specified beyond that.)
pub struct EpochResult {
    /// Replayable outcomes in `(time, seq)` order (truncated to the events
    /// before the error when `error` is set).
    pub outcomes: Vec<EpochOutcome>,
    /// The earliest evaluation error, if any task failed.
    pub error: Option<EvalError>,
    /// Number of message deliveries the epoch ingested.
    pub deliveries: u64,
    /// Number of receive batches those deliveries were processed in
    /// (`deliveries / receive_batches` is the mean receive-batch width the
    /// coalescer achieved; equal to `deliveries` when coalescing is off).
    pub receive_batches: u64,
}

/// The parallel epoch executor: a worker pool plus the dispatch/merge
/// logic. Construction is cheap relative to a run; the pool threads live
/// for the executor's lifetime.
pub struct EpochExecutor {
    pool: Option<WorkerPool>,
    threads: usize,
    /// Message-sharing mode of the owning engine, needed to pre-compute
    /// outbound wire sizes in the lanes.
    sharing_enabled: bool,
    /// Merge consecutive same-node deliveries into one receive batch
    /// (default on; see the module docs).
    coalesce: bool,
}

impl EpochExecutor {
    /// An executor with `threads`-way parallelism: the calling thread
    /// counts as one lane and a pool of `threads - 1` workers supplies the
    /// rest. `threads <= 1` runs epochs inline on the caller's thread (no
    /// pool), which exercises the same queue/steal/merge path and is
    /// useful for differential testing. `sharing_enabled` selects the
    /// wire-size accounting used to pre-serialize outbound batches.
    /// Delivery coalescing defaults to on; [`EpochExecutor::coalescing`]
    /// turns it off.
    pub fn new(threads: usize, sharing_enabled: bool) -> EpochExecutor {
        let threads = threads.max(1);
        EpochExecutor {
            pool: (threads > 1).then(|| WorkerPool::new(threads - 1)),
            threads,
            sharing_enabled,
            coalesce: true,
        }
    }

    /// Enable or disable delivery coalescing (builder-style).
    pub fn coalescing(mut self, on: bool) -> EpochExecutor {
        self.coalesce = on;
        self
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluate one epoch of tasks against the nodes, concurrently, and
    /// return the merged outcomes in `(time, seq)` order (see the module
    /// docs for the determinism contract and [`EpochResult`] for the
    /// error-path guarantees).
    pub fn run_epoch(
        &self,
        nodes: &mut BTreeMap<NodeAddr, NodeEngine>,
        tasks: Vec<NodeTask>,
    ) -> EpochResult {
        if tasks.is_empty() {
            return EpochResult {
                outcomes: Vec::new(),
                error: None,
                deliveries: 0,
                receive_batches: 0,
            };
        }
        // Group per node, preserving (time, seq) order within each node.
        let mut by_node: BTreeMap<NodeAddr, Vec<NodeTask>> = BTreeMap::new();
        for task in tasks {
            by_node.entry(task.node).or_default().push(task);
        }

        // One work item per active node, claimed dynamically by the lanes.
        let mut items: Vec<(&mut NodeEngine, Vec<NodeTask>)> = Vec::with_capacity(by_node.len());
        for (addr, engine) in nodes.iter_mut() {
            if let Some(tasks) = by_node.remove(addr) {
                items.push((engine, tasks));
            }
        }
        // Fail identically to the sequential loop's "delivery to known
        // node" panic instead of silently dropping the event.
        assert!(
            by_node.is_empty(),
            "epoch event for unknown node {:?}",
            by_node.keys().next()
        );
        let queue = WorkQueue::new(items);

        let lanes = self.threads;
        let sharing = self.sharing_enabled;
        let coalesce = self.coalesce;
        let mut results: Vec<LaneResult> = (0..lanes).map(|_| LaneResult::default()).collect();
        match &self.pool {
            Some(pool) => {
                let queue = &queue;
                let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = results
                    .iter_mut()
                    .map(|slot| {
                        let job: Box<dyn FnOnce() + Send + '_> =
                            Box::new(move || *slot = drain_lane(queue, sharing, coalesce));
                        job
                    })
                    .collect();
                pool.scope(jobs);
            }
            None => {
                results[0] = drain_lane(&queue, sharing, coalesce);
            }
        }

        // Deterministic merge: interleave all lanes' outcomes back into
        // global (time, seq) order. With failures, surface the earliest
        // error by event order — the one the sequential loop would have hit
        // first — and keep only the outcomes that precede it, so the driver
        // replays exactly the effects the sequential loop would have
        // applied before failing.
        let mut outcomes = Vec::new();
        let mut first_error: Option<FailedAt> = None;
        let mut deliveries = 0u64;
        let mut receive_batches = 0u64;
        for lane in results {
            outcomes.extend(lane.outcomes);
            deliveries += lane.deliveries;
            receive_batches += lane.receive_batches;
            if let Some(failed) = lane.error {
                match &first_error {
                    Some(existing)
                        if (existing.time, existing.seq) <= (failed.time, failed.seq) => {}
                    _ => first_error = Some(failed),
                }
            }
        }
        outcomes.sort_unstable_by_key(|o| (o.time, o.seq));
        if let Some(failed) = &first_error {
            outcomes.retain(|o| (o.time, o.seq) < (failed.time, failed.seq));
        }
        EpochResult {
            outcomes,
            error: first_error.map(|f| f.error),
            deliveries,
            receive_batches,
        }
    }
}

/// What one lane collected: outcomes, the earliest failure, and the
/// delivery/receive-batch counters feeding the engine's batch-width
/// statistics. Counters are kept out of [`crate::node::NodeEngine`]'s
/// `EvalStats` on purpose — they describe the *schedule*, not the
/// evaluation, and must not perturb the bitwise-identity oracle.
#[derive(Default)]
struct LaneResult {
    outcomes: Vec<EpochOutcome>,
    error: Option<FailedAt>,
    deliveries: u64,
    receive_batches: u64,
}

/// One lane's share of an epoch: steal per-node work items from the shared
/// queue until it is dry, mirroring the sequential engine's per-event
/// recipe exactly and pre-serializing each outcome's effects. With
/// `coalesce` on, a run of consecutive deliveries to the node is ingested
/// back to back and processed once at the run's last `(time, seq)` — the
/// merge structure depends only on the node's task sequence, never on lane
/// assignment, so it is identical at every thread count. A task error
/// stops that *node* (its remaining tasks are skipped, as the sequential
/// loop would never reach them) but not the lane: other nodes still run,
/// and the earliest failure by `(time, seq)` is reported alongside the
/// collected outcomes.
fn drain_lane(
    queue: &WorkQueue<(&mut NodeEngine, Vec<NodeTask>)>,
    sharing_enabled: bool,
    coalesce: bool,
) -> LaneResult {
    let mut lane = LaneResult::default();
    'nodes: while let Some((node, tasks)) = queue.pop() {
        let mut tasks = tasks.into_iter().peekable();
        while let Some(task) = tasks.next() {
            debug_assert_eq!(task.node, node.addr());
            match task.action {
                NodeAction::Deliver(payload) => {
                    node.receive(payload);
                    let (mut time, mut seq) = (task.time, task.seq);
                    lane.deliveries += 1;
                    lane.receive_batches += 1;
                    if coalesce {
                        // Extend the receive batch over the consecutive
                        // deliveries that follow; a flush timer ends it.
                        while matches!(
                            tasks.peek(),
                            Some(NodeTask {
                                action: NodeAction::Deliver(_),
                                ..
                            })
                        ) {
                            let next = tasks.next().expect("peeked task exists");
                            let NodeAction::Deliver(payload) = next.action else {
                                unreachable!("peek guaranteed a delivery");
                            };
                            node.receive(payload);
                            (time, seq) = (next.time, next.seq);
                            lane.deliveries += 1;
                        }
                    }
                    node.set_time(time);
                    node.expire_soft_state(time);
                    match node.process() {
                        Ok(output) => lane.outcomes.push(EpochOutcome {
                            time,
                            seq,
                            node: task.node,
                            records: result_records(task.node, time, output.changes),
                            sends: outbound_batches(sharing_enabled, output.outbound),
                            request_flush: output.request_flush,
                            was_flush: false,
                        }),
                        Err(error) => {
                            let failed = FailedAt { time, seq, error };
                            match &lane.error {
                                Some(existing)
                                    if (existing.time, existing.seq)
                                        <= (failed.time, failed.seq) => {}
                                _ => lane.error = Some(failed),
                            }
                            continue 'nodes;
                        }
                    }
                }
                NodeAction::Flush => {
                    let flushed = node.flush();
                    lane.outcomes.push(EpochOutcome {
                        time: task.time,
                        seq: task.seq,
                        node: task.node,
                        records: Vec::new(),
                        sends: outbound_batches(sharing_enabled, flushed),
                        request_flush: false,
                        was_flush: true,
                    });
                }
                NodeAction::Crash => {
                    let changes = node.crash_reset();
                    lane.outcomes.push(EpochOutcome {
                        time: task.time,
                        seq: task.seq,
                        node: task.node,
                        records: result_records(task.node, task.time, changes),
                        sends: Vec::new(),
                        request_flush: false,
                        was_flush: false,
                    });
                }
                NodeAction::Refresh(seeds) => {
                    node.set_time(task.time);
                    node.expire_soft_state(task.time);
                    node.receive(seeds);
                    node.refresh_refire();
                    match node.process() {
                        Ok(output) => lane.outcomes.push(EpochOutcome {
                            time: task.time,
                            seq: task.seq,
                            node: task.node,
                            records: result_records(task.node, task.time, output.changes),
                            sends: outbound_batches(sharing_enabled, output.outbound),
                            request_flush: output.request_flush,
                            was_flush: false,
                        }),
                        Err(error) => {
                            let failed = FailedAt {
                                time: task.time,
                                seq: task.seq,
                                error,
                            };
                            match &lane.error {
                                Some(existing)
                                    if (existing.time, existing.seq)
                                        <= (failed.time, failed.seq) => {}
                                _ => lane.error = Some(failed),
                            }
                            continue 'nodes;
                        }
                    }
                }
            }
        }
    }
    lane
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeConfig;
    use crate::plan::plan;
    use ndlog_lang::{programs, Value};
    use ndlog_runtime::Tuple;
    use std::sync::Arc;

    fn make_nodes(count: u32) -> BTreeMap<NodeAddr, NodeEngine> {
        let plan = plan(&programs::shortest_path("")).unwrap();
        let strands = Arc::new(plan.strands.clone());
        (0..count)
            .map(|i| {
                let engine = NodeEngine::new(
                    NodeAddr(i),
                    std::slice::from_ref(&plan),
                    Arc::clone(&strands),
                    NodeConfig::default(),
                )
                .unwrap();
                (NodeAddr(i), engine)
            })
            .collect()
    }

    fn link(s: u32, d: u32, c: f64) -> TupleDelta {
        TupleDelta::insert(
            "link",
            Tuple::new(vec![Value::addr(s), Value::addr(d), Value::Float(c)]),
        )
    }

    fn deliveries(count: u32) -> Vec<NodeTask> {
        (0..count)
            .map(|i| NodeTask {
                time: 1000 + (i as u64 % 3),
                seq: i as u64,
                node: NodeAddr(i),
                action: NodeAction::Deliver(vec![link(i, (i + 1) % count, 1.0)]),
            })
            .collect()
    }

    #[test]
    fn outcomes_are_merged_in_time_seq_order() {
        for threads in [1, 2, 4] {
            let executor = EpochExecutor::new(threads, false);
            let mut nodes = make_nodes(8);
            let result = executor.run_epoch(&mut nodes, deliveries(8));
            assert!(result.error.is_none());
            let outcomes = result.outcomes;
            assert_eq!(outcomes.len(), 8);
            assert!(
                outcomes
                    .windows(2)
                    .all(|w| (w[0].time, w[0].seq) < (w[1].time, w[1].seq)),
                "merge must restore the global (time, seq) order"
            );
            // Every delivery derived a one-hop path locally and a transfer
            // tuple for the neighbor.
            for (addr, node) in &nodes {
                assert_eq!(node.store().count("path"), 1, "node {addr}");
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_node_state_or_outcomes() {
        let run = |threads: usize| {
            let executor = EpochExecutor::new(threads, false);
            let mut nodes = make_nodes(6);
            let result = executor.run_epoch(&mut nodes, deliveries(6));
            assert!(result.error.is_none());
            let effects: Vec<_> = result
                .outcomes
                .iter()
                .map(|o| (o.time, o.seq, o.node, o.sends.clone(), o.request_flush))
                .collect();
            let stores: Vec<_> = nodes
                .values()
                .map(|n| (n.store().tuples("path"), n.eval_stats()))
                .collect();
            (effects, stores)
        };
        let baseline = run(1);
        assert_eq!(run(2), baseline);
        assert_eq!(run(4), baseline);
    }

    #[test]
    fn pre_sized_sends_match_the_wire_accounting() {
        let executor = EpochExecutor::new(2, false);
        let mut nodes = make_nodes(4);
        let result = executor.run_epoch(&mut nodes, deliveries(4));
        assert!(result.error.is_none());
        let mut sends = 0usize;
        for outcome in &result.outcomes {
            for batch in &outcome.sends {
                sends += 1;
                assert_eq!(
                    batch.payload_bytes,
                    crate::sharing::plain_wire_size(&batch.deltas),
                    "lane-computed size must equal the sequential accounting"
                );
            }
        }
        assert!(sends > 0, "deliveries must produce outbound batches");
    }

    #[test]
    fn empty_epoch_is_a_no_op() {
        let executor = EpochExecutor::new(2, false);
        let mut nodes = make_nodes(2);
        let result = executor.run_epoch(&mut nodes, Vec::new());
        assert!(result.outcomes.is_empty() && result.error.is_none());
    }

    #[test]
    fn earliest_error_wins_and_preceding_effects_survive() {
        // A strand with an unbound head variable errors when fired
        // (validation is bypassed by compiling the strand directly).
        let program = ndlog_lang::parse_program("r1 out(@S, X) :- q(@S, C).").unwrap();
        let strands: Arc<Vec<ndlog_runtime::CompiledStrand>> = Arc::new(
            ndlog_lang::seminaive::delta_rewrite_full(&program)
                .into_iter()
                .map(ndlog_runtime::CompiledStrand::new)
                .collect(),
        );
        for threads in [1, 2, 4] {
            let executor = EpochExecutor::new(threads, false);
            let mut nodes: BTreeMap<NodeAddr, NodeEngine> = (0..2u32)
                .map(|i| {
                    let engine = NodeEngine::new(
                        NodeAddr(i),
                        &[],
                        Arc::clone(&strands),
                        NodeConfig::default(),
                    )
                    .unwrap();
                    (NodeAddr(i), engine)
                })
                .collect();
            let tasks = vec![
                NodeTask {
                    time: 1,
                    seq: 0,
                    node: NodeAddr(0),
                    action: NodeAction::Deliver(vec![TupleDelta::insert(
                        "unrelated",
                        Tuple::new(vec![Value::addr(0u32)]),
                    )]),
                },
                NodeTask {
                    time: 2,
                    seq: 1,
                    node: NodeAddr(1),
                    action: NodeAction::Deliver(vec![TupleDelta::insert(
                        "q",
                        Tuple::new(vec![Value::addr(1u32), Value::Int(5)]),
                    )]),
                },
            ];
            let result = executor.run_epoch(&mut nodes, tasks);
            assert!(result.error.is_some(), "firing the bad strand must error");
            assert_eq!(
                result.outcomes.len(),
                1,
                "the outcome preceding the error survives ({threads} threads)"
            );
            assert_eq!(result.outcomes[0].node, NodeAddr(0));
        }
    }

    #[test]
    fn inline_and_pooled_executors_report_threads() {
        assert_eq!(EpochExecutor::new(0, false).threads(), 1);
        assert_eq!(EpochExecutor::new(1, false).threads(), 1);
        assert_eq!(EpochExecutor::new(3, false).threads(), 3);
    }

    fn same_node_deliveries() -> Vec<NodeTask> {
        (0..3u64)
            .map(|i| NodeTask {
                time: 1000 + i,
                seq: i,
                node: NodeAddr(0),
                action: NodeAction::Deliver(vec![link(0, i as u32 + 1, 1.0)]),
            })
            .collect()
    }

    #[test]
    fn consecutive_deliveries_coalesce_into_one_receive_batch() {
        let executor = EpochExecutor::new(1, false);
        let mut nodes = make_nodes(1);
        let result = executor.run_epoch(&mut nodes, same_node_deliveries());
        assert!(result.error.is_none());
        assert_eq!(result.outcomes.len(), 1, "one merged outcome");
        // The merged outcome carries the last member's (time, seq).
        assert_eq!((result.outcomes[0].time, result.outcomes[0].seq), (1002, 2));
        assert_eq!(result.deliveries, 3);
        assert_eq!(result.receive_batches, 1);
        assert_eq!(nodes[&NodeAddr(0)].store().count("path"), 3);
    }

    #[test]
    fn coalescing_off_restores_per_event_outcomes() {
        let executor = EpochExecutor::new(1, false).coalescing(false);
        let mut nodes = make_nodes(1);
        let result = executor.run_epoch(&mut nodes, same_node_deliveries());
        assert!(result.error.is_none());
        assert_eq!(result.outcomes.len(), 3);
        assert_eq!(result.deliveries, 3);
        assert_eq!(result.receive_batches, 3);
        assert_eq!(nodes[&NodeAddr(0)].store().count("path"), 3);
    }

    #[test]
    fn flush_timers_break_a_coalesced_run() {
        let executor = EpochExecutor::new(1, false);
        let plan = plan(&programs::shortest_path("")).unwrap();
        let strands = Arc::new(plan.strands.clone());
        let config = NodeConfig {
            sharing_delay: Some(300_000),
            ..Default::default()
        };
        let engine = NodeEngine::new(NodeAddr(0), &[plan], strands, config).unwrap();
        let mut nodes: BTreeMap<NodeAddr, NodeEngine> = [(NodeAddr(0), engine)].into();
        let deliver = |time: u64, seq: u64, d: u32| NodeTask {
            time,
            seq,
            node: NodeAddr(0),
            action: NodeAction::Deliver(vec![link(0, d, 1.0)]),
        };
        let tasks = vec![
            deliver(1000, 0, 1),
            NodeTask {
                time: 1001,
                seq: 1,
                node: NodeAddr(0),
                action: NodeAction::Flush,
            },
            deliver(1002, 2, 2),
        ];
        let result = executor.run_epoch(&mut nodes, tasks);
        assert!(result.error.is_none());
        assert_eq!(result.outcomes.len(), 3, "the flush is not absorbed");
        assert!(result.outcomes[1].was_flush);
        assert!(
            !result.outcomes[1].sends.is_empty(),
            "the flush releases the held tuples of the first delivery"
        );
        assert_eq!(result.deliveries, 2);
        assert_eq!(result.receive_batches, 2);
    }
}
