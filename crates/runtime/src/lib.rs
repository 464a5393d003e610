//! Single-node NDlog evaluation machinery.
//!
//! This crate implements everything a node needs to evaluate a (localized)
//! NDlog program over its local state:
//!
//! * [`tuple`] — tuples and signed tuple deltas;
//! * [`expr`] — expression evaluation and the builtin `f_*` functions
//!   (path-vector construction, membership tests, arithmetic);
//! * [`relation`] — stored relations with primary keys, derivation counts
//!   (the count algorithm for deletions), per-tuple timestamps and optional
//!   soft-state TTLs, and the one access-path chooser behind every join
//!   (point lookup, location walk, secondary index or scan);
//! * [`intern`] — the global thread-safe [`Value`](ndlog_lang::Value)
//!   interner behind the index layer: ids are stable for the life of the
//!   process (interned values are deliberately never freed — the distinct-
//!   value set is bounded by the stored data, and probe keys use a
//!   read-only lookup that cannot grow the table), id equality is exactly
//!   value equality, and because nothing observable is ever ordered by id,
//!   concurrent interning from executor threads cannot perturb results —
//!   the determinism guarantee the parallel engine relies on;
//! * [`index`] — secondary hash indexes over bound-column signatures,
//!   maintained incrementally so joins probe in O(matches) instead of
//!   scanning; only signatures no point lookup or location walk serves are
//!   materialized, bucket keys are interned `ValueId`s and bucket members
//!   are shared `Arc` primary keys with their relation slots, so index
//!   maintenance hashes fixed-size ids instead of cloning values;
//! * [`store`] — a node's collection of relations, built from a program's
//!   `materialize` declarations;
//! * [`strand`] — compiled rule strands (the unit of execution in P2's
//!   dataflow, Figures 3 and 5) and their firing logic;
//! * [`batch`] — batch-delta evaluation: slot-compiled strand plans fired
//!   over whole delta batches through flat reusable buffers, the one join
//!   path production runs (the tuple-at-a-time and ungrouped paths remain
//!   as test and bench references);
//! * [`aggview`] — incremental maintenance of aggregate rules
//!   (`min<C>`-style heads) with O(log n) deletion handling and
//!   group-level pinning/rebuild for the DRed pass;
//! * [`dred`] — DRed-style two-phase deletion maintenance (over-delete the
//!   downstream closure in batched waves, then re-derive survivors), the
//!   count-agnostic path every actual tuple removal takes;
//! * [`kernel`] — the evaluation kernel, the one copy of PSN with DRed
//!   deletions: store, strands, views, work queue, DRed pass, tap and
//!   [`EvalStats`], with `ingest`, the batch firing round and the routing
//!   of derivations located at other nodes each written once;
//! * [`evaluator`] — the three centralized evaluation strategies of
//!   Section 3 as drivers over a kernel: semi-naive (SN, Algorithm 1),
//!   buffered semi-naive (BSN) and pipelined semi-naive (PSN, Algorithm 3),
//!   with derivation statistics used to validate Theorems 1 and 2.
//!
//! The distributed engine (`ndlog-core`) runs one kernel per node and adds
//! the network, outbound routing and flushing, soft state, crashes and the
//! optimizations.
//!
//! # Performance
//!
//! The join hot path is benchmarked by `experiments micro` (release mode;
//! CI runs it as a smoke step gated at 2× against the committed
//! `BENCH_micro_runtime.json`, covering both the per-trigger and the
//! grouped probe paths): a strand probing a 10⁴-tuple relation with 10
//! matches per trigger, fired 256 triggers at a time over one store
//! snapshot. The timed paths are the indexed tuple-at-a-time reference
//! (`CompiledStrand::fire_counted`), the indexed batch-delta path without
//! and with key-grouped probe sharing (the `fire_batch_ungrouped`
//! reference / the production `fire_batch`), the unindexed full scan, and
//! a **duplicate-key** trigger set with Zipf-ish key frequencies fired
//! through both batch paths. The methodology is deliberately simple: a
//! fixed deterministic workload, one warmup pass, then a fixed number of
//! timed passes, reported as µs per trigger.
//!
//! Two optimizations stack on the batch path:
//!
//! * **Key-grouped probe sharing** ([`batch`]): a delta batch's rows are
//!   partitioned by probe-key value per body atom, each distinct key is
//!   looked up once ([`relation::Relation::lookup_n`]), residual checks
//!   run once per candidate, and the match set is broadcast to every
//!   group member through offset ranges into a flat match buffer. Real
//!   workloads (path exploration, flooding) are heavily key-skewed, so
//!   this removes most bucket lookups and candidate materializations.
//! * **Dense index buckets** ([`index`]): each bucket stores its members
//!   in two value-sorted arrays — (shared `Arc<[Value]>` primary key, seq,
//!   relation slot) per member, and every member's columns as row-major
//!   `ValueId`s — so visibility and residual filtering compare dense
//!   `u64`/`u32` values and surviving candidates are read straight from
//!   their slots.
//! * **Allocation-free ingest** ([`relation`], [`aggview`], [`store`],
//!   [`expr`]): membership tests, aggregate-selection checks and
//!   duplicate inserts look keys up borrowed from the tuple (see the
//!   private `key` module) in hashed maps, list builtins borrow their list
//!   arguments and build their result in one allocation, and builtin calls
//!   keep their arguments on the stack. `tests/allocation_budget.rs` pins
//!   the per-derivation allocation rate of the paper's shortest-path
//!   workload.
//! * **Cross-rule shared subplans** ([`subplan`]): planning fingerprints
//!   every join stage's probe as a `(relation, bound-column signature)`
//!   with [`subplan::shared_signatures`]; when two or more stages across
//!   the program share a fingerprint, a round-scoped
//!   [`subplan::ProbeCache`] memoizes the raw candidate rows per probed
//!   key, so later strands of the same round reuse the first bucket walk
//!   instead of repeating it (residual and visibility checks replay per
//!   consumer). The store is frozen for the round, so cached candidate
//!   sets stay exact — `distinct_probes` drops while every logical
//!   counter is unchanged.
//!
//! Two more optimizations live a layer up, in the distributed engine
//! (`ndlog-core`), but exist to feed this crate's batch path and are
//! measured by the same micro bench:
//!
//! * **Epoch delivery coalescing** (`ndlog-core`'s `exec` module): the
//!   epoch executor merges consecutive same-node message deliveries into
//!   one receive batch, so a node ingests every payload of the run and
//!   calls `process` once — handing [`batch`] one wide delta batch
//!   instead of many single-delta batches. The micro bench times both
//!   schedules through a full node engine (store clock, PSN queue,
//!   outbound routing) as `delivery_per_event_us_per_trigger` vs
//!   `delivery_coalesced_us_per_trigger`; the coalesced figure is part
//!   of the CI 2× gate.
//! * **Wire-buffer arenas** (`ndlog-core`'s `exec::arena` module): the
//!   `Vec<TupleDelta>` payload buffers that carry deltas between nodes
//!   circulate through a per-node pool — rented at the send path,
//!   recycled when the receiver drains them — so steady-state messaging
//!   reuses buffers instead of allocating per message. The scaling
//!   report accounts demanded vs actually-allocated buffer bytes and
//!   prints the reduction factor.
//!
//! Probe accounting is two-counter ([`index::JoinStats`]):
//! `logical_probes` counts per binding environment (identical across
//! grouped, ungrouped and tuple-at-a-time evaluation — what differential
//! tests compare) and `distinct_probes` counts bucket lookups actually
//! executed (`≤ logical` under grouping; both deterministic, so they
//! participate in the cross-thread bitwise-identity checks). Batch firing
//! is semantics-identical to tuple-at-a-time: the [`strand`] tests prove
//! grouped, ungrouped and per-trigger firing of one batch equal down to
//! every logical counter, and `tests/properties.rs` proves every
//! strategy's batched run equal to a run of one-trigger batches — stores
//! down to sequence numbers, and every non-probe counter.

pub mod aggview;
pub mod batch;
pub mod dred;
pub mod evaluator;
pub mod expr;
mod hash;
pub mod index;
pub mod intern;
pub mod kernel;
mod key;
pub mod relation;
pub mod store;
pub mod strand;
pub mod subplan;
pub mod tap;
pub mod tuple;

pub use aggview::AggregateView;
pub use batch::{BatchOutput, BatchScratch, BatchTrigger};
pub use evaluator::{Evaluator, Strategy};
pub use expr::{Bindings, EvalError};
pub use index::{IndexSignature, SecondaryIndex};
pub use intern::ValueId;
pub use kernel::{EvalStats, Kernel};
pub use relation::{InsertOutcome, Relation, RelationSchema};
pub use store::Store;
pub use strand::{ColumnSource, CompiledStrand, Derivation, JoinStats, ProbePlan};
pub use subplan::{shared_signatures, ProbeCache};
pub use tap::DeltaTap;
pub use tuple::{Sign, Tuple, TupleDelta};
