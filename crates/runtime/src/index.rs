//! Secondary hash indexes over stored relations.
//!
//! The P2 dataflow fires a rule strand once per arriving delta and joins it
//! against the *stored* tables of the other body predicates. Without
//! indexes every such join is a full scan — O(|relation|) work per binding
//! environment — which makes per-delta work quadratic-ish on the hot path
//! of every experiment. This module provides the storage half of the fix
//! (the compilation half is [`crate::strand::ProbePlan`]):
//!
//! * an [`IndexSignature`] names a set of columns that a join binds to
//!   concrete values (a *bound-column signature*, the same notion index-
//!   driven homomorphism search uses for conceptual-graph matching);
//! * a [`SecondaryIndex`] maps each distinct projection of a relation onto
//!   that signature to a [`Bucket`] holding the matching tuples, so a
//!   probe touches exactly the matching tuples;
//! * [`crate::relation::Relation`] maintains its indexes incrementally on
//!   insert, key-replacement, deletion and soft-state expiry, and chooses
//!   per lookup among its access paths.
//!
//! Indexes are declared once per program (the evaluator and the per-node
//! engines collect every compiled strand's signatures up front), never per
//! join — but a declared signature only becomes a secondary index when no
//! cheaper path serves it. [`crate::relation::Relation::lookup_n`] knows
//! four access paths:
//!
//! * **point** — a signature covering an explicit primary key is answered
//!   by the relation's hashed primary-key map; no index is built for it;
//! * **location walk** — in a node engine's store every tuple of a located
//!   relation carries the node's own address in column 0, so column 0 is
//!   dropped from its signatures and a column-0-only signature becomes a
//!   walk over the whole relation in primary-key order;
//! * **secondary** — a [`SecondaryIndex`] on what is left of the
//!   signature, any bound columns it leaves out (column 0 included)
//!   checked residually per candidate;
//! * **scan** — nothing covers the bound columns.
//!
//! On the paper's shortest-path program four signatures per node remain:
//! `link [1]`, `path [1]` and `[1, 4]`, and the transfer relation's `[1]`.
//!
//! # Interned keys, dense buckets
//!
//! Bucket keys are **interned**: a projection is mapped through the owning
//! relation's [`Interner`] to a fixed-size `[ValueId]`, so maintaining or
//! probing an index hashes and compares `u32` ids instead of whole values
//! (a path-vector column no longer walks its list per index operation),
//! and the bucket map never clones projected `Value`s. The relation passes
//! its interner to every call that maps values to ids; an index never
//! sees ids from another relation's table. Probe keys and removals use
//! the read-only [`Interner::lookup_into`] path: a never-interned value
//! cannot match any stored tuple, so the probe answers "empty" without
//! growing the table.
//!
//! Each [`Bucket`] holds its members in two dense arrays, both sorted by
//! primary-key *value* (never by id), so probe results iterate in
//! deterministic order and simulation runs stay bit-for-bit reproducible:
//!
//! * per member, its shared `Arc<[Value]>` primary key (the relation's own
//!   allocation, reference-bumped into every index — kept for ordering),
//!   its storage timestamp and the relation slot holding the tuple;
//! * row-major, every member's column values as interned `ValueId`s.
//!
//! Visibility (`seq <= seq_limit`) and residual-column filtering therefore
//! compare dense `u64`/`u32` values, and a surviving candidate is
//! materialized straight from its slot, without a key lookup. A bucket
//! costs three allocations whatever the arity (its map key and the two
//! arrays). Buckets accumulating tuples of differing arities (only
//! possible in hand-built test stores) degrade to the member array with
//! value-compared residuals.
//!
//! Maintenance is O(bucket size) per insert/remove (sorted `Vec`
//! splicing) versus a tree's O(log n) — a deliberate trade: probe-side
//! dense walks dominate maintenance in every measured workload, and
//! buckets are small: on the shortest-path program they hold one or two
//! tuples on average, because a located relation's column 0, which would
//! file the whole relation under one bucket, is served by the location
//! walk. A relation bulk-loading millions of tuples under one projection
//! would want a hybrid (tree beyond a size threshold).
//!
//! # Probe accounting
//!
//! [`JoinStats`] counts probes at two granularities: `logical_probes` is
//! the number of binding environments answered by an index (one per
//! trigger per atom — the historical notion, preserved so differential
//! tests can compare evaluation modes), while `distinct_probes` is the
//! number of bucket lookups actually executed. The batch path's
//! key-grouped probe sharing ([`crate::batch`]) answers a whole group of
//! same-key environments with one bucket lookup, so `distinct_probes ≤
//! logical_probes` there; the tuple-at-a-time path performs one lookup per
//! environment, so the two counters coincide.

use crate::hash::FxHashMap;
use crate::intern::{Interner, ValueId};
use ndlog_lang::Value;
use std::sync::Arc;

/// Join-level counters accumulated while firing strands: how many joins
/// went through an index probe vs. a scan, how many bucket lookups were
/// actually executed, and how many stored tuples were examined in total.
/// `tuples_examined` is the paper's computation-overhead proxy: with
/// indexes it is proportional to the number of matches rather than the
/// relation size, and it is counted per *logical* probe (a shared bucket
/// lookup still charges every group member), so it is identical whether or
/// not probes are grouped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JoinStats {
    /// Binding environments answered by an index probe (per trigger per
    /// atom — identical across grouped, ungrouped and tuple-at-a-time
    /// evaluation).
    pub logical_probes: usize,
    /// Bucket lookups actually executed. Equal to `logical_probes` on the
    /// tuple-at-a-time path; `≤ logical_probes` on the key-grouped batch
    /// path, which probes each distinct key once per atom per batch.
    pub distinct_probes: usize,
    /// Joins that fell back to scanning the relation (no bound columns, or
    /// no index declared for the signature), counted per environment.
    pub scans: usize,
    /// Stored tuples examined across all probes and scans, counted per
    /// environment.
    pub tuples_examined: usize,
}

impl std::ops::AddAssign for JoinStats {
    fn add_assign(&mut self, other: JoinStats) {
        self.logical_probes += other.logical_probes;
        self.distinct_probes += other.distinct_probes;
        self.scans += other.scans;
        self.tuples_examined += other.tuples_examined;
    }
}

/// A normalized (sorted, deduplicated) set of bound columns identifying an
/// index.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexSignature(Vec<usize>);

impl IndexSignature {
    /// Normalize an arbitrary column list into a signature.
    pub fn new(cols: &[usize]) -> Self {
        let mut cols = cols.to_vec();
        cols.sort_unstable();
        cols.dedup();
        IndexSignature(cols)
    }

    /// The sorted column indexes.
    pub fn columns(&self) -> &[usize] {
        &self.0
    }

    /// Whether the signature binds no columns (a degenerate "index"
    /// equivalent to a full scan; never materialized).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether every column of this signature appears in `cols` (which
    /// must be sorted ascending): an index on this signature can serve a
    /// lookup binding `cols`, with the leftover columns checked residually.
    pub fn is_covered_by(&self, cols: &[usize]) -> bool {
        // Both sides are sorted ascending, so a single forward pass over
        // `cols` suffices.
        let mut cols = cols.iter();
        self.0.iter().all(|&col| cols.by_ref().any(|&c| c == col))
    }
}

/// A bucket: the tuples sharing one projection, in deterministic
/// primary-key-value order, stored as two dense arrays. See the module
/// docs for the layout.
#[derive(Debug, Clone, Default)]
pub struct Bucket {
    /// Members in primary-key-value order: each one's shared primary key,
    /// storage timestamp and relation slot.
    members: Vec<(Arc<[Value]>, u64, u32)>,
    /// Row-major member payload: column `c` of member `i` is interned as
    /// `ids[i * arity + c]`. Empty once the bucket has degraded (mixed
    /// arities).
    ids: Vec<ValueId>,
    /// The members' common arity.
    arity: usize,
    /// Set for good when tuples of differing arities are filed under the
    /// bucket (hand-built test stores only); residual filtering then falls
    /// back to comparing materialized values.
    degraded: bool,
}

impl Bucket {
    /// Number of member tuples.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the bucket has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The member primary key at `i`.
    pub fn key(&self, i: usize) -> &Arc<[Value]> {
        &self.members[i].0
    }

    /// The storage timestamp of member `i`.
    pub fn seq(&self, i: usize) -> u64 {
        self.members[i].1
    }

    /// The relation slot holding member `i` (see
    /// [`crate::relation::Relation`]): the stored tuple is reached without
    /// a key lookup.
    pub fn slot(&self, i: usize) -> u32 {
        self.members[i].2
    }

    /// Whether the dense id payload is authoritative (uniform arity).
    pub fn has_ids(&self) -> bool {
        !self.degraded
    }

    /// The members' common arity (meaningful while [`Bucket::has_ids`]).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The interned id of column `c` of member `i`, when the bucket has
    /// ids and `c` is within the arity.
    pub fn id(&self, i: usize, c: usize) -> Option<ValueId> {
        (!self.degraded && c < self.arity).then(|| self.ids[i * self.arity + c])
    }

    /// File a member under its primary key, keeping the arrays sorted.
    /// Returns false when the key is already present (idempotent add).
    fn insert(
        &mut self,
        primary_key: Arc<[Value]>,
        tuple_ids: &[ValueId],
        seq: u64,
        slot: u32,
    ) -> bool {
        let pos = match self
            .members
            .binary_search_by(|(k, _, _)| k.as_ref().cmp(primary_key.as_ref()))
        {
            Ok(_) => return false,
            Err(pos) => pos,
        };
        if self.members.is_empty() && !self.degraded {
            self.arity = tuple_ids.len();
        } else if tuple_ids.len() != self.arity {
            // Mixed arities: degrade to key/seq members for good.
            self.ids = Vec::new();
            self.degraded = true;
        }
        self.members.insert(pos, (primary_key, seq, slot));
        if !self.degraded {
            let at = pos * self.arity;
            self.ids.splice(at..at, tuple_ids.iter().copied());
        }
        true
    }

    /// Remove the member with this primary key. Returns whether it was
    /// present.
    fn remove(&mut self, primary_key: &[Value]) -> bool {
        let Ok(pos) = self
            .members
            .binary_search_by(|(k, _, _)| k.as_ref().cmp(primary_key))
        else {
            return false;
        };
        self.members.remove(pos);
        if !self.degraded {
            let at = pos * self.arity;
            self.ids.drain(at..at + self.arity);
        }
        true
    }
}

/// A hash index from an interned bound-column projection to the dense
/// bucket of tuples carrying it.
#[derive(Debug, Clone)]
pub struct SecondaryIndex {
    signature: IndexSignature,
    buckets: FxHashMap<Box<[ValueId]>, Bucket>,
    /// Total number of (projection, primary-key) entries, for accounting.
    entries: usize,
    /// Reusable id scratch for the maintenance (write) path.
    scratch: Vec<ValueId>,
}

impl SecondaryIndex {
    /// An empty index over the given signature.
    pub fn new(signature: IndexSignature) -> Self {
        SecondaryIndex {
            signature,
            buckets: FxHashMap::default(),
            entries: 0,
            scratch: Vec::new(),
        }
    }

    /// The signature this index serves.
    pub fn signature(&self) -> &IndexSignature {
        &self.signature
    }

    /// Number of (projection, primary-key) entries currently indexed.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Register a stored tuple under its (shared) primary key and relation
    /// slot. `tuple_ids` are the interned ids of *all* the tuple's columns
    /// (the relation interns each stored tuple once and shares the ids
    /// across its indexes); the bucket key is the projection onto this
    /// index's signature, and the full ids become the bucket's dense
    /// payload.
    /// Tuples lacking a signature column (shorter arity) are skipped —
    /// they stay unindexed and unreachable by probes on this signature,
    /// matching residual-scan semantics.
    pub fn add(&mut self, tuple_ids: &[ValueId], primary_key: Arc<[Value]>, seq: u64, slot: u32) {
        self.scratch.clear();
        for &c in self.signature.columns() {
            match tuple_ids.get(c) {
                Some(&id) => self.scratch.push(id),
                None => return,
            }
        }
        // Only a new bucket allocates its key.
        if !self.buckets.contains_key(self.scratch.as_slice()) {
            self.buckets
                .insert(self.scratch.as_slice().into(), Bucket::default());
        }
        let bucket = self
            .buckets
            .get_mut(self.scratch.as_slice())
            .expect("bucket ensured above");
        if bucket.insert(primary_key, tuple_ids, seq, slot) {
            self.entries += 1;
        }
    }

    /// Remove a stored tuple's entry: `tuple_values` are the tuple's
    /// columns (projected onto the signature here) and `primary_key` its
    /// key. Returns whether an entry was actually removed (false indicates
    /// the index was already consistent, e.g. a stale-deletion no-op, or a
    /// tuple too short to have been filed). Resolves the projection
    /// read-only through the relation's `interner`: a projection containing
    /// a never-interned value cannot have an entry, so removals never grow
    /// the table.
    pub fn remove(
        &mut self,
        interner: &Interner,
        tuple_values: &[Value],
        primary_key: &[Value],
    ) -> bool {
        let cols = self.signature.columns();
        if cols.last().is_some_and(|&c| c >= tuple_values.len())
            || !interner.lookup_into(cols.iter().map(|&c| &tuple_values[c]), &mut self.scratch)
        {
            return false;
        }
        let Some(bucket) = self.buckets.get_mut(self.scratch.as_slice()) else {
            return false;
        };
        let removed = bucket.remove(primary_key);
        if removed {
            self.entries -= 1;
            if bucket.is_empty() {
                self.buckets.remove(self.scratch.as_slice());
            }
        }
        removed
    }

    /// Drop every entry, keeping the signature.
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.entries = 0;
    }

    /// The bucket for one projection (the probe values in signature
    /// order), if any, resolved through the relation's `interner`.
    pub fn bucket(&self, interner: &Interner, key_values: &[Value]) -> Option<&Bucket> {
        self.bucket_by(interner, key_values.iter())
    }

    /// The bucket a lookup binding `cols` (sorted, covering this index's
    /// signature) to the parallel `key` values probes: the signature's
    /// values are picked out of the key in place, never projected into a
    /// temporary.
    pub fn bucket_for(
        &self,
        interner: &Interner,
        cols: &[usize],
        key: &[Value],
    ) -> Option<&Bucket> {
        self.bucket_by(
            interner,
            self.signature.columns().iter().map(|c| {
                let pos = cols.binary_search(c).expect("covered signature");
                &key[pos]
            }),
        )
    }

    /// Resolve probe values through the read-only interner path (a
    /// reusable thread-local id buffer, no allocation), so a never-stored
    /// value answers `None` without growing the table.
    fn bucket_by<'v>(
        &self,
        interner: &Interner,
        values: impl Iterator<Item = &'v Value>,
    ) -> Option<&Bucket> {
        thread_local! {
            static PROBE_IDS: std::cell::RefCell<Vec<ValueId>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        PROBE_IDS.with(|ids| {
            let mut ids = ids.borrow_mut();
            if !interner.lookup_into(values, &mut ids) {
                return None;
            }
            self.buckets.get(ids.as_slice())
        })
    }

    /// Number of distinct projections (buckets).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Int(x)).collect()
    }

    fn key(xs: &[i64]) -> Arc<[Value]> {
        vals(xs).into()
    }

    /// An index under test with the interner its relation would own.
    struct Indexed {
        idx: SecondaryIndex,
        interner: Interner,
    }

    fn index(cols: &[usize]) -> Indexed {
        Indexed {
            idx: SecondaryIndex::new(IndexSignature::new(cols)),
            interner: Interner::new(),
        }
    }

    /// File `tuple` (which doubles as its own primary key, as in keyless
    /// relations) with a synthetic seq.
    fn add(ix: &mut Indexed, tuple: &[i64], seq: u64) {
        let mut ids = Vec::new();
        ix.interner.intern_all_into(&vals(tuple), &mut ids);
        ix.idx.add(&ids, key(tuple), seq, 0);
    }

    fn bucket<'a>(ix: &'a Indexed, key: &[i64]) -> Option<&'a Bucket> {
        ix.idx.bucket(&ix.interner, &vals(key))
    }

    /// The member keys filed under `key` (empty when no bucket).
    fn keys(ix: &Indexed, key: &[i64]) -> Vec<Vec<Value>> {
        bucket(ix, key).map_or_else(Vec::new, |b| {
            (0..b.len()).map(|i| b.key(i).to_vec()).collect()
        })
    }

    fn remove(ix: &mut Indexed, tuple: &[i64]) -> bool {
        let t = vals(tuple);
        ix.idx.remove(&ix.interner, &t, &t)
    }

    fn id(ix: &Indexed, v: i64) -> Option<ValueId> {
        ix.interner.lookup(&Value::Int(v))
    }

    #[test]
    fn signature_normalizes() {
        let sig = IndexSignature::new(&[2, 0, 2, 1]);
        assert_eq!(sig.columns(), &[0, 1, 2]);
        assert!(!sig.is_empty());
        assert!(IndexSignature::new(&[]).is_empty());
        assert_eq!(IndexSignature::new(&[1, 0]), IndexSignature::new(&[0, 1]));
    }

    #[test]
    fn add_probe_remove_roundtrip() {
        let mut idx = index(&[0]);
        add(&mut idx, &[1, 10], 1);
        add(&mut idx, &[1, 20], 2);
        add(&mut idx, &[2, 30], 3);
        assert_eq!(idx.idx.len(), 3);
        assert_eq!(idx.idx.bucket_count(), 2);

        assert_eq!(keys(&idx, &[1]), vec![vals(&[1, 10]), vals(&[1, 20])]);
        assert!(keys(&idx, &[9]).is_empty());

        assert!(remove(&mut idx, &[1, 10]));
        assert!(!remove(&mut idx, &[1, 10]), "double remove is a no-op");
        assert_eq!(keys(&idx, &[1]).len(), 1);
        assert!(remove(&mut idx, &[1, 20]));
        assert_eq!(idx.idx.bucket_count(), 1, "empty buckets are dropped");
        assert!(remove(&mut idx, &[2, 30]));
        assert!(idx.idx.is_empty());
    }

    #[test]
    fn duplicate_add_is_idempotent() {
        let mut idx = index(&[1]);
        add(&mut idx, &[0, 5], 1);
        add(&mut idx, &[0, 5], 2);
        assert_eq!(idx.idx.len(), 1);
        let bucket = bucket(&idx, &[5]).unwrap();
        assert_eq!(bucket.seq(0), 1, "the original entry keeps its seq");
    }

    #[test]
    fn buckets_are_dense_and_carry_seqs() {
        let mut idx = index(&[1]);
        add(&mut idx, &[7, 3, 40], 11);
        add(&mut idx, &[5, 3, 30], 12);
        let bucket = bucket(&idx, &[3]).unwrap();
        assert!(bucket.has_ids());
        assert_eq!(bucket.arity(), 3);
        assert_eq!(bucket.len(), 2);
        // Members sort by primary-key value: [5,3,30] before [7,3,40].
        assert_eq!(bucket.key(0).as_ref(), &vals(&[5, 3, 30])[..]);
        assert_eq!(bucket.seq(0), 12);
        assert_eq!(bucket.seq(1), 11);
        // The dense ids are parallel to the keys and are the relation's
        // ids of the stored values.
        assert_eq!(bucket.id(0, 2), id(&idx, 30));
        assert_eq!(bucket.id(1, 2), id(&idx, 40));
        assert_eq!(bucket.id(1, 0), id(&idx, 7));
        assert!(bucket.id(0, 3).is_none());
        assert!(remove(&mut idx, &[5, 3, 30]));
        let bucket = self::bucket(&idx, &[3]).unwrap();
        assert_eq!(bucket.id(0, 2), id(&idx, 40));
    }

    #[test]
    fn mixed_arity_bucket_degrades_but_stays_correct() {
        let mut idx = index(&[0]);
        add(&mut idx, &[9, 1], 1);
        add(&mut idx, &[9, 1, 2], 2);
        let bucket = bucket(&idx, &[9]).unwrap();
        assert!(!bucket.has_ids(), "mixed arities degrade the bucket");
        assert_eq!(bucket.len(), 2);
        assert_eq!(keys(&idx, &[9]).len(), 2);
        assert!(remove(&mut idx, &[9, 1]));
        assert!(remove(&mut idx, &[9, 1, 2]));
        assert!(idx.idx.is_empty());
    }

    #[test]
    fn short_tuples_stay_unindexed() {
        let mut idx = index(&[2]);
        add(&mut idx, &[1], 1);
        assert!(idx.idx.is_empty(), "tuples lacking the column are skipped");
        add(&mut idx, &[1, 2, 3], 2);
        assert_eq!(idx.idx.len(), 1);
    }

    #[test]
    fn never_interned_probe_value_is_an_empty_bucket() {
        let mut idx = index(&[0]);
        add(&mut idx, &[3, 1], 1);
        // A value that was never stored anywhere cannot match; the probe
        // must answer without interning it.
        let novel = Value::str("index-test-never-stored");
        assert!(idx
            .idx
            .bucket(&idx.interner, std::slice::from_ref(&novel))
            .is_none());
        assert_eq!(idx.interner.lookup(&novel), None);
        assert_eq!(idx.interner.len(), 2);
    }
}
