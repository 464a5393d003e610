//! Stored relations: primary keys, derivation counts, timestamps and
//! soft-state lifetimes.
//!
//! Each relation follows the paper's data model (Section 2): it has a
//! primary key (defaulting to the full set of attributes) and stores one
//! tuple per key. Three pieces of bookkeeping ride along with each tuple:
//!
//! * a **derivation count** — the count algorithm of Gupta et al. used for
//!   incremental deletions (Section 4): duplicate derivations increment the
//!   count, deletions decrement it, and the tuple disappears only when the
//!   count reaches zero;
//! * a **timestamp** (local sequence number) — assigned on first insertion
//!   and used by pipelined semi-naive joins to match only "same or older"
//!   tuples (Section 3.3.2), which prevents repeated inferences;
//! * an optional **expiry time** for soft-state tables (Section 4.2):
//!   tuples must be refreshed before their TTL elapses or they are deleted.
//!
//! Relations additionally maintain **secondary hash indexes** (declared
//! once per program from the compiled strands' bound-column signatures, see
//! [`crate::index`]): every mutation — insertion, key replacement, deletion,
//! expiry — updates the indexes incrementally. [`Relation::lookup_n`] (and
//! its single-environment form [`Relation::lookup`]) is the one access-path
//! chooser behind every join; it answers an equality lookup through one of
//! four paths:
//!
//! * **point** — the bound columns cover an explicit primary key, so the
//!   primary map answers with at most one tuple (no secondary index is
//!   ever built for such a signature);
//! * **location walk** — in a store pinned to a node
//!   ([`Relation::set_location`]) every tuple carries the node's address
//!   in column 0, so a lookup bound only on column 0 is the whole relation
//!   in primary-key order;
//! * **secondary** — the most selective declared index whose signature the
//!   bound columns cover (column 0 dropped from signatures of pinned
//!   relations), with the leftover bound columns checked residually;
//! * **scan** — nothing serves the bound columns.
//!
//! Stored tuples live in stable slots, reached three ways: a hashed
//! primary-key map serves membership tests, insertions, deletions and
//! point lookups in one probe; an ordered map from key to slot serves
//! iteration, walks and scans in deterministic key order; and index
//! buckets name their members' slots directly, so a probe candidate that
//! survives visibility and residual filtering (see [`crate::index`]) is
//! read without a key lookup. Key lookups borrow the tuple's key columns
//! (`crate::key`) instead of projecting them into a fresh vector.

use crate::hash::FxHashMap;
use crate::index::{Bucket, IndexSignature, JoinStats, SecondaryIndex};
use crate::intern::{self, ValueId};
use crate::key::{KeyView, Picked, Projection, ValueKey};
use crate::tuple::Tuple;
use ndlog_lang::Value;
use serde::{Deserialize, Serialize};
use std::collections::{btree_map, BTreeMap};
use std::sync::Arc;

/// Schema of a stored relation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelationSchema {
    /// Relation name.
    pub name: String,
    /// Primary-key column indexes; empty means "all columns".
    pub key_columns: Vec<usize>,
    /// Soft-state TTL in microseconds; `None` = hard state.
    pub ttl_micros: Option<u64>,
}

impl RelationSchema {
    /// A hard-state relation keyed on all columns.
    pub fn new(name: impl Into<String>) -> Self {
        RelationSchema {
            name: name.into(),
            key_columns: Vec::new(),
            ttl_micros: None,
        }
    }

    /// Set the primary-key columns.
    pub fn with_keys(mut self, keys: Vec<usize>) -> Self {
        self.key_columns = keys;
        self
    }

    /// Set a soft-state TTL (seconds).
    pub fn with_ttl_seconds(mut self, seconds: f64) -> Self {
        self.ttl_micros = Some((seconds * 1_000_000.0) as u64);
        self
    }

    /// The primary key of a tuple under this schema.
    pub fn key_of(&self, tuple: &Tuple) -> Vec<Value> {
        if self.key_columns.is_empty() {
            tuple.values().to_vec()
        } else {
            tuple.project(&self.key_columns)
        }
    }

    /// Whether a lookup binding `cols` (sorted) pins an explicit primary
    /// key. Relations keyed on all columns never qualify: their arity is
    /// not part of the schema.
    pub fn key_covered_by(&self, cols: &[usize]) -> bool {
        !self.key_columns.is_empty()
            && self
                .key_columns
                .iter()
                .all(|c| cols.binary_search(c).is_ok())
    }

    /// The primary key of a tuple, borrowed from its columns.
    fn key_view<'a>(&'a self, tuple: &'a Tuple) -> Projection<'a> {
        Projection {
            values: tuple.values(),
            cols: (!self.key_columns.is_empty()).then_some(self.key_columns.as_slice()),
        }
    }

    /// The primary key of a tuple as the shared allocation the primary map
    /// and every index bucket reference (one allocation, no intermediate
    /// vector).
    fn shared_key(&self, tuple: &Tuple) -> Arc<[Value]> {
        if self.key_columns.is_empty() {
            tuple.values().into()
        } else {
            self.key_columns
                .iter()
                .map(|&c| tuple.values()[c].clone())
                .collect()
        }
    }
}

/// A stored tuple with its bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoredTuple {
    /// The tuple itself.
    pub tuple: Tuple,
    /// Number of outstanding derivations (count algorithm).
    pub count: u64,
    /// Local timestamp: the store-wide sequence number assigned when the
    /// tuple was first inserted.
    pub seq: u64,
    /// Absolute expiry time in microseconds (soft state only).
    pub expires_at: Option<u64>,
}

/// Result of inserting a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertOutcome {
    /// The tuple is new: propagate an insertion delta.
    New,
    /// An identical tuple already exists: its derivation count was
    /// incremented, nothing to propagate.
    Duplicate,
    /// A different tuple with the same primary key existed and was
    /// replaced (P2's key-update semantics): propagate a deletion of the
    /// returned old tuple and an insertion of the new one.
    Replaced(Tuple),
}

/// Result of deleting a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum DeleteOutcome {
    /// The last derivation was removed: propagate a deletion delta.
    Removed,
    /// Other derivations remain; nothing to propagate.
    Decremented,
    /// No matching tuple was stored (or the stored tuple differs).
    NotFound,
}

/// A stored relation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Relation {
    schema: RelationSchema,
    /// Stored tuples. A tuple keeps its slot while stored (replacements
    /// happen in place), so index buckets reach it by slot; vacated slots
    /// are reused.
    slots: Vec<Option<StoredTuple>>,
    /// Vacated slots awaiting reuse.
    free: Vec<u32>,
    /// Primary key → slot in key order: iteration, walks and scans. The
    /// key allocation is shared with `by_key` and every index bucket the
    /// tuple is filed in.
    order: BTreeMap<Arc<[Value]>, u32>,
    /// Primary key → slot, hashed: membership tests, insertions,
    /// deletions and point lookups. Never iterated, so hashing cannot
    /// affect any result.
    by_key: FxHashMap<ValueKey, u32>,
    /// Secondary indexes, one per distinct materialized signature.
    /// Derivable state: skipped by serialization; the engine re-declares
    /// every signature at construction time.
    #[serde(skip)]
    indexes: Vec<SecondaryIndex>,
    /// The owning node's address (and its interned id) when every stored
    /// tuple carries it in column 0 — see [`Relation::set_location`].
    #[serde(skip)]
    location: Option<(Value, ValueId)>,
    /// Whether a signature binding column 0 alone was declared on a pinned
    /// relation: such lookups then walk the relation and count as probes,
    /// standing in for the single bucket that index would have held.
    #[serde(skip)]
    location_walk: bool,
    /// Reusable scratch for the index write path: each stored tuple's
    /// columns are interned once here and the ids shared by every index.
    #[serde(skip)]
    id_scratch: Vec<ValueId>,
    /// Derivation counts folded away by primary-key replacements. While
    /// this is zero the count algorithm is exact for tuples of this
    /// relation; once it is positive a count-trusting deletion could leave
    /// a key underivable even though alternative derivations exist. The
    /// engines no longer trust counts on the deletion path at all — every
    /// actual removal runs a DRed over-delete/re-derive pass (see
    /// `ndlog_runtime::dred`) — so this counter survives purely as
    /// diagnostics for count-exactness assertions in tests.
    lossy_replacements: u64,
}

impl Relation {
    /// Create an empty relation.
    pub fn new(schema: RelationSchema) -> Self {
        Relation {
            schema,
            slots: Vec::new(),
            free: Vec::new(),
            order: BTreeMap::new(),
            by_key: FxHashMap::default(),
            indexes: Vec::new(),
            location: None,
            location_walk: false,
            id_scratch: Vec::new(),
            lossy_replacements: 0,
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Whether an identical tuple is stored.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.get_by_key_of(tuple).is_some_and(|s| &s.tuple == tuple)
    }

    /// The stored tuple with the same primary key as `tuple`, if any.
    pub fn get_by_key_of(&self, tuple: &Tuple) -> Option<&StoredTuple> {
        self.stored_at(&self.schema.key_view(tuple))
    }

    /// Look up by an explicit key.
    pub fn get(&self, key: &[Value]) -> Option<&StoredTuple> {
        self.stored_at(&Projection {
            values: key,
            cols: None,
        })
    }

    /// The tuple stored under a borrowed primary key.
    fn stored_at(&self, key: &dyn KeyView) -> Option<&StoredTuple> {
        let &slot = self.by_key.get(key)?;
        Some(self.stored(slot))
    }

    /// The tuple in a live slot.
    fn stored(&self, slot: u32) -> &StoredTuple {
        self.slots[slot as usize]
            .as_ref()
            .expect("indexed slots are live")
    }

    /// Iterate over stored tuples in key order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &StoredTuple> {
        self.order.values().map(|&slot| self.stored(slot))
    }

    /// Iterate over tuples matching equality constraints on the given
    /// columns, visible at or before `seq_limit`.
    ///
    /// This is the residual full-scan path; joins with bound columns should
    /// go through [`Relation::lookup`] instead.
    pub fn scan_match<'r, 'b>(
        &'r self,
        bound: &'b [(usize, Value)],
        seq_limit: u64,
    ) -> impl Iterator<Item = &'r StoredTuple> + use<'r, 'b> {
        self.iter().filter(move |s| {
            s.seq <= seq_limit
                && bound
                    .iter()
                    .all(|(col, val)| s.tuple.get(*col) == Some(val))
        })
    }

    /// Pin the relation to a node: every tuple stored from now on must
    /// carry `here` in column 0 (debug-asserted on insert). This is true of
    /// every relation whose first attribute is a location specifier in a
    /// node engine's store, since a node only stores tuples located at
    /// itself. Column 0 is then dropped from index signatures — under the
    /// invariant it splits nothing — and re-checked residually, and a
    /// lookup bound on column 0 alone walks the relation in primary-key
    /// order (the same tuples, in the same order, the one bucket of a
    /// column-0 index held). Already declared indexes are rebuilt under
    /// the new rule.
    pub fn set_location(&mut self, here: Value) {
        debug_assert!(
            self.iter().all(|s| s.tuple.get(0) == Some(&here)),
            "{}: stored tuples must carry the pinned location",
            self.schema.name
        );
        let id = intern::intern(&here);
        self.location = Some((here, id));
        let declared: Vec<IndexSignature> = self
            .indexes
            .drain(..)
            .map(|ix| ix.signature().clone())
            .collect();
        for signature in declared {
            self.ensure_index(signature.columns());
        }
    }

    /// The node address every tuple carries in column 0, if pinned.
    pub fn location(&self) -> Option<&Value> {
        self.location.as_ref().map(|(here, _)| here)
    }

    /// Ensure lookups binding `cols` are served by an index, building and
    /// backfilling a secondary index if one is needed. Returns true if
    /// anything was built. Nothing is built for empty signatures, for
    /// signatures covering an explicit primary key (served by point
    /// lookups), or for a pinned relation's column 0 (see
    /// [`Relation::set_location`]); duplicates are ignored.
    pub fn ensure_index(&mut self, cols: &[usize]) -> bool {
        let mut signature = IndexSignature::new(cols);
        if signature.is_empty() || self.schema.key_covered_by(signature.columns()) {
            return false;
        }
        if self.location.is_some() && signature.columns()[0] == 0 {
            signature = IndexSignature::new(&signature.columns()[1..]);
            if signature.is_empty() {
                return !std::mem::replace(&mut self.location_walk, true);
            }
        }
        if self.indexes.iter().any(|i| i.signature() == &signature) {
            return false;
        }
        let mut index = SecondaryIndex::new(signature);
        for (key, &slot) in &self.order {
            let stored = self.slots[slot as usize]
                .as_ref()
                .expect("ordered slots are live");
            intern::intern_all_into(stored.tuple.values(), &mut self.id_scratch);
            index.add(&self.id_scratch, Arc::clone(key), stored.seq, slot);
        }
        self.indexes.push(index);
        true
    }

    /// The signatures of the secondary indexes this relation materializes.
    pub fn index_signatures(&self) -> impl Iterator<Item = &IndexSignature> {
        self.indexes.iter().map(SecondaryIndex::signature)
    }

    /// Choose the cheapest materialized index that can serve an equality
    /// lookup on `cols`/`key`: among the indexes whose signature is a
    /// subset of the bound columns, pick the most selective one — most
    /// bound columns first, smallest bucket (estimated matches) as the
    /// tie-breaker. Exact ties (same bound-column count *and* same bucket
    /// estimate) resolve by signature order — a property of the indexes
    /// themselves, never of the order they happened to be declared in — so
    /// the choice is deterministic across engines even when construction
    /// paths declare the same signatures differently.
    ///
    /// This runs once per join environment, so it allocates nothing:
    /// losing candidates are rejected on signature length alone, and
    /// bucket sizes are looked up (with the signature's values picked out
    /// of `key` in place) only when several finalists share the longest
    /// covered signature.
    fn best_index(&self, cols: &[usize], key: &[Value]) -> Option<&SecondaryIndex> {
        // Pass 1: the longest covered signature length and how many
        // candidates reach it.
        let mut max_len = 0;
        let mut finalists = 0;
        for index in &self.indexes {
            let sig = index.signature();
            let len = sig.columns().len();
            if len < max_len || !sig.is_covered_by(cols) {
                continue;
            }
            if len > max_len {
                max_len = len;
                finalists = 1;
            } else {
                finalists += 1;
            }
        }
        if max_len == 0 {
            return None;
        }
        // Pass 2: with several finalists, the smallest bucket wins
        // (signature order breaks exact ties).
        let mut best: Option<(&SecondaryIndex, usize)> = None;
        for index in &self.indexes {
            let sig = index.signature();
            if sig.columns().len() != max_len || !sig.is_covered_by(cols) {
                continue;
            }
            if finalists == 1 {
                return Some(index);
            }
            let bucket = index.bucket_for(cols, key).map_or(0, Bucket::len);
            match &best {
                Some((current, current_bucket))
                    if (*current_bucket, current.signature()) <= (bucket, sig) => {}
                _ => best = Some((index, bucket)),
            }
        }
        best.map(|(index, _)| index)
    }

    /// The access path a lookup binding `cols` (sorted) takes; see the
    /// module docs.
    fn plan(&self, cols: &[usize], key: &[Value]) -> Plan<'_> {
        if cols.is_empty() {
            return Plan::Scan;
        }
        if self.schema.key_covered_by(cols) {
            return Plan::Point;
        }
        // A pinned relation's column 0 is not part of any signature.
        let skip = usize::from(self.location.is_some() && cols[0] == 0);
        if let Some(index) = self.best_index(&cols[skip..], &key[skip..]) {
            return Plan::Secondary(index);
        }
        if skip == 1 && self.location_walk {
            Plan::Walk
        } else {
            Plan::Scan
        }
    }

    /// The single access-path chooser behind every join. `cols` must be
    /// sorted, with `key` holding the bound values in the same order;
    /// `cols` may be empty for a genuine cross product. The chosen path
    /// and the tuples it examines are recorded in `stats` up front;
    /// iteration is lazy and yields matches in primary-key order whatever
    /// the path.
    pub fn lookup<'r, 'b>(
        &'r self,
        cols: &'b [usize],
        key: &'b [Value],
        seq_limit: u64,
        stats: &mut JoinStats,
    ) -> impl Iterator<Item = &'r StoredTuple> + use<'r, 'b> {
        self.lookup_n(cols, key, seq_limit, 1, stats)
    }

    /// [`Relation::lookup`] on behalf of `members` binding environments
    /// that share the same probe key — the storage half of key-grouped
    /// probe sharing ([`crate::batch`]). The access path runs **once**
    /// while the per-environment accounting is preserved via the
    /// multiplier, so grouped and ungrouped evaluation report identical
    /// logical counters. Per path:
    ///
    /// * **point** (the bound columns cover the explicit primary key): one
    ///   probe; the tuple stored under the key, if any, counts as examined
    ///   *before* the visibility and residual filters — the grouped batch
    ///   path looks up with no visibility limit and filters per member
    ///   afterwards, so the count must not depend on `seq_limit`;
    /// * **location walk** (a pinned relation bound on column 0 alone, with
    ///   a column-0 signature declared): one probe examining the whole
    ///   relation — exactly what the column-0 index's single bucket held;
    /// * **secondary** (the best covering index, see
    ///   [`Relation::best_index`]): one probe examining the bucket, the
    ///   bound columns the signature leaves out (column 0 of a pinned
    ///   relation among them) checked per candidate against the bucket's
    ///   dense id columns;
    /// * **scan**: one scan examining the whole relation.
    ///
    /// `distinct_probes` grows by one per call on every probe path;
    /// `logical_probes` (or `scans`) and `tuples_examined` grow by
    /// `members`× exactly as `members` separate [`Relation::lookup`] calls
    /// would.
    pub fn lookup_n<'r, 'b>(
        &'r self,
        cols: &'b [usize],
        key: &'b [Value],
        seq_limit: u64,
        members: usize,
        stats: &mut JoinStats,
    ) -> impl Iterator<Item = &'r StoredTuple> + use<'r, 'b> {
        debug_assert!(members >= 1, "a lookup serves at least one environment");
        debug_assert!(
            cols.windows(2).all(|w| w[0] < w[1]),
            "lookup columns must be sorted"
        );
        let bound = Bound { cols, key };
        let plan = self.plan(cols, key);
        if !matches!(plan, Plan::Scan) {
            stats.logical_probes += members;
            stats.distinct_probes += 1;
        }
        match plan {
            Plan::Point => {
                let want = &self.schema.key_columns;
                let stored = self.stored_at(&Picked { cols, key, want });
                stats.tuples_examined += usize::from(stored.is_some()) * members;
                Access::Point(stored.filter(|s| s.seq <= seq_limit && bound.matches(&s.tuple)))
            }
            Plan::Secondary(index) => {
                let bucket = index.bucket_for(cols, key);
                stats.tuples_examined += bucket.map_or(0, Bucket::len) * members;
                let (bucket, residual) =
                    compile_residual(bucket, index.signature(), bound, self.location.as_ref());
                Access::Probe(ProbeIter {
                    relation: self,
                    bucket,
                    pos: 0,
                    seq_limit,
                    residual,
                })
            }
            Plan::Walk | Plan::Scan => {
                if matches!(plan, Plan::Scan) {
                    stats.scans += members;
                }
                stats.tuples_examined += self.len() * members;
                Access::Filter {
                    relation: self,
                    order: self.order.values(),
                    seq_limit,
                    bound,
                }
            }
        }
    }

    /// Existence variant of [`Relation::lookup`]: whether any tuple visible
    /// at or before `seq_limit` matches the equality constraints.
    pub fn contains_match(&self, cols: &[usize], key: &[Value], seq_limit: u64) -> bool {
        self.lookup(cols, key, seq_limit, &mut JoinStats::default())
            .next()
            .is_some()
    }

    /// Derivation counts lost to primary-key replacements so far (see the
    /// field documentation).
    pub fn lossy_replacements(&self) -> u64 {
        self.lossy_replacements
    }

    /// Register a newly stored tuple in every index. The tuple's columns
    /// are interned once (into the reusable scratch) and the ids shared by
    /// every index's bucket; the primary key is the relation's own shared
    /// allocation, reference-bumped per index.
    fn index_add(&mut self, key: &Arc<[Value]>, tuple: &Tuple, seq: u64, slot: u32) {
        if self.indexes.is_empty() {
            return;
        }
        intern::intern_all_into(tuple.values(), &mut self.id_scratch);
        for index in &mut self.indexes {
            index.add(&self.id_scratch, Arc::clone(key), seq, slot);
        }
    }

    /// Remove a no-longer-stored tuple from every index.
    fn index_remove(&mut self, key: &[Value], tuple: &Tuple) {
        for index in &mut self.indexes {
            index.remove(tuple.values(), key);
        }
    }

    /// Insert a tuple (first derivation or an additional derivation).
    ///
    /// `seq` is the timestamp to assign if the tuple is new; `expires_at`
    /// the absolute expiry time for soft-state relations (ignored for hard
    /// state). Re-inserting an identical tuple refreshes its expiry —
    /// exactly the soft-state refresh behaviour of Section 4.2. Only a
    /// new key allocates.
    pub fn insert(&mut self, tuple: Tuple, seq: u64, now_micros: u64) -> InsertOutcome {
        debug_assert!(
            self.location
                .as_ref()
                .is_none_or(|(here, _)| tuple.get(0) == Some(here)),
            "{}{tuple} stored away from its pinned location",
            self.schema.name
        );
        let expires_at = self.schema.ttl_micros.map(|ttl| now_micros + ttl);
        let found = self
            .by_key
            .get(&self.schema.key_view(&tuple) as &dyn KeyView)
            .copied();
        let Some(slot) = found else {
            let key = self.schema.shared_key(&tuple);
            let slot = match self.free.pop() {
                Some(slot) => slot,
                None => {
                    self.slots.push(None);
                    u32::try_from(self.slots.len() - 1).expect("slot count fits u32")
                }
            };
            self.index_add(&key, &tuple, seq, slot);
            self.slots[slot as usize] = Some(StoredTuple {
                tuple,
                count: 1,
                seq,
                expires_at,
            });
            self.order.insert(Arc::clone(&key), slot);
            self.by_key.insert(ValueKey(key), slot);
            return InsertOutcome::New;
        };
        let existing = self.slots[slot as usize]
            .as_mut()
            .expect("indexed slots are live");
        if existing.tuple == tuple {
            // Duplicate derivation: count bump and soft-state refresh,
            // indexes untouched.
            existing.count += 1;
            if expires_at.is_some() {
                existing.expires_at = expires_at;
            }
            return InsertOutcome::Duplicate;
        }
        // Primary-key replacement, in place (the slot stays).
        self.lossy_replacements += existing.count;
        let old = std::mem::replace(&mut existing.tuple, tuple.clone());
        existing.count = 1;
        existing.seq = seq;
        existing.expires_at = expires_at;
        let (key, _) = self
            .by_key
            .get_key_value(&self.schema.key_view(&tuple) as &dyn KeyView)
            .expect("replaced in place");
        let key = Arc::clone(&key.0);
        self.index_remove(&key, &old);
        self.index_add(&key, &tuple, seq, slot);
        InsertOutcome::Replaced(old)
    }

    /// Move a stored tuple's soft-state expiry forward without counting a
    /// derivation: the refresh a tuple gets when what it was derived from
    /// is re-announced but its own derivation is not repeated. Absent
    /// tuples and hard state are left as they are.
    pub fn refresh(&mut self, tuple: &Tuple, now_micros: u64) {
        if let (Some(slot), Some(ttl)) = (self.slot_of(tuple), self.schema.ttl_micros) {
            self.slots[slot as usize]
                .as_mut()
                .expect("live slot")
                .expires_at = Some(now_micros + ttl);
        }
    }

    /// The slot holding exactly `tuple` (same key and same values).
    fn slot_of(&self, tuple: &Tuple) -> Option<u32> {
        let &slot = self
            .by_key
            .get(&self.schema.key_view(tuple) as &dyn KeyView)?;
        (&self.stored(slot).tuple == tuple).then_some(slot)
    }

    /// Take a tuple out of its slot, its key maps and every index.
    fn vacate(&mut self, slot: u32) -> StoredTuple {
        let stored = self.slots[slot as usize]
            .take()
            .expect("indexed slots are live");
        let (ValueKey(key), _) = self
            .by_key
            .remove_entry(&self.schema.key_view(&stored.tuple) as &dyn KeyView)
            .expect("stored tuples are keyed");
        self.order.remove(&key);
        self.index_remove(&key, &stored.tuple);
        self.free.push(slot);
        stored
    }

    /// Delete (one derivation of) a tuple.
    pub fn delete(&mut self, tuple: &Tuple) -> DeleteOutcome {
        let Some(slot) = self.slot_of(tuple) else {
            return DeleteOutcome::NotFound;
        };
        let existing = self.slots[slot as usize].as_mut().expect("live slot");
        if existing.count > 1 {
            existing.count -= 1;
            return DeleteOutcome::Decremented;
        }
        self.vacate(slot);
        DeleteOutcome::Removed
    }

    /// Remove a tuple outright regardless of its derivation count (used
    /// when a primary-key replacement cascades).
    pub fn remove(&mut self, tuple: &Tuple) -> bool {
        let Some(slot) = self.slot_of(tuple) else {
            return false;
        };
        self.vacate(slot);
        true
    }

    /// Remove all tuples whose soft-state lifetime has elapsed, returning
    /// them in key order. Hard-state relations return at once, without
    /// walking their tuples.
    pub fn expire(&mut self, now_micros: u64) -> Vec<Tuple> {
        if self.schema.ttl_micros.is_none() {
            return Vec::new();
        }
        let expired: Vec<u32> = self
            .order
            .values()
            .copied()
            .filter(|&slot| {
                self.stored(slot)
                    .expires_at
                    .is_some_and(|t| t <= now_micros)
            })
            .collect();
        expired
            .into_iter()
            .map(|slot| self.vacate(slot).tuple)
            .collect()
    }

    /// Drop every stored tuple, keeping the schema, the location pin and
    /// the declared indexes (emptied).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.order.clear();
        self.by_key.clear();
        for index in &mut self.indexes {
            index.clear();
        }
        self.lossy_replacements = 0;
    }
}

/// The access path of one lookup, chosen by [`Relation::plan`].
enum Plan<'r> {
    Point,
    Walk,
    Secondary(&'r SecondaryIndex),
    Scan,
}

/// A lookup's bound columns (sorted) and their parallel values.
#[derive(Clone, Copy)]
struct Bound<'b> {
    cols: &'b [usize],
    key: &'b [Value],
}

impl Bound<'_> {
    /// Whether `tuple` carries every bound value.
    fn matches(&self, tuple: &Tuple) -> bool {
        self.cols
            .iter()
            .zip(self.key)
            .all(|(&col, val)| tuple.get(col) == Some(val))
    }
}

/// The iterator behind [`Relation::lookup_n`], one arm per path family.
enum Access<'r, 'b> {
    /// The point lookup's single (already filtered) match.
    Point(Option<&'r StoredTuple>),
    /// A bucket walk.
    Probe(ProbeIter<'r, 'b>),
    /// A walk over the whole relation in key order (location walk or
    /// scan).
    Filter {
        relation: &'r Relation,
        order: btree_map::Values<'r, Arc<[Value]>, u32>,
        seq_limit: u64,
        bound: Bound<'b>,
    },
}

impl<'r> Iterator for Access<'r, '_> {
    type Item = &'r StoredTuple;
    fn next(&mut self) -> Option<&'r StoredTuple> {
        match self {
            Access::Point(hit) => hit.take(),
            Access::Probe(p) => p.next(),
            Access::Filter {
                relation,
                order,
                seq_limit,
                bound,
            } => order
                .map(|&slot| relation.stored(slot))
                .find(|s| s.seq <= *seq_limit && bound.matches(&s.tuple)),
        }
    }
}

/// Residual columns compiled to dense id comparisons, held inline.
const INLINE_RESIDUALS: usize = 4;

/// How the bound columns a probed signature leaves out are enforced while
/// walking its bucket.
enum Residual<'b> {
    /// Id comparison against the bucket's dense `ValueId` rows.
    Ids([Option<(usize, ValueId)>; INLINE_RESIDUALS]),
    /// Value comparison of every bound column against the materialized
    /// tuple (degraded buckets, or more residual columns than fit inline).
    Values(Bound<'b>),
}

/// Compile the residual column set against the bucket's layout. Returns
/// `(None, _)` when no candidate can possibly match: a residual value that
/// was never interned cannot equal any value stored in a bucket with ids
/// (every stored column is interned on insert), and a residual column
/// beyond the bucket's uniform arity matches nothing either. A pinned
/// relation's location resolves to its cached id without touching the
/// interner.
fn compile_residual<'r, 'b>(
    bucket: Option<&'r Bucket>,
    signature: &IndexSignature,
    bound: Bound<'b>,
    location: Option<&(Value, ValueId)>,
) -> (Option<&'r Bucket>, Residual<'b>) {
    let Some(b) = bucket.filter(|b| b.has_ids()) else {
        return (bucket, Residual::Values(bound));
    };
    let mut ids = [None; INLINE_RESIDUALS];
    let leftover = bound
        .cols
        .iter()
        .zip(bound.key)
        .filter(|(c, _)| signature.columns().binary_search(c).is_err());
    for (slot, (&c, v)) in leftover.enumerate() {
        if slot == INLINE_RESIDUALS {
            return (Some(b), Residual::Values(bound));
        }
        let resolved = match location {
            _ if c >= b.arity() => None,
            Some((here, id)) if c == 0 && here == v => Some(*id),
            _ => intern::lookup(v),
        };
        match resolved {
            Some(id) => ids[slot] = Some((c, id)),
            None => return (None, Residual::Ids(ids)),
        }
    }
    (Some(b), Residual::Ids(ids))
}

/// The bucket arm of [`Access`]: walk the bucket's dense seq/id arrays,
/// materializing (through the member's slot) only the candidates that
/// survive visibility and residual filtering.
struct ProbeIter<'r, 'b> {
    relation: &'r Relation,
    bucket: Option<&'r Bucket>,
    pos: usize,
    seq_limit: u64,
    residual: Residual<'b>,
}

impl<'r> Iterator for ProbeIter<'r, '_> {
    type Item = &'r StoredTuple;
    fn next(&mut self) -> Option<&'r StoredTuple> {
        let bucket = self.bucket?;
        while self.pos < bucket.len() {
            let i = self.pos;
            self.pos += 1;
            if bucket.seq(i) > self.seq_limit {
                continue;
            }
            let matched = match &self.residual {
                Residual::Ids(ids) => ids
                    .iter()
                    .map_while(|r| *r)
                    .all(|(c, id)| bucket.id(i, c) == Some(id)),
                Residual::Values(bound) => {
                    bound.matches(&self.relation.stored(bucket.slot(i)).tuple)
                }
            };
            if matched {
                return Some(self.relation.stored(bucket.slot(i)));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_lang::Value;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    fn keyed_relation() -> Relation {
        Relation::new(RelationSchema::new("r").with_keys(vec![0]))
    }

    #[test]
    fn insert_and_contains() {
        let mut r = keyed_relation();
        assert_eq!(r.insert(t(&[1, 10]), 1, 0), InsertOutcome::New);
        assert!(r.contains(&t(&[1, 10])));
        assert!(!r.contains(&t(&[1, 11])));
        assert_eq!(r.len(), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn duplicate_increments_count() {
        let mut r = keyed_relation();
        r.insert(t(&[1, 10]), 1, 0);
        assert_eq!(r.insert(t(&[1, 10]), 2, 0), InsertOutcome::Duplicate);
        let stored = r.get_by_key_of(&t(&[1, 10])).unwrap();
        assert_eq!(stored.count, 2);
        assert_eq!(
            stored.seq, 1,
            "timestamp keeps the first derivation's value"
        );
    }

    #[test]
    fn replacement_returns_old_tuple() {
        let mut r = keyed_relation();
        r.insert(t(&[1, 10]), 1, 0);
        match r.insert(t(&[1, 20]), 2, 0) {
            InsertOutcome::Replaced(old) => assert_eq!(old, t(&[1, 10])),
            other => panic!("expected replacement, got {other:?}"),
        }
        assert!(r.contains(&t(&[1, 20])));
        assert!(!r.contains(&t(&[1, 10])));
    }

    #[test]
    fn count_algorithm_deletion() {
        let mut r = keyed_relation();
        r.insert(t(&[1, 10]), 1, 0);
        r.insert(t(&[1, 10]), 2, 0);
        assert_eq!(r.delete(&t(&[1, 10])), DeleteOutcome::Decremented);
        assert!(r.contains(&t(&[1, 10])));
        assert_eq!(r.delete(&t(&[1, 10])), DeleteOutcome::Removed);
        assert!(!r.contains(&t(&[1, 10])));
        assert_eq!(r.delete(&t(&[1, 10])), DeleteOutcome::NotFound);
    }

    #[test]
    fn stale_deletion_is_ignored() {
        let mut r = keyed_relation();
        r.insert(t(&[1, 10]), 1, 0);
        // Deleting a tuple with the same key but a different value does not
        // affect the stored tuple.
        assert_eq!(r.delete(&t(&[1, 99])), DeleteOutcome::NotFound);
        assert!(r.contains(&t(&[1, 10])));
    }

    #[test]
    fn remove_ignores_count() {
        let mut r = keyed_relation();
        r.insert(t(&[1, 10]), 1, 0);
        r.insert(t(&[1, 10]), 2, 0);
        assert!(r.remove(&t(&[1, 10])));
        assert!(r.is_empty());
        assert!(!r.remove(&t(&[1, 10])));
    }

    #[test]
    fn overdelete_then_rederive_restores_counts_exactly_once() {
        // The count-accounting contract behind the DRed pass: `remove`
        // discards a tuple *and* its (possibly inflated or lossy)
        // derivation count, so a subsequent re-derivation re-inserts the
        // survivor with a fresh count of exactly 1 — restored once, not
        // once per stale count — and a single deletion then suffices to
        // retract it again.
        let mut r = keyed_relation();
        r.insert(t(&[1, 10]), 1, 0);
        r.insert(t(&[1, 10]), 2, 0); // an SN/BSN-style over-count
        assert_eq!(r.get_by_key_of(&t(&[1, 10])).unwrap().count, 2);
        // A replacement folds the old counts away entirely...
        assert_eq!(
            r.insert(t(&[1, 20]), 3, 0),
            InsertOutcome::Replaced(t(&[1, 10]))
        );
        assert_eq!(r.lossy_replacements(), 2);
        assert_eq!(r.get_by_key_of(&t(&[1, 20])).unwrap().count, 1);
        // ...and an over-delete removes outright, count notwithstanding.
        r.insert(t(&[1, 20]), 4, 0);
        assert!(r.remove(&t(&[1, 20])));
        assert!(r.get(&[Value::Int(1)]).is_none(), "key fully vacated");
        // The re-derive half restores the survivor exactly once.
        assert_eq!(r.insert(t(&[1, 10]), 5, 0), InsertOutcome::New);
        assert_eq!(r.get_by_key_of(&t(&[1, 10])).unwrap().count, 1);
        assert_eq!(r.delete(&t(&[1, 10])), DeleteOutcome::Removed);
        assert!(r.is_empty(), "one deletion retracts a once-restored tuple");
    }

    #[test]
    fn default_key_is_all_columns() {
        let mut r = Relation::new(RelationSchema::new("r"));
        r.insert(t(&[1, 10]), 1, 0);
        r.insert(t(&[1, 20]), 2, 0);
        assert_eq!(
            r.len(),
            2,
            "different tuples coexist without a declared key"
        );
    }

    #[test]
    fn scan_match_respects_bindings_and_seq() {
        let mut r = Relation::new(RelationSchema::new("r"));
        r.insert(t(&[1, 10]), 1, 0);
        r.insert(t(&[1, 20]), 2, 0);
        r.insert(t(&[2, 30]), 3, 0);
        let bound = vec![(0usize, Value::Int(1))];
        let hits: Vec<_> = r.scan_match(&bound, u64::MAX).collect();
        assert_eq!(hits.len(), 2);
        let hits: Vec<_> = r.scan_match(&bound, 1).collect();
        assert_eq!(hits.len(), 1, "seq limit hides newer tuples");
        let unbound: Vec<_> = r.scan_match(&[], u64::MAX).collect();
        assert_eq!(unbound.len(), 3);
    }

    #[test]
    fn soft_state_expiry_and_refresh() {
        let mut r = Relation::new(RelationSchema::new("r").with_ttl_seconds(1.0));
        r.insert(t(&[1, 10]), 1, 0);
        r.insert(t(&[2, 20]), 2, 500_000);
        // Refresh tuple 1 at t=800ms: its lifetime now extends to 1.8s.
        assert_eq!(r.insert(t(&[1, 10]), 3, 800_000), InsertOutcome::Duplicate);
        let expired = r.expire(1_200_000);
        assert!(expired.is_empty(), "both tuples are still alive");
        let expired = r.expire(1_600_000);
        assert_eq!(expired, vec![t(&[2, 20])], "unrefreshed tuple expires");
        assert!(r.contains(&t(&[1, 10])));
        let expired = r.expire(2_000_000);
        assert_eq!(expired.len(), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn refresh_extends_expiry_without_counting_a_derivation() {
        let mut r = Relation::new(RelationSchema::new("r").with_ttl_seconds(1.0));
        r.insert(t(&[1, 10]), 1, 0);
        r.refresh(&t(&[1, 10]), 800_000);
        r.refresh(&t(&[2, 20]), 800_000);
        assert!(r.expire(1_200_000).is_empty(), "refreshed to 1.8s");
        assert_eq!(r.len(), 1, "refreshing an absent tuple stores nothing");
        // One derivation: one deletion removes it.
        assert_eq!(r.delete(&t(&[1, 10])), DeleteOutcome::Removed);
    }

    #[test]
    fn hard_state_never_expires() {
        let mut r = keyed_relation();
        r.insert(t(&[1, 10]), 1, 0);
        assert!(r.expire(u64::MAX).is_empty());
    }

    /// Look up through an index (asserting the lookup did not scan).
    fn probed(r: &Relation, cols: &[usize], key: &[i64], seq_limit: u64) -> Vec<Tuple> {
        let key: Vec<Value> = key.iter().map(|&v| Value::Int(v)).collect();
        let mut stats = JoinStats::default();
        let hits = r
            .lookup(cols, &key, seq_limit, &mut stats)
            .map(|s| s.tuple.clone())
            .collect();
        assert_eq!(stats.logical_probes, 1, "served by an index");
        hits
    }

    #[test]
    fn index_probe_matches_scan() {
        let mut r = Relation::new(RelationSchema::new("r"));
        r.ensure_index(&[1]);
        for i in 0..10 {
            r.insert(t(&[i, i % 3]), i as u64 + 1, 0);
        }
        let bound = vec![(1usize, Value::Int(2))];
        let scanned: Vec<Tuple> = r
            .scan_match(&bound, u64::MAX)
            .map(|s| s.tuple.clone())
            .collect();
        assert_eq!(probed(&r, &[1], &[2], u64::MAX), scanned);
        assert_eq!(scanned.len(), 3);
        // Probes respect the PSN visibility limit like scans do.
        assert_eq!(probed(&r, &[1], &[2], 3).len(), 1);
        // An undeclared signature falls back to a scan.
        let mut stats = JoinStats::default();
        let hits = r.lookup(&[0], &[Value::Int(1)], u64::MAX, &mut stats);
        assert_eq!(hits.count(), 1);
        assert_eq!(stats.scans, 1);
    }

    #[test]
    fn index_backfills_existing_tuples() {
        let mut r = Relation::new(RelationSchema::new("r"));
        r.insert(t(&[1, 7]), 1, 0);
        r.insert(t(&[2, 7]), 2, 0);
        assert!(r.ensure_index(&[1]));
        assert!(!r.ensure_index(&[1]), "duplicate declaration is a no-op");
        assert!(
            !r.ensure_index(&[]),
            "empty signature is never materialized"
        );
        assert_eq!(probed(&r, &[1], &[7], u64::MAX).len(), 2);
        assert_eq!(r.index_signatures().count(), 1);
    }

    #[test]
    fn index_maintained_under_delete_and_count() {
        let mut r = Relation::new(RelationSchema::new("r"));
        r.ensure_index(&[0]);
        r.insert(t(&[1, 10]), 1, 0);
        r.insert(t(&[1, 10]), 2, 0); // count = 2
        r.delete(&t(&[1, 10]));
        assert_eq!(
            probed(&r, &[0], &[1], u64::MAX).len(),
            1,
            "decrement keeps the entry"
        );
        r.delete(&t(&[1, 10]));
        assert!(
            probed(&r, &[0], &[1], u64::MAX).is_empty(),
            "removal drops it"
        );
    }

    #[test]
    fn index_maintained_under_replacement() {
        let mut r = keyed_relation();
        r.ensure_index(&[1]);
        r.insert(t(&[1, 10]), 1, 0);
        assert_eq!(probed(&r, &[1], &[10], u64::MAX).len(), 1);
        r.insert(t(&[1, 20]), 2, 0); // replaces under key 1
        assert!(
            probed(&r, &[1], &[10], u64::MAX).is_empty(),
            "old projection entry is gone"
        );
        assert_eq!(probed(&r, &[1], &[20], u64::MAX), vec![t(&[1, 20])]);
        assert_eq!(r.lossy_replacements(), 1);
    }

    #[test]
    fn index_maintained_under_expiry_and_ttl_refresh() {
        let mut r = Relation::new(RelationSchema::new("r").with_ttl_seconds(1.0));
        r.ensure_index(&[0]);
        r.insert(t(&[1, 10]), 1, 0);
        r.insert(t(&[2, 20]), 2, 0);
        // Refresh tuple 1 at t=0.8s: the duplicate insert must not leave a
        // second (stale) index entry behind.
        r.insert(t(&[1, 10]), 3, 800_000);
        assert_eq!(probed(&r, &[0], &[1], u64::MAX).len(), 1);
        // Tuple 2 expires at 1.0s; its index entries must go with it.
        r.expire(1_500_000);
        assert!(
            probed(&r, &[0], &[2], u64::MAX).is_empty(),
            "no stale entry"
        );
        assert_eq!(
            probed(&r, &[0], &[1], u64::MAX).len(),
            1,
            "refreshed survives"
        );
        r.expire(2_000_000);
        assert!(probed(&r, &[0], &[1], u64::MAX).is_empty());
    }

    fn lookup_all(r: &Relation, cols: &[usize], key: &[i64], stats: &mut JoinStats) -> Vec<Tuple> {
        let key: Vec<Value> = key.iter().map(|&v| Value::Int(v)).collect();
        r.lookup(cols, &key, u64::MAX, stats)
            .map(|s| s.tuple.clone())
            .collect()
    }

    #[test]
    fn subset_index_serves_wider_bindings() {
        // Only [0] is indexed, but the lookup binds columns 0 and 1: the
        // access path must still be a probe (with column 1 checked
        // residually), not a full scan.
        let mut r = Relation::new(RelationSchema::new("r"));
        r.ensure_index(&[0]);
        for i in 0..20 {
            r.insert(t(&[i % 4, i % 2, i]), i as u64 + 1, 0);
        }
        let mut stats = JoinStats::default();
        let hits = lookup_all(&r, &[0, 1], &[1, 1], &mut stats);
        assert_eq!(stats.logical_probes, 1);
        assert_eq!(stats.distinct_probes, 1);
        assert_eq!(stats.scans, 0);
        assert_eq!(stats.tuples_examined, 5, "the [0]-bucket for value 1");
        let bound = vec![(0usize, Value::Int(1)), (1usize, Value::Int(1))];
        let scanned: Vec<Tuple> = r
            .scan_match(&bound, u64::MAX)
            .map(|s| s.tuple.clone())
            .collect();
        assert_eq!(hits, scanned, "residual filtering matches the scan");
        assert!(!hits.is_empty());
    }

    #[test]
    fn most_selective_candidate_wins() {
        // Two single-column candidates: column 0 is highly skewed (one big
        // bucket), column 1 is nearly unique. The cost-based choice must
        // probe the column-1 index — the smaller bucket.
        let mut r = Relation::new(RelationSchema::new("r"));
        r.ensure_index(&[0]);
        r.ensure_index(&[1]);
        for i in 0..50 {
            r.insert(t(&[0, i, i * 10]), i as u64 + 1, 0);
        }
        let mut stats = JoinStats::default();
        let hits = lookup_all(&r, &[0, 1], &[0, 7], &mut stats);
        assert_eq!(hits, vec![t(&[0, 7, 70])]);
        assert_eq!(stats.logical_probes, 1);
        assert_eq!(
            stats.tuples_examined, 1,
            "the unique column-1 bucket, not the 50-tuple column-0 bucket"
        );

        // And a composite index beats both single-column candidates.
        r.ensure_index(&[0, 1]);
        let mut stats = JoinStats::default();
        let hits = lookup_all(&r, &[0, 1], &[0, 7], &mut stats);
        assert_eq!(hits, vec![t(&[0, 7, 70])]);
        assert_eq!(stats.tuples_examined, 1);
    }

    #[test]
    fn unindexed_bound_columns_still_scan() {
        let mut r = Relation::new(RelationSchema::new("r"));
        r.ensure_index(&[2]);
        for i in 0..10 {
            r.insert(t(&[i, i, i]), i as u64 + 1, 0);
        }
        // The lookup binds only columns the index does not cover.
        let mut stats = JoinStats::default();
        let hits = lookup_all(&r, &[0], &[3], &mut stats);
        assert_eq!(hits, vec![t(&[3, 3, 3])]);
        assert_eq!(stats.scans, 1);
        assert_eq!(stats.logical_probes, 0);
        assert_eq!(stats.distinct_probes, 0);
    }

    #[test]
    fn tied_candidates_resolve_by_signature_order() {
        // Two single-column candidates with identical bucket estimates:
        // the tie must break on the signatures themselves ([0] < [1]), not
        // on declaration order, so every engine picks the same access path.
        let build = |first: usize, second: usize| {
            let mut r = Relation::new(RelationSchema::new("r"));
            r.ensure_index(&[first]);
            r.ensure_index(&[second]);
            for i in 0..12 {
                // Both columns split the relation into equal-size buckets.
                r.insert(t(&[i % 3, i % 3, i]), i as u64 + 1, 0);
            }
            r
        };
        let key = [Value::Int(1), Value::Int(1)];
        for r in [build(0, 1), build(1, 0)] {
            let chosen = r.best_index(&[0, 1], &key).expect("candidates exist");
            assert_eq!(
                chosen.signature().columns(),
                &[0],
                "exact ties resolve to the smaller signature"
            );
        }
    }

    #[test]
    fn lookup_n_shares_the_bucket_but_preserves_logical_accounting() {
        let mut r = Relation::new(RelationSchema::new("r"));
        r.ensure_index(&[0]);
        for i in 0..20 {
            r.insert(t(&[i % 4, i]), i as u64 + 1, 0);
        }
        let key = [Value::Int(1)];
        let mut grouped = JoinStats::default();
        let shared: Vec<Tuple> = r
            .lookup_n(&[0], &key, u64::MAX, 5, &mut grouped)
            .map(|s| s.tuple.clone())
            .collect();
        let mut single = JoinStats::default();
        for _ in 0..5 {
            let hits: Vec<Tuple> = r
                .lookup(&[0], &key, u64::MAX, &mut single)
                .map(|s| s.tuple.clone())
                .collect();
            assert_eq!(hits, shared, "shared bucket answers every member");
        }
        assert_eq!(grouped.logical_probes, single.logical_probes);
        assert_eq!(grouped.tuples_examined, single.tuples_examined);
        assert_eq!(grouped.scans, single.scans);
        assert_eq!(
            grouped.distinct_probes, 1,
            "one bucket lookup for 5 members"
        );
        assert_eq!(single.distinct_probes, 5);
    }

    #[test]
    fn index_ignores_short_tuples() {
        // Heterogeneous arities sharing a relation: tuples lacking the
        // indexed column are unreachable by probes, matching scan_match.
        let mut r = Relation::new(RelationSchema::new("r"));
        r.ensure_index(&[2]);
        r.insert(t(&[1]), 1, 0);
        r.insert(t(&[1, 2, 3]), 2, 0);
        assert_eq!(probed(&r, &[2], &[3], u64::MAX), vec![t(&[1, 2, 3])]);
        r.remove(&t(&[1]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn schema_key_projection() {
        let s = RelationSchema::new("r").with_keys(vec![1]);
        assert_eq!(s.key_of(&t(&[7, 8])), vec![Value::Int(8)]);
        let s = RelationSchema::new("r");
        assert_eq!(s.key_of(&t(&[7, 8])).len(), 2);
    }
}
