//! The [`Value`] interner behind a relation's secondary indexes.
//!
//! Secondary-index maintenance used to clone every bound-column projection
//! into an owned `Vec<Value>` bucket key, and every bucket lookup hashed
//! and compared whole values — for path vectors that means walking an
//! entire list per index operation. An [`Interner`] collapses each
//! distinct value to a fixed-size [`ValueId`] once, so index buckets hash
//! and compare `u32`s instead of values (see [`crate::index`]).
//!
//! # Scope
//!
//! Each [`crate::relation::Relation`] owns one interner, and every id its
//! indexes hold — bucket keys, dense member payloads, probe keys, residual
//! checks, the pinned location — comes from that interner. An id means
//! nothing outside its relation, and nothing ever carries one across
//! relations. The interner is plain owned data: no lock, no sharing
//! between executor lanes, so interning a stored tuple on one lane never
//! contends with a probe on another.
//!
//! # Semantics
//!
//! Id equality is exactly [`Value`] equality within one interner: two
//! values intern to the same id if and only if `a == b`. Note that
//! `Value`'s equality conflates numerically equal integers and floats
//! (`Int(3) == Float(3.0)`), so both intern to one id — precisely the
//! behaviour hash-map bucket keys had before interning, which is what keeps
//! probes on mixed-numeric keys finding their tuples.
//!
//! # Determinism
//!
//! Ids are assigned in first-intern order, so they are **stable for the
//! life of the table** (an id never changes or is reused until the table
//! is cleared) but carry no meaning across relations or runs and no
//! relationship to `Value`'s ordering. Nothing ordered by ids is ever
//! externally observable: ids key hash maps and are compared for equality
//! only, while every iteration order the engines expose (stored tuples,
//! probe results) is governed by `Value`/primary-key order. Scoping ids to
//! a relation therefore changes no result, and the parallel engine stays
//! bit-for-bit identical to the sequential one.
//!
//! # Lifetime and growth
//!
//! An interner lives as long as its relation. Interned values are not
//! freed one by one: the table grows with the distinct values **ever
//! stored in its relation** while that relation materializes a secondary
//! index — a bucket carries every column of its members as ids, so the
//! write path ([`Interner::intern_all_into`]) interns whole tuples, not
//! just the signature projections. Relations whose lookups are all served
//! by point lookups or location walks (see [`crate::index`]) build no
//! index and intern nothing — on the paper's shortest-path program, the
//! aggregate and result tables; a pinned relation interns its node's
//! address once. The table is emptied, releasing every value it held,
//! when the relation is cleared (a node's crash reset,
//! [`crate::relation::Relation::clear`]; the capacity is kept for the
//! rejoin), and freed when the relation is dropped (with its engine).
//! Between those points, a relation churning through fresh values (unique
//! costs, fresh path vectors) keeps the ids of values it no longer stores:
//! memory traded for the id fast path, bounded per relation by its own
//! history rather than by the whole process's. Reclaiming unreferenced ids
//! in place is a possible follow-on.
//!
//! Every non-storing path — probe keys, residual checks and index removals
//! — uses [`Interner::lookup`] or [`Interner::lookup_into`] (read-only): a
//! value that was never interned cannot match any indexed tuple, so a miss
//! simply means "no bucket". The table is hashed with the engine's fast
//! internal hasher (ids are assigned in first-intern order, never by hash,
//! so the hasher cannot affect any id or result).

use crate::hash::FxHashMap;
use ndlog_lang::Value;

/// A fixed-size handle to a value interned by one [`Interner`]. Id
/// equality is `Value` equality within that interner (see the module docs
/// for the numeric-conflation caveat).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(u32);

impl ValueId {
    /// The raw id (useful for diagnostics).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// A relation's value → id table (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Interner {
    ids: FxHashMap<Value, u32>,
}

impl Interner {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Forget every value; ids handed out before are meaningless after.
    pub fn clear(&mut self) {
        self.ids.clear();
    }

    /// Intern a value, assigning a fresh id on first sight. Idempotent.
    pub fn intern(&mut self, value: &Value) -> ValueId {
        if let Some(&id) = self.ids.get(value) {
            return ValueId(id);
        }
        let id = u32::try_from(self.ids.len()).expect("interner overflow");
        self.ids.insert(value.clone(), id);
        ValueId(id)
    }

    /// Read-only lookup: the id of a previously interned value, or `None`
    /// when the value has never been interned (in which case no indexed
    /// tuple can carry it). Probe paths use this so transient probe keys
    /// never grow the table.
    pub fn lookup(&self, value: &Value) -> Option<ValueId> {
        self.ids.get(value).copied().map(ValueId)
    }

    /// Intern every value of a stored tuple into `out` (cleared first):
    /// the write path of index maintenance, which interns each stored
    /// tuple once and shares the ids across the relation's indexes.
    pub fn intern_all_into(&mut self, values: &[Value], out: &mut Vec<ValueId>) {
        out.clear();
        out.extend(values.iter().map(|v| self.intern(v)));
    }

    /// Look up every value of a probe key into `out` (cleared first). The
    /// values come from any iterator (a probe key's signature columns, a
    /// stored tuple's index projection), so callers never collect them into
    /// a temporary buffer. Returns false — leaving `out` incomplete — as
    /// soon as any value has no id, meaning the probe cannot match
    /// anything.
    pub fn lookup_into<'v>(
        &self,
        values: impl IntoIterator<Item = &'v Value>,
        out: &mut Vec<ValueId>,
    ) -> bool {
        out.clear();
        for v in values {
            match self.ids.get(v) {
                Some(&id) => out.push(ValueId(id)),
                None => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_net::NodeAddr;

    #[test]
    fn ids_are_stable_and_equality_mirrors_value_equality() {
        let mut table = Interner::new();
        let a = table.intern(&Value::Int(42));
        let b = table.intern(&Value::Int(42));
        assert_eq!(a, b, "re-interning returns the same id");
        let c = table.intern(&Value::Int(43));
        assert_ne!(a, c);
        // Numeric conflation: Int(3) == Float(3.0) => same id, matching the
        // pre-interning bucket-key semantics.
        let i3 = table.intern(&Value::Int(3));
        let f3 = table.intern(&Value::Float(3.0));
        assert_eq!(i3, f3);
        assert_ne!(i3, table.intern(&Value::Float(3.5)));
        assert_eq!(table.len(), 4);
    }

    #[test]
    fn lookups_agree_with_interning_for_every_kind_of_value() {
        let samples = [
            Value::Addr(NodeAddr(7)),
            Value::Int(-9),
            Value::Float(2.5),
            Value::Float(-0.0),
            Value::Bool(true),
            Value::str("a string"),
            Value::list(vec![Value::addr(1u32), Value::addr(2u32), Value::Int(5)]),
            Value::nil(),
        ];
        let mut table = Interner::new();
        let ids: Vec<ValueId> = samples.iter().map(|v| table.intern(v)).collect();
        for (v, &id) in samples.iter().zip(&ids) {
            assert_eq!(table.lookup(v), Some(id), "lookup of {v}");
            assert_eq!(
                table.intern(v),
                id,
                "ids must be stable for the table's life"
            );
        }
        // Index keys rely on total_cmp float ordering: distinct bit
        // patterns that compare unequal get distinct ids, and NaN (equal to
        // itself under total_cmp) interns consistently too.
        let nan_id = table.intern(&Value::Float(f64::NAN));
        assert_eq!(table.intern(&Value::Float(f64::NAN)), nan_id);
        assert_eq!(table.lookup(&Value::Float(f64::NAN)), Some(nan_id));
        assert_ne!(nan_id, table.intern(&Value::Float(0.0)));
    }

    #[test]
    fn lookup_never_grows_the_table() {
        let mut table = Interner::new();
        let novel = Value::str("never-interned-probe-key");
        assert_eq!(table.lookup(&novel), None);
        assert_eq!(table.lookup(&novel), None, "lookup must not intern");
        assert!(table.is_empty());
        let id = table.intern(&novel);
        assert_eq!(table.lookup(&novel), Some(id));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn lookup_into_fails_fast_on_unknown_values() {
        let mut table = Interner::new();
        let known = Value::Int(1_001);
        table.intern(&known);
        let mut out = Vec::new();
        assert!(!table.lookup_into(&[known.clone(), Value::str("unknown")], &mut out));
        assert!(table.lookup_into(std::slice::from_ref(&known), &mut out));
        assert_eq!(out.len(), 1);
        assert_eq!(table.len(), 1, "failed lookups intern nothing");
    }

    #[test]
    fn tables_are_independent_and_clearing_forgets_everything() {
        // Ids are scoped to their table: the same value may hold different
        // ids in two tables, and a value interned in one is unknown to the
        // other.
        let mut a = Interner::new();
        let mut b = Interner::new();
        a.intern(&Value::Int(1));
        let in_a = a.intern(&Value::Int(2));
        let in_b = b.intern(&Value::Int(2));
        assert_ne!(in_a, in_b);
        assert_eq!(b.lookup(&Value::Int(1)), None);
        let mut ids = Vec::new();
        a.intern_all_into(&[Value::Int(2), Value::Int(1)], &mut ids);
        assert_eq!(ids, vec![in_a, a.lookup(&Value::Int(1)).unwrap()]);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.lookup(&Value::Int(2)), None);
        assert_eq!(
            a.intern(&Value::Int(2)).raw(),
            0,
            "ids restart after a clear"
        );
    }
}
