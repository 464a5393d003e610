//! A global, thread-safe [`Value`] interner.
//!
//! Secondary-index maintenance used to clone every bound-column projection
//! into an owned `Vec<Value>` bucket key, and every bucket lookup hashed
//! and compared whole values — for path vectors that means walking an
//! entire list per index operation. The interner collapses each distinct
//! value to a fixed-size [`ValueId`] once, so index buckets hash and
//! compare `u32`s instead of values (see [`crate::index`]).
//!
//! # Semantics
//!
//! Id equality is exactly [`Value`] equality: two values intern to the same
//! id if and only if `a == b`. Note that `Value`'s equality conflates
//! numerically equal integers and floats (`Int(3) == Float(3.0)`), so both
//! intern to one id — precisely the behaviour hash-map bucket keys had
//! before interning, which is what keeps probes on mixed-numeric keys
//! finding their tuples. `resolve` returns a value equal (in that same
//! sense) to every value that interned to the id.
//!
//! # Determinism
//!
//! Ids are assigned in first-intern order, so they are **stable within a
//! run** (an id never changes or is reused) but carry no meaning across
//! runs and no relationship to `Value`'s ordering. Nothing ordered by ids
//! is ever externally observable: ids key hash maps only, while every
//! iteration order the engines expose (stored tuples, probe results) is
//! still governed by `Value`/primary-key order. Concurrent interning from
//! multiple executor threads may assign ids in different orders on
//! different runs without affecting any result — which is why the parallel
//! engine stays bit-for-bit identical to the sequential one.
//!
//! # Lifetime and leak policy
//!
//! Interned values are never freed: the table lives for the process and
//! grows with the set of distinct values **ever stored in a relation that
//! materializes a secondary index**. A bucket carries every column of its
//! members as ids, so such a relation's write path ([`intern_all_into`])
//! interns whole tuples, not just the signature projections. Relations
//! whose lookups are all served by point lookups or location walks (see
//! [`crate::index`]) build no index and intern nothing — on the paper's
//! shortest-path program, the aggregate and result tables. A pinned
//! relation interns its node's address once. Under churn workloads the
//! table tracks the cumulative history, not the currently stored data, so
//! a very-long-running engine minting fresh values every burst (unique
//! costs, fresh path vectors) trades memory for the id fast path (an
//! explicit, documented trade; epoch-based reclamation is a possible
//! follow-on). Every non-storing path — probe keys, residual checks and
//! index removals — uses [`lookup`] or [`lookup_into`] (read-only): a
//! value that was never interned cannot match any indexed tuple, so a miss
//! simply means "no bucket". The table is hashed with the engine's fast
//! internal hasher (ids are assigned in first-intern order, never by
//! hash, so the hasher cannot affect any id or result).

use crate::hash::FxHashMap;
use ndlog_lang::Value;
use std::sync::{OnceLock, RwLock};

/// A fixed-size handle to an interned [`Value`]. Id equality is `Value`
/// equality (see the module docs for the numeric-conflation caveat).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(u32);

impl ValueId {
    /// The raw id (useful for diagnostics).
    pub fn raw(self) -> u32 {
        self.0
    }
}

#[derive(Default)]
struct Inner {
    ids: FxHashMap<Value, u32>,
    values: Vec<Value>,
}

fn table() -> &'static RwLock<Inner> {
    static TABLE: OnceLock<RwLock<Inner>> = OnceLock::new();
    TABLE.get_or_init(|| RwLock::new(Inner::default()))
}

/// Intern a value, assigning a fresh id on first sight. Idempotent and
/// thread-safe; the common re-intern case takes only a read lock.
pub fn intern(value: &Value) -> ValueId {
    {
        let inner = table().read().expect("interner lock");
        if let Some(&id) = inner.ids.get(value) {
            return ValueId(id);
        }
    }
    let mut inner = table().write().expect("interner lock");
    if let Some(&id) = inner.ids.get(value) {
        return ValueId(id);
    }
    let id = u32::try_from(inner.values.len()).expect("interner overflow");
    inner.values.push(value.clone());
    inner.ids.insert(value.clone(), id);
    ValueId(id)
}

/// Read-only lookup: the id of a previously interned value, or `None` when
/// the value has never been interned (in which case no indexed tuple can
/// carry it). Probe paths use this so transient probe keys never grow the
/// table.
pub fn lookup(value: &Value) -> Option<ValueId> {
    table()
        .read()
        .expect("interner lock")
        .ids
        .get(value)
        .copied()
        .map(ValueId)
}

/// The value an id stands for (a clone; values are cheap to clone). When
/// several `Value`-equal representations interned to the id (e.g. `Int(3)`
/// and `Float(3.0)`), this returns the first one seen.
pub fn resolve(id: ValueId) -> Value {
    table().read().expect("interner lock").values[id.0 as usize].clone()
}

/// Intern every value of a projection into `out` (cleared first). The
/// write path of index maintenance: stored values must always have ids.
/// One read lock covers the whole key; only genuinely new values pay a
/// write-lock round trip.
pub fn intern_into(values: &[&Value], out: &mut Vec<ValueId>) {
    out.clear();
    out.reserve(values.len());
    {
        let inner = table().read().expect("interner lock");
        for v in values {
            match inner.ids.get(*v) {
                Some(&id) => out.push(ValueId(id)),
                None => break,
            }
        }
    }
    for v in &values[out.len()..] {
        out.push(intern(v));
    }
}

/// Owned-slice variant of [`intern_into`], for the relation write path
/// that interns every column of a stored tuple once and shares the ids
/// across its indexes.
pub fn intern_all_into(values: &[Value], out: &mut Vec<ValueId>) {
    out.clear();
    out.reserve(values.len());
    {
        let inner = table().read().expect("interner lock");
        for v in values {
            match inner.ids.get(v) {
                Some(&id) => out.push(ValueId(id)),
                None => break,
            }
        }
    }
    for v in &values[out.len()..] {
        out.push(intern(v));
    }
}

/// Look up every value of a probe key into `out` (cleared first), under a
/// single read lock. The values come from any iterator (a probe key's
/// signature columns, a stored tuple's index projection), so callers never
/// collect them into a temporary buffer. Returns false — leaving `out`
/// incomplete — as soon as any value has no id, meaning the probe cannot
/// match anything.
pub fn lookup_into<'v>(
    values: impl IntoIterator<Item = &'v Value>,
    out: &mut Vec<ValueId>,
) -> bool {
    out.clear();
    let inner = table().read().expect("interner lock");
    for v in values {
        match inner.ids.get(v) {
            Some(&id) => out.push(ValueId(id)),
            None => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_net::NodeAddr;

    #[test]
    fn ids_are_stable_and_equality_mirrors_value_equality() {
        let a = intern(&Value::Int(42));
        let b = intern(&Value::Int(42));
        assert_eq!(a, b, "re-interning returns the same id");
        let c = intern(&Value::Int(43));
        assert_ne!(a, c);
        // Numeric conflation: Int(3) == Float(3.0) => same id, matching the
        // pre-interning bucket-key semantics.
        let i3 = intern(&Value::Int(3));
        let f3 = intern(&Value::Float(3.0));
        assert_eq!(i3, f3);
        assert_ne!(i3, intern(&Value::Float(3.5)));
    }

    #[test]
    fn round_trips_are_lossless_under_value_equality() {
        let samples = vec![
            Value::Addr(NodeAddr(7)),
            Value::Int(-9),
            Value::Float(2.5),
            Value::Float(-0.0),
            Value::Bool(true),
            Value::str("a string"),
            Value::list(vec![Value::addr(1u32), Value::addr(2u32), Value::Int(5)]),
            Value::nil(),
        ];
        for v in &samples {
            let id = intern(v);
            assert_eq!(&resolve(id), v, "round-trip of {v}");
            assert_eq!(lookup(v), Some(id));
        }
        // Index keys rely on total_cmp float ordering: distinct bit
        // patterns that compare unequal get distinct ids, and NaN (equal to
        // itself under total_cmp) round-trips consistently too.
        let nan = Value::Float(f64::NAN);
        let nan_id = intern(&nan);
        assert_eq!(intern(&Value::Float(f64::NAN)), nan_id);
        assert_eq!(resolve(nan_id), nan);
        assert_ne!(nan_id, intern(&Value::Float(0.0)));
    }

    #[test]
    fn lookup_never_grows_the_table() {
        let novel = Value::str("never-interned-probe-key-3f1a");
        assert_eq!(lookup(&novel), None);
        assert_eq!(lookup(&novel), None, "lookup must not intern");
        let id = intern(&novel);
        assert_eq!(lookup(&novel), Some(id));
    }

    #[test]
    fn lookup_into_fails_fast_on_unknown_values() {
        let known = Value::Int(1_001);
        intern(&known);
        let mut out = Vec::new();
        assert!(!lookup_into(
            &[known.clone(), Value::str("unknown-9b2c")],
            &mut out
        ));
        assert!(lookup_into(std::slice::from_ref(&known), &mut out));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn concurrent_interning_yields_stable_ids_within_a_run() {
        // Four threads race to intern the same 64 values plus a private
        // set each; every thread must observe identical ids for the shared
        // values, and re-interning after the race must return them again.
        let shared: Vec<Value> = (0..64)
            .map(|i| {
                Value::list(vec![
                    Value::Int(i),
                    Value::str(format!("shared-{i}")),
                    Value::addr(i as u32),
                ])
            })
            .collect();
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let shared = shared.clone();
            handles.push(std::thread::spawn(move || {
                let mut seen = Vec::with_capacity(shared.len());
                for (i, v) in shared.iter().enumerate() {
                    seen.push(intern(v));
                    // Private values interleave the shared interning.
                    intern(&Value::str(format!("private-{t}-{i}")));
                }
                seen
            }));
        }
        let per_thread: Vec<Vec<ValueId>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        for ids in &per_thread[1..] {
            assert_eq!(ids, &per_thread[0], "threads disagree on shared ids");
        }
        for (v, &id) in shared.iter().zip(&per_thread[0]) {
            assert_eq!(intern(v), id, "ids must be stable for the whole run");
            assert_eq!(resolve(id), *v);
        }
    }
}
