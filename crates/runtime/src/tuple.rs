//! Tuples, relation-name handles and signed tuple deltas.

use ndlog_lang::Value;
use ndlog_net::NodeAddr;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, OnceLock};

/// An immutable tuple of values, held in one reference-counted allocation.
/// Cloning is cheap (a reference-count bump).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple {
            values: values.into(),
        }
    }

    /// Build a tuple by moving every value out of `buf`, leaving it empty
    /// with its capacity intact: one allocation, the tuple's own, so a
    /// caller projecting many tuples reuses one buffer for all of them.
    pub fn from_drain(buf: &mut Vec<Value>) -> Tuple {
        Tuple {
            values: buf.drain(..).collect(),
        }
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The field at `idx`, if present.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// All fields.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The tuple's location: its first field interpreted as an address
    /// (NDlog location specifiers are always the first attribute).
    pub fn location(&self) -> Option<NodeAddr> {
        self.values.first().and_then(Value::as_addr)
    }

    /// Project the fields at `cols` into a new vector (used for primary
    /// keys and group-by keys). Panics if a column is out of range.
    pub fn project(&self, cols: &[usize]) -> Vec<Value> {
        cols.iter().map(|&c| self.values[c].clone()).collect()
    }

    /// Approximate wire size in bytes, for communication accounting.
    pub fn wire_size(&self) -> usize {
        2 + self.values.iter().map(Value::wire_size).sum::<usize>()
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// A relation name: a `Copy` handle to a process-wide interned string.
///
/// Deltas name their relation on every derivation, message and result
/// record, so the name must cost nothing to copy, compare or drop. A
/// `Rel` is one pointer-sized `&'static str` taken from a registry the
/// first time a name is seen ([`Rel::new`]); every later handle to the
/// same name is the same pointer, so equality is a pointer comparison.
/// Ordering, hashing, [`Borrow<str>`], `Display` and `Debug` are exactly
/// the name's, so maps keyed by `Rel` iterate, and deltas print, as they
/// did when names were `String`s.
///
/// Names are resolved when programs are compiled or planned (strand
/// triggers and heads, aggregate views, kernel selections) and when a
/// caller names a relation by string; per-derivation paths copy handles
/// and never touch the registry. The registry is never shrunk: it is
/// bounded by the distinct relation names the process has seen, like the
/// relations a store creates on demand for every name it is handed.
#[derive(Clone, Copy, Serialize, Deserialize)]
pub struct Rel(&'static str);

/// Registry lookups made so far ([`Rel::registry_lookups`]).
static REGISTRY_LOOKUPS: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<HashSet<&'static str>> {
    static NAMES: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    NAMES.get_or_init(Default::default)
}

impl Rel {
    /// The handle for `name`, registering the name on first sight.
    pub fn new(name: &str) -> Rel {
        REGISTRY_LOOKUPS.fetch_add(1, AtomicOrdering::Relaxed);
        let mut names = registry().lock().expect("relation-name registry");
        if let Some(&known) = names.get(name) {
            return Rel(known);
        }
        let leaked: &'static str = Box::leak(name.into());
        names.insert(leaked);
        Rel(leaked)
    }

    /// The name.
    pub fn as_str(self) -> &'static str {
        self.0
    }

    /// How many registry lookups ([`Rel::new`] and every conversion from a
    /// string) the process has made. Diagnostics: tests read it around a
    /// run to prove that no per-derivation path names a relation by
    /// string.
    pub fn registry_lookups() -> u64 {
        REGISTRY_LOOKUPS.load(AtomicOrdering::Relaxed)
    }

    /// Every name registered so far, unordered.
    #[cfg(test)]
    fn registered() -> Vec<&'static str> {
        registry()
            .lock()
            .expect("relation-name registry")
            .iter()
            .copied()
            .collect()
    }
}

impl PartialEq for Rel {
    fn eq(&self, other: &Rel) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Rel {}

impl Ord for Rel {
    fn cmp(&self, other: &Rel) -> Ordering {
        if self == other {
            Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

impl PartialOrd for Rel {
    fn partial_cmp(&self, other: &Rel) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Rel {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl Borrow<str> for Rel {
    fn borrow(&self) -> &str {
        self.0
    }
}

impl std::ops::Deref for Rel {
    type Target = str;
    fn deref(&self) -> &str {
        self.0
    }
}

impl fmt::Display for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.0, f)
    }
}

impl fmt::Debug for Rel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.0, f)
    }
}

impl From<&str> for Rel {
    fn from(name: &str) -> Rel {
        Rel::new(name)
    }
}

impl From<&String> for Rel {
    fn from(name: &String) -> Rel {
        Rel::new(name)
    }
}

impl From<String> for Rel {
    fn from(name: String) -> Rel {
        Rel::new(&name)
    }
}

impl PartialEq<str> for Rel {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for Rel {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl PartialEq<String> for Rel {
    fn eq(&self, other: &String) -> bool {
        self.0 == other
    }
}

/// The sign of a delta: insertion or deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Sign {
    /// The tuple is being inserted / derived.
    Insert,
    /// The tuple is being deleted / underived.
    Delete,
}

impl Sign {
    /// The opposite sign.
    pub fn flip(self) -> Sign {
        match self {
            Sign::Insert => Sign::Delete,
            Sign::Delete => Sign::Insert,
        }
    }

    /// +1 for insert, -1 for delete.
    pub fn factor(self) -> i64 {
        match self {
            Sign::Insert => 1,
            Sign::Delete => -1,
        }
    }
}

/// A signed change to a relation: the unit that flows through rule strands,
/// PSN queues and network messages.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TupleDelta {
    /// Relation name.
    pub relation: Rel,
    /// The tuple being inserted or deleted.
    pub tuple: Tuple,
    /// Insert or delete.
    pub sign: Sign,
}

impl TupleDelta {
    /// An insertion delta.
    pub fn insert(relation: impl Into<Rel>, tuple: Tuple) -> TupleDelta {
        TupleDelta {
            relation: relation.into(),
            tuple,
            sign: Sign::Insert,
        }
    }

    /// A deletion delta.
    pub fn delete(relation: impl Into<Rel>, tuple: Tuple) -> TupleDelta {
        TupleDelta {
            relation: relation.into(),
            tuple,
            sign: Sign::Delete,
        }
    }

    /// Wire size of the delta when sent as a network message: the tuple
    /// plus relation-name and sign overhead.
    pub fn wire_size(&self) -> usize {
        self.tuple.wire_size() + self.relation.len() + 1
    }
}

impl fmt::Display for TupleDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = match self.sign {
            Sign::Insert => '+',
            Sign::Delete => '-',
        };
        write!(f, "{sign}{}{}", self.relation, self.tuple)
    }
}

/// Convenience constructor for tuples in tests and examples:
/// `tuple![addr(0), 5, "x"]` style is covered by `Tuple::new` with
/// `Value::from` conversions; this helper builds a tuple from values.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$(::ndlog_lang::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_lang::Value;
    use std::collections::{BTreeMap, BTreeSet};

    fn t(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn accessors_and_projection() {
        let tup = t(vec![Value::addr(3u32), Value::Int(7), Value::str("x")]);
        assert_eq!(tup.arity(), 3);
        assert_eq!(tup.get(1), Some(&Value::Int(7)));
        assert_eq!(tup.get(9), None);
        assert_eq!(tup.location(), Some(ndlog_net::NodeAddr(3)));
        assert_eq!(
            tup.project(&[2, 0]),
            vec![Value::str("x"), Value::addr(3u32)]
        );
    }

    #[test]
    fn location_requires_address_first_field() {
        let tup = t(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(tup.location(), None);
    }

    #[test]
    fn display() {
        let tup = t(vec![Value::addr(0u32), Value::Int(5)]);
        assert_eq!(tup.to_string(), "(@n0, 5)");
        let d = TupleDelta::insert("link", tup.clone());
        assert_eq!(d.to_string(), "+link(@n0, 5)");
        let d = TupleDelta::delete("link", tup);
        assert_eq!(d.to_string(), "-link(@n0, 5)");
    }

    #[test]
    fn sign_helpers() {
        assert_eq!(Sign::Insert.flip(), Sign::Delete);
        assert_eq!(Sign::Delete.flip(), Sign::Insert);
        assert_eq!(Sign::Insert.factor(), 1);
        assert_eq!(Sign::Delete.factor(), -1);
    }

    #[test]
    fn wire_size_accounts_for_fields_and_name() {
        let tup = t(vec![Value::addr(0u32), Value::Int(5)]);
        assert_eq!(tup.wire_size(), 2 + 4 + 8);
        let d = TupleDelta::insert("link", tup);
        assert_eq!(d.wire_size(), 14 + 4 + 1);
    }

    #[test]
    fn tuple_macro() {
        let tup = tuple![ndlog_net::NodeAddr(1), 5i64, "hi"];
        assert_eq!(tup.arity(), 3);
        assert_eq!(tup.get(0), Some(&Value::addr(1u32)));
    }

    #[test]
    fn from_drain_moves_the_buffer_out_and_keeps_its_capacity() {
        let mut buf = Vec::with_capacity(8);
        buf.extend([Value::addr(0u32), Value::Int(5)]);
        let tup = Tuple::from_drain(&mut buf);
        assert_eq!(tup, t(vec![Value::addr(0u32), Value::Int(5)]));
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 8, "the buffer is reused, not consumed");
    }

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    const NAMES: [&str; 7] = [
        "link",
        "path",
        "path_sp2_xd",
        "shortestPath",
        "spCost",
        "Path",
        "",
    ];

    #[test]
    fn rel_orders_compares_and_hashes_exactly_like_its_name() {
        for a in NAMES {
            let ra = Rel::new(a);
            assert_eq!(ra.as_str(), a);
            assert_eq!(hash_of(&ra), hash_of(a), "Hash agrees with str");
            for b in NAMES {
                let rb = Rel::new(b);
                assert_eq!(ra.cmp(&rb), a.cmp(b), "Ord of {a:?} vs {b:?}");
                assert_eq!(ra == rb, a == b, "Eq of {a:?} vs {b:?}");
                assert_eq!(ra == b, a == b, "Rel == &str");
            }
        }
        // Borrow<str>: maps keyed by handles answer lookups by name.
        let map: BTreeMap<Rel, usize> = NAMES.iter().map(|&n| (Rel::new(n), n.len())).collect();
        assert_eq!(map.get("path_sp2_xd"), Some(&11));
        let set: std::collections::HashSet<Rel> = NAMES.iter().map(|&n| Rel::new(n)).collect();
        assert!(set.contains("spCost"));
    }

    #[test]
    fn ordered_keys_holding_rels_iterate_as_they_did_with_strings() {
        // The engines keep relation names inside ordered keys — outbound
        // batches, DRed mark sets, the flush dedup keys, the result log —
        // so swapping `String` for `Rel` must not permute any of them.
        let mut with_rel: BTreeSet<(NodeAddr, Rel, Tuple)> = BTreeSet::new();
        let mut with_string: BTreeSet<(NodeAddr, String, Tuple)> = BTreeSet::new();
        for (i, name) in NAMES.iter().cycle().take(40).enumerate() {
            let node = NodeAddr((i % 3) as u32);
            let tuple = t(vec![Value::Int((i % 5) as i64), Value::str(*name)]);
            with_rel.insert((node, Rel::new(name), tuple.clone()));
            with_string.insert((node, name.to_string(), tuple));
        }
        let as_strings: Vec<(NodeAddr, String, Tuple)> = with_rel
            .into_iter()
            .map(|(node, rel, tuple)| (node, rel.to_string(), tuple))
            .collect();
        assert_eq!(as_strings, with_string.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn rel_prints_like_a_string() {
        let rel = Rel::new("shortestPath");
        assert_eq!(rel.to_string(), "shortestPath");
        assert_eq!(
            format!("{rel:?}"),
            format!("{:?}", "shortestPath".to_string())
        );
        let delta = TupleDelta::insert(rel, t(vec![Value::Int(1)]));
        assert!(format!("{delta:?}").contains("relation: \"shortestPath\""));
    }

    #[test]
    fn equal_names_share_one_handle_across_threads_and_register_once() {
        const PREFIX: &str = "rel-registry-test-";
        let per_thread: Vec<Vec<Rel>> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let mut seen = Vec::new();
                    for _ in 0..3 {
                        seen = (0..50).map(|i| Rel::new(&format!("{PREFIX}{i}"))).collect();
                    }
                    seen
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        for handles in &per_thread[1..] {
            for (a, b) in handles.iter().zip(&per_thread[0]) {
                assert!(std::ptr::eq(a.as_str(), b.as_str()), "one handle per name");
            }
        }
        // The registry grows with distinct names only: 600 lookups of 50
        // names registered 50 entries.
        let registered = Rel::registered()
            .into_iter()
            .filter(|name| name.starts_with(PREFIX))
            .count();
        assert_eq!(registered, 50);
    }
}
