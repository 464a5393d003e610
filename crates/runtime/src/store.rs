//! A node's table store: the collection of relations a (localized) NDlog
//! program reads and writes at one network node.

use crate::relation::{DeleteOutcome, InsertOutcome, Relation, RelationSchema};
use crate::tuple::{Sign, Tuple, TupleDelta};
use ndlog_lang::{Program, Term, Value};
use ndlog_net::NodeAddr;
use std::collections::{BTreeMap, BTreeSet};

/// A collection of named relations plus the node-local timestamp counter
/// used by pipelined semi-naive evaluation.
#[derive(Debug, Clone, Default)]
pub struct Store {
    relations: BTreeMap<String, Relation>,
    next_seq: u64,
    now_micros: u64,
}

/// The effect of applying a delta to the store: what the store did with
/// it, plus the timestamp assigned to the applied tuple (used as the join
/// visibility limit when firing strands).
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyEffect {
    /// What the store did with the delta.
    pub outcome: Applied,
    /// The timestamp of the applied tuple.
    pub seq: u64,
}

/// What [`Store::apply`] did with a delta. The store never copies the
/// delta: the caller still owns it and propagates it as the outcome says.
#[derive(Debug, Clone, PartialEq)]
pub enum Applied {
    /// The delta changed visibility (a new tuple, or the last derivation
    /// removed): propagate the delta itself.
    Changed,
    /// A duplicate derivation, a count decrement or a stale deletion:
    /// nothing to propagate (this is how the count algorithm suppresses
    /// redundant downstream work).
    Absorbed,
    /// A primary-key replacement: propagate a deletion of this old tuple,
    /// then the delta's insertion.
    Replaced(Tuple),
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a store with a relation for every table declaration and every
    /// relation mentioned by the program (derived relations default to
    /// all-columns primary keys).
    pub fn for_program(program: &Program) -> Self {
        let mut store = Store::new();
        store.add_program(program);
        store
    }

    /// Add the relations of a program to an existing store (used when one
    /// node runs several concurrent queries). Existing relations keep their
    /// schemas.
    pub fn add_program(&mut self, program: &Program) {
        for decl in &program.tables {
            if self.relations.contains_key(&decl.name) {
                continue;
            }
            let mut schema =
                RelationSchema::new(decl.name.clone()).with_keys(decl.key_columns.clone());
            if let Some(ttl) = decl.ttl_seconds {
                schema = schema.with_ttl_seconds(ttl);
            }
            self.ensure(schema);
        }
        let mut names: Vec<String> = Vec::new();
        for rule in &program.rules {
            names.push(rule.head.name.clone());
            for a in rule.body_atoms() {
                names.push(a.name.clone());
            }
        }
        for name in names {
            if !self.relations.contains_key(&name) {
                self.ensure(RelationSchema::new(name));
            }
        }
    }

    /// Ensure a relation with the given schema exists (no-op if present).
    pub fn ensure(&mut self, schema: RelationSchema) -> &mut Relation {
        self.relations
            .entry(schema.name.clone())
            .or_insert_with(|| Relation::new(schema))
    }

    /// Declare a secondary index on a relation (creating the relation with
    /// a default schema if needed). Called once per program with every
    /// bound-column signature the compiled strands probe, so the indexes
    /// exist before any tuple arrives and are maintained incrementally
    /// from then on.
    pub fn declare_index(&mut self, relation: &str, cols: &[usize]) {
        self.ensure(RelationSchema::new(relation))
            .ensure_index(cols);
    }

    /// Declare every index a set of compiled strands requires: the join
    /// probe plans' signatures, plus the trigger-side signatures that DRed
    /// re-derivation probes when it pins a strand's head to an
    /// over-deleted tuple's primary key (see
    /// [`crate::dred::rederive_inserts`]). A keyless head relation is
    /// keyed on all of its columns, so its requirement binds every
    /// head-mentioned trigger column.
    pub fn declare_indexes<'a>(
        &mut self,
        strands: impl IntoIterator<Item = &'a crate::strand::CompiledStrand>,
    ) {
        for strand in strands {
            for (relation, cols) in strand.index_requirements() {
                self.declare_index(&relation, &cols);
            }
            let key_cols = effective_key_columns(
                self.relation(strand.head_relation()),
                strand.delta_rule().rule.head.arity(),
            );
            if let Some((relation, cols)) = strand.rederive_requirement(&key_cols) {
                self.declare_index(&relation, &cols);
            }
        }
    }

    /// The relation with this name, if any.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Mutable access to a relation.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name)
    }

    /// Names of all relations, in sorted order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Total number of stored tuples across relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// Current logical time (microseconds), used for soft-state expiry.
    pub fn now_micros(&self) -> u64 {
        self.now_micros
    }

    /// Advance the store's logical clock (monotonic).
    pub fn set_time(&mut self, now_micros: u64) {
        self.now_micros = self.now_micros.max(now_micros);
    }

    /// The most recently assigned timestamp.
    pub fn current_seq(&self) -> u64 {
        self.next_seq
    }

    fn fresh_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Apply a signed delta to the store, creating the relation on demand.
    ///
    /// Returns what to propagate further (see [`Applied`]) plus the
    /// timestamp to use as the join visibility limit when firing strands
    /// off this delta. Applying a delta to an existing relation allocates
    /// only for a new primary key.
    pub fn apply(&mut self, delta: &TupleDelta) -> ApplyEffect {
        let now = self.now_micros;
        let seq = self.fresh_seq();
        // Looked up by the borrowed name: only a relation's first delta
        // allocates its name.
        if !self.relations.contains_key(&delta.relation) {
            self.ensure(RelationSchema::new(delta.relation.clone()));
        }
        let relation = self
            .relations
            .get_mut(&delta.relation)
            .expect("ensured above");
        let outcome = match delta.sign {
            Sign::Insert => match relation.insert(delta.tuple.clone(), seq, now) {
                InsertOutcome::New => Applied::Changed,
                InsertOutcome::Duplicate => Applied::Absorbed,
                InsertOutcome::Replaced(old) => Applied::Replaced(old),
            },
            Sign::Delete => match relation.delete(&delta.tuple) {
                DeleteOutcome::Removed => Applied::Changed,
                DeleteOutcome::Decremented | DeleteOutcome::NotFound => Applied::Absorbed,
            },
        };
        ApplyEffect { outcome, seq }
    }

    /// Refresh a stored tuple's soft-state expiry at the current time
    /// without counting a derivation or consuming a timestamp (see
    /// [`Relation::refresh`]).
    pub fn refresh(&mut self, relation: &str, tuple: &Tuple) {
        if let Some(r) = self.relations.get_mut(relation) {
            r.refresh(tuple, self.now_micros);
        }
    }

    /// Expire soft-state tuples across all relations, returning the
    /// corresponding deletion deltas (to be propagated like any other
    /// deletion). Hard-state relations are skipped without a walk.
    pub fn expire(&mut self, now_micros: u64) -> Vec<TupleDelta> {
        self.set_time(now_micros);
        let mut out = Vec::new();
        for (name, rel) in &mut self.relations {
            for tuple in rel.expire(now_micros) {
                out.push(TupleDelta::delete(name.clone(), tuple));
            }
        }
        out
    }

    /// Drop every stored tuple while keeping relation schemas, declared
    /// indexes, the timestamp counter and the logical clock. This is the
    /// store half of a node crash: volatile state is lost, but the node
    /// restarts with the same program (schemas + indexes) and its sequence
    /// numbers keep advancing so rejoin-era tuples sort after crash-era
    /// ones.
    pub fn clear_tuples(&mut self) {
        for rel in self.relations.values_mut() {
            rel.clear();
        }
    }

    /// Pin this store to node `here`: every relation in `located` (see
    /// [`located_relations`]) stores only tuples located at `here`, so its
    /// indexes drop column 0 (see [`Relation::set_location`]). Call before
    /// declaring indexes; relations are created as needed.
    pub fn set_location(&mut self, here: NodeAddr, located: &BTreeSet<String>) {
        for name in located {
            self.ensure(RelationSchema::new(name.clone()))
                .set_location(Value::Addr(here));
        }
    }

    /// All tuples of a relation (empty if the relation does not exist),
    /// in deterministic key order.
    pub fn tuples(&self, relation: &str) -> Vec<Tuple> {
        self.relations
            .get(relation)
            .map(|r| r.iter().map(|s| s.tuple.clone()).collect())
            .unwrap_or_default()
    }

    /// Number of tuples in a relation (0 if absent).
    pub fn count(&self, relation: &str) -> usize {
        self.relations.get(relation).map_or(0, Relation::len)
    }
}

/// The relations whose first attribute is a location specifier in every
/// program that mentions them: every atom of the relation, head or body,
/// starts with an address variable (`@X`) or an address constant. A node
/// engine only stores tuples of such a relation that are located at the
/// node itself.
pub fn located_relations<'a>(programs: impl IntoIterator<Item = &'a Program>) -> BTreeSet<String> {
    let mut located = BTreeSet::new();
    let mut unlocated = BTreeSet::new();
    for program in programs {
        for rule in &program.rules {
            for atom in std::iter::once(&rule.head).chain(rule.body_atoms()) {
                let pinned = match atom.args.first() {
                    Some(Term::Var(v)) => v.located,
                    Some(Term::Const(c)) => c.is_addr(),
                    _ => false,
                };
                if pinned {
                    located.insert(atom.name.clone());
                } else {
                    unlocated.insert(atom.name.clone());
                }
            }
        }
    }
    &located - &unlocated
}

/// The columns an over-deleted tuple's primary key binds: the declared key
/// columns, or every column when the relation is keyed on all attributes
/// (or does not exist yet at declaration time).
pub(crate) fn effective_key_columns(relation: Option<&Relation>, arity: usize) -> Vec<usize> {
    match relation {
        Some(r) if !r.schema().key_columns.is_empty() => r.schema().key_columns.clone(),
        _ => (0..arity).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_lang::{programs, Value};

    fn t(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn for_program_creates_all_relations() {
        let p = programs::shortest_path("");
        let store = Store::for_program(&p);
        for name in ["link", "path", "spCost", "shortestPath"] {
            assert!(store.relation(name).is_some(), "missing {name}");
        }
        // Declared keys are honoured.
        assert_eq!(
            store.relation("path").unwrap().schema().key_columns,
            vec![0, 1, 3]
        );
    }

    #[test]
    fn apply_insert_then_duplicate_then_delete() {
        let mut store = Store::new();
        let d = TupleDelta::insert("r", t(&[1, 2]));
        let e1 = store.apply(&d);
        assert_eq!(e1.outcome, Applied::Changed);
        let e2 = store.apply(&d);
        assert_eq!(e2.outcome, Applied::Absorbed, "duplicate derivation");
        assert!(e2.seq > e1.seq);

        let del = TupleDelta::delete("r", t(&[1, 2]));
        let e3 = store.apply(&del);
        assert_eq!(e3.outcome, Applied::Absorbed, "count drops from 2 to 1");
        assert_eq!(store.apply(&del).outcome, Applied::Changed);
        assert_eq!(store.count("r"), 0);
    }

    #[test]
    fn apply_replacement_reports_the_old_tuple() {
        let mut store = Store::new();
        store.ensure(RelationSchema::new("best").with_keys(vec![0]));
        store.apply(&TupleDelta::insert("best", t(&[1, 10])));
        let insert = TupleDelta::insert("best", t(&[1, 5]));
        assert_eq!(store.apply(&insert).outcome, Applied::Replaced(t(&[1, 10])));
        assert_eq!(store.tuples("best"), vec![t(&[1, 5])]);
    }

    #[test]
    fn deleting_missing_tuple_is_silent() {
        let mut store = Store::new();
        let e = store.apply(&TupleDelta::delete("r", t(&[9])));
        assert_eq!(e.outcome, Applied::Absorbed);
    }

    #[test]
    fn expiry_produces_deletion_deltas() {
        let mut store = Store::new();
        store.ensure(RelationSchema::new("soft").with_ttl_seconds(1.0));
        store.apply(&TupleDelta::insert("soft", t(&[1])));
        store.apply(&TupleDelta::insert("hard", t(&[2])));
        let deltas = store.expire(2_000_000);
        assert_eq!(deltas, vec![TupleDelta::delete("soft", t(&[1]))]);
        assert_eq!(store.count("soft"), 0);
        assert_eq!(store.count("hard"), 1);
    }

    #[test]
    fn clock_is_monotonic() {
        let mut store = Store::new();
        store.set_time(100);
        store.set_time(50);
        assert_eq!(store.now_micros(), 100);
    }

    #[test]
    fn only_relations_located_everywhere_are_pinned() {
        let program = ndlog_lang::parse_program(
            r#"
            r1 reach(@S, @D) :- link(@S, @D).
            r2 reach(@S, @D) :- link(@S, @Z), reach(@Z, @D).
            r3 count(@S, N) :- tally(S, N), link(@S, @D).
            r4 mixed(@S) :- link(@S, @D).
            r5 mixed(S) :- tally(S, _).
            "#,
        )
        .unwrap();
        let located = located_relations([&program]);
        let names: Vec<&str> = located.iter().map(String::as_str).collect();
        assert_eq!(names, vec!["count", "link", "reach"]);

        let mut store = Store::for_program(&program);
        store.set_location(NodeAddr(7), &located);
        let here = Value::addr(7u32);
        assert_eq!(store.relation("link").unwrap().location(), Some(&here));
        assert_eq!(store.relation("tally").unwrap().location(), None);
        assert_eq!(store.relation("mixed").unwrap().location(), None);
    }

    #[test]
    fn relation_names_sorted() {
        let mut store = Store::new();
        store.ensure(RelationSchema::new("zeta"));
        store.ensure(RelationSchema::new("alpha"));
        let names: Vec<_> = store.relation_names().collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(store.total_tuples(), 0);
    }
}
