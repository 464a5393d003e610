//! Incremental maintenance of aggregate rules.
//!
//! Rules with aggregate heads, such as SP3
//!
//! ```text
//! sp3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C).
//! ```
//!
//! are not executed as join strands; instead they are maintained as
//! incremental aggregate views, following the techniques of Ramakrishnan et
//! al. for incremental evaluation of queries with aggregation (Section 3.3
//! and Section 4 of the paper). Each group keeps an ordered multiset of its
//! input values so that
//!
//! * an insertion updates the aggregate in O(log n), and
//! * a deletion re-derives the aggregate in O(log n) time and O(n) space —
//!   the complexity quoted in the paper for min/max re-evaluation,
//!
//! emitting a deletion of the old aggregate tuple and an insertion of the
//! new one whenever the value actually changes (which is what lets the
//! downstream `shortestPath` rule react to improvements and retractions).
//!
//! Extra body atoms (e.g. the `magicDst(@D)` literal in rule SP3-SD) act as
//! *guards*: a source delta only feeds the aggregate when the guard atoms
//! have matches in the local store. Guards are intended for static "magic"
//! tables seeded before execution; retroactive changes to guard relations
//! do not replay previously-skipped source tuples.

use crate::expr::Bindings;
use crate::hash::FxHashMap;
use crate::key::{KeyView, Projection, ValueKey};
use crate::store::Store;
use crate::strand::bind_atom;
use crate::tuple::{Rel, Sign, Tuple, TupleDelta};
use ndlog_lang::{AggFunc, Atom, Literal, Rule, Term, Value};
use std::collections::BTreeMap;

/// How each head field of the aggregate rule is produced.
#[derive(Debug, Clone, PartialEq)]
enum HeadField {
    /// Copied from this column of the source relation (a group-by field).
    Group(usize),
    /// The aggregate value itself.
    AggValue,
    /// A constant.
    Const(Value),
}

/// An incrementally maintained aggregate view.
#[derive(Debug, Clone)]
pub struct AggregateView {
    rule_label: String,
    head_relation: Rel,
    source_relation: Rel,
    func: AggFunc,
    value_col: usize,
    group_cols: Vec<usize>,
    head_template: Vec<HeadField>,
    source_atom: Atom,
    guards: Vec<Atom>,
    /// Group states by group key. Only ever looked up by key (never
    /// iterated), so hashing cannot affect any result.
    groups: FxHashMap<ValueKey, GroupState>,
}

#[derive(Debug, Clone, Default)]
struct GroupState {
    /// value -> multiplicity.
    multiset: BTreeMap<Value, usize>,
    /// Total number of contributing tuples.
    total: usize,
    /// The head tuple currently derived for this group, if any.
    current: Option<Tuple>,
    /// The aggregate value `current` carries, held inline so the
    /// aggregate-selection check on every ingested delta reads it without
    /// walking the multiset or the head tuple.
    best: Option<Value>,
}

impl GroupState {
    fn aggregate(&self, func: AggFunc) -> Option<Value> {
        if self.total == 0 {
            return None;
        }
        match func {
            AggFunc::Min => self.multiset.keys().next().cloned(),
            AggFunc::Max => self.multiset.keys().next_back().cloned(),
            AggFunc::Count => Some(Value::Int(self.total as i64)),
            AggFunc::Sum => {
                let mut sum = 0.0;
                for (v, n) in &self.multiset {
                    sum += v.as_f64().unwrap_or(0.0) * *n as f64;
                }
                Some(Value::Float(sum))
            }
        }
    }
}

impl AggregateView {
    /// Build a view from an aggregate rule. Returns an error message when
    /// the rule does not have the supported shape (exactly one aggregate in
    /// the head, a unique source atom providing the aggregated variable,
    /// only predicate guards — no assignments or filters).
    pub fn from_rule(rule: &Rule) -> Result<AggregateView, String> {
        let agg_positions = rule.head.aggregate_positions();
        if agg_positions.len() != 1 {
            return Err(format!(
                "rule {}: aggregate views require exactly one aggregate head argument",
                rule.label
            ));
        }
        let Term::Agg(agg) = &rule.head.args[agg_positions[0]] else {
            unreachable!("position came from aggregate_positions");
        };
        if rule.body.iter().any(|l| !matches!(l, Literal::Atom(_))) {
            return Err(format!(
                "rule {}: aggregate rules may not contain assignments or filters",
                rule.label
            ));
        }
        let body_atoms: Vec<&Atom> = rule.body_atoms().collect();
        let providers: Vec<&Atom> = body_atoms
            .iter()
            .copied()
            .filter(|a| {
                a.args
                    .iter()
                    .any(|t| t.var_name() == Some(agg.var.as_str()))
            })
            .collect();
        if providers.len() != 1 {
            return Err(format!(
                "rule {}: the aggregated variable must be provided by exactly one body atom",
                rule.label
            ));
        }
        let source = providers[0].clone();
        let guards: Vec<Atom> = body_atoms
            .into_iter()
            .filter(|a| a.name != source.name || **a != source)
            .cloned()
            .collect();
        let col_of = |var: &str| -> Option<usize> {
            source.args.iter().position(|t| t.var_name() == Some(var))
        };
        let value_col = col_of(&agg.var).ok_or_else(|| {
            format!(
                "rule {}: aggregated variable not in source atom",
                rule.label
            )
        })?;

        let mut head_template = Vec::with_capacity(rule.head.arity());
        let mut group_cols = Vec::new();
        for term in &rule.head.args {
            match term {
                Term::Agg(_) => head_template.push(HeadField::AggValue),
                Term::Const(c) => head_template.push(HeadField::Const(c.clone())),
                Term::Var(v) => {
                    let col = col_of(&v.name).ok_or_else(|| {
                        format!(
                            "rule {}: head variable {} not found in the source atom",
                            rule.label, v.name
                        )
                    })?;
                    group_cols.push(col);
                    head_template.push(HeadField::Group(col));
                }
            }
        }
        Ok(AggregateView {
            rule_label: rule.label.clone(),
            head_relation: Rel::new(&rule.head.name),
            source_relation: Rel::new(&source.name),
            func: agg.func,
            value_col,
            group_cols,
            head_template,
            source_atom: source,
            guards,
            groups: FxHashMap::default(),
        })
    }

    /// The relation whose deltas feed this view.
    pub fn source_relation(&self) -> Rel {
        self.source_relation
    }

    /// The relation this view derives.
    pub fn head_relation(&self) -> Rel {
        self.head_relation
    }

    /// The label of the originating rule.
    pub fn rule_label(&self) -> &str {
        &self.rule_label
    }

    /// The aggregate function.
    pub fn func(&self) -> AggFunc {
        self.func
    }

    /// Number of currently non-empty groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Forget all group state (a node crash loses the view along with the
    /// store it was built from; rejoin rebuilds both from scratch).
    pub fn reset(&mut self) {
        self.groups.clear();
    }

    /// The group state a source tuple belongs to, looked up by its
    /// borrowed group-by columns.
    fn group_of(&self, source_tuple: &Tuple) -> Option<&GroupState> {
        self.groups.get(&Projection {
            values: source_tuple.values(),
            cols: Some(&self.group_cols),
        } as &dyn KeyView)
    }

    /// Current aggregate value for the group a source tuple belongs to.
    pub fn current_for(&self, source_tuple: &Tuple) -> Option<Value> {
        self.group_of(source_tuple).and_then(|g| g.best.clone())
    }

    /// The head tuple currently derived for the group a source tuple
    /// belongs to, if any (`None` as well when the tuple is too short to
    /// have a group).
    pub fn current_output_for(&self, source_tuple: &Tuple) -> Option<&Tuple> {
        if self.group_cols.iter().any(|&c| c >= source_tuple.arity()) {
            return None;
        }
        self.group_of(source_tuple)?.current.as_ref()
    }

    /// The group key a source tuple belongs to, or `None` when the tuple
    /// is too short to project (heterogeneous hand-built stores).
    pub fn group_key(&self, source_tuple: &Tuple) -> Option<Vec<Value>> {
        self.group_cols
            .iter()
            .map(|&c| source_tuple.get(c).cloned())
            .collect()
    }

    /// The head tuple currently derived for a group, if any.
    pub fn current_output(&self, key: &[Value]) -> Option<&Tuple> {
        self.groups
            .get(&Projection {
                values: key,
                cols: None,
            } as &dyn KeyView)?
            .current
            .as_ref()
    }

    /// Map a head (output) tuple back to its group key, or `None` when the
    /// tuple cannot be an output of this view (wrong arity or mismatched
    /// constants).
    pub fn output_group_key(&self, head_tuple: &Tuple) -> Option<Vec<Value>> {
        if head_tuple.arity() != self.head_template.len() {
            return None;
        }
        let mut by_col: BTreeMap<usize, &Value> = BTreeMap::new();
        for (pos, field) in self.head_template.iter().enumerate() {
            match field {
                HeadField::Group(col) => {
                    by_col.insert(*col, head_tuple.get(pos)?);
                }
                HeadField::Const(c) if Some(c) != head_tuple.get(pos) => return None,
                _ => {}
            }
        }
        self.group_cols
            .iter()
            .map(|c| by_col.get(c).map(|&v| v.clone()))
            .collect()
    }

    /// Rebuild one group's state from the tuples currently stored in the
    /// source relation — the re-derive half of the DRed pass's group
    /// pinning. The over-delete phase leaves the view untouched while it
    /// removes source tuples (and the group's head output) from the store;
    /// this recomputes the multiset from scratch over the surviving source
    /// tuples (guards included), installs the new aggregate as the group's
    /// current output, and returns it as an insertion delta for the caller
    /// to ingest (the old output is already gone from the store). Returns
    /// `None` when the group has no surviving inputs.
    ///
    /// Rebuilding from the store — rather than patching the multiset —
    /// also heals any drift the multiset accumulated while derivation
    /// counts were inexact.
    pub fn rebuild_group(
        &mut self,
        store: &Store,
        key: &[Value],
        stats: &mut crate::index::JoinStats,
    ) -> Option<TupleDelta> {
        let mut state = GroupState::default();
        if let Some(relation) = store.relation(&self.source_relation) {
            // Probe on the (sorted, deduplicated) group columns; verify the
            // full group key residually to cover repeated group variables.
            let mut bound: BTreeMap<usize, Value> = BTreeMap::new();
            for (col, val) in self.group_cols.iter().zip(key.iter()) {
                bound.entry(*col).or_insert_with(|| val.clone());
            }
            let cols: Vec<usize> = bound.keys().copied().collect();
            let vals: Vec<Value> = bound.values().cloned().collect();
            let matches: Vec<Tuple> = relation
                .lookup(&cols, &vals, u64::MAX, stats)
                .filter(|s| self.group_key(&s.tuple).as_deref() == Some(key))
                .map(|s| s.tuple.clone())
                .collect();
            for tuple in matches {
                if !self.guards_satisfied(store, &tuple) {
                    continue;
                }
                let Some(value) = tuple.get(self.value_col).cloned() else {
                    continue;
                };
                *state.multiset.entry(value).or_insert(0) += 1;
                state.total += 1;
            }
        }
        state.best = state.aggregate(self.func);
        let new_head = state.best.as_ref().map(|v| self.head_tuple(key, v));
        state.current = new_head.clone();
        if state.total == 0 {
            self.groups.remove(&Projection {
                values: key,
                cols: None,
            } as &dyn KeyView);
        } else {
            self.groups.insert(ValueKey(key.into()), state);
        }
        new_head.map(|t| TupleDelta::insert(self.head_relation, t))
    }

    fn head_tuple(&self, key: &[Value], agg_value: &Value) -> Tuple {
        let key = Projection {
            values: key,
            cols: None,
        };
        head_tuple(&self.head_template, &self.group_cols, &key, agg_value)
    }

    /// The (relation, bound-column signature) pairs this view probes:
    /// every guard atom's constants plus the columns whose variables the
    /// source atom binds, and the source relation's group columns (used by
    /// [`AggregateView::rebuild_group`] during the DRed re-derive phase).
    /// Declared up front (like strand probe plans) so these checks run as
    /// index probes instead of relation scans.
    pub fn index_requirements(&self) -> Vec<(String, Vec<usize>)> {
        let mut out = self.guard_index_requirements();
        let group_sig: std::collections::BTreeSet<usize> =
            self.group_cols.iter().copied().collect();
        if !group_sig.is_empty() {
            out.push((
                self.source_relation.to_string(),
                group_sig.into_iter().collect(),
            ));
        }
        out
    }

    /// The guard-atom half of [`AggregateView::index_requirements`].
    fn guard_index_requirements(&self) -> Vec<(String, Vec<usize>)> {
        let mut source_vars: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for term in &self.source_atom.args {
            if let Term::Var(v) = term {
                source_vars.insert(v.name.as_str());
            }
        }
        self.guards
            .iter()
            .filter_map(|guard| {
                let cols: Vec<usize> = guard
                    .args
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| match t {
                        Term::Const(_) => Some(i),
                        Term::Var(v) if source_vars.contains(v.name.as_str()) => Some(i),
                        _ => None,
                    })
                    .collect();
                (!cols.is_empty()).then(|| (guard.name.clone(), cols))
            })
            .collect()
    }

    fn guards_satisfied(&self, store: &Store, source_tuple: &Tuple) -> bool {
        if self.guards.is_empty() {
            return true;
        }
        let mut env = Bindings::new();
        if !bind_atom(&self.source_atom, source_tuple, &mut env) {
            return false;
        }
        self.guards.iter().all(|guard| {
            let Some(relation) = store.relation(&guard.name) else {
                return false;
            };
            let mut cols = Vec::new();
            let mut vals = Vec::new();
            for (i, t) in guard.args.iter().enumerate() {
                match t {
                    Term::Const(c) => {
                        cols.push(i);
                        vals.push(c.clone());
                    }
                    Term::Var(v) => {
                        if let Some(val) = env.get(&v.name) {
                            cols.push(i);
                            vals.push(val.clone());
                        }
                    }
                    Term::Agg(_) => {}
                }
            }
            relation.contains_match(&cols, &vals, u64::MAX)
        })
    }

    /// Apply a source delta, returning the head deltas to propagate.
    pub fn apply(&mut self, store: &Store, delta: &TupleDelta) -> Vec<TupleDelta> {
        if delta.relation != self.source_relation {
            return Vec::new();
        }
        if !self.guards_satisfied(store, &delta.tuple) {
            return Vec::new();
        }
        let Some(value) = delta.tuple.get(self.value_col).cloned() else {
            return Vec::new();
        };
        let view = Projection {
            values: delta.tuple.values(),
            cols: Some(&self.group_cols),
        };
        // Only a group's first source tuple allocates its key.
        if !self.groups.contains_key(&view as &dyn KeyView) {
            let key = self
                .group_cols
                .iter()
                .map(|&c| delta.tuple.values()[c].clone())
                .collect();
            self.groups.insert(ValueKey(key), GroupState::default());
        }
        let group = self
            .groups
            .get_mut(&view as &dyn KeyView)
            .expect("group ensured above");

        match delta.sign {
            Sign::Insert => {
                *group.multiset.entry(value).or_insert(0) += 1;
                group.total += 1;
            }
            Sign::Delete => {
                match group.multiset.get_mut(&value) {
                    Some(n) if *n > 1 => {
                        *n -= 1;
                        group.total -= 1;
                    }
                    Some(_) => {
                        group.multiset.remove(&value);
                        group.total -= 1;
                    }
                    // Deleting a value we never saw (e.g. its insertion was
                    // pruned by an aggregate selection): ignore.
                    None => return Vec::new(),
                }
            }
        }

        // An unchanged aggregate value means an unchanged head tuple: the
        // head is the group key plus the value.
        let new_value = group.aggregate(self.func);
        if group.best == new_value {
            return Vec::new();
        }
        let old_head = group.current.take();
        let new_head = new_value
            .as_ref()
            .map(|v| head_tuple(&self.head_template, &self.group_cols, &view, v));
        let mut out = Vec::with_capacity(2);
        if let Some(old) = old_head {
            out.push(TupleDelta::delete(self.head_relation, old));
        }
        if let Some(new) = &new_head {
            out.push(TupleDelta::insert(self.head_relation, new.clone()));
        }
        // Update (or drop) the group state.
        if group.total == 0 {
            self.groups.remove(&view as &dyn KeyView);
        } else {
            group.current = new_head;
            group.best = new_value;
        }
        out
    }
}

/// Instantiate the head template for a group (`key` holds the group
/// values in `group_cols` order) and its aggregate value.
fn head_tuple(
    template: &[HeadField],
    group_cols: &[usize],
    key: &dyn KeyView,
    agg_value: &Value,
) -> Tuple {
    let values = template
        .iter()
        .map(|f| match f {
            HeadField::Group(col) => {
                let pos = group_cols
                    .iter()
                    .position(|c| c == col)
                    .expect("group value present");
                key.key_at(pos).clone()
            }
            HeadField::AggValue => agg_value.clone(),
            HeadField::Const(c) => c.clone(),
        })
        .collect();
    Tuple::new(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_lang::parse_program;

    fn view(src: &str) -> AggregateView {
        let p = parse_program(src).unwrap();
        AggregateView::from_rule(&p.rules[0]).unwrap()
    }

    fn sp_cost_view() -> AggregateView {
        view("sp3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C).")
    }

    fn path(s: u32, d: u32, z: u32, c: f64) -> Tuple {
        Tuple::new(vec![
            Value::addr(s),
            Value::addr(d),
            Value::addr(z),
            Value::list(vec![Value::addr(s), Value::addr(d)]),
            Value::Float(c),
        ])
    }

    #[test]
    fn min_improves_and_emits_replacement() {
        let mut v = sp_cost_view();
        let store = Store::new();
        let out = v.apply(&store, &TupleDelta::insert("path", path(0, 1, 1, 5.0)));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].sign, Sign::Insert);
        assert_eq!(out[0].relation, "spCost");
        assert_eq!(out[0].tuple.get(2), Some(&Value::Float(5.0)));

        // A worse path does not change the aggregate.
        let out = v.apply(&store, &TupleDelta::insert("path", path(0, 1, 2, 9.0)));
        assert!(out.is_empty());

        // A better path retracts the old aggregate and asserts the new one.
        let out = v.apply(&store, &TupleDelta::insert("path", path(0, 1, 3, 2.0)));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].sign, Sign::Delete);
        assert_eq!(out[0].tuple.get(2), Some(&Value::Float(5.0)));
        assert_eq!(out[1].sign, Sign::Insert);
        assert_eq!(out[1].tuple.get(2), Some(&Value::Float(2.0)));
        assert_eq!(v.group_count(), 1);
        assert_eq!(v.current_for(&path(0, 1, 1, 0.0)), Some(Value::Float(2.0)));
    }

    #[test]
    fn deletion_rederives_from_remaining_inputs() {
        let mut v = sp_cost_view();
        let store = Store::new();
        v.apply(&store, &TupleDelta::insert("path", path(0, 1, 1, 5.0)));
        v.apply(&store, &TupleDelta::insert("path", path(0, 1, 2, 2.0)));
        // Deleting the best path falls back to the next best (O(log n)).
        let out = v.apply(&store, &TupleDelta::delete("path", path(0, 1, 2, 2.0)));
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].tuple.get(2), Some(&Value::Float(5.0)));
        // Deleting the last input retracts the aggregate entirely.
        let out = v.apply(&store, &TupleDelta::delete("path", path(0, 1, 1, 5.0)));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].sign, Sign::Delete);
        assert_eq!(v.group_count(), 0);
    }

    #[test]
    fn duplicate_values_are_multiset_counted() {
        let mut v = sp_cost_view();
        let store = Store::new();
        v.apply(&store, &TupleDelta::insert("path", path(0, 1, 1, 3.0)));
        v.apply(&store, &TupleDelta::insert("path", path(0, 1, 2, 3.0)));
        // Removing one of the two cost-3 paths keeps the aggregate at 3.
        let out = v.apply(&store, &TupleDelta::delete("path", path(0, 1, 1, 3.0)));
        assert!(out.is_empty());
        let out = v.apply(&store, &TupleDelta::delete("path", path(0, 1, 2, 3.0)));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].sign, Sign::Delete);
    }

    #[test]
    fn groups_are_independent() {
        let mut v = sp_cost_view();
        let store = Store::new();
        let a = v.apply(&store, &TupleDelta::insert("path", path(0, 1, 1, 5.0)));
        let b = v.apply(&store, &TupleDelta::insert("path", path(0, 2, 1, 7.0)));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(v.group_count(), 2);
        assert_eq!(b[0].tuple.get(1), Some(&Value::addr(2u32)));
    }

    #[test]
    fn deleting_unseen_value_is_ignored() {
        let mut v = sp_cost_view();
        let store = Store::new();
        v.apply(&store, &TupleDelta::insert("path", path(0, 1, 1, 5.0)));
        let out = v.apply(&store, &TupleDelta::delete("path", path(0, 1, 9, 4.0)));
        assert!(out.is_empty());
        assert_eq!(v.current_for(&path(0, 1, 1, 0.0)), Some(Value::Float(5.0)));
    }

    #[test]
    fn max_count_and_sum_aggregates() {
        let store = Store::new();
        let mut vmax = view("m best(@S, max<C>) :- obs(@S, C).");
        let obs = |s: u32, c: i64| Tuple::new(vec![Value::addr(s), Value::Int(c)]);
        vmax.apply(&store, &TupleDelta::insert("obs", obs(0, 3)));
        let out = vmax.apply(&store, &TupleDelta::insert("obs", obs(0, 9)));
        assert_eq!(out[1].tuple.get(1), Some(&Value::Int(9)));

        let mut vcount = view("c deg(@S, count<D>) :- edge(@S, @D).");
        let edge = |s: u32, d: u32| Tuple::new(vec![Value::addr(s), Value::addr(d)]);
        vcount.apply(&store, &TupleDelta::insert("edge", edge(0, 1)));
        let out = vcount.apply(&store, &TupleDelta::insert("edge", edge(0, 2)));
        assert_eq!(out[1].tuple.get(1), Some(&Value::Int(2)));

        let mut vsum = view("s total(@S, sum<C>) :- obs(@S, C).");
        vsum.apply(&store, &TupleDelta::insert("obs", obs(0, 3)));
        let out = vsum.apply(&store, &TupleDelta::insert("obs", obs(0, 4)));
        assert_eq!(out[1].tuple.get(1), Some(&Value::Float(7.0)));
    }

    #[test]
    fn guard_atoms_filter_source_deltas() {
        let p = parse_program("sd3 spCost(@D,@S,min<C>) :- magicDst(@D), pathDst(@D,@S,@Z,P,C).")
            .unwrap();
        let mut v = AggregateView::from_rule(&p.rules[0]).unwrap();
        assert_eq!(v.source_relation(), "pathDst");

        let mut store = Store::new();
        let pd = |d: u32, s: u32, c: f64| {
            Tuple::new(vec![
                Value::addr(d),
                Value::addr(s),
                Value::addr(s),
                Value::nil(),
                Value::Float(c),
            ])
        };
        // No magicDst entry: the delta is filtered out.
        assert!(v
            .apply(&store, &TupleDelta::insert("pathDst", pd(1, 0, 4.0)))
            .is_empty());
        // Seed the magic table for destination 1 and retry.
        store.apply(&TupleDelta::insert(
            "magicDst",
            Tuple::new(vec![Value::addr(1u32)]),
        ));
        let out = v.apply(&store, &TupleDelta::insert("pathDst", pd(1, 0, 4.0)));
        assert_eq!(out.len(), 1);
        // A different destination still has no magic entry.
        assert!(v
            .apply(&store, &TupleDelta::insert("pathDst", pd(2, 0, 4.0)))
            .is_empty());
    }

    #[test]
    fn malformed_rules_are_rejected() {
        let reject = |src: &str| {
            let p = parse_program(src).unwrap();
            AggregateView::from_rule(&p.rules[0])
        };
        assert!(reject("a x(@S, C) :- p(@S, C).").is_err(), "no aggregate");
        assert!(
            reject("a x(@S, min<C>, max<C>) :- p(@S, C).").is_err(),
            "two aggregates"
        );
        assert!(
            reject("a x(@S, min<C>) :- p(@S, C), q(@S, C).").is_err(),
            "ambiguous provider"
        );
        assert!(
            reject("a x(@S, min<C>) :- p(@S, C), C < 5.").is_err(),
            "filters not allowed"
        );
        assert!(
            reject("a x(@S, D, min<C>) :- p(@S, C).").is_err(),
            "head variable missing from source"
        );
    }

    #[test]
    fn other_relations_are_ignored() {
        let mut v = sp_cost_view();
        let store = Store::new();
        let out = v.apply(&store, &TupleDelta::insert("link", path(0, 1, 1, 5.0)));
        assert!(out.is_empty());
    }
}
