//! Rule strands: compiled delta rules and their firing logic.
//!
//! A strand corresponds to one box-chain in P2's dataflow (Figures 3 and 5
//! of the paper): it is triggered by a delta of one body predicate, joins
//! the delta against the locally stored tables of the other body
//! predicates, evaluates assignments and filters, and emits derivations of
//! the head — each tagged with the network location (the head's location
//! specifier) where it must be stored.
//!
//! Deletions flow through the same machinery, but as the *over-delete*
//! phase of a DRed pass (see [`crate::dred`]): firing a strand with a
//! deletion delta derives the deletions of every tuple derivable from the
//! deleted tuple, the whole closure is removed outright, and survivors are
//! restored by re-derivation against the post-removal store. Derivation
//! counts — which SN/BSN over-counting and primary-key replacements can
//! make inexact — are deliberately never consulted on the deletion path.
//!
//! # Probe plans
//!
//! Joining an atom used to mean scanning its whole relation once per
//! binding environment. Compilation now analyzes, per body atom, which of
//! its columns are already bound when the join runs — constants, variables
//! bound by the trigger atom, by earlier atoms, or by earlier assignments —
//! and records the result as a fixed [`ProbePlan`]. At runtime the plan
//! resolves its bound columns against the environment and probes the
//! relation's secondary index for that signature (see [`crate::index`]),
//! touching only the matching tuples; the full scan survives solely as the
//! fallback for atoms with no bound columns (a genuine cross product) or
//! relations without the declared index. [`CompiledStrand::index_requirements`]
//! exposes every signature a strand needs so stores build each index once
//! per program, not per join.

use crate::expr::{eval, eval_bool, Bindings, EvalError};
use crate::store::Store;
use crate::tuple::{Tuple, TupleDelta};
use ndlog_lang::seminaive::DeltaRule;
use ndlog_lang::{Atom, Literal, Term, Value};
use ndlog_net::NodeAddr;
use std::collections::BTreeSet;

/// A derivation produced by firing a strand.
#[derive(Debug, Clone, PartialEq)]
pub struct Derivation {
    /// The derived (or un-derived) head tuple.
    pub delta: TupleDelta,
    /// Where the head tuple lives: the value of its location specifier.
    /// `None` when the first head field is not an address (possible in
    /// plain-Datalog test programs).
    pub location: Option<NodeAddr>,
}

/// How one bound column of a probe obtains its value at runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnSource {
    /// The atom carries a constant in this column.
    Const(Value),
    /// The column's variable is bound by the environment (trigger atom,
    /// an earlier atom, or an earlier assignment).
    Var(String),
}

/// A precompiled access path for one body atom: the columns that are
/// provably bound when the join runs, and how to resolve each one.
///
/// `cols` is sorted ascending and `sources` is parallel to it, so the
/// resolved values line up with the relation's index on the same
/// signature.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbePlan {
    /// Sorted bound-column indexes (the index signature to probe).
    pub cols: Vec<usize>,
    /// Value source per bound column, parallel to `cols`.
    pub sources: Vec<ColumnSource>,
}

pub use crate::index::JoinStats;

/// A compiled rule strand.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledStrand {
    rule: DeltaRule,
    /// Per body literal: the probe plan for non-trigger atoms with at least
    /// one bound column, `None` for the trigger, non-atom literals and
    /// genuinely unbound atoms.
    plans: Vec<Option<ProbePlan>>,
    /// The slot-compiled twin of the rule, used by the batch-delta path
    /// ([`CompiledStrand::fire_batch`]).
    batch: crate::batch::BatchPlan,
}

impl CompiledStrand {
    /// Compile a delta rule into a strand, deriving a probe plan for every
    /// non-trigger body atom and a slot-compiled batch plan over the same
    /// plans.
    pub fn new(rule: DeltaRule) -> Self {
        let plans = compile_probe_plans(&rule);
        let batch = crate::batch::compile(&rule, &plans);
        CompiledStrand { rule, plans, batch }
    }

    /// The probe plans, parallel to the rule's body literals (useful for
    /// inspection in tests and planners).
    pub fn probe_plans(&self) -> &[Option<ProbePlan>] {
        &self.plans
    }

    /// Every (relation, bound-column signature) this strand probes. Stores
    /// declare these up front so each index is built once per program.
    pub fn index_requirements(&self) -> Vec<(String, Vec<usize>)> {
        let mut out = Vec::new();
        for (idx, plan) in self.plans.iter().enumerate() {
            let (Some(plan), Some(Literal::Atom(atom))) = (plan, self.rule.rule.body.get(idx))
            else {
                continue;
            };
            out.push((atom.name.clone(), plan.cols.clone()));
        }
        out
    }

    /// The (trigger relation, bound-column signature) that DRed
    /// re-derivation ([`crate::dred::rederive_inserts`]) probes when the
    /// head relation's primary key lives in `head_key_columns`: the
    /// trigger-atom columns pinned by binding those head columns. The
    /// candidates come from the planner's precomputed
    /// `DeltaRule::head_bound_trigger_cols`; this narrows them to the
    /// columns whose variables the key actually mentions. `None` when the
    /// key binds no trigger column (re-derivation then falls back to a
    /// scan of the trigger relation).
    pub fn rederive_requirement(&self, head_key_columns: &[usize]) -> Option<(String, Vec<usize>)> {
        let head = &self.rule.rule.head;
        let mut key_vars: BTreeSet<&str> = BTreeSet::new();
        for &col in head_key_columns {
            if let Some(Term::Var(v)) = head.args.get(col) {
                key_vars.insert(v.name.as_str());
            }
        }
        let Some(Literal::Atom(trigger_atom)) = self.rule.rule.body.get(self.rule.trigger) else {
            return None;
        };
        let cols: Vec<usize> = self
            .rule
            .head_bound_trigger_cols
            .iter()
            .copied()
            .filter(|&col| {
                matches!(trigger_atom.args.get(col),
                    Some(Term::Var(v)) if key_vars.contains(v.name.as_str()))
            })
            .collect();
        if cols.is_empty() {
            None
        } else {
            Some((self.rule.trigger_relation.clone(), cols))
        }
    }

    /// The strand identifier (e.g. `sp2b-1`).
    pub fn id(&self) -> &str {
        &self.rule.strand_id
    }

    /// The relation whose deltas trigger this strand.
    pub fn trigger_relation(&self) -> &str {
        &self.rule.trigger_relation
    }

    /// The label of the rule this strand implements.
    pub fn rule_label(&self) -> &str {
        &self.rule.rule.label
    }

    /// The head relation this strand derives.
    pub fn head_relation(&self) -> &str {
        &self.rule.rule.head.name
    }

    /// The underlying delta rule.
    pub fn delta_rule(&self) -> &DeltaRule {
        &self.rule
    }

    /// Fire the strand with a trigger delta.
    ///
    /// `seq_limit` bounds which stored tuples the joins may see: pipelined
    /// semi-naive evaluation passes the trigger tuple's timestamp so that
    /// joins only match "same or older" tuples (Section 3.3.2, the
    /// book-keeping that guarantees no repeated inferences); the
    /// unrestricted evaluators pass `u64::MAX`.
    pub fn fire(
        &self,
        store: &Store,
        trigger: &TupleDelta,
        seq_limit: u64,
    ) -> Result<Vec<Derivation>, EvalError> {
        let mut stats = JoinStats::default();
        self.fire_counted(store, trigger, seq_limit, &mut stats)
    }

    /// [`CompiledStrand::fire`] with join accounting: probe/scan/examined
    /// counters are accumulated into `stats`.
    ///
    /// Nothing in production fires through this tuple-at-a-time path any
    /// more (every engine fires batches); it stays as the per-strand
    /// reference the batch paths are tested and benchmarked against.
    pub fn fire_counted(
        &self,
        store: &Store,
        trigger: &TupleDelta,
        seq_limit: u64,
        stats: &mut JoinStats,
    ) -> Result<Vec<Derivation>, EvalError> {
        debug_assert_eq!(trigger.relation, self.rule.trigger_relation);
        let rule = &self.rule.rule;
        let Literal::Atom(trigger_atom) = &rule.body[self.rule.trigger] else {
            return Ok(Vec::new());
        };

        // Bind the trigger atom against the delta tuple.
        let mut initial = Bindings::new();
        if !bind_atom(trigger_atom, &trigger.tuple, &mut initial) {
            return Ok(Vec::new());
        }

        // Process the remaining literals in body order.
        let mut envs = vec![initial];
        for (idx, literal) in rule.body.iter().enumerate() {
            if idx == self.rule.trigger {
                continue;
            }
            if envs.is_empty() {
                return Ok(Vec::new());
            }
            match literal {
                Literal::Atom(atom) => {
                    envs = probe_atom(
                        store,
                        atom,
                        self.plans[idx].as_ref(),
                        &envs,
                        seq_limit,
                        stats,
                    );
                }
                Literal::Assign(assign) => {
                    let mut next = Vec::with_capacity(envs.len());
                    for mut env in envs {
                        let value = eval(&assign.expr, &env)?;
                        match env.get(&assign.var) {
                            Some(existing) if *existing == value => next.push(env),
                            Some(_) => {} // bound to a different value: drop
                            None => {
                                env.insert(assign.var.clone(), value);
                                next.push(env);
                            }
                        }
                    }
                    envs = next;
                }
                Literal::Filter(expr) => {
                    let mut next = Vec::with_capacity(envs.len());
                    for env in envs {
                        if eval_bool(expr, &env)? {
                            next.push(env);
                        }
                    }
                    envs = next;
                }
            }
        }

        // Project the head for every surviving binding.
        let mut out = Vec::with_capacity(envs.len());
        for env in envs {
            let tuple = project_head(&rule.head, &env)?;
            let location = tuple.location();
            out.push(Derivation {
                delta: TupleDelta {
                    relation: rule.head.name.clone(),
                    tuple,
                    sign: trigger.sign,
                },
                location,
            });
        }
        Ok(out)
    }

    /// Fire the strand with a whole batch of trigger deltas through the
    /// slot-compiled plan and flat reusable buffers of [`crate::batch`],
    /// with **key-grouped probe sharing**: each distinct probe key of the
    /// batch is looked up once per atom and the match set broadcast to
    /// every same-key trigger. Per trigger, the derivations (grouped in
    /// `out`) are identical to calling [`CompiledStrand::fire_counted`]
    /// with that trigger and its `seq_limit` against the same store, and
    /// so are the *logical* join statistics (`logical_probes`, `scans`,
    /// `tuples_examined`); only `distinct_probes` shrinks to the number of
    /// bucket lookups actually executed. See the [`crate::batch`] module
    /// docs for the exact equivalence contract.
    pub fn fire_batch(
        &self,
        store: &Store,
        triggers: &[crate::batch::BatchTrigger],
        stats: &mut JoinStats,
        scratch: &mut crate::batch::BatchScratch,
        out: &mut crate::batch::BatchOutput,
    ) -> Result<(), EvalError> {
        debug_assert!(triggers
            .iter()
            .all(|t| t.delta.relation == self.rule.trigger_relation));
        self.batch
            .fire_batch(store, triggers, stats, scratch, out, true, None)
    }

    /// [`CompiledStrand::fire_batch`] with a cross-rule probe cache
    /// ([`crate::subplan`]): probe stages whose `(relation, cols)`
    /// signature is armed in `cache` fetch their candidates through it,
    /// so a `(relation, cols, key)` bucket lookup executes once per round
    /// no matter how many strands share it. Derivations and the logical
    /// join statistics are identical to [`CompiledStrand::fire_batch`];
    /// only `distinct_probes` shrinks further (cache hits execute no
    /// lookup), and single-trigger batches also take the grouped arm so
    /// their probes participate in the sharing.
    pub fn fire_batch_shared<'r>(
        &self,
        store: &'r Store,
        triggers: &[crate::batch::BatchTrigger],
        stats: &mut JoinStats,
        scratch: &mut crate::batch::BatchScratch,
        out: &mut crate::batch::BatchOutput,
        cache: &mut crate::subplan::ProbeCache<'r>,
    ) -> Result<(), EvalError> {
        debug_assert!(triggers
            .iter()
            .all(|t| t.delta.relation == self.rule.trigger_relation));
        self.batch
            .fire_batch(store, triggers, stats, scratch, out, true, Some(cache))
    }

    /// [`CompiledStrand::fire_batch`] without probe grouping: one index
    /// lookup per trigger per atom. No engine fires through it; it is the
    /// differential reference in tests — its `JoinStats` (including
    /// `distinct_probes`) equal the tuple-at-a-time path's exactly — and
    /// what the micro bench's `indexed_batch_us_per_trigger` measures.
    pub fn fire_batch_ungrouped(
        &self,
        store: &Store,
        triggers: &[crate::batch::BatchTrigger],
        stats: &mut JoinStats,
        scratch: &mut crate::batch::BatchScratch,
        out: &mut crate::batch::BatchOutput,
    ) -> Result<(), EvalError> {
        debug_assert!(triggers
            .iter()
            .all(|t| t.delta.relation == self.rule.trigger_relation));
        self.batch
            .fire_batch(store, triggers, stats, scratch, out, false, None)
    }
}

/// Bind an atom's terms against a concrete tuple, extending `env`.
/// Returns false if the tuple does not match (wrong arity, constant
/// mismatch, or inconsistent repeated variables).
pub fn bind_atom(atom: &Atom, tuple: &Tuple, env: &mut Bindings) -> bool {
    if atom.arity() != tuple.arity() {
        return false;
    }
    for (term, value) in atom.args.iter().zip(tuple.values()) {
        match term {
            Term::Const(c) => {
                if c != value {
                    return false;
                }
            }
            Term::Var(v) => match env.get(&v.name) {
                Some(bound) if bound != value => return false,
                Some(_) => {}
                None => {
                    env.insert(v.name.clone(), value.clone());
                }
            },
            Term::Agg(_) => return false,
        }
    }
    true
}

/// Compile the probe plans for a delta rule: walk the body in firing order
/// tracking which variables are bound, and record the bound columns of
/// every non-trigger atom.
fn compile_probe_plans(rule: &DeltaRule) -> Vec<Option<ProbePlan>> {
    let body = &rule.rule.body;
    let mut plans: Vec<Option<ProbePlan>> = vec![None; body.len()];
    let mut bound: BTreeSet<String> = BTreeSet::new();
    if let Some(Literal::Atom(trigger_atom)) = body.get(rule.trigger) {
        collect_vars(trigger_atom, &mut bound);
    }
    for (idx, literal) in body.iter().enumerate() {
        if idx == rule.trigger {
            continue;
        }
        match literal {
            Literal::Atom(atom) => {
                let mut cols = Vec::new();
                let mut sources = Vec::new();
                for (i, term) in atom.args.iter().enumerate() {
                    match term {
                        Term::Const(c) => {
                            cols.push(i);
                            sources.push(ColumnSource::Const(c.clone()));
                        }
                        Term::Var(v) if bound.contains(&v.name) => {
                            cols.push(i);
                            sources.push(ColumnSource::Var(v.name.clone()));
                        }
                        // Unbound variables (including the first occurrence
                        // of a variable repeated within this atom) and
                        // aggregate terms are matched residually by
                        // `bind_atom`.
                        Term::Var(_) | Term::Agg(_) => {}
                    }
                }
                if !cols.is_empty() {
                    plans[idx] = Some(ProbePlan { cols, sources });
                }
                collect_vars(atom, &mut bound);
            }
            Literal::Assign(assign) => {
                bound.insert(assign.var.clone());
            }
            Literal::Filter(_) => {}
        }
    }
    plans
}

/// Add every variable an atom mentions to `bound`.
fn collect_vars(atom: &Atom, bound: &mut BTreeSet<String>) {
    for term in &atom.args {
        if let Term::Var(v) = term {
            bound.insert(v.name.clone());
        }
    }
}

/// Join an atom against the store for every environment, producing the
/// extended environments. Uses the precompiled probe plan (index probe on
/// the bound-column signature) when available, falling back to a residual
/// scan otherwise.
fn probe_atom(
    store: &Store,
    atom: &Atom,
    plan: Option<&ProbePlan>,
    envs: &[Bindings],
    seq_limit: u64,
    stats: &mut JoinStats,
) -> Vec<Bindings> {
    let Some(relation) = store.relation(&atom.name) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut key: Vec<Value> = Vec::new();
    for env in envs {
        let resolved = match plan {
            Some(plan) => {
                key.clear();
                plan.sources.iter().all(|source| match source {
                    ColumnSource::Const(c) => {
                        key.push(c.clone());
                        true
                    }
                    ColumnSource::Var(name) => match env.get(name) {
                        Some(v) => {
                            key.push(v.clone());
                            true
                        }
                        None => false,
                    },
                })
            }
            None => false,
        };
        // With a resolved plan, probe (or residual-scan) on its bound
        // columns; otherwise — no bound columns, or an unresolvable plan,
        // which compilation rules out — fall back to a full scan, with
        // `bind_atom` enforcing all residual constraints either way.
        let cols: &[usize] = if resolved {
            &plan.expect("resolved implies a plan").cols
        } else {
            key.clear();
            &[]
        };
        for candidate in relation.lookup(cols, &key, seq_limit, stats) {
            let mut extended = env.clone();
            if bind_atom(atom, &candidate.tuple, &mut extended) {
                out.push(extended);
            }
        }
    }
    out
}

/// Project a head atom into a tuple under the given bindings.
pub fn project_head(head: &Atom, env: &Bindings) -> Result<Tuple, EvalError> {
    let mut values = Vec::with_capacity(head.arity());
    for term in &head.args {
        match term {
            Term::Const(c) => values.push(c.clone()),
            Term::Var(v) => values.push(
                env.get(&v.name)
                    .cloned()
                    .ok_or_else(|| EvalError::UnboundVariable(v.name.clone()))?,
            ),
            Term::Agg(_) => {
                return Err(EvalError::TypeMismatch {
                    context: "aggregate heads are maintained by AggregateView, not strands".into(),
                })
            }
        }
    }
    Ok(Tuple::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationSchema;
    use ndlog_lang::seminaive::delta_rewrite_full;
    use ndlog_lang::{parse_program, Value};

    fn addr(i: u32) -> Value {
        Value::addr(i)
    }

    /// Build a store + strands for a small program.
    fn setup(src: &str) -> (Store, Vec<CompiledStrand>) {
        let program = parse_program(src).unwrap();
        let store = Store::for_program(&program);
        let strands = delta_rewrite_full(&program)
            .into_iter()
            .map(CompiledStrand::new)
            .collect();
        (store, strands)
    }

    const ONE_HOP: &str = r#"
        sp1 path(@S,@D,@D,P,C) :- #link(@S,@D,C),
            P := f_cons(S, f_cons(D, nil)).
    "#;

    #[test]
    fn one_hop_path_derivation() {
        let (store, strands) = setup(ONE_HOP);
        let strand = &strands[0];
        assert_eq!(strand.trigger_relation(), "link");
        assert_eq!(strand.head_relation(), "path");

        let link = TupleDelta::insert("link", Tuple::new(vec![addr(0), addr(1), Value::Int(5)]));
        let derivations = strand.fire(&store, &link, u64::MAX).unwrap();
        assert_eq!(derivations.len(), 1);
        let d = &derivations[0];
        assert_eq!(d.delta.relation, "path");
        assert_eq!(d.location, Some(NodeAddr(0)));
        let t = &d.delta.tuple;
        assert_eq!(t.get(0), Some(&addr(0)));
        assert_eq!(t.get(1), Some(&addr(1)));
        assert_eq!(t.get(2), Some(&addr(1)));
        assert_eq!(t.get(3), Some(&Value::list(vec![addr(0), addr(1)])));
        assert_eq!(t.get(4), Some(&Value::Int(5)));
    }

    #[test]
    fn deletion_trigger_produces_deletion_derivation() {
        let (store, strands) = setup(ONE_HOP);
        let link = TupleDelta::delete("link", Tuple::new(vec![addr(0), addr(1), Value::Int(5)]));
        let derivations = strands[0].fire(&store, &link, u64::MAX).unwrap();
        assert_eq!(derivations.len(), 1);
        assert_eq!(derivations[0].delta.sign, crate::tuple::Sign::Delete);
    }

    const TWO_HOP: &str = r#"
        sp2 path(@S,@D,@Z,P,C) :- #link(@S,@Z,C1), path(@Z,@D,@Z2,P2,C2),
            f_member(P2, S) == 0, C := C1 + C2, P := f_cons(S, P2).
    "#;

    #[test]
    fn join_against_stored_relation() {
        let (mut store, strands) = setup(TWO_HOP);
        // Store a path from node 1 to node 2.
        let p12 = Tuple::new(vec![
            addr(1),
            addr(2),
            addr(2),
            Value::list(vec![addr(1), addr(2)]),
            Value::Int(3),
        ]);
        store.apply(&TupleDelta::insert("path", p12));

        // A link 0 -> 1 arrives: the strand triggered by link should derive
        // the two-hop path 0 -> 2.
        let link_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "link")
            .unwrap();
        let link = TupleDelta::insert("link", Tuple::new(vec![addr(0), addr(1), Value::Int(4)]));
        let out = link_strand.fire(&store, &link, u64::MAX).unwrap();
        assert_eq!(out.len(), 1);
        let t = &out[0].delta.tuple;
        assert_eq!(t.get(0), Some(&addr(0)));
        assert_eq!(t.get(1), Some(&addr(2)));
        assert_eq!(t.get(4), Some(&Value::Int(7)));
        assert_eq!(
            t.get(3),
            Some(&Value::list(vec![addr(0), addr(1), addr(2)]))
        );
        assert_eq!(out[0].location, Some(NodeAddr(0)));
    }

    #[test]
    fn cycle_filter_prunes_matches() {
        let (mut store, strands) = setup(TWO_HOP);
        // Path 1 -> 0 that already contains node 0.
        let p10 = Tuple::new(vec![
            addr(1),
            addr(0),
            addr(0),
            Value::list(vec![addr(1), addr(0)]),
            Value::Int(3),
        ]);
        store.apply(&TupleDelta::insert("path", p10));
        let link_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "link")
            .unwrap();
        // link 0 -> 1 would close the cycle 0 -> 1 -> 0; f_member filters it.
        let link = TupleDelta::insert("link", Tuple::new(vec![addr(0), addr(1), Value::Int(4)]));
        let out = link_strand.fire(&store, &link, u64::MAX).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn path_trigger_joins_stored_links() {
        let (mut store, strands) = setup(TWO_HOP);
        store.apply(&TupleDelta::insert(
            "link",
            Tuple::new(vec![addr(0), addr(1), Value::Int(4)]),
        ));
        let path_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "path")
            .unwrap();
        let p12 = TupleDelta::insert(
            "path",
            Tuple::new(vec![
                addr(1),
                addr(2),
                addr(2),
                Value::list(vec![addr(1), addr(2)]),
                Value::Int(3),
            ]),
        );
        let out = path_strand.fire(&store, &p12, u64::MAX).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].delta.tuple.get(4), Some(&Value::Int(7)));
    }

    #[test]
    fn seq_limit_hides_newer_tuples() {
        let (mut store, strands) = setup(TWO_HOP);
        let link_effect = store.apply(&TupleDelta::insert(
            "link",
            Tuple::new(vec![addr(0), addr(1), Value::Int(4)]),
        ));
        // The path tuple arrives *after* the link.
        let p12 = TupleDelta::insert(
            "path",
            Tuple::new(vec![
                addr(1),
                addr(2),
                addr(2),
                Value::list(vec![addr(1), addr(2)]),
                Value::Int(3),
            ]),
        );
        store.apply(&p12);

        let link_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "link")
            .unwrap();
        let link = TupleDelta::insert("link", Tuple::new(vec![addr(0), addr(1), Value::Int(4)]));
        // Firing with the link's own (older) timestamp must not see the
        // newer path tuple — that derivation belongs to the path-triggered
        // strand, which is exactly how PSN avoids duplicate inferences.
        let out = link_strand.fire(&store, &link, link_effect.seq).unwrap();
        assert!(out.is_empty());
        let out = link_strand.fire(&store, &link, u64::MAX).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn constant_argument_filters_trigger() {
        let (store, strands) = setup("r1 hit(@S) :- probe(@S, 7).");
        let strand = &strands[0];
        let ok = TupleDelta::insert("probe", Tuple::new(vec![addr(3), Value::Int(7)]));
        assert_eq!(strand.fire(&store, &ok, u64::MAX).unwrap().len(), 1);
        let miss = TupleDelta::insert("probe", Tuple::new(vec![addr(3), Value::Int(8)]));
        assert!(strand.fire(&store, &miss, u64::MAX).unwrap().is_empty());
        let wrong_arity = TupleDelta::insert("probe", Tuple::new(vec![addr(3)]));
        assert!(strand
            .fire(&store, &wrong_arity, u64::MAX)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let (store, strands) = setup("r1 selfloop(@S) :- edge(@S, @S).");
        let strand = &strands[0];
        let hit = TupleDelta::insert("edge", Tuple::new(vec![addr(1), addr(1)]));
        assert_eq!(strand.fire(&store, &hit, u64::MAX).unwrap().len(), 1);
        let miss = TupleDelta::insert("edge", Tuple::new(vec![addr(1), addr(2)]));
        assert!(strand.fire(&store, &miss, u64::MAX).unwrap().is_empty());
    }

    #[test]
    fn assignment_conflict_drops_binding() {
        // C is bound by the atom and then re-asserted by an assignment; a
        // mismatch must drop the derivation, a match must keep it.
        let (store, strands) = setup("r1 out(@S, C) :- q(@S, C), C := 5.");
        let strand = &strands[0];
        let hit = TupleDelta::insert("q", Tuple::new(vec![addr(0), Value::Int(5)]));
        assert_eq!(strand.fire(&store, &hit, u64::MAX).unwrap().len(), 1);
        let miss = TupleDelta::insert("q", Tuple::new(vec![addr(0), Value::Int(6)]));
        assert!(strand.fire(&store, &miss, u64::MAX).unwrap().is_empty());
    }

    #[test]
    fn probe_plans_capture_bound_columns() {
        let (_, strands) = setup(TWO_HOP);
        let link_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "link")
            .unwrap();
        // Triggered by #link(@S,@Z,C1): the path(@Z,@D,@Z2,P2,C2) atom has
        // exactly its first column bound (Z), everything else free.
        let reqs = link_strand.index_requirements();
        assert_eq!(reqs, vec![("path".to_string(), vec![0])]);
        let plan = link_strand
            .probe_plans()
            .iter()
            .flatten()
            .next()
            .expect("the path atom has a plan");
        assert_eq!(plan.cols, vec![0]);
        assert_eq!(plan.sources, vec![ColumnSource::Var("Z".to_string())]);

        // Triggered by path, the #link(@S,@Z,C1) atom has column 1 bound.
        let path_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "path")
            .unwrap();
        assert_eq!(
            path_strand.index_requirements(),
            vec![("link".to_string(), vec![1])]
        );
    }

    #[test]
    fn probe_plans_include_constants_and_assigned_vars() {
        let (_, strands) = setup("r1 out(@S) :- q(@S, X), Y := X + 1, w(@S, Y, 7).");
        let q_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "q")
            .unwrap();
        let reqs = q_strand.index_requirements();
        // w's columns: 0 (S, bound by trigger), 1 (Y, bound by the
        // assignment), 2 (the constant 7).
        assert_eq!(reqs, vec![("w".to_string(), vec![0, 1, 2])]);
    }

    #[test]
    fn probed_join_matches_scan_results() {
        // The same join fired with and without the index declared must
        // produce identical derivations (the index is purely an access
        // path).
        let (mut store, strands) = setup(TWO_HOP);
        for d in 2..30u32 {
            store.apply(&TupleDelta::insert(
                "path",
                Tuple::new(vec![
                    addr(1),
                    addr(d),
                    addr(d),
                    Value::list(vec![addr(1), addr(d)]),
                    Value::Int(3),
                ]),
            ));
        }
        let link_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "link")
            .unwrap();
        let link = TupleDelta::insert("link", Tuple::new(vec![addr(0), addr(1), Value::Int(4)]));

        let mut scan_stats = JoinStats::default();
        let scanned = link_strand
            .fire_counted(&store, &link, u64::MAX, &mut scan_stats)
            .unwrap();
        assert!(scan_stats.scans > 0 && scan_stats.logical_probes == 0);

        store.declare_indexes(strands.iter());
        let mut probe_stats = JoinStats::default();
        let probed = link_strand
            .fire_counted(&store, &link, u64::MAX, &mut probe_stats)
            .unwrap();
        assert_eq!(scanned, probed);
        assert_eq!(probed.len(), 28);
        assert!(probe_stats.logical_probes > 0 && probe_stats.scans == 0);
        assert_eq!(
            probe_stats.logical_probes, probe_stats.distinct_probes,
            "tuple-at-a-time probes are never shared"
        );
        assert!(
            probe_stats.tuples_examined <= scan_stats.tuples_examined,
            "probing must not examine more than scanning"
        );
    }

    #[test]
    fn fire_batch_matches_fire_per_trigger() {
        use crate::batch::{BatchOutput, BatchScratch, BatchTrigger};
        let (mut store, strands) = setup(TWO_HOP);
        store.declare_indexes(strands.iter());
        for d in 2..12u32 {
            store.apply(&TupleDelta::insert(
                "path",
                Tuple::new(vec![
                    addr(1),
                    addr(d),
                    addr(d),
                    Value::list(vec![addr(1), addr(d)]),
                    Value::Int(3),
                ]),
            ));
        }
        let link_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "link")
            .unwrap();
        // A matching insert, a deletion, a dead-end link and a filtered
        // (cycle-closing) one, each with its own visibility limit.
        let deltas = [
            (
                TupleDelta::insert("link", Tuple::new(vec![addr(0), addr(1), Value::Int(4)])),
                u64::MAX,
            ),
            (
                TupleDelta::delete("link", Tuple::new(vec![addr(7), addr(1), Value::Int(9)])),
                u64::MAX,
            ),
            (
                TupleDelta::insert("link", Tuple::new(vec![addr(0), addr(99), Value::Int(1)])),
                u64::MAX,
            ),
            (
                TupleDelta::insert("link", Tuple::new(vec![addr(0), addr(1), Value::Int(4)])),
                5,
            ),
        ];
        let triggers: Vec<BatchTrigger> = deltas
            .iter()
            .map(|(delta, seq_limit)| BatchTrigger {
                delta,
                seq_limit: *seq_limit,
            })
            .collect();
        let mut batch_stats = JoinStats::default();
        let mut scratch = BatchScratch::default();
        let mut out = BatchOutput::default();
        link_strand
            .fire_batch(&store, &triggers, &mut batch_stats, &mut scratch, &mut out)
            .unwrap();

        let mut tuple_stats = JoinStats::default();
        for (i, (delta, seq_limit)) in deltas.iter().enumerate() {
            let reference = link_strand
                .fire_counted(&store, delta, *seq_limit, &mut tuple_stats)
                .unwrap();
            assert_eq!(
                out.for_trigger(i),
                &reference[..],
                "trigger {i} derivations diverge"
            );
        }
        // Grouped firing preserves the logical accounting exactly; only
        // the executed bucket lookups shrink (three of the four triggers
        // share the probe key Z = 1).
        assert_eq!(batch_stats.logical_probes, tuple_stats.logical_probes);
        assert_eq!(batch_stats.scans, tuple_stats.scans);
        assert_eq!(batch_stats.tuples_examined, tuple_stats.tuples_examined);
        assert_eq!(tuple_stats.distinct_probes, tuple_stats.logical_probes);
        assert_eq!(
            batch_stats.distinct_probes, 2,
            "four triggers over two distinct keys probe twice"
        );

        // The ungrouped batch path matches the tuple path's JoinStats
        // bit-for-bit, derivations included.
        let mut ungrouped_stats = JoinStats::default();
        let mut ungrouped_out = BatchOutput::default();
        link_strand
            .fire_batch_ungrouped(
                &store,
                &triggers,
                &mut ungrouped_stats,
                &mut scratch,
                &mut ungrouped_out,
            )
            .unwrap();
        assert_eq!(
            ungrouped_stats, tuple_stats,
            "ungrouped accounting diverges"
        );
        for i in 0..deltas.len() {
            assert_eq!(out.for_trigger(i), ungrouped_out.for_trigger(i));
        }
        assert!(!out.for_trigger(0).is_empty());
        // Trigger 0 extends all 10 stored paths; trigger 1 (from node 7)
        // extends 9 — the cycle filter drops path(1, 7).
        assert_eq!(out.for_trigger(0).len(), 10);
        assert_eq!(out.for_trigger(1).len(), 9);
        assert!(out.for_trigger(2).is_empty(), "dead-end link joins nothing");
        assert_eq!(out.for_trigger(3).len(), 5, "seq limit hides newer paths");
    }

    #[test]
    fn shared_key_batch_probes_the_index_exactly_once() {
        use crate::batch::{BatchOutput, BatchScratch, BatchTrigger};
        let (mut store, strands) = setup(TWO_HOP);
        store.declare_indexes(strands.iter());
        for d in 2..7u32 {
            store.apply(&TupleDelta::insert(
                "path",
                Tuple::new(vec![
                    addr(1),
                    addr(d),
                    addr(d),
                    Value::list(vec![addr(1), addr(d)]),
                    Value::Int(3),
                ]),
            ));
        }
        let link_strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "link")
            .unwrap();
        // N triggers, every one probing the same join key (Z = 1).
        const N: usize = 32;
        let deltas: Vec<TupleDelta> = (0..N as u32)
            .map(|s| {
                TupleDelta::insert(
                    "link",
                    Tuple::new(vec![addr(100 + s), addr(1), Value::Int(1)]),
                )
            })
            .collect();
        let triggers: Vec<BatchTrigger> = deltas
            .iter()
            .map(|delta| BatchTrigger {
                delta,
                seq_limit: u64::MAX,
            })
            .collect();
        let mut stats = JoinStats::default();
        let mut scratch = BatchScratch::default();
        let mut out = BatchOutput::default();
        link_strand
            .fire_batch(&store, &triggers, &mut stats, &mut scratch, &mut out)
            .unwrap();
        assert_eq!(
            stats.distinct_probes, 1,
            "one shared key must cost exactly one index probe"
        );
        assert_eq!(stats.logical_probes, N, "logical accounting is per trigger");
        // Every member received the full broadcast match set, identical to
        // firing it alone.
        for (i, delta) in deltas.iter().enumerate() {
            let reference = link_strand.fire(&store, delta, u64::MAX).unwrap();
            assert_eq!(out.for_trigger(i), &reference[..]);
            assert_eq!(out.for_trigger(i).len(), 5);
        }
    }

    #[test]
    fn fire_batch_reports_unbound_head_variables() {
        use crate::batch::{BatchOutput, BatchScratch, BatchTrigger};
        let (store, strands) = setup("r1 out(@S, X) :- q(@S, C).");
        let d = TupleDelta::insert("q", Tuple::new(vec![addr(0), Value::Int(1)]));
        let triggers = [BatchTrigger {
            delta: &d,
            seq_limit: u64::MAX,
        }];
        let mut stats = JoinStats::default();
        let mut scratch = BatchScratch::default();
        let mut out = BatchOutput::default();
        assert!(matches!(
            strands[0].fire_batch(&store, &triggers, &mut stats, &mut scratch, &mut out),
            Err(EvalError::UnboundVariable(v)) if v == "X"
        ));
    }

    #[test]
    fn missing_relation_yields_no_matches() {
        let program = parse_program("r1 out(@S) :- q(@S, C), missing(@S, C).").unwrap();
        // Build a store *without* the `missing` relation.
        let mut store = Store::new();
        store.ensure(RelationSchema::new("q"));
        let strands: Vec<_> = delta_rewrite_full(&program)
            .into_iter()
            .map(CompiledStrand::new)
            .collect();
        let strand = strands
            .iter()
            .find(|s| s.trigger_relation() == "q")
            .unwrap();
        let d = TupleDelta::insert("q", Tuple::new(vec![addr(0), Value::Int(1)]));
        assert!(strand.fire(&store, &d, u64::MAX).unwrap().is_empty());
    }

    #[test]
    fn unbound_head_variable_is_an_error() {
        // Bypass validation deliberately to exercise the runtime error path.
        let (store, strands) = setup("r1 out(@S, X) :- q(@S, C).");
        let d = TupleDelta::insert("q", Tuple::new(vec![addr(0), Value::Int(1)]));
        assert!(matches!(
            strands[0].fire(&store, &d, u64::MAX),
            Err(EvalError::UnboundVariable(v)) if v == "X"
        ));
    }
}
