//! Delta tap: the subscription hook behind live queries.
//!
//! A [`DeltaTap`] records the exact *visibility transitions* of subscribed
//! relations as the evaluator maintains the fixpoint: an insert event when
//! a tuple's derivation count rises from zero, a delete event when it
//! falls back to zero. Duplicate derivations and stale deletions (count
//! changes that do not cross zero) are absorbed before they reach
//! the tap, and a keyed replacement appears as the delete of the old tuple
//! followed by the insert of the new winner — so per tuple the stream is a
//! strictly alternating `+t, -t, +t, …`, and replaying it from an empty
//! set reconstructs the relation bit-for-bit (`tests/live_deltas.rs`
//! proves this property under churn for every strategy).
//!
//! A DRed pass may over-delete a tuple and re-derive it in the same batch;
//! subscribers then see a `-t, +t` pair. That is deliberate: the tuple's
//! supporting derivations really did vanish and reappear, and collapsing
//! the pair would require withholding deltas until the batch ends, which
//! the session layer — not the tap — is free to do.
//!
//! The tap is embedded in the evaluation kernel ([`crate::Kernel`]), so
//! the [`Evaluator`](crate::Evaluator) and every `NodeEngine` record
//! through the same code: sessions subscribe an evaluator's tap to live
//! queries, and a node's tap is subscribed to its tracked relations — what
//! it records is the node's change report. With no subscribed relations it
//! reduces to one empty-set membership probe per visibility change.

use crate::tuple::TupleDelta;
use std::collections::BTreeSet;

/// Records visibility transitions of subscribed relations.
#[derive(Debug, Default, Clone)]
pub struct DeltaTap {
    relations: BTreeSet<String>,
    events: Vec<TupleDelta>,
}

impl DeltaTap {
    /// A tap with no subscriptions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start recording a relation's visibility transitions. Events are
    /// recorded from the *next* store change on; subscribers wanting the
    /// current contents first take a snapshot (the session layer does).
    pub fn subscribe(&mut self, relation: impl Into<String>) {
        self.relations.insert(relation.into());
    }

    /// Stop recording a relation. Returns whether it was subscribed.
    /// Already-recorded events are kept until [`drain`](Self::drain).
    pub fn unsubscribe(&mut self, relation: &str) -> bool {
        self.relations.remove(relation)
    }

    /// Is this relation being recorded?
    pub fn is_subscribed(&self, relation: &str) -> bool {
        self.relations.contains(relation)
    }

    /// The subscribed relations, sorted.
    pub fn subscribed(&self) -> impl Iterator<Item = &str> {
        self.relations.iter().map(String::as_str)
    }

    /// Record one visibility transition (called by the evaluator at the
    /// two points where a tuple actually enters or leaves the store).
    #[inline]
    pub fn record(&mut self, delta: &TupleDelta) {
        if !self.relations.is_empty() && self.relations.contains(&delta.relation) {
            self.events.push(delta.clone());
        }
    }

    /// Take the recorded events, in store order, leaving the tap empty.
    pub fn drain(&mut self) -> Vec<TupleDelta> {
        std::mem::take(&mut self.events)
    }

    /// Number of events recorded since the last drain.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Any events pending?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use ndlog_lang::Value;

    fn delta(rel: &str, v: i64) -> TupleDelta {
        TupleDelta::insert(rel.to_string(), Tuple::new(vec![Value::Int(v)]))
    }

    #[test]
    fn records_only_subscribed_relations() {
        let mut tap = DeltaTap::new();
        tap.subscribe("path");
        tap.record(&delta("path", 1));
        tap.record(&delta("link", 2));
        tap.record(&delta("path", 3));
        let events = tap.drain();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|d| d.relation == "path"));
        assert!(tap.is_empty());
    }

    #[test]
    fn unsubscribe_stops_recording_but_keeps_events() {
        let mut tap = DeltaTap::new();
        tap.subscribe("p");
        tap.record(&delta("p", 1));
        assert!(tap.unsubscribe("p"));
        assert!(!tap.unsubscribe("p"));
        tap.record(&delta("p", 2));
        assert_eq!(tap.drain().len(), 1);
    }

    #[test]
    fn subscription_introspection() {
        let mut tap = DeltaTap::new();
        tap.subscribe("b");
        tap.subscribe("a");
        tap.subscribe("a");
        assert!(tap.is_subscribed("a"));
        assert!(!tap.is_subscribed("c"));
        assert_eq!(tap.subscribed().collect::<Vec<_>>(), vec!["a", "b"]);
    }
}
