//! Borrowed composite keys.
//!
//! Stored relations key their tuples by the primary-key projection, and
//! aggregate views key their groups by the group-by projection. Both live
//! in hash maps keyed by [`ValueKey`], which can be searched with a
//! borrowed `&dyn KeyView`: [`Projection`] and [`Picked`] present a
//! tuple's or a probe key's columns in key order without copying them, so
//! a membership test on the per-delta path allocates nothing. A key's
//! equality and hash are defined once, on the view, so borrowed and owned
//! keys agree by construction.

use ndlog_lang::Value;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A composite key whose components can be read in key order.
pub(crate) trait KeyView {
    /// Number of key components.
    fn key_len(&self) -> usize;
    /// Component `i` (`i < key_len()`).
    fn key_at(&self, i: usize) -> &Value;
}

/// The projection of `values` onto `cols`, in `cols` order (`None`: all
/// of `values`). Panics on read when a column is out of range, like
/// [`crate::tuple::Tuple::project`].
pub(crate) struct Projection<'a> {
    pub values: &'a [Value],
    pub cols: Option<&'a [usize]>,
}

impl KeyView for Projection<'_> {
    fn key_len(&self) -> usize {
        self.cols.map_or(self.values.len(), <[usize]>::len)
    }
    fn key_at(&self, i: usize) -> &Value {
        match self.cols {
            Some(cols) => &self.values[cols[i]],
            None => &self.values[i],
        }
    }
}

/// The columns `want` of a probe key given as bound columns `cols` (sorted
/// ascending, every `want` column among them) with parallel values `key`.
pub(crate) struct Picked<'a> {
    pub cols: &'a [usize],
    pub key: &'a [Value],
    pub want: &'a [usize],
}

impl KeyView for Picked<'_> {
    fn key_len(&self) -> usize {
        self.want.len()
    }
    fn key_at(&self, i: usize) -> &Value {
        let pos = self
            .cols
            .binary_search(&self.want[i])
            .expect("picked column is bound");
        &self.key[pos]
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key_len() == other.key_len()
            && (0..self.key_len()).all(|i| self.key_at(i) == other.key_at(i))
    }
}

impl Eq for dyn KeyView + '_ {}

impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.key_len());
        for i in 0..self.key_len() {
            self.key_at(i).hash(state);
        }
    }
}

/// An owned (shared) composite key for hash maps searched with borrowed
/// [`KeyView`]s: its equality and hash are the view's.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ValueKey(pub Arc<[Value]>);

impl KeyView for ValueKey {
    fn key_len(&self) -> usize {
        self.0.len()
    }
    fn key_at(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl PartialEq for ValueKey {
    fn eq(&self, other: &Self) -> bool {
        (self as &dyn KeyView) == (other as &dyn KeyView)
    }
}

impl Eq for ValueKey {}

impl Hash for ValueKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn KeyView).hash(state);
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for ValueKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn ints(xs: &[i64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Int(x)).collect()
    }

    fn key(xs: &[i64]) -> ValueKey {
        ValueKey(ints(xs).into())
    }

    #[test]
    fn borrowed_projections_find_owned_keys() {
        let map: HashMap<ValueKey, &str> =
            [(key(&[1, 2]), "a"), (key(&[1]), "b"), (key(&[2, 0]), "c")].into();
        let row = ints(&[9, 2, 1]);
        let get = |cols: Option<&[usize]>, values: &[Value]| {
            map.get(&Projection { values, cols } as &dyn KeyView)
                .copied()
        };
        assert_eq!(get(Some(&[2, 1]), &row), Some("a"));
        assert_eq!(get(Some(&[2]), &row), Some("b"), "lengths must match");
        assert_eq!(get(Some(&[1, 2]), &row), None);
        assert_eq!(get(None, &ints(&[2, 0])), Some("c"));
        // Int and Float compare (and hash) equal, as for owned keys.
        let mixed = vec![Value::Float(1.0), Value::Int(2)];
        assert_eq!(get(None, &mixed), Some("a"));
    }

    #[test]
    fn picked_reads_key_columns_in_key_order() {
        let map: HashMap<ValueKey, u8> = [(key(&[30, 10]), 1)].into();
        // Bound columns [0, 1, 3] carry 10, 20, 30; the key is (col 3, col 0).
        let values = ints(&[10, 20, 30]);
        let view = Picked {
            cols: &[0, 1, 3],
            key: &values,
            want: &[3, 0],
        };
        assert_eq!(map.get(&view as &dyn KeyView), Some(&1));
    }
}
