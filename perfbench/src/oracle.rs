//! Reference answers the workloads' outputs are checked against: Dijkstra
//! over the current link costs for the shortest-path workloads, and a
//! hop-bounded Bellman-Ford for the distance-vector program the service
//! runs.

use ndlog_net::NodeAddr;
use ndlog_runtime::Tuple;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Directed link costs, keyed `(src, dst)`.
pub type Links = BTreeMap<(NodeAddr, NodeAddr), f64>;

/// Costs agree within this (both sides add the same floats, usually in
/// the same order).
const EPS: f64 = 1e-9;

/// How a route set compared with its oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCheck {
    /// (source, destination) pairs compared.
    pub checked: u64,
    /// Pairs with a route that disagrees with the oracle (wrong cost,
    /// wrong place, invalid next hop, or a route the oracle says cannot
    /// exist).
    pub wrong: u64,
    /// Reachable pairs with no route.
    pub missing: u64,
    /// Wrong routes cheaper than the oracle allows (kept after the link
    /// or cost that justified them went away).
    pub cheaper: u64,
}

impl RouteCheck {
    pub fn failed(&self) -> u64 {
        self.wrong + self.missing
    }
}

/// All-pairs shortest costs (Dijkstra from every node); `INFINITY` for
/// unreachable pairs.
pub fn all_pairs(n: usize, links: &Links) -> Vec<Vec<f64>> {
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (&(s, d), &c) in links {
        adj[s.index()].push((d.index(), c));
    }
    (0..n)
        .map(|src| {
            let mut dist = vec![f64::INFINITY; n];
            dist[src] = 0.0;
            // Costs are non-negative, so their bit patterns order like
            // their values.
            let mut heap = BinaryHeap::new();
            heap.push(Reverse((0f64.to_bits(), src)));
            while let Some(Reverse((bits, u))) = heap.pop() {
                let d = f64::from_bits(bits);
                if d > dist[u] {
                    continue;
                }
                for &(v, c) in &adj[u] {
                    if d + c < dist[v] {
                        dist[v] = d + c;
                        heap.push(Reverse(((d + c).to_bits(), v)));
                    }
                }
            }
            dist
        })
        .collect()
}

/// Check `shortestPath(@S, D, P, C)` results (held at node `S`) against
/// all-pairs oracle costs.
pub fn check_shortest_paths(results: &[(NodeAddr, Tuple)], oracle: &[Vec<f64>]) -> RouteCheck {
    let n = oracle.len();
    let mut found: BTreeMap<(usize, usize), bool> = BTreeMap::new();
    let mut check = RouteCheck::default();
    for (node, tuple) in results {
        let src = tuple.get(0).and_then(|v| v.as_addr());
        let dst = tuple.get(1).and_then(|v| v.as_addr());
        let cost = tuple.get(3).and_then(|v| v.as_f64());
        let ok = match (src, dst, cost) {
            (Some(s), Some(d), Some(c)) if s == *node && s.index() < n && d.index() < n => {
                let want = oracle[s.index()][d.index()];
                if c < want - EPS {
                    check.cheaper += 1;
                }
                let pair_ok = want.is_finite() && (c - want).abs() <= EPS;
                let first = found.insert((s.index(), d.index()), pair_ok).is_none();
                pair_ok && first
            }
            _ => false,
        };
        if !ok {
            check.wrong += 1;
        }
    }
    for (s, row) in oracle.iter().enumerate() {
        for (d, want) in row.iter().enumerate() {
            if s == d {
                continue;
            }
            check.checked += 1;
            if want.is_finite() && !found.contains_key(&(s, d)) {
                check.missing += 1;
            }
        }
    }
    check
}

/// Best costs over walks of at most two links: the distance-vector
/// program run with `max_hops = 2`. Keys are `(src, dst)`; `src == dst`
/// is included (a route out and back).
pub fn two_hop_best(links: &Links) -> BTreeMap<(NodeAddr, NodeAddr), f64> {
    let mut out: BTreeMap<(NodeAddr, NodeAddr), f64> = links.clone();
    for (&(s, z), &c1) in links {
        for (&(_, d), &c2) in links.range((z, NodeAddr::new(0))..=(z, NodeAddr::new(u32::MAX))) {
            let c = c1 + c2;
            let best = out.entry((s, d)).or_insert(c);
            if c < *best {
                *best = c;
            }
        }
    }
    out
}

/// Check `bestRoute(S, D, Z, C)` rows: one row per reachable pair, with
/// the oracle's cost and a next hop `Z` that achieves it.
pub fn check_best_routes(
    rows: &[(NodeAddr, NodeAddr, NodeAddr, f64)],
    links: &Links,
    best: &BTreeMap<(NodeAddr, NodeAddr), f64>,
    only_src: Option<NodeAddr>,
) -> RouteCheck {
    let mut check = RouteCheck::default();
    let mut seen = BTreeMap::new();
    for &(s, d, z, c) in rows {
        let want = best.get(&(s, d));
        // Next hop `Z == D` is the direct link; otherwise `S -> Z -> D`.
        let via = if z == d {
            links.get(&(s, d)).copied()
        } else {
            match (links.get(&(s, z)), links.get(&(z, d))) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            }
        };
        let ok = want.is_some_and(|w| (w - c).abs() <= EPS)
            && via.is_some_and(|v| (v - c).abs() <= EPS)
            && only_src.is_none_or(|o| o == s)
            && seen.insert((s, d), ()).is_none();
        if !ok {
            check.wrong += 1;
        }
    }
    for &(s, d) in best.keys() {
        if only_src.is_some_and(|o| o != s) {
            continue;
        }
        check.checked += 1;
        if !seen.contains_key(&(s, d)) {
            check.missing += 1;
        }
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndlog_lang::Value;

    fn a(i: u32) -> NodeAddr {
        NodeAddr::new(i)
    }

    fn ring() -> Links {
        let mut links = Links::new();
        for (s, d, c) in [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 5.0), (0, 2, 3.0)] {
            links.insert((a(s), a(d)), c);
            links.insert((a(d), a(s)), c);
        }
        links
    }

    fn sp(s: u32, d: u32, c: f64) -> (NodeAddr, Tuple) {
        let t = Tuple::new(vec![
            Value::addr(s),
            Value::addr(d),
            Value::nil(),
            Value::Float(c),
        ]);
        (a(s), t)
    }

    #[test]
    fn dijkstra_oracle_accepts_exact_and_rejects_corrupted_routes() {
        let oracle = all_pairs(3, &ring());
        assert_eq!(oracle[0][2], 2.0);
        let mut good = Vec::new();
        for s in 0..3u32 {
            for d in 0..3u32 {
                if s != d {
                    good.push(sp(s, d, oracle[s as usize][d as usize]));
                }
            }
        }
        let ok = check_shortest_paths(&good, &oracle);
        assert_eq!((ok.checked, ok.failed()), (6, 0));

        let mut costly = good.clone();
        costly[1] = sp(0, 2, 3.0);
        assert_eq!(check_shortest_paths(&costly, &oracle).wrong, 1);
        let mut dropped = good.clone();
        dropped.pop();
        assert_eq!(check_shortest_paths(&dropped, &oracle).missing, 1);
        let mut misplaced = good.clone();
        misplaced[0].0 = a(2);
        assert_eq!(check_shortest_paths(&misplaced, &oracle).wrong, 1);
        let mut duplicated = good;
        duplicated.push(sp(0, 1, 1.0));
        assert_eq!(check_shortest_paths(&duplicated, &oracle).wrong, 1);
    }

    #[test]
    fn hop_bounded_oracle_accepts_exact_and_rejects_corrupted_routes() {
        let links = ring();
        let best = two_hop_best(&links);
        assert_eq!(best[&(a(0), a(2))], 2.0);
        assert_eq!(
            best[&(a(0), a(0))],
            2.0,
            "out and back over the cheapest link"
        );
        let good: Vec<_> = best
            .iter()
            .map(|(&(s, d), &c)| {
                let z = if links.get(&(s, d)) == Some(&c) {
                    d
                } else {
                    *links
                        .keys()
                        .filter(|(from, _)| *from == s)
                        .map(|(_, z)| z)
                        .find(|z| {
                            links
                                .get(&(**z, d))
                                .is_some_and(|b| links[&(s, **z)] + b == c)
                        })
                        .unwrap()
                };
                (s, d, z, c)
            })
            .collect();
        let ok = check_best_routes(&good, &links, &best, None);
        assert_eq!((ok.checked, ok.failed()), (best.len() as u64, 0));

        let mut costly = good.clone();
        costly[0].3 += 1.0;
        assert!(check_best_routes(&costly, &links, &best, None).wrong >= 1);
        let mut bad_hop = good.clone();
        let i = bad_hop
            .iter()
            .position(|r| r.0 == a(0) && r.1 == a(2))
            .unwrap();
        bad_hop[i].2 = a(2);
        assert_eq!(check_best_routes(&bad_hop, &links, &best, None).wrong, 1);
        let mut dropped = good.clone();
        dropped.pop();
        assert_eq!(check_best_routes(&dropped, &links, &best, None).missing, 1);
        let filtered: Vec<_> = good.iter().copied().filter(|r| r.0 == a(1)).collect();
        let one = check_best_routes(&filtered, &links, &best, Some(a(1)));
        assert_eq!((one.checked, one.failed()), (3, 0));
        assert_eq!(check_best_routes(&good, &links, &best, Some(a(1))).wrong, 6);
    }
}
