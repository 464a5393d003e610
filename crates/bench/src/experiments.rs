//! One function per evaluation figure.
//!
//! Each function runs the real distributed engine over the simulated
//! testbed and returns a result struct whose `render()` method prints the
//! same rows/series the paper reports. Absolute numbers differ from the
//! paper (different hardware, a simulator instead of Emulab, a Rust engine
//! instead of C++ P2); the *shape* — which technique wins, by roughly what
//! factor, where the crossover falls — is what these experiments reproduce
//! (see EXPERIMENTS.md for the side-by-side comparison).

use crate::testbed::{Scale, SourceRoutingSetup, Testbed};
use ndlog_core::caching::QueryCache;
use ndlog_core::{sharing, EngineConfig, RefreshConfig, UpdateWorkload};
use ndlog_lang::{PassSet, Value};
use ndlog_net::sim::ms;
use ndlog_net::stats::{BandwidthSeries, NetStats};
use ndlog_net::topology::Metric;
use ndlog_net::{FaultPlan, LinkFaults, NodeAddr};
use ndlog_runtime::{Tuple, TupleDelta};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Bucket width (seconds) for per-node bandwidth series.
const BANDWIDTH_BUCKET_S: f64 = 0.5;
/// Step (seconds) for completion series.
const COMPLETION_STEP_S: f64 = 0.25;
/// Flush interval for the periodic aggregate-selections variant.
const PERIODIC_FLUSH_MS: f64 = 500.0;
/// Outbound delay used by the message-sharing experiment (the paper's
/// value).
const SHARING_DELAY_MS: f64 = 300.0;

// ---------------------------------------------------------------------------
// Figures 7 & 8 (and 9 & 10): aggregate selections.
// ---------------------------------------------------------------------------

/// The outcome of one metric's shortest-path query run.
#[derive(Debug, Clone)]
pub struct MetricRun {
    /// Which link metric the query minimized.
    pub metric: Metric,
    /// Time until all results reached their final value (seconds).
    pub convergence_seconds: f64,
    /// Aggregate communication overhead (MB).
    pub total_mb: f64,
    /// Peak average per-node bandwidth (kBps).
    pub peak_kbps: f64,
    /// Per-node bandwidth over time (kBps, 0.5 s buckets) — Figure 7 / 9.
    pub bandwidth: BandwidthSeries,
    /// Fraction of eventual results completed over time — Figure 8 / 10.
    pub completion: Vec<(f64, f64)>,
    /// Insertions pruned by aggregate selections.
    pub pruned: u64,
    /// Messages sent.
    pub messages: usize,
    /// Aggregate computation overhead across all nodes (probe/scan and
    /// tuples-examined counters), complementing the communication metrics.
    pub computation: ndlog_runtime::EvalStats,
}

/// Results of the aggregate-selections experiment (one run per metric).
#[derive(Debug, Clone)]
pub struct AggregateSelectionsResult {
    /// Whether the periodic variant was used.
    pub periodic: bool,
    /// Optimizer pass level the plans were compiled at (`--optimize`).
    pub optimizer: String,
    /// One run per metric, in the paper's order.
    pub runs: Vec<MetricRun>,
}

fn run_metric_query(
    testbed: &Testbed,
    metric: Metric,
    periodic: bool,
    passes: PassSet,
) -> MetricRun {
    let plan = Testbed::shortest_path_plan_with(metric, passes);
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    if periodic {
        config.node.periodic_flush = Some(ms(PERIODIC_FLUSH_MS));
    }
    config.max_seconds = 120.0;
    let mut engine = testbed.engine(&[plan], config);
    testbed
        .load_links(&mut engine, &Testbed::link_relation(metric), metric)
        .expect("link loading");
    engine.run_to_quiescence().expect("run");

    let relation = Testbed::shortest_path_relation(metric);
    let conv = engine.convergence(&relation);
    let bandwidth = engine
        .stats()
        .per_node_bandwidth_kbps(testbed.node_count(), BANDWIDTH_BUCKET_S);
    MetricRun {
        metric,
        convergence_seconds: conv.convergence_seconds,
        total_mb: engine.stats().total_mb(),
        peak_kbps: bandwidth.peak(),
        bandwidth,
        completion: conv.completion_series(COMPLETION_STEP_S),
        pruned: engine.pruned_total(),
        messages: engine.stats().message_count(),
        computation: engine.computation_stats(),
    }
}

/// Figures 7 and 8: the four metric queries with (eager) aggregate
/// selections, fully optimized.
pub fn aggregate_selections(scale: Scale) -> AggregateSelectionsResult {
    aggregate_selections_with(scale, PassSet::ALL)
}

/// Figures 7 and 8 at an explicit optimizer pass level.
pub fn aggregate_selections_with(scale: Scale, passes: PassSet) -> AggregateSelectionsResult {
    let testbed = Testbed::new(scale);
    AggregateSelectionsResult {
        periodic: false,
        optimizer: passes.label().to_string(),
        runs: Metric::ALL
            .iter()
            .map(|&m| run_metric_query(&testbed, m, false, passes))
            .collect(),
    }
}

/// Figures 9 and 10: the same queries with *periodic* aggregate selections.
pub fn periodic_aggregate_selections(scale: Scale) -> AggregateSelectionsResult {
    periodic_aggregate_selections_with(scale, PassSet::ALL)
}

/// Figures 9 and 10 at an explicit optimizer pass level.
pub fn periodic_aggregate_selections_with(
    scale: Scale,
    passes: PassSet,
) -> AggregateSelectionsResult {
    let testbed = Testbed::new(scale);
    AggregateSelectionsResult {
        periodic: true,
        optimizer: passes.label().to_string(),
        runs: Metric::ALL
            .iter()
            .map(|&m| run_metric_query(&testbed, m, true, passes))
            .collect(),
    }
}

impl AggregateSelectionsResult {
    /// Render the per-metric summary table plus the two series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let title = if self.periodic {
            "Figures 9 & 10: periodic aggregate selections"
        } else {
            "Figures 7 & 8: aggregate selections"
        };
        let _ = writeln!(out, "{title}");
        let _ = writeln!(out, "optimizer passes: {}", self.optimizer);
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
            "metric",
            "converge(s)",
            "MB",
            "peak kBps",
            "messages",
            "pruned",
            "probes",
            "distinct",
            "scans",
            "examined"
        );
        for r in &self.runs {
            let _ = writeln!(
                out,
                "{:<14} {:>12.2} {:>10.2} {:>12.2} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
                r.metric.label(),
                r.convergence_seconds,
                r.total_mb,
                r.peak_kbps,
                r.messages,
                r.pruned,
                r.computation.logical_probes,
                r.computation.distinct_probes,
                r.computation.scans,
                r.computation.tuples_examined
            );
        }
        let _ = writeln!(
            out,
            "\nPer-node bandwidth (kBps) over time ({}s buckets):",
            BANDWIDTH_BUCKET_S
        );
        let buckets = self
            .runs
            .iter()
            .map(|r| r.bandwidth.points.len())
            .max()
            .unwrap_or(0);
        let _ = write!(out, "{:<8}", "t(s)");
        for r in &self.runs {
            let _ = write!(out, "{:>14}", r.metric.label());
        }
        let _ = writeln!(out);
        for i in 0..buckets {
            let _ = write!(out, "{:<8.2}", (i as f64 + 0.5) * BANDWIDTH_BUCKET_S);
            for r in &self.runs {
                let v = r.bandwidth.points.get(i).copied().unwrap_or(0.0);
                let _ = write!(out, "{:>14.2}", v);
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "\n%% of eventual results completed over time:");
        let steps = self
            .runs
            .iter()
            .map(|r| r.completion.len())
            .max()
            .unwrap_or(0);
        let _ = write!(out, "{:<8}", "t(s)");
        for r in &self.runs {
            let _ = write!(out, "{:>14}", r.metric.label());
        }
        let _ = writeln!(out);
        for i in 0..steps {
            let t = i as f64 * COMPLETION_STEP_S;
            let _ = write!(out, "{:<8.2}", t);
            for r in &self.runs {
                let v = r.completion.get(i).map(|(_, c)| *c).unwrap_or(1.0);
                let _ = write!(out, "{:>14.3}", v);
            }
            let _ = writeln!(out);
        }
        out
    }

    /// The run for a given metric.
    pub fn run_for(&self, metric: Metric) -> &MetricRun {
        self.runs
            .iter()
            .find(|r| r.metric == metric)
            .expect("all metrics present")
    }
}

// ---------------------------------------------------------------------------
// Figure 11: magic sets, predicate reordering and result caching.
// ---------------------------------------------------------------------------

/// One line of Figure 11 (cumulative MB as a function of query count).
#[derive(Debug, Clone)]
pub struct MagicLine {
    /// Line label (`MS`, `MSC`, `MSC-30%`, `MSC-10%`).
    pub label: String,
    /// Cumulative megabytes after each query.
    pub cumulative_mb: Vec<f64>,
}

impl MagicLine {
    /// Cumulative MB after `count` queries.
    pub fn at(&self, count: usize) -> f64 {
        if count == 0 {
            return 0.0;
        }
        let idx = count.min(self.cumulative_mb.len());
        self.cumulative_mb[idx - 1]
    }
}

/// Results of the Figure 11 experiment.
#[derive(Debug, Clone)]
pub struct MagicSetsResult {
    /// Query counts at which the paper samples the x-axis.
    pub query_counts: Vec<usize>,
    /// Communication of the unoptimized all-pairs query (independent of the
    /// number of queries).
    pub no_ms_mb: f64,
    /// The optimized lines.
    pub lines: Vec<MagicLine>,
    /// The optimizer pipeline the per-query plans were compiled with
    /// (`Report::describe()` of the applied rewrites).
    pub optimizer: String,
}

impl MagicSetsResult {
    /// Render the table (rows = query counts, columns = lines, plus the
    /// saving of the best caching line over the unoptimized baseline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 11: aggregate communication (MB) vs number of queries"
        );
        let _ = writeln!(out, "optimizer: {}", self.optimizer);
        let _ = write!(out, "{:<10} {:>10}", "queries", "No-MS");
        for line in &self.lines {
            let _ = write!(out, " {:>10}", line.label);
        }
        let delta_line = self.lines.iter().find(|l| l.label == "MSC");
        if delta_line.is_some() {
            let _ = write!(out, " {:>10}", "Δ(MSC)");
        }
        let _ = writeln!(out);
        for &count in &self.query_counts {
            let _ = write!(out, "{:<10} {:>10.3}", count, self.no_ms_mb);
            for line in &self.lines {
                let _ = write!(out, " {:>10.3}", line.at(count));
            }
            if let Some(line) = delta_line {
                let _ = write!(out, " {:>+10.3}", self.no_ms_mb - line.at(count));
            }
            let _ = writeln!(out);
        }
        out
    }

    /// The query count (if any) at which a line's cumulative traffic first
    /// exceeds the No-MS baseline — the crossover the paper highlights at
    /// ~170 queries for the MS line.
    pub fn crossover(&self, label: &str) -> Option<usize> {
        let line = self.lines.iter().find(|l| l.label == label)?;
        line.cumulative_mb
            .iter()
            .position(|&mb| mb > self.no_ms_mb)
            .map(|idx| idx + 1)
    }
}

/// The result tuple a completed query ships back to its source:
/// `shortestPath(@D, @S, P, C)` with the path vector and hop-count cost.
/// This is the same wire artifact [`sharing::result_wire_bytes`] sizes and
/// [`QueryCache::record_result_delta`] caches, so byte accounting and cache
/// population consume one object.
fn result_delta(path: &[NodeAddr]) -> TupleDelta {
    let hops = path.len() - 1;
    TupleDelta::insert(
        "shortestPath",
        Tuple::new(vec![
            Value::Addr(*path.last().expect("non-empty path")),
            Value::Addr(path[0]),
            Value::list(path.iter().map(|&n| Value::Addr(n)).collect()),
            Value::Float(hops as f64),
        ]),
    )
}

/// Run one magic (source-routing) path query from `src` to `dst`, with
/// exploration blocked at `blocked` nodes (cache hits). The plan and the
/// magic seed tuples both come from the optimizer pipeline carried by
/// `setup` — with magic disabled the pipeline yields no seeds and the query
/// explores all-pairs. Returns the bytes spent, the discovered path (source
/// first) if any, and the exploration state (`pathDst` tuples per node)
/// used to combine partial explorations with cached suffixes.
fn run_magic_query(
    testbed: &Testbed,
    setup: &SourceRoutingSetup,
    src: NodeAddr,
    dst: NodeAddr,
    blocked: BTreeMap<String, std::collections::BTreeSet<NodeAddr>>,
) -> (f64, Option<Vec<NodeAddr>>, Vec<(NodeAddr, Tuple)>) {
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    config.blocked_propagation = blocked;
    config.max_seconds = 60.0;
    let mut engine = testbed.engine(std::slice::from_ref(&setup.plan), config);
    testbed
        .load_links(&mut engine, "link", Metric::HopCount)
        .expect("link loading");
    for (relation, values) in setup
        .pipeline
        .seeds_for("pathDst", Value::Addr(src))
        .into_iter()
        .chain(setup.pipeline.seeds_for("shortestPath", Value::Addr(dst)))
    {
        let at = values[0].as_addr().expect("magic seeds are addresses");
        engine
            .insert_base(at, &relation, Tuple::new(values))
            .expect("magic seed");
    }
    engine.run_to_quiescence().expect("run");

    let bytes = engine.stats().total_bytes() as f64;
    // The result lives at the destination: shortestPath(@D, @S, P, C).
    let path = engine
        .results("shortestPath")
        .into_iter()
        .find(|(node, t)| {
            *node == dst
                && t.get(0) == Some(&Value::Addr(dst))
                && t.get(1) == Some(&Value::Addr(src))
        })
        .and_then(|(_, t)| {
            t.get(2).and_then(|v| {
                v.as_list().map(|l| {
                    l.iter()
                        .filter_map(|x| x.as_addr())
                        .collect::<Vec<NodeAddr>>()
                })
            })
        });
    let exploration = engine.results("pathDst");
    (bytes, path, exploration)
}

/// When exploration was cut short by the cache, reconstruct the answer from
/// the best (explored prefix + cached suffix) combination over the cache
/// nodes that the exploration actually reached. The resulting path may be a
/// *false positive* (the best path through a cache node rather than the
/// best path overall), which is exactly the caching overhead the paper
/// observes for small query counts.
fn reconstruct_from_cache(
    exploration: &[(NodeAddr, Tuple)],
    cache: &mut QueryCache,
    src: NodeAddr,
    dst: NodeAddr,
) -> Option<Vec<NodeAddr>> {
    let mut best: Option<(f64, Vec<NodeAddr>)> = None;
    for node in cache.nodes_with_entry_for(dst) {
        // Did the exploration reach this cache node? Look for a pathDst
        // tuple for our source stored at it.
        let Some((_, prefix_tuple)) = exploration
            .iter()
            .find(|(n, t)| *n == node && t.get(1) == Some(&Value::Addr(src)))
        else {
            continue;
        };
        let prefix: Vec<NodeAddr> = prefix_tuple
            .get(3)
            .and_then(|v| {
                v.as_list()
                    .map(|l| l.iter().filter_map(|x| x.as_addr()).collect())
            })
            .unwrap_or_default();
        let prefix_cost = prefix_tuple
            .get(4)
            .and_then(|v| v.as_f64())
            .unwrap_or(f64::INFINITY);
        let Some(entry) = cache.lookup(node, dst) else {
            continue;
        };
        let total = prefix_cost + entry.cost;
        let mut full = prefix;
        full.extend(entry.suffix.iter().skip(1));
        match &best {
            Some((cost, _)) if *cost <= total => {}
            _ => best = Some((total, full)),
        }
    }
    best.map(|(_, p)| p)
}

/// Figure 11: magic sets + predicate reordering + result caching, with the
/// full optimizer pipeline.
///
/// `max_queries` queries with random sources; destinations drawn from the
/// full node set (MS / MSC), or from 30% / 10% of nodes (MSC-30% / MSC-10%).
pub fn magic_sets(scale: Scale, max_queries: usize, sample_counts: &[usize]) -> MagicSetsResult {
    magic_sets_with(scale, max_queries, sample_counts, PassSet::ALL)
}

/// Figure 11 with an explicit optimizer pass set. The per-query plan is
/// compiled once through [`Testbed::source_routing_setup`]; the same
/// pipeline then derives the magic seed tuples for each concrete query.
pub fn magic_sets_with(
    scale: Scale,
    max_queries: usize,
    sample_counts: &[usize],
    passes: PassSet,
) -> MagicSetsResult {
    let testbed = Testbed::new(scale);
    let n = testbed.node_count();
    let setup = Testbed::source_routing_setup(passes);

    // Baseline: the unoptimized query computes all-pairs least-hop-count.
    let no_ms_mb = {
        let plan = Testbed::shortest_path_plan(Metric::HopCount);
        let mut config = EngineConfig::default();
        config.node.aggregate_selections = true;
        config.max_seconds = 120.0;
        let mut engine = testbed.engine(&[plan], config);
        testbed
            .load_links(
                &mut engine,
                &Testbed::link_relation(Metric::HopCount),
                Metric::HopCount,
            )
            .expect("link loading");
        engine.run_to_quiescence().expect("run");
        engine.stats().total_mb()
    };

    // Query workloads: (label, fraction of nodes eligible as destinations,
    // caching enabled).
    let workloads: Vec<(&str, f64, bool)> = vec![
        ("MS", 1.0, false),
        ("MSC", 1.0, true),
        ("MSC-30%", 0.3, true),
        ("MSC-10%", 0.1, true),
    ];

    let mut lines = Vec::new();
    for (label, dst_fraction, caching) in workloads {
        let mut rng = StdRng::seed_from_u64(0xf1611);
        let dst_pool = ((n as f64 * dst_fraction).round() as usize).max(1);
        let mut cache = QueryCache::new();
        let mut cumulative = Vec::with_capacity(max_queries);
        let mut total_bytes = 0.0f64;
        for _ in 0..max_queries {
            let src = NodeAddr(rng.random_range(0..n) as u32);
            let mut dst = NodeAddr(rng.random_range(0..dst_pool) as u32);
            if dst == src {
                dst = NodeAddr(((dst.0 as usize + 1) % n) as u32);
            }
            let blocked = if caching {
                cache.blocked_map("pathDst", dst)
            } else {
                BTreeMap::new()
            };
            let (bytes, direct_path, exploration) =
                run_magic_query(&testbed, &setup, src, dst, blocked);
            total_bytes += bytes;

            // Determine the answer path: either the exploration reached the
            // destination directly, or (with caching) a cache node on the
            // way answers with its cached suffix. Account the reverse-path
            // result return, which is also what populates the caches — both
            // from the same wire-format delta the engine would ship.
            let path = if let Some(p) = direct_path {
                Some(p)
            } else if caching {
                reconstruct_from_cache(&exploration, &mut cache, src, dst)
            } else {
                None
            };
            if let Some(path) = &path {
                if path.len() >= 2 {
                    let delta = result_delta(path);
                    let header = ndlog_net::sim::SimConfig::default().header_bytes;
                    total_bytes +=
                        (path.len() - 1) as f64 * sharing::result_wire_bytes(&delta, header) as f64;
                    if caching {
                        cache.record_result_delta(&delta, 2, 3);
                    }
                }
            }
            cumulative.push(total_bytes / 1_000_000.0);
        }
        lines.push(MagicLine {
            label: label.to_string(),
            cumulative_mb: cumulative,
        });
    }

    MagicSetsResult {
        query_counts: sample_counts.to_vec(),
        no_ms_mb,
        lines,
        optimizer: setup.description,
    }
}

// ---------------------------------------------------------------------------
// Figure 12: opportunistic message sharing.
// ---------------------------------------------------------------------------

/// Results of the message-sharing experiment.
#[derive(Debug, Clone)]
pub struct SharingResult {
    /// Per-metric individual bandwidth series (Latency, Reliability, Random).
    pub individual: Vec<(Metric, BandwidthSeries, f64)>,
    /// Summed bandwidth of the three queries run separately (No-Share).
    pub no_share: BandwidthSeries,
    /// Bandwidth of the three queries run concurrently with sharing.
    pub share: BandwidthSeries,
    /// Total MB without sharing.
    pub no_share_mb: f64,
    /// Total MB with sharing.
    pub share_mb: f64,
    /// Optimizer pass level the plans were compiled at (`--optimize`).
    pub optimizer: String,
}

impl SharingResult {
    /// Relative reduction in total communication from sharing.
    pub fn reduction(&self) -> f64 {
        if self.no_share_mb == 0.0 {
            0.0
        } else {
            1.0 - self.share_mb / self.no_share_mb
        }
    }

    /// Render the summary and the bandwidth series.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 12: opportunistic message sharing (300 ms delay)"
        );
        let _ = writeln!(out, "optimizer passes: {}", self.optimizer);
        let _ = writeln!(
            out,
            "No-Share: {:.2} MB, peak {:.2} kBps | Share: {:.2} MB, peak {:.2} kBps | reduction {:.0}%",
            self.no_share_mb,
            self.no_share.peak(),
            self.share_mb,
            self.share.peak(),
            self.reduction() * 100.0
        );
        let _ = writeln!(out, "{:<8} {:>12} {:>12}", "t(s)", "No-Share", "Share");
        let buckets = self.no_share.points.len().max(self.share.points.len());
        for i in 0..buckets {
            let _ = writeln!(
                out,
                "{:<8.2} {:>12.2} {:>12.2}",
                (i as f64 + 0.5) * BANDWIDTH_BUCKET_S,
                self.no_share.points.get(i).copied().unwrap_or(0.0),
                self.share.points.get(i).copied().unwrap_or(0.0)
            );
        }
        out
    }
}

/// Figure 12: run the Latency, Reliability and Random queries individually
/// (No-Share) and concurrently with a 300 ms sharing delay (Share), fully
/// optimized.
pub fn message_sharing(scale: Scale) -> SharingResult {
    message_sharing_with(scale, PassSet::ALL)
}

/// Figure 12 at an explicit optimizer pass level.
pub fn message_sharing_with(scale: Scale, passes: PassSet) -> SharingResult {
    let testbed = Testbed::new(scale);
    let metrics = [Metric::Latency, Metric::Reliability, Metric::Random];

    // Individual runs (no sharing).
    let mut individual = Vec::new();
    let mut merged = NetStats::new();
    for &metric in &metrics {
        let plan = Testbed::shortest_path_plan_with(metric, passes);
        let mut config = EngineConfig::default();
        config.node.aggregate_selections = true;
        let mut engine = testbed.engine(&[plan], config);
        testbed
            .load_links(&mut engine, &Testbed::link_relation(metric), metric)
            .expect("link loading");
        engine.run_to_quiescence().expect("run");
        let series = engine
            .stats()
            .per_node_bandwidth_kbps(testbed.node_count(), BANDWIDTH_BUCKET_S);
        individual.push((metric, series, engine.stats().total_mb()));
        merged.merge(engine.stats());
    }
    let no_share = merged.per_node_bandwidth_kbps(testbed.node_count(), BANDWIDTH_BUCKET_S);

    // Concurrent run with sharing.
    let plans: Vec<_> = metrics
        .iter()
        .map(|&m| Testbed::shortest_path_plan_with(m, passes))
        .collect();
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    config.node.sharing_delay = Some(ms(SHARING_DELAY_MS));
    let mut engine = testbed.engine(&plans, config);
    for &metric in &metrics {
        testbed
            .load_links(&mut engine, &Testbed::link_relation(metric), metric)
            .expect("link loading");
    }
    engine.run_to_quiescence().expect("run");
    let share = engine
        .stats()
        .per_node_bandwidth_kbps(testbed.node_count(), BANDWIDTH_BUCKET_S);

    SharingResult {
        individual,
        no_share_mb: merged.total_mb(),
        share_mb: engine.stats().total_mb(),
        no_share,
        share,
        optimizer: passes.label().to_string(),
    }
}

// ---------------------------------------------------------------------------
// Figures 13 & 14: incremental evaluation under bursty updates.
// ---------------------------------------------------------------------------

/// Results of the incremental-update experiments.
#[derive(Debug, Clone)]
pub struct IncrementalResult {
    /// Per-node bandwidth over the whole run (1 s buckets).
    pub bandwidth: BandwidthSeries,
    /// Peak bandwidth during the initial from-scratch computation (kBps).
    pub initial_peak_kbps: f64,
    /// Peak bandwidth during any update burst (kBps).
    pub burst_peak_kbps: f64,
    /// MB spent on the initial computation.
    pub initial_mb: f64,
    /// Average MB per burst.
    pub avg_burst_mb: f64,
    /// Number of bursts applied.
    pub bursts: usize,
    /// Total run length (seconds).
    pub duration_seconds: f64,
    /// Time the initial computation took to converge (seconds).
    pub initial_convergence_seconds: f64,
    /// Computation overhead of the initial from-scratch run.
    pub initial_computation: ndlog_runtime::EvalStats,
    /// Additional computation overhead across all update bursts.
    pub burst_computation: ndlog_runtime::EvalStats,
    /// Optimizer pass level the plan was compiled at (`--optimize`).
    pub optimizer: String,
}

impl IncrementalResult {
    /// Burst peak as a fraction of the initial peak (the paper reports
    /// ~32%).
    pub fn peak_ratio(&self) -> f64 {
        if self.initial_peak_kbps == 0.0 {
            0.0
        } else {
            self.burst_peak_kbps / self.initial_peak_kbps
        }
    }

    /// Average burst traffic as a fraction of the initial computation (the
    /// paper reports ~26%).
    pub fn traffic_ratio(&self) -> f64 {
        if self.initial_mb == 0.0 {
            0.0
        } else {
            self.avg_burst_mb / self.initial_mb
        }
    }

    /// Render the summary and the bandwidth-over-time series.
    pub fn render(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = writeln!(out, "optimizer passes: {}", self.optimizer);
        let _ = writeln!(
            out,
            "initial: {:.2} MB, peak {:.2} kBps, converged in {:.2} s",
            self.initial_mb, self.initial_peak_kbps, self.initial_convergence_seconds
        );
        let _ = writeln!(
            out,
            "bursts: {} applied, avg {:.3} MB each, burst peak {:.2} kBps \
             ({:.0}% of initial peak, {:.0}% of initial traffic per burst)",
            self.bursts,
            self.avg_burst_mb,
            self.burst_peak_kbps,
            self.peak_ratio() * 100.0,
            self.traffic_ratio() * 100.0
        );
        let _ = writeln!(
            out,
            "computation: initial {} tuples examined ({} probes, {} distinct, \
             {} scans); bursts added {} examined ({} probes, {} distinct, {} scans)",
            self.initial_computation.tuples_examined,
            self.initial_computation.logical_probes,
            self.initial_computation.distinct_probes,
            self.initial_computation.scans,
            self.burst_computation.tuples_examined,
            self.burst_computation.logical_probes,
            self.burst_computation.distinct_probes,
            self.burst_computation.scans
        );
        let _ = writeln!(out, "{:<8} {:>14}", "t(s)", "kBps/node");
        for (i, v) in self.bandwidth.points.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<8.1} {:>14.2}",
                (i as f64 + 0.5) * self.bandwidth.bucket_seconds,
                v
            );
        }
        out
    }
}

/// Shared driver for Figures 13 and 14: run the Random-metric query to
/// convergence, then apply update bursts separated by the given intervals
/// (cycled) until `total_seconds` of simulated time have elapsed.
pub fn incremental_updates_with_intervals(
    scale: Scale,
    intervals: &[f64],
    total_seconds: f64,
) -> IncrementalResult {
    incremental_updates_with_intervals_and_passes(scale, intervals, total_seconds, PassSet::ALL)
}

/// [`incremental_updates_with_intervals`] at an explicit optimizer pass
/// level.
pub fn incremental_updates_with_intervals_and_passes(
    scale: Scale,
    intervals: &[f64],
    total_seconds: f64,
    passes: PassSet,
) -> IncrementalResult {
    assert!(!intervals.is_empty());
    let testbed = Testbed::new(scale);
    let metric = Metric::Random;
    let plan = Testbed::shortest_path_plan_with(metric, passes);
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    config.max_seconds = total_seconds + 60.0;
    let mut engine = testbed.engine(&[plan], config);
    let link_relation = Testbed::link_relation(metric);
    testbed
        .load_links(&mut engine, &link_relation, metric)
        .expect("link loading");
    engine.run_to_quiescence().expect("initial run");

    let initial_convergence = engine
        .convergence(&Testbed::shortest_path_relation(metric))
        .convergence_seconds;
    let initial_mb = engine.stats().total_mb();
    let initial_computation = engine.computation_stats();
    let initial_peak = engine
        .stats()
        .per_node_bandwidth_kbps(testbed.node_count(), 1.0)
        .peak();

    let mut workload = UpdateWorkload::paper(&testbed.links, metric, 0xf1613);
    let mut burst_mb = Vec::new();
    let mut t = engine.now_seconds().max(1.0).ceil();
    let mut interval_idx = 0;
    while t < total_seconds {
        t += intervals[interval_idx % intervals.len()];
        interval_idx += 1;
        if t >= total_seconds {
            break;
        }
        engine.run_until(t).expect("run to burst time");
        let before = engine.stats().total_mb();
        for update in workload.burst() {
            engine
                .apply_link_update(&link_relation, &update)
                .expect("apply update");
        }
        // Let the burst's consequences propagate until the next burst; the
        // traffic is attributed to this burst when we sample right before
        // the next one.
        let next = (t + intervals[interval_idx % intervals.len()]).min(total_seconds);
        engine.run_until(next).expect("run after burst");
        burst_mb.push(engine.stats().total_mb() - before);
    }
    engine.run_until(total_seconds).expect("final run");

    let bandwidth = engine
        .stats()
        .per_node_bandwidth_kbps(testbed.node_count(), 1.0);
    // Burst peak: the highest bucket after the initial convergence window.
    let skip = (initial_convergence + 1.0).ceil() as usize;
    let burst_peak = bandwidth
        .points
        .iter()
        .skip(skip)
        .copied()
        .fold(0.0, f64::max);

    IncrementalResult {
        bandwidth,
        initial_peak_kbps: initial_peak,
        burst_peak_kbps: burst_peak,
        initial_mb,
        avg_burst_mb: if burst_mb.is_empty() {
            0.0
        } else {
            burst_mb.iter().sum::<f64>() / burst_mb.len() as f64
        },
        bursts: burst_mb.len(),
        duration_seconds: total_seconds,
        initial_convergence_seconds: initial_convergence,
        initial_computation,
        burst_computation: engine.computation_stats() - initial_computation,
        optimizer: passes.label().to_string(),
    }
}

// ---------------------------------------------------------------------------
// Parallel scaling: the epoch executor across thread counts.
// ---------------------------------------------------------------------------

/// One parallel-scaling measurement: the same workload at one executor
/// thread count.
#[derive(Debug, Clone)]
pub struct ScalingRun {
    /// Executor threads (1 = epochs evaluated inline on the caller).
    pub threads: usize,
    /// Wall-clock time of the run, in seconds.
    pub wall_seconds: f64,
    /// Simulated time at quiescence, in seconds.
    pub sim_seconds: f64,
    /// Messages sent (must be identical across thread counts).
    pub messages: usize,
    /// Megabytes sent (must be identical across thread counts).
    pub total_mb: f64,
    /// Whether the run quiesced before the time cap — a `false` here means
    /// the workload was truncated and the wall/speedup numbers are not a
    /// convergence measurement.
    pub quiesced: bool,
    /// Whether this run's stores, statistics and message trace were
    /// bit-for-bit identical to the 1-thread baseline.
    pub identical: bool,
    /// Mean number of deliveries merged into one receive batch by the
    /// delivery coalescer (schedule-invariant across thread counts).
    pub receive_batch_width: f64,
    /// Bytes a per-message allocator would have needed for wire buffers.
    pub arena_demand_bytes: u64,
    /// Backing capacity the wire-buffer arenas actually allocated.
    pub arena_allocated_bytes: u64,
}

impl ScalingRun {
    /// Simulated messages processed per wall-clock second.
    pub fn messages_per_sec(&self) -> f64 {
        self.messages as f64 / self.wall_seconds.max(f64::MIN_POSITIVE)
    }

    /// Mean wire bytes per message (payload + headers).
    pub fn bytes_per_message(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.total_mb * 1e6 / self.messages as f64
        }
    }

    /// Buffer-churn reduction achieved by the wire-buffer arenas:
    /// per-message allocation demand over actual allocation.
    pub fn arena_reduction(&self) -> f64 {
        if self.arena_allocated_bytes == 0 {
            if self.arena_demand_bytes == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.arena_demand_bytes as f64 / self.arena_allocated_bytes as f64
        }
    }
}

/// Results of the parallel-scaling experiment.
#[derive(Debug, Clone)]
pub struct ParallelScalingResult {
    /// Scale label (for reports).
    pub scale: Scale,
    /// Number of overlay nodes.
    pub nodes: usize,
    /// CPUs available to this process — wall-clock speedup is bounded by
    /// this, so a reader can tell a 1-core CI measurement (which only
    /// demonstrates that epoch overhead is negligible) from a real
    /// multicore one.
    pub cpus: usize,
    /// Human-readable context for the numbers (most importantly: whether
    /// the host was CPU-pinned below the thread count, which caps speedup
    /// at ~1.0 regardless of the executor). Serialized into the JSON
    /// report so trajectory comparisons across commits stay honest.
    pub note: String,
    /// One run per thread count, 1 first.
    pub runs: Vec<ScalingRun>,
}

impl ParallelScalingResult {
    /// Wall-clock speedup of the run at `threads` over the 1-thread run.
    /// Only meaningful when the host has at least `threads` CPUs; the
    /// render and JSON annotate the `cpus < threads` case.
    pub fn speedup(&self, threads: usize) -> f64 {
        let base = self.runs.iter().find(|r| r.threads == 1);
        let run = self.runs.iter().find(|r| r.threads == threads);
        match (base, run) {
            (Some(b), Some(r)) if r.wall_seconds > 0.0 => b.wall_seconds / r.wall_seconds,
            _ => 0.0,
        }
    }

    /// Per-thread efficiency of the run at `threads`: speedup divided by
    /// the thread count (1.0 = perfect scaling). This is the honest
    /// scaling framing — raw speedup flatters high thread counts.
    pub fn efficiency(&self, threads: usize) -> f64 {
        self.speedup(threads) / threads.max(1) as f64
    }

    /// Render the scaling table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Parallel epoch executor scaling ({} nodes, scale {}, to quiescence)",
            self.nodes,
            self.scale.label()
        );
        let max_threads = self.runs.iter().map(|r| r.threads).max().unwrap_or(1);
        if self.cpus < max_threads {
            let _ = writeln!(
                out,
                "note: only {} CPU(s) available — wall-clock speedup/efficiency are capped \
                 by the host, not the executor",
                self.cpus
            );
        }
        if self.runs.iter().any(|r| !r.quiesced) {
            let _ = writeln!(
                out,
                "WARNING: some runs hit the time cap before quiescing — wall/speedup numbers \
                 are truncated, not convergence measurements"
            );
        }
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>8} {:>8} {:>10} {:>8} {:>7} {:>9} {:>10}",
            "threads",
            "wall (s)",
            "speedup",
            "eff/thr",
            "msg/s",
            "B/msg",
            "width",
            "MB",
            "identical"
        );
        for r in &self.runs {
            let _ = writeln!(
                out,
                "{:<8} {:>10.3} {:>7.2}x {:>8.2} {:>10.0} {:>8.1} {:>7.2} {:>9.2} {:>10}",
                r.threads,
                r.wall_seconds,
                self.speedup(r.threads),
                self.efficiency(r.threads),
                r.messages_per_sec(),
                r.bytes_per_message(),
                r.receive_batch_width,
                r.total_mb,
                r.identical
            );
        }
        if let Some(r) = self.runs.first() {
            let _ = writeln!(
                out,
                "wire-buffer arena: {:.2} MB demanded, {:.2} MB allocated ({:.1}x reduction)",
                r.arena_demand_bytes as f64 / 1e6,
                r.arena_allocated_bytes as f64 / 1e6,
                r.arena_reduction()
            );
        }
        out
    }

    /// Serialize as a machine-readable JSON report (one entry of the
    /// `BENCH_parallel_scaling.json` trajectory format: topology size,
    /// threads, wall time, messages, throughput and the coalescing/arena
    /// counters).
    pub fn to_json(&self) -> String {
        self.to_json_indented("")
    }

    fn to_json_indented(&self, pad: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{pad}{{");
        let _ = writeln!(out, "{pad}  \"bench\": \"parallel_scaling\",");
        let _ = writeln!(out, "{pad}  \"scale\": \"{}\",", self.scale.label());
        let _ = writeln!(out, "{pad}  \"nodes\": {},", self.nodes);
        let _ = writeln!(out, "{pad}  \"cpus\": {},", self.cpus);
        let _ = writeln!(out, "{pad}  \"note\": \"{}\",", self.note);
        let _ = writeln!(out, "{pad}  \"runs\": [");
        for (i, r) in self.runs.iter().enumerate() {
            let comma = if i + 1 < self.runs.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{pad}    {{\"threads\": {}, \"wall_seconds\": {:.6}, \"sim_seconds\": {:.6}, \
                 \"messages\": {}, \"total_mb\": {:.6}, \"speedup\": {:.4}, \
                 \"efficiency\": {:.4}, \"messages_per_sec\": {:.1}, \
                 \"bytes_per_message\": {:.2}, \"receive_batch_width\": {:.4}, \
                 \"arena_demand_bytes\": {}, \"arena_allocated_bytes\": {}, \
                 \"arena_reduction\": {:.4}, \"quiesced\": {}, \"identical\": {}}}{comma}",
                r.threads,
                r.wall_seconds,
                r.sim_seconds,
                r.messages,
                r.total_mb,
                self.speedup(r.threads),
                self.efficiency(r.threads),
                r.messages_per_sec(),
                r.bytes_per_message(),
                r.receive_batch_width,
                r.arena_demand_bytes,
                r.arena_allocated_bytes,
                r.arena_reduction(),
                r.quiesced,
                r.identical
            );
        }
        let _ = writeln!(out, "{pad}  ]");
        let _ = writeln!(out, "{pad}}}");
        out
    }
}

/// A multi-scale scaling trajectory: the same thread ladder measured at
/// several topology sizes (the committed `BENCH_parallel_scaling.json`
/// carries `large` first — downstream flat-scanner consumers read the
/// first `wall_seconds`/`messages` occurrence, i.e. large at 1 thread —
/// followed by the bigger Zipf-driven scales).
#[derive(Debug, Clone)]
pub struct ScalingTrajectory {
    /// One scaling result per scale, in measurement order.
    pub entries: Vec<ParallelScalingResult>,
}

impl ScalingTrajectory {
    /// Render every entry's table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, entry) in self.entries.iter().enumerate() {
            if i > 0 {
                let _ = writeln!(out);
            }
            out.push_str(&entry.render());
        }
        out
    }

    /// Serialize the trajectory. The top level keeps the
    /// `"bench": "parallel_scaling"` marker and a single entry keeps the
    /// flat single-scale layout, so existing consumers (CI greps) read
    /// both shapes unchanged.
    pub fn to_json(&self) -> String {
        if self.entries.len() == 1 {
            return self.entries[0].to_json();
        }
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"parallel_scaling\",");
        let _ = writeln!(out, "  \"trajectory\": [");
        for (i, entry) in self.entries.iter().enumerate() {
            let block = entry.to_json_indented("    ");
            if i + 1 < self.entries.len() {
                out.push_str(block.trim_end());
                out.push_str(",\n");
            } else {
                out.push_str(&block);
            }
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

/// Number of Zipf-skewed source-routing queries driving the scales where
/// all-pairs is infeasible.
fn traffic_flows(scale: Scale) -> usize {
    match scale {
        Scale::OneK => 48,
        Scale::FourK => 24,
        Scale::TenK => 12,
        _ => 0,
    }
}

/// Run the scaling workload to quiescence once per thread count, measuring
/// wall-clock time and verifying that every parallel run is bit-for-bit
/// identical to the 1-thread baseline.
///
/// At all-pairs-feasible scales (≤ 264 nodes) the workload is the
/// Hop-Count shortest-path query over the whole overlay. At the 1k/4k/10k
/// scales all-pairs is infeasible, so the workload becomes a Zipf-skewed
/// traffic matrix of source-routing (magic) queries — the bounded,
/// popularity-weighted query set such an overlay would actually serve.
pub fn parallel_scaling(scale: Scale, thread_counts: &[usize]) -> ParallelScalingResult {
    let testbed = Testbed::new(scale);
    let metric = Metric::HopCount;
    let flows = if scale.all_pairs_feasible() {
        Vec::new()
    } else {
        let nodes: Vec<NodeAddr> = testbed.overlay.graph.nodes().collect();
        ndlog_net::gtitm::zipf_traffic_matrix(&nodes, traffic_flows(scale), 1.0, 0x5ca1e)
    };
    let routing = (!flows.is_empty()).then(|| Testbed::source_routing_setup(PassSet::ALL));

    let execute = |threads: usize| {
        let mut config = EngineConfig::default();
        config.node.aggregate_selections = true;
        config.max_seconds = 300.0;
        config.parallelism = threads;
        let mut engine = match &routing {
            None => {
                let plan = Testbed::shortest_path_plan(metric);
                let mut engine = testbed.engine(&[plan], config);
                testbed
                    .load_links(&mut engine, &Testbed::link_relation(metric), metric)
                    .expect("link loading");
                engine
            }
            Some(setup) => {
                let mut engine = testbed.engine(std::slice::from_ref(&setup.plan), config);
                testbed
                    .load_links(&mut engine, "link", metric)
                    .expect("link loading");
                for flow in &flows {
                    for (relation, values) in setup
                        .pipeline
                        .seeds_for("pathDst", Value::Addr(flow.src))
                        .into_iter()
                        .chain(
                            setup
                                .pipeline
                                .seeds_for("shortestPath", Value::Addr(flow.dst)),
                        )
                    {
                        let at = values[0].as_addr().expect("magic seeds are addresses");
                        engine
                            .insert_base(at, &relation, Tuple::new(values))
                            .expect("magic seed");
                    }
                }
                engine
            }
        };
        let start = std::time::Instant::now();
        let report = engine.run_to_quiescence().expect("run");
        (engine, report, start.elapsed().as_secs_f64())
    };

    let mut counts: Vec<usize> = thread_counts.to_vec();
    if !counts.contains(&1) {
        counts.insert(0, 1);
    }
    counts.sort_unstable();
    counts.dedup();

    let mut baseline: Option<ndlog_core::DistributedEngine> = None;
    let mut runs = Vec::new();
    for &threads in &counts {
        let (engine, report, wall) = execute(threads);
        let identical = match &baseline {
            None => true,
            Some(base) => ndlog_core::consistency::check_bitwise_identical(base, &engine).is_ok(),
        };
        let delivery = engine.delivery_stats();
        let arena = engine.arena_stats();
        runs.push(ScalingRun {
            threads,
            wall_seconds: wall,
            sim_seconds: report.seconds,
            messages: report.messages,
            total_mb: report.total_mb,
            quiesced: report.quiesced,
            identical,
            receive_batch_width: delivery.mean_batch_width(),
            arena_demand_bytes: arena.demand_bytes,
            arena_allocated_bytes: arena.allocated_bytes(),
        });
        if threads == 1 {
            baseline = Some(engine);
        }
    }

    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let max_threads = counts.iter().copied().max().unwrap_or(1);
    let note = if cpus < max_threads {
        format!(
            "host pinned to {cpus} CPU(s) (CI containers are 1-CPU-pinned): wall-clock speedup \
             is capped by the host, so these numbers demonstrate only that epoch/steal overhead \
             is negligible; re-measure on a multicore host for real scaling"
        )
    } else {
        format!("measured on a host with {cpus} CPU(s) for up to {max_threads} executor threads")
    };
    ParallelScalingResult {
        scale,
        nodes: testbed.node_count(),
        cpus,
        note,
        runs,
    }
}

// ---------------------------------------------------------------------------
// Adversity: lossy links + crash/rejoin waves healed by soft-state refresh.
// ---------------------------------------------------------------------------

/// Soft-state TTL (seconds) declared by the adversity grid's program.
const ADVERSITY_TTL_S: f64 = 5.0;
/// Refresh (re-announcement) interval for the adversity grid, seconds.
const ADVERSITY_REFRESH_S: f64 = 2.0;
/// When the random link faults (loss/duplication/jitter) switch off.
const ADVERSITY_FAULTS_END_S: f64 = 8.0;
/// Default fault-plan seed used by the committed `BENCH_adversity.json`
/// and the CI smoke run; any other seed replays a different but equally
/// deterministic fault schedule.
pub const ADVERSITY_SEED: u64 = 0xad5eed;

/// One cell of the adversity grid: a loss-rate × crash-wave combination
/// run to quiescence under soft-state refresh, then judged against the
/// Dijkstra oracle on the (fully healed) topology.
#[derive(Debug, Clone)]
pub struct AdversityCell {
    /// Per-message loss probability while faults are active.
    pub loss: f64,
    /// Number of crash/rejoin waves in the schedule.
    pub crash_waves: usize,
    /// Total nodes crashed across all waves.
    pub crashed_nodes: usize,
    /// Whether the post-quiescence routing state equals the Dijkstra
    /// oracle at every node (and the run actually quiesced).
    pub converged: bool,
    /// Whether the 2-thread run was bit-for-bit identical to 1-thread.
    pub identical: bool,
    /// Whether the run quiesced before the time cap.
    pub quiesced: bool,
    /// Time at which the last result reached its final value (seconds).
    pub convergence_seconds: f64,
    /// Messages sent over the whole run (includes refresh traffic).
    pub messages: usize,
    /// Total communication (MB).
    pub total_mb: f64,
    /// Traffic sent after the last scheduled fault (MB) — the sustained
    /// soft-state refresh overhead, no longer doing repair work.
    pub refresh_mb: f64,
    /// Messages dropped by the fault plan (loss + partition + crash).
    pub dropped: u64,
    /// Of `dropped`: random loss draws.
    pub loss_drops: u64,
    /// Of `dropped`: messages whose receiver was down on arrival.
    pub crash_drops: u64,
    /// Extra copies delivered by duplication draws.
    pub duplicated: u64,
    /// Messages that drew nonzero jitter.
    pub delayed: u64,
    /// Distinct insertions the fault plan dropped in flight.
    pub dropped_inserts: usize,
    /// Of `dropped_inserts`: present at their destination at the end
    /// (healed by a later refresh cycle; obsolete insertions — replaced,
    /// pruned as non-best or expired — legitimately stay unrepaired).
    pub repaired: usize,
    /// Refresh tasks executed across all nodes.
    pub refresh_ticks: u64,
    /// Seed facts re-announced by those tasks.
    pub refresh_reannounced: u64,
}

/// Results of the adversity experiment: the full grid at one scale.
#[derive(Debug, Clone)]
pub struct AdversityResult {
    /// Scale label (for reports).
    pub scale: Scale,
    /// Number of overlay nodes.
    pub nodes: usize,
    /// Fault-plan seed (the whole grid is replayable from it).
    pub seed: u64,
    /// Soft-state TTL declared by the program (seconds).
    pub ttl_seconds: f64,
    /// Refresh interval driving re-announcement (seconds).
    pub refresh_interval_seconds: f64,
    /// One cell per loss × crash-wave combination.
    pub cells: Vec<AdversityCell>,
}

impl AdversityResult {
    /// Render the grid table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Adversity grid ({} nodes, scale {}, seed {:#x}): loss × crash waves under \
             soft-state refresh (TTL {} s, refresh every {} s)",
            self.nodes,
            self.scale.label(),
            self.seed,
            self.ttl_seconds,
            self.refresh_interval_seconds
        );
        let _ = writeln!(
            out,
            "{:<6} {:>5} {:>7} {:>8} {:>8} {:>8} {:>10} {:>8} {:>14} {:>6} {:>9} {:>9}",
            "loss",
            "waves",
            "crashed",
            "conv(s)",
            "msgs",
            "MB",
            "refresh MB",
            "dropped",
            "repaired/ins",
            "ticks",
            "converged",
            "identical"
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "{:<6.2} {:>5} {:>7} {:>8.2} {:>8} {:>8.2} {:>10.2} {:>8} {:>8}/{:<5} {:>6} {:>9} {:>9}",
                c.loss,
                c.crash_waves,
                c.crashed_nodes,
                c.convergence_seconds,
                c.messages,
                c.total_mb,
                c.refresh_mb,
                c.dropped,
                c.repaired,
                c.dropped_inserts,
                c.refresh_ticks,
                c.converged,
                c.identical
            );
        }
        out
    }

    /// Serialize as the `BENCH_adversity.json` machine-readable report.
    /// The `"converged"` / `"identical"` booleans are what the CI smoke
    /// step greps for.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"adversity\",");
        let _ = writeln!(out, "  \"scale\": \"{}\",", self.scale.label());
        let _ = writeln!(out, "  \"nodes\": {},", self.nodes);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"ttl_seconds\": {},", self.ttl_seconds);
        let _ = writeln!(
            out,
            "  \"refresh_interval_seconds\": {},",
            self.refresh_interval_seconds
        );
        let _ = writeln!(out, "  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            let comma = if i + 1 < self.cells.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"loss\": {:.2}, \"crash_waves\": {}, \"crashed_nodes\": {}, \
                 \"converged\": {}, \"identical\": {}, \"quiesced\": {}, \
                 \"convergence_seconds\": {:.6}, \"messages\": {}, \"total_mb\": {:.6}, \
                 \"refresh_mb\": {:.6}, \"dropped\": {}, \"loss_drops\": {}, \
                 \"crash_drops\": {}, \"duplicated\": {}, \"delayed\": {}, \
                 \"dropped_inserts\": {}, \"repaired\": {}, \"refresh_ticks\": {}, \
                 \"refresh_reannounced\": {}}}{comma}",
                c.loss,
                c.crash_waves,
                c.crashed_nodes,
                c.converged,
                c.identical,
                c.quiesced,
                c.convergence_seconds,
                c.messages,
                c.total_mb,
                c.refresh_mb,
                c.dropped,
                c.loss_drops,
                c.crash_drops,
                c.duplicated,
                c.delayed,
                c.dropped_inserts,
                c.repaired,
                c.refresh_ticks,
                c.refresh_reannounced
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

/// Whether every node's routing state equals the Dijkstra oracle on the
/// overlay: each node holds exactly one shortest-path tuple per reachable
/// destination, with the oracle's cost, and nothing else.
fn adversity_converged(
    engine: &ndlog_core::DistributedEngine,
    testbed: &Testbed,
    relation: &str,
    metric: Metric,
) -> bool {
    let mut per_node: BTreeMap<NodeAddr, BTreeMap<NodeAddr, f64>> = BTreeMap::new();
    for (node, tuple) in engine.results(relation) {
        let (Some(src), Some(dst), Some(cost)) = (
            tuple.get(0).and_then(|v| v.as_addr()),
            tuple.get(1).and_then(|v| v.as_addr()),
            tuple.get(3).and_then(|v| v.as_f64()),
        ) else {
            return false;
        };
        // Results must live at their own source (`@S` locality).
        if src != node {
            return false;
        }
        per_node.entry(node).or_default().insert(dst, cost);
    }
    for src in testbed.overlay.graph.nodes() {
        let oracle = testbed.overlay.graph.shortest_distances(src, metric);
        let mut found = per_node.remove(&src).unwrap_or_default();
        for dst in testbed.overlay.graph.nodes() {
            if dst == src {
                continue;
            }
            let want = oracle[dst.index()];
            match found.remove(&dst) {
                Some(got) => {
                    if !want.is_finite() || (got - want).abs() > 1e-6 {
                        return false;
                    }
                }
                None => {
                    if want.is_finite() {
                        return false;
                    }
                }
            }
        }
        // Tuples for destinations the oracle can't reach at all.
        if !found.is_empty() {
            return false;
        }
    }
    per_node.is_empty()
}

/// Run the soft-state shortest-path query across a loss-rate × churn grid
/// of deterministic fault plans: every cell suffers random message loss,
/// duplication and jitter until [`ADVERSITY_FAULTS_END_S`], plus zero or
/// more crash/rejoin waves taking down ~10% of the overlay, while periodic
/// refresh re-announces seed facts so lost state heals by TTL turnover.
/// Each cell runs at 1 and 2 executor threads and checks bitwise identity,
/// then compares the post-quiescence routing state against the Dijkstra
/// oracle on the (fully healed) topology.
pub fn adversity(scale: Scale, seed: u64) -> AdversityResult {
    let testbed = Testbed::new(scale);
    let metric = Metric::Reliability;
    let nodes = testbed.node_count();
    let link_rel = Testbed::link_relation(metric);
    let sp_rel = Testbed::shortest_path_relation(metric);
    let program =
        ndlog_lang::programs::shortest_path_soft(Testbed::metric_suffix(metric), ADVERSITY_TTL_S);
    let query = ndlog_core::plan(&program).expect("soft shortest-path plans");
    let addrs: Vec<NodeAddr> = testbed.overlay.graph.nodes().collect();

    let mut cells = Vec::new();
    for &loss in &[0.10, 0.25] {
        for &crash_waves in &[0usize, 1] {
            // Deterministic crash roster: each wave takes down ~10% of the
            // overlay (at least one node), staggered 1.5 s apart, each node
            // rejoining 1.5 s after it went down.
            let wave_size = (nodes / 10).max(1);
            let mut picked: BTreeSet<usize> = BTreeSet::new();
            let mut crashes: Vec<(NodeAddr, f64, f64)> = Vec::new();
            for wave in 0..crash_waves {
                let at = 3.0 + 1.5 * wave as f64;
                for i in 0..wave_size {
                    let mut idx = (1 + wave * 5 + i * 7) % nodes;
                    while picked.contains(&idx) {
                        idx = (idx + 1) % nodes;
                    }
                    picked.insert(idx);
                    crashes.push((addrs[idx], at, at + 1.5));
                }
            }
            let last_fault_s = crashes
                .iter()
                .map(|c| c.2)
                .fold(ADVERSITY_FAULTS_END_S, f64::max);
            // Refresh must outlive the faults by TTL (so stale remote state
            // expires) plus a few cycles (so live state is re-announced
            // after the last expiry pass).
            let horizon_s = last_fault_s + ADVERSITY_TTL_S + 4.0 * ADVERSITY_REFRESH_S;
            let cell_seed = seed ^ (((loss * 1000.0) as u64) << 8) ^ crash_waves as u64;

            let fault_for_run = || {
                let mut plan = FaultPlan::new(cell_seed)
                    .with_default_faults(LinkFaults {
                        loss,
                        duplicate: 0.05,
                        jitter_ms: 2.0,
                    })
                    .with_active_until(ms(ADVERSITY_FAULTS_END_S * 1000.0));
                for &(node, at, rejoin) in &crashes {
                    plan = plan.with_crash(node, ms(at * 1000.0), ms(rejoin * 1000.0));
                }
                plan
            };
            let execute = |threads: usize| {
                let mut config = EngineConfig::default();
                config.node.aggregate_selections = true;
                config.parallelism = threads;
                config.max_seconds = horizon_s + 30.0;
                config.fault = Some(fault_for_run());
                config.refresh = Some(RefreshConfig {
                    interval_seconds: ADVERSITY_REFRESH_S,
                    horizon_seconds: horizon_s,
                });
                let mut engine = testbed.engine(std::slice::from_ref(&query), config);
                testbed
                    .load_links(&mut engine, &link_rel, metric)
                    .expect("link loading");
                let report = engine.run_to_quiescence().expect("adversity run");
                (engine, report)
            };

            let (engine, report) = execute(1);
            let (parallel, _) = execute(2);
            let identical =
                ndlog_core::consistency::check_bitwise_identical(&engine, &parallel).is_ok();
            let converged =
                report.quiesced && adversity_converged(&engine, &testbed, &sp_rel, metric);
            let fault = engine.fault_stats();
            let repair = engine.fault_repair_report();
            cells.push(AdversityCell {
                loss,
                crash_waves,
                crashed_nodes: crashes.len(),
                converged,
                identical,
                quiesced: report.quiesced,
                convergence_seconds: engine.convergence(&sp_rel).convergence_seconds,
                messages: report.messages,
                total_mb: report.total_mb,
                refresh_mb: engine.stats().mb_in_window(last_fault_s, f64::INFINITY),
                dropped: fault.dropped,
                loss_drops: fault.loss_drops,
                crash_drops: fault.crash_drops,
                duplicated: fault.duplicated,
                delayed: fault.delayed,
                dropped_inserts: repair.dropped_inserts,
                repaired: repair.repaired,
                refresh_ticks: repair.refresh_ticks,
                refresh_reannounced: repair.refresh_reannounced,
            });
        }
    }
    AdversityResult {
        scale,
        nodes,
        seed,
        ttl_seconds: ADVERSITY_TTL_S,
        refresh_interval_seconds: ADVERSITY_REFRESH_S,
        cells,
    }
}

// ---------------------------------------------------------------------------
// Micro runtime: the indexed-join hot path, tuple-at-a-time vs batch-delta.
// ---------------------------------------------------------------------------

/// Wall-clock measurements of the runtime's join hot path: one strand
/// probing a `relation_size`-tuple relation with `matches_per_probe`
/// matches per trigger, fired tuple-at-a-time (`fire_counted`), in a delta
/// batch without and with key-grouped probe sharing, and tuple-at-a-time
/// without the index (full scan) — plus a **duplicate-key** trigger set
/// (Zipf-ish key frequencies, the shape path-exploration and flooding
/// batches actually have) fired through both batch paths, which is where
/// grouping's one-probe-per-distinct-key amortization shows.
#[derive(Debug, Clone)]
pub struct MicroRuntimeResult {
    /// Stored tuples in the probed relation.
    pub relation_size: usize,
    /// Matching tuples per probe.
    pub matches_per_probe: usize,
    /// Triggers per batch (and per timed pass).
    pub batch_size: usize,
    /// Timed passes per path (after one warmup pass).
    pub iters: usize,
    /// Tuple-at-a-time firing through the index, µs per trigger.
    pub indexed_fire_us: f64,
    /// Batch-delta firing through the index with one probe per trigger
    /// (the ungrouped PR 4 path), µs per trigger.
    pub indexed_batch_us: f64,
    /// Batch-delta firing with key-grouped probe sharing (the default
    /// engine path), µs per trigger, same uniform workload.
    pub indexed_grouped_us: f64,
    /// Tuple-at-a-time firing without the index (full scan), µs per
    /// trigger.
    pub scan_fire_us: f64,
    /// Distinct probe keys in the duplicate-key trigger set.
    pub dup_distinct_keys: usize,
    /// Ungrouped batch firing on the duplicate-key workload, µs/trigger.
    pub dup_batch_us: f64,
    /// Grouped batch firing on the duplicate-key workload, µs/trigger.
    pub dup_grouped_us: f64,
    /// Full node delivery path, one `receive` + `process` per trigger (the
    /// pre-coalescing engine schedule), µs per trigger.
    pub delivery_per_event_us: f64,
    /// Full node delivery path with all of a batch's payloads received
    /// before one `process` (the coalesced engine schedule), µs/trigger.
    pub delivery_coalesced_us: f64,
}

impl MicroRuntimeResult {
    /// Speedup of (ungrouped) batch-delta over tuple-at-a-time on the
    /// indexed path.
    pub fn batch_speedup(&self) -> f64 {
        self.indexed_fire_us / self.indexed_batch_us.max(f64::MIN_POSITIVE)
    }

    /// Speedup of key-grouped probe sharing over per-trigger probing on
    /// the duplicate-key workload.
    pub fn grouping_speedup(&self) -> f64 {
        self.dup_batch_us / self.dup_grouped_us.max(f64::MIN_POSITIVE)
    }

    /// Speedup of the indexed probe over the full scan (tuple-at-a-time).
    pub fn indexed_vs_scan_speedup(&self) -> f64 {
        self.scan_fire_us / self.indexed_fire_us.max(f64::MIN_POSITIVE)
    }

    /// Speedup of the coalesced delivery schedule over per-event delivery
    /// on the full node path.
    pub fn coalescing_speedup(&self) -> f64 {
        self.delivery_per_event_us / self.delivery_coalesced_us.max(f64::MIN_POSITIVE)
    }

    /// Render the measurement table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Runtime join micro-bench ({} tuples, {} matches/probe, batch of {})",
            self.relation_size, self.matches_per_probe, self.batch_size
        );
        let _ = writeln!(out, "{:<34} {:>14}", "path", "µs / trigger");
        let _ = writeln!(
            out,
            "{:<34} {:>14.3}",
            "indexed, tuple-at-a-time", self.indexed_fire_us
        );
        let _ = writeln!(
            out,
            "{:<34} {:>14.3}",
            "indexed, batch per-trigger probes", self.indexed_batch_us
        );
        let _ = writeln!(
            out,
            "{:<34} {:>14.3}",
            "indexed, batch grouped probes", self.indexed_grouped_us
        );
        let _ = writeln!(
            out,
            "{:<34} {:>14.3}",
            "scan, tuple-at-a-time", self.scan_fire_us
        );
        let _ = writeln!(
            out,
            "{:<34} {:>14.3}",
            format!("dup-key ({} keys), per-trigger", self.dup_distinct_keys),
            self.dup_batch_us
        );
        let _ = writeln!(
            out,
            "{:<34} {:>14.3}",
            format!("dup-key ({} keys), grouped", self.dup_distinct_keys),
            self.dup_grouped_us
        );
        let _ = writeln!(
            out,
            "{:<34} {:>14.3}",
            "node delivery, per-event", self.delivery_per_event_us
        );
        let _ = writeln!(
            out,
            "{:<34} {:>14.3}",
            "node delivery, coalesced", self.delivery_coalesced_us
        );
        let _ = writeln!(out, "batch speedup: {:.2}x", self.batch_speedup());
        let _ = writeln!(
            out,
            "grouping speedup (dup keys): {:.2}x",
            self.grouping_speedup()
        );
        let _ = writeln!(
            out,
            "indexed vs scan: {:.2}x",
            self.indexed_vs_scan_speedup()
        );
        let _ = writeln!(
            out,
            "delivery coalescing speedup: {:.2}x",
            self.coalescing_speedup()
        );
        out
    }

    /// Serialize as the `BENCH_micro_runtime.json` format.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"micro_runtime\",");
        let _ = writeln!(out, "  \"relation_size\": {},", self.relation_size);
        let _ = writeln!(out, "  \"matches_per_probe\": {},", self.matches_per_probe);
        let _ = writeln!(out, "  \"batch_size\": {},", self.batch_size);
        let _ = writeln!(out, "  \"iters\": {},", self.iters);
        let _ = writeln!(
            out,
            "  \"indexed_fire_us_per_trigger\": {:.4},",
            self.indexed_fire_us
        );
        let _ = writeln!(
            out,
            "  \"indexed_batch_us_per_trigger\": {:.4},",
            self.indexed_batch_us
        );
        let _ = writeln!(
            out,
            "  \"indexed_grouped_us_per_trigger\": {:.4},",
            self.indexed_grouped_us
        );
        let _ = writeln!(
            out,
            "  \"scan_fire_us_per_trigger\": {:.4},",
            self.scan_fire_us
        );
        let _ = writeln!(out, "  \"dup_distinct_keys\": {},", self.dup_distinct_keys);
        let _ = writeln!(
            out,
            "  \"dup_batch_us_per_trigger\": {:.4},",
            self.dup_batch_us
        );
        let _ = writeln!(
            out,
            "  \"dup_grouped_us_per_trigger\": {:.4},",
            self.dup_grouped_us
        );
        let _ = writeln!(
            out,
            "  \"delivery_per_event_us_per_trigger\": {:.4},",
            self.delivery_per_event_us
        );
        let _ = writeln!(
            out,
            "  \"delivery_coalesced_us_per_trigger\": {:.4},",
            self.delivery_coalesced_us
        );
        let _ = writeln!(
            out,
            "  \"coalescing_speedup\": {:.4},",
            self.coalescing_speedup()
        );
        let _ = writeln!(out, "  \"batch_speedup\": {:.4},", self.batch_speedup());
        let _ = writeln!(
            out,
            "  \"grouping_speedup\": {:.4},",
            self.grouping_speedup()
        );
        let _ = writeln!(
            out,
            "  \"indexed_vs_scan_speedup\": {:.4}",
            self.indexed_vs_scan_speedup()
        );
        let _ = writeln!(out, "}}");
        out
    }
}

/// Run the join micro-bench: the `rc2` reachability strand probing a
/// `link` relation of 10⁴ tuples (10 matching per probe), with a batch of
/// 256 triggers per pass — the original uniform workload (every trigger
/// probes the same key) plus a duplicate-key workload whose probe keys
/// follow a Zipf-ish frequency curve (rank r gets ~(BATCH/3)/r triggers:
/// 12 distinct keys, the hottest taking ~85 of the 256).
/// Deterministic workload, wall-clock timed.
pub fn micro_runtime() -> MicroRuntimeResult {
    use ndlog_runtime::batch::{BatchOutput, BatchScratch, BatchTrigger};
    use ndlog_runtime::strand::JoinStats;
    use ndlog_runtime::{CompiledStrand, Store, TupleDelta};

    const RELATION_SIZE: usize = 10_000;
    const MATCHES: usize = 10;
    const BATCH: usize = 256;
    const ITERS: usize = 40;
    const SCAN_ITERS: usize = 4;

    let program =
        ndlog_lang::parse_program("rc2 reach(@S,@D) :- #link(@S,@Z,C), reach(@Z,@D).").unwrap();
    let strands: Vec<CompiledStrand> = ndlog_lang::seminaive::delta_rewrite_full(&program)
        .into_iter()
        .map(CompiledStrand::new)
        .collect();
    let strand = strands
        .iter()
        .find(|s| s.trigger_relation() == "reach")
        .unwrap();
    let build_store = |indexed: bool| -> Store {
        let mut store = Store::new();
        if indexed {
            store.declare_indexes(strands.iter());
        }
        for i in 0..RELATION_SIZE as u32 {
            // Exactly MATCHES links point at node 1 (the probed bucket).
            let dst = if i % (RELATION_SIZE as u32 / MATCHES as u32) == 0 {
                1
            } else {
                2 + (i % 97)
            };
            store.apply(&TupleDelta::insert(
                "link",
                Tuple::new(vec![
                    Value::addr(1000 + i),
                    Value::addr(dst),
                    Value::Float(1.0),
                ]),
            ));
        }
        store
    };
    let indexed = build_store(true);
    let scan = build_store(false);
    let triggers: Vec<TupleDelta> = (0..BATCH as u32)
        .map(|d| {
            TupleDelta::insert(
                "reach",
                Tuple::new(vec![Value::addr(1u32), Value::addr(10_000 + d)]),
            )
        })
        .collect();

    let time_fire = |store: &Store, iters: usize| -> f64 {
        let mut stats = JoinStats::default();
        // Warmup + timed passes.
        for t in &triggers {
            let out = strand.fire_counted(store, t, u64::MAX, &mut stats).unwrap();
            assert_eq!(out.len(), MATCHES);
        }
        let start = std::time::Instant::now();
        for _ in 0..iters {
            for t in &triggers {
                let out = strand.fire_counted(store, t, u64::MAX, &mut stats).unwrap();
                assert_eq!(out.len(), MATCHES);
            }
        }
        start.elapsed().as_secs_f64() * 1e6 / (iters * BATCH) as f64
    };

    let indexed_fire_us = time_fire(&indexed, ITERS);
    let scan_fire_us = time_fire(&scan, SCAN_ITERS);

    let mut scratch = BatchScratch::default();
    let mut out = BatchOutput::default();
    let mut time_batch = |store: &Store, deltas: &[TupleDelta], grouped: bool| -> f64 {
        let batch: Vec<BatchTrigger> = deltas
            .iter()
            .map(|delta| BatchTrigger {
                delta,
                seq_limit: u64::MAX,
            })
            .collect();
        let mut stats = JoinStats::default();
        let mut fire = |out: &mut BatchOutput| {
            if grouped {
                strand
                    .fire_batch(store, &batch, &mut stats, &mut scratch, out)
                    .unwrap();
            } else {
                strand
                    .fire_batch_ungrouped(store, &batch, &mut stats, &mut scratch, out)
                    .unwrap();
            }
            assert_eq!(out.all().len(), MATCHES * BATCH);
        };
        fire(&mut out); // warmup
        let start = std::time::Instant::now();
        for _ in 0..ITERS {
            fire(&mut out);
        }
        start.elapsed().as_secs_f64() * 1e6 / (ITERS * BATCH) as f64
    };

    let indexed_batch_us = time_batch(&indexed, &triggers, false);
    let indexed_grouped_us = time_batch(&indexed, &triggers, true);

    // The duplicate-key workload: every destination key 1..=1000 has
    // exactly MATCHES incoming links, and the 256 triggers probe a
    // Zipf-ish mix of them — rank r gets ~(BATCH/3)/r triggers (12
    // distinct keys, the hottest ~85 of 256). The stored links share
    // their location column (as every per-node `link` table does — the
    // location specifier is the node itself), so primary keys only
    // diverge in later columns, exactly the key-comparison shape real
    // node stores have.
    let mut dup_store = Store::new();
    dup_store.declare_indexes(strands.iter());
    for i in 0..RELATION_SIZE as u32 {
        dup_store.apply(&TupleDelta::insert(
            "link",
            Tuple::new(vec![
                Value::addr(1u32),
                Value::addr(1 + (i % 1000)),
                Value::Float(f64::from(i)),
            ]),
        ));
    }
    let mut dup_dsts: Vec<u32> = Vec::with_capacity(BATCH);
    let mut rank = 1u32;
    while dup_dsts.len() < BATCH {
        let copies = ((BATCH as u32 / 3) / rank).max(1) as usize;
        for _ in 0..copies.min(BATCH - dup_dsts.len()) {
            dup_dsts.push(rank);
        }
        rank += 1;
    }
    let dup_distinct_keys = {
        let mut keys = dup_dsts.clone();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    };
    let dup_triggers: Vec<TupleDelta> = dup_dsts
        .iter()
        .enumerate()
        .map(|(d, &dst)| {
            TupleDelta::insert(
                "reach",
                Tuple::new(vec![Value::addr(dst), Value::addr(30_000 + d as u32)]),
            )
        })
        .collect();
    let dup_batch_us = time_batch(&dup_store, &dup_triggers, false);
    let dup_grouped_us = time_batch(&dup_store, &dup_triggers, true);

    // The delivery-path comparison: the same uniform trigger stream pushed
    // through a full NodeEngine — store clock, PSN queue, outbound routing,
    // arena recycling — once with a receive+process round per trigger (the
    // per-event schedule) and once with a whole batch received before a
    // single process (the coalesced schedule). Triggers are unique per
    // pass so every pass derives fresh tuples.
    let mk_node = || {
        let mut node = ndlog_core::NodeEngine::new(
            NodeAddr(1),
            &[],
            std::sync::Arc::new(strands.clone()),
            ndlog_core::NodeConfig::default(),
        )
        .expect("micro node engine");
        let links: Vec<TupleDelta> = (0..RELATION_SIZE as u32)
            .map(|i| {
                let dst = if i % (RELATION_SIZE as u32 / MATCHES as u32) == 0 {
                    1
                } else {
                    2 + (i % 97)
                };
                TupleDelta::insert(
                    "link",
                    Tuple::new(vec![
                        Value::addr(1000 + i),
                        Value::addr(dst),
                        Value::Float(1.0),
                    ]),
                )
            })
            .collect();
        node.receive(links);
        node.process().expect("link ingestion");
        node
    };
    let time_delivery = |coalesced: bool| -> f64 {
        let mut node = mk_node();
        let run_pass = |node: &mut ndlog_core::NodeEngine, pass: u32| {
            let base = 100_000 + pass * BATCH as u32;
            for d in 0..BATCH as u32 {
                node.receive(vec![TupleDelta::insert(
                    "reach",
                    Tuple::new(vec![Value::addr(1u32), Value::addr(base + d)]),
                )]);
                if !coalesced {
                    node.process().expect("per-event process");
                }
            }
            if coalesced {
                node.process().expect("coalesced process");
            }
        };
        run_pass(&mut node, 0); // warmup
        let start = std::time::Instant::now();
        for pass in 0..ITERS as u32 {
            run_pass(&mut node, pass + 1);
        }
        start.elapsed().as_secs_f64() * 1e6 / (ITERS * BATCH) as f64
    };
    let delivery_per_event_us = time_delivery(false);
    let delivery_coalesced_us = time_delivery(true);

    MicroRuntimeResult {
        relation_size: RELATION_SIZE,
        matches_per_probe: MATCHES,
        batch_size: BATCH,
        iters: ITERS,
        indexed_fire_us,
        indexed_batch_us,
        indexed_grouped_us,
        scan_fire_us,
        dup_distinct_keys,
        dup_batch_us,
        dup_grouped_us,
        delivery_per_event_us,
        delivery_coalesced_us,
    }
}

/// Figure 13: bursts every 10 s for 250 s.
pub fn incremental_updates(scale: Scale) -> IncrementalResult {
    incremental_updates_with(scale, PassSet::ALL)
}

/// Figure 13 at an explicit optimizer pass level.
pub fn incremental_updates_with(scale: Scale, passes: PassSet) -> IncrementalResult {
    let total = match scale {
        Scale::Small | Scale::Medium => 60.0,
        _ => 250.0,
    };
    incremental_updates_with_intervals_and_passes(scale, &[10.0], total, passes)
}

/// Figure 14: interleaved 2 s and 8 s bursts for 250 s.
pub fn incremental_updates_interleaved(scale: Scale) -> IncrementalResult {
    incremental_updates_interleaved_with(scale, PassSet::ALL)
}

/// Figure 14 at an explicit optimizer pass level.
pub fn incremental_updates_interleaved_with(scale: Scale, passes: PassSet) -> IncrementalResult {
    let total = match scale {
        Scale::Small | Scale::Medium => 60.0,
        _ => 250.0,
    };
    incremental_updates_with_intervals_and_passes(scale, &[2.0, 8.0], total, passes)
}

// ---------------------------------------------------------------------------
// Optimizer bench: the committed-baseline gate over the Figure 11 pipeline.
// ---------------------------------------------------------------------------

/// The optimizer benchmark: the Figure 11 magic-sets run distilled into the
/// few numbers CI gates on — cumulative MB of the fully-optimized MS / MSC
/// lines at each sampled query count against the unoptimized all-pairs
/// baseline, plus the crossover point at which per-query magic exploration
/// stops paying off.
#[derive(Debug, Clone)]
pub struct OptimizerBenchResult {
    /// Scale the bench ran at.
    pub scale: Scale,
    /// `Report::describe()` of the rewrites the per-query plans carry.
    pub optimizer: String,
    /// Sampled query counts (x-axis).
    pub query_counts: Vec<usize>,
    /// Unoptimized all-pairs communication (MB), flat in the query count.
    pub baseline_no_ms_mb: f64,
    /// Magic-sets line (MB) at each sampled count.
    pub ms_mb: Vec<f64>,
    /// Magic-sets-plus-caching line (MB) at each sampled count.
    pub msc_mb: Vec<f64>,
    /// Query count at which MS first exceeds the baseline, if it does.
    pub ms_crossover: Option<usize>,
}

impl OptimizerBenchResult {
    /// Cumulative MB of the fully-optimized pipeline after the first query
    /// — the headline number the CI gate compares against the committed
    /// baseline and the unoptimized run.
    pub fn first_query_mb(&self) -> f64 {
        self.ms_mb.first().copied().unwrap_or(0.0)
    }

    /// Render the gate summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Optimizer bench ({} scale)", self.scale.label());
        let _ = writeln!(out, "optimizer: {}", self.optimizer);
        let _ = writeln!(
            out,
            "baseline (no optimizer, all-pairs): {:.3} MB",
            self.baseline_no_ms_mb
        );
        let _ = writeln!(out, "{:<10} {:>10} {:>10}", "queries", "MS", "MSC");
        for (i, &count) in self.query_counts.iter().enumerate() {
            let _ = writeln!(
                out,
                "{:<10} {:>10.3} {:>10.3}",
                count, self.ms_mb[i], self.msc_mb[i]
            );
        }
        match self.ms_crossover {
            Some(at) => {
                let _ = writeln!(out, "MS crossover vs baseline: {at} queries");
            }
            None => {
                let _ = writeln!(out, "MS crossover vs baseline: not reached");
            }
        }
        out
    }

    /// Serialize as the `BENCH_optimizer.json` format. The gate fields
    /// (`first_query_mb`, `baseline_no_ms_mb`) are scalars so the flat JSON
    /// scanner in the `experiments` binary can read them back.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"bench\": \"optimizer\",");
        let _ = writeln!(out, "  \"scale\": \"{}\",", self.scale.label());
        let _ = writeln!(out, "  \"optimizer\": \"{}\",", self.optimizer);
        let _ = writeln!(
            out,
            "  \"baseline_no_ms_mb\": {:.6},",
            self.baseline_no_ms_mb
        );
        let _ = writeln!(out, "  \"first_query_mb\": {:.6},", self.first_query_mb());
        for (i, &count) in self.query_counts.iter().enumerate() {
            let _ = writeln!(out, "  \"ms_mb_at_{}\": {:.6},", count, self.ms_mb[i]);
            let _ = writeln!(out, "  \"msc_mb_at_{}\": {:.6},", count, self.msc_mb[i]);
        }
        match self.ms_crossover {
            Some(at) => {
                let _ = writeln!(out, "  \"ms_crossover\": {at}");
            }
            None => {
                let _ = writeln!(out, "  \"ms_crossover\": null");
            }
        }
        let _ = writeln!(out, "}}");
        out
    }
}

/// Run the optimizer bench: one fully-optimized Figure 11 run, reduced to
/// the sampled MS / MSC lines and the crossover.
pub fn optimizer_bench(
    scale: Scale,
    max_queries: usize,
    sample_counts: &[usize],
) -> OptimizerBenchResult {
    let fig11 = magic_sets_with(scale, max_queries, sample_counts, PassSet::ALL);
    let line = |label: &str| -> Vec<f64> {
        let line = fig11
            .lines
            .iter()
            .find(|l| l.label == label)
            .expect("workload line present");
        fig11.query_counts.iter().map(|&c| line.at(c)).collect()
    };
    OptimizerBenchResult {
        scale,
        optimizer: fig11.optimizer.clone(),
        query_counts: fig11.query_counts.clone(),
        baseline_no_ms_mb: fig11.no_ms_mb,
        ms_mb: line("MS"),
        msc_mb: line("MSC"),
        ms_crossover: fig11.crossover("MS"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_aggregate_selections() {
        let result = aggregate_selections(Scale::Small);
        assert_eq!(result.runs.len(), 4);
        for run in &result.runs {
            assert!(run.total_mb > 0.0);
            assert!(run.convergence_seconds > 0.0);
            assert!(run.pruned > 0, "selections prune something on every metric");
            let last = run.completion.last().unwrap().1;
            assert!((last - 1.0).abs() < 1e-9, "completion reaches 100%");
        }
        // The Random metric is the stress case: it should need at least as
        // much traffic as the Hop-Count query.
        let random = result.run_for(Metric::Random).total_mb;
        let hops = result.run_for(Metric::HopCount).total_mb;
        assert!(random >= hops * 0.8, "random {random} vs hops {hops}");
        assert!(!result.render().is_empty());
    }

    #[test]
    fn small_scale_periodic_reduces_traffic() {
        let eager = aggregate_selections(Scale::Small);
        let periodic = periodic_aggregate_selections(Scale::Small);
        let eager_total: f64 = eager.runs.iter().map(|r| r.total_mb).sum();
        let periodic_total: f64 = periodic.runs.iter().map(|r| r.total_mb).sum();
        assert!(
            periodic_total <= eager_total,
            "periodic {periodic_total} should not exceed eager {eager_total}"
        );
        assert!(!periodic.render().is_empty());
    }

    #[test]
    fn small_scale_magic_sets_shapes() {
        let result = magic_sets(Scale::Small, 12, &[4, 8, 12]);
        assert!(result.no_ms_mb > 0.0);
        assert_eq!(result.lines.len(), 4);
        for line in &result.lines {
            assert_eq!(line.cumulative_mb.len(), 12);
            // Cumulative traffic is non-decreasing.
            assert!(line.cumulative_mb.windows(2).all(|w| w[1] >= w[0] - 1e-12));
        }
        // A single magic query is much cheaper than the all-pairs baseline.
        let ms = &result.lines[0];
        assert!(ms.at(1) < result.no_ms_mb);
        // Restricting destinations to 10% of nodes increases cache reuse, so
        // MSC-10% spends no more than plain MSC.
        let msc = result.lines.iter().find(|l| l.label == "MSC").unwrap();
        let msc10 = result.lines.iter().find(|l| l.label == "MSC-10%").unwrap();
        assert!(msc10.at(12) <= msc.at(12) * 1.05);
        assert!(!result.render().is_empty());
    }

    #[test]
    fn small_scale_sharing_reduces_bytes() {
        let result = message_sharing(Scale::Small);
        assert_eq!(result.individual.len(), 3);
        assert!(result.share_mb < result.no_share_mb);
        assert!(result.reduction() > 0.0);
        assert!(!result.render().is_empty());
    }

    #[test]
    fn small_scale_parallel_scaling_is_identical() {
        let result = parallel_scaling(Scale::Small, &[2, 4]);
        assert_eq!(result.nodes, 14);
        assert_eq!(result.runs.len(), 3, "a 1-thread baseline is always run");
        assert!(result.runs.iter().all(|r| r.identical));
        assert!(result.runs.iter().all(|r| r.quiesced));
        let messages: Vec<usize> = result.runs.iter().map(|r| r.messages).collect();
        assert!(
            messages.windows(2).all(|w| w[0] == w[1]),
            "message counts must not depend on the thread count"
        );
        assert!(!result.render().is_empty());
        let json = result.to_json();
        assert!(json.contains("\"bench\": \"parallel_scaling\""));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"cpus\": "));
        assert!(
            json.contains("\"note\": \""),
            "the report must carry the host-pinning note"
        );
    }

    #[test]
    fn micro_json_shape() {
        // The measurement itself runs in release via the CI smoke step;
        // here only the report formats are checked.
        let micro = MicroRuntimeResult {
            relation_size: 10_000,
            matches_per_probe: 10,
            batch_size: 256,
            iters: 40,
            indexed_fire_us: 9.0,
            indexed_batch_us: 4.5,
            indexed_grouped_us: 3.0,
            scan_fire_us: 120.0,
            dup_distinct_keys: 30,
            dup_batch_us: 4.0,
            dup_grouped_us: 2.0,
            delivery_per_event_us: 6.0,
            delivery_coalesced_us: 1.5,
        };
        assert!((micro.batch_speedup() - 2.0).abs() < 1e-9);
        assert!((micro.grouping_speedup() - 2.0).abs() < 1e-9);
        assert!((micro.coalescing_speedup() - 4.0).abs() < 1e-9);
        let json = micro.to_json();
        assert!(json.contains("\"bench\": \"micro_runtime\""));
        assert!(json.contains("\"delivery_per_event_us_per_trigger\": 6.0000"));
        assert!(json.contains("\"delivery_coalesced_us_per_trigger\": 1.5000"));
        assert!(json.contains("\"indexed_batch_us_per_trigger\": 4.5000"));
        assert!(json.contains("\"indexed_grouped_us_per_trigger\": 3.0000"));
        assert!(json.contains("\"dup_grouped_us_per_trigger\": 2.0000"));
        assert!(json.contains("\"batch_speedup\": 2.0000"));
        assert!(json.contains("\"grouping_speedup\": 2.0000"));
        assert!(!micro.render().is_empty());
    }

    #[test]
    fn small_scale_incremental_updates() {
        let result = incremental_updates_with_intervals(Scale::Small, &[5.0], 30.0);
        assert!(result.bursts >= 3);
        assert!(result.initial_mb > 0.0);
        assert!(result.avg_burst_mb > 0.0);
        assert!(
            result.avg_burst_mb < result.initial_mb,
            "incremental recomputation is cheaper than from scratch"
        );
        assert!(!result.render("test").is_empty());
    }
}
