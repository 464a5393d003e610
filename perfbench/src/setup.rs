//! Set-up steps shared by the simulated-network workloads, each call into
//! a crate wrapped in its layer's span.

use crate::oracle::Links;
use crate::trace::span;
use ndlog_core::{DistributedEngine, EngineConfig, QueryPlan};
use ndlog_lang::ast::Program;
use ndlog_lang::optimizer::{optimize, Pipeline};
use ndlog_lang::reorder::BodyOrder;
use ndlog_lang::Value;
use ndlog_net::gtitm::{generate, TransitStubConfig};
use ndlog_net::overlay::{Overlay, OverlayConfig, OverlayLink};
use ndlog_net::topology::{Metric, Topology};
use ndlog_runtime::Tuple;
use std::time::{Duration, Instant};

/// Whether another sample fits in the time left (the minimum count is
/// always taken).
pub fn another(start: Instant, budget: Duration, done: usize, min: usize, last: Duration) -> bool {
    done < min || start.elapsed() + last <= budget
}

/// The 264-node transit-stub underlay (8 transit nodes, 4 stubs each, 8
/// nodes per stub).
pub fn large() -> TransitStubConfig {
    TransitStubConfig {
        transit_nodes: 8,
        stubs_per_transit: 4,
        nodes_per_stub: 8,
        ..TransitStubConfig::paper()
    }
}

/// An overlay where every node picked four random neighbors.
pub struct Testbed {
    pub graph: Topology,
    pub links: Vec<OverlayLink>,
}

impl Testbed {
    pub fn build(config: &TransitStubConfig) -> Testbed {
        let underlay = span("net", "gtitm_generate", || generate(config));
        let overlay = span("net", "random_neighbors", || {
            Overlay::random_neighbors(&underlay.topology, &OverlayConfig::default())
        });
        let links = span("net", "overlay_links", || overlay.links());
        Testbed {
            graph: overlay.graph,
            links,
        }
    }

    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Directed link costs under `metric`.
    pub fn costs(&self, metric: Metric) -> Links {
        self.links
            .iter()
            .map(|l| ((l.src, l.dst), l.cost(metric)))
            .collect()
    }
}

/// Parse (the `programs` constructor parses NDlog source), optimize with
/// link-first body order, and plan.
pub fn compile(program: impl FnOnce() -> Program) -> QueryPlan {
    let program = span("lang", "parse", program);
    let pipeline = Pipeline::new(Vec::new(), Some(BodyOrder::LinkFirst));
    let optimized = span("lang", "optimize", || optimize(&program, &pipeline))
        .expect("canonical program optimizes");
    span("core", "plan", || ndlog_core::plan(&optimized.program)).expect("canonical program plans")
}

pub fn engine(testbed: &Testbed, plan: &QueryPlan, config: EngineConfig) -> DistributedEngine {
    span("core", "engine_new", || {
        DistributedEngine::new(testbed.graph.clone(), std::slice::from_ref(plan), config)
    })
    .expect("engine builds over a connected overlay")
}

pub fn link_tuple(src: ndlog_net::NodeAddr, dst: ndlog_net::NodeAddr, cost: f64) -> Tuple {
    Tuple::new(vec![Value::Addr(src), Value::Addr(dst), Value::Float(cost)])
}

/// Insert every directed overlay link at its source node, in overlay
/// order.
pub fn load(engine: &mut DistributedEngine, relation: &str, testbed: &Testbed, metric: Metric) {
    for link in &testbed.links {
        let (src, dst, cost) = (link.src, link.dst, link.cost(metric));
        span("core", "insert_base", || {
            engine.insert_base(src, relation, link_tuple(src, dst, cost))
        })
        .expect("link facts load");
    }
}

/// The engine's cumulative work counters at one moment, so a phase's
/// share can be taken as a difference and phases summed: messages, bytes,
/// deliveries, receive batches, pruned, result changes, derivations,
/// redundant derivations, logical probes, distinct probes, tuples
/// examined, scans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters([u64; 12]);

impl Counters {
    pub fn read(engine: &DistributedEngine) -> Counters {
        let delivery = engine.delivery_stats();
        let eval = engine.computation_stats();
        Counters([
            engine.stats().message_count() as u64,
            engine.stats().total_bytes(),
            delivery.deliveries,
            delivery.receive_batches,
            engine.pruned_total(),
            engine.result_log().len() as u64,
            eval.derivations as u64,
            eval.redundant_derivations as u64,
            eval.logical_probes as u64,
            eval.distinct_probes as u64,
            eval.tuples_examined as u64,
            eval.scans as u64,
        ])
    }

    /// The work done since `before`.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| self.0[i] - before.0[i]))
    }

    pub fn add(&mut self, other: &Counters) {
        for (mine, theirs) in self.0.iter_mut().zip(other.0) {
            *mine += theirs;
        }
    }

    /// Report as the `net`, `core` and `runtime` layer metrics.
    pub fn report(&self, outcome: &mut crate::metrics::Outcome) {
        let [messages, bytes, deliveries, batches, pruned, changes, derivations, redundant, logical, distinct, examined, scans] =
            self.0.map(|v| v as f64);
        outcome.set("net.messages", messages);
        outcome.set("net.bytes_per_message", bytes / messages.max(1.0));
        outcome.set("core.deliveries", deliveries);
        outcome.set("core.receive_batches", batches);
        outcome.set("core.batch_width", deliveries / batches.max(1.0));
        outcome.set("core.pruned", pruned);
        outcome.set("core.result_changes", changes);
        outcome.set("runtime.derivations", derivations);
        outcome.set("runtime.redundant_share", redundant / derivations.max(1.0));
        outcome.set("runtime.logical_probes", logical);
        outcome.set("runtime.distinct_share", distinct / logical.max(1.0));
        outcome.set("runtime.tuples_examined", examined);
        outcome.set("runtime.scans", scans);
    }
}
