//! `lossy`: soft-state shortest paths (Reliability metric, TTL 5 s,
//! refresh every 2 s) on the 52-node overlay under 10% loss, 5%
//! duplication, 2 ms jitter and one crash/rejoin wave of a tenth of the
//! nodes, run to quiescence on two executor threads. The only workload
//! where expiry, refresh re-announcement, crash reset and the `net`
//! fault layer do work. Each cold start draws its own fault plan and
//! crash roster from the seed.

use crate::metrics::Outcome;
use crate::oracle;
use crate::rng::Rng;
use crate::setup::{self, another, Counters, Testbed};
use crate::stats;
use crate::trace::{span, Timed};
use crate::{Args, Run};
use ndlog_core::{DistributedEngine, EngineConfig, RefreshConfig};
use ndlog_lang::programs;
use ndlog_net::gtitm::TransitStubConfig;
use ndlog_net::sim::ms;
use ndlog_net::topology::Metric;
use ndlog_net::{FaultPlan, LinkFaults};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const LINK: &str = "link_reliability";
const SHORTEST: &str = "shortestPath_reliability";
/// Two executor threads, although the faults and results are the same at
/// one: a one-thread run stays on one CPU, whose speed on a shared host
/// depends on what runs beside it, and its median moved by 7-20% between
/// runs against about 4% at two threads.
const THREADS: usize = 2;
const TTL_S: f64 = 5.0;
const REFRESH_S: f64 = 2.0;
/// Loss, duplication and jitter stop here.
const FAULTS_END_S: f64 = 8.0;
const CRASH_AT_S: f64 = 3.0;
const DOWN_FOR_S: f64 = 1.5;
/// Refresh runs one TTL plus four intervals past the last fault, so stale
/// state expires and live state is re-announced after the last expiry.
const HORIZON_S: f64 = FAULTS_END_S + TTL_S + 4.0 * REFRESH_S;
const MIN_SAMPLES: usize = 3;
/// Set-ups per run (cold starts plus set-up-only rounds).
const MIN_SETUPS: usize = 9;

/// The seeded fault plan: random link faults plus one crash wave.
fn fault_plan(testbed: &Testbed, rng: &mut Rng) -> FaultPlan {
    let mut plan = FaultPlan::new(rng.next_u64())
        .with_default_faults(LinkFaults {
            loss: 0.10,
            duplicate: 0.05,
            jitter_ms: 2.0,
        })
        .with_active_until(ms(FAULTS_END_S * 1e3));
    let nodes: Vec<_> = testbed.graph.nodes().collect();
    let mut crashed = BTreeSet::new();
    while crashed.len() < (nodes.len() / 10).max(1) {
        crashed.insert(nodes[rng.below(nodes.len())]);
    }
    for node in crashed {
        plan = plan.with_crash(
            node,
            ms(CRASH_AT_S * 1e3),
            ms((CRASH_AT_S + DOWN_FOR_S) * 1e3),
        );
    }
    plan
}

fn set_up(rng: &mut Rng) -> (Testbed, DistributedEngine) {
    let testbed = Testbed::build(&TransitStubConfig::medium());
    let plan = setup::compile(|| programs::shortest_path_soft("reliability", TTL_S));
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    config.max_seconds = HORIZON_S + 30.0;
    config.parallelism = THREADS;
    config.fault = Some(fault_plan(&testbed, rng));
    config.refresh = Some(RefreshConfig {
        interval_seconds: REFRESH_S,
        horizon_seconds: HORIZON_S,
    });
    let mut engine = setup::engine(&testbed, &plan, config);
    setup::load(&mut engine, LINK, &testbed, Metric::Reliability);
    (testbed, engine)
}

pub fn run(args: &Args) -> Run {
    let mut outcome = Outcome::default();
    let mut timed = Timed::default();
    let (mut setups, mut walls, mut wire_kb, mut sim_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    let mut last_sample = Duration::ZERO;
    while another(start, args.seconds, walls.len(), MIN_SAMPLES, last_sample) {
        let began = Instant::now();
        // One engine at a time: the previous sample's goes before the
        // next set-up.
        drop(last.take());
        let mut rng = Rng::derive(args.seed, walls.len() as u64);
        let t = Instant::now();
        let (testbed, mut engine) = set_up(&mut rng);
        setups.push(t.elapsed().as_secs_f64());

        timed.start();
        let t = Instant::now();
        let report =
            span("core", "run_to_quiescence", || engine.run_to_quiescence()).expect("lossy run");
        walls.push(t.elapsed().as_secs_f64() * 1e3);
        timed.stop();

        let oracle = oracle::all_pairs(testbed.node_count(), &testbed.costs(Metric::Reliability));
        let check = oracle::check_shortest_paths(&engine.results(SHORTEST), &oracle);
        outcome.check(
            check.checked + 1,
            check.failed() + u64::from(!report.quiesced),
        );
        wire_kb.push(engine.stats().total_bytes() as f64 / 1e3);
        sim_s.push(engine.convergence(SHORTEST).convergence_seconds);
        last = Some(engine);
        last_sample = began.elapsed();
    }

    while setups.len() < MIN_SETUPS {
        let mut rng = Rng::derive(args.seed, setups.len() as u64);
        let t = Instant::now();
        let extra = set_up(&mut rng);
        setups.push(t.elapsed().as_secs_f64());
        drop(extra);
    }
    outcome.set("setup_s", stats::median(&setups));
    outcome.set("latency_p50_ms", stats::median(&walls));
    outcome.set("wire_kb_per_op", stats::median(&wire_kb));
    outcome.note(
        "op",
        "one cold convergence under the fault plan at 2 threads",
    );
    outcome.note("samples", walls.len());
    outcome.note("walls_ms", format!("{walls:.0?}"));
    outcome.note(
        "sim_converge_s_per_run",
        format!("{sim_s:?} (refresh horizon {HORIZON_S} s)"),
    );
    if args.traced {
        let engine = last.expect("at least one sample");
        Counters::read(&engine).report(&mut outcome);
        outcome.set("core.run_ms", stats::median(&walls));
        let fault = engine.fault_stats();
        outcome.set("net.fault_dropped", fault.dropped as f64);
        outcome.set("net.fault_duplicated", fault.duplicated as f64);
        outcome.set("net.fault_delayed", fault.delayed as f64);
        let repair = engine.fault_repair_report();
        outcome.set("core.refresh_ticks", repair.refresh_ticks as f64);
        outcome.set(
            "core.refresh_reannounced",
            repair.refresh_reannounced as f64,
        );
        outcome.set("core.dropped_inserts", repair.dropped_inserts as f64);
        outcome.set("core.repaired", repair.repaired as f64);
    }
    Run {
        outcome,
        setups: setups.len() as u64,
        timed_ns: timed.total_ns,
    }
}
