//! `converge`: cold-start all-pairs hop-count shortest paths with
//! aggregate selections over the 264-node overlay, run to quiescence on
//! two executor threads. Insert-only: join batching, probe sharing,
//! delivery coalescing, the parallel epoch executor and the wire-buffer
//! arena do all the work. The seed does not change this workload.

use crate::metrics::Outcome;
use crate::oracle;
use crate::setup::{self, another, Counters, Testbed};
use crate::stats;
use crate::trace::{span, Timed};
use crate::{Args, Run};
use ndlog_core::{DistributedEngine, EngineConfig};
use ndlog_lang::programs;
use ndlog_net::topology::Metric;
use std::time::{Duration, Instant};

const LINK: &str = "link_hops";
const SHORTEST: &str = "shortestPath_hops";
const THREADS: usize = 2;
/// Cold starts per run, whatever `--seconds` allows.
const MIN_SAMPLES: usize = 3;
/// Set-ups per run: every cold start sets up, and set-up-only rounds make
/// up the rest, so `setup_s` is a median of this many.
const MIN_SETUPS: usize = 9;

/// Build a ready-to-run engine: topology, compile, engine, link facts.
fn set_up() -> (Testbed, DistributedEngine) {
    let testbed = Testbed::build(&setup::large());
    let plan = setup::compile(|| programs::shortest_path("hops"));
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    config.max_seconds = 300.0;
    config.parallelism = THREADS;
    let mut engine = setup::engine(&testbed, &plan, config);
    setup::load(&mut engine, LINK, &testbed, Metric::HopCount);
    (testbed, engine)
}

pub fn run(args: &Args) -> Run {
    let mut outcome = Outcome::default();
    let mut timed = Timed::default();
    let (mut setups, mut walls, mut wire_kb) = (Vec::new(), Vec::new(), Vec::new());
    let mut oracle_costs: Option<Vec<Vec<f64>>> = None;
    let mut last: Option<DistributedEngine> = None;
    let start = Instant::now();
    let mut last_sample = Duration::ZERO;
    while another(start, args.seconds, walls.len(), MIN_SAMPLES, last_sample) {
        let began = Instant::now();
        // One engine at a time: the previous sample's goes before the
        // next set-up.
        drop(last.take());
        let t = Instant::now();
        let (testbed, mut engine) = set_up();
        setups.push(t.elapsed().as_secs_f64());

        timed.start();
        let t = Instant::now();
        let report =
            span("core", "run_to_quiescence", || engine.run_to_quiescence()).expect("converge run");
        walls.push(t.elapsed().as_secs_f64() * 1e3);
        timed.stop();

        let oracle = oracle_costs.get_or_insert_with(|| {
            oracle::all_pairs(testbed.node_count(), &testbed.costs(Metric::HopCount))
        });
        let check = oracle::check_shortest_paths(&engine.results(SHORTEST), oracle);
        outcome.check(
            check.checked + 1,
            check.failed() + u64::from(!report.quiesced),
        );
        wire_kb.push(engine.stats().total_bytes() as f64 / 1e3);
        last = Some(engine);
        last_sample = began.elapsed();
    }
    let engine = last.take().expect("at least one sample");
    while setups.len() < MIN_SETUPS {
        let t = Instant::now();
        let extra = set_up();
        setups.push(t.elapsed().as_secs_f64());
        drop(extra);
    }
    outcome.set("setup_s", stats::median(&setups));
    outcome.set("latency_p50_ms", stats::median(&walls));
    outcome.set("wire_kb_per_op", stats::median(&wire_kb));
    outcome.note(
        "op",
        "one cold convergence (run_to_quiescence) at 2 threads",
    );
    outcome.note("samples", walls.len());
    outcome.note("walls_ms", format!("{walls:.0?}"));

    let mut setup_count = setups.len() as u64;
    if args.traced {
        layer_metrics(&mut outcome, &engine, &walls);
        // The 1-thread run gives the executor's speedup and the
        // thread-count identity check.
        let (_, mut serial) = set_up();
        setup_count += 1;
        span("core", "set_parallelism", || serial.set_parallelism(1));
        let t = Instant::now();
        span("core", "run_to_quiescence", || serial.run_to_quiescence()).expect("serial run");
        let serial_ms = t.elapsed().as_secs_f64() * 1e3;
        outcome.set("exec.speedup_2t", serial_ms / stats::median(&walls));
        let identical = span("core", "check_bitwise_identical", || {
            ndlog_core::consistency::check_bitwise_identical(&serial, &engine)
        });
        if let Err(diff) = &identical {
            outcome.note("identity", diff);
        }
        outcome.check(1, u64::from(identical.is_err()));
    }
    Run {
        outcome,
        setups: setup_count,
        timed_ns: timed.total_ns,
    }
}

/// Counters read from the last sample's engine (identical every sample).
pub fn layer_metrics(outcome: &mut Outcome, engine: &DistributedEngine, walls: &[f64]) {
    Counters::read(engine).report(outcome);
    outcome.set(
        "net.sim_converge_s",
        engine.convergence(SHORTEST).convergence_seconds,
    );
    outcome.set("core.run_ms", stats::median(walls));
    let arena = engine.arena_stats();
    outcome.set("exec.arena_demand_mb", arena.demand_bytes as f64 / 1e6);
    outcome.set(
        "exec.arena_allocated_mb",
        arena.allocated_bytes() as f64 / 1e6,
    );
    outcome.set("exec.arena_rents", arena.rents as f64);
    outcome.set(
        "exec.arena_reuse_share",
        arena.reuses as f64 / arena.rents.max(1) as f64,
    );
}
