//! `churn`: random-metric shortest paths (the paper's Fig 13 stress
//! metric) on the 52-node overlay, converged before timing starts, then a
//! seeded closed-loop stream of single-link events — cost changes of
//! ±10%, link failures, link repairs — each injected and run to
//! quiescence on one executor thread before the next. Deletions and
//! replacements drive DRed and aggregate re-selection; epochs are small,
//! so batching and the parallel executor barely help. Events run in
//! episodes of [`EPISODE`], each on a freshly converged network.

use crate::metrics::Outcome;
use crate::oracle::{self, Links};
use crate::rng::Rng;
use crate::setup::{self, Counters, Testbed};
use crate::stats;
use crate::trace::{span, Timed};
use crate::{Args, Run};
use ndlog_core::{DistributedEngine, EngineConfig, LinkUpdate};
use ndlog_lang::programs;
use ndlog_net::gtitm::TransitStubConfig;
use ndlog_net::topology::Metric;
use ndlog_net::NodeAddr;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const LINK: &str = "link_random";
const SHORTEST: &str = "shortestPath_random";
/// Events per episode: each episode sets up and converges a fresh
/// network, so every event meets a network at most this far from a
/// clean start.
const EPISODE: usize = 200;
/// The tail is p90, which needs 100 events.
const TAIL_PER_MILLE: usize = 900;
/// Routes are checked against the oracle after every this many events,
/// outside the timed region, and at the end of each episode.
const CHECK_EVERY: usize = 25;
/// At most this many links are down at once.
const MAX_DOWN: usize = 3;
/// A run stops taking events after this long even if the tail still
/// lacks samples.
const HARD_STOP: Duration = Duration::from_secs(120);

/// One single-link event on the undirected link `(a, b)`.
#[derive(Debug, Clone, Copy)]
enum Event {
    Cost {
        a: NodeAddr,
        b: NodeAddr,
        old: f64,
        new: f64,
    },
    Down {
        a: NodeAddr,
        b: NodeAddr,
        cost: f64,
    },
    Up {
        a: NodeAddr,
        b: NodeAddr,
        cost: f64,
    },
}

/// The link state the event stream walks and the oracle reads.
struct LinkState {
    up: BTreeMap<(NodeAddr, NodeAddr), f64>,
    down: Vec<((NodeAddr, NodeAddr), f64)>,
}

impl LinkState {
    fn new(testbed: &Testbed) -> LinkState {
        let up = testbed
            .links
            .iter()
            .filter(|l| l.src < l.dst)
            .map(|l| ((l.src, l.dst), l.cost(Metric::Random)))
            .collect();
        LinkState {
            up,
            down: Vec::new(),
        }
    }

    /// Draw the next event from `rng` and apply it to the state.
    fn next(&mut self, rng: &mut Rng) -> Event {
        let r = rng.unit();
        if !self.down.is_empty() && (r < 0.2 || self.down.len() >= MAX_DOWN) {
            let ((a, b), cost) = self.down.swap_remove(rng.below(self.down.len()));
            self.up.insert((a, b), cost);
            return Event::Up { a, b, cost };
        }
        let (&(a, b), &old) = self
            .up
            .iter()
            .nth(rng.below(self.up.len()))
            .expect("links up");
        if r < 0.4 {
            self.up.remove(&(a, b));
            self.down.push(((a, b), old));
            Event::Down { a, b, cost: old }
        } else {
            let new = old * if rng.unit() < 0.5 { 0.9 } else { 1.1 };
            self.up.insert((a, b), new);
            Event::Cost { a, b, old, new }
        }
    }

    /// Directed costs of the links currently up.
    fn directed(&self) -> Links {
        self.up
            .iter()
            .flat_map(|(&(a, b), &c)| [((a, b), c), ((b, a), c)])
            .collect()
    }
}

fn set_up() -> (Testbed, DistributedEngine) {
    let testbed = Testbed::build(&TransitStubConfig::medium());
    let plan = setup::compile(|| programs::shortest_path("random"));
    let mut config = EngineConfig::default();
    config.node.aggregate_selections = true;
    config.max_seconds = 300.0;
    let mut engine = setup::engine(&testbed, &plan, config);
    setup::load(&mut engine, LINK, &testbed, Metric::Random);
    (testbed, engine)
}

fn inject(engine: &mut DistributedEngine, event: Event) {
    let link = |s, d, c| setup::link_tuple(s, d, c);
    match event {
        Event::Cost { a, b, old, new } => span("core", "apply_link_update", || {
            let update = LinkUpdate {
                a,
                b,
                old_cost: old,
                new_cost: new,
            };
            engine.apply_link_update(LINK, &update)
        }),
        Event::Down { a, b, cost } => span("core", "link_down", || {
            engine.delete_base(a, LINK, link(a, b, cost))?;
            engine.delete_base(b, LINK, link(b, a, cost))
        }),
        Event::Up { a, b, cost } => span("core", "link_up", || {
            engine.insert_base(a, LINK, link(a, b, cost))?;
            engine.insert_base(b, LINK, link(b, a, cost))
        }),
    }
    .expect("link event applies");
}

/// Compare the routes with Dijkstra on the current link costs.
fn check(
    engine: &DistributedEngine,
    n: usize,
    state: &LinkState,
    outcome: &mut Outcome,
) -> oracle::RouteCheck {
    let oracle = oracle::all_pairs(n, &state.directed());
    let result = oracle::check_shortest_paths(&engine.results(SHORTEST), &oracle);
    outcome.check(result.checked, result.failed());
    result
}

pub fn run(args: &Args) -> Run {
    let mut outcome = Outcome::default();
    let mut rng = Rng::new(args.seed);
    let mut timed = Timed::default();
    let (mut setups, mut primes) = (Vec::new(), Vec::new());
    let (mut walls, mut inject_ms, mut propagate_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wire_kb, mut sim_s) = (Vec::new(), Vec::new());
    let mut kinds = [0u64; 3];
    let mut work = Counters::default();
    let mut first_episode = Vec::new();
    let needed = stats::samples_needed(TAIL_PER_MILLE);
    let more = |start: Instant, events: usize| {
        (start.elapsed() < args.seconds || events < needed) && start.elapsed() < HARD_STOP
    };
    let start = Instant::now();
    while more(start, walls.len()) {
        let t = Instant::now();
        let (testbed, mut engine) = set_up();
        setups.push(t.elapsed().as_secs_f64());
        let n = testbed.node_count();
        let t = Instant::now();
        let prime =
            span("core", "run_to_quiescence", || engine.run_to_quiescence()).expect("prime");
        primes.push(t.elapsed().as_secs_f64() * 1e3);
        outcome.check(1, u64::from(!prime.quiesced));
        let mut state = LinkState::new(&testbed);
        let mut checkpoints = vec![check(&engine, n, &state, &mut outcome)];
        let before = Counters::read(&engine);

        let mut events = 0;
        while events < EPISODE && more(start, walls.len()) {
            let event = state.next(&mut rng);
            kinds[match event {
                Event::Cost { .. } => 0,
                Event::Down { .. } => 1,
                Event::Up { .. } => 2,
            }] += 1;
            let (bytes, sim) = (engine.stats().total_bytes(), engine.now_seconds());
            timed.start();
            let t = Instant::now();
            inject(&mut engine, event);
            let injected = t.elapsed();
            let report = span("core", "run_to_quiescence", || engine.run_to_quiescence())
                .expect("reconverge");
            let wall = t.elapsed();
            timed.stop();
            events += 1;
            outcome.check(1, u64::from(!report.quiesced));
            walls.push(wall.as_secs_f64() * 1e3);
            inject_ms.push(injected.as_secs_f64() * 1e3);
            propagate_ms.push((wall - injected).as_secs_f64() * 1e3);
            wire_kb.push((engine.stats().total_bytes() - bytes) as f64 / 1e3);
            sim_s.push(engine.now_seconds() - sim);
            if events % CHECK_EVERY == 0 || events == EPISODE {
                checkpoints.push(check(&engine, n, &state, &mut outcome));
            }
        }
        if events % CHECK_EVERY != 0 {
            checkpoints.push(check(&engine, n, &state, &mut outcome));
        }
        work.add(&Counters::read(&engine).since(&before));
        if first_episode.is_empty() {
            first_episode = checkpoints;
        }
    }

    outcome.set("setup_s", stats::median(&setups));
    outcome.set("latency_p50_ms", stats::median(&walls));
    outcome.set("wire_kb_per_op", stats::median(&wire_kb));
    outcome.note(
        "op",
        "one single-link event injected and run to quiescence at 1 thread",
    );
    outcome.note("samples", walls.len());
    outcome.note("episodes", setups.len());
    outcome.note("prime_ms", format!("{:.1}", stats::median(&primes)));
    if let Some(p90) = stats::percentile(&walls, TAIL_PER_MILLE) {
        outcome.note("p90_ms", format!("{p90:.3}"));
    }
    outcome.note("events_cost_down_up", format!("{kinds:?}"));
    let summary: Vec<String> = first_episode
        .iter()
        .map(|c| format!("{}/{}/{}", c.wrong, c.cheaper, c.missing))
        .collect();
    outcome.note(
        "first_episode_routes_wrong_cheaper_missing",
        format!("{} (at 0, {CHECK_EVERY}, .. events)", summary.join(" ")),
    );
    if args.traced {
        work.report(&mut outcome);
        outcome.set("core.inject_ms", stats::median(&inject_ms));
        outcome.set("core.propagate_ms", stats::median(&propagate_ms));
        outcome.set("net.sim_converge_s", stats::median(&sim_s));
    }
    Run {
        outcome,
        setups: setups.len() as u64,
        timed_ns: timed.total_ns,
    }
}
