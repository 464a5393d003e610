//! `serve`: the line-protocol service on loopback TCP, running the
//! two-hop distance-vector program over the 14-node overlay's links. One
//! writer connection works as a closed loop — seeded link-cost updates,
//! with a `bestRoute` query in about every tenth statement — while one
//! subscriber connection on `bestRoute` is read continuously by its own
//! thread. This exercises the centralized evaluator, line parsing, the
//! engine lock, tap fan-out and socket writes, and none of the
//! distributed engine.

use crate::metrics::Outcome;
use crate::oracle::{self, Links};
use crate::rng::Rng;
use crate::setup::Testbed;
use crate::stats;
use crate::trace::{span, Timed};
use crate::{Args, Run};
use ndlog_lang::ast::Program;
use ndlog_lang::interactive::{Command, Op};
use ndlog_lang::optimizer::{optimize, Pipeline};
use ndlog_lang::{parse_command, programs, Value};
use ndlog_net::gtitm::TransitStubConfig;
use ndlog_net::topology::Metric;
use ndlog_net::NodeAddr;
use ndlog_runtime::{EvalStats, Evaluator, Strategy, Tuple, TupleDelta};
use ndlog_serve::service::{self, Server};
use ndlog_serve::{NullSink, Service, Session};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const MAX_HOPS: u32 = 2;
const SETUPS: usize = 9;
/// Tails reported for commits, queries and notifications.
const P90: usize = 900;
const P99: usize = 990;
/// A reply that takes longer than this counts as a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
const HARD_STOP: Duration = Duration::from_secs(120);
/// The service keeps every committed batch, so its memory grows with the
/// number of commits, which a faster program makes in the same time:
/// peak memory is read after this many commits (every run makes them).
const RSS_AT_COMMIT: usize = 1000;

/// A route row: `bestRoute(S, D, Z, C)`.
type Route = (NodeAddr, NodeAddr, NodeAddr, f64);

fn program() -> Program {
    programs::distance_vector("", MAX_HOPS)
}

fn addr(text: &str) -> Option<NodeAddr> {
    text.strip_prefix("@n")?.parse().ok().map(NodeAddr::new)
}

/// Parse `bestRoute(@n0, @n3, @n1, 12.5)`.
fn parse_route(text: &str) -> Option<Route> {
    let inner = text.strip_prefix("bestRoute(")?.strip_suffix(')')?;
    let f: Vec<&str> = inner.split(", ").collect();
    match f.as_slice() {
        [s, d, z, c] => Some((addr(s)?, addr(d)?, addr(z)?, c.parse().ok()?)),
        _ => None,
    }
}

/// Costs with two decimals, so the statement text carries them exactly.
fn cents(cost: f64) -> f64 {
    ((cost * 100.0).round() / 100.0).max(0.01)
}

/// One line-protocol connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    wire_bytes: u64,
}

/// A command's reply: payload lines and the terminator.
struct Reply {
    payload: Vec<String>,
    terminator: String,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let mut client = Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            wire_bytes: 0,
        };
        client.line()?; // `hello <session>`
        Ok(client)
    }

    fn line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        self.wire_bytes += line.len() as u64;
        Ok(line.trim_end().to_string())
    }

    fn send(&mut self, statement: &str) -> std::io::Result<Reply> {
        writeln!(self.writer, "{statement}")?;
        self.wire_bytes += statement.len() as u64 + 1;
        let mut payload = Vec::new();
        loop {
            let line = self.line()?;
            if line == "ok" || line == "bye" || line.starts_with("ok ") || line.starts_with("err ")
            {
                return Ok(Reply {
                    payload,
                    terminator: line,
                });
            }
            payload.push(line);
        }
    }
}

/// A delta line as the subscriber saw it.
struct Seen {
    epoch: u64,
    at: Instant,
    insert: bool,
    route: Option<Route>,
}

fn parse_delta(line: &str, at: Instant) -> Option<Seen> {
    let mut parts = line.splitn(4, ' ');
    let (_, _, epoch, delta) = (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
    let (insert, body) = match delta.as_bytes().first()? {
        b'+' => (true, &delta[1..]),
        b'-' => (false, &delta[1..]),
        _ => return None,
    };
    Some(Seen {
        epoch: epoch.parse().ok()?,
        at,
        insert,
        route: parse_route(body),
    })
}

/// A running service with its two connections.
struct Rig {
    service: Arc<Service>,
    server: Server,
    writer: Client,
    /// The subscriber's write half (for `.quit`) and reader thread.
    subscriber: TcpStream,
    reader: JoinHandle<(Vec<Seen>, u64)>,
    /// The `.subscribe` snapshot.
    snapshot: Vec<Seen>,
    links: Links,
}

/// The small overlay's undirected links with two-decimal latency costs.
fn base_links(testbed: &Testbed) -> Links {
    testbed
        .links
        .iter()
        .map(|l| ((l.src, l.dst), cents(l.cost(Metric::Latency))))
        .collect()
}

fn link_delta(s: NodeAddr, d: NodeAddr, c: f64) -> TupleDelta {
    TupleDelta::insert(
        "link",
        Tuple::new(vec![Value::Addr(s), Value::Addr(d), Value::Float(c)]),
    )
}

/// A service preloaded with the program and the link facts.
fn loaded_service(links: &Links) -> Arc<Service> {
    let program = span("lang", "parse", program);
    let service = span("serve", "from_program", || Service::from_program(&program))
        .expect("distance-vector program plans");
    let session = service.open_session(Arc::new(NullSink));
    let deltas = links
        .iter()
        .map(|(&(s, d), &c)| link_delta(s, d, c))
        .collect();
    span("serve", "apply_batch", || session.apply_batch(deltas)).expect("links load");
    session.close();
    service
}

fn set_up() -> std::io::Result<Rig> {
    let testbed = Testbed::build(&TransitStubConfig::small());
    let links = base_links(&testbed);
    let service = loaded_service(&links);
    let server = span("serve", "start", || {
        service::start(Arc::clone(&service), "127.0.0.1:0")
    })?;
    let writer = span("serve", "connect", || Client::connect(server.addr()))?;
    let mut sub = span("serve", "connect", || Client::connect(server.addr()))?;
    let reply = span("serve", "subscribe", || sub.send(".subscribe bestRoute"))?;
    let now = Instant::now();
    let snapshot = reply
        .payload
        .iter()
        .filter_map(|l| parse_delta(l, now))
        .collect();
    if !reply.terminator.starts_with("ok ") {
        return Err(std::io::Error::other(reply.terminator));
    }
    let subscriber = sub.writer.try_clone()?;
    sub.reader.get_ref().set_read_timeout(None)?;
    let reader = std::thread::spawn(move || {
        let mut seen = Vec::new();
        while let Ok(line) = sub.line() {
            if line == "bye" {
                break;
            }
            if line.starts_with("delta ") {
                if let Some(s) = parse_delta(&line, Instant::now()) {
                    seen.push(s);
                }
            }
        }
        (seen, sub.wire_bytes)
    });
    Ok(Rig {
        service,
        server,
        writer,
        subscriber,
        reader,
        snapshot,
        links,
    })
}

impl Rig {
    /// Quit both connections, join the reader and stop the server.
    /// Returns the subscriber's stream (snapshot first) and the bytes
    /// both connections moved.
    fn close(mut self) -> (Vec<Seen>, u64) {
        let _ = self.writer.send(".quit");
        let _ = writeln!(self.subscriber, ".quit");
        let (seen, bytes) = self.reader.join().expect("subscriber thread");
        self.server.shutdown();
        let mut stream = self.snapshot;
        stream.extend(seen);
        (stream, bytes + self.writer.wire_bytes)
    }
}

/// When an update statement was sent, and the epoch its commit got.
struct Update {
    sent: Instant,
    epoch: Option<u64>,
}

/// Parse the `epoch N` out of an update's `ok` line.
fn reply_epoch(terminator: &str) -> Option<u64> {
    terminator
        .split("; ")
        .find_map(|part| part.strip_prefix("epoch ")?.parse().ok())
}

fn rows(reply: &Reply) -> Vec<Route> {
    reply
        .payload
        .iter()
        .filter_map(|l| parse_route(l.strip_prefix("row ")?))
        .collect()
}

pub fn run(args: &Args) -> Run {
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut rig = None;
    for _ in 0..SETUPS {
        if let Some(old) = rig.take() {
            Rig::close(old);
        }
        let t = Instant::now();
        rig = Some(set_up().expect("service set-up"));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("set up at least once");
    let base = rig.links.clone();
    let mut links = base.clone();
    let undirected: Vec<(NodeAddr, NodeAddr)> =
        links.keys().copied().filter(|(s, d)| s < d).collect();
    let nodes: Vec<NodeAddr> = links
        .keys()
        .map(|k| k.0)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    let mut rng = Rng::new(args.seed);
    let mut timed = Timed::default();
    let (mut commit_ms, mut query_ms, mut query_rows) = (Vec::new(), Vec::new(), Vec::new());
    let mut updates = Vec::new();
    let mut replay = args.traced.then(|| Replay::new(&base));
    let mut errors = 0u64;
    // A tenth more than p99 needs, so the notify tail has its samples
    // even when a few commits change no route.
    let needed = stats::samples_needed(P99) * 11 / 10;
    let start = Instant::now();
    while (start.elapsed() < args.seconds || commit_ms.len() < needed || query_ms.len() < 100)
        && start.elapsed() < HARD_STOP
    {
        if rng.below(10) == 0 {
            let src = nodes[rng.below(nodes.len())];
            let line = format!("?- bestRoute({src}, D, Z, C).");
            timed.start();
            let t = Instant::now();
            let reply = span("serve", "query", || rig.writer.send(&line));
            let wall = t.elapsed();
            timed.stop();
            let Ok(reply) = reply else {
                outcome.check(1, 1);
                errors += 1;
                break;
            };
            query_ms.push(wall.as_secs_f64() * 1e3);
            let got = rows(&reply);
            query_rows.push(got.len() as f64);
            let check =
                oracle::check_best_routes(&got, &links, &oracle::two_hop_best(&links), Some(src));
            let err = !reply.terminator.starts_with("ok ");
            errors += u64::from(err);
            outcome.check(1, u64::from(err || check.failed() > 0));
        } else {
            let (a, b) = undirected[rng.below(undirected.len())];
            let cost = cents(links[&(a, b)] * (0.9 + 0.2 * rng.unit()));
            let line = format!("+link[({a}, {b}, {cost}), ({b}, {a}, {cost})].");
            timed.start();
            let sent = Instant::now();
            let reply = span("serve", "update", || rig.writer.send(&line));
            let wall = sent.elapsed();
            timed.stop();
            let Ok(reply) = reply else {
                outcome.check(1, 1);
                errors += 1;
                break;
            };
            commit_ms.push(wall.as_secs_f64() * 1e3);
            if commit_ms.len() == RSS_AT_COMMIT {
                outcome.set("peak_rss_mb", crate::host::peak_rss_mb());
            }
            let epoch = reply_epoch(&reply.terminator);
            let err = epoch.is_none();
            errors += u64::from(err);
            outcome.check(1, u64::from(err));
            if !err {
                links.insert((a, b), cost);
                links.insert((b, a), cost);
            }
            if let Some(replay) = &mut replay {
                replay.apply(&line);
            }
            updates.push(Update { sent, epoch });
        }
    }
    let elapsed = timed.total_ns as f64 / 1e9;

    // Final state: every route against the oracle, and the subscriber's
    // snapshot plus deltas replayed against it.
    let last = rig
        .writer
        .send("?- bestRoute(S, D, Z, C).")
        .map(|r| rows(&r));
    let commit_log_len = rig.service.commit_log().len();
    let snapshot_len = rig.snapshot.len();
    let (stream, wire_bytes) = rig.close();
    let final_rows = last.unwrap_or_default();
    let check = oracle::check_best_routes(&final_rows, &links, &oracle::two_hop_best(&links), None);
    outcome.check(check.checked, check.failed());
    let mut streamed: BTreeSet<String> = BTreeSet::new();
    for s in &stream {
        let key = format!("{:?}", s.route);
        if s.insert {
            streamed.insert(key);
        } else {
            streamed.remove(&key);
        }
    }
    let want: BTreeSet<String> = final_rows
        .iter()
        .map(|r| format!("{:?}", Some(*r)))
        .collect();
    let replays = streamed == want && stream.iter().all(|s| s.route.is_some());
    outcome.check(1, u64::from(!replays));
    let seen = &stream[snapshot_len..];

    // Notify latency: send to the last delta carrying the commit's epoch.
    let mut last_seen: BTreeMap<u64, Instant> = BTreeMap::new();
    for s in seen {
        last_seen.insert(s.epoch, s.at);
    }
    let mut notify_ms = Vec::new();
    let mut silent = 0u64;
    for update in &updates {
        if let Some(epoch) = update.epoch {
            match last_seen.get(&epoch) {
                Some(at) => notify_ms.push(at.duration_since(update.sent).as_secs_f64() * 1e3),
                None => silent += 1,
            }
        }
    }

    let ops = (commit_ms.len() + query_ms.len()) as f64;
    outcome.set("setup_s", stats::median(&setups));
    outcome.set("latency_p50_ms", stats::median(&commit_ms));
    outcome.set("wire_kb_per_op", wire_bytes as f64 / 1e3 / ops.max(1.0));
    outcome.note(
        "op",
        "one update statement's round trip on the writer connection",
    );
    outcome.note("samples", commit_ms.len());
    for (key, per_mille) in [("commit_p90_ms", P90), ("commit_p99_ms", P99)] {
        if let Some(v) = stats::percentile(&commit_ms, per_mille) {
            outcome.note(key, format!("{v:.3}"));
        }
    }
    outcome.note("queries", query_ms.len());
    outcome.note("notify_samples", notify_ms.len());
    outcome.note("subscriber_replays_to_final_state", replays);
    outcome.note(
        "final_routes",
        format!("{} checked, {} failed", check.checked, check.failed()),
    );

    let mut setup_count = SETUPS as u64;
    if args.traced {
        let p = |v: &[f64], q| stats::percentile(v, q).unwrap_or(f64::NAN);
        outcome.set("serve.query_p50_ms", stats::median(&query_ms));
        outcome.set("serve.commit_p90_ms", p(&commit_ms, P90));
        outcome.set("serve.commit_p99_ms", p(&commit_ms, P99));
        outcome.set("serve.query_p90_ms", p(&query_ms, P90));
        outcome.set("serve.notify_p50_ms", stats::median(&notify_ms));
        outcome.set("serve.notify_p99_ms", p(&notify_ms, P99));
        outcome.set("serve.ops_per_s", ops / elapsed);
        outcome.set("serve.commits", commit_ms.len() as f64);
        outcome.set(
            "serve.deltas_per_commit",
            seen.len() as f64 / commit_ms.len().max(1) as f64,
        );
        outcome.set("serve.silent_commits", silent as f64);
        outcome.set("serve.query_rows", stats::mean(&query_rows));
        outcome.set("serve.commit_log_len", commit_log_len as f64);
        outcome.set("serve.err_replies", errors as f64);
    }
    if let Some(replay) = &replay {
        replay.report(&mut outcome, stats::median(&commit_ms));
        setup_count += 1;
    }
    Run {
        outcome,
        setups: setup_count,
        timed_ns: timed.total_ns,
    }
}

/// In-process replicas that the traced run feeds each update right after
/// its round trip, so the layer split is timed in the same moments as the
/// round trips: the interactive parser, `Session::execute_line` on a
/// second service, and an `Evaluator` fed through `update_batch`.
struct Replay {
    session: Session,
    eval: Evaluator,
    parse_us: Vec<f64>,
    execute_ms: Vec<f64>,
    update_ms: Vec<f64>,
    work: EvalStats,
}

impl Replay {
    fn new(base: &Links) -> Replay {
        let session = loaded_service(base).open_session(Arc::new(NullSink));
        let optimized = optimize(&program(), &Pipeline::identity()).expect("program optimizes");
        let mut eval = span("runtime", "evaluator_new", || {
            Evaluator::new(&optimized.program)
        })
        .expect("evaluator builds");
        span("runtime", "run", || eval.run(Strategy::Pipelined)).expect("initial fixpoint");
        let load = base
            .iter()
            .map(|(&(s, d), &c)| link_delta(s, d, c))
            .collect();
        span("runtime", "update_batch", || eval.update_batch(load)).expect("links load");
        eval.drain_tap();
        Replay {
            session,
            eval,
            parse_us: Vec::new(),
            execute_ms: Vec::new(),
            update_ms: Vec::new(),
            work: EvalStats::default(),
        }
    }

    fn apply(&mut self, line: &str) {
        let t = Instant::now();
        let command = span("lang", "parse_command", || parse_command(line));
        self.parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let _ = span("serve", "execute_line", || self.session.execute_line(line));
        self.execute_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Ok(Some(Command::Update(update))) = command {
            let deltas = update
                .tuples
                .into_iter()
                .map(|values| match update.op {
                    Op::Insert => TupleDelta::insert(update.relation.clone(), Tuple::new(values)),
                    Op::Delete => TupleDelta::delete(update.relation.clone(), Tuple::new(values)),
                })
                .collect();
            let t = Instant::now();
            let stats = span("runtime", "update_batch", || self.eval.update_batch(deltas))
                .expect("replica update");
            self.update_ms.push(t.elapsed().as_secs_f64() * 1e3);
            self.work += stats;
            self.eval.drain_tap();
        }
    }

    fn report(&self, outcome: &mut Outcome, commit_p50_ms: f64) {
        outcome.set("lang.parse_us", stats::median(&self.parse_us));
        let execute = stats::median(&self.execute_ms);
        outcome.set("serve.execute_ms", execute);
        outcome.set("serve.wire_ms", commit_p50_ms - execute);
        outcome.set("runtime.update_ms", stats::median(&self.update_ms));
        let w = &self.work;
        let derivations = w.derivations as f64;
        outcome.set(
            "runtime.derivations_per_commit",
            derivations / self.update_ms.len().max(1) as f64,
        );
        outcome.set("runtime.derivations", derivations);
        outcome.set(
            "runtime.redundant_share",
            w.redundant_derivations as f64 / derivations.max(1.0),
        );
        let logical = w.logical_probes as f64;
        outcome.set("runtime.logical_probes", logical);
        outcome.set(
            "runtime.distinct_share",
            w.distinct_probes as f64 / logical.max(1.0),
        );
        outcome.set("runtime.tuples_examined", w.tuples_examined as f64);
        outcome.set("runtime.scans", w.scans as f64);
    }
}
