//! The metric registry (names and units exactly as `BENCHMARK.json`
//! declares them) and the result record every workload fills.

use std::collections::BTreeMap;

/// Measured with tracing off; every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("wire_kb_per_op", "KB"),
    ("peak_rss_mb", "MB"),
];

/// Measured in the traced run. A layer that does no work on a workload
/// reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.compile_ms", "ms"),
    ("lang.parse_us", "us"),
    ("net.topology_ms", "ms"),
    ("net.messages", "count"),
    ("net.bytes_per_message", "B"),
    ("net.sim_converge_s", "s"),
    ("net.fault_dropped", "count"),
    ("net.fault_duplicated", "count"),
    ("net.fault_delayed", "count"),
    ("core.engine_new_ms", "ms"),
    ("core.load_ms", "ms"),
    ("core.run_ms", "ms"),
    ("core.inject_ms", "ms"),
    ("core.propagate_ms", "ms"),
    ("core.deliveries", "count"),
    ("core.receive_batches", "count"),
    ("core.batch_width", "ratio"),
    ("core.pruned", "count"),
    ("core.result_changes", "count"),
    ("core.refresh_ticks", "count"),
    ("core.refresh_reannounced", "count"),
    ("core.dropped_inserts", "count"),
    ("core.repaired", "count"),
    ("exec.arena_demand_mb", "MB"),
    ("exec.arena_allocated_mb", "MB"),
    ("exec.arena_rents", "count"),
    ("exec.arena_reuse_share", "ratio"),
    ("exec.speedup_2t", "x"),
    ("runtime.derivations", "count"),
    ("runtime.redundant_share", "ratio"),
    ("runtime.logical_probes", "count"),
    ("runtime.distinct_share", "ratio"),
    ("runtime.tuples_examined", "count"),
    ("runtime.scans", "count"),
    ("runtime.update_ms", "ms"),
    ("runtime.derivations_per_commit", "count"),
    ("serve.execute_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.commit_p90_ms", "ms"),
    ("serve.commit_p99_ms", "ms"),
    ("serve.query_p50_ms", "ms"),
    ("serve.query_p90_ms", "ms"),
    ("serve.notify_p50_ms", "ms"),
    ("serve.notify_p99_ms", "ms"),
    ("serve.ops_per_s", "1/s"),
    ("serve.commits", "count"),
    ("serve.deltas_per_commit", "count"),
    ("serve.silent_commits", "count"),
    ("serve.query_rows", "count"),
    ("serve.commit_log_len", "count"),
    ("serve.err_replies", "count"),
    ("trace.spans", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations (routes compared, statements sent, streams
    /// replayed, identity checks).
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Context printed beside the metrics: sample counts, named
    /// percentiles, check breakdowns.
    pub detail: BTreeMap<&'static str, String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unregistered metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.detail.insert(key, value.to_string());
    }

    /// Count `failed` of `attempted` checked operations.
    pub fn check(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

fn quote(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The context line printed before the result.
pub fn detail_line(outcome: &Outcome, host: &[(&str, String)]) -> String {
    let fields: Vec<String> = host
        .iter()
        .map(|(k, v)| (*k, v))
        .chain(outcome.detail.iter().map(|(k, v)| (*k, v)))
        .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
        .collect();
    format!("{{\"detail\": {{{}}}}}", fields.join(", "))
}

/// The result line: the `traced` registry's metrics, with 0 for layers
/// that did no work. Fails if an end-to-end metric was not measured.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let registry = if traced { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in registry {
        let value = match outcome.values.get(name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("{name} has no value (too few samples?)"));
        }
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(name),
            value,
            quote(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`s listed in one top-level array of `BENCHMARK.json`.
    fn declared(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn every_emitted_name_is_declared_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let names = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(declared(&json, "end_to_end"), names(END_TO_END));
        assert_eq!(declared(&json, "per_layer"), names(PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} is declared with unit {unit}"
            );
        }
        let workloads = declared(&json, "workloads");
        for w in &workloads {
            assert!(crate::WORKLOADS.contains(&w.as_str()), "{w} is runnable");
        }
    }

    #[test]
    fn result_line_has_exactly_the_registry() {
        let mut outcome = Outcome::default();
        for (name, _) in END_TO_END {
            outcome.set(name, 1.5);
        }
        outcome.check(10, 0);
        let line = result_line(&outcome, false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        let traced = result_line(&outcome, true).unwrap();
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
        outcome.values.remove("setup_s");
        assert!(result_line(&outcome, false).is_err());
    }
}
