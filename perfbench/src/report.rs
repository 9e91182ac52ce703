//! Metric definitions (the same names, units and directions as
//! `BENCHMARK.json`) and the result every run prints.

use std::collections::BTreeMap;

/// Benchmarks by short name, in Table 2 order.
pub const BENCHES: [&str; 6] = ["vpr", "gzip", "mcf", "parser", "equake", "mesa"];

/// The four full-timing presets the sim sweep covers.
pub const PRESETS: [&str; 4] = ["orig", "wth-wp", "wth-wp-wec", "nlp"];

/// End-to-end metrics: `(name, unit, better, bound)`.  Every workload
/// reports every one of them from its untraced run.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("pass_share", "share", "higher", 0.001),
    ("ops_per_s", "1/s", "higher", 0.2),
    ("p50_ms", "ms", "lower", 0.25),
    ("p90_ms", "ms", "lower", 0.25),
];

/// Per-layer metrics: `(name, unit, better)`, reported by the traced run.
/// A metric of a layer the workload does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |n: &str, u: &'static str, b: &'static str| v.push((n.to_string(), u, b));
    add("workloads.build_s", "s", "lower");
    add("runner.sims", "count", "higher");
    add("runner.busy_share", "share", "higher");
    for b in BENCHES {
        add(&format!("core.run_s.{b}"), "s", "lower");
    }
    for p in PRESETS {
        add(&format!("core.ns_per_kinst.{p}"), "ns", "lower");
    }
    add("core.cycles", "count", "lower");
    add("core.correct_inst", "count", "higher");
    add("core.wrong_inst", "count", "lower");
    add("core.wrong_share", "share", "lower");
    add("core.capture_overhead", "x", "lower");
    add("trace.decode_s", "s", "lower");
    add("trace.slab_build_s", "s", "lower");
    add("trace.records", "count", "higher");
    for b in BENCHES {
        add(&format!("trace.replay_ns_per_rec.{b}"), "ns", "lower");
    }
    add("trace.busy_share", "share", "higher");
    add("mem.probes", "count", "higher");
    add("mem.ns_per_probe", "ns", "lower");
    add("serve.healthz_ms.p50", "ms", "lower");
    add("serve.submit_ms.p50", "ms", "lower");
    add("serve.submit_ms.p99", "ms", "lower");
    add("serve.poll_ms.p50", "ms", "lower");
    add("serve.polls_per_job", "count", "lower");
    add("serve.queue_wait_ms.p50", "ms", "lower");
    add("serve.queue_wait_ms.p90", "ms", "lower");
    add("serve.exec_ms.p50", "ms", "lower");
    add("serve.exec_ms.p90", "ms", "lower");
    add("serve.source.cold", "count", "lower");
    add("serve.source.disk", "count", "higher");
    add("serve.source.mem", "count", "higher");
    add("serve.source.spec", "count", "higher");
    add("serve.dedup_share", "share", "higher");
    add("serve.rejected", "count", "lower");
    add("serve.late_ms.p99", "ms", "lower");
    add("serve.warm_p50_ms", "ms", "lower");
    add("serve.warm_p99_ms", "ms", "lower");
    add("serve.cold_p50_ms", "ms", "lower");
    add("serve.cold_p90_ms", "ms", "lower");
    add("serve.slo_share", "share", "higher");
    add("bench.fail_share", "share", "lower");
    add("bench.trace_overhead_s", "s", "lower");
    v
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// `name -> (value, sample count)`.
    values: BTreeMap<String, (f64, Option<usize>)>,
    pub attempted: u64,
    pub failed: u64,
    /// Lines printed before the metrics (output checks, tails, notes).
    notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), (v, None));
    }

    /// A statistic over `n` raw samples.
    pub fn set_n(&mut self, name: &str, v: f64, n: usize) {
        self.values.insert(name.to_string(), (v, Some(n)));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count one operation; a failed one also counts against `pass_share`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// One output check: counted like an operation, and printed.
    pub fn check(&mut self, what: &str, ok: bool, detail: &str) {
        self.op(ok);
        self.notes.push(format!(
            "check {what}: {}{}{detail}",
            if ok { "ok" } else { "FAILED" },
            if detail.is_empty() { "" } else { ": " }
        ));
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Print the notes, one line per metric of the requested set (with
    /// unit, direction and sample count), and last the result object.
    pub fn print(&self, traced: bool) {
        for n in &self.notes {
            println!("{n}");
        }
        let defs: Vec<(String, &str, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u, b, _)| (n.to_string(), u, b))
                .collect()
        };
        let mut json = String::new();
        for (name, unit, better) in &defs {
            let (v, n) = match self.values.get(name) {
                Some(&(v, n)) if v.is_finite() => (v, n),
                _ => (0.0, None),
            };
            let samples = n.map_or(String::new(), |n| format!(" (n={n})"));
            println!("metric {name} = {v} {unit} ({better} is better){samples}");
            if !json.is_empty() {
                json.push(',');
            }
            json.push_str(&format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wec_telemetry::json::{self, Json};

    fn manifest_list(key: &str) -> Vec<Json> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let m = json::parse(&text).expect("BENCHMARK.json parses");
        m.get(key).and_then(Json::as_array).expect(key).to_vec()
    }

    fn field<'a>(item: &'a Json, k: &str) -> &'a str {
        item.get(k).and_then(Json::as_str).expect(k)
    }

    #[test]
    fn definitions_match_the_manifest() {
        let e2e = manifest_list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (item, &(name, unit, better, bound)) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(
                (
                    field(item, "name"),
                    field(item, "unit"),
                    field(item, "better")
                ),
                (name, unit, better)
            );
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(bound));
        }
        let layer = manifest_list("per_layer");
        let defs = per_layer();
        assert_eq!(layer.len(), defs.len());
        for (item, (name, unit, better)) in layer.iter().zip(defs.iter()) {
            assert_eq!(
                (
                    field(item, "name"),
                    field(item, "unit"),
                    field(item, "better")
                ),
                (name.as_str(), *unit, *better)
            );
        }
    }

    #[test]
    fn failed_checks_count_against_pass_share() {
        let mut r = Report::default();
        r.op(true);
        r.check("tampered", false, "");
        assert_eq!(r.attempted, 2);
        assert_eq!(r.failed, 1);
        assert_eq!(r.fail_share(), 0.5);
    }
}
