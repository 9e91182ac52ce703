//! Rejection corpus for every JSON schema in `wec_telemetry::schema`.
//!
//! One good document per schema — taken from the real emitter where one
//! exists — is walked node by node, and three mutations are generated
//! mechanically:
//!
//! * `drop P` — remove the object field at path `P`;
//! * `retype P` — replace the value at `P` with a value of another JSON
//!   type (number→string, string→number, bool→string, null→bool,
//!   array→object, object→array);
//! * `extra P` — add an unknown field `zz_unknown: 1` to the object at `P`.
//!
//! Every mutation must be rejected, except the ones listed in [`ACCEPTED`]:
//! optional fields, string-keyed maps of counters, and objects whose extra
//! keys the schema tolerates.  The corpus therefore pins what each
//! validator accepts and rejects in both directions.  After the walk, one
//! hand-written case per cross-field invariant must also be rejected.

use std::sync::atomic::{AtomicUsize, Ordering};

use wec_telemetry::attr::{AttrProbe, AttributionReport, FillOrigin};
use wec_telemetry::event::TraceEvent;
use wec_telemetry::json::{self, Json};
use wec_telemetry::profile::{CycleProfiler, PhaseNs};
use wec_telemetry::report::{ProgressWriter, RunManifest, SlowPoint};
use wec_telemetry::schema;

/// Mutations the validators accept, as `(document, mutation)`.
const ACCEPTED: &[(&str, &str)] = &[
    // Histogram entries are a map; each entry tolerates extra keys, and a
    // bucket's lower bound is not type-checked.
    ("histograms.json", "drop load_to_fill"),
    ("histograms.json", "extra load_to_fill"),
    ("histograms.json", "retype load_to_fill.buckets[0][0]"),
    ("histograms.json", "retype load_to_fill.buckets[1][0]"),
    // Perfetto events carry free-form extra keys; `tid` defaults to 0.
    ("trace.perfetto.json", "extra ."),
    ("trace.perfetto.json", "extra traceEvents[0]"),
    ("trace.perfetto.json", "drop traceEvents[0].name"),
    ("trace.perfetto.json", "retype traceEvents[0].name"),
    ("trace.perfetto.json", "drop traceEvents[0].tid"),
    ("trace.perfetto.json", "retype traceEvents[0].tid"),
    ("trace.perfetto.json", "extra traceEvents[1]"),
    ("trace.perfetto.json", "extra traceEvents[2]"),
    ("trace.perfetto.json", "extra traceEvents[3]"),
    ("trace.perfetto.json", "drop traceEvents[3].tid"),
    ("trace.perfetto.json", "retype traceEvents[3].tid"),
    // `metrics` maps labels to maps of u64 counters.
    ("run.json", "drop metrics.181.mcf|orig/t8"),
    ("run.json", "extra metrics.181.mcf|orig/t8"),
    ("run.json", "drop metrics.181.mcf|orig/t8.cycles"),
    // The timeliness histogram is held to `count` and `buckets` only.
    ("attribution.json", "extra timeliness"),
    ("attribution.json", "drop timeliness.sum"),
    ("attribution.json", "retype timeliness.sum"),
    ("attribution.json", "drop timeliness.min"),
    ("attribution.json", "retype timeliness.min"),
    ("attribution.json", "drop timeliness.max"),
    ("attribution.json", "retype timeliness.max"),
    ("attribution.json", "retype timeliness.buckets[0][0]"),
    ("attribution.json", "retype timeliness.buckets[1][0]"),
    // Optional fields, and job metrics (a map of u64 counters).
    ("job-record", "drop speculative"),
    ("job-record", "drop backend_id"),
    ("job-record", "extra metrics"),
    ("jobs.jsonl", "extra [0].metrics"),
    ("jobs.jsonl", "extra [1].metrics"),
    ("jobs.jsonl", "extra [2].metrics"),
    ("stats-v1", "drop backend_id"),
    ("router.json", "drop backends[0].stats.backend_id"),
    ("router.json", "drop backends[1].stats.backend_id"),
    ("dashboard.json", "drop samples[0].spec_hit_rate"),
    ("dashboard.json", "retype http[0].buckets[0][0]"),
    ("dashboard.json", "retype http[0].buckets[1][0]"),
];

type Validate = fn(&str) -> Result<(), String>;

struct Doc {
    name: &'static str,
    /// JSONL documents are held as an array of lines.
    jsonl: bool,
    value: Json,
    validate: Validate,
}

impl Doc {
    fn new(name: &'static str, text: &str, validate: Validate) -> Doc {
        let value = json::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        Doc {
            name,
            jsonl: false,
            value,
            validate,
        }
    }

    fn lines(name: &'static str, text: &str, validate: Validate) -> Doc {
        let lines = text
            .lines()
            .map(|l| json::parse(l).unwrap_or_else(|e| panic!("{name}: {e}")))
            .collect();
        Doc {
            name,
            jsonl: true,
            value: Json::Arr(lines),
            validate,
        }
    }

    fn render(&self, v: &Json) -> String {
        match v {
            Json::Arr(lines) if self.jsonl => lines.iter().map(|l| text(l) + "\n").collect(),
            _ => text(v),
        }
    }

    fn verdict(&self, v: &Json) -> Result<(), String> {
        (self.validate)(&self.render(v))
    }
}

fn text(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        // `1e999` parses to infinity; write it back in a parseable form.
        Json::Num(n) if n.is_infinite() => format!("{}1e999", if *n < 0.0 { "-" } else { "" }),
        Json::Num(n) => format!("{n}"),
        Json::Str(s) => {
            let mut out = String::new();
            json::escape_into(&mut out, s);
            out
        }
        Json::Arr(items) => format!("[{}]", items.iter().map(text).collect::<Vec<_>>().join(",")),
        Json::Obj(fields) => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}:{}", text(&Json::Str(k.clone())), text(v)))
                .collect();
            format!("{{{}}}", body.join(","))
        }
    }
}

#[derive(Clone, Debug)]
enum Step {
    Key(String),
    Idx(usize),
}

fn label(path: &[Step]) -> String {
    let mut out = String::new();
    for s in path {
        match s {
            Step::Key(k) if out.is_empty() => out.push_str(k),
            Step::Key(k) => {
                out.push('.');
                out.push_str(k);
            }
            Step::Idx(i) => out.push_str(&format!("[{i}]")),
        }
    }
    if out.is_empty() {
        out.push('.');
    }
    out
}

/// Parse `a.b[2].c` (or `[1].t_ms` for a JSONL line) into steps.
fn parse_path(path: &str) -> Vec<Step> {
    let mut steps = Vec::new();
    for part in path.split('.').filter(|p| !p.is_empty()) {
        let (key, rest) = part.split_at(part.find('[').unwrap_or(part.len()));
        if !key.is_empty() {
            steps.push(Step::Key(key.to_string()));
        }
        for idx in rest.split('[').filter(|s| !s.is_empty()) {
            steps.push(Step::Idx(idx.trim_end_matches(']').parse().unwrap()));
        }
    }
    steps
}

fn node_mut<'a>(mut v: &'a mut Json, path: &[Step]) -> &'a mut Json {
    for s in path {
        v = match (s, v) {
            (Step::Key(k), Json::Obj(fields)) => {
                &mut fields.iter_mut().find(|(name, _)| name == k).unwrap().1
            }
            (Step::Idx(i), Json::Arr(items)) => &mut items[*i],
            (s, _) => panic!("path step {s:?} does not fit the document"),
        };
    }
    v
}

fn edited(root: &Json, path: &[Step], f: impl FnOnce(&mut Json)) -> Json {
    let mut out = root.clone();
    f(node_mut(&mut out, path));
    out
}

fn wrong_type(v: &Json) -> Json {
    match v {
        Json::Num(_) => Json::Str("x".into()),
        Json::Str(_) => Json::Num(7.0),
        Json::Bool(_) => Json::Str("true".into()),
        Json::Null => Json::Bool(false),
        Json::Arr(_) => Json::Obj(Vec::new()),
        Json::Obj(_) => Json::Arr(Vec::new()),
    }
}

/// Every drop/retype/extra mutation of `root`, labelled.
fn mutations(root: &Json) -> Vec<(String, Json)> {
    fn walk(root: &Json, v: &Json, path: &mut Vec<Step>, out: &mut Vec<(String, Json)>) {
        if !path.is_empty() {
            out.push((
                format!("retype {}", label(path)),
                edited(root, path, |n| *n = wrong_type(n)),
            ));
        }
        match v {
            Json::Obj(fields) => {
                out.push((
                    format!("extra {}", label(path)),
                    edited(root, path, |n| {
                        if let Json::Obj(f) = n {
                            f.push(("zz_unknown".into(), Json::Num(1.0)));
                        }
                    }),
                ));
                for (i, (k, child)) in fields.iter().enumerate() {
                    path.push(Step::Key(k.clone()));
                    out.push((
                        format!("drop {}", label(path)),
                        edited(root, &path[..path.len() - 1], |n| {
                            if let Json::Obj(f) = n {
                                f.remove(i);
                            }
                        }),
                    ));
                    walk(root, child, path, out);
                    path.pop();
                }
            }
            Json::Arr(items) => {
                for (i, child) in items.iter().enumerate() {
                    path.push(Step::Idx(i));
                    walk(root, child, path, out);
                    path.pop();
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(root, root, &mut Vec::new(), &mut out);
    out
}

// --- the good documents ---------------------------------------------------

fn events_doc() -> String {
    let all = [
        TraceEvent::WrongLoadIssue {
            tu: 1,
            addr: 64,
            wrong_thread: true,
        },
        TraceEvent::WecFill { tu: 1, addr: 64 },
        TraceEvent::WecHit {
            tu: 0,
            addr: 64,
            wrong_fetched: true,
            prefetched: false,
        },
        TraceEvent::VictimTransfer { tu: 2, addr: 128 },
        TraceEvent::NextLinePrefetch { tu: 2, addr: 192 },
        TraceEvent::L1Miss {
            tu: 0,
            addr: 256,
            wrong: false,
        },
        TraceEvent::L2Miss {
            addr: 256,
            wrong: true,
        },
        TraceEvent::PipelineFlush {
            tu: 3,
            pc: 10,
            new_pc: 20,
            squashed: 4,
        },
        TraceEvent::Commit {
            tu: 0,
            seq: 1,
            pc: 2,
            op: "nop".into(),
        },
        TraceEvent::Begin { region: 1, head: 5 },
        TraceEvent::Fork {
            parent: 5,
            child: 6,
            tu: 1,
            deferred: false,
        },
        TraceEvent::ThreadStart { id: 6, tu: 1 },
        TraceEvent::Abort { id: 5 },
        TraceEvent::MarkedWrong { id: 6 },
        TraceEvent::Killed { id: 7, tu: 2 },
        TraceEvent::WrongDied { id: 6 },
        TraceEvent::WbStart { id: 5, words: 8 },
        TraceEvent::Retired { id: 5, tu: 0 },
        TraceEvent::Sequential { tu: 0 },
    ];
    let mut text = String::new();
    for (i, ev) in all.iter().enumerate() {
        ev.write_jsonl(i as u64, &mut text);
    }
    text
}

fn progress_doc() -> String {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let n = CALLS.fetch_add(1, Ordering::Relaxed);
    let name = format!("wec-corpus-progress-{}-{n}.jsonl", std::process::id());
    let path = std::env::temp_dir().join(name);
    let mut w = ProgressWriter::create(&path).unwrap();
    w.start(1, "181.mcf", "orig/t8", 0).unwrap();
    w.finish(9, "181.mcf", "orig/t8", 0, "cold", 8, 1000)
        .unwrap();
    w.finish(9, "164.gzip", "orig/t8", 1, "spec", 0, 500)
        .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    text
}

fn run_doc() -> String {
    RunManifest {
        scale: 1,
        host: "h".into(),
        sim_revision: 1,
        wall_s: 1.0,
        cold: 2,
        disk_hits: 1,
        mem_hits: 4,
        cold_sim_cycles: 100,
        cold_wall_ms: 10,
        slowest: vec![SlowPoint {
            bench: "181.mcf".into(),
            cfg: "orig/t8".into(),
            cache: "cold",
            dur_ms: 7,
        }],
        tables: vec!["fig17".into()],
        metrics: vec![("181.mcf|orig/t8".into(), vec![("cycles".into(), 5)])],
    }
    .to_json()
}

fn profile_doc() -> String {
    let mut p = CycleProfiler::new(64);
    p.record(
        0,
        &PhaseNs {
            ns: [10, 20, 30, 40, 50, 60],
        },
    );
    p.report(64).to_json()
}

fn attribution_doc() -> String {
    let mut p = AttrProbe::new(8, 64);
    p.note_pc(0x40);
    p.on_l1_demand(0x1000, false);
    p.on_side_fill(0x1000, 10, FillOrigin::Wrong);
    p.on_side_hit(0x1000, 90);
    p.on_side_fill(0x1040, 90, FillOrigin::Prefetch);
    p.on_side_fill(0x2000, 95, FillOrigin::Victim);
    p.on_side_evict(0x1040);
    let mut q = AttrProbe::new(8, 64);
    q.note_pc(0x80);
    q.on_l1_demand(0x3000, false);
    q.on_side_fill(0x3000, 5, FillOrigin::Wrong);
    q.on_side_hit(0x3000, 7);
    AttributionReport::from_probes([&p, &q]).to_json()
}

const HISTOGRAMS: &str = "{\"load_to_fill\":{\"count\":3,\"sum\":111,\"min\":5,\"max\":100,\
    \"buckets\":[[4,2],[64,1]]}}";

const PERFETTO: &str = "{\"traceEvents\":[{\"ph\":\"M\",\"name\":\"thread_name\",\"tid\":1},\
    {\"ph\":\"B\",\"tid\":1,\"ts\":1},{\"ph\":\"E\",\"tid\":1,\"ts\":2},\
    {\"ph\":\"i\",\"tid\":2,\"ts\":3}]}";

const ATTR_SUMMARY: &str =
    "{\"wec_fills\":3,\"useful\":1,\"wasted\":1,\"victim_rescued\":0,\"still_resident\":1}";

const JOB_RECORD: &str = "{\"schema\":\"wec-job-record-v1\",\"id\":3,\"kind\":\"sim\",\
    \"bench\":\"181.mcf\",\"scale\":1,\"cfg\":\"wth-wp-wec/t8\",\"state\":\"done\",\
    \"source\":\"spec\",\"submissions\":1,\"worker\":1,\"submit_t_ms\":10,\"start_t_ms\":11,\
    \"finish_t_ms\":40,\"dur_ms\":29,\"sim_cycles\":48000,\"speculative\":true,\
    \"backend_id\":\"node-a\",\"error\":\"\",\"metrics\":{\"cycles\":48000},\
    \"attribution\":{\"wec_fills\":3,\"useful\":1,\"wasted\":1,\"victim_rescued\":0,\
    \"still_resident\":1}}";

const JOBS_JSONL: &str = "{\"schema\":\"wec-job-record-v1\",\"id\":1,\"kind\":\"sim\",\
    \"bench\":\"181.mcf\",\"scale\":1,\"cfg\":\"orig/t8\",\"state\":\"done\",\"source\":\"cold\",\
    \"submissions\":2,\"worker\":0,\"submit_t_ms\":1,\"start_t_ms\":2,\"finish_t_ms\":9,\
    \"dur_ms\":7,\"sim_cycles\":100,\"error\":\"\",\"metrics\":{\"cycles\":100},\"attribution\":{}}\n\
    {\"schema\":\"wec-job-record-v1\",\"id\":2,\"kind\":\"replay\",\"bench\":\"x.wectrace\",\
    \"scale\":1,\"cfg\":\"orig/t8\",\"state\":\"failed\",\"source\":\"none\",\"submissions\":1,\
    \"worker\":1,\"submit_t_ms\":3,\"start_t_ms\":4,\"finish_t_ms\":5,\"dur_ms\":1,\
    \"sim_cycles\":0,\"error\":\"boom\",\"metrics\":{},\"attribution\":{}}\n\
    {\"schema\":\"wec-job-record-v1\",\"id\":3,\"kind\":\"sim\",\"bench\":\"164.gzip\",\
    \"scale\":1,\"cfg\":\"orig/t8\",\"state\":\"cancelled\",\"source\":\"none\",\
    \"submissions\":0,\"worker\":0,\"submit_t_ms\":6,\"start_t_ms\":0,\"finish_t_ms\":0,\
    \"dur_ms\":0,\"sim_cycles\":0,\"speculative\":true,\"error\":\"\",\"metrics\":{},\
    \"attribution\":{}}\n";

const STATS_V1: &str = "{\"schema\":\"wec-serve-stats-v1\",\"backend_id\":\"node-b\",\
    \"uptime_ms\":1000,\"workers\":4,\"busy_workers\":1,\"draining\":false,\
    \"queue\":{\"depth\":2,\"cap\":64,\"rejected\":1},\
    \"jobs\":{\"submitted\":10,\"deduped\":3,\"completed\":5,\"failed\":1},\
    \"cache\":{\"cold\":3,\"disk_hits\":1,\"mem_hits\":1},\
    \"throughput\":{\"jobs_per_sec\":5.0,\"utilization\":0.25}}";

const STATS_V2: &str = "{\"schema\":\"wec-serve-stats-v2\",\"uptime_ms\":1000,\"workers\":4,\
    \"busy_workers\":1,\"draining\":false,\
    \"queue\":{\"depth\":2,\"cap\":64,\"rejected\":1,\"spec_depth\":3,\"spec_cap\":16},\
    \"jobs\":{\"submitted\":10,\"deduped\":3,\"completed\":5,\"failed\":1},\
    \"cache\":{\"cold\":2,\"disk_hits\":1,\"mem_hits\":1,\"spec_hits\":1},\
    \"spec\":{\"started\":7,\"hit\":2,\"miss\":2,\"waste\":1,\"cancelled\":1,\"pending\":3},\
    \"throughput\":{\"jobs_per_sec\":5.0,\"utilization\":0.25}}";

fn router_doc() -> String {
    let v2 = STATS_V2.replace(
        "\"uptime_ms\":1000",
        "\"backend_id\":\"node-a\",\"uptime_ms\":1000",
    );
    format!(
        "{{\"schema\":\"wec-router-stats-v1\",\"uptime_ms\":5000,\"draining\":false,\
         \"router\":{{\"requests\":30,\"proxied\":25,\"retries\":1,\"resharded\":0,\
         \"rejected\":2,\"hints_sent\":4,\"hints_accepted\":3}},\
         \"backends\":[{{\"id\":\"node-a\",\"addr\":\"127.0.0.1:8601\",\"state\":\"healthy\",\
         \"consecutive_failures\":0,\"routed\":12,\"stats\":{v2}}},\
         {{\"id\":\"node-b\",\"addr\":\"127.0.0.1:8602\",\"state\":\"draining\",\
         \"consecutive_failures\":1,\"routed\":9,\"stats\":{STATS_V1}}},\
         {{\"id\":\"127.0.0.1:8603\",\"addr\":\"127.0.0.1:8603\",\"state\":\"dead\",\
         \"consecutive_failures\":5,\"routed\":4}}],\
         \"cluster\":{{\"backends\":{{\"healthy\":1,\"draining\":1,\"dead\":1}},\
         \"jobs\":{{\"submitted\":20,\"deduped\":6,\"completed\":10,\"failed\":2}},\
         \"cache\":{{\"cold\":5,\"disk_hits\":2,\"mem_hits\":2,\"spec_hits\":1}},\
         \"spec\":{{\"started\":7,\"hit\":2,\"miss\":2,\"waste\":1,\"cancelled\":1,\"pending\":3}},\
         \"throughput\":{{\"jobs_per_sec\":10.0}}}}}}"
    )
}

const ACCESS_JSONL: &str = "{\"t_ms\":120,\"method\":\"GET\",\"path\":\"/stats\",\"status\":200,\
    \"dur_us\":85,\"bytes\":412}\n\
    {\"t_ms\":100,\"method\":\"-\",\"path\":\"-\",\"status\":400,\"dur_us\":3,\"bytes\":28}\n";

fn dashboard_doc() -> String {
    format!(
        "{{\"schema\":\"wec-dashboard-data-v1\",\"now_ms\":1000,\"stats\":{STATS_V2},\
         \"samples\":[{{\"t_ms\":500,\"queue_depth\":1,\"busy_workers\":1,\"outstanding\":2,\
         \"jobs_per_sec\":2.5,\"dedup_hit_rate\":0.5,\"kcycles_per_sec\":100.0,\
         \"spec_hit_rate\":0.25}},\
         {{\"t_ms\":1000,\"queue_depth\":0,\"busy_workers\":0,\"outstanding\":0,\
         \"jobs_per_sec\":0.0,\"dedup_hit_rate\":0.0,\"kcycles_per_sec\":0.0}}],\
         \"http\":[{{\"endpoint\":\"submit\",\"count\":3,\"mean_us\":80.5,\"p50_us\":63,\
         \"p99_us\":127,\"max_us\":130,\"buckets\":[[64,2],[128,1]]}}],\
         \"jobs\":[{{\"id\":1,\"kind\":\"sim\",\"bench\":\"181.mcf\",\"cfg\":\"orig/t8\",\
         \"state\":\"done\",\"source\":\"cold\",\"submissions\":2,\"worker\":0,\
         \"dur_ms\":30,\"sim_cycles\":48000,\"has_attr\":false}},\
         {{\"id\":2,\"kind\":\"replay\",\"bench\":\"x.wectrace\",\"cfg\":\"orig/t8\",\
         \"state\":\"done\",\"source\":\"spec\",\"submissions\":0,\"worker\":1,\
         \"dur_ms\":4,\"sim_cycles\":900,\"has_attr\":true,\"speculative\":true}}]}}"
    )
}

fn parsed(text: &str) -> Result<Json, String> {
    json::parse(text)
}

fn corpus() -> Vec<Doc> {
    vec![
        Doc::lines("events.jsonl", &events_doc(), |t| {
            schema::validate_events_jsonl(t).map(drop)
        }),
        Doc::new("histograms.json", HISTOGRAMS, |t| {
            schema::validate_histograms_json(t).map(drop)
        }),
        Doc::new("trace.perfetto.json", PERFETTO, |t| {
            schema::validate_perfetto(t).map(drop)
        }),
        Doc::lines("progress.jsonl", &progress_doc(), |t| {
            schema::validate_progress_jsonl(t).map(drop)
        }),
        Doc::new("run.json", &run_doc(), |t| {
            schema::validate_run_json(t).map(drop)
        }),
        Doc::new("profile.json", &profile_doc(), |t| {
            schema::validate_profile_json(t).map(drop)
        }),
        Doc::new("attribution.json", &attribution_doc(), |t| {
            schema::validate_attribution_json(t).map(drop)
        }),
        Doc::new("attr-summary", ATTR_SUMMARY, |t| {
            schema::validate_attr_summary(&parsed(t)?, "attr")
        }),
        Doc::new("job-record", JOB_RECORD, |t| {
            schema::validate_job_record(&parsed(t)?, "job")
        }),
        Doc::lines("jobs.jsonl", JOBS_JSONL, |t| {
            schema::validate_jobs_jsonl(t).map(drop)
        }),
        Doc::new("stats-v1", STATS_V1, schema::validate_serve_stats_json),
        Doc::new("stats-v2", STATS_V2, schema::validate_serve_stats_json),
        Doc::new("router.json", &router_doc(), |t| {
            schema::validate_router_stats_json(t).map(drop)
        }),
        Doc::lines("access.jsonl", ACCESS_JSONL, |t| {
            schema::validate_access_jsonl(t).map(drop)
        }),
        Doc::new("dashboard.json", &dashboard_doc(), |t| {
            schema::validate_dashboard_data_json(t).map(drop)
        }),
    ]
}

#[test]
fn every_good_document_validates() {
    for doc in corpus() {
        if let Err(e) = doc.verdict(&doc.value) {
            panic!("{}: good document rejected: {e}", doc.name);
        }
    }
}

#[test]
fn structural_mutations_keep_their_pinned_verdicts() {
    let mut wrong = Vec::new();
    let mut total = 0usize;
    let mut seen_accepted = Vec::new();
    for doc in corpus() {
        for (what, mutant) in mutations(&doc.value) {
            total += 1;
            let accepted = doc.verdict(&mutant).is_ok();
            let pinned = ACCEPTED.contains(&(doc.name, what.as_str()));
            if accepted {
                seen_accepted.push((doc.name, what.clone()));
            }
            if accepted != pinned {
                let verdict = if accepted { "accepted" } else { "rejected" };
                wrong.push(format!("{}: {what} was {verdict}", doc.name));
            }
        }
    }
    for (name, what) in &seen_accepted {
        println!("    (\"{name}\", \"{what}\"),");
    }
    println!("{total} mutations, {} accepted", seen_accepted.len());
    assert!(
        wrong.is_empty(),
        "{} of {total} mutations changed verdict:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

/// One document edit: set the value at a path, or drop the field there.
enum Edit {
    Set(&'static str, &'static str),
    Del(&'static str),
}
use Edit::{Del, Set};

fn apply(doc: &Doc, edits: &[Edit]) -> Json {
    let mut v = doc.value.clone();
    for e in edits {
        match e {
            Set(path, value) => {
                *node_mut(&mut v, &parse_path(path)) = json::parse(value).unwrap();
            }
            Del(path) => {
                let mut steps = parse_path(path);
                let Some(Step::Key(k)) = steps.pop() else {
                    panic!("drop needs a field path: {path}");
                };
                if let Json::Obj(f) = node_mut(&mut v, &steps) {
                    f.retain(|(name, _)| *name != k);
                }
            }
        }
    }
    v
}

/// One case per cross-field invariant: `(document, invariant, edits)`.
fn invariant_cases() -> Vec<(&'static str, &'static str, Vec<Edit>)> {
    vec![
        // events.jsonl
        (
            "events.jsonl",
            "cycle non-decreasing",
            vec![Set("[3].cycle", "0")],
        ),
        // histograms.json
        (
            "histograms.json",
            "buckets sum to count",
            vec![Set("load_to_fill.count", "4")],
        ),
        // progress.jsonl
        (
            "progress.jsonl",
            "t_ms non-decreasing",
            vec![Set("[2].t_ms", "0")],
        ),
        (
            "progress.jsonl",
            "finishes >= starts",
            vec![
                Set("[1].event", "\"start\""),
                Del("[1].cache"),
                Del("[1].dur_ms"),
                Del("[1].sim_cycles"),
                Del("[1].kcps"),
            ],
        ),
        // run.json
        (
            "run.json",
            "lookups conserve",
            vec![Set("simulations.lookups", "8")],
        ),
        (
            "run.json",
            "cache_hit_rate in [0,1]",
            vec![Set("simulations.cache_hit_rate", "1.5")],
        ),
        (
            "run.json",
            "slowest cache source",
            vec![Set("slowest[0].cache", "\"spec\"")],
        ),
        // profile.json
        ("profile.json", "stride >= 1", vec![Set("stride", "0")]),
        (
            "profile.json",
            "sampled <= total",
            vec![Set("total_cycles", "0")],
        ),
        (
            "profile.json",
            "phase ns sum to wall",
            vec![Set("wall_ns_sampled", "211")],
        ),
        (
            "profile.json",
            "share in [0,1]",
            vec![Set("phases.exec.share", "1.5")],
        ),
        (
            "profile.json",
            "every phase present",
            vec![Del("phases.exec")],
        ),
        // attribution.json
        (
            "attribution.json",
            "block_bytes non-zero",
            vec![Set("block_bytes", "0")],
        ),
        (
            "attribution.json",
            "l1_sets non-zero",
            vec![Set("l1_sets", "0")],
        ),
        (
            "attribution.json",
            "n_tus non-zero",
            vec![Set("n_tus", "0")],
        ),
        (
            "attribution.json",
            "totals conservation",
            vec![Set("totals.still_resident", "9")],
        ),
        (
            "attribution.json",
            "totals origin split",
            vec![Set("totals.fills_wrong", "3")],
        ),
        (
            "attribution.json",
            "totals pollution",
            vec![Set("totals.pollution_bytes", "1")],
        ),
        (
            "attribution.json",
            "TU conservation",
            vec![Set("tus[1].useful", "0")],
        ),
        (
            "attribution.json",
            "TU rows == n_tus",
            vec![Set("n_tus", "3")],
        ),
        (
            "attribution.json",
            "per-TU rows sum to totals",
            vec![
                Set("tus[1].wec_fills", "2"),
                Set("tus[1].fills_wrong", "2"),
                Set("tus[1].still_resident", "1"),
            ],
        ),
        (
            "attribution.json",
            "timeliness buckets sum",
            vec![Set("timeliness.count", "3")],
        ),
        (
            "attribution.json",
            "timeliness count == useful",
            vec![
                Set("timeliness.buckets", "[]"),
                Set("timeliness.count", "0"),
            ],
        ),
        (
            "attribution.json",
            "top_pcs pollution",
            vec![Set("top_pcs[0].pollution_bytes", "3")],
        ),
        (
            "attribution.json",
            "top_pcs sorted",
            vec![Set("top_pcs[1].useful", "9")],
        ),
        (
            "attribution.json",
            "top_pcs useful <= totals",
            vec![Set("top_pcs[0].useful", "3"), Set("top_pcs[1].useful", "3")],
        ),
        (
            "attribution.json",
            "set array length",
            vec![Set("sets.side_hits", "[0]")],
        ),
        (
            "attribution.json",
            "misses <= accesses",
            vec![Set("sets.l1_accesses", "[0,0,0,0,0,0,0,0]")],
        ),
        (
            "attribution.json",
            "side_fills == wrong + prefetch",
            vec![Set("sets.side_fills", "[0,0,0,0,0,0,0,0]")],
        ),
        (
            "attribution.json",
            "victim_transfers == fills_victim",
            vec![Set("sets.victim_transfers", "[0,0,0,0,0,0,0,0]")],
        ),
        // attr summary
        ("attr-summary", "conservation", vec![Set("useful", "2")]),
        // job record
        (
            "job-record",
            "done has a source",
            vec![Set("source", "\"none\"")],
        ),
        (
            "job-record",
            "speculative is true",
            vec![Set("speculative", "false")],
        ),
        (
            "job-record",
            "demand job submitted",
            vec![Del("speculative"), Set("submissions", "0")],
        ),
        (
            "job-record",
            "cancelled is speculative",
            vec![
                Del("speculative"),
                Set("state", "\"cancelled\""),
                Set("source", "\"none\""),
                Set("metrics", "{}"),
            ],
        ),
        (
            "job-record",
            "cancelled has no source",
            vec![Set("state", "\"cancelled\"")],
        ),
        (
            "job-record",
            "start after submit",
            vec![Set("start_t_ms", "5")],
        ),
        (
            "job-record",
            "finish after start",
            vec![Set("finish_t_ms", "5")],
        ),
        (
            "job-record",
            "failed has an error",
            vec![Set("state", "\"failed\""), Set("source", "\"none\"")],
        ),
        (
            "job-record",
            "non-failed has no error",
            vec![Set("error", "\"boom\"")],
        ),
        ("job-record", "done has metrics", vec![Set("metrics", "{}")]),
        (
            "job-record",
            "attribution conserves",
            vec![Set("attribution.useful", "2")],
        ),
        (
            "job-record",
            "backend_id non-empty",
            vec![Set("backend_id", "\"\"")],
        ),
        // jobs.jsonl
        (
            "jobs.jsonl",
            "terminal states only",
            vec![Set("[1].state", "\"running\""), Set("[1].error", "\"\"")],
        ),
        // serve stats
        (
            "stats-v1",
            "workers >= 1",
            vec![Set("workers", "0"), Set("busy_workers", "0")],
        ),
        (
            "stats-v1",
            "busy <= workers",
            vec![Set("busy_workers", "9")],
        ),
        (
            "stats-v1",
            "backend_id non-empty",
            vec![Set("backend_id", "\"\"")],
        ),
        ("stats-v1", "depth <= cap", vec![Set("queue.depth", "65")]),
        (
            "stats-v1",
            "deduped <= submitted",
            vec![Set("jobs.deduped", "11")],
        ),
        (
            "stats-v1",
            "completed + failed <= submitted",
            vec![Set("jobs.submitted", "5")],
        ),
        (
            "stats-v1",
            "cache split == completed",
            vec![Set("cache.cold", "4")],
        ),
        (
            "stats-v1",
            "utilization in [0,1]",
            vec![Set("throughput.utilization", "1.5")],
        ),
        (
            "stats-v2",
            "spec_depth <= spec_cap",
            vec![Set("queue.spec_depth", "17")],
        ),
        (
            "stats-v2",
            "spec ledger conserves",
            vec![Set("spec.started", "8")],
        ),
        (
            "stats-v2",
            "spec_hits <= spec.hit",
            vec![Set("cache.spec_hits", "3"), Set("cache.cold", "0")],
        ),
        (
            "stats-v2",
            "cache split == completed",
            vec![Set("cache.spec_hits", "2")],
        ),
        // router.json
        (
            "router.json",
            "hints_accepted <= hints_sent",
            vec![Set("router.hints_accepted", "5")],
        ),
        (
            "router.json",
            "backends non-empty",
            vec![Set("backends", "[]")],
        ),
        (
            "router.json",
            "backend id non-empty",
            vec![Set("backends[2].id", "\"\"")],
        ),
        (
            "router.json",
            "backend state",
            vec![Set("backends[2].state", "\"gone\"")],
        ),
        (
            "router.json",
            "embedded stats valid",
            vec![Set("backends[1].stats.cache.cold", "4")],
        ),
        (
            "router.json",
            "cluster backend counts",
            vec![Set("cluster.backends.dead", "2")],
        ),
        (
            "router.json",
            "cluster jobs sum",
            vec![Set("cluster.jobs.failed", "3")],
        ),
        (
            "router.json",
            "cluster cache sum",
            vec![Set("cluster.cache.mem_hits", "3")],
        ),
        (
            "router.json",
            "cluster spec sum",
            vec![Set("cluster.spec.miss", "3")],
        ),
        // The cluster's own split and spec conservation follow from the
        // per-backend ledgers and the sums above, so no edit reaches them
        // without first breaking a sum.
        (
            "router.json",
            "spec block needs a speculating backend",
            vec![Del("backends[0].stats")],
        ),
        (
            "router.json",
            "speculating backend needs a spec block",
            vec![Del("cluster.spec")],
        ),
        // access.jsonl
        (
            "access.jsonl",
            "method non-empty",
            vec![Set("[0].method", "\"\"")],
        ),
        (
            "access.jsonl",
            "path non-empty",
            vec![Set("[0].path", "\"\"")],
        ),
        (
            "access.jsonl",
            "status >= 100",
            vec![Set("[0].status", "99")],
        ),
        (
            "access.jsonl",
            "status <= 599",
            vec![Set("[0].status", "600")],
        ),
        // dashboard.json
        (
            "dashboard.json",
            "embedded stats valid",
            vec![Set("stats.spec.started", "8")],
        ),
        (
            "dashboard.json",
            "samples t_ms non-decreasing",
            vec![Set("samples[1].t_ms", "400")],
        ),
        (
            "dashboard.json",
            "jobs_per_sec a rate",
            vec![Set("samples[0].jobs_per_sec", "-1")],
        ),
        (
            "dashboard.json",
            "kcycles_per_sec finite",
            vec![Set("samples[0].kcycles_per_sec", "1e999")],
        ),
        (
            "dashboard.json",
            "dedup_hit_rate in [0,1]",
            vec![Set("samples[0].dedup_hit_rate", "1.5")],
        ),
        (
            "dashboard.json",
            "spec_hit_rate in [0,1]",
            vec![Set("samples[0].spec_hit_rate", "1.25")],
        ),
        (
            "dashboard.json",
            "endpoint non-empty",
            vec![Set("http[0].endpoint", "\"\"")],
        ),
        (
            "dashboard.json",
            "p50 <= p99",
            vec![Set("http[0].p50_us", "128")],
        ),
        (
            "dashboard.json",
            "p99 <= max",
            vec![Set("http[0].p99_us", "999")],
        ),
        (
            "dashboard.json",
            "buckets sum to count",
            vec![Set("http[0].count", "4")],
        ),
        (
            "dashboard.json",
            "speculative is true",
            vec![Set("jobs[1].speculative", "false")],
        ),
        (
            "dashboard.json",
            "demand row submitted",
            vec![Set("jobs[0].submissions", "0")],
        ),
    ]
}

#[test]
fn every_cross_field_invariant_rejects_its_violation() {
    let docs = corpus();
    let mut accepted = Vec::new();
    for (name, rule, edits) in invariant_cases() {
        let doc = docs.iter().find(|d| d.name == name).unwrap();
        if doc.verdict(&apply(doc, &edits)).is_ok() {
            accepted.push(format!("{name}: {rule}"));
        }
    }
    assert!(
        accepted.is_empty(),
        "violations accepted:\n{}",
        accepted.join("\n")
    );
}

#[test]
fn conservation_errors_name_the_invariant() {
    let docs = corpus();
    for (name, path, value) in [
        ("attribution.json", "totals.useful", "9"),
        ("attr-summary", "useful", "2"),
    ] {
        let doc = docs.iter().find(|d| d.name == name).unwrap();
        let err = doc.verdict(&apply(doc, &[Set(path, value)])).unwrap_err();
        assert!(err.contains("conservation"), "{name}: {err}");
    }
}
