//! Validators for every telemetry artifact: the event and commit streams,
//! `timeseries.csv`, `histograms.json`, the Perfetto trace, the sweep
//! files (`progress.jsonl`, `run.json`, `profile.json`), the attribution
//! ledger, and the serve and router documents.  Tests, `telemetry_check`
//! and the serving tier call them.
//!
//! Every JSON schema is written the same way, in three parts:
//!
//! 1. **A shape table.**  `fields!` declares each field once: its name,
//!    its [`Ty`], and whether it is required (`name: Ty`) or optional
//!    (`name?: Ty`).  Parts several schemas share (bucket pairs, job rows,
//!    the attribution lifecycle counters, the serve-stats blocks) are
//!    tables of their own, spliced in with `..TABLE`; a bare `..` lets an
//!    object carry keys the table does not declare.  Objects whose fields
//!    depend on a tag (`type`, `event`, `schema`) are [`Variants`].
//! 2. **One recursive check.**  `check` enforces presence, type, and "no
//!    unknown fields" at every object level, and holds histogram buckets
//!    to the `count` beside them.
//! 3. **One rules function per schema.**  It runs after the shape check,
//!    so it reads fields through accessors that cannot fail (`int`, `at`,
//!    `array`, …), and it does every counter sum through `sum`, which
//!    rejects overflow: the parser saturates `1e300` to `u64::MAX`, so an
//!    unchecked `+` would panic, or wrap into a sum that looks conserved.
//!
//! To add a schema, write its table and its rules as a `Schema`, and a
//! `pub fn validate_*` that parses the text and calls `Schema::validate`.
//! JSONL streams go through `each_line`, which rejects blank lines, parses
//! each line, and puts `<file> line N` in front of every error.
//! `timeseries.csv` and the Perfetto span balancing are not JSON field
//! shapes, so their validators stay hand-written.

use std::cmp::Reverse;

use crate::json::{self, Json};
use Field::{All, Open, Opt, Req};
use Ty::{Arr, Bool, Buckets, Map, NonEmpty, Obj, OneOf, Str, Tag, Tagged, F64, U64};

/// The type a field's value must have.
#[derive(Clone, Copy, Debug)]
pub enum Ty {
    U64,
    F64,
    Bool,
    Str,
    /// A string that is not empty.
    NonEmpty,
    /// One of a fixed set of strings.
    OneOf(&'static [&'static str]),
    /// Exactly this string: a document's `schema` tag.
    Tag(&'static str),
    /// An object with exactly these fields.
    Obj(&'static [Field]),
    /// An object whose tag field picks its fields.
    Tagged(&'static Variants),
    /// An array whose elements all have this type.
    Arr(&'static Ty),
    /// A string-keyed object whose values all have this type.
    Map(&'static Ty),
    /// Histogram buckets, `[[bound, count], ...]`; the counts must sum to
    /// the `count` field of the same object.
    Buckets,
}

/// One entry of a shape table.
#[derive(Clone, Copy, Debug)]
pub enum Field {
    /// Must be present, with this type.
    Req(&'static str, Ty),
    /// May be absent; has this type when present.
    Opt(&'static str, Ty),
    /// Every field of a shared table.
    All(&'static [Field]),
    /// Keys the table does not declare are tolerated.
    Open,
}

/// `fields![name: Ty, name?: Ty, ..SHARED, ..]`: a shape table of
/// required fields, optional fields, shared tables, and "other keys are
/// tolerated".
macro_rules! fields {
    (@ [$($out:expr),*]) => { &[$($out),*] };
    (@ [$($out:expr),*] $name:ident ?: $ty:expr $(, $($rest:tt)*)?) => {
        fields!(@ [$($out,)* Opt(stringify!($name), $ty)] $($($rest)*)?)
    };
    (@ [$($out:expr),*] $name:ident : $ty:expr $(, $($rest:tt)*)?) => {
        fields!(@ [$($out,)* Req(stringify!($name), $ty)] $($($rest)*)?)
    };
    (@ [$($out:expr),*] .. $shared:ident $(, $($rest:tt)*)?) => {
        fields!(@ [$($out,)* All($shared)] $($($rest)*)?)
    };
    (@ [$($out:expr),*] .. $(, $($rest:tt)*)?) => {
        fields!(@ [$($out,)* Open] $($($rest)*)?)
    };
    ($($rest:tt)*) => { fields!(@ [] $($rest)*) };
}

/// Objects whose `tag` field selects one of several field tables.
#[derive(Debug)]
pub struct Variants {
    tag: &'static str,
    /// Fields every variant has, besides the tag.
    common: &'static [Field],
    variants: &'static [(&'static str, &'static [Field])],
}

/// A document's shape plus the cross-field rules checked after it.
struct Schema {
    shape: Ty,
    rules: fn(&Json) -> Rule,
}

impl Schema {
    fn validate(&self, v: &Json, ctx: &str) -> Rule {
        check(v, self.shape, ctx, "")?;
        within(ctx, (self.rules)(v))
    }
}

/// What a check or rule returns: `Err` carries the reason.
type Rule = Result<(), String>;

/// Fail with the message unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

/// Prefix the error of a nested rule with where it applies.
fn within<T>(at: impl std::fmt::Display, r: Result<T, String>) -> Result<T, String> {
    r.map_err(|e| format!("{at}: {e}"))
}

// --- the one checker ---------------------------------------------------------

/// Check `v` against `ty`.  `ctx` names the enclosing object (file and
/// path) and `name` the field within it (`""` for the document itself).
fn check(v: &Json, ty: Ty, ctx: &str, name: &str) -> Rule {
    let path = || match name {
        "" => ctx.to_string(),
        _ => format!("{ctx} {name}"),
    };
    let ok = match ty {
        U64 => v.as_u64().is_some(),
        F64 => v.as_f64().is_some(),
        Bool => v.as_bool().is_some(),
        Str => v.as_str().is_some(),
        NonEmpty => v.as_str().is_some_and(|s| !s.is_empty()),
        OneOf(set) => v.as_str().is_some_and(|s| set.contains(&s)),
        Tag(tag) => v.as_str() == Some(tag),
        Obj(fields) => return check_obj(v, &[fields], &path()),
        Tagged(t) => return check_tagged(v, t, &path()),
        Arr(elem) => {
            for (i, item) in v.as_array().unwrap_or(&[]).iter().enumerate() {
                check(item, *elem, ctx, &format!("{name}[{i}]"))?;
            }
            v.as_array().is_some()
        }
        Map(elem) => {
            for (key, item) in members(v) {
                check(item, *elem, ctx, &format!("{name}[{key:?}]"))?;
            }
            v.is_object()
        }
        // A bucket's bound is free-form; its count must be a u64.
        Buckets => v.as_array().is_some_and(|items| {
            let pair = |b: &Json| matches!(b.as_array(), Some([_, n]) if n.as_u64().is_some());
            items.iter().all(pair)
        }),
    };
    let expected = || match ty {
        Arr(_) | Buckets => "an array".into(),
        Map(_) => "an object".into(),
        _ => format!("{ty:?}"),
    };
    ensure!(ok, "{}: expected {}", path(), expected());
    Ok(())
}

/// Check an object against the union of `tables`.
fn check_obj(v: &Json, tables: &[&[Field]], ctx: &str) -> Rule {
    ensure!(v.is_object(), "{ctx}: not a JSON object");
    for fields in tables {
        check_fields(v, fields, ctx)?;
    }
    for (name, _) in members(v) {
        let known = tables.iter().any(|t| declares(t, name));
        ensure!(known, "{ctx}: unexpected field {name:?}");
    }
    Ok(())
}

fn check_fields(v: &Json, fields: &[Field], ctx: &str) -> Rule {
    for f in fields {
        match *f {
            Req(name, ty) | Opt(name, ty) => match v.get(name) {
                Some(x) => check(x, ty, ctx, name)?,
                None => ensure!(matches!(f, Opt(..)), "{ctx}: missing {name:?}"),
            },
            All(shared) => check_fields(v, shared, ctx)?,
            Open => {}
        }
        if let Req(name, Buckets) = *f {
            let pairs = array(v, name).iter().filter_map(Json::as_array);
            let total = within(ctx, sum(pairs.map(|p| p.get(1).map_or(0, uint))))?;
            let count = int(v, "count");
            ensure!(total == count, "{ctx}: {name} sum to {total}, not {count}");
        }
    }
    Ok(())
}

fn declares(fields: &[Field], name: &str) -> bool {
    fields.iter().any(|f| match *f {
        Req(n, _) | Opt(n, _) => n == name,
        All(shared) => declares(shared, name),
        Open => true,
    })
}

fn check_tagged(v: &Json, t: &Variants, ctx: &str) -> Rule {
    ensure!(v.is_object(), "{ctx}: not a JSON object");
    let tag = at(v, t.tag).as_str();
    ensure!(tag.is_some(), "{ctx}: missing/invalid {:?}", t.tag);
    let variant = t.variants.iter().find(|(name, _)| Some(*name) == tag);
    let Some((_, fields)) = variant else {
        return Err(format!("{ctx}: unknown {} {:?}", t.tag, tag.unwrap_or("")));
    };
    check_obj(v, &[&[Req(t.tag, Str)], t.common, fields], ctx)
}

// --- accessors for rules (the shape check has run) ---------------------------

/// Field `key` of `v`, or `null` when absent.
fn at<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key).unwrap_or(&Json::Null)
}

fn uint(v: &Json) -> u64 {
    v.as_u64().unwrap_or(0)
}

/// Field `key` as a u64: 0 when absent (an optional field, or a v1
/// document read by a rule written for v2).
fn int(v: &Json, key: &str) -> u64 {
    uint(at(v, key))
}

fn float(v: &Json, key: &str) -> f64 {
    at(v, key).as_f64().unwrap_or(0.0)
}

fn string<'a>(v: &'a Json, key: &str) -> &'a str {
    at(v, key).as_str().unwrap_or("")
}

fn array<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    at(v, key).as_array().unwrap_or(&[])
}

fn members(v: &Json) -> &[(String, Json)] {
    match v {
        Json::Obj(m) => m,
        _ => &[],
    }
}

fn keys(v: &Json) -> Vec<String> {
    members(v).iter().map(|(k, _)| k.clone()).collect()
}

/// Sum counters, rejecting a total that overflows u64.
fn sum(parts: impl IntoIterator<Item = u64>) -> Result<u64, String> {
    let total = parts.into_iter().try_fold(0u64, u64::checked_add);
    total.ok_or_else(|| "counters overflow u64".to_string())
}

/// Sum the u64 fields a table declares.
fn total(v: &Json, fields: &[Field]) -> Result<u64, String> {
    sum(names(fields).into_iter().map(|n| int(v, n)))
}

fn names(fields: &[Field]) -> Vec<&'static str> {
    let each = |f: &Field| match *f {
        Req(n, _) | Opt(n, _) => vec![n],
        All(shared) => names(shared),
        Open => vec![],
    };
    fields.iter().flat_map(each).collect()
}

fn fraction(v: &Json, key: &str) -> Rule {
    let x = float(v, key);
    ensure!((0.0..=1.0).contains(&x), "{key} {x} out of [0,1]");
    Ok(())
}

/// Check each line of a JSONL stream with `line`: no blank lines, every
/// line parses, and errors carry `<file> line N`.
fn each_line(text: &str, file: &str, mut line: impl FnMut(&Json, &str) -> Rule) -> Rule {
    for (i, l) in text.lines().enumerate() {
        let ctx = format!("{file} line {}", i + 1);
        ensure!(!l.trim().is_empty(), "{ctx}: blank line");
        let v = json::parse(l).map_err(|e| format!("{ctx}: {e}"))?;
        line(&v, &ctx)?;
    }
    Ok(())
}

fn parse(text: &str, file: &str) -> Result<Json, String> {
    json::parse(text).map_err(|e| format!("{file}: {e}"))
}

// --- events.jsonl / commits.jsonl --------------------------------------------

const TU_ADDR: &[Field] = fields![tu: U64, addr: U64];

/// Field table per event type — the JSONL event schema, in one place.
/// Every line also carries `cycle` and its `type`.
pub const EVENT_SCHEMA: &[(&str, &[Field])] = &[
    ("wrong_load_issue", fields![..TU_ADDR, wrong_thread: Bool]),
    ("wec_fill", TU_ADDR),
    (
        "wec_hit",
        fields![..TU_ADDR, wrong_fetched: Bool, prefetched: Bool],
    ),
    ("victim_transfer", TU_ADDR),
    ("next_line_prefetch", TU_ADDR),
    ("l1_miss", fields![..TU_ADDR, wrong: Bool]),
    ("l2_miss", fields![addr: U64, wrong: Bool]),
    (
        "pipeline_flush",
        fields![tu: U64, pc: U64, new_pc: U64, squashed: U64],
    ),
    ("commit", fields![tu: U64, seq: U64, pc: U64, op: Str]),
    ("begin", fields![region: U64, head: U64]),
    (
        "fork",
        fields![parent: U64, child: U64, tu: U64, deferred: Bool],
    ),
    ("thread_start", fields![id: U64, tu: U64]),
    ("abort", fields![id: U64]),
    ("marked_wrong", fields![id: U64]),
    ("killed", fields![id: U64, tu: U64]),
    ("wrong_died", fields![id: U64]),
    ("wb_start", fields![id: U64, words: U64]),
    ("retired", fields![id: U64, tu: U64]),
    ("sequential", fields![tu: U64]),
];

/// What a validated event stream contained.
#[derive(Clone, Debug, Default)]
pub struct EventReport {
    pub total: u64,
    /// Per-type counts, sorted by type name.
    pub counts: Vec<(String, u64)>,
}

impl EventReport {
    pub fn count_of(&self, name: &str) -> u64 {
        let count = self.counts.iter().find(|(k, _)| k == name);
        count.map_or(0, |&(_, n)| n)
    }
}

/// Validate a JSONL event stream against [`EVENT_SCHEMA`].  Cycles must be
/// non-decreasing (the machine drains buffers in cycle order).
pub fn validate_events_jsonl(text: &str) -> Result<EventReport, String> {
    const LINE: Ty = Tagged(&Variants {
        tag: "type",
        common: fields![cycle: U64],
        variants: EVENT_SCHEMA,
    });
    let mut report = EventReport::default();
    let mut last = 0u64;
    each_line(text, "events.jsonl", |v, ctx| {
        check(v, LINE, ctx, "")?;
        let cycle = int(v, "cycle");
        ensure!(cycle >= last, "{ctx}: cycle {cycle} went backwards");
        last = cycle;
        let ty = string(v, "type");
        report.total += 1;
        match report.counts.iter_mut().find(|(k, _)| k == ty) {
            Some((_, n)) => *n += 1,
            None => report.counts.push((ty.to_string(), 1)),
        }
        Ok(())
    })?;
    report.counts.sort();
    Ok(report)
}

// --- timeseries.csv, histograms.json, Perfetto --------------------------------

/// Validate the time-series CSV: a `cycle`-first header and integer rows of
/// matching arity with strictly increasing cycles.  Returns the row count.
pub fn validate_timeseries_csv(text: &str) -> Result<usize, String> {
    let (file, mut lines) = ("timeseries.csv", text.lines());
    let header = lines.next().ok_or("timeseries.csv: empty file")?;
    let columns: Vec<&str> = header.split(',').collect();
    ensure!(columns[0] == "cycle", "{file}: first column is not cycle");
    let mut last = None::<u64>;
    for (i, line) in lines.enumerate() {
        let row = format!("{file} row {}", i + 1);
        let cells: Vec<&str> = line.split(',').collect();
        let (n, want) = (cells.len(), columns.len());
        ensure!(n == want, "{row}: {n} cells, header has {want}");
        let bad = cells.iter().find(|c| c.parse::<u64>().is_err());
        ensure!(bad.is_none(), "{row}: non-integer cell {}", bad.unwrap());
        let cycle = cells[0].parse().ok();
        ensure!(last < cycle, "{row}: cycle not increasing");
        last = cycle;
    }
    Ok(text.lines().count() - 1)
}

/// A bucketed histogram: `count` and the buckets that must sum to it.
const BUCKETED: &[Field] = fields![count: U64, buckets: Buckets];

/// Validate the histograms JSON: an object of named histograms whose bucket
/// counts sum to their `count`.  Returns the histogram names.
pub fn validate_histograms_json(text: &str) -> Result<Vec<String>, String> {
    // Histogram entries tolerate extra keys.
    const HISTOGRAMS: Ty = Map(&Obj(fields![..BUCKETED, sum: U64, min: U64, max: U64, ..]));
    let v = parse(text, "histograms.json")?;
    check(&v, HISTOGRAMS, "histograms.json", "")?;
    Ok(keys(&v))
}

/// Validate a Chrome trace-event document: `traceEvents` array whose
/// entries carry a known phase, balanced `B`/`E` per track, timestamps
/// present on all non-metadata events.  Returns the event count.
pub fn validate_perfetto(text: &str) -> Result<u64, String> {
    let v = json::parse(text).map_err(|e| format!("perfetto: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("perfetto: missing traceEvents array")?;
    let mut depth = std::collections::BTreeMap::new(); // tid -> open spans
    for (i, ev) in events.iter().enumerate() {
        let ctx = format!("perfetto event {i}");
        ensure!(ev.is_object(), "{ctx}: not an object");
        let ph = ev.get("ph").and_then(Json::as_str);
        let ph = ph.ok_or_else(|| format!("{ctx}: missing ph"))?;
        match ph {
            "M" => {}
            "B" | "E" | "i" | "C" | "X" => {
                let ts = at(ev, "ts").as_u64();
                ensure!(ts.is_some(), "{ctx}: phase {ph} missing ts");
                let tid = int(ev, "tid");
                let open: &mut i64 = depth.entry(tid).or_default();
                *open += (ph == "B") as i64 - (ph == "E") as i64;
                ensure!(*open >= 0, "{ctx}: unbalanced E on tid {tid}");
            }
            other => return Err(format!("{ctx}: unknown phase {other:?}")),
        }
    }
    for (tid, d) in depth {
        ensure!(d == 0, "perfetto: {d} unclosed span(s) on tid {tid}");
    }
    Ok(events.len() as u64)
}

// --- progress.jsonl, run.json, profile.json -----------------------------------

/// What a validated `progress.jsonl` stream contained.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProgressReport {
    pub starts: u64,
    pub finishes: u64,
}

/// Validate a `progress.jsonl` stream: every line is a `start` or `finish`
/// event with exactly the declared fields, `t_ms` non-decreasing, `cache`
/// one of `cold`/`disk`/`mem`/`spec` (the last when a demand request is
/// satisfied by a parked speculative result), and no more finishes than
/// starts + cached satisfactions can explain (finishes ≥ starts, since
/// cache hits emit finish-only lines).
pub fn validate_progress_jsonl(text: &str) -> Result<ProgressReport, String> {
    const LINE: Ty = Tagged(&Variants {
        tag: "event",
        common: fields![t_ms: U64, bench: Str, cfg: Str, worker: U64],
        variants: &[
            ("start", fields![]),
            (
                "finish",
                fields![
                    cache: OneOf(&["cold", "disk", "mem", "spec"]),
                    dur_ms: U64, sim_cycles: U64, kcps: F64,
                ],
            ),
        ],
    });
    let mut report = ProgressReport::default();
    let mut last = 0u64;
    each_line(text, "progress.jsonl", |v, ctx| {
        check(v, LINE, ctx, "")?;
        let t = int(v, "t_ms");
        ensure!(t >= last, "{ctx}: t_ms {t} went backwards from {last}");
        last = t;
        match string(v, "event") {
            "start" => report.starts += 1,
            _ => report.finishes += 1,
        }
        Ok(())
    })?;
    let ProgressReport { starts, finishes } = report;
    ensure!(finishes >= starts, "progress.jsonl: unfinished starts");
    Ok(report)
}

/// Where completed work came from: fresh simulation, the on-disk store,
/// or the in-memory memo.
const CACHE_SPLIT: &[Field] = fields![cold: U64, disk_hits: U64, mem_hits: U64];

const RUN: Schema = Schema {
    shape: Obj(fields![
        schema: Tag("wec-run-manifest-v1"),
        scale: U64, host: Str, sim_revision: U64, wall_s: F64,
        simulations: Obj(fields![lookups: U64, ..CACHE_SPLIT, cache_hit_rate: F64]),
        eta: Obj(fields![mean_cold_ms: F64, sim_cycles_per_sec: F64]),
        slowest: Arr(&Obj(fields![
            bench: Str, cfg: Str, cache: OneOf(&["cold", "disk", "mem"]), dur_ms: U64,
        ])),
        tables: Arr(&Str),
        metrics: Map(&Map(&U64)),
    ]),
    rules: |v| {
        let sims = at(v, "simulations");
        let (split, lookups) = (total(sims, CACHE_SPLIT)?, int(sims, "lookups"));
        ensure!(split == lookups, "simulations: sources sum != lookups");
        within("simulations", fraction(sims, "cache_hit_rate"))
    },
};

/// Validate a `run.json` manifest (`wec-run-manifest-v1`).  Returns the
/// number of metric points the manifest carries.
pub fn validate_run_json(text: &str) -> Result<usize, String> {
    let v = parse(text, "run.json")?;
    RUN.validate(&v, "run.json")?;
    Ok(members(at(&v, "metrics")).len())
}

const PROFILE: Schema = Schema {
    shape: Obj(fields![
        schema: Tag("wec-profile-v1"),
        stride: U64, sampled_cycles: U64, total_cycles: U64, wall_ns_sampled: U64,
        phases: Map(&Obj(fields![ns: U64, share: F64])),
    ]),
    rules: |v| {
        ensure!(int(v, "stride") > 0, "stride must be >= 1");
        let (sampled, cycles) = (int(v, "sampled_cycles"), int(v, "total_cycles"));
        ensure!(sampled <= cycles, "sampled_cycles {sampled} > total_cycles");
        let known = crate::profile::Phase::ALL.map(|p| p.name());
        let phases = members(at(v, "phases"));
        for (name, phase) in phases {
            ensure!(known.contains(&name.as_str()), "unknown phase {name:?}");
            within(format!("phase {name}"), fraction(phase, "share"))?;
        }
        let (n, want) = (phases.len(), known.len());
        ensure!(n == want, "{n} phases present, schema declares {want}");
        let ns = sum(phases.iter().map(|(_, phase)| int(phase, "ns")))?;
        let wall = int(v, "wall_ns_sampled");
        ensure!(ns == wall, "phase ns sum to {ns}, wall_ns_sampled {wall}");
        Ok(())
    },
};

/// Validate a `profile.json` document (`wec-profile-v1`) against the
/// [`crate::profile::Phase`] set.  Returns the phase names.
pub fn validate_profile_json(text: &str) -> Result<Vec<String>, String> {
    let v = parse(text, "profile.json")?;
    PROFILE.validate(&v, "profile.json")?;
    Ok(keys(at(&v, "phases")))
}

// --- attribution ---------------------------------------------------------------

/// What became of the WEC's fills; they must add up to `wec_fills`.
const FATES: &[Field] = fields![useful: U64, wasted: U64, victim_rescued: U64, still_resident: U64];

/// The lifecycle counters: a job record's attribution summary, and the
/// core of every attribution totals row.
const LIFECYCLE: &[Field] = fields![wec_fills: U64, ..FATES];

/// Where the WEC's fills came from; they too must add up to `wec_fills`.
const ORIGINS: &[Field] = fields![fills_wrong: U64, fills_victim: U64, fills_prefetch: U64];

const ATTR_TOTALS: &[Field] = fields![..LIFECYCLE, ..ORIGINS, pollution_bytes: U64];

/// Per-set heatmap arrays, one entry per L1 set.
const SET_ARRAYS: &[Field] = fields![
    l1_accesses: Arr(&U64), l1_misses: Arr(&U64), side_fills: Arr(&U64),
    side_hits: Arr(&U64), victim_transfers: Arr(&U64),
];

const ATTRIBUTION: Schema = Schema {
    shape: Obj(fields![
        schema: Tag("wec-attribution-v1"),
        block_bytes: U64, l1_sets: U64, n_tus: U64,
        totals: Obj(ATTR_TOTALS),
        tus: Arr(&Obj(ATTR_TOTALS)),
        // Only the count and buckets of the timeliness histogram are held.
        timeliness: Obj(fields![..BUCKETED, ..]),
        top_pcs: Arr(&Obj(fields![
            pc: U64, useful: U64, wasted: U64, median_timeliness: U64, pollution_bytes: U64,
        ])),
        sets: Obj(SET_ARRAYS),
    ]),
    rules: attribution_rules,
};

/// `useful + wasted + victim_rescued + still_resident == wec_fills`.
fn conserve(v: &Json) -> Rule {
    let (fates, fills) = (total(v, FATES)?, int(v, "wec_fills"));
    ensure!(fates == fills, "conservation: {fates} != wec_fills {fills}");
    Ok(())
}

/// `pollution_bytes == wasted * block_bytes`, with the product checked.
fn pollution(v: &Json, block_bytes: u64) -> Rule {
    let want = int(v, "wasted").checked_mul(block_bytes);
    let got = int(v, "pollution_bytes");
    ensure!(want == Some(got), "pollution_bytes {got} != wasted * block");
    Ok(())
}

/// One totals row: conservation, the origin split, and pollution.
fn totals_rules(v: &Json, block_bytes: u64) -> Rule {
    conserve(v)?;
    let (origins, fills) = (total(v, ORIGINS)?, int(v, "wec_fills"));
    ensure!(origins == fills, "origins {origins} != wec_fills {fills}");
    pollution(v, block_bytes)
}

fn attribution_rules(v: &Json) -> Rule {
    let (block, sets, n_tus) = (int(v, "block_bytes"), int(v, "l1_sets"), int(v, "n_tus"));
    ensure!(block > 0 && sets > 0 && n_tus > 0, "degenerate geometry");
    let totals = at(v, "totals");
    within("totals", totals_rules(totals, block))?;
    let tus = array(v, "tus");
    ensure!(tus.len() as u64 == n_tus, "TU rows != n_tus {n_tus}");
    for (i, tu) in tus.iter().enumerate() {
        within(format!("tus[{i}]"), totals_rules(tu, block))?;
    }
    for name in names(ATTR_TOTALS) {
        let summed = sum(tus.iter().map(|tu| int(tu, name)))?;
        ensure!(summed == int(totals, name), "per-TU {name} sum != totals");
    }
    let (useful, timely) = (int(totals, "useful"), int(at(v, "timeliness"), "count"));
    ensure!(timely == useful, "timeliness count != useful {useful}");
    let top = array(v, "top_pcs");
    // Sorted by credit: useful desc, then wasted desc, then pc asc.
    let key = |r: &Json| (int(r, "useful"), int(r, "wasted"), Reverse(int(r, "pc")));
    for (i, row) in top.iter().enumerate() {
        within(format!("top_pcs[{i}]"), pollution(row, block))?;
        let sorted = i == 0 || key(row) <= key(&top[i - 1]);
        ensure!(sorted, "top_pcs[{i}]: not sorted by credit");
    }
    let claimed = sum(top.iter().map(|r| int(r, "useful")))?;
    ensure!(claimed <= useful, "top_pcs claim {claimed} > useful");
    let heat = at(v, "sets");
    let mut sums = Vec::new();
    for name in names(SET_ARRAYS) {
        let a = array(heat, name);
        ensure!(a.len() as u64 == sets, "sets {name}: length != l1_sets");
        sums.push(sum(a.iter().map(uint))?);
    }
    let &[accesses, misses, side_fills, _, victims] = &sums[..] else {
        unreachable!("SET_ARRAYS declares five arrays")
    };
    ensure!(misses <= accesses, "sets: l1_misses > l1_accesses");
    let side = sum([int(totals, "fills_wrong"), int(totals, "fills_prefetch")])?;
    ensure!(side_fills == side, "sets: side_fills != wrong + prefetch");
    let by_victim = int(totals, "fills_victim");
    ensure!(victims == by_victim, "sets: victim_transfers mismatch");
    Ok(())
}

/// What a validated `wec-attribution-v1` document contained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttributionCheck {
    pub n_tus: u64,
    pub wec_fills: u64,
    pub useful: u64,
    pub wasted: u64,
    pub top_pcs: u64,
}

/// Validate a `wec-attribution-v1` document (the speculation attribution
/// ledger's `attribution.json`).  Schema-strict like every validator
/// here, and enforces the ledger invariants per TU **and** globally:
/// conservation, origin split, per-TU totals summing to the global
/// totals, the timeliness histogram counting exactly the useful lines,
/// and set heatmaps consistent with the fill counters.
pub fn validate_attribution_json(text: &str) -> Result<AttributionCheck, String> {
    let v = parse(text, "attribution.json")?;
    ATTRIBUTION.validate(&v, "attribution.json")?;
    let totals = at(&v, "totals");
    Ok(AttributionCheck {
        n_tus: int(&v, "n_tus"),
        wec_fills: int(totals, "wec_fills"),
        useful: int(totals, "useful"),
        wasted: int(totals, "wasted"),
        top_pcs: array(&v, "top_pcs").len() as u64,
    })
}

/// Validate the attribution summary object embedded in a job record:
/// either empty (`{}` — attribution off or not applicable) or exactly the
/// five lifecycle counters with conservation holding.
pub fn validate_attr_summary(v: &Json, ctx: &str) -> Result<(), String> {
    if matches!(v, Json::Obj(m) if m.is_empty()) {
        return Ok(());
    }
    check_obj(v, &[LIFECYCLE], ctx)?;
    within(ctx, conserve(v))
}

// --- serve: job records, jobs.jsonl, access.jsonl ----------------------------

/// The fields a job record shares with the dashboard's slim job rows.
/// `speculative` is emitted only by `--speculate` servers, and only as
/// `true`; its absence means a plain demand job.
const JOB_ROW: &[Field] = fields![
    id: U64, kind: OneOf(&["sim", "replay"]), bench: Str, cfg: Str,
    state: OneOf(&["queued", "running", "done", "failed", "cancelled"]),
    source: OneOf(&["none", "cold", "disk", "mem", "spec"]),
    submissions: U64, worker: U64, dur_ms: U64, sim_cycles: U64,
    speculative?: Bool,
];

/// The rules every job row obeys.  Returns whether the job is speculative.
fn job_row_rules(v: &Json) -> Result<bool, String> {
    let speculative = v.get("speculative").is_some();
    let flag = v.get("speculative").map(|f| f.as_bool() == Some(true));
    ensure!(flag.unwrap_or(true), "\"speculative\" must be true");
    // A speculative job that no demand request claimed has zero
    // submissions; every demand job has at least one.
    let submitted = int(v, "submissions") > 0;
    ensure!(speculative || submitted, "submissions must be >= 1");
    Ok(speculative)
}

const JOB_RECORD: Schema = Schema {
    shape: Obj(fields![
        schema: Tag("wec-job-record-v1"),
        ..JOB_ROW,
        scale: U64, submit_t_ms: U64, start_t_ms: U64, finish_t_ms: U64,
        // Stamped only by daemons started with `--backend-id`.
        backend_id?: NonEmpty,
        error: Str,
        metrics: Map(&U64),
        // `{}` or the LIFECYCLE counters; `validate_attr_summary` holds
        // the exact field set.
        attribution: Map(&U64),
    ]),
    rules: |v| {
        let speculative = job_row_rules(v)?;
        let (state, source) = (string(v, "state"), string(v, "source"));
        let done = state == "done";
        ensure!(!done || source != "none", "done job has no cache source");
        if state == "cancelled" {
            ensure!(speculative, "cancelled job is not speculative");
            ensure!(source == "none", "cancelled job carries source {source:?}");
        }
        let (submit, start) = (int(v, "submit_t_ms"), int(v, "start_t_ms"));
        ensure!(start == 0 || start >= submit, "start_t_ms < submit");
        let finish = int(v, "finish_t_ms");
        ensure!(finish == 0 || finish >= start, "finish_t_ms < start");
        let (error, failed) = (string(v, "error"), state == "failed");
        ensure!(failed != error.is_empty(), "{state} job, error {error:?}");
        let empty = members(at(v, "metrics")).is_empty();
        ensure!(!done || !empty, "done job has no metrics");
        validate_attr_summary(at(v, "attribution"), "attribution")
    },
};

/// Validate one `wec-job-record-v1` document (a serve-mode job record, as
/// returned by `GET /jobs/<id>` and logged to `jobs.jsonl`).  Strict like
/// every other validator here: exactly the declared fields, each with the
/// right type, with the cross-field invariants a consistent record obeys.
pub fn validate_job_record(v: &Json, ctx: &str) -> Result<(), String> {
    JOB_RECORD.validate(v, ctx)
}

/// What a validated `jobs.jsonl` stream contained.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JobsReport {
    pub total: u64,
    pub done: u64,
    pub failed: u64,
    pub cancelled: u64,
}

/// Validate a `jobs.jsonl` stream: one terminal `wec-job-record-v1` per
/// line (the server appends each job as it reaches `done`, `failed`, or —
/// for reclaimed speculations — `cancelled`).
pub fn validate_jobs_jsonl(text: &str) -> Result<JobsReport, String> {
    let mut report = JobsReport::default();
    each_line(text, "jobs.jsonl", |v, ctx| {
        validate_job_record(v, ctx)?;
        match string(v, "state") {
            "done" => report.done += 1,
            "failed" => report.failed += 1,
            "cancelled" => report.cancelled += 1,
            other => return Err(format!("{ctx}: non-terminal state {other:?}")),
        }
        report.total += 1;
        Ok(())
    })?;
    Ok(report)
}

/// Validate an `access.jsonl` stream (`wec-access-log-v1`): one line per
/// answered HTTP request.  Timestamps are *not* required monotonic —
/// concurrent connections finish out of order.  Parse-failure lines are
/// logged with method `"-"`, path `"-"`, status 400, so those pass too.
/// Returns the request count.
pub fn validate_access_jsonl(text: &str) -> Result<u64, String> {
    const LINE: Schema = Schema {
        shape: Obj(fields![
            t_ms: U64, method: NonEmpty, path: NonEmpty, status: U64, dur_us: U64, bytes: U64,
        ]),
        rules: |v| {
            let status = int(v, "status");
            ensure!((100..=599).contains(&status), "status {status}");
            Ok(())
        },
    };
    let mut total = 0u64;
    each_line(text, "access.jsonl", |v, ctx| {
        total += 1;
        LINE.validate(v, ctx)
    })?;
    Ok(total)
}

// --- serve stats, router stats, dashboard --------------------------------------

const JOB_COUNTS: &[Field] = fields![submitted: U64, deduped: U64, completed: U64, failed: U64];

const QUEUE_V1: &[Field] = fields![depth: U64, cap: U64, rejected: U64];

/// The v2 cache split: v1's plus completions served by a speculation.
const CACHE_V2: &[Field] = fields![..CACHE_SPLIT, spec_hits: U64];

/// What became of started speculations; they must add up to `started`.
const SPEC_OUTCOMES: &[Field] = fields![hit: U64, waste: U64, cancelled: U64, pending: U64];

/// The speculation ledger.
const SPEC: &[Field] = fields![started: U64, miss: U64, ..SPEC_OUTCOMES];

/// `wec-serve-stats-v1`, and the `wec-serve-stats-v2` superset a
/// `--speculate` server emits: a bigger queue and cache block plus `spec`.
const SERVE_STATS: Variants = Variants {
    tag: "schema",
    common: fields![
        uptime_ms: U64, workers: U64, busy_workers: U64, draining: Bool,
        // Stamped only by daemons started with `--backend-id`.
        backend_id?: NonEmpty,
        jobs: Obj(JOB_COUNTS),
        throughput: Obj(fields![jobs_per_sec: F64, utilization: F64]),
    ],
    variants: &[
        (
            "wec-serve-stats-v1",
            fields![queue: Obj(QUEUE_V1), cache: Obj(CACHE_SPLIT)],
        ),
        (
            "wec-serve-stats-v2",
            fields![
                queue: Obj(fields![..QUEUE_V1, spec_depth: U64, spec_cap: U64]),
                cache: Obj(CACHE_V2),
                spec: Obj(SPEC),
            ],
        ),
    ],
};

/// The ledger rules a serve-stats document and the router's cluster
/// roll-up share: completions split exactly across the cache sources, and
/// every started speculation is exactly one of hit, waste, cancelled, or
/// still pending (an absent v1 ledger is all zeros).
fn ledger_rules(v: &Json) -> Rule {
    let split = total(at(v, "cache"), CACHE_V2)?;
    let completed = int(at(v, "jobs"), "completed");
    ensure!(split == completed, "cache sum != completed {completed}");
    let sp = at(v, "spec");
    let (outcomes, started) = (total(sp, SPEC_OUTCOMES)?, int(sp, "started"));
    ensure!(outcomes == started, "spec outcomes != started {started}");
    Ok(())
}

fn serve_stats_rules(v: &Json) -> Rule {
    let (workers, busy) = (int(v, "workers"), int(v, "busy_workers"));
    ensure!(workers > 0, "workers must be >= 1");
    ensure!(busy <= workers, "busy_workers {busy} > workers {workers}");
    let queue = at(v, "queue");
    for (depth, cap) in [("depth", "cap"), ("spec_depth", "spec_cap")] {
        let (d, c) = (int(queue, depth), int(queue, cap));
        ensure!(d <= c, "queue {depth} {d} exceeds {cap} {c}");
    }
    let jobs = at(v, "jobs");
    let (submitted, deduped) = (int(jobs, "submitted"), int(jobs, "deduped"));
    ensure!(deduped <= submitted, "jobs deduped > submitted");
    let ended = sum([int(jobs, "completed"), int(jobs, "failed")])?;
    ensure!(ended <= submitted, "jobs completed + failed > submitted");
    ledger_rules(v)?;
    let (spec_hits, hit) = (int(at(v, "cache"), "spec_hits"), int(at(v, "spec"), "hit"));
    ensure!(spec_hits <= hit, "cache.spec_hits > spec.hit {hit}");
    within("throughput", fraction(at(v, "throughput"), "utilization"))
}

/// Validate a serve-stats document (the `GET /stats` payload and the
/// server's exit-time `stats.json`): `wec-serve-stats-v1`, or the
/// `wec-serve-stats-v2` superset a `--speculate` server emits.
pub fn validate_serve_stats_json(text: &str) -> Result<(), String> {
    validate_serve_stats(&parse(text, "stats.json")?, "stats.json")
}

/// Validate an already-parsed serve-stats value (v1 or v2) — the same
/// document also rides embedded inside `wec-dashboard-data-v1`.  The v2
/// speculation block must conserve: every started speculation is exactly
/// one of hit, waste, cancelled, or still pending, and completions split
/// exactly across `cold`/`disk_hits`/`mem_hits`/`spec_hits`.
pub fn validate_serve_stats(v: &Json, ctx: &str) -> Result<(), String> {
    check(v, Tagged(&SERVE_STATS), ctx, "")?;
    within(ctx, serve_stats_rules(v))
}

/// What a validated `wec-router-stats-v1` document contained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouterStatsReport {
    /// Backends in the ring (healthy or not).
    pub backends: u64,
    /// Backends whose embedded stats document was scraped live.
    pub scraped: u64,
    /// Cluster-wide completed jobs (the conserved ledger total).
    pub completed: u64,
}

const BACKEND_STATES: [&str; 3] = ["healthy", "draining", "dead"];

/// A table of u64 counters with these names: the cluster roll-up counts
/// backends per state.
const fn counters<const N: usize>(names: [&'static str; N]) -> [Field; N] {
    let mut out = [Open; N];
    let mut i = 0;
    while i < N {
        out[i] = Req(names[i], U64);
        i += 1;
    }
    out
}

const ROUTER_STATS: Schema = Schema {
    shape: Obj(fields![
        schema: Tag("wec-router-stats-v1"),
        uptime_ms: U64, draining: Bool,
        router: Obj(fields![
            requests: U64, proxied: U64, retries: U64, resharded: U64, rejected: U64,
            hints_sent: U64, hints_accepted: U64,
        ]),
        backends: Arr(&Obj(fields![
            id: NonEmpty, addr: Str, state: OneOf(&BACKEND_STATES),
            consecutive_failures: U64, routed: U64,
            // Absent when the backend was unreachable at scrape time.
            stats?: Tagged(&SERVE_STATS),
        ])),
        cluster: Obj(fields![
            backends: Obj(&counters(BACKEND_STATES)),
            jobs: Obj(JOB_COUNTS),
            cache: Obj(CACHE_V2),
            // Present exactly when some backend speculates.
            spec?: Obj(SPEC),
            throughput: Obj(fields![jobs_per_sec: F64]),
        ]),
    ]),
    rules: router_rules,
};

fn router_rules(v: &Json) -> Rule {
    let router = at(v, "router");
    let (sent, accepted) = (int(router, "hints_sent"), int(router, "hints_accepted"));
    ensure!(accepted <= sent, "router hints_accepted > hints_sent");
    let backends = array(v, "backends");
    ensure!(!backends.is_empty(), "\"backends\" is empty");
    let mut scraped = Vec::new();
    for (i, b) in backends.iter().enumerate() {
        if let Some(stats) = b.get("stats") {
            within(format!("backends[{i}] stats"), serve_stats_rules(stats))?;
            scraped.push(stats);
        }
    }
    let cluster = at(v, "cluster");
    for state in BACKEND_STATES {
        let want = backends.iter().filter(|b| string(b, "state") == state);
        let got = int(at(cluster, "backends"), state);
        ensure!(
            got == want.count() as u64,
            "cluster backends: {state} mismatch"
        );
    }
    let speculating = scraped.iter().any(|stats| stats.get("spec").is_some());
    let has_spec = cluster.get("spec").is_some();
    ensure!(speculating == has_spec, "cluster spec block mismatch");
    // Every cluster counter is the sum of the backend ledgers (a v1
    // backend contributes zero speculative hits).
    for (block, fields) in [("jobs", JOB_COUNTS), ("cache", CACHE_V2), ("spec", SPEC)] {
        for name in names(fields) {
            let want = sum(scraped.iter().map(|stats| int(at(stats, block), name)))?;
            let got = int(at(cluster, block), name);
            ensure!(got == want, "cluster {block}.{name} != sum {want}");
        }
    }
    within("cluster", ledger_rules(cluster))
}

/// Validate a `wec-router-stats-v1` document (the `wec_router` `GET
/// /stats` payload and its drain-time `router.json`).
pub fn validate_router_stats_json(text: &str) -> Result<RouterStatsReport, String> {
    validate_router_stats(&parse(text, "router.json")?, "router.json")
}

/// Validate an already-parsed `wec-router-stats-v1` value.  The document
/// embeds one serve-stats document per live-scraped backend plus a
/// `cluster` roll-up, and the roll-up must *conserve*: every cluster
/// counter equals the sum of the corresponding counters across the
/// embedded backend ledgers (each of which is itself validated, so
/// `cold + disk + mem (+ spec_hits) == completed` holds per backend and —
/// re-checked here — cluster-wide), and the cluster `spec` block, present
/// iff any backend speculates, obeys `hit + waste + cancelled + pending
/// == started` in aggregate.
pub fn validate_router_stats(v: &Json, ctx: &str) -> Result<RouterStatsReport, String> {
    ROUTER_STATS.validate(v, ctx)?;
    let backends = array(v, "backends");
    Ok(RouterStatsReport {
        backends: backends.len() as u64,
        scraped: backends.iter().filter(|b| b.get("stats").is_some()).count() as u64,
        completed: int(at(at(v, "cluster"), "jobs"), "completed"),
    })
}

const DASHBOARD: Schema = Schema {
    shape: Obj(fields![
        schema: Tag("wec-dashboard-data-v1"),
        now_ms: U64, stats: Tagged(&SERVE_STATS),
        samples: Arr(&Obj(fields![
            t_ms: U64, queue_depth: U64, busy_workers: U64, outstanding: U64,
            jobs_per_sec: F64, dedup_hit_rate: F64, kcycles_per_sec: F64,
            // Present only when the sampled server runs --speculate.
            spec_hit_rate?: F64,
        ])),
        http: Arr(&Obj(fields![
            endpoint: NonEmpty, ..BUCKETED,
            mean_us: F64, p50_us: U64, p99_us: U64, max_us: U64,
        ])),
        jobs: Arr(&Obj(fields![..JOB_ROW, has_attr: Bool])),
    ]),
    rules: |v| {
        within("stats", serve_stats_rules(at(v, "stats")))?;
        let mut last = 0u64;
        for (i, sample) in array(v, "samples").iter().enumerate() {
            let t = int(sample, "t_ms");
            ensure!(t >= last, "samples[{i}]: t_ms {t} went backwards");
            last = t;
            for key in ["jobs_per_sec", "kcycles_per_sec"] {
                let r = float(sample, key);
                ensure!(r.is_finite() && r >= 0.0, "samples[{i}]: bad {key}");
            }
            for key in ["dedup_hit_rate", "spec_hit_rate"] {
                within(format!("samples[{i}]"), fraction(sample, key))?;
            }
        }
        for (i, h) in array(v, "http").iter().enumerate() {
            let (p50, p99, max) = (int(h, "p50_us"), int(h, "p99_us"), int(h, "max_us"));
            ensure!(p50 <= p99 && p99 <= max, "http[{i}]: quantile order");
        }
        for (i, j) in array(v, "jobs").iter().enumerate() {
            within(format!("jobs[{i}]"), job_row_rules(j))?;
        }
        Ok(())
    },
};

/// Validate a `wec-dashboard-data-v1` document (the `GET /dashboard/data`
/// payload): the embedded stats snapshot, the sampler ring (t_ms
/// non-decreasing, rates finite, dedup rate a fraction), the per-endpoint
/// latency digests (bucket counts sum to the digest count), and the slim
/// recent-job rows.  Returns the number of ring samples.
pub fn validate_dashboard_data_json(text: &str) -> Result<usize, String> {
    let v = parse(text, "dashboard.json")?;
    DASHBOARD.validate(&v, "dashboard.json")?;
    Ok(array(&v, "samples").len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AttrProbe, AttributionReport, FillOrigin};
    use crate::event::TraceEvent;

    #[test]
    fn emitted_attribution_satisfies_its_own_schema() {
        let mut p = AttrProbe::new(8, 64);
        p.note_pc(0x40);
        p.on_l1_demand(0x1000, false);
        p.on_side_fill(0x1000, 10, FillOrigin::Wrong);
        p.on_side_hit(0x1000, 90);
        p.on_side_fill(0x1040, 90, FillOrigin::Prefetch);
        p.on_side_fill(0x2000, 95, FillOrigin::Victim);
        p.on_side_evict(0x1040);
        let report = AttributionReport::from_probes([&p]);
        let check = validate_attribution_json(&report.to_json()).unwrap();
        assert_eq!(check.n_tus, 1);
        assert_eq!(check.wec_fills, 3);
        assert_eq!(check.useful, 1);
        assert_eq!(check.wasted, 1);
        assert_eq!(check.top_pcs, 1);
    }

    #[test]
    fn attribution_validator_rejects_broken_conservation() {
        let report = AttributionReport::from_probes([&AttrProbe::new(4, 64)]);
        let good = report.to_json();
        let bad = good.replacen("\"useful\":0", "\"useful\":1", 1);
        let err = validate_attribution_json(&bad).unwrap_err();
        assert!(err.contains("conservation"), "{err}");
        let bad = good.replacen(
            "\"schema\":\"wec-attribution-v1\"",
            "\"schema\":\"nope\"",
            1,
        );
        assert!(validate_attribution_json(&bad).is_err());
    }

    #[test]
    fn attr_summary_accepts_empty_and_enforces_conservation() {
        let v = json::parse("{}").unwrap();
        validate_attr_summary(&v, "t").unwrap();
        let v = json::parse(
            "{\"wec_fills\":3,\"useful\":1,\"wasted\":1,\"victim_rescued\":0,\"still_resident\":1}",
        )
        .unwrap();
        validate_attr_summary(&v, "t").unwrap();
        let v = json::parse(
            "{\"wec_fills\":3,\"useful\":2,\"wasted\":1,\"victim_rescued\":0,\"still_resident\":1}",
        )
        .unwrap();
        assert!(validate_attr_summary(&v, "t").is_err());
    }

    #[test]
    fn emitted_events_satisfy_their_own_schema() {
        // One of every variant, round-tripped through the validator.
        let all = vec![
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
        let report = validate_events_jsonl(&text).unwrap();
        assert_eq!(report.total, all.len() as u64);
        assert_eq!(report.count_of("wec_fill"), 1);
        // Every variant name exists in the schema table.
        for ev in &all {
            assert!(
                EVENT_SCHEMA.iter().any(|(n, _)| *n == ev.name()),
                "{} missing from schema",
                ev.name()
            );
        }
        assert_eq!(EVENT_SCHEMA.len(), all.len(), "schema has untested entries");
    }

    #[test]
    fn rejects_malformed_streams() {
        assert!(validate_events_jsonl("not json\n").is_err());
        assert!(validate_events_jsonl("{\"cycle\":1}\n").is_err());
        assert!(validate_events_jsonl("{\"cycle\":1,\"type\":\"nope\"}\n").is_err());
        // Missing field.
        assert!(validate_events_jsonl("{\"cycle\":1,\"type\":\"wec_fill\",\"tu\":0}\n").is_err());
        // Extra field.
        assert!(validate_events_jsonl(
            "{\"cycle\":1,\"type\":\"wec_fill\",\"tu\":0,\"addr\":64,\"x\":1}\n"
        )
        .is_err());
        // Wrong type.
        assert!(validate_events_jsonl(
            "{\"cycle\":1,\"type\":\"wec_fill\",\"tu\":0,\"addr\":\"64\"}\n"
        )
        .is_err());
        // Cycle regression.
        assert!(validate_events_jsonl(
            "{\"cycle\":5,\"type\":\"abort\",\"id\":1}\n{\"cycle\":4,\"type\":\"abort\",\"id\":1}\n"
        )
        .is_err());
    }

    #[test]
    fn timeseries_validation() {
        assert_eq!(
            validate_timeseries_csv("cycle,a,b\n10,1,2\n20,3,4\n").unwrap(),
            2
        );
        assert!(validate_timeseries_csv("a,b\n1,2\n").is_err());
        assert!(validate_timeseries_csv("cycle,a\n10,1\n10,2\n").is_err());
        assert!(validate_timeseries_csv("cycle,a\n10,1,2\n").is_err());
        assert!(validate_timeseries_csv("cycle,a\n10,x\n").is_err());
    }

    #[test]
    fn histograms_validation() {
        let good = "{\"load_to_fill\":{\"count\":3,\"sum\":111,\"min\":5,\"max\":100,\"buckets\":[[4,2],[64,1]]}}";
        assert_eq!(
            validate_histograms_json(good).unwrap(),
            vec!["load_to_fill"]
        );
        let bad =
            "{\"h\":{\"count\":4,\"sum\":111,\"min\":5,\"max\":100,\"buckets\":[[4,2],[64,1]]}}";
        assert!(validate_histograms_json(bad).is_err());
    }

    #[test]
    fn progress_validation() {
        let mut w = crate::report::ProgressWriter::create(
            &std::env::temp_dir().join(format!("wec-progress-schema-{}.jsonl", std::process::id())),
        )
        .unwrap();
        w.start(1, "181.mcf", "orig/t8", 0).unwrap();
        w.finish(9, "181.mcf", "orig/t8", 0, "cold", 8, 1000)
            .unwrap();
        w.finish(9, "164.gzip", "orig/t8", 1, "disk", 0, 500)
            .unwrap();
        let text = std::fs::read_to_string(w.path()).unwrap();
        let r = validate_progress_jsonl(&text).unwrap();
        assert_eq!(
            r,
            ProgressReport {
                starts: 1,
                finishes: 2
            }
        );
        std::fs::remove_file(w.path()).unwrap();

        // Unknown event, bad cache source, extra field, time regression,
        // more starts than finishes.
        assert!(validate_progress_jsonl(
            "{\"event\":\"pause\",\"t_ms\":1,\"bench\":\"b\",\"cfg\":\"c\",\"worker\":0}\n"
        )
        .is_err());
        assert!(validate_progress_jsonl(
            "{\"event\":\"finish\",\"t_ms\":1,\"bench\":\"b\",\"cfg\":\"c\",\"worker\":0,\"cache\":\"warm\",\"dur_ms\":1,\"sim_cycles\":2,\"kcps\":2.0}\n"
        )
        .is_err());
        assert!(validate_progress_jsonl(
            "{\"event\":\"start\",\"t_ms\":1,\"bench\":\"b\",\"cfg\":\"c\",\"worker\":0,\"x\":1}\n"
        )
        .is_err());
        assert!(validate_progress_jsonl(
            "{\"event\":\"start\",\"t_ms\":5,\"bench\":\"b\",\"cfg\":\"c\",\"worker\":0}\n{\"event\":\"start\",\"t_ms\":4,\"bench\":\"b\",\"cfg\":\"c\",\"worker\":0}\n"
        )
        .is_err());
        assert!(validate_progress_jsonl(
            "{\"event\":\"start\",\"t_ms\":1,\"bench\":\"b\",\"cfg\":\"c\",\"worker\":0}\n"
        )
        .is_err());
    }

    #[test]
    fn run_manifest_validation() {
        let m = crate::report::RunManifest {
            scale: 1,
            host: "h".into(),
            sim_revision: 1,
            wall_s: 1.0,
            cold: 2,
            disk_hits: 1,
            mem_hits: 4,
            cold_sim_cycles: 100,
            cold_wall_ms: 10,
            slowest: vec![crate::report::SlowPoint {
                bench: "181.mcf".into(),
                cfg: "orig/t8".into(),
                cache: "cold",
                dur_ms: 7,
            }],
            tables: vec!["fig17".into()],
            metrics: vec![("181.mcf|orig/t8".into(), vec![("cycles".into(), 5)])],
        };
        assert_eq!(validate_run_json(&m.to_json()).unwrap(), 1);

        assert!(validate_run_json("{\"schema\":\"nope\"}").is_err());
        // Inconsistent lookup accounting.
        let broken = m.to_json().replace("\"lookups\":7", "\"lookups\":8");
        assert!(validate_run_json(&broken).is_err());
        // Non-integer metric value.
        let broken = m.to_json().replace("\"cycles\":5", "\"cycles\":5.5");
        assert!(validate_run_json(&broken).is_err());
    }

    #[test]
    fn profile_validation() {
        let mut p = crate::profile::CycleProfiler::new(64);
        let laps = crate::profile::PhaseNs {
            ns: [10, 20, 30, 40, 50, 60],
        };
        p.record(0, &laps);
        let text = p.report(64).to_json();
        let names = validate_profile_json(&text).unwrap();
        assert_eq!(names.len(), crate::profile::PHASE_COUNT);

        assert!(validate_profile_json("{\"schema\":\"nope\"}").is_err());
        // Wall total no longer matches the phase sum.
        let broken = text.replace("\"wall_ns_sampled\":210", "\"wall_ns_sampled\":211");
        assert!(validate_profile_json(&broken).is_err());
        // A phase goes missing.
        let broken = text.replace("\"exec\":{\"ns\":20,\"share\":0.095238},", "");
        assert!(validate_profile_json(&broken).is_err());
        // Sampled cannot exceed total.
        let broken = text.replace("\"total_cycles\":64", "\"total_cycles\":0");
        assert!(validate_profile_json(&broken).is_err());
    }

    fn job_record(state: &str, source: &str, error: &str, metrics: &str) -> String {
        format!(
            "{{\"schema\":\"wec-job-record-v1\",\"id\":3,\"kind\":\"sim\",\"bench\":\"181.mcf\",\
             \"scale\":1,\"cfg\":\"wth-wp-wec/t8\",\"state\":\"{state}\",\"source\":\"{source}\",\
             \"submissions\":2,\"worker\":1,\"submit_t_ms\":10,\"start_t_ms\":11,\
             \"finish_t_ms\":40,\"dur_ms\":29,\"sim_cycles\":48000,\"error\":\"{error}\",\
             \"metrics\":{metrics},\"attribution\":{{}}}}"
        )
    }

    #[test]
    fn job_record_validation() {
        let good = job_record("done", "cold", "", "{\"cycles\":48000}");
        validate_job_record(&json::parse(&good).unwrap(), "t").unwrap();
        let jsonl = format!("{good}\n{}\n", job_record("failed", "none", "boom", "{}"));
        assert_eq!(
            validate_jobs_jsonl(&jsonl).unwrap(),
            JobsReport {
                total: 2,
                done: 1,
                failed: 1,
                cancelled: 0
            }
        );

        // A queued record is valid over HTTP but not in the terminal log.
        let queued = job_record("queued", "none", "", "{}");
        validate_job_record(&json::parse(&queued).unwrap(), "t").unwrap();
        assert!(validate_jobs_jsonl(&format!("{queued}\n")).is_err());

        // Speculative records: an unclaimed completion keeps zero
        // submissions and source "spec"; a reclaimed one is "cancelled".
        let spec_done = job_record("done", "spec", "", "{\"cycles\":48000}")
            .replace("\"submissions\":2", "\"submissions\":0")
            .replace(
                "\"sim_cycles\":48000",
                "\"sim_cycles\":48000,\"speculative\":true",
            );
        validate_job_record(&json::parse(&spec_done).unwrap(), "t").unwrap();
        let spec_cancelled = job_record("cancelled", "none", "", "{}")
            .replace("\"submissions\":2", "\"submissions\":0")
            .replace(
                "\"sim_cycles\":48000",
                "\"sim_cycles\":48000,\"speculative\":true",
            );
        validate_job_record(&json::parse(&spec_cancelled).unwrap(), "t").unwrap();
        let report = validate_jobs_jsonl(&format!("{spec_done}\n{spec_cancelled}\n")).unwrap();
        assert_eq!(
            report,
            JobsReport {
                total: 2,
                done: 1,
                failed: 0,
                cancelled: 1
            }
        );
        // Zero submissions on a demand record, a cancelled demand record,
        // and speculative:false are all malformed.
        let bad = good.replace("\"submissions\":2", "\"submissions\":0");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
        let bad = job_record("cancelled", "none", "", "{}");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
        let bad = spec_done.replace("\"speculative\":true", "\"speculative\":false");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());

        // Done without a source, failed without an error, fractional
        // metric, unknown state, extra field.
        let bad = job_record("done", "none", "", "{\"cycles\":1}");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
        let bad = job_record("failed", "none", "", "{}");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
        let bad = job_record("done", "mem", "", "{\"ipc\":0.5}");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
        let bad = job_record("paused", "none", "", "{}");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
        let bad = good.replace("\"id\":3", "\"id\":3,\"x\":1");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
        // Timestamps must be ordered.
        let bad = good.replace("\"finish_t_ms\":40", "\"finish_t_ms\":5");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
        // The attribution summary must itself conserve.
        let bad = good.replace(
            "\"attribution\":{}",
            "\"attribution\":{\"wec_fills\":2,\"useful\":2,\"wasted\":1,\
             \"victim_rescued\":0,\"still_resident\":0}",
        );
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
        // And a record without it is incomplete.
        let bad = good.replace(",\"attribution\":{}", "");
        assert!(validate_job_record(&json::parse(&bad).unwrap(), "t").is_err());
    }

    #[test]
    fn serve_stats_validation() {
        let good = "{\"schema\":\"wec-serve-stats-v1\",\"uptime_ms\":1000,\"workers\":4,\
                    \"busy_workers\":1,\"draining\":false,\
                    \"queue\":{\"depth\":2,\"cap\":64,\"rejected\":1},\
                    \"jobs\":{\"submitted\":10,\"deduped\":3,\"completed\":5,\"failed\":1},\
                    \"cache\":{\"cold\":3,\"disk_hits\":1,\"mem_hits\":1},\
                    \"throughput\":{\"jobs_per_sec\":5.0,\"utilization\":0.25}}";
        validate_serve_stats_json(good).unwrap();

        assert!(validate_serve_stats_json("{\"schema\":\"nope\"}").is_err());
        // Busy workers cannot exceed the pool.
        let bad = good.replace("\"busy_workers\":1", "\"busy_workers\":9");
        assert!(validate_serve_stats_json(&bad).is_err());
        // Queue deeper than its own capacity.
        let bad = good.replace("\"depth\":2", "\"depth\":65");
        assert!(validate_serve_stats_json(&bad).is_err());
        // Cache split must account for every completed job.
        let bad = good.replace("\"cold\":3", "\"cold\":4");
        assert!(validate_serve_stats_json(&bad).is_err());
        // Utilization is a fraction.
        let bad = good.replace("\"utilization\":0.25", "\"utilization\":1.5");
        assert!(validate_serve_stats_json(&bad).is_err());
        // More terminal jobs than submissions.
        let bad = good.replace("\"submitted\":10", "\"submitted\":5");
        assert!(validate_serve_stats_json(&bad).is_err());
    }

    #[test]
    fn serve_stats_v2_validation() {
        let good = "{\"schema\":\"wec-serve-stats-v2\",\"uptime_ms\":1000,\"workers\":4,\
                    \"busy_workers\":1,\"draining\":false,\
                    \"queue\":{\"depth\":2,\"cap\":64,\"rejected\":1,\"spec_depth\":3,\"spec_cap\":16},\
                    \"jobs\":{\"submitted\":10,\"deduped\":3,\"completed\":5,\"failed\":1},\
                    \"cache\":{\"cold\":2,\"disk_hits\":1,\"mem_hits\":1,\"spec_hits\":1},\
                    \"spec\":{\"started\":7,\"hit\":2,\"miss\":2,\"waste\":1,\"cancelled\":1,\"pending\":3},\
                    \"throughput\":{\"jobs_per_sec\":5.0,\"utilization\":0.25}}";
        validate_serve_stats_json(good).unwrap();

        // v1 documents must not carry any of the v2 fields.
        let v1_leak = good.replace("wec-serve-stats-v2", "wec-serve-stats-v1");
        assert!(validate_serve_stats_json(&v1_leak).is_err());
        // The speculation ledger must conserve: started splits exactly
        // into hit + waste + cancelled + pending.
        let bad = good.replace("\"started\":7", "\"started\":8");
        assert!(validate_serve_stats_json(&bad).is_err());
        // Completions split across all four sources.
        let bad = good.replace("\"spec_hits\":1", "\"spec_hits\":2");
        assert!(validate_serve_stats_json(&bad).is_err());
        // Warm spec serves cannot exceed total spec hits.
        let bad = good
            .replace("\"spec_hits\":1", "\"spec_hits\":3")
            .replace("\"cold\":2", "\"cold\":0");
        assert!(validate_serve_stats_json(&bad).is_err());
        // The spec queue respects its own bound, and the block is required.
        let bad = good.replace("\"spec_depth\":3", "\"spec_depth\":17");
        assert!(validate_serve_stats_json(&bad).is_err());
        let bad = good.replace(
            "\"spec\":{\"started\":7,\"hit\":2,\"miss\":2,\"waste\":1,\"cancelled\":1,\"pending\":3},",
            "",
        );
        assert!(validate_serve_stats_json(&bad).is_err());
    }

    #[test]
    fn access_log_validation() {
        let good = "{\"t_ms\":120,\"method\":\"GET\",\"path\":\"/stats\",\"status\":200,\"dur_us\":85,\"bytes\":412}\n\
                    {\"t_ms\":100,\"method\":\"POST\",\"path\":\"/jobs\",\"status\":503,\"dur_us\":12,\"bytes\":40}\n\
                    {\"t_ms\":130,\"method\":\"-\",\"path\":\"-\",\"status\":400,\"dur_us\":3,\"bytes\":28}\n";
        // Out-of-order t_ms is fine: concurrent connections finish racily.
        assert_eq!(validate_access_jsonl(good).unwrap(), 3);

        assert!(validate_access_jsonl("not json\n").is_err());
        let line =
            "{\"t_ms\":1,\"method\":\"GET\",\"path\":\"/x\",\"status\":200,\"dur_us\":1,\"bytes\":2}";
        // Status outside the HTTP range, extra field, missing field.
        assert!(validate_access_jsonl(&line.replace(":200", ":99")).is_err());
        assert!(validate_access_jsonl(&line.replace("\"t_ms\":1", "\"t_ms\":1,\"x\":1")).is_err());
        assert!(validate_access_jsonl(&line.replace("\"bytes\":2", "\"b\":2")).is_err());
        assert!(validate_access_jsonl(&line.replace("\"GET\"", "\"\"")).is_err());
    }

    #[test]
    fn dashboard_data_validation() {
        let stats = "{\"schema\":\"wec-serve-stats-v1\",\"uptime_ms\":1000,\"workers\":4,\
                     \"busy_workers\":1,\"draining\":false,\
                     \"queue\":{\"depth\":2,\"cap\":64,\"rejected\":1},\
                     \"jobs\":{\"submitted\":10,\"deduped\":3,\"completed\":5,\"failed\":1},\
                     \"cache\":{\"cold\":3,\"disk_hits\":1,\"mem_hits\":1},\
                     \"throughput\":{\"jobs_per_sec\":5.0,\"utilization\":0.25}}";
        let good = format!(
            "{{\"schema\":\"wec-dashboard-data-v1\",\"now_ms\":1000,\"stats\":{stats},\
             \"samples\":[{{\"t_ms\":500,\"queue_depth\":1,\"busy_workers\":1,\"outstanding\":2,\
             \"jobs_per_sec\":2.5,\"dedup_hit_rate\":0.5,\"kcycles_per_sec\":100.0}},\
             {{\"t_ms\":1000,\"queue_depth\":0,\"busy_workers\":0,\"outstanding\":0,\
             \"jobs_per_sec\":0.0,\"dedup_hit_rate\":0.0,\"kcycles_per_sec\":0.0}}],\
             \"http\":[{{\"endpoint\":\"submit\",\"count\":3,\"mean_us\":80.5,\"p50_us\":63,\
             \"p99_us\":127,\"max_us\":130,\"buckets\":[[64,2],[128,1]]}}],\
             \"jobs\":[{{\"id\":1,\"kind\":\"sim\",\"bench\":\"181.mcf\",\"cfg\":\"orig/t8\",\
             \"state\":\"done\",\"source\":\"cold\",\"submissions\":2,\"worker\":0,\
             \"dur_ms\":30,\"sim_cycles\":48000,\"has_attr\":false}}]}}"
        );
        assert_eq!(validate_dashboard_data_json(&good).unwrap(), 2);

        assert!(validate_dashboard_data_json("{\"schema\":\"nope\"}").is_err());
        // Sampler time going backwards, dedup rate out of range, bucket
        // counts not summing, quantile inversion, bad embedded stats, and
        // an unknown slim-row state.
        assert!(
            validate_dashboard_data_json(&good.replace("\"t_ms\":1000", "\"t_ms\":400")).is_err()
        );
        assert!(validate_dashboard_data_json(
            &good.replace("\"dedup_hit_rate\":0.5", "\"dedup_hit_rate\":1.5")
        )
        .is_err());
        assert!(
            validate_dashboard_data_json(&good.replace("[[64,2],[128,1]]", "[[64,2]]")).is_err()
        );
        assert!(
            validate_dashboard_data_json(&good.replace("\"p99_us\":127", "\"p99_us\":999999"))
                .is_err()
        );
        assert!(validate_dashboard_data_json(&good.replace("\"cold\":3", "\"cold\":4")).is_err());
        assert!(validate_dashboard_data_json(
            &good.replace("\"state\":\"done\"", "\"state\":\"paused\"")
        )
        .is_err());

        // Speculation extensions: samples may carry spec_hit_rate (a
        // fraction), job rows may be flagged speculative with source
        // "spec" and zero submissions.
        let spec_good = good
            .replace(
                "\"dedup_hit_rate\":0.5,",
                "\"dedup_hit_rate\":0.5,\"spec_hit_rate\":0.25,",
            )
            .replace(
                "\"source\":\"cold\",\"submissions\":2",
                "\"source\":\"spec\",\"submissions\":0,\"speculative\":true",
            );
        assert_eq!(validate_dashboard_data_json(&spec_good).unwrap(), 2);
        assert!(validate_dashboard_data_json(
            &spec_good.replace("\"spec_hit_rate\":0.25", "\"spec_hit_rate\":1.25")
        )
        .is_err());
        assert!(validate_dashboard_data_json(
            &spec_good.replace("\"speculative\":true", "\"speculative\":false")
        )
        .is_err());
    }

    #[test]
    fn perfetto_validation_balances_spans() {
        let good = "{\"traceEvents\":[{\"ph\":\"B\",\"tid\":1,\"ts\":1},{\"ph\":\"E\",\"tid\":1,\"ts\":2}]}";
        assert_eq!(validate_perfetto(good).unwrap(), 2);
        let unbalanced = "{\"traceEvents\":[{\"ph\":\"B\",\"tid\":1,\"ts\":1}]}";
        assert!(validate_perfetto(unbalanced).is_err());
        let stray_end = "{\"traceEvents\":[{\"ph\":\"E\",\"tid\":1,\"ts\":1}]}";
        assert!(validate_perfetto(stray_end).is_err());
    }
}
