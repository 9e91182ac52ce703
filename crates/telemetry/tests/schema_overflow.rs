//! Counter sums in the schema invariants must not overflow.
//!
//! `Json::as_u64` saturates `1e300` to `u64::MAX`, so a hostile or corrupt
//! document can make any invariant's sum exceed `u64`.  An unchecked `+`
//! then either panics (overflow checks on) or wraps to a small number that
//! happens to satisfy the invariant (overflow checks off).  Every document
//! below is built so that the wrapped sum satisfies its check; each must
//! be rejected with `Err` under both profiles.

use std::panic::{catch_unwind, AssertUnwindSafe};

use wec_telemetry::json;
use wec_telemetry::schema;

const MAX: &str = "1e300";

fn stats_v1(jobs: &str, cache: &str) -> String {
    format!(
        "{{\"schema\":\"wec-serve-stats-v1\",\"uptime_ms\":1000,\"workers\":4,\
         \"busy_workers\":1,\"draining\":false,\
         \"queue\":{{\"depth\":0,\"cap\":64,\"rejected\":0}},\
         \"jobs\":{jobs},\"cache\":{cache},\
         \"throughput\":{{\"jobs_per_sec\":1.0,\"utilization\":0.5}}}}"
    )
}

fn stats_v2(cache: &str, spec: &str) -> String {
    format!(
        "{{\"schema\":\"wec-serve-stats-v2\",\"uptime_ms\":1000,\"workers\":4,\
         \"busy_workers\":1,\"draining\":false,\
         \"queue\":{{\"depth\":0,\"cap\":64,\"rejected\":0,\"spec_depth\":0,\"spec_cap\":8}},\
         \"jobs\":{{\"submitted\":10,\"deduped\":0,\"completed\":1,\"failed\":0}},\
         \"cache\":{cache},\"spec\":{spec},\
         \"throughput\":{{\"jobs_per_sec\":1.0,\"utilization\":0.5}}}}"
    )
}

/// Cache sources `1e300 + 1` against zero completed jobs.
fn wrapping_cache_v1() -> String {
    stats_v1(
        "{\"submitted\":0,\"deduped\":0,\"completed\":0,\"failed\":0}",
        &format!("{{\"cold\":{MAX},\"disk_hits\":1,\"mem_hits\":0}}"),
    )
}

fn router(backends: &[String], cluster_jobs: &str, cluster_cache: &str) -> String {
    let rows: Vec<String> = backends
        .iter()
        .enumerate()
        .map(|(i, stats)| {
            format!(
                "{{\"id\":\"n{i}\",\"addr\":\"127.0.0.1:{}\",\"state\":\"healthy\",\
                 \"consecutive_failures\":0,\"routed\":1,\"stats\":{stats}}}",
                8600 + i
            )
        })
        .collect();
    format!(
        "{{\"schema\":\"wec-router-stats-v1\",\"uptime_ms\":1,\"draining\":false,\
         \"router\":{{\"requests\":0,\"proxied\":0,\"retries\":0,\"resharded\":0,\
         \"rejected\":0,\"hints_sent\":0,\"hints_accepted\":0}},\
         \"backends\":[{}],\
         \"cluster\":{{\"backends\":{{\"healthy\":{},\"draining\":0,\"dead\":0}},\
         \"jobs\":{cluster_jobs},\"cache\":{cluster_cache},\
         \"throughput\":{{\"jobs_per_sec\":0.0}}}}}}",
        rows.join(","),
        backends.len()
    )
}

struct Attr {
    block_bytes: u64,
    totals: String,
    tus: Vec<String>,
    timeliness: String,
    top_pcs: String,
    sets: String,
}

fn totals(fields: &[(&str, &str)]) -> String {
    let keys = [
        "wec_fills",
        "fills_wrong",
        "fills_victim",
        "fills_prefetch",
        "useful",
        "wasted",
        "victim_rescued",
        "still_resident",
        "pollution_bytes",
    ];
    let body: Vec<String> = keys
        .iter()
        .map(|k| {
            let v = fields.iter().find(|(n, _)| n == k).map_or("0", |(_, v)| v);
            format!("\"{k}\":{v}")
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

const ZERO_SETS: &str = "{\"l1_accesses\":[0,0],\"l1_misses\":[0,0],\"side_fills\":[0,0],\
    \"side_hits\":[0,0],\"victim_transfers\":[0,0]}";

impl Attr {
    fn new(totals: String) -> Attr {
        Attr {
            block_bytes: 64,
            tus: vec![totals.clone()],
            totals,
            timeliness: "{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]}".into(),
            top_pcs: "[]".into(),
            sets: ZERO_SETS.into(),
        }
    }

    fn render(&self) -> String {
        format!(
            "{{\"schema\":\"wec-attribution-v1\",\"block_bytes\":{},\"l1_sets\":2,\"n_tus\":{},\
             \"totals\":{},\"tus\":[{}],\"timeliness\":{},\"top_pcs\":{},\"sets\":{}}}",
            self.block_bytes,
            self.tus.len(),
            self.totals,
            self.tus.join(","),
            self.timeliness,
            self.top_pcs,
            self.sets
        )
    }
}

/// One overflowing document: what it tests, and its validator's verdict.
type Case = (&'static str, fn() -> Result<(), String>);

fn cases() -> Vec<Case> {
    let mut out: Vec<Case> = Vec::new();

    // --- serve stats ---
    out.push(("serve stats: cache sources vs completed", || {
        schema::validate_serve_stats_json(&wrapping_cache_v1())
    }));
    out.push(("serve stats: completed + failed vs submitted", || {
        schema::validate_serve_stats_json(&stats_v1(
            &format!("{{\"submitted\":5,\"deduped\":0,\"completed\":{MAX},\"failed\":1}}"),
            &format!("{{\"cold\":{MAX},\"disk_hits\":0,\"mem_hits\":0}}"),
        ))
    }));
    out.push(("serve stats v2: spec ledger", || {
        schema::validate_serve_stats_json(&stats_v2(
            "{\"cold\":1,\"disk_hits\":0,\"mem_hits\":0,\"spec_hits\":0}",
            &format!(
                "{{\"started\":0,\"hit\":{MAX},\"miss\":0,\"waste\":1,\"cancelled\":0,\
                     \"pending\":0}}"
            ),
        ))
    }));
    out.push(("router scrape check refuses the backend document", || {
        schema::validate_serve_stats(&json::parse(&wrapping_cache_v1())?, "scrape")
    }));

    // --- router cluster sums: two backends whose counters sum past u64 ---
    out.push(("router: cluster sums across backends", || {
        let big = stats_v1(
            &format!("{{\"submitted\":{MAX},\"deduped\":0,\"completed\":{MAX},\"failed\":0}}"),
            &format!("{{\"cold\":{MAX},\"disk_hits\":0,\"mem_hits\":0}}"),
        );
        let one = stats_v1(
            "{\"submitted\":1,\"deduped\":0,\"completed\":1,\"failed\":0}",
            "{\"cold\":1,\"disk_hits\":0,\"mem_hits\":0}",
        );
        schema::validate_router_stats_json(&router(
            &[big, one],
            "{\"submitted\":0,\"deduped\":0,\"completed\":0,\"failed\":0}",
            "{\"cold\":0,\"disk_hits\":0,\"mem_hits\":0,\"spec_hits\":0}",
        ))
        .map(drop)
    }));

    // --- run.json lookups ---
    out.push(("run.json: cold + disk + mem vs lookups", || {
        schema::validate_run_json(&format!(
            "{{\"schema\":\"wec-run-manifest-v1\",\"scale\":1,\"host\":\"h\",\
                 \"sim_revision\":1,\"wall_s\":1.0,\
                 \"simulations\":{{\"lookups\":0,\"cold\":{MAX},\"disk_hits\":1,\
                 \"mem_hits\":0,\"cache_hit_rate\":0.5}},\
                 \"eta\":{{\"mean_cold_ms\":1.0,\"sim_cycles_per_sec\":1.0}},\
                 \"slowest\":[],\"tables\":[],\"metrics\":{{}}}}"
        ))
        .map(drop)
    }));

    // --- profile.json phase sum ---
    out.push(("profile.json: phase ns vs wall", || {
        schema::validate_profile_json(&format!(
            "{{\"schema\":\"wec-profile-v1\",\"stride\":1,\"sampled_cycles\":1,\
                 \"total_cycles\":1,\"wall_ns_sampled\":0,\"phases\":{{\
                 \"fetch_rename\":{{\"ns\":{MAX},\"share\":0.5}},\
                 \"exec\":{{\"ns\":1,\"share\":0.5}},\
                 \"mem\":{{\"ns\":0,\"share\":0.0}},\
                 \"commit_recovery\":{{\"ns\":0,\"share\":0.0}},\
                 \"sched\":{{\"ns\":0,\"share\":0.0}},\
                 \"telemetry\":{{\"ns\":0,\"share\":0.0}}}}}}"
        ))
        .map(drop)
    }));

    // --- attribution ---
    out.push(("attribution: totals conservation", || {
        let t = totals(&[("useful", MAX), ("wasted", "1"), ("pollution_bytes", "64")]);
        let mut a = Attr::new(t);
        a.timeliness =
            format!("{{\"count\":{MAX},\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[[2,{MAX}]]}}");
        schema::validate_attribution_json(&a.render()).map(drop)
    }));
    out.push(("attribution: origin split", || {
        let t = totals(&[("fills_wrong", MAX), ("fills_prefetch", "1")]);
        schema::validate_attribution_json(&Attr::new(t).render()).map(drop)
    }));
    out.push(("attribution: per-TU sums", || {
        let mut a = Attr::new(totals(&[
            ("wec_fills", "1"),
            ("fills_wrong", "1"),
            ("wasted", "1"),
            ("pollution_bytes", "64"),
        ]));
        a.tus = vec![
            totals(&[("useful", MAX), ("wasted", "1"), ("pollution_bytes", "64")]),
            totals(&[("wec_fills", "1"), ("fills_wrong", "1"), ("useful", "1")]),
        ];
        a.sets = ZERO_SETS.replace("\"side_fills\":[0,0]", "\"side_fills\":[1,0]");
        schema::validate_attribution_json(&a.render()).map(drop)
    }));
    out.push((
        "attribution: pollution_bytes = wasted x block_bytes",
        || {
            // u64::MAX * 2048 wraps to 2^64 - 2048, which f64 holds exactly.
            let wrapped = "18446744073709549568";
            let mut a = Attr::new(totals(&[
                ("wec_fills", MAX),
                ("fills_wrong", MAX),
                ("wasted", MAX),
                ("pollution_bytes", wrapped),
            ]));
            a.block_bytes = 2048;
            a.sets =
                ZERO_SETS.replace("\"side_fills\":[0,0]", &format!("\"side_fills\":[{MAX},0]"));
            schema::validate_attribution_json(&a.render()).map(drop)
        },
    ));
    out.push(("attribution: top_pcs pollution and useful sum", || {
        let mut a = Attr::new(totals(&[]));
        a.block_bytes = 2048;
        a.top_pcs = format!(
            "[{{\"pc\":1,\"useful\":{MAX},\"wasted\":{MAX},\"median_timeliness\":0,\
                 \"pollution_bytes\":18446744073709549568}},\
                 {{\"pc\":2,\"useful\":1,\"wasted\":0,\"median_timeliness\":0,\
                 \"pollution_bytes\":0}}]"
        );
        schema::validate_attribution_json(&a.render()).map(drop)
    }));
    out.push(("attribution: timeliness bucket sum", || {
        let mut a = Attr::new(totals(&[]));
        a.timeliness =
            format!("{{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[[2,{MAX}],[4,1]]}}");
        schema::validate_attribution_json(&a.render()).map(drop)
    }));
    out.push(("attribution: set heatmap sums", || {
        let mut a = Attr::new(totals(&[]));
        a.sets = ZERO_SETS
            .replace(
                "\"l1_accesses\":[0,0]",
                &format!("\"l1_accesses\":[{MAX},1]"),
            )
            .replace("\"side_fills\":[0,0]", &format!("\"side_fills\":[{MAX},1]"));
        schema::validate_attribution_json(&a.render()).map(drop)
    }));
    out.push(("attribution summary: conservation", || {
        let v = json::parse(&format!(
            "{{\"wec_fills\":0,\"useful\":{MAX},\"wasted\":1,\"victim_rescued\":0,\
                 \"still_resident\":0}}"
        ))?;
        schema::validate_attr_summary(&v, "attr")
    }));

    // --- bucket sums elsewhere ---
    out.push(("histograms.json: bucket sum", || {
        schema::validate_histograms_json(&format!(
            "{{\"h\":{{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\
                 \"buckets\":[[4,{MAX}],[64,1]]}}}}"
        ))
        .map(drop)
    }));
    out.push(("dashboard.json: http bucket sum", || {
        let stats = stats_v1(
            "{\"submitted\":0,\"deduped\":0,\"completed\":0,\"failed\":0}",
            "{\"cold\":0,\"disk_hits\":0,\"mem_hits\":0}",
        );
        schema::validate_dashboard_data_json(&format!(
            "{{\"schema\":\"wec-dashboard-data-v1\",\"now_ms\":1,\"stats\":{stats},\
                 \"samples\":[],\"http\":[{{\"endpoint\":\"submit\",\"count\":0,\
                 \"mean_us\":0.0,\"p50_us\":0,\"p99_us\":0,\"max_us\":0,\
                 \"buckets\":[[64,{MAX}],[128,1]]}}],\"jobs\":[]}}"
        ))
        .map(drop)
    }));
    out
}

#[test]
fn overflowing_counter_sums_are_rejected_not_wrapped_or_panicking() {
    let mut wrong = Vec::new();
    for (what, validate) in cases() {
        match catch_unwind(AssertUnwindSafe(validate)) {
            Ok(Err(_)) => {}
            Ok(Ok(())) => wrong.push(format!("{what}: accepted")),
            Err(_) => wrong.push(format!("{what}: panicked")),
        }
    }
    assert!(
        wrong.is_empty(),
        "overflow not rejected:\n{}",
        wrong.join("\n")
    );
}
