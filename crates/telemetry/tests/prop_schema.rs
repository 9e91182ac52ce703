//! Hostile input for the JSON parser and every schema validator: arbitrary
//! bytes, truncations of good documents, byte flips, and numbers swapped
//! for extreme values must each return `Ok` or `Err` — never panic.

use proptest::collection::vec;
use proptest::prelude::*;
use wec_telemetry::attr::{AttrProbe, AttributionReport, FillOrigin};
use wec_telemetry::event::TraceEvent;
use wec_telemetry::json;
use wec_telemetry::profile::{CycleProfiler, PhaseNs};
use wec_telemetry::report::{progress_finish_line, progress_start_line, RunManifest, SlowPoint};
use wec_telemetry::schema;

const STATS: &str = "{\"schema\":\"wec-serve-stats-v2\",\"backend_id\":\"a\",\"uptime_ms\":1000,\
    \"workers\":4,\"busy_workers\":1,\"draining\":false,\
    \"queue\":{\"depth\":2,\"cap\":64,\"rejected\":1,\"spec_depth\":3,\"spec_cap\":16},\
    \"jobs\":{\"submitted\":10,\"deduped\":3,\"completed\":5,\"failed\":1},\
    \"cache\":{\"cold\":2,\"disk_hits\":1,\"mem_hits\":1,\"spec_hits\":1},\
    \"spec\":{\"started\":7,\"hit\":2,\"miss\":2,\"waste\":1,\"cancelled\":1,\"pending\":3},\
    \"throughput\":{\"jobs_per_sec\":5.0,\"utilization\":0.25}}";

const JOB: &str = "{\"schema\":\"wec-job-record-v1\",\"id\":3,\"kind\":\"sim\",\
    \"bench\":\"181.mcf\",\"scale\":1,\"cfg\":\"c\",\"state\":\"done\",\"source\":\"cold\",\
    \"submissions\":1,\"worker\":1,\"submit_t_ms\":10,\"start_t_ms\":11,\"finish_t_ms\":40,\
    \"dur_ms\":29,\"sim_cycles\":48000,\"error\":\"\",\"metrics\":{\"cycles\":48000},\
    \"attribution\":{\"wec_fills\":3,\"useful\":1,\"wasted\":1,\"victim_rescued\":0,\
    \"still_resident\":1}}";

/// One good document per validator, each from its emitter where one
/// exists.
fn seeds() -> Vec<String> {
    let mut events = String::new();
    for (i, ev) in [
        TraceEvent::WecFill { tu: 1, addr: 64 },
        TraceEvent::Commit {
            tu: 0,
            seq: 1,
            pc: 2,
            op: "nop".into(),
        },
        TraceEvent::Abort { id: 5 },
    ]
    .iter()
    .enumerate()
    {
        ev.write_jsonl(i as u64, &mut events);
    }
    let mut probe = AttrProbe::new(4, 64);
    probe.note_pc(0x40);
    probe.on_side_fill(0x1000, 10, FillOrigin::Wrong);
    probe.on_side_hit(0x1000, 90);
    probe.on_side_fill(0x2000, 95, FillOrigin::Victim);
    let mut profiler = CycleProfiler::new(64);
    profiler.record(
        0,
        &PhaseNs {
            ns: [10, 20, 30, 40, 50, 60],
        },
    );
    let run = RunManifest {
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
            bench: "b".into(),
            cfg: "c".into(),
            cache: "cold",
            dur_ms: 7,
        }],
        tables: vec!["fig17".into()],
        metrics: vec![("b|c".into(), vec![("cycles".into(), 5)])],
    };
    let router = format!(
        "{{\"schema\":\"wec-router-stats-v1\",\"uptime_ms\":5,\"draining\":false,\
         \"router\":{{\"requests\":3,\"proxied\":2,\"retries\":0,\"resharded\":0,\"rejected\":0,\
         \"hints_sent\":1,\"hints_accepted\":1}},\
         \"backends\":[{{\"id\":\"a\",\"addr\":\"x:1\",\"state\":\"healthy\",\
         \"consecutive_failures\":0,\"routed\":2,\"stats\":{STATS}}}],\
         \"cluster\":{{\"backends\":{{\"healthy\":1,\"draining\":0,\"dead\":0}},\
         \"jobs\":{{\"submitted\":10,\"deduped\":3,\"completed\":5,\"failed\":1}},\
         \"cache\":{{\"cold\":2,\"disk_hits\":1,\"mem_hits\":1,\"spec_hits\":1}},\
         \"spec\":{{\"started\":7,\"hit\":2,\"miss\":2,\"waste\":1,\"cancelled\":1,\"pending\":3}},\
         \"throughput\":{{\"jobs_per_sec\":1.0}}}}}}"
    );
    let dashboard = format!(
        "{{\"schema\":\"wec-dashboard-data-v1\",\"now_ms\":9,\"stats\":{STATS},\
         \"samples\":[{{\"t_ms\":5,\"queue_depth\":1,\"busy_workers\":1,\"outstanding\":2,\
         \"jobs_per_sec\":2.5,\"dedup_hit_rate\":0.5,\"kcycles_per_sec\":1.0,\
         \"spec_hit_rate\":0.25}}],\
         \"http\":[{{\"endpoint\":\"submit\",\"count\":3,\"mean_us\":8.5,\"p50_us\":6,\
         \"p99_us\":12,\"max_us\":13,\"buckets\":[[64,2],[128,1]]}}],\
         \"jobs\":[{{\"id\":1,\"kind\":\"sim\",\"bench\":\"b\",\"cfg\":\"c\",\"state\":\"done\",\
         \"source\":\"spec\",\"submissions\":0,\"worker\":0,\"dur_ms\":3,\"sim_cycles\":4,\
         \"has_attr\":true,\"speculative\":true}}]}}"
    );
    vec![
        events,
        "cycle,a,b\n10,1,2\n20,3,4\n".into(),
        "{\"h\":{\"count\":3,\"sum\":111,\"min\":5,\"max\":100,\"buckets\":[[4,2],[64,1]]}}".into(),
        "{\"traceEvents\":[{\"ph\":\"B\",\"tid\":1,\"ts\":1},{\"ph\":\"E\",\"tid\":1,\"ts\":2}]}"
            .into(),
        format!(
            "{}\n{}\n",
            progress_start_line(1, "b", "c", 0),
            progress_finish_line(9, "b", "c", 0, "cold", 8, 1000)
        ),
        run.to_json(),
        profiler.report(64).to_json(),
        AttributionReport::from_probes([&probe]).to_json(),
        format!("{JOB}\n"),
        STATS.into(),
        router,
        "{\"t_ms\":1,\"method\":\"GET\",\"path\":\"/x\",\"status\":200,\"dur_us\":1,\"bytes\":2}\n"
            .into(),
        dashboard,
    ]
}

/// Run the parser and every validator over `text`; only a panic fails.
/// Returns how many validators accepted it.
fn validate_all(text: &str) -> usize {
    let mut verdicts = vec![
        schema::validate_events_jsonl(text).is_ok(),
        schema::validate_timeseries_csv(text).is_ok(),
        schema::validate_histograms_json(text).is_ok(),
        schema::validate_perfetto(text).is_ok(),
        schema::validate_progress_jsonl(text).is_ok(),
        schema::validate_run_json(text).is_ok(),
        schema::validate_profile_json(text).is_ok(),
        schema::validate_attribution_json(text).is_ok(),
        schema::validate_jobs_jsonl(text).is_ok(),
        schema::validate_serve_stats_json(text).is_ok(),
        schema::validate_router_stats_json(text).is_ok(),
        schema::validate_access_jsonl(text).is_ok(),
        schema::validate_dashboard_data_json(text).is_ok(),
    ];
    for doc in std::iter::once(text).chain(text.lines()) {
        if let Ok(v) = json::parse(doc) {
            verdicts.push(schema::validate_job_record(&v, "job").is_ok());
            verdicts.push(schema::validate_attr_summary(&v, "attr").is_ok());
            verdicts.push(schema::validate_serve_stats(&v, "stats").is_ok());
            verdicts.push(schema::validate_router_stats(&v, "router").is_ok());
        }
    }
    verdicts.into_iter().filter(|&ok| ok).count()
}

#[test]
fn every_seed_is_a_valid_document() {
    for seed in seeds() {
        assert!(validate_all(&seed) > 0, "no validator accepts {seed}");
    }
}

const EXTREMES: [&str; 6] = ["1e300", "1e999", "-1", "0.5", "18446744073709551615", "-0"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_bytes_never_panic(raw in vec(any::<u8>(), 0..600)) {
        validate_all(&String::from_utf8_lossy(&raw));
    }

    #[test]
    fn truncations_never_panic(pick in any::<usize>(), cut in any::<usize>()) {
        let seeds = seeds();
        let seed = seeds[pick % seeds.len()].as_bytes();
        let cut = cut % (seed.len() + 1);
        validate_all(&String::from_utf8_lossy(&seed[..cut]));
    }

    #[test]
    fn byte_flips_never_panic(pick in any::<usize>(), flips in vec((any::<usize>(), any::<u8>()), 1..6)) {
        let seeds = seeds();
        let mut bytes = seeds[pick % seeds.len()].clone().into_bytes();
        for (at, b) in flips {
            let n = bytes.len();
            bytes[at % n] = b;
        }
        validate_all(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn extreme_numbers_never_panic(pick in any::<usize>(), swaps in vec((any::<usize>(), 0..EXTREMES.len()), 1..6)) {
        // Swap whole numbers for extremes, so the edits reach the
        // cross-field rules rather than the parser.
        let seeds = seeds();
        let mut text = seeds[pick % seeds.len()].clone();
        for (at, which) in swaps {
            let digits: Vec<usize> = text
                .char_indices()
                .filter(|&(i, c)| c.is_ascii_digit() && !text[..i].ends_with(|p: char| p.is_ascii_digit()))
                .map(|(i, _)| i)
                .collect();
            if digits.is_empty() {
                break;
            }
            let start = digits[at % digits.len()];
            let end = text[start..]
                .find(|c: char| !c.is_ascii_digit() && c != '.')
                .map_or(text.len(), |n| start + n);
            text.replace_range(start..end, EXTREMES[which]);
        }
        validate_all(&text);
    }
}
