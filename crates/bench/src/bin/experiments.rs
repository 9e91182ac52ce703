//! Regenerate every table and figure of the paper's evaluation.
//!
//! The usage is [`USAGE`], which `--help` prints.
//!
//! Results are memoized on disk (default `target/wec-result-cache`,
//! override with `WEC_RESULT_CACHE`), so a rerun at the same scale and
//! simulator revision replays from the store.  `--no-cache` neither reads
//! nor writes the store.
//!
//! In table mode, `--run-out DIR` streams per-simulation progress lines to
//! `DIR/progress.jsonl` and writes a `DIR/run.json` manifest (totals, cache
//! hit rate, slowest simulations) at the end; `--live` renders a single
//! updating status line on stderr while the sweep runs.  `--jobs N` caps
//! the host worker threads the sweep fans out over (default: the `WEC_JOBS`
//! environment variable, then the machine's available parallelism — set one
//! of them when a `wec_serve` daemon shares the host).
//!
//! Passing `--trace-events`, `--sample-interval N`, `--profile`, or
//! `--attribution` switches the harness into **telemetry mode**: instead of
//! regenerating tables it runs the selected workloads (default `181.mcf`;
//! `--only` substring-filters by benchmark name) on the paper's
//! `wth-wp-wec` machine with the requested instruments on, writes the
//! artifacts (`events.jsonl`, `timeseries.csv`, `histograms.json`,
//! `trace.perfetto.json`, `profile.json`, `attribution.json`) under
//! `--telemetry-out DIR/<bench>/` (default `target/wec-telemetry`), and
//! prints a telemetry summary.  `--attribution` attaches the speculation
//! attribution ledger to every L1D path: per-PC prefetch credit, waste and
//! timeliness, per-set occupancy pressure, and per-TU conservation totals,
//! emitted as a strict `wec-attribution-v1` `attribution.json` (validate
//! with `telemetry_check`).  The ledger is purely observational — cycles,
//! metrics, and cache counters are byte-identical with it on or off.  `--profile`
//! turns on the cycle-loop self-profiler: sampled per-phase wall-clock
//! attribution (fetch/rename, exec, mem, commit/recovery, scheduling,
//! telemetry drain) reported as `profile.json` and, with `--trace-events`,
//! as Perfetto counter tracks.  Telemetry runs always bypass the result
//! cache — artifacts must come from a live simulation (`--no-cache` is
//! therefore rejected as redundant).
//!
//! `--capture-trace DIR` switches into **trace-capture mode**: each
//! selected workload (default all six; `--only` substring-filters) runs
//! once, full-timing, on the paper's `wth-wp-wec` 8-TU machine with the
//! memory-access tap on, writing `DIR/<bench>.wectrace`, golden cache
//! counters under `DIR/golden/`, and a `DIR/capture.json` manifest.
//! `--replay-trace DIR` then re-drives *only the cache hierarchy* from
//! those traces across the 48-point WEC geometry sweep, re-checking each
//! trace at its captured configuration (`--run-out OUT`, default
//! `target/wec-replay`, receives `OUT/golden-check/` — gate with
//! `metricsdiff DIR/golden OUT/golden-check`) and memoizing sweep points
//! in the result store (`--no-cache` replays every point cold).  Replay
//! decodes each trace once into a shared in-memory slab and fans both
//! block decoding and sweep points over `--jobs N` workers (default:
//! `WEC_JOBS`, then available parallelism); every counter, artifact, and
//! memo entry is byte-identical at any job count.  Telemetry instruments
//! cannot combine with replay (replay never runs the core pipeline), and
//! capture is always a live full-timing run (`--jobs` is rejected there).
//! Exception: `--replay-trace` accepts `--attribution` — the ledger rides
//! on the replayed L1D paths, every sweep point is replayed cold (the
//! result store memoizes counters, not ledgers), and each point writes an
//! `.attr.json` next to its `.kv`, including
//! `OUT/golden-check/<bench>.attr.json` at the captured configuration,
//! which must be byte-identical to the full-timing ledger.
//! `--capture-trace` still rejects it: capture records exactly the
//! untraced machine — derive the ledger via `--replay-trace --attribution`
//! or a telemetry-mode run.

use std::sync::Arc;

use wec_bench::experiments;

type TableFn = Box<dyn Fn(&Runner) -> wec_common::table::Table>;
use wec_bench::progress::Progress;
use wec_bench::runner::{Runner, Suite};
use wec_core::config::ProcPreset;
use wec_telemetry::{Phase, TelemetryConfig};
use wec_workloads::{run_and_verify, Bench, Scale};

const USAGE: &str = "\
usage: experiments [--scale N] [--only figNN|tableN] [--csv] [--no-cache]
                   [--run-out DIR] [--live] [--jobs N]
       experiments [--scale N] [--only bench] [--trace-events] [--profile]
                   [--sample-interval N] [--attribution] [--telemetry-out DIR]
                   [--commit-trace N]
       experiments [--scale N] [--only bench] --capture-trace DIR
       experiments [--only bench] [--csv] [--no-cache] [--run-out DIR]
                   [--jobs N] [--attribution] --replay-trace DIR
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::PAPER;
    let mut scale_set = false;
    let mut only: Option<String> = None;
    let mut csv = false;
    let mut no_cache = false;
    let mut trace_events = false;
    let mut profile = false;
    let mut attribution = false;
    let mut sample_interval = 0u64;
    let mut telemetry_out: Option<std::path::PathBuf> = None;
    let mut commit_trace = 0usize;
    let mut run_out: Option<std::path::PathBuf> = None;
    let mut live = false;
    let mut jobs: Option<usize> = None;
    let mut capture_trace: Option<std::path::PathBuf> = None;
    let mut replay_trace: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => {
                print!("{USAGE}");
                return;
            }
            "--capture-trace" => {
                capture_trace = Some(it.next().expect("--capture-trace DIR").into())
            }
            "--replay-trace" => replay_trace = Some(it.next().expect("--replay-trace DIR").into()),
            "--scale" => {
                scale = Scale {
                    units: it.next().and_then(|s| s.parse().ok()).expect("--scale N"),
                };
                scale_set = true;
            }
            "--only" => only = it.next().cloned(),
            "--csv" => csv = true,
            "--no-cache" => no_cache = true,
            "--trace-events" => trace_events = true,
            "--profile" => profile = true,
            "--attribution" => attribution = true,
            "--live" => live = true,
            "--jobs" => {
                let n: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--jobs N (positive integer)");
                assert!(n > 0, "--jobs needs at least one worker");
                jobs = Some(n);
            }
            "--run-out" => run_out = Some(it.next().expect("--run-out DIR").into()),
            "--sample-interval" => {
                sample_interval = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--sample-interval N")
            }
            "--telemetry-out" => {
                telemetry_out = Some(it.next().expect("--telemetry-out DIR").into())
            }
            "--commit-trace" => {
                commit_trace = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--commit-trace N")
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    let telemetry_mode = trace_events || sample_interval > 0 || profile || attribution;
    if capture_trace.is_some() || replay_trace.is_some() {
        if capture_trace.is_some() && replay_trace.is_some() {
            panic!("--capture-trace and --replay-trace are mutually exclusive: capture is a full-timing run, replay re-drives an existing trace");
        }
        if trace_events
            || sample_interval > 0
            || profile
            || telemetry_out.is_some()
            || commit_trace > 0
        {
            panic!("--trace-events/--profile/--sample-interval/--telemetry-out/--commit-trace cannot combine with trace capture/replay: replay drives only the cache hierarchy (the core pipeline never runs), and capture records exactly the untraced machine — use telemetry mode separately");
        }
        if attribution && capture_trace.is_some() {
            panic!("--attribution cannot combine with --capture-trace: capture records exactly the untraced machine — derive the ledger from the trace with --replay-trace --attribution, or run telemetry mode (--attribution alone) for the full-timing ledger");
        }
        if live {
            panic!("--live renders table-mode sweep progress; trace capture/replay print their own per-workload progress");
        }
        if let Some(dir) = capture_trace {
            if jobs.is_some() {
                panic!("--jobs applies to table-mode sweeps and --replay-trace; capture is one full-timing run per workload and is inherently sequential (WEC_JOBS also has no effect on it)");
            }
            if no_cache {
                panic!("--no-cache has no effect on --capture-trace: capture always runs the simulation live (the result store only memoizes metrics, not traces)");
            }
            if csv {
                panic!("--csv applies to table output; --capture-trace writes binary traces and .kv goldens");
            }
            if run_out.is_some() {
                panic!("--run-out applies to table and replay modes; --capture-trace writes everything under its own DIR");
            }
            wec_bench::tracerun::capture_traces(scale, only.as_deref(), &dir);
        } else if let Some(dir) = replay_trace {
            if scale_set {
                panic!("--replay-trace replays at the scale recorded in each trace; --scale applies to capture/table/telemetry modes");
            }
            let out = run_out.unwrap_or_else(|| std::path::PathBuf::from("target/wec-replay"));
            let n = jobs.unwrap_or_else(wec_bench::runner::default_hosts);
            wec_bench::tracerun::replay_traces(
                &dir,
                &out,
                no_cache,
                csv,
                only.as_deref(),
                n,
                attribution,
            );
        }
        return;
    }
    if telemetry_mode {
        if run_out.is_some() || live {
            panic!("--run-out/--live apply to table mode, not telemetry mode");
        }
        if jobs.is_some() {
            panic!("--jobs applies to table-mode sweeps; telemetry runs each workload once, sequentially");
        }
        if no_cache {
            panic!("telemetry runs always bypass the result cache (artifacts must come from a live simulation) — drop the redundant --no-cache");
        }
        run_telemetry(
            scale,
            only.as_deref(),
            trace_events,
            profile,
            sample_interval,
            attribution,
            telemetry_out,
            commit_trace,
        );
        return;
    }
    if commit_trace > 0 || telemetry_out.is_some() {
        panic!(
            "--commit-trace/--telemetry-out need --trace-events, --sample-interval, --profile, or --attribution"
        );
    }

    let selected: Vec<(&str, TableFn)> = vec![
        (
            "table1",
            Box::new(|r: &Runner| experiments::table1(r.suite())),
        ),
        ("table2", Box::new(experiments::table2)),
        ("table3", Box::new(|_r: &Runner| experiments::table3())),
        ("fig08", Box::new(experiments::fig08)),
        ("fig09", Box::new(experiments::fig09)),
        ("fig10", Box::new(experiments::fig10)),
        ("fig11", Box::new(experiments::fig11)),
        ("fig12", Box::new(experiments::fig12)),
        ("fig13", Box::new(experiments::fig13)),
        ("fig14", Box::new(experiments::fig14)),
        ("fig15", Box::new(experiments::fig15)),
        ("fig16", Box::new(experiments::fig16)),
        ("fig17", Box::new(experiments::fig17)),
        (
            "ablation_mem_latency",
            Box::new(wec_bench::ablations::memory_latency),
        ),
        (
            "ablation_block_size",
            Box::new(wec_bench::ablations::block_size),
        ),
        (
            "ablation_bpred",
            Box::new(wec_bench::ablations::branch_prediction),
        ),
    ];
    if let Some(filter) = &only {
        if !selected
            .iter()
            .any(|(name, _)| name.contains(filter.as_str()))
        {
            let names: Vec<&str> = selected.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "--only {filter:?} matches no table or figure (names: {})",
                names.join(" ")
            );
            std::process::exit(2);
        }
    }

    eprintln!(
        "building the workload suite (scale units = {})…",
        scale.units
    );
    let t0 = std::time::Instant::now();
    let suite = Suite::build(scale);
    eprintln!(
        "built in {:.1}s; running experiments…",
        t0.elapsed().as_secs_f64()
    );
    let mut runner = if no_cache {
        Runner::without_disk_cache(&suite)
    } else {
        Runner::new(&suite)
    };
    if let Some(dir) = runner.disk_dir() {
        eprintln!("result cache: {}", dir.display());
    }
    if let Some(n) = jobs {
        runner.set_hosts(n);
        eprintln!("sweep workers: {n} (--jobs)");
    }
    let progress = Arc::new(
        Progress::new(run_out.as_deref(), live).expect("cannot create --run-out directory"),
    );
    runner.set_observer(progress.clone());
    if let Some(dir) = progress.run_dir() {
        eprintln!("run artifacts: {}", dir.display());
    }

    let mut tables_run: Vec<String> = Vec::new();
    for (name, f) in &selected {
        if let Some(filter) = &only {
            if !name.contains(filter.as_str()) {
                continue;
            }
        }
        let t = std::time::Instant::now();
        let table = f(&runner);
        tables_run.push(name.to_string());
        if csv {
            println!("# {name}");
            print!("{}", table.to_csv());
        } else {
            print!("{}", table.render());
        }
        progress.finish_live();
        eprintln!(
            "[{name}: {:.1}s, {} simulations cached]",
            t.elapsed().as_secs_f64(),
            runner.simulations()
        );
        println!();
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let c = runner.counters();
    eprintln!(
        "total {wall_s:.1}s, {} distinct simulations ({} cold, {} disk hits, {} mem hits, {:.1}% persistent hit rate)",
        runner.simulations(),
        c.cold(),
        c.disk_hits(),
        c.mem_hits(),
        c.hit_rate() * 100.0
    );
    let manifest = progress
        .write_manifest(&runner, scale.units as u64, wall_s, &tables_run)
        .expect("cannot write run.json");
    if let Some(dir) = progress.run_dir() {
        eprintln!(
            "wrote {} and {} ({} metric points)",
            dir.join("progress.jsonl").display(),
            dir.join("run.json").display(),
            manifest.metrics.len()
        );
    }
}

/// Telemetry mode: run the selected workloads on the paper's `wth-wp-wec`
/// machine with the requested instruments and print what they captured.
#[allow(clippy::too_many_arguments)]
fn run_telemetry(
    scale: Scale,
    only: Option<&str>,
    trace_events: bool,
    profile: bool,
    sample_interval: u64,
    attribution: bool,
    out: Option<std::path::PathBuf>,
    commit_trace: usize,
) {
    let out = out.unwrap_or_else(|| std::path::PathBuf::from("target/wec-telemetry"));
    let benches: Vec<Bench> = match only {
        None => vec![Bench::Mcf],
        Some(filter) => Bench::ALL
            .iter()
            .copied()
            .filter(|b| b.name().contains(filter))
            .collect(),
    };
    if benches.is_empty() {
        panic!("--only {only:?} matches no benchmark (names: 175.vpr 164.gzip 181.mcf 197.parser 183.equake 177.mesa)");
    }

    for bench in benches {
        let w = bench.build(scale);
        let bench_dir = out.join(w.name.replace('.', "_"));
        let mut cfg = ProcPreset::WthWpWec.machine(8);
        cfg.core.commit_trace = commit_trace;
        cfg.attribution = attribution;
        cfg.telemetry = TelemetryConfig {
            trace_events,
            sample_interval,
            profile,
            out_dir: Some(bench_dir.clone()),
        };
        eprintln!(
            "telemetry run: {} (scale units = {}, preset wth-wp-wec, 8 TUs)…",
            w.name, scale.units
        );
        let t = std::time::Instant::now();
        let r = run_and_verify(&w, cfg).expect("telemetry run failed");

        println!("== telemetry: {} ==", w.name);
        println!(
            "cycles {}  instructions {}  ipc {:.3}",
            r.cycles,
            r.metrics.correct_instructions(),
            r.metrics.ipc()
        );
        // Absent when only --attribution is on: the ledger is not a
        // telemetry instrument, so the event/sample machinery stays off.
        if let Some(tel) = &r.telemetry {
            println!("events_total {}  samples {}", tel.events_total, tel.samples);
            for (kind, n) in &tel.events_by_kind {
                println!("  event {kind:<22} {n}");
            }
            for h in &tel.histograms {
                println!(
                    "  hist  {:<22} count {}  p50 {}  p99 {}  max {}",
                    h.name, h.count, h.p50, h.p99, h.max
                );
            }
            if let Some(p) = &tel.profile {
                println!(
                    "  profile: 1-in-{} cycles sampled ({} of {})",
                    p.stride, p.sampled_cycles, p.total_cycles
                );
                let shares = p.shares();
                for phase in Phase::ALL {
                    println!(
                        "  prof  {:<22} {:>5.1}%  {} ns sampled",
                        phase.name(),
                        shares[phase as usize] * 100.0,
                        p.ns[phase as usize]
                    );
                }
            }
            for f in &tel.files {
                println!("  wrote {}", f.display());
            }
        }
        if let Some(report) = &r.attribution {
            assert!(
                report.conserved(),
                "attribution ledger violates conservation on {}",
                w.name
            );
            std::fs::create_dir_all(&bench_dir)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", bench_dir.display()));
            let path = bench_dir.join("attribution.json");
            std::fs::write(&path, format!("{}\n", report.to_json()))
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            let tot = &report.totals;
            println!(
                "  attr  wec_fills {}  useful {}  wasted {}  victim_rescued {}  still_resident {}",
                tot.wec_fills, tot.useful, tot.wasted, tot.victim_rescued, tot.still_resident
            );
            if let Some(top) = report.top_pcs.first() {
                println!(
                    "  attr  top pc {:#010x}: {} useful, {} wasted, median timeliness {}",
                    top.pc, top.useful, top.wasted, top.median_timeliness
                );
            }
            println!("  wrote {}", path.display());
        }
        eprintln!("[{}: {:.1}s]", w.name, t.elapsed().as_secs_f64());
        println!();
    }
}
