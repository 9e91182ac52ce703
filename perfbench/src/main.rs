//! The repository's benchmark: three workloads, each timed from outside
//! around calls into the crates' public functions.
//!
//! ```text
//! perfbench --workload sim-sweep|replay-sweep|serve-mix --seed N
//!           --seconds S --trace 0|1 [--work-dir DIR]
//! perfbench serve-daemon --store DIR
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! work once untraced and once under spans, prints the per-layer metrics
//! and the tracing overhead, and writes the spans as Chrome/Perfetto JSON
//! to `DIR/trace-<workload>-<seed>.json`.  Every run checks its outputs,
//! prints each metric with its unit and direction, and ends with one JSON
//! result line.  `perfbench/run.py` builds this and stamps the host.

mod http;
mod replay;
mod report;
mod serve;
mod sim;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

use wec_workloads::Scale;

use report::Report;
use spans::Tracer;

/// Host threads for sweeps, replay jobs, daemon workers and load.
pub const HOSTS: usize = 2;

/// Workload scale of every simulation and capture.
pub const SCALE: Scale = Scale::SMOKE;

pub const WORKLOADS: [&str; 3] = ["sim-sweep", "replay-sweep", "serve-mix"];

/// What one run was asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tracer: Tracer,
    pub work_dir: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--work-dir DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve-daemon") {
        match args.get(1..) {
            Some([flag, dir]) if flag == "--store" => serve::daemon(std::path::Path::new(dir)),
            _ => usage("serve-daemon takes --store DIR"),
        }
        return;
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut work_dir = PathBuf::from("perfbench-work");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => seed = v.parse::<u64>().ok(),
            "--seconds" => seconds = v.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(v.as_str(), "0" | "1").then(|| v == "1"),
            "--work-dir" => work_dir = PathBuf::from(v),
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(workload) = workload.filter(|w| WORKLOADS.contains(&w.as_str())) else {
        usage("--workload names none of the workloads");
    };
    let (Some(seed), Some(seconds), Some(traced)) = (seed, seconds, trace) else {
        usage("--seed, --seconds and --trace are required");
    };
    std::fs::create_dir_all(&work_dir).expect("cannot create the work directory");
    let work_dir = work_dir
        .canonicalize()
        .expect("work directory has a canonical path");
    let t0 = Instant::now();
    let ctx = Ctx {
        seed,
        seconds,
        traced,
        tracer: if traced {
            Tracer::on(t0)
        } else {
            Tracer::off()
        },
        work_dir,
    };
    let mut rep = Report::default();
    match workload.as_str() {
        "sim-sweep" => sim::run(&ctx, &mut rep),
        "replay-sweep" => replay::run(&ctx, &mut rep),
        _ => serve::run(&ctx, &mut rep),
    }
    if rep.get("peak_rss_mb").is_none() {
        rep.set("peak_rss_mb", stats::peak_rss_mb("self"));
    }
    rep.set("pass_share", 1.0 - rep.fail_share());
    rep.set("bench.fail_share", rep.fail_share());
    if traced {
        let path = ctx.work_dir.join(format!("trace-{workload}-{seed}.json"));
        std::fs::write(&path, ctx.tracer.to_chrome_json()).expect("cannot write the span file");
        rep.note(format!(
            "spans: {} written to {} ({})",
            ctx.tracer.count(),
            path.display(),
            ctx.tracer.names().join(", ")
        ));
        if let Some(o) = rep.get("bench.trace_overhead_s") {
            rep.note(format!(
                "tracing overhead: {o:.4} s (traced minus untraced wall time of the same work)"
            ));
        }
    }
    rep.note(format!("wall: {:.3} s", t0.elapsed().as_secs_f64()));
    rep.print(traced);
}
