//! `replay-sweep`: capture all six traces at `capture_key()` and decode
//! their slabs in set-up, then time `replay_sweep` over the 48
//! `sweep_keys()` per benchmark with the result store off and two jobs.

use std::collections::BTreeMap;
use std::time::Instant;

use wec_bench::tracerun::{capture_key, replay_point, replay_sweep, sweep_keys, PointResult};
use wec_bench::{diff, MetricSet, Policy};
use wec_trace::{cache_stat_subset, capture_run, CaptureMeta, Trace, TraceSlab};
use wec_workloads::{run_and_verify, Bench};

use crate::report::{Report, BENCHES};
use crate::spans::Tracer;
use crate::stats::{fnv1a, median, per_cpu_median, Pin, Rng, Samples, FNV_OFFSET};
use crate::{Ctx, HOSTS, SCALE};

/// One benchmark's captured input.
pub struct Captured {
    pub bench: Bench,
    pub slab: TraceSlab,
    /// The full-timing run's cache counters (`cache_stat_subset`).
    pub golden: Vec<(String, u64)>,
    pub encoded: Vec<u8>,
}

/// Set-up timings of one capture of the six benchmarks.
#[derive(Default)]
pub struct SetupTimes {
    pub total: f64,
    pub build: f64,
    pub capture: f64,
    pub decode: f64,
    pub slab: f64,
}

/// Capture `bench` at `capture_key()`, round-trip it through its byte
/// encoding and decode its slab, with a span around each call.
pub fn capture(bench: Bench, tracer: &Tracer, parent: u64, t: &mut SetupTimes) -> Captured {
    let job = bench as u64;
    let s = tracer.open("workloads.build", parent, job);
    let w = bench.build(SCALE);
    t.build += s.end();
    let key = capture_key();
    let meta = CaptureMeta {
        bench: w.name.to_string(),
        scale_units: SCALE.units,
        cfg_label: key.label(),
    };
    let s = tracer.open("core.capture_run", parent, job);
    let (result, trace) = capture_run(&w, key.build(), &meta)
        .unwrap_or_else(|e| panic!("capture of {} failed: {e}", w.name));
    t.capture += s.end();
    let encoded = trace.to_bytes();
    drop(trace);
    let s = tracer.open("trace.decode", parent, job);
    let trace = Trace::from_bytes(&encoded)
        .and_then(|tr| tr.verify().map(|_| tr))
        .unwrap_or_else(|e| panic!("decode of {} failed: {e}", w.name));
    t.decode += s.end();
    let s = tracer.open("trace.slab_build", parent, job);
    let slab = TraceSlab::build(&trace, HOSTS)
        .unwrap_or_else(|e| panic!("slab of {} failed: {e}", w.name));
    t.slab += s.end();
    Captured {
        bench,
        slab,
        golden: cache_stat_subset(&result.stats),
        encoded,
    }
}

fn setup(tracer: &Tracer) -> (Vec<Captured>, SetupTimes) {
    let mut t = SetupTimes::default();
    let start = Instant::now();
    let s = tracer.open("setup", 0, 0);
    let caps = Bench::ALL
        .iter()
        .map(|&b| capture(b, tracer, s.id(), &mut t))
        .collect();
    t.total = start.elapsed().as_secs_f64();
    (caps, t)
}

fn as_set(pairs: &[(String, u64)]) -> MetricSet {
    let mut points = BTreeMap::new();
    points.insert(
        "capture_key".to_string(),
        pairs.iter().map(|(k, v)| (k.clone(), *v as f64)).collect(),
    );
    MetricSet {
        source: String::new(),
        points,
    }
}

/// Zero-drift check: replay at the captured configuration must reproduce
/// the full-timing counters exactly.  `Err` names the drifted counters.
fn check_golden(golden: &[(String, u64)], replayed: &[(String, u64)]) -> Result<(), String> {
    let report = diff(&as_set(golden), &as_set(replayed), &Policy::default());
    if report.clean() {
        Ok(())
    } else {
        Err(report
            .to_markdown()
            .lines()
            .take(6)
            .collect::<Vec<_>>()
            .join(" | "))
    }
}

/// L1D, side-structure and L2 probes behind one replayed point: every
/// L1D demand and wrong-execution access, one side-structure lookup per
/// L1D demand miss, and every L2 access.
fn probes(subset: &[(String, u64)]) -> u64 {
    subset
        .iter()
        .filter(|(k, _)| {
            (k.starts_with("tu")
                && (k.ends_with(".l1d.demand_accesses")
                    || k.ends_with(".l1d.wrong_accesses")
                    || k.ends_with(".l1d.demand_misses")))
                || (k.starts_with("l2.") && k.ends_with("_accesses"))
        })
        .map(|(_, v)| v)
        .sum()
}

/// Per-benchmark sweep wall times and results of one pass.
struct Pass {
    wall: f64,
    /// `(bench index, seconds, results)` in the order run.
    benches: Vec<(usize, f64, Vec<PointResult>)>,
    /// Traced passes only: `(bench index, point seconds)`.
    points: Vec<(usize, f64)>,
}

fn pass(caps: &[Captured], order_seed: u64, tracer: &Tracer) -> Pass {
    let keys = sweep_keys();
    let mut order: Vec<usize> = (0..caps.len()).collect();
    Rng::new(order_seed, 2).shuffle(&mut order);
    let start = Instant::now();
    let mut benches = Vec::new();
    let mut points = Vec::new();
    for b in order {
        let t = Instant::now();
        let results = if tracer.enabled() {
            // Same work as `replay_sweep` (a shared-counter pool over
            // `replay_point`), with a span around every point.
            let s = tracer.open("trace.replay_sweep", 0, b as u64);
            let slots: Vec<std::sync::Mutex<Option<(PointResult, f64)>>> =
                keys.iter().map(|_| std::sync::Mutex::new(None)).collect();
            let next = std::sync::atomic::AtomicUsize::new(0);
            std::thread::scope(|sc| {
                for _ in 0..HOSTS {
                    sc.spawn(|| loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&key) = keys.get(i) else {
                            return;
                        };
                        let job = (b * keys.len() + i) as u64;
                        let p = tracer.open("trace.replay_point", s.id(), job);
                        let r = replay_point(&caps[b].slab, key, None);
                        let secs = p.end();
                        *slots[i].lock().expect("slot poisoned") = Some((r, secs));
                    });
                }
            });
            slots
                .into_iter()
                .map(|m| {
                    let (r, secs) = m
                        .into_inner()
                        .expect("slot poisoned")
                        .expect("replay pool left a point unfilled");
                    points.push((b, secs));
                    r
                })
                .collect()
        } else {
            replay_sweep(&caps[b].slab, &keys, None, HOSTS)
        };
        benches.push((b, t.elapsed().as_secs_f64(), results));
    }
    Pass {
        wall: start.elapsed().as_secs_f64(),
        benches,
        points,
    }
}

/// Count the pass's points, golden-check the captured configuration and
/// check the pass reproduces the first pass's counters.
fn check_pass(caps: &[Captured], p: &Pass, rep: &mut Report, first: &mut Option<u64>) {
    let keys = sweep_keys();
    let base = keys
        .iter()
        .position(|k| *k == capture_key())
        .expect("sweep_keys contains capture_key");
    let mut bench_results: Vec<&(usize, f64, Vec<PointResult>)> = p.benches.iter().collect();
    bench_results.sort_by_key(|r| r.0);
    let mut d = FNV_OFFSET;
    for (b, _, results) in bench_results {
        for _ in results {
            rep.op(true);
        }
        if let Err(e) = check_golden(&caps[*b].golden, &results[base].0) {
            rep.check(
                &format!("replay golden {}", caps[*b].bench.name()),
                false,
                &e,
            );
        }
        for (subset, _) in results {
            d = fnv1a(d, wec_trace::kv_string(subset).as_bytes());
        }
    }
    match first {
        None => *first = Some(d),
        Some(f) if *f != d => rep.check("replay counters equal across passes", false, ""),
        _ => {}
    }
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let keys = sweep_keys().len() as f64;
    let mut totals = Vec::new();
    let mut caps = Vec::new();
    for k in 0..HOSTS {
        caps.clear();
        let _pin = Pin::nth(k, HOSTS);
        let (c, t) = setup(&Tracer::off());
        caps = c;
        totals.push(t.total);
    }
    rep.set_n("setup_s", per_cpu_median(&totals, HOSTS), totals.len());
    for c in &caps {
        let ok = check_golden(&c.golden, &replay_point(&c.slab, capture_key(), None).0);
        rep.check(
            &format!(
                "replay at capture_key() matches full timing, {}",
                c.bench.name()
            ),
            ok.is_ok(),
            ok.err().as_deref().unwrap_or("zero drift"),
        );
    }
    let records = |b: usize| caps[b].slab.records() as f64;
    let mut first = None;

    if !ctx.traced {
        let t0 = Instant::now();
        let mut latency = Samples::default();
        // Per benchmark: its sweep time in every pass.
        let mut sweeps = vec![Vec::new(); caps.len()];
        let mut r = 0;
        while r == 0 || t0.elapsed().as_secs_f64() < ctx.seconds {
            let p = pass(&caps, ctx.seed.wrapping_add(r), &Tracer::off());
            check_pass(&caps, &p, rep, &mut first);
            for (b, secs, results) in &p.benches {
                sweeps[*b].push(*secs);
                for _ in results {
                    latency.push(secs * 1e3);
                }
            }
            r += 1;
        }
        // Each benchmark's median sweep time, as on sim-sweep.
        let replayed: f64 = (0..caps.len()).map(|b| records(b) * keys).sum();
        let wall: f64 = sweeps.iter().map(|s| median(s)).sum();
        rep.set_n("ops_per_s", replayed / wall, r as usize);
        rep.set_n("p50_ms", latency.median(), latency.len());
        rep.set_n("p90_ms", latency.pct(0.9), latency.len());
        if let Some((q, v)) = latency.tail() {
            rep.note(format!(
                "tail: p{} = {v:.3} ms (n={})",
                q * 100.0,
                latency.len()
            ));
        }
        rep.note(format!(
            "replay-sweep: {r} passes of {} points, trace records replayed per second (each benchmark at its median sweep time)",
            caps.len() as f64 * keys
        ));
        return;
    }

    // Traced run: set-up once more under spans (plus untraced timing runs
    // for the capture overhead), then an untraced and a traced pass.
    let tracer = ctx.tracer.clone();
    let (_, t) = setup(&tracer);
    let mut plain_run = 0.0;
    for b in Bench::ALL {
        let w = b.build(SCALE);
        let s = tracer.open("core.run", 0, b as u64);
        run_and_verify(&w, capture_key().build())
            .unwrap_or_else(|e| panic!("untraced run of {} failed: {e}", w.name));
        plain_run += s.end();
    }
    rep.set("workloads.build_s", t.build);
    rep.set("core.capture_overhead", t.capture / plain_run);
    rep.set("trace.decode_s", t.decode);
    rep.set("trace.slab_build_s", t.slab);
    let plain = pass(&caps, ctx.seed, &Tracer::off());
    check_pass(&caps, &plain, rep, &mut first);
    let p = pass(&caps, ctx.seed, &tracer);
    check_pass(&caps, &p, rep, &mut first);
    rep.set("bench.trace_overhead_s", p.wall - plain.wall);
    rep.set("trace.records", (0..caps.len()).map(records).sum::<f64>());
    let mut per_bench = [0.0f64; 6];
    for &(b, secs) in &p.points {
        per_bench[b] += secs;
    }
    for (b, name) in BENCHES.iter().enumerate() {
        rep.set(
            &format!("trace.replay_ns_per_rec.{name}"),
            per_bench[b] * 1e9 / (records(b) * keys),
        );
    }
    let busy: f64 = per_bench.iter().sum();
    rep.set("trace.busy_share", busy / (HOSTS as f64 * p.wall));
    let n_probes: u64 = p
        .benches
        .iter()
        .flat_map(|(_, _, rs)| rs.iter().map(|(s, _)| probes(s)))
        .sum();
    rep.set("mem.probes", n_probes as f64);
    rep.set("mem.ns_per_probe", busy * 1e9 / n_probes.max(1) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_check_catches_one_tampered_counter() {
        let golden = vec![
            ("l2.demand_accesses".to_string(), 10u64),
            ("tu0.l1d.demand_misses".to_string(), 3),
        ];
        assert!(check_golden(&golden, &golden).is_ok());
        let mut tampered = golden.clone();
        tampered[1].1 += 1;
        assert!(check_golden(&golden, &tampered).is_err());
        assert!(check_golden(&golden, &golden[..1]).is_err());
    }

    #[test]
    fn probes_sum_l1d_side_and_l2() {
        let subset = vec![
            ("l2.demand_accesses".to_string(), 5u64),
            ("tu0.l1d.demand_accesses".to_string(), 100),
            ("tu0.l1d.demand_misses".to_string(), 7),
            ("tu1.l1d.wrong_accesses".to_string(), 9),
            ("tu0.l1i.ifetch_accesses".to_string(), 1000),
        ];
        assert_eq!(probes(&subset), 121);
    }
}
