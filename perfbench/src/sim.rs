//! `sim-sweep`: cold full-timing simulation through `Runner`, all six
//! benchmarks × four presets at 8 TUs, result store off, two host threads.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wec_bench::{CacheSource, CfgKey, RunObserver, Runner, Suite};
use wec_core::config::ProcPreset;
use wec_core::metrics::MachineMetrics;
use wec_workloads::Bench;

use crate::report::{Report, BENCHES, PRESETS};
use crate::spans::Tracer;
use crate::stats::{fnv1a, median, per_cpu_median, Pin, Rng, Samples, FNV_OFFSET};
use crate::{Ctx, HOSTS, SCALE};

/// Digest of every point's `MachineMetrics::to_kv` at [`SCALE`] on the
/// current simulator: a speed change must leave it unchanged.
const EXPECTED_DIGEST: u64 = 0xf595_3fcc_c90a_c059;

fn presets() -> [ProcPreset; 4] {
    PRESETS.map(|name| {
        ProcPreset::ALL
            .iter()
            .copied()
            .find(|p| p.name() == name)
            .expect("PRESETS names a preset ProcPreset::ALL lacks")
    })
}

/// Build the suite with one span per benchmark; returns it and the time.
fn build_suite(tracer: &Tracer, parent: u64) -> (Suite, f64) {
    let t = Instant::now();
    let workloads = Bench::ALL
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let _s = tracer.open("workloads.build", parent, i as u64);
            b.build(SCALE)
        })
        .collect();
    (
        Suite {
            scale: SCALE,
            workloads,
        },
        t.elapsed().as_secs_f64(),
    )
}

/// Times every simulation the runner starts; keyed by (bench, label).
struct Timer {
    tracer: Tracer,
    parent: u64,
    due: Instant,
    index: HashMap<(&'static str, String), u64>,
    started: Mutex<HashMap<u64, Instant>>,
    /// `(point index, run seconds, seconds from due to done)`.
    done: Mutex<Vec<(u64, f64, f64)>>,
}

impl RunObserver for Timer {
    fn sim_started(&self, bench: &'static str, key: &CfgKey, _worker: usize) {
        let idx = self.index[&(bench, key.label())];
        self.started
            .lock()
            .expect("timer poisoned")
            .insert(idx, Instant::now());
    }

    fn sim_finished(
        &self,
        bench: &'static str,
        key: &CfgKey,
        _worker: usize,
        src: CacheSource,
        _dur_ms: u64,
        _cycles: u64,
    ) {
        if src != CacheSource::Cold {
            return;
        }
        let end = Instant::now();
        let idx = self.index[&(bench, key.label())];
        let Some(start) = self.started.lock().expect("timer poisoned").remove(&idx) else {
            return;
        };
        self.tracer.record("core.run", self.parent, idx, start, end);
        self.done.lock().expect("timer poisoned").push((
            idx,
            (end - start).as_secs_f64(),
            (end - self.due).as_secs_f64(),
        ));
    }
}

/// One cold pass over every point, in the order `rng` draws.
struct Pass {
    wall: f64,
    /// Completed points: `(bench idx, preset idx) -> metrics`.
    metrics: HashMap<(usize, usize), MachineMetrics>,
    /// `(point index, run seconds, seconds from due to done)`.
    timings: Vec<(u64, f64, f64)>,
    sims: u64,
}

fn pass(suite: &Suite, order_seed: u64, tracer: &Tracer) -> Pass {
    let presets = presets();
    let mut points: Vec<(usize, usize)> = (0..BENCHES.len())
        .flat_map(|b| (0..presets.len()).map(move |p| (b, p)))
        .collect();
    Rng::new(order_seed, 1).shuffle(&mut points);
    let keyed: Vec<(usize, CfgKey)> = points
        .iter()
        .map(|&(b, p)| (b, CfgKey::paper(presets[p], 8)))
        .collect();
    let index = points
        .iter()
        .zip(&keyed)
        .map(|(&(b, p), (_, k))| {
            let idx = (b * presets.len() + p) as u64;
            ((suite.workloads[b].name, k.label()), idx)
        })
        .collect();
    let span = tracer.open("runner.warm", 0, 0);
    let timer = Arc::new(Timer {
        tracer: tracer.clone(),
        parent: span.id(),
        due: Instant::now(),
        index,
        started: Mutex::new(HashMap::new()),
        done: Mutex::new(Vec::new()),
    });
    let mut runner = Runner::without_disk_cache(suite);
    runner.set_hosts(HOSTS);
    runner.set_observer(timer.clone());
    let t = Instant::now();
    // A failed self-check panics inside the runner; the points that did
    // complete stay in its memo and the rest count as failed.
    let _ = std::panic::catch_unwind(AssertUnwindSafe(|| runner.warm(&keyed)));
    let wall = t.elapsed().as_secs_f64();
    drop(span);
    let mut metrics = HashMap::new();
    for (bench, key, m) in runner.snapshot() {
        let b = suite.workloads.iter().position(|w| w.name == bench);
        let p = presets.iter().position(|p| *p == key.preset);
        if let (Some(b), Some(p)) = (b, p) {
            metrics.insert((b, p), m);
        }
    }
    let timings = timer.done.lock().expect("timer poisoned").clone();
    Pass {
        wall,
        metrics,
        timings,
        sims: runner.counters().cold(),
    }
}

/// Digest over every point's `to_kv`, in (bench, preset) order.
fn digest(metrics: &HashMap<(usize, usize), MachineMetrics>) -> u64 {
    let mut keys: Vec<&(usize, usize)> = metrics.keys().collect();
    keys.sort();
    keys.into_iter().fold(FNV_OFFSET, |h, k| {
        let h = fnv1a(h, format!("{} {}\n", BENCHES[k.0], PRESETS[k.1]).as_bytes());
        fnv1a(h, metrics[k].to_kv().as_bytes())
    })
}

fn correct_inst(m: &MachineMetrics) -> u64 {
    m.sequential_instructions + m.parallel_instructions
}

/// Count the pass's points and check its outputs.
fn check_pass(p: &Pass, rep: &mut Report, first_digest: &mut Option<u64>) {
    for i in 0..BENCHES.len() * PRESETS.len() {
        rep.op(i < p.metrics.len());
    }
    let d = digest(&p.metrics);
    if first_digest.is_none() {
        *first_digest = Some(d);
        rep.check(
            "sim-sweep digest matches the recorded digest",
            d == EXPECTED_DIGEST,
            &format!("{d:016x} (recorded {EXPECTED_DIGEST:016x})"),
        );
    } else if Some(d) != *first_digest {
        rep.check(
            "sim-sweep digest equal across passes",
            false,
            &format!("{d:016x}"),
        );
    }
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let mut setups = Vec::new();
    let mut suite = None;
    for k in 0..8 * HOSTS {
        let _pin = Pin::nth(k, HOSTS);
        let (s, secs) = build_suite(&Tracer::off(), 0);
        setups.push(secs);
        suite = Some(s);
    }
    let suite = suite.expect("at least one set-up ran");
    rep.set_n("setup_s", per_cpu_median(&setups, HOSTS), setups.len());
    let mut first_digest = None;

    if !ctx.traced {
        let t0 = Instant::now();
        let mut latency = Samples::default();
        // Per point: its committed instructions and its run time in every pass.
        let mut points: HashMap<u64, (u64, Vec<f64>)> = HashMap::new();
        let mut r = 0;
        while r == 0 || t0.elapsed().as_secs_f64() < ctx.seconds {
            let p = pass(&suite, ctx.seed.wrapping_add(r), &Tracer::off());
            check_pass(&p, rep, &mut first_digest);
            for &(idx, secs, since_due) in &p.timings {
                let (b, pi) = (idx as usize / PRESETS.len(), idx as usize % PRESETS.len());
                let inst = p.metrics.get(&(b, pi)).map_or(0, correct_inst);
                points.entry(idx).or_insert((inst, Vec::new())).1.push(secs);
                latency.push(since_due * 1e3);
            }
            r += 1;
        }
        // Each point's median run time, so a slow spell on the shared host
        // moves only the passes it covers, not the whole figure.
        let inst: u64 = points.values().map(|p| p.0).sum();
        let host_s: f64 = points.values().map(|p| median(&p.1)).sum();
        rep.set_n("ops_per_s", inst as f64 / host_s, r as usize);
        rep.set_n("p50_ms", latency.median(), latency.len());
        rep.set_n("p90_ms", latency.pct(0.9), latency.len());
        rep.note(format!(
            "sim-sweep: {r} passes of {} points, committed correct-path instructions per host second (each point at its median run time)",
            BENCHES.len() * PRESETS.len()
        ));
        if let Some((q, v)) = latency.tail() {
            rep.note(format!(
                "tail: p{} = {v:.3} ms (n={})",
                q * 100.0,
                latency.len()
            ));
        }
        return;
    }

    // Traced run: one untraced and one traced pass in the same order.
    let tracer = ctx.tracer.clone();
    let build = {
        let s = tracer.open("setup", 0, 0);
        let (_, secs) = build_suite(&tracer, s.id());
        secs
    };
    let plain = pass(&suite, ctx.seed, &Tracer::off());
    check_pass(&plain, rep, &mut first_digest);
    let p = pass(&suite, ctx.seed, &tracer);
    check_pass(&p, rep, &mut first_digest);
    rep.set("bench.trace_overhead_s", p.wall - plain.wall);
    rep.set("workloads.build_s", build);
    rep.set("runner.sims", p.sims as f64);
    let busy: f64 = p.timings.iter().map(|t| t.1).sum();
    rep.set("runner.busy_share", busy / (HOSTS as f64 * p.wall));
    let mut run_s = [0.0; 6];
    let mut preset_s = [0.0; 4];
    let mut preset_inst = [0u64; 4];
    for &(idx, secs, _) in &p.timings {
        let (b, pi) = (idx as usize / PRESETS.len(), idx as usize % PRESETS.len());
        run_s[b] += secs;
        preset_s[pi] += secs;
        if let Some(m) = p.metrics.get(&(b, pi)) {
            preset_inst[pi] += correct_inst(m);
        }
    }
    for (b, name) in BENCHES.iter().enumerate() {
        rep.set(&format!("core.run_s.{name}"), run_s[b]);
    }
    for (pi, name) in PRESETS.iter().enumerate() {
        rep.set(
            &format!("core.ns_per_kinst.{name}"),
            preset_s[pi] * 1e9 / (preset_inst[pi].max(1) as f64 / 1e3),
        );
    }
    set_core_counts(rep, p.metrics.values());
}

/// The deterministic machine counts over a set of runs.
fn set_core_counts<'a>(rep: &mut Report, runs: impl Iterator<Item = &'a MachineMetrics>) {
    let (mut cycles, mut correct, mut wrong) = (0u64, 0u64, 0u64);
    for m in runs {
        cycles += m.cycles;
        correct += correct_inst(m);
        wrong += m.wrong_instructions;
    }
    rep.set("core.cycles", cycles as f64);
    rep.set("core.correct_inst", correct as f64);
    rep.set("core.wrong_inst", wrong as f64);
    rep.set(
        "core.wrong_share",
        wrong as f64 / (wrong + correct).max(1) as f64,
    );
}
