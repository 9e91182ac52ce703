//! `serve-mix`: an open-loop, fixed-rate, seeded schedule of jobs against
//! a `wec_serve` daemon (two workers, fresh store, speculation off).
//!
//! Most jobs repeat a hot set prewarmed in set-up (memo reads); about one
//! in [`COLD_EVERY`] is a never-seen point, half full-timing sims and half
//! replays of a trace captured in set-up; some cold points are submitted
//! twice back to back (in-flight dedup).  Two client threads generate the
//! load: one submits each job at its due time, one polls the jobs that
//! were queued.  Every latency runs from the job's due time.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wec_bench::tracerun::{capture_key, replay_point};
use wec_bench::{CfgKey, Runner, Suite};
use wec_core::config::ProcPreset;
use wec_serve::{ServeConfig, Server};
use wec_telemetry::json::{self, Json};
use wec_trace::{kv_string, TraceSlab};
use wec_workloads::Bench;

use crate::http::request;
use crate::replay::{capture, SetupTimes};
use crate::report::{Report, BENCHES};
use crate::spans::{Open, Tracer};
use crate::stats::{peak_rss_mb, per_cpu_median, Pin, Rng, Samples};
use crate::{Ctx, HOSTS, SCALE};

/// Offered load: mean arrivals per second.
const RATE: f64 = 12.0;
/// Every `COLD_EVERY`th arrival is a never-seen point.
const COLD_EVERY: usize = 4;
/// Every `DUP_EVERY`th never-seen point is submitted twice back to back.
const DUP_EVERY: usize = 4;
/// A job done within this long of its due time meets the latency limit.
const SLO_MS: f64 = 1000.0;
const POLL_SLEEP: Duration = Duration::from_millis(5);
const HEALTHZ_EVERY: Duration = Duration::from_millis(500);
const SIDES: [u8; 13] = [2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128];
const WAYS: [u8; 3] = [1, 2, 4];

/// `perfbench serve-daemon --store DIR`: run a daemon with the benchmark's
/// configuration on an ephemeral port, print `listening ADDR`, serve
/// until `POST /shutdown` drains it.
pub fn daemon(store: &Path) {
    // Started from a set-up pinned to one CPU; serve on all of them.
    crate::stats::unpin();
    let cfg = ServeConfig {
        workers: HOSTS,
        store: Some(store.to_path_buf()),
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("cannot bind an ephemeral port");
    let addr = server.local_addr().expect("bound socket has an address");
    println!("listening {addr}");
    server.run().expect("serve loop failed");
}

/// A running daemon child; killed and reaped on drop if still alive.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(store: &Path) -> Daemon {
        let exe = std::env::current_exe().expect("own executable path");
        let mut child = Command::new(exe)
            .arg("serve-daemon")
            .arg("--store")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("cannot start the serve daemon");
        let mut line = String::new();
        BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut line)
            .expect("daemon stdout");
        let addr = line
            .trim()
            .strip_prefix("listening ")
            .unwrap_or_else(|| panic!("daemon did not start: {line:?}"))
            .to_string();
        let d = Daemon { child, addr };
        let deadline = Instant::now() + Duration::from_secs(10);
        while !matches!(request(&d.addr, "GET", "/healthz", None), Ok((200, _))) {
            assert!(Instant::now() < deadline, "daemon never became healthy");
            std::thread::sleep(Duration::from_millis(5));
        }
        d
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    /// Drain and wait for the process to exit on its own.
    fn shutdown(mut self) {
        let _ = request(&self.addr, "POST", "/shutdown", None);
        let deadline = Instant::now() + Duration::from_secs(60);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        eprintln!("serve daemon did not drain in 60 s; killing it");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What one job asks for.
#[derive(Clone, Debug)]
enum Point {
    Sim { bench: Bench, key: CfgKey },
    Replay { trace: usize, key: CfgKey },
}

fn geometry(preset: ProcPreset, side: u8, ways: u8) -> CfgKey {
    let mut k = capture_key();
    k.preset = preset;
    k.side_entries = side;
    k.l1_ways = ways;
    k
}

impl Point {
    fn body(&self, traces: &[PathBuf]) -> String {
        let (head, k) = match self {
            Point::Sim { bench, key } => (
                format!("\"bench\":\"{}\",\"scale\":{}", bench.name(), SCALE.units),
                key,
            ),
            Point::Replay { trace, key } => (
                format!(
                    "\"kind\":\"replay\",\"trace\":\"{}\"",
                    traces[*trace].display()
                ),
                key,
            ),
        };
        format!(
            "{{{head},\"cfg\":{{\"preset\":\"{}\",\"side_entries\":{},\"l1_ways\":{}}}}}",
            k.preset.name(),
            k.side_entries,
            k.l1_ways
        )
    }
}

/// The seeded inputs: the hot set and, per (benchmark, preset), a
/// shuffled pool of never-seen side-structure geometries.
struct Plan {
    hot: Vec<Point>,
    /// Pools indexed `bench * presets + preset`, for sims and replays.
    cold: [Vec<Vec<Point>>; 2],
    /// How many cold points of each kind the schedule has drawn.
    drawn: [usize; 2],
}

const SIM_PRESETS: [ProcPreset; 4] = [
    ProcPreset::WthWpWec,
    ProcPreset::WthWpVc,
    ProcPreset::WthWp,
    ProcPreset::Nlp,
];
const REPLAY_PRESETS: [ProcPreset; 2] = [ProcPreset::WthWpWec, ProcPreset::WthWpVc];

fn plan(seed: u64) -> Plan {
    let mut rng = Rng::new(seed, 3);
    let mut pools = |presets: &[ProcPreset], point: &dyn Fn(usize, CfgKey) -> Point| {
        let mut out = Vec::new();
        for b in 0..Bench::ALL.len() {
            for &p in presets {
                let mut v: Vec<Point> = Vec::new();
                for s in SIDES {
                    for w in WAYS {
                        v.push(point(b, geometry(p, s, w)));
                    }
                }
                rng.shuffle(&mut v);
                out.push(v);
            }
        }
        out
    };
    let mut sims = pools(&SIM_PRESETS, &|b, key| Point::Sim {
        bench: Bench::ALL[b],
        key,
    });
    let mut replays = pools(&REPLAY_PRESETS, &|b, key| Point::Replay { trace: b, key });
    // Hot set: one sim point per benchmark and one replay point per trace.
    let mut hot = Vec::new();
    for b in 0..Bench::ALL.len() {
        let sim = &mut sims[b * SIM_PRESETS.len() + b % SIM_PRESETS.len()];
        hot.push(sim.pop().expect("non-empty geometry pool"));
        let rep = &mut replays[b * REPLAY_PRESETS.len() + b % REPLAY_PRESETS.len()];
        hot.push(rep.pop().expect("non-empty geometry pool"));
    }
    Plan {
        hot,
        cold: [sims, replays],
        drawn: [0, 0],
    }
}

/// One scheduled submission.
#[derive(Clone)]
struct Job {
    due: Duration,
    point: Point,
}

/// `n` submissions arriving as a Poisson process at [`RATE`].  Every
/// [`COLD_EVERY`]th arrival is a never-seen point, alternating sim and
/// replay and rotating over the benchmarks and presets, so every seed
/// offers the same mix of work; every [`DUP_EVERY`]th cold point is submitted twice back
/// to back.  The rest repeat a uniformly drawn hot point.
fn schedule(rng: &mut Rng, plan: &mut Plan, n: usize) -> Vec<Job> {
    let mut jobs = Vec::with_capacity(n);
    let mut t = 0.0f64;
    let mut i = 0usize;
    while jobs.len() < n {
        t += -(1.0 - rng.unit()).ln() / RATE;
        let due = Duration::from_secs_f64(t);
        i += 1;
        if !i.is_multiple_of(COLD_EVERY) {
            let point = plan.hot[rng.below(plan.hot.len())].clone();
            jobs.push(Job { due, point });
            continue;
        }
        let cold = i / COLD_EVERY;
        let kind = cold % 2;
        let nth = plan.drawn[kind];
        plan.drawn[kind] += 1;
        // Rotate over every (benchmark, preset) pool in a stride coprime
        // to the pool count, from the same pool for every seed: a run draws
        // no whole number of rotations, and the pools left over must not
        // change with the seed, as sim costs differ 3x between benchmarks.
        let pools = &mut plan.cold[kind];
        let pool = (nth * 7) % pools.len();
        let point = pools[pool].pop().expect("cold point pool exhausted");
        let copies = if cold.is_multiple_of(DUP_EVERY) { 2 } else { 1 };
        for _ in 0..copies {
            jobs.push(Job {
                due,
                point: point.clone(),
            });
        }
    }
    // Condition the process on its length: the last arrival lands at
    // exactly `n / RATE`, so every seed offers the same mean load.
    let scale = n as f64 / RATE / t;
    for j in &mut jobs {
        j.due = j.due.mul_f64(scale);
    }
    jobs
}

/// The fields of a `wec-job-record-v1` answer the benchmark reads.
struct Rec {
    id: u64,
    state: String,
    source: String,
    submit_t_ms: u64,
    start_t_ms: u64,
    finish_t_ms: u64,
}

fn parse_rec(body: &str) -> Option<Rec> {
    let v = json::parse(body).ok()?;
    let num = |k: &str| v.get(k).and_then(Json::as_u64);
    let text = |k: &str| v.get(k).and_then(Json::as_str).map(str::to_string);
    Some(Rec {
        id: num("id")?,
        state: text("state")?,
        source: text("source")?,
        submit_t_ms: num("submit_t_ms")?,
        start_t_ms: num("start_t_ms")?,
        finish_t_ms: num("finish_t_ms")?,
    })
}

fn terminal(state: &str) -> bool {
    matches!(state, "done" | "failed" | "cancelled")
}

/// How one submission ended.
struct Outcome {
    job: usize,
    ok: bool,
    /// Answered at submission from the memo (vs queued and executed).
    warm: bool,
    latency_ms: f64,
    source: String,
    id: Option<u64>,
}

/// Everything one schedule run measured.
#[derive(Default)]
struct Run {
    outcomes: Vec<Outcome>,
    late_ms: Samples,
    submit_ms: Samples,
    poll_ms: Samples,
    healthz_ms: Samples,
    polls: u64,
    rejected: u64,
    /// Every job that reached a worker, by id.
    executed: HashMap<u64, Executed>,
    wall: f64,
}

/// A job a worker ran: the first schedule entry that submitted it, and
/// its queue wait and execute time from the server's record.
struct Executed {
    job: usize,
    queue_ms: f64,
    exec_ms: f64,
}

struct Pending {
    job: usize,
    id: u64,
    /// Offset of the server clock: client instant of server ms 0.
    server_t0: Instant,
    /// The job's span, closed by the poller when the job is done.
    span: Open,
}

/// Play `jobs` open-loop against `addr`, then wait for every job.
fn play(addr: &str, jobs: &[Job], traces: &[PathBuf], tracer: &Tracer) -> Run {
    let pending: Mutex<Vec<Pending>> = Mutex::new(Vec::new());
    let submitting = AtomicBool::new(true);
    let sub = Mutex::new(Run::default());
    let pol = Mutex::new(Run::default());
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut r = sub.lock().expect("submitter state");
            for (i, job) in jobs.iter().enumerate() {
                let due = t0 + job.due;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let span = tracer.open("serve.job", 0, i as u64);
                let sent = Instant::now();
                r.late_ms.push((sent - due).as_secs_f64() * 1e3);
                let post = tracer.open("serve.submit", span.id(), i as u64);
                let answer = request(addr, "POST", "/jobs", Some(&job.point.body(traces)));
                drop(post);
                let got = Instant::now();
                r.submit_ms.push((got - sent).as_secs_f64() * 1e3);
                let fail = |r: &mut Run| {
                    r.outcomes.push(Outcome {
                        job: i,
                        ok: false,
                        warm: false,
                        latency_ms: 0.0,
                        source: String::new(),
                        id: None,
                    })
                };
                match answer {
                    Ok((200, body)) => match parse_rec(&body) {
                        Some(rec) if rec.state == "done" => {
                            drop(span);
                            r.outcomes.push(Outcome {
                                job: i,
                                ok: true,
                                warm: true,
                                latency_ms: (got - due).as_secs_f64() * 1e3,
                                source: rec.source,
                                id: Some(rec.id),
                            });
                        }
                        Some(rec) if !terminal(&rec.state) => {
                            let server_t0 = got
                                .checked_sub(Duration::from_millis(rec.submit_t_ms))
                                .unwrap_or(got);
                            pending.lock().expect("pending list").push(Pending {
                                job: i,
                                id: rec.id,
                                server_t0,
                                span,
                            });
                        }
                        _ => fail(&mut r),
                    },
                    Ok((503, _)) => {
                        r.rejected += 1;
                        fail(&mut r);
                    }
                    _ => fail(&mut r),
                }
            }
            submitting.store(false, Ordering::SeqCst);
        });
        s.spawn(|| {
            let mut r = pol.lock().expect("poller state");
            let mut last_health = Instant::now() - HEALTHZ_EVERY;
            let deadline_after_submit = Duration::from_secs(60);
            let mut submit_end: Option<Instant> = None;
            loop {
                if last_health.elapsed() >= HEALTHZ_EVERY {
                    last_health = Instant::now();
                    let h = tracer.open("serve.healthz", 0, 0);
                    let ok = matches!(request(addr, "GET", "/healthz", None), Ok((200, _)));
                    let secs = h.end();
                    if ok {
                        r.healthz_ms.push(secs * 1e3);
                    }
                }
                let open: Vec<(usize, u64, Instant, u64)> = pending
                    .lock()
                    .expect("pending list")
                    .iter()
                    .map(|p| (p.job, p.id, p.server_t0, p.span.id()))
                    .collect();
                let done_submitting = !submitting.load(Ordering::SeqCst);
                if done_submitting && open.is_empty() {
                    break;
                }
                if done_submitting {
                    let end = *submit_end.get_or_insert_with(Instant::now);
                    if end.elapsed() > deadline_after_submit {
                        for (job, id, _, _) in open {
                            r.outcomes.push(Outcome {
                                job,
                                ok: false,
                                warm: false,
                                latency_ms: 0.0,
                                source: String::new(),
                                id: Some(id),
                            });
                        }
                        pending.lock().expect("pending list").clear();
                        break;
                    }
                }
                // `id -> (terminal record, or None on error; when seen)`.
                let mut finished: HashMap<u64, (Option<Rec>, Instant)> = HashMap::new();
                for &(job, id, server_t0, parent) in &open {
                    if finished.contains_key(&id) {
                        continue;
                    }
                    let p = tracer.open("serve.poll", parent, job as u64);
                    let sent = Instant::now();
                    let answer = request(addr, "GET", &format!("/jobs/{id}"), None);
                    r.poll_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    drop(p);
                    r.polls += 1;
                    match answer
                        .ok()
                        .and_then(|(st, b)| (st == 200).then(|| parse_rec(&b)).flatten())
                    {
                        Some(rec) if terminal(&rec.state) => {
                            let at = |ms: u64| server_t0 + Duration::from_millis(ms);
                            tracer.record(
                                "serve.queue_wait",
                                parent,
                                job as u64,
                                at(rec.submit_t_ms),
                                at(rec.start_t_ms),
                            );
                            tracer.record(
                                "serve.exec",
                                parent,
                                job as u64,
                                at(rec.start_t_ms),
                                at(rec.finish_t_ms),
                            );
                            finished.insert(id, (Some(rec), Instant::now()));
                        }
                        Some(_) => {}
                        None => {
                            finished.insert(id, (None, Instant::now()));
                        }
                    }
                }
                if !finished.is_empty() {
                    let mut list = pending.lock().expect("pending list");
                    list.retain(|p| {
                        let Some((rec, seen)) = finished.get(&p.id) else {
                            return true;
                        };
                        let ok = rec.as_ref().is_some_and(|r| r.state == "done");
                        if let Some(rec) = rec {
                            r.executed.entry(p.id).or_insert(Executed {
                                job: p.job,
                                queue_ms: rec.start_t_ms.saturating_sub(rec.submit_t_ms) as f64,
                                exec_ms: rec.finish_t_ms.saturating_sub(rec.start_t_ms) as f64,
                            });
                        }
                        r.outcomes.push(Outcome {
                            job: p.job,
                            ok,
                            warm: false,
                            latency_ms: (*seen - (t0 + jobs[p.job].due)).as_secs_f64() * 1e3,
                            source: rec.as_ref().map_or(String::new(), |r| r.source.clone()),
                            id: Some(p.id),
                        });
                        false
                    });
                } else {
                    std::thread::sleep(POLL_SLEEP);
                }
            }
        });
    });
    let mut run = sub.into_inner().expect("submitter state");
    let p = pol.into_inner().expect("poller state");
    run.outcomes.extend(p.outcomes);
    run.outcomes.sort_by_key(|o| o.job);
    run.poll_ms = p.poll_ms;
    run.healthz_ms = p.healthz_ms;
    run.polls = p.polls;
    run.executed = p.executed;
    run.wall = t0.elapsed().as_secs_f64();
    run
}

/// Served and direct results must be byte-identical.
fn check_served(served: &str, direct: &str) -> Result<(), String> {
    if served == direct {
        return Ok(());
    }
    let at = served
        .bytes()
        .zip(direct.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(served.len().min(direct.len()));
    let line = served[..at].matches('\n').count() + 1;
    Err(format!("differs from the direct result at line {line}"))
}

/// The direct in-process result of `point`, in the `result.kv` format.
fn direct(point: &Point, slabs: &[TraceSlab]) -> String {
    match point {
        Point::Sim { bench, key } => {
            let suite = Suite {
                scale: SCALE,
                workloads: vec![bench.build(SCALE)],
            };
            Runner::without_disk_cache(&suite).metrics(0, *key).to_kv()
        }
        Point::Replay { trace, key } => kv_string(&replay_point(&slabs[*trace], *key, None).0),
    }
}

/// Re-run every executed job in process (two threads) and compare its
/// served `result.kv` byte for byte; each comparison is one operation.
fn check_cold(
    addr: &str,
    run: &Run,
    jobs: &[Job],
    slabs: &[TraceSlab],
    traces: &[PathBuf],
    rep: &mut Report,
) {
    let mut cold: Vec<(u64, usize)> = run.executed.iter().map(|(&id, e)| (id, e.job)).collect();
    cold.sort();
    let served: Vec<Option<String>> = cold
        .iter()
        .map(
            |(id, _)| match request(addr, "GET", &format!("/jobs/{id}/result.kv"), None) {
                Ok((200, body)) => Some(body),
                _ => None,
            },
        )
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let failures: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..HOSTS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(_, job)) = cold.get(i) else {
                    return;
                };
                let res = match &served[i] {
                    Some(body) => check_served(body, &direct(&jobs[job].point, slabs)),
                    None => Err("result.kv not served".to_string()),
                };
                if let Err(e) = res {
                    failures.lock().expect("check results").push((i, e));
                }
            });
        }
    });
    let mut failures = failures.into_inner().expect("check results");
    failures.sort();
    for i in 0..cold.len() {
        rep.op(!failures.iter().any(|f| f.0 == i));
    }
    let detail = failures.first().map_or(String::new(), |(i, e)| {
        format!(
            ": job {} {}: {e}",
            cold[*i].0,
            jobs[cold[*i].1].point.body(traces)
        )
    });
    rep.note(format!(
        "check served result.kv equals the direct Runner/replay_point result: {} of {} executed jobs ok{detail}",
        cold.len() - failures.len(),
        cold.len()
    ));
}

/// One set-up: start a daemon on a fresh store, capture the traces,
/// prewarm the hot set.
struct Setup {
    daemon: Daemon,
    traces: Vec<PathBuf>,
    slabs: Vec<TraceSlab>,
    secs: f64,
}

fn setup(work: &Path, k: usize, plan: &Plan, tracer: &Tracer) -> Setup {
    let start = Instant::now();
    let root = tracer.open("setup", 0, k as u64);
    let dir = work.join(format!("serve-{k}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("store")).expect("cannot create the serve work directory");
    let s = tracer.open("serve.daemon_start", root.id(), 0);
    let daemon = Daemon::start(&dir.join("store"));
    drop(s);
    let mut times = SetupTimes::default();
    let mut traces = Vec::new();
    let mut slabs = Vec::new();
    for b in Bench::ALL {
        let c = capture(b, tracer, root.id(), &mut times);
        let path = dir.join(format!("{}.wectrace", b.name().replace('.', "_")));
        std::fs::write(&path, &c.encoded).expect("cannot write a captured trace");
        traces.push(path);
        slabs.push(c.slab);
    }
    let s = tracer.open("serve.prewarm", root.id(), 0);
    let mut ids = Vec::new();
    for p in &plan.hot {
        match request(&daemon.addr, "POST", "/jobs", Some(&p.body(&traces))) {
            Ok((200, body)) => ids.push(parse_rec(&body).expect("job record").id),
            other => panic!("prewarm submission refused: {other:?}"),
        }
    }
    for id in ids {
        loop {
            let (_, body) =
                request(&daemon.addr, "GET", &format!("/jobs/{id}"), None).expect("prewarm poll");
            let rec = parse_rec(&body).expect("job record");
            if terminal(&rec.state) {
                assert_eq!(rec.state, "done", "prewarm job {id} failed");
                break;
            }
            std::thread::sleep(POLL_SLEEP);
        }
    }
    drop(s);
    Setup {
        daemon,
        traces,
        slabs,
        secs: start.elapsed().as_secs_f64(),
    }
}

/// Count a run's jobs, check every executed result, and split the done
/// jobs' latencies into (all, warm, cold).
fn settle(setup: &Setup, run: &Run, jobs: &[Job], rep: &mut Report) -> [Samples; 3] {
    let mut out: [Samples; 3] = Default::default();
    for o in &run.outcomes {
        rep.op(o.ok);
        if o.ok {
            out[0].push(o.latency_ms);
            out[if o.warm { 1 } else { 2 }].push(o.latency_ms);
        }
    }
    check_cold(
        &setup.daemon.addr,
        run,
        jobs,
        &setup.slabs,
        &setup.traces,
        rep,
    );
    out
}

pub fn run(ctx: &Ctx, rep: &mut Report) {
    let mut plan = plan(ctx.seed);
    let mut secs = Vec::new();
    let mut kept = None;
    let reps = HOSTS;
    for k in 0..reps {
        // The kept (last) set-up runs under spans in the traced run.
        let tracer = if k == reps - 1 {
            ctx.tracer.clone()
        } else {
            Tracer::off()
        };
        let pin = Pin::nth(k, HOSTS);
        let s = setup(&ctx.work_dir, k, &plan, &tracer);
        drop(pin);
        secs.push(s.secs);
        if let Some(old) = kept.replace(s) {
            old.daemon.shutdown();
        }
    }
    let s = kept.expect("at least one set-up ran");
    rep.set_n("setup_s", per_cpu_median(&secs, HOSTS), secs.len());
    let mut rng = Rng::new(ctx.seed, 4);
    let n = ((ctx.seconds * RATE) as usize).max(20);

    if !ctx.traced {
        let jobs = schedule(&mut rng, &mut plan, n);
        let run = play(&s.daemon.addr, &jobs, &s.traces, &Tracer::off());
        let [all, _, _] = settle(&s, &run, &jobs, rep);
        // Done jobs per second, from the first due time to the last done.
        let span = run
            .outcomes
            .iter()
            .filter(|o| o.ok)
            .map(|o| jobs[o.job].due.as_secs_f64() + o.latency_ms / 1e3)
            .fold(0.0, f64::max);
        rep.set_n("ops_per_s", all.len() as f64 / span, all.len());
        rep.set_n("p50_ms", all.median(), all.len());
        rep.set_n("p90_ms", all.pct(0.9), all.len());
        if let Some((q, v)) = all.tail() {
            rep.note(format!(
                "tail: p{} = {v:.3} ms (n={})",
                q * 100.0,
                all.len()
            ));
        }
        rep.note(format!(
            "serve-mix: {} jobs at {RATE} jobs/s open loop, {} executed, latency from due time",
            jobs.len(),
            run.executed.len()
        ));
        rep.set("peak_rss_mb", s.daemon.peak_rss_mb() + peak_rss_mb("self"));
        s.daemon.shutdown();
        return;
    }

    // Traced run: half the schedule untraced, half traced, fresh cold
    // points in each half.
    let half = (n / 2).max(10);
    let plain_jobs = schedule(&mut rng, &mut plan, half);
    let plain = play(&s.daemon.addr, &plain_jobs, &s.traces, &Tracer::off());
    settle(&s, &plain, &plain_jobs, rep);
    let jobs = schedule(&mut rng, &mut plan, half);
    let run = play(&s.daemon.addr, &jobs, &s.traces, &ctx.tracer);
    let [_, warm, cold] = settle(&s, &run, &jobs, rep);
    rep.set("bench.trace_overhead_s", run.wall - plain.wall);
    rep.set_n(
        "serve.healthz_ms.p50",
        run.healthz_ms.median(),
        run.healthz_ms.len(),
    );
    rep.set_n(
        "serve.submit_ms.p50",
        run.submit_ms.median(),
        run.submit_ms.len(),
    );
    rep.set_n(
        "serve.submit_ms.p99",
        run.submit_ms.pct(0.99),
        run.submit_ms.len(),
    );
    rep.set_n("serve.poll_ms.p50", run.poll_ms.median(), run.poll_ms.len());
    rep.set(
        "serve.polls_per_job",
        run.polls as f64 / run.executed.len().max(1) as f64,
    );
    let (mut qw, mut ex) = (Samples::default(), Samples::default());
    for e in run.executed.values() {
        qw.push(e.queue_ms);
        ex.push(e.exec_ms);
    }
    rep.set_n("serve.queue_wait_ms.p50", qw.median(), qw.len());
    rep.set_n("serve.queue_wait_ms.p90", qw.pct(0.9), qw.len());
    rep.set_n("serve.exec_ms.p50", ex.median(), ex.len());
    rep.set_n("serve.exec_ms.p90", ex.pct(0.9), ex.len());
    // The daemon's execute time of each cold job, split by benchmark: the
    // cycle loop for sims, the replay kernel for replays.
    let (mut sim_s, mut replay_ns, mut replays) = ([0.0f64; 6], [0.0f64; 6], [0usize; 6]);
    for e in run.executed.values() {
        match &jobs[e.job].point {
            Point::Sim { bench, .. } => sim_s[*bench as usize] += e.exec_ms / 1e3,
            Point::Replay { trace, .. } => {
                replay_ns[*trace] += e.exec_ms * 1e6;
                replays[*trace] += 1;
            }
        }
    }
    for (b, name) in BENCHES.iter().enumerate() {
        rep.set(&format!("core.run_s.{name}"), sim_s[b]);
        let records = (s.slabs[b].records() as usize * replays[b]).max(1);
        rep.set(
            &format!("trace.replay_ns_per_rec.{name}"),
            replay_ns[b] / records as f64,
        );
    }
    for src in ["cold", "disk", "mem", "spec"] {
        let c = run
            .outcomes
            .iter()
            .filter(|o| o.ok && o.source == src)
            .count();
        rep.set(&format!("serve.source.{src}"), c as f64);
    }
    let mut seen = std::collections::HashSet::new();
    let deduped = run
        .outcomes
        .iter()
        .filter(|o| !o.warm && o.id.is_some_and(|id| !seen.insert(id)))
        .count();
    rep.set(
        "serve.dedup_share",
        deduped as f64 / run.outcomes.len().max(1) as f64,
    );
    rep.set("serve.rejected", run.rejected as f64);
    rep.set_n(
        "serve.late_ms.p99",
        run.late_ms.pct(0.99),
        run.late_ms.len(),
    );
    rep.set_n("serve.warm_p50_ms", warm.median(), warm.len());
    rep.set_n("serve.warm_p99_ms", warm.pct(0.99), warm.len());
    rep.set_n("serve.cold_p50_ms", cold.median(), cold.len());
    rep.set_n("serve.cold_p90_ms", cold.pct(0.9), cold.len());
    let in_slo = run
        .outcomes
        .iter()
        .filter(|o| o.ok && o.latency_ms <= SLO_MS)
        .count();
    rep.set(
        "serve.slo_share",
        in_slo as f64 / run.outcomes.len().max(1) as f64,
    );
    s.daemon.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_check_catches_one_tampered_byte() {
        let direct = "cycles 100\nl2.demand_misses 7\n";
        assert!(check_served(direct, direct).is_ok());
        let tampered = "cycles 100\nl2.demand_misses 8\n";
        let err = check_served(tampered, direct).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(check_served("cycles 100\n", direct).is_err());
    }

    #[test]
    fn schedule_is_seeded_and_mixes_cold_and_dup() {
        let mut p1 = plan(11);
        let mut p2 = plan(11);
        let a = schedule(&mut Rng::new(11, 4), &mut p1, 200);
        let b = schedule(&mut Rng::new(11, 4), &mut p2, 200);
        let show = |js: &[Job]| {
            js.iter()
                .map(|j| format!("{:?} {:?}", j.due, j.point))
                .collect::<Vec<_>>()
        };
        assert_eq!(show(&a), show(&b));
        let mut p3 = plan(12);
        assert_ne!(
            show(&a),
            show(&schedule(&mut Rng::new(12, 4), &mut p3, 200))
        );
        let hot = |j: &Job| {
            p1.hot
                .iter()
                .any(|h| format!("{h:?}") == format!("{:?}", j.point))
        };
        let cold: Vec<&Job> = a.iter().filter(|j| !hot(j)).collect();
        assert!(
            cold.len() > 50 && cold.len() < 75,
            "{} cold of 200",
            cold.len()
        );
        assert!(a.windows(2).any(|w| !hot(&w[0]) && w[0].due == w[1].due));
        assert!(cold.iter().any(|j| matches!(j.point, Point::Sim { .. })));
        assert!(cold.iter().any(|j| matches!(j.point, Point::Replay { .. })));
        let end = a.last().map_or(0.0, |j| j.due.as_secs_f64());
        assert!((end - 200.0 / RATE).abs() < 1e-6, "{end}");
    }
}
