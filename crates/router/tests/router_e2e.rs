//! End-to-end cluster tests: a live router fronting live `wec-serve`
//! backends (and, for the failure matrix, hand-rolled fake backends),
//! driven over real sockets.
//!
//! The battery pins the sharding contract down:
//!
//! - racing identical submissions through the router executes exactly
//!   once, cluster-wide (cross-node dedup by rendezvous construction);
//! - a routed result is byte-identical to a direct backend fetch,
//!   including the raw `/events` chunk stream;
//! - queue-full `503`s retry in place and then pass through, draining
//!   and dead owners re-shard down the candidate order, and killing a
//!   backend mid-life re-shards onto the shared store without a second
//!   execution;
//! - forwarded speculation hints land on the backend that owns the
//!   *prediction's* hash, and the predicted demand job arrives warm;
//! - every `/stats` scrape and the drain-time `router.json` conserve
//!   (cluster totals == sum of embedded backend ledgers).

use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wec_router::state::LOCAL_ID_BITS;
use wec_router::{Ring, Router, RouterConfig, RouterState};
use wec_serve::http;
use wec_serve::{JobSpec, Predictor, ServeConfig, Server, SpecConfig};
use wec_telemetry::json::{self, Json};
use wec_telemetry::schema;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wec-router-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

type ServerHandle = (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>);

/// A real backend on an ephemeral port.  Samplers are off and workers
/// pinned low so a test cluster stays cheap.
fn start_backend(cfg: ServeConfig) -> ServerHandle {
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn backend_cfg(store: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_cap: 16,
        store,
        log_dir: None,
        sample_interval: Duration::ZERO,
        ..ServeConfig::default()
    }
}

type RouterHandle = (
    Arc<RouterState>,
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
);

fn start_router(cfg: RouterConfig) -> RouterHandle {
    let router = Router::bind("127.0.0.1:0", cfg).unwrap();
    let state = router.state();
    let addr = router.local_addr().unwrap();
    let handle = std::thread::spawn(move || router.run());
    (state, addr, handle)
}

/// Connect, read and write timeout of every request.
const TIMEOUT: Duration = Duration::from_secs(120);

/// Write hand-made bytes, half-close, and return the raw reply.
fn send_raw(addr: SocketAddr, raw: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    let _ = s.write_all(raw);
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    out
}

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let addr = addr.to_string();
    let r = http::request(&addr, method, path, body.map(str::as_bytes), TIMEOUT).unwrap();
    (r.status, String::from_utf8_lossy(&r.body).into_owned())
}

fn poll_terminal(addr: SocketAddr, id: u64) -> Json {
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), None);
        assert_eq!(status, 200, "{body}");
        let v = json::parse(&body).unwrap();
        let state = v.get("state").and_then(Json::as_str).unwrap().to_string();
        if state == "done" || state == "failed" {
            return v;
        }
        assert!(Instant::now() < deadline, "job {id} stuck in {state}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn poll_until(what: &str, f: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn u64_at(v: &Json, path: &[&str]) -> u64 {
    let mut cur = v;
    for p in path {
        cur = cur.get(p).unwrap_or_else(|| panic!("missing {p}"));
    }
    cur.as_u64().unwrap()
}

/// A scripted backend: answers `/healthz` healthy, `POST /jobs` from the
/// script (`n` = how many submits it has seen before this one), 404 for
/// the rest.  Reads each request to EOF (the router half-closes), so no
/// HTTP parsing is needed.  The thread is detached; it dies with the
/// test process.
fn fake_backend(on_jobs: impl Fn(u64) -> String + Send + 'static) -> (String, Arc<AtomicU64>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let posts = Arc::new(AtomicU64::new(0));
    let seen = posts.clone();
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut s) = conn else { continue };
            let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
            let mut raw = Vec::new();
            let _ = s.read_to_end(&mut raw);
            let text = String::from_utf8_lossy(&raw).into_owned();
            let mut parts = text.split_whitespace();
            let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            let resp = if path == "/healthz" {
                let body = "{\"ok\":true,\"draining\":false}";
                format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
            } else if method == "POST" && path == "/jobs" {
                let n = seen.fetch_add(1, Ordering::SeqCst);
                on_jobs(n)
            } else {
                "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n".to_string()
            };
            let _ = s.write_all(resp.as_bytes());
        }
    });
    (addr, posts)
}

/// A hostile backend on a bare listener: it answers every request,
/// `/healthz` included, with `head` followed by copies of `fill` up to
/// `HOSTILE_BYTES`.  Returns its address and counts of the answers it
/// wrote in full and of those cut off because the client hung up.
fn hostile_backend(head: Vec<u8>, fill: &[u8]) -> (String, Arc<AtomicU64>, Arc<AtomicU64>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (whole, cut) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let (w, c) = (whole.clone(), cut.clone());
    let block = fill.repeat((64 << 10) / fill.len() + 1);
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            let Ok(mut s) = conn else { continue };
            let _ = s.read_to_end(&mut Vec::new());
            let mut sent = head.len();
            let mut wrote = s.write_all(&head);
            while wrote.is_ok() && sent < HOSTILE_BYTES {
                wrote = s.write_all(&block);
                sent += block.len();
            }
            let counter = if wrote.is_ok() { &w } else { &c };
            counter.fetch_add(1, Ordering::SeqCst);
        }
    });
    (addr, whole, cut)
}

/// Far more than loopback socket buffers absorb: a client that stops
/// reading at its caps leaves the hostile backend's write cut off.
const HOSTILE_BYTES: usize = 4 * http::MAX_RESPONSE_BODY;

/// An address that refuses connections: bind an ephemeral port, then
/// free it.
fn dead_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    l.local_addr().unwrap().to_string()
}

/// A scale-1 spec body whose rendezvous primary is backend `want` of
/// `addrs` — found by walking the side-structure axis (each point is an
/// independent coin flip across the ring).
fn spec_owned_by(addrs: &[String], want: usize) -> String {
    let ring = Ring::new(addrs).unwrap();
    for side in [2u8, 4, 8, 16, 24, 32, 64, 128] {
        for bench in ["164.gzip", "181.mcf"] {
            let body = format!(
                "{{\"bench\": \"{bench}\", \"scale\": 1, \"cfg\": {{\"side_entries\": {side}}}}}"
            );
            let key = JobSpec::parse(&body).unwrap().dedup_key();
            if ring.candidates(&key)[0] == want {
                return body;
            }
        }
    }
    panic!("no scale-1 spec is owned by backend {want} of {addrs:?}");
}

fn router_cfg(backends: Vec<String>) -> RouterConfig {
    RouterConfig {
        backends,
        health_interval: Duration::from_millis(50),
        ..RouterConfig::default()
    }
}

fn drain_backend(addr: SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let (s, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    handle.join().unwrap().unwrap();
}

fn drain_router(addr: SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let (s, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    handle.join().unwrap().unwrap();
}

#[test]
fn racing_identical_submissions_execute_once_and_results_are_byte_identical() {
    let store = scratch("race-store");
    let (a, ha) = start_backend(backend_cfg(Some(store.clone())));
    let (b, hb) = start_backend(backend_cfg(Some(store)));
    let addrs = vec![a.to_string(), b.to_string()];
    let (state, raddr, hr) = start_router(router_cfg(addrs.clone()));

    let body = spec_owned_by(&addrs, 0);
    let owner = a;

    // Race four identical submissions through the router concurrently.
    let records: Vec<(u16, String)> = {
        let mut joins = Vec::new();
        for _ in 0..4 {
            let body = body.clone();
            joins.push(std::thread::spawn(move || {
                request(raddr, "POST", "/jobs", Some(&body))
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    };
    let mut ids = Vec::new();
    for (s, r) in &records {
        assert_eq!(*s, 200, "{r}");
        let rec = json::parse(r).unwrap();
        schema::validate_job_record(&rec, "routed record").unwrap();
        ids.push(u64_at(&rec, &["id"]));
    }
    // Every composite id names the owner (top bits = backend 0 + 1) and
    // cannot collide with a raw local id.
    for id in &ids {
        assert_eq!(id >> LOCAL_ID_BITS, 1, "id {id:#x} not owned by backend 0");
        assert!(*id >= 1 << LOCAL_ID_BITS);
    }

    let rec = poll_terminal(raddr, ids[0]);
    assert_eq!(rec.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(rec.get("source").unwrap().as_str(), Some("cold"));
    let local = ids[0] & ((1 << LOCAL_ID_BITS) - 1);

    // Exactly-once, cluster-wide: one cold execution, everything else
    // deduped in flight or answered warm; the non-owner saw nothing.
    let (ss, stats) = request(raddr, "GET", "/stats", None);
    assert_eq!(ss, 200);
    let report = schema::validate_router_stats_json(&stats).unwrap();
    assert_eq!(report.backends, 2);
    assert_eq!(report.scraped, 2);
    let v = json::parse(&stats).unwrap();
    assert_eq!(u64_at(&v, &["cluster", "cache", "cold"]), 1, "{stats}");
    assert_eq!(u64_at(&v, &["cluster", "jobs", "submitted"]), 4);
    let (sb, bstats) = request(b, "GET", "/stats", None);
    assert_eq!(sb, 200);
    assert_eq!(
        u64_at(&json::parse(&bstats).unwrap(), &["jobs", "submitted"]),
        0,
        "the non-owner must never see the key"
    );

    // Byte-identity: the routed result and the direct fetch are the same
    // bytes, and the raw routed /events response (status line, headers,
    // chunk framing and all) is exactly what the backend produces.
    let (sr, routed_kv) = request(raddr, "GET", &format!("/jobs/{}/result.kv", ids[0]), None);
    let (sd, direct_kv) = request(owner, "GET", &format!("/jobs/{local}/result.kv"), None);
    assert_eq!((sr, sd), (200, 200));
    assert_eq!(routed_kv, direct_kv);
    assert!(routed_kv.contains("cycles "), "{routed_kv:?}");
    let events = |addr: SocketAddr, id: u64| {
        send_raw(
            addr,
            &http::format_request("GET", &format!("/jobs/{id}/events"), "e2e", None),
        )
    };
    let routed_events = events(raddr, ids[0]);
    let direct_events = events(owner, local);
    assert_eq!(routed_events, direct_events, "events must relay verbatim");
    let routed = http::read_response(&mut Cursor::new(routed_events)).unwrap();
    let report = schema::validate_progress_jsonl(routed.body_utf8().unwrap()).unwrap();
    assert_eq!((report.starts, report.finishes), (1, 1));

    assert_eq!(state.proxied.load(Ordering::SeqCst), 4);
    assert_eq!(state.resharded.load(Ordering::SeqCst), 0);
    drain_router(raddr, hr);
    drain_backend(a, ha);
    drain_backend(b, hb);
}

#[test]
fn draining_owner_reshards_to_the_next_candidate() {
    // The owner answers every submit "I am draining"; the job must land
    // on the next rendezvous candidate and be counted as re-sharded.
    let (fake, posts) = fake_backend(|_| {
        "HTTP/1.1 503 Service Unavailable\r\nX-Wec-Draining: true\r\nRetry-After: 1\r\nContent-Length: 0\r\n\r\n"
            .to_string()
    });
    let (real, hreal) = start_backend(backend_cfg(None));
    let addrs = vec![fake.clone(), real.to_string()];
    let mut cfg = router_cfg(addrs.clone());
    // Only the initial health pass runs: the fake's /healthz claims "not
    // draining" (its submits say otherwise), and a later probe would, by
    // design, read that as a restart and clear the submit-path mark.
    cfg.health_interval = Duration::from_secs(3600);
    let (state, raddr, hr) = start_router(cfg);

    let body = spec_owned_by(&addrs, 0);
    let (s, rec) = request(raddr, "POST", "/jobs", Some(&body));
    assert_eq!(s, 200, "{rec}");
    let id = u64_at(&json::parse(&rec).unwrap(), &["id"]);
    assert_eq!(id >> LOCAL_ID_BITS, 2, "must be answered by backend 1");
    assert_eq!(posts.load(Ordering::SeqCst), 1, "draining burns no retries");
    assert_eq!(state.resharded.load(Ordering::SeqCst), 1);
    assert_eq!(state.retries.load(Ordering::SeqCst), 0);

    // The ring remembers: the fake is marked draining in /stats.
    let (ss, stats) = request(raddr, "GET", "/stats", None);
    assert_eq!(ss, 200);
    schema::validate_router_stats_json(&stats).unwrap();
    let v = json::parse(&stats).unwrap();
    let states: Vec<&str> = v
        .get("backends")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|b| b.get("state").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(states[0], "draining", "{stats}");

    poll_terminal(raddr, id);
    drain_router(raddr, hr);
    drain_backend(real, hreal);
}

#[test]
fn queue_full_is_retried_in_place_then_passed_through() {
    // A saturated owner is retried in place (moving the key would forfeit
    // dedup) and its backpressure passes through after the retry budget.
    let (fake, posts) = fake_backend(|_| {
        "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 0\r\nContent-Length: 0\r\n\r\n"
            .to_string()
    });
    let mut cfg = router_cfg(vec![fake]);
    cfg.retries = 2;
    let (state, raddr, hr) = start_router(cfg);

    let body = b"{\"bench\": \"181.mcf\", \"scale\": 1}";
    let resp = http::request(&raddr.to_string(), "POST", "/jobs", Some(body), TIMEOUT).unwrap();
    assert_eq!(resp.status, 503, "{resp:?}");
    assert_eq!(
        resp.header("Retry-After"),
        Some("0"),
        "the owner's hint passes through: {resp:?}"
    );
    assert_eq!(posts.load(Ordering::SeqCst), 3, "1 attempt + 2 retries");
    assert_eq!(state.retries.load(Ordering::SeqCst), 2);
    assert_eq!(state.rejected.load(Ordering::SeqCst), 1);
    assert_eq!(
        state.resharded.load(Ordering::SeqCst),
        0,
        "answered by the primary"
    );
    drain_router(raddr, hr);
}

#[test]
fn dead_backends_are_skipped_and_connect_failures_reshard() {
    // (a) Dead at startup: the synchronous first health pass marks the
    // corpse, so the first submit never even tries it.
    let (real, hreal) = start_backend(backend_cfg(None));
    let addrs = vec![dead_addr(), real.to_string()];
    let mut cfg = router_cfg(addrs.clone());
    cfg.dead_after = 1;
    let (state, raddr, hr) = start_router(cfg);

    let body = spec_owned_by(&addrs, 0);
    let (s, rec) = request(raddr, "POST", "/jobs", Some(&body));
    assert_eq!(s, 200, "{rec}");
    let id = u64_at(&json::parse(&rec).unwrap(), &["id"]);
    assert_eq!(id >> LOCAL_ID_BITS, 2, "answered by the live backend");
    assert_eq!(state.resharded.load(Ordering::SeqCst), 1);
    let (ss, stats) = request(raddr, "GET", "/stats", None);
    assert_eq!(ss, 200);
    let report = schema::validate_router_stats_json(&stats).unwrap();
    assert_eq!(report.backends, 2);
    assert_eq!(report.scraped, 1, "the corpse has no ledger to embed");
    assert!(stats.contains("\"state\":\"dead\""), "{stats}");
    poll_terminal(raddr, id);
    drain_router(raddr, hr);

    // (b) Dies mid-submit: with a high dead_after the health pass has not
    // condemned it, so the submit itself hits the connect failure and
    // re-shards on the spot.
    let addrs = vec![dead_addr(), real.to_string()];
    let mut cfg = router_cfg(addrs.clone());
    cfg.dead_after = 99;
    cfg.health_interval = Duration::from_secs(3600);
    let (state, raddr, hr) = start_router(cfg);
    let body = spec_owned_by(&addrs, 0);
    let (s, rec) = request(raddr, "POST", "/jobs", Some(&body));
    assert_eq!(s, 200, "{rec}");
    let id = u64_at(&json::parse(&rec).unwrap(), &["id"]);
    assert_eq!(id >> LOCAL_ID_BITS, 2);
    assert_eq!(state.resharded.load(Ordering::SeqCst), 1);
    poll_terminal(raddr, id);
    drain_router(raddr, hr);
    drain_backend(real, hreal);
}

#[test]
fn killing_a_backend_reshards_onto_the_shared_store_without_reexecution() {
    let store = scratch("kill-store");
    let (a, ha) = start_backend(backend_cfg(Some(store.clone())));
    let (b, hb) = start_backend(backend_cfg(Some(store)));
    let addrs = vec![a.to_string(), b.to_string()];
    let mut cfg = router_cfg(addrs.clone());
    cfg.dead_after = 2;
    let (state, raddr, hr) = start_router(cfg);

    // Cold on the owner, then capture the result bytes.
    let body = spec_owned_by(&addrs, 0);
    let (s, rec) = request(raddr, "POST", "/jobs", Some(&body));
    assert_eq!(s, 200, "{rec}");
    let id = u64_at(&json::parse(&rec).unwrap(), &["id"]);
    assert_eq!(id >> LOCAL_ID_BITS, 1);
    let rec = poll_terminal(raddr, id);
    assert_eq!(rec.get("source").unwrap().as_str(), Some("cold"));
    let (sk, kv_before) = request(raddr, "GET", &format!("/jobs/{id}/result.kv"), None);
    assert_eq!(sk, 200);

    // Kill the owner and wait for the health thread to notice.
    drain_backend(a, ha);
    poll_until("backend 0 condemned", || !state.ring.backends[0].routable());

    // The same key re-shards to the survivor, which answers from the
    // shared store — no second execution anywhere.
    let (s, rec) = request(raddr, "POST", "/jobs", Some(&body));
    assert_eq!(s, 200, "{rec}");
    let rec = json::parse(&rec).unwrap();
    let id2 = u64_at(&rec, &["id"]);
    assert_eq!(id2 >> LOCAL_ID_BITS, 2, "answered by the survivor");
    let rec = poll_terminal(raddr, id2);
    assert_eq!(rec.get("source").unwrap().as_str(), Some("disk"));
    assert!(state.resharded.load(Ordering::SeqCst) >= 1);
    let (sb, bstats) = request(b, "GET", "/stats", None);
    assert_eq!(sb, 200);
    let v = json::parse(&bstats).unwrap();
    assert_eq!(u64_at(&v, &["cache", "cold"]), 0, "{bstats}");
    assert_eq!(u64_at(&v, &["cache", "disk_hits"]), 1, "{bstats}");

    // The re-served result is the stored bytes, unchanged.
    let (sk, kv_after) = request(raddr, "GET", &format!("/jobs/{id2}/result.kv"), None);
    assert_eq!(sk, 200);
    assert_eq!(kv_before, kv_after);

    drain_router(raddr, hr);
    drain_backend(b, hb);
}

#[test]
fn hints_land_on_the_predictions_hash_owner_and_warm_its_spec_lane() {
    // Backends speculate only on router hints (their own predictor is
    // off), so every speculative start below is router-attributed.
    let spec_cfg = || {
        Some(SpecConfig {
            fanout: 0,
            queue_cap: 8,
            inflight_max: 2,
            ttl: Duration::from_secs(120),
        })
    };
    let mk = |store| ServeConfig {
        spec: spec_cfg(),
        ..backend_cfg(store)
    };
    let store = scratch("hints-store");
    let (a, ha) = start_backend(mk(Some(store.clone())));
    let (b, hb) = start_backend(mk(Some(store)));
    let addrs = vec![a.to_string(), b.to_string()];
    let mut cfg = router_cfg(addrs.clone());
    cfg.hint_fanout = 1;
    let (state, raddr, hr) = start_router(cfg);

    // Replicate the router's prediction with a reference predictor: same
    // client key ("127.0.0.1"), same fanout, same single submission.
    let submitted =
        "{\"bench\": \"164.gzip\", \"scale\": 1, \"cfg\": {\"side_entries\": 8}}".to_string();
    let spec = JobSpec::parse(&submitted).unwrap();
    let predicted = Predictor::new(1).predict("127.0.0.1", &spec);
    assert_eq!(predicted.len(), 1);
    let p = &predicted[0];
    let ring = Ring::new(&addrs).unwrap();
    let p_owner = ring.candidates(&p.dedup_key())[0];
    let (owner_addr, other_addr) = if p_owner == 0 { (a, b) } else { (b, a) };

    let (s, rec) = request(raddr, "POST", "/jobs", Some(&submitted));
    assert_eq!(s, 200, "{rec}");

    // The detached hint thread posts to the prediction's hash owner.
    poll_until("hint accepted", || {
        state.hints_accepted.load(Ordering::SeqCst) >= 1
    });
    assert_eq!(state.hints_sent.load(Ordering::SeqCst), 1);
    let spec_started = |addr: SocketAddr| {
        let (s, stats) = request(addr, "GET", "/stats", None);
        assert_eq!(s, 200);
        u64_at(&json::parse(&stats).unwrap(), &["spec", "started"])
    };
    poll_until("owner speculation started", || {
        spec_started(owner_addr) >= 1
    });
    assert_eq!(
        spec_started(other_addr),
        0,
        "only the prediction's hash owner speculates"
    );
    // Let the prefetch finish unclaimed (an unclaimed completion lands in
    // the backend's source="spec" duration histogram) so the demand below
    // hits a parked ready result, not an in-flight job.
    poll_until("speculation completed unclaimed", || {
        let (s, page) = request(owner_addr, "GET", "/metrics", None);
        assert_eq!(s, 200);
        page.lines().any(|l| {
            l.starts_with("wec_serve_job_duration_ms_count{source=\"spec\"}") && !l.ends_with(" 0")
        })
    });

    // The predicted demand job arrives warm from the speculative lane —
    // and the router routes it to the very backend that pre-computed it.
    let (s, rec) = request(raddr, "POST", "/jobs", Some(&p.to_json()));
    assert_eq!(s, 200, "{rec}");
    let id = u64_at(&json::parse(&rec).unwrap(), &["id"]);
    assert_eq!(id >> LOCAL_ID_BITS, p_owner as u64 + 1);
    let rec = poll_terminal(raddr, id);
    assert_eq!(rec.get("source").unwrap().as_str(), Some("spec"), "{rec:?}");

    // The cluster document carries the speculation ledger and conserves.
    // (The second submit's hint thread is detached — wait it out.)
    poll_until("second hint sent", || {
        state.hints_sent.load(Ordering::SeqCst) >= 2
    });
    let (ss, stats) = request(raddr, "GET", "/stats", None);
    assert_eq!(ss, 200);
    schema::validate_router_stats_json(&stats).unwrap();
    let v = json::parse(&stats).unwrap();
    assert_eq!(u64_at(&v, &["cluster", "cache", "spec_hits"]), 1, "{stats}");
    assert_eq!(
        u64_at(&v, &["router", "hints_sent"]),
        2,
        "one per demand submit"
    );

    drain_router(raddr, hr);
    drain_backend(a, ha);
    drain_backend(b, hb);
}

#[test]
fn every_scrape_conserves_and_drain_writes_validated_router_json() {
    let logs = scratch("conserve-logs");
    let store = scratch("conserve-store");
    let mk = |store| ServeConfig {
        spec: Some(SpecConfig::default()),
        ..backend_cfg(store)
    };
    let (a, ha) = start_backend(mk(Some(store.clone())));
    let (b, hb) = start_backend(mk(Some(store)));
    let addrs = vec![a.to_string(), b.to_string()];
    let mut cfg = router_cfg(addrs);
    cfg.log_dir = Some(logs.clone());
    cfg.hint_fanout = 2;
    let (_state, raddr, hr) = start_router(cfg);

    // Walk the sweep's side axis with self-speculating backends churning
    // underneath; every interleaved scrape must conserve (the validator
    // enforces cluster == sum of embedded ledgers, spec block included).
    let mut ids = Vec::new();
    for side in [2u8, 4, 8, 16] {
        let body = format!(
            "{{\"bench\": \"164.gzip\", \"scale\": 1, \"cfg\": {{\"side_entries\": {side}}}}}"
        );
        let (s, rec) = request(raddr, "POST", "/jobs", Some(&body));
        assert_eq!(s, 200, "{rec}");
        ids.push(u64_at(&json::parse(&rec).unwrap(), &["id"]));

        let (ss, stats) = request(raddr, "GET", "/stats", None);
        assert_eq!(ss, 200);
        let report = schema::validate_router_stats_json(&stats).unwrap();
        assert_eq!(report.scraped, 2, "{stats}");

        // The Prometheus page holds the same invariant in one snapshot.
        let (sm, page) = request(raddr, "GET", "/metrics", None);
        assert_eq!(sm, 200);
        let series_sum = |name: &str| -> u64 {
            page.lines()
                .filter(|l| l.starts_with(name) && !l.starts_with('#'))
                .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
                .sum()
        };
        assert_eq!(
            series_sum("wec_router_backend_completed_total"),
            series_sum("wec_router_jobs_completed_total"),
            "{page}"
        );
        let started = series_sum("wec_router_spec_started_total");
        let accounted = series_sum("wec_router_spec_hit_total")
            + series_sum("wec_router_spec_waste_total")
            + series_sum("wec_router_spec_cancelled_total")
            + series_sum("wec_router_spec_pending_total");
        assert_eq!(started, accounted, "{page}");
    }
    for id in ids {
        poll_terminal(raddr, id);
    }

    drain_router(raddr, hr);
    let text = std::fs::read_to_string(logs.join("router.json")).unwrap();
    let report = schema::validate_router_stats_json(&text).unwrap();
    assert_eq!(report.backends, 2);
    assert_eq!(report.scraped, 2, "backends outlive the router's drain");
    assert!(report.completed >= 4, "{text}");
    let v = json::parse(&text).unwrap();
    assert_eq!(v.get("draining").unwrap().as_bool(), Some(true));
    drain_backend(a, ha);
    drain_backend(b, hb);
}

#[test]
fn malformed_and_unroutable_requests_never_reach_a_backend() {
    let (fake, posts) = fake_backend(|_| {
        "HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n".to_string()
    });
    let (_state, raddr, hr) = start_router(router_cfg(vec![fake]));

    // Spec validation happens at the router: garbage gets a 400 here and
    // the backend never sees a byte of it.
    for body in [
        "{not json",
        "{\"bench\": \"999.nope\"}",
        "{\"bench\": \"181.mcf\", \"oops\": 1}",
    ] {
        let (s, _) = request(raddr, "POST", "/jobs", Some(body));
        assert_eq!(s, 400, "{body}");
    }
    // Ids no backend of this ring could have issued: a raw local id
    // (backend index 0) and an index beyond the ring.
    let (s, _) = request(raddr, "GET", "/jobs/12345", None);
    assert_eq!(s, 404);
    let (s, _) = request(
        raddr,
        "GET",
        &format!("/jobs/{}", 9u64 << LOCAL_ID_BITS),
        None,
    );
    assert_eq!(s, 404);
    let (s, _) = request(raddr, "GET", "/jobs/notanid", None);
    assert_eq!(s, 404);
    let (s, _) = request(raddr, "DELETE", "/stats", None);
    assert_eq!(s, 405);
    assert_eq!(posts.load(Ordering::SeqCst), 0);

    let (s, body) = request(raddr, "GET", "/healthz", None);
    assert_eq!(
        (s, body.as_str()),
        (200, "{\"ok\":true,\"draining\":false}")
    );
    drain_router(raddr, hr);
}

#[test]
fn deeply_nested_json_gets_400_at_the_router_and_it_survives() {
    let (fake, posts) = fake_backend(|_| {
        "HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n".to_string()
    });
    let (_state, raddr, hr) = start_router(router_cfg(vec![fake]));
    let (s, body) = request(raddr, "POST", "/jobs", Some(&"[".repeat(600_000)));
    assert_eq!(s, 400, "{body}");
    assert_eq!(posts.load(Ordering::SeqCst), 0);
    let (s, _) = request(raddr, "GET", "/healthz", None);
    assert_eq!(s, 200);
    drain_router(raddr, hr);
}

#[test]
fn hostile_backend_answers_are_bounded_errors_and_the_router_survives() {
    let header = format!("X-Pad: {}\r\n", "v".repeat(http::MAX_HEADER_LINE / 2));
    let chunk = format!(
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n",
        http::MAX_RESPONSE_BODY + 1
    );
    let cases = [
        (
            "status line without a newline",
            b"HTTP/1.1 200 OK".to_vec(),
            &b"k"[..],
        ),
        (
            "more than MAX_HEADERS headers",
            b"HTTP/1.1 200 OK\r\n".to_vec(),
            header.as_bytes(),
        ),
        (
            "chunk over MAX_RESPONSE_BODY",
            chunk.into_bytes(),
            &b"x"[..],
        ),
    ];
    for (what, head, fill) in cases {
        let (fake, whole, cut) = hostile_backend(head, fill);
        assert!(
            http::request(&fake, "GET", "/jobs/1", None, Duration::from_secs(10)).is_err(),
            "{what}: the shared client must give up"
        );
        let mut cfg = router_cfg(vec![fake]);
        cfg.health_interval = Duration::from_secs(3600);
        let (_state, raddr, hr) = start_router(cfg);
        let (s, body) = request(
            raddr,
            "GET",
            &format!("/jobs/{}", 1u64 << LOCAL_ID_BITS),
            None,
        );
        assert_eq!(s, 502, "{what}: {body}");
        let (s, _) = request(raddr, "GET", "/healthz", None);
        assert_eq!(s, 200, "{what}");
        drain_router(raddr, hr);
        // The direct request, the router's first health probe and the
        // proxied GET each stopped reading at a cap and hung up.
        poll_until("hostile answers ended", || {
            whole.load(Ordering::SeqCst) + cut.load(Ordering::SeqCst) == 3
        });
        assert_eq!(
            whole.load(Ordering::SeqCst),
            0,
            "{what}: read past the caps"
        );
    }
}

/// Median wall time of `n` sequential `GET path` round trips.
fn median_get_ms(addr: SocketAddr, path: &str, n: usize) -> f64 {
    let mut ms: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            let (s, body) = request(addr, "GET", path, None);
            assert_eq!(s, 200, "{body}");
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[n / 2]
}

#[test]
fn idle_router_answers_without_waiting_out_either_accept_timer() {
    let (baddr, hb) = start_backend(backend_cfg(None));
    let (_state, raddr, hr) = start_router(router_cfg(vec![baddr.to_string()]));
    // Answered by the router alone.
    let median = median_get_ms(raddr, "/healthz", 20);
    assert!(median < 10.0, "median router /healthz {median:.2} ms");
    // Proxied: each round trip crosses the router's accept loop and the
    // backend's.
    let (s, resp) = request(
        raddr,
        "POST",
        "/jobs",
        Some("{\"bench\": \"181.mcf\", \"scale\": 1}"),
    );
    assert_eq!(s, 200, "{resp}");
    let id = u64_at(&json::parse(&resp).unwrap(), &["id"]);
    poll_terminal(raddr, id);
    let median = median_get_ms(raddr, &format!("/jobs/{id}"), 20);
    assert!(median < 10.0, "median proxied record GET {median:.2} ms");
    drain_router(raddr, hr);
    drain_backend(baddr, hb);
}

#[cfg(unix)]
#[test]
fn sigterm_drains_the_router_binary() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let (baddr, hb) = start_backend(backend_cfg(None));
    let logs = scratch("sigterm-logs");
    let mut child = Command::new(env!("CARGO_BIN_EXE_wec_router"))
        .args(["--addr", "127.0.0.1:0", "--backend", &baddr.to_string()])
        .arg("--log-dir")
        .arg(&logs)
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stderr = std::io::BufReader::new(child.stderr.take().unwrap());
    let mut banner = String::new();
    stderr.read_line(&mut banner).unwrap();
    let raddr: SocketAddr = banner
        .strip_prefix("wec-router listening on ")
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .parse()
        .unwrap();
    // Keep reading so the router never blocks on a full pipe.
    let rest = std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
    let (s, _) = request(raddr, "GET", "/healthz", None);
    assert_eq!(s, 200);

    // SAFETY: `kill` takes two plain integers; the pid is our own child,
    // not yet reaped.
    assert_eq!(unsafe { kill(child.id() as i32, SIGTERM) }, 0);
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("wec_router did not drain within 30 s of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "{status}");
    let _ = rest.join();
    let router_json = std::fs::read_to_string(logs.join("router.json")).unwrap();
    schema::validate_router_stats_json(&router_json).unwrap();
    drain_backend(baddr, hb);
}
