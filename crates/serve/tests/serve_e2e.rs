//! End-to-end daemon tests: a live server on an ephemeral port, driven
//! over real sockets, running real scale-1 simulations.

use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use wec_serve::http::{self, Response};
use wec_serve::{ServeConfig, Server, ServerState};
use wec_telemetry::json::{self, Json};
use wec_telemetry::schema;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wec-serve-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

type ServerHandle = (
    Arc<ServerState>,
    SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
);

fn start(cfg: ServeConfig) -> ServerHandle {
    let server = Server::bind("127.0.0.1:0", cfg).unwrap();
    let state = server.state();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run());
    (state, addr, handle)
}

/// Connect, read and write timeout of every request.
const TIMEOUT: Duration = Duration::from_secs(120);

/// Write hand-made bytes, half-close, and parse the reply with the shared
/// reader.  Writes and the read are best-effort: a server that rejects
/// early (oversized request) may close the connection while the client is
/// still sending.
fn send_raw(addr: SocketAddr, raw: &[u8]) -> Response {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    let _ = s.write_all(raw);
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    http::read_response(&mut Cursor::new(out)).unwrap()
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

fn u64_at(v: &Json, path: &[&str]) -> u64 {
    let mut cur = v;
    for p in path {
        cur = cur.get(p).unwrap_or_else(|| panic!("missing {p}"));
    }
    cur.as_u64().unwrap()
}

#[test]
fn duplicate_submissions_share_one_execution_and_results_match() {
    let (state, addr, handle) = start(ServeConfig {
        workers: 2,
        queue_cap: 8,
        store: Some(scratch("dedup-store")),
        log_dir: None,
        ..ServeConfig::default()
    });

    // Two identical submissions back-to-back: the second must land on the
    // first's job (one execution), which means one shared id.
    let body = "{\"bench\": \"164.gzip\", \"scale\": 1}";
    let (s1, r1) = request(addr, "POST", "/jobs", Some(body));
    let (s2, r2) = request(addr, "POST", "/jobs", Some(body));
    assert_eq!((s1, s2), (200, 200), "{r1} / {r2}");
    let id1 = u64_at(&json::parse(&r1).unwrap(), &["id"]);
    let id2 = u64_at(&json::parse(&r2).unwrap(), &["id"]);
    assert_eq!(id1, id2, "identical in-flight submissions must dedup");

    let rec = poll_terminal(addr, id1);
    schema::validate_job_record(&rec, "e2e record").unwrap();
    assert_eq!(rec.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(rec.get("source").unwrap().as_str(), Some("cold"));
    assert!(u64_at(&rec, &["submissions"]) >= 2);

    // Both submitters read the same result, byte for byte.
    let (sa, kv_a) = request(addr, "GET", &format!("/jobs/{id1}/result.kv"), None);
    let (sb, kv_b) = request(addr, "GET", &format!("/jobs/{id2}/result.kv"), None);
    assert_eq!((sa, sb), (200, 200));
    assert_eq!(kv_a, kv_b);
    assert!(kv_a.contains("cycles "), "{kv_a:?}");

    // The event stream is schema-clean progress.jsonl.
    let (se, events) = request(addr, "GET", &format!("/jobs/{id1}/events"), None);
    assert_eq!(se, 200);
    let report = schema::validate_progress_jsonl(&events).unwrap();
    assert_eq!(report.starts, 1, "{events}");
    assert_eq!(report.finishes, 1, "{events}");

    // A third identical submission after completion is a synchronous
    // warm answer from the memo — new id, already done, source mem.
    let (s3, r3) = request(addr, "POST", "/jobs", Some(body));
    assert_eq!(s3, 200);
    let warm = json::parse(&r3).unwrap();
    schema::validate_job_record(&warm, "warm record").unwrap();
    assert_ne!(u64_at(&warm, &["id"]), id1);
    assert_eq!(warm.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(warm.get("source").unwrap().as_str(), Some("mem"));

    // Stats: 3 submissions, 1 dedup share, 1 cold execution, 1 mem hit.
    let (ss, stats) = request(addr, "GET", "/stats", None);
    assert_eq!(ss, 200);
    schema::validate_serve_stats_json(&stats).unwrap();
    let v = json::parse(&stats).unwrap();
    assert_eq!(u64_at(&v, &["jobs", "submitted"]), 3);
    assert_eq!(u64_at(&v, &["jobs", "deduped"]), 1);
    assert_eq!(u64_at(&v, &["jobs", "completed"]), 2);
    assert_eq!(u64_at(&v, &["cache", "cold"]), 1);
    assert_eq!(u64_at(&v, &["cache", "mem_hits"]), 1);

    let (sd, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(sd, 200);
    handle.join().unwrap().unwrap();
    assert_eq!(state.outstanding(), 0);
}

#[test]
fn malformed_requests_get_400_and_the_daemon_survives() {
    let (_state, addr, handle) = start(ServeConfig {
        workers: 1,
        queue_cap: 4,
        store: None,
        log_dir: None,
        ..ServeConfig::default()
    });

    // Wire-level garbage, oversized and truncated requests: every one a
    // 400, none fatal.
    assert_eq!(send_raw(addr, b"GARBAGE\r\n\r\n").status, 400);
    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9000));
    assert_eq!(send_raw(addr, long_line.as_bytes()).status, 400);
    assert_eq!(
        send_raw(
            addr,
            b"POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"ben"
        )
        .status,
        400,
        "truncated body"
    );
    assert_eq!(
        send_raw(
            addr,
            b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"
        )
        .status,
        400,
        "oversized body"
    );

    // Application-level garbage.
    let (s, _) = request(addr, "POST", "/jobs", Some("{not json"));
    assert_eq!(s, 400);
    let (s, _) = request(addr, "POST", "/jobs", Some("{\"bench\": \"999.nope\"}"));
    assert_eq!(s, 400);
    let (s, _) = request(
        addr,
        "POST",
        "/jobs",
        Some("{\"bench\": \"181.mcf\", \"oops\": 1}"),
    );
    assert_eq!(s, 400);

    // Unknown routes / ids / methods.
    let (s, _) = request(addr, "GET", "/nope", None);
    assert_eq!(s, 404);
    let (s, _) = request(addr, "GET", "/jobs/987654", None);
    assert_eq!(s, 404);
    let (s, _) = request(addr, "GET", "/jobs/notanid", None);
    assert_eq!(s, 404);
    let (s, _) = request(addr, "DELETE", "/stats", None);
    assert_eq!(s, 405);

    // After all of that the daemon still answers.
    let (s, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(
        (s, body.as_str()),
        (200, "{\"ok\":true,\"draining\":false}")
    );
    let (s, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    handle.join().unwrap().unwrap();
}

#[test]
fn shutdown_drains_inflight_work_and_writes_validated_logs() {
    let logs = scratch("drain-logs");
    let (_state, addr, handle) = start(ServeConfig {
        workers: 1,
        queue_cap: 4,
        store: Some(scratch("drain-store")),
        log_dir: Some(logs.clone()),
        ..ServeConfig::default()
    });

    let (s, resp) = request(
        addr,
        "POST",
        "/jobs",
        Some("{\"bench\": \"181.mcf\", \"scale\": 1}"),
    );
    assert_eq!(s, 200, "{resp}");
    let id = u64_at(&json::parse(&resp).unwrap(), &["id"]);

    // Begin draining while the job is still in flight; new submissions
    // bounce with 503 + Retry-After, the in-flight job still finishes.
    let (s, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    let refused = http::request(
        &addr.to_string(),
        "POST",
        "/jobs",
        Some(b"{\"bench\": \"164.gzip\"}"),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(refused.status, 503, "{refused:?}");
    assert!(refused.header("Retry-After").is_some(), "{refused:?}");

    handle.join().unwrap().unwrap();

    // The drained daemon left schema-clean logs with the job completed.
    let jobs = std::fs::read_to_string(logs.join("jobs.jsonl")).unwrap();
    let report = schema::validate_jobs_jsonl(&jobs).unwrap();
    assert_eq!(report.done, 1, "{jobs}");
    assert_eq!(report.failed, 0, "{jobs}");
    let rec = json::parse(jobs.lines().next().unwrap()).unwrap();
    assert_eq!(u64_at(&rec, &["id"]), id);

    let stats = std::fs::read_to_string(logs.join("stats.json")).unwrap();
    schema::validate_serve_stats_json(&stats).unwrap();
    let v = json::parse(&stats).unwrap();
    assert_eq!(v.get("draining").unwrap().as_bool(), Some(true));
    assert_eq!(u64_at(&v, &["jobs", "completed"]), 1);
}

#[test]
fn deeply_nested_json_gets_400_and_the_daemon_survives() {
    let (_state, addr, handle) = start(ServeConfig {
        workers: 1,
        queue_cap: 4,
        store: None,
        log_dir: None,
        ..ServeConfig::default()
    });
    // About 600 KB of `[` fits under MAX_BODY; parsed without a depth
    // limit it would overflow the connection thread's stack and abort the
    // whole daemon.
    let (s, body) = request(addr, "POST", "/jobs", Some(&"[".repeat(600_000)));
    assert_eq!(s, 400, "{body}");
    assert!(body.contains("nesting"), "{body}");
    let (s, _) = request(addr, "GET", "/healthz", None);
    assert_eq!(s, 200);
    let (s, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    handle.join().unwrap().unwrap();
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
fn idle_daemon_answers_healthz_without_waiting_out_the_accept_timer() {
    let (_state, addr, handle) = start(ServeConfig {
        workers: 1,
        queue_cap: 4,
        store: None,
        log_dir: None,
        sample_interval: Duration::ZERO,
        ..ServeConfig::default()
    });
    // Each request arrives just after the accept loop went idle again, so
    // it is answered fast only if the connection itself wakes the loop.
    let median = median_get_ms(addr, "/healthz", 20);
    assert!(median < 10.0, "median /healthz {median:.2} ms");
    let (s, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(s, 200);
    handle.join().unwrap().unwrap();
}

#[cfg(unix)]
#[test]
fn sigterm_drains_the_daemon_binary() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let logs = scratch("sigterm-logs");
    let mut child = Command::new(env!("CARGO_BIN_EXE_wec_serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "1", "--no-store"])
        .arg("--log-dir")
        .arg(&logs)
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stderr = std::io::BufReader::new(child.stderr.take().unwrap());
    let mut banner = String::new();
    stderr.read_line(&mut banner).unwrap();
    let addr: SocketAddr = banner
        .strip_prefix("wec-serve listening on ")
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .parse()
        .unwrap();
    // Keep reading so the daemon never blocks on a full pipe.
    let rest = std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
    let (s, _) = request(addr, "GET", "/healthz", None);
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
            panic!("wec_serve did not drain within 30 s of SIGTERM");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "{status}");
    let _ = rest.join();
    let stats = std::fs::read_to_string(logs.join("stats.json")).unwrap();
    schema::validate_serve_stats_json(&stats).unwrap();
    let v = json::parse(&stats).unwrap();
    assert_eq!(v.get("draining").unwrap().as_bool(), Some(true));
}
