//! The serve daemon: long-running simulation-as-a-service over the
//! experiment harness.
//!
//! `wec_serve` wraps the [`wec_bench`] runner and trace-replay machinery in
//! a std-only HTTP/1.1 daemon (no async runtime, no HTTP library — a
//! [`std::net::TcpListener`], a worker thread pool, and hand-rolled
//! request/response framing in the same house style as
//! [`wec_telemetry::json`]):
//!
//! * [`http`] — the HTTP/1.1 request parser (hard limits, never panics on
//!   wire input) and response/chunked-transfer writers;
//! * [`job`] — the job specification (`POST /jobs` body) and the
//!   `wec-job-record-v1` record every job carries through its life;
//! * [`queue`] — the bounded FIFO between the acceptor and the workers
//!   (full queue ⇒ `503` backpressure, close ⇒ graceful drain);
//! * [`state`] — everything the acceptor, workers and stat readers share:
//!   the job table, the in-flight dedup index (two identical submissions
//!   share one execution), the warm-result memo, and the counters behind
//!   `GET /stats`;
//! * [`worker`] — the worker loop: runs sim jobs through
//!   [`wec_bench::Runner`] (same persistent result store, byte-identical
//!   cache entries) and replay jobs through
//!   [`wec_bench::tracerun::replay_point`], panics become failed jobs;
//! * [`listen`] — the accept loop shared with `wec_router`: it waits in
//!   `poll(2)` for the next connection, hands each one to its own thread,
//!   and turns SIGTERM/SIGINT and `POST /shutdown` into a graceful drain;
//! * [`server`] — routing, the `/jobs/<id>/events` progress stream
//!   (chunked, `progress.jsonl` schema), and graceful drain;
//! * [`metrics`] — per-endpoint HTTP request/latency counters and the
//!   `GET /metrics` Prometheus-style exposition;
//! * [`ringbuf`] — the fixed-capacity sample ring behind the dashboard
//!   sparklines, fed by the in-server sampler thread;
//! * [`dashboard`] — `GET /dashboard` (a self-contained HTML page, inline
//!   SVG, zero external dependencies) and its `GET /dashboard/data` feed;
//! * [`predict`] — the sweep-aware next-job predictor behind `--speculate`:
//!   per-client transition history plus sweep-axis adjacency, fully
//!   deterministic (no RNG);
//! * [`spec`] — speculative-execution plumbing: the prefetch budget/TTL
//!   configuration, the parked ready-result index, and the `spec` stats
//!   block surfaced by `/stats` v2 and `/metrics`.
//!
//! Binaries: `wec_serve` (the daemon) and `loadgen` (an open-loop load
//! generator that reports throughput/latency to `BENCH_serve.json`).

pub mod dashboard;
pub mod http;
pub mod job;
pub mod listen;
pub mod metrics;
pub mod predict;
pub mod queue;
pub mod ringbuf;
pub mod server;
pub mod spec;
pub mod state;
pub mod worker;

pub use job::{JobKind, JobRecord, JobSpec, JobState};
pub use metrics::ServeMetrics;
pub use predict::Predictor;
pub use queue::JobQueue;
pub use ringbuf::{RingBuffer, ServiceSample};
pub use server::Server;
pub use spec::{SpecConfig, SpecStats};
pub use state::{ServeConfig, ServerState, StatsSnapshot, SubmitError};

/// Lock a mutex, recovering the guard if a previous holder panicked.  Worker
/// panics are turned into failed jobs, so shared state stays consistent and
/// a poisoned lock must not take the whole daemon down with it.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
