//! The sharded serving tier: a reverse proxy fronting N `wec_serve`
//! backends.
//!
//! `wec_router` shards jobs across a fleet of serve daemons by rendezvous
//! hashing of [`wec_serve::JobSpec::dedup_key`] — the same key every
//! backend dedups and memoizes on — so identical submissions land on the
//! same node no matter which client sent them, and cross-node dedup holds
//! *by construction*: the cluster executes each distinct job at most once
//! even though the backends never talk to each other.  All backends share
//! one persistent result store, so a re-sharded job (its owner died or
//! drained) is answered from disk instead of recomputed.
//!
//! Same house style as the serve daemon it fronts: std-only, no async
//! runtime, no HTTP library — hand-rolled framing ([`wec_serve::http`] on
//! the inbound side, [`client`] on the outbound side), the shared
//! [`wec_serve::listen`] accept loop that wakes as soon as a connection is
//! ready, one short-lived thread per connection.
//!
//! * [`ring`] — the backend table: rendezvous hashing, health state
//!   (healthy / draining / dead), and the health-check pass;
//! * [`client`] — the outbound HTTP/1.1 client: one request per
//!   connection, fixed-length and chunked response bodies, plus the
//!   verbatim byte relay behind the proxied `/jobs/<id>/events` stream;
//! * [`state`] — shared counters, the composite job-id scheme
//!   (`backend << 48 | local`), live backend scrapes, and the
//!   `wec-router-stats-v1` / Prometheus renderers whose cluster roll-up
//!   conserves against the embedded backend ledgers on every scrape;
//! * [`server`] — routing, bounded retry with
//!   re-sharding around dead or draining backends, speculation hint
//!   fan-out, and graceful drain (writes `router.json`).
//!
//! Binary: `wec_router`.

pub mod client;
pub mod ring;
pub mod server;
pub mod state;

pub use client::Response;
pub use ring::{Backend, BackendState, Ring};
pub use server::Router;
pub use state::{RouterConfig, RouterState};

/// Lock a mutex, recovering the guard if a previous holder panicked — a
/// connection thread's panic must not poison shared routing state for the
/// rest of the proxy's life.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
