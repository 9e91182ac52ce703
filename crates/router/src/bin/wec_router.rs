//! The router daemon binary.
//!
//! ```text
//! wec_router --backend HOST:PORT [--backend HOST:PORT ...]
//!            [--addr HOST:PORT] [--health-interval-ms N]
//!            [--dead-after N] [--retries N] [--backoff-ms N]
//!            [--io-timeout-ms N] [--events-timeout-ms N]
//!            [--log-dir DIR] [--speculate] [--hint-fanout N]
//! ```
//!
//! Defaults: listen on `127.0.0.1:8410`, probe `/healthz` every 500 ms,
//! declare a backend dead after 3 consecutive failures, retry a
//! queue-full `503` twice against the owner (waiting out `Retry-After`
//! up to `--backoff-ms`, default 1000), 10 s per-exchange timeout, 30 s
//! per-read events-relay timeout.  `--backend` is repeatable and at
//! least one is required; the listed addresses define the rendezvous
//! ring, so every router fronting the same fleet must list the same
//! addresses.  With `--log-dir` the router writes `router.json`
//! (`wec-router-stats-v1`) on drain.  `--speculate` forwards predicted
//! next jobs as `POST /hints` to the backend owning each prediction's
//! hash (3 per submit; `--hint-fanout N` tunes the width and implies
//! `--speculate`).  SIGTERM/SIGINT/`POST /shutdown` drain gracefully.

use std::path::PathBuf;
use std::time::Duration;

use wec_router::{Router, RouterConfig};
use wec_serve::listen::install_signal_handlers;

fn main() {
    let mut addr = "127.0.0.1:8410".to_string();
    let mut cfg = RouterConfig::default();
    let mut speculate = false;
    let mut fanout: Option<usize> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{what} requires a value"))
                .clone()
        };
        match a.as_str() {
            "--addr" => addr = value("--addr"),
            "--backend" => {
                let b = value("--backend");
                assert!(!b.is_empty(), "--backend must be non-empty");
                cfg.backends.push(b);
            }
            "--health-interval-ms" => {
                cfg.health_interval = Duration::from_millis(
                    value("--health-interval-ms")
                        .parse()
                        .expect("--health-interval-ms N"),
                );
            }
            "--dead-after" => {
                cfg.dead_after = value("--dead-after").parse().expect("--dead-after N");
                assert!(cfg.dead_after > 0, "--dead-after must be positive");
            }
            "--retries" => {
                cfg.retries = value("--retries").parse().expect("--retries N");
            }
            "--backoff-ms" => {
                cfg.backoff_cap = Duration::from_millis(
                    value("--backoff-ms").parse().expect("--backoff-ms N"),
                );
            }
            "--io-timeout-ms" => {
                cfg.io_timeout = Duration::from_millis(
                    value("--io-timeout-ms").parse().expect("--io-timeout-ms N"),
                );
            }
            "--events-timeout-ms" => {
                cfg.events_timeout = Duration::from_millis(
                    value("--events-timeout-ms")
                        .parse()
                        .expect("--events-timeout-ms N"),
                );
            }
            "--log-dir" => cfg.log_dir = Some(PathBuf::from(value("--log-dir"))),
            "--speculate" => speculate = true,
            "--hint-fanout" => {
                let n: usize = value("--hint-fanout").parse().expect("--hint-fanout N");
                assert!(n > 0, "--hint-fanout must be positive");
                fanout = Some(n);
                speculate = true;
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    assert!(
        !cfg.backends.is_empty(),
        "at least one --backend is required"
    );
    if speculate {
        cfg.hint_fanout = fanout.unwrap_or(3);
    }

    install_signal_handlers();
    let router =
        Router::bind(&addr, cfg.clone()).unwrap_or_else(|e| panic!("cannot bind {addr}: {e}"));
    let state = router.state();
    eprintln!(
        "wec-router listening on {} ({} backends, hints {}, logs {})",
        router
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or(addr.clone()),
        cfg.backends.len(),
        if cfg.hint_fanout > 0 {
            format!("fanout {}", cfg.hint_fanout)
        } else {
            "off".to_string()
        },
        cfg.log_dir
            .as_ref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "disabled".to_string()),
    );
    router
        .run()
        .unwrap_or_else(|e| panic!("router loop failed: {e}"));
    eprintln!("wec-router drained: {}", state.stats_json());
}
