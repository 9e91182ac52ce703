//! The shared accept loop: a connection wakes it at once, the idle wait
//! still paces the drain checks, and drain returns only once the caller
//! says it is idle, after every accepted connection has run.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wec_serve::listen::{accept_loop, IDLE_WAIT};

fn nonblocking_listener() -> TcpListener {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    listener
}

#[test]
fn sequential_connections_are_answered_without_waiting_out_the_idle_timer() {
    let listener = nonblocking_listener();
    let addr = listener.local_addr().unwrap();
    let draining = Arc::new(AtomicBool::new(false));
    let client = {
        let draining = draining.clone();
        std::thread::spawn(move || {
            // Each connection arrives just after the loop went idle again,
            // the case a fixed sleep serves worst.
            let mut rtts: Vec<Duration> = (0..15)
                .map(|_| {
                    let t = Instant::now();
                    let mut c = TcpStream::connect(addr).unwrap();
                    let mut b = [0u8; 1];
                    c.read_exact(&mut b).unwrap();
                    t.elapsed()
                })
                .collect();
            draining.store(true, Ordering::SeqCst);
            rtts.sort();
            rtts[rtts.len() / 2]
        })
    };
    accept_loop(
        &listener,
        "listen-test",
        &draining,
        || true,
        |mut stream, _peer| {
            move || {
                let _ = stream.write_all(b"x");
            }
        },
    );
    let median = client.join().unwrap();
    assert!(
        median < IDLE_WAIT / 2,
        "median connect-to-answer {median:?} is bound by the idle wait"
    );
}

#[test]
fn idle_drain_checks_are_paced_by_the_idle_wait() {
    let listener = nonblocking_listener();
    let draining = AtomicBool::new(true);
    let mut checks = 0;
    let t = Instant::now();
    accept_loop(
        &listener,
        "listen-test",
        &draining,
        || {
            checks += 1;
            checks == 4
        },
        |_stream, _peer| || {},
    );
    // Three full idle waits between the four checks, not a busy loop.
    assert!(t.elapsed() >= IDLE_WAIT * 3 - Duration::from_millis(5));
}

#[test]
fn drain_waits_for_the_caller_and_runs_every_connection() {
    let listener = nonblocking_listener();
    let addr = listener.local_addr().unwrap();
    let draining = Arc::new(AtomicBool::new(false));
    let served = Arc::new(AtomicUsize::new(0));
    let client = {
        let draining = draining.clone();
        std::thread::spawn(move || {
            let _conns: Vec<TcpStream> =
                (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
            draining.store(true, Ordering::SeqCst);
        })
    };
    accept_loop(
        &listener,
        "listen-test",
        &draining,
        || served.load(Ordering::SeqCst) == 3,
        |_stream, _peer| {
            let served = served.clone();
            move || {
                served.fetch_add(1, Ordering::SeqCst);
            }
        },
    );
    client.join().unwrap();
    assert_eq!(served.load(Ordering::SeqCst), 3);
}
