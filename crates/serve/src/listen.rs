//! The accept loop, drain and signal handling shared by `wec_serve` and
//! `wec_router`.
//!
//! [`accept_loop`] hands every accepted connection to its own short-lived
//! thread.  While no connection is pending it blocks in `poll(2)` on the
//! listener, so a new connection wakes it at once; the [`IDLE_WAIT`]
//! timeout only bounds how long a drain request or a signal waits to be
//! noticed.  Once the caller's `draining` flag is set (by `POST
//! /shutdown` or by SIGTERM/SIGINT through [`install_signal_handlers`]),
//! the loop returns as soon as no connection is pending and the caller's
//! idle predicate holds.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The longest the idle loop waits before rechecking drain and signals.
pub const IDLE_WAIT: Duration = Duration::from_millis(20);

/// Set by the SIGTERM/SIGINT handler; [`accept_loop`] folds it into the
/// caller's drain flag.
static TERMINATE: AtomicBool = AtomicBool::new(false);

/// Route SIGTERM and SIGINT into a graceful drain.  Raw `signal(2)` via
/// the C runtime already linked into every binary — the workspace carries
/// no libc crate, and a handler that stores one atomic is async-safe.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_signal(_signum: i32) {
        TERMINATE.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` takes a plain signal number and a handler with the
    // C signature; the handler only stores an atomic, which is
    // async-signal-safe.
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
}

#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// Accept on the nonblocking `listener` until drained.
///
/// Each connection is first passed to `on_conn` on the accepting thread —
/// bookkeeping that must happen before the next idle check goes there —
/// and the closure it returns runs on a new thread named `{name}-conn`.
/// When no connection is pending and `draining` is set, `may_exit` is
/// asked whether the caller is idle; the loop returns once it says yes.
pub fn accept_loop<F>(
    listener: &TcpListener,
    name: &str,
    draining: &AtomicBool,
    mut may_exit: impl FnMut() -> bool,
    mut on_conn: impl FnMut(TcpStream, SocketAddr) -> F,
) where
    F: FnOnce() + Send + 'static,
{
    loop {
        if TERMINATE.load(Ordering::SeqCst) {
            draining.store(true, Ordering::SeqCst);
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                let _ = std::thread::Builder::new()
                    .name(format!("{name}-conn"))
                    .spawn(on_conn(stream, peer));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if draining.load(Ordering::SeqCst) && may_exit() {
                    return;
                }
                wait_readable(listener, IDLE_WAIT);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                eprintln!("{name}: accept error: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

/// Block until `listener` has a connection to accept or `timeout` passes.
/// A signal (`EINTR`) or any other `poll` failure just returns early; the
/// caller goes round its loop again either way.
#[cfg(unix)]
fn wait_readable(listener: &TcpListener, timeout: Duration) {
    use std::os::unix::io::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type NFds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type NFds = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 1;

    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
    // SAFETY: `fd` is one valid, exclusively borrowed pollfd for the call.
    unsafe {
        poll(&mut fd, 1, ms);
    }
}

#[cfg(not(unix))]
fn wait_readable(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout);
}
