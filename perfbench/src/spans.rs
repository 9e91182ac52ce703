//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer (workload build, runner, machine, trace decode, replay, HTTP),
//! kept in memory, and written once at the end as Chrome/Perfetto trace
//! JSON.  A disabled [`Tracer`] records nothing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One finished span.  `job` groups the spans of one job or sweep point;
/// `parent` is the id of the enclosing span (0 = root).
struct Span {
    name: String,
    id: u64,
    parent: u64,
    job: u64,
    start_ns: u64,
    end_ns: u64,
    tid: u64,
}

struct Inner {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Shared handle; cloning is cheap.  `Tracer::off()` is a no-op recorder.
#[derive(Clone)]
pub struct Tracer(Option<Arc<Inner>>);

/// An open span; records itself when [`Open::end`] is called or dropped.
pub struct Open {
    tracer: Tracer,
    name: String,
    id: u64,
    parent: u64,
    job: u64,
    start: Instant,
}

fn thread_tag() -> u64 {
    thread_local!(static TAG: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    });
    TAG.with(|t| *t)
}

impl Tracer {
    pub fn on(t0: Instant) -> Tracer {
        Tracer(Some(Arc::new(Inner {
            t0,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })))
    }

    pub fn off() -> Tracer {
        Tracer(None)
    }

    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Open a span named `name` under `parent` (0 for a root) for `job`.
    pub fn open(&self, name: &str, parent: u64, job: u64) -> Open {
        let id = self
            .0
            .as_ref()
            .map_or(0, |i| i.next_id.fetch_add(1, Ordering::Relaxed));
        Open {
            tracer: self.clone(),
            name: if self.enabled() {
                name.to_string()
            } else {
                String::new()
            },
            id,
            parent,
            job,
            start: Instant::now(),
        }
    }

    /// Record a span whose bounds were measured elsewhere.
    pub fn record(&self, name: &str, parent: u64, job: u64, start: Instant, end: Instant) -> u64 {
        let Some(inner) = &self.0 else {
            return 0;
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let ns = |t: Instant| t.saturating_duration_since(inner.t0).as_nanos() as u64;
        inner
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .push(Span {
                name: name.to_string(),
                id,
                parent,
                job,
                start_ns: ns(start),
                end_ns: ns(end),
                tid: thread_tag(),
            });
        id
    }

    pub fn count(&self) -> usize {
        self.0.as_ref().map_or(0, |i| {
            i.spans
                .lock()
                .expect("span buffer poisoned by a panicking recorder")
                .len()
        })
    }

    /// Span names recorded so far, deduplicated and sorted.
    pub fn names(&self) -> Vec<String> {
        let Some(inner) = &self.0 else {
            return Vec::new();
        };
        let spans = inner
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder");
        let mut names: Vec<String> = spans.iter().map(|s| s.name.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Chrome trace-event JSON (`ph: "X"` complete events, microseconds),
    /// loadable by Perfetto and `chrome://tracing`.
    pub fn to_chrome_json(&self) -> String {
        let Some(inner) = &self.0 else {
            return "{\"traceEvents\":[]}\n".to_string();
        };
        let spans = inner
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder");
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"job\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns.min(s.end_ns)) as f64 / 1e3,
                s.id,
                s.parent,
                s.job
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Close the span now; returns its duration in seconds.
    pub fn end(self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        if self.tracer.enabled() {
            let now = Instant::now();
            let Some(inner) = &self.tracer.0 else {
                return;
            };
            let ns = |t: Instant| t.saturating_duration_since(inner.t0).as_nanos() as u64;
            if let Ok(mut spans) = inner.spans.lock() {
                spans.push(Span {
                    name: std::mem::take(&mut self.name),
                    id: self.id,
                    parent: self.parent,
                    job: self.job,
                    start_ns: ns(self.start),
                    end_ns: ns(now),
                    tid: thread_tag(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let t = Tracer::on(Instant::now());
        let outer = t.open("outer", 0, 7);
        let inner = t.open("inner", outer.id(), 7);
        inner.end();
        outer.end();
        assert_eq!(t.count(), 2);
        assert_eq!(t.names(), vec!["inner".to_string(), "outer".to_string()]);
        let json = t.to_chrome_json();
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"parent\":1,\"job\":7"));
        assert!(wec_telemetry::json::parse(&json).is_ok());
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::off();
        t.open("x", 0, 0).end();
        assert_eq!(t.count(), 0);
    }
}
