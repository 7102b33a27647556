//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and end (microseconds since the tracer was
//! created), the span that caused it and the request it belongs to. Spans
//! stay in memory and are written out once, when the run ends. A disabled
//! tracer records nothing and costs one branch per call.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::layers::BuildCounts;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The enclosing span, 0 for a root.
    pub parent: u64,
    /// The request (or build) the span belongs to.
    pub request: u64,
    /// Layer boundary, e.g. `session.scalar` or `client.get`.
    pub name: String,
    /// Free-form detail: measure, parallelism, target.
    pub detail: String,
    /// Start, microseconds since the tracer's epoch.
    pub start_us: u64,
    /// End, microseconds since the tracer's epoch.
    pub end_us: u64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_us - self.start_us) as f64 / 1e6
    }
}

/// Collects spans when enabled.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<Vec<(String, BuildCounts)>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh request id.
    pub fn request_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Run `f` inside a span; the span's id is handed to `f` so nested
    /// calls can name it as their parent.
    pub fn span<T>(
        &self,
        name: &str,
        detail: &str,
        request: u64,
        parent: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let out = f(id);
        let end = self.epoch.elapsed();
        let span = Span {
            id,
            parent,
            request,
            name: name.to_string(),
            detail: detail.to_string(),
            start_us: start.as_micros() as u64,
            end_us: end.as_micros() as u64,
        };
        self.spans.lock().expect("span buffer lock").push(span);
        out
    }

    /// Record the work counts of one traced build or render.
    pub fn count(&self, detail: &str, counts: BuildCounts) {
        if self.enabled {
            self.counts.lock().expect("count buffer lock").push((detail.to_string(), counts));
        }
    }

    /// Every work count recorded so far, with its detail.
    pub fn counts(&self) -> Vec<(String, BuildCounts)> {
        self.counts.lock().expect("count buffer lock").clone()
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock").clone()
    }

    /// Total seconds of the spans named `name` whose detail starts with
    /// `detail`, and how many there were.
    pub fn total(&self, name: &str, detail: &str) -> (f64, usize) {
        let spans = self.spans.lock().expect("span buffer lock");
        spans
            .iter()
            .filter(|s| s.name == name && s.detail.starts_with(detail))
            .fold((0.0, 0), |(sum, n), s| (sum + s.seconds(), n + 1))
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\":[")?;
        for (i, s) in spans.iter().enumerate() {
            let comma = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":{:?},\"detail\":{:?},\"start_us\":{},\"end_us\":{}}}{comma}",
                s.id, s.parent, s.request, s.name, s.detail, s.start_us, s.end_us
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
