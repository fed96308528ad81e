//! The benchmark's own span ledger.
//!
//! Every call the benchmark makes into a layer's public API can be
//! wrapped in [`Tracer::span`]. With tracing off the closure runs bare.
//! With tracing on, the span is opened on a `jtobs::Registry` owned by
//! the benchmark (so the run can be exported with
//! `Registry::chrome_trace_json`) and also recorded here with its op id
//! and parent span, which the Chrome trace has no field for.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer-qualified call name, e.g. `jtlang.parse`.
    pub name: &'static str,
    /// The op this span belongs to (`None` during set-up).
    pub op: Option<u64>,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// Span ledger; disabled tracers record nothing.
pub struct Tracer {
    registry: Option<jtobs::Registry>,
    recording: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    op: Option<u64>,
}

impl Tracer {
    /// A tracer that records spans iff `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            registry: enabled.then(jtobs::Registry::new),
            recording: enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }

    /// Pauses or resumes recording on an enabled tracer. Used to
    /// alternate traced and untraced ops within one traced run.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on && self.registry.is_some();
    }

    /// Tags the spans opened from now on with `op`.
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    /// Runs `f` inside the span `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let registry = match &self.registry {
            Some(r) if self.recording => r.clone(),
            _ => return f(self),
        };
        let index = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            dur_ns: 0,
        });
        self.open.push(index);
        let guard = registry.span(name);
        let out = f(self);
        drop(guard);
        self.open.pop();
        self.spans[index].dur_ns =
            (self.epoch.elapsed().as_nanos() as u64).saturating_sub(start_ns);
        out
    }

    /// Every closed span, in opening order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Mean duration in ms of the spans named `name`: over the spans
    /// inside ops when there are any, else over the set-up spans (0 if
    /// there are none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let named = || self.spans.iter().filter(|s| s.name == name);
        let in_ops = named().any(|s| s.op.is_some());
        let (n, total) = named()
            .filter(|s| s.op.is_some() == in_ops)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.dur_ns));
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e6
        }
    }

    /// Chrome `trace_event` JSON of every span, from the registry.
    pub fn chrome_trace_json(&self) -> Option<String> {
        self.registry
            .as_ref()
            .map(jtobs::Registry::chrome_trace_json)
    }

    /// The ledger as JSON Lines: one span per line with its op id and
    /// parent index.
    pub fn ledger_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.name,
                s.op.map_or("null".to_string(), |o| o.to_string()),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.dur_ns
            );
        }
        out
    }
}
