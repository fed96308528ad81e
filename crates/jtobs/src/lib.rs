//! `jtobs` — workspace-wide instrumentation.
//!
//! A lightweight, dependency-free observability substrate for the
//! JavaTime reproduction: a thread-safe [`Registry`] of named
//! [`Counter`]s / [`Gauge`]s / [`Histogram`]s plus RAII [`Span`] timers
//! whose begin/end events nest per thread and export as Chrome
//! `trace_event` JSON ([`Registry::chrome_trace_json`], loadable in
//! `chrome://tracing` or Perfetto) or as a human-readable text report
//! ([`Registry::report`]).
//!
//! The whole crate compiles out behind the `telemetry` cargo feature
//! (on by default): with the feature disabled every type is a zero-size
//! no-op, [`ENABLED`] is `false`, and instrumented hot paths reduce to
//! nothing. Call sites that would pay a cost even to *prepare* a
//! measurement (e.g. reading a clock) should gate on [`ENABLED`], which
//! is a `const` and folds away:
//!
//! ```
//! # let registry = jtobs::Registry::new();
//! if jtobs::ENABLED {
//!     registry.counter("asr.fixpoint.iterations").inc();
//! }
//! ```

/// `true` iff the `telemetry` feature is compiled in. A `const`, so
/// `if jtobs::ENABLED { … }` costs nothing when disabled.
pub const ENABLED: bool = cfg!(feature = "telemetry");

#[cfg(feature = "telemetry")]
mod enabled;
#[cfg(feature = "telemetry")]
pub use enabled::{Counter, Gauge, HistStats, Histogram, Registry, Span};

#[cfg(not(feature = "telemetry"))]
mod disabled;
#[cfg(not(feature = "telemetry"))]
pub use disabled::{Counter, Gauge, HistStats, Histogram, Registry, Span};

pub mod journal;
pub mod json;
pub mod profile;
pub mod snapshot;

pub use journal::{Event, EventClass, EventKind, Journal};
