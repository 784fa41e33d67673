//! Structured tracing for the CEAL service stack.
//!
//! Zero external dependencies by design: the serve hot path cannot afford a
//! logging framework, and the vendored-stub build must stay self-contained.
//! Three pieces:
//!
//! - [`ring`]: a lock-free bounded MPMC ring buffer (Vyukov layout) that
//!   producers push [`TraceEvent`]s into without ever blocking — when the
//!   ring is full the event is dropped and counted, never the request.
//! - [`tracer`]: the [`Tracer`] handle threaded through the server. A
//!   disabled tracer (the default) reduces every call to a branch on
//!   `Option`, so tracing costs nothing unless `serve --trace-dir` (or an
//!   in-memory test sink) turns it on. Spans carry `(trace, span, parent)`
//!   identifiers; the trace ID is minted per request or per campaign and
//!   propagated over the wire so a fleet-scattered measurement executed on
//!   a remote worker still lands in its originating session's trace.
//! - [`hist`]: log2-bucketed HDR-style latency histograms (32 sub-buckets
//!   per power of two, ≤3.2 % relative error) backing the server-side
//!   p50/p99/p999 on the `metrics` endpoint.
//!
//! Events serialize to JSON Lines via a hand-rolled writer (one line per
//! event, stable keys), flushed by a background thread when a directory
//! sink is attached. The `trace` CLI in `ceal-bench` reads them back.

// The ring's slots are the crate's only `unsafe`.
#![deny(unsafe_code)]

pub mod event;
pub mod hist;
#[allow(unsafe_code)]
pub mod ring;
pub mod tracer;

pub use event::{EventKind, FieldValue, TraceEvent};
pub use hist::LogHistogram;
pub use ring::Ring;
pub use tracer::{Span, TraceContext, Tracer};
