//! Structured tracing for the CEAL service stack.
//!
//! Zero external dependencies by design: the serve hot path cannot afford a
//! logging framework, and the vendored-stub build must stay self-contained.
//! Two pieces:
//!
//! - [`tracer`]: the [`Tracer`] handle threaded through the server.
//!   Producers `try_send` [`TraceEvent`]s into a bounded std channel and
//!   never block — when it is full the event is dropped and counted,
//!   never the request. A disabled tracer (the default) reduces every
//!   call to a branch on `Option`, so tracing costs nothing unless
//!   `serve --trace-dir` (or an in-memory test sink) turns it on. Spans
//!   carry `(trace, span, parent)` identifiers; the trace ID is minted per
//!   request or per campaign and propagated over the wire so a
//!   fleet-scattered measurement executed on a remote worker still lands
//!   in its originating session's trace.
//! - [`hist`]: log2-bucketed HDR-style latency histograms (32 sub-buckets
//!   per power of two, ≤3.2 % relative error) backing the server-side
//!   p50/p99/p999 on the `metrics` endpoint.
//!
//! Events serialize to JSON Lines via a hand-rolled writer (one line per
//! event, stable keys), flushed by a background thread when a directory
//! sink is attached. The `trace` CLI in `ceal-bench` reads them back.

#![forbid(unsafe_code)]

pub mod event;
pub mod hist;
pub mod tracer;

pub use event::{EventKind, FieldValue, TraceEvent};
pub use hist::LogHistogram;
pub use tracer::{Span, TraceContext, Tracer};
