//! The [`Tracer`] handle: span lifecycle, trace-ID minting, sinks.
//!
//! A `Tracer` is a cheap `Arc` clone threaded through every layer. The
//! default (disabled) tracer records nothing and reduces each call to an
//! `Option` check, which is what keeps `--trace-dir`-less serving at full
//! speed. Enabled tracers push typed events into the lock-free ring; a
//! background thread (directory sink) or an explicit drain (in-memory
//! sink, for tests) moves them out. Warnings are special: they are always
//! mirrored to stderr — structured capture never silences an operator
//! signal — and additionally recorded as `W` events when tracing is on.

use crate::event::{EventKind, FieldValue, TraceEvent};
use crate::ring::Ring;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Default ring capacity (events) for enabled tracers.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;
/// How often the background flusher drains the ring to disk.
pub const FLUSH_INTERVAL: Duration = Duration::from_millis(50);

/// Distinguishes per-process trace files written into one `--trace-dir`.
static FILE_NONCE: AtomicU64 = AtomicU64::new(0);

/// Propagatable trace position: which trace, and which span to parent on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace (campaign/request) identifier; 0 = untraced.
    pub trace: u64,
    /// Span to attach children to; 0 = root.
    pub span: u64,
}

impl TraceContext {
    /// The empty context (untraced).
    pub const NONE: TraceContext = TraceContext { trace: 0, span: 0 };

    /// A root context inside `trace`.
    pub fn root(trace: u64) -> Self {
        TraceContext { trace, span: 0 }
    }
}

enum Sink {
    Memory(Vec<TraceEvent>),
    File { file: File },
}

struct Inner {
    epoch: Instant,
    base_unix_us: u64,
    ring: Ring<TraceEvent>,
    next_span: AtomicU64,
    next_trace: AtomicU64,
    salt: u64,
    warnings: AtomicU64,
    sink: Mutex<Sink>,
}

impl Inner {
    fn now_us(&self) -> u64 {
        self.base_unix_us
            .saturating_add(self.epoch.elapsed().as_micros().min(u64::MAX as u128) as u64)
    }

    fn drain(&self) {
        let mut sink = self.sink.lock().unwrap();
        let mut wrote = false;
        while let Some(ev) = self.ring.pop() {
            match &mut *sink {
                Sink::Memory(store) => store.push(ev),
                Sink::File { file, .. } => {
                    let mut line = ev.to_json();
                    line.push('\n');
                    let _ = file.write_all(line.as_bytes());
                    wrote = true;
                }
            }
        }
        if wrote {
            if let Sink::File { file, .. } = &mut *sink {
                let _ = file.flush();
            }
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Land whatever is still in the ring; the flusher thread holds only
        // a Weak and may already be gone.
        self.drain();
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Handle to the tracing subsystem; clone freely.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer that records nothing (the default).
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn make_inner(sink: Sink) -> Arc<Inner> {
        let base_unix_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        let salt = splitmix64(
            base_unix_us
                ^ (std::process::id() as u64) << 32
                ^ FILE_NONCE.fetch_add(1, Ordering::Relaxed),
        );
        Arc::new(Inner {
            epoch: Instant::now(),
            base_unix_us,
            ring: Ring::with_capacity(DEFAULT_RING_CAPACITY),
            next_span: AtomicU64::new(1),
            next_trace: AtomicU64::new(1),
            salt,
            warnings: AtomicU64::new(0),
            sink: Mutex::new(sink),
        })
    }

    /// A tracer that accumulates events in memory; drain with
    /// [`Tracer::drain_events`]. Meant for tests.
    pub fn in_memory() -> Self {
        Tracer {
            inner: Some(Self::make_inner(Sink::Memory(Vec::new()))),
        }
    }

    /// A tracer that appends JSONL to `dir/trace-<pid>-<n>.jsonl`, flushed
    /// by a background thread every [`FLUSH_INTERVAL`]. The thread holds
    /// only a weak reference and exits when the tracer is dropped; the
    /// final drain happens on drop, so no events are lost on clean exit.
    pub fn to_dir(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let nonce = FILE_NONCE.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("trace-{}-{}.jsonl", std::process::id(), nonce));
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let inner = Self::make_inner(Sink::File { file });
        let weak: Weak<Inner> = Arc::downgrade(&inner);
        std::thread::Builder::new()
            .name("ceal-trace-flush".into())
            .spawn(move || loop {
                std::thread::sleep(FLUSH_INTERVAL);
                match weak.upgrade() {
                    Some(inner) => inner.drain(),
                    None => break,
                }
            })?;
        Ok(Tracer { inner: Some(inner) })
    }

    /// Mints a fresh nonzero trace identifier (0 when disabled).
    pub fn new_trace(&self) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        loop {
            let n = inner.next_trace.fetch_add(1, Ordering::Relaxed);
            let id = splitmix64(inner.salt.wrapping_add(n));
            if id != 0 {
                return id;
            }
        }
    }

    fn next_span_id(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.next_span.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }

    /// Opens a span under `ctx`; the span ends (emitting its duration)
    /// when the returned guard drops.
    pub fn span(&self, name: &'static str, ctx: TraceContext) -> Span {
        self.span_since(name, ctx, Instant::now())
    }

    /// [`Tracer::span`] for work that began at `start`, before the caller
    /// knew it would be recorded: the span's begin and duration count from
    /// `start`.
    pub fn span_since(&self, name: &'static str, ctx: TraceContext, start: Instant) -> Span {
        let id = self.next_span_id();
        if let Some(inner) = &self.inner {
            let ago = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            inner.ring.push(TraceEvent {
                ts_us: inner.now_us().saturating_sub(ago),
                kind: EventKind::Begin,
                name,
                trace: ctx.trace,
                span: id,
                parent: ctx.span,
                dur_us: 0,
                fields: Vec::new(),
            });
        }
        Span {
            tracer: self.clone(),
            name,
            trace: ctx.trace,
            id,
            parent: ctx.span,
            start,
            fields: Vec::new(),
        }
    }

    /// Mints a new trace and opens its root span.
    pub fn root_span(&self, name: &'static str) -> Span {
        self.span(name, TraceContext::root(self.new_trace()))
    }

    /// Records a point-in-time event.
    pub fn instant(
        &self,
        name: &'static str,
        ctx: TraceContext,
        fields: &[(&'static str, FieldValue)],
    ) {
        if let Some(inner) = &self.inner {
            inner.ring.push(TraceEvent {
                ts_us: inner.now_us(),
                kind: EventKind::Instant,
                name,
                trace: ctx.trace,
                span: 0,
                parent: ctx.span,
                dur_us: 0,
                fields: fields.to_vec(),
            });
        }
    }

    /// Records a warning event and mirrors it to stderr. The stderr line
    /// is emitted even when tracing is disabled, so converting an
    /// `eprintln!` call site to `warn` never hides the message from an
    /// operator — it only adds a structured, assertable copy.
    pub fn warn(
        &self,
        name: &'static str,
        ctx: TraceContext,
        message: &str,
        fields: &[(&'static str, FieldValue)],
    ) {
        eprintln!("warning: [{name}] {message}");
        if let Some(inner) = &self.inner {
            inner.warnings.fetch_add(1, Ordering::Relaxed);
            let mut all = Vec::with_capacity(fields.len() + 1);
            all.push(("msg", FieldValue::Str(message.to_string())));
            all.extend_from_slice(fields);
            inner.ring.push(TraceEvent {
                ts_us: inner.now_us(),
                kind: EventKind::Warn,
                name,
                trace: ctx.trace,
                span: 0,
                parent: ctx.span,
                dur_us: 0,
                fields: all,
            });
        }
    }

    /// Warn events recorded since creation.
    pub fn warnings(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.warnings.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map(|i| i.ring.dropped()).unwrap_or(0)
    }

    /// Drains the ring into the sink now (file sinks also fsync-flush the
    /// stream buffer). Called by servers on shutdown.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.drain();
        }
    }

    /// Drains and returns everything an in-memory tracer has collected
    /// (empty for directory sinks).
    pub fn drain_events(&self) -> Vec<TraceEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner.drain();
        let mut sink = inner.sink.lock().unwrap();
        match &mut *sink {
            Sink::Memory(store) => std::mem::take(store),
            Sink::File { .. } => Vec::new(),
        }
    }
}

/// Live span guard; emits the `End` event (with duration and any fields
/// added via [`Span::field`]) on drop.
pub struct Span {
    tracer: Tracer,
    name: &'static str,
    trace: u64,
    id: u64,
    parent: u64,
    start: Instant,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Span {
    /// This span's identifier.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The trace this span belongs to.
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Context for parenting children on this span.
    pub fn ctx(&self) -> TraceContext {
        TraceContext {
            trace: self.trace,
            span: self.id,
        }
    }

    /// Attaches a field to the eventual `End` event (no-op when disabled).
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.tracer.enabled() {
            self.fields.push((key, value.into()));
        }
    }

    /// Microseconds since the span opened.
    fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u64::MAX as u128) as u64
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = &self.tracer.inner {
            inner.ring.push(TraceEvent {
                ts_us: inner.now_us(),
                kind: EventKind::End,
                name: self.name,
                trace: self.trace,
                span: self.id,
                parent: self.parent,
                dur_us: self.elapsed_us(),
                fields: std::mem::take(&mut self.fields),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        assert_eq!(t.new_trace(), 0);
        let mut s = t.span("x", TraceContext::NONE);
        s.field("k", 1u64);
        drop(s);
        t.instant("y", TraceContext::NONE, &[]);
        assert!(t.drain_events().is_empty());
    }

    #[test]
    fn span_tree_links_and_durations() {
        let t = Tracer::in_memory();
        let root = t.root_span("campaign");
        let trace = root.trace();
        assert_ne!(trace, 0);
        {
            let mut child = t.span("phase.solo", root.ctx());
            child.field("n", 4u64);
            assert_eq!(child.trace(), trace);
        }
        drop(root);
        let events = t.drain_events();
        let kinds: Vec<_> = events.iter().map(|e| (e.kind, e.name)).collect();
        assert_eq!(
            kinds,
            vec![
                (EventKind::Begin, "campaign"),
                (EventKind::Begin, "phase.solo"),
                (EventKind::End, "phase.solo"),
                (EventKind::End, "campaign"),
            ]
        );
        let child_end = &events[2];
        assert_eq!(child_end.trace, trace);
        assert_eq!(child_end.parent, events[0].span);
        assert_eq!(child_end.fields, vec![("n", FieldValue::U64(4))]);
        let root_end = &events[3];
        assert_eq!(root_end.parent, 0);
    }

    #[test]
    fn a_span_since_counts_from_its_start() {
        let t = Tracer::in_memory();
        let start = Instant::now() - std::time::Duration::from_millis(20);
        drop(t.span_since("lookup", TraceContext::NONE, start));
        let events = t.drain_events();
        let (begin, end) = (&events[0], &events[1]);
        assert!(end.dur_us >= 20_000, "{}", end.dur_us);
        assert!(end.ts_us - begin.ts_us >= 20_000, "begins at its start");
    }

    #[test]
    fn warn_is_recorded_with_message_field() {
        let t = Tracer::in_memory();
        t.warn(
            "cache.unusable",
            TraceContext::NONE,
            "disk on fire",
            &[("path", "/x".into())],
        );
        assert_eq!(t.warnings(), 1);
        let events = t.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::Warn);
        assert_eq!(
            events[0].fields[0],
            ("msg", FieldValue::Str("disk on fire".into()))
        );
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let t = Tracer::in_memory();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = t.new_trace();
            assert_ne!(id, 0);
            assert!(seen.insert(id));
        }
    }

    #[test]
    fn dir_sink_writes_parseable_jsonl() {
        let dir = ceal_testutil::unique_temp_path("trace-dir", "");
        let t = Tracer::to_dir(&dir).unwrap();
        {
            let mut s = t.root_span("request.ping");
            s.field("ok", 1u64);
        }
        t.flush();
        let mut files = std::fs::read_dir(&dir).unwrap();
        let path = files.next().expect("the tracer's file").unwrap().path();
        assert!(files.next().is_none(), "one tracer, one file");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2, "Begin + End: {text}");
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"name\":\"request.ping\""), "{line}");
        }
        drop(t);
        std::fs::remove_dir_all(&dir).ok();
    }
}
