//! The harness's own span recorder and the per-layer time budget.
//!
//! The harness wraps every client call in a span and joins those spans
//! with the events the product already emits (`request.*`,
//! `campaign.tune`, `oracle.measure`, `journal.commit`, `fleet.scatter`,
//! `fleet.gather`, `phase.done`). No span is added inside the product.
//!
//! The traced window drives **one** connection, so client calls and the
//! server's `request.*` spans pair up by order and everything the server
//! emits between a request's `Begin` and `End` belongs to that request.
//! (Request spans carry no connection or session id; with two requests in
//! flight the nesting would be ambiguous.)

use ceal_trace::{EventKind, FieldValue, TraceEvent};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded client-side interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// Layer boundary crossed, e.g. `client.advance`.
    pub name: &'static str,
    /// Index of the workload op this span belongs to.
    pub op: u64,
    /// Enclosing span id; 0 for an op's root span.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Campaign phase the call ran in (`history`, `bootstrap`, `refine`),
    /// empty for calls outside a session campaign.
    pub phase: &'static str,
}

/// In-memory span sink for one client thread; written out at exit.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// `epoch` is shared by every recorder of a run so their clocks agree.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a span and returns its id.
    pub fn open(&mut self, name: &'static str, op: u64, parent: u64, phase: &'static str) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            op,
            parent,
            start_ns: now,
            end_ns: now,
            phase,
        });
        id
    }

    /// Ends the span `open` returned `id` for.
    pub fn close(&mut self, id: u64) {
        let now = self.now_ns();
        self.spans[id as usize - 1].end_ns = now;
    }
}

/// A span's self time: its duration minus the part of it covered by the
/// union of `children` (which may nest, overlap, or poke outside it).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut frontier = start;
    for (s, e) in clipped {
        let s = s.max(frontier);
        if e > s {
            covered += e - s;
            frontier = e;
        }
    }
    (end - start) - covered
}

/// Writes harness spans, then the product's drained events, one JSON
/// object per line.
pub fn write_trace(path: &Path, spans: &[Span], events: &[TraceEvent]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = serde_json::json!({
            "src": "harness", "id": s.id, "name": s.name, "op": s.op, "parent": s.parent,
            "start_ns": s.start_ns, "end_ns": s.end_ns, "phase": s.phase,
        });
        writeln!(out, "{line}")?;
    }
    for e in events {
        writeln!(out, "{}", e.to_json())?;
    }
    out.flush()
}

/// Share of client-observed wall time by layer.
///
/// Every share is measured on its own — client spans by the harness's
/// clock, server spans and their parts by the product's events — and none
/// is cut to fit the others, so the sum is 1 only if the server's account
/// of a call nests inside the client's: a part counted twice, or server
/// time the client never saw, pushes the sum above 1.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Budget {
    pub transport: f64,
    pub request: f64,
    pub campaign: f64,
    pub phase_history: f64,
    pub phase_bootstrap: f64,
    pub phase_refine: f64,
    pub oracle: f64,
    pub journal: f64,
    pub cache: f64,
    pub fleet: f64,
    /// Client think time between the calls of a multi-call op, plus every
    /// call when the client and server streams did not pair.
    pub unattributed: f64,
    /// Whether every client call met a server `request.*` span of its
    /// endpoint at the same position of the stream.
    pub paired: bool,
}

/// How far the shares' sum may be from 1, and how large `unattributed` may
/// be, before the budget counts as not reconciled.
const RECONCILE_TOLERANCE: f64 = 0.05;

impl Budget {
    pub fn sum(&self) -> f64 {
        self.transport
            + self.request
            + self.campaign
            + self.phase_history
            + self.phase_bootstrap
            + self.phase_refine
            + self.oracle
            + self.journal
            + self.cache
            + self.fleet
            + self.unattributed
    }

    /// Why this budget does not reconcile with client-observed wall time;
    /// empty when it does.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.paired {
            v.push("client calls and server request spans did not pair".to_string());
        }
        if self.unattributed > RECONCILE_TOLERANCE {
            v.push(format!("budget leaves {} unattributed", self.unattributed));
        }
        if (self.sum() - 1.0).abs() > RECONCILE_TOLERANCE {
            v.push(format!("budget shares sum to {}", self.sum()));
        }
        v
    }
}

/// Requests that interleave with the client's ops without being one: the
/// fleet workers' polls and the harness's own counter reads.
const BYSTANDER_REQUESTS: [&str; 4] = [
    "request.register-worker",
    "request.heartbeat",
    "request.task-result",
    "request.metrics",
];

fn field_u64(e: &TraceEvent, key: &str) -> Option<u64> {
    e.fields.iter().find_map(|(k, v)| match v {
        FieldValue::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

/// Server-side microseconds of one request, by layer.
#[derive(Default)]
struct RequestParts {
    total: u64,
    campaign: u64,
    warm: bool,
    oracle: u64,
    journal: u64,
    fleet: u64,
    /// `phase.done` begin → request end: `Session::finish`, i.e. journal
    /// removal plus the cache put.
    finish: u64,
}

/// Splits the server's event stream into one [`RequestParts`] per client
/// request, in order.
fn server_requests(events: &[TraceEvent]) -> Vec<(&'static str, RequestParts)> {
    let mut out = Vec::new();
    let mut open: Option<(u64, RequestParts)> = None;
    let mut done_begin_us = None;
    for e in events {
        if BYSTANDER_REQUESTS.contains(&e.name) {
            continue;
        }
        if e.name.starts_with("request.") {
            match e.kind {
                EventKind::Begin => {
                    open = Some((e.span, RequestParts::default()));
                    done_begin_us = None;
                }
                EventKind::End => {
                    if let Some((span, mut parts)) = open.take() {
                        if span == e.span {
                            parts.total = e.dur_us;
                            if let Some(t) = done_begin_us.take() {
                                parts.finish = e.ts_us.saturating_sub(t);
                            }
                            out.push((e.name, parts));
                        }
                    }
                }
                _ => {}
            }
            continue;
        }
        let Some((_, parts)) = open.as_mut() else {
            continue;
        };
        match (e.name, e.kind) {
            ("campaign.tune", EventKind::End) => {
                parts.campaign = e.dur_us;
                parts.warm = field_u64(e, "from_cache") == Some(1);
            }
            ("oracle.measure", EventKind::End) => parts.oracle += e.dur_us,
            ("fleet.scatter" | "fleet.gather", EventKind::End) => parts.fleet += e.dur_us,
            ("journal.commit", EventKind::Instant) => {
                parts.journal += field_u64(e, "us").unwrap_or(0)
            }
            ("phase.done", EventKind::Begin) => done_begin_us = Some(e.ts_us),
            _ => {}
        }
    }
    out
}

/// Endpoint a harness call span must pair with.
fn request_name(call: &str) -> Option<&'static str> {
    Some(match call {
        "client.connect" | "client.ping" => "request.ping",
        "client.tune" => "request.tune",
        "client.create_session" => "request.create-session",
        "client.advance" => "request.advance",
        "client.status" => "request.status",
        "client.predict" => "request.predict",
        "client.close_session" => "request.close-session",
        _ => return None,
    })
}

/// Index of each layer in the budget accumulator.
#[derive(Clone, Copy)]
enum Layer {
    Transport,
    Request,
    Campaign,
    History,
    Bootstrap,
    Refine,
    Oracle,
    Journal,
    Cache,
    Fleet,
}

/// Builds the budget from the harness's spans and the server's events of
/// the same traced window.
///
/// Root spans are either a single client call or an `op` wrapper whose
/// children are the calls of a multi-call op.
pub fn budget(spans: &[Span], events: &[TraceEvent]) -> Budget {
    let wall_ns: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    if wall_ns == 0 {
        return Budget::default();
    }
    let calls: Vec<&Span> = spans
        .iter()
        .filter(|s| request_name(s.name).is_some())
        .collect();
    let requests = server_requests(events);
    let paired = calls.len() == requests.len()
        && calls
            .iter()
            .zip(&requests)
            .all(|(c, (name, _))| request_name(c.name) == Some(name));

    let mut ns = [0u64; 10];
    let mut unattributed: u64 = spans
        .iter()
        .filter(|s| s.parent == 0 && request_name(s.name).is_none())
        .map(|op| {
            let children: Vec<(u64, u64)> = spans
                .iter()
                .filter(|c| c.parent == op.id)
                .map(|c| (c.start_ns, c.end_ns))
                .collect();
            self_time(op.start_ns, op.end_ns, &children)
        })
        .sum();
    if !paired {
        unattributed += calls.iter().map(|c| c.end_ns - c.start_ns).sum::<u64>();
    } else {
        for (call, (_, p)) in calls.iter().zip(&requests) {
            let server_ns = p.total * 1_000;
            ns[Layer::Transport as usize] +=
                (call.end_ns - call.start_ns).saturating_sub(server_ns);
            let campaign = if p.warm {
                ns[Layer::Cache as usize] += p.campaign * 1_000;
                p.campaign
            } else {
                let own = p.campaign.saturating_sub(p.oracle);
                ns[Layer::Campaign as usize] += own * 1_000;
                own
            };
            ns[Layer::Oracle as usize] += p.oracle * 1_000;
            ns[Layer::Journal as usize] += p.journal * 1_000;
            ns[Layer::Fleet as usize] += p.fleet * 1_000;
            ns[Layer::Cache as usize] += p.finish * 1_000;
            let parts = p.oracle + p.journal + p.fleet + p.finish + campaign;
            let own = match call.phase {
                "history" => Layer::History,
                "bootstrap" => Layer::Bootstrap,
                "refine" => Layer::Refine,
                _ => Layer::Request,
            };
            ns[own as usize] += p.total.saturating_sub(parts) * 1_000;
        }
    }
    let share = |layer: Layer| ns[layer as usize] as f64 / wall_ns as f64;
    Budget {
        transport: share(Layer::Transport),
        request: share(Layer::Request),
        campaign: share(Layer::Campaign),
        phase_history: share(Layer::History),
        phase_bootstrap: share(Layer::Bootstrap),
        phase_refine: share(Layer::Refine),
        oracle: share(Layer::Oracle),
        journal: share(Layer::Journal),
        cache: share(Layer::Cache),
        fleet: share(Layer::Fleet),
        unattributed: unattributed as f64 / wall_ns as f64,
        paired,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_without_children_is_the_duration() {
        assert_eq!(self_time(10, 110, &[]), 100);
    }

    #[test]
    fn self_time_subtracts_the_union_not_the_sum() {
        // Two overlapping children cover [20, 60); a nested grandchild
        // interval inside them must not be subtracted twice.
        assert_eq!(self_time(0, 100, &[(20, 50), (40, 60), (25, 30)]), 60);
        // Disjoint children.
        assert_eq!(self_time(0, 100, &[(0, 10), (90, 100)]), 80);
        // Order must not matter.
        assert_eq!(self_time(0, 100, &[(40, 60), (25, 30), (20, 50)]), 60);
    }

    #[test]
    fn self_time_clips_children_to_the_span() {
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time(50, 100, &[(0, 500)]), 0);
        assert_eq!(self_time(50, 100, &[(0, 10), (200, 300), (70, 70)]), 50);
    }

    fn ev(name: &'static str, kind: EventKind, span: u64, ts_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent {
            ts_us,
            kind,
            name,
            trace: 1,
            span,
            parent: 0,
            dur_us,
            fields: Vec::new(),
        }
    }

    fn call(name: &'static str, phase: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id: 0,
            name,
            op: 0,
            parent: 0,
            start_ns,
            end_ns,
            phase,
        }
    }

    #[test]
    fn budget_attributes_a_session_step_and_sums_to_one() {
        // One advance: 1000 us at the client, 800 us in the server, of
        // which 300 oracle, 100 journal, 50 finish; a worker heartbeat
        // interleaves and must be ignored.
        let mut commit = ev("journal.commit", EventKind::Instant, 0, 500, 0);
        commit.fields.push(("us", FieldValue::U64(100)));
        let events = vec![
            ev("request.advance", EventKind::Begin, 7, 100, 0),
            ev("request.heartbeat", EventKind::Begin, 8, 150, 0),
            ev("request.heartbeat", EventKind::End, 8, 160, 10),
            ev("oracle.measure", EventKind::End, 9, 400, 300),
            commit,
            ev("phase.done", EventKind::Begin, 10, 850, 0),
            ev("request.advance", EventKind::End, 7, 900, 800),
        ];
        let spans = vec![call("client.advance", "refine", 0, 1_000_000)];
        let b = budget(&spans, &events);
        assert!((b.transport - 0.2).abs() < 1e-9);
        assert!((b.oracle - 0.3).abs() < 1e-9);
        assert!((b.journal - 0.1).abs() < 1e-9);
        assert!((b.cache - 0.05).abs() < 1e-9);
        assert!((b.phase_refine - 0.35).abs() < 1e-9);
        assert_eq!(b.unattributed, 0.0);
        assert!((b.sum() - 1.0).abs() < 1e-9);
        assert!(b.violations().is_empty(), "{:?}", b.violations());
    }

    #[test]
    fn budget_splits_cold_and_warm_tunes() {
        let mut warm = ev("campaign.tune", EventKind::End, 4, 0, 90);
        warm.fields.push(("from_cache", FieldValue::U64(1)));
        let events = vec![
            ev("request.tune", EventKind::Begin, 1, 0, 0),
            ev("oracle.measure", EventKind::End, 2, 0, 400),
            ev("campaign.tune", EventKind::End, 3, 0, 900),
            ev("request.tune", EventKind::End, 1, 0, 950),
            ev("request.tune", EventKind::Begin, 5, 0, 0),
            warm,
            ev("request.tune", EventKind::End, 5, 0, 100),
        ];
        let spans = vec![
            call("client.tune", "", 0, 1_000_000),
            call("client.tune", "", 1_000_000, 2_000_000),
        ];
        let b = budget(&spans, &events);
        assert!((b.oracle - 0.2).abs() < 1e-9);
        assert!((b.campaign - 0.25).abs() < 1e-9);
        assert!((b.cache - 0.045).abs() < 1e-9);
        assert!((b.request - 0.03).abs() < 1e-9);
        assert!((b.transport - 0.475).abs() < 1e-9);
        assert!((b.sum() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unpaired_streams_fail_reconciliation() {
        let spans = vec![call("client.status", "", 0, 1_000)];
        let b = budget(&spans, &[]);
        assert!(!b.paired);
        assert_eq!(b.unattributed, 1.0);
        assert_eq!(b.violations().len(), 2, "{:?}", b.violations());
        // A request of another endpoint in the call's place pairs no better.
        let events = vec![
            ev("request.ping", EventKind::Begin, 1, 0, 0),
            ev("request.ping", EventKind::End, 1, 0, 1),
        ];
        assert!(!budget(&spans, &events).paired);
        // Nothing recorded at all is not a reconciled budget either.
        assert!(!budget(&[], &[]).violations().is_empty());
    }

    #[test]
    fn server_time_the_client_never_saw_breaks_the_sum() {
        // The server claims 1300 us for a call the client timed at 1000 us.
        let events = vec![
            ev("request.status", EventKind::Begin, 1, 0, 0),
            ev("request.status", EventKind::End, 1, 0, 1_300),
        ];
        let b = budget(&[call("client.status", "", 0, 1_000_000)], &events);
        assert!(b.paired);
        assert!((b.sum() - 1.3).abs() < 1e-9);
        assert_eq!(b.violations().len(), 1, "{:?}", b.violations());
        // Parts that add up to more than their request do the same.
        let events = vec![
            ev("request.advance", EventKind::Begin, 1, 0, 0),
            ev("oracle.measure", EventKind::End, 2, 0, 600),
            ev("fleet.gather", EventKind::End, 3, 0, 600),
            ev("request.advance", EventKind::End, 1, 0, 900),
        ];
        let b = budget(&[call("client.advance", "refine", 0, 1_000_000)], &events);
        assert!((b.sum() - 1.3).abs() < 1e-9);
        assert!(!b.violations().is_empty());
    }
}
