//! Service observability: per-endpoint counters and latency histograms.
//!
//! Everything is lock-free atomics so recording a sample never contends
//! with request handling; the `Metrics` endpoint snapshots whatever the
//! counters hold at that instant, beside the cache, fleet and admission
//! state it reads where they live (`ServerInner::metrics_report`).
//! Latencies land in an HDR-style log2-bucketed histogram
//! ([`ceal_trace::LogHistogram`], ≤3.2 % relative error) from which the
//! report derives real server-side p50/p99/p999 per endpoint.
//! [`Endpoint`] also carries the one table of per-request-class facts:
//! metrics name, trace span name, whether overload may shed it, whether
//! the reactor thread may run it where it arrives.

use crate::protocol::EndpointStats;
use ceal_core::{MeasureError, Measurement, Oracle, SoloMeasurement};
use ceal_trace::{LogHistogram, TraceContext, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Everything the server knows about one request class.
struct EndpointRow {
    endpoint: Endpoint,
    /// [`Request`](crate::protocol::Request) variant names (serde's
    /// external tags) accounted under this endpoint.
    tags: &'static [&'static str],
    /// Name on the `Metrics` endpoint.
    name: &'static str,
    /// Per-request trace span name, `request.<name>`.
    span: &'static str,
    /// Whether overload may answer this request with `Busy`.
    sheddable: bool,
    /// Whether a small frame of it is run on the reactor thread.
    inline: bool,
}

/// Declares [`Endpoint`] and its fact table from one list: a request class
/// is described once, and its row sits at the endpoint's discriminant.
macro_rules! endpoints {
    ($($variant:ident $tags:tt $name:literal $sheddable:literal $inline:literal,)+) => {
        /// The service's endpoints, for metrics attribution.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Endpoint {
            $(#[doc = concat!("`", $name, "`.")] $variant,)+
        }

        const ENDPOINTS: &[EndpointRow] = &[$(EndpointRow {
            endpoint: Endpoint::$variant,
            tags: &$tags,
            name: $name,
            span: concat!("request.", $name),
            sheddable: $sheddable,
            inline: $inline,
        },)+];
    };
}

// Variant, request tags, name, sheddable, inline. Never shed: cheap control
// traffic whose loss would blind operators (`Metrics`), break liveness
// (`Ping`, `Shutdown`), leak resources (`Status`, `CloseSession`), or stall
// the fleet's exactly-once accounting (registration, and the one poll,
// `TaskResult` — shedding one that carries results would force a
// re-measure). Inline: the requests whose work is microseconds and whose
// every wait — a session or shard lock, a surrogate fit, a shard not
// indexed yet, a campaign — and every large decode can be seen coming and
// handed to the pool instead; the fleet's poll among them so that an idle
// one can be held.
endpoints! {
    Ping ["Ping"] "ping" false true,
    Tune ["Tune"] "tune" true true,
    CreateSession ["CreateSession"] "create-session" true false,
    Advance ["Advance"] "advance" true false,
    Status ["Status"] "status" false true,
    Predict ["Predict"] "predict" true true,
    PushHistory ["PushHistory"] "push-history" true false,
    CloseSession ["CloseSession"] "close-session" false false,
    Metrics ["Metrics", "Shutdown"] "metrics" false false,
    RegisterWorker ["RegisterWorker"] "register-worker" false true,
    TaskResult ["TaskResult"] "task-result" false true,
}

/// Leading JSON whitespace [`Endpoint::peek`] tolerates before giving up.
const PEEK_MAX_PAD: usize = 16;

fn skip_json_ws(bytes: &[u8]) -> &[u8] {
    let pad = bytes
        .iter()
        .take(PEEK_MAX_PAD)
        .take_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        .count();
    &bytes[pad..]
}

impl Endpoint {
    /// The per-request trace span name.
    pub(crate) fn span_name(self) -> &'static str {
        ENDPOINTS[self as usize].span
    }

    /// Whether overload may answer this endpoint's requests with `Busy`.
    pub(crate) fn sheddable(self) -> bool {
        ENDPOINTS[self as usize].sheddable
    }

    /// Whether a small frame of this endpoint is run where it arrives, on
    /// the reactor thread.
    pub(crate) fn runs_inline(self) -> bool {
        ENDPOINTS[self as usize].inline
    }

    /// Classifies an undecoded request payload by its externally-tagged
    /// variant name — `"Ping"` or `{"Status":…` — so the reactor can
    /// decide shed exemption before spending pool time on JSON decoding.
    /// Reads a bounded prefix whatever the frame size (leading
    /// whitespace, an optional `{`, one quoted tag), never allocates, and
    /// depends on no serializer's byte layout. Anything unrecognised is
    /// `None`, which callers treat as sheddable: a malformed frame can be
    /// shed, never wrongly admitted as exempt work.
    pub fn peek(payload: &[u8]) -> Option<Endpoint> {
        let mut rest = skip_json_ws(payload);
        if let [b'{', tail @ ..] = rest {
            rest = skip_json_ws(tail);
        }
        let quoted = rest.strip_prefix(b"\"")?;
        let is_tag = |tag: &&str| {
            let after = quoted.strip_prefix(tag.as_bytes());
            after.is_some_and(|a| a.first() == Some(&b'"'))
        };
        ENDPOINTS
            .iter()
            .find(|row| row.tags.iter().any(is_tag))
            .map(|row| row.endpoint)
    }
}

#[derive(Default)]
struct EndpointCounters {
    count: AtomicU64,
    errors: AtomicU64,
    total_us: AtomicU64,
    hist: LogHistogram,
}

/// All service counters; shared across workers via `Arc`.
#[derive(Default)]
pub struct ServerMetrics {
    endpoints: [EndpointCounters; ENDPOINTS.len()],
    /// Oracle measurements spent (coupled + solo), across all requests.
    pub oracle_measurements: AtomicU64,
    /// Requests answered from the persistent cache.
    pub cache_hits: AtomicU64,
    /// Requests that had to run the tuner.
    pub cache_misses: AtomicU64,
    /// Sessions opened since startup.
    pub sessions_created: AtomicU64,
    /// Sessions evicted for idleness.
    pub sessions_evicted: AtomicU64,
    /// Sessions rebuilt from their on-disk journals at startup.
    pub sessions_rebuilt: AtomicU64,
    /// Campaign results that could not be persisted to the cache (the
    /// entry still served from memory; the disk tier lost it).
    pub cache_persist_failures: AtomicU64,
    /// Sessions whose bootstrap was seeded from a sibling platform's
    /// cached campaign (a near-miss transfer hit).
    pub cache_transfer_seeded: AtomicU64,
}

impl ServerMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one handled request.
    pub fn record(&self, endpoint: Endpoint, latency: Duration, is_error: bool) {
        let c = &self.endpoints[endpoint as usize];
        c.count.fetch_add(1, Ordering::Relaxed);
        if is_error {
            c.errors.fetch_add(1, Ordering::Relaxed);
        }
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        c.total_us.fetch_add(us, Ordering::Relaxed);
        c.hist.record(us);
    }

    /// Adds `n` oracle measurements to the global spend counter.
    fn add_oracle_measurements(&self, n: u64) {
        self.oracle_measurements.fetch_add(n, Ordering::Relaxed);
    }

    /// The per-endpoint part of the `Metrics` snapshot. Endpoints with no
    /// traffic are omitted; traffic-bearing endpoints carry HDR
    /// p50/p99/p999.
    pub fn endpoint_stats(&self) -> Vec<EndpointStats> {
        self.endpoints
            .iter()
            .zip(ENDPOINTS)
            .filter(|(c, _)| c.count.load(Ordering::Relaxed) > 0)
            .map(|(c, row)| EndpointStats {
                name: row.name.to_string(),
                count: c.count.load(Ordering::Relaxed),
                errors: c.errors.load(Ordering::Relaxed),
                total_us: c.total_us.load(Ordering::Relaxed),
                p50_us: c.hist.quantile(0.50),
                p99_us: c.hist.quantile(0.99),
                p999_us: c.hist.quantile(0.999),
            })
            .collect()
    }
}

/// Measurements as the server pays for them — the one way it does, whether
/// for a stepper's coupled or solo ask, a session's free history or a
/// one-shot's measurement of a recommendation it never ran. A campaign answers a repeated solo ask, and a recommendation
/// it measured, with its own record, so it is billed once per
/// configuration. As an [`Oracle`] it measures on `inner`, billing
/// [`ServerMetrics::oracle_measurements`].
pub struct CountingOracle<'a> {
    inner: &'a dyn Oracle,
    metrics: &'a ServerMetrics,
    /// Tracer, parent and session id of the `oracle.measure` spans.
    pub(crate) trace: Option<(&'a Tracer, TraceContext, u64)>,
}

impl<'a> CountingOracle<'a> {
    /// Wraps `inner`, billing measurements to `metrics`; untraced until
    /// `trace` is set.
    pub fn new(inner: &'a dyn Oracle, metrics: &'a ServerMetrics) -> Self {
        Self {
            inner,
            metrics,
            trace: None,
        }
    }

    /// One measurement: the answer a fleet worker `worked` out (it traced
    /// the run itself), else `run` against `inner` — the only place the
    /// server runs its simulator — inside an `oracle.measure` span. Billed
    /// once, when it succeeded: a failed attempt (an injected fault) is
    /// traced, not billed.
    pub(crate) fn run<T>(
        &self,
        mode: &'static str,
        worked: Option<T>,
        run: impl FnOnce(&dyn Oracle) -> Result<T, MeasureError>,
    ) -> Result<T, MeasureError> {
        let result = match worked {
            Some(answer) => Ok(answer),
            None => {
                let _span = self.trace.map(|(tracer, ctx, session)| {
                    let mut span = tracer.span("oracle.measure", ctx);
                    span.field("source", "local");
                    span.field("mode", mode);
                    span.field("session", session);
                    span
                });
                run(self.inner)
            }
        };
        if result.is_ok() {
            self.metrics.add_oracle_measurements(1);
        }
        result
    }
}

impl Oracle for CountingOracle<'_> {
    fn spec(&self) -> &ceal_sim::WorkflowSpec {
        self.inner.spec()
    }

    fn platform(&self) -> &ceal_sim::Platform {
        self.inner.platform()
    }

    fn objective(&self) -> ceal_sim::Objective {
        self.inner.objective()
    }

    fn try_measure(&self, config: &[i64]) -> Result<Measurement, MeasureError> {
        self.run("coupled", None, |o| o.try_measure(config))
    }

    fn try_measure_component(
        &self,
        component: usize,
        values: &[i64],
    ) -> Result<SoloMeasurement, MeasureError> {
        self.run("solo", None, |o| o.try_measure_component(component, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_counts_requests_and_errors() {
        let m = ServerMetrics::new();
        m.record(Endpoint::Ping, Duration::from_micros(50), false);
        m.record(Endpoint::Ping, Duration::from_millis(5), true);
        m.record(Endpoint::Ping, Duration::from_secs(2), false);
        let endpoints = m.endpoint_stats();
        assert_eq!(endpoints.len(), 1);
        let ep = &endpoints[0];
        assert_eq!(ep.name, "ping");
        assert_eq!(ep.count, 3);
        assert_eq!(ep.errors, 1);
        assert!(ep.total_us >= 2_005_000);
    }

    #[test]
    fn report_carries_hdr_percentiles() {
        let m = ServerMetrics::new();
        // 50 fast requests and one slow outlier: p50 must sit near the
        // fast mode, p99/p999 near the outlier.
        for _ in 0..50 {
            m.record(Endpoint::Ping, Duration::from_micros(200), false);
        }
        m.record(Endpoint::Ping, Duration::from_millis(80), false);
        let ep = &m.endpoint_stats()[0];
        assert!(
            (190..=210).contains(&ep.p50_us),
            "p50 should track the fast mode: {}",
            ep.p50_us
        );
        assert!(
            (75_000..=85_000).contains(&ep.p99_us),
            "p99 should track the outlier: {}",
            ep.p99_us
        );
        assert!(ep.p999_us >= ep.p99_us);
    }

    #[test]
    fn peek_tolerates_padding_and_fails_safe_on_everything_else() {
        // Any serializer's spelling of a control request is recognised…
        for padded in [
            &b" \"Ping\""[..],
            b"\r\n\t \"Ping\" ",
            b"{ \"TaskResult\": {\"worker\":1,\"results\":[]}}",
            b"  {\n  \"TaskResult\" : {\"worker\": 1, \"results\": []}\n}",
        ] {
            let endpoint = Endpoint::peek(padded).expect("padded control request");
            assert!(!endpoint.sheddable(), "{padded:?} must stay exempt");
        }
        assert_eq!(Endpoint::peek(b"\"Shutdown\""), Some(Endpoint::Metrics));
        // …and nothing else is: `None` means sheddable.
        let long_tag = format!("\"Ping{}\"", "g".repeat(4096));
        let deep_pad = format!("{}\"Ping\"", " ".repeat(PEEK_MAX_PAD + 1));
        for hostile in [
            &b""[..],
            b" ",
            b"{",
            b"\"Pin",
            b"{\"TaskResult",
            b"\x00\xFF\x13\x37",
            b"Ping",
            b"[\"Ping\"]",
            b"\"LaunchMissiles\"",
            b"{\"ping\":{}}",
            b"\"Health\"",
            b"{\"Heartbeat\":{\"worker\":1}}",
            long_tag.as_bytes(),
            deep_pad.as_bytes(),
        ] {
            assert_eq!(Endpoint::peek(hostile), None, "{hostile:?}");
        }
    }

    #[test]
    fn untouched_endpoints_are_omitted() {
        let m = ServerMetrics::new();
        m.record(Endpoint::Tune, Duration::from_micros(10), false);
        let endpoints = m.endpoint_stats();
        assert_eq!(endpoints.len(), 1);
        assert_eq!(endpoints[0].name, "tune");
    }

    #[test]
    fn report_overlays_cache_and_fleet_inputs() {
        // Regression: the report used to hard-zero the cache_lru_* fields
        // and the fleet section, relying on every caller to remember the
        // overlay. Now one builder reads each where it lives, so the live
        // values below must all show.
        use crate::cache::{platform_fingerprint, CacheEntry, CacheKey};
        use crate::server::{ServeConfig, Server};
        let config = ServeConfig {
            max_connections: 1,
            dispatch_high_watermark: 2,
            ..ServeConfig::default()
        };
        let inner = Server::bind(config).unwrap().inner;
        let key = CacheKey {
            workflow: "LV".into(),
            platform: platform_fingerprint(&ceal_sim::Platform::default()),
            objective: "comp".into(),
            pool: 500,
            seed: 1,
            budget: 25,
            algo: "tune:ceal".into(),
        };
        assert!(inner.cache.get(&key).is_none());
        let entry = CacheEntry {
            key: key.clone(),
            best: vec![1; 6],
            best_value: 1.0,
            runs_used: 25,
            component_runs: 0,
            samples: Vec::new(),
            platform_features: Vec::new(),
        };
        inner.cache.put(entry).unwrap();
        assert!(inner.cache.get(&key).is_some());
        inner.fleet.register("w1");
        assert!(inner.load.try_admit_conn());
        assert!(!inner.load.try_admit_conn(), "over the cap");
        inner.load.begin_dispatch();
        inner.load.begin_dispatch();
        assert_eq!(inner.load.shed_decision(), (true, Some(true)));
        inner.load.requests_shed.fetch_add(3, Ordering::Relaxed);

        let report = inner.metrics_report();
        assert_eq!((report.cache_lru_hits, report.cache_lru_misses), (1, 1));
        assert_eq!(report.cache_lru_len, 1);
        assert_eq!(report.fleet.live_workers, 1);
        assert_eq!(report.fleet.workers[0].name, "w1");
        assert_eq!((report.live_connections, report.max_connections), (1, 1));
        assert_eq!(report.connections_rejected, 1);
        assert_eq!(report.dispatch_in_flight, 2);
        let watermarks = (
            report.dispatch_high_watermark,
            report.dispatch_low_watermark,
        );
        assert_eq!(watermarks, (2, 1));
        assert!(report.shedding);
        assert_eq!(report.requests_shed, 3);
        assert_eq!(report.active_sessions, 0);
    }
}
