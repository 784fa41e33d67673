//! The JSON codec on the service's own documents: every wire frame, the
//! journal record, the cache entry and the bundle decode back to what was
//! encoded, hostile prefixes are errors, and the bytes are the parent
//! commit's bytes. The codec's own unit tests (`vendor/serde_json`) pin its
//! semantics on toy types; this file pins them where a regression would
//! cost something — a reply, a journal, a cache directory.

use ceal_core::journal::JOURNAL_MAGIC;
use ceal_core::{frame, CampaignId, Journal, JournalError, JournalRecord};
use ceal_fleet::{FleetReport, TaskOutcome, TaskReport, TaskSpec, WorkerStats};
use ceal_serve::protocol::{EndpointStats, MetricsReport, Request, Response, SessionStatus};
use ceal_serve::{
    bundle_from_json, bundle_to_json, CacheEntry, CacheKey, TuneParams, PROTOCOL_VERSION,
};
use ceal_testutil::unique_temp_path;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes each thread asks it for.
struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down still frees and allocates.
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method hands its arguments unchanged to `System`, so the
// caller's guarantees are the ones `System` needs, and what it returns is
// returned as is. Counting touches only a thread-local `Cell` and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `f` returns, and the bytes it allocated on this thread.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// Draws field values that stress the codec: integer extremes, floats at
/// the edges of their text form, strings that need escaping.
struct Gen(SmallRng);

impl Gen {
    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.0.gen_range(0..from.len())]
    }

    fn u64(&mut self) -> u64 {
        match self.0.gen_range(0..4) {
            0 => self.pick(&[0, 1, u64::MAX, u64::MAX - 1, 1 << 53, (1 << 53) + 1]),
            1 => self.0.gen_range(0..1000),
            _ => self.0.gen(),
        }
    }

    fn i64(&mut self) -> i64 {
        match self.0.gen_range(0..4) {
            0 => self.pick(&[0, -1, i64::MIN, i64::MAX, i64::MIN + 1]),
            1 => self.0.gen_range(-1000..1000),
            _ => self.0.gen(),
        }
    }

    /// Finite only: a non-finite float is written as `null` and does not
    /// come back as itself.
    fn f64(&mut self) -> f64 {
        match self.0.gen_range(0..4) {
            0 => self.pick(&[
                0.0,
                -0.0,
                0.1,
                1e-7,
                1.5e300,
                f64::MAX,
                f64::MIN_POSITIVE,
                5e-324,
                1e16,
                -1e21,
            ]),
            1 => self.0.gen_range(-1000.0..1000.0),
            _ => loop {
                let x = f64::from_bits(self.0.gen());
                if x.is_finite() {
                    break x;
                }
            },
        }
    }

    fn string(&mut self) -> String {
        let pieces = [
            "LV",
            "session-h4:ceal",
            "",
            " ",
            "\"",
            "\\",
            "\\u0041",
            "/",
            "\n\r\t",
            "\u{08}\u{0c}",
            "\u{01}\u{1f}",
            "\u{7f}",
            "é",
            "漢字",
            "😀",
            "{\"a\":[1]}",
        ];
        (0..self.0.gen_range(0..4))
            .map(|_| self.pick(&pieces))
            .collect()
    }

    fn vec<T>(&mut self, max: usize, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        (0..self.0.gen_range(0..=max)).map(|_| item(self)).collect()
    }

    fn option<T>(&mut self, item: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.0.gen_bool(0.5).then(|| item(self))
    }

    fn config(&mut self) -> Vec<i64> {
        self.vec(7, Self::i64)
    }

    fn tune_params(&mut self) -> TuneParams {
        TuneParams {
            workflow: self.string(),
            objective: self.string(),
            budget: self.u64(),
            pool: self.u64(),
            seed: self.u64(),
            algo: self.string(),
        }
    }

    fn outcome(&mut self) -> TaskOutcome {
        match self.0.gen_bool(0.5) {
            true => TaskOutcome::Measured {
                value: self.f64(),
                exec_time: self.f64(),
                computer_time: self.f64(),
            },
            false => TaskOutcome::Failed {
                error: self.string(),
            },
        }
    }

    fn session_status(&mut self) -> SessionStatus {
        SessionStatus {
            session: self.u64(),
            state: self.string(),
            budget_left: self.u64(),
            measured: self.u64(),
            history_samples: self.u64(),
            best: self.option(Self::config),
            best_value: self.option(Self::f64),
            warm_source: self.string(),
            trace: self.string(),
        }
    }

    fn metrics(&mut self) -> MetricsReport {
        MetricsReport {
            endpoints: self.vec(3, |g| EndpointStats {
                name: g.string(),
                count: g.u64(),
                errors: g.u64(),
                total_us: g.u64(),
                p50_us: g.u64(),
                p99_us: g.u64(),
                p999_us: g.u64(),
            }),
            oracle_measurements: self.u64(),
            cache_hits: self.u64(),
            cache_misses: self.u64(),
            sessions_created: self.u64(),
            sessions_evicted: self.u64(),
            sessions_rebuilt: self.u64(),
            cache_persist_failures: self.u64(),
            cache_transfer_seeded: self.u64(),
            cache_lru_hits: self.u64(),
            cache_lru_misses: self.u64(),
            cache_lru_evictions: self.u64(),
            cache_lru_len: self.u64(),
            active_sessions: self.u64(),
            fleet: FleetReport {
                live_workers: self.u64(),
                workers_registered: self.u64(),
                workers_lost: self.u64(),
                tasks_dispatched: self.u64(),
                tasks_completed: self.u64(),
                tasks_failed: self.u64(),
                tasks_rescattered: self.u64(),
                duplicate_results: self.u64(),
                workers: self.vec(2, |g| WorkerStats {
                    worker: g.u64(),
                    name: g.string(),
                    live: g.0.gen(),
                    dispatched: g.u64(),
                    completed: g.u64(),
                    failed: g.u64(),
                    rescattered: g.u64(),
                    heartbeat_lag_ms: g.u64(),
                }),
            },
            requests_shed: self.u64(),
            connections_rejected: self.u64(),
            uptime_ms: self.u64(),
            live_connections: self.u64(),
            max_connections: self.u64(),
            dispatch_in_flight: self.u64(),
            dispatch_high_watermark: self.u64(),
            dispatch_low_watermark: self.u64(),
            shedding: self.0.gen(),
        }
    }

    /// The `variant`-th request, in declaration order.
    fn request(&mut self, variant: usize) -> Request {
        match variant {
            0 => Request::Ping,
            1 => Request::Tune(self.tune_params()),
            2 => Request::CreateSession {
                params: self.tune_params(),
                failure_rate: self.f64(),
                fault_seed: self.u64(),
            },
            3 => Request::Advance {
                session: self.u64(),
                runs: self.u64(),
            },
            4 => Request::Status {
                session: self.u64(),
            },
            5 => Request::Predict {
                session: self.u64(),
                configs: self.vec(5, Self::config),
            },
            6 => Request::PushHistory {
                session: self.u64(),
                samples: self.vec(3, |g| g.vec(4, |g| (g.config(), g.f64()))),
            },
            7 => Request::CloseSession {
                session: self.u64(),
            },
            8 => Request::Metrics,
            9 => Request::Shutdown,
            10 => Request::RegisterWorker {
                name: self.string(),
            },
            _ => Request::TaskResult {
                worker: self.u64(),
                results: self.vec(3, |g| TaskReport {
                    task: g.u64(),
                    outcome: g.outcome(),
                }),
            },
        }
    }

    /// The `variant`-th response, in declaration order.
    fn response(&mut self, variant: usize) -> Response {
        match variant {
            0 => Response::Pong {
                version: PROTOCOL_VERSION,
            },
            1 => Response::TuneResult {
                best: self.config(),
                best_value: self.f64(),
                runs_used: self.u64(),
                component_runs: self.u64(),
                from_cache: self.0.gen(),
            },
            2 => Response::SessionCreated {
                status: self.session_status(),
                from_cache: self.0.gen(),
            },
            3 => Response::Session(self.session_status()),
            4 => Response::Predictions {
                values: self.vec(8, Self::f64),
            },
            5 => Response::Metrics(self.metrics()),
            6 => Response::Busy {
                retry_after_ms: self.u64(),
            },
            7 => Response::WorkerRegistered {
                worker: self.u64(),
                lease_ms: self.u64(),
            },
            8 => Response::TaskAssign {
                tasks: self.vec(3, |g| TaskSpec {
                    task: g.u64(),
                    session: g.u64(),
                    config_index: g.u64(),
                    config: g.config(),
                    workflow: g.string(),
                    objective: g.string(),
                    oracle_seed: g.u64(),
                    trace: g.u64(),
                    span: g.u64(),
                }),
            },
            9 => Response::Ok,
            _ => Response::Error {
                code: self.string(),
                message: self.string(),
            },
        }
    }

    fn journal_record(&mut self, variant: usize) -> JournalRecord {
        match variant {
            0 => JournalRecord::Start(CampaignId {
                workflow: self.string(),
                objective: self.string(),
                algo: self.string(),
                budget: self.u64(),
                pool: self.u64(),
                seed: self.u64(),
                failure_rate: self.f64(),
                fault_seed: self.u64(),
            }),
            1 => JournalRecord::Solo {
                component: self.0.gen_range(0..4),
                values: self.config(),
                value: self.f64(),
                exec_time: self.f64(),
                computer_time: self.f64(),
            },
            2 => JournalRecord::Coupled {
                config: self.config(),
                value: self.f64(),
                exec_time: self.f64(),
                computer_time: self.f64(),
                attempt: self.u64(),
            },
            _ => JournalRecord::Marker(self.string()),
        }
    }

    fn cache_entry(&mut self) -> CacheEntry {
        CacheEntry {
            key: CacheKey {
                workflow: self.string(),
                platform: self.string(),
                objective: self.string(),
                pool: self.u64(),
                seed: self.u64(),
                budget: self.u64(),
                algo: self.string(),
            },
            best: self.config(),
            best_value: self.f64(),
            runs_used: self.u64(),
            component_runs: self.u64(),
            samples: self.vec(5, |g| (g.config(), g.f64())),
            platform_features: self.vec(4, Self::f64),
        }
    }
}

/// How many variants [`Request`] and [`Response`] have.
const REQUEST_VARIANTS: usize = 12;
const RESPONSE_VARIANTS: usize = 11;

/// Position of a request in the enum, by an exhaustive match: a variant
/// added to the protocol fails this file's build until it has a generator.
fn request_variant(req: &Request) -> usize {
    match req {
        Request::Ping => 0,
        Request::Tune(_) => 1,
        Request::CreateSession { .. } => 2,
        Request::Advance { .. } => 3,
        Request::Status { .. } => 4,
        Request::Predict { .. } => 5,
        Request::PushHistory { .. } => 6,
        Request::CloseSession { .. } => 7,
        Request::Metrics => 8,
        Request::Shutdown => 9,
        Request::RegisterWorker { .. } => 10,
        Request::TaskResult { .. } => 11,
    }
}

fn response_variant(resp: &Response) -> usize {
    match resp {
        Response::Pong { .. } => 0,
        Response::TuneResult { .. } => 1,
        Response::SessionCreated { .. } => 2,
        Response::Session(_) => 3,
        Response::Predictions { .. } => 4,
        Response::Metrics(_) => 5,
        Response::Busy { .. } => 6,
        Response::WorkerRegistered { .. } => 7,
        Response::TaskAssign { .. } => 8,
        Response::Ok => 9,
        Response::Error { .. } => 10,
    }
}

fn journal_variant(record: &JournalRecord) -> usize {
    match record {
        JournalRecord::Start(_) => 0,
        JournalRecord::Solo { .. } => 1,
        JournalRecord::Coupled { .. } => 2,
        JournalRecord::Marker(_) => 3,
    }
}

/// `decode(encode(x)) == x`, compact and pretty, from `str` and from bytes.
fn round_trip<T>(value: &T) -> Result<(), TestCaseError>
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    let json = serde_json::to_string(value).expect("encode");
    let back: T =
        serde_json::from_str(&json).map_err(|e| TestCaseError::fail(format!("{e}: {json}")))?;
    prop_assert_eq!(&back, value, "through {}", json);
    let back: T = serde_json::from_slice(json.as_bytes()).expect("same text as bytes");
    prop_assert_eq!(&back, value);
    let pretty = serde_json::to_string_pretty(value).expect("encode");
    let back: T =
        serde_json::from_str(&pretty).map_err(|e| TestCaseError::fail(format!("{e}: {pretty}")))?;
    prop_assert_eq!(&back, value, "through {}", pretty);
    // Encoding what was decoded gives the bytes back: nothing is
    // normalised on the way through.
    prop_assert_eq!(serde_json::to_string(&back).expect("encode"), json);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_request_round_trips(seed in 0u64..=u64::MAX) {
        let mut g = Gen(SmallRng::seed_from_u64(seed));
        for variant in 0..REQUEST_VARIANTS {
            let req = g.request(variant);
            prop_assert_eq!(request_variant(&req), variant);
            round_trip(&req)?;
        }
    }

    #[test]
    fn every_response_round_trips(seed in 0u64..=u64::MAX) {
        let mut g = Gen(SmallRng::seed_from_u64(seed));
        for variant in 0..RESPONSE_VARIANTS {
            let resp = g.response(variant);
            prop_assert_eq!(response_variant(&resp), variant);
            round_trip(&resp)?;
        }
        round_trip(&g.session_status())?;
        round_trip(&g.metrics())?;
    }

    #[test]
    fn journal_records_and_cache_entries_round_trip(seed in 0u64..=u64::MAX) {
        let mut g = Gen(SmallRng::seed_from_u64(seed));
        for variant in 0..4 {
            let record = g.journal_record(variant);
            prop_assert_eq!(journal_variant(&record), variant);
            round_trip(&record)?;
        }
        let entries = g.vec(3, Gen::cache_entry);
        for entry in &entries {
            round_trip(entry)?;
        }
        let bundle = bundle_to_json(&entries).expect("bundle");
        prop_assert_eq!(bundle_from_json(&bundle), Some(entries));
    }

    /// A frame cut anywhere — a torn journal tail, a peer that lied about
    /// its length — is an error from every decoder it could reach, never a
    /// panic and never a value.
    #[test]
    fn every_proper_prefix_is_an_error(seed in 0u64..=u64::MAX) {
        let mut g = Gen(SmallRng::seed_from_u64(seed));
        let docs = [
            serde_json::to_vec(&g.request(seed as usize % REQUEST_VARIANTS)).unwrap(),
            serde_json::to_vec(&g.response(seed as usize % RESPONSE_VARIANTS)).unwrap(),
            serde_json::to_vec(&g.journal_record(seed as usize % 4)).unwrap(),
            serde_json::to_vec(&g.cache_entry()).unwrap(),
        ];
        for doc in &docs {
            for end in 0..doc.len() {
                let prefix = &doc[..end];
                prop_assert!(serde_json::from_slice::<Request>(prefix).is_err());
                prop_assert!(serde_json::from_slice::<Response>(prefix).is_err());
                prop_assert!(serde_json::from_slice::<JournalRecord>(prefix).is_err());
                prop_assert!(serde_json::from_slice::<CacheEntry>(prefix).is_err());
                prop_assert!(serde_json::from_slice::<serde_json::Value>(prefix).is_err());
            }
        }
    }
}

/// The same for the checked-in fixtures, as text and as the bundle.
#[test]
fn fixture_prefixes_are_errors_and_fixtures_reencode_to_their_bytes() {
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut files = vec![fixtures.join("bundle.json")];
    for file in std::fs::read_dir(fixtures.join("cache-json-shards")).unwrap() {
        files.push(file.unwrap().path());
    }
    assert_eq!(files.len(), 4);
    let mut validated = 0;
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        assert!(serde_json::from_str::<serde_json::Value>(&text).is_ok());
        for end in (0..text.trim_end().len()).filter(|&i| text.is_char_boundary(i)) {
            assert!(serde_json::from_str::<serde_json::Value>(&text[..end]).is_err());
            assert!(
                bundle_from_json(&text[..end]).is_none(),
                "{file:?} cut at {end}"
            );
        }
        // One shard fixture fails its checksum on purpose; the others come
        // back as the bytes they are.
        if let Some(entries) = bundle_from_json(&text) {
            assert_eq!(bundle_to_json(&entries).unwrap(), text, "{file:?}");
            validated += 1;
        }
    }
    assert_eq!(validated, 3);
}

/// Semantics a format change would be noticed by, on the real types.
#[test]
fn decode_semantics_on_service_documents() {
    // `CacheEntry.platform_features` is `#[serde(default)]`: entries
    // cached before transfer existed have no such key.
    let old = r#"{"key":{"workflow":"LV","platform":"p","objective":"exec","pool":1,"seed":2,"budget":3,"algo":"a"},"best":[1],"best_value":2.5,"runs_used":1,"component_runs":0,"samples":[]}"#;
    let entry: CacheEntry = serde_json::from_str(old).unwrap();
    assert!(entry.platform_features.is_empty());
    // Any other field is required.
    assert!(serde_json::from_str::<CacheEntry>(&old.replace(r#""runs_used":1,"#, "")).is_err());
    // A field from a future version is ignored, wherever it sits.
    let newer = old.replacen('{', r#"{"added_in_v9":{"x":[1,2,{"y":null}]},"#, 1);
    assert_eq!(serde_json::from_str::<CacheEntry>(&newer).unwrap(), entry);
    // First of a repeated key wins.
    let twice = old.replace(r#""best":[1],"#, r#""best":[1],"best":[2],"#);
    assert_eq!(serde_json::from_str::<CacheEntry>(&twice).unwrap(), entry);

    // A non-finite float is written `null`; a float field reads `null`
    // back as NaN, an optional one as `None`.
    let outcome = TaskOutcome::Measured {
        value: f64::NAN,
        exec_time: f64::INFINITY,
        computer_time: 1.0,
    };
    let json = serde_json::to_string(&outcome).unwrap();
    assert_eq!(
        json,
        r#"{"Measured":{"value":null,"exec_time":null,"computer_time":1.0}}"#
    );
    match serde_json::from_str(&json).unwrap() {
        TaskOutcome::Measured {
            value,
            exec_time,
            computer_time,
        } => assert!(value.is_nan() && exec_time.is_nan() && computer_time == 1.0),
        other => panic!("{other:?}"),
    }

    // Enum shapes: a unit variant is a string, a payload variant a
    // single-key object.
    assert_eq!(
        serde_json::from_str::<Request>(" \"Ping\" ").unwrap(),
        Request::Ping
    );
    for bad in [
        r#"{"Ping":null}"#,
        r#""Status""#,
        r#"{"Status":{"session":1},"Ping":null}"#,
        r#"{"Status":{"session":1}} {}"#,
        r#"{"Status":{"session":1.0}}"#,
        r#"{"Status":{"session":-1}}"#,
        r#"{"Status":{"session":18446744073709551616}}"#,
        r#"{}"#,
    ] {
        assert!(serde_json::from_str::<Request>(bad).is_err(), "{bad}");
    }
    assert_eq!(
        serde_json::from_str::<Request>(r#"{"Status":{"session":18446744073709551615}}"#).unwrap(),
        Request::Status { session: u64::MAX }
    );
}

/// Whole documents as the parent commit wrote them (pasted from its
/// output): wire frames, journals and shard logs stay byte-identical, so
/// no file on disk needs migrating.
#[test]
fn encoded_documents_match_the_parent_commit() {
    let status = Response::Session(SessionStatus {
        session: 123_456,
        state: "refining".into(),
        budget_left: 5,
        measured: 20,
        history_samples: 12,
        best: Some(vec![388, 28, 2, 213, 28, 4]),
        best_value: Some(8.669386756064057),
        warm_source: "cold".into(),
        trace: "9f2c51aa03b7e4d1".into(),
    });
    assert_eq!(
        serde_json::to_string(&status).unwrap(),
        r#"{"Session":{"session":123456,"state":"refining","budget_left":5,"measured":20,"history_samples":12,"best":[388,28,2,213,28,4],"best_value":8.669386756064057,"warm_source":"cold","trace":"9f2c51aa03b7e4d1"}}"#
    );

    let coupled = JournalRecord::Coupled {
        config: vec![57, 21, 3, 703, 35, 4],
        value: 41.25,
        exec_time: 0.1,
        computer_time: 1e-7,
        attempt: u64::MAX,
    };
    assert_eq!(
        serde_json::to_string(&coupled).unwrap(),
        r#"{"Coupled":{"config":[57,21,3,703,35,4],"value":41.25,"exec_time":0.1,"computer_time":1e-7,"attempt":18446744073709551615}}"#
    );

    let entry = CacheEntry {
        key: CacheKey {
            workflow: "LV".into(),
            platform: "f29733581efc8245".into(),
            objective: "comp".into(),
            pool: 60,
            seed: 1,
            budget: 6,
            algo: "tune:ceal".into(),
        },
        best: vec![388, 28, 2, 213, 28, 4],
        best_value: 8.669386756064057,
        runs_used: 4,
        component_runs: 4,
        samples: vec![
            (vec![57, 21, 3, 703, 35, 4], 1.5e300),
            (vec![-1, i64::MIN], -0.0),
        ],
        platform_features: vec![0.5, 123456.789],
    };
    assert_eq!(
        serde_json::to_string(&entry).unwrap(),
        r#"{"key":{"workflow":"LV","platform":"f29733581efc8245","objective":"comp","pool":60,"seed":1,"budget":6,"algo":"tune:ceal"},"best":[388,28,2,213,28,4],"best_value":8.669386756064057,"runs_used":4,"component_runs":4,"samples":[[[57,21,3,703,35,4],1.5e300],[[-1,-9223372036854775808],-0.0]],"platform_features":[0.5,123456.789]}"#
    );
}

/// `doc` with one byte flipped, inserted or deleted at `at`. Half the
/// inserted bytes are ones JSON gives meaning to.
fn mutate(doc: &[u8], at: usize, rng: &mut SmallRng) -> Vec<u8> {
    const JSON: &[u8] = b"[]{}\",:\\-0.e9tn \xff";
    let mut out = doc.to_vec();
    let byte = match rng.gen_bool(0.5) {
        true => JSON[rng.gen_range(0..JSON.len())],
        false => rng.gen::<u32>() as u8,
    };
    match rng.gen_range(0..3) {
        0 if at < out.len() => out[at] ^= rng.gen_range(1..256u32) as u8,
        1 if at < out.len() => drop(out.remove(at)),
        _ => out.insert(at, byte),
    }
    out
}

/// What decoding one mutated document may allocate, `A · len + B` bytes:
/// twice the worst seen across this test's seeds, which is 29 bytes per
/// input byte over a 1 KiB fixed cost. The fixed cost is an error's text
/// (1.4 KiB for a 21-byte document); the slope is the decoded tree, where
/// a small object costs a whole map node.
const DOC_ALLOC: (u64, u64) = (60, 2048);
/// The same for `Journal::open`, against the file's length: it reads the
/// file once and decodes its records, at most 2.97 bytes per file byte.
const JOURNAL_ALLOC: (u64, u64) = (6, 1024);

/// Every decoder on bytes a peer or a disk could hand it — the documents
/// above and a journal of several commits, each with one byte flipped,
/// inserted or deleted — answers `Ok` or `Err` and never panics: a
/// mutated journal opens to a prefix of its records, or is refused when
/// the magic was hit, and the frame scan never reaches past its input.
/// Nothing allocates by what the input claims, only by what it holds.
#[test]
fn mutated_documents_and_journals_are_answered_never_panicked_on() {
    type Decode = fn(&[u8]) -> bool;
    let decoders: [(&str, Decode); 5] = [
        ("Request", |b| serde_json::from_slice::<Request>(b).is_ok()),
        ("Response", |b| {
            serde_json::from_slice::<Response>(b).is_ok()
        }),
        ("JournalRecord", |b| {
            serde_json::from_slice::<JournalRecord>(b).is_ok()
        }),
        ("CacheEntry", |b| {
            serde_json::from_slice::<CacheEntry>(b).is_ok()
        }),
        ("Value", |b| {
            serde_json::from_slice::<serde_json::Value>(b).is_ok()
        }),
    ];
    let mut rng = SmallRng::seed_from_u64(0xB17E);
    for seed in 0..1000u64 {
        let mut g = Gen(SmallRng::seed_from_u64(seed));
        let docs = [
            (
                "request",
                serde_json::to_vec(&g.request(seed as usize % REQUEST_VARIANTS)),
            ),
            (
                "response",
                serde_json::to_vec(&g.response(seed as usize % RESPONSE_VARIANTS)),
            ),
            (
                "journal record",
                serde_json::to_vec(&g.journal_record(seed as usize % 4)),
            ),
            ("cache entry", serde_json::to_vec(&g.cache_entry())),
        ];
        for (kind, doc) in docs {
            let doc = doc.unwrap();
            for _ in 0..4 {
                let bytes = mutate(&doc, rng.gen_range(0..=doc.len()), &mut rng);
                let bound = DOC_ALLOC.0 * bytes.len() as u64 + DOC_ALLOC.1;
                for (ty, decode) in decoders {
                    let (_, took) = allocated_by(|| decode(&bytes));
                    assert!(
                        took <= bound,
                        "a mutated {kind} of seed {seed}, {} bytes, decoded as {ty} \
                         allocated {took} bytes (bound {bound})",
                        bytes.len()
                    );
                }
            }
        }
    }

    // A journal of 12 generated records in commits of 1, 2, 3 and 6.
    let path = unique_temp_path("ceal-mutated-journal", "wal");
    let mut g = Gen(SmallRng::seed_from_u64(7));
    let records: Vec<JournalRecord> = (0..12).map(|i| g.journal_record(i % 4)).collect();
    {
        let (mut journal, _) = Journal::open(&path).unwrap();
        journal.set_sync_on_commit(false);
        for commit in [0..1, 1..3, 3..6, 6..12] {
            for record in &records[commit] {
                journal.stage(record).unwrap();
            }
            journal.commit().unwrap();
        }
    }
    let journal = std::fs::read(&path).unwrap();
    let mut refused = 0;
    for i in 0..500 {
        // The first few hit the magic, a byte at a time.
        let at = match i < 24 {
            true => i % JOURNAL_MAGIC.len(),
            false => rng.gen_range(0..=journal.len()),
        };
        let bytes = mutate(&journal, at, &mut rng);
        let from = rng.gen_range(0..=bytes.len() + 1);
        for start in [JOURNAL_MAGIC.len(), from] {
            let end = frame::scan(&bytes, start, |at, payload| {
                assert!(at + frame::HEADER_LEN + payload.len() <= bytes.len());
                true
            });
            assert!(end <= bytes.len().max(start));
        }
        std::fs::write(&path, &bytes).unwrap();
        let (opened, took) = allocated_by(|| Journal::open(&path));
        let bound = JOURNAL_ALLOC.0 * bytes.len() as u64 + JOURNAL_ALLOC.1;
        assert!(
            took <= bound,
            "journal mutation {i} of seed 7, {} bytes, allocated {took} bytes to open \
             (bound {bound})",
            bytes.len()
        );
        match opened {
            Ok((_, report)) => {
                assert_eq!(&bytes[..JOURNAL_MAGIC.len()], JOURNAL_MAGIC);
                assert_eq!(report.records, records[..report.records.len()]);
            }
            Err(JournalError::Corrupt(_)) => {
                assert_ne!(&bytes[..JOURNAL_MAGIC.len()], JOURNAL_MAGIC);
                refused += 1;
            }
            Err(e) => panic!("a mutated journal failed to open: {e}"),
        }
    }
    assert!((1..500).contains(&refused), "{refused} of 500 refused");
    std::fs::remove_file(&path).ok();
}
