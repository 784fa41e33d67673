//! Hostile-input robustness of the framed protocol: truncated frames,
//! oversized length prefixes, and outright garbage must never panic or
//! hang a worker. The server answers with one `bad-request` error frame
//! (when it still can) and closes; it keeps serving everyone else. Under
//! overload, garbage is shed like any other unclassifiable request.
//!
//! The corpus is shared with the reactor torture test.

mod hostile;

use ceal_core::{frame, Journal, JournalRecord};
use ceal_serve::{AutotuneCache, CacheEntry, CacheKey};
use ceal_serve::{Client, ServeConfig, Server, TuneParams};
use ceal_testutil::unique_temp_path;
use hostile::{
    corpus, deep_nesting_payloads, framed, poke, unclassifiable_payloads, HostileCase, Reaction,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn malformed_frames_never_hang_or_panic_the_server() {
    let handle = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind loopback")
    .spawn();
    let addr = handle.addr();

    let unclassifiable = unclassifiable_payloads()
        .into_iter()
        .map(|(name, payload)| HostileCase {
            name,
            bytes: framed(&payload),
            half_close: false,
            expect: Some(Reaction::ErrorFrameThenClose),
        });
    for case in corpus().into_iter().chain(unclassifiable) {
        let got = poke(addr, &case.bytes, case.half_close);
        if let Some(expect) = &case.expect {
            assert_eq!(got, *expect, "case {}", case.name);
        }
        // Whatever one hostile peer sent, the next honest client is served.
        let mut probe = Client::connect(addr).unwrap_or_else(|e| {
            panic!("server unreachable after case {}: {e}", case.name);
        });
        probe.ping().unwrap_or_else(|e| {
            panic!("server cannot answer after case {}: {e}", case.name);
        });
    }

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("workers all exit cleanly");
}

/// Requests written back to back reach the server in one segment and one
/// `read`; the ones behind the first wait in the connection's buffer, with
/// no readiness event left to announce them, and must still each get
/// their answer, in order — the last of them split across two writes.
#[test]
fn pipelined_requests_are_each_answered_in_order() {
    use ceal_serve::{read_frame, Request, Response};
    use std::io::Write;

    let handle = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind loopback")
    .spawn();
    let addr = handle.addr();

    let frame_of = |req: &Request| framed(&serde_json::to_vec(req).unwrap());
    let mut burst = Vec::new();
    for session in [7u64, 8, 9] {
        burst.extend_from_slice(&frame_of(&Request::Ping));
        burst.extend_from_slice(&frame_of(&Request::Status { session }));
    }
    let (head, tail) = burst.split_at(burst.len() - 5);
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    stream.write_all(head).unwrap();
    let mut reader = stream.try_clone().expect("clone");
    let mut answer = || -> Response {
        serde_json::from_slice(&read_frame(&mut reader).expect("an answer per request")).unwrap()
    };
    for session in [7u64, 8] {
        assert!(matches!(answer(), Response::Pong { .. }));
        match answer() {
            Response::Error { code, message } => {
                assert_eq!(code, "unknown-session", "{message}");
                assert!(message.contains(&session.to_string()), "{message}");
            }
            other => panic!("unexpected answer {other:?}"),
        }
    }
    assert!(matches!(answer(), Response::Pong { .. }));
    stream.write_all(tail).unwrap();
    assert!(matches!(answer(), Response::Error { .. }));

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("workers all exit cleanly");
}

/// Nesting is a protocol limit like the frame length: a frame of ten
/// thousand `[` is one `bad-request` and a close, not a stack overflow
/// that `catch_unwind` cannot catch. Sent to the parent of this test the
/// first frame aborted the whole test process.
#[test]
fn deeply_nested_frames_are_bad_requests_not_stack_overflows() {
    let handle = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind loopback")
    .spawn();
    let addr = handle.addr();

    for (name, payload) in deep_nesting_payloads() {
        let got = poke(addr, &framed(&payload), false);
        assert_eq!(got, Reaction::ErrorFrameThenClose, "case {name}");
        Client::connect(addr)
            .and_then(|mut probe| probe.ping())
            .unwrap_or_else(|e| panic!("server gone after case {name}: {e}"));
    }

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("workers all exit cleanly");
}

/// The same payloads as checksummed records of a journal and of a cache
/// shard log: a record the decoder refuses is a torn tail — cut, with
/// everything before it kept — whatever the reason it was refused.
#[test]
fn deeply_nested_records_are_torn_tails_not_stack_overflows() {
    let record = |payload: &[u8]| {
        let mut bytes = frame::header(payload)
            .expect("under the frame limit")
            .to_vec();
        bytes.extend_from_slice(payload);
        bytes
    };
    let entry = CacheEntry {
        key: CacheKey {
            workflow: "LV".into(),
            platform: "f29733581efc8245".into(),
            objective: "exec".into(),
            pool: 60,
            seed: 1,
            budget: 6,
            algo: "tune:ceal".into(),
        },
        best: vec![388, 28, 2, 213, 28, 4],
        best_value: 8.5,
        runs_used: 4,
        component_runs: 4,
        samples: vec![(vec![57, 21, 3, 703, 35, 4], 9.25)],
        platform_features: vec![0.5, 0.25],
    };

    for (name, payload) in deep_nesting_payloads() {
        let wal = unique_temp_path("ceal-hostile-journal", "wal");
        let (mut journal, _) = Journal::open(&wal).expect("fresh journal");
        journal
            .append(&JournalRecord::Marker("kept".into()))
            .expect("append");
        drop(journal);
        let kept = std::fs::read(&wal).unwrap();
        let mut bytes = kept.clone();
        bytes.extend_from_slice(&record(&payload));
        std::fs::write(&wal, &bytes).unwrap();
        let (_, report) = Journal::open(&wal).expect("a bad record is not a bad journal");
        assert_eq!(
            report.records,
            [JournalRecord::Marker("kept".into())],
            "case {name}"
        );
        assert_eq!(
            report.truncated_bytes,
            (bytes.len() - kept.len()) as u64,
            "case {name}"
        );
        assert_eq!(std::fs::read(&wal).unwrap(), kept, "case {name}");
        std::fs::remove_file(&wal).ok();

        let dir = unique_temp_path("ceal-hostile-shards", "d");
        AutotuneCache::at_path(&dir)
            .put(entry.clone())
            .expect("put");
        let log = std::fs::read_dir(&dir)
            .unwrap()
            .map(|f| f.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "log"))
            .expect("one shard log");
        let kept = std::fs::read(&log).unwrap();
        let mut bytes = kept.clone();
        bytes.extend_from_slice(&record(&payload));
        std::fs::write(&log, &bytes).unwrap();
        let cache = AutotuneCache::at_path(&dir);
        assert_eq!(cache.get(&entry.key), Some(entry.clone()), "case {name}");
        assert_eq!(cache.len(), 1, "case {name}");
        assert_eq!(std::fs::read(&log).unwrap(), kept, "case {name}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// While the server sheds, a frame the pre-decode classifier cannot place
/// gets exactly one typed `Busy` — it is neither decoded nor mistaken for
/// exempt control traffic — and control traffic still gets through.
#[test]
fn unclassifiable_frames_are_shed_with_one_typed_busy() {
    // One worker and a high watermark of 1: whenever a tune is executing,
    // everything sheddable is shed.
    let handle = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        dispatch_high_watermark: 1,
        ..ServeConfig::default()
    })
    .expect("bind loopback")
    .spawn();
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("hammer connect");
            let mut seed = 0;
            while !stop.load(Ordering::Acquire) {
                seed += 1;
                // `Busy` is fine here: a hostile frame that slipped into
                // a gap between two tunes was being decoded.
                let _ = client.tune(TuneParams {
                    workflow: "LV".into(),
                    objective: "exec".into(),
                    budget: 10,
                    pool: 120,
                    seed,
                    algo: "ceal".into(),
                });
            }
        })
    };

    let mut control = Client::connect(addr).expect("control connect");
    for (name, payload) in unclassifiable_payloads() {
        // A frame landing in the gap between two tunes is decoded instead
        // (`bad-request`, which `poke` accepts); only a success frame or a
        // panic would be wrong. Try again until it meets a busy server.
        let shed = (0..500).any(|_| poke(addr, &framed(&payload), true) == Reaction::ShedWithBusy);
        assert!(shed, "case {name} was never shed");
        control
            .ping()
            .expect("exempt traffic is served while shedding");
    }
    assert!(control.metrics().expect("metrics").requests_shed >= 5);

    stop.store(true, Ordering::Release);
    hammer.join().expect("hammer thread");
    control.shutdown().expect("shutdown");
    handle.join().expect("workers all exit cleanly");
}
