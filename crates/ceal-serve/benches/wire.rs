//! Criterion micro-benchmarks of the JSON codec on the documents the
//! service actually moves: decode and encode of the wire frames
//! `request_mix` is made of, one journal record and one cache entry.
//! The per-layer number that lives with the code; the ledger's
//! `wire.*` probes (`benchmark/`) measure the same path through
//! `read_message` / `write_message`.

use ceal_core::JournalRecord;
use ceal_serve::protocol::{Request, Response, SessionStatus};
use ceal_serve::{CacheEntry, CacheKey};
use criterion::{criterion_group, criterion_main, Criterion};
use serde::{Deserialize, Serialize};
use std::hint::black_box;

/// A plausible LV configuration, varied by `i`.
fn config(i: usize) -> Vec<i64> {
    let i = i as i64;
    vec![
        57 + 11 * i,
        21 + i % 9,
        1 + i % 4,
        703 - 13 * i,
        35 - i % 7,
        4,
    ]
}

fn value(i: usize) -> f64 {
    8.669386756064057 + i as f64 / 7.0
}

fn bench_document<T: Serialize + Deserialize + PartialEq>(c: &mut Criterion, name: &str, doc: &T) {
    let json = serde_json::to_vec(doc).expect("encode");
    assert!(serde_json::from_slice::<T>(&json).is_ok_and(|back| &back == doc));
    let mut group = c.benchmark_group("wire");
    group.bench_function(&format!("decode_{name}_{}b", json.len()), |b| {
        b.iter(|| serde_json::from_slice::<T>(black_box(&json)).expect("decode"))
    });
    group.bench_function(&format!("encode_{name}_{}b", json.len()), |b| {
        b.iter(|| serde_json::to_vec(black_box(doc)).expect("encode"))
    });
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    bench_document(
        c,
        "predict32",
        &Request::Predict {
            session: 123_456,
            configs: (0..32).map(config).collect(),
        },
    );
    bench_document(
        c,
        "predictions32",
        &Response::Predictions {
            values: (0..32).map(value).collect(),
        },
    );
    bench_document(
        c,
        "session",
        &Response::Session(SessionStatus {
            session: 123_456,
            state: "done".into(),
            budget_left: 0,
            measured: 30,
            history_samples: 24,
            best: Some(config(3)),
            best_value: Some(value(3)),
            warm_source: "cold".into(),
            trace: "9f2c51aa03b7e4d1".into(),
        }),
    );
    bench_document(
        c,
        "journal_coupled",
        &JournalRecord::Coupled {
            config: config(5),
            value: value(5),
            exec_time: 41.25,
            computer_time: 0.5729166666666666,
            attempt: 17,
        },
    );
    bench_document(
        c,
        "cache_entry30",
        &CacheEntry {
            key: CacheKey {
                workflow: "LV".into(),
                platform: "f29733581efc8245".into(),
                objective: "comp".into(),
                pool: 500,
                seed: 7,
                budget: 30,
                algo: "session-h4:ceal".into(),
            },
            best: config(3),
            best_value: value(3),
            runs_used: 30,
            component_runs: 24,
            samples: (0..30).map(|i| (config(i), value(i))).collect(),
            platform_features: (0..8).map(|i| 0.125 * i as f64).collect(),
        },
    );
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
