//! End-to-end exercise of the tiered cache: a legacy blob imported by a
//! real server, the three `warm_source` tiers over the wire, the
//! export → import → warm-serve deployment round trip, and the
//! acceptance property of transfer seeding — a near-miss platform reaches
//! the cold campaign's best value with fewer coupled oracle runs.

mod common;

use ceal_serve::{
    bundle_to_json, platform_features, platform_fingerprint, read_frame, write_frame,
    AutotuneCache, CacheEntry, CacheKey, Client, Request, Response, ServeConfig, Server,
    ServerMetrics, SessionManager, TuneParams, DEFAULT_TRANSFER_THRESHOLD,
};
use ceal_sim::Platform;
use ceal_trace::{EventKind, FieldValue, Tracer};
use common::{drive_session_to_done, drive_to_done, params};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn temp_path(tag: &str) -> PathBuf {
    ceal_testutil::unique_temp_path(&format!("ceal-tiering-{tag}"), "d")
}

/// A platform one hardware refresh away from the default testbed: within
/// the transfer threshold but fingerprint-distinct.
fn near_miss_platform() -> Platform {
    let mut p = Platform::default();
    p.link_bandwidth *= 0.75;
    p.fabric_bandwidth *= 0.8;
    p.cores_per_node = 20;
    p
}

/// A legacy single-blob cache file is a bundle: imported at startup
/// (`--cache-import`), it is split into per-workflow shards and its
/// campaigns serve warm, and the file itself is left as it was.
#[test]
fn server_imports_legacy_blob_and_serves_it_warm() {
    let path = temp_path("migrate");
    let blob = temp_path("migrate-blob");

    // Produce two completed campaigns the old way: tune into a cache,
    // then flatten the whole thing into one legacy blob file.
    let staging = temp_path("migrate-staging");
    let params_lv = params("comp", 8, 200, 5);
    let params_hs = TuneParams {
        workflow: "HS".into(),
        ..params_lv.clone()
    };
    let handle = Server::bind(ServeConfig {
        cache_path: Some(staging.clone()),
        ..ServeConfig::default()
    })
    .expect("bind staging server")
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let lv = client.tune(params_lv.clone()).expect("tune LV");
    client.tune(params_hs.clone()).expect("tune HS");
    client.shutdown().expect("shutdown");
    handle.join().expect("drain");
    let entries = AutotuneCache::at_path(&staging).all_entries();
    assert_eq!(entries.len(), 2);
    let text = bundle_to_json(&entries).expect("blob");
    std::fs::write(&blob, &text).expect("write legacy blob");
    let _ = std::fs::remove_dir_all(&staging);

    // A fresh server importing the blob serves warm.
    let handle = Server::bind(ServeConfig {
        cache_path: Some(path.clone()),
        cache_import: Some(blob.clone()),
        ..ServeConfig::default()
    })
    .expect("bind importing the legacy blob")
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let warm = client.tune(params_lv).expect("warm LV");
    assert!(warm.from_cache, "migrated campaign must serve from cache");
    assert_eq!(warm.best, lv.best);
    let warm_hs = client.tune(params_hs).expect("warm HS");
    assert!(warm_hs.from_cache);
    assert_eq!(client.metrics().expect("metrics").oracle_measurements, 0);
    client.shutdown().expect("shutdown");
    handle.join().expect("drain");

    assert_eq!(std::fs::read_to_string(&blob).expect("blob"), text);
    assert_eq!(
        AutotuneCache::at_path(&path).shard_count(),
        2,
        "one shard per workflow after the import"
    );
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&blob);
}

/// A `Tune` the cache answers is counted, traced and answered once,
/// whichever path answers it: the reactor thread for a front hit and a
/// disk hit of an indexed shard, the pool for a disk hit whose shard lock
/// a `put` holds. A disk hit promotes nothing, so its repeat is a disk hit
/// again. The answers' bytes are the same on every path, and while the
/// lock is held the reactor serves other connections.
#[test]
fn a_cache_answer_is_recorded_once_on_either_path_and_the_reactor_never_waits() {
    let dir = temp_path("inline");
    let tracer = Tracer::in_memory();
    let server = Server::bind(ServeConfig {
        cache_path: Some(dir.clone()),
        cache_lru_capacity: 1,
        tracer: tracer.clone(),
        ..ServeConfig::default()
    })
    .expect("bind");
    let cache = server.cache();
    let handle = server.spawn();
    let mut conn = TcpStream::connect(handle.addr()).expect("connect");
    let mut control = Client::connect(handle.addr()).expect("connect control");

    let tune = |seed| serde_json::to_vec(&Request::Tune(params("comp", 8, 200, seed))).unwrap();
    let ask = |conn: &mut TcpStream, seed| {
        write_frame(conn, &tune(seed)).expect("send");
        read_frame(conn).expect("answer")
    };
    // (cache_hits, cache_misses, cache_lru_hits, cache_lru_misses).
    let lookups = |control: &mut Client| {
        let m = control.metrics().expect("metrics");
        (
            m.cache_hits,
            m.cache_misses,
            m.cache_lru_hits,
            m.cache_lru_misses,
        )
    };
    // The bytes a warm answer must have: the cold one's, from the cache.
    let warm = |cold: &[u8]| {
        let mut answer: Response = serde_json::from_slice(cold).expect("decode");
        let Response::TuneResult { from_cache, .. } = &mut answer else {
            panic!("cold Tune answered {answer:?}");
        };
        *from_cache = true;
        serde_json::to_vec(&answer).expect("encode")
    };

    let cold_1 = ask(&mut conn, 1);
    assert_eq!(lookups(&mut control), (0, 1, 0, 1));
    let cold_2 = ask(&mut conn, 2);
    assert_eq!(lookups(&mut control), (0, 2, 0, 2));
    // The front holds one campaign: seed 2's. Seed 1 is a disk hit, and
    // a disk hit again; seed 2 a front hit.
    assert_eq!(ask(&mut conn, 1), warm(&cold_1), "inline disk hit");
    assert_eq!(lookups(&mut control), (1, 2, 0, 3));
    assert_eq!(ask(&mut conn, 1), warm(&cold_1), "inline disk hit again");
    assert_eq!(lookups(&mut control), (2, 2, 0, 4));
    assert_eq!(ask(&mut conn, 2), warm(&cold_2), "front hit");
    assert_eq!(lookups(&mut control), (3, 2, 1, 4));

    // Seed 1 is still on disk, behind a shard lock held as a `put` holds
    // it across its `sync_data`: the reactor hands the `Tune` to the pool,
    // where it waits for the lock, and answers a `Ping` meanwhile.
    let (locked_tx, locked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let holder = std::thread::spawn(move || {
        cache.with_shard_locked("LV", || {
            locked_tx.send(()).unwrap();
            let _ = release_rx.recv();
        })
    });
    locked_rx.recv().expect("lock held");
    write_frame(&mut conn, &tune(1)).expect("send");
    // A reactor stuck on the lock would never answer: time out instead.
    control.set_timeout(Some(Duration::from_secs(5))).unwrap();
    let pinged = Instant::now();
    control.ping().expect("ping while the shard is locked");
    assert!(
        pinged.elapsed() < Duration::from_secs(1),
        "{:?}",
        pinged.elapsed()
    );
    conn.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    assert!(read_frame(&mut conn).is_err(), "answered past the lock");
    drop(release_tx);
    holder.join().expect("holder");
    conn.set_read_timeout(None).unwrap();
    assert_eq!(
        read_frame(&mut conn).expect("answer"),
        warm(&cold_1),
        "pooled disk hit"
    );
    assert_eq!(lookups(&mut control), (4, 2, 1, 5));
    control.shutdown().expect("shutdown");
    handle.join().expect("drain");

    // One `campaign.tune` span and one `cache.lookup` per `Tune`, in order.
    let events = tracer.drain_events();
    let spans: Vec<_> = events
        .iter()
        .filter(|e| e.name == "campaign.tune" && e.kind == EventKind::End)
        .collect();
    let tiers: Vec<_> = events
        .iter()
        .filter(|e| e.name == "cache.lookup")
        .map(|e| {
            let count = spans.iter().filter(|s| s.trace == e.trace).count();
            assert_eq!(count, 1, "one campaign.tune span per lookup");
            let (_, tier) = e.fields.iter().find(|(k, _)| *k == "tier").expect("tier");
            tier.clone()
        })
        .collect();
    let expected = ["miss", "miss", "disk", "disk", "front", "disk"];
    assert_eq!(tiers, expected.map(FieldValue::from));
    assert_eq!(spans.len(), expected.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The three warm tiers, observed through `SessionStatus::warm_source`
/// over the wire: cold on an empty cache, exact on an identical repeat,
/// transfer on a near-miss platform sharing the cache directory.
#[test]
fn warm_source_reports_cold_exact_and_transfer_tiers() {
    let dir = temp_path("tiers");
    let _ = std::fs::remove_dir_all(&dir);
    let params = params("comp", 6, 200, 9);

    // Cold, then exact, on the default platform.
    let handle = Server::bind(ServeConfig {
        cache_path: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind")
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let (st, from_cache) = client.create_session(params.clone(), 0.0, 0).expect("cold");
    assert!(!from_cache);
    assert_eq!(st.warm_source, "cold");
    drive_to_done(&mut client, st.session, 4);
    let (st, from_cache) = client
        .create_session(params.clone(), 0.0, 0)
        .expect("exact");
    assert!(from_cache);
    assert_eq!(st.warm_source, "exact");
    assert_eq!(st.state, "done", "exact hit starts finished");
    client.shutdown().expect("shutdown");
    handle.join().expect("drain");

    // Same cache directory, near-miss platform: transfer tier.
    let handle = Server::bind(ServeConfig {
        cache_path: Some(dir.clone()),
        platform: near_miss_platform(),
        ..ServeConfig::default()
    })
    .expect("bind near-miss")
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let (st, from_cache) = client.create_session(params, 0.0, 0).expect("transfer");
    assert!(!from_cache, "a transfer seed is not an exact answer");
    assert_eq!(st.warm_source, "transfer");
    assert_eq!(st.state, "created", "a seeded campaign still measures");
    drive_to_done(&mut client, st.session, 4);
    let m = client.metrics().expect("metrics");
    assert_eq!(m.cache_transfer_seeded, 1);
    assert!(
        m.oracle_measurements > 0,
        "transfer still pays for its runs"
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The deployment round trip through real servers: tune on one
/// deployment, `export` its cache, import the bundle into a second
/// deployment at startup (`cache_import`), and serve the shipped campaign
/// warm with zero oracle spend.
#[test]
fn export_import_round_trip_serves_warm() {
    let dir_a = temp_path("ship-a");
    let dir_b = temp_path("ship-b");
    let bundle = temp_path("ship-bundle");
    let params = params("comp", 6, 200, 13);

    let handle = Server::bind(ServeConfig {
        cache_path: Some(dir_a.clone()),
        ..ServeConfig::default()
    })
    .expect("bind exporter")
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let cold = client.tune(params.clone()).expect("cold tune");
    assert!(!cold.from_cache);
    client.shutdown().expect("shutdown");
    handle.join().expect("drain");

    let text = AutotuneCache::at_path(&dir_a)
        .export_bundle()
        .expect("export");
    std::fs::write(&bundle, text).expect("write bundle");

    let handle = Server::bind(ServeConfig {
        cache_path: Some(dir_b.clone()),
        cache_import: Some(bundle.clone()),
        ..ServeConfig::default()
    })
    .expect("bind importer")
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let warm = client.tune(params).expect("warm tune");
    assert!(warm.from_cache, "imported campaign must serve warm");
    assert_eq!(warm.best, cold.best);
    assert_eq!(warm.best_value, cold.best_value);
    let m = client.metrics().expect("metrics");
    assert_eq!(m.oracle_measurements, 0, "warm serve must spend nothing");
    assert_eq!(m.cache_hits, 1);
    client.shutdown().expect("shutdown");
    handle.join().expect("drain");

    for d in [&dir_a, &dir_b] {
        let _ = std::fs::remove_dir_all(d);
    }
    let _ = std::fs::remove_file(&bundle);
}

/// The key of `params`' campaign on `platform` in cache-key `mode`, built
/// field by field from [`platform_fingerprint`] rather than by the server.
fn key_on(platform: &Platform, params: &TuneParams, mode: &str) -> CacheKey {
    CacheKey {
        workflow: params.workflow.clone(),
        platform: platform_fingerprint(platform),
        objective: params.objective.clone(),
        pool: params.pool,
        seed: params.seed,
        budget: params.budget,
        algo: format!("{mode}:{}", params.algo),
    }
}

/// A server bound on a platform other than the default answers warm from
/// a cache seeded with keys built directly from that platform's
/// fingerprint — a one-shot `Tune` (`tune:`) and a session
/// (`session-h4:`) alike — so the fingerprint it computes once at bind is
/// the one every key carries.
#[test]
fn a_server_on_another_platform_answers_keys_built_from_its_fingerprint() {
    let platform = near_miss_platform();
    let dir = temp_path("fingerprint");
    let p = params("comp", 8, 200, 5);
    let best = vec![100, 20, 1, 50, 10, 1];
    let entry = |mode: &str, best_value: f64| CacheEntry {
        key: key_on(&platform, &p, mode),
        best: best.clone(),
        best_value,
        runs_used: 8,
        component_runs: 6,
        samples: vec![(best.clone(), best_value)],
        platform_features: platform_features(&platform),
    };
    let seeded = AutotuneCache::at_path(&dir);
    seeded.put(entry("tune", 1.25)).unwrap();
    seeded.put(entry("session-h4", 2.5)).unwrap();
    drop(seeded);

    let handle = Server::bind(ServeConfig {
        cache_path: Some(dir.clone()),
        platform,
        ..ServeConfig::default()
    })
    .expect("bind")
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let tuned = client.tune(p.clone()).expect("tune");
    assert!(tuned.from_cache, "the tune: key answers");
    assert_eq!((tuned.best, tuned.best_value), (best.clone(), 1.25));
    let (status, from_cache) = client.create_session(p, 0.0, 0).expect("create");
    assert!(from_cache, "the session-h4: key answers");
    assert_eq!(status.warm_source, "exact");
    assert_eq!((status.best, status.best_value), (Some(best), Some(2.5)));
    let m = client.metrics().expect("metrics");
    assert_eq!((m.cache_hits, m.cache_misses), (2, 0));
    assert_eq!(m.oracle_measurements, 0);
    client.shutdown().expect("shutdown");
    handle.join().expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs one campaign to completion and returns its cached samples in
/// measurement order, finding them under the key built directly from the
/// platform's fingerprint.
fn run_campaign(
    platform: Platform,
    transfer_threshold: f64,
    cache: &AutotuneCache,
    budget: u64,
    expect_source: &str,
) -> Vec<(Vec<i64>, f64)> {
    let mgr = SessionManager::new(Duration::from_secs(3600))
        .with_platform(platform.clone())
        .with_transfer_threshold(transfer_threshold);
    let metrics = ServerMetrics::new();
    let p = params("comp", budget, 200, 7);
    let key = key_on(&platform, &p, "session-h4");
    let (st, _) = mgr.create(p, 0.0, 0, cache, &metrics).expect("create");
    assert_eq!(st.warm_source, expect_source);
    drive_session_to_done(&mgr, st.session, cache, &metrics);
    cache
        .all_entries()
        .into_iter()
        .find(|e| e.key == key)
        .expect("finished campaign published")
        .samples
}

/// Acceptance: on a near-miss platform, a transfer-seeded campaign must
/// measure a configuration at least as good as the cold campaign's final
/// best in strictly fewer coupled oracle runs. The samples come from the
/// published cache entries, in measurement order, so "runs" counts
/// exactly the coupled measurements each campaign paid for.
#[test]
fn transfer_seeding_reaches_cold_best_with_fewer_coupled_runs() {
    const BUDGET: u64 = 30;
    let runs_to = |samples: &[(Vec<i64>, f64)], target: f64| {
        samples
            .iter()
            .position(|&(_, v)| v <= target * (1.0 + 1e-9))
            .map(|i| i + 1)
    };

    // A sibling campaign on the paper-testbed platform.
    let shared = AutotuneCache::in_memory();
    run_campaign(Platform::default(), 0.0, &shared, BUDGET, "cold");

    // Cold baseline on the near-miss platform (transfer off, own cache).
    let cold_cache = AutotuneCache::in_memory();
    let cold = run_campaign(near_miss_platform(), 0.0, &cold_cache, BUDGET, "cold");
    let target = cold.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
    let cold_runs = runs_to(&cold, target).expect("cold reaches its own best");

    // Transfer-seeded campaign on the same platform, same budget.
    let seeded = run_campaign(
        near_miss_platform(),
        DEFAULT_TRANSFER_THRESHOLD,
        &shared,
        BUDGET,
        "transfer",
    );
    let seeded_runs =
        runs_to(&seeded, target).expect("seeded campaign must reach the cold best at all");
    assert!(
        seeded_runs < cold_runs,
        "transfer seeding must save coupled runs: seeded {seeded_runs} vs cold {cold_runs}"
    );
}
