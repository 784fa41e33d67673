use super::*;
use ceal_core::frame;
use ceal_trace::EventKind;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn key_for(workflow: &str, seed: u64) -> CacheKey {
    CacheKey {
        workflow: workflow.into(),
        platform: platform_fingerprint(&ceal_sim::Platform::default()),
        objective: "comp".into(),
        pool: 500,
        seed,
        budget: 25,
        algo: "tune:ceal".into(),
    }
}

fn key(seed: u64) -> CacheKey {
    key_for("LV", seed)
}

fn entry_for(workflow: &str, seed: u64) -> CacheEntry {
    CacheEntry {
        key: key_for(workflow, seed),
        best: vec![18, 18, 2, 18, 18, 2],
        best_value: 1.5,
        runs_used: 25,
        component_runs: 12,
        samples: vec![(vec![18, 18, 2, 18, 18, 2], 1.5)],
        platform_features: platform_features(&ceal_sim::Platform::default()),
    }
}

fn entry(seed: u64) -> CacheEntry {
    entry_for("LV", seed)
}

fn temp_dir(tag: &str) -> PathBuf {
    ceal_testutil::unique_temp_path(&format!("ceal-cache-{tag}"), "d")
}

fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The value of `event`'s field `name`.
fn field(event: &ceal_trace::TraceEvent, name: &str) -> ceal_trace::FieldValue {
    let (_, value) = event
        .fields
        .iter()
        .find(|(k, _)| *k == name)
        .expect("field");
    value.clone()
}

/// The record log of the workflow whose lowercase name is `workflow`.
fn log_path(dir: &Path, workflow: &str) -> PathBuf {
    let prefix = format!("shard-{workflow}-");
    let mut logs = file_names(dir);
    logs.retain(|name| name.starts_with(&prefix) && name.ends_with(".log"));
    assert_eq!(logs.len(), 1, "one log per workflow");
    dir.join(&logs[0])
}

/// Offsets at which the frames of a cache log start, plus its end.
fn frame_bounds(bytes: &[u8]) -> Vec<usize> {
    assert!(bytes.starts_with(shard::LOG_MAGIC));
    let mut bounds = Vec::new();
    let end = frame::scan(bytes, shard::LOG_MAGIC.len(), |at, _| {
        bounds.push(at);
        true
    });
    assert_eq!(end, bytes.len(), "log must be whole");
    bounds.push(end);
    bounds
}

fn sorted(mut entries: Vec<CacheEntry>) -> Vec<CacheEntry> {
    entries.sort_by_key(|e| (e.key.workflow.clone(), e.key.seed));
    entries
}

#[test]
fn get_put_round_trip_in_memory() {
    let cache = AutotuneCache::in_memory();
    assert!(cache.get(&key(1)).is_none());
    cache.put(entry(1)).unwrap();
    assert_eq!(cache.get(&key(1)).unwrap(), entry(1));
    assert!(cache.get(&key(2)).is_none());
    // Replacement keeps one entry per key.
    cache.put(entry(1)).unwrap();
    assert_eq!(cache.len(), 1);
}

#[test]
fn persists_and_reloads_shards() {
    let dir = temp_dir("roundtrip");
    {
        let cache = AutotuneCache::at_path(&dir);
        cache.put(entry(7)).unwrap();
        cache.put(entry_for("HS", 7)).unwrap();
    }
    let warm = AutotuneCache::at_path(&dir);
    assert_eq!(warm.get(&key(7)).unwrap(), entry(7));
    assert_eq!(warm.get(&key_for("HS", 7)).unwrap(), entry_for("HS", 7));
    assert_eq!(warm.shard_count(), 2, "one shard per workflow");
    assert_eq!(warm.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped byte mid-file costs the record it hit and everything after
/// it; the prefix still serves and the shard stays writable.
#[test]
fn corrupt_shard_is_ignored() {
    let dir = temp_dir("corrupt");
    {
        let cache = AutotuneCache::at_path(&dir);
        for seed in 1..=3 {
            cache.put(entry(seed)).unwrap();
        }
    }
    let log = log_path(&dir, "lv");
    let mut bytes = std::fs::read(&log).unwrap();
    let second = frame_bounds(&bytes)[1];
    bytes[second + frame::HEADER_LEN + 5] ^= 0x01;
    std::fs::write(&log, &bytes).unwrap();

    let reloaded = AutotuneCache::at_path(&dir);
    assert_eq!(reloaded.get(&key(1)).unwrap(), entry(1), "prefix survives");
    assert!(
        reloaded.get(&key(2)).is_none(),
        "tampered record must not load"
    );
    assert!(
        reloaded.get(&key(3)).is_none(),
        "nothing past it is trusted"
    );
    assert_eq!(reloaded.len(), 1);
    assert_eq!(
        std::fs::read(&log).unwrap(),
        bytes[..second],
        "tail cut off"
    );
    reloaded.put(entry(2)).unwrap();
    drop(reloaded);
    let healed = AutotuneCache::at_path(&dir);
    assert_eq!(healed.get(&key(2)).unwrap(), entry(2));
    assert_eq!(healed.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash can tear the log anywhere inside the record being appended:
/// whichever byte it stops at, reopening serves every earlier campaign,
/// not the torn one, and the next put and reopen round-trip.
#[test]
fn torn_tail_at_every_byte_keeps_every_earlier_entry() {
    let dir = temp_dir("torn");
    {
        let cache = AutotuneCache::at_path(&dir);
        for seed in 0..5 {
            cache.put(entry(seed)).unwrap();
        }
    }
    let log = log_path(&dir, "lv");
    let whole = std::fs::read(&log).unwrap();
    let last = frame_bounds(&whole)[4];
    for cut in last..whole.len() {
        std::fs::write(&log, &whole[..cut]).unwrap();
        let cache = AutotuneCache::at_path_with_capacity(&dir, 1);
        for seed in 0..4 {
            assert_eq!(cache.get(&key(seed)), Some(entry(seed)), "cut at {cut}");
        }
        assert_eq!(cache.get(&key(4)), None, "cut at {cut}: torn record served");
        cache.put(entry(4)).unwrap();
        drop(cache);
        assert_eq!(std::fs::read(&log).unwrap(), whole, "cut at {cut}: heals");
    }
    // Torn inside the magic: the file never held a committed record.
    std::fs::write(&log, &whole[..3]).unwrap();
    let cache = AutotuneCache::at_path(&dir);
    assert!(cache.is_empty());
    cache.put(entry(9)).unwrap();
    drop(cache);
    assert_eq!(AutotuneCache::at_path(&dir).get(&key(9)), Some(entry(9)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bytes of the file at `path`, or of each file in the directory at it.
fn snapshot(path: &Path) -> Vec<(String, Vec<u8>)> {
    match path.is_dir() {
        true => file_names(path)
            .iter()
            .map(|name| (name.clone(), std::fs::read(path.join(name)).unwrap()))
            .collect(),
        false => vec![(String::new(), std::fs::read(path).unwrap())],
    }
}

/// Opens `path`, a cache of a layout before the record log, and checks it
/// is not read in place: the cache serves nothing, no byte changes, and
/// one warning names `cache import`.
fn assert_left_alone(path: &Path) {
    let tracer = Tracer::in_memory();
    let before = snapshot(path);
    let cache = AutotuneCache::at_path_traced(path, 4, &tracer);
    assert!(cache.is_empty(), "{}", path.display());
    assert_eq!(snapshot(path), before, "{} left untouched", path.display());
    let warned: Vec<_> = tracer
        .drain_events()
        .into_iter()
        .filter(|e| e.kind == EventKind::Warn)
        .collect();
    assert_eq!(warned.len(), 1, "{}: one warning", path.display());
    let message = format!("{:?}", warned[0].fields[0].1);
    assert!(message.contains("`cache import "), "{message}");
}

/// A single-file cache of the layout before shards is left alone where it
/// lies; `cache import` turns it into one log per workflow.
#[test]
fn legacy_blob_migrates_into_shards() {
    let blob = temp_dir("migrate");
    let entries = vec![entry(1), entry(2), entry_for("GP", 9)];
    let text = bundle_to_json(&entries).unwrap();
    std::fs::write(&blob, &text).unwrap();
    assert_left_alone(&blob);

    let dir = temp_dir("migrate-imported");
    let cache = AutotuneCache::at_path(&dir);
    assert_eq!(cache.import_bundle(&text).unwrap(), (3, 0));
    assert_eq!((cache.len(), cache.shard_count()), (3, 2));
    assert_eq!(cache.get(&key(1)).unwrap(), entry(1));
    assert_eq!(cache.get(&key_for("GP", 9)).unwrap(), entry_for("GP", 9));
    assert_eq!(sorted(cache.all_entries()), sorted(entries.clone()));
    // The import is done once; a reload sees plain logs.
    drop(cache);
    let files = file_names(&dir);
    let again = AutotuneCache::at_path(&dir);
    assert_eq!(sorted(again.all_entries()), sorted(entries));
    assert_eq!(file_names(&dir), files);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&blob);
}

/// A directory written by the commit before the record log — one JSON
/// file per workflow, here two good and one that fails its checksum — is
/// not read in place. Importing each of its files into a cache at that
/// same directory yields exactly the campaigns the parent commit exported
/// from it, in two logs beside the JSON files, which stay as they were;
/// the corrupt one is refused.
#[test]
fn json_shard_directory_migrates_in_place() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let old = fixtures.join("cache-json-shards");
    let held = bundle_from_json(&std::fs::read_to_string(fixtures.join("bundle.json")).unwrap())
        .expect("parent bundle validates");
    assert_eq!(held.len(), 3);

    let dir = temp_dir("migrate-json");
    std::fs::create_dir_all(&dir).unwrap();
    for name in file_names(&old) {
        std::fs::copy(old.join(&name), dir.join(&name)).unwrap();
    }
    assert_left_alone(&dir);
    let originals = snapshot(&dir);

    let cache = AutotuneCache::at_path(&dir);
    for (name, bytes) in &originals {
        let imported = cache.import_bundle(std::str::from_utf8(bytes).unwrap());
        assert_eq!(imported.is_err(), name.starts_with("shard-gp-"), "{name}");
    }
    assert_eq!(sorted(cache.all_entries()), sorted(held.clone()));
    assert_eq!((cache.len(), cache.shard_count()), (3, 2));
    drop(cache);
    assert_eq!(
        file_names(&dir),
        [
            "shard-gp-0badc0de.json",
            "shard-hs-b5bb9fec.json",
            "shard-hs-b5bb9fec.log",
            "shard-lv-b5af78a7.json",
            "shard-lv-b5af78a7.log"
        ]
    );
    let mut json = snapshot(&dir);
    json.retain(|(name, _)| name.ends_with(".json"));
    assert_eq!(json, originals, "the older files are never rewritten");

    let again = AutotuneCache::at_path_with_capacity(&dir, 1);
    for e in &held {
        assert_eq!(again.get_with_tier(&e.key), (Some(e.clone()), "disk"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bundle layout is frozen: re-exporting what the parent commit
/// exported reproduces its file byte for byte.
#[test]
fn bundle_bytes_match_the_parent_commit() {
    let parent = include_str!("../../tests/fixtures/bundle.json");
    let entries = bundle_from_json(parent).expect("parent bundle validates");
    assert_eq!(bundle_to_json(&entries).unwrap(), parent);
}

/// A file at the cache path that is not a cache is never trusted nor
/// destroyed: opening leaves it where it lies, under its own name, and
/// importing it is refused without caching anything.
#[test]
fn corrupt_legacy_blob_is_set_aside_not_trusted() {
    let blob = temp_dir("migrate-bad");
    std::fs::write(&blob, "not a cache at all").unwrap();
    assert_left_alone(&blob);
    let mut aside = blob.as_os_str().to_owned();
    aside.push(".invalid");
    assert!(!PathBuf::from(aside).exists(), "nothing is renamed");

    let dir = temp_dir("migrate-bad-imported");
    let cache = AutotuneCache::at_path(&dir);
    assert!(cache.import_bundle("not a cache at all").is_err());
    assert!(cache.is_empty());
    drop(cache);
    assert!(AutotuneCache::at_path(&dir).is_empty());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&blob);
}

/// Write amplification: however full the shard, a put grows its log by
/// exactly one frame, leaves every earlier byte alone, and touches no
/// other workflow's file.
#[test]
fn put_appends_one_frame_and_touches_nothing_else() {
    let dir = temp_dir("isolation");
    let cache = AutotuneCache::at_path(&dir);
    cache.put(entry_for("HS", 1)).unwrap();
    for seed in 0..200 {
        cache.put(entry(seed)).unwrap();
    }
    let (lv, hs) = (log_path(&dir, "lv"), log_path(&dir, "hs"));
    let (lv_before, hs_before) = (std::fs::read(&lv).unwrap(), std::fs::read(&hs).unwrap());
    assert_eq!(frame_bounds(&lv_before).len() - 1, 200);

    cache.put(entry(200)).unwrap();
    let lv_after = std::fs::read(&lv).unwrap();
    assert_eq!(lv_after[..lv_before.len()], lv_before[..], "earlier bytes");
    let appended = frame::first(&lv_after[lv_before.len()..]).expect("one whole frame");
    assert_eq!(
        lv_before.len() + frame::HEADER_LEN + appended.len(),
        lv_after.len(),
        "exactly one frame"
    );
    assert_eq!(appended, serde_json::to_vec(&entry(200)).unwrap());
    assert_eq!(std::fs::read(&hs).unwrap(), hs_before, "HS log untouched");
    assert_eq!(file_names(&dir).len(), 2, "no temp files, no other shards");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A replaced key is a newer record shadowing the older one; once the
/// shadowed bytes outweigh the live ones the next open compacts the log
/// to its live records, in append order, and serves the same answers.
#[test]
fn reputting_a_key_compacts_at_the_next_open() {
    let dir = temp_dir("compact");
    let version = |i: u64| CacheEntry {
        best_value: i as f64,
        ..entry(1)
    };
    {
        let cache = AutotuneCache::at_path_with_capacity(&dir, 1);
        for i in 0..50 {
            cache.put(version(i)).unwrap();
            if i == 20 {
                cache.put(entry(2)).unwrap();
            }
        }
        assert_eq!(cache.len(), 2, "shadowed records are not campaigns");
        assert_eq!(cache.get(&key(2)), Some(entry(2)));
        assert_eq!(cache.get(&key(1)), Some(version(49)));
    }
    let log = log_path(&dir, "lv");
    assert_eq!(frame_bounds(&std::fs::read(&log).unwrap()).len() - 1, 51);

    let cache = AutotuneCache::at_path_with_capacity(&dir, 1);
    assert_eq!(cache.all_entries(), [entry(2), version(49)]);
    assert_eq!(cache.get(&key(1)), Some(version(49)));
    assert_eq!(cache.get(&key(2)), Some(entry(2)));
    let compacted = std::fs::read(&log).unwrap();
    assert_eq!(frame_bounds(&compacted).len() - 1, 2, "only live records");
    assert_eq!(file_names(&dir).len(), 1, "compaction leaves no temp file");
    // A compacted log appends and reopens like any other.
    cache.put(entry(3)).unwrap();
    drop(cache);
    let again = AutotuneCache::at_path(&dir);
    assert_eq!(again.all_entries(), [entry(2), version(49), entry(3)]);
    assert_eq!(
        std::fs::read(&log).unwrap()[..compacted.len()],
        compacted[..]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// First touch and recovery leave a structured trail: one
/// `cache.shard-indexed` per scanned shard, and a `cache.shard-recovered`
/// warning naming what a dropped tail cost.
#[test]
fn first_touch_and_recovery_are_traced() {
    let dir = temp_dir("traced");
    let tracer = Tracer::in_memory();
    let cache = AutotuneCache::at_path_traced(&dir, 4, &tracer);
    cache.put(entry(1)).unwrap();
    cache.put(entry(2)).unwrap();
    drop(cache);
    let events = tracer.drain_events();
    assert!(
        events.is_empty(),
        "no file yet, nothing to scan: {events:?}"
    );

    let log = log_path(&dir, "lv");
    let mut bytes = std::fs::read(&log).unwrap();
    bytes.extend_from_slice(b"torn-append");
    std::fs::write(&log, bytes).unwrap();
    let cache = AutotuneCache::at_path_traced(&dir, 4, &tracer);
    assert_eq!(cache.len(), 2);
    let events = tracer.drain_events();
    let names: Vec<_> = events.iter().map(|e| (e.name, e.kind)).collect();
    assert_eq!(
        names,
        [
            ("cache.shard-recovered", EventKind::Warn),
            ("cache.shard-indexed", EventKind::Instant)
        ]
    );
    assert_eq!(field(&events[0], "workflow"), "LV".into());
    assert_eq!(field(&events[0], "truncated_bytes"), 11u64.into());
    assert_eq!(field(&events[0], "entries_kept"), 2u64.into());
    assert_eq!(field(&events[1], "entries"), 2u64.into());
    assert_eq!(tracer.warnings(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every publish a failing disk cannot persist is counted and warned
/// about, naming its session, and the campaign still serves from memory.
/// An in-memory cache has nothing to fail.
#[test]
fn a_failing_disk_is_counted_and_warned_on_every_publish() {
    let dir = temp_dir("persist-failed");
    AutotuneCache::at_path(&dir).put(entry(0)).unwrap();
    // Every append to a log that became a directory fails.
    let log = log_path(&dir, "lv");
    std::fs::remove_file(&log).unwrap();
    std::fs::create_dir(&log).unwrap();
    let tracer = Tracer::in_memory();
    let cache = AutotuneCache::at_path_traced(&dir, 16, &tracer);
    let memory = AutotuneCache::in_memory();
    let (metrics, quiet) = (ServerMetrics::new(), ServerMetrics::new());
    for seed in 1..=4 {
        for (c, m) in [(&cache, &metrics), (&memory, &quiet)] {
            c.publish(entry(seed), m, &tracer, TraceContext::NONE, 7);
            assert_eq!(c.get(&key(seed)), Some(entry(seed)), "served from memory");
        }
    }
    assert_eq!(metrics.cache_persist_failures.load(Ordering::Relaxed), 4);
    assert_eq!(quiet.cache_persist_failures.load(Ordering::Relaxed), 0);
    let events = tracer.drain_events();
    let failed: Vec<_> = events
        .iter()
        .filter(|e| e.name.starts_with("cache.persist"))
        .collect();
    assert_eq!(failed.len(), 4, "one warning per publish");
    for event in failed {
        assert_eq!(
            (event.name, event.kind),
            ("cache.persist-failed", EventKind::Warn)
        );
        assert_eq!(field(event, "session"), 7u64.into());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lru_front_bounds_memory_and_falls_back_to_disk() {
    let dir = temp_dir("lru");
    let cache = AutotuneCache::at_path_with_capacity(&dir, 4);
    for seed in 0..10 {
        cache.put(entry(seed)).unwrap();
    }
    let stats = cache.stats();
    assert_eq!(stats.lru_len, 4, "front must hold at most its capacity");
    assert_eq!(stats.lru_evictions, 6);
    // An evicted entry is still served — from disk — and promoted.
    let before = cache.stats();
    assert_eq!(cache.get(&key(0)).unwrap(), entry(0));
    let after = cache.stats();
    assert_eq!(after.lru_misses, before.lru_misses + 1);
    assert_eq!(cache.get(&key(0)).unwrap(), entry(0));
    assert_eq!(cache.stats().lru_hits, after.lru_hits + 1);
    assert_eq!(cache.len(), 10, "disk holds everything");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The lookup that must not wait answers what `answer` answers — from
/// either tier, a disk hit from the index row, promoting nothing — and
/// leaves everything else to it uncounted: a miss, a shard not indexed
/// yet, a taken shard lock, the taken shard map. A frame that went bad
/// after the scan is still answered from its row, unwarned; a session's
/// `get` of it warns once and misses, and the next open truncates the log
/// there.
#[test]
fn a_lookup_that_must_not_wait_answers_or_counts_nothing() {
    let dir = temp_dir("nowait");
    let seeded = AutotuneCache::at_path(&dir);
    for seed in 0..3 {
        seeded.put(entry(seed)).unwrap();
    }
    drop(seeded);
    let tracer = Tracer::in_memory();
    let cache = AutotuneCache::at_path_traced(&dir, 1, &tracer);
    let counted = |cache: &AutotuneCache| {
        let stats = cache.stats();
        (stats.lru_hits, stats.lru_misses, stats.lru_len)
    };
    assert_eq!(cache.answer_nowait(&key(0)), None, "not indexed yet");
    assert_eq!(cache.len(), 3);
    assert_eq!(cache.answer_nowait(&key(9)), None, "a miss");
    let locked = cache.with_shard_locked("LV", || cache.answer_nowait(&key(0)));
    assert_eq!(locked, None, "a shard lock a put holds");
    // The map every shard is found through, held as adding a shard holds
    // it. The lookup runs on its own thread, so one that waited for the
    // map fails here instead of hanging.
    let mapped = std::thread::scope(|s| {
        cache.with_shard_map_locked(|| {
            let lookup = s.spawn(|| cache.answer_nowait(&key(0)));
            let deadline = Instant::now() + Duration::from_secs(10);
            while !lookup.is_finished() {
                assert!(Instant::now() < deadline, "the lookup waited for the map");
                std::thread::sleep(Duration::from_millis(1));
            }
            lookup.join().unwrap()
        })
    });
    assert_eq!(mapped, None, "a shard map lock another lookup holds");
    assert_eq!(counted(&cache), (0, 0, 0));

    let answer = TuneAnswer::of(&entry(0));
    assert_eq!(cache.answer_nowait(&key(0)), Some((answer.clone(), "disk")));
    assert_eq!(cache.answer_nowait(&key(0)), Some((answer.clone(), "disk")));
    assert_eq!(counted(&cache), (0, 2, 0), "counted, nothing promoted");
    assert_eq!(cache.get(&key(0)), Some(entry(0)));
    assert_eq!(cache.answer_nowait(&key(0)), Some((answer, "front")));
    assert_eq!(counted(&cache), (1, 3, 1), "what a session promoted");

    // A record that went bad after the scan: seed 1's payload, flipped.
    let log = log_path(&dir, "lv");
    let mut bytes = std::fs::read(&log).unwrap();
    let bounds = frame_bounds(&bytes);
    bytes[bounds[1] + frame::HEADER_LEN + 2] ^= 0x20;
    std::fs::write(&log, &bytes).unwrap();
    tracer.drain_events();
    let answer = TuneAnswer::of(&entry(1));
    assert_eq!(cache.answer_nowait(&key(1)), Some((answer, "disk")));
    assert_eq!(counted(&cache), (1, 4, 1));
    assert!(tracer.drain_events().is_empty(), "nothing warned");
    assert_eq!(cache.get_with_tier(&key(1)), (None, "miss"));
    let events = tracer.drain_events();
    let warned: Vec<_> = events.iter().map(|e| (e.name, e.kind)).collect();
    assert_eq!(warned, [("cache.shard-unreadable", EventKind::Warn)]);
    assert_eq!(counted(&cache), (1, 5, 1));
    drop(cache);

    // The next open's scan cuts the log at the bad frame.
    let cache = AutotuneCache::at_path_traced(&dir, 1, &tracer);
    assert_eq!(cache.len(), 1);
    let events = tracer.drain_events();
    assert!(
        events.iter().any(|e| e.name == "cache.shard-recovered"),
        "{events:?}"
    );
    assert_eq!(std::fs::read(&log).unwrap(), bytes[..bounds[1]]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every index row carries the answer of the entry its frame holds,
/// however the row was made: by a `put` onto a new shard, by the
/// first-touch scan, by a `put` replacing a key, by a compaction.
#[test]
fn every_index_row_holds_the_answer_of_its_frame() {
    let dir = temp_dir("row-answers");
    let version = |i: u64| CacheEntry {
        best: vec![i as i64, 2, 3],
        best_value: i as f64 / 4.0,
        runs_used: 25 + i,
        component_runs: i,
        ..entry(1)
    };
    let check = |cache: &AutotuneCache, live: &[CacheEntry]| {
        let store = cache.store.as_ref().expect("a cache directory");
        let rows = store.rows("LV");
        for (answer, decoded) in &rows {
            assert_eq!(*answer, TuneAnswer::of(decoded), "{:?}", decoded.key);
        }
        let decoded = rows.into_iter().map(|(_, entry)| entry).collect();
        assert_eq!(sorted(decoded), sorted(live.to_vec()));
    };
    let cache = AutotuneCache::at_path_with_capacity(&dir, 1);
    cache.put(entry(2)).unwrap();
    cache.put(version(0)).unwrap();
    check(&cache, &[entry(2), version(0)]);
    drop(cache);

    let cache = AutotuneCache::at_path_with_capacity(&dir, 1);
    check(&cache, &[entry(2), version(0)]);
    for i in 1..=40 {
        cache.put(version(i)).unwrap();
    }
    check(&cache, &[entry(2), version(40)]);
    drop(cache);

    let log = log_path(&dir, "lv");
    assert_eq!(frame_bounds(&std::fs::read(&log).unwrap()).len() - 1, 42);
    let cache = AutotuneCache::at_path_with_capacity(&dir, 1);
    check(&cache, &[entry(2), version(40)]);
    assert_eq!(
        frame_bounds(&std::fs::read(&log).unwrap()).len() - 1,
        2,
        "compacted"
    );
    cache.put(version(41)).unwrap();
    check(&cache, &[entry(2), version(41)]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `Tune`'s disk hit is answered from the index row, and no frame is
/// read for it, on the pool and on the reactor thread alike. It promotes
/// nothing: the front's residents, their number and its evictions stay as
/// they were, and a repeat is a disk hit again. Only a session's
/// `get_with_tier` promotes. Frames that went bad after the scan, whether
/// they fail their checksum or check and do not decode, are still answered
/// from their rows, unwarned; a `get` of each warns once and misses.
#[test]
fn a_tune_disk_hit_answers_from_the_index_and_promotes_nothing() {
    let dir = temp_dir("answer");
    let seeded = AutotuneCache::at_path(&dir);
    for seed in 0..4 {
        seeded.put(entry(seed)).unwrap();
    }
    drop(seeded);
    let tracer = Tracer::in_memory();
    let cache = AutotuneCache::at_path_traced(&dir, 2, &tracer);
    let counted = |cache: &AutotuneCache| {
        let stats = cache.stats();
        (stats.lru_hits, stats.lru_misses, stats.lru_len)
    };
    let residents = |cache: &AutotuneCache| {
        let front = cache.front.lock();
        let mut seeds: Vec<u64> = front.keys().map(|k| k.seed).collect();
        seeds.sort_unstable();
        (seeds, front.evictions)
    };
    assert_eq!(cache.answer(&key(9)), (None, "miss"));
    assert_eq!(counted(&cache), (0, 1, 0));
    assert_eq!(cache.get(&key(0)), Some(entry(0)));
    assert_eq!(counted(&cache), (0, 2, 1), "a session's get promotes");

    let answer = TuneAnswer::of(&entry(1));
    for misses in [3, 4] {
        assert_eq!(cache.answer(&key(1)), (Some(answer.clone()), "disk"));
        assert_eq!(counted(&cache), (0, misses, 1));
        assert_eq!(residents(&cache), (vec![0], 0), "nothing promoted");
    }
    assert_eq!(cache.get_with_tier(&key(1)), (Some(entry(1)), "disk"));
    assert_eq!(cache.answer(&key(1)), (Some(answer), "front"));
    assert_eq!(counted(&cache), (1, 5, 2));
    assert_eq!(residents(&cache), (vec![0, 1], 0));

    // Seed 2 rewritten after the scan: a frame that checks and does not
    // decode. Seed 3 flipped: a frame that fails its checksum.
    let log = log_path(&dir, "lv");
    let mut bytes = std::fs::read(&log).unwrap();
    let bounds = frame_bounds(&bytes);
    let (start, end) = (bounds[2], bounds[3]);
    let payload = vec![b'x'; end - start - frame::HEADER_LEN];
    let header = frame::header(&payload).unwrap();
    bytes[start..end].copy_from_slice(&[&header[..], &payload].concat());
    bytes[bounds[3] + frame::HEADER_LEN + 2] ^= 0x20;
    std::fs::write(&log, &bytes).unwrap();
    tracer.drain_events();

    let answer = TuneAnswer::of(&entry(2));
    assert_eq!(cache.answer(&key(2)), (Some(answer), "disk"));
    let answer = TuneAnswer::of(&entry(3));
    assert_eq!(cache.answer_nowait(&key(3)), Some((answer, "disk")));
    assert!(tracer.drain_events().is_empty(), "nothing warned");
    for seed in [2, 3] {
        assert_eq!(cache.get_with_tier(&key(seed)), (None, "miss"));
        let events = tracer.drain_events();
        let warned: Vec<_> = events.iter().map(|e| (e.name, e.kind)).collect();
        assert_eq!(warned, [("cache.shard-unreadable", EventKind::Warn)]);
    }
    assert_eq!(residents(&cache), (vec![0, 1], 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn export_import_round_trip() {
    let dir = temp_dir("export");
    let cache = AutotuneCache::at_path(&dir);
    cache.put(entry(1)).unwrap();
    cache.put(entry_for("HS", 2)).unwrap();
    let bundle = cache.export_bundle().unwrap();

    let fresh = AutotuneCache::in_memory();
    let (imported, skipped) = fresh.import_bundle(&bundle).unwrap();
    assert_eq!((imported, skipped), (2, 0));
    assert_eq!(fresh.get(&key(1)).unwrap(), entry(1));
    // Re-import skips everything: local entries win.
    let (imported, skipped) = fresh.import_bundle(&bundle).unwrap();
    assert_eq!((imported, skipped), (0, 2));
    // A tampered bundle is rejected outright.
    let bad = bundle.replace("\"best_value\": 1.5", "\"best_value\": 0.1");
    assert!(fresh.import_bundle(&bad).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nearest_transfer_finds_close_platform_only() {
    let cache = AutotuneCache::in_memory();
    let mut near = ceal_sim::Platform::default();
    near.link_bandwidth *= 0.8;
    let base = ceal_sim::Platform::default();
    let far = ceal_sim::Platform {
        total_nodes: 4,
        cores_per_node: 4,
        link_bandwidth: base.link_bandwidth / 100.0,
        fs_bandwidth: base.fs_bandwidth / 50.0,
        ..base
    };
    for p in [&near, &far] {
        let mut e = entry(1);
        e.key.platform = platform_fingerprint(p);
        e.platform_features = platform_features(p);
        cache.put(e).unwrap();
    }
    let me = key(1); // default platform fingerprint
    let features = platform_features(&ceal_sim::Platform::default());
    let hit = cache
        .nearest_transfer(&me, &features, DEFAULT_TRANSFER_THRESHOLD)
        .expect("near sibling within threshold");
    assert_eq!(hit.entry.key.platform, platform_fingerprint(&near));
    assert!(hit.distance < DEFAULT_TRANSFER_THRESHOLD);
    // Exact-platform entries are never transfer candidates.
    cache.put(entry(1)).unwrap();
    let hit2 = cache
        .nearest_transfer(&me, &features, DEFAULT_TRANSFER_THRESHOLD)
        .unwrap();
    assert_eq!(hit2.entry.key.platform, platform_fingerprint(&near));
    // Tight threshold: nothing qualifies.
    assert!(cache.nearest_transfer(&me, &features, 1e-6).is_none());
}

#[test]
fn nearest_transfer_scans_disk_not_just_front() {
    let dir = temp_dir("nn-disk");
    let cache = AutotuneCache::at_path_with_capacity(&dir, 1);
    let mut near = ceal_sim::Platform::default();
    near.fabric_bandwidth *= 1.25;
    let mut sibling = entry(5);
    sibling.key.platform = platform_fingerprint(&near);
    sibling.platform_features = platform_features(&near);
    cache.put(sibling.clone()).unwrap();
    // Evict the sibling from the 1-entry front with another workflow.
    cache.put(entry_for("HS", 1)).unwrap();
    let hit = cache
        .nearest_transfer(
            &key(5),
            &platform_features(&ceal_sim::Platform::default()),
            DEFAULT_TRANSFER_THRESHOLD,
        )
        .expect("sibling found in the shard on disk");
    assert_eq!(hit.entry, sibling);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The index ranks transfer candidates exactly as a scan of the fully
/// decoded shard in append order would: same sibling, same distance to
/// the bit — through replaced keys and two equally near siblings.
#[test]
fn index_nearest_matches_a_full_scan_in_append_order() {
    let dir = temp_dir("nn-equivalence");
    let sibling = |seed: u64, scale: f64, samples: usize| {
        let mut p = ceal_sim::Platform::default();
        p.link_bandwidth *= scale;
        CacheEntry {
            key: CacheKey {
                platform: platform_fingerprint(&p),
                ..key(seed)
            },
            samples: vec![(vec![1, 2, 3, 4, 5, 6], 2.5); samples],
            platform_features: platform_features(&p),
            ..entry(seed)
        }
    };
    // Half and double the bandwidth are equally far in log space.
    let puts = [
        sibling(1, 0.5, 2),
        sibling(2, 0.9, 0), // nearest of all, but nothing to seed from
        sibling(3, 2.0, 2),
        entry(4), // the asking platform itself
        sibling(5, 0.4, 1),
        sibling(1, 0.5, 3), // replaces the first: now *after* its twin
    ];
    let cache = AutotuneCache::at_path_with_capacity(&dir, 1);
    for e in &puts {
        cache.put(e.clone()).unwrap();
    }
    cache.put(entry_for("HS", 1)).unwrap(); // empty the one-entry front of LV
    let features = platform_features(&ceal_sim::Platform::default());
    let check = |cache: &AutotuneCache| {
        let decoded: Vec<CacheEntry> = cache
            .all_entries()
            .into_iter()
            .filter(|e| e.key.workflow == "LV")
            .collect();
        assert_eq!(decoded, puts[1..], "live entries in append order");
        for threshold in [DEFAULT_TRANSFER_THRESHOLD, 0.25, 1e-6] {
            let scan = decoded.iter().map(|e| {
                let seed = transfer::Candidate {
                    key: &e.key,
                    platform_features: &e.platform_features,
                    has_samples: !e.samples.is_empty(),
                };
                (seed, e)
            });
            let expect = transfer::nearest(scan, &key(4), &features, threshold);
            let got = cache.nearest_transfer(&key(4), &features, threshold);
            assert_eq!(
                got.as_ref().map(|h| (&h.entry, h.distance.to_bits())),
                expect.map(|(e, d)| (e, d.to_bits())),
                "threshold {threshold}"
            );
        }
        let hit = cache
            .nearest_transfer(&key(4), &features, DEFAULT_TRANSFER_THRESHOLD)
            .expect("a sibling within the default threshold");
        assert_eq!(hit.entry, puts[2], "the earlier of the equally near twins");
    };
    check(&cache);
    drop(cache);
    check(&AutotuneCache::at_path_with_capacity(&dir, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_tmp_files_are_swept_on_open() {
    let dir = temp_dir("sweep");
    std::fs::create_dir_all(&dir).unwrap();
    let stale = dir.join("shard-lv-deadbeef.json.tmp.3");
    std::fs::write(&stale, "torn write from a crashed put").unwrap();
    let cache = AutotuneCache::at_path(&dir);
    assert!(!stale.exists(), "open must sweep crash leftovers");
    cache.put(entry(4)).unwrap();
    assert!(AutotuneCache::at_path(&dir).get(&key(4)).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn different_platforms_have_different_fingerprints() {
    let a = ceal_sim::Platform::default();
    let mut b = ceal_sim::Platform::default();
    b.cores_per_node += 1;
    assert_ne!(platform_fingerprint(&a), platform_fingerprint(&b));
}
