//! The tiered autotune cache.
//!
//! A completed campaign is a pure function of its [`CacheKey`] — workflow,
//! platform fingerprint, objective, pool seed/size, budget, and algorithm
//! — so its result can be served to every later client without re-tuning
//! (the Collective Knowledge argument: autotuning results become valuable
//! when shared). Entries carry the campaign's measured `(config, value)`
//! samples and the platform's normalized feature vector, so a warm session
//! can refit its surrogate from the cache with zero oracle spend, and a
//! *near-miss* platform can seed its bootstrap phase from the closest
//! sibling (see [`transfer`]).
//!
//! Three tiers:
//!
//! * an in-memory **LRU front** ([`lru`]) with configurable capacity, so
//!   hot lookups never touch disk;
//! * **sharded persistence** ([`shard`]): one checksummed file per
//!   workflow under a cache directory, so a `put` serializes only its own
//!   shard — put cost is independent of how many campaigns other
//!   workflows have cached. A legacy single-blob cache file is migrated
//!   into shards once, on open;
//! * **portable bundles** ([`transfer`]): `export`/`import` move the
//!   whole cache as one checksummed file, so a deployment can ship its
//!   tuning results with the program and cold-start warm.

pub mod lru;
pub mod shard;
pub mod transfer;

use crate::breaker::CircuitBreaker;
use crate::metrics::ServerMetrics;
use ceal_trace::{FieldValue, TraceContext, Tracer};
use lru::LruFront;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use shard::ShardStore;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

pub use transfer::{
    bundle_from_json, bundle_to_json, feature_distance, platform_features, platform_fingerprint,
    TransferHit, DEFAULT_TRANSFER_THRESHOLD,
};

/// Default capacity of the in-memory LRU front for disk-backed caches.
pub const DEFAULT_LRU_CAPACITY: usize = 4096;

/// Everything that determines a campaign's outcome.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheKey {
    /// Workflow name, uppercase.
    pub workflow: String,
    /// Fingerprint of the measurement platform (see
    /// [`platform_fingerprint`]).
    pub platform: String,
    /// Objective: `exec` or `comp`.
    pub objective: String,
    /// Candidate-pool size.
    pub pool: u64,
    /// Pool/tuner seed.
    pub seed: u64,
    /// Coupled-run budget.
    pub budget: u64,
    /// Algorithm name, with a `tune:` or `session:` prefix so one-shot
    /// and incremental campaigns (different code paths) never cross-serve.
    pub algo: String,
}

/// One completed campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheEntry {
    /// The campaign's key.
    pub key: CacheKey,
    /// Recommended configuration.
    pub best: Vec<i64>,
    /// Measured objective value of `best`.
    pub best_value: f64,
    /// Coupled runs consumed.
    pub runs_used: u64,
    /// Component solo runs consumed.
    pub component_runs: u64,
    /// Measured coupled `(config, value)` samples, for surrogate refits.
    pub samples: Vec<(Vec<i64>, f64)>,
    /// Normalized feature vector of the measurement platform (see
    /// [`platform_features`]), powering nearest-neighbour transfer.
    /// Empty on entries cached before transfer existed — those still
    /// serve exact matches but are never transfer candidates.
    #[serde(default)]
    pub platform_features: Vec<f64>,
}

/// Counters describing the tiered cache's behavior, snapshot into the
/// Metrics endpoint.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered by the in-memory LRU front.
    pub lru_hits: u64,
    /// Lookups that had to consult a shard on disk.
    pub lru_misses: u64,
    /// Entries evicted from the LRU front to stay under capacity.
    pub lru_evictions: u64,
    /// Campaigns currently resident in the front.
    pub lru_len: u64,
}

/// A thread-safe tiered cache of completed campaigns: LRU front, optional
/// sharded directory behind it.
pub struct AutotuneCache {
    front: Mutex<LruFront>,
    store: Option<ShardStore>,
    lru_hits: AtomicU64,
    lru_misses: AtomicU64,
}

impl AutotuneCache {
    /// An in-memory cache (nothing persisted; the front is unbounded
    /// because it is the only tier).
    pub fn in_memory() -> Self {
        Self {
            front: Mutex::new(LruFront::new(usize::MAX)),
            store: None,
            lru_hits: AtomicU64::new(0),
            lru_misses: AtomicU64::new(0),
        }
    }

    /// A cache persisted as per-workflow shards in the directory at
    /// `path`, with the default LRU-front capacity. A legacy single-blob
    /// cache file at `path` is migrated into shards first. A missing or
    /// corrupt shard yields an empty shard, never an error — serving must
    /// start regardless.
    pub fn at_path(path: impl AsRef<Path>) -> Self {
        Self::at_path_with_capacity(path, DEFAULT_LRU_CAPACITY)
    }

    /// [`AutotuneCache::at_path`] with an explicit LRU-front capacity.
    pub fn at_path_with_capacity(path: impl AsRef<Path>, capacity: usize) -> Self {
        Self::at_path_traced(path, capacity, &Tracer::disabled())
    }

    /// [`AutotuneCache::at_path_with_capacity`], reporting an unusable
    /// cache directory as a structured `cache.unusable` warning through
    /// `tracer` (the stderr line is emitted either way).
    pub fn at_path_traced(path: impl AsRef<Path>, capacity: usize, tracer: &Tracer) -> Self {
        let store = match ShardStore::open(path.as_ref()) {
            Ok(store) => Some(store),
            Err(e) => {
                // A cache that cannot persist still serves: degrade to
                // memory-only rather than refusing to start.
                tracer.warn(
                    "cache.unusable",
                    TraceContext::NONE,
                    &format!(
                        "cache directory {} unusable ({e}); continuing in memory",
                        path.as_ref().display()
                    ),
                    &[("path", path.as_ref().display().to_string().into())],
                );
                None
            }
        };
        Self {
            front: Mutex::new(LruFront::new(capacity)),
            store,
            lru_hits: AtomicU64::new(0),
            lru_misses: AtomicU64::new(0),
        }
    }

    /// Number of cached campaigns (on disk for persistent caches).
    pub fn len(&self) -> usize {
        match &self.store {
            Some(store) => store.all_entries().len(),
            None => self.front.lock().len(),
        }
    }

    /// Whether the cache holds no campaigns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shard files on disk (0 for in-memory caches).
    pub fn shard_count(&self) -> usize {
        self.store.as_ref().map_or(0, ShardStore::shard_count)
    }

    /// Looks up a campaign by key: LRU front first, then the workflow's
    /// shard on disk (promoting a disk hit into the front).
    pub fn get(&self, key: &CacheKey) -> Option<CacheEntry> {
        self.get_with_tier(key).0
    }

    /// [`AutotuneCache::get`], also naming the tier that answered —
    /// `"front"` (LRU hit), `"disk"` (shard hit, promoted), or `"miss"` —
    /// so callers can attribute the lookup in trace events.
    pub fn get_with_tier(&self, key: &CacheKey) -> (Option<CacheEntry>, &'static str) {
        if let Some(hit) = self.front.lock().get(key) {
            self.lru_hits.fetch_add(1, Ordering::Relaxed);
            return (Some(hit), "front");
        }
        self.lru_misses.fetch_add(1, Ordering::Relaxed);
        let found = self.store.as_ref().and_then(|store| {
            store
                .load(&key.workflow)
                .into_iter()
                .find(|e| &e.key == key)
        });
        match found {
            Some(found) => {
                self.front.lock().insert(found.clone());
                (Some(found), "disk")
            }
            None => (None, "miss"),
        }
    }

    /// Inserts (or replaces) a campaign in the front and persists it to
    /// its workflow's shard when a cache directory is configured.
    /// Persistence failures are returned but don't fail the insert — the
    /// in-memory front stays authoritative for this process.
    ///
    /// Concurrent puts are safe: each shard is read-modify-written under
    /// its own lock through a generation-named temp file with the same
    /// fsync-rename-fsync durability the single-blob cache had. Puts to
    /// *different* workflows don't contend at all.
    pub fn put(&self, entry: CacheEntry) -> std::io::Result<()> {
        self.front.lock().insert(entry.clone());
        let Some(store) = &self.store else {
            return Ok(());
        };
        let workflow = entry.key.workflow.clone();
        store.update(&workflow, move |shard| {
            shard.retain(|e| e.key != entry.key);
            shard.push(entry);
        })
    }

    /// Inserts (or replaces) a campaign in the in-memory front only,
    /// skipping disk entirely. The cache-persist circuit breaker uses this
    /// while open: a known-bad disk isn't retried per campaign, but the
    /// result still serves from memory for this process's lifetime.
    pub fn put_memory_only(&self, entry: CacheEntry) {
        self.front.lock().insert(entry);
    }

    /// Publishes a finished campaign behind the cache-persist `breaker`.
    /// While it is open the doomed disk write is skipped and the entry
    /// serves from memory only: a dead disk degrades durability, not
    /// correctness. A failed write is counted and warned about; `origin`
    /// (`endpoint` or `session`) tells the callers' events apart.
    pub(crate) fn publish(
        &self,
        entry: CacheEntry,
        breaker: Option<&CircuitBreaker>,
        metrics: &ServerMetrics,
        tracer: &Tracer,
        ctx: TraceContext,
        origin: (&'static str, FieldValue),
    ) {
        if breaker.is_some_and(|b| !b.allow()) {
            self.put_memory_only(entry);
            tracer.instant("cache.persist-skipped", ctx, &[origin]);
            return;
        }
        let result = self.put(entry);
        match (&result, breaker) {
            (Ok(()), Some(b)) => b.record_success(),
            (Err(_), Some(b)) => b.record_failure(),
            (_, None) => {}
        }
        if let Err(e) = result {
            metrics
                .cache_persist_failures
                .fetch_add(1, Ordering::Relaxed);
            let message = format!("cache persistence failed: {e}");
            tracer.warn("cache.persist-failed", ctx, &message, &[origin]);
        }
    }

    /// Nearest sibling campaign usable as a transfer seed: same workflow
    /// and objective as `key`, different platform, feature distance to
    /// `features` within `threshold`. Scans the workflow's shard (one
    /// file) plus the resident front; never touches other workflows'
    /// shards.
    pub fn nearest_transfer(
        &self,
        key: &CacheKey,
        features: &[f64],
        threshold: f64,
    ) -> Option<TransferHit> {
        let disk = match &self.store {
            Some(store) => store.load(&key.workflow),
            None => Vec::new(),
        };
        let front = self.front.lock();
        transfer::nearest(disk.iter().chain(front.iter()), key, features, threshold)
    }

    /// Every cached campaign, for export. Disk is authoritative when
    /// present (the front is a subset of it).
    pub fn all_entries(&self) -> Vec<CacheEntry> {
        match &self.store {
            Some(store) => store.all_entries(),
            None => self.front.lock().iter().cloned().collect(),
        }
    }

    /// Serializes the whole cache as one portable checksummed bundle.
    pub fn export_bundle(&self) -> std::io::Result<String> {
        bundle_to_json(&self.all_entries())
    }

    /// Imports a bundle produced by [`AutotuneCache::export_bundle`] (or
    /// a legacy whole-cache blob). Entries whose key is already cached
    /// are skipped — local results are authoritative over shipped ones.
    /// Returns `(imported, skipped)`.
    pub fn import_bundle(&self, text: &str) -> std::io::Result<(usize, usize)> {
        let entries = bundle_from_json(text)
            .ok_or_else(|| std::io::Error::other("bundle failed checksum validation"))?;
        let mut imported = 0;
        let mut skipped = 0;
        for entry in entries {
            if self.get(&entry.key).is_some() {
                skipped += 1;
                continue;
            }
            self.put(entry)?;
            imported += 1;
        }
        Ok((imported, skipped))
    }

    /// Snapshot of the tier counters.
    pub fn stats(&self) -> CacheStats {
        let front = self.front.lock();
        CacheStats {
            lru_hits: self.lru_hits.load(Ordering::Relaxed),
            lru_misses: self.lru_misses.load(Ordering::Relaxed),
            lru_evictions: front.evictions,
            lru_len: front.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

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

    #[test]
    fn corrupt_shard_is_ignored() {
        let dir = temp_dir("corrupt");
        {
            let cache = AutotuneCache::at_path(&dir);
            cache.put(entry(3)).unwrap();
        }
        // Flip a byte inside the payload of the one shard file: its
        // checksum must catch it.
        let shard = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .find(|e| e.file_name().to_string_lossy().starts_with("shard-"))
            .unwrap()
            .path();
        let text = std::fs::read_to_string(&shard)
            .unwrap()
            .replace("\"best_value\": 1.5", "\"best_value\": 9.5");
        std::fs::write(&shard, text).unwrap();
        let reloaded = AutotuneCache::at_path(&dir);
        assert!(
            reloaded.get(&key(3)).is_none(),
            "tampered shard must not load"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn legacy_blob_migrates_into_shards() {
        let dir = temp_dir("migrate");
        // Write a legacy single-blob cache file where the directory will
        // live, holding entries from two workflows.
        let entries = vec![entry(1), entry(2), entry_for("GP", 9)];
        std::fs::write(&dir, shard::to_checked_json(&entries).unwrap()).unwrap();
        let cache = AutotuneCache::at_path(&dir);
        assert!(dir.is_dir(), "blob path must become the cache directory");
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.shard_count(), 2);
        assert_eq!(cache.get(&key(1)).unwrap(), entry(1));
        assert_eq!(cache.get(&key_for("GP", 9)).unwrap(), entry_for("GP", 9));
        // Migration happens once; a reload sees plain shards.
        drop(cache);
        let again = AutotuneCache::at_path(&dir);
        assert_eq!(again.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_legacy_blob_is_set_aside_not_trusted() {
        let dir = temp_dir("migrate-bad");
        std::fs::write(&dir, "not a cache at all").unwrap();
        let cache = AutotuneCache::at_path(&dir);
        assert!(cache.is_empty());
        assert!(dir.is_dir());
        let mut aside = dir.as_os_str().to_owned();
        aside.push(".invalid");
        let aside = PathBuf::from(aside);
        assert!(
            aside.exists(),
            "invalid blob must be set aside, not deleted"
        );
        let _ = std::fs::remove_file(aside);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_rewrites_only_its_own_shard() {
        let dir = temp_dir("isolation");
        let cache = AutotuneCache::at_path(&dir);
        cache.put(entry(1)).unwrap();
        cache.put(entry_for("HS", 1)).unwrap();
        let hs_shard = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .find(|e| e.file_name().to_string_lossy().starts_with("shard-hs"))
            .unwrap()
            .path();
        let before = std::fs::read(&hs_shard).unwrap();
        for seed in 2..30 {
            cache.put(entry(seed)).unwrap();
        }
        let after = std::fs::read(&hs_shard).unwrap();
        assert_eq!(before, after, "LV puts must not rewrite the HS shard");
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
}
