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
//! * **sharded persistence** ([`shard`]): one append-only, per-record
//!   checksummed log per workflow under a cache directory, with a small
//!   in-memory index of where each campaign's record sits — a `put`
//!   appends one record and a disk-tier `get` reads and decodes one, so
//!   neither depends on how many campaigns are cached. A cache of an older
//!   layout is not migrated in place: `cache import` converts it. A
//!   campaign whose write fails is counted, warned about and still served
//!   from the front;
//! * **portable bundles** ([`transfer`]): `export`/`import` move the
//!   whole cache as one checksummed file, so a deployment can ship its
//!   tuning results with the program and cold-start warm.

pub mod lru;
pub mod shard;
pub mod transfer;

use crate::metrics::ServerMetrics;
use ceal_trace::{TraceContext, Tracer};
use lru::LruFront;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use shard::ShardStore;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

pub use transfer::{
    bundle_from_json, bundle_to_json, feature_distance, platform_features, platform_fingerprint,
    TransferHit, DEFAULT_TRANSFER_THRESHOLD,
};

/// Default capacity of the in-memory LRU front, in campaigns.
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
    /// An in-memory cache with the default LRU capacity (nothing
    /// persisted: a campaign evicted from the front is gone).
    pub fn in_memory() -> Self {
        Self::in_memory_with_capacity(DEFAULT_LRU_CAPACITY)
    }

    /// [`AutotuneCache::in_memory`] with an explicit LRU capacity.
    pub fn in_memory_with_capacity(capacity: usize) -> Self {
        Self {
            front: Mutex::new(LruFront::new(capacity)),
            store: None,
            lru_hits: AtomicU64::new(0),
            lru_misses: AtomicU64::new(0),
        }
    }

    /// A cache persisted as per-workflow record logs in the directory at
    /// `path`, with the default LRU-front capacity. A shard with a torn or
    /// corrupt tail serves everything before it and an unreadable one
    /// serves nothing; neither is an error — serving must start
    /// regardless. One process owns a cache directory at a time.
    pub fn at_path(path: impl AsRef<Path>) -> Self {
        Self::at_path_with_capacity(path, DEFAULT_LRU_CAPACITY)
    }

    /// [`AutotuneCache::at_path`] with an explicit LRU-front capacity.
    pub fn at_path_with_capacity(path: impl AsRef<Path>, capacity: usize) -> Self {
        Self::at_path_traced(path, capacity, &Tracer::disabled())
    }

    /// [`AutotuneCache::at_path_with_capacity`], reporting through
    /// `tracer`: an unusable cache directory as a `cache.unusable`
    /// warning, every dropped tail or set-aside file as
    /// `cache.shard-recovered`, and each shard's first-touch scan as a
    /// `cache.shard-indexed` instant, and a cache of an older layout as a
    /// `cache.older-layout` warning (warnings reach stderr either way).
    pub fn at_path_traced(path: impl AsRef<Path>, capacity: usize, tracer: &Tracer) -> Self {
        let store = match ShardStore::open(path.as_ref(), tracer) {
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
            store,
            ..Self::in_memory_with_capacity(capacity)
        }
    }

    /// Number of cached campaigns (on disk for persistent caches,
    /// counted from the shard indexes — nothing is decoded).
    pub fn len(&self) -> usize {
        match &self.store {
            Some(store) => store.len_by_workflow().values().sum(),
            None => self.front.lock().len(),
        }
    }

    /// Number of cached campaigns per workflow, counted like
    /// [`AutotuneCache::len`].
    pub fn len_by_workflow(&self) -> BTreeMap<String, usize> {
        match &self.store {
            Some(store) => store.len_by_workflow(),
            None => {
                let mut counts = BTreeMap::new();
                for key in self.front.lock().keys() {
                    *counts.entry(key.workflow.clone()).or_default() += 1;
                }
                counts
            }
        }
    }

    /// Whether the cache holds no campaigns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shard logs on disk (0 for in-memory caches).
    pub fn shard_count(&self) -> usize {
        self.store.as_ref().map_or(0, ShardStore::shard_count)
    }

    /// Looks up a campaign by key: LRU front first, then the workflow's
    /// shard on disk — an index lookup and one decoded record — promoting
    /// a disk hit into the front.
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
        match self.store.as_ref().and_then(|store| store.get(key)) {
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
    /// When this returns `Ok` the campaign survives a crash: its record
    /// is appended to the shard's log and `sync_data`ed (and, for a
    /// shard's first record, the directory fsynced) before the index
    /// learns of it. A replaced key is a newer record shadowing the
    /// older one. Concurrent puts are safe: same-workflow writers queue
    /// on the shard's lock, different workflows don't contend at all.
    pub fn put(&self, entry: CacheEntry) -> std::io::Result<()> {
        let persisted = match &self.store {
            Some(store) => store.put(&entry),
            None => Ok(()),
        };
        self.front.lock().insert(entry);
        persisted
    }

    /// Publishes a finished campaign. A failed disk write degrades
    /// durability, not correctness: the entry still serves from memory,
    /// and the failure is counted and warned about, naming the publishing
    /// `session` (0 for a one-shot `Tune`).
    pub(crate) fn publish(
        &self,
        entry: CacheEntry,
        metrics: &ServerMetrics,
        tracer: &Tracer,
        ctx: TraceContext,
        session: u64,
    ) {
        if let Err(e) = self.put(entry) {
            metrics
                .cache_persist_failures
                .fetch_add(1, Ordering::Relaxed);
            let message = format!("cache persistence failed: {e}");
            tracer.warn(
                "cache.persist-failed",
                ctx,
                &message,
                &[("session", session.into())],
            );
        }
    }

    /// Nearest sibling campaign usable as a transfer seed: same workflow
    /// and objective as `key`, different platform, feature distance to
    /// `features` within `threshold`. Ranks the workflow's shard by its
    /// index (decoding only the winner) and then the resident front, the
    /// shard winning ties; never touches other workflows' shards.
    pub fn nearest_transfer(
        &self,
        key: &CacheKey,
        features: &[f64],
        threshold: f64,
    ) -> Option<TransferHit> {
        let disk = self
            .store
            .as_ref()
            .and_then(|store| store.nearest(key, features, threshold));
        let front = self.front.lock().nearest(key, features, threshold);
        match (disk, front) {
            (Some(disk), Some(front)) if front.distance < disk.distance => Some(front),
            (Some(disk), _) => Some(disk),
            (None, front) => front,
        }
    }

    /// Every cached campaign, for export. Disk is authoritative when
    /// present (the front is a subset of it).
    pub fn all_entries(&self) -> Vec<CacheEntry> {
        match &self.store {
            Some(store) => store.all_entries(),
            None => self.front.lock().entries(),
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
mod tests;
