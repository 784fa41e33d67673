//! The in-memory LRU front of the tiered cache.
//!
//! Hot lookups must never touch disk, but the cache directory can hold
//! far more campaigns than are worth pinning in memory, so the front is
//! capacity-bounded with least-recently-used eviction: a `HashMap` holds
//! the residents, each tagged with the tick of its last touch, and a
//! `BTreeMap` orders them by that tick — exactly one record per resident,
//! moved on every touch, so the eviction victim is its first record and
//! the order never outgrows the map.
//!
//! A long-lived server pins up to its full capacity of campaigns here, so
//! a resident is held once and packed (`Resident`): one shared copy of
//! the key, and the samples' configurations in one flat buffer instead of
//! a `Vec` each. `get` rebuilds the [`CacheEntry`] it hands out.

use super::transfer::{self, Candidate, TransferHit};
use super::{CacheEntry, CacheKey};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

pub(crate) struct LruFront {
    /// Maximum resident entries.
    capacity: usize,
    entries: HashMap<Arc<CacheKey>, Resident>,
    /// Residents by the tick of their last touch, least recent first.
    order: BTreeMap<u64, Arc<CacheKey>>,
    tick: u64,
    /// Evictions performed since creation.
    pub(crate) evictions: u64,
}

/// A [`CacheEntry`] without its key, samples packed.
struct Resident {
    best: Vec<i64>,
    best_value: f64,
    runs_used: u64,
    component_runs: u64,
    /// Every sample's configuration, back to back.
    configs: Vec<i64>,
    /// Per sample: how many of `configs` are its configuration (entries
    /// from an imported bundle may be ragged), and its value.
    samples: Vec<(usize, f64)>,
    platform_features: Vec<f64>,
    last_touch: u64,
}

impl Resident {
    fn pack(entry: CacheEntry, last_touch: u64) -> (CacheKey, Self) {
        let mut configs = Vec::with_capacity(entry.samples.iter().map(|(c, _)| c.len()).sum());
        let mut samples = Vec::with_capacity(entry.samples.len());
        for (config, value) in entry.samples {
            configs.extend_from_slice(&config);
            samples.push((config.len(), value));
        }
        let resident = Self {
            best: entry.best,
            best_value: entry.best_value,
            runs_used: entry.runs_used,
            component_runs: entry.component_runs,
            configs,
            samples,
            platform_features: entry.platform_features,
            last_touch,
        };
        (entry.key, resident)
    }

    fn unpack(&self, key: &CacheKey) -> CacheEntry {
        let mut configs = &self.configs[..];
        let mut samples = Vec::with_capacity(self.samples.len());
        for &(len, value) in &self.samples {
            let (config, rest) = configs.split_at(len);
            samples.push((config.to_vec(), value));
            configs = rest;
        }
        CacheEntry {
            key: key.clone(),
            best: self.best.clone(),
            best_value: self.best_value,
            runs_used: self.runs_used,
            component_runs: self.component_runs,
            samples,
            platform_features: self.platform_features.clone(),
        }
    }
}

impl LruFront {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            order: BTreeMap::new(),
            tick: 0,
            evictions: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Fetches and freshens an entry.
    pub(crate) fn get(&mut self, key: &CacheKey) -> Option<CacheEntry> {
        let resident = self.entries.get_mut(key)?;
        // Every resident has its order record; one without would read as
        // a miss here and be replaced by the caller's next insert.
        let shared = self.order.remove(&resident.last_touch)?;
        self.tick += 1;
        resident.last_touch = self.tick;
        let hit = resident.unpack(&shared);
        self.order.insert(self.tick, shared);
        Some(hit)
    }

    /// Inserts (or replaces) an entry, evicting the least recently used
    /// residents while over capacity.
    pub(crate) fn insert(&mut self, entry: CacheEntry) {
        self.tick += 1;
        let (key, resident) = Resident::pack(entry, self.tick);
        let shared = match self.entries.remove_entry(&key) {
            Some((shared, replaced)) => {
                self.order.remove(&replaced.last_touch);
                shared
            }
            None => Arc::new(key),
        };
        self.order.insert(self.tick, Arc::clone(&shared));
        self.entries.insert(shared, resident);
        while self.entries.len() > self.capacity {
            let Some((_, victim)) = self.order.pop_first() else {
                break; // unreachable: every resident has an order record
            };
            self.entries.remove(&*victim);
            self.evictions += 1;
        }
    }

    /// The resident campaigns' keys (no freshening).
    pub(crate) fn keys(&self) -> impl Iterator<Item = &CacheKey> {
        self.entries.keys().map(|k| &**k)
    }

    /// Every resident campaign, unpacked (no freshening).
    pub(crate) fn entries(&self) -> Vec<CacheEntry> {
        self.entries.iter().map(|(k, r)| r.unpack(k)).collect()
    }

    /// [`transfer::nearest`] over the residents; only the winner is
    /// unpacked.
    pub(crate) fn nearest(
        &self,
        key: &CacheKey,
        features: &[f64],
        threshold: f64,
    ) -> Option<TransferHit> {
        let candidates = self.entries.iter().map(|(k, r)| {
            let seed = Candidate {
                key: k,
                platform_features: &r.platform_features,
                has_samples: !r.samples.is_empty(),
            };
            (seed, (k, r))
        });
        let ((k, r), distance) = transfer::nearest(candidates, key, features, threshold)?;
        Some(TransferHit {
            entry: r.unpack(k),
            distance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> CacheKey {
        CacheKey {
            workflow: "LV".into(),
            platform: "fp".into(),
            objective: "comp".into(),
            pool: 500,
            seed,
            budget: 25,
            algo: "tune:ceal".into(),
        }
    }

    fn entry(seed: u64) -> CacheEntry {
        CacheEntry {
            key: key(seed),
            best: vec![1],
            best_value: seed as f64,
            runs_used: 1,
            component_runs: 0,
            samples: vec![],
            platform_features: vec![],
        }
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = LruFront::new(2);
        lru.insert(entry(1));
        lru.insert(entry(2));
        assert!(lru.get(&key(1)).is_some()); // freshen 1 → 2 is now LRU
        lru.insert(entry(3));
        assert_eq!(lru.len(), 2);
        assert!(lru.get(&key(2)).is_none(), "2 was LRU and must be evicted");
        assert!(lru.get(&key(1)).is_some());
        assert!(lru.get(&key(3)).is_some());
        assert_eq!(lru.evictions, 1);
    }

    #[test]
    fn replacement_does_not_grow_len() {
        let mut lru = LruFront::new(4);
        lru.insert(entry(1));
        let mut e = entry(1);
        e.best_value = 9.0;
        lru.insert(e);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get(&key(1)).unwrap().best_value, 9.0);
        assert_eq!(lru.evictions, 0);
    }

    #[test]
    fn touch_log_lazy_deletion_stays_correct_under_churn() {
        let mut lru = LruFront::new(8);
        for round in 0..100u64 {
            lru.insert(entry(round % 16));
            let _ = lru.get(&key(round % 5));
            assert!(lru.len() <= 8);
        }
        // The 8 residents must be the 8 most recently touched keys.
        assert_eq!(lru.len(), 8);
    }

    #[test]
    fn get_returns_what_insert_was_given() {
        let mut lru = LruFront::new(4);
        let full = CacheEntry {
            samples: vec![
                (vec![1, 2, 3], 0.5),
                (vec![], -1.0),
                (vec![i64::MIN, i64::MAX], f64::INFINITY),
                (vec![7], 0.0),
            ],
            platform_features: vec![1.0, 0.25],
            ..entry(1)
        };
        let empty = entry(2);
        lru.insert(full.clone());
        lru.insert(empty.clone());
        assert_eq!(lru.get(&key(1)), Some(full.clone()));
        assert_eq!(lru.get(&key(2)), Some(empty.clone()));
        let mut all = lru.entries();
        all.sort_by_key(|e| e.key.seed);
        assert_eq!(all, vec![full, empty]);
    }

    #[test]
    fn order_holds_one_record_per_resident_however_often_touched() {
        // A front below its capacity never evicts, so nothing else would
        // ever prune the order.
        let mut lru = LruFront::new(usize::MAX);
        for seed in 0..3 {
            lru.insert(entry(seed));
        }
        for round in 0..10_000u64 {
            assert!(lru.get(&key(round % 3)).is_some());
            lru.insert(entry(round % 3));
        }
        assert_eq!(lru.len(), 3);
        assert_eq!(lru.order.len(), 3);
    }

    #[test]
    fn nearest_ranks_residents_and_unpacks_the_winner() {
        let on = |platform: &str, features: Vec<f64>, seed: u64| CacheEntry {
            key: CacheKey {
                platform: platform.into(),
                ..key(seed)
            },
            samples: vec![(vec![seed as i64], 1.0)],
            platform_features: features,
            ..entry(seed)
        };
        let mut lru = LruFront::new(8);
        lru.insert(on("far", vec![1.3], 1));
        lru.insert(on("near", vec![1.1], 2));
        lru.insert(CacheEntry {
            samples: vec![],
            ..on("nearest-but-empty", vec![1.0], 3)
        });
        let hit = lru.nearest(&key(9), &[1.0], 0.5).expect("a sibling");
        assert_eq!(hit.entry, on("near", vec![1.1], 2));
        assert!(lru.nearest(&key(9), &[1.0], 0.01).is_none());
    }
}
