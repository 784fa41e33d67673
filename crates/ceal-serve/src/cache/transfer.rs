//! Cross-platform transfer: platform feature vectors, nearest-neighbour
//! lookup, and portable cache bundles.
//!
//! The exact-match cache answers "have I tuned *this* platform before?".
//! Transfer answers the more valuable question a shipped cache raises
//! (kubecl's autotune: "ship the cache with your program"): *have I tuned
//! anything close enough to be worth starting from?* Every cached entry
//! carries the normalized feature vector of the platform it was measured
//! on; a near-miss within a distance threshold seeds the new campaign's
//! bootstrap phase with the sibling's samples as a low-fidelity prior —
//! never as the final answer.

use super::{AutotuneCache, CacheEntry, CacheKey};
use crate::metrics::ServerMetrics;
use ceal_core::TransferPrior;
use ceal_sim::Platform;
use ceal_trace::{TraceContext, Tracer};
use serde::{Deserialize, Serialize};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Distance threshold below which a sibling platform's campaign is close
/// enough to seed from. Distances are root-mean-square log-ratios per
/// feature, so 0.5 admits siblings whose parameters differ by roughly
/// ±65% on average — far enough to cover a hardware refresh, near enough
/// that the performance landscape still ranks similarly.
pub const DEFAULT_TRANSFER_THRESHOLD: f64 = 0.5;

/// FNV-1a, the checksum the cache has always used.
pub(crate) fn fnv64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Stable fingerprint of a [`Platform`]: results measured on one machine
/// model must never answer exact-match queries about another.
pub fn platform_fingerprint(p: &Platform) -> String {
    let mut repr = String::new();
    for f in platform_features(p) {
        repr.push_str(&format!("{f:.12e}|"));
    }
    format!("{:016x}", fnv64(repr.as_bytes()))
}

/// The structured feature vector of a [`Platform`], each field normalized
/// by the paper-testbed default so every dimension is O(1) and the
/// distance metric weighs a doubling of core count like a doubling of
/// fabric bandwidth.
///
/// The struct is destructured exhaustively on purpose: adding a field to
/// `Platform` is a compile error here until the feature vector (and with
/// it the fingerprint, which hashes these features) accounts for it.
pub fn platform_features(p: &Platform) -> Vec<f64> {
    let Platform {
        total_nodes,
        cores_per_node,
        link_bandwidth,
        fabric_bandwidth,
        net_latency,
        chunk_overhead,
        fs_bandwidth,
        fs_per_proc_bandwidth,
        fs_open_overhead,
        mem_bw_share,
        staging_interference,
    } = *p;
    let d = Platform::default();
    vec![
        total_nodes as f64 / d.total_nodes as f64,
        cores_per_node as f64 / d.cores_per_node as f64,
        link_bandwidth / d.link_bandwidth,
        fabric_bandwidth / d.fabric_bandwidth,
        net_latency / d.net_latency,
        chunk_overhead / d.chunk_overhead,
        fs_bandwidth / d.fs_bandwidth,
        fs_per_proc_bandwidth / d.fs_per_proc_bandwidth,
        fs_open_overhead / d.fs_open_overhead,
        mem_bw_share / d.mem_bw_share,
        staging_interference / d.staging_interference,
    ]
}

/// Distance between two platform feature vectors: root-mean-square of
/// per-dimension log-ratios. Log space makes the metric scale-free and
/// symmetric — a platform with half the bandwidth is as far away as one
/// with double — and mismatched or degenerate vectors (legacy entries
/// cached before features existed) are infinitely far, so they can never
/// win a nearest-neighbour lookup.
pub fn feature_distance(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() || a.is_empty() {
        return f64::INFINITY;
    }
    let mut sum = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        if x <= 0.0 || y <= 0.0 || !x.is_finite() || !y.is_finite() {
            return f64::INFINITY;
        }
        let d = (x / y).ln();
        sum += d * d;
    }
    (sum / a.len() as f64).sqrt()
}

/// A near-miss cache hit: a sibling platform's completed campaign close
/// enough to seed from.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferHit {
    /// The sibling campaign.
    pub entry: CacheEntry,
    /// Feature-space distance to the querying platform.
    pub distance: f64,
}

/// What makes a cached campaign a transfer candidate, without its
/// samples — the view the disk tier's index keeps of every entry.
pub(crate) struct Candidate<'a> {
    pub(crate) key: &'a CacheKey,
    pub(crate) platform_features: &'a [f64],
    pub(crate) has_samples: bool,
}

impl Candidate<'_> {
    /// Feature distance to the platform asking for `key`, when this
    /// campaign may seed it.
    ///
    /// Eligibility: same workflow and objective (the landscape being
    /// transferred), a *different* platform fingerprint (an exact match is
    /// an exact hit, not a transfer), samples to seed from, and a valid
    /// feature vector within `threshold`. Pool size, seed, budget, and
    /// algorithm are deliberately ignored — prior samples are useful
    /// regardless of how the sibling campaign chose them.
    pub(crate) fn distance(&self, key: &CacheKey, features: &[f64], threshold: f64) -> Option<f64> {
        if self.key.workflow != key.workflow
            || self.key.objective != key.objective
            || self.key.platform == key.platform
            || !self.has_samples
        {
            return None;
        }
        let d = feature_distance(self.platform_features, features);
        (d <= threshold).then_some(d)
    }
}

/// Scans `candidates` — each a view of one cached campaign and whatever
/// the caller needs to fetch it — for the nearest sibling usable as a
/// transfer seed for `key` on a platform with `features` (see
/// [`Candidate::distance`]); the first of equally near siblings wins.
/// Returns the winner's handle and its distance.
pub(crate) fn nearest<'a, T>(
    candidates: impl Iterator<Item = (Candidate<'a>, T)>,
    key: &CacheKey,
    features: &[f64],
    threshold: f64,
) -> Option<(T, f64)> {
    let mut best: Option<(T, f64)> = None;
    for (seed, handle) in candidates {
        let Some(d) = seed.distance(key, features, threshold) else {
            continue;
        };
        if best.as_ref().is_none_or(|&(_, nearest)| d < nearest) {
            best = Some((handle, d));
        }
    }
    best
}

/// How a new campaign starts, given what the cache holds for its key.
pub(crate) enum WarmStart {
    /// An exact hit: the campaign is already finished, at zero oracle spend.
    Exact(CacheEntry),
    /// The nearest cached sibling platform within the transfer threshold:
    /// its samples are the stepper's prior.
    Transfer(TransferPrior),
    /// Nothing usable cached.
    Cold,
}

impl WarmStart {
    /// The tier's name on the wire (`SessionStatus::warm_source`).
    pub(crate) fn source(&self) -> &'static str {
        match self {
            Self::Exact(_) => "exact",
            Self::Transfer(_) => "transfer",
            Self::Cold => "cold",
        }
    }
}

/// Consults `cache` tier by tier for a session campaign keyed `key` on the
/// platform whose [`platform_features`] are `features`: **exact**, failing
/// that the nearest sibling within `threshold` (`0.0` disables transfer),
/// otherwise **cold**. Counts the hit, miss and transfer-seeded metrics
/// and records one `cache.lookup` event in `trace`, naming both the store
/// tier that answered (`front`/`disk`/`miss`) and the campaign tier the
/// session starts in.
pub(crate) fn warm_start(
    cache: &AutotuneCache,
    key: &CacheKey,
    features: &[f64],
    threshold: f64,
    metrics: &ServerMetrics,
    tracer: &Tracer,
    trace: u64,
) -> WarmStart {
    let start = Instant::now();
    let (hit, tier) = cache.get_with_tier(key);
    let warm = match hit {
        Some(entry) => {
            metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            WarmStart::Exact(entry)
        }
        None => {
            metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
            let near = (threshold > 0.0).then(|| cache.nearest_transfer(key, features, threshold));
            match near.flatten() {
                Some(near) => {
                    metrics
                        .cache_transfer_seeded
                        .fetch_add(1, Ordering::Relaxed);
                    let (samples, from) = (near.entry.samples, near.entry.key.platform);
                    WarmStart::Transfer(TransferPrior::new(samples, from, near.distance))
                }
                None => WarmStart::Cold,
            }
        }
    };
    if tracer.enabled() {
        let at = [
            ("endpoint", "create-session".into()),
            ("tier", tier.into()),
            ("warm", warm.source().into()),
            ("us", (start.elapsed().as_micros() as u64).into()),
        ];
        tracer.instant("cache.lookup", TraceContext::root(trace), &at);
    }
    warm
}

/// The checked `{checksum, entries}` JSON layout of a portable bundle —
/// also what the pre-log shard files and the legacy whole-cache blob
/// were, which is why `cache import` converts them.
/// The checksum is FNV-64 over the compact JSON of `entries`.
#[derive(Serialize)]
struct BundleView<'a> {
    checksum: String,
    entries: &'a [CacheEntry],
}

#[derive(Deserialize)]
struct Bundle {
    checksum: String,
    entries: Vec<CacheEntry>,
}

fn checksum(entries: &[CacheEntry]) -> serde_json::Result<String> {
    let json = serde_json::to_string(entries)?;
    Ok(format!("{:016x}", fnv64(json.as_bytes())))
}

/// Serializes entries as a portable single-file bundle, checksum
/// included, for `cache export`.
pub fn bundle_to_json(entries: &[CacheEntry]) -> std::io::Result<String> {
    let view = BundleView {
        checksum: checksum(entries).map_err(std::io::Error::other)?,
        entries,
    };
    serde_json::to_string_pretty(&view).map_err(std::io::Error::other)
}

/// Parses and validates a bundle produced by [`bundle_to_json`] (or a
/// pre-log shard file or legacy whole-cache blob — same layout). `None`
/// when unparsable or on checksum mismatch.
pub fn bundle_from_json(text: &str) -> Option<Vec<CacheEntry>> {
    let bundle: Bundle = serde_json::from_str(text).ok()?;
    (checksum(&bundle.entries).ok()? == bundle.checksum).then_some(bundle.entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_platform_features_are_all_unit() {
        let f = platform_features(&Platform::default());
        assert_eq!(f.len(), 11);
        assert!(f.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn fingerprint_differs_when_any_field_changes() {
        let base = platform_fingerprint(&Platform::default());
        let mut p = Platform::default();
        p.cores_per_node += 1;
        assert_ne!(platform_fingerprint(&p), base);
        let mut p = Platform::default();
        p.staging_interference *= 1.5;
        assert_ne!(platform_fingerprint(&p), base);
    }

    #[test]
    fn distance_is_symmetric_and_scale_free() {
        let a = platform_features(&Platform::default());
        let mut p = Platform::default();
        p.link_bandwidth /= 2.0;
        let b = platform_features(&p);
        let ab = feature_distance(&a, &b);
        let ba = feature_distance(&b, &a);
        assert!((ab - ba).abs() < 1e-12);
        // One halved dimension out of 11: RMS log-ratio = ln(2)/sqrt(11).
        assert!((ab - (2.0f64).ln() / (11.0f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn legacy_entries_without_features_are_infinitely_far() {
        let a = platform_features(&Platform::default());
        assert_eq!(feature_distance(&a, &[]), f64::INFINITY);
        assert_eq!(feature_distance(&[], &a), f64::INFINITY);
    }
}
