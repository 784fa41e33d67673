//! Sharded cache persistence: one append-only record log per workflow.
//!
//! ```text
//! shard-<name>-<hash>.log:
//! +----------+  +-----------+-----------+--------------------+  +----- ...
//! | CEALCSH1 |  | len (u32) | crc (u32) | compact-JSON entry |  | len ...
//! +----------+  +-----------+-----------+--------------------+  +----- ...
//! ```
//!
//! A shard log is a [`ceal_core::frame::Log`], the journal's record log
//! under its own magic: opening, torn-tail recovery, the durable append
//! and compaction's whole-file replace are that one routine, and what is
//! left here is what an entry means, the index, and the positioned reads.
//! A `put` appends one frame and syncs it; a replaced key is simply a
//! newer record that shadows the older one. In memory each shard keeps
//! only an index — per live key its platform features, whether it has
//! samples, the four fields a `Tune` replies with, and where its frame
//! sits — built by one scan the first time the shard is touched and kept
//! by every `put`, both of which hold the decoded entry already. So a
//! `get` reads, checks and decodes exactly one frame, a nearest-sibling
//! search decodes only its winner, and a `Tune`'s lookup reads nothing:
//! it answers from the row, whose answer was checked when the row was
//! built. A frame that goes bad after the scan is thus still a `Tune`'s
//! answer, a `get`'s warned miss, and where the next process's scan
//! truncates the log.
//!
//! That first-touch scan is also the only place a log is ever rewritten:
//! a torn or corrupt tail is truncated (everything before it still
//! serves), and when shadowed records outweigh live ones the live frames
//! are compacted into a fresh file ([`ceal_core::frame::Log::replace`]).
//! Offsets therefore never move while a process serves, which is what
//! lets reads happen outside the shard lock. The lock is in-process: one
//! process owns a cache directory at a time.
//!
//! A `Tune` looks up in one of two ways: `answer`, which may wait for the
//! locks and index the shard, and `answer_nowait` for the reactor thread,
//! which takes the shard map and the shard lock only if they are free and
//! never indexes; whatever it cannot answer that way it leaves to
//! `answer`.
//!
//! A log whose magic is wrong is set aside as `*.invalid`, never trusted
//! and never destroyed. Caches of the layouts before the log (a directory
//! of `shard-*.json` files in the bundle layout, or a single file) are not
//! read here at all: `cache import` converts them.

use super::transfer::{self, TransferHit};
use super::{CacheEntry, CacheKey, TuneAnswer};
use ceal_core::frame;
use ceal_par::sync::Mutex;
use ceal_trace::{TraceContext, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::os::unix::fs::FileExt as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Identifies a cache record log (and its version).
pub(crate) const LOG_MAGIC: &[u8; 8] = b"CEALCSH1";

/// What the index remembers about one live entry — enough to answer
/// "is it cached?", to rank transfer candidates and to answer a `Tune`
/// without decoding the frame. Never the samples.
struct Row {
    platform_features: Vec<f64>,
    has_samples: bool,
    answer: TuneAnswer,
    span: Span,
}

impl Row {
    fn of(entry: &CacheEntry, span: Span) -> Row {
        Row {
            platform_features: entry.platform_features.clone(),
            has_samples: !entry.samples.is_empty(),
            answer: TuneAnswer::of(entry),
            span,
        }
    }
}

/// Where one entry's frame sits in the log. Live rows ordered by
/// `offset` are the shard's entries in the order of their latest `put`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Span {
    offset: u64,
    /// Payload length.
    len: u32,
}

impl Span {
    fn frame_len(self) -> u64 {
        (frame::HEADER_LEN + self.len as usize) as u64
    }
}

/// One shard's open log and index, guarded by the shard lock.
struct ShardLog {
    log: frame::Log,
    rows: HashMap<CacheKey, Row>,
}

struct Shard {
    path: PathBuf,
    /// `None` until first touch. Same-workflow writers queue here while
    /// different workflows persist in parallel.
    log: Mutex<Option<ShardLog>>,
}

/// The on-disk half of the tiered cache: a directory of per-workflow
/// record logs.
pub(crate) struct ShardStore {
    dir: PathBuf,
    tracer: Tracer,
    shards: Mutex<HashMap<PathBuf, Arc<Shard>>>,
}

impl ShardStore {
    /// Opens (creating if needed) the cache directory at `dir`, sweeping
    /// stale `*.tmp.*` leftovers of a crashed compaction. A cache of an
    /// older layout — a single file at `dir`, or `shard-*.json` files in
    /// it — is left untouched: the first is an error, the second a
    /// warning, both naming `cache import`, which converts either.
    pub(crate) fn open(dir: &Path, tracer: &Tracer) -> std::io::Result<ShardStore> {
        if dir.is_file() {
            let dir = dir.display();
            return Err(std::io::Error::other(format!(
                "a cache file of an older layout; `cache import <dir> {dir}` converts it"
            )));
        }
        std::fs::create_dir_all(dir)?;
        let store = ShardStore {
            dir: dir.to_path_buf(),
            tracer: tracer.clone(),
            shards: Mutex::new(HashMap::new()),
        };
        for tmp in store.files_named(|n| n.contains(".tmp.")) {
            let _ = std::fs::remove_file(tmp);
        }
        let older = store.files_named(|n| n.starts_with("shard-") && n.ends_with(".json"));
        if let Some(file) = older.first() {
            let (dir, file) = (dir.display(), file.display());
            let message = format!(
                "cache {dir} holds files of an older layout, such as {file}, left \
                 untouched; `cache import {dir} <file>` converts each"
            );
            tracer.warn("cache.older-layout", TraceContext::NONE, &message, &[]);
        }
        Ok(store)
    }

    /// Renames an untrustworthy file to `<name>.invalid` and says so.
    fn set_aside(&self, path: &Path) -> std::io::Result<()> {
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        let mut aside = path.as_os_str().to_owned();
        aside.push(".invalid");
        std::fs::rename(path, PathBuf::from(aside))?;
        self.recovered(
            &file_name(path),
            path,
            bytes,
            0,
            "failed validation; set aside",
        );
        Ok(())
    }

    fn recovered(&self, workflow: &str, path: &Path, truncated: u64, kept: usize, what: &str) {
        self.tracer.warn(
            "cache.shard-recovered",
            TraceContext::NONE,
            &format!(
                "cache file {}: {what} ({truncated} bytes dropped, {kept} entries kept)",
                path.display()
            ),
            &[
                ("workflow", workflow.into()),
                ("truncated_bytes", truncated.into()),
                ("entries_kept", kept.into()),
            ],
        );
    }

    /// Paths of the directory's files whose name satisfies `wanted`,
    /// sorted so scans (and exports) have a stable order.
    fn files_named(&self, wanted: impl Fn(&str) -> bool) -> Vec<PathBuf> {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut paths: Vec<PathBuf> = dir
            .flatten()
            .filter(|e| e.file_name().to_str().is_some_and(&wanted))
            .map(|e| e.path())
            .collect();
        paths.sort();
        paths
    }

    fn log_paths(&self) -> Vec<PathBuf> {
        self.files_named(|n| n.starts_with("shard-") && n.ends_with(".log"))
    }

    /// The log holding `workflow`'s entries.
    fn shard(&self, workflow: &str) -> Arc<Shard> {
        self.shard_at(self.shard_path(workflow))
    }

    /// Where `workflow`'s log lives. The sanitized name keeps files
    /// readable; the hash suffix keeps distinct workflows that sanitize
    /// identically from colliding.
    fn shard_path(&self, workflow: &str) -> PathBuf {
        let sanitized: String = workflow
            .chars()
            .map(|c| match c.is_ascii_alphanumeric() {
                true => c.to_ascii_lowercase(),
                false => '_',
            })
            .take(32)
            .collect();
        let hash = transfer::fnv64(workflow.as_bytes()) as u32;
        self.dir.join(format!("shard-{sanitized}-{hash:08x}.log"))
    }

    fn shard_at(&self, path: PathBuf) -> Arc<Shard> {
        let mut shards = self.shards.lock();
        match shards.get(&path) {
            Some(shard) => Arc::clone(shard),
            None => {
                let shard = Arc::new(Shard {
                    path: path.clone(),
                    log: Mutex::new(None),
                });
                shards.insert(path, Arc::clone(&shard));
                shard
            }
        }
    }

    /// Runs `f` on the shard's log under its lock, indexing the file
    /// first if this is the shard's first touch. A failed index is not
    /// remembered: the next touch tries again.
    fn with_log<R>(
        &self,
        shard: &Shard,
        f: impl FnOnce(&mut ShardLog) -> std::io::Result<R>,
    ) -> std::io::Result<R> {
        let mut guard = shard.log.lock();
        let log = match guard.take() {
            Some(log) => log,
            None => self.index(&shard.path)?,
        };
        f(guard.insert(log))
    }

    /// The first-touch scan: verifies every frame, keeps the newest row
    /// per key, truncates a torn or corrupt tail, and compacts when the
    /// shadowed records outweigh the live ones.
    fn index(&self, path: &Path) -> std::io::Result<ShardLog> {
        let started = Instant::now();
        let mut rows: HashMap<CacheKey, Row> = HashMap::new();
        let mut dead_bytes = 0;
        let opened = frame::Log::open(path, LOG_MAGIC, |offset, payload| {
            // Checksummed but unintelligible: treat as torn.
            let Ok(entry) = serde_json::from_slice::<CacheEntry>(payload) else {
                return false;
            };
            let span = Span {
                offset: offset as u64,
                len: payload.len() as u32,
            };
            let row = Row::of(&entry, span);
            if let Some(shadowed) = rows.insert(entry.key, row) {
                dead_bytes += shadowed.span.frame_len();
            }
            true
        })?;
        let frame::Opened::Log(log, bytes) = opened else {
            self.set_aside(path)?;
            // The path is free now: what opens there is an empty log.
            return self.index(path);
        };
        let mut shard_log = ShardLog { log, rows };
        if shard_log.log.file().is_none() {
            return Ok(shard_log);
        }
        let workflow = match shard_log.rows.keys().next() {
            Some(key) => key.workflow.clone(),
            None => file_name(path),
        };
        let torn = bytes.len() as u64 - shard_log.log.committed();
        if torn > 0 {
            let kept = shard_log.rows.len();
            self.recovered(&workflow, path, torn, kept, "torn or corrupt tail cut");
        }
        let live_bytes: u64 = shard_log.rows.values().map(|r| r.span.frame_len()).sum();
        if dead_bytes > live_bytes {
            compact(&bytes, &mut shard_log)?;
        }
        self.tracer.instant(
            "cache.shard-indexed",
            TraceContext::NONE,
            &[
                ("workflow", workflow.into()),
                ("entries", shard_log.rows.len().into()),
                ("dead_bytes", dead_bytes.into()),
                ("scan_us", (started.elapsed().as_micros() as u64).into()),
            ],
        );
        Ok(shard_log)
    }

    /// Persists one campaign: one frame appended to its workflow's log.
    /// The index row is added only after the bytes are durable.
    pub(crate) fn put(&self, entry: &CacheEntry) -> std::io::Result<()> {
        // Encode before taking the lock: same-shard writers then queue
        // only for the write itself.
        let payload = serde_json::to_vec(entry).map_err(std::io::Error::other)?;
        let header = frame::header(&payload).ok_or_else(|| {
            std::io::Error::other(format!("cache entry of {} bytes", payload.len()))
        })?;
        let frame = [&header[..], &payload].concat();
        let len = payload.len() as u32;
        self.with_log(&self.shard(&entry.key.workflow), |shard_log| {
            let offset = shard_log.log.append(&frame)?;
            let row = Row::of(entry, Span { offset, len });
            shard_log.rows.insert(entry.key.clone(), row);
            Ok(())
        })
    }

    /// Runs `f` on the shard's index under its lock; an unreadable shard
    /// is a warned `None`.
    fn indexed<T>(&self, shard: &Shard, f: impl FnOnce(&ShardLog) -> T) -> Option<T> {
        self.with_log(shard, |log| Ok(Some(f(log))))
            .unwrap_or_else(|e| self.unreadable(shard, &e))
    }

    /// Lets `choose` pick from the index under the shard lock; what it
    /// picks is then read outside the lock through the returned handle
    /// (offsets never move once a shard is indexed).
    fn pick<T>(
        &self,
        shard: &Shard,
        choose: impl FnOnce(&ShardLog) -> Option<T>,
    ) -> Option<(Arc<File>, T)> {
        self.indexed(shard, |s| s.log.file().cloned().zip(choose(s)))?
    }

    /// Reads the frame at `span`, checks it, and decodes its entry.
    fn fetch(&self, shard: &Shard, file: &File, span: Span) -> Option<CacheEntry> {
        let read = || {
            let mut buf = vec![0u8; span.frame_len() as usize];
            file.read_exact_at(&mut buf, span.offset)?;
            let payload = frame::first(&buf)
                .filter(|p| p.len() == span.len as usize)
                .ok_or_else(|| std::io::Error::other("frame fails its checksum"))?;
            serde_json::from_slice(payload).map_err(std::io::Error::other)
        };
        read().map_or_else(|e| self.unreadable(shard, &e), Some)
    }

    /// An unreadable shard or frame is a warned miss — serving goes on.
    fn unreadable<T>(&self, shard: &Shard, e: &std::io::Error) -> Option<T> {
        self.tracer.warn(
            "cache.shard-unreadable",
            TraceContext::NONE,
            &format!("cache log {} unreadable: {e}", shard.path.display()),
            &[("workflow", file_name(&shard.path).into())],
        );
        None
    }

    /// Looks `key` up in its workflow's index and decodes that one entry.
    pub(crate) fn get(&self, key: &CacheKey) -> Option<CacheEntry> {
        let shard = self.shard(&key.workflow);
        let (file, span) = self.pick(&shard, |log| log.rows.get(key).map(|row| row.span))?;
        self.fetch(&shard, &file, span)
    }

    /// [`ShardStore::get`] for a `Tune`: the answer `key`'s index row
    /// holds. No frame is read.
    pub(crate) fn answer(&self, key: &CacheKey) -> Option<TuneAnswer> {
        let shard = self.shard(&key.workflow);
        self.indexed(&shard, |log| {
            log.rows.get(key).map(|row| row.answer.clone())
        })?
    }

    /// [`ShardStore::answer`] for a caller that must not wait: the answer
    /// if the shard map is free and knows the shard (one it does not know
    /// has not been indexed either), the shard is already indexed, its lock
    /// is free (a `put` holds it across its fsync, the first-touch scan
    /// across a whole-file read), and `key` is in it. Anything else is
    /// `None` and is left to `answer`, which waits.
    pub(crate) fn answer_nowait(&self, key: &CacheKey) -> Option<TuneAnswer> {
        let path = self.shard_path(&key.workflow);
        let shard = Arc::clone(self.shards.try_lock()?.get(&path)?);
        let log = shard.log.try_lock()?;
        Some(log.as_ref()?.rows.get(key)?.answer.clone())
    }

    /// Each live row of `workflow`'s shard: its answer, and the entry its
    /// frame decodes to.
    #[cfg(test)]
    pub(super) fn rows(&self, workflow: &str) -> Vec<(TuneAnswer, CacheEntry)> {
        let shard = self.shard(workflow);
        let (file, rows) = self
            .pick(&shard, |log| {
                let rows = log.rows.values().map(|row| (row.answer.clone(), row.span));
                Some(rows.collect::<Vec<_>>())
            })
            .expect("an indexed shard with a file");
        let decoded = rows.into_iter().map(|(answer, span)| {
            let entry = self
                .fetch(&shard, &file, span)
                .expect("a frame that decodes");
            (answer, entry)
        });
        decoded.collect()
    }

    /// Runs `f` holding `workflow`'s shard lock, as a `put` holds it.
    pub(crate) fn with_shard_locked<R>(&self, workflow: &str, f: impl FnOnce() -> R) -> R {
        let shard = self.shard(workflow);
        let _held = shard.log.lock();
        f()
    }

    /// Runs `f` holding the shard map, as finding or adding a shard holds it.
    pub(crate) fn with_shard_map_locked<R>(&self, f: impl FnOnce() -> R) -> R {
        let _held = self.shards.lock();
        f()
    }

    /// [`transfer::nearest`] over the workflow's index rows in append
    /// order (the earliest of equally near siblings wins, as there);
    /// only the winner is read from disk.
    pub(crate) fn nearest(
        &self,
        key: &CacheKey,
        features: &[f64],
        threshold: f64,
    ) -> Option<TransferHit> {
        let shard = self.shard(&key.workflow);
        let (file, (distance, span)) = self.pick(&shard, |log| {
            let candidates = log.rows.iter().filter_map(|(candidate, row)| {
                let seed = transfer::Candidate {
                    key: candidate,
                    platform_features: &row.platform_features,
                    has_samples: row.has_samples,
                };
                Some((seed.distance(key, features, threshold)?, row.span))
            });
            candidates.min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        })?;
        let entry = self.fetch(&shard, &file, span)?;
        Some(TransferHit { entry, distance })
    }

    /// Every live entry of every shard, each shard's in append order —
    /// the one full decode of the store (export).
    pub(crate) fn all_entries(&self) -> Vec<CacheEntry> {
        let mut out = Vec::new();
        for path in self.log_paths() {
            let shard = self.shard_at(path);
            let picked = self.pick(&shard, |log| {
                let mut spans: Vec<Span> = log.rows.values().map(|row| row.span).collect();
                spans.sort_unstable();
                Some(spans)
            });
            let Some((file, spans)) = picked else {
                continue;
            };
            out.extend(
                spans
                    .into_iter()
                    .filter_map(|span| self.fetch(&shard, &file, span)),
            );
        }
        out
    }

    /// Live campaigns per workflow, counted from the indexes alone.
    pub(crate) fn len_by_workflow(&self) -> BTreeMap<String, usize> {
        let mut counts = BTreeMap::new();
        for path in self.log_paths() {
            let shard = self.shard_at(path);
            self.indexed(&shard, |log| {
                for key in log.rows.keys() {
                    // One shard is (nearly always) one workflow: clone
                    // its name once, not per row.
                    match counts.get_mut(&key.workflow) {
                        Some(n) => *n += 1,
                        None => drop(counts.insert(key.workflow.clone(), 1)),
                    }
                }
            });
        }
        counts
    }

    /// Number of shard logs on disk.
    pub(crate) fn shard_count(&self) -> usize {
        self.log_paths().len()
    }
}

/// Rewrites `shard_log`'s log as its live frames only, in append order,
/// and moves each row to its frame's new offset. `bytes` is the scanned
/// old file. On error the rows are half-moved and `shard_log` must be
/// dropped.
fn compact(bytes: &[u8], shard_log: &mut ShardLog) -> std::io::Result<()> {
    let mut live: Vec<&mut Span> = shard_log.rows.values_mut().map(|r| &mut r.span).collect();
    live.sort_unstable();
    let mut packed = Vec::new();
    for span in live {
        let frame = &bytes[span.offset as usize..][..span.frame_len() as usize];
        span.offset = (LOG_MAGIC.len() + packed.len()) as u64;
        packed.extend_from_slice(frame);
    }
    shard_log.log.replace(&packed)
}

fn file_name(path: &Path) -> String {
    let name = path.file_name().unwrap_or(path.as_os_str());
    name.to_string_lossy().into_owned()
}
