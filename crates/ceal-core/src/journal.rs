//! Write-ahead measurement journal: crash-safe tuning campaigns.
//!
//! A tuning campaign's only irreplaceable asset is its *measurements* —
//! every coupled run costs real budget, every solo run real machine time.
//! The paper had to enhance Swift/T with `MPI_Comm_launch` so a crashed
//! workflow run would not kill a multi-hour campaign (§7.1); this module
//! extends that durability to the tuner process itself. Every measurement
//! is journaled to disk *before* it is reported to the algorithm
//! (write-ahead), so a campaign killed at any instant can resume and
//! replay its paid-for measurements instead of re-buying them.
//!
//! ## On-disk format
//!
//! ```text
//! +----------+  +-----------+-----------+----------------+  +----- ...
//! | CEALWAL1 |  | len (u32) | crc (u32) | payload (JSON) |  | len ...
//! +----------+  +-----------+-----------+----------------+  +----- ...
//!   8 B magic      big-endian   CRC32 of     one JournalRecord
//!                               payload
//! ```
//!
//! The journal is a [`crate::frame::Log`] with its own magic: the record
//! framing (length prefix, checksum, torn-tail scan) and the durable write
//! (open, recover, append, roll back) are the serve cache's record logs'
//! too. This module adds only what a record means and when it commits.
//!
//! [`Journal::open`] scans the file, verifies every record's CRC, and
//! truncates the first torn/corrupt record and everything after it — a
//! crash mid-write loses at most the commit being written, never an
//! earlier one. A missing file is an empty journal: like a cache log, the
//! file appears with its first commit, never at open.
//!
//! ## Commits
//!
//! The unit that becomes durable is the *commit*, not the record.
//! [`Journal::stage`] frames a record into an in-memory buffer and touches
//! no file; [`Journal::commit`] hands the whole buffer to
//! [`Log::append`](crate::frame::Log::append): one write at the committed
//! end and one data fsync, so every staged record is committed
//! exactly when the commit returns — and a commit with nothing staged
//! performs no I/O at all. [`Journal::append`] is `stage` + `commit`:
//! per-record durability for a caller whose measurements are expensive
//! enough to be worth an fsync each (the `tune` CLI). A caller that
//! consumes measurements a batch at a time (a serve session) stages the
//! batch and commits once, before it acts on any of it; what a crash can
//! then lose is the batch in flight, never one it had acted on. The first
//! commit creates the file, writes the magic ahead of its records, and
//! fsyncs the journal's directory so the new file's name is durable too.
//! Batching changes when bytes reach the disk, never which bytes: a
//! journal is byte-identical however its records were grouped into
//! commits.
//!
//! ## Replay
//!
//! Tuners in this workspace are seed-deterministic: given the same answers
//! they ask for the same runs in the same order. A journal is those answers
//! in that order, so replay is folding its records into the campaign's
//! [`Fold`](crate::algorithms::Fold), which checks each against what the
//! stepper asks for next: `tune --journal x.wal --resume` walks the
//! algorithm through its original decisions for free until it reaches the
//! crash frontier, then measures on and appends each run before folding
//! it. A journal that is not the record of exactly those decisions is
//! refused at the first record that does not fold.
//!
//! ## Crashes
//!
//! The file is append-only, so whatever instant a process dies at, it
//! leaves a prefix of the bytes a crash-free run writes: of the commit in
//! flight nothing, some whole records and a torn one, or all of it. The
//! crash tests therefore need no hooks in this module: they cut the
//! crash-free journal at the start of each commit, inside it, a byte short
//! of its end and at its end, and resume from each cut.

use crate::frame;
use crate::oracle::{Measurement, SoloMeasurement};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Identifies the journal file format (and its version).
pub const JOURNAL_MAGIC: &[u8; 8] = b"CEALWAL1";

/// Why a journal operation failed.
#[derive(Debug)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file is not a journal (bad magic) or a record cannot be
    /// encoded/decoded.
    Corrupt(String),
    /// The journal belongs to a different campaign, or holds measurements
    /// the caller did not ask to resume.
    Mismatch(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "journal I/O error: {e}"),
            Self::Corrupt(msg) => write!(f, "journal corrupt: {msg}"),
            Self::Mismatch(msg) => write!(f, "journal mismatch: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Everything that fully determines a campaign's measurement sequence.
/// Stored as the journal's first record; a resume against a journal whose
/// campaign differs is rejected instead of silently replaying foreign
/// measurements.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct CampaignId {
    /// Workflow name (`LV`, `HS`, `GP`).
    pub workflow: String,
    /// Objective name (`exec`, `comp`).
    pub objective: String,
    /// Algorithm name (or `session:<algo>` for serve sessions).
    pub algo: String,
    /// Coupled-run budget.
    pub budget: u64,
    /// Candidate-pool size.
    pub pool: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Injected-fault probability (0 when faults are off).
    pub failure_rate: f64,
    /// Injected-fault seed.
    pub fault_seed: u64,
}

/// One committed journal entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// Campaign header; always the first record.
    Start(CampaignId),
    /// A paid-for standalone component measurement.
    Solo {
        /// Component index.
        component: usize,
        /// Component parameter values.
        values: Vec<i64>,
        /// Objective-aligned value.
        value: f64,
        /// Solo execution time, seconds.
        exec_time: f64,
        /// Solo computer time, core-hours.
        computer_time: f64,
    },
    /// A paid-for coupled workflow measurement.
    Coupled {
        /// Full parameter vector.
        config: Vec<i64>,
        /// Objective-aligned value.
        value: f64,
        /// Execution time, seconds.
        exec_time: f64,
        /// Computer time, core-hours.
        computer_time: f64,
        /// Measurement-attempt counter at commit time (restores a serve
        /// session's fault-injection stream position; 0 elsewhere).
        attempt: u64,
    },
    /// An algorithm round / phase boundary. Markers double as commit
    /// points for batched records: a replayer may choose to apply a batch
    /// only once the closing marker exists.
    Marker(String),
}

impl JournalRecord {
    /// The record of one paid-for coupled run.
    pub fn coupled(m: &Measurement, attempt: u64) -> Self {
        Self::Coupled {
            config: m.config.clone(),
            value: m.value,
            exec_time: m.exec_time,
            computer_time: m.computer_time,
            attempt,
        }
    }

    /// The record of one paid-for solo run.
    pub fn solo(m: &SoloMeasurement) -> Self {
        Self::Solo {
            component: m.component,
            values: m.values.clone(),
            value: m.value,
            exec_time: m.exec_time,
            computer_time: m.computer_time,
        }
    }
}

/// What [`Journal::open`] found on disk.
#[derive(Debug)]
pub struct OpenReport {
    /// Every committed record, in append order.
    pub records: Vec<JournalRecord>,
    /// Torn/corrupt tail bytes dropped during recovery (0 for a clean
    /// file).
    pub truncated_bytes: u64,
}

/// An append-only, checksummed, fsync-on-commit write-ahead journal: the
/// records staged for the next commit, over a [`frame::Log`].
#[derive(Debug)]
pub struct Journal {
    log: frame::Log,
    /// What the next commit writes: the framed records staged since the
    /// last one.
    staged: Vec<u8>,
    /// Records in `staged`.
    staged_records: usize,
}

impl Journal {
    /// Opens the journal at `path`, verifying every record and truncating
    /// a torn tail. Returns the journal positioned for appending plus
    /// everything it recovered. A missing file is an empty journal; the
    /// file appears with the first commit.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, OpenReport), JournalError> {
        let path = path.as_ref();
        let mut records = Vec::new();
        let opened = frame::Log::open(path, JOURNAL_MAGIC, |_, payload| {
            // Checksummed but unintelligible: treat as torn.
            serde_json::from_slice::<JournalRecord>(payload)
                .map(|record| records.push(record))
                .is_ok()
        })?;
        let frame::Opened::Log(log, bytes) = opened else {
            return Err(JournalError::Corrupt(format!(
                "{} does not start with the CEALWAL1 magic",
                path.display()
            )));
        };
        let report = OpenReport {
            records,
            truncated_bytes: bytes.len() as u64 - log.committed(),
        };
        let journal = Self {
            log,
            staged: Vec::new(),
            staged_records: 0,
        };
        Ok((journal, report))
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Enables or disables the fsync on every commit. Leave on outside
    /// tests: without it a record is not crash-durable when `commit`
    /// returns.
    pub fn set_sync_on_commit(&mut self, on: bool) {
        self.log.set_sync(on);
    }

    /// Frames `record` behind whatever is already staged for the next
    /// [`Journal::commit`]. No I/O: a staged record is not durable, and a
    /// caller must not act on it, until that commit returns.
    pub fn stage(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        let payload = serde_json::to_vec(record)
            .map_err(|e| JournalError::Corrupt(format!("cannot encode record: {e}")))?;
        let header = frame::header(&payload).ok_or_else(|| {
            JournalError::Corrupt(format!(
                "record of {} bytes exceeds the {} byte limit",
                payload.len(),
                frame::MAX_PAYLOAD_LEN
            ))
        })?;
        self.staged.extend_from_slice(&header);
        self.staged.extend_from_slice(&payload);
        self.staged_records += 1;
        Ok(())
    }

    /// Commits every staged record with one write and one fsync; when this
    /// returns `Ok` they all survive a crash. Returns how many records the
    /// commit carried — with none staged, 0 and no I/O.
    ///
    /// A failed commit drops what was staged, so the caller must treat
    /// those records as never journaled; [`frame::Log::append`] takes back
    /// whatever part of them reached the file.
    pub fn commit(&mut self) -> Result<usize, JournalError> {
        let records = std::mem::take(&mut self.staged_records);
        if records == 0 {
            return Ok(0);
        }
        let written = self.log.append(&self.staged);
        self.staged.clear();
        written?;
        Ok(records)
    }

    /// Stages and commits one record; when this returns `Ok`, the record
    /// survives a crash.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        self.stage(record)?;
        self.commit().map(drop)
    }
}

/// Validates a freshly opened journal against the campaign about to run,
/// and returns the records behind its `Start` header for the caller to
/// replay.
///
/// * Empty journal → writes the `Start` header and returns no records.
/// * Matching header, no further records → fresh start, fine either way.
/// * Matching header plus measurements → requires `resume` (the caller's
///   `--resume` flag), else [`JournalError::Mismatch`] — guarding against
///   accidentally replaying into a half-finished campaign.
/// * Foreign or missing header → [`JournalError::Mismatch`] /
///   [`JournalError::Corrupt`].
pub fn prepare_campaign(
    journal: &mut Journal,
    mut records: Vec<JournalRecord>,
    id: &CampaignId,
    resume: bool,
) -> Result<Vec<JournalRecord>, JournalError> {
    match records.first() {
        None => {
            journal.append(&JournalRecord::Start(id.clone()))?;
            Ok(records)
        }
        Some(JournalRecord::Start(found)) => {
            if found != id {
                return Err(JournalError::Mismatch(format!(
                    "journal {} belongs to campaign {found:?}, not {id:?}",
                    journal.path().display()
                )));
            }
            if !resume && records.len() > 1 {
                return Err(JournalError::Mismatch(format!(
                    "journal {} already holds {} record(s); pass --resume to continue it",
                    journal.path().display(),
                    records.len() - 1
                )));
            }
            records.remove(0);
            Ok(records)
        }
        Some(other) => Err(JournalError::Corrupt(format!(
            "journal {} does not begin with a Start record (found {other:?})",
            journal.path().display()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_journal_round_trips_records() {
        let path = ceal_testutil::unique_temp_path("ceal-journal-rt", "wal");
        let recs = vec![
            JournalRecord::Start(CampaignId::default()),
            JournalRecord::Solo {
                component: 1,
                values: vec![4, 2],
                value: 1.5,
                exec_time: 1.5,
                computer_time: 0.2,
            },
            JournalRecord::Coupled {
                config: vec![100, 20, 1],
                value: 2.5,
                exec_time: 2.5,
                computer_time: 0.4,
                attempt: 3,
            },
            JournalRecord::Marker("round-1".into()),
        ];
        {
            let (mut j, report) = Journal::open(&path).expect("open fresh");
            assert!(report.records.is_empty());
            assert_eq!(report.truncated_bytes, 0);
            for r in &recs {
                j.append(r).expect("append");
            }
        }
        let (_j, report) = Journal::open(&path).expect("reopen");
        assert_eq!(report.records, recs);
        assert_eq!(report.truncated_bytes, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn commit_with_nothing_staged_performs_no_io() {
        let path = ceal_testutil::unique_temp_path("ceal-journal-empty", "wal");
        let on_disk = || std::fs::metadata(&path).expect("stat").len();
        let (mut j, _) = Journal::open(&path).expect("open fresh");
        assert!(!path.exists(), "no file until the first commit");
        assert_eq!(j.commit().expect("empty commit"), 0);
        assert!(!path.exists(), "not even the magic");
        j.stage(&JournalRecord::Marker("a".into())).expect("stage");
        j.stage(&JournalRecord::Marker("b".into())).expect("stage");
        assert!(!path.exists(), "staging is not I/O");
        assert_eq!(j.commit().expect("commit"), 2);
        let len = on_disk();
        assert!(len > JOURNAL_MAGIC.len() as u64);
        assert_eq!(j.commit().expect("empty commit"), 0);
        assert_eq!(on_disk(), len);
        drop(j);
        assert_eq!(Journal::open(&path).expect("reopen").1.records.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_journal_file_is_rejected() {
        let path = ceal_testutil::unique_temp_path("ceal-journal-bad", "wal");
        std::fs::write(&path, b"definitely not a journal").expect("write");
        let err = Journal::open(&path).expect_err("must reject");
        assert!(matches!(err, JournalError::Corrupt(_)), "got {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn prepare_campaign_guards_header_and_resume() {
        let path = ceal_testutil::unique_temp_path("ceal-journal-prep", "wal");
        let id = CampaignId {
            workflow: "LV".into(),
            algo: "rs".into(),
            ..CampaignId::default()
        };
        // Empty journal: header is written.
        let (mut j, report) = Journal::open(&path).expect("open");
        let recs = prepare_campaign(&mut j, report.records, &id, false).expect("fresh");
        assert!(recs.is_empty());
        j.append(&JournalRecord::Marker("m".into()))
            .expect("append");
        drop(j);
        // Reopen without --resume: rejected (it holds records).
        let (mut j, report) = Journal::open(&path).expect("reopen");
        let err = prepare_campaign(&mut j, report.records, &id, false).expect_err("needs resume");
        assert!(matches!(err, JournalError::Mismatch(_)), "got {err}");
        // With --resume: records come back.
        let (mut j, report) = Journal::open(&path).expect("reopen");
        let recs = prepare_campaign(&mut j, report.records, &id, true).expect("resume");
        assert_eq!(recs, [JournalRecord::Marker("m".into())]);
        // Foreign campaign: rejected even with --resume.
        let other = CampaignId {
            seed: 999,
            ..id.clone()
        };
        let (mut j, report) = Journal::open(&path).expect("reopen");
        let err = prepare_campaign(&mut j, report.records, &other, true).expect_err("foreign");
        assert!(matches!(err, JournalError::Mismatch(_)), "got {err}");
        std::fs::remove_file(&path).ok();
    }
}
