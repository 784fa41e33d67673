//! The workspace's append-only record log: the measurement journal
//! ([`crate::journal`]) and the serve cache's per-workflow shard logs are
//! both a [`Log`], and differ only in their magic and what a payload means.
//!
//! ```text
//! +-------+  +-----------+-----------+----------------+  +----- ...
//! | magic |  | len (u32) | crc (u32) | payload        |  | len ...
//! +-------+  +-----------+-----------+----------------+  +----- ...
//!              big-endian  CRC32 of    `len` bytes
//!                          payload
//! ```
//!
//! The frame: [`header`] is the write half; [`first`] checks one frame and
//! [`scan`] walks a log to the end of its longest valid prefix.
//!
//! The durable write: [`Log::open`] reads the file once, hands each valid
//! frame to the caller, and cuts a torn or corrupt tail (`set_len` +
//! `sync_data`) — a crash mid-write loses at most the commit in flight.
//! [`Log::append`] writes at the committed end and `sync_data`s; the file
//! appears with its first commit, which carries the magic and also fsyncs
//! the directory so the new name is as durable as the bytes. A failed
//! append is cut back off, so the next one never lands behind a torn
//! frame. [`Log::replace`] swaps in new contents whole (temp file →
//! `sync_all` → rename → directory fsync). What a payload *means*, and
//! what to do with a file of another magic, stays with the caller.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Bytes of length prefix plus checksum in front of every payload.
pub const HEADER_LEN: usize = 8;

/// Upper bound on one payload; anything larger during a scan is treated
/// as corruption (a torn length prefix).
pub const MAX_PAYLOAD_LEN: usize = 16 * 1024 * 1024;

/// CRC32 (IEEE, reflected) lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Slice-by-8 tables: `CRC32_SLICES[k][b]` is the CRC register after
/// byte `b` is followed by `k` zero bytes, so eight table reads fold eight
/// input bytes at once. Row 0 is [`CRC32_TABLE`].
const CRC32_SLICES: [[u32; 256]; 8] = {
    let mut slices = [CRC32_TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = slices[k - 1][i];
            slices[k][i] = CRC32_TABLE[(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    slices
};

/// CRC32 (IEEE) of `bytes` — the per-record checksum. Eight bytes per
/// step (slice-by-8), the tail a byte at a time; the value is the
/// bytewise table walk's.
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_SLICES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The header that frames `payload`, or `None` when the payload exceeds
/// [`MAX_PAYLOAD_LEN`] (a scan would reject it as corruption).
pub fn header(payload: &[u8]) -> Option<[u8; HEADER_LEN]> {
    if payload.len() > MAX_PAYLOAD_LEN {
        return None;
    }
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_be_bytes());
    Some(header)
}

/// The payload of the frame at the start of `bytes`, when that frame is
/// whole and its checksum holds. `None` is a torn header, an absurd
/// length prefix, a torn payload, or bit rot — a reader cannot tell them
/// apart and need not.
pub fn first(bytes: &[u8]) -> Option<&[u8]> {
    let len = u32::from_be_bytes(bytes.get(..4)?.try_into().ok()?) as usize;
    let crc = u32::from_be_bytes(bytes.get(4..HEADER_LEN)?.try_into().ok()?);
    if len > MAX_PAYLOAD_LEN {
        return None;
    }
    let payload = bytes.get(HEADER_LEN..HEADER_LEN + len)?;
    (crc32(payload) == crc).then_some(payload)
}

/// Walks the frames of `bytes` from offset `from`, handing each valid
/// frame's offset and payload to `accept`, and returns the offset just
/// past the last accepted frame — the end of the log's valid prefix. The
/// walk stops at the first frame that fails [`first`] or that `accept`
/// refuses (checksummed but unintelligible: treated as torn too).
pub fn scan(bytes: &[u8], from: usize, mut accept: impl FnMut(usize, &[u8]) -> bool) -> usize {
    let mut good = from;
    while let Some(payload) = bytes.get(good..).and_then(first) {
        if !accept(good, payload) {
            break;
        }
        good += HEADER_LEN + payload.len();
    }
    good
}

/// An append-only log file: a magic, then frames. Its committed length is
/// where the next frame goes, and the file's write position stays there.
#[derive(Debug)]
pub struct Log {
    path: PathBuf,
    magic: &'static [u8],
    /// `None` until the first commit creates the file.
    file: Option<Arc<File>>,
    /// Committed bytes (0: not even the magic).
    len: u64,
    /// Whether a commit syncs before it returns.
    sync: bool,
}

/// What [`Log::open`] found at a path.
#[derive(Debug)]
pub enum Opened {
    /// The log, committed up to the end of its valid prefix, and the
    /// file's bytes as they were read: `bytes.len() - log.committed()` of them
    /// were a torn or corrupt tail, now cut. No file is an empty log.
    Log(Log, Vec<u8>),
    /// The file starts with another magic; it is left as it is.
    Foreign,
}

impl Log {
    /// Opens the log at `path`: reads the file once, hands every valid
    /// frame's offset and payload to `accept` (see [`scan`]; a refused
    /// frame ends the log like a torn one) and cuts what follows the valid
    /// prefix. A file shorter than the magic is a crash during the first
    /// commit: nothing in it was committed, and it is cut to empty. A
    /// missing file is an empty log and is not created.
    pub fn open(
        path: &Path,
        magic: &'static [u8],
        accept: impl FnMut(usize, &[u8]) -> bool,
    ) -> io::Result<Opened> {
        let mut log = Log {
            path: path.to_path_buf(),
            magic,
            file: None,
            len: 0,
            sync: true,
        };
        let mut file = match OpenOptions::new().read(true).write(true).open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok(Opened::Log(log, Vec::new()))
            }
            Err(e) => return Err(e),
        };
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let good = match bytes.len() < magic.len() {
            true => 0,
            false if !bytes.starts_with(magic) => return Ok(Opened::Foreign),
            false => scan(&bytes, magic.len(), accept),
        };
        if good < bytes.len() {
            file.set_len(good as u64)?;
            file.sync_data()?;
            file.seek(SeekFrom::Start(good as u64))?;
        }
        log.file = Some(Arc::new(file));
        log.len = good as u64;
        Ok(Opened::Log(log, bytes))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Committed bytes, magic included (0 before the first commit).
    pub fn committed(&self) -> u64 {
        self.len
    }

    /// The open file, for positioned reads of committed frames outside
    /// whatever lock guards the log; `None` while the file does not exist.
    /// Committed offsets never move until [`Log::replace`].
    pub fn file(&self) -> Option<&Arc<File>> {
        self.file.as_ref()
    }

    /// Enables or disables the syncs of every commit (on by default).
    /// Leave on outside tests: without them a commit is not crash-durable
    /// when it returns.
    pub fn set_sync(&mut self, on: bool) {
        self.sync = on;
    }

    /// Commits `frames` with one write at the committed end — behind the
    /// magic when the log has none yet — and one `sync_data`; the commit
    /// that writes the magic also fsyncs the directory. Returns the offset
    /// `frames` start at. On error the file is cut back to its committed
    /// length, or removed if this commit created it.
    pub fn append(&mut self, frames: &[u8]) -> io::Result<u64> {
        let created = self.file.is_none();
        let file = match &self.file {
            Some(file) => Arc::clone(file),
            None => Arc::new(
                OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(false)
                    .open(&self.path)?,
            ),
        };
        let fresh = self.len == 0;
        let written = (|| {
            if fresh {
                (&*file).write_all(self.magic)?;
            }
            (&*file).write_all(frames)?;
            if self.sync {
                file.sync_data()?;
                if fresh {
                    sync_dir(&self.path)?;
                }
            }
            Ok(())
        })();
        if let Err(e) = written {
            let _ = match created {
                true => std::fs::remove_file(&self.path),
                false => file
                    .set_len(self.len)
                    .and_then(|()| (&*file).seek(SeekFrom::Start(self.len)).map(drop)),
            };
            return Err(e);
        }
        let at = self.len.max(self.magic.len() as u64);
        self.file = Some(file);
        self.len = at + frames.len() as u64;
        Ok(at)
    }

    /// Replaces the whole log with the magic and `frames`: written to
    /// `<stem>.tmp.compact` beside it, made durable, renamed over the log,
    /// and the rename made durable. A crash leaves the old log or the new
    /// one, and at worst a stale temp file. The offsets of the new frames
    /// start at the magic's length.
    pub fn replace(&mut self, frames: &[u8]) -> io::Result<()> {
        let tmp = self.path.with_extension("tmp.compact");
        let written = (|| {
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            file.write_all(self.magic)?;
            file.write_all(frames)?;
            // Durable before visible: rename must never expose a file
            // whose bytes could still be lost by a crash.
            file.sync_all()?;
            std::fs::rename(&tmp, &self.path)?;
            Ok(file)
        })();
        let file = written.inspect_err(|_: &io::Error| {
            let _ = std::fs::remove_file(&tmp);
        })?;
        sync_dir(&self.path)?;
        self.file = Some(Arc::new(file));
        self.len = (self.magic.len() + frames.len()) as u64;
        Ok(())
    }
}

/// A file's creation or rename lives in its directory; fsync that so a
/// crash cannot roll the directory back past it.
fn sync_dir(path: &Path) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table walk `crc32` must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        let known: [(&[u8], u32); 3] = [
            (b"", 0x0000_0000),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        ];
        for (bytes, want) in known {
            assert_eq!(crc32(bytes), want);
            assert_eq!(crc32_bytewise(bytes), want);
        }
    }

    /// Every length from empty to past a cache frame, at every alignment
    /// of the eight-byte steps against the buffer: the same checksum as
    /// the bytewise walk, so the bytes on disk cannot change.
    #[test]
    fn crc32_matches_the_bytewise_walk_at_every_length_and_offset() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..1100 + 16)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for start in 0..16 {
            for len in 0..=1100 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "at {start}, {len} bytes"
                );
            }
        }
    }

    fn log(payloads: &[&[u8]]) -> Vec<u8> {
        let mut bytes = b"MAGIC".to_vec();
        for p in payloads {
            bytes.extend_from_slice(&header(p).expect("small payload"));
            bytes.extend_from_slice(p);
        }
        bytes
    }

    #[test]
    fn scan_stops_at_the_first_torn_or_flipped_frame() {
        let bytes = log(&[b"one", b"", b"three"]);
        let mut seen = Vec::new();
        let end = scan(&bytes, 5, |at, p| {
            seen.push((at, p.to_vec()));
            true
        });
        assert_eq!(end, bytes.len());
        assert_eq!(
            seen,
            vec![
                (5, b"one".to_vec()),
                (16, Vec::new()),
                (24, b"three".to_vec())
            ]
        );
        // Every truncation inside the last frame keeps exactly the first two.
        for cut in 24..bytes.len() {
            assert_eq!(scan(&bytes[..cut], 5, |_, _| true), 24, "cut at {cut}");
        }
        // A flipped payload byte in the middle frame ends the prefix there.
        let mut flipped = log(&[b"one", b"two", b"three"]);
        flipped[16 + HEADER_LEN] ^= 0x40;
        assert_eq!(scan(&flipped, 5, |_, _| true), 16);
        // A refused frame ends the walk like a corrupt one.
        assert_eq!(scan(&bytes, 5, |_, p| !p.is_empty()), 16);
    }

    #[test]
    fn oversized_payloads_are_refused_on_both_sides() {
        let huge = vec![0u8; MAX_PAYLOAD_LEN + 1];
        assert!(header(&huge).is_none());
        let mut bytes = ((MAX_PAYLOAD_LEN + 1) as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0; 4]);
        bytes.extend_from_slice(&huge);
        assert!(first(&bytes).is_none());
    }
}
