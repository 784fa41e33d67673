//! The checked record frame shared by every append-only log in the
//! workspace: the measurement journal ([`crate::journal`]) and the serve
//! cache's per-workflow record logs.
//!
//! ```text
//! +-----------+-----------+----------------+
//! | len (u32) | crc (u32) | payload        |
//! +-----------+-----------+----------------+
//!   big-endian  CRC32 of    `len` bytes
//!               payload
//! ```
//!
//! A log is a file magic followed by frames. [`header`] is the write
//! half; [`first`] checks one frame and [`scan`] walks a log to the end of
//! its longest valid prefix, which is where a reader truncates a torn
//! tail. What a payload *means* stays with the caller.

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
