//! Length-prefixed JSON frames.
//!
//! Every protocol message is one frame: a 4-byte big-endian payload length
//! followed by that many bytes of UTF-8 JSON. Length prefixing keeps the
//! reader trivial (no streaming JSON parser needed) and lets the server
//! reject oversized payloads before allocating for them.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// Frames larger than this are rejected as malformed rather than
/// allocated — a corrupt or hostile length prefix must not OOM the server.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// A peer that starts a frame and then sends nothing for this long is
/// treated as gone: waiting out mid-frame timeouts forever would let one
/// stalled (or hostile) connection pin a worker indefinitely.
pub const MAX_MID_FRAME_STALL: Duration = Duration::from_secs(30);

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// The peer closed the connection at a frame boundary (clean EOF).
    Closed,
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    TooLarge(usize),
    /// The payload was not the JSON we expected.
    Decode(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "frame i/o error: {e}"),
            Self::Closed => write!(f, "connection closed"),
            Self::TooLarge(n) => write!(f, "frame of {n} bytes exceeds limit {MAX_FRAME_LEN}"),
            Self::Decode(msg) => write!(f, "frame decode error: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Writes one frame: length prefix plus payload. Errors if the writer
/// makes no progress for [`MAX_MID_FRAME_STALL`], which only bites when the
/// stream has a write timeout set (so `write` surfaces `WouldBlock` or
/// `TimedOut` instead of blocking forever); client sockets do.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(payload.len()));
    }
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    write_all_limited(w, &buf, MAX_MID_FRAME_STALL)?;
    w.flush()?;
    Ok(())
}

/// `write_all` with a stall deadline: a peer that accepts no bytes for
/// `stall_limit` (its receive window stays closed) is treated as gone.
/// Mirrors `read_full_limited`: any progress resets the clock.
fn write_all_limited(w: &mut impl Write, buf: &[u8], stall_limit: Duration) -> std::io::Result<()> {
    let mut written = 0usize;
    let mut stall_start: Option<Instant> = None;
    while written < buf.len() {
        match w.write(&buf[written..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "peer accepts no bytes",
                ))
            }
            Ok(n) => {
                written += n;
                stall_start = None;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                let since = stall_start.get_or_insert_with(Instant::now);
                if since.elapsed() >= stall_limit {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "peer stalled mid-write",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn read_full(r: &mut impl Read, buf: &mut [u8], filled: usize) -> std::io::Result<()> {
    read_full_limited(r, buf, filled, MAX_MID_FRAME_STALL)
}

fn read_full_limited(
    r: &mut impl Read,
    buf: &mut [u8],
    mut filled: usize,
    stall_limit: Duration,
) -> std::io::Result<()> {
    // Unlike `read_exact`, keeps waiting through read timeouts: once a
    // frame has started arriving, a slow peer mid-frame is not an error —
    // but only up to `stall_limit` without a single byte of progress.
    let mut stall_start: Option<Instant> = None;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame",
                ))
            }
            Ok(n) => {
                filled += n;
                stall_start = None;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => {
                let since = stall_start.get_or_insert_with(Instant::now);
                if since.elapsed() >= stall_limit {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "peer stalled mid-frame",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one frame's payload.
///
/// Returns [`FrameError::Closed`] on EOF at a frame boundary (the peer
/// hung up cleanly); EOF mid-frame is an I/O error. A read timeout at a
/// frame boundary surfaces as an I/O error (`WouldBlock`/`TimedOut`);
/// timeouts mid-frame are waited out instead.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    match r.read(&mut header) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(n) => read_full(r, &mut header, n)?,
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => read_full(r, &mut header, 0)?,
        Err(e) => return Err(FrameError::Io(e)),
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    read_full(r, &mut payload, 0)?;
    Ok(payload)
}

/// Serializes `msg` as JSON and writes it as one frame.
pub fn write_message<T: serde::Serialize>(w: &mut impl Write, msg: &T) -> Result<(), FrameError> {
    let json = serde_json::to_string(msg).map_err(|e| FrameError::Decode(e.to_string()))?;
    write_frame(w, json.as_bytes())
}

/// Reads one frame and deserializes its JSON payload.
pub fn read_message<T: serde::Deserialize>(r: &mut impl Read) -> Result<T, FrameError> {
    let payload = read_frame(r)?;
    serde_json::from_slice(&payload).map_err(|e| FrameError::Decode(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(&buf[..4], &[0, 0, 0, 5]);
        let mut cursor = std::io::Cursor::new(buf);
        let got = read_frame(&mut cursor).unwrap();
        assert_eq!(got, b"hello");
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Closed)));
    }

    #[test]
    fn message_round_trip() {
        let mut buf = Vec::new();
        write_message(&mut buf, &Request::Ping).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let got: Request = read_message(&mut cursor).unwrap();
        assert_eq!(got, Request::Ping);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = ((MAX_FRAME_LEN + 1) as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&[0; 8]);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn eof_inside_header_is_io_error() {
        let mut cursor = std::io::Cursor::new(vec![0u8, 0]);
        assert!(matches!(read_frame(&mut cursor), Err(FrameError::Io(_))));
    }

    struct AlwaysTimeout;
    impl Read for AlwaysTimeout {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "slow"))
        }
    }

    #[test]
    fn mid_frame_stall_hits_the_deadline() {
        let mut buf = [0u8; 4];
        let err = read_full_limited(&mut AlwaysTimeout, &mut buf, 0, Duration::ZERO).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    }

    /// A sink whose kernel buffer is permanently full.
    struct NeverAccepts;
    impl Write for NeverAccepts {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "full"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn mid_write_stall_hits_the_deadline() {
        let err = write_all_limited(&mut NeverAccepts, b"abc", Duration::ZERO).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    }
}
