//! Per-connection framed state machine for the event loop.
//!
//! Each connection is always in exactly one state:
//!
//! ```text
//! Reading (header → payload) → Dispatching → Writing → Reading …
//! ```
//!
//! *Reading* accumulates one length-prefixed frame across however many
//! readiness events it takes; *Dispatching* means a request is owed its
//! answer — on the worker pool, or parked with no thread attached (a held
//! worker poll, a campaign step waiting on its fleet round) — and reads
//! are paused (built-in backpressure: a peer cannot queue a second request
//! until its first is answered, matching the strictly request/response
//! protocol); *Writing* flushes the serialized response. A small request
//! that cannot wait is answered where it arrived and goes from *Reading*
//! straight to *Writing*. The state machine itself never blocks — it only
//! consumes what the socket already has and reports what it needs next.

use crate::frame::{FrameError, MAX_FRAME_LEN};
use crate::parked::Ticket;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// How much a read asks for while the frame's length is still unknown.
/// Covers every control and `Predict` frame in one syscall; longer
/// frames take a second read sized from their prefix.
const READ_CHUNK: usize = 4096;

/// Largest request frame the reactor thread decodes and runs itself. The
/// bound is what keeps "cannot wait" true of the work as well as of the
/// locks: a `Ping`, a `Status`, a worker poll or a 32-configuration
/// `Predict` fits and costs microseconds, a 1 024-configuration `Predict`
/// (milliseconds of scoring that every other connection would queue
/// behind) does not and goes to the pool.
pub const INLINE_MAX: usize = 2048;

/// What a connection is doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Accumulating one request frame.
    Reading,
    /// A request is owed its answer — a worker is handling it, or it is
    /// parked; reads are paused.
    Dispatching,
    /// Flushing a response frame.
    Writing,
}

/// Result of pumping a readable connection.
pub enum ReadOutcome {
    /// The socket is drained for now; more bytes are needed.
    NeedMore,
    /// One complete frame payload arrived.
    Frame(Vec<u8>),
    /// The peer hung up cleanly at a frame boundary.
    Closed,
    /// The stream is broken or out of sync; answer once (if the error
    /// merits a frame) and close.
    Broken(FrameError),
}

/// Result of pumping a writable connection.
pub enum WriteOutcome {
    /// The whole pending response has been flushed.
    Done,
    /// The kernel buffer filled; wait for writability.
    NeedMore,
    /// The stream is broken; close without further ceremony.
    Broken(std::io::Error),
}

/// One registered connection.
pub struct Conn {
    pub stream: TcpStream,
    pub state: ConnState,
    /// Close as soon as the pending write flushes (error frames, shutdown
    /// acknowledgements, drain).
    pub close_after_write: bool,
    /// Whether a stall timer entry is outstanding in the wheel — at most
    /// one per connection; firings re-arm against `stall_deadline`.
    pub timer_armed: bool,
    /// When the current mid-frame read or unfinished write must have made
    /// progress by — or, with a poll `held`, when it is answered empty;
    /// `None` at frame boundaries.
    pub stall_deadline: Option<Instant>,
    /// The epoll interest mask currently registered for the socket.
    pub registered: u32,
    /// A worker poll the coordinator holds under this connection's token,
    /// waiting (in `Dispatching`) for tasks to answer it with.
    pub(crate) held: Option<Ticket>,
    /// Connection-lifetime trace span (`conn`): opened at registration,
    /// ended — wherever the connection dies — by this struct's drop.
    pub span: Option<ceal_trace::Span>,
    /// `(endpoint, frame arrival, is_error)` of the in-flight response;
    /// recorded into the latency histogram when the write flushes.
    pub pending_metric: Option<(crate::metrics::Endpoint, Instant, bool)>,
    /// Bytes read off the socket and not yet handed out as a frame:
    /// `buf[..filled]`, always starting at a frame's length prefix. The
    /// rest of `buf` is room for the next `read`.
    buf: Vec<u8>,
    filled: usize,
    out: Vec<u8>,
    out_written: usize,
}

impl Conn {
    /// Wraps an accepted (already nonblocking) stream.
    pub fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            state: ConnState::Reading,
            close_after_write: false,
            timer_armed: false,
            stall_deadline: None,
            registered: 0,
            held: None,
            span: None,
            pending_metric: None,
            buf: Vec::new(),
            filled: 0,
            out: Vec::new(),
            out_written: 0,
        }
    }

    /// Whether bytes of a frame not yet handed out are buffered: one that
    /// is still arriving, or a pipelined one waiting for its `Reading`
    /// turn.
    pub fn mid_frame(&self) -> bool {
        self.filled > 0
    }

    fn reset_read(&mut self) {
        self.buf = Vec::new();
        self.filled = 0;
    }

    /// Consumes available bytes until one frame completes or the socket
    /// runs dry. Call only in [`ConnState::Reading`].
    ///
    /// Header and payload come through one buffered `read`, so a frame
    /// that arrived whole costs one syscall; bytes of a pipelined next
    /// frame stay buffered for the next `Reading` turn.
    pub fn pump_read(&mut self) -> ReadOutcome {
        loop {
            // How far the buffer must be filled before anything can be
            // handed out: to the end of the frame once its prefix is in.
            let mut want = READ_CHUNK;
            if let Some(prefix) = self.buf[..self.filled].first_chunk::<4>() {
                let len = u32::from_be_bytes(*prefix) as usize;
                if len > MAX_FRAME_LEN {
                    self.reset_read();
                    return ReadOutcome::Broken(FrameError::TooLarge(len));
                }
                let end = 4 + len;
                if self.filled >= end {
                    let frame = self.buf[4..end].to_vec();
                    self.buf = self.buf[end..self.filled].to_vec();
                    self.filled = self.buf.len();
                    return ReadOutcome::Frame(frame);
                }
                want = end;
            }
            if self.buf.len() < want {
                self.buf.resize(want, 0);
            }
            match self.stream.read(&mut self.buf[self.filled..]) {
                Ok(0) => {
                    let mid_frame = self.mid_frame();
                    self.reset_read();
                    return if mid_frame {
                        ReadOutcome::Broken(FrameError::Io(std::io::Error::new(
                            ErrorKind::UnexpectedEof,
                            "eof inside frame",
                        )))
                    } else {
                        ReadOutcome::Closed
                    };
                }
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if self.filled == 0 {
                        // Idle at a frame boundary: hold no buffer.
                        self.reset_read();
                    }
                    return ReadOutcome::NeedMore;
                }
                Err(e) => return ReadOutcome::Broken(FrameError::Io(e)),
            }
        }
    }

    /// Queues an already-framed response (length prefix + payload) and
    /// moves to [`ConnState::Writing`].
    pub fn start_write(&mut self, framed: Vec<u8>) {
        debug_assert!(self.out_written >= self.out.len(), "write already pending");
        self.out = framed;
        self.out_written = 0;
        self.state = ConnState::Writing;
    }

    /// Flushes as much of the pending response as the kernel accepts.
    /// Call only in [`ConnState::Writing`].
    pub fn pump_write(&mut self) -> WriteOutcome {
        while self.out_written < self.out.len() {
            match self.stream.write(&self.out[self.out_written..]) {
                Ok(0) => {
                    return WriteOutcome::Broken(std::io::Error::new(
                        ErrorKind::WriteZero,
                        "peer accepts no bytes",
                    ))
                }
                Ok(n) => self.out_written += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return WriteOutcome::NeedMore,
                Err(e) => return WriteOutcome::Broken(e),
            }
        }
        self.out = Vec::new();
        self.out_written = 0;
        WriteOutcome::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A nonblocking loopback pair: (registered side, peer side).
    fn pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (Conn::new(server), peer)
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(payload);
        buf
    }

    /// Polls `pump_read` until it reports something other than `NeedMore`.
    fn pump_until(conn: &mut Conn) -> ReadOutcome {
        for _ in 0..200 {
            match conn.pump_read() {
                ReadOutcome::NeedMore => std::thread::sleep(std::time::Duration::from_millis(2)),
                other => return other,
            }
        }
        panic!("pump_read never progressed");
    }

    #[test]
    fn whole_frame_in_one_readiness_event() {
        let (mut conn, mut peer) = pair();
        peer.write_all(&framed(b"hello")).unwrap();
        match pump_until(&mut conn) {
            ReadOutcome::Frame(p) => assert_eq!(p, b"hello"),
            _ => panic!("expected frame"),
        }
        assert!(!conn.mid_frame());
    }

    /// Two frames and the start of a third land in one segment: the first
    /// `pump_read` takes one frame and keeps the rest, and the rest comes
    /// out of the buffer — the socket has nothing more to say.
    #[test]
    fn pipelined_frames_wait_in_the_buffer_for_their_turn() {
        let (mut conn, mut peer) = pair();
        let mut bytes = framed(b"first");
        bytes.extend_from_slice(&framed(b""));
        bytes.extend_from_slice(&framed(b"second"));
        bytes.extend_from_slice(&[0, 0]);
        peer.write_all(&bytes).unwrap();
        for expected in [&b"first"[..], b"", b"second"] {
            match pump_until(&mut conn) {
                ReadOutcome::Frame(p) => assert_eq!(p, expected),
                _ => panic!("expected frame"),
            }
            assert!(conn.mid_frame(), "the tail is still buffered");
        }
        assert!(matches!(conn.pump_read(), ReadOutcome::NeedMore));
        peer.write_all(&[0, 3, b'e', b'n', b'd']).unwrap();
        match pump_until(&mut conn) {
            ReadOutcome::Frame(p) => assert_eq!(p, b"end"),
            _ => panic!("expected frame"),
        }
        assert!(!conn.mid_frame());
    }

    /// A frame longer than one read chunk is sized from its prefix and
    /// arrives intact, with a pipelined successor behind it.
    #[test]
    fn long_frame_spans_reads() {
        let (mut conn, mut peer) = pair();
        let long: Vec<u8> = (0..3 * READ_CHUNK + 17).map(|i| i as u8).collect();
        let mut bytes = framed(&long);
        bytes.extend_from_slice(&framed(b"next"));
        let writer = std::thread::spawn(move || {
            peer.write_all(&bytes).unwrap();
            peer
        });
        match pump_until(&mut conn) {
            ReadOutcome::Frame(p) => assert_eq!(p, long),
            _ => panic!("expected frame"),
        }
        match pump_until(&mut conn) {
            ReadOutcome::Frame(p) => assert_eq!(p, b"next"),
            _ => panic!("expected frame"),
        }
        drop(writer.join().unwrap());
    }

    #[test]
    fn frame_dribbled_byte_by_byte() {
        let (mut conn, mut peer) = pair();
        let bytes = framed(b"dribble");
        let handle = std::thread::spawn(move || {
            for b in bytes {
                peer.write_all(&[b]).unwrap();
                peer.flush().unwrap();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            peer
        });
        match pump_until(&mut conn) {
            ReadOutcome::Frame(p) => assert_eq!(p, b"dribble"),
            _ => panic!("expected frame"),
        }
        drop(handle.join().unwrap());
    }

    #[test]
    fn mid_frame_flag_tracks_partial_headers_and_payloads() {
        let (mut conn, mut peer) = pair();
        assert!(!conn.mid_frame());
        peer.write_all(&[0, 0]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(matches!(conn.pump_read(), ReadOutcome::NeedMore));
        assert!(conn.mid_frame(), "partial header counts as mid-frame");
        peer.write_all(&[0, 5, b'a', b'b']).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(matches!(conn.pump_read(), ReadOutcome::NeedMore));
        assert!(conn.mid_frame(), "partial payload counts as mid-frame");
        peer.write_all(b"cde").unwrap();
        match pump_until(&mut conn) {
            ReadOutcome::Frame(p) => assert_eq!(p, b"abcde"),
            _ => panic!("expected frame"),
        }
        assert!(!conn.mid_frame());
    }

    #[test]
    fn eof_at_boundary_is_clean_mid_frame_is_broken() {
        let (mut conn, peer) = pair();
        drop(peer);
        assert!(matches!(pump_until(&mut conn), ReadOutcome::Closed));

        let (mut conn, mut peer) = pair();
        peer.write_all(&64u32.to_be_bytes()).unwrap();
        peer.write_all(b"short").unwrap();
        drop(peer);
        match pump_until(&mut conn) {
            ReadOutcome::Broken(FrameError::Io(e)) => {
                assert_eq!(e.kind(), ErrorKind::UnexpectedEof)
            }
            _ => panic!("truncated frame must be broken"),
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocation() {
        let (mut conn, mut peer) = pair();
        peer.write_all(&[0xFF, 0xFF, 0xFF, 0xFF]).unwrap();
        match pump_until(&mut conn) {
            ReadOutcome::Broken(FrameError::TooLarge(n)) => assert!(n > MAX_FRAME_LEN),
            _ => panic!("oversized prefix must be rejected"),
        }
    }

    #[test]
    fn write_resumes_after_kernel_buffer_fills() {
        let (mut conn, mut peer) = pair();
        // A payload far bigger than loopback buffers, written with nobody
        // reading yet: the kernel buffer must fill and report NeedMore.
        let big = framed(&vec![0x5A; 4 << 20]);
        let total = big.len();
        conn.start_write(big);
        match conn.pump_write() {
            WriteOutcome::NeedMore => {}
            WriteOutcome::Done => panic!("4 MiB cannot fit in one write"),
            WriteOutcome::Broken(e) => panic!("write broke: {e}"),
        }
        // Now drain from the peer side; the pump must resume and finish.
        let reader = std::thread::spawn(move || {
            let mut sunk = vec![0u8; 64 << 10];
            let mut count = 0usize;
            while count < total {
                match peer.read(&mut sunk) {
                    Ok(0) => break,
                    Ok(n) => count += n,
                    Err(e) => panic!("peer read failed: {e}"),
                }
            }
            count
        });
        loop {
            match conn.pump_write() {
                WriteOutcome::Done => break,
                WriteOutcome::NeedMore => std::thread::sleep(std::time::Duration::from_millis(1)),
                WriteOutcome::Broken(e) => panic!("write broke: {e}"),
            }
        }
        assert_eq!(reader.join().unwrap(), total, "peer saw every byte");
    }
}
