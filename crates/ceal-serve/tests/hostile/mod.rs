//! Shared hostile-input corpus and probing harness, used by both the
//! protocol-robustness suite and the reactor torture test.

#![allow(dead_code)]

use ceal_serve::{read_frame, FrameError, Response};
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// Wraps `payload` in a valid length prefix.
pub fn framed(payload: &[u8]) -> Vec<u8> {
    let mut buf = (payload.len() as u32).to_be_bytes().to_vec();
    buf.extend_from_slice(payload);
    buf
}

/// What the server did with a malformed byte sequence.
#[derive(Debug, PartialEq)]
pub enum Reaction {
    /// One `bad-request` error frame, then the connection closed.
    ErrorFrameThenClose,
    /// The connection closed with no frame (e.g. we hung up mid-frame).
    CleanClose,
    /// One typed `Busy` frame (the frame was shed undecoded), then the
    /// connection closed because we half-closed it.
    ShedWithBusy,
}

/// One hostile input: name, bytes to send, whether to half-close after,
/// and the expected reaction (`None` = error frame or close, either is
/// fine: when the server closes with our unsent tail still unread, the
/// RST it triggers can outrun the queued error frame).
pub struct HostileCase {
    pub name: &'static str,
    pub bytes: Vec<u8>,
    pub half_close: bool,
    pub expect: Option<Reaction>,
}

/// The hostile-frame corpus. Every case must end in the server closing
/// the connection without panicking, hanging, or emitting a success
/// frame.
pub fn corpus() -> Vec<HostileCase> {
    vec![
        // An HTTP request: its first 4 bytes ("GET ") decode to a ~1.2 GB
        // length prefix, which must be rejected before any allocation.
        HostileCase {
            name: "http-request",
            bytes: b"GET / HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
            half_close: false,
            expect: None,
        },
        // The worst-case length prefix (exactly one header, fully read, so
        // the error frame is delivered reliably).
        HostileCase {
            name: "oversized-prefix",
            bytes: vec![0xFF, 0xFF, 0xFF, 0xFF],
            half_close: false,
            expect: Some(Reaction::ErrorFrameThenClose),
        },
        // A well-framed payload that is not JSON.
        HostileCase {
            name: "binary-garbage-payload",
            bytes: framed(&[0x00, 0xFF, 0x13, 0x37, 0x80, 0x81]),
            half_close: false,
            expect: Some(Reaction::ErrorFrameThenClose),
        },
        // Valid JSON of the wrong shape.
        HostileCase {
            name: "wrong-shape-json",
            bytes: framed(br#"{"type":"launch-missiles","count":3}"#),
            half_close: false,
            expect: Some(Reaction::ErrorFrameThenClose),
        },
        // A frame that promises 64 bytes and delivers 5, then EOF.
        HostileCase {
            name: "truncated-frame",
            bytes: {
                let mut b = 64u32.to_be_bytes().to_vec();
                b.extend_from_slice(b"hello");
                b
            },
            half_close: true,
            expect: Some(Reaction::ErrorFrameThenClose),
        },
        // A bare header with no payload at all, then EOF.
        HostileCase {
            name: "header-only",
            bytes: 16u32.to_be_bytes().to_vec(),
            half_close: true,
            expect: Some(Reaction::ErrorFrameThenClose),
        },
        // Hanging up immediately is not an error worth answering.
        HostileCase {
            name: "instant-hangup",
            bytes: Vec::new(),
            half_close: true,
            expect: Some(Reaction::CleanClose),
        },
    ]
}

/// Well-framed payloads the pre-decode request classifier
/// (`Endpoint::peek`) must not recognise: sent to a shedding server, each
/// is shed undecoded — one typed `Busy` — never admitted as exempt
/// control traffic. Sent to an unloaded server they decode to
/// `bad-request` like any other garbage.
pub fn unclassifiable_payloads() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("empty", Vec::new()),
        ("truncated-tag", b"{\"TaskResult".to_vec()),
        ("non-json", vec![0x00, 0xFF, 0x13, 0x37, 0x80, 0x81]),
        (
            "over-long-tag",
            format!("\"Ping{}\"", "g".repeat(4096)).into_bytes(),
        ),
        ("unknown-tag", br#"{"LaunchMissiles":{"count":3}}"#.to_vec()),
    ]
}

/// Payloads that nest arrays and objects far deeper than a recursive
/// parser's stack holds (the tree parser these replaced overflowed
/// `ceal-pool-0` at 10 000 levels and took the process with it). Every
/// decoder — request frames, journal records, shard-log records — must
/// answer each with a decode error.
pub fn deep_nesting_payloads() -> Vec<(&'static str, Vec<u8>)> {
    let nested_configs = format!(
        r#"{{"Predict":{{"session":1,"configs":{}1{}}}}}"#,
        "[".repeat(200),
        "]".repeat(200)
    );
    vec![
        ("brackets-10k", "[".repeat(10_000).into_bytes()),
        ("brackets-1m", "[".repeat(1_000_000).into_bytes()),
        ("objects-100k", "{\"a\":".repeat(100_000).into_bytes()),
        ("predict-configs-200-deep", nested_configs.into_bytes()),
        // Reached as a value to skip rather than one to build: an unknown
        // field of a struct, of a request's and of a journal record's
        // payload.
        (
            "unknown-field-10k",
            format!(r#"{{"zzz":{}"#, "[".repeat(10_000)).into_bytes(),
        ),
        (
            "unknown-request-field-10k",
            format!(r#"{{"Status":{{"zzz":{}"#, "[".repeat(10_000)).into_bytes(),
        ),
        (
            "unknown-record-field-10k",
            format!(r#"{{"Coupled":{{"zzz":{}"#, "[".repeat(10_000)).into_bytes(),
        ),
    ]
}

/// Sends `bytes`, optionally half-closes, and watches how the connection
/// ends. Panics if the server hangs past the read timeout or answers with
/// anything other than one `bad-request` error frame or one `Busy`.
pub fn poke(addr: std::net::SocketAddr, bytes: &[u8], half_close: bool) -> Reaction {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    // The server may already have closed; a failed write is fine.
    let _ = stream.write_all(bytes);
    let _ = stream.flush();
    if half_close {
        let _ = stream.shutdown(Shutdown::Write);
    }
    let mut reaction = Reaction::CleanClose;
    loop {
        match read_frame(&mut stream) {
            Ok(payload) => {
                let resp: Response =
                    serde_json::from_slice(&payload).expect("server frames are valid JSON");
                match resp {
                    Response::Error { code, .. } => {
                        assert_eq!(code, "bad-request", "malformed input maps to bad-request");
                        assert_eq!(reaction, Reaction::CleanClose, "one answer per frame");
                        reaction = Reaction::ErrorFrameThenClose;
                    }
                    Response::Busy { .. } => {
                        assert_eq!(reaction, Reaction::CleanClose, "one answer per frame");
                        reaction = Reaction::ShedWithBusy;
                    }
                    other => panic!("garbage must never yield a success response: {other:?}"),
                }
            }
            Err(FrameError::Closed) => return reaction,
            // EOF splitting a frame, or an RST (the server closing with
            // our unread bytes still in its buffer), still means it closed
            // on us; treat like a close.
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::UnexpectedEof
                        | std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::BrokenPipe
                ) =>
            {
                return reaction
            }
            Err(e) => panic!("unexpected transport state after garbage: {e}"),
        }
    }
}
