//! Transport resilience of [`Client::connect_with_retry`]: requests
//! reconnect-and-resend through dropped connections under the shared
//! [`RetryPolicy`], and exhausted retries surface as the typed
//! [`ClientError::RetriesExhausted`] instead of a panic or a hang. Also
//! the protocol's whole compatibility contract: strict version equality
//! at connect.

mod common;

use ceal_core::RetryPolicy;
use ceal_serve::frame::{read_message, write_message};
use ceal_serve::{
    Client, ClientError, FrameError, Request, Response, ServeConfig, ServerHandle, PROTOCOL_VERSION,
};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};

fn start_server() -> ServerHandle {
    common::start_server(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
}

/// A front door that slams the first `drop_first` connections shut and
/// transparently proxies the rest to `upstream` — the shape of a server
/// restarting or a flaky network in front of a healthy one.
fn flaky_proxy(upstream: SocketAddr, drop_first: usize) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    std::thread::spawn(move || {
        let mut seen = 0;
        for conn in listener.incoming() {
            let Ok(client) = conn else { break };
            seen += 1;
            if seen <= drop_first {
                drop(client); // immediate RST/EOF for the caller
                continue;
            }
            let Ok(server) = TcpStream::connect(upstream) else {
                break;
            };
            let (mut c_read, mut c_write) = (client.try_clone().expect("clone"), client);
            let (mut s_read, mut s_write) = (server.try_clone().expect("clone"), server);
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut c_read, &mut s_write);
                let _ = s_write.shutdown(Shutdown::Write);
            });
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut s_read, &mut c_write);
                let _ = c_write.shutdown(Shutdown::Write);
            });
        }
    });
    addr
}

#[test]
fn requests_reconnect_through_dropped_connections() {
    let handle = start_server();
    let proxy = flaky_proxy(handle.addr(), 3);

    // The version-check ping inside connect rides the same retry path, so
    // three straight connection drops are absorbed transparently.
    let mut client = Client::connect_with_retry(&proxy.to_string(), RetryPolicy::no_delay(6))
        .expect("connect despite three dropped connections");
    let report = client.metrics().expect("request on the healed connection");
    assert_eq!(report.active_sessions, 0);

    client.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn exhausted_reconnects_surface_as_typed_error() {
    // Bind-then-drop reserves an address with nothing listening behind it.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr")
    };
    let err = Client::connect_with_retry(&dead.to_string(), RetryPolicy::no_delay(3))
        .expect_err("no listener must exhaust the retries");
    match &err {
        ClientError::RetriesExhausted {
            attempts,
            deadline_exceeded,
            last,
        } => {
            assert_eq!(*attempts, 3);
            assert!(!deadline_exceeded);
            assert!(matches!(**last, ClientError::Transport(_)));
        }
        other => panic!("expected RetriesExhausted, got {other}"),
    }
    assert!(
        err.to_string().contains("failed 3 consecutive attempts"),
        "got: {err}"
    );
}

#[test]
fn plain_clients_fail_fast_instead_of_retrying() {
    let handle = start_server();
    // Every connection through this proxy dies immediately.
    let proxy = flaky_proxy(handle.addr(), usize::MAX);
    let err = Client::connect(proxy).expect_err("dropped connection must fail");
    assert!(
        matches!(err, ClientError::Transport(_)),
        "a plain client reports the transport error as-is: {err}"
    );

    let mut direct = Client::connect(handle.addr()).expect("direct connect");
    direct.shutdown().expect("shutdown");
    handle.join().expect("join");
}

#[test]
fn version_mismatch_fails_connect_before_any_other_request() {
    // A stub server one protocol version behind: answers the connect-time
    // ping, then reports what (if anything) the client sent next.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let addr = listener.local_addr().expect("stub addr");
    let stub = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().expect("accept");
        let first: Request = read_message(&mut conn).expect("first frame");
        let pong = Response::Pong {
            version: PROTOCOL_VERSION - 1,
        };
        write_message(&mut conn, &pong).expect("answer ping");
        (first, read_message::<Request>(&mut conn))
    });

    let err = Client::connect(addr).expect_err("an older server must be refused");
    let expected = format!(
        "server speaks protocol v{}, client v{PROTOCOL_VERSION}",
        PROTOCOL_VERSION - 1
    );
    assert!(
        matches!(&err, ClientError::UnexpectedResponse(m) if *m == expected),
        "got: {err}"
    );
    let (first, second) = stub.join().expect("stub thread");
    assert_eq!(first, Request::Ping);
    assert!(
        matches!(second, Err(FrameError::Closed)),
        "client must hang up without sending anything else: {second:?}"
    );
}
