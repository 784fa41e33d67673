//! What the readiness-driven core exists for: a mostly-idle connection
//! costs the serving process one file descriptor and nothing else — no
//! thread is parked on it — so thousands of open sessions leave the
//! server as responsive as one.
//!
//! Alone in its file on purpose: the thread count below is the whole
//! process's, and tests sharing a binary run on threads of their own.

#![cfg(target_os = "linux")]

mod common;

use ceal_serve::{raise_nofile_limit, Client, ServeConfig};
use std::time::{Duration, Instant};

/// `Threads:` of `/proc/self/status`.
fn process_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.expect("Threads: line").trim().parse().expect("count")
}

#[test]
fn idle_connections_cost_descriptors_not_threads() {
    // Both ends of every connection live in this process.
    let limit = raise_nofile_limit(2 * 2000 + 256).expect("rlimit");
    let n = 2000.min(limit.saturating_sub(256) / 2);
    assert!(
        n >= 500,
        "fd limit {limit} leaves room for only {n} connections"
    );

    let srv = common::start_server(ServeConfig::default());
    let mut c = Client::connect(srv.addr()).expect("connect");
    let threads_before = process_threads();

    // Each one completes the version handshake, then goes quiet.
    let idle: Vec<Client> = (0..n)
        .map(|i| Client::connect(srv.addr()).unwrap_or_else(|e| panic!("connection {i}: {e}")))
        .collect();

    let metrics = c.metrics().expect("metrics");
    assert_eq!(metrics.live_connections, n + 1);
    assert_eq!(
        process_threads(),
        threads_before,
        "an idle connection must not cost a thread"
    );
    assert!(c.ping().is_ok(), "still served behind {n} idle peers");

    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(10);
    while c.metrics().expect("metrics").live_connections != 1 {
        assert!(Instant::now() < deadline, "closed connections never reaped");
        std::thread::sleep(Duration::from_millis(20));
    }

    c.shutdown().expect("shutdown");
    srv.join().expect("drain");
}
