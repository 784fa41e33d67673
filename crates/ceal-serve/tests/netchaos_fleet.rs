//! Network-chaos end-to-end: fleet campaigns must survive a deterministic
//! fault-injection proxy between the workers and the coordinator — up to
//! and including a full partition that outlives every worker lease — and
//! still finish bit-identical to a solo run with exactly-once billing.
//! Plus overload-protection integration: connection caps answer with a
//! typed `Busy` and heal once load drains.

mod common;

use ceal_chaos::{ChaosProxy, FaultPlan};
use ceal_core::RetryPolicy;
use ceal_serve::{Client, ClientError, ServeConfig, WorkerConfig};
use common::{
    drive_to_done, params, spawn_worker, start_server, wait_for_live_workers, worker_config, Worker,
};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A worker that can ride out a multi-second partition: fixed short
/// backoff, enough attempts to outlast the outage, no deadline.
fn patient_worker(addr: SocketAddr, name: &str, stop: Arc<AtomicBool>) -> Worker {
    spawn_worker(WorkerConfig {
        retry: RetryPolicy {
            max_attempts: 400,
            base_delay: Duration::from_millis(25),
            multiplier: 1.0,
            jitter: 0.0,
            seed: 11,
            deadline: None,
        },
        ..worker_config(addr, name, stop)
    })
}

#[test]
fn partitioned_and_healed_fleet_campaign_is_bit_identical() {
    let p = params("comp", 12, 60, 9);

    // Reference: the same campaign with no fleet and no network between.
    let solo = start_server(ServeConfig::default());
    let mut c = Client::connect(solo.addr()).unwrap();
    let (st, from_cache) = c.create_session(p.clone(), 0.0, 0).unwrap();
    assert!(!from_cache);
    let reference = drive_to_done(&mut c, st.session, 4);
    c.shutdown().unwrap();
    solo.join().unwrap();

    // Fleet: workers reach the coordinator only through a chaos proxy
    // that adds latency and, mid-campaign, a full partition longer than
    // the worker lease.
    let srv = start_server(ServeConfig {
        worker_lease: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let proxy = ChaosProxy::spawn(
        srv.addr(),
        FaultPlan {
            seed: 0xF1EE7,
            latency: Duration::from_millis(1),
            ..FaultPlan::default()
        },
    )
    .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let w1 = patient_worker(proxy.addr(), "w1", Arc::clone(&stop));
    let w2 = patient_worker(proxy.addr(), "w2", Arc::clone(&stop));
    // The driving client talks to the coordinator directly: the campaign
    // itself must not stall just because the fleet's network is down.
    let mut c = Client::connect(srv.addr()).unwrap();
    wait_for_live_workers(&mut c, 2);

    let (st, _) = c.create_session(p, 0.0, 0).unwrap();
    let session = st.session;
    let st = c.advance(session, 4).unwrap();
    assert_eq!(st.state, "collecting-history");
    let st = c.advance(session, 4).unwrap();
    assert!(st.measured > 0, "bootstrapping batch should have run");
    let measured_before_partition = st.measured;

    // Partition: sever live worker connections and refuse new ones until
    // healed. Leases expire; the coordinator reaps both workers.
    proxy.set_partitioned(true);
    wait_for_live_workers(&mut c, 0);

    // Mid-partition progress comes from the coordinator's local oracle
    // fallback — the campaign must not block on the dead fleet.
    let st = c.advance(session, 4).unwrap();
    assert!(
        st.measured > measured_before_partition,
        "local fallback should keep measuring"
    );

    // Heal: workers re-register (their old ids aged out) and the rest of
    // the campaign can scatter again.
    proxy.set_partitioned(false);
    wait_for_live_workers(&mut c, 2);

    let done = drive_to_done(&mut c, session, 4);
    let m = c.metrics().unwrap();

    assert_eq!(
        done.best, reference.best,
        "partition-and-heal must not change the recommendation"
    );
    assert_eq!(done.best_value, reference.best_value);
    assert_eq!(done.measured, reference.measured);
    assert_eq!(done.budget_left, 0);
    // Exactly-once billing across the partition: every coupled run and
    // every free-history solo is billed once, re-scatters and local
    // fallback included.
    assert_eq!(
        m.oracle_measurements,
        done.history_samples + done.measured,
        "partition must not double-bill any measurement"
    );
    assert!(
        m.fleet.workers_lost >= 2,
        "both workers should have been reaped during the partition"
    );

    stop.store(true, Ordering::Release);
    w1.join().unwrap().unwrap();
    w2.join().unwrap().unwrap();
    c.shutdown().unwrap();
    srv.join().unwrap();

    let stats = proxy.shutdown();
    assert!(stats.bytes_up > 0 && stats.bytes_down > 0);
}

#[test]
fn connection_cap_sheds_with_typed_busy_and_heals() {
    let srv = start_server(ServeConfig {
        max_connections: 2,
        ..ServeConfig::default()
    });

    let mut c1 = Client::connect(srv.addr()).unwrap();
    let c2 = Client::connect(srv.addr()).unwrap();

    // Third connection: admission control answers with one typed Busy
    // frame (surfaced by the client's version ping) and closes.
    let err = Client::connect(srv.addr()).unwrap_err();
    match err {
        ClientError::Overloaded { retry_after_ms } => {
            assert!(retry_after_ms >= 25, "hint should be a usable pause");
        }
        other => panic!("expected Overloaded, got {other}"),
    }

    // Health is answered on an admitted connection and reports the cap.
    let health = c1.health().unwrap();
    assert_eq!(health.max_connections, 2);
    assert_eq!(health.live_connections, 2);
    assert!(health.connections_rejected >= 1);

    // Dropping a connection heals admission: a new client gets in once
    // the server notices the close.
    drop(c2);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut healed = loop {
        match Client::connect(srv.addr()) {
            Ok(c) => break c,
            Err(ClientError::Overloaded { .. }) => {
                assert!(Instant::now() < deadline, "admission never healed");
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(other) => panic!("unexpected error while healing: {other}"),
        }
    };
    assert!(healed.ping().is_ok());

    let m = c1.metrics().unwrap();
    assert!(m.connections_rejected >= 1);

    c1.shutdown().unwrap();
    srv.join().unwrap();
}

#[test]
fn dispatch_overload_sheds_but_retrying_clients_finish() {
    // Watermarks far below the offered concurrency: with eight clients
    // hammering real work through a high watermark of 1, some requests
    // must be shed; retrying clients absorb the Busy answers and finish.
    let srv = start_server(ServeConfig {
        dispatch_high_watermark: 1,
        dispatch_low_watermark: 1,
        ..ServeConfig::default()
    });
    let addr = srv.addr().to_string();

    let threads: Vec<_> = (0..8u64)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let policy = RetryPolicy {
                    max_attempts: 200,
                    base_delay: Duration::from_millis(1),
                    multiplier: 1.0,
                    jitter: 0.0,
                    seed: t,
                    deadline: None,
                };
                let mut c = Client::connect_with_retry(&addr, policy).unwrap();
                for i in 0..25 {
                    let outcome = c
                        .tune(params("comp", 6, 60, 1000 + t * 100 + i))
                        .expect("retrying client must eventually get an answer");
                    assert!(!outcome.best.is_empty());
                    assert!(outcome.best_value.is_finite());
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let mut c = Client::connect(srv.addr()).unwrap();
    let health = c.health().unwrap();
    assert!(
        health.requests_shed > 0,
        "an 8-way hammer through a high watermark of 1 must shed"
    );
    assert!(!health.shedding, "idle server must have exited shedding");
    let m = c.metrics().unwrap();
    assert_eq!(m.requests_shed, health.requests_shed);

    c.shutdown().unwrap();
    srv.join().unwrap();
}
