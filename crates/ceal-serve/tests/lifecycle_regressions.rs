//! Regression tests for the connection-lifecycle bug-fix pass. Each test
//! here fails against the pre-fix code:
//!
//! 1. `AutotuneCache::put` persisted outside the lock through one shared
//!    temp name, so concurrent puts could rename an *older* snapshot over
//!    a newer one and silently drop a committed entry.
//! 2. A wildcard-bound (`0.0.0.0`/`::`) server could not be shut down:
//!    the old serve loop woke itself by connecting to its *bind* address.
//!    The reactor wakes through an eventfd; the round trip stays pinned.
//! 3. Response writes had no stall deadline: a peer that stopped reading
//!    after the kernel send buffer filled held its connection (then: a
//!    worker) forever.
//! 4. `evict_idle` only ran on accept, so with no fresh connections
//!    arriving, expired sessions were never evicted and `active_sessions`
//!    lied.

mod common;

use ceal_serve::{
    AutotuneCache, CacheEntry, CacheKey, Client, ServeConfig, Server, ServerMetrics,
    SessionManager, TuneParams,
};
use common::drive_session_to_done;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn cache_key(tag: u64) -> CacheKey {
    CacheKey {
        workflow: "LV".into(),
        platform: "test-platform".into(),
        objective: "comp".into(),
        pool: 500,
        seed: tag,
        budget: 25,
        algo: "tune:ceal".into(),
    }
}

fn cache_entry(tag: u64) -> CacheEntry {
    CacheEntry {
        key: cache_key(tag),
        best: vec![18, 18, 2, 18, 18, 2],
        best_value: tag as f64,
        runs_used: 25,
        component_runs: 12,
        samples: vec![(vec![18, 18, 2, 18, 18, 2], tag as f64)],
        platform_features: Vec::new(),
    }
}

/// Bug 1: concurrent puts hammering one cache path must not lose any
/// committed entry — the reload from disk has to contain every one.
#[test]
fn concurrent_cache_puts_never_lose_committed_entries() {
    let path = ceal_testutil::unique_temp_path("ceal-cache-race", "json");
    let _ = std::fs::remove_file(&path);
    const THREADS: u64 = 8;
    const PUTS_PER_THREAD: u64 = 12;
    {
        let cache = Arc::new(AutotuneCache::at_path(&path));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..PUTS_PER_THREAD {
                        cache.put(cache_entry(t * PUTS_PER_THREAD + i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("writer panicked");
        }
        assert_eq!(cache.len() as u64, THREADS * PUTS_PER_THREAD);
    }
    // What reloads from disk is what actually survived the rename race.
    let reloaded = AutotuneCache::at_path(&path);
    let mut missing = Vec::new();
    for tag in 0..THREADS * PUTS_PER_THREAD {
        if reloaded.get(&cache_key(tag)).is_none() {
            missing.push(tag);
        }
    }
    let _ = std::fs::remove_dir_all(&path);
    assert!(
        missing.is_empty(),
        "entries committed by put() vanished from disk: {missing:?}"
    );
}

/// Sharded persistence under real campaign traffic: sessions across
/// distinct workflows finish simultaneously against one shared disk
/// cache. Every workflow must end up in its own valid shard file and no
/// finished campaign may be lost — each one must reload from disk.
#[test]
fn simultaneous_finishes_across_workflows_leave_one_valid_shard_each() {
    let dir = ceal_testutil::unique_temp_path("ceal-cache-shards", "d");
    let _ = std::fs::remove_dir_all(&dir);
    const WORKFLOWS: [&str; 3] = ["LV", "HS", "GP"];
    const SEEDS: [u64; 2] = [41, 42];
    {
        let cache = Arc::new(AutotuneCache::at_path(&dir));
        let mgr = Arc::new(SessionManager::new(Duration::from_secs(3600)));
        let metrics = Arc::new(ServerMetrics::new());
        let handles: Vec<_> = WORKFLOWS
            .iter()
            .flat_map(|&workflow| SEEDS.iter().map(move |&seed| (workflow, seed)))
            .map(|(workflow, seed)| {
                let (cache, mgr, metrics) =
                    (Arc::clone(&cache), Arc::clone(&mgr), Arc::clone(&metrics));
                std::thread::spawn(move || {
                    let params = TuneParams {
                        workflow: workflow.into(),
                        objective: "exec".into(),
                        budget: 4,
                        pool: 60,
                        seed,
                        algo: "ceal".into(),
                    };
                    let (st, from_cache) = mgr
                        .create(params, 0.0, 0, &cache, &metrics)
                        .expect("create");
                    assert!(!from_cache);
                    drive_session_to_done(&mgr, st.session, &cache, &metrics);
                })
            })
            .collect();
        for h in handles {
            h.join().expect("campaign thread panicked");
        }
        assert_eq!(cache.len(), WORKFLOWS.len() * SEEDS.len());
    }
    // Reload from disk: one shard per workflow, every campaign intact.
    let reloaded = AutotuneCache::at_path(&dir);
    assert_eq!(reloaded.shard_count(), WORKFLOWS.len());
    let entries = reloaded.all_entries();
    assert_eq!(entries.len(), WORKFLOWS.len() * SEEDS.len());
    for &workflow in &WORKFLOWS {
        let per_workflow = entries
            .iter()
            .filter(|e| e.key.workflow == workflow)
            .count();
        assert_eq!(per_workflow, SEEDS.len(), "{workflow} shard lost an update");
    }
    for e in entries {
        assert!(
            reloaded.get(&e.key).is_some(),
            "finished campaign {:?} must be retrievable",
            e.key
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bug 2: a wildcard-bound server must shut down cleanly, reached only
/// through loopback.
#[test]
fn wildcard_bind_shutdown_round_trip() {
    let server = Server::bind(ServeConfig {
        addr: "0.0.0.0:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind wildcard");
    let port = server.local_addr().port();
    let handle = server.spawn();
    let mut client = Client::connect(("127.0.0.1", port)).expect("connect via loopback");
    client.ping().expect("ping");
    client.shutdown().expect("shutdown");
    // The serve loop must actually exit, not sit in its wait forever.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(handle.join());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("serve loop never exited")
        .expect("serve loop failed");
}

/// Bug 3: a peer that stops reading must not hold its connection past the
/// write-stall deadline, and never costs a worker. A rogue connection
/// pipelines pings and consumes no response: once every buffer between
/// the two ends is full the server's write makes no progress, and the
/// reactor's timer must abandon it — the rogue sees a reset within a
/// small multiple of `stall_deadline` — while the single worker keeps
/// serving everyone else.
#[cfg(target_os = "linux")]
#[test]
fn slow_reader_cannot_pin_a_worker_past_the_write_deadline() {
    use ceal_serve::frame::{read_message, write_message};
    use ceal_serve::protocol::{Request, Response};
    use std::io::Write;
    use std::net::TcpStream;
    use std::os::unix::io::AsRawFd;

    const STALL_DEADLINE: Duration = Duration::from_millis(400);
    let handle = Server::bind(ServeConfig {
        workers: 1,
        stall_deadline: STALL_DEADLINE,
        send_buffer: Some(4096),
        ..ServeConfig::default()
    })
    .expect("bind")
    .spawn();
    let addr = handle.addr();

    let mut rogue = TcpStream::connect(addr).expect("rogue connect");
    ceal_serve::set_recv_buffer_fd(rogue.as_raw_fd(), 2048).expect("shrink rcvbuf");
    // Shrink our send side too, so the flood can't just sit in kernel
    // buffers: it has to reach (and stall) the server.
    ceal_serve::set_send_buffer_fd(rogue.as_raw_fd(), 4096).expect("shrink sndbuf");
    rogue
        .set_write_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let ping = {
        let json = serde_json::to_vec(&Request::Ping).unwrap();
        let mut b = (json.len() as u32).to_be_bytes().to_vec();
        b.extend_from_slice(&json);
        b
    };
    // Flood until the server gives up on us. Our own writes stall only
    // after the server's did (it stops reading while its response write
    // is stuck), so the reset must arrive within the stall deadline of
    // our last progress, give or take scheduling.
    let flood_started = Instant::now();
    let mut last_progress = Instant::now();
    let mut sent = 0usize;
    let reset_after = loop {
        match rogue.write(&ping[sent..]) {
            Ok(n) => {
                sent = (sent + n) % ping.len();
                last_progress = Instant::now();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::BrokenPipe
                        | std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::ConnectionAborted
                ) =>
            {
                break last_progress.elapsed();
            }
            Err(e) => panic!("rogue write failed unexpectedly: {e}"),
        }
        assert!(
            last_progress.elapsed() < 10 * STALL_DEADLINE,
            "server never abandoned the stalled write"
        );
        assert!(
            flood_started.elapsed() < Duration::from_secs(60),
            "flood never filled the server's send buffer"
        );
    };
    assert!(
        reset_after < 5 * STALL_DEADLINE,
        "stalled write abandoned too slowly: {reset_after:?}"
    );

    // The single worker was never involved: the next connection is
    // served at once.
    let t = Instant::now();
    let mut probe = TcpStream::connect(addr).expect("probe connect");
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_message(&mut probe, &Request::Ping).expect("probe write");
    let resp: Response = read_message(&mut probe).expect("probe must be answered");
    assert!(matches!(resp, Response::Pong { .. }));
    assert!(
        t.elapsed() < Duration::from_secs(8),
        "worker freed too slowly: {:?}",
        t.elapsed()
    );

    drop(rogue);
    drop(probe);
    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("drain");
}

/// Bug 4: sessions expire even when no new connection ever arrives —
/// eviction is timer-driven, so a metrics request over the *same*
/// connection sees the idle session gone.
#[test]
fn idle_sessions_evicted_with_zero_incoming_connections() {
    let handle = Server::bind(ServeConfig {
        workers: 2,
        idle_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    })
    .expect("bind")
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .create_session(common::params("exec", 10, 120, 5), 0.0, 0)
        .expect("create session");
    let m = client.metrics().expect("metrics");
    assert_eq!(m.active_sessions, 1, "session live");

    // Nobody connects; nobody touches the session. Eviction has to fire
    // from the timer alone.
    std::thread::sleep(Duration::from_millis(1200));

    let m = client.metrics().expect("metrics after idle");
    assert_eq!(
        m.active_sessions, 0,
        "idle session not evicted without new connections"
    );
    assert!(m.sessions_evicted >= 1);

    client.shutdown().expect("shutdown");
    handle.join().expect("drain");
}
