//! `bench-serve` — load harness for the serve core.
//!
//! Reproduces the shape the reactor exists for: N mostly-idle open
//! sessions (each one held TCP connection that completed a ping
//! handshake) plus M active clients driving requests at a target
//! aggregate RPS, all against one server process. Records achieved
//! throughput and p50/p99/p999 request latency to `BENCH_serve.json`
//! (keyed by git revision) so successive PRs track the serve path.
//!
//! ```text
//! cargo run --release -p ceal-bench --bin bench-serve -- \
//!     [--idle N] [--active M] [--rps R] [--duration SECS] \
//!     [--workers W] [--addr HOST:PORT] [--out PATH]
//! ```
//!
//! Without `--addr` a server is spawned automatically: in-process when
//! the file-descriptor limit fits both sides of every connection, and as
//! a child process (`--server-only`) otherwise, so the serving process
//! still holds one fd per open session even where the per-process fd cap
//! cannot cover client *and* server sides at once.
//!
//! Fleet modes:
//!
//! * `--fleet [--out PATH]` — scatter/gather benchmark: runs one tuning
//!   campaign against in-process fleets of 1, 2, and 4 workers, recording
//!   per-round (one `Advance` = one scatter/gather round) latency and
//!   aggregate measurement throughput under a `"fleet"` key merged into
//!   `BENCH_serve.json` alongside the load numbers.
//! * `--fleet-procs [--kill-one]` — process-level smoke test: spawns the
//!   coordinator and two workers as child processes, runs a short
//!   campaign, optionally SIGKILLs one worker mid-run, and exits non-zero
//!   unless the campaign completes. CI runs this with `--kill-one`.
//! * `--worker-only ADDR` — the worker child the smoke test spawns.

use ceal_bench::report::print_table;
use ceal_core::RetryPolicy;
use ceal_serve::frame::{read_message, write_message};
use ceal_serve::protocol::{Request, Response, SessionStatus, PROTOCOL_VERSION};
use ceal_serve::{run_worker, Client, ServeConfig, Server, TuneParams, WorkerConfig};
use std::io::{BufRead, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    idle: usize,
    active: usize,
    rps: u64,
    duration: Duration,
    workers: usize,
    addr: Option<String>,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        idle: 10_000,
        active: 8,
        rps: 2_000,
        duration: Duration::from_secs(10),
        workers: 4,
        addr: None,
        out: "BENCH_serve.json".into(),
    };
    let mut it = std::env::args().skip(1);
    fn want<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
        v.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} wants a value");
            std::process::exit(2);
        })
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--idle" => args.idle = want("--idle", it.next()),
            "--active" => args.active = want::<usize>("--active", it.next()).max(1),
            "--rps" => args.rps = want::<u64>("--rps", it.next()).max(1),
            "--duration" => args.duration = Duration::from_secs_f64(want("--duration", it.next())),
            "--workers" => args.workers = want::<usize>("--workers", it.next()).max(1),
            "--addr" => args.addr = Some(want("--addr", it.next())),
            "--out" => args.out = want("--out", it.next()),
            other => {
                eprintln!(
                    "unknown argument '{other}' (usage: bench-serve [--idle N] [--active M] \
                     [--rps R] [--duration SECS] [--workers W] [--addr HOST:PORT] [--out PATH])"
                );
                std::process::exit(2);
            }
        }
    }
    args
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Connects and completes one ping handshake, leaving the connection open.
fn open_session(addr: &str) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write_message(&mut stream, &Request::Ping).map_err(std::io::Error::other)?;
    match read_message::<Response>(&mut stream).map_err(std::io::Error::other)? {
        Response::Pong { version } if version == PROTOCOL_VERSION => Ok(stream),
        other => Err(std::io::Error::other(format!(
            "unexpected handshake response: {other:?}"
        ))),
    }
}

/// Reads `path` as a JSON object, or an empty one when the file is
/// missing or not an object — scenarios merge their keys over this.
fn read_json_object(path: &str) -> serde_json::Map<String, serde_json::Value> {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str::<serde_json::Value>(&s).ok())
        .and_then(|v| match v {
            serde_json::Value::Object(m) => Some(m),
            _ => None,
        })
        .unwrap_or_default()
}

/// Sorted-latency percentile (nearest-rank on an already-sorted slice).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Raises the fd limit as far as `want` allows and returns the result
/// (the unchanged current limit on non-Linux).
fn raise_fds(want: u64) -> u64 {
    #[cfg(target_os = "linux")]
    match ceal_serve::raise_nofile_limit(want) {
        Ok(limit) => limit,
        Err(e) => {
            eprintln!("warning: could not raise fd limit: {e}");
            0
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = want;
        1024
    }
}

/// `--server-only` mode: bind, announce the address on stdout, serve
/// until a `Shutdown` request drains the loop.
fn run_server_only(workers: usize, lease: Option<Duration>) -> ! {
    raise_fds(u64::MAX / 2); // as many fds as the hard cap allows
    let mut config = ServeConfig {
        workers,
        idle_timeout: Duration::from_secs(3600),
        ..ServeConfig::default()
    };
    if let Some(lease) = lease {
        config.worker_lease = lease;
    }
    let server = Server::bind(config).expect("failed to bind server");
    println!("ADDR {}", server.local_addr());
    std::io::stdout().flush().expect("stdout flush failed");
    server.run().expect("serve loop failed");
    std::process::exit(0);
}

/// The campaign every fleet mode runs: big enough that refinement does a
/// few scatter/gather rounds, small enough for CI.
fn fleet_params(budget: u64) -> TuneParams {
    TuneParams {
        workflow: "LV".into(),
        objective: "comp".into(),
        budget,
        pool: 200,
        seed: 7,
        algo: "ceal".into(),
    }
}

/// Polls the metrics endpoint until `n` workers hold live leases.
fn wait_for_live_workers(client: &mut Client, n: u64, deadline: Duration) {
    let give_up = Instant::now() + deadline;
    loop {
        let live = client.metrics().expect("metrics").fleet.live_workers;
        if live >= n {
            return;
        }
        assert!(
            Instant::now() < give_up,
            "only {live}/{n} workers registered in {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Advances `session` to done in `chunk`-sized rounds, returning the final
/// status and each round's latency in milliseconds.
fn drive_campaign(client: &mut Client, session: u64, chunk: u64) -> (SessionStatus, Vec<f64>) {
    let mut rounds_ms = Vec::new();
    for _ in 0..1000 {
        let t = Instant::now();
        let st = client.advance(session, chunk).expect("advance");
        rounds_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if st.state == "done" {
            return (st, rounds_ms);
        }
    }
    panic!("campaign never reached done");
}

/// `--fleet`: one campaign per fleet size, workers in-process; merges a
/// `"fleet"` section into the existing output JSON.
fn run_fleet_bench(out: &str) -> ! {
    const BUDGET: u64 = 40;
    let mut sizes = serde_json::Map::new();
    let mut table = Vec::new();
    for n_workers in [1usize, 2, 4] {
        let server = Server::bind(ServeConfig::default()).expect("failed to bind server");
        let handle = server.spawn();
        let addr = handle.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..n_workers)
            .map(|i| {
                let stop = Arc::clone(&stop);
                let cfg = WorkerConfig {
                    coordinator: addr.to_string(),
                    name: format!("bench-w{i}"),
                    poll_interval: Duration::from_millis(2),
                    retry: RetryPolicy::no_delay(3),
                    stop: Some(stop),
                    ..WorkerConfig::default()
                };
                std::thread::spawn(move || run_worker(cfg))
            })
            .collect();
        let mut client = Client::connect(addr).expect("client connect");
        wait_for_live_workers(&mut client, n_workers as u64, Duration::from_secs(10));

        let (st, _) = client
            .create_session(fleet_params(BUDGET), 0.0, 0)
            .expect("create session");
        let t0 = Instant::now();
        let (done, mut rounds_ms) = drive_campaign(&mut client, st.session, 5);
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(done.measured, BUDGET);
        let m = client.metrics().expect("metrics");

        stop.store(true, Ordering::Release);
        for w in workers {
            w.join()
                .expect("worker thread panicked")
                .expect("worker failed");
        }
        client.shutdown().expect("shutdown");
        handle.join().expect("server drain");

        rounds_ms.sort_by(|a, b| a.total_cmp(b));
        let p50 = percentile(&rounds_ms, 50.0);
        let max = rounds_ms.last().copied().unwrap_or(f64::NAN);
        let throughput = BUDGET as f64 / wall.max(1e-9);
        table.push(vec![
            format!("{n_workers}"),
            format!("{}", rounds_ms.len()),
            format!("{p50:.3}"),
            format!("{max:.3}"),
            format!("{throughput:.0}"),
            format!("{}", m.fleet.tasks_completed),
        ]);
        sizes.insert(
            format!("workers_{n_workers}"),
            serde_json::json!({
                "rounds": rounds_ms.len(),
                "round_p50_ms": p50,
                "round_max_ms": max,
                "measurements_per_s": throughput,
                "fleet_tasks_completed": m.fleet.tasks_completed,
            }),
        );
    }
    print_table(
        "fleet scatter/gather",
        &[
            "workers",
            "rounds",
            "round p50 ms",
            "round max ms",
            "meas/s",
            "fleet tasks",
        ],
        &table,
    );

    // Merge rather than overwrite: the load scenario owns the other keys.
    let mut doc = read_json_object(out);
    let sizes = serde_json::Value::from(sizes);
    doc.insert(
        "fleet".into(),
        serde_json::json!({
            "git_rev": git_rev(),
            "budget": BUDGET,
            "sizes": sizes,
        }),
    );
    let doc = serde_json::Value::from(doc);
    match std::fs::write(out, serde_json::to_string_pretty(&doc).unwrap()) {
        Ok(()) => println!("\n  [saved {out}]"),
        Err(e) => {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(1);
        }
    }
    std::process::exit(0);
}

/// `--overload`: drive the server well past its dispatch capacity and
/// prove graceful degradation — it stays live, sheds with typed `Busy`
/// answers, and the requests it does accept keep near-unloaded latency.
/// Merges an `"overload"` section into the existing output JSON.
fn run_overload_bench(out: &str) -> ! {
    // Dispatch capacity is pinned low so "4x capacity" stays cheap: a
    // high watermark of 1 with 8 unpaced clients is an 8x storm by
    // construction. One dispatch at a time also means every *accepted*
    // request runs uncontended — exactly the latency the watermark is
    // supposed to protect.
    const WORKERS: usize = 2;
    const HIGH_WATERMARK: usize = 1;
    const STORM_CLIENTS: usize = 8;
    const STORM: Duration = Duration::from_secs(3);

    let server = Server::bind(ServeConfig {
        workers: WORKERS,
        dispatch_high_watermark: HIGH_WATERMARK,
        dispatch_low_watermark: 1,
        ..ServeConfig::default()
    })
    .expect("failed to bind server");
    let handle = server.spawn();
    let addr = handle.addr().to_string();

    // A finished campaign gives Predict (a real, shed-eligible request
    // with deterministic cost) a fitted surrogate to score against.
    let mut setup = Client::connect(&addr as &str).expect("setup connect");
    let (st, _) = setup
        .create_session(fleet_params(15), 0.0, 0)
        .expect("create session");
    let session = st.session;
    let (done, _) = drive_campaign(&mut setup, session, 5);
    assert_eq!(done.state, "done");
    // A batched probe keeps the measured work real: scoring a few hundred
    // configurations costs enough that queueing — the thing admission
    // control bounds — dominates the latency comparison, not scheduler
    // noise on a microsecond-sized request.
    let spec = ceal_apps::workflow_by_name("LV").expect("LV workflow");
    let sim = ceal_sim::Simulator::new();
    let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(42);
    let probe = ceal_core::sample_pool(&spec, &sim.platform, 1024, &mut rng);

    let predict_once = |c: &mut Client| -> Result<f64, ceal_serve::ClientError> {
        let t = Instant::now();
        c.predict(session, probe.clone())?;
        Ok(t.elapsed().as_secs_f64() * 1e3)
    };

    // Server-side predict p99 (frame completion to response flush) from
    // the metrics histogram: the latency admission control actually
    // bounds. Client-side numbers are reported too, but on a small or
    // shared machine they also price the storm threads' own scheduling
    // delays, which shedding cannot help with.
    let server_predict_p99 = |c: &mut Client| -> f64 {
        c.metrics()
            .expect("metrics")
            .endpoints
            .into_iter()
            .find(|e| e.name == "predict")
            .map(|e| e.p99_us as f64 / 1e3)
            .unwrap_or(f64::NAN)
    };

    // ---- Phase 1: unloaded latency baseline. ----
    let mut unloaded: Vec<f64> = (0..200)
        .map(|_| predict_once(&mut setup).expect("unloaded predict"))
        .collect();
    unloaded.sort_by(|a, b| a.total_cmp(b));
    let unloaded_p99 = percentile(&unloaded, 99.0);
    let unloaded_server_p99 = server_predict_p99(&mut setup);

    // ---- Phase 2: the storm. Unpaced clients, no retry policy: a Busy
    // answer is counted as shed and the client immediately offers the
    // next request, keeping sustained pressure at ~4x capacity. ----
    let deadline = Instant::now() + STORM;
    let storm_handles: Vec<_> = (0..STORM_CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            let probe = probe.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr as &str).expect("storm connect");
                let mut accepted_ms: Vec<f64> = Vec::new();
                let mut shed = 0u64;
                while Instant::now() < deadline {
                    let t = Instant::now();
                    match c.predict(session, probe.clone()) {
                        Ok(_) => accepted_ms.push(t.elapsed().as_secs_f64() * 1e3),
                        Err(ceal_serve::ClientError::Overloaded { .. }) => {
                            shed += 1;
                            // Pause well below retry_after so the overload
                            // pressure holds (8 clients at one attempt per
                            // 4ms offer ~4x the ~2ms-per-request capacity),
                            // but long enough that shed clients spend their
                            // time asleep instead of starving the CPU the
                            // accepted requests are measured on.
                            std::thread::sleep(Duration::from_millis(4));
                        }
                        Err(e) => panic!("storm client failed: {e}"),
                    }
                }
                (accepted_ms, shed)
            })
        })
        .collect();

    // Mid-storm liveness: the shed-exempt Health endpoint must answer
    // while regular traffic is being refused.
    std::thread::sleep(STORM / 2);
    let health = setup.health().expect("health during storm");
    assert!(health.dispatch_high_watermark == HIGH_WATERMARK as u64);

    let mut accepted: Vec<f64> = Vec::new();
    let mut shed = 0u64;
    for h in storm_handles {
        let (ms, s) = h.join().expect("storm thread panicked");
        accepted.extend(ms);
        shed += s;
    }
    accepted.sort_by(|a, b| a.total_cmp(b));
    let accepted_p99 = percentile(&accepted, 99.0);
    let offered = accepted.len() as u64 + shed;
    let shed_rate = shed as f64 / (offered.max(1)) as f64;

    // Cumulative histogram, but the storm's accepted requests outnumber
    // the 200 baseline probes >10:1, so this reads as the storm's p99.
    let accepted_server_p99 = server_predict_p99(&mut setup);
    let final_health = setup.health().expect("health after storm");
    setup.shutdown().expect("shutdown");
    handle.join().expect("server drain");

    print_table(
        "overload",
        &["metric", "value"],
        &[
            vec!["storm clients".into(), format!("{STORM_CLIENTS}")],
            vec!["high watermark".into(), format!("{HIGH_WATERMARK}")],
            vec!["offered".into(), format!("{offered}")],
            vec!["accepted".into(), format!("{}", accepted.len())],
            vec!["shed".into(), format!("{shed}")],
            vec!["shed rate".into(), format!("{shed_rate:.3}")],
            vec!["unloaded p99 ms".into(), format!("{unloaded_p99:.3}")],
            vec!["accepted p99 ms".into(), format!("{accepted_p99:.3}")],
            vec![
                "unloaded server p99 ms".into(),
                format!("{unloaded_server_p99:.3}"),
            ],
            vec![
                "accepted server p99 ms".into(),
                format!("{accepted_server_p99:.3}"),
            ],
        ],
    );

    // The graceful-degradation contract, enforced as exit status so CI
    // can run this as a smoke test.
    assert!(shed > 0, "a 4x storm over the watermark must shed");
    assert!(
        final_health.requests_shed > 0,
        "server-side shed counter must agree"
    );
    assert!(
        accepted_server_p99 <= unloaded_server_p99 * 3.0,
        "accepted server-side p99 {accepted_server_p99:.3}ms blew past 3x \
         the unloaded {unloaded_server_p99:.3}ms — admission control is \
         not protecting latency"
    );

    let mut doc = read_json_object(out);
    doc.insert(
        "overload".into(),
        serde_json::json!({
            "git_rev": git_rev(),
            "storm_clients": STORM_CLIENTS,
            "dispatch_high_watermark": HIGH_WATERMARK,
            "offered": offered,
            "accepted": accepted.len(),
            "shed": shed,
            "shed_rate": shed_rate,
            "unloaded_p99_ms": unloaded_p99,
            "accepted_p99_ms": accepted_p99,
            "unloaded_server_p99_ms": unloaded_server_p99,
            "accepted_server_p99_ms": accepted_server_p99,
            "requests_shed_server": final_health.requests_shed,
            "connections_rejected_server": final_health.connections_rejected,
        }),
    );
    let doc = serde_json::Value::from(doc);
    match std::fs::write(out, serde_json::to_string_pretty(&doc).unwrap()) {
        Ok(()) => println!("\n  [saved {out}]"),
        Err(e) => {
            eprintln!("error: cannot write {out}: {e}");
            std::process::exit(1);
        }
    }
    std::process::exit(0);
}

/// `--worker-only ADDR`: the worker child of the process-level smoke test.
fn run_worker_only(addr: String) -> ! {
    let cfg = WorkerConfig {
        coordinator: addr,
        name: format!("proc-worker-{}", std::process::id()),
        poll_interval: Duration::from_millis(10),
        ..WorkerConfig::default()
    };
    match run_worker(cfg) {
        Ok(s) => {
            println!("worker done: {} executed, {} failed", s.executed, s.failed);
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("worker lost its coordinator: {e}");
            std::process::exit(1);
        }
    }
}

/// `--fleet-procs [--kill-one]`: coordinator + two workers as real child
/// processes; optionally SIGKILL one worker mid-campaign and prove the
/// campaign still completes with its exact oracle spend.
fn run_fleet_procs(kill_one: bool) -> ! {
    const BUDGET: u64 = 30;
    let exe = std::env::current_exe().expect("cannot locate own executable");
    let mut server = std::process::Command::new(&exe)
        .args(["--server-only", "--workers", "4", "--lease-ms", "300"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("failed to spawn coordinator process");
    let mut line = String::new();
    std::io::BufReader::new(server.stdout.take().expect("coordinator stdout missing"))
        .read_line(&mut line)
        .expect("failed to read coordinator address");
    let addr = line
        .trim()
        .strip_prefix("ADDR ")
        .unwrap_or_else(|| panic!("unexpected coordinator banner: {line:?}"))
        .to_string();
    let mut victim = std::process::Command::new(&exe)
        .args(["--worker-only", &addr])
        .spawn()
        .expect("failed to spawn worker 1");
    let mut survivor = std::process::Command::new(&exe)
        .args(["--worker-only", &addr])
        .spawn()
        .expect("failed to spawn worker 2");

    let mut client = Client::connect(&addr as &str).expect("client connect");
    wait_for_live_workers(&mut client, 2, Duration::from_secs(30));
    let (st, _) = client
        .create_session(fleet_params(BUDGET), 0.0, 0)
        .expect("create session");
    let session = st.session;
    // History first, then measure until something has actually been
    // scattered — that is the "mid-run" the kill should land in.
    let mut status = client.advance(session, 5).expect("advance");
    while status.measured == 0 {
        status = client.advance(session, 5).expect("advance");
    }
    if kill_one {
        victim.kill().expect("failed to kill worker 1");
        victim.wait().expect("killed worker did not exit");
        println!("killed worker 1 at {} measured", status.measured);
        // Let the lease lapse so the loss is observed before the (fast)
        // campaign drains the remaining budget.
        let deadline = Instant::now() + Duration::from_secs(30);
        while client.metrics().expect("metrics").fleet.live_workers != 1 {
            assert!(Instant::now() < deadline, "killed worker was never reaped");
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    while status.state != "done" {
        status = client.advance(session, 5).expect("advance");
    }
    assert_eq!(status.measured, BUDGET, "campaign must complete");
    let m = client.metrics().expect("metrics");
    assert_eq!(
        m.oracle_measurements,
        status.history_samples + status.measured,
        "every measurement billed exactly once, worker kill or not"
    );
    if kill_one {
        assert_eq!(m.fleet.workers_lost, 1, "the kill must have been observed");
    }
    println!(
        "fleet smoke ok: measured={} fleet_tasks={} rescattered={} workers_lost={}",
        status.measured, m.fleet.tasks_completed, m.fleet.tasks_rescattered, m.fleet.workers_lost
    );

    client.shutdown().expect("shutdown");
    let status = server.wait().expect("coordinator did not exit");
    assert!(status.success(), "coordinator failed: {status}");
    // The surviving worker notices the drain and exits on its own; killing
    // it if it does not is teardown, not a verdict on the test.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match survivor.try_wait().expect("worker 2 wait failed") {
            Some(_) => break,
            None if Instant::now() >= deadline => {
                survivor.kill().ok();
                survivor.wait().ok();
                break;
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    if !kill_one {
        victim.kill().ok();
        victim.wait().ok();
    }
    std::process::exit(0);
}

/// Who is serving, and what must be torn down afterwards.
enum Backend {
    External,
    InProcess(ceal_serve::ServerHandle),
    Child(std::process::Child),
}

fn main() {
    if std::env::args().any(|a| a == "--server-only") {
        let workers = std::env::args()
            .skip_while(|a| a != "--workers")
            .nth(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(4);
        let lease = std::env::args()
            .skip_while(|a| a != "--lease-ms")
            .nth(1)
            .and_then(|v| v.parse().ok())
            .map(Duration::from_millis);
        run_server_only(workers, lease);
    }
    if let Some(addr) = std::env::args().skip_while(|a| a != "--worker-only").nth(1) {
        run_worker_only(addr);
    }
    if std::env::args().any(|a| a == "--fleet-procs") {
        run_fleet_procs(std::env::args().any(|a| a == "--kill-one"));
    }
    if std::env::args().any(|a| a == "--fleet") {
        let out = std::env::args()
            .skip_while(|a| a != "--out")
            .nth(1)
            .unwrap_or_else(|| "BENCH_serve.json".into());
        run_fleet_bench(&out);
    }
    if std::env::args().any(|a| a == "--overload") {
        let out = std::env::args()
            .skip_while(|a| a != "--out")
            .nth(1)
            .unwrap_or_else(|| "BENCH_serve.json".into());
        run_overload_bench(&out);
    }
    let args = parse_args();

    // Each idle session costs one client fd here, plus one server fd when
    // the server shares this process. If the limit covers only one side,
    // serve from a child process instead — the *serving* process still
    // holds every open session.
    let both_sides = (2 * args.idle + args.active + 512) as u64;
    let one_side = (args.idle + args.active + 512) as u64;
    let limit = raise_fds(both_sides);
    if limit < one_side {
        eprintln!(
            "warning: fd limit {limit} below the {one_side} the client side \
             wants; lower --idle or raise ulimit -n"
        );
    }

    let (backend, addr) = match &args.addr {
        Some(a) => (Backend::External, a.clone()),
        None if limit >= both_sides => {
            let server = Server::bind(ServeConfig {
                workers: args.workers,
                // Idle sessions must stay alive for the whole run.
                idle_timeout: args.duration + Duration::from_secs(600),
                ..ServeConfig::default()
            })
            .expect("failed to bind server");
            let handle = server.spawn();
            let addr = handle.addr().to_string();
            (Backend::InProcess(handle), addr)
        }
        None => {
            let exe = std::env::current_exe().expect("cannot locate own executable");
            let mut child = std::process::Command::new(exe)
                .args(["--server-only", "--workers", &args.workers.to_string()])
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("failed to spawn server process");
            let mut line = String::new();
            std::io::BufReader::new(child.stdout.take().expect("child stdout missing"))
                .read_line(&mut line)
                .expect("failed to read server address");
            let addr = line
                .trim()
                .strip_prefix("ADDR ")
                .unwrap_or_else(|| panic!("unexpected server banner: {line:?}"))
                .to_string();
            eprintln!("note: fd limit {limit} < {both_sides}; serving from child process");
            (Backend::Child(child), addr)
        }
    };

    // ---- Idle sessions: open, handshake, hold. ----
    let open_start = Instant::now();
    let opened = Arc::new(AtomicUsize::new(0));
    let openers = 8.min(args.idle.max(1));
    let mut idle_conns: Vec<TcpStream> = Vec::with_capacity(args.idle);
    let mut handles = Vec::new();
    for t in 0..openers {
        let n = args.idle / openers + usize::from(t < args.idle % openers);
        let addr = addr.clone();
        let opened = Arc::clone(&opened);
        handles.push(std::thread::spawn(move || {
            let mut conns = Vec::with_capacity(n);
            for _ in 0..n {
                match open_session(&addr) {
                    Ok(c) => {
                        conns.push(c);
                        opened.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        eprintln!("error: idle session open failed: {e}");
                        std::process::exit(1);
                    }
                }
            }
            conns
        }));
    }
    for h in handles {
        idle_conns.extend(h.join().expect("opener thread panicked"));
    }
    let open_secs = open_start.elapsed().as_secs_f64();
    println!(
        "opened {} idle sessions in {:.1}s ({:.0}/s)",
        idle_conns.len(),
        open_secs,
        idle_conns.len() as f64 / open_secs.max(1e-9),
    );

    // ---- Active load: M clients paced to the aggregate target RPS. ----
    let deadline = Instant::now() + args.duration;
    let mut load_handles = Vec::new();
    for _ in 0..args.active {
        let addr = addr.clone();
        let period = Duration::from_secs_f64(args.active as f64 / args.rps as f64);
        load_handles.push(std::thread::spawn(move || {
            let mut stream = open_session(&addr).expect("active client connect failed");
            let mut latencies_ms: Vec<f64> = Vec::new();
            let mut next = Instant::now();
            while Instant::now() < deadline {
                let t = Instant::now();
                write_message(&mut stream, &Request::Ping).expect("active write failed");
                let resp: Response = read_message(&mut stream).expect("active read failed");
                assert!(matches!(resp, Response::Pong { .. }));
                latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                next += period;
                let now = Instant::now();
                if next > now {
                    std::thread::sleep(next - now);
                } else {
                    // Fell behind the pace; don't try to catch up in a
                    // burst, just resume the cadence from here.
                    next = now;
                }
            }
            latencies_ms
        }));
    }
    let mut latencies: Vec<f64> = Vec::new();
    for h in load_handles {
        latencies.extend(h.join().expect("load thread panicked"));
    }
    latencies.sort_by(|a, b| a.total_cmp(b));
    let total = latencies.len();
    let achieved_rps = total as f64 / args.duration.as_secs_f64();
    let (p50, p99, p999) = (
        percentile(&latencies, 50.0),
        percentile(&latencies, 99.0),
        percentile(&latencies, 99.9),
    );

    // ---- Server-side view of the same load: the HDR histogram behind
    // the metrics endpoint, fetched before shutdown so the ping numbers
    // cover exactly the requests measured above. ----
    let server_ping = {
        let mut ctl = open_session(&addr).expect("metrics connect failed");
        write_message(&mut ctl, &Request::Metrics).expect("metrics write failed");
        match read_message::<Response>(&mut ctl).expect("metrics read failed") {
            Response::Metrics(report) => report.endpoints.into_iter().find(|e| e.name == "ping"),
            other => panic!("metrics request answered with {other:?}"),
        }
    };
    let (server_p50_ms, server_p99_ms, server_p999_ms) = server_ping
        .map(|e| {
            (
                e.p50_us as f64 / 1e3,
                e.p99_us as f64 / 1e3,
                e.p999_us as f64 / 1e3,
            )
        })
        .unwrap_or((0.0, 0.0, 0.0));

    // ---- Shut the spawned server down (drains the idle sessions too). ----
    match backend {
        Backend::External => {}
        Backend::InProcess(handle) => {
            let mut ctl = open_session(&addr).expect("shutdown connect failed");
            write_message(&mut ctl, &Request::Shutdown).expect("shutdown write failed");
            let _ = read_message::<Response>(&mut ctl);
            handle.join().expect("server failed to drain");
        }
        Backend::Child(mut child) => {
            let mut ctl = open_session(&addr).expect("shutdown connect failed");
            write_message(&mut ctl, &Request::Shutdown).expect("shutdown write failed");
            let _ = read_message::<Response>(&mut ctl);
            let status = child.wait().expect("server process did not exit");
            assert!(status.success(), "server process failed: {status}");
        }
    }
    drop(idle_conns);

    print_table(
        "serve load",
        &["metric", "value"],
        &[
            vec!["idle sessions".into(), format!("{}", args.idle)],
            vec!["active clients".into(), format!("{}", args.active)],
            vec!["target rps".into(), format!("{}", args.rps)],
            vec!["achieved rps".into(), format!("{achieved_rps:.0}")],
            vec!["requests".into(), format!("{total}")],
            vec!["p50 ms".into(), format!("{p50:.3}")],
            vec!["p99 ms".into(), format!("{p99:.3}")],
            vec!["p999 ms".into(), format!("{p999:.3}")],
            vec!["server p50 ms".into(), format!("{server_p50_ms:.3}")],
            vec!["server p99 ms".into(), format!("{server_p99_ms:.3}")],
            vec!["server p999 ms".into(), format!("{server_p999_ms:.3}")],
        ],
    );

    let json = serde_json::json!({
        "git_rev": git_rev(),
        "idle_sessions": args.idle,
        "active_clients": args.active,
        "target_rps": args.rps,
        "duration_s": args.duration.as_secs_f64(),
        "workers": args.workers,
        "open_sessions_per_s": idle_conns_rate(args.idle, open_secs),
        "requests": total,
        "achieved_rps": achieved_rps,
        "p50_ms": p50,
        "p99_ms": p99,
        "p999_ms": p999,
        "server_p50_ms": server_p50_ms,
        "server_p99_ms": server_p99_ms,
        "server_p999_ms": server_p999_ms,
    });
    // Merge over any existing document so a prior `--fleet` section (or
    // future sibling scenarios) survives a load re-run.
    let mut doc = read_json_object(&args.out);
    if let serde_json::Value::Object(load) = json {
        for (k, v) in load {
            doc.insert(k, v);
        }
    }
    let json = serde_json::Value::from(doc);
    match std::fs::write(&args.out, serde_json::to_string_pretty(&json).unwrap()) {
        Ok(()) => println!("\n  [saved {}]", args.out),
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", args.out);
            std::process::exit(1);
        }
    }
}

fn idle_conns_rate(idle: usize, open_secs: f64) -> f64 {
    idle as f64 / open_secs.max(1e-9)
}
