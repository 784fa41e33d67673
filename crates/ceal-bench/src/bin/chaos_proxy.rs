//! `chaos-proxy` — a standalone deterministic fault-injection TCP proxy.
//!
//! Puts a [`ceal_chaos::ChaosProxy`] between any client and any server so
//! network faults can be rehearsed against real processes: point workers
//! at the proxy instead of the coordinator and the configured fault plan
//! applies to every connection. Every fault is a pure function of the
//! plan — a fixed delay, a byte offset, a time window — so a failing run
//! replays exactly.
//!
//! ```text
//! cargo run --release -p ceal-bench --bin chaos-proxy -- \
//!     --upstream HOST:PORT [--listen HOST:PORT] [--latency-ms N] \
//!     [--reset-at-bytes N] [--partition START_MS:DURATION_MS]... \
//!     [--duration SECS]
//! ```
//!
//! Prints `LISTEN <addr>` once bound. Without `--duration` it forwards
//! until killed; with it, it exits after that many seconds and prints a
//! stats summary (also printed on timed exit).

use ceal_chaos::{ChaosProxy, FaultPlan, PartitionWindow};
use std::io::Write;
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: chaos-proxy --upstream HOST:PORT [--listen HOST:PORT] [--latency-ms N] \
         [--reset-at-bytes N] [--partition START_MS:DURATION_MS]... [--duration SECS]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    v.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} wants a value");
        usage();
    })
}

fn parse_partition(spec: &str) -> PartitionWindow {
    let Some((start, duration)) = spec.split_once(':') else {
        eprintln!("--partition wants START_MS:DURATION_MS, got '{spec}'");
        usage();
    };
    match (start.parse::<u64>(), duration.parse::<u64>()) {
        (Ok(s), Ok(d)) => PartitionWindow {
            start: Duration::from_millis(s),
            duration: Duration::from_millis(d),
        },
        _ => {
            eprintln!("--partition wants START_MS:DURATION_MS, got '{spec}'");
            usage();
        }
    }
}

fn main() {
    let mut upstream: Option<String> = None;
    let mut listen = "127.0.0.1:0".to_string();
    let mut duration: Option<Duration> = None;
    let mut plan = FaultPlan::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--upstream" => upstream = Some(parse("--upstream", it.next())),
            "--listen" => listen = parse("--listen", it.next()),
            "--latency-ms" => {
                plan.latency = Duration::from_millis(parse("--latency-ms", it.next()))
            }
            "--reset-at-bytes" => plan.reset_at_bytes = Some(parse("--reset-at-bytes", it.next())),
            "--partition" => plan
                .partitions
                .push(parse_partition(&parse::<String>("--partition", it.next()))),
            "--duration" => {
                duration = Some(Duration::from_secs_f64(parse("--duration", it.next())))
            }
            _ => usage(),
        }
    }
    let Some(upstream) = upstream else { usage() };
    let upstream: SocketAddr = upstream
        .to_socket_addrs()
        .ok()
        .and_then(|mut a| a.next())
        .unwrap_or_else(|| {
            eprintln!("cannot resolve upstream '{upstream}'");
            std::process::exit(2);
        });

    let proxy = ChaosProxy::spawn_on(&listen as &str, upstream, plan).unwrap_or_else(|e| {
        eprintln!("cannot bind {listen}: {e}");
        std::process::exit(1);
    });
    println!("LISTEN {}", proxy.addr());
    std::io::stdout().flush().expect("stdout flush failed");

    match duration {
        Some(d) => {
            std::thread::sleep(d);
            let stats = proxy.shutdown();
            println!(
                "chaos-proxy done: {} conns ({} refused), {} resets, \
                 {} bytes up, {} bytes down",
                stats.connections, stats.refused, stats.resets, stats.bytes_up, stats.bytes_down,
            );
        }
        None => loop {
            // Forward until killed; the periodic sleep keeps this thread
            // free while the proxy's own threads do the work.
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
}
