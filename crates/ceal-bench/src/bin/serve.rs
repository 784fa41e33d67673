//! `serve` — run the CEAL tuning service (coordinator or fleet worker).
//!
//! ```text
//! serve [--addr 127.0.0.1:7070] [--workers N] [--cache CACHE_DIR]
//!       [--cache-import bundle.json] [--lru-capacity N]
//!       [--idle-secs N] [--journal-dir DIR] [--lease-ms N]
//!       [--trace-dir DIR]
//! serve --worker COORDINATOR_ADDR [--name NAME] [--trace-dir DIR]
//! ```
//!
//! Serves until a client sends a `Shutdown` request, then drains in-flight
//! work and exits. Point the `tune` binary at it with `--remote ADDR`.
//! With `--journal-dir`, every live session keeps a write-ahead journal
//! there, and sessions that were live when the server died are rebuilt
//! from their journals at the next start.
//!
//! `--cache` names a cache *directory* (one append-only record log per
//! workflow, owned by one process at a time); a cache of an older layout
//! at that path is left untouched with a warning, and `cache import`
//! converts it. `--cache-import` seeds the cache from a portable
//! bundle produced by `cache export` before the first request is served —
//! locally cached campaigns win over imported ones.
//!
//! With `--worker ADDR` the process is a fleet measurement worker instead:
//! it registers with the coordinator at `ADDR`, long-polls it for work —
//! a poll with nothing to hand out is held by the coordinator until a
//! campaign scatters a round — and executes the measurement tasks it is
//! handed until the coordinator drains. `--workers` (dispatch threads)
//! need not grow with the fleet or the number of campaigns using it: a
//! request waiting on a fleet round holds no thread.
//!
//! `--trace-dir` turns on structured tracing: every span and warning is
//! flushed as JSON lines into that directory (one file per process).
//! Inspect the result with the `trace` binary.

use ceal_serve::{run_worker, ServeConfig, Server, WorkerConfig};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--workers N] [--cache CACHE_DIR] \
         [--cache-import bundle.json] [--lru-capacity N] [--idle-secs N] \
         [--journal-dir DIR] [--lease-ms N] [--trace-dir DIR]\n       \
         serve --worker COORDINATOR_ADDR [--name NAME] [--trace-dir DIR]"
    );
    std::process::exit(2);
}

fn worker_main(coordinator: String, name: Option<String>, tracer: ceal_trace::Tracer) -> ! {
    let cfg = WorkerConfig {
        coordinator,
        name: name.unwrap_or_else(|| format!("worker-{}", std::process::id())),
        tracer: tracer.clone(),
        ..WorkerConfig::default()
    };
    println!("ceal-worker '{}' polling {}", cfg.name, cfg.coordinator);
    let outcome = run_worker(cfg);
    tracer.flush();
    match outcome {
        Ok(summary) => {
            println!(
                "ceal-worker done: {} executed, {} failed",
                summary.executed, summary.failed
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("ceal-worker lost its coordinator: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut config = ServeConfig {
        addr: "127.0.0.1:7070".into(),
        ..ServeConfig::default()
    };
    let mut worker_addr: Option<String> = None;
    let mut worker_name: Option<String> = None;
    let mut trace_dir: Option<std::path::PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => config.addr = val(),
            "--workers" => config.workers = val().parse().unwrap_or_else(|_| usage()),
            "--cache" => config.cache_path = Some(val().into()),
            "--cache-import" => config.cache_import = Some(val().into()),
            "--lru-capacity" => {
                config.cache_lru_capacity = val().parse().unwrap_or_else(|_| usage())
            }
            "--journal-dir" => config.journal_dir = Some(val().into()),
            "--idle-secs" => {
                config.idle_timeout = Duration::from_secs(val().parse().unwrap_or_else(|_| usage()))
            }
            "--lease-ms" => {
                config.worker_lease =
                    Duration::from_millis(val().parse().unwrap_or_else(|_| usage()))
            }
            "--worker" => worker_addr = Some(val()),
            "--name" => worker_name = Some(val()),
            "--trace-dir" => trace_dir = Some(val().into()),
            _ => usage(),
        }
    }
    if let Some(dir) = &trace_dir {
        config.tracer = ceal_trace::Tracer::to_dir(dir).unwrap_or_else(|e| {
            eprintln!("cannot open trace dir {}: {e}", dir.display());
            std::process::exit(1);
        });
    }
    if let Some(coordinator) = worker_addr {
        worker_main(coordinator, worker_name, config.tracer);
    }

    let server = Server::bind(config).unwrap_or_else(|e| {
        eprintln!("cannot bind: {e}");
        std::process::exit(1);
    });
    println!("ceal-serve listening on {}", server.local_addr());
    if let Err(e) = server.run() {
        eprintln!("serve loop failed: {e}");
        std::process::exit(1);
    }
    println!("ceal-serve drained and stopped");
}
