//! Perf-ledger harness for the CEAL tuning service.
//!
//! Two entry points:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one measured run of
//!   one workload, the form `BENCHMARK.json`'s driver invokes. The last
//!   line of stdout is the result object.
//! * `run [--seed N] [--smoke] [--check-repeat]` — every workload, traced
//!   and untraced, each in a fresh child process, printed as one ledger.
//!
//! See `benchmark/README.md` for what each metric means and why each
//! workload exists.

mod manifest;
mod probes;
mod procfs;
mod spans;
mod stats;
mod suite;
mod workloads;

use ceal_serve::MetricsReport;
use ceal_trace::Tracer;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use workloads::{Env, Keep, Window, Workload};

/// Full set-ups per run; `setup_s` is their median, so one slow start (cold
/// page cache, first thread-pool spin-up) does not set the metric.
const SETUP_REPEATS: usize = 3;

/// One driver invocation's measurements.
struct Outcome {
    values: Vec<(&'static str, f64)>,
    /// The samples behind the timing metrics (every set-up, every slice),
    /// for the run record: they tell a noisy run from a slow one.
    samples: serde_json::Value,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

fn counters_between(
    env: &Env,
    window: impl FnOnce() -> Window,
) -> Result<(MetricsReport, Window, MetricsReport), String> {
    let before = env.metrics()?;
    let w = window();
    Ok((before, w, env.metrics()?))
}

/// `--trace 0`: the end-to-end metrics, tracing off everywhere.
fn run_untraced(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let quiet = Tracer::disabled();
    let mut setups = Vec::new();
    let mut env: Option<Env> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = env.take() {
            previous.teardown()?;
        }
        let started = Instant::now();
        env = Some(workloads::setup(w, seed, w.conns(), &quiet, &quiet)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let env = env.expect("at least one set-up");
    let (before, window, after) = counters_between(&env, || {
        workloads::run_window(&env, seed, w.conns(), seconds, Keep::Count)
    })?;
    let mut violations = window.violations.clone();
    violations.extend(workloads::window_invariants(w, &before, &after));
    let verified = workloads::verify(&env)?;
    violations.extend(verified.violations);
    env.teardown()?;
    if window.ops == 0 {
        return Err("no op completed inside the window".into());
    }
    let [rates, cpus] = &window.slices;
    Ok(Outcome {
        samples: serde_json::json!({
            "setup_s": setups, "ops_per_s": rates, "cpu_ms_per_op": cpus,
        }),
        values: vec![
            ("setup_s", stats::median(&setups)),
            ("cpu_ms_per_op", window.cpu_ms_per_op),
            ("peak_rss_mb", procfs::peak_rss_mb()),
            (
                "oracle_runs_per_campaign",
                verified.oracle_runs_per_campaign,
            ),
            ("tuned_gap_pct", verified.tuned_gap_pct),
        ],
        attempted: window.ops + window.failed,
        failed: window.failed,
        violations,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `--trace 1`: probes, the workload's own counters, and the per-layer
/// budget of a traced window. Three windows of a third of `--seconds`
/// each: saturated (what a loaded service delivers), then one connection
/// with tracing off and with tracing on — one connection so the traced
/// window nests unambiguously (see `spans`) and the two compare.
fn run_traced(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let quiet = Tracer::disabled();
    let third = seconds / 3.0;
    let mut values: Vec<(&'static str, f64)> = Vec::new();

    let env = workloads::setup(w, seed, w.conns(), &quiet, &quiet)?;
    let (before, loaded, after) = counters_between(&env, || {
        workloads::run_window(&env, seed, w.conns(), third, Keep::Count)
    })?;
    env.teardown()?;
    let mut violations = loaded.violations.clone();
    violations.extend(workloads::window_invariants(w, &before, &after));
    values.push(("client.ops_per_s", loaded.ops_per_s));

    let env = workloads::setup(w, seed, 1, &quiet, &quiet)?;
    let (before, plain, after) = counters_between(&env, || {
        workloads::run_window(&env, seed, 1, third, Keep::Latencies)
    })?;
    env.teardown()?;
    if loaded.ops == 0 || plain.ops == 0 {
        return Err("no op completed inside an untraced window".into());
    }
    violations.extend(plain.violations.clone());
    violations.extend(workloads::window_invariants(w, &before, &after));
    let ops = plain.ops as f64;
    let fleet_done = (after.fleet.tasks_completed - before.fleet.tasks_completed) as f64;
    let lookups = (after.cache_lru_hits + after.cache_lru_misses
        - before.cache_lru_hits
        - before.cache_lru_misses) as f64;
    let per_worker: Vec<f64> = after
        .fleet
        .workers
        .iter()
        .map(|s| s.completed as f64)
        .collect();
    let tail_q = stats::tail_quantile(plain.lat_ms.len());
    values.extend([
        (
            "core.oracle_runs_per_op",
            (after.oracle_measurements - before.oracle_measurements) as f64 / ops,
        ),
        ("reactor.requests_shed", after.requests_shed as f64),
        (
            "reactor.connections_rejected",
            after.connections_rejected as f64,
        ),
        ("session.steps_per_op", plain.steps as f64 / ops),
        (
            "cache.front_hit_share",
            ratio(
                (after.cache_lru_hits - before.cache_lru_hits) as f64,
                lookups,
            ),
        ),
        (
            "cache.persist_failures",
            after.cache_persist_failures as f64,
        ),
        (
            "fleet.tasks_per_round",
            ratio(fleet_done, plain.steps as f64),
        ),
        (
            "fleet.local_fallback_share",
            ratio(plain.measured as f64 - fleet_done, plain.measured as f64),
        ),
        (
            "fleet.worker_balance",
            ratio(
                per_worker.iter().copied().fold(f64::INFINITY, f64::min),
                per_worker.iter().copied().fold(0.0, f64::max),
            ),
        ),
        (
            "fleet.tasks_rescattered",
            after.fleet.tasks_rescattered as f64,
        ),
        (
            "fleet.duplicate_results",
            after.fleet.duplicate_results as f64,
        ),
        ("client.op_count", ops),
        ("client.op_p50_ms", stats::percentile(&plain.lat_ms, 0.5)),
        ("client.op_tail_q", tail_q),
        (
            "client.op_tail_ms",
            stats::percentile(&plain.lat_ms, tail_q),
        ),
    ]);

    let server_trace = Tracer::in_memory();
    let worker_trace = Tracer::in_memory();
    let env = workloads::setup(w, seed, 1, &server_trace, &worker_trace)?;
    // Set-up and warm-up are not part of the budget.
    server_trace.drain_events();
    worker_trace.drain_events();
    let stop = AtomicBool::new(false);
    let traced = std::thread::scope(|s| {
        // The in-memory tracer has no flusher of its own; empty its ring
        // at the cadence the product's file flusher uses so it never drops.
        s.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                server_trace.flush();
                worker_trace.flush();
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let window = workloads::run_window(&env, seed, 1, third, Keep::Spans(Instant::now()));
        stop.store(true, Ordering::Release);
        window
    });
    let events = server_trace.drain_events();
    let worker_events = worker_trace.drain_events();
    env.teardown()?;
    violations.extend(traced.violations.clone());
    let budget = spans::budget(&traced.spans, &events);
    violations.extend(budget.violations());
    let dropped = server_trace.dropped() + worker_trace.dropped();
    if dropped > 0 {
        violations.push(format!("tracer dropped {dropped} events"));
    }
    let trace_path = workloads::out_dir().join(format!("trace-{}.jsonl", w.name()));
    spans::write_trace(&trace_path, &traced.spans, &events)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    values.extend([
        (
            "trace.overhead_pct",
            100.0 * (1.0 - ratio(traced.ops_per_s, plain.ops_per_s)),
        ),
        ("trace.dropped_events", dropped as f64),
        (
            "trace.events_per_op",
            ratio(
                (events.len() + worker_events.len()) as f64,
                traced.ops as f64,
            ),
        ),
        ("budget.transport_share", budget.transport),
        ("budget.request_share", budget.request),
        ("budget.campaign_share", budget.campaign),
        ("budget.phase_history_share", budget.phase_history),
        ("budget.phase_bootstrap_share", budget.phase_bootstrap),
        ("budget.phase_refine_share", budget.phase_refine),
        ("budget.oracle_share", budget.oracle),
        ("budget.journal_share", budget.journal),
        ("budget.cache_share", budget.cache),
        ("budget.fleet_share", budget.fleet),
        ("budget.unattributed_share", budget.unattributed),
    ]);

    let scratch = workloads::out_dir().join(format!("probes-{}", std::process::id()));
    values.extend(probes::run_all(&scratch)?);
    Ok(Outcome {
        values,
        samples: serde_json::Value::Null,
        attempted: [&loaded, &plain, &traced]
            .map(|w| w.ops + w.failed)
            .iter()
            .sum(),
        failed: loaded.failed + plain.failed + traced.failed,
        violations,
    })
}

struct DriverArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_driver_args(args: &[String]) -> Result<DriverArgs, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = Some(value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(DriverArgs {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Runs one workload and prints the result line. Returns whether the run
/// was correct.
fn drive(args: &DriverArgs) -> Result<bool, String> {
    let DriverArgs {
        workload,
        seed,
        seconds,
        trace,
    } = *args;
    let (outcome, table): (_, &[_]) = if trace {
        (run_traced(workload, seed, seconds)?, &manifest::PER_LAYER)
    } else {
        (
            run_untraced(workload, seed, seconds)?,
            &manifest::END_TO_END,
        )
    };
    for v in &outcome.violations {
        eprintln!("violation [{}]: {v}", workload.name());
    }
    let correct = outcome.violations.is_empty() && outcome.failed == 0;
    let mut record = procfs::platform_meta();
    if let serde_json::Value::Object(map) = &mut record {
        for (key, value) in [
            ("samples", outcome.samples),
            ("workload", workload.name().into()),
            ("trace", trace.into()),
            ("seed", seed.into()),
            ("window_s", seconds.into()),
            ("workers", workload.server_workers().into()),
            ("conns", workload.conns().into()),
            (
                "durable_on_tmpfs",
                procfs::on_tmpfs(&workloads::out_dir()).into(),
            ),
        ] {
            map.insert(key.to_string(), value);
        }
    }
    eprintln!("record: {record}");
    let line = serde_json::json!({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": manifest::metrics_object(table, &outcome.values)?,
    });
    println!("{line}");
    Ok(correct)
}

fn main() {
    // Campaign results do not depend on the thread count, timings do.
    std::env::set_var("CEAL_THREADS", workloads::COMPUTE_THREADS.to_string());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => suite::run(&args[1..]),
        _ => parse_driver_args(&args).and_then(|a| drive(&a)),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: ceal-benchmark --workload <{}> --seed N --seconds S --trace 0|1\n\
                 \x20      ceal-benchmark run [--seed N] [--smoke] [--check-repeat]",
                workloads::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    }
}
