//! `run`: every workload in one command, each measured run in a fresh
//! child process so CPU time, peak RSS and allocator state are per run.

use crate::manifest;
use crate::procfs;
use crate::workloads::{self, Workload};
use serde_json::Value;
use std::process::{Command, Stdio};

/// What `BENCHMARK.json` fixes for every comparison: the window length and
/// how far each end-to-end metric may move.
struct Contract {
    run_seconds: f64,
    /// `(metric, bound)`.
    bounds: Vec<(String, f64)>,
}

fn read_contract() -> Result<Contract, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repo root): {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bounds = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<_>>()
        .ok_or("BENCHMARK.json: malformed end_to_end entry")?;
    Ok(Contract {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
        bounds,
    })
}

/// Window length of `run --smoke`.
const SMOKE_SECONDS: f64 = 2.0;

/// Runs one workload in a child and returns its parsed result line.
fn child(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let result: Value = serde_json::from_str(line).map_err(|_| {
        format!(
            "{} (trace {trace}) printed no result; exit {}",
            w.name(),
            out.status
        )
    })?;
    if !out.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "{} (trace {trace}) failed its correctness gate; exit {}",
            w.name(),
            out.status
        ));
    }
    Ok(result)
}

fn value_of(result: &Value, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// Prints one table: a row per metric, a column per workload.
fn print_table(title: &str, table: &[(&str, &str)], results: &[(Workload, Value)]) {
    println!("\n{title}");
    print!("{:<34} {:<6}", "metric", "unit");
    for (w, _) in results {
        print!(" {:>16}", w.name());
    }
    println!();
    for (name, unit) in table {
        print!("{name:<34} {unit:<6}");
        for (_, r) in results {
            match value_of(r, name) {
                Some(v) => print!(" {v:>16.4}"),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
    }
}

/// One pass over every workload; `traced` adds the per-layer run.
fn pass(seed: u64, seconds: f64, traced: bool) -> Result<Value, String> {
    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    for w in workloads::ALL {
        eprintln!("== {} (seed {seed}, {seconds} s)", w.name());
        end_to_end.push((w, child(w, seed, seconds, false)?));
        if traced {
            per_layer.push((w, child(w, seed, seconds, true)?));
        }
    }
    print_table(
        "end-to-end (untraced window)",
        &manifest::END_TO_END,
        &end_to_end,
    );
    if traced {
        print_table(
            "per-layer (probes, counters, traced budget)",
            &manifest::PER_LAYER,
            &per_layer,
        );
    }
    let mut record = procfs::platform_meta();
    let by_workload = |runs: Vec<(Workload, Value)>| -> Value {
        Value::Object(
            runs.into_iter()
                .map(|(w, r)| (w.name().to_string(), r))
                .collect(),
        )
    };
    let per_workload = |f: fn(Workload) -> usize| -> Value {
        Value::Object(
            workloads::ALL
                .iter()
                .map(|w| (w.name().to_string(), f(*w).into()))
                .collect(),
        )
    };
    if let Value::Object(map) = &mut record {
        for (key, value) in [
            ("seed", seed.into()),
            ("window_s", seconds.into()),
            ("workers", per_workload(Workload::server_workers)),
            ("conns", per_workload(Workload::conns)),
            (
                "durable_on_tmpfs",
                procfs::on_tmpfs(&workloads::out_dir()).into(),
            ),
            ("end_to_end", by_workload(end_to_end)),
            ("per_layer", by_workload(per_layer)),
        ] {
            map.insert(key.to_string(), value);
        }
    }
    Ok(record)
}

/// Compares two passes metric by metric; returns the rows that disagree by
/// more than the metric's bound.
fn compare(contract: &Contract, first: &Value, second: &Value) -> Vec<String> {
    let mut unresolved = Vec::new();
    println!("\nrepeatability: two passes of the same code");
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "differ", "bound"
    );
    for w in workloads::ALL {
        for (metric, bound) in &contract.bounds {
            let get = |pass: &Value| value_of(pass.get("end_to_end")?.get(w.name())?, metric);
            let (Some(a), Some(b)) = (get(first), get(second)) else {
                unresolved.push(format!("{}/{metric}: missing", w.name()));
                continue;
            };
            let differ = (a - b).abs() / a.abs().min(b.abs()).max(f64::MIN_POSITIVE);
            let verdict = if differ > *bound { "  unresolved" } else { "" };
            println!(
                "{:<16} {metric:<26} {a:>14.4} {b:>14.4} {:>8.2}% {:>6.1}%{verdict}",
                w.name(),
                differ * 100.0,
                bound * 100.0
            );
            if differ > *bound {
                unresolved.push(format!("{}/{metric}", w.name()));
            }
        }
    }
    unresolved
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let contract = read_contract()?;
    let mut seed = 1;
    let mut seconds = contract.run_seconds;
    let mut check_repeat = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                let value = it.next().ok_or("--seed wants a value")?;
                seed = value.parse().map_err(|_| "bad --seed")?;
            }
            // Short windows, nothing compared: does every path still run?
            "--smoke" => seconds = SMOKE_SECONDS,
            "--check-repeat" => check_repeat = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    // The box idles before the first child and takes a second or two to
    // come back up to speed; spend that on a run nobody reads, or it lands
    // on the set-up time of whichever workload goes first.
    child(workloads::ALL[0], seed, SMOKE_SECONDS, false)?;
    let first = pass(seed, seconds, !check_repeat)?;
    let unresolved = if check_repeat {
        compare(&contract, &first, &pass(seed, seconds, false)?)
    } else {
        Vec::new()
    };
    let out = workloads::out_dir().join("ledger.json");
    std::fs::create_dir_all(workloads::out_dir())
        .map_err(|e| format!("create {}: {e}", workloads::out_dir().display()))?;
    let text = serde_json::to_string_pretty(&first).map_err(|e| e.to_string())?;
    std::fs::write(&out, text + "\n").map_err(|e| format!("write {}: {e}", out.display()))?;
    eprintln!("ledger written to {}", out.display());
    for row in &unresolved {
        eprintln!("unresolved: {row} differs between passes by more than its bound");
    }
    Ok(unresolved.is_empty())
}
