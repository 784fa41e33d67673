//! `tune` — auto-tune one of the bundled workflows from the command line.
//!
//! ```text
//! tune --workflow LV --objective comp --budget 50 [--algo ceal|al|rs|geist|alph|bo|rl]
//!      [--pool 2000] [--seed 0] [--history path.json] [--save-history path.json]
//!      [--remote HOST:PORT [--retry N]] [--journal run.wal [--resume]]
//!      [--failure-rate P [--max-attempts N]]
//! ```
//!
//! Prints the recommended configuration, its measured performance, and the
//! comparison against the paper's expert recommendation. With `--remote` the
//! campaign runs on a `serve` instance instead of in-process; results come
//! back over the wire (possibly straight from the server's persistent cache)
//! and are identical to the local path for the same seed.
//!
//! With `--journal` every paid-for measurement is committed to a write-ahead
//! journal before the tuner sees it; a killed campaign restarted with
//! `--resume` folds the journaled measurements back into the tuner for free
//! — each must be the run it asks for next — and only pays for what the
//! crash lost. Resumed or not, a campaign runs each configuration once: a
//! repeated solo ask is answered with its own record. `--failure-rate`
//! injects transient measurement faults retried up to `--max-attempts`
//! times; exhausted retries exit with a typed error instead of panicking.

use ceal_core::algorithms::{by_name, Campaign};
use ceal_core::{
    prepare_campaign, sample_pool, CampaignId, ComponentHistory, FaultInjector, Fold, Journal,
    MeasureError, Oracle, RetryingCollector, SimOracle, SoloMeasurement,
};
use ceal_sim::{Objective, Simulator};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::sync::Arc;

struct Args {
    workflow: String,
    objective: Objective,
    budget: usize,
    algo: String,
    pool: usize,
    seed: u64,
    history: Option<String>,
    save_history: Option<String>,
    remote: Option<String>,
    retry: u32,
    journal: Option<String>,
    resume: bool,
    failure_rate: f64,
    max_attempts: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: tune --workflow LV|HS|GP [--objective exec|comp] [--budget N] \
         [--algo ceal|al|rs|geist|alph|bo|rl] [--pool N] [--seed N] \
         [--history file.json] [--save-history file.json] [--remote HOST:PORT [--retry N]] \
         [--journal file.wal [--resume]] [--failure-rate P [--max-attempts N]]"
    );
    std::process::exit(2);
}

fn parse() -> Args {
    let mut args = Args {
        workflow: String::new(),
        objective: Objective::ExecutionTime,
        budget: 50,
        algo: "ceal".into(),
        pool: 2000,
        seed: 0,
        history: None,
        save_history: None,
        remote: None,
        retry: 0,
        journal: None,
        resume: false,
        failure_rate: 0.0,
        max_attempts: 5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workflow" => args.workflow = val(),
            "--objective" => {
                args.objective = match val().as_str() {
                    "exec" => Objective::ExecutionTime,
                    "comp" => Objective::ComputerTime,
                    _ => usage(),
                }
            }
            "--budget" => args.budget = val().parse().unwrap_or_else(|_| usage()),
            "--algo" => args.algo = val(),
            "--pool" => args.pool = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--history" => args.history = Some(val()),
            "--save-history" => args.save_history = Some(val()),
            "--remote" => args.remote = Some(val()),
            "--retry" => args.retry = val().parse().unwrap_or_else(|_| usage()),
            "--journal" => args.journal = Some(val()),
            "--resume" => args.resume = true,
            "--failure-rate" => args.failure_rate = val().parse().unwrap_or_else(|_| usage()),
            "--max-attempts" => args.max_attempts = val().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    if args.workflow.is_empty() {
        usage();
    }
    if !(0.0..1.0).contains(&args.failure_rate) || args.max_attempts == 0 {
        usage();
    }
    if args.retry > 0 && args.remote.is_none() {
        eprintln!("--retry only applies with --remote");
        std::process::exit(2);
    }
    args
}

fn main() {
    let args = parse();
    let Some(spec) = ceal_apps::workflow_by_name(&args.workflow) else {
        eprintln!("unknown workflow '{}'", args.workflow);
        usage();
    };
    if let Some(addr) = &args.remote {
        if args.history.is_some() || args.save_history.is_some() {
            eprintln!("--history/--save-history are not supported with --remote");
            std::process::exit(2);
        }
        tune_remote(addr, &spec, &args);
        return;
    }

    let sim = Simulator::new();
    println!(
        "tuning {} for {} with {} ({} run budget, pool {})",
        spec.name, args.objective, args.algo, args.budget, args.pool
    );

    let mut rng = ChaCha8Rng::seed_from_u64(args.seed ^ 0xFACE);
    let pool = sample_pool(&spec, &sim.platform, args.pool, &mut rng);
    let oracle = SimOracle::new(sim, spec.clone(), args.objective, 2021);

    let history: Option<Arc<ComponentHistory>> = args.history.as_ref().map(|path| {
        let h = ComponentHistory::load(path)
            .unwrap_or_else(|e| panic!("cannot load history {path}: {e}"));
        println!(
            "loaded {} historical component samples from {path}",
            h.total_samples()
        );
        Arc::new(h)
    });

    let algo = by_name(&args.algo, history.clone()).unwrap_or_else(|| usage());

    // Oracle stack, innermost out: the simulator oracle (each measurement
    // a live run — only what the tuner asks for is simulated), then an
    // optional fault-injection + retry layer. A journal sits outside it:
    // replayed runs are folded in without measuring.
    let fault_seed = args.seed ^ 0xFA17;
    let injector;
    let retrying;
    let measuring: &dyn Oracle = if args.failure_rate > 0.0 {
        injector = FaultInjector::new(&oracle, args.failure_rate, fault_seed);
        retrying = RetryingCollector::new(&injector, args.max_attempts);
        println!(
            "fault injection: {:.0}% failure rate, {} attempts per measurement",
            args.failure_rate * 100.0,
            args.max_attempts
        );
        &retrying
    } else {
        &oracle
    };
    let t0 = std::time::Instant::now();
    let mut fold = Fold::new(
        algo.as_ref(),
        Campaign::of(&oracle, pool, args.budget, args.seed),
    );
    let mut journal = None;
    if let Some(path) = &args.journal {
        let (mut opened, report) = Journal::open(path).unwrap_or_else(|e| {
            eprintln!("cannot open journal {path}: {e}");
            std::process::exit(1);
        });
        if report.truncated_bytes > 0 {
            println!(
                "journal {path}: dropped {} torn tail bytes",
                report.truncated_bytes
            );
        }
        let cid = CampaignId {
            workflow: spec.name.clone(),
            objective: match args.objective {
                Objective::ExecutionTime => "exec".into(),
                Objective::ComputerTime => "comp".into(),
            },
            algo: args.algo.clone(),
            budget: args.budget as u64,
            pool: args.pool as u64,
            seed: args.seed,
            failure_rate: args.failure_rate,
            fault_seed,
        };
        let replayed = prepare_campaign(&mut opened, report.records, &cid, args.resume)
            .and_then(|records| fold.replay(records))
            .unwrap_or_else(|e| {
                eprintln!("cannot resume from journal {path}: {e}");
                std::process::exit(1);
            });
        journal = Some((opened, replayed));
    }

    // Write-ahead: a fresh run is journaled before the tuner is told it.
    let run = fold.drive(measuring, |record| match &mut journal {
        Some((j, _)) => j
            .append(record)
            .map_err(|e| MeasureError::Failed(format!("journal append failed: {e}"))),
        None => Ok(()),
    });
    let run = run.unwrap_or_else(|e| {
        eprintln!("tuning run failed: {e}");
        std::process::exit(1);
    });
    let tuned = oracle.measure(&run.best_predicted);

    if let Some((_, (solo, coupled))) = journal {
        // A repeated solo ask is answered with the campaign's record, so
        // the solo runs paid for are the configurations the journal lacked.
        let distinct = |runs: &[SoloMeasurement]| {
            let configs: HashSet<_> = runs.iter().map(|m| (m.component, &m.values)).collect();
            configs.len() as u64
        };
        let runs = &run.component_runs;
        println!(
            "journal: replayed {coupled} coupled + {solo} solo measurements, paid for {} coupled + {} solo",
            run.measured.len() as u64 - coupled,
            distinct(runs) - distinct(&runs[..solo as usize])
        );
    }
    println!(
        "\n{}: measured {} coupled + {} component runs in {:.1}s",
        algo.name(),
        run.runs_used(),
        run.component_runs.len(),
        t0.elapsed().as_secs_f64()
    );
    let names: Vec<&str> = spec.all_params().iter().map(|p| p.name).collect();
    println!("recommended configuration:");
    for (name, v) in names.iter().zip(&run.best_predicted) {
        println!("  {name:>16} = {v}");
    }
    let unit = match args.objective {
        Objective::ExecutionTime => "s",
        Objective::ComputerTime => "core-hours",
    };
    println!("measured performance: {:.3} {unit}", tuned.value);
    if let Some(expert_cfg) = ceal_apps::expert_config(&spec.name, args.objective) {
        let expert = oracle.measure(&expert_cfg).value;
        println!(
            "expert recommendation: {:.3} {unit} ({:+.1}% vs tuned)",
            expert,
            (tuned.value - expert) / expert * 100.0
        );
    }
    println!(
        "data-collection cost: {:.2} {unit}",
        run.collection_cost(args.objective)
    );

    if let Some(path) = args.save_history {
        // Persist the component measurements this run collected so future
        // tuning sessions can reuse them for free (§7.5).
        let mut h = history
            .map(|h| (*h).clone())
            .unwrap_or_else(|| ComponentHistory::empty(spec.components.len()));
        for m in &run.component_runs {
            h.push(m.component, m.values.clone(), m.value);
        }
        h.save(&path)
            .unwrap_or_else(|e| panic!("cannot save history {path}: {e}"));
        println!("saved {} component samples to {path}", h.total_samples());
    }
}

/// Run the campaign on a `serve` instance and print the same report the
/// local path would. The server replicates the in-process construction
/// (same pool seed, same oracle seed) so the recommendation matches.
fn tune_remote(addr: &str, spec: &ceal_sim::WorkflowSpec, args: &Args) {
    let objective = match args.objective {
        Objective::ExecutionTime => "exec",
        Objective::ComputerTime => "comp",
    };
    println!(
        "tuning {} for {} with {} ({} run budget, pool {}) via {addr}",
        spec.name, args.objective, args.algo, args.budget, args.pool
    );
    // With `--retry N` the client rides out transport failures and
    // honors the server's `Busy` retry hints instead of failing fast —
    // the right mode when the server may be restarting or shedding load.
    let mut client = if args.retry > 0 {
        let policy = ceal_core::RetryPolicy {
            max_attempts: args.retry,
            ..ceal_core::RetryPolicy::default()
        };
        ceal_serve::Client::connect_with_retry(addr, policy)
            .unwrap_or_else(|e| panic!("cannot connect to {addr}: {e}"))
    } else {
        ceal_serve::Client::connect(addr)
            .unwrap_or_else(|e| panic!("cannot connect to {addr}: {e}"))
    };
    let t0 = std::time::Instant::now();
    let outcome = client
        .tune(ceal_serve::TuneParams {
            workflow: spec.name.clone(),
            objective: objective.into(),
            budget: args.budget as u64,
            pool: args.pool as u64,
            seed: args.seed,
            algo: args.algo.clone(),
        })
        .unwrap_or_else(|e| panic!("remote tuning failed: {e}"));

    println!(
        "\n{}: measured {} coupled + {} component runs in {:.1}s{}",
        args.algo,
        outcome.runs_used,
        outcome.component_runs,
        t0.elapsed().as_secs_f64(),
        if outcome.from_cache {
            " (served from cache)"
        } else {
            ""
        }
    );
    let names: Vec<&str> = spec.all_params().iter().map(|p| p.name).collect();
    println!("recommended configuration:");
    for (name, v) in names.iter().zip(&outcome.best) {
        println!("  {name:>16} = {v}");
    }
    let unit = match args.objective {
        Objective::ExecutionTime => "s",
        Objective::ComputerTime => "core-hours",
    };
    println!("measured performance: {:.3} {unit}", outcome.best_value);
}
