//! Per-layer probes: direct, single-threaded calls into each layer's
//! public functions with fixed inputs, timed from outside. Medians over at
//! least 30 repetitions after a warm-up call. Probe inputs never depend on
//! `--seed`, so a probe value is comparable across every run and workload.

use crate::spans::Recorder;
use crate::stats;
use crate::workloads::{self, Workload};
use ceal_core::{
    encode_pool, fit_surrogate_samples, sample_pool, Autotuner, Ceal, CealParams, CombineFn,
    ComponentHistory, ComponentModels, FeatureMap, Journal, JournalRecord, LowFidelityModel,
    PoolOracle, SimOracle, SurrogateKind,
};
use ceal_fleet::{Coordinator, FleetConfig, TaskOutcome, TaskReport};
use ceal_ml::{Dataset, GbtParams, GradientBoosting, Regressor};
use ceal_serve::frame::{read_message, write_message};
use ceal_serve::{
    AutotuneCache, CacheEntry, CacheKey, Client, CountingOracle, Request, ServerMetrics,
    SessionManager, TuneParams,
};
use ceal_sim::{Objective, Simulator, WorkflowSpec};
use ceal_trace::{LogHistogram, TraceContext, Tracer};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const REPS: usize = 30;
/// Repetitions of a probe whose single call takes 10 ms or more; more
/// would not fit the benchmark's time cap.
const SLOW_REPS: usize = 10;
const POOL: usize = 2000;

/// Median nanoseconds of one call to `f`, over `reps` timed calls.
fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

/// Like [`time_ns`] for calls too short to time alone: each sample times
/// `batch` calls; `i` counts calls so inputs can vary.
fn time_batched_ns<R>(batch: usize, mut f: impl FnMut(usize) -> R) -> f64 {
    let mut i = 0;
    time_ns(REPS, || {
        for _ in 0..batch {
            black_box(f(i));
            i += 1;
        }
    }) / batch as f64
}

fn rng(tag: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0xBE7C4 ^ tag)
}

fn sim_oracle(spec: &WorkflowSpec) -> SimOracle {
    SimOracle::new(
        Simulator::new(),
        spec.clone(),
        Objective::ExecutionTime,
        2021,
    )
}

/// Smooth synthetic regression data, the shape `BENCH_ml.json` used.
fn synthetic(rows: usize, features: usize) -> Dataset {
    let mut r = rng(rows as u64);
    let xs: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..features).map(|_| r.gen_range(0.0..1.0)).collect())
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| {
            x.iter()
                .enumerate()
                .map(|(j, v)| v * (1 + j % 3) as f64)
                .sum::<f64>()
                + x[0] * x[1]
        })
        .collect();
    Dataset::from_rows(&xs, &ys)
}

pub type Values = Vec<(&'static str, f64)>;

fn ml_sim_core(out: &mut Values, scratch: &Path) -> Result<(), String> {
    let lv = ceal_apps::lv();
    let platform = ceal_sim::Platform::default();
    let pool = sample_pool(&lv, &platform, POOL, &mut rng(1));
    let oracle = sim_oracle(&lv);
    let fm = FeatureMap::for_workflow(&lv);

    // ceal-ml
    let samples: Vec<(Vec<i64>, f64)> = pool[..50]
        .iter()
        .map(|c| {
            Ok((
                c.clone(),
                oracle.try_measure(c).map_err(|e| e.to_string())?.value,
            ))
        })
        .collect::<Result<_, String>>()?;
    let fit = || fit_surrogate_samples(SurrogateKind::BoostedTrees, &fm, &samples, 0);
    out.push(("ml.gbt_fit_50x6_us", time_ns(REPS, fit) / 1e3));
    let wide = synthetic(1000, 20);
    let wide_params = GbtParams {
        subsample: 1.0,
        ..GbtParams::small_sample(0)
    };
    out.push((
        "ml.gbt_fit_1000x20_ms",
        time_ns(SLOW_REPS, || {
            let mut m = GradientBoosting::new(wide_params);
            m.fit(&wide);
            m
        }) / 1e6,
    ));
    out.push((
        "ml.encode_pool_2000_us",
        time_ns(REPS, || encode_pool(&fm, &pool)) / 1e3,
    ));
    let model = fit();
    let encoded = encode_pool(&fm, &pool);
    out.push((
        "ml.pool_score_2000_us",
        time_ns(REPS, || model.predict_batch(&encoded)) / 1e3,
    ));
    out.push((
        "ml.predict_32_us",
        time_ns(REPS, || model.predict_batch(&encode_pool(&fm, &pool[..32]))) / 1e3,
    ));

    // ceal-sim
    for (name, spec) in [
        ("sim.coupled_run_lv_us", ceal_apps::lv()),
        ("sim.coupled_run_hs_us", ceal_apps::hs()),
        ("sim.coupled_run_gp_us", ceal_apps::gp()),
    ] {
        let configs = sample_pool(&spec, &platform, 64, &mut rng(2));
        let o = sim_oracle(&spec);
        out.push((
            name,
            time_batched_ns(64, |i| o.try_measure(&configs[i % 64])) / 1e3,
        ));
    }
    let solo: Vec<Vec<i64>> = pool[..64].iter().map(|c| lv.split(c)[0].to_vec()).collect();
    out.push((
        "sim.solo_run_us",
        time_batched_ns(64, |i| oracle.try_measure_component(0, &solo[i % 64])) / 1e3,
    ));
    out.push((
        "sim.pool_precompute_2000_ms",
        time_ns(SLOW_REPS, || PoolOracle::precompute(sim_oracle(&lv), &pool)) / 1e6,
    ));

    // ceal-core
    out.push((
        "core.sample_pool_2000_ms",
        time_ns(REPS, || sample_pool(&lv, &platform, POOL, &mut rng(1))) / 1e6,
    ));
    let history = ComponentHistory::collect(&oracle, 20, &mut rng(3));
    out.push((
        "core.acm_fit_us",
        time_ns(REPS, || ComponentModels::fit(&lv, &history, 0)) / 1e3,
    ));
    let low = LowFidelityModel::new(
        &lv,
        ComponentModels::fit(&lv, &history, 0),
        CombineFn::for_objective(Objective::ExecutionTime),
    );
    out.push((
        "core.acm_score_2000_us",
        time_ns(REPS, || low.score_all(&pool)) / 1e3,
    ));
    let table = PoolOracle::precompute(sim_oracle(&lv), &pool);
    let ceal = Ceal::new(CealParams::without_history());
    let mut failed = None;
    out.push((
        "core.ceal_run_b50_ms",
        time_ns(SLOW_REPS, || {
            if let Err(e) = ceal.try_run(&table, &pool, 50, 7) {
                failed = Some(e.to_string());
            }
        }) / 1e6,
    ));
    if let Some(e) = failed {
        return Err(format!("probe campaign failed: {e}"));
    }
    let billed = ServerMetrics::new();
    ceal.try_run(&CountingOracle::new(&table, &billed), &pool, 50, 7)
        .map_err(|e| e.to_string())?;
    out.push((
        "core.oracle_calls_per_campaign",
        billed
            .oracle_measurements
            .load(std::sync::atomic::Ordering::Relaxed) as f64,
    ));

    // ceal-core::journal
    let record = JournalRecord::Coupled {
        config: pool[0].clone(),
        value: 12.345678901234,
        exec_time: 12.345678901234,
        computer_time: 0.987654321,
        attempt: 1,
    };
    let io = |e: ceal_core::JournalError| format!("journal probe: {e}");
    let (mut journal, _) = Journal::open(scratch.join("append.wal")).map_err(io)?;
    let mut append_failed = false;
    out.push((
        "core.journal_append_us",
        time_ns(100, || append_failed |= journal.append(&record).is_err()) / 1e3,
    ));
    journal.set_sync_on_commit(false);
    out.push((
        "core.journal_append_nosync_us",
        time_batched_ns(32, |_| append_failed |= journal.append(&record).is_err()) / 1e3,
    ));
    let long = scratch.join("open.wal");
    let (mut journal, _) = Journal::open(&long).map_err(io)?;
    journal.set_sync_on_commit(false);
    for _ in 0..1000 {
        journal.append(&record).map_err(io)?;
    }
    drop(journal);
    let mut recovered = 1000;
    out.push((
        "core.journal_open_1000_ms",
        time_ns(REPS, || {
            recovered = Journal::open(&long).map_or(0, |(_, report)| report.records.len())
        }) / 1e6,
    ));
    if append_failed || recovered != 1000 {
        return Err(format!(
            "journal probe: append failed={append_failed}, reopened {recovered}/1000 records"
        ));
    }
    Ok(())
}

fn wire(out: &mut Values) -> Result<(), String> {
    let lv = ceal_apps::lv();
    let platform = ceal_sim::Platform::default();
    let configs = sample_pool(&lv, &platform, 32, &mut rng(4));
    let small = Request::Status { session: 123_456 };
    let predict = Request::Predict {
        session: 123_456,
        configs: configs.clone(),
    };
    let large = Request::PushHistory {
        session: 123_456,
        samples: (0..4)
            .map(|j| {
                (0..100)
                    .map(|i| {
                        (
                            configs[i % 32][..3].to_vec(),
                            1.0 + (i * 4 + j) as f64 / 7.0,
                        )
                    })
                    .collect()
            })
            .collect(),
    };
    let encode = |req: &Request| -> Result<Vec<u8>, String> {
        let mut buf = Vec::new();
        write_message(&mut buf, req).map_err(|e| e.to_string())?;
        Ok(buf)
    };
    let mut ok = true;
    let mut buf = Vec::with_capacity(1 << 16);
    let mut round = |req: &Request, encode_only: bool| {
        buf.clear();
        ok &= write_message(&mut buf, req).is_ok();
        if !encode_only {
            ok &= read_message::<Request>(&mut buf.as_slice()).is_ok_and(|back| &back == req);
        }
    };
    out.push((
        "wire.encode_small_ns",
        time_batched_ns(256, |_| round(&small, true)),
    ));
    out.push((
        "wire.encode_predict32_us",
        time_batched_ns(16, |_| round(&predict, true)) / 1e3,
    ));
    out.push((
        "wire.roundtrip_large_us",
        time_batched_ns(4, |_| round(&large, false)) / 1e3,
    ));
    let (small_frame, predict_frame, large_frame) =
        (encode(&small)?, encode(&predict)?, encode(&large)?);
    let mut decode = |frame: &[u8]| ok &= read_message::<Request>(&mut &frame[..]).is_ok();
    out.push((
        "wire.decode_small_ns",
        time_batched_ns(256, |_| decode(&small_frame)),
    ));
    out.push((
        "wire.decode_predict32_us",
        time_batched_ns(16, |_| decode(&predict_frame)) / 1e3,
    ));
    out.push(("wire.bytes_small", small_frame.len() as f64));
    out.push(("wire.bytes_predict32", predict_frame.len() as f64));
    out.push(("wire.bytes_large", large_frame.len() as f64));
    if !ok {
        return Err("wire probe: a frame failed to round-trip".into());
    }
    Ok(())
}

fn probe_params(pair: usize, seed: u64) -> TuneParams {
    let (workflow, objective) = [("LV", "exec"), ("HS", "comp"), ("GP", "exec")][pair % 3];
    TuneParams {
        workflow: workflow.into(),
        objective: objective.into(),
        budget: 30,
        pool: 500,
        seed,
        algo: "ceal".into(),
    }
}

/// Latencies (ms) of the `client.advance` spans a recorder holds.
fn advance_ms(rec: &Recorder) -> Vec<f64> {
    rec.spans
        .iter()
        .filter(|s| s.name == "client.advance")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

/// Probes that need a live server: connection set-up, the ping floor, the
/// server's own per-endpoint medians under a fixed request sequence, and a
/// durable and a fleet mini-campaign.
fn served(out: &mut Values) -> Result<(), String> {
    let quiet = Tracer::disabled();
    let err = |e: ceal_serve::ClientError| format!("served probe: {e}");

    // Durable server: journal + disk cache, as `session_durable`.
    let env = workloads::start(Workload::SessionDurable, &quiet, &quiet)?;
    let mut connect_failed = false;
    out.push((
        "reactor.connect_us",
        time_ns(100, || {
            connect_failed |= Client::connect(env.addr.as_str()).is_err()
        }) / 1e3,
    ));
    if connect_failed {
        return Err("served probe: connect failed".into());
    }
    let cpu_before = crate::procfs::cpu_ms();
    let rtts: Vec<Vec<f64>> = std::thread::scope(|s| {
        let pingers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::connect(env.addr.as_str()).map_err(err)?;
                    let until = Instant::now() + Duration::from_millis(500);
                    let mut rtt = Vec::new();
                    while Instant::now() < until {
                        let t = Instant::now();
                        client.ping().map_err(err)?;
                        rtt.push(t.elapsed().as_nanos() as f64 / 1e3);
                    }
                    Ok(rtt)
                })
            })
            .collect();
        pingers
            .into_iter()
            .map(|p| p.join().expect("ping thread panicked"))
            .collect::<Result<_, String>>()
    })?;
    let cpu_us = (crate::procfs::cpu_ms() - cpu_before) * 1e3;
    let rtts: Vec<f64> = rtts.concat();
    out.push(("reactor.ping_rtt_p50_us", stats::median(&rtts)));
    out.push(("reactor.ping_cpu_us", cpu_us / rtts.len() as f64));

    let mut client = env.control()?;
    let mut rec = Recorder::new(Instant::now());
    let mut last = None;
    for i in 0..6 {
        if let Some(open) = last.take() {
            client.close_session(open).map_err(err)?;
        }
        let (status, _) = workloads::run_session(
            &mut client,
            probe_params(i, 900 + i as u64),
            Some(&mut rec),
            0,
            false,
        )
        .map_err(err)?;
        last = Some(status.session);
    }
    let session = last.expect("six campaigns ran");
    out.push((
        "session.advance_step_p50_ms",
        stats::median(&advance_ms(&rec)),
    ));
    let configs = sample_pool(
        &ceal_apps::gp(),
        &ceal_sim::Platform::default(),
        32,
        &mut rng(5),
    );
    for _ in 0..200 {
        client.status(session).map_err(err)?;
        client.predict(session, configs.clone()).map_err(err)?;
    }
    for i in 0..6 {
        client.tune(probe_params(i, 950 + i as u64)).map_err(err)?;
    }
    let report = env.metrics()?;
    for (name, endpoint) in [
        ("reactor.server_p50_us_status", "status"),
        ("reactor.server_p50_us_predict", "predict"),
        ("reactor.server_p50_us_advance", "advance"),
        ("reactor.server_p50_us_tune", "tune"),
    ] {
        let stats = report
            .endpoints
            .iter()
            .find(|e| e.name == endpoint)
            .ok_or_else(|| format!("served probe: no '{endpoint}' endpoint stats"))?;
        out.push((name, stats.p50_us as f64));
    }
    env.teardown()?;

    // Fleet server: in-memory, two workers, as `fleet_round`.
    let env = workloads::start(Workload::FleetRound, &quiet, &quiet)?;
    let mut client = env.control()?;
    let mut rec = Recorder::new(Instant::now());
    let mut measured = 0;
    for i in 0..4 {
        let (status, _) = workloads::run_session(
            &mut client,
            probe_params(i, 970 + i as u64),
            Some(&mut rec),
            0,
            true,
        )
        .map_err(err)?;
        measured += status.measured;
    }
    let rounds = advance_ms(&rec);
    out.push(("fleet.round_p50_ms", stats::median(&rounds)));
    out.push((
        "fleet.measurements_per_s",
        measured as f64 / (rounds.iter().sum::<f64>() / 1e3),
    ));
    env.teardown()
}

fn session(out: &mut Values, scratch: &Path) -> Result<(), String> {
    let err = |e: ceal_serve::ServeError| format!("session probe: {e}");
    let cache = AutotuneCache::in_memory();
    let metrics = ServerMetrics::new();
    let manager = SessionManager::new(Duration::from_secs(600));
    let mut seed = 5000;
    let mut create = || {
        seed += 1;
        manager.create(probe_params(0, seed), 0.0, 0, &cache, &metrics)
    };
    let mut failed = false;
    out.push((
        "session.create_us",
        time_ns(REPS, || failed |= create().is_err()) / 1e3,
    ));

    // One refining step of five runs on a session advanced that far.
    let mut steps = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let (mut status, _) = create().map_err(err)?;
        let handle = manager.get(status.session).map_err(err)?;
        let mut s = handle.lock();
        while status.state != "refining" {
            status = s.advance(5, &cache, &metrics).map_err(err)?;
        }
        let t = Instant::now();
        s.advance(5, &cache, &metrics).map_err(err)?;
        steps.push(t.elapsed().as_nanos() as f64 / 1e6);
        drop(s);
        manager.close(status.session).map_err(err)?;
    }
    out.push(("session.advance_direct_ms", stats::median(&steps)));

    // Restart path: 100 journaled campaigns interrupted mid-bootstrap.
    let dir = scratch.join("rebuild");
    let journaled = || {
        SessionManager::new(Duration::from_secs(600))
            .with_journal_dir(&dir)
            .map_err(|e| format!("session probe: {e}"))
    };
    let live = journaled()?;
    for i in 0..100 {
        let small = TuneParams {
            budget: 12,
            pool: 100,
            ..probe_params(i, 7000 + i as u64)
        };
        let (status, _) = live.create(small, 0.0, 0, &cache, &metrics).map_err(err)?;
        let handle = live.get(status.session).map_err(err)?;
        for _ in 0..2 {
            handle.lock().advance(2, &cache, &metrics).map_err(err)?;
        }
    }
    drop(live);
    let mut rebuilt = 100;
    out.push((
        "session.rebuild_100_ms",
        time_ns(SLOW_REPS, || match journaled() {
            Ok(m) => rebuilt = rebuilt.min(m.rebuild_from_disk(&metrics)),
            Err(_) => rebuilt = 0,
        }) / 1e6,
    ));
    if failed || rebuilt != 100 {
        return Err(format!(
            "session probe: create failed={failed}, rebuilt {rebuilt}/100 sessions"
        ));
    }
    Ok(())
}

fn cache_entry(i: u64, platform: &str) -> CacheEntry {
    let config = |k: u64| vec![100 + (i + k) as i64 % 400, 20, 1 + k as i64 % 4, 50, 10, 2];
    CacheEntry {
        key: CacheKey {
            workflow: "LV".into(),
            platform: platform.into(),
            objective: "exec".into(),
            pool: 500,
            seed: i,
            budget: 30,
            algo: "tune:ceal".into(),
        },
        best: config(0),
        best_value: 10.0 + i as f64 / 3.0,
        runs_used: 30,
        component_runs: 8,
        samples: (0..30)
            .map(|k| (config(k), 10.0 + (i * 31 + k) as f64 / 7.0))
            .collect(),
        platform_features: vec![1.0 + i as f64 / 100.0, 2.0, 3.0, 4.0],
    }
}

fn cache(out: &mut Values, scratch: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("cache probe: {e}");
    // LRU front of one entry: alternating keys always fall to the shard.
    let disk = AutotuneCache::at_path_with_capacity(scratch.join("cache"), 1);
    let mut next = 0;
    let mut fill_to = |n: u64| -> Result<(), String> {
        while next < n {
            disk.put(cache_entry(next, "probe-platform")).map_err(io)?;
            next += 1;
        }
        Ok(())
    };
    let mut put_failed = false;
    let mut timed_puts = |from: u64| {
        let mut i = from;
        time_ns(SLOW_REPS, || {
            put_failed |= disk.put(cache_entry(i, "probe-platform")).is_err();
            i += 1;
        }) / 1e3
    };
    fill_to(50)?;
    out.push(("cache.put_us_50", timed_puts(10_000)));
    fill_to(100 - SLOW_REPS as u64 - 1)?;
    let mut tiers_ok = true;
    out.push((
        "cache.disk_hit_us",
        time_batched_ns(2, |i| {
            let (hit, tier) = disk.get_with_tier(&cache_entry(i as u64 % 2, "probe-platform").key);
            tiers_ok &= hit.is_some() && tier == "disk";
        }) / 1e3,
    ));
    out.push(("cache.put_us_100", timed_puts(20_000)));

    let front = AutotuneCache::in_memory();
    for i in 0..100 {
        front
            .put(cache_entry(i, &format!("sibling-{i}")))
            .map_err(io)?;
    }
    let hot = cache_entry(7, "sibling-7").key;
    out.push((
        "cache.front_hit_ns",
        time_batched_ns(256, |_| tiers_ok &= front.get_with_tier(&hot).1 == "front"),
    ));
    let query = cache_entry(0, "query-platform");
    out.push((
        "cache.nearest_transfer_us",
        time_ns(REPS, || {
            tiers_ok &= front
                .nearest_transfer(&query.key, &query.platform_features, 10.0)
                .is_some()
        }) / 1e3,
    ));
    if put_failed || !tiers_ok {
        return Err(format!(
            "cache probe: put failed={put_failed}, lookups answered as expected={tiers_ok}"
        ));
    }
    Ok(())
}

fn fleet_trace_par(out: &mut Values) -> Result<(), String> {
    // One scatter/gather round of five tasks with the worker in-thread:
    // the coordinator's own cost, no transport and no measuring.
    let coordinator = Coordinator::new(FleetConfig::default());
    let (worker, _) = coordinator.register("probe-worker");
    let configs: Vec<(u64, Vec<i64>)> = (0..5).map(|i| (i, vec![100, 20, 1, 50, 10, 1])).collect();
    let mut complete = true;
    out.push((
        "fleet.scatter_gather_us",
        time_ns(100, || {
            let batch = coordinator.scatter(1, &configs, "LV", "exec", 2021, TraceContext::NONE);
            let mut reports = Vec::new();
            loop {
                let tasks = coordinator.poll(worker, std::mem::take(&mut reports));
                let Ok(tasks) = tasks else {
                    complete = false;
                    break;
                };
                if tasks.is_empty() {
                    break;
                }
                reports.extend(tasks.into_iter().map(|t| TaskReport {
                    task: t.task,
                    outcome: TaskOutcome::Measured {
                        value: 1.0,
                        exec_time: 1.0,
                        computer_time: 1.0,
                    },
                }));
            }
            complete &= coordinator.gather(batch).results.len() == configs.len();
        }) / 1e3,
    ));
    if !complete {
        return Err("fleet probe: a round came back incomplete".into());
    }

    let disabled = Tracer::disabled();
    out.push((
        "trace.span_disabled_ns",
        time_batched_ns(1024, |_| disabled.span("probe", TraceContext::NONE)),
    ));
    let memory = Tracer::in_memory();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            // A full ring drops, which is cheaper than recording: empty it
            // between batches, outside the timed part.
            memory.drain_events();
            let t = Instant::now();
            for _ in 0..1024 {
                black_box(memory.span("probe", TraceContext::NONE));
            }
            t.elapsed().as_nanos() as f64 / 1024.0
        })
        .collect();
    out.push(("trace.span_memory_ns", stats::median(&samples)));
    Ok(())
}

/// Runs every probe. `scratch` is an empty directory inside the checkout
/// for the probes that write (journal, cache shards).
pub fn run_all(scratch: &Path) -> Result<Values, String> {
    std::fs::create_dir_all(scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let mut out = Values::new();
    ml_sim_core(&mut out, scratch)?;
    wire(&mut out)?;
    served(&mut out)?;
    session(&mut out, scratch)?;
    cache(&mut out, scratch)?;
    fleet_trace_par(&mut out)?;

    let hist = LogHistogram::new();
    out.push((
        "trace.hist_record_ns",
        time_batched_ns(1024, |i| hist.record(1 + (i as u64 * 37) % 100_000)),
    ));
    let items: Vec<u64> = (0..2000).collect();
    out.push((
        "par.parallel_map_2000_us",
        time_ns(REPS, || {
            ceal_par::parallel_map(&items, |x| x.wrapping_mul(3))
        }) / 1e3,
    ));
    out.push(("par.threads", ceal_par::available_threads() as f64));
    std::fs::remove_dir_all(scratch).map_err(|e| format!("remove {}: {e}", scratch.display()))?;
    Ok(out)
}
