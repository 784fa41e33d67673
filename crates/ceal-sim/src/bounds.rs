//! Analytic bounds on coupled execution time.
//!
//! These closed forms are *not* used by the tuner (the whole point of the
//! paper is that no accurate analytic model of a coupled run exists); they
//! bound the DES result from below and above and serve as engine
//! correctness oracles in property tests. Nothing in the product calls
//! them: [`busy_times`] and [`within_bounds`] are public for
//! `tests/paper_properties.rs` and `tests/property_based.rs`.

use crate::platform::Platform;
use crate::spec::{Resolved, Role, WorkflowSpec};

/// Per-component busy time of an ideal, never-blocked coupled run (no
/// noise): compute with coupled-run interference, emission packaging, and
/// consumer-side unpack costs.
pub fn busy_times(platform: &Platform, spec: &WorkflowSpec, config: &[i64]) -> Vec<f64> {
    let resolved = spec.resolve_all(platform, config);
    let expected = consumer_expectations(spec, &resolved);
    let in_edges = spec.in_edges();
    resolved
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let emit = crate::engine_emit_cost(platform, r.emit_bytes, r.staging_buffer);
            let step = r.compute_per_step * crate::engine::interference_factor(platform, r);
            let unpack: f64 = in_edges[i]
                .iter()
                .map(|&e| {
                    let p = &resolved[spec.edges[e].0];
                    crate::engine_emit_cost(platform, p.emit_bytes, p.staging_buffer)
                })
                .sum();
            match r.role {
                Role::Source { steps, .. } => {
                    steps as f64 * step + r.source_emissions() as f64 * emit
                }
                Role::Transform => expected[i] as f64 * (step + unpack + emit),
                Role::Sink => expected[i] as f64 * (step + unpack),
            }
        })
        .collect()
}

fn consumer_expectations(spec: &WorkflowSpec, resolved: &[Resolved]) -> Vec<u64> {
    let n = spec.components.len();
    let mut out_count: Vec<u64> = resolved.iter().map(Resolved::source_emissions).collect();
    let mut expected = vec![0u64; n];
    for _ in 0..n {
        for &(from, to) in &spec.edges {
            expected[to] = out_count[from];
            if matches!(resolved[to].role, Role::Transform) {
                out_count[to] = out_count[from];
            }
        }
    }
    expected
}

/// Lower bound on coupled execution time: no component can finish earlier
/// than its own busy time, nor can the run finish before all stream bytes
/// have crossed the fabric.
fn lower_bound(platform: &Platform, spec: &WorkflowSpec, config: &[i64]) -> f64 {
    let busy = busy_times(platform, spec, config);
    let resolved = spec.resolve_all(platform, config);
    let mut total_bytes = 0u64;
    for &(from, _) in &spec.edges {
        let r = &resolved[from];
        let emissions = match r.role {
            Role::Source { .. } => r.source_emissions(),
            _ => consumer_expectations(spec, &resolved)[from],
        };
        total_bytes += emissions * r.emit_bytes;
    }
    let net = total_bytes as f64 / platform.fabric_bandwidth;
    busy.into_iter().fold(net, f64::max)
}

/// Upper bound: a fully serialized schedule — every component's busy time
/// plus every byte sent at the worst per-stream rate, executed one after
/// another.
fn upper_bound(platform: &Platform, spec: &WorkflowSpec, config: &[i64]) -> f64 {
    let busy: f64 = busy_times(platform, spec, config).iter().sum();
    let resolved = spec.resolve_all(platform, config);
    let expected = consumer_expectations(spec, &resolved);
    let worst_rate = platform
        .link_bandwidth
        .min(platform.fabric_bandwidth / spec.edges.len().max(1) as f64);
    let mut net = 0.0;
    for &(from, _) in &spec.edges {
        let r = &resolved[from];
        let emissions = match r.role {
            Role::Source { .. } => r.source_emissions(),
            _ => expected[from],
        };
        net += (emissions * r.emit_bytes) as f64 / worst_rate;
    }
    busy + net
}

/// Checks that a DES execution time lies within the analytic bounds
/// (inclusive, with relative slack `tol` for float accumulation).
pub fn within_bounds(
    platform: &Platform,
    spec: &WorkflowSpec,
    config: &[i64],
    exec_time: f64,
    tol: f64,
) -> Result<(), String> {
    let lo = lower_bound(platform, spec, config);
    let hi = upper_bound(platform, spec, config);
    if exec_time < lo * (1.0 - tol) {
        return Err(format!("exec {exec_time} below lower bound {lo}"));
    }
    if exec_time > hi * (1.0 + tol) {
        return Err(format!("exec {exec_time} above upper bound {hi}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::test_support::pipeline;

    #[test]
    fn bounds_bracket_the_des() {
        for (steps, interval, step_s, bytes, analysis) in [
            (100u64, 10u64, 1.0, 1u64 << 20, 0.001),
            (100, 10, 0.01, 1 << 20, 2.0),
            (50, 5, 0.5, 1 << 28, 0.5),
            (10, 1, 0.0, 1 << 30, 0.0),
        ] {
            let spec = pipeline(steps, interval, step_s, bytes, analysis);
            let platform = Platform::default();
            for cfg in [[1i64, 1], [10, 1], [1, 10], [64, 64]] {
                let r = crate::engine::simulate(&platform, &spec, &cfg, 0, 0.0).unwrap();
                within_bounds(&platform, &spec, &cfg, r.exec_time, 1e-6)
                    .unwrap_or_else(|e| panic!("cfg {cfg:?}: {e}"));
            }
        }
    }

    #[test]
    fn lower_bound_not_above_upper() {
        let spec = pipeline(40, 4, 0.3, 1 << 22, 0.4);
        let platform = Platform::default();
        let lo = lower_bound(&platform, &spec, &[4, 4]);
        let hi = upper_bound(&platform, &spec, &[4, 4]);
        assert!(lo <= hi);
        assert!(lo > 0.0);
    }

    #[test]
    fn busy_times_match_roles() {
        let spec = pipeline(100, 10, 1.0, 1 << 20, 0.5);
        let platform = Platform::default();
        let busy = busy_times(&platform, &spec, &[10, 5]);
        let resolved = spec.resolve_all(&platform, &[10, 5]);
        let k0 = crate::engine::interference_factor(&platform, &resolved[0]);
        let k1 = crate::engine::interference_factor(&platform, &resolved[1]);
        // Source: 100 × 0.1 × interference + 10 emissions × chunk overhead.
        assert!((busy[0] - (10.0 * k0 + 10.0 * platform.chunk_overhead)).abs() < 1e-9);
        // Sink: 10 emissions × (0.1 analysis × interference + unpack).
        assert!((busy[1] - (1.0 * k1 + 10.0 * platform.chunk_overhead)).abs() < 1e-9);
    }
}
