//! Engine tests over richer DAG topologies than the unit tests' two-stage
//! pipeline: fan-out, transform chains, and invalid shapes.

use ceal_sim::{
    ComponentModel, ParamDef, Placement, Platform, Resolved, Role, SimError, Simulator,
    WorkflowSpec,
};
use std::sync::Arc;

/// A configurable synthetic component for topology tests.
struct Synth {
    name: &'static str,
    role: Role,
    step_seconds: f64,
    emit_bytes: u64,
    solo_steps: u64,
    params: [ParamDef; 1],
}

impl Synth {
    fn source(name: &'static str, steps: u64, interval: u64, step_seconds: f64, emit: u64) -> Self {
        Self {
            name,
            role: Role::Source {
                steps,
                emit_interval: interval,
            },
            step_seconds,
            emit_bytes: emit,
            solo_steps: steps / interval.max(1),
            params: [ParamDef::range("procs", 1, 64)],
        }
    }

    fn transform(name: &'static str, step_seconds: f64, emit: u64, solo: u64) -> Self {
        Self {
            name,
            role: Role::Transform,
            step_seconds,
            emit_bytes: emit,
            solo_steps: solo,
            params: [ParamDef::range("procs", 1, 64)],
        }
    }

    fn sink(name: &'static str, step_seconds: f64, solo: u64) -> Self {
        Self {
            name,
            role: Role::Sink,
            step_seconds,
            emit_bytes: 0,
            solo_steps: solo,
            params: [ParamDef::range("procs", 1, 64)],
        }
    }
}

impl ComponentModel for Synth {
    fn name(&self) -> &str {
        self.name
    }
    fn params(&self) -> &[ParamDef] {
        &self.params
    }
    fn placement(&self, _platform: &Platform, values: &[i64]) -> Placement {
        let procs = values[0] as u64;
        Placement {
            procs,
            ppn: procs.min(36),
        }
    }
    fn resolve(&self, platform: &Platform, values: &[i64]) -> Resolved {
        let Placement { procs, ppn } = self.placement(platform, values);
        Resolved {
            role: self.role,
            procs,
            ppn,
            threads: 1,
            compute_per_step: self.step_seconds / procs as f64,
            emit_bytes: self.emit_bytes,
            staging_buffer: None,
            solo_steps: self.solo_steps,
        }
    }
}

fn spec(components: Vec<Synth>, edges: Vec<(usize, usize)>) -> WorkflowSpec {
    WorkflowSpec {
        name: "synthetic".into(),
        components: components
            .into_iter()
            .map(|c| Arc::new(c) as Arc<dyn ComponentModel>)
            .collect(),
        edges,
        max_nodes: 32,
    }
}

#[test]
fn gp_shaped_fanout_with_transform_chain() {
    // src -> {transform -> sink2, sink1}: the GP topology.
    let wf = spec(
        vec![
            Synth::source("src", 40, 4, 0.4, 1 << 20),
            Synth::transform("xform", 0.1, 1 << 16, 10),
            Synth::sink("plot", 0.05, 10),
            Synth::sink("pplot", 0.02, 10),
        ],
        vec![(0, 1), (0, 2), (1, 3)],
    );
    let sim = Simulator::noiseless();
    let r = sim.run(&wf, &[4, 2, 1, 1], 0).unwrap();
    // 10 emissions flow through every edge.
    assert_eq!(r.components[0].emissions, 10);
    assert_eq!(r.components[1].emissions, 10);
    // Everyone finishes; the workflow ends when the slowest does.
    for c in &r.components {
        assert!(c.end_time > 0.0 && c.end_time <= r.exec_time);
    }
    // Source busy: 40 × 0.1 = 4 s + emission packaging.
    assert!(r.exec_time >= 4.0);
}

#[test]
fn transform_chain_of_three_stages() {
    let wf = spec(
        vec![
            Synth::source("src", 20, 2, 0.2, 1 << 18),
            Synth::transform("t1", 0.05, 1 << 16, 10),
            Synth::transform("t2", 0.05, 1 << 14, 10),
            Synth::sink("sink", 0.05, 10),
        ],
        vec![(0, 1), (1, 2), (2, 3)],
    );
    let r = Simulator::noiseless().run(&wf, &[2, 1, 1, 1], 0).unwrap();
    assert_eq!(r.components[0].emissions, 10);
    assert_eq!(r.components[1].emissions, 10);
    assert_eq!(r.components[2].emissions, 10);
    // Pipeline end-to-end at least the source's busy time plus the last
    // sink's work on the final emission.
    assert!(r.exec_time >= 20.0 * 0.1);
}

#[test]
fn fan_in_is_rejected() {
    let wf = spec(
        vec![
            Synth::source("a", 10, 1, 0.1, 1024),
            Synth::source("b", 10, 1, 0.1, 1024),
            Synth::sink("sink", 0.1, 10),
        ],
        vec![(0, 2), (1, 2)],
    );
    let err = Simulator::noiseless().run(&wf, &[1, 1, 1], 0).unwrap_err();
    assert!(matches!(err, SimError::UnsupportedTopology(_)), "{err:?}");
}

#[test]
fn source_with_input_is_rejected() {
    let wf = spec(
        vec![
            Synth::source("a", 10, 1, 0.1, 1024),
            Synth::source("b", 10, 1, 0.1, 1024),
        ],
        vec![(0, 1)],
    );
    let err = Simulator::noiseless().run(&wf, &[1, 1], 0).unwrap_err();
    assert!(matches!(err, SimError::UnsupportedTopology(_)));
}

#[test]
fn orphan_consumer_is_rejected() {
    let wf = spec(
        vec![
            Synth::source("a", 10, 1, 0.1, 1024),
            Synth::sink("b", 0.1, 10),
        ],
        vec![],
    );
    let err = Simulator::noiseless().run(&wf, &[1, 1], 0).unwrap_err();
    assert!(matches!(err, SimError::UnsupportedTopology(_)));
}

#[test]
fn fanout_shares_fabric_bandwidth() {
    // Two heavy parallel streams from one source: each transfer gets at
    // most fabric/2, so the run takes longer than a single-stream variant
    // with the same per-edge volume.
    let heavy = 1u64 << 30;
    let double = spec(
        vec![
            Synth::source("src", 8, 1, 0.001, heavy),
            Synth::sink("s1", 0.001, 8),
            Synth::sink("s2", 0.001, 8),
        ],
        vec![(0, 1), (0, 2)],
    );
    let single = spec(
        vec![
            Synth::source("src", 8, 1, 0.001, heavy),
            Synth::sink("s1", 0.001, 8),
        ],
        vec![(0, 1)],
    );
    let sim = Simulator::noiseless();
    let t2 = sim.run(&double, &[1, 1, 1], 0).unwrap().exec_time;
    let t1 = sim.run(&single, &[1, 1], 0).unwrap().exec_time;
    assert!(t2 > t1 * 1.5, "fan-out should contend: {t2} vs {t1}");
}

#[test]
fn solo_transform_includes_emit_packaging() {
    let wf = spec(
        vec![
            Synth::source("src", 10, 1, 0.1, 1 << 20),
            Synth::transform("t", 0.2, 1 << 20, 10),
        ],
        vec![(0, 1)],
    );
    let sim = Simulator::noiseless();
    let solo = sim.run_solo(&wf, 1, &[1], 0).unwrap();
    let platform = Platform::default();
    let expect = 10.0 * (0.2 + platform.chunk_overhead);
    assert!(
        (solo.exec_time - expect).abs() < 1e-9,
        "{} vs {expect}",
        solo.exec_time
    );
}
