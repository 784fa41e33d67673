//! Workflow and component specifications.
//!
//! A [`WorkflowSpec`] is a DAG of components (nodes) and streaming edges, as
//! in paper §2.3. Components implement [`ComponentModel`]: given the
//! platform and their parameter values they *resolve* to the concrete
//! runtime behaviour ([`Resolved`]) the simulator executes — placement
//! (processes/node → nodes), per-step compute time, emission size and
//! cadence, and optionally a staging-buffer size.

use crate::config::{values_valid, ParamDef};
use crate::platform::Platform;
use std::ops::Range;
use std::sync::Arc;

/// How a component participates in the streaming pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Drives its own step loop and emits every `emit_interval` steps
    /// (simulations: LAMMPS, Heat Transfer, Gray-Scott).
    Source {
        /// Total compute steps performed.
        steps: u64,
        /// Steps between consecutive emissions (≥ 1).
        emit_interval: u64,
    },
    /// Consumes one input emission, computes, and emits one output
    /// (PDF calculator).
    Transform,
    /// Consumes input emissions and produces no stream output
    /// (Voro++, Stage Write, G-Plot, P-Plot).
    Sink,
}

/// Where a component's processes go under a given configuration: the part
/// of its behaviour that decides how many nodes it occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// MPI processes.
    pub procs: u64,
    /// Processes per node.
    pub ppn: u64,
}

impl Placement {
    /// Nodes the processes occupy.
    pub fn nodes(&self) -> u64 {
        self.procs.div_ceil(self.ppn.max(1))
    }
}

/// Concrete runtime behaviour of a component under a given configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Resolved {
    /// Pipeline role.
    pub role: Role,
    /// MPI processes.
    pub procs: u64,
    /// Processes per node.
    pub ppn: u64,
    /// Threads per process.
    pub threads: u64,
    /// Seconds per compute step (sources) or per consumed emission
    /// (transforms/sinks), before measurement noise.
    pub compute_per_step: f64,
    /// Bytes emitted per emission (sources/transforms; 0 for sinks).
    pub emit_bytes: u64,
    /// Outbound staging-buffer capacity in bytes, when the component's
    /// configuration controls it (Heat Transfer's `buffer size`); `None`
    /// uses the default double-buffering capacity.
    pub staging_buffer: Option<u64>,
    /// Emissions processed by a nominal standalone run (defines the solo
    /// workload of consumers; for sources this should equal
    /// `steps / emit_interval`).
    pub solo_steps: u64,
}

impl Resolved {
    /// Nodes this component occupies.
    pub fn nodes(&self) -> u64 {
        let (procs, ppn) = (self.procs, self.ppn);
        Placement { procs, ppn }.nodes()
    }

    /// Emissions produced by a source over its full run; 0 otherwise.
    pub fn source_emissions(&self) -> u64 {
        match self.role {
            Role::Source {
                steps,
                emit_interval,
            } => steps / emit_interval.max(1),
            _ => 0,
        }
    }
}

/// A component application: its tunable parameters and its cost model.
pub trait ComponentModel: Send + Sync {
    /// Component name (e.g. "lammps").
    fn name(&self) -> &str;
    /// The component's tunable parameters, in configuration order.
    fn params(&self) -> &[ParamDef];
    /// The placement `values` ask for — all a feasibility check needs, at
    /// none of the cost model's expense. [`ComponentModel::resolve`] takes
    /// its `procs` and `ppn` from here, so node counts have one source.
    ///
    /// # Panics
    /// As [`ComponentModel::resolve`].
    fn placement(&self, platform: &Platform, values: &[i64]) -> Placement;
    /// Resolves parameter values to runtime behaviour.
    ///
    /// # Panics
    /// Implementations may panic if `values` has the wrong arity; callers
    /// should validate with [`WorkflowSpec::valid`] first.
    fn resolve(&self, platform: &Platform, values: &[i64]) -> Resolved;
}

/// A DAG of components coupled by streaming edges.
#[derive(Clone)]
pub struct WorkflowSpec {
    /// Workflow name ("LV", "HS", "GP").
    pub name: String,
    /// Component applications, in configuration-vector order.
    pub components: Vec<Arc<dyn ComponentModel>>,
    /// Streaming edges `(producer_idx, consumer_idx)`.
    pub edges: Vec<(usize, usize)>,
    /// Allocation cap in nodes (paper: 32).
    pub max_nodes: u64,
}

impl WorkflowSpec {
    /// Total number of parameters across all components.
    pub fn n_params(&self) -> usize {
        self.components.iter().map(|c| c.params().len()).sum()
    }

    /// All parameter definitions, concatenated in component order.
    pub fn all_params(&self) -> Vec<ParamDef> {
        self.components
            .iter()
            .flat_map(|c| c.params().iter().cloned())
            .collect()
    }

    /// The slice of the full configuration vector belonging to each
    /// component.
    pub fn param_ranges(&self) -> Vec<Range<usize>> {
        let mut out = Vec::with_capacity(self.components.len());
        let mut start = 0;
        for c in &self.components {
            let end = start + c.params().len();
            out.push(start..end);
            start = end;
        }
        out
    }

    /// Splits a full configuration into per-component value slices.
    ///
    /// # Panics
    /// Panics if `config.len() != n_params()`.
    pub fn split<'a>(&self, config: &'a [i64]) -> Vec<&'a [i64]> {
        assert_eq!(
            config.len(),
            self.n_params(),
            "configuration arity mismatch"
        );
        self.param_ranges()
            .into_iter()
            .map(|r| &config[r])
            .collect()
    }

    /// Each component with its slice of the full configuration (which
    /// must have [`WorkflowSpec::n_params`] values), allocating nothing.
    fn parts<'a>(
        &'a self,
        config: &'a [i64],
    ) -> impl Iterator<Item = (&'a dyn ComponentModel, &'a [i64])> {
        let mut start = 0;
        self.components.iter().map(move |c| {
            let values = &config[start..start + c.params().len()];
            start += values.len();
            (&**c, values)
        })
    }

    /// True when every value is on its parameter grid.
    pub fn valid(&self, config: &[i64]) -> bool {
        config.len() == self.n_params()
            && self
                .parts(config)
                .all(|(c, values)| values_valid(c.params(), values))
    }

    /// Resolves every component under `config`.
    pub fn resolve_all(&self, platform: &Platform, config: &[i64]) -> Vec<Resolved> {
        assert_eq!(
            config.len(),
            self.n_params(),
            "configuration arity mismatch"
        );
        self.parts(config)
            .map(|(c, values)| c.resolve(platform, values))
            .collect()
    }

    /// Nodes the whole workflow occupies under `config` (components are
    /// placed on disjoint node sets, staging-style).
    pub fn total_nodes(&self, platform: &Platform, config: &[i64]) -> u64 {
        self.resolve_all(platform, config)
            .iter()
            .map(Resolved::nodes)
            .sum()
    }

    /// True when the configuration is on-grid and fits the allocation cap.
    /// Rejection sampling asks this of mostly infeasible configurations,
    /// so only placements are worked out, component by component, and the
    /// rest are skipped once the cap is passed.
    pub fn feasible(&self, platform: &Platform, config: &[i64]) -> bool {
        let mut nodes = 0;
        self.valid(config)
            && self.parts(config).all(|(c, values)| {
                nodes += c.placement(platform, values).nodes();
                nodes <= self.max_nodes
            })
    }

    /// Size of the full cartesian configuration space.
    pub fn space_size(&self) -> f64 {
        crate::config::space_size(&self.all_params())
    }

    /// Uniformly samples parameter values for component `comp_idx` that fit
    /// the allocation cap on their own (solo-run feasibility).
    ///
    /// # Panics
    /// Panics if no feasible values are found within a generous attempt
    /// budget, or `comp_idx` is out of range.
    pub fn sample_component_feasible<R: rand::Rng>(
        &self,
        platform: &Platform,
        comp_idx: usize,
        rng: &mut R,
    ) -> Vec<i64> {
        let comp = &self.components[comp_idx];
        for _ in 0..1_000_000 {
            let values = crate::config::sample_values(comp.params(), rng);
            if comp.placement(platform, &values).nodes() <= self.max_nodes {
                return values;
            }
        }
        panic!(
            "no feasible solo configuration found for component {}",
            comp.name()
        );
    }

    /// In-edges of each component.
    pub fn in_edges(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.components.len()];
        for (e, &(_, to)) in self.edges.iter().enumerate() {
            out[to].push(e);
        }
        out
    }

    /// Out-edges of each component.
    pub fn out_edges(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.components.len()];
        for (e, &(from, _)) in self.edges.iter().enumerate() {
            out[from].push(e);
        }
        out
    }
}

impl std::fmt::Debug for WorkflowSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkflowSpec")
            .field("name", &self.name)
            .field(
                "components",
                &self.components.iter().map(|c| c.name()).collect::<Vec<_>>(),
            )
            .field("edges", &self.edges)
            .field("max_nodes", &self.max_nodes)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! A minimal two-stage pipeline used by the engine/solo unit tests.

    use super::*;

    /// Source with fixed compute/emission behaviour; one tunable `procs`.
    pub struct TestSource {
        pub params: Vec<ParamDef>,
        pub steps: u64,
        pub interval: u64,
        pub step_seconds: f64,
        pub emit_bytes: u64,
        pub buffer: Option<u64>,
    }

    impl ComponentModel for TestSource {
        fn name(&self) -> &str {
            "test-source"
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
                role: Role::Source {
                    steps: self.steps,
                    emit_interval: self.interval,
                },
                procs,
                ppn,
                threads: 1,
                compute_per_step: self.step_seconds / procs as f64,
                emit_bytes: self.emit_bytes,
                staging_buffer: self.buffer,
                solo_steps: self.steps / self.interval,
            }
        }
    }

    /// Sink with fixed per-emission analysis time; one tunable `procs`.
    pub struct TestSink {
        pub params: Vec<ParamDef>,
        pub analysis_seconds: f64,
        pub solo_steps: u64,
    }

    impl ComponentModel for TestSink {
        fn name(&self) -> &str {
            "test-sink"
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
                role: Role::Sink,
                procs,
                ppn,
                threads: 1,
                compute_per_step: self.analysis_seconds / procs as f64,
                emit_bytes: 0,
                staging_buffer: None,
                solo_steps: self.solo_steps,
            }
        }
    }

    /// A simple two-component pipeline: source(steps, interval) → sink.
    pub fn pipeline(
        steps: u64,
        interval: u64,
        step_seconds: f64,
        emit_bytes: u64,
        analysis_seconds: f64,
    ) -> WorkflowSpec {
        WorkflowSpec {
            name: "test".into(),
            components: vec![
                Arc::new(TestSource {
                    params: vec![ParamDef::range("src_procs", 1, 64)],
                    steps,
                    interval,
                    step_seconds,
                    emit_bytes,
                    buffer: None,
                }),
                Arc::new(TestSink {
                    params: vec![ParamDef::range("sink_procs", 1, 64)],
                    analysis_seconds,
                    solo_steps: steps / interval,
                }),
            ],
            edges: vec![(0, 1)],
            max_nodes: 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::pipeline;
    use super::*;

    #[test]
    fn split_and_ranges_align() {
        let wf = pipeline(10, 2, 1.0, 1024, 0.1);
        assert_eq!(wf.n_params(), 2);
        let config = vec![4, 2];
        let parts = wf.split(&config);
        assert_eq!(parts, vec![&[4][..], &[2][..]]);
        assert_eq!(wf.param_ranges(), vec![0..1, 1..2]);
    }

    #[test]
    fn valid_checks_grids() {
        let wf = pipeline(10, 2, 1.0, 1024, 0.1);
        assert!(wf.valid(&[1, 64]));
        assert!(!wf.valid(&[0, 1]));
        assert!(!wf.valid(&[1, 65]));
        assert!(!wf.valid(&[1]));
    }

    #[test]
    fn feasibility_respects_node_cap() {
        let mut wf = pipeline(10, 2, 1.0, 1024, 0.1);
        wf.max_nodes = 1;
        // 64 procs at ppn 36 -> 2 nodes for source alone.
        assert!(!wf.feasible(&Platform::default(), &[64, 1]));
        assert!(
            wf.feasible(&Platform::default(), &[1, 1])
                || wf.total_nodes(&Platform::default(), &[1, 1]) > 1
        );
    }

    #[test]
    fn feasible_is_valid_and_within_the_cap_at_every_cap() {
        let platform = Platform::default();
        let mut wf = pipeline(10, 2, 1.0, 1024, 0.1);
        for cap in [1, 2, 3, 4] {
            wf.max_nodes = cap;
            for config in [
                [1, 1],
                [36, 36],
                [37, 1],
                [1, 64],
                [64, 64],
                [0, 1],
                [64, 65],
            ] {
                let want = wf.valid(&config) && wf.total_nodes(&platform, &config) <= cap;
                assert_eq!(
                    wf.feasible(&platform, &config),
                    want,
                    "{config:?} cap {cap}"
                );
            }
        }
        assert!(!wf.feasible(&platform, &[1]), "wrong arity is not feasible");
    }

    #[test]
    fn edge_indexing() {
        let wf = pipeline(10, 2, 1.0, 1024, 0.1);
        assert_eq!(wf.in_edges(), vec![vec![], vec![0]]);
        assert_eq!(wf.out_edges(), vec![vec![0], vec![]]);
    }

    #[test]
    fn source_emissions_counts_intervals() {
        let r = Resolved {
            role: Role::Source {
                steps: 10,
                emit_interval: 3,
            },
            procs: 1,
            ppn: 1,
            threads: 1,
            compute_per_step: 1.0,
            emit_bytes: 1,
            staging_buffer: None,
            solo_steps: 3,
        };
        assert_eq!(r.source_emissions(), 3);
    }

    #[test]
    fn space_size_is_product() {
        let wf = pipeline(10, 2, 1.0, 1024, 0.1);
        assert_eq!(wf.space_size(), 64.0 * 64.0);
    }
}
