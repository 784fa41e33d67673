//! The cluster hardware model.
//!
//! Defaults mirror the paper's testbed (§7.1): 600 nodes of two 18-core
//! 2.10 GHz Broadwell Xeons (36 cores, hyperthreading off) on an Intel
//! Omni-Path fabric, with workflow allocations capped at 32 nodes.

/// Static description of the cluster the simulator models.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Total nodes in the cluster (bounds nothing directly; allocations are
    /// capped by [`crate::WorkflowSpec::max_nodes`]).
    pub total_nodes: u64,
    /// Physical cores per node.
    pub cores_per_node: u64,
    /// Peak point-to-point bandwidth of one staging stream, bytes/s
    /// (100 Gb/s Omni-Path link).
    pub link_bandwidth: f64,
    /// Aggregate fabric bandwidth shared by all concurrent staging streams
    /// of one workflow allocation, bytes/s.
    pub fabric_bandwidth: f64,
    /// Per-message network latency, seconds.
    pub net_latency: f64,
    /// Fixed software overhead a producer pays per staging chunk handed to
    /// the transport (serialization + metadata), seconds.
    pub chunk_overhead: f64,
    /// Aggregate parallel-filesystem bandwidth, bytes/s.
    pub fs_bandwidth: f64,
    /// Filesystem bandwidth one writer process can drive, bytes/s.
    pub fs_per_proc_bandwidth: f64,
    /// Per-file/open metadata overhead for filesystem output, seconds.
    pub fs_open_overhead: f64,
    /// Fraction of a node's memory bandwidth one core can saturate; packing
    /// more than `1/mem_bw_share` busy cores per node degrades
    /// memory-bound compute (see `ceal-apps::scaling`).
    pub mem_bw_share: f64,
    /// Compute slowdown a component suffers **in coupled runs only** when
    /// its nodes are fully packed (`ppn × threads ≥ cores`): the staging
    /// transport's progress engine then has no spare core to run on. Solo
    /// runs don't pay this, which makes it one of the systematic errors of
    /// solo-trained component models (paper §3: component models "cannot
    /// accurately predict the performance of the applications when they run
    /// together").
    pub staging_interference: f64,
}

impl Default for Platform {
    fn default() -> Self {
        Self {
            total_nodes: 600,
            cores_per_node: 36,
            link_bandwidth: 12.5e9,
            fabric_bandwidth: 20.0e9,
            net_latency: 2.0e-6,
            chunk_overhead: 1.5e-3,
            fs_bandwidth: 6.0e9,
            fs_per_proc_bandwidth: 0.4e9,
            fs_open_overhead: 8.0e-3,
            mem_bw_share: 1.0 / 12.0,
            staging_interference: 0.12,
        }
    }
}

impl Platform {
    /// Core-hours consumed by an allocation of `nodes` nodes over
    /// `exec_seconds` of wall-clock time (the paper's "computer time").
    pub fn core_hours(&self, nodes: u64, exec_seconds: f64) -> f64 {
        exec_seconds * (nodes * self.cores_per_node) as f64 / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_hours_matches_paper_formula() {
        let p = Platform::default();
        // 98.7 s on 7 nodes × 36 cores ≈ 6.9 core-hours (paper GP best).
        let ch = p.core_hours(7, 98.7);
        assert!((ch - 6.909).abs() < 0.01, "got {ch}");
    }

    #[test]
    fn default_matches_testbed() {
        let p = Platform::default();
        assert_eq!(p.cores_per_node, 36);
        assert_eq!(p.total_nodes, 600);
    }
}
