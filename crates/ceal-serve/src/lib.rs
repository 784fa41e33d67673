//! ceal-serve — the CEAL auto-tuner as a network service.
//!
//! The paper's tuner runs one campaign per CLI process; this crate turns
//! it into a long-lived, concurrent service in the spirit of Collective
//! Knowledge (shared, reusable autotuning results) and surrogate-serving
//! systems like HPAC-ML. Four layers:
//!
//! * [`protocol`] + [`frame`] + [`client`] — request/response enums on a
//!   length-prefixed JSON frame protocol, plus a blocking [`Client`].
//! * [`session`] — incremental tuning campaigns: the I/O shell (journal,
//!   fleet, cache) around `ceal-core`'s ask/tell steppers, in a registry
//!   with idle eviction.
//! * [`cache`] — a tiered store of completed campaigns keyed by
//!   (workflow, platform fingerprint, objective, pool seed, budget,
//!   algorithm): an in-memory LRU front over per-workflow append-only
//!   record logs, with portable export/import bundles and
//!   nearest-platform transfer seeding. Exact warm answers spend zero
//!   oracle measurements; near-miss platforms start from a sibling's
//!   samples as a prior.
//! * [`server`] + [`reactor`] + [`metrics`] — the TCP server (Linux): a
//!   readiness-driven epoll event loop owns all connections (framed
//!   per-connection state machines, a deadline heap), so tens of thousands
//!   of idle sessions cost one fd each. It answers what cannot wait
//!   (`Ping`, `Status`, a small `Predict`, worker polls) where it arrives,
//!   hands the rest to a `ceal-par` worker pool, and parks what must wait
//!   — a worker poll with no work, a campaign step across its fleet round
//!   — without a thread; batched surrogate prediction, per-endpoint
//!   counters and latency histograms, overload shedding, and graceful
//!   shutdown that drains in-flight work.
//!
//! ```no_run
//! use ceal_serve::{Client, Server, ServeConfig, TuneParams};
//!
//! let handle = Server::bind(ServeConfig::default()).unwrap().spawn();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let outcome = client
//!     .tune(TuneParams {
//!         workflow: "LV".into(),
//!         objective: "comp".into(),
//!         budget: 25,
//!         pool: 500,
//!         seed: 0,
//!         algo: "ceal".into(),
//!     })
//!     .unwrap();
//! println!("recommended: {:?}", outcome.best);
//! client.shutdown().unwrap();
//! handle.join().unwrap();
//! ```

// No peer input may panic the process: outside tests a fallible step
// returns an error instead.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod client;
pub mod error;
pub mod metrics;
mod parked;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod server;
pub mod session;
pub mod wire;
pub mod worker;

pub use wire::frame;
pub use wire::protocol;

pub use cache::{
    bundle_from_json, bundle_to_json, feature_distance, platform_features, platform_fingerprint,
    AutotuneCache, CacheEntry, CacheKey, CacheStats, TransferHit, DEFAULT_LRU_CAPACITY,
    DEFAULT_TRANSFER_THRESHOLD,
};
pub use client::{Client, ClientError, TuneOutcome};
pub use error::ServeError;
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME_LEN, MAX_MID_FRAME_STALL};
pub use metrics::{CountingOracle, Endpoint, ServerMetrics};
pub use protocol::{
    EndpointStats, MetricsReport, Request, Response, SessionStatus, TuneParams, PROTOCOL_VERSION,
};
#[cfg(target_os = "linux")]
pub use reactor::sys::{raise_nofile_limit, set_recv_buffer_fd, set_send_buffer_fd};
pub use server::{ServeConfig, Server, ServerHandle};
pub use session::{Session, SessionManager};
pub use worker::{run_worker, WorkerConfig, WorkerSummary};
