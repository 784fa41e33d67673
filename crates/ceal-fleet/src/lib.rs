//! ceal-fleet — the coordinator side of a distributed tuning fleet.
//!
//! The paper's dominant cost is measurement: every tuning round pays the
//! oracle for a batch of candidate configurations. A single `ceal-serve`
//! process caps that at one machine's worth of throughput; this crate
//! supplies the coordinator-side machinery to farm measurement batches out
//! to a fleet of workers instead, in the spirit of Collective Knowledge's
//! crowd-tuning (experiments scattered across volunteer machines) and the
//! shape of workflow engines built around worker registration, leases,
//! and crash-recoverable task scheduling.
//!
//! The crate is deliberately **transport-free**: it knows nothing about
//! sockets or frames. `ceal-serve` embeds a [`Coordinator`] and translates
//! fleet wire frames (`RegisterWorker` → `WorkerRegistered`, and the one
//! poll, `TaskResult` → `TaskAssign`) into calls on it, which keeps every
//! scheduling decision unit-testable without a single connection.
//!
//! ## Model
//!
//! * **Workers pull.** A worker registers, then polls; each poll delivers
//!   its finished results (none, when it is idle) and picks up new tasks,
//!   and one that finds no work is held by the coordinator's host until a
//!   scatter has some (a long poll — [`Coordinator::poll_or_hold`]). Pulling keeps the wire
//!   protocol strictly request/response (the serve core never pushes
//!   unsolicited frames) and makes a slow worker self-limiting — it
//!   simply fetches less.
//! * **Leases, not connections, define liveness.** Every poll renews a
//!   worker's lease; one that lets it lapse is marked dead and its
//!   in-flight tasks go back on the queue (a *re-scatter*), bounded per
//!   task by the unified
//!   [`RetryPolicy`][ceal_core::RetryPolicy]'s attempt budget.
//! * **Gather is deduplicating.** Results are keyed by the batch's config
//!   index; a re-scattered task finished by both the presumed-dead worker
//!   and its replacement lands once and is counted as a duplicate, never
//!   applied twice — the caller's journal sees exactly one record per
//!   measurement.
//! * **Nothing waits here.** The coordinator owns no thread and blocks
//!   none: whoever scattered a batch is told by a [`Wake`] when nothing of
//!   it is left to wait for, and bounds that wait with its own clock.
//! * **The caller always has a fallback.** [`Coordinator::gather`] takes
//!   the batch as it stands and returns the tasks it could not place (no
//!   live workers, attempts exhausted, the caller's deadline) as
//!   *unmeasured* so the session can measure them locally; the oracle is
//!   deterministic, so the fallback is bit-identical.

#![forbid(unsafe_code)]
// No peer input may panic the coordinator: outside tests a fallible step
// returns an error instead.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod coordinator;
pub mod types;

pub use coordinator::{Coordinator, FleetConfig, FleetError, GatherOutcome, Wake};
pub use types::{FleetReport, TaskId, TaskOutcome, TaskReport, TaskSpec, WorkerId, WorkerStats};
