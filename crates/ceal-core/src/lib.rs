//! CEAL — Component-based Ensemble Active Learning.
//!
//! The paper's contribution: auto-tune an in-situ workflow under a tight
//! measurement budget by **bootstrapping** a high-fidelity ML surrogate
//! with a low-fidelity model assembled from per-component performance
//! models through an analytical coupling model (ACM).
//!
//! Crate map (paper section in parentheses):
//!
//! * [`oracle`] — the collector abstraction: measuring a workflow or
//!   component configuration (§2.2's collector).
//! * [`features`] — configuration ↔ ML feature encoding.
//! * [`acm`] — component models + max/sum combination (§4, Eq. 1–2).
//! * [`pool`] — the candidate sample pool `C_pool` (§5).
//! * [`algorithms`] — [`algorithms::Ceal`] (Alg. 1) and the comparison
//!   tuners [`algorithms::RandomSampling`], [`algorithms::ActiveLearning`],
//!   [`algorithms::Geist`], [`algorithms::Alph`] (§7.3), plus the Didona
//!   ensemble ablations (§8.2).
//! * [`metrics`] — recall score (§7.2.2, Eq. 3), MdAPE breakdowns
//!   (§7.4.2), the practicality metric (§7.2.3).
//! * [`history`] — historical component measurements `D_hist` (§7.5).
//! * [`fault`] — job-level fault tolerance for the collector (§7.1's
//!   `MPI_Comm_launch` enhancement, as injection + retry wrappers).
//! * [`journal`] — crash-safe campaigns: a checksummed write-ahead journal
//!   of every measurement, with torn-tail recovery; replay is the
//!   [`Fold`] every campaign is driven through.
//! * [`frame`] — the length-prefixed, CRC-checked record frame the journal
//!   and the serve cache's record logs share.
//! * [`prior`] — transfer priors: seeding a campaign's bootstrap phase
//!   with a sibling platform's cached samples.
//! * [`retry`] — the shared retry/backoff policy (seeded jitter,
//!   deadline) used by the collector and the serve client.

#![forbid(unsafe_code)]

pub mod acm;
pub mod algorithms;
pub mod fault;
pub mod features;
pub mod frame;
pub mod history;
pub mod journal;
pub mod metrics;
pub mod oracle;
pub mod pool;
pub mod prior;
pub mod retry;

pub use acm::{CombineFn, ComponentModels, LowFidelityModel};
pub use algorithms::{encode_pool, fit_surrogate_samples};
pub use algorithms::{
    ActiveLearning, Alph, Autotuner, BanditTuner, BayesOpt, Ceal, CealParams, EnsembleKind,
    EnsembleTuner, Fold, Geist, RandomSampling, SurrogateKind, SwitchMode, TunerRun,
};
pub use fault::{FaultInjector, RetryingCollector};
pub use features::FeatureMap;
pub use history::{ComponentHistory, HistoryError};
pub use journal::{prepare_campaign, CampaignId, Journal, JournalError, JournalRecord, OpenReport};
pub use oracle::{MeasureError, Measurement, Oracle, PoolOracle, SimOracle, SoloMeasurement};
pub use pool::sample_pool;
pub use prior::{fit_surrogate_seeded, TransferPrior};
pub use retry::{RetryError, RetryPolicy};
