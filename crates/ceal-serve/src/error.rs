//! The request-level error every endpoint reports, and its wire codes.

/// A request-level failure the server reports as an error frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Malformed or out-of-range request parameters.
    BadRequest(String),
    /// No session with that ID (never created, closed, or evicted).
    UnknownSession(u64),
    /// No fleet worker with that ID (coordinator restarted or the lease
    /// aged out); the worker should re-register.
    UnknownWorker(u64),
    /// The session cannot serve this request in its current phase.
    NotReady(String),
    /// The configuration cannot run on this platform.
    Infeasible(String),
    /// A measurement attempt crashed (injected fault or backend failure);
    /// the session is intact and the step can be retried.
    MeasurementFailed(String),
    /// Client-supplied history has the wrong shape.
    HistoryMismatch(String),
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// A handler panicked; the failure was contained to this request.
    Internal(String),
}

impl ServeError {
    /// Stable machine-readable code for the wire.
    pub fn code(&self) -> &'static str {
        match self {
            Self::BadRequest(_) => "bad-request",
            Self::UnknownSession(_) => "unknown-session",
            Self::UnknownWorker(_) => "unknown-worker",
            Self::NotReady(_) => "not-ready",
            Self::Infeasible(_) => "infeasible",
            Self::MeasurementFailed(_) => "measurement-failed",
            Self::HistoryMismatch(_) => "history-mismatch",
            Self::ShuttingDown => "shutting-down",
            Self::Internal(_) => "internal",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadRequest(m) => write!(f, "bad request: {m}"),
            Self::UnknownSession(id) => write!(f, "unknown session {id}"),
            Self::UnknownWorker(id) => write!(f, "unknown worker {id} (re-register)"),
            Self::NotReady(m) => write!(f, "not ready: {m}"),
            Self::Infeasible(m) => write!(f, "infeasible configuration: {m}"),
            Self::MeasurementFailed(m) => write!(f, "measurement failed: {m}"),
            Self::HistoryMismatch(m) => write!(f, "history mismatch: {m}"),
            Self::ShuttingDown => write!(f, "server is shutting down"),
            Self::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A tuner-level measurement error in the wire vocabulary: the simulator
/// rejecting a configuration is `infeasible`, anything else transient.
impl From<ceal_core::MeasureError> for ServeError {
    fn from(e: ceal_core::MeasureError) -> Self {
        match e {
            ceal_core::MeasureError::Sim(e) => ServeError::Infeasible(e.to_string()),
            other => ServeError::MeasurementFailed(other.to_string()),
        }
    }
}

/// A journal that cannot be opened or written is the server's failure.
impl From<ceal_core::JournalError> for ServeError {
    fn from(e: ceal_core::JournalError) -> Self {
        ServeError::Internal(e.to_string())
    }
}

impl From<ceal_fleet::FleetError> for ServeError {
    fn from(e: ceal_fleet::FleetError) -> Self {
        match e {
            ceal_fleet::FleetError::UnknownWorker(id) => ServeError::UnknownWorker(id),
        }
    }
}
