//! Blocking client for the tuning service.
//!
//! One [`Client`] wraps one TCP connection and issues requests
//! synchronously (the protocol is strictly request/response). Error frames
//! surface as [`ClientError::Server`] with the server's stable error code,
//! so callers can distinguish a retryable `measurement-failed` from a
//! permanent `bad-request`.
//!
//! [`Client::connect_with_retry`] adds transport-level resilience: both
//! the initial connect and every request reconnect-and-resend under a
//! shared [`RetryPolicy`] (exponential backoff, seeded jitter, optional
//! deadline). Only transport failures are retried — an error *frame* is a
//! delivered answer and is returned as-is. Note that resending after a
//! mid-request disconnect can re-execute the request on the server; enable
//! retry only for traffic where that is acceptable (everything in this
//! protocol is either idempotent or, like `Advance`, tolerates repetition
//! by design).

use crate::frame::{read_message, write_message, FrameError};
use crate::protocol::{
    MetricsReport, Request, Response, SessionStatus, TuneParams, PROTOCOL_VERSION,
};
use ceal_core::RetryPolicy;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Socket write-timeout granularity; each tick lets the frame writer
/// check its overall stall deadline.
const WRITE_TICK: Duration = Duration::from_millis(200);

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, frame I/O, JSON decode).
    Transport(FrameError),
    /// The server answered with an error frame.
    Server {
        /// Stable machine-readable code (see
        /// [`crate::protocol::Response::Error`]).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered with a response of the wrong shape.
    UnexpectedResponse(String),
    /// The server shed the request under load and suggested a pause.
    ///
    /// Retrying clients honor `retry_after_ms` automatically (capped
    /// against their policy's deadline); plain clients see this typed
    /// error and can decide when to come back.
    Overloaded {
        /// Server's suggested wait before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// Every attempt allowed by the retry policy failed at the transport
    /// level.
    RetriesExhausted {
        /// Attempts made.
        attempts: u32,
        /// Whether the policy's deadline cut the attempts short.
        deadline_exceeded: bool,
        /// The last attempt's failure.
        last: Box<ClientError>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Transport(e) => write!(f, "transport error: {e}"),
            Self::Server { code, message } => write!(f, "server error [{code}]: {message}"),
            Self::UnexpectedResponse(got) => write!(f, "unexpected response: {got}"),
            Self::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms} ms")
            }
            Self::RetriesExhausted {
                attempts,
                deadline_exceeded,
                last,
            } => {
                write!(f, "failed {attempts} consecutive attempts")?;
                if *deadline_exceeded {
                    write!(f, " (deadline exceeded)")?;
                }
                write!(f, ": {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        Self::Transport(e)
    }
}

/// Folds a spent [`RetryPolicy`] run into the client error vocabulary.
fn retries_exhausted(e: ceal_core::RetryError<ClientError>) -> ClientError {
    ClientError::RetriesExhausted {
        attempts: e.attempts,
        deadline_exceeded: e.deadline_exceeded,
        last: Box::new(e.last),
    }
}

impl ClientError {
    /// The server-side error code, when this is an error frame.
    pub fn code(&self) -> Option<&str> {
        match self {
            Self::Server { code, .. } => Some(code),
            _ => None,
        }
    }
}

/// Outcome of a one-shot tuning request.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneOutcome {
    /// Recommended configuration.
    pub best: Vec<i64>,
    /// Measured objective value of `best`.
    pub best_value: f64,
    /// Coupled runs the tuner consumed.
    pub runs_used: u64,
    /// Component solo runs the tuner consumed.
    pub component_runs: u64,
    /// Whether the server answered from its persistent cache.
    pub from_cache: bool,
}

/// A blocking connection to a tuning server.
#[derive(Debug)]
pub struct Client {
    /// Read through the buffer — a response's header and payload arrive in
    /// one `read` — and written through `get_mut`. The protocol is strict
    /// request/response, so nothing is ever buffered across a request; a
    /// reconnect replaces buffer and socket together.
    stream: BufReader<TcpStream>,
    /// Reconnect target and policy; `None` for plain [`Client::connect`]
    /// clients, which fail fast on the first transport error.
    reconnect: Option<(String, RetryPolicy)>,
    timeout: Option<Duration>,
}

impl Client {
    /// Connects and verifies the protocol version with a ping.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(FrameError::Io)?;
        Self::configure_stream(&stream)?;
        let mut client = Client {
            stream: BufReader::new(stream),
            reconnect: None,
            timeout: None,
        };
        client.check_version()?;
        Ok(client)
    }

    /// Connects under `policy` (backoff between connection attempts) and
    /// keeps the policy for the life of the client: any later request that
    /// fails at the transport level reconnects and resends under the same
    /// policy instead of failing fast.
    pub fn connect_with_retry(addr: &str, policy: RetryPolicy) -> Result<Client, ClientError> {
        let stream = policy
            .run(|_| Self::open_stream(addr))
            .map_err(retries_exhausted)?;
        let mut client = Client {
            stream: BufReader::new(stream),
            reconnect: Some((addr.to_string(), policy)),
            timeout: None,
        };
        client.check_version()?;
        Ok(client)
    }

    fn open_stream(addr: &str) -> Result<TcpStream, ClientError> {
        let stream = TcpStream::connect(addr).map_err(FrameError::Io)?;
        Self::configure_stream(&stream)?;
        Ok(stream)
    }

    fn configure_stream(stream: &TcpStream) -> Result<(), ClientError> {
        stream.set_nodelay(true).map_err(FrameError::Io)?;
        // Writes must surface timeouts so `write_message`'s stall deadline
        // (MAX_MID_FRAME_STALL) can bite: a server that stops reading
        // must not pin the client in `write` forever.
        stream
            .set_write_timeout(Some(WRITE_TICK))
            .map_err(FrameError::Io)?;
        Ok(())
    }

    fn check_version(&mut self) -> Result<(), ClientError> {
        let version = self.ping()?;
        if version != PROTOCOL_VERSION {
            return Err(ClientError::UnexpectedResponse(format!(
                "server speaks protocol v{version}, client v{PROTOCOL_VERSION}"
            )));
        }
        Ok(())
    }

    /// Sets the per-response wait limit.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(FrameError::Io)?;
        self.timeout = timeout;
        Ok(())
    }

    /// Sends one request and reads one response, translating error frames.
    ///
    /// Clients built with [`Client::connect_with_retry`] reconnect and
    /// resend on transport failures under their policy; error frames are
    /// delivered answers and are never retried.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        let Some((addr, policy)) = self.reconnect.clone() else {
            return self.request_once(req);
        };
        let started = Instant::now();
        // A Busy answer leaves the connection healthy; only transport
        // failures warrant tearing it down and reopening.
        let mut need_reconnect = false;
        let result = policy.run(|attempt| {
            if attempt > 1 && need_reconnect {
                let fresh = Self::open_stream(&addr)?;
                fresh
                    .set_read_timeout(self.timeout)
                    .map_err(FrameError::Io)?;
                self.stream = BufReader::new(fresh);
            }
            need_reconnect = false;
            match self.request_once(req) {
                // Only transport failures are worth a reconnect; anything
                // else is a delivered answer, smuggled out as terminal.
                Err(e @ ClientError::Transport(_)) => {
                    need_reconnect = true;
                    Err(e)
                }
                // The server shed us: honor its hint before the next
                // attempt, never sleeping past the policy's deadline.
                Err(ClientError::Overloaded { retry_after_ms }) => {
                    let mut wait = Duration::from_millis(retry_after_ms);
                    if let Some(deadline) = policy.deadline {
                        let remaining = deadline.saturating_sub(started.elapsed());
                        if remaining.is_zero() {
                            return Ok(Err(ClientError::RetriesExhausted {
                                attempts: attempt,
                                deadline_exceeded: true,
                                last: Box::new(ClientError::Overloaded { retry_after_ms }),
                            }));
                        }
                        wait = wait.min(remaining);
                    }
                    std::thread::sleep(wait);
                    Err(ClientError::Overloaded { retry_after_ms })
                }
                terminal => Ok(terminal),
            }
        });
        match result {
            Ok(terminal) => terminal,
            Err(e) => Err(retries_exhausted(e)),
        }
    }

    fn request_once(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_message(self.stream.get_mut(), req)?;
        let resp: Response = read_message(&mut self.stream)?;
        match resp {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            Response::Busy { retry_after_ms } => Err(ClientError::Overloaded { retry_after_ms }),
            other => Ok(other),
        }
    }

    /// Liveness check; returns the server's protocol version.
    pub fn ping(&mut self) -> Result<u32, ClientError> {
        match self.request(&Request::Ping)? {
            Response::Pong { version } => Ok(version),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Runs (or fetches from cache) a complete tuning campaign.
    pub fn tune(&mut self, params: TuneParams) -> Result<TuneOutcome, ClientError> {
        match self.request(&Request::Tune(params))? {
            Response::TuneResult {
                best,
                best_value,
                runs_used,
                component_runs,
                from_cache,
            } => Ok(TuneOutcome {
                best,
                best_value,
                runs_used,
                component_runs,
                from_cache,
            }),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Opens an incremental session; returns its status and whether it was
    /// bootstrapped from the cache.
    pub fn create_session(
        &mut self,
        params: TuneParams,
        failure_rate: f64,
        fault_seed: u64,
    ) -> Result<(SessionStatus, bool), ClientError> {
        let req = Request::CreateSession {
            params,
            failure_rate,
            fault_seed,
        };
        match self.request(&req)? {
            Response::SessionCreated { status, from_cache } => Ok((status, from_cache)),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    fn expect_session(&mut self, req: &Request) -> Result<SessionStatus, ClientError> {
        match self.request(req)? {
            Response::Session(status) => Ok(status),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Spends up to `runs` measurements advancing a session.
    pub fn advance(&mut self, session: u64, runs: u64) -> Result<SessionStatus, ClientError> {
        self.expect_session(&Request::Advance { session, runs })
    }

    /// Reads a session's status.
    pub fn status(&mut self, session: u64) -> Result<SessionStatus, ClientError> {
        self.expect_session(&Request::Status { session })
    }

    /// Contributes historical component samples to a session.
    pub fn push_history(
        &mut self,
        session: u64,
        samples: Vec<Vec<(Vec<i64>, f64)>>,
    ) -> Result<SessionStatus, ClientError> {
        self.expect_session(&Request::PushHistory { session, samples })
    }

    /// Scores configurations with a session's surrogate.
    pub fn predict(
        &mut self,
        session: u64,
        configs: Vec<Vec<i64>>,
    ) -> Result<Vec<f64>, ClientError> {
        match self.request(&Request::Predict { session, configs })? {
            Response::Predictions { values } => Ok(values),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Measures one ad-hoc configuration with a session's oracle; returns
    /// `(value, exec_time, computer_time)`.
    pub fn measure(
        &mut self,
        session: u64,
        config: Vec<i64>,
    ) -> Result<(f64, f64, f64), ClientError> {
        match self.request(&Request::Measure { session, config })? {
            Response::Measured {
                value,
                exec_time,
                computer_time,
            } => Ok((value, exec_time, computer_time)),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Closes a session.
    pub fn close_session(&mut self, session: u64) -> Result<(), ClientError> {
        match self.request(&Request::CloseSession { session })? {
            Response::Ok => Ok(()),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Fetches the server's snapshot: counters, latencies and load.
    /// `Metrics` is shed-exempt, so this answers even while the server is
    /// refusing regular traffic.
    pub fn metrics(&mut self) -> Result<MetricsReport, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(report) => Ok(report),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Registers this connection's owner as a fleet measurement worker;
    /// returns `(worker_id, lease_ms)`.
    pub fn register_worker(&mut self, name: &str) -> Result<(u64, u64), ClientError> {
        let req = Request::RegisterWorker {
            name: name.to_string(),
        };
        match self.request(&req)? {
            Response::WorkerRegistered { worker, lease_ms } => Ok((worker, lease_ms)),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Renews the worker's lease and fetches newly assigned tasks.
    pub fn heartbeat(&mut self, worker: u64) -> Result<Vec<ceal_fleet::TaskSpec>, ClientError> {
        match self.request(&Request::Heartbeat { worker })? {
            Response::TaskAssign { tasks } => Ok(tasks),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Delivers completed task results; like [`Client::heartbeat`], the
    /// answer carries the worker's next tasks.
    pub fn task_result(
        &mut self,
        worker: u64,
        results: Vec<ceal_fleet::TaskReport>,
    ) -> Result<Vec<ceal_fleet::TaskSpec>, ClientError> {
        match self.request(&Request::TaskResult { worker, results })? {
            Response::TaskAssign { tasks } => Ok(tasks),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }

    /// Asks the server to drain and exit its serve loop.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(ClientError::UnexpectedResponse(format!("{other:?}"))),
        }
    }
}
