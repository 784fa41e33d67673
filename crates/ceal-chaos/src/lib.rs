//! Deterministic network fault injection.
//!
//! A TCP proxy that sits between a client and a server (or a fleet worker
//! and its coordinator) and injects faults per a [`FaultPlan`]:
//!
//! - **added latency** — every forwarded segment waits a fixed delay,
//! - **a connection reset** — the connection carrying the plan's global
//!   byte offset is torn down abruptly mid-frame, once per proxy lifetime,
//! - **partitions** — full two-way blackouts, timed (they start at a plan
//!   offset and heal after a duration) or set by hand; new connections are
//!   refused and live ones are severed while a partition is active.
//!
//! Everything observable is a pure function of the plan (plus the OS's
//! scheduling of wall-clock windows), matching the repo-wide rule that chaos
//! must be reproducible. The proxy is a plain `std` implementation — two pump
//! threads per connection, no external dependencies — sized for tests and
//! benches, not production traffic. Flipped bytes and stalled peers are
//! checked in-process instead, against the decoders and the reactor.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How often pump threads wake up to notice stop/partition flags.
const POLL_TICK: Duration = Duration::from_millis(25);

/// A timed full partition: both directions go dark `start` after proxy
/// launch and heal `duration` later.
#[derive(Debug, Clone, Copy)]
pub struct PartitionWindow {
    pub start: Duration,
    pub duration: Duration,
}

impl PartitionWindow {
    fn contains(&self, elapsed: Duration) -> bool {
        elapsed >= self.start && elapsed < self.start + self.duration
    }
}

/// The deterministic fault schedule applied to every proxied connection.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Added one-way latency per forwarded segment.
    pub latency: Duration,
    /// Tear down (abrupt shutdown) the connection that carries this global
    /// forwarded-byte offset. Fires at most once per proxy lifetime.
    pub reset_at_bytes: Option<u64>,
    /// Timed full partitions with healing.
    pub partitions: Vec<PartitionWindow>,
}

/// Counters snapshot; see [`ChaosProxy::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ProxyStats {
    /// Connections accepted from downstream clients.
    pub connections: u64,
    /// Connections refused (accepted then dropped) during a partition.
    pub refused: u64,
    /// Abrupt resets injected by `reset_at_bytes`.
    pub resets: u64,
    /// Bytes forwarded client -> upstream.
    pub bytes_up: u64,
    /// Bytes forwarded upstream -> client.
    pub bytes_down: u64,
}

struct Inner {
    plan: FaultPlan,
    upstream: SocketAddr,
    start: Instant,
    stop: AtomicBool,
    manual_partition: AtomicBool,
    reset_fired: AtomicBool,
    total_forwarded: AtomicU64,
    connections: AtomicU64,
    refused: AtomicU64,
    resets: AtomicU64,
    bytes_up: AtomicU64,
    bytes_down: AtomicU64,
    /// Clones of live sockets so a partition can sever in-flight connections.
    live: Mutex<Vec<TcpStream>>,
}

impl Inner {
    fn partitioned(&self) -> bool {
        if self.manual_partition.load(Ordering::Acquire) {
            return true;
        }
        let elapsed = self.start.elapsed();
        self.plan.partitions.iter().any(|w| w.contains(elapsed))
    }

    fn sever_live(&self) {
        let drained: Vec<TcpStream> = match self.live.lock() {
            Ok(mut live) => live.drain(..).collect(),
            Err(poisoned) => poisoned.into_inner().drain(..).collect(),
        };
        for stream in drained {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn track(&self, stream: &TcpStream) {
        if let Ok(clone) = stream.try_clone() {
            match self.live.lock() {
                Ok(mut live) => live.push(clone),
                Err(poisoned) => poisoned.into_inner().push(clone),
            }
        }
    }
}

/// A running fault-injecting proxy. Dropping it stops the accept loop;
/// [`ChaosProxy::shutdown`] stops it and joins the accept thread.
pub struct ChaosProxy {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
}

impl ChaosProxy {
    /// Listen on an ephemeral localhost port, forwarding to `upstream`.
    pub fn spawn(upstream: SocketAddr, plan: FaultPlan) -> io::Result<ChaosProxy> {
        ChaosProxy::spawn_on("127.0.0.1:0", upstream, plan)
    }

    /// Listen on an explicit address (the `chaos-proxy` bin uses this).
    pub fn spawn_on<A: ToSocketAddrs>(
        listen: A,
        upstream: SocketAddr,
        plan: FaultPlan,
    ) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind(listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            plan,
            upstream,
            start: Instant::now(),
            stop: AtomicBool::new(false),
            manual_partition: AtomicBool::new(false),
            reset_fired: AtomicBool::new(false),
            total_forwarded: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            resets: AtomicU64::new(0),
            bytes_up: AtomicU64::new(0),
            bytes_down: AtomicU64::new(0),
            live: Mutex::new(Vec::new()),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = thread::Builder::new()
            .name("chaos-accept".into())
            .spawn(move || accept_loop(listener, accept_inner))?;
        Ok(ChaosProxy {
            inner,
            addr,
            accept: Some(accept),
        })
    }

    /// The address clients should dial instead of the upstream.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Manually partition (or heal) the link. Partitioning severs every live
    /// connection and refuses new ones until healed.
    pub fn set_partitioned(&self, partitioned: bool) {
        self.inner
            .manual_partition
            .store(partitioned, Ordering::Release);
        if partitioned {
            self.inner.sever_live();
        }
    }

    /// Snapshot of forwarding counters.
    pub fn stats(&self) -> ProxyStats {
        ProxyStats {
            connections: self.inner.connections.load(Ordering::Relaxed),
            refused: self.inner.refused.load(Ordering::Relaxed),
            resets: self.inner.resets.load(Ordering::Relaxed),
            bytes_up: self.inner.bytes_up.load(Ordering::Relaxed),
            bytes_down: self.inner.bytes_down.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, sever live connections, and join the accept thread.
    pub fn shutdown(mut self) -> ProxyStats {
        self.stop_now();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        self.stats()
    }

    fn stop_now(&self) {
        self.inner.stop.store(true, Ordering::Release);
        self.inner.sever_live();
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop_now();
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    loop {
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((client, _)) => {
                if inner.partitioned() {
                    inner.refused.fetch_add(1, Ordering::Relaxed);
                    drop(client);
                    continue;
                }
                let conn_id = inner.connections.fetch_add(1, Ordering::Relaxed);
                let upstream =
                    match TcpStream::connect_timeout(&inner.upstream, Duration::from_secs(2)) {
                        Ok(s) => s,
                        Err(_) => {
                            drop(client);
                            continue;
                        }
                    };
                let _ = client.set_nodelay(true);
                let _ = upstream.set_nodelay(true);
                inner.track(&client);
                inner.track(&upstream);
                spawn_pumps(&inner, conn_id, client, upstream);
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => thread::sleep(POLL_TICK),
        }
    }
}

fn spawn_pumps(inner: &Arc<Inner>, conn_id: u64, client: TcpStream, upstream: TcpStream) {
    let pairs = [
        (0u8, client.try_clone(), upstream.try_clone()),
        (1u8, upstream.try_clone(), client.try_clone()),
    ];
    for (dir, from, to) in pairs {
        let (from, to) = match (from, to) {
            (Ok(f), Ok(t)) => (f, t),
            _ => return,
        };
        let pump_inner = Arc::clone(inner);
        let _ = thread::Builder::new()
            .name(format!("chaos-pump-{conn_id}-{dir}"))
            .spawn(move || pump(pump_inner, dir, from, to));
    }
}

/// Forward one direction of a connection, applying the fault plan.
fn pump(inner: Arc<Inner>, dir: u8, mut from: TcpStream, mut to: TcpStream) {
    let _ = from.set_read_timeout(Some(POLL_TICK));
    let mut buf = [0u8; 4096];
    loop {
        if inner.stop.load(Ordering::Acquire) || inner.partitioned() {
            let _ = from.shutdown(Shutdown::Both);
            let _ = to.shutdown(Shutdown::Both);
            return;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => {
                let _ = to.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(ref e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
        };

        // Global reset point: the connection carrying the plan's byte offset
        // is torn down mid-frame, exactly once per proxy lifetime.
        let before = inner.total_forwarded.fetch_add(n as u64, Ordering::Relaxed);
        if let Some(at) = inner.plan.reset_at_bytes {
            if before < at
                && before + n as u64 >= at
                && !inner.reset_fired.swap(true, Ordering::AcqRel)
            {
                inner.resets.fetch_add(1, Ordering::Relaxed);
                let _ = from.shutdown(Shutdown::Both);
                let _ = to.shutdown(Shutdown::Both);
                return;
            }
        }

        if !inner.plan.latency.is_zero() {
            thread::sleep(inner.plan.latency);
        }

        if to.write_all(&buf[..n]).is_err() {
            let _ = from.shutdown(Shutdown::Both);
            return;
        }
        let counter = if dir == 0 {
            &inner.bytes_up
        } else {
            &inner.bytes_down
        };
        counter.fetch_add(n as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo server: accepts one connection at a time, echoes bytes back.
    fn echo_upstream() -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("echo addr");
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                thread::spawn(move || {
                    let mut buf = [0u8; 1024];
                    loop {
                        match stream.read(&mut buf) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => {
                                if stream.write_all(&buf[..n]).is_err() {
                                    return;
                                }
                            }
                        }
                    }
                });
            }
        });
        addr
    }

    fn roundtrip(addr: SocketAddr, payload: &[u8]) -> io::Result<Vec<u8>> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.write_all(payload)?;
        let mut got = vec![0u8; payload.len()];
        stream.read_exact(&mut got)?;
        Ok(got)
    }

    #[test]
    fn passes_traffic_through_unchanged() {
        let upstream = echo_upstream();
        let proxy = ChaosProxy::spawn(upstream, FaultPlan::default()).expect("spawn");
        let payload = b"hello through the chaos proxy";
        let got = roundtrip(proxy.addr(), payload).expect("roundtrip");
        assert_eq!(got, payload);
        let stats = proxy.shutdown();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.bytes_up, payload.len() as u64);
        assert_eq!(stats.bytes_down, payload.len() as u64);
    }

    #[test]
    fn latency_delays_each_segment() {
        let upstream = echo_upstream();
        let plan = FaultPlan {
            latency: Duration::from_millis(60),
            ..FaultPlan::default()
        };
        let proxy = ChaosProxy::spawn(upstream, plan).expect("spawn");
        let start = Instant::now();
        let got = roundtrip(proxy.addr(), b"ping").expect("roundtrip");
        assert_eq!(got, b"ping");
        // One segment each way => at least 2x the one-way latency.
        assert!(start.elapsed() >= Duration::from_millis(120));
        proxy.shutdown();
    }

    #[test]
    fn reset_tears_down_the_connection_once() {
        let upstream = echo_upstream();
        let plan = FaultPlan {
            reset_at_bytes: Some(8),
            ..FaultPlan::default()
        };
        let proxy = ChaosProxy::spawn(upstream, plan).expect("spawn");
        let err = roundtrip(proxy.addr(), &[0u8; 64]);
        assert!(err.is_err(), "first connection must be reset");
        // Reset fires once; the retry goes through clean.
        let got = roundtrip(proxy.addr(), b"retry").expect("second try");
        assert_eq!(got, b"retry");
        let stats = proxy.shutdown();
        assert_eq!(stats.resets, 1);
    }

    #[test]
    fn manual_partition_severs_and_heals() {
        let upstream = echo_upstream();
        let proxy = ChaosProxy::spawn(upstream, FaultPlan::default()).expect("spawn");
        let got = roundtrip(proxy.addr(), b"before").expect("pre-partition");
        assert_eq!(got, b"before");

        proxy.set_partitioned(true);
        thread::sleep(POLL_TICK * 2);
        assert!(
            roundtrip(proxy.addr(), b"during").is_err(),
            "partitioned link must refuse traffic"
        );

        proxy.set_partitioned(false);
        let got = roundtrip(proxy.addr(), b"after").expect("post-heal");
        assert_eq!(got, b"after");
        let stats = proxy.shutdown();
        assert!(stats.refused >= 1);
    }
}
