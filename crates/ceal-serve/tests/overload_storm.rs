//! Graceful degradation past dispatch capacity: the server stays live,
//! sheds with typed `Busy` answers, and the requests it does accept keep
//! near-unloaded latency — the contract the dispatch watermarks exist for.
//!
//! Alone in its file on purpose: it compares latencies, and tests sharing
//! a binary run concurrently.

#![cfg(target_os = "linux")]

mod common;

use ceal_serve::{read_frame, write_frame, Client, Request, ServeConfig};
use common::{drive_to_done, params, start_server};
use rand::SeedableRng;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Server-side `predict` p99 in microseconds (frame completion to
/// response flush), from the `Metrics` histogram: the latency admission
/// control bounds. A client-side figure would also price the storm
/// threads' own scheduling delays, which shedding cannot help with.
fn server_predict_p99(client: &mut Client) -> u64 {
    let endpoints = client.metrics().expect("metrics").endpoints;
    let predict = endpoints.into_iter().find(|e| e.name == "predict");
    predict.expect("predict traffic").p99_us
}

/// One storm against a fresh server; returns the unloaded and the
/// under-storm server-side `predict` p99.
fn storm() -> (u64, u64) {
    // Capacity is pinned low so the storm stays cheap: a high watermark of
    // 1 under 8 unpaced clients is an 8x storm by construction, and one
    // dispatch at a time means every *accepted* request runs uncontended —
    // exactly the latency the watermark is supposed to protect.
    const STORM_CLIENTS: usize = 8;
    const STORM: Duration = Duration::from_secs(3);
    let srv = start_server(ServeConfig {
        workers: 2,
        dispatch_high_watermark: 1,
        dispatch_low_watermark: 1,
        ..ServeConfig::default()
    });
    let addr = srv.addr();

    // A finished campaign gives `Predict` (a real, shed-eligible request
    // of deterministic cost) a surrogate to score with; scoring 1024
    // configurations costs enough that queueing, not scheduler noise on a
    // microsecond-sized request, dominates the comparison.
    let mut setup = Client::connect(addr).expect("connect");
    let (st, _) = setup
        .create_session(params("comp", 15, 200, 7), 0.0, 0)
        .expect("create");
    let session = st.session;
    drive_to_done(&mut setup, session, 5);
    let spec = ceal_apps::workflow_by_name("LV").expect("LV");
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
    let probe = ceal_core::sample_pool(&spec, &ceal_sim::Platform::default(), 1024, &mut rng);

    for _ in 0..200 {
        setup.predict(session, probe.clone()).expect("unloaded");
    }
    let unloaded_p99 = server_predict_p99(&mut setup);

    // The storm: a `Busy` answer is counted as shed and the client offers
    // the next request after a pause well below `retry_after`, long enough
    // that shed clients sleep instead of starving the CPU the accepted
    // requests are measured on. For the same reason the clients send one
    // pre-encoded frame and only peek at each answer's tag.
    let configs = probe;
    let request = serde_json::to_vec(&Request::Predict { session, configs }).expect("encode");
    let deadline = Instant::now() + STORM;
    let storm: Vec<_> = (0..STORM_CLIENTS)
        .map(|_| {
            let request = request.clone();
            std::thread::spawn(move || {
                let mut peer = TcpStream::connect(addr).expect("storm connect");
                let (mut accepted, mut shed) = (0u64, 0u64);
                while Instant::now() < deadline {
                    write_frame(&mut peer, &request).expect("storm write");
                    let answer = read_frame(&mut peer).expect("storm read");
                    if answer.starts_with(b"{\"Predictions\"") {
                        accepted += 1;
                    } else if answer.starts_with(b"{\"Busy\"") {
                        shed += 1;
                        std::thread::sleep(Duration::from_millis(4));
                    } else {
                        panic!("storm client got {}", String::from_utf8_lossy(&answer));
                    }
                }
                (accepted, shed)
            })
        })
        .collect();

    // Mid-storm liveness: shed-exempt `Health` answers while regular
    // traffic is being refused.
    std::thread::sleep(STORM / 2);
    let health = setup.health().expect("health during the storm");
    assert_eq!(health.dispatch_high_watermark, 1);

    let (mut accepted, mut shed) = (0u64, 0u64);
    for client in storm {
        let (a, s) = client.join().expect("storm thread");
        accepted += a;
        shed += s;
    }
    // The histogram is cumulative: this is the p99 of everything accepted,
    // which the storm's requests dominate in an optimized build and share
    // about evenly with the 200 baseline probes in a debug one.
    let storm_p99 = server_predict_p99(&mut setup);
    let requests_shed = setup.health().expect("health").requests_shed;
    setup.shutdown().expect("shutdown");
    srv.join().expect("drain");

    assert!(accepted > 0, "the storm must get requests through");
    assert!(shed > 0, "a storm over the watermark must shed");
    assert_eq!(requests_shed, shed, "server-side shed counter must agree");
    (unloaded_p99, storm_p99)
}

#[test]
fn overload_storm_keeps_accepted_latency_bounded() {
    // Other load on the machine can only inflate a latency, so the
    // contract holds if any of three storms meets it; without admission
    // control every storm queues eight deep and misses it by far.
    let mut missed = Vec::new();
    for _ in 0..3 {
        let (unloaded_p99, storm_p99) = storm();
        if storm_p99 <= 3 * unloaded_p99 {
            return;
        }
        missed.push((unloaded_p99, storm_p99));
    }
    panic!(
        "accepted server-side p99 blew past 3x the unloaded one in every storm \
         ((unloaded, storm) us: {missed:?}): admission control is not protecting latency"
    );
}
