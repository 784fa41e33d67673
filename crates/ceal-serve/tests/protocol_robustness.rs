//! Hostile-input robustness of the framed protocol: truncated frames,
//! oversized length prefixes, and outright garbage must never panic or
//! hang a worker. The server answers with one `bad-request` error frame
//! (when it still can) and closes; it keeps serving everyone else. Under
//! overload, garbage is shed like any other unclassifiable request.
//!
//! The corpus is shared with the reactor torture test.

mod hostile;

use ceal_serve::{Client, ServeConfig, Server, TuneParams};
use hostile::{corpus, framed, poke, unclassifiable_payloads, HostileCase, Reaction};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[test]
fn malformed_frames_never_hang_or_panic_the_server() {
    let handle = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind loopback")
    .spawn();
    let addr = handle.addr();

    let unclassifiable = unclassifiable_payloads()
        .into_iter()
        .map(|(name, payload)| HostileCase {
            name,
            bytes: framed(&payload),
            half_close: false,
            expect: Some(Reaction::ErrorFrameThenClose),
        });
    for case in corpus().into_iter().chain(unclassifiable) {
        let got = poke(addr, &case.bytes, case.half_close);
        if let Some(expect) = &case.expect {
            assert_eq!(got, *expect, "case {}", case.name);
        }
        // Whatever one hostile peer sent, the next honest client is served.
        let mut probe = Client::connect(addr).unwrap_or_else(|e| {
            panic!("server unreachable after case {}: {e}", case.name);
        });
        probe.ping().unwrap_or_else(|e| {
            panic!("server cannot answer after case {}: {e}", case.name);
        });
    }

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("workers all exit cleanly");
}

/// While the server sheds, a frame the pre-decode classifier cannot place
/// gets exactly one typed `Busy` — it is neither decoded nor mistaken for
/// exempt control traffic — and control traffic still gets through.
#[test]
fn unclassifiable_frames_are_shed_with_one_typed_busy() {
    // One worker and a high watermark of 1: whenever a tune is executing,
    // everything sheddable is shed.
    let handle = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        dispatch_high_watermark: 1,
        ..ServeConfig::default()
    })
    .expect("bind loopback")
    .spawn();
    let addr = handle.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("hammer connect");
            let mut seed = 0;
            while !stop.load(Ordering::Acquire) {
                seed += 1;
                // `Busy` is fine here: a hostile frame that slipped into
                // a gap between two tunes was being decoded.
                let _ = client.tune(TuneParams {
                    workflow: "LV".into(),
                    objective: "exec".into(),
                    budget: 10,
                    pool: 120,
                    seed,
                    algo: "ceal".into(),
                });
            }
        })
    };

    let mut control = Client::connect(addr).expect("control connect");
    for (name, payload) in unclassifiable_payloads() {
        // A frame landing in the gap between two tunes is decoded instead
        // (`bad-request`, which `poke` accepts); only a success frame or a
        // panic would be wrong. Try again until it meets a busy server.
        let shed = (0..500).any(|_| poke(addr, &framed(&payload), true) == Reaction::ShedWithBusy);
        assert!(shed, "case {name} was never shed");
        control
            .ping()
            .expect("exempt traffic is served while shedding");
    }
    assert!(control.health().expect("health").requests_shed >= 5);

    stop.store(true, Ordering::Release);
    hammer.join().expect("hammer thread");
    control.shutdown().expect("shutdown");
    handle.join().expect("workers all exit cleanly");
}
