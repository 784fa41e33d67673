//! Torture test for the readiness-driven serve core: many concurrent
//! hostile peers replaying the shared corpus while honest clients keep
//! getting answers, plus timer-driven stall eviction — a peer that opens
//! a frame and goes silent is disconnected by the reactor's deadline,
//! with no worker thread ever blocked on it.

#![cfg(target_os = "linux")]

mod common;
mod hostile;

use ceal_serve::frame::read_frame;
use ceal_serve::{Client, FrameError, ServeConfig};
use common::start_server;
use hostile::{corpus, poke};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn hostile_storm_does_not_starve_honest_clients() {
    let handle = start_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    // 8 attackers × 5 passes over the corpus, concurrently.
    let attackers: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..5 {
                    for case in corpus() {
                        let got = poke(addr, &case.bytes, case.half_close);
                        if let Some(expect) = &case.expect {
                            assert_eq!(got, *expect, "case {}", case.name);
                        }
                    }
                }
            })
        })
        .collect();

    // Honest traffic throughout the storm: every ping must be answered.
    let honest: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("honest connect");
                let deadline = Instant::now() + Duration::from_secs(10);
                let mut served = 0u32;
                while Instant::now() < deadline && served < 200 {
                    client.ping().expect("honest ping during storm");
                    served += 1;
                }
                served
            })
        })
        .collect();

    for a in attackers {
        a.join().expect("attacker thread panicked");
    }
    for h in honest {
        assert!(h.join().expect("honest thread panicked") > 0);
    }

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("reactor drains cleanly");
}

#[test]
fn mid_frame_staller_is_disconnected_by_the_timer() {
    let handle = start_server(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        stall_deadline: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    // Open a frame (partial header) and go silent. No worker thread is
    // watching this socket — the reactor's timer wheel must close it.
    let mut staller = TcpStream::connect(addr).expect("connect");
    staller.write_all(&[0x00, 0x00]).expect("partial header");
    staller.flush().unwrap();
    staller
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let t = Instant::now();
    match read_frame(&mut staller) {
        Err(FrameError::Closed) | Err(FrameError::Io(_)) => {}
        Ok(_) | Err(_) => panic!("staller must see the connection closed"),
    }
    let waited = t.elapsed();
    assert!(
        waited < Duration::from_secs(4),
        "stalled connection not closed by deadline (waited {waited:?})"
    );

    // The single worker was never pinned: an honest client is served.
    let mut client = Client::connect(addr).expect("connect after staller");
    client.ping().expect("ping after staller");
    client.shutdown().expect("shutdown");
    handle.join().expect("reactor drains cleanly");
}
