//! Wire-protocol robustness against a live daemon: malformed,
//! truncated, and oversized frames, mid-frame disconnects, and the
//! frame-corruption / slow-client fault seams must all surface as typed
//! errors — the server never panics and never wedges.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};

use gnn_mls::session::SessionSpec;
use gnnmls_faults::{install_global, FaultPlan, FaultSite};
use gnnmls_serve::protocol::{
    read_frame, write_frame, Request, Response, ResponseKind, MAX_FRAME, PROTOCOL_VERSION,
};
use gnnmls_serve::{Client, ServeConfig, Server};

/// The seams fire on daemon threads, so these tests arm global fault
/// plans, and a concurrent test's connection could consume a seam armed
/// for another. Serialize the whole file.
fn serialize_tests() -> MutexGuard<'static, ()> {
    static SER: Mutex<()> = Mutex::new(());
    SER.lock().unwrap_or_else(PoisonError::into_inner)
}

fn test_server() -> Server {
    Server::start(ServeConfig::builder().read_timeout_ms(50).build().unwrap())
        .expect("bind 127.0.0.1:0")
}

fn spec() -> SessionSpec {
    SessionSpec::fast("maeri16")
}

/// Stats round-trips should still work on the same or a fresh
/// connection — the proof the server neither panicked nor wedged.
fn assert_server_alive(server: &Server) {
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    let resp = client.stats(&spec()).expect("stats after abuse");
    assert_eq!(resp.kind, ResponseKind::Ok);
    assert!(resp.stats.is_some());
}

#[test]
fn malformed_frame_gets_typed_error_and_connection_survives() {
    let _serial = serialize_tests();
    let server = test_server();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();

    // A well-framed payload that is not a Request.
    let payload = b"this is not json";
    raw.write_all(&[PROTOCOL_VERSION]).unwrap();
    raw.write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    raw.write_all(payload).unwrap();
    raw.flush().unwrap();
    let resp: Response = read_frame(&mut raw).unwrap();
    assert_eq!(resp.kind, ResponseKind::Error);
    assert_eq!(resp.id, 0, "unparseable request cannot echo an id");
    assert!(resp.error.unwrap().contains("malformed"));

    // The stream stayed frame-aligned: a valid request on the SAME
    // connection is served normally.
    write_frame(&mut raw, &Request::stats(11, spec())).unwrap();
    let resp: Response = read_frame(&mut raw).unwrap();
    assert_eq!(resp.kind, ResponseKind::Ok);
    assert_eq!(resp.id, 11);

    assert_server_alive(&server);
    server.shutdown();
}

#[test]
fn oversized_frame_is_refused_and_connection_closed() {
    let _serial = serialize_tests();
    let server = test_server();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&[PROTOCOL_VERSION]).unwrap();
    raw.write_all(&((MAX_FRAME + 1) as u32).to_be_bytes())
        .unwrap();
    raw.flush().unwrap();
    let resp: Response = read_frame(&mut raw).unwrap();
    assert_eq!(resp.kind, ResponseKind::Error);
    assert!(resp.error.unwrap().contains("exceeds"));
    // The server cannot trust this stream any more; it must close it.
    assert!(matches!(
        read_frame::<Response, _>(&mut raw),
        Err(gnnmls_serve::FrameError::Closed)
    ));
    assert_server_alive(&server);
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_does_not_wedge_the_server() {
    let _serial = serialize_tests();
    let server = test_server();
    {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        // Promise 4096 bytes, send 10, vanish.
        raw.write_all(&[PROTOCOL_VERSION]).unwrap();
        raw.write_all(&4096u32.to_be_bytes()).unwrap();
        raw.write_all(b"0123456789").unwrap();
        raw.flush().unwrap();
    } // dropped here
    assert_server_alive(&server);
    server.shutdown();
}

#[test]
fn metrics_round_trips_as_parsable_exposition() {
    let _serial = serialize_tests();
    let server = test_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Exercise the request path first so the counters are warm: the
    // first what-if is a cache miss (cold build), the second a hit.
    assert_eq!(client.stats(&spec()).unwrap().kind, ResponseKind::Ok);
    for _ in 0..2 {
        let r = client.what_if(&spec(), 0, true, None).unwrap();
        assert_eq!(r.kind, ResponseKind::Ok);
    }

    let resp = client.metrics().unwrap();
    assert_eq!(resp.kind, ResponseKind::Ok);
    let text = resp.metrics.expect("metrics response carries exposition");
    // Prometheus-style text: every non-comment line is `name{labels} value`.
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (name, value) = line.rsplit_once(' ').expect("name-value split");
        assert!(
            name.starts_with("gnnmls_"),
            "unexpected metric family: {line}"
        );
        assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
    }
    for family in [
        "gnnmls_serve_requests_total",
        "gnnmls_serve_responses_total",
        "gnnmls_serve_cache_hits_total",
        "gnnmls_serve_cache_misses_total",
        "gnnmls_serve_admission_total",
    ] {
        assert!(text.contains(family), "missing {family} in:\n{text}");
    }
    assert_server_alive(&server);
    server.shutdown();
}

#[test]
fn frame_corrupt_fault_is_survived() {
    let _serial = serialize_tests();
    let server = test_server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Warm the connection first so the only in-flight write after the
    // plan installs is ours.
    assert_eq!(client.stats(&spec()).unwrap().kind, ResponseKind::Ok);

    let guard = install_global(&FaultPlan::single(FaultSite::FrameCorrupt, 1));
    // Our outgoing request gets one byte flipped; the server must answer
    // with a typed malformed-frame error, not die.
    let resp = client.stats(&spec()).unwrap();
    assert_eq!(resp.kind, ResponseKind::Error);
    assert!(resp.error.unwrap().contains("malformed"));
    drop(guard);

    // Same connection still serves clean frames.
    let resp = client.stats(&spec()).unwrap();
    assert_eq!(resp.kind, ResponseKind::Ok);
    assert_server_alive(&server);
    server.shutdown();
}

#[test]
fn slow_client_fault_closes_with_typed_stall() {
    let _serial = serialize_tests();
    let server = test_server();
    let guard = install_global(&FaultPlan::single(FaultSite::SlowClientStall, 1));
    // The next accepted connection is treated as stalled mid-frame.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let resp: Response = read_frame(&mut raw).unwrap();
    assert_eq!(resp.kind, ResponseKind::Error);
    assert!(resp.error.unwrap().contains("stalled"));
    drop(guard);
    assert_server_alive(&server);
    server.shutdown();
}

#[test]
fn abuse_in_parallel_never_wedges() {
    let _serial = serialize_tests();
    let server = test_server();
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for i in 0..6 {
            scope.spawn(move || {
                for j in 0..8 {
                    match (i + j) % 3 {
                        0 => {
                            // Clean request.
                            let mut c = Client::connect(addr).unwrap();
                            let resp = c.stats(&spec()).unwrap();
                            assert!(matches!(resp.kind, ResponseKind::Ok | ResponseKind::Busy));
                        }
                        1 => {
                            // Garbage frame.
                            let mut raw = TcpStream::connect(addr).unwrap();
                            raw.write_all(&[PROTOCOL_VERSION]).unwrap();
                            raw.write_all(&3u32.to_be_bytes()).unwrap();
                            raw.write_all(b"???").unwrap();
                            raw.flush().unwrap();
                            let resp: Response = read_frame(&mut raw).unwrap();
                            assert_eq!(resp.kind, ResponseKind::Error);
                        }
                        _ => {
                            // Mid-frame disconnect.
                            let mut raw = TcpStream::connect(addr).unwrap();
                            raw.write_all(&[PROTOCOL_VERSION]).unwrap();
                            raw.write_all(&64u32.to_be_bytes()).unwrap();
                            raw.write_all(b"partial").unwrap();
                            raw.flush().unwrap();
                        }
                    }
                }
            });
        }
    });
    assert_server_alive(&server);
    server.shutdown();
}
