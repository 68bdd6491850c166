//! The cluster front's client-connection contract. The front answers
//! abuse on a client socket with the same typed notices as the daemon
//! (`wire_protocol.rs` pins those): a malformed payload costs one
//! typed error and the connection keeps serving, an oversized header
//! poisons the stream, a mid-frame stall is reaped by a timer, and a
//! connection accepted during the drain is refused with a typed
//! `Rejected`.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use gnn_mls::session::SessionSpec;
use gnnmls_serve::cluster::{ClusterConfig, ClusterFront, ShardBackendSpec};
use gnnmls_serve::protocol::{
    read_frame, write_frame, Request, Response, ResponseKind, MAX_FRAME, PROTOCOL_VERSION,
};
use gnnmls_serve::{FrameError, ServeConfig, Server};

/// The front's mid-frame stall deadline in these tests.
const READ_TIMEOUT_MS: u64 = 50;

/// One in-process shard daemon and a front routing to it.
fn start_front() -> (Server, ClusterFront) {
    let server =
        Server::start(ServeConfig::builder().read_timeout_ms(50).build().unwrap()).unwrap();
    let front = ClusterFront::start(
        ClusterConfig::builder()
            .read_timeout_ms(READ_TIMEOUT_MS)
            .build()
            .unwrap(),
        vec![ShardBackendSpec::External(server.local_addr())],
    )
    .unwrap();
    (server, front)
}

/// Drains the front (which shuts its shard down over the wire), then
/// reaps the shard.
fn teardown(server: Server, front: ClusterFront) {
    front.shutdown();
    server.wait();
}

#[test]
fn malformed_payload_gets_typed_error_and_the_connection_keeps_serving() {
    let (server, front) = start_front();
    let mut raw = TcpStream::connect(front.local_addr()).unwrap();

    let payload = b"this is not json";
    raw.write_all(&[PROTOCOL_VERSION]).unwrap();
    raw.write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    raw.write_all(payload).unwrap();
    let resp: Response = read_frame(&mut raw).unwrap();
    assert_eq!(resp.kind, ResponseKind::Error, "{resp:?}");
    assert_eq!(resp.id, 0, "unparseable request cannot echo an id");
    assert!(resp.error.unwrap().contains("malformed"));

    // Still frame-aligned: the same connection is answered inline and
    // through a forward to the shard.
    write_frame(&mut raw, &Request::health(11)).unwrap();
    let resp: Response = read_frame(&mut raw).unwrap();
    assert_eq!((resp.kind, resp.id), (ResponseKind::Ok, 11), "{resp:?}");
    write_frame(&mut raw, &Request::stats(12, SessionSpec::fast("maeri16"))).unwrap();
    let resp: Response = read_frame(&mut raw).unwrap();
    assert_eq!((resp.kind, resp.id), (ResponseKind::Ok, 12), "{resp:?}");
    assert!(resp.stats.is_some());

    drop(raw);
    teardown(server, front);
}

#[test]
fn oversized_header_gets_typed_exceeds_error_then_the_connection_closes() {
    let (server, front) = start_front();
    let mut raw = TcpStream::connect(front.local_addr()).unwrap();
    raw.write_all(&[PROTOCOL_VERSION]).unwrap();
    raw.write_all(&((MAX_FRAME + 1) as u32).to_be_bytes())
        .unwrap();
    let resp: Response = read_frame(&mut raw).unwrap();
    assert_eq!(resp.kind, ResponseKind::Error, "{resp:?}");
    assert_eq!(resp.id, 0);
    assert!(resp.error.unwrap().contains("exceeds"));
    // The stream can no longer be trusted: the front closes it.
    assert!(matches!(
        read_frame::<Response, _>(&mut raw),
        Err(FrameError::Closed)
    ));
    teardown(server, front);
}

#[test]
fn mid_frame_stall_gets_typed_stalled_notice_after_the_read_timeout() {
    let (server, front) = start_front();
    let mut raw = TcpStream::connect(front.local_addr()).unwrap();
    let t0 = Instant::now();
    // Half a header, then silence.
    raw.write_all(&[PROTOCOL_VERSION, 0]).unwrap();
    let resp: Response = read_frame(&mut raw).unwrap();
    let waited = t0.elapsed();
    assert_eq!(resp.kind, ResponseKind::Error, "{resp:?}");
    assert_eq!(resp.id, 0, "connection-level notice");
    assert!(resp.error.unwrap().contains("stalled"));
    assert!(
        waited >= Duration::from_millis(READ_TIMEOUT_MS),
        "stall notice before the deadline: {waited:?}"
    );
    assert!(
        waited < Duration::from_secs(10),
        "stall reaped far too late: {waited:?}"
    );
    teardown(server, front);
}

#[test]
fn connection_accepted_during_the_drain_gets_typed_rejected() {
    let (server, front) = start_front();
    front.initiate_shutdown();
    let mut raw = TcpStream::connect(front.local_addr()).unwrap();
    write_frame(&mut raw, &Request::metrics(5)).unwrap();
    let resp: Response = read_frame(&mut raw).unwrap();
    assert_eq!(resp.kind, ResponseKind::Rejected, "{resp:?}");
    assert_eq!(resp.id, 0, "connection-level refusal");
    assert!(
        resp.error.unwrap().contains("draining"),
        "the refusal names the cause"
    );
    teardown(server, front);
}
