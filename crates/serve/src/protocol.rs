//! The serve wire protocol: versioned, length-prefixed JSON frames.
//!
//! Every message on the socket is one **frame**: a 1-byte protocol
//! version ([`PROTOCOL_VERSION`]), a 4-byte big-endian payload length,
//! then exactly that many bytes of UTF-8 JSON (see `docs/PROTOCOL.md`).
//! A frame carrying any other version is refused with a typed
//! [`FrameError::VersionMismatch`] before the payload is read, so an
//! old client talking to a new daemon (or vice versa) gets a precise
//! diagnosis instead of a JSON parse error. Frames larger than
//! [`MAX_FRAME`] are refused in both directions with a typed
//! [`FrameError::TooLarge`] — a misbehaving peer can make the
//! server drop its connection, never allocate without bound.
//!
//! Reading is defensive by construction: a clean EOF at a frame
//! boundary is [`FrameError::Closed`], an EOF inside a frame is
//! [`FrameError::Truncated`], a read timeout inside a frame is
//! [`FrameError::Stalled`], and any payload that is not valid JSON for
//! the expected schema is [`FrameError::Malformed`]. None of these
//! panic or wedge the reader.
//!
//! The [`gnnmls_faults::FaultSite::FrameCorrupt`] seam flips a byte in
//! an outgoing payload, so tests can drive the malformed-frame path
//! deterministically from either end of the socket.

use std::fmt;
use std::io::{ErrorKind, Read, Write};

use serde::{Deserialize, Serialize};

use gnn_mls::session::{InferResult, SessionSpec, SessionStats, WhatIfResult};

/// Maximum frame payload size (8 MiB) accepted on read or write.
pub const MAX_FRAME: usize = 8 * 1024 * 1024;

/// The wire protocol version this build speaks, written as the first
/// byte of every frame. Version 2 added the version byte itself and the
/// `Metrics` request; version 1 frames (which started directly with the
/// length) are refused with [`FrameError::VersionMismatch`].
pub const PROTOCOL_VERSION: u8 = 2;

/// Default number of worst paths an `InferMls` request covers when the
/// request leaves `paths` unset.
pub const DEFAULT_INFER_PATHS: u64 = 32;

/// Errors raised encoding, transporting, or decoding a frame.
#[derive(Debug)]
pub enum FrameError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The frame payload exceeds [`MAX_FRAME`].
    TooLarge {
        /// Declared or attempted payload length.
        len: usize,
        /// The limit it exceeded.
        max: usize,
    },
    /// The payload is not UTF-8 JSON matching the expected schema.
    Malformed(String),
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// The peer closed the connection in the middle of a frame.
    Truncated,
    /// The peer stopped sending in the middle of a frame (read timeout).
    Stalled,
    /// The frame header carries a protocol version this build does not
    /// speak. Permanent for the connection: the peer must upgrade (or
    /// the operator downgrade), so no payload bytes are read.
    VersionMismatch {
        /// The version byte the peer sent.
        got: u8,
        /// The version this build speaks ([`PROTOCOL_VERSION`]).
        want: u8,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io: {e}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Malformed(why) => write!(f, "malformed frame: {why}"),
            FrameError::Closed => f.write_str("connection closed"),
            FrameError::Truncated => f.write_str("connection closed mid-frame"),
            FrameError::Stalled => f.write_str("connection stalled mid-frame"),
            FrameError::VersionMismatch { got, want } => {
                write!(
                    f,
                    "peer speaks protocol version {got}, this build wants {want}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<gnnmls_reactor::DecodeError> for FrameError {
    fn from(e: gnnmls_reactor::DecodeError) -> Self {
        match e {
            gnnmls_reactor::DecodeError::Version { got, want } => {
                FrameError::VersionMismatch { got, want }
            }
            gnnmls_reactor::DecodeError::TooLarge { len, max } => FrameError::TooLarge { len, max },
        }
    }
}

/// What a [`Request`] asks the daemon to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestKind {
    /// Detached what-if route of one net under an MLS override.
    WhatIf,
    /// MLS inference over the session's worst timing paths.
    InferMls,
    /// Full flow run for the spec (place, learn, route, STA, report).
    RunFlow,
    /// Server + (cached) session statistics.
    Stats,
    /// Readiness, queue depth, quarantine set, watchdog restarts.
    /// Answered at the connection (never queued), so it works even
    /// when the job queue is full.
    Health,
    /// The process-wide observability registry rendered as
    /// Prometheus-style text exposition. Answered at the connection
    /// like `Health` (never queued) — scraping must work even when the
    /// daemon is saturated.
    Metrics,
    /// Hot-swap a zoo model checkpoint into the family it names
    /// (`model_path` points at a [`gnn_mls::ZooModelCheckpoint`] file).
    /// Answered at the connection like `Health` — an operator must be
    /// able to roll a model while the daemon is saturated. In-flight
    /// requests finish on the weights they started with; a corrupt or
    /// mismatched checkpoint is `Rejected` and the serving model is
    /// untouched.
    LoadModel,
    /// Graceful drain: flush in-flight work, then exit.
    Shutdown,
}

/// One request frame. Every field key is always present on the wire
/// (the in-repo serde requires it); fields a kind does not use are
/// `null`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Caller-chosen id, echoed verbatim in the [`Response`].
    pub id: u64,
    /// What to do.
    pub kind: RequestKind,
    /// Which warm session to do it against.
    pub spec: SessionSpec,
    /// `WhatIf`: the net to query.
    pub net: Option<u32>,
    /// `WhatIf`: force MLS on (`true`, default) or off.
    pub allow_mls: Option<bool>,
    /// `WhatIf`: per-request deadline as an A* expansion budget; a
    /// starved budget degrades to pattern routes instead of hanging.
    pub deadline_expansions: Option<u64>,
    /// `InferMls`: how many worst paths to cover (default
    /// [`DEFAULT_INFER_PATHS`]).
    pub paths: Option<u64>,
    /// `LoadModel`: path (on the daemon's filesystem) of the zoo model
    /// checkpoint to swap in.
    pub model_path: Option<String>,
}

impl Request {
    fn bare(id: u64, kind: RequestKind, spec: SessionSpec) -> Self {
        Self {
            id,
            kind,
            spec,
            net: None,
            allow_mls: None,
            deadline_expansions: None,
            paths: None,
            model_path: None,
        }
    }

    /// A `WhatIf` request.
    pub fn what_if(
        id: u64,
        spec: SessionSpec,
        net: u32,
        allow_mls: bool,
        deadline_expansions: Option<u64>,
    ) -> Self {
        Self {
            net: Some(net),
            allow_mls: Some(allow_mls),
            deadline_expansions,
            ..Self::bare(id, RequestKind::WhatIf, spec)
        }
    }

    /// An `InferMls` request.
    pub fn infer(id: u64, spec: SessionSpec, paths: Option<u64>) -> Self {
        Self {
            paths,
            ..Self::bare(id, RequestKind::InferMls, spec)
        }
    }

    /// A `RunFlow` request.
    pub fn run_flow(id: u64, spec: SessionSpec) -> Self {
        Self::bare(id, RequestKind::RunFlow, spec)
    }

    /// A `Stats` request (session stats are reported for `spec` when it
    /// is cached).
    pub fn stats(id: u64, spec: SessionSpec) -> Self {
        Self::bare(id, RequestKind::Stats, spec)
    }

    /// A `Health` request; the spec is ignored.
    pub fn health(id: u64) -> Self {
        Self::bare(id, RequestKind::Health, SessionSpec::new("maeri16"))
    }

    /// A `Metrics` request; the spec is ignored.
    pub fn metrics(id: u64) -> Self {
        Self::bare(id, RequestKind::Metrics, SessionSpec::new("maeri16"))
    }

    /// A `LoadModel` request; the spec is ignored (the checkpoint
    /// itself names the family it serves).
    pub fn load_model(id: u64, model_path: impl Into<String>) -> Self {
        Self {
            model_path: Some(model_path.into()),
            ..Self::bare(id, RequestKind::LoadModel, SessionSpec::new("maeri16"))
        }
    }

    /// A `Shutdown` request; the spec is ignored.
    pub fn shutdown(id: u64) -> Self {
        Self::bare(id, RequestKind::Shutdown, SessionSpec::new("maeri16"))
    }
}

/// How a [`Response`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResponseKind {
    /// The request was served; the matching payload field is set.
    Ok,
    /// The job queue was full (or the admission budget exhausted); the
    /// request was shed. Retry later.
    Busy,
    /// The request failed admission validation. Permanent: retrying the
    /// identical request cannot succeed; `error` explains why.
    Rejected,
    /// The spec's session build is circuit-broken after repeated
    /// failures; `retry_after_ms` bounds the cooldown.
    Quarantined,
    /// The request failed; `error` explains why.
    Error,
}

/// One quarantined session spec, as reported by a `Health` response.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QuarantineInfo {
    /// The spec's cache key ([`SessionSpec::cache_key`]).
    pub key: u64,
    /// Consecutive build failures recorded for the key.
    pub strikes: u32,
    /// Whether the circuit is currently open (requests refused).
    pub open: bool,
    /// Milliseconds until the circuit half-opens; 0 when `open` is
    /// false.
    pub remaining_ms: u64,
}

/// Payload of a `Health` response: liveness and supervision state,
/// answered without taking a queue slot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HealthStatus {
    /// `true` until shutdown begins.
    pub ready: bool,
    /// Jobs waiting in the queue right now.
    pub queue_depth: u64,
    /// Queue capacity.
    pub queue_capacity: u64,
    /// Configured worker count.
    pub workers: u64,
    /// Times the watchdog respawned a dead worker thread.
    pub watchdog_restarts: u64,
    /// Admission cost units currently in flight.
    pub admitted_cost: u64,
    /// Configured admission budget (cost units).
    pub admission_budget: u64,
    /// Session specs currently tracked by the quarantine breaker.
    pub quarantine: Vec<QuarantineInfo>,
}

/// Server-side counters, included in every `Stats` response and in the
/// final drain checkpoint.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Requests answered (any kind, including errors).
    pub served: u64,
    /// Requests shed with `Busy` because the queue was full or the
    /// admission budget was exhausted.
    pub busy: u64,
    /// Requests answered with `Error`.
    pub errors: u64,
    /// Requests refused at admission with `Rejected` (invalid spec or
    /// out-of-range parameters).
    pub rejected: u64,
    /// Requests refused with `Quarantined` (circuit-broken spec).
    pub quarantined: u64,
    /// `Busy` responses caused by the admission budget specifically
    /// (a subset of `busy`).
    pub shed: u64,
    /// Worker threads respawned by the watchdog.
    pub watchdog_restarts: u64,
    /// Warm-hit audits that found an invariant violation (the session
    /// is dropped from the cache and rebuilt).
    pub audit_failures: u64,
    /// Queries answered from an already-warm session.
    pub cache_hits: u64,
    /// Queries that had to cold-build a session.
    pub cache_misses: u64,
    /// Sessions evicted to respect the cache capacity.
    pub cache_evictions: u64,
    /// Sessions currently held warm.
    pub cached_sessions: u64,
    /// Inference requests answered from a coalesced (size > 1) forward
    /// pass.
    pub batched_inferences: u64,
    /// Largest inference micro-batch coalesced so far.
    pub max_batch: u64,
    /// Stats of the requested spec's session, when it is cached.
    pub session: Option<SessionStats>,
}

/// Payload of an `Ok` response to a `LoadModel` request: what is now
/// serving the family.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelSwapResult {
    /// Family the new model serves.
    pub family: String,
    /// Version of the new model (`major.minor.patch`).
    pub version: String,
    /// Trainable parameters in the new model.
    pub parameter_count: u64,
    /// Version the swap replaced: a previous zoo version, or `None`
    /// when the family was still on its built-in per-session models.
    pub replaced: Option<String>,
}

/// One response frame; `id` echoes the request. Exactly one payload
/// field is set for `Ok`, none for `Busy`, and `error` for `Error`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Echo of [`Request::id`] (0 when the request could not be parsed).
    pub id: u64,
    /// Outcome.
    pub kind: ResponseKind,
    /// `WhatIf` payload.
    pub what_if: Option<WhatIfResult>,
    /// `InferMls` payload.
    pub infer: Option<InferResult>,
    /// `Stats` payload.
    pub stats: Option<ServerStats>,
    /// `RunFlow` payload: the pretty-printed `FlowReport` JSON.
    pub report_json: Option<String>,
    /// `Health` payload.
    pub health: Option<HealthStatus>,
    /// `Metrics` payload: Prometheus-style text exposition.
    pub metrics: Option<String>,
    /// `LoadModel` payload.
    pub model_swap: Option<ModelSwapResult>,
    /// Which model answered an `InferMls` request: a zoo version string
    /// for a hot-swapped family, `"builtin"` for the session's own
    /// trained model. Lets a client prove an in-flight request finished
    /// on the weights it started with across a swap.
    pub model_version: Option<String>,
    /// `Quarantined`: milliseconds until the circuit half-opens.
    pub retry_after_ms: Option<u64>,
    /// `Error`, `Rejected`, and `Quarantined` payload.
    pub error: Option<String>,
}

impl Response {
    /// An `Ok` response with no payload yet.
    pub fn ok(id: u64) -> Self {
        Self {
            id,
            kind: ResponseKind::Ok,
            what_if: None,
            infer: None,
            stats: None,
            report_json: None,
            health: None,
            metrics: None,
            model_swap: None,
            model_version: None,
            retry_after_ms: None,
            error: None,
        }
    }

    /// A `Busy` response (queue full; retry later).
    pub fn busy(id: u64) -> Self {
        Self {
            kind: ResponseKind::Busy,
            ..Self::ok(id)
        }
    }

    /// An `Error` response.
    pub fn error(id: u64, why: impl fmt::Display) -> Self {
        Self {
            kind: ResponseKind::Error,
            error: Some(why.to_string()),
            ..Self::ok(id)
        }
    }

    /// A `Rejected` response (failed admission validation; permanent).
    pub fn rejected(id: u64, why: impl fmt::Display) -> Self {
        Self {
            kind: ResponseKind::Rejected,
            error: Some(why.to_string()),
            ..Self::ok(id)
        }
    }

    /// A `Quarantined` response (circuit-broken spec; retry after the
    /// cooldown).
    pub fn quarantined(id: u64, why: impl fmt::Display, retry_after_ms: u64) -> Self {
        Self {
            kind: ResponseKind::Quarantined,
            error: Some(why.to_string()),
            retry_after_ms: Some(retry_after_ms),
            ..Self::ok(id)
        }
    }

    /// Attaches a health payload.
    pub fn with_health(mut self, h: HealthStatus) -> Self {
        self.health = Some(h);
        self
    }

    /// Attaches a metrics-exposition payload.
    pub fn with_metrics(mut self, text: String) -> Self {
        self.metrics = Some(text);
        self
    }

    /// Attaches a what-if payload.
    pub fn with_what_if(mut self, w: WhatIfResult) -> Self {
        self.what_if = Some(w);
        self
    }

    /// Attaches an inference payload.
    pub fn with_infer(mut self, i: InferResult) -> Self {
        self.infer = Some(i);
        self
    }

    /// Attaches a stats payload.
    pub fn with_stats(mut self, s: ServerStats) -> Self {
        self.stats = Some(s);
        self
    }

    /// Attaches a flow-report payload.
    pub fn with_report(mut self, json: String) -> Self {
        self.report_json = Some(json);
        self
    }

    /// Attaches a model-swap payload.
    pub fn with_model_swap(mut self, m: ModelSwapResult) -> Self {
        self.model_swap = Some(m);
        self
    }

    /// Stamps which model version produced this response.
    pub fn with_model_version(mut self, version: impl Into<String>) -> Self {
        self.model_version = Some(version.into());
        self
    }
}

/// Writes one frame.
///
/// The [`gnnmls_faults::FaultSite::FrameCorrupt`] seam flips a byte of
/// the payload after the length is computed, so the peer sees a
/// well-framed but malformed message.
///
/// # Errors
///
/// [`FrameError::TooLarge`] when the encoded payload exceeds
/// [`MAX_FRAME`], [`FrameError::Io`] on socket failure.
pub fn write_frame<T: Serialize, W: Write>(w: &mut W, msg: &T) -> Result<(), FrameError> {
    let frame = encode_msg(msg)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Encodes one message into a complete wire frame (version byte,
/// length, payload) without writing it anywhere — the reactor loop
/// queues the returned bytes on a [`gnnmls_reactor::WriteQueue`]. The
/// [`gnnmls_faults::FaultSite::FrameCorrupt`] seam lives here, shared
/// with [`write_frame`], so corruption tests drive both transports.
///
/// # Errors
///
/// [`FrameError::TooLarge`] when the encoded payload exceeds
/// [`MAX_FRAME`]; [`FrameError::Malformed`] when serialization fails.
pub fn encode_msg<T: Serialize>(msg: &T) -> Result<Vec<u8>, FrameError> {
    let json = serde_json::to_string(msg).map_err(|e| FrameError::Malformed(e.to_string()))?;
    let mut payload = json.into_bytes();
    if payload.len() > MAX_FRAME {
        return Err(FrameError::TooLarge {
            len: payload.len(),
            max: MAX_FRAME,
        });
    }
    if gnnmls_faults::fire(gnnmls_faults::FaultSite::FrameCorrupt) {
        if let Some(b) = payload.first_mut() {
            // '{' ^ 0x20 == '[': still a frame, no longer the schema.
            *b ^= 0x20;
        }
    }
    Ok(gnnmls_reactor::encode_frame(PROTOCOL_VERSION, &payload))
}

/// Decodes one frame payload (as produced by
/// [`gnnmls_reactor::FrameDecoder`]) into a typed message, with the
/// exact same [`FrameError::Malformed`] strings the blocking reader
/// produces — error-message parity is part of the wire contract.
///
/// # Errors
///
/// [`FrameError::Malformed`] when the payload is not UTF-8 or not JSON
/// for the expected schema.
pub fn decode_payload<T: Deserialize>(payload: &[u8]) -> Result<T, FrameError> {
    let json =
        std::str::from_utf8(payload).map_err(|_| FrameError::Malformed("not utf-8".into()))?;
    serde_json::from_str(json).map_err(|e| FrameError::Malformed(e.to_string()))
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Reads one frame, tolerating idle timeouts between frames.
///
/// `keep_going` is consulted before each read while **no** byte of the
/// frame has arrived; returning `false` yields `Ok(None)` (the cluster
/// front uses this to bound its wait for a shard's answer). A timeout
/// *inside* a frame is a [`FrameError::Stalled`] — a slow or wedged
/// peer cannot pin the reader forever. The reader never consumes a byte
/// past the frame it returns.
///
/// # Errors
///
/// See [`FrameError`]; every failure mode is typed, none panic.
pub fn read_frame_idle<T, R, F>(r: &mut R, keep_going: F) -> Result<Option<T>, FrameError>
where
    T: Deserialize,
    R: Read,
    F: Fn() -> bool,
{
    let mut decoder = gnnmls_reactor::FrameDecoder::new(PROTOCOL_VERSION, MAX_FRAME);
    let mut chunk = Vec::new();
    loop {
        // The decoder refuses a foreign version as soon as byte 0 lands
        // and an oversized length as soon as the header completes, long
        // before any payload allocation.
        if let Some(payload) = decoder.next_frame()? {
            return decode_payload(&payload).map(Some);
        }
        let mid = decoder.mid_frame();
        if !mid && !keep_going() {
            return Ok(None);
        }
        // Ask for exactly what this frame still needs: the caller's
        // next frame arrives on the same stream.
        chunk.resize(decoder.needed(), 0);
        match r.read(&mut chunk) {
            Ok(0) if mid => return Err(FrameError::Truncated),
            Ok(0) => return Err(FrameError::Closed),
            Ok(n) => decoder.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) && mid => return Err(FrameError::Stalled),
            Err(e) if is_timeout(&e) || e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
}

/// Reads one frame, blocking until it arrives or the stream fails.
///
/// # Errors
///
/// See [`FrameError`].
pub fn read_frame<T: Deserialize, R: Read>(r: &mut R) -> Result<T, FrameError> {
    match read_frame_idle(r, || true)? {
        Some(v) => Ok(v),
        // Unreachable with `keep_going` always true; typed for safety.
        None => Err(FrameError::Closed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SessionSpec {
        SessionSpec::fast("maeri16")
    }

    #[test]
    fn frames_round_trip() {
        let req = Request::what_if(7, spec(), 42, true, Some(1000));
        let mut wire = Vec::new();
        write_frame(&mut wire, &req).unwrap();
        let back: Request = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(req, back);

        let resp = Response::error(7, "nope");
        let mut wire = Vec::new();
        write_frame(&mut wire, &resp).unwrap();
        let back: Response = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(resp, back);
    }

    #[test]
    fn reader_stops_at_the_frame_boundary() {
        // Two frames back to back: the first read must leave the second
        // untouched, because a caller's next response shares the stream.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::stats(1, spec())).unwrap();
        write_frame(&mut wire, &Request::stats(2, spec())).unwrap();
        let mut r = wire.as_slice();
        let first: Request = read_frame(&mut r).unwrap();
        let second: Request = read_frame(&mut r).unwrap();
        assert_eq!((first.id, second.id), (1, 2));
        assert!(r.is_empty());
    }

    #[test]
    fn busy_and_payload_builders() {
        let b = Response::busy(3);
        assert_eq!(b.kind, ResponseKind::Busy);
        assert_eq!(b.id, 3);
        let r = Request::shutdown(1);
        assert_eq!(r.kind, RequestKind::Shutdown);
        let r = Request::infer(2, spec(), None);
        assert!(r.paths.is_none());
        let r = Request::stats(4, spec());
        assert_eq!(r.kind, RequestKind::Stats);
        let r = Request::run_flow(5, spec());
        assert_eq!(r.kind, RequestKind::RunFlow);
    }

    #[test]
    fn empty_stream_is_closed_partial_header_is_truncated() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame::<Request, _>(&mut { empty }),
            Err(FrameError::Closed)
        ));
        let partial: &[u8] = &[PROTOCOL_VERSION, 0];
        assert!(matches!(
            read_frame::<Request, _>(&mut { partial }),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn foreign_version_is_refused_before_the_payload() {
        // A well-formed frame re-stamped with the wrong version byte.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::stats(1, spec())).unwrap();
        for bad in [0u8, 1, PROTOCOL_VERSION + 1, 0xff] {
            let mut reframed = wire.clone();
            reframed[0] = bad;
            match read_frame::<Request, _>(&mut reframed.as_slice()) {
                Err(FrameError::VersionMismatch { got, want }) => {
                    assert_eq!(got, bad);
                    assert_eq!(want, PROTOCOL_VERSION);
                }
                other => panic!("version {bad} must be refused, got {other:?}"),
            }
        }
        // A bare v1-style frame (length first, no version byte) is also
        // a mismatch: its first byte is a length MSB, never 2.
        let v1 = 10u32.to_be_bytes().to_vec();
        assert!(matches!(
            read_frame::<Request, _>(&mut v1.as_slice()),
            Err(FrameError::VersionMismatch { got: 0, .. })
        ));
    }

    #[test]
    fn truncated_payload_is_typed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::stats(1, spec())).unwrap();
        for cut in 5..wire.len() {
            let mut short = &wire[..cut];
            assert!(
                matches!(
                    read_frame::<Request, _>(&mut short),
                    Err(FrameError::Truncated)
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_frames_are_refused_both_ways() {
        // Read side: a header that declares more than MAX_FRAME.
        let mut wire = vec![PROTOCOL_VERSION];
        wire.extend_from_slice(&((MAX_FRAME + 1) as u32).to_be_bytes());
        wire.extend_from_slice(b"xx");
        assert!(matches!(
            read_frame::<Request, _>(&mut wire.as_slice()),
            Err(FrameError::TooLarge { .. })
        ));
        // Write side: a payload that would exceed MAX_FRAME.
        let huge = "x".repeat(MAX_FRAME + 1);
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, &huge),
            Err(FrameError::TooLarge { .. })
        ));
        assert!(sink.is_empty(), "nothing written for a refused frame");
    }

    #[test]
    fn garbage_json_is_malformed_not_a_panic() {
        for payload in [&b"not json at all"[..], b"[1,2,3]", b"{\"id\":true}"] {
            let mut wire = vec![PROTOCOL_VERSION];
            wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            wire.extend_from_slice(payload);
            assert!(matches!(
                read_frame::<Request, _>(&mut wire.as_slice()),
                Err(FrameError::Malformed(_))
            ));
        }
        // Invalid UTF-8 as well.
        let mut wire = vec![PROTOCOL_VERSION];
        wire.extend_from_slice(&2u32.to_be_bytes());
        wire.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            read_frame::<Response, _>(&mut wire.as_slice()),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn frame_corrupt_fault_yields_malformed() {
        let plan = gnnmls_faults::FaultPlan::single(gnnmls_faults::FaultSite::FrameCorrupt, 1);
        let guard = gnnmls_faults::install(&plan);
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::stats(9, spec())).unwrap();
        assert!(matches!(
            read_frame::<Request, _>(&mut wire.as_slice()),
            Err(FrameError::Malformed(_))
        ));
        // One shot only: the next frame is clean.
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::stats(10, spec())).unwrap();
        let back: Request = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(back.id, 10);
        drop(guard);
    }

    #[test]
    fn robustness_builders_round_trip() {
        let q = Response::quarantined(11, "circuit open", 1234);
        assert_eq!(q.kind, ResponseKind::Quarantined);
        assert_eq!(q.retry_after_ms, Some(1234));
        let mut wire = Vec::new();
        write_frame(&mut wire, &q).unwrap();
        let back: Response = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(q, back);

        let r = Response::rejected(12, "bad spec");
        assert_eq!(r.kind, ResponseKind::Rejected);
        assert!(r.error.unwrap().contains("bad spec"));

        let h = Response::ok(13).with_health(HealthStatus {
            ready: true,
            queue_depth: 1,
            queue_capacity: 64,
            workers: 2,
            watchdog_restarts: 3,
            admitted_cost: 5,
            admission_budget: 4096,
            quarantine: vec![QuarantineInfo {
                key: 7,
                strikes: 3,
                open: true,
                remaining_ms: 500,
            }],
        });
        let mut wire = Vec::new();
        write_frame(&mut wire, &h).unwrap();
        let back: Response = read_frame(&mut wire.as_slice()).unwrap();
        let hs = back.health.unwrap();
        assert_eq!(hs.quarantine.len(), 1);
        assert_eq!(hs.quarantine[0].key, 7);
        assert_eq!(hs.watchdog_restarts, 3);

        let req = Request::health(14);
        assert_eq!(req.kind, RequestKind::Health);

        let req = Request::metrics(15);
        assert_eq!(req.kind, RequestKind::Metrics);
        let m = Response::ok(15).with_metrics("# HELP x y\nx 1\n".to_string());
        let mut wire = Vec::new();
        write_frame(&mut wire, &m).unwrap();
        let back: Response = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(back.metrics.as_deref(), Some("# HELP x y\nx 1\n"));
    }

    #[test]
    fn load_model_round_trips() {
        let req = Request::load_model(21, "/zoo/maeri-v1.0.0.ckpt");
        assert_eq!(req.kind, RequestKind::LoadModel);
        assert_eq!(req.model_path.as_deref(), Some("/zoo/maeri-v1.0.0.ckpt"));
        let mut wire = Vec::new();
        write_frame(&mut wire, &req).unwrap();
        let back: Request = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(req, back);

        let resp = Response::ok(21)
            .with_model_swap(ModelSwapResult {
                family: "maeri".to_string(),
                version: "1.0.0".to_string(),
                parameter_count: 12345,
                replaced: None,
            })
            .with_model_version("1.0.0");
        let mut wire = Vec::new();
        write_frame(&mut wire, &resp).unwrap();
        let back: Response = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(resp, back);
        let swap = back.model_swap.unwrap();
        assert_eq!(swap.family, "maeri");
        assert!(swap.replaced.is_none());
        assert_eq!(back.model_version.as_deref(), Some("1.0.0"));
    }

    #[test]
    fn errors_display() {
        assert!(FrameError::Stalled.to_string().contains("stalled"));
        assert!(FrameError::Truncated.to_string().contains("mid-frame"));
        let e = FrameError::TooLarge { len: 9, max: 8 };
        assert!(e.to_string().contains('9'));
    }
}
