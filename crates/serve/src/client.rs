//! Blocking client for the serve wire protocol, with capped,
//! seeded-jitter retries.
//!
//! A busy daemon sheds work with typed `Busy` responses and a wedged
//! connection is closed with a typed stall notice; both are transient.
//! [`Client::request_with_retry`] retries exactly those cases under a
//! [`RetryPolicy`]: capped exponential backoff whose jitter comes from
//! a deterministic seeded mixer, so two clients given different seeds
//! desynchronize while every run of the same client is reproducible.
//! `Quarantined` responses are also retried, honoring the server's
//! `retry_after_ms` hint as the backoff floor — the client never probes
//! an open circuit earlier than the server asked it to. When the
//! attempts are exhausted it returns a typed [`ClientError::GaveUp`]
//! carrying the attempt count — the caller always knows how hard it
//! tried.

use std::fmt;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use gnn_mls::session::SessionSpec;

use crate::api::{classify, ServeError};
use crate::breaker::backoff_ms;
use crate::protocol::{read_frame, write_frame, FrameError, Request, Response};

/// Retry schedule for [`Client::request_with_retry`].
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included); at least 1.
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base_delay_ms: u64,
    /// Backoff ceiling.
    pub max_delay_ms: u64,
    /// Jitter seed; deterministic per (seed, attempt).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_delay_ms: 10,
            max_delay_ms: 500,
            seed: 0x00C0_FFEE,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (0-based): the
    /// breakers' schedule — `base_delay_ms·2^attempt` plus up to a
    /// quarter of deterministic jitter, never past `max_delay_ms`.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        backoff_ms(
            self.base_delay_ms,
            attempt,
            self.max_delay_ms,
            self.seed ^ u64::from(attempt),
        )
    }

    /// [`delay_ms`](Self::delay_ms) with a server-imposed floor: a
    /// `Quarantined` response carries `retry_after_ms` (how long the
    /// circuit stays open), and probing earlier is pointless, so the
    /// floor wins over the jittered schedule — even over
    /// `max_delay_ms`.
    pub fn delay_with_floor(&self, attempt: u32, floor_ms: Option<u64>) -> u64 {
        self.delay_ms(attempt).max(floor_ms.unwrap_or(0))
    }
}

/// Errors from the retrying request path.
#[derive(Debug)]
pub enum ClientError {
    /// A non-retryable transport failure (e.g. the request itself could
    /// not be encoded).
    Frame(FrameError),
    /// Every attempt was shed or stalled.
    GaveUp {
        /// Attempts made (== `RetryPolicy::max_attempts`).
        attempts: u32,
        /// What the final attempt saw.
        last: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Frame(e) => write!(f, "client: {e}"),
            ClientError::GaveUp { attempts, last } => {
                write!(f, "gave up after {attempts} attempts; last: {last}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// One connection to a `gnnmls-serve` daemon. Requests are synchronous:
/// each call writes one frame and blocks for the matching response.
pub struct Client {
    stream: TcpStream,
    peer: SocketAddr,
    next_id: u64,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Returns the socket error when the daemon is unreachable.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let peer = stream.peer_addr()?;
        Ok(Self {
            stream,
            peer,
            next_id: 1,
        })
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Best-effort reconnect after the server closed this connection
    /// (stall notice, truncated frame, broken pipe). A failure here is
    /// fine: the next attempt's request will fail and consume one
    /// retry.
    fn reconnect(&mut self) {
        if let Ok(stream) = TcpStream::connect(self.peer) {
            let _ = stream.set_nodelay(true);
            self.stream = stream;
        }
    }

    /// Sends a request and blocks for its response.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] when either direction of the exchange
    /// fails.
    pub fn request(&mut self, req: &Request) -> Result<Response, FrameError> {
        write_frame(&mut self.stream, req)?;
        read_frame(&mut self.stream)
    }

    /// Sends a request, retrying transient failures under `policy`.
    /// Outcomes are classified by [`crate::api::classify`]:
    /// `Busy` responses (shed work), `Quarantined` responses (the spec's
    /// circuit is open — the backoff floor is the server's
    /// `retry_after_ms` hint, so the next attempt lands after the
    /// cooldown's half-open probe window starts), connection-level
    /// notices (the server's stall/malformed reports carry id 0), and
    /// transport errors (reconnecting first). Permanent outcomes —
    /// `Ok`, `Rejected`, request-level `Error` — return immediately. A
    /// still-quarantined final attempt returns that `Quarantined`
    /// response rather than `GaveUp`, so the caller keeps the typed
    /// verdict and its `retry_after_ms`.
    ///
    /// # Errors
    ///
    /// [`ClientError::GaveUp`] when `policy.max_attempts` attempts were
    /// all transient failures.
    pub fn request_with_retry(
        &mut self,
        req: &Request,
        policy: &RetryPolicy,
    ) -> Result<Response, ClientError> {
        let attempts = policy.max_attempts.max(1);
        let mut last = String::new();
        let mut floor_ms: Option<u64> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(Duration::from_millis(
                    policy.delay_with_floor(attempt - 1, floor_ms.take()),
                ));
            }
            match self.request(req) {
                // The taxonomy decides, not ad-hoc kind matching:
                // transient verdicts loop, everything else returns the
                // envelope for the caller to interpret.
                Ok(resp) => match classify(&resp, req.id) {
                    Some(ServeError::Busy { .. }) => {
                        last = "busy".to_string();
                    }
                    Some(ServeError::Quarantined { retry_after_ms, .. }) => {
                        if attempt + 1 == attempts {
                            return Ok(resp);
                        }
                        floor_ms = retry_after_ms;
                        last = "quarantined".to_string();
                    }
                    Some(ServeError::Notice { why }) => {
                        // Not our answer; the server may have closed
                        // the stream after it.
                        last = why;
                        self.reconnect();
                    }
                    // `Ok`, `Rejected`, and request-level `Error` are
                    // final answers here.
                    _ => return Ok(resp),
                },
                Err(e) => {
                    last = e.to_string();
                    self.reconnect();
                }
            }
        }
        Err(ClientError::GaveUp { attempts, last })
    }

    /// What-if routes `net` of `spec` with MLS forced on or off,
    /// optionally under an A* expansion budget (the request deadline).
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on a transport failure.
    pub fn what_if(
        &mut self,
        spec: &SessionSpec,
        net: u32,
        allow_mls: bool,
        deadline_expansions: Option<u64>,
    ) -> Result<Response, FrameError> {
        let id = self.take_id();
        self.request(&Request::what_if(
            id,
            spec.clone(),
            net,
            allow_mls,
            deadline_expansions,
        ))
    }

    /// Runs MLS inference over the worst `paths` paths of `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on a transport failure.
    pub fn infer(
        &mut self,
        spec: &SessionSpec,
        paths: Option<u64>,
    ) -> Result<Response, FrameError> {
        let id = self.take_id();
        self.request(&Request::infer(id, spec.clone(), paths))
    }

    /// Fetches server stats (plus session stats for `spec` if cached).
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on a transport failure.
    pub fn stats(&mut self, spec: &SessionSpec) -> Result<Response, FrameError> {
        let id = self.take_id();
        self.request(&Request::stats(id, spec.clone()))
    }

    /// Fetches the daemon's health (readiness, queue depth, quarantine
    /// set, watchdog restarts); answered inline even under full load.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on a transport failure.
    pub fn health(&mut self) -> Result<Response, FrameError> {
        let id = self.take_id();
        self.request(&Request::health(id))
    }

    /// Fetches the daemon's metrics registry as Prometheus-style text
    /// exposition; answered inline even under full load.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on a transport failure.
    pub fn metrics(&mut self) -> Result<Response, FrameError> {
        let id = self.take_id();
        self.request(&Request::metrics(id))
    }

    /// Runs the full flow for `spec` on the daemon.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on a transport failure.
    pub fn run_flow(&mut self, spec: &SessionSpec) -> Result<Response, FrameError> {
        let id = self.take_id();
        self.request(&Request::run_flow(id, spec.clone()))
    }

    /// Hot-swaps the model for the family of the checkpoint at `path`
    /// (a `gnnmls model train` artifact); answered inline even under
    /// full load. Against a cluster front this broadcasts to every
    /// shard.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on a transport failure.
    pub fn load_model(&mut self, path: impl Into<String>) -> Result<Response, FrameError> {
        let id = self.take_id();
        self.request(&Request::load_model(id, path))
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on a transport failure.
    pub fn shutdown(&mut self) -> Result<Response, FrameError> {
        let id = self.take_id();
        self.request(&Request::shutdown(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential_and_deterministic() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_delay_ms: 10,
            max_delay_ms: 100,
            seed: 7,
        };
        let delays: Vec<u64> = (0..8).map(|a| p.delay_ms(a)).collect();
        let again: Vec<u64> = (0..8).map(|a| p.delay_ms(a)).collect();
        assert_eq!(delays, again, "same seed, same schedule");
        for (a, &d) in delays.iter().enumerate() {
            assert!(d <= 100, "attempt {a} exceeded the cap: {d}");
            assert!(d >= 5, "attempt {a} below half the base: {d}");
        }
        // The fixed half grows until the cap kicks in.
        assert!(delays[2] >= delays[0]);
        // A different seed gives a different schedule somewhere.
        let q = RetryPolicy { seed: 8, ..p };
        assert!((0..8).any(|a| q.delay_ms(a) != delays[a as usize]));
    }

    #[test]
    fn retry_after_floor_overrides_the_jittered_schedule() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_delay_ms: 10,
            max_delay_ms: 100,
            seed: 7,
        };
        for attempt in 0..5 {
            // No floor (or a floor of zero) degrades to the plain
            // schedule.
            assert_eq!(p.delay_with_floor(attempt, None), p.delay_ms(attempt));
            assert_eq!(p.delay_with_floor(attempt, Some(0)), p.delay_ms(attempt));
            // A quarantine cooldown longer than the cap wins outright:
            // probing an open circuit early is wasted work.
            assert_eq!(p.delay_with_floor(attempt, Some(5_000)), 5_000);
            // A floor below the scheduled delay never shortens it.
            assert!(p.delay_with_floor(attempt, Some(1)) >= p.delay_ms(attempt));
        }
        // Deterministic: same policy + floor, same schedule.
        let a: Vec<u64> = (0..5).map(|n| p.delay_with_floor(n, Some(40))).collect();
        let b: Vec<u64> = (0..5).map(|n| p.delay_with_floor(n, Some(40))).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn gave_up_displays_attempts() {
        let e = ClientError::GaveUp {
            attempts: 5,
            last: "busy".into(),
        };
        let s = e.to_string();
        assert!(s.contains('5') && s.contains("busy"), "{s}");
    }
}
