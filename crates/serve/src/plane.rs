//! The client-connection plane shared by the serve daemon and the
//! cluster front.
//!
//! One reactor thread owns the listener, the [`Poller`], the
//! [`TimerWheel`], the completion [`Waker`] and every client socket,
//! and does everything either tier does to a client connection: accept
//! under the connection cap, budgeted [`FrameDecoder`] reads with typed
//! decode errors, the inline `Shutdown`/`Health`/`Metrics` answers,
//! [`WriteQueue`] flushing, the mid-frame stall and drain-refusal
//! timers, delivery of answers computed off the loop, and the bounded
//! final flush. A [`Tier`] supplies only what differs: how a decoded
//! request is dispatched, its `Health` report, sockets and timers of
//! its own (the front's backends), and when its drain is done.

use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use gnnmls_faults::{fire, FaultSite};
use gnnmls_reactor::{
    wake_pair, Event, FrameDecoder, Interest, Poller, TimerWheel, WakeReceiver, Waker, WriteQueue,
};

use crate::protocol::{
    decode_payload, encode_msg, FrameError, HealthStatus, Request, RequestKind, Response,
    MAX_FRAME, PROTOCOL_VERSION,
};

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Timer-key namespace tags (high byte) so one wheel serves every
/// purpose without collisions: tokens and a tier's own ids stay below
/// 2^56. The plane owns tags 1 and 2; a tier arms its timers from tag 3
/// up.
pub(crate) const TAG_MASK: u64 = !((1u64 << 56) - 1);
/// A client connection stalled mid-frame.
const TAG_STALL: u64 = 1 << 56;
/// A connection accepted during the drain owes its typed refusal.
const TAG_REFUSE: u64 = 2 << 56;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;

/// Write backpressure: reading from a connection pauses while its
/// unsent responses exceed this many bytes (the peer is not draining).
const WRITE_HIGH_WATER: usize = 1 << 20;

/// How long a connection accepted during a drain may idle before the
/// typed refusal goes out even without a request frame.
const DRAIN_REFUSE_MS: u64 = 500;

/// Client connections kept open at once; one beyond the cap is
/// answered with a typed `Busy` and closed.
const MAX_CONNECTIONS: usize = 16_384;

/// Bytes read from one connection per readiness event — the fairness
/// cap that stops a firehose client from starving the loop (leftovers
/// are re-reported by level-triggered polling). The front's backend
/// connections read under the same cap.
pub(crate) const READ_BUDGET: usize = 64 * 1024;

/// The loop's longest sleep, so a lost wakeup can only ever delay — not
/// deadlock — a drain.
const MAX_WAIT: Duration = Duration::from_millis(500);

/// Answers computed off the loop: (connection token, response) pairs
/// plus the waker that pulls the loop out of `wait` to deliver them.
pub(crate) struct Completions {
    pub(crate) ready: Mutex<Vec<(u64, Response)>>,
    pub(crate) waker: Waker,
}

/// Event-loop counters. The daemon keeps one set; the front keeps none.
pub(crate) struct LoopMetrics {
    /// Wakeups with at least one readiness event.
    pub(crate) wakeups: gnnmls_obs::Counter,
    /// Connections accepted.
    pub(crate) accepts: gnnmls_obs::Counter,
    /// Connections currently registered with the loop.
    pub(crate) connections: gnnmls_obs::Gauge,
}

/// How one tier's plane is set up.
pub(crate) struct PlaneConfig {
    /// Mid-frame stall deadline, ms.
    pub(crate) read_timeout_ms: u64,
    /// Counter bumped when the connection cap refuses a socket.
    pub(crate) conn_limited_metric: &'static str,
    /// Counter bumped per drain refusal.
    pub(crate) drain_refused_metric: &'static str,
    /// The drain refusal's text.
    pub(crate) refusal: &'static str,
    /// The tier's event-loop counters, if it keeps them.
    pub(crate) loop_metrics: Option<&'static LoopMetrics>,
    /// A fault seam that treats a connection as stalled, checked on
    /// accept and before each frame is decoded.
    pub(crate) stall_seam: Option<FaultSite>,
}

/// What a tier adds to the plane.
pub(crate) trait Tier {
    /// Whether the tier still takes new work; `false` once its drain
    /// began.
    fn running(&self) -> bool;
    /// Starts the drain after a client's `Shutdown` frame.
    fn begin_shutdown(&self);
    /// Whether the drain is done: the plane then flushes and exits.
    fn finished(&mut self) -> bool;
    /// The payload of the inline `Health` answer.
    fn health(&self) -> HealthStatus;
    /// Takes one decoded request of a kind the plane does not answer
    /// inline.
    fn dispatch(&mut self, plane: &mut Plane, token: u64, req: Request);
    /// A readiness event on a socket the tier registered itself;
    /// returns `false` when `ev` belongs to a client connection.
    fn on_event(&mut self, _plane: &mut Plane, _ev: Event) -> bool {
        false
    }
    /// A timer the tier armed (a tag above the plane's two).
    fn on_timer(&mut self, _plane: &mut Plane, _key: u64) {}
}

/// One client connection's state on the plane.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    writes: WriteQueue,
    interest: Interest,
    /// Requests dispatched on behalf of this connection, not yet
    /// answered.
    inflight: usize,
    /// Accepted while draining: the first frame (or a timer) gets a
    /// typed refusal and nothing is served.
    refusing: bool,
    /// Stop serving; close once the write queue drains and nothing is
    /// in flight.
    closing: bool,
}

/// The readiness-driven client plane: one thread, every client socket.
pub(crate) struct Plane {
    cfg: PlaneConfig,
    listener: TcpListener,
    /// Shared with the tier, which registers its own sockets here.
    pub(crate) poller: Poller,
    /// Shared with the tier, which arms its own tags here.
    pub(crate) timers: TimerWheel,
    wake_rx: WakeReceiver,
    completions: Arc<Completions>,
    conns: HashMap<u64, Conn>,
    /// Token namespace shared by client connections and tier sockets.
    next_token: u64,
}

impl Plane {
    /// Binds the listener and sets up the poller, waker and timer
    /// wheel.
    ///
    /// # Errors
    ///
    /// The bind error, or a failure creating the poller/waker plumbing.
    pub(crate) fn bind(addr: &str, cfg: PlaneConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let (waker, wake_rx) = wake_pair()?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        poller.register(wake_rx.raw_fd(), TOKEN_WAKER, Interest::READABLE)?;
        Ok(Self {
            cfg,
            listener,
            poller,
            // 1ms granularity: stall deadlines, retry backoffs and
            // forward deadlines are millisecond-scale; 512 slots keep
            // the sweep cheap.
            timers: TimerWheel::new(Duration::from_millis(1), 512),
            wake_rx,
            completions: Arc::new(Completions {
                ready: Mutex::new(Vec::new()),
                waker,
            }),
            conns: HashMap::new(),
            next_token: TOKEN_WAKER + 1,
        })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub(crate) fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The queue through which off-loop work hands answers back.
    pub(crate) fn completions(&self) -> &Arc<Completions> {
        &self.completions
    }

    /// A fresh poller token.
    pub(crate) fn next_token(&mut self) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        token
    }

    /// Counts one request in flight for `token`; the connection stays
    /// open until [`deliver`](Self::deliver) answers it.
    pub(crate) fn hold(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.inflight += 1;
        }
    }

    /// Answers a request counted by [`hold`](Self::hold) and settles the
    /// connection (a closing one whose last answer just left is reaped
    /// here rather than waiting for another event).
    pub(crate) fn deliver(&mut self, token: u64, resp: &Response) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.inflight = conn.inflight.saturating_sub(1);
        }
        self.send(token, resp);
        self.settle(token);
    }

    /// Encodes and queues one response on `token`, then flushes as much
    /// as the socket accepts. A gone connection swallows the response.
    pub(crate) fn send(&mut self, token: u64, resp: &Response) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match encode_msg(resp) {
            Ok(frame) => conn.writes.push(frame),
            // An unencodable response mirrors a failed blocking
            // write_frame: the connection is torn down.
            Err(_) => {
                self.close_conn(token);
                return;
            }
        }
        self.flush_conn(token);
    }

    /// Sends `resp` as the connection's last answer: it stops serving
    /// and closes once its writes drain and nothing is in flight.
    pub(crate) fn send_last(&mut self, token: u64, resp: &Response) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.closing = true;
        }
        self.send(token, resp);
    }

    /// Runs the loop until the tier's drain is done, then flushes what
    /// is owed and drops every socket.
    pub(crate) fn run<T: Tier>(mut self, mut tier: T) {
        let mut events = Vec::new();
        let mut fired: Vec<u64> = Vec::new();
        loop {
            if tier.finished() {
                self.final_flush();
                return;
            }
            let timeout = self
                .timers
                .next_deadline()
                .map_or(MAX_WAIT, |dl| dl.saturating_duration_since(Instant::now()))
                .min(MAX_WAIT);
            events.clear();
            let n = self.poller.wait(&mut events, Some(timeout)).unwrap_or(0);
            if n > 0 {
                if let Some(m) = self.cfg.loop_metrics {
                    m.wakeups.inc();
                }
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.on_accept(&tier),
                    TOKEN_WAKER => {
                        self.wake_rx.drain();
                        self.deliver_completions();
                    }
                    _ if tier.on_event(&mut self, ev) => {}
                    _ => self.on_conn_event(&mut tier, ev),
                }
            }
            fired.clear();
            self.timers.pop_expired(Instant::now(), &mut fired);
            for &key in &fired {
                self.on_timer(&mut tier, key);
            }
        }
    }

    fn on_accept<T: Tier>(&mut self, tier: &T) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            if let Some(m) = self.cfg.loop_metrics {
                m.accepts.inc();
            }
            let token = self.next_token();
            if self
                .poller
                .register(stream.as_raw_fd(), token, Interest::READABLE)
                .is_err()
            {
                continue;
            }
            if let Some(m) = self.cfg.loop_metrics {
                m.connections.add(1);
            }
            let over_cap = self.conns.len() >= MAX_CONNECTIONS;
            let refusing = !tier.running();
            self.conns.insert(
                token,
                Conn {
                    stream,
                    decoder: FrameDecoder::new(PROTOCOL_VERSION, MAX_FRAME),
                    writes: WriteQueue::new(),
                    interest: Interest::READABLE,
                    inflight: 0,
                    refusing,
                    closing: false,
                },
            );
            if refusing {
                // Draining: wait (bounded) for the client's first frame
                // and answer it with a typed refusal — refusing before
                // the client writes would race a TCP reset that
                // discards the refusal before the client reads it.
                self.timers
                    .schedule_after(TAG_REFUSE | token, Duration::from_millis(DRAIN_REFUSE_MS));
            } else if over_cap {
                gnnmls_obs::counter_add(self.cfg.conn_limited_metric, &[], 1);
                self.send_last(token, &Response::busy(0));
            } else if self.cfg.stall_seam.is_some_and(fire) {
                // Deterministic stall seam: treat this connection as a
                // wedged client without waiting out a real timeout.
                self.stall_out(token);
            }
        }
    }

    /// Answers with a typed stall notice and closes.
    fn stall_out(&mut self, token: u64) {
        self.send_last(token, &Response::error(0, FrameError::Stalled));
    }

    fn flush_conn(&mut self, token: u64) {
        let flushed = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.writes.flush_to(&mut conn.stream)
        };
        match flushed {
            Ok(_) => self.settle(token),
            Err(_) => self.close_conn(token),
        }
    }

    /// Closes a finished connection or re-syncs its poll interest.
    fn settle(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if conn.closing && conn.writes.is_empty() && conn.inflight == 0 {
            self.close_conn(token);
        } else {
            self.update_interest(token);
        }
    }

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = Interest {
            readable: !conn.closing && conn.writes.buffered() < WRITE_HIGH_WATER,
            writable: !conn.writes.is_empty(),
        };
        if want.readable != conn.interest.readable || want.writable != conn.interest.writable {
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, token, want).is_err() {
                self.close_conn(token);
                return;
            }
            conn.interest = want;
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            self.timers.cancel(TAG_STALL | token);
            self.timers.cancel(TAG_REFUSE | token);
            if let Some(m) = self.cfg.loop_metrics {
                m.connections.add(-1);
            }
        }
    }

    fn on_conn_event<T: Tier>(&mut self, tier: &mut T, ev: Event) {
        if ev.writable {
            self.flush_conn(ev.token);
        }
        if ev.readable {
            self.on_readable(tier, ev.token);
        }
        if ev.hangup && !ev.readable {
            // ERR/HUP with nothing left to read: the peer is gone for
            // good, pending work is undeliverable.
            self.close_conn(ev.token);
        }
    }

    fn on_readable<T: Tier>(&mut self, tier: &mut T, token: u64) {
        let eof = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.closing || conn.writes.buffered() >= WRITE_HIGH_WATER {
                return;
            }
            match conn.decoder.fill_from(&mut conn.stream, READ_BUDGET) {
                Ok((_, eof)) => eof,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        };
        // Decode every complete frame buffered so far.
        loop {
            let (payload, refusing) = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.closing {
                    break;
                }
                match conn.decoder.next_frame() {
                    Ok(Some(payload)) => (payload, conn.refusing),
                    Ok(None) => break,
                    Err(e) => {
                        // The stream is no longer frame-aligned: one
                        // typed error, then close (mirrors the blocking
                        // reader's oversized/version paths).
                        self.send_last(token, &Response::error(0, FrameError::from(e)));
                        break;
                    }
                }
            };
            if refusing {
                self.refuse(token);
            } else {
                self.handle_payload(tier, token, &payload);
            }
        }
        if eof {
            let truncated = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                let truncated = conn.decoder.mid_frame() && !conn.refusing && !conn.closing;
                conn.closing = true;
                truncated
            };
            if truncated {
                // One best-effort typed error for a peer that vanished
                // mid-frame; pending responses still flush first.
                self.send(token, &Response::error(0, FrameError::Truncated));
            }
        }
        // Stall deadline: armed only while a frame is partially read —
        // an idle connection between frames never times out.
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if conn.decoder.mid_frame() && !conn.closing {
            self.timers.schedule_after(
                TAG_STALL | token,
                Duration::from_millis(self.cfg.read_timeout_ms.max(1)),
            );
        } else {
            self.timers.cancel(TAG_STALL | token);
        }
        self.settle(token);
    }

    /// Sends the typed drain refusal on a connection accepted while the
    /// tier is shutting down.
    fn refuse(&mut self, token: u64) {
        self.timers.cancel(TAG_REFUSE | token);
        gnnmls_obs::counter_add(self.cfg.drain_refused_metric, &[], 1);
        self.send_last(token, &Response::rejected(0, self.cfg.refusal));
    }

    /// Connection-level handling of one decoded frame: `Shutdown`,
    /// `Health` and `Metrics` are answered on the loop, everything else
    /// goes to the tier.
    fn handle_payload<T: Tier>(&mut self, tier: &mut T, token: u64, payload: &[u8]) {
        if self.cfg.stall_seam.is_some_and(fire) {
            self.stall_out(token);
            return;
        }
        let req: Request = match decode_payload(payload) {
            Ok(req) => req,
            Err(e) => {
                // The length prefix already consumed the bad payload,
                // so the stream is still frame-aligned: answer with a
                // typed error and keep serving this client.
                self.send(token, &Response::error(0, e));
                return;
            }
        };
        match req.kind {
            RequestKind::Shutdown => {
                self.send_last(token, &Response::ok(req.id));
                tier.begin_shutdown();
            }
            // Health and Metrics never wait behind queued or forwarded
            // work, so a scraper can always see a saturated tier.
            RequestKind::Health => {
                let resp = Response::ok(req.id).with_health(tier.health());
                self.send(token, &resp);
            }
            RequestKind::Metrics => {
                let resp = Response::ok(req.id).with_metrics(gnnmls_obs::render());
                self.send(token, &resp);
            }
            _ => tier.dispatch(self, token, req),
        }
    }

    fn on_timer<T: Tier>(&mut self, tier: &mut T, key: u64) {
        let token = key & !TAG_MASK;
        match key & TAG_MASK {
            TAG_STALL => {
                let stalled = self
                    .conns
                    .get(&token)
                    .is_some_and(|c| c.decoder.mid_frame() && !c.closing);
                if stalled {
                    self.stall_out(token);
                }
            }
            TAG_REFUSE => {
                let waiting = self
                    .conns
                    .get(&token)
                    .is_some_and(|c| c.refusing && !c.closing);
                if waiting {
                    self.refuse(token);
                }
            }
            _ => tier.on_timer(self, key),
        }
    }

    /// Routes answers computed off the loop back to the connections
    /// that asked.
    fn deliver_completions(&mut self) {
        let ready = std::mem::take(&mut *lock(&self.completions.ready));
        for (token, resp) in ready {
            self.deliver(token, &resp);
        }
    }

    /// Post-drain epilogue: deliver every owed completion, flush each
    /// socket under a bounded grace period, then drop everything
    /// (closing all fds).
    fn final_flush(&mut self) {
        let grace = Instant::now() + Duration::from_secs(2);
        let mut events = Vec::new();
        loop {
            self.wake_rx.drain();
            self.deliver_completions();
            let owed: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| !c.writes.is_empty())
                .map(|(&t, _)| t)
                .collect();
            for token in owed {
                self.flush_conn(token);
            }
            let done = self.conns.values().all(|c| c.writes.is_empty())
                && lock(&self.completions.ready).is_empty();
            if done || Instant::now() >= grace {
                return;
            }
            events.clear();
            let _ = self
                .poller
                .wait(&mut events, Some(Duration::from_millis(20)));
        }
    }
}
