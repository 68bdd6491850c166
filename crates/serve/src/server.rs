//! The serve daemon: a bounded job queue, worker pool, and warm session
//! cache behind a readiness-driven reactor.
//!
//! One **reactor thread** owns every socket. It runs the client plane
//! the daemon shares with the cluster front: nonblocking accept,
//! incremental frame assembly (partial reads and partial writes are
//! first-class, see [`gnnmls_reactor::FrameDecoder`] and
//! [`gnnmls_reactor::WriteQueue`]), and stall deadlines and
//! drain-refusal grace periods on one [`gnnmls_reactor::TimerWheel`]
//! instead of per-connection timeouts. The daemon's part of the loop is
//! connection-level admission and the push of each admitted request
//! onto a [`gnnmls_par::queue::BoundedQueue`]. The push **never
//! blocks**: a full queue sheds the request with a typed `Busy`
//! response, so memory use is bounded no matter how many clients pile
//! on — ten thousand idle connections cost ten thousand fd slots and
//! small buffers, not ten thousand threads.
//! A small worker pool pops jobs behind the queue; when a worker picks
//! up an `InferMls` job it drains whatever else is queued and coalesces
//! the inference requests that share a session into **one** batched
//! model forward pass ([`gnn_mls::GnnMls::predict_paths`]), splitting
//! the probabilities back per request — bit-identical to serving them
//! one by one. Workers hand finished responses back to the loop through
//! a completion queue plus a self-pipe [`gnnmls_reactor::Waker`].
//!
//! Sessions are cached warm in an LRU keyed by
//! [`SessionSpec::cache_key`]; a hit answers a what-if with a usage-map
//! restore plus one detached search instead of a full place + route +
//! train, which is the ≥10× the bench records. Builds are serialized by
//! a dedicated lock so a thundering herd on a cold spec builds once.
//!
//! Admission control runs at the connection, **before** a request takes
//! a queue slot or the build lock: deep validation rejects unserviceable
//! requests with a typed `Rejected`, and an [`AdmissionMeter`] sheds
//! work (`Busy`) when the estimated cost in flight would exceed the
//! configured budget.
//!
//! The daemon self-heals two failure classes. A spec whose session
//! build keeps failing is **quarantined**: after
//! [`ServeConfig::quarantine_threshold`] consecutive failures the
//! circuit opens and requests for that spec are refused with a typed
//! `Quarantined` (and a `retry_after_ms`) until a seeded, capped
//! exponential cooldown expires — a poisoned spec cannot grind the
//! build lock. A **watchdog** thread polls the worker pool; a worker
//! that died with the queue still open is respawned and its in-flight
//! job requeued at the front, so one panic loses no request.
//!
//! Shutdown (a client `Shutdown` frame or [`Server::shutdown`]) is a
//! drain, not an abort: the queue closes, the watchdog stops **before**
//! the workers are joined (an in-flight respawn or an open quarantine
//! cooldown can never deadlock the drain), workers finish every queued
//! job, every in-flight response is flushed, and the final
//! [`ServerStats`] are written as a versioned stage-checkpoint envelope
//! when a checkpoint directory is configured. While the drain runs the
//! acceptor answers new connections with a typed `Rejected` refusal
//! (instead of letting them hang until the stall timeout), so a
//! `gnnmls client metrics` against a draining daemon fails fast.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gnn_mls::checkpoint::save_stage_logged;
use gnn_mls::flow::run_flow;
use gnn_mls::session::{DesignSession, SessionError, SessionSpec, ValidationError};
use gnn_mls::AuditMode;
use gnnmls_faults::{fire, FaultSite};
use gnnmls_obs::FieldValue;
use gnnmls_par::queue::{BoundedQueue, PushError};

use crate::admission::{self, AdmissionMeter};
use crate::breaker::Breaker;
use crate::plane::{lock, Completions, LoopMetrics, Plane, PlaneConfig, Tier};
use crate::protocol::{
    HealthStatus, ModelSwapResult, QuarantineInfo, Request, RequestKind, Response, ResponseKind,
    ServerStats, DEFAULT_INFER_PATHS,
};

/// Stage name of the final drain checkpoint envelope.
pub const STATS_STAGE: &str = "serve-stats";

/// Static serve metrics (always accumulating; see `gnnmls-obs`).
static REQUESTS: gnnmls_obs::Counter = gnnmls_obs::Counter::new(
    "gnnmls_serve_requests_total",
    "requests answered by the daemon, any kind and outcome",
);
static CACHE_HITS: gnnmls_obs::Counter = gnnmls_obs::Counter::new(
    "gnnmls_serve_cache_hits_total",
    "queries answered from an already-warm session",
);
static CACHE_MISSES: gnnmls_obs::Counter = gnnmls_obs::Counter::new(
    "gnnmls_serve_cache_misses_total",
    "queries that had to cold-build a session",
);
static BATCH_SIZE: gnnmls_obs::Histogram = gnnmls_obs::Histogram::new(
    "gnnmls_serve_infer_batch_size",
    "inference requests coalesced into one model forward pass",
    &[1, 2, 4, 8, 16, 32, 64],
);
static REACTOR: LoopMetrics = LoopMetrics {
    wakeups: gnnmls_obs::Counter::new(
        "gnnmls_reactor_wakeups_total",
        "times the serve event loop woke with at least one readiness event",
    ),
    accepts: gnnmls_obs::Counter::new(
        "gnnmls_reactor_accepts_total",
        "connections accepted by the serve event loop",
    ),
    connections: gnnmls_obs::Gauge::new(
        "gnnmls_reactor_connections",
        "connections currently registered with the serve event loop",
    ),
};

/// Daemon configuration.
///
/// Construct with [`ServeConfig::default`] and mutate the public
/// fields, or go through [`ServeConfig::builder`] for validation; the
/// struct is `#[non_exhaustive]` so fields can grow without breaking
/// downstream crates.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Bind address; `127.0.0.1:0` picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Job-queue capacity; pushes beyond it are shed as `Busy`.
    pub queue_capacity: usize,
    /// Worker threads popping the queue.
    pub workers: usize,
    /// Warm sessions kept before LRU eviction.
    pub cache_capacity: usize,
    /// Mid-frame stall deadline, ms: a connection that stops sending
    /// partway through a frame gets a typed stall notice and is closed.
    /// A connection idle between frames never times out.
    pub read_timeout_ms: u64,
    /// Where the final [`ServerStats`] envelope is written on drain.
    pub checkpoint_dir: Option<PathBuf>,
    /// Admission budget in cost units (see [`admission::request_cost`]);
    /// requests whose estimated cost would push the in-flight total past
    /// it are shed with `Busy`.
    pub admission_budget: u64,
    /// Consecutive session-build failures before a spec's circuit
    /// opens.
    pub quarantine_threshold: u32,
    /// Base quarantine cooldown; doubles per re-open up to 16x, plus
    /// up to a quarter of deterministic seeded jitter inside that cap.
    pub quarantine_cooldown_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 64,
            workers: 2,
            cache_capacity: 4,
            read_timeout_ms: 100,
            checkpoint_dir: None,
            admission_budget: 4096,
            quarantine_threshold: 3,
            quarantine_cooldown_ms: 5_000,
        }
    }
}

impl ServeConfig {
    /// A checked builder seeded with the defaults;
    /// [`ServeConfigBuilder::build`] validates every knob.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            cfg: Self::default(),
        }
    }
}

/// One checked-builder setter per config field; shared by
/// [`ServeConfigBuilder`] and the cluster front's builder.
macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            #[must_use]
            pub fn $name(mut self, $name: $ty) -> Self {
                self.cfg.$name = $name;
                self
            }
        )*
    };
}
pub(crate) use builder_setters;

/// Checked builder for [`ServeConfig`] (see [`ServeConfig::builder`]).
#[derive(Clone, Debug)]
pub struct ServeConfigBuilder {
    cfg: ServeConfig,
}

impl ServeConfigBuilder {
    builder_setters! {
        /// Bind address (`127.0.0.1:0` picks a free port).
        addr: String,
        /// Job-queue capacity; pushes beyond it are shed as `Busy`.
        queue_capacity: usize,
        /// Worker threads popping the queue.
        workers: usize,
        /// Warm sessions kept before LRU eviction.
        cache_capacity: usize,
        /// Mid-frame stall deadline, ms.
        read_timeout_ms: u64,
        /// Where the final stats envelope is written on drain.
        checkpoint_dir: Option<PathBuf>,
        /// Admission budget in cost units.
        admission_budget: u64,
        /// Consecutive build failures before a spec's circuit opens.
        quarantine_threshold: u32,
        /// Base quarantine cooldown, ms.
        quarantine_cooldown_ms: u64,
    }

    /// Validates every knob and returns the config.
    ///
    /// # Errors
    ///
    /// Returns [`ValidationError::BadConfig`] naming the first field
    /// outside its domain.
    pub fn build(self) -> Result<ServeConfig, ValidationError> {
        let c = self.cfg;
        let bad = |field: &'static str, got: String, want: &'static str| {
            Err(ValidationError::BadConfig { field, got, want })
        };
        if c.addr.is_empty() {
            return bad("addr", "\"\"".to_string(), "a bind address");
        }
        if c.queue_capacity == 0 {
            return bad("queue_capacity", "0".to_string(), ">= 1");
        }
        if c.workers == 0 {
            return bad("workers", "0".to_string(), ">= 1");
        }
        if c.read_timeout_ms == 0 {
            return bad("read_timeout_ms", "0".to_string(), ">= 1");
        }
        if c.admission_budget == 0 {
            return bad("admission_budget", "0".to_string(), ">= 1");
        }
        if c.quarantine_threshold == 0 {
            return bad("quarantine_threshold", "0".to_string(), ">= 1");
        }
        if c.quarantine_cooldown_ms == 0 {
            return bad("quarantine_cooldown_ms", "0".to_string(), ">= 1");
        }
        Ok(c)
    }
}

/// Seed for the quarantine jitter, mixed with the spec key.
const QUARANTINE_SEED: u64 = 0x6d6c_735f_7365_7276;

// The unit tests pin the jitter mixer the breaker draws from.
#[cfg(test)]
use gnnmls_par::rng::splitmix64;

/// Stable label for a request kind in metrics and trace events.
fn kind_name(kind: RequestKind) -> &'static str {
    match kind {
        RequestKind::WhatIf => "what_if",
        RequestKind::InferMls => "infer_mls",
        RequestKind::RunFlow => "run_flow",
        RequestKind::Stats => "stats",
        RequestKind::Health => "health",
        RequestKind::Metrics => "metrics",
        RequestKind::LoadModel => "load_model",
        RequestKind::Shutdown => "shutdown",
    }
}

/// Stable label for a response outcome in metrics and trace events.
fn outcome_name(kind: ResponseKind) -> &'static str {
    match kind {
        ResponseKind::Ok => "ok",
        ResponseKind::Busy => "busy",
        ResponseKind::Rejected => "rejected",
        ResponseKind::Quarantined => "quarantined",
        ResponseKind::Error => "error",
    }
}

/// Counts one admission verdict taken at the connection, before a job
/// reaches the queue.
fn count_admission(verdict: &'static str) {
    gnnmls_obs::counter_add("gnnmls_serve_admission_total", &[("verdict", verdict)], 1);
}

/// LRU cache of warm sessions keyed by [`SessionSpec::cache_key`].
struct SessionCache {
    capacity: usize,
    map: HashMap<u64, Arc<DesignSession>>,
    order: VecDeque<u64>,
}

impl SessionCache {
    fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
        }
        self.order.push_back(key);
    }

    fn get(&mut self, key: u64) -> Option<Arc<DesignSession>> {
        let s = Arc::clone(self.map.get(&key)?);
        self.touch(key);
        Some(s)
    }

    /// Like `get` but without refreshing recency (stats peeking).
    fn peek(&self, key: u64) -> Option<Arc<DesignSession>> {
        self.map.get(&key).map(Arc::clone)
    }

    /// Inserts, returning how many sessions were evicted.
    fn insert(&mut self, key: u64, session: Arc<DesignSession>) -> u64 {
        let mut evicted = 0;
        if !self.map.contains_key(&key) {
            while self.map.len() >= self.capacity {
                match self.order.pop_front() {
                    Some(old) => {
                        self.map.remove(&old);
                        evicted += 1;
                    }
                    None => break,
                }
            }
        }
        self.map.insert(key, session);
        self.touch(key);
        evicted
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Drops a session whose warm-hit audit failed.
    fn remove(&mut self, key: u64) {
        self.map.remove(&key);
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
        }
    }
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    busy: AtomicU64,
    errors: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    batched_inferences: AtomicU64,
    max_batch: AtomicU64,
    rejected: AtomicU64,
    quarantined: AtomicU64,
    shed: AtomicU64,
    watchdog_restarts: AtomicU64,
    audit_failures: AtomicU64,
}

/// Where a job's response goes: the completion queue of the reactor
/// that owns connection `conn`. A response for a connection that
/// vanished in the meantime is silently dropped by the loop — a
/// vanished client is not a server problem.
struct Reply {
    conn: u64,
    completions: Arc<Completions>,
}

impl Reply {
    fn send(&self, resp: Response) {
        lock(&self.completions.ready).push((self.conn, resp));
        self.completions.waker.wake();
    }
}

struct Job {
    req: Request,
    reply: Reply,
    /// Admission cost units held while this job is in flight; returned
    /// to the meter when the response is sent.
    cost: u64,
    /// When the job entered the queue. Only ever *emitted* (as the
    /// queue-wait field of the request trace event), never recorded in
    /// a metric value — see the obs determinism contract.
    enqueued_at: Instant,
}

/// A hot-swapped zoo model serving one design family. Swaps replace
/// the `Arc` in [`Shared::models`] atomically; requests that already
/// cloned the old `Arc` finish on the weights they started with.
struct ZooModel {
    /// Version string (`major.minor.patch`) stamped into responses.
    version: String,
    /// The restored model.
    model: gnn_mls::GnnMls,
}

/// Outcome of a session lookup: the quarantine gate sits between the
/// cache and the build.
enum SessionGate {
    Ready(Arc<DesignSession>),
    Quarantined { strikes: u32, remaining_ms: u64 },
    Failed(SessionError),
}

struct Shared {
    cfg: ServeConfig,
    queue: BoundedQueue<Job>,
    cache: Mutex<SessionCache>,
    /// Serializes cold builds so a thundering herd builds once.
    build_lock: Mutex<()>,
    counters: Counters,
    running: AtomicBool,
    /// Set only at the very end of a drain: tells the acceptor to exit.
    /// Between `begin_shutdown` and this flag the acceptor stays alive
    /// to refuse new connections with a typed `Rejected` response
    /// instead of letting them hang until the stall timeout.
    accept_stop: AtomicBool,
    meter: AdmissionMeter,
    quarantine: Mutex<HashMap<u64, Breaker>>,
    /// Hot-swapped zoo models, one slot per design family. Empty slots
    /// fall back to each session's built-in trained model.
    models: Mutex<HashMap<&'static str, Arc<ZooModel>>>,
}

impl Shared {
    fn begin_shutdown(&self) {
        self.running.store(false, Ordering::SeqCst);
        self.queue.close();
    }

    /// If `key`'s circuit is open, returns its strikes and the
    /// remaining cooldown. Once the cooldown has expired the circuit is
    /// half-open: a probe build goes through, and a failure re-opens it
    /// for longer.
    fn quarantine_remaining(&self, key: u64) -> Option<(u32, u64)> {
        let q = lock(&self.quarantine);
        let b = q.get(&key)?;
        Some((b.failures, b.remaining_ms()?))
    }

    /// Records a failed build; at the threshold the spec's circuit
    /// opens (see [`Breaker::record_failure`]).
    fn record_build_failure(&self, key: u64) {
        lock(&self.quarantine)
            .entry(key)
            .or_default()
            .record_failure(
                self.cfg.quarantine_threshold,
                self.cfg.quarantine_cooldown_ms,
                QUARANTINE_SEED ^ key,
            );
    }

    /// A successful build closes the circuit and forgets the strikes.
    fn record_build_success(&self, key: u64) {
        lock(&self.quarantine).remove(&key);
    }

    /// Warm lookup or serialized cold build of the session for `spec`,
    /// gated by the quarantine breaker. Warm hits are re-audited in
    /// cheap mode; a corrupted session is dropped from the cache and
    /// the hit turns into a typed failure (the next request rebuilds).
    fn session(&self, spec: &SessionSpec) -> SessionGate {
        let key = spec.cache_key();
        if let Some(s) = lock(&self.cache).get(key) {
            self.counters.cache_hits.fetch_add(1, Ordering::SeqCst);
            CACHE_HITS.inc();
            if let Err(e) = s.audit(AuditMode::Cheap) {
                self.counters.audit_failures.fetch_add(1, Ordering::SeqCst);
                lock(&self.cache).remove(key);
                return SessionGate::Failed(e);
            }
            return SessionGate::Ready(s);
        }
        if let Some((strikes, remaining_ms)) = self.quarantine_remaining(key) {
            return SessionGate::Quarantined {
                strikes,
                remaining_ms,
            };
        }
        let _build = lock(&self.build_lock);
        if let Some(s) = lock(&self.cache).get(key) {
            self.counters.cache_hits.fetch_add(1, Ordering::SeqCst);
            CACHE_HITS.inc();
            return SessionGate::Ready(s);
        }
        // Re-check under the lock: the circuit may have opened while we
        // waited behind the build that struck out.
        if let Some((strikes, remaining_ms)) = self.quarantine_remaining(key) {
            return SessionGate::Quarantined {
                strikes,
                remaining_ms,
            };
        }
        self.counters.cache_misses.fetch_add(1, Ordering::SeqCst);
        CACHE_MISSES.inc();
        let mut build_span = gnnmls_obs::span("session_build");
        build_span.field_str("design", &spec.design);
        match DesignSession::build(spec) {
            Ok(built) => {
                build_span.field_bool("ok", true);
                self.record_build_success(key);
                let built = Arc::new(built);
                let evicted = lock(&self.cache).insert(key, Arc::clone(&built));
                self.counters
                    .cache_evictions
                    .fetch_add(evicted, Ordering::SeqCst);
                SessionGate::Ready(built)
            }
            Err(e) => {
                build_span.field_bool("ok", false);
                self.record_build_failure(key);
                SessionGate::Failed(e)
            }
        }
    }

    /// The zoo model currently serving `design`'s family, if one was
    /// swapped in. Cloning the `Arc` pins the weights for the caller:
    /// a concurrent swap replaces the slot without touching in-flight
    /// work.
    fn zoo_model(&self, design: &str) -> Option<Arc<ZooModel>> {
        let family = gnn_mls::design_family(design)?;
        lock(&self.models).get(family).cloned()
    }

    /// Validates and atomically swaps in the checkpoint at `path_str`.
    /// Nothing is replaced unless the file's envelope verifies, its
    /// family is known, and its weights restore — a bad artifact leaves
    /// the serving model untouched.
    fn swap_model(&self, path_str: &str) -> Result<ModelSwapResult, ValidationError> {
        let cp =
            gnn_mls::ZooModelCheckpoint::load(std::path::Path::new(path_str)).map_err(|e| {
                ValidationError::BadModel {
                    family: "unknown".to_string(),
                    why: format!("checkpoint {path_str} does not load: {e}"),
                }
            })?;
        let Some(family) = gnn_mls::FAMILIES.iter().copied().find(|f| *f == cp.family) else {
            return Err(ValidationError::BadModel {
                family: cp.family,
                why: format!(
                    "not a served family (expected one of {})",
                    gnn_mls::FAMILIES.join(", ")
                ),
            });
        };
        let version = cp.version.to_string();
        let model =
            gnn_mls::GnnMls::from_checkpoint(cp.model).map_err(|e| ValidationError::BadModel {
                family: family.to_string(),
                why: format!("weights do not restore: {e}"),
            })?;
        let parameter_count = model.parameter_count() as u64;
        let replaced = lock(&self.models)
            .insert(
                family,
                Arc::new(ZooModel {
                    version: version.clone(),
                    model,
                }),
            )
            .map(|old| old.version.clone());
        gnnmls_obs::counter_add(
            "gnnmls_model_swaps_total",
            &[("family", family), ("version", &version)],
            1,
        );
        Ok(ModelSwapResult {
            family: family.to_string(),
            version,
            parameter_count,
            replaced,
        })
    }

    /// Answers a `LoadModel` request. A refused swap takes a
    /// quarantine strike keyed by the path (not any session spec), so
    /// an operator hammering a broken artifact trips the breaker
    /// without poisoning the session cache.
    fn load_model_response(&self, req: &Request) -> Response {
        let Some(path_str) = req.model_path.as_deref() else {
            self.counters.rejected.fetch_add(1, Ordering::SeqCst);
            return Response::rejected(req.id, "load-model request is missing `model_path`");
        };
        match self.swap_model(path_str) {
            Ok(swap) => {
                let version = swap.version.clone();
                Response::ok(req.id)
                    .with_model_swap(swap)
                    .with_model_version(version)
            }
            Err(e) => {
                self.counters.rejected.fetch_add(1, Ordering::SeqCst);
                self.record_build_failure(gnn_mls::checkpoint::fnv1a64(path_str.as_bytes()));
                Response::rejected(req.id, e)
            }
        }
    }

    fn quarantined_response(id: u64, strikes: u32, remaining_ms: u64) -> Response {
        Response::quarantined(
            id,
            format!("session build circuit-broken after {strikes} consecutive failures"),
            remaining_ms,
        )
    }

    fn health(&self) -> HealthStatus {
        let mut quarantine: Vec<QuarantineInfo> = lock(&self.quarantine)
            .iter()
            .map(|(&key, b)| b.info(key))
            .collect();
        quarantine.sort_by_key(|q| q.key);
        HealthStatus {
            ready: self.running.load(Ordering::SeqCst),
            queue_depth: self.queue.len() as u64,
            queue_capacity: self.queue.capacity() as u64,
            workers: self.cfg.workers.max(1) as u64,
            watchdog_restarts: self.counters.watchdog_restarts.load(Ordering::SeqCst),
            admitted_cost: self.meter.in_flight(),
            admission_budget: self.meter.budget(),
            quarantine,
        }
    }

    fn server_stats(&self, session_key: Option<u64>) -> ServerStats {
        let c = &self.counters;
        let cache = lock(&self.cache);
        ServerStats {
            served: c.served.load(Ordering::SeqCst),
            busy: c.busy.load(Ordering::SeqCst),
            errors: c.errors.load(Ordering::SeqCst),
            cache_hits: c.cache_hits.load(Ordering::SeqCst),
            cache_misses: c.cache_misses.load(Ordering::SeqCst),
            cache_evictions: c.cache_evictions.load(Ordering::SeqCst),
            cached_sessions: cache.len() as u64,
            batched_inferences: c.batched_inferences.load(Ordering::SeqCst),
            max_batch: c.max_batch.load(Ordering::SeqCst),
            rejected: c.rejected.load(Ordering::SeqCst),
            quarantined: c.quarantined.load(Ordering::SeqCst),
            shed: c.shed.load(Ordering::SeqCst),
            watchdog_restarts: c.watchdog_restarts.load(Ordering::SeqCst),
            audit_failures: c.audit_failures.load(Ordering::SeqCst),
            session: session_key.and_then(|k| cache.peek(k)).map(|s| s.stats()),
        }
    }

    fn respond(&self, job: Job, resp: Response) {
        match resp.kind {
            ResponseKind::Error => {
                self.counters.errors.fetch_add(1, Ordering::SeqCst);
            }
            ResponseKind::Quarantined => {
                self.counters.quarantined.fetch_add(1, Ordering::SeqCst);
            }
            ResponseKind::Rejected => {
                self.counters.rejected.fetch_add(1, Ordering::SeqCst);
            }
            _ => {}
        }
        self.counters.served.fetch_add(1, Ordering::SeqCst);
        REQUESTS.inc();
        let outcome = outcome_name(resp.kind);
        gnnmls_obs::counter_add("gnnmls_serve_responses_total", &[("outcome", outcome)], 1);
        // Same funnel, split by serving model: over any window the
        // per-version counts sum to `gnnmls_serve_responses_total`.
        gnnmls_obs::counter_add(
            "gnnmls_serve_responses_by_model_total",
            &[(
                "version",
                resp.model_version.as_deref().unwrap_or("builtin"),
            )],
            1,
        );
        // Request-lifecycle trace: the wall-clock durations live only in
        // this emitted event, never in a metric a caller reads back.
        if gnnmls_obs::enabled() {
            gnnmls_obs::event(
                "request",
                &[
                    ("id", FieldValue::U64(job.req.id)),
                    ("kind", FieldValue::Str(kind_name(job.req.kind).to_string())),
                    ("outcome", FieldValue::Str(outcome.to_string())),
                    (
                        "total_us",
                        FieldValue::U64(job.enqueued_at.elapsed().as_micros() as u64),
                    ),
                ],
            );
        }
        self.meter.release(job.cost);
        job.reply.send(resp);
    }

    fn what_if_response(&self, req: &Request) -> Response {
        let Some(net) = req.net else {
            return Response::error(req.id, "what-if request is missing `net`");
        };
        let session = match self.session(&req.spec) {
            SessionGate::Ready(s) => s,
            SessionGate::Quarantined {
                strikes,
                remaining_ms,
            } => return Self::quarantined_response(req.id, strikes, remaining_ms),
            SessionGate::Failed(e) => return Response::error(req.id, e),
        };
        let budget = req.deadline_expansions.map(|e| e as usize);
        match session.what_if(net, req.allow_mls.unwrap_or(true), budget) {
            Ok(w) => Response::ok(req.id).with_what_if(w),
            Err(e) => Response::error(req.id, e),
        }
    }

    /// Serves a group of `InferMls` jobs that share one spec with a
    /// single batched forward pass.
    fn infer_group(&self, group: Vec<Job>) {
        let Some(first) = group.first() else { return };
        let n = group.len() as u64;
        self.counters.max_batch.fetch_max(n, Ordering::SeqCst);
        BATCH_SIZE.observe(n);
        if n > 1 {
            self.counters
                .batched_inferences
                .fetch_add(n, Ordering::SeqCst);
        }
        let session = match self.session(&first.req.spec) {
            SessionGate::Ready(s) => s,
            SessionGate::Quarantined {
                strikes,
                remaining_ms,
            } => {
                for job in group {
                    let id = job.req.id;
                    self.respond(job, Self::quarantined_response(id, strikes, remaining_ms));
                }
                return;
            }
            SessionGate::Failed(e) => {
                let why = e.to_string();
                for job in group {
                    let id = job.req.id;
                    self.respond(job, Response::error(id, &why));
                }
                return;
            }
        };
        let ks: Vec<usize> = group
            .iter()
            .map(|j| {
                (j.req.paths.unwrap_or(DEFAULT_INFER_PATHS) as usize).min(session.samples().len())
            })
            .collect();
        let kmax = ks.iter().copied().max().unwrap_or(0);
        // A hot-swapped zoo model overrides the session's built-in one.
        // The `Arc` cloned here outlives any concurrent swap: this
        // whole group finishes on the weights it started with.
        let zoo = self.zoo_model(&first.req.spec.design);
        let version: &str = zoo.as_ref().map_or("builtin", |z| z.version.as_str());
        let model = match &zoo {
            Some(z) => &z.model,
            None => match session.model() {
                Some(m) => m,
                None => {
                    for job in group {
                        let id = job.req.id;
                        self.respond(job, Response::error(id, SessionError::NoModel));
                    }
                    return;
                }
            },
        };
        // One forward pass covers the longest request; shorter requests
        // reuse its probability prefix — identical to solo calls because
        // predictions are per-sample.
        let probs = match model.predict_paths(&session.samples()[..kmax]) {
            Ok(p) => p,
            Err(e) => {
                let why = e.to_string();
                for job in group {
                    let id = job.req.id;
                    self.respond(job, Response::error(id, &why));
                }
                return;
            }
        };
        for (job, k) in group.into_iter().zip(ks) {
            let result = session.infer_from_probs(k, &probs);
            let id = job.req.id;
            self.respond(
                job,
                Response::ok(id)
                    .with_infer(result)
                    .with_model_version(version),
            );
        }
    }

    fn handle(&self, job: Job) {
        let req = &job.req;
        if gnnmls_obs::enabled() {
            gnnmls_obs::event(
                "job_start",
                &[
                    ("id", FieldValue::U64(req.id)),
                    ("kind", FieldValue::Str(kind_name(req.kind).to_string())),
                    (
                        "queue_wait_us",
                        FieldValue::U64(job.enqueued_at.elapsed().as_micros() as u64),
                    ),
                ],
            );
        }
        let resp = match req.kind {
            RequestKind::WhatIf => self.what_if_response(req),
            RequestKind::InferMls => {
                // Jobs normally reach inference via the batch path; a
                // stray single is just a batch of one.
                return self.infer_group(vec![job]);
            }
            RequestKind::RunFlow => {
                let spec = &req.spec;
                let report = spec
                    .generate()
                    .and_then(|design| Ok(run_flow(&design, &spec.flow_config(), spec.policy)?));
                match report {
                    Ok(report) => match serde_json::to_string_pretty(&report) {
                        Ok(json) => Response::ok(req.id).with_report(json),
                        Err(e) => Response::error(req.id, e),
                    },
                    Err(e) => Response::error(req.id, e),
                }
            }
            RequestKind::Stats => {
                let stats = self.server_stats(Some(req.spec.cache_key()));
                Response::ok(req.id).with_stats(stats)
            }
            // Health, Metrics, LoadModel, and Shutdown are answered at
            // the connection; never queued.
            RequestKind::Health => Response::ok(req.id).with_health(self.health()),
            RequestKind::Metrics => Response::ok(req.id).with_metrics(gnnmls_obs::render()),
            RequestKind::LoadModel => self.load_model_response(req),
            RequestKind::Shutdown => Response::ok(req.id),
        };
        self.respond(job, resp);
    }

    fn handle_batch(&self, jobs: Vec<Job>) {
        let mut groups: HashMap<u64, Vec<Job>> = HashMap::new();
        let mut rest = Vec::new();
        for job in jobs {
            if job.req.kind == RequestKind::InferMls {
                groups
                    .entry(job.req.spec.cache_key())
                    .or_default()
                    .push(job);
            } else {
                rest.push(job);
            }
        }
        for (_, group) in groups {
            self.infer_group(group);
        }
        for job in rest {
            self.handle(job);
        }
    }
}

/// One worker's supervision slot: the watchdog reads `handle` to tell
/// dead from alive and recovers `inflight` when a worker dies holding
/// a job.
#[derive(Default)]
struct WorkerSlot {
    handle: Mutex<Option<JoinHandle<()>>>,
    inflight: Mutex<Option<Job>>,
}

fn worker_loop(shared: &Shared, slot: &WorkerSlot) {
    loop {
        let Some(job) = shared.queue.pop() else {
            return;
        };
        // Park the job where the watchdog can see it, then take it
        // back: a worker that dies in between leaves the job
        // recoverable instead of lost.
        *lock(&slot.inflight) = Some(job);
        if fire(FaultSite::WorkerPanic) {
            panic!("injected worker panic (gnnmls-faults)");
        }
        let Some(job) = lock(&slot.inflight).take() else {
            continue;
        };
        if job.req.kind == RequestKind::InferMls {
            // Micro-batch: coalesce whatever queued up behind this job.
            let mut jobs = vec![job];
            jobs.extend(shared.queue.drain());
            shared.handle_batch(jobs);
        } else {
            shared.handle(job);
        }
    }
}

/// Polls the worker pool; a worker that finished while the queue is
/// still open can only have panicked (workers return only once the
/// closed queue drains). Its in-flight job is requeued at the front and
/// a fresh worker is spawned into the same slot. The loop exits as soon
/// as shutdown begins, so the drain can join workers without racing a
/// respawn.
fn watchdog_loop(shared: &Arc<Shared>, slots: &Arc<Vec<WorkerSlot>>) {
    while shared.running.load(Ordering::SeqCst) {
        for (i, slot) in slots.iter().enumerate() {
            let dead = lock(&slot.handle).as_ref().is_some_and(|h| h.is_finished());
            if dead && !shared.queue.is_closed() {
                if let Some(job) = lock(&slot.inflight).take() {
                    if let Err((job, _)) = shared.queue.requeue(job) {
                        // The queue closed under us: answer directly so
                        // the client is not left hanging.
                        let id = job.req.id;
                        shared.respond(job, Response::error(id, "server is shutting down"));
                    }
                }
                if let Some(h) = lock(&slot.handle).take() {
                    let _ = h.join();
                }
                let ws = Arc::clone(shared);
                let wslots = Arc::clone(slots);
                let h = std::thread::spawn(move || worker_loop(&ws, &wslots[i]));
                *lock(&slot.handle) = Some(h);
                shared
                    .counters
                    .watchdog_restarts
                    .fetch_add(1, Ordering::SeqCst);
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The daemon's side of the client plane: connection-level admission
/// in front of the job queue.
struct DaemonTier {
    shared: Arc<Shared>,
}

impl Tier for DaemonTier {
    fn running(&self) -> bool {
        self.shared.running.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    fn finished(&mut self) -> bool {
        self.shared.accept_stop.load(Ordering::SeqCst)
    }

    fn health(&self) -> HealthStatus {
        self.shared.health()
    }

    /// Answers `LoadModel` on the loop; every other request runs
    /// admission and takes a queue slot.
    fn dispatch(&mut self, plane: &mut Plane, token: u64, req: Request) {
        let shared = &self.shared;
        // An operator must be able to roll a model while the queue is
        // full. The swap itself is a checkpoint read + restore —
        // bounded work, no session build.
        if req.kind == RequestKind::LoadModel {
            plane.send(token, &shared.load_model_response(&req));
            return;
        }
        // Admission control: deep-validate before the request can cost
        // a queue slot or the build lock. Rejections are permanent.
        if let Err(e) = admission::validate_request(&req) {
            shared.counters.rejected.fetch_add(1, Ordering::SeqCst);
            count_admission("rejected");
            plane.send(token, &Response::rejected(req.id, e));
            return;
        }
        // Circuit breaker: refuse a quarantined spec up front instead
        // of letting it queue up behind the build lock. (Re-checked in
        // `Shared::session` for jobs already in flight.)
        if matches!(req.kind, RequestKind::WhatIf | RequestKind::InferMls) {
            if let Some((strikes, remaining_ms)) = shared.quarantine_remaining(req.spec.cache_key())
            {
                shared.counters.quarantined.fetch_add(1, Ordering::SeqCst);
                count_admission("quarantined");
                let resp = Shared::quarantined_response(req.id, strikes, remaining_ms);
                plane.send(token, &resp);
                return;
            }
        }
        // Cost metering: shed when admitting would blow the budget.
        let warm = lock(&shared.cache).peek(req.spec.cache_key()).is_some();
        let cost = admission::request_cost(&req, warm);
        if !shared.meter.try_admit(cost) {
            shared.counters.busy.fetch_add(1, Ordering::SeqCst);
            shared.counters.shed.fetch_add(1, Ordering::SeqCst);
            count_admission("shed");
            plane.send(token, &Response::busy(req.id));
            return;
        }
        let id = req.id;
        let job = Job {
            req,
            reply: Reply {
                conn: token,
                completions: Arc::clone(plane.completions()),
            },
            cost,
            enqueued_at: Instant::now(),
        };
        match shared.queue.try_push(job) {
            Ok(()) => {
                count_admission("admitted");
                plane.hold(token);
            }
            Err((job, PushError::Full)) => {
                shared.meter.release(job.cost);
                shared.counters.busy.fetch_add(1, Ordering::SeqCst);
                count_admission("busy");
                plane.send(token, &Response::busy(id));
            }
            Err((job, PushError::Closed)) => {
                shared.meter.release(job.cost);
                plane.send_last(token, &Response::error(id, "server is shutting down"));
            }
        }
    }
}

/// A running daemon; dropping it drains gracefully.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    reactor: Option<JoinHandle<()>>,
    slots: Arc<Vec<WorkerSlot>>,
    watchdog: Option<JoinHandle<()>>,
    completions: Arc<Completions>,
    final_stats: Option<ServerStats>,
}

impl Server {
    /// Binds and starts accepting.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable, or when
    /// the reactor's poller/waker plumbing cannot be created.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Self> {
        let plane = Plane::bind(
            &cfg.addr,
            PlaneConfig {
                read_timeout_ms: cfg.read_timeout_ms,
                conn_limited_metric: "gnnmls_serve_conn_limited_total",
                drain_refused_metric: "gnnmls_serve_drain_refused_total",
                refusal: "server is draining; connection refused",
                loop_metrics: Some(&REACTOR),
                stall_seam: Some(FaultSite::SlowClientStall),
            },
        )?;
        let local_addr = plane.local_addr()?;
        let completions = Arc::clone(plane.completions());
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_capacity),
            cache: Mutex::new(SessionCache::new(cfg.cache_capacity)),
            build_lock: Mutex::new(()),
            counters: Counters::default(),
            running: AtomicBool::new(true),
            accept_stop: AtomicBool::new(false),
            meter: AdmissionMeter::new(cfg.admission_budget.max(1)),
            quarantine: Mutex::new(HashMap::new()),
            models: Mutex::new(HashMap::new()),
            cfg,
        });
        let tier = DaemonTier {
            shared: Arc::clone(&shared),
        };
        let reactor = std::thread::spawn(move || plane.run(tier));

        let slots: Arc<Vec<WorkerSlot>> =
            Arc::new((0..workers).map(|_| WorkerSlot::default()).collect());
        for i in 0..workers {
            let worker_shared = Arc::clone(&shared);
            let worker_slots = Arc::clone(&slots);
            let handle = std::thread::spawn(move || worker_loop(&worker_shared, &worker_slots[i]));
            *lock(&slots[i].handle) = Some(handle);
        }
        let dog_shared = Arc::clone(&shared);
        let dog_slots = Arc::clone(&slots);
        let watchdog = std::thread::spawn(move || watchdog_loop(&dog_shared, &dog_slots));

        Ok(Self {
            shared,
            local_addr,
            reactor: Some(reactor),
            slots,
            watchdog: Some(watchdog),
            completions,
            final_stats: None,
        })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Whether the daemon is still accepting work.
    pub fn is_running(&self) -> bool {
        self.shared.running.load(Ordering::SeqCst)
    }

    /// Current counters (no session payload).
    pub fn stats(&self) -> ServerStats {
        self.shared.server_stats(None)
    }

    /// Blocks until a client `Shutdown` request arrives, then drains and
    /// returns the final stats.
    pub fn wait(mut self) -> ServerStats {
        while self.is_running() {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.drain()
    }

    /// Initiates shutdown locally, drains, and returns the final stats.
    pub fn shutdown(mut self) -> ServerStats {
        self.shared.begin_shutdown();
        self.drain()
    }

    /// Flips the daemon into draining mode without blocking: new work
    /// is refused (new connections get a typed `Rejected` immediately),
    /// queued jobs still complete. Call [`shutdown`](Self::shutdown) or
    /// drop the server to finish the drain and collect final stats.
    pub fn initiate_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    fn drain(&mut self) -> ServerStats {
        self.shared.begin_shutdown();
        // Stop the watchdog BEFORE joining workers, so a respawn cannot
        // race the joins below — shutdown during an in-flight respawn
        // (or while a quarantine cooldown is pending) must never
        // deadlock the drain.
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
        // Workers exit once the closed queue is empty — every queued job
        // still gets its response (drain, not abort). The reactor stays
        // alive through this phase so late-arriving connections get a
        // typed drain refusal instead of hanging, and so the answers
        // the workers produce still reach their sockets.
        for slot in self.slots.iter() {
            let handle = lock(&slot.handle).take();
            if let Some(handle) = handle {
                let _ = handle.join();
            }
            // A job a dying worker parked after the watchdog stopped
            // still gets a typed answer instead of a silent drop.
            if let Some(job) = lock(&slot.inflight).take() {
                let id = job.req.id;
                self.shared
                    .respond(job, Response::error(id, "server is shutting down"));
            }
        }
        // Now stop the reactor: it runs a final flush (delivering every
        // completion queued above) before exiting.
        self.shared.accept_stop.store(true, Ordering::SeqCst);
        self.completions.waker.wake();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        let stats = self.shared.server_stats(None);
        if let Some(dir) = &self.shared.cfg.checkpoint_dir {
            save_stage_logged(dir, STATS_STAGE, &stats, "gnnmls-serve");
        }
        self.final_stats = Some(stats.clone());
        stats
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.final_stats.is_none() {
            self.drain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_session() -> Arc<DesignSession> {
        // Building real sessions is covered by integration tests; the
        // LRU logic only needs distinct Arc identities.
        static SESSION: Mutex<Option<Arc<DesignSession>>> = Mutex::new(None);
        let mut slot = lock(&SESSION);
        if slot.is_none() {
            *slot = Some(Arc::new(
                DesignSession::build(&SessionSpec::fast("maeri16")).unwrap(),
            ));
        }
        Arc::clone(slot.as_ref().unwrap())
    }

    #[test]
    fn lru_cache_evicts_oldest_and_counts() {
        let s = dummy_session();
        let mut cache = SessionCache::new(2);
        assert_eq!(cache.insert(1, Arc::clone(&s)), 0);
        assert_eq!(cache.insert(2, Arc::clone(&s)), 0);
        // Touch 1 so 2 becomes the eviction victim.
        assert!(cache.get(1).is_some());
        assert_eq!(cache.insert(3, Arc::clone(&s)), 1);
        assert!(cache.peek(2).is_none(), "2 was least-recently used");
        assert!(cache.peek(1).is_some());
        assert!(cache.peek(3).is_some());
        assert_eq!(cache.len(), 2);
        // Reinserting an existing key never evicts.
        assert_eq!(cache.insert(1, Arc::clone(&s)), 0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_cache_still_holds_one() {
        let s = dummy_session();
        let mut cache = SessionCache::new(0);
        assert_eq!(cache.insert(1, Arc::clone(&s)), 0);
        assert!(cache.get(1).is_some());
        assert_eq!(cache.insert(2, s), 1);
        assert!(cache.peek(1).is_none());
    }

    #[test]
    fn cache_remove_forgets_key_and_recency() {
        let s = dummy_session();
        let mut cache = SessionCache::new(2);
        cache.insert(1, Arc::clone(&s));
        cache.insert(2, Arc::clone(&s));
        cache.remove(1);
        assert!(cache.peek(1).is_none());
        assert_eq!(cache.len(), 1);
        // The removed key no longer occupies an order slot: inserting
        // again evicts nothing.
        assert_eq!(cache.insert(3, Arc::clone(&s)), 0);
        assert_eq!(cache.insert(4, s), 1);
    }

    fn bare_shared(cfg: ServeConfig) -> Shared {
        Shared {
            queue: BoundedQueue::new(cfg.queue_capacity),
            cache: Mutex::new(SessionCache::new(cfg.cache_capacity)),
            build_lock: Mutex::new(()),
            counters: Counters::default(),
            running: AtomicBool::new(true),
            accept_stop: AtomicBool::new(false),
            meter: AdmissionMeter::new(cfg.admission_budget),
            quarantine: Mutex::new(HashMap::new()),
            models: Mutex::new(HashMap::new()),
            cfg,
        }
    }

    #[test]
    fn quarantine_opens_at_threshold_half_opens_after_cooldown() {
        let cfg = ServeConfig {
            quarantine_threshold: 2,
            quarantine_cooldown_ms: 30,
            ..Default::default()
        };
        let s = bare_shared(cfg);
        assert!(s.quarantine_remaining(7).is_none());
        s.record_build_failure(7);
        assert!(
            s.quarantine_remaining(7).is_none(),
            "one strike must not open the circuit"
        );
        s.record_build_failure(7);
        let (strikes, remaining) = s.quarantine_remaining(7).unwrap();
        assert_eq!(strikes, 2);
        assert!(remaining >= 1);
        let h = s.health();
        assert_eq!(h.quarantine.len(), 1);
        assert!(h.quarantine[0].open);
        assert_eq!(h.quarantine[0].key, 7);
        // Cooldown (30ms base + at most 8ms jitter) expires: half-open.
        std::thread::sleep(Duration::from_millis(60));
        assert!(
            s.quarantine_remaining(7).is_none(),
            "cooldown over: one probe may build"
        );
        // A failed probe re-opens the circuit; strikes keep counting.
        s.record_build_failure(7);
        let (strikes, _) = s.quarantine_remaining(7).unwrap();
        assert_eq!(strikes, 3);
        // Success closes it and forgets the history.
        s.record_build_success(7);
        assert!(s.quarantine_remaining(7).is_none());
        assert!(s.health().quarantine.is_empty());
    }

    #[test]
    fn quarantine_jitter_is_deterministic_per_seed() {
        let a = splitmix64(42 ^ 7 ^ 3);
        let b = splitmix64(42 ^ 7 ^ 3);
        assert_eq!(a, b);
        assert_ne!(splitmix64(42 ^ 7 ^ 3), splitmix64(43 ^ 7 ^ 3));
    }
}
