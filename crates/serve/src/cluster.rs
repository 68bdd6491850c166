//! The `gnnmls serve --cluster` front tier: sharded warm-session
//! serving with health-checked failover.
//!
//! One daemon tops out at one box, and a single process death loses
//! every warm [`DesignSession`](gnn_mls::session::DesignSession). The
//! cluster front fixes both: it speaks the existing v2 wire protocol
//! natively, routes every request by
//! [`SessionSpec::cache_key`](gnn_mls::session::SessionSpec::cache_key)
//! through a consistent-hash [`HashRing`], and forwards the request
//! payload unchanged to the owning backend shard — so each design
//! builds warm exactly once cluster-wide and a cluster answer is
//! bit-identical to the single-daemon answer for the same request.
//!
//! The I/O plane is one readiness-driven reactor thread running the
//! same client plane as the single daemon: the front supplies only its
//! dispatch (forward or broadcast), its `Health` report, and its
//! backend shard connections, which share the plane's poller. Each
//! forward is a nonblocking session with its own timer-wheel deadline,
//! and retries are timer events rather than sleeping threads. A shard
//! dying mid-forward surfaces as a typed failover reason on the loop —
//! never a thread blocked in `read(2)`. Because one backend connection
//! carries many concurrent forwards and a reactor shard answers out of
//! order, the front rewrites request ids to unique forward ids on the
//! wire and restores the client's id on relay.
//!
//! Robustness model, in order of engagement:
//!
//! - **Supervision.** Shards the front spawned are reaped and respawned
//!   when they die (`kill -9` included); every shard, spawned or
//!   external, is health-probed on an interval via the PR 4 `Health`
//!   request.
//! - **Circuit breakers.** Consecutive probe or forward failures open a
//!   per-shard breaker — the daemon's quarantine breaker — with a
//!   capped exponential + seeded-jitter cooldown; an open breaker
//!   routes the shard's keys to their deterministic secondary. On
//!   cooldown expiry the breaker half-opens: one request (or probe)
//!   goes through, a success closes it, a failure re-opens it for
//!   longer.
//! - **Failover.** A request whose target is dead, quarantined, or
//!   over-deadline retries against the ring's secondary shard for that
//!   key. The secondary cold-builds the session; that is accepted and
//!   counted (`failover_cold`) — availability beats warmth.
//! - **Bounded retry.** The front retries with the same capped
//!   seeded-jitter backoff the client uses, honoring a shard's
//!   `retry_after_ms` as the backoff floor when the next attempt would
//!   hit the same shard. A request that exhausts every attempt gets a
//!   typed error and is counted in `lost_after_retry` — the number the
//!   cluster bench requires to be zero.
//! - **Graceful drain.** Shutdown stops accepting (new connections get
//!   a typed `Rejected` immediately), lets in-flight forwards finish,
//!   collects each shard's final [`ServerStats`], shuts the shards
//!   down, and writes one versioned [`ClusterStats`] envelope as the
//!   `cluster-stats` checkpoint stage.
//!
//! Every failure path is deterministically testable through three
//! `gnnmls-faults` sites: `shard-crash` (the routed-to shard dies right
//! before the forward), `shard-stall` (the forward never completes
//! inside the deadline), and `conn-reset` (the front↔shard connection
//! tears after the request frame is written).

use std::collections::{HashMap, HashSet};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gnn_mls::checkpoint::save_stage_logged;
use gnn_mls::session::ValidationError;
use gnnmls_faults::{fire, FaultSite};
use gnnmls_reactor::net::{connect_nonblocking, connect_outcome};
use gnnmls_reactor::{Event, FrameDecoder, Interest, WriteQueue};
use serde::{Deserialize, Serialize};

use crate::breaker::Breaker;
use crate::client::RetryPolicy;
use crate::plane::{lock, Completions, Plane, PlaneConfig, Tier, READ_BUDGET, TAG_MASK};
use crate::protocol::{
    decode_payload, encode_msg, read_frame_idle, write_frame, FrameError, HealthStatus, Request,
    RequestKind, Response, ResponseKind, ServerStats, MAX_FRAME, PROTOCOL_VERSION,
};
use crate::ring::HashRing;
use crate::server::builder_setters;

/// Stage name of the merged drain checkpoint envelope.
pub const CLUSTER_STATS_STAGE: &str = "cluster-stats";

/// Schema version of [`ClusterStats`].
pub const CLUSTER_STATS_SCHEMA: u32 = 1;

/// Connect and write timeout of every blocking exchange with a shard,
/// and how long a health probe or a drain request waits for its answer.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);
/// How long a spawned shard may take to become healthy.
const SPAWN_READY_TIMEOUT: Duration = Duration::from_secs(60);
/// How long the drain waits for a shard process to exit before
/// killing it.
const SHARD_EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// Front-tier configuration. Defaults are production-ish; tests tighten
/// the timing knobs. Construct directly or go through
/// [`ClusterConfig::builder`] for validation.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Front bind address (`:0` picks a port).
    pub addr: String,
    /// Mid-frame stall timeout for client connections, ms (an idle
    /// connection between frames never times out).
    pub read_timeout_ms: u64,
    /// Health-probe interval per shard, ms.
    pub probe_interval_ms: u64,
    /// Consecutive failures that open a shard's breaker.
    pub breaker_threshold: u32,
    /// Base breaker cooldown, ms; doubles per re-open up to 16x, plus
    /// up to a quarter of seeded jitter inside that cap.
    pub breaker_cooldown_ms: u64,
    /// Per-attempt deadline for a forwarded request, ms. Generous by
    /// default: a cold paper-scale session build is slow and must not
    /// read as a stall.
    pub forward_timeout_ms: u64,
    /// Total forward attempts per request (first try included).
    pub retries: u32,
    /// Base front-retry backoff, ms.
    pub retry_base_ms: u64,
    /// Front-retry backoff ceiling, ms.
    pub retry_max_ms: u64,
    /// Seed for breaker-cooldown and retry jitter.
    pub seed: u64,
    /// Where the final [`ClusterStats`] envelope is written.
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            read_timeout_ms: 250,
            probe_interval_ms: 200,
            breaker_threshold: 3,
            breaker_cooldown_ms: 500,
            forward_timeout_ms: 120_000,
            retries: 4,
            retry_base_ms: 10,
            retry_max_ms: 500,
            seed: 0x0C10_57E4,
            checkpoint_dir: None,
        }
    }
}

impl ClusterConfig {
    /// A checked builder seeded with the defaults;
    /// [`ClusterConfigBuilder::build`] validates every knob.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            cfg: Self::default(),
        }
    }
}

/// Checked builder for [`ClusterConfig`] (see [`ClusterConfig::builder`]).
#[derive(Clone, Debug)]
pub struct ClusterConfigBuilder {
    cfg: ClusterConfig,
}

impl ClusterConfigBuilder {
    builder_setters! {
        /// Front bind address (`:0` picks a port).
        addr: String,
        /// Mid-frame stall timeout for client connections, ms.
        read_timeout_ms: u64,
        /// Health-probe interval per shard, ms.
        probe_interval_ms: u64,
        /// Consecutive failures that open a shard's breaker.
        breaker_threshold: u32,
        /// Base breaker cooldown, ms.
        breaker_cooldown_ms: u64,
        /// Per-attempt forward deadline, ms.
        forward_timeout_ms: u64,
        /// Total forward attempts per request.
        retries: u32,
        /// Base front-retry backoff, ms.
        retry_base_ms: u64,
        /// Front-retry backoff ceiling, ms.
        retry_max_ms: u64,
        /// Seed for breaker-cooldown and retry jitter.
        seed: u64,
        /// Where the final stats envelope is written on drain.
        checkpoint_dir: Option<PathBuf>,
    }

    /// Validates every knob and returns the config.
    ///
    /// # Errors
    ///
    /// Returns [`ValidationError::BadConfig`] naming the first field
    /// outside its domain.
    pub fn build(self) -> Result<ClusterConfig, ValidationError> {
        let c = self.cfg;
        let bad = |field: &'static str, got: String, want: &'static str| {
            Err(ValidationError::BadConfig { field, got, want })
        };
        if c.addr.is_empty() {
            return bad("addr", "\"\"".to_string(), "a bind address");
        }
        if c.read_timeout_ms == 0 {
            return bad("read_timeout_ms", "0".to_string(), ">= 1");
        }
        if c.probe_interval_ms == 0 {
            return bad("probe_interval_ms", "0".to_string(), ">= 1");
        }
        if c.breaker_threshold == 0 {
            return bad("breaker_threshold", "0".to_string(), ">= 1");
        }
        if c.breaker_cooldown_ms == 0 {
            return bad("breaker_cooldown_ms", "0".to_string(), ">= 1");
        }
        if c.forward_timeout_ms == 0 {
            return bad("forward_timeout_ms", "0".to_string(), ">= 1");
        }
        if c.retries == 0 {
            return bad("retries", "0".to_string(), ">= 1");
        }
        Ok(c)
    }
}

/// How to (re)spawn one managed shard process.
#[derive(Clone, Debug)]
pub struct ShardSpawnSpec {
    /// The `gnnmls` binary.
    pub exe: PathBuf,
    /// Arguments ahead of the `--addr` pair (e.g. `["serve",
    /// "--queue", "64"]`).
    pub args: Vec<String>,
}

/// One backend shard the front should route to.
#[derive(Clone, Debug)]
pub enum ShardBackendSpec {
    /// An already-running daemon the front probes and routes to but
    /// does not supervise (used by the in-process tests).
    External(SocketAddr),
    /// A daemon the front spawns on a free port, supervises, and
    /// respawns on death.
    Spawn(ShardSpawnSpec),
}

struct ShardState {
    id: u16,
    addr: SocketAddr,
    spawn: Option<ShardSpawnSpec>,
    child: Mutex<Option<Child>>,
    breaker: Mutex<Breaker>,
    crashes: AtomicU64,
    respawns: AtomicU64,
    breaker_opens: AtomicU64,
}

#[derive(Default)]
struct ClusterCounters {
    requests: AtomicU64,
    relayed_ok: AtomicU64,
    relayed_busy: AtomicU64,
    relayed_rejected: AtomicU64,
    relayed_quarantined: AtomicU64,
    relayed_errors: AtomicU64,
    failovers: AtomicU64,
    failover_cold: AtomicU64,
    lost_after_retry: AtomicU64,
    shard_crashes: AtomicU64,
    shard_respawns: AtomicU64,
    probe_failures: AtomicU64,
}

/// Final per-shard accounting inside [`ClusterStats`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Ring id of the shard.
    pub id: u32,
    /// Address the shard served on.
    pub addr: String,
    /// Times the shard's breaker opened.
    pub breaker_opens: u64,
    /// Child deaths observed (managed shards only).
    pub crashes: u64,
    /// Respawns performed (managed shards only).
    pub respawns: u64,
    /// The shard's own final stats, collected during the drain.
    /// `None` when the shard was unreachable at drain time.
    pub stats: Option<ServerStats>,
}

/// The merged, versioned drain envelope: front-tier accounting plus
/// every shard's final [`ServerStats`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ClusterStats {
    /// Envelope schema version ([`CLUSTER_STATS_SCHEMA`]).
    pub schema_version: u32,
    /// Client requests the front routed (Health/Metrics/Shutdown
    /// answered inline are not counted).
    pub requests: u64,
    /// Relayed responses by kind.
    pub relayed_ok: u64,
    /// Relayed `Busy` responses.
    pub relayed_busy: u64,
    /// Relayed `Rejected` responses.
    pub relayed_rejected: u64,
    /// Relayed `Quarantined` responses.
    pub relayed_quarantined: u64,
    /// Relayed request-level `Error` responses.
    pub relayed_errors: u64,
    /// Requests answered by a shard other than their ring primary.
    pub failovers: u64,
    /// Failovers that were answered `Ok` — the secondary accepted the
    /// work (cold build and all).
    pub failover_cold: u64,
    /// Requests that exhausted every forward attempt without any typed
    /// shard answer. The cluster bench requires this to be zero.
    pub lost_after_retry: u64,
    /// Managed-shard deaths observed.
    pub shard_crashes: u64,
    /// Managed-shard respawns performed.
    pub shard_respawns: u64,
    /// Health probes that failed.
    pub probe_failures: u64,
    /// Per-shard breakdown.
    pub shards: Vec<ShardStats>,
}

struct ClusterShared {
    cfg: ClusterConfig,
    ring: HashRing,
    shards: Vec<ShardState>,
    running: AtomicBool,
    accept_stop: AtomicBool,
    /// `LoadModel` broadcasts running on helper threads; the drain
    /// waits for them so a roll in flight still gets its answer.
    inflight_broadcasts: AtomicU64,
    counters: ClusterCounters,
}

/// Reasons a request is routed away from its primary, as the
/// `gnnmls_cluster_failovers_total{reason=...}` label.
const REASON_BREAKER: &str = "breaker";
const REASON_QUARANTINED: &str = "quarantined";
const REASON_STALL: &str = "stall";
const REASON_CONN: &str = "conn";

impl ClusterShared {
    fn begin_shutdown(&self) {
        self.running.store(false, Ordering::SeqCst);
    }

    fn shard(&self, id: u16) -> &ShardState {
        &self.shards[usize::from(id)]
    }

    /// Whether the shard's breaker currently refuses traffic. Past its
    /// cooldown the breaker is half-open and lets the caller through as
    /// the probe.
    fn breaker_open(&self, id: u16) -> bool {
        self.breaker_remaining_ms(id) > 0
    }

    /// Remaining cooldown for an open breaker, ms (0 when closed).
    fn breaker_remaining_ms(&self, id: u16) -> u64 {
        lock(&self.shard(id).breaker).remaining_ms().unwrap_or(0)
    }

    /// Strikes the shard's breaker with `strike` —
    /// [`Breaker::record_failure`], or [`Breaker::trip`] for a shard
    /// known to be dead — and counts and reports an opening.
    fn strike_breaker(&self, id: u16, strike: fn(&mut Breaker, u32, u64, u64) -> Option<u64>) {
        let shard = self.shard(id);
        let opened = strike(
            &mut lock(&shard.breaker),
            self.cfg.breaker_threshold,
            self.cfg.breaker_cooldown_ms,
            self.cfg.seed ^ u64::from(id),
        );
        if let Some(cooldown_ms) = opened {
            shard.breaker_opens.fetch_add(1, Ordering::SeqCst);
            gnnmls_obs::event(
                "cluster_breaker_open",
                &[
                    ("shard", gnnmls_obs::FieldValue::U64(u64::from(id))),
                    ("cooldown_ms", gnnmls_obs::FieldValue::U64(cooldown_ms)),
                ],
            );
        }
    }

    fn record_shard_failure(&self, id: u16) {
        self.strike_breaker(id, Breaker::record_failure);
    }

    fn record_shard_success(&self, id: u16) {
        lock(&self.shard(id).breaker).record_success();
    }

    /// The `shard-crash` seam and the supervisor's reaction to a real
    /// child death: kill a managed child (external shards are only
    /// marked), trip the breaker so routing fails over at once, and
    /// count the crash.
    fn crash_shard(&self, id: u16) {
        let shard = self.shard(id);
        if let Some(child) = lock(&shard.child).as_mut() {
            let _ = child.kill();
        }
        self.strike_breaker(id, Breaker::trip);
        shard.crashes.fetch_add(1, Ordering::SeqCst);
        self.counters.shard_crashes.fetch_add(1, Ordering::SeqCst);
    }

    /// Front-level health: open shard breakers as the same
    /// `QuarantineInfo` entries the single daemon reports, so existing
    /// tooling reads cluster health unchanged.
    fn health(&self) -> HealthStatus {
        let mut quarantine = Vec::new();
        let mut healthy = 0u64;
        for shard in &self.shards {
            let info = lock(&shard.breaker).info(u64::from(shard.id));
            if info.open {
                quarantine.push(info);
            } else {
                healthy += 1;
            }
        }
        HealthStatus {
            ready: self.running.load(Ordering::SeqCst),
            queue_depth: 0,
            queue_capacity: 0,
            workers: healthy,
            watchdog_restarts: self.counters.shard_respawns.load(Ordering::SeqCst),
            admitted_cost: 0,
            admission_budget: 0,
            quarantine,
        }
    }

    fn stats_snapshot(&self, shards: Vec<ShardStats>) -> ClusterStats {
        let c = &self.counters;
        ClusterStats {
            schema_version: CLUSTER_STATS_SCHEMA,
            requests: c.requests.load(Ordering::SeqCst),
            relayed_ok: c.relayed_ok.load(Ordering::SeqCst),
            relayed_busy: c.relayed_busy.load(Ordering::SeqCst),
            relayed_rejected: c.relayed_rejected.load(Ordering::SeqCst),
            relayed_quarantined: c.relayed_quarantined.load(Ordering::SeqCst),
            relayed_errors: c.relayed_errors.load(Ordering::SeqCst),
            failovers: c.failovers.load(Ordering::SeqCst),
            failover_cold: c.failover_cold.load(Ordering::SeqCst),
            lost_after_retry: c.lost_after_retry.load(Ordering::SeqCst),
            shard_crashes: c.shard_crashes.load(Ordering::SeqCst),
            shard_respawns: c.shard_respawns.load(Ordering::SeqCst),
            probe_failures: c.probe_failures.load(Ordering::SeqCst),
            shards,
        }
    }
}

/// One blocking request/response exchange with a shard on a fresh
/// connection: connect and write within [`PROBE_TIMEOUT`], then wait up
/// to `answer_within` for the answer. The socket carries a short
/// read-timeout slice; "still nothing at the deadline" is a typed stall
/// instead of a reader blocked forever. Probes, `LoadModel` broadcasts
/// and the drain use this; the hot forward path lives on the reactor.
fn exchange(
    addr: SocketAddr,
    req: &Request,
    answer_within: Duration,
) -> Result<Response, FrameError> {
    let mut stream = TcpStream::connect_timeout(&addr, PROBE_TIMEOUT)?;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_write_timeout(Some(PROBE_TIMEOUT));
    write_frame(&mut stream, req)?;
    let deadline = Instant::now() + answer_within;
    match read_frame_idle(&mut stream, || Instant::now() < deadline)? {
        Some(resp) => Ok(resp),
        None => Err(FrameError::Stalled),
    }
}

/// One health probe against a shard. `Ok` only when the daemon answers
/// a `Health` request with `ready`.
fn probe_health(addr: SocketAddr) -> bool {
    match exchange(addr, &Request::health(0), PROBE_TIMEOUT) {
        Ok(resp) => resp.kind == ResponseKind::Ok && resp.health.map(|h| h.ready).unwrap_or(false),
        Err(_) => false,
    }
}

fn spawn_shard(spawn: &ShardSpawnSpec, addr: SocketAddr) -> std::io::Result<Child> {
    Command::new(&spawn.exe)
        .args(&spawn.args)
        .arg("--addr")
        .arg(addr.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
}

/// The supervisor: reaps and respawns dead managed children, probes
/// every shard's health, and feeds the per-shard breakers.
fn prober_loop(shared: &Arc<ClusterShared>) {
    while shared.running.load(Ordering::SeqCst) {
        for shard in &shared.shards {
            if !shared.running.load(Ordering::SeqCst) {
                return;
            }
            // Reap + respawn a dead managed child.
            if let Some(spawn) = &shard.spawn {
                let mut child = lock(&shard.child);
                let dead = match child.as_mut() {
                    Some(c) => matches!(c.try_wait(), Ok(Some(_))),
                    None => true,
                };
                if dead {
                    if child.take().is_some() {
                        // Died since we last looked (the crash_shard
                        // seam counts its own kills).
                        shard.crashes.fetch_add(1, Ordering::SeqCst);
                        shared.counters.shard_crashes.fetch_add(1, Ordering::SeqCst);
                    }
                    match spawn_shard(spawn, shard.addr) {
                        Ok(c) => {
                            *child = Some(c);
                            shard.respawns.fetch_add(1, Ordering::SeqCst);
                            shared
                                .counters
                                .shard_respawns
                                .fetch_add(1, Ordering::SeqCst);
                            gnnmls_obs::event(
                                "cluster_shard_respawn",
                                &[("shard", gnnmls_obs::FieldValue::U64(u64::from(shard.id)))],
                            );
                        }
                        Err(e) => gnnmls_obs::warn(
                            "gnnmls-cluster",
                            &format!("could not respawn shard {}: {e}", shard.id),
                        ),
                    }
                }
            }
            // Health probe; outcome feeds the breaker either way.
            let t0 = Instant::now();
            let ok = probe_health(shard.addr);
            let shard_label = shard.id.to_string();
            gnnmls_obs::observe(
                "gnnmls_cluster_probe_ms",
                &[("shard", &shard_label)],
                &[1, 5, 25, 100, 500, 2_000],
                t0.elapsed().as_millis() as u64,
            );
            if ok {
                shared.record_shard_success(shard.id);
            } else {
                shared
                    .counters
                    .probe_failures
                    .fetch_add(1, Ordering::SeqCst);
                shared.record_shard_failure(shard.id);
            }
        }
        // Sleep in slices so a drain is never stuck behind a full
        // probe interval.
        let deadline = Instant::now() + Duration::from_millis(shared.cfg.probe_interval_ms.max(1));
        while shared.running.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

fn count_failover_reason(reason: &str) {
    gnnmls_obs::counter_add("gnnmls_cluster_failovers_total", &[("reason", reason)], 1);
}

/// Final accounting for a relayed response: per-kind counters, the
/// per-shard outcome series, and the failover bookkeeping (a request
/// answered off its primary failed over; an `Ok` off-primary answer is
/// an accepted cold build).
fn relay(shared: &ClusterShared, resp: Response, answered_by: u16, primary: u16) -> Response {
    let c = &shared.counters;
    let outcome = match resp.kind {
        ResponseKind::Ok => {
            c.relayed_ok.fetch_add(1, Ordering::SeqCst);
            "ok"
        }
        ResponseKind::Busy => {
            c.relayed_busy.fetch_add(1, Ordering::SeqCst);
            "busy"
        }
        ResponseKind::Rejected => {
            c.relayed_rejected.fetch_add(1, Ordering::SeqCst);
            "rejected"
        }
        ResponseKind::Quarantined => {
            c.relayed_quarantined.fetch_add(1, Ordering::SeqCst);
            "quarantined"
        }
        ResponseKind::Error => {
            c.relayed_errors.fetch_add(1, Ordering::SeqCst);
            "error"
        }
    };
    if answered_by != primary {
        c.failovers.fetch_add(1, Ordering::SeqCst);
        if resp.kind == ResponseKind::Ok {
            c.failover_cold.fetch_add(1, Ordering::SeqCst);
        }
    }
    let shard_label = answered_by.to_string();
    gnnmls_obs::counter_add(
        "gnnmls_cluster_requests_total",
        &[("shard", &shard_label), ("outcome", outcome)],
        1,
    );
    resp
}

/// Broadcasts a `LoadModel` to every shard and merges the answers: the
/// roll is `Ok` only when every shard that answered swapped
/// successfully (the first refusal is relayed verbatim, annotated with
/// the shard id). Shards that are unreachable — dead, mid-respawn —
/// are skipped and counted; a respawned shard comes back on its
/// built-in models until the next broadcast, which is exactly what its
/// empty state serves anyway.
fn broadcast_load_model(shared: &ClusterShared, req: &Request) -> Response {
    let answer_within = Duration::from_millis(shared.cfg.forward_timeout_ms.max(1));
    let mut swapped: Option<Response> = None;
    let mut unreachable = 0u64;
    for shard in &shared.shards {
        match exchange(shard.addr, req, answer_within) {
            Ok(resp) if resp.id == req.id => {
                shared.record_shard_success(shard.id);
                if resp.kind == ResponseKind::Ok {
                    if swapped.is_none() {
                        swapped = Some(resp);
                    }
                } else {
                    gnnmls_obs::counter_add(
                        "gnnmls_cluster_model_swaps_total",
                        &[("outcome", "refused")],
                        1,
                    );
                    let why = resp.error.clone().unwrap_or_else(|| "unknown".into());
                    return Response {
                        error: Some(format!("shard {} refused the model swap: {why}", shard.id)),
                        ..resp
                    };
                }
            }
            Ok(_) | Err(_) => {
                shared.record_shard_failure(shard.id);
                unreachable += 1;
            }
        }
    }
    match swapped {
        Some(resp) => {
            gnnmls_obs::counter_add("gnnmls_cluster_model_swaps_total", &[("outcome", "ok")], 1);
            if unreachable > 0 {
                gnnmls_obs::warn(
                    "gnnmls-cluster",
                    &format!("model swap skipped {unreachable} unreachable shard(s)"),
                );
            }
            resp
        }
        None => {
            gnnmls_obs::counter_add(
                "gnnmls_cluster_model_swaps_total",
                &[("outcome", "unreachable")],
                1,
            );
            Response::error(req.id, "model swap reached no shard")
        }
    }
}

/// A forward's backoff expired: run the next attempt. (Tags 1 and 2
/// belong to the client plane.)
const TAG_RETRY: u64 = 3 << 56;
/// A forward attempt's per-attempt deadline expired.
const TAG_DEADLINE: u64 = 4 << 56;

/// How long the drain waits for in-flight forwards and broadcasts
/// before abandoning them.
const DRAIN_FORWARD_GRACE_MS: u64 = 30_000;

/// One nonblocking backend connection, multiplexing every concurrent
/// forward to its shard. The reactor shard answers out of order, so
/// responses are matched back to forwards by the rewritten wire id in
/// `pending`.
struct BackendConn {
    stream: TcpStream,
    shard: u16,
    decoder: FrameDecoder,
    writes: WriteQueue,
    interest: Interest,
    /// Still mid nonblocking `connect(2)`: the first writability event
    /// resolves the handshake outcome.
    connecting: bool,
    /// Forward ids written to this connection and not yet answered. A
    /// torn connection fails them all over; an id no longer here is a
    /// late answer and is dropped.
    pending: HashSet<u64>,
}

/// One routed client request in flight: which client asked, where it
/// is being tried, and the retry budget — the reactor rendering of the
/// old per-thread `route_and_forward` loop state.
struct Forward {
    orig_id: u64,
    client: u64,
    req: Request,
    primary: u16,
    secondary: Option<u16>,
    /// Attempts finished (failed or retried) so far.
    attempt: u32,
    attempts: u32,
    /// Where the next attempt should go.
    prefer: u16,
    /// Where the current attempt went.
    target: u16,
    /// A shard's `retry_after_ms`, honored as the next backoff floor.
    floor_ms: Option<u64>,
    /// Last failure, quoted in the give-up error.
    last: String,
    policy: RetryPolicy,
}

/// The front's side of the client plane: every backend socket, every
/// forward with its deadline and retry timers, and `LoadModel`
/// broadcasts.
struct FrontTier {
    shared: Arc<ClusterShared>,
    backends: HashMap<u64, BackendConn>,
    /// Live backend connection per shard id.
    by_shard: HashMap<u16, u64>,
    forwards: HashMap<u64, Forward>,
    /// Wire ids for forwards; 0 is reserved for connection notices.
    next_fwd: u64,
    /// When the drain stops waiting for in-flight forwards and
    /// broadcasts; set once the drain starts.
    drain_deadline: Option<Instant>,
}

impl Tier for FrontTier {
    fn running(&self) -> bool {
        self.shared.running.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Lets in-flight forwards and broadcasts finish (the drain
    /// contract), but never waits forever on a wedged shard.
    fn finished(&mut self) -> bool {
        if !self.shared.accept_stop.load(Ordering::SeqCst) {
            return false;
        }
        let dl = *self
            .drain_deadline
            .get_or_insert_with(|| Instant::now() + Duration::from_millis(DRAIN_FORWARD_GRACE_MS));
        let idle =
            self.forwards.is_empty() && self.shared.inflight_broadcasts.load(Ordering::SeqCst) == 0;
        idle || Instant::now() >= dl
    }

    fn health(&self) -> HealthStatus {
        self.shared.health()
    }

    /// A `LoadModel` broadcast runs on a helper thread (it must land on
    /// every shard, and a slow shard must not stall routing);
    /// everything else starts a nonblocking forward.
    fn dispatch(&mut self, plane: &mut Plane, token: u64, req: Request) {
        match req.kind {
            RequestKind::LoadModel => {
                plane.hold(token);
                self.shared
                    .inflight_broadcasts
                    .fetch_add(1, Ordering::SeqCst);
                let shared = Arc::clone(&self.shared);
                let completions = Arc::clone(plane.completions());
                std::thread::spawn(move || {
                    let resp = broadcast_load_model(&shared, &req);
                    lock(&completions.ready).push((token, resp));
                    shared.inflight_broadcasts.fetch_sub(1, Ordering::SeqCst);
                    completions.waker.wake();
                });
            }
            _ => self.start_forward(plane, token, req),
        }
    }

    fn on_event(&mut self, plane: &mut Plane, ev: Event) -> bool {
        if !self.backends.contains_key(&ev.token) {
            return false;
        }
        self.on_backend_event(plane, ev);
        true
    }

    fn on_timer(&mut self, plane: &mut Plane, key: u64) {
        let id = key & !TAG_MASK;
        match key & TAG_MASK {
            TAG_RETRY => self.attempt_forward(plane, id),
            TAG_DEADLINE => {
                // Over-deadline: forget the pending id on its backend
                // (a late answer is dropped by id — the connection
                // itself stays up and synchronized) and fail over.
                let target = self.forwards.get(&id).map(|f| f.target);
                if let Some(target) = target {
                    if let Some(&btoken) = self.by_shard.get(&target) {
                        if let Some(b) = self.backends.get_mut(&btoken) {
                            b.pending.remove(&id);
                        }
                    }
                    self.fail_attempt(plane, id, REASON_STALL, FrameError::Stalled.to_string());
                }
            }
            _ => {}
        }
    }
}

impl FrontTier {
    /// Routes one request: primary first, deterministic secondary on
    /// failure, bounded seeded-jitter retries as timer events.
    fn start_forward(&mut self, plane: &mut Plane, token: u64, req: Request) {
        self.shared.counters.requests.fetch_add(1, Ordering::SeqCst);
        let key = req.spec.cache_key();
        let Some(primary) = self.shared.ring.primary(key) else {
            plane.send(token, &Response::error(req.id, "cluster has no shards"));
            return;
        };
        let secondary = self.shared.ring.secondary(key);
        let policy = RetryPolicy {
            max_attempts: self.shared.cfg.retries.max(1),
            base_delay_ms: self.shared.cfg.retry_base_ms,
            max_delay_ms: self.shared.cfg.retry_max_ms,
            seed: self.shared.cfg.seed ^ key,
        };
        let attempts = policy.max_attempts;
        let fwd_id = self.next_fwd;
        self.next_fwd += 1;
        plane.hold(token);
        self.forwards.insert(
            fwd_id,
            Forward {
                orig_id: req.id,
                client: token,
                req,
                primary,
                secondary,
                attempt: 0,
                attempts,
                prefer: primary,
                target: primary,
                floor_ms: None,
                last: "no attempt made".into(),
                policy,
            },
        );
        self.attempt_forward(plane, fwd_id);
    }

    /// Runs one forward attempt: breaker pre-check picks the target,
    /// the frame (with its id rewritten to the forward id) goes onto
    /// the shard's nonblocking connection, and the per-attempt deadline
    /// is armed.
    fn attempt_forward(&mut self, plane: &mut Plane, fwd_id: u64) {
        let Some((prefer, primary, secondary)) = self
            .forwards
            .get(&fwd_id)
            .map(|f| (f.prefer, f.primary, f.secondary))
        else {
            return;
        };
        let mut target = prefer;
        // Breaker pre-check: an open target routes to the other shard
        // when that one is closed; both open falls through to the
        // preferred target as the half-open probe.
        if self.shared.breaker_open(target) {
            let alt = if target == primary {
                secondary
            } else {
                Some(primary)
            };
            if let Some(alt) = alt {
                if !self.shared.breaker_open(alt) {
                    if target == primary {
                        count_failover_reason(REASON_BREAKER);
                    }
                    target = alt;
                }
            }
        }
        // Deterministic seam: the shard we are about to use crashes
        // now. The forward below fails and the failover path takes
        // over.
        if fire(FaultSite::ShardCrash) {
            self.shared.crash_shard(target);
        }
        if let Some(f) = self.forwards.get_mut(&fwd_id) {
            f.target = target;
        }
        let Some(btoken) = self.ensure_backend(plane, target) else {
            self.fail_attempt(
                plane,
                fwd_id,
                REASON_CONN,
                format!("shard {target} unreachable"),
            );
            return;
        };
        let frame = {
            let Some(f) = self.forwards.get(&fwd_id) else {
                return;
            };
            let wire_req = Request {
                id: fwd_id,
                ..f.req.clone()
            };
            match encode_msg(&wire_req) {
                Ok(frame) => frame,
                Err(e) => {
                    let why = e.to_string();
                    self.fail_attempt(plane, fwd_id, REASON_CONN, why);
                    return;
                }
            }
        };
        if let Some(b) = self.backends.get_mut(&btoken) {
            b.writes.push(frame);
            b.pending.insert(fwd_id);
        }
        self.flush_backend(plane, btoken);
        // The flush may have torn the connection down and already
        // failed this attempt over.
        let still_pending = self
            .backends
            .get(&btoken)
            .is_some_and(|b| b.pending.contains(&fwd_id));
        if !still_pending {
            return;
        }
        // Deterministic seam: the connection tears right after the
        // request frame went out — the shard may or may not have
        // processed it, the front never sees the answer.
        if fire(FaultSite::ConnReset) {
            if let Some(b) = self.backends.get(&btoken) {
                let _ = b.stream.shutdown(std::net::Shutdown::Both);
            }
            self.backend_failed(
                plane,
                btoken,
                "injected front\u{2194}shard connection reset",
            );
            return;
        }
        // Deterministic seam: the shard holds the answer past the
        // forward deadline.
        if fire(FaultSite::ShardStall) {
            if let Some(b) = self.backends.get_mut(&btoken) {
                b.pending.remove(&fwd_id);
            }
            self.fail_attempt(plane, fwd_id, REASON_STALL, FrameError::Stalled.to_string());
            return;
        }
        plane.timers.schedule_after(
            TAG_DEADLINE | fwd_id,
            Duration::from_millis(self.shared.cfg.forward_timeout_ms.max(1)),
        );
    }

    /// One attempt failed without a typed shard answer: feed the
    /// breaker, flip the preference to the other shard (counting the
    /// failover reason when leaving the primary), and schedule the next
    /// attempt.
    fn fail_attempt(&mut self, plane: &mut Plane, fwd_id: u64, reason: &'static str, last: String) {
        plane.timers.cancel(TAG_DEADLINE | fwd_id);
        let Some((target, primary, secondary)) = self.forwards.get_mut(&fwd_id).map(|f| {
            f.last = last;
            (f.target, f.primary, f.secondary)
        }) else {
            return;
        };
        self.shared.record_shard_failure(target);
        let alt = if target == primary {
            secondary
        } else {
            Some(primary)
        };
        if let Some(alt) = alt {
            if target == primary {
                count_failover_reason(reason);
            }
            if let Some(f) = self.forwards.get_mut(&fwd_id) {
                f.prefer = alt;
            }
        }
        self.next_attempt(plane, fwd_id);
    }

    /// Books the finished attempt and either schedules the retry timer
    /// (honoring a `retry_after_ms` floor) or gives up.
    fn next_attempt(&mut self, plane: &mut Plane, fwd_id: u64) {
        let delay = {
            let Some(f) = self.forwards.get_mut(&fwd_id) else {
                return;
            };
            f.attempt += 1;
            if f.attempt >= f.attempts {
                None
            } else {
                Some(f.policy.delay_with_floor(f.attempt - 1, f.floor_ms.take()))
            }
        };
        match delay {
            None => self.give_up(plane, fwd_id),
            Some(ms) => {
                plane
                    .timers
                    .schedule_after(TAG_RETRY | fwd_id, Duration::from_millis(ms));
            }
        }
    }

    fn give_up(&mut self, plane: &mut Plane, fwd_id: u64) {
        let Some(f) = self.forwards.remove(&fwd_id) else {
            return;
        };
        self.shared
            .counters
            .lost_after_retry
            .fetch_add(1, Ordering::SeqCst);
        gnnmls_obs::counter_add(
            "gnnmls_cluster_requests_total",
            &[("shard", "none"), ("outcome", "lost")],
            1,
        );
        let resp = Response::error(
            f.orig_id,
            format!(
                "cluster: request not served after {} attempts; last: {}",
                f.attempts, f.last
            ),
        );
        plane.deliver(f.client, &resp);
    }

    /// A typed shard answer ends the forward: restore the client's id,
    /// run the relay accounting, deliver.
    fn complete_forward(&mut self, plane: &mut Plane, fwd_id: u64, resp: Response) {
        let Some(f) = self.forwards.remove(&fwd_id) else {
            return;
        };
        let resp = Response {
            id: f.orig_id,
            ..resp
        };
        let resp = relay(&self.shared, resp, f.target, f.primary);
        plane.deliver(f.client, &resp);
    }

    /// One decoded response frame from a backend. Id 0 is a
    /// connection-level notice (the shard is draining or flagged the
    /// stream) and fails every pending forward on this connection over;
    /// any other id is matched to its forward — or dropped as a late
    /// answer for an attempt that already failed over.
    fn on_backend_response(&mut self, plane: &mut Plane, btoken: u64, resp: Response) {
        if resp.id == 0 {
            let why = resp.error.unwrap_or_else(|| "connection notice".into());
            self.backend_failed(plane, btoken, &why);
            return;
        }
        let fwd_id = resp.id;
        let known = self
            .backends
            .get_mut(&btoken)
            .is_some_and(|b| b.pending.remove(&fwd_id));
        if !known || !self.forwards.contains_key(&fwd_id) {
            return;
        }
        plane.timers.cancel(TAG_DEADLINE | fwd_id);
        let Some((target, primary, secondary, attempt, attempts)) = self
            .forwards
            .get(&fwd_id)
            .map(|f| (f.target, f.primary, f.secondary, f.attempt, f.attempts))
        else {
            return;
        };
        // Any well-formed answer proves the shard alive.
        self.shared.record_shard_success(target);
        match resp.kind {
            ResponseKind::Busy => {
                // Alive but loaded: back off, same target.
                if let Some(f) = self.forwards.get_mut(&fwd_id) {
                    f.last = "busy".into();
                    f.prefer = target;
                }
                self.next_attempt(plane, fwd_id);
            }
            ResponseKind::Quarantined if attempt + 1 < attempts => {
                // The spec's circuit is open on this shard. The
                // secondary has its own (cold) session state, so fail
                // over when we can; otherwise wait out the shard's own
                // retry_after_ms.
                let alt = if target == primary {
                    secondary
                } else {
                    Some(primary)
                };
                if let Some(f) = self.forwards.get_mut(&fwd_id) {
                    f.last = "quarantined".into();
                }
                match alt {
                    Some(alt) if target == primary => {
                        count_failover_reason(REASON_QUARANTINED);
                        if let Some(f) = self.forwards.get_mut(&fwd_id) {
                            f.prefer = alt;
                        }
                    }
                    _ => {
                        if let Some(f) = self.forwards.get_mut(&fwd_id) {
                            f.floor_ms = resp.retry_after_ms;
                            f.prefer = target;
                        }
                    }
                }
                self.next_attempt(plane, fwd_id);
            }
            _ => self.complete_forward(plane, fwd_id, resp),
        }
    }

    /// Tears down a backend connection and fails every pending forward
    /// over with a typed reason — the reactor guarantee that a shard
    /// dying mid-forward never strands a request (or a thread).
    fn backend_failed(&mut self, plane: &mut Plane, btoken: u64, why: &str) {
        let Some(conn) = self.backends.remove(&btoken) else {
            return;
        };
        let _ = plane.poller.deregister(conn.stream.as_raw_fd());
        if self.by_shard.get(&conn.shard) == Some(&btoken) {
            self.by_shard.remove(&conn.shard);
        }
        for fwd_id in conn.pending {
            self.fail_attempt(plane, fwd_id, REASON_CONN, why.to_string());
        }
    }

    /// The live connection to a shard, opening one (nonblocking) when
    /// none exists. `None` when the connect cannot even start.
    fn ensure_backend(&mut self, plane: &mut Plane, shard: u16) -> Option<u64> {
        if let Some(&btoken) = self.by_shard.get(&shard) {
            if self.backends.contains_key(&btoken) {
                return Some(btoken);
            }
            self.by_shard.remove(&shard);
        }
        let addr = self.shared.shard(shard).addr;
        let stream = connect_nonblocking(addr).ok()?;
        let _ = stream.set_nodelay(true);
        let btoken = plane.next_token();
        if plane
            .poller
            .register(stream.as_raw_fd(), btoken, Interest::BOTH)
            .is_err()
        {
            return None;
        }
        self.backends.insert(
            btoken,
            BackendConn {
                stream,
                shard,
                decoder: FrameDecoder::new(PROTOCOL_VERSION, MAX_FRAME),
                writes: WriteQueue::new(),
                interest: Interest::BOTH,
                connecting: true,
                pending: HashSet::new(),
            },
        );
        self.by_shard.insert(shard, btoken);
        Some(btoken)
    }

    fn on_backend_event(&mut self, plane: &mut Plane, ev: Event) {
        let Event {
            token: btoken,
            readable,
            writable,
            hangup,
        } = ev;
        let connecting = self.backends.get(&btoken).is_some_and(|b| b.connecting);
        if connecting && (writable || hangup) {
            let outcome = self
                .backends
                .get(&btoken)
                .map(|b| connect_outcome(&b.stream));
            match outcome {
                Some(Ok(())) => {
                    if let Some(b) = self.backends.get_mut(&btoken) {
                        b.connecting = false;
                    }
                }
                Some(Err(e)) => {
                    self.backend_failed(plane, btoken, &format!("shard connect failed: {e}"));
                    return;
                }
                None => return,
            }
        }
        if writable {
            self.flush_backend(plane, btoken);
        }
        if readable {
            self.backend_readable(plane, btoken);
        }
        if hangup && !readable {
            self.backend_failed(plane, btoken, "connection reset");
        }
    }

    fn flush_backend(&mut self, plane: &mut Plane, btoken: u64) {
        let flushed = {
            let Some(b) = self.backends.get_mut(&btoken) else {
                return;
            };
            if b.connecting {
                // Mid-handshake: the frame stays queued until the
                // connect resolves.
                Ok(false)
            } else {
                b.writes.flush_to(&mut b.stream)
            }
        };
        match flushed {
            Ok(_) => self.update_backend_interest(plane, btoken),
            Err(e) => self.backend_failed(plane, btoken, &format!("frame io: {e}")),
        }
    }

    fn update_backend_interest(&mut self, plane: &mut Plane, btoken: u64) {
        let modify = {
            let Some(b) = self.backends.get_mut(&btoken) else {
                return;
            };
            let want = Interest {
                readable: true,
                writable: b.connecting || !b.writes.is_empty(),
            };
            if want.readable != b.interest.readable || want.writable != b.interest.writable {
                b.interest = want;
                Some((b.stream.as_raw_fd(), want))
            } else {
                None
            }
        };
        if let Some((fd, want)) = modify {
            if plane.poller.modify(fd, btoken, want).is_err() {
                self.backend_failed(plane, btoken, "poller modify failed");
            }
        }
    }

    fn backend_readable(&mut self, plane: &mut Plane, btoken: u64) {
        let filled: Result<bool, String> = {
            let Some(b) = self.backends.get_mut(&btoken) else {
                return;
            };
            match b.decoder.fill_from(&mut b.stream, READ_BUDGET) {
                Ok((_, eof)) => Ok(eof),
                Err(e) => Err(format!("frame io: {e}")),
            }
        };
        let eof = match filled {
            Ok(eof) => eof,
            Err(why) => {
                self.backend_failed(plane, btoken, &why);
                return;
            }
        };
        loop {
            let frame = {
                let Some(b) = self.backends.get_mut(&btoken) else {
                    return;
                };
                b.decoder.next_frame()
            };
            match frame {
                Ok(Some(payload)) => match decode_payload::<Response>(&payload) {
                    Ok(resp) => self.on_backend_response(plane, btoken, resp),
                    Err(e) => {
                        self.backend_failed(plane, btoken, &e.to_string());
                        return;
                    }
                },
                Ok(None) => break,
                Err(e) => {
                    self.backend_failed(plane, btoken, &FrameError::from(e).to_string());
                    return;
                }
            }
        }
        if eof {
            self.backend_failed(plane, btoken, &FrameError::Closed.to_string());
        }
    }
}

/// Picks a free TCP port on the loopback interface.
fn free_loopback_addr() -> std::io::Result<SocketAddr> {
    let probe = TcpListener::bind("127.0.0.1:0")?;
    probe.local_addr()
}

/// A running cluster front; dropping it drains gracefully.
pub struct ClusterFront {
    shared: Arc<ClusterShared>,
    local_addr: SocketAddr,
    reactor: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
    completions: Arc<Completions>,
    final_stats: Option<ClusterStats>,
}

impl ClusterFront {
    /// Spawns/attaches the backends, waits for every spawned shard to
    /// become healthy, binds the front, and starts routing.
    ///
    /// # Errors
    ///
    /// Bind/spawn failures, a spawned shard that never became healthy
    /// inside a minute, or the reactor's poller/waker plumbing failing
    /// to come up.
    pub fn start(cfg: ClusterConfig, backends: Vec<ShardBackendSpec>) -> std::io::Result<Self> {
        if backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a cluster needs at least one shard",
            ));
        }
        // Spawn all children first so their cold starts overlap, then
        // wait for readiness.
        let mut shards = Vec::with_capacity(backends.len());
        let mut spawned = Vec::new();
        for (i, backend) in backends.into_iter().enumerate() {
            let id = i as u16;
            match backend {
                ShardBackendSpec::External(addr) => shards.push(ShardState {
                    id,
                    addr,
                    spawn: None,
                    child: Mutex::new(None),
                    breaker: Mutex::new(Breaker::default()),
                    crashes: AtomicU64::new(0),
                    respawns: AtomicU64::new(0),
                    breaker_opens: AtomicU64::new(0),
                }),
                ShardBackendSpec::Spawn(spawn) => {
                    let addr = free_loopback_addr()?;
                    let child = spawn_shard(&spawn, addr)?;
                    spawned.push(id);
                    shards.push(ShardState {
                        id,
                        addr,
                        spawn: Some(spawn),
                        child: Mutex::new(Some(child)),
                        breaker: Mutex::new(Breaker::default()),
                        crashes: AtomicU64::new(0),
                        respawns: AtomicU64::new(0),
                        breaker_opens: AtomicU64::new(0),
                    });
                }
            }
        }
        let ready_deadline = Instant::now() + SPAWN_READY_TIMEOUT;
        for &id in &spawned {
            let shard = &shards[usize::from(id)];
            loop {
                if probe_health(shard.addr) {
                    break;
                }
                if Instant::now() >= ready_deadline {
                    // Best-effort teardown of what we already spawned.
                    for s in &shards {
                        if let Some(c) = lock(&s.child).as_mut() {
                            let _ = c.kill();
                        }
                    }
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        format!("shard {id} at {} never became healthy", shard.addr),
                    ));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }

        let plane = Plane::bind(
            &cfg.addr,
            PlaneConfig {
                read_timeout_ms: cfg.read_timeout_ms,
                conn_limited_metric: "gnnmls_cluster_conn_limited_total",
                drain_refused_metric: "gnnmls_cluster_drain_refused_total",
                refusal: "cluster front is draining; connection refused",
                loop_metrics: None,
                stall_seam: None,
            },
        )?;
        let local_addr = plane.local_addr()?;
        let completions = Arc::clone(plane.completions());
        let ring = HashRing::new(shards.iter().map(|s| s.id));
        let shared = Arc::new(ClusterShared {
            cfg,
            ring,
            shards,
            running: AtomicBool::new(true),
            accept_stop: AtomicBool::new(false),
            inflight_broadcasts: AtomicU64::new(0),
            counters: ClusterCounters::default(),
        });
        let tier = FrontTier {
            shared: Arc::clone(&shared),
            backends: HashMap::new(),
            by_shard: HashMap::new(),
            forwards: HashMap::new(),
            next_fwd: 1,
            drain_deadline: None,
        };
        let reactor = std::thread::spawn(move || plane.run(tier));

        let prober_shared = Arc::clone(&shared);
        let prober = std::thread::spawn(move || prober_loop(&prober_shared));

        Ok(Self {
            shared,
            local_addr,
            reactor: Some(reactor),
            prober: Some(prober),
            completions,
            final_stats: None,
        })
    }

    /// The front's bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The backend shard addresses, in ring-id order.
    pub fn shard_addrs(&self) -> Vec<SocketAddr> {
        self.shared.shards.iter().map(|s| s.addr).collect()
    }

    /// OS pids of the managed shard children (empty entries for
    /// external shards).
    pub fn shard_pids(&self) -> Vec<Option<u32>> {
        self.shared
            .shards
            .iter()
            .map(|s| lock(&s.child).as_ref().map(Child::id))
            .collect()
    }

    /// Whether the front is still accepting work.
    pub fn is_running(&self) -> bool {
        self.shared.running.load(Ordering::SeqCst)
    }

    /// The ring primary for a session cache key (`None` only on an
    /// impossible empty ring). Used by the load generator and tests to
    /// pick a meaningful kill victim.
    pub fn primary_shard(&self, key: u64) -> Option<u16> {
        self.shared.ring.primary(key)
    }

    /// The ring's deterministic failover target for a key.
    pub fn secondary_shard(&self, key: u64) -> Option<u16> {
        self.shared.ring.secondary(key)
    }

    /// Chaos hook: `kill -9` a managed shard child and let the
    /// supervisor *discover* the death (nothing else is touched — no
    /// breaker, no counters — exactly as if the process crashed on its
    /// own). Returns `false` for external or unknown shards.
    pub fn kill_shard(&self, id: u16) -> bool {
        let Some(shard) = self.shared.shards.get(usize::from(id)) else {
            return false;
        };
        match lock(&shard.child).as_mut() {
            Some(child) => child.kill().is_ok(),
            None => false,
        }
    }

    /// Current front counters (per-shard final stats not yet
    /// collected).
    pub fn stats(&self) -> ClusterStats {
        self.shared.stats_snapshot(Vec::new())
    }

    /// Blocks until a client `Shutdown` arrives, then drains.
    pub fn wait(mut self) -> ClusterStats {
        while self.is_running() {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.drain()
    }

    /// Initiates shutdown locally, drains, and returns the merged
    /// stats.
    pub fn shutdown(mut self) -> ClusterStats {
        self.shared.begin_shutdown();
        self.drain()
    }

    /// Flips the front into draining mode without blocking: new
    /// connections get a typed `Rejected`, in-flight forwards finish.
    pub fn initiate_shutdown(&self) {
        self.shared.begin_shutdown();
    }

    fn drain(&mut self) -> ClusterStats {
        self.shared.begin_shutdown();
        // Stop the supervisor first: a respawn racing the shard
        // shutdowns below would resurrect a shard we just drained.
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
        // Now stop the reactor. It keeps running until in-flight
        // forwards and broadcasts are answered (refusing new
        // connections with a typed `Rejected` the whole time), runs its
        // final flush, and exits.
        self.shared.accept_stop.store(true, Ordering::SeqCst);
        self.completions.waker.wake();
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        // Collect every shard's final stats, then drain the shards
        // themselves.
        let mut per_shard = Vec::with_capacity(self.shared.shards.len());
        for shard in &self.shared.shards {
            // Any valid spec works; the per-session payload is ignored.
            let stats_req = Request::stats(1, gnn_mls::session::SessionSpec::fast("maeri16"));
            let stats = exchange(shard.addr, &stats_req, PROBE_TIMEOUT)
                .ok()
                .and_then(|resp| resp.stats);
            per_shard.push(ShardStats {
                id: u32::from(shard.id),
                addr: shard.addr.to_string(),
                breaker_opens: shard.breaker_opens.load(Ordering::SeqCst),
                crashes: shard.crashes.load(Ordering::SeqCst),
                respawns: shard.respawns.load(Ordering::SeqCst),
                stats,
            });
        }
        for shard in &self.shared.shards {
            let _ = exchange(shard.addr, &Request::shutdown(1), PROBE_TIMEOUT);
            // Wait for a managed child to exit; kill it if it will not.
            if let Some(mut child) = lock(&shard.child).take() {
                let deadline = Instant::now() + SHARD_EXIT_TIMEOUT;
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() >= deadline => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                        Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                        Err(_) => break,
                    }
                }
            }
        }
        let stats = self.shared.stats_snapshot(per_shard);
        if let Some(dir) = &self.shared.cfg.checkpoint_dir {
            save_stage_logged(dir, CLUSTER_STATS_STAGE, &stats, "gnnmls-cluster");
        }
        self.final_stats = Some(stats.clone());
        stats
    }
}

impl Drop for ClusterFront {
    fn drop(&mut self) {
        if self.final_stats.is_none() {
            let _ = self.drain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_with(cfg: ClusterConfig, n: u16) -> ClusterShared {
        let shards = (0..n)
            .map(|id| ShardState {
                id,
                addr: "127.0.0.1:1".parse().unwrap(),
                spawn: None,
                child: Mutex::new(None),
                breaker: Mutex::new(Breaker::default()),
                crashes: AtomicU64::new(0),
                respawns: AtomicU64::new(0),
                breaker_opens: AtomicU64::new(0),
            })
            .collect();
        ClusterShared {
            ring: HashRing::new(0..n),
            cfg,
            shards,
            running: AtomicBool::new(true),
            accept_stop: AtomicBool::new(false),
            inflight_broadcasts: AtomicU64::new(0),
            counters: ClusterCounters::default(),
        }
    }

    #[test]
    fn breaker_opens_at_threshold_and_half_opens_after_cooldown() {
        let cfg = ClusterConfig {
            breaker_threshold: 2,
            breaker_cooldown_ms: 30,
            ..Default::default()
        };
        let s = shared_with(cfg, 2);
        assert!(!s.breaker_open(0));
        s.record_shard_failure(0);
        assert!(!s.breaker_open(0), "one strike must not open the breaker");
        s.record_shard_failure(0);
        assert!(s.breaker_open(0));
        assert!(s.breaker_remaining_ms(0) >= 1);
        assert!(!s.breaker_open(1), "breakers are per shard");
        // Cooldown (30ms base + at most 8ms jitter) expires: half-open.
        std::thread::sleep(Duration::from_millis(60));
        assert!(!s.breaker_open(0), "cooldown over: one probe may pass");
        // A failed probe re-opens immediately (consecutive persists).
        s.record_shard_failure(0);
        assert!(s.breaker_open(0));
        // Success closes it and forgets the history.
        s.record_shard_success(0);
        assert!(!s.breaker_open(0));
        assert_eq!(lock(&s.shard(0).breaker).opens, 0);
    }

    #[test]
    fn crash_marks_breaker_open_and_counts() {
        let s = shared_with(ClusterConfig::default(), 2);
        s.crash_shard(1);
        assert!(s.breaker_open(1));
        assert_eq!(s.counters.shard_crashes.load(Ordering::SeqCst), 1);
        assert_eq!(s.shard(1).crashes.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn health_maps_open_breakers_to_quarantine_entries() {
        let cfg = ClusterConfig {
            breaker_threshold: 1,
            breaker_cooldown_ms: 10_000,
            ..Default::default()
        };
        let s = shared_with(cfg, 3);
        s.record_shard_failure(2);
        let h = s.health();
        assert!(h.ready);
        assert_eq!(h.workers, 2, "two shards still healthy");
        assert_eq!(h.quarantine.len(), 1);
        assert_eq!(h.quarantine[0].key, 2);
        assert!(h.quarantine[0].open);
        assert!(h.quarantine[0].remaining_ms > 0);
    }

    #[test]
    fn cluster_stats_round_trip_the_envelope_schema() {
        let s = shared_with(ClusterConfig::default(), 1);
        s.counters.requests.store(7, Ordering::SeqCst);
        s.counters.failovers.store(2, Ordering::SeqCst);
        let stats = s.stats_snapshot(vec![ShardStats {
            id: 0,
            addr: "127.0.0.1:7201".into(),
            breaker_opens: 1,
            crashes: 1,
            respawns: 1,
            stats: None,
        }]);
        assert_eq!(stats.schema_version, CLUSTER_STATS_SCHEMA);
        let json = serde_json::to_string(&stats).unwrap();
        let back: ClusterStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn cluster_config_builder_validates_every_knob() {
        let cfg = ClusterConfig::builder()
            .read_timeout_ms(50)
            .retries(2)
            .probe_interval_ms(128)
            .build()
            .expect("valid config");
        assert_eq!(cfg.read_timeout_ms, 50);
        assert_eq!(cfg.retries, 2);
        assert_eq!(cfg.probe_interval_ms, 128);
        let err = ClusterConfig::builder().retries(0).build().unwrap_err();
        assert!(matches!(
            err,
            ValidationError::BadConfig {
                field: "retries",
                ..
            }
        ));
        let err = ClusterConfig::builder()
            .probe_interval_ms(0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ValidationError::BadConfig {
                field: "probe_interval_ms",
                ..
            }
        ));
    }
}
