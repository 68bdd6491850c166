//! Deterministic, seed-driven fault injection for the GNN-MLS flow.
//!
//! Library crates call [`fire`] at their stage seams ("would a fault
//! happen here?"). With no [`FaultPlan`] installed the call is a single
//! relaxed atomic load — effectively free — so the seams stay in
//! release builds.
//!
//! Plans are scoped. [`install`] arms a plan for the calling thread
//! only, and `gnnmls-par` carries the caller's [`FaultScope`] into the
//! workers it forks, so a test's shots reach its own flow and nothing
//! else: parallel test threads never consume each other's shots.
//! [`install_global`] arms a plan for every thread without a scope of
//! its own; the `GNNMLS_FAULTS` env knob and in-process daemon tests
//! (whose seams fire on server threads) use it, and global plans
//! serialize on a lock. Either guard disarms on drop.
//!
//! Every fault is deterministic: a plan is a set of `(site, shots)`
//! pairs, and `fire(site)` returns `true` exactly `shots` times for
//! that site, in call order. Seed-driven plans ([`FaultPlan::from_seed`])
//! derive the site set from a splitmix64 stream so a single integer
//! reproduces an injected-fault run exactly.

// Diagnostics flow through gnnmls-obs, never straight to the
// process streams.
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(test, allow(clippy::print_stdout, clippy::print_stderr))]

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A seam in the flow where a fault can be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Flip a byte in a checkpoint payload as it is written.
    CheckpointCorrupt,
    /// Truncate a checkpoint payload as it is written.
    CheckpointTruncate,
    /// Make a net fail to route during rip-up (no path to any sink).
    UnroutableNet,
    /// Exhaust the A* node-expansion budget for a sink.
    RouteBudgetExhausted,
    /// Poison a training step's gradients with NaN.
    NanGradient,
    /// Cap the CG solver so the IR solve cannot converge.
    IrNonConvergence,
    /// Panic inside a `gnnmls-par` worker.
    WorkerPanic,
    /// Flip a byte in a serve wire frame as it is written to a socket.
    FrameCorrupt,
    /// Stall a serve connection mid-frame (slow or wedged client).
    SlowClientStall,
    /// Force the serve job queue to report itself full.
    QueueOverflow,
    /// Bomb a `DesignSession` build with a typed failure (drives the
    /// serve quarantine circuit breaker).
    SessionBuildFail,
    /// Corrupt one route-DB edge count as the DB is assembled (proves
    /// the cross-stage invariant auditor fires).
    RouteAuditCorrupt,
    /// Crash the backend shard a cluster front is about to forward to
    /// (a managed child is killed; an external shard is marked dead).
    ShardCrash,
    /// Make a forwarded cluster request appear over-deadline: the shard
    /// never answers within the forward timeout.
    ShardStall,
    /// Tear the front↔shard connection mid-exchange (reset after the
    /// request frame is written, before the response is read).
    ConnReset,
    /// Damage a model-zoo checkpoint on its way into a `LoadModel`
    /// swap (bit-flip or truncation after the read, before the envelope
    /// check) — the swap must refuse with a typed error, never poison
    /// the model registry or the session cache.
    ModelSwapCorrupt,
    /// ENOSPC mid-write inside a durable write: half the payload lands
    /// in the temp file, then the device refuses — the destination must
    /// stay the complete old state.
    DiskFull,
    /// Power cut mid-write: a truncated temp file is all that survives
    /// the crash; the destination must stay the complete old state.
    TornWrite,
    /// Crash between fsync(tmp) and the atomic rename: the complete new
    /// bytes are orphaned in a temp file beside the intact old file.
    RenameCrash,
    /// Transient I/O error (EIO) reading a persistent artifact back —
    /// must surface typed and leave the on-disk bytes untouched.
    ReadEio,
}

/// All sites, in the order used by seed-driven plans.
pub const ALL_SITES: [FaultSite; 20] = [
    FaultSite::CheckpointCorrupt,
    FaultSite::CheckpointTruncate,
    FaultSite::UnroutableNet,
    FaultSite::RouteBudgetExhausted,
    FaultSite::NanGradient,
    FaultSite::IrNonConvergence,
    FaultSite::WorkerPanic,
    FaultSite::FrameCorrupt,
    FaultSite::SlowClientStall,
    FaultSite::QueueOverflow,
    FaultSite::SessionBuildFail,
    FaultSite::RouteAuditCorrupt,
    FaultSite::ShardCrash,
    FaultSite::ShardStall,
    FaultSite::ConnReset,
    FaultSite::ModelSwapCorrupt,
    FaultSite::DiskFull,
    FaultSite::TornWrite,
    FaultSite::RenameCrash,
    FaultSite::ReadEio,
];

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::CheckpointCorrupt => 0,
            FaultSite::CheckpointTruncate => 1,
            FaultSite::UnroutableNet => 2,
            FaultSite::RouteBudgetExhausted => 3,
            FaultSite::NanGradient => 4,
            FaultSite::IrNonConvergence => 5,
            FaultSite::WorkerPanic => 6,
            FaultSite::FrameCorrupt => 7,
            FaultSite::SlowClientStall => 8,
            FaultSite::QueueOverflow => 9,
            FaultSite::SessionBuildFail => 10,
            FaultSite::RouteAuditCorrupt => 11,
            FaultSite::ShardCrash => 12,
            FaultSite::ShardStall => 13,
            FaultSite::ConnReset => 14,
            FaultSite::ModelSwapCorrupt => 15,
            FaultSite::DiskFull => 16,
            FaultSite::TornWrite => 17,
            FaultSite::RenameCrash => 18,
            FaultSite::ReadEio => 19,
        }
    }

    fn from_name(name: &str) -> Option<Self> {
        match name {
            "checkpoint-corrupt" => Some(FaultSite::CheckpointCorrupt),
            "checkpoint-truncate" => Some(FaultSite::CheckpointTruncate),
            "unroutable-net" => Some(FaultSite::UnroutableNet),
            "route-budget" => Some(FaultSite::RouteBudgetExhausted),
            "nan-gradient" => Some(FaultSite::NanGradient),
            "ir-nonconvergence" => Some(FaultSite::IrNonConvergence),
            "worker-panic" => Some(FaultSite::WorkerPanic),
            "frame-corrupt" => Some(FaultSite::FrameCorrupt),
            "slow-client" => Some(FaultSite::SlowClientStall),
            "queue-overflow" => Some(FaultSite::QueueOverflow),
            "build-fail" => Some(FaultSite::SessionBuildFail),
            "audit-violation" => Some(FaultSite::RouteAuditCorrupt),
            "shard-crash" => Some(FaultSite::ShardCrash),
            "shard-stall" => Some(FaultSite::ShardStall),
            "conn-reset" => Some(FaultSite::ConnReset),
            "model-swap-corrupt" => Some(FaultSite::ModelSwapCorrupt),
            "disk-full" => Some(FaultSite::DiskFull),
            "torn-write" => Some(FaultSite::TornWrite),
            "rename-crash" => Some(FaultSite::RenameCrash),
            "read-eio" => Some(FaultSite::ReadEio),
            _ => None,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultSite::CheckpointCorrupt => "checkpoint-corrupt",
            FaultSite::CheckpointTruncate => "checkpoint-truncate",
            FaultSite::UnroutableNet => "unroutable-net",
            FaultSite::RouteBudgetExhausted => "route-budget",
            FaultSite::NanGradient => "nan-gradient",
            FaultSite::IrNonConvergence => "ir-nonconvergence",
            FaultSite::WorkerPanic => "worker-panic",
            FaultSite::FrameCorrupt => "frame-corrupt",
            FaultSite::SlowClientStall => "slow-client",
            FaultSite::QueueOverflow => "queue-overflow",
            FaultSite::SessionBuildFail => "build-fail",
            FaultSite::RouteAuditCorrupt => "audit-violation",
            FaultSite::ShardCrash => "shard-crash",
            FaultSite::ShardStall => "shard-stall",
            FaultSite::ConnReset => "conn-reset",
            FaultSite::ModelSwapCorrupt => "model-swap-corrupt",
            FaultSite::DiskFull => "disk-full",
            FaultSite::TornWrite => "torn-write",
            FaultSite::RenameCrash => "rename-crash",
            FaultSite::ReadEio => "read-eio",
        };
        f.write_str(s)
    }
}

/// A deterministic fault schedule: how many times each site fires.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    shots: [u32; ALL_SITES.len()],
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan that fires one site a fixed number of times.
    pub fn single(site: FaultSite, shots: u32) -> Self {
        let mut p = Self::default();
        p.shots[site.index()] = shots;
        p
    }

    /// Adds shots for a site (builder-style).
    pub fn with(mut self, site: FaultSite, shots: u32) -> Self {
        self.shots[site.index()] += shots;
        self
    }

    /// Derives a plan from a seed: each site independently gets 0–2
    /// shots from a splitmix64 stream. The same seed always produces
    /// the same plan, so `GNNMLS_FAULTS=<seed>` reproduces a run.
    pub fn from_seed(seed: u64) -> Self {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut p = Self::default();
        for slot in p.shots.iter_mut() {
            *slot = (next() % 3) as u32;
        }
        p
    }

    /// Parses the `GNNMLS_FAULTS` env convention:
    /// either a bare integer seed (`GNNMLS_FAULTS=42`) or an explicit
    /// site list (`GNNMLS_FAULTS=route-budget:2,nan-gradient:1`; a bare
    /// site name means one shot). Returns `None` when the variable is
    /// unset, empty, or unparseable (unparseable values get a one-line
    /// stderr warning rather than a panic).
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("GNNMLS_FAULTS").ok()?;
        let raw = raw.trim();
        if raw.is_empty() {
            return None;
        }
        if let Ok(seed) = raw.parse::<u64>() {
            return Some(Self::from_seed(seed));
        }
        let mut p = Self::default();
        for part in raw.split(',') {
            let part = part.trim();
            let (name, shots) = match part.split_once(':') {
                Some((n, s)) => match s.trim().parse::<u32>() {
                    Ok(k) => (n.trim(), k),
                    Err(_) => {
                        gnnmls_obs::warn(
                            "gnnmls-faults",
                            &format!("ignoring GNNMLS_FAULTS entry {part:?} (bad shot count)"),
                        );
                        return None;
                    }
                },
                None => (part, 1),
            };
            match FaultSite::from_name(name) {
                Some(site) => p.shots[site.index()] += shots,
                None => {
                    gnnmls_obs::warn(
                        "gnnmls-faults",
                        &format!("ignoring GNNMLS_FAULTS entry {part:?} (unknown site)"),
                    );
                    return None;
                }
            }
        }
        Some(p)
    }

    /// Shots scheduled for a site.
    pub fn shots(&self, site: FaultSite) -> u32 {
        self.shots[site.index()]
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.shots.iter().all(|&s| s == 0)
    }
}

/// The live state of one installed plan: shots left per site, and the
/// recoveries noted by code running under it.
#[derive(Debug)]
struct Shots {
    remaining: [AtomicU32; ALL_SITES.len()],
    recovered: AtomicU32,
}

impl Shots {
    fn arm(plan: &FaultPlan) -> Arc<Self> {
        Arc::new(Self {
            remaining: std::array::from_fn(|i| AtomicU32::new(plan.shots[i])),
            recovered: AtomicU32::new(0),
        })
    }

    fn take(&self, site: FaultSite) -> bool {
        self.remaining[site.index()]
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }
}

/// Live plans that schedule at least one shot, scoped or global. Zero
/// is the fast path of [`fire`].
static ARMED: AtomicUsize = AtomicUsize::new(0);

/// The plan of every thread without a scope of its own.
static GLOBAL: Mutex<Option<Arc<Shots>>> = Mutex::new(None);

/// Serializes [`install_global`] callers.
static GLOBAL_INSTALL: Mutex<()> = Mutex::new(());

/// Recoveries noted on threads without a scope.
static UNSCOPED_RECOVERED: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static SCOPE: RefCell<Option<Arc<Shots>>> = const { RefCell::new(None) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The calling thread's scope, if it has one. `None` while the thread
/// is being torn down, too.
fn thread_scope() -> Option<Arc<Shots>> {
    SCOPE.try_with(|s| s.borrow().clone()).ok().flatten()
}

/// Makes `shots` the calling thread's scope; returns the one it replaces.
fn set_thread_scope(shots: Option<Arc<Shots>>) -> Option<Arc<Shots>> {
    SCOPE
        .try_with(|s| std::mem::replace(&mut *s.borrow_mut(), shots))
        .ok()
        .flatten()
}

/// The plan [`fire`] consults on this thread: its scope, else the global one.
fn current_shots() -> Option<Arc<Shots>> {
    thread_scope().or_else(|| lock(&GLOBAL).clone())
}

/// A thread's fault scope, as a handle that can be carried into the
/// threads it forks. `gnnmls-par` takes the caller's
/// [`FaultScope::current`] and [`enter`](FaultScope::enter)s it in
/// every worker, so an injected fault reaches the caller's own map and
/// its recoveries are tallied where the caller reads them.
#[derive(Clone, Debug, Default)]
pub struct FaultScope(Option<Arc<Shots>>);

impl FaultScope {
    /// The calling thread's scope (empty when none was installed on it).
    pub fn current() -> Self {
        Self(thread_scope())
    }

    /// Makes this scope the calling thread's until the guard drops. An
    /// empty scope is a no-op, so unscoped callers leave their workers
    /// on the global plan.
    pub fn enter(&self) -> ScopeGuard {
        ScopeGuard {
            prev: self.0.clone().map(|s| set_thread_scope(Some(s))),
            _thread: PhantomData,
        }
    }
}

/// RAII guard returned by [`FaultScope::enter`]; restores the thread's
/// previous scope on drop.
#[must_use = "the scope is left when the guard drops"]
pub struct ScopeGuard {
    /// `Some(previous scope)` when a scope was entered.
    prev: Option<Option<Arc<Shots>>>,
    /// Thread-local state: the guard must drop on the entering thread.
    _thread: PhantomData<*const ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            set_thread_scope(prev);
        }
    }
}

/// RAII guard returned by [`install`] and [`install_global`]; disarms
/// its plan on drop. Scoped guards nest and must drop in reverse order
/// on the installing thread.
#[must_use = "the plan is disarmed when the guard drops"]
pub struct FaultGuard {
    /// Set for a scoped plan: restores the thread's previous scope.
    _scope: Option<ScopeGuard>,
    /// Set for a global plan: holds [`GLOBAL_INSTALL`] so global plans
    /// never overlap.
    serial: Option<MutexGuard<'static, ()>>,
    /// Whether the plan counts in [`ARMED`].
    armed: bool,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        if self.serial.is_some() {
            *lock(&GLOBAL) = None;
        }
        if self.armed {
            ARMED.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn arm(plan: &FaultPlan) -> (Arc<Shots>, bool) {
    let armed = !plan.is_empty();
    if armed {
        ARMED.fetch_add(1, Ordering::SeqCst);
    }
    (Shots::arm(plan), armed)
}

/// Installs a plan for the calling thread (and the `gnnmls-par` workers
/// it forks); faults stay armed until the guard drops.
///
/// Other threads never see the plan, so `cargo test`'s parallel test
/// threads each get exactly their own shots without waiting on each
/// other. An empty plan still gives the thread a scope of its own,
/// which shields it from a global plan.
pub fn install(plan: &FaultPlan) -> FaultGuard {
    let (shots, armed) = arm(plan);
    FaultGuard {
        _scope: Some(FaultScope(Some(shots)).enter()),
        serial: None,
        armed,
    }
}

/// Installs a plan for every thread without a scope of its own, such as
/// the threads of an in-process daemon; faults stay armed until the
/// guard drops.
///
/// Only one global plan can be active at a time: a second call blocks
/// until the first guard drops. A global plan reaches every unscoped
/// thread, so tests that use it must also keep their other work off the
/// seams it arms (the serve suites hold a per-file lock for that).
pub fn install_global(plan: &FaultPlan) -> FaultGuard {
    let serial = lock(&GLOBAL_INSTALL);
    let (shots, armed) = arm(plan);
    *lock(&GLOBAL) = Some(shots);
    FaultGuard {
        _scope: None,
        serial: Some(serial),
        armed,
    }
}

/// Installs the plan from `GNNMLS_FAULTS`, if any, process-wide.
pub fn install_from_env() -> Option<FaultGuard> {
    FaultPlan::from_env().map(|p| install_global(&p))
}

/// Should a fault fire at this seam? Consumes one shot when it does.
///
/// The calling thread's scope decides; a thread without one follows the
/// global plan. With nothing installed anywhere this is one relaxed
/// atomic load. An actual activation (rare by construction) is counted
/// into the `gnnmls_faults_fired_total{site=...}` metric and, when a
/// trace sink is installed, emitted as a `fault` event.
#[inline]
pub fn fire(site: FaultSite) -> bool {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return false;
    }
    let fired = current_shots().is_some_and(|shots| shots.take(site));
    if fired {
        let name = site.to_string();
        gnnmls_obs::counter_add("gnnmls_faults_fired_total", &[("site", &name)], 1);
        gnnmls_obs::event("fault", &[("site", gnnmls_obs::FieldValue::Str(name))]);
    }
    fired
}

/// Notes one recovered failure (such as a retried worker panic) in the
/// calling thread's scope, or in the process-wide tally when it has
/// none. A run that reads [`recoveries`] before and after therefore
/// counts only the failures injected into its own scope.
pub fn note_recovery() {
    match thread_scope() {
        Some(shots) => shots.recovered.fetch_add(1, Ordering::SeqCst),
        None => UNSCOPED_RECOVERED.fetch_add(1, Ordering::SeqCst),
    };
}

/// Recoveries noted so far in the calling thread's scope (the
/// process-wide tally when it has none).
pub fn recoveries() -> u32 {
    match thread_scope() {
        Some(shots) => shots.recovered.load(Ordering::SeqCst),
        None => UNSCOPED_RECOVERED.load(Ordering::SeqCst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_fire_is_false() {
        assert!(!fire(FaultSite::UnroutableNet));
    }

    #[test]
    fn shots_are_consumed_exactly() {
        let guard = install(&FaultPlan::single(FaultSite::NanGradient, 2));
        assert!(fire(FaultSite::NanGradient));
        assert!(fire(FaultSite::NanGradient));
        assert!(!fire(FaultSite::NanGradient));
        assert!(!fire(FaultSite::IrNonConvergence), "other sites unarmed");
        drop(guard);
        assert!(!fire(FaultSite::NanGradient), "disarmed after drop");
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        assert_eq!(FaultPlan::from_seed(42), FaultPlan::from_seed(42));
        // Some seed in 0..16 must differ from seed 42 (sanity: the seed
        // actually reaches the schedule).
        assert!((0..16).any(|s| FaultPlan::from_seed(s) != FaultPlan::from_seed(42)));
    }

    #[test]
    fn builder_and_single_agree() {
        let a = FaultPlan::single(FaultSite::WorkerPanic, 3);
        let b = FaultPlan::none().with(FaultSite::WorkerPanic, 3);
        assert_eq!(a, b);
        assert_eq!(a.shots(FaultSite::WorkerPanic), 3);
        assert!(!a.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn new_robustness_sites_are_registered() {
        assert_eq!(ALL_SITES.len(), 20);
        assert_eq!(ALL_SITES[10], FaultSite::SessionBuildFail);
        assert_eq!(ALL_SITES[11], FaultSite::RouteAuditCorrupt);
        assert_eq!(FaultSite::SessionBuildFail.to_string(), "build-fail");
        assert_eq!(FaultSite::RouteAuditCorrupt.to_string(), "audit-violation");
    }

    #[test]
    fn cluster_sites_are_registered() {
        assert_eq!(ALL_SITES[12], FaultSite::ShardCrash);
        assert_eq!(ALL_SITES[13], FaultSite::ShardStall);
        assert_eq!(ALL_SITES[14], FaultSite::ConnReset);
        assert_eq!(FaultSite::ShardCrash.to_string(), "shard-crash");
        assert_eq!(FaultSite::ShardStall.to_string(), "shard-stall");
        assert_eq!(FaultSite::ConnReset.to_string(), "conn-reset");
        assert_eq!(
            FaultSite::from_name("conn-reset"),
            Some(FaultSite::ConnReset)
        );
    }

    #[test]
    fn model_swap_site_is_registered() {
        assert_eq!(ALL_SITES[15], FaultSite::ModelSwapCorrupt);
        assert_eq!(
            FaultSite::ModelSwapCorrupt.to_string(),
            "model-swap-corrupt"
        );
        assert_eq!(
            FaultSite::from_name("model-swap-corrupt"),
            Some(FaultSite::ModelSwapCorrupt)
        );
        // Appending the 16th site must not reshuffle seeded plans for
        // the first 15 (CI storms pin their seeds).
        let p = FaultPlan::from_seed(42);
        for site in ALL_SITES {
            assert!(p.shots(site) <= 2);
        }
    }

    #[test]
    fn disk_sites_are_registered() {
        assert_eq!(ALL_SITES[16], FaultSite::DiskFull);
        assert_eq!(ALL_SITES[17], FaultSite::TornWrite);
        assert_eq!(ALL_SITES[18], FaultSite::RenameCrash);
        assert_eq!(ALL_SITES[19], FaultSite::ReadEio);
        for (site, name) in [
            (FaultSite::DiskFull, "disk-full"),
            (FaultSite::TornWrite, "torn-write"),
            (FaultSite::RenameCrash, "rename-crash"),
            (FaultSite::ReadEio, "read-eio"),
        ] {
            assert_eq!(site.to_string(), name);
            assert_eq!(FaultSite::from_name(name), Some(site));
        }
        // The splitmix64 stream is consumed per-slot in site order, so
        // appending the four disk seams leaves every pinned seed's
        // schedule for the first 16 sites untouched.
        let p = FaultPlan::from_seed(42);
        assert_eq!(p.shots(FaultSite::CheckpointCorrupt), 1);
        assert_eq!(p.shots(FaultSite::ModelSwapCorrupt), 2);
    }

    #[test]
    fn activations_are_counted_events() {
        let site = FaultSite::FrameCorrupt;
        let labels = [("site", "frame-corrupt")];
        let before = gnnmls_obs::dyn_counter_value("gnnmls_faults_fired_total", &labels);
        let guard = install(&FaultPlan::single(site, 2));
        assert!(fire(site));
        assert!(fire(site));
        assert!(!fire(site), "shots exhausted");
        drop(guard);
        assert_eq!(
            gnnmls_obs::dyn_counter_value("gnnmls_faults_fired_total", &labels),
            before + 2,
            "only actual activations are counted"
        );
    }

    #[test]
    fn scoped_plans_stay_on_their_thread() {
        let guard = install(&FaultPlan::single(FaultSite::TornWrite, 1));
        let elsewhere = std::thread::spawn(|| fire(FaultSite::TornWrite))
            .join()
            .unwrap();
        assert!(!elsewhere, "another thread consumed this thread's shot");
        assert!(fire(FaultSite::TornWrite));
        assert!(!fire(FaultSite::TornWrite));
        drop(guard);
    }

    #[test]
    fn entered_scope_shares_shots_and_recoveries() {
        let unscoped = UNSCOPED_RECOVERED.load(Ordering::SeqCst);
        let guard = install(&FaultPlan::single(FaultSite::DiskFull, 3));
        let scope = FaultScope::current();
        let fired: u32 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let scope = &scope;
                    s.spawn(move || {
                        let _in = scope.enter();
                        let n = (0..4).filter(|_| fire(FaultSite::DiskFull)).count();
                        note_recovery();
                        n as u32
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(fired, 3, "the shots are shared, not copied per worker");
        assert_eq!(
            recoveries(),
            4,
            "worker recoveries land in the caller's scope"
        );
        drop(guard);
        assert_eq!(
            recoveries(),
            unscoped,
            "nothing leaked into the process tally"
        );
    }

    #[test]
    fn nested_scopes_restore_in_order() {
        let outer = install(&FaultPlan::single(FaultSite::ReadEio, 1));
        let inner = install(&FaultPlan::none());
        assert!(!fire(FaultSite::ReadEio), "the inner empty scope shields");
        drop(inner);
        assert!(fire(FaultSite::ReadEio), "the outer plan is back");
        drop(outer);
        assert!(!fire(FaultSite::ReadEio));
    }

    #[test]
    fn global_plan_reaches_unscoped_threads_only() {
        let shielded = install(&FaultPlan::none());
        let guard = install_global(&FaultPlan::single(FaultSite::ShardStall, 2));
        assert!(!fire(FaultSite::ShardStall), "a scoped thread ignores it");
        let other = std::thread::spawn(|| fire(FaultSite::ShardStall))
            .join()
            .unwrap();
        assert!(other, "an unscoped thread follows the global plan");
        drop(guard);
        let other = std::thread::spawn(|| fire(FaultSite::ShardStall))
            .join()
            .unwrap();
        assert!(!other, "disarmed after drop");
        drop(shielded);
    }

    #[test]
    fn site_names_round_trip() {
        for site in ALL_SITES {
            assert_eq!(FaultSite::from_name(&site.to_string()), Some(site));
        }
        assert_eq!(FaultSite::from_name("no-such-site"), None);
    }
}
