//! Deterministic fork-join parallelism for the GNN-MLS workspace.
//!
//! The router's what-if oracle and rip-up rounds fan out over items
//! whose results must come back **in input order** so parallel runs are
//! bit-identical to serial ones. This crate provides exactly that: an
//! ordered parallel map built on `std::thread::scope` with an atomic
//! work index (no external dependencies — the build environment is
//! offline). Each result is written to its own pre-allocated slot, so
//! output order never depends on thread scheduling; only wall-clock
//! time does.
//!
//! `threads == 1` bypasses thread spawning entirely and runs the plain
//! serial loop, making the serial path exactly today's code.
//!
//! Resilience: [`par_map`] re-raises a panicking item with its index;
//! the [`recovering_par_map_with`] and [`recovering_par_map`] maps the
//! flow's hot paths use catch it as a typed [`ParError`] carrying the
//! failing index, retry the whole map serially once (deterministic,
//! since results are ordered) and count the recovery in a tally the
//! flow report reads.
//!
//! Every worker runs in its caller's `gnnmls-faults` scope and
//! `gnnmls-obs` trace scope, so a fault plan or trace sink installed on
//! the calling thread reaches the map's items, and recoveries are
//! tallied in that same scope.

// Diagnostics flow through gnnmls-obs, never straight to the
// process streams.
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![cfg_attr(test, allow(clippy::print_stdout, clippy::print_stderr))]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once, PoisonError};

use gnnmls_faults::{fire, FaultScope, FaultSite};

/// Number of logical cores (the `threads = 0` default).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `GNNMLS_THREADS` is set but not a positive integer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ThreadsEnvError {
    /// The raw value of the variable.
    pub value: String,
}

impl std::fmt::Display for ThreadsEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "malformed GNNMLS_THREADS={:?}: want a positive integer",
            self.value
        )
    }
}

impl std::error::Error for ThreadsEnvError {}

/// Reads the `GNNMLS_THREADS` env override with a typed error.
///
/// Returns `Ok(None)` when the variable is unset or empty, `Ok(Some(n))`
/// for a positive integer, and [`ThreadsEnvError`] for anything else.
/// Entry points (the `gnnmls` CLI, the serve daemon) call this at
/// startup so a typo'd value is rejected up front instead of silently
/// running on all cores.
pub fn env_threads() -> Result<Option<usize>, ThreadsEnvError> {
    match std::env::var("GNNMLS_THREADS") {
        Ok(v) => {
            let trimmed = v.trim();
            if trimmed.is_empty() {
                return Ok(None);
            }
            match trimmed.parse::<usize>() {
                Ok(n) if n > 0 => Ok(Some(n)),
                _ => Err(ThreadsEnvError { value: v }),
            }
        }
        Err(_) => Ok(None),
    }
}

/// Resolves a `threads` knob value: `0` means "all cores".
///
/// When the knob is `0`, the `GNNMLS_THREADS` environment variable (if
/// set to a positive integer) overrides the core count. CI uses this to
/// run the whole suite in forced-serial and default-parallel modes
/// without touching any config; results are bit-identical either way.
/// Deep in the library a malformed value falls back to all cores with a
/// one-line stderr warning (once per process); entry points reject it
/// up front via [`env_threads`].
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        match env_threads() {
            Ok(Some(n)) => n,
            Ok(None) => available_parallelism(),
            Err(e) => {
                static WARN: Once = Once::new();
                WARN.call_once(|| {
                    gnnmls_obs::warn("gnnmls-par", &format!("{e}; using all cores"));
                });
                available_parallelism()
            }
        }
    } else {
        threads
    }
}

/// A worker panicked while mapping one item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParError {
    /// Input index of the item whose closure panicked.
    pub index: usize,
    /// The panic payload, when it was a string.
    pub message: String,
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked at item {}: {}",
            self.index, self.message
        )
    }
}

impl std::error::Error for ParError {}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Process-wide count of worker panics recovered by the
/// `recovering_*` maps, for the metrics exposition.
static RECOVERED_PANICS_TOTAL: gnnmls_obs::Counter = gnnmls_obs::Counter::new(
    "gnnmls_par_recovered_panics_total",
    "worker panics recovered by serial retry",
);

/// Worker panics recovered by `recovering_*` maps so far, counted in
/// the calling thread's `gnnmls-faults` scope. The flow snapshots this
/// before and after a run to report recovered degradations; a fault
/// plan injected on another thread never reaches the delta.
pub fn recovered_panics() -> u32 {
    gnnmls_faults::recoveries()
}

/// Ordered parallel map over a slice: returns `vec![f(&items[0]), ..]`.
///
/// Results are identical to the serial loop for any thread count; only
/// the evaluation schedule differs.
///
/// # Panics
///
/// Re-raises a worker panic with the failing item index in the message
/// (`worker panicked at item <i>: <payload>`).
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    match try_par_map_with(threads, items.len(), || (), |(), i| f(&items[i])) {
        Ok(v) => v,
        Err(e) => panic!("gnnmls-par: {e}"),
    }
}

/// Ordered parallel map over `0..n` with per-worker scratch state (see
/// [`recovering_par_map_with`]), returning a typed error instead of
/// panicking.
///
/// A panicking item aborts the map: in-flight items on other workers
/// finish, queued items are skipped, and the error reports the lowest
/// failing index. The `gnnmls-faults` `WorkerPanic` seam fires here
/// (serial and parallel paths alike), so the injected fault class is
/// exercised in both CI matrix legs.
fn try_par_map_with<S, R, FS, F>(
    threads: usize,
    n: usize,
    make_scratch: FS,
    f: F,
) -> Result<Vec<R>, ParError>
where
    S: Send,
    R: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let run_item = |scratch: &mut S, i: usize| -> Result<R, ParError> {
        catch_unwind(AssertUnwindSafe(|| {
            if fire(FaultSite::WorkerPanic) {
                panic!("injected worker panic (gnnmls-faults)");
            }
            f(scratch, i)
        }))
        .map_err(|payload| ParError {
            index: i,
            message: payload_message(payload.as_ref()),
        })
    };

    let workers = resolve_threads(threads).min(n.max(1));
    if workers <= 1 {
        let mut scratch = make_scratch();
        return (0..n).map(|i| run_item(&mut scratch, i)).collect();
    }

    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let slots = SlotWriter(results.as_mut_ptr());
    let next = AtomicUsize::new(0);
    let first_error: Mutex<Option<ParError>> = Mutex::new(None);
    let faults = FaultScope::current();
    let trace = gnnmls_obs::TraceScope::current();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let slots = &slots;
            let next = &next;
            let run_item = &run_item;
            let make_scratch = &make_scratch;
            let first_error = &first_error;
            let faults = &faults;
            let trace = &trace;
            scope.spawn(move || {
                let _faults = faults.enter();
                let _trace = trace.enter();
                let mut scratch = make_scratch();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    match run_item(&mut scratch, i) {
                        Ok(r) => {
                            // SAFETY: `fetch_add` hands each index to
                            // exactly one worker, so no two threads ever
                            // write the same slot, and the scope joins all
                            // workers before `results` is read again.
                            unsafe { slots.0.add(i).write(Some(r)) };
                        }
                        Err(e) => {
                            let mut slot =
                                first_error.lock().unwrap_or_else(PoisonError::into_inner);
                            match slot.as_ref() {
                                Some(prev) if prev.index <= e.index => {}
                                _ => *slot = Some(e),
                            }
                            // Park the queue so other workers drain fast.
                            next.store(n, Ordering::Relaxed);
                            break;
                        }
                    }
                }
            });
        }
    });

    if let Some(e) = first_error
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
    {
        return Err(e);
    }
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            r.ok_or_else(|| ParError {
                index: i,
                message: "item skipped after a worker panic".to_string(),
            })
        })
        .collect()
}

/// Ordered parallel map over `0..n` with per-worker scratch state that
/// survives a worker panic.
///
/// `make_scratch` runs once per worker thread (once total when serial);
/// `f` may freely mutate the scratch between items. This is how the
/// router shares one A* scratch buffer per thread instead of
/// reallocating per net.
///
/// After a worker panic the map is retried once on the serial path
/// (bit-identical results, since maps are ordered), the recovery is
/// counted in [`recovered_panics`], and only a panic that also
/// reproduces serially propagates as an error.
pub fn recovering_par_map_with<S, R, FS, F>(
    threads: usize,
    n: usize,
    make_scratch: FS,
    f: F,
) -> Result<Vec<R>, ParError>
where
    S: Send,
    R: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    match try_par_map_with(threads, n, &make_scratch, &f) {
        Ok(v) => Ok(v),
        Err(e) => {
            gnnmls_obs::warn("gnnmls-par", &format!("{e}; retrying serially"));
            RECOVERED_PANICS_TOTAL.inc();
            gnnmls_faults::note_recovery();
            try_par_map_with(1, n, &make_scratch, &f)
        }
    }
}

/// [`recovering_par_map_with`] over a slice without scratch.
pub fn recovering_par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Result<Vec<R>, ParError>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    recovering_par_map_with(threads, items.len(), || (), |(), i| f(&items[i]))
}

/// Bounded multi-producer/multi-consumer job queue with explicit
/// backpressure, built on `Mutex` + `Condvar` (no external deps).
///
/// Producers use [`BoundedQueue::try_push`](queue::BoundedQueue::try_push), which **never blocks**: a
/// full queue returns [`PushError::Full`](queue::PushError::Full) so the caller can shed load
/// (the serve daemon turns this into a typed `Busy` response).
/// Consumers use [`BoundedQueue::pop`](queue::BoundedQueue::pop), which blocks until a job
/// arrives or the queue is closed and drained. [`BoundedQueue::close`](queue::BoundedQueue::close)
/// wakes all consumers; pending jobs are still handed out so a close is
/// a drain, not an abort.
///
/// Deterministic pseudo-randomness shared across the workspace.
///
/// Several subsystems (serve quarantine cooldowns, client retry
/// jitter, the cluster ring and load generator) need cheap, seedable,
/// reproducible randomness. They all use the same splitmix64 mixer so
/// a single `u64` seed reproduces a schedule exactly; this module is
/// the one copy of it.
pub mod rng {
    /// One splitmix64 mixing step: a high-quality 64-bit finalizer.
    /// Deterministic, stateless, and cheap — feed it any counter or
    /// hash to get a well-spread value.
    #[inline]
    pub fn splitmix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A tiny seeded stream built on [`splitmix64`]: each `next()`
    /// advances the state by the golden-gamma constant and mixes it.
    /// Two streams with the same seed produce the same sequence.
    #[derive(Clone, Debug)]
    pub struct SplitMix64 {
        state: u64,
    }

    impl SplitMix64 {
        /// Starts a stream at the given seed.
        pub fn new(seed: u64) -> Self {
            Self { state: seed }
        }

        /// Next 64-bit value in the stream.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `0..bound` (`0` when `bound == 0`).
        pub fn next_below(&mut self, bound: u64) -> u64 {
            if bound == 0 {
                0
            } else {
                self.next_u64() % bound
            }
        }
    }
}

/// The `gnnmls-faults` `QueueOverflow` seam fires inside `try_push`, so
/// tests can force the full path deterministically regardless of
/// timing.
pub mod queue {
    use std::collections::VecDeque;
    use std::sync::{Condvar, Mutex, PoisonError};

    use gnnmls_faults::{fire, FaultSite};

    /// Why a `try_push` was refused.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum PushError {
        /// The queue holds `capacity` jobs; shed load.
        Full,
        /// The queue was closed; no new jobs are accepted.
        Closed,
    }

    impl std::fmt::Display for PushError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                PushError::Full => f.write_str("queue full"),
                PushError::Closed => f.write_str("queue closed"),
            }
        }
    }

    impl std::error::Error for PushError {}

    struct Inner<T> {
        jobs: VecDeque<T>,
        closed: bool,
    }

    /// The bounded MPMC queue. Share via `Arc`.
    pub struct BoundedQueue<T> {
        capacity: usize,
        inner: Mutex<Inner<T>>,
        ready: Condvar,
    }

    impl<T> BoundedQueue<T> {
        /// A queue holding at most `capacity` jobs (min 1).
        pub fn new(capacity: usize) -> Self {
            Self {
                capacity: capacity.max(1),
                inner: Mutex::new(Inner {
                    jobs: VecDeque::new(),
                    closed: false,
                }),
                ready: Condvar::new(),
            }
        }

        /// Maximum number of queued jobs.
        pub fn capacity(&self) -> usize {
            self.capacity
        }

        /// Current queue depth (racy; for stats only).
        pub fn len(&self) -> usize {
            self.inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .jobs
                .len()
        }

        /// Whether the queue is currently empty (racy; for stats only).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Enqueues a job without blocking; a full or closed queue
        /// refuses with a typed error and returns the job to the caller.
        pub fn try_push(&self, job: T) -> Result<(), (T, PushError)> {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            if inner.closed {
                return Err((job, PushError::Closed));
            }
            if inner.jobs.len() >= self.capacity || fire(FaultSite::QueueOverflow) {
                return Err((job, PushError::Full));
            }
            inner.jobs.push_back(job);
            drop(inner);
            self.ready.notify_one();
            Ok(())
        }

        /// Re-enqueues a job at the *front* of the queue, bypassing the
        /// capacity bound. For supervisors returning a job recovered
        /// from a dead worker: the job was already admitted once, so it
        /// must not be shed a second time. Fails only when the queue is
        /// closed (the job belongs to the drain at that point).
        pub fn requeue(&self, job: T) -> Result<(), (T, PushError)> {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            if inner.closed {
                return Err((job, PushError::Closed));
            }
            inner.jobs.push_front(job);
            drop(inner);
            self.ready.notify_one();
            Ok(())
        }

        /// Blocks until a job is available or the queue is closed and
        /// drained (`None`).
        pub fn pop(&self) -> Option<T> {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = inner.jobs.pop_front() {
                    return Some(job);
                }
                if inner.closed {
                    return None;
                }
                inner = self
                    .ready
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        /// Drains every currently queued job without blocking. Used by
        /// batching consumers to coalesce queued work into one pass.
        pub fn drain(&self) -> Vec<T> {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner.jobs.drain(..).collect()
        }

        /// Closes the queue: new pushes fail, consumers drain what is
        /// left and then see `None`.
        pub fn close(&self) {
            let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            inner.closed = true;
            drop(inner);
            self.ready.notify_all();
        }

        /// Whether [`close`](Self::close) was called.
        pub fn is_closed(&self) -> bool {
            self.inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .closed
        }
    }
}

struct SlotWriter<R>(*mut Option<R>);

// SAFETY: workers write disjoint slots (see try_par_map_with) and the
// pointee outlives the scope that shares the pointer.
unsafe impl<R: Send> Send for SlotWriter<R> {}
unsafe impl<R: Send> Sync for SlotWriter<R> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_serial_for_any_thread_count() {
        let expect: Vec<usize> = (0..257).map(|i| i * 3 + 1).collect();
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 4, 8] {
            let got = par_map(threads, &items, |&i| i * 3 + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn slice_map_preserves_order() {
        let items: Vec<String> = (0..64).map(|i| format!("n{i}")).collect();
        let got = par_map(4, &items, |s| s.len());
        let expect: Vec<usize> = items.iter().map(|s| s.len()).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn scratch_is_per_worker() {
        let n = 100;
        // Parallel: per-worker counters each start at zero and never
        // exceed the number of items.
        let parallel = try_par_map_with(
            4,
            n,
            || 0usize,
            |count, _i| {
                *count += 1;
                *count
            },
        )
        .unwrap();
        assert!(parallel.iter().all(|&c| c >= 1 && c <= n));
        // Serial path: one scratch sees every item in order.
        let serial = recovering_par_map_with(
            1,
            n,
            || 0usize,
            |count, _i| {
                *count += 1;
                *count
            },
        )
        .unwrap();
        assert_eq!(serial, (1..=n).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map(4, &[] as &[usize], |&i| i), Vec::<usize>::new());
        assert_eq!(par_map(4, &[0usize], |&i| i + 10), vec![10]);
        let none = recovering_par_map_with(4, 0, || (), |(), i| i).unwrap();
        assert_eq!(none, Vec::<usize>::new());
        let one = recovering_par_map(4, &[5usize], |&i| i + 10).unwrap();
        assert_eq!(one, vec![15]);
    }

    #[test]
    fn zero_means_all_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
        let items: Vec<usize> = (0..50).collect();
        assert_eq!(par_map(0, &items, |&i| i), items);
        assert_eq!(recovering_par_map(0, &items, |&i| i).unwrap(), items);
    }

    #[test]
    #[should_panic(expected = "worker panicked at item 7")]
    fn worker_panics_propagate_with_index() {
        let items: Vec<usize> = (0..16).collect();
        par_map(4, &items, |&i| {
            if i == 7 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn try_map_reports_failing_index() {
        for threads in [1, 4] {
            let err = try_par_map_with(
                threads,
                16,
                || (),
                |(), i| {
                    if i == 5 || i == 9 {
                        panic!("kaput");
                    }
                    i
                },
            )
            .unwrap_err();
            // The lowest failing index wins.
            assert_eq!(err.index, 5, "threads={threads}");
            assert_eq!(err.message, "kaput");
        }
    }

    #[test]
    fn try_map_succeeds_without_panics() {
        let got = try_par_map_with(4, 33, || (), |(), i| i * 2).unwrap();
        assert_eq!(got, (0..33).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn injected_worker_panic_recovers_serially() {
        let plan = gnnmls_faults::FaultPlan::single(gnnmls_faults::FaultSite::WorkerPanic, 1);
        let guard = gnnmls_faults::install(&plan);
        let before = recovered_panics();
        let got = recovering_par_map_with(4, 20, || (), |(), i| i + 1).unwrap();
        assert_eq!(got, (1..=20).collect::<Vec<_>>());
        assert_eq!(recovered_panics(), before + 1);
        drop(guard);
    }

    #[test]
    fn workers_emit_into_the_callers_trace_sink() {
        let sink = std::sync::Arc::new(gnnmls_obs::MemorySink::new());
        let guard = gnnmls_obs::install_guarded(sink.clone());
        let items: Vec<usize> = (0..8).collect();
        par_map(4, &items, |&i| {
            gnnmls_obs::event("item", &[("i", gnnmls_obs::FieldValue::from(i))]);
        });
        drop(guard);
        assert_eq!(sink.lines().len(), 8);
    }

    #[test]
    fn bounded_queue_backpressure_and_drain() {
        let q = queue::BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        match q.try_push(3) {
            Err((job, queue::PushError::Full)) => assert_eq!(job, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
        assert_eq!(q.drain(), vec![2, 3]);
        q.close();
        match q.try_push(4) {
            Err((4, queue::PushError::Closed)) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn requeue_bypasses_capacity_and_jumps_the_line() {
        let q = queue::BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        // Full for new work, but a recovered job still goes back —
        // at the front, so it is re-handled before later admissions.
        assert!(matches!(q.try_push(3), Err((3, queue::PushError::Full))));
        assert!(q.requeue(9).is_ok());
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(9));
        assert_eq!(q.pop(), Some(1));
        q.close();
        match q.requeue(10) {
            Err((10, queue::PushError::Closed)) => {}
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bounded_queue_threaded_handoff() {
        use std::sync::Arc;
        let q = Arc::new(queue::BoundedQueue::new(8));
        let n = 200usize;
        let producers = 4;
        let consumers = 3;
        let mut seen = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for c in 0..consumers {
                let q = Arc::clone(&q);
                handles.push((
                    c,
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        while let Some(v) = q.pop() {
                            got.push(v);
                        }
                        got
                    }),
                ));
            }
            scope.spawn(|| {
                std::thread::scope(|inner| {
                    for p in 0..producers {
                        let q = &q;
                        inner.spawn(move || {
                            for i in 0..n / producers {
                                let v = p * (n / producers) + i;
                                loop {
                                    match q.try_push(v) {
                                        Ok(()) => break,
                                        Err((_, queue::PushError::Full)) => {
                                            std::thread::yield_now()
                                        }
                                        Err((_, queue::PushError::Closed)) => {
                                            panic!("closed early")
                                        }
                                    }
                                }
                            }
                        });
                    }
                });
                q.close();
            });
            for (_, h) in handles {
                seen.extend(h.join().expect("consumer"));
            }
        });
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..n).collect::<Vec<_>>(),
            "no lost or duplicated jobs"
        );
    }

    #[test]
    fn queue_overflow_fault_forces_full() {
        let plan = gnnmls_faults::FaultPlan::single(gnnmls_faults::FaultSite::QueueOverflow, 1);
        let guard = gnnmls_faults::install(&plan);
        let q = queue::BoundedQueue::new(16);
        match q.try_push(7) {
            Err((7, queue::PushError::Full)) => {}
            other => panic!("expected injected Full, got {other:?}"),
        }
        assert!(q.try_push(7).is_ok(), "one shot only");
        drop(guard);
    }

    #[test]
    fn env_threads_is_typed() {
        // Do not mutate the process env here (tests run threaded); just
        // check the unset/ok contract holds for whatever CI exports.
        match env_threads() {
            Ok(None) | Ok(Some(_)) => {}
            Err(e) => panic!("CI exported a malformed GNNMLS_THREADS: {e}"),
        }
        let err = ThreadsEnvError {
            value: "abc".into(),
        };
        assert!(err.to_string().contains("abc"));
    }

    #[test]
    fn persistent_panic_surfaces_as_typed_error() {
        let err = recovering_par_map_with(
            4,
            8,
            || (),
            |(), i| {
                if i == 3 {
                    panic!("always fails");
                }
                i
            },
        )
        .unwrap_err();
        assert_eq!(err.index, 3);
        assert_eq!(err.message, "always fails");
    }
}
