//! Trace sinks: where emitted JSONL records go.
//!
//! A thread emits into its scoped sink ([`install_guarded`], carried
//! into `gnnmls-par` workers by [`TraceScope`]) when it has one, else
//! into the process-wide sink ([`install`], [`init_from_env`]). The
//! emission hot-path gate is a single relaxed atomic ([`enabled`]) when
//! no sink is installed anywhere; then spans are inert (no clock read,
//! no allocation) — the pattern the `gnnmls-faults` crate uses for its
//! `ARMED` count, benched by the `obs-overhead` bench.

use std::cell::RefCell;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Environment variable naming the JSONL trace file.
pub const TRACE_ENV: &str = "GNNMLS_TRACE";

/// A destination for emitted JSONL records.
pub trait Sink: Send + Sync {
    /// Receives one complete JSON object (no trailing newline).
    fn emit(&self, line: &str);
}

/// Bit 0: a process-wide sink is installed. The rest counts live
/// scoped sinks, in steps of [`SCOPED_ONE`].
static STATE: AtomicUsize = AtomicUsize::new(0);
const GLOBAL_BIT: usize = 1;
const SCOPED_ONE: usize = 2;

static SINK: Mutex<Option<Arc<dyn Sink>>> = Mutex::new(None);

thread_local! {
    static SCOPED: RefCell<Option<Arc<dyn Sink>>> = const { RefCell::new(None) };
}

/// The calling thread's scoped sink, if any (`None` during teardown).
fn thread_sink() -> Option<Arc<dyn Sink>> {
    SCOPED.try_with(|s| s.borrow().clone()).ok().flatten()
}

/// Makes `sink` the calling thread's scoped sink; returns the old one.
fn set_thread_sink(sink: Option<Arc<dyn Sink>>) -> Option<Arc<dyn Sink>> {
    SCOPED
        .try_with(|s| std::mem::replace(&mut *s.borrow_mut(), sink))
        .ok()
        .flatten()
}

/// Whether records emitted on this thread reach a sink. One relaxed
/// load when no sink is installed anywhere; callers use this to skip
/// building records entirely.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => false,
        state if state & GLOBAL_BIT != 0 => true,
        _ => SCOPED.try_with(|s| s.borrow().is_some()).unwrap_or(false),
    }
}

/// Installs `sink` as the process-wide trace destination and enables
/// emission on every thread without a scoped sink. Replaces any
/// previous process-wide sink.
pub fn install(sink: Arc<dyn Sink>) {
    *SINK.lock().unwrap_or_else(PoisonError::into_inner) = Some(sink);
    STATE.fetch_or(GLOBAL_BIT, Ordering::SeqCst);
}

/// Drops the process-wide sink. Scoped sinks stay installed.
pub fn uninstall() {
    STATE.fetch_and(!GLOBAL_BIT, Ordering::SeqCst);
    *SINK.lock().unwrap_or_else(PoisonError::into_inner) = None;
}

pub(crate) fn emit_line(line: &str) {
    let sink =
        thread_sink().or_else(|| SINK.lock().unwrap_or_else(PoisonError::into_inner).clone());
    if let Some(s) = sink {
        s.emit(line);
    }
}

/// Reads [`TRACE_ENV`] and, when set and non-empty, installs a
/// [`JsonlSink`] appending to that path.
///
/// Returns `Ok(true)` when a sink was installed, `Ok(false)` when the
/// variable is unset or empty.
///
/// # Errors
///
/// Propagates the I/O error when the trace file cannot be opened.
pub fn init_from_env() -> std::io::Result<bool> {
    match std::env::var(TRACE_ENV) {
        Ok(path) if !path.trim().is_empty() => {
            install(Arc::new(JsonlSink::append(path.trim())?));
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// Appends one JSON object per line to a file.
pub struct JsonlSink {
    file: Mutex<File>,
}

impl JsonlSink {
    /// Opens (creating if needed) `path` for append.
    ///
    /// # Errors
    ///
    /// Propagates the underlying open error.
    pub fn append<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self {
            file: Mutex::new(file),
        })
    }
}

impl Sink for JsonlSink {
    fn emit(&self, line: &str) {
        let mut f = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        // Trace records are best-effort; a full disk must not take the
        // flow down with it.
        let _ = writeln!(f, "{line}");
    }
}

/// Captures records in memory; the sink tests and the determinism
/// suite read them back.
#[derive(Default)]
pub struct MemorySink {
    lines: Mutex<Vec<String>>,
}

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of every record captured so far.
    pub fn lines(&self) -> Vec<String> {
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Drains and returns the captured records.
    pub fn take(&self) -> Vec<String> {
        std::mem::take(&mut *self.lines.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl Sink for MemorySink {
    fn emit(&self, line: &str) {
        self.lines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(line.to_string());
    }
}

/// A thread's scoped sink, as a handle that can be carried into the
/// threads it forks: `gnnmls-par` takes the caller's
/// [`TraceScope::current`] and [`enter`](TraceScope::enter)s it in every
/// worker, so a traced run captures its workers' records too.
#[derive(Clone, Default)]
pub struct TraceScope(Option<Arc<dyn Sink>>);

impl TraceScope {
    /// The calling thread's scoped sink (empty when it has none).
    pub fn current() -> Self {
        Self(thread_sink())
    }

    /// Makes this the calling thread's scoped sink until the guard
    /// drops. An empty scope is a no-op, so the thread keeps emitting
    /// into the process-wide sink, if any.
    pub fn enter(&self) -> TraceScopeGuard {
        TraceScopeGuard {
            prev: self.0.clone().map(|s| set_thread_sink(Some(s))),
            _thread: PhantomData,
        }
    }
}

/// RAII guard returned by [`TraceScope::enter`]; restores the thread's
/// previous scoped sink on drop.
#[must_use = "the scope is left when the guard drops"]
pub struct TraceScopeGuard {
    /// `Some(previous sink)` when a scope was entered.
    prev: Option<Option<Arc<dyn Sink>>>,
    /// Thread-local state: the guard must drop on the entering thread.
    _thread: PhantomData<*const ()>,
}

impl Drop for TraceScopeGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            set_thread_sink(prev);
        }
    }
}

/// A scoped sink installed by [`install_guarded`]; dropping it restores
/// the thread's previous scoped sink. Guards nest and must drop in
/// reverse order on the installing thread.
#[must_use = "the sink is uninstalled when the guard drops"]
pub struct SinkGuard {
    _scope: TraceScopeGuard,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        STATE.fetch_sub(SCOPED_ONE, Ordering::SeqCst);
    }
}

/// Installs `sink` for the calling thread and the `gnnmls-par` workers
/// it forks, until the guard drops. Records from other threads never
/// reach it, so concurrently running tests each capture exactly their
/// own run. Use in tests instead of [`install`].
pub fn install_guarded(sink: Arc<dyn Sink>) -> SinkGuard {
    STATE.fetch_add(SCOPED_ONE, Ordering::SeqCst);
    SinkGuard {
        _scope: TraceScope(Some(sink)).enter(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_uninstall_toggles_enabled() {
        let mem = Arc::new(MemorySink::new());
        let guard = install_guarded(mem.clone());
        assert!(enabled());
        emit_line("{\"t\":1}");
        drop(guard);
        assert!(!enabled());
        emit_line("{\"t\":2}");
        assert_eq!(mem.lines(), vec!["{\"t\":1}".to_string()]);
    }

    #[test]
    fn scoped_sink_captures_its_thread_and_entered_workers_only() {
        let mem = Arc::new(MemorySink::new());
        let guard = install_guarded(mem.clone());
        let scope = TraceScope::current();
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!enabled(), "an unscoped thread stays inert");
                emit_line("{\"from\":\"stranger\"}");
            });
            s.spawn(|| {
                let _in = scope.enter();
                assert!(enabled());
                emit_line("{\"from\":\"worker\"}");
            });
        });
        emit_line("{\"from\":\"owner\"}");
        drop(guard);
        let mut lines = mem.lines();
        lines.sort();
        assert_eq!(
            lines,
            vec![
                "{\"from\":\"owner\"}".to_string(),
                "{\"from\":\"worker\"}".to_string()
            ]
        );
    }

    #[test]
    fn jsonl_sink_appends_lines() {
        let path =
            std::env::temp_dir().join(format!("gnnmls-obs-sink-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let sink = JsonlSink::append(&path).unwrap();
            sink.emit("{\"a\":1}");
            sink.emit("{\"b\":2}");
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "{\"a\":1}\n{\"b\":2}\n");
        let _ = std::fs::remove_file(&path);
    }
}
