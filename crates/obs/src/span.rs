//! Span-scoped timers with parent/child nesting, plus point events.
//!
//! A [`Span`] is an RAII guard: creation notes the parent from a
//! thread-local stack, drop emits one JSONL record with the elapsed
//! wall time. When no sink is installed the guard is inert — no clock
//! read, no allocation, no thread-local write — so instrumented code
//! pays one relaxed atomic load per span.
//!
//! Wall-clock time appears **only** in the emitted record (`ts_ms`,
//! `elapsed_us`); nothing time-derived is ever returned to the caller,
//! keeping instrumented flows bit-identical with tracing on or off.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json;
use crate::metrics::counter_add;
use crate::sink::{emit_line, enabled};

/// A typed field value attached to a span or event.
#[derive(Clone, Debug)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (non-finite renders as `null`).
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(u64::from(v))
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

fn push_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(n) => out.push_str(&n.to_string()),
        FieldValue::I64(n) => out.push_str(&n.to_string()),
        FieldValue::F64(n) => json::push_f64(out, *n),
        FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        FieldValue::Str(s) => json::push_str(out, s),
    }
}

thread_local! {
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

struct SpanInner {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start: Instant,
    fields: Vec<(&'static str, FieldValue)>,
}

/// An in-flight span; drop emits the record. Inert when tracing is
/// disabled.
pub struct Span {
    inner: Option<SpanInner>,
}

/// Opens a span named `name`. The current thread's innermost open span
/// becomes its parent; the span closes (and emits) on drop.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(Some(id)));
    Span {
        inner: Some(SpanInner {
            name,
            id,
            parent,
            start: Instant::now(),
            fields: Vec::new(),
        }),
    }
}

impl Span {
    /// Whether this span will emit a record (i.e. tracing was enabled
    /// when it was opened).
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// This span's id (0 when inert).
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.id)
    }

    /// Attaches a field; no-op when inert.
    pub fn field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(inner) = self.inner.as_mut() {
            inner.fields.push((key, value.into()));
        }
    }

    /// [`field`](Self::field) for unsigned integers.
    pub fn field_u64(&mut self, key: &'static str, value: u64) {
        self.field(key, value);
    }

    /// [`field`](Self::field) for floats.
    pub fn field_f64(&mut self, key: &'static str, value: f64) {
        self.field(key, value);
    }

    /// [`field`](Self::field) for booleans (degradation flags).
    pub fn field_bool(&mut self, key: &'static str, value: bool) {
        self.field(key, value);
    }

    /// [`field`](Self::field) for strings.
    pub fn field_str(&mut self, key: &'static str, value: &str) {
        self.field(key, value);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        CURRENT.with(|c| c.set(inner.parent));
        let elapsed_us = inner.start.elapsed().as_micros() as u64;
        let mut out = String::with_capacity(128);
        out.push_str("{\"type\":\"span\",\"name\":");
        json::push_str(&mut out, inner.name);
        out.push_str(&format!(",\"id\":{}", inner.id));
        match inner.parent {
            Some(p) => out.push_str(&format!(",\"parent\":{p}")),
            None => out.push_str(",\"parent\":null"),
        }
        out.push_str(&format!(
            ",\"ts_ms\":{},\"elapsed_us\":{}",
            now_ms(),
            elapsed_us
        ));
        push_fields(&mut out, &inner.fields);
        out.push('}');
        emit_line(&out);
    }
}

fn push_fields(out: &mut String, fields: &[(&'static str, FieldValue)]) {
    out.push_str(",\"fields\":{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_str(out, k);
        out.push(':');
        push_value(out, v);
    }
    out.push('}');
}

/// Emits a point event (no duration) under the current span, if
/// tracing is enabled.
pub fn event(name: &'static str, fields: &[(&'static str, FieldValue)]) {
    if !enabled() {
        return;
    }
    let parent = CURRENT.with(|c| c.get());
    let mut out = String::with_capacity(96);
    out.push_str("{\"type\":\"event\",\"name\":");
    json::push_str(&mut out, name);
    match parent {
        Some(p) => out.push_str(&format!(",\"parent\":{p}")),
        None => out.push_str(",\"parent\":null"),
    }
    out.push_str(&format!(",\"ts_ms\":{}", now_ms()));
    push_fields(&mut out, fields);
    out.push('}');
    emit_line(&out);
}

/// A library diagnostic: replaces `eprintln!` in library crates.
///
/// Always counts into the labeled counter
/// `gnnmls_warnings_total{module=...}` (visible in the Metrics
/// exposition even without a trace sink) and, when tracing is enabled,
/// also emits a `warn` event carrying the message.
pub fn warn(module: &'static str, message: &str) {
    counter_add("gnnmls_warnings_total", &[("module", module)], 1);
    if enabled() {
        event(
            "warn",
            &[
                ("module", FieldValue::Str(module.to_string())),
                ("message", FieldValue::Str(message.to_string())),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{install_guarded, MemorySink};
    use std::sync::Arc;

    fn extract_u64(line: &str, key: &str) -> Option<u64> {
        let pat = format!("\"{key}\":");
        let at = line.find(&pat)? + pat.len();
        let rest = &line[at..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    fn extract_name(line: &str) -> Option<String> {
        let pat = "\"name\":\"";
        let at = line.find(pat)? + pat.len();
        let rest = &line[at..];
        Some(rest[..rest.find('"')?].to_string())
    }

    #[test]
    fn disabled_spans_are_inert() {
        // No sink on this thread (other tests' sinks are scoped to
        // theirs): a span must report inactive and carry id 0.
        let mut s = span("inert");
        assert!(!s.is_active());
        assert_eq!(s.id(), 0);
        s.field_u64("x", 1);
        drop(s);
    }

    #[test]
    fn nesting_parent_child_and_close_order() {
        let mem = Arc::new(MemorySink::new());
        let guard = install_guarded(mem.clone());

        let outer = span("outer");
        let outer_id = outer.id();
        {
            let mid = span("mid");
            let mid_id = mid.id();
            {
                let inner = span("inner");
                assert!(inner.id() > mid_id && mid_id > outer_id);
            }
            // A sibling opened after `inner` closed shares mid as parent.
            let _sib = span("sib");
        }
        drop(outer);
        drop(guard);

        let lines = mem.lines();
        let spans: Vec<(String, u64, Option<u64>)> = lines
            .iter()
            .filter(|l| l.contains("\"type\":\"span\""))
            .map(|l| {
                (
                    extract_name(l).unwrap(),
                    extract_u64(l, "id").unwrap(),
                    extract_u64(l, "parent"),
                )
            })
            .collect();
        let find = |n: &str| -> (u64, Option<u64>) {
            let (_, id, parent) = spans.iter().find(|(name, _, _)| name == n).unwrap();
            (*id, *parent)
        };
        let (outer_id, outer_parent) = find("outer");
        let (mid_id, mid_parent) = find("mid");
        let (_, inner_parent) = find("inner");
        let (_, sib_parent) = find("sib");
        assert_eq!(outer_parent, None);
        assert_eq!(mid_parent, Some(outer_id));
        assert_eq!(inner_parent, Some(mid_id));
        assert_eq!(sib_parent, Some(mid_id));
        // Children emit before their parents (close order).
        let order: Vec<&str> = spans.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(order, vec!["inner", "sib", "mid", "outer"]);
    }

    #[test]
    fn random_nesting_always_yields_consistent_parents() {
        // Pseudo-random span trees (seeded LCG, no external rand):
        // parents recorded in the trace must match the lexical stack.
        let mem = Arc::new(MemorySink::new());
        let guard = install_guarded(mem.clone());

        let mut state: u64 = 0x9e3779b97f4a7ce5;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };

        // Build a random tree of depth <= 6 with explicit expected
        // parent for every opened span.
        let mut expected: Vec<(u64, Option<u64>)> = Vec::new();
        fn grow(
            depth: usize,
            rng: &mut impl FnMut() -> u32,
            expected: &mut Vec<(u64, Option<u64>)>,
            parent: Option<u64>,
        ) {
            let kids = (rng)() % 3;
            for _ in 0..kids {
                let s = span("node");
                expected.push((s.id(), parent));
                if depth < 6 {
                    grow(depth + 1, &mut *rng, expected, Some(s.id()));
                }
            }
        }
        for _ in 0..8 {
            grow(0, &mut rng, &mut expected, None);
        }
        drop(guard);

        let lines = mem.lines();
        for (id, parent) in expected {
            let line = lines
                .iter()
                .find(|l| extract_u64(l, "id") == Some(id))
                .unwrap_or_else(|| panic!("span {id} missing from trace"));
            assert_eq!(extract_u64(line, "parent"), parent, "span {id}");
        }
    }

    #[test]
    fn events_and_fields_render_as_json() {
        let mem = Arc::new(MemorySink::new());
        let guard = install_guarded(mem.clone());
        let mut s = span("stage");
        s.field_u64("count", 7);
        s.field_bool("degraded", false);
        s.field_str("design", "maeri16");
        s.field_f64("ratio", 0.5);
        event("checkpoint", &[("slug", FieldValue::Str("x".into()))]);
        drop(s);
        drop(guard);
        let lines = mem.lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"type\":\"event\""));
        assert!(lines[0].contains("\"slug\":\"x\""));
        assert!(lines[1].contains("\"count\":7"));
        assert!(lines[1].contains("\"degraded\":false"));
        assert!(lines[1].contains("\"design\":\"maeri16\""));
        assert!(lines[1].contains("\"ratio\":0.5"));
        assert!(lines[1].contains("\"elapsed_us\":"));
    }

    #[test]
    fn warn_counts_even_without_sink() {
        let before =
            crate::metrics::dyn_counter_value("gnnmls_warnings_total", &[("module", "obs-test")]);
        warn("obs-test", "something degraded");
        assert_eq!(
            crate::metrics::dyn_counter_value("gnnmls_warnings_total", &[("module", "obs-test")]),
            before + 1
        );
    }
}
