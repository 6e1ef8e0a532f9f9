//! Job-scoped trace correlation: a [`TraceContext`] that rides across
//! thread boundaries and a bounded per-trace span store.
//!
//! The span layer ([`crate::span`]) nests spans per thread, which is
//! exactly right *within* a thread and exactly wrong the moment a job
//! hops from an accept loop to a queue to a worker to a sandbox thread:
//! each hop starts a fresh thread-local stack and the job's trace
//! shatters into unrelated forests. This module restores the identity:
//!
//! - a **trace id** ([`TraceId`], 16 lowercase hex digits — the same
//!   space `ethainter serve` job ids print in) names the causal unit
//!   (one job, one contract);
//! - a **[`TraceContext`]** pairs the trace id with a parent span id.
//!   [`current`] captures the opening thread's context, the closure
//!   running on the other side of the hop re-[`install`]s it, and every
//!   span opened there records the trace id and parents under the
//!   captured span — one tree per job, whatever threads it crossed;
//! - a **per-trace span store** ([`retain`] / [`spans_for`] /
//!   [`discard`]) keeps a bounded copy of every span a retained trace
//!   records, independent of the lossy global ring, so `GET
//!   /jobs/<id>/trace` can hand back a *complete* tree long after the
//!   ring has churned past it.
//!
//! Trace ids live only in telemetry output (span JSONL, the trace
//! routes, events). They never enter analysis results, cache entries,
//! or `merged.jsonl` — the byte-identity guarantees of the store layer
//! do not know this module exists.

use crate::spans::{self, SpanRecord};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Spans kept per retained trace; one analysis job produces a handful,
/// so thousands means a runaway loop — cap and count, never grow.
const MAX_SPANS_PER_TRACE: usize = 4096;

/// Retained traces kept at once; the oldest retained trace is evicted
/// beyond this (the server additionally discards on job eviction).
const MAX_RETAINED_TRACES: usize = 8192;

/// A 16-hex-digit trace identifier. The server reuses its job-id space
/// (`TraceId(job.id.0)`, top bit always clear); standalone mints
/// ([`mint`]) set the top bit so CLI/batch traces can never collide
/// with server job ids inside one process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The null id: "no trace installed".
    pub const NONE: TraceId = TraceId(0);

    /// True for the null id.
    pub fn is_none(&self) -> bool {
        self.0 == 0
    }

    /// Parses the 16-hex-digit display form.
    pub fn parse(s: &str) -> Result<TraceId, String> {
        if s.len() != 16 || !s.chars().all(|c| c.is_ascii_hexdigit()) {
            return Err(format!("trace id must be 16 hex digits, got `{s}`"));
        }
        u64::from_str_radix(s, 16).map(TraceId).map_err(|e| e.to_string())
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl Serialize for TraceId {
    fn serialize(&self) -> serde_json::Value {
        serde_json::Value::Str(self.to_string())
    }
}

impl Deserialize for TraceId {
    fn deserialize(v: &serde_json::Value) -> Result<TraceId, serde_json::Error> {
        match v {
            serde_json::Value::Str(s) => {
                TraceId::parse(s).map_err(serde_json::Error::custom)
            }
            // Tolerate the numeric form for hand-written fixtures.
            serde_json::Value::UInt(n) => Ok(TraceId(*n)),
            _ => Err(serde_json::Error::custom("trace id must be a hex string")),
        }
    }
}

/// What crosses a thread boundary: the trace id plus the span to parent
/// under on the far side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every span on the far side will carry.
    pub trace: TraceId,
    /// The span id the far side's top-level spans parent under
    /// (0 = they become roots).
    pub parent_span: u64,
}

/// The calling thread's context: its installed trace id and its current
/// span. Capture this *before* a thread hop and [`install`] it on the
/// other side.
pub fn current() -> TraceContext {
    TraceContext { trace: TraceId(spans::current_trace()), parent_span: spans::current_span() }
}

/// Mints a process-unique trace id for work that was not born from a
/// server job (CLI `trace`, per-contract batch spans). The top bit is
/// set so minted ids and server job ids (which keep it clear) occupy
/// disjoint halves of the id space.
pub fn mint() -> TraceId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    TraceId(0x8000_0000_0000_0000 | NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Restores the previous thread-local context when dropped.
#[derive(Debug)]
pub struct ContextGuard {
    prev_trace: u64,
    prev_span: u64,
}

/// Installs `ctx` on the current thread: until the returned guard
/// drops, spans opened here carry `ctx.trace` and top-level spans
/// parent under `ctx.parent_span`.
pub fn install(ctx: TraceContext) -> ContextGuard {
    let prev_trace = spans::set_current_trace(ctx.trace.0);
    let prev_span = spans::set_current_span(ctx.parent_span);
    ContextGuard { prev_trace, prev_span }
}

/// [`install`] with no parent span: the root context of a new trace.
pub fn root(id: TraceId) -> ContextGuard {
    install(TraceContext { trace: id, parent_span: 0 })
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        spans::set_current_trace(self.prev_trace);
        spans::set_current_span(self.prev_span);
    }
}

// ---------------------------------------------------------------------
// Per-trace span store.

struct TraceBuf {
    spans: Vec<SpanRecord>,
    dropped: u64,
}

#[derive(Default)]
struct TraceStore {
    map: HashMap<u64, TraceBuf>,
    /// Retention order, for bounded eviction of the oldest trace.
    order: VecDeque<u64>,
    dropped: u64,
}

fn store() -> &'static Mutex<TraceStore> {
    static S: OnceLock<Mutex<TraceStore>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(TraceStore::default()))
}

fn lock_store() -> std::sync::MutexGuard<'static, TraceStore> {
    store().lock().unwrap_or_else(|e| e.into_inner())
}

/// Fast-path gate: [`sink_record`] runs on every span record, so when
/// nothing is retained it must cost one relaxed load, not a lock.
static RETAINED: AtomicUsize = AtomicUsize::new(0);

/// Begins capturing spans for `id`: from now until [`discard`], every
/// span recorded anywhere in the process under this trace is copied
/// into a dedicated buffer (bounded at 4096 spans).
/// Retaining an already-retained trace is a no-op. Beyond
/// 8192 concurrent traces, the oldest is evicted.
pub fn retain(id: TraceId) {
    if id.is_none() {
        return;
    }
    let mut s = lock_store();
    if s.map.contains_key(&id.0) {
        return;
    }
    while s.order.len() >= MAX_RETAINED_TRACES {
        if let Some(old) = s.order.pop_front() {
            s.map.remove(&old);
        }
    }
    s.map.insert(id.0, TraceBuf { spans: Vec::new(), dropped: 0 });
    s.order.push_back(id.0);
    RETAINED.store(s.map.len(), Ordering::Relaxed);
}

/// Drops the retained buffer for `id` (job eviction, CLI cleanup).
pub fn discard(id: TraceId) {
    let mut s = lock_store();
    if s.map.remove(&id.0).is_some() {
        s.order.retain(|&t| t != id.0);
    }
    RETAINED.store(s.map.len(), Ordering::Relaxed);
}

/// A snapshot of every span the retained trace has recorded so far, in
/// record order; `None` when the trace was never retained (or has been
/// discarded/evicted).
pub fn spans_for(id: TraceId) -> Option<Vec<SpanRecord>> {
    lock_store().map.get(&id.0).map(|b| b.spans.clone())
}

/// Spans lost across all retained traces: per-trace cap overflow plus
/// records whose trace was evicted between record and store.
pub fn retained_spans_dropped() -> u64 {
    let s = lock_store();
    s.dropped + s.map.values().map(|b| b.dropped).sum::<u64>()
}

/// The span layer's hook: copies `rec` into its trace's retained
/// buffer, if that trace is retained. Called on every span record —
/// the `RETAINED` gate keeps the common (nothing-retained) case free.
pub(crate) fn sink_record(rec: &SpanRecord) {
    if rec.trace.is_none() || RETAINED.load(Ordering::Relaxed) == 0 {
        return;
    }
    let mut s = lock_store();
    match s.map.get_mut(&rec.trace.0) {
        Some(buf) if buf.spans.len() >= MAX_SPANS_PER_TRACE => buf.dropped += 1,
        Some(buf) => buf.spans.push(rec.clone()),
        None => {}
    }
}

// ---------------------------------------------------------------------
// Span trees.

/// One node of an assembled span tree: a span plus its children, with
/// the self-time (duration not covered by child spans) precomputed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// The span id.
    pub id: u64,
    /// The trace the span was recorded under.
    pub trace: TraceId,
    /// The span name, e.g. `"ethainter.fixpoint"`.
    pub name: String,
    /// Start offset in microseconds since the process trace epoch.
    pub start_us: u64,
    /// Total wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Duration minus the summed durations of direct children —
    /// the time spent in this phase itself.
    pub self_us: u64,
    /// Child spans, ordered by start time.
    pub children: Vec<SpanNode>,
}

impl Serialize for SpanNode {
    fn serialize(&self) -> serde_json::Value {
        serde_json::Value::Object(vec![
            ("id".to_string(), serde_json::Value::UInt(self.id)),
            ("trace".to_string(), Serialize::serialize(&self.trace)),
            ("name".to_string(), serde_json::Value::Str(self.name.clone())),
            ("start_us".to_string(), serde_json::Value::UInt(self.start_us)),
            ("dur_us".to_string(), serde_json::Value::UInt(self.dur_us)),
            ("self_us".to_string(), serde_json::Value::UInt(self.self_us)),
            (
                "children".to_string(),
                serde_json::Value::Array(
                    self.children.iter().map(Serialize::serialize).collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for SpanNode {
    fn deserialize(v: &serde_json::Value) -> Result<SpanNode, serde_json::Error> {
        let need = |k: &str| {
            v.get(k).ok_or_else(|| {
                serde_json::Error::custom(format!("span node missing `{k}`"))
            })
        };
        let uint = |k: &str| -> Result<u64, serde_json::Error> {
            match need(k)? {
                serde_json::Value::UInt(n) => Ok(*n),
                serde_json::Value::Int(n) if *n >= 0 => Ok(*n as u64),
                _ => Err(serde_json::Error::custom(format!("`{k}` must be a number"))),
            }
        };
        let name = match need("name")? {
            serde_json::Value::Str(s) => s.clone(),
            _ => return Err(serde_json::Error::custom("`name` must be a string")),
        };
        let children = match need("children")? {
            serde_json::Value::Array(items) => items
                .iter()
                .map(Deserialize::deserialize)
                .collect::<Result<Vec<SpanNode>, _>>()?,
            _ => return Err(serde_json::Error::custom("`children` must be an array")),
        };
        Ok(SpanNode {
            id: uint("id")?,
            trace: Deserialize::deserialize(need("trace")?)?,
            name,
            start_us: uint("start_us")?,
            dur_us: uint("dur_us")?,
            self_us: uint("self_us")?,
            children,
        })
    }
}

/// Assembles flat span records into a forest via their parent links.
/// Spans whose parent is absent from the slice become roots (a sandbox
/// span whose parent lives on another thread's record is still
/// anchored: the parent id *is* in the slice when the whole trace was
/// retained). Siblings are ordered by start time; `self_us` is each
/// span's duration minus its direct children's.
pub fn build_tree(records: &[SpanRecord]) -> Vec<SpanNode> {
    let present: std::collections::HashSet<u64> = records.iter().map(|r| r.id).collect();
    let mut nodes: HashMap<u64, SpanNode> = records
        .iter()
        .map(|r| {
            (
                r.id,
                SpanNode {
                    id: r.id,
                    trace: r.trace,
                    name: r.name.clone(),
                    start_us: r.start_us,
                    dur_us: r.dur_us,
                    self_us: r.dur_us,
                    children: Vec::new(),
                },
            )
        })
        .collect();
    // Attach children to parents deepest-first: process records sorted
    // by start time descending so a child is fully built (its own
    // children attached) before it moves into its parent.
    let mut order: Vec<&SpanRecord> = records.iter().collect();
    order.sort_by_key(|r| std::cmp::Reverse((r.start_us, r.id)));
    let mut roots = Vec::new();
    for r in order {
        let Some(mut node) = nodes.remove(&r.id) else { continue };
        node.children.sort_by_key(|c| (c.start_us, c.id));
        if r.parent != 0 && present.contains(&r.parent) {
            if let Some(parent) = nodes.get_mut(&r.parent) {
                parent.self_us = parent.self_us.saturating_sub(node.dur_us);
                parent.children.push(node);
                continue;
            }
        }
        roots.push(node);
    }
    roots.sort_by_key(|n| (n.start_us, n.id));
    roots
}

/// Renders a span forest as an indented text tree with total and self
/// time per phase — the `ethainter trace` output.
pub fn render_tree(roots: &[SpanNode]) -> String {
    fn walk(out: &mut String, node: &SpanNode, depth: usize) {
        let indent = "  ".repeat(depth);
        if node.children.is_empty() {
            out.push_str(&format!("{indent}{:<32} {:>8} µs\n", node.name, node.dur_us));
        } else {
            out.push_str(&format!(
                "{indent}{:<32} {:>8} µs  (self {} µs)\n",
                node.name, node.dur_us, node.self_us
            ));
        }
        for c in &node.children {
            walk(out, c, depth + 1);
        }
    }
    let mut out = String::new();
    for root in roots {
        walk(&mut out, root, 0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, trace: u64, name: &str, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            trace: TraceId(trace),
            name: name.to_string(),
            start_us: start,
            dur_us: dur,
        }
    }

    #[test]
    fn trace_ids_render_and_parse_as_16_hex() {
        let id = TraceId(0x2a);
        assert_eq!(id.to_string(), "000000000000002a");
        assert_eq!(TraceId::parse("000000000000002a").unwrap(), id);
        assert!(TraceId::parse("2a").is_err());
        let v = Serialize::serialize(&id);
        assert_eq!(v, serde_json::Value::Str("000000000000002a".into()));
        let back: TraceId = Deserialize::deserialize(&v).unwrap();
        assert_eq!(back, id);
    }

    #[test]
    fn minted_ids_are_unique_and_disjoint_from_job_ids() {
        let a = mint();
        let b = mint();
        assert_ne!(a, b);
        assert!(a.0 & 0x8000_0000_0000_0000 != 0, "minted ids carry the top bit");
    }

    #[test]
    fn tree_assembly_computes_self_time_and_nesting() {
        // root(100µs) { fix(60µs), sink(30µs) { det(20µs) } }
        let records = vec![
            rec(1, 0, 7, "root", 0, 100),
            rec(2, 1, 7, "fix", 5, 60),
            rec(3, 1, 7, "sink", 70, 30),
            rec(4, 3, 7, "det", 71, 20),
        ];
        let roots = build_tree(&records);
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.self_us, 10, "100 - 60 - 30");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "fix");
        let sink = &root.children[1];
        assert_eq!(sink.self_us, 10, "30 - 20");
        assert_eq!(sink.children[0].name, "det");

        // Round-trip through the wire form.
        let json = serde_json::to_string(&roots[0]).unwrap();
        let back: SpanNode = serde_json::from_str(&json).unwrap();
        assert_eq!(back, roots[0]);
    }

    #[test]
    fn orphan_parents_become_roots() {
        let records = vec![rec(9, 1234, 7, "orphan", 0, 5)];
        let roots = build_tree(&records);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "orphan");
    }

    #[test]
    fn render_is_indented_by_depth() {
        let records =
            vec![rec(1, 0, 7, "a", 0, 10), rec(2, 1, 7, "b", 1, 5), rec(3, 2, 7, "c", 2, 1)];
        let text = render_tree(&build_tree(&records));
        assert!(text.contains("\n  b"), "{text}");
        assert!(text.contains("\n    c"), "{text}");
    }
}
