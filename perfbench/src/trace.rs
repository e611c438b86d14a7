//! The traced run's instrumentation, all on the benchmark's side of the
//! program boundary: spans around the benchmark's calls into the
//! program's public functions, and a counting allocator.
//!
//! Both are off unless [`set_active`] turned them on, so the untraced run
//! pays one relaxed atomic load per span site and per allocation. Spans
//! are kept in memory and written out once, when the run ends
//! ([`write_report`]); a span's parent is the innermost span open on the
//! same thread, so a parent's self time is its duration minus the sum of
//! its children's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans kept in memory beyond this count are dropped (and counted), so
/// a long traced run cannot exhaust memory; 48 bytes each.
const MAX_SPANS: usize = 1 << 20;

/// Spans written to the trace file; the per-name totals cover all kept
/// spans.
const WRITTEN_SPANS: usize = 20_000;

static ACTIVE: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Id of the innermost open span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations while tracing is active; otherwise the system
/// allocator with one relaxed load in front.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator, which
        // is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System` via this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count() {
    if ACTIVE.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Turns span recording and allocation counting on or off.
pub fn set_active(on: bool) {
    epoch();
    ACTIVE.store(on, Ordering::Relaxed);
}

/// Allocations counted while tracing was active.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn nanos(t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX)
}

/// One finished span; times are nanoseconds since the run's trace epoch.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    start: u64,
    end: u64,
}

/// A span that has begun and not yet ended; `None` inside when tracing
/// was off at [`begin`].
#[derive(Debug)]
pub struct Open(Option<(&'static str, u64, u64, Instant)>);

/// Begins a span whose parent is the innermost span open on this thread.
/// The span does not become the parent of later spans; use [`span`] for
/// that.
pub fn begin(name: &'static str) -> Open {
    if !ACTIVE.load(Ordering::Relaxed) {
        return Open(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    Open(Some((name, id, CURRENT.with(Cell::get), Instant::now())))
}

/// Ends a span begun with [`begin`] and records it.
pub fn end(open: Open) {
    if let Some((name, id, parent, start)) = open.0 {
        record(Span {
            name,
            id,
            parent,
            start: nanos(start),
            end: nanos(Instant::now()),
        });
    }
}

/// Runs `f` inside a span named `name`; spans begun inside `f` on this
/// thread are its children.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let open = begin(name);
    let Some((_, id, parent, _)) = open.0 else {
        return f();
    };
    CURRENT.with(|c| c.set(id));
    let out = f();
    CURRENT.with(|c| c.set(parent));
    end(open);
    out
}

fn record(span: Span) {
    let mut spans = SPANS
        .lock()
        .expect("a thread panicked while recording a span");
    if spans.len() < MAX_SPANS {
        spans.push(span);
    } else {
        DROPPED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Per-name totals over the kept spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus children), nanoseconds.
    pub self_ns: u64,
}

fn child_time(spans: &[Span]) -> HashMap<u64, u64> {
    let mut child: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child.entry(s.parent).or_default() += s.end - s.start;
    }
    child
}

/// Per-name totals of every span kept so far.
pub fn totals() -> BTreeMap<&'static str, Totals> {
    let spans = SPANS
        .lock()
        .expect("a thread panicked while recording a span");
    let child = child_time(&spans);
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans.iter() {
        let dur = s.end - s.start;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Writes the per-name totals, the first [`WRITTEN_SPANS`] spans (each
/// with its self time) and `header` (a JSON object body) to `path`.
pub fn write_report(path: &Path, header: &str) -> std::io::Result<()> {
    let totals = totals();
    let spans = SPANS
        .lock()
        .expect("a thread panicked while recording a span");
    let child = child_time(&spans);
    let mut out = format!(
        "{{{header},\"kept_spans\":{},\"dropped_spans\":{},\"totals\":{{",
        spans.len(),
        DROPPED.load(Ordering::Relaxed)
    );
    for (i, (name, t)) in totals.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            t.count, t.total_ns, t.self_ns
        );
    }
    out.push_str("},\"spans\":[");
    for (i, s) in spans.iter().take(WRITTEN_SPANS).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let self_ns = (s.end - s.start).saturating_sub(child.get(&s.id).copied().unwrap_or(0));
        let _ = write!(
            out,
            "{sep}{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            s.name, s.id, s.parent, s.start, s.end
        );
    }
    out.push_str("]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
