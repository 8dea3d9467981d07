//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. Spans are kept in memory while a traced run
//! measures and written out as JSON lines when it ends; the per-layer
//! metrics are computed from them.
//!
//! Untraced runs never enable the recorder, so a span costs one atomic
//! load and the two clock reads its caller makes anyway.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// This span's id (unique within the run).
    pub id: u64,
    /// Layer-qualified name, e.g. `sql.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was enabled.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was enabled.
    pub end_ns: u64,
    /// The span that caused this one (`0` for a root).
    pub parent: u64,
    /// The request or operation every span of one operation shares.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static RECORDER: OnceLock<Recorder> = OnceLock::new();

/// Start recording spans (for the rest of the process).
pub fn enable() {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    });
    ENABLED.store(true, Ordering::SeqCst);
}

/// Is the recorder on?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A fresh request id.
pub fn request_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Run `f` as span `name` of `request` under `parent`, returning its
/// result, its duration, and the span id (`0` when not recording).
pub fn span<T>(
    name: &'static str,
    request: u64,
    parent: u64,
    f: impl FnOnce(u64) -> T,
) -> (T, Duration, u64) {
    if !enabled() {
        let start = Instant::now();
        let out = f(0);
        return (out, start.elapsed(), 0);
    }
    let recorder = RECORDER.get().expect("enabled implies initialised");
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    let out = f(id);
    let end = Instant::now();
    let since =
        |t: Instant| u64::try_from(t.duration_since(recorder.epoch).as_nanos()).unwrap_or(u64::MAX);
    let record = Span {
        id,
        name,
        start_ns: since(start),
        end_ns: since(end),
        parent,
        request,
    };
    recorder
        .spans
        .lock()
        .expect("span buffer poisoned")
        .push(record);
    (out, end - start, id)
}

/// Run `f` over every span recorded so far, in completion order.
fn with_spans<T>(f: impl FnOnce(&[Span]) -> T) -> T {
    match RECORDER.get() {
        Some(recorder) => f(&recorder.spans.lock().expect("span buffer poisoned")),
        None => f(&[]),
    }
}

/// A watermark: spans started after this call have larger ids.
pub fn mark() -> u64 {
    NEXT_ID.load(Ordering::Relaxed)
}

/// Durations (ns) of every span called `name` recorded since `mark`.
pub fn durations(since: u64, name: &str) -> Vec<u64> {
    with_spans(|spans| {
        spans
            .iter()
            .filter(|s| s.id >= since && s.name == name)
            .map(Span::ns)
            .collect()
    })
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    with_spans(|spans| -> std::io::Result<()> {
        for s in spans {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.parent, s.request
            )?;
        }
        Ok(())
    })?;
    out.flush()
}
