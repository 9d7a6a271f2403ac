//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! program layer: name, start, end, parent span and a group id shared by
//! every span of one cell or request. Nothing is written while the
//! workload runs; [`write_json`] dumps the spans at the end. When the
//! recorder is disabled, [`span`] only runs its closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are seconds since the recorder was enabled.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub group: u64,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

struct Recorder {
    enabled: bool,
    origin: Instant,
    group: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        enabled: false,
        origin: Instant::now(),
        group: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off. Spans already recorded are kept.
pub fn set_enabled(on: bool) {
    REC.with(|r| r.borrow_mut().enabled = on);
}

/// Sets the group id stamped on spans opened from now on.
pub fn set_group(group: u64) {
    REC.with(|r| r.borrow_mut().group = group);
}

/// Runs `f` inside a span named `name` (a no-op wrapper when disabled).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.enabled {
            return None;
        }
        let start = r.origin.elapsed().as_secs_f64();
        let idx = r.spans.len();
        let parent = r.open.last().copied();
        let group = r.group;
        r.spans.push(Span {
            name,
            group,
            start,
            end: start,
            parent,
        });
        r.open.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let end = r.origin.elapsed().as_secs_f64();
            r.spans[idx].end = end;
            r.open.pop();
        });
    }
    out
}

/// Index one past the last recorded span (a mark for [`self_times_since`]).
pub fn mark() -> usize {
    REC.with(|r| r.borrow().spans.len())
}

/// Self time per span name over the spans recorded since `mark`: each
/// span's duration minus the part its direct children cover.
pub fn self_times_since(mark: usize) -> BTreeMap<&'static str, f64> {
    REC.with(|r| {
        let r = r.borrow();
        let spans = &r.spans[mark..];
        let mut child_time = vec![0.0f64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= mark) {
                child_time[p - mark] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_time) {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start - child).max(0.0);
        }
        out
    })
}

/// Writes every recorded span to `path` as a JSON array.
pub fn write_json(path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    REC.with(|r| -> std::io::Result<()> {
        let r = r.borrow();
        writeln!(out, "[")?;
        for (i, s) in r.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let sep = if i + 1 == r.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"group\":{},\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}{sep}",
                s.name, s.group, s.start, s.end
            )?;
        }
        writeln!(out, "]")
    })?;
    out.flush()
}
