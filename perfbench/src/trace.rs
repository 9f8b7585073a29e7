//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into the workspace crates; the
//! program itself is not instrumented. Every span carries a name, start and
//! end, the id of the span that caused it, and the job id it belongs to.
//! Spans stay in memory until [`Recorder::write_jsonl`] runs at exit.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub job: Option<u64>,
    pub start: Instant,
    pub end: Instant,
}

/// Collects spans when enabled; otherwise every call is one branch.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Host time spent inside [`Recorder::record`], the recorder's own cost.
    cost_ns: AtomicU64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            cost_ns: AtomicU64::new(0),
        }
    }

    /// A fresh span id, so a parent can be named before its span ends.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under a pre-allocated `id`.
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        job: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let t = Instant::now();
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking client")
            .push(Span {
                id,
                parent,
                name,
                job,
                start,
                end,
            });
        self.cost_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Runs `f` inside a span and returns its result and duration in
    /// seconds. The duration is measured whether or not recording is on.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.id();
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.record(id, parent, name, None, start, end);
        (out, (end - start).as_secs_f64())
    }

    /// Host seconds spent recording spans.
    pub fn cost_s(&self) -> f64 {
        self.cost_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Writes one JSON object per span, ordered by start time. `self_s` is
    /// the span's duration minus the part of it that child spans cover.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> io::Result<()> {
        let mut spans = self
            .spans
            .lock()
            .expect("span recorder poisoned by a panicking client")
            .clone();
        spans.sort_by_key(|s| (s.start, s.id));
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in &spans {
            let secs = |t: Instant| (t - self.origin).as_secs_f64();
            let mut children: Vec<(f64, f64)> = spans
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| (secs(c.start), secs(c.end)))
                .collect();
            children.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (start, end) in children {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                }
                reach = reach.max(end);
            }
            let (start, end) = (secs(s.start), secs(s.end));
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"job\":{},\"start_s\":{start},\"end_s\":{end},\"self_s\":{}}}",
                s.id,
                opt(s.parent),
                s.name,
                opt(s.job),
                (end - start - covered).max(0.0)
            )?;
        }
        out.flush()
    }
}
