//! In-memory span recorder for the traced walk.
//!
//! Every span names the layer whose public function it wraps
//! (`<crate>.<call>`), carries the work unit it belongs to as its request
//! id and the span that caused it as its parent, and stays in memory
//! until the run writes all spans out at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub name: &'static str,
    /// Request id: the (scenario, chip) unit index, or `usize::MAX` for
    /// set-up work shared by every unit.
    pub unit: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Request id of set-up spans.
pub const SETUP: usize = usize::MAX;

pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A recording context for spans of request `unit` caused by `parent`.
    pub fn ctx(&self, unit: usize, parent: u64) -> Ctx<'_> {
        Ctx {
            rec: self,
            unit,
            parent,
        }
    }

    /// Adds `n` to the named counter.
    pub fn count(&self, name: &'static str, n: u64) {
        *self
            .counts
            .lock()
            .expect("counter lock poisoned by a panicking walker")
            .entry(name)
            .or_default() += n;
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking walker")
            .clone()
    }

    pub fn counts(&self) -> BTreeMap<&'static str, u64> {
        self.counts
            .lock()
            .expect("counter lock poisoned by a panicking walker")
            .clone()
    }
}

/// Where new spans go: the recorder, their request id and their parent.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    rec: &'a Recorder,
    unit: usize,
    parent: u64,
}

impl<'a> Ctx<'a> {
    /// Runs `f` inside a span named `name`; `f` receives a context whose
    /// spans are children of this one.
    pub fn scope<R>(&self, name: &'static str, f: impl FnOnce(Ctx<'a>) -> R) -> R {
        let id = self.rec.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.rec.now_ns();
        let out = f(Ctx {
            rec: self.rec,
            unit: self.unit,
            parent: id,
        });
        let end_ns = self.rec.now_ns();
        self.rec
            .spans
            .lock()
            .expect("span lock poisoned by a panicking walker")
            .push(Span {
                id,
                parent: self.parent,
                name,
                unit: self.unit,
                start_ns,
                end_ns,
            });
        out
    }

    /// Runs `f` inside a leaf span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.scope(name, |_| f())
    }

    pub fn count(&self, name: &'static str, n: u64) {
        self.rec.count(name, n);
    }
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let unit = if s.unit == SETUP {
            "null".to_string()
        } else {
            s.unit.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"unit\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, unit, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
