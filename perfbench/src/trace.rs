//! Outside-in span recording for the traced run.
//!
//! The program is not instrumented. Instead the traced run replays each
//! statement through lower and lower public entry points (wire client,
//! embedded session, parser, table function, R-tree, geometry
//! predicates, ...) and records one span per call. A replay is the
//! logical child of the call one layer up: it repeats the part of the
//! parent's work that belongs to the lower layers, so
//!
//! ```text
//! self(span) = duration(span) - sum(duration(child) * scale(child))
//! ```
//!
//! is the time the parent's own layer added. `scale` is `1/dop` for a
//! serial replay of work the parent ran on `dop` slaves, so the
//! parallel parent is only charged for the share a perfect split would
//! leave (the rest is scheduling, imbalance and pool cost, which is the
//! parent's layer). A span's self time is weighted by the scales on its
//! path to the root, so the self times of one request add up to its
//! wire time exactly. Self times are not clamped: when a replay runs
//! longer than its parent, the parent's self time goes negative, which
//! shows that the layer's cost is below the run-to-run noise. Spans are
//! kept in memory and written out when the run ends.

use crate::stats::{json_num, json_str, median};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// The workspace crates a statement's time is split across.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `sdo-server`: wire protocol, admission.
    Server,
    /// `sdo-dbms`: parse, plan, operators, parallel exchange.
    Dbms,
    /// `sdo-core`: SPATIAL_JOIN table function, index creation.
    Core,
    /// `sdo-tablefunc`: slave pool, work-stealing scheduler.
    Tablefunc,
    /// `sdo-rtree`.
    Rtree,
    /// `sdo-geom`: geometry predicates.
    Geom,
    /// `sdo-quadtree`: tessellation.
    Quadtree,
    /// `sdo-storage`: heap, WAL.
    Storage,
    /// `sdo-txn`: transactions.
    Txn,
    /// The load generator itself: how late an open-loop request was
    /// sent after its due time.
    Bench,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 10] = [
    Layer::Server,
    Layer::Dbms,
    Layer::Core,
    Layer::Tablefunc,
    Layer::Rtree,
    Layer::Geom,
    Layer::Quadtree,
    Layer::Storage,
    Layer::Txn,
    Layer::Bench,
];

impl Layer {
    /// Metric-name form of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Server => "server",
            Layer::Dbms => "dbms",
            Layer::Core => "core",
            Layer::Tablefunc => "tablefunc",
            Layer::Rtree => "rtree",
            Layer::Geom => "geom",
            Layer::Quadtree => "quadtree",
            Layer::Storage => "storage",
            Layer::Txn => "txn",
            Layer::Bench => "bench",
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index into the tracer's span list.
    pub id: usize,
    /// The call one layer up that this call replays part of.
    pub parent: Option<usize>,
    /// Request the span belongs to (one per load-generator statement).
    pub req: u64,
    /// Statement class slot (0-based) of the request.
    pub class: usize,
    /// Entry point called.
    pub name: &'static str,
    /// Layer the call's self time is charged to.
    pub layer: Layer,
    /// Start, since the tracer was created.
    pub start: Duration,
    /// End, since the tracer was created.
    pub end: Duration,
    /// Share of this span's duration its parent covers (`1/dop` for a
    /// serial replay of parallel work, else 1).
    pub scale: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// What the trace says about one class slot.
pub struct ClassTrace {
    /// Median self time per layer (ms) over the replayed requests.
    pub self_ms: BTreeMap<Layer, f64>,
    /// Requests whose replay ran.
    pub replayed: usize,
    /// Median root time (ms) over all traced requests: the wire call,
    /// from its due time for open loops.
    pub wire_p50: f64,
}

/// Where the next span hangs: its request, class and parent.
#[derive(Debug, Clone, Copy)]
pub struct At {
    req: u64,
    class: usize,
    parent: Option<usize>,
}

/// In-memory span recorder (single-threaded: the traced run replays
/// one statement at a time).
pub struct Tracer {
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    next_req: RefCell<u64>,
}

impl Tracer {
    /// Empty recorder; span times count from now.
    pub fn new() -> Self {
        Tracer { t0: Instant::now(), spans: RefCell::new(Vec::new()), next_req: RefCell::new(0) }
    }

    /// A new request of statement class `class`; its first span is the root.
    pub fn request(&self, class: usize) -> At {
        let mut n = self.next_req.borrow_mut();
        *n += 1;
        At { req: *n, class, parent: None }
    }

    /// Record `f` as a span under `at`. Returns `f`'s result, the span's
    /// duration in milliseconds, and the position for its children.
    pub fn span<T>(
        &self,
        at: At,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64, At) {
        self.span_scaled(at, layer, name, 1.0, f)
    }

    /// [`span`](Self::span) with a coverage `scale` (see [`Span::scale`]).
    pub fn span_scaled<T>(
        &self,
        at: At,
        layer: Layer,
        name: &'static str,
        scale: f64,
        f: impl FnOnce() -> T,
    ) -> (T, f64, At) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.push(at, layer, name, start, end, scale);
        let ms = (end - start).as_secs_f64() * 1e3;
        (out, ms, At { parent: Some(id), ..at })
    }

    /// Record `f` as a span that started at `start` (an open-loop
    /// request's due time), with `f`'s own spans as its children.
    pub fn span_from<T>(
        &self,
        at: At,
        layer: Layer,
        name: &'static str,
        start: Instant,
        f: impl FnOnce(At) -> T,
    ) -> (T, At) {
        let id = self.push(at, layer, name, start, start, 1.0);
        let child = At { parent: Some(id), ..at };
        let out = f(child);
        let end = Instant::now().saturating_duration_since(self.t0);
        self.spans.borrow_mut()[id].end = end;
        (out, child)
    }

    /// Record a span whose interval was measured by the program itself
    /// (a stage time reported in a stats struct), starting at `start`.
    pub fn record(
        &self,
        at: At,
        layer: Layer,
        name: &'static str,
        start: Instant,
        dur: Duration,
    ) -> At {
        let id = self.push(at, layer, name, start, start + dur, 1.0);
        At { parent: Some(id), ..at }
    }

    fn push(
        &self,
        at: At,
        layer: Layer,
        name: &'static str,
        start: Instant,
        end: Instant,
        scale: f64,
    ) -> usize {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            id,
            parent: at.parent,
            req: at.req,
            class: at.class,
            name,
            layer,
            start: start.saturating_duration_since(self.t0),
            end: end.saturating_duration_since(self.t0),
            scale,
        });
        id
    }

    /// Self time in milliseconds of every span, by span id, weighted by
    /// the product of the scales from the root down to the span, so the
    /// self times of one request add up to its root's duration.
    fn self_ms(&self) -> Vec<f64> {
        let spans = self.spans.borrow();
        let mut covered = vec![0.0; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                covered[p] += s.ms() * s.scale;
            }
        }
        let weight = |mut id: usize| {
            let mut w = 1.0;
            loop {
                let s = &spans[id];
                match s.parent {
                    Some(p) => {
                        w *= s.scale;
                        id = p;
                    }
                    None => return w,
                }
            }
        };
        spans.iter().map(|s| (s.ms() - covered[s.id]) * weight(s.id)).collect()
    }

    /// Per class slot: the layers' median self times over the requests
    /// that were replayed (every replay starts with a `dbms` span, the
    /// embedded `Session::execute`), and the median root time over all
    /// requests. Medians keep a rare stalled request from moving a
    /// layer's figure; they add up to the typical root time only
    /// approximately, which the run checks.
    pub fn layer_self(&self, classes: usize) -> Vec<ClassTrace> {
        let selfs = self.self_ms();
        let spans = self.spans.borrow();
        #[derive(Default)]
        struct Req {
            class: usize,
            replayed: bool,
            layers: BTreeMap<Layer, f64>,
            root_ms: f64,
        }
        let mut per_req: BTreeMap<u64, Req> = BTreeMap::new();
        for s in spans.iter() {
            let r = per_req.entry(s.req).or_default();
            r.class = s.class;
            r.replayed |= s.layer == Layer::Dbms;
            *r.layers.entry(s.layer).or_insert(0.0) += selfs[s.id];
            if s.parent.is_none() {
                r.root_ms = s.ms();
            }
        }
        (0..classes)
            .map(|c| {
                let all: Vec<&Req> = per_req.values().filter(|r| r.class == c).collect();
                let replayed: Vec<&&Req> = all.iter().filter(|r| r.replayed).collect();
                let self_ms = LAYERS
                    .iter()
                    .map(|&l| {
                        let v: Vec<f64> = replayed
                            .iter()
                            .map(|r| r.layers.get(&l).copied().unwrap_or(0.0))
                            .collect();
                        (l, median(&v))
                    })
                    .collect();
                let roots: Vec<f64> = all.iter().map(|r| r.root_ms).collect();
                ClassTrace { self_ms, replayed: replayed.len(), wire_p50: median(&roots) }
            })
            .collect()
    }

    /// Write every span as one JSON line, followed by `trailer` lines.
    pub fn write(&self, path: &Path, trailer: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self.self_ms();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            writeln!(
                out,
                "{{\"span\": {}, \"parent\": {}, \"req\": {}, \"class\": \"q{}\", \"name\": {}, \
                 \"layer\": {}, \"start_us\": {}, \"end_us\": {}, \"scale\": {}, \"self_ms\": {}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req,
                s.class + 1,
                json_str(s.name),
                json_str(s.layer.name()),
                s.start.as_micros(),
                s.end.as_micros(),
                json_num(s.scale),
                json_num(selfs[s.id]),
            )?;
        }
        for line in trailer {
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ms: u64) {
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_telescopes_to_the_root() {
        let tr = Tracer::new();
        let at = tr.request(0);
        let (_, root_ms, at1) = tr.span(at, Layer::Server, "root", || busy(30));
        let (_, _, at2) = tr.span(at1, Layer::Dbms, "exec", || busy(20));
        tr.span_scaled(at2, Layer::Rtree, "serial", 0.5, || busy(20));
        // A request whose replay never ran stays out of the self times.
        tr.span(tr.request(0), Layer::Server, "root", || busy(1));
        let per_class = tr.layer_self(1);
        let c = &per_class[0];
        assert_eq!(c.replayed, 1);
        let sum: f64 = c.self_ms.values().sum();
        assert!(
            (sum - root_ms).abs() < 1e-6,
            "self times {:?} must add up to {root_ms}",
            c.self_ms
        );
        // The serial child counts half in its parent: dbms keeps ~10 ms.
        assert!((c.self_ms[&Layer::Dbms] - c.self_ms[&Layer::Rtree]).abs() < 5.0);
    }
}
