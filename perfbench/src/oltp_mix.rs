//! `oltp-mix`: independent map users on fixed schedules (open loop).
//!
//! Class slots: q1 = 1%-of-extent window `SDO_RELATE(..., 'ANYINTERACT')`
//! (about 11 rows), q2 = kNN `ORDER BY SDO_DISTANCE(...) LIMIT 10`,
//! q3 = single-row autocommit INSERT; 60/20/20 in every block of ten
//! statements. The table is durable (`Database::open`, default
//! `durability=fsync` with group commit). The mix steps through a fixed
//! ladder of rates; each request is timed from its due time.

use crate::common::{
    counter_deltas, exec, full_extent_filter_sql, private_tree, replay_session, rtree_side,
    samples_into, scan_mbrs, start_server, wire_count,
};
use crate::stats::{pct, ratio, Metrics, Samples};
use crate::trace::{Layer, Tracer};
use crate::{ms, nproc, out_dir, Outcome, Slice, Step, Workload, CLASSES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdo_datagen::{counties, windows, US_EXTENT};
use sdo_dbms::Database;
use sdo_geom::{Geometry, Point, Polygon, Rect, RelateMask};
use sdo_server::{Client, ServerHandle};
use sdo_storage::{DataType, RowId, Schema, Table, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BASE_ROWS: usize = 50_000;
/// Inserted rows carry ids at or above this, so the window check can
/// tell them from base rows.
const INSERT_ID0: i64 = 1_000_000_000;
/// Offered rates, statements per second over all connections.
const LADDER: [f64; 5] = [20.0, 80.0, 320.0, 1280.0, 5120.0];
/// Share of the run given to the base step, split evenly over the
/// run's passes: at 30 s it holds 102 of each of the two 20% classes.
/// The first pass also runs the higher steps, evenly in the rest.
const BASE_SHARE: f64 = 0.85;
/// Latency limit on every class's p90 for a rate to qualify.
const LIMIT_MS: f64 = 100.0;
const WINDOWS: usize = 256;
const KNN_POINTS: usize = 64;
const K: usize = 10;
/// Class slots of the positions in a block of ten statements.
const BLOCK: [usize; 10] = [0, 0, 0, 0, 0, 0, 1, 1, 2, 2];

struct WindowQuery {
    sql: String,
    geom: Geometry,
    /// Base-row ids that interact with the window, sorted.
    expect: Vec<i64>,
}

struct KnnQuery {
    sql: String,
    at: Point,
    /// 10th-smallest distance over base rows.
    kth: f64,
}

pub struct OltpMix {
    db: Arc<Database>,
    server: ServerHandle,
    clients: Vec<Client>,
    dir: PathBuf,
    seed: u64,
    windows: Vec<WindowQuery>,
    knn: Vec<KnnQuery>,
    next_id: AtomicU64,
    acked: AtomicU64,
}

impl Drop for OltpMix {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Per-step record of one connection.
#[derive(Default)]
struct StepLog {
    lat: [Vec<f64>; CLASSES],
    /// (due offset in s, send lateness in ms)
    late: Vec<(f64, f64)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

fn mix(seed: u64) -> u64 {
    // splitmix64 finaliser: a cheap hash for per-statement choices.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Class slot of statement `k` of a step: every block of ten is a
/// seeded shuffle of [`BLOCK`].
fn class_of(seed: u64, step: usize, k: u64) -> usize {
    let mut block = BLOCK;
    let mut rng = StdRng::seed_from_u64(mix(seed ^ mix(step as u64 ^ mix(k / 10))));
    for i in (1..block.len()).rev() {
        block.swap(i, rng.random_range(0..i + 1));
    }
    block[(k % 10) as usize]
}

fn insert_sql(seed: u64, id: i64) -> (String, Vec<Value>) {
    let h = mix(seed ^ id as u64);
    let fx = (h >> 11) as f64 / (1u64 << 53) as f64;
    let fy = (mix(h) >> 11) as f64 / (1u64 << 53) as f64;
    let e = US_EXTENT;
    let x = e.min_x + fx * (e.width() - 0.05);
    let y = e.min_y + fy * (e.height() - 0.05);
    let g = Geometry::Polygon(Polygon::from_rect(&Rect::new(x, y, x + 0.05, y + 0.05)));
    let sql = format!("INSERT INTO t VALUES ({id}, SDO_GEOMETRY('{}'))", sdo_geom::wkt::to_wkt(&g));
    (sql, vec![Value::Integer(id), Value::geometry(g)])
}

/// Sleep until shortly before `due`, then spin: a sleeping thread wakes
/// up to a few hundred microseconds late on a busy virtual machine, and
/// that lateness would count in every sub-millisecond latency.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(300);
    if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// 10th-smallest exact distance from `p` to `geoms`: visit geometries
/// in order of bounding-box distance, stop once the next box is farther
/// than the current 10th.
fn kth_distance(p: &Point, geoms: &[(Rect, &Geometry)]) -> f64 {
    let mut order: Vec<(f64, usize)> =
        geoms.iter().enumerate().map(|(i, (r, _))| (r.mindist_point(p), i)).collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0));
    let q = Geometry::Point(*p);
    let mut best: Vec<f64> = Vec::new();
    for (lb, i) in order {
        if best.len() == K && lb > best[K - 1] {
            break;
        }
        best.push(sdo_geom::distance(&q, geoms[i].1));
        best.sort_by(f64::total_cmp);
        best.truncate(K);
    }
    best[K - 1]
}

impl OltpMix {
    /// A fresh id for an inserted row.
    fn new_id(&self) -> i64 {
        INSERT_ID0 + self.next_id.fetch_add(1, Ordering::Relaxed) as i64
    }

    fn window_ok(&self, w: usize, rows: &[Vec<Value>]) -> Result<(), String> {
        let mut ids: Vec<i64> =
            rows.iter().filter_map(|r| r[0].as_integer()).filter(|&id| id < INSERT_ID0).collect();
        ids.sort_unstable();
        if ids != self.windows[w].expect {
            return Err(format!(
                "window {w}: {} base rows, brute force finds {}",
                ids.len(),
                self.windows[w].expect.len()
            ));
        }
        Ok(())
    }

    fn knn_ok(&self, i: usize, rows: &[Vec<Value>]) -> Result<(), String> {
        let d: Vec<f64> = rows.iter().filter_map(|r| r.get(1).and_then(Value::as_double)).collect();
        if d.len() != K {
            return Err(format!("knn {i}: {} distances", d.len()));
        }
        if d.windows(2).any(|p| p[1] < p[0]) {
            return Err(format!("knn {i}: distances not non-decreasing: {d:?}"));
        }
        let kth = self.knn[i].kth;
        if d[K - 1] > kth * (1.0 + 1e-12) + 1e-12 {
            return Err(format!("knn {i}: 10th distance {} > base-only 10th {kth}", d[K - 1]));
        }
        Ok(())
    }

    /// Statement `k` of class `class`: which window or kNN point it uses
    /// (0 for inserts, which take a fresh id) and its SQL.
    fn statement(&self, class: usize, k: u64) -> (usize, String) {
        let pick = mix(self.seed ^ k.wrapping_mul(0x2545_F491_4F6C_DD1D));
        match class {
            0 => {
                let w = (pick % WINDOWS as u64) as usize;
                (w, self.windows[w].sql.clone())
            }
            1 => {
                let i = (pick % KNN_POINTS as u64) as usize;
                (i, self.knn[i].sql.clone())
            }
            _ => (0, insert_sql(self.seed, self.new_id()).0),
        }
    }

    /// Check an answer; an acknowledged insert is counted.
    fn check(&self, class: usize, choice: usize, rows: &[Vec<Value>]) -> Result<(), String> {
        match class {
            0 => self.window_ok(choice, rows),
            1 => self.knn_ok(choice, rows),
            _ => {
                self.acked.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }
    }

    /// Send statement `k` of class `class` on `client`; true on success.
    fn send(&self, client: &mut Client, class: usize, k: u64, log: &mut StepLog) -> bool {
        log.attempted += 1;
        let (choice, sql) = self.statement(class, k);
        match client.execute(&sql) {
            Ok((_, rows)) => {
                if let Err(e) = self.check(class, choice, &rows) {
                    log.errors.push(e);
                }
                true
            }
            Err(e) => {
                log.failed += 1;
                if !e.is_admission() {
                    log.errors.push(format!("{sql}: {e}"));
                }
                false
            }
        }
    }

    /// One ladder step: `conns` connections share a fixed schedule of
    /// `rate` statements per second for `len`.
    fn step(&mut self, step: usize, rate: f64, len: Duration) -> StepLog {
        let conns = self.clients.len();
        let start = Instant::now() + Duration::from_millis(5);
        let end = start + len;
        let total = (len.as_secs_f64() * rate).ceil() as u64;
        let mut clients = std::mem::take(&mut self.clients);
        let this = &*self;
        let logs: Vec<(Client, StepLog)> = std::thread::scope(|sc| {
            let handles: Vec<_> = clients
                .drain(..)
                .enumerate()
                .map(|(c, mut client)| {
                    sc.spawn(move || {
                        let mut log = StepLog::default();
                        let mut k = c as u64;
                        while k < total {
                            let due = start + Duration::from_secs_f64(k as f64 / rate);
                            let class = class_of(this.seed, step, k);
                            let now = Instant::now();
                            if now >= end {
                                // Due but never sent: misses the limit.
                                log.lat[class].push(f64::INFINITY);
                                k += conns as u64;
                                continue;
                            }
                            wait_until(due);
                            let sent = Instant::now();
                            log.late.push(((due - start).as_secs_f64(), ms(sent - due)));
                            let ok = this.send(&mut client, class, k, &mut log);
                            log.lat[class].push(if ok { ms(due.elapsed()) } else { f64::INFINITY });
                            k += conns as u64;
                        }
                        (client, log)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("connection thread")).collect()
        });
        let mut all = StepLog::default();
        for (client, log) in logs {
            self.clients.push(client);
            for q in 0..CLASSES {
                all.lat[q].extend(&log.lat[q]);
            }
            all.late.extend(log.late);
            all.attempted += log.attempted;
            all.failed += log.failed;
            all.errors.extend(log.errors);
        }
        all
    }
}

/// Whether the generator's lateness stayed flat over a step: the median
/// lateness of its last quarter is within 10 ms of its first quarter's.
fn steady(log: &StepLog, len: Duration) -> bool {
    let q = len.as_secs_f64() / 4.0;
    let first: Vec<f64> = log.late.iter().filter(|l| l.0 < q).map(|l| l.1).collect();
    let last: Vec<f64> = log.late.iter().filter(|l| l.0 >= 3.0 * q).map(|l| l.1).collect();
    !first.is_empty() && !last.is_empty() && pct(&last, 0.5) <= pct(&first, 0.5) + 10.0
}

impl Workload for OltpMix {
    /// The base step holds at least 100 samples per class, so p90 would
    /// leave ten beyond it, but on a shared 2-core host its run-to-run
    /// spread is 0.10-0.12 (window, kNN); p75 repeats within 0.06.
    const TAIL: f64 = 0.75;
    /// Replays are paced like the wire phase, so 0.5 leaves them room.
    const TRACE_WIRE_SHARE: f64 = 0.5;

    /// The highest ladder rate at which every class's p90 is within the
    /// limit and the generator kept up; 0 if none.
    fn rate_s(o: &Outcome) -> f64 {
        o.steps
            .iter()
            .filter(|s| s.steady && s.lat.iter().all(|l| !l.is_empty() && pct(l, 0.9) <= LIMIT_MS))
            .map(|s| s.rate)
            .fold(0.0, f64::max)
    }

    fn setup(seed: u64) -> Result<Self, String> {
        let dir = out_dir().join(format!("oltp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db =
            Arc::new(Database::open(&dir).map_err(|e| format!("open {}: {e}", dir.display()))?);
        sdo_core::register_spatial(&db);
        let geoms = counties::generate(BASE_ROWS, &US_EXTENT, seed);
        exec(&db, "CREATE TABLE t (id NUMBER, geom SDO_GEOMETRY)")?;
        let mut txn = db.begin();
        for (i, g) in geoms.iter().enumerate() {
            txn.insert("t", vec![Value::Integer(i as i64), Value::geometry(g.clone())])
                .map_err(|e| format!("load: {e}"))?;
        }
        txn.commit().map_err(|e| format!("load commit: {e}"))?;
        exec(&db, "CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX")?;
        exec(&db, "ANALYZE TABLE t")?;
        db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;

        let boxed: Vec<(Rect, &Geometry)> = geoms.iter().map(|g| (g.bbox(), g)).collect();
        let windows = windows::rect_windows(WINDOWS, &US_EXTENT, 0.01, seed ^ 0x3d)
            .into_iter()
            .map(|w| {
                let wb = w.bbox();
                let expect = boxed
                    .iter()
                    .enumerate()
                    .filter(|(_, (r, g))| {
                        r.intersects(&wb) && sdo_geom::relate(g, &w, RelateMask::AnyInteract)
                    })
                    .map(|(i, _)| i as i64)
                    .collect();
                let sql = format!(
                    "SELECT id FROM t WHERE SDO_RELATE(geom, SDO_GEOMETRY('{}'), 'ANYINTERACT') = 'TRUE'",
                    sdo_geom::wkt::to_wkt(&w)
                );
                WindowQuery { sql, geom: w, expect }
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4b);
        let knn = (0..KNN_POINTS)
            .map(|_| {
                let at = Point::new(
                    rng.random_range(US_EXTENT.min_x..US_EXTENT.max_x),
                    rng.random_range(US_EXTENT.min_y..US_EXTENT.max_y),
                );
                let p = format!("SDO_POINT({}, {})", at.x, at.y);
                let sql = format!(
                    "SELECT id, SDO_DISTANCE(geom, {p}) FROM t ORDER BY SDO_DISTANCE(geom, {p}) LIMIT {K}"
                );
                KnnQuery { sql, kth: kth_distance(&at, &boxed), at }
            })
            .collect();

        let (server, first) = start_server(&db)?;
        let mut clients = vec![first];
        for _ in 1..nproc().clamp(1, 2) {
            clients.push(Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?);
        }
        Ok(OltpMix {
            db,
            server,
            clients,
            dir,
            seed,
            windows,
            knn,
            next_id: AtomicU64::new(0),
            acked: AtomicU64::new(0),
        })
    }

    fn run(&mut self, slice: Slice, errors: &mut Vec<String>) -> Outcome {
        let mut o = Outcome::default();
        let counters = Arc::clone(self.db.counters());
        let c0 = counters.snapshot();
        let a0 = self.server.admission().stats();
        let pool0 = sdo_tablefunc::pool::global().stats();
        let acked0 = self.acked.load(Ordering::Relaxed);
        let base = Duration::from_secs_f64(slice.seconds * BASE_SHARE / slice.parts as f64);
        let other =
            Duration::from_secs_f64(slice.seconds * (1.0 - BASE_SHARE) / (LADDER.len() - 1) as f64);
        let steps = if slice.index == 0 { LADDER.len() } else { 1 };
        for (i, &rate) in LADDER.iter().enumerate().take(steps) {
            let len = if i == 0 { base } else { other };
            let log = self.step(i, rate, len);
            if i == 0 {
                let late: Vec<f64> = log.late.iter().map(|l| l.1).collect();
                o.layer.insert("bench.generator_late_ms".into(), pct(&late, 0.99));
            }
            o.attempted += log.attempted;
            o.failed += log.failed;
            o.steps.push(Step { rate, steady: steady(&log, len), lat: log.lat });
            errors.extend(log.errors);
        }
        let d = counters.diff(&c0);
        counter_deltas(&self.db, &c0, &mut o.layer);
        let a1 = self.server.admission().stats();
        let pool1 = sdo_tablefunc::pool::global().stats();
        let inserts = (self.acked.load(Ordering::Relaxed) - acked0) as f64;
        let get = |n: &str| d.get(n).unwrap_or(0) as f64;
        o.layer.insert(
            "server.admission_queued_frac".into(),
            ratio((a1.queued - a0.queued) as f64, (a1.admitted - a0.admitted) as f64),
        );
        o.layer.insert("server.admission_rejected".into(), (a1.rejected - a0.rejected) as f64);
        o.layer.insert(
            "storage.wal_bytes_per_insert".into(),
            ratio(get("wal_bytes_written"), inserts),
        );
        o.layer
            .insert("txn.fsyncs_per_commit".into(), ratio(get("wal_fsyncs"), get("txn_commits")));
        o.layer.insert(
            "tablefunc.pool_workers_spawned".into(),
            (pool1.workers_spawned - pool0.workers_spawned) as f64,
        );
        o
    }

    fn trace(&mut self, seconds: f64, tr: &Tracer, m: &mut Metrics, errors: &mut Vec<String>) {
        let sess = self.db.session();
        let counters = Arc::clone(self.db.counters());
        let side = match rtree_side(&self.db, "t") {
            Ok(s) => s,
            Err(e) => return errors.push(e),
        };
        let mut s = Samples::default();
        // Wire phase: the base step's schedule, statement k on connection
        // k mod connections, so the wire and the CPUs see the same idle
        // gaps as the untraced requests.
        let gap = Duration::from_secs_f64(1.0 / LADDER[0]);
        let t0 = Instant::now();
        let mut reqs = Vec::new();
        let mut k = 0u64;
        let conns = self.clients.len();
        while t0.elapsed().as_secs_f64() < seconds * Self::TRACE_WIRE_SHARE {
            let due = t0 + gap * k as u32;
            wait_until(due);
            let class = class_of(self.seed, usize::MAX, k);
            let (choice, sql) = self.statement(class, k);
            let client = &mut self.clients[k as usize % conns];
            k += 1;
            // Timed from the due time, like the untraced requests: the
            // root's self time is the generator's lateness.
            let ((wire, wire_ms, at), _) =
                tr.span_from(tr.request(class), Layer::Bench, "due", due, |at| {
                    tr.span(at, Layer::Server, "Client::execute", || {
                        client.execute(&sql).map_err(|e| format!("{sql}: {e}"))
                    })
                });
            if let Err(e) = wire.and_then(|(_, rows)| self.check(class, choice, &rows)) {
                errors.push(format!("traced {e}"));
            }
            reqs.push((class, choice, sql, wire_ms, at));
        }

        // Replay phase.
        let mut commits = Vec::new();
        let mut tree = private_tree(scan_mbrs(&side.table.read(), side.column));
        let mut heap =
            Table::new("P", Schema::of(&[("ID", DataType::Integer), ("GEOM", DataType::Geometry)]));
        for (class, choice, sql, wire_ms, at) in reqs {
            if t0.elapsed().as_secs_f64() >= seconds {
                break;
            }
            // Start each replay after an idle gap, as the wire call
            // started: right behind the previous replay it would run on
            // warm caches and undercount the lower layers.
            std::thread::sleep(gap);
            let q = class + 1;
            let exec_sql = if class == 2 { insert_sql(self.seed, self.new_id()).0 } else { sql };
            let at = match replay_session(tr, at, q, wire_ms, &sess, &exec_sql, &mut s) {
                Ok(at) => at,
                Err(e) => {
                    errors.push(e);
                    continue;
                }
            };
            match class {
                0 => {
                    let w = &self.windows[choice];
                    let wb = w.geom.bbox();
                    let before = counters.snapshot();
                    let (cands, win_ms, _) =
                        tr.span(at, Layer::Rtree, "RTree::query_window", || {
                            side.tree.query_window(&wb)
                        });
                    let reads = counters.diff(&before).get("rtree_node_reads").unwrap_or(0);
                    let table = side.table.read();
                    let (_, refine_ms, _) = tr.span(at, Layer::Geom, "relate_any", || {
                        cands
                            .iter()
                            .filter(|(_, rid)| {
                                let row = table.get(*rid).expect("indexed row is live");
                                let g = row[side.column].as_geometry().expect("geometry column");
                                sdo_geom::relate::relate_any(&w.geom, g, &[RelateMask::AnyInteract])
                            })
                            .count()
                    });
                    s.push("rtree.window_us", win_ms * 1e3);
                    s.push("geom.window_refine_us", refine_ms * 1e3);
                    s.push("rtree.node_reads_per_query.q1", reads as f64);
                }
                1 => {
                    let p = self.knn[choice].at;
                    let before = counters.snapshot();
                    let (_, knn_ms, _) = tr
                        .span(at, Layer::Rtree, "RTree::query_knn", || side.tree.query_knn(&p, K));
                    let reads = counters.diff(&before).get("rtree_node_reads").unwrap_or(0);
                    s.push("rtree.knn_us", knn_ms * 1e3);
                    s.push("rtree.node_reads_per_query.q2", reads as f64);
                }
                _ => {
                    self.acked.fetch_add(1, Ordering::Relaxed);
                    let id = self.new_id();
                    let (_, row) = insert_sql(self.seed, id);
                    let bb = row[1].as_geometry().expect("geometry").bbox();
                    let (r, commit_ms, at_txn) =
                        tr.span(at, Layer::Txn, "Txn::insert+commit", || {
                            let mut t = self.db.begin();
                            t.insert("t", row.clone())?;
                            t.commit()
                        });
                    match r {
                        Ok(()) => {
                            self.acked.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => errors.push(format!("traced txn insert: {e}")),
                    }
                    let rid = RowId::new(id as u64);
                    let (_, ins_ms, _) =
                        tr.span(at_txn, Layer::Rtree, "RTree::insert", || tree.insert(bb, rid));
                    let (_, heap_ms, _) = tr
                        .span(at_txn, Layer::Storage, "Table::insert", || heap.insert(row.clone()));
                    commits.push(commit_ms * 1e3);
                    s.push("rtree.insert_us", ins_ms * 1e3);
                    s.push("storage.heap_insert_us", heap_ms * 1e3);
                }
            }
        }
        samples_into(&s, m);
        m.insert("txn.commit_p90_us".into(), pct(&commits, 0.9));
    }

    fn finish(&mut self, errors: &mut Vec<String>) {
        let client = &mut self.clients[0];
        let expect = BASE_ROWS as i64 + self.acked.load(Ordering::Relaxed) as i64;
        match wire_count(client, "SELECT COUNT(*) FROM t") {
            Ok(n) if n == expect => {}
            other => {
                errors.push(format!("COUNT(*) {other:?}, expected {expect} (base + acknowledged)"))
            }
        }
        match wire_count(client, &full_extent_filter_sql("t", &US_EXTENT)) {
            Ok(n) if n == expect => {}
            other => {
                errors.push(format!("full-extent SDO_FILTER count {other:?}, heap has {expect}"))
            }
        }
        let in_use = self.server.admission().stats().in_use;
        if in_use != 0 {
            errors.push(format!("admission in_use {in_use} after the run"));
        }
    }
}
