//! `paper-join`: the paper's Table 1 and Table 2 self-joins, closed loop,
//! one wire client (an analyst waiting on each answer).
//!
//! Class slots: q1 = counties SPATIAL_JOIN, q2 = stars SPATIAL_JOIN,
//! q3 = counties nested-loop `SDO_RELATE` join (Table 1's baseline).
//! Every count must equal the nested-loop count computed at set-up.

use crate::common::{
    count_of, counter_deltas, exec, load_table, memory_db, replay_session, rtree_side,
    samples_into, scan_mbrs, start_server, wire_span, Prepared,
};
use crate::stats::{ratio, Metrics, Samples};
use crate::trace::{Layer, Tracer};
use crate::{ms_since, nproc, Outcome, Slice, Step, Workload, CLASSES};
use sdo_core::join::{ExactPredicate, JoinSide, SpatialJoin, SpatialJoinConfig};
use sdo_datagen::{counties, stars, SKY_EXTENT, US_EXTENT};
use sdo_dbms::Database;
use sdo_geom::RelateMask;
use sdo_rtree::{JoinCursor, JoinPredicate};
use sdo_server::{Client, ServerHandle};
use sdo_storage::{Counters, RowId};
use sdo_tablefunc::{collect_all, execute_parallel, TableFunction, TaskQueue};
use std::sync::Arc;
use std::time::Instant;

/// 4x the paper's 3230 counties.
const COUNTIES: usize = 12_920;
/// Sized so one stars join takes 0.15-0.5 s over the wire on a 2-core host.
const STARS: usize = 7_500;
const TABLES: [&str; 2] = ["counties", "stars"];

pub struct PaperJoin {
    db: Arc<Database>,
    _server: ServerHandle,
    client: Client,
    dop: usize,
    /// Nested-loop pair counts of counties and stars.
    expect: [i64; 2],
}

impl PaperJoin {
    fn sql(&self, class: usize) -> String {
        match class {
            0 | 1 => format!(
                "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN('{t}','geom','{t}','geom','intersect', {d}))",
                t = TABLES[class],
                d = self.dop
            ),
            _ => nested_loop_sql("counties"),
        }
    }

    fn expected(&self, class: usize) -> i64 {
        self.expect[if class == 1 { 1 } else { 0 }]
    }
}

fn nested_loop_sql(t: &str) -> String {
    format!(
        "SELECT COUNT(*) FROM {t} a, {t} b WHERE SDO_RELATE(a.geom, b.geom, 'intersect') = 'TRUE'"
    )
}

fn intersect() -> ExactPredicate {
    ExactPredicate::Masks(vec![RelateMask::AnyInteract])
}

fn side(s: &JoinSide) -> JoinSide {
    JoinSide { table: Arc::clone(&s.table), column: s.column, tree: Arc::clone(&s.tree) }
}

/// The SPATIAL_JOIN table function as the SQL factory instantiates it
/// at `dop > 1`: subtree-pair tasks on a shared work-stealing queue,
/// one slave instance per worker, driven by `execute_parallel`.
fn parallel_join(s: &JoinSide, dop: usize, counters: &Arc<Counters>) -> usize {
    let exact = intersect();
    let (_, tasks) = sdo_core::functions::choose_descent_level(&s.tree, &s.tree, &exact, dop);
    let queue = TaskQueue::seed_round_robin(tasks, dop);
    let instances: Vec<Box<dyn TableFunction>> = (0..dop)
        .map(|w| {
            Box::new(SpatialJoin::with_shared_tasks(
                side(s),
                side(s),
                exact.clone(),
                SpatialJoinConfig::default(),
                Arc::clone(counters),
                Arc::clone(&queue),
                w,
            )) as Box<dyn TableFunction>
        })
        .collect();
    execute_parallel(instances, 1024).expect("parallel spatial join").len()
}

/// The same table function run as one serial instance; returns the pair
/// count and its geometry-cache (hits, misses).
fn serial_join(s: &JoinSide, counters: &Arc<Counters>) -> (usize, (u64, u64)) {
    let mut join = SpatialJoin::new(
        side(s),
        side(s),
        intersect(),
        SpatialJoinConfig::default(),
        Arc::clone(counters),
    );
    let n = collect_all(&mut join, 1024).expect("serial spatial join").len();
    (n, join.cache_stats())
}

impl Workload for PaperJoin {
    /// About 50 samples per class in 30 s: p80 leaves ten beyond it.
    const TAIL: f64 = 0.8;
    /// A replay costs about three wire joins.
    const TRACE_WIRE_SHARE: f64 = 0.3;

    fn setup(seed: u64) -> Result<Self, String> {
        let db = memory_db();
        load_table(&db, "counties", &counties::generate(COUNTIES, &US_EXTENT, seed))?;
        load_table(&db, "stars", &stars::generate(STARS, &SKY_EXTENT, seed ^ 0x5eed))?;
        let mut expect = [0; 2];
        for (i, t) in TABLES.iter().enumerate() {
            exec(&db, &format!("CREATE INDEX {t}_x ON {t}(geom) INDEXTYPE IS SPATIAL_INDEX"))?;
            exec(&db, &format!("ANALYZE TABLE {t}"))?;
            expect[i] = exec(&db, &nested_loop_sql(t))?
                .count()
                .ok_or_else(|| format!("{t}: nested-loop join returned no count"))?;
        }
        let (server, client) = start_server(&db)?;
        Ok(PaperJoin { db, _server: server, client, dop: nproc(), expect })
    }

    fn run(&mut self, slice: Slice, errors: &mut Vec<String>) -> Outcome {
        let seconds = slice.even();
        let mut o = Outcome::default();
        let mut lat: [Vec<f64>; CLASSES] = Default::default();
        let c0 = self.db.counters().snapshot();
        let pool0 = sdo_tablefunc::pool::global().stats();
        let t0 = Instant::now();
        let mut class = 0;
        while t0.elapsed().as_secs_f64() < seconds {
            let sql = self.sql(class);
            o.attempted += 1;
            let t = Instant::now();
            match self.client.execute(&sql) {
                Ok((_, rows)) => {
                    lat[class].push(ms_since(t));
                    let got = count_of(&rows);
                    if got != Some(self.expected(class)) {
                        errors.push(format!(
                            "q{}: count {got:?}, expected {}",
                            class + 1,
                            self.expected(class)
                        ));
                    }
                }
                Err(e) => {
                    o.failed += 1;
                    lat[class].push(f64::INFINITY);
                    if !e.is_admission() {
                        errors.push(format!("q{}: {e}", class + 1));
                    }
                }
            }
            class = (class + 1) % CLASSES;
        }
        o.steps = vec![Step { rate: 0.0, lat, steady: true }];
        counter_deltas(&self.db, &c0, &mut o.layer);
        let pool1 = sdo_tablefunc::pool::global().stats();
        o.layer.insert(
            "tablefunc.pool_workers_spawned".into(),
            (pool1.workers_spawned - pool0.workers_spawned) as f64,
        );
        o
    }

    fn trace(&mut self, seconds: f64, tr: &Tracer, m: &mut Metrics, errors: &mut Vec<String>) {
        let sess = self.db.session();
        let counters = Arc::clone(self.db.counters());
        let sides: Vec<JoinSide> = match TABLES.iter().map(|t| rtree_side(&self.db, t)).collect() {
            Ok(s) => s,
            Err(e) => return errors.push(e),
        };
        let dop = self.dop;
        let mut s = Samples::default();
        let (mut hits, mut misses) = (0u64, 0u64);
        // Wire phase: the statements back to back, as in the untraced run.
        let t0 = Instant::now();
        let mut reqs = Vec::new();
        while t0.elapsed().as_secs_f64() < seconds * Self::TRACE_WIRE_SHARE {
            let class = reqs.len() % CLASSES;
            let sql = self.sql(class);
            let (wire, wire_ms, at) = wire_span(tr, class + 1, &mut self.client, &sql);
            let got = wire.map(|(_, rows)| count_of(&rows));
            if got != Ok(Some(self.expected(class))) {
                errors.push(format!(
                    "traced q{}: {got:?}, expected {}",
                    class + 1,
                    self.expected(class)
                ));
            }
            reqs.push((class, wire_ms, at));
        }
        // Replay phase, until the time is up.
        for (class, wire_ms, at) in reqs {
            if t0.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let q = class + 1;
            let sql = self.sql(class);
            let expect = self.expected(class);
            let at_exec = match replay_session(tr, at, q, wire_ms, &sess, &sql, &mut s) {
                Ok(at) => at,
                Err(e) => {
                    errors.push(e);
                    continue;
                }
            };
            let side = &sides[if class == 1 { 1 } else { 0 }];
            let table = side.table.read();
            let (at_refine, candidates) = if class < 2 {
                let (n, tf_ms, at_tf) =
                    tr.span(at_exec, Layer::Tablefunc, "execute_parallel", || {
                        parallel_join(side, dop, &counters)
                    });
                let ((n1, cache), serial_ms, at_core) =
                    tr.span_scaled(at_tf, Layer::Core, "SpatialJoin", 1.0 / dop as f64, || {
                        serial_join(side, &counters)
                    });
                if n as i64 != expect || n1 as i64 != expect {
                    errors.push(format!("direct q{q}: {n}/{n1} pairs, expected {expect}"));
                }
                hits += cache.0;
                misses += cache.1;
                let pc = Arc::new(Counters::new());
                let (cands, prim_ms, _) =
                    tr.span(at_core, Layer::Rtree, "JoinCursor::collect_all", || {
                        JoinCursor::new(&side.tree, &side.tree, JoinPredicate::Intersects)
                            .with_counters(Arc::clone(&pc))
                            .collect_all()
                    });
                s.push(format!("core.join_tf_ms.q{q}"), tf_ms);
                s.push(format!("serial_tf_ms.q{q}"), serial_ms);
                s.push(format!("rtree.primary_ms.q{q}"), prim_ms);
                s.push(format!("rtree.mbr_tests.q{q}"), Counters::get(&pc.mbr_tests) as f64);
                (at_core, cands.into_iter().map(|(_, a, _, b)| (a, b)).collect::<Vec<_>>())
            } else {
                // The nested loop probes the index once per outer row.
                let (outer, _, _) = tr.span(at_exec, Layer::Storage, "Table::scan", || {
                    scan_mbrs(&table, side.column)
                });
                let (c, _, _) = tr.span(at_exec, Layer::Rtree, "RTree::query_window", || {
                    let mut c: Vec<(RowId, RowId)> = Vec::new();
                    for (bb, rid) in &outer {
                        c.extend(side.tree.query_window(bb).into_iter().map(|(_, r)| (*rid, r)));
                    }
                    c
                });
                (at_exec, c)
            };
            let n = candidates.len();
            let (pairs, sec_ms, _) =
                tr.span(at_refine, Layer::Geom, "PreparedGeometry::relate_any", || {
                    let mut p = Prepared::new(&table, side.column);
                    candidates.iter().filter(|(a, b)| p.interact(*a, *b)).count()
                });
            if pairs as i64 != expect {
                errors.push(format!("replayed q{q}: {pairs} pairs, expected {expect}"));
            }
            if class < 2 {
                s.push(format!("geom.secondary_ms.q{q}"), sec_ms);
                s.push(format!("rtree.candidates.q{q}"), n as f64);
                s.push(format!("geom.true_hit_ratio.q{q}"), ratio(pairs as f64, n as f64));
            }
        }
        samples_into(&s, m);
        for q in 1..=2 {
            let tf = s.median(&format!("core.join_tf_ms.q{q}"));
            m.remove(&format!("serial_tf_ms.q{q}"));
            m.insert(
                format!("dbms.sql_over_tf_ms.q{q}"),
                s.median(&format!("dbms.exec_ms.q{q}")) - tf,
            );
            m.insert(
                format!("tablefunc.dop_speedup.q{q}"),
                ratio(s.median(&format!("serial_tf_ms.q{q}")), tf),
            );
        }
        m.insert("core.geomcache_hit_ratio".into(), ratio(hits as f64, (hits + misses) as f64));
    }

    fn finish(&mut self, _errors: &mut Vec<String>) {}
}
