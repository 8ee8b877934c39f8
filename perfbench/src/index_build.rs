//! `index-build`: the paper's Table 3, closed loop, one wire client.
//!
//! Class slots: q1 = quadtree `CREATE INDEX ... PARAMETERS
//! ('sdo_level=8') PARALLEL nproc`, q2 = default R-tree `CREATE INDEX
//! ... PARALLEL nproc`, q3 = the `DROP INDEX` that follows each build.
//! After each build a full-extent `SDO_FILTER` count must equal the
//! row count.

use crate::common::{
    counter_deltas, exec, full_extent_filter_sql, load_table, memory_db, start_server, wire_count,
    wire_span,
};
use crate::stats::{median, ratio, Metrics, Samples};
use crate::trace::{At, Layer, Tracer};
use crate::{ms_since, nproc, Outcome, Slice, Step, Workload, CLASSES};
use sdo_core::create::{build_quadtree, build_rtree, tessellate_row, world_extent_of};
use sdo_core::SpatialIndexParams;
use sdo_datagen::{block_groups, US_EXTENT};
use sdo_dbms::{Database, Session};
use sdo_server::{Client, ServerHandle};
use sdo_storage::{Counters, Value};
use std::sync::Arc;
use std::time::Instant;

/// Block-group polygons (about 131 vertices each); sized so a quadtree
/// build plus its check and drop fit about 20 times in 30 s on a 2-core
/// host.
const BLOCK_GROUPS: usize = 30_000;
/// PARAMETERS of the two builds, by class slot.
const PARAMS: [&str; 2] = ["sdo_level=8", ""];
const DROP: &str = "DROP INDEX bg_x";

pub struct IndexBuild {
    db: Arc<Database>,
    _server: ServerHandle,
    client: Client,
    dop: usize,
    rows: i64,
    filter_sql: String,
}

impl IndexBuild {
    fn create_sql(&self, class: usize) -> String {
        let params = if PARAMS[class].is_empty() {
            String::new()
        } else {
            format!(" PARAMETERS ('{}')", PARAMS[class])
        };
        format!(
            "CREATE INDEX bg_x ON bg(geom) INDEXTYPE IS SPATIAL_INDEX{params} PARALLEL {}",
            self.dop
        )
    }

    fn check_count(&mut self, what: &str, errors: &mut Vec<String>) {
        match wire_count(&mut self.client, &self.filter_sql) {
            Ok(n) if n == self.rows => {}
            other => {
                errors.push(format!("after {what}: SDO_FILTER count {other:?}, {} rows", self.rows))
            }
        }
    }

    /// The build of class slot `class` through the `sdo-core` entry
    /// points, with the stage its slaves run and the serial replay of
    /// their per-row work under it.
    fn replay_build(
        &self,
        tr: &Tracer,
        at: At,
        class: usize,
        s: &mut Samples,
    ) -> Result<(), String> {
        let table = self.db.table("bg").map_err(|e| e.to_string())?;
        let params = SpatialIndexParams::parse(PARAMS[class]).map_err(|e| e.to_string())?;
        let counters = Arc::new(Counters::new());
        let dop = self.dop;
        let share = 1.0 / dop as f64;
        let q = class + 1;
        let start = Instant::now();
        let (stats, _, at_core) = if class == 0 {
            tr.span(at, Layer::Core, "create::build_quadtree", || {
                build_quadtree(&table, 1, &params, dop, Arc::clone(&counters)).map(|r| r.1)
            })
        } else {
            tr.span(at, Layer::Core, "create::build_rtree", || {
                build_rtree(&table, 1, &params, dop, Arc::clone(&counters)).map(|r| r.1)
            })
        };
        let stats = stats.map_err(|e| e.to_string())?;
        s.push(format!("core.build_parallel_stage_s.q{q}"), stats.parallel_stage.as_secs_f64());
        s.push(format!("core.build_merge_stage_s.q{q}"), stats.merge_stage.as_secs_f64());
        let at_tf =
            tr.record(at_core, Layer::Tablefunc, "execute_parallel", start, stats.parallel_stage);
        let guard = table.read();
        if class == 0 {
            let world = world_extent_of(&table, 1, &params).map_err(|e| e.to_string())?;
            let (rows, _, _) = tr.span_scaled(at_tf, Layer::Storage, "Table::scan", share, || {
                guard
                    .scan()
                    .map(|(rid, row)| vec![Value::RowId(rid), row[1].clone()])
                    .collect::<Vec<_>>()
            });
            let (tiles, tess_ms, _) =
                tr.span_scaled(at_tf, Layer::Quadtree, "create::tessellate_row", share, || {
                    let mut tiles = 0;
                    for row in &rows {
                        tiles += tessellate_row(row, &world, params.sdo_level, &counters)
                            .map_err(|e| e.to_string())?
                            .len();
                    }
                    Ok::<usize, String>(tiles)
                });
            s.push("quadtree.tessellate_s", tess_ms / 1e3);
            s.push("quadtree.tiles_per_geom", ratio(tiles? as f64, rows.len() as f64));
        } else {
            let (mbrs, _, _) = tr.span_scaled(at_tf, Layer::Storage, "Table::scan", share, || {
                crate::common::scan_mbrs(&guard, 1)
            });
            let (_, load_ms, _) =
                tr.span_scaled(at_tf, Layer::Rtree, "RTree::bulk_load", share, || {
                    crate::common::private_tree(mbrs)
                });
            s.push("rtree.bulk_load_ms", load_ms);
        }
        Ok(())
    }

    /// Replay one wire build and its drop (`at_create`, `at_drop`)
    /// through an embedded session and the `sdo-core` entry points.
    fn replay_cycle(
        &self,
        tr: &Tracer,
        sess: &Session,
        class: usize,
        (wire_ms, at_create): (f64, At),
        (drop_wire_ms, at_drop): (f64, At),
        s: &mut Samples,
    ) -> Result<(), String> {
        let q = class + 1;
        let sql = self.create_sql(class);
        let counters = Arc::clone(self.db.counters());
        let before = counters.snapshot();
        let (r, exec_ms, at_e) =
            tr.span(at_create, Layer::Dbms, "Session::execute", || sess.execute(&sql));
        r.map_err(|e| format!("embedded {sql}: {e}"))?;
        let scanned = counters.diff(&before).get("rows_scanned").unwrap_or(0);
        match exec(&self.db, &self.filter_sql)?.count() {
            Some(n) if n == self.rows => {}
            other => {
                return Err(format!("after embedded {sql}: count {other:?}, {} rows", self.rows))
            }
        }
        let (r, drop_ms, at_de) =
            tr.span(at_drop, Layer::Dbms, "Session::execute", || sess.execute(DROP));
        r.map_err(|e| format!("embedded {DROP}: {e}"))?;
        let (_, parse_ms, _) =
            tr.span(at_e, Layer::Dbms, "sql::parse", || sdo_dbms::sql::parse(&sql));
        let (_, drop_parse_ms, _) =
            tr.span(at_de, Layer::Dbms, "sql::parse", || sdo_dbms::sql::parse(DROP));
        s.push(format!("server.overhead_ms.q{q}"), wire_ms - exec_ms);
        s.push(format!("dbms.exec_ms.q{q}"), exec_ms);
        s.push(format!("dbms.parse_us.q{q}"), parse_ms * 1e3);
        s.push(format!("storage.rows_scanned.q{q}"), scanned as f64);
        s.push("server.overhead_ms.q3", drop_wire_ms - drop_ms);
        s.push("dbms.exec_ms.q3", drop_ms);
        s.push("dbms.parse_us.q3", drop_parse_ms * 1e3);
        self.replay_build(tr, at_e, class, s)
    }
}

impl Workload for IndexBuild {
    /// About 20 builds per class in 30 s: only the median leaves ten
    /// samples beyond it.
    const TAIL: f64 = 0.5;
    /// A replay costs about three wire builds.
    const TRACE_WIRE_SHARE: f64 = 0.3;

    fn setup(seed: u64) -> Result<Self, String> {
        let db = memory_db();
        load_table(&db, "bg", &block_groups::generate(BLOCK_GROUPS, &US_EXTENT, seed))?;
        exec(&db, "ANALYZE TABLE bg")?;
        let (server, client) = start_server(&db)?;
        Ok(IndexBuild {
            db,
            _server: server,
            client,
            dop: nproc(),
            rows: BLOCK_GROUPS as i64,
            filter_sql: full_extent_filter_sql("bg", &US_EXTENT),
        })
    }

    fn run(&mut self, slice: Slice, errors: &mut Vec<String>) -> Outcome {
        let seconds = slice.even();
        let mut o = Outcome::default();
        let mut lat: [Vec<f64>; CLASSES] = Default::default();
        let counters = Arc::clone(self.db.counters());
        let c0 = self.db.counters().snapshot();
        let pool0 = sdo_tablefunc::pool::global().stats();
        let mut scanned: [Vec<f64>; 2] = Default::default();
        let t0 = Instant::now();
        let mut class = 0;
        while t0.elapsed().as_secs_f64() < seconds {
            let sql = self.create_sql(class);
            for (q, stmt) in [(class, sql.as_str()), (2, DROP)] {
                o.attempted += 1;
                let before = counters.snapshot();
                let t = Instant::now();
                match self.client.execute(stmt) {
                    Ok(_) => lat[q].push(ms_since(t)),
                    Err(e) => {
                        o.failed += 1;
                        lat[q].push(f64::INFINITY);
                        if !e.is_admission() {
                            errors.push(format!("{stmt}: {e}"));
                        }
                        break;
                    }
                }
                if q < 2 {
                    scanned[q].push(counters.diff(&before).get("rows_scanned").unwrap_or(0) as f64);
                    self.check_count(stmt, errors);
                }
            }
            class = 1 - class;
        }
        o.steps = vec![Step { rate: 0.0, lat, steady: true }];
        for (q, v) in scanned.iter().enumerate() {
            o.layer.insert(format!("storage.rows_scanned.q{}", q + 1), median(v));
        }
        counter_deltas(&self.db, &c0, &mut o.layer);
        let pool1 = sdo_tablefunc::pool::global().stats();
        o.layer.insert(
            "tablefunc.pool_workers_spawned".into(),
            (pool1.workers_spawned - pool0.workers_spawned) as f64,
        );
        o
    }

    fn trace(&mut self, seconds: f64, tr: &Tracer, m: &mut Metrics, errors: &mut Vec<String>) {
        // Wire phase: build, check, drop back to back, as untraced.
        let t0 = Instant::now();
        let mut cycles = Vec::new();
        while t0.elapsed().as_secs_f64() < seconds * Self::TRACE_WIRE_SHARE {
            let class = cycles.len() % 2;
            let sql = self.create_sql(class);
            let (r, wire_ms, at_create) = wire_span(tr, class + 1, &mut self.client, &sql);
            if let Err(e) = r {
                return errors.push(format!("traced {e}"));
            }
            self.check_count(&sql, errors);
            let (r, drop_ms, at_drop) = wire_span(tr, 3, &mut self.client, DROP);
            if let Err(e) = r {
                return errors.push(format!("traced {e}"));
            }
            cycles.push((class, (wire_ms, at_create), (drop_ms, at_drop)));
        }
        // Replay phase.
        let sess = self.db.session();
        let mut s = Samples::default();
        for (class, create, drop) in cycles {
            if t0.elapsed().as_secs_f64() >= seconds {
                break;
            }
            if let Err(e) = self.replay_cycle(tr, &sess, class, create, drop, &mut s) {
                errors.push(format!("replayed q{}: {e}", class + 1));
            }
        }
        s.medians_into(m);
    }

    fn finish(&mut self, errors: &mut Vec<String>) {
        match wire_count(&mut self.client, "SELECT COUNT(*) FROM bg") {
            Ok(n) if n == self.rows => {}
            other => errors.push(format!("COUNT(*) {other:?}, expected {}", self.rows)),
        }
    }
}
