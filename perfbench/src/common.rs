//! Database plumbing shared by the workloads.

use crate::stats::{Metrics, Samples};
use crate::trace::{At, Layer, Tracer};
use sdo_core::join::JoinSide;
use sdo_core::RTreeSpatialIndex;
use sdo_dbms::{Database, QueryResult, Session};
use sdo_geom::{Geometry, PreparedGeometry, Rect, RelateMask};
use sdo_rtree::RTree;
use sdo_server::{serve, Client, ServerConfig, ServerHandle, WireResult};
use sdo_storage::{CountersSnapshot, RowId, Table, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// In-memory database with the spatial cartridge registered.
pub fn memory_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    sdo_core::register_spatial(&db);
    db
}

/// Run `sql` embedded, naming the statement on error.
pub fn exec(db: &Database, sql: &str) -> Result<QueryResult, String> {
    db.execute(sql).map_err(|e| format!("{sql}: {e}"))
}

/// `CREATE TABLE name (id NUMBER, geom SDO_GEOMETRY)` loaded with
/// `geoms`, ids `0..n`.
pub fn load_table(db: &Database, name: &str, geoms: &[Geometry]) -> Result<(), String> {
    exec(db, &format!("CREATE TABLE {name} (id NUMBER, geom SDO_GEOMETRY)"))?;
    for (i, g) in geoms.iter().enumerate() {
        db.insert_row(name, vec![Value::Integer(i as i64), Value::geometry(g.clone())])
            .map_err(|e| format!("load {name}: {e}"))?;
    }
    Ok(())
}

/// Start the wire server on loopback with the default configuration
/// and connect one client.
pub fn start_server(db: &Arc<Database>) -> Result<(ServerHandle, Client), String> {
    let server = serve(Arc::clone(db), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    let client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    Ok((server, client))
}

/// The single integer of a `COUNT(*)` answer.
pub fn count_of(rows: &[Vec<Value>]) -> Option<i64> {
    rows.first().and_then(|r| r.first()).and_then(Value::as_integer)
}

/// Run a `COUNT(*)` statement over the wire.
pub fn wire_count(client: &mut Client, sql: &str) -> Result<i64, String> {
    let (_, rows) = client.execute(sql).map_err(|e| format!("{sql}: {e}"))?;
    count_of(&rows).ok_or_else(|| format!("{sql}: no count in answer"))
}

/// `SDO_FILTER` count over a window covering `extent` with margin: every
/// row whose geometry lies in `extent` qualifies.
pub fn full_extent_filter_sql(table: &str, extent: &Rect) -> String {
    let r = extent.expanded((extent.width() + extent.height()) * 0.01);
    format!(
        "SELECT COUNT(*) FROM {table} WHERE SDO_FILTER(geom, SDO_GEOMETRY('POLYGON (({x0} {y0}, \
         {x1} {y0}, {x1} {y1}, {x0} {y1}, {x0} {y0}))')) = 'TRUE'",
        x0 = r.min_x,
        y0 = r.min_y,
        x1 = r.max_x,
        y1 = r.max_y,
    )
}

/// The table, geometry column and R-tree snapshot behind the R-tree
/// index on `table.geom`, as the SPATIAL_JOIN table function sees them.
pub fn rtree_side(db: &Database, table: &str) -> Result<JoinSide, String> {
    let (_, inst) = db.index_on(table, "geom").ok_or_else(|| format!("no index on {table}"))?;
    let guard = inst.read();
    let rt = guard
        .as_any()
        .downcast_ref::<RTreeSpatialIndex>()
        .ok_or_else(|| format!("index on {table} is not an R-tree"))?;
    Ok(JoinSide {
        table: Arc::clone(rt.table()),
        column: rt.geometry_column(),
        tree: rt.tree_snapshot(),
    })
}

/// `(rowid, bbox)` of every row of `table`: an R-tree bulk-load input.
pub fn scan_mbrs(table: &Table, column: usize) -> Vec<(Rect, RowId)> {
    table
        .scan()
        .filter_map(|(rid, row)| row[column].as_geometry().map(|g| (g.bbox(), rid)))
        .collect()
}

/// Prepared geometries fetched from a heap table on first use, the way
/// the secondary filter's geometry cache holds them.
pub struct Prepared<'a> {
    table: &'a Table,
    column: usize,
    cache: HashMap<RowId, PreparedGeometry>,
}

impl<'a> Prepared<'a> {
    /// Empty cache over `table.column`.
    pub fn new(table: &'a Table, column: usize) -> Self {
        Prepared { table, column, cache: HashMap::new() }
    }

    fn load(&mut self, rid: RowId) {
        if !self.cache.contains_key(&rid) {
            let row = self.table.get(rid).expect("candidate rowid is live");
            let g = row[self.column].as_geometry().expect("geometry column").as_ref().clone();
            self.cache.insert(rid, PreparedGeometry::new(g));
        }
    }

    /// `ANYINTERACT` between two rows.
    pub fn interact(&mut self, a: RowId, b: RowId) -> bool {
        self.load(a);
        self.load(b);
        self.cache[&a].relate_any(&self.cache[&b], &[RelateMask::AnyInteract])
    }
}

/// R-tree bulk-loaded from `mbrs` with default parameters, for replays
/// that must not touch the database's own index.
pub fn private_tree(mbrs: Vec<(Rect, RowId)>) -> RTree<RowId> {
    RTree::bulk_load(mbrs, sdo_rtree::RTreeParams::default())
}

/// Root span of a traced request: `sql` over the wire, as class slot
/// `q` (1-based). Returns the answer, the wire time in ms and the
/// position for the request's replays.
pub fn wire_span(
    tr: &Tracer,
    q: usize,
    client: &mut Client,
    sql: &str,
) -> (Result<WireResult, String>, f64, At) {
    tr.span(tr.request(q - 1), Layer::Server, "Client::execute", || {
        client.execute(sql).map_err(|e| format!("{sql}: {e}"))
    })
}

/// Replay a traced request's statement through an embedded [`Session`]
/// (and, for queries, plain `EXPLAIN` and `sql::parse` under it) as the
/// child of its wire span `at`. Records the `server` and `dbms` samples
/// of class slot `q` and returns the position for the lower-layer
/// replays (under `Session::execute`).
///
/// Statements that must not repeat (inserts) pass a different `sql`
/// from the one sent over the wire.
pub fn replay_session(
    tr: &Tracer,
    at: At,
    q: usize,
    wire_ms: f64,
    sess: &Session,
    sql: &str,
    samples: &mut Samples,
) -> Result<At, String> {
    let counters = Arc::clone(sess.database().counters());
    let before = counters.snapshot();
    let (r, exec_ms, at_exec) = tr.span(at, Layer::Dbms, "Session::execute", || sess.execute(sql));
    let fetched = counters.diff(&before).get("row_fetches").unwrap_or(0) as f64;
    let rows = r.map_err(|e| format!("embedded {sql}: {e}"))?.rows.len().max(1) as f64;
    let is_query = sql.trim_start().to_ascii_uppercase().starts_with("SELECT");
    let parse_ms = if is_query {
        let (plan, explain_ms, at_x) =
            tr.span(at_exec, Layer::Dbms, "EXPLAIN", || sess.execute(&format!("EXPLAIN {sql}")));
        let plan = plan.map_err(|e| format!("EXPLAIN {sql}: {e}"))?;
        let exchange = plan.rows.iter().any(|r| format!("{r:?}").contains("EXCHANGE"));
        let (_, parse_ms, _) =
            tr.span(at_x, Layer::Dbms, "sql::parse", || sdo_dbms::sql::parse(sql));
        samples.push(format!("dbms.plan_us.q{q}"), (explain_ms - parse_ms) * 1e3);
        samples.push(format!("dbms.exchange_frac.q{q}"), f64::from(u8::from(exchange)));
        parse_ms
    } else {
        tr.span(at_exec, Layer::Dbms, "sql::parse", || sdo_dbms::sql::parse(sql)).1
    };
    samples.push(format!("dbms.parse_us.q{q}"), parse_ms * 1e3);
    samples.push(format!("dbms.exec_ms.q{q}"), exec_ms);
    samples.push(format!("server.overhead_ms.q{q}"), wire_ms - exec_ms);
    samples.push(format!("dbms.rows_fetched_per_result.q{q}"), fetched / rows);
    Ok(at_exec)
}

/// Raw deltas of the engine's `Counters` since `before`, as
/// `counters.<name>` entries: the trace file keeps them beside the
/// per-layer metrics derived from them.
pub fn counter_deltas(db: &Database, before: &CountersSnapshot, m: &mut Metrics) {
    for (name, v) in db.counters().diff(before).pairs() {
        m.insert(format!("counters.{name}"), v as f64);
    }
}

/// Medians of `samples` into `m`; `dbms.exchange_frac.*` is a share, so
/// it takes the mean.
pub fn samples_into(samples: &Samples, m: &mut Metrics) {
    samples.medians_into(m);
    for q in 1..=crate::CLASSES {
        let k = format!("dbms.exchange_frac.q{q}");
        m.insert(k.clone(), samples.mean(&k));
    }
}
