//! Streaming executor regression suite.
//!
//! The streaming batch pipeline must (1) return exactly the rows the
//! legacy materializing executor returns, (2) keep pipeline memory
//! bounded by batches in flight rather than result cardinality, and
//! (3) make `LIMIT` terminate the producing spatial join early.

use proptest::prelude::*;
use sdo_datagen::{counties, US_EXTENT};
use sdo_dbms::Database;
use sdo_storage::Value;

fn load_counties(db: &Database, table: &str, n: usize, seed: u64) {
    db.execute(&format!("CREATE TABLE {table} (id NUMBER, geom SDO_GEOMETRY)")).unwrap();
    for (i, g) in counties::generate(n, &US_EXTENT, seed).into_iter().enumerate() {
        db.insert_row(table, vec![Value::Integer(i as i64), Value::geometry(g)]).unwrap();
    }
}

fn session_with_tables() -> Database {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    load_counties(&db, "city_table", 60, 1);
    load_counties(&db, "river_table", 60, 2);
    load_counties(&db, "plain_table", 40, 3); // deliberately unindexed
    for (idx, table) in [("city_sidx", "city_table"), ("river_sidx", "river_table")] {
        db.execute(&format!(
            "CREATE INDEX {idx} ON {table}(geom) INDEXTYPE IS SPATIAL_INDEX \
             PARAMETERS ('tree_fanout=8')"
        ))
        .unwrap();
    }
    db
}

fn row_keys(rows: &[Vec<Value>]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

/// Every query shape the planner knows: (sql, order_sensitive).
fn corpus() -> Vec<(String, bool)> {
    vec![
        // Nested-loop spatial join via the inner index.
        (
            "SELECT a.id, b.id FROM city_table a, river_table b \
             WHERE SDO_RELATE(a.geom, b.geom, 'intersect') = 'TRUE'"
                .into(),
            false,
        ),
        // Table-function join (rowid-pair semijoin), serial and dop 2.
        (
            "SELECT a.id, b.id FROM city_table a, river_table b \
             WHERE (a.rowid, b.rowid) IN \
             (SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN( \
              'city_table', 'geom', 'river_table', 'geom', 'intersect')))"
                .into(),
            false,
        ),
        (
            "SELECT a.id, b.id FROM city_table a, river_table b \
             WHERE (a.rowid, b.rowid) IN \
             (SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN( \
              'city_table', 'geom', 'river_table', 'geom', 'intersect', 2)))"
                .into(),
            false,
        ),
        // Indexed window query.
        (
            "SELECT id FROM city_table WHERE SDO_RELATE(geom, \
             SDO_GEOMETRY('POLYGON ((-100 30, -90 30, -90 40, -100 40, -100 30))'), \
             'intersect') = 'TRUE'"
                .into(),
            false,
        ),
        // Index rowid scans: a window under ORDER BY, SDO_FILTER with a
        // residual conjunct, and a within-distance window under LIMIT
        // (without ORDER BY, the first rows in rowid order).
        (
            "SELECT id FROM city_table WHERE SDO_RELATE(geom, \
             SDO_GEOMETRY('POLYGON ((-100 30, -90 30, -90 40, -100 40, -100 30))'), \
             'intersect') = 'TRUE' ORDER BY id"
                .into(),
            true,
        ),
        (
            "SELECT id, SDO_AREA(geom) FROM city_table WHERE SDO_FILTER(geom, \
             SDO_GEOMETRY('POLYGON ((-110 28, -95 28, -95 42, -110 42, -110 28))')) = 'TRUE' \
             AND id > 10"
                .into(),
            true,
        ),
        (
            "SELECT id FROM city_table \
             WHERE SDO_WITHIN_DISTANCE(geom, SDO_POINT(-95, 35), 5) = 'TRUE' LIMIT 3"
                .into(),
            true,
        ),
        // Unindexed window query (functional evaluation).
        (
            "SELECT id FROM plain_table WHERE SDO_RELATE(geom, \
             SDO_GEOMETRY('POLYGON ((-100 30, -90 30, -90 40, -100 40, -100 30))'), \
             'intersect') = 'TRUE'"
                .into(),
            false,
        ),
        // Within-distance, indexed and unindexed.
        (
            "SELECT COUNT(*) FROM city_table \
             WHERE SDO_WITHIN_DISTANCE(geom, SDO_POINT(-95, 35), 5) = 'TRUE'"
                .into(),
            false,
        ),
        (
            "SELECT COUNT(*) FROM plain_table \
             WHERE SDO_WITHIN_DISTANCE(geom, SDO_POINT(-95, 35), 5) = 'TRUE'"
                .into(),
            false,
        ),
        // k-NN ranking, indexed and unindexed.
        (
            "SELECT id FROM city_table WHERE SDO_NN(geom, SDO_POINT(-95, 35), 7) = 'TRUE'".into(),
            false,
        ),
        (
            "SELECT id FROM plain_table WHERE SDO_NN(geom, SDO_POINT(-95, 35), 5) = 'TRUE'".into(),
            false,
        ),
        // ORDER BY + LIMIT over an expression key.
        (
            "SELECT id FROM city_table \
             ORDER BY SDO_DISTANCE(geom, SDO_POINT(-95, 35)) LIMIT 5"
                .into(),
            true,
        ),
        ("SELECT id FROM city_table WHERE id < 20 ORDER BY id DESC".into(), true),
        // Residual comparisons, equi-style cross join, star projection.
        ("SELECT id FROM city_table WHERE id > 30".into(), false),
        ("SELECT a.id, b.id FROM city_table a, river_table b WHERE a.id = b.id".into(), false),
        ("SELECT * FROM river_table WHERE id < 5".into(), false),
        // Table-function scan with a residual (defeats the COUNT fast
        // path, so both executors drive the scan + filter pipeline).
        (
            "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
             'city_table', 'geom', 'river_table', 'geom', 'intersect')) WHERE 1 = 1"
                .into(),
            false,
        ),
        // Scalar-function projection.
        ("SELECT SDO_AREA(geom) shape_area FROM city_table WHERE id < 10 ORDER BY id".into(), true),
    ]
}

/// The corpus, answered identically by the streaming pipeline
/// (default) and by `ALTER SESSION SET materialize = on`. Row order is
/// compared exactly for ORDER BY queries and as a multiset otherwise.
#[test]
fn corpus_matches_materialized_executor() {
    let db = session_with_tables();
    let corpus = corpus();
    let mut streaming = Vec::new();
    for (sql, _) in &corpus {
        streaming.push(db.execute(sql).unwrap());
    }
    db.execute("ALTER SESSION SET materialize = on").unwrap();
    for (i, (sql, order_sensitive)) in corpus.iter().enumerate() {
        let mat = db.execute(sql).unwrap();
        let s = &streaming[i];
        assert_eq!(s.columns, mat.columns, "columns diverge for {sql}");
        assert!(!(*order_sensitive && s.rows != mat.rows), "ordered rows diverge for {sql}");
        let (mut sk, mut mk) = (row_keys(&s.rows), row_keys(&mat.rows));
        sk.sort();
        mk.sort();
        assert_eq!(sk, mk, "row multiset diverges for {sql}");
    }
}

/// A large `TABLE(SPATIAL_JOIN)` self-join scan: the streaming executor
/// must keep its resident footprint at batch scale while producing tens
/// of thousands of rows, and a `LIMIT 10` on the same scan must do a
/// small fraction of the R-tree work (the limit closes the pipeline,
/// which stops the join mid-traversal).
#[test]
fn scan_is_batch_bounded_and_limit_stops_the_join() {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    load_counties(&db, "grid", 4000, 7);
    db.execute("CREATE INDEX grid_sidx ON grid(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    let scan = "SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN( \
                'grid', 'geom', 'grid', 'geom', 'intersect'))";

    let before = db.counters().snapshot();
    let full = db.execute(scan).unwrap();
    let full_work = db.counters().diff(&before).total();
    // A jittered county grid gives each cell roughly 8 touching
    // neighbours plus itself.
    assert!(full.rows.len() > 16_384, "expected a large join, got {}", full.rows.len());

    let profile = db.last_profile().unwrap();
    let peak = profile.root.metric("peak_resident_rows").expect("statement reports peak");
    assert!(
        peak > 0 && peak <= 4 * 1024,
        "peak resident rows {peak} must be O(batch), not O(result = {})",
        full.rows.len()
    );

    let before = db.counters().snapshot();
    let limited = db.execute(&format!("{scan} LIMIT 10")).unwrap();
    let limited_work = db.counters().diff(&before).total();
    assert_eq!(limited.rows.len(), 10);
    assert_eq!(limited.rows, full.rows[..10].to_vec(), "LIMIT must be a prefix of the scan");
    // One batch of pairs plus join start-up costs a few percent of the
    // full traversal; without early close the limited query would do
    // ~100% of it.
    assert!(
        (limited_work as f64) < (full_work as f64) * 0.25,
        "LIMIT 10 did {limited_work} of {full_work} work units; \
         early termination should stop the traversal"
    );
}

/// LIMIT through the rowid-pair semijoin, serial and parallel: early
/// close must propagate through the table function (joining slave
/// threads at dop 2) and still produce correct rows.
#[test]
fn limit_terminates_semijoin_cleanly() {
    let db = session_with_tables();
    for dop in ["", ", 2"] {
        let sql = format!(
            "SELECT a.id, b.id FROM city_table a, river_table b \
             WHERE (a.rowid, b.rowid) IN \
             (SELECT rid1, rid2 FROM TABLE(SPATIAL_JOIN( \
              'city_table', 'geom', 'river_table', 'geom', 'intersect'{dop}))) LIMIT 10"
        );
        let res = db.execute(&sql).unwrap();
        assert_eq!(res.rows.len(), 10, "dop '{dop}'");
    }
}

/// The `max_resident_rows` budget replaces the old hard-coded cross
/// product cap: exceeding it fails with the operator's name, raising it
/// lets the query through — in both executors.
#[test]
fn max_resident_rows_budget_is_enforced() {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    db.execute("CREATE TABLE a (id NUMBER)").unwrap();
    db.execute("CREATE TABLE b (id NUMBER)").unwrap();
    for i in 0..200 {
        db.insert_row("a", vec![Value::Integer(i)]).unwrap();
        db.insert_row("b", vec![Value::Integer(i)]).unwrap();
    }
    for mode in ["off", "on"] {
        db.execute(&format!("ALTER SESSION SET materialize = {mode}")).unwrap();
        db.execute("ALTER SESSION SET max_resident_rows = 5000").unwrap();
        let err = db.execute("SELECT COUNT(*) FROM a, b").unwrap_err().to_string();
        assert!(
            err.contains("MAX_RESIDENT_ROWS"),
            "materialize={mode}: budget error should name the option, got: {err}"
        );
        db.execute("ALTER SESSION SET max_resident_rows = 100000").unwrap();
        let n = db.execute("SELECT COUNT(*) FROM a, b").unwrap().count().unwrap();
        assert_eq!(n, 200 * 200, "materialize={mode}");
    }

    // The index rowid scan charges its rowid list: a budget below the
    // window's answer fails naming the scan.
    let db = session_with_tables();
    db.execute("ALTER SESSION SET parallel_dop = 1").unwrap();
    let window = "SELECT id FROM city_table WHERE SDO_RELATE(geom, \
                  SDO_GEOMETRY('POLYGON ((-100 30, -90 30, -90 40, -100 40, -100 30))'), \
                  'intersect') = 'TRUE'";
    let n = db.execute(window).unwrap().rows.len();
    assert!(n >= 2, "the window needs at least two rows, got {n}");
    db.execute(&format!("ALTER SESSION SET max_resident_rows = {}", n - 1)).unwrap();
    let err = db.execute(window).unwrap_err().to_string();
    assert!(
        err.contains("MAX_RESIDENT_ROWS") && err.contains("INDEX ROWID SCAN CITY_TABLE"),
        "budget error should name the index scan, got: {err}"
    );
    db.execute(&format!("ALTER SESSION SET max_resident_rows = {n}")).unwrap();
    assert_eq!(db.execute(window).unwrap().rows.len(), n);
}

#[test]
fn session_options_and_limit_validation() {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    db.execute("CREATE TABLE t (id NUMBER)").unwrap();
    for i in 0..10 {
        db.insert_row("t", vec![Value::Integer(i)]).unwrap();
    }

    // Option round-trips.
    assert!(!db.options().materialize);
    db.execute("ALTER SESSION SET materialize = on").unwrap();
    assert!(db.options().materialize);
    db.execute("ALTER SESSION SET materialize = off").unwrap();
    assert!(!db.options().materialize);
    db.execute("ALTER SESSION SET max_resident_rows = 1234").unwrap();
    assert_eq!(db.options().max_resident_rows, 1234);

    // Rejected values.
    assert!(db.execute("ALTER SESSION SET max_resident_rows = 0").is_err());
    assert!(db.execute("ALTER SESSION SET max_resident_rows = banana").is_err());
    assert!(db.execute("ALTER SESSION SET materialize = sideways").is_err());
    let err = db.execute("ALTER SESSION SET no_such_option = 1").unwrap_err().to_string();
    assert!(err.contains("unknown session option"), "{err}");

    // LIMIT wiring: negative rejected at parse, 0 and n honored.
    assert!(db.execute("SELECT id FROM t LIMIT -1").is_err());
    assert_eq!(db.execute("SELECT id FROM t LIMIT 0").unwrap().rows.len(), 0);
    let res = db.execute("SELECT id FROM t ORDER BY id LIMIT 3").unwrap();
    let ids: Vec<i64> = res.rows.iter().map(|r| r[0].as_integer().unwrap()).collect();
    assert_eq!(ids, vec![0, 1, 2]);
}

/// The full corpus must return *bit-identical* rows — order included —
/// at parallel_dop 1, 2, and 4. The morsel size is shrunk so the
/// 60-row tables actually fan out; the exchange's morsel-ordered merge
/// is what makes this hold. The one exception is the table function
/// running with its *own* slave dop: its pair stream is unordered at
/// the source (two TF slaves race to emit), so that entry is compared
/// as a multiset — the exchange cannot restore an order the producer
/// never had.
#[test]
fn corpus_is_dop_invariant() {
    sdo_dbms::set_morsel_rows(8);
    let db = session_with_tables();
    db.execute("ALTER SESSION SET parallel_dop = 1").unwrap();
    let corpus = corpus();
    let baseline: Vec<_> = corpus.iter().map(|(sql, _)| db.execute(sql).unwrap()).collect();
    for dop in [2usize, 4] {
        db.execute(&format!("ALTER SESSION SET parallel_dop = {dop}")).unwrap();
        for ((sql, _), base) in corpus.iter().zip(&baseline) {
            let res = db.execute(sql).unwrap();
            assert_eq!(res.columns, base.columns, "columns diverge at dop {dop} for {sql}");
            if sql.contains("'intersect', 2") {
                let (mut rk, mut bk) = (row_keys(&res.rows), row_keys(&base.rows));
                rk.sort();
                bk.sort();
                assert_eq!(rk, bk, "row multiset diverges at dop {dop} for {sql}");
            } else {
                assert_eq!(res.rows, base.rows, "rows diverge at dop {dop} for {sql}");
            }
        }
    }
}

/// Parallelism must not loosen the resident-row budget: with the
/// morsel size shrunk and a tight (but sufficient) budget, the same
/// query respects `max_resident_rows` at every dop, and the profiled
/// peak stays within the budget.
#[test]
fn resident_budget_holds_at_every_dop() {
    sdo_dbms::set_morsel_rows(8);
    let db = session_with_tables();
    db.execute("ALTER SESSION SET max_resident_rows = 200").unwrap();
    for dop in [1usize, 2, 4] {
        db.execute(&format!("ALTER SESSION SET parallel_dop = {dop}")).unwrap();
        let res = db.execute("SELECT id FROM city_table WHERE id >= 0 ORDER BY id").unwrap();
        assert_eq!(res.rows.len(), 60, "dop {dop}");
        let profile = db.last_profile().unwrap();
        let peak = profile.root.metric("peak_resident_rows").expect("peak reported");
        assert!(peak <= 200, "dop {dop}: peak {peak} exceeds the session budget");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Parallel sort and top-k must match the serial plan bit for bit,
    /// tie-breaks included: coordinates are drawn from a tiny grid so
    /// duplicate geometries (equal distances) are common, and the
    /// serial executor breaks those ties by stable-sort scan order.
    #[test]
    fn parallel_sort_and_topk_match_serial_bit_for_bit(
        coords in proptest::collection::vec((0i64..10, 0i64..10), 24..120),
        k in 1usize..24,
    ) {
        sdo_dbms::set_morsel_rows(8);
        let db = Database::new();
        sdo_core::register_spatial(&db);
        db.execute("CREATE TABLE pts (id NUMBER, geom SDO_GEOMETRY)").unwrap();
        for (i, (x, y)) in coords.iter().enumerate() {
            let g = sdo_geom::wkt::parse_wkt(&format!("POINT ({x} {y})")).unwrap();
            db.insert_row("pts", vec![Value::Integer(i as i64), Value::geometry(g)]).unwrap();
        }
        let queries = [
            "SELECT id FROM pts ORDER BY SDO_DISTANCE(geom, SDO_POINT(5, 5))".to_string(),
            format!("SELECT id FROM pts ORDER BY SDO_DISTANCE(geom, SDO_POINT(5, 5)) LIMIT {k}"),
            format!(
                "SELECT id FROM pts ORDER BY SDO_DISTANCE(geom, SDO_POINT(5, 5)) DESC LIMIT {k}"
            ),
        ];
        db.execute("ALTER SESSION SET parallel_dop = 1").unwrap();
        let serial: Vec<_> = queries.iter().map(|q| db.execute(q).unwrap().rows).collect();
        for dop in [2usize, 4] {
            db.execute(&format!("ALTER SESSION SET parallel_dop = {dop}")).unwrap();
            for (q, s) in queries.iter().zip(&serial) {
                let par = db.execute(q).unwrap().rows;
                prop_assert_eq!(&par, s, "dop {} diverges for {}", dop, q);
            }
        }
    }
}

/// `parallel_dop` validation: zero and out-of-range rejected with the
/// legal range in the message, garbage rejected, valid values
/// round-trip — consistent with `max_resident_rows` handling.
#[test]
fn parallel_dop_option_is_validated() {
    let db = Database::new();
    sdo_core::register_spatial(&db);
    db.execute("ALTER SESSION SET parallel_dop = 4").unwrap();
    assert_eq!(db.options().parallel_dop, 4);
    db.execute("ALTER SESSION SET parallel_dop = 1").unwrap();
    assert_eq!(db.options().parallel_dop, 1);

    let err = db.execute("ALTER SESSION SET parallel_dop = 0").unwrap_err().to_string();
    assert!(err.contains("between 1 and 64"), "zero must name the range: {err}");
    let err = db.execute("ALTER SESSION SET parallel_dop = 65").unwrap_err().to_string();
    assert!(err.contains("between 1 and 64"), "overflow must name the range: {err}");
    let err = db.execute("ALTER SESSION SET parallel_dop = banana").unwrap_err().to_string();
    assert!(err.contains("invalid value"), "garbage must be rejected: {err}");
    // Failed SETs leave the option untouched.
    assert_eq!(db.options().parallel_dop, 1);
}

/// EXECUTE of a prepared statement re-resolves the dop from the
/// session options at execution time: the same prepared SELECT runs
/// parallel after `SET parallel_dop = 4` and serial after `= 1`,
/// observable through the EXPLAIN ANALYZE profile.
#[test]
fn execute_reresolves_dop_from_session_options() {
    sdo_dbms::set_morsel_rows(8);
    let db = session_with_tables();
    db.execute("PREPARE q AS SELECT id FROM city_table WHERE id >= 0").unwrap();

    db.execute("ALTER SESSION SET parallel_dop = 4").unwrap();
    let par = db.execute("EXECUTE q").unwrap();
    assert_eq!(par.rows.len(), 60);
    let profile = db.last_profile().unwrap();
    assert!(
        profile.root.find("EXCHANGE").is_some(),
        "dop 4 EXECUTE must run through the exchange:\n{}",
        profile.render_text()
    );

    db.execute("ALTER SESSION SET parallel_dop = 1").unwrap();
    let ser = db.execute("EXECUTE q").unwrap();
    assert_eq!(ser.rows, par.rows, "dop must not change results");
    let profile = db.last_profile().unwrap();
    assert!(
        profile.root.find("EXCHANGE").is_none(),
        "dop 1 EXECUTE must stay serial:\n{}",
        profile.render_text()
    );
}
