//! Cost-based planner: does `auto` track the best static plan?
//!
//! ```sh
//! cargo run --release -p sdo-bench --bin exp_planner
//! cargo run --release -p sdo-bench --bin exp_planner -- --quick   # CI smoke
//! SDO_SCALE=0.002 cargo run -p sdo-bench --bin exp_planner        # tiny
//! ```
//!
//! Four workloads, each with every static alternative timed next to
//! the planner's pick (DESIGN.md "Cost-based planning"):
//!
//! * **uniform join, indexed** — both sides carry R-trees and, at
//!   dop=1, a serial partition build can never pay off: `method=auto`
//!   must keep the tree join.
//! * **unindexed primary-filter join** — no indexes exist, so the
//!   honest tree-join cost is CREATE INDEX on both sides plus the
//!   query; `auto` must go straight to the grid partition (the
//!   `'FILTER'` interaction isolates the engines — no shared exact
//!   secondary filter to dilute the gap).
//! * **hotspot-skew join, indexed** — 70% of the rows in one Gaussian
//!   cluster make the pair count quadratic; the engines land near
//!   parity here (both are output-bound), so the planner's job is to
//!   stay within noise of the best static pick.
//! * **window filter, selective** — a small window on an analyzed,
//!   indexed table: the planner picks the index rowid scan, which
//!   fetches only the answer rows (asserted, also under `--quick`: at
//!   most 4 heap-row fetches per result row); the static alternative
//!   (functional scan, timed on an index-less twin of the same data)
//!   pays an exact test per row.
//! * **top-k by distance** — `ORDER BY SDO_DISTANCE(...) LIMIT k`
//!   pushes into the R-tree best-first search; the static sort plan
//!   (forced with a second order key) ranks the whole table. Also
//!   reports `peak_resident_rows` for both.
//!
//! Every comparison first asserts the plans return identical results.

use sdo_bench::*;
use sdo_datagen::{counties, hotspot, US_EXTENT};
use sdo_dbms::Database;
use std::time::Duration;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "quick");
    if quick {
        // CI smoke: fixed tiny sizes regardless of SDO_SCALE.
        run(2_000, 1_500, 2_000, true);
    } else {
        run(scaled(60_000, 2_000), scaled(15_000, 1_500), scaled(60_000, 2_000), false);
    }
}

/// Best-of-3 wall time; the closure must be deterministic.
fn best3<T: Eq + std::fmt::Debug>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let (mut out, mut best) = timed(&mut f);
    for _ in 1..3 {
        let (o, t) = timed(&mut f);
        assert_eq!(o, out, "non-deterministic benchmark result");
        out = o;
        best = best.min(t);
    }
    (out, best)
}

fn join_sql(method: &str, interaction: &str, dop: usize) -> String {
    format!(
        "SELECT COUNT(*) FROM TABLE(SPATIAL_JOIN( \
         'a', 'geom', 'b', 'geom', '{interaction}', {dop}, -1, 'method={method}'))"
    )
}

/// `method_chosen` attribute of the last profiled statement.
fn chosen(db: &Database) -> String {
    db.last_profile()
        .and_then(|p| {
            p.root.find("PIPELINED COUNT").and_then(|op| {
                op.attrs.iter().find(|(k, _)| k == "method_chosen").map(|(_, v)| v.clone())
            })
        })
        .unwrap_or_default()
}

fn peak_resident(db: &Database) -> u64 {
    db.last_profile().and_then(|p| p.root.metric("peak_resident_rows")).unwrap_or(0)
}

fn report(label: &str, auto_t: Duration, statics: &[(&str, Duration)], quick: bool) {
    let best = statics.iter().map(|(_, t)| *t).min().unwrap();
    let worst = statics.iter().map(|(_, t)| *t).max().unwrap();
    let vs_best = auto_t.as_secs_f64() / best.as_secs_f64().max(1e-12);
    let vs_worst = worst.as_secs_f64() / auto_t.as_secs_f64().max(1e-12);
    println!(
        "   auto {} | vs best static {:.2}x | {:.2}x faster than worst",
        secs(auto_t),
        vs_best,
        vs_worst
    );
    if !quick {
        assert!(
            vs_best <= 1.15,
            "{label}: auto ({auto_t:?}) must stay within 15% of the best static ({best:?})"
        );
    }
}

fn run(n_uniform: usize, n_hot: usize, n_topk: usize, quick: bool) {
    println!("== exp_planner: cost-picked plans vs static alternatives ==");

    // -- workload 1: uniform self-join, both sides indexed ------------------
    println!();
    println!("-- uniform join, indexed ({n_uniform} x {n_uniform}, dop=1) --");
    let geoms = counties::generate(n_uniform, &US_EXTENT, 31);
    let db = session();
    load_table(&db, "a", &geoms);
    load_table(&db, "b", &geoms);
    for t in ["a", "b"] {
        db.execute(&format!("CREATE INDEX {t}_x ON {t}(geom) INDEXTYPE IS SPATIAL_INDEX")).unwrap();
        db.execute(&format!("ANALYZE TABLE {t}")).unwrap();
    }
    let (c_rt, t_rt) = best3(|| count(&db, &join_sql("rtree", "intersect", 1)));
    let (c_pt, t_pt) = best3(|| count(&db, &join_sql("partition", "intersect", 1)));
    let (c_auto, t_auto) = best3(|| count(&db, &join_sql("auto", "intersect", 1)));
    assert_eq!(c_rt, c_pt, "engines disagree");
    assert_eq!(c_rt, c_auto, "auto changed the result");
    let pick = chosen(&db);
    println!("   rtree {}  partition {}  auto picked '{pick}'", secs(t_rt), secs(t_pt));
    report("uniform-indexed", t_auto, &[("rtree", t_rt), ("partition", t_pt)], quick);
    assert_eq!(pick, "rtree", "few predicted pairs on built trees must keep the tree join");

    // -- workload 2: unindexed primary-filter join --------------------------
    println!();
    println!("-- unindexed primary-filter join ({n_uniform} x {n_uniform}, 'FILTER', dop=4) --");
    let geoms = counties::generate(n_uniform, &US_EXTENT, 32);
    let db = session();
    load_table(&db, "a", &geoms);
    load_table(&db, "b", &geoms);
    let (c_pt, t_pt) = best3(|| count(&db, &join_sql("partition", "FILTER", 4)));
    let (c_auto, t_auto) = best3(|| count(&db, &join_sql("auto", "FILTER", 4)));
    let pick = chosen(&db);
    // The honest static tree-join cost on unindexed inputs: build both
    // indexes, query, drop the session. One shot (index builds are not
    // amortizable here — that is the point).
    let (c_ix, t_ix) = timed(|| {
        let db2 = session();
        load_table(&db2, "a", &geoms);
        load_table(&db2, "b", &geoms);
        for t in ["a", "b"] {
            db2.execute(&format!("CREATE INDEX {t}_x ON {t}(geom) INDEXTYPE IS SPATIAL_INDEX"))
                .unwrap();
        }
        count(&db2, &join_sql("rtree", "FILTER", 4))
    });
    assert_eq!(c_pt, c_auto, "auto changed the result");
    assert_eq!(c_pt, c_ix, "engines disagree");
    println!("   partition {}  rtree(build+join) {}  auto picked '{pick}'", secs(t_pt), secs(t_ix));
    report("unindexed-filter", t_auto, &[("partition", t_pt), ("rtree+build", t_ix)], quick);
    assert_eq!(pick, "partition", "unindexed inputs must go straight to the grid partition");

    // -- workload 3: hotspot-skew join, indexed -----------------------------
    println!();
    println!("-- hotspot join, indexed ({n_hot} x {n_hot}, 70% cluster, dop=4) --");
    let geoms = hotspot::generate(n_hot, &US_EXTENT, 0.7, 35);
    let db = session();
    load_table(&db, "a", &geoms);
    load_table(&db, "b", &geoms);
    for t in ["a", "b"] {
        db.execute(&format!("CREATE INDEX {t}_x ON {t}(geom) INDEXTYPE IS SPATIAL_INDEX")).unwrap();
        db.execute(&format!("ANALYZE TABLE {t}")).unwrap();
    }
    let (c_rt, t_rt) = best3(|| count(&db, &join_sql("rtree", "intersect", 4)));
    let (c_pt, t_pt) = best3(|| count(&db, &join_sql("partition", "intersect", 4)));
    let (c_auto, t_auto) = best3(|| count(&db, &join_sql("auto", "intersect", 4)));
    assert_eq!(c_rt, c_pt, "engines disagree");
    assert_eq!(c_rt, c_auto, "auto changed the result");
    let pick = chosen(&db);
    println!("   rtree {}  partition {}  auto picked '{pick}'", secs(t_rt), secs(t_pt));
    report("hotspot-indexed", t_auto, &[("rtree", t_rt), ("partition", t_pt)], quick);

    // -- workload 4: selective window, index vs functional ------------------
    println!();
    println!("-- selective window filter, indexed vs functional ({n_uniform} rows) --");
    let geoms = counties::generate(n_uniform, &US_EXTENT, 33);
    let db = session();
    load_table(&db, "t", &geoms);
    db.execute("CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    db.execute("ANALYZE TABLE t").unwrap();
    // Twin without an index: the functional-scan static plan.
    let twin = session();
    load_table(&twin, "t", &geoms);
    let window = "SELECT COUNT(*) FROM t WHERE SDO_RELATE(geom, \
                  SDO_GEOMETRY('POLYGON ((-104 38, -100 38, -100 41, -104 41, -104 38))'), \
                  'ANYINTERACT') = 'TRUE'";
    let (c_auto, t_auto) = best3(|| count(&db, window));
    let (c_fn, t_fn) = best3(|| count(&twin, window));
    assert_eq!(c_auto, c_fn, "filter paths disagree");
    let before = db.counters().snapshot();
    count(&db, window);
    let fetches = db.counters().diff(&before).get("row_fetches").unwrap_or(0);
    let per_result = fetches as f64 / c_auto.max(1) as f64;
    println!("   index rowid scan (auto) {}  functional scan {}", secs(t_auto), secs(t_fn));
    println!(
        "   auto fetched {fetches} heap rows for {c_auto} results ({per_result:.2} per result)"
    );
    report("selective-window", t_auto, &[("index", t_auto), ("functional", t_fn)], quick);
    assert!(
        per_result <= 4.0,
        "the selective window must fetch its answer rows, not scan the table: \
         {fetches} fetches for {c_auto} results"
    );

    // -- workload 5: top-k by distance --------------------------------------
    println!();
    println!("-- top-k by distance, kNN pushdown vs full sort ({n_topk} rows, k=10) --");
    let geoms = counties::generate(n_topk, &US_EXTENT, 34);
    let db = session();
    load_table(&db, "t", &geoms);
    db.execute("CREATE INDEX t_x ON t(geom) INDEXTYPE IS SPATIAL_INDEX").unwrap();
    let knn_q = "SELECT id FROM t \
                 ORDER BY SDO_DISTANCE(geom, SDO_POINT(-100, 38)) LIMIT 10";
    // A second order key defeats the pushdown: the static sort plan.
    let sort_q = "SELECT id FROM t \
                  ORDER BY SDO_DISTANCE(geom, SDO_POINT(-100, 38)), id LIMIT 10";
    let ids = |db: &Database, sql: &str| -> Vec<i64> {
        db.execute(sql).unwrap().rows.iter().map(|r| r[0].as_integer().unwrap()).collect()
    };
    let (r_knn, t_knn) = best3(|| ids(&db, knn_q));
    let res_knn = peak_resident(&db);
    let (r_sort, t_sort) = best3(|| ids(&db, sort_q));
    let res_sort = peak_resident(&db);
    assert_eq!(r_knn, r_sort, "pushdown changed the top-k order");
    println!(
        "   knn pushdown {} ({res_knn} resident rows)  full sort {} ({res_sort} resident rows)",
        secs(t_knn),
        secs(t_sort)
    );
    report("top-k", t_knn, &[("knn", t_knn), ("sort", t_sort)], quick);
    assert!(
        res_knn * 10 <= res_sort,
        "kNN pushdown must hold >=10x fewer resident rows: {res_knn} vs {res_sort}"
    );

    println!();
    println!("OK: auto tracked the best static plan on all workloads");
}
