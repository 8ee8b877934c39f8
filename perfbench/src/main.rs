//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-join --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Starts `sdo-server` in-process on loopback, drives one workload over
//! the wire protocol, checks every answer, and prints as its last line
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the run splits its time between an untraced pass and a
//! traced replay (see `trace.rs`) and reports the per-layer metrics.
//! The line before it is the host block. README.md lists the
//! workloads, metrics and layer map.

mod common;
mod index_build;
mod oltp_mix;
mod paper_join;
mod spin;
mod stats;
mod trace;

use stats::{json_num, json_str, metrics_json, pct, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Tracer, LAYERS};

/// Child processes of an untraced run. Each sets up its own database
/// and measures its share of the time; their samples are pooled. Speed
/// differs from process to process (memory placement) by more than it
/// varies within one, so pooling parts steadies the figures. `setup_s`
/// is the median of the parts' set-up times.
const PARTS: usize = 6;

/// Statement class slots. Each workload maps its classes onto them
/// (README.md); every workload reports every slot.
pub const CLASSES: usize = 3;

/// Class slots with end-to-end metrics. The third slot's latency
/// (`oltp-mix` inserts, bound by fsync) moves too much from run to run on
/// a shared host to carry a bound, so it is reported only by the traced
/// run (`txn.commit_p90_us`, the `*.q3` layer figures).
const REPORTED: usize = 2;

/// The share of a run's measuring time one untraced pass covers.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Which pass, from 0.
    pub index: usize,
    /// Passes in the run.
    pub parts: usize,
    /// The whole run's measuring time, in s.
    pub seconds: f64,
}

impl Slice {
    /// An even share of the run's time.
    pub fn even(&self) -> f64 {
        self.seconds / self.parts as f64
    }
}

/// One rate step of an untraced pass (closed loops have one step, at
/// rate 0: as fast as the client can go).
#[derive(Default, Clone)]
pub struct Step {
    /// Offered statements per second; 0 for a closed loop.
    pub rate: f64,
    /// Latency per class slot, in ms. Open-loop requests still unsent
    /// when their step ended are `f64::INFINITY`.
    pub lat: [Vec<f64>; CLASSES],
    /// The load generator kept up: its lateness did not grow.
    pub steady: bool,
}

/// What one untraced pass measured.
#[derive(Default)]
pub struct Outcome {
    /// Rate steps; the first one's latencies are the end-to-end figures.
    pub steps: Vec<Step>,
    /// Statements sent.
    pub attempted: u64,
    /// Statements that returned an error, admission refusals included.
    pub failed: u64,
    /// Per-layer figures the untraced pass can measure (counter
    /// deltas, generator lateness).
    pub layer: Metrics,
}

impl Outcome {
    /// Pool another part's samples into this one.
    fn merge(&mut self, other: Outcome) {
        if self.steps.len() < other.steps.len() {
            self.steps.resize(other.steps.len(), Step { steady: true, ..Step::default() });
        }
        for (mine, theirs) in self.steps.iter_mut().zip(other.steps) {
            mine.rate = theirs.rate;
            mine.steady &= theirs.steady;
            for (a, b) in mine.lat.iter_mut().zip(theirs.lat) {
                a.extend(b);
            }
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A workload: set-up, an untraced timed pass, and a traced replay.
pub trait Workload: Sized {
    /// Percentile reported in the `*_tail_ms` slots: the highest one
    /// that leaves at least ten samples beyond it at `run_seconds` and
    /// repeats from run to run.
    const TAIL: f64;

    /// Share of a traced pass spent sending the workload's statements
    /// over the wire the way the untraced pass does; the rest replays
    /// them through the lower layers.
    const TRACE_WIRE_SHARE: f64;

    /// Generate, load, index, ANALYZE, (checkpoint,) start the server.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Drive the workload untraced for this pass's share of the run.
    /// Wrong answers go to `errors`.
    fn run(&mut self, slice: Slice, errors: &mut Vec<String>) -> Outcome;

    /// Send the workload's statements over the wire as [`run`](Self::run)
    /// does, then replay them through lower and lower entry points, for
    /// `seconds` in all, recording spans and per-layer figures.
    fn trace(&mut self, seconds: f64, tr: &Tracer, m: &mut Metrics, errors: &mut Vec<String>);

    /// End-of-run checks on the database state.
    fn finish(&mut self, errors: &mut Vec<String>);

    /// `rate_s` of a (pooled) pass. For a closed loop: statements
    /// completed per second the client spent waiting on them, so the
    /// answer checks between statements and where the clock cut a pass
    /// off do not move it. Open loops override it.
    fn rate_s(o: &Outcome) -> f64 {
        let lat = o.steps.iter().flat_map(|s| s.lat.iter()).flatten().filter(|v| v.is_finite());
        let (n, busy_ms) = lat.fold((0usize, 0.0), |(n, t), v| (n + 1, t + v));
        stats::ratio(n as f64 * 1e3, busy_ms)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the child processes of an untraced run.
    part: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 30.0, trace: false, part: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?,
            "--seconds" => {
                a.seconds = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(format!("--seconds {v} out of range (0, 600]"));
                }
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {v} (0 or 1)")),
                }
            }
            "--part" => a.part = Some(v.parse().map_err(|_| format!("bad --part {v}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

/// End-to-end metrics, printed with `--trace 0`.
fn end_to_end_names() -> Vec<(String, &'static str)> {
    let mut v = vec![
        ("setup_s".to_string(), "s"),
        ("peak_rss_mb".to_string(), "MB"),
        ("ok_frac".to_string(), "frac"),
    ];
    for q in 1..=REPORTED {
        v.push((format!("q{q}_p50_ms"), "ms"));
        v.push((format!("q{q}_tail_ms"), "ms"));
    }
    v.push(("rate_s".to_string(), "1/s"));
    v
}

/// Per-layer metrics, printed with `--trace 1`. A metric of a layer
/// the workload bypasses reads 0.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let per_class = |base: &str, unit: &'static str, n: usize| {
        (1..=n).map(move |q| (format!("{base}.q{q}"), unit)).collect::<Vec<_>>()
    };
    let one = |name: &str, unit: &'static str| vec![(name.to_string(), unit)];
    let mut v = Vec::new();
    v.extend(per_class("server.overhead_ms", "ms", CLASSES));
    v.extend(one("server.admission_queued_frac", "frac"));
    v.extend(one("server.admission_rejected", "count"));
    v.extend(per_class("dbms.parse_us", "us", CLASSES));
    v.extend(per_class("dbms.plan_us", "us", CLASSES));
    v.extend(per_class("dbms.exec_ms", "ms", CLASSES));
    v.extend(per_class("dbms.rows_fetched_per_result", "count", CLASSES));
    v.extend(per_class("dbms.exchange_frac", "frac", CLASSES));
    v.extend(per_class("dbms.sql_over_tf_ms", "ms", 2));
    v.extend(per_class("core.join_tf_ms", "ms", 2));
    v.extend(one("core.geomcache_hit_ratio", "frac"));
    v.extend(per_class("core.build_parallel_stage_s", "s", 2));
    v.extend(per_class("core.build_merge_stage_s", "s", 2));
    v.extend(per_class("tablefunc.dop_speedup", "x", 2));
    v.extend(one("tablefunc.pool_workers_spawned", "count"));
    v.extend(per_class("rtree.primary_ms", "ms", 2));
    v.extend(per_class("rtree.candidates", "count", 2));
    v.extend(per_class("rtree.mbr_tests", "count", 2));
    v.extend(one("rtree.window_us", "us"));
    v.extend(one("rtree.knn_us", "us"));
    v.extend(per_class("rtree.node_reads_per_query", "count", 2));
    v.extend(one("rtree.insert_us", "us"));
    v.extend(one("rtree.bulk_load_ms", "ms"));
    v.extend(per_class("geom.secondary_ms", "ms", 2));
    v.extend(per_class("geom.true_hit_ratio", "frac", 2));
    v.extend(one("geom.window_refine_us", "us"));
    v.extend(one("quadtree.tessellate_s", "s"));
    v.extend(one("quadtree.tiles_per_geom", "count"));
    v.extend(one("storage.heap_insert_us", "us"));
    v.extend(one("storage.wal_bytes_per_insert", "B"));
    v.extend(per_class("storage.rows_scanned", "count", 2));
    v.extend(one("txn.fsyncs_per_commit", "frac"));
    v.extend(one("txn.commit_p90_us", "us"));
    v.extend(one("bench.generator_late_ms", "ms"));
    v.extend(one("bench.trace_overhead_frac", "frac"));
    v.extend(per_class("bench.accounted_frac", "frac", CLASSES));
    for l in LAYERS {
        v.extend(per_class(&format!("self_ms.{}", l.name()), "ms", CLASSES));
    }
    v
}

/// Peak resident set (VmHWM) of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Commit of the checked-out tree, when it is a git checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `nproc`: the machine parallelism the workloads size their dop and
/// client count by.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Working directory for files a run writes (database directories,
/// traces), inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".perfbench_out")
}

fn host_block(a: &Args, samples: &[usize]) -> String {
    let force = std::env::var("SDO_FORCE_SCALAR_KERNEL").map(|v| !v.is_empty() && v != "0");
    format!(
        "{{\"host\": {{\"nproc\": {}, \"isa\": {}, \"force_scalar_kernel\": {}, \"commit\": {}, \
         \"seed\": {}, \"durability\": \"fsync\", \"workload\": {}, \"seconds\": {}, \
         \"trace\": {}, \"samples\": {:?}}}}}",
        nproc(),
        json_str(&format!("{:?}", sdo_geom::simd::dispatched())),
        force.unwrap_or(false),
        json_str(&git_commit()),
        a.seed,
        json_str(&a.workload),
        json_num(a.seconds),
        a.trace as u8,
        samples,
    )
}

/// Print the host block and the result line.
fn report(a: &Args, o: &Outcome, names: &[(String, &'static str)], m: &Metrics, errors: &[String]) {
    for e in errors {
        eprintln!("check failed: {e}");
    }
    let samples: Vec<usize> =
        o.steps.first().map_or(vec![], |s| s.lat.iter().map(Vec::len).collect());
    println!("{}", host_block(a, &samples));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        errors.is_empty(),
        o.attempted.max(1),
        o.failed,
        metrics_json(names, m)
    );
}

/// Child process of an untraced run: one set-up, its [`Slice`] of the
/// measuring time, samples printed as `part` lines for the parent. The
/// spin threads run from before set-up to the end (see `spin.rs`).
fn drive_part<W: Workload>(a: &Args) -> Result<(), String> {
    let _spin = spin::Spinners::start();
    let t = Instant::now();
    let mut w = W::setup(a.seed)?;
    let setup_s = t.elapsed().as_secs_f64();
    let mut errors = Vec::new();
    let slice = Slice { index: a.part.unwrap_or(0), parts: PARTS, seconds: a.seconds };
    let o = w.run(slice, &mut errors);
    w.finish(&mut errors);
    drop(w);
    println!("part setup_s {setup_s}");
    println!("part rss_mb {}", peak_rss_mb());
    println!("part count {} {}", o.attempted, o.failed);
    for (i, step) in o.steps.iter().enumerate() {
        for (q, lat) in step.lat.iter().enumerate() {
            let v: Vec<String> = lat.iter().map(|x| x.to_string()).collect();
            println!("part step {i} {} {} {q} {}", step.rate, u8::from(step.steady), v.join(" "));
        }
    }
    for e in errors {
        println!("part error {}", e.replace('\n', " "));
    }
    Ok(())
}

/// Parse a child's `part` lines into its outcome, set-up time, peak RSS
/// and failed checks.
fn parse_part(out: &str) -> Result<(Outcome, f64, f64, Vec<String>), String> {
    let mut o = Outcome::default();
    let (mut setup, mut rss, mut errors) = (0.0, 0.0, Vec::new());
    let num = |t: Option<&str>| -> Result<f64, String> {
        t.and_then(|v| v.parse().ok()).ok_or_else(|| format!("bad part line in {out:?}"))
    };
    for line in out.lines().filter_map(|l| l.strip_prefix("part ")) {
        let mut t = line.split(' ');
        match t.next() {
            Some("setup_s") => setup = num(t.next())?,
            Some("rss_mb") => rss = num(t.next())?,
            Some("count") => {
                o.attempted = num(t.next())? as u64;
                o.failed = num(t.next())? as u64;
            }
            Some("step") => {
                let i = num(t.next())? as usize;
                let rate = num(t.next())?;
                let steady = num(t.next())? == 1.0;
                let q = num(t.next())? as usize;
                if q >= CLASSES {
                    return Err(format!("class {q} out of range in {line:?}"));
                }
                if o.steps.len() <= i {
                    o.steps.resize(i + 1, Step::default());
                }
                let step = &mut o.steps[i];
                step.rate = rate;
                step.steady = steady;
                step.lat[q] =
                    t.filter(|v| !v.is_empty()).map(|v| num(Some(v))).collect::<Result<_, _>>()?;
            }
            Some("error") => errors.push(line["error ".len()..].to_string()),
            _ => return Err(format!("unknown part line {line:?}")),
        }
    }
    Ok((o, setup, rss, errors))
}

/// Untraced run: [`PARTS`] child processes, samples pooled.
fn drive_parts<W: Workload>(a: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut pooled = Outcome::default();
    let (mut setups, mut rss, mut errors) = (Vec::new(), Vec::new(), Vec::new());
    for part in 0..PARTS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &a.workload, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string(), "--trace", "0"])
            .args(["--part", &part.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("start part {part}: {e}"))?;
        if !out.status.success() {
            return Err(format!("part {part} failed: {}", out.status));
        }
        let (o, setup, r, errs) = parse_part(&String::from_utf8_lossy(&out.stdout))?;
        pooled.merge(o);
        setups.push(setup);
        rss.push(r);
        errors.extend(errs);
    }
    let mut m = Metrics::new();
    m.insert("setup_s".into(), pct(&setups, 0.5));
    m.insert("peak_rss_mb".into(), pct(&rss, 0.5));
    m.insert("ok_frac".into(), 1.0 - stats::ratio(pooled.failed as f64, pooled.attempted as f64));
    let base = pooled.steps.first().cloned().unwrap_or_default();
    for (q, lat) in base.lat.iter().enumerate().take(REPORTED) {
        m.insert(format!("q{}_p50_ms", q + 1), pct(lat, 0.5));
        m.insert(format!("q{}_tail_ms", q + 1), pct(lat, W::TAIL));
    }
    m.insert("rate_s".into(), W::rate_s(&pooled));
    report(a, &pooled, &end_to_end_names(), &m, &errors);
    Ok(())
}

/// Traced run, in this process: an untraced half for the baseline and
/// the counter deltas, then the traced half, both beside the spin
/// threads.
fn drive_traced<W: Workload>(a: &Args) -> Result<(), String> {
    let _spin = spin::Spinners::start();
    let mut errors = Vec::new();
    let mut w = W::setup(a.seed)?;
    let o = w.run(Slice { index: 0, parts: 1, seconds: a.seconds / 2.0 }, &mut errors);
    let mut m = o.layer.clone();
    let tr = Tracer::new();
    w.trace(a.seconds / 2.0, &tr, &mut m, &mut errors);
    w.finish(&mut errors);
    let base = o.steps.first().cloned().unwrap_or_default();
    for (q, c) in tr.layer_self(CLASSES).iter().enumerate() {
        let n = q + 1;
        let untraced = pct(&base.lat[q], 0.5);
        let sum: f64 = c.self_ms.values().sum();
        for (l, v) in &c.self_ms {
            m.insert(format!("self_ms.{}.q{n}", l.name()), *v);
        }
        m.insert(format!("bench.accounted_frac.q{n}"), stats::ratio(sum, untraced));
        if q == 0 {
            m.insert(
                "bench.trace_overhead_frac".into(),
                stats::ratio(c.wire_p50 - untraced, untraced),
            );
        }
        if c.replayed > 0 && (sum / untraced - 1.0).abs() > 0.10 {
            eprintln!(
                "warning: q{n} layer self times sum to {sum:.3} ms over {} replayed \
                 requests, untraced p50 is {untraced:.3} ms: more than 10% apart",
                c.replayed
            );
        }
    }
    let path = out_dir().join(format!("trace-{}-seed{}.jsonl", a.workload, a.seed));
    let trailer: Vec<String> = m
        .iter()
        .map(|(k, v)| format!("{{\"metric\": {}, \"value\": {}}}", json_str(k), json_num(*v)))
        .collect();
    tr.write(&path, &trailer).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    report(a, &o, &per_layer_names(), &m, &errors);
    Ok(())
}

fn drive<W: Workload>(a: &Args) -> Result<(), String> {
    match (a.trace, a.part) {
        (true, _) => drive_traced::<W>(a),
        (false, Some(_)) => drive_part::<W>(a),
        (false, None) => drive_parts::<W>(a),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let t = Instant::now();
    let result = match args.workload.as_str() {
        "paper-join" => drive::<paper_join::PaperJoin>(&args),
        "oltp-mix" => drive::<oltp_mix::OltpMix>(&args),
        "index-build" => drive::<index_build::IndexBuild>(&args),
        other => Err(format!("unknown workload '{other}' (paper-join, oltp-mix, index-build)")),
    };
    if args.part.is_none() {
        eprintln!("perfbench: {} in {:.1?}", args.workload, t.elapsed());
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Wall time since `t`, in ms.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `d` in ms.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics the benchmark prints, with the same units.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = end_to_end_names().into_iter().chain(per_layer_names());
        let mut n = 0;
        for (name, unit) in names {
            let entry = format!("{{\"name\": {}, \"unit\": {},", json_str(&name), json_str(unit));
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
            n += 1;
        }
        let workloads = ["paper-join", "oltp-mix", "index-build"];
        for w in workloads {
            assert!(spec.contains(&format!("{{\"name\": \"{w}\", \"why\":")), "workload {w}");
        }
        assert_eq!(spec.matches("{\"name\": ").count(), n + workloads.len(), "extra entries");
    }
}
