//! perfbench — the end-to-end and per-layer benchmark of the workspace.
//!
//! ```text
//! cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload mem-uniform --seed 1 --seconds 45 --trace 0
//! ```
//!
//! A run sets its workload up several times (reporting the median as
//! `setup_s`), then runs the fixed number of iterations `--seconds` buys
//! on the reference host, checking every answer. An iteration runs the
//! families in turn: serve windows, the batch family, the graph family;
//! so every metric samples the whole run, not one stretch of it. With
//! `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
//! every other iteration records spans and enables the metrics
//! registries, and the run prints the per-layer metrics, each layer's
//! self time and the tracing overhead. Timed end-to-end metrics are in
//! reference-host seconds (see `host`). The last line of standard output
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! See `perfbench/README.md`.

mod batch;
mod envinfo;
mod graph;
mod host;
mod ledger;
mod serve;
mod shape;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use emcore::{EmContext, Result};

use batch::Batch;
use graph::GraphSet;
use host::Probe;
use ledger::{Iter, Ledger, Samples};
use serve::{Load, ServeSet, Window};
use shape::{Backend, Shape};
use spans::Recorder;

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Iterations per run, at least (a traced run alternates traced and
/// untraced ones, so it needs two).
const MIN_ITERS: usize = 2;
/// No iteration starts once a run has measured this multiple of
/// `--seconds`.
const OVERRUN: f64 = 1.5;
/// Fixed offered rate of the serve latency windows, queries per second.
const SERVE_RATE: f64 = 1000.0;
/// Queries per latency window (1 s at `SERVE_RATE`), leaving 10 samples
/// beyond its p99.
const SERVE_WINDOW: usize = 1000;
/// Tickets the sender of a capacity window runs ahead of the collector:
/// with the ticket awaited and the one being sent, 64 queries in flight.
const CAPACITY_AHEAD: usize = 62;
/// Queries per capacity window.
const CAPACITY_WINDOW: usize = 2000;
/// Where runs keep their temp roots, results and spans.
const OUT_DIR: &str = ".perfbench-runs";

struct Args {
    workload: Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?
            .to_string();
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        map.insert(key, v);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let names: Vec<&str> = shape::SHAPES.iter().map(|s| s.name).collect();
    let workload = Shape::by_name(name)
        .ok_or_else(|| format!("unknown workload {name:?}; expected one of {names:?}"))?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match map.get("trace").map_or("0", String::as_str) {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    if let Some(k) = map
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown option --{k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One complete set-up: the three families' state under one directory.
struct Setup {
    batch: Batch,
    graph: GraphSet,
    serve: ServeSet,
}

fn context(shape: &Shape, dir: &Path) -> Result<EmContext> {
    let cfg = shape.batch_config();
    match shape.backend {
        Backend::Memory => Ok(EmContext::new_in_memory(cfg)),
        Backend::Directory => EmContext::new_on_disk(cfg, dir),
    }
}

/// The workload's inputs: batch keys, raw graph edges, served data.
fn generate(shape: &Shape, seed: u64) -> (Vec<u64>, Vec<(u64, u64)>, Vec<u64>) {
    (
        workloads::generate(shape.keys, shape.n, seed),
        workloads::rmat_edges(shape::GRAPH_SCALE, shape::GRAPH_EDGES, seed),
        workloads::generate(workloads::Workload::UniformPerm, shape.n, seed ^ 0x5e77e),
    )
}

/// What the checks compare against, built once per run outside the
/// timed set-ups.
struct Oracle {
    sorted: Arc<Vec<u64>>,
    edges: u64,
}

impl Oracle {
    fn build(shape: &Shape, seed: u64) -> Self {
        let (mut keys, pairs, _) = generate(shape, seed);
        keys.sort_unstable();
        Oracle {
            sorted: Arc::new(keys),
            edges: graph::canonical_edges(&pairs),
        }
    }
}

fn setup(
    shape: &Shape,
    seed: u64,
    dir: &Path,
    rec: &Recorder,
    parent: Option<u64>,
    oracle: &Oracle,
    gen_s: &mut Vec<f64>,
) -> Result<Setup> {
    let ((keys, pairs, data), secs) =
        rec.time("workloads.generate", parent, |_| generate(shape, seed));
    gen_s.push(secs);
    let batch = rec
        .time("emcore.from_slice", parent, |_| {
            Batch::setup(
                context(shape, &dir.join("batch"))?,
                keys,
                Arc::clone(&oracle.sorted),
            )
        })
        .0?;
    let graph = rec
        .time("emgraph.edges_from_pairs", parent, |_| {
            GraphSet::setup(context(shape, &dir.join("graph"))?, &pairs, oracle.edges)
        })
        .0?;
    drop(pairs);
    let serve = rec
        .time("emserve.register", parent, |_| {
            ServeSet::setup(shape, data, seed)
        })
        .0?;
    Ok(Setup {
        batch,
        graph,
        serve,
    })
}

/// Block files left behind in a directory-backed context's `dir`.
fn leftover_files(shape: &Shape, dir: &Path) -> Result<u64> {
    if shape.backend == Backend::Memory {
        return Ok(0);
    }
    let stray = context(shape, dir)?.list_file_ids()?.len() as u64;
    if stray > 0 {
        eprintln!("perfbench: {stray} orphaned files in {}", dir.display());
    }
    Ok(stray)
}

/// Drop every context of `s` and count orphaned files.
fn teardown(s: Setup, shape: &Shape, dir: &Path) -> Result<u64> {
    let Setup {
        batch,
        graph,
        serve,
    } = s;
    drop((batch, graph));
    let mut orphans = leftover_files(shape, &dir.join("batch"))?;
    orphans += leftover_files(shape, &dir.join("graph"))?;
    serve.teardown()?;
    Ok(orphans)
}

/// Write every file under `dir` through to the device, so that the
/// write-back of the set-up's files does not land in the measured
/// iterations.
fn flush(dir: &Path) -> Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            flush(&path)?;
        } else {
            std::fs::File::open(&path)?.sync_all()?;
        }
    }
    Ok(())
}

/// Sum (from bucket floors, so a lower bound) and count of a histogram
/// in `ctx`'s metrics registry.
fn histogram(ctx: &EmContext, name: &str) -> (f64, f64) {
    let snap = ctx.metrics().snapshot(0);
    let Some(h) = snap.find(name, &[]).and_then(|s| s.hist.as_ref()) else {
        return (0.0, 0.0);
    };
    let sum: f64 = h
        .buckets
        .iter()
        .map(|(&i, &c)| emcore::metrics::bucket_floor(i) as f64 * c as f64)
        .sum();
    (sum, h.count() as f64)
}

fn serve_samples(it: &mut Iter<'_>, w: &Window) {
    for (name, v) in [
        ("serve_lat_ms", &w.lat_ms),
        ("serve_submit_ms", &w.submit_ms),
        ("serve_late_ms", &w.late_ms),
    ] {
        for &x in v {
            it.sample(name, x);
        }
    }
    let tail = stats::tail(&w.lat_ms, 99.0);
    let r = &w.report;
    for (name, v) in [
        ("serve_window_tail_ms", tail.value),
        ("serve_window_tail_pct", tail.pct),
        ("serve_queries", w.attempted as f64),
        ("serve_batches", r.batches as f64),
        ("serve_subqueries", r.queries as f64),
        ("serve_index_hits", r.index_hits as f64),
        ("serve_selected", r.selected as f64),
        ("serve_answer_us", r.answer_us as f64),
        ("serve_logical_ios", w.logical_ios as f64),
        ("serve_physical_ios", w.physical_ios as f64),
        ("cache_hits", w.cache_hits as f64),
        ("cache_misses", w.cache_misses as f64),
        ("cache_evictions", w.cache_evictions as f64),
    ] {
        it.sample(name, v);
    }
}

fn set_registries(s: &Setup, on: bool) {
    for c in [&s.batch.ctx, &s.graph.ctx, s.serve.router_ctx()] {
        c.metrics().set_enabled(on);
    }
}

/// One latency window at `SERVE_RATE`, then one capacity window.
fn serve_slot(serve: &mut ServeSet, it: &mut Iter<'_>) {
    let rec = Arc::clone(&it.ledger.rec);
    let (w, _) = rec.time("bench.serve_window", it.parent, |id| {
        serve.window(Load::Rate(SERVE_RATE), SERVE_WINDOW, &rec, id)
    });
    it.ledger.count("serve", w.attempted, w.failed);
    serve_samples(it, &w);
    let (w, _) = rec.time("bench.serve_capacity", it.parent, |id| {
        serve.window(Load::Ahead(CAPACITY_AHEAD), CAPACITY_WINDOW, &rec, id)
    });
    it.ledger.count("serve capacity", w.attempted, w.failed);
    it.sample("serve_capacity_qps", ratio(w.attempted as f64, w.secs));
}

/// One iteration: serve, the batch family, the graph family, each of
/// the last two after a host probe.
fn iteration(s: &mut Setup, ledger: &mut Ledger, probe: &mut Probe, traced: bool) {
    let rec = Arc::clone(&ledger.rec);
    set_registries(s, traced);
    let mut it = ledger.iter(traced);
    rec.time("bench.iteration", None, |id| {
        it.parent = id;
        serve_slot(&mut s.serve, &mut it);
        it.ledger.host_s.push(probe.run());
        s.batch.run_ops(&mut it);
        if traced {
            s.batch.run_layers(&mut it);
        }
        it.ledger.host_s.push(probe.run());
        s.graph.run_ops(&mut it);
    });
}

fn get<'a>(m: &'a Samples, k: &str) -> &'a [f64] {
    m.get(k).map_or(&[], Vec::as_slice)
}

fn med(m: &Samples, k: &str) -> f64 {
    stats::median(get(m, k))
}

fn total(m: &Samples, k: &str) -> f64 {
    get(m, k).iter().sum()
}

/// Mean seconds per call: the inverse of the call's throughput.
fn per_call(m: &Samples, k: &str) -> f64 {
    total(m, k) / get(m, k).len().max(1) as f64
}

/// A printed metric: name, value, unit.
type Metric = (String, f64, &'static str);

/// The serve fleet's tail latency at `SERVE_RATE` and its capacity, each
/// the median over the run's windows, so that one disturbed window does
/// not decide the run; printed with the pooled latencies.
fn serve_summary(m: &Samples) -> (f64, f64) {
    let (tail, qps) = (med(m, "serve_window_tail_ms"), med(m, "serve_capacity_qps"));
    let pooled = stats::tail(get(m, "serve_lat_ms"), 99.0);
    println!(
        "serve latency at {SERVE_RATE} q/s: {} samples, p50 {:.3} ms, p{} {:.3} ms; \
         sender lateness p99 {:.3} ms; per window: tail percentiles {:?}, \
         values {:?} ms; capacity with {CAPACITY_AHEAD} ahead per window {:?} q/s",
        pooled.samples,
        med(m, "serve_lat_ms"),
        pooled.pct,
        pooled.value,
        stats::tail(get(m, "serve_late_ms"), 99.0).value,
        get(m, "serve_window_tail_pct"),
        get(m, "serve_window_tail_ms"),
        get(m, "serve_capacity_qps"),
    );
    (tail, qps)
}

fn end_to_end(l: &Ledger, setup_s: &[f64]) -> Vec<Metric> {
    let p = &l.plain;
    serve_summary(p);
    let h = host::factor(&l.host_s);
    println!(
        "host probe: median {:.4} s over {} probes, factor {h:.4} (reference {} s); \
         the timings below are measured, the metrics reference-host seconds \
         (measured / factor)",
        stats::median(&l.host_s),
        l.host_s.len(),
        host::REFERENCE_SECS
    );
    for k in [
        "sort_s",
        "partition_s",
        "select_s",
        "splitters_s",
        "graph_build_s",
        "graph_cluster_s",
    ] {
        let v: Vec<String> = get(p, k).iter().map(|x| format!("{x:.4}")).collect();
        println!("{k} per iteration: {}", v.join(" "));
    }
    let mut out: Vec<Metric> = vec![("setup_s".into(), stats::median(setup_s) / h, "s")];
    for op in ["sort", "partition", "select", "splitters"] {
        out.push((format!("{op}_s"), per_call(p, &format!("{op}_s")) / h, "s"));
    }
    for op in ["sort", "partition", "select", "splitters"] {
        out.push((format!("{op}_ios"), med(p, &format!("{op}_ios")), "count"));
    }
    out.extend([
        (
            "graph_build_s".into(),
            per_call(p, "graph_build_s") / h,
            "s",
        ),
        (
            "graph_cluster_s".into(),
            per_call(p, "graph_cluster_s") / h,
            "s",
        ),
        ("graph_ios".into(), med(p, "graph_ios"), "count"),
        ("peak_rss_mb".into(), envinfo::peak_rss_mb(), "MiB"),
    ]);
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn per_layer(l: &Ledger, s: &Setup, shape: &Shape, gen_s: &[f64]) -> Vec<Metric> {
    let t = &l.traced;
    let mut out: Vec<Metric> = Vec::new();
    for name in ["emcore.scan_s", "emcore.write_s", "emcore.checksum_s"] {
        out.push((name.into(), med(t, name), "s"));
    }
    let ctxs = [&s.batch.ctx, &s.graph.ctx, s.serve.router_ctx()];
    for (dir, hist) in [
        ("read", "em_device_read_us"),
        ("write", "em_device_write_us"),
    ] {
        let (sum, count) = ctxs.iter().fold((0.0, 0.0), |(a, b), c| {
            let (s, n) = histogram(c, hist);
            (a + s, b + n)
        });
        out.push((format!("emcore.device_{dir}_us"), sum, "us"));
        out.push((format!("emcore.device_{dir}s"), count, "count"));
    }
    let queries = total(t, "serve_queries");
    for op in ["sort", "partition", "select", "splitters", "graph"] {
        out.push((
            format!("emcore.logical_ios.{op}"),
            med(t, &format!("{op}_ios")),
            "count",
        ));
        out.push((
            format!("emcore.physical_ios.{op}"),
            med(t, &format!("{op}_physical_ios")),
            "count",
        ));
    }
    out.push((
        "emcore.logical_ios.serve_query".into(),
        ratio(total(t, "serve_logical_ios"), queries),
        "count",
    ));
    out.push((
        "emcore.physical_ios.serve_query".into(),
        ratio(total(t, "serve_physical_ios"), queries),
        "count",
    ));
    let (hits, misses) = (total(t, "cache_hits"), total(t, "cache_misses"));
    out.push((
        "emcore.cache_hit_rate".into(),
        ratio(hits, hits + misses),
        "ratio",
    ));
    out.push(("emcore.cache_lookups".into(), hits + misses, "count"));
    out.push((
        "emcore.cache_evictions".into(),
        total(t, "cache_evictions"),
        "count",
    ));
    let mem_peak = s.batch.ctx.mem().peak().max(s.graph.ctx.mem().peak());
    out.push(("emcore.mem_peak_words".into(), mem_peak as f64, "words"));
    for name in [
        "emsort.form_runs_s",
        "emsort.merge_s",
        "emselect.sample_splitters_s",
        "emselect.count_buckets_s",
        "emselect.distribute_s",
        "emselect.three_way_split_s",
        "emselect.multi_partition_s",
    ] {
        out.push((name.into(), med(t, name), "s"));
    }
    let ios = |k: &str| med(t, k) as u64;
    let [part, split, select] = batch::io_ratios(
        shape,
        ios("partition_ios"),
        ios("splitters_ios"),
        ios("select_ios"),
    );
    out.extend([
        ("apsplit.partition_io_ratio".into(), part, "ratio"),
        ("apsplit.splitters_io_ratio".into(), split, "ratio"),
        ("emselect.select_io_ratio".into(), select, "ratio"),
        (
            "apsplit.splitters_rg_ios".into(),
            med(t, "splitters_rg_ios"),
            "count",
        ),
    ]);
    let (p99, qps) = serve_summary(t);
    out.extend([
        ("emserve.p50_ms".into(), med(t, "serve_lat_ms"), "ms"),
        ("emserve.p99_ms".into(), p99, "ms"),
        ("emserve.capacity_qps".into(), qps, "1/s"),
    ]);
    let submit = stats::tail(get(t, "serve_submit_ms"), 99.0);
    let (batches, subq) = (total(t, "serve_batches"), total(t, "serve_subqueries"));
    let answer_ms_per_batch = ratio(total(t, "serve_answer_us") / 1e3, batches);
    let mean_lat = ratio(
        total(t, "serve_lat_ms"),
        get(t, "serve_lat_ms").len() as f64,
    );
    let (hits, selected) = (total(t, "serve_index_hits"), total(t, "serve_selected"));
    out.extend([
        (
            "emserve.submit_ms_p50".into(),
            med(t, "serve_submit_ms"),
            "ms",
        ),
        ("emserve.submit_ms_p99".into(), submit.value, "ms"),
        (
            "emserve.answer_ms_per_batch".into(),
            answer_ms_per_batch,
            "ms",
        ),
        (
            "emserve.queue_wait_ms".into(),
            mean_lat - answer_ms_per_batch,
            "ms",
        ),
        (
            "emserve.coalesce_ratio".into(),
            ratio(subq, batches),
            "ratio",
        ),
        (
            "emserve.index_hit_ratio".into(),
            ratio(hits, hits + selected),
            "ratio",
        ),
        (
            "emserve.ios_per_query".into(),
            ratio(total(t, "serve_logical_ios"), queries),
            "count",
        ),
        (
            "bench.gen_late_ms".into(),
            stats::tail(get(t, "serve_late_ms"), 99.0).value,
            "ms",
        ),
    ]);
    for (name, unit) in [
        ("emgraph.round_s", "s"),
        ("emgraph.ios_per_round", "count"),
        ("emgraph.moves_per_round", "count"),
        ("emgraph.degree_buckets_s", "s"),
    ] {
        out.push((name.into(), med(t, name), unit));
    }
    out.push(("workloads.gen_s".into(), stats::median(gen_s), "s"));
    out.push(("bench.host_factor".into(), host::factor(&l.host_s), "ratio"));
    let self_t = spans::self_times(&l.rec.spans());
    for layer in [
        "bench",
        "emcore",
        "emsort",
        "emselect",
        "apsplit",
        "emserve",
        "emgraph",
        "workloads",
    ] {
        out.push((
            format!("{layer}.self_s"),
            self_t.get(layer).copied().unwrap_or(0.0),
            "s",
        ));
    }
    // Tracing overhead: the timed calls of traced against untraced
    // iterations of this run.
    let ops = [
        "sort_s",
        "partition_s",
        "select_s",
        "splitters_s",
        "graph_build_s",
        "graph_cluster_s",
    ];
    let on: f64 = ops.iter().map(|k| med(t, k)).sum();
    let off: f64 = ops.iter().map(|k| med(&l.plain, k)).sum();
    out.push((
        "bench.trace_overhead_pct".into(),
        100.0 * (ratio(on, off) - 1.0),
        "%",
    ));
    out
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn env_json(args: &Args, tmp: &Path) -> String {
    let b = args.workload.batch_config();
    let s = args.workload.serve_config();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"backend\":{},\"m\":{},\"b\":{},\
         \"workers\":{},\"cache_blocks\":{},\"serve_cache_blocks\":{},\"device_latency_us\":{},\
         \"nproc\":{},\"tmp_fs\":{},\"rustc\":{},\"git_rev\":{}}}",
        json_str(args.workload.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(args.workload.backend.label()),
        b.mem_capacity(),
        b.block_size(),
        b.workers(),
        b.cache_blocks(),
        s.cache_blocks(),
        b.device_latency_us(),
        envinfo::nproc(),
        json_str(&envinfo::fs_type(tmp)),
        json_str(envinfo::RUSTC),
        json_str(envinfo::GIT_REV),
    )
}

fn result_json(correct: bool, l: &Ledger, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            // JSON has no infinity: a latency made infinite by a failed
            // query prints as the largest finite number.
            let v = if v.is_nan() {
                0.0
            } else {
                v.clamp(-f64::MAX, f64::MAX)
            };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        l.attempted,
        l.failed,
        body.join(", ")
    )
}

/// Run under a fresh temp root, removed whether or not the run succeeds.
fn run(args: &Args) -> Result<()> {
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let tmp = Path::new(OUT_DIR).join(format!("tmp-{}-{stamp:x}", std::process::id()));
    std::fs::create_dir_all(&tmp)?;
    let result = measure(args, &tmp);
    std::fs::remove_dir_all(&tmp)?;
    result
}

fn measure(args: &Args, tmp: &Path) -> Result<()> {
    let shape = args.workload;
    let env = env_json(args, tmp);
    println!("env {env}");

    let mut ledger = Ledger::default();
    let rec = Arc::clone(&ledger.rec);
    rec.set_on(args.trace);
    let oracle = Oracle::build(&shape, args.seed);
    let (mut setup_s, mut gen_s) = (Vec::new(), Vec::new());
    let mut last: Option<(Setup, PathBuf)> = None;
    let mut probe = Probe::new();
    for rep in 0..SETUP_REPS {
        ledger.host_s.push(probe.run());
        if let Some((old, old_dir)) = last.take() {
            let orphans = teardown(old, &shape, &old_dir)?;
            ledger.count("teardown", 1, u64::from(orphans > 0));
        }
        let dir = tmp.join(format!("setup-{rep}"));
        let t = Instant::now();
        let s = rec
            .time("bench.setup", None, |id| {
                setup(&shape, args.seed, &dir, &rec, id, &oracle, &mut gen_s)
            })
            .0?;
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some((s, dir));
    }
    let (mut s, dir) = last.expect("at least one set-up");
    if shape.backend == Backend::Directory {
        flush(&dir)?;
    }

    // A fixed number of iterations for `--seconds`, so that every run
    // measures the same work; a host far slower than the reference one
    // stops early rather than overrun.
    let planned = ((args.seconds / shape.iter_secs) as usize).max(MIN_ITERS);
    let start = Instant::now();
    let mut iters = 0;
    while iters < planned
        && (iters < MIN_ITERS || start.elapsed().as_secs_f64() <= OVERRUN * args.seconds)
    {
        iteration(
            &mut s,
            &mut ledger,
            &mut probe,
            args.trace && iters % 2 == 0,
        );
        iters += 1;
    }
    rec.set_on(false);
    let metrics = if args.trace {
        per_layer(&ledger, &s, &shape, &gen_s)
    } else {
        end_to_end(&ledger, &setup_s)
    };
    println!(
        "measured {iters} of {planned} iterations in {:.1} s",
        start.elapsed().as_secs_f64()
    );
    let orphans = teardown(s, &shape, &dir)?;
    ledger.count("teardown", 1, u64::from(orphans > 0));

    let correct = ledger.failed == 0;
    let line = result_json(correct, &ledger, &metrics);
    let tag = format!(
        "{}-seed{}-trace{}",
        shape.name,
        args.seed,
        u8::from(args.trace)
    );
    let out_dir = Path::new(OUT_DIR);
    std::fs::write(
        out_dir.join(format!("{tag}.json")),
        format!("{env}\n{line}\n"),
    )?;
    if args.trace {
        let path = out_dir.join(format!("{tag}-spans.jsonl"));
        spans::write_jsonl(&path, &ledger.rec.spans())?;
        println!("spans: {}", path.display());
    }
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
