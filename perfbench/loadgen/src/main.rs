//! perfbench — the serving benchmark.
//!
//! Starts the real `subsim query-server --framed` on the Paper-scale
//! pokec-s graph (R-MAT, n = 2^14, m ≈ 19 n, the repository's dataset
//! with its fixed generator seed), drives it over the length-framed
//! unix-socket protocol from this single process (load from at most 2
//! threads and 2 connections, one closed-loop reader at a time; the
//! reference timing below runs on 2 threads while the reader waits),
//! checks every reply, and prints a provenance line and then one JSON
//! result line:
//!
//! ```text
//! perfbench --workload warm-read|cold-influence --seed N
//!           --seconds S --trace 0|1 --subsim <server binary> --work <dir>
//! perfbench --smoke --subsim <server binary> --work <dir>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones (server counters plus spans around replays of each layer's
//! public functions). `--smoke` runs every workload at Small scale
//! (n = 2^11) in both modes and checks that every metric named in
//! `BENCHMARK.json` is emitted with its unit and that the traced spans
//! add up. `perfbench/run.sh` builds the server and this binary and is
//! the entry point.
//!
//! The workload seed drives the order of the queries every reader sends.
//! The graph, the servers' RR chunk streams and the delta-op stream are
//! fixed, because each moves the measured cost far more than the host's
//! run-to-run noise: per-seed R-MAT graphs moved the cold query between
//! 1.1 s and 2.0 s, one RR stream's cold query takes 1.3 s and another's
//! 2.7 s, and a single delta op regenerates anywhere from 2% to 99% of
//! the pool (seed-drawn op streams moved the throughput of a reader
//! beside the writer by 0.28 of its median across ten seeds).
//!
//! Two workloads: `warm-read` reads the frozen default stack (one
//! closed-loop reader) and then writes to the sharded sentinel stack
//! beside a reader; `cold-influence` launches the frozen stack with the
//! sketch tier on the high-influence graph for cold queries and a warm
//! tail, then writes to its versioned-graph twin.
//!
//! The host this runs on is shared: the speed of each core changes by up
//! to 2x from one second to the next and over minutes. Two things keep
//! the figures steady. Window figures are medians over one-second slices
//! of the window (see [`Slices`]), so a burst moves one slice rather than
//! the run's figure. And every timing but `setup_s` is reported in units
//! of a reference computation ([`Reference`]) timed in the same phase of
//! the run, between the benchmark's requests, so that a slower stretch of
//! the host slows the reference too; the same figures in ms go to the
//! provenance line.
//!
//! Any wrong reply or failed operation (an `err` reply, a dropped
//! connection) makes the run print `"correct": false` and exit 1.

mod client;
mod layers;
mod server;
mod util;

use client::{
    check_ack, check_query, pick_mix, query_line, whole_mix, DeltaGen, Tally, COLD_QUERY, MIX_EPS,
};
use layers::{Metrics, CHUNK_SIZE, SENTINELS, SKETCH_P};
use server::{delta_logs, query_logs, Conn, Finished, Model, Server, Spec};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use subsim_graph::io::read_edge_list_file;
use subsim_graph::{generators, Graph, WeightModel};
use subsim_index::SENTINEL_WARMUP_CHUNKS;
use util::{interquartile_mean, mean, median, percentile, Json, Reference, Rng, Tracer};

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Latencies are in units of the median reference time of their phase
/// (`ref`), and the query rate in queries per reference time.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("query_p50_ref", "ref"),
    ("query_p95_ref", "ref"),
    ("throughput_per_ref", "1/ref"),
    ("cold_query_ref", "ref"),
    ("delta_ack_p50_ref", "ref"),
    ("delta_ack_p90_ref", "ref"),
    ("server_peak_rss_mb", "MiB"),
];

/// How often a closed-loop reader pauses to time the reference, and how
/// many times an open-loop writer times it while waiting for an op.
const REFERENCE_EVERY: Duration = Duration::from_millis(250);
const REFERENCES_PER_WAIT: usize = 8;
/// Reference timings before each server launch.
const REFERENCES_PER_LAUNCH: usize = 5;

/// Per-layer metrics, reported by every workload with `--trace 1`.
const PER_LAYER: [(&str, &str); 50] = [
    ("graph.parse_s", "s"),
    ("graph.build_s", "s"),
    ("index.warm_s", "s"),
    ("index.query_ms_p50", "ms"),
    ("index.query_ms_p99", "ms"),
    ("index.generation_ms_per_query", "ms"),
    ("index.selection_ms_per_query", "ms"),
    ("index.accounted_share", "1"),
    ("index.rounds_per_cold_query", "count"),
    ("index.fresh_sets_per_cold_query", "count"),
    ("index.cache_hit_ratio", "1"),
    ("index.publishes", "count"),
    ("index.cold_query_ms_1t", "ms"),
    ("index.cold_query_ms_2t", "ms"),
    ("diffusion.sets_per_s_1t", "sets/s"),
    ("diffusion.sets_per_s_2t", "sets/s"),
    ("diffusion.scaling_2t", "1"),
    ("diffusion.nodes_per_s", "nodes/s"),
    ("diffusion.mean_rr_size", "nodes"),
    ("diffusion.versioned_vs_frozen", "1"),
    ("core.coverage_mass", "count"),
    ("core.inverted_index_ms", "ms"),
    ("core.greedy_ms_k10", "ms"),
    ("core.greedy_ms_k50", "ms"),
    ("core.greedy_ms_k100", "ms"),
    ("core.greedy_ms_k200", "ms"),
    ("core.bounds_ms", "ms"),
    ("core.sentinel_hit_rate", "1"),
    ("core.truncated_rr_size", "nodes"),
    ("core.sentinel_select_ms", "ms"),
    ("sketch.eval_ms", "ms"),
    ("sketch.compression", "1"),
    ("sketch.promotions", "count"),
    ("delta.apply_ms_p50", "ms"),
    ("delta.apply_ms_p90", "ms"),
    ("delta.graph_apply_ms", "ms"),
    ("delta.regenerated_sets", "count"),
    ("delta.repair_fraction", "1"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.overhead_ms_p50", "ms"),
    ("net.overhead_ms_p99", "ms"),
    ("net.null_rtt_ms_p50", "ms"),
    ("loadgen.query_p50_ms", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.cpu_s", "s"),
    ("loadgen.unattributed_pct", "%"),
    ("loadgen.span_cost_us", "us"),
    ("loadgen.trace_overhead_pct", "%"),
    ("loadgen.spans", "count"),
];

const WORKLOADS: [&str; 2] = ["warm-read", "cold-influence"];

/// Sizes that differ between the Paper-scale run and the smoke check.
#[derive(Clone, Copy)]
struct Scale {
    /// R-MAT scale: n = 2^rmat.
    rmat: u32,
    /// `--warm` sets per half: the pool the warm mix certifies in one
    /// round on the frozen stack and on the sentinel stack.
    warm_frozen: usize,
    warm_sentinel: usize,
    /// Launches whose spawn-to-accept time makes `setup_s`.
    setup_launches: usize,
    /// Cold launches per cold-influence run.
    cold_launches: usize,
    /// Ops in the write phase of cold-influence.
    write_ops_high: usize,
    /// Deltas in the invariance script of the delta phase.
    script_deltas: usize,
    /// Sequential requests in the traced span phase.
    span_requests: usize,
}

const PAPER: Scale = Scale {
    rmat: 14,
    warm_frozen: 1 << 12,
    warm_sentinel: 1 << 13,
    setup_launches: 16,
    cold_launches: 9,
    write_ops_high: 16,
    script_deltas: 4,
    span_requests: 96,
};

const SMALL: Scale = Scale {
    rmat: 11,
    warm_frozen: 1 << 10,
    warm_sentinel: 1 << 10,
    setup_launches: 2,
    cold_launches: 2,
    write_ops_high: 3,
    script_deltas: 2,
    span_requests: 96,
};

/// Open-loop delta rates (ops/s) of the writer beside warm-read's reader
/// and of cold-influence's write phase, each well under the repair
/// capacity of its server.
const DELTA_MIX_RATE: f64 = 5.0;
const WRITE_RATE_HIGH: f64 = 0.8;
/// The query cold-influence's write phase answers before its writes: at
/// ε = 0.2 the pool has half the sets the cold query's has, and nearly
/// every op regenerates all of them, so ops cost half as much and twice
/// as many fit in the phase.
const WRITE_POOL_QUERY: (usize, f64) = (50, 0.2);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    subsim: PathBuf,
    work: PathBuf,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        subsim: PathBuf::new(),
        work: PathBuf::from("perfbench-work"),
        rev: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--smoke" => a.smoke = true,
            "--subsim" => a.subsim = PathBuf::from(val()?),
            "--work" => a.work = PathBuf::from(val()?),
            "--rev" => a.rev = val()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !a.smoke && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if a.subsim.as_os_str().is_empty() {
        return Err("--subsim <server binary> is required".into());
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("perfbench: {}: {e}", args.work.display());
        std::process::exit(2);
    }
    if args.smoke {
        match smoke(&args) {
            Ok(()) => println!("perfbench smoke: ok"),
            Err(e) => {
                eprintln!("perfbench smoke: FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    match run(
        &args,
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        PAPER,
    ) {
        Ok(result) => {
            println!("{}", result.provenance);
            println!("{}", result.line);
            if !result.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// One finished run, rendered.
struct RunResult {
    correct: bool,
    metrics: Metrics,
    /// Span-consistency figures the smoke check asserts on.
    checks: Metrics,
    provenance: String,
    line: String,
}

/// Everything a workload collects; turned into metrics afterwards.
#[derive(Default)]
struct Collected {
    /// Spawn-to-accept of the launches at the workload's configuration.
    setup_s: Vec<f64>,
    /// First-query latency of those launches.
    cold_ms: Vec<f64>,
    /// Graph built to socket accepted, from the server log (traced runs).
    warm_s: Vec<f64>,
    /// Client latencies of the measured read traffic.
    read_ms: Vec<Sample>,
    /// One-second slices of the measured read windows.
    slices: Slices,
    /// Queries the reader beside the writer answered (not in the query
    /// figures, which are the read windows').
    mixed_reads: usize,
    /// Delta acks, timed from their scheduled send time.
    ack_ms: Vec<f64>,
    /// How late the open-loop writer sent each op.
    late_ms: Vec<f64>,
    /// `VmHWM` of the measured servers.
    rss_mib: Vec<f64>,
    /// Servers whose counters feed the index metrics; the first is the
    /// one whose chunk stream the replays sample.
    measured: Vec<Finished>,
    /// Which of `measured` ran with sentinels, if any.
    sentinel_server: Option<usize>,
    /// Server-side query times of the measured read traffic.
    server_query_ms: Vec<f64>,
    /// `delta applied` log lines of the measured deltas.
    write_log: String,
    /// `(rounds, fresh sets)` of each first query.
    cold_logs: Vec<(u32, usize)>,
    /// Sets per half of the pool the workload served.
    pool_sets: usize,
    /// The reply to the cold query (k = 50) when it was answered on that
    /// pool.
    served_k50: Option<String>,
    /// Traced span phase: client and server time per query, null RTTs.
    span_client_ms: Vec<f64>,
    span_server_ms: Vec<f64>,
    null_rtt_ms: Vec<f64>,
    /// Wall time of each traced request, span bookkeeping included, and
    /// of its untraced twin (the same query without spans).
    trace_pairs: Vec<(f64, f64)>,
    /// Cold query at server `--threads 1` and `2` (traced runs).
    cold_1t_ms: f64,
    cold_2t_ms: f64,
    /// Reply payloads kept for the frame-codec replay.
    replies: Vec<String>,
}

/// What a sequential script got back.
#[derive(Default)]
struct Script {
    replies: Vec<String>,
    first_ms: f64,
    queries: u64,
    deltas: u64,
}

struct Ctx<'a> {
    args: &'a Args,
    scale: Scale,
    seed: u64,
    trace: bool,
    graph_path: PathBuf,
    n: usize,
    wc: Graph,
    tally: Tally,
    tracer: Tracer,
    launches: usize,
    reference: Reference,
    refs: RefTimes,
}

/// Reference times (ms), taken between the benchmark's requests, by the
/// phase whose timings they scale.
#[derive(Default)]
struct RefTimes {
    /// Before each launch: the cold queries.
    launch: Vec<f64>,
    /// Between the queries of the read windows: the query figures.
    read: Vec<f64>,
    /// Between the ops of cold-influence's write phase, or between the
    /// queries of the reader beside warm-read's writer: the delta acks.
    write: Vec<f64>,
}

impl Ctx<'_> {
    fn launch(&mut self, spec: &Spec) -> Result<Server, String> {
        for _ in 0..REFERENCES_PER_LAUNCH {
            let t = self.reference.time_ms(SERVER_THREADS);
            self.refs.launch.push(t);
        }
        self.launches += 1;
        let tag = format!("s{}", self.launches);
        Server::launch(
            &self.args.subsim,
            spec,
            &self.graph_path,
            &self.args.work,
            &tag,
            self.trace,
        )
    }

    /// Shuts a server down and checks its `--stats-out` counters against
    /// what this client saw it answer.
    fn finish(&mut self, server: Server, queries: u64, deltas: u64) -> Result<Finished, String> {
        let fin = server.shutdown()?;
        for (key, want) in [("queries", queries), ("deltas_applied", deltas)] {
            let got = fin.stats.num(key)? as u64;
            if got != want {
                self.tally
                    .wrong(format!("--stats-out {key} = {got}, client counted {want}"));
            }
        }
        Ok(fin)
    }

    /// One sequential query; returns the reply and client latency (ms).
    fn query(&mut self, conn: &mut Conn, q: (usize, f64)) -> Result<(String, f64), String> {
        self.tally.attempted += 1;
        let start = Instant::now();
        let reply = conn
            .request(&query_line(q))
            .map_err(|e| format!("query {q:?}: {e}"))?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if !check_query(&mut self.tally, &reply, q.0, self.n) {
            return Err(format!("query {q:?} failed: {reply}"));
        }
        Ok((reply, ms))
    }

    /// Sends `queries` in order, with a delta op from `gen` after every
    /// few queries when given, and returns every reply (for identity
    /// checks across server configurations), the first query's latency,
    /// and the queries and deltas answered.
    fn script(
        &mut self,
        conn: &mut Conn,
        queries: &[(usize, f64)],
        mut gen: Option<(&mut DeltaGen, &mut u64)>,
    ) -> Result<Script, String> {
        let deltas = self.scale.script_deltas;
        let every = (queries.len() / deltas.max(1)).max(1);
        let mut out = Script::default();
        for (i, &q) in queries.iter().enumerate() {
            let (reply, ms) = self.query(conn, q)?;
            if i == 0 {
                out.first_ms = ms;
            }
            out.replies.push(reply);
            out.queries += 1;
            if let Some((g, version)) = gen.as_mut() {
                if (i + 1) % every == 0 && out.deltas < deltas as u64 {
                    let op = g.next_op();
                    self.tally.attempted += 1;
                    let reply = conn.request(&op).map_err(|e| format!("{op}: {e}"))?;
                    if !check_ack(&mut self.tally, &reply, version) {
                        return Err(format!("{op} failed: {reply}"));
                    }
                    out.replies.push(reply);
                    out.deltas += 1;
                }
            }
        }
        Ok(out)
    }

    fn expect_same(&mut self, what: &str, a: &[String], b: &[String]) {
        if a != b {
            let at = a
                .iter()
                .zip(b)
                .position(|(x, y)| x != y)
                .unwrap_or(a.len().min(b.len()));
            self.tally.wrong(format!(
                "{what}: replies differ at request {at}: {:?} vs {:?}",
                a.get(at),
                b.get(at)
            ));
        }
    }

    /// Traced only: sequential queries interleaved with `tenant` frames
    /// (answered on the reactor without touching the index) on `server`.
    /// Each traced query has an untraced twin, sent before or after it in
    /// turn, whose wall time is the baseline of the tracing overhead.
    /// Matches each traced query with its server-side time from the log.
    /// Returns the queries sent.
    fn span_phase(&mut self, server: &mut Server, col: &mut Collected) -> Result<u64, String> {
        let before = query_logs(&server.log_text()).len();
        let mut conn = Conn::connect(&server.sock).map_err(|e| e.to_string())?;
        let mut rng = Rng::new(self.seed ^ 0x5a4);
        let mut client_ms = Vec::new();
        let mut order = Vec::new();
        for i in 0..self.scale.span_requests {
            self.tally.attempted += 1;
            let t0 = self.tracer.now_ns();
            let reply = conn
                .request("tenant perfbench")
                .map_err(|e| e.to_string())?;
            let t1 = self.tracer.now_ns();
            self.tracer.record("net.null_rtt", i as u64, None, t0, t1);
            if reply != "ok tenant perfbench" {
                self.tally.wrong(format!("tenant frame replied {reply:?}"));
            }
            col.null_rtt_ms.push((t1 - t0) as f64 / 1e6);
            let q = pick_mix(&mut rng);
            let (mut traced_ms, mut untraced_ms) = (0.0, 0.0);
            for traced in [i % 2 == 0, i % 2 == 1] {
                let start = Instant::now();
                if traced {
                    let t0 = self.tracer.now_ns();
                    self.query(&mut conn, q)?;
                    let t1 = self.tracer.now_ns();
                    self.tracer
                        .record("loadgen.request", i as u64, None, t0, t1);
                    client_ms.push((t1 - t0) as f64 / 1e6);
                    traced_ms = start.elapsed().as_secs_f64() * 1e3;
                } else {
                    self.query(&mut conn, q)?;
                    untraced_ms = start.elapsed().as_secs_f64() * 1e3;
                }
                order.push(traced);
            }
            col.trace_pairs.push((traced_ms, untraced_ms));
        }
        drop(conn);
        let logs = wait_for_query_logs(server, before + order.len())?;
        let server_ms: Vec<f64> = logs[before..before + order.len()]
            .iter()
            .zip(&order)
            .filter(|(_, &traced)| traced)
            .map(|(l, _)| l.ms)
            .collect();
        // Server time as the `index` child of each request span.
        let requests: Vec<usize> = (0..self.tracer.spans.len())
            .filter(|&i| self.tracer.spans[i].name == "loadgen.request")
            .collect();
        for (&parent, &ms) in requests[requests.len() - client_ms.len()..]
            .iter()
            .zip(&server_ms)
        {
            let (req, end) = (
                self.tracer.spans[parent].request,
                self.tracer.spans[parent].end_ns,
            );
            self.tracer.record(
                "index.query",
                req,
                Some(parent),
                end - (ms * 1e6) as u64,
                end,
            );
        }
        col.span_client_ms.extend(client_ms);
        col.span_server_ms.extend(server_ms);
        Ok(order.len() as u64)
    }
}

/// Reads a server's log until it holds `count` query lines (a line is
/// written when the answer is ready, which can trail the reply by a hair).
fn wait_for_query_logs(server: &Server, count: usize) -> Result<Vec<server::QueryLog>, String> {
    let start = Instant::now();
    loop {
        let logs = query_logs(&server.log_text());
        if logs.len() >= count {
            return Ok(logs);
        }
        if start.elapsed() > Duration::from_secs(10) {
            return Err(format!(
                "server log holds {} query lines, expected {count}",
                logs.len()
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Generator seed of the pokec-s dataset (as in the repository's
/// experiment workloads).
const POKEC_S_SEED: u64 = 1;

/// Builds pokec-s at `2^rmat` nodes and writes it with a `# n=… m=…`
/// header, so the server keeps the file's node ids and delta ops can
/// address them directly.
fn write_graph(path: &Path, rmat: u32) -> Result<(), String> {
    use std::io::Write;
    let n = 1usize << rmat;
    let g = generators::rmat(rmat, n * 19, WeightModel::Wc, POKEC_S_SEED);
    let mut out = String::with_capacity(g.m() * 12);
    out.push_str(&format!("# n={} m={}\n", g.n(), g.m()));
    for (u, v, _) in g.edges() {
        out.push_str(&format!("{u} {v}\n"));
    }
    let mut f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    f.write_all(out.as_bytes())
        .and_then(|_| f.flush())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn load_graph(path: &Path, model: WeightModel) -> Result<Graph, String> {
    read_edge_list_file(path)
        .map_err(|e| e.to_string())?
        .into_graph(model)
        .map_err(|e| e.to_string())
}

fn run(
    args: &Args,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> Result<RunResult, String> {
    let cpu0 = cpu_seconds();
    let graph_path = args.work.join(format!("pokec-s-{}.txt", scale.rmat));
    write_graph(&graph_path, scale.rmat)?;
    let wc = load_graph(&graph_path, WeightModel::Wc)?;
    let mut ctx = Ctx {
        args,
        scale,
        seed,
        trace,
        graph_path,
        n: wc.n(),
        wc,
        tally: Tally::default(),
        tracer: Tracer::new(),
        launches: 0,
        reference: Reference::new(),
        refs: RefTimes::default(),
    };
    let mut col = Collected::default();
    let weights = match workload {
        "warm-read" => {
            warm_read(&mut ctx, &mut col, seconds)?;
            WeightModel::Wc
        }
        "cold-influence" => {
            cold_influence(&mut ctx, &mut col, seconds)?;
            WeightModel::WcVariant { theta: 4.0 }
        }
        other => return Err(format!("unknown workload {other}")),
    };
    let (mut m, ms) = end_to_end(&col, &ctx.refs)?;
    let mut checks = Metrics::new();
    if trace {
        per_layer(&mut ctx, &mut col, weights, &mut m)?;
        checks = span_checks(&col)?;
        m.insert("loadgen.cpu_s", cpu_seconds() - cpu0);
        let path = args.work.join(format!("{workload}-{seed}.trace.jsonl"));
        std::fs::write(&path, ctx.tracer.to_jsonl()).map_err(|e| e.to_string())?;
    }
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut parts = Vec::new();
    for &(name, unit) in wanted {
        let v = *m
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is {v}"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = ctx.tally.ok();
    let samples = [
        ("setup_s", col.setup_s.len()),
        ("cold_query_ms", col.cold_ms.len()),
        ("query_ms", col.read_ms.len()),
        ("query_slices", col.slices.rate.len()),
        ("reads_beside_writer", col.mixed_reads),
        ("delta_ack_ms", col.ack_ms.len()),
        ("server_peak_rss_mb", col.rss_mib.len()),
        ("index.query_ms", col.server_query_ms.len()),
        ("span_requests", col.span_client_ms.len()),
        ("reference_launch", ctx.refs.launch.len()),
        ("reference_read", ctx.refs.read.len()),
        ("reference_write", ctx.refs.write.len()),
    ];
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let provenance = format!(
        "{{\"provenance\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
         \"seconds\": {seconds}, \"cores\": {cores}, \"server_threads\": {SERVER_THREADS}, \"git_rev\": \"{}\", \
         \"profile\": \"{}\", \"n\": {}, \"launches\": {}, \"samples\": {{{}}}, \"ms\": {{{}}}}}}}",
        args.rev,
        profile,
        ctx.n,
        ctx.launches,
        samples
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", "),
        ms.iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.tally.attempted,
        ctx.tally.failed,
        parts.join(", ")
    );
    Ok(RunResult {
        correct,
        metrics: m,
        checks,
        provenance,
        line,
    })
}

/// Span consistency: each server-side query time must nest inside its
/// client span, and the per-query server times in the log must add up to
/// the server's own `query_time_ns` counter.
fn span_checks(col: &Collected) -> Result<Metrics, String> {
    let mut c = Metrics::new();
    let nest = col
        .span_client_ms
        .iter()
        .zip(&col.span_server_ms)
        .map(|(c, s)| c - s)
        .fold(f64::INFINITY, f64::min);
    c.insert("min_overhead_ms", nest);
    let (mut logged, mut counted) = (0.0, 0.0);
    for f in &col.measured {
        logged += query_logs(&f.log).iter().map(|l| l.ms).sum::<f64>();
        counted += f.stats.num("query_time_ns")? / 1e6;
    }
    c.insert("log_vs_counter", logged / counted);
    Ok(c)
}

/// CPU seconds this process has used (user + system, all threads).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // utime and stime are the 14th and 15th fields overall: the 12th and
    // 13th after the parenthesised command name (clock ticks of 1/100 s).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|t| t.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// The RR chunk stream every measured server samples from, and the seed
/// of the delta-op stream (see the module docs for why both are fixed).
const STREAM: u64 = 1;

/// `--threads` of the measured servers.
const SERVER_THREADS: usize = 2;

fn spec(model: Model) -> Spec {
    Spec {
        model,
        seed: STREAM,
        threads: SERVER_THREADS,
        shards: 1,
        delta_stream: false,
        sentinels: 0,
        sketch: 0,
        warm: 0,
    }
}

/// warm-read: the frozen default stack, pre-warmed, read by one
/// closed-loop connection for half the run; then the delta phase (see
/// [`delta_phase`]) for the other half.
fn warm_read(ctx: &mut Ctx, col: &mut Collected, seconds: f64) -> Result<(), String> {
    let base = Spec {
        warm: ctx.scale.warm_frozen,
        ..spec(Model::Wc)
    };
    let script: Vec<(usize, f64)> = std::iter::once(COLD_QUERY).chain(whole_mix()).collect();
    // Half the setup launches run before the read window and half after
    // it, so the launch-time figures sample two stretches of the run.
    let first_half = ctx.scale.setup_launches / 2;
    let mut reference = Vec::new();
    let mut main = setup_launches(ctx, col, &base, &script, first_half, true, &mut reference)?
        .expect("kept launch");

    // Thread-count invariance: the same script at --threads 1.
    let one = Spec {
        threads: 1,
        ..base.clone()
    };
    let l = scripted_launch(ctx, &one, &script, false)?;
    drop(l.conn);
    ctx.expect_same("warm-read --threads 1 vs 2", &reference, &l.out.replies);
    ctx.finish(l.server, l.out.queries, 0)?;

    let mut queries = script.len() as u64;
    queries += read_window(ctx, col, &main, seconds / 2.0, &pick_mix)?;
    if ctx.trace {
        queries += ctx.span_phase(&mut main, col)?;
    }
    let fin = ctx.finish(main, queries, 0)?;
    col.rss_mib.push(fin.peak_rss_mib);
    served_pool(col, &fin, &reference[0]);
    col.measured.push(fin);
    let rest = ctx.scale.setup_launches - first_half;
    setup_launches(ctx, col, &base, &script, rest, false, &mut reference)?;

    delta_phase(ctx, col, &script, seconds / 2.0)?;
    if ctx.trace {
        thread_witness(ctx, col, &base)?;
    }
    Ok(())
}

/// The delta phase of warm-read: the versioned-graph stack on two shards
/// with sentinels, pre-warmed, runs `script` with the fixed delta-op
/// stream interleaved (and must reply byte for byte as the same script
/// at `--shards 1` and at `--threads 1`); then one closed-loop reader
/// runs beside one open-loop writer, which continues the script's op
/// stream, for `seconds`. The acks are the workload's delta figures;
/// the reader is there so that repair and publish compete with reads.
fn delta_phase(
    ctx: &mut Ctx,
    col: &mut Collected,
    script: &[(usize, f64)],
    seconds: f64,
) -> Result<(), String> {
    let base = Spec {
        delta_stream: true,
        shards: 2,
        sentinels: SENTINELS,
        warm: ctx.scale.warm_sentinel,
        ..spec(Model::Wc)
    };
    let Scripted {
        server: main,
        conn: mut writer_conn,
        out,
        mut gen,
        mut version,
    } = scripted_launch(ctx, &base, script, true)?;
    for (shards, threads) in [(1, 2), (2, 1)] {
        let other = Spec {
            shards,
            threads,
            ..base.clone()
        };
        let l = scripted_launch(ctx, &other, script, true)?;
        drop(l.conn);
        let what =
            format!("delta phase --shards {shards} --threads {threads} vs --shards 2 --threads 2");
        ctx.expect_same(&what, &out.replies, &l.out.replies);
        ctx.finish(l.server, l.out.queries, l.out.deltas)?;
    }

    let deltas_before = delta_logs(&main.log_text()).len();
    let n = ctx.n;
    let seed = ctx.seed;
    // The reader times the reference between its queries; a repair may
    // be running then, as it may be when an op is acked.
    let (reference, refs) = (&ctx.reference, &mut ctx.refs.write);
    let mut time_reference = || refs.push(reference.time_ms(SERVER_THREADS));
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut reader_conn = Conn::connect(&main.sock).map_err(|e| e.to_string())?;
    let ((lat, rtally), (acks, late, wtally, sent)) = std::thread::scope(|sc| {
        let reader = sc.spawn(|| {
            closed_loop(
                &mut reader_conn,
                deadline,
                n,
                seed ^ 0xbeef,
                &pick_mix,
                &mut time_reference,
            )
        });
        let writer = sc.spawn(|| {
            open_loop_writer(
                &mut writer_conn,
                &mut gen,
                &mut version,
                DELTA_MIX_RATE,
                deadline,
                usize::MAX,
                None,
            )
        });
        (
            reader.join().expect("reader thread"),
            writer.join().expect("writer thread"),
        )
    });
    col.mixed_reads += lat.len();
    col.ack_ms.extend(acks);
    col.late_ms.extend(late);
    ctx.tally.merge(rtally);
    ctx.tally.merge(wtally);
    drop((reader_conn, writer_conn));
    let queries = out.queries + lat.len() as u64;
    let fin = ctx.finish(main, queries, out.deltas + sent)?;
    col.write_log = delta_logs_text(&fin.log, deltas_before);
    col.sentinel_server = Some(col.measured.len());
    col.measured.push(fin);
    Ok(())
}

/// cold-influence: fresh launches of the frozen stack with the sketch
/// tier on the high-influence graph, all on the same RR stream, so every
/// cold query does the same work and must give the same reply. Each
/// launch answers one cold query, then a warm tail on one connection;
/// the tails share half the run's `seconds`, so they spread over the run
/// like the cold samples. A write phase on the versioned-graph twin
/// follows.
fn cold_influence(ctx: &mut Ctx, col: &mut Collected, seconds: f64) -> Result<(), String> {
    let base = Spec {
        sketch: SKETCH_P as usize,
        ..spec(Model::WcVariant4)
    };
    // The cold query's k at each ε of the mix: the pool it grew
    // certifies all of them without growing again.
    let tail: Vec<(usize, f64)> = MIX_EPS.iter().map(|&e| (COLD_QUERY.0, e)).collect();
    let pick = |rng: &mut Rng| tail[rng.below(tail.len())];
    let launches = ctx.scale.cold_launches;
    let mut first_reply = String::new();
    for i in 0..launches {
        let mut s = ctx.launch(&base)?;
        col.setup_s.push(s.setup_s);
        col.warm_s.push(s.marks.accept_s - s.marks.graph_s);
        let mut conn = s.first.take().expect("launch keeps its first connection");
        let (reply, ms) = ctx.query(&mut conn, COLD_QUERY)?;
        drop(conn);
        col.cold_ms.push(ms);
        if i == 0 {
            first_reply = reply.clone();
        } else {
            let first = [first_reply.clone()];
            ctx.expect_same(
                "cold-influence relaunch",
                &first,
                std::slice::from_ref(&reply),
            );
        }
        col.replies.push(reply);
        let tail_s = seconds / 2.0 / launches as f64;
        let mut queries = 1 + read_window(ctx, col, &s, tail_s, &pick)?;
        if ctx.trace && i + 1 == launches {
            queries += ctx.span_phase(&mut s, col)?;
        }
        let fin = ctx.finish(s, queries, 0)?;
        col.cold_logs.extend(cold_log(&fin));
        if i == 0 {
            served_pool(col, &fin, &first_reply);
        }
        col.rss_mib.push(fin.peak_rss_mib);
        col.measured.push(fin);
    }

    // Thread-count invariance (and, traced, the multi-core witness): the
    // cold query at --threads 1.
    let one = Spec {
        threads: 1,
        ..base.clone()
    };
    let mut s = ctx.launch(&one)?;
    let mut conn = s.first.take().expect("launch keeps its first connection");
    let (reply, _) = ctx.query(&mut conn, COLD_QUERY)?;
    drop(conn);
    ctx.finish(s, 1, 0)?;
    ctx.expect_same("cold-influence --threads 1 vs 2", &[first_reply], &[reply]);

    let write = Spec {
        delta_stream: true,
        ..base.clone()
    };
    let ops = ctx.scale.write_ops_high;
    write_phase(ctx, col, &write, WRITE_POOL_QUERY, WRITE_RATE_HIGH, ops)?;
    if ctx.trace {
        thread_witness(ctx, col, &base)?;
    }
    Ok(())
}

/// Records the final pool of the server whose chunk stream the replays
/// sample, and `cold_reply` (its first reply, to the cold query) when
/// the pool did not grow after it.
fn served_pool(col: &mut Collected, fin: &Finished, cold_reply: &str) {
    let logs = query_logs(&fin.log);
    col.pool_sets = logs.last().map_or(0, |l| l.pool_after);
    if logs.first().map(|l| l.pool_after) == Some(col.pool_sets) {
        col.served_k50 = Some(cold_reply.to_string());
    }
}

/// `(rounds, fresh sets)` of a server's first query.
fn cold_log(fin: &Finished) -> Option<(u32, usize)> {
    query_logs(&fin.log).first().map(|l| (l.rounds, l.fresh))
}

/// The log lines of the deltas applied after the first `skip` ones.
fn delta_logs_text(log: &str, skip: usize) -> String {
    log.lines()
        .filter(|l| l.starts_with("delta applied: "))
        .skip(skip)
        .map(|l| format!("{l}\n"))
        .collect()
}

/// A launch that has run a script on its first connection, which it
/// keeps open, with the op stream the script started.
struct Scripted {
    server: Server,
    conn: Conn,
    out: Script,
    gen: DeltaGen,
    version: u64,
}

/// Launches `spec` and runs `script` on the first connection, with the
/// fixed delta-op stream interleaved when `with_deltas`.
fn scripted_launch(
    ctx: &mut Ctx,
    spec: &Spec,
    script: &[(usize, f64)],
    with_deltas: bool,
) -> Result<Scripted, String> {
    let mut server = ctx.launch(spec)?;
    let mut conn = server
        .first
        .take()
        .expect("launch keeps its first connection");
    let mut gen = DeltaGen::new(&ctx.wc, STREAM);
    let mut version = 0;
    let ops = with_deltas.then_some((&mut gen, &mut version));
    let out = ctx.script(&mut conn, script, ops)?;
    Ok(Scripted {
        server,
        conn,
        out,
        gen,
        version,
    })
}

/// `count` launches at `base`, each timed from spawn to accept, running
/// `script` (its first query is the cold-query sample). Every launch must
/// reply exactly as `reference` (set by the first launch when empty).
/// With `keep`, the last launch stays up and is returned.
fn setup_launches(
    ctx: &mut Ctx,
    col: &mut Collected,
    base: &Spec,
    script: &[(usize, f64)],
    count: usize,
    keep: bool,
    reference: &mut Vec<String>,
) -> Result<Option<Server>, String> {
    for i in 0..count {
        let Scripted {
            mut server,
            conn,
            out,
            ..
        } = scripted_launch(ctx, base, script, false)?;
        col.setup_s.push(server.setup_s);
        col.warm_s
            .push(server.marks.accept_s - server.marks.graph_s);
        col.cold_ms.push(out.first_ms);
        if let Some(f) = query_logs(&server.log_text()).first() {
            col.cold_logs.push((f.rounds, f.fresh));
        }
        col.replies.extend(out.replies.iter().cloned());
        if reference.is_empty() {
            *reference = out.replies.clone();
        } else {
            let r = reference.clone();
            ctx.expect_same("relaunch at the same configuration", &r, &out.replies);
        }
        if keep && i + 1 == count {
            server.first = Some(conn);
            return Ok(Some(server));
        }
        drop(conn);
        let fin = ctx.finish(server, out.queries, 0)?;
        col.rss_mib.push(fin.peak_rss_mib);
    }
    Ok(None)
}

/// One query on a connection inside a measurement window; `None` when it
/// failed (counted in `tally`).
fn timed_query(conn: &mut Conn, q: (usize, f64), n: usize, tally: &mut Tally) -> Option<f64> {
    tally.attempted += 1;
    let start = Instant::now();
    match conn.request(&query_line(q)) {
        Ok(reply) => {
            let ms = start.elapsed().as_secs_f64() * 1e3;
            check_query(tally, &reply, q.0, n).then_some(ms)
        }
        Err(e) => {
            eprintln!("perfbench: query {q:?}: {e}");
            tally.failed += 1;
            None
        }
    }
}

/// One answered query of a measurement window.
#[derive(Clone, Copy)]
struct Sample {
    done: Instant,
    ms: f64,
}

/// A closed-loop reader: the next query from `pick` goes out as soon as
/// the previous one is answered, until `deadline`; between two queries,
/// every [`REFERENCE_EVERY`], it calls `time_reference`. A broken
/// connection ends the loop (the failure is counted).
fn closed_loop(
    conn: &mut Conn,
    deadline: Instant,
    n: usize,
    seed: u64,
    pick: &(dyn Fn(&mut Rng) -> (usize, f64) + Sync),
    time_reference: &mut dyn FnMut(),
) -> (Vec<Sample>, Tally) {
    let mut rng = Rng::new(seed);
    let mut tally = Tally::default();
    let mut lat = Vec::new();
    let mut next_ref = Instant::now();
    while Instant::now() < deadline {
        if Instant::now() >= next_ref {
            time_reference();
            next_ref = Instant::now() + REFERENCE_EVERY;
        }
        match timed_query(conn, pick(&mut rng), n, &mut tally) {
            Some(ms) => lat.push(Sample {
                done: Instant::now(),
                ms,
            }),
            None if tally.failed > 0 => break,
            None => {}
        }
    }
    (lat, tally)
}

/// An open-loop writer: op `i` is due at `start + i / rate`; each ack is
/// timed from when its op was due, so a stall also counts against the
/// ops queued behind it. Stops at `deadline` or after `max_ops` ops.
/// With a `reference`, it calls it up to [`REFERENCES_PER_WAIT`] times
/// while waiting for each op, as the wait leaves room. Returns ack
/// latencies, send lateness, the tally, and the ops acked.
fn open_loop_writer(
    conn: &mut Conn,
    gen: &mut DeltaGen,
    version: &mut u64,
    rate: f64,
    deadline: Instant,
    max_ops: usize,
    reference: Option<&mut dyn FnMut()>,
) -> (Vec<f64>, Vec<f64>, Tally, u64) {
    let start = Instant::now();
    let (mut acks, mut late) = (Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut reference = reference;
    for i in 0..max_ops {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        if due >= deadline {
            break;
        }
        if let Some(time_reference) = reference.as_mut() {
            for _ in 0..REFERENCES_PER_WAIT {
                if due.saturating_duration_since(Instant::now()) < Duration::from_millis(50) {
                    break;
                }
                time_reference();
            }
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        late.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        let op = gen.next_op();
        tally.attempted += 1;
        match conn.request(&op) {
            Ok(reply) => {
                if check_ack(&mut tally, &reply, version) {
                    acks.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
                }
            }
            Err(e) => {
                eprintln!("perfbench: {op}: {e}");
                tally.failed += 1;
                break;
            }
        }
    }
    let sent = acks.len() as u64;
    (acks, late, tally, sent)
}

/// The measured read window on a warm server: one closed-loop
/// connection drawing queries from `pick` for `seconds`. Returns the
/// queries answered.
fn read_window(
    ctx: &mut Ctx,
    col: &mut Collected,
    server: &Server,
    seconds: f64,
    pick: &(dyn Fn(&mut Rng) -> (usize, f64) + Sync),
) -> Result<u64, String> {
    let before = query_logs(&server.log_text()).len();
    let mut conn = Conn::connect(&server.sock).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (reference, refs) = (&ctx.reference, &mut ctx.refs.read);
    let mut time_reference = || refs.push(reference.time_ms(SERVER_THREADS));
    let (lat, tally) = closed_loop(
        &mut conn,
        deadline,
        ctx.n,
        ctx.seed ^ 0xc0,
        pick,
        &mut time_reference,
    );
    col.slices.add(start, Instant::now(), &lat);
    let answered = lat.len() as u64;
    col.read_ms.extend(lat);
    ctx.tally.merge(tally);
    if ctx.trace {
        let logs = wait_for_query_logs(server, before + answered as usize)?;
        col.server_query_ms.extend(
            logs[before..before + answered as usize]
                .iter()
                .map(|l| l.ms),
        );
    }
    Ok(answered)
}

/// The write phase of cold-influence: the same graph and tier on the
/// versioned-graph stack (the frozen stack refuses deltas), `first`
/// answered to build the pool, then an open-loop writer alone.
fn write_phase(
    ctx: &mut Ctx,
    col: &mut Collected,
    spec: &Spec,
    first: (usize, f64),
    rate: f64,
    ops: usize,
) -> Result<(), String> {
    let mut s = ctx.launch(spec)?;
    let mut conn = s.first.take().expect("launch keeps its first connection");
    ctx.query(&mut conn, first)?;
    let queries = 1;
    let mut gen = DeltaGen::new(&ctx.wc, STREAM);
    let mut version = 0;
    let deadline = Instant::now() + Duration::from_secs(3600);
    let (reference, refs) = (&ctx.reference, &mut ctx.refs.write);
    let mut time_reference = || refs.push(reference.time_ms(SERVER_THREADS));
    let (acks, late, tally, sent) = open_loop_writer(
        &mut conn,
        &mut gen,
        &mut version,
        rate,
        deadline,
        ops,
        Some(&mut time_reference),
    );
    ctx.tally.merge(tally);
    col.ack_ms.extend(acks);
    col.late_ms.extend(late);
    drop(conn);
    let fin = ctx.finish(s, queries, sent)?;
    col.write_log = delta_logs_text(&fin.log, 0);
    Ok(())
}

/// Traced only: the cold query on fresh, unwarmed servers at
/// `--threads 1` and `2`, alternating, three launches each (medians);
/// every reply must match.
fn thread_witness(ctx: &mut Ctx, col: &mut Collected, base: &Spec) -> Result<(), String> {
    let (mut one, mut two) = (Vec::new(), Vec::new());
    let mut first: Option<String> = None;
    for _ in 0..3 {
        for threads in [1, 2] {
            let spec = Spec {
                threads,
                warm: 0,
                ..base.clone()
            };
            let mut s = ctx.launch(&spec)?;
            let mut conn = s.first.take().expect("launch keeps its first connection");
            let (reply, ms) = ctx.query(&mut conn, COLD_QUERY)?;
            drop(conn);
            ctx.finish(s, 1, 0)?;
            let reference = first.get_or_insert_with(|| reply.clone()).clone();
            ctx.expect_same("cold query --threads 1 vs 2", &[reference], &[reply]);
            if threads == 1 {
                one.push(ms)
            } else {
                two.push(ms)
            }
        }
    }
    col.cold_1t_ms = median(&one);
    col.cold_2t_ms = median(&two);
    Ok(())
}

/// One-second slices of the measured read windows: each window is cut
/// into equal slices of about a second by completion time, and each
/// slice gives a query rate and a 95th percentile. A window's figure is
/// the median over slices, so a burst of machine noise moves a slice,
/// not the figure.
#[derive(Default)]
struct Slices {
    rate: Vec<f64>,
    p95_ms: Vec<f64>,
}

impl Slices {
    /// Adds the slices of a window that ran from `start` to `end`.
    fn add(&mut self, start: Instant, end: Instant, samples: &[Sample]) {
        let span = end.duration_since(start).as_secs_f64();
        let count = (span.round() as usize).max(1);
        let width = span / count as f64;
        let mut slices = vec![Vec::new(); count];
        for s in samples {
            let at = s.done.duration_since(start).as_secs_f64();
            slices[((at / width) as usize).min(count - 1)].push(s.ms);
        }
        for ms in slices {
            self.rate.push(ms.len() as f64 / width);
            if !ms.is_empty() {
                self.p95_ms.push(percentile(&ms, 0.95));
            }
        }
    }
}

/// The end-to-end metrics, and the same timings in ms (keyed by the
/// metric's name) for the provenance line.
fn end_to_end(col: &Collected, refs: &RefTimes) -> Result<(Metrics, Metrics), String> {
    let need = |v: &[f64], what: &str| {
        if v.is_empty() {
            Err(format!("no {what} samples"))
        } else {
            Ok(())
        }
    };
    need(&col.setup_s, "setup")?;
    if col.read_ms.is_empty() {
        return Err("no query samples".into());
    }
    need(&col.ack_ms, "delta ack")?;
    need(&refs.launch, "reference (launch)")?;
    need(&refs.read, "reference (read)")?;
    need(&refs.write, "reference (write)")?;
    let (at_launch, at_read, at_write) = (
        median(&refs.launch),
        median(&refs.read),
        median(&refs.write),
    );
    let lat: Vec<f64> = col.read_ms.iter().map(|s| s.ms).collect();
    // (metric, the same figure in ms, its reference time in ms).
    // Launch-level figures take the interquartile mean: the first query
    // after a warm start comes in two modes (about 2.4 and 3.0 ms on
    // warm-read), and the median of ten launches jumped between them.
    let timings = [
        (
            "cold_query_ref",
            "cold_query_ms",
            interquartile_mean(&col.cold_ms),
            at_launch,
        ),
        (
            "query_p50_ref",
            "query_p50_ms",
            percentile(&lat, 0.50),
            at_read,
        ),
        (
            "query_p95_ref",
            "query_p95_ms",
            median(&col.slices.p95_ms),
            at_read,
        ),
        (
            "delta_ack_p50_ref",
            "delta_ack_p50_ms",
            percentile(&col.ack_ms, 0.50),
            at_write,
        ),
        (
            "delta_ack_p90_ref",
            "delta_ack_p90_ms",
            percentile(&col.ack_ms, 0.90),
            at_write,
        ),
    ];
    let (mut m, mut ms) = (Metrics::new(), Metrics::new());
    for (name, ms_name, value, reference) in timings {
        m.insert(name, value / reference);
        ms.insert(ms_name, value);
    }
    let qps = median(&col.slices.rate);
    m.insert("throughput_per_ref", qps * at_read / 1e3);
    ms.insert("throughput_qps", qps);
    ms.insert("reference_launch_ms", at_launch);
    ms.insert("reference_read_ms", at_read);
    ms.insert("reference_write_ms", at_write);
    m.insert("setup_s", interquartile_mean(&col.setup_s));
    m.insert("server_peak_rss_mb", median(&col.rss_mib));
    Ok((m, ms))
}

fn per_layer(
    ctx: &mut Ctx,
    col: &mut Collected,
    weights: WeightModel,
    m: &mut Metrics,
) -> Result<(), String> {
    // graph: the server's parse and CSR build, replayed.
    let (mut parse, mut build) = (Vec::new(), Vec::new());
    let mut g = None;
    for _ in 0..3 {
        let path = ctx.graph_path.clone();
        let (el, t) = ctx
            .tracer
            .time("graph.parse", || read_edge_list_file(&path));
        parse.push(t);
        let el = el.map_err(|e| e.to_string())?;
        let (gg, t) = ctx.tracer.time("graph.build", || el.into_graph(weights));
        build.push(t);
        g = Some(gg.map_err(|e| e.to_string())?);
    }
    let g = g.expect("three builds");
    m.insert("graph.parse_s", median(&parse));
    m.insert("graph.build_s", median(&build));
    if g.m() != ctx.wc.m() {
        return Err("replayed graph differs from the loaded one".into());
    }

    // index: server counters and log lines.
    m.insert("index.warm_s", median(&col.warm_s));
    if col.server_query_ms.is_empty() {
        return Err("no server-side query times".into());
    }
    m.insert("index.query_ms_p50", percentile(&col.server_query_ms, 0.50));
    m.insert("index.query_ms_p99", percentile(&col.server_query_ms, 0.99));
    let sum = |key: &str| -> Result<f64, String> {
        col.measured
            .iter()
            .map(|f| f.stats.num(key))
            .sum::<Result<f64, String>>()
    };
    let (queries, gen_ns, sel_ns, q_ns) = (
        sum("queries")?,
        sum("generation_time_ns")?,
        sum("selection_time_ns")?,
        sum("query_time_ns")?,
    );
    m.insert("index.generation_ms_per_query", gen_ns / queries / 1e6);
    m.insert("index.selection_ms_per_query", sel_ns / queries / 1e6);
    m.insert("index.accounted_share", (gen_ns + sel_ns) / q_ns);
    m.insert(
        "index.cache_hit_ratio",
        sum("cache_hit_ratio")? / col.measured.len() as f64,
    );
    m.insert(
        "index.publishes",
        sum("snapshot_publishes")? / col.measured.len() as f64,
    );
    let rounds: Vec<f64> = col.cold_logs.iter().map(|&(r, _)| r as f64).collect();
    let fresh: Vec<f64> = col.cold_logs.iter().map(|&(_, f)| f as f64).collect();
    m.insert("index.rounds_per_cold_query", median(&rounds));
    m.insert("index.fresh_sets_per_cold_query", median(&fresh));
    m.insert("index.cold_query_ms_1t", col.cold_1t_ms);
    m.insert("index.cold_query_ms_2t", col.cold_2t_ms);

    // delta: the server's repair reports.
    let d = delta_logs(&col.write_log);
    if d.is_empty() {
        return Err("no delta repair reports".into());
    }
    let apply: Vec<f64> = d.iter().map(|l| l.ms).collect();
    m.insert("delta.apply_ms_p50", percentile(&apply, 0.50));
    m.insert("delta.apply_ms_p90", percentile(&apply, 0.90));
    let regen: Vec<f64> = d.iter().map(|l| l.regenerated as f64).collect();
    let frac: Vec<f64> = d
        .iter()
        .map(|l| l.regenerated as f64 / l.pool_sets.max(1) as f64)
        .collect();
    m.insert("delta.regenerated_sets", mean(&regen));
    m.insert("delta.repair_fraction", mean(&frac));

    // net and the span check.
    let overhead: Vec<f64> = col
        .span_client_ms
        .iter()
        .zip(&col.span_server_ms)
        .map(|(c, s)| c - s)
        .collect();
    if overhead.is_empty() {
        return Err("no traced requests".into());
    }
    m.insert("net.overhead_ms_p50", percentile(&overhead, 0.50));
    m.insert("net.overhead_ms_p99", percentile(&overhead, 0.99));
    m.insert("net.null_rtt_ms_p50", percentile(&col.null_rtt_ms, 0.50));
    let client = mean(&col.span_client_ms);
    let explained = mean(&col.span_server_ms) + mean(&col.null_rtt_ms);
    m.insert(
        "loadgen.unattributed_pct",
        100.0 * (client - explained) / client,
    );
    let lat: Vec<f64> = col.read_ms.iter().map(|s| s.ms).collect();
    m.insert("loadgen.query_p50_ms", percentile(&lat, 0.50));
    m.insert(
        "loadgen.late_ms_p99",
        if col.late_ms.is_empty() {
            0.0
        } else {
            percentile(&col.late_ms, 0.99)
        },
    );

    // Replays of each layer's public functions on the served chunk ids.
    let chunks = (col.pool_sets / CHUNK_SIZE) as u64;
    let pool = layers::replay(&g, STREAM, chunks, &col.replies, &mut ctx.tracer, m)?;

    // core and sketch figures of the served pool, from the counters of
    // the server whose chunk stream the replays sample; the sentinel
    // figures from the server that ran with sentinels, where there is one.
    let served = &col.measured.first().ok_or("no measured server")?.stats;
    let sentinel = col
        .sentinel_server
        .map_or(served, |i| &col.measured[i].stats);
    m.insert("core.sentinel_hit_rate", sentinel.num("sentinel_hit_rate")?);
    m.insert(
        "core.truncated_rr_size",
        sentinel.num("mean_rr_size_truncated")?,
    );
    m.insert("sketch.compression", served.num("sketch_compression")?);
    m.insert(
        "core.coverage_mass",
        coverage_mass(served, &pool, col.pool_sets, col.served_k50.as_deref())?,
    );

    // What a span costs the benchmark.
    let probe = 10_000;
    let mut t = Tracer::new();
    let start = Instant::now();
    for i in 0..probe {
        let a = t.now_ns();
        let b = t.now_ns();
        t.record("probe", i, None, a, b);
    }
    let span_us = start.elapsed().as_secs_f64() * 1e6 / probe as f64;
    m.insert("loadgen.span_cost_us", span_us);
    // Traced requests against their untraced twins: the median paired
    // difference, as a share of the median untraced request. The twins
    // take turns going first, so the medians of the two orders are
    // averaged to cancel what going first costs.
    let diff = |first: usize| -> f64 {
        let d: Vec<f64> = col
            .trace_pairs
            .iter()
            .skip(first)
            .step_by(2)
            .map(|&(t, u)| t - u)
            .collect();
        median(&d)
    };
    let untraced: Vec<f64> = col.trace_pairs.iter().map(|&(_, u)| u).collect();
    m.insert(
        "loadgen.trace_overhead_pct",
        100.0 * (diff(0) + diff(1)) / 2.0 / median(&untraced),
    );
    m.insert("loadgen.spans", ctx.tracer.spans.len() as f64);
    Ok(())
}

/// Σ|R_i| of the served R₁. The replay's R₁ mass is exact when the
/// replay provably is the served pool: it accounts for the server's
/// exact pool bytes to the byte (4 per node, 8 per set, over R₁ alone
/// when the validation half is sketched), or, where the server counted
/// no pool bytes because it warmed its pool before serving, greedy picks
/// on it the seeds the server replied to the cold query. Otherwise (the
/// versioned-graph stacks, whose storage and sentinel truncation give
/// another stream) the mass is estimated from the server's mean plain
/// and truncated set sizes: truncation starts after the plain warmup
/// chunks.
fn coverage_mass(
    stats: &Json,
    pool: &layers::Pool,
    pool_sets: usize,
    served_k50: Option<&str>,
) -> Result<f64, String> {
    let exact = stats.num("exact_pool_bytes")?;
    let (sets, nodes) = if stats.num("sketch_pool_bytes")? > 0.0 {
        (pool.r1_sets, pool.r1_nodes)
    } else {
        (pool.r1_sets + pool.r2_sets, pool.r1_nodes + pool.r2_nodes)
    };
    let same_pool = if exact > 0.0 {
        (4 * nodes + 8 * sets) as f64 == exact
    } else {
        served_k50.is_some_and(|reply| {
            let mut served: Vec<u32> = reply
                .split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect();
            let mut replayed = pool.k50_seeds.clone();
            served.sort_unstable();
            replayed.sort_unstable();
            served == replayed
        })
    };
    if same_pool {
        return Ok(pool.r1_nodes as f64);
    }
    let (plain_size, truncated_size) = (
        stats.num("mean_rr_size_plain")?,
        stats.num("mean_rr_size_truncated")?,
    );
    if plain_size == 0.0 {
        eprintln!(
            "perfbench: the replayed pool is not the served one and the server counted \
             no generation; core.coverage_mass is the replay's"
        );
        return Ok(pool.r1_nodes as f64);
    }
    if truncated_size == 0.0 {
        return Ok(pool_sets as f64 * plain_size);
    }
    let plain = pool_sets.min(SENTINEL_WARMUP_CHUNKS as usize * CHUNK_SIZE);
    Ok(plain as f64 * plain_size + (pool_sets - plain) as f64 * truncated_size)
}

/// Span-sum bounds of the smoke check. At Small scale a request is
/// short, so the per-request work outside index time and the reactor's
/// null round trip (parsing, reply formatting, the log line) weighs
/// more: smoke runs left 2.6–11.7% of client latency unattributed, and
/// generation plus selection covered 0.96–1.00 of index time.
const SMOKE_UNATTRIBUTED_MAX_PCT: f64 = 15.0;
const SMOKE_ACCOUNTED_MIN: f64 = 0.9;

/// Small-scale self-check: every workload in both modes, every metric of
/// `BENCHMARK.json` emitted with its unit, and the traced spans adding up.
fn smoke(args: &Args) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let bench = Json::parse(&text)?;
    let declared = |key: &str| -> Vec<(String, String)> {
        bench
            .arr(key)
            .iter()
            .map(|m| {
                (
                    m.str("name").unwrap_or("").to_string(),
                    m.str("unit").unwrap_or("").to_string(),
                )
            })
            .collect()
    };
    let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    if declared("end_to_end") != ours(&END_TO_END) {
        return Err("BENCHMARK.json end_to_end differs from the metrics emitted".into());
    }
    if declared("per_layer") != ours(&PER_LAYER) {
        return Err("BENCHMARK.json per_layer differs from the metrics emitted".into());
    }
    let names: Vec<&str> = bench
        .arr("workloads")
        .iter()
        .filter_map(|w| w.str("name"))
        .collect();
    if names != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json workloads {names:?} differ from {WORKLOADS:?}"
        ));
    }
    for w in WORKLOADS {
        for trace in [false, true] {
            let r = run(args, w, 7, 2.0, trace, SMALL)?;
            let line = Json::parse(&r.line)?;
            let metrics = line.get("metrics").ok_or("result has no metrics")?;
            let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for &(name, unit) in list {
                let m = metrics.get(name).ok_or(format!("{w}: {name} missing"))?;
                if m.str("unit") != Some(unit) {
                    return Err(format!(
                        "{w}: {name} has unit {:?}, want {unit}",
                        m.str("unit")
                    ));
                }
            }
            if !r.correct {
                return Err(format!("{w}: wrong replies"));
            }
            if trace {
                let (nest, agree) = (r.checks["min_overhead_ms"], r.checks["log_vs_counter"]);
                if nest < 0.0 {
                    return Err(format!("{w}: a server query time exceeds its client span"));
                }
                if (agree - 1.0).abs() > 0.02 {
                    return Err(format!(
                        "{w}: logged query times add up to {agree:.4} of query_time_ns"
                    ));
                }
                let share = r.metrics["index.accounted_share"];
                if !(SMOKE_ACCOUNTED_MIN..=1.02).contains(&share) {
                    return Err(format!(
                        "{w}: generation + selection cover {share:.3} of index time"
                    ));
                }
                let unattributed = r.metrics["loadgen.unattributed_pct"];
                if !(0.0..=SMOKE_UNATTRIBUTED_MAX_PCT).contains(&unattributed) {
                    return Err(format!(
                        "{w}: net + index leave {unattributed:.2}% of client latency unattributed"
                    ));
                }
                eprintln!(
                    "perfbench smoke: {w}: net + index leave {:.2}% of client latency \
                     unattributed; generation + selection cover {share:.3} of index time; \
                     tracing adds {:.2}% to a request; coverage mass {}",
                    r.metrics["loadgen.unattributed_pct"],
                    r.metrics["loadgen.trace_overhead_pct"],
                    r.metrics["core.coverage_mass"],
                );
            }
            eprintln!("perfbench smoke: {w} trace={trace} ok");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(exact: u64, sketch: u64, plain: f64, truncated: f64) -> Json {
        Json::parse(&format!(
            "{{\"exact_pool_bytes\": {exact}, \"sketch_pool_bytes\": {sketch}, \
             \"mean_rr_size_plain\": {plain}, \"mean_rr_size_truncated\": {truncated}}}"
        ))
        .unwrap()
    }

    #[test]
    fn coverage_mass_is_the_replays_only_on_the_served_pool() {
        let pool = layers::Pool {
            r1_sets: 2048,
            r1_nodes: 30_000,
            r2_sets: 2048,
            r2_nodes: 31_000,
            k50_seeds: vec![7, 3, 5],
        };
        // Exact pool bytes: both halves, or R1 alone when sketched.
        let both = 4 * 61_000 + 8 * 4096;
        assert_eq!(
            coverage_mass(&stats(both, 0, 15.0, 0.0), &pool, 2048, None),
            Ok(30_000.0)
        );
        let r1 = 4 * 30_000 + 8 * 2048;
        assert_eq!(
            coverage_mass(&stats(r1, 900, 15.0, 0.0), &pool, 2048, None),
            Ok(30_000.0)
        );
        // No pool bytes: the served k = 50 reply must match the replay's seeds.
        let warm = stats(0, 0, 0.0, 0.0);
        assert_eq!(
            coverage_mass(&warm, &pool, 2048, Some("3 5 7")),
            Ok(30_000.0)
        );
        // Another pool: the server's counters give the estimate.
        let counted = stats(both + 4, 0, 15.0, 0.0);
        assert_eq!(
            coverage_mass(&counted, &pool, 2048, None),
            Ok(2048.0 * 15.0)
        );
        let truncated = stats(0, 0, 12.0, 4.0);
        let plain = SENTINEL_WARMUP_CHUNKS as usize * CHUNK_SIZE;
        assert_eq!(
            coverage_mass(&truncated, &pool, 8192, Some("3 5 8")),
            Ok(plain as f64 * 12.0 + (8192 - plain) as f64 * 4.0)
        );
    }
}
