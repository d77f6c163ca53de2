//! Deterministic simulation of the serving path.
//!
//! A single `u64` seed expands into a full serving **script** — an
//! interleaving of influence queries, version-pinned queries (some
//! deliberately stale), graph delta ops, and malformed lines — via
//! [`generate_script`]. The script then drives two independent
//! executions:
//!
//! - [`run_concurrent`] feeds it through the *real* serving stack:
//!   [`subsim_delta::serve_queries`] over a [`ConcurrentDeltaIndex`],
//!   with reader, worker, and collector threads exactly as the CLI runs
//!   them (one query worker, so answers are a pure function of the
//!   script — delta lines are already a barrier in the loop).
//! - [`run_sequential_model`] replays the same lines against the plain
//!   sequential [`DeltaIndex`] — the model whose semantics the
//!   concurrent stack promises to match bit-for-bit.
//! - [`run_sharded`] swaps the index for an N-shard
//!   [`ShardedDeltaIndex`], model-checking that chunk-ownership sharding
//!   leaves a serving session a pure function of its input for every
//!   shard count ([`check_seed_sharded`]).
//!
//! Both produce a [`SimOutcome`]: one canonical record per script line
//! (`ok <seeds>`, `applied v<version> regen=<sets>`, `stale ...`,
//! `malformed`, ...). [`check_seed`] asserts the two outcomes are equal
//! and reports the seed plus the first diverging line on failure, so any
//! counterexample replays bit-identically from the printed seed.
//!
//! Every generated line is textually unique (ε and p carry a per-step
//! jitter in their last digits), which is what lets the concurrent
//! run's events be re-associated with script lines unambiguously.

use rand::Rng;
use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;
use subsim_delta::{
    parse_query, serve_queries, ConcurrentDeltaIndex, DeltaError, DeltaIndex, GraphDelta,
    LineError, ServeError, ServeEvent, ServeIndex, ServeSink,
};
use subsim_diffusion::RrStrategy;
use subsim_graph::{Graph, NodeId};
use subsim_index::{IndexConfig, MetricsSnapshot};
use subsim_serve::ShardedDeltaIndex;

/// The `δ` every simulated query uses.
const SIM_DELTA: f64 = 0.1;

/// Index configuration shared by the concurrent run and the model: the
/// pool must be a pure function of its size for the comparison to be
/// exact, which holds for any fixed `(strategy, seed, chunk_size)`.
fn base_config(strategy: RrStrategy) -> IndexConfig {
    IndexConfig::new(strategy)
        .seed(42)
        .chunk_size(32)
        .threads(2)
}

/// The default simulated workload: subsim-style IC.
fn sim_config() -> IndexConfig {
    base_config(RrStrategy::SubsimIc)
}

/// [`sim_config`] under Linear Threshold: the pool grows chain-shaped
/// LT RR sets through the identical serving machinery. Purity of the
/// pool in its size holds exactly as for IC — the LT sampler is seeded
/// per chunk the same way.
fn sim_config_lt() -> IndexConfig {
    base_config(RrStrategy::Lt)
}

/// [`sim_config`] with the sentinel tier enabled: chunks past the
/// warmup prefix run through the stopped-RR wrapper over a 2-node
/// sentinel set. Pool content stays a pure function of its size, so the
/// model check carries over unchanged.
fn sim_config_sentinel() -> IndexConfig {
    sim_config().sentinels(2)
}

/// [`sim_config`] with the sketched validation tier enabled: the exact
/// R₂ arena is displaced by per-node HLL count-distinct sketches at
/// register precision 6. Sketch content is a pure function of pool
/// size (deterministic hashing, no sampled state), so the model check
/// carries over unchanged.
fn sim_config_sketch() -> IndexConfig {
    sim_config().sketch(6)
}

/// [`sim_config_lt`] with the sentinel tier enabled under LT.
fn sim_config_lt_sentinel() -> IndexConfig {
    sim_config_lt().sentinels(2)
}

/// [`sim_config_lt`] with the sketched validation tier enabled under LT.
fn sim_config_lt_sketch() -> IndexConfig {
    sim_config_lt().sketch(6)
}

/// Sets every sentinel-enabled run pre-grows to before serving: past
/// the 4-chunk warmup boundary, so the sentinel tier is active (and
/// identically selected on every stack) before the first scripted line.
const SENTINEL_WARM_SETS: usize = 320;

/// Sets every sketch-enabled run pre-grows to before serving, so the
/// first scripted query certifies (or ladders) from a populated sketch
/// rather than growing from zero.
const SKETCH_WARM_SETS: usize = 320;

/// What one script line did, in canonical text form (identical between
/// the concurrent run and the sequential model when behavior matches).
pub type SimStep = String;

/// The outcome of one simulated serving session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// One canonical record per script line, in script order.
    pub records: Vec<SimStep>,
    /// Graph version after the session.
    pub final_version: u64,
}

/// Expands `seed` into a serving script of `steps` lines over `g`:
/// ~55% plain queries, ~15% queries pinned to the then-current version,
/// ~5% deliberately stale pins, ~20% valid delta ops (insert / delete /
/// reweight, tracked against the evolving edge set so they stay
/// applicable), ~5% malformed lines. Pure function of `(g, seed, steps)`.
pub fn generate_script(g: &Graph, seed: u64, steps: usize) -> Vec<String> {
    script_with_k_span(g, seed, steps, 3)
}

/// Largest `k` [`generate_mixed_k_script`] draws: three past the
/// simulated sentinel set's size, so queries land below, at and above
/// `b`.
pub const MIXED_K_MAX: usize = 5;

/// [`generate_script`]'s line mix with `k` drawn from `1..=MIXED_K_MAX`
/// instead of `1..=3`: consecutive queries on one snapshot alternate
/// between reading its selection trace and rebuilding a longer one, and
/// sentinel pools see `k < b`, `k = b` and `k > b`. Pure function of
/// `(g, seed, steps)`.
pub fn generate_mixed_k_script(g: &Graph, seed: u64, steps: usize) -> Vec<String> {
    script_with_k_span(g, seed, steps, MIXED_K_MAX)
}

/// The script generator behind both mixes; queries draw `k` uniformly
/// from `1..=k_span`.
fn script_with_k_span(g: &Graph, seed: u64, steps: usize, k_span: usize) -> Vec<String> {
    let mut rng = subsim_sampling::rng_from_seed(seed);
    let n = g.n() as NodeId;
    let mut edges: BTreeSet<(NodeId, NodeId)> = g.edges().map(|(u, v, _)| (u, v)).collect();
    // Every pair ever used as an insert target, so delete lines stay
    // textually unique even across insert/delete cycles.
    let mut used: BTreeSet<(NodeId, NodeId)> = edges.clone();
    let mut version = 0u64;
    let mut script = Vec::with_capacity(steps);
    for i in 0..steps {
        let jitter = (i + 1) as f64 * 1e-9;
        let query = |rng: &mut dyn FnMut() -> f64, pin: Option<u64>| {
            let k = 1 + (rng() * k_span as f64) as usize;
            let eps = 0.3 + rng() * 0.2 + jitter;
            match pin {
                Some(v) => format!("{k} {eps:.9} @{v}"),
                None => format!("{k} {eps:.9}"),
            }
        };
        let mut draw = || rng.gen::<f64>();
        let roll = (draw() * 100.0) as u32;
        let line = match roll {
            0..=54 => query(&mut draw, None),
            55..=69 => query(&mut draw, Some(version)),
            70..=74 => {
                // A stale pin needs an old version to exist.
                let pin = if version > 0 {
                    (draw() * version as f64) as u64 // in 0..version
                } else {
                    version
                };
                query(&mut draw, Some(pin))
            }
            75..=94 => {
                let p = 0.05 + draw() * 0.45 + jitter;
                let kind = (draw() * 3.0) as u32;
                if kind == 0 || edges.len() <= 2 {
                    // Insert a fresh, never-before-used pair.
                    let mut pick = || {
                        let u = (draw() * n as f64) as NodeId;
                        let v = (draw() * n as f64) as NodeId;
                        (u.min(n - 1), v.min(n - 1))
                    };
                    let mut pair = pick();
                    let mut tries = 0;
                    while (pair.0 == pair.1 || used.contains(&pair)) && tries < 50 {
                        pair = pick();
                        tries += 1;
                    }
                    if pair.0 == pair.1 || used.contains(&pair) {
                        // Dense graph, no fresh pair found: fall back to
                        // a plain query rather than emit an invalid op.
                        script.push(query(&mut draw, None));
                        continue;
                    }
                    edges.insert(pair);
                    used.insert(pair);
                    version += 1;
                    format!("delta + {} {} {p:.9}", pair.0, pair.1)
                } else {
                    let idx = (draw() * edges.len() as f64) as usize;
                    let &(u, v) = edges.iter().nth(idx.min(edges.len() - 1)).unwrap();
                    if kind == 1 {
                        edges.remove(&(u, v));
                        version += 1;
                        format!("delta - {u} {v}")
                    } else {
                        version += 1;
                        format!("delta ~ {u} {v} {p:.9}")
                    }
                }
            }
            _ => {
                if roll.is_multiple_of(2) {
                    format!("bogus {i}")
                } else {
                    format!("delta ? {i}")
                }
            }
        };
        script.push(line);
    }
    script
}

/// Canonical rendering of a line failure — shared by both executions so
/// records compare exactly without depending on full `Display` strings.
fn render_failure(error: &LineError) -> String {
    match error {
        LineError::Malformed { .. } => "malformed".to_string(),
        LineError::Frame(v) => format!("frame: {v}"),
        LineError::Rejected(ServeError::Delta(DeltaError::StaleVersion { requested, current })) => {
            format!("stale requested={requested} current={current}")
        }
        LineError::Rejected(ServeError::Delta(DeltaError::Parse { .. })) => {
            "rejected-parse".to_string()
        }
        LineError::Rejected(e) => format!("rejected: {e}"),
    }
}

/// Event recorder for the concurrent run.
#[derive(Default)]
struct Recorder(Mutex<Vec<ServeEvent>>);

impl ServeSink for Recorder {
    fn event(&self, event: ServeEvent) {
        self.0.lock().expect("recorder poisoned").push(event);
    }
}

/// Runs `script` through the real concurrent serving stack under an
/// arbitrary [`IndexConfig`], warming the index to `warm_sets` first
/// when nonzero.
fn run_concurrent_cfg(
    g: &Graph,
    script: &[String],
    config: IndexConfig,
    warm: usize,
) -> SimOutcome {
    let index = ConcurrentDeltaIndex::new(g.clone(), config).expect("simulated index builds");
    if warm > 0 {
        index.warm(warm).expect("index warmup");
    }
    let (outcome, rounds) = run_serve_stack(&index, script);
    check_counters(
        "concurrent",
        &index.metrics(),
        rounds,
        index.load().pool_len(),
    );
    outcome
}

/// Runs `script` through an N-shard [`ShardedDeltaIndex`] under an
/// arbitrary [`IndexConfig`], warming first when `warm > 0`.
fn run_sharded_cfg(
    g: &Graph,
    script: &[String],
    shards: usize,
    config: IndexConfig,
    warm: usize,
) -> SimOutcome {
    let index =
        ShardedDeltaIndex::new(g.clone(), config, shards).expect("simulated sharded index builds");
    if warm > 0 {
        index.warm(warm).expect("index warmup");
    }
    let (outcome, rounds) = run_serve_stack(&index, script);
    let label = format!("sharded({shards})");
    check_counters(&label, &index.metrics(), rounds, index.load().pool_len());
    outcome
}

/// Invariants between a serving stack's counters after a session that
/// certified `rounds` rounds in total and ended on a pool of `pool_len`
/// sets per half: every round is exactly one selection-trace hit or
/// build, and a non-empty pool reports resident bytes.
fn check_counters(label: &str, m: &MetricsSnapshot, rounds: u64, pool_len: usize) {
    assert_eq!(
        m.selection_trace_hits + m.selection_trace_builds,
        rounds,
        "{label}: trace hits ({}) + builds ({}) must equal certification rounds",
        m.selection_trace_hits,
        m.selection_trace_builds
    );
    if pool_len > 0 {
        assert!(
            m.exact_pool_bytes + m.sketch_pool_bytes > 0,
            "{label}: a pool of {pool_len} sets per half reports no resident bytes"
        );
    }
}

/// Replays `script` against the sequential [`DeltaIndex`] under an
/// arbitrary [`IndexConfig`], warming first when `warm > 0`.
fn run_model_cfg(g: &Graph, script: &[String], config: IndexConfig, warm: usize) -> SimOutcome {
    let mut index = DeltaIndex::new(g.clone(), config).expect("simulated index builds");
    if warm > 0 {
        index.warm(warm).expect("index warmup");
    }
    run_model(index, script)
}

/// Runs `script` through the real concurrent serving stack (one query
/// worker, so the outcome is deterministic) and canonicalizes the
/// result. Panics on internal serving errors — those are test failures,
/// not simulation outcomes.
pub fn run_concurrent(g: &Graph, script: &[String]) -> SimOutcome {
    run_concurrent_cfg(g, script, sim_config(), 0)
}

/// [`run_concurrent`] with the sentinel tier active: the index warms
/// past the sentinel boundary before the script starts, so every
/// scripted query serves from truncated pools.
pub fn run_concurrent_sentinel(g: &Graph, script: &[String]) -> SimOutcome {
    run_concurrent_cfg(g, script, sim_config_sentinel(), SENTINEL_WARM_SETS)
}

/// [`run_concurrent`] with the sketched validation tier active: every
/// scripted query certifies through the slack-widened OPIM bound over
/// the HLL sketches (promoting precision when the slack blocks it).
pub fn run_concurrent_sketch(g: &Graph, script: &[String]) -> SimOutcome {
    run_concurrent_cfg(g, script, sim_config_sketch(), SKETCH_WARM_SETS)
}

/// [`run_concurrent`] under Linear Threshold: the identical serving
/// stack, pool of chain-shaped LT RR sets.
pub fn run_concurrent_lt(g: &Graph, script: &[String]) -> SimOutcome {
    run_concurrent_cfg(g, script, sim_config_lt(), 0)
}

/// Runs `script` through the serving loop over an N-shard
/// [`ShardedDeltaIndex`] — the model check that chunk-ownership sharding
/// keeps serving a pure function of the script, byte-identical to the
/// sequential model for every shard count.
pub fn run_sharded(g: &Graph, script: &[String], shards: usize) -> SimOutcome {
    run_sharded_cfg(g, script, shards, sim_config(), 0)
}

/// [`run_sharded`] with the sentinel tier active (see
/// [`run_concurrent_sentinel`]): sentinels are selected globally and
/// applied per shard, and the outcome must still match the sequential
/// sentinel model byte for byte.
pub fn run_sharded_sentinel(g: &Graph, script: &[String], shards: usize) -> SimOutcome {
    run_sharded_cfg(g, script, shards, sim_config_sentinel(), SENTINEL_WARM_SETS)
}

/// [`run_sharded`] with the sketched validation tier active: per-shard
/// sketches over owned chunks, merged at certification, must serve the
/// exact session the sequential sketch model does for every shard count.
pub fn run_sharded_sketch(g: &Graph, script: &[String], shards: usize) -> SimOutcome {
    run_sharded_cfg(g, script, shards, sim_config_sketch(), SKETCH_WARM_SETS)
}

/// [`run_sharded`] under Linear Threshold.
pub fn run_sharded_lt(g: &Graph, script: &[String], shards: usize) -> SimOutcome {
    run_sharded_cfg(g, script, shards, sim_config_lt(), 0)
}

/// Drives any [`ServeIndex`] through [`serve_queries`] (one query
/// worker) and canonicalizes the outcome; also returns the certification
/// rounds the answered queries ran (a failed line runs none: stale pins
/// fail before the first round, and deltas are barriers).
fn run_serve_stack<I: ServeIndex>(index: &I, script: &[String]) -> (SimOutcome, u64) {
    let input = format!("{}\n", script.join("\n"));
    let mut output = Vec::new();
    let rec = Recorder::default();
    let shutdown = serve_queries(index, SIM_DELTA, 1, input.as_bytes(), &mut output, &rec)
        .expect("serving loop I/O");
    assert!(!shutdown, "scripts do not contain shutdown lines");

    // Re-associate events with script lines. Lines are unique, so a map
    // by text is unambiguous; answers pair with Answered events by order.
    let events = rec.0.into_inner().expect("recorder poisoned");
    let answers: Vec<&str> = std::str::from_utf8(&output)
        .expect("seed output is ASCII")
        .lines()
        .collect();
    let mut answered_order: Vec<String> = Vec::new();
    let mut failed: HashMap<String, String> = HashMap::new();
    let mut applied: HashMap<String, String> = HashMap::new();
    let mut rounds = 0u64;
    for event in &events {
        match event {
            ServeEvent::Answered { line, stats } => {
                answered_order.push(line.clone());
                rounds += stats.rounds as u64;
            }
            ServeEvent::LineFailed { line, error } => {
                let prev = failed.insert(line.clone(), render_failure(error));
                assert!(prev.is_none(), "script lines must be unique: {line:?}");
            }
            ServeEvent::DeltaApplied { op, report } => {
                let prev = applied.insert(
                    op.clone(),
                    format!(
                        "applied v{} regen={}",
                        report.version, report.regenerated_sets
                    ),
                );
                assert!(prev.is_none(), "delta ops must be unique: {op:?}");
            }
            ServeEvent::InputError { message } => {
                panic!("unexpected input error in simulation: {message}")
            }
        }
    }
    assert_eq!(
        answered_order.len(),
        answers.len(),
        "every answered query writes exactly one output line"
    );

    let mut next_answer = 0usize;
    let records = script
        .iter()
        .map(|line| {
            if let Some(op) = line.strip_prefix("delta ") {
                if let Some(r) = applied.get(op.trim()) {
                    return r.clone();
                }
                return failed
                    .get(line)
                    .unwrap_or_else(|| panic!("no outcome for {line:?}"))
                    .clone();
            }
            if answered_order.get(next_answer).map(String::as_str) == Some(line.as_str()) {
                let r = format!("ok {}", answers[next_answer]);
                next_answer += 1;
                return r;
            }
            failed
                .get(line)
                .unwrap_or_else(|| panic!("no outcome for {line:?}"))
                .clone()
        })
        .collect();
    let outcome = SimOutcome {
        records,
        final_version: ServeIndex::version(index).unwrap_or(0),
    };
    (outcome, rounds)
}

/// Replays `script` against the sequential [`DeltaIndex`] — the
/// reference semantics the concurrent stack must match.
pub fn run_sequential_model(g: &Graph, script: &[String]) -> SimOutcome {
    run_model_cfg(g, script, sim_config(), 0)
}

/// [`run_sequential_model`] with the sentinel tier active and the same
/// pre-serving warmup as the concurrent/sharded sentinel runs.
pub fn run_sequential_model_sentinel(g: &Graph, script: &[String]) -> SimOutcome {
    run_model_cfg(g, script, sim_config_sentinel(), SENTINEL_WARM_SETS)
}

/// [`run_sequential_model`] with the sketched validation tier active
/// and the same pre-serving warmup as the concurrent/sharded sketch
/// runs.
pub fn run_sequential_model_sketch(g: &Graph, script: &[String]) -> SimOutcome {
    run_model_cfg(g, script, sim_config_sketch(), SKETCH_WARM_SETS)
}

/// [`run_sequential_model`] under Linear Threshold.
pub fn run_sequential_model_lt(g: &Graph, script: &[String]) -> SimOutcome {
    run_model_cfg(g, script, sim_config_lt(), 0)
}

fn run_model(mut index: DeltaIndex, script: &[String]) -> SimOutcome {
    let records = script
        .iter()
        .map(|line| {
            if let Some(op) = line.strip_prefix("delta ") {
                return match GraphDelta::parse_line(op.trim()) {
                    Ok(Some(parsed)) => {
                        let mut delta = GraphDelta::new();
                        delta.push(parsed);
                        match index.apply_delta(&delta) {
                            Ok(report) => format!(
                                "applied v{} regen={}",
                                report.version, report.regenerated_sets
                            ),
                            Err(DeltaError::Parse { .. }) => "rejected-parse".to_string(),
                            Err(e) => format!("rejected: {e}"),
                        }
                    }
                    _ => "rejected-parse".to_string(),
                };
            }
            match parse_query(line) {
                Err(_) => "malformed".to_string(),
                Ok((k, epsilon, pin)) => {
                    if let Some(p) = pin {
                        if p != index.version() {
                            return format!("stale requested={p} current={}", index.version());
                        }
                    }
                    match index.query(k, epsilon, SIM_DELTA) {
                        Ok(ans) => {
                            let seeds: Vec<String> =
                                ans.seeds.iter().map(|s| s.to_string()).collect();
                            format!("ok {}", seeds.join(" "))
                        }
                        Err(e) => format!("rejected: {e}"),
                    }
                }
            }
        })
        .collect();
    SimOutcome {
        records,
        final_version: index.version(),
    }
}

/// Generates the script for `seed`, runs both executions, and compares.
/// On divergence the error names the seed and the first differing line,
/// so the failure replays bit-identically from that seed alone.
pub fn check_seed(g: &Graph, seed: u64, steps: usize) -> Result<(), String> {
    let script = generate_script(g, seed, steps);
    let concurrent = run_concurrent(g, &script);
    let model = run_sequential_model(g, &script);
    diff_outcomes("concurrent", seed, steps, &script, &concurrent, &model)
}

/// Like [`check_seed`], but the serving stack runs over an N-shard
/// [`ShardedDeltaIndex`]: the model check that a sharded session is the
/// same pure function of its input as the sequential index.
pub fn check_seed_sharded(g: &Graph, seed: u64, steps: usize, shards: usize) -> Result<(), String> {
    let script = generate_script(g, seed, steps);
    let sharded = run_sharded(g, &script, shards);
    let model = run_sequential_model(g, &script);
    let label = format!("sharded({shards})");
    diff_outcomes(&label, seed, steps, &script, &sharded, &model)
}

/// [`check_seed`] with the sentinel tier active on both sides: the
/// concurrent sentinel stack (truncated growth, sentinel-aware repair
/// and refresh) must match the sequential sentinel model bit for bit.
pub fn check_seed_sentinel(g: &Graph, seed: u64, steps: usize) -> Result<(), String> {
    let script = generate_script(g, seed, steps);
    let concurrent = run_concurrent_sentinel(g, &script);
    let model = run_sequential_model_sentinel(g, &script);
    diff_outcomes(
        "concurrent+sentinel",
        seed,
        steps,
        &script,
        &concurrent,
        &model,
    )
}

/// [`check_seed_sharded`] with the sentinel tier active on both sides.
pub fn check_seed_sharded_sentinel(
    g: &Graph,
    seed: u64,
    steps: usize,
    shards: usize,
) -> Result<(), String> {
    let script = generate_script(g, seed, steps);
    let sharded = run_sharded_sentinel(g, &script, shards);
    let model = run_sequential_model_sentinel(g, &script);
    let label = format!("sharded({shards})+sentinel");
    diff_outcomes(&label, seed, steps, &script, &sharded, &model)
}

/// [`check_seed`] with the sketched validation tier active on both
/// sides: the concurrent sketch stack (sketch-absorbing growth,
/// chunk-wise sketch repair, error-ladder promotion) must match the
/// sequential sketch model bit for bit.
pub fn check_seed_sketch(g: &Graph, seed: u64, steps: usize) -> Result<(), String> {
    let script = generate_script(g, seed, steps);
    let concurrent = run_concurrent_sketch(g, &script);
    let model = run_sequential_model_sketch(g, &script);
    diff_outcomes(
        "concurrent+sketch",
        seed,
        steps,
        &script,
        &concurrent,
        &model,
    )
}

/// [`check_seed_sharded`] with the sketched validation tier active on
/// both sides.
pub fn check_seed_sharded_sketch(
    g: &Graph,
    seed: u64,
    steps: usize,
    shards: usize,
) -> Result<(), String> {
    let script = generate_script(g, seed, steps);
    let sharded = run_sharded_sketch(g, &script, shards);
    let model = run_sequential_model_sketch(g, &script);
    let label = format!("sharded({shards})+sketch");
    diff_outcomes(&label, seed, steps, &script, &sharded, &model)
}

/// [`check_seed`] under Linear Threshold: the concurrent stack serving
/// LT pools (chain-shaped RR sets, LT-aware delta repair) must match
/// the sequential LT model bit for bit.
pub fn check_seed_lt(g: &Graph, seed: u64, steps: usize) -> Result<(), String> {
    let script = generate_script(g, seed, steps);
    let concurrent = run_concurrent_lt(g, &script);
    let model = run_sequential_model_lt(g, &script);
    diff_outcomes("concurrent+lt", seed, steps, &script, &concurrent, &model)
}

/// [`check_seed_sharded`] under Linear Threshold.
pub fn check_seed_sharded_lt(
    g: &Graph,
    seed: u64,
    steps: usize,
    shards: usize,
) -> Result<(), String> {
    let script = generate_script(g, seed, steps);
    let sharded = run_sharded_lt(g, &script, shards);
    let model = run_sequential_model_lt(g, &script);
    let label = format!("sharded({shards})+lt");
    diff_outcomes(&label, seed, steps, &script, &sharded, &model)
}

/// [`check_seed`] under Linear Threshold with the sentinel tier active
/// on both sides: truncated LT chains through growth, repair, and
/// refresh.
pub fn check_seed_lt_sentinel(g: &Graph, seed: u64, steps: usize) -> Result<(), String> {
    let script = generate_script(g, seed, steps);
    let concurrent = run_concurrent_cfg(g, &script, sim_config_lt_sentinel(), SENTINEL_WARM_SETS);
    let model = run_model_cfg(g, &script, sim_config_lt_sentinel(), SENTINEL_WARM_SETS);
    diff_outcomes(
        "concurrent+lt+sentinel",
        seed,
        steps,
        &script,
        &concurrent,
        &model,
    )
}

/// [`check_seed`] under Linear Threshold with the sketched validation
/// tier active on both sides.
pub fn check_seed_lt_sketch(g: &Graph, seed: u64, steps: usize) -> Result<(), String> {
    let script = generate_script(g, seed, steps);
    let concurrent = run_concurrent_cfg(g, &script, sim_config_lt_sketch(), SKETCH_WARM_SETS);
    let model = run_model_cfg(g, &script, sim_config_lt_sketch(), SKETCH_WARM_SETS);
    diff_outcomes(
        "concurrent+lt+sketch",
        seed,
        steps,
        &script,
        &concurrent,
        &model,
    )
}

/// [`check_seed_sharded`] under Linear Threshold with the sketched
/// validation tier active on both sides.
pub fn check_seed_sharded_lt_sketch(
    g: &Graph,
    seed: u64,
    steps: usize,
    shards: usize,
) -> Result<(), String> {
    let script = generate_script(g, seed, steps);
    let sharded = run_sharded_cfg(g, &script, shards, sim_config_lt_sketch(), SKETCH_WARM_SETS);
    let model = run_model_cfg(g, &script, sim_config_lt_sketch(), SKETCH_WARM_SETS);
    let label = format!("sharded({shards})+lt+sketch");
    diff_outcomes(&label, seed, steps, &script, &sharded, &model)
}

/// [`check_seed`] over a [`generate_mixed_k_script`] schedule, on every
/// tier (plain, sentinel, sketched) and every stack (concurrent, and
/// sharded at 1, 2 and 3 shards): warm queries read and lengthen each
/// snapshot's selection trace, and every record must still match the
/// sequential model, which runs greedy fresh on every round.
pub fn check_seed_mixed_k(g: &Graph, seed: u64, steps: usize) -> Result<(), String> {
    let script = generate_mixed_k_script(g, seed, steps);
    for (tier, config, warm) in [
        ("plain", sim_config(), 0),
        ("sentinel", sim_config_sentinel(), SENTINEL_WARM_SETS),
        ("sketch", sim_config_sketch(), SKETCH_WARM_SETS),
    ] {
        let model = run_model_cfg(g, &script, config, warm);
        let concurrent = run_concurrent_cfg(g, &script, config, warm);
        let label = format!("concurrent+{tier}+mixed-k");
        diff_outcomes(&label, seed, steps, &script, &concurrent, &model)?;
        for shards in 1..=3 {
            let sharded = run_sharded_cfg(g, &script, shards, config, warm);
            let label = format!("sharded({shards})+{tier}+mixed-k");
            diff_outcomes(&label, seed, steps, &script, &sharded, &model)?;
        }
    }
    Ok(())
}

/// Reports the first divergence between a serving-stack outcome and the
/// sequential model, naming the seed so failures replay exactly.
fn diff_outcomes(
    label: &str,
    seed: u64,
    steps: usize,
    script: &[String],
    got: &SimOutcome,
    model: &SimOutcome,
) -> Result<(), String> {
    if got == model {
        return Ok(());
    }
    if got.final_version != model.final_version {
        return Err(format!(
            "seed {seed}: final version diverged ({label} {} vs model {}); \
             reproduce with seed {seed}, {steps} steps",
            got.final_version, model.final_version
        ));
    }
    let (i, (c, m)) = got
        .records
        .iter()
        .zip(&model.records)
        .enumerate()
        .find(|(_, (c, m))| c != m)
        .expect("equal-length record lists differ somewhere");
    Err(format!(
        "seed {seed}: line {i} {:?} diverged: {label} {c:?} vs model {m:?}; \
         reproduce with seed {seed}, {steps} steps",
        script[i]
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_graph::generators::barabasi_albert;
    use subsim_graph::WeightModel;

    fn sim_graph() -> Graph {
        barabasi_albert(48, 2, WeightModel::Wc, 17)
    }

    #[test]
    fn script_generation_is_deterministic_and_unique() {
        let g = sim_graph();
        let a = generate_script(&g, 7, 60);
        let b = generate_script(&g, 7, 60);
        assert_eq!(a, b, "same seed, same script");
        let distinct: BTreeSet<&String> = a.iter().collect();
        assert_eq!(distinct.len(), a.len(), "lines are textually unique");
        let c = generate_script(&g, 8, 60);
        assert_ne!(a, c, "different seed, different script");
    }

    #[test]
    fn script_mixes_all_line_kinds() {
        let g = sim_graph();
        let script = generate_script(&g, 3, 200);
        assert!(script.iter().any(|l| l.starts_with("delta + ")));
        assert!(script.iter().any(|l| l.starts_with("delta - ")));
        assert!(script.iter().any(|l| l.starts_with("delta ~ ")));
        assert!(script.iter().any(|l| l.contains('@')));
        assert!(script.iter().any(|l| l.starts_with("bogus")));
    }
}
