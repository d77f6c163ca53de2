//! Selection-trace battery: a trace built once at `K` must answer every
//! `k ≤ K` exactly as a fresh certification round at `k` does.
//!
//! - **Pool level** — over random pools, for every `k ≤ K`, reading the
//!   plain, sentinel (`k < b`, `k = b`, `k > b`) and sketched traces
//!   equals `evaluate_pool_sharded`, `evaluate_pool_sentinel_sharded`
//!   and `evaluate_pool_sketched_sharded` at `k`, bit for bit (seeds,
//!   coverages, every `f64`), under IC, WC and LT pools, shards 1/2/3
//!   and prep threads 1/2.
//! - **Stack level** — every concurrent stack answers ascending,
//!   descending and interleaved `k` sequences with the seeds and
//!   `QueryStats` (`elapsed` aside) of the sequential reference, and
//!   counts each round as one trace hit or one trace build.
//! - **Staleness** — a delta that repairs only `R₂` (every `R₁` chunk
//!   survives) must not serve the previous snapshot's trace.
//!
//! The `#[ignore]`d heavy variant (CI `--include-ignored`) widens pools
//! and case counts.

use proptest::prelude::*;
use subsim_core::sentinel::{evaluate_pool_sentinel_sharded, SentinelSet};
use subsim_core::{evaluate_pool_sharded, PoolTrace};
use subsim_delta::{ConcurrentDeltaIndex, DeltaIndex, GraphDelta};
use subsim_diffusion::{InvertedIndex, RrCollection, RrContext, RrSampler, RrStrategy};
use subsim_graph::generators::barabasi_albert;
use subsim_graph::{Graph, NodeId, WeightModel};
use subsim_index::{ConcurrentRrIndex, IndexConfig, MetricsSnapshot, QueryAnswer, RrIndex};
use subsim_sampling::rng_from_seed;
use subsim_serve::ShardedDeltaIndex;
use subsim_sketch::{evaluate_pool_sketched_sharded, SketchedPool, SketchedTrace};

/// Chunk size of every synthetic pool (shards own chunks `c mod N`).
const CHUNK: usize = 16;

/// The three diffusion settings the battery covers.
fn setting(model: usize) -> (WeightModel, RrStrategy) {
    match model {
        0 => (WeightModel::UniformIc { p: 0.1 }, RrStrategy::SubsimIc),
        1 => (WeightModel::Wc, RrStrategy::SubsimIc),
        _ => (WeightModel::Wc, RrStrategy::Lt),
    }
}

/// `plain` untruncated sets followed by `trunc` sets truncated at `z`.
fn pool(
    g: &Graph,
    strategy: RrStrategy,
    z: &[NodeId],
    plain: usize,
    trunc: usize,
    seed: u64,
) -> RrCollection {
    let sampler = RrSampler::new(g, strategy);
    let mut ctx = RrContext::new(g.n());
    let mut rng = rng_from_seed(seed);
    let mut rr = RrCollection::new(g.n());
    rr.generate(&sampler, &mut ctx, &mut rng, plain);
    if trunc > 0 {
        ctx.set_sentinel(z);
        rr.generate(&sampler, &mut ctx, &mut rng, trunc);
    }
    rr
}

/// Splits `rr` by chunk ownership: chunk `c` goes to shard `c mod N`.
fn split(rr: &RrCollection, shards: usize) -> Vec<RrCollection> {
    let mut out: Vec<RrCollection> = (0..shards)
        .map(|_| RrCollection::new(rr.graph_n()))
        .collect();
    for c in 0..rr.len() / CHUNK {
        out[c % shards].extend_from_range(rr, c * CHUNK..(c + 1) * CHUNK);
    }
    out
}

/// One random pool pair checked on every tier: traces built at `max_k`
/// read at each `k ≤ max_k` against fresh rounds at `k`.
#[allow(clippy::too_many_arguments)]
fn check_traces(
    n: usize,
    model: usize,
    seed: u64,
    chunks: usize,
    shards: usize,
    threads: usize,
    b: usize,
    max_k: usize,
) {
    let (weights, strategy) = setting(model);
    let g = barabasi_albert(n, 3, weights, seed);
    let sets = chunks * CHUNK;
    let (dl, du) = (0.013, 0.021);

    // Plain tier, with and without cached indexes.
    let r1 = pool(&g, strategy, &[], sets, 0, seed ^ 1);
    let r2 = pool(&g, strategy, &[], sets, 0, seed ^ 2);
    let (p1, p2) = (split(&r1, shards), split(&r2, shards));
    let r1s: Vec<&RrCollection> = p1.iter().collect();
    let r2s: Vec<&RrCollection> = p2.iter().collect();
    let idxs: Vec<InvertedIndex> = p1.iter().map(InvertedIndex::build).collect();
    let idx_refs: Vec<&InvertedIndex> = idxs.iter().collect();
    let plain = PoolTrace::build(&r1s, None, &r2s, max_k, threads);
    let indexed = PoolTrace::build(&r1s, Some(&idx_refs), &r2s, max_k, threads);
    assert_eq!(plain, indexed, "cached indexes change nothing");
    assert_eq!(plain.max_k(), max_k);
    for k in 1..=max_k {
        let fresh = evaluate_pool_sharded(&r1s, &r2s, k, dl, du, threads);
        assert_eq!(plain.read(k, dl, du), fresh, "plain k={k} of {max_k}");
    }

    // Sentinel tier: k < b, k = b and k > b all read the same trace.
    let warm = pool(&g, strategy, &[], 4 * CHUNK, 0, seed ^ 3);
    let z = SentinelSet::select(&[&warm], &g, b);
    let m1 = pool(&g, strategy, z.nodes(), 2 * CHUNK, sets, seed ^ 4);
    let m2 = pool(&g, strategy, z.nodes(), 2 * CHUNK, sets, seed ^ 5);
    let (q1, q2) = (split(&m1, shards), split(&m2, shards));
    let m1s: Vec<&RrCollection> = q1.iter().collect();
    let m2s: Vec<&RrCollection> = q2.iter().collect();
    let sentinel = PoolTrace::build_sentinel(&m1s, &m2s, &z, &g, max_k, threads);
    for k in 1..=max_k {
        let fresh = evaluate_pool_sentinel_sharded(&m1s, &m2s, &z, &g, k, dl, du, threads);
        assert_eq!(
            sentinel.read(k, dl, du),
            fresh,
            "sentinel k={k} b={} of {max_k}",
            z.len()
        );
    }

    // Sketched tier at two precisions.
    for precision in [6u8, 8] {
        let mut sk = SketchedPool::new(g.n(), CHUNK, precision);
        sk.absorb_batch(0, &r2);
        let parts = sk.split(shards);
        let sks: Vec<&SketchedPool> = parts.iter().collect();
        let trace = SketchedTrace::build(&r1s, Some(&idx_refs), &sks, max_k, threads);
        for k in 1..=max_k {
            let fresh = evaluate_pool_sketched_sharded(&r1s, &sks, k, dl, du, threads);
            assert_eq!(trace.read(k, dl, du), fresh, "sketch p={precision} k={k}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn trace_reads_match_fresh_rounds(
        model in 0usize..3,
        seed in 0u64..1_000,
        chunks in 4usize..24,
        shards in 1usize..4,
        threads in 1usize..3,
        b in 1usize..6,
        max_k in 1usize..16,
    ) {
        check_traces(90, model, seed, chunks, shards, threads, b, max_k);
    }
}

/// Heavy tier: bigger graphs and pools, longer traces.
#[test]
#[ignore = "heavy trace battery; run with --include-ignored"]
fn trace_reads_match_fresh_rounds_heavy() {
    for case in 0..36u64 {
        let model = (case % 3) as usize;
        let shards = 1 + (case / 3 % 3) as usize;
        let threads = 1 + (case / 9 % 2) as usize;
        let b = 1 + (case % 7) as usize;
        check_traces(1500, model, 500 + case, 320, shards, threads, b, 64);
    }
}

/// `QueryStats` without the wall-clock.
fn comparable(ans: &QueryAnswer) -> (Vec<NodeId>, subsim_index::QueryStats) {
    let mut stats = ans.stats.clone();
    stats.elapsed = Default::default();
    (ans.seeds.clone(), stats)
}

/// The three `k` orders every stack is driven through.
fn orders() -> [(&'static str, Vec<usize>); 3] {
    [
        ("ascending", (1..=8).collect()),
        ("descending", (1..=8).rev().collect()),
        ("interleaved", vec![3, 7, 1, 8, 2, 6, 4, 5, 8, 1]),
    ]
}

/// Checks the counters every round must leave behind.
fn check_rounds(m: &MetricsSnapshot, answers: &[QueryAnswer], label: &str) {
    let rounds: u64 = answers.iter().map(|a| a.stats.rounds as u64).sum();
    assert_eq!(
        m.selection_trace_hits + m.selection_trace_builds,
        rounds,
        "{label}: every round is one trace hit or one build"
    );
    assert!(m.selection_trace_builds >= 1, "{label}: nothing built");
}

/// Index configurations per tier, warmed past the sentinel boundary.
fn tier_configs(strategy: RrStrategy) -> [(&'static str, IndexConfig); 3] {
    let base = IndexConfig::new(strategy).seed(9).chunk_size(32).threads(2);
    [
        ("plain", base),
        ("sentinel", base.sentinels(3)),
        ("sketch", base.sketch(6)),
    ]
}

#[test]
fn concurrent_stacks_match_sequential_reference_in_any_k_order() {
    const WARM: usize = 640;
    const EPS: f64 = 0.3;
    const DELTA: f64 = 0.05;
    for strategy in [RrStrategy::SubsimIc, RrStrategy::Lt] {
        let g = barabasi_albert(200, 3, WeightModel::Wc, 23);
        for (tier, cfg) in tier_configs(strategy) {
            for (order, ks) in orders() {
                let label = format!("{strategy:?}/{tier}/{order}");
                // Frozen stack against the sequential frozen index.
                let mut seq = RrIndex::new(&g, cfg);
                seq.warm(WARM).unwrap();
                let conc = ConcurrentRrIndex::new(&g, cfg);
                conc.warm(WARM).unwrap();
                let mut answers = Vec::new();
                for &k in &ks {
                    let a = seq.query(k, EPS, DELTA).unwrap();
                    let b = conc.query(k, EPS, DELTA).unwrap();
                    assert_eq!(comparable(&a), comparable(&b), "{label} frozen k={k}");
                    answers.push(b);
                }
                check_rounds(&conc.metrics(), &answers, &label);
                if order == "descending" {
                    assert!(
                        conc.metrics().selection_trace_hits > 0,
                        "{label}: descending k never hit the trace"
                    );
                }

                // Versioned stacks against the sequential delta index.
                let mut dseq = DeltaIndex::new(g.clone(), cfg).unwrap();
                dseq.warm(WARM).unwrap();
                let dconc = ConcurrentDeltaIndex::new(g.clone(), cfg).unwrap();
                dconc.warm(WARM).unwrap();
                let sharded: Vec<ShardedDeltaIndex> = (1..=3)
                    .map(|n| {
                        let s = ShardedDeltaIndex::new(g.clone(), cfg, n).unwrap();
                        s.warm(WARM).unwrap();
                        s
                    })
                    .collect();
                let mut dans = Vec::new();
                let mut sans: Vec<Vec<QueryAnswer>> = vec![Vec::new(); sharded.len()];
                for &k in &ks {
                    let a = comparable(&dseq.query(k, EPS, DELTA).unwrap());
                    let b = dconc.query(k, EPS, DELTA).unwrap();
                    assert_eq!(a, comparable(&b), "{label} delta k={k}");
                    dans.push(b);
                    for (s, index) in sharded.iter().enumerate() {
                        let c = index.query(k, EPS, DELTA).unwrap();
                        assert_eq!(a, comparable(&c), "{label} shards={} k={k}", s + 1);
                        sans[s].push(c);
                    }
                }
                check_rounds(&dconc.metrics(), &dans, &label);
                for (s, index) in sharded.iter().enumerate() {
                    check_rounds(&index.metrics(), &sans[s], &label);
                }
            }
        }
    }
}

/// Finds a fresh edge whose insertion dirties only `R₂` on `index`'s
/// current snapshot: its head appears in no `R₁` set but in some `R₂`
/// set (reverse sampling only revisits sets containing the head).
fn r2_only_inserts(g: &Graph, index: &ShardedDeltaIndex, want: usize) -> Vec<(NodeId, NodeId)> {
    let snap = index.load();
    let n = g.n();
    let mut in_r1 = vec![false; n];
    let mut in_r2 = vec![false; n];
    for s in 0..snap.shard_count() {
        for set in snap.shard(s).selection_pool().iter() {
            for &v in set {
                in_r1[v as usize] = true;
            }
        }
        for set in snap.shard(s).validation_pool().iter() {
            for &v in set {
                in_r2[v as usize] = true;
            }
        }
    }
    let edges: std::collections::HashSet<(NodeId, NodeId)> =
        g.edges().map(|(u, v, _)| (u, v)).collect();
    (0..n as NodeId)
        .filter(|&v| !in_r1[v as usize] && in_r2[v as usize])
        .filter_map(|v| {
            (0..n as NodeId)
                .find(|&u| u != v && !edges.contains(&(u, v)))
                .map(|u| (u, v))
        })
        .take(want)
        .collect()
}

#[test]
fn r2_only_repair_never_serves_the_previous_trace() {
    let cfg = IndexConfig::new(RrStrategy::SubsimIc)
        .seed(31)
        .chunk_size(32)
        .threads(2);
    let g = barabasi_albert(3000, 2, WeightModel::Wc, 77);
    let (k, eps, delta) = (4usize, 0.45, 0.1);
    let probe = ShardedDeltaIndex::new(g.clone(), cfg, 2).unwrap();
    probe.query(k, eps, delta).unwrap();
    let candidates = r2_only_inserts(&g, &probe, 12);
    assert!(!candidates.is_empty(), "no R₂-only target on this pool");

    let mut saw_changed_bound = false;
    for (u, v) in candidates {
        let mut seq = DeltaIndex::new(g.clone(), cfg).unwrap();
        let sharded = ShardedDeltaIndex::new(g.clone(), cfg, 2).unwrap();
        let before = seq.query(k, eps, delta).unwrap();
        assert_eq!(
            comparable(&before),
            comparable(&sharded.query(k, eps, delta).unwrap())
        );
        let builds = sharded.metrics().selection_trace_builds;
        let old = sharded.load();

        let op = GraphDelta::new().insert_edge(u, v, 0.5);
        let rs = seq.apply_delta(&op).unwrap();
        let rc = sharded.apply_delta(&op).unwrap();
        assert_eq!(rc.dirty_chunks_r1, 0, "edge ({u},{v}) dirtied R₁");
        assert!(rc.dirty_chunks_r2 > 0, "edge ({u},{v}) left R₂ clean");
        assert_eq!(rs.dirty_chunks_r2, rc.dirty_chunks_r2);
        let new = sharded.load();
        for s in 0..new.shard_count() {
            let (a, b) = (old.shard(s).selection_pool(), new.shard(s).selection_pool());
            assert_eq!(a.len(), b.len());
            assert!(
                (0..a.len()).all(|i| a.get(i) == b.get(i)),
                "R₁ shard {s} moved"
            );
        }

        let after = seq.query(k, eps, delta).unwrap();
        let got = sharded.query(k, eps, delta).unwrap();
        assert_eq!(comparable(&after), comparable(&got), "edge ({u},{v})");
        assert!(
            sharded.metrics().selection_trace_builds > builds,
            "the repaired snapshot reused its predecessor's trace"
        );
        saw_changed_bound |= after.stats.lower_bound != before.stats.lower_bound;
    }
    assert!(
        saw_changed_bound,
        "no candidate moved the Eq. 1 bound, so a stale trace would go unnoticed"
    );
}
