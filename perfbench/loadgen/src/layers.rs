//! Traced per-layer replays: the benchmark calls each layer's public
//! functions on the plain chunk stream the server sampled (same seed,
//! same chunk ids) and records a span around every call. On the frozen
//! stack that stream is the served pool; on the versioned-graph stack,
//! whose storage and sentinel truncation give another stream, it stands
//! in for it. Figures the program counts itself are read from its
//! counters instead. Nothing here instruments the program itself.

use crate::client::{DeltaGen, MIX_K};
use crate::util::{median, Tracer};
use std::collections::BTreeMap;
use subsim_core::bounds::{i_max, opim_lower_bound, opim_upper_bound, theta_max_opim, theta_zero};
use subsim_core::coverage::{greedy_max_coverage_indexed, GreedyConfig};
use subsim_core::sentinel::SentinelSet;
use subsim_delta::{GraphDelta, VersionedGraph};
use subsim_diffusion::{InvertedIndex, NodeMarks, RrCollection, RrSampler, RrStrategy, WorkerPool};
use subsim_graph::Graph;
use subsim_index::{R2_STREAM, SENTINEL_WARMUP_CHUNKS};
use subsim_serve::net::frame::{encode_frame, FrameDecoder, FrameItem};
use subsim_sketch::{evaluate_pool_sketched, SketchedPool};

/// Sets per generation chunk: the serving index's default.
pub const CHUNK_SIZE: usize = 256;
/// Sentinel-set size of the delta-phase server: the smallest k of the mix,
/// since a query with k below it certifies conservatively and grows the
/// pool to its θ_max fallback.
pub const SENTINELS: usize = 10;
/// HLL register precision of the cold-influence server.
pub const SKETCH_P: u8 = 8;
/// The server's default per-query failure probability.
const DELTA: f64 = 0.01;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Sizes of the replayed pool (sets and nodes of each half) and the
/// k = 50 seeds greedy picks on it.
pub struct Pool {
    pub r1_sets: usize,
    pub r1_nodes: usize,
    pub r2_sets: usize,
    pub r2_nodes: usize,
    pub k50_seeds: Vec<u32>,
}

/// Replays generation, selection, sketch, versioned-graph and frame
/// codec work on the served pool — `chunks` chunks per half of the
/// plain chunk stream rooted at `seed` over `g` — and records the
/// per-layer timings the program has no counter for. Returns the
/// replayed pool's sizes, or `Err` if a replay breaks a documented
/// invariance.
pub fn replay(
    g: &Graph,
    seed: u64,
    chunks: u64,
    replies: &[String],
    tr: &mut Tracer,
    m: &mut Metrics,
) -> Result<Pool, String> {
    let chunks = chunks.max(1);
    let sampler = RrSampler::new(g, RrStrategy::SubsimIc);
    let one = WorkerPool::new(1);
    let two = WorkerPool::new(2);
    let gen = |pool: &WorkerPool, sampler: &RrSampler<'_>, s: u64| {
        pool.generate_chunks(sampler, None, 0..chunks, CHUNK_SIZE, s)
            .rr
    };

    // diffusion: the served chunk ids at 1 and 2 generation threads.
    let ((r1_one, _), t1) = tr.time("diffusion.generate_1t", || {
        (
            gen(&one, &sampler, seed),
            gen(&one, &sampler, seed ^ R2_STREAM),
        )
    });
    let ((r1, r2), t2) = tr.time("diffusion.generate_2t", || {
        (
            gen(&two, &sampler, seed),
            gen(&two, &sampler, seed ^ R2_STREAM),
        )
    });
    if !same_sets(&r1_one, &r1) {
        return Err("generation at 1 and 2 threads gave different RR sets".into());
    }
    drop(r1_one);
    let sets = (r1.len() + r2.len()) as f64;
    let nodes = (r1.total_nodes() + r2.total_nodes()) as f64;
    m.insert("diffusion.sets_per_s_1t", sets / t1);
    m.insert("diffusion.sets_per_s_2t", sets / t2);
    m.insert("diffusion.scaling_2t", t1 / t2);
    m.insert("diffusion.nodes_per_s", nodes / t2);
    m.insert("diffusion.mean_rr_size", nodes / sets);

    // diffusion on the versioned graph's normalized storage vs the
    // loaded graph, same chunk ids, 2 threads.
    let vg = VersionedGraph::new(g.clone()).map_err(|e| e.to_string())?;
    let vsampler = RrSampler::new(vg.graph(), RrStrategy::SubsimIc);
    let (_, frozen_s) = tr.time("diffusion.generate_frozen", || gen(&two, &sampler, seed));
    let (rv, versioned_s) = tr.time("diffusion.generate_versioned", || {
        gen(&two, &vsampler, seed)
    });
    drop(rv);
    m.insert("diffusion.versioned_vs_frozen", frozen_s / versioned_s);

    // core: inverted index, greedy for each k of the mix, bounds.
    let n = g.n();
    let (idx, t) = tr.time("core.inverted_index", || InvertedIndex::build(&r1));
    m.insert("core.inverted_index_ms", t * 1e3);
    let mut k50 = None;
    for &(k, _) in &MIX_K {
        let cfg = GreedyConfig::standard(k).with_threads(2);
        let (out, t) = tr.time("core.greedy", || {
            greedy_max_coverage_indexed(&[&r1], &[&idx], &cfg)
        });
        m.insert(greedy_metric(k), t * 1e3);
        if k == 50 {
            k50 = Some(out);
        }
    }
    let out = k50.expect("k = 50 is in the mix");
    let (delta_l, target) = certificate_params(n, 50, 0.05);
    let ((lower, upper), t) = tr.time("core.bounds", || {
        let mut marks = NodeMarks::new();
        let cov2 = r2.coverage_of_with(&out.seeds, &mut marks);
        (
            opim_lower_bound(cov2 as f64, r2.len() as u64, n, delta_l),
            opim_upper_bound(out.coverage_upper, r1.len() as u64, n, delta_l),
        )
    });
    m.insert("core.bounds_ms", t * 1e3);
    if !(lower > 0.0 && upper >= lower) {
        return Err(format!("bounds out of order: lower {lower}, upper {upper}"));
    }

    // core: sentinel selection over the plain warmup prefix.
    let prefix = one
        .generate_chunks(&sampler, None, 0..SENTINEL_WARMUP_CHUNKS, CHUNK_SIZE, seed)
        .rr;
    let (_, t) = tr.time("core.sentinel_select", || {
        SentinelSet::select(&[&prefix], g, SENTINELS)
    });
    m.insert("core.sentinel_select_ms", t * 1e3);

    // sketch: the validation half sketched at the server's precision,
    // the sketched certificate, and the ladder it would climb.
    let mut p = SKETCH_P;
    let (mut sk, _) = tr.time("sketch.build", || sketch_of(&r2, n, p));
    let (mut eval, t) = tr.time("sketch.eval", || {
        evaluate_pool_sketched(&r1, &sk, 50, delta_l, delta_l, 2)
    });
    m.insert("sketch.eval_ms", t * 1e3);
    let mut promotions = 0;
    while eval.failed_on_slack(target) && p < subsim_sketch::MAX_PRECISION {
        p += 1;
        promotions += 1;
        sk = sketch_of(&r2, n, p);
        eval = evaluate_pool_sketched(&r1, &sk, 50, delta_l, delta_l, 2);
    }
    m.insert("sketch.promotions", promotions as f64);

    // delta: single-op applies on the versioned graph.
    let mut vg = vg;
    let mut ops = DeltaGen::new(g, seed ^ 0x0a991e);
    let mut apply_ms = Vec::new();
    for _ in 0..32 {
        let line = ops.next_op();
        let d = GraphDelta::parse(line.trim_start_matches("delta ")).map_err(|e| e.to_string())?;
        let (r, t) = tr.time("delta.graph_apply", || vg.apply(&d));
        r.map_err(|e| format!("replaying {line:?}: {e}"))?;
        apply_ms.push(t * 1e3);
    }
    m.insert("delta.graph_apply_ms", median(&apply_ms));

    // net: the frame codec over the replies the server sent.
    let frames: Vec<&str> = replies
        .iter()
        .map(String::as_str)
        .cycle()
        .take(4096)
        .collect();
    let mut wire = Vec::new();
    let (_, t) = tr.time("net.encode", || {
        for f in &frames {
            encode_frame(f, &mut wire);
        }
    });
    m.insert("net.encode_us", t * 1e6 / frames.len() as f64);
    let mut items = Vec::new();
    let (_, t) = tr.time("net.decode", || {
        let mut dec = FrameDecoder::new(1 << 20);
        for piece in wire.chunks(4096) {
            dec.push(piece, &mut items);
        }
    });
    m.insert("net.decode_us", t * 1e6 / frames.len() as f64);
    let decoded_ok = items.len() == frames.len()
        && items
            .iter()
            .zip(&frames)
            .all(|(it, f)| matches!(it, FrameItem::Line(l) if l == f));
    if !decoded_ok {
        return Err("frame codec round trip changed the replies".into());
    }
    Ok(Pool {
        r1_sets: r1.len(),
        r1_nodes: r1.total_nodes(),
        r2_sets: r2.len(),
        r2_nodes: r2.total_nodes(),
        k50_seeds: out.seeds,
    })
}

/// The per-round failure probability and certified-ratio target a
/// `(k, ε)` query uses at the server's default δ.
fn certificate_params(n: usize, k: usize, eps: f64) -> (f64, f64) {
    let theta_max = theta_max_opim(n, k, eps, DELTA);
    let imax = i_max(theta_max, theta_zero(DELTA));
    (DELTA / (3.0 * imax as f64), 1.0 - (-1.0f64).exp() - eps)
}

fn greedy_metric(k: usize) -> &'static str {
    match k {
        10 => "core.greedy_ms_k10",
        50 => "core.greedy_ms_k50",
        100 => "core.greedy_ms_k100",
        _ => "core.greedy_ms_k200",
    }
}

fn sketch_of(rr: &RrCollection, n: usize, p: u8) -> SketchedPool {
    let mut sk = SketchedPool::new(n, CHUNK_SIZE, p);
    sk.absorb_batch(0, rr);
    sk
}

fn same_sets(a: &RrCollection, b: &RrCollection) -> bool {
    a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x == y)
}
