//! Sentinel-aware pool evaluation for long-lived serving pools.
//!
//! The one-shot [`crate::algorithms::Hist`] already implements the paper's
//! sentinel machinery (Algorithms 5–8) but throws its RR sample away when
//! it returns. This module ports the two pieces the *serving* stack needs
//! to keep amortized pools under sentinel truncation:
//!
//! 1. [`SentinelSet::select`] — pick a small sentinel set `Z` as a hitting
//!    set over an **existing** plain pool prefix (iterative-covering via
//!    the revised greedy, Algorithm 6's out-degree tie-break), instead of
//!    rerunning the full Algorithm 7 doubling schedule from scratch.
//! 2. [`evaluate_pool_sentinel_sharded`] — re-certify the OPIM union bound
//!    (Eqs 1–2) over a *mixed* pool whose early chunks are plain and whose
//!    later chunks were generated with Algorithm 5 truncation, so warm
//!    queries keep the full `(k, ε, δ)` guarantee.
//!
//! # Why the bounds survive truncation
//!
//! A truncated RR set records the traversal up to **and including** the
//! first sentinel hit. For any seed set `S ⊇ Z` the coverage indicator of
//! a truncated set equals the full set's: if the traversal hit `z ∈ Z`,
//! the recorded set contains `z ∈ S` (covered either way); if it never
//! hit, the recorded set *is* the full set. Hence, mirroring HIST phase 2:
//!
//! * **Eq. 1 (lower)** on `R₂` is exact for the returned seeds when
//!   `k ≥ |Z|` (seeds ⊇ Z). For `k < |Z|` the seeds are the prefix
//!   `Z[..k]` and truncated coverage only *undercounts* (a set stopped at
//!   `z ∉ Z[..k]` may hide a later member), so the bound is conservative —
//!   still sound, possibly loose.
//! * **Eq. 2 (upper)** uses the submodular chain
//!   `Λ(Z) + Σ top-k marginals ≥ Λ(Z ∪ S°_k) = Λ_full(Z ∪ S°_k) ≥
//!   Λ_full(S°_k)` — the middle equality is the superset property above,
//!   so the bound dominates the optimum's *full-set* coverage and the
//!   OPIM concentration argument applies unchanged, for **any** `k`.
//!
//! The result is certified *statistically*: a sentinel pool is not
//! bit-identical to a plain pool, but every answer it returns carries the
//! same `(1 - 1/e - ε, δ)` certificate, checked per query.

use crate::coverage::{greedy_max_coverage_sharded, greedy_trace_sharded, GreedyConfig};
use crate::pool::{
    check_shards, earliest, seed_positions, PoolEvaluation, PoolTrace, SelectionTrace,
};
use subsim_diffusion::RrCollection;
use subsim_graph::{Graph, NodeId};

/// A sentinel set pinned to one graph version.
///
/// Selected once per version over the plain warmup prefix of the pool;
/// every later top-up chunk runs Algorithm 5 truncation against it. The
/// serving layers persist it in snapshots and drop it (re-selecting) when
/// a graph delta touches any of its nodes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SentinelSet {
    nodes: Vec<NodeId>,
}

impl SentinelSet {
    /// Wraps an explicit node list (snapshot load path). Duplicates are
    /// removed; order is preserved (greedy pick order matters for the
    /// `k < |Z|` prefix answer).
    pub fn from_nodes(nodes: Vec<NodeId>) -> Self {
        let mut seen = std::collections::HashSet::new();
        let nodes = nodes.into_iter().filter(|&v| seen.insert(v)).collect();
        SentinelSet { nodes }
    }

    /// Selects up to `b` sentinels as a hitting set over `prefix` — the
    /// plain (untruncated) warmup chunks of the current pool — using the
    /// revised greedy (coverage ties break towards large out-degree, so
    /// sentinels are nodes RR traversals are likely to hit).
    ///
    /// This is the iterative-covering shortcut: the pool prefix is an
    /// i.i.d. RR sample that already exists, so no fresh Algorithm 7
    /// doubling run is needed. Deterministic given `(prefix, g, b)`.
    pub fn select(prefix: &[&RrCollection], g: &Graph, b: usize) -> Self {
        if b == 0 || prefix.iter().all(|rr| rr.is_empty()) {
            return SentinelSet::default();
        }
        let out = greedy_max_coverage_sharded(prefix, &GreedyConfig::revised(b.min(g.n()), g));
        SentinelSet { nodes: out.seeds }
    }

    /// The sentinel nodes in greedy pick order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of sentinels.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no sentinel is installed (plain-pool behaviour).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `v` is a sentinel — the staleness test delta repair runs
    /// on every touched endpoint.
    pub fn contains(&self, v: NodeId) -> bool {
        self.nodes.contains(&v)
    }
}

/// [`evaluate_pool_sentinel_sharded`] over unsharded halves.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_pool_sentinel(
    r1: &RrCollection,
    r2: &RrCollection,
    sentinel: &SentinelSet,
    g: &Graph,
    k: usize,
    delta_l: f64,
    delta_u: f64,
    threads: usize,
) -> PoolEvaluation {
    evaluate_pool_sentinel_sharded(&[r1], &[r2], sentinel, g, k, delta_l, delta_u, threads)
}

/// One OPIM certification round over a sentinel-truncated pool pair,
/// mirroring HIST phase 2 (Algorithm 8) on caller-owned collections.
///
/// `r1s`/`r2s` may freely mix plain and truncated sets (the serving pools
/// keep a plain warmup prefix). Sets already covered by the sentinel are
/// filtered out and counted as base coverage; the remaining `k - |Z|`
/// seeds come from the revised greedy excluding `Z`, and both bounds are
/// evaluated on the full (unfiltered) half lengths. For `k < |Z|` the
/// seeds are the prefix `Z[..k]` with a conservative Eq. 1 (see the
/// module docs for the soundness argument). An empty sentinel falls back
/// to the plain [`crate::pool::evaluate_pool_sharded`] round.
///
/// The guarantee matches [`crate::pool::evaluate_pool`]'s: if `ratio() >
/// 1 - 1/e - ε` the seeds are `(1 - 1/e - ε)`-approximate with
/// probability at least `1 - δ_l - δ_u`, provided both halves are
/// independent i.i.d. samples under the *same* sentinel set.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_pool_sentinel_sharded(
    r1s: &[&RrCollection],
    r2s: &[&RrCollection],
    sentinel: &SentinelSet,
    g: &Graph,
    k: usize,
    delta_l: f64,
    delta_u: f64,
    threads: usize,
) -> PoolEvaluation {
    if sentinel.is_empty() {
        return crate::pool::evaluate_pool_sharded(r1s, r2s, k, delta_l, delta_u, threads);
    }
    PoolTrace::build_sentinel(r1s, r2s, sentinel, g, k, threads).read(k, delta_l, delta_u)
}

impl SelectionTrace {
    /// The sentinel-pool trace at `k` (HIST phase 2, Algorithm 8): the
    /// seeds are `Z` in pick order followed by the revised greedy's
    /// extension picks, so a read at `k < |Z|` gives the prefix `Z[..k]`
    /// and a read at `k ≥ |Z|` gives `Z` plus `k - |Z|` picks — exactly
    /// what [`evaluate_pool_sentinel_sharded`] returns at that `k`.
    /// `sentinel` must be non-empty.
    pub fn build_sentinel(
        r1s: &[&RrCollection],
        sentinel: &SentinelSet,
        g: &Graph,
        k: usize,
        threads: usize,
    ) -> Self {
        let z = sentinel.nodes();
        let b = z.len();
        assert!(b > 0, "the sentinel trace needs a sentinel");
        let n = r1s[0].graph_n();

        // Line 5 of Algorithm 8: sets the sentinel covers carry zero
        // marginal coverage for the extension picks; count them as base
        // coverage. On a truncated pool most sets are covered, so the
        // filtered greedy runs over a small residue — the selection-time
        // half of HIST's speedup. Charging each covered set to its
        // earliest sentinel also yields `Λ_{R₁}(Z[..j])` for every `j`.
        let pos = seed_positions(z, n);
        let mut first_hit = vec![0usize; b + 1];
        let filtered: Vec<RrCollection> = r1s
            .iter()
            .map(|rr| {
                let mut kept = RrCollection::new(n);
                for set in rr.iter() {
                    let j = earliest(set, &pos, b);
                    if j == b {
                        kept.push(set);
                    } else {
                        first_hit[j] += 1;
                    }
                }
                kept
            })
            .collect();
        let mut coverage_r1 = Vec::with_capacity(k.max(b) + 1);
        coverage_r1.push(0);
        for &c in &first_hit[..b.min(k)] {
            coverage_r1.push(coverage_r1.last().unwrap() + c);
        }
        let base: usize = first_hit[..b].iter().sum();

        let refs: Vec<&RrCollection> = filtered.iter().collect();
        let cfg = GreedyConfig {
            select: k.saturating_sub(b),
            bound_terms: k,
            tie_break: Some(g),
            base_covered: base,
            exclude: z,
            threads,
        };
        let out = greedy_trace_sharded(&refs, None, &cfg);
        let mut seeds: Vec<NodeId> = z[..b.min(k)].to_vec();
        seeds.extend_from_slice(&out.seeds);
        // `prefix_coverage[0]` is `Λ(Z) = base`, already the last entry
        // when `k ≥ b`.
        coverage_r1.extend_from_slice(&out.prefix_coverage[1..]);
        SelectionTrace::from_parts(r1s, seeds, coverage_r1, out.coverage_upper)
    }
}

impl PoolTrace {
    /// The sentinel-pool trace at `k`: [`SelectionTrace::build_sentinel`]
    /// validated by exact prefix coverages over `r2s`. Reads match
    /// [`evaluate_pool_sentinel_sharded`] bit for bit.
    pub fn build_sentinel(
        r1s: &[&RrCollection],
        r2s: &[&RrCollection],
        sentinel: &SentinelSet,
        g: &Graph,
        k: usize,
        threads: usize,
    ) -> Self {
        check_shards(r1s, r2s);
        let selection = SelectionTrace::build_sentinel(r1s, sentinel, g, k, threads);
        PoolTrace::validate(selection, r2s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::evaluate_pool;
    use subsim_diffusion::{RrContext, RrSampler, RrStrategy};
    use subsim_graph::generators::{barabasi_albert, star_graph};
    use subsim_graph::WeightModel;
    use subsim_sampling::rng_from_seed;

    /// A mixed pool: `plain` untruncated sets followed by `trunc` sets
    /// generated under Algorithm 5 truncation against `z`.
    fn mixed_pool(
        g: &subsim_graph::Graph,
        z: &[NodeId],
        plain: usize,
        trunc: usize,
        seed: u64,
    ) -> RrCollection {
        let sampler = RrSampler::new(g, RrStrategy::SubsimIc);
        let mut ctx = RrContext::new(g.n());
        let mut rng = rng_from_seed(seed);
        let mut rr = RrCollection::new(g.n());
        rr.generate(&sampler, &mut ctx, &mut rng, plain);
        ctx.set_sentinel(z);
        rr.generate(&sampler, &mut ctx, &mut rng, trunc);
        rr
    }

    fn plain_pool(g: &subsim_graph::Graph, count: usize, seed: u64) -> RrCollection {
        mixed_pool(g, &[], count, 0, seed)
    }

    #[test]
    fn selection_is_deterministic_and_bounded() {
        let g = barabasi_albert(300, 3, WeightModel::Wc, 11);
        let prefix = plain_pool(&g, 2000, 12);
        let a = SentinelSet::select(&[&prefix], &g, 4);
        let b = SentinelSet::select(&[&prefix], &g, 4);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        for &v in a.nodes() {
            assert!(a.contains(v));
        }
    }

    #[test]
    fn selection_prefers_hubs() {
        // The star hub is in every RR set rooted at a leaf; it must be
        // the first sentinel.
        let g = star_graph(80, WeightModel::UniformIc { p: 0.5 });
        let prefix = plain_pool(&g, 1000, 13);
        let z = SentinelSet::select(&[&prefix], &g, 2);
        assert_eq!(z.nodes()[0], 0);
    }

    #[test]
    fn empty_prefix_or_zero_b_selects_nothing() {
        let g = star_graph(10, WeightModel::Wc);
        let empty = RrCollection::new(g.n());
        assert!(SentinelSet::select(&[&empty], &g, 3).is_empty());
        let prefix = plain_pool(&g, 50, 14);
        assert!(SentinelSet::select(&[&prefix], &g, 0).is_empty());
    }

    #[test]
    fn from_nodes_dedups_preserving_order() {
        let z = SentinelSet::from_nodes(vec![5, 3, 5, 7, 3]);
        assert_eq!(z.nodes(), &[5, 3, 7]);
    }

    #[test]
    fn empty_sentinel_matches_plain_evaluation() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 15);
        let r1 = plain_pool(&g, 1500, 16);
        let r2 = plain_pool(&g, 1500, 17);
        let plain = evaluate_pool(&r1, &r2, 5, 0.01, 0.01);
        let viaz = evaluate_pool_sentinel(&r1, &r2, &SentinelSet::default(), &g, 5, 0.01, 0.01, 1);
        assert_eq!(plain, viaz);
    }

    #[test]
    fn sentinel_evaluation_certifies_star_hub() {
        let g = star_graph(100, WeightModel::UniformIc { p: 0.5 });
        let warm = plain_pool(&g, 2000, 18);
        let z = SentinelSet::select(&[&warm], &g, 1);
        let r1 = mixed_pool(&g, z.nodes(), 2000, 18_000, 18);
        let r2 = mixed_pool(&g, z.nodes(), 2000, 18_000, 19);
        let eval = evaluate_pool_sentinel(&r1, &r2, &z, &g, 1, 0.005, 0.005, 1);
        assert_eq!(eval.seeds, vec![0]);
        assert!(
            eval.ratio() > 1.0 - (-1.0f64).exp() - 0.1,
            "ratio {} too loose",
            eval.ratio()
        );
        assert!(eval.lower <= eval.upper);
    }

    #[test]
    fn seeds_include_sentinel_prefix_for_all_k() {
        let g = barabasi_albert(400, 4, WeightModel::WcVariant { theta: 3.0 }, 20);
        let warm = plain_pool(&g, 2000, 21);
        let z = SentinelSet::select(&[&warm], &g, 3);
        let r1 = mixed_pool(&g, z.nodes(), 2000, 6000, 21);
        let r2 = mixed_pool(&g, z.nodes(), 2000, 6000, 22);
        for k in [1usize, 2, 3, 5, 8] {
            let eval = evaluate_pool_sentinel(&r1, &r2, &z, &g, k, 0.01, 0.01, 1);
            assert_eq!(eval.seeds.len(), k, "k={k}");
            let prefix = z.nodes()[..z.len().min(k)].to_vec();
            assert_eq!(&eval.seeds[..prefix.len()], &prefix[..], "k={k}");
            let mut s = eval.seeds.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), k, "k={k}: duplicate seeds");
            assert!(eval.lower <= eval.upper, "k={k}");
        }
    }

    #[test]
    fn sharded_sentinel_evaluation_matches_union() {
        let g = barabasi_albert(300, 3, WeightModel::WcVariant { theta: 3.0 }, 23);
        let warm = plain_pool(&g, 1500, 24);
        let z = SentinelSet::select(&[&warm], &g, 2);
        let r1 = mixed_pool(&g, z.nodes(), 1500, 4500, 24);
        let r2 = mixed_pool(&g, z.nodes(), 1500, 4500, 25);
        let reference = evaluate_pool_sentinel(&r1, &r2, &z, &g, 5, 0.01, 0.02, 1);

        let split = |rr: &RrCollection, shards: usize| -> Vec<RrCollection> {
            let mut out: Vec<RrCollection> = (0..shards)
                .map(|_| RrCollection::new(rr.graph_n()))
                .collect();
            for (i, set) in rr.iter().enumerate() {
                out[i % shards].push(set);
            }
            out
        };
        for shards in [2usize, 3, 5] {
            let p1 = split(&r1, shards);
            let p2 = split(&r2, shards);
            let r1s: Vec<&RrCollection> = p1.iter().collect();
            let r2s: Vec<&RrCollection> = p2.iter().collect();
            for threads in [1usize, 4] {
                let eval =
                    evaluate_pool_sentinel_sharded(&r1s, &r2s, &z, &g, 5, 0.01, 0.02, threads);
                assert_eq!(eval, reference, "shards={shards} threads={threads}");
            }
        }
    }

    #[test]
    fn truncated_pool_certificate_matches_plain_quality() {
        // The headline contract: on the same graph, a sentinel pool's
        // certified ratio stays in the same band as a plain pool's of
        // equal size, while its sets are much smaller.
        let g = barabasi_albert(600, 5, WeightModel::WcVariant { theta: 6.0 }, 26);
        let k = 8;
        let warm = plain_pool(&g, 2000, 27);
        let z = SentinelSet::select(&[&warm], &g, 4);

        let plain1 = plain_pool(&g, 10_000, 27);
        let plain2 = plain_pool(&g, 10_000, 28);
        let plain_eval = evaluate_pool(&plain1, &plain2, k, 0.01, 0.01);

        let mix1 = mixed_pool(&g, z.nodes(), 2000, 8000, 27);
        let mix2 = mixed_pool(&g, z.nodes(), 2000, 8000, 28);
        let z_eval = evaluate_pool_sentinel(&mix1, &mix2, &z, &g, k, 0.01, 0.01, 1);

        assert!(
            mix1.avg_size() < plain1.avg_size(),
            "truncation must shrink RR sets: {} vs {}",
            mix1.avg_size(),
            plain1.avg_size()
        );
        assert!(
            z_eval.ratio() > 0.8 * plain_eval.ratio(),
            "sentinel ratio {} collapsed vs plain {}",
            z_eval.ratio(),
            plain_eval.ratio()
        );
    }
}
