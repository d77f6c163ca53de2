//! OPIM bound evaluation over *external* RR collections.
//!
//! [`crate::algorithms::OpimC`] owns its RR sample and throws it away when
//! it returns. The bound machinery it runs each round, however, is valid
//! for **any** pair of independent collections, whatever generated them
//! (Eqs 1–2 only require that `R₂` is independent of the selected seeds,
//! which holds because selection reads `R₁` alone). This module exposes
//! that round as a standalone function so long-lived pools — notably
//! `subsim-index`'s amortized query engine — can re-certify against the
//! same sample across many `(k, ε)` queries without regenerating it.

use crate::bounds::{opim_lower_bound, opim_upper_bound};
use crate::coverage::{greedy_trace_sharded, GreedyConfig};
use subsim_diffusion::{InvertedIndex, RrCollection};
use subsim_graph::NodeId;

/// Outcome of one OPIM certification round over an external pool pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolEvaluation {
    /// Greedy seeds selected from `R₁`, in pick order.
    pub seeds: Vec<NodeId>,
    /// `Λ_{R₁}(S)`: sets of `R₁` the seeds cover.
    pub coverage_r1: usize,
    /// `Λ_{R₂}(S)`: sets of `R₂` the seeds cover (feeds Eq. 1).
    pub coverage_r2: usize,
    /// Eq. 1 lower bound on `𝕀(S)`, failing with probability `<= δ_l`.
    pub lower: f64,
    /// Eq. 2 upper bound on `𝕀(S^o_k)`, failing with probability `<= δ_u`.
    pub upper: f64,
}

impl PoolEvaluation {
    /// The certified approximation ratio `𝕀⁻(S)/𝕀⁺(S^o_k)`.
    pub fn ratio(&self) -> f64 {
        if self.upper <= 0.0 {
            0.0
        } else {
            self.lower / self.upper
        }
    }
}

/// Runs one OPIM-C certification round over caller-owned collections:
/// greedy max-coverage over `r1` (which also yields the Eq. 2 coverage
/// upper bound), then the Eq. 1 lower bound from the seeds' coverage of
/// `r2`.
///
/// The guarantee follows OPIM-C's: if `ratio() > 1 - 1/e - ε` then the
/// returned seeds are `(1 - 1/e - ε)`-approximate with probability at
/// least `1 - δ_l - δ_u`, **provided** `r2` was generated independently of
/// `r1` (both collections i.i.d. random RR sets over the same graph).
/// Both collections must be non-empty and over the same graph.
pub fn evaluate_pool(
    r1: &RrCollection,
    r2: &RrCollection,
    k: usize,
    delta_l: f64,
    delta_u: f64,
) -> PoolEvaluation {
    evaluate_pool_par(r1, r2, k, delta_l, delta_u, 1)
}

/// [`evaluate_pool`] with the selection *preparation* (inverted-index
/// build and initial counts) sharded across `threads` workers.
///
/// The greedy loop itself stays sequential, so the seeds and both bounds
/// are byte-identical for every `threads` value — parallelism only cuts
/// the wall-clock of the certification round.
pub fn evaluate_pool_par(
    r1: &RrCollection,
    r2: &RrCollection,
    k: usize,
    delta_l: f64,
    delta_u: f64,
    threads: usize,
) -> PoolEvaluation {
    evaluate_pool_sharded(&[r1], &[r2], k, delta_l, delta_u, threads)
}

/// [`evaluate_pool`] over a *sharded* pool pair: `r1s[s]` / `r2s[s]`
/// hold shard `s`'s disjoint slice of each half's union.
///
/// Selection runs the merged greedy over per-shard coverage counts, and
/// both certificates are evaluated on the **union**: the Eq. 2 upper
/// bound uses `Σ_s |R₁^s|` and the Eq. 1 lower bound uses the summed
/// per-shard `R₂` coverages over `Σ_s |R₂^s|`. Because the greedy state
/// is identical to the union's and the bounds see identical counts and
/// lengths, the result is byte-identical to [`evaluate_pool`] on the
/// concatenated halves — the single-pool entry point is literally this
/// function with one shard.
pub fn evaluate_pool_sharded(
    r1s: &[&RrCollection],
    r2s: &[&RrCollection],
    k: usize,
    delta_l: f64,
    delta_u: f64,
    threads: usize,
) -> PoolEvaluation {
    PoolTrace::build(r1s, None, r2s, k, threads).read(k, delta_l, delta_u)
}

pub(crate) fn check_shards(r1s: &[&RrCollection], r2s: &[&RrCollection]) -> usize {
    assert!(
        !r1s.is_empty() && !r2s.is_empty(),
        "need at least one shard"
    );
    let n = r1s[0].graph_n();
    for rr in r1s.iter().chain(r2s) {
        assert_eq!(rr.graph_n(), n, "pool shards are over different graphs");
    }
    assert!(
        r1s.iter().any(|rr| !rr.is_empty()) && r2s.iter().any(|rr| !rr.is_empty()),
        "pool halves must be non-empty"
    );
    n
}

/// The `R₁` side of a certification round for every `k` up to
/// [`SelectionTrace::max_k`] at once: the seeds in pick order, their
/// prefix coverages of `R₁`, and the Eq. 2 coverage bound per `k`.
///
/// Built by one greedy pass at `max_k` (see
/// [`crate::coverage::GreedyTrace`] for why the picks and bounds at any
/// smaller `k` are prefixes of that pass); reading it at `k` gives the
/// `R₁` half of the round a fresh pass at `k` would run, bit for bit.
/// Holds `O(max_k)` words — no index, heap or counts survive the build.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionTrace {
    n: usize,
    r1_len: u64,
    seeds: Vec<NodeId>,
    /// `coverage_r1[j] = Λ_{R₁}(seeds[..j])`.
    coverage_r1: Vec<usize>,
    /// `coverage_upper[k]`: the Eq. 2 coverage bound at `k`.
    coverage_upper: Vec<f64>,
}

impl SelectionTrace {
    /// Runs the standard greedy (Algorithm 1) over `r1s` at `k` and
    /// records its trace. Pass cached per-shard inverted indexes through
    /// `idxs` to skip the build.
    pub fn build(
        r1s: &[&RrCollection],
        idxs: Option<&[&InvertedIndex]>,
        k: usize,
        threads: usize,
    ) -> Self {
        let cfg = GreedyConfig::standard(k).with_threads(threads);
        let out = greedy_trace_sharded(r1s, idxs, &cfg);
        Self::from_parts(r1s, out.seeds, out.prefix_coverage, out.coverage_upper)
    }

    /// Assembles a trace from its tables (`coverage_r1[j]` covers
    /// `seeds[..j]`; `coverage_upper[k]` for every `k ≤ max_k`).
    pub(crate) fn from_parts(
        r1s: &[&RrCollection],
        seeds: Vec<NodeId>,
        coverage_r1: Vec<usize>,
        coverage_upper: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(coverage_r1.len(), seeds.len() + 1);
        SelectionTrace {
            n: r1s[0].graph_n(),
            r1_len: r1s.iter().map(|rr| rr.len() as u64).sum(),
            seeds,
            coverage_r1,
            coverage_upper,
        }
    }

    /// The largest `k` this trace answers.
    pub fn max_k(&self) -> usize {
        self.coverage_upper.len() - 1
    }

    /// The seeds a round at `k` returns.
    pub fn seeds(&self, k: usize) -> &[NodeId] {
        self.check(k);
        &self.seeds[..k.min(self.seeds.len())]
    }

    /// `Λ_{R₁}` of [`SelectionTrace::seeds`] at `k`.
    pub fn coverage_r1(&self, k: usize) -> usize {
        self.check(k);
        self.coverage_r1[k.min(self.seeds.len())]
    }

    /// The Eq. 2 upper bound on `𝕀(S^o_k)` at failure probability
    /// `delta_u`.
    pub fn upper(&self, k: usize, delta_u: f64) -> f64 {
        self.check(k);
        opim_upper_bound(self.coverage_upper[k], self.r1_len, self.n, delta_u)
    }

    /// Node count of the graph the pool samples.
    pub fn graph_n(&self) -> usize {
        self.n
    }

    /// Every seed the trace holds, in pick order.
    pub fn all_seeds(&self) -> &[NodeId] {
        &self.seeds
    }

    fn check(&self, k: usize) {
        assert!(
            k <= self.max_k(),
            "trace built at k = {} cannot answer k = {k}",
            self.max_k()
        );
    }
}

/// A [`SelectionTrace`] plus the exact validation side: the seeds'
/// prefix coverages of `R₂`. Reading it at any `k ≤ max_k` gives the
/// [`PoolEvaluation`] a fresh round at `k` computes, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolTrace {
    selection: SelectionTrace,
    r2_len: u64,
    /// `coverage_r2[j] = Λ_{R₂}(seeds[..j])`.
    coverage_r2: Vec<usize>,
}

impl PoolTrace {
    /// Builds the plain-pool trace at `k` (standard greedy over `r1s`,
    /// exact coverage over `r2s`).
    pub fn build(
        r1s: &[&RrCollection],
        idxs: Option<&[&InvertedIndex]>,
        r2s: &[&RrCollection],
        k: usize,
        threads: usize,
    ) -> Self {
        check_shards(r1s, r2s);
        Self::validate(SelectionTrace::build(r1s, idxs, k, threads), r2s)
    }

    /// Completes `selection` with the exact validation side over `r2s`
    /// — one pass over `R₂`, however long the trace.
    pub fn validate(selection: SelectionTrace, r2s: &[&RrCollection]) -> Self {
        PoolTrace {
            r2_len: r2s.iter().map(|rr| rr.len() as u64).sum(),
            coverage_r2: prefix_coverages(r2s, &selection.seeds, selection.n),
            selection,
        }
    }

    /// The selection side.
    pub fn selection(&self) -> &SelectionTrace {
        &self.selection
    }

    /// The largest `k` this trace answers.
    pub fn max_k(&self) -> usize {
        self.selection.max_k()
    }

    /// The certification round at `k` (`k ≤ max_k`).
    pub fn read(&self, k: usize, delta_l: f64, delta_u: f64) -> PoolEvaluation {
        let sel = &self.selection;
        let seeds = sel.seeds(k);
        let coverage_r2 = self.coverage_r2[seeds.len()];
        PoolEvaluation {
            seeds: seeds.to_vec(),
            coverage_r1: sel.coverage_r1(k),
            coverage_r2,
            lower: opim_lower_bound(coverage_r2 as f64, self.r2_len, sel.n, delta_l),
            upper: sel.upper(k, delta_u),
        }
    }
}

/// `out[j]` = sets of `rrs` that meet `seeds[..j]`, for every `j ≤
/// seeds.len()`, in one pass: each set is charged to its earliest seed.
/// `seeds` must be distinct.
pub(crate) fn prefix_coverages(rrs: &[&RrCollection], seeds: &[NodeId], n: usize) -> Vec<usize> {
    let mut first_hit = vec![0usize; seeds.len() + 1];
    let pos = seed_positions(seeds, n);
    for rr in rrs {
        for set in rr.iter() {
            first_hit[earliest(set, &pos, seeds.len())] += 1;
        }
    }
    // `first_hit[seeds.len()]` counts the sets no seed meets; it falls
    // off the end of the running sum.
    let mut out = Vec::with_capacity(seeds.len() + 1);
    let mut acc = 0usize;
    out.push(0);
    for &c in &first_hit[..seeds.len()] {
        acc += c;
        out.push(acc);
    }
    out
}

/// `pos[v]` = `v`'s index in `seeds`, `seeds.len()` for non-seeds.
pub(crate) fn seed_positions(seeds: &[NodeId], n: usize) -> Vec<u32> {
    let none = seeds.len() as u32;
    let mut pos = vec![none; n];
    for (j, &v) in seeds.iter().enumerate() {
        debug_assert_eq!(pos[v as usize], none, "seed {v} repeats");
        pos[v as usize] = j as u32;
    }
    pos
}

/// The earliest seed position in `set`, `none` when it meets no seed.
pub(crate) fn earliest(set: &[NodeId], pos: &[u32], none: usize) -> usize {
    set.iter()
        .map(|&v| pos[v as usize] as usize)
        .min()
        .unwrap_or(none)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::greedy_max_coverage;
    use subsim_diffusion::{RrContext, RrSampler, RrStrategy};
    use subsim_graph::generators::{barabasi_albert, star_graph};
    use subsim_graph::WeightModel;
    use subsim_sampling::rng_from_seed;

    fn two_pools(g: &subsim_graph::Graph, count: usize, seed: u64) -> (RrCollection, RrCollection) {
        let sampler = RrSampler::new(g, RrStrategy::SubsimIc);
        let mut ctx = RrContext::new(g.n());
        let mut rng = rng_from_seed(seed);
        let mut r1 = RrCollection::new(g.n());
        r1.generate(&sampler, &mut ctx, &mut rng, count);
        let mut r2 = RrCollection::new(g.n());
        r2.generate(&sampler, &mut ctx, &mut rng, count);
        (r1, r2)
    }

    #[test]
    fn matches_manual_bound_computation() {
        let g = barabasi_albert(300, 3, WeightModel::Wc, 71);
        let (r1, r2) = two_pools(&g, 2000, 72);
        let eval = evaluate_pool(&r1, &r2, 5, 0.01, 0.01);
        let direct = greedy_max_coverage(&r1, &GreedyConfig::standard(5));
        assert_eq!(eval.seeds, direct.seeds);
        assert_eq!(eval.coverage_r1, direct.coverage());
        assert_eq!(eval.coverage_r2, r2.coverage_of(&direct.seeds));
        let lb = opim_lower_bound(eval.coverage_r2 as f64, r2.len() as u64, g.n(), 0.01);
        let ub = opim_upper_bound(direct.coverage_upper, r1.len() as u64, g.n(), 0.01);
        assert_eq!(eval.lower, lb);
        assert_eq!(eval.upper, ub);
        assert!(eval.lower <= eval.upper);
    }

    #[test]
    fn large_pool_certifies_star_hub() {
        let g = star_graph(100, WeightModel::UniformIc { p: 0.5 });
        let (r1, r2) = two_pools(&g, 20_000, 73);
        let eval = evaluate_pool(&r1, &r2, 1, 0.005, 0.005);
        assert_eq!(eval.seeds, vec![0]);
        assert!(
            eval.ratio() > 1.0 - (-1.0f64).exp() - 0.1,
            "ratio {} too loose on a 20k-set pool",
            eval.ratio()
        );
    }

    #[test]
    fn parallel_evaluation_is_byte_identical() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 74);
        let (r1, r2) = two_pools(&g, 3000, 75);
        let reference = evaluate_pool(&r1, &r2, 6, 0.01, 0.02);
        for threads in [2, 4, 7] {
            let eval = evaluate_pool_par(&r1, &r2, 6, 0.01, 0.02, threads);
            assert_eq!(eval, reference, "threads={threads}");
        }
    }

    #[test]
    fn sharded_evaluation_matches_union() {
        let g = barabasi_albert(280, 3, WeightModel::Wc, 76);
        let (r1, r2) = two_pools(&g, 2500, 77);
        let reference = evaluate_pool(&r1, &r2, 5, 0.01, 0.02);

        let split = |rr: &RrCollection, shards: usize| -> Vec<RrCollection> {
            let mut out: Vec<RrCollection> = (0..shards)
                .map(|_| RrCollection::new(rr.graph_n()))
                .collect();
            for (i, set) in rr.iter().enumerate() {
                out[i % shards].push(set);
            }
            out
        };
        for shards in [1usize, 2, 4, 5] {
            let p1 = split(&r1, shards);
            let p2 = split(&r2, shards);
            let r1s: Vec<&RrCollection> = p1.iter().collect();
            let r2s: Vec<&RrCollection> = p2.iter().collect();
            let eval = evaluate_pool_sharded(&r1s, &r2s, 5, 0.01, 0.02, 2);
            assert_eq!(eval, reference, "shards={shards}");

            let idxs: Vec<InvertedIndex> = p1.iter().map(InvertedIndex::build).collect();
            let idx_refs: Vec<&InvertedIndex> = idxs.iter().collect();
            let trace = PoolTrace::build(&r1s, Some(&idx_refs), &r2s, 5, 1);
            assert_eq!(
                trace.read(5, 0.01, 0.02),
                reference,
                "indexed shards={shards}"
            );
        }
    }

    #[test]
    fn ratio_handles_degenerate_upper() {
        let eval = PoolEvaluation {
            seeds: vec![],
            coverage_r1: 0,
            coverage_r2: 0,
            lower: 0.0,
            upper: 0.0,
        };
        assert_eq!(eval.ratio(), 0.0);
    }
}
