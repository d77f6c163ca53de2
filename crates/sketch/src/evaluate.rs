//! Slack-adjusted OPIM-C certification over a sketched validation pool.
//!
//! Selection is unchanged — greedy max-coverage over the exact `R₁`
//! arena, with the Eq. 2 upper bound from the same pass — so the seed
//! set at a given pool size is bit-identical to the exact path's. Only
//! the Eq. 1 side changes: the seeds' `R₂` coverage `Λ_{R₂}(S)` is the
//! union cardinality of per-node sketches instead of an exact count.
//!
//! The epsilon split: Eq. 1 already absorbs *sampling* error through
//! `δ_l`. Sketch *estimation* error is handled by deflating the union
//! estimate multiplicatively by [`SLACK_SIGMAS`] relative standard
//! errors (`σ = 1.04/√m`) before it enters Eq. 1. The HLL estimator is
//! asymptotically unbiased with approximately Gaussian relative error,
//! so the deflated value undershoots the true coverage except with
//! probability `≈ Φ(-SLACK_SIGMAS) < 2.3%` — conservative in the
//! direction that matters: a certificate that passes on the deflated
//! estimate would also have passed on the exact count, so the
//! `(1 - 1/e - ε)` guarantee carries over with the sketch failure
//! probability folded into the `δ` budget alongside `δ_l`.
//!
//! [`SketchedEvaluation::failed_on_slack`] is the error-adaptive ladder
//! trigger: the certificate failed *because of* the deflation (the
//! undeflated estimate would have passed), so growing the pool is waste
//! — promote register precision instead.

use subsim_core::bounds::opim_lower_bound;
use subsim_core::SelectionTrace;
use subsim_diffusion::{InvertedIndex, RrCollection};
use subsim_graph::NodeId;

use crate::hll;
use crate::pool::SketchedPool;

/// How many relative standard errors the union estimate is deflated by
/// before entering Eq. 1. Two sigmas keeps the one-sided sketch failure
/// probability under 2.3% per certification round.
pub const SLACK_SIGMAS: f64 = 2.0;

/// Outcome of one sketched OPIM certification round.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchedEvaluation {
    /// Greedy seeds selected from the exact `R₁`, in pick order.
    pub seeds: Vec<NodeId>,
    /// `Λ_{R₁}(S)`: sets of `R₁` the seeds cover.
    pub coverage_r1: usize,
    /// Sketched `Λ_{R₂}(S)`: union cardinality estimate, clamped to
    /// `|R₂|`.
    pub estimate_r2: f64,
    /// The estimate after the `SLACK_SIGMAS · σ` deflation — what Eq. 1
    /// actually sees.
    pub deflated_r2: f64,
    /// Eq. 1 lower bound from the deflated estimate.
    pub lower: f64,
    /// Eq. 1 lower bound from the undeflated estimate (ladder
    /// diagnostic — *not* part of the certificate).
    pub lower_undeflated: f64,
    /// Eq. 2 upper bound on `𝕀(S^o_k)` from the exact `R₁` pass.
    pub upper: f64,
    /// Relative standard error `σ` of the sketch at its precision.
    pub rel_err: f64,
}

impl SketchedEvaluation {
    /// The certified approximation ratio `𝕀⁻(S)/𝕀⁺(S^o_k)`, sketch
    /// slack included.
    pub fn ratio(&self) -> f64 {
        if self.upper <= 0.0 {
            0.0
        } else {
            self.lower / self.upper
        }
    }

    /// The ratio the exact estimate would have certified (diagnostic).
    pub fn ratio_undeflated(&self) -> f64 {
        if self.upper <= 0.0 {
            0.0
        } else {
            self.lower_undeflated / self.upper
        }
    }

    /// True when the round failed `target` *only because of* the sketch
    /// slack: the undeflated estimate clears the target but the deflated
    /// one does not. More samples cannot fix this — higher precision can.
    pub fn failed_on_slack(&self, target: f64) -> bool {
        self.ratio() <= target && self.ratio_undeflated() > target
    }
}

/// One sketched certification round over a single exact `R₁` collection
/// and a sketched `R₂` pool.
pub fn evaluate_pool_sketched(
    r1: &RrCollection,
    sketch: &SketchedPool,
    k: usize,
    delta_l: f64,
    delta_u: f64,
    threads: usize,
) -> SketchedEvaluation {
    evaluate_pool_sketched_sharded(&[r1], &[sketch], k, delta_l, delta_u, threads)
}

/// Sharded variant: `r1s[s]` / `sketches[s]` hold shard `s`'s disjoint
/// slice of each half.
///
/// Selection state is identical to the union's (merged greedy), and the
/// sketch union folds every shard's registers into one scratch array
/// before a single estimate is taken — register-wise max is
/// order-independent, so seeds, bounds, and the estimate are
/// byte-identical for any shard count.
pub fn evaluate_pool_sketched_sharded(
    r1s: &[&RrCollection],
    sketches: &[&SketchedPool],
    k: usize,
    delta_l: f64,
    delta_u: f64,
    threads: usize,
) -> SketchedEvaluation {
    SketchedTrace::build(r1s, None, sketches, k, threads).read(k, delta_l, delta_u)
}

/// A [`SelectionTrace`] plus the sketched validation side: the union
/// estimate of every seed prefix. Register max is order-independent, so
/// the registers after merging `seeds[..j]` one seed at a time equal
/// those of one merge over the prefix, and reading the trace at any
/// `k ≤ max_k` gives the [`SketchedEvaluation`] a fresh round at `k`
/// computes, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchedTrace {
    selection: SelectionTrace,
    r2_len: u64,
    rel_err: f64,
    /// `estimate_r2[j]`: union estimate of `seeds[..j]`, clamped to
    /// `|R₂|`.
    estimate_r2: Vec<f64>,
}

impl SketchedTrace {
    /// Builds the trace at `k`: standard greedy over the exact `r1s`
    /// (with cached per-shard indexes when given), then one register
    /// fold per seed across every shard's sketch.
    pub fn build(
        r1s: &[&RrCollection],
        idxs: Option<&[&InvertedIndex]>,
        sketches: &[&SketchedPool],
        k: usize,
        threads: usize,
    ) -> Self {
        assert!(
            !r1s.is_empty() && !sketches.is_empty(),
            "need at least one shard"
        );
        let n = r1s[0].graph_n();
        for rr in r1s {
            assert_eq!(rr.graph_n(), n, "pool shards are over different graphs");
        }
        let precision = sketches[0].precision();
        let mut r2_len = 0u64;
        for s in sketches {
            assert_eq!(s.graph_n(), n, "sketch shards are over different graphs");
            assert_eq!(s.precision(), precision, "sketch shards at mixed precision");
            r2_len += s.len_sets() as u64;
        }
        let r1_len: u64 = r1s.iter().map(|rr| rr.len() as u64).sum();
        assert!(r1_len > 0 && r2_len > 0, "pool halves must be non-empty");

        let selection = SelectionTrace::build(r1s, idxs, k, threads);
        let seeds = selection.all_seeds();
        let mut regs = vec![0u8; hll::num_registers(precision)];
        let mut estimate_r2 = Vec::with_capacity(seeds.len() + 1);
        estimate_r2.push(hll::estimate(&regs).min(r2_len as f64));
        for v in seeds {
            for s in sketches {
                s.merge_union_into(std::slice::from_ref(v), &mut regs);
            }
            estimate_r2.push(hll::estimate(&regs).min(r2_len as f64));
        }
        SketchedTrace {
            selection,
            r2_len,
            rel_err: hll::rel_std_error(precision),
            estimate_r2,
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

    /// The sketched certification round at `k` (`k ≤ max_k`).
    pub fn read(&self, k: usize, delta_l: f64, delta_u: f64) -> SketchedEvaluation {
        let sel = &self.selection;
        let seeds = sel.seeds(k);
        let n = sel.graph_n();
        let estimate_r2 = self.estimate_r2[seeds.len()];
        let deflated_r2 = (estimate_r2 * (1.0 - SLACK_SIGMAS * self.rel_err)).max(0.0);
        SketchedEvaluation {
            seeds: seeds.to_vec(),
            coverage_r1: sel.coverage_r1(k),
            estimate_r2,
            deflated_r2,
            lower: opim_lower_bound(deflated_r2, self.r2_len, n, delta_l),
            lower_undeflated: opim_lower_bound(estimate_r2, self.r2_len, n, delta_l),
            upper: sel.upper(k, delta_u),
            rel_err: self.rel_err,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_core::evaluate_pool_par;

    /// Builds a deterministic synthetic pool pair: `sets` pseudo-random
    /// RR sets over `n` nodes, identical content for both halves' shape.
    fn synth(n: usize, sets: usize, seed: u64) -> RrCollection {
        let mut rr = RrCollection::new(n);
        let mut s = Vec::new();
        for i in 0..sets {
            s.clear();
            let mut x = hll::splitmix64_mix(seed ^ i as u64);
            let len = 1 + (x % 5) as usize;
            for _ in 0..len {
                x = hll::splitmix64_mix(x);
                let v = (x % n as u64) as NodeId;
                if !s.contains(&v) {
                    s.push(v);
                }
            }
            rr.push(&s);
        }
        rr
    }

    #[test]
    fn seeds_and_upper_match_exact_path() {
        let n = 256;
        let chunk = 32;
        let r1 = synth(n, 8 * chunk, 1);
        let r2 = synth(n, 8 * chunk, 2);
        let mut sk = SketchedPool::new(n, chunk, 8);
        sk.absorb_batch(0, &r2);
        let exact = evaluate_pool_par(&r1, &r2, 4, 0.05, 0.05, 1);
        let sketched = evaluate_pool_sketched(&r1, &sk, 4, 0.05, 0.05, 1);
        assert_eq!(sketched.seeds, exact.seeds);
        assert_eq!(sketched.coverage_r1, exact.coverage_r1);
        assert_eq!(sketched.upper, exact.upper);
        // Sketched Eq. 1 is conservative: never above the exact bound by
        // more than the sketch's own error allows, and the deflated
        // variant sits below the undeflated one.
        assert!(sketched.lower <= sketched.lower_undeflated);
        let rel = (sketched.estimate_r2 - exact.coverage_r2 as f64).abs()
            / exact.coverage_r2.max(1) as f64;
        assert!(rel < 4.0 * sketched.rel_err, "rel={rel}");
    }

    #[test]
    fn sharded_evaluation_is_byte_identical_to_sequential() {
        let n = 256;
        let chunk = 16;
        let chunks = 12usize;
        let r1 = synth(n, chunks * chunk, 3);
        let r2 = synth(n, chunks * chunk, 4);
        let mut sk = SketchedPool::new(n, chunk, 7);
        sk.absorb_batch(0, &r2);
        let seq = evaluate_pool_sketched(&r1, &sk, 3, 0.04, 0.04, 1);
        for shards in [2usize, 3, 5] {
            // Shard r1 by chunk ownership (c mod N) and the sketch by the
            // same rule.
            let mut r1_parts: Vec<RrCollection> =
                (0..shards).map(|_| RrCollection::new(n)).collect();
            for c in 0..chunks {
                r1_parts[c % shards].extend_from_range(&r1, c * chunk..(c + 1) * chunk);
            }
            let sk_parts = sk.split(shards);
            let r1_refs: Vec<&RrCollection> = r1_parts.iter().collect();
            let sk_refs: Vec<&SketchedPool> = sk_parts.iter().collect();
            let got = evaluate_pool_sketched_sharded(&r1_refs, &sk_refs, 3, 0.04, 0.04, 1);
            assert_eq!(got, seq, "shards={shards}");
        }
    }

    #[test]
    fn failed_on_slack_identifies_the_deflation_band() {
        let eval = SketchedEvaluation {
            seeds: vec![1],
            coverage_r1: 10,
            estimate_r2: 100.0,
            deflated_r2: 87.0,
            lower: 50.0,
            lower_undeflated: 60.0,
            upper: 100.0,
            rel_err: 0.065,
        };
        // target between deflated (0.5) and undeflated (0.6) ratios.
        assert!(eval.failed_on_slack(0.55));
        assert!(!eval.failed_on_slack(0.45)); // passes outright
        assert!(!eval.failed_on_slack(0.65)); // fails on samples, not slack
    }
}
