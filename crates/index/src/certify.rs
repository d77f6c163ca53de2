//! One tier-aware certification round, and the per-snapshot selection
//! trace that lets warm queries skip greedy.
//!
//! Every serving stack runs the same OPIM-C round per query iteration:
//! greedy over `R₁`, the Eq. 2 upper bound from the same pass, and the
//! Eq. 1 lower bound from the seeds' `R₂` coverage — through the plain,
//! sentinel (HIST phase 2) or sketched validation tier the pool carries.
//! [`PoolView`] names the pool and its tier once; [`TierTrace`] is that
//! round recorded for every `k` up to the one it was built at, so the
//! round at any smaller `k` is a handful of table reads.
//!
//! The sequential indexes call [`certify`], which builds the trace at
//! the query's own `k` and reads it there — exactly one greedy pass per
//! round, the reference the concurrent stacks are checked against. The
//! concurrent stacks hold a [`TraceCell`] on each published snapshot and
//! certify through it: the first round on a snapshot builds the trace,
//! later rounds with `k` no larger read it, and a larger `k` rebuilds
//! and installs the longer trace. Answers are bit-identical either way.

use crate::index::SentinelState;
use crate::sync::IndexMetrics;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use subsim_core::sentinel::SentinelSet;
use subsim_core::PoolTrace;
use subsim_diffusion::{InvertedIndex, RrCollection};
use subsim_graph::Graph;
use subsim_sketch::{SketchedPool, SketchedTrace};

/// The validation half of a pool, by tier.
#[derive(Debug)]
pub enum Validation<'a> {
    /// Exact `R₂` shards; `sentinel` is set when the pool is
    /// sentinel-truncated (a non-empty `Z`).
    Exact {
        /// Per-shard `R₂` slices.
        r2s: Vec<&'a RrCollection>,
        /// The active sentinel set, if any.
        sentinel: Option<&'a SentinelSet>,
    },
    /// Per-shard sketched `R₂` pools.
    Sketched(Vec<&'a SketchedPool>),
}

/// A borrowed view of one published pool: what a certification round
/// reads.
#[derive(Debug)]
pub struct PoolView<'a> {
    /// The graph the pool samples (the sentinel tier's tie-break).
    pub graph: &'a Graph,
    /// Per-shard `R₁` slices.
    pub r1s: Vec<&'a RrCollection>,
    /// Cached per-shard inverted indexes over `r1s`, when the stack
    /// keeps them (the plain and sketched tiers use them).
    pub idxs: Option<Vec<&'a InvertedIndex>>,
    /// The validation tier.
    pub validation: Validation<'a>,
    /// Workers for the selection preparation.
    pub threads: usize,
}

impl<'a> PoolView<'a> {
    /// The view of an unsharded pool, applying the tier rules every
    /// stack shares: a sketch wins (the tiers are mutually exclusive),
    /// then a non-empty sentinel set, else the plain pool.
    pub fn single(
        graph: &'a Graph,
        r1: &'a RrCollection,
        r2: &'a RrCollection,
        sentinel: Option<&'a SentinelState>,
        sketch: Option<&'a SketchedPool>,
        threads: usize,
    ) -> Self {
        let validation = match sketch {
            Some(sk) => Validation::Sketched(vec![sk]),
            None => Validation::Exact {
                r2s: vec![r2],
                sentinel: sentinel.map(|st| &st.set).filter(|z| !z.is_empty()),
            },
        };
        PoolView {
            graph,
            r1s: vec![r1],
            idxs: None,
            validation,
            threads,
        }
    }
}

/// What one certification round returns to the query loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// The round's seeds, in pick order.
    pub seeds: Vec<subsim_graph::NodeId>,
    /// Eq. 1 lower bound (sketch slack included on the sketched tier).
    pub lower: f64,
    /// Eq. 2 upper bound.
    pub upper: f64,
    /// The round failed `target` only because of sketch slack — the
    /// error-adaptive ladder trigger (always `false` off the sketched
    /// tier).
    pub slack_failed: bool,
}

/// A certification round recorded for every `k ≤ max_k`, by tier.
#[derive(Debug, Clone, PartialEq)]
pub enum TierTrace {
    /// Plain or sentinel pool, exact validation.
    Exact(PoolTrace),
    /// Sketched validation pool.
    Sketched(SketchedTrace),
}

impl TierTrace {
    /// Runs greedy over `view` at `k` and records the trace.
    pub fn build(view: &PoolView<'_>, k: usize) -> Self {
        let idxs = view.idxs.as_deref();
        match &view.validation {
            Validation::Sketched(sketches) => TierTrace::Sketched(SketchedTrace::build(
                &view.r1s,
                idxs,
                sketches,
                k,
                view.threads,
            )),
            Validation::Exact {
                r2s,
                sentinel: Some(z),
            } => TierTrace::Exact(PoolTrace::build_sentinel(
                &view.r1s,
                r2s,
                z,
                view.graph,
                k,
                view.threads,
            )),
            Validation::Exact {
                r2s,
                sentinel: None,
            } => TierTrace::Exact(PoolTrace::build(&view.r1s, idxs, r2s, k, view.threads)),
        }
    }

    /// The largest `k` this trace answers.
    pub fn max_k(&self) -> usize {
        match self {
            TierTrace::Exact(t) => t.max_k(),
            TierTrace::Sketched(t) => t.max_k(),
        }
    }

    /// The round at `k ≤ max_k` with both bounds at `delta_iter`.
    pub fn read(&self, k: usize, delta_iter: f64, target: f64) -> Round {
        match self {
            TierTrace::Exact(t) => {
                let eval = t.read(k, delta_iter, delta_iter);
                Round {
                    seeds: eval.seeds,
                    lower: eval.lower,
                    upper: eval.upper,
                    slack_failed: false,
                }
            }
            TierTrace::Sketched(t) => {
                let eval = t.read(k, delta_iter, delta_iter);
                Round {
                    slack_failed: eval.failed_on_slack(target),
                    seeds: eval.seeds,
                    lower: eval.lower,
                    upper: eval.upper,
                }
            }
        }
    }
}

/// One uncached certification round at `k`: the sequential indexes'
/// path, and the reference every cached read must equal.
pub fn certify(view: &PoolView<'_>, k: usize, delta_iter: f64, target: f64) -> Round {
    TierTrace::build(view, k).read(k, delta_iter, target)
}

/// The lazily built [`TierTrace`] of one published snapshot.
///
/// Lives on the snapshot itself and starts empty, so a successor
/// snapshot (growth, delta repair, ladder promotion, sentinel refresh)
/// can never serve its predecessor's trace. Not `Clone`: a snapshot
/// rebuilt from another's parts gets a fresh cell. The lock is held
/// only to clone or swap the `Arc`; a reader that misses builds on its
/// own and never waits on another reader's greedy.
#[derive(Default)]
pub struct TraceCell {
    slot: Mutex<Option<Arc<TierTrace>>>,
}

impl std::fmt::Debug for TraceCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCell")
            .field("max_k", &self.cached().map(|t| t.max_k()))
            .finish()
    }
}

impl TraceCell {
    /// The installed trace, if any.
    fn cached(&self) -> Option<Arc<TierTrace>> {
        self.lock().clone()
    }

    /// Certifies one round at `k` on this cell's snapshot: reads the
    /// installed trace when it reaches `k`, otherwise builds one at `k`
    /// from `view()` and installs it unless a longer one landed
    /// meanwhile. Times the round into `metrics.record_selection` and
    /// counts it as a trace hit or build.
    pub fn certify<'a>(
        &self,
        view: impl FnOnce() -> PoolView<'a>,
        k: usize,
        delta_iter: f64,
        target: f64,
        metrics: &IndexMetrics,
    ) -> Round {
        let start = Instant::now();
        let round = match self.cached().filter(|t| t.max_k() >= k) {
            Some(trace) => {
                metrics.selection_trace_hits.fetch_add(1, Ordering::Relaxed);
                trace.read(k, delta_iter, target)
            }
            None => {
                let trace = Arc::new(TierTrace::build(&view(), k));
                let round = trace.read(k, delta_iter, target);
                let mut slot = self.lock();
                if slot.as_ref().is_none_or(|t| t.max_k() < k) {
                    *slot = Some(trace);
                }
                drop(slot);
                metrics
                    .selection_trace_builds
                    .fetch_add(1, Ordering::Relaxed);
                round
            }
        };
        metrics.record_selection(start.elapsed());
        round
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Option<Arc<TierTrace>>> {
        // The slot only ever holds a complete `Arc`, so a panic elsewhere
        // cannot leave it half-written.
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
}
