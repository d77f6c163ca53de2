//! Concurrent serving on top of [`RrIndex`]'s deterministic pool.
//!
//! [`ConcurrentRrIndex`] splits the index into an immutable, atomically
//! swappable [`PoolSnapshot`] (the two RR halves plus the chunk cursor,
//! held behind `Arc`) and a mutex-guarded writer that performs
//! chunk-deterministic top-ups off to the side. Query threads briefly take
//! a read lock only to clone the `Arc`, then certify entirely on their
//! private snapshot — reading its selection trace, or running greedy +
//! bounds to build it (DESIGN.md §12) — with no lock held during greedy,
//! and a snapshot can never be observed mid-growth (no torn reads by
//! construction).
//!
//! Determinism is inherited, not re-proven: growth continues the same
//! chunk stream as the sequential index (`chunk c` is always generated
//! from `chunk_seed(seed, c)`), so pool *content at any size* is a pure
//! function of `(seed, strategy, chunk_size, size)` regardless of how many
//! threads raced, which queries triggered growth, or how top-ups were
//! sliced. Concurrent interleavings may change how far the pool has grown
//! at a given moment — never what any prefix of it contains.
//!
//! Observability lives in [`IndexMetrics`]: relaxed atomic counters and a
//! log₂ latency histogram updated by query and writer threads without
//! locks, snapshottable as JSON for `--stats-out`.

mod metrics;

pub use metrics::{
    quantile_ns, IndexMetrics, LatencyHistogram, MetricsSnapshot, TenantCounters, TenantMetrics,
};

use crate::certify::{PoolView, TraceCell};
use crate::error::IndexError;
use crate::index::{
    IndexConfig, QueryAnswer, RrIndex, SentinelState, R2_STREAM, SENTINEL_WARMUP_CHUNKS,
};
use crate::stats::QueryStats;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;
use subsim_core::bounds::{i_max, theta_max_opim, theta_zero};
use subsim_core::sentinel::SentinelSet;
use subsim_core::ImOptions;
use subsim_diffusion::pool::WorkerPool;
use subsim_diffusion::{RrCollection, RrSampler};
use subsim_graph::Graph;
use subsim_sketch::{SketchedPool, MAX_PRECISION};

/// One immutable published state of the pool: both halves plus the RNG
/// cursor that produced them. Readers hold an `Arc` to it and never see
/// it change; the writer only ever publishes complete replacements.
#[derive(Debug)]
pub struct PoolSnapshot {
    r1: RrCollection,
    r2: RrCollection,
    chunks: u64,
    /// Sentinel tier state at publish time; immutable like the halves.
    sentinel: Option<SentinelState>,
    /// Sketched validation pool at publish time (`r2` is empty when
    /// present); immutable like the halves.
    sketch: Option<SketchedPool>,
    /// This snapshot's selection trace, built by its first
    /// certification round (never carried into a successor).
    trace: TraceCell,
}

impl PoolSnapshot {
    fn new(
        r1: RrCollection,
        r2: RrCollection,
        chunks: u64,
        sentinel: Option<SentinelState>,
        sketch: Option<SketchedPool>,
    ) -> Self {
        PoolSnapshot {
            r1,
            r2,
            chunks,
            sentinel,
            sketch,
            trace: TraceCell::default(),
        }
    }

    /// The certification view of this snapshot over `g`.
    fn view<'a>(&'a self, g: &'a Graph, threads: usize) -> PoolView<'a> {
        PoolView::single(
            g,
            &self.r1,
            &self.r2,
            self.sentinel.as_ref(),
            self.sketch.as_ref(),
            threads,
        )
    }

    /// Sets per pool half.
    pub fn pool_len(&self) -> usize {
        self.r1.len()
    }

    /// The RNG cursor: complete chunks generated per half.
    pub fn chunk_cursor(&self) -> u64 {
        self.chunks
    }

    /// Arena node entries across both halves.
    pub fn total_nodes(&self) -> usize {
        self.r1.total_nodes() + self.r2.total_nodes()
    }

    /// The selection half `R₁` (read-only).
    pub fn selection_pool(&self) -> &RrCollection {
        &self.r1
    }

    /// The validation half `R₂` (read-only).
    pub fn validation_pool(&self) -> &RrCollection {
        &self.r2
    }

    /// The sentinel tier state at publish time, if active.
    pub fn sentinel_state(&self) -> Option<&SentinelState> {
        self.sentinel.as_ref()
    }

    /// The sketched validation pool at publish time, if active.
    pub fn sketch_state(&self) -> Option<&SketchedPool> {
        self.sketch.as_ref()
    }
}

/// A concurrently queryable [`RrIndex`]: shared `&self` queries from any
/// number of threads, with pool growth serialized through one writer and
/// published as immutable snapshots.
///
/// ```
/// use subsim_index::{ConcurrentRrIndex, IndexConfig};
/// use subsim_diffusion::RrStrategy;
/// use subsim_graph::{generators, WeightModel};
///
/// let g = generators::star_graph(50, WeightModel::UniformIc { p: 0.5 });
/// let index = ConcurrentRrIndex::new(&g, IndexConfig::new(RrStrategy::SubsimIc).seed(7));
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| {
///             let ans = index.query(1, 0.1, 0.01).unwrap();
///             assert_eq!(ans.seeds, vec![0]); // the hub dominates
///         });
///     }
/// });
/// assert_eq!(index.metrics().queries, 4);
/// ```
pub struct ConcurrentRrIndex<'g> {
    g: &'g Graph,
    config: IndexConfig,
    sampler: RrSampler<'g>,
    snapshot: RwLock<Arc<PoolSnapshot>>,
    /// Serializes growth and owns the persistent generation workers —
    /// spawned once at construction and reused across every top-up, so
    /// growth rounds never pay thread-spawn cost. All pool state lives in
    /// the published snapshot (the guard's critical section is the only
    /// place a successor snapshot is ever constructed).
    writer: Mutex<WorkerPool>,
    metrics: IndexMetrics,
}

impl std::fmt::Debug for ConcurrentRrIndex<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.load();
        f.debug_struct("ConcurrentRrIndex")
            .field("config", &self.config)
            .field("chunks", &snap.chunks)
            .field("pool_len", &snap.pool_len())
            .finish_non_exhaustive()
    }
}

impl<'g> ConcurrentRrIndex<'g> {
    /// An empty concurrent index over `g`; the first query (or
    /// [`ConcurrentRrIndex::warm`]) populates the pool.
    pub fn new(g: &'g Graph, config: IndexConfig) -> Self {
        Self::from_index(RrIndex::new(g, config))
    }

    /// Wraps a sequential index (possibly warmed or loaded from a
    /// snapshot file) for concurrent serving. The pool carries over
    /// unchanged; lifetime counters restart.
    pub fn from_index(index: RrIndex<'g>) -> Self {
        let (g, config, r1, r2, chunks, sentinel, sketch) = index.into_parts();
        let index = ConcurrentRrIndex {
            g,
            config,
            sampler: RrSampler::new(g, config.strategy),
            snapshot: RwLock::new(Arc::new(PoolSnapshot::new(
                r1, r2, chunks, sentinel, sketch,
            ))),
            writer: Mutex::new(WorkerPool::new(config.threads)),
            metrics: IndexMetrics::default(),
        };
        index.record_pool_gauges(&index.load());
        index
    }

    /// Converts back into a sequential index over the current snapshot
    /// (e.g. to [`RrIndex::save`] it). Requires exclusive ownership, so no
    /// reader can be left holding a stale view.
    pub fn into_index(self) -> RrIndex<'g> {
        let snap = self.snapshot.into_inner().expect("snapshot lock poisoned");
        let snap = Arc::try_unwrap(snap).unwrap_or_else(|arc| {
            PoolSnapshot::new(
                arc.r1.clone(),
                arc.r2.clone(),
                arc.chunks,
                arc.sentinel.clone(),
                arc.sketch.clone(),
            )
        });
        let mut index = RrIndex::from_parts(self.g, self.config, snap.r1, snap.r2, snap.chunks);
        index
            .set_sentinel_state(snap.sentinel)
            .expect("published snapshot carries sentinel state consistent with its pool");
        index
            .set_sketch_state(snap.sketch)
            .expect("published snapshot carries sketch state consistent with its pool");
        index
    }

    /// The indexed graph.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// The construction-time configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The current published snapshot. The returned `Arc` is a stable
    /// view: its content never changes, even while the writer publishes
    /// successors.
    pub fn load(&self) -> Arc<PoolSnapshot> {
        Arc::clone(&self.snapshot.read().expect("snapshot lock poisoned"))
    }

    /// A point-in-time copy of the serving metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Pre-grows the pool to at least `sets` per half (rounded up to a
    /// whole number of chunks), e.g. to warm an index before serving.
    pub fn warm(&self, sets: usize) -> Result<(), IndexError> {
        self.grow_to(sets)?;
        Ok(())
    }

    /// Answers one IM query: `k` seeds at accuracy `ε` and failure
    /// probability `δ`, certified by the OPIM bounds over a snapshot of
    /// the pool. Safe to call from any number of threads concurrently;
    /// behavior per query matches [`RrIndex::query`], with growth rounds
    /// delegated to the shared writer (a thread that finds the pool
    /// already grown past its target reuses it instead of generating).
    pub fn query(&self, k: usize, epsilon: f64, delta: f64) -> Result<QueryAnswer, IndexError> {
        let opts = ImOptions::new(k).epsilon(epsilon).delta(delta);
        opts.validate(self.g)?;
        let start = Instant::now();
        let n = self.g.n();
        let target = 1.0 - (-1.0f64).exp() - epsilon;
        let theta_max = theta_max_opim(n, k, epsilon, delta);
        let theta0 = theta_zero(delta);
        let imax = i_max(theta_max, theta0);
        let delta_iter = delta / (3.0 * imax as f64);

        let mut snap = self.load();
        let pool_before = snap.pool_len();
        let mut fresh = 0usize;
        if snap.pool_len() < theta0 as usize {
            let (grown, added) = self.grow_to(theta0 as usize)?;
            snap = grown;
            fresh += added;
        }
        let mut rounds = 0u32;
        loop {
            rounds += 1;
            // One tier-aware round (plain, sentinel or sketched), read
            // from the snapshot's selection trace when it reaches `k`.
            let round = snap.trace.certify(
                || snap.view(self.g, self.config.threads),
                k,
                delta_iter,
                target,
                &self.metrics,
            );
            let (seeds, lower, upper) = (round.seeds, round.lower, round.upper);
            let certified = if upper <= 0.0 {
                false
            } else {
                lower / upper > target
            };
            if certified || snap.pool_len() as f64 >= theta_max {
                let elapsed = start.elapsed();
                let stats = QueryStats {
                    k,
                    epsilon,
                    delta,
                    pool_before,
                    pool_after: snap.pool_len(),
                    fresh_sets: fresh,
                    rounds,
                    lower_bound: lower,
                    upper_bound: upper,
                    target_ratio: target,
                    certified_by_bounds: certified,
                    elapsed,
                };
                self.metrics.record_query(&stats);
                return Ok(QueryAnswer { seeds, stats });
            }
            // Error-adaptive ladder, as in the sequential index: a round
            // that failed on sketch slack promotes register precision
            // instead of growing the pool.
            if round.slack_failed {
                let observed = snap.sketch.as_ref().map(|sk| sk.precision());
                if observed.is_some_and(|p| p < MAX_PRECISION) {
                    let (grown, added) = self.promote_sketch(observed.unwrap())?;
                    snap = grown;
                    fresh += added;
                    continue;
                }
            }
            let next = snap
                .pool_len()
                .saturating_mul(2)
                .min(theta_max.ceil() as usize);
            let (grown, added) = self.grow_to(next)?;
            snap = grown;
            fresh += added;
        }
    }

    /// Error-adaptive ladder step: regenerates the `R₂` chunk stream at
    /// the next register precision above `observed` and publishes the
    /// promoted snapshot, exactly as the sequential index does. If a
    /// racing thread already promoted past `observed`, the current
    /// snapshot is returned with no work done (the caller re-evaluates).
    fn promote_sketch(&self, observed: u8) -> Result<(Arc<PoolSnapshot>, usize), IndexError> {
        let workers = self.writer.lock().expect("writer lock poisoned");
        let base = self.load();
        let Some(old) = base.sketch.as_ref() else {
            return Ok((base, 0));
        };
        if old.precision() != observed {
            return Ok((base, 0));
        }
        let precision = observed + 1;
        let chunk = self.config.chunk_size;
        let slice = (self.config.threads as u64) * 4;
        let mut fresh = SketchedPool::new(self.g.n(), chunk, precision);
        let mut start = 0u64;
        let mut regenerated = 0usize;
        while start < base.chunks {
            let end = base.chunks.min(start + slice);
            let b = workers.try_generate_chunks(
                &self.sampler,
                None,
                start..end,
                chunk,
                self.config.seed ^ R2_STREAM,
            )?;
            self.metrics.record_generation(
                b.rr.len() as u64,
                b.rr.total_nodes() as u64,
                b.cost,
                b.elapsed,
            );
            regenerated += b.rr.len();
            fresh.absorb_batch(start, &b.rr);
            start = end;
        }
        let snap = Arc::new(PoolSnapshot::new(
            base.r1.clone(),
            base.r2.clone(),
            base.chunks,
            base.sentinel.clone(),
            Some(fresh),
        ));
        *self.snapshot.write().expect("snapshot lock poisoned") = Arc::clone(&snap);
        self.metrics
            .snapshot_publishes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.record_pool_gauges(&snap);
        Ok((snap, regenerated))
    }

    /// Refreshes the resident-memory gauges from a freshly published
    /// snapshot.
    fn record_pool_gauges(&self, snap: &PoolSnapshot) {
        self.metrics
            .record_pools([&snap.r1, &snap.r2], snap.sketch.as_ref());
    }

    /// Grows the pool to at least `target_sets` per half, continuing the
    /// deterministic chunk stream, and returns the snapshot to continue
    /// with plus how many sets this call freshly generated (both halves
    /// combined — `0` when another thread had already grown past the
    /// target).
    ///
    /// Only one thread generates at a time; on a [`IndexError::MemoryBudget`]
    /// failure any complete slices generated before the budget check are
    /// still published (matching the sequential index, which keeps partial
    /// progress when `ensure_pool` errors mid-growth).
    fn grow_to(&self, target_sets: usize) -> Result<(Arc<PoolSnapshot>, usize), IndexError> {
        let chunk = self.config.chunk_size;
        let needed_chunks = target_sets.div_ceil(chunk) as u64;
        {
            let snap = self.load();
            if snap.chunks >= needed_chunks {
                return Ok((snap, 0));
            }
        }
        let workers = self.writer.lock().expect("writer lock poisoned");
        // Re-check under the guard: the pool may have grown while this
        // thread waited for a predecessor writer.
        let base = self.load();
        if base.chunks >= needed_chunks {
            return Ok((base, 0));
        }

        let slice = (self.config.threads as u64) * 4;
        let mut r1 = base.r1.clone();
        let mut r2 = base.r2.clone();
        let mut chunks = base.chunks;
        let mut sentinel = base.sentinel.clone();
        let mut sketch = base.sketch.clone();
        let mut added = 0usize;
        let mut budget_err = None;
        while chunks < needed_chunks {
            if let Some(cap) = self.config.max_nodes {
                let in_use = r1.total_nodes()
                    + r2.total_nodes()
                    + sketch
                        .as_ref()
                        .map_or(0, |sk| sk.resident_bytes() as usize / 4);
                if in_use >= cap {
                    budget_err = Some(IndexError::MemoryBudget {
                        max_nodes: cap,
                        in_use,
                        wanted_sets: needed_chunks as usize * chunk,
                    });
                    break;
                }
            }
            // Crossing the plain warmup prefix activates the sentinel
            // tier, exactly as in the sequential `ensure_pool` — the
            // successor snapshot carries the new state.
            if self.config.sentinels > 0 && sentinel.is_none() && chunks >= SENTINEL_WARMUP_CHUNKS {
                sentinel = Some(SentinelState {
                    set: SentinelSet::select(&[&r1], self.g, self.config.sentinels),
                    from_chunk: chunks,
                    chunk_hits_r1: vec![0; chunks as usize],
                    chunk_hits_r2: vec![0; chunks as usize],
                });
            }
            let mut end = needed_chunks.min(chunks + slice);
            if self.config.sentinels > 0 && sentinel.is_none() {
                // Still inside the warmup prefix: stop this slice at the
                // boundary so the next iteration selects Z before any
                // truncated chunk is generated.
                end = end.min(SENTINEL_WARMUP_CHUNKS.max(chunks + 1));
            }
            let z = sentinel
                .as_ref()
                .filter(|st| !st.set.is_empty())
                .map(|st| st.set.nodes());
            let truncating = z.is_some();
            let b1 = workers.try_generate_chunks(
                &self.sampler,
                z,
                chunks..end,
                chunk,
                self.config.seed,
            )?;
            let b2 = workers.try_generate_chunks(
                &self.sampler,
                z,
                chunks..end,
                chunk,
                self.config.seed ^ R2_STREAM,
            )?;
            if let Some(st) = &mut sentinel {
                st.chunk_hits_r1.extend_from_slice(&b1.chunk_hits);
                st.chunk_hits_r2.extend_from_slice(&b2.chunk_hits);
            }
            let sets = (b1.rr.len() + b2.rr.len()) as u64;
            let nodes = (b1.rr.total_nodes() + b2.rr.total_nodes()) as u64;
            self.metrics
                .record_generation(sets, nodes, b1.cost + b2.cost, b1.elapsed + b2.elapsed);
            if truncating {
                self.metrics
                    .record_sentinel(b1.sentinel_hits + b2.sentinel_hits, sets, nodes);
            }
            added += b1.rr.len() + b2.rr.len();
            r1.extend_from(&b1.rr);
            if let Some(sk) = &mut sketch {
                sk.absorb_batch(chunks, &b2.rr);
            } else {
                r2.extend_from(&b2.rr);
            }
            chunks = end;
        }

        let snap = Arc::new(PoolSnapshot::new(r1, r2, chunks, sentinel, sketch));
        if added > 0 {
            *self.snapshot.write().expect("snapshot lock poisoned") = Arc::clone(&snap);
            self.metrics
                .snapshot_publishes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.record_pool_gauges(&snap);
        }
        match budget_err {
            Some(err) => Err(err),
            None => Ok((snap, added)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_diffusion::RrStrategy;
    use subsim_graph::generators::{barabasi_albert, star_graph};
    use subsim_graph::WeightModel;

    fn config() -> IndexConfig {
        IndexConfig::new(RrStrategy::SubsimIc)
            .seed(5)
            .chunk_size(64)
    }

    #[test]
    fn matches_sequential_index_exactly_when_unraced() {
        let g = barabasi_albert(300, 4, WeightModel::Wc, 1);
        let mut seq = RrIndex::new(&g, config());
        let conc = ConcurrentRrIndex::new(&g, config());
        for (k, eps) in [(5usize, 0.1f64), (2, 0.2), (5, 0.1)] {
            let a = seq.query(k, eps, 0.01).unwrap();
            let b = conc.query(k, eps, 0.01).unwrap();
            assert_eq!(a.seeds, b.seeds, "k={k} eps={eps}");
            assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
            assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
            assert_eq!(a.stats.pool_after, b.stats.pool_after);
            assert_eq!(a.stats.fresh_sets, b.stats.fresh_sets);
        }
    }

    #[test]
    fn snapshot_is_stable_across_growth() {
        let g = barabasi_albert(200, 3, WeightModel::Wc, 2);
        let conc = ConcurrentRrIndex::new(&g, config());
        conc.warm(128).unwrap();
        let before = conc.load();
        let first: Vec<_> = (0..before.pool_len())
            .map(|i| before.selection_pool().get(i).to_vec())
            .collect();
        conc.warm(1024).unwrap();
        // The old Arc still shows exactly the old pool.
        assert_eq!(before.pool_len(), 128);
        for (i, rr) in first.iter().enumerate() {
            assert_eq!(before.selection_pool().get(i), rr.as_slice());
        }
        // And the new snapshot extends it, bit-identical on the prefix.
        let after = conc.load();
        assert!(after.pool_len() >= 1024);
        for (i, rr) in first.iter().enumerate() {
            assert_eq!(after.selection_pool().get(i), rr.as_slice(), "set {i}");
        }
    }

    #[test]
    fn from_and_into_index_round_trip() {
        let g = barabasi_albert(200, 3, WeightModel::Wc, 3);
        let mut seq = RrIndex::new(&g, config());
        seq.warm(256).unwrap();
        let conc = ConcurrentRrIndex::from_index(seq);
        conc.warm(512).unwrap();
        let back = conc.into_index();
        assert_eq!(back.pool_len(), 512);
        assert_eq!(back.chunk_cursor(), 8);
        // Still continues the same stream as a fresh sequential index.
        let mut fresh = RrIndex::new(&g, config());
        fresh.warm(512).unwrap();
        for i in 0..fresh.pool_len() {
            assert_eq!(back.selection_pool().get(i), fresh.selection_pool().get(i));
        }
    }

    #[test]
    fn budget_error_publishes_partial_progress() {
        let g = barabasi_albert(300, 4, WeightModel::Wc, 4);
        let conc = ConcurrentRrIndex::new(&g, config().max_nodes(200));
        let err = conc.query(10, 0.05, 0.001).unwrap_err();
        assert!(matches!(err, IndexError::MemoryBudget { .. }));
        // Partial growth was published, exactly like the sequential index
        // keeps partial progress.
        assert!(conc.load().pool_len() > 0);
        let mut seq = RrIndex::new(&g, config().max_nodes(200));
        seq.query(10, 0.05, 0.001).unwrap_err();
        assert_eq!(conc.load().pool_len(), seq.pool_len());
    }

    #[test]
    fn rejects_invalid_queries() {
        let g = star_graph(10, WeightModel::Wc);
        let conc = ConcurrentRrIndex::new(&g, config());
        assert!(matches!(
            conc.query(0, 0.1, 0.01),
            Err(IndexError::Options(_))
        ));
        assert!(matches!(
            conc.query(2, 0.9, 0.01),
            Err(IndexError::Options(_))
        ));
    }

    #[test]
    fn sentinel_growth_matches_sequential_index() {
        let g = barabasi_albert(300, 4, WeightModel::Wc, 6);
        let mut seq = RrIndex::new(&g, config().sentinels(2));
        let conc = ConcurrentRrIndex::new(&g, config().sentinels(2));
        seq.warm(640).unwrap();
        conc.warm(640).unwrap();
        let snap = conc.load();
        assert_eq!(snap.sentinel_state(), seq.sentinel_state());
        for i in 0..seq.pool_len() {
            assert_eq!(snap.selection_pool().get(i), seq.selection_pool().get(i));
            assert_eq!(snap.validation_pool().get(i), seq.validation_pool().get(i));
        }
        // Warm queries answer identically (same pool, same sentinel-aware
        // certification), and the concurrent side records sentinel metrics.
        let a = seq.query(5, 0.1, 0.01).unwrap();
        let b = conc.query(5, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
        assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
        let m = conc.metrics();
        assert!(m.truncated_sets_generated > 0);
        assert!(m.sentinel_hits > 0);
        assert!(m.mean_rr_size_truncated < m.mean_rr_size_plain);
        // Round-tripping back out keeps the sentinel state.
        let back = conc.into_index();
        assert_eq!(back.sentinel_state(), seq.sentinel_state());
    }

    #[test]
    fn sketched_growth_and_queries_match_sequential_index() {
        let g = barabasi_albert(300, 4, WeightModel::Wc, 7);
        let mut seq = RrIndex::new(&g, config().sketch(6));
        let conc = ConcurrentRrIndex::new(&g, config().sketch(6));
        seq.warm(640).unwrap();
        conc.warm(640).unwrap();
        let snap = conc.load();
        assert_eq!(snap.sketch_state(), seq.sketch_state());
        assert_eq!(snap.validation_pool().len(), 0);
        for i in 0..seq.pool_len() {
            assert_eq!(snap.selection_pool().get(i), seq.selection_pool().get(i));
        }
        drop(snap);
        // Warm queries answer identically: same pool, same slack-adjusted
        // certificate, same ladder decisions.
        let a = seq.query(5, 0.1, 0.01).unwrap();
        let b = conc.query(5, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
        assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
        assert_eq!(a.stats.pool_after, b.stats.pool_after);
        assert_eq!(a.stats.fresh_sets, b.stats.fresh_sets);
        // The memory gauges see the sketched tier.
        let m = conc.metrics();
        assert!(m.sketch_pool_bytes > 0);
        assert!(m.sketch_displaced_bytes > 0);
        assert!(m.sketch_compression > 0.0);
        // Round-tripping back out keeps the sketch state — including a
        // possible ladder promotion, on which both stacks must agree.
        let back = conc.into_index();
        assert_eq!(back.sketch_state(), seq.sketch_state());
        assert_eq!(back.config().sketch, seq.config().sketch);
    }

    #[test]
    fn metrics_track_queries_and_publishes() {
        let g = barabasi_albert(300, 4, WeightModel::Wc, 5);
        let conc = ConcurrentRrIndex::new(&g, config());
        conc.query(5, 0.1, 0.01).unwrap();
        conc.query(5, 0.1, 0.01).unwrap();
        let m = conc.metrics();
        assert_eq!(m.queries, 2);
        assert!(m.snapshot_publishes >= 1);
        assert!(m.exact_pool_bytes > 0);
        assert_eq!(m.sketch_pool_bytes, 0, "sketch tier off → gauge stays 0");
        assert_eq!(m.sketch_compression, 0.0);
        assert!(m.fresh_sets > 0);
        assert!(m.reused_sets > 0, "second query must reuse the pool");
        assert!(m.cache_hit_ratio > 0.0);
        assert!(m.latency_p50_ns > 0);
        assert!(m.rr_sets_generated as usize == 2 * conc.load().pool_len());
    }
}
