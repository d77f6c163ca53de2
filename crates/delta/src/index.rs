//! A sequential RR-sketch index that owns its versioned graph.
//!
//! [`subsim_index::RrIndex`] borrows a frozen `&Graph`, which is exactly
//! wrong for a mutating graph: the borrow would freeze the thing deltas
//! must rewrite. [`DeltaIndex`] therefore *owns* a [`VersionedGraph`]
//! plus the two pool halves and re-binds a transient sampler to the
//! current CSR per operation. Query semantics mirror `RrIndex::query`
//! bit for bit (same bounds, same growth schedule, same chunk streams),
//! and [`DeltaIndex::apply_delta`] repairs the pool through
//! [`crate::repair`] so every query after a delta sees a pool identical
//! to a full rebuild on the new graph.

use crate::delta::GraphDelta;
use crate::error::DeltaError;
use crate::repair::{repair_pool, RepairReport};
use crate::versioned::VersionedGraph;
use std::path::Path;
use std::time::Instant;
use subsim_core::bounds::{i_max, theta_max_opim, theta_zero};
use subsim_core::sentinel::SentinelSet;
use subsim_core::ImOptions;
use subsim_diffusion::pool::WorkerPool;
use subsim_diffusion::{RrCollection, RrSampler};
use subsim_graph::Graph;
use subsim_index::QueryStats;
use subsim_index::{
    certify, IndexConfig, IndexError, IndexMetrics, MetricsSnapshot, PoolView, QueryAnswer, Round,
    RrIndex, SentinelState, R2_STREAM, SENTINEL_WARMUP_CHUNKS,
};
use subsim_sketch::{SketchedPool, MAX_PRECISION};

/// An RR-sketch index over a [`VersionedGraph`]: answers certified IM
/// queries like [`RrIndex`] and absorbs graph deltas by incremental
/// chunk repair instead of re-indexing.
///
/// ```
/// use subsim_delta::{DeltaIndex, GraphDelta};
/// use subsim_diffusion::RrStrategy;
/// use subsim_graph::{generators, WeightModel};
/// use subsim_index::IndexConfig;
///
/// let g = generators::star_graph(50, WeightModel::UniformIc { p: 0.4 });
/// let mut index = DeltaIndex::new(g, IndexConfig::new(RrStrategy::SubsimIc).seed(3)).unwrap();
/// let before = index.query(1, 0.1, 0.01).unwrap();
/// assert_eq!(before.seeds, vec![0]);
/// let report = index
///     .apply_delta(&GraphDelta::new().insert_edge(1, 2, 0.9))
///     .unwrap();
/// assert_eq!(index.version(), 1);
/// assert!(report.regenerated_sets <= report.pool_sets);
/// ```
pub struct DeltaIndex {
    vg: VersionedGraph,
    config: IndexConfig,
    r1: RrCollection,
    r2: RrCollection,
    /// RNG cursor: complete chunks generated per half.
    chunks: u64,
    /// Sentinel tier state (see [`subsim_index::SentinelState`]).
    sentinel: Option<SentinelState>,
    /// Sketched validation tier: when active, `r2` stays empty and the
    /// validation half lives in per-node count-distinct sketches.
    sketch: Option<SketchedPool>,
    workers: WorkerPool,
    metrics: IndexMetrics,
}

impl std::fmt::Debug for DeltaIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaIndex")
            .field("version", &self.vg.version())
            .field("config", &self.config)
            .field("chunks", &self.chunks)
            .field("pool_len", &self.r1.len())
            .finish_non_exhaustive()
    }
}

impl DeltaIndex {
    /// An empty index over version 0 of `g` (storage-normalized; see
    /// [`VersionedGraph`]). The first query or [`DeltaIndex::warm`]
    /// populates the pool.
    pub fn new(g: Graph, config: IndexConfig) -> Result<Self, DeltaError> {
        let vg = VersionedGraph::new(g)?;
        Ok(Self::from_versioned(vg, config))
    }

    /// Wraps an existing [`VersionedGraph`] with an empty pool.
    pub fn from_versioned(vg: VersionedGraph, config: IndexConfig) -> Self {
        assert!(config.threads > 0, "need at least one worker");
        assert!(config.chunk_size > 0, "chunks must hold at least one set");
        assert!(
            config.sketch == 0 || config.sentinels == 0,
            "sketch and sentinel tiers are mutually exclusive: truncated \
             sets would poison the count-distinct estimates"
        );
        let n = vg.graph().n();
        DeltaIndex {
            vg,
            config,
            r1: RrCollection::new(n),
            r2: RrCollection::new(n),
            chunks: 0,
            sentinel: None,
            sketch: (config.sketch > 0)
                .then(|| SketchedPool::new(n, config.chunk_size, config.sketch as u8)),
            workers: WorkerPool::new(config.threads),
            metrics: IndexMetrics::default(),
        }
    }

    /// Rebuilds an index from raw parts (pool halves must already be
    /// whole chunks generated against `vg`'s current version).
    pub(crate) fn from_raw_parts(
        vg: VersionedGraph,
        config: IndexConfig,
        r1: RrCollection,
        r2: RrCollection,
        chunks: u64,
        sentinel: Option<SentinelState>,
        sketch: Option<SketchedPool>,
    ) -> Self {
        DeltaIndex {
            vg,
            config,
            r1,
            r2,
            chunks,
            sentinel,
            sketch,
            workers: WorkerPool::new(config.threads),
            metrics: IndexMetrics::default(),
        }
    }

    /// Decomposes into `(vg, config, r1, r2, chunks, sentinel, sketch)`,
    /// dropping workers and metrics — the conversion point into
    /// [`crate::ConcurrentDeltaIndex`].
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_raw_parts(
        self,
    ) -> (
        VersionedGraph,
        IndexConfig,
        RrCollection,
        RrCollection,
        u64,
        Option<SentinelState>,
        Option<SketchedPool>,
    ) {
        (
            self.vg,
            self.config,
            self.r1,
            self.r2,
            self.chunks,
            self.sentinel,
            self.sketch,
        )
    }

    /// The CSR at the current version.
    pub fn graph(&self) -> &Graph {
        self.vg.graph()
    }

    /// The versioned graph.
    pub fn versioned(&self) -> &VersionedGraph {
        &self.vg
    }

    /// The construction-time configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The epoch: deltas applied since construction.
    pub fn version(&self) -> u64 {
        self.vg.version()
    }

    /// Structural fingerprint of the current graph version.
    pub fn fingerprint(&self) -> u64 {
        self.vg.fingerprint()
    }

    /// Sets per pool half.
    pub fn pool_len(&self) -> usize {
        self.r1.len()
    }

    /// The RNG cursor: complete chunks generated per half.
    pub fn chunk_cursor(&self) -> u64 {
        self.chunks
    }

    /// Test-only fault injection: forwards a chunk hook to the worker
    /// pool (see [`subsim_diffusion::WorkerPool::set_chunk_hook`]).
    #[doc(hidden)]
    pub fn set_chunk_hook(&self, hook: Option<subsim_diffusion::ChunkHook>) {
        self.workers.set_chunk_hook(hook);
    }

    /// The selection half `R₁` (read-only).
    pub fn selection_pool(&self) -> &RrCollection {
        &self.r1
    }

    /// The validation half `R₂` (read-only).
    pub fn validation_pool(&self) -> &RrCollection {
        &self.r2
    }

    /// The sentinel tier state, if active.
    pub fn sentinel_state(&self) -> Option<&SentinelState> {
        self.sentinel.as_ref()
    }

    /// The sketched validation pool, if the sketch tier is active.
    pub fn sketch_state(&self) -> Option<&SketchedPool> {
        self.sketch.as_ref()
    }

    /// Serving metrics (queries, generation, repairs).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Pre-grows the pool to at least `sets` per half (whole chunks).
    pub fn warm(&mut self, sets: usize) -> Result<(), DeltaError> {
        let g = self.vg.graph();
        let sampler = RrSampler::new(g, self.config.strategy);
        ensure_pool(
            g,
            &sampler,
            &self.workers,
            &self.config,
            &self.metrics,
            &mut self.r1,
            &mut self.r2,
            &mut self.chunks,
            &mut self.sentinel,
            &mut self.sketch,
            sets,
        )?;
        Ok(())
    }

    /// Answers one certified IM query; semantics match
    /// [`RrIndex::query`] over the current graph version.
    pub fn query(&mut self, k: usize, epsilon: f64, delta: f64) -> Result<QueryAnswer, DeltaError> {
        let g = self.vg.graph();
        let opts = ImOptions::new(k).epsilon(epsilon).delta(delta);
        opts.validate(g).map_err(IndexError::from)?;
        let start = Instant::now();
        let n = g.n();
        let target = 1.0 - (-1.0f64).exp() - epsilon;
        let theta_max = theta_max_opim(n, k, epsilon, delta);
        let theta0 = theta_zero(delta);
        let imax = i_max(theta_max, theta0);
        let delta_iter = delta / (3.0 * imax as f64);

        let sampler = RrSampler::new(g, self.config.strategy);
        let pool_before = self.r1.len();
        let mut fresh = ensure_pool(
            g,
            &sampler,
            &self.workers,
            &self.config,
            &self.metrics,
            &mut self.r1,
            &mut self.r2,
            &mut self.chunks,
            &mut self.sentinel,
            &mut self.sketch,
            theta0 as usize,
        )?;
        let mut rounds = 0u32;
        loop {
            rounds += 1;
            // One tier-aware round (plain, sentinel or sketched), greedy
            // run fresh at `k`. `slack_failed` is the error-adaptive
            // ladder trigger (sketched pools only).
            let t = Instant::now();
            let view = PoolView::single(
                g,
                &self.r1,
                &self.r2,
                self.sentinel.as_ref(),
                self.sketch.as_ref(),
                self.config.threads,
            );
            let Round {
                seeds,
                lower,
                upper,
                slack_failed,
            } = certify(&view, k, delta_iter, target);
            self.metrics.record_selection(t.elapsed());
            let certified = if upper <= 0.0 {
                false
            } else {
                lower / upper > target
            };
            if certified || self.r1.len() as f64 >= theta_max {
                let stats = QueryStats {
                    k,
                    epsilon,
                    delta,
                    pool_before,
                    pool_after: self.r1.len(),
                    fresh_sets: fresh,
                    rounds,
                    lower_bound: lower,
                    upper_bound: upper,
                    target_ratio: target,
                    certified_by_bounds: certified,
                    elapsed: start.elapsed(),
                };
                self.metrics.record_query(&stats);
                return Ok(QueryAnswer { seeds, stats });
            }
            // Failing on slack means more samples cannot close the gap —
            // promote register precision instead (bounded by
            // MAX_PRECISION; past it, fall through to doubling and let
            // theta_max terminate the loop).
            if slack_failed && self.config.sketch < MAX_PRECISION as usize {
                fresh += promote_sketch(
                    &sampler,
                    &self.workers,
                    &mut self.config,
                    &self.metrics,
                    &mut self.sketch,
                    self.chunks,
                )?;
                continue;
            }
            let next = self
                .r1
                .len()
                .saturating_mul(2)
                .min(theta_max.ceil() as usize);
            fresh += ensure_pool(
                g,
                &sampler,
                &self.workers,
                &self.config,
                &self.metrics,
                &mut self.r1,
                &mut self.r2,
                &mut self.chunks,
                &mut self.sentinel,
                &mut self.sketch,
                next,
            )?;
        }
    }

    /// Applies `delta` to the graph and repairs the pool incrementally.
    ///
    /// With no sentinel tier, both halves come out bit-identical to a
    /// full rebuild of the same chunk range on the new graph version —
    /// so subsequent queries (and their certified bounds) match a fresh
    /// index exactly. With a sentinel tier, truncated chunks whose set
    /// `Z` survived the delta repair with the same exactness; a delta
    /// touching a sentinel endpoint instead re-selects `Z'` over the
    /// repaired plain prefix and regenerates the truncated suffix under
    /// it (`RepairReport::sentinel_refreshed`), keeping the statistical
    /// certification contract without promising bit-equivalence. Either
    /// way the sample accounting is repair-aware: pool sizes are
    /// unchanged (`chunk_cursor` continues from where it was), every
    /// stored set is a valid i.i.d. RR sample of the *new* graph, and
    /// the OPIM certificates re-derive on the next query without
    /// discarding clean samples.
    ///
    /// On error (validation failure, or a worker panic during repair),
    /// neither the graph nor the pool changes: the mutation is staged on
    /// a copy of the versioned graph and committed only after both halves
    /// repaired, so the graph version can never run ahead of the pool.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> Result<RepairReport, DeltaError> {
        let start = Instant::now();
        let mut staged = self.vg.clone();
        staged.apply(delta)?;
        let targets = delta.targets();
        let sampler = RrSampler::new(staged.graph(), self.config.strategy);
        let chunk = self.config.chunk_size;
        let threads = self.config.threads;
        let out = repair_pool(
            &self.r1,
            &self.r2,
            self.sentinel.as_ref(),
            self.sketch.as_ref(),
            self.chunks,
            delta,
            staged.graph(),
            self.config.sentinels,
            &sampler,
            &self.workers,
            chunk,
            self.config.seed,
            threads,
        )?;
        drop(sampler);
        self.vg = staged;
        self.r1 = out.r1;
        self.r2 = out.r2;
        self.sentinel = out.sentinel;
        self.sketch = out.sketch;
        let dirty_chunks = out.dirty_chunks_r1 + out.dirty_chunks_r2;
        let regenerated = dirty_chunks * chunk;
        let report = RepairReport {
            version: self.vg.version(),
            targets: targets.len(),
            dirty_sets_r1: out.dirty_sets_r1,
            dirty_sets_r2: out.dirty_sets_r2,
            dirty_chunks_r1: out.dirty_chunks_r1,
            dirty_chunks_r2: out.dirty_chunks_r2,
            regenerated_sets: regenerated,
            pool_sets: self.r1.len()
                + self
                    .sketch
                    .as_ref()
                    .map_or(self.r2.len(), |sk| sk.len_sets()),
            sentinel_refreshed: out.sentinel_refreshed,
            elapsed: start.elapsed(),
        };
        self.metrics
            .record_repair(regenerated as u64, dirty_chunks as u64, report.elapsed);
        Ok(report)
    }

    /// Writes the pool to the on-disk snapshot format, stamped with the
    /// **current version's** fingerprint — a snapshot taken at version
    /// `t` loads only against the graph at version `t`.
    pub fn save_snapshot<P: AsRef<Path>>(&self, path: P) -> Result<(), DeltaError> {
        let mut idx = match &self.sketch {
            Some(sk) => RrIndex::from_sketched_parts(
                self.vg.graph(),
                self.config,
                self.r1.clone(),
                sk.clone(),
                self.chunks,
            )?,
            None => RrIndex::from_pool_parts(
                self.vg.graph(),
                self.config,
                self.r1.clone(),
                self.r2.clone(),
                self.chunks,
            )?,
        };
        idx.set_sentinel_state(self.sentinel.clone())?;
        idx.save_to_path(path)?;
        Ok(())
    }

    /// Builds an index over version 0 of `g` with the pool loaded from a
    /// snapshot. Fails with a typed
    /// [`IndexError::SnapshotMismatch`] (wrapped in
    /// [`DeltaError::Index`]) when the snapshot was taken at a different
    /// graph version — the fingerprint pins the exact edge set — or was
    /// generated under a different RR strategy than `config` asks for
    /// (an LT pool must never silently serve an IC server, or vice
    /// versa).
    pub fn load_snapshot<P: AsRef<Path>>(
        g: Graph,
        config: IndexConfig,
        path: P,
    ) -> Result<Self, DeltaError> {
        let vg = VersionedGraph::new(g)?;
        let mut loaded = RrIndex::load_from_path(vg.graph(), path)?;
        loaded.ensure_strategy(config.strategy)?;
        let sentinel = loaded.take_sentinel_state();
        let sketch = loaded.take_sketch_state();
        let (loaded_config, r1, r2, chunks) = loaded.into_pool_parts();
        Ok(DeltaIndex {
            vg,
            config: IndexConfig {
                threads: config.threads,
                max_nodes: config.max_nodes,
                ..loaded_config
            },
            r1,
            r2,
            chunks,
            sentinel,
            sketch,
            workers: WorkerPool::new(config.threads),
            metrics: IndexMetrics::default(),
        })
    }
}

/// Grows both halves to at least `target_sets` each, continuing the chunk
/// stream on the graph bound in `sampler` — the split-borrow form of
/// [`RrIndex`]'s `ensure_pool`, shared by `warm` and the query loop.
/// Mirrors the sentinel activation logic exactly: crossing the plain
/// warmup prefix selects `Z` once over the plain chunks generated so
/// far, and every later chunk runs through the Alg 5 stopping wrapper.
#[allow(clippy::too_many_arguments)]
fn ensure_pool(
    g: &Graph,
    sampler: &RrSampler<'_>,
    workers: &WorkerPool,
    config: &IndexConfig,
    metrics: &IndexMetrics,
    r1: &mut RrCollection,
    r2: &mut RrCollection,
    chunks: &mut u64,
    sentinel: &mut Option<SentinelState>,
    sketch: &mut Option<SketchedPool>,
    target_sets: usize,
) -> Result<usize, DeltaError> {
    let chunk = config.chunk_size;
    let needed_chunks = target_sets.div_ceil(chunk) as u64;
    if needed_chunks <= *chunks {
        return Ok(0);
    }
    let slice = (config.threads as u64) * 4;
    let mut added = 0usize;
    while *chunks < needed_chunks {
        if let Some(cap) = config.max_nodes {
            // A sketched R₂ counts its resident bytes in 4-byte
            // node-entry equivalents, keeping the budget unit consistent.
            let in_use = r1.total_nodes()
                + r2.total_nodes()
                + sketch
                    .as_ref()
                    .map_or(0, |sk| sk.resident_bytes() as usize / 4);
            if in_use >= cap {
                return Err(DeltaError::Index(IndexError::MemoryBudget {
                    max_nodes: cap,
                    in_use,
                    wanted_sets: needed_chunks as usize * chunk,
                }));
            }
        }
        if config.sentinels > 0 && sentinel.is_none() && *chunks >= SENTINEL_WARMUP_CHUNKS {
            *sentinel = Some(SentinelState {
                set: SentinelSet::select(&[&*r1], g, config.sentinels),
                from_chunk: *chunks,
                chunk_hits_r1: vec![0; *chunks as usize],
                chunk_hits_r2: vec![0; *chunks as usize],
            });
        }
        let mut end = needed_chunks.min(*chunks + slice);
        if config.sentinels > 0 && sentinel.is_none() {
            // Still inside the warmup prefix: stop this slice at the
            // boundary so the next iteration selects Z before any
            // truncated chunk is generated.
            end = end.min(SENTINEL_WARMUP_CHUNKS.max(*chunks + 1));
        }
        let z = sentinel
            .as_ref()
            .filter(|st| !st.set.is_empty())
            .map(|st| st.set.nodes());
        let truncating = z.is_some();
        let b1 = workers.try_generate_chunks(sampler, z, *chunks..end, chunk, config.seed)?;
        let b2 = workers.try_generate_chunks(
            sampler,
            z,
            *chunks..end,
            chunk,
            config.seed ^ R2_STREAM,
        )?;
        if let Some(st) = sentinel.as_mut() {
            st.chunk_hits_r1.extend_from_slice(&b1.chunk_hits);
            st.chunk_hits_r2.extend_from_slice(&b2.chunk_hits);
        }
        let sets = (b1.rr.len() + b2.rr.len()) as u64;
        let nodes = (b1.rr.total_nodes() + b2.rr.total_nodes()) as u64;
        metrics.record_generation(sets, nodes, b1.cost + b2.cost, b1.elapsed + b2.elapsed);
        if truncating {
            metrics.record_sentinel(b1.sentinel_hits + b2.sentinel_hits, sets, nodes);
        }
        added += b1.rr.len() + b2.rr.len();
        r1.extend_from(&b1.rr);
        if let Some(sk) = sketch.as_mut() {
            sk.absorb_batch(*chunks, &b2.rr);
        } else {
            r2.extend_from(&b2.rr);
        }
        *chunks = end;
    }
    Ok(added)
}

/// Error-adaptive ladder step (the split-borrow form of `RrIndex`'s
/// promotion): regenerates the entire `R₂` chunk stream at the next
/// register precision and swaps the sketch. Chunk content is a pure
/// function of `(seed, chunk id)`, so the rebuilt sketch is exactly what
/// an index configured at the higher precision from the start would
/// hold. Returns the number of regenerated sets.
fn promote_sketch(
    sampler: &RrSampler<'_>,
    workers: &WorkerPool,
    config: &mut IndexConfig,
    metrics: &IndexMetrics,
    sketch: &mut Option<SketchedPool>,
    chunks: u64,
) -> Result<usize, DeltaError> {
    let old = sketch.as_ref().expect("promotion without a sketch");
    let precision = old.precision() + 1;
    assert!(precision <= MAX_PRECISION, "ladder past MAX_PRECISION");
    let chunk = config.chunk_size;
    let mut fresh = SketchedPool::new(old.graph_n(), chunk, precision);
    let slice = (config.threads as u64) * 4;
    let mut start = 0u64;
    let mut regenerated = 0usize;
    while start < chunks {
        let end = chunks.min(start + slice);
        let b = workers.try_generate_chunks(
            sampler,
            None,
            start..end,
            chunk,
            config.seed ^ R2_STREAM,
        )?;
        metrics.record_generation(
            b.rr.len() as u64,
            b.rr.total_nodes() as u64,
            b.cost,
            b.elapsed,
        );
        regenerated += b.rr.len();
        fresh.absorb_batch(start, &b.rr);
        start = end;
    }
    config.sketch = precision as usize;
    *sketch = Some(fresh);
    Ok(regenerated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_diffusion::RrStrategy;
    use subsim_graph::generators::barabasi_albert;
    use subsim_graph::WeightModel;

    fn config() -> IndexConfig {
        IndexConfig::new(RrStrategy::SubsimIc)
            .seed(9)
            .chunk_size(32)
            .threads(2)
    }

    #[test]
    fn queries_match_borrowing_index_before_any_delta() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 31);
        // Normalize exactly as DeltaIndex will, then compare against the
        // borrowing RrIndex on the normalized graph.
        let vg = VersionedGraph::new(g).unwrap();
        let norm = vg.graph().clone();
        let mut delta_index = DeltaIndex::from_versioned(vg, config());
        let mut plain = subsim_index::RrIndex::new(&norm, config());
        let a = delta_index.query(4, 0.1, 0.01).unwrap();
        let b = plain.query(4, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
        assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
        assert_eq!(delta_index.pool_len(), plain.pool_len());
    }

    #[test]
    fn apply_delta_repairs_to_full_rebuild_equivalence() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 32);
        let mut index = DeltaIndex::new(g.clone(), config()).unwrap();
        index.warm(400).unwrap();
        let hub = (0..g.n() as u32).max_by_key(|&v| g.in_degree(v)).unwrap();
        let u = (0..g.n() as u32)
            .find(|&u| g.prob_of_edge(u, hub).is_none())
            .expect("some node lacks an edge to the hub");
        let d = GraphDelta::new().insert_edge(u, hub, 0.5);
        let report = index.apply_delta(&d).unwrap();
        assert_eq!(report.version, 1);
        assert!(report.regenerated_sets > 0);

        // Reference: a fresh index over the final graph, grown to the
        // same chunk cursor.
        let mut fresh_vg = VersionedGraph::new(g).unwrap();
        fresh_vg.apply(&d).unwrap();
        let mut fresh = DeltaIndex::from_versioned(fresh_vg, config());
        fresh.warm(index.pool_len()).unwrap();
        assert_eq!(fresh.pool_len(), index.pool_len());
        for i in 0..index.pool_len() {
            assert_eq!(
                index.selection_pool().get(i),
                fresh.selection_pool().get(i),
                "r1 {i}"
            );
            assert_eq!(
                index.validation_pool().get(i),
                fresh.validation_pool().get(i),
                "r2 {i}"
            );
        }
        let a = index.query(4, 0.1, 0.01).unwrap();
        let b = fresh.query(4, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
        assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
        let m = index.metrics();
        assert_eq!(m.deltas_applied, 1);
        assert!(m.sets_repaired > 0);
    }

    fn sentinel_config() -> IndexConfig {
        config().sentinels(2)
    }

    /// A delta whose endpoints avoid the sentinel set `z`.
    fn non_stale_delta(g: &subsim_graph::Graph, z: &[u32]) -> GraphDelta {
        let hub = (0..g.n() as u32)
            .filter(|v| !z.contains(v))
            .max_by_key(|&v| g.in_degree(v))
            .unwrap();
        let u = (0..g.n() as u32)
            .find(|&u| !z.contains(&u) && u != hub && g.prob_of_edge(u, hub).is_none())
            .expect("some non-sentinel node lacks an edge to the hub");
        GraphDelta::new().insert_edge(u, hub, 0.5)
    }

    #[test]
    fn sentinel_warm_matches_borrowing_index() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 34);
        let vg = VersionedGraph::new(g).unwrap();
        let norm = vg.graph().clone();
        let mut delta_index = DeltaIndex::from_versioned(vg, sentinel_config());
        let mut plain = subsim_index::RrIndex::new(&norm, sentinel_config());
        delta_index.warm(320).unwrap();
        plain.warm(320).unwrap();
        assert_eq!(delta_index.pool_len(), plain.pool_len());
        let a = delta_index.sentinel_state().expect("sentinel active");
        let b = plain.sentinel_state().expect("sentinel active");
        assert_eq!(a.set.nodes(), b.set.nodes());
        assert_eq!(a.from_chunk, b.from_chunk);
        assert_eq!(a.chunk_hits_r1, b.chunk_hits_r1);
        assert_eq!(a.chunk_hits_r2, b.chunk_hits_r2);
        for i in 0..delta_index.pool_len() {
            assert_eq!(
                delta_index.selection_pool().get(i),
                plain.selection_pool().get(i),
                "r1 {i}"
            );
        }
        assert!(delta_index.metrics().truncated_sets_generated > 0);
    }

    #[test]
    fn non_stale_delta_repairs_sentinel_pool_to_fixed_z_rebuild() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 35);
        let mut index = DeltaIndex::new(g, sentinel_config()).unwrap();
        index.warm(320).unwrap();
        let st = index.sentinel_state().unwrap();
        let z = st.set.nodes().to_vec();
        let from_chunk = st.from_chunk;
        let d = non_stale_delta(index.graph(), &z);
        let report = index.apply_delta(&d).unwrap();
        assert!(!report.sentinel_refreshed);
        assert!(report.regenerated_sets > 0, "delta must dirty something");
        let st = index.sentinel_state().unwrap();
        assert_eq!(st.set.nodes(), z.as_slice(), "Z survives a non-stale delta");
        assert_eq!(st.from_chunk, from_chunk);

        // Reference: regenerate the full chunk range on the new graph
        // with the same (kept) Z — repair must be bit-identical to it.
        let cfg = sentinel_config();
        let sampler = RrSampler::new(index.graph(), cfg.strategy);
        let workers = WorkerPool::new(1);
        let chunks = index.chunk_cursor();
        for (half, seed, hits) in [
            (index.selection_pool(), cfg.seed, &st.chunk_hits_r1),
            (
                index.validation_pool(),
                cfg.seed ^ R2_STREAM,
                &st.chunk_hits_r2,
            ),
        ] {
            let plain =
                workers.generate_chunks(&sampler, None, 0..from_chunk, cfg.chunk_size, seed);
            let trunc = workers.generate_chunks(
                &sampler,
                Some(&z),
                from_chunk..chunks,
                cfg.chunk_size,
                seed,
            );
            let boundary = from_chunk as usize * cfg.chunk_size;
            for i in 0..half.len() {
                let expect = if i < boundary {
                    plain.rr.get(i)
                } else {
                    trunc.rr.get(i - boundary)
                };
                assert_eq!(half.get(i), expect, "set {i}");
            }
            assert_eq!(&hits[from_chunk as usize..], trunc.chunk_hits.as_slice());
            assert!(hits[..from_chunk as usize].iter().all(|&h| h == 0));
        }
        let ans = index.query(3, 0.1, 0.01).unwrap();
        assert!(ans.stats.certified_by_bounds);
    }

    #[test]
    fn stale_delta_refreshes_sentinel_and_keeps_serving() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 36);
        let mut index = DeltaIndex::new(g, sentinel_config()).unwrap();
        index.warm(320).unwrap();
        let st = index.sentinel_state().unwrap();
        let z = st.set.nodes().to_vec();
        let from_chunk = st.from_chunk;
        let chunks = index.chunk_cursor();
        // Rewire an edge into a sentinel: Z's selection basis is gone.
        let u = (0..index.graph().n() as u32)
            .find(|&u| !z.contains(&u) && index.graph().prob_of_edge(u, z[0]).is_none())
            .unwrap();
        let report = index
            .apply_delta(&GraphDelta::new().insert_edge(u, z[0], 0.9))
            .unwrap();
        assert!(report.sentinel_refreshed);
        // The whole truncated suffix regenerated, in both halves.
        assert!(report.dirty_chunks_r1 >= (chunks - from_chunk) as usize);
        assert!(report.dirty_chunks_r2 >= (chunks - from_chunk) as usize);
        let st = index.sentinel_state().unwrap();
        assert_eq!(st.from_chunk, from_chunk, "boundary survives a refresh");
        assert!(!st.set.is_empty());
        assert_eq!(st.chunk_hits_r1.len(), chunks as usize);
        assert_eq!(st.chunk_hits_r2.len(), chunks as usize);
        assert!(st.chunk_hits_r1[..from_chunk as usize]
            .iter()
            .all(|&h| h == 0));
        assert_eq!(
            index.pool_len(),
            chunks as usize * sentinel_config().chunk_size
        );
        let ans = index.query(3, 0.1, 0.01).unwrap();
        assert!(ans.stats.certified_by_bounds);
    }

    fn sketch_config() -> IndexConfig {
        config().sketch(6)
    }

    #[test]
    fn sketched_warm_and_query_match_borrowing_index() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 38);
        let vg = VersionedGraph::new(g).unwrap();
        let norm = vg.graph().clone();
        let mut delta_index = DeltaIndex::from_versioned(vg, sketch_config());
        let mut plain = subsim_index::RrIndex::new(&norm, sketch_config());
        delta_index.warm(320).unwrap();
        plain.warm(320).unwrap();
        assert_eq!(delta_index.pool_len(), plain.pool_len());
        assert_eq!(
            delta_index.validation_pool().len(),
            0,
            "sketched R2 stays empty"
        );
        assert_eq!(delta_index.sketch_state(), plain.sketch_state());
        let a = delta_index.query(4, 0.1, 0.01).unwrap();
        let b = plain.query(4, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
        assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
        // Whatever the ladder did, both stacks must agree on it.
        assert_eq!(delta_index.config().sketch, plain.config().sketch);
        assert_eq!(delta_index.sketch_state(), plain.sketch_state());
    }

    #[test]
    fn sketched_delta_repair_matches_fresh_sketched_index() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 39);
        let mut index = DeltaIndex::new(g.clone(), sketch_config()).unwrap();
        index.warm(400).unwrap();
        let hub = (0..g.n() as u32).max_by_key(|&v| g.in_degree(v)).unwrap();
        let u = (0..g.n() as u32)
            .find(|&u| g.prob_of_edge(u, hub).is_none())
            .expect("some node lacks an edge to the hub");
        let d = GraphDelta::new().insert_edge(u, hub, 0.5);
        let report = index.apply_delta(&d).unwrap();
        assert_eq!(report.version, 1);
        assert!(
            report.dirty_chunks_r2 > 0,
            "hub delta must dirty the sketch"
        );
        assert_eq!(
            report.dirty_sets_r2,
            report.dirty_chunks_r2 * sketch_config().chunk_size,
            "sketched dirtiness is whole chunks"
        );

        let mut fresh_vg = VersionedGraph::new(g).unwrap();
        fresh_vg.apply(&d).unwrap();
        let mut fresh = DeltaIndex::from_versioned(fresh_vg, sketch_config());
        fresh.warm(index.pool_len()).unwrap();
        assert_eq!(fresh.pool_len(), index.pool_len());
        for i in 0..index.pool_len() {
            assert_eq!(
                index.selection_pool().get(i),
                fresh.selection_pool().get(i),
                "r1 {i}"
            );
        }
        assert_eq!(index.sketch_state(), fresh.sketch_state());
        let a = index.query(4, 0.1, 0.01).unwrap();
        let b = fresh.query(4, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
        assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
    }

    #[test]
    fn sketched_snapshot_round_trips() {
        let dir = std::env::temp_dir().join("subsim_delta_sketch_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.subsimix");
        let g = barabasi_albert(200, 3, WeightModel::Wc, 40);
        let mut index = DeltaIndex::new(g.clone(), sketch_config()).unwrap();
        index.warm(320).unwrap();
        index.save_snapshot(&path).unwrap();
        let mut reloaded = DeltaIndex::load_snapshot(g, sketch_config(), &path).unwrap();
        assert_eq!(reloaded.pool_len(), index.pool_len());
        assert_eq!(reloaded.validation_pool().len(), 0);
        assert_eq!(reloaded.sketch_state(), index.sketch_state());
        // The reloaded index continues the identical chunk stream.
        index.warm(640).unwrap();
        reloaded.warm(640).unwrap();
        assert_eq!(reloaded.sketch_state(), index.sketch_state());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sentinel_snapshot_round_trips() {
        let dir = std::env::temp_dir().join("subsim_delta_sentinel_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.subsimix");
        let g = barabasi_albert(200, 3, WeightModel::Wc, 37);
        let mut index = DeltaIndex::new(g.clone(), sentinel_config()).unwrap();
        index.warm(320).unwrap();
        index.save_snapshot(&path).unwrap();
        let reloaded = DeltaIndex::load_snapshot(g, sentinel_config(), &path).unwrap();
        let a = index.sentinel_state().unwrap();
        let b = reloaded.sentinel_state().expect("sentinel state reloaded");
        assert_eq!(a.set.nodes(), b.set.nodes());
        assert_eq!(a.from_chunk, b.from_chunk);
        assert_eq!(a.chunk_hits_r1, b.chunk_hits_r1);
        assert_eq!(a.chunk_hits_r2, b.chunk_hits_r2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_round_trip_and_stale_rejection() {
        let dir = std::env::temp_dir().join("subsim_delta_index_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pool.subsimix");
        let g = barabasi_albert(150, 3, WeightModel::Wc, 33);
        let mut index = DeltaIndex::new(g.clone(), config()).unwrap();
        index.warm(200).unwrap();
        index.save_snapshot(&path).unwrap();

        let reloaded = DeltaIndex::load_snapshot(g.clone(), config(), &path).unwrap();
        assert_eq!(reloaded.pool_len(), index.pool_len());
        for i in 0..index.pool_len() {
            assert_eq!(
                reloaded.selection_pool().get(i),
                index.selection_pool().get(i)
            );
        }

        // Mutate, snapshot at version 1, then try loading it against
        // version 0: typed SnapshotMismatch, no panic.
        index
            .apply_delta(&GraphDelta::new().insert_edge(0, 149, 0.5))
            .unwrap();
        index.save_snapshot(&path).unwrap();
        let err = DeltaIndex::load_snapshot(g, config(), &path).unwrap_err();
        assert!(
            matches!(err, DeltaError::Index(IndexError::SnapshotMismatch { .. })),
            "got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }
}
