//! Concurrent serving over a versioned graph: shared `&self` queries,
//! writer-serialized growth *and* delta application, version-pinned reads.
//!
//! [`ConcurrentDeltaIndex`] extends the `ConcurrentRrIndex` snapshot
//! pattern to a mutable graph. Each published [`DeltaSnapshot`] pins a
//! complete serving state — the graph `Arc` at one version, its
//! fingerprint, both pool halves, and the chunk cursor — so a reader's
//! view can never tear across a delta: it either sees the pool entirely
//! before a mutation or entirely after its repair, never a mix.
//!
//! Applying a delta invalidates every previously loaded snapshot in the
//! semantic sense (they describe an old graph version) without breaking
//! them in the memory sense: old `Arc`s stay readable, and a caller that
//! needs version stability pins it explicitly with
//! [`ConcurrentDeltaIndex::query_at_version`], which fails with a typed
//! [`DeltaError::StaleVersion`] instead of silently answering on a newer
//! graph.

use crate::delta::GraphDelta;
use crate::error::DeltaError;
use crate::index::DeltaIndex;
use crate::repair::{repair_pool, RepairReport};
use crate::versioned::VersionedGraph;
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;
use subsim_core::bounds::{i_max, theta_max_opim, theta_zero};
use subsim_core::sentinel::SentinelSet;
use subsim_core::ImOptions;
use subsim_diffusion::pool::WorkerPool;
use subsim_diffusion::{RrCollection, RrSampler};
use subsim_graph::Graph;
use subsim_index::{
    IndexConfig, IndexError, IndexMetrics, MetricsSnapshot, PoolView, QueryAnswer, QueryStats,
    SentinelState, TraceCell, R2_STREAM, SENTINEL_WARMUP_CHUNKS,
};
use subsim_sketch::{SketchedPool, MAX_PRECISION};

/// One immutable published serving state: the graph at one version plus
/// the pool generated (or repaired) against exactly that version.
#[derive(Debug)]
pub struct DeltaSnapshot {
    graph: Arc<Graph>,
    version: u64,
    fingerprint: u64,
    r1: RrCollection,
    r2: RrCollection,
    chunks: u64,
    /// Sentinel tier state at publish time; immutable like the halves.
    sentinel: Option<SentinelState>,
    /// Sketched validation tier at publish time: when active, `r2` stays
    /// empty and validation runs over per-node count-distinct sketches.
    sketch: Option<SketchedPool>,
    /// This snapshot's selection trace, built by its first
    /// certification round (never carried into a successor).
    trace: TraceCell,
}

impl DeltaSnapshot {
    /// The certification view of this snapshot.
    fn view(&self, threads: usize) -> PoolView<'_> {
        PoolView::single(
            &self.graph,
            &self.r1,
            &self.r2,
            self.sentinel.as_ref(),
            self.sketch.as_ref(),
            threads,
        )
    }

    /// Refreshes `metrics`' resident-memory gauges from this snapshot.
    fn record_gauges(&self, metrics: &IndexMetrics) {
        metrics.record_pools([&self.r1, &self.r2], self.sketch.as_ref());
    }

    /// The graph version this snapshot serves.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Structural fingerprint of [`DeltaSnapshot::graph`].
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The graph at this snapshot's version.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Sets per pool half.
    pub fn pool_len(&self) -> usize {
        self.r1.len()
    }

    /// The RNG cursor: complete chunks generated per half.
    pub fn chunk_cursor(&self) -> u64 {
        self.chunks
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
}

/// The mutable side, serialized behind one mutex: the versioned graph
/// (authoritative for "current version") and the persistent generation
/// workers. Pool state lives only in published snapshots.
struct WriterState {
    vg: VersionedGraph,
    workers: WorkerPool,
}

/// A concurrently queryable [`DeltaIndex`]: `&self` queries from any
/// number of threads, pool growth and delta application serialized
/// through one writer, every state change published as an immutable
/// [`DeltaSnapshot`].
///
/// ```
/// use subsim_delta::{ConcurrentDeltaIndex, DeltaError, GraphDelta};
/// use subsim_diffusion::RrStrategy;
/// use subsim_graph::{generators, WeightModel};
/// use subsim_index::IndexConfig;
///
/// let g = generators::star_graph(50, WeightModel::UniformIc { p: 0.4 });
/// let index =
///     ConcurrentDeltaIndex::new(g, IndexConfig::new(RrStrategy::SubsimIc).seed(3)).unwrap();
/// let ans = index.query(1, 0.1, 0.01).unwrap();
/// assert_eq!(ans.seeds, vec![0]);
/// index.apply_delta(&GraphDelta::new().insert_edge(1, 2, 0.9)).unwrap();
/// // A reader pinned to version 0 now gets a typed error, not stale data.
/// assert!(matches!(
///     index.query_at_version(0, 1, 0.1, 0.01),
///     Err(DeltaError::StaleVersion { requested: 0, current: 1 })
/// ));
/// ```
pub struct ConcurrentDeltaIndex {
    config: IndexConfig,
    snapshot: RwLock<Arc<DeltaSnapshot>>,
    writer: Mutex<WriterState>,
    metrics: IndexMetrics,
}

impl std::fmt::Debug for ConcurrentDeltaIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.load();
        f.debug_struct("ConcurrentDeltaIndex")
            .field("config", &self.config)
            .field("version", &snap.version)
            .field("chunks", &snap.chunks)
            .field("pool_len", &snap.pool_len())
            .finish_non_exhaustive()
    }
}

impl ConcurrentDeltaIndex {
    /// An empty concurrent index over version 0 of `g`
    /// (storage-normalized; see [`VersionedGraph`]).
    pub fn new(g: Graph, config: IndexConfig) -> Result<Self, DeltaError> {
        Ok(Self::from_index(DeltaIndex::new(g, config)?))
    }

    /// Wraps a sequential [`DeltaIndex`] (possibly warmed or loaded from
    /// a snapshot file) for concurrent serving. The pool and version
    /// carry over unchanged; metrics restart.
    pub fn from_index(index: DeltaIndex) -> Self {
        let (vg, config, r1, r2, chunks, sentinel, sketch) = index.into_raw_parts();
        let snap = DeltaSnapshot {
            graph: vg.graph_arc(),
            version: vg.version(),
            fingerprint: vg.fingerprint(),
            r1,
            r2,
            chunks,
            sentinel,
            sketch,
            trace: TraceCell::default(),
        };
        let metrics = IndexMetrics::default();
        snap.record_gauges(&metrics);
        ConcurrentDeltaIndex {
            config,
            snapshot: RwLock::new(Arc::new(snap)),
            writer: Mutex::new(WriterState {
                vg,
                workers: WorkerPool::new(config.threads),
            }),
            metrics,
        }
    }

    /// Converts back into a sequential index over the current snapshot
    /// (e.g. to [`DeltaIndex::save_snapshot`] it). Requires exclusive
    /// ownership, so no reader can be left holding a stale view.
    pub fn into_index(self) -> DeltaIndex {
        let ws = self.writer.into_inner().expect("writer lock poisoned");
        let snap = self.snapshot.into_inner().expect("snapshot lock poisoned");
        let snap = Arc::try_unwrap(snap).unwrap_or_else(|arc| DeltaSnapshot {
            graph: Arc::clone(&arc.graph),
            version: arc.version,
            fingerprint: arc.fingerprint,
            r1: arc.r1.clone(),
            r2: arc.r2.clone(),
            chunks: arc.chunks,
            sentinel: arc.sentinel.clone(),
            sketch: arc.sketch.clone(),
            trace: TraceCell::default(),
        });
        let mut config = self.config;
        // The ladder may have promoted past the construction-time
        // precision; the live sketch is authoritative.
        if let Some(sk) = &snap.sketch {
            config.sketch = sk.precision() as usize;
        }
        DeltaIndex::from_raw_parts(
            ws.vg,
            config,
            snap.r1,
            snap.r2,
            snap.chunks,
            snap.sentinel,
            snap.sketch,
        )
    }

    /// The construction-time configuration.
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// The currently served graph version.
    pub fn version(&self) -> u64 {
        self.load().version
    }

    /// Structural fingerprint of the currently served graph.
    pub fn fingerprint(&self) -> u64 {
        self.load().fingerprint
    }

    /// The current published snapshot. The returned `Arc` is a stable
    /// view: its content never changes, even while the writer publishes
    /// successors or applies deltas.
    pub fn load(&self) -> Arc<DeltaSnapshot> {
        Arc::clone(&self.snapshot.read().expect("snapshot lock poisoned"))
    }

    /// A point-in-time copy of the serving metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Test-only fault injection: forwards a chunk hook to the writer's
    /// worker pool (see [`subsim_diffusion::WorkerPool::set_chunk_hook`]).
    #[doc(hidden)]
    pub fn set_chunk_hook(&self, hook: Option<subsim_diffusion::ChunkHook>) {
        self.writer
            .lock()
            .expect("writer lock poisoned")
            .workers
            .set_chunk_hook(hook);
    }

    /// Pre-grows the pool to at least `sets` per half on the current
    /// graph version.
    pub fn warm(&self, sets: usize) -> Result<(), DeltaError> {
        self.grow_to(sets)?;
        Ok(())
    }

    /// Answers one IM query against the latest published version;
    /// semantics per query match [`DeltaIndex::query`]. If a delta lands
    /// between certification rounds the query continues on the repaired
    /// (newer) snapshot — use [`ConcurrentDeltaIndex::query_at_version`]
    /// to demand version stability instead.
    pub fn query(&self, k: usize, epsilon: f64, delta: f64) -> Result<QueryAnswer, DeltaError> {
        self.query_inner(k, epsilon, delta, None)
    }

    /// Like [`ConcurrentDeltaIndex::query`], but pinned: fails with
    /// [`DeltaError::StaleVersion`] if the served version is not exactly
    /// `version` when the query starts or after any growth round — the
    /// certification itself always runs on one immutable snapshot, so a
    /// successful answer is entirely version-`version` data.
    pub fn query_at_version(
        &self,
        version: u64,
        k: usize,
        epsilon: f64,
        delta: f64,
    ) -> Result<QueryAnswer, DeltaError> {
        self.query_inner(k, epsilon, delta, Some(version))
    }

    fn query_inner(
        &self,
        k: usize,
        epsilon: f64,
        delta: f64,
        pin: Option<u64>,
    ) -> Result<QueryAnswer, DeltaError> {
        let mut snap = self.load();
        check_pin(pin, &snap)?;
        let opts = ImOptions::new(k).epsilon(epsilon).delta(delta);
        opts.validate(&snap.graph).map_err(IndexError::from)?;
        let start = Instant::now();
        let n = snap.graph.n();
        let target = 1.0 - (-1.0f64).exp() - epsilon;
        let theta_max = theta_max_opim(n, k, epsilon, delta);
        let theta0 = theta_zero(delta);
        let imax = i_max(theta_max, theta0);
        let delta_iter = delta / (3.0 * imax as f64);

        let pool_before = snap.pool_len();
        let mut fresh = 0usize;
        if snap.pool_len() < theta0 as usize {
            let (grown, added) = self.grow_to(theta0 as usize)?;
            snap = grown;
            check_pin(pin, &snap)?;
            fresh += added;
        }
        let mut rounds = 0u32;
        loop {
            rounds += 1;
            // One tier-aware round (plain, sentinel or sketched), read
            // from the snapshot's selection trace when it reaches `k`.
            let round = snap.trace.certify(
                || snap.view(self.config.threads),
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
                    elapsed: start.elapsed(),
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
                    check_pin(pin, &snap)?;
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
            check_pin(pin, &snap)?;
            fresh += added;
        }
    }

    /// Error-adaptive ladder step: regenerates the `R₂` chunk stream at
    /// the next register precision above `observed` and publishes the
    /// promoted snapshot, exactly as the sequential index does. If a
    /// racing thread already promoted (or a delta landed) past
    /// `observed`, the current snapshot is returned with no work done
    /// (the caller re-evaluates).
    fn promote_sketch(&self, observed: u8) -> Result<(Arc<DeltaSnapshot>, usize), DeltaError> {
        let ws = self.writer.lock().expect("writer lock poisoned");
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
        let graph = ws.vg.graph_arc();
        let sampler = RrSampler::new(&graph, self.config.strategy);
        let mut fresh = SketchedPool::new(graph.n(), chunk, precision);
        let mut start = 0u64;
        let mut regenerated = 0usize;
        while start < base.chunks {
            let end = base.chunks.min(start + slice);
            let b = ws.workers.try_generate_chunks(
                &sampler,
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
        let snap = Arc::new(DeltaSnapshot {
            graph: Arc::clone(&base.graph),
            version: base.version,
            fingerprint: base.fingerprint,
            r1: base.r1.clone(),
            r2: base.r2.clone(),
            chunks: base.chunks,
            sentinel: base.sentinel.clone(),
            sketch: Some(fresh),
            trace: TraceCell::default(),
        });
        self.publish(Arc::clone(&snap));
        Ok((snap, regenerated))
    }

    /// Applies `delta` to the graph and publishes a repaired snapshot at
    /// the next version. Readers holding older snapshots keep them (their
    /// `Arc`s stay valid); pinned queries against the old version fail
    /// with [`DeltaError::StaleVersion`] from then on.
    ///
    /// On error (validation failure, or a worker panic during repair),
    /// nothing is published and the served version does not change: the
    /// mutation is staged on a copy of the versioned graph and committed
    /// only after both halves repaired, so `ws.vg` can never run ahead of
    /// the published pool.
    pub fn apply_delta(&self, delta: &GraphDelta) -> Result<RepairReport, DeltaError> {
        let start = Instant::now();
        let mut ws = self.writer.lock().expect("writer lock poisoned");
        let mut staged = ws.vg.clone();
        staged.apply(delta)?;
        let base = self.load();
        let targets = delta.targets();
        let graph = staged.graph_arc();
        let sampler = RrSampler::new(&graph, self.config.strategy);
        let chunk = self.config.chunk_size;
        let threads = self.config.threads;
        let out = repair_pool(
            &base.r1,
            &base.r2,
            base.sentinel.as_ref(),
            base.sketch.as_ref(),
            base.chunks,
            delta,
            &graph,
            self.config.sentinels,
            &sampler,
            &ws.workers,
            chunk,
            self.config.seed,
            threads,
        )?;
        drop(sampler);
        ws.vg = staged;
        let snap = Arc::new(DeltaSnapshot {
            graph,
            version: ws.vg.version(),
            fingerprint: ws.vg.fingerprint(),
            r1: out.r1,
            r2: out.r2,
            chunks: base.chunks,
            sentinel: out.sentinel,
            sketch: out.sketch,
            trace: TraceCell::default(),
        });
        self.publish(Arc::clone(&snap));
        let dirty_chunks = out.dirty_chunks_r1 + out.dirty_chunks_r2;
        let regenerated = dirty_chunks * chunk;
        let report = RepairReport {
            version: snap.version,
            targets: targets.len(),
            dirty_sets_r1: out.dirty_sets_r1,
            dirty_sets_r2: out.dirty_sets_r2,
            dirty_chunks_r1: out.dirty_chunks_r1,
            dirty_chunks_r2: out.dirty_chunks_r2,
            regenerated_sets: regenerated,
            pool_sets: snap.r1.len()
                + snap
                    .sketch
                    .as_ref()
                    .map_or(snap.r2.len(), |sk| sk.len_sets()),
            sentinel_refreshed: out.sentinel_refreshed,
            elapsed: start.elapsed(),
        };
        self.metrics
            .record_repair(regenerated as u64, dirty_chunks as u64, report.elapsed);
        Ok(report)
    }

    /// Grows the pool to at least `target_sets` per half on the current
    /// graph version, continuing the deterministic chunk stream. Returns
    /// the snapshot to continue with plus how many sets this call freshly
    /// generated (both halves combined — `0` when another thread had
    /// already grown past the target).
    fn grow_to(&self, target_sets: usize) -> Result<(Arc<DeltaSnapshot>, usize), DeltaError> {
        let chunk = self.config.chunk_size;
        let needed_chunks = target_sets.div_ceil(chunk) as u64;
        {
            let snap = self.load();
            if snap.chunks >= needed_chunks {
                return Ok((snap, 0));
            }
        }
        let ws = self.writer.lock().expect("writer lock poisoned");
        // Re-check under the guard: the pool may have grown (or been
        // repaired onto a newer version) while this thread waited.
        let base = self.load();
        if base.chunks >= needed_chunks {
            return Ok((base, 0));
        }
        // Under the writer lock the published snapshot and `ws.vg` are in
        // step: every publish happens inside this critical section.
        debug_assert_eq!(base.version, ws.vg.version());
        let graph = ws.vg.graph_arc();
        let sampler = RrSampler::new(&graph, self.config.strategy);

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
                // A sketched R₂ counts its resident bytes in 4-byte
                // node-entry equivalents, keeping the budget unit
                // consistent.
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
            // tier, exactly as the sequential index does.
            if self.config.sentinels > 0 && sentinel.is_none() && chunks >= SENTINEL_WARMUP_CHUNKS {
                sentinel = Some(SentinelState {
                    set: SentinelSet::select(&[&r1], &graph, self.config.sentinels),
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
            let b1 = ws.workers.try_generate_chunks(
                &sampler,
                z,
                chunks..end,
                chunk,
                self.config.seed,
            )?;
            let b2 = ws.workers.try_generate_chunks(
                &sampler,
                z,
                chunks..end,
                chunk,
                self.config.seed ^ R2_STREAM,
            )?;
            if let Some(st) = sentinel.as_mut() {
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
            if let Some(sk) = sketch.as_mut() {
                sk.absorb_batch(chunks, &b2.rr);
            } else {
                r2.extend_from(&b2.rr);
            }
            chunks = end;
        }

        let snap = Arc::new(DeltaSnapshot {
            graph,
            version: base.version,
            fingerprint: base.fingerprint,
            r1,
            r2,
            chunks,
            sentinel,
            sketch,
            trace: TraceCell::default(),
        });
        if added > 0 {
            self.publish(Arc::clone(&snap));
        }
        match budget_err {
            Some(err) => Err(err.into()),
            None => Ok((snap, added)),
        }
    }

    fn publish(&self, snap: Arc<DeltaSnapshot>) {
        snap.record_gauges(&self.metrics);
        *self.snapshot.write().expect("snapshot lock poisoned") = snap;
        self.metrics
            .snapshot_publishes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

fn check_pin(pin: Option<u64>, snap: &DeltaSnapshot) -> Result<(), DeltaError> {
    match pin {
        Some(requested) if requested != snap.version => Err(DeltaError::StaleVersion {
            requested,
            current: snap.version,
        }),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use subsim_diffusion::RrStrategy;
    use subsim_graph::generators::barabasi_albert;
    use subsim_graph::WeightModel;

    fn config() -> IndexConfig {
        IndexConfig::new(RrStrategy::SubsimIc)
            .seed(11)
            .chunk_size(32)
            .threads(2)
    }

    #[test]
    fn matches_sequential_delta_index_when_unraced() {
        let g = barabasi_albert(250, 3, WeightModel::Wc, 41);
        let mut seq = DeltaIndex::new(g.clone(), config()).unwrap();
        let conc = ConcurrentDeltaIndex::new(g, config()).unwrap();
        let d = GraphDelta::new().insert_edge(7, 3, 0.6).delete_edge(1, 0);
        // Interleave: query, delta, query — both indexes step in lockstep.
        let a1 = seq.query(4, 0.1, 0.01).unwrap();
        let b1 = conc.query(4, 0.1, 0.01).unwrap();
        assert_eq!(a1.seeds, b1.seeds);
        let ra = seq.apply_delta(&d).unwrap();
        let rb = conc.apply_delta(&d).unwrap();
        assert_eq!(ra.dirty_chunks_r1, rb.dirty_chunks_r1);
        assert_eq!(ra.dirty_sets_r2, rb.dirty_sets_r2);
        assert_eq!(ra.regenerated_sets, rb.regenerated_sets);
        let a2 = seq.query(4, 0.1, 0.01).unwrap();
        let b2 = conc.query(4, 0.1, 0.01).unwrap();
        assert_eq!(a2.seeds, b2.seeds);
        assert_eq!(a2.stats.lower_bound, b2.stats.lower_bound);
        assert_eq!(a2.stats.upper_bound, b2.stats.upper_bound);
        assert_eq!(conc.version(), 1);
    }

    #[test]
    fn pinned_queries_reject_stale_versions() {
        let g = barabasi_albert(200, 3, WeightModel::Wc, 42);
        let conc = ConcurrentDeltaIndex::new(g, config()).unwrap();
        conc.warm(128).unwrap();
        let v0 = conc.version();
        conc.query_at_version(v0, 3, 0.1, 0.01).unwrap();
        conc.apply_delta(&GraphDelta::new().insert_edge(0, 199, 0.5))
            .unwrap();
        let err = conc.query_at_version(v0, 3, 0.1, 0.01).unwrap_err();
        assert!(
            matches!(
                err,
                DeltaError::StaleVersion {
                    requested: 0,
                    current: 1
                }
            ),
            "got {err:?}"
        );
        conc.query_at_version(1, 3, 0.1, 0.01).unwrap();
    }

    #[test]
    fn old_snapshots_stay_readable_after_delta() {
        let g = barabasi_albert(200, 3, WeightModel::Wc, 43);
        let conc = ConcurrentDeltaIndex::new(g, config()).unwrap();
        conc.warm(128).unwrap();
        let before = conc.load();
        let first: Vec<_> = (0..before.pool_len())
            .map(|i| before.selection_pool().get(i).to_vec())
            .collect();
        let hub = (0..before.graph().n() as u32)
            .max_by_key(|&v| before.graph().in_degree(v))
            .unwrap();
        let u = (0..before.graph().n() as u32)
            .find(|&u| before.graph().prob_of_edge(u, hub).is_none())
            .expect("some node lacks an edge to the hub");
        conc.apply_delta(&GraphDelta::new().insert_edge(u, hub, 0.7))
            .unwrap();
        // The old Arc still shows exactly the old pool and old graph.
        assert_eq!(before.version(), 0);
        for (i, rr) in first.iter().enumerate() {
            assert_eq!(before.selection_pool().get(i), rr.as_slice());
        }
        // The new snapshot is at version 1 with a changed fingerprint.
        let after = conc.load();
        assert_eq!(after.version(), 1);
        assert_ne!(after.fingerprint(), before.fingerprint());
        assert_eq!(after.pool_len(), before.pool_len());
    }

    #[test]
    fn concurrent_queries_race_deltas_without_tearing() {
        let g = barabasi_albert(300, 3, WeightModel::Wc, 44);
        let conc = ConcurrentDeltaIndex::new(g, config()).unwrap();
        conc.warm(256).unwrap();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..5 {
                        let ans = conc.query(4, 0.15, 0.05).unwrap();
                        assert_eq!(ans.seeds.len(), 4);
                    }
                });
            }
            s.spawn(|| {
                for i in 0..4u32 {
                    conc.apply_delta(&GraphDelta::new().insert_edge(i, 299 - i, 0.3))
                        .unwrap();
                }
            });
        });
        assert_eq!(conc.version(), 4);
        let m = conc.metrics();
        assert_eq!(m.deltas_applied, 4);
        assert_eq!(m.queries, 15);
    }

    #[test]
    fn sentinel_serving_matches_sequential_across_deltas() {
        let cfg = config().sentinels(2);
        let g = barabasi_albert(250, 3, WeightModel::Wc, 46);
        let mut seq = DeltaIndex::new(g.clone(), cfg).unwrap();
        let conc = ConcurrentDeltaIndex::new(g, cfg).unwrap();
        seq.warm(320).unwrap();
        conc.warm(320).unwrap();
        {
            let snap = conc.load();
            let a = seq.sentinel_state().expect("sequential sentinel active");
            let b = snap.sentinel_state().expect("concurrent sentinel active");
            assert_eq!(a.set.nodes(), b.set.nodes());
            assert_eq!(a.from_chunk, b.from_chunk);
            assert_eq!(a.chunk_hits_r1, b.chunk_hits_r1);
            assert_eq!(a.chunk_hits_r2, b.chunk_hits_r2);
        }
        // A non-stale delta: endpoints avoid Z, both indexes repair to
        // the same pool and keep the same Z.
        let z = seq.sentinel_state().unwrap().set.nodes().to_vec();
        let g_now = seq.graph();
        let hub = (0..g_now.n() as u32)
            .filter(|v| !z.contains(v))
            .max_by_key(|&v| g_now.in_degree(v))
            .unwrap();
        let u = (0..g_now.n() as u32)
            .find(|&u| !z.contains(&u) && u != hub && g_now.prob_of_edge(u, hub).is_none())
            .unwrap();
        let d = GraphDelta::new().insert_edge(u, hub, 0.5);
        let ra = seq.apply_delta(&d).unwrap();
        let rb = conc.apply_delta(&d).unwrap();
        assert!(!ra.sentinel_refreshed);
        assert!(!rb.sentinel_refreshed);
        assert_eq!(ra.regenerated_sets, rb.regenerated_sets);
        let snap = conc.load();
        for i in 0..seq.pool_len() {
            assert_eq!(seq.selection_pool().get(i), snap.selection_pool().get(i));
            assert_eq!(seq.validation_pool().get(i), snap.validation_pool().get(i));
        }
        let a = seq.query(3, 0.1, 0.01).unwrap();
        let b = conc.query(3, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
        assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
        assert!(a.stats.certified_by_bounds);
        // A stale delta: both refresh and stay in lockstep (same Z' —
        // selection is deterministic over the same repaired prefix).
        let z = seq.sentinel_state().unwrap().set.nodes().to_vec();
        let g_now = seq.graph();
        let u = (0..g_now.n() as u32)
            .find(|&u| !z.contains(&u) && g_now.prob_of_edge(u, z[0]).is_none())
            .unwrap();
        let d = GraphDelta::new().insert_edge(u, z[0], 0.9);
        let ra = seq.apply_delta(&d).unwrap();
        let rb = conc.apply_delta(&d).unwrap();
        assert!(ra.sentinel_refreshed);
        assert!(rb.sentinel_refreshed);
        let snap = conc.load();
        let a = seq.sentinel_state().unwrap();
        let b = snap.sentinel_state().unwrap();
        assert_eq!(a.set.nodes(), b.set.nodes());
        assert_eq!(a.chunk_hits_r1, b.chunk_hits_r1);
        for i in 0..seq.pool_len() {
            assert_eq!(seq.selection_pool().get(i), snap.selection_pool().get(i));
        }
        let a = seq.query(3, 0.1, 0.01).unwrap();
        let b = conc.query(3, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds);
    }

    #[test]
    fn sketched_serving_matches_sequential_across_deltas() {
        let cfg = config().sketch(6);
        let g = barabasi_albert(250, 3, WeightModel::Wc, 47);
        let mut seq = DeltaIndex::new(g.clone(), cfg).unwrap();
        let conc = ConcurrentDeltaIndex::new(g, cfg).unwrap();
        seq.warm(320).unwrap();
        conc.warm(320).unwrap();
        {
            let snap = conc.load();
            assert_eq!(snap.validation_pool().len(), 0, "sketched R2 stays empty");
            assert_eq!(seq.sketch_state(), snap.sketch_state());
        }
        let g_now = seq.graph();
        let hub = (0..g_now.n() as u32)
            .max_by_key(|&v| g_now.in_degree(v))
            .unwrap();
        let u = (0..g_now.n() as u32)
            .find(|&u| g_now.prob_of_edge(u, hub).is_none())
            .unwrap();
        let d = GraphDelta::new().insert_edge(u, hub, 0.5);
        let ra = seq.apply_delta(&d).unwrap();
        let rb = conc.apply_delta(&d).unwrap();
        assert_eq!(ra.dirty_chunks_r2, rb.dirty_chunks_r2);
        assert_eq!(ra.regenerated_sets, rb.regenerated_sets);
        let snap = conc.load();
        assert_eq!(seq.sketch_state(), snap.sketch_state());
        for i in 0..seq.pool_len() {
            assert_eq!(seq.selection_pool().get(i), snap.selection_pool().get(i));
        }
        let a = seq.query(4, 0.1, 0.01).unwrap();
        let b = conc.query(4, 0.1, 0.01).unwrap();
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.stats.lower_bound, b.stats.lower_bound);
        assert_eq!(a.stats.upper_bound, b.stats.upper_bound);
        // Whatever the ladder did during the queries, both stacks must
        // agree on it — including through into_index.
        let snap = conc.load();
        assert_eq!(seq.sketch_state(), snap.sketch_state());
        let back = conc.into_index();
        assert_eq!(back.config().sketch, seq.config().sketch);
        assert_eq!(back.sketch_state(), seq.sketch_state());
    }

    #[test]
    fn round_trips_through_sequential_index() {
        let g = barabasi_albert(150, 3, WeightModel::Wc, 45);
        let mut seq = DeltaIndex::new(g, config()).unwrap();
        seq.warm(128).unwrap();
        seq.apply_delta(&GraphDelta::new().insert_edge(2, 149, 0.4))
            .unwrap();
        let conc = ConcurrentDeltaIndex::from_index(seq);
        assert_eq!(conc.version(), 1);
        let pool_len = conc.load().pool_len();
        let back = conc.into_index();
        assert_eq!(back.version(), 1);
        assert_eq!(back.pool_len(), pool_len);
    }
}
