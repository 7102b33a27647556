//! Shared server state: the named-graph registry, the artifact cache, the
//! stage-set cache, and the counters behind `/stats`.
//!
//! One [`AppState`] is shared by every worker thread through an `Arc`. The
//! registry maps graph ids to [`SharedGraph`]s — uploading a v3 snapshot
//! registers a *mapped* graph whose CSR arrays live in one buffer that all
//! concurrent sessions borrow (an upload is stored once no matter how many
//! workers render from it); any other format parses into an owned graph
//! behind the same `Arc`. Locking is coarse but short: the registry is a
//! `RwLock` (reads vastly dominate), the caches `Mutex`es held only for
//! lookup/insert — renders always run outside every lock.
//!
//! The stage-set cache holds each graph generation's whole-graph stages
//! ([`StageSet`]: scalar, super tree, scene) per measure, so artifact misses
//! render from them instead of recomputing them. A set is built on first
//! demand, single-flight: each key owns a `OnceLock`, and concurrent
//! misses on one key block on the one build. Replacing or removing a graph
//! retires its sets, and at most [`MAX_STAGE_SETS`] are resident.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Duration;

use crate::cache::LruCache;
use crate::error::ApiError;
use graph_terrain::{Measure, SharedGraph, StageSet, StageTimings};
use measures::Parallelism;

/// Most stage sets resident at once. A set costs a few bytes per vertex
/// plus the super tree (a few MB at a million edges); a graph mostly
/// needs one per measure in use, and the least recently used set goes
/// first.
pub const MAX_STAGE_SETS: usize = 8;

/// Tunables fixed at server start.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Artifact-cache entry bound.
    pub cache_entries: usize,
    /// Artifact-cache byte bound.
    pub cache_bytes: usize,
    /// Largest accepted request body (graph uploads).
    pub max_body_bytes: usize,
    /// Socket timeout for reads and writes (bounds how long a slow,
    /// silent or non-reading client can hold a worker).
    pub socket_timeout: Duration,
    /// Accepted connections queued ahead of the workers; a connection
    /// arriving at a full queue is answered `503` with `Retry-After`.
    pub pending_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            cache_entries: 128,
            cache_bytes: 64 << 20,
            max_body_bytes: 64 << 20,
            socket_timeout: Duration::from_secs(10),
            pending_connections: 64,
        }
    }
}

/// One registered graph.
#[derive(Clone, Debug)]
pub struct GraphEntry {
    /// The registry id (path segment in `/graphs/{id}/...`).
    pub id: String,
    /// The graph itself, shared across sessions.
    pub graph: SharedGraph,
    /// How many times the graph under this id has been replaced by a delta.
    /// Cache keys embed the generation, so a mutation changes every key —
    /// and with it every key-derived ETag — while the old graph's entries
    /// are evicted by id prefix. Without this, a client holding a
    /// pre-mutation ETag would keep getting `304 Not Modified` for bytes
    /// that no longer exist.
    pub generation: u64,
}

/// Per-stage wall-clock totals accumulated across every cache-miss render,
/// reported by `/stats` (the served-traffic analog of the per-run
/// [`StageTimings`]). Only stages that ran are counted: a stage-set build
/// adds its scalar, tree, super-tree and scene seconds once, and the
/// renders served from the set add only their own downstream stages.
#[derive(Clone, Debug, Default)]
pub struct StageTotals {
    /// Artifact renders (cache misses that rendered).
    pub renders: u64,
    /// Summed seconds per stage, in pipeline order.
    pub scalar_seconds: f64,
    /// Scalar-tree construction.
    pub tree_seconds: f64,
    /// Super-tree merge.
    pub super_tree_seconds: f64,
    /// Simplification.
    pub simplify_seconds: f64,
    /// 2D layout.
    pub layout_seconds: f64,
    /// Mesh extrusion.
    pub mesh_seconds: f64,
    /// SVG/exporter serialization.
    pub svg_seconds: f64,
    /// Retained LOD scene builds (tile and scene routes).
    pub scene_seconds: f64,
}

impl StageTotals {
    /// Add the stages that ran in one session or stage-set build.
    pub fn absorb(&mut self, t: &StageTimings) {
        self.scalar_seconds += t.scalar_seconds.unwrap_or(0.0);
        self.tree_seconds += t.tree_seconds.unwrap_or(0.0);
        self.super_tree_seconds += t.super_tree_seconds.unwrap_or(0.0);
        self.simplify_seconds += t.simplify_seconds.unwrap_or(0.0);
        self.layout_seconds += t.layout_seconds.unwrap_or(0.0);
        self.mesh_seconds += t.mesh_seconds.unwrap_or(0.0);
        self.svg_seconds += t.svg_seconds.unwrap_or(0.0);
        self.scene_seconds += t.scene_seconds.unwrap_or(0.0);
    }
}

/// A stage set's identity: the graph entry's id and delta generation and
/// the measure (sampled betweenness keys on its samples and seed).
#[derive(Clone, Debug, PartialEq)]
struct StageSetKey {
    id: String,
    generation: u64,
    measure: Measure,
}

/// One key's single-flight slot: the first miss builds, the rest wait.
type StageSlot = OnceLock<Result<Arc<StageSet>, ApiError>>;

/// Stage-set cache counters, reported by `/stats` under `stage_sets`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct StageSetStats {
    /// Sets built (each build runs the whole-graph stages once).
    pub builds: u64,
    /// Lookups that found their set already built.
    pub reuses: u64,
    /// Lookups that blocked on another request's build of their set.
    pub waits: u64,
    /// Sets resident now.
    pub resident: usize,
}

/// Everything the workers share.
pub struct AppState {
    /// The start-time configuration (echoed by `/stats`).
    pub config: ServerConfig,
    registry: RwLock<BTreeMap<String, Arc<GraphEntry>>>,
    /// The artifact cache.
    pub cache: Mutex<LruCache>,
    /// Stage-seconds accumulated across cache-miss renders.
    pub stage_totals: Mutex<StageTotals>,
    /// Resident stage sets, least recently used first.
    stage_sets: Mutex<VecDeque<(StageSetKey, Arc<StageSlot>)>>,
    stage_set_builds: AtomicU64,
    stage_set_reuses: AtomicU64,
    stage_set_waits: AtomicU64,
    next_id: AtomicU64,
    /// Requests whose response was written in full (any status).
    pub requests_served: AtomicU64,
    /// Connections currently inside a worker.
    pub in_flight: AtomicU64,
    /// Responses with status >= 400.
    pub error_responses: AtomicU64,
    /// Connections dropped without a complete response (the peer
    /// vanished, or stopped reading past the socket timeout).
    pub dropped_connections: AtomicU64,
    /// `304 Not Modified` responses served from `If-None-Match`.
    pub not_modified: AtomicU64,
    /// Connections answered `503` because the hand-off queue was full.
    pub rejected_connections: AtomicU64,
}

impl AppState {
    /// Fresh state with an empty registry and cache.
    pub fn new(config: ServerConfig) -> Self {
        let cache = LruCache::new(config.cache_entries, config.cache_bytes);
        AppState {
            config,
            registry: RwLock::new(BTreeMap::new()),
            cache: Mutex::new(cache),
            stage_totals: Mutex::new(StageTotals::default()),
            stage_sets: Mutex::new(VecDeque::new()),
            stage_set_builds: AtomicU64::new(0),
            stage_set_reuses: AtomicU64::new(0),
            stage_set_waits: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            requests_served: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            error_responses: AtomicU64::new(0),
            dropped_connections: AtomicU64::new(0),
            not_modified: AtomicU64::new(0),
            rejected_connections: AtomicU64::new(0),
        }
    }

    /// Register a graph under `id` (or an auto-assigned `g<n>` when `None`).
    /// Explicit ids must be `[A-Za-z0-9_-]{1,64}` and unused — an id
    /// collision is a 409, never a silent replace, because cache keys embed
    /// the id and a replaced graph would leave stale byte-exact entries
    /// behind.
    pub fn insert_graph(
        &self,
        id: Option<String>,
        graph: SharedGraph,
    ) -> Result<Arc<GraphEntry>, ApiError> {
        let mut registry = self.registry.write().expect("registry lock");
        let id = match id {
            Some(id) => {
                validate_graph_id(&id)?;
                if registry.contains_key(&id) {
                    return Err(ApiError::new(
                        409,
                        "graph_exists",
                        format!("graph id {id:?} is already registered"),
                    ));
                }
                id
            }
            None => loop {
                let candidate = format!("g{}", self.next_id.fetch_add(1, Ordering::Relaxed));
                if !registry.contains_key(&candidate) {
                    break candidate;
                }
            },
        };
        let entry = Arc::new(GraphEntry { id: id.clone(), graph, generation: 0 });
        registry.insert(id, Arc::clone(&entry));
        Ok(entry)
    }

    /// Look up a graph by id.
    pub fn graph(&self, id: &str) -> Option<Arc<GraphEntry>> {
        self.registry.read().expect("registry lock").get(id).cloned()
    }

    /// Unregister a graph, returning the removed entry (`None` when the id
    /// was never registered), and retire its stage sets. The caller owes
    /// the artifact cache a [`LruCache::evict_prefix`] sweep for `"{id}|"` —
    /// a removed graph must not leave byte-exact artifacts answerable under
    /// its old id.
    pub fn remove_graph(&self, id: &str) -> Option<Arc<GraphEntry>> {
        let removed = self.registry.write().expect("registry lock").remove(id);
        if removed.is_some() {
            self.retire_stage_sets(id);
        }
        removed
    }

    /// Swap the graph registered under `id` for a mutated successor (the
    /// delta path), returning the new entry or `None` when the id is not
    /// registered, and retire the old generation's stage sets. Sessions
    /// holding the old `Arc` keep rendering the old graph unharmed; as with
    /// [`remove_graph`](Self::remove_graph), the caller must evict the id's
    /// cache prefix so stale artifacts cannot be served for the mutated
    /// graph.
    pub fn replace_graph(&self, id: &str, graph: SharedGraph) -> Option<Arc<GraphEntry>> {
        let entry = {
            let mut registry = self.registry.write().expect("registry lock");
            let old = registry.get(id)?;
            let entry =
                Arc::new(GraphEntry { id: id.to_string(), graph, generation: old.generation + 1 });
            registry.insert(id.to_string(), Arc::clone(&entry));
            entry
        };
        self.retire_stage_sets(id);
        Some(entry)
    }

    /// All registered graphs in id order.
    pub fn graphs(&self) -> Vec<Arc<GraphEntry>> {
        self.registry.read().expect("registry lock").values().cloned().collect()
    }

    /// The stage set of `measure` over `entry`'s graph generation, built on
    /// first demand (under `parallelism`) and shared afterwards.
    ///
    /// Single-flight: concurrent lookups of one key block on a single
    /// build instead of repeating it. The build's stage seconds go into
    /// [`stage_totals`](Self::stage_totals) once. A set is cached only
    /// while `entry` is still the registered generation — checked under
    /// the set lock, which the retirement in
    /// [`replace_graph`](Self::replace_graph) /
    /// [`remove_graph`](Self::remove_graph) also takes — so a request that
    /// raced a delta builds its set without leaving it resident.
    pub fn stage_set(
        &self,
        entry: &Arc<GraphEntry>,
        measure: &Measure,
        parallelism: Parallelism,
    ) -> Result<Arc<StageSet>, ApiError> {
        let key = StageSetKey {
            id: entry.id.clone(),
            generation: entry.generation,
            measure: measure.clone(),
        };
        let slot = {
            let mut sets = self.stage_sets.lock().expect("stage set lock");
            match sets.iter().position(|(k, _)| *k == key) {
                Some(i) => {
                    let used = sets.remove(i).expect("position is in range");
                    let slot = Arc::clone(&used.1);
                    sets.push_back(used);
                    slot
                }
                None => {
                    let slot = Arc::new(StageSlot::new());
                    let current = self.graph(&entry.id).is_some_and(|e| Arc::ptr_eq(&e, entry));
                    if current {
                        sets.push_back((key, Arc::clone(&slot)));
                        if sets.len() > MAX_STAGE_SETS {
                            sets.pop_front();
                        }
                    }
                    slot
                }
            }
        };
        if let Some(done) = slot.get() {
            self.stage_set_reuses.fetch_add(1, Ordering::Relaxed);
            return done.clone();
        }
        let mut built = false;
        let result = slot.get_or_init(|| {
            built = true;
            let set = StageSet::build(entry.graph.clone(), measure.clone(), parallelism)?;
            self.stage_totals.lock().expect("stage totals lock").absorb(&set.timings());
            Ok(Arc::new(set))
        });
        let counter = if built { &self.stage_set_builds } else { &self.stage_set_waits };
        counter.fetch_add(1, Ordering::Relaxed);
        result.clone()
    }

    /// Drop every resident stage set of `id`. Requests still rendering
    /// from one keep their `Arc`; the memory goes when they finish.
    fn retire_stage_sets(&self, id: &str) {
        self.stage_sets.lock().expect("stage set lock").retain(|(key, _)| key.id != id);
    }

    /// The stage-set cache counters.
    pub fn stage_set_stats(&self) -> StageSetStats {
        let load = Ordering::Relaxed;
        StageSetStats {
            builds: self.stage_set_builds.load(load),
            reuses: self.stage_set_reuses.load(load),
            waits: self.stage_set_waits.load(load),
            resident: self.stage_sets.lock().expect("stage set lock").len(),
        }
    }
}

fn validate_graph_id(id: &str) -> Result<(), ApiError> {
    let ok = !id.is_empty()
        && id.len() <= 64
        && id.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
    if ok {
        Ok(())
    } else {
        Err(ApiError::invalid_parameter(
            "id",
            format!("graph id {id:?} must be 1-64 characters of [A-Za-z0-9_-]"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph::GraphBuilder;

    fn tiny_graph() -> SharedGraph {
        let mut b = GraphBuilder::new();
        b.extend_edges([(0u32, 1u32), (1, 2), (2, 0)]);
        SharedGraph::new(b.build())
    }

    #[test]
    fn auto_ids_skip_taken_names_and_explicit_conflicts_are_409() {
        let state = AppState::new(ServerConfig::default());
        state.insert_graph(Some("g1".into()), tiny_graph()).unwrap();
        let auto = state.insert_graph(None, tiny_graph()).unwrap();
        assert_eq!(auto.id, "g2", "auto id must skip the taken g1");
        let err = state.insert_graph(Some("g1".into()), tiny_graph()).unwrap_err();
        assert_eq!(err.status, 409);
        assert_eq!(state.graphs().len(), 2);
    }

    #[test]
    fn remove_and_replace_round_trip() {
        let state = AppState::new(ServerConfig::default());
        state.insert_graph(Some("g1".into()), tiny_graph()).unwrap();
        assert!(state.replace_graph("missing", tiny_graph()).is_none());
        let replaced = state.replace_graph("g1", tiny_graph()).unwrap();
        assert_eq!((replaced.id.as_str(), replaced.generation), ("g1", 1));
        assert_eq!(state.replace_graph("g1", tiny_graph()).unwrap().generation, 2);
        assert!(state.remove_graph("g1").is_some());
        assert!(state.remove_graph("g1").is_none(), "second delete finds nothing");
        assert!(state.graph("g1").is_none());
    }

    #[test]
    fn a_lookup_that_raced_a_delta_builds_without_caching_its_stale_set() {
        let state = AppState::new(ServerConfig::default());
        let stale = state.insert_graph(Some("g1".into()), tiny_graph()).unwrap();
        state.replace_graph("g1", tiny_graph()).unwrap();
        let set = state.stage_set(&stale, &Measure::KCore, Parallelism::Serial).unwrap();
        assert_eq!(set.scalar().len(), 3);
        let stats = state.stage_set_stats();
        assert_eq!((stats.builds, stats.resident), (1, 0), "a retired generation stays retired");
        let current = state.graph("g1").unwrap();
        state.stage_set(&current, &Measure::KCore, Parallelism::Serial).unwrap();
        assert_eq!(state.stage_set_stats().resident, 1);
    }

    #[test]
    fn bad_ids_are_rejected_with_400() {
        let state = AppState::new(ServerConfig::default());
        for bad in ["", "has space", "slash/y", &"x".repeat(65)] {
            let err = state.insert_graph(Some(bad.to_string()), tiny_graph()).unwrap_err();
            assert_eq!(err.status, 400, "{bad:?}");
        }
    }
}
