//! `tiles-1m`: an open loop of independent pan/zoom users against the
//! server's tile route. Every tile miss rebuilds the k-core scalar field,
//! the trees and the LOD scene for the whole graph, and tile bodies are
//! under 1 KB, so `measures`, `scalarfield`, `terrain::scene` and the
//! server cache carry this workload and the terrain exporters do not run.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use graph_terrain::{Measure, TerrainPipeline, TileKey};

use crate::loadgen::{busy_seconds, open_loop, Timing};
use crate::plan::{tile_schedule, TileRequest, TILE_MEASURE};
use crate::report::Report;
use crate::server::{boot_for_run, server_counters};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{call, e2e_latency, layers, ugraph_open, SETUPS, WORKERS};

/// Offered tile requests per second. The seed code would sustain about 45
/// at this workload's miss share; at 8 the two workers are busy about a
/// fifth of the time, so a miss rarely waits for both client connections
/// and the miss median stays steady from run to run (at 35 per second its
/// quartile distance between seeds was four times larger).
pub const TILE_RATE: f64 = 8.0;

/// How one tile request ended.
#[derive(Clone, Debug, PartialEq)]
enum Outcome {
    Miss(usize),
    Hit(usize),
    NotModified,
    Failed(String),
}

/// Run the workload: boot the server over `snapshot`, send the seeded
/// schedule for `seconds`, then check and attribute the results.
pub fn run(seed: u64, seconds: f64, snapshot: &Path, bin: &Path, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let Some(server) = boot_for_run(bin, snapshot, &mut report) else {
        return report;
    };
    let addr = server.addr;

    let schedule = tile_schedule(seed, TILE_RATE, seconds);
    let etags: Mutex<HashMap<(u32, String), String>> = Mutex::new(HashMap::new());
    let bodies: Mutex<BTreeMap<String, Vec<u8>>> = Mutex::new(BTreeMap::new());
    let results = open_loop(
        &schedule,
        |r| r.due,
        WORKERS,
        |_, r: &TileRequest| {
            let target = r.target("rmat");
            let held = if r.revisit {
                etags.lock().expect("etag lock").get(&(r.user, target.clone())).cloned()
            } else {
                None
            };
            let headers: Vec<(&str, &str)> =
                held.as_deref().map(|etag| vec![("If-None-Match", etag)]).unwrap_or_default();
            let request = tracer.request_id();
            let response = match call(tracer, request, addr, "GET", &target, &headers, &[]) {
                Ok(response) => response,
                Err(e) => return Outcome::Failed(format!("{target}: {e}")),
            };
            let etag = response.header("etag").map(str::to_string);
            match response.status {
                304 if held.is_some() && etag == held => Outcome::NotModified,
                304 => {
                    Outcome::Failed(format!("{target}: 304 for ETag {held:?}, answered {etag:?}"))
                }
                200 => {
                    let Some(etag) = etag else {
                        return Outcome::Failed(format!("{target}: 200 without an ETag"));
                    };
                    etags.lock().expect("etag lock").insert((r.user, target.clone()), etag);
                    let mut bodies = bodies.lock().expect("body lock");
                    let first =
                        bodies.entry(target.clone()).or_insert_with(|| response.body.clone());
                    if *first != response.body {
                        return Outcome::Failed(format!(
                            "{target}: body differs from the first one"
                        ));
                    }
                    let len = response.body.len();
                    match response.header("x-cache") {
                        Some("miss") => Outcome::Miss(len),
                        Some("hit") => Outcome::Hit(len),
                        other => Outcome::Failed(format!("{target}: X-Cache {other:?}")),
                    }
                }
                status => Outcome::Failed(format!("{target}: status {status}")),
            }
        },
    );
    let stats =
        call(tracer, 0, addr, "GET", "/stats", &[], &[]).map(|r| r.body_utf8()).unwrap_or_default();
    let peak_rss = server.peak_rss_mib().unwrap_or(0.0);
    drop(server);

    let (mut miss_ms, mut hit_ms, mut late_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut response_bytes = 0usize;
    let mut missed: BTreeSet<String> = BTreeSet::new();
    let mut miss_targets: Vec<String> = Vec::new();
    for ((timing, outcome), request) in results.iter().zip(&schedule) {
        late_ms.push(timing.late_ms());
        let target = request.target("rmat");
        report.check(!matches!(outcome, Outcome::Failed(_)), || format!("{outcome:?}"));
        match outcome {
            Outcome::Miss(len) => {
                miss_ms.push(timing.latency_ms());
                response_bytes += len;
                missed.insert(target.clone());
                miss_targets.push(target);
            }
            Outcome::Hit(len) => {
                hit_ms.push(timing.latency_ms());
                response_bytes += len;
            }
            Outcome::NotModified => hit_ms.push(timing.latency_ms()),
            Outcome::Failed(_) => {}
        }
    }
    // Per second of the time the server had a request in flight: the open
    // loop fixes the offered rate, so answers per second of the run would
    // read that rate back whatever the server does.
    let answered = miss_ms.len() + hit_ms.len();
    let busy_s = busy_seconds(results.iter().map(|(t, _): &(Timing, _)| *t));
    report.metric("throughput_rps", answered as f64 / busy_s.max(1e-9), "1/s");
    e2e_latency(&mut report, "miss", median(&miss_ms).unwrap_or(0.0), &miss_ms);
    e2e_latency(&mut report, "hit", median(&hit_ms).unwrap_or(0.0), &hit_ms);
    report.metric("peak_rss_mib", peak_rss, "MiB");
    report.metric("shape.miss_share", miss_ms.len() as f64 / answered.max(1) as f64, "ratio");
    report.metric("loadgen.late_ms_p50", median(&late_ms).unwrap_or(0.0), "ms");
    report.metric("loadgen.late_ms_max", late_ms.iter().copied().fold(0.0, f64::max), "ms");
    report.metric("serve.response_bytes", response_bytes as f64, "B");
    report.metric(
        "terrain.tile_bytes",
        response_bytes as f64 / (answered - count_304(&results)).max(1) as f64,
        "B",
    );
    server_counters(&mut report, &stats, missed.len());

    // Every distinct served tile must equal an in-process render of the
    // same key; in the traced run the same renders attribute a miss to the
    // layers.
    let bodies = bodies.into_inner().expect("body lock");
    replay(&mut report, snapshot, tracer, &bodies, &miss_targets, &miss_ms);
    report
}

fn count_304(results: &[(Timing, Outcome)]) -> usize {
    results.iter().filter(|(_, o)| *o == Outcome::NotModified).count()
}

fn parse_tile(target: &str) -> Option<(TileKey, bool)> {
    let (path, query) = target.split_once('?')?;
    let mut parts = path.rsplit('/');
    let ty = parts.next()?.parse().ok()?;
    let tx = parts.next()?.parse().ok()?;
    let zoom = parts.next()?.parse().ok()?;
    Some((TileKey { zoom, tx, ty }, query.contains("format=scene")))
}

/// The scene stages a tile miss runs before writing its tile.
const SCENE_STAGES: [&str; 4] =
    ["session.scalar", "session.scalar_tree", "session.super_tree", "session.scene"];

/// Check every distinct served tile against an in-process render and, when
/// tracing, attribute the misses to the layers.
fn replay(
    report: &mut Report,
    snapshot: &Path,
    tracer: &Tracer,
    bodies: &BTreeMap<String, Vec<u8>>,
    miss_targets: &[String],
    miss_ms: &[f64],
) {
    let mut opens = Vec::new();
    let graph = match ugraph_open(snapshot, tracer, SETUPS, &mut opens) {
        Ok(graph) => graph,
        Err(e) => return report.check(false, || format!("replay cannot open the snapshot: {e}")),
    };
    report.metric("ugraph.open_s", median(&opens).unwrap_or(0.0), "s");
    let measure = Measure::from_name(TILE_MEASURE).expect("a known measure");
    // A fresh session, as every server miss builds one: three when tracing
    // (their median stage times), one otherwise.
    let repeats = if tracer.enabled() { 3 } else { 1 };
    let mut stage_s: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut counts = layers::BuildCounts::default();
    let mut session = TerrainPipeline::from_shared(graph.clone(), measure.clone());
    for _ in 0..repeats {
        let before = tracer.spans().len();
        session = TerrainPipeline::from_shared(graph.clone(), measure.clone());
        let key = TileKey { zoom: 0, tx: 0, ty: 0 };
        let request = tracer.request_id();
        let mut out = Vec::new();
        match layers::tile(tracer, request, 0, TILE_MEASURE, &mut session, &key, false, &mut out) {
            Ok(built) => counts = built,
            Err(e) => return report.check(false, || format!("in-process scene: {e}")),
        }
        for span in tracer.spans().into_iter().skip(before) {
            if let Some(stage) = SCENE_STAGES.into_iter().find(|s| *s == span.name) {
                stage_s.entry(stage).or_default().push(span.seconds());
            }
        }
    }
    let Ok(scene) = session.scene() else { return };
    let mut write_s: HashMap<&str, f64> = HashMap::new();
    for (target, served) in bodies {
        let Some((key, scene_format)) = parse_tile(target) else {
            report.check(false, || format!("unparsable tile target {target}"));
            continue;
        };
        let mut out = Vec::new();
        let t = Instant::now();
        let rendered = layers::write_tile(tracer, 0, 0, scene, &key, scene_format, &mut out);
        write_s.insert(target, t.elapsed().as_secs_f64());
        report.check(rendered.is_ok() && out == *served, || {
            format!("{target}: served tile differs from the in-process render")
        });
    }
    if !tracer.enabled() {
        return;
    }
    let stage = |name: &str| stage_s.get(name).and_then(|v| median(v)).unwrap_or(0.0);
    report.metric("measures.kcore_s", stage("session.scalar"), "s");
    report.metric("scalarfield.tree_s", stage("session.scalar_tree"), "s");
    report.metric("scalarfield.super_tree_s", stage("session.super_tree"), "s");
    report.metric("terrain.scene_s", stage("session.scene"), "s");
    report.metric("scalarfield.super_tree_nodes", counts.super_tree_nodes as f64, "count");
    report.metric("terrain.scene_items", counts.scene_items as f64, "count");
    let tile_render_s = write_s.values().sum::<f64>() / write_s.len().max(1) as f64;
    report.metric("terrain.tile_render_s", tile_render_s, "s");
    // The replay's render time of each miss; the rest of its latency was
    // spent waiting (in the generator, the accept queue or on the socket).
    let build_s: f64 = SCENE_STAGES.iter().map(|s| stage(s)).sum();
    let waits: Vec<f64> = miss_targets
        .iter()
        .zip(miss_ms)
        .map(|(target, ms)| {
            ms - 1e3 * (build_s + write_s.get(target.as_str()).copied().unwrap_or(0.0))
        })
        .collect();
    report.metric("serve.miss_wait_ms", median(&waits).unwrap_or(0.0), "ms");
    let served_build: f64 = ["scalar", "tree", "super_tree", "scene"]
        .iter()
        .map(|s| report.get(&format!("serve.stats.{s}_s")).unwrap_or(0.0))
        .sum();
    report.metric(
        "serve.replay_gap_pct",
        100.0 * (build_s - served_build).abs() / served_build,
        "%",
    );
}
