//! `mixed-1m`: a closed loop of two dashboard clients that each wait for
//! their replies. They request full terrain renders (SVG and JSON, two
//! sizes, with and without the render budget), peaks and conditional
//! revalidations over k-core and degree; client 0 is also the single
//! writer and posts ~1k-edge insert/delete batches, so the batch order is
//! deterministic. The 10-21 MB artifacts overflow the server's 64 MB cache
//! and every delta evicts the whole graph. PageRank is absent.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use graph_terrain::{Measure, SharedGraph, SimplificationConfig, SvgSize, TerrainPipeline};
use terrain::{exporter_by_name_sized, highest_peaks, Svg};
use ugraph::delta::{DeltaOp, GraphDelta};

use crate::loadgen::closed_loop;
use crate::plan::{delta_batches, mixed_script, DeltaBatch, MixedOp, TERRAIN_VARIANTS};
use crate::report::Report;
use crate::server::{boot_for_run, server_counters};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{call, e2e_latency, layers, ugraph_open, SETUPS};

/// Operations scripted per client; far more than a run can send.
const SCRIPT_LEN: usize = 20_000;
/// Delta batches prepared per run; far more than a run can send.
const DELTA_BATCHES: usize = 512;

/// How one operation ended.
#[derive(Clone, Debug, PartialEq)]
enum Outcome {
    Miss { target: String, bytes: usize },
    Hit(usize),
    NotModified,
    Delta,
    Failed(String),
}

/// What one client remembers between its requests.
#[derive(Default)]
struct ClientState {
    /// Targets fetched so far, in first-fetch order.
    known: Vec<String>,
    /// The latest ETag per target, with the number of deltas started
    /// before the request that returned it was sent.
    etags: HashMap<String, (String, usize)>,
}

/// Shared state of one run.
struct Shared<'a> {
    batches: &'a [DeltaBatch],
    next_batch: AtomicUsize,
    started: AtomicUsize,
    completed: AtomicUsize,
    applied: Mutex<Vec<usize>>,
    clients: Vec<Mutex<ClientState>>,
    artifacts: Mutex<HashMap<(String, String), (usize, u64)>>,
    /// An ETag the writer held before its first delta.
    pre_delta_etag: Mutex<Option<(String, String)>>,
}

/// Run the workload: boot the server over `snapshot`, send the seeded
/// scripts and delta batches for `seconds`, then check and attribute the
/// results.
pub fn run(seed: u64, seconds: f64, snapshot: &Path, bin: &Path, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    let Some(server) = boot_for_run(bin, snapshot, &mut report) else {
        return report;
    };
    // The in-process mirror starts from the snapshot, as the server does;
    // the delta batches are drawn from its edges.
    let mut mirror = match SharedGraph::open_mapped(snapshot) {
        Ok(graph) => graph,
        Err(e) => {
            report.check(false, || format!("the mirror cannot open the snapshot: {e}"));
            return report;
        }
    };
    let batches = delta_batches(seed, mirror.storage(), DELTA_BATCHES);
    let addr = server.addr;

    let scripts = [mixed_script(seed, 0, SCRIPT_LEN), mixed_script(seed, 1, SCRIPT_LEN)];
    let shared = Shared {
        batches: &batches,
        next_batch: AtomicUsize::new(0),
        started: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        applied: Mutex::new(Vec::new()),
        clients: scripts.iter().map(|_| Mutex::new(ClientState::default())).collect(),
        artifacts: Mutex::new(HashMap::new()),
        pre_delta_etag: Mutex::new(None),
    };
    let results =
        closed_loop(&scripts, seconds, |client, op| send(&shared, tracer, addr, client, op));

    let stats =
        call(tracer, 0, addr, "GET", "/stats", &[], &[]).map(|r| r.body_utf8()).unwrap_or_default();
    let peak_rss = server.peak_rss_mib().unwrap_or(0.0);

    // Output checks against the server before it stops: the final SVG of
    // each measure must equal an in-process render of a mirror that
    // received the same delta batches, and a pre-delta ETag must not be
    // answered with 304.
    let applied = shared.applied.lock().expect("applied lock").clone();
    let mut served_final = Vec::new();
    for measure in ["kcore", "degree"] {
        let target = format!("/graphs/rmat/terrain?measure={measure}&format=svg");
        let response = call(tracer, tracer.request_id(), addr, "GET", &target, &[], &[]);
        served_final.push((measure, response.ok().filter(|r| r.status == 200).map(|r| r.body)));
    }
    if let Some((target, etag)) = shared.pre_delta_etag.lock().expect("etag lock").clone() {
        if !applied.is_empty() {
            let headers = [("If-None-Match", etag.as_str())];
            let response = call(tracer, tracer.request_id(), addr, "GET", &target, &headers, &[]);
            report.check(response.is_ok_and(|r| r.status == 200), || {
                format!("{target}: a pre-delta ETag was not answered with 200")
            });
        }
    }
    drop(server);

    let (mut miss_ms, mut hit_ms, mut delta_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut missed: BTreeMap<String, usize> = BTreeMap::new();
    let mut export_bytes = Vec::new();
    let mut response_bytes = 0usize;
    let mut last_done: f64 = 0.0;
    let mut operations = 0usize;
    for (timing, outcome) in results.iter().flatten() {
        last_done = last_done.max(timing.done);
        report.check(!matches!(outcome, Outcome::Failed(_)), || format!("{outcome:?}"));
        match outcome {
            Outcome::Miss { target, bytes } => {
                miss_ms.push(timing.latency_ms());
                *missed.entry(target.clone()).or_default() += 1;
                response_bytes += bytes;
                if target.contains("/terrain?") {
                    export_bytes.push(*bytes as f64);
                }
            }
            Outcome::Hit(bytes) => {
                hit_ms.push(timing.latency_ms());
                response_bytes += bytes;
            }
            Outcome::NotModified => hit_ms.push(timing.latency_ms()),
            Outcome::Delta => delta_ms.push(timing.latency_ms()),
            Outcome::Failed(_) => continue,
        }
        operations += 1;
    }
    report.metric("throughput_rps", operations as f64 / last_done.max(1e-9), "1/s");
    e2e_latency(&mut report, "miss", median(&miss_ms).unwrap_or(0.0), &miss_ms);
    e2e_latency(&mut report, "hit", median(&hit_ms).unwrap_or(0.0), &hit_ms);
    report.metric("peak_rss_mib", peak_rss, "MiB");
    let delta_p50 = median(&delta_ms).unwrap_or(0.0);
    report.note(format!("delta_ms_p50 {delta_p50:.3} ms over {} deltas", delta_ms.len()));
    report.metric("serve.delta_ms_p50", delta_p50, "ms");
    report.metric("shape.deltas", applied.len() as f64, "count");
    let reads = miss_ms.len() + hit_ms.len();
    report.metric("shape.miss_share", miss_ms.len() as f64 / reads.max(1) as f64, "ratio");
    report.metric("serve.response_bytes", response_bytes as f64, "B");
    let missed_keys = shared.artifacts.lock().expect("artifact lock").len();
    server_counters(&mut report, &stats, missed_keys);

    // The mirror receives the batches the server applied, in order.
    let (mut apply_s, mut structural) = (Vec::new(), Vec::new());
    for index in &applied {
        let batch = &batches[*index];
        let op = DeltaOp::from_name(batch.op).expect("plan ops are valid");
        let mut delta = GraphDelta::new();
        for (u, v) in &batch.edges {
            delta.push(op, *u, *v);
        }
        let t = Instant::now();
        let stats =
            tracer.span("SharedGraph::apply_delta", batch.op, tracer.request_id(), 0, |_| {
                mirror.apply_delta(&delta)
            });
        apply_s.push(t.elapsed().as_secs_f64());
        structural.push(stats.structural_changes() as f64);
    }
    report.metric("ugraph.delta.apply_s", median(&apply_s).unwrap_or(0.0), "s");
    report.metric(
        "ugraph.delta.structural_changes",
        structural.iter().sum::<f64>() / structural.len().max(1) as f64,
        "count",
    );
    for (measure, served) in served_final {
        let mut session = TerrainPipeline::from_shared(
            mirror.clone(),
            Measure::from_name(measure).expect("known"),
        );
        let mut expected = Vec::new();
        let rendered = session.render_deterministic_to(&Svg::new(900.0, 700.0), &mut expected);
        report.check(rendered.is_ok() && served.as_ref() == Some(&expected), || {
            format!(
                "final {measure} SVG differs from the in-process mirror after {} deltas",
                applied.len()
            )
        });
    }

    if tracer.enabled() {
        replay(&mut report, snapshot, tracer, &mirror, &missed, &miss_ms, &export_bytes);
    }
    report
}

/// Send one scripted operation and check its reply.
fn send(
    shared: &Shared<'_>,
    tracer: &Tracer,
    addr: std::net::SocketAddr,
    client: usize,
    op: &MixedOp,
) -> Outcome {
    let request = tracer.request_id();
    if *op == MixedOp::Delta {
        let index = shared.next_batch.fetch_add(1, Ordering::SeqCst);
        let Some(batch) = shared.batches.get(index) else {
            return Outcome::Failed("ran out of delta batches".into());
        };
        shared.started.fetch_add(1, Ordering::SeqCst);
        let target = format!("/graphs/rmat/deltas?op={}", batch.op);
        let response = call(tracer, request, addr, "POST", &target, &[], &batch.body());
        return match response {
            Ok(r) if r.status == 200 && r.body_utf8().contains("\"structural\":true") => {
                shared.applied.lock().expect("applied lock").push(index);
                shared.completed.fetch_add(1, Ordering::SeqCst);
                Outcome::Delta
            }
            Ok(r) => Outcome::Failed(format!("{target}: {} {}", r.status, r.body_utf8())),
            Err(e) => Outcome::Failed(format!("{target}: {e}")),
        };
    }
    let (target, held) = {
        let state = shared.clients[client].lock().expect("client lock");
        match op {
            MixedOp::Revalidate(pick) if !state.known.is_empty() => {
                let target = state.known[(*pick % state.known.len() as u64) as usize].clone();
                let held = state.etags.get(&target).cloned();
                (target, held)
            }
            MixedOp::Peaks(measure) => {
                (format!("/graphs/rmat/peaks?measure={measure}&count=5"), None)
            }
            MixedOp::Terrain(i) => (format!("/graphs/rmat/terrain?{}", TERRAIN_VARIANTS[*i]), None),
            _ => (format!("/graphs/rmat/terrain?{}", TERRAIN_VARIANTS[0]), None),
        }
    };
    let started = shared.started.load(Ordering::SeqCst);
    let completed = shared.completed.load(Ordering::SeqCst);
    let headers: Vec<(&str, &str)> =
        held.as_ref().map(|(etag, _)| vec![("If-None-Match", etag.as_str())]).unwrap_or_default();
    let response = match call(tracer, request, addr, "GET", &target, &headers, &[]) {
        Ok(response) => response,
        Err(e) => return Outcome::Failed(format!("{target}: {e}")),
    };
    let etag = response.header("etag").map(str::to_string);
    match response.status {
        304 => match &held {
            // Stale: a delta completed after the ETag's request was sent.
            Some((sent, before)) if completed > *before => {
                Outcome::Failed(format!("{target}: 304 for ETag {sent} from before a delta"))
            }
            Some((sent, _)) if etag.as_deref() == Some(sent.as_str()) => Outcome::NotModified,
            _ => Outcome::Failed(format!("{target}: 304 for ETag {held:?}, answered {etag:?}")),
        },
        200 => {
            let Some(etag) = etag else {
                return Outcome::Failed(format!("{target}: 200 without an ETag"));
            };
            // Bodies are 10-21 MB: keep a hash, not the bytes.
            let hash = (response.body.len(), serve::cache::fnv1a64(&response.body));
            let first = *shared
                .artifacts
                .lock()
                .expect("artifact lock")
                .entry((target.clone(), etag.clone()))
                .or_insert(hash);
            if first != hash {
                return Outcome::Failed(format!("{target}: body differs under ETag {etag}"));
            }
            {
                let mut state = shared.clients[client].lock().expect("client lock");
                if !state.etags.contains_key(&target) {
                    state.known.push(target.clone());
                }
                state.etags.insert(target.clone(), (etag.clone(), started));
            }
            if client == 0 && started == 0 {
                shared
                    .pre_delta_etag
                    .lock()
                    .expect("etag lock")
                    .get_or_insert((target.clone(), etag));
            }
            match response.header("x-cache") {
                Some("miss") => Outcome::Miss { target, bytes: response.body.len() },
                Some("hit") => Outcome::Hit(response.body.len()),
                other => Outcome::Failed(format!("{target}: X-Cache {other:?}")),
            }
        }
        status => Outcome::Failed(format!("{target}: status {status}")),
    }
}

/// The query parameter `name` of a target.
fn param<'t>(target: &'t str, name: &str) -> Option<&'t str> {
    let query = target.split_once('?')?.1;
    query.split('&').find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
}

/// Replay every distinct missed target in-process on the mirror, through
/// the spanned stage accessors, and attribute the misses to the layers.
fn replay(
    report: &mut Report,
    snapshot: &Path,
    tracer: &Tracer,
    mirror: &SharedGraph,
    missed: &BTreeMap<String, usize>,
    miss_ms: &[f64],
    export_bytes: &[f64],
) {
    let mut opens = Vec::new();
    if ugraph_open(snapshot, tracer, SETUPS, &mut opens).is_ok() {
        report.metric("ugraph.open_s", median(&opens).unwrap_or(0.0), "s");
    }
    let mut per_target: Vec<(usize, HashMap<&str, f64>, layers::BuildCounts, String)> = Vec::new();
    for (target, misses) in missed {
        let measure_name = param(target, "measure").unwrap_or("kcore");
        let Some(measure) = Measure::from_name(measure_name) else { continue };
        let mut session = TerrainPipeline::from_shared(mirror.clone(), measure);
        let request = tracer.request_id();
        let before = tracer.spans().len();
        let counts = if target.contains("/peaks?") {
            tracer
                .span("session.stages", measure_name, request, 0, |_| {
                    session.stages().map(|s| highest_peaks(s.render_tree, s.layout, 5).len())
                })
                .map(|_| layers::BuildCounts::default())
        } else {
            if param(target, "budget") == Some("none") {
                session.set_simplification(SimplificationConfig::disabled());
            }
            let width = param(target, "width").and_then(|w| w.parse().ok()).unwrap_or(900.0);
            let height = param(target, "height").and_then(|h| h.parse().ok()).unwrap_or(700.0);
            session.set_svg_size(SvgSize::new(width, height));
            let format = param(target, "format").unwrap_or("svg");
            let Ok(exporter) = exporter_by_name_sized(format, width, height) else { continue };
            let mut out = Vec::new();
            layers::render(
                tracer,
                request,
                0,
                measure_name,
                &mut session,
                exporter.as_ref(),
                &mut out,
            )
        };
        let Ok(counts) = counts else {
            report.check(false, || format!("replay of {target} failed"));
            continue;
        };
        let mut stages: HashMap<&str, f64> = HashMap::new();
        for span in tracer.spans().into_iter().skip(before) {
            let name =
                layers::STAGES.into_iter().chain(["session.stages"]).find(|s| *s == span.name);
            if let Some(name) = name {
                *stages.entry(name).or_default() += span.seconds();
            }
        }
        per_target.push((*misses, stages, counts, measure_name.to_string()));
    }
    let n: usize = per_target.iter().map(|(m, ..)| m).sum();
    let per_miss = |f: &dyn Fn(&HashMap<&str, f64>, &layers::BuildCounts) -> f64| {
        per_target.iter().map(|(m, s, c, _)| *m as f64 * f(s, c)).sum::<f64>() / n.max(1) as f64
    };
    let stage = |name: &'static str| {
        move |s: &HashMap<&str, f64>, _: &layers::BuildCounts| s.get(name).copied().unwrap_or(0.0)
    };
    for measure in ["kcore", "degree"] {
        let scalar: Vec<f64> = per_target
            .iter()
            .filter(|(_, _, _, m)| m == measure)
            .filter_map(|(_, s, ..)| s.get("session.scalar").copied())
            .collect();
        report.metric(&format!("measures.{measure}_s"), median(&scalar).unwrap_or(0.0), "s");
    }
    report.metric("scalarfield.tree_s", per_miss(&stage("session.scalar_tree")), "s");
    report.metric("scalarfield.super_tree_s", per_miss(&stage("session.super_tree")), "s");
    report.metric("scalarfield.simplify_s", per_miss(&stage("session.render_tree")), "s");
    report.metric("terrain.layout_s", per_miss(&stage("session.layout")), "s");
    report.metric("terrain.mesh_s", per_miss(&stage("session.mesh")), "s");
    report.metric("terrain.export_s", per_miss(&stage("terrain.render_deterministic_to")), "s");
    report.metric(
        "scalarfield.super_tree_nodes",
        per_miss(&|_, c| c.super_tree_nodes as f64),
        "count",
    );
    report.metric(
        "scalarfield.render_tree_nodes",
        per_miss(&|_, c| c.render_tree_nodes as f64),
        "count",
    );
    report.metric("terrain.mesh_triangles", per_miss(&|_, c| c.mesh_triangles as f64), "count");
    report.metric(
        "terrain.export_bytes",
        export_bytes.iter().sum::<f64>() / export_bytes.len().max(1) as f64,
        "B",
    );
    let render_ms = 1e3 * per_miss(&|s, _| s.values().sum());
    let miss_p50 = median(miss_ms).unwrap_or(0.0);
    report.metric("serve.miss_wait_ms", miss_p50 - render_ms, "ms");
    let replay_build = per_miss(&|s, _| {
        ["session.scalar", "session.scalar_tree", "session.super_tree"]
            .iter()
            .map(|k| s.get(k).copied().unwrap_or(0.0))
            .sum()
    });
    let served_build: f64 = ["scalar", "tree", "super_tree"]
        .iter()
        .map(|s| report.get(&format!("serve.stats.{s}_s")).unwrap_or(0.0))
        .sum();
    report.metric(
        "serve.replay_gap_pct",
        100.0 * (replay_build - served_build).abs() / served_build,
        "%",
    );
}
