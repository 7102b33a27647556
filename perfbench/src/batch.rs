//! `batch-1m`: a library caller building whole terrains in-process, with no
//! server. Each pass renders the full SVG terrain for PageRank, k-core and
//! degree, each at `Serial` and `Threads(2)`, through
//! `TerrainPipeline::from_shared` + `render_deterministic_to` (a cold build,
//! the batch analogue of a cache miss), then renders the same session once
//! more from its cached stages (a warm re-export, the analogue of a hit).

use std::path::Path;
use std::time::Instant;

use graph_terrain::{Measure, SharedGraph, TerrainPipeline};
use terrain::Svg;
use ugraph::par::Parallelism;

use crate::layers::{self, STAGES};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{e2e_latency, record_setup, server, ugraph_open, SETUPS};

const MEASURES: [(Measure, &str); 3] =
    [(Measure::PageRank, "pagerank"), (Measure::KCore, "kcore"), (Measure::Degree, "degree")];
const PARALLELISM: [(Parallelism, &str); 2] =
    [(Parallelism::Serial, "serial"), (Parallelism::Threads(2), "t2")];
/// Passes measured at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Run the workload against the snapshot at `snapshot` for about
/// `seconds`. The workload has no traffic, so the seed changes nothing.
pub fn run(seconds: f64, snapshot: &Path, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    server::reset_own_peak_rss();
    let mut setup = Vec::new();
    let graph = match ugraph_open(snapshot, tracer, SETUPS, &mut setup) {
        Ok(graph) => graph,
        Err(e) => {
            report.check(false, || format!("cannot open the snapshot: {e}"));
            return report;
        }
    };

    // Fault the mapping in and finish lazy set-up before timing.
    let mut warm = TerrainPipeline::from_shared(graph.clone(), Measure::KCore);
    let mut sink = Vec::new();
    report.check(warm.render_deterministic_to(&Svg::default(), &mut sink).is_ok(), || {
        "warm-up build".into()
    });

    let exporter = Svg::default();
    let (mut builds_ms, mut warm_ms, mut pass_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_pass_s, mut stage_sum_s) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut pass = 0usize;
    while pass < MIN_PASSES || started.elapsed().as_secs_f64() < seconds {
        // The traced run alternates plain and traced passes, so one run
        // gives both sides of the tracing overhead.
        let traced = tracer.enabled() && pass % 2 == 1;
        let mut pass_build_s = 0.0;
        let stages_before: f64 = STAGES.iter().map(|s| tracer.total(s, "").0).sum();
        for (measure, measure_name) in &MEASURES {
            let mut serial_bytes: Option<Vec<u8>> = None;
            for (parallelism, par_name) in &PARALLELISM {
                let detail = format!("{measure_name}/{par_name}");
                let mut session = TerrainPipeline::from_shared(graph.clone(), measure.clone());
                session.set_parallelism(*parallelism);
                let mut bytes = Vec::new();
                let request = tracer.request_id();
                let t = Instant::now();
                let built = if traced {
                    tracer.span("build", &detail, request, 0, |parent| {
                        layers::render(
                            tracer,
                            request,
                            parent,
                            &detail,
                            &mut session,
                            &exporter,
                            &mut bytes,
                        )
                        .map(|counts| tracer.count(&detail, counts))
                    })
                } else {
                    session.render_deterministic_to(&exporter, &mut bytes)
                };
                let build_s = t.elapsed().as_secs_f64();
                pass_build_s += build_s;
                report.check(built.is_ok(), || format!("{detail} build: {built:?}"));
                builds_ms.push(build_s * 1e3);

                let mut again = Vec::with_capacity(bytes.len());
                let t = Instant::now();
                let rerendered = session.render_deterministic_to(&exporter, &mut again);
                warm_ms.push(t.elapsed().as_secs_f64() * 1e3);
                report.check(rerendered.is_ok() && again == bytes, || {
                    format!("{detail}: warm re-export differs from the cold build")
                });
                match &serial_bytes {
                    None => serial_bytes = Some(bytes),
                    Some(serial) => report.check(*serial == bytes, || {
                        format!("{measure_name}: Threads(2) SVG differs from Serial")
                    }),
                }
            }
        }
        if traced {
            traced_pass_s.push(pass_build_s);
            let stages_after: f64 = STAGES.iter().map(|s| tracer.total(s, "").0).sum();
            stage_sum_s.push(stages_after - stages_before);
        } else {
            pass_s.push(pass_build_s);
        }
        pass += 1;
    }
    let loop_s = started.elapsed().as_secs_f64();
    let peak_rss = server::vm_hwm_mib("/proc/self/status").unwrap_or(0.0);
    let setup_s = record_setup(&mut report, "snapshot opens", &setup);
    report.metric("ugraph.open_s", setup_s, "s");

    // Once per run: the mapped session must render exactly what a session
    // over the owned graph the snapshot was written from renders.
    let owned = SharedGraph::new(crate::generate());
    let mut mapped_bytes = Vec::new();
    let mut owned_bytes = Vec::new();
    let mapped_ok = TerrainPipeline::from_shared(graph, Measure::KCore)
        .render_deterministic_to(&exporter, &mut mapped_bytes)
        .is_ok();
    let owned_ok = TerrainPipeline::from_shared(owned, Measure::KCore)
        .render_deterministic_to(&exporter, &mut owned_bytes)
        .is_ok();
    report.check(mapped_ok && owned_ok && mapped_bytes == owned_bytes, || {
        "mapped and owned sessions render different SVG".into()
    });

    let batch_pass = median(&pass_s).unwrap_or(0.0);
    report.note(format!("batch_pass_s {batch_pass:.4} s (median of {} passes)", pass_s.len()));
    report.metric("batch.pass_s", batch_pass, "s");
    let operations = builds_ms.len() + warm_ms.len();
    report.metric("throughput_rps", operations as f64 / loop_s, "1/s");
    // The six builds of a pass differ by measure, so the median of single
    // builds jumps between the k-core/degree and the PageRank builds; the
    // miss latency is the mean cold build of the median pass instead.
    e2e_latency(&mut report, "miss", batch_pass / 6.0 * 1e3, &builds_ms);
    e2e_latency(&mut report, "hit", median(&warm_ms).unwrap_or(0.0), &warm_ms);
    report.metric("peak_rss_mib", peak_rss, "MiB");

    if tracer.enabled() {
        let traced = median(&traced_pass_s).unwrap_or(0.0);
        report.metric("trace.pass_untraced_s", batch_pass, "s");
        report.metric("trace.pass_traced_s", traced, "s");
        report.metric("trace.overhead_pct", 100.0 * (traced - batch_pass) / batch_pass, "%");
        report.metric("trace.stage_sum_s", median(&stage_sum_s).unwrap_or(0.0), "s");
        layer_metrics(&mut report, tracer);
    }
    report
}

/// Per-layer metrics from the traced passes: seconds per build for each
/// stage, seconds per call for each measure, and work counts per build.
fn layer_metrics(report: &mut Report, tracer: &Tracer) {
    let per_call = |name: &str, detail: &str| {
        let (total, n) = tracer.total(name, detail);
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    };
    report.metric("measures.pagerank_serial_s", per_call("session.scalar", "pagerank/serial"), "s");
    report.metric("measures.pagerank_t2_s", per_call("session.scalar", "pagerank/t2"), "s");
    report.metric("measures.kcore_s", per_call("session.scalar", "kcore/"), "s");
    report.metric("measures.degree_s", per_call("session.scalar", "degree/"), "s");
    for (metric, span) in [
        ("scalarfield.tree_s", "session.scalar_tree"),
        ("scalarfield.super_tree_s", "session.super_tree"),
        ("scalarfield.simplify_s", "session.render_tree"),
        ("terrain.layout_s", "session.layout"),
        ("terrain.mesh_s", "session.mesh"),
        ("terrain.export_s", "terrain.render_deterministic_to"),
    ] {
        report.metric(metric, per_call(span, ""), "s");
    }
    let counts = tracer.counts();
    let mean = |f: fn(&layers::BuildCounts) -> usize| {
        counts.iter().map(|(_, c)| f(c) as f64).sum::<f64>() / counts.len().max(1) as f64
    };
    report.metric("scalarfield.super_tree_nodes", mean(|c| c.super_tree_nodes), "count");
    report.metric("scalarfield.render_tree_nodes", mean(|c| c.render_tree_nodes), "count");
    report.metric("terrain.mesh_triangles", mean(|c| c.mesh_triangles), "count");
    report.metric("terrain.export_bytes", mean(|c| c.bytes), "B");
}
