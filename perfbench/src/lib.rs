//! The graph-terrain benchmark: seeded inputs, three workloads, output
//! checks, in-memory tracing and the result line.
//!
//! Every workload works on one R-MAT graph (scale 17, one million edge
//! samples) generated from the run's seed and written as a v3 snapshot;
//! the program under test receives only that snapshot and the requests.

pub mod batch;
pub mod layers;
pub mod loadgen;
pub mod mixed;
pub mod plan;
pub mod report;
pub mod rng;
pub mod server;
pub mod stats;
pub mod tiles;
pub mod trace;

use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use graph_terrain::SharedGraph;
use serve::client::{self, HttpResponse};
use ugraph::CsrGraph;

use crate::report::Report;
use crate::trace::Tracer;

/// R-MAT scale: `2^17` vertices.
pub const RMAT_SCALE: u32 = 17;
/// R-MAT edge samples (duplicates and self loops drop out).
pub const RMAT_EDGE_SAMPLES: usize = 1_000_000;
/// Times the set-up step is repeated before the measured window;
/// `setup_s` is their median. A set-up takes milliseconds and moves with
/// what else a shared host runs (a server boot took 6-65 ms on a 2-vCPU
/// virtual machine), so one run takes many samples.
pub const SETUPS: usize = 31;
/// The R-MAT seed of the workload graph. The graph is the same for every
/// workload seed, so that runs with different seeds do the same work per
/// request; the workload seed drives the traffic and the delta batches.
pub const GRAPH_SEED: u64 = 20170419;
/// Server worker threads and client connections: the host's 2 CPUs.
pub const WORKERS: usize = 2;

/// The workload graph: 131,072 vertices and 928,487 edges.
pub fn generate() -> CsrGraph {
    ugraph::generators::rmat(RMAT_SCALE, RMAT_EDGE_SAMPLES, GRAPH_SEED)
}

/// Open the snapshot memory-mapped `repeats` times, pushing each open's
/// seconds onto `times`; returns the last graph.
pub fn ugraph_open(
    snapshot: &Path,
    tracer: &Tracer,
    repeats: usize,
    times: &mut Vec<f64>,
) -> Result<SharedGraph, String> {
    let mut graph = None;
    for _ in 0..repeats {
        let request = tracer.request_id();
        let t = Instant::now();
        let opened = tracer
            .span("ugraph.open_mapped", "", request, 0, |_| SharedGraph::open_mapped(snapshot));
        times.push(t.elapsed().as_secs_f64());
        graph = Some(opened.map_err(|e| e.to_string())?);
    }
    graph.ok_or_else(|| "no open was asked for".to_string())
}

/// Record `setup_s`, the median of the set-up `times` in seconds, with a
/// note naming `what` was timed and the range; returns the median.
pub fn record_setup(report: &mut Report, what: &str, times: &[f64]) -> f64 {
    let setup_s = stats::median(times).unwrap_or(0.0);
    report.metric("setup_s", setup_s, "s");
    let fastest = times.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = times.iter().copied().fold(0.0, f64::max);
    report.note(format!(
        "setup_s {:.1} ms = median of {} {what} ({:.1}-{:.1} ms)",
        setup_s * 1e3,
        times.len(),
        fastest * 1e3,
        slowest * 1e3
    ));
    setup_s
}

/// Record `{kind}_ms_p50` and the tail `tail.{kind}_ms` of latency
/// samples in milliseconds, with a note naming the tail's percentile and
/// sample count.
pub fn e2e_latency(report: &mut Report, kind: &str, p50: f64, samples_ms: &[f64]) {
    report.metric(&format!("{kind}_ms_p50"), p50, "ms");
    match stats::tail(samples_ms) {
        Some(tail) => {
            report.metric(&format!("tail.{kind}_ms"), tail.value, "ms");
            report.note(format!(
                "{kind}_ms_p50 {p50:.3} ms, tail.{kind}_ms {:.3} ms = p{} of {} samples",
                tail.value, tail.percentile, tail.samples
            ));
        }
        None => {
            let max = samples_ms.iter().copied().fold(0.0, f64::max);
            report.metric(&format!("tail.{kind}_ms"), max, "ms");
            report.note(format!(
                "tail.{kind}_ms {max:.3} ms = the maximum: only {} samples",
                samples_ms.len()
            ));
        }
    }
}

/// One HTTP exchange through `serve::client`, inside a `client.<method>`
/// span.
pub fn call(
    tracer: &Tracer,
    request: u64,
    addr: SocketAddr,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<HttpResponse> {
    let name = format!("client.{}", method.to_ascii_lowercase());
    tracer.span(&name, target, request, 0, |_| client::request(addr, method, target, headers, body))
}
