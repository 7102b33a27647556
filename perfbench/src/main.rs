//! The benchmark command.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch-1m|tiles-1m|mixed-1m> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the root of the repository. It generates the seeded graph,
//! builds and starts the program under test, measures for `--seconds`,
//! checks every output, and prints as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The traced
//! run's spans are written to `perfbench/work/`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use perfbench::report::Report;
use perfbench::trace::Tracer;
use perfbench::{batch, generate, mixed, server, tiles};

/// The end-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("miss_ms_p50", "ms"),
    ("hit_ms_p50", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload does not exercise reads 0. The latency tails are
/// here rather than end to end because they spread too much from run to
/// run on `tiles-1m` to carry a bound.
const PER_LAYER: [(&str, &str); 51] = [
    ("tail.miss_ms", "ms"),
    ("tail.hit_ms", "ms"),
    ("batch.pass_s", "s"),
    ("ugraph.open_s", "s"),
    ("ugraph.delta.apply_s", "s"),
    ("ugraph.delta.structural_changes", "count"),
    ("measures.pagerank_serial_s", "s"),
    ("measures.pagerank_t2_s", "s"),
    ("measures.kcore_s", "s"),
    ("measures.degree_s", "s"),
    ("scalarfield.tree_s", "s"),
    ("scalarfield.super_tree_s", "s"),
    ("scalarfield.simplify_s", "s"),
    ("scalarfield.super_tree_nodes", "count"),
    ("scalarfield.render_tree_nodes", "count"),
    ("terrain.layout_s", "s"),
    ("terrain.mesh_s", "s"),
    ("terrain.mesh_triangles", "count"),
    ("terrain.export_s", "s"),
    ("terrain.export_bytes", "B"),
    ("terrain.scene_s", "s"),
    ("terrain.scene_items", "count"),
    ("terrain.tile_render_s", "s"),
    ("terrain.tile_bytes", "B"),
    ("serve.renders", "count"),
    ("serve.renders_per_missed_key", "ratio"),
    ("serve.miss_wait_ms", "ms"),
    ("serve.cache.hit_rate", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.bytes", "B"),
    ("serve.not_modified", "count"),
    ("serve.response_bytes", "B"),
    ("serve.delta_ms_p50", "ms"),
    ("serve.stats.scalar_s", "s"),
    ("serve.stats.tree_s", "s"),
    ("serve.stats.super_tree_s", "s"),
    ("serve.stats.scene_s", "s"),
    ("serve.stats.svg_s", "s"),
    ("serve.replay_gap_pct", "%"),
    ("loadgen.late_ms_p50", "ms"),
    ("loadgen.late_ms_max", "ms"),
    ("shape.miss_share", "ratio"),
    ("shape.deltas", "count"),
    ("trace.pass_untraced_s", "s"),
    ("trace.pass_traced_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.stage_sum_s", "s"),
    ("trace.miss_ms_p50", "ms"),
    ("trace.hit_ms_p50", "ms"),
    ("trace.throughput_rps", "1/s"),
    ("host.steal_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |name: &str| -> Result<String, String> {
        let at = args.iter().position(|a| a == name).ok_or(format!("missing {name}"))?;
        args.get(at + 1).cloned().ok_or(format!("{name} needs a value"))
    };
    let workload = value("--workload")?;
    if !["batch-1m", "tiles-1m", "mixed-1m"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let number = |name: &str| -> Result<u64, String> {
        value(name)?.parse().map_err(|_| format!("{name} must be a whole number"))
    };
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args { workload, seed: number("--seed")?, seconds: number("--seconds")? as f64, trace })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !Path::new("Cargo.toml").is_file() || !Path::new("perfbench/Cargo.toml").is_file() {
        eprintln!("perfbench: run from the root of the repository");
        return ExitCode::from(2);
    }
    let work = PathBuf::from("perfbench/work").join(format!("run-{}", std::process::id()));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(report) => {
            for note in report.notes() {
                println!("# {note}");
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    // Every workload builds the server, so that the first run in a fresh
    // checkout builds everything whichever workload it is.
    let bin = server::build()?;

    let graph = generate();
    eprintln!(
        "perfbench: {} with seed {} over R-MAT scale {} with {} edges",
        args.workload,
        args.seed,
        perfbench::RMAT_SCALE,
        ugraph::GraphStorage::edge_count(&graph),
    );
    let snapshot = work.join("rmat.gtsb");
    // Flush the snapshot to disk so that write-back does not overlap the
    // measured set-up.
    ugraph::io::write_binary_v3_file(&graph, None, &snapshot)
        .and_then(|()| Ok(std::fs::File::open(&snapshot)?.sync_all()?))
        .map_err(|e| format!("cannot write the snapshot: {e}"))?;

    // Every workload starts from the snapshot alone, as the program would.
    drop(graph);

    let tracer = Tracer::new(args.trace);
    let ticks_before = cpu_ticks();
    let mut report = match args.workload.as_str() {
        "tiles-1m" => tiles::run(args.seed, args.seconds, &snapshot, &bin, &tracer),
        "mixed-1m" => mixed::run(args.seed, args.seconds, &snapshot, &bin, &tracer),
        _ => batch::run(args.seconds, &snapshot, &tracer),
    };

    // On a shared virtual host the hypervisor's steal time moves every
    // latency; report it so that a slow run can be told from a slow
    // program.
    if let (Some((total0, steal0)), Some((total1, steal1))) = (ticks_before, cpu_ticks()) {
        let steal_pct = 100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        report.note(format!("host steal {steal_pct:.1}% of CPU time during the run"));
        report.metric("host.steal_pct", steal_pct, "%");
    }
    if args.trace {
        for name in ["miss_ms_p50", "hit_ms_p50", "throughput_rps"] {
            let value = report.get(name).unwrap_or(0.0);
            report.metric(&format!("trace.{name}"), value, "");
        }
        let path = PathBuf::from("perfbench/work")
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        tracer.write_json(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        report.note(format!("{} spans written to {}", tracer.spans().len(), path.display()));
        report.select(&PER_LAYER);
    } else {
        report.select(&END_TO_END);
    }
    Ok(report)
}

/// Total and stolen CPU time since boot, in clock ticks, from the first
/// line of `/proc/stat` (user, nice, system, idle, iowait, irq, softirq,
/// steal).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}
