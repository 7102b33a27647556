//! The program under test as a separate process: the shipped
//! `terrain_server` binary, built from the checkout and started over the
//! generated snapshot.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use crate::report::Report;
use crate::{record_setup, SETUPS, WORKERS};

/// Build `terrain_server` from the workspace in the current directory into
/// this benchmark's own Cargo target directory (the one above the
/// executable's profile directory) and return its path.
pub fn build() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target_dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| format!("no target directory above {}", exe.display()))?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "serve"])
        .args(["--bin", "terrain_server", "--target-dir"])
        .arg(target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building terrain_server failed: {status}"));
    }
    let bin = exe.with_file_name("terrain_server");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("terrain_server not found at {}", bin.display()))
    }
}

/// A running server process. Dropping it kills the process and waits for
/// it to end.
pub struct ServerProcess {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Seconds from spawn until it listened with the graph registered.
    pub boot_s: f64,
}

impl ServerProcess {
    /// Start `bin` with `workers` workers over the snapshot at `graph`
    /// (registered under its file stem) and wait until it listens.
    pub fn start(bin: &Path, graph: &Path, workers: usize) -> Result<ServerProcess, String> {
        let started = Instant::now();
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string(), "--graph"])
            .arg(graph)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut line = String::new();
        let read = BufReader::new(child.stdout.take().expect("piped stdout")).read_line(&mut line);
        let boot_s = started.elapsed().as_secs_f64();
        let addr = line.trim().rsplit("http://").next().and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProcess { child, addr, boot_s }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its address (got {line:?})"))
            }
        }
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Option<f64> {
        vm_hwm_mib(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Boot the server [`SETUPS`] times before the run, stopping all but the
/// last, which is returned, and record `setup_s`, the median boot.
pub fn boot_for_run(bin: &Path, snapshot: &Path, report: &mut Report) -> Option<ServerProcess> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        match ServerProcess::start(bin, snapshot, WORKERS) {
            Ok(server) => {
                times.push(server.boot_s);
                last = Some(server);
            }
            Err(e) => {
                report.check(false, || e);
                return None;
            }
        }
    }
    record_setup(report, "server boots", &times);
    let server = last?;
    let health = serve::client::get(server.addr, "/healthz");
    report.check(health.is_ok(), || format!("health check: {:?}", health.err()));
    Some(server)
}

/// Counters from the server's own `/stats`.
pub fn server_counters(report: &mut Report, stats: &str, missed_keys: usize) {
    let number = |key: &str| json_number(stats, key).unwrap_or(0.0);
    let renders = number("renders");
    report.metric("serve.renders", renders, "count");
    report.metric("serve.renders_per_missed_key", renders / missed_keys.max(1) as f64, "ratio");
    report.metric("serve.cache.hit_rate", number("hit_rate"), "ratio");
    report.metric("serve.cache.evictions", number("evictions"), "count");
    report.metric("serve.cache.bytes", number("bytes"), "B");
    report.metric("serve.not_modified", number("not_modified"), "count");
    for stage in ["scalar", "tree", "super_tree", "scene", "svg"] {
        let per_render = number(stage) / renders.max(1.0);
        report.metric(&format!("serve.stats.{stage}_s"), per_render, "s");
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mib(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Reset this process's peak resident set to its current size, so that a
/// later `VmHWM` covers only what follows.
pub fn reset_own_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The first number after `"key":` in a flat JSON body (the server's
/// `/stats` keys are unique).
pub fn json_number(body: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &body[body.find(&needle)? + needle.len()..];
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c))).unwrap_or(rest.len());
    rest[..end].parse().ok()
}
