//! The `served` workload: two `matic serve --workers 1` daemons sharing
//! one fresh cache, one reached over its Unix socket and one over HTTP.
//! A cold sharded sweep fills the cache; then a closed loop of two
//! clients, one per transport, resubmits the same grid as warm jobs that
//! replay it. Every event is timestamped on the client side.

use crate::json::Obj;
use matic_serve::client::{roundtrip, submit};
use matic_serve::{
    shard_sweep, Endpoint, Event, JobSpec, Request, ShardProgress, ShardSweepConfig,
};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Warm jobs every run completes at least, so that ten samples lie
/// beyond the 75th percentile.
const MIN_WARM_JOBS: usize = 40;
/// Spawn-to-ready cycles timed before the measured pairs start.
const SETUP_CYCLES: usize = 7;
/// Cold sharded sweeps per run, each on a fresh pair and cache.
const COLD_RUNS: usize = 2;

struct Daemon {
    child: Child,
    endpoint: Endpoint,
}

impl Daemon {
    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    /// A run that bails out early leaves no daemon behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Spawns the daemon pair over `cache` and waits until both endpoints
/// answer `Status`.
fn spawn_pair(matic: &Path, dir: &Path, cache: &Path) -> Result<[Daemon; 2], String> {
    let spawn = |sock: &Path, http: bool| -> Result<Child, String> {
        let mut cmd = Command::new(matic);
        cmd.arg("serve").arg("--listen").arg(sock);
        if http {
            cmd.args(["--http", "127.0.0.1:0"]);
        }
        cmd.args(["--workers", "1", "--quiet", "--cache-dir"])
            .arg(cache)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        cmd.spawn()
            .map_err(|e| format!("spawning {}: {e}", matic.display()))
    };
    let unix_sock = dir.join("unix.sock");
    let http_sock = dir.join("http.sock");
    let mut unix = Daemon {
        child: spawn(&unix_sock, false)?,
        endpoint: Endpoint::unix(&unix_sock),
    };
    let mut http = Daemon {
        child: spawn(&http_sock, true)?,
        // Replaced by the published HTTP address once it exists.
        endpoint: Endpoint::unix(&http_sock),
    };
    let addr_file = PathBuf::from(format!("{}.http", http_sock.display()));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if Instant::now() > deadline {
            return Err("daemons did not answer Status within 30 s".to_string());
        }
        if let Some(d) = [&mut unix, &mut http]
            .into_iter()
            .find_map(|d| d.child.try_wait().ok().flatten())
        {
            return Err(format!("a daemon exited during start-up: {d}"));
        }
        if let Ok(addr) = std::fs::read_to_string(&addr_file) {
            http.endpoint = Endpoint::parse(&format!("http://{}", addr.trim()));
        }
        let answers = |d: &Daemon| {
            matches!(
                roundtrip(&d.endpoint, &Request::Status),
                Ok(Event::Status { .. })
            )
        };
        // Both at once: each daemon answers on its next accept poll, and
        // asking one after the other would add a whole poll period
        // whenever the second daemon's poll has just gone by.
        if matches!(http.endpoint, Endpoint::Http(_)) {
            let (a, b) = std::thread::scope(|s| {
                let a = s.spawn(|| answers(&unix));
                let b = answers(&http);
                (a.join().expect("status probe thread panicked"), b)
            });
            if a && b {
                return Ok([unix, http]);
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Drains a daemon with `Shutdown` and checks that it exits cleanly.
fn shutdown(mut d: Daemon) -> Result<(), String> {
    let answer = roundtrip(&d.endpoint, &Request::Shutdown);
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        match d.child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() > deadline => {
                break Err("daemon did not exit within 30 s of Shutdown".to_string());
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => break Err(format!("waiting for the daemon: {e}")),
        }
    }?;
    match answer {
        Ok(Event::ShutdownOk { .. }) if status.success() => Ok(()),
        Ok(Event::ShutdownOk { .. }) => Err(format!("daemon exited with {status}")),
        Ok(other) => Err(format!("Shutdown answered {other:?}")),
        Err(e) => Err(format!("Shutdown failed: {e}")),
    }
}

/// User plus system CPU seconds of a live process, from `/proc`.
fn cpu_secs(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("reading /proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in USER_HZ (100 on Linux) ticks.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc stat line")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| "malformed /proc stat line".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set of a live process in MiB, from `/proc`.
fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc status".to_string())
}

/// One warm job as its client saw it; times are seconds after submit.
struct WarmJob {
    http: bool,
    latency: f64,
    accepted: Option<f64>,
    first_progress: Option<f64>,
    done_tail: Option<f64>,
    done_bytes: usize,
    /// `Done` with the cold job's exact bytes.
    ok: bool,
}

fn warm_job(endpoint: &Endpoint, spec: &JobSpec, cold: &str) -> WarmJob {
    let start = Instant::now();
    let (mut accepted, mut first, mut last) = (None, None, None);
    let terminal = submit(endpoint, spec, |event| {
        let t = start.elapsed().as_secs_f64();
        match event {
            Event::Accepted { .. } => accepted = Some(t),
            Event::Progress { .. } => {
                first.get_or_insert(t);
                last = Some(t);
            }
            _ => {}
        }
    });
    let latency = start.elapsed().as_secs_f64();
    let (ok, done_bytes) = match &terminal {
        Ok(Event::Done { report, .. }) => (report == cold, report.len()),
        Ok(other) => {
            eprintln!("perfbench: warm job ended with {other:?}");
            (false, 0)
        }
        Err(e) => {
            eprintln!("perfbench: warm job failed: {e}");
            (false, 0)
        }
    };
    WarmJob {
        http: matches!(endpoint, Endpoint::Http(_)),
        latency,
        accepted,
        first_progress: first,
        done_tail: last.map(|l| latency - l),
        done_bytes,
        ok,
    }
}

/// One cold sharded sweep over a daemon pair, as measured.
struct Cold {
    wall: f64,
    /// CPU seconds the daemons spent on it.
    cpu: f64,
    cells: usize,
    retries: usize,
    /// Gap between the two shards' last progress ticks.
    skew: f64,
    report: String,
}

fn cold_job(pair: &[Daemon; 2], spec: &JobSpec) -> Result<Cold, String> {
    let cpu = || -> Result<f64, String> { Ok(cpu_secs(pair[0].pid())? + cpu_secs(pair[1].pid())?) };
    let ticks: Mutex<[f64; 2]> = Mutex::new([0.0; 2]);
    let mut cfg = ShardSweepConfig::new(pair.iter().map(|d| d.endpoint.clone()).collect());
    cfg.timeout = Some(Duration::from_secs(120));
    let cpu_before = cpu()?;
    let start = Instant::now();
    let observe = |p: ShardProgress<'_>| {
        if let ShardProgress::Event {
            shard,
            event: Event::Progress { .. },
            ..
        } = p
        {
            if let Some(t) = ticks.lock().expect("tick lock poisoned").get_mut(shard) {
                *t = start.elapsed().as_secs_f64();
            }
        }
    };
    let outcome = shard_sweep(spec, &cfg, &observe);
    let wall = start.elapsed().as_secs_f64();
    let cpu = cpu()? - cpu_before;
    let o = outcome.map_err(|e| format!("cold shard sweep failed: {e}"))?;
    let [a, b] = *ticks.lock().expect("tick lock poisoned");
    Ok(Cold {
        wall,
        cpu,
        cells: o.run.report.cells.len(),
        retries: o.failovers,
        skew: (a - b).abs(),
        report: o.report,
    })
}

/// The warm phase: a closed loop of two clients, one per transport, each
/// submitting `per_client` jobs back to back.
fn warm_loop(pair: &[Daemon; 2], spec: &JobSpec, cold: &str, per_client: usize) -> Vec<WarmJob> {
    std::thread::scope(|s| {
        let handles: Vec<_> = pair
            .iter()
            .map(|d| {
                s.spawn(move || {
                    (0..per_client)
                        .map(|_| warm_job(&d.endpoint, spec, cold))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("warm client thread panicked"))
            .collect()
    })
}

/// Runs the workload and returns its measurements. `dir` must be a
/// fresh, short (relative) directory: it holds the sockets, whose paths
/// the kernel limits to about 100 bytes.
///
/// Daemon pairs start `SETUP_CYCLES` times for set-up timing alone, then
/// `COLD_RUNS` times over a fresh cache each for a cold sharded sweep;
/// the last pair also serves the warm loop. Its job count is fixed by
/// `seconds` (two per second, at least `MIN_WARM_JOBS`), because the
/// daemons' memory grows with every job they retain.
pub fn run(
    matic: &Path,
    dir: &Path,
    spec: &JobSpec,
    seconds: f64,
    report_out: &Path,
) -> Result<Obj, String> {
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut drain = |pair: [Daemon; 2]| {
        for d in pair {
            attempted += 1;
            if let Err(e) = shutdown(d) {
                eprintln!("perfbench: {e}");
                failed += 1;
            }
        }
    };
    let mut setup = Vec::new();
    for cycle in 0..SETUP_CYCLES {
        let start = Instant::now();
        let pair = spawn_pair(matic, dir, &dir.join(format!("setup-cache-{cycle}")))?;
        setup.push(start.elapsed().as_secs_f64());
        drain(pair);
    }
    let mut colds: Vec<Cold> = Vec::new();
    let mut warm = Vec::new();
    let mut peak_rss = 0.0;
    for round in 0..COLD_RUNS {
        let start = Instant::now();
        let pair = spawn_pair(matic, dir, &dir.join(format!("cache-{round}")))?;
        setup.push(start.elapsed().as_secs_f64());
        let cold = cold_job(&pair, spec)?;
        if round + 1 == COLD_RUNS {
            let jobs = ((2.0 * seconds) as usize).max(MIN_WARM_JOBS);
            let reference = colds.first().unwrap_or(&cold);
            warm = warm_loop(&pair, spec, &reference.report, jobs.div_ceil(2));
            peak_rss = peak_rss_mb(pair[0].pid())? + peak_rss_mb(pair[1].pid())?;
        }
        colds.push(cold);
        drain(pair);
    }
    let first = &colds[0].report;
    matic_harness::write_atomic(report_out, first)
        .map_err(|e| format!("writing {}: {e}", report_out.display()))?;
    let cold_ok = colds.iter().filter(|c| c.report == *first).count();
    let warm_ok: Vec<&WarmJob> = warm.iter().filter(|j| j.ok).collect();
    attempted += colds.len() + warm.len();
    failed += colds.len() - cold_ok + warm.len() - warm_ok.len();
    let list = |f: &dyn Fn(&WarmJob) -> Option<f64>| -> Vec<f64> {
        warm_ok.iter().filter_map(|j| f(j)).collect()
    };
    let cold_list = |f: &dyn Fn(&Cold) -> f64| -> Vec<f64> { colds.iter().map(f).collect() };

    let mut out = Obj::new();
    out.list("setup_s", &setup)
        .list("cold_wall_s", &cold_list(&|c| c.wall))
        .list("cold_cpu_s", &cold_list(&|c| c.cpu))
        .list("shard_skew_s", &cold_list(&|c| c.skew))
        .int("cells", colds[0].cells as u64)
        .int("retries", colds.iter().map(|c| c.retries as u64).sum())
        .num("peak_rss_mb", peak_rss)
        .list("warm_s", &list(&|j| Some(j.latency)))
        .list("unix_s", &list(&|j| (!j.http).then_some(j.latency)))
        .list("http_s", &list(&|j| j.http.then_some(j.latency)))
        .list("accept_s", &list(&|j| j.accepted))
        .list("first_progress_s", &list(&|j| j.first_progress))
        .list("done_tail_s", &list(&|j| j.done_tail))
        .list("done_bytes", &list(&|j| Some(j.done_bytes as f64)))
        .int("attempted", attempted as u64)
        .int("failed", failed as u64)
        // Operations whose correctness hangs on the first cold report's
        // bytes: every cold job and every warm job that reproduced them.
        .int("cold_dependent", (cold_ok + warm_ok.len()) as u64);
    Ok(out)
}
