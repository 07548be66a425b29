//! In-process half of the sweep benchmark (`perfbench/run.py` drives it).
//!
//! Subcommands, each printing one JSON object on stdout:
//!
//! * `args WORKLOAD SEED` — the `matic sweep` arguments of a batch
//!   workload (one per line instead of JSON);
//! * `setup WORKLOAD SEED REPS` — times plan build, `sweep_splits` and
//!   pool construction `REPS` times;
//! * `trace WORKLOAD SEED --report PATH --seconds S --spans PATH
//!   [--cache-dir DIR]` — the traced walk against an untraced report;
//! * `served SEED --seconds S --matic PATH --dir DIR --report-out PATH` —
//!   the daemon workload.

mod json;
mod served;
mod trace;
mod walk;

use json::Obj;
use matic_harness::{linspace, sweep_splits, SweepCache, SweepReport};
use matic_nn::{BatchScratch, Gradients, Mlp, Sample};
use matic_serve::{JobKind, JobSpec};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{Recorder, Span, SETUP};

/// Worker threads of every workload: the benchmark host's core count.
const WORKERS: usize = 2;

/// The stress axis of a workload: `(lo, hi, steps)`.
enum Axis {
    Voltages(f64, f64, usize),
    Clock(f64, f64, usize),
}

struct Workload {
    name: &'static str,
    axis: Axis,
    benchmarks: &'static str,
    topology: Option<&'static str>,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "canonical",
        axis: Axis::Voltages(0.46, 0.90, 5),
        benchmarks: "all",
        topology: None,
    },
    Workload {
        name: "conv",
        axis: Axis::Voltages(0.46, 0.90, 5),
        benchmarks: "mnist",
        topology: Some("10x10x1;conv3x4;pool2;dense10"),
    },
    Workload {
        name: "clock",
        axis: Axis::Clock(0.0, 0.8, 5),
        benchmarks: "all",
        topology: None,
    },
    // The canonical grid, submitted to daemons.
    Workload {
        name: "served",
        axis: Axis::Voltages(0.46, 0.90, 5),
        benchmarks: "all",
        topology: None,
    },
];

fn workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))
}

impl Workload {
    fn job_spec(&self, seed: u64) -> JobSpec {
        let (voltages, clock) = match self.axis {
            Axis::Voltages(lo, hi, n) => (Some(linspace(lo, hi, n)), None),
            Axis::Clock(lo, hi, n) => (None, Some(linspace(lo, hi, n))),
        };
        JobSpec {
            kind: JobKind::Sweep,
            chips: 8,
            voltages,
            bers: None,
            clock,
            benchmarks: vec![self.benchmarks.to_string()],
            modes: vec!["naive".into(), "mat".into()],
            data_scale: 0.5,
            epoch_scale: 0.5,
            seed,
            no_reuse: false,
            budget_percent: 2.0,
            budget_mse: 0.02,
            chip_range: None,
            topology: self.topology.map(str::to_string),
        }
    }

    /// The same grid as `matic sweep` arguments.
    fn cli_args(&self, seed: u64) -> Vec<String> {
        let (flag, (lo, hi, n)) = match self.axis {
            Axis::Voltages(lo, hi, n) => ("--voltages", (lo, hi, n)),
            Axis::Clock(lo, hi, n) => ("--clock-stress", (lo, hi, n)),
        };
        let mut args: Vec<String> = [
            "sweep",
            "--chips",
            "8",
            "--scale",
            "0.5",
            "--epochs",
            "0.5",
            "--modes",
            "naive,mat",
            "--benchmarks",
            self.benchmarks,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        args.extend([
            flag.to_string(),
            format!("{lo}:{hi}:{n}"),
            "--seed".into(),
            seed.to_string(),
            "--threads".into(),
            WORKERS.to_string(),
            "--quiet".into(),
        ]);
        if let Some(t) = self.topology {
            args.extend(["--topology".to_string(), t.to_string()]);
        }
        args
    }
}

/// Flag values of a subcommand's argument list.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<(Vec<String>, Flags), String> {
        let mut positional = Vec::new();
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) => {
                    let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                    flags.insert(name.to_string(), v.clone());
                }
                None => positional.push(a.clone()),
            }
        }
        Ok((positional, Flags(flags)))
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn path(&self, name: &str) -> Result<PathBuf, String> {
        self.get(name).map(PathBuf::from)
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?
            .parse()
            .map_err(|_| format!("--{name} must be a number"))
    }
}

fn positional<T: std::str::FromStr>(args: &[String], i: usize, what: &str) -> Result<T, String> {
    args.get(i)
        .ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("bad {what}: {:?}", args[i]))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    let (pos, flags) = Flags::parse(rest)?;
    match cmd.as_str() {
        "args" => {
            let w = workload(&positional::<String>(&pos, 0, "workload")?)?;
            Ok(w.cli_args(positional(&pos, 1, "seed")?).join("\n"))
        }
        "setup" => {
            let w = workload(&positional::<String>(&pos, 0, "workload")?)?;
            let spec = w.job_spec(positional(&pos, 1, "seed")?);
            let reps: usize = positional(&pos, 2, "reps")?;
            let mut times = Vec::with_capacity(reps);
            for _ in 0..reps {
                times.push(setup_once(&spec)?);
            }
            Ok(Obj::new().list("setup_s", &times).to_string())
        }
        "trace" => {
            let w = workload(&positional::<String>(&pos, 0, "workload")?)?;
            let seed = positional(&pos, 1, "seed")?;
            let cache_dir = flags.0.get("cache-dir").map(PathBuf::from);
            trace_command(
                w,
                seed,
                &flags.path("report")?,
                flags.num("seconds")?,
                &flags.path("spans")?,
                cache_dir.as_deref(),
            )
            .map(|o| o.to_string())
        }
        "served" => {
            let spec = workload("served")?.job_spec(positional(&pos, 0, "seed")?);
            served::run(
                &flags.path("matic")?,
                &flags.path("dir")?,
                &spec,
                flags.num("seconds")?,
                &flags.path("report-out")?,
            )
            .map(|o| o.to_string())
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// One batch set-up as the engine does it before walking units: plan
/// build, `sweep_splits`, pool construction. Returns its seconds.
fn setup_once(spec: &JobSpec) -> Result<f64, String> {
    let start = Instant::now();
    let mut plan = matic_serve::job::build_plan(spec)?;
    plan.threads = Some(WORKERS);
    let splits = sweep_splits(&plan);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(WORKERS)
        .build()
        .expect("thread pool construction is infallible");
    let secs = start.elapsed().as_secs_f64();
    black_box((splits, pool));
    Ok(secs)
}

fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Layer metrics of one or more walks recorded in `rec`.
fn layer_metrics(
    rec: &Recorder,
    walks: &[walk::Walk],
    cache_bytes: u64,
) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, u64>) {
    let spans = rec.spans();
    let mut secs: BTreeMap<&str, f64> = BTreeMap::new();
    let mut calls: BTreeMap<&str, u64> = BTreeMap::new();
    for s in &spans {
        *secs.entry(s.name).or_default() += s.secs();
        *calls.entry(s.name).or_default() += 1;
    }
    let counts = rec.counts();
    let count = |k: &str| counts.get(k).copied().unwrap_or(0);
    let t = |k: &str| secs.get(k).copied().unwrap_or(0.0);
    let c = |k: &str| calls.get(k).copied().unwrap_or(0);
    let frac = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    // Coverage: time inside named layer spans over the traced busy time
    // (set-up wall plus every unit's span).
    let units: Vec<&Span> = spans.iter().filter(|s| s.name == "harness.unit").collect();
    let unit_ids: std::collections::BTreeSet<u64> = units.iter().map(|s| s.id).collect();
    let in_units: f64 = spans
        .iter()
        .filter(|s| unit_ids.contains(&s.parent))
        .map(Span::secs)
        .sum();
    let in_setup: f64 = spans
        .iter()
        .filter(|s| s.unit == SETUP)
        .map(Span::secs)
        .sum();
    let unit_secs: Vec<f64> = units.iter().map(|s| s.secs()).collect();
    let busy: f64 = unit_secs.iter().sum();
    let setup_wall: f64 = walks.iter().map(|w| w.wall_s - w.units_wall_s).sum();
    let units_wall: f64 = walks.iter().map(|w| w.units_wall_s).sum();

    let mut m = BTreeMap::new();
    m.insert("core.train_mat_s", t("core.train_mat"));
    m.insert("core.train_naive_s", t("core.train_naive"));
    m.insert("core.compose_s", t("core.compose"));
    m.insert("core.faults_s", t("core.faults"));
    m.insert("snnac.eval_s", t("snnac.eval"));
    m.insert(
        "snnac.ns_per_mac",
        if count("snnac.macs") == 0 {
            0.0
        } else {
            t("snnac.eval") * 1e9 / count("snnac.macs") as f64
        },
    );
    m.insert("sram.profile_s", t("sram.profile"));
    m.insert("snnac.synthesize_s", t("snnac.synthesize"));
    m.insert("datasets.generate_s", t("datasets.generate"));
    m.insert("harness.unit_p50_s", median(&unit_secs));
    m.insert(
        "harness.unit_max_s",
        unit_secs.iter().copied().fold(0.0, f64::max),
    );
    m.insert(
        "harness.worker_idle_frac",
        (1.0 - busy / (WORKERS as f64 * units_wall)).max(0.0),
    );
    m.insert("cache.store_s", t("cache.store"));
    m.insert("cache.lookup_s", t("cache.lookup"));
    m.insert(
        "trace.coverage_frac",
        (in_units + in_setup) / (busy + setup_wall),
    );

    let mut n = BTreeMap::new();
    n.insert("core.train_mat_calls", c("core.train_mat"));
    n.insert("core.train_naive_calls", c("core.train_naive"));
    n.insert("core.compose_calls", c("core.compose"));
    n.insert("snnac.eval_calls", c("snnac.eval"));
    n.insert("snnac.eval_replays", count("snnac.eval_replays"));
    n.insert("snnac.macs", count("snnac.macs"));
    n.insert("sram.profiles", c("sram.profile"));
    n.insert("datasets.samples", count("datasets.samples"));
    n.insert("core.mat_cells", count("core.mat_cells"));
    n.insert("core.mat_reused", count("core.mat_reused"));
    n.insert("cache.stores", c("cache.store"));
    n.insert("cache.hits", count("cache.hits"));
    n.insert("cache.misses", count("cache.misses"));
    n.insert("cache.bytes_written", cache_bytes);
    m.insert(
        "core.mat_reuse_frac",
        frac(count("core.mat_reused"), count("core.mat_cells")),
    );
    m.insert(
        "snnac.eval_replay_frac",
        frac(
            count("snnac.eval_replays"),
            count("snnac.eval_replays") + c("snnac.eval"),
        ),
    );
    (m, n)
}

/// The traced run: walks the workload's units against the untraced
/// `report` for about `seconds` (at least twice for batch workloads, so
/// that counts can be checked to repeat), checks every cell bit for bit,
/// then times the network kernels on the workload's own specs and data.
/// With `cache_dir` (the served workload), one cold walk fills a fresh
/// cache and one warm walk replays it.
fn trace_command(
    w: &Workload,
    seed: u64,
    report: &Path,
    seconds: f64,
    spans_path: &Path,
    cache_dir: Option<&Path>,
) -> Result<Obj, String> {
    let text = std::fs::read_to_string(report)
        .map_err(|e| format!("reading {}: {e}", report.display()))?;
    let report: SweepReport =
        serde_json::from_str(&text).map_err(|e| format!("parsing the untraced report: {e:?}"))?;
    let spec = w.job_spec(seed);
    let start = Instant::now();
    let mut problems = Vec::new();
    let mut walls = Vec::new();
    let mut all_spans = Vec::new();
    let mut per_walk = Vec::new();
    let (metrics, counts) = match cache_dir {
        Some(dir) => {
            let cache =
                SweepCache::open(dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
            let rec = Recorder::new();
            let cold = walk::traced_walk(&spec, WORKERS, Some(&cache), &report.cells, &rec)?;
            let bytes = cache
                .stats()
                .map_err(|e| format!("cache stats: {e}"))?
                .bytes;
            let warm = walk::traced_walk(&spec, WORKERS, Some(&cache), &report.cells, &rec)?;
            for wk in [&cold, &warm] {
                if let Err(e) = walk::check_errors(&wk.errors, &report.cells) {
                    problems.push(e);
                }
                walls.push(wk.wall_s);
            }
            let walks = [cold, warm];
            all_spans = rec.spans();
            layer_metrics(&rec, &walks, bytes)
        }
        None => {
            // At least two walks; another only if it should end in time.
            let mut last = 0.0;
            while per_walk.len() < 2 || start.elapsed().as_secs_f64() + last <= seconds {
                let rec = Recorder::new();
                let wk = walk::traced_walk(&spec, WORKERS, None, &report.cells, &rec)?;
                if let Err(e) = walk::check_errors(&wk.errors, &report.cells) {
                    problems.push(e);
                }
                walls.push(wk.wall_s);
                last = wk.wall_s;
                let (m, n) = layer_metrics(&rec, std::slice::from_ref(&wk), 0);
                all_spans.extend(rec.spans());
                per_walk.push((m, n));
            }
            let first_counts = per_walk[0].1.clone();
            if per_walk.iter().any(|(_, n)| *n != first_counts) {
                problems.push("layer counts differ between traced walks".to_string());
            }
            let mut m = BTreeMap::new();
            for key in per_walk[0].0.keys() {
                let vals: Vec<f64> = per_walk.iter().map(|(m, _)| m[key]).collect();
                m.insert(*key, median(&vals));
            }
            (m, first_counts)
        }
    };
    if let Err(e) = trace::write_spans(spans_path, &all_spans) {
        problems.push(format!("writing {}: {e}", spans_path.display()));
    }
    let (fwd, grad) = nn_kernels(&spec)?;

    let mut m = Obj::new();
    for (k, v) in &metrics {
        m.num(k, *v);
    }
    m.num("nn.forward_us_per_sample", fwd)
        .num("nn.grad_us_per_batch8", grad);
    let mut n = Obj::new();
    for (k, v) in &counts {
        n.int(k, *v);
    }
    let mut out = Obj::new();
    out.bool("ok", problems.is_empty())
        .str("problems", &problems.join("; "))
        .list("walk_wall_s", &walls)
        .obj("metrics", &m)
        .obj("counts", &n);
    Ok(out)
}

/// Times `Mlp::forward_batch` (per sample, 32-sample batches) and
/// `Mlp::gradients_indexed` (per 8-sample batch) on every distinct
/// network of the workload, initialised fresh and fed the workload's own
/// training data. Returns `(µs per sample, µs per batch of 8)`.
fn nn_kernels(spec: &JobSpec) -> Result<(f64, f64), String> {
    const BUDGET_S: f64 = 0.15;
    let plan = matic_serve::job::build_plan(spec)?;
    let splits = sweep_splits(&plan);
    let mut seen = Vec::new();
    let (mut fwd_s, mut fwd_n, mut grad_s, mut grad_n) = (0.0, 0usize, 0.0, 0usize);
    for (scen, split) in plan.scenarios.iter().zip(&splits) {
        let topo = scen.topology();
        if seen.contains(&topo) {
            continue;
        }
        seen.push(topo.clone());
        let net = Mlp::init(topo, 1);
        let data: &[Sample] = &split.train[..split.train.len().min(256)];
        let inputs: Vec<&[f64]> = data.iter().map(|s| s.input.as_slice()).collect();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < BUDGET_S {
            for chunk in inputs.chunks(32) {
                black_box(net.forward_batch(black_box(chunk)));
                fwd_n += chunk.len();
            }
        }
        fwd_s += start.elapsed().as_secs_f64();

        let mut total = Gradients::zeros_like(&net);
        let mut scratch = BatchScratch::default();
        let indices: Vec<usize> = (0..data.len()).collect();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < BUDGET_S {
            for batch in indices.chunks_exact(8) {
                net.gradients_indexed(data, batch, &mut total, &mut scratch);
                black_box(&total);
                grad_n += 1;
            }
        }
        grad_s += start.elapsed().as_secs_f64();
    }
    Ok((
        fwd_s * 1e6 / fwd_n.max(1) as f64,
        grad_s * 1e6 / grad_n.max(1) as f64,
    ))
}
