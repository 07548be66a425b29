//! Scheduler correctness: cooperative cancellation leaves the cache
//! consistent (every finished cell checkpointed, the plan resumable),
//! and concurrent sweeps over overlapping grids sharing one cache and
//! one in-flight table compute each distinct cell exactly once while
//! producing byte-identical reports.

use matic_harness::{
    run_sweep_observed, run_sweep_with_cache, CancelToken, CellOrigin, ExecContext, Inflight,
    ProgressSink, SweepCache, SweepOutcome, SweepPlan, SweepReport, TrainingMode,
};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch cache directory per test (std-only tempdir).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "matic-sched-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The same small-but-representative plan the resume tests use: two
/// chips, a fault-free and a faulty voltage point, all three modes.
fn plan(chips: usize, threads: usize) -> SweepPlan {
    SweepPlan::builder()
        .chips(chips)
        .voltages(&[0.9, 0.52])
        .benchmark("inversek2j")
        .expect("builtin benchmark")
        .modes(&[
            TrainingMode::Naive,
            TrainingMode::Mat,
            TrainingMode::MatCanary,
        ])
        .data_scale(0.1)
        .epoch_scale(0.2)
        .seed(11)
        .threads(threads)
        .build()
        .expect("plan is valid")
}

fn report_bytes(r: &SweepReport) -> (String, String) {
    (r.to_json_pretty(), r.to_csv())
}

/// A progress sink that flips a cancel token once `limit` cells have
/// finished — the "user hits cancel mid-sweep" stand-in.
struct CancelAfter {
    token: CancelToken,
    seen: AtomicUsize,
    limit: usize,
}

impl ProgressSink for CancelAfter {
    fn cell_done(&self, _origin: CellOrigin) {
        if self.seen.fetch_add(1, Ordering::SeqCst) + 1 >= self.limit {
            self.token.cancel();
        }
    }
}

#[test]
fn cancel_mid_sweep_checkpoints_the_prefix_and_resumes_byte_identical() {
    let dir = scratch_dir("cancel");
    let cache = SweepCache::open(&dir).expect("cache opens");
    let plan1 = plan(2, 1); // one worker: the walk is strictly sequential
    let total = plan1.cell_count();

    let token = CancelToken::new();
    let sink = CancelAfter {
        token: token.clone(),
        seen: AtomicUsize::new(0),
        limit: 5,
    };
    let ctx = ExecContext {
        cache: Some(&cache),
        inflight: None,
        cancel: Some(&token),
        progress: Some(&sink),
        memo: None,
    };
    let cancelled = match run_sweep_observed(&plan1, &ctx) {
        SweepOutcome::Cancelled(c) => c,
        SweepOutcome::Complete(_) => panic!("the sweep must stop at the cancellation"),
    };
    assert_eq!(
        cancelled.cells_done, 5,
        "a single-threaded walk stops exactly at the next cell boundary"
    );
    assert_eq!(cancelled.cells_total, total);
    assert_eq!(
        cancelled.cache.misses, 5,
        "every finished cell was computed"
    );
    assert_eq!(cancelled.cache.hits, 0);

    // Cancellation must leave the cache consistent: exactly the finished
    // prefix is checkpointed, nothing partial.
    assert_eq!(
        cache.stats().expect("stats").cells,
        cancelled.cells_done,
        "each finished cell was checkpointed before the stop"
    );

    // Resubmitting the plan resumes: the prefix replays, only the rest
    // computes, and the report matches an uncached cold run byte-for-byte.
    let resumed = run_sweep_with_cache(&plan1, Some(&cache));
    assert_eq!(resumed.cache.hits, cancelled.cells_done);
    assert_eq!(resumed.cache.misses, total - cancelled.cells_done);
    let baseline = run_sweep_with_cache(&plan(2, 2), None);
    assert_eq!(
        report_bytes(&baseline.report),
        report_bytes(&resumed.report),
        "a cancel/resume cycle must reproduce the uninterrupted bytes"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_identical_sweeps_compute_each_cell_once() {
    let dir = scratch_dir("concurrent");
    let cache = SweepCache::open(&dir).expect("cache opens");
    let inflight = Inflight::new();
    let run_plan = plan(2, 2);
    let total = run_plan.cell_count();

    // Two fully overlapping jobs race over one cache and one in-flight
    // table — the serve daemon's sharing arrangement.
    let observed = || {
        let ctx = ExecContext {
            cache: Some(&cache),
            inflight: Some(&inflight),
            cancel: None,
            progress: None,
            memo: None,
        };
        match run_sweep_observed(&run_plan, &ctx) {
            SweepOutcome::Complete(run) => run,
            SweepOutcome::Cancelled(_) => unreachable!("no cancel token attached"),
        }
    };
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(observed);
        let b = scope.spawn(observed);
        (a.join().expect("sweep a"), b.join().expect("sweep b"))
    });

    // Exactly-once: every distinct cell was computed by one of the two
    // runs and replayed — as a cache hit or an in-flight dedup — by the
    // other, whatever the interleaving.
    assert_eq!(
        a.cache.misses + b.cache.misses,
        total,
        "each overlapping cell must be computed exactly once \
         (a: {:?}, b: {:?})",
        a.cache,
        b.cache
    );
    assert_eq!(
        a.cache.replayed() + b.cache.replayed(),
        total,
        "the other run's copy of every cell must be a replay"
    );
    assert_eq!(a.cache.cells(), total);
    assert_eq!(b.cache.cells(), total);
    assert_eq!(
        cache.stats().expect("stats").cells,
        total,
        "the shared cache holds each distinct cell once"
    );

    // Determinism: both racing runs and a plain batch run agree on bytes.
    assert_eq!(report_bytes(&a.report), report_bytes(&b.report));
    let batch = run_sweep_with_cache(&run_plan, None);
    assert_eq!(report_bytes(&a.report), report_bytes(&batch.report));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_overlapping_grids_share_the_common_cells() {
    // Partial overlap: the two-chip grid is a strict subset of the
    // three-chip grid (chip cells key on chip index, not population
    // size). The overlap must be computed once across both runs.
    let dir = scratch_dir("overlap");
    let cache = SweepCache::open(&dir).expect("cache opens");
    let inflight = Inflight::new();
    let small = plan(2, 2);
    let large = plan(3, 2);
    let overlap = small.cell_count();
    let distinct = large.cell_count(); // small's cells ⊂ large's cells

    let observed = |p: &SweepPlan| {
        let ctx = ExecContext {
            cache: Some(&cache),
            inflight: Some(&inflight),
            cancel: None,
            progress: None,
            memo: None,
        };
        match run_sweep_observed(p, &ctx) {
            SweepOutcome::Complete(run) => run,
            SweepOutcome::Cancelled(_) => unreachable!("no cancel token attached"),
        }
    };
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| observed(&small));
        let b = scope.spawn(|| observed(&large));
        (
            a.join().expect("small sweep"),
            b.join().expect("large sweep"),
        )
    });

    assert_eq!(
        a.cache.misses + b.cache.misses,
        distinct,
        "only the union of the grids is ever computed \
         (a: {:?}, b: {:?})",
        a.cache,
        b.cache
    );
    assert_eq!(
        a.cache.replayed() + b.cache.replayed(),
        overlap,
        "every overlapping cell is computed by one run and replayed by the other"
    );
    assert_eq!(cache.stats().expect("stats").cells, distinct);

    // Each racing run still matches its own batch bytes exactly.
    let small_batch = run_sweep_with_cache(&small, None);
    let large_batch = run_sweep_with_cache(&large, None);
    assert_eq!(report_bytes(&a.report), report_bytes(&small_batch.report));
    assert_eq!(report_bytes(&b.report), report_bytes(&large_batch.report));

    let _ = fs::remove_dir_all(&dir);
}
