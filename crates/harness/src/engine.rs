//! The sweep executor: parallel evaluation of the plan's cell grid.
//!
//! # Parallel decomposition
//!
//! The unit of parallel work is one **(scenario, chip)** pair: the
//! chip-stateful stages of a unit (profiling, the naive baseline,
//! per-point adaptive training) run sequentially so that the SRAM
//! mechanics stay deterministic, while units — which share nothing — are
//! distributed over a work queue that idle workers pull from
//! ([`rayon`]'s dynamic scheduling). MAT training times vary wildly with
//! fault density, which is exactly the load shape that queue balancing
//! handles well. Inside a unit, each cell's NPU evaluation additionally
//! splits its test set into fixed-size chunks across the pool
//! ([`eval_composed_set`]) — sound because the composed weight artifact
//! is immutable during evaluation, and byte-stable because the
//! per-sample contributions are reassembled and folded in sample order
//! (see that function's determinism notes). Small grids therefore no
//! longer leave cores idle.
//!
//! # Determinism
//!
//! Reports are byte-identical for every worker-thread count **and every
//! cache hit/miss mix** because:
//!
//! * every random quantity derives its seed from the plan and the cell's
//!   grid position ([`crate::seeds`]), never from execution order;
//! * each unit owns its chip instance, so no cross-unit state exists;
//! * results are reassembled in grid order, not completion order;
//! * reports carry no timestamps or run-environment details;
//! * every chip evaluation is a pure function of (model, fault map), and
//!   every trained model a pure function of (topology, recipe, dataset,
//!   fault map) — so a cell replayed from the cache holds exactly the
//!   bytes a recomputation would produce.
//!
//! # Model reuse
//!
//! Under [`ReusePolicy::SupersetMap`](crate::ReusePolicy::SupersetMap)
//! the engine walks the stress points from mild to harsh (voltages
//! high-to-low, BERs and clock stress low-to-high) and keeps the last
//! trained model; a new point reuses it iff the training-time fault map
//! is a superset of the point's map (bit-cell failures are monotone in
//! voltage, so "no new faults appeared" means the trained model already
//! routes around everything present). This skips redundant retraining
//! across the fault-free top of the voltage range while reproducing the
//! paper's one-model-per-operating-point flow wherever maps differ.
//!
//! Across units, every training goes through the run's
//! [`TrainingMemo`]: each distinct (recipe, placed masks) content is
//! trained once, so every chip's baseline and every fault-free MAT point
//! of a benchmark share one model.
//!
//! # One walk for every fault model
//!
//! Silicon-backed and synthetic fault models share one unit walk
//! ([`run_unit_observed`]); a per-unit source only decides where fault
//! content comes from (a profiled chip, or the plan's seeds) and where
//! models are evaluated (on the chip, or in a clean store with the
//! faults applied). Timing-error drops need no path of their own: a
//! dropped MAC is bit-identical to a zero weight word, so evaluation
//! folds the drop set into the composed weights once per cell
//! ([`FaultedWeights::drop_macs`]) and runs the plain batched kernels,
//! while training, cell keys and eval replay use the equivalent
//! stuck-at-0 surrogate map ([`drop_surrogate_map`]).
//!
//! # The cache skip path
//!
//! With a [`SweepCache`] attached, each cell is looked up by its content
//! key ([`CellKey`]) right after the point's fault map is known, and
//! skipped on a hit. Training is **lazy** so skipping stays sound:
//!
//! * the naive baseline (and its nominal-voltage error, which every cell
//!   records) is trained on the first cache miss in the unit — a fully
//!   cached unit never trains it;
//! * the adaptive-model slot tracks *which fault map* the cold walk
//!   would have trained against at every point (reuse decisions replay
//!   eagerly), but the actual training runs only when a miss needs the
//!   model. A miss that follows cache-hit points therefore trains
//!   against the exact map the cold run would have used, reproducing
//!   both the model bytes and the `reused_model` provenance flag.

use crate::cache::{CacheUsage, CellKey, SweepCache, UnitKeyPrefix};
use crate::memo::{TrainRecipe, TrainingMemo};
use crate::plan::{ReusePolicy, StressAxis, SweepPlan, TrainingMode};
use crate::report::{
    CellEnergy, CellRecord, PlanSummary, SweepReport, REPORT_SCHEMA, REPORT_SCHEMA_V4,
};
use crate::scenario::Scenario;
use crate::sched::{
    par_chunked, CancelledSweep, CellOrigin, ExecContext, Resolution, SweepOutcome, UnitOutcome,
};
use matic_core::{
    drop_surrogate_map, upload_weights, CellFaults, DeploymentFlow, FaultContext, FaultModel,
    FaultedWeights, ParamRef, TrainedModel, WeightLayout,
};
use matic_datasets::Split;
use matic_nn::kernel::MacDropSpec;
use matic_nn::Sample;
use matic_snnac::microcode::Program;
use matic_snnac::npu::NpuStats;
use matic_snnac::{Chip, ChipConfig, Snnac};
use matic_sram::{ArrayConfig, FaultMap, SramArray};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The outcome of one sweep run: the deterministic report plus the
/// run's cache provenance. The provenance lives here — not inside the
/// serialized report — precisely so that cold and resumed runs emit
/// byte-identical bytes.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The aggregated report (serializes identically for every thread
    /// count and cache state).
    pub report: SweepReport,
    /// How the attached cache was used (all-miss when none was).
    pub cache: CacheUsage,
    /// How many models the run trained: the distinct (recipe, placed
    /// masks) contents its cache misses needed (see [`TrainingMemo`]).
    /// Identical for every thread count; never serialized.
    pub models_trained: usize,
}

/// Runs the full sweep described by `plan` and aggregates the report.
///
/// Uses every worker rayon gives the process unless the plan pins
/// [`threads`](SweepPlan::threads), and attaches the persistent cell
/// cache when the plan names a [`cache_dir`](SweepPlan::cache_dir). The
/// returned report serializes byte-identically for any thread count and
/// any cache hit/miss mix.
///
/// # Panics
///
/// Panics if the plan's cache directory cannot be created or opened;
/// use [`run_sweep_with_cache`] to handle cache I/O errors yourself.
pub fn run_sweep(plan: &SweepPlan) -> SweepReport {
    let cache = plan.cache_dir.as_ref().map(|dir| {
        SweepCache::open(dir)
            .unwrap_or_else(|e| panic!("opening sweep cache at {}: {e}", dir.display()))
    });
    run_sweep_with_cache(plan, cache.as_ref()).report
}

/// Runs the sweep with an explicitly managed cache (or none), returning
/// the report together with per-cell cache provenance.
pub fn run_sweep_with_cache(plan: &SweepPlan, cache: Option<&SweepCache>) -> SweepRun {
    match run_sweep_observed(plan, &ExecContext::batch(cache)) {
        SweepOutcome::Complete(run) => run,
        SweepOutcome::Cancelled(_) => {
            unreachable!("a batch context carries no cancel token")
        }
    }
}

/// The deterministic per-scenario datasets of a plan, generated up
/// front. Datasets are shared per scenario (population statistics vary
/// the silicon, not the data); index the result by scenario index.
pub fn sweep_splits(plan: &SweepPlan) -> Vec<Split> {
    plan.scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| s.generate(plan.data_seed(i), plan.data_scale))
        .collect()
}

/// The plan's work units — one `(scenario index, chip index)` pair per
/// unit, scenario-major — in the exact order whose flattened cells form
/// the documented grid order. External schedulers (the serve daemon's
/// shared worker pool) distribute these units however they like, run
/// each through [`run_unit_observed`], and hand the outcomes **in this
/// order** to [`assemble_sweep`]; the report bytes are then independent
/// of completion order by construction.
pub fn sweep_units(plan: &SweepPlan) -> Vec<(usize, usize)> {
    (0..plan.scenarios.len())
        .flat_map(|s| (0..plan.chips).map(move |c| (s, c)))
        .collect()
}

/// Runs the full sweep through an [`ExecContext`]: the incremental,
/// cancellable entry point. With a default (batch) context this is
/// exactly [`run_sweep_with_cache`]; with a cancel token it stops at the
/// next cell boundary of every unit once the token flips; with an
/// in-flight table it deduplicates cell computations against concurrent
/// sweeps sharing the same table and cache.
pub fn run_sweep_observed(plan: &SweepPlan, ctx: &ExecContext<'_>) -> SweepOutcome {
    let splits = sweep_splits(plan);
    let memo = TrainingMemo::new();
    let ctx = &ExecContext {
        memo: Some(&memo),
        ..*ctx
    };
    let units = sweep_units(plan);
    let pool = ThreadPoolBuilder::new()
        .num_threads(plan.threads.unwrap_or(0))
        .build()
        .expect("thread pool construction is infallible");
    let per_unit: Vec<UnitOutcome> = pool.install(|| {
        units
            .par_iter()
            .map(|&(scen_idx, chip_idx)| {
                run_unit_observed(plan, scen_idx, chip_idx, &splits[scen_idx], ctx)
            })
            .collect()
    });
    match assemble_sweep(plan, per_unit, ctx.cache.is_some()) {
        SweepOutcome::Complete(run) => SweepOutcome::Complete(SweepRun {
            models_trained: memo.trained(),
            ..run
        }),
        cancelled => cancelled,
    }
}

/// Reassembles per-unit outcomes (in [`sweep_units`] order) into the
/// sweep outcome. Grid order — not completion order — determines the
/// report, which is what keeps service-scheduled sweeps byte-identical
/// to batch runs. The run's [`models_trained`](SweepRun::models_trained)
/// is left at zero: only the caller knows its training memo.
pub fn assemble_sweep(
    plan: &SweepPlan,
    per_unit: Vec<UnitOutcome>,
    cache_enabled: bool,
) -> SweepOutcome {
    let cancelled = per_unit.iter().any(|u| u.cancelled);
    let mut cells = Vec::with_capacity(plan.cell_count());
    let mut per_cell = Vec::with_capacity(plan.cell_count());
    let (mut hits, mut deduped) = (0usize, 0usize);
    for (cell, origin) in per_unit.into_iter().flat_map(|u| u.cells) {
        per_cell.push(origin.is_replay());
        hits += (origin == CellOrigin::CacheHit) as usize;
        deduped += (origin == CellOrigin::Deduped) as usize;
        cells.push(cell);
    }
    let usage = CacheUsage {
        enabled: cache_enabled,
        hits,
        deduped,
        misses: per_cell.len() - hits - deduped,
        per_cell,
    };
    if cancelled {
        return SweepOutcome::Cancelled(CancelledSweep {
            cells_done: cells.len(),
            cells_total: plan.cell_count(),
            cache: usage,
        });
    }
    let points = SweepReport::summarize(&cells);
    // Plans sweeping only plain dense MLPs keep the exact v3 byte layout;
    // an extended (conv/pool) topology upgrades the report to v4 and adds
    // the per-scenario topology echo.
    let extended = plan
        .scenarios
        .iter()
        .any(|s| !s.topology().is_plain_dense());
    let schema = if extended {
        REPORT_SCHEMA_V4
    } else {
        REPORT_SCHEMA
    };
    let topologies = extended.then(|| {
        plan.scenarios
            .iter()
            .map(|s| {
                let topo = s.topology();
                format!(
                    "{}:{:032x}",
                    topo.tag(),
                    matic_sram::fingerprint::fingerprint_of(&topo)
                )
            })
            .collect()
    });
    SweepOutcome::Complete(SweepRun {
        report: SweepReport {
            schema: schema.to_string(),
            plan: PlanSummary {
                chips: plan.chips,
                fault_model: plan.model.name().to_string(),
                stress_kind: plan.axis.kind().to_string(),
                stress_points: plan.axis.points().to_vec(),
                scenarios: plan
                    .scenarios
                    .iter()
                    .map(|s| s.name().to_string())
                    .collect(),
                modes: plan.modes.iter().map(|m| m.name().to_string()).collect(),
                data_scale: plan.data_scale,
                epoch_scale: plan.epoch_scale,
                base_seed: plan.base_seed,
                topologies,
            },
            cells,
            points,
        },
        cache: usage,
        models_trained: 0,
    })
}

/// Evaluates a trained model **on the chip**: uploads the quantized
/// weights at a safe voltage, overscales the SRAM rail to `voltage`,
/// composes the post-disturb weight contents into a
/// [`FaultedWeights`](matic_core::FaultedWeights) artifact **once**, and
/// runs the test set through the NPU's dense kernel — the fault map is
/// never consulted per MAC. Returns the Table I metric and the cycle
/// counters of one inference (for energy accounting).
pub fn eval_on_chip(
    chip: &mut Chip,
    model: &TrainedModel,
    is_classification: bool,
    test: &[Sample],
    voltage: f64,
) -> (f64, NpuStats) {
    chip.set_sram_voltage(0.9);
    matic_core::upload_weights(model, chip.array_mut());
    chip.set_sram_voltage(voltage);
    let npu = Snnac::snnac(model.format());
    let program = Program::compile(model.master().spec(), npu.pe_count());
    let weights =
        matic_core::FaultedWeights::from_array(model.layout(), model.format(), chip.array_mut());
    eval_composed_set(&npu, &program, &weights, None, is_classification, test)
}

/// Process-wide override of the eval chunk size (`None` restores the
/// default resolution: the `MATIC_EVAL_CHUNK` environment variable, then
/// 32). Exists for differential tests; like the kernel-tier override,
/// flipping it can never change results — only how the identical
/// per-sample contributions are grouped into batched NPU calls.
pub fn set_eval_chunk(chunk: Option<usize>) {
    // 0 encodes "no override"; an explicit Some(0) is clamped to 1.
    let encoded = match chunk {
        Some(c) => c.max(1),
        None => 0,
    };
    EVAL_CHUNK_OVERRIDE.store(encoded, Ordering::Relaxed);
}

/// `0` means "no override active".
static EVAL_CHUNK_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Samples per batched NPU call (and per parallel work item) inside one
/// cell's evaluation: the [`set_eval_chunk`] override if active, else
/// `MATIC_EVAL_CHUNK`, else 32 — large enough to amortize each weight-row
/// traversal across the lanes, small enough to split a few-hundred-sample
/// eval set across workers.
fn eval_chunk() -> usize {
    let v = EVAL_CHUNK_OVERRIDE.load(Ordering::Relaxed);
    if v > 0 {
        return v;
    }
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    ENV.get_or_init(|| {
        std::env::var("MATIC_EVAL_CHUNK").ok().map(|v| {
            v.parse::<usize>()
                .unwrap_or_else(|_| {
                    panic!("MATIC_EVAL_CHUNK must be a positive integer, got {v:?}")
                })
                .max(1)
        })
    })
    .unwrap_or(32)
}

/// Evaluates a composed weight set over the whole test set through the
/// NPU's batched kernel, with the eval set split into fixed-size chunks
/// (see [`set_eval_chunk`]) across the worker pool. Returns the
/// Table I metric and the per-inference cycle counters (identical for
/// every sample — the NPU schedule is data-independent).
///
/// A `drops` spec is applied once, before chunking, as weight content
/// ([`FaultedWeights::drop_macs`]): a dropped MAC is bit-identical to a
/// zero weight word, so every chunk runs the plain batched kernel.
///
/// # Determinism
///
/// The result is bit-identical to a sequential per-sample
/// `execute_composed` loop over the same (folded) weights, and invariant
/// across worker counts, chunk sizes and kernel tiers, because every
/// stage either computes exact per-sample values or folds them in a
/// fixed order:
///
/// 1. each sample's NPU output is bit-identical in every batching (exact
///    integer MACs, per-sample lanes);
/// 2. each sample's contribution — a 0/1 miss indicator or its MSE term —
///    depends on that sample alone;
/// 3. [`par_chunked`] reassembles the contributions in sample order
///    regardless of which worker computed which chunk;
/// 4. the final fold is strictly sequential over that order, one f64
///    accumulator.
pub fn eval_composed_set(
    npu: &Snnac,
    program: &Program,
    weights: &FaultedWeights,
    drops: Option<&MacDropSpec>,
    is_classification: bool,
    test: &[Sample],
) -> (f64, NpuStats) {
    let folded;
    let weights = match drops {
        Some(drops) => {
            let mut w = weights.clone();
            w.drop_macs(drops);
            folded = w;
            &folded
        }
        None => weights,
    };
    let per_sample: Vec<(f64, NpuStats)> = par_chunked(test, eval_chunk(), |samples| {
        let inputs: Vec<&[f64]> = samples.iter().map(|s| s.input.as_slice()).collect();
        let (outs, stats) = npu.execute_batch(program, weights, &inputs);
        outs.iter()
            .zip(samples)
            .map(|(out, s)| {
                let contribution = if is_classification {
                    f64::from(!classified_correctly(out, &s.target) as u8)
                } else {
                    out.iter()
                        .zip(&s.target)
                        .map(|(y, t)| (y - t) * (y - t))
                        .sum::<f64>()
                        / out.len() as f64
                };
                (contribution, stats)
            })
            .collect()
    });
    let stats = per_sample.first().map(|&(_, s)| s).unwrap_or_default();
    let mut sum = 0.0f64;
    for &(c, _) in &per_sample {
        sum += c;
    }
    let metric = if is_classification {
        100.0 * sum / test.len().max(1) as f64
    } else {
        sum / test.len().max(1) as f64
    };
    (metric, stats)
}

fn classified_correctly(out: &[f64], target: &[f64]) -> bool {
    if out.len() == 1 {
        (out[0] >= 0.5) == (target[0] >= 0.5)
    } else {
        argmax(out) == argmax(target)
    }
}

fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, x) in v.iter().enumerate() {
        if *x > v[best] {
            best = i;
        }
    }
    best
}

/// The full per-cell energy record at the chip's **current** operating
/// point for an inference whose NPU counters are `npu`: the point itself,
/// the calibrated per-domain pJ/cycle there, energy/inference and power
/// at the point's clock. The caller must have programmed the rail to the
/// cell's voltage first ([`UnitSource::eval`] does, computed or replayed).
fn cell_energy(chip: &Chip, npu: NpuStats) -> CellEnergy {
    let op = chip.operating_point();
    let (logic_pj_per_cycle, sram_pj_per_cycle) = chip.energy_per_cycle();
    let per_cycle = logic_pj_per_cycle + sram_pj_per_cycle;
    CellEnergy {
        v_logic: op.v_logic,
        v_sram: op.v_sram,
        freq_hz: op.freq_hz,
        logic_pj_per_cycle,
        sram_pj_per_cycle,
        cycles: npu.cycles,
        energy_pj: per_cycle * npu.cycles as f64,
        power_watts: per_cycle * 1e-12 * op.freq_hz,
    }
}

/// The sequential evaluation of one (scenario, chip) unit through an
/// [`ExecContext`]: cells replay, dedup or compute per the context, the
/// cancel token is polled **before every cell**, and a cancelled walk
/// returns the prefix finished so far (all of it already checkpointed
/// when a cache is attached). `split` must be the scenario's entry from
/// [`sweep_splits`].
///
/// One walk serves every fault model; a per-unit source alone decides
/// whether fault content is profiled from a chip or synthesized from the
/// plan's seeds, and where models are evaluated. At each point the walk
/// settles the point's fault *content* map — the profiled or injected
/// map, or for timing-error drops the stuck-at-0 surrogate that equals
/// the drops folded into the weights — and uses it for training, the
/// cell keys and eval replay alike.
pub fn run_unit_observed(
    plan: &SweepPlan,
    scen_idx: usize,
    chip_idx: usize,
    split: &Split,
    ctx: &ExecContext<'_>,
) -> UnitOutcome {
    let scen = &*plan.scenarios[scen_idx];
    let is_class = scen.is_classification();
    let test = &split.test;
    // A unit run outside a sweep still shares trainings among its own
    // points (its baseline is its fault-free MAT model).
    let private;
    let memo = match ctx.memo {
        Some(memo) => memo,
        None => {
            private = TrainingMemo::new();
            &private
        }
    };
    let trainer = UnitTrainer::new(plan, scen, &split.train, memo);
    let geom = plan.model.geometry();
    let layout = WeightLayout::new(&scen.topology(), geom.banks, geom.bank.words)
        .expect("scenario topology fits the model's weight memory");
    let mut source = UnitSource::new(plan, chip_idx);
    let builder = CellBuilder {
        plan,
        scen,
        chip_idx,
    };
    // The unit-invariant half of every cell key, hashed once.
    let prefix = ctx
        .cache
        .map(|_| UnitKeyPrefix::new(plan, scen_idx, chip_idx));

    let mut naive: Option<NaiveBaseline> = None;
    let mut adaptive: Option<AdaptiveModel> = None;
    let mut evals: Option<EvalCache> = None;
    let points = plan.axis.points();
    let mut cells = Vec::with_capacity(points.len() * plan.modes.len());
    for (point_idx, &stress) in points.iter().enumerate() {
        let faults = source.faults_at(
            &*plan.model,
            FaultContext {
                stress,
                cell_seed: plan.cell_map_seed(chip_idx, scen_idx, point_idx),
                unit_seed: plan.unit_fault_seed(chip_idx, scen_idx),
                profiled: None,
            },
        );
        let (map, fault_stats) = match &faults.drops {
            Some(drops) => (
                drop_surrogate_map(drops, &layout, geom.bank.word_bits),
                dropped_weight_stats(drops, &layout),
            ),
            None => (
                faults.map.clone(),
                (faults.map.fault_count(), faults.map.ber()),
            ),
        };
        // One fault-content digest per point, shared by all modes.
        let map_fp = prefix.as_ref().map(|_| map.fingerprint());
        // A step that adds no new faults recomputes nothing: the trained
        // model is reused below (superset-map policy) and the evaluations
        // are replayed (valid because the models are unchanged whenever
        // the map is). Compare fault *content* (the bank masks), not
        // `FaultMap` equality — the map carries the profiled voltage,
        // which differs at every step and would make this unreachable.
        let keep_evals = plan.reuse == ReusePolicy::SupersetMap
            && evals.as_ref().is_some_and(|e| e.map.banks() == map.banks());
        if !keep_evals {
            evals = Some(EvalCache {
                map: map.clone(),
                naive: None,
                mat: None,
            });
        }
        // Adaptive-model provenance for this point (shared by Mat cells;
        // MatCanary trains its own because canary pins change the map).
        // Advanced even when every cell here turns out cached, so later
        // misses see the cold walk's training-time map.
        let reused =
            plan.modes.contains(&TrainingMode::Mat) && advance_adaptive(plan, &mut adaptive, &map);
        for &mode in &plan.modes {
            // The cooperative cancellation point: a cancelled sweep stops
            // before starting the next cell, with everything finished so
            // far already checkpointed.
            if ctx.is_cancelled() {
                return UnitOutcome {
                    cells,
                    cancelled: true,
                };
            }
            let key = prefix
                .as_ref()
                .map(|p| p.cell(plan, point_idx, mode, map_fp.expect("set with prefix")));
            let claim = match ctx.resolve(key.as_ref()) {
                Resolution::Replay(hit, origin) => {
                    cells.push((*hit, origin));
                    continue;
                }
                Resolution::Compute(claim) => claim,
            };
            let nominal = ensure_naive(&mut naive, &trainer, &mut source, is_class, test, &geom);
            let cell = if mode == TrainingMode::MatCanary {
                let UnitSource::Silicon(chip) = &mut source else {
                    unreachable!("plan validation rejects mat-canary on synthetic fault models")
                };
                run_canary_cell(&builder, chip, split, stress, nominal)
            } else {
                let evals = evals.as_mut().expect("initialized above");
                let (model, slot) = match mode {
                    TrainingMode::Naive => (
                        &*naive.as_ref().expect("ensured above").model,
                        &mut evals.naive,
                    ),
                    _ => (
                        materialize_adaptive(adaptive.as_mut().expect("advanced above"), &trainer),
                        &mut evals.mat,
                    ),
                };
                let (error, stats) = source.eval(slot, model, is_class, test, stress, &faults);
                let mut cell = builder.build(mode, stress, error, nominal, fault_stats);
                cell.energy = source.energy(stats);
                cell.reused_model = mode == TrainingMode::Mat && reused;
                cell
            };
            ctx.finish(claim, key.as_ref(), &cell);
            cells.push((cell, CellOrigin::Computed));
        }
    }
    UnitOutcome {
        cells,
        cancelled: false,
    }
}

/// Where a unit's fault content comes from and where its models run —
/// the only difference between silicon-backed and synthetic fault
/// models.
enum UnitSource {
    /// A chip synthesized to the model's declared geometry
    /// ([`needs_silicon`](matic_core::FaultModel::needs_silicon)): it is
    /// profiled at every point, models are evaluated on it (with energy),
    /// and it can run the `mat-canary` deployment flow.
    Silicon(Box<Chip>),
    /// No silicon: fault content is derived from the plan's seeds and
    /// models are evaluated in a clean store of this geometry with the
    /// faults applied (see [`eval_injected`]).
    Injected(ArrayConfig),
}

impl UnitSource {
    fn new(plan: &SweepPlan, chip_idx: usize) -> Self {
        if plan.model.needs_silicon() {
            let cfg = ChipConfig::with_geometry(
                plan.model.geometry(),
                plan.model.weight_format().unwrap_or_default(),
            );
            UnitSource::Silicon(Box::new(Chip::synthesize(cfg, plan.chip_seed(chip_idx))))
        } else {
            UnitSource::Injected(plan.model.geometry())
        }
    }

    /// The model's fault content at `ctx`, profiling the chip first when
    /// there is one.
    fn faults_at(&mut self, model: &dyn FaultModel, ctx: FaultContext<'_>) -> CellFaults {
        match self {
            UnitSource::Silicon(chip) => {
                let profiled = chip.profile(ctx.stress);
                model.faults_at(&FaultContext {
                    profiled: Some(&profiled),
                    ..ctx
                })
            }
            UnitSource::Injected(_) => model.faults_at(&ctx),
        }
    }

    /// Evaluates `model` at the point `stress` with fault content
    /// `faults` (a chip reads its own silicon instead), or replays the
    /// evaluation held in `slot`. Replay is only valid because an
    /// evaluation is a pure function of (model, fault content) — the
    /// caller clears the slot whenever either changes — and on a chip it
    /// still programs the rail, so [`UnitSource::energy`] sees the
    /// point's operating point either way.
    fn eval(
        &mut self,
        slot: &mut Option<(f64, NpuStats)>,
        model: &TrainedModel,
        is_classification: bool,
        test: &[Sample],
        stress: f64,
        faults: &CellFaults,
    ) -> (f64, NpuStats) {
        match (self, *slot) {
            (UnitSource::Silicon(chip), Some(cached)) => {
                chip.set_sram_voltage(stress);
                cached
            }
            (UnitSource::Injected(_), Some(cached)) => cached,
            (UnitSource::Silicon(chip), None) => {
                *slot.insert(eval_on_chip(chip, model, is_classification, test, stress))
            }
            (UnitSource::Injected(geom), None) => {
                *slot.insert(eval_injected(model, is_classification, test, faults, geom))
            }
        }
    }

    /// The energy record of an inference with counters `npu` at the
    /// current operating point — only a chip has one.
    fn energy(&self, npu: NpuStats) -> Option<CellEnergy> {
        match self {
            UnitSource::Silicon(chip) => Some(cell_energy(chip, npu)),
            UnitSource::Injected(_) => None,
        }
    }
}

/// The unit's fault-oblivious baseline (quantization-aware, trained
/// against a clean map — the paper disables only the memory-adaptive
/// modifications) plus its error at the 0.9 V nominal point, which every
/// cell of the unit records. Materialized on the first cache miss; a
/// fully cached unit never trains it.
struct NaiveBaseline {
    model: Arc<TrainedModel>,
    nominal: f64,
}

/// Trains the baseline (if not yet trained) and evaluates its nominal
/// error through the unit's source at 0.9 V with zero faults composed
/// in: on the chip at its nominal rail, or in a clean store. Returns
/// the nominal error.
fn ensure_naive(
    slot: &mut Option<NaiveBaseline>,
    trainer: &UnitTrainer<'_>,
    source: &mut UnitSource,
    is_classification: bool,
    test: &[Sample],
    geom: &ArrayConfig,
) -> f64 {
    if slot.is_none() {
        let clean = FaultMap::clean(0.9, geom.banks, geom.bank.words, geom.bank.word_bits);
        let model = trainer.train(&clean);
        let clean_faults = CellFaults {
            map: clean,
            drops: None,
        };
        let (nominal, _) = source.eval(
            &mut None,
            &model,
            is_classification,
            test,
            0.9,
            &clean_faults,
        );
        *slot = Some(NaiveBaseline { model, nominal });
    }
    slot.as_ref().expect("filled above").nominal
}

/// The unit's adaptive-model slot. `map` is the fault map the cold walk
/// would have trained against at the current point — advanced eagerly at
/// **every** point so reuse decisions (and the `reused_model` provenance
/// flag) replay the cold run exactly even when earlier points were
/// cache hits. `model` is materialized only when a miss needs it, and is
/// always trained against `map`, reproducing the cold run's model bytes.
struct AdaptiveModel {
    map: FaultMap,
    model: Option<Arc<TrainedModel>>,
}

/// Advances the adaptive slot for a point whose fault content map is
/// `map`. Returns `true` when the cold walk would have reused the
/// previously trained model (the slot keeps its training-time map),
/// `false` when it would retrain (the slot re-targets `map`, lazily).
fn advance_adaptive(plan: &SweepPlan, slot: &mut Option<AdaptiveModel>, map: &FaultMap) -> bool {
    let reuse = plan.reuse == ReusePolicy::SupersetMap
        && slot.as_ref().is_some_and(|a| map.is_subset_of(&a.map));
    if !reuse {
        *slot = Some(AdaptiveModel {
            map: map.clone(),
            model: None,
        });
    }
    reuse
}

/// Trains the slot's model against its recorded map, if a previous miss
/// has not already done so.
fn materialize_adaptive<'a>(
    slot: &'a mut AdaptiveModel,
    trainer: &UnitTrainer<'_>,
) -> &'a TrainedModel {
    if slot.model.is_none() {
        slot.model = Some(trainer.train(&slot.map));
    }
    slot.model.as_ref().expect("filled above")
}

/// A unit's way to train: the scenario's recipe (topology, configuration,
/// training split) bound to the training memo every training of the unit
/// goes through.
struct UnitTrainer<'a> {
    memo: &'a TrainingMemo,
    recipe: TrainRecipe<'a>,
}

impl<'a> UnitTrainer<'a> {
    fn new(
        plan: &SweepPlan,
        scen: &dyn Scenario,
        train: &'a [Sample],
        memo: &'a TrainingMemo,
    ) -> Self {
        UnitTrainer {
            memo,
            recipe: TrainRecipe::new(scen.topology(), plan.train_config(scen), train),
        }
    }

    fn train(&self, faults: &FaultMap) -> Arc<TrainedModel> {
        self.memo.train(&self.recipe, faults)
    }
}

/// Evaluation results replayed across stress points whose fault content
/// is identical. The evaluation — the metric and the cycle counters — is
/// a pure function of (model, fault content), so when a step adds no new
/// faults the NPU would reproduce the same numbers read-for-read; only
/// the operating-point energy scaling (computed outside the cache)
/// changes.
struct EvalCache {
    map: FaultMap,
    naive: Option<(f64, NpuStats)>,
    mat: Option<(f64, NpuStats)>,
}

/// Checkpoint-on-write: persists a freshly computed cell. Best-effort —
/// a full disk degrades the run to uncached, it does not kill the sweep.
/// Warns once per process (a dead disk would otherwise print one line
/// per remaining cell of a large grid, burying the sweep's own output).
pub(crate) fn store_checkpoint(
    cache: Option<&SweepCache>,
    key: Option<&CellKey>,
    cell: &CellRecord,
) {
    use std::sync::atomic::{AtomicBool, Ordering};
    static STORE_FAILURE_WARNED: AtomicBool = AtomicBool::new(false);
    if let (Some(cache), Some(key)) = (cache, key) {
        if let Err(e) = cache.store(key, cell) {
            if !STORE_FAILURE_WARNED.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: sweep cache store failed under {} ({e}); \
                     further store failures will be silent",
                    cache.root().display()
                );
            }
        }
    }
}

/// The full deployment-flow cell: profile → canary selection → MAT with
/// pinned canaries → upload/arm → runtime controller settles the rail →
/// evaluate through the NPU at the settled voltage.
fn run_canary_cell(
    builder: &CellBuilder<'_>,
    chip: &mut Chip,
    split: &Split,
    voltage: f64,
    nominal: f64,
) -> CellRecord {
    let scen = builder.scen;
    let flow = DeploymentFlow {
        mat: builder.plan.train_config(scen),
        ..DeploymentFlow::new(voltage)
    };
    let mut net = chip.deploy(&flow, &scen.topology(), &split.train);
    let settled = chip.poll_canaries(&mut net);
    // Compose the post-disturb contents once at the settled rail and run
    // the whole eval set through the batched kernel. Bit-identical to
    // the per-sample `chip.infer` loop it replaces: read-disturb flips
    // are idempotent, so every later per-sample composition would read
    // back the same words the first one settled.
    let weights = chip.compose(&net);
    let (error, first_npu) = eval_composed_set(
        net.npu(),
        net.program(),
        &weights,
        None,
        scen.is_classification(),
        &split.test,
    );
    let map = net.deployment().fault_map();
    let mut cell = builder.build(
        TrainingMode::MatCanary,
        voltage,
        error,
        nominal,
        (map.fault_count(), map.ber()),
    );
    cell.energy = Some(cell_energy(chip, first_npu));
    cell.settled_voltage = Some(settled);
    cell
}

/// Evaluates a trained model under injected faults, **without profiled
/// silicon**: the quantized weights land in a behaviourally clean store
/// (an SRAM array held at the 0.9 V nominal point, where every bit-cell
/// reads back faithfully — the Vmin distribution tops out far below it),
/// the model's storage faults are applied word-by-word, and any MAC-drop
/// spec is folded into the composed weights. [`FaultedWeights`] stays
/// the hot path; neither the fault map nor the drop spec is consulted
/// per MAC.
fn eval_injected(
    model: &TrainedModel,
    is_classification: bool,
    test: &[Sample],
    faults: &CellFaults,
    geom: &ArrayConfig,
) -> (f64, NpuStats) {
    let mut array = SramArray::synthesize(geom, 0);
    upload_weights(model, &mut array);
    for b in 0..geom.banks {
        for w in 0..geom.bank.words {
            let stored = array.read(b, w);
            let faulted = faults.map.apply(b, w, stored);
            if faulted != stored {
                array.write(b, w, faulted);
            }
        }
    }
    let weights = FaultedWeights::from_array(model.layout(), model.format(), &mut array);
    let npu = Snnac::snnac(model.format());
    let program = Program::compile(model.master().spec(), npu.pe_count());
    let drops = faults.drops.as_ref();
    eval_composed_set(&npu, &program, &weights, drops, is_classification, test)
}

/// How many of the layout's weight parameters a drop spec kills, as
/// `(count, fraction)` — the clock-axis analogue of a measured bit-error
/// rate (biases are accumulated outside the MAC issue slots and are
/// never dropped).
fn dropped_weight_stats(drops: &MacDropSpec, layout: &WeightLayout) -> (usize, f64) {
    let (mut dropped, mut total) = (0usize, 0usize);
    for (param, _) in layout.entries() {
        if let ParamRef::Weight { layer, row, col } = param {
            total += 1;
            if drops.dropped(layer, row, col) {
                dropped += 1;
            }
        }
    }
    (dropped, dropped as f64 / total.max(1) as f64)
}

/// What every cell of a unit shares: the plan, the scenario and the
/// chip it was swept on.
struct CellBuilder<'a> {
    plan: &'a SweepPlan,
    scen: &'a dyn Scenario,
    chip_idx: usize,
}

impl CellBuilder<'_> {
    /// A computed cell. The stress value lands in the axis-appropriate
    /// column; `(fault_count, measured_ber)` are the fault map's
    /// statistics, or for drop models the dropped-weight population.
    fn build(
        &self,
        mode: TrainingMode,
        stress: f64,
        error: f64,
        nominal: f64,
        (fault_count, measured_ber): (usize, f64),
    ) -> CellRecord {
        let (plan, scen) = (self.plan, self.scen);
        let is_class = scen.is_classification();
        let margin = if is_class {
            plan.fail_margin_percent
        } else {
            plan.fail_margin_mse
        };
        let mut cell = CellRecord {
            scenario: scen.name().to_string(),
            chip_index: self.chip_idx,
            chip_seed: plan.chip_seed(self.chip_idx),
            mode: mode.name().to_string(),
            fault_model: plan.model.name().to_string(),
            voltage: None,
            ber_target: None,
            clock_stress: None,
            error,
            nominal_error: nominal,
            metric: if is_class {
                "classification_error_percent".to_string()
            } else {
                "mse".to_string()
            },
            energy: None,
            measured_ber,
            fault_count,
            settled_voltage: None,
            reused_model: false,
            failed: error > nominal + margin,
        };
        match &plan.axis {
            StressAxis::Voltage(_) => cell.voltage = Some(stress),
            StressAxis::BitErrorRate(_) => cell.ber_target = Some(stress),
            StressAxis::ClockStress(_) => cell.clock_stress = Some(stress),
        }
        cell
    }
}
