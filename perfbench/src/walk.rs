//! The traced walk: re-runs every (scenario, chip) unit of a plan from
//! this benchmark's own code, calling only the program's public
//! functions, with a span around each call into a layer.
//!
//! It follows the engine's unit walk (`matic_harness::run_unit_observed`)
//! step for step — voltages high to low, lazy naive and adaptive
//! training, superset-map model reuse, eval replay while the bank masks
//! stay equal, cache lookup before and store after each computed cell —
//! so that every cell's error must come out bit-identical to the
//! untraced report. The program itself is not instrumented.

use crate::trace::{Ctx, Recorder, SETUP};
use matic_core::{
    drop_surrogate_map, upload_weights, CellFaults, FaultContext, FaultedWeights, MatTrainer,
    TrainedModel, WeightLayout,
};
use matic_datasets::Split;
use matic_harness::{
    eval_composed_set, sweep_units, CellRecord, ReusePolicy, SweepCache, SweepPlan, TrainingMode,
    UnitKeyPrefix,
};
use matic_nn::kernel::MacDropSpec;
use matic_nn::Sample;
use matic_serve::JobSpec;
use matic_snnac::microcode::Program;
use matic_snnac::npu::NpuStats;
use matic_snnac::{Chip, ChipConfig, Snnac};
use matic_sram::{ArrayConfig, FaultMap, SramArray};
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::time::Instant;

/// What one traced walk measured.
pub struct Walk {
    /// Wall time of set-up (plan, datasets, pool) plus the unit walk.
    pub wall_s: f64,
    /// Wall time of the unit walk alone.
    pub units_wall_s: f64,
    /// Every cell's error, in report (grid) order.
    pub errors: Vec<f64>,
}

/// Builds the plan and its datasets, then walks every unit on `workers`
/// threads. With a cache, each cell is looked up first and skipped on a
/// hit, and each computed cell is stored as `reference`'s record for it
/// (the walk checks that its error matches before the run reports).
pub fn traced_walk(
    spec: &JobSpec,
    workers: usize,
    cache: Option<&SweepCache>,
    reference: &[CellRecord],
    rec: &Recorder,
) -> Result<Walk, String> {
    let start = Instant::now();
    let setup = rec.ctx(SETUP, 0);
    let mut plan = setup.span("harness.plan", || matic_serve::job::build_plan(spec))?;
    plan.threads = Some(workers);
    // `sweep_splits`, one span per scenario.
    let splits: Vec<Split> = plan
        .scenarios
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let split = setup.span("datasets.generate", || {
                s.generate(plan.data_seed(i), plan.data_scale)
            });
            setup.count(
                "datasets.samples",
                (split.train.len() + split.test.len()) as u64,
            );
            split
        })
        .collect();
    let pool = setup.span("harness.pool", || {
        ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .expect("thread pool construction is infallible")
    });
    let units: Vec<(usize, (usize, usize))> = sweep_units(&plan).into_iter().enumerate().collect();
    let per_unit = plan.axis.points().len() * plan.modes.len();
    if reference.len() != units.len() * per_unit {
        return Err(format!(
            "reference report has {} cells, the plan {}",
            reference.len(),
            units.len() * per_unit
        ));
    }
    let walk_start = Instant::now();
    let errors: Vec<Vec<f64>> = pool.install(|| {
        units
            .par_iter()
            .map(|&(u, (scen_idx, chip_idx))| {
                rec.ctx(u, 0).scope("harness.unit", |ctx| {
                    // The unit-invariant half of every cell key, hashed once.
                    let prefix = cache.map(|_| {
                        ctx.span("cache.lookup", || {
                            UnitKeyPrefix::new(&plan, scen_idx, chip_idx)
                        })
                    });
                    let unit = UnitWalk {
                        plan: &plan,
                        scen_idx,
                        chip_idx,
                        split: &splits[scen_idx],
                        cache,
                        prefix,
                        reference: &reference[u * per_unit..(u + 1) * per_unit],
                    };
                    unit.walk(ctx)
                })
            })
            .collect()
    });
    Ok(Walk {
        wall_s: start.elapsed().as_secs_f64(),
        units_wall_s: walk_start.elapsed().as_secs_f64(),
        errors: errors.into_iter().flatten().collect(),
    })
}

struct UnitWalk<'a> {
    plan: &'a SweepPlan,
    scen_idx: usize,
    chip_idx: usize,
    split: &'a Split,
    cache: Option<&'a SweepCache>,
    prefix: Option<UnitKeyPrefix>,
    /// The untraced report's cells of this unit, in walk order.
    reference: &'a [CellRecord],
}

/// The adaptive-model slot: the map the walk would train against now,
/// and the model once a computed cell needed it.
struct Adaptive {
    map: FaultMap,
    model: Option<TrainedModel>,
}

/// Chip evaluations replayed while the bank masks stay equal.
struct Evals {
    map: FaultMap,
    naive: Option<(f64, NpuStats)>,
    mat: Option<(f64, NpuStats)>,
}

impl UnitWalk<'_> {
    fn walk(&self, ctx: Ctx<'_>) -> Vec<f64> {
        if self.plan.model.needs_silicon() {
            self.walk_silicon(ctx)
        } else {
            self.walk_injected(ctx)
        }
    }

    fn train(&self, ctx: Ctx<'_>, name: &'static str, map: &FaultMap) -> TrainedModel {
        let scen = &*self.plan.scenarios[self.scen_idx];
        let trainer = MatTrainer::new(scen.topology(), self.plan.train_config(scen));
        ctx.span(name, || trainer.train(&self.split.train, map))
    }

    /// Whether the walk reuses the slot's model at a point whose map is
    /// `map`; re-targets the slot (lazily) when it does not. A plan
    /// without the mat mode has no slot.
    fn advance(&self, slot: &mut Option<Adaptive>, map: &FaultMap) -> bool {
        if !self.plan.modes.contains(&TrainingMode::Mat) {
            return false;
        }
        let reuse = self.plan.reuse == ReusePolicy::SupersetMap
            && slot.as_ref().is_some_and(|a| map.is_subset_of(&a.map));
        if !reuse {
            *slot = Some(Adaptive {
                map: map.clone(),
                model: None,
            });
        }
        reuse
    }

    fn adaptive<'s>(&self, ctx: Ctx<'_>, slot: &'s mut Adaptive) -> &'s TrainedModel {
        if slot.model.is_none() {
            slot.model = Some(self.train(ctx, "core.train_mat", &slot.map));
        }
        slot.model.as_ref().expect("filled above")
    }

    /// Looks the cell up in the cache (when there is one); `Some(error)`
    /// on a hit.
    fn lookup(
        &self,
        ctx: Ctx<'_>,
        point_idx: usize,
        mode: TrainingMode,
        map_fp: Option<u128>,
    ) -> (Option<matic_harness::CellKey>, Option<f64>) {
        let (Some(cache), Some(prefix), Some(fp)) = (self.cache, &self.prefix, map_fp) else {
            return (None, None);
        };
        ctx.span("cache.lookup", || {
            let key = prefix.cell(self.plan, point_idx, mode, fp);
            let hit = cache.lookup(&key).map(|c| c.error);
            (Some(key), hit)
        })
    }

    fn store(&self, ctx: Ctx<'_>, key: Option<&matic_harness::CellKey>, cell: usize) {
        if let (Some(cache), Some(key)) = (self.cache, key) {
            ctx.span("cache.store", || cache.store(key, &self.reference[cell]))
                .expect("storing a cell in the benchmark's scratch cache");
        }
    }

    /// The mode loop of one stress point, shared by both walkers: a
    /// cache hit skips the cell; a miss computes it with `compute` and
    /// stores it.
    fn point(
        &self,
        ctx: Ctx<'_>,
        point_idx: usize,
        map_fp: Option<u128>,
        reused: bool,
        errors: &mut Vec<f64>,
        mut compute: impl FnMut(TrainingMode) -> f64,
    ) {
        for &mode in &self.plan.modes {
            let cell = errors.len();
            let (key, hit) = self.lookup(ctx, point_idx, mode, map_fp);
            if let Some(error) = hit {
                ctx.count("cache.hits", 1);
                errors.push(error);
                continue;
            }
            if self.cache.is_some() {
                ctx.count("cache.misses", 1);
            }
            if mode == TrainingMode::Mat {
                ctx.count("core.mat_cells", 1);
                if reused {
                    ctx.count("core.mat_reused", 1);
                }
            }
            let error = compute(mode);
            self.store(ctx, key.as_ref(), cell);
            errors.push(error);
        }
    }

    fn fingerprint(&self, ctx: Ctx<'_>, map: &FaultMap) -> Option<u128> {
        self.cache
            .map(|_| ctx.span("cache.lookup", || map.fingerprint()))
    }

    fn walk_silicon(&self, ctx: Ctx<'_>) -> Vec<f64> {
        let plan = self.plan;
        let scen = &*plan.scenarios[self.scen_idx];
        let is_class = scen.is_classification();
        let test = &self.split.test;
        let chip_cfg = ChipConfig::with_geometry(
            plan.model.geometry(),
            plan.model.weight_format().unwrap_or_default(),
        );
        let mut chip = ctx.span("snnac.synthesize", || {
            Chip::synthesize(chip_cfg, plan.chip_seed(self.chip_idx))
        });
        let mut naive: Option<TrainedModel> = None;
        let mut adaptive: Option<Adaptive> = None;
        let mut evals: Option<Evals> = None;
        let mut errors = Vec::with_capacity(self.reference.len());
        for (point_idx, &voltage) in plan.axis.points().iter().enumerate() {
            let profiled = ctx.span("sram.profile", || chip.profile(voltage));
            let map = ctx
                .span("core.faults", || {
                    plan.model.faults_at(&FaultContext {
                        stress: voltage,
                        cell_seed: plan.cell_map_seed(self.chip_idx, self.scen_idx, point_idx),
                        unit_seed: plan.unit_fault_seed(self.chip_idx, self.scen_idx),
                        profiled: Some(&profiled),
                    })
                })
                .map;
            let map_fp = self.fingerprint(ctx, &map);
            let keep_evals = plan.reuse == ReusePolicy::SupersetMap
                && evals.as_ref().is_some_and(|e| e.map.banks() == map.banks());
            if !keep_evals {
                evals = Some(Evals {
                    map: map.clone(),
                    naive: None,
                    mat: None,
                });
            }
            let reused = self.advance(&mut adaptive, &map);
            self.point(ctx, point_idx, map_fp, reused, &mut errors, |mode| {
                if naive.is_none() {
                    let clean = clean_map(&chip.config().array);
                    let model = self.train(ctx, "core.train_naive", &clean);
                    // The engine's nominal-error evaluation, which also
                    // leaves the chip in the state later cells start from.
                    eval_on_chip(ctx, &mut chip, &model, is_class, test, 0.9);
                    naive = Some(model);
                }
                let base = naive.as_ref().expect("filled above");
                let evals = evals.as_mut().expect("initialized above");
                let (slot, model) = match mode {
                    TrainingMode::Naive => (&mut evals.naive, base),
                    TrainingMode::Mat => {
                        let slot = adaptive.as_mut().expect("advanced above");
                        (&mut evals.mat, self.adaptive(ctx, slot))
                    }
                    TrainingMode::MatCanary => {
                        panic!("benchmark workloads sweep naive and mat only")
                    }
                };
                replay_or_eval(ctx, slot, &mut chip, model, is_class, test, voltage)
            });
        }
        errors
    }

    fn walk_injected(&self, ctx: Ctx<'_>) -> Vec<f64> {
        let plan = self.plan;
        let scen = &*plan.scenarios[self.scen_idx];
        let is_class = scen.is_classification();
        let test = &self.split.test;
        let geom = plan.model.geometry();
        let layout = WeightLayout::new(&scen.topology(), geom.banks, geom.bank.words)
            .expect("scenario topology fits the model's weight memory");
        let mut naive: Option<TrainedModel> = None;
        let mut adaptive: Option<Adaptive> = None;
        let mut errors = Vec::with_capacity(self.reference.len());
        for (point_idx, &stress) in plan.axis.points().iter().enumerate() {
            let (faults, train_map) = ctx.span("core.faults", || {
                let faults = plan.model.faults_at(&FaultContext {
                    stress,
                    cell_seed: plan.cell_map_seed(self.chip_idx, self.scen_idx, point_idx),
                    unit_seed: plan.unit_fault_seed(self.chip_idx, self.scen_idx),
                    profiled: None,
                });
                let train_map = match &faults.drops {
                    Some(drops) => drop_surrogate_map(drops, &layout, geom.bank.word_bits),
                    None => faults.map.clone(),
                };
                (faults, train_map)
            });
            let map_fp = self.fingerprint(ctx, &train_map);
            let reused = self.advance(&mut adaptive, &train_map);
            self.point(ctx, point_idx, map_fp, reused, &mut errors, |mode| {
                if naive.is_none() {
                    let clean = CellFaults {
                        map: clean_map(&geom),
                        drops: None,
                    };
                    let model = self.train(ctx, "core.train_naive", &clean.map);
                    // The engine's nominal-error evaluation.
                    eval_injected(ctx, &model, is_class, test, &clean, &geom);
                    naive = Some(model);
                }
                let model = match mode {
                    TrainingMode::Naive => naive.as_ref().expect("filled above"),
                    TrainingMode::Mat => {
                        self.adaptive(ctx, adaptive.as_mut().expect("advanced above"))
                    }
                    TrainingMode::MatCanary => {
                        panic!("benchmark workloads sweep naive and mat only")
                    }
                };
                eval_injected(ctx, model, is_class, test, &faults, &geom)
            });
        }
        errors
    }
}

fn clean_map(geom: &ArrayConfig) -> FaultMap {
    FaultMap::clean(0.9, geom.banks, geom.bank.words, geom.bank.word_bits)
}

/// `matic_harness::eval_on_chip`, split at its layer boundary: weight
/// composition on the chip's SRAM, then the NPU over the test set.
fn eval_on_chip(
    ctx: Ctx<'_>,
    chip: &mut Chip,
    model: &TrainedModel,
    is_class: bool,
    test: &[Sample],
    voltage: f64,
) -> (f64, NpuStats) {
    let weights = ctx.span("core.compose", || {
        chip.set_sram_voltage(0.9);
        upload_weights(model, chip.array_mut());
        chip.set_sram_voltage(voltage);
        FaultedWeights::from_array(model.layout(), model.format(), chip.array_mut())
    });
    eval_composed(ctx, model, &weights, None, is_class, test)
}

/// The engine's replay rule: a chip evaluation is a pure function of
/// (model, fault map), so it is replayed while both stay the same; the
/// rail is still programmed as the engine does.
fn replay_or_eval(
    ctx: Ctx<'_>,
    slot: &mut Option<(f64, NpuStats)>,
    chip: &mut Chip,
    model: &TrainedModel,
    is_class: bool,
    test: &[Sample],
    voltage: f64,
) -> f64 {
    match *slot {
        Some((error, _)) => {
            chip.set_sram_voltage(voltage);
            ctx.count("snnac.eval_replays", 1);
            error
        }
        None => {
            slot.insert(eval_on_chip(ctx, chip, model, is_class, test, voltage))
                .0
        }
    }
}

/// The injected path's evaluation: weights land in a clean store, the
/// storage faults are applied word by word, and the NPU runs with the
/// model's MAC drops.
fn eval_injected(
    ctx: Ctx<'_>,
    model: &TrainedModel,
    is_class: bool,
    test: &[Sample],
    faults: &CellFaults,
    geom: &ArrayConfig,
) -> f64 {
    let weights = ctx.span("core.compose", || {
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
        FaultedWeights::from_array(model.layout(), model.format(), &mut array)
    });
    eval_composed(ctx, model, &weights, faults.drops.as_ref(), is_class, test).0
}

fn eval_composed(
    ctx: Ctx<'_>,
    model: &TrainedModel,
    weights: &FaultedWeights,
    drops: Option<&MacDropSpec>,
    is_class: bool,
    test: &[Sample],
) -> (f64, NpuStats) {
    let (error, stats) = ctx.span("snnac.eval", || {
        let npu = Snnac::snnac(model.format());
        let program = Program::compile(model.master().spec(), npu.pe_count());
        eval_composed_set(&npu, &program, weights, drops, is_class, test)
    });
    ctx.count("snnac.macs", stats.macs * test.len() as u64);
    (error, stats)
}

/// Checks the walk's errors against the untraced report, bit for bit.
pub fn check_errors(walk: &[f64], reference: &[CellRecord]) -> Result<(), String> {
    if walk.len() != reference.len() {
        return Err(format!(
            "traced walk produced {} cells, the report has {}",
            walk.len(),
            reference.len()
        ));
    }
    for (i, (w, r)) in walk.iter().zip(reference).enumerate() {
        if w.to_bits() != r.error.to_bits() {
            return Err(format!(
                "cell {i} ({} {} chip {}): traced error {w} != report error {}",
                r.scenario, r.mode, r.chip_index, r.error
            ));
        }
    }
    Ok(())
}
