//! The per-run training memo: its key covers exactly what training reads,
//! and a sweep trains one model per distinct (scenario, placed masks)
//! content — the same number, and the same report bytes, on any thread
//! count.

use matic_core::{ComposedQuantizer, FaultContext, MatConfig, MatTrainer, WeightLayout};
use matic_harness::{run_sweep_with_cache, SweepPlan, TrainRecipe, TrainingMemo, TrainingMode};
use matic_nn::{NetSpec, Sample};
use matic_snnac::{Chip, ChipConfig};
use matic_sram::FaultMap;
use std::collections::HashSet;
use std::sync::Arc;

const BANKS: usize = 2;
const WORDS: usize = 64;
const WORD_BITS: u8 = 16;

fn spec() -> NetSpec {
    NetSpec::regressor(&[2, 4, 1])
}

fn config() -> MatConfig {
    let mut cfg = MatConfig::quick();
    cfg.sgd.epochs = 3;
    cfg
}

fn data() -> Vec<Sample> {
    (0..24)
        .map(|i| {
            let x = i as f64 / 24.0;
            Sample::new(vec![x, 1.0 - x], vec![0.5 * x + 0.1])
        })
        .collect()
}

/// Every parameter and bias of the master, as raw bits.
fn master_bits(model: &matic_core::TrainedModel) -> Vec<u64> {
    let net = model.master();
    let mut bits = Vec::new();
    for (w, b) in net.weights().iter().zip(net.biases()) {
        bits.extend(w.as_slice().iter().map(|x| x.to_bits()));
        bits.extend(b.iter().map(|x| x.to_bits()));
    }
    bits
}

#[test]
fn key_covers_placed_words_only_and_every_mask_plane() {
    let (spec, cfg, data) = (spec(), config(), data());
    let layout = WeightLayout::new(&spec, BANKS, WORDS).expect("fits");
    let placed = 0;
    let unplaced = layout.words_used(0);
    assert!(unplaced < WORDS, "bank 0 must leave a word unplaced");

    // Two maps that agree on every placed word (one stuck bit in word 0)
    // but differ in voltage and in an unplaced word.
    let mut a = FaultMap::clean(0.50, BANKS, WORDS, WORD_BITS);
    a.bank_mut(0).set_fault(placed, 3, true);
    let mut b = FaultMap::clean(0.70, BANKS, WORDS, WORD_BITS);
    b.bank_mut(0).set_fault(placed, 3, true);
    b.bank_mut(0).set_fault(unplaced, 15, true);
    b.bank_mut(0).set_flip(unplaced, 2);
    assert_ne!(a.fingerprint(), b.fingerprint(), "the maps do differ");

    let recipe = TrainRecipe::new(spec.clone(), cfg.clone(), &data);
    assert_eq!(recipe.key(&a), recipe.key(&b));

    let memo = TrainingMemo::new();
    let from_a = memo.train(&recipe, &a);
    let from_b = memo.train(&recipe, &b);
    assert!(Arc::ptr_eq(&from_a, &from_b), "one slot serves both maps");
    assert_eq!(memo.trained(), 1);

    // Sharing is sound: training directly on either map gives the same
    // master, bit for bit.
    let trainer = MatTrainer::new(spec, cfg);
    let direct_a = trainer.train(&data, &a);
    let direct_b = trainer.train(&data, &b);
    assert_eq!(master_bits(&direct_a), master_bits(&direct_b));
    assert_eq!(master_bits(&direct_a), master_bits(&from_a));

    // One more bit of any mask plane in a placed word is a new slot.
    let mut or = a.clone();
    or.bank_mut(0).set_fault(placed, 7, true);
    let mut and = a.clone();
    and.bank_mut(0).set_fault(placed, 7, false);
    let mut xor = a.clone();
    xor.bank_mut(0).set_flip(placed, 7);
    for (plane, map) in [("or", &or), ("and", &and), ("xor", &xor)] {
        assert_ne!(recipe.key(&a), recipe.key(map), "{plane} bit ignored");
    }
    // So is a different recipe against the same map.
    let other = TrainRecipe::new(self::spec(), config(), &data[1..]);
    assert_ne!(recipe.key(&a), other.key(&a), "training split ignored");
}

/// Three chips, a fault-free top and a faulty bottom: most trainings
/// repeat.
fn plan(threads: usize) -> SweepPlan {
    SweepPlan::builder()
        .chips(3)
        .voltages(&[0.9, 0.6, 0.5, 0.46])
        .benchmark("inversek2j")
        .expect("builtin benchmark")
        .benchmark("bscholes")
        .expect("builtin benchmark")
        .modes(&[TrainingMode::Naive, TrainingMode::Mat])
        .data_scale(0.1)
        .epoch_scale(0.2)
        .seed(5)
        .threads(threads)
        .build()
        .expect("plan is valid")
}

/// The distinct (scenario, placed masks) pairs the plan's walk trains:
/// each unit's clean-map baseline, plus MAT against every point whose
/// profiled map is not covered by the last map MAT trained against.
fn distinct_trainings(plan: &SweepPlan) -> usize {
    let geom = plan.model.geometry();
    let chip_cfg =
        ChipConfig::with_geometry(geom.clone(), plan.model.weight_format().unwrap_or_default());
    let mut distinct = HashSet::new();
    for (scen_idx, scen) in plan.scenarios.iter().enumerate() {
        let layout = WeightLayout::new(&scen.topology(), geom.banks, geom.bank.words)
            .expect("topology fits");
        let fmt = plan.train_config(&**scen).weight_fmt;
        let masks = |map: &FaultMap| ComposedQuantizer::new(fmt, &layout, Some(map));
        let clean = FaultMap::clean(0.9, geom.banks, geom.bank.words, geom.bank.word_bits);
        distinct.insert((scen_idx, masks(&clean)));
        for chip_idx in 0..plan.chips {
            let mut chip = Chip::synthesize(chip_cfg.clone(), plan.chip_seed(chip_idx));
            let mut trained_on: Option<FaultMap> = None;
            for (point_idx, &voltage) in plan.axis.points().iter().enumerate() {
                let profiled = chip.profile(voltage);
                let map = plan
                    .model
                    .faults_at(&FaultContext {
                        stress: voltage,
                        cell_seed: plan.cell_map_seed(chip_idx, scen_idx, point_idx),
                        unit_seed: plan.unit_fault_seed(chip_idx, scen_idx),
                        profiled: Some(&profiled),
                    })
                    .map;
                if !trained_on.as_ref().is_some_and(|t| map.is_subset_of(t)) {
                    distinct.insert((scen_idx, masks(&map)));
                    trained_on = Some(map);
                }
            }
        }
    }
    distinct.len()
}

#[test]
fn sweep_trains_each_distinct_model_once_on_any_thread_count() {
    let expected = distinct_trainings(&plan(1));
    let units_x_points = plan(1).scenarios.len() * plan(1).chips * plan(1).axis.points().len();
    assert!(
        plan(1).scenarios.len() < expected && expected < units_x_points,
        "the plan must hold faulty maps and repeat trainings ({expected} distinct)"
    );
    let reference = run_sweep_with_cache(&plan(1), None);
    assert_eq!(reference.models_trained, expected);
    let bytes = reference.report.to_json_pretty();
    for threads in [2, 4] {
        let run = run_sweep_with_cache(&plan(threads), None);
        assert_eq!(run.models_trained, expected, "{threads} threads");
        assert_eq!(run.report.to_json_pretty(), bytes, "{threads} threads");
    }
    // The count is provenance, never report content.
    assert!(!bytes.contains("models_trained"));
}
