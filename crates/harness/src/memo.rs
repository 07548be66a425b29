//! The per-run training memo: every distinct model of a sweep is trained
//! once, however many units and stress points need it.
//!
//! A trained model is a pure function of what [`MatTrainer::train`]
//! reads: the topology, the full [`MatConfig`], the training split, the
//! weight-memory geometry and word width, and the OR/AND/XOR masks of the
//! words the [`WeightLayout`](matic_core::WeightLayout) places. The
//! naive baseline is the same model on every chip, and MAT against a map
//! with no faulty bit in a placed word is that same model again — so a
//! sweep that trains per (unit, point) recomputes most of its models.
//! [`TrainingMemo`] keys one slot per distinct content and trains each
//! slot once; every unit of the run shares the slots.
//!
//! # Soundness
//!
//! The [`TrainKey`] holds exactly the inputs above and nothing else: not
//! the map's voltage, not its unplaced words, not a data pointer. The
//! masks are compared in full ([`ComposedQuantizer`]'s content equality),
//! the recipe (topology, configuration, samples) by a 128-bit content
//! digest. Equal keys therefore train bit-identical models, and replacing
//! a fresh training with a slot's model changes no report or cache byte.
//!
//! # Concurrency
//!
//! Each slot is a [`OnceLock`]: the first worker to need a model trains
//! it, and a concurrent worker needing the same model waits for it rather
//! than training a duplicate. A training that panics leaves its slot
//! empty, so the next claimant trains it. The number of trainings is the
//! number of distinct keys the run asks for, whatever the thread count.

use matic_core::{ComposedQuantizer, MatConfig, MatTrainer, TrainedModel};
use matic_nn::{NetSpec, Sample};
use matic_sram::fingerprint::{fingerprint_of, Fingerprint};
use matic_sram::FaultMap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One training job's fault-independent inputs: the trainer (topology and
/// configuration) and its training samples. Their content digest is
/// computed on the first [`key`](TrainRecipe::key), so a unit whose cells
/// are all cached never hashes its dataset.
#[derive(Debug)]
pub struct TrainRecipe<'a> {
    trainer: MatTrainer,
    /// Digest of the topology and the configuration.
    head: u128,
    data: &'a [Sample],
    digest: OnceLock<u128>,
}

impl<'a> TrainRecipe<'a> {
    /// Binds a topology, a training configuration and the training split.
    pub fn new(spec: NetSpec, cfg: MatConfig, data: &'a [Sample]) -> Self {
        TrainRecipe {
            head: Fingerprint::new()
                .write_str("matic.train-recipe/v1")
                .write_u128(fingerprint_of(&spec))
                .write_u128(cfg.fingerprint())
                .finish(),
            trainer: MatTrainer::new(spec, cfg),
            data,
            digest: OnceLock::new(),
        }
    }

    /// The memo key of training this recipe against `faults`.
    ///
    /// # Panics
    ///
    /// Panics where [`MatTrainer::train`] would: the topology does not fit
    /// the map's geometry, or the word widths differ.
    pub fn key(&self, faults: &FaultMap) -> TrainKey {
        let bank0 = &faults.banks()[0];
        let recipe = *self.digest.get_or_init(|| {
            Fingerprint::new()
                .write_u128(self.head)
                .write_u128(samples_digest(self.data))
                .finish()
        });
        TrainKey {
            recipe,
            geometry: (faults.banks().len(), bank0.words(), bank0.word_bits()),
            masks: self.trainer.compose(faults).1,
        }
    }
}

/// FNV-1a/128 over the samples' 64-bit words (lengths, then value bits)
/// rather than their bytes: the digest is only compared within one
/// process, and eight times fewer multiplies keep it under a millisecond
/// per unit for the largest built-in split (facedet at `--scale 0.5`,
/// about 0.8 ms on one x86-64 core).
fn samples_digest(data: &[Sample]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let absorb = |h: u128, word: u64| (h ^ u128::from(word)).wrapping_mul(PRIME);
    let mut h = absorb(OFFSET, data.len() as u64);
    for sample in data {
        for values in [&sample.input, &sample.target] {
            h = absorb(h, values.len() as u64);
            for x in values {
                h = absorb(h, x.to_bits());
            }
        }
    }
    h
}

/// The content a trained model is a pure function of (see the module
/// docs): the recipe digest, the geometry `(banks, words per bank, word
/// bits)` and the composed masks of every placed word.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TrainKey {
    recipe: u128,
    geometry: (usize, usize, u8),
    masks: ComposedQuantizer,
}

/// A model slot: filled once, by whichever worker claims it first.
type Slot = Arc<OnceLock<Arc<TrainedModel>>>;

/// The run-scoped training memo (see the module docs). Create one per
/// sweep run; it is not meant to outlive the run's datasets.
#[derive(Debug, Default)]
pub struct TrainingMemo {
    slots: Mutex<HashMap<TrainKey, Slot>>,
    trained: AtomicUsize,
}

impl TrainingMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// The model `recipe` trains against `faults`: from its slot if the
    /// run already trained it, else trained now (a concurrent caller with
    /// the same key waits for this training instead of repeating it).
    pub fn train(&self, recipe: &TrainRecipe<'_>, faults: &FaultMap) -> Arc<TrainedModel> {
        let key = recipe.key(faults);
        let slot = Arc::clone(
            self.slots
                .lock()
                .expect("training memo poisoned")
                .entry(key)
                .or_default(),
        );
        // The map lock is released before training: only callers of this
        // slot wait on it. Training never re-enters the worker pool, so a
        // worker blocked here cannot be the one its slot waits for.
        Arc::clone(slot.get_or_init(|| {
            let model = recipe.trainer.train(recipe.data, faults);
            self.trained.fetch_add(1, Ordering::Relaxed);
            Arc::new(model)
        }))
    }

    /// How many models this memo trained.
    pub fn trained(&self) -> usize {
        self.trained.load(Ordering::Relaxed)
    }
}
