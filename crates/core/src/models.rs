//! Pluggable fault-model taxonomy.
//!
//! MATIC's original evaluation assumes a single failure mode —
//! voltage-scaled 6T/8T SRAM bit-cell faults — but the surrounding
//! literature models failures the paper never saw: ThUnderVolt injects
//! *timing-error drops* into the datapath MACs under clock overscaling
//! (Zhang et al.), and Stutz et al. study i.i.d. random bit flips at a
//! fixed BER with robust fixed-point range selection. This module makes
//! the fault source a first-class, object-safe trait so the sweep harness
//! can treat "which way does the silicon fail" as just another axis:
//!
//! * [`SramVoltage`] — the paper's own model: faults come from profiling
//!   real (simulated) bit-cells at an overscaled supply voltage, so it
//!   *needs silicon* and supports in-situ canaries.
//! * [`RandomBer`] — Stutz-style i.i.d. bit flips over the quantized
//!   weight words at a fixed bit-error rate, with the robust (tighter)
//!   Q1.14 weight range; purely synthetic, no silicon required.
//! * [`TimingError`] — ThUnderVolt-style TE-Drop: under clock-period
//!   stress, individual MACs miss timing and their partial products are
//!   dropped from the accumulation. The storage is clean; the error lives
//!   in the kernel ([`MacDropSpec`]).
//!
//! Every model yields its per-cell fault content through
//! [`FaultModel::faults_at`] as a [`CellFaults`] — a storage-side
//! [`FaultMap`] (possibly clean) plus an optional kernel-side drop spec —
//! and contributes a canonical [`FaultModel::fingerprint`] to the
//! content-addressed sweep-cache digest, so two sweeps share cache
//! entries exactly when they would inject identical faults.

use crate::layout::WeightLayout;
use matic_fixed::QFormat;
use matic_nn::kernel::MacDropSpec;
use matic_nn::NetSpec;
use matic_sram::fingerprint::{fingerprint_of, Fingerprint};
use matic_sram::inject::random_flip_map;
use matic_sram::{ArrayConfig, FaultMap, SramConfig};
use std::fmt;

/// Everything a model may key its per-cell fault content on. All fields
/// derive from the sweep plan and the cell's grid position — never from
/// scheduling — which is what keeps reports byte-identical across thread
/// counts and cache states.
#[derive(Debug, Clone, Copy)]
pub struct FaultContext<'a> {
    /// The stress value at this grid point, in the model's own axis
    /// units: supply voltage (V) for [`SramVoltage`], bit-error rate for
    /// [`RandomBer`], normalized clock-period stress in `[0, 1]` for
    /// [`TimingError`].
    pub stress: f64,
    /// Seed unique to this `(chip, scenario, stress point)` cell.
    pub cell_seed: u64,
    /// Seed shared by every stress point of one `(chip, scenario)` unit —
    /// models whose fault sets must nest monotonically across stress
    /// points (so model reuse stays sound) key on this instead.
    pub unit_seed: u64,
    /// The fault map profiled from silicon at this stress point, when the
    /// harness has silicon to profile. `None` for synthetic models.
    pub profiled: Option<&'a FaultMap>,
}

/// The fault content a model injects into one sweep cell: a storage-side
/// fault map (applied to the weight words the network reads back) plus an
/// optional kernel-side MAC-drop spec (evaluated by folding it into the
/// composed weights, [`FaultedWeights::drop_macs`](crate::FaultedWeights::drop_macs)).
#[derive(Debug, Clone)]
pub struct CellFaults {
    /// Per-word stuck-at / flip masks over the weight array.
    pub map: FaultMap,
    /// MAC-level error drops, for models that corrupt the datapath rather
    /// than the storage.
    pub drops: Option<MacDropSpec>,
}

/// A pluggable source of hardware faults, swept as an axis value by the
/// harness. Object-safe: the sweep plan stores `Arc<dyn FaultModel>`.
pub trait FaultModel: fmt::Debug + Send + Sync {
    /// Stable machine-readable model name (`"sram-voltage"`,
    /// `"random-ber"`, `"timing-error"`). Appears in reports and cache
    /// keys.
    fn name(&self) -> &'static str;

    /// The stress axis this model sweeps: `"voltage"`, `"ber"` or
    /// `"clock"`. Appears in report plan summaries.
    fn stress_kind(&self) -> &'static str;

    /// The weight-memory geometry the model injects into.
    fn geometry(&self) -> ArrayConfig;

    /// A weight format the model requires, if any. [`RandomBer`] returns
    /// the robust Q1.14 range (Stutz et al.); models returning `None`
    /// leave the scenario's own choice in force.
    fn weight_format(&self) -> Option<QFormat> {
        None
    }

    /// Whether fault content comes from profiling simulated silicon
    /// ([`FaultContext::profiled`]) rather than from synthesis. Silicon
    /// models key their cache entries on the chip's process variation;
    /// synthetic models must not (their faults are seed-derived).
    fn needs_silicon(&self) -> bool;

    /// Whether in-situ canary deployment (§III-C) is meaningful under
    /// this model. Canaries guard read-stability boundaries, so only
    /// voltage-scaled storage models support them.
    fn supports_canary(&self) -> bool;

    /// Validates a stress grid against the model's axis domain.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first offending value.
    fn validate_stress(&self, stress: &[f64]) -> Result<(), String>;

    /// The fault content for one sweep cell.
    fn faults_at(&self, ctx: &FaultContext<'_>) -> CellFaults;

    /// Canonical content fingerprint: two model values share a
    /// fingerprint exactly when they would inject identical faults in
    /// every context. Feeds the content-addressed sweep-cache digest.
    fn fingerprint(&self) -> u128;
}

/// The paper's own fault model: voltage-scaled 6T/8T SRAM bit-cell
/// read upsets, profiled from (simulated) silicon at each supply point.
#[derive(Debug, Clone, PartialEq)]
pub struct SramVoltage {
    array: ArrayConfig,
}

impl SramVoltage {
    /// A voltage-scaled SRAM model over the given array geometry.
    pub fn new(array: ArrayConfig) -> Self {
        SramVoltage { array }
    }

    /// The SNNAC weight-memory complex (8 × 576 × 16 bit).
    pub fn snnac() -> Self {
        Self::new(ArrayConfig::default())
    }
}

impl FaultModel for SramVoltage {
    fn name(&self) -> &'static str {
        "sram-voltage"
    }

    fn stress_kind(&self) -> &'static str {
        "voltage"
    }

    fn geometry(&self) -> ArrayConfig {
        self.array.clone()
    }

    fn needs_silicon(&self) -> bool {
        true
    }

    fn supports_canary(&self) -> bool {
        true
    }

    fn validate_stress(&self, stress: &[f64]) -> Result<(), String> {
        for &v in stress {
            if !(0.2..=1.2).contains(&v) {
                return Err(format!("supply voltage {v} outside [0.2, 1.2] V"));
            }
        }
        Ok(())
    }

    fn faults_at(&self, ctx: &FaultContext<'_>) -> CellFaults {
        let map = ctx
            .profiled
            .expect("SramVoltage::faults_at requires a profiled fault map")
            .clone();
        CellFaults { map, drops: None }
    }

    fn fingerprint(&self) -> u128 {
        let mut f = Fingerprint::new();
        f.write_str("matic.fault-model.sram-voltage/v1");
        f.write_u128(fingerprint_of(&self.array));
        f.finish()
    }
}

/// Stutz-style i.i.d. random bit flips at a fixed bit-error rate over the
/// quantized weight words, with robust (tight) fixed-point range
/// selection: the model imposes [`QFormat::snnac_weight_robust`] (Q1.14)
/// so a flipped high-order bit perturbs the weight as little as the
/// trained range allows.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomBer {
    array: ArrayConfig,
    fmt: QFormat,
}

impl RandomBer {
    /// A random-flip model over the given geometry and weight format.
    pub fn new(array: ArrayConfig, fmt: QFormat) -> Self {
        RandomBer { array, fmt }
    }

    /// SNNAC geometry with the robust Q1.14 weight range.
    pub fn snnac() -> Self {
        Self::snnac_sized(ArrayConfig::default())
    }

    /// The SNNAC recipe (robust Q1.14 weights) over a custom geometry —
    /// e.g. one grown by [`fitted_array_config`] for a larger topology.
    pub fn snnac_sized(array: ArrayConfig) -> Self {
        Self::new(array, QFormat::snnac_weight_robust())
    }
}

impl FaultModel for RandomBer {
    fn name(&self) -> &'static str {
        "random-ber"
    }

    fn stress_kind(&self) -> &'static str {
        "ber"
    }

    fn geometry(&self) -> ArrayConfig {
        self.array.clone()
    }

    fn weight_format(&self) -> Option<QFormat> {
        Some(self.fmt)
    }

    fn needs_silicon(&self) -> bool {
        false
    }

    fn supports_canary(&self) -> bool {
        false
    }

    fn validate_stress(&self, stress: &[f64]) -> Result<(), String> {
        for &ber in stress {
            if !(0.0..=1.0).contains(&ber) {
                return Err(format!("bit-error rate {ber} outside [0, 1]"));
            }
        }
        Ok(())
    }

    fn faults_at(&self, ctx: &FaultContext<'_>) -> CellFaults {
        let map = random_flip_map(
            self.array.banks,
            self.array.bank.words,
            self.array.bank.word_bits,
            ctx.stress,
            ctx.cell_seed,
        );
        CellFaults { map, drops: None }
    }

    fn fingerprint(&self) -> u128 {
        let mut f = Fingerprint::new();
        f.write_str("matic.fault-model.random-ber/v1");
        f.write_u128(fingerprint_of(&self.array));
        f.write_u128(fingerprint_of(&self.fmt));
        f.finish()
    }
}

/// ThUnderVolt-style TE-Drop: under clock-period overscaling, MACs whose
/// critical path misses timing drop their partial product from the
/// accumulation. Storage stays clean; the error composes into the kernel
/// via [`MacDropSpec`].
///
/// The stress axis is normalized clock stress `s ∈ [0, 1]` (0 = nominal
/// period, 1 = maximum overscaling). Below the timing-slack `onset` no
/// path fails; past it the per-MAC drop probability grows quadratically,
/// `p(s) = ((s − onset) / (1 − onset))²`, mirroring how path-delay
/// distributions put most paths near the tail.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingError {
    array: ArrayConfig,
    onset: f64,
}

impl TimingError {
    /// A TE-Drop model over the given geometry with the given onset
    /// (clamped to `[0, 1)`).
    pub fn new(array: ArrayConfig, onset: f64) -> Self {
        let onset = if onset.is_nan() {
            0.0
        } else {
            onset.clamp(0.0, 0.999)
        };
        TimingError { array, onset }
    }

    /// SNNAC geometry with the default 0.25 timing-slack onset.
    pub fn snnac() -> Self {
        Self::snnac_sized(ArrayConfig::default())
    }

    /// The SNNAC recipe (0.25 onset) over a custom geometry — e.g. one
    /// grown by [`fitted_array_config`] for a larger topology.
    pub fn snnac_sized(array: ArrayConfig) -> Self {
        Self::new(array, 0.25)
    }

    /// Per-MAC drop probability at normalized clock stress `s`.
    pub fn drop_probability(&self, s: f64) -> f64 {
        if s <= self.onset {
            0.0
        } else {
            let t = (s - self.onset) / (1.0 - self.onset);
            (t * t).min(1.0)
        }
    }
}

impl FaultModel for TimingError {
    fn name(&self) -> &'static str {
        "timing-error"
    }

    fn stress_kind(&self) -> &'static str {
        "clock"
    }

    fn geometry(&self) -> ArrayConfig {
        self.array.clone()
    }

    fn needs_silicon(&self) -> bool {
        false
    }

    fn supports_canary(&self) -> bool {
        false
    }

    fn validate_stress(&self, stress: &[f64]) -> Result<(), String> {
        for &s in stress {
            if !(0.0..=1.0).contains(&s) {
                return Err(format!("clock stress {s} outside [0, 1]"));
            }
        }
        Ok(())
    }

    fn faults_at(&self, ctx: &FaultContext<'_>) -> CellFaults {
        let map = FaultMap::clean(
            0.0,
            self.array.banks,
            self.array.bank.words,
            self.array.bank.word_bits,
        );
        // Keyed on the *unit* seed: at a fixed seed the drop set is
        // monotone in stress (MacDropSpec thresholds one hash stream), so
        // harsher clock points strictly grow the error set, exactly like
        // lower voltages grow a profiled fault map.
        let drops = MacDropSpec::new(ctx.unit_seed, self.drop_probability(ctx.stress));
        CellFaults {
            map,
            drops: Some(drops),
        }
    }

    fn fingerprint(&self) -> u128 {
        let mut f = Fingerprint::new();
        f.write_str("matic.fault-model.timing-error/v1");
        f.write_u128(fingerprint_of(&self.array));
        f.write_u64(self.onset.to_bits());
        f.finish()
    }
}

/// Derives an array geometry fitted to a topology's per-layer weight
/// extents: keeps the template's bank count, word width and cell
/// statistics, and — only when the network does not fit — grows each
/// bank by whole macros of the template's word depth (adding another
/// weight-SRAM macro per PE, the way a larger SNNAC variant would be
/// floorplanned).
///
/// Returns the template **unchanged** whenever the network fits, so
/// every topology that fits the stock 8 × 576 × 16 complex (all four
/// paper benchmarks) keeps its exact chip-config fingerprint — and with
/// it every cache key.
pub fn fitted_array_config(spec: &NetSpec, template: &ArrayConfig) -> ArrayConfig {
    let banks = template.banks.max(1);
    // Round-robin placement: bank b holds ⌈(rows − b)/banks⌉ neurons of
    // each layer, each occupying fan-in + 1 (bias) words. Bank 0 is
    // always the fullest.
    let worst: usize = spec
        .param_extents()
        .iter()
        .map(|&(rows, cols)| (rows.div_ceil(banks)) * (cols + 1))
        .sum();
    if worst <= template.bank.words {
        return template.clone();
    }
    let macro_words = template.bank.words.max(1);
    ArrayConfig {
        banks,
        bank: SramConfig {
            words: worst.div_ceil(macro_words) * macro_words,
            ..template.bank.clone()
        },
    }
}

/// The exact storage-side surrogate of a MAC-drop set: every weight whose
/// MAC the spec drops is stuck at all-zero in its SRAM word.
///
/// A dropped MAC contributes zero to the `i64` accumulation; a weight
/// word reading back as `0` contributes `0 · x = 0`. Integer arithmetic
/// makes the two *bit-exact*, so memory-adaptive training can compensate
/// for timing errors by training against this map with the existing
/// storage-fault machinery — no trainer changes needed.
///
/// Biases are never dropped (they ride the short accumulator path), so
/// bias words stay clean.
pub fn drop_surrogate_map(drops: &MacDropSpec, layout: &WeightLayout, word_bits: u8) -> FaultMap {
    let mut map = FaultMap::clean(0.0, layout.banks(), layout.words_per_bank(), word_bits);
    for (param, loc) in layout.entries() {
        if let crate::layout::ParamRef::Weight { layer, row, col } = param {
            if drops.dropped(layer, row, col) {
                for bit in 0..word_bits {
                    map.bank_mut(loc.bank).set_fault(loc.word, bit, false);
                }
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use matic_nn::NetSpec;

    fn all_models() -> Vec<Box<dyn FaultModel>> {
        vec![
            Box::new(SramVoltage::snnac()),
            Box::new(RandomBer::snnac()),
            Box::new(TimingError::snnac()),
        ]
    }

    #[test]
    fn names_and_kinds_are_distinct() {
        let models = all_models();
        for i in 0..models.len() {
            for j in i + 1..models.len() {
                assert_ne!(models[i].name(), models[j].name());
                assert_ne!(models[i].stress_kind(), models[j].stress_kind());
                assert_ne!(models[i].fingerprint(), models[j].fingerprint());
            }
        }
    }

    #[test]
    fn fingerprint_tracks_semantic_fields() {
        let base = RandomBer::snnac();
        let narrow = ArrayConfig {
            banks: 4,
            ..Default::default()
        };
        assert_ne!(
            base.fingerprint(),
            RandomBer::new(narrow.clone(), QFormat::snnac_weight_robust()).fingerprint(),
            "geometry is semantic"
        );
        assert_ne!(
            base.fingerprint(),
            RandomBer::new(ArrayConfig::default(), QFormat::snnac_weight()).fingerprint(),
            "weight format is semantic"
        );
        assert_ne!(
            TimingError::snnac().fingerprint(),
            TimingError::new(ArrayConfig::default(), 0.5).fingerprint(),
            "onset is semantic"
        );
        assert_ne!(
            SramVoltage::snnac().fingerprint(),
            SramVoltage::new(narrow).fingerprint(),
        );
        // Equal values, equal digests.
        assert_eq!(
            RandomBer::snnac().fingerprint(),
            RandomBer::snnac().fingerprint()
        );
    }

    #[test]
    fn stress_domains_are_enforced() {
        assert!(SramVoltage::snnac().validate_stress(&[0.9, 0.46]).is_ok());
        assert!(SramVoltage::snnac().validate_stress(&[1.5]).is_err());
        assert!(RandomBer::snnac().validate_stress(&[0.0, 0.3]).is_ok());
        assert!(RandomBer::snnac().validate_stress(&[-0.1]).is_err());
        assert!(TimingError::snnac().validate_stress(&[0.0, 1.0]).is_ok());
        assert!(TimingError::snnac().validate_stress(&[1.1]).is_err());
    }

    #[test]
    fn random_ber_faults_are_cell_seeded_flips() {
        let model = RandomBer::snnac();
        let ctx = |cell_seed| FaultContext {
            stress: 0.01,
            cell_seed,
            unit_seed: 1,
            profiled: None,
        };
        let a = model.faults_at(&ctx(7));
        let b = model.faults_at(&ctx(7));
        let c = model.faults_at(&ctx(8));
        assert!(a.drops.is_none());
        assert_eq!(a.map.fingerprint(), b.map.fingerprint());
        assert_ne!(a.map.fingerprint(), c.map.fingerprint());
        assert!(a.map.fault_count() > 0);
        assert_eq!(a.map.records().len(), 0, "flips, not stuck-ats");
    }

    #[test]
    fn timing_error_probability_is_monotone_with_onset_plateau() {
        let model = TimingError::snnac();
        assert_eq!(model.drop_probability(0.0), 0.0);
        assert_eq!(model.drop_probability(0.25), 0.0);
        let mut last = 0.0;
        let mut s = 0.26;
        while s <= 1.0 {
            let p = model.drop_probability(s);
            assert!(p >= last, "p must be non-decreasing in stress");
            last = p;
            s += 0.01;
        }
        assert!((model.drop_probability(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn timing_error_faults_key_on_unit_seed() {
        let model = TimingError::snnac();
        let ctx = FaultContext {
            stress: 0.8,
            cell_seed: 999,
            unit_seed: 5,
            profiled: None,
        };
        let f = model.faults_at(&ctx);
        assert_eq!(f.map.fault_count(), 0, "storage stays clean");
        let drops = f.drops.expect("timing model must emit a drop spec");
        assert_eq!(drops.seed(), 5, "keyed on the unit seed, not the cell");
    }

    #[test]
    fn trait_objects_round_trip_behaviour() {
        // The harness holds models only as `&dyn FaultModel`; everything
        // it needs must be reachable through the vtable.
        for model in all_models() {
            let dynref: &dyn FaultModel = model.as_ref();
            assert!(!dynref.name().is_empty());
            assert!(dynref.geometry().banks > 0);
            let _ = dynref.fingerprint();
            if !dynref.needs_silicon() {
                let ctx = FaultContext {
                    stress: 0.3,
                    cell_seed: 1,
                    unit_seed: 2,
                    profiled: None,
                };
                let faults = dynref.faults_at(&ctx);
                assert_eq!(faults.map.banks().len(), dynref.geometry().banks);
            }
        }
    }

    #[test]
    fn fitted_geometry_keeps_fitting_topologies_verbatim() {
        let template = ArrayConfig::snnac();
        for layers in [
            vec![100, 32, 10],
            vec![400, 8, 1],
            vec![2, 16, 2],
            vec![6, 16, 1],
        ] {
            let spec = NetSpec::classifier(&layers);
            assert_eq!(
                fitted_array_config(&spec, &template),
                template,
                "{layers:?} fits the stock complex and must not re-size it"
            );
        }
        let conv = NetSpec::parse_topology("10x10x1;conv3x4;pool2;dense10").unwrap();
        assert_eq!(fitted_array_config(&conv, &template), template);
    }

    #[test]
    fn fitted_geometry_grows_by_whole_macros() {
        let template = ArrayConfig::snnac();
        let big = NetSpec::classifier(&[1000, 64, 10]);
        let fitted = fitted_array_config(&big, &template);
        assert_eq!(fitted.banks, 8);
        assert_eq!(fitted.bank.word_bits, 16);
        // Bank 0 holds 8 hidden neurons × 1001 words + 2 output neurons
        // × 65 words = 8138 words → 15 macros of 576.
        assert_eq!(fitted.bank.words, 8138usize.div_ceil(576) * 576);
        assert!(WeightLayout::new(&big, fitted.banks, fitted.bank.words).is_ok());
    }

    #[test]
    fn surrogate_map_zeroes_exactly_the_dropped_weights() {
        let spec = NetSpec::classifier(&[6, 8, 3]);
        let layout = WeightLayout::new(&spec, 2, 64).unwrap();
        let drops = MacDropSpec::new(11, 0.4);
        let map = drop_surrogate_map(&drops, &layout, 16);
        for (param, loc) in layout.entries() {
            let read = map.apply(loc.bank, loc.word, 0xFFFF);
            match param {
                crate::layout::ParamRef::Weight { layer, row, col } => {
                    if drops.dropped(layer, row, col) {
                        assert_eq!(read, 0, "dropped weight must read all-zero");
                    } else {
                        assert_eq!(read, 0xFFFF, "surviving weight untouched");
                    }
                }
                crate::layout::ParamRef::Bias { .. } => {
                    assert_eq!(read, 0xFFFF, "biases are never dropped");
                }
            }
        }
    }
}
