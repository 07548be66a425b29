//! Golden-report anchors: sweeps over each stress axis, run exactly as
//! the checked-in golden files were generated, must keep producing
//! byte-identical output.
//!
//! Every golden file was written by the batch CLI with the shared recipe
//! `--chips 2 --modes naive,mat --scale 0.2 --epochs 0.3 --seed 42
//! --quiet` plus the per-anchor axis flags listed in [`ANCHORS`], e.g.:
//!
//! ```text
//! matic sweep --chips 2 --voltages 0.50,0.90 --benchmarks all \
//!     --modes naive,mat --scale 0.2 --epochs 0.3 --seed 42 \
//!     --quiet --out tests/golden/sweep_all_v3.json
//! ```
//!
//! This pins two contracts at once: the deterministic pipeline (same
//! plan → same bytes, whatever the host, thread count or kernel tier) on
//! all three fault axes, and the report's serialized layout — all-MLP
//! plans must stay on the v3 schema with the exact v3 field set, so
//! downstream consumers of existing reports never see a byte change they
//! didn't opt into by sweeping an extended topology.

use matic_harness::{linspace, run_sweep, SweepPlan, SweepPlanBuilder, TrainingMode};

/// One golden anchor: the fixture, the schema it must carry, and the
/// axis/benchmark part of the plan (the CLI flags in the comment).
struct Anchor {
    file: &'static str,
    golden: &'static str,
    schema: &'static str,
    plan: fn(SweepPlanBuilder) -> SweepPlanBuilder,
}

const ANCHORS: [Anchor; 5] = [
    // --voltages 0.50,0.90 --benchmarks all
    Anchor {
        file: "sweep_all_v3.json",
        golden: include_str!("golden/sweep_all_v3.json"),
        schema: "matic.sweep-report/v3",
        plan: |b| b.voltages(&[0.50, 0.90]).all_benchmarks(),
    },
    // --clock-stress 0.0:0.9:4 --benchmarks all
    Anchor {
        file: "sweep_clock_v3.json",
        golden: include_str!("golden/sweep_clock_v3.json"),
        schema: "matic.sweep-report/v3",
        plan: |b| b.clock_stress(&linspace(0.0, 0.9, 4)).all_benchmarks(),
    },
    // --bers 0.001,0.01 --benchmarks all
    Anchor {
        file: "sweep_ber_v3.json",
        golden: include_str!("golden/sweep_ber_v3.json"),
        schema: "matic.sweep-report/v3",
        plan: |b| b.bit_error_rates(&[0.001, 0.01]).all_benchmarks(),
    },
    // --clock-stress 0.3,0.9 --benchmarks mnist
    //     --topology '10x10x1;conv3x4;pool2;dense10'
    Anchor {
        file: "sweep_clock_conv_v4.json",
        golden: include_str!("golden/sweep_clock_conv_v4.json"),
        schema: "matic.sweep-report/v4",
        plan: |b| {
            b.clock_stress(&[0.3, 0.9])
                .benchmark("mnist")
                .expect("mnist is a benchmark")
                .topology(
                    matic_nn::NetSpec::parse_topology("10x10x1;conv3x4;pool2;dense10")
                        .expect("topology parses"),
                )
        },
    },
    // --voltages 0.50,0.90 --benchmarks mnist
    //     --topology '10x10x1;conv3x2;pool2;conv2x4;dense10'
    // (conv and pool after the first layer: pins the conv `delta_in` and
    // the pool-to-conv seam)
    Anchor {
        file: "sweep_conv_chain_v4.json",
        golden: include_str!("golden/sweep_conv_chain_v4.json"),
        schema: "matic.sweep-report/v4",
        plan: |b| {
            b.voltages(&[0.50, 0.90])
                .benchmark("mnist")
                .expect("mnist is a benchmark")
                .topology(
                    matic_nn::NetSpec::parse_topology("10x10x1;conv3x2;pool2;conv2x4;dense10")
                        .expect("topology parses"),
                )
        },
    },
];

fn check(anchor: &Anchor) {
    let builder = SweepPlan::builder()
        .chips(2)
        .modes(&[TrainingMode::Naive, TrainingMode::Mat])
        .data_scale(0.2)
        .epoch_scale(0.3)
        .seed(42);
    let plan = (anchor.plan)(builder).build().expect("plan is valid");
    let got = run_sweep(&plan).to_json_pretty();
    assert!(
        anchor.golden.contains(&format!("\"{}\"", anchor.schema)),
        "golden anchor {} must be a {} report",
        anchor.file,
        anchor.schema
    );
    // On mismatch, dump the produced report next to the golden so CI
    // artifacts make the diff inspectable; the assert message stays
    // short because the reports are tens of kB each.
    if got != anchor.golden {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target/golden_actual")
            .join(anchor.file);
        let _ = std::fs::create_dir_all(out.parent().unwrap());
        let _ = std::fs::write(&out, &got);
        panic!(
            "sweep report diverged from tests/golden/{} \
             (got {} bytes vs {} golden; actual written to {})",
            anchor.file,
            got.len(),
            anchor.golden.len(),
            out.display()
        );
    }
}

#[test]
fn all_benchmark_sweep_is_byte_identical_to_golden() {
    check(&ANCHORS[0]);
}

#[test]
fn clock_stress_sweep_is_byte_identical_to_golden() {
    check(&ANCHORS[1]);
}

#[test]
fn ber_sweep_is_byte_identical_to_golden() {
    check(&ANCHORS[2]);
}

#[test]
fn conv_clock_stress_sweep_is_byte_identical_to_golden() {
    check(&ANCHORS[3]);
}

#[test]
fn conv_chain_voltage_sweep_is_byte_identical_to_golden() {
    check(&ANCHORS[4]);
}
