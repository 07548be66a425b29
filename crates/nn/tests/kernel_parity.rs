//! Cross-tier kernel parity: every data-parallel kernel tier must be
//! **bit-identical** to the scalar reference tier.
//!
//! All MAC kernels accumulate exact `i64` sums of `i32 x i32` products,
//! so any reassociation — 4-wide unrolling, 8-wide lane packing, AVX2
//! vectors, sample batching — is provably exact. This suite enforces
//! that argument empirically across:
//!
//! * random vector lengths covering every residue class modulo the
//!   widest lane width (tails are where lane bugs live);
//! * TE-Drop masks folded into the weights as zero words;
//! * the batched matmul versus a per-sample matvec loop;
//! * the f64 batched forward pass versus per-sample `Mlp::forward`;
//! * the global tier dispatch (`set_kernel_tier` override, which wins
//!   over the `MATIC_KERNEL` environment knob and auto-detection).

use matic_nn::kernel::{
    fx_dot, fx_dot_with, fx_matmul_with, fx_matvec_with, set_kernel_tier, simd_available,
    KernelTier, MacDropSpec,
};
use matic_nn::{Mlp, NetSpec};

const TIERS: [KernelTier; 3] = [KernelTier::Scalar, KernelTier::Lanes, KernelTier::Simd];

/// SplitMix64: tiny deterministic stream for test data.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform i32 across the full Q-format range used by the NPU.
    fn q(&mut self) -> i32 {
        (self.next() % 131073) as i32 - 65536
    }

    fn vec(&mut self, n: usize) -> Vec<i32> {
        (0..n).map(|_| self.q()).collect()
    }
}

#[test]
fn dot_parity_at_every_residue_class() {
    let mut rng = Rng(0xA11CE);
    // Lengths 0..=67 cover every residue mod 8 (and mod 4) several times,
    // plus a large length exercising many full lane blocks.
    for n in (0..68).chain([1021]) {
        let w = rng.vec(n);
        let x = rng.vec(n);
        let scalar = fx_dot_with(KernelTier::Scalar, &w, &x);
        for tier in TIERS {
            assert_eq!(
                fx_dot_with(tier, &w, &x),
                scalar,
                "fx_dot len {n} tier {tier:?} diverged from scalar"
            );
        }
    }
}

#[test]
fn matvec_parity_at_ragged_shapes() {
    let mut rng = Rng(0xB0B);
    for (rows, cols) in [(1, 1), (3, 5), (8, 64), (17, 33), (100, 7), (64, 130)] {
        let w = rng.vec(rows * cols);
        let x = rng.vec(cols);
        let mut scalar = vec![0i64; rows];
        fx_matvec_with(KernelTier::Scalar, &w, &x, &mut scalar);
        for tier in TIERS {
            let mut out = vec![0i64; rows];
            fx_matvec_with(tier, &w, &x, &mut out);
            assert_eq!(out, scalar, "fx_matvec {rows}x{cols} tier {tier:?}");
        }
    }
}

/// Drops are evaluated as weight content: a layer whose dropped MACs'
/// weights are zeroed must give, on every tier and in every batch lane,
/// the sequential masked sum that skips those MACs — at every length
/// residue, at both probability endpoints, and with global row indices.
#[test]
fn dropped_kernel_parity_across_tiers() {
    let mut rng = Rng(0xD0D0);
    let masked = |w: &[i32], x: &[i32], drops: &MacDropSpec, row: usize| -> i64 {
        (0..x.len())
            .filter(|&c| !drops.dropped(2, row, c))
            .map(|c| w[c] as i64 * x[c] as i64)
            .sum()
    };
    let fold = |w: &[i32], cols: usize, drops: &MacDropSpec| -> Vec<i32> {
        w.iter()
            .enumerate()
            .map(|(i, &v)| {
                if drops.dropped(2, i / cols, i % cols) {
                    0
                } else {
                    v
                }
            })
            .collect()
    };
    for n in [1, 3, 7, 8, 9, 31, 64, 65, 200] {
        let w = rng.vec(n);
        let x = rng.vec(n);
        for p in [0.0, 0.25, 0.8, 1.0] {
            let drops = MacDropSpec::new(42, p);
            let expect = masked(&w, &x, &drops, 0);
            let zeroed = fold(&w, n, &drops);
            for tier in TIERS {
                assert_eq!(
                    fx_dot_with(tier, &zeroed, &x),
                    expect,
                    "len {n} p {p} tier {tier:?}"
                );
            }
        }
    }
    // A ragged layer with a mid-rate mask, batched: every lane of every
    // row is that sample's masked sum.
    let (rows, cols, batch) = (19, 37, 5);
    let w = rng.vec(rows * cols);
    let x = rng.vec(cols * batch);
    let drops = MacDropSpec::new(7, 0.4);
    let zeroed = fold(&w, cols, &drops);
    for tier in TIERS {
        let mut out = vec![0i64; rows * batch];
        fx_matmul_with(tier, &zeroed, &x, batch, &mut out);
        for s in 0..batch {
            let sample: Vec<i32> = (0..cols).map(|c| x[c * batch + s]).collect();
            let mut single = vec![0i64; rows];
            fx_matvec_with(tier, &zeroed, &sample, &mut single);
            for r in 0..rows {
                let expect = masked(&w[r * cols..(r + 1) * cols], &sample, &drops, r);
                assert_eq!(
                    out[r * batch + s],
                    expect,
                    "matmul tier {tier:?} row {r} lane {s}"
                );
                assert_eq!(single[r], expect, "matvec tier {tier:?} row {r}");
            }
        }
    }
}

#[test]
fn batched_matmul_parity_with_per_sample_loop() {
    let mut rng = Rng(0xBA7C);
    for (rows, cols, batch) in [(4, 9, 1), (8, 16, 3), (10, 33, 8), (5, 7, 13)] {
        let w = rng.vec(rows * cols);
        // Column-major sample lanes: x[c * batch + s].
        let x = rng.vec(cols * batch);
        let mut expect = vec![0i64; rows * batch];
        for s in 0..batch {
            let sample: Vec<i32> = (0..cols).map(|c| x[c * batch + s]).collect();
            let mut out = vec![0i64; rows];
            fx_matvec_with(KernelTier::Scalar, &w, &sample, &mut out);
            for r in 0..rows {
                expect[r * batch + s] = out[r];
            }
        }
        for tier in TIERS {
            let mut out = vec![0i64; rows * batch];
            fx_matmul_with(tier, &w, &x, batch, &mut out);
            assert_eq!(
                out, expect,
                "fx_matmul {rows}x{cols} batch {batch} tier {tier:?}"
            );
        }
    }
}

#[test]
fn forward_batch_parity_with_per_sample_forward() {
    // f64 forward: the batched path replays each sample's accumulation
    // order exactly, so equality is exact, not approximate.
    for (spec, seed) in [
        (NetSpec::classifier(&[9, 14, 5]), 3u64),
        (NetSpec::regressor(&[4, 8, 8, 2]), 9u64),
    ] {
        let net = Mlp::init(spec.clone(), seed);
        let fan_in = spec.layers[0];
        let inputs: Vec<Vec<f64>> = (0..11)
            .map(|i| {
                (0..fan_in)
                    .map(|c| ((i * 31 + c * 17) % 101) as f64 / 101.0 - 0.4)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = inputs.iter().map(|v| v.as_slice()).collect();
        let expect: Vec<Vec<f64>> = inputs.iter().map(|x| net.forward(x)).collect();
        for tier in TIERS {
            set_kernel_tier(Some(tier));
            let got = net.forward_batch(&refs);
            set_kernel_tier(None);
            assert_eq!(got, expect, "forward_batch under tier {tier:?}");
        }
    }
}

#[test]
fn conv_patch_shapes_parity_across_tiers() {
    // The NPU lowers a conv layer to fx_matvec over (filters x k²·c)
    // weight rows against a gathered receptive-field patch. These are
    // the adversarial shapes that never arise from Table I MLPs: tiny
    // odd reduction depths (k²·c = 1, 4, 9, 12, 18, 25, 27, 50, 75, …)
    // crossed with filter counts off the 8-lane grid.
    let mut rng = Rng(0xC0A7);
    for kernel in 1usize..=5 {
        for in_c in 1usize..=3 {
            let k2c = kernel * kernel * in_c;
            for filters in [1usize, 3, 7, 8, 9, 17] {
                let w = rng.vec(filters * k2c);
                let patch = rng.vec(k2c);
                let mut scalar = vec![0i64; filters];
                fx_matvec_with(KernelTier::Scalar, &w, &patch, &mut scalar);
                for tier in TIERS {
                    let mut out = vec![0i64; filters];
                    fx_matvec_with(tier, &w, &patch, &mut out);
                    assert_eq!(
                        out, scalar,
                        "conv patch {filters}x{k2c} (k={kernel}, c={in_c}) tier {tier:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn tier_override_controls_dispatch() {
    // The process-wide override must steer the auto-dispatched entry
    // points; since all tiers are bit-identical the only observable is
    // that results stay constant while we flip it — which is exactly the
    // contract that makes flipping safe mid-process.
    let mut rng = Rng(0x5EED);
    let w = rng.vec(133);
    let x = rng.vec(133);
    let baseline = fx_dot_with(KernelTier::Scalar, &w, &x);
    for tier in TIERS {
        set_kernel_tier(Some(tier));
        assert_eq!(fx_dot(&w, &x), baseline, "override {tier:?}");
        set_kernel_tier(None);
    }
    assert_eq!(
        fx_dot(&w, &x),
        baseline,
        "auto tier after clearing override"
    );
    // Requesting SIMD is always safe: it falls back to lanes when the CPU
    // lacks AVX2, so parity holds on every host this suite runs on.
    let _ = simd_available();
}
