//! Property-based tests over the NN substrate.

use crate::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Backprop agrees with central differences on random small nets.
    #[test]
    fn gradients_match_numerics(
        seed in 0u64..500,
        hidden in 2usize..6,
        input in proptest::collection::vec(-1.0f64..1.0, 3),
    ) {
        let spec = NetSpec::classifier(&[3, hidden, 2]);
        let net = Mlp::init(spec, seed);
        let s = Sample::new(input, vec![1.0, 0.0]);
        let analytic = net.sample_gradients(&s);
        let numeric = numerical_gradients(&net, &s, 1e-6);
        for l in 0..net.spec().depth() {
            for (a, n) in analytic.weights[l].as_slice().iter()
                .zip(numeric.weights[l].as_slice()) {
                prop_assert!((a - n).abs() < 1e-5);
            }
        }
    }

    /// Sigmoid-output networks always emit values in [0, 1].
    #[test]
    fn sigmoid_outputs_in_unit_interval(
        seed in 0u64..1000,
        input in proptest::collection::vec(-5.0f64..5.0, 4),
    ) {
        let net = Mlp::init(NetSpec::classifier(&[4, 6, 3]), seed);
        for y in net.forward(&input) {
            prop_assert!((0.0..=1.0).contains(&y));
        }
    }

    /// Loss is non-negative and zero iff prediction equals target (MSE).
    #[test]
    fn mse_loss_nonnegative(
        seed in 0u64..1000,
        input in proptest::collection::vec(-1.0f64..1.0, 2),
    ) {
        let net = Mlp::init(NetSpec::regressor(&[2, 3, 1]), seed);
        let y = net.forward(&input);
        let exact = Sample::new(input.clone(), y);
        prop_assert!(net.sample_loss(&exact) < 1e-20);
        let off = Sample::new(input, vec![123.0]);
        prop_assert!(net.sample_loss(&off) > 0.0);
    }

    /// A gradient step along the analytic gradient decreases the loss for
    /// a sufficiently small learning rate.
    #[test]
    fn gradient_step_descends(seed in 0u64..200) {
        let spec = NetSpec::classifier(&[3, 4, 2]);
        let mut net = Mlp::init(spec, seed);
        let s = Sample::new(vec![0.3, -0.2, 0.8], vec![0.0, 1.0]);
        let before = net.sample_loss(&s);
        let grads = net.sample_gradients(&s);
        let mut momentum = MomentumState::zeros_like(&net);
        net.apply_update(&grads, 1e-3, 0.0, &mut momentum);
        let after = net.sample_loss(&s);
        prop_assert!(after <= before + 1e-12, "{before} -> {after}");
    }

    /// map_weights is a pure elementwise transform: applying identity
    /// preserves the network.
    #[test]
    fn map_weights_identity(seed in 0u64..1000) {
        let net = Mlp::init(NetSpec::classifier(&[2, 3, 2]), seed);
        prop_assert_eq!(net.map_weights(|w| w), net);
    }

    /// The TE-Drop mask is idempotent: the verdict for any coordinate is
    /// a pure function of (seed, p, layer, row, col), stable across
    /// repeated queries and across fresh specs with identical fields.
    #[test]
    fn drop_mask_is_idempotent(
        seed in 0u64..1000,
        p in 0.0f64..=1.0,
        layer in 0usize..4,
        row in 0usize..128,
        col in 0usize..512,
    ) {
        let a = kernel::MacDropSpec::new(seed, p);
        let b = kernel::MacDropSpec::new(seed, p);
        let first = a.dropped(layer, row, col);
        prop_assert_eq!(a.dropped(layer, row, col), first);
        prop_assert_eq!(b.dropped(layer, row, col), first);
    }

    /// The TE-Drop mask is monotone in drop probability at a fixed seed:
    /// every MAC dropped at the lower probability is also dropped at the
    /// higher one (clock-period stress only ever fails *more* paths).
    #[test]
    fn drop_mask_is_monotone_in_stress(
        seed in 0u64..500,
        p_pair in (0.0f64..=1.0, 0.0f64..=1.0),
    ) {
        let (a, b) = p_pair;
        let (p_lo, p_hi) = if a <= b { (a, b) } else { (b, a) };
        let lo = kernel::MacDropSpec::new(seed, p_lo);
        let hi = kernel::MacDropSpec::new(seed, p_hi);
        for layer in 0..2 {
            for row in 0..16 {
                for col in 0..16 {
                    if lo.dropped(layer, row, col) {
                        prop_assert!(hi.dropped(layer, row, col));
                    }
                }
            }
        }
    }

    /// Every kernel tier computes the same exact dot product at every
    /// tail residue class: for each base length multiple of the widest
    /// lane width (8) and each residue 0..8, lanes/SIMD agree bit-for-bit
    /// with the scalar tier on random data.
    #[test]
    fn dot_tiers_agree_at_every_tail_residue(
        base in 0usize..12,
        values in proptest::collection::vec(-32768i32..32768, 96 + 8),
    ) {
        use kernel::KernelTier;
        for residue in 0..8usize {
            let n = base * 8 + residue;
            let w = &values[..n];
            let x = &values[8..8 + n];
            let scalar = kernel::fx_dot_with(KernelTier::Scalar, w, x);
            prop_assert_eq!(kernel::fx_dot_with(KernelTier::Lanes, w, x), scalar);
            prop_assert_eq!(kernel::fx_dot_with(KernelTier::Simd, w, x), scalar);
        }
    }

    /// The batched kernel is tier- and batch-invariant: for random
    /// shapes, every (tier, batch) combination produces the exact
    /// per-sample columns of the scalar per-sample matvec.
    #[test]
    fn matmul_tiers_agree_for_random_shapes(
        rows in 1usize..10,
        cols in 0usize..24,
        batch in 1usize..9,
        seed in 0u64..1000,
    ) {
        use kernel::KernelTier;
        let val = |i: u64| ((seed.wrapping_mul(31).wrapping_add(i) * 2654435761) % 65537) as i32 - 32768;
        let w: Vec<i32> = (0..rows * cols).map(|i| val(i as u64)).collect();
        let x: Vec<i32> = (0..cols * batch).map(|i| val(1000 + i as u64)).collect();
        let mut expect = vec![0i64; rows * batch];
        for s in 0..batch {
            let sample: Vec<i32> = (0..cols).map(|c| x[c * batch + s]).collect();
            let mut out = vec![0i64; rows];
            kernel::fx_matvec_with(KernelTier::Scalar, &w, &sample, &mut out);
            for r in 0..rows {
                expect[r * batch + s] = out[r];
            }
        }
        for tier in [KernelTier::Scalar, KernelTier::Lanes, KernelTier::Simd] {
            let mut out = vec![0i64; rows * batch];
            kernel::fx_matmul_with(tier, &w, &x, batch, &mut out);
            prop_assert_eq!(&out, &expect, "tier {:?}", tier);
        }
    }

    /// A dropped MAC is a zero weight word on every tier: the plain
    /// kernels over weights with the dropped columns zeroed reproduce
    /// the sequential masked sum for random drop rates and tail lengths
    /// — the premise that lets evaluation fold a drop set into the
    /// weights instead of hashing it per MAC.
    #[test]
    fn dropped_tiers_agree(
        n in 0usize..70,
        p in 0.0f64..=1.0,
        seed in 0u64..500,
    ) {
        use kernel::KernelTier;
        let drops = kernel::MacDropSpec::new(seed, p);
        let w: Vec<i32> = (0..n).map(|i| ((i * 7919) % 65537) as i32 - 32768).collect();
        let x: Vec<i32> = (0..n).map(|i| ((i * 104729) % 65537) as i32 - 32768).collect();
        let masked: i64 = (0..n)
            .filter(|&c| !drops.dropped(1, 3, c))
            .map(|c| w[c] as i64 * x[c] as i64)
            .sum();
        let zeroed: Vec<i32> = (0..n)
            .map(|c| if drops.dropped(1, 3, c) { 0 } else { w[c] })
            .collect();
        for tier in [KernelTier::Scalar, KernelTier::Lanes, KernelTier::Simd] {
            prop_assert_eq!(kernel::fx_dot_with(tier, &zeroed, &x), masked);
            let mut out = vec![0i64; 1];
            kernel::fx_matmul_with(tier, &zeroed, &x, 1, &mut out);
            prop_assert_eq!(out[0], masked);
        }
    }
    /// The lane-batched chain equals the per-sample reference on random
    /// small conv chains — bit for bit, forward and gradients, across
    /// geometries, losses, batch sizes and a permuted index order. The
    /// optional second conv (kernel 0 = none) puts a conv `delta_in` and a pool-to-conv
    /// seam inside the chain.
    #[test]
    fn lane_chain_is_bit_identical_to_per_sample(
        kernel in 1usize..=3,
        in_c in 1usize..=2,
        filters in 1usize..=3,
        pool in 0u8..2,
        second_kernel in 0usize..=2,
        second_filters in 1usize..=2,
        units in 1usize..=4,
        cross_entropy in 0u8..2,
        batch in 1usize..=13,
        seed in 0u64..1000,
    ) {
        // Conv output side 4 keeps every pool window and second kernel valid.
        let side = 4 + kernel - 1;
        let mut topo = format!("{side}x{side}x{in_c};conv{kernel}x{filters}");
        if pool == 1 {
            topo.push_str(";pool2");
        }
        if second_kernel > 0 {
            topo.push_str(&format!(";conv{second_kernel}x{second_filters}"));
        }
        topo.push_str(&format!(";dense{units}"));
        let loss = if cross_entropy == 1 { Loss::CrossEntropy } else { Loss::Mse };
        let spec = NetSpec::parse_topology(&topo).unwrap().with_loss(loss);
        let net = Mlp::init(spec.clone(), seed);
        let val = |i: usize| ((seed as usize * 7919 + i * 104729) % 1009) as f64 / 1009.0 - 0.5;
        let data: Vec<Sample> = (0..13)
            .map(|i| {
                let x = (0..spec.layers[0]).map(|c| val(i * 1000 + c)).collect();
                let t = (0..units).map(|c| val(i * 31 + c + 500) + 0.5).collect();
                Sample::new(x, t)
            })
            .collect();
        let indices: Vec<usize> = (0..batch).map(|i| (i * 5 + 3) % 13).collect();
        let picked: Vec<Sample> = indices.iter().map(|&i| data[i].clone()).collect();

        let mut total = Gradients::zeros_like(&net);
        net.gradients_indexed(&data, &indices, &mut total, &mut BatchScratch::default());
        prop_assert_eq!(&total, &net.gradients(&picked), "{}", topo);

        let inputs: Vec<&[f64]> = picked.iter().map(|s| s.input.as_slice()).collect();
        for (out, x) in net.forward_batch(&inputs).iter().zip(&inputs) {
            prop_assert_eq!(out, &net.forward(x), "{}", topo);
        }
    }
}
