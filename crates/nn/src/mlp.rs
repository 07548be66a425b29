//! The layer-chain network: forward, backward, SGD.
//!
//! Historically a two-layer dense MLP; the struct now walks whatever
//! [`NetSpec`] layer chain it was built with (dense, conv, pooling),
//! dispatching per layer through [`crate::layer`]. Plain dense MLPs run
//! the exact historical operations in the exact historical order — the
//! paper's four benchmarks are bit-identical across the generalization.

use crate::layer;
use crate::matrix::Matrix;
use crate::sample::Sample;
use crate::spec::{Loss, NetSpec};
use crate::SgdConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Per-layer weight and bias gradients from a backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Gradients {
    /// ∂J/∂W per layer, same shapes as the weight matrices.
    pub weights: Vec<Matrix>,
    /// ∂J/∂b per layer.
    pub biases: Vec<Vec<f64>>,
}

impl Gradients {
    /// Zero gradients shaped like `net`.
    pub fn zeros_like(net: &Mlp) -> Self {
        Gradients {
            weights: net
                .weights
                .iter()
                .map(|w| Matrix::zeros(w.rows(), w.cols()))
                .collect(),
            biases: net.biases.iter().map(|b| vec![0.0; b.len()]).collect(),
        }
    }

    /// Resets all gradients to zero (buffer reuse across training steps).
    pub fn reset(&mut self) {
        for w in &mut self.weights {
            w.fill_zero();
        }
        for b in &mut self.biases {
            b.fill(0.0);
        }
    }

    /// Accumulates `other` into `self`.
    pub fn accumulate(&mut self, other: &Gradients) {
        for (a, b) in self.weights.iter_mut().zip(&other.weights) {
            a.add_scaled(b, 1.0);
        }
        for (a, b) in self.biases.iter_mut().zip(&other.biases) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }

    /// Scales all gradients (e.g. 1/batch averaging).
    pub fn scale(&mut self, s: f64) {
        for w in &mut self.weights {
            w.scale(s);
        }
        for b in &mut self.biases {
            for x in b.iter_mut() {
                *x *= s;
            }
        }
    }
}

/// Reusable buffers for allocation-free forward/backward passes.
///
/// Training loops call [`Mlp::accumulate_sample_gradients`] thousands of
/// times per epoch; routing every pass through one scratch set removes
/// all per-sample heap traffic from the hot path while producing
/// bit-identical numbers (every operation runs in the same order as the
/// allocating reference).
#[derive(Debug, Clone, Default)]
pub struct TrainScratch {
    /// Per-layer activations (input included), reused across samples.
    acts: Vec<Vec<f64>>,
    /// Current backprop delta.
    delta: Vec<f64>,
    /// Next (earlier-layer) delta under construction.
    prev: Vec<f64>,
}

/// Reusable buffers for the lane-batched forward/backward pass of
/// [`Mlp::gradients_indexed`].
///
/// Activations and deltas are stored column-major over the mini-batch
/// (`[unit * batch + sample]`), which turns every inner loop into
/// independent per-sample lanes: the compiler vectorizes across samples
/// while each sample's own floating-point accumulation order — and
/// therefore its bits — remains exactly that of the sequential
/// one-sample-at-a-time reference.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    /// Per-layer activations, `[unit * batch + sample]` (input included).
    acts: Vec<Vec<f64>>,
    /// Current backprop delta lanes.
    delta: Vec<f64>,
    /// Next (earlier-layer) delta lanes under construction.
    prev: Vec<f64>,
    /// Layer-kernel scratch (sample rows, receptive-field patches).
    rows: Vec<f64>,
}

/// Momentum accumulators matching a network's shape.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentumState {
    weights: Vec<Matrix>,
    biases: Vec<Vec<f64>>,
}

impl MomentumState {
    /// Zero state shaped like `net`.
    pub fn zeros_like(net: &Mlp) -> Self {
        MomentumState {
            weights: net
                .weights
                .iter()
                .map(|w| Matrix::zeros(w.rows(), w.cols()))
                .collect(),
            biases: net.biases.iter().map(|b| vec![0.0; b.len()]).collect(),
        }
    }

    /// Folds new gradients into the velocity: `v ← µ·v + g`; returns a
    /// reference to the updated velocity for the caller to apply.
    pub fn update(&mut self, grads: &Gradients, momentum: f64) -> (&[Matrix], &[Vec<f64>]) {
        for (v, g) in self.weights.iter_mut().zip(&grads.weights) {
            v.scale(momentum);
            v.add_scaled(g, 1.0);
        }
        for (v, g) in self.biases.iter_mut().zip(&grads.biases) {
            for (x, y) in v.iter_mut().zip(g) {
                *x = momentum * *x + y;
            }
        }
        (&self.weights, &self.biases)
    }
}

/// A layer-chain network with explicit float weights.
///
/// Weight matrices use `rows = fan_out`, `cols = fan_in` (per
/// [`crate::spec::NetSpec::param_extents`]; convolution rows are
/// filters, columns are kernel taps; pooling stages hold empty
/// matrices). The struct is the
/// substrate for both vanilla training and the memory-adaptive loop, which
/// needs to run passes over *modified* copies of the weights; see
/// [`Mlp::map_weights`] and [`Mlp::gradients`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    spec: NetSpec,
    weights: Vec<Matrix>,
    biases: Vec<Vec<f64>>,
}

impl Mlp {
    /// Initializes a network with Xavier/Glorot-uniform weights and zero
    /// biases, deterministically from `seed`. Parameterless stages
    /// (pooling) hold empty matrices and draw nothing from the RNG, so
    /// the weight stream of every dense layer is independent of how many
    /// pools sit between them — and identical to the pre-chain stream
    /// for plain MLPs.
    pub fn init(spec: NetSpec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut weights = Vec::with_capacity(spec.depth());
        let mut biases = Vec::with_capacity(spec.depth());
        for (rows, cols) in spec.param_extents() {
            let mut m = Matrix::zeros(rows, cols);
            if rows > 0 {
                let limit = (6.0 / (cols + rows) as f64).sqrt();
                for v in m.as_mut_slice() {
                    *v = rng.gen_range(-limit..limit);
                }
            }
            weights.push(m);
            biases.push(vec![0.0; rows]);
        }
        Mlp {
            spec,
            weights,
            biases,
        }
    }

    /// Builds a network from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with `spec`.
    pub fn from_params(spec: NetSpec, weights: Vec<Matrix>, biases: Vec<Vec<f64>>) -> Self {
        assert_eq!(weights.len(), spec.depth(), "weight count mismatch");
        assert_eq!(biases.len(), spec.depth(), "bias count mismatch");
        for (l, (rows, cols)) in spec.param_extents().into_iter().enumerate() {
            assert_eq!(weights[l].cols(), cols, "layer {l} fan-in");
            assert_eq!(weights[l].rows(), rows, "layer {l} fan-out");
            assert_eq!(biases[l].len(), rows, "layer {l} bias len");
        }
        Mlp {
            spec,
            weights,
            biases,
        }
    }

    /// The architecture specification.
    pub fn spec(&self) -> &NetSpec {
        &self.spec
    }

    /// Weight matrices, input-side first.
    pub fn weights(&self) -> &[Matrix] {
        &self.weights
    }

    /// Mutable weight matrices.
    pub fn weights_mut(&mut self) -> &mut [Matrix] {
        &mut self.weights
    }

    /// Bias vectors.
    pub fn biases(&self) -> &[Vec<f64>] {
        &self.biases
    }

    /// Mutable bias vectors.
    pub fn biases_mut(&mut self) -> &mut [Vec<f64>] {
        &mut self.biases
    }

    /// Returns a copy of the network with every weight and bias transformed
    /// by `f` (e.g. quantize-and-mask for memory-adaptive training).
    pub fn map_weights(&self, mut f: impl FnMut(f64) -> f64) -> Mlp {
        let mut out = self.clone();
        for m in &mut out.weights {
            for v in m.as_mut_slice() {
                *v = f(*v);
            }
        }
        for b in &mut out.biases {
            for v in b.iter_mut() {
                *v = f(*v);
            }
        }
        out
    }

    /// Runs the forward pass and returns the output activations.
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the input-layer width.
    ///
    /// # Examples
    ///
    /// ```
    /// use matic_nn::{Mlp, NetSpec};
    ///
    /// let net = Mlp::init(NetSpec::classifier(&[4, 8, 3]), 7);
    /// let out = net.forward(&[0.1, 0.9, 0.4, 0.2]);
    /// assert_eq!(out.len(), 3);
    /// // Sigmoid outputs are probabilities.
    /// assert!(out.iter().all(|y| (0.0..=1.0).contains(y)));
    /// ```
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        self.forward_trace(input).pop().unwrap()
    }

    /// Forward pass retaining every layer's activations (input included),
    /// as needed by backprop.
    pub fn forward_trace(&self, input: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(input.len(), self.spec.layers[0], "input width mismatch");
        let mut acts = Vec::with_capacity(self.spec.depth() + 1);
        acts.push(input.to_vec());
        for l in 0..self.spec.depth() {
            let mut z = vec![0.0; self.spec.layers[l + 1]];
            layer::forward_into(
                &self.spec.layer_spec(l),
                &self.weights[l],
                &self.biases[l],
                acts.last().unwrap(),
                &mut z,
            );
            acts.push(z);
        }
        acts
    }

    /// Batched forward pass: one output vector per input, bit-identical
    /// to calling [`Mlp::forward`] on each input separately.
    ///
    /// The whole batch moves through the chain together in column-major
    /// sample lanes ([`layer::forward_lanes`]), amortizing each weight
    /// traversal across all samples; every sample's floating-point
    /// accumulation order is still the per-sample reference order, so the
    /// equality is exact, not approximate.
    ///
    /// # Panics
    ///
    /// Panics if any input's length differs from the input-layer width.
    pub fn forward_batch(&self, inputs: &[&[f64]]) -> Vec<Vec<f64>> {
        let b = inputs.len();
        if b == 0 {
            return Vec::new();
        }
        let (mut acts, mut rows) = (Vec::new(), Vec::new());
        self.forward_lanes(inputs.iter().copied(), b, &mut acts, &mut rows);
        let out = acts.last().unwrap();
        let fan_out = *self.spec.layers.last().unwrap();
        (0..b)
            .map(|s| (0..fan_out).map(|c| out[c * b + s]).collect())
            .collect()
    }

    /// Lane-batched forward pass over the whole chain: interleaves the `b`
    /// inputs into `acts[0]` as `[unit * b + s]` lanes and fills every
    /// later layer's activations in the same layout (`rows` is layer
    /// scratch).
    fn forward_lanes<'a>(
        &self,
        inputs: impl Iterator<Item = &'a [f64]>,
        b: usize,
        acts: &mut Vec<Vec<f64>>,
        rows: &mut Vec<f64>,
    ) {
        let depth = self.spec.depth();
        acts.resize(depth + 1, Vec::new());
        let width0 = self.spec.layers[0];
        let a0 = &mut acts[0];
        a0.resize(width0 * b, 0.0);
        for (s, input) in inputs.enumerate() {
            assert_eq!(input.len(), width0, "input width mismatch");
            for (c, &x) in input.iter().enumerate() {
                a0[c * b + s] = x;
            }
        }
        for l in 0..depth {
            let (head, tail) = acts.split_at_mut(l + 1);
            let z = &mut tail[0];
            z.resize(self.spec.layers[l + 1] * b, 0.0);
            layer::forward_lanes(
                &self.spec.layer_spec(l),
                &self.weights[l],
                &self.biases[l],
                &head[l],
                b,
                z,
                rows,
            );
        }
    }

    /// Computes the loss of one sample.
    pub fn sample_loss(&self, sample: &Sample) -> f64 {
        let out = self.forward(&sample.input);
        loss_value(self.spec.loss, &out, &sample.target)
    }

    /// Mean loss over a dataset.
    ///
    /// Runs the forward passes through [`Mlp::forward_batch`] in chunks,
    /// summing the per-sample losses in dataset order — the same values
    /// in the same order as a per-sample loop, so the result is
    /// bit-identical while each weight traversal amortizes across the
    /// chunk.
    pub fn mean_loss(&self, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut sum = 0.0;
        for chunk in samples.chunks(64) {
            let inputs: Vec<&[f64]> = chunk.iter().map(|s| s.input.as_slice()).collect();
            let outs = self.forward_batch(&inputs);
            for (out, s) in outs.iter().zip(chunk) {
                sum += loss_value(self.spec.loss, out, &s.target);
            }
        }
        sum / samples.len() as f64
    }

    /// Forward pass into caller-owned activation buffers (the scratch form
    /// of [`Mlp::forward_trace`]; same operations in the same order).
    fn forward_trace_scratch(&self, input: &[f64], acts: &mut Vec<Vec<f64>>) {
        assert_eq!(input.len(), self.spec.layers[0], "input width mismatch");
        acts.resize(self.spec.depth() + 1, Vec::new());
        acts[0].clear();
        acts[0].extend_from_slice(input);
        for l in 0..self.spec.depth() {
            let (head, tail) = acts.split_at_mut(l + 1);
            let z = &mut tail[0];
            z.resize(self.spec.layers[l + 1], 0.0);
            layer::forward_into(
                &self.spec.layer_spec(l),
                &self.weights[l],
                &self.biases[l],
                &head[l],
                z,
            );
        }
    }

    /// Backward pass for one sample: gradients of the loss with respect to
    /// **this network's** weights. The memory-adaptive loop calls this on
    /// the masked/quantized copy so that "the network error propagated in
    /// the backward pass reflects the impact of the bit-errors" (§III-B).
    pub fn sample_gradients(&self, sample: &Sample) -> Gradients {
        let mut grads = Gradients::zeros_like(self);
        let mut scratch = TrainScratch::default();
        self.accumulate_sample_gradients(sample, &mut grads, &mut scratch);
        grads
    }

    /// Adds one sample's gradients into `grads` without allocating:
    /// activations and deltas live in `scratch`, and the per-layer
    /// contributions are accumulated straight into the batch totals. The
    /// arithmetic (values and addition order) is exactly that of
    /// [`Mlp::sample_gradients`] followed by [`Gradients::accumulate`].
    pub fn accumulate_sample_gradients(
        &self,
        sample: &Sample,
        grads: &mut Gradients,
        scratch: &mut TrainScratch,
    ) {
        self.forward_trace_scratch(&sample.input, &mut scratch.acts);
        let depth = self.spec.depth();

        // Output delta: dJ/dz for the output layer.
        let out = &scratch.acts[depth];
        scratch.delta.clear();
        match self.spec.loss {
            Loss::Mse => scratch
                .delta
                .extend(out.iter().zip(&sample.target).map(|(y, t)| {
                    let dact = self.spec.output.derivative_from_output(*y);
                    (y - t) * dact
                })),
            // Sigmoid + cross-entropy cancels the activation derivative.
            Loss::CrossEntropy => scratch
                .delta
                .extend(out.iter().zip(&sample.target).map(|(y, t)| y - t)),
        }

        for l in (0..depth).rev() {
            let lspec = self.spec.layer_spec(l);
            if l > 0 {
                scratch.prev.resize(self.spec.layers[l], 0.0);
                layer::accumulate_gradients(
                    &lspec,
                    &self.weights[l],
                    &scratch.acts[l],
                    &scratch.delta,
                    &mut grads.weights[l],
                    &mut grads.biases[l],
                    Some(&mut scratch.prev),
                );
                // Seam between layers: multiply the propagated delta by
                // the previous layer's activation derivative (exactly 1
                // for pooling stages, which report Linear).
                for (p, a) in scratch.prev.iter_mut().zip(&scratch.acts[l]) {
                    *p *= self.spec.activation(l - 1).derivative_from_output(*a);
                }
                std::mem::swap(&mut scratch.delta, &mut scratch.prev);
            } else {
                layer::accumulate_gradients(
                    &lspec,
                    &self.weights[l],
                    &scratch.acts[l],
                    &scratch.delta,
                    &mut grads.weights[l],
                    &mut grads.biases[l],
                    None,
                );
            }
        }
    }

    /// Mean gradients over a mini-batch.
    pub fn gradients(&self, batch: &[Sample]) -> Gradients {
        let mut total = Gradients::zeros_like(self);
        let mut scratch = TrainScratch::default();
        for s in batch {
            self.accumulate_sample_gradients(s, &mut total, &mut scratch);
        }
        total.scale(1.0 / batch.len().max(1) as f64);
        total
    }

    /// Mean gradients of the samples selected by `indices`, written into
    /// the reusable `total`/`scratch` buffers: the batched, allocation-free
    /// form of [`Mlp::gradients`] that training loops drive with their
    /// shuffled index order.
    ///
    /// The whole mini-batch moves through the chain together in
    /// column-major sample lanes ([`layer::forward_lanes`],
    /// [`layer::accumulate_gradients_lanes`]). Each lane replays its
    /// sample's reference operations, and every gradient element sums its
    /// contributions samples ascending, so the result is bit-identical to
    /// summing [`Mlp::sample_gradients`] over the batch.
    pub fn gradients_indexed(
        &self,
        data: &[Sample],
        indices: &[usize],
        total: &mut Gradients,
        scratch: &mut BatchScratch,
    ) {
        total.reset();
        let b = indices.len();
        if b == 0 {
            return;
        }
        let depth = self.spec.depth();
        self.forward_lanes(
            indices.iter().map(|&i| data[i].input.as_slice()),
            b,
            &mut scratch.acts,
            &mut scratch.rows,
        );

        // Output delta lanes: dJ/dz for the output layer.
        let fan_out = *self.spec.layers.last().unwrap();
        let out = &scratch.acts[depth];
        scratch.delta.resize(fan_out * b, 0.0);
        for (s, &i) in indices.iter().enumerate() {
            let target = &data[i].target;
            assert_eq!(target.len(), fan_out, "target width mismatch");
            for (r, &t) in target.iter().enumerate() {
                let y = out[r * b + s];
                scratch.delta[r * b + s] = match self.spec.loss {
                    Loss::Mse => (y - t) * self.spec.output.derivative_from_output(y),
                    // Sigmoid + cross-entropy cancels the activation derivative.
                    Loss::CrossEntropy => y - t,
                };
            }
        }

        for l in (0..depth).rev() {
            let delta_in = if l > 0 {
                scratch.prev.resize(self.spec.layers[l] * b, 0.0);
                Some(scratch.prev.as_mut_slice())
            } else {
                None
            };
            layer::accumulate_gradients_lanes(
                &self.spec.layer_spec(l),
                &self.weights[l],
                &scratch.acts[l],
                &scratch.delta,
                b,
                &mut total.weights[l],
                &mut total.biases[l],
                delta_in,
                &mut scratch.rows,
            );
            if l > 0 {
                // The seam between layers, lane by lane (see
                // `accumulate_sample_gradients`).
                let act = self.spec.activation(l - 1);
                for (p, a) in scratch.prev.iter_mut().zip(&scratch.acts[l]) {
                    *p *= act.derivative_from_output(*a);
                }
                std::mem::swap(&mut scratch.delta, &mut scratch.prev);
            }
        }
        total.scale(1.0 / b as f64);
    }

    /// Applies one SGD step: `θ ← θ − lr · v` where `v` is the momentum
    /// velocity updated with `grads`.
    ///
    /// The velocity update and the weight update run fused in one pass
    /// (per element `v ← µ·v + g` then `θ ← θ − lr·v`, the exact
    /// per-element operations [`MomentumState::update`] followed by a
    /// scaled add would perform — one memory sweep instead of three).
    pub fn apply_update(
        &mut self,
        grads: &Gradients,
        lr: f64,
        momentum: f64,
        state: &mut MomentumState,
    ) {
        for ((w, v), g) in self
            .weights
            .iter_mut()
            .zip(&mut state.weights)
            .zip(&grads.weights)
        {
            for ((wv, vv), gv) in w
                .as_mut_slice()
                .iter_mut()
                .zip(v.as_mut_slice())
                .zip(g.as_slice())
            {
                let vel = momentum * *vv + gv;
                *vv = vel;
                *wv += -lr * vel;
            }
        }
        for ((b, v), g) in self
            .biases
            .iter_mut()
            .zip(&mut state.biases)
            .zip(&grads.biases)
        {
            for ((bv, vv), gv) in b.iter_mut().zip(v.iter_mut()).zip(g) {
                let vel = momentum * *vv + gv;
                *vv = vel;
                *bv += -lr * vel;
            }
        }
    }

    /// Vanilla training loop (the paper's *baseline/naive* models): SGD
    /// with momentum over float weights. Returns the final mean training
    /// loss.
    pub fn train(&mut self, data: &[Sample], cfg: &SgdConfig, shuffle_seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut momentum = MomentumState::zeros_like(self);
        let mut grads = Gradients::zeros_like(self);
        let mut scratch = BatchScratch::default();
        let mut lr = cfg.lr;
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                self.gradients_indexed(data, chunk, &mut grads, &mut scratch);
                self.apply_update(&grads, lr, cfg.momentum, &mut momentum);
            }
            lr *= cfg.lr_decay;
        }
        self.mean_loss(data)
    }
}

/// Loss of one prediction. The constants are chosen so the backprop deltas
/// are exactly `(y−t)·f'` (MSE) and `y−t` (sigmoid cross-entropy):
/// MSE = ½·Σ(y−t)², CE = −Σ[t·ln y + (1−t)·ln(1−y)].
pub(crate) fn loss_value(loss: Loss, out: &[f64], target: &[f64]) -> f64 {
    match loss {
        Loss::Mse => {
            0.5 * out
                .iter()
                .zip(target)
                .map(|(y, t)| (y - t) * (y - t))
                .sum::<f64>()
        }
        Loss::CrossEntropy => {
            let eps = 1e-12;
            -out.iter()
                .zip(target)
                .map(|(y, t)| {
                    let y = y.clamp(eps, 1.0 - eps);
                    t * y.ln() + (1.0 - t) * (1.0 - y).ln()
                })
                .sum::<f64>()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;

    fn xor_data() -> Vec<Sample> {
        [(0., 0., 0.), (0., 1., 1.), (1., 0., 1.), (1., 1., 0.)]
            .iter()
            .map(|&(a, b, y)| Sample::new(vec![a, b], vec![y]))
            .collect()
    }

    #[test]
    fn init_is_deterministic() {
        let spec = NetSpec::classifier(&[4, 3, 2]);
        let a = Mlp::init(spec.clone(), 9);
        let b = Mlp::init(spec, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn forward_shapes() {
        let net = Mlp::init(NetSpec::classifier(&[5, 7, 3]), 1);
        let out = net.forward(&[0.1; 5]);
        assert_eq!(out.len(), 3);
        let trace = net.forward_trace(&[0.1; 5]);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[1].len(), 7);
    }

    #[test]
    fn sigmoid_outputs_bounded() {
        let net = Mlp::init(NetSpec::classifier(&[3, 4, 2]), 5);
        for v in net.forward(&[10.0, -10.0, 3.0]) {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn learns_xor() {
        let spec = NetSpec::new(&[2, 4, 1], Activation::Sigmoid, Activation::Sigmoid);
        let mut net = Mlp::init(spec, 1);
        let cfg = SgdConfig {
            lr: 0.7,
            epochs: 2000,
            batch_size: 4,
            momentum: 0.9,
            lr_decay: 1.0,
        };
        net.train(&xor_data(), &cfg, 7);
        for s in xor_data() {
            let y = net.forward(&s.input)[0];
            assert_eq!(y.round(), s.target[0], "xor({:?}) = {y}", s.input);
        }
    }

    #[test]
    fn training_reduces_loss() {
        let spec = NetSpec::regressor(&[1, 8, 1]);
        let mut net = Mlp::init(spec, 3);
        // y = x² on [-1, 1]
        let data: Vec<Sample> = (0..40)
            .map(|i| {
                let x = -1.0 + i as f64 / 20.0;
                Sample::new(vec![x], vec![x * x])
            })
            .collect();
        let before = net.mean_loss(&data);
        net.train(
            &data,
            &SgdConfig {
                epochs: 300,
                lr: 0.1,
                ..SgdConfig::default()
            },
            1,
        );
        let after = net.mean_loss(&data);
        assert!(after < before / 4.0, "{before} -> {after}");
    }

    /// Dense nets and conv/pool chains (conv after conv, conv after
    /// pool, pool into dense) under both losses.
    fn parity_specs() -> Vec<NetSpec> {
        let mut specs = vec![
            NetSpec::classifier(&[5, 7, 3]),
            NetSpec::regressor(&[4, 6, 2]),
        ];
        for topo in [
            "6x6x1;conv3x2;pool2;dense3",
            "7x7x2;conv2x3;pool2;conv2x2;dense2",
            "9x9x1;conv3x2;conv2x3;pool2;dense4",
        ] {
            let spec = NetSpec::parse_topology(topo).unwrap();
            specs.push(spec.clone().with_loss(Loss::Mse));
            specs.push(spec.with_loss(Loss::CrossEntropy));
        }
        specs
    }

    #[test]
    fn batched_gradients_are_bit_identical_to_per_sample() {
        // The batched path may vectorize across samples but must keep
        // every sample's accumulation order — exact f64 equality, not
        // approximate closeness, across losses, layer kinds and batch
        // sizes.
        for spec in parity_specs() {
            let net = Mlp::init(spec.clone(), 11);
            let data: Vec<Sample> = (0..13)
                .map(|i| {
                    let x: Vec<f64> = (0..spec.layers[0])
                        .map(|c| ((i * 7 + c * 3) % 17) as f64 / 17.0 - 0.4)
                        .collect();
                    let t: Vec<f64> = (0..*spec.layers.last().unwrap())
                        .map(|c| ((i + c) % 5) as f64 / 5.0)
                        .collect();
                    Sample::new(x, t)
                })
                .collect();
            let mut scratch = BatchScratch::default();
            for batch in [1usize, 3, 4, 8, 13] {
                let indices: Vec<usize> = (0..batch).collect();
                let reference = net.gradients(&data[..batch]);
                let mut total = Gradients::zeros_like(&net);
                net.gradients_indexed(&data, &indices, &mut total, &mut scratch);
                assert_eq!(total, reference, "spec {spec:?} batch {batch}");
                // Reusing the same scratch must not perturb a second run.
                net.gradients_indexed(&data, &indices, &mut total, &mut scratch);
                assert_eq!(total, reference);
            }
        }
    }

    #[test]
    fn forward_batch_is_bit_identical_to_forward() {
        for spec in parity_specs() {
            let net = Mlp::init(spec.clone(), 19);
            let inputs: Vec<Vec<f64>> = (0..13)
                .map(|i| {
                    (0..spec.layers[0])
                        .map(|c| ((i * 13 + c * 5) % 23) as f64 / 23.0 - 0.5)
                        .collect()
                })
                .collect();
            for b in [1usize, 3, 4, 8, 13] {
                let refs: Vec<&[f64]> = inputs[..b].iter().map(|v| v.as_slice()).collect();
                let batched = net.forward_batch(&refs);
                for (input, out) in refs.iter().zip(&batched) {
                    assert_eq!(out, &net.forward(input), "spec {spec:?} batch {b}");
                }
            }
            assert!(net.forward_batch(&[]).is_empty());
        }
    }

    #[test]
    fn map_weights_applies_everywhere() {
        let net = Mlp::init(NetSpec::classifier(&[2, 2, 1]), 4);
        let doubled = net.map_weights(|w| 2.0 * w);
        for (a, b) in net.weights.iter().zip(&doubled.weights) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(*y, 2.0 * *x);
            }
        }
    }

    #[test]
    fn cross_entropy_gradient_is_output_minus_target() {
        let mut spec = NetSpec::classifier(&[2, 2]);
        spec.loss = Loss::CrossEntropy;
        let net = Mlp::init(spec, 2);
        let s = Sample::new(vec![0.5, -0.5], vec![1.0, 0.0]);
        let out = net.forward(&s.input);
        let g = net.sample_gradients(&s);
        // Bias gradient of the output layer equals delta = y - t.
        assert!((g.biases[0][0] - (out[0] - 1.0)).abs() < 1e-12);
        assert!((g.biases[0][1] - out[1]).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn forward_rejects_wrong_width() {
        let net = Mlp::init(NetSpec::classifier(&[3, 2]), 0);
        let _ = net.forward(&[1.0]);
    }

    #[test]
    fn from_params_validates_shapes() {
        let spec = NetSpec::classifier(&[2, 3]);
        let w = vec![Matrix::zeros(3, 2)];
        let b = vec![vec![0.0; 3]];
        let _ = Mlp::from_params(spec, w, b);
    }

    #[test]
    #[should_panic(expected = "fan-out")]
    fn from_params_rejects_bad_shape() {
        let spec = NetSpec::classifier(&[2, 3]);
        let w = vec![Matrix::zeros(2, 2)];
        let b = vec![vec![0.0; 3]];
        let _ = Mlp::from_params(spec, w, b);
    }
}
