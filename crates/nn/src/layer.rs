//! Layer modules: the float-side compute behind each [`LayerSpec`] kind.
//!
//! Two entry surfaces share one implementation:
//!
//! * **Free functions** ([`forward_into`], [`accumulate_gradients`])
//!   dispatch on a `LayerSpec` value — a static match, no allocation —
//!   and are the per-sample reference.
//! * The [`Layer`] **trait** with [`Dense`] / [`Conv2d`] / [`MaxPool`]
//!   modules wraps the same functions behind an object-safe interface,
//!   composed by [`build_chain`] for consumers that want a
//!   `Vec<Box<dyn Layer>>` view of a network (gradcheck drivers,
//!   external tooling, future layer kinds).
//!
//! Their lane-batched forms ([`forward_lanes`],
//! [`accumulate_gradients_lanes`]) carry a whole mini-batch in
//! column-major sample lanes and are what `Mlp`'s batched chain walk
//! calls per layer; they are bit-identical to the per-sample reference
//! run sample by sample, samples ascending.
//!
//! Contract shared by every surface:
//!
//! * `forward` computes `act(W·x + b)` for parameterized layers (the
//!   exact op order of the historical dense path — matvec, then bias
//!   add, then activation over the whole slice — so plain MLPs stay
//!   bit-identical through the dispatch), or the pooling reduction.
//! * `backward` takes `delta` already multiplied by this layer's
//!   activation derivative, accumulates `grad_w`/`grad_b`, and writes
//!   `delta_in = Wᵀ·delta` **without** the previous layer's activation
//!   derivative (the chain walker owns that multiply — it is the
//!   seam between layers, not part of either one). `delta_in` is fully
//!   overwritten; callers need not zero it.
//!
//! Max-pooling breaks ties by first occurrence in `(ky, kx)` scan
//! order, which keeps its subgradient — and therefore training —
//! deterministic.

use crate::activation::Activation;
use crate::matrix::Matrix;
use crate::spec::{LayerSpec, NetSpec};

/// Forward pass for one layer: reads `x` (`spec.in_width()` wide),
/// writes `out` (`spec.out_width()` wide).
pub fn forward_into(spec: &LayerSpec, weights: &Matrix, bias: &[f64], x: &[f64], out: &mut [f64]) {
    match *spec {
        LayerSpec::Dense { act, .. } => {
            weights.matvec_into(x, out);
            for (o, b) in out.iter_mut().zip(bias) {
                *o += *b;
            }
            act.apply_slice(out);
        }
        LayerSpec::Conv2d {
            in_h,
            in_w,
            in_c,
            filters,
            kernel,
            act,
        } => {
            let (out_h, out_w) = (in_h + 1 - kernel, in_w + 1 - kernel);
            for oy in 0..out_h {
                for ox in 0..out_w {
                    for f in 0..filters {
                        let taps = weights.row(f);
                        let mut acc = 0.0;
                        // Tap order (ky, kx, c) matches the weight-column
                        // convention col = (ky·kernel + kx)·in_c + c.
                        for ky in 0..kernel {
                            for kx in 0..kernel {
                                for c in 0..in_c {
                                    let col = (ky * kernel + kx) * in_c + c;
                                    let xi = ((oy + ky) * in_w + (ox + kx)) * in_c + c;
                                    acc += taps[col] * x[xi];
                                }
                            }
                        }
                        out[(oy * out_w + ox) * filters + f] = acc + bias[f];
                    }
                }
            }
            act.apply_slice(out);
        }
        LayerSpec::MaxPool {
            in_h,
            in_w,
            channels,
            window,
        } => {
            let (out_h, out_w) = (in_h / window, in_w / window);
            for oy in 0..out_h {
                for ox in 0..out_w {
                    for c in 0..channels {
                        let mut best = f64::NEG_INFINITY;
                        for ky in 0..window {
                            for kx in 0..window {
                                let xi =
                                    ((oy * window + ky) * in_w + (ox * window + kx)) * channels + c;
                                if x[xi] > best {
                                    best = x[xi];
                                }
                            }
                        }
                        out[(oy * out_w + ox) * channels + c] = best;
                    }
                }
            }
        }
    }
}

/// Backward pass for one layer: `delta` (output-side, activation
/// derivative already applied) accumulates into `grad_w`/`grad_b` and,
/// when requested, `delta_in` is overwritten with `Wᵀ·delta` (or the
/// pooling scatter). `x` is the layer's forward input. Pass
/// `delta_in: None` for the first layer — the input needs no delta and
/// the transposed matvec is skipped entirely, as the historical dense
/// backward did.
pub fn accumulate_gradients(
    spec: &LayerSpec,
    weights: &Matrix,
    x: &[f64],
    delta: &[f64],
    grad_w: &mut Matrix,
    grad_b: &mut [f64],
    mut delta_in: Option<&mut [f64]>,
) {
    match *spec {
        LayerSpec::Dense { .. } => {
            grad_w.add_outer(delta, x, 1.0);
            for (g, d) in grad_b.iter_mut().zip(delta) {
                *g += *d;
            }
            if let Some(di) = delta_in {
                weights.t_matvec_into(delta, di);
            }
        }
        LayerSpec::Conv2d {
            in_h,
            in_w,
            in_c,
            filters,
            kernel,
            ..
        } => {
            let (out_h, out_w) = (in_h + 1 - kernel, in_w + 1 - kernel);
            if let Some(di) = &mut delta_in {
                di.fill(0.0);
            }
            for oy in 0..out_h {
                for ox in 0..out_w {
                    for f in 0..filters {
                        let d = delta[(oy * out_w + ox) * filters + f];
                        grad_b[f] += d;
                        let taps = weights.row(f);
                        let grads = grad_w.as_mut_slice();
                        for ky in 0..kernel {
                            for kx in 0..kernel {
                                for c in 0..in_c {
                                    let col = (ky * kernel + kx) * in_c + c;
                                    let xi = ((oy + ky) * in_w + (ox + kx)) * in_c + c;
                                    grads[f * kernel * kernel * in_c + col] += d * x[xi];
                                    if let Some(di) = &mut delta_in {
                                        di[xi] += d * taps[col];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        LayerSpec::MaxPool {
            in_h,
            in_w,
            channels,
            window,
        } => {
            let (out_h, out_w) = (in_h / window, in_w / window);
            let Some(delta_in) = delta_in else {
                return; // no parameters, nothing else to accumulate
            };
            delta_in.fill(0.0);
            for oy in 0..out_h {
                for ox in 0..out_w {
                    for c in 0..channels {
                        // Recompute the argmax from the forward input;
                        // strict `>` keeps the first maximum, matching
                        // the forward reduction.
                        let mut best = f64::NEG_INFINITY;
                        let mut arg = 0;
                        for ky in 0..window {
                            for kx in 0..window {
                                let xi =
                                    ((oy * window + ky) * in_w + (ox * window + kx)) * channels + c;
                                if x[xi] > best {
                                    best = x[xi];
                                    arg = xi;
                                }
                            }
                        }
                        delta_in[arg] += delta[(oy * out_w + ox) * channels + c];
                    }
                }
            }
        }
    }
}

/// Lane-batched [`forward_into`]: `x` and `out` hold `b` samples
/// column-major (`[unit * b + s]`); `rows` is reusable scratch. Every
/// lane runs the per-sample reference operations in the reference order,
/// so each lane's bits equal a [`forward_into`] call on that sample alone.
pub fn forward_lanes(
    spec: &LayerSpec,
    weights: &Matrix,
    bias: &[f64],
    x: &[f64],
    b: usize,
    out: &mut [f64],
    rows: &mut Vec<f64>,
) {
    match *spec {
        LayerSpec::Dense { act, .. } => dense_forward_lanes(weights, bias, act, x, b, out),
        LayerSpec::Conv2d {
            in_h,
            in_w,
            in_c,
            filters,
            kernel,
            act,
        } => {
            // Each output position is a dense layer over its receptive
            // field: gather the patch lanes in weight-column order (one
            // kernel row's `(kx, c)` taps are a contiguous input run),
            // then run the dense kernel — columns ascending, bias, act,
            // exactly the reference tap loop.
            let (out_h, out_w) = (in_h + 1 - kernel, in_w + 1 - kernel);
            let span = kernel * in_c;
            rows.resize(kernel * span * b, 0.0);
            for oy in 0..out_h {
                for ox in 0..out_w {
                    for (ky, run) in rows.chunks_exact_mut(span * b).enumerate() {
                        let xi = ((oy + ky) * in_w + ox) * in_c;
                        run.copy_from_slice(&x[xi * b..(xi + span) * b]);
                    }
                    let u = (oy * out_w + ox) * filters;
                    let z = &mut out[u * b..(u + filters) * b];
                    dense_forward_lanes(weights, bias, act, rows, b, z);
                }
            }
        }
        LayerSpec::MaxPool {
            in_h,
            in_w,
            channels,
            window,
        } => {
            let (out_h, out_w) = (in_h / window, in_w / window);
            for oy in 0..out_h {
                for ox in 0..out_w {
                    for c in 0..channels {
                        let u = (oy * out_w + ox) * channels + c;
                        let best = &mut out[u * b..(u + 1) * b];
                        best.fill(f64::NEG_INFINITY);
                        for ky in 0..window {
                            for kx in 0..window {
                                let xi =
                                    ((oy * window + ky) * in_w + (ox * window + kx)) * channels + c;
                                for (m, &xv) in best.iter_mut().zip(&x[xi * b..(xi + 1) * b]) {
                                    if xv > *m {
                                        *m = xv;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Lane-batched [`accumulate_gradients`] over `b` column-major samples
/// (`x`, `delta` and `delta_in` as `[unit * b + s]`); `rows` is reusable
/// scratch.
///
/// Bit-identical to calling [`accumulate_gradients`] once per sample,
/// samples ascending: `delta_in` is per-sample, so each lane replays the
/// reference operations; every `grad_w`/`grad_b` element sums its
/// contributions in ascending sample order and, within one sample, in the
/// reference position order.
#[allow(clippy::too_many_arguments)]
pub fn accumulate_gradients_lanes(
    spec: &LayerSpec,
    weights: &Matrix,
    x: &[f64],
    delta: &[f64],
    b: usize,
    grad_w: &mut Matrix,
    grad_b: &mut [f64],
    delta_in: Option<&mut [f64]>,
    rows: &mut Vec<f64>,
) {
    match *spec {
        LayerSpec::Dense { inputs, .. } => {
            // Sample rows (`[s * inputs + c]`) make each sample's slice of
            // the outer product one contiguous update of a gradient row.
            rows.resize(inputs * b, 0.0);
            for (c, lanes) in x.chunks_exact(b).enumerate() {
                for (s, &xv) in lanes.iter().enumerate() {
                    rows[s * inputs + c] = xv;
                }
            }
            for (r, dl) in delta.chunks_exact(b).enumerate() {
                let grow = &mut grad_w.as_mut_slice()[r * inputs..(r + 1) * inputs];
                for (s, &d) in dl.iter().enumerate() {
                    let xrow = &rows[s * inputs..(s + 1) * inputs];
                    grad_b[r] += d;
                    for (g, xv) in grow.iter_mut().zip(xrow) {
                        *g += d * xv;
                    }
                }
            }
            if let Some(di) = delta_in {
                // Wᵀ·delta per lane, rows ascending (`t_matvec_into`'s order).
                di.fill(0.0);
                for (r, dl) in delta.chunks_exact(b).enumerate() {
                    for (dil, &w) in di.chunks_exact_mut(b).zip(weights.row(r)) {
                        for (v, d) in dil.iter_mut().zip(dl) {
                            *v += w * d;
                        }
                    }
                }
            }
        }
        LayerSpec::Conv2d {
            in_h,
            in_w,
            in_c,
            filters,
            kernel,
            ..
        } => {
            let (out_h, out_w) = (in_h + 1 - kernel, in_w + 1 - kernel);
            // One kernel row's `(kx, c)` taps are contiguous in both the
            // weight row and the input: `span` values from `base`.
            let span = kernel * in_c;
            let base = |oy: usize, ox: usize, ky: usize| ((oy + ky) * in_w + ox) * in_c;
            // Sample-major so each tap's gradient sees samples ascending,
            // then positions `(oy, ox)` ascending; `rows` holds the current
            // receptive-field patch in weight-column order.
            rows.resize(kernel * span, 0.0);
            for s in 0..b {
                for oy in 0..out_h {
                    for ox in 0..out_w {
                        for (ky, run) in rows.chunks_exact_mut(span).enumerate() {
                            let xi = base(oy, ox, ky);
                            for (j, p) in run.iter_mut().enumerate() {
                                *p = x[(xi + j) * b + s];
                            }
                        }
                        let u = (oy * out_w + ox) * filters;
                        for (f, grow) in grad_w
                            .as_mut_slice()
                            .chunks_exact_mut(kernel * span)
                            .enumerate()
                        {
                            let d = delta[(u + f) * b + s];
                            grad_b[f] += d;
                            for (g, p) in grow.iter_mut().zip(&*rows) {
                                *g += d * p;
                            }
                        }
                    }
                }
            }
            if let Some(di) = delta_in {
                di.fill(0.0);
                for oy in 0..out_h {
                    for ox in 0..out_w {
                        for f in 0..filters {
                            let u = (oy * out_w + ox) * filters + f;
                            let dl = &delta[u * b..(u + 1) * b];
                            for (ky, run) in weights.row(f).chunks_exact(span).enumerate() {
                                let xi = base(oy, ox, ky);
                                let dis = &mut di[xi * b..(xi + span) * b];
                                for (&w, dil) in run.iter().zip(dis.chunks_exact_mut(b)) {
                                    for (v, d) in dil.iter_mut().zip(dl) {
                                        *v += d * w;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        LayerSpec::MaxPool {
            in_h,
            in_w,
            channels,
            window,
        } => {
            let (out_h, out_w) = (in_h / window, in_w / window);
            let Some(di) = delta_in else {
                return; // no parameters, nothing else to accumulate
            };
            di.fill(0.0);
            for oy in 0..out_h {
                for ox in 0..out_w {
                    for c in 0..channels {
                        let u = (oy * out_w + ox) * channels + c;
                        for s in 0..b {
                            // Per-lane argmax; strict `>` keeps the first
                            // maximum, as in the forward reduction.
                            let mut best = f64::NEG_INFINITY;
                            let mut arg = 0;
                            for ky in 0..window {
                                for kx in 0..window {
                                    let xi = ((oy * window + ky) * in_w + (ox * window + kx))
                                        * channels
                                        + c;
                                    if x[xi * b + s] > best {
                                        best = x[xi * b + s];
                                        arg = xi;
                                    }
                                }
                            }
                            di[arg * b + s] += delta[u * b + s];
                        }
                    }
                }
            }
        }
    }
}

/// `z[r] = f(Σ_c w[r][c] · x[c] + bias[r])` per lane over `b`
/// column-major lanes, columns ascending — the exact accumulation order
/// of [`Matrix::matvec_into`].
fn dense_forward_lanes(
    weights: &Matrix,
    bias: &[f64],
    act: Activation,
    x: &[f64],
    b: usize,
    z: &mut [f64],
) {
    match b {
        // Full-size mini-batches get register-resident lane accumulators;
        // other widths take the generic product.
        8 => dense_lanes::<8>(weights, bias, act, x, z),
        4 => dense_lanes::<4>(weights, bias, act, x, z),
        _ => {
            weights.matvec_lanes_into(x, b, z);
            for (zrow, &bv) in z.chunks_exact_mut(b).zip(bias) {
                for zv in zrow {
                    *zv = act.apply(*zv + bv);
                }
            }
        }
    }
}

/// [`dense_forward_lanes`] with `B` lanes held in registers.
fn dense_lanes<const B: usize>(
    weights: &Matrix,
    biases: &[f64],
    act: Activation,
    x: &[f64],
    z: &mut [f64],
) {
    for (r, zrow) in z.chunks_exact_mut(B).enumerate() {
        let mut acc = [0.0f64; B];
        for (xc, &w) in x.chunks_exact(B).zip(weights.row(r)) {
            for (a, xv) in acc.iter_mut().zip(xc) {
                *a += w * xv;
            }
        }
        let bias = biases[r];
        for (zv, a) in zrow.iter_mut().zip(acc) {
            *zv = act.apply(a + bias);
        }
    }
}

/// An object-safe network stage over shared parameter storage.
///
/// Parameters live outside the layer (in `Mlp`'s weight/bias vectors,
/// in the NPU's composed tensors) so one topology description drives
/// the float trainer, the quantizer and the silicon model alike; the
/// layer owns geometry and compute only.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// The resolved geometry of this stage.
    fn spec(&self) -> LayerSpec;

    /// Flattened input width.
    fn in_width(&self) -> usize {
        self.spec().in_width()
    }

    /// Flattened output width.
    fn out_width(&self) -> usize {
        self.spec().out_width()
    }

    /// Weight extent `(rows, cols)`; `(0, 0)` for parameterless stages.
    fn weight_extent(&self) -> (usize, usize) {
        self.spec().weight_extent()
    }

    /// Forward pass; see [`forward_into`].
    fn forward(&self, weights: &Matrix, bias: &[f64], x: &[f64], out: &mut [f64]) {
        forward_into(&self.spec(), weights, bias, x, out);
    }

    /// Backward pass; see [`accumulate_gradients`].
    fn backward(
        &self,
        weights: &Matrix,
        x: &[f64],
        delta: &[f64],
        grad_w: &mut Matrix,
        grad_b: &mut [f64],
        delta_in: Option<&mut [f64]>,
    ) {
        accumulate_gradients(&self.spec(), weights, x, delta, grad_w, grad_b, delta_in);
    }
}

/// Fully-connected layer module.
#[derive(Debug, Clone, Copy)]
pub struct Dense {
    /// Fan-in.
    pub inputs: usize,
    /// Fan-out.
    pub units: usize,
    /// Activation.
    pub act: Activation,
}

impl Layer for Dense {
    fn spec(&self) -> LayerSpec {
        LayerSpec::Dense {
            inputs: self.inputs,
            units: self.units,
            act: self.act,
        }
    }
}

/// Valid-padding stride-1 2-D convolution module.
#[derive(Debug, Clone, Copy)]
pub struct Conv2d {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Input channels.
    pub in_c: usize,
    /// Filters (output channels).
    pub filters: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Activation.
    pub act: Activation,
}

impl Layer for Conv2d {
    fn spec(&self) -> LayerSpec {
        LayerSpec::Conv2d {
            in_h: self.in_h,
            in_w: self.in_w,
            in_c: self.in_c,
            filters: self.filters,
            kernel: self.kernel,
            act: self.act,
        }
    }
}

/// Non-overlapping max-pooling module.
#[derive(Debug, Clone, Copy)]
pub struct MaxPool {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Channels.
    pub channels: usize,
    /// Square window side.
    pub window: usize,
}

impl Layer for MaxPool {
    fn spec(&self) -> LayerSpec {
        LayerSpec::MaxPool {
            in_h: self.in_h,
            in_w: self.in_w,
            channels: self.channels,
            window: self.window,
        }
    }
}

/// Builds the boxed layer chain a [`NetSpec`] describes (plain MLPs
/// yield all-[`Dense`] chains).
pub fn build_chain(spec: &NetSpec) -> Vec<Box<dyn Layer>> {
    (0..spec.depth())
        .map(|l| -> Box<dyn Layer> {
            match spec.layer_spec(l) {
                LayerSpec::Dense { inputs, units, act } => Box::new(Dense { inputs, units, act }),
                LayerSpec::Conv2d {
                    in_h,
                    in_w,
                    in_c,
                    filters,
                    kernel,
                    act,
                } => Box::new(Conv2d {
                    in_h,
                    in_w,
                    in_c,
                    filters,
                    kernel,
                    act,
                }),
                LayerSpec::MaxPool {
                    in_h,
                    in_w,
                    channels,
                    window,
                } => Box::new(MaxPool {
                    in_h,
                    in_w,
                    channels,
                    window,
                }),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64) * 0.25 - 1.0).collect()
    }

    #[test]
    fn dense_forward_matches_manual_matvec() {
        let spec = LayerSpec::Dense {
            inputs: 3,
            units: 2,
            act: Activation::Linear,
        };
        let w = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.5, 0.0]);
        let bias = [0.5, -0.5];
        let x = [1.0, -2.0, 0.25];
        let mut out = [0.0; 2];
        forward_into(&spec, &w, &bias, &x, &mut out);
        assert_eq!(out, [1.0 - 4.0 + 0.75 + 0.5, -1.0 - 1.0 + 0.0 - 0.5]);
    }

    #[test]
    fn conv_forward_matches_hand_unrolled_patch() {
        // 3x3x1 input, one 2x2 filter, linear: out[oy][ox] = sum of taps.
        let spec = LayerSpec::Conv2d {
            in_h: 3,
            in_w: 3,
            in_c: 1,
            filters: 1,
            kernel: 2,
            act: Activation::Linear,
        };
        let w = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let x = seq(9);
        let mut out = [0.0; 4];
        forward_into(&spec, &w, &[0.0], &x, &mut out);
        let patch = |oy: usize, ox: usize| {
            1.0 * x[oy * 3 + ox]
                + 2.0 * x[oy * 3 + ox + 1]
                + 3.0 * x[(oy + 1) * 3 + ox]
                + 4.0 * x[(oy + 1) * 3 + ox + 1]
        };
        assert_eq!(out, [patch(0, 0), patch(0, 1), patch(1, 0), patch(1, 1)]);
    }

    #[test]
    fn maxpool_forward_and_backward_route_the_argmax() {
        let spec = LayerSpec::MaxPool {
            in_h: 2,
            in_w: 2,
            channels: 1,
            window: 2,
        };
        let w = Matrix::zeros(0, 0);
        let x = [0.25, 0.75, -1.0, 0.75]; // tie between idx 1 and 3
        let mut out = [0.0];
        forward_into(&spec, &w, &[], &x, &mut out);
        assert_eq!(out, [0.75]);

        let mut gw = Matrix::zeros(0, 0);
        let mut gb = [];
        let mut delta_in = [9.0; 4];
        accumulate_gradients(&spec, &w, &x, &[2.0], &mut gw, &mut gb, Some(&mut delta_in));
        // First maximum (index 1) wins the tie; everything else zeroed.
        assert_eq!(delta_in, [0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn conv_backward_accumulates_taps_and_propagates() {
        let spec = LayerSpec::Conv2d {
            in_h: 2,
            in_w: 2,
            in_c: 1,
            filters: 1,
            kernel: 2,
            act: Activation::Linear,
        };
        let w = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let x = [1.0, -1.0, 2.0, 0.5];
        let mut gw = Matrix::zeros(1, 4);
        let mut gb = [0.0];
        let mut delta_in = [0.0; 4];
        accumulate_gradients(&spec, &w, &x, &[3.0], &mut gw, &mut gb, Some(&mut delta_in));
        assert_eq!(gb, [3.0]);
        assert_eq!(gw.as_slice(), [3.0, -3.0, 6.0, 1.5]);
        assert_eq!(delta_in, [3.0, 6.0, 9.0, 12.0]);
    }

    #[test]
    fn chain_builder_mirrors_the_spec() {
        let spec = NetSpec::parse_topology("4x4x1;conv3x2;dense3").unwrap();
        let chain = build_chain(&spec);
        assert_eq!(chain.len(), 2);
        assert_eq!(chain[0].weight_extent(), (2, 9));
        assert_eq!(chain[0].out_width(), 8);
        assert_eq!(chain[1].weight_extent(), (3, 8));
    }
}
