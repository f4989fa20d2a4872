//! Normalization layers: BatchNorm (1d / 2d) and LayerNorm.
//!
//! Every layer writes `y` and the cached x̂ in one pass, x̂ into a buffer
//! kept across steps and `y` (and `dx`) into a workspace buffer, so a
//! steady-state step allocates nothing. Each statistic is still one
//! sequential sum per channel (per row for LayerNorm) in ascending
//! element order; the loops only interleave *different* channels'
//! chains, which reorders no sum.

use crate::module::{Module, Param, ParamVisitor};
use crate::workspace::Workspace;
use selsync_tensor::Tensor;

const EPS: f32 = 1e-5;
const MOMENTUM: f32 = 0.1;

/// Shared affine-normalization state: scale γ, shift β, and running
/// statistics used at evaluation time.
#[derive(Clone)]
struct NormState {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    // backward caches
    xhat: Tensor,
    inv_std: Vec<f32>,
    // per-channel scratch: the statistics forward normalizes with, then
    // the two gradient sums of backward
    stat_a: Vec<f32>,
    stat_b: Vec<f32>,
}

impl NormState {
    fn new(name: &str, features: usize) -> Self {
        NormState {
            gamma: Param::new_no_decay(format!("{name}.weight"), Tensor::ones([features])),
            beta: Param::new_no_decay(format!("{name}.bias"), Tensor::zeros([features])),
            running_mean: vec![0.0; features],
            running_var: vec![1.0; features],
            xhat: Tensor::zeros([0]),
            inv_std: Vec::new(),
            stat_a: Vec::new(),
            stat_b: Vec::new(),
        }
    }

    /// Zero both per-channel scratch vectors at length `c`.
    fn reset_stats(&mut self, c: usize) {
        for v in [&mut self.stat_a, &mut self.stat_b] {
            v.clear();
            v.resize(c, 0.0);
        }
    }

    /// Shared tail of the batch-norm forward statistics: turn the
    /// per-channel sums of squared deviations in `stat_b` into variances,
    /// fold the batch statistics into the running ones (training) or
    /// replace them by the running ones (evaluation), and fill `inv_std`.
    fn finish_batch_stats(&mut self, count: f32, train: bool) {
        self.inv_std.clear();
        for j in 0..self.stat_a.len() {
            if train {
                self.stat_b[j] /= count;
                let (m, v) = (self.stat_a[j], self.stat_b[j]);
                self.running_mean[j] = (1.0 - MOMENTUM) * self.running_mean[j] + MOMENTUM * m;
                self.running_var[j] = (1.0 - MOMENTUM) * self.running_var[j] + MOMENTUM * v;
            } else {
                self.stat_a[j] = self.running_mean[j];
                self.stat_b[j] = self.running_var[j];
            }
            self.inv_std.push(1.0 / (self.stat_b[j] + EPS).sqrt());
        }
    }

    /// Accumulate the backward sums into the affine gradients.
    fn accumulate_affine_grads(&mut self) {
        for (g, s) in self.gamma.grad.as_mut_slice().iter_mut().zip(&self.stat_b) {
            *g += s;
        }
        for (g, s) in self.beta.grad.as_mut_slice().iter_mut().zip(&self.stat_a) {
            *g += s;
        }
    }
}

/// Batch normalization over `[n, features]` input.
#[derive(Clone)]
pub struct BatchNorm1d {
    st: NormState,
    features: usize,
}

impl BatchNorm1d {
    /// A fresh BatchNorm1d over `features` columns.
    pub fn new(name: &str, features: usize) -> Self {
        BatchNorm1d {
            st: NormState::new(name, features),
            features,
        }
    }
}

impl ParamVisitor for BatchNorm1d {
    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.st.gamma);
        f(&self.st.beta);
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.st.gamma);
        f(&mut self.st.beta);
    }
}

impl Module for BatchNorm1d {
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        assert_eq!(x.shape().dims()[1], self.features, "feature mismatch");
        let n = x.shape().dim(0);
        let c = self.features;
        let st = &mut self.st;
        let src = x.as_slice();
        st.reset_stats(c);
        if train {
            // column j's sums run down the rows in ascending i
            for row in src.chunks_exact(c) {
                for (m, v) in st.stat_a.iter_mut().zip(row) {
                    *m += v;
                }
            }
            for m in &mut st.stat_a {
                *m /= n as f32;
            }
            for row in src.chunks_exact(c) {
                for ((v, m), x) in st.stat_b.iter_mut().zip(&st.stat_a).zip(row) {
                    let d = x - m;
                    *v += d * d;
                }
            }
        }
        st.finish_batch_stats(n as f32, train);
        st.xhat.ensure_shape([n, c]);
        let mut y = ws.take([n, c]);
        let (gamma, beta) = (st.gamma.value.as_slice(), st.beta.value.as_slice());
        for ((row, xh_row), y_row) in src
            .chunks_exact(c)
            .zip(st.xhat.as_mut_slice().chunks_exact_mut(c))
            .zip(y.as_mut_slice().chunks_exact_mut(c))
        {
            for j in 0..c {
                let xh = (row[j] - st.stat_a[j]) * st.inv_std[j];
                xh_row[j] = xh;
                y_row[j] = gamma[j] * xh + beta[j];
            }
        }
        y
    }

    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        let n = dy.shape().dim(0);
        let c = self.features;
        let st = &mut self.st;
        // stat_a = Σ dy, stat_b = Σ dy·x̂, each down the rows in ascending i
        st.reset_stats(c);
        for (d_row, xh_row) in dy
            .as_slice()
            .chunks_exact(c)
            .zip(st.xhat.as_slice().chunks_exact(c))
        {
            for j in 0..c {
                st.stat_a[j] += d_row[j];
                st.stat_b[j] += d_row[j] * xh_row[j];
            }
        }
        st.accumulate_affine_grads();
        let nf = n as f32;
        let gamma = st.gamma.value.as_slice();
        let mut dx = ws.take([n, c]);
        for ((d_row, xh_row), dx_row) in dy
            .as_slice()
            .chunks_exact(c)
            .zip(st.xhat.as_slice().chunks_exact(c))
            .zip(dx.as_mut_slice().chunks_exact_mut(c))
        {
            for j in 0..c {
                dx_row[j] = gamma[j] * st.inv_std[j] / nf
                    * (nf * d_row[j] - st.stat_a[j] - xh_row[j] * st.stat_b[j]);
            }
        }
        dx
    }
}

/// Batch normalization over `[n, c, h, w]` input (per-channel statistics).
#[derive(Clone)]
pub struct BatchNorm2d {
    st: NormState,
    channels: usize,
}

impl BatchNorm2d {
    /// A fresh BatchNorm2d over `channels` feature maps.
    pub fn new(name: &str, channels: usize) -> Self {
        BatchNorm2d {
            st: NormState::new(name, channels),
            channels,
        }
    }
}

impl ParamVisitor for BatchNorm2d {
    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.st.gamma);
        f(&self.st.beta);
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.st.gamma);
        f(&mut self.st.beta);
    }
}

impl Module for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, train: bool, ws: &mut Workspace) -> Tensor {
        let dims = x.shape().dims();
        assert_eq!(dims.len(), 4, "BatchNorm2d expects [n,c,h,w]");
        assert_eq!(dims[1], self.channels, "channel mismatch");
        let (n, c, plane) = (dims[0], dims[1], dims[2] * dims[3]);
        let count = (n * plane) as f32;
        let st = &mut self.st;
        let src = x.as_slice();
        st.reset_stats(c);
        if train {
            // Channel j's sums take its planes in ascending (b, p). With
            // the image loop outside, consecutive chains belong to
            // different channels and overlap in the pipeline.
            for b in 0..n {
                for (j, m) in st.stat_a.iter_mut().enumerate() {
                    let at = (b * c + j) * plane;
                    *m = src[at..at + plane].iter().fold(*m, |s, v| s + v);
                }
            }
            for m in &mut st.stat_a {
                *m /= count;
            }
            for b in 0..n {
                for (j, (v, m)) in st.stat_b.iter_mut().zip(&st.stat_a).enumerate() {
                    let at = (b * c + j) * plane;
                    *v = src[at..at + plane].iter().fold(*v, |s, x| {
                        let d = x - m;
                        s + d * d
                    });
                }
            }
        }
        st.finish_batch_stats(count, train);
        st.xhat.ensure_shape(x.shape().clone());
        let mut y = ws.take(x.shape().clone());
        let (gamma, beta) = (st.gamma.value.as_slice(), st.beta.value.as_slice());
        let (xhat, out) = (st.xhat.as_mut_slice(), y.as_mut_slice());
        for b in 0..n {
            for j in 0..c {
                let at = (b * c + j) * plane;
                let (mean, inv, g, bt) = (st.stat_a[j], st.inv_std[j], gamma[j], beta[j]);
                for ((x, xh), y) in src[at..at + plane]
                    .iter()
                    .zip(&mut xhat[at..at + plane])
                    .zip(&mut out[at..at + plane])
                {
                    let v = (x - mean) * inv;
                    *xh = v;
                    *y = g * v + bt;
                }
            }
        }
        y
    }

    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        let dims = dy.shape().dims();
        let (n, c, plane) = (dims[0], dims[1], dims[2] * dims[3]);
        let count = (n * plane) as f32;
        let st = &mut self.st;
        let dsrc = dy.as_slice();
        // stat_a = Σ dy, stat_b = Σ dy·x̂ per channel, in ascending (b, p)
        st.reset_stats(c);
        for b in 0..n {
            for j in 0..c {
                let at = (b * c + j) * plane;
                let (mut sum_dy, mut sum_dyxh) = (st.stat_a[j], st.stat_b[j]);
                for (d, x) in dsrc[at..at + plane]
                    .iter()
                    .zip(&st.xhat.as_slice()[at..at + plane])
                {
                    sum_dy += d;
                    sum_dyxh += d * x;
                }
                st.stat_a[j] = sum_dy;
                st.stat_b[j] = sum_dyxh;
            }
        }
        st.accumulate_affine_grads();
        let mut dx = ws.take(dy.shape().clone());
        let (xhat, out) = (st.xhat.as_slice(), dx.as_mut_slice());
        for b in 0..n {
            for j in 0..c {
                let at = (b * c + j) * plane;
                let (g, inv) = (st.gamma.value.as_slice()[j], st.inv_std[j]);
                let (sum_dy, sum_dyxh) = (st.stat_a[j], st.stat_b[j]);
                for ((d, x), o) in dsrc[at..at + plane]
                    .iter()
                    .zip(&xhat[at..at + plane])
                    .zip(&mut out[at..at + plane])
                {
                    *o = g * inv / count * (count * d - sum_dy - x * sum_dyxh);
                }
            }
        }
        dx
    }
}

/// Layer normalization over the last dimension of `[n, features]` input.
#[derive(Clone)]
pub struct LayerNorm {
    st: NormState,
    features: usize,
}

impl LayerNorm {
    /// A fresh LayerNorm over rows of `features` elements.
    pub fn new(name: &str, features: usize) -> Self {
        LayerNorm {
            st: NormState::new(name, features),
            features,
        }
    }
}

impl ParamVisitor for LayerNorm {
    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.st.gamma);
        f(&self.st.beta);
    }
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.st.gamma);
        f(&mut self.st.beta);
    }
}

impl Module for LayerNorm {
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        assert_eq!(x.shape().dims()[1], self.features, "feature mismatch");
        let n = x.shape().dim(0);
        let c = self.features;
        let st = &mut self.st;
        st.xhat.ensure_shape([n, c]);
        st.inv_std.clear();
        let mut y = ws.take([n, c]);
        let gamma = st.gamma.value.as_slice();
        let beta = st.beta.value.as_slice();
        for ((row, xh_row), y_row) in x
            .as_slice()
            .chunks_exact(c)
            .zip(st.xhat.as_mut_slice().chunks_exact_mut(c))
            .zip(y.as_mut_slice().chunks_exact_mut(c))
        {
            let mean: f32 = row.iter().sum::<f32>() / c as f32;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / c as f32;
            let inv = 1.0 / (var + EPS).sqrt();
            st.inv_std.push(inv);
            for j in 0..c {
                let xh = (row[j] - mean) * inv;
                xh_row[j] = xh;
                y_row[j] = gamma[j] * xh + beta[j];
            }
        }
        y
    }

    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        let n = dy.shape().dim(0);
        let c = self.features;
        let st = &mut self.st;
        let mut dx = ws.take([n, c]);
        let gamma = st.gamma.value.as_slice();
        let (dgamma, dbeta) = (st.gamma.grad.as_mut_slice(), st.beta.grad.as_mut_slice());
        let cf = c as f32;
        for (((dyr, xhr), dxr), &inv) in dy
            .as_slice()
            .chunks_exact(c)
            .zip(st.xhat.as_slice().chunks_exact(c))
            .zip(dx.as_mut_slice().chunks_exact_mut(c))
            .zip(&st.inv_std)
        {
            // accumulate parameter grads
            for j in 0..c {
                dgamma[j] += dyr[j] * xhr[j];
                dbeta[j] += dyr[j];
            }
            let mut sum_g = 0.0;
            let mut sum_gxh = 0.0;
            for j in 0..c {
                let gj = dyr[j] * gamma[j];
                sum_g += gj;
                sum_gxh += gj * xhr[j];
            }
            for j in 0..c {
                let gj = dyr[j] * gamma[j];
                dxr[j] = inv / cf * (cf * gj - sum_g - xhr[j] * sum_gxh);
            }
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use selsync_tensor::init;

    fn assert_unit_stats(data: &[f32]) {
        let n = data.len() as f32;
        let m: f32 = data.iter().sum::<f32>() / n;
        let v: f32 = data.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / n;
        assert!(m.abs() < 1e-4, "mean {m}");
        assert!((v - 1.0).abs() < 1e-2, "var {v}");
    }

    #[test]
    fn bn1d_normalizes_columns_in_train_mode() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut bn = BatchNorm1d::new("bn", 3);
        let x = init::randn([64, 3], 3.0, &mut rng);
        let y = bn.forward(&x, true, &mut Workspace::new());
        for j in 0..3 {
            let col: Vec<f32> = (0..64).map(|i| y.at(&[i, j])).collect();
            assert_unit_stats(&col);
        }
    }

    #[test]
    fn bn1d_eval_uses_running_stats() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut bn = BatchNorm1d::new("bn", 2);
        // feed many batches so running stats converge to batch stats
        let x = init::randn([256, 2], 2.0, &mut rng);
        for _ in 0..60 {
            let _ = bn.forward(&x, true, &mut Workspace::new());
        }
        let y = bn.forward(&x, false, &mut Workspace::new());
        for j in 0..2 {
            let col: Vec<f32> = (0..256).map(|i| y.at(&[i, j])).collect();
            let m: f32 = col.iter().sum::<f32>() / 256.0;
            assert!(m.abs() < 0.1, "eval mean {m}");
        }
    }

    #[test]
    fn bn2d_normalizes_channels() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut bn = BatchNorm2d::new("bn", 2);
        let x = init::randn([8, 2, 4, 4], 5.0, &mut rng);
        let y = bn.forward(&x, true, &mut Workspace::new());
        for c in 0..2 {
            let mut vals = Vec::new();
            for b in 0..8 {
                for h in 0..4 {
                    for w in 0..4 {
                        vals.push(y.at(&[b, c, h, w]));
                    }
                }
            }
            assert_unit_stats(&vals);
        }
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ln = LayerNorm::new("ln", 16);
        let x = init::randn([4, 16], 4.0, &mut rng);
        let y = ln.forward(&x, true, &mut Workspace::new());
        for i in 0..4 {
            assert_unit_stats(y.row(i));
        }
    }

    #[test]
    fn bn1d_backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut bn = BatchNorm1d::new("bn", 2);
        bn.st.gamma.value = Tensor::from_vec(vec![1.5, 0.7], [2]);
        let x = init::randn([5, 2], 1.0, &mut rng);
        // weighted objective to get nonzero dx through normalization
        let wts: Vec<f32> = (0..10).map(|i| (i as f32 * 0.7).sin()).collect();
        let obj = |bn: &mut BatchNorm1d, x: &Tensor| -> f32 {
            bn.forward(x, true, &mut Workspace::new())
                .as_slice()
                .iter()
                .zip(&wts)
                .map(|(a, b)| a * b)
                .sum()
        };
        let base = obj(&mut bn, &x);
        bn.zero_grad();
        let dy = Tensor::from_vec(wts.clone(), [5, 2]);
        let dx = bn.backward(&dy, &mut Workspace::new());
        let eps = 1e-3;
        for &i in &[0usize, 3, 7] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let fd = (obj(&mut bn, &xp) - base) / eps;
            assert!(
                (dx.as_slice()[i] - fd).abs() < 5e-2,
                "dx[{i}] {} vs {fd}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn layernorm_backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ln = LayerNorm::new("ln", 4);
        ln.st.gamma.value = Tensor::from_vec(vec![1.2, 0.8, 1.0, 0.5], [4]);
        let x = init::randn([2, 4], 1.0, &mut rng);
        let wts: Vec<f32> = (0..8).map(|i| ((i * 3) as f32 * 0.31).cos()).collect();
        let obj = |ln: &mut LayerNorm, x: &Tensor| -> f32 {
            ln.forward(x, true, &mut Workspace::new())
                .as_slice()
                .iter()
                .zip(&wts)
                .map(|(a, b)| a * b)
                .sum()
        };
        let base = obj(&mut ln, &x);
        ln.zero_grad();
        let dy = Tensor::from_vec(wts.clone(), [2, 4]);
        let dx = ln.backward(&dy, &mut Workspace::new());
        let eps = 1e-3;
        for &i in &[0usize, 2, 5, 7] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let fd = (obj(&mut ln, &xp) - base) / eps;
            assert!(
                (dx.as_slice()[i] - fd).abs() < 5e-2,
                "dx[{i}] {} vs {fd}",
                dx.as_slice()[i]
            );
        }
    }

    /// The plain per-channel formulation the batch norms interleave:
    /// one channel at a time, every statistic one sequential sum over
    /// that channel's elements in ascending order. Returns
    /// `(y, dx, dγ, dβ)`, the gradients accumulated from zero.
    fn channelwise_oracle(
        x: &Tensor,
        dy: &Tensor,
        gamma: &[f32],
        beta: &[f32],
        // element index of channel `j`'s `i`-th member, and members per channel
        index: &dyn Fn(usize, usize) -> usize,
        members: usize,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let (xs, ds) = (x.as_slice(), dy.as_slice());
        let count = members as f32;
        let mut y = vec![0.0; xs.len()];
        let mut dx = vec![0.0; xs.len()];
        let (mut dgamma, mut dbeta) = (vec![0.0; gamma.len()], vec![0.0; gamma.len()]);
        for j in 0..gamma.len() {
            let mut m = 0.0;
            for i in 0..members {
                m += xs[index(j, i)];
            }
            m /= count;
            let mut v = 0.0;
            for i in 0..members {
                let d = xs[index(j, i)] - m;
                v += d * d;
            }
            v /= count;
            let inv = 1.0 / (v + EPS).sqrt();
            let (mut sum_dy, mut sum_dyxh) = (0.0, 0.0);
            for i in 0..members {
                let at = index(j, i);
                let xh = (xs[at] - m) * inv;
                y[at] = gamma[j] * xh + beta[j];
                sum_dy += ds[at];
                sum_dyxh += ds[at] * xh;
            }
            dgamma[j] += sum_dyxh;
            dbeta[j] += sum_dy;
            for i in 0..members {
                let at = index(j, i);
                let xh = (xs[at] - m) * inv;
                dx[at] = gamma[j] * inv / count * (count * ds[at] - sum_dy - xh * sum_dyxh);
            }
        }
        (y, dx, dgamma, dbeta)
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn batchnorm_matches_the_channelwise_formulation_bitwise() {
        let mut rng = StdRng::seed_from_u64(6);
        // 11 channels: more than one pipeline's worth, and odd
        let (n, c, h, w) = (5, 11, 3, 4);
        let gamma = init::randn([c], 1.0, &mut rng);
        let beta = init::randn([c], 1.0, &mut rng);

        let x = init::randn([n, c, h, w], 3.0, &mut rng);
        let dy = init::randn([n, c, h, w], 1.0, &mut rng);
        let mut bn = BatchNorm2d::new("bn", c);
        bn.st.gamma.value = gamma.clone();
        bn.st.beta.value = beta.clone();
        let y = bn.forward(&x, true, &mut Workspace::new());
        let dx = bn.backward(&dy, &mut Workspace::new());
        let plane = h * w;
        let want = channelwise_oracle(
            &x,
            &dy,
            gamma.as_slice(),
            beta.as_slice(),
            &|j, i| (i / plane * c + j) * plane + i % plane,
            n * plane,
        );
        assert_eq!(bits(y.as_slice()), bits(&want.0));
        assert_eq!(bits(dx.as_slice()), bits(&want.1));
        assert_eq!(bits(bn.st.gamma.grad.as_slice()), bits(&want.2));
        assert_eq!(bits(bn.st.beta.grad.as_slice()), bits(&want.3));

        let x = init::randn([n, c], 3.0, &mut rng);
        let dy = init::randn([n, c], 1.0, &mut rng);
        let mut bn = BatchNorm1d::new("bn", c);
        bn.st.gamma.value = gamma.clone();
        bn.st.beta.value = beta.clone();
        let y = bn.forward(&x, true, &mut Workspace::new());
        let dx = bn.backward(&dy, &mut Workspace::new());
        let want = channelwise_oracle(
            &x,
            &dy,
            gamma.as_slice(),
            beta.as_slice(),
            &|j, i| i * c + j,
            n,
        );
        assert_eq!(bits(y.as_slice()), bits(&want.0));
        assert_eq!(bits(dx.as_slice()), bits(&want.1));
        assert_eq!(bits(bn.st.gamma.grad.as_slice()), bits(&want.2));
        assert_eq!(bits(bn.st.beta.grad.as_slice()), bits(&want.3));
    }

    #[test]
    fn norm_params_are_no_decay() {
        let bn = BatchNorm1d::new("bn", 2);
        bn.visit_params(&mut |p| assert!(!p.decay));
    }
}
