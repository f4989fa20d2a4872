//! Spatial pooling layers.

use crate::module::{Module, Param, ParamVisitor};
use crate::workspace::Workspace;
use selsync_tensor::{Shape, Tensor};

/// 2-D max pooling with a square window and matching stride.
#[derive(Clone)]
pub struct MaxPool2d {
    k: usize,
    in_shape: Shape,
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Max pooling with window and stride `k`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        MaxPool2d {
            k,
            in_shape: Shape::default(),
            argmax: Vec::new(),
        }
    }
}

impl ParamVisitor for MaxPool2d {
    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

impl Module for MaxPool2d {
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        let dims = x.shape().dims();
        assert_eq!(dims.len(), 4, "MaxPool2d expects [n,c,h,w]");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        let k = self.k;
        assert!(
            h % k == 0 && w % k == 0,
            "input {h}x{w} not divisible by window {k}"
        );
        let (oh, ow) = (h / k, w / k);
        self.in_shape = x.shape().clone();
        let mut out = ws.take([n, c, oh, ow]);
        self.argmax.clear();
        self.argmax.reserve(n * c * oh * ow);
        let src = x.as_slice();
        let dst = out.as_mut_slice();
        let mut oi = 0;
        for b in 0..n {
            for ch in 0..c {
                let plane = &src[(b * c + ch) * h * w..(b * c + ch + 1) * h * w];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0;
                        for ky in 0..k {
                            for kx in 0..k {
                                let idx = (oy * k + ky) * w + (ox * k + kx);
                                if plane[idx] > best {
                                    best = plane[idx];
                                    best_idx = (b * c + ch) * h * w + idx;
                                }
                            }
                        }
                        dst[oi] = best;
                        self.argmax.push(best_idx);
                        oi += 1;
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(dy.numel(), self.argmax.len(), "backward before forward");
        let mut dx = ws.take_zeroed(self.in_shape.clone());
        let d = dx.as_mut_slice();
        for (g, &idx) in dy.as_slice().iter().zip(&self.argmax) {
            d[idx] += g;
        }
        dx
    }
}

/// Global average pooling: `[n, c, h, w] → [n, c]`.
#[derive(Clone, Default)]
pub struct GlobalAvgPool {
    in_shape: Shape,
}

impl GlobalAvgPool {
    /// A fresh global average pool.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ParamVisitor for GlobalAvgPool {
    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

impl Module for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, _train: bool, ws: &mut Workspace) -> Tensor {
        let dims = x.shape().dims();
        assert_eq!(dims.len(), 4, "GlobalAvgPool expects [n,c,h,w]");
        let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
        self.in_shape = x.shape().clone();
        let plane = (h * w) as f32;
        let mut out = ws.take([n, c]);
        let src = x.as_slice();
        let dst = out.as_mut_slice();
        for b in 0..n {
            for ch in 0..c {
                let p = &src[(b * c + ch) * h * w..(b * c + ch + 1) * h * w];
                dst[b * c + ch] = p.iter().sum::<f32>() / plane;
            }
        }
        out
    }

    fn backward(&mut self, dy: &Tensor, ws: &mut Workspace) -> Tensor {
        let d = self.in_shape.dims();
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let plane = (h * w) as f32;
        let mut dx = ws.take(self.in_shape.clone());
        let d = dx.as_mut_slice();
        let g = dy.as_slice();
        for b in 0..n {
            for ch in 0..c {
                let v = g[b * c + ch] / plane;
                for p in 0..h * w {
                    d[(b * c + ch) * h * w + p] = v;
                }
            }
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_selects_window_maxima() {
        let mut mp = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            [1, 1, 4, 4],
        );
        let y = mp.forward(&x, true, &mut Workspace::new());
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_routes_gradient_to_argmax() {
        let mut mp = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]);
        let _ = mp.forward(&x, true, &mut Workspace::new());
        let dx = mp.backward(
            &Tensor::from_vec(vec![7.0], [1, 1, 1, 1]),
            &mut Workspace::new(),
        );
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 0.0, 7.0]);
    }

    #[test]
    fn avgpool_means_planes() {
        let mut gp = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0, 0.0, 0.0, 0.0, 4.0], [1, 2, 2, 2]);
        let y = gp.forward(&x, true, &mut Workspace::new());
        assert_eq!(y.shape().dims(), &[1, 2]);
        assert_eq!(y.as_slice(), &[4.0, 1.0]);
    }

    #[test]
    fn avgpool_backward_spreads_uniformly() {
        let mut gp = GlobalAvgPool::new();
        let _ = gp.forward(&Tensor::zeros([1, 1, 2, 2]), true, &mut Workspace::new());
        let dx = gp.backward(&Tensor::from_vec(vec![8.0], [1, 1]), &mut Workspace::new());
        assert_eq!(dx.as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn maxpool_rejects_indivisible_input() {
        MaxPool2d::new(2).forward(&Tensor::zeros([1, 1, 3, 3]), true, &mut Workspace::new());
    }
}
