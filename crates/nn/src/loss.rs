//! Loss functions and evaluation metrics.

use selsync_tensor::{attention, reduce, Tensor};

/// Softmax cross-entropy over logits `[n, classes]` with integer targets.
///
/// Returns `(mean_loss, dlogits)` where `dlogits` is already scaled by
/// `1/n`, so a plain SGD step on the returned gradient implements Eqn. (1)
/// of the paper.
pub fn softmax_cross_entropy(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    assert_eq!(logits.shape().ndim(), 2, "logits must be [n, classes]");
    let n = logits.shape().dim(0);
    let classes = logits.shape().dim(1);
    assert_eq!(n, targets.len(), "one target per row");
    let mut probs = logits.clone();
    attention::softmax_rows(probs.as_mut_slice(), classes);
    let mut loss = 0.0f64;
    for (i, &t) in targets.iter().enumerate() {
        assert!(t < classes, "target {t} out of range {classes}");
        // lint:allow(libm-call): one `ln` per row, on the target's probability
        loss -= (probs.row(i)[t].max(1e-12) as f64).ln();
    }
    let inv_n = 1.0 / n as f32;
    for (i, &t) in targets.iter().enumerate() {
        let row = probs.row_mut(i);
        row[t] -= 1.0;
        for v in row.iter_mut() {
            *v *= inv_n;
        }
    }
    ((loss / n as f64) as f32, probs)
}

/// Mean squared error `mean((pred - target)²)`; returns `(loss, dpred)`.
pub fn mse(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert!(pred.shape().same(target.shape()), "mse shape mismatch");
    let n = pred.numel() as f32;
    let mut loss = 0.0;
    let mut grad = pred.clone();
    for (g, t) in grad.as_mut_slice().iter_mut().zip(target.as_slice()) {
        let d = *g - t;
        loss += d * d;
        *g = 2.0 * d / n;
    }
    (loss / n, grad)
}

/// Top-1 accuracy of logits `[n, classes]` against targets.
pub fn accuracy(logits: &Tensor, targets: &[usize]) -> f32 {
    let preds = reduce::argmax_rows(logits);
    let hits = preds.iter().zip(targets).filter(|(p, t)| p == t).count();
    hits as f32 / targets.len().max(1) as f32
}

/// Top-k accuracy (the paper reports top-5 for AlexNet/ImageNet).
pub fn topk_accuracy(logits: &Tensor, targets: &[usize], k: usize) -> f32 {
    let tops = reduce::topk_rows(logits, k);
    let hits = tops
        .iter()
        .zip(targets)
        .filter(|(top, t)| top.contains(t))
        .count();
    hits as f32 / targets.len().max(1) as f32
}

/// Perplexity = exp(cross-entropy loss); the paper's Transformer metric.
pub fn perplexity(ce_loss: f32) -> f32 {
    // lint:allow(libm-call): one call per evaluation, on a reported metric
    ce_loss.exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_classes_loss() {
        let logits = Tensor::zeros([4, 10]);
        let (loss, _) = softmax_cross_entropy(&logits, &[0, 1, 2, 3]);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut logits = Tensor::zeros([1, 3]);
        logits.as_mut_slice()[1] = 20.0;
        let (loss, _) = softmax_cross_entropy(&logits, &[1]);
        assert!(loss < 1e-3);
    }

    #[test]
    fn ce_gradient_matches_finite_differences() {
        let logits = Tensor::from_vec(vec![0.2, -0.3, 0.5, 1.0, 0.0, -1.0], [2, 3]);
        let targets = [2usize, 0];
        let (base, grad) = softmax_cross_entropy(&logits, &targets);
        let eps = 1e-3;
        for i in 0..6 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let (pert, _) = softmax_cross_entropy(&lp, &targets);
            let fd = (pert - base) / eps;
            assert!((grad.as_slice()[i] - fd).abs() < 1e-2, "grad[{i}]");
        }
    }

    #[test]
    fn ce_gradient_rows_sum_to_zero() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0], [1, 3]);
        let (_, grad) = softmax_cross_entropy(&logits, &[0]);
        let s: f32 = grad.as_slice().iter().sum();
        assert!(s.abs() < 1e-6, "softmax CE gradient sums to zero per row");
    }

    #[test]
    fn mse_known_value() {
        let p = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let t = Tensor::from_vec(vec![0.0, 0.0], [2]);
        let (loss, grad) = mse(&p, &t);
        assert!((loss - 2.5).abs() < 1e-6);
        assert_eq!(grad.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn accuracy_counts_hits() {
        let logits = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8], [2, 2]);
        assert_eq!(accuracy(&logits, &[0, 1]), 1.0);
        assert_eq!(accuracy(&logits, &[1, 0]), 0.0);
        assert_eq!(accuracy(&logits, &[0, 0]), 0.5);
    }

    #[test]
    fn topk_is_monotone_in_k() {
        let logits = Tensor::from_vec(vec![0.5, 0.4, 0.3, 0.2, 0.1], [1, 5]);
        assert_eq!(topk_accuracy(&logits, &[4], 1), 0.0);
        assert_eq!(topk_accuracy(&logits, &[4], 5), 1.0);
        assert_eq!(topk_accuracy(&logits, &[1], 2), 1.0);
    }

    #[test]
    fn perplexity_of_zero_loss_is_one() {
        assert_eq!(perplexity(0.0), 1.0);
        assert!((perplexity((10.0f32).ln()) - 10.0).abs() < 1e-4);
    }
}
