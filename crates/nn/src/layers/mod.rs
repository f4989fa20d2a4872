//! Neural-network layers with explicit forward/backward passes.

pub mod activation;
pub mod attention;
pub mod conv2d;
pub mod dropout;
pub mod embedding;
pub mod linear;
pub mod norm;
pub mod pool;

pub use activation::{Gelu, Relu};
pub use attention::MultiHeadSelfAttention;
pub use conv2d::Conv2d;
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use linear::Linear;
pub use norm::{BatchNorm, LayerNorm};
pub use pool::{GlobalAvgPool, MaxPool2d, ToRows};

/// `t` with its two outer axes swapped, `[a, b, …]` → `[b, a, …]`: an
/// NCHW tensor to the channel-major layout the conv layers exchange, and
/// back. The layers' tests feed their NCHW oracles through it.
#[cfg(test)]
pub(crate) fn swap_outer(t: &selsync_tensor::Tensor) -> selsync_tensor::Tensor {
    let dims = t.shape().dims();
    let inner = dims[2..].iter().product();
    let mut swapped = dims.to_vec();
    swapped.swap(0, 1);
    let mut out = selsync_tensor::Tensor::zeros(&swapped[..]);
    selsync_tensor::conv::swap_outer_axes(
        t.as_slice(),
        dims[0],
        dims[1],
        inner,
        out.as_mut_slice(),
    );
    out
}
