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
pub use pool::{GlobalAvgPool, MaxPool2d};
