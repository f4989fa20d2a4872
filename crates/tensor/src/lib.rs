//! # selsync-tensor
//!
//! A small, dependency-light dense tensor library purpose-built for the
//! SelSync reproduction. It provides the numerical substrate the neural
//! network crate (`selsync-nn`) is built on: contiguous row-major `f32`
//! tensors, elementwise arithmetic, reductions, blocked (and optionally
//! rayon-parallel) matrix multiplication, im2col-based convolution
//! helpers, lane kernels that replace per-element libm calls bit for
//! bit (`math`), and softmax attention with its heads across vector
//! lanes (`attention`). The naive `matmul::reference` kernels are the serial
//! oracle the tests hold the packed GEMM to.
//!
//! Design notes (per the hpc-parallel guides):
//! * Hot loops never allocate: every op has an in-place or `*_into` variant
//!   writing into a caller-provided workhorse buffer.
//! * Parallelism lives only at the tensor-op level (rayon), so the
//!   distributed-training worker threads above remain plain `std::thread`s.
//! * All randomness is seeded (`StdRng`) so experiments are reproducible.

pub mod attention;
pub mod conv;
pub mod init;
pub mod math;
pub mod matmul;
pub mod ops;
pub mod reduce;
pub mod shape;
pub mod tensor;

pub use matmul::Par;
pub use shape::Shape;
pub use tensor::Tensor;

/// Multiply-accumulate count one parallel region of the packed gemm (one
/// KC×NC block of `B` against every row block of `C`) must hold before
/// the row blocks fan out over threads. The vendored rayon has no
/// persistent pool — every parallel region spawns scoped OS threads
/// (tens of microseconds) — so the kernels cross over only once the
/// serial work clearly dominates the spawn cost. One value serves
/// `matmul`, `matmul_tn` and `matmul_nt`: all three pack their operands
/// in storage order, so none is dearer per MAC than the others.
pub const MATMUL_PAR_MACS: usize = 1 << 21;
