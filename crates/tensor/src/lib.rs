//! Dense tensor substrate for the LoRAFusion reproduction.
//!
//! The original system runs Triton kernels on NVIDIA GPUs; this crate is the
//! numerical bedrock of the Rust reproduction. It provides:
//!
//! * [`Matrix`] — a dense, row-major `f32` matrix with shape-checked, fallible
//!   operations;
//! * register-tiled matrix multiplication in the three transpose layouts
//!   LoRA needs (`NN`, `NT`, `TN`), see [`matmul`] for the API and
//!   [`microkernel`] for the pack-once / macro-tile engine underneath;
//! * *counter-based* dropout ([`dropout`]) whose mask depends only on a seed
//!   and the element's logical index — never on how the surrounding
//!   computation was fused. This is the property that lets the fused and
//!   unfused LoRA executors in `lorafusion-kernels` produce bit-identical
//!   results, reproducing the paper's "lossless" claim;
//! * small deterministic RNGs ([`rng`]) so every experiment in the repository
//!   is reproducible from a seed.
//!
//! The public surface is safe Rust; shape mismatches surface as
//! [`TensorError`] rather than panics. The pool and the GEMM engine use
//! narrowly scoped `unsafe` internally to hand disjoint output regions to
//! worker tasks; each site documents its invariant.

pub mod arena;
pub mod dropout;
pub mod error;
pub mod loss;
pub mod matmul;
pub mod microkernel;
pub mod ops;
pub mod pool;
pub mod rng;
pub mod simd;
pub mod tensor;

pub use dropout::{dropout_forward, dropout_mask, DropoutSpec, Mask};
pub use error::TensorError;
pub use matmul::{matmul_nn, matmul_nt, matmul_tn};
pub use pool::Pool;
pub use rng::{Pcg32, SplitMix64};
pub use simd::SimdPath;
pub use tensor::Matrix;

/// Convenience result alias used throughout the crate.
pub type Result<T> = core::result::Result<T, TensorError>;
