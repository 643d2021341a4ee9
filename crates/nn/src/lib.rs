//! From-scratch CPU neural-network substrate for the PagPassGPT
//! reproduction.
//!
//! The paper trains a GPT-2-style decoder-only transformer. No deep-learning
//! framework is used in this reproduction: this crate implements everything
//! the models need, from the matrix kernels up —
//!
//! * [`Mat`] — a dense row-major `f32` matrix with the small set of BLAS-like
//!   kernels a transformer needs, one per job, each run on a persistent
//!   worker pool ([`pool`]); the reference loops they are checked against
//!   ([`Mat::matmul_into_naive`], [`Mat::matmul_t_accum_naive`]) are plain
//!   functions the equivalence tests and the paired benchmark call,
//! * [`KernelMode`] — the process-wide decode kernel: `pinned` f32, whose
//!   bits the golden files pin, or `quantized` int8 ([`qmat`]),
//! * layers with **manual forward/backward passes**: [`Linear`],
//!   [`Embedding`], [`LayerNorm`], [`Mlp`] (GELU), and causal multi-head
//!   [`SelfAttention`],
//! * [`Gpt`] — the full decoder-only language model with a fused
//!   softmax-cross-entropy loss, training step, full-sequence inference, and
//!   **KV-cached incremental decoding** ([`KvCache`]) for fast batched
//!   sampling,
//! * [`AdamW`] — the optimizer the paper uses, with linear-warmup/cosine
//!   learning-rate scheduling ([`LrSchedule`]),
//! * [`gradcheck`] — finite-difference gradient verification used by the
//!   test-suite to prove every backward pass correct,
//! * binary weight (de)serialization for experiment caching.
//!
//! Everything is deterministic given a seed — including parallel GEMM,
//! which partitions work over disjoint output row-blocks so results are
//! bit-identical at any thread count — and sized for CPU-scale experiments;
//! see `DESIGN.md` at the workspace root for how the reduced model relates
//! to the paper's 12-layer / 256-dim configuration (available here as
//! [`GptConfig::paper`]).
//!
//! # Examples
//!
//! Train a tiny LM on a toy corpus and watch the loss fall:
//!
//! ```
//! use pagpass_nn::{AdamW, Gpt, GptConfig, Rng};
//!
//! let config = GptConfig { vocab_size: 10, ctx_len: 8, dim: 16, n_layers: 1, n_heads: 2 };
//! let mut model = Gpt::new(config, &mut Rng::seed_from(1));
//! let mut opt = AdamW::new(1e-3);
//! // One batch of two sequences (9 is used as padding/ignore here).
//! let tokens = vec![1, 2, 3, 4, 1, 2, 3, 4];
//! let loss0 = model.train_step(&tokens, 2, 4, Some(9), &mut opt);
//! for _ in 0..20 { model.train_step(&tokens, 2, 4, Some(9), &mut opt); }
//! let loss1 = model.train_step(&tokens, 2, 4, Some(9), &mut opt);
//! assert!(loss1 < loss0, "loss should decrease on a repeated batch");
//! ```

mod adamw;
mod attention;
mod fast;
mod fastmath;
mod gpt;
pub mod gradcheck;
mod layers;
mod mat;
pub mod pool;
pub mod qmat;
mod rng;
mod sampling;
mod serialize;

pub use adamw::{AdamW, LrSchedule, Param};
pub use attention::{KvCache, QSelfAttention, SelfAttention};
pub use fastmath::{fast_exp, fast_tanh, gelu_fast};
pub use gpt::{DecodeState, Gpt, GptConfig, QuantizedGpt};
pub use layers::{gelu, gelu_grad, Embedding, LayerNorm, Linear, Mlp, QLinear, QMlp};
pub use mat::{gemm_calls, kernel_mode, set_kernel_mode, KernelMode, Mat};
pub use pool::ThreadPool;
pub use qmat::{set_force_portable, QMat, QBLOCK};
pub use rng::Rng;
pub use sampling::{
    argmax, sample_categorical, sample_masked, softmax_in_place, softmax_in_place_fast,
};
pub use serialize::{atomic_write, crc32, LoadError};
