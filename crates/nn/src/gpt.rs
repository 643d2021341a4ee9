use crate::attention::QSelfAttention;
use crate::layers::{QLinear, QMlp};
use crate::{AdamW, Embedding, KvCache, LayerNorm, Linear, Mat, Mlp, Param, Rng, SelfAttention};

/// Hyper-parameters of the decoder-only transformer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GptConfig {
    /// Vocabulary size (135 for the PagPassGPT tokenizer).
    pub vocab_size: usize,
    /// Context window; the paper uses 32 input tokens.
    pub ctx_len: usize,
    /// Embedding dimensionality.
    pub dim: usize,
    /// Number of transformer decoder layers.
    pub n_layers: usize,
    /// Attention heads per layer.
    pub n_heads: usize,
}

impl GptConfig {
    /// The paper's configuration (§IV-B1): 32-token window, 256-dim
    /// embeddings, 12 layers, 8 heads. Too slow to *train* on one CPU core,
    /// but constructible and fully supported.
    #[must_use]
    pub fn paper(vocab_size: usize) -> GptConfig {
        GptConfig {
            vocab_size,
            ctx_len: 32,
            dim: 256,
            n_layers: 12,
            n_heads: 8,
        }
    }

    /// The default experiment configuration for this CPU reproduction:
    /// same 32-token window, scaled-down width/depth (see DESIGN.md §2).
    #[must_use]
    pub fn small(vocab_size: usize) -> GptConfig {
        GptConfig {
            vocab_size,
            ctx_len: 32,
            dim: 48,
            n_layers: 3,
            n_heads: 4,
        }
    }

    /// A tiny configuration for unit tests.
    #[must_use]
    pub fn tiny(vocab_size: usize) -> GptConfig {
        GptConfig {
            vocab_size,
            ctx_len: 16,
            dim: 16,
            n_layers: 2,
            n_heads: 2,
        }
    }
}

/// One pre-norm transformer decoder block:
/// `x += attn(ln1(x)); x += mlp(ln2(x))`.
#[derive(Debug, Clone)]
struct Block {
    ln1: LayerNorm,
    attn: SelfAttention,
    ln2: LayerNorm,
    mlp: Mlp,
}

impl Block {
    fn new(dim: usize, n_heads: usize, rng: &mut Rng) -> Block {
        Block {
            ln1: LayerNorm::new(dim),
            attn: SelfAttention::new(dim, n_heads, rng),
            ln2: LayerNorm::new(dim),
            mlp: Mlp::new(dim, rng),
        }
    }

    fn forward(&mut self, x: &Mat, b: usize, t: usize) -> Mat {
        let mut h = x.clone();
        let a = self.attn.forward(&self.ln1.forward(x), b, t);
        h.add_assign(&a);
        let m = self.mlp.forward(&self.ln2.forward(&h));
        let mut out = h;
        out.add_assign(&m);
        out
    }

    fn backward(&mut self, dy: &Mat) -> Mat {
        // out = h + mlp(ln2(h)); dh = dy + ln2.backward(mlp.backward(dy))
        let dm = self.mlp.backward(dy);
        let mut dh = self.ln2.backward(&dm);
        dh.add_assign(dy);
        // h = x + attn(ln1(x)); dx = dh + ln1.backward(attn.backward(dh))
        let da = self.attn.backward(&dh);
        let mut dx = self.ln1.backward(&da);
        dx.add_assign(&dh);
        dx
    }

    fn step_with(&self, quant: Option<&QBlock>, x: &Mat, cache: &mut KvCache) -> Mat {
        // The quantized arm normalizes through the lane-parallel LayerNorm
        // — reassociated sums its goldens pin — while the f32 arm keeps the
        // serial fold's exact bits.
        let ln = |layer: &LayerNorm, v: &Mat| match quant {
            Some(_) => layer.apply_fast(v),
            None => layer.apply(v),
        };
        let mut h = x.clone();
        let a = self
            .attn
            .step_with(quant.map(|q| &q.attn), &ln(&self.ln1, x), cache);
        h.add_assign(&a);
        let m = self
            .mlp
            .apply_with(quant.map(|q| &q.mlp), &ln(&self.ln2, &h));
        let mut out = h;
        out.add_assign(&m);
        out
    }

    fn quantize(&self) -> QBlock {
        QBlock {
            attn: self.attn.quantize(),
            mlp: self.mlp.quantize(),
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ln1.visit_params(f);
        self.attn.visit_params(f);
        self.ln2.visit_params(f);
        self.mlp.visit_params(f);
    }
}

/// One decoder block's packed projections ([`QBlock::attn`] + mlp). The
/// LayerNorm weights and residual adds stay on the f32 [`Block`] that
/// built it; on the quantized arm the norms run through
/// [`LayerNorm::apply_fast`] (lane-parallel reductions) and the MLP/softmax
/// through the `fastmath` approximations — all deterministic and pinned by
/// the quantized golden files.
#[derive(Debug, Clone)]
struct QBlock {
    attn: QSelfAttention,
    mlp: QMlp,
}

/// The pack-once int8 decode weights of a [`Gpt`]: every Linear that a
/// decode step multiplies through — each block's qkv/proj and MLP
/// projections plus the LM head — packed into [`crate::QMat`] blocks.
/// Build with [`Gpt::quantize`] and pass to [`Gpt::decode_step_with`];
/// embeddings, LayerNorms, attention math, and the KV cache stay f32.
///
/// Holds no gradient state: training always runs on the f32 weights, and a
/// `QuantizedGpt` is a snapshot of the weights it was packed from.
#[derive(Debug, Clone)]
pub struct QuantizedGpt {
    blocks: Vec<QBlock>,
    lm_head: QLinear,
}

/// Incremental-decoding state: one [`KvCache`] per layer plus the current
/// position. Create with [`Gpt::begin_decode`], feed tokens through
/// [`Gpt::decode_step`].
#[derive(Debug, Clone)]
pub struct DecodeState {
    caches: Vec<KvCache>,
    pos: usize,
}

impl DecodeState {
    /// Number of tokens consumed so far.
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Number of parallel sequences.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.caches.first().map_or(0, KvCache::batch)
    }

    /// Resets the state for reuse with the same batch size.
    pub fn clear(&mut self) {
        for c in &mut self.caches {
            c.clear();
        }
        self.pos = 0;
    }

    /// Rewinds the state to its first `len` positions, keeping the cached
    /// K/V for the retained prefix. Subsequent [`Gpt::decode_step`] calls
    /// continue from position `len` exactly as if only those tokens had
    /// ever been fed (see [`KvCache::truncate_to`] for why this is
    /// bit-exact).
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the current position.
    pub fn truncate_to(&mut self, len: usize) {
        assert!(
            len <= self.pos,
            "cannot truncate a decode state forward ({} -> {len})",
            self.pos
        );
        for c in &mut self.caches {
            c.truncate_to(len);
        }
        self.pos = len;
    }

    /// Replicates this single-sequence state across `batch` parallel rows
    /// of `dst`, bit-identically to feeding the same prefix to every row of
    /// a fresh batch-`batch` decode. `dst`'s buffers are reused whenever
    /// they are large enough, and only the filled prefix is copied (see
    /// [`KvCache::broadcast_into`]). Any state of the same model is a valid
    /// target, including one from [`Gpt::begin_decode`] at batch 0.
    ///
    /// # Panics
    ///
    /// Panics if this state holds more than one sequence or `dst` belongs
    /// to a model with a different layer count.
    pub fn broadcast_into(&self, batch: usize, dst: &mut DecodeState) {
        assert_eq!(
            self.caches.len(),
            dst.caches.len(),
            "broadcast target belongs to a different model"
        );
        for (src, cache) in self.caches.iter().zip(&mut dst.caches) {
            src.broadcast_into(batch, cache);
        }
        dst.pos = self.pos;
    }
}

/// The GPT-2-style decoder-only language model (paper §III-B): token +
/// position embeddings, `n_layers` pre-norm decoder blocks, a final
/// LayerNorm, and a linear language-modeling head producing a distribution
/// over the vocabulary.
///
/// # Examples
///
/// See the [crate-level example](crate) for a training loop, and
/// [`Gpt::begin_decode`] for incremental sampling.
#[derive(Debug, Clone)]
pub struct Gpt {
    config: GptConfig,
    tok_emb: Embedding,
    pos_emb: Embedding,
    blocks: Vec<Block>,
    ln_f: LayerNorm,
    lm_head: Linear,
}

impl Gpt {
    /// Initializes a model with GPT-2-style `N(0, 0.02²)` weights.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `n_heads`.
    #[must_use]
    pub fn new(config: GptConfig, rng: &mut Rng) -> Gpt {
        Gpt {
            config,
            tok_emb: Embedding::new(config.vocab_size, config.dim, rng),
            pos_emb: Embedding::new(config.ctx_len, config.dim, rng),
            blocks: (0..config.n_layers)
                .map(|_| Block::new(config.dim, config.n_heads, rng))
                .collect(),
            ln_f: LayerNorm::new(config.dim),
            lm_head: Linear::new(config.dim, config.vocab_size, rng),
        }
    }

    /// The model's configuration.
    #[must_use]
    pub fn config(&self) -> GptConfig {
        self.config
    }

    /// Total number of scalar parameters.
    #[must_use]
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Visits every parameter in a stable order (optimizer and
    /// serialization hook).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.tok_emb.visit_params(f);
        self.pos_emb.visit_params(f);
        for block in &mut self.blocks {
            block.visit_params(f);
        }
        self.ln_f.visit_params(f);
        self.lm_head.visit_params(f);
    }

    /// Training forward pass producing logits for `b` sequences of `t`
    /// tokens (`tokens.len() == b*t`); caches activations for backprop.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len() != b*t`, `t > ctx_len`, or an id is out of
    /// vocabulary range.
    fn forward_train(&mut self, tokens: &[u32], b: usize, t: usize) -> Mat {
        assert_eq!(tokens.len(), b * t, "tokens must hold b*t ids");
        assert!(
            t <= self.config.ctx_len,
            "sequence exceeds the context window"
        );
        let tok = self.tok_emb.forward(tokens);
        let pos_ids: Vec<u32> = (0..b).flat_map(|_| 0..t as u32).collect();
        let pos = self.pos_emb.forward(&pos_ids);
        let mut x = tok;
        x.add_assign(&pos);
        for block in &mut self.blocks {
            x = block.forward(&x, b, t);
        }
        let x = self.ln_f.forward(&x);
        self.lm_head.forward(&x)
    }

    /// Computes the mean next-token cross-entropy of a batch and accumulates
    /// gradients for it (without an optimizer update). Position `i` predicts
    /// `tokens[i+1]`; targets equal to `ignore` (e.g. `<PAD>`) are skipped.
    ///
    /// Returns the loss. Gradients are zeroed at entry, so each call holds
    /// exactly this batch's gradient.
    ///
    /// # Panics
    ///
    /// Panics on shape violations (see [`Gpt::train_step`]).
    pub fn compute_grads(
        &mut self,
        tokens: &[u32],
        b: usize,
        t: usize,
        ignore: Option<u32>,
    ) -> f32 {
        self.visit_params(&mut Param::zero_grad);
        let logits = self.forward_train(tokens, b, t);
        let (loss, dlogits) = cross_entropy_next_token(&logits, tokens, b, t, ignore);
        let dx = self.lm_head.backward(&dlogits);
        let dx = self.ln_f.backward(&dx);
        let mut d = dx;
        for block in self.blocks.iter_mut().rev() {
            d = block.backward(&d);
        }
        self.pos_emb.backward(&d);
        self.tok_emb.backward(&d);
        loss
    }

    /// One full optimization step: gradients + AdamW update with the
    /// optimizer's current learning rate. Returns the batch loss.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len() != b*t` or `t > ctx_len`.
    pub fn train_step(
        &mut self,
        tokens: &[u32],
        b: usize,
        t: usize,
        ignore: Option<u32>,
        opt: &mut AdamW,
    ) -> f32 {
        let loss = self.compute_grads(tokens, b, t, ignore);
        opt.begin_step();
        self.visit_params(&mut |p| opt.update(p));
        loss
    }

    /// Global L2 norm of the currently accumulated gradients, without
    /// modifying them. Non-finite results signal a diverged backward pass.
    #[must_use]
    pub fn grad_norm(&mut self) -> f32 {
        let mut sq = 0.0f64;
        self.visit_params(&mut |p| {
            sq += p
                .grad
                .as_slice()
                .iter()
                .map(|&g| f64::from(g) * f64::from(g))
                .sum::<f64>();
        });
        (sq as f32).sqrt()
    }

    /// Scales all gradients so their global L2 norm is at most `max_norm`;
    /// returns the pre-clip norm. Standard stabilization for transformer
    /// training.
    ///
    /// # Panics
    ///
    /// Panics if `max_norm` is not positive.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        assert!(max_norm > 0.0, "max_norm must be positive");
        let norm = self.grad_norm();
        if norm > max_norm {
            let scale = max_norm / norm;
            self.visit_params(&mut |p| p.grad.scale(scale));
        }
        norm
    }

    /// Evaluation loss (no gradients accumulated; parameters untouched).
    ///
    /// # Panics
    ///
    /// Panics on the same shape violations as [`Gpt::train_step`].
    pub fn eval_loss(&mut self, tokens: &[u32], b: usize, t: usize, ignore: Option<u32>) -> f32 {
        let logits = self.forward_train(tokens, b, t);
        cross_entropy_next_token(&logits, tokens, b, t, ignore).0
    }

    /// Starts incremental decoding for `batch` parallel sequences.
    #[must_use]
    pub fn begin_decode(&self, batch: usize) -> DecodeState {
        DecodeState {
            caches: (0..self.config.n_layers)
                .map(|_| KvCache::new(batch, self.config.ctx_len, self.config.dim))
                .collect(),
            pos: 0,
        }
    }

    /// Feeds one token per sequence and returns next-token logits
    /// (`batch × vocab`). Tokens are consumed left to right; the state
    /// tracks the position.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len()` differs from the decode batch, if the
    /// context window is exhausted, or if an id is out of range.
    #[must_use]
    pub fn decode_step(&self, tokens: &[u32], state: &mut DecodeState) -> Mat {
        self.decode_step_with(None, tokens, state)
    }

    /// [`decode_step`](Self::decode_step) with every Linear optionally
    /// routed through packed int8 weights. `quant` must come from
    /// [`Gpt::quantize`] on this model; passing `None` is exactly
    /// `decode_step`. The quantized path is deterministic — bitwise
    /// identical at any thread count and under SIMD or portable dispatch —
    /// but *not* bit-compatible with the f32 path; it has its own golden
    /// files and accuracy budget (see `crates/eval`).
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len()` differs from the decode batch, if the
    /// context window is exhausted, if an id is out of range, or if `quant`
    /// was packed from a model with a different layer count.
    #[must_use]
    pub fn decode_step_with(
        &self,
        quant: Option<&QuantizedGpt>,
        tokens: &[u32],
        state: &mut DecodeState,
    ) -> Mat {
        let b = state.batch();
        assert_eq!(tokens.len(), b, "one token per sequence");
        assert!(state.pos < self.config.ctx_len, "context window exhausted");
        if let Some(q) = quant {
            assert_eq!(
                q.blocks.len(),
                self.blocks.len(),
                "quantized weights were packed from a different model"
            );
        }
        let tok = self.tok_emb.apply(tokens);
        let pos = self.pos_emb.apply(&vec![state.pos as u32; b]);
        let mut x = tok;
        x.add_assign(&pos);
        for (i, (block, cache)) in self.blocks.iter().zip(&mut state.caches).enumerate() {
            x = block.step_with(quant.map(|q| &q.blocks[i]), &x, cache);
        }
        for cache in &mut state.caches {
            cache.advance();
        }
        state.pos += 1;
        let x = match quant {
            Some(_) => self.ln_f.apply_fast(&x),
            None => self.ln_f.apply(&x),
        };
        match quant {
            Some(q) => q.lm_head.apply(&x),
            None => self.lm_head.apply(&x),
        }
    }

    /// Packs every decode-path Linear into int8 blocks — the pack-once
    /// prepare step for `--kernel quantized` sessions. O(params) work,
    /// done once per session; the pack holds the int8 columns plus an
    /// AVX2-interleaved copy, so it costs about half the f32 weight
    /// memory (a quarter without the tiled copy).
    #[must_use]
    pub fn quantize(&self) -> QuantizedGpt {
        QuantizedGpt {
            blocks: self.blocks.iter().map(Block::quantize).collect(),
            lm_head: self.lm_head.quantize(),
        }
    }

    /// Next-token logits after consuming `prefix` (single sequence).
    /// Convenience for D&C-GEN task expansion.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` is empty or longer than the context window.
    #[must_use]
    pub fn next_token_logits(&self, prefix: &[u32]) -> Vec<f32> {
        assert!(!prefix.is_empty(), "prefix must be non-empty");
        let mut state = self.begin_decode(1);
        let mut logits = Mat::zeros(1, self.config.vocab_size);
        for &tok in prefix {
            logits = self.decode_step(&[tok], &mut state);
        }
        logits.row(0).to_vec()
    }
}

/// Fused softmax + cross-entropy over next-token targets.
///
/// Returns `(mean loss, dlogits)` where the gradient is already divided by
/// the number of counted targets. Position `(s, i)` (sequence `s`, `i <
/// t-1`) is scored against target `tokens[s*t + i + 1]`; the last position
/// of each sequence has no target. Targets equal to `ignore` are skipped.
fn cross_entropy_next_token(
    logits: &Mat,
    tokens: &[u32],
    b: usize,
    t: usize,
    ignore: Option<u32>,
) -> (f32, Mat) {
    let v = logits.cols();
    let mut dlogits = Mat::zeros(logits.rows(), v);
    let mut loss = 0.0f64;
    let mut count = 0usize;
    for s in 0..b {
        for i in 0..t - 1 {
            let target = tokens[s * t + i + 1];
            if Some(target) == ignore {
                continue;
            }
            count += 1;
        }
    }
    if count == 0 {
        return (0.0, dlogits);
    }
    let inv = 1.0 / count as f32;
    let mut probs = vec![0.0f32; v];
    for s in 0..b {
        for i in 0..t - 1 {
            let target = tokens[s * t + i + 1];
            if Some(target) == ignore {
                continue;
            }
            let r = s * t + i;
            probs.copy_from_slice(logits.row(r));
            crate::softmax_in_place(&mut probs);
            let p_target = probs[target as usize].max(1e-12);
            loss -= f64::from(p_target.ln());
            let drow = dlogits.row_mut(r);
            for (dj, &pj) in drow.iter_mut().zip(&probs) {
                *dj = pj * inv;
            }
            drow[target as usize] -= inv;
        }
    }
    ((loss / f64::from(count as u32)) as f32, dlogits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Gpt {
        Gpt::new(GptConfig::tiny(12), &mut Rng::seed_from(7))
    }

    #[test]
    fn initial_loss_is_near_uniform_entropy() {
        let mut model = tiny();
        let tokens: Vec<u32> = (0..32).map(|i| (i % 12) as u32).collect();
        let loss = model.eval_loss(&tokens, 2, 16, None);
        let uniform = (12f32).ln();
        assert!(
            (loss - uniform).abs() < 0.3,
            "loss {loss} vs ln(12)={uniform}"
        );
    }

    #[test]
    fn training_memorizes_a_tiny_sequence() {
        let mut model = tiny();
        let mut opt = AdamW::new(3e-3);
        let tokens: Vec<u32> = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let mut last = f32::INFINITY;
        for _ in 0..120 {
            last = model.train_step(&tokens, 1, 8, None, &mut opt);
        }
        assert!(
            last < 0.2,
            "model should memorize one sequence, loss {last}"
        );
    }

    #[test]
    fn ignore_index_skips_padding() {
        let mut model = tiny();
        // All targets are PAD=11 → zero loss and zero gradient.
        let tokens: Vec<u32> = vec![3, 11, 11, 11];
        let loss = model.compute_grads(&tokens, 1, 4, Some(11));
        assert_eq!(loss, 0.0);
        let mut grad_norm = 0.0f32;
        model.visit_params(&mut |p| {
            grad_norm += p.grad.as_slice().iter().map(|g| g * g).sum::<f32>();
        });
        assert_eq!(grad_norm, 0.0);
    }

    #[test]
    fn clip_grad_norm_bounds_and_preserves_direction() {
        let mut model = tiny();
        let tokens: Vec<u32> = vec![1, 2, 3, 4, 5, 6];
        let _ = model.compute_grads(&tokens, 1, 6, None);
        let norm_before = model.clip_grad_norm(1e-3);
        assert!(norm_before > 1e-3, "fresh models have sizable gradients");
        // After clipping, the norm is at the bound.
        let mut sq = 0.0f64;
        model.visit_params(&mut |p| {
            sq += p
                .grad
                .as_slice()
                .iter()
                .map(|&g| f64::from(g) * f64::from(g))
                .sum::<f64>();
        });
        assert!(((sq as f32).sqrt() - 1e-3).abs() < 1e-5);
        // Clipping with a huge bound is a no-op.
        let norm = model.clip_grad_norm(1e6);
        assert!((norm - 1e-3).abs() < 1e-5);
    }

    #[test]
    fn decode_matches_training_forward() {
        let mut model = tiny();
        let tokens: Vec<u32> = vec![1, 2, 3, 4, 5];
        let logits_full = model.forward_train(&tokens, 1, 5);
        let mut state = model.begin_decode(1);
        for (i, &tok) in tokens.iter().enumerate() {
            let step_logits = model.decode_step(&[tok], &mut state);
            for (a, b) in step_logits.row(0).iter().zip(logits_full.row(i)) {
                assert!((a - b).abs() < 1e-3, "position {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn next_token_logits_agrees_with_decode() {
        let model = tiny();
        let prefix = vec![4u32, 2, 9];
        let from_helper = model.next_token_logits(&prefix);
        let mut state = model.begin_decode(1);
        let mut last = Mat::zeros(1, 12);
        for &tok in &prefix {
            last = model.decode_step(&[tok], &mut state);
        }
        assert_eq!(from_helper, last.row(0).to_vec());
    }

    #[test]
    fn decode_state_lifecycle() {
        let model = tiny();
        let mut state = model.begin_decode(3);
        assert_eq!(state.batch(), 3);
        let _ = model.decode_step(&[1, 2, 3], &mut state);
        assert_eq!(state.pos(), 1);
        state.clear();
        assert_eq!(state.pos(), 0);
    }

    #[test]
    fn truncate_then_refeed_is_bit_exact() {
        let model = tiny();
        // Decode one sequence, rewind to a shared prefix, and branch.
        let mut state = model.begin_decode(1);
        for &tok in &[4u32, 2, 9, 7, 1] {
            let _ = model.decode_step(&[tok], &mut state);
        }
        state.truncate_to(2);
        assert_eq!(state.pos(), 2);
        let mut last = Mat::zeros(1, 12);
        for &tok in &[5u32, 3] {
            last = model.decode_step(&[tok], &mut state);
        }
        // Fresh decode of the branched sequence must match exactly.
        let fresh = model.next_token_logits(&[4, 2, 5, 3]);
        assert_eq!(last.row(0), &fresh[..], "truncate+refeed must be exact");
    }

    #[test]
    #[should_panic(expected = "cannot truncate a decode state forward")]
    fn truncate_forward_panics() {
        let model = tiny();
        let mut state = model.begin_decode(1);
        let _ = model.decode_step(&[1], &mut state);
        state.truncate_to(2);
    }

    #[test]
    fn fork_diverges_independently() {
        let model = tiny();
        let mut a = model.begin_decode(1);
        for &tok in &[4u32, 2] {
            let _ = model.decode_step(&[tok], &mut a);
        }
        let mut b = a.clone();
        let la = model.decode_step(&[9], &mut a);
        let lb = model.decode_step(&[7], &mut b);
        assert_eq!(a.pos(), 3);
        assert_eq!(b.pos(), 3);
        assert_eq!(la.row(0), &model.next_token_logits(&[4, 2, 9])[..]);
        assert_eq!(lb.row(0), &model.next_token_logits(&[4, 2, 7])[..]);
    }

    #[test]
    fn broadcast_matches_per_row_priming() {
        let model = tiny();
        let prefix = [4u32, 2, 9];
        let mut one = model.begin_decode(1);
        for &tok in &prefix {
            let _ = model.decode_step(&[tok], &mut one);
        }
        // A target that first held a longer prefix at a wider batch: its
        // stale rows must not leak into the new broadcast.
        let mut wide = model.begin_decode(0);
        let mut long = model.begin_decode(1);
        for &tok in &[7u32, 3, 3, 6, 1] {
            let _ = model.decode_step(&[tok], &mut long);
        }
        long.broadcast_into(5, &mut wide);
        let _ = model.decode_step(&[2, 4, 6, 8, 10], &mut wide);
        one.broadcast_into(3, &mut wide);
        assert_eq!(wide.batch(), 3);
        assert_eq!(wide.pos(), prefix.len());
        // A reference state primed the slow way: every row fed the prefix.
        let mut refstate = model.begin_decode(3);
        for &tok in &prefix {
            let _ = model.decode_step(&[tok, tok, tok], &mut refstate);
        }
        // Step both with distinct per-row tokens; logits must agree bitwise.
        for step in [[1, 5, 8], [0, 2, 11]] {
            let a = model.decode_step(&step, &mut wide);
            let b = model.decode_step(&step, &mut refstate);
            assert_eq!(a.as_slice(), b.as_slice(), "broadcast must be exact");
        }
    }

    #[test]
    fn quantized_decode_tracks_f32_and_is_deterministic() {
        let model = tiny();
        let q = model.quantize();
        let prefix = [4u32, 2, 9, 7];
        let mut fs = model.begin_decode(1);
        let mut qs = model.begin_decode(1);
        let mut qs2 = model.begin_decode(1);
        for &tok in &prefix {
            let f32_logits = model.decode_step(&[tok], &mut fs);
            let q_logits = model.decode_step_with(Some(&q), &[tok], &mut qs);
            let q_again = model.decode_step_with(Some(&q), &[tok], &mut qs2);
            // Determinism within the mode: same packed weights, same bits.
            assert_eq!(q_logits, q_again);
            // Accuracy: quantized logits track f32 within a loose bound —
            // the tight budget is asserted on real corpora in crates/eval.
            let norm = f32_logits
                .as_slice()
                .iter()
                .fold(0.0f32, |m, v| m.max(v.abs()));
            for (a, e) in q_logits.as_slice().iter().zip(f32_logits.as_slice()) {
                assert!((a - e).abs() <= norm * 0.25 + 5e-2, "{a} vs {e}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "different model")]
    fn quantized_weights_from_wrong_model_panic() {
        let model = tiny();
        let other = Gpt::new(
            GptConfig {
                n_layers: 1,
                ..GptConfig::tiny(12)
            },
            &mut Rng::seed_from(3),
        );
        let q = other.quantize();
        let mut state = model.begin_decode(1);
        let _ = model.decode_step_with(Some(&q), &[1], &mut state);
    }

    #[test]
    fn param_count_formula() {
        let mut model = tiny();
        let c = model.config();
        // embeddings + per-block (ln1 + attn + ln2 + mlp) + ln_f + head
        let expect = c.vocab_size * c.dim
            + c.ctx_len * c.dim
            + c.n_layers
                * (2 * c.dim                                  // ln1
                    + (c.dim * 3 * c.dim + 3 * c.dim)         // qkv
                    + (c.dim * c.dim + c.dim)                 // proj
                    + 2 * c.dim                               // ln2
                    + (c.dim * 4 * c.dim + 4 * c.dim)         // fc1
                    + (4 * c.dim * c.dim + c.dim))            // fc2
            + 2 * c.dim                                       // ln_f
            + (c.dim * c.vocab_size + c.vocab_size); // head
        assert_eq!(model.num_params(), expect);
    }

    #[test]
    fn configs() {
        let paper = GptConfig::paper(135);
        assert_eq!(
            (paper.dim, paper.n_layers, paper.n_heads, paper.ctx_len),
            (256, 12, 8, 32)
        );
        let small = GptConfig::small(135);
        assert_eq!(small.ctx_len, 32);
        assert_eq!(small.dim % small.n_heads, 0);
    }

    #[test]
    #[should_panic(expected = "context window")]
    fn decode_past_context_panics() {
        let model = tiny();
        let mut state = model.begin_decode(1);
        for _ in 0..17 {
            let _ = model.decode_step(&[0], &mut state);
        }
    }

    #[test]
    fn cross_entropy_gradient_rows_sum_to_zero() {
        let mut rng = Rng::seed_from(9);
        let logits = Mat::randn(4, 6, 1.0, &mut rng);
        let tokens = vec![0u32, 1, 2, 3];
        let (_, d) = cross_entropy_next_token(&logits, &tokens, 1, 4, None);
        // Rows with targets: softmax grad sums to zero.
        for r in 0..3 {
            let s: f32 = d.row(r).iter().sum();
            assert!(s.abs() < 1e-5);
        }
        // Last position has no target.
        assert!(d.row(3).iter().all(|&x| x == 0.0));
    }
}
