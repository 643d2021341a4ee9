use crate::layers::QLinear;
use crate::mat::{axpy, dot};
use crate::sampling::{softmax_in_place, softmax_in_place_fast};
use crate::{Linear, Mat, Param, Rng};

/// Causal multi-head self-attention with manual backprop and KV-cached
/// incremental decoding — the core of the GPT-2 block (paper §III-B).
///
/// Training uses [`forward`](Self::forward)/[`backward`](Self::backward)
/// over whole sequences; generation uses [`step`](Self::step), which
/// processes one token per sequence against a [`KvCache`] so sampling a
/// token costs `O(T)` instead of `O(T²)`.
#[derive(Debug, Clone)]
pub struct SelfAttention {
    /// Fused query/key/value projection, `dim → 3·dim`.
    pub qkv: Linear,
    /// Output projection, `dim → dim`.
    pub proj: Linear,
    n_heads: usize,
    cache: Option<TrainCache>,
}

#[derive(Debug, Clone)]
struct TrainCache {
    b: usize,
    t: usize,
    q: Mat,
    k: Mat,
    v: Mat,
    /// Softmax probabilities, one `t × t` matrix per `(batch, head)`.
    probs: Vec<Mat>,
}

impl SelfAttention {
    /// Creates an attention layer over `dim` features with `n_heads` heads.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `n_heads`.
    #[must_use]
    pub fn new(dim: usize, n_heads: usize, rng: &mut Rng) -> SelfAttention {
        assert!(
            dim.is_multiple_of(n_heads),
            "dim must be divisible by n_heads"
        );
        SelfAttention {
            qkv: Linear::new(dim, 3 * dim, rng),
            proj: Linear::new(dim, dim, rng),
            n_heads,
            cache: None,
        }
    }

    /// Number of attention heads.
    #[must_use]
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    fn dim(&self) -> usize {
        self.proj.in_dim()
    }

    /// Training forward pass over `b` sequences of `t` tokens
    /// (`x` is `(b·t) × dim`), caching activations for `backward`.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != b * t`.
    #[must_use]
    pub fn forward(&mut self, x: &Mat, b: usize, t: usize) -> Mat {
        assert_eq!(x.rows(), b * t, "x must hold b*t rows");
        let c = self.dim();
        let h = self.n_heads;
        let d = c / h;
        let scale = 1.0 / (d as f32).sqrt();

        let qkv = self.qkv.forward(x);
        let (mut q, mut k, mut v) = (
            Mat::zeros(b * t, c),
            Mat::zeros(b * t, c),
            Mat::zeros(b * t, c),
        );
        for r in 0..b * t {
            let row = qkv.row(r);
            q.row_mut(r).copy_from_slice(&row[0..c]);
            k.row_mut(r).copy_from_slice(&row[c..2 * c]);
            v.row_mut(r).copy_from_slice(&row[2 * c..3 * c]);
        }

        // Each head is a pair of small GEMMs over contiguous t×d packs
        // instead of per-element dot loops: packing costs O(t·d) copies and
        // buys the cache-blocked kernels' throughput on the O(t²·d) math.
        // Masked score entries are set to -inf before softmax exactly like
        // the loop form did, and the resulting zeros above the diagonal make
        // the P·V product skip them via the kernels' zero-skip rule.
        let mut out = Mat::zeros(b * t, c);
        let mut probs = Vec::with_capacity(b * h);
        for bi in 0..b {
            for hi in 0..h {
                let col = hi * d;
                let q_h = pack_head(&q, bi * t, t, col, d);
                let k_h = pack_head(&k, bi * t, t, col, d);
                let v_h = pack_head(&v, bi * t, t, col, d);
                let mut p = q_h.matmul_bt_packed(&k_h);
                p.scale(scale);
                for i in 0..t {
                    let prow = p.row_mut(i);
                    // Causal mask: positions after i get -inf before softmax.
                    for pj in prow.iter_mut().skip(i + 1) {
                        *pj = f32::NEG_INFINITY;
                    }
                    softmax_in_place(prow);
                }
                let out_h = p.matmul_fast(&v_h);
                unpack_head(&mut out, &out_h, bi * t, col);
                probs.push(p);
            }
        }
        let y = self.proj.forward(&out);
        self.cache = Some(TrainCache {
            b,
            t,
            q,
            k,
            v,
            probs,
        });
        y
    }

    /// Backward pass; returns `dX` and accumulates projection gradients.
    ///
    /// # Panics
    ///
    /// Panics if called without a preceding [`forward`](Self::forward).
    #[must_use]
    pub fn backward(&mut self, dy: &Mat) -> Mat {
        let cache = self
            .cache
            .take()
            // LINT-ALLOW: no-unwrap-in-lib trainer API contract: forward
            // always precedes backward, documented as a panic above
            .expect("backward requires a cached forward");
        let TrainCache {
            b,
            t,
            q,
            k,
            v,
            probs,
        } = cache;
        let c = self.dim();
        let h = self.n_heads;
        let d = c / h;
        let scale = 1.0 / (d as f32).sqrt();

        let dout = self.proj.backward(dy);
        let mut dq = Mat::zeros(b * t, c);
        let mut dk = Mat::zeros(b * t, c);
        let mut dv = Mat::zeros(b * t, c);

        // Mirror of the packed-GEMM forward: every per-head product is a
        // small GEMM over contiguous t×d packs. `dp`'s above-diagonal
        // entries come out of the GEMM as garbage (the forward never
        // computed those scores); the softmax-backward loop overwrites them
        // with the zeros the math requires, and the zero-skip rule then
        // drops them from the dQ/dK products.
        for bi in 0..b {
            for hi in 0..h {
                let col = hi * d;
                let p = &probs[bi * h + hi];
                let q_h = pack_head(&q, bi * t, t, col, d);
                let k_h = pack_head(&k, bi * t, t, col, d);
                let v_h = pack_head(&v, bi * t, t, col, d);
                let do_h = pack_head(&dout, bi * t, t, col, d);
                // dp[i][j] = dout_i · v_j; dv_j = Σ_i p[i][j] dout_i
                let mut dp = do_h.matmul_bt_packed(&v_h);
                let mut dv_h = Mat::zeros(t, d);
                p.matmul_t_accum_fast(&do_h, &mut dv_h);
                // Softmax backward per row: ds = p ∘ (dp - Σ dp∘p)
                for i in 0..t {
                    let pi = p.row(i);
                    let dpi = dp.row_mut(i);
                    let mut dot_dp_p = 0.0f32;
                    for j in 0..=i {
                        dot_dp_p += dpi[j] * pi[j];
                    }
                    for j in 0..=i {
                        dpi[j] = pi[j] * (dpi[j] - dot_dp_p) * scale;
                    }
                    for dpj in dpi.iter_mut().skip(i + 1) {
                        *dpj = 0.0;
                    }
                }
                // dq_i = Σ_j ds[i][j] k_j ; dk_j = Σ_i ds[i][j] q_i
                let dq_h = dp.matmul_fast(&k_h);
                let mut dk_h = Mat::zeros(t, d);
                dp.matmul_t_accum_fast(&q_h, &mut dk_h);
                unpack_head(&mut dq, &dq_h, bi * t, col);
                unpack_head(&mut dk, &dk_h, bi * t, col);
                unpack_head(&mut dv, &dv_h, bi * t, col);
            }
        }

        // Reassemble the fused qkv gradient and push through the projection.
        let mut dqkv = Mat::zeros(b * t, 3 * c);
        for r in 0..b * t {
            let row = dqkv.row_mut(r);
            row[0..c].copy_from_slice(dq.row(r));
            row[c..2 * c].copy_from_slice(dk.row(r));
            row[2 * c..3 * c].copy_from_slice(dv.row(r));
        }
        self.qkv.backward(&dqkv)
    }

    /// Incremental decode step: `x` holds one token activation per sequence
    /// (`batch × dim` at position `cache.len()`); appends K/V to `cache` and
    /// returns the attended output (`batch × dim`).
    ///
    /// # Panics
    ///
    /// Panics if the cache belongs to a different batch size or is full.
    #[must_use]
    pub fn step(&self, x: &Mat, cache: &mut KvCache) -> Mat {
        self.step_with(None, x, cache)
    }

    /// [`step`](Self::step) with the two projections optionally swapped for
    /// their packed int8 twins. The attention math between them —
    /// scores, softmax, weighted value sum — is the same f32 code either
    /// way; only the `qkv` and output projections change.
    ///
    /// # Panics
    ///
    /// Panics if the cache belongs to a different batch size or is full.
    #[must_use]
    pub fn step_with(&self, quant: Option<&QSelfAttention>, x: &Mat, cache: &mut KvCache) -> Mat {
        let c = self.dim();
        let h = self.n_heads;
        let d = c / h;
        let scale = 1.0 / (d as f32).sqrt();
        let b = cache.batch;
        assert_eq!(x.rows(), b, "batch size must match the cache");
        assert!(cache.len < cache.ctx, "KV cache is full");

        let qkv = match quant {
            Some(q) => q.qkv.apply(x),
            None => self.qkv.apply(x),
        };
        let t_new = cache.len;
        for bi in 0..b {
            let row = qkv.row(bi);
            cache.k_row_mut(bi, t_new).copy_from_slice(&row[c..2 * c]);
            cache
                .v_row_mut(bi, t_new)
                .copy_from_slice(&row[2 * c..3 * c]);
        }

        let mut out = Mat::zeros(b, c);
        let mut scores = vec![0.0f32; t_new + 1];
        for bi in 0..b {
            let qrow = &qkv.row(bi)[0..c];
            for hi in 0..h {
                let col = hi * d;
                let qh = &qrow[col..col + d];
                for (j, s) in scores.iter_mut().enumerate() {
                    *s = dot(qh, &cache.k_row(bi, j)[col..col + d]) * scale;
                }
                // The quantized arm softmaxes through `fast_exp`: bounded
                // by that mode's accuracy budget, pinned by its goldens.
                // The f32 arm must keep libm `exp` bits exactly.
                if quant.is_some() {
                    softmax_in_place_fast(&mut scores);
                } else {
                    softmax_in_place(&mut scores);
                }
                let orow = &mut out.row_mut(bi)[col..col + d];
                for (j, &p) in scores.iter().enumerate() {
                    axpy(orow, p, &cache.v_row(bi, j)[col..col + d]);
                }
            }
        }
        match quant {
            Some(q) => q.proj.apply(&out),
            None => self.proj.apply(&out),
        }
    }

    /// Packs both projections for quantized decode.
    #[must_use]
    pub fn quantize(&self) -> QSelfAttention {
        QSelfAttention {
            qkv: self.qkv.quantize(),
            proj: self.proj.quantize(),
        }
    }

    /// Visits all parameters (optimizer hook).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.qkv.visit_params(f);
        self.proj.visit_params(f);
    }
}

/// [`SelfAttention`]'s quantized twin: both projections packed once; heads,
/// masking, and the KV cache stay in f32 on the [`SelfAttention`] that built
/// it.
#[derive(Debug, Clone)]
pub struct QSelfAttention {
    /// Packed fused query/key/value projection.
    pub qkv: QLinear,
    /// Packed output projection.
    pub proj: QLinear,
}

/// Copies the `d` head columns starting at `col` of rows `[row0, row0+t)`
/// into a contiguous `t×d` matrix so the per-head attention products can
/// run through the cache-blocked GEMM kernels.
fn pack_head(src: &Mat, row0: usize, t: usize, col: usize, d: usize) -> Mat {
    let mut out = Mat::zeros(t, d);
    for i in 0..t {
        out.row_mut(i)
            .copy_from_slice(&src.row(row0 + i)[col..col + d]);
    }
    out
}

/// Writes a packed `t×d` head matrix back into `dst`'s head columns.
fn unpack_head(dst: &mut Mat, src: &Mat, row0: usize, col: usize) {
    let d = src.cols();
    for i in 0..src.rows() {
        dst.row_mut(row0 + i)[col..col + d].copy_from_slice(src.row(i));
    }
}

/// Per-layer key/value cache for batched incremental decoding.
///
/// Stores keys and values for `batch` parallel sequences up to `ctx`
/// positions. One cache belongs to one attention layer; [`crate::Gpt`]
/// bundles one per layer.
///
/// Only the first [`len`](Self::len) positions of each row are meaningful.
/// Positions past it may hold stale K/V — left by
/// [`truncate_to`](Self::truncate_to), or by an earlier, longer or wider
/// use of a buffer that [`broadcast_into`](Self::broadcast_into) reuses —
/// and are never read before [`step`](SelfAttention::step) overwrites them,
/// because a step writes its own position before attending over it.
#[derive(Debug, Clone)]
pub struct KvCache {
    batch: usize,
    ctx: usize,
    dim: usize,
    len: usize,
    k: Vec<f32>,
    v: Vec<f32>,
}

impl KvCache {
    /// Creates an empty cache for `batch` sequences of up to `ctx` tokens
    /// with `dim` features.
    #[must_use]
    pub fn new(batch: usize, ctx: usize, dim: usize) -> KvCache {
        KvCache {
            batch,
            ctx,
            dim,
            len: 0,
            k: vec![0.0; batch * ctx * dim],
            v: vec![0.0; batch * ctx * dim],
        }
    }

    /// Number of cached positions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no positions are cached yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of parallel sequences.
    #[must_use]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Maximum number of positions.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ctx
    }

    /// Marks one more position as filled (call after every layer has
    /// appended its K/V for the current position).
    ///
    /// # Panics
    ///
    /// Panics if the cache is already full.
    pub fn advance(&mut self) {
        assert!(self.len < self.ctx, "KV cache is full");
        self.len += 1;
    }

    /// Resets to empty without deallocating.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Rewinds the cache to its first `len` positions.
    ///
    /// K/V rows past `len` are left in place but become unreachable:
    /// [`step`](SelfAttention::step) writes position `t` at row `t`, so a
    /// later re-fill overwrites them before they are read again. Because a
    /// cached K/V row is a pure function of the token/position embeddings
    /// and the rows before it, rewinding and re-feeding different tokens
    /// yields bit-identical state to a fresh decode of the new sequence.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the current length (truncation only moves
    /// backwards; use [`advance`](Self::advance) to grow).
    pub fn truncate_to(&mut self, len: usize) {
        assert!(
            len <= self.len,
            "cannot truncate a KV cache forward ({} -> {len})",
            self.len
        );
        self.len = len;
    }

    /// Replicates this single-sequence cache across `batch` parallel rows of
    /// `dst`, reusing `dst`'s buffers.
    ///
    /// Every target row receives this cache's filled prefix, which is
    /// exactly what feeding the same prefix to each row of a batch-`batch`
    /// decode produces — the attention step is row-independent — so
    /// broadcasting is bit-identical to priming each row separately.
    ///
    /// Only the `len` filled positions of each row are copied; `dst` grows
    /// its buffers when they are too small and otherwise keeps them. Rows
    /// past `len` may hold stale K/V from an earlier, longer or wider use,
    /// and that is safe for the reason [`truncate_to`](Self::truncate_to)
    /// gives: [`step`](SelfAttention::step) writes position `t` before any
    /// read of it.
    ///
    /// # Panics
    ///
    /// Panics if this cache holds more than one sequence.
    pub fn broadcast_into(&self, batch: usize, dst: &mut KvCache) {
        assert_eq!(self.batch, 1, "broadcast requires a single-sequence cache");
        let need = batch * self.ctx * self.dim;
        if dst.k.len() < need {
            dst.k = vec![0.0; need];
            dst.v = vec![0.0; need];
        }
        dst.batch = batch;
        dst.ctx = self.ctx;
        dst.dim = self.dim;
        dst.len = self.len;
        let filled = self.len * self.dim;
        for b in 0..batch {
            let o = b * self.ctx * self.dim;
            dst.k[o..o + filled].copy_from_slice(&self.k[..filled]);
            dst.v[o..o + filled].copy_from_slice(&self.v[..filled]);
        }
    }

    fn k_row(&self, b: usize, t: usize) -> &[f32] {
        let o = (b * self.ctx + t) * self.dim;
        &self.k[o..o + self.dim]
    }

    fn k_row_mut(&mut self, b: usize, t: usize) -> &mut [f32] {
        let o = (b * self.ctx + t) * self.dim;
        &mut self.k[o..o + self.dim]
    }

    fn v_row(&self, b: usize, t: usize) -> &[f32] {
        let o = (b * self.ctx + t) * self.dim;
        &self.v[o..o + self.dim]
    }

    fn v_row_mut(&mut self, b: usize, t: usize) -> &mut [f32] {
        let o = (b * self.ctx + t) * self.dim;
        &mut self.v[o..o + self.dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes_and_determinism() {
        let mut rng = Rng::seed_from(1);
        let mut attn = SelfAttention::new(8, 2, &mut rng);
        let x = Mat::randn(6, 8, 1.0, &mut rng);
        let y1 = attn.forward(&x, 2, 3);
        let y2 = attn.forward(&x, 2, 3);
        assert_eq!((y1.rows(), y1.cols()), (6, 8));
        assert_eq!(y1.as_slice(), y2.as_slice());
    }

    #[test]
    fn causality_later_tokens_do_not_affect_earlier_outputs() {
        let mut rng = Rng::seed_from(2);
        let mut attn = SelfAttention::new(8, 2, &mut rng);
        let x1 = Mat::randn(4, 8, 1.0, &mut rng);
        let mut x2 = x1.clone();
        // Perturb only the last token.
        for v in x2.row_mut(3) {
            *v += 1.0;
        }
        let y1 = attn.forward(&x1, 1, 4);
        let y2 = attn.forward(&x2, 1, 4);
        for r in 0..3 {
            for (a, b) in y1.row(r).iter().zip(y2.row(r)) {
                assert!((a - b).abs() < 1e-6, "row {r} changed");
            }
        }
        // The last row must change (sanity that attention is not constant).
        let changed = y1
            .row(3)
            .iter()
            .zip(y2.row(3))
            .any(|(a, b)| (a - b).abs() > 1e-4);
        assert!(changed);
    }

    #[test]
    fn sequences_in_a_batch_are_independent() {
        let mut rng = Rng::seed_from(3);
        let mut attn = SelfAttention::new(8, 2, &mut rng);
        let a = Mat::randn(3, 8, 1.0, &mut rng);
        let b = Mat::randn(3, 8, 1.0, &mut rng);
        // Batch [a; b] vs [a; a]: first sequence's output must be identical.
        let mut ab = Mat::zeros(6, 8);
        let mut aa = Mat::zeros(6, 8);
        for r in 0..3 {
            ab.row_mut(r).copy_from_slice(a.row(r));
            aa.row_mut(r).copy_from_slice(a.row(r));
            ab.row_mut(3 + r).copy_from_slice(b.row(r));
            aa.row_mut(3 + r).copy_from_slice(a.row(r));
        }
        let y_ab = attn.forward(&ab, 2, 3);
        let y_aa = attn.forward(&aa, 2, 3);
        for r in 0..3 {
            for (x, y) in y_ab.row(r).iter().zip(y_aa.row(r)) {
                assert!((x - y).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn step_matches_full_forward() {
        let mut rng = Rng::seed_from(4);
        let mut attn = SelfAttention::new(8, 2, &mut rng);
        let t = 5;
        let x = Mat::randn(t, 8, 1.0, &mut rng);
        let full = attn.forward(&x, 1, t);
        let mut cache = KvCache::new(1, t, 8);
        for i in 0..t {
            let xi = Mat::from_rows(1, 8, x.row(i).to_vec());
            let yi = attn.step(&xi, &mut cache);
            cache.advance();
            for (a, b) in yi.row(0).iter().zip(full.row(i)) {
                assert!((a - b).abs() < 1e-4, "position {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn batched_step_matches_single_steps() {
        let mut rng = Rng::seed_from(5);
        let attn = SelfAttention::new(8, 2, &mut Rng::seed_from(40));
        let xs: Vec<Mat> = (0..3).map(|_| Mat::randn(1, 8, 1.0, &mut rng)).collect();
        // Batched.
        let mut batched = Mat::zeros(3, 8);
        for (i, x) in xs.iter().enumerate() {
            batched.row_mut(i).copy_from_slice(x.row(0));
        }
        let mut cache_b = KvCache::new(3, 4, 8);
        let yb = attn.step(&batched, &mut cache_b);
        // Individually.
        for (i, x) in xs.iter().enumerate() {
            let mut cache_1 = KvCache::new(1, 4, 8);
            let y1 = attn.step(x, &mut cache_1);
            for (a, b) in y1.row(0).iter().zip(yb.row(i)) {
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn broadcast_into_reuses_buffers_and_ignores_stale_rows() {
        let (ctx, dim) = (8, 8);
        let attn = SelfAttention::new(dim, 2, &mut Rng::seed_from(41));
        let mut rng = Rng::seed_from(6);
        // A batch-1 cache primed with `len` random token activations.
        let mut prime = |len: usize| {
            let xs: Vec<Mat> = (0..len)
                .map(|_| Mat::randn(1, dim, 1.0, &mut rng))
                .collect();
            let mut cache = KvCache::new(1, ctx, dim);
            for x in &xs {
                let _ = attn.step(x, &mut cache);
                cache.advance();
            }
            (xs, cache)
        };
        let (_, long) = prime(5);
        let (short_xs, short) = prime(2);
        let steps: Vec<Mat> = (0..4)
            .map(|i| Mat::randn(if i == 0 { 5 } else { 3 }, dim, 1.0, &mut rng))
            .collect();

        // A long prefix at batch 5, stepped once: positions 0..6 of every
        // row hold K/V that the short prefix below must never see.
        let mut wide = KvCache::new(0, ctx, dim);
        long.broadcast_into(5, &mut wide);
        let _ = attn.step(&steps[0], &mut wide);
        wide.advance();
        let k_addr = wide.k.as_ptr();
        short.broadcast_into(3, &mut wide);
        assert_eq!(wide.k.as_ptr(), k_addr, "a large enough target keeps its K");
        assert_eq!((wide.batch(), wide.len()), (3, 2));

        // The reference: a fresh batch-3 cache fed the short prefix on
        // every row, as `Gpt::begin_decode` would start it.
        let mut fresh = KvCache::new(3, ctx, dim);
        for x in &short_xs {
            let rows = Mat::from_rows(3, dim, x.row(0).repeat(3));
            let _ = attn.step(&rows, &mut fresh);
            fresh.advance();
        }
        for x in &steps[1..] {
            let got = attn.step(x, &mut wide);
            let want = attn.step(x, &mut fresh);
            assert_eq!(got.as_slice(), want.as_slice(), "a stale row leaked");
            wide.advance();
            fresh.advance();
        }
    }

    #[test]
    fn kv_cache_lifecycle() {
        let mut c = KvCache::new(2, 3, 4);
        assert!(c.is_empty());
        assert_eq!(c.batch(), 2);
        assert_eq!(c.capacity(), 3);
        c.advance();
        c.advance();
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "full")]
    fn kv_cache_overflow_panics() {
        let mut c = KvCache::new(1, 1, 4);
        c.advance();
        c.advance();
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn dim_must_divide_heads() {
        let _ = SelfAttention::new(7, 2, &mut Rng::seed_from(0));
    }
}
