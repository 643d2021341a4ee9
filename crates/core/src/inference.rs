//! Unified inference layer: rule-prefix construction and KV-cached
//! incremental decoding shared by every generation path.
//!
//! Two pieces live here:
//!
//! * [`RulePrefix`] — the single builder for the `<BOS> [pattern <SEP>]
//!   [password chars]` prompt that free, guided, leaf, and distribution
//!   queries all start from. Before this module each call site re-derived
//!   the prompt by hand (and panicked on out-of-vocabulary characters);
//!   now there is one implementation and it returns [`CoreError`]s.
//! * [`InferenceSession`] — a stateful wrapper around one
//!   [`DecodeState`](pagpass_nn::Gpt::begin_decode) that answers
//!   consecutive queries by *seeking*: it truncates the KV cache back to
//!   the longest common prefix with the previous query and feeds only the
//!   suffix. D&C-GEN's task tree visits prefixes in breadth-first order,
//!   so consecutive tasks usually share all but one character — a worker
//!   threading one session through its tasks pays O(depth) forwards per
//!   lineage instead of the O(depth²) that per-task full forwards cost.
//!
//! # Exactness
//!
//! Seeking is *bit-exact*, not approximate: a cached K/V row at position
//! `p` is a pure function of the token and position embeddings at `p` and
//! the rows before it, so truncating to a shared prefix and re-feeding a
//! different suffix produces exactly the floats a fresh decode of the new
//! sequence would. The same argument covers
//! [`DecodeState::broadcast`](pagpass_nn::KvCache::broadcast): attention
//! rows never interact across a batch, so replicating a batch-1 prefix
//! cache equals feeding the prefix to every row. The cached-vs-uncached
//! tests in this module assert `==` on logits, not an epsilon.

use pagpass_nn::{softmax_in_place, DecodeState, KernelMode, Mat, QuantizedGpt, Rng};
use pagpass_patterns::Pattern;
use pagpass_telemetry::{Counter, Histogram, Telemetry, LATENCY_MS_BOUNDS};
use pagpass_tokenizer::{TokenId, TokenizeError, Tokenizer, Vocab};

use crate::generate::{sample_batched_primed, SamplePlan};
use crate::model::{ModelKind, PasswordModel};
use crate::CoreError;

/// Telemetry counter fed by every session: KV positions served from the
/// cache instead of recomputed. The journal's `prefix_cache_hits` stat and
/// the paired bench both read this.
pub const PREFIX_REUSE_COUNTER: &str = "dcgen.prefix_reuse_tokens";

/// Histogram of wall time per batched forward phase
/// ([`InferenceSession::score_batch`]), milliseconds. The serve HTTP plane
/// exposes it via `GET /metrics` as `inference_forward_ms`.
pub const FORWARD_MS_HISTOGRAM: &str = "inference.forward.ms";

/// The token prompt a generation query starts from, according to the model
/// kind: `<BOS>` alone, `<BOS> pattern <SEP>` for pattern-conditioned
/// PagPassGPT queries, optionally extended with already-fixed password
/// characters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RulePrefix {
    ids: Vec<TokenId>,
}

impl RulePrefix {
    /// Unconditioned prompt: `<BOS>` alone (trawling generation, and the
    /// base for PassGPT's filter-style guided generation).
    #[must_use]
    pub fn free() -> RulePrefix {
        RulePrefix {
            ids: vec![Vocab::BOS],
        }
    }

    /// Pattern-conditioned prompt. PagPassGPT primes with
    /// `<BOS> pattern <SEP>` (the pattern is context, paper Eq. 1);
    /// PassGPT has no pattern section in its rules, so its guided prompt
    /// is `<BOS>` and the pattern is enforced by per-step masks instead.
    #[must_use]
    pub fn guided(tokenizer: &Tokenizer, kind: ModelKind, pattern: &Pattern) -> RulePrefix {
        match kind {
            ModelKind::PagPassGpt => RulePrefix {
                ids: tokenizer.encode_generation_prefix(pattern),
            },
            ModelKind::PassGpt => RulePrefix::free(),
        }
    }

    /// [`guided`](Self::guided) extended with password characters already
    /// fixed by the caller (a D&C-GEN task prefix).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Tokenize`] if a prefix character is outside
    /// the vocabulary.
    pub fn constrained(
        tokenizer: &Tokenizer,
        kind: ModelKind,
        pattern: &Pattern,
        prefix_chars: &str,
    ) -> Result<RulePrefix, CoreError> {
        let mut base = RulePrefix::guided(tokenizer, kind, pattern);
        let vocab = tokenizer.vocab();
        for c in prefix_chars.chars() {
            base.ids
                .push(vocab.char_id(c).ok_or(TokenizeError::UnknownChar(c))?);
        }
        Ok(base)
    }

    /// The prompt token ids.
    #[must_use]
    pub fn ids(&self) -> &[TokenId] {
        &self.ids
    }

    /// Number of prompt tokens.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// A rule prefix always contains at least `<BOS>`.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Consumes the builder, yielding the prompt ids.
    #[must_use]
    pub fn into_ids(self) -> Vec<TokenId> {
        self.ids
    }
}

/// A KV-cached decoding session over one model.
///
/// The session owns a batch-1 [`DecodeState`] plus the token sequence it
/// currently holds. Every query seeks to its target prompt — truncating
/// back to the longest common prefix and feeding only the divergent
/// suffix — then answers from the resulting logits. Queries through a
/// session return bit-identical results to stateless full forwards (see
/// the module docs), they just skip recomputing shared prefixes.
///
/// Sessions are cheap relative to the model but hold `n_layers` KV caches
/// of `ctx_len` positions; D&C-GEN creates one per worker thread and
/// threads it through every split and leaf that worker executes.
pub struct InferenceSession<'m> {
    model: &'m PasswordModel,
    /// Pack-once int8 decode weights, present iff the session was built
    /// under [`KernelMode::Quantized`].
    quant: Option<QuantizedGpt>,
    state: DecodeState,
    /// Tokens currently in the cache; `state.pos() == tokens.len()`.
    tokens: Vec<TokenId>,
    /// Logits after the last fed token (empty until the first feed).
    last_logits: Vec<f32>,
    reuse_counter: Counter,
    /// Wall time of whole batched-forward phases ([`Self::score_batch`]).
    forward_ms: Histogram,
    reused: u64,
    computed: u64,
}

impl std::fmt::Debug for InferenceSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceSession")
            .field("cached", &self.tokens.len())
            .field("reused", &self.reused)
            .field("computed", &self.computed)
            .finish()
    }
}

impl<'m> InferenceSession<'m> {
    /// Opens a session with no telemetry (counts into the silent disabled
    /// registry).
    #[must_use]
    pub fn new(model: &'m PasswordModel) -> InferenceSession<'m> {
        InferenceSession::with_telemetry(model, Telemetry::disabled())
    }

    /// Opens a session whose cache hits feed `tel`'s
    /// [`PREFIX_REUSE_COUNTER`].
    ///
    /// This is the quantized-decode prepare step: when the process-wide
    /// kernel mode is [`KernelMode::Quantized`], the model's decode-path
    /// weights are packed into int8 blocks here, once, and every decode
    /// this session performs routes through them. Under any other mode the
    /// session decodes in bit-exact f32.
    #[must_use]
    pub fn with_telemetry(model: &'m PasswordModel, tel: &Telemetry) -> InferenceSession<'m> {
        let quant =
            (pagpass_nn::kernel_mode() == KernelMode::Quantized).then(|| model.gpt().quantize());
        InferenceSession {
            model,
            quant,
            state: model.gpt().begin_decode(1),
            tokens: Vec::new(),
            last_logits: Vec::new(),
            reuse_counter: tel.counter(PREFIX_REUSE_COUNTER),
            forward_ms: tel
                .registry()
                .histogram(FORWARD_MS_HISTOGRAM, LATENCY_MS_BOUNDS),
            reused: 0,
            computed: 0,
        }
    }

    /// KV positions this session served from cache instead of recomputing.
    #[must_use]
    pub fn reused_tokens(&self) -> u64 {
        self.reused
    }

    /// Token forwards this session actually computed.
    #[must_use]
    pub fn computed_tokens(&self) -> u64 {
        self.computed
    }

    /// Drops all cached state; the next query recomputes its prompt from
    /// scratch.
    pub fn reset(&mut self) {
        self.state.clear();
        self.tokens.clear();
        self.last_logits.clear();
    }

    /// Feeds one token and records its logits.
    fn feed(&mut self, tok: TokenId) {
        let logits =
            self.model
                .gpt()
                .decode_step_with(self.quant.as_ref(), &[tok], &mut self.state);
        self.last_logits.clear();
        self.last_logits.extend_from_slice(logits.row(0));
        self.tokens.push(tok);
        self.computed += 1;
    }

    /// Moves the session to exactly `target`: truncates back to the
    /// longest common prefix with the cached tokens and feeds the rest.
    /// Afterwards `last_logits` holds the next-token logits for `target`.
    fn seek(&mut self, target: &[TokenId]) {
        debug_assert!(!target.is_empty(), "rule prefixes always carry <BOS>");
        let lcp = self
            .tokens
            .iter()
            .zip(target)
            .take_while(|(a, b)| a == b)
            .count();
        let keep = if lcp == target.len() && self.tokens.len() == target.len() {
            // Exact hit: the cached logits already answer this query.
            lcp
        } else {
            // Re-feed at least the final token so `last_logits` matches
            // the target; everything before the divergence is kept.
            lcp.min(target.len() - 1)
        };
        if keep < self.tokens.len() {
            self.state.truncate_to(keep);
            self.tokens.truncate(keep);
        }
        self.reused += keep as u64;
        self.reuse_counter.add(keep as u64);
        for &tok in &target[keep..] {
            self.feed(tok);
        }
    }

    /// Next-token distribution over character ids given a pattern and a
    /// password prefix — the quantity D&C-GEN splits tasks with
    /// (Algorithm 1, line 15), restricted to the class the pattern
    /// requires at the next position and renormalized.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PrefixTooLong`] when the prefix already covers
    /// the whole pattern and [`CoreError::Tokenize`] for prefix characters
    /// outside the vocabulary.
    pub fn next_char_distribution(
        &mut self,
        pattern: &Pattern,
        prefix_chars: &str,
    ) -> Result<(Vec<TokenId>, Vec<f64>), CoreError> {
        let model = self.model;
        let vocab = model.tokenizer().vocab();
        let pos = prefix_chars.chars().count();
        let class = pattern.class_at(pos).ok_or(CoreError::PrefixTooLong {
            prefix_len: pos,
            pattern_len: pattern.char_len(),
        })?;
        let allowed = vocab.class_char_ids(class);
        let prompt =
            RulePrefix::constrained(model.tokenizer(), model.kind(), pattern, prefix_chars)?;
        self.seek(prompt.ids());
        let logits = &self.last_logits;
        let mut weights: Vec<f64> = allowed
            .iter()
            .map(|&id| f64::from(logits[id as usize]))
            .collect();
        let max = weights.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for w in &mut weights {
            *w = (*w - max).exp();
            sum += *w;
        }
        for w in &mut weights {
            *w /= sum;
        }
        Ok((allowed, weights))
    }

    /// Continuation sampling for a D&C-GEN leaf: `n` passwords conforming
    /// to `pattern` that start with `prefix_chars`. The session advances
    /// its batch-1 cache to the leaf's prompt once, then every sampling
    /// batch is primed by broadcasting that cache — the prompt is never
    /// recomputed per batch row.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PrefixTooLong`] when the prefix is longer than
    /// the pattern and [`CoreError::Tokenize`] for prefix characters
    /// outside the vocabulary.
    pub fn generate_leaf(
        &mut self,
        pattern: &Pattern,
        prefix_chars: &str,
        n: usize,
        temperature: f32,
        rng: &mut Rng,
    ) -> Result<Vec<String>, CoreError> {
        let model = self.model;
        let vocab = model.tokenizer().vocab();
        let done = prefix_chars.chars().count();
        let total = pattern.char_len();
        if done > total {
            return Err(CoreError::PrefixTooLong {
                prefix_len: done,
                pattern_len: total,
            });
        }
        // Masks are computed once per leaf; the plan callback hands out
        // borrows, so sampling steps allocate nothing for them.
        let masks: Vec<Vec<TokenId>> = pattern
            .position_classes()
            .skip(done)
            .map(|class| vocab.class_char_ids(class))
            .collect();
        let prompt =
            RulePrefix::constrained(model.tokenizer(), model.kind(), pattern, prefix_chars)?;
        self.seek(prompt.ids());
        let plan = SamplePlan {
            prefix: prompt.ids().to_vec(),
            max_new: total - done,
            temperature,
            banned: model.banned_ids(),
            allowed_at: Box::new(|step| masks.get(step).map(Vec::as_slice)),
        };
        let sequences = sample_batched_primed(
            model.gpt(),
            self.quant.as_ref(),
            vocab,
            &plan,
            n,
            PasswordModel::GEN_BATCH,
            rng,
            &mut |b| {
                // Every batch row starts from the cached prompt: count the
                // row-steps the broadcast saved.
                let hits = (self.state.pos() * b) as u64;
                self.reused += hits;
                self.reuse_counter.add(hits);
                (self.state.broadcast(b), replicate_row(&self.last_logits, b))
            },
        );
        Ok(sequences
            .into_iter()
            .map(|ids| {
                let mut pw = prefix_chars.to_owned();
                pw.push_str(&model.decode_chars(&ids));
                pw
            })
            .collect())
    }

    /// Natural-log probability the model assigns to `password` (the
    /// product of conditional token probabilities over its full rule).
    /// Scoring needs logits at *every* position, so it always recomputes;
    /// the session is reset first.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Tokenize`] for passwords outside the alphabet
    /// and [`CoreError::RuleTooLong`] when the encoded rule exceeds the
    /// context window.
    pub fn log_probability(&mut self, password: &str) -> Result<f64, CoreError> {
        let rule = self.encode_scorable(password)?;
        self.reset();
        let mut lp = 0.0f64;
        for (i, &tok) in rule.iter().enumerate() {
            if i > 0 {
                let mut probs = self.last_logits.clone();
                softmax_in_place(&mut probs);
                lp += f64::from(probs[tok as usize].max(1e-20)).ln();
            }
            self.feed(tok);
        }
        Ok(lp)
    }

    /// Encodes a password and checks the rule fits the context window.
    fn encode_scorable(&self, password: &str) -> Result<Vec<TokenId>, CoreError> {
        let rule = self.model.encode(password)?;
        let ctx_len = self.model.gpt().config().ctx_len;
        if rule.len() > ctx_len {
            return Err(CoreError::RuleTooLong {
                rule_len: rule.len(),
                ctx_len,
            });
        }
        Ok(rule)
    }

    /// Scores many passwords in batched forwards: one row per scorable
    /// password, every decode step processing the whole batch. Returns one
    /// result per input, in input order — per-row failures (unknown
    /// characters, oversized rules) never disturb their neighbors.
    ///
    /// Every rule starts with `<BOS>`, so the batch is assembled by
    /// seeking this session to `<BOS>` once and broadcasting that cache
    /// across the batch ([`DecodeState::broadcast`]); rows shorter than
    /// the longest rule re-feed `<BOS>` as an inert filler once their own
    /// tokens run out (attention rows never interact across a batch, so a
    /// filler feed cannot perturb any other row, and a finished row's own
    /// score is already fully accumulated).
    ///
    /// # Exactness
    ///
    /// Per-row results are **bit-identical** to calling
    /// [`log_probability`](Self::log_probability) on each password alone:
    /// the decode path runs row-independent exact kernels, and the per-row
    /// f64 accumulation order here matches the solo loop term for term.
    /// The serve smoke-test and `score_batch_is_bit_identical_to_solo`
    /// assert `==` on the scores, not an epsilon.
    pub fn score_batch(&mut self, passwords: &[impl AsRef<str>]) -> Vec<Result<f64, CoreError>> {
        // DET: wall-clock timing feeds the forward-phase latency histogram
        // only; it never influences scores or token streams.
        let started = std::time::Instant::now();
        let scores = self.score_batch_inner(passwords);
        self.forward_ms
            .record(started.elapsed().as_secs_f64() * 1e3);
        scores
    }

    fn score_batch_inner(&mut self, passwords: &[impl AsRef<str>]) -> Vec<Result<f64, CoreError>> {
        let encoded: Vec<Result<Vec<TokenId>, CoreError>> = passwords
            .iter()
            .map(|pw| self.encode_scorable(pw.as_ref()))
            .collect();
        let rules: Vec<&[TokenId]> = encoded.iter().filter_map(|r| r.as_deref().ok()).collect();
        let Some(max_len) = rules.iter().map(|r| r.len()).max() else {
            // Nothing scorable: every slot already carries its error.
            return encoded.into_iter().map(|r| r.map(|_| 0.0)).collect();
        };
        let b = rules.len();
        // Assemble the batch from this session's cache: seek to the shared
        // `<BOS>` prompt (bit-exact, possibly reused from the previous
        // wave) and replicate it across the batch.
        self.seek(&[Vocab::BOS]);
        let mut wide = self.state.broadcast(b);
        let saved = (self.state.pos() * b) as u64;
        self.reused += saved;
        self.reuse_counter.add(saved);
        // Logits matrix after the tokens fed so far; row r scores its
        // token at index `pos` exactly as the solo loop would.
        let mut logits = replicate_row(&self.last_logits, b);
        let mut lps = vec![0.0f64; b];
        for pos in 1..max_len {
            for (r, rule) in rules.iter().enumerate() {
                if pos < rule.len() {
                    let mut probs = logits.row(r).to_vec();
                    softmax_in_place(&mut probs);
                    lps[r] += f64::from(probs[rule[pos] as usize].max(1e-20)).ln();
                }
            }
            if pos + 1 < max_len {
                // Feed index `pos`; exhausted rows feed the inert filler.
                let tokens: Vec<TokenId> = rules
                    .iter()
                    .map(|rule| rule.get(pos).copied().unwrap_or(Vocab::BOS))
                    .collect();
                logits = self
                    .model
                    .gpt()
                    .decode_step_with(self.quant.as_ref(), &tokens, &mut wide);
                self.computed += b as u64;
            }
        }
        let mut scored = lps.into_iter();
        encoded
            .into_iter()
            .map(|slot| slot.map(|_| scored.next().unwrap_or(0.0)))
            .collect()
    }
}

/// Replicates one logits row across `b` batch rows.
fn replicate_row(row: &[f32], b: usize) -> Mat {
    let mut data = Vec::with_capacity(row.len() * b);
    for _ in 0..b {
        data.extend_from_slice(row);
    }
    Mat::from_rows(b, row.len(), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagpass_nn::GptConfig;
    use pagpass_tokenizer::VOCAB_SIZE;

    fn tiny(kind: ModelKind) -> PasswordModel {
        PasswordModel::new(
            kind,
            GptConfig {
                vocab_size: VOCAB_SIZE,
                ctx_len: 32,
                dim: 16,
                n_layers: 1,
                n_heads: 2,
            },
            3,
        )
    }

    #[test]
    fn rule_prefix_shapes_per_kind() {
        let tok = Tokenizer::new();
        let pattern: Pattern = "L3N2".parse().unwrap();
        assert_eq!(RulePrefix::free().ids(), &[Vocab::BOS]);
        let pag = RulePrefix::guided(&tok, ModelKind::PagPassGpt, &pattern);
        assert_eq!(pag.ids(), &tok.encode_generation_prefix(&pattern)[..]);
        let pass = RulePrefix::guided(&tok, ModelKind::PassGpt, &pattern);
        assert_eq!(pass.ids(), &[Vocab::BOS]);
        let ext = RulePrefix::constrained(&tok, ModelKind::PagPassGpt, &pattern, "ab").unwrap();
        assert_eq!(ext.len(), pag.len() + 2);
        assert!(!ext.is_empty());
    }

    #[test]
    fn rule_prefix_rejects_unknown_chars() {
        let tok = Tokenizer::new();
        let pattern: Pattern = "L3".parse().unwrap();
        let err = RulePrefix::constrained(&tok, ModelKind::PagPassGpt, &pattern, "a\u{1f600}");
        assert!(matches!(err, Err(CoreError::Tokenize(_))));
    }

    #[test]
    fn session_distribution_matches_full_forward_on_random_prefixes() {
        // The tentpole equivalence guarantee: a session answering queries
        // for many different prefixes — hitting truncate/reuse paths in
        // every order — returns *bit-identical* distributions to fresh
        // full forwards.
        let model = tiny(ModelKind::PagPassGpt);
        let pattern: Pattern = "L3N2S1".parse().unwrap();
        let mut session = InferenceSession::new(&model);
        let mut rng = Rng::seed_from(11);
        let letters = "abcdefghijklmnopqrstuvwxyz";
        let digits = "0123456789";
        for trial in 0..40 {
            // Random prefix of random length (0..=5) conforming to the
            // pattern's classes.
            let len = rng.below(6);
            let mut prefix = String::new();
            for i in 0..len {
                let pool = if i < 3 { letters } else { digits };
                let k = rng.below(pool.len());
                prefix.push(pool.as_bytes()[k] as char);
            }
            let (ids, probs) = session.next_char_distribution(&pattern, &prefix).unwrap();
            let (ref_ids, ref_probs) = reference_distribution(&model, &pattern, &prefix);
            assert_eq!(ids, ref_ids, "trial {trial} prefix {prefix:?}");
            assert_eq!(probs, ref_probs, "trial {trial} prefix {prefix:?}");
        }
        assert!(
            session.reused_tokens() > 0,
            "40 related queries must hit the cache"
        );
    }

    #[test]
    fn best_first_access_pattern_is_bit_exact_against_full_forwards() {
        // SOPG's frontier hops between unrelated subtrees — a child of
        // "qx" one query, a sibling of "ab" the next — so the session
        // repeatedly truncates to shallow shared prefixes instead of
        // walking a single lineage like D&C-GEN's FIFO order does.
        // Replay an actual best-first expansion and demand every
        // distribution equal a fresh full forward bitwise.
        let model = tiny(ModelKind::PagPassGpt);
        let pattern: Pattern = "L2N2".parse().unwrap();
        let vocab = model.tokenizer().vocab();
        let mut session = InferenceSession::new(&model);
        let mut frontier: Vec<(f64, String)> = vec![(0.0, String::new())];
        for _ in 0..30 {
            let best = frontier
                .iter()
                .enumerate()
                .filter(|(_, (_, p))| p.chars().count() < pattern.char_len())
                .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0).then(b.1 .1.cmp(&a.1 .1)))
                .map(|(i, _)| i)
                .expect("pattern space is deep enough for 30 expansions");
            let (lp, prefix) = frontier.swap_remove(best);
            let (ids, probs) = session.next_char_distribution(&pattern, &prefix).unwrap();
            let (ref_ids, ref_probs) = reference_distribution(&model, &pattern, &prefix);
            assert_eq!(ids, ref_ids, "prefix {prefix:?}");
            assert_eq!(probs, ref_probs, "prefix {prefix:?}");
            for (&id, &p) in ids.iter().zip(&probs) {
                if let Some(pagpass_tokenizer::Token::Char(c)) = vocab.token_of(id) {
                    let mut child = prefix.clone();
                    child.push(c);
                    frontier.push((lp + p.ln(), child));
                }
            }
        }
        assert!(
            session.reused_tokens() > 0,
            "best-first hopping must still reuse shared shallow prefixes"
        );
    }

    /// The pre-refactor implementation: full forward from token zero.
    fn reference_distribution(
        model: &PasswordModel,
        pattern: &Pattern,
        prefix_chars: &str,
    ) -> (Vec<TokenId>, Vec<f64>) {
        let vocab = model.tokenizer().vocab();
        let pos = prefix_chars.chars().count();
        let class = pattern.class_at(pos).unwrap();
        let allowed = vocab.class_char_ids(class);
        let prompt =
            RulePrefix::constrained(model.tokenizer(), model.kind(), pattern, prefix_chars)
                .unwrap();
        let logits = model.gpt().next_token_logits(prompt.ids());
        let mut weights: Vec<f64> = allowed
            .iter()
            .map(|&id| f64::from(logits[id as usize]))
            .collect();
        let max = weights.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for w in &mut weights {
            *w = (*w - max).exp();
            sum += *w;
        }
        for w in &mut weights {
            *w /= sum;
        }
        (allowed, weights)
    }

    #[test]
    fn sibling_queries_reuse_the_parent_prefix() {
        let model = tiny(ModelKind::PagPassGpt);
        let pattern: Pattern = "L4N2".parse().unwrap();
        let mut session = InferenceSession::new(&model);
        let _ = session.next_char_distribution(&pattern, "ab").unwrap();
        let after_first = session.computed_tokens();
        // Sibling prefixes share all but the last character.
        let _ = session.next_char_distribution(&pattern, "ac").unwrap();
        assert_eq!(
            session.computed_tokens(),
            after_first + 1,
            "a sibling query must feed exactly one new token"
        );
        // Exact repeat: nothing recomputed at all.
        let _ = session.next_char_distribution(&pattern, "ac").unwrap();
        assert_eq!(session.computed_tokens(), after_first + 1);
    }

    #[test]
    fn session_leaf_matches_model_leaf() {
        // generate_leaf through a warm session must equal the same call on
        // a fresh one: same RNG stream, bit-identical logits, same
        // passwords.
        let model = tiny(ModelKind::PagPassGpt);
        let pattern: Pattern = "L4N2".parse().unwrap();
        let mut session = InferenceSession::new(&model);
        // Warm the cache on an unrelated prefix first.
        let _ = session.next_char_distribution(&pattern, "zz").unwrap();
        let mut rng_a = Rng::seed_from(7);
        let a = session
            .generate_leaf(&pattern, "ab", 150, 1.0, &mut rng_a)
            .unwrap();
        let mut rng_b = Rng::seed_from(7);
        let b = InferenceSession::new(&model)
            .generate_leaf(&pattern, "ab", 150, 1.0, &mut rng_b)
            .unwrap();
        assert_eq!(a, b);
        for pw in &a {
            assert!(pw.starts_with("ab"), "{pw}");
            assert!(pattern.matches(pw), "{pw}");
        }
    }

    #[test]
    fn prefix_longer_than_pattern_is_an_error() {
        let model = tiny(ModelKind::PagPassGpt);
        let pattern: Pattern = "L2".parse().unwrap();
        let mut session = InferenceSession::new(&model);
        assert!(matches!(
            session.next_char_distribution(&pattern, "abc"),
            Err(CoreError::PrefixTooLong { .. })
        ));
        let mut rng = Rng::seed_from(1);
        assert!(matches!(
            session.generate_leaf(&pattern, "abc", 5, 1.0, &mut rng),
            Err(CoreError::PrefixTooLong { .. })
        ));
    }

    #[test]
    fn log_probability_matches_model_api() {
        let model = tiny(ModelKind::PagPassGpt);
        let mut session = InferenceSession::new(&model);
        let via_session = session.log_probability("abc12").unwrap();
        let via_model = model.log_probability("abc12").unwrap();
        assert_eq!(via_session, via_model);
        assert!(session.log_probability("has space").is_err());
    }

    #[test]
    fn score_batch_is_bit_identical_to_solo() {
        // The serving guarantee: co-batched scoring returns exactly the
        // floats a one-shot solo scoring of each password returns — `==`,
        // not an epsilon — regardless of batch composition or row order.
        let model = tiny(ModelKind::PagPassGpt);
        let passwords = ["abc12", "zzz", "q1w2e3", "a", "longerpw9"];
        let solo: Vec<f64> = passwords
            .iter()
            .map(|pw| InferenceSession::new(&model).log_probability(pw).unwrap())
            .collect();
        let mut session = InferenceSession::new(&model);
        let batched = session.score_batch(&passwords);
        for ((pw, want), got) in passwords.iter().zip(&solo).zip(&batched) {
            assert_eq!(
                got.as_ref().copied().unwrap(),
                *want,
                "batched score for {pw:?} diverged from solo"
            );
        }
        // A different batch shape scores the same rows identically.
        let rebatched = session.score_batch(&passwords[..2]);
        assert_eq!(rebatched[0].as_ref().copied().unwrap(), solo[0]);
        assert_eq!(rebatched[1].as_ref().copied().unwrap(), solo[1]);
    }

    #[test]
    fn score_batch_isolates_per_row_failures() {
        let model = tiny(ModelKind::PagPassGpt);
        let mut session = InferenceSession::new(&model);
        let solo = InferenceSession::new(&model)
            .log_probability("abc12")
            .unwrap();
        let results = session.score_batch(&["abc12", "has space", "abc12"]);
        assert_eq!(results[0].as_ref().copied().unwrap(), solo);
        assert!(matches!(results[1], Err(CoreError::Tokenize(_))));
        assert_eq!(results[2].as_ref().copied().unwrap(), solo);
        // An all-error batch still answers slot by slot.
        let all_bad = session.score_batch(&["bad pw", "also bad"]);
        assert!(all_bad.iter().all(Result::is_err));
    }

    #[test]
    fn oversized_rules_error_instead_of_panicking() {
        // 16 single-char segments encode past the 32-token window; both
        // scoring paths must reject, not panic the decode loop.
        let model = tiny(ModelKind::PagPassGpt);
        let long = "a1b2c3d4e5f6g7h8";
        let mut session = InferenceSession::new(&model);
        assert!(matches!(
            session.log_probability(long),
            Err(CoreError::RuleTooLong { .. })
        ));
        let results = session.score_batch(&["abc12", long]);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(CoreError::RuleTooLong { .. })));
    }
}
