use std::path::Path;

use pagpass_nn::{Gpt, GptConfig, Rng};
use pagpass_patterns::Pattern;
use pagpass_tokenizer::{TokenId, Tokenizer, Vocab};

use crate::generate::{sample_batched, SamplePlan};
use crate::inference::{InferenceSession, RulePrefix};
use crate::trainer::{run_training, run_training_with, TrainConfig, TrainOptions, TrainingReport};
use crate::CoreError;

/// Which rule encoding a [`PasswordModel`] is trained on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Rando et al. 2023 baseline: `<BOS> password <EOS>`; guided
    /// generation filters tokens to the pattern's character classes.
    PassGpt,
    /// The paper's model: `<BOS> pattern <SEP> password <EOS>`; guided
    /// generation conditions on the pattern prefix (Eq. 1).
    PagPassGpt,
}

impl ModelKind {
    /// Display name matching the paper's tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::PassGpt => "PassGPT",
            ModelKind::PagPassGpt => "PagPassGPT",
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A GPT-backed password guessing model — either PassGPT or PagPassGPT,
/// sharing the same backbone, vocabulary, and training loop so comparisons
/// isolate the paper's contribution (pattern conditioning).
///
/// # Examples
///
/// Construction and free generation (untrained models produce noise but
/// exercise the full pipeline):
///
/// ```
/// use pagpassgpt::{ModelKind, PasswordModel};
/// use pagpass_nn::GptConfig;
/// use pagpass_tokenizer::VOCAB_SIZE;
///
/// let model = PasswordModel::new(ModelKind::PassGpt, GptConfig::tiny(VOCAB_SIZE), 1);
/// let guesses = model.generate_free(8, 1.0, 99);
/// assert_eq!(guesses.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct PasswordModel {
    kind: ModelKind,
    gpt: Gpt,
    tokenizer: Tokenizer,
}

impl PasswordModel {
    /// Batch width used for sampling.
    pub(crate) const GEN_BATCH: usize = 128;

    /// Initializes an untrained model.
    ///
    /// # Panics
    ///
    /// Panics if `config.vocab_size` differs from the tokenizer's
    /// vocabulary or `dim % n_heads != 0`.
    #[must_use]
    pub fn new(kind: ModelKind, config: GptConfig, seed: u64) -> PasswordModel {
        assert_eq!(
            config.vocab_size,
            pagpass_tokenizer::VOCAB_SIZE,
            "model vocabulary must match the tokenizer"
        );
        PasswordModel {
            kind,
            gpt: Gpt::new(config, &mut Rng::seed_from(seed)),
            tokenizer: Tokenizer::new(),
        }
    }

    /// The rule encoding this model uses.
    #[must_use]
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The underlying transformer.
    #[must_use]
    pub fn gpt(&self) -> &Gpt {
        &self.gpt
    }

    /// The tokenizer (shared fixed vocabulary).
    #[must_use]
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Encodes one training rule according to the model kind.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Tokenize`] for passwords outside the alphabet.
    pub fn encode(&self, password: &str) -> Result<Vec<TokenId>, CoreError> {
        Ok(match self.kind {
            ModelKind::PassGpt => self.tokenizer.encode_password(password)?,
            ModelKind::PagPassGpt => self.tokenizer.encode_training(password)?,
        })
    }

    /// Trains on `train` with optional `validation` monitoring; returns the
    /// per-epoch loss history. Passwords that fail to encode are skipped
    /// (mirroring the paper's cleaning, which removes them up front).
    pub fn train(
        &mut self,
        train: &[String],
        validation: &[String],
        config: &TrainConfig,
    ) -> TrainingReport {
        let encode = |pw: &String| match self.kind {
            ModelKind::PassGpt => self.tokenizer.encode_password(pw).ok(),
            ModelKind::PagPassGpt => self.tokenizer.encode_training(pw).ok(),
        };
        let train_rules: Vec<Vec<TokenId>> = train.iter().filter_map(encode).collect();
        let val_rules: Vec<Vec<TokenId>> = validation.iter().filter_map(encode).collect();
        run_training(&mut self.gpt, &train_rules, &val_rules, config)
    }

    /// [`PasswordModel::train`] with runtime options: periodic
    /// checkpointing, `--resume`, cooperative cancellation, and fault
    /// injection.
    ///
    /// # Errors
    ///
    /// Returns an error only when `opts.resume` is set and an existing
    /// checkpoint file cannot be restored; failed checkpoint *writes* are
    /// counted on the report instead.
    pub fn train_with(
        &mut self,
        train: &[String],
        validation: &[String],
        config: &TrainConfig,
        opts: &TrainOptions<'_>,
    ) -> Result<TrainingReport, CoreError> {
        let encode = |pw: &String| match self.kind {
            ModelKind::PassGpt => self.tokenizer.encode_password(pw).ok(),
            ModelKind::PagPassGpt => self.tokenizer.encode_training(pw).ok(),
        };
        let train_rules: Vec<Vec<TokenId>> = train.iter().filter_map(encode).collect();
        let val_rules: Vec<Vec<TokenId>> = validation.iter().filter_map(encode).collect();
        run_training_with(&mut self.gpt, &train_rules, &val_rules, config, opts)
    }

    /// Trawling-attack generation: sample `n` passwords from `<BOS>` alone.
    ///
    /// For PagPassGPT this is the paper's first trawling mode — the model
    /// generates the pattern *and* the password itself; for PassGPT it
    /// generates the password directly.
    #[must_use]
    pub fn generate_free(&self, n: usize, temperature: f32, seed: u64) -> Vec<String> {
        let vocab = self.tokenizer.vocab();
        let max_new = self.gpt.config().ctx_len - 1;
        let banned = self.banned_ids();
        let plan = SamplePlan {
            prefix: RulePrefix::free().into_ids(),
            max_new,
            temperature,
            banned,
            allowed_at: Box::new(|_| None),
        };
        let mut rng = Rng::seed_from(seed);
        let sequences = sample_batched(&self.gpt, vocab, &plan, n, Self::GEN_BATCH, &mut rng);
        sequences
            .into_iter()
            .map(|ids| self.decode_generated(&ids))
            .collect()
    }

    /// Pattern-guided generation of `n` passwords (paper §IV-C).
    ///
    /// * PagPassGPT: primes with `<BOS> pattern <SEP>` and samples freely —
    ///   the pattern is *context*, not a hard filter.
    /// * PassGPT: starts from `<BOS>` and masks each step to the character
    ///   class the pattern requires at that position — the paper's
    ///   filtering approach, which causes word truncation.
    ///
    /// Non-conforming PagPassGPT outputs are kept, not rejected: the paper
    /// evaluates the raw conditioned output, and its conformity is part of
    /// what Fig. 8/9 measure.
    #[must_use]
    pub fn generate_guided(
        &self,
        pattern: &Pattern,
        n: usize,
        temperature: f32,
        seed: u64,
    ) -> Vec<String> {
        let vocab = self.tokenizer.vocab();
        let mut rng = Rng::seed_from(seed);
        // PassGPT filters: one mask per position plus a final <EOS> mask,
        // computed once up front. PagPassGPT samples unmasked (the pattern
        // is context, not a filter), flagged by an empty mask table.
        let masks: Vec<Vec<TokenId>> = match self.kind {
            ModelKind::PagPassGpt => Vec::new(),
            ModelKind::PassGpt => {
                let mut masks: Vec<Vec<TokenId>> = pattern
                    .position_classes()
                    .map(|class| vocab.class_char_ids(class))
                    .collect();
                masks.push(vec![Vocab::EOS]);
                masks
            }
        };
        let plan = SamplePlan {
            prefix: RulePrefix::guided(&self.tokenizer, self.kind, pattern).into_ids(),
            // chars + <EOS>
            max_new: pattern.char_len() + 1,
            temperature,
            banned: self.banned_ids(),
            allowed_at: if masks.is_empty() {
                Box::new(|_| None)
            } else {
                Box::new(|step| masks.get(step).map(Vec::as_slice))
            },
        };
        let sequences = sample_batched(&self.gpt, vocab, &plan, n, Self::GEN_BATCH, &mut rng);
        sequences
            .into_iter()
            .map(|ids| self.decode_generated(&ids))
            .collect()
    }

    /// Next-token distribution over character ids given a pattern and a
    /// password prefix — the quantity D&C-GEN splits tasks with
    /// (Algorithm 1, line 15).
    ///
    /// Returns `(char_ids, probabilities)` restricted to the class the
    /// pattern requires at the next position, renormalized.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::PrefixTooLong`] if the prefix already covers
    /// the whole pattern and [`CoreError::Tokenize`] for prefix characters
    /// outside the vocabulary.
    pub fn next_char_distribution(
        &self,
        pattern: &Pattern,
        prefix_chars: &str,
    ) -> Result<(Vec<TokenId>, Vec<f64>), CoreError> {
        InferenceSession::new(self).next_char_distribution(pattern, prefix_chars)
    }

    /// Natural-log probability the model assigns to `password` — the
    /// product of conditional token probabilities over the password's rule
    /// (for PagPassGPT this includes the pattern section, matching the
    /// joint in paper Eq. 1).
    ///
    /// Useful as a guessability score: more negative means harder to
    /// guess. See `examples/strength_meter.rs`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Tokenize`] for passwords outside the alphabet.
    pub fn log_probability(&self, password: &str) -> Result<f64, CoreError> {
        InferenceSession::new(self).log_probability(password)
    }

    /// Saves backbone weights to `path` (kind is the caller's to track; the
    /// experiment harness stores it in the file name).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&mut self, path: impl AsRef<Path>) -> Result<(), CoreError> {
        self.gpt.save(path)?;
        Ok(())
    }

    /// Loads backbone weights saved by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Load`] on malformed files and
    /// [`CoreError::VocabMismatch`] when the file is valid but was trained
    /// against a different vocabulary — without this check the mismatch
    /// would only surface as a matrix-shape panic once generation feeds
    /// tokenizer ids into the model.
    pub fn load(kind: ModelKind, path: impl AsRef<Path>) -> Result<PasswordModel, CoreError> {
        let gpt = Gpt::load(path)?;
        let tokenizer = Tokenizer::new();
        let file_vocab = gpt.config().vocab_size;
        let expected_vocab = tokenizer.vocab().len();
        if file_vocab != expected_vocab {
            return Err(CoreError::VocabMismatch {
                file_vocab,
                expected_vocab,
            });
        }
        Ok(PasswordModel {
            kind,
            gpt,
            tokenizer,
        })
    }

    /// Tokens never sampled: control tokens that only structure rules, and
    /// — for PassGPT, whose training rules contain no pattern section —
    /// the pattern tokens and `<SEP>`.
    pub(crate) fn banned_ids(&self) -> Vec<TokenId> {
        let vocab = self.tokenizer.vocab();
        let mut banned = vec![Vocab::BOS, Vocab::UNK, Vocab::PAD];
        if self.kind == ModelKind::PassGpt {
            banned.push(Vocab::SEP);
            banned.extend(
                vocab
                    .iter()
                    .filter(|(id, _)| vocab.is_pattern(*id))
                    .map(|(id, _)| id),
            );
        }
        banned
    }

    /// Decodes newly generated ids (everything after the prompt) into a
    /// password string according to the model kind.
    fn decode_generated(&self, ids: &[TokenId]) -> String {
        match self.kind {
            ModelKind::PassGpt => self.tokenizer.decode_password(ids).unwrap_or_default(),
            ModelKind::PagPassGpt => {
                // Free mode generates "pattern <SEP> password"; guided mode
                // generates just the password. decode_rule handles the
                // former; fall back to char decoding for the latter.
                match self.tokenizer.decode_rule(ids) {
                    Ok(rule) => rule.password,
                    Err(_) => self.decode_chars(ids),
                }
            }
        }
    }

    /// Plain character decoding up to `<EOS>`.
    pub(crate) fn decode_chars(&self, ids: &[TokenId]) -> String {
        self.tokenizer.decode_password(ids).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn kinds_display() {
        assert_eq!(ModelKind::PassGpt.to_string(), "PassGPT");
        assert_eq!(ModelKind::PagPassGpt.to_string(), "PagPassGPT");
    }

    #[test]
    fn encode_respects_kind() {
        let pag = tiny(ModelKind::PagPassGpt);
        let pass = tiny(ModelKind::PassGpt);
        let rule_pag = pag.encode("abc12").unwrap();
        let rule_pass = pass.encode("abc12").unwrap();
        assert!(
            rule_pag.len() > rule_pass.len(),
            "PagPassGPT rules carry the pattern"
        );
        assert!(rule_pag.contains(&Vocab::SEP));
        assert!(!rule_pass.contains(&Vocab::SEP));
    }

    #[test]
    fn free_generation_yields_n_outputs() {
        for kind in [ModelKind::PassGpt, ModelKind::PagPassGpt] {
            let model = tiny(kind);
            let out = model.generate_free(10, 1.0, 5);
            assert_eq!(out.len(), 10);
        }
    }

    #[test]
    fn free_generation_is_deterministic_in_seed() {
        let model = tiny(ModelKind::PagPassGpt);
        assert_eq!(
            model.generate_free(6, 1.0, 8),
            model.generate_free(6, 1.0, 8)
        );
        assert_ne!(
            model.generate_free(64, 1.0, 8),
            model.generate_free(64, 1.0, 9)
        );
    }

    #[test]
    fn passgpt_guided_always_conforms() {
        let model = tiny(ModelKind::PassGpt);
        let pattern: Pattern = "L3N2S1".parse().unwrap();
        for pw in model.generate_guided(&pattern, 20, 1.0, 1) {
            assert!(
                pattern.matches(&pw),
                "PassGPT filtering must force conformity: {pw:?}"
            );
        }
    }

    #[test]
    fn pagpassgpt_guided_yields_passwords_of_bounded_length() {
        let model = tiny(ModelKind::PagPassGpt);
        let pattern: Pattern = "L3N2".parse().unwrap();
        for pw in model.generate_guided(&pattern, 20, 1.0, 1) {
            // Untrained models wander, but the budget caps the length.
            assert!(pw.chars().count() <= pattern.char_len() + 1);
        }
    }

    #[test]
    fn leaf_generation_conforms_and_keeps_prefix() {
        let model = tiny(ModelKind::PagPassGpt);
        let pattern: Pattern = "L4N2".parse().unwrap();
        let mut rng = Rng::seed_from(2);
        for pw in InferenceSession::new(&model)
            .generate_leaf(&pattern, "ab", 15, 1.0, &mut rng)
            .unwrap()
        {
            assert!(pw.starts_with("ab"), "{pw}");
            assert!(pattern.matches(&pw), "{pw}");
        }
    }

    #[test]
    fn next_char_distribution_normalizes_and_respects_class() {
        let model = tiny(ModelKind::PagPassGpt);
        let pattern: Pattern = "L1N1".parse().unwrap();
        let (ids, probs) = model.next_char_distribution(&pattern, "a").unwrap();
        assert_eq!(ids.len(), 10, "next position is a digit");
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(probs.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn training_reduces_loss_and_improves_conformity() {
        let corpus: Vec<String> = (0..60).map(|i| format!("pass{i:02}")).collect();
        let mut model = tiny(ModelKind::PagPassGpt);
        let report = model.train(&corpus, &corpus[..10], &TrainConfig::quick());
        assert!(report.epoch_losses.len() >= 2);
        assert!(
            report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap(),
            "loss history {:?}",
            report.epoch_losses
        );
    }

    #[test]
    fn log_probability_orders_trained_passwords_above_noise() {
        let corpus: Vec<String> = (0..40).map(|i| format!("abcd{i:02}")).collect();
        let mut model = tiny(ModelKind::PagPassGpt);
        model.train(
            &corpus,
            &[],
            &TrainConfig {
                epochs: 6,
                ..TrainConfig::quick()
            },
        );
        let trained = model.log_probability("abcd07").unwrap();
        let noise = model.log_probability("Zq~9!x").unwrap();
        assert!(trained > noise, "trained {trained} vs noise {noise}");
        assert!(trained < 0.0);
        assert!(model.log_probability("has space").is_err());
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("pagpass_core_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.pagnn");
        let mut model = tiny(ModelKind::PagPassGpt);
        model.save(&path).unwrap();
        let loaded = PasswordModel::load(ModelKind::PagPassGpt, &path).unwrap();
        assert_eq!(
            model.generate_free(5, 1.0, 3),
            loaded.generate_free(5, 1.0, 3)
        );
        std::fs::remove_file(path).ok();
    }
}
