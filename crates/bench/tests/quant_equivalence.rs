//! End-to-end accuracy gate for the quantized decode kernels.
//!
//! Trains one tiny model, then runs the full D&C-GEN pipeline and the
//! scoring path under both `--kernel` choices, and holds the results to
//! the committed budget in `pagpass-eval`: hit-rate delta ≤ 1 point,
//! per-token log-prob MAE under [`MAX_LOG_PROB_MAE`]. CI runs this in the
//! `quantized-equivalence` job on both SIMD and forced-portable legs.
//!
//! This lives in its own test binary because the kernel mode is
//! process-wide: the test flips it between runs, which must not race
//! other tests.

use pagpass_eval::{quant_equivalence, QuantEquivalence};
use pagpass_nn::{set_kernel_mode, GptConfig, KernelMode};
use pagpass_patterns::PatternDistribution;
use pagpass_tokenizer::VOCAB_SIZE;
use pagpassgpt::{DcGen, DcGenConfig, InferenceSession, ModelKind, PasswordModel, TrainConfig};

fn corpus() -> Vec<String> {
    // Two pattern families so D&C-GEN splits budget across patterns.
    (0..60)
        .map(|i| format!("pass{i:02}"))
        .chain((0..30).map(|i| format!("ab{i:02}cd")))
        .collect()
}

fn trained_model() -> PasswordModel {
    let mut model = PasswordModel::new(
        ModelKind::PagPassGpt,
        GptConfig {
            vocab_size: VOCAB_SIZE,
            ctx_len: 32,
            dim: 16,
            n_layers: 1,
            n_heads: 2,
        },
        3,
    );
    // Triplicate the corpus and train long enough that the pinned run
    // actually cracks passwords — a 0% hit rate on both sides would make
    // the hit-rate half of the budget vacuous.
    let base = corpus();
    let train: Vec<String> = base.iter().cycle().take(base.len() * 3).cloned().collect();
    model.train(
        &train,
        &[],
        &TrainConfig {
            epochs: 10,
            ..TrainConfig::quick()
        },
    );
    model
}

/// One full pipeline pass under the installed kernel mode: generate a
/// guess stream and score the corpus per token.
fn run_pipeline(model: &PasswordModel, test_set: &[String]) -> (Vec<String>, Vec<f64>) {
    let patterns = PatternDistribution::from_passwords(test_set.iter().map(String::as_str));
    let report = DcGen::new(
        model,
        DcGenConfig {
            threshold: 32,
            seed: 11,
            workers: 1,
            // Below-1 temperature concentrates leaf sampling on what the
            // model learned, so the tiny reference model cracks enough of
            // the corpus for the hit-rate comparison to mean something.
            temperature: 0.7,
            ..DcGenConfig::new(2_000)
        },
    )
    .run(&patterns)
    .unwrap();
    let mut session = InferenceSession::new(model);
    let scores: Vec<f64> = test_set
        .iter()
        .map(|pw| {
            // Normalize by scored positions (password characters + EOS) so
            // the MAE bound is per token, independent of password length.
            let tokens = (pw.chars().count() + 1) as f64;
            session.log_probability(pw).unwrap() / tokens
        })
        .collect();
    (report.passwords, scores)
}

#[test]
fn quantized_pipeline_stays_inside_the_accuracy_budget() {
    let model = trained_model();
    let test_set = corpus();

    set_kernel_mode(KernelMode::Pinned);
    let (pinned_guesses, pinned_scores) = run_pipeline(&model, &test_set);

    set_kernel_mode(KernelMode::Quantized);
    let (quant_guesses, quant_scores) = run_pipeline(&model, &test_set);
    set_kernel_mode(KernelMode::Pinned);

    let eq: QuantEquivalence = quant_equivalence(
        &pinned_guesses,
        &quant_guesses,
        &test_set,
        &pinned_scores,
        &quant_scores,
    );
    // The trained model must actually crack something, or the hit-rate
    // side of the budget would be vacuous.
    assert!(
        eq.pinned_hit_rate > 0.0,
        "pinned run cracked nothing; the equivalence check is vacuous: {eq:?}"
    );
    assert!(
        eq.within_budget(),
        "quantized decode exceeded the accuracy budget: {eq:?} \
         (hit-rate delta {:.4}, MAE {:.6})",
        eq.hit_rate_delta(),
        eq.log_prob_mae
    );
}
