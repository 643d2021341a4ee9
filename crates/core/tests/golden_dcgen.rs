//! Golden-output regression pinning the full decode stream.
//!
//! The file `tests/golden/dcgen_seed9.txt` pins model init + D&C-GEN
//! sampling byte for byte: prefix reuse is bit-exact — truncating a cache to
//! a common prefix and re-feeding the remainder produces identical K/V rows,
//! and broadcasting a batch-1 prompt equals per-row priming — so engine
//! refactors must reproduce this output exactly, not merely statistically.
//!
//! Provenance: the bytes follow from the ChaCha12 `StdRng` in
//! `crates/rng`, which reproduces rand 0.8's stream. Regenerate only when
//! an intentional change moves that stream or the decode path, and never
//! by hand.

use pagpass_nn::GptConfig;
use pagpass_patterns::PatternDistribution;
use pagpass_tokenizer::VOCAB_SIZE;
use pagpassgpt::{DcGen, DcGenConfig, ModelKind, PasswordModel, SchedulerKind};

fn tiny_model() -> PasswordModel {
    PasswordModel::new(
        ModelKind::PagPassGpt,
        GptConfig {
            vocab_size: VOCAB_SIZE,
            ctx_len: 32,
            dim: 16,
            n_layers: 1,
            n_heads: 2,
        },
        5,
    )
}

fn simple_patterns() -> PatternDistribution {
    PatternDistribution::from_passwords(["ab12", "cd34", "ef56", "xy9", "qqq1"].iter().copied())
}

fn golden_config() -> DcGenConfig {
    DcGenConfig {
        threshold: 16,
        seed: 9,
        workers: 1,
        ..DcGenConfig::new(1_500)
    }
}

#[test]
fn dcgen_output_matches_pre_refactor_golden_file() {
    let model = tiny_model();
    let report = DcGen::new(&model, golden_config())
        .run(&simple_patterns())
        .unwrap();
    let got = report.passwords.join("\n") + "\n";
    let want = include_str!("golden/dcgen_seed9.txt");
    assert_eq!(
        got, want,
        "cached generation diverged from the pre-refactor output"
    );
    assert!(
        report.prefix_cache_hits > 0,
        "the run should have reused cached prefix positions"
    );
}

#[test]
fn explicit_dcgen_scheduler_reproduces_the_golden_file() {
    // `--scheduler dcgen` routes through the Scheduler trait like every
    // other kind; the plug-in path must be byte-identical to the golden
    // stream, not merely statistically equivalent.
    let model = tiny_model();
    let report = DcGen::new(
        &model,
        DcGenConfig {
            scheduler: SchedulerKind::Dcgen,
            ..golden_config()
        },
    )
    .run(&simple_patterns())
    .unwrap();
    let got = report.passwords.join("\n") + "\n";
    assert_eq!(
        got,
        include_str!("golden/dcgen_seed9.txt"),
        "the trait-dispatched dcgen scheduler diverged from the golden output"
    );
}
