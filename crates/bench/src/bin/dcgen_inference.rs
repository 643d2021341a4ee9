//! Paired benchmark — D&C-GEN split-phase throughput with and without
//! cross-task KV-cache prefix reuse.
//!
//! The "before" arm recomputes every task's full prompt from scratch (the
//! behaviour prior to `pagpassgpt::InferenceSession`); the "after" arm
//! threads one session through the same task sequence so each query pays
//! only the tokens past the longest cached prefix. Reuse is bit-exact, so
//! both arms must produce identical distributions — the benchmark asserts
//! this rather than trusting it.
//!
//! Run `cargo run --release -p pagpass-bench --bin dcgen_inference` for the
//! full configuration (depth-4 split tree over an N8 pattern) or with
//! `-- --smoke` for a seconds-scale configuration suitable for CI.

use std::collections::VecDeque;
use std::time::Instant;

use pagpass_bench::save_json;
use pagpass_nn::{set_kernel_mode, GptConfig, KernelMode};
use pagpass_patterns::Pattern;
use pagpass_telemetry::JsonValue;
use pagpass_tokenizer::VOCAB_SIZE;
use pagpassgpt::{InferenceSession, ModelKind, PasswordModel};

struct Setup {
    mode: &'static str,
    config: GptConfig,
    pattern: &'static str,
    /// Budget/threshold for the split-phase tree expansion.
    split_total: f64,
    split_threshold: f64,
}

fn setup(smoke: bool) -> Setup {
    if smoke {
        Setup {
            mode: "smoke",
            config: GptConfig {
                vocab_size: VOCAB_SIZE,
                ctx_len: 32,
                dim: 16,
                n_layers: 1,
                n_heads: 2,
            },
            pattern: "N5",
            split_total: 20_000.0,
            split_threshold: 30.0,
        }
    } else {
        Setup {
            mode: "full",
            config: GptConfig {
                vocab_size: VOCAB_SIZE,
                ctx_len: 32,
                dim: 96,
                n_layers: 3,
                n_heads: 4,
            },
            pattern: "N8",
            split_total: 400_000.0,
            split_threshold: 50.0,
        }
    }
}

/// Expands the D&C-GEN split tree for `pattern` in the same FIFO order the
/// worker pool uses, returning every prefix that gets split (quota above
/// threshold). Expansion itself runs untimed through the stateless API so
/// both timed arms below replay an identical task sequence.
fn split_tasks(
    model: &PasswordModel,
    pattern: &Pattern,
    total: f64,
    threshold: f64,
) -> Vec<String> {
    let mut order = Vec::new();
    let mut queue: VecDeque<(String, f64)> = VecDeque::from([(String::new(), total)]);
    while let Some((prefix, quota)) = queue.pop_front() {
        if quota <= threshold || prefix.chars().count() >= pattern.char_len() {
            continue;
        }
        let (ids, probs) = model
            .next_char_distribution(pattern, &prefix)
            .expect("prefix fits the pattern");
        order.push(prefix.clone());
        let vocab = model.tokenizer().vocab();
        for (&id, &p) in ids.iter().zip(&probs) {
            let child_quota = quota * p;
            if child_quota < 1.0 {
                continue;
            }
            if let Some(pagpass_tokenizer::Token::Char(c)) = vocab.token_of(id) {
                let mut child = prefix.clone();
                child.push(c);
                queue.push_back((child, child_quota));
            }
        }
    }
    order
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let s = setup(smoke);
    let model = PasswordModel::new(ModelKind::PagPassGpt, s.config, 5);
    let pattern: Pattern = s.pattern.parse().expect("valid pattern literal");

    // ---- split phase: the same task sequence, stateless vs. session.
    let tasks = split_tasks(&model, &pattern, s.split_total, s.split_threshold);
    let depth = tasks.iter().map(|p| p.chars().count()).max().unwrap_or(0);
    eprintln!(
        "[split] {} tasks, max prefix depth {depth} ({} mode)",
        tasks.len(),
        s.mode
    );

    let started = Instant::now();
    let mut stateless = Vec::with_capacity(tasks.len());
    for prefix in &tasks {
        stateless.push(
            model
                .next_char_distribution(&pattern, prefix)
                .expect("prefix fits the pattern"),
        );
    }
    let stateless_ms = started.elapsed().as_secs_f64() * 1e3;

    let mut session = InferenceSession::new(&model);
    let started = Instant::now();
    let mut cached = Vec::with_capacity(tasks.len());
    for prefix in &tasks {
        cached.push(
            session
                .next_char_distribution(&pattern, prefix)
                .expect("prefix fits the pattern"),
        );
    }
    let session_ms = started.elapsed().as_secs_f64() * 1e3;
    let distributions_identical = stateless == cached;
    assert!(
        distributions_identical,
        "cached split distributions diverged from stateless ones"
    );

    // Quantized arm: the identical task sequence through a session built
    // under `KernelMode::Quantized` (which packs the weights once at
    // construction — untimed, like a `--kernel quantized` run). Not
    // bit-compatible with f32, so the check is a divergence bound rather
    // than equality.
    set_kernel_mode(KernelMode::Quantized);
    let mut qsession = InferenceSession::new(&model);
    let started = Instant::now();
    let mut quantized = Vec::with_capacity(tasks.len());
    for prefix in &tasks {
        quantized.push(
            qsession
                .next_char_distribution(&pattern, prefix)
                .expect("prefix fits the pattern"),
        );
    }
    let quantized_ms = started.elapsed().as_secs_f64() * 1e3;
    set_kernel_mode(KernelMode::Pinned);
    let quantized_max_prob_diff = cached
        .iter()
        .zip(&quantized)
        .flat_map(|((_, p), (_, q))| p.iter().zip(q).map(|(&a, &b)| (a - b).abs()))
        .fold(0.0, f64::max);
    assert!(
        quantized_max_prob_diff < 0.05,
        "quantized split distributions drifted {quantized_max_prob_diff} from pinned"
    );

    let split_speedup = stateless_ms / session_ms;
    let quantized_speedup = session_ms / quantized_ms;
    let split_phase = JsonValue::object([
        ("tasks", tasks.len().into()),
        ("max_prefix_depth", depth.into()),
        ("stateless_ms", stateless_ms.into()),
        ("session_ms", session_ms.into()),
        ("speedup", split_speedup.into()),
        ("session_reused_tokens", session.reused_tokens().into()),
        ("session_computed_tokens", session.computed_tokens().into()),
        ("distributions_identical", distributions_identical.into()),
        // The same task sequence through a `--kernel quantized` session.
        ("quantized_ms", quantized_ms.into()),
        // Pinned session over quantized session: the int8 decode win.
        ("quantized_speedup_vs_pinned", quantized_speedup.into()),
        // Max elementwise probability divergence, quantized vs pinned:
        // int8 quantization noise, bounded by the accuracy budget in
        // `crates/eval`.
        ("quantized_max_prob_diff", quantized_max_prob_diff.into()),
    ]);
    eprintln!(
        "[split] stateless {stateless_ms:.1} ms, session {:.1} ms ({:.2}x), reused {} / computed {} tokens",
        session_ms, split_speedup, session.reused_tokens(),
        session.computed_tokens()
    );
    eprintln!(
        "[split] quantized session {quantized_ms:.1} ms ({quantized_speedup:.2}x vs pinned session), max prob diff {quantized_max_prob_diff:.2e}"
    );

    let report = JsonValue::object([
        ("bench", "dcgen_inference".into()),
        ("mode", s.mode.into()),
        ("model_dim", s.config.dim.into()),
        ("model_layers", s.config.n_layers.into()),
        ("pattern", s.pattern.into()),
        ("split_phase", split_phase),
    ]);
    save_json(&format!("dcgen-inference-{}", s.mode), &report).expect("write bench result");
    print!("{}", report.to_pretty());
}
