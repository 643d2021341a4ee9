use pagpass_nn::{sample_categorical, sample_masked, DecodeState, Gpt, Mat, QuantizedGpt, Rng};
use pagpass_tokenizer::{TokenId, Vocab};

/// A batched sampling request against a shared prompt.
pub(crate) struct SamplePlan<'a> {
    /// Prompt ids every sequence starts from.
    pub prefix: Vec<TokenId>,
    /// Maximum number of newly sampled tokens per sequence.
    pub max_new: usize,
    /// Softmax temperature (0 = greedy).
    pub temperature: f32,
    /// Token ids that must never be sampled.
    pub banned: Vec<TokenId>,
    /// Per-step constraint: `allowed_at(step)` returns the permitted ids
    /// for the `step`-th new token, or `None` for an unconstrained step.
    /// The callback hands out borrows of masks computed once up front —
    /// sampling steps must not allocate per step per batch.
    pub allowed_at: Box<dyn Fn(usize) -> Option<&'a [TokenId]> + Send + Sync + 'a>,
}

/// Samples `n` sequences under `plan`, in batches of at most `batch`,
/// priming each batch by feeding the prompt token by token.
///
/// Returns the newly generated ids per sequence, ending at (and including)
/// the first `<EOS>` if one is produced within the budget. Sequences are
/// independent; a finished sequence keeps feeding `<PAD>` until its batch
/// completes (other rows are unaffected because attention never crosses
/// batch rows).
///
/// # Panics
///
/// Panics if the prompt plus budget exceed the model's context window.
pub(crate) fn sample_batched(
    gpt: &Gpt,
    plan: &SamplePlan<'_>,
    n: usize,
    batch: usize,
    rng: &mut Rng,
) -> Vec<Vec<TokenId>> {
    let mut state = gpt.begin_decode(0);
    sample_batched_primed(
        gpt,
        None,
        plan,
        n,
        batch,
        rng,
        &mut state,
        &mut |b, state| {
            *state = gpt.begin_decode(b);
            let mut logits = Mat::zeros(0, 0);
            for &tok in &plan.prefix {
                logits = gpt.decode_step(&vec![tok; b], state);
            }
            logits
        },
    )
}

/// [`sample_batched`] with an explicit primer and a borrowed decode state:
/// `prime(b, state)` must leave `state` advanced past the prompt for `b`
/// rows and return the logits of its final prompt token. Every batch
/// samples in that one `state`. The KV-cached inference session uses this
/// to broadcast an already-computed batch-1 prompt into a state it owns,
/// instead of re-feeding the prompt per row into a fresh one
/// (bit-identical — see `crate::inference`).
///
/// When `quant` is present every decode step routes through the packed
/// int8 weights; the primer must have produced its state and logits under
/// the same kernel or the sampled stream would mix modes.
///
/// # Panics
///
/// Panics if the prompt plus budget exceed the model's context window.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sample_batched_primed(
    gpt: &Gpt,
    quant: Option<&QuantizedGpt>,
    plan: &SamplePlan<'_>,
    n: usize,
    batch: usize,
    rng: &mut Rng,
    state: &mut DecodeState,
    prime: &mut dyn FnMut(usize, &mut DecodeState) -> Mat,
) -> Vec<Vec<TokenId>> {
    let ctx = gpt.config().ctx_len;
    assert!(
        plan.prefix.len() + plan.max_new <= ctx,
        "prompt ({}) + budget ({}) exceeds the context window ({ctx})",
        plan.prefix.len(),
        plan.max_new
    );
    assert!(!plan.prefix.is_empty(), "prompt must be non-empty");
    let mut out = Vec::with_capacity(n);
    let mut remaining = n;
    while remaining > 0 {
        let b = remaining.min(batch);
        let logits = prime(b, state);
        out.extend(sample_one_batch(gpt, quant, plan, b, rng, state, logits));
        remaining -= b;
    }
    out
}

fn sample_one_batch(
    gpt: &Gpt,
    quant: Option<&QuantizedGpt>,
    plan: &SamplePlan<'_>,
    b: usize,
    rng: &mut Rng,
    state: &mut DecodeState,
    mut logits: Mat,
) -> Vec<Vec<TokenId>> {
    debug_assert_eq!(state.pos(), plan.prefix.len(), "state must be primed");
    let mut sequences: Vec<Vec<TokenId>> = vec![Vec::new(); b];
    let mut finished = vec![false; b];
    let mut next_tokens = vec![Vocab::PAD; b];
    for step in 0..plan.max_new {
        let allowed = (plan.allowed_at)(step);
        let mut all_done = true;
        for row in 0..b {
            if finished[row] {
                next_tokens[row] = Vocab::PAD;
                continue;
            }
            all_done = false;
            let mut row_logits = logits.row(row).to_vec();
            for &banned in &plan.banned {
                row_logits[banned as usize] = f32::NEG_INFINITY;
            }
            let id = match allowed {
                Some(set) => sample_masked(&mut row_logits, set, plan.temperature, rng) as TokenId,
                None => sample_categorical(&mut row_logits, plan.temperature, rng) as TokenId,
            };
            sequences[row].push(id);
            if id == Vocab::EOS {
                finished[row] = true;
            }
            next_tokens[row] = id;
        }
        if all_done || step + 1 == plan.max_new {
            break;
        }
        logits = gpt.decode_step_with(quant, &next_tokens, state);
    }
    sequences
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagpass_nn::GptConfig;
    use pagpass_tokenizer::{Tokenizer, VOCAB_SIZE};

    fn tiny_gpt() -> Gpt {
        Gpt::new(
            GptConfig {
                vocab_size: VOCAB_SIZE,
                ctx_len: 16,
                dim: 16,
                n_layers: 1,
                n_heads: 2,
            },
            &mut Rng::seed_from(1),
        )
    }

    #[test]
    fn produces_exactly_n_sequences_across_batches() {
        let gpt = tiny_gpt();
        let plan = SamplePlan {
            prefix: vec![Vocab::BOS],
            max_new: 4,
            temperature: 1.0,
            banned: vec![],
            allowed_at: Box::new(|_| None),
        };
        let mut rng = Rng::seed_from(2);
        let out = sample_batched(&gpt, &plan, 7, 3, &mut rng);
        assert_eq!(out.len(), 7);
        assert!(out.iter().all(|s| s.len() <= 4 && !s.is_empty()));
    }

    #[test]
    fn banned_tokens_never_appear() {
        let gpt = tiny_gpt();
        let banned = vec![Vocab::BOS, Vocab::PAD, Vocab::UNK];
        let plan = SamplePlan {
            prefix: vec![Vocab::BOS],
            max_new: 6,
            temperature: 1.0,
            banned: banned.clone(),
            allowed_at: Box::new(|_| None),
        };
        let mut rng = Rng::seed_from(3);
        for seq in sample_batched(&gpt, &plan, 40, 16, &mut rng) {
            for id in seq {
                assert!(!banned.contains(&id), "banned id {id} sampled");
            }
        }
    }

    #[test]
    fn constrained_steps_respect_the_mask() {
        let gpt = tiny_gpt();
        let tok = Tokenizer::new();
        let digits = tok
            .vocab()
            .class_char_ids(pagpass_patterns::CharClass::Digit);
        let plan = SamplePlan {
            prefix: vec![Vocab::BOS],
            max_new: 3,
            temperature: 1.0,
            banned: vec![],
            allowed_at: Box::new(|_| Some(&digits)),
        };
        let mut rng = Rng::seed_from(4);
        for seq in sample_batched(&gpt, &plan, 20, 8, &mut rng) {
            for id in seq {
                assert!(digits.contains(&id));
            }
        }
    }

    #[test]
    fn eos_terminates_a_sequence() {
        let gpt = tiny_gpt();
        // Force EOS at step 1 for every row.
        let eos_mask = [Vocab::EOS];
        let plan = SamplePlan {
            prefix: vec![Vocab::BOS],
            max_new: 5,
            temperature: 1.0,
            banned: vec![],
            allowed_at: Box::new(|step| if step == 1 { Some(&eos_mask[..]) } else { None }),
        };
        let mut rng = Rng::seed_from(5);
        for seq in sample_batched(&gpt, &plan, 10, 4, &mut rng) {
            assert_eq!(seq.len(), 2);
            assert_eq!(seq[1], Vocab::EOS);
        }
    }

    #[test]
    #[should_panic(expected = "context window")]
    fn oversized_budget_panics() {
        let gpt = tiny_gpt();
        let plan = SamplePlan {
            prefix: vec![Vocab::BOS],
            max_new: 99,
            temperature: 1.0,
            banned: vec![],
            allowed_at: Box::new(|_| None),
        };
        let _ = sample_batched(&gpt, &plan, 1, 1, &mut Rng::seed_from(0));
    }
}
