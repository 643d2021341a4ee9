use crate::fastmath::fast_exp;
use crate::Rng;

/// In-place numerically-stable softmax over a slice.
///
/// `-inf` entries (masked positions) get probability exactly 0.
///
/// # Examples
///
/// ```
/// use pagpass_nn::softmax_in_place;
///
/// let mut v = [0.0, 0.0, f32::NEG_INFINITY];
/// softmax_in_place(&mut v);
/// assert!((v[0] - 0.5).abs() < 1e-6);
/// assert_eq!(v[2], 0.0);
/// ```
pub fn softmax_in_place(logits: &mut [f32]) {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        // Fully masked row: leave a uniform distribution rather than NaNs.
        let p = 1.0 / logits.len() as f32;
        logits.fill(p);
        return;
    }
    let mut sum = 0.0f32;
    for v in logits.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in logits.iter_mut() {
        *v /= sum;
    }
}

/// [`softmax_in_place`] with libm `exp` swapped for
/// [`fast_exp`](crate::fast_exp) — same max-subtraction, accumulation, and
/// normalization order, so the result is a deterministic function of the
/// input bits. Quantized-decode only: ~5e-5 relative error per entry, far
/// inside that mode's accuracy budget, where the f32 path must keep libm
/// bits exactly.
pub fn softmax_in_place_fast(logits: &mut [f32]) {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if max == f32::NEG_INFINITY {
        let p = 1.0 / logits.len() as f32;
        logits.fill(p);
        return;
    }
    let mut sum = 0.0f32;
    for v in logits.iter_mut() {
        // `-inf - max` stays `-inf`; the clamp inside `fast_exp` turns it
        // into e^-87 ≈ 1.6e-38 rather than exactly 0 — close enough for
        // masked attention scores, which this mode never exposes as exact
        // zeros anyway.
        *v = fast_exp(*v - max);
        sum += *v;
    }
    for v in logits.iter_mut() {
        *v /= sum;
    }
}

/// Index of the largest element (first on ties).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn argmax(values: &[f32]) -> usize {
    assert!(!values.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

/// Samples an index from unnormalized logits with `temperature`.
///
/// `temperature == 0.0` degenerates to [`argmax`]. The slice is consumed as
/// scratch space (softmax is applied in place).
///
/// # Panics
///
/// Panics on an empty slice or negative temperature.
#[must_use]
pub fn sample_categorical(logits: &mut [f32], temperature: f32, rng: &mut Rng) -> usize {
    assert!(!logits.is_empty(), "cannot sample from empty logits");
    assert!(temperature >= 0.0, "temperature must be non-negative");
    if temperature == 0.0 {
        return argmax(logits);
    }
    if temperature != 1.0 {
        for v in logits.iter_mut() {
            if *v != f32::NEG_INFINITY {
                *v /= temperature;
            }
        }
    }
    softmax_in_place(logits);
    sample_from_probs(logits, rng)
}

/// Samples an index from logits restricted to `allowed` indices; everything
/// else is masked out. Used for PassGPT's guided generation, where the
/// pattern forces the next token's character class, and for D&C-GEN leaf
/// sampling.
///
/// # Panics
///
/// Panics if `allowed` is empty or contains out-of-range indices.
#[must_use]
pub fn sample_masked(
    logits: &mut [f32],
    allowed: &[u32],
    temperature: f32,
    rng: &mut Rng,
) -> usize {
    assert!(!allowed.is_empty(), "allowed set must be non-empty");
    let mut mask = vec![true; logits.len()];
    for &a in allowed {
        mask[a as usize] = false;
    }
    for (v, &m) in logits.iter_mut().zip(&mask) {
        if m {
            *v = f32::NEG_INFINITY;
        }
    }
    // If the model itself assigned -inf to every allowed token, fall back to
    // a uniform choice over the allowed set (never over masked tokens).
    if logits.iter().all(|&v| v == f32::NEG_INFINITY) {
        for &a in allowed {
            logits[a as usize] = 0.0;
        }
    }
    sample_categorical(logits, temperature, rng)
}

/// Draws an index from an already-normalized probability vector.
fn sample_from_probs(probs: &[f32], rng: &mut Rng) -> usize {
    let u = rng.uniform();
    let mut acc = 0.0f32;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    // Floating-point slack: fall back to the last non-zero entry.
    probs
        .iter()
        .rposition(|&p| p > 0.0)
        .unwrap_or(probs.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let mut v = [1.0, 2.0, 3.0, 4.0];
        softmax_in_place(&mut v);
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut v = [1000.0, 1001.0];
        softmax_in_place(&mut v);
        assert!(v.iter().all(|p| p.is_finite()));
        assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    fn zero_temperature_is_argmax() {
        let mut rng = Rng::seed_from(1);
        let mut logits = [0.1, 9.0, 0.2];
        assert_eq!(sample_categorical(&mut logits, 0.0, &mut rng), 1);
    }

    #[test]
    fn sampling_respects_distribution() {
        let mut rng = Rng::seed_from(2);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            let mut logits = [0.0f32, (2.0f32).ln(), (4.0f32).ln()]; // probs 1/7, 2/7, 4/7
            counts[sample_categorical(&mut logits, 1.0, &mut rng)] += 1;
        }
        let freq: Vec<f64> = counts.iter().map(|&c| c as f64 / 30_000.0).collect();
        assert!((freq[0] - 1.0 / 7.0).abs() < 0.02, "{freq:?}");
        assert!((freq[2] - 4.0 / 7.0).abs() < 0.02, "{freq:?}");
    }

    #[test]
    fn masked_sampling_only_returns_allowed() {
        let mut rng = Rng::seed_from(3);
        for _ in 0..200 {
            let mut logits = vec![5.0f32; 10];
            let got = sample_masked(&mut logits, &[2, 7], 1.0, &mut rng);
            assert!(got == 2 || got == 7);
        }
    }

    #[test]
    fn masked_sampling_with_all_logits_low_still_works() {
        let mut rng = Rng::seed_from(4);
        let mut logits = vec![f32::NEG_INFINITY; 4];
        logits[1] = f32::NEG_INFINITY; // allowed but masked-out by the model
        let got = sample_masked(&mut logits, &[1], 1.0, &mut rng);
        assert_eq!(
            got, 1,
            "fully-masked rows fall back to uniform over the slice"
        );
    }

    #[test]
    fn temperature_sharpens() {
        let mut rng = Rng::seed_from(5);
        let mut hits = 0;
        for _ in 0..1000 {
            let mut logits = [0.0f32, 1.0];
            if sample_categorical(&mut logits, 0.1, &mut rng) == 1 {
                hits += 1;
            }
        }
        assert!(
            hits > 990,
            "low temperature should be near-deterministic, got {hits}"
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_logits_panic() {
        let _ = sample_categorical(&mut [], 1.0, &mut Rng::seed_from(0));
    }
}
