//! Property tests for the nn substrate's algebra and numerics, each run
//! over 48 seeded random inputs.

use pagpass_nn::{softmax_in_place, Gpt, GptConfig, Mat, Rng};

const CASES: u64 = 48;

/// A uniform draw in `[lo, hi)`.
fn between(rng: &mut Rng, lo: f32, hi: f32) -> f32 {
    lo + (hi - lo) * rng.uniform()
}

/// Matmul distributes over addition: (A+B)·C = A·C + B·C.
#[test]
fn matmul_distributes() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let (m, k, n) = (1 + rng.below(4), 1 + rng.below(4), 1 + rng.below(4));
        let a = Mat::randn(m, k, 1.0, &mut rng);
        let b = Mat::randn(m, k, 1.0, &mut rng);
        let c = Mat::randn(k, n, 1.0, &mut rng);
        let mut ab = a.clone();
        ab.add_assign(&b);
        let lhs = ab.matmul(&c);
        let mut rhs = a.matmul(&c);
        rhs.add_assign(&b.matmul(&c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            assert!((x - y).abs() < 1e-3, "seed {seed}: {x} vs {y}");
        }
    }
}

/// `A·Bᵀ` equals transposing manually.
#[test]
fn matmul_bt_consistent() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let (m, k, n) = (1 + rng.below(4), 1 + rng.below(4), 1 + rng.below(4));
        let a = Mat::randn(m, k, 1.0, &mut rng);
        let b = Mat::randn(n, k, 1.0, &mut rng);
        let mut bt = Mat::zeros(k, n);
        for i in 0..n {
            for j in 0..k {
                bt.set(j, i, b.get(i, j));
            }
        }
        let fast = a.matmul_bt_packed(&b);
        let slow = a.matmul(&bt);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((x - y).abs() < 1e-3, "seed {seed}: {x} vs {y}");
        }
    }
}

/// Softmax output is a probability vector and order-preserving.
#[test]
fn softmax_properties() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let original: Vec<f32> = (0..1 + rng.below(15))
            .map(|_| between(&mut rng, -20.0, 20.0))
            .collect();
        let mut v = original.clone();
        softmax_in_place(&mut v);
        let sum: f32 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "seed {seed}: sum {sum}");
        assert!(
            v.iter().all(|&p| (0.0..=1.0).contains(&p)),
            "seed {seed}: {v:?}"
        );
        for i in 0..v.len() {
            for j in 0..v.len() {
                if original[i] > original[j] {
                    assert!(v[i] >= v[j], "seed {seed}: order broken at {i}, {j}");
                }
            }
        }
    }
}

/// Scaling then adding matches fused arithmetic on raw data.
#[test]
fn mat_linear_ops() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let (r, c) = (1 + rng.below(5), 1 + rng.below(5));
        let data = (0..r * c).map(|_| between(&mut rng, -3.0, 3.0)).collect();
        let m = Mat::from_rows(r, c, data);
        let s = between(&mut rng, -2.0, 2.0);
        let mut scaled = m.clone();
        scaled.scale(s);
        for (a, b) in scaled.as_slice().iter().zip(m.as_slice()) {
            assert!((a - b * s).abs() < 1e-5, "seed {seed}: {a} vs {b} * {s}");
        }
        let mut summed = m.clone();
        summed.add_assign(&m);
        for (a, b) in summed.as_slice().iter().zip(m.as_slice()) {
            assert!((a - 2.0 * b).abs() < 1e-5, "seed {seed}: {a} vs 2 * {b}");
        }
    }
}

fn tiny_gpt(seed: u64) -> Gpt {
    let config = GptConfig {
        vocab_size: 11,
        ctx_len: 8,
        dim: 8,
        n_layers: 1,
        n_heads: 2,
    };
    Gpt::new(config, &mut Rng::seed_from(seed))
}

/// Serialization roundtrips preserve next-token logits bit-for-bit.
#[test]
fn gpt_serialization_roundtrip() {
    for seed in 0..CASES {
        let mut model = tiny_gpt(seed);
        let restored = Gpt::from_bytes(&model.to_bytes()).unwrap();
        assert_eq!(
            model.next_token_logits(&[1, 2, 3]),
            restored.next_token_logits(&[1, 2, 3]),
            "seed {seed}"
        );
    }
}

/// Decode is prefix-consistent: feeding the same prefix twice yields
/// identical logits regardless of what other batches ran before.
#[test]
fn decode_is_stateless_across_sessions() {
    for seed in 0..CASES {
        let model = tiny_gpt(seed);
        let mut rng = Rng::seed_from(seed);
        let toks: Vec<u32> = (0..1 + rng.below(5))
            .map(|_| rng.below(11) as u32)
            .collect();
        let a = model.next_token_logits(&toks);
        let _ = model.next_token_logits(&[5, 5, 5]);
        let b = model.next_token_logits(&toks);
        assert_eq!(a, b, "seed {seed}: {toks:?}");
    }
}
