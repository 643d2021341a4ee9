//! Equivalence of the pooled GEMM kernels against the reference loops, at
//! every thread count.
//!
//! The golden-output regression (`crates/core/tests/golden_dcgen.rs`) only
//! exercises the shapes one tiny model happens to produce. These tests pin
//! the stronger claim the kernels are built on: for *any* shape — including
//! 1×1, primes that defeat the 4-wide micro-kernel's main loop, and far
//! fewer rows than worker threads — the decode matmul `matmul_into` on
//! pools of 1, 2 and 4 threads produces outputs that compare `==`
//! (bit-identical, not approximately equal) to the reference loop
//! [`Mat::matmul_into_naive`]. `matmul_into` has two arms, the AVX2
//! register-tiled kernel and the portable blocked loop; the decode-shape
//! tests below run both, flipping the dispatch with `set_force_portable`.
//! The training kernels (`matmul_fast`, `matmul_bt_packed`,
//! `matmul_t_accum_fast`) must be bit-identical across thread counts and
//! track `matmul_into_naive` (on `bᵀ` for `matmul_bt_packed`) or
//! [`Mat::matmul_t_accum_naive`] to a tolerance.

use std::sync::{Mutex, PoisonError};

use pagpass_nn::gradcheck::GradCheck;
use pagpass_nn::qmat::force_portable;
use pagpass_nn::{pool, set_force_portable, Mat, Rng, SelfAttention, ThreadPool};

/// Shapes chosen to stress every edge of the blocked kernels: the 1×1
/// degenerate case, single-row/column operands, primes that leave a 1–3
/// element tail after the unroll-by-4, k larger than one cache tile, and
/// row counts smaller than the 4-thread pools used below.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (1, 5, 1),
    (3, 1, 7),
    (2, 3, 4),
    (5, 7, 3),
    (13, 11, 17),
    (31, 29, 37),
    (2, 97, 53),
    (3, 150, 129),
    (64, 67, 65),
    (130, 131, 67),
];

fn pools() -> Vec<ThreadPool> {
    vec![ThreadPool::new(1), ThreadPool::new(2), ThreadPool::new(4)]
}

/// Decode batch sizes: one, a partial 4-row panel, one full panel, a full
/// panel plus one row, and a leaf-sized batch of four panels.
const DECODE_ROWS: &[usize] = &[1, 3, 4, 5, 16];

/// The `(k, n)` of every decode matmul in perfbench's model (width 48,
/// 135-token vocabulary): qkv, proj, fc1, fc2 and `lm_head`, whose 135
/// columns end in a masked tail.
const DECODE_KN: &[(usize, usize)] = &[(48, 144), (48, 48), (48, 192), (192, 48), (48, 135)];

/// Serializes the tests that flip the process-wide dispatch, so each one
/// runs the arm it names.
static DISPATCH: Mutex<()> = Mutex::new(());

/// Runs `check` under AVX2 dispatch (where the CPU has it), then under
/// forced-portable dispatch, and restores the setting it found.
fn under_both_dispatches(mut check: impl FnMut(&str)) {
    let _serial = DISPATCH.lock().unwrap_or_else(PoisonError::into_inner);
    let was = force_portable();
    for (portable, arm) in [(false, "simd"), (true, "portable")] {
        set_force_portable(portable);
        check(arm);
    }
    set_force_portable(was);
}

/// Bit patterns, so that `-0.0` and `+0.0` differ and a NaN equals itself.
fn bits(m: &Mat) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Asserts that `a · b` equals the reference loop bit for bit on every
/// pool, on the dispatch arm currently selected.
fn assert_matmul_matches_naive(a: &Mat, b: &Mat, arm: &str) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut want = Mat::zeros(m, n);
    a.matmul_into_naive(b, &mut want);
    for pool in pools() {
        let mut got = Mat::zeros(m, n);
        a.matmul_into_on(b, &mut got, &pool);
        assert_eq!(
            bits(&want),
            bits(&got),
            "{arm} matmul {m}x{k}·{k}x{n} diverged on a {}-thread pool",
            pool.threads()
        );
    }
}

#[test]
fn tiled_matmul_is_bit_identical_to_naive_on_decode_shapes() {
    let mut rng = Rng::seed_from(49);
    for &m in DECODE_ROWS {
        for &(k, n) in DECODE_KN {
            let a = Mat::randn(m, k, 1.0, &mut rng);
            let b = Mat::randn(k, n, 1.0, &mut rng);
            under_both_dispatches(|arm| assert_matmul_matches_naive(&a, &b, arm));
        }
    }
}

#[test]
fn tiled_zero_skip_is_per_row() {
    // Exact `0.0` and `-0.0` at scattered (row, k) positions, so that inside
    // one 4-row panel some rows skip a k and the others accumulate it; a
    // kernel that skipped for the whole panel would drop their terms. The
    // k columns that are zero in every row meet `b` rows of `±inf`, which a
    // kernel that accumulated `0 · inf` would turn into NaN.
    let mut rng = Rng::seed_from(50);
    for &m in DECODE_ROWS {
        for &(k, n) in DECODE_KN {
            let mut a = Mat::randn(m, k, 1.0, &mut rng);
            let mut b = Mat::randn(k, n, 1.0, &mut rng);
            for i in 0..m {
                for kk in 0..k {
                    if (3 * i + 5 * kk) % 7 == 0 {
                        a.set(i, kk, if (i + kk) % 2 == 0 { 0.0 } else { -0.0 });
                    }
                }
            }
            for kk in [1, k / 2, k - 1] {
                for i in 0..m {
                    a.set(i, kk, if i % 2 == 0 { -0.0 } else { 0.0 });
                }
                for j in 0..n {
                    b.set(
                        kk,
                        j,
                        if j % 2 == 0 {
                            f32::INFINITY
                        } else {
                            f32::NEG_INFINITY
                        },
                    );
                }
            }
            let mut want = Mat::zeros(m, n);
            a.matmul_into_naive(&b, &mut want);
            assert!(
                want.as_slice().iter().all(|v| v.is_finite()),
                "reference loop lost its zero-skip"
            );
            under_both_dispatches(|arm| assert_matmul_matches_naive(&a, &b, arm));
        }
    }
}

#[test]
fn matmul_blocked_is_bit_identical_to_naive_at_any_thread_count() {
    let mut rng = Rng::seed_from(41);
    for &(m, k, n) in SHAPES {
        let a = Mat::randn(m, k, 1.0, &mut rng);
        let b = Mat::randn(k, n, 1.0, &mut rng);

        let mut want = Mat::zeros(m, n);
        a.matmul_into_naive(&b, &mut want);

        for pool in pools() {
            let mut got = Mat::zeros(m, n);
            a.matmul_into_on(&b, &mut got, &pool);
            assert_eq!(
                want.as_slice(),
                got.as_slice(),
                "matmul {m}x{k}·{k}x{n} diverged on a {}-thread pool",
                pool.threads()
            );
        }
    }
}

/// `max |x−y|` scaled by the largest magnitude in `want` — the right
/// yardstick for reassociation drift, since elementwise relative error is
/// meaningless where a random sum cancels toward zero.
fn drift(want: &Mat, got: &Mat) -> f32 {
    let scale = want.as_slice().iter().fold(1e-30f32, |m, v| m.max(v.abs()));
    want.as_slice()
        .iter()
        .zip(got.as_slice())
        .fold(0.0f32, |m, (w, g)| m.max((w - g).abs()))
        / scale
}

#[test]
fn fast_matmul_is_thread_invariant_and_tracks_the_reference() {
    // The training kernels (`matmul_fast`, `matmul_bt_packed`,
    // `matmul_t_accum_fast`) are allowed to reassociate the reduction (and
    // use FMA), so they are *not* bitwise-comparable to their references —
    // but they must still be bit-identical across thread counts.
    let mut rng = Rng::seed_from(46);
    for &(m, k, n) in SHAPES {
        let a = Mat::randn(m, k, 1.0, &mut rng);
        let b = Mat::randn(k, n, 1.0, &mut rng);

        let mut want = Mat::zeros(m, n);
        a.matmul_into_naive(&b, &mut want);

        let first = a.matmul_fast_on(&b, &pools()[0]);
        assert!(
            drift(&want, &first) < 1e-4,
            "matmul_fast {m}x{k}·{k}x{n} drifted {} from the reference",
            drift(&want, &first)
        );
        for pool in &pools()[1..] {
            let got = a.matmul_fast_on(&b, pool);
            assert_eq!(
                first.as_slice(),
                got.as_slice(),
                "matmul_fast {m}x{k}·{k}x{n} is thread-count dependent"
            );
        }
    }
}

#[test]
fn fast_t_accum_is_thread_invariant_and_tracks_the_reference() {
    let mut rng = Rng::seed_from(47);
    for &(r, m, n) in SHAPES {
        let x = Mat::randn(r, m, 1.0, &mut rng);
        let dy = Mat::randn(r, n, 1.0, &mut rng);
        let seed_out = Mat::randn(m, n, 0.5, &mut rng);

        let mut want = seed_out.clone();
        x.matmul_t_accum_naive(&dy, &mut want);

        let mut first = seed_out.clone();
        x.matmul_t_accum_fast_on(&dy, &mut first, &pools()[0]);
        assert!(
            drift(&want, &first) < 1e-4,
            "t_accum_fast {r}x{m}ᵀ·{r}x{n} drifted {} from the reference",
            drift(&want, &first)
        );
        for pool in &pools()[1..] {
            let mut got = seed_out.clone();
            x.matmul_t_accum_fast_on(&dy, &mut got, pool);
            assert_eq!(
                first.as_slice(),
                got.as_slice(),
                "t_accum_fast {r}x{m}ᵀ·{r}x{n} is thread-count dependent"
            );
        }
    }
}

#[test]
fn bt_packed_is_thread_invariant_and_tracks_the_reference() {
    let mut rng = Rng::seed_from(48);
    for &(m, k, n) in SHAPES {
        let a = Mat::randn(m, k, 1.0, &mut rng);
        let b = Mat::randn(n, k, 1.0, &mut rng);

        let mut want = Mat::zeros(m, n);
        a.matmul_into_naive(&b.transposed(), &mut want);

        let first = a.matmul_bt_packed_on(&b, &pools()[0]);
        assert!(
            drift(&want, &first) < 1e-4,
            "bt_packed {m}x{k}·({n}x{k})ᵀ drifted {} from the reference",
            drift(&want, &first)
        );
        for pool in &pools()[1..] {
            let got = a.matmul_bt_packed_on(&b, pool);
            assert_eq!(
                first.as_slice(),
                got.as_slice(),
                "bt_packed {m}x{k}·({n}x{k})ᵀ is thread-count dependent"
            );
        }
    }
}

#[test]
fn global_mode_dispatch_matches_explicit_pool() {
    // The public `matmul_into` runs on the global pool; it must agree with
    // an explicit pool bit-for-bit.
    let mut rng = Rng::seed_from(44);
    let a = Mat::randn(37, 53, 1.0, &mut rng);
    let b = Mat::randn(53, 29, 1.0, &mut rng);
    let mut via_global = Mat::zeros(37, 29);
    a.matmul_into(&b, &mut via_global);
    let pool = ThreadPool::new(3);
    let mut via_explicit = Mat::zeros(37, 29);
    a.matmul_into_on(&b, &mut via_explicit, &pool);
    assert_eq!(via_global.as_slice(), via_explicit.as_slice());
}

#[test]
fn zero_skip_is_preserved_so_inf_rows_stay_confined() {
    // The reference loops skip `a[i][k] == 0.0` instead of accumulating
    // `0.0 * b`, which matters when b holds non-finite values
    // (0·inf = NaN). The blocked kernels must skip identically: with one
    // all-zero column of `a` paired against an all-inf row of `b`, the
    // reference and the blocked kernel on every pool must produce the same
    // fully finite output.
    let mut rng = Rng::seed_from(45);
    let (m, k, n) = (9, 13, 11);
    let mut a = Mat::randn(m, k, 1.0, &mut rng);
    let mut b = Mat::randn(k, n, 1.0, &mut rng);
    let poisoned = 5;
    for i in 0..m {
        a.set(i, poisoned, 0.0);
    }
    for j in 0..n {
        b.set(poisoned, j, f32::INFINITY);
    }

    let mut want = Mat::zeros(m, n);
    a.matmul_into_naive(&b, &mut want);
    assert!(
        want.as_slice().iter().all(|v| v.is_finite()),
        "reference loop lost its zero-skip"
    );

    for pool in pools() {
        let mut got = Mat::zeros(m, n);
        a.matmul_into_on(&b, &mut got, &pool);
        assert_eq!(want.as_slice(), got.as_slice());
    }

    // Same discipline for the transposed-accumulate training kernel: a zero
    // column of x must skip the matching inf row of dy, so the output row
    // it feeds stays finite and equals the reference's.
    let mut x = Mat::randn(m, k, 1.0, &mut rng);
    let mut dy = Mat::randn(m, n, 1.0, &mut rng);
    for i in 0..m {
        x.set(i, poisoned, 0.0);
    }
    for j in 0..n {
        dy.set(3, j, f32::INFINITY);
    }
    x.set(3, poisoned, 0.0); // already zero via the column loop; explicit for clarity

    let mut want_t = Mat::zeros(k, n);
    x.matmul_t_accum_naive(&dy, &mut want_t);
    assert!(want_t.row(poisoned).iter().all(|v| v.is_finite()));

    for pool in pools() {
        let mut got_t = Mat::zeros(k, n);
        x.matmul_t_accum_fast_on(&dy, &mut got_t, &pool);
        assert_eq!(want_t.row(poisoned), got_t.row(poisoned));
    }
}

#[test]
fn gradcheck_passes_with_a_multithreaded_global_pool() {
    // Finite-difference gradcheck through attention (the heaviest GEMM
    // consumer) with the global pool asked to run 4 threads. `configure` is
    // first-writer-wins, so if another test already initialized the pool we
    // still run the check — the kernels are bit-exact at any width, which
    // is exactly the property that makes this safe.
    let threads = pool::configure(4);
    assert!(threads >= 1);
    let mut attn = SelfAttention::new(8, 2, &mut Rng::seed_from(7));
    let x = Mat::randn(6, 8, 1.0, &mut Rng::seed_from(8));
    let report = GradCheck {
        samples_per_param: 10,
        seed: 2,
        ..GradCheck::default()
    }
    .run(&mut attn, &|a, f| a.visit_params(f), &mut |a| {
        let y = a.forward(&x, 2, 3);
        let mut loss = 0.0;
        let mut d = Mat::zeros(y.rows(), y.cols());
        for (i, (dv, &yv)) in d.as_mut_slice().iter_mut().zip(y.as_slice()).enumerate() {
            let w = (i as f32).sin();
            *dv = w;
            loss += yv * w;
        }
        let _ = a.backward(&d);
        loss
    });
    assert!(report.max_rel < 1e-2, "{report:?}");
}
