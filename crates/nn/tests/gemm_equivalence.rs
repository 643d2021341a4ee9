//! Bitwise equivalence of the cache-blocked GEMM kernels against the
//! reference loops, at every thread count.
//!
//! The golden-output regression (`crates/core/tests/golden_dcgen.rs`) only
//! exercises the shapes one tiny model happens to produce. These tests pin
//! the stronger claim the kernels are built on: for *any* shape — including
//! 1×1, primes that defeat the 4-wide micro-kernel's main loop, and far
//! fewer rows than worker threads — the blocked kernels on pools of 1, 2
//! and 4 threads produce outputs that compare `==` (bit-identical, not
//! approximately equal) to the reference loops [`Mat::matmul_into_naive`]
//! and [`Mat::matmul_t_accum_naive`]. `matmul_bt` is its own reference (one
//! dot loop per row, however the rows are chunked), so it is checked for
//! thread-count invariance; it in turn is the reference of
//! `matmul_bt_packed`.

use pagpass_nn::gradcheck::GradCheck;
use pagpass_nn::{pool, Mat, Rng, SelfAttention, ThreadPool};

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

#[test]
fn t_accum_blocked_is_bit_identical_to_naive_at_any_thread_count() {
    let mut rng = Rng::seed_from(42);
    for &(r, m, n) in SHAPES {
        // x is r×m, dy is r×n, out accumulates xᵀ·dy into m×n. Start from a
        // nonzero out so the accumulate (not overwrite) semantics are pinned.
        let x = Mat::randn(r, m, 1.0, &mut rng);
        let dy = Mat::randn(r, n, 1.0, &mut rng);
        let seed_out = Mat::randn(m, n, 0.5, &mut rng);

        let mut want = seed_out.clone();
        x.matmul_t_accum_naive(&dy, &mut want);

        for pool in pools() {
            let mut got = seed_out.clone();
            x.matmul_t_accum_on(&dy, &mut got, &pool);
            assert_eq!(
                want.as_slice(),
                got.as_slice(),
                "t_accum {r}x{m}ᵀ·{r}x{n} diverged on a {}-thread pool",
                pool.threads()
            );
        }
    }
}

#[test]
fn bt_blocked_is_bit_identical_to_naive_at_any_thread_count() {
    let mut rng = Rng::seed_from(43);
    for &(m, k, n) in SHAPES {
        let a = Mat::randn(m, k, 1.0, &mut rng);
        let b = Mat::randn(n, k, 1.0, &mut rng);

        // `matmul_bt` is its own reference: the global-pool call must
        // match every explicit pool.
        let want = a.matmul_bt(&b);

        for pool in pools() {
            let got = a.matmul_bt_on(&b, &pool);
            assert_eq!(
                want.as_slice(),
                got.as_slice(),
                "matmul_bt {m}x{k}·({n}x{k})ᵀ diverged on a {}-thread pool",
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

        let want = a.matmul_bt(&b);

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

    // Same discipline for the transposed-accumulate kernel: a zero column
    // of x must skip the matching inf row of dy.
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
        x.matmul_t_accum_on(&dy, &mut got_t, &pool);
        assert_eq!(want_t.as_slice(), got_t.as_slice());
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
