//! Reassociating GEMM micro-kernel for the training path.
//!
//! The decode matmul in [`crate::mat`] is a bit-for-bit replica of its
//! reference loop: every output element accumulates in the exact order the
//! original triple loop used, because the forward sampling path's bits are
//! pinned by the golden-output regression. That contract costs real
//! throughput — it forbids fused multiply-add (a different rounding per
//! step) and register tiling that reorders the reduction.
//!
//! Training does not need that contract. Gradients and the training-time
//! forward activations (`Linear::forward`, never `Linear::apply`) are
//! consumed by finite-difference-validated backprop and an optimizer that
//! tolerates last-bit noise, so this module trades the pinned association
//! order for speed: a 2-row × 32-column register-tiled kernel that uses
//! AVX2 + FMA when the CPU has them and a portable axpy loop otherwise.
//!
//! Determinism contract: for a fixed machine the result is a pure function
//! of the operands — the per-element reduction order is ascending `k`
//! regardless of how rows are chunked across worker threads, so any thread
//! count produces identical bits. Across machines the bits may differ
//! (FMA vs. separate multiply+add), which is why the forward/golden path
//! must never route through here.
//!
//! Zero-skip rule: like the reference loops, a zero `a[i][k]` contributes
//! nothing rather than `0.0 * b[k][j]` — so non-finite values in rows of
//! `b` that are only ever paired with zeros (the masked upper triangle of
//! attention probabilities) stay confined.

use std::ops::Range;

/// Rows `rows` of `a · b` into `out_rows` (row-local slice), where `a` is
/// row-major with `k` columns and `b` is row-major `k × n`. Adds into the
/// existing contents when `accumulate` is true, overwrites otherwise.
pub(crate) fn gemm_rows(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    rows: Range<usize>,
    out_rows: &mut [f32],
    accumulate: bool,
) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: the required target features were just detected at
        // runtime; slice bounds are the same ones the portable path uses.
        unsafe { avx2::gemm_rows(a, k, b, n, rows, out_rows, accumulate) };
        return;
    }
    gemm_rows_portable(a, k, b, n, rows, out_rows, accumulate);
}

/// Portable fallback: per-`k` axpy sweeps with the zero-skip rule. Same
/// ascending-`k` per-element order as the AVX2 path, but rounded with
/// separate multiply and add instead of FMA.
fn gemm_rows_portable(
    a: &[f32],
    k: usize,
    b: &[f32],
    n: usize,
    rows: Range<usize>,
    out_rows: &mut [f32],
    accumulate: bool,
) {
    let i0 = rows.start;
    for i in rows {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out_rows[(i - i0) * n..][..n];
        if !accumulate {
            out_row.fill(0.0);
        }
        for (kk, &aik) in a_row.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..][..n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aik * bv;
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps,
    };
    use std::ops::Range;

    /// The register-tiled kernel: two output rows × 32 output columns live
    /// in eight YMM accumulators across the whole `k` reduction, so each
    /// `k` step is one broadcast per row plus four FMAs per row against
    /// four shared loads of `b` — output traffic is one load/store per
    /// tile instead of one per `k`.
    ///
    /// # Safety
    ///
    /// The caller must have verified the CPU supports AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn gemm_rows(
        a: &[f32],
        k: usize,
        b: &[f32],
        n: usize,
        rows: Range<usize>,
        out_rows: &mut [f32],
        accumulate: bool,
    ) {
        debug_assert!(a.len() >= rows.end * k);
        debug_assert!(b.len() >= k * n);
        debug_assert!(out_rows.len() >= (rows.end - rows.start) * n);
        let i0 = rows.start;
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out_rows.as_mut_ptr();
        let mut i = rows.start;
        while i < rows.end {
            let two = i + 1 < rows.end;
            // SAFETY (all pointer arithmetic below): `i`/`i+1` stay within
            // `rows`, `j`/`kk` stay within `n`/`k`, and the debug asserts
            // above pin the slice extents those indices address.
            let a0 = ap.add(i * k);
            let a1 = if two { ap.add((i + 1) * k) } else { a0 };
            let o0 = op.add((i - i0) * n);
            let o1 = if two { op.add((i + 1 - i0) * n) } else { o0 };
            let mut j = 0;
            while j + 32 <= n {
                let mut c = [_mm256_setzero_ps(); 4];
                let mut d = [_mm256_setzero_ps(); 4];
                if accumulate {
                    for (q, cq) in c.iter_mut().enumerate() {
                        *cq = _mm256_loadu_ps(o0.add(j + 8 * q));
                    }
                    if two {
                        for (q, dq) in d.iter_mut().enumerate() {
                            *dq = _mm256_loadu_ps(o1.add(j + 8 * q));
                        }
                    }
                }
                for kk in 0..k {
                    let av0 = *a0.add(kk);
                    let av1 = if two { *a1.add(kk) } else { 0.0 };
                    if av0 == 0.0 && av1 == 0.0 {
                        continue;
                    }
                    let br = bp.add(kk * n + j);
                    let b0 = _mm256_loadu_ps(br);
                    let b1 = _mm256_loadu_ps(br.add(8));
                    let b2 = _mm256_loadu_ps(br.add(16));
                    let b3 = _mm256_loadu_ps(br.add(24));
                    if av0 != 0.0 {
                        let v = _mm256_set1_ps(av0);
                        c[0] = _mm256_fmadd_ps(v, b0, c[0]);
                        c[1] = _mm256_fmadd_ps(v, b1, c[1]);
                        c[2] = _mm256_fmadd_ps(v, b2, c[2]);
                        c[3] = _mm256_fmadd_ps(v, b3, c[3]);
                    }
                    if av1 != 0.0 {
                        let v = _mm256_set1_ps(av1);
                        d[0] = _mm256_fmadd_ps(v, b0, d[0]);
                        d[1] = _mm256_fmadd_ps(v, b1, d[1]);
                        d[2] = _mm256_fmadd_ps(v, b2, d[2]);
                        d[3] = _mm256_fmadd_ps(v, b3, d[3]);
                    }
                }
                for (q, cq) in c.iter().enumerate() {
                    _mm256_storeu_ps(o0.add(j + 8 * q), *cq);
                }
                if two {
                    for (q, dq) in d.iter().enumerate() {
                        _mm256_storeu_ps(o1.add(j + 8 * q), *dq);
                    }
                }
                j += 32;
            }
            while j + 8 <= n {
                let mut c0 = if accumulate {
                    _mm256_loadu_ps(o0.add(j))
                } else {
                    _mm256_setzero_ps()
                };
                let mut d0 = if two && accumulate {
                    _mm256_loadu_ps(o1.add(j))
                } else {
                    _mm256_setzero_ps()
                };
                for kk in 0..k {
                    let av0 = *a0.add(kk);
                    let av1 = if two { *a1.add(kk) } else { 0.0 };
                    if av0 == 0.0 && av1 == 0.0 {
                        continue;
                    }
                    let bv = _mm256_loadu_ps(bp.add(kk * n + j));
                    if av0 != 0.0 {
                        c0 = _mm256_fmadd_ps(_mm256_set1_ps(av0), bv, c0);
                    }
                    if av1 != 0.0 {
                        d0 = _mm256_fmadd_ps(_mm256_set1_ps(av1), bv, d0);
                    }
                }
                _mm256_storeu_ps(o0.add(j), c0);
                if two {
                    _mm256_storeu_ps(o1.add(j), d0);
                }
                j += 8;
            }
            while j < n {
                let mut s0 = if accumulate { *o0.add(j) } else { 0.0 };
                let mut s1 = if two && accumulate { *o1.add(j) } else { 0.0 };
                for kk in 0..k {
                    let bv = *bp.add(kk * n + j);
                    let av0 = *a0.add(kk);
                    if av0 != 0.0 {
                        // Inside a `fma`-enabled fn this lowers to a real
                        // vfmadd instead of a libm call.
                        s0 = av0.mul_add(bv, s0);
                    }
                    if two {
                        let av1 = *a1.add(kk);
                        if av1 != 0.0 {
                            s1 = av1.mul_add(bv, s1);
                        }
                    }
                }
                *o0.add(j) = s0;
                if two {
                    *o1.add(j) = s1;
                }
                j += 1;
            }
            i += if two { 2 } else { 1 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(a: &[f32], k: usize, b: &[f32], n: usize, m: usize) -> Vec<f32> {
        let mut out = vec![0.0f64; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk] as f64;
                for j in 0..n {
                    out[i * n + j] += av * b[kk * n + j] as f64;
                }
            }
        }
        out.into_iter().map(|v| v as f32).collect()
    }

    fn pseudo(seed: &mut u64) -> f32 {
        // DET: xorshift with a fixed caller-provided seed — reproducible.
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        ((*seed >> 40) as f32 / (1u64 << 24) as f32) - 0.5
    }

    #[test]
    fn matches_f64_reference_on_awkward_shapes() {
        let mut seed = 9u64;
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (2, 3, 4),
            (3, 7, 33),
            (5, 16, 40),
            (7, 31, 71),
            (4, 64, 96),
        ] {
            let a: Vec<f32> = (0..m * k).map(|_| pseudo(&mut seed)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| pseudo(&mut seed)).collect();
            let mut got = vec![0.0f32; m * n];
            gemm_rows(&a, k, &b, n, 0..m, &mut got, false);
            let want = reference(&a, k, &b, n, m);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-3 * (1.0 + w.abs()), "{g} vs {w}");
            }
        }
    }

    #[test]
    fn accumulate_adds_instead_of_overwriting() {
        let mut seed = 11u64;
        let (m, k, n) = (3usize, 5usize, 37usize);
        let a: Vec<f32> = (0..m * k).map(|_| pseudo(&mut seed)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| pseudo(&mut seed)).collect();
        let mut once = vec![0.0f32; m * n];
        gemm_rows(&a, k, &b, n, 0..m, &mut once, false);
        let mut twice = once.clone();
        gemm_rows(&a, k, &b, n, 0..m, &mut twice, true);
        for (t, o) in twice.iter().zip(&once) {
            assert!((t - 2.0 * o).abs() < 1e-4, "{t} vs {}", 2.0 * o);
        }
    }

    #[test]
    fn row_chunking_does_not_change_bits() {
        let mut seed = 13u64;
        let (m, k, n) = (9usize, 17usize, 41usize);
        let a: Vec<f32> = (0..m * k).map(|_| pseudo(&mut seed)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| pseudo(&mut seed)).collect();
        let mut whole = vec![0.0f32; m * n];
        gemm_rows(&a, k, &b, n, 0..m, &mut whole, false);
        // Recompute in uneven chunks (1 row, 3 rows, 5 rows): every element
        // must come out bit-identical, which is what makes the pooled
        // dispatch thread-count invariant.
        let mut chunked = vec![0.0f32; m * n];
        for (lo, hi) in [(0usize, 1usize), (1, 4), (4, 9)] {
            gemm_rows(&a, k, &b, n, lo..hi, &mut chunked[lo * n..hi * n], false);
        }
        assert_eq!(whole, chunked);
    }

    #[test]
    fn zero_rows_confine_infinities() {
        let (m, k, n) = (4usize, 6usize, 35usize);
        let mut a = vec![1.0f32; m * k];
        let mut b = vec![1.0f32; k * n];
        let poisoned = 2;
        for i in 0..m {
            a[i * k + poisoned] = 0.0;
        }
        for j in 0..n {
            b[poisoned * n + j] = f32::INFINITY;
        }
        let mut out = vec![0.0f32; m * n];
        gemm_rows(&a, k, &b, n, 0..m, &mut out, false);
        assert!(out.iter().all(|v| v.is_finite()), "zero-skip rule violated");
        for &v in &out {
            assert_eq!(v, (k - 1) as f32);
        }
    }
}
