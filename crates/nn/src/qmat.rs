//! Pack-once int8 quantized weights for the decode path.
//!
//! [`QMat`] stores a weight matrix in the ggml `Q8_0` idiom: int8 blocks of
//! [`QBLOCK`] values with one f32 scale per block, quantized symmetrically
//! by per-block absmax. Weights are packed **transposed** — one contiguous
//! int8 lane per *output* column, padded to a whole number of blocks — so
//! the decode matvec streams each column once and the per-block scales sit
//! next to the data they dequantize. Activations are quantized per row, per
//! block, at matmul time with the same scheme.
//!
//! # Determinism contract
//!
//! Quantized decode is an explicit *alternative* mode with its own golden
//! files, not a bit-compatible replacement for the f32 kernels — but within
//! the mode the output is pinned exactly:
//!
//! * Each block dot is an exact `i32` sum of `i8×i8` products. 32 products
//!   of magnitude ≤ 127² sum to < 2²⁰, so no widening path can overflow or
//!   round: the AVX2 widening-multiply-add lanes and the portable scalar
//!   loop produce the *same integer*, making SIMD and portable dispatch
//!   bitwise identical.
//! * The f32 accumulation `acc += (w_scale · x_scale) · block_sum` runs in
//!   ascending block order in both dispatch paths.
//! * Parallelism shards disjoint output columns; every output element is
//!   computed start-to-finish by one thread in the same order the
//!   single-threaded loop uses. Results are identical at any thread count.
//!
//! Training never touches this module: gradients flow through the f32
//! weights, and a session packs them once at build time for decode only.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::mat::{chunk_count, count_gemm_call, Mat, OutPtr};
use crate::pool;

/// Values per quantization block (per-block f32 scale granularity).
pub const QBLOCK: usize = 32;

/// Output columns per SIMD tile in the interleaved weight copy. Sixteen
/// columns = one 256-bit weight load per activation pair, accumulated into
/// two `i32x8` lane vectors (one block-sum per column) that share each
/// pair's broadcast.
const TILE: usize = 16;

/// `i8` pairs per block — `vpmaddwd` consumes two adjacent values per lane.
const PAIRS: usize = QBLOCK / 2;

/// Environment variable that forces the portable scalar paths — the int8
/// kernels and the pinned f32 matmul — even when AVX2 is available (set to
/// anything but `0`). The CI equivalence job runs one leg under it to prove
/// SIMD and portable dispatch agree bitwise.
pub const FORCE_PORTABLE_ENV: &str = "PAGPASS_FORCE_PORTABLE";

/// Lazily seeded from [`FORCE_PORTABLE_ENV`]; flippable in-process by tests
/// via [`set_force_portable`].
static FORCE_PORTABLE: OnceLock<AtomicBool> = OnceLock::new();

fn force_portable_flag() -> &'static AtomicBool {
    FORCE_PORTABLE.get_or_init(|| {
        AtomicBool::new(std::env::var_os(FORCE_PORTABLE_ENV).is_some_and(|v| v != *"0"))
    })
}

/// Forces (or re-allows) portable scalar dispatch for the int8 kernels and
/// the pinned f32 matmul, process-wide. Dispatch never changes results —
/// the integer block dots are exact, and both f32 arms round each product
/// and sum alike — only speed; tests flip this to assert exactly that.
pub fn set_force_portable(on: bool) {
    // ORD: a dispatch preference, not a synchronization point; a reader
    // observing it one matmul late computes the same bits anyway.
    force_portable_flag().store(on, Ordering::Relaxed);
}

/// Whether the portable scalar paths are currently forced.
#[must_use]
pub fn force_portable() -> bool {
    // ORD: see `set_force_portable` — stale reads are benign.
    force_portable_flag().load(Ordering::Relaxed)
}

thread_local! {
    /// Per-call activation scratch — quantized rows, their block scales,
    /// and the AVX2 pair operands — reused across matmuls. Decode issues a
    /// dozen small matvecs per token, where three heap allocations per call
    /// would rival the kernel itself. Only the submitting thread touches
    /// the buffers; pool chunks read them through shared slices that the
    /// borrow outlives.
    static X_SCRATCH: RefCell<(Vec<i8>, Vec<f32>, Vec<i32>)> =
        const { RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

/// A weight matrix packed once into per-column int8 blocks with per-block
/// f32 scales (symmetric absmax, block size [`QBLOCK`]).
///
/// Logical shape matches the f32 weight it was packed from: `in_dim ×
/// out_dim`, consumed as `x · W` with `x: rows × in_dim`.
#[derive(Debug, Clone, PartialEq)]
pub struct QMat {
    in_dim: usize,
    out_dim: usize,
    /// Blocks per column: `in_dim.div_ceil(QBLOCK)`.
    blocks: usize,
    /// `out_dim` columns × `blocks × QBLOCK` int8 values, column-major;
    /// positions past `in_dim` are zero padding.
    data: Vec<i8>,
    /// `out_dim × blocks` dequantization scales, column-major.
    scales: Vec<f32>,
    /// Interleaved copy of `data` for the AVX2 fast path, covering the
    /// `out_dim / TILE` full column tiles: per tile, per block, [`PAIRS`]
    /// 32-byte groups holding each tile column's adjacent value pair —
    /// exactly the operand order `vpmaddwd` wants, so two madds yield all
    /// sixteen columns' pair products and no horizontal sum is ever
    /// needed. A pure function of `data`; tail columns past the last full
    /// tile are not mirrored and always take the scalar path.
    tiled: Vec<i8>,
    /// `scales` regrouped to match `tiled`: per tile, per block, the eight
    /// tile columns' scales contiguously (one `f32x8` load).
    tiled_scales: Vec<f32>,
}

/// Quantizes one block: `scale = absmax / 127`, `q = round(v / scale)` with
/// halves rounded away from zero. An all-zero block stores scale 0 and
/// zeros (0 · 0 = 0 exactly); `dst` positions past `src` are zeroed so
/// reused scratch never leaks stale values into the padding.
fn quantize_block(src: &[f32], dst: &mut [i8]) -> f32 {
    // |v| clears the sign bit, and IEEE bit patterns of non-negative floats
    // order like their values — so the absmax is an integer max reduction,
    // which vectorizes where a float max chain would stay a serial
    // dependency. Bit-exact with `fold(0.0, |m, v| m.max(v.abs()))` for
    // finite inputs.
    let absmax_bits = src
        .iter()
        .fold(0u32, |m, v| m.max(v.to_bits() & 0x7fff_ffff));
    let absmax = f32::from_bits(absmax_bits);
    if absmax == 0.0 {
        dst.fill(0);
        return 0.0;
    }
    let scale = absmax / 127.0;
    let inv = 127.0 / absmax;
    for (d, &v) in dst.iter_mut().zip(src) {
        // Round half away from zero by biasing ±0.5 and truncating in the
        // cast. Baseline x86-64 has no round instruction, so `f32::round`
        // is a libm call per element — the activation quantization runs
        // before every decode matvec, where thousands of such calls per
        // token would rival the kernel itself. absmax scaling bounds
        // |v·inv| by 127, so the truncation is exact; clamp anyway to keep
        // the i8 contract local.
        let biased = v * inv + 0.5f32.copysign(v);
        *d = (biased as i32).clamp(-127, 127) as i8;
    }
    dst[src.len()..].fill(0);
    scale
}

impl QMat {
    /// Packs an `in_dim × out_dim` f32 weight into quantized column lanes.
    /// Pure function of the weight bits: packing twice yields equal `QMat`s.
    #[must_use]
    pub fn pack(w: &Mat) -> QMat {
        let (in_dim, out_dim) = (w.rows(), w.cols());
        let blocks = in_dim.div_ceil(QBLOCK).max(1);
        let padded = blocks * QBLOCK;
        let mut data = vec![0i8; out_dim * padded];
        let mut scales = vec![0f32; out_dim * blocks];
        let mut col = vec![0f32; padded];
        for j in 0..out_dim {
            col.fill(0.0);
            for (i, slot) in col.iter_mut().enumerate().take(in_dim) {
                *slot = w.row(i)[j];
            }
            let lane = &mut data[j * padded..(j + 1) * padded];
            for b in 0..blocks {
                scales[j * blocks + b] = quantize_block(
                    &col[b * QBLOCK..(b + 1) * QBLOCK],
                    &mut lane[b * QBLOCK..(b + 1) * QBLOCK],
                );
            }
        }
        let tiles = out_dim / TILE;
        let mut tiled = vec![0i8; tiles * blocks * TILE * QBLOCK];
        let mut tiled_scales = vec![0f32; tiles * blocks * TILE];
        for t in 0..tiles {
            for b in 0..blocks {
                let chunk = &mut tiled[(t * blocks + b) * TILE * QBLOCK..][..TILE * QBLOCK];
                for l in 0..TILE {
                    let lane = &data[(t * TILE + l) * padded..];
                    for p in 0..PAIRS {
                        chunk[p * 2 * TILE + l * 2] = lane[b * QBLOCK + 2 * p];
                        chunk[p * 2 * TILE + l * 2 + 1] = lane[b * QBLOCK + 2 * p + 1];
                    }
                    tiled_scales[(t * blocks + b) * TILE + l] = scales[(t * TILE + l) * blocks + b];
                }
            }
        }
        QMat {
            in_dim,
            out_dim,
            blocks,
            data,
            scales,
            tiled,
            tiled_scales,
        }
    }

    /// Input dimension (rows of the packed weight).
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension (columns of the packed weight).
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Dequantizes back to an `in_dim × out_dim` f32 matrix. Round-trip is
    /// lossy by at most half a quantization step per element
    /// (`scale / 2`); the pack/unpack tests assert that bound.
    #[must_use]
    pub fn unpack(&self) -> Mat {
        let padded = self.blocks * QBLOCK;
        let mut out = Mat::zeros(self.in_dim, self.out_dim);
        for j in 0..self.out_dim {
            let lane = &self.data[j * padded..(j + 1) * padded];
            for (i, &q) in lane.iter().enumerate().take(self.in_dim) {
                let scale = self.scales[j * self.blocks + i / QBLOCK];
                out.row_mut(i)[j] = f32::from(q) * scale;
            }
        }
        out
    }

    /// `x · W` with per-row activation quantization: `x: rows × in_dim` →
    /// `rows × out_dim`. Runs on the global [`pool`]; output is bitwise
    /// identical at any thread count and under either dispatch path (see
    /// the module docs).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    #[must_use]
    pub fn matmul(&self, x: &Mat) -> Mat {
        assert_eq!(
            x.cols(),
            self.in_dim,
            "qmatmul: inner dimensions must agree (lhs {}x{} · packed {}x{})",
            x.rows(),
            x.cols(),
            self.in_dim,
            self.out_dim
        );
        count_gemm_call();
        let rows = x.rows();
        let padded = self.blocks * QBLOCK;
        let avx2 = use_avx2();
        // The tiled SIMD path consumes pre-packed madd operands; skip
        // building them when only the scalar loop will run.
        let want_pairs = avx2 && self.out_dim >= TILE;
        let mut out = Mat::zeros(rows, self.out_dim);
        X_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let (qx, xscales, xpairs) = &mut *scratch;
            qx.clear();
            qx.resize(rows * padded, 0);
            xscales.clear();
            xscales.resize(rows * self.blocks, 0.0);
            xpairs.clear();
            if want_pairs {
                xpairs.resize(rows * self.blocks * PAIRS, 0);
            }
            // Quantize every activation row once, up front, packing each
            // adjacent i8 pair (widened to i16) into one broadcastable i32
            // while the freshly quantized lane is still in cache.
            for r in 0..rows {
                let src = x.row(r);
                let lane = &mut qx[r * padded..(r + 1) * padded];
                for b in 0..self.blocks {
                    let hi = ((b + 1) * QBLOCK).min(self.in_dim);
                    xscales[r * self.blocks + b] = quantize_block(
                        &src[b * QBLOCK..hi],
                        &mut lane[b * QBLOCK..(b + 1) * QBLOCK],
                    );
                }
                if want_pairs {
                    let dst = &mut xpairs[r * self.blocks * PAIRS..][..self.blocks * PAIRS];
                    #[cfg(target_arch = "x86_64")]
                    // SAFETY: `want_pairs` implies `use_avx2` confirmed the
                    // cpuid feature.
                    unsafe {
                        widen_pairs_avx2(lane, dst);
                    }
                    #[cfg(not(target_arch = "x86_64"))]
                    widen_pairs_portable(lane, dst);
                }
            }
            self.matmul_quantized_rows(qx, xscales, xpairs, avx2, rows, &mut out);
        });
        out
    }

    /// The sharded kernel over pre-quantized activations. Chunks own
    /// disjoint output-column ranges, so every `(row, col)` element is
    /// written exactly once by exactly one thread. `xpairs` carries the
    /// broadcastable pair operands for the AVX2 tile kernel (empty when
    /// `avx2` is off or the matrix has no full tile).
    fn matmul_quantized_rows(
        &self,
        qx: &[i8],
        xscales: &[f32],
        xpairs: &[i32],
        avx2: bool,
        rows: usize,
        out: &mut Mat,
    ) {
        let pool = pool::global();
        let n = self.out_dim;
        let chunks = chunk_count(pool.threads(), n, rows.saturating_mul(self.in_dim.max(1)));
        // Chunk boundaries snap to whole column tiles so the AVX2 path
        // never straddles one; trailing chunks may come up empty. Chunking
        // never changes bits either way — every element is computed
        // start-to-finish by one thread in one fixed order.
        let block = n.div_ceil(chunks.max(1)).next_multiple_of(TILE);
        let out_ptr = OutPtr::new(out.as_mut_slice());
        pool.run(chunks, &|c| {
            let j0 = (c * block).min(n);
            let j1 = ((c + 1) * block).min(n);
            // Dispatch once per chunk, not per block: the column loop is
            // monomorphized over the dot so it inlines — an indirect call
            // per 32-value block would dominate the decode-sized matvecs
            // this kernel exists for. Both paths run the same f32
            // accumulation sequence per element, so dispatch never changes
            // the result bits.
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // SAFETY: `use_avx2` confirmed the cpuid feature.
                unsafe { self.cols_avx2(qx, xscales, xpairs, rows, j0, j1, out_ptr) };
                return;
            }
            let _ = (avx2, &xpairs);
            self.cols_loop(qx, xscales, rows, j0, j1, out_ptr, block_dot_portable);
        });
    }

    /// One chunk's column range under AVX2. Full tiles run the interleaved
    /// kernel: per block, [`PAIRS`] madds accumulate all eight columns'
    /// exact integer block sums in `i32x8` lanes (no horizontal sum), then
    /// one `f32x8` multiply-add applies the scales. Lane `l` performs
    /// exactly the scalar sequence `acc += (ws[b]·xs[b]) · isum[b] as f32`
    /// in ascending block order, so the output is bitwise identical to the
    /// portable loop. Tail columns past the last full tile fall back to the
    /// scalar loop with the SIMD block dot.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    // Flattened hot-path arguments: bundling them into a struct would just
    // rebuild the same eight fields per chunk for no clarity gain.
    #[allow(clippy::too_many_arguments)]
    unsafe fn cols_avx2(
        &self,
        qx: &[i8],
        xscales: &[f32],
        xpairs: &[i32],
        rows: usize,
        j0: usize,
        j1: usize,
        out: OutPtr,
    ) {
        use std::arch::x86_64::{
            _mm256_add_epi32, _mm256_add_ps, _mm256_castsi256_si128, _mm256_cvtepi32_ps,
            _mm256_cvtepi8_epi16, _mm256_extracti128_si256, _mm256_loadu_ps, _mm256_loadu_si256,
            _mm256_madd_epi16, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setzero_ps,
            _mm256_setzero_si256, _mm256_storeu_ps,
        };
        debug_assert_eq!(j0 % TILE, 0, "chunks must start on a tile boundary");
        let n = self.out_dim;
        let mut j = j0;
        while j + TILE <= j1 {
            let t = j / TILE;
            for r in 0..rows {
                let xp = &xpairs[r * self.blocks * PAIRS..][..self.blocks * PAIRS];
                let xs = &xscales[r * self.blocks..(r + 1) * self.blocks];
                let mut acc_lo = _mm256_setzero_ps();
                let mut acc_hi = _mm256_setzero_ps();
                for b in 0..self.blocks {
                    let wtile =
                        &self.tiled[(t * self.blocks + b) * TILE * QBLOCK..][..TILE * QBLOCK];
                    let mut isum_lo = _mm256_setzero_si256();
                    let mut isum_hi = _mm256_setzero_si256();
                    for p in 0..PAIRS {
                        // SAFETY: `wtile` holds TILE·QBLOCK = PAIRS·32
                        // bytes, so group `p` covers bytes `[32p, 32p+32)`:
                        // all sixteen tile columns' pair `p`.
                        let w = unsafe { _mm256_loadu_si256(wtile.as_ptr().add(p * 32).cast()) };
                        let xv = _mm256_set1_epi32(xp[b * PAIRS + p]);
                        // i16 widening keeps every product exact; the i32
                        // lane adds are exact integers in any order. Both
                        // column halves share one pair broadcast.
                        isum_lo = _mm256_add_epi32(
                            isum_lo,
                            _mm256_madd_epi16(_mm256_cvtepi8_epi16(_mm256_castsi256_si128(w)), xv),
                        );
                        isum_hi = _mm256_add_epi32(
                            isum_hi,
                            _mm256_madd_epi16(
                                _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(w)),
                                xv,
                            ),
                        );
                    }
                    let xsb = _mm256_set1_ps(xs[b]);
                    // SAFETY: tile `t` < out_dim/TILE and `b` < blocks index
                    // inside `tiled_scales` by construction in `pack`; the
                    // two loads cover the tile's sixteen scales.
                    let (ws_lo, ws_hi) = unsafe {
                        let base = self.tiled_scales.as_ptr().add((t * self.blocks + b) * TILE);
                        (_mm256_loadu_ps(base), _mm256_loadu_ps(base.add(TILE / 2)))
                    };
                    // < 2²⁰ per lane, so the i32 → f32 convert is exact.
                    acc_lo = _mm256_add_ps(
                        acc_lo,
                        _mm256_mul_ps(_mm256_mul_ps(ws_lo, xsb), _mm256_cvtepi32_ps(isum_lo)),
                    );
                    acc_hi = _mm256_add_ps(
                        acc_hi,
                        _mm256_mul_ps(_mm256_mul_ps(ws_hi, xsb), _mm256_cvtepi32_ps(isum_hi)),
                    );
                }
                // SAFETY: the chunk owns columns [j0, j1) exclusively and
                // `j + TILE ≤ j1 ≤ n`, so the two 8-lane stores stay inside
                // row `r` of the `rows × n` output.
                unsafe {
                    _mm256_storeu_ps(out.at(r * n + j), acc_lo);
                    _mm256_storeu_ps(out.at(r * n + j + TILE / 2), acc_hi);
                }
            }
            j += TILE;
        }
        self.cols_loop(qx, xscales, rows, j, j1, out, block_dot_avx2);
    }

    /// The shared column loop, generic over the block dot so each dispatch
    /// path compiles to a fully inlined kernel.
    #[inline(always)]
    // Same flattened signature as `cols_avx2`, which tail-calls into this.
    #[allow(clippy::too_many_arguments)]
    fn cols_loop(
        &self,
        qx: &[i8],
        xscales: &[f32],
        rows: usize,
        j0: usize,
        j1: usize,
        out: OutPtr,
        dot: impl Fn(&[i8], &[i8]) -> i32,
    ) {
        let n = self.out_dim;
        let padded = self.blocks * QBLOCK;
        for j in j0..j1 {
            let wlane = &self.data[j * padded..(j + 1) * padded];
            let wscales = &self.scales[j * self.blocks..(j + 1) * self.blocks];
            for r in 0..rows {
                let xlane = &qx[r * padded..(r + 1) * padded];
                let xs = &xscales[r * self.blocks..(r + 1) * self.blocks];
                let mut acc = 0.0f32;
                for b in 0..self.blocks {
                    let isum = dot(
                        &xlane[b * QBLOCK..(b + 1) * QBLOCK],
                        &wlane[b * QBLOCK..(b + 1) * QBLOCK],
                    );
                    acc += (wscales[b] * xs[b]) * isum as f32;
                }
                // SAFETY: the calling chunk owns columns `[j0, j1)`
                // exclusively (chunks tile `0..n` disjointly), `r < rows`
                // and `j < n` index inside the `rows × n` output, and
                // `pool.run` returns only after every chunk finished,
                // confining the write to the current frame.
                unsafe { *out.at(r * n + j) = acc };
            }
        }
    }
}

/// Whether the AVX2 paths should run: the CPU has the feature and
/// portable dispatch is not forced. Both int8 paths return the same exact
/// integers (the module-docs overflow argument), and the pinned f32 matmul
/// performs the same per-element operations on either path, so this picks
/// speed only.
pub(crate) fn use_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        !force_portable() && is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Packs each adjacent quantized pair into one broadcastable `i32` — the
/// two values sign-extended to `i16`, low value in the low half — i.e. the
/// exact `vpmaddwd` operand [`QMat::matmul`] feeds the tile kernel.
#[allow(dead_code)] // the x86_64 build replaces it with the SIMD widen
fn widen_pairs_portable(lane: &[i8], out: &mut [i32]) {
    for (slot, pair) in out.iter_mut().zip(lane.chunks_exact(2)) {
        let lo = u32::from(pair[0] as i16 as u16);
        let hi = u32::from(pair[1] as i16 as u16);
        *slot = (lo | (hi << 16)) as i32;
    }
}

/// [`widen_pairs_portable`] as a single `vpmovsxbw` per 16 values: the
/// sign-extended i16 lanes land in memory in exactly the packed-pair order.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn widen_pairs_avx2(lane: &[i8], out: &mut [i32]) {
    use std::arch::x86_64::{
        _mm256_castsi256_si128, _mm256_cvtepi8_epi16, _mm256_extracti128_si256, _mm256_loadu_si256,
        _mm256_storeu_si256,
    };
    debug_assert_eq!(lane.len(), out.len() * 2, "one i32 slot per i8 pair");
    debug_assert_eq!(lane.len() % QBLOCK, 0, "lanes are whole blocks");
    for (src, dst) in lane.chunks_exact(32).zip(out.chunks_exact_mut(16)) {
        // SAFETY: `chunks_exact` guarantees 32 readable bytes and 16
        // writable i32 slots per iteration.
        unsafe {
            let w = _mm256_loadu_si256(src.as_ptr().cast());
            let lo = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(w));
            let hi = _mm256_cvtepi8_epi16(_mm256_extracti128_si256::<1>(w));
            _mm256_storeu_si256(dst.as_mut_ptr().cast(), lo);
            _mm256_storeu_si256(dst.as_mut_ptr().add(8).cast(), hi);
        }
    }
}

/// Portable scalar reference: widen to `i32`, multiply, sum.
#[inline(always)]
fn block_dot_portable(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), QBLOCK);
    debug_assert_eq!(b.len(), QBLOCK);
    let mut sum = 0i32;
    for (&x, &w) in a.iter().zip(b) {
        sum += i32::from(x) * i32::from(w);
    }
    sum
}

/// AVX2 block dot: widen `i8 → i16`, `madd` to `i32` lanes, horizontal sum.
/// Every intermediate is exact (≤ 2·127² per `madd` lane, ≤ 32·127² per
/// block), so the result equals [`block_dot_portable`] bit for bit.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn block_dot_avx2(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), QBLOCK);
    debug_assert_eq!(b.len(), QBLOCK);
    // SAFETY: callers reach this only after `use_avx2` confirmed the cpuid
    // feature, and both slices carry exactly QBLOCK = 32 bytes (asserted
    // above), covering the two 16-byte loads.
    unsafe { block_dot_avx2_inner(a, b) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn block_dot_avx2_inner(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::{
        __m128i, _mm256_add_epi32, _mm256_cvtepi8_epi16, _mm256_extracti128_si256,
        _mm256_madd_epi16, _mm_add_epi32, _mm_cvtsi128_si32, _mm_loadu_si128, _mm_shuffle_epi32,
    };
    let mut acc = None;
    for half in 0..2 {
        let xa = _mm_loadu_si128(a.as_ptr().add(half * 16).cast::<__m128i>());
        let xb = _mm_loadu_si128(b.as_ptr().add(half * 16).cast::<__m128i>());
        // i8 → i16 widening makes every product exact in the i16×i16
        // multiply; madd pairs two products into one i32 lane.
        let prod = _mm256_madd_epi16(_mm256_cvtepi8_epi16(xa), _mm256_cvtepi8_epi16(xb));
        acc = Some(match acc {
            None => prod,
            Some(v) => _mm256_add_epi32(v, prod),
        });
    }
    let v = acc.unwrap_or_else(|| unreachable!("loop ran twice"));
    // Horizontal i32 sum: integer addition is associative, so lane order
    // cannot change the result.
    let lo = _mm256_extracti128_si256::<0>(v);
    let hi = _mm256_extracti128_si256::<1>(v);
    let s = _mm_add_epi32(lo, hi);
    let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b00_01_10_11>(s));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b10_11_00_01>(s));
    _mm_cvtsi128_si32(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random f32 in [-1, 1).
    // DET: xorshift keeps the tests hermetic — no RNG crate, same stream on
    // every platform.
    fn pseudo(seed: &mut u64) -> f32 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        ((*seed >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
    }

    fn random_mat(rows: usize, cols: usize, seed: &mut u64) -> Mat {
        let data: Vec<f32> = (0..rows * cols).map(|_| pseudo(seed) * 3.0).collect();
        Mat::from_rows(rows, cols, data)
    }

    #[test]
    fn pack_unpack_round_trip_bounds_error_per_block_scale() {
        // Randomized shapes, including columns that are not a multiple of
        // the block size and a dimension smaller than one block.
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for (in_dim, out_dim) in [(32, 8), (48, 5), (7, 3), (96, 96), (65, 17), (1, 1)] {
            let w = random_mat(in_dim, out_dim, &mut seed);
            let q = QMat::pack(&w);
            assert_eq!((q.in_dim(), q.out_dim()), (in_dim, out_dim));
            let back = q.unpack();
            for i in 0..in_dim {
                for j in 0..out_dim {
                    let orig = w.row(i)[j];
                    let deq = back.row(i)[j];
                    let scale = q.scales[j * q.blocks + i / QBLOCK];
                    assert!(
                        (orig - deq).abs() <= scale * 0.5 + 1e-6,
                        "{in_dim}x{out_dim} [{i}][{j}]: {orig} vs {deq} (scale {scale})"
                    );
                }
            }
        }
    }

    #[test]
    fn packing_is_deterministic() {
        let mut seed = 7;
        let w = random_mat(40, 12, &mut seed);
        assert_eq!(QMat::pack(&w), QMat::pack(&w));
    }

    #[test]
    fn zero_blocks_quantize_to_exact_zero() {
        let w = Mat::zeros(64, 6);
        let q = QMat::pack(&w);
        assert!(q.scales.iter().all(|&s| s == 0.0));
        assert_eq!(q.unpack(), w);
        let x = Mat::from_rows(2, 64, vec![1.5; 128]);
        let out = q.matmul(&x);
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn avx2_and_portable_dispatch_are_bitwise_identical() {
        // The int8 block dots are exact integers, so forcing the portable
        // path must reproduce the SIMD output bit for bit — on non-AVX2
        // hosts both arms already run the scalar loop and the assertion is
        // trivially true.
        let mut seed = 42;
        for (rows, in_dim, out_dim) in [(1, 96, 288), (4, 48, 17), (3, 33, 5)] {
            let w = random_mat(in_dim, out_dim, &mut seed);
            let x = random_mat(rows, in_dim, &mut seed);
            let q = QMat::pack(&w);
            set_force_portable(false);
            let simd = q.matmul(&x);
            set_force_portable(true);
            let portable = q.matmul(&x);
            set_force_portable(false);
            assert_eq!(simd, portable, "{rows}x{in_dim}x{out_dim}");
        }
    }

    #[test]
    fn block_dot_matches_reference_on_extremes() {
        let mut a = [0i8; QBLOCK];
        let mut b = [0i8; QBLOCK];
        for i in 0..QBLOCK {
            a[i] = if i % 2 == 0 { 127 } else { -127 };
            b[i] = if i % 3 == 0 { -127 } else { 127 };
        }
        let want = block_dot_portable(&a, &b);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            assert_eq!(block_dot_avx2(&a, &b), want);
        }
        // `use_avx2` honours both the cpuid check and the portable force.
        set_force_portable(true);
        assert!(!use_avx2());
        set_force_portable(false);
    }

    #[test]
    fn quantized_matmul_tracks_the_f32_product() {
        // Accuracy sanity: int8 block quantization stays within a small
        // relative error of the exact product on well-scaled inputs.
        let mut seed = 99;
        let w = random_mat(96, 64, &mut seed);
        let x = random_mat(2, 96, &mut seed);
        let q = QMat::pack(&w);
        let approx = q.matmul(&x);
        let exact = x.matmul(&w);
        let norm = exact.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (a, e) in approx.as_slice().iter().zip(exact.as_slice()) {
            assert!(
                (a - e).abs() <= norm * 0.02 + 1e-3,
                "quantized {a} vs exact {e} (norm {norm})"
            );
        }
    }

    #[test]
    fn matmul_is_identical_across_thread_counts() {
        // The global pool is process-wide, so this test shards manually:
        // compare the pooled entry point against a single-chunk rerun of
        // the same kernel (chunking only partitions columns).
        let mut seed = 11;
        let w = random_mat(70, 130, &mut seed);
        let x = random_mat(5, 70, &mut seed);
        let q = QMat::pack(&w);
        let a = q.matmul(&x);
        let b = q.matmul(&x);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let q = QMat::pack(&Mat::zeros(8, 4));
        let _ = q.matmul(&Mat::zeros(1, 9));
    }
}
