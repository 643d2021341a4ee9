use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::pool::{self, ThreadPool};
use crate::Rng;

/// Which decode kernel family inference sessions use — the `--kernel`
/// choice shared by `dcgen`, `strength` and `serve`.
///
/// The f32 GEMM entry points on [`Mat`] never read it: they always run
/// their one kernel on the global [`pool`]. Only inference sessions look at
/// the mode, when they are built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Bit-exact blocked f32 decode — the default, pinned by the f32
    /// golden files.
    #[default]
    Pinned,
    /// Pack-once int8 decode: sessions built under this mode pack their
    /// decode weights into [`crate::QMat`] blocks and route decode matmuls
    /// through [`crate::qmat`]. Deterministic, with its own golden files
    /// and an accuracy budget, but not bit-compatible with `Pinned`.
    Quantized,
}

impl fmt::Display for KernelMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            KernelMode::Pinned => "pinned",
            KernelMode::Quantized => "quantized",
        })
    }
}

impl FromStr for KernelMode {
    type Err = String;

    fn from_str(s: &str) -> Result<KernelMode, String> {
        match s {
            "pinned" => Ok(KernelMode::Pinned),
            "quantized" => Ok(KernelMode::Quantized),
            other => Err(format!(
                "unknown kernel `{other}` (expected `pinned` or `quantized`)"
            )),
        }
    }
}

static KERNEL_MODE: AtomicU8 = AtomicU8::new(KernelMode::Pinned as u8);
static GEMM_CALLS: AtomicU64 = AtomicU64::new(0);

/// Selects the decode kernel, process-wide, for inference sessions built
/// after the call.
pub fn set_kernel_mode(mode: KernelMode) {
    // ORD: a mode flip is a whole-phase switch, not a synchronization
    // point; readers may observe it one call late without harm.
    KERNEL_MODE.store(mode as u8, Ordering::Relaxed);
}

/// The currently selected decode kernel.
#[must_use]
pub fn kernel_mode() -> KernelMode {
    // ORD: see `set_kernel_mode` — stale reads are benign.
    if KERNEL_MODE.load(Ordering::Relaxed) == KernelMode::Quantized as u8 {
        KernelMode::Quantized
    } else {
        KernelMode::Pinned
    }
}

/// Total pooled GEMM calls since process start: the decode matmul
/// (`matmul`/`matmul_into`), the training kernels (`matmul_fast`,
/// `matmul_bt_packed`, `matmul_t_accum_fast`) and the int8
/// [`crate::QMat::matmul`]; the reference loops are not counted. The
/// trainer and D&C-GEN report deltas of this as the `nn.gemm_calls`
/// telemetry counter.
#[must_use]
pub fn gemm_calls() -> u64 {
    // ORD: monotonic telemetry counter; no cross-thread ordering needed.
    GEMM_CALLS.load(Ordering::Relaxed)
}

pub(crate) fn count_gemm_call() {
    // ORD: monotonic telemetry counter; no cross-thread ordering needed.
    GEMM_CALLS.fetch_add(1, Ordering::Relaxed);
}

/// Rows of `b` kept hot per cache tile by the portable arm of
/// [`Mat::matmul_into`]. 128 rows × 512 f32 columns is 256 KiB — sized for
/// L2 so a tile of `b` is reused across a whole row-block of `a` instead of
/// being re-streamed per row. A multiple of 8 so the unrolled micro-kernel
/// only sees a remainder loop in the final tile.
const K_TILE: usize = 128;

/// Below this many element-ops a kernel runs single-chunk: waking parked
/// workers costs more than the loop itself.
const PAR_MIN_WORK: usize = 1 << 16;

/// How many chunks to split a pooled kernel into: `units` output rows (or,
/// in the int8 kernel, columns), each costing `work_per_unit` element-ops.
pub(crate) fn chunk_count(threads: usize, units: usize, work_per_unit: usize) -> usize {
    if threads <= 1 || units < 2 || units.saturating_mul(work_per_unit) < PAR_MIN_WORK {
        1
    } else {
        threads.min(units)
    }
}

/// Mutable base pointer of a kernel's output, smuggled into pool chunks.
/// Each chunk derives disjoint elements from it — a row block in
/// [`for_row_blocks`], a column range in the int8 kernel — so aliasing
/// never occurs.
#[derive(Clone, Copy)]
pub(crate) struct OutPtr(*mut f32);

impl OutPtr {
    pub(crate) fn new(out: &mut [f32]) -> OutPtr {
        OutPtr(out.as_mut_ptr())
    }

    /// The pointer offset by `off` elements. A method (rather than field
    /// access) so closures capture the whole `Sync` wrapper, not the raw
    /// pointer inside it.
    pub(crate) fn at(self, off: usize) -> *mut f32 {
        // SAFETY: callers only offset within the allocation they wrapped.
        unsafe { self.0.add(off) }
    }
}

// SAFETY: chunks touch disjoint elements (enforced by each kernel's chunk
// mapping) and the pool's latch confines all dereferences to the
// submitting call's stack frame.
unsafe impl Send for OutPtr {}
// SAFETY: as above — shared access only ever touches disjoint elements.
unsafe impl Sync for OutPtr {}

/// Splits `out`'s rows into [`chunk_count`] contiguous blocks across `pool`
/// and runs `rows_kernel(i0, i1, out_rows)` once per block, `out_rows`
/// being rows `[i0, i1)` of `out`. Each output row is written by exactly
/// one chunk, so the chunk count — and thus the thread count — never
/// changes the bits.
fn for_row_blocks<F>(out: &mut Mat, work_per_row: usize, pool: &ThreadPool, rows_kernel: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    let (m, n) = (out.rows, out.cols);
    let chunks = chunk_count(pool.threads(), m, work_per_row);
    let block = m.div_ceil(chunks.max(1));
    let out_ptr = OutPtr::new(&mut out.data);
    pool.run(chunks, &|c| {
        let i0 = c * block;
        let i1 = ((c + 1) * block).min(m);
        if i0 >= i1 {
            return;
        }
        // SAFETY: chunk `c` owns exactly rows `[i0, i1)` of `out` (chunks
        // tile `0..m` disjointly), and `pool.run` returns only after every
        // chunk finished, confining this reborrow to the current frame.
        let out_rows = unsafe { std::slice::from_raw_parts_mut(out_ptr.at(i0 * n), (i1 - i0) * n) };
        rows_kernel(i0, i1, out_rows);
    });
}

/// A dense row-major `f32` matrix.
///
/// All activations and weights in the substrate are rank-2: sequence batches
/// are flattened to `(batch × time) × dim`. The kernels below are the only
/// BLAS-like routines the transformer needs; they are written so the
/// auto-vectorizer produces tight inner loops (contiguous row accesses, no
/// bounds checks inside the hot loops thanks to slice windows). Each GEMM
/// entry point runs one kernel on the persistent [`pool`]: the decode
/// matmul [`Mat::matmul_into`] is bit-identical to the reference loop
/// [`Mat::matmul_into_naive`], and the training kernels track it and
/// [`Mat::matmul_t_accum_naive`] to within rounding error.
///
/// # Examples
///
/// ```
/// use pagpass_nn::Mat;
///
/// let a = Mat::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
/// let b = Mat::from_rows(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
/// let c = a.matmul(&b);
/// assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// An all-zeros matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Mat {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f32>) -> Mat {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Mat { rows, cols, data }
    }

    /// Gaussian-initialized matrix with standard deviation `std`.
    #[must_use]
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut Rng) -> Mat {
        let data = (0..rows * cols).map(|_| rng.normal() * std).collect();
        Mat { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major data.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element at `(r, c)`.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// `self · other` — the classic matmul: `(m×k) · (k×n) → (m×n)`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    #[must_use]
    pub fn matmul(&self, other: &Mat) -> Mat {
        let mut out = Mat::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self · other`, writing into a pre-allocated output (overwrites).
    ///
    /// Runs the blocked kernel on the global [`pool`]. Use
    /// [`Mat::matmul_into_on`] to pin a specific pool.
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch, naming both shapes.
    pub fn matmul_into(&self, other: &Mat, out: &mut Mat) {
        self.matmul_into_on(other, out, pool::global());
    }

    /// The blocked `self · other` kernel on an explicit pool — bit-identical
    /// to [`Mat::matmul_into`] at any thread count.
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch, naming both shapes.
    pub fn matmul_into_on(&self, other: &Mat, out: &mut Mat, pool: &ThreadPool) {
        self.assert_matmul_shapes(other, out);
        count_gemm_call();
        self.matmul_into_pool(other, out, pool);
    }

    fn assert_matmul_shapes(&self, other: &Mat, out: &Mat) {
        assert_eq!(
            self.cols, other.rows,
            "matmul: inner dimensions must agree (lhs {}x{} · rhs {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul: output is {}x{} but lhs {}x{} · rhs {}x{} produces {}x{}",
            out.rows,
            out.cols,
            self.rows,
            self.cols,
            other.rows,
            other.cols,
            self.rows,
            other.cols
        );
    }

    /// The reference `self · other` loop: single-threaded and unblocked, the
    /// bit-exact definition of [`Mat::matmul_into`]. The library never calls
    /// it; the equivalence tests and the paired benchmark do.
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch, naming both shapes.
    pub fn matmul_into_naive(&self, other: &Mat, out: &mut Mat) {
        self.assert_matmul_shapes(other, out);
        let (k, n) = (self.cols, other.cols);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            out_row.fill(0.0);
            for (kk, &aik) in a_row.iter().enumerate().take(k) {
                if aik == 0.0 {
                    continue;
                }
                let b_row = &other.data[kk * n..kk * n + n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += aik * b;
                }
            }
        }
    }

    fn matmul_into_pool(&self, other: &Mat, out: &mut Mat, pool: &ThreadPool) {
        // Dispatch once per call; both arms compute the same bits.
        let avx2 = crate::qmat::use_avx2();
        let work_per_row = self.cols.saturating_mul(other.cols);
        for_row_blocks(out, work_per_row, pool, |i0, i1, out_rows| {
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                // SAFETY: `use_avx2` confirmed the cpuid feature.
                unsafe { tiled::matmul_rows(self, other, i0, i1, out_rows) };
                return;
            }
            let _ = avx2;
            matmul_rows_blocked(self, other, i0, i1, out_rows);
        });
    }

    fn assert_t_accum_shapes(&self, other: &Mat, out: &Mat) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_t_accum: leading dimensions must agree (lhsᵀ of {}x{} · rhs {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "matmul_t_accum: output is {}x{} but {}x{}ᵀ · {}x{} produces {}x{}",
            out.rows,
            out.cols,
            self.rows,
            self.cols,
            other.rows,
            other.cols,
            self.cols,
            other.cols
        );
    }

    /// The reference `selfᵀ · other` accumulation loop, single-threaded and
    /// unblocked, that [`Mat::matmul_t_accum_fast`] tracks to within
    /// rounding error. The library never calls it; the equivalence tests
    /// and the paired benchmark do.
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch, naming both shapes.
    pub fn matmul_t_accum_naive(&self, other: &Mat, out: &mut Mat) {
        self.assert_t_accum_shapes(other, out);
        let n = other.cols;
        for r in 0..self.rows {
            let x_row = self.row(r);
            let dy_row = other.row(r);
            for (i, &xri) in x_row.iter().enumerate() {
                if xri == 0.0 {
                    continue;
                }
                let o_row = &mut out.data[i * n..i * n + n];
                for (o, &dy) in o_row.iter_mut().zip(dy_row) {
                    *o += xri * dy;
                }
            }
        }
    }

    fn assert_bt_shapes(&self, other: &Mat) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_bt_packed: inner dimensions must agree (lhs {}x{} · rhsᵀ of {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
    }

    /// Returns the transpose as a new matrix.
    #[must_use]
    pub fn transposed(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for (c, &v) in self.row(r).iter().enumerate() {
                out.data[c * self.rows + r] = v;
            }
        }
        out
    }

    /// `self · otherᵀ` for training/gradient paths — the packed-transpose
    /// kernel.
    ///
    /// This packs `otherᵀ` into a contiguous buffer once and runs the
    /// register-tiled `fast` kernel on the global [`pool`]. Its reference is
    /// [`Mat::matmul_into_naive`] on `otherᵀ`; FMA rounding on CPUs that have
    /// it makes the results differ from the reference in the last bits. That
    /// makes this kernel safe exactly where downstream consumers tolerate FP
    /// rounding differences — training — and unsafe in the forward sampling
    /// path, whose bits are pinned by the golden-output tests. The result is
    /// bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch, naming both shapes.
    #[must_use]
    pub fn matmul_bt_packed(&self, other: &Mat) -> Mat {
        self.matmul_bt_packed_on(other, pool::global())
    }

    /// [`Mat::matmul_bt_packed`] on an explicit pool — bit-identical to the
    /// global-pool call at any thread count.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch, naming both shapes.
    #[must_use]
    pub fn matmul_bt_packed_on(&self, other: &Mat, pool: &ThreadPool) -> Mat {
        self.assert_bt_shapes(other);
        count_gemm_call();
        let packed = other.transposed();
        let mut out = Mat::zeros(self.rows, other.rows);
        self.fast_gemm_pool(&packed, &mut out, pool, false);
        out
    }

    /// `self · other` through the reassociating training kernel.
    ///
    /// Same contract as [`Mat::matmul_bt_packed`]: bit-identical at any
    /// thread count, but a different per-element association order (and FMA
    /// rounding where available) than [`Mat::matmul`] — so it may only be
    /// used on the training path, never in forward sampling. Runs on the
    /// global [`pool`].
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch, naming both shapes.
    #[must_use]
    pub fn matmul_fast(&self, other: &Mat) -> Mat {
        self.matmul_fast_on(other, pool::global())
    }

    /// [`Mat::matmul_fast`] on an explicit pool — bit-identical to the
    /// global-pool call at any thread count.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch, naming both shapes.
    #[must_use]
    pub fn matmul_fast_on(&self, other: &Mat, pool: &ThreadPool) -> Mat {
        let mut out = Mat::zeros(self.rows, other.cols);
        self.assert_matmul_shapes(other, &out);
        count_gemm_call();
        self.fast_gemm_pool(other, &mut out, pool, false);
        out
    }

    /// `selfᵀ · other` accumulated into `out` through the reassociating
    /// training kernel — the weight-gradient (`dW += Xᵀ·dY`) fast path.
    ///
    /// Packs `selfᵀ` once (an O(r·m) copy against the O(r·m·n) product) so
    /// the reduction runs down contiguous rows. Same contract as
    /// [`Mat::matmul_fast`]: thread-count invariant, rounding differs from
    /// [`Mat::matmul_t_accum_naive`], training-path only. Runs on the global
    /// [`pool`].
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch, naming both shapes.
    pub fn matmul_t_accum_fast(&self, other: &Mat, out: &mut Mat) {
        self.matmul_t_accum_fast_on(other, out, pool::global());
    }

    /// [`Mat::matmul_t_accum_fast`] on an explicit pool — bit-identical to
    /// the global-pool call at any thread count.
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch, naming both shapes.
    pub fn matmul_t_accum_fast_on(&self, other: &Mat, out: &mut Mat, pool: &ThreadPool) {
        self.assert_t_accum_shapes(other, out);
        count_gemm_call();
        let xt = self.transposed();
        xt.fast_gemm_pool(other, out, pool, true);
    }

    /// The [`crate::fast`] kernel over [`for_row_blocks`].
    fn fast_gemm_pool(&self, other: &Mat, out: &mut Mat, pool: &ThreadPool, accumulate: bool) {
        let (k, n) = (self.cols, other.cols);
        for_row_blocks(out, k.saturating_mul(n), pool, |i0, i1, out_rows| {
            crate::fast::gemm_rows(&self.data, k, &other.data, n, i0..i1, out_rows, accumulate);
        });
    }

    /// Adds `other` element-wise.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Mat) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch"
        );
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Scales all elements by `s`.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Sets all elements to zero (gradient reset).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub(crate) fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    // Four accumulators let the vectorizer keep independent FMA chains.
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += a[j] * b[j];
        acc[1] += a[j + 1] * b[j + 1];
        acc[2] += a[j + 2] * b[j + 2];
        acc[3] += a[j + 3] * b[j + 3];
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for j in chunks * 4..a.len() {
        s += a[j] * b[j];
    }
    s
}

/// Adds `scale * b` into `a`.
pub(crate) fn axpy(a: &mut [f32], scale: f32, b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, &y) in a.iter_mut().zip(b) {
        *x += scale * y;
    }
}

/// Rows `[i0, i1)` of `a · b` into `out_rows`, cache-blocked over k.
///
/// Bit-exactness contract: for every output element this performs the same
/// f32 additions in the same order as `matmul_into_naive` — ascending `kk`,
/// one accumulation per nonzero `a[i][kk]`, zeros skipped rather than added
/// (adding `0.0 * b` is *not* an identity for `-0.0`/inf/NaN operands). The
/// k-tiling only regroups iterations; the 4-wide micro-kernel fuses four
/// consecutive accumulation passes into one sweep of `out_row` but keeps
/// each element's add chain sequential, falling back to per-k skips when a
/// zero appears. The rejected alternative — packing `bᵀ` and reducing each
/// element as a dot product — would be faster still but sums in a different
/// association order, which would break the golden-output tests.
fn matmul_rows_blocked(a: &Mat, b: &Mat, i0: usize, i1: usize, out_rows: &mut [f32]) {
    let (k, n) = (a.cols, b.cols);
    out_rows.fill(0.0);
    let mut kt = 0;
    while kt < k {
        let kt_end = (kt + K_TILE).min(k);
        for i in i0..i1 {
            let a_row = &a.data[i * k..(i + 1) * k];
            let base = (i - i0) * n;
            let out_row = &mut out_rows[base..base + n];
            let mut kk = kt;
            while kk + 8 <= kt_end {
                let av = &a_row[kk..kk + 8];
                if av.iter().all(|&a| a != 0.0) {
                    let b0 = &b.data[kk * n..][..n];
                    let b1 = &b.data[(kk + 1) * n..][..n];
                    let b2 = &b.data[(kk + 2) * n..][..n];
                    let b3 = &b.data[(kk + 3) * n..][..n];
                    let b4 = &b.data[(kk + 4) * n..][..n];
                    let b5 = &b.data[(kk + 5) * n..][..n];
                    let b6 = &b.data[(kk + 6) * n..][..n];
                    let b7 = &b.data[(kk + 7) * n..][..n];
                    let (a0, a1, a2, a3) = (av[0], av[1], av[2], av[3]);
                    let (a4, a5, a6, a7) = (av[4], av[5], av[6], av[7]);
                    for (j, o) in out_row.iter_mut().enumerate() {
                        let s = (((*o + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) + a3 * b3[j];
                        *o = (((s + a4 * b4[j]) + a5 * b5[j]) + a6 * b6[j]) + a7 * b7[j];
                    }
                } else {
                    for (d, &aik) in av.iter().enumerate() {
                        if aik != 0.0 {
                            axpy(out_row, aik, &b.data[(kk + d) * n..][..n]);
                        }
                    }
                }
                kk += 8;
            }
            while kk + 4 <= kt_end {
                let (a0, a1, a2, a3) = (a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]);
                if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
                    let b0 = &b.data[kk * n..][..n];
                    let b1 = &b.data[(kk + 1) * n..][..n];
                    let b2 = &b.data[(kk + 2) * n..][..n];
                    let b3 = &b.data[(kk + 3) * n..][..n];
                    for (j, o) in out_row.iter_mut().enumerate() {
                        *o = (((*o + a0 * b0[j]) + a1 * b1[j]) + a2 * b2[j]) + a3 * b3[j];
                    }
                } else {
                    for (d, aik) in [a0, a1, a2, a3].into_iter().enumerate() {
                        if aik != 0.0 {
                            axpy(out_row, aik, &b.data[(kk + d) * n..][..n]);
                        }
                    }
                }
                kk += 4;
            }
            for (d, &aik) in a_row[kk..kt_end].iter().enumerate() {
                if aik != 0.0 {
                    axpy(out_row, aik, &b.data[(kk + d) * n..][..n]);
                }
            }
        }
        kt = kt_end;
    }
}

/// The AVX2 arm of [`Mat::matmul_into`]: a register-tiled micro-kernel with
/// the per-element contract of [`matmul_rows_blocked`], its portable arm.
///
/// A tile holds `R` output rows × `8·V` columns in `R·V` accumulators for
/// the whole k reduction and loads each `b[kk]` slice once for all `R`
/// rows, where the portable loop re-streams `b` once per output row. Per
/// element it still performs exactly the reference's operations:
/// `acc = acc + a[i][kk] · b[kk][j]` for ascending `kk` from `+0.0`, the
/// product and the sum each rounded (`vmulps` then `vaddps`, never an FMA),
/// and an `a[i][kk]` of either zero skipping that k for row `i` only. So
/// its bits equal [`Mat::matmul_into_naive`]'s.
#[cfg(target_arch = "x86_64")]
mod tiled {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_cmpgt_epi32, _mm256_loadu_ps, _mm256_maskload_ps,
        _mm256_maskstore_ps, _mm256_mul_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32,
        _mm256_setzero_ps, _mm256_storeu_ps,
    };

    use super::Mat;

    /// Rows `[i0, i1)` of `a · b` into `out_rows`. Panels of four rows take
    /// 16-column tiles; the one to three rows left over take wider tiles,
    /// so every tile keeps eight independent add chains in flight.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matmul_rows(a: &Mat, b: &Mat, i0: usize, i1: usize, out_rows: &mut [f32]) {
        let (k, n) = (a.cols, b.cols);
        assert!(i1 <= a.rows && b.rows == k && out_rows.len() == (i1 - i0) * n);
        let mut i = i0;
        while i + 4 <= i1 {
            panel::<4, 2>(a, b, i, &mut out_rows[(i - i0) * n..]);
            i += 4;
        }
        let rest = &mut out_rows[(i - i0) * n..];
        match i1 - i {
            3 => panel::<3, 2>(a, b, i, rest),
            2 => panel::<2, 4>(a, b, i, rest),
            1 => panel::<1, 8>(a, b, i, rest),
            _ => {}
        }
    }

    /// Rows `[i, i + R)` of `a · b` into the first `R` rows of `out`, tile
    /// by tile; a final partial tile goes through lane masks.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn panel<const R: usize, const V: usize>(a: &Mat, b: &Mat, i: usize, out: &mut [f32]) {
        let n = b.cols;
        let a_rows = &a.data[i * a.cols..(i + R) * a.cols];
        let out = &mut out[..R * n];
        let mut j = 0;
        while j + 8 * V <= n {
            // SAFETY: `j + 8·V ≤ n` keeps every unmasked lane inside its
            // row of `b` and of `out`, and `a_rows`/`out` hold `R` rows.
            unsafe { tile::<R, V, false>(a_rows, a.cols, &b.data, n, j, out) };
            j += 8 * V;
        }
        if j < n {
            // SAFETY: `j < n`; the masks confine every access to the
            // columns `[j, n)` of each row.
            unsafe { tile::<R, V, true>(a_rows, a.cols, &b.data, n, j, out) };
        }
    }

    /// One `R × 8·V` tile at columns `[j, j + 8·V)`, clipped to `n` through
    /// lane masks when `MASKED`.
    ///
    /// # Safety
    ///
    /// `a_rows` holds `R` rows of `k`, `b` is `k × n`, `out` holds `R` rows
    /// of `n`, `j < n`, and without `MASKED`, `j + 8·V ≤ n`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile<const R: usize, const V: usize, const MASKED: bool>(
        a_rows: &[f32],
        k: usize,
        b: &[f32],
        n: usize,
        j: usize,
        out: &mut [f32],
    ) {
        // The first assert proves every `a_rows` index below (the unchecked
        // reads measured about a fifth faster than indexed ones at the gemm
        // bench's shapes); the second keeps the row pointers inside `b` and
        // `out`.
        assert_eq!(a_rows.len(), R * k, "tile takes R rows of a");
        assert!(
            b.len() == k * n && out.len() == R * n,
            "tile shapes disagree"
        );
        // Vector `v` covers columns `j + 8v ..`: `live` vectors start inside
        // the row, and `masks[v]` enables the lanes that stay inside it.
        let width = n - j;
        let live = if MASKED { width.div_ceil(8).min(V) } else { V };
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut masks = [_mm256_set1_epi32(-1); V];
        if MASKED {
            for (v, mask) in masks.iter_mut().enumerate() {
                let left = width.saturating_sub(8 * v).min(8) as i32;
                *mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(left), lanes);
            }
        }
        let mut acc = [[_mm256_setzero_ps(); V]; R];
        for kk in 0..k {
            let row = b[kk * n..].as_ptr().wrapping_add(j);
            let mut bv = [_mm256_setzero_ps(); V];
            for (v, (slot, &mask)) in bv.iter_mut().zip(&masks).enumerate().take(live) {
                // SAFETY: vector `v` starts at column `j + 8v < n` of row
                // `kk`; unmasked it ends by column `n` (caller), masked it
                // reads only the lanes before `n`.
                *slot = unsafe {
                    if MASKED {
                        _mm256_maskload_ps(row.add(8 * v), mask)
                    } else {
                        _mm256_loadu_ps(row.add(8 * v))
                    }
                };
            }
            for (r, acc_r) in acc.iter_mut().enumerate() {
                // SAFETY: `r < R` and `kk < k`, so `r·k + kk < R·k`, which
                // the assert above makes `a_rows.len()`.
                let x = unsafe { *a_rows.get_unchecked(r * k + kk) };
                if x != 0.0 {
                    let xv = _mm256_set1_ps(x);
                    for (sum, &bvv) in acc_r.iter_mut().zip(&bv) {
                        *sum = _mm256_add_ps(*sum, _mm256_mul_ps(xv, bvv));
                    }
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let dst = out[r * n..].as_mut_ptr().wrapping_add(j);
            for (v, (&sum, &mask)) in acc_r.iter().zip(&masks).enumerate().take(live) {
                // SAFETY: the same columns of row `r` of `out` as the loads
                // read from `b`.
                unsafe {
                    if MASKED {
                        _mm256_maskstore_ps(dst.add(8 * v), mask, sum);
                    } else {
                        _mm256_storeu_ps(dst.add(8 * v), sum);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
        let mut out = Mat::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for k in 0..a.cols() {
                    s += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, s);
            }
        }
        out
    }

    #[test]
    fn matmul_matches_naive() {
        let mut rng = Rng::seed_from(5);
        for (m, k, n) in [(1, 1, 1), (2, 3, 4), (7, 5, 3), (8, 8, 8)] {
            let a = Mat::randn(m, k, 1.0, &mut rng);
            let b = Mat::randn(k, n, 1.0, &mut rng);
            let fast = a.matmul(&b);
            let slow = naive_matmul(&a, &b);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert!((x - y).abs() < 1e-4, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn matmul_t_accum_is_xt_dy() {
        let mut rng = Rng::seed_from(6);
        let x = Mat::randn(5, 3, 1.0, &mut rng);
        let dy = Mat::randn(5, 4, 1.0, &mut rng);
        let mut acc = Mat::zeros(3, 4);
        x.matmul_t_accum_fast(&dy, &mut acc);
        // Reference: transpose x manually then matmul.
        let mut xt = Mat::zeros(3, 5);
        for i in 0..5 {
            for j in 0..3 {
                xt.set(j, i, x.get(i, j));
            }
        }
        let expect = naive_matmul(&xt, &dy);
        for (a, e) in acc.as_slice().iter().zip(expect.as_slice()) {
            assert!((a - e).abs() < 1e-4);
        }
        // Accumulation: calling again doubles.
        x.matmul_t_accum_fast(&dy, &mut acc);
        for (a, e) in acc.as_slice().iter().zip(expect.as_slice()) {
            assert!((a - 2.0 * e).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_bt_is_a_bt() {
        let mut rng = Rng::seed_from(7);
        let a = Mat::randn(4, 6, 1.0, &mut rng);
        let b = Mat::randn(3, 6, 1.0, &mut rng);
        let got = a.matmul_bt_packed(&b);
        let mut bt = Mat::zeros(6, 3);
        for i in 0..3 {
            for j in 0..6 {
                bt.set(j, i, b.get(i, j));
            }
        }
        let expect = naive_matmul(&a, &bt);
        for (x, y) in got.as_slice().iter().zip(expect.as_slice()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn elementwise_helpers() {
        let mut a = Mat::from_rows(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Mat::from_rows(1, 3, vec![0.5, 0.5, 0.5]);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[1.5, 2.5, 3.5]);
        a.scale(2.0);
        assert_eq!(a.as_slice(), &[3.0, 5.0, 7.0]);
        a.fill_zero();
        assert_eq!(a.as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn accessors() {
        let mut m = Mat::zeros(2, 2);
        m.set(1, 0, 9.0);
        assert_eq!(m.get(1, 0), 9.0);
        assert_eq!(m.row(1), &[9.0, 0.0]);
        m.row_mut(0)[1] = 3.0;
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    #[test]
    fn parse_display_round_trip() {
        for k in [KernelMode::Pinned, KernelMode::Quantized] {
            assert_eq!(k.to_string().parse::<KernelMode>().unwrap(), k);
        }
    }

    #[test]
    fn unknown_kernel_is_rejected_with_both_options_named() {
        // `blocked` and `naive` name variants that are gone or renamed; they
        // must never become accepted `--kernel` values.
        for name in ["int4", "blocked", "naive"] {
            let err = name.parse::<KernelMode>().unwrap_err();
            assert!(
                err.contains(name) && err.contains("pinned") && err.contains("quantized"),
                "{err}"
            );
        }
    }

    #[test]
    fn dot_handles_remainders() {
        for len in 0..10 {
            let a: Vec<f32> = (0..len).map(|i| i as f32).collect();
            let b: Vec<f32> = (0..len).map(|i| (i * 2) as f32).collect();
            let expect: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert_eq!(dot(&a, &b), expect);
        }
    }
}
