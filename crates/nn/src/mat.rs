use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use crate::pool::{self, ThreadPool};
use crate::Rng;

/// Which decode kernel family inference sessions use — the `--kernel`
/// choice shared by `dcgen`, `strength` and `serve`.
///
/// The f32 GEMM entry points on [`Mat`] never read it: they always run the
/// blocked kernels on the global [`pool`], whose bits the reference loops
/// ([`Mat::matmul_into_naive`], [`Mat::matmul_t_accum_naive`]) define.
/// Only inference sessions look at the mode, when they are built.
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

/// Total GEMM kernel invocations (`matmul`/`matmul_into`, `matmul_bt`,
/// `matmul_t_accum`) since process start. The trainer and D&C-GEN report
/// deltas of this as the `nn.gemm_calls` telemetry counter.
#[must_use]
pub fn gemm_calls() -> u64 {
    // ORD: monotonic telemetry counter; no cross-thread ordering needed.
    GEMM_CALLS.load(Ordering::Relaxed)
}

pub(crate) fn count_gemm_call() {
    // ORD: monotonic telemetry counter; no cross-thread ordering needed.
    GEMM_CALLS.fetch_add(1, Ordering::Relaxed);
}

/// Rows of the shared operand kept hot per cache tile. 128 rows × 512 f32
/// columns is 256 KiB — sized for L2 so a tile of `B` (or `dY`) is reused
/// across a whole row-block of `A` instead of being re-streamed per row.
/// A multiple of 4 so the unrolled micro-kernel only sees a remainder loop
/// in the final tile.
const K_TILE: usize = 128;

/// Below this many element-ops a kernel runs single-chunk: waking parked
/// workers costs more than the loop itself.
const PAR_MIN_WORK: usize = 1 << 16;

/// How many row-block chunks to split a kernel into.
fn row_chunks(threads: usize, rows: usize, work_per_row: usize) -> usize {
    if threads <= 1 || rows < 2 || rows.saturating_mul(work_per_row) < PAR_MIN_WORK {
        1
    } else {
        threads.min(rows)
    }
}

/// Mutable base pointer smuggled into pool chunks. Each chunk derives a
/// disjoint row range from it, so aliasing never occurs.
#[derive(Clone, Copy)]
struct RowsPtr(*mut f32);

impl RowsPtr {
    /// The pointer offset by `off` elements. A method (rather than field
    /// access) so closures capture the whole `Sync` wrapper, not the raw
    /// pointer inside it.
    fn at(self, off: usize) -> *mut f32 {
        // SAFETY: callers only offset within the allocation they wrapped.
        unsafe { self.0.add(off) }
    }
}

// SAFETY: chunks index disjoint row blocks (enforced by the chunk → row
// mapping in each kernel) and the pool's latch confines all dereferences to
// the submitting call's stack frame.
unsafe impl Send for RowsPtr {}
// SAFETY: as above — shared access only ever touches disjoint rows.
unsafe impl Sync for RowsPtr {}

/// A dense row-major `f32` matrix.
///
/// All activations and weights in the substrate are rank-2: sequence batches
/// are flattened to `(batch × time) × dim`. The kernels below are the only
/// BLAS-like routines the transformer needs; they are written so the
/// auto-vectorizer produces tight inner loops (contiguous row accesses, no
/// bounds checks inside the hot loops thanks to slice windows). Each GEMM
/// entry point runs one cache-blocked kernel on the persistent [`pool`];
/// the order-preserving ones are bit-identical to the reference loops
/// [`Mat::matmul_into_naive`] and [`Mat::matmul_t_accum_naive`].
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
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let chunks = row_chunks(pool.threads(), m, k.saturating_mul(n));
        let block = m.div_ceil(chunks.max(1));
        let out_ptr = RowsPtr(out.data.as_mut_ptr());
        pool.run(chunks, &|c| {
            let i0 = c * block;
            let i1 = ((c + 1) * block).min(m);
            if i0 >= i1 {
                return;
            }
            // SAFETY: chunk `c` owns exactly rows `[i0, i1)` of `out`
            // (chunks tile `0..m` disjointly) and `pool.run` returns only
            // after every chunk finished, confining this reborrow to the
            // current frame.
            let out_rows =
                unsafe { std::slice::from_raw_parts_mut(out_ptr.at(i0 * n), (i1 - i0) * n) };
            matmul_rows_blocked(self, other, i0, i1, out_rows);
        });
    }

    /// `selfᵀ · other`: `(k×m)ᵀ · (k×n) → (m×n)`, accumulating into `out`.
    ///
    /// This is the weight-gradient kernel `dW += Xᵀ·dY`. Runs on the global
    /// [`pool`] like [`Mat::matmul_into`].
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch, naming both shapes.
    pub fn matmul_t_accum(&self, other: &Mat, out: &mut Mat) {
        self.matmul_t_accum_on(other, out, pool::global());
    }

    /// The blocked `selfᵀ · other` accumulation on an explicit pool —
    /// bit-identical to [`Mat::matmul_t_accum`] at any thread count.
    ///
    /// # Panics
    ///
    /// Panics on any dimension mismatch, naming both shapes.
    pub fn matmul_t_accum_on(&self, other: &Mat, out: &mut Mat, pool: &ThreadPool) {
        self.assert_t_accum_shapes(other, out);
        count_gemm_call();
        self.matmul_t_accum_pool(other, out, pool);
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

    /// The reference `selfᵀ · other` accumulation loop: single-threaded and
    /// unblocked, the bit-exact definition of [`Mat::matmul_t_accum`]. The
    /// library never calls it; the equivalence tests and the paired
    /// benchmark do.
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

    fn matmul_t_accum_pool(&self, other: &Mat, out: &mut Mat, pool: &ThreadPool) {
        let (m, n) = (self.cols, other.cols);
        let chunks = row_chunks(pool.threads(), m, self.rows.saturating_mul(n));
        let block = m.div_ceil(chunks.max(1));
        let out_ptr = RowsPtr(out.data.as_mut_ptr());
        pool.run(chunks, &|c| {
            let i0 = c * block;
            let i1 = ((c + 1) * block).min(m);
            if i0 >= i1 {
                return;
            }
            // SAFETY: disjoint row blocks of `out`, confined by the pool's
            // latch to this call — see `matmul_into_pool`.
            let out_rows =
                unsafe { std::slice::from_raw_parts_mut(out_ptr.at(i0 * n), (i1 - i0) * n) };
            t_accum_rows_blocked(self, other, i0, i1, out_rows);
        });
    }

    /// `self · otherᵀ`: `(m×k) · (n×k)ᵀ → (m×n)`.
    ///
    /// This is the input-gradient kernel `dX = dY·Wᵀ` (and the attention
    /// score kernel `Q·Kᵀ`). Both operands are traversed row-contiguously,
    /// so the inner loop is a dot product of two slices, and the kernel is
    /// its own reference: the pool only spreads rows, each computed by the
    /// same per-row dot loop. Runs on the global [`pool`].
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch, naming both shapes.
    #[must_use]
    pub fn matmul_bt(&self, other: &Mat) -> Mat {
        self.matmul_bt_on(other, pool::global())
    }

    /// The `self · otherᵀ` kernel on an explicit pool —
    /// bit-identical to [`Mat::matmul_bt`] at any thread count.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch, naming both shapes.
    #[must_use]
    pub fn matmul_bt_on(&self, other: &Mat, pool: &ThreadPool) -> Mat {
        self.assert_bt_shapes(other);
        count_gemm_call();
        let mut out = Mat::zeros(self.rows, other.rows);
        self.matmul_bt_pool(other, &mut out, pool);
        out
    }

    fn assert_bt_shapes(&self, other: &Mat) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_bt: inner dimensions must agree (lhs {}x{} · rhsᵀ of {}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
    }

    fn matmul_bt_pool(&self, other: &Mat, out: &mut Mat, pool: &ThreadPool) {
        let (m, n) = (self.rows, other.rows);
        let chunks = row_chunks(pool.threads(), m, self.cols.saturating_mul(n));
        let block = m.div_ceil(chunks.max(1));
        let out_ptr = RowsPtr(out.data.as_mut_ptr());
        pool.run(chunks, &|c| {
            let i0 = c * block;
            let i1 = ((c + 1) * block).min(m);
            if i0 >= i1 {
                return;
            }
            // SAFETY: disjoint row blocks of `out`, confined by the pool's
            // latch to this call — see `matmul_into_pool`.
            let out_rows =
                unsafe { std::slice::from_raw_parts_mut(out_ptr.at(i0 * n), (i1 - i0) * n) };
            self.matmul_bt_rows(other, i0, i1, out_rows);
        });
    }

    /// Rows `[i0, i1)` of `self · otherᵀ` into `out_rows` — the one inner
    /// kernel every chunk runs, so any chunking agrees bit-for-bit by
    /// construction.
    fn matmul_bt_rows(&self, other: &Mat, i0: usize, i1: usize, out_rows: &mut [f32]) {
        let n = other.rows;
        for i in i0..i1 {
            let a_row = self.row(i);
            let base = (i - i0) * n;
            let out_row = &mut out_rows[base..base + n];
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = dot(a_row, other.row(j));
            }
        }
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
    /// register-tiled `fast` kernel on the global [`pool`], which sustains
    /// several times the throughput of [`Mat::matmul_bt`]'s latency-bound
    /// four-accumulator dot. The price is a different per-element summation
    /// order (and FMA rounding on CPUs that have it), so results differ from
    /// `matmul_bt`, its reference, in the last bits. That makes this kernel
    /// safe exactly where downstream consumers tolerate FP reassociation —
    /// training — and unsafe in the forward sampling path, whose association
    /// order is pinned by the golden-output tests. The result is
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
    /// [`Mat::matmul_fast`]: thread-count invariant, association order
    /// differs from [`Mat::matmul_t_accum`], training-path only. Runs on the
    /// global [`pool`].
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

    /// Chunks output rows across the pool and hands each disjoint block to
    /// the [`crate::fast`] kernel. Each output row is produced entirely by
    /// one chunk, so the chunk count (and thus thread count) can never
    /// change the bits.
    fn fast_gemm_pool(&self, other: &Mat, out: &mut Mat, pool: &ThreadPool, accumulate: bool) {
        let (m, k, n) = (self.rows, self.cols, other.cols);
        let chunks = row_chunks(pool.threads(), m, k.saturating_mul(n));
        let block = m.div_ceil(chunks.max(1));
        let out_ptr = RowsPtr(out.data.as_mut_ptr());
        pool.run(chunks, &|c| {
            let i0 = c * block;
            let i1 = ((c + 1) * block).min(m);
            if i0 >= i1 {
                return;
            }
            // SAFETY: disjoint row blocks of `out`, confined by the pool's
            // latch to this call — see `matmul_into_pool`.
            let out_rows =
                unsafe { std::slice::from_raw_parts_mut(out_ptr.at(i0 * n), (i1 - i0) * n) };
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

/// Rows `[i0, i1)` of `xᵀ · dy` accumulated into `out_rows`, cache-blocked
/// over the reduction dimension `r` (the shared leading dimension).
///
/// Same bit-exactness contract as [`matmul_rows_blocked`]: the naive kernel
/// accumulates each `out[i][j]` over ascending `r`, skipping `x[r][i] == 0`;
/// swapping the loop nest to `i`-outer and tiling `r` preserves that
/// per-element order exactly.
fn t_accum_rows_blocked(x: &Mat, dy: &Mat, i0: usize, i1: usize, out_rows: &mut [f32]) {
    let (rows, cols, n) = (x.rows, x.cols, dy.cols);
    let mut rt = 0;
    while rt < rows {
        let rt_end = (rt + K_TILE).min(rows);
        for i in i0..i1 {
            let base = (i - i0) * n;
            let out_row = &mut out_rows[base..base + n];
            let mut r = rt;
            while r + 8 <= rt_end {
                let xv: [f32; 8] = std::array::from_fn(|d| x.data[(r + d) * cols + i]);
                if xv.iter().all(|&v| v != 0.0) {
                    let d0 = &dy.data[r * n..][..n];
                    let d1 = &dy.data[(r + 1) * n..][..n];
                    let d2 = &dy.data[(r + 2) * n..][..n];
                    let d3 = &dy.data[(r + 3) * n..][..n];
                    let d4 = &dy.data[(r + 4) * n..][..n];
                    let d5 = &dy.data[(r + 5) * n..][..n];
                    let d6 = &dy.data[(r + 6) * n..][..n];
                    let d7 = &dy.data[(r + 7) * n..][..n];
                    let (x0, x1, x2, x3) = (xv[0], xv[1], xv[2], xv[3]);
                    let (x4, x5, x6, x7) = (xv[4], xv[5], xv[6], xv[7]);
                    for (j, o) in out_row.iter_mut().enumerate() {
                        let s = (((*o + x0 * d0[j]) + x1 * d1[j]) + x2 * d2[j]) + x3 * d3[j];
                        *o = (((s + x4 * d4[j]) + x5 * d5[j]) + x6 * d6[j]) + x7 * d7[j];
                    }
                } else {
                    for (d, &v) in xv.iter().enumerate() {
                        if v != 0.0 {
                            axpy(out_row, v, &dy.data[(r + d) * n..][..n]);
                        }
                    }
                }
                r += 8;
            }
            while r + 4 <= rt_end {
                let x0 = x.data[r * cols + i];
                let x1 = x.data[(r + 1) * cols + i];
                let x2 = x.data[(r + 2) * cols + i];
                let x3 = x.data[(r + 3) * cols + i];
                if x0 != 0.0 && x1 != 0.0 && x2 != 0.0 && x3 != 0.0 {
                    let d0 = &dy.data[r * n..][..n];
                    let d1 = &dy.data[(r + 1) * n..][..n];
                    let d2 = &dy.data[(r + 2) * n..][..n];
                    let d3 = &dy.data[(r + 3) * n..][..n];
                    for (j, o) in out_row.iter_mut().enumerate() {
                        *o = (((*o + x0 * d0[j]) + x1 * d1[j]) + x2 * d2[j]) + x3 * d3[j];
                    }
                } else {
                    for (d, xv) in [x0, x1, x2, x3].into_iter().enumerate() {
                        if xv != 0.0 {
                            axpy(out_row, xv, &dy.data[(r + d) * n..][..n]);
                        }
                    }
                }
                r += 4;
            }
            for r in r..rt_end {
                let xv = x.data[r * cols + i];
                if xv != 0.0 {
                    axpy(out_row, xv, &dy.data[r * n..][..n]);
                }
            }
        }
        rt = rt_end;
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
        x.matmul_t_accum(&dy, &mut acc);
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
        x.matmul_t_accum(&dy, &mut acc);
        for (a, e) in acc.as_slice().iter().zip(expect.as_slice()) {
            assert!((a - 2.0 * e).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_bt_is_a_bt() {
        let mut rng = Rng::seed_from(7);
        let a = Mat::randn(4, 6, 1.0, &mut rng);
        let b = Mat::randn(3, 6, 1.0, &mut rng);
        let got = a.matmul_bt(&b);
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
