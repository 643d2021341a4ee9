//! Paired GEMM benchmark — reference loops vs the library's kernels, and
//! int8 decode.
//!
//! Times each matrix kernel (the order-preserving decode matmul
//! `matmul_into`, also at the `lm_head` decode shape, and the training
//! kernels `matmul_fast`, `matmul_bt_packed`, `matmul_t_accum_fast`)
//! against its reference — the library's reference loops
//! `Mat::matmul_into_naive` and `Mat::matmul_t_accum_naive`;
//! `matmul_bt_packed`'s reference arm transposes its n×k operand and runs
//! `matmul_into_naive` on it, so both arms start from the same operand —
//! and a KV-cached decode loop on the pinned f32 and the int8 kernels.
//!
//! Everything runs on one GEMM thread, as perfbench does: on a shared host
//! extra pool threads measure the host's spare cores, not the kernels.
//! Thread-count invariance is `crates/nn/tests/gemm_equivalence.rs`'s job.
//! Each pair of arms is timed interleaved (ABAB…): every round times a few
//! repetitions of one arm, then of the other, and the gated ratio is the
//! median of the per-round ratios. A slow spell of the host therefore
//! lands on both arms of the rounds it covers, and the median drops the
//! rounds it cuts through, instead of deciding the ratio. The rounds go
//! round-robin over all pairs, so each pair's rounds span the whole run:
//! on a shared host the speed of a SIMD kernel relative to a scalar loop
//! itself shifts with the host's state for seconds at a time, and such a
//! state then decides no ratio unless it lasts the whole run.
//!
//! Equality is asserted, not trusted: both `matmul_into` pairs must be
//! bit-identical to their reference. The training kernels reassociate
//! their sums by design (that is where their speed comes from), so they are
//! checked against theirs to a relative tolerance instead.
//!
//! The decode check runs the int8 kernels under portable dispatch once and
//! then restores the dispatch it found, so `PAGPASS_FORCE_PORTABLE=1` times
//! the portable arms.
//!
//! The JSON report carries a flat `speedups` map of dimensionless
//! fast-over-reference ratios — machine-relative numbers the `bench_gate`
//! binary compares against `crates/bench/bench_baseline.json` in CI.
//!
//! Run `cargo run --release -p pagpass-bench --bin gemm` for the full
//! configuration or with `-- --smoke` for the seconds-scale CI artifact.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use pagpass_bench::save_json_str;
use pagpass_nn::qmat::force_portable;
use pagpass_nn::{pool, set_force_portable, Gpt, GptConfig, Mat, QuantizedGpt, Rng};
use pagpass_tokenizer::VOCAB_SIZE;

/// Medians over the rounds of one pair of arms timed interleaved.
struct Paired {
    /// Median ms per repetition of the reference arm.
    a_ms: f64,
    /// Median ms per repetition of the measured arm.
    b_ms: f64,
    /// Median of the per-round ratios `a / b`: the gated speedup.
    ratio: f64,
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// An arm: times one round of its work and returns ms per repetition.
type Arm<'a> = Box<dyn FnMut() -> f64 + 'a>;

/// A gated pair of arms: `a` the reference, `b` the arm measured against it.
struct Pair<'a> {
    a: Arm<'a>,
    b: Arm<'a>,
}

/// An arm that times `reps` back-to-back calls of `run`.
fn arm<'a, T>(reps: usize, run: impl Fn() -> T + 'a) -> Arm<'a> {
    Box::new(move || {
        let start = Instant::now();
        for _ in 0..reps {
            black_box(run());
        }
        ms(start) / reps as f64
    })
}

/// Times every pair for `rounds` rounds, round-robin: each round runs each
/// pair's `a` arm, then its `b` arm (ABAB…).
fn interleaved(rounds: usize, pairs: &mut [Pair<'_>]) -> Vec<Paired> {
    let mut samples: Vec<[Vec<f64>; 3]> = pairs.iter().map(|_| Default::default()).collect();
    for _ in 0..rounds {
        for (pair, [a_ms, b_ms, ratios]) in pairs.iter_mut().zip(&mut samples) {
            let ta = (pair.a)();
            let tb = (pair.b)();
            a_ms.push(ta);
            b_ms.push(tb);
            ratios.push(ta / tb);
        }
    }
    samples
        .into_iter()
        .map(|[mut a_ms, mut b_ms, mut ratios]| Paired {
            a_ms: median(&mut a_ms),
            b_ms: median(&mut b_ms),
            ratio: median(&mut ratios),
        })
        .collect()
}

struct KernelTiming {
    kernel: &'static str,
    m: usize,
    k: usize,
    n: usize,
    naive_ms: f64,
    blocked_ms: f64,
    /// Median per-round reference / blocked.
    speedup: f64,
    /// Blocked output bit-identical to the reference (false only for the
    /// reassociating kernels, which are tolerance-checked instead).
    bit_compat_with_naive: bool,
}

struct DecodeTiming {
    dim: usize,
    n_layers: usize,
    batch: usize,
    seq: usize,
    pinned_ms: f64,
    quantized_ms: f64,
    /// Median per-round pinned / quantized: the `--kernel quantized` win.
    speedup: f64,
    /// Max quantized-vs-pinned logit divergence relative to the largest
    /// logit magnitude (int8 quantization noise, bounded but nonzero).
    logits_max_rel_diff: f64,
}

struct Report {
    bench: &'static str,
    mode: &'static str,
    gemm_threads: usize,
    rounds: usize,
    reps: usize,
    kernels: Vec<KernelTiming>,
    decode: DecodeTiming,
    /// Dimensionless fast-over-reference ratios, keyed for `bench_gate`.
    speedups: BTreeMap<String, f64>,
}

// The report is rendered by hand, with fixed decimals per field, so the
// artifact is a pure function of the measurements; `bench_gate` reads its
// flat `speedups` object back through `pagpass_telemetry::parse_json`.
impl KernelTiming {
    fn json(&self) -> String {
        format!(
            "{{ \"kernel\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {},\n      \
             \"naive_ms\": {:.4}, \"blocked_ms\": {:.4}, \"speedup\": {:.3}, \
             \"bit_compat_with_naive\": {} }}",
            self.kernel,
            self.m,
            self.k,
            self.n,
            self.naive_ms,
            self.blocked_ms,
            self.speedup,
            self.bit_compat_with_naive
        )
    }
}

impl DecodeTiming {
    fn json(&self) -> String {
        format!(
            "{{\n    \"dim\": {}, \"n_layers\": {}, \"batch\": {}, \"seq\": {},\n    \
             \"pinned_ms\": {:.4}, \"quantized_ms\": {:.4}, \"speedup\": {:.3},\n    \
             \"logits_max_rel_diff\": {:.3e}\n  }}",
            self.dim,
            self.n_layers,
            self.batch,
            self.seq,
            self.pinned_ms,
            self.quantized_ms,
            self.speedup,
            self.logits_max_rel_diff
        )
    }
}

impl Report {
    fn json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"bench\": \"{}\",", self.bench);
        let _ = writeln!(out, "  \"mode\": \"{}\",", self.mode);
        let _ = writeln!(out, "  \"gemm_threads\": {},", self.gemm_threads);
        let _ = writeln!(
            out,
            "  \"rounds\": {}, \"reps\": {},",
            self.rounds, self.reps
        );
        out.push_str("  \"kernels\": [\n");
        for (i, kt) in self.kernels.iter().enumerate() {
            let sep = if i + 1 < self.kernels.len() { "," } else { "" };
            let _ = writeln!(out, "    {}{sep}", kt.json());
        }
        out.push_str("  ],\n");
        let _ = writeln!(out, "  \"decode\": {},", self.decode.json());
        out.push_str("  \"speedups\": {\n");
        for (i, (key, value)) in self.speedups.iter().enumerate() {
            let sep = if i + 1 < self.speedups.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{key}\": {value:.3}{sep}");
        }
        out.push_str("  }\n}\n");
        out
    }
}

struct Setup {
    mode: &'static str,
    /// (m, k, n) per kernel micro-benchmark.
    shape: (usize, usize, usize),
    /// Interleaved rounds of every pair.
    rounds: usize,
    /// Repetitions of a kernel or decode arm per round.
    reps: usize,
    config: GptConfig,
    batch: usize,
    seq: usize,
}

fn setup(smoke: bool) -> Setup {
    if smoke {
        Setup {
            mode: "smoke",
            shape: (64, 128, 128),
            rounds: 101,
            reps: 3,
            config: GptConfig {
                vocab_size: VOCAB_SIZE,
                ctx_len: 32,
                dim: 32,
                n_layers: 1,
                n_heads: 2,
            },
            batch: 8,
            seq: 16,
        }
    } else {
        Setup {
            mode: "full",
            shape: (256, 384, 384),
            rounds: 21,
            reps: 1,
            config: GptConfig {
                vocab_size: VOCAB_SIZE,
                ctx_len: 32,
                dim: 96,
                n_layers: 3,
                n_heads: 4,
            },
            batch: 32,
            seq: 24,
        }
    }
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Largest elementwise gap between `want` and `got`, relative to the
/// largest magnitude in `want`: elementwise relative error is meaningless
/// where random sums cancel to near zero.
fn scaled_drift(want: &Mat, got: &Mat) -> f64 {
    let scale = want.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
    want.as_slice()
        .iter()
        .zip(got.as_slice())
        .map(|(&x, &y)| f64::from((x - y).abs() / scale))
        .fold(0.0, f64::max)
}

/// The operands the kernel micro-benchmarks draw from: `matmul_bt_packed`
/// takes an n×k rhs, the other kernels consume k-leading operands.
struct Operands {
    a: Mat,
    b_kn: Mat,
    b_nk: Mat,
    x_mk: Mat,
    dy_mn: Mat,
}

impl Operands {
    fn random((m, k, n): (usize, usize, usize), rng: &mut Rng) -> Operands {
        Operands {
            a: Mat::randn(m, k, 1.0, rng),
            b_kn: Mat::randn(k, n, 1.0, rng),
            b_nk: Mat::randn(n, k, 1.0, rng),
            x_mk: Mat::randn(m, k, 1.0, rng),
            dy_mn: Mat::randn(m, n, 1.0, rng),
        }
    }
}

/// One kernel call on the operands.
type Kernel = fn(&Operands) -> Mat;

/// The reference loop of `matmul_into` and `matmul_fast`.
fn naive_into(o: &Operands) -> Mat {
    let mut out = Mat::zeros(o.a.rows(), o.b_kn.cols());
    o.a.matmul_into_naive(&o.b_kn, &mut out);
    out
}

/// The reference of `matmul_bt_packed`: the reference loop on `bᵀ`,
/// transposed inside the call so both arms start from the same n×k operand.
fn naive_bt(o: &Operands) -> Mat {
    let mut out = Mat::zeros(o.a.rows(), o.b_nk.rows());
    o.a.matmul_into_naive(&o.b_nk.transposed(), &mut out);
    out
}

/// The reference loop of `matmul_t_accum_fast`.
fn naive_t_accum(o: &Operands) -> Mat {
    let mut out = Mat::zeros(o.x_mk.cols(), o.dy_mn.cols());
    o.x_mk.matmul_t_accum_naive(&o.dy_mn, &mut out);
    out
}

/// `matmul_into`, the pinned decode matmul.
fn into(o: &Operands) -> Mat {
    let mut out = Mat::zeros(o.a.rows(), o.b_kn.cols());
    o.a.matmul_into(&o.b_kn, &mut out);
    out
}

/// A leaf-sized decode batch through the `lm_head` of perfbench's model
/// (width 48, 135 tokens): the 128-column smoke shape never reaches the
/// masked column tail of `matmul_into`'s tiled kernel, this shape does.
const LM_HEAD: (usize, usize, usize) = (16, 48, 135);

/// A gated kernel: its name, the shape it runs at (`None`: the setup's
/// shape), its reference and the kernel itself.
type Gated = (&'static str, Option<(usize, usize, usize)>, Kernel, Kernel);

/// Every gated kernel.
const KERNELS: [Gated; 5] = [
    ("matmul_into", None, naive_into, into),
    ("matmul_into_lm_head", Some(LM_HEAD), naive_into, into),
    ("matmul_bt_packed", None, naive_bt, |o| {
        o.a.matmul_bt_packed(&o.b_nk)
    }),
    ("matmul_fast", None, naive_into, |o| {
        o.a.matmul_fast(&o.b_kn)
    }),
    ("matmul_t_accum_fast", None, naive_t_accum, |o| {
        let mut out = Mat::zeros(o.x_mk.cols(), o.dy_mn.cols());
        o.x_mk.matmul_t_accum_fast(&o.dy_mn, &mut out);
        out
    }),
];

/// Runs `kernel` and its reference once and checks one against the other:
/// bitwise for the order-preserving kernels, to a relative tolerance for
/// the reassociating ones. Returns whether the two are bit-identical.
fn check_kernel(kernel: &str, reference: Kernel, run: Kernel, o: &Operands) -> bool {
    let naive_out = reference(o);
    let blocked_out = run(o);
    let bit_compat_with_naive = blocked_out == naive_out;
    let reassociating = matches!(
        kernel,
        "matmul_bt_packed" | "matmul_fast" | "matmul_t_accum_fast"
    );
    if reassociating {
        let drift = scaled_drift(&naive_out, &blocked_out);
        assert!(
            drift < 1e-5,
            "{kernel}: reassociation drift {drift} too large"
        );
    } else {
        assert!(
            bit_compat_with_naive,
            "{kernel}: blocked output diverged from the reference"
        );
    }
    bit_compat_with_naive
}

/// A KV-cached decode loop, run under the pinned blocked f32 kernels and
/// under the packed int8 kernels (`decode_quantized_vs_pinned` in the
/// gated speedups). The pack itself (`Gpt::quantize`) is built once,
/// untimed: it is the once-per-session cost an `InferenceSession` pays at
/// build, not a per-token cost.
struct Decode {
    gpt: Gpt,
    q: QuantizedGpt,
    steps: Vec<Vec<u32>>,
    batch: usize,
}

impl Decode {
    fn new(s: &Setup) -> Decode {
        let gpt = Gpt::new(s.config, &mut Rng::seed_from(5));
        let mut data_rng = Rng::seed_from(23);
        let steps = (0..s.seq)
            .map(|_| {
                (0..s.batch)
                    .map(|_| data_rng.below(s.config.vocab_size) as u32)
                    .collect()
            })
            .collect();
        let q = gpt.quantize();
        Decode {
            gpt,
            q,
            steps,
            batch: s.batch,
        }
    }

    fn run(&self, quant: Option<&QuantizedGpt>) -> Mat {
        let mut state = self.gpt.begin_decode(self.batch);
        let mut logits = None;
        for tokens in &self.steps {
            logits = Some(self.gpt.decode_step_with(quant, tokens, &mut state));
        }
        logits.expect("at least one decode step")
    }

    /// Checks that the quantized logits are bitwise identical under SIMD
    /// and portable dispatch and sit within int8 noise of the pinned ones;
    /// returns their largest divergence relative to the largest logit.
    fn check(&self) -> f64 {
        let pinned_logits = self.run(None);
        let quant_logits = self.run(Some(&self.q));
        let was = force_portable();
        set_force_portable(true);
        let portable_logits = self.run(Some(&self.q));
        set_force_portable(was);
        assert!(
            portable_logits == quant_logits,
            "quantized decode diverged between SIMD and portable dispatch"
        );
        let logits_max_rel_diff = scaled_drift(&pinned_logits, &quant_logits);
        assert!(
            logits_max_rel_diff < 0.05,
            "quantized logits drifted {logits_max_rel_diff} from pinned — \
             beyond int8 noise, a kernel bug"
        );
        logits_max_rel_diff
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let s = setup(smoke);
    let gemm_threads = pool::configure(1);
    eprintln!(
        "[gemm] mode={} gemm threads={gemm_threads} rounds={} reps={}",
        s.mode, s.rounds, s.reps
    );

    let mut rng = Rng::seed_from(9);
    let shapes: Vec<(usize, usize, usize)> = KERNELS
        .iter()
        .map(|&(_, shape, _, _)| shape.unwrap_or(s.shape))
        .collect();
    let operands: Vec<Operands> = shapes
        .iter()
        .map(|&shape| Operands::random(shape, &mut rng))
        .collect();
    let bit_compat: Vec<bool> = KERNELS
        .iter()
        .zip(&operands)
        .map(|(&(kernel, _, reference, run), o)| check_kernel(kernel, reference, run, o))
        .collect();
    let decode = Decode::new(&s);
    let logits_max_rel_diff = decode.check();

    let timings = {
        let mut pairs: Vec<Pair> = KERNELS
            .iter()
            .zip(&operands)
            .map(|(&(_, _, reference, run), o)| Pair {
                a: arm(s.reps, move || reference(o)),
                b: arm(s.reps, move || run(o)),
            })
            .collect();
        pairs.push(Pair {
            a: arm(s.reps, || decode.run(None)),
            b: arm(s.reps, || decode.run(Some(&decode.q))),
        });
        interleaved(s.rounds, &mut pairs)
    };

    let kernels: Vec<KernelTiming> = KERNELS
        .iter()
        .zip(&timings)
        .zip(shapes)
        .zip(bit_compat)
        .map(
            |(((&(kernel, _, _, _), t), (m, k, n)), bit_compat_with_naive)| {
                eprintln!(
                    "[gemm] {kernel:<20} {m}x{k}x{n}: naive {:>8.4}ms  blocked {:>8.4}ms  \
                 speedup {:.3}x",
                    t.a_ms, t.b_ms, t.ratio
                );
                KernelTiming {
                    kernel,
                    m,
                    k,
                    n,
                    naive_ms: t.a_ms,
                    blocked_ms: t.b_ms,
                    speedup: t.ratio,
                    bit_compat_with_naive,
                }
            },
        )
        .collect();

    let t = &timings[KERNELS.len()];
    eprintln!(
        "[gemm] decode dim={} batch={}x{}: pinned {:.4}ms  quantized {:.4}ms  \
         speedup {:.3}x  logit drift {logits_max_rel_diff:.2e}",
        s.config.dim, s.batch, s.seq, t.a_ms, t.b_ms, t.ratio
    );
    let decode = DecodeTiming {
        dim: s.config.dim,
        n_layers: s.config.n_layers,
        batch: s.batch,
        seq: s.seq,
        pinned_ms: t.a_ms,
        quantized_ms: t.b_ms,
        speedup: t.ratio,
        logits_max_rel_diff,
    };

    let mut speedups = BTreeMap::new();
    for kt in &kernels {
        speedups.insert(kt.kernel.to_string(), kt.speedup);
    }
    speedups.insert("decode_quantized_vs_pinned".to_string(), decode.speedup);

    let report = Report {
        bench: "gemm",
        mode: s.mode,
        gemm_threads,
        rounds: s.rounds,
        reps: s.reps,
        kernels,
        decode,
        speedups,
    };
    save_json_str(&format!("gemm-{}", s.mode), &report.json()).expect("write bench result");
}
