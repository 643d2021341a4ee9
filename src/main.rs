//! `pagpass` — command-line interface to the PagPassGPT reproduction.
//!
//! ```text
//! pagpass synth    --site rockyou --n 20000 --seed 1 --out leak.txt
//! pagpass train    --kind pagpassgpt --corpus leak.txt --epochs 4 --out model.bin
//! pagpass generate --kind pagpassgpt --model model.bin --n 1000 [--pattern L6N2]
//! pagpass dcgen    --model model.bin --corpus leak.txt --n 10000 --threshold 256
//! pagpass eval     --guesses guesses.txt --test test.txt
//! pagpass strength --kind pagpassgpt --model model.bin 'hunter2!'
//! pagpass serve    --kind pagpassgpt --model model.bin --addr 127.0.0.1:7687
//! pagpass analyze  --deny-all
//! ```
//!
//! All subcommands read/write plain newline-separated password files.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use pagpass::core::{
    run_with_listeners, CancelToken, CheckpointPolicy, DcGen, DcGenConfig, DcGenJournal,
    DcGenOptions, InferenceSession, ModelKind, PasswordModel, PasswordSink, SchedulerKind,
    ServeConfig, TrainConfig, TrainOptions,
};
use pagpass::datasets::{clean, Site};
use pagpass::eval::{hit_rate, repeat_rate};
use pagpass::nn::{atomic_write, pool, set_kernel_mode, GptConfig, KernelMode};
use pagpass::patterns::{Pattern, PatternDistribution};
use pagpass::telemetry::{Field, LogFormat, Reporter, Telemetry};
use pagpass::tokenizer::VOCAB_SIZE;

/// Exit code for a run that completed but abandoned subtasks after
/// exhausting their retry budget (distinct from usage errors, code 2).
const EXIT_TASKS_FAILED: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  pagpass synth    --site <rockyou|linkedin|phpbb|myspace|yahoo> --n N [--seed S] [--clean] --out FILE
  pagpass train    --kind <passgpt|pagpassgpt> --corpus FILE [--epochs N] [--seed S] --out FILE
                   [--checkpoint FILE] [--checkpoint-every N] [--resume]
  pagpass generate --kind <passgpt|pagpassgpt> --model FILE --n N [--pattern P] [--temp T] [--seed S] [--out FILE]
  pagpass dcgen    --model FILE --corpus FILE --n N [--threshold T] [--seed S] [--out FILE]
                   [--workers N] [--retries N] [--deadline-secs N] [--checkpoint FILE] [--resume]
                   [--scheduler <dcgen|sopg|sample>] [--frontier-cap N]
                   [--kernel <pinned|quantized>]
  pagpass eval     --guesses FILE --test FILE
  pagpass strength --kind <passgpt|pagpassgpt> --model FILE [--in FILE] [--precise]
                   [--kernel <pinned|quantized>] [PASSWORD...]
  pagpass serve    --kind <passgpt|pagpassgpt> --model FILE [--addr HOST:PORT] [--max-batch N]
                   [--queue-cap N] [--sessions N] [--retries N] [--deadline-ms N]
                   [--http-port N] [--trace-sample N]
                   [--kernel <pinned|quantized>]
  pagpass analyze  [--root DIR] [--deny-all] [--lock-order FILE] [--update-lock-order]

Each subcommand rejects flags it does not take (exit code 2).

Telemetry (any subcommand):
  --log-format <text|json>   structured stderr records (default text)
  --log-every SECS           periodic progress reports (0 = off)
  --metrics-out FILE         write a final metrics snapshot as JSON
  --quiet                    suppress all stderr records

Compute (any subcommand):
  --threads N                GEMM worker threads (default: PAGPASS_THREADS,
                             else all available cores); output is identical
                             at any thread count

Decode kernel (dcgen, strength, serve):
  --kernel <pinned|quantized>  pinned (default) is the bit-exact blocked
                             f32 decode; quantized packs weights to int8
                             once at startup and decodes faster within a
                             committed accuracy budget. Both are
                             deterministic at any thread count. A journal
                             resumes under the kernel that wrote it.

Interrupted `train`/`dcgen` runs with --checkpoint drain cleanly on Ctrl-C
and continue with --resume. dcgen exits with code 3 when tasks were
abandoned after exhausting retries.

serve speaks newline-delimited JSON over TCP; SIGINT/SIGTERM drains
in-flight requests before exiting. A full admission queue answers
reject-with-retry-after instead of buffering unboundedly.
--http-port adds an HTTP observability plane on the same host
(GET /metrics, /healthz, /statusz; POST /score); --trace-sample N exports
every Nth request's span tree to the JSONL log (0 = never).";

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing subcommand".into());
    };
    let parsed = Parsed::parse(rest)?;
    // Size the GEMM pool before any model work touches it. 0 means "auto"
    // (PAGPASS_THREADS, else available cores). Thread count never changes
    // results — kernels are bit-exact at any parallelism — only speed.
    let threads: usize = parsed.num("threads", 0)?;
    if threads > 0 {
        let got = pool::configure(threads);
        if got != threads {
            eprintln!(
                "warning: GEMM pool already sized to {got} threads; --threads {threads} ignored"
            );
        }
    }
    let tel = TelemetrySetup::from_flags(&parsed)?;
    let code = match command.as_str() {
        "synth" => cmd_synth(&parsed, &tel),
        "train" => cmd_train(&parsed, &tel),
        "generate" => cmd_generate(&parsed, &tel),
        "dcgen" => cmd_dcgen(&parsed, &tel),
        "eval" => cmd_eval(&parsed),
        "strength" => cmd_strength(&parsed),
        "serve" => cmd_serve(&parsed, &tel),
        "analyze" => cmd_analyze(&parsed),
        other => Err(format!("unknown subcommand {other:?}")),
    }?;
    tel.finish()?;
    Ok(code)
}

/// Telemetry wiring shared by every subcommand: one [`Telemetry`] built
/// from the global flags, an optional periodic [`Reporter`], and an
/// optional final snapshot file.
struct TelemetrySetup {
    tel: Arc<Telemetry>,
    reporter: Option<Reporter>,
    metrics_out: Option<PathBuf>,
}

impl TelemetrySetup {
    fn from_flags(p: &Parsed) -> Result<TelemetrySetup, String> {
        let format: LogFormat = match p.flags.get("log-format") {
            Some(v) => v.parse()?,
            None => LogFormat::Text,
        };
        let quiet = p.flags.contains_key("quiet");
        let every: u64 = p.num("log-every", 0)?;
        let tel = Arc::new(Telemetry::new(format, quiet));
        let reporter =
            (every > 0).then(|| Reporter::start(Arc::clone(&tel), Duration::from_secs(every)));
        Ok(TelemetrySetup {
            tel,
            reporter,
            metrics_out: p.flags.get("metrics-out").map(PathBuf::from),
        })
    }

    fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Emits a `summary` record (the structured replacement for the old
    /// end-of-run `eprintln!` lines).
    fn summary(&self, name: &str, fields: &[(&str, Field)]) {
        self.tel.event("summary", name, fields);
    }

    /// Stops the reporter (flushing a final report) and writes the metrics
    /// snapshot, if requested.
    fn finish(self) -> Result<(), String> {
        drop(self.reporter);
        if let Some(path) = &self.metrics_out {
            let json = self.tel.snapshot().to_json();
            atomic_write(path, json.as_bytes())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

/// Parsed `--flag value` pairs plus positional arguments.
#[derive(Debug, Default)]
struct Parsed {
    flags: Flags,
    positional: Vec<String>,
}

/// `--flag value` pairs that remember every name a command looked up, so
/// that [`Parsed::reject_unknown`] can refuse the flags it never reads.
#[derive(Debug, Default)]
struct Flags {
    values: HashMap<String, String>,
    read: RefCell<HashSet<String>>,
}

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.read.borrow_mut().insert(name.to_owned());
        self.values.get(name).map(String::as_str)
    }

    fn contains_key(&self, name: &str) -> bool {
        self.get(name).is_some()
    }
}

impl Parsed {
    fn parse(args: &[String]) -> Result<Parsed, String> {
        let mut parsed = Parsed::default();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                if name == "clean"
                    || name == "resume"
                    || name == "quiet"
                    || name == "deny-all"
                    || name == "update-lock-order"
                    || name == "precise"
                {
                    parsed
                        .flags
                        .values
                        .insert(name.to_owned(), "true".to_owned());
                    continue;
                }
                let value = iter
                    .next()
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                parsed.flags.values.insert(name.to_owned(), value.clone());
            } else {
                parsed.positional.push(arg.clone());
            }
        }
        Ok(parsed)
    }

    /// Fails on a flag that nothing has read so far. Every subcommand
    /// calls this once it has read all of its flags and before it does
    /// any work, so a misspelled flag, or one another subcommand takes,
    /// stops the run instead of being ignored.
    fn reject_unknown(&self) -> Result<(), String> {
        let read = self.flags.read.borrow();
        let mut unknown: Vec<&String> = self
            .flags
            .values
            .keys()
            .filter(|name| !read.contains(*name))
            .collect();
        unknown.sort();
        match unknown.first() {
            Some(name) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} got a non-numeric value {v:?}")),
            None => Ok(default),
        }
    }
}

fn parse_site(name: &str) -> Result<Site, String> {
    match name.to_lowercase().as_str() {
        "rockyou" => Ok(Site::RockYou),
        "linkedin" => Ok(Site::LinkedIn),
        "phpbb" => Ok(Site::PhpBb),
        "myspace" => Ok(Site::MySpace),
        "yahoo" => Ok(Site::Yahoo),
        other => Err(format!("unknown site {other:?}")),
    }
}

/// Parses `--kernel` (default `pinned`) without installing it. Callers
/// install the effective choice via [`set_kernel_mode`] once it is known —
/// a `dcgen --resume` defers to the kernel recorded in the journal.
fn parse_kernel(p: &Parsed) -> Result<KernelMode, String> {
    match p.flags.get("kernel") {
        Some(v) => v.parse(),
        None => Ok(KernelMode::default()),
    }
}

fn parse_kind(name: &str) -> Result<ModelKind, String> {
    match name.to_lowercase().as_str() {
        "passgpt" => Ok(ModelKind::PassGpt),
        "pagpassgpt" => Ok(ModelKind::PagPassGpt),
        other => Err(format!("unknown model kind {other:?}")),
    }
}

fn read_lines(path: &str) -> Result<Vec<String>, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    std::io::BufReader::new(file)
        .lines()
        .collect::<Result<Vec<String>, _>>()
        .map_err(|e| format!("read {path}: {e}"))
}

/// Writes `lines` to `path` atomically (temp file + rename), or to stdout.
/// A crash mid-write leaves any previous file contents intact.
fn write_lines(path: Option<&str>, lines: &[String], tel: &TelemetrySetup) -> Result<(), String> {
    match path {
        Some(path) => {
            let mut buf = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
            for line in lines {
                buf.push_str(line);
                buf.push('\n');
            }
            atomic_write(Path::new(path), buf.as_bytes())
                .map_err(|e| format!("write {path}: {e}"))?;
            tel.summary(
                "cli.wrote",
                &[
                    ("lines", Field::U64(lines.len() as u64)),
                    ("path", Field::Str(path.to_owned())),
                ],
            );
            Ok(())
        }
        None => {
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            for line in lines {
                writeln!(out, "{line}").map_err(|e| e.to_string())?;
            }
            Ok(())
        }
    }
}

/// Atomically rewrites `path` keeping only its first `keep` lines. Used on
/// `dcgen --resume` to roll the output file back to the journal snapshot;
/// passwords past the snapshot are regenerated deterministically.
fn truncate_lines(path: &str, keep: u64) -> Result<(), String> {
    if !Path::new(path).exists() {
        return Ok(());
    }
    let lines = read_lines(path)?;
    let keep = usize::try_from(keep).unwrap_or(usize::MAX).min(lines.len());
    let mut buf = String::new();
    for line in &lines[..keep] {
        buf.push_str(line);
        buf.push('\n');
    }
    atomic_write(Path::new(path), buf.as_bytes()).map_err(|e| format!("truncate {path}: {e}"))
}

/// Streams generated passwords to a file as leaves complete, so an
/// interrupted run keeps everything emitted so far.
struct LineSink {
    out: std::sync::Mutex<std::io::BufWriter<std::fs::File>>,
}

impl LineSink {
    fn open(path: &str, append: bool) -> Result<LineSink, String> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .append(append)
            .truncate(!append)
            .open(path)
            .map_err(|e| format!("open {path}: {e}"))?;
        Ok(LineSink {
            out: std::sync::Mutex::new(std::io::BufWriter::new(file)),
        })
    }
}

impl PasswordSink for LineSink {
    fn emit(&self, batch: &[String]) -> std::io::Result<()> {
        // LINT-ALLOW: guard-blocking the whole point of the lock is to
        // keep a batch's lines contiguous in the output file; the write
        // and flush must happen under it.
        let mut out = self.out.lock().expect("sink lock poisoned");
        for line in batch {
            writeln!(out, "{line}")?;
        }
        // Flush per leaf: the journal records these passwords as emitted,
        // so they must actually be on disk before the next snapshot.
        out.flush()
    }
}

/// Installs a Ctrl-C handler that trips `cancel` so long runs drain
/// cleanly (finishing in-flight work and writing a final journal or
/// checkpoint). A second Ctrl-C falls back to the default handler and
/// kills the process.
#[cfg(unix)]
fn install_sigint(cancel: &CancelToken, tel: &Arc<Telemetry>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    static SIGNALLED: AtomicBool = AtomicBool::new(false);
    const SIGINT: i32 = 2;
    const SIG_DFL: usize = 0;
    extern "C" fn on_sigint(_sig: i32) {
        // ORD: SeqCst — stores from an async signal context must not be
        // reordered against anything the watcher thread observes.
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGINT, on_sigint as *const () as usize);
    }
    let cancel = cancel.clone();
    let tel = Arc::clone(tel);
    std::thread::spawn(move || loop {
        // ORD: SeqCst load side of the signal-handler flag above.
        if SIGNALLED.load(Ordering::SeqCst) {
            tel.event(
                "warn",
                "cli.interrupted",
                &[(
                    "action",
                    Field::Str("draining; Ctrl-C again to kill".into()),
                )],
            );
            cancel.cancel();
            unsafe {
                signal(SIGINT, SIG_DFL);
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
}

#[cfg(not(unix))]
fn install_sigint(_cancel: &CancelToken, _tel: &Arc<Telemetry>) {}

/// Installs SIGINT *and* SIGTERM handlers that trip `cancel`, for the
/// server: both a Ctrl-C and a supervisor's terminate must drain in-flight
/// requests instead of dropping them. A second signal falls back to the
/// default handler and kills the process.
#[cfg(unix)]
fn install_shutdown_signals(cancel: &CancelToken, tel: &Arc<Telemetry>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    static SIGNALLED: AtomicBool = AtomicBool::new(false);
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    const SIG_DFL: usize = 0;
    extern "C" fn on_signal(_sig: i32) {
        // ORD: SeqCst — stores from an async signal context must not be
        // reordered against anything the watcher thread observes.
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
    let cancel = cancel.clone();
    let tel = Arc::clone(tel);
    std::thread::spawn(move || loop {
        // ORD: SeqCst load side of the signal-handler flag above.
        if SIGNALLED.load(Ordering::SeqCst) {
            tel.event(
                "warn",
                "cli.interrupted",
                &[(
                    "action",
                    Field::Str("draining; signal again to kill".into()),
                )],
            );
            cancel.cancel();
            unsafe {
                signal(SIGINT, SIG_DFL);
                signal(SIGTERM, SIG_DFL);
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
}

#[cfg(not(unix))]
fn install_shutdown_signals(_cancel: &CancelToken, _tel: &Arc<Telemetry>) {}

fn cmd_synth(p: &Parsed, tel: &TelemetrySetup) -> Result<ExitCode, String> {
    let site = parse_site(p.required("site")?)?;
    let n: usize = p.num("n", 10_000)?;
    let seed: u64 = p.num("seed", 42)?;
    let clean_leak = p.flags.contains_key("clean");
    let out = p.flags.get("out");
    p.reject_unknown()?;
    let mut leak = site.profile().generate(n, seed);
    if clean_leak {
        let report = clean(leak);
        tel.summary(
            "synth.cleaned",
            &[
                ("unique", Field::U64(report.unique_total as u64)),
                ("retained", Field::U64(report.retained.len() as u64)),
                ("retention_pct", Field::F64(100.0 * report.retention_rate())),
            ],
        );
        leak = report.retained;
    }
    write_lines(out, &leak, tel)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_train(p: &Parsed, tel: &TelemetrySetup) -> Result<ExitCode, String> {
    let kind = parse_kind(p.required("kind")?)?;
    let corpus_path = p.required("corpus")?;
    let out = p.required("out")?.to_owned();
    let epochs: usize = p.num("epochs", 4)?;
    let seed: u64 = p.num("seed", 1)?;
    let ckpt_path = p.flags.get("checkpoint").map(PathBuf::from);
    let every: u64 = p.num("checkpoint-every", 100)?;
    let resume = p.flags.contains_key("resume");
    p.reject_unknown()?;
    if resume && ckpt_path.is_none() {
        return Err("--resume needs --checkpoint FILE".into());
    }
    let corpus = read_lines(corpus_path)?;
    let cancel = CancelToken::new();
    install_sigint(&cancel, &tel.tel);
    let mut model = PasswordModel::new(kind, GptConfig::small(VOCAB_SIZE), seed);
    let config = TrainConfig {
        epochs,
        seed,
        log_every: 100,
        ..TrainConfig::default()
    };
    let opts = TrainOptions {
        checkpoint: ckpt_path.as_deref().map(|path| CheckpointPolicy {
            path,
            every_steps: every,
        }),
        resume,
        cancel: Some(&cancel),
        fault: None,
        telemetry: Some(tel.telemetry()),
    };
    let report = model
        .train_with(&corpus, &[], &config, &opts)
        .map_err(|e| e.to_string())?;
    tel.summary(
        "train.summary",
        &[
            ("kind", Field::Str(kind.to_string())),
            ("corpus", Field::U64(corpus.len() as u64)),
            (
                "first_loss",
                Field::F64(
                    report
                        .epoch_losses
                        .first()
                        .map_or(f64::NAN, |l| f64::from(*l)),
                ),
            ),
            (
                "last_loss",
                Field::F64(
                    report
                        .epoch_losses
                        .last()
                        .map_or(f64::NAN, |l| f64::from(*l)),
                ),
            ),
            (
                "skipped_steps",
                Field::U64(report.skipped_steps.len() as u64),
            ),
        ],
    );
    if report.checkpoint_errors > 0 {
        tel.telemetry().event(
            "warn",
            "train.checkpoint_errors",
            &[("failed_writes", Field::U64(report.checkpoint_errors))],
        );
    }
    if report.interrupted {
        let ckpt = ckpt_path
            .as_deref()
            .map_or_else(String::new, |p| p.display().to_string());
        tel.summary(
            "train.interrupted",
            &[
                ("step", Field::U64(report.steps)),
                (
                    "resume_with",
                    Field::Str(format!("pagpass train ... --checkpoint {ckpt} --resume")),
                ),
            ],
        );
        return Ok(ExitCode::SUCCESS);
    }
    model.save(&out).map_err(|e| e.to_string())?;
    tel.summary("train.saved", &[("path", Field::Str(out))]);
    Ok(ExitCode::SUCCESS)
}

fn cmd_generate(p: &Parsed, tel: &TelemetrySetup) -> Result<ExitCode, String> {
    let kind = parse_kind(p.required("kind")?)?;
    let model_path = p.required("model")?;
    let n: usize = p.num("n", 1_000)?;
    let temp: f32 = p.num("temp", 1.0)?;
    let seed: u64 = p.num("seed", 7)?;
    let pattern = p.flags.get("pattern");
    let out = p.flags.get("out");
    p.reject_unknown()?;
    let model = PasswordModel::load(kind, model_path).map_err(|e| e.to_string())?;
    let guesses = match pattern {
        Some(pat) => {
            let pattern: Pattern = pat
                .parse()
                .map_err(|e| format!("bad pattern {pat:?}: {e}"))?;
            model.generate_guided(&pattern, n, temp, seed)
        }
        None => model.generate_free(n, temp, seed),
    };
    write_lines(out, &guesses, tel)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_dcgen(p: &Parsed, tel: &TelemetrySetup) -> Result<ExitCode, String> {
    let model_path = p.required("model")?;
    let corpus_path = p.flags.get("corpus");
    let n: u64 = p.num("n", 10_000)?;
    let threshold: u64 = p.num("threshold", 256)?;
    let seed: u64 = p.num("seed", 7)?;
    let defaults = DcGenConfig::new(n);
    let workers: usize = p.num("workers", defaults.workers)?;
    let retries: u32 = p.num("retries", defaults.max_task_retries)?;
    let deadline = match p.flags.get("deadline-secs") {
        Some(_) => Some(Duration::from_secs(p.num("deadline-secs", 0u64)?)),
        None => None,
    };
    let scheduler: SchedulerKind = match p.flags.get("scheduler") {
        Some(v) => v.parse()?,
        None => SchedulerKind::default(),
    };
    let frontier_cap: u64 = p.num("frontier-cap", 0)?;
    let kernel = parse_kernel(p)?;
    let journal_path = p.flags.get("checkpoint").map(PathBuf::from);
    let resume = p.flags.contains_key("resume");
    let out = p.flags.get("out");
    p.reject_unknown()?;
    if resume && journal_path.is_none() {
        return Err("--resume needs --checkpoint FILE".into());
    }
    let model =
        PasswordModel::load(ModelKind::PagPassGpt, model_path).map_err(|e| e.to_string())?;

    let cancel = CancelToken::new();
    install_sigint(&cancel, &tel.tel);

    // With a journal + output file the run streams passwords to disk leaf
    // by leaf, so an interruption loses nothing; on resume the output file
    // is first rolled back to the journal snapshot and appended to.
    let journal = match (&journal_path, resume) {
        (Some(path), true) => {
            let j = DcGenJournal::load(path).map_err(|e| e.to_string())?;
            // A journal resumes under the scheduler that wrote it; an
            // explicit conflicting --scheduler is a user error, not a
            // silent override.
            if p.flags.contains_key("scheduler") {
                j.check_scheduler(scheduler).map_err(|e| e.to_string())?;
            }
            // Same contract for the decode kernel: the journal's token
            // stream is kernel-specific, so it resumes under the kernel
            // that wrote it.
            if p.flags.contains_key("kernel") {
                j.check_kernel(kernel).map_err(|e| e.to_string())?;
            }
            if let Some(out_path) = out {
                truncate_lines(out_path, j.emitted)?;
            }
            Some(j)
        }
        _ => None,
    };
    let streaming = journal_path.is_some() && out.is_some();
    let sink = match out {
        Some(path) if streaming => Some(LineSink::open(path, resume)?),
        _ => None,
    };
    let opts = DcGenOptions {
        cancel: Some(&cancel),
        deadline,
        journal: journal_path.as_deref(),
        fault: None,
        sink: sink.as_ref().map(|s| s as &dyn PasswordSink),
        telemetry: Some(tel.telemetry()),
    };

    // On resume the journal's scheduler runs, whatever the flag default was.
    let ran_scheduler = journal.as_ref().map_or(scheduler, |j| j.scheduler);
    // Likewise the journal's kernel; install it before any session packs
    // weights.
    let ran_kernel = journal.as_ref().map_or(kernel, |j| j.kernel);
    set_kernel_mode(ran_kernel);
    let report = match &journal {
        Some(j) => DcGen::resume(&model, j, &opts).map_err(|e| e.to_string())?,
        None => {
            let corpus = read_lines(corpus_path.ok_or("missing --corpus")?)?;
            let patterns = PatternDistribution::from_passwords(corpus.iter().map(String::as_str));
            let config = DcGenConfig {
                threshold,
                seed,
                workers,
                max_task_retries: retries,
                scheduler,
                frontier_cap,
                ..DcGenConfig::new(n)
            };
            DcGen::new(&model, config)
                .run_with(&patterns, &opts)
                .map_err(|e| e.to_string())?
        }
    };

    // The within-leaf duplicate count is exact even when passwords
    // streamed straight to disk (subtasks are disjoint); prefer the full
    // in-memory recount when it is available.
    let repeat_pct = if report.passwords.is_empty() {
        if report.emitted > 0 {
            100.0 * report.leaf_duplicates as f64 / report.emitted as f64
        } else {
            0.0
        }
    } else {
        100.0 * repeat_rate(&report.passwords)
    };
    tel.summary(
        "dcgen.summary",
        &[
            ("scheduler", Field::Str(ran_scheduler.to_string())),
            ("kernel", Field::Str(ran_kernel.to_string())),
            ("emitted", Field::U64(report.emitted)),
            ("leaves", Field::U64(report.leaf_tasks as u64)),
            ("expansions", Field::U64(report.expansions as u64)),
            ("patterns_used", Field::U64(report.patterns_used as u64)),
            ("leaf_duplicates", Field::U64(report.leaf_duplicates)),
            ("prefix_cache_hits", Field::U64(report.prefix_cache_hits)),
            ("repeat_rate_pct", Field::F64(repeat_pct)),
        ],
    );
    if report.journal_errors > 0 {
        tel.telemetry().event(
            "warn",
            "dcgen.journal_errors",
            &[("failed_writes", Field::U64(report.journal_errors))],
        );
    }
    if report.interrupted {
        let ckpt = journal_path
            .as_deref()
            .map_or_else(String::new, |p| p.display().to_string());
        tel.summary(
            "dcgen.interrupted",
            &[(
                "resume_with",
                Field::Str(format!("pagpass dcgen ... --checkpoint {ckpt} --resume")),
            )],
        );
    }
    if streaming {
        tel.summary(
            "dcgen.streamed",
            &[("path", Field::Str(out.unwrap_or_default().to_owned()))],
        );
    } else {
        write_lines(out, &report.passwords, tel)?;
    }

    // Abandoned subtasks mean the emitted set silently under-covers the
    // requested budget; surface them and exit non-zero so scripted runs
    // notice.
    if report.failed_tasks.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        let mut patterns: Vec<&str> = report
            .failed_tasks
            .iter()
            .map(|t| t.pattern.as_str())
            .collect();
        patterns.sort_unstable();
        patterns.dedup();
        let lost: f64 = report.failed_tasks.iter().map(|t| t.quota).sum();
        tel.summary(
            "dcgen.failed_tasks",
            &[
                ("failed", Field::U64(report.failed_tasks.len() as u64)),
                ("retries", Field::U64(report.retries)),
                ("quota_lost", Field::F64(lost)),
                ("patterns", Field::Str(patterns.join(","))),
            ],
        );
        Ok(ExitCode::from(EXIT_TASKS_FAILED))
    }
}

/// `pagpass analyze`: run the static-analysis engine over the workspace.
///
/// Exit codes: 0 clean, 1 findings, 2 usage.
/// `--deny-all` (the CI entry point) also fails on warn-level lints.
/// `--lock-order FILE` checks observed lock acquisitions against the
/// committed canonical order; `--update-lock-order` regenerates it.
fn cmd_analyze(p: &Parsed) -> Result<ExitCode, String> {
    use pagpass::analysis::{analyze_repo, lockgraph};

    let root = PathBuf::from(p.flags.get("root").unwrap_or("."));
    let update_lock_order = p.flags.contains_key("update-lock-order");
    let lock_order_path = p
        .flags
        .get("lock-order")
        .map(PathBuf::from)
        .or_else(|| update_lock_order.then(|| root.join("analysis/lock_order.txt")));
    let deny_all = p.flags.contains_key("deny-all");
    p.reject_unknown()?;

    if update_lock_order {
        // Regenerate the canonical order from the observed graph. A
        // cyclic graph has no canonical order — fix the cycle first.
        let report = analyze_repo(&root, None)?;
        if report.lock_order.is_empty() {
            return Err("lock-order graph is cyclic (or no locks were observed); \
                 run `pagpass analyze` and fix lock-order-cycle findings first"
                .into());
        }
        let path = lock_order_path.expect("defaulted above when flag is present");
        let text = lockgraph::render_order(&report.lock_order);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
        atomic_write(&path, text.as_bytes())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "wrote {} lock name(s) to {}",
            report.lock_order.len(),
            path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }

    let report = analyze_repo(&root, lock_order_path.as_deref())?;
    print!("{}", report.render(deny_all));
    if report.failed(deny_all) {
        Ok(ExitCode::FAILURE)
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

fn cmd_eval(p: &Parsed) -> Result<ExitCode, String> {
    let guesses_path = p.required("guesses")?;
    let test_path = p.required("test")?;
    p.reject_unknown()?;
    let guesses = read_lines(guesses_path)?;
    let test = read_lines(test_path)?;
    let hits = hit_rate(&guesses, &test);
    println!(
        "guesses: {} ({} unique, repeat rate {:.2}%)",
        hits.total_guesses,
        hits.unique_guesses,
        100.0 * repeat_rate(&guesses)
    );
    println!("test set: {} passwords", hits.test_size);
    println!("hits: {} (hit rate {:.2}%)", hits.hits, 100.0 * hits.rate());
    Ok(ExitCode::SUCCESS)
}

fn cmd_strength(p: &Parsed) -> Result<ExitCode, String> {
    let kind = parse_kind(p.required("kind")?)?;
    let kernel = parse_kernel(p)?;
    let model_path = p.required("model")?;
    let precise = p.flags.contains_key("precise");
    let in_path = p.flags.get("in");
    p.reject_unknown()?;
    set_kernel_mode(kernel);
    let model = PasswordModel::load(kind, model_path).map_err(|e| e.to_string())?;
    let mut passwords = p.positional.clone();
    if let Some(path) = in_path {
        let from_file: Vec<String> = read_lines(path)?
            .into_iter()
            .filter(|line| !line.trim().is_empty())
            .collect();
        if from_file.is_empty() && passwords.is_empty() {
            // Exit 2 with a diagnostic, matching eval's contract: silence
            // plus success on an empty input reads as "scored nothing
            // wrong" when nothing was scored at all.
            return Err(format!("input file {path} contains no passwords"));
        }
        passwords.extend(from_file);
    }
    if passwords.is_empty() {
        return Err("strength needs at least one password (positional or --in FILE)".into());
    }
    // One session for the whole batch: under `--kernel quantized` the
    // weights pack to int8 once here instead of once per password.
    let mut session = InferenceSession::new(&model);
    for pw in &passwords {
        match session.log_probability(pw) {
            Ok(lp) => {
                let pattern =
                    Pattern::of_password(pw).map_or_else(|_| "?".to_owned(), |pt| pt.to_string());
                if precise {
                    // Shortest-round-trip formatting: parsing this back
                    // recovers the bit-exact f64, for comparison against
                    // the serve protocol's ln_prob field.
                    println!("{pw}\tln Pr = {lp}\tpattern {pattern}");
                } else {
                    println!("{pw}\tln Pr = {lp:.2}\tpattern {pattern}");
                }
            }
            Err(e) => println!("{pw}\tunscorable ({e})"),
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_serve(p: &Parsed, tel: &TelemetrySetup) -> Result<ExitCode, String> {
    let kind = parse_kind(p.required("kind")?)?;
    let kernel = parse_kernel(p)?;
    let model_path = p.required("model")?;
    let addr = p.flags.get("addr").unwrap_or("127.0.0.1:7687");
    let defaults = ServeConfig::default();
    let deadline_ms: u64 = p.num("deadline-ms", 0)?;
    let cfg = ServeConfig {
        max_batch: p.num("max-batch", defaults.max_batch)?,
        queue_cap: p.num("queue-cap", defaults.queue_cap)?,
        sessions: p.num("sessions", defaults.sessions)?,
        retries: p.num("retries", defaults.retries)?,
        default_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        trace_sample: p.num("trace-sample", defaults.trace_sample)?,
        ..defaults
    };
    let http_port: u16 = p.num("http-port", 0)?;
    p.reject_unknown()?;
    set_kernel_mode(kernel);
    let model = PasswordModel::load(kind, model_path).map_err(|e| e.to_string())?;
    let listener = std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;
    // The observability plane binds the same host as the scoring address.
    let http_listener = if http_port > 0 {
        let http_addr = std::net::SocketAddr::new(local.ip(), http_port);
        let l =
            std::net::TcpListener::bind(http_addr).map_err(|e| format!("bind {http_addr}: {e}"))?;
        Some(l)
    } else {
        None
    };
    let cancel = CancelToken::new();
    install_shutdown_signals(&cancel, &tel.tel);
    tel.tel.event(
        "progress",
        "serve.listening",
        &[("addr", Field::Str(local.to_string()))],
    );
    if let Some(hl) = &http_listener {
        let http_local = hl.local_addr().map_err(|e| e.to_string())?;
        tel.tel.event(
            "progress",
            "serve.http_listening",
            &[("addr", Field::Str(http_local.to_string()))],
        );
    }
    let report = run_with_listeners(
        &model,
        &listener,
        http_listener.as_ref(),
        &cfg,
        &cancel,
        tel.telemetry(),
        None,
    )
    .map_err(|e| e.to_string())?;
    tel.summary(
        "cli.serve_done",
        &[
            ("admitted", Field::U64(report.admitted)),
            ("completed", Field::U64(report.completed)),
            ("reconciles", Field::Bool(report.reconciles())),
        ],
    );
    if report.reconciles() && report.lost == 0 {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let p = Parsed::parse(&s(&["--site", "rockyou", "pw1", "--n", "50", "pw2"])).unwrap();
        assert_eq!(p.required("site").unwrap(), "rockyou");
        assert_eq!(p.num::<usize>("n", 0).unwrap(), 50);
        assert_eq!(p.positional, s(&["pw1", "pw2"]));
    }

    #[test]
    fn boolean_clean_flag_takes_no_value() {
        let p = Parsed::parse(&s(&["--clean", "--n", "5"])).unwrap();
        assert!(p.flags.contains_key("clean"));
        assert_eq!(p.num::<usize>("n", 0).unwrap(), 5);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Parsed::parse(&s(&["--site"])).is_err());
        let p = Parsed::parse(&s(&[])).unwrap();
        assert!(p.required("site").is_err());
        assert!(p.num::<usize>("n", 3).unwrap() == 3);
    }

    #[test]
    fn bad_numbers_are_errors() {
        let p = Parsed::parse(&s(&["--n", "lots"])).unwrap();
        assert!(p.num::<usize>("n", 0).is_err());
    }

    #[test]
    fn site_and_kind_parsing() {
        assert_eq!(parse_site("RockYou").unwrap(), Site::RockYou);
        assert_eq!(parse_site("linkedin").unwrap(), Site::LinkedIn);
        assert!(parse_site("github").is_err());
        assert_eq!(parse_kind("PagPassGPT").unwrap(), ModelKind::PagPassGpt);
        assert!(parse_kind("bert").is_err());
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&s(&["frobnicate"])).is_err());
        assert!(run(&s(&[])).is_err());
    }

    #[test]
    fn flags_a_subcommand_does_not_read_are_rejected_before_any_work() {
        let rejects = |cmdline: &str, flag: &str| {
            let args: Vec<String> = cmdline.split_whitespace().map(str::to_owned).collect();
            let err = run(&args).expect_err("an unread flag must fail the run");
            assert_eq!(err, format!("unknown flag {flag}"), "{cmdline}");
        };
        // A misspelling is not taken for the flag it resembles, and the
        // missing model file is never opened.
        rejects(
            "strength --kind pagpassgpt --model /nonexistent --kernal quantized pw1",
            "--kernal",
        );
        // `generate` samples at `--temp`; `dcgen` has no such flag.
        rejects(
            "dcgen --model /nonexistent --corpus /nonexistent --temp 0.5",
            "--temp",
        );
        // A removed boolean flag swallows `--out` as its value; the run
        // stops instead of printing the guesses to stdout.
        rejects(
            "dcgen --model /nonexistent --corpus /nonexistent --no-prefix-reuse --out g.txt",
            "--no-prefix-reuse",
        );
        // A flag of another subcommand is unknown here.
        rejects(
            "eval --guesses /nonexistent --test /nonexistent --seed 3",
            "--seed",
        );
    }

    #[test]
    fn synth_subcommand_writes_a_cleaned_corpus() {
        let dir = std::env::temp_dir().join("pagpass_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("leak.txt");
        let out_str = out.to_str().unwrap().to_owned();
        run(&s(&[
            "synth", "--site", "rockyou", "--n", "500", "--seed", "3", "--clean", "--out", &out_str,
        ]))
        .unwrap();
        let lines = read_lines(&out_str).unwrap();
        assert!(!lines.is_empty());
        assert!(lines
            .iter()
            .all(|pw| (4..=12).contains(&pw.chars().count())));
        // Deterministic: same seed reproduces the file.
        run(&s(&[
            "synth", "--site", "rockyou", "--n", "500", "--seed", "3", "--clean", "--out", &out_str,
        ]))
        .unwrap();
        assert_eq!(read_lines(&out_str).unwrap(), lines);
        std::fs::remove_file(out).ok();
    }

    #[test]
    fn dcgen_smoke_run_writes_expected_metrics() {
        use pagpass::telemetry::parse_json;

        let dir = std::env::temp_dir().join("pagpass_cli_dcgen_smoke");
        std::fs::create_dir_all(&dir).unwrap();
        let corpus_path = dir.join("corpus.txt");
        let model_path = dir.join("model.bin");
        let out_path = dir.join("guesses.txt");
        let metrics_path = dir.join("metrics.json");

        let corpus: Vec<String> = (0..60).map(|i| format!("pass{i:02}")).collect();
        std::fs::write(&corpus_path, corpus.join("\n")).unwrap();
        let mut model = PasswordModel::new(
            ModelKind::PagPassGpt,
            pagpass::nn::GptConfig::tiny(VOCAB_SIZE),
            1,
        );
        model.save(model_path.to_str().unwrap()).unwrap();

        let code = run(&s(&[
            "dcgen",
            "--model",
            model_path.to_str().unwrap(),
            "--corpus",
            corpus_path.to_str().unwrap(),
            "--n",
            "200",
            "--threshold",
            "64",
            "--out",
            out_path.to_str().unwrap(),
            "--quiet",
            "--log-format",
            "json",
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ]))
        .unwrap();
        // ExitCode has no PartialEq; compare through Debug.
        assert_eq!(format!("{code:?}"), format!("{:?}", ExitCode::SUCCESS));
        assert_eq!(read_lines(out_path.to_str().unwrap()).unwrap().len(), 200);

        // The snapshot is one valid JSON document carrying the D&C-GEN
        // counters, gauges, and phase timings.
        let snapshot = std::fs::read_to_string(&metrics_path).unwrap();
        let v = parse_json(&snapshot).expect("metrics snapshot is valid JSON");
        let counters = v.get("counters").expect("counters section");
        for name in [
            "dcgen.passwords",
            "dcgen.tasks_completed",
            "dcgen.tasks_failed",
            "dcgen.task_retries",
            "dcgen.leaf_tasks",
            "dcgen.leaf_duplicates",
            "sched.emitted",
        ] {
            assert!(counters.get(name).is_some(), "missing counter {name}");
        }
        assert_eq!(
            counters.get("dcgen.passwords").unwrap().as_f64(),
            Some(200.0)
        );
        // Every password flows through the scheduler-neutral counter too.
        assert_eq!(counters.get("sched.emitted").unwrap().as_f64(), Some(200.0));
        let gauges = v.get("gauges").expect("gauges section");
        assert!(gauges.get("dcgen.queue_depth").is_some());
        assert!(gauges.get("dcgen.workers_busy").is_some());
        assert!(gauges.get("sched.frontier_depth").is_some());
        let hists = v.get("histograms").expect("histograms section");
        for name in ["dcgen.run.ms", "dcgen.task.ms"] {
            assert!(hists.get(name).is_some(), "missing histogram {name}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn eval_subcommand_reads_password_files() {
        let dir = std::env::temp_dir().join("pagpass_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let guesses = dir.join("guesses.txt");
        let test = dir.join("test.txt");
        std::fs::write(&guesses, "abc123\nabc123\nzzz\n").unwrap();
        std::fs::write(&test, "abc123\nqwerty\n").unwrap();
        run(&s(&[
            "eval",
            "--guesses",
            guesses.to_str().unwrap(),
            "--test",
            test.to_str().unwrap(),
        ]))
        .unwrap();
        // Missing files surface as errors, not panics.
        assert!(run(&s(&[
            "eval",
            "--guesses",
            "/nonexistent",
            "--test",
            "/nonexistent"
        ]))
        .is_err());
        std::fs::remove_file(guesses).ok();
        std::fs::remove_file(test).ok();
    }
}
