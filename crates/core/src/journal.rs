//! Crash-safe journaling of D&C-GEN runs.
//!
//! A journal is a consistent snapshot of an in-progress run: the
//! configuration needed to reproduce sampling, the pattern table (so task
//! pattern indices stay meaningful), cumulative statistics, and every task
//! not yet completed (queued *and* in-flight — an interrupted task is simply
//! re-run, which is safe because a task's output is only counted when it
//! completes). [`DcGen::resume`](crate::DcGen::resume) rebuilds the worker
//! pool from a journal and continues where the snapshot left off.
//!
//! The format is a line-oriented text file with a trailing CRC32, written
//! atomically (temp file + rename). Text keeps it inspectable in an
//! emergency; the CRC and the atomic rename mean a crash can never leave a
//! half-written journal that parses.
//!
//! Floating-point fields (temperature, quotas) are stored as hex-encoded
//! IEEE-754 bits so that save/load roundtrips bit-exactly — quota arithmetic
//! drives task splitting, and resumed runs must replay it identically.

use std::fmt::Write as _;
use std::path::Path;

use pagpass_nn::{atomic_write, crc32, KernelMode};
use pagpass_patterns::Pattern;

use crate::dcgen::FailedTask;
use crate::sched::SchedulerKind;
use crate::CoreError;

/// Header of journals written by builds before the decode-kernel field
/// existed. Still accepted on load; the kernel defaults to
/// [`KernelMode::Pinned`], the only kernel those builds had.
const HEADER_V1: &str = "PAGPASS-DCGEN-JOURNAL v1";

/// First line of every journal this build writes. v2 appended the decode
/// kernel to the stats line; the rest of the format is unchanged.
const HEADER_V2: &str = "PAGPASS-DCGEN-JOURNAL v2";

/// A pending subtask as persisted in a journal.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalTask {
    /// Stable task id (also the per-task RNG key).
    pub id: u64,
    /// Index into [`DcGenJournal::patterns`].
    pub pattern_idx: usize,
    /// Password prefix fixed so far.
    pub prefix: String,
    /// Remaining guess quota for this subtask.
    pub quota: f64,
}

/// A consistent snapshot of a D&C-GEN run, sufficient to resume it.
#[derive(Debug, Clone, PartialEq)]
pub struct DcGenJournal {
    /// Total guess budget `N` of the original run.
    pub total: u64,
    /// Division threshold `T`.
    pub threshold: u64,
    /// Leaf sampling temperature.
    pub temperature: f32,
    /// Base RNG seed (combined with task ids for per-task streams).
    pub seed: u64,
    /// Worker count of the original run.
    pub workers: usize,
    /// Retry budget per task.
    pub max_task_retries: u32,
    /// Journal cadence (completed tasks between snapshots).
    pub journal_every: u64,
    /// Scheduler that wrote this journal. Task semantics are
    /// scheduler-specific (D&C-GEN quotas vs SOPG log-probs), so
    /// [`check_scheduler`](Self::check_scheduler) refuses to resume under
    /// a different one. Journals from older builds default to
    /// [`SchedulerKind::Dcgen`], the only scheduler that existed then.
    pub scheduler: SchedulerKind,
    /// CRC32 of the scheduling-relevant configuration
    /// ([`DcGenConfig::sched_config_hash`](crate::DcGenConfig::sched_config_hash));
    /// `0` in journals from older builds.
    pub sched_config_hash: u32,
    /// SOPG frontier cap of the original run (`0` = unbounded or not
    /// SOPG).
    pub frontier_cap: u64,
    /// Decode kernel the run was started under. Sampled token streams are
    /// kernel-specific (pinned f32 and quantized int8 logits differ), so
    /// [`check_kernel`](Self::check_kernel) refuses to resume under a
    /// different one. Journals from older builds default to
    /// [`KernelMode::Pinned`], the only kernel that existed then.
    pub kernel: KernelMode,
    /// Pattern table; task `pattern_idx` fields index into this.
    pub patterns: Vec<Pattern>,
    /// Passwords emitted so far. An output file being resumed should be
    /// truncated to exactly this many lines first: passwords produced after
    /// the snapshot will be regenerated.
    pub emitted: u64,
    /// Tasks completed so far.
    pub completed: u64,
    /// Leaf tasks executed so far.
    pub leaves: usize,
    /// Model-guided divisions so far.
    pub expansions: usize,
    /// Subtasks deleted (quota under one password) so far.
    pub deleted: usize,
    /// Patterns that received budget in the initial allocation.
    pub patterns_used: usize,
    /// Task retries performed so far.
    pub retries: u64,
    /// Within-leaf duplicate passwords observed so far (repeats can only
    /// arise inside one leaf, so this is the run's total duplicate count).
    pub leaf_duplicates: u64,
    /// KV-cache positions served from worker inference sessions instead of
    /// recomputed. Efficiency statistic only; resuming restores it so the
    /// final report covers the whole run.
    pub prefix_cache_hits: u64,
    /// Next unassigned task id.
    pub next_id: u64,
    /// Every task not yet completed at snapshot time.
    pub tasks: Vec<JournalTask>,
    /// Tasks abandoned after exhausting their retry budget.
    pub failed: Vec<FailedTask>,
}

/// Strips tab/newline characters so free-text fields stay single-field,
/// single-line.
fn sanitize(s: &str) -> String {
    s.replace(['\t', '\n', '\r'], " ")
}

impl DcGenJournal {
    /// Serializes the journal to its text form (including the CRC line).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{HEADER_V2}");
        let _ = writeln!(
            out,
            "config {} {} {:08x} {} {} {} {}",
            self.total,
            self.threshold,
            self.temperature.to_bits(),
            self.seed,
            self.workers,
            self.max_task_retries,
            self.journal_every,
        );
        let _ = writeln!(out, "patterns {}", self.patterns.len());
        for p in &self.patterns {
            let _ = writeln!(out, "{p}");
        }
        let _ = writeln!(
            out,
            "stats {} {} {} {} {} {} {} {} {} {} {} {:08x} {} {}",
            self.emitted,
            self.completed,
            self.leaves,
            self.expansions,
            self.deleted,
            self.patterns_used,
            self.retries,
            self.next_id,
            self.leaf_duplicates,
            self.prefix_cache_hits,
            self.scheduler,
            self.sched_config_hash,
            self.frontier_cap,
            self.kernel,
        );
        let _ = writeln!(out, "tasks {}", self.tasks.len());
        for t in &self.tasks {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{:016x}",
                t.id,
                t.pattern_idx,
                t.prefix,
                t.quota.to_bits()
            );
        }
        let _ = writeln!(out, "failed {}", self.failed.len());
        for f in &self.failed {
            let _ = writeln!(
                out,
                "{}\t{}\t{:016x}\t{}",
                sanitize(&f.pattern),
                f.prefix,
                f.quota.to_bits(),
                sanitize(&f.error)
            );
        }
        let crc = crc32(out.as_bytes());
        let _ = writeln!(out, "crc {crc:08x}");
        out
    }

    /// Parses a journal from its text form, verifying the trailing CRC.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Journal`] for malformed or corrupt input.
    pub fn from_text(text: &str) -> Result<DcGenJournal, CoreError> {
        let bad = |what: &str| CoreError::Journal(what.to_string());
        // Split off the final "crc XXXXXXXX" line and verify it first.
        let body_end = text
            .trim_end_matches('\n')
            .rfind('\n')
            .ok_or_else(|| bad("too short"))?
            + 1;
        let (body, crc_line) = text.split_at(body_end);
        let stored = crc_line
            .trim_end()
            .strip_prefix("crc ")
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| bad("missing crc line"))?;
        let computed = crc32(body.as_bytes());
        if stored != computed {
            return Err(CoreError::Journal(format!(
                "checksum mismatch (stored {stored:08x}, computed {computed:08x})"
            )));
        }

        let mut lines = body.lines();
        let header = lines.next();
        if header != Some(HEADER_V2) && header != Some(HEADER_V1) {
            return Err(bad("bad header"));
        }
        let config: Vec<&str> = lines
            .next()
            .and_then(|l| l.strip_prefix("config "))
            .ok_or_else(|| bad("missing config line"))?
            .split(' ')
            .collect();
        if config.len() != 7 {
            return Err(bad("config field count"));
        }
        let uint = |s: &str| s.parse::<u64>().map_err(|_| bad("bad integer"));
        let total = uint(config[0])?;
        let threshold = uint(config[1])?;
        let temperature = f32::from_bits(
            u32::from_str_radix(config[2], 16).map_err(|_| bad("bad temperature bits"))?,
        );
        let seed = uint(config[3])?;
        let workers = uint(config[4])? as usize;
        let max_task_retries = uint(config[5])? as u32;
        let journal_every = uint(config[6])?;

        let n_patterns = lines
            .next()
            .and_then(|l| l.strip_prefix("patterns "))
            .and_then(|n| n.parse::<usize>().ok())
            .ok_or_else(|| bad("missing patterns line"))?;
        // The counts are only as trustworthy as a recomputable CRC, so they
        // size no allocation: an inflated count runs out of lines instead.
        let mut patterns = Vec::new();
        for _ in 0..n_patterns {
            let line = lines.next().ok_or_else(|| bad("truncated pattern list"))?;
            patterns.push(line.parse::<Pattern>().map_err(|_| bad("bad pattern"))?);
        }

        let stats: Vec<&str> = lines
            .next()
            .and_then(|l| l.strip_prefix("stats "))
            .ok_or_else(|| bad("missing stats line"))?
            .split(' ')
            .collect();
        // 8 fields is the original layout; later builds appended leaf
        // duplicates, prefix-cache hits, the scheduler identity triple,
        // and the decode kernel. Older journals omit the trailing fields
        // and take their defaults.
        if !(8..=14).contains(&stats.len()) {
            return Err(bad("stats field count"));
        }
        let emitted = uint(stats[0])?;
        let completed = uint(stats[1])?;
        let leaves = uint(stats[2])? as usize;
        let expansions = uint(stats[3])? as usize;
        let deleted = uint(stats[4])? as usize;
        let patterns_used = uint(stats[5])? as usize;
        let retries = uint(stats[6])?;
        let next_id = uint(stats[7])?;
        // Fields 9+ were appended in later revisions; journals from older
        // builds omit them and default to zero (and, for the scheduler
        // name, to D&C-GEN — the only scheduler those builds had).
        let leaf_duplicates = stats.get(8).map_or(Ok(0), |s| uint(s))?;
        let prefix_cache_hits = stats.get(9).map_or(Ok(0), |s| uint(s))?;
        let scheduler = match stats.get(10) {
            Some(s) => s
                .parse::<SchedulerKind>()
                .map_err(|_| bad("bad scheduler name"))?,
            None => SchedulerKind::Dcgen,
        };
        let sched_config_hash = match stats.get(11) {
            Some(s) => u32::from_str_radix(s, 16).map_err(|_| bad("bad scheduler config hash"))?,
            None => 0,
        };
        let frontier_cap = stats.get(12).map_or(Ok(0), |s| uint(s))?;
        let kernel = match stats.get(13) {
            Some(s) => s
                .parse::<KernelMode>()
                .map_err(|_| bad("bad kernel name"))?,
            None => KernelMode::Pinned,
        };

        let n_tasks = lines
            .next()
            .and_then(|l| l.strip_prefix("tasks "))
            .and_then(|n| n.parse::<usize>().ok())
            .ok_or_else(|| bad("missing tasks line"))?;
        let mut tasks = Vec::new();
        for _ in 0..n_tasks {
            let line = lines.next().ok_or_else(|| bad("truncated task list"))?;
            let fields: Vec<&str> = line.split('\t').collect();
            if fields.len() != 4 {
                return Err(bad("task field count"));
            }
            let pattern_idx = fields[1]
                .parse::<usize>()
                .map_err(|_| bad("bad task index"))?;
            if pattern_idx >= patterns.len() {
                return Err(bad("task pattern index out of range"));
            }
            tasks.push(JournalTask {
                id: uint(fields[0])?,
                pattern_idx,
                prefix: fields[2].to_string(),
                quota: f64::from_bits(
                    u64::from_str_radix(fields[3], 16).map_err(|_| bad("bad quota bits"))?,
                ),
            });
        }

        let n_failed = lines
            .next()
            .and_then(|l| l.strip_prefix("failed "))
            .and_then(|n| n.parse::<usize>().ok())
            .ok_or_else(|| bad("missing failed line"))?;
        let mut failed = Vec::new();
        for _ in 0..n_failed {
            let line = lines.next().ok_or_else(|| bad("truncated failed list"))?;
            let fields: Vec<&str> = line.split('\t').collect();
            if fields.len() != 4 {
                return Err(bad("failed field count"));
            }
            failed.push(FailedTask {
                pattern: fields[0].to_string(),
                prefix: fields[1].to_string(),
                quota: f64::from_bits(
                    u64::from_str_radix(fields[2], 16).map_err(|_| bad("bad quota bits"))?,
                ),
                error: fields[3].to_string(),
            });
        }

        Ok(DcGenJournal {
            total,
            threshold,
            temperature,
            seed,
            workers,
            max_task_retries,
            journal_every,
            scheduler,
            sched_config_hash,
            frontier_cap,
            kernel,
            patterns,
            emitted,
            completed,
            leaves,
            expansions,
            deleted,
            patterns_used,
            retries,
            leaf_duplicates,
            prefix_cache_hits,
            next_id,
            tasks,
            failed,
        })
    }

    /// Verifies that this journal was written by `requested`'s scheduler.
    ///
    /// Task quotas are scheduler-specific state (guess quotas for the
    /// quota-splitting schedulers, log-probabilities for SOPG), so
    /// feeding one scheduler's journal to another would silently
    /// misinterpret them. Resume paths call this before rebuilding the
    /// pool.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Journal`] naming both schedulers when they
    /// differ.
    pub fn check_scheduler(&self, requested: SchedulerKind) -> Result<(), CoreError> {
        if self.scheduler != requested {
            return Err(CoreError::Journal(format!(
                "journal was written by the `{}` scheduler but this resume requested `{requested}`; \
                 rerun with --scheduler {} or start a fresh run",
                self.scheduler, self.scheduler
            )));
        }
        Ok(())
    }

    /// Verifies that this journal was written under `requested`'s decode
    /// kernel.
    ///
    /// A resumed run replays the original RNG streams against the model's
    /// logits, and pinned-f32 and quantized-int8 logits differ — resuming
    /// under the other kernel would splice two incompatible password
    /// streams into one output file. Resume paths call this before
    /// rebuilding the pool.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Journal`] naming both kernels when they
    /// differ.
    pub fn check_kernel(&self, requested: KernelMode) -> Result<(), CoreError> {
        if self.kernel != requested {
            return Err(CoreError::Journal(format!(
                "journal was written by the `{}` kernel but this resume requested `{requested}`; \
                 rerun with --kernel {} or start a fresh run",
                self.kernel, self.kernel
            )));
        }
        Ok(())
    }

    /// Writes the journal to `path` atomically.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        atomic_write(path, self.to_text().as_bytes())
    }

    /// Loads and verifies a journal written by [`save`](Self::save).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] when the file cannot be read and
    /// [`CoreError::Journal`] when it is malformed or corrupt.
    pub fn load(path: impl AsRef<Path>) -> Result<DcGenJournal, CoreError> {
        let text = std::fs::read_to_string(path)?;
        DcGenJournal::from_text(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DcGenJournal {
        DcGenJournal {
            total: 1000,
            threshold: 64,
            temperature: 0.95,
            seed: 42,
            workers: 2,
            max_task_retries: 2,
            journal_every: 16,
            scheduler: SchedulerKind::Dcgen,
            sched_config_hash: 0x1234_abcd,
            frontier_cap: 0,
            kernel: KernelMode::Pinned,
            patterns: vec!["L4N2".parse().unwrap(), "L8".parse().unwrap()],
            emitted: 300,
            completed: 7,
            leaves: 5,
            expansions: 2,
            deleted: 1,
            patterns_used: 2,
            retries: 1,
            leaf_duplicates: 4,
            prefix_cache_hits: 57,
            next_id: 11,
            tasks: vec![
                JournalTask {
                    id: 9,
                    pattern_idx: 0,
                    prefix: "ab".into(),
                    quota: 123.456,
                },
                JournalTask {
                    id: 10,
                    pattern_idx: 1,
                    prefix: String::new(),
                    quota: 7.0,
                },
            ],
            failed: vec![FailedTask {
                pattern: "L8".into(),
                prefix: "x".into(),
                quota: 3.5,
                error: "injected fault".into(),
            }],
        }
    }

    #[test]
    fn text_roundtrip_is_exact() {
        let j = sample();
        let parsed = DcGenJournal::from_text(&j.to_text()).unwrap();
        assert_eq!(parsed, j);
    }

    #[test]
    fn corruption_is_detected() {
        let text = sample().to_text();
        let tampered = text.replacen("300", "301", 1);
        assert!(matches!(
            DcGenJournal::from_text(&tampered),
            Err(CoreError::Journal(msg)) if msg.contains("checksum")
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let text = sample().to_text();
        let half = &text[..text.len() / 2];
        assert!(DcGenJournal::from_text(half).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("pagpass_journal_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        let j = sample();
        j.save(&path).unwrap();
        assert_eq!(DcGenJournal::load(&path).unwrap(), j);
        std::fs::remove_dir_all(dir).ok();
    }

    /// `j`'s text with `edit` applied to every body line and the CRC
    /// recomputed, so only the parser stands between the edit and a load.
    fn resigned(j: &DcGenJournal, edit: impl Fn(&str) -> String) -> String {
        let text = j.to_text();
        let body_end = text.trim_end_matches('\n').rfind('\n').unwrap() + 1;
        let body: String = text[..body_end].lines().map(|l| edit(l) + "\n").collect();
        format!("{body}crc {:08x}\n", crc32(body.as_bytes()))
    }

    /// Re-serializes `j` with `strip` trailing stats fields removed, the
    /// header downgraded to v1, and the CRC recomputed, imitating a
    /// journal from an older build.
    fn legacy_text(j: &DcGenJournal, strip: usize) -> String {
        resigned(j, |l| {
            if l == HEADER_V2 {
                HEADER_V1.to_string()
            } else if l.starts_with("stats ") {
                let mut l = l.to_string();
                for _ in 0..strip {
                    l = l.rsplit_once(' ').unwrap().0.to_string();
                }
                l
            } else {
                l.to_string()
            }
        })
    }

    #[test]
    fn legacy_eight_field_stats_line_still_loads() {
        // Journals written before the leaf-duplicates and prefix-cache-hit
        // fields had an 8-field stats line; they must keep loading (the
        // appended fields default to 0 / dcgen).
        let j = sample();
        let parsed = DcGenJournal::from_text(&legacy_text(&j, 6)).unwrap();
        assert_eq!(parsed.leaf_duplicates, 0);
        assert_eq!(parsed.prefix_cache_hits, 0);
        assert_eq!(parsed.scheduler, SchedulerKind::Dcgen);
        assert_eq!(parsed.sched_config_hash, 0);
        assert_eq!(parsed.frontier_cap, 0);
        assert_eq!(parsed.kernel, KernelMode::Pinned);
        assert_eq!(parsed.emitted, j.emitted);
        assert_eq!(parsed.tasks, j.tasks);
    }

    #[test]
    fn legacy_nine_field_stats_line_still_loads() {
        // Journals from builds with leaf duplicates but no prefix-cache
        // statistic had a 9-field stats line.
        let j = sample();
        let parsed = DcGenJournal::from_text(&legacy_text(&j, 5)).unwrap();
        assert_eq!(parsed.leaf_duplicates, j.leaf_duplicates);
        assert_eq!(parsed.prefix_cache_hits, 0);
        assert_eq!(parsed.scheduler, SchedulerKind::Dcgen);
        assert_eq!(parsed.tasks, j.tasks);
    }

    #[test]
    fn legacy_ten_field_stats_line_defaults_to_dcgen_scheduler() {
        // Journals from just before the scheduler refactor had a 10-field
        // stats line; the scheduler identity triple defaults.
        let j = sample();
        let parsed = DcGenJournal::from_text(&legacy_text(&j, 4)).unwrap();
        assert_eq!(parsed.leaf_duplicates, j.leaf_duplicates);
        assert_eq!(parsed.prefix_cache_hits, j.prefix_cache_hits);
        assert_eq!(parsed.scheduler, SchedulerKind::Dcgen);
        assert_eq!(parsed.sched_config_hash, 0);
        assert_eq!(parsed.frontier_cap, 0);
        assert_eq!(parsed.tasks, j.tasks);
    }

    #[test]
    fn legacy_thirteen_field_stats_line_defaults_to_pinned_kernel() {
        // v1 journals (pre decode-kernel field) have a 13-field stats
        // line; the kernel defaults to pinned, the only kernel then.
        let j = sample();
        let parsed = DcGenJournal::from_text(&legacy_text(&j, 1)).unwrap();
        assert_eq!(parsed.kernel, KernelMode::Pinned);
        assert_eq!(parsed.scheduler, j.scheduler);
        assert_eq!(parsed.sched_config_hash, j.sched_config_hash);
        assert_eq!(parsed.tasks, j.tasks);
    }

    #[test]
    fn kernel_identity_roundtrips() {
        let mut j = sample();
        j.kernel = KernelMode::Quantized;
        let parsed = DcGenJournal::from_text(&j.to_text()).unwrap();
        assert_eq!(parsed.kernel, KernelMode::Quantized);
    }

    #[test]
    fn check_kernel_refuses_mismatch_with_clear_diagnostic() {
        let mut j = sample();
        j.kernel = KernelMode::Quantized;
        assert!(j.check_kernel(KernelMode::Quantized).is_ok());
        let err = j.check_kernel(KernelMode::Pinned).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("`quantized`"),
            "names the journal kernel: {msg}"
        );
        assert!(
            msg.contains("`pinned`"),
            "names the requested kernel: {msg}"
        );
        assert!(
            msg.contains("--kernel quantized"),
            "suggests the fix: {msg}"
        );
    }

    /// `sample()` under each kernel, as v2 journals render it. Literal
    /// bytes, so the kernel names journals carry cannot drift.
    const V2_PINNED: &str = "PAGPASS-DCGEN-JOURNAL v2
config 1000 64 3f733333 42 2 2 16
patterns 2
L4N2
L8
stats 300 7 5 2 1 2 1 11 4 57 dcgen 1234abcd 0 pinned
tasks 2
9\t0\tab\t405edd2f1a9fbe77
10\t1\t\t401c000000000000
failed 1
L8\tx\t400c000000000000\tinjected fault
crc e62b837d
";
    const V2_QUANTIZED: &str = "PAGPASS-DCGEN-JOURNAL v2
config 1000 64 3f733333 42 2 2 16
patterns 2
L4N2
L8
stats 300 7 5 2 1 2 1 11 4 57 dcgen 1234abcd 0 quantized
tasks 2
9\t0\tab\t405edd2f1a9fbe77
10\t1\t\t401c000000000000
failed 1
L8\tx\t400c000000000000\tinjected fault
crc 98298845
";

    #[test]
    fn v2_journal_text_loads_and_renders_back_byte_for_byte() {
        for (text, kernel) in [
            (V2_PINNED, KernelMode::Pinned),
            (V2_QUANTIZED, KernelMode::Quantized),
        ] {
            let j = DcGenJournal::from_text(text).unwrap();
            assert_eq!(j.kernel, kernel);
            assert_eq!(j.to_text(), text);
        }
    }

    /// Loads `sample()` with the count on its `count` line replaced by
    /// `usize::MAX` and the CRC recomputed.
    fn inflated(count: &str) -> Result<DcGenJournal, CoreError> {
        let prefix = format!("{count} ");
        DcGenJournal::from_text(&resigned(&sample(), |l| {
            if l.starts_with(&prefix) {
                format!("{count} {}", usize::MAX)
            } else {
                l.to_string()
            }
        }))
    }

    #[test]
    fn inflated_pattern_count_is_rejected() {
        assert!(matches!(inflated("patterns"), Err(CoreError::Journal(_))));
    }

    #[test]
    fn inflated_task_count_is_rejected() {
        assert!(matches!(inflated("tasks"), Err(CoreError::Journal(_))));
    }

    #[test]
    fn inflated_failed_count_is_rejected() {
        assert!(matches!(inflated("failed"), Err(CoreError::Journal(_))));
    }

    #[test]
    fn garbage_kernel_name_is_rejected() {
        let text = resigned(&sample(), |l| {
            if l.starts_with("stats ") {
                format!("{} int4", l.rsplit_once(' ').unwrap().0)
            } else {
                l.to_string()
            }
        });
        assert!(matches!(
            DcGenJournal::from_text(&text),
            Err(CoreError::Journal(msg)) if msg.contains("kernel")
        ));
    }

    #[test]
    fn scheduler_identity_roundtrips() {
        let mut j = sample();
        j.scheduler = SchedulerKind::Sopg;
        j.frontier_cap = 4096;
        j.sched_config_hash = 0xdead_beef;
        let parsed = DcGenJournal::from_text(&j.to_text()).unwrap();
        assert_eq!(parsed.scheduler, SchedulerKind::Sopg);
        assert_eq!(parsed.frontier_cap, 4096);
        assert_eq!(parsed.sched_config_hash, 0xdead_beef);
    }

    #[test]
    fn check_scheduler_refuses_mismatch_with_clear_diagnostic() {
        let mut j = sample();
        j.scheduler = SchedulerKind::Sopg;
        assert!(j.check_scheduler(SchedulerKind::Sopg).is_ok());
        let err = j.check_scheduler(SchedulerKind::Dcgen).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("`sopg`"), "names the journal scheduler: {msg}");
        assert!(
            msg.contains("`dcgen`"),
            "names the requested scheduler: {msg}"
        );
        assert!(msg.contains("--scheduler sopg"), "suggests the fix: {msg}");
    }

    #[test]
    fn garbage_scheduler_name_is_rejected() {
        let text = resigned(&sample(), |l| {
            if l.starts_with("stats ") {
                l.replace(" dcgen ", " bogus ")
            } else {
                l.to_string()
            }
        });
        assert!(matches!(
            DcGenJournal::from_text(&text),
            Err(CoreError::Journal(msg)) if msg.contains("scheduler")
        ));
    }

    #[test]
    fn empty_prefix_and_empty_lists_roundtrip() {
        let mut j = sample();
        j.tasks.clear();
        j.failed.clear();
        let parsed = DcGenJournal::from_text(&j.to_text()).unwrap();
        assert_eq!(parsed, j);
    }
}
