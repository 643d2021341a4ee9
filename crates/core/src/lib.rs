//! PagPassGPT and PassGPT: pattern-guided password guessing via GPT, plus
//! the D&C-GEN divide-and-conquer generation algorithm.
//!
//! This is the reproduction of the primary contribution of *PagPassGPT:
//! Pattern Guided Password Guessing via Generative Pretrained Transformer*
//! (DSN 2024). Two models share one GPT-2-style backbone from
//! [`pagpass_nn`]:
//!
//! * **PassGPT** (the state-of-the-art baseline, Rando et al. 2023) — a
//!   character-level LM over rules `<BOS> password <EOS>`. Guided
//!   generation *filters* candidate tokens to the character class the
//!   pattern demands at each position, which truncates words (paper
//!   Table III).
//! * **PagPassGPT** (the paper's model) — an LM over rules
//!   `<BOS> pattern <SEP> password <EOS>`. The pattern acts as *background
//!   knowledge*: guided generation primes the model with
//!   `<BOS> pattern <SEP>` and lets it complete the password with the
//!   pattern in context (Eq. 1), so both the pattern and the model's
//!   language knowledge shape every token.
//!
//! [`DcGen`] implements Algorithm 1: the guess budget is split across
//! patterns by their empirical prior, then recursively across next-token
//! extensions until each subtask's quota falls below a threshold; leaf
//! subtasks sample passwords under their (pattern, prefix) constraint.
//! Because subtasks are disjoint by construction, duplicates can only occur
//! inside a single leaf, which is what collapses the repeat rate (paper
//! Fig. 10).
//!
//! # Examples
//!
//! ```no_run
//! use pagpassgpt::{ModelKind, PasswordModel, TrainConfig};
//!
//! let passwords: Vec<String> = vec!["hello123".into(), "Pass123$".into()];
//! let mut model = PasswordModel::new(
//!     ModelKind::PagPassGpt,
//!     pagpass_nn::GptConfig::small(pagpass_tokenizer::VOCAB_SIZE),
//!     7,
//! );
//! model.train(&passwords, &[], &TrainConfig::quick());
//! let pattern = "L5N3".parse().unwrap();
//! let guesses = model.generate_guided(&pattern, 100, 1.0, 42);
//! assert_eq!(guesses.len(), 100);
//! ```

use std::sync::{Mutex, MutexGuard, PoisonError};

mod checkpoint;
mod control;
mod dcgen;
mod error;
mod generate;
mod inference;
mod journal;
mod model;
mod sched;
mod serve;
mod trainer;

pub use checkpoint::{TrainCheckpoint, TrainProgress};
pub use control::{CancelToken, Deadline, FaultPlan};
pub use dcgen::{
    DcGen, DcGenConfig, DcGenOptions, DcGenReport, FailedTask, PasswordSink, MAX_WORKERS,
};
pub use error::CoreError;
pub use inference::{InferenceSession, RulePrefix, FORWARD_MS_HISTOGRAM, PREFIX_REUSE_COUNTER};
pub use journal::{DcGenJournal, JournalTask};
pub use model::{ModelKind, PasswordModel};
pub use sched::SchedulerKind;
pub use serve::{run_with_listeners, ScoreOutcome, ServeConfig, ServeReport, ShedReason};
pub use trainer::{CheckpointPolicy, TrainConfig, TrainOptions, TrainingReport};

/// Locks `m`, riding through poisoning. Every mutex in this crate guards
/// data that a panicking holder leaves valid (queue lanes, fault-plan
/// sets and counters, degrade streaks all change in single steps), and a
/// panic inside the generation pool's critical section is re-raised when
/// its thread scope joins, which ends the run.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Extracts a printable message from a caught panic payload, for the
/// generation pool's failed-task records and serve's failed responses.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_string()
    }
}
