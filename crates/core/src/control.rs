//! Runtime control for long generation and training runs: cooperative
//! cancellation and deterministic fault injection.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::lock;

/// A shared cancellation flag.
///
/// Cloning is cheap (an `Arc` bump); every clone observes the same flag.
/// Consumers — the D&C-GEN worker pool and the training loop — poll it at
/// task and batch boundaries, so cancellation drains cleanly: in-flight
/// work finishes, partial results are kept, and a final journal or
/// checkpoint is written before control returns.
///
/// # Examples
///
/// ```
/// use pagpassgpt::CancelToken;
///
/// let token = CancelToken::new();
/// let watcher = token.clone();
/// assert!(!watcher.is_cancelled());
/// token.cancel();
/// assert!(watcher.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; safe from any thread (including
    /// a signal-watcher thread).
    pub fn cancel(&self) {
        // ORD: SeqCst — the cancel flag is set from signal handlers and
        // polled by every worker; a single total order keeps "cancelled"
        // consistent across checkpoint, drain, and telemetry decisions.
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        // ORD: SeqCst load side of the cancel flag (see `cancel`).
        self.flag.load(Ordering::SeqCst)
    }
}

/// A monotonic deadline whose expiry instant is fixed at construction.
///
/// Wraps `Instant::now() + budget` captured exactly once, so every
/// subsequent [`expired`](Deadline::expired) check compares against the
/// same monotonic instant — repeated polling never re-reads the wall
/// clock to recompute the target, and the deadline is immune to system
/// clock adjustments. Both the D&C-GEN worker pool (`--deadline-secs`)
/// and the serve request scheduler (per-request `deadline_ms`) poll
/// deadlines through this type.
///
/// Deadlines bound *real elapsed time*, never generated work: expiry
/// stops a run early but must not change any bytes emitted before the
/// stop. Copyable so workers can poll a shared deadline without
/// synchronization.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use pagpassgpt::Deadline;
///
/// let d = Deadline::after(Duration::from_secs(3600));
/// assert!(!d.expired());
///
/// let past = Deadline::after(Duration::ZERO);
/// assert!(past.expired());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `budget` from now. The clock is read here, once.
    #[must_use]
    pub fn after(budget: Duration) -> Deadline {
        Deadline {
            at: Instant::now() + budget,
        }
    }

    /// Whether the deadline has passed.
    #[must_use]
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }
}

/// Deterministic fault injection for the fault-tolerance test-suite.
///
/// A `FaultPlan` is threaded into [`DcGen`](crate::DcGen) runs and training
/// via the options structs; production runs simply pass `None`. Every fault
/// is keyed on a deterministic quantity (task id, step index, write ordinal)
/// so injected failures reproduce exactly across runs — the same property
/// the rest of the codebase maintains for generation itself.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Task ids whose *first* execution attempt panics (retries succeed).
    panic_once: Mutex<HashSet<u64>>,
    /// Task ids whose every execution attempt panics (exhausts the retry
    /// budget and lands in `failed_tasks`).
    panic_always: HashSet<u64>,
    /// Optimization steps whose loss is replaced with NaN.
    nan_loss_steps: HashSet<u64>,
    /// Journal/checkpoint write ordinals (0-based) that fail with an
    /// injected I/O error.
    fail_writes: HashSet<u64>,
    writes_seen: Mutex<u64>,
    /// Cancel the run after this many tasks complete (simulated kill).
    cancel_after_tasks: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    #[must_use]
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// The task with id `id` panics on its first attempt only.
    #[must_use]
    pub fn panic_task_once(mut self, id: u64) -> FaultPlan {
        self.panic_once
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id);
        self
    }

    /// The task with id `id` panics on every attempt.
    #[must_use]
    pub fn panic_task_always(mut self, id: u64) -> FaultPlan {
        self.panic_always.insert(id);
        self
    }

    /// The loss at optimization step `step` (0-based) comes back NaN.
    #[must_use]
    pub fn nan_loss_at_step(mut self, step: u64) -> FaultPlan {
        self.nan_loss_steps.insert(step);
        self
    }

    /// The `ordinal`-th journal/checkpoint write (0-based) fails.
    #[must_use]
    pub fn fail_write(mut self, ordinal: u64) -> FaultPlan {
        self.fail_writes.insert(ordinal);
        self
    }

    /// Cancel the run once `n` tasks have completed.
    #[must_use]
    pub fn cancel_after_tasks(mut self, n: u64) -> FaultPlan {
        self.cancel_after_tasks = Some(n);
        self
    }

    /// Runtime hook: should this execution attempt of task `id` panic?
    /// Consumes one-shot entries.
    pub(crate) fn take_task_panic(&self, id: u64) -> bool {
        if self.panic_always.contains(&id) {
            return true;
        }
        lock(&self.panic_once).remove(&id)
    }

    /// Runtime hook: replacement loss for step `step`, if any.
    pub(crate) fn loss_override(&self, step: u64) -> Option<f32> {
        self.nan_loss_steps.contains(&step).then_some(f32::NAN)
    }

    /// Runtime hook: should the next sidecar write fail? Advances the
    /// write ordinal either way.
    pub(crate) fn take_write_failure(&self) -> bool {
        let mut seen = lock(&self.writes_seen);
        let ordinal = *seen;
        *seen += 1;
        self.fail_writes.contains(&ordinal)
    }

    /// Runtime hook: has the simulated kill point been reached?
    pub(crate) fn should_cancel(&self, completed_tasks: u64) -> bool {
        self.cancel_after_tasks
            .is_some_and(|n| completed_tasks >= n)
    }
}

/// Message carried by panics injected via [`FaultPlan::panic_task_once`] /
/// [`FaultPlan::panic_task_always`]; visible in `failed_tasks` errors.
pub(crate) const INJECTED_PANIC: &str = "injected fault: task panic";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared() {
        let a = CancelToken::new();
        let b = a.clone();
        a.cancel();
        assert!(b.is_cancelled());
        a.cancel(); // idempotent
        assert!(a.is_cancelled());
    }

    #[test]
    fn deadline_is_fixed_at_construction() {
        let d = Deadline::after(Duration::from_secs(600));
        assert!(!d.expired());
        // The target instant is taken once: one built later from the same
        // budget is no earlier.
        assert!(d <= Deadline::after(Duration::from_secs(600)));
    }

    #[test]
    fn zero_budget_deadline_is_immediately_expired() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
    }

    #[test]
    fn deadline_min_picks_the_earlier() {
        let soon = Deadline::after(Duration::ZERO);
        let late = Deadline::after(Duration::from_secs(600));
        assert_eq!(soon.min(late), soon);
        assert_eq!(late.min(soon), soon);
    }

    #[test]
    fn panic_once_fires_exactly_once() {
        let plan = FaultPlan::new().panic_task_once(7);
        assert!(plan.take_task_panic(7));
        assert!(!plan.take_task_panic(7), "one-shot faults must clear");
        assert!(!plan.take_task_panic(8));
    }

    #[test]
    fn panic_always_never_clears() {
        let plan = FaultPlan::new().panic_task_always(3);
        assert!(plan.take_task_panic(3));
        assert!(plan.take_task_panic(3));
    }

    #[test]
    fn write_failures_follow_ordinals() {
        let plan = FaultPlan::new().fail_write(1);
        assert!(!plan.take_write_failure()); // ordinal 0
        assert!(plan.take_write_failure()); // ordinal 1
        assert!(!plan.take_write_failure()); // ordinal 2
    }

    #[test]
    fn nan_loss_and_kill_points() {
        let plan = FaultPlan::new().nan_loss_at_step(5).cancel_after_tasks(2);
        assert!(plan.loss_override(5).unwrap().is_nan());
        assert!(plan.loss_override(4).is_none());
        assert!(!plan.should_cancel(1));
        assert!(plan.should_cancel(2));
    }
}
