//! Bounded two-priority admission queue for the scoring server.
//!
//! The queue is the server's backpressure boundary: [`push`] never blocks
//! and never grows the queue past its capacity — a full queue hands the
//! request back as [`PushError::Full`] so the caller can answer
//! reject-with-retry-after instead of buffering unboundedly. Two priority
//! lanes exist so deadline-bearing requests are served before best-effort
//! ones; within a lane, order is strictly FIFO.
//!
//! Shutdown is a drain, not a drop: after [`close`], pushes are refused
//! ([`PushError::Closed`]) but [`pop_timeout`] keeps handing out the
//! already-admitted items until both lanes are empty and only then reports
//! [`Pop::Closed`]. That is what lets the server promise "no admitted
//! request is lost on SIGINT".
//!
//! [`push`]: AdmissionQueue::push
//! [`close`]: AdmissionQueue::close
//! [`pop_timeout`]: AdmissionQueue::pop_timeout

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::lock;

/// Admission lane. `High` is drained before `Normal`; the server maps
/// deadline-bearing requests to `High` so a deadline storm cannot starve
/// behind a backlog of best-effort work it would expire in anyway.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Served first (deadline-bearing requests).
    High,
    /// Served after every `High` item (best-effort requests).
    Normal,
}

/// Why a push was refused. Both variants return the rejected item so the
/// caller can answer the client without cloning requests up front.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity; retry later.
    Full(T),
    /// The queue is closed (server draining); do not retry here.
    Closed(T),
}

/// Outcome of a pop.
#[derive(Debug)]
pub enum Pop<T> {
    /// An admitted item, highest lane first, FIFO within a lane.
    Item(T),
    /// Nothing arrived within the wait budget; the queue is still open.
    TimedOut,
    /// The queue is closed *and* fully drained; no item will ever arrive.
    Closed,
}

/// Items in both lanes plus the closed flag, guarded by one mutex.
#[derive(Debug)]
struct Lanes<T> {
    high: VecDeque<T>,
    normal: VecDeque<T>,
    closed: bool,
}

impl<T> Lanes<T> {
    fn len(&self) -> usize {
        self.high.len() + self.normal.len()
    }

    fn take(&mut self) -> Option<T> {
        self.high.pop_front().or_else(|| self.normal.pop_front())
    }
}

/// Bounded MPMC queue with two priority lanes. See the module docs for the
/// backpressure and drain contracts.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    lanes: Mutex<Lanes<T>>,
    ready: Condvar,
    cap: usize,
}

impl<T> AdmissionQueue<T> {
    /// Creates a queue admitting at most `cap` items across both lanes
    /// (`cap` is clamped to at least 1).
    #[must_use]
    pub fn new(cap: usize) -> AdmissionQueue<T> {
        AdmissionQueue {
            lanes: Mutex::new(Lanes {
                high: VecDeque::new(),
                normal: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Admits `item` into `pri`'s lane, or hands it back if the queue is
    /// full or closed. Never blocks.
    pub fn push(&self, item: T, pri: Priority) -> Result<(), PushError<T>> {
        let mut lanes = lock(&self.lanes);
        if lanes.closed {
            return Err(PushError::Closed(item));
        }
        if lanes.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        match pri {
            Priority::High => lanes.high.push_back(item),
            Priority::Normal => lanes.normal.push_back(item),
        }
        drop(lanes);
        self.ready.notify_one();
        Ok(())
    }

    /// Pops the next item without waiting: [`Pop::TimedOut`] when the open
    /// queue is empty. Workers fill a wave with it from what is already
    /// queued.
    pub fn try_pop(&self) -> Pop<T> {
        let mut lanes = lock(&self.lanes);
        match lanes.take() {
            Some(item) => Pop::Item(item),
            None if lanes.closed => Pop::Closed,
            None => Pop::TimedOut,
        }
    }

    /// Pops the next item, waiting up to `wait` for one to arrive. After
    /// [`close`](Self::close), keeps returning queued items until the queue
    /// is drained, then returns [`Pop::Closed`].
    pub fn pop_timeout(&self, wait: Duration) -> Pop<T> {
        let deadline = Instant::now() + wait;
        let mut lanes = lock(&self.lanes);
        loop {
            if let Some(item) = lanes.take() {
                return Pop::Item(item);
            }
            if lanes.closed {
                return Pop::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return Pop::TimedOut;
            }
            lanes = self
                .ready
                .wait_timeout(lanes, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Closes the queue: future pushes are refused, pops drain what was
    /// already admitted and then report [`Pop::Closed`].
    pub fn close(&self) {
        lock(&self.lanes).closed = true;
        self.ready.notify_all();
    }

    /// Items currently queued across both lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.lanes).len()
    }

    /// Whether both lanes are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The admission cap this queue was built with.
    #[cfg(test)]
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn rejects_when_full_and_hands_the_item_back() {
        let q = AdmissionQueue::new(2);
        q.push(1, Priority::Normal).unwrap();
        q.push(2, Priority::High).unwrap();
        match q.push(3, Priority::Normal) {
            Err(PushError::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        // The cap covers both lanes together: high is refused too.
        match q.push(4, Priority::High) {
            Err(PushError::Full(item)) => assert_eq!(item, 4),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.len(), 2);
        // Popping frees a slot and the queue admits again.
        assert!(matches!(q.try_pop(), Pop::Item(2)));
        q.push(5, Priority::Normal).unwrap();
    }

    #[test]
    fn fifo_within_priority_and_high_lane_first() {
        let q = AdmissionQueue::new(8);
        q.push("n1", Priority::Normal).unwrap();
        q.push("h1", Priority::High).unwrap();
        q.push("n2", Priority::Normal).unwrap();
        q.push("h2", Priority::High).unwrap();
        let mut order = Vec::new();
        while let Pop::Item(s) = q.try_pop() {
            order.push(s);
        }
        assert_eq!(order, ["h1", "h2", "n1", "n2"]);
    }

    #[test]
    fn close_drains_in_order_then_reports_closed() {
        let q = AdmissionQueue::new(8);
        q.push(10, Priority::Normal).unwrap();
        q.push(11, Priority::Normal).unwrap();
        q.close();
        // Pushes are refused immediately, even though there is space...
        match q.push(12, Priority::Normal) {
            Err(PushError::Closed(item)) => assert_eq!(item, 12),
            other => panic!("expected Closed, got {other:?}"),
        }
        // ...but already-admitted items drain in FIFO order first.
        assert!(matches!(
            q.pop_timeout(Duration::from_millis(1)),
            Pop::Item(10)
        ));
        assert!(matches!(q.try_pop(), Pop::Item(11)));
        assert!(matches!(q.try_pop(), Pop::Closed));
        assert!(matches!(
            q.pop_timeout(Duration::from_millis(1)),
            Pop::Closed
        ));
    }

    #[test]
    fn pop_timeout_times_out_on_an_open_empty_queue() {
        let q: AdmissionQueue<u8> = AdmissionQueue::new(4);
        assert!(matches!(q.try_pop(), Pop::TimedOut));
        assert!(matches!(
            q.pop_timeout(Duration::from_millis(5)),
            Pop::TimedOut
        ));
    }

    #[test]
    fn pop_timeout_wakes_on_push_and_on_close() {
        let q = Arc::new(AdmissionQueue::new(4));
        let producer = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                q.push(7u8, Priority::Normal).unwrap();
                q.close();
            })
        };
        // Generous budget: the wait must be cut short by the wakeups, and
        // after the drain the close is observed without a new push.
        let first = q.pop_timeout(Duration::from_secs(10));
        assert!(matches!(first, Pop::Item(7)));
        assert!(matches!(
            q.pop_timeout(Duration::from_secs(10)),
            Pop::Closed
        ));
        producer.join().unwrap();
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let q = AdmissionQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.push(1, Priority::Normal).unwrap();
        assert!(matches!(
            q.push(2, Priority::Normal),
            Err(PushError::Full(2))
        ));
    }
}
