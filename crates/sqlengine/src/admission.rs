//! Bounded statement admission control.
//!
//! When [`EngineConfig::max_concurrent_statements`] is set, every statement
//! entry point acquires a permit from an [`AdmissionGate`] before doing any
//! work. At most `max` statements run at once; up to `queue_limit` more wait
//! on a condvar, FIFO-ish (condvar wakeup order), and everything beyond that
//! is *shed* immediately with the retryable [`EngineError::Overloaded`] —
//! bounded latency instead of unbounded pile-up. A queued statement whose
//! deadline (derived from `statement_timeout`) expires before a slot frees
//! is shed too: it could never finish in time, so burning a slot on it only
//! delays statements that still can.
//!
//! The gate's lock never poisons ([`crate::sync`]): a statement that panics
//! mid-execution (releasing its permit during unwind) must not wedge the
//! queue for everyone behind it.
//!
//! [`EngineConfig::max_concurrent_statements`]: crate::EngineConfig::max_concurrent_statements

use std::sync::Arc;
use std::time::Instant;

use crate::error::{EngineError, Result};
use crate::sync::{Condvar, Mutex};
use crate::telemetry::Telemetry;

#[derive(Debug)]
struct GateState {
    running: usize,
    queued: usize,
}

/// Counting gate over statement execution; see the module docs.
pub(crate) struct AdmissionGate {
    max: usize,
    queue_limit: usize,
    state: Mutex<GateState>,
    cond: Condvar,
    telemetry: Arc<Telemetry>,
}

/// RAII permit: holding one means the statement counts against `max`.
/// Dropping it (normally or during a panic unwind) frees the slot and wakes
/// the queue.
pub(crate) struct AdmissionPermit {
    gate: Arc<AdmissionGate>,
    /// Time the statement spent queued before admission (`None` when it was
    /// admitted on the fast path, which reads no clock at all).
    queue_wait: Option<std::time::Duration>,
}

impl AdmissionPermit {
    /// Queue wait of the admitted statement, if it had to queue.
    pub(crate) fn queue_wait(&self) -> Option<std::time::Duration> {
        self.queue_wait
    }
}

impl std::fmt::Debug for AdmissionPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AdmissionPermit")
    }
}

impl AdmissionGate {
    pub(crate) fn new(max: usize, queue_limit: usize, telemetry: Arc<Telemetry>) -> AdmissionGate {
        AdmissionGate {
            max: max.max(1),
            queue_limit,
            state: Mutex::new(GateState {
                running: 0,
                queued: 0,
            }),
            cond: Condvar::new(),
            telemetry,
        }
    }

    /// Acquire a permit, waiting in the bounded queue if the gate is full.
    /// Sheds with [`EngineError::Overloaded`] when the queue is full or the
    /// statement's deadline expires (or would certainly expire) while
    /// queued.
    pub(crate) fn admit(self: &Arc<Self>, deadline: Option<Instant>) -> Result<AdmissionPermit> {
        let mut state = self.state.lock();
        if state.running < self.max {
            state.running += 1;
            drop(state);
            if self.telemetry.enabled() {
                self.telemetry.admission_admitted.incr();
            }
            return Ok(AdmissionPermit {
                gate: Arc::clone(self),
                queue_wait: None,
            });
        }
        if state.queued >= self.queue_limit {
            drop(state);
            return Err(self.shed(format!(
                "admission queue is full ({} statements running, {} queued); retry later",
                self.max, self.queue_limit
            )));
        }
        state.queued += 1;
        if self.telemetry.enabled() {
            self.telemetry.admission_queued.incr();
        }
        // Clock reads happen only on this contended path: the wait feeds the
        // `admission` wait-class rollup and the statement's trace span.
        let queued_at = Instant::now();
        loop {
            state = match deadline {
                None => self.cond.wait(state),
                Some(dl) => {
                    let now = Instant::now();
                    if now >= dl {
                        state.queued -= 1;
                        drop(state);
                        if self.telemetry.enabled() {
                            self.telemetry.wait_admission_us.record(now - queued_at);
                        }
                        return Err(self.shed(
                            "statement deadline expired while queued for admission".to_string(),
                        ));
                    }
                    self.cond.wait_timeout(state, dl - now)
                }
            };
            if state.running < self.max {
                state.queued -= 1;
                state.running += 1;
                drop(state);
                let waited = queued_at.elapsed();
                if self.telemetry.enabled() {
                    self.telemetry.admission_admitted.incr();
                    self.telemetry.wait_admission_us.record(waited);
                }
                return Ok(AdmissionPermit {
                    gate: Arc::clone(self),
                    queue_wait: Some(waited),
                });
            }
        }
    }

    fn shed(&self, message: String) -> EngineError {
        if self.telemetry.enabled() {
            self.telemetry.admission_shed.incr();
        }
        EngineError::overloaded(message)
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock();
        state.running = state.running.saturating_sub(1);
        drop(state);
        // notify_all, not notify_one: timed waiters that woke for a deadline
        // check may be between wakeup and re-wait, so a single token could
        // be lost. Spurious wakeups are cheap; a stuck queue is not.
        self.gate.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn gate(max: usize, queue: usize) -> Arc<AdmissionGate> {
        Arc::new(AdmissionGate::new(
            max,
            queue,
            Arc::new(Telemetry::new(true, Duration::from_secs(1), 4)),
        ))
    }

    #[test]
    fn admits_up_to_max_then_queues_then_sheds() {
        let g = gate(2, 1);
        let p1 = g.admit(None).unwrap();
        let _p2 = g.admit(None).unwrap();
        // Third would queue; with an already-expired deadline it sheds as a
        // deadline expiry rather than blocking the test thread.
        let expired = Instant::now() - Duration::from_millis(1);
        let err = g.admit(Some(expired)).unwrap_err();
        assert!(err.is_retryable());
        assert!(err.to_string().contains("overloaded"), "{err}");
        drop(p1);
        let _p3 = g.admit(None).unwrap();
        assert_eq!(g.telemetry.admission_shed.get(), 1);
        assert_eq!(g.telemetry.admission_admitted.get(), 3);
    }

    #[test]
    fn full_queue_sheds_immediately() {
        let g = gate(1, 0);
        let _p = g.admit(None).unwrap();
        let err = g.admit(None).unwrap_err();
        assert!(err.to_string().contains("queue is full"), "{err}");
    }

    #[test]
    fn released_permit_wakes_queued_waiter() {
        let g = gate(1, 4);
        let p = g.admit(None).unwrap();
        let g2 = Arc::clone(&g);
        let waiter = std::thread::spawn(move || {
            let _p = g2
                .admit(Some(Instant::now() + Duration::from_secs(5)))
                .unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(p);
        waiter.join().unwrap();
        assert_eq!(g.telemetry.admission_queued.get(), 1);
        assert_eq!(g.telemetry.admission_admitted.get(), 2);
    }

    #[test]
    fn permit_drop_during_panic_frees_the_slot() {
        let g = gate(1, 4);
        let g2 = Arc::clone(&g);
        let _ = std::thread::spawn(move || {
            let _p = g2.admit(None).unwrap();
            panic!("statement panicked while holding a permit");
        })
        .join();
        // The unwound thread released its permit; the gate is empty again.
        let _p = g
            .admit(Some(Instant::now() + Duration::from_millis(200)))
            .unwrap();
    }
}
