//! Circuit breaker over the LLM endpoint: after [`THRESHOLD`] consecutive
//! batches in which the endpoint produced nothing (no answers AND no
//! billed calls — the signature of a dead transport, not of malformed
//! output), the service stops reserving budget and routes batches
//! straight to the logistic fallback for [`COOLDOWN`]. One probe batch is
//! admitted per cooldown; its outcome closes or re-opens the circuit.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use obs::{Counter, Gauge};

/// Consecutive dead-endpoint batches that open the circuit.
pub const THRESHOLD: u32 = 8;

/// How long an open circuit holds before it admits a probe batch.
pub const COOLDOWN: Duration = Duration::from_millis(250);

#[derive(Debug, Clone, Copy)]
enum State {
    Closed {
        consecutive_failures: u32,
    },
    Open {
        until: Instant,
    },
    /// A probe is in flight; `since` lets a lost probe (worker panic)
    /// age out instead of sticking the breaker half-open forever.
    HalfOpen {
        since: Instant,
    },
}

/// Gauge encoding of the state (`er_breaker_state`).
const STATE_CLOSED: i64 = 0;
const STATE_OPEN: i64 = 1;
const STATE_HALF_OPEN: i64 = 2;

/// See the module docs.
#[derive(Debug)]
pub struct Breaker {
    state: Mutex<State>,
    trips: Arc<Counter>,
    short_circuits: Arc<Counter>,
    state_gauge: Arc<Gauge>,
}

impl Default for Breaker {
    fn default() -> Self {
        Self::new()
    }
}

impl Breaker {
    /// A closed breaker with detached metric handles.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(State::Closed { consecutive_failures: 0 }),
            trips: Counter::detached(),
            short_circuits: Counter::detached(),
            state_gauge: Gauge::detached(),
        }
    }

    /// Swaps in registry-backed handles: trip counter, short-circuited
    /// batch counter, and the state gauge (0 closed / 1 open / 2
    /// half-open).
    pub fn with_metrics(
        mut self,
        trips: Arc<Counter>,
        short_circuits: Arc<Counter>,
        state_gauge: Arc<Gauge>,
    ) -> Self {
        self.trips = trips;
        self.short_circuits = short_circuits;
        self.state_gauge = state_gauge;
        self
    }

    /// Whether a batch may go to the LLM right now. `false` means route
    /// to the fallback without reserving budget. A `true` while open
    /// promotes to half-open: that batch is the probe.
    pub fn allow(&self) -> bool {
        let mut state = self.lock();
        match *state {
            State::Closed { .. } => true,
            State::Open { until } => {
                let now = Instant::now();
                if now >= until {
                    *state = State::HalfOpen { since: now };
                    self.state_gauge.set(STATE_HALF_OPEN);
                    true
                } else {
                    self.short_circuits.inc();
                    false
                }
            }
            State::HalfOpen { since } => {
                // The probe's verdict normally resolves this state; if the
                // probe was lost to a panic, admit another after cooldown.
                if since.elapsed() >= COOLDOWN {
                    *state = State::HalfOpen { since: Instant::now() };
                    true
                } else {
                    self.short_circuits.inc();
                    false
                }
            }
        }
    }

    /// Records a batch outcome where the endpoint responded.
    pub fn record_success(&self) {
        let mut state = self.lock();
        *state = State::Closed { consecutive_failures: 0 };
        self.state_gauge.set(STATE_CLOSED);
    }

    /// Records a batch outcome where the endpoint gave nothing (no
    /// answers, no billed calls).
    pub fn record_failure(&self) {
        let mut state = self.lock();
        let failures = match *state {
            State::Closed { consecutive_failures } => consecutive_failures + 1,
            // A failed probe re-opens immediately.
            State::Open { .. } | State::HalfOpen { .. } => THRESHOLD,
        };
        if failures >= THRESHOLD {
            *state = State::Open { until: Instant::now() + COOLDOWN };
            self.trips.inc();
            self.state_gauge.set(STATE_OPEN);
        } else {
            *state = State::Closed { consecutive_failures: failures };
        }
    }

    /// Stable state name for `/healthz`.
    pub fn state_name(&self) -> &'static str {
        match *self.lock() {
            State::Closed { .. } => "closed",
            State::Open { .. } => "open",
            State::HalfOpen { .. } => "half_open",
        }
    }

    /// Numeric state for `/stats` (same encoding as the gauge).
    pub fn state_code(&self) -> u64 {
        match *self.lock() {
            State::Closed { .. } => STATE_CLOSED as u64,
            State::Open { .. } => STATE_OPEN as u64,
            State::HalfOpen { .. } => STATE_HALF_OPEN as u64,
        }
    }

    /// Trips so far.
    pub fn trips(&self) -> u64 {
        self.trips.get()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        crate::sync::lock(&self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let b = Breaker::new();
        for _ in 1..THRESHOLD {
            assert!(b.allow());
            b.record_failure();
        }
        assert_eq!(b.state_name(), "closed");
        assert!(b.allow());
        b.record_failure();
        assert_eq!(b.state_name(), "open");
        assert_eq!(b.trips(), 1);
        assert!(!b.allow());
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = Breaker::new();
        for _ in 1..THRESHOLD {
            b.record_failure();
        }
        b.record_success();
        b.record_failure();
        assert_eq!(b.state_name(), "closed");
        assert!(b.allow());
    }

    #[test]
    fn probe_after_cooldown_closes_or_reopens() {
        let b = Breaker::new();
        for _ in 0..THRESHOLD {
            b.record_failure();
        }
        assert!(!b.allow());
        std::thread::sleep(COOLDOWN + Duration::from_millis(20));
        // First call after cooldown is the probe.
        assert!(b.allow());
        assert_eq!(b.state_name(), "half_open");
        // Siblings are still short-circuited while the probe flies.
        assert!(!b.allow());
        b.record_failure();
        assert_eq!(b.state_name(), "open");
        std::thread::sleep(COOLDOWN + Duration::from_millis(20));
        assert!(b.allow());
        b.record_success();
        assert_eq!(b.state_name(), "closed");
        assert!(b.allow());
    }
}
