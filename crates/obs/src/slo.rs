//! SLO burn-rate evaluation over sliding windows, zero dependencies.
//!
//! An [`Slo`] declares an objective — a target fraction of *good* events
//! (e.g. 0.99 of answers under the latency threshold) — and accumulates
//! good/bad event counts into a ring of coarse time slots. Evaluation
//! folds the slots covering each window (5 minutes and 1 hour by
//! default) into a **burn rate**: the observed bad fraction divided by
//! the error budget `1 - objective`. Burn 1.0 spends the budget exactly
//! at the sustainable pace; burn 14.4 on a 99.9% objective exhausts a
//! 30-day budget in ~2 days, which is the classic fast-burn page
//! threshold. *Fast burn* here means both windows exceed the threshold —
//! the short window proves it is happening now, the long window proves
//! it is not a blip.
//!
//! Time is injected (`record_at` / `evaluate_at` take seconds) so tests
//! never wait on wall clocks; the convenience methods stamp events with
//! a monotonic clock anchored at construction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Seconds per accumulation slot.
const SLOT_SECS: u64 = 10;

/// The short ("is it happening now") window, seconds.
pub const SHORT_WINDOW_SECS: u64 = 5 * 60;

/// The long ("is it sustained") window, seconds.
pub const LONG_WINDOW_SECS: u64 = 60 * 60;

/// Fast-burn threshold (both windows must reach it; nothing overrides it).
pub const DEFAULT_FAST_BURN: f64 = 14.4;

struct Slot {
    /// Slot index since epoch (`now_secs / SLOT_SECS`); counts belong to
    /// this slot only while the index matches, stale slots read as zero.
    epoch: AtomicU64,
    good: AtomicU64,
    bad: AtomicU64,
}

/// One declared objective with its sliding event window.
///
/// Recording is lock-free (`record` sits on the service's per-answer
/// hot path): each 10-second slot is a trio of atomics, and recycling a
/// stale slot is a CAS race whose winner zeroes the counts. An event
/// recorded in the instant between the CAS and the zeroing can be lost
/// or land in the fresh slot — at most a handful of events per slot
/// *boundary* (once per 10s), noise at the granularity burn rates are
/// read at.
pub struct Slo {
    name: String,
    objective: f64,
    started: Instant,
    slots: Vec<Slot>,
}

/// One window's evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowBurn {
    /// Window length, seconds.
    pub window_secs: u64,
    /// Good events in the window.
    pub good: u64,
    /// Bad events in the window.
    pub bad: u64,
    /// `bad_fraction / (1 - objective)`; 0 when the window is empty.
    pub burn_rate: f64,
}

/// A full evaluation: both windows plus the fast-burn verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloStatus {
    /// The declared good-event objective (e.g. 0.99).
    pub objective: f64,
    /// The short (5m) window.
    pub short: WindowBurn,
    /// The long (1h) window.
    pub long: WindowBurn,
    /// Both windows above the fast-burn threshold.
    pub fast_burn: bool,
}

impl Slo {
    /// Declares an objective: `objective` is the target good fraction in
    /// `(0, 1)`, e.g. `0.99`.
    pub fn new(name: impl Into<String>, objective: f64) -> Self {
        assert!(
            objective > 0.0 && objective < 1.0,
            "objective must be in (0, 1), got {objective}"
        );
        let n_slots = (LONG_WINDOW_SECS / SLOT_SECS) as usize + 1;
        Self {
            name: name.into(),
            objective,
            started: Instant::now(),
            slots: (0..n_slots)
                .map(|_| Slot {
                    epoch: AtomicU64::new(u64::MAX),
                    good: AtomicU64::new(0),
                    bad: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// The objective's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared good fraction.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    fn now_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Records one event at the current (monotonic) time.
    pub fn record(&self, good: bool) {
        self.record_at(good, self.now_secs());
    }

    /// Records one event at an explicit time (seconds since an arbitrary
    /// but consistent epoch).
    pub fn record_at(&self, good: bool, now_secs: u64) {
        let epoch = now_secs / SLOT_SECS;
        let n = self.slots.len() as u64;
        let slot = &self.slots[(epoch % n) as usize];
        let seen = slot.epoch.load(Ordering::Acquire);
        if seen != epoch
            && slot
                .epoch
                .compare_exchange(seen, epoch, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            // This thread recycled the stale slot; zero its counts.
            slot.good.store(0, Ordering::Relaxed);
            slot.bad.store(0, Ordering::Relaxed);
        }
        if good {
            slot.good.fetch_add(1, Ordering::Relaxed);
        } else {
            slot.bad.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Evaluates both windows at the current (monotonic) time.
    pub fn evaluate(&self) -> SloStatus {
        self.evaluate_at(self.now_secs())
    }

    /// Evaluates both windows at an explicit time.
    pub fn evaluate_at(&self, now_secs: u64) -> SloStatus {
        let short = self.window_at(SHORT_WINDOW_SECS, now_secs);
        let long = self.window_at(LONG_WINDOW_SECS, now_secs);
        SloStatus {
            objective: self.objective,
            short,
            long,
            fast_burn: short.burn_rate >= DEFAULT_FAST_BURN && long.burn_rate >= DEFAULT_FAST_BURN,
        }
    }

    fn window_at(&self, window_secs: u64, now_secs: u64) -> WindowBurn {
        let now_epoch = now_secs / SLOT_SECS;
        let span = window_secs / SLOT_SECS;
        let oldest = now_epoch.saturating_sub(span.saturating_sub(1));
        let (mut good, mut bad) = (0u64, 0u64);
        for slot in &self.slots {
            let epoch = slot.epoch.load(Ordering::Acquire);
            if epoch >= oldest && epoch <= now_epoch && epoch != u64::MAX {
                good += slot.good.load(Ordering::Relaxed);
                bad += slot.bad.load(Ordering::Relaxed);
            }
        }
        let total = good + bad;
        let burn_rate = if total == 0 {
            0.0
        } else {
            let bad_fraction = bad as f64 / total as f64;
            bad_fraction / (1.0 - self.objective)
        };
        WindowBurn { window_secs, good, bad, burn_rate }
    }
}

impl std::fmt::Debug for Slo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slo")
            .field("name", &self.name)
            .field("objective", &self.objective)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_rate_is_bad_fraction_over_error_budget() {
        let slo = Slo::new("latency", 0.99);
        // 2% bad over a 1% budget: burn 2.0 in both windows.
        for i in 0..100 {
            slo.record_at(i % 50 != 0, 1000);
        }
        let status = slo.evaluate_at(1000);
        assert_eq!(status.short.good, 98);
        assert_eq!(status.short.bad, 2);
        assert!((status.short.burn_rate - 2.0).abs() < 1e-9);
        assert!((status.long.burn_rate - 2.0).abs() < 1e-9);
        assert!(!status.fast_burn);
    }

    #[test]
    fn short_window_forgets_old_events_long_window_keeps_them() {
        let slo = Slo::new("latency", 0.9);
        for _ in 0..10 {
            slo.record_at(false, 100); // all bad, early
        }
        for _ in 0..10 {
            slo.record_at(true, 100 + SHORT_WINDOW_SECS + 60); // later, good
        }
        let status = slo.evaluate_at(100 + SHORT_WINDOW_SECS + 60);
        // The bad burst fell out of the 5m window but not the 1h one.
        assert_eq!((status.short.good, status.short.bad), (10, 0));
        assert_eq!((status.long.good, status.long.bad), (10, 10));
        assert_eq!(status.short.burn_rate, 0.0);
        assert!((status.long.burn_rate - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fast_burn_requires_both_windows() {
        let slo = Slo::new("avail", 0.999);
        // 100% bad: burn 1000 on a 0.1% budget — both windows blow.
        for _ in 0..50 {
            slo.record_at(false, 5000);
        }
        let status = slo.evaluate_at(5000);
        assert!(status.fast_burn, "{status:?}");

        // The same burst evaluated after the short window rolled off:
        // long window still burns, short is empty — no fast burn.
        let later = 5000 + SHORT_WINDOW_SECS + 60;
        let status = slo.evaluate_at(later);
        assert_eq!(status.short.bad, 0);
        assert!(status.long.burn_rate > DEFAULT_FAST_BURN);
        assert!(!status.fast_burn);
    }

    #[test]
    fn slots_recycle_after_the_long_window() {
        let slo = Slo::new("latency", 0.99);
        for _ in 0..5 {
            slo.record_at(false, 0);
        }
        // Far beyond the long window: the stale slot must not count.
        let much_later = LONG_WINDOW_SECS * 3;
        slo.record_at(true, much_later);
        let status = slo.evaluate_at(much_later);
        assert_eq!((status.long.good, status.long.bad), (1, 0));
        assert_eq!(status.long.burn_rate, 0.0);
    }

    #[test]
    fn empty_window_burns_zero() {
        let slo = Slo::new("latency", 0.99);
        let status = slo.evaluate_at(777);
        assert_eq!(status.short.burn_rate, 0.0);
        assert_eq!(status.long.burn_rate, 0.0);
        assert!(!status.fast_burn);
    }

    #[test]
    #[should_panic(expected = "objective must be in (0, 1)")]
    fn degenerate_objective_rejected() {
        let _ = Slo::new("bad", 1.0);
    }
}
