//! The cost governor: a hard budget over a shared ledger, with
//! reserve-then-settle accounting so concurrent workers can never
//! collectively overshoot.
//!
//! Admission control happens **before** a batch is sent to the LLM:
//! a worker asks to reserve the batch's projected worst-case cost
//! (prompt tokens exactly known, completion and retries bounded). If the
//! reservation does not fit under the budget the batch is denied and the
//! service degrades to its local fallback matcher — requests still get
//! answers, they just stop costing money. Settling replaces the
//! reservation with the actual spend recorded by the executor.
//!
//! Every reserve/settle/refund is journaled to the durable log when one
//! is wired ([`CostGovernor::with_journal`]), settle written *before*
//! the in-memory merge so replayed spend can never under-count. Workers
//! hold reservations through a [`ReservationGuard`]: if the worker dies
//! between reserve and settle (panic, disconnect), the guard's drop
//! refunds the projection instead of stranding budget forever.

use std::sync::{Arc, Mutex};

use er_core::{CostLedger, Money, SharedCostLedger};
use obs::{Counter, Gauge, Histogram};

use crate::durable::{DurableLog, DurableRecord};

/// Budget enforcement over a [`SharedCostLedger`].
#[derive(Debug)]
pub struct CostGovernor {
    ledger: SharedCostLedger,
    budget: Money,
    /// Committed-but-unsettled projections.
    reserved: Mutex<Money>,
    denials: Arc<Counter>,
    /// Reservations refunded without spend (aborts + drop guards).
    refunds: Arc<Counter>,
    /// Reservation / settlement latency (detached unless wired via
    /// [`CostGovernor::with_metrics`]).
    reserve_us: Arc<Histogram>,
    settle_us: Arc<Histogram>,
    /// Mirror of `reserved` in micro-dollars, for `/metrics`.
    reserved_gauge: Arc<Gauge>,
    /// Write-ahead journal for reserve/settle/refund events.
    journal: Option<Arc<DurableLog>>,
}

/// A granted budget reservation; must be settled exactly once.
#[derive(Debug)]
#[must_use = "an unsettled reservation permanently holds budget"]
pub struct Reservation {
    projected: Money,
    /// Journal id (unique within the log's run; 0 when unjournaled).
    id: u64,
}

impl CostGovernor {
    /// A governor enforcing `budget` over `ledger`. Metric handles start
    /// detached (recording, but not exported anywhere).
    pub fn new(ledger: SharedCostLedger, budget: Money) -> Self {
        Self {
            ledger,
            budget,
            reserved: Mutex::new(Money::ZERO),
            denials: Counter::detached(),
            refunds: Counter::detached(),
            reserve_us: Arc::new(Histogram::detached()),
            settle_us: Arc::new(Histogram::detached()),
            reserved_gauge: Gauge::detached(),
            journal: None,
        }
    }

    /// Swaps in registry-backed metric handles: the denial and refund
    /// counters, the reserve/settle latency histograms and the
    /// reserved-budget gauge.
    pub fn with_metrics(
        mut self,
        denials: Arc<Counter>,
        refunds: Arc<Counter>,
        reserve_us: Arc<Histogram>,
        settle_us: Arc<Histogram>,
        reserved_gauge: Arc<Gauge>,
    ) -> Self {
        self.denials = denials;
        self.refunds = refunds;
        self.reserve_us = reserve_us;
        self.settle_us = settle_us;
        self.reserved_gauge = reserved_gauge;
        self
    }

    /// Wires the durable journal: every grant, settlement and refund is
    /// appended to it from here on.
    pub fn with_journal(mut self, journal: Option<Arc<DurableLog>>) -> Self {
        self.journal = journal;
        self
    }

    /// The configured budget cap.
    pub fn budget(&self) -> Money {
        self.budget
    }

    /// The shared ledger this governor charges.
    pub fn ledger(&self) -> &SharedCostLedger {
        &self.ledger
    }

    /// Attempts to reserve `projected` spend; `None` means over budget.
    pub fn try_reserve(&self, projected: Money) -> Option<Reservation> {
        let _timer = self.reserve_us.start_timer();
        {
            let mut reserved = self.lock_reserved();
            let committed = self.ledger.total() + *reserved + projected;
            if committed > self.budget {
                drop(reserved);
                self.denials.inc();
                return None;
            }
            *reserved += projected;
            self.reserved_gauge.set(reserved.micros());
        }
        // Journaled after the grant, outside the lock: a crash between
        // grant and append loses nothing (no spend happened yet), and a
        // journaled reserve with no later settle replays as refunded.
        let id = match &self.journal {
            Some(journal) => {
                let id = journal.next_reservation_id();
                journal.append(&DurableRecord::Reserve {
                    run: journal.run(),
                    id,
                    micros: projected.micros(),
                });
                id
            }
            None => 0,
        };
        Some(Reservation { projected, id })
    }

    /// Like [`CostGovernor::try_reserve`], but the grant comes wrapped in
    /// a [`ReservationGuard`] that refunds on drop — the form workers use
    /// so a panic mid-dispatch cannot strand budget.
    pub fn try_reserve_guarded(&self, projected: Money) -> Option<ReservationGuard<'_>> {
        self.try_reserve(projected)
            .map(|reservation| ReservationGuard { governor: self, reservation: Some(reservation) })
    }

    /// Settles a reservation with the actual accounting of the executed
    /// batch (which must not exceed the projection — the projection is a
    /// worst-case bound by construction).
    pub fn settle(&self, reservation: Reservation, actual: &CostLedger) {
        let _timer = self.settle_us.start_timer();
        // Write-ahead: the spend already happened at the API call, so the
        // journal records it *before* the in-memory merge — a crash
        // in between replays the spend (correct) rather than losing it
        // (which would let the next run overshoot the budget).
        if let Some(journal) = &self.journal {
            journal.append(&DurableRecord::Settle {
                run: journal.run(),
                id: reservation.id,
                api_micros: actual.api.micros(),
                labeling_micros: actual.labeling.micros(),
                prompt_tokens: actual.prompt_tokens.get(),
                completion_tokens: actual.completion_tokens.get(),
                api_calls: actual.api_calls,
                pairs_labeled: actual.pairs_labeled,
            });
        }
        // The merge and the reservation release happen under the
        // `reserved` lock (the same lock `try_reserve` holds while it
        // reads the ledger), so no concurrent reservation can observe
        // the batch double-counted — as both actual spend and still-held
        // projection — and be spuriously denied.
        let mut reserved = self.lock_reserved();
        self.ledger.merge(actual);
        *reserved = *reserved - reservation.projected;
        self.reserved_gauge.set(reserved.micros());
    }

    /// Releases a reservation without any spend (batch aborted before the
    /// first API call).
    pub fn release(&self, reservation: Reservation) {
        if let Some(journal) = &self.journal {
            journal.append(&DurableRecord::Refund {
                run: journal.run(),
                id: reservation.id,
                micros: reservation.projected.micros(),
            });
        }
        let mut reserved = self.lock_reserved();
        *reserved = *reserved - reservation.projected;
        self.reserved_gauge.set(reserved.micros());
    }

    /// Budget not yet spent or reserved (floored at zero).
    pub fn remaining(&self) -> Money {
        let reserved = *self.lock_reserved();
        let left = self.budget - self.ledger.total() - reserved;
        if left < Money::ZERO {
            Money::ZERO
        } else {
            left
        }
    }

    /// Number of denied reservations so far.
    pub fn denials(&self) -> u64 {
        self.denials.get()
    }

    /// Number of reservations refunded without spend so far.
    pub fn refunds(&self) -> u64 {
        self.refunds.get()
    }

    fn lock_reserved(&self) -> std::sync::MutexGuard<'_, Money> {
        crate::sync::lock(&self.reserved)
    }
}

/// RAII holder of a granted reservation. Settling consumes it; dropping
/// it unsettled — the worker panicked or bailed between reserve and
/// settle — refunds the projection (journaled) so the budget can never
/// leak. Unwinding through the worker's `catch_unwind` runs this drop.
#[must_use = "dropping the guard immediately refunds the reservation"]
#[derive(Debug)]
pub struct ReservationGuard<'g> {
    governor: &'g CostGovernor,
    reservation: Option<Reservation>,
}

impl ReservationGuard<'_> {
    /// Settles the held reservation with the batch's actual spend.
    pub fn settle(mut self, actual: &CostLedger) {
        let reservation = self
            .reservation
            .take()
            .expect("a guard settles at most once");
        self.governor.settle(reservation, actual);
    }
}

impl Drop for ReservationGuard<'_> {
    fn drop(&mut self) {
        if let Some(reservation) = self.reservation.take() {
            self.governor.refunds.inc();
            self.governor.release(reservation);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::TokenCount;

    fn governor(budget_micros: i64) -> CostGovernor {
        CostGovernor::new(SharedCostLedger::new(), Money::from_micros(budget_micros))
    }

    fn spend(amount: i64) -> CostLedger {
        let mut l = CostLedger::new();
        l.record_api_call(TokenCount(10), TokenCount(2), Money::from_micros(amount));
        l
    }

    #[test]
    fn reserve_settle_cycle() {
        let g = governor(1_000);
        let r = g.try_reserve(Money::from_micros(600)).expect("fits");
        assert_eq!(g.remaining(), Money::from_micros(400));
        g.settle(r, &spend(500));
        assert_eq!(g.remaining(), Money::from_micros(500));
        assert_eq!(g.ledger().snapshot().api, Money::from_micros(500));
        assert_eq!(g.denials(), 0);
    }

    #[test]
    fn over_budget_reservations_denied() {
        let g = governor(1_000);
        let _held = g.try_reserve(Money::from_micros(900)).expect("fits");
        assert!(g.try_reserve(Money::from_micros(200)).is_none());
        assert_eq!(g.denials(), 1);
    }

    #[test]
    fn release_returns_budget() {
        let g = governor(1_000);
        let r = g.try_reserve(Money::from_micros(900)).expect("fits");
        g.release(r);
        assert!(g.try_reserve(Money::from_micros(1_000)).is_some());
    }

    #[test]
    fn concurrent_reservations_never_overshoot() {
        let g = std::sync::Arc::new(governor(10_000));
        std::thread::scope(|scope| {
            for _ in 0..16 {
                let g = std::sync::Arc::clone(&g);
                scope.spawn(move || {
                    for _ in 0..50 {
                        if let Some(r) = g.try_reserve(Money::from_micros(100)) {
                            g.settle(r, &spend(100));
                        }
                    }
                });
            }
        });
        // Exactly 100 reservations of 100 micro-dollars fit under 10k.
        let total = g.ledger().total();
        assert!(total <= Money::from_micros(10_000), "overshot: {total}");
        assert_eq!(total, Money::from_micros(10_000));
        assert!(g.denials() > 0);
    }

    #[test]
    fn guard_drop_refunds_and_counts() {
        let g = governor(1_000);
        {
            let _guard = g
                .try_reserve_guarded(Money::from_micros(900))
                .expect("fits");
            assert_eq!(g.remaining(), Money::from_micros(100));
        } // dropped unsettled
        assert_eq!(g.remaining(), Money::from_micros(1_000));
        assert_eq!(g.refunds(), 1);
    }

    #[test]
    fn guard_settle_spends_without_refund() {
        let g = governor(1_000);
        let guard = g
            .try_reserve_guarded(Money::from_micros(600))
            .expect("fits");
        guard.settle(&spend(500));
        assert_eq!(g.remaining(), Money::from_micros(500));
        assert_eq!(g.refunds(), 0);
    }

    #[test]
    fn guard_survives_a_panic_unwind() {
        let g = governor(1_000);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = g
                .try_reserve_guarded(Money::from_micros(800))
                .expect("fits");
            panic!("worker dies mid-dispatch");
        }));
        assert!(result.is_err());
        assert_eq!(g.remaining(), Money::from_micros(1_000));
        assert_eq!(g.refunds(), 1);
    }

    #[test]
    fn remaining_floors_at_zero() {
        let g = governor(100);
        // Out-of-band spend pushes the ledger past the budget.
        g.ledger().merge(&spend(500));
        assert_eq!(g.remaining(), Money::ZERO);
    }
}
