//! Monetary cost accounting: token counts, micro-dollar arithmetic, and the
//! API + labeling cost ledger used throughout the evaluation (§VI-A).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

use serde::{Deserialize, Serialize};

/// Cost of labeling one entity pair, derived from AMT's $0.08 per 10-pair
/// labeling task (§VI-A): $0.008 = 8 000 micro-dollars.
pub const LABEL_COST_PER_PAIR: Money = Money::from_micros(8_000);

/// A number of LLM tokens.
///
/// Thin wrapper so token counts cannot be confused with other integers in
/// cost formulas.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TokenCount(pub u64);

impl TokenCount {
    /// Zero tokens.
    pub const ZERO: TokenCount = TokenCount(0);

    /// The raw count.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl Add for TokenCount {
    type Output = TokenCount;
    fn add(self, rhs: TokenCount) -> TokenCount {
        TokenCount(self.0 + rhs.0)
    }
}

impl AddAssign for TokenCount {
    fn add_assign(&mut self, rhs: TokenCount) {
        self.0 += rhs.0;
    }
}

impl Sum for TokenCount {
    fn sum<I: Iterator<Item = TokenCount>>(iter: I) -> TokenCount {
        iter.fold(TokenCount::ZERO, Add::add)
    }
}

impl fmt::Display for TokenCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} tok", self.0)
    }
}

/// Money in micro-dollars (1e-6 USD), stored as a signed 64-bit integer.
///
/// Fixed-point avoids the float-summation drift that would otherwise creep
/// into per-token prices on the order of 1e-8 dollars. The representable
/// range (±9.2e12 USD) is comfortably beyond any experiment's budget.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Money {
    micros: i64,
}

impl Money {
    /// Zero dollars.
    pub const ZERO: Money = Money { micros: 0 };

    /// Builds from micro-dollars.
    pub const fn from_micros(micros: i64) -> Self {
        Self { micros }
    }

    /// Builds from whole dollars (may round toward zero beyond 1e-6).
    pub fn from_dollars(dollars: f64) -> Self {
        Self { micros: (dollars * 1e6).round() as i64 }
    }

    /// The amount in micro-dollars.
    pub const fn micros(self) -> i64 {
        self.micros
    }

    /// The amount as floating-point dollars (for display / plotting only).
    pub fn dollars(self) -> f64 {
        self.micros as f64 / 1e6
    }

    /// Multiplies a per-token price by a token count.
    pub fn per_token_times(self, tokens: TokenCount) -> Money {
        Money { micros: self.micros.saturating_mul(tokens.0 as i64) }
    }

    /// Saturating ratio of two amounts, for "Nx cheaper" style reporting.
    /// Returns `f64::INFINITY` when `other` is zero and `self` is not.
    pub fn ratio(self, other: Money) -> f64 {
        if other.micros == 0 {
            if self.micros == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.micros as f64 / other.micros as f64
        }
    }
}

impl Add for Money {
    type Output = Money;
    fn add(self, rhs: Money) -> Money {
        Money { micros: self.micros + rhs.micros }
    }
}

impl AddAssign for Money {
    fn add_assign(&mut self, rhs: Money) {
        self.micros += rhs.micros;
    }
}

impl Sub for Money {
    type Output = Money;
    fn sub(self, rhs: Money) -> Money {
        Money { micros: self.micros - rhs.micros }
    }
}

impl Mul<u64> for Money {
    type Output = Money;
    fn mul(self, rhs: u64) -> Money {
        Money { micros: self.micros.saturating_mul(rhs as i64) }
    }
}

impl Sum for Money {
    fn sum<I: Iterator<Item = Money>>(iter: I) -> Money {
        iter.fold(Money::ZERO, Add::add)
    }
}

impl fmt::Display for Money {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.micros < 0 { "-" } else { "" };
        let abs = self.micros.unsigned_abs();
        write!(f, "{sign}${}.{:06}", abs / 1_000_000, abs % 1_000_000)
    }
}

/// Accumulates the two cost components the paper reports per approach:
/// API cost (token-priced LLM calls) and labeling cost (human annotation of
/// selected demonstrations).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostLedger {
    /// Total spent on LLM API calls.
    pub api: Money,
    /// Total spent on human labeling of demonstrations.
    pub labeling: Money,
    /// Prompt tokens sent.
    pub prompt_tokens: TokenCount,
    /// Completion tokens received.
    pub completion_tokens: TokenCount,
    /// Number of API calls issued.
    pub api_calls: u64,
    /// Number of entity pairs labeled by annotators.
    pub pairs_labeled: u64,
}

impl CostLedger {
    /// A fresh, zeroed ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one API call.
    pub fn record_api_call(
        &mut self,
        prompt_tokens: TokenCount,
        completion_tokens: TokenCount,
        cost: Money,
    ) {
        self.api += cost;
        self.prompt_tokens += prompt_tokens;
        self.completion_tokens += completion_tokens;
        self.api_calls += 1;
    }

    /// Records human labeling of `pairs` demonstrations at the AMT rate.
    pub fn record_labeling(&mut self, pairs: u64) {
        self.labeling += LABEL_COST_PER_PAIR * pairs;
        self.pairs_labeled += pairs;
    }

    /// API + labeling.
    pub fn total(&self) -> Money {
        self.api + self.labeling
    }

    /// Merges another ledger into this one.
    pub fn merge(&mut self, other: &CostLedger) {
        self.api += other.api;
        self.labeling += other.labeling;
        self.prompt_tokens += other.prompt_tokens;
        self.completion_tokens += other.completion_tokens;
        self.api_calls += other.api_calls;
        self.pairs_labeled += other.pairs_labeled;
    }
}

/// A thread-safe, shareable handle to a [`CostLedger`].
///
/// The offline experiment runner owns its ledger outright; the serving
/// layer (`er-service`) instead needs many worker threads charging one
/// budget concurrently. Cloning the handle shares the underlying ledger;
/// a worker records into a detached [`CostLedger`] and [`merge`]s it.
///
/// [`merge`]: SharedCostLedger::merge
#[derive(Debug, Clone, Default)]
pub struct SharedCostLedger {
    inner: std::sync::Arc<std::sync::Mutex<CostLedger>>,
}

impl SharedCostLedger {
    /// A fresh zeroed shared ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges a detached ledger (e.g. one batch execution's accounting)
    /// into this one.
    pub fn merge(&self, other: &CostLedger) {
        self.lock().merge(other);
    }

    /// A point-in-time copy of the ledger.
    pub fn snapshot(&self) -> CostLedger {
        *self.lock()
    }

    /// Current API + labeling total.
    pub fn total(&self) -> Money {
        self.lock().total()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CostLedger> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn money_display_is_fixed_point() {
        assert_eq!(Money::from_micros(1_234_567).to_string(), "$1.234567");
        assert_eq!(Money::from_micros(-500).to_string(), "-$0.000500");
        assert_eq!(Money::ZERO.to_string(), "$0.000000");
    }

    #[test]
    fn money_from_dollars_roundtrips() {
        let m = Money::from_dollars(0.008);
        assert_eq!(m, LABEL_COST_PER_PAIR);
        assert!((m.dollars() - 0.008).abs() < 1e-12);
    }

    #[test]
    fn per_token_pricing() {
        // GPT-4 style: $0.01 per 1K tokens = 10 micro-dollars per token.
        let per_tok = Money::from_micros(10);
        let cost = per_tok.per_token_times(TokenCount(90_000));
        assert_eq!(cost, Money::from_dollars(0.9));
    }

    #[test]
    fn ratio_handles_zero() {
        assert_eq!(Money::ZERO.ratio(Money::ZERO), 1.0);
        assert!(Money::from_micros(5).ratio(Money::ZERO).is_infinite());
        assert!((Money::from_micros(700).ratio(Money::from_micros(100)) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn ledger_accumulates_and_merges() {
        let mut l = CostLedger::new();
        l.record_api_call(TokenCount(100), TokenCount(20), Money::from_micros(120));
        l.record_labeling(10);
        assert_eq!(l.api_calls, 1);
        assert_eq!(l.pairs_labeled, 10);
        assert_eq!(l.labeling, Money::from_dollars(0.08));
        assert_eq!(
            l.total(),
            Money::from_micros(120) + Money::from_dollars(0.08)
        );

        let mut l2 = CostLedger::new();
        l2.record_api_call(TokenCount(1), TokenCount(1), Money::from_micros(2));
        l2.merge(&l);
        assert_eq!(l2.api_calls, 2);
        assert_eq!(l2.prompt_tokens, TokenCount(101));
    }

    #[test]
    fn shared_ledger_aggregates_across_threads() {
        let shared = SharedCostLedger::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let handle = shared.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        let mut batch = CostLedger::new();
                        batch.record_api_call(
                            TokenCount(10),
                            TokenCount(2),
                            Money::from_micros(12),
                        );
                        handle.merge(&batch);
                    }
                    let mut labels = CostLedger::new();
                    labels.record_labeling(1);
                    handle.merge(&labels);
                });
            }
        });
        let snap = shared.snapshot();
        assert_eq!(snap.api_calls, 800);
        assert_eq!(snap.prompt_tokens, TokenCount(8_000));
        assert_eq!(snap.api, Money::from_micros(9_600));
        assert_eq!(snap.pairs_labeled, 8);
        assert_eq!(shared.total(), snap.total());
    }

    #[test]
    fn shared_ledger_merges_detached_ledgers() {
        let shared = SharedCostLedger::new();
        let mut detached = CostLedger::new();
        detached.record_api_call(TokenCount(5), TokenCount(1), Money::from_micros(7));
        shared.merge(&detached);
        assert_eq!(shared.snapshot(), detached);
    }

    #[test]
    fn token_count_sums() {
        let total: TokenCount = [TokenCount(1), TokenCount(2), TokenCount(3)]
            .into_iter()
            .sum();
        assert_eq!(total, TokenCount(6));
        assert_eq!(total.to_string(), "6 tok");
    }
}
