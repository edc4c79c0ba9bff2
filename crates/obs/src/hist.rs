//! Log-linear histograms: lock-free recording, mergeable snapshots,
//! quantile estimation.
//!
//! The bucket layout is **fixed and global** — every histogram shares the
//! same boundaries — so any two snapshots merge by element-wise addition,
//! which makes cross-instance aggregation and family merging the same
//! trivial operation.
//!
//! Layout: values 0–3 get exact buckets; from 4 up, every power-of-two
//! octave `[2^e, 2^(e+1))` splits into 4 equal sub-buckets. Relative
//! quantile error is therefore bounded at 12.5% while the whole `u64`
//! range fits in [`N_BUCKETS`] buckets. Boundaries are exact integers:
//! [`bucket_upper_bound`] is the largest value a bucket admits, and
//! `bucket_index` / `bucket_upper_bound` are inverse in the sense pinned
//! by the property tests (`v <= ub(idx(v))`, `ub(idx(v) - 1) < v`).
//!
//! Recording is a handful of relaxed atomics on one bucket array — no
//! locks, no allocation — so instrumented hot paths pay nanoseconds.
//! Scraping copies the buckets into a [`HistogramSnapshot`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power-of-two octave.
const SUBS: u64 = 4;

/// Total bucket count: 4 exact small-value buckets (0, 1, 2, 3) plus 4
/// sub-buckets for each octave `e` in `2..=63`.
pub const N_BUCKETS: usize = 4 + 62 * SUBS as usize;

/// The bucket a value lands in.
pub fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as u64; // floor(log2 v), >= 2
    let sub = (v - (1u64 << e)) >> (e - 2);
    (4 + (e - 2) * SUBS + sub) as usize
}

/// The largest value bucket `i` admits (inclusive). The last bucket's
/// bound is `u64::MAX`.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i < 4 {
        return i as u64;
    }
    let e = 2 + (i as u64 - 4) / SUBS;
    let sub = (i as u64 - 4) % SUBS;
    // 2^e + (sub+1) * 2^(e-2) - 1; for e = 63, sub = 3 this is u64::MAX.
    (1u64 << e)
        .wrapping_add((sub + 1) << (e - 2))
        .wrapping_sub(1)
}

/// One captured exemplar: the trace id of a real observation that landed
/// in a bucket, plus the observed value itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The trace id recorded alongside the observation (never 0).
    pub trace_id: u64,
    /// The observed value (always within the bucket's bounds).
    pub value: u64,
}

/// Per-bucket exemplar slot, last write wins. The value is stored before
/// the id; a racing reader can at worst pair the new id with the previous
/// observation's value, which still lies in the same bucket.
struct ExemplarSlot {
    trace_id: AtomicU64,
    value: AtomicU64,
}

/// A concurrent log-linear histogram. Created through
/// [`crate::registry::Registry`] for exposition, or
/// [`Histogram::detached`] for standalone measurement.
pub struct Histogram {
    counts: Box<[AtomicU64; N_BUCKETS]>,
    sum: AtomicU64,
    /// Exact extremes (the bucketed quantiles clamp to these).
    min: AtomicU64,
    max: AtomicU64,
    /// Per-bucket exemplar capture, armed at construction (`None` keeps
    /// the recording path allocation- and branch-light).
    exemplars: Option<Box<[ExemplarSlot]>>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::detached()
    }
}

impl Histogram {
    /// A standalone histogram not attached to any registry.
    pub fn detached() -> Self {
        Self::with_exemplars(false)
    }

    /// A histogram that captures per-bucket exemplars when `exemplars`.
    pub(crate) fn with_exemplars(exemplars: bool) -> Self {
        Self {
            counts: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            exemplars: exemplars.then(|| {
                (0..N_BUCKETS)
                    .map(|_| ExemplarSlot { trace_id: AtomicU64::new(0), value: AtomicU64::new(0) })
                    .collect()
            }),
        }
    }

    /// Records one observation. Lock-free.
    pub fn record(&self, v: u64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in microseconds.
    pub fn record_duration_us(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Records one observation and — when exemplar capture is armed and
    /// `trace_id` is nonzero — stamps it as the bucket's exemplar, last
    /// write winning. Without armed capture this is exactly [`record`].
    ///
    /// [`record`]: Histogram::record
    pub fn record_with_exemplar(&self, v: u64, trace_id: u64) {
        self.record(v);
        if let Some(slots) = &self.exemplars {
            if trace_id != 0 {
                let slot = &slots[bucket_index(v)];
                slot.value.store(v, Ordering::Relaxed);
                slot.trace_id.store(trace_id, Ordering::Release);
            }
        }
    }

    /// Records a [`std::time::Duration`] in microseconds with an
    /// exemplar trace id.
    pub fn record_duration_us_with_exemplar(&self, d: std::time::Duration, trace_id: u64) {
        self.record_with_exemplar(u64::try_from(d.as_micros()).unwrap_or(u64::MAX), trace_id);
    }

    /// The exemplar captured for bucket `i`, if capture is armed and a
    /// traced observation ever landed there.
    pub fn exemplar(&self, i: usize) -> Option<Exemplar> {
        let slots = self.exemplars.as_ref()?;
        let slot = slots.get(i)?;
        let trace_id = slot.trace_id.load(Ordering::Acquire);
        if trace_id == 0 {
            return None;
        }
        Some(Exemplar { trace_id, value: slot.value.load(Ordering::Relaxed) })
    }

    /// Starts a timer that records its elapsed microseconds on drop —
    /// handy for timing a scope with early returns.
    pub fn start_timer(&self) -> HistogramTimer<'_> {
        HistogramTimer { hist: self, started: std::time::Instant::now() }
    }

    /// A point-in-time snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        HistogramSnapshot {
            counts,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Records the elapsed time into its histogram when dropped.
#[derive(Debug)]
pub struct HistogramTimer<'a> {
    hist: &'a Histogram,
    started: std::time::Instant,
}

impl Drop for HistogramTimer<'_> {
    fn drop(&mut self) {
        self.hist.record_duration_us(self.started.elapsed());
    }
}

/// A folded histogram: plain numbers, mergeable with any other snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`N_BUCKETS`] entries).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping).
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self { counts: vec![0; N_BUCKETS], count: 0, sum: 0, min: 0, max: 0 }
    }
}

impl HistogramSnapshot {
    /// Merges another snapshot into this one. Associative and
    /// commutative (identical global bucket layout), with `min`/`max`
    /// combined so quantile clamping stays exact.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum = self.sum.wrapping_add(other.sum);
        if other.count > 0 {
            self.min = if self.count == 0 {
                other.min
            } else {
                self.min.min(other.min)
            };
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
    }

    /// The `q`-quantile (`q` in `[0, 1]`) as a bucket upper bound clamped
    /// to the exact observed extremes. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                // `min > max` marks a snapshot that raced the histogram's
                // first-ever `record` (sample counted, extremes not yet
                // published): `clamp` would panic on the scraping thread.
                let bound = bucket_upper_bound(i);
                if self.min > self.max {
                    return bound;
                }
                return bound.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_are_exact() {
        for v in (0u64..=4096).chain([u64::MAX, u64::MAX - 1, 1 << 40, (1 << 40) + 1]) {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "v={v} above its bucket bound");
            if i > 0 {
                assert!(
                    bucket_upper_bound(i - 1) < v,
                    "v={v} fits the previous bucket"
                );
            }
        }
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(N_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let h = Histogram::detached();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        let p50 = s.quantile(0.5);
        // 12.5% relative bucket error.
        assert!((440..=570).contains(&p50), "p50 = {p50}");
        let p99 = s.quantile(0.99);
        assert!((980..=1000).contains(&p99), "p99 = {p99}");
        assert_eq!(s.quantile(1.0), 1000);
        assert_eq!(s.quantile(0.0), 1);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = Histogram::detached().snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0);
    }

    /// `record` publishes a sample's count before its extremes, so a
    /// snapshot racing a histogram's first-ever sample can hold
    /// `count == 1` with the initial `min == u64::MAX`, `max == 0`. A
    /// quantile of that snapshot must be the bucket bound, not a panic
    /// on whichever thread was scraping.
    #[test]
    fn quantile_survives_a_snapshot_that_raced_the_first_record() {
        let mut raced =
            HistogramSnapshot { count: 1, sum: 100, min: u64::MAX, ..Default::default() };
        raced.counts[bucket_index(100)] = 1;
        assert_eq!(raced.quantile(0.5), bucket_upper_bound(bucket_index(100)));
        assert_eq!(raced.quantile(0.99), bucket_upper_bound(bucket_index(100)));
    }

    #[test]
    fn concurrent_recording_conserves_count() {
        let h = std::sync::Arc::new(Histogram::detached());
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 8000);
        assert_eq!(s.sum, (0..8000u64).sum::<u64>());
        assert_eq!(s.max, 7999);
        assert_eq!(s.min, 0);
    }

    #[test]
    fn exemplars_capture_last_traced_observation_per_bucket() {
        let h = Histogram::with_exemplars(true);
        h.record_with_exemplar(1000, 7);
        h.record_with_exemplar(1010, 8); // same bucket: last write wins
        h.record_with_exemplar(5, 9);
        h.record_with_exemplar(3, 0); // zero trace id: counted, no exemplar
        h.record(2_000_000); // untraced: counted, no exemplar

        let ex = h.exemplar(bucket_index(1010)).unwrap();
        assert_eq!((ex.trace_id, ex.value), (8, 1010));
        let ex = h.exemplar(bucket_index(5)).unwrap();
        assert_eq!((ex.trace_id, ex.value), (9, 5));
        assert!(h.exemplar(bucket_index(3)).is_none());
        assert!(h.exemplar(bucket_index(2_000_000)).is_none());
        assert_eq!(h.snapshot().count, 5);

        // Unarmed histograms record normally and expose nothing.
        let plain = Histogram::detached();
        plain.record_with_exemplar(1000, 7);
        assert!(plain.exemplar(bucket_index(1000)).is_none());
        assert_eq!(plain.snapshot().count, 1);
    }

    #[test]
    fn merge_equals_concatenation() {
        let a = Histogram::detached();
        let b = Histogram::detached();
        let both = Histogram::detached();
        for v in [3u64, 17, 900, 4096] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 2, 1 << 30] {
            b.record(v);
            both.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot());
    }
}
