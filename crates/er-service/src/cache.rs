//! The LLM answer cache: fingerprint → verdict, with hit/miss counters
//! and a bounded footprint.
//!
//! Repeated and symmetric questions are endemic in serving workloads
//! (retries, the same hot pair queried by many users, `(a,b)` vs
//! `(b,a)`), and every avoided LLM call is money saved — the cache is the
//! cheapest lever in the whole cost model. The service always runs it:
//! a repeat costs no call and no spend (`tests/er_service.rs` asks every
//! question three times and checks the last two passes are free).
//!
//! **Eviction** is exact LRU over a slab-backed intrusive list: every
//! `get` promotes its entry to the front, inserts past capacity evict
//! the back, and each eviction is counted (`er_cache_evictions_total`).
//! All operations are O(1); the capacity is a hard bound, not the
//! high-water mark the previous generational scheme allowed. Durable
//! replay fills through the same `insert`, so a recovered history larger
//! than the bound retains its most recent answers, exactly as the live
//! path would have.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use er_core::MatchLabel;
use obs::{Counter, Gauge};

use crate::fingerprint::PairFingerprint;
use crate::sync::lock;

/// Slab-list null: no neighbor / no entry.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node {
    fp: PairFingerprint,
    label: MatchLabel,
    prev: usize,
    next: usize,
}

#[derive(Debug, Default)]
struct LruState {
    map: HashMap<PairFingerprint, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// Most recently used.
    head: usize,
    /// Least recently used (the eviction end).
    tail: usize,
}

impl LruState {
    fn new() -> Self {
        Self { map: HashMap::new(), nodes: Vec::new(), free: Vec::new(), head: NIL, tail: NIL }
    }

    /// Unlinks `slot` from the recency list (it stays in the slab).
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    /// Links `slot` in as the most recently used entry.
    fn push_front(&mut self, slot: usize) {
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.nodes[h].prev = slot,
        }
        self.head = slot;
    }

    fn promote(&mut self, slot: usize) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }
}

/// Concurrent, capacity-bounded fingerprint-keyed answer store.
#[derive(Debug)]
pub struct AnswerCache {
    enabled: bool,
    /// Hard entry bound (LRU eviction past this).
    capacity: usize,
    state: Mutex<LruState>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    /// Live-entry mirror, maintained by add-deltas under the lock, so
    /// `/stats` and `/metrics` read a plain atomic.
    entries: Arc<Gauge>,
}

impl AnswerCache {
    /// A cache holding at most `capacity` entries (at least one). When
    /// `enabled` is false every lookup misses and inserts are dropped
    /// (the counters still run). The service always passes `true`; the
    /// flag stays only while the benchmark's cache drill passes it.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Self {
            enabled,
            capacity: capacity.max(1),
            state: Mutex::new(LruState::new()),
            hits: Counter::detached(),
            misses: Counter::detached(),
            evictions: Counter::detached(),
            entries: Gauge::detached(),
        }
    }

    /// Swaps in registry-backed metric handles: hit/miss/eviction
    /// counters and the live-entry gauge.
    pub fn with_metrics(
        mut self,
        hits: Arc<Counter>,
        misses: Arc<Counter>,
        entries: Arc<Gauge>,
        evictions: Arc<Counter>,
    ) -> Self {
        self.hits = hits;
        self.misses = misses;
        self.entries = entries;
        self.evictions = evictions;
        self
    }

    /// Looks up a fingerprint, counting the hit or miss. A hit promotes
    /// the entry to most-recently-used.
    pub fn get(&self, fp: PairFingerprint) -> Option<MatchLabel> {
        if !self.enabled {
            self.misses.inc();
            return None;
        }
        let found = {
            let mut state = lock(&self.state);
            match state.map.get(&fp).copied() {
                Some(slot) => {
                    state.promote(slot);
                    Some(state.nodes[slot].label)
                }
                None => None,
            }
        };
        match found {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        };
        found
    }

    /// Peeks without touching the counters or the recency order (used by
    /// the flush path to filter questions answered while they sat in the
    /// queue — a scan that must not perturb what stays resident).
    pub fn peek(&self, fp: PairFingerprint) -> Option<MatchLabel> {
        if !self.enabled {
            return None;
        }
        let state = lock(&self.state);
        state.map.get(&fp).map(|&slot| state.nodes[slot].label)
    }

    /// Stores a verdict, evicting the least recently used entry when the
    /// bound is reached. Re-inserting an existing fingerprint updates it
    /// in place (and promotes it).
    pub fn insert(&self, fp: PairFingerprint, label: MatchLabel) {
        if !self.enabled {
            return;
        }
        let mut state = lock(&self.state);
        if let Some(&slot) = state.map.get(&fp) {
            state.nodes[slot].label = label;
            state.promote(slot);
            return;
        }
        if state.map.len() >= self.capacity {
            let victim = state.tail;
            debug_assert_ne!(victim, NIL, "full cache must have a tail");
            state.unlink(victim);
            let old_fp = state.nodes[victim].fp;
            state.map.remove(&old_fp);
            state.free.push(victim);
            self.evictions.inc();
            self.entries.add(-1);
        }
        let slot = match state.free.pop() {
            Some(slot) => {
                state.nodes[slot] = Node { fp, label, prev: NIL, next: NIL };
                slot
            }
            None => {
                state.nodes.push(Node { fp, label, prev: NIL, next: NIL });
                state.nodes.len() - 1
            }
        };
        state.map.insert(fp, slot);
        state.push_front(slot);
        self.entries.add(1);
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries evicted by the LRU bound so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        lock(&self.state).map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: usize = 1024;

    #[test]
    fn hit_and_miss_counting() {
        let cache = AnswerCache::new(true, CAP);
        let fp = PairFingerprint(7);
        assert_eq!(cache.get(fp), None);
        cache.insert(fp, MatchLabel::Matching);
        assert_eq!(cache.get(fp), Some(MatchLabel::Matching));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let cache = AnswerCache::new(false, CAP);
        let fp = PairFingerprint(9);
        cache.insert(fp, MatchLabel::Matching);
        assert_eq!(cache.get(fp), None);
        assert_eq!(cache.misses(), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn peek_does_not_count() {
        let cache = AnswerCache::new(true, CAP);
        let fp = PairFingerprint(3);
        cache.insert(fp, MatchLabel::NonMatching);
        assert_eq!(cache.peek(fp), Some(MatchLabel::NonMatching));
        assert_eq!(cache.hits() + cache.misses(), 0);
    }

    #[test]
    fn capacity_is_a_hard_bound_and_recent_entries_survive() {
        let cache = AnswerCache::new(true, 100);
        // A stream of 10k unique fingerprints — far beyond capacity.
        for i in 0..10_000u64 {
            cache.insert(PairFingerprint(i), MatchLabel::from_bool(i % 2 == 0));
        }
        assert_eq!(cache.len(), 100, "LRU keeps exactly the bound");
        assert_eq!(cache.evictions(), 9_900);
        // The most recent 100 inserts are all still present.
        for i in 9_900..10_000u64 {
            assert!(cache.peek(PairFingerprint(i)).is_some(), "missing {i}");
        }
        // Ancient entries were evicted.
        assert_eq!(cache.peek(PairFingerprint(0)), None);
    }

    #[test]
    fn entries_survive_subsequent_inserts_within_capacity() {
        let cache = AnswerCache::new(true, 8);
        cache.insert(PairFingerprint(1), MatchLabel::Matching);
        for i in 2..=4u64 {
            cache.insert(PairFingerprint(i), MatchLabel::NonMatching);
        }
        // Under capacity nothing is evicted, ever.
        assert_eq!(cache.peek(PairFingerprint(1)), Some(MatchLabel::Matching));
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn get_promotes_against_eviction() {
        let cache = AnswerCache::new(true, 2);
        cache.insert(PairFingerprint(1), MatchLabel::Matching);
        cache.insert(PairFingerprint(2), MatchLabel::NonMatching);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(PairFingerprint(1)).is_some());
        cache.insert(PairFingerprint(3), MatchLabel::Matching);
        assert_eq!(cache.peek(PairFingerprint(1)), Some(MatchLabel::Matching));
        assert_eq!(cache.peek(PairFingerprint(2)), None);
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn reinsert_updates_in_place_without_eviction() {
        let cache = AnswerCache::new(true, 2);
        cache.insert(PairFingerprint(1), MatchLabel::Matching);
        cache.insert(PairFingerprint(2), MatchLabel::Matching);
        cache.insert(PairFingerprint(1), MatchLabel::NonMatching);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(
            cache.peek(PairFingerprint(1)),
            Some(MatchLabel::NonMatching)
        );
    }

    #[test]
    fn concurrent_access() {
        let cache = std::sync::Arc::new(AnswerCache::new(true, 1 << 20));
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..200 {
                        let fp = PairFingerprint(t * 1000 + i);
                        cache.insert(fp, MatchLabel::from_bool(i % 2 == 0));
                        assert!(cache.get(fp).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.len(), 1600);
        assert_eq!(cache.hits(), 1600);
    }
}
