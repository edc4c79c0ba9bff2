//! Covering-based demonstration selection (§V).
//!
//! Two NP-hard subproblems, both solved with the paper's greedy
//! Algorithm 1:
//!
//! 1. **Demonstration Set Generation** — pick a minimum set of
//!    demonstrations from the unlabeled pool covering *all* questions
//!    (unit weights; Hₖ-approximation).
//! 2. **Batch Covering** — per batch, pick a minimum-*token* subset of the
//!    generated demonstration set covering the batch's questions
//!    (token-count weights; ln|B| − ln ln|B| + Ω(1) approximation).
//!
//! "Demonstration `d` covers question `q`" means `dist(q, d) < t` in the
//! configured feature space.

/// Greedy weighted set cover (Algorithm 1).
///
/// `coverage[d]` lists the element ids covered by candidate `d` (ids are
/// arbitrary but must be `< n_elements`); `weight(d)` is the cost of
/// selecting `d`. Iteratively selects the candidate maximizing
/// `new_coverage / weight` until no candidate adds coverage — i.e. until
/// `f(D_s) = f(D)`, the achievable maximum (line 2 of Algorithm 1).
///
/// Returns selected candidate indices in selection order. Gains are
/// maintained **decrementally** through an inverted element → candidates
/// index (covering an element subtracts 1 from every candidate that also
/// covers it), so a lazy-heap pop checks staleness in O(1) instead of
/// rescanning the candidate's coverage list — the total gain-maintenance
/// work is one decrement per (element, covering candidate) pair.
pub fn greedy_weighted_cover<W>(n_elements: usize, coverage: &[Vec<u32>], weight: W) -> Vec<usize>
where
    W: Fn(usize) -> f64,
{
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// Max-heap entry ordered by gain ratio.
    struct Entry {
        ratio: f64,
        candidate: usize,
    }
    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.ratio == other.ratio
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            self.ratio.total_cmp(&other.ratio)
        }
    }

    // Inverted index (CSR): which candidates cover each element, in one
    // flat buffer — counting pass, prefix offsets, fill pass.
    let mut offsets = vec![0usize; n_elements + 1];
    for c in coverage {
        for &e in c {
            offsets[e as usize + 1] += 1;
        }
    }
    for e in 0..n_elements {
        offsets[e + 1] += offsets[e];
    }
    let mut covering = vec![0u32; offsets[n_elements]];
    let mut fill = offsets.clone();
    for (d, c) in coverage.iter().enumerate() {
        for &e in c {
            covering[fill[e as usize]] = d as u32;
            fill[e as usize] += 1;
        }
    }
    let mut gain: Vec<usize> = coverage.iter().map(Vec::len).collect();
    let mut covered = vec![false; n_elements];
    let mut selected = Vec::new();

    let ratio_of = |g: usize, d: usize| g as f64 / weight(d).max(f64::MIN_POSITIVE);
    let mut heap: BinaryHeap<Entry> = coverage
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.is_empty())
        .map(|(d, c)| Entry { ratio: ratio_of(c.len(), d), candidate: d })
        .collect();

    while let Some(top) = heap.pop() {
        let g = gain[top.candidate];
        if g == 0 {
            continue;
        }
        let fresh_ratio = ratio_of(g, top.candidate);
        // Gains only shrink, so a stale entry can only overestimate: the
        // popped entry is still the maximum if its fresh ratio matches
        // what was recorded or still beats the next-best entry.
        let is_fresh =
            fresh_ratio == top.ratio || heap.peek().is_none_or(|next| fresh_ratio >= next.ratio);
        if !is_fresh {
            heap.push(Entry { ratio: fresh_ratio, candidate: top.candidate });
            continue;
        }
        // Select, decrementing the gain of every candidate sharing a
        // newly covered element.
        for &e in &coverage[top.candidate] {
            let e = e as usize;
            if !covered[e] {
                covered[e] = true;
                for &d in &covering[offsets[e]..offsets[e + 1]] {
                    gain[d as usize] -= 1;
                }
            }
        }
        selected.push(top.candidate);
    }
    selected
}

/// Greedy **unit-weight** set cover: same selection rule as
/// [`greedy_weighted_cover`] with `weight ≡ 1`, but gains are integers,
/// so the lazy priority queue becomes a bucket array (gain → candidates)
/// with O(1) refile instead of a float heap — the shape phase 1 of the
/// covering strategy runs at scale.
pub fn greedy_unit_cover(n_elements: usize, coverage: &[Vec<u32>]) -> Vec<usize> {
    // Inverted CSR index, as in the weighted variant.
    let mut offsets = vec![0usize; n_elements + 1];
    for c in coverage {
        for &e in c {
            offsets[e as usize + 1] += 1;
        }
    }
    for e in 0..n_elements {
        offsets[e + 1] += offsets[e];
    }
    let mut covering = vec![0u32; offsets[n_elements]];
    let mut fill = offsets.clone();
    for (d, c) in coverage.iter().enumerate() {
        for &e in c {
            covering[fill[e as usize]] = d as u32;
            fill[e as usize] += 1;
        }
    }

    let mut gain: Vec<usize> = coverage.iter().map(Vec::len).collect();
    let max_gain = gain.iter().copied().max().unwrap_or(0);
    // Buckets hold lazily-filed candidates; a candidate's authoritative
    // gain lives in `gain[]`, and entries refile downward on pop.
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_gain + 1];
    for (d, &g) in gain.iter().enumerate() {
        if g > 0 {
            buckets[g].push(d as u32);
        }
    }
    let mut covered = vec![false; n_elements];
    let mut selected = Vec::new();
    let mut level = max_gain;
    while level > 0 {
        let Some(candidate) = buckets[level].pop() else {
            level -= 1;
            continue;
        };
        let d = candidate as usize;
        let g = gain[d];
        if g < level {
            // Stale entry: refile at its true gain (gains only shrink).
            if g > 0 {
                buckets[g].push(candidate);
            }
            continue;
        }
        // g == level: the maximum gain — select.
        for &e in &coverage[d] {
            let e = e as usize;
            if !covered[e] {
                covered[e] = true;
                for &other in &covering[offsets[e]..offsets[e + 1]] {
                    gain[other as usize] -= 1;
                }
            }
        }
        selected.push(d);
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_coverable_elements() {
        // 4 elements; candidate 0 covers {0,1}, 1 covers {1,2}, 2 covers {3}.
        let coverage = vec![vec![0, 1], vec![1, 2], vec![3]];
        let picked = greedy_weighted_cover(4, &coverage, |_| 1.0);
        let mut all: Vec<u32> = picked.iter().flat_map(|&d| coverage[d].clone()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all, vec![0, 1, 2, 3]);
        assert_eq!(picked.len(), 3);
    }

    #[test]
    fn prefers_high_coverage_candidates() {
        // Candidate 0 covers everything; greedy must pick only it.
        let coverage = vec![vec![0, 1, 2, 3], vec![0], vec![1], vec![2]];
        let picked = greedy_weighted_cover(4, &coverage, |_| 1.0);
        assert_eq!(picked, vec![0]);
    }

    #[test]
    fn weights_steer_selection() {
        // Both candidates cover both elements; candidate 1 is cheaper.
        let coverage = vec![vec![0, 1], vec![0, 1]];
        let picked = greedy_weighted_cover(2, &coverage, |d| if d == 0 { 10.0 } else { 1.0 });
        assert_eq!(picked, vec![1]);
    }

    #[test]
    fn stops_when_nothing_new_coverable() {
        // Element 2 is uncoverable: algorithm must terminate anyway.
        let coverage = vec![vec![0], vec![1], vec![]];
        let picked = greedy_weighted_cover(3, &coverage, |_| 1.0);
        assert_eq!(picked.len(), 2);
    }

    #[test]
    fn redundant_candidates_skipped() {
        // Candidate 1 covers a subset of candidate 0's coverage.
        let coverage = vec![vec![0, 1, 2], vec![1, 2]];
        let picked = greedy_weighted_cover(3, &coverage, |_| 1.0);
        assert_eq!(picked, vec![0]);
    }

    #[test]
    fn textbook_greedy_ratio_example() {
        // Classic weighted instance: {0,1,2} coverable by
        //   A = {0,1,2} at weight 3.1, B = {0,1} at weight 1, C = {2} at 1.
        // Greedy ratio picks B (2/1) then C (1/1): total weight 2 < 3.1.
        let coverage = vec![vec![0, 1, 2], vec![0, 1], vec![2]];
        let picked = greedy_weighted_cover(3, &coverage, |d| [3.1, 1.0, 1.0][d]);
        assert_eq!(picked, vec![1, 2]);
    }

    #[test]
    fn unit_cover_on_a_line() {
        // Phase 1 (§V-A): questions on a line at 0,1,...,9; pool demos at
        // 0.5, 5.5 and 20; "covers" is distance < 5. Demo 0 covers 0..=5,
        // demo 1 covers 1..=9: both needed; demo 2 covers nothing.
        let coverage = vec![(0..=5).collect(), (1..=9).collect(), vec![]];
        let mut picked = greedy_unit_cover(10, &coverage);
        picked.sort_unstable();
        assert_eq!(picked, vec![0, 1]);
    }

    #[test]
    fn token_weights_prefer_two_small_demos_to_one_huge() {
        // Phase 2 (§V-B): a batch of 2 questions. Demo 0 covers both but
        // is huge; demos 1 and 2 cover one each and are tiny. Greedy ratio
        // with token weights picks the two cheap ones (2/100 = 0.02 <
        // 1/2 = 0.5 each).
        let coverage = vec![vec![0, 1], vec![0], vec![1]];
        let mut picked = greedy_weighted_cover(2, &coverage, |d| [100.0, 2.0, 2.0][d]);
        picked.sort_unstable();
        assert_eq!(picked, vec![1, 2]);
    }

    #[test]
    fn empty_inputs() {
        assert!(greedy_weighted_cover(0, &[], |_| 1.0).is_empty());
        assert!(greedy_unit_cover(0, &[]).is_empty());
    }

    #[test]
    fn large_random_instance_fully_covered() {
        // Randomized-ish deterministic instance: 500 elements, 80
        // candidates with arithmetic-progression coverage.
        let n = 500usize;
        let coverage: Vec<Vec<u32>> = (1..=80usize)
            .map(|step| (0..n as u32).step_by(step).collect())
            .collect();
        let picked = greedy_weighted_cover(n, &coverage, |d| 1.0 + d as f64 * 0.01);
        let mut covered = vec![false; n];
        for &d in &picked {
            for &e in &coverage[d] {
                covered[e as usize] = true;
            }
        }
        assert!(covered.into_iter().all(|c| c), "instance not fully covered");
        // step=1 candidate covers everything; lazy greedy must find a
        // small solution (it should in fact pick exactly that one first).
        assert!(picked.len() <= 2, "picked {} candidates", picked.len());
    }
}
