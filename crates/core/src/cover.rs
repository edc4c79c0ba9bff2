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

/// One direction of a [`CoverTable`] in CSR form: row `i` is
/// `items[offsets[i]..offsets[i + 1]]` of one flat buffer, appended row by
/// row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows {
    offsets: Vec<usize>,
    items: Vec<u32>,
}

impl Default for Rows {
    fn default() -> Self {
        Self { offsets: vec![0], items: Vec::new() }
    }
}

impl Rows {
    /// No rows yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one row.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = u32>) {
        self.items.extend(row);
        self.offsets.push(self.items.len());
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when no row was pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.items[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The other direction: row `c` of the result lists, ascending, the
    /// rows of `self` that hold `c` — counting pass, prefix offsets, fill
    /// pass.
    ///
    /// # Panics
    /// Panics when an item is `>= n_cols`.
    fn transposed(&self, n_cols: usize) -> Rows {
        let mut offsets = vec![0usize; n_cols + 1];
        for &c in &self.items {
            offsets[c as usize + 1] += 1;
        }
        for c in 0..n_cols {
            offsets[c + 1] += offsets[c];
        }
        let mut items = vec![0u32; self.items.len()];
        let mut fill = offsets.clone();
        for r in 0..self.len() {
            for &c in self.row(r) {
                items[fill[c as usize]] = r as u32;
                fill[c as usize] += 1;
            }
        }
        Rows { offsets, items }
    }
}

/// Which candidates cover which elements, readable both ways as slices:
/// candidate → elements and element → candidates, two CSR halves built
/// once from whichever direction the caller's sweep produced. The greedy
/// covers read both (a selection walks the candidate's elements, each
/// newly covered element walks its candidates), so no consumer inverts
/// anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverTable {
    by_candidate: Rows,
    by_element: Rows,
}

impl CoverTable {
    /// From one row of element ids per candidate.
    ///
    /// # Panics
    /// Panics when an element id is `>= n_elements`.
    pub fn from_candidate_rows(by_candidate: Rows, n_elements: usize) -> Self {
        let by_element = by_candidate.transposed(n_elements);
        Self { by_candidate, by_element }
    }

    /// From one row of candidate ids per element.
    ///
    /// # Panics
    /// Panics when a candidate id is `>= n_candidates`.
    pub fn from_element_rows(by_element: Rows, n_candidates: usize) -> Self {
        let by_candidate = by_element.transposed(n_candidates);
        Self { by_candidate, by_element }
    }

    /// Number of candidates.
    pub fn n_candidates(&self) -> usize {
        self.by_candidate.len()
    }

    /// Number of elements.
    pub fn n_elements(&self) -> usize {
        self.by_element.len()
    }

    /// The elements candidate `c` covers.
    pub fn elements_of(&self, c: usize) -> &[u32] {
        self.by_candidate.row(c)
    }

    /// The candidates covering element `e`.
    pub fn candidates_of(&self, e: usize) -> &[u32] {
        self.by_element.row(e)
    }
}

/// Greedy weighted set cover (Algorithm 1).
///
/// `weight(c)` is the cost of selecting candidate `c` of `table`.
/// Iteratively selects the candidate maximizing `new_coverage / weight`
/// until no candidate adds coverage — i.e. until `f(D_s) = f(D)`, the
/// achievable maximum (line 2 of Algorithm 1).
///
/// Returns selected candidate indices in selection order. Gains are
/// maintained **decrementally** through the table's element → candidates
/// half (covering an element subtracts 1 from every candidate that also
/// covers it), so a lazy-heap pop checks staleness in O(1) instead of
/// rescanning the candidate's coverage list — the total gain-maintenance
/// work is one decrement per (element, covering candidate) pair.
pub fn greedy_weighted_cover<W>(table: &CoverTable, weight: W) -> Vec<usize>
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

    let mut gain: Vec<usize> = (0..table.n_candidates())
        .map(|c| table.elements_of(c).len())
        .collect();
    let mut covered = vec![false; table.n_elements()];
    let mut selected = Vec::new();

    let ratio_of = |g: usize, c: usize| g as f64 / weight(c).max(f64::MIN_POSITIVE);
    let mut heap: BinaryHeap<Entry> = gain
        .iter()
        .enumerate()
        .filter(|&(_, &g)| g > 0)
        .map(|(c, &g)| Entry { ratio: ratio_of(g, c), candidate: c })
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
        for &e in table.elements_of(top.candidate) {
            let e = e as usize;
            if !covered[e] {
                covered[e] = true;
                for &c in table.candidates_of(e) {
                    gain[c as usize] -= 1;
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
pub fn greedy_unit_cover(table: &CoverTable) -> Vec<usize> {
    let mut gain: Vec<usize> = (0..table.n_candidates())
        .map(|c| table.elements_of(c).len())
        .collect();
    let max_gain = gain.iter().copied().max().unwrap_or(0);
    // Buckets hold lazily-filed candidates; a candidate's authoritative
    // gain lives in `gain[]`, and entries refile downward on pop.
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_gain + 1];
    for (c, &g) in gain.iter().enumerate() {
        if g > 0 {
            buckets[g].push(c as u32);
        }
    }
    let mut covered = vec![false; table.n_elements()];
    let mut selected = Vec::new();
    let mut level = max_gain;
    while level > 0 {
        let Some(candidate) = buckets[level].pop() else {
            level -= 1;
            continue;
        };
        let c = candidate as usize;
        let g = gain[c];
        if g < level {
            // Stale entry: refile at its true gain (gains only shrink).
            if g > 0 {
                buckets[g].push(candidate);
            }
            continue;
        }
        // g == level: the maximum gain — select.
        for &e in table.elements_of(c) {
            let e = e as usize;
            if !covered[e] {
                covered[e] = true;
                for &other in table.candidates_of(e) {
                    gain[other as usize] -= 1;
                }
            }
        }
        selected.push(c);
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The `&[Vec<u32>]` forms the table replaced, kept as the reference
    /// the table forms must match pick for pick: ties break by heap and
    /// bucket mechanics, so only the same mechanics on the same gains
    /// reproduce a selection order.
    mod list_form {
        pub fn greedy_weighted_cover<W>(
            n_elements: usize,
            coverage: &[Vec<u32>],
            weight: W,
        ) -> Vec<usize>
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
                let is_fresh = fresh_ratio == top.ratio
                    || heap.peek().is_none_or(|next| fresh_ratio >= next.ratio);
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
    }

    fn table(n_elements: usize, coverage: &[Vec<u32>]) -> CoverTable {
        let mut rows = Rows::new();
        for list in coverage {
            rows.push_row(list.iter().copied());
        }
        CoverTable::from_candidate_rows(rows, n_elements)
    }

    /// Weighted cover on the table, asserted equal to the list form.
    fn weighted(n: usize, coverage: &[Vec<u32>], weight: impl Fn(usize) -> f64) -> Vec<usize> {
        let picked = greedy_weighted_cover(&table(n, coverage), &weight);
        assert_eq!(
            picked,
            list_form::greedy_weighted_cover(n, coverage, &weight)
        );
        picked
    }

    /// Unit cover on the table, asserted equal to the list form.
    fn unit(n: usize, coverage: &[Vec<u32>]) -> Vec<usize> {
        let picked = greedy_unit_cover(&table(n, coverage));
        assert_eq!(picked, list_form::greedy_unit_cover(n, coverage));
        picked
    }

    #[test]
    fn table_reads_both_ways() {
        let coverage = vec![vec![2, 0], vec![], vec![2, 2, 1]];
        let t = table(4, &coverage);
        assert_eq!((t.n_candidates(), t.n_elements()), (3, 4));
        for (c, list) in coverage.iter().enumerate() {
            assert_eq!(t.elements_of(c), list.as_slice());
        }
        // Ascending, a repeated entry repeated, an uncovered element empty.
        assert_eq!(t.candidates_of(0), [0]);
        assert_eq!(t.candidates_of(1), [2]);
        assert_eq!(t.candidates_of(2), [0, 2, 2]);
        assert!(t.candidates_of(3).is_empty());

        // Built from the other side it is the same table.
        let mut by_element = Rows::new();
        for e in 0..4 {
            by_element.push_row(t.candidates_of(e).iter().copied());
        }
        let back = CoverTable::from_element_rows(by_element, 3);
        for (c, list) in coverage.iter().enumerate() {
            let mut expect = list.clone();
            expect.sort_unstable();
            assert_eq!(back.elements_of(c), expect.as_slice());
        }
    }

    #[test]
    #[should_panic]
    fn table_rejects_an_element_out_of_range() {
        let _ = table(2, &[vec![0, 2]]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Same candidates in the same order as the list forms, on the
        /// shape `tests/proptests.rs::cover_correct` draws (repeats inside
        /// a list included) and on weights coarse enough to tie.
        #[test]
        fn table_forms_pick_what_the_list_forms_pick(
            coverage in prop::collection::vec(
                prop::collection::vec(0u32..40, 0..12),
                0..25,
            ),
            weights in prop::collection::vec(1u32..4, 25),
        ) {
            unit(40, &coverage);
            weighted(40, &coverage, |_| 1.0);
            weighted(40, &coverage, |c| f64::from(weights[c]));
        }
    }

    #[test]
    fn covers_all_coverable_elements() {
        // 4 elements; candidate 0 covers {0,1}, 1 covers {1,2}, 2 covers {3}.
        let coverage = vec![vec![0, 1], vec![1, 2], vec![3]];
        let picked = weighted(4, &coverage, |_| 1.0);
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
        let picked = weighted(4, &coverage, |_| 1.0);
        assert_eq!(picked, vec![0]);
    }

    #[test]
    fn weights_steer_selection() {
        // Both candidates cover both elements; candidate 1 is cheaper.
        let coverage = vec![vec![0, 1], vec![0, 1]];
        let picked = weighted(2, &coverage, |d| if d == 0 { 10.0 } else { 1.0 });
        assert_eq!(picked, vec![1]);
    }

    #[test]
    fn stops_when_nothing_new_coverable() {
        // Element 2 is uncoverable: algorithm must terminate anyway.
        let coverage = vec![vec![0], vec![1], vec![]];
        let picked = weighted(3, &coverage, |_| 1.0);
        assert_eq!(picked.len(), 2);
    }

    #[test]
    fn redundant_candidates_skipped() {
        // Candidate 1 covers a subset of candidate 0's coverage.
        let coverage = vec![vec![0, 1, 2], vec![1, 2]];
        let picked = weighted(3, &coverage, |_| 1.0);
        assert_eq!(picked, vec![0]);
    }

    #[test]
    fn textbook_greedy_ratio_example() {
        // Classic weighted instance: {0,1,2} coverable by
        //   A = {0,1,2} at weight 3.1, B = {0,1} at weight 1, C = {2} at 1.
        // Greedy ratio picks B (2/1) then C (1/1): total weight 2 < 3.1.
        let coverage = vec![vec![0, 1, 2], vec![0, 1], vec![2]];
        let picked = weighted(3, &coverage, |d| [3.1, 1.0, 1.0][d]);
        assert_eq!(picked, vec![1, 2]);
    }

    #[test]
    fn unit_cover_on_a_line() {
        // Phase 1 (§V-A): questions on a line at 0,1,...,9; pool demos at
        // 0.5, 5.5 and 20; "covers" is distance < 5. Demo 0 covers 0..=5,
        // demo 1 covers 1..=9: both needed; demo 2 covers nothing.
        let coverage = vec![(0..=5).collect(), (1..=9).collect(), vec![]];
        let mut picked = unit(10, &coverage);
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
        let mut picked = weighted(2, &coverage, |d| [100.0, 2.0, 2.0][d]);
        picked.sort_unstable();
        assert_eq!(picked, vec![1, 2]);
    }

    #[test]
    fn empty_inputs() {
        assert!(weighted(0, &[], |_| 1.0).is_empty());
        assert!(unit(0, &[]).is_empty());
    }

    #[test]
    fn large_random_instance_fully_covered() {
        // Randomized-ish deterministic instance: 500 elements, 80
        // candidates with arithmetic-progression coverage.
        let n = 500usize;
        let coverage: Vec<Vec<u32>> = (1..=80usize)
            .map(|step| (0..n as u32).step_by(step).collect())
            .collect();
        let picked = weighted(n, &coverage, |d| 1.0 + d as f64 * 0.01);
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
