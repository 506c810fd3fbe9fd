//! Pluggable priority-queue frontiers for the hypergraph Dijkstra kernel.
//!
//! Algorithm 2 spends ~99.6% of its wall-clock growing shortest-path trees,
//! and the queue discipline of that Dijkstra is the single hottest data
//! structure in the repository. This module abstracts it behind the
//! monomorphised [`Frontier`] trait so the grow loop can be compiled once
//! per implementation with zero dynamic dispatch, and adds a bucket/dial
//! queue ([`DialQueue`]) for the *quantized-length regime* the exponential
//! re-pricing `d(e) = exp(α·f/c) − 1` produces: early rounds price every
//! net almost identically, so keys cluster into a handful of narrow bands
//! where a bucket array beats a comparison heap.
//!
//! Every implementation must realise the **same strict total order**
//! `(key, id)` that [`IndexedMinHeap`] defines — ties broken by ascending
//! id — so swapping frontiers can never change a settle order. The
//! differential kernel-equivalence suite in `htp-core` pins this contract.
//!
//! [`dial_plan`] is the quantization probe: given a length spectrum it
//! decides whether a dial queue is worth it and, if so, with what bucket
//! width and count.

use crate::heap::IndexedMinHeap;

/// A monomorphised min-frontier over dense `usize` ids with `f64` keys.
///
/// The contract is exactly [`IndexedMinHeap`]'s:
///
/// * each id holds at most one entry;
/// * [`push_or_decrease`](Frontier::push_or_decrease) inserts or improves
///   and returns `true`, and silently ignores equal or larger keys
///   (returning `false`);
/// * [`pop`](Frontier::pop) removes the minimum under the strict total
///   order `(key, id)` — equal keys pop in ascending id order.
///
/// Implementations may differ in complexity, never in observable order.
pub trait Frontier {
    /// Inserts `id` with `key`, or decreases its key if already present and
    /// `key` is smaller. Returns `true` if the entry was inserted or
    /// improved.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of capacity or `key` is NaN.
    fn push_or_decrease(&mut self, id: usize, key: f64) -> bool;

    /// Removes and returns the entry with the smallest `(key, id)`.
    fn pop(&mut self) -> Option<(usize, f64)>;

    /// Removes every entry, keeping allocations.
    fn clear(&mut self);

    /// Number of entries currently queued.
    fn len(&self) -> usize;

    /// Returns `true` if no entries are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Frontier for IndexedMinHeap {
    #[inline]
    fn push_or_decrease(&mut self, id: usize, key: f64) -> bool {
        IndexedMinHeap::push_or_decrease(self, id, key)
    }

    #[inline]
    fn pop(&mut self) -> Option<(usize, f64)> {
        IndexedMinHeap::pop(self)
    }

    fn clear(&mut self) {
        IndexedMinHeap::clear(self);
    }

    fn len(&self) -> usize {
        IndexedMinHeap::len(self)
    }
}

/// Id is not queued anywhere.
const ABSENT: u32 = u32::MAX;
/// Id lives in the overflow bucket.
const OVERFLOW_SLOT: u32 = u32::MAX - 1;
/// No bucket is currently activated (sorted).
const NO_ACTIVE: u64 = u64::MAX;

/// A bucket/dial priority queue with an overflow bucket, exactly matching
/// [`IndexedMinHeap`]'s pop order.
///
/// Keys are mapped to *absolute* bucket indices by `⌊key / width⌋`; the
/// map is monotone, so the global minimum always lives in the lowest
/// non-empty bucket. A circular window of `buckets` main buckets starts at
/// the cursor `low`; keys beyond the window land in a single overflow
/// bucket and are migrated (or the window is rebased) when the cursor
/// catches up — so the queue is *correct for any input*, merely fastest
/// when the live key span fits the window.
///
/// Within a bucket the exact `(key, id)` order is preserved by
/// *sort-on-activation*: when the cursor first reaches a bucket its
/// contents are sorted descending, so each pop takes the minimum from the
/// back in `O(1)`. Any mutation of the activated bucket (an insert or
/// removal landing in it) simply de-activates it; the next pop re-sorts.
/// In the monotone Dijkstra regime with strictly positive lengths and
/// `width` = the minimum length, no relaxation can land in the activated
/// bucket, so the re-sort path never runs on the hot path.
///
/// For Dijkstra with maximum edge length `L`, all live keys span at most
/// `L`, so `buckets >= ⌈L / width⌉ + 2` guarantees the overflow bucket is
/// never used ([`dial_plan`] sizes the window exactly this way).
#[derive(Clone, Debug)]
pub struct DialQueue {
    /// `1 / width`; multiplying is cheaper than dividing per op.
    width_recip: f64,
    /// Number of main buckets in the circular window (logical; the
    /// `buckets` vec only ever grows so reconfiguration keeps capacity).
    nb: u64,
    /// Absolute index of the cursor bucket (window start).
    low: u64,
    /// Absolute index of the currently sorted bucket, or [`NO_ACTIVE`].
    active: u64,
    /// Main buckets; bucket for absolute index `a` is `a % nb`.
    buckets: Vec<Vec<u32>>,
    /// Entries beyond the window.
    overflow: Vec<u32>,
    /// Lower bound on the minimum absolute bucket index in `overflow`
    /// (exact after a migration; removals can only make it conservative).
    over_low: u64,
    /// Entries currently in main buckets.
    in_main: usize,
    /// Current key per id (meaningful only while queued).
    key: Vec<f64>,
    /// [`ABSENT`], [`OVERFLOW_SLOT`], or the main bucket index.
    slot: Vec<u32>,
    /// Position within the bucket/overflow vec.
    pos: Vec<u32>,
    /// Reused by the (cold) full-rebase path.
    rebase_tmp: Vec<u32>,
}

impl DialQueue {
    /// Creates a queue for ids `0..capacity` with the given bucket `width`
    /// and `buckets` main buckets.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not positive and finite or `buckets` is zero.
    pub fn new(capacity: usize, width: f64, buckets: usize) -> Self {
        assert!(
            width > 0.0 && width.is_finite(),
            "dial bucket width must be positive and finite"
        );
        assert!(buckets > 0, "dial queue needs at least one bucket");
        DialQueue {
            width_recip: width.recip(),
            nb: buckets as u64,
            low: 0,
            active: NO_ACTIVE,
            buckets: vec![Vec::new(); buckets],
            overflow: Vec::new(),
            over_low: u64::MAX,
            in_main: 0,
            key: vec![f64::INFINITY; capacity],
            slot: vec![ABSENT; capacity],
            pos: vec![0; capacity],
            rebase_tmp: Vec::new(),
        }
    }

    /// Re-parameterises the (emptied) queue for a new length spectrum,
    /// keeping every allocation. The bucket array only ever grows, so a
    /// worker reconfiguring per round re-uses its buckets across rounds.
    ///
    /// # Panics
    ///
    /// As [`DialQueue::new`].
    pub fn reconfigure(&mut self, width: f64, buckets: usize) {
        assert!(
            width > 0.0 && width.is_finite(),
            "dial bucket width must be positive and finite"
        );
        assert!(buckets > 0, "dial queue needs at least one bucket");
        self.clear();
        self.width_recip = width.recip();
        if buckets > self.buckets.len() {
            self.buckets.resize_with(buckets, Vec::new);
        }
        self.nb = buckets as u64;
    }

    /// Absolute bucket index of a key. Monotone non-decreasing in the key
    /// (the only property pop-order exactness needs); saturates for huge
    /// keys, which the overflow bucket absorbs.
    #[inline]
    fn abs_of(&self, key: f64) -> u64 {
        (key * self.width_recip) as u64 // saturating float→int cast
    }

    /// Returns `true` if `id` is currently queued.
    pub fn contains(&self, id: usize) -> bool {
        self.slot[id] != ABSENT
    }

    /// Current key of `id`, if queued.
    pub fn key(&self, id: usize) -> Option<f64> {
        self.contains(id).then(|| self.key[id])
    }

    /// Files `id` (whose `key` is already stored) into the window or the
    /// overflow bucket. The caller maintains `low` so that `abs >= low`.
    fn file(&mut self, id: u32) {
        let abs = self.abs_of(self.key[id as usize]);
        debug_assert!(abs >= self.low);
        if abs < self.low.saturating_add(self.nb) {
            if abs == self.active {
                self.active = NO_ACTIVE;
            }
            let b = (abs % self.nb) as usize;
            self.slot[id as usize] = b as u32;
            self.pos[id as usize] = self.buckets[b].len() as u32;
            self.buckets[b].push(id);
            self.in_main += 1;
        } else {
            self.slot[id as usize] = OVERFLOW_SLOT;
            self.pos[id as usize] = self.overflow.len() as u32;
            self.overflow.push(id);
            self.over_low = self.over_low.min(abs);
        }
    }

    /// Inserts an absent id, lowering the window first if its key falls
    /// below the cursor (cold path: never taken by a monotone Dijkstra).
    fn insert(&mut self, id: usize, key: f64) {
        self.key[id] = key;
        let abs = self.abs_of(key);
        if self.len() == 0 {
            self.low = abs;
            self.active = NO_ACTIVE;
        } else if abs < self.low {
            self.rebase(abs);
        }
        self.file(id as u32);
    }

    /// Removes a queued id from whichever bucket holds it.
    fn remove(&mut self, id: usize) {
        let s = self.slot[id];
        let p = self.pos[id] as usize;
        self.slot[id] = ABSENT;
        if s == OVERFLOW_SLOT {
            self.overflow.swap_remove(p);
            if let Some(&moved) = self.overflow.get(p) {
                self.pos[moved as usize] = p as u32;
            }
            // `over_low` may now over-approximate; it stays a lower bound.
        } else {
            if self.abs_of(self.key[id]) == self.active {
                self.active = NO_ACTIVE;
            }
            let b = s as usize;
            self.buckets[b].swap_remove(p);
            if let Some(&moved) = self.buckets[b].get(p) {
                self.pos[moved as usize] = p as u32;
            }
            self.in_main -= 1;
        }
    }

    /// Moves the window start down to `new_low`, re-filing every entry.
    /// `O(n + buckets)`; only reachable through non-monotone use.
    fn rebase(&mut self, new_low: u64) {
        let mut tmp = std::mem::take(&mut self.rebase_tmp);
        tmp.clear();
        for b in &mut self.buckets {
            tmp.append(b);
        }
        tmp.append(&mut self.overflow);
        self.in_main = 0;
        self.over_low = u64::MAX;
        self.active = NO_ACTIVE;
        self.low = new_low;
        for &id in &tmp {
            self.file(id);
        }
        self.rebase_tmp = tmp;
    }

    /// Pulls every overflow entry that now fits the window into its main
    /// bucket and recomputes `over_low` exactly.
    fn migrate(&mut self) {
        let hi = self.low.saturating_add(self.nb);
        self.over_low = u64::MAX;
        let mut i = 0;
        while i < self.overflow.len() {
            let id = self.overflow[i];
            let abs = self.abs_of(self.key[id as usize]);
            if abs < hi {
                self.overflow.swap_remove(i);
                if let Some(&moved) = self.overflow.get(i) {
                    self.pos[moved as usize] = i as u32;
                }
                if abs == self.active {
                    self.active = NO_ACTIVE;
                }
                let b = (abs % self.nb) as usize;
                self.slot[id as usize] = b as u32;
                self.pos[id as usize] = self.buckets[b].len() as u32;
                self.buckets[b].push(id);
                self.in_main += 1;
            } else {
                self.over_low = self.over_low.min(abs);
                i += 1;
            }
        }
    }
}

impl Frontier for DialQueue {
    fn push_or_decrease(&mut self, id: usize, key: f64) -> bool {
        assert!(!key.is_nan(), "frontier keys must not be NaN");
        if self.slot[id] != ABSENT {
            if key < self.key[id] {
                self.remove(id);
                self.insert(id, key);
                true
            } else {
                false
            }
        } else {
            self.insert(id, key);
            true
        }
    }

    fn pop(&mut self) -> Option<(usize, f64)> {
        if self.len() == 0 {
            return None;
        }
        loop {
            if self.in_main == 0 {
                // Window exhausted: rebase it onto the overflow minimum.
                let new_low = self
                    .overflow
                    .iter()
                    .map(|&id| self.abs_of(self.key[id as usize]))
                    .min()
                    .expect("non-empty queue with an empty window");
                self.rebase(new_low);
                continue;
            }
            // First non-empty bucket of the window; `in_main > 0` bounds
            // the walk to one lap.
            let mut a = self.low;
            while self.buckets[(a % self.nb) as usize].is_empty() {
                a += 1;
            }
            if self.over_low <= a {
                // An overflow entry may precede this bucket: migrate and
                // rescan (the recomputed `over_low` guarantees progress).
                self.migrate();
                continue;
            }
            self.low = a;
            let b = (a % self.nb) as usize;
            if self.active != a {
                // Activate: sort descending by (key, id) so the minimum
                // pops from the back.
                let key = &self.key;
                self.buckets[b].sort_unstable_by(|&x, &y| {
                    key[y as usize]
                        .partial_cmp(&key[x as usize])
                        .expect("keys are not NaN")
                        .then(y.cmp(&x))
                });
                for (i, &id) in self.buckets[b].iter().enumerate() {
                    self.pos[id as usize] = i as u32;
                }
                self.active = a;
            }
            let id = self.buckets[b].pop().expect("bucket checked non-empty");
            self.slot[id as usize] = ABSENT;
            self.in_main -= 1;
            return Some((id as usize, self.key[id as usize]));
        }
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            for &id in b.iter() {
                self.slot[id as usize] = ABSENT;
            }
            b.clear();
        }
        for &id in &self.overflow {
            self.slot[id as usize] = ABSENT;
        }
        self.overflow.clear();
        self.in_main = 0;
        self.over_low = u64::MAX;
        self.active = NO_ACTIVE;
        self.low = 0;
    }

    fn len(&self) -> usize {
        self.in_main + self.overflow.len()
    }
}

/// The quantization probe: decides whether a length spectrum suits a dial
/// queue, and with what geometry.
///
/// The bucket width is the smallest positive length; a Dijkstra over
/// lengths bounded by `max` then keeps all live keys within a span of
/// `max`, so `⌈max / width⌉ + 2` buckets guarantee the overflow bucket is
/// never touched. Returns `Some((width, buckets))` when that window fits
/// `max_buckets` — the quantized regime where the dial wins — and `None`
/// for wide spectra, where a comparison heap is the better frontier.
///
/// An all-zero (or empty) spectrum degenerates to a single bucket and is
/// always accepted. The decision is a pure function of the lengths, so it
/// is deterministic and thread-invariant.
pub fn dial_plan(lengths: &[f64], max_buckets: usize) -> Option<(f64, usize)> {
    let (width, need) = dial_geometry(lengths)?;
    (need <= max_buckets).then_some((width, need))
}

/// [`dial_plan`] without the regime test: always returns a geometry, with
/// the bucket count clamped to `max_buckets` (the overflow bucket absorbs
/// the rest). Used when the dial queue is force-enabled.
pub fn dial_plan_forced(lengths: &[f64], max_buckets: usize) -> (f64, usize) {
    match dial_geometry(lengths) {
        Some((width, need)) => (width, need.min(max_buckets.max(1))),
        None => (1.0, 1),
    }
}

/// Width and ideal bucket count for a spectrum; `None` only when the
/// spread is too wide to even size (`max / min` overflows `usize`).
fn dial_geometry(lengths: &[f64]) -> Option<(f64, usize)> {
    let mut min_pos = f64::INFINITY;
    let mut max = 0.0f64;
    for &d in lengths {
        debug_assert!(d >= 0.0 && !d.is_nan(), "lengths must be non-negative");
        if d > 0.0 && d < min_pos {
            min_pos = d;
        }
        if d > max {
            max = d;
        }
    }
    if max == 0.0 {
        // Every length is zero: all keys equal the source key.
        return Some((1.0, 1));
    }
    let span = (max / min_pos).ceil();
    if !(span.is_finite() && span < (usize::MAX - 2) as f64) {
        return None;
    }
    Some((min_pos, span as usize + 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Drains both queues in lockstep, asserting identical pops.
    fn assert_drain_equal(dial: &mut DialQueue, heap: &mut IndexedMinHeap) {
        loop {
            let (a, b) = (dial.pop(), heap.pop());
            assert_eq!(a, b, "dial and heap disagreed");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pops_in_key_then_id_order() {
        let mut q = DialQueue::new(6, 1.0, 4);
        q.push_or_decrease(3, 2.5);
        q.push_or_decrease(1, 2.5);
        q.push_or_decrease(0, 7.0);
        q.push_or_decrease(5, 0.25);
        assert_eq!(q.pop(), Some((5, 0.25)));
        assert_eq!(q.pop(), Some((1, 2.5)));
        assert_eq!(q.pop(), Some((3, 2.5)));
        assert_eq!(q.pop(), Some((0, 7.0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn decrease_and_equal_and_increase_match_heap_semantics() {
        let mut q = DialQueue::new(3, 0.5, 8);
        assert!(q.push_or_decrease(0, 3.0));
        assert!(q.push_or_decrease(0, 1.0), "decrease improves");
        assert!(!q.push_or_decrease(0, 1.0), "equal key is a no-op");
        assert!(!q.push_or_decrease(0, 9.0), "increase is ignored");
        assert_eq!(q.key(0), Some(1.0));
        assert_eq!(q.pop(), Some((0, 1.0)));
        assert!(!q.contains(0));
    }

    #[test]
    fn overflow_bucket_round_trips_keys_beyond_the_window() {
        // Window covers [0, 4·1.0); keys straddling the boundary and far
        // beyond it must still pop in exact order (the overflow path).
        let mut q = DialQueue::new(8, 1.0, 4);
        let keys = [0.5, 3.9, 4.0, 4.1, 17.0, 100.0, 3.999, 64.0];
        for (id, &k) in keys.iter().enumerate() {
            q.push_or_decrease(id, k);
        }
        let mut expected: Vec<(usize, f64)> = keys.iter().copied().enumerate().collect();
        expected.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        let got: Vec<(usize, f64)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn bucket_width_boundary_keys_stay_ordered() {
        // Keys exactly on multiples of the width land in adjacent buckets;
        // keys epsilon below must pop first. Regression for the boundary
        // behavior pinned by ISSUE 9.
        let mut q = DialQueue::new(6, 2.0, 3);
        q.push_or_decrease(0, 2.0); // bucket 1
        q.push_or_decrease(1, 2.0 - 1e-9); // bucket 0
        q.push_or_decrease(2, 4.0); // bucket 2
        q.push_or_decrease(3, 4.0 - 1e-9); // bucket 1
        q.push_or_decrease(4, 6.0); // overflow (window is [0, 6))
        assert_eq!(q.pop(), Some((1, 2.0 - 1e-9)));
        assert_eq!(q.pop(), Some((0, 2.0)));
        assert_eq!(q.pop(), Some((3, 4.0 - 1e-9)));
        assert_eq!(q.pop(), Some((2, 4.0)));
        assert_eq!(q.pop(), Some((4, 6.0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_below_the_cursor_rebases_the_window() {
        let mut q = DialQueue::new(4, 1.0, 2);
        q.push_or_decrease(0, 10.0);
        q.push_or_decrease(1, 11.5);
        assert_eq!(q.pop(), Some((0, 10.0)));
        // Non-monotone: a key far below the cursor.
        q.push_or_decrease(2, 0.5);
        q.push_or_decrease(3, 20.0);
        assert_eq!(q.pop(), Some((2, 0.5)));
        assert_eq!(q.pop(), Some((1, 11.5)));
        assert_eq!(q.pop(), Some((3, 20.0)));
    }

    #[test]
    fn clear_resets_membership_and_reconfigure_keeps_allocations() {
        let mut q = DialQueue::new(4, 1.0, 4);
        q.push_or_decrease(0, 1.0);
        q.push_or_decrease(1, 99.0); // overflow
        q.clear();
        assert!(q.is_empty());
        assert!(!q.contains(0) && !q.contains(1));
        q.reconfigure(0.25, 16);
        q.push_or_decrease(0, 2.0);
        assert_eq!(q.pop(), Some((0, 2.0)));
    }

    #[test]
    fn mutating_the_activated_bucket_keeps_exact_order() {
        // Activate a bucket by popping from it, then decrease another
        // entry into that same bucket: the de-activation path must re-sort.
        let mut q = DialQueue::new(5, 1.0, 8);
        q.push_or_decrease(4, 0.2);
        q.push_or_decrease(2, 0.9);
        q.push_or_decrease(3, 5.0);
        assert_eq!(q.pop(), Some((4, 0.2))); // bucket 0 is now active
        q.push_or_decrease(3, 0.5); // decrease lands in the active bucket
        q.push_or_decrease(1, 0.5); // insert lands in the active bucket
        assert_eq!(q.pop(), Some((1, 0.5)));
        assert_eq!(q.pop(), Some((3, 0.5)));
        assert_eq!(q.pop(), Some((2, 0.9)));
    }

    #[test]
    fn dial_plan_accepts_quantized_and_rejects_wide_spectra() {
        // Uniform lengths: one band, tiny window.
        assert_eq!(dial_plan(&[0.5, 0.5, 0.5], 4096), Some((0.5, 3)));
        // Ratio 8 fits easily.
        assert_eq!(dial_plan(&[1.0, 8.0], 4096), Some((1.0, 10)));
        // Ratio 1e9 does not.
        assert_eq!(dial_plan(&[1e-6, 1e3], 4096), None);
        // Zeros are ignored for the width but allowed.
        assert_eq!(dial_plan(&[0.0, 2.0, 4.0], 4096), Some((2.0, 4)));
        // All-zero degenerates to one bucket.
        assert_eq!(dial_plan(&[0.0, 0.0], 4096), Some((1.0, 1)));
        // Forced planning clamps instead of refusing.
        assert_eq!(dial_plan_forced(&[1e-6, 1e3], 64), (1e-6, 64));
    }

    proptest! {
        /// Random interleaved push/decrease/pop sequences agree with the
        /// heap oracle op for op — including tie-breaks and the overflow
        /// path (tiny windows force constant overflow traffic).
        #[test]
        fn matches_heap_oracle_on_random_sequences(
            ops in proptest::collection::vec((0usize..24, 0.0f64..64.0, 0u8..2), 1..200),
            width in 0.25f64..4.0,
            nb in 1usize..12,
        ) {
            let mut dial = DialQueue::new(24, width, nb);
            let mut heap = IndexedMinHeap::new(24);
            for (id, key, do_pop) in ops {
                if do_pop == 1 {
                    prop_assert_eq!(dial.pop(), heap.pop());
                } else {
                    let a = dial.push_or_decrease(id, key);
                    let b = heap.push_or_decrease(id, key);
                    prop_assert_eq!(a, b, "push_or_decrease({}, {}) return", id, key);
                }
                prop_assert_eq!(dial.len(), heap.len());
            }
            assert_drain_equal(&mut dial, &mut heap);
        }

        /// Monotone (Dijkstra-like) workloads with quantized keys — the
        /// dial's home regime — also agree exactly, across reuse via
        /// clear().
        #[test]
        fn matches_heap_oracle_on_monotone_quantized_runs(
            lens in proptest::collection::vec(1u8..5, 1..40),
            seed_key in 0u8..3,
        ) {
            let mut dial = DialQueue::new(64, 1.0, 8);
            let mut heap = IndexedMinHeap::new(64);
            for round in 0..2 {
                dial.clear();
                heap.clear();
                let mut base = f64::from(seed_key);
                dial.push_or_decrease(0, base);
                heap.push_or_decrease(0, base);
                for (i, &l) in lens.iter().enumerate() {
                    let (a, b) = (dial.pop(), heap.pop());
                    prop_assert_eq!(a, b, "round {}", round);
                    if let Some((_, k)) = a { base = k; }
                    let cand = base + f64::from(l);
                    let id = (i + 1) % 64;
                    prop_assert_eq!(
                        dial.push_or_decrease(id, cand),
                        heap.push_or_decrease(id, cand)
                    );
                }
                assert_drain_equal(&mut dial, &mut heap);
            }
        }
    }
}
