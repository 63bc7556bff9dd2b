//! Flat true-LRU age tracking for many sets in one allocation.
//!
//! [`LruStack`](crate::LruStack) keeps one heap-allocated order vector per
//! set, so a set-associative structure with S sets pays S pointer chases
//! just to touch recency state. [`PackedLru`] stores the same information
//! as one contiguous `Vec<u8>` of per-way *ages* (0 = MRU, `ways-1` = LRU)
//! for all sets, so the hot `touch`/`lru` operations stay inside a single
//! cache line per set and the whole structure is one allocation.
//!
//! The recency semantics are bit-identical to a per-set `LruStack`: an
//! entry's age equals its stack position, `touch` moves it to age 0 and
//! increments exactly the entries that were younger, and the initial order
//! is way 0 MRU … way `ways-1` LRU. A proptest below drives both
//! structures with the same touch sequence and asserts the full
//! permutation matches at every step.

/// Per-set true-LRU ages for `sets × ways` entries in one flat array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedLru {
    /// `ages[set * ways + way]` is the stack position of `way` in `set`:
    /// 0 = MRU, `ways - 1` = LRU. Each set's slice is a permutation of
    /// `0..ways`.
    ages: Vec<u8>,
    ways: usize,
}

impl PackedLru {
    /// Creates ages for `sets` sets of `ways` ways, each initially ordered
    /// way 0 MRU … way `ways-1` LRU (matching [`crate::LruStack::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `sets == 0`, `ways == 0` or `ways > 255`.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0, "sets must be positive");
        assert!(ways > 0 && ways <= 255, "ways must be in 1..=255");
        let mut ages = Vec::with_capacity(sets * ways);
        for _ in 0..sets {
            ages.extend(0..ways as u8);
        }
        PackedLru { ages, ways }
    }

    /// Number of ways per set.
    #[inline]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Number of sets tracked.
    #[inline]
    pub fn sets(&self) -> usize {
        self.ages.len() / self.ways
    }

    #[inline]
    fn set_slice(&self, set: usize) -> &[u8] {
        &self.ages[set * self.ways..(set + 1) * self.ways]
    }

    /// Marks `way` most recently used in `set`.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    #[inline]
    pub fn touch(&mut self, set: usize, way: usize) {
        let base = set * self.ways;
        let slice = &mut self.ages[base..base + self.ways];
        let old = slice[way];
        for age in slice.iter_mut() {
            // Entries younger than the touched one age by a step; the rest
            // (older, or the touched way itself) keep their relative order.
            *age += u8::from(*age < old);
        }
        slice[way] = 0;
    }

    /// The least recently used way in `set`.
    #[inline]
    pub fn lru(&self, set: usize) -> usize {
        let oldest = self.ways as u8 - 1;
        self.set_slice(set)
            .iter()
            .position(|&a| a == oldest)
            .expect("ages form a permutation by construction")
    }

    /// The most recently used way in `set`.
    #[inline]
    pub fn mru(&self, set: usize) -> usize {
        self.set_slice(set)
            .iter()
            .position(|&a| a == 0)
            .expect("ages form a permutation by construction")
    }

    /// Stack position of `way` in `set` (0 = MRU).
    #[inline]
    pub fn position(&self, set: usize, way: usize) -> usize {
        self.set_slice(set)[way] as usize
    }

    /// Iterates `set`'s ways from MRU to LRU.
    pub fn iter(&self, set: usize) -> impl Iterator<Item = usize> + '_ {
        let slice = self.set_slice(set);
        (0..self.ways as u8)
            .map(move |age| slice.iter().position(|&a| a == age).expect("ages form a permutation"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LruStack;
    use proptest::prelude::*;

    #[test]
    fn initial_order_matches_lru_stack() {
        let p = PackedLru::new(3, 4);
        for set in 0..3 {
            assert_eq!(p.mru(set), 0);
            assert_eq!(p.lru(set), 3);
            assert_eq!(p.iter(set).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn touch_is_per_set() {
        let mut p = PackedLru::new(2, 4);
        p.touch(0, 2);
        assert_eq!(p.mru(0), 2);
        assert_eq!(p.lru(0), 3);
        assert_eq!(p.mru(1), 0, "set 1 untouched");
        p.touch(0, 3);
        assert_eq!(p.mru(0), 3);
        assert_eq!(p.lru(0), 1);
    }

    #[test]
    fn position_tracks_age() {
        let mut p = PackedLru::new(1, 3);
        p.touch(0, 1);
        assert_eq!(p.position(0, 1), 0);
        assert_eq!(p.position(0, 0), 1);
        assert_eq!(p.position(0, 2), 2);
    }

    #[test]
    #[should_panic(expected = "ways must be in 1..=255")]
    fn zero_ways_rejected() {
        let _ = PackedLru::new(1, 0);
    }

    proptest! {
        /// The equivalence that lets policies swap `Vec<LruStack>` for
        /// `PackedLru` without changing a single victim choice: driven by
        /// the same touch sequence, the full MRU→LRU permutation matches
        /// the reference `LruStack` at every step.
        #[test]
        fn matches_lru_stack_permutation(
            sets in 1usize..5,
            ways in 1usize..10,
            touches in proptest::collection::vec((0usize..5, 0usize..10), 0..128),
        ) {
            let mut packed = PackedLru::new(sets, ways);
            let mut stacks: Vec<LruStack> = (0..sets).map(|_| LruStack::new(ways)).collect();
            for (set, way) in touches {
                let (set, way) = (set % sets, way % ways);
                packed.touch(set, way);
                stacks[set].touch(way);
                for (s, stack) in stacks.iter().enumerate() {
                    prop_assert_eq!(
                        packed.iter(s).collect::<Vec<_>>(),
                        stack.iter().collect::<Vec<_>>(),
                        "set {} diverged", s
                    );
                    prop_assert_eq!(packed.lru(s), stack.lru());
                    prop_assert_eq!(packed.mru(s), stack.mru());
                }
            }
        }

        #[test]
        fn ages_stay_a_permutation(
            ways in 1usize..16,
            touches in proptest::collection::vec(0usize..16, 0..64),
        ) {
            let mut p = PackedLru::new(2, ways);
            for t in touches {
                p.touch(1, t % ways);
            }
            for set in 0..2 {
                let mut seen: Vec<usize> = (0..ways).map(|w| p.position(set, w)).collect();
                seen.sort_unstable();
                prop_assert_eq!(seen, (0..ways).collect::<Vec<_>>());
            }
        }
    }
}
