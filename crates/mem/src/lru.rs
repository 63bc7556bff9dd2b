//! A small true-LRU recency stack over way indices.
//!
//! Shared by the cache models here and usable by TLB policies: position 0 is
//! the most recently used way, the last position is the LRU way.

/// True-LRU ordering over `ways` way indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LruStack {
    /// `order[0]` is the MRU way; `order[ways-1]` the LRU way.
    order: Vec<u8>,
}

impl LruStack {
    /// Creates a stack over `ways` ways, initially ordered `0..ways`
    /// (way 0 MRU).
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0` or `ways > 255`.
    pub fn new(ways: usize) -> Self {
        assert!(ways > 0 && ways <= 255, "ways must be in 1..=255");
        LruStack { order: (0..ways as u8).collect() }
    }

    /// Number of ways tracked.
    pub fn ways(&self) -> usize {
        self.order.len()
    }

    /// Marks `way` most recently used.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range.
    pub fn touch(&mut self, way: usize) {
        let pos = self.position(way);
        let w = self.order.remove(pos);
        self.order.insert(0, w);
    }

    /// The least recently used way.
    pub fn lru(&self) -> usize {
        *self.order.last().expect("non-empty by construction") as usize
    }

    /// The most recently used way.
    pub fn mru(&self) -> usize {
        self.order[0] as usize
    }

    /// Stack position of `way` (0 = MRU).
    ///
    /// # Panics
    ///
    /// Panics if `way` is not tracked.
    pub fn position(&self, way: usize) -> usize {
        self.order.iter().position(|&w| w as usize == way).expect("way out of range for LruStack")
    }

    /// Iterates ways from MRU to LRU.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.order.iter().map(|&w| w as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn initial_order() {
        let s = LruStack::new(4);
        assert_eq!(s.mru(), 0);
        assert_eq!(s.lru(), 3);
    }

    #[test]
    fn touch_moves_to_mru() {
        let mut s = LruStack::new(4);
        s.touch(2);
        assert_eq!(s.mru(), 2);
        assert_eq!(s.lru(), 3);
        s.touch(3);
        assert_eq!(s.mru(), 3);
        assert_eq!(s.lru(), 1);
    }

    #[test]
    fn lru_is_least_recently_touched() {
        let mut s = LruStack::new(3);
        s.touch(0);
        s.touch(1);
        s.touch(2);
        assert_eq!(s.lru(), 0);
    }

    #[test]
    #[should_panic(expected = "ways must be in 1..=255")]
    fn zero_ways_rejected() {
        let _ = LruStack::new(0);
    }

    proptest! {
        #[test]
        fn stays_a_permutation(ways in 1usize..16, touches in proptest::collection::vec(0usize..16, 0..64)) {
            let mut s = LruStack::new(ways);
            for t in touches {
                s.touch(t % ways);
            }
            let mut seen: Vec<usize> = s.iter().collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..ways).collect::<Vec<_>>());
        }

        #[test]
        fn touched_way_is_mru(ways in 1usize..16, way in 0usize..16) {
            let mut s = LruStack::new(ways);
            let way = way % ways;
            s.touch(way);
            prop_assert_eq!(s.mru(), way);
        }
    }
}
