//! The CHiRP prediction table: one array of saturating counters (§IV-C).
//!
//! CHiRP deliberately uses a *single* table — unlike GHRP's three — because
//! the shift-and-scale signature converges with 3× fewer entries (§III-B,
//! §VI-H). Every read and write is counted for the Figure 11 access-rate
//! analysis.

/// A table of saturating counters with access accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictionTable {
    counters: Vec<u8>,
    max: u8,
    accesses: u64,
}

impl PredictionTable {
    /// Creates `entries` counters of `counter_bits` bits each, initialised
    /// to zero (predicting live).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `counter_bits` is not
    /// in `1..=8`.
    pub fn new(entries: usize, counter_bits: u32) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        assert!((1..=8).contains(&counter_bits), "counter_bits must be in 1..=8");
        PredictionTable {
            counters: vec![0; entries],
            max: ((1u16 << counter_bits) - 1) as u8,
            accesses: 0,
        }
    }

    /// Number of counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True if the table has no counters (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Reads the counter at `index` (counted as a table access).
    pub fn read(&mut self, index: usize) -> u8 {
        self.accesses += 1;
        self.counters[index]
    }

    /// Saturating increment (entry proved dead; Algorithm 5 line 42).
    pub fn increment(&mut self, index: usize) {
        self.accesses += 1;
        let c = &mut self.counters[index];
        if *c < self.max {
            *c += 1;
        }
    }

    /// Saturating decrement (entry proved live; Algorithm 5 line 44).
    pub fn decrement(&mut self, index: usize) {
        self.accesses += 1;
        let c = &mut self.counters[index];
        *c = c.saturating_sub(1);
    }

    /// Peeks without counting an access (tests/diagnostics only).
    pub fn peek(&self, index: usize) -> u8 {
        self.counters[index]
    }

    /// Total reads + writes so far (Figure 11 numerator).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Maximum counter value.
    pub fn counter_max(&self) -> u8 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn saturates_at_both_ends() {
        let mut t = PredictionTable::new(4, 2);
        for _ in 0..10 {
            t.increment(0);
        }
        assert_eq!(t.peek(0), 3);
        for _ in 0..10 {
            t.decrement(0);
        }
        assert_eq!(t.peek(0), 0);
    }

    #[test]
    fn accesses_counted() {
        let mut t = PredictionTable::new(4, 2);
        t.read(0);
        t.increment(1);
        t.decrement(2);
        t.peek(3); // not counted
        assert_eq!(t.accesses(), 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = PredictionTable::new(100, 2);
    }

    proptest! {
        #[test]
        fn counters_stay_in_range(ops in proptest::collection::vec((0usize..16, 0u8..2), 0..200)) {
            let mut t = PredictionTable::new(16, 2);
            for (idx, op) in ops {
                if op == 0 { t.increment(idx) } else { t.decrement(idx) }
            }
            for i in 0..16 {
                prop_assert!(t.peek(i) <= t.counter_max());
            }
        }
    }
}
