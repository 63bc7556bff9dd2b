//! Hit/miss accounting for cache-like structures.

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that found the line resident.
    pub hits: u64,
    /// Accesses that required a fill from further out.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; 0 for an untouched cache.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Misses per 1000 of `instructions` — the paper's MPKI metric.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let s = CacheStats { hits: 3, misses: 1 };
        assert_eq!(s.accesses(), 4);
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
        assert!((s.mpki(1000) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.mpki(0), 0.0);
    }
}
