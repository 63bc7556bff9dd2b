//! The full memory hierarchy facade: L1i / L1d → unified L2 → unified L3 →
//! DRAM, returning access latencies per the paper's Table II.

use crate::cache::{Cache, CacheConfig};
use crate::stats::CacheStats;

/// Configuration of every level (paper Table II defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Unified L3.
    pub l3: CacheConfig,
    /// Flat DRAM access latency in cycles.
    pub dram_latency: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1i: CacheConfig { size_bytes: 64 << 10, ways: 8, line_bytes: 64, hit_latency: 4 },
            l1d: CacheConfig { size_bytes: 64 << 10, ways: 8, line_bytes: 64, hit_latency: 4 },
            l2: CacheConfig { size_bytes: 256 << 10, ways: 16, line_bytes: 64, hit_latency: 12 },
            l3: CacheConfig { size_bytes: 8 << 20, ways: 16, line_bytes: 64, hit_latency: 42 },
            dram_latency: 240,
        }
    }
}

/// The assembled hierarchy.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    dram_latency: u64,
    dram_accesses: u64,
}

impl MemoryHierarchy {
    /// Builds all levels from `config`.
    pub fn new(config: HierarchyConfig) -> Self {
        MemoryHierarchy {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            dram_latency: config.dram_latency,
            dram_accesses: 0,
        }
    }

    /// Instruction fetch from `pc`; returns the access latency in cycles.
    #[inline]
    pub fn fetch(&mut self, pc: u64) -> u64 {
        if self.l1i.access(pc) {
            return self.l1i.config().hit_latency;
        }
        self.beyond_l1(pc, self.l1i.config().hit_latency)
    }

    /// Instruction fetch from `pc` that has already missed an L1i kept
    /// outside this hierarchy: a front end that filters fetches through
    /// its own copy of the L1i hands on only its misses. Returns the
    /// latency [`fetch`](Self::fetch) returns on an L1i miss; this
    /// hierarchy's own L1i is left untouched.
    #[inline]
    pub fn fetch_after_l1i_miss(&mut self, pc: u64) -> u64 {
        self.beyond_l1(pc, self.l1i.config().hit_latency)
    }

    /// Data load from `addr`; returns the access latency in cycles.
    #[inline]
    pub fn load(&mut self, addr: u64) -> u64 {
        if self.l1d.access(addr) {
            return self.l1d.config().hit_latency;
        }
        self.beyond_l1(addr, self.l1d.config().hit_latency)
    }

    /// Data store to `addr` (write-allocate); returns the latency in cycles.
    #[inline]
    pub fn store(&mut self, addr: u64) -> u64 {
        self.load(addr)
    }

    fn beyond_l1(&mut self, addr: u64, l1_latency: u64) -> u64 {
        if self.l2.access(addr) {
            return l1_latency + self.l2.config().hit_latency;
        }
        if self.l3.access(addr) {
            return l1_latency + self.l2.config().hit_latency + self.l3.config().hit_latency;
        }
        self.dram_accesses += 1;
        l1_latency + self.l2.config().hit_latency + self.l3.config().hit_latency + self.dram_latency
    }

    /// Per-level statistics: (l1i, l1d, l2, l3).
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats, CacheStats) {
        (self.l1i.stats(), self.l1d.stats(), self.l2.stats(), self.l3.stats())
    }

    /// Number of accesses that reached DRAM.
    pub fn dram_accesses(&self) -> u64 {
        self.dram_accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_ii() {
        let c = HierarchyConfig::default();
        assert_eq!(c.l1i.size_bytes, 64 << 10);
        assert_eq!(c.l1i.ways, 8);
        assert_eq!(c.l1i.hit_latency, 4);
        assert_eq!(c.l2.size_bytes, 256 << 10);
        assert_eq!(c.l2.ways, 16);
        assert_eq!(c.l2.hit_latency, 12);
        assert_eq!(c.l3.size_bytes, 8 << 20);
        assert_eq!(c.l3.hit_latency, 42);
        assert_eq!(c.dram_latency, 240);
    }

    #[test]
    fn latency_ladder() {
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
        // Cold: L1 + L2 + L3 + DRAM.
        assert_eq!(mem.load(0x10_0000), 4 + 12 + 42 + 240);
        // Warm: L1 hit.
        assert_eq!(mem.load(0x10_0000), 4);
        assert_eq!(mem.dram_accesses(), 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
        mem.load(0);
        // Evict line 0 from L1d set 0 by filling its 8 ways; L1d has 128
        // sets, so addresses stride by 128*64 bytes stay in set 0.
        for i in 1..=8u64 {
            mem.load(i * 128 * 64);
        }
        let lat = mem.load(0);
        assert_eq!(lat, 4 + 12, "line must still sit in the larger L2");
    }

    #[test]
    fn ifetch_and_data_use_separate_l1s() {
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
        mem.fetch(0x40_0000);
        // Data access to the same address misses L1d but hits unified L2,
        // because the fetch filled L2 inclusively.
        assert_eq!(mem.load(0x40_0000), 4 + 12);
        assert_eq!(mem.fetch(0x40_0000), 4);
    }

    /// An outside L1i in front of `fetch_after_l1i_miss` gives every
    /// fetch and load the latency the whole hierarchy gives, over a
    /// stream whose instruction and data sides thrash the shared L2.
    #[test]
    fn outside_l1i_matches_the_whole_hierarchy() {
        let config = HierarchyConfig::default();
        let mut whole = MemoryHierarchy::new(config);
        let mut l1i = Cache::new(config.l1i);
        let mut rest = MemoryHierarchy::new(config);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..200_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pc = 0x40_0000 + (x % (96 << 10));
            let fetched =
                if l1i.access(pc) { config.l1i.hit_latency } else { rest.fetch_after_l1i_miss(pc) };
            assert_eq!(fetched, whole.fetch(pc), "fetch {i}");
            let ea = 0x1000_0000 + (x >> 20) % (16 << 20);
            assert_eq!(rest.load(ea), whole.load(ea), "load {i}");
        }
        assert_eq!(rest.dram_accesses(), whole.dram_accesses());
    }

    #[test]
    fn store_allocates() {
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
        mem.store(0x9000);
        assert_eq!(mem.load(0x9000), 4);
    }
}
