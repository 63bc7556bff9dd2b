//! A set-associative, true-LRU cache model.

use crate::order::{order_init, order_lru, order_mask, order_touch};
use crate::stats::CacheStats;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero ways/line, capacity not
    /// divisible into sets, or a non-power-of-two set count).
    pub fn sets(&self) -> usize {
        assert!(self.ways > 0 && self.line_bytes > 0, "degenerate cache geometry");
        let sets = self.size_bytes / (self.ways as u64 * self.line_bytes);
        assert!(sets > 0, "cache smaller than one set");
        assert!(sets.is_power_of_two(), "set count must be a power of two, got {sets}");
        sets as usize
    }
}

/// One set-associative LRU cache level.
///
/// Tags live in a flat `sets * ways` array of `tag << 1 | 1` words (0
/// when invalid — the valid bit keeps an invalid slot from ever matching
/// a key). Recency lives beside them as one packed order word per set
/// (see [`order_touch`]): a probe reads the tag run (one or two host
/// cache lines), and the LRU update is ~a dozen ALU ops on a single
/// word instead of a per-way age sweep — tags are read-only on hits, so
/// their lines stay clean in the host cache. Fills prefer the lowest
/// free way; the eviction victim is the back of the order word, which is
/// exact true LRU by construction. A proptest below pins the whole
/// scheme against a reference `LruStack` model, and a per-set MRU memo
/// (`mru`) collapses the dominant repeated-line case to a single
/// compare.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets * ways` tag words (`tag << 1 | 1`, 0 when invalid).
    meta: Vec<u64>,
    /// Per set, two adjacent words — deliberately interleaved so every
    /// probe's non-tag state shares one host cache line:
    ///
    /// `[2 * set]`: the MRU memo — the line address most recently
    /// accessed in the set (hit or fill), `u64::MAX` before the first
    /// one. Refreshed on every non-memoized access, so a match proves
    /// the line is resident AND already MRU in its set — the whole probe
    /// (tag scan + the no-op touch of an already-MRU way) collapses to
    /// one compare with zero change to simulated state beyond the hit
    /// counter. Caches live on temporal locality, so for the upper
    /// levels this is the dominant path: sequential fetches share a
    /// line, loop bodies re-enter theirs.
    ///
    /// `[2 * set + 1]`: the packed LRU-order word.
    set_state: Vec<u64>,
    line_shift: u32,
    set_mask: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds the cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry (see [`CacheConfig::sets`]) or
    /// more than 16 ways (the packed order word holds one nibble per way).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(config.ways <= 16, "packed LRU order supports at most 16 ways");
        let mut set_state = Vec::with_capacity(sets * 2);
        for _ in 0..sets {
            set_state.push(u64::MAX);
            set_state.push(order_init(config.ways));
        }
        Cache {
            meta: vec![0; sets * config.ways],
            set_state,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
            config,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built from.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated hit/miss statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Counts `n` hits that a caller answered without calling
    /// [`access`](Self::access): each repeated the line this cache
    /// accessed last, which the MRU memo answers as a hit with no other
    /// change to simulated state.
    #[inline]
    pub fn count_repeat_hits(&mut self, n: u64) {
        self.stats.hits += n;
    }

    /// The lookup key for `addr`: `(set index, tag << 1 | 1)`.
    #[inline]
    fn key(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        (set_idx, tag << 1 | 1)
    }

    /// Looks up `addr`, filling the line on a miss. Returns `true` on hit.
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let set_idx = (line & self.set_mask) as usize;
        if line == self.set_state[2 * set_idx] {
            // Most recently accessed line of its set: resident and MRU,
            // so the probe and the (no-op) touch can be skipped. Line
            // addresses are at most 58 bits, so the u64::MAX sentinel
            // cannot collide.
            self.stats.hits += 1;
            return true;
        }
        self.set_state[2 * set_idx] = line;
        let tag = line >> self.set_mask.count_ones();
        let key = tag << 1 | 1;
        // Dispatch on the associativity so the scan compiles with a
        // compile-time trip count (fully unrolled, no loop bookkeeping)
        // for the geometries the model actually uses.
        match self.config.ways {
            4 => self.probe_sized::<4>(set_idx, key),
            8 => self.probe_sized::<8>(set_idx, key),
            16 => self.probe_sized::<16>(set_idx, key),
            ways => self.probe_dyn(set_idx, key, ways),
        }
    }

    /// [`access`](Self::access) probe body with the associativity as a
    /// compile-time constant.
    #[inline]
    fn probe_sized<const W: usize>(&mut self, set_idx: usize, key: u64) -> bool {
        let base = set_idx * W;
        let tags: &mut [u64; W] =
            (&mut self.meta[base..base + W]).try_into().expect("slice spans W ways");
        let mask = order_mask(W);
        let order_at = 2 * set_idx + 1;
        // Branch-free probe. Which way hits (or which way a miss fills)
        // is data-dependent and effectively random for the lower levels,
        // so an early-exit scan eats a branch mispredict on most
        // non-memoized hits; folding the scan into conditional moves and
        // sharing one exit path between hit, free-fill and eviction
        // trades those flushes for a short dependency chain. The reversed
        // loop makes the LOWEST matching slot win the free-way fold; the
        // hit way is unique if present (tags are distinct and `key`
        // carries the valid bit, so it never equals an invalid 0).
        let mut hit_way = usize::MAX;
        let mut free_way = usize::MAX;
        for way in (0..W).rev() {
            let tag = tags[way];
            if tag == key {
                hit_way = way;
            }
            if tag == 0 {
                free_way = way;
            }
        }
        let hit = hit_way != usize::MAX;
        let order = self.set_state[order_at];
        // Way priority: hit way, else lowest free way, else the back of
        // the order word — the exact LRU way.
        let mut way = order_lru(order, W);
        if free_way != usize::MAX {
            way = free_way;
        }
        if hit {
            way = hit_way;
        }
        // On a hit `tags[way]` already equals `key`, so the
        // unconditional store is idempotent, and hit and fill want the
        // same recency touch.
        tags[way] = key;
        self.set_state[order_at] = order_touch(order, way, mask);
        self.stats.hits += u64::from(hit);
        self.stats.misses += u64::from(!hit);
        hit
    }

    /// [`access`](Self::access) fallback for associativities without a
    /// monomorphized instantiation. Identical logic, runtime trip count.
    fn probe_dyn(&mut self, set_idx: usize, key: u64, ways: usize) -> bool {
        let base = set_idx * ways;
        let tags = &mut self.meta[base..base + ways];
        let mask = order_mask(ways);
        let mut free = usize::MAX;
        let mut hit = usize::MAX;
        for (way, &tag) in tags.iter().enumerate() {
            if tag == key {
                hit = way;
                break;
            }
            if tag == 0 {
                free = free.min(way);
            }
        }
        let order_at = 2 * set_idx + 1;
        if hit != usize::MAX {
            self.set_state[order_at] = order_touch(self.set_state[order_at], hit, mask);
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let order = self.set_state[order_at];
        let way = if free != usize::MAX { free } else { order_lru(order, ways) };
        tags[way] = key;
        self.set_state[order_at] = order_touch(order, way, mask);
        false
    }

    /// True if the line holding `addr` is currently resident (no side
    /// effects — does not update recency or stats).
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, key) = self.key(addr);
        let base = set_idx * self.config.ways;
        self.meta[base..base + self.config.ways].contains(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LruStack;
    use proptest::prelude::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256B.
        Cache::new(CacheConfig { size_bytes: 256, ways: 2, line_bytes: 64, hit_latency: 1 })
    }

    #[test]
    fn config_sets() {
        let c = CacheConfig { size_bytes: 64 * 1024, ways: 8, line_bytes: 64, hit_latency: 4 };
        assert_eq!(c.sets(), 128);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x0));
        assert!(c.access(0x0));
        assert!(c.access(0x3f), "same line must hit");
        assert!(!c.access(0x40), "next line is a different set/line");
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Set 0 holds lines with (line & 1) == 0: addresses 0x000, 0x080, 0x100.
        c.access(0x000);
        c.access(0x080);
        c.access(0x000); // touch to protect
        c.access(0x100); // evicts 0x080
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert!(c.probe(0x100));
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        c.access(64);
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ =
            Cache::new(CacheConfig { size_bytes: 3 * 64, ways: 1, line_bytes: 64, hit_latency: 1 });
    }

    proptest! {
        #[test]
        fn no_duplicate_resident_lines(addrs in proptest::collection::vec(0u64..4096, 1..200)) {
            let mut c = tiny();
            for a in &addrs {
                c.access(*a);
            }
            // Re-access of anything resident must hit, and each line maps to
            // exactly one way (access again and confirm stats consistency).
            let before = c.stats();
            prop_assert_eq!(before.accesses() as usize, addrs.len());
        }

        #[test]
        fn working_set_within_capacity_always_hits_after_warmup(start in 0u64..4u64) {
            let mut c = tiny();
            // 4 lines fit exactly (2 sets x 2 ways).
            let lines: Vec<u64> = (0..4).map(|i| (start + i) * 64).collect();
            for &l in &lines { c.access(l); }
            for &l in &lines {
                prop_assert!(c.access(l), "line {l:#x} must hit after warmup");
            }
        }

        /// The packed-order layout (and the per-set MRU memo riding on
        /// it) must replace lines in the exact order a reference model
        /// with a per-set LRU stack would — hit/miss sequences identical.
        #[test]
        fn matches_lru_stack_reference_model(
            addrs in proptest::collection::vec(0u64..2048, 1..300),
        ) {
            let mut c = Cache::new(CacheConfig {
                size_bytes: 4 * 2 * 64, ways: 2, line_bytes: 64, hit_latency: 1,
            });
            // Reference: per-set tag vectors + LruStack recency.
            let sets = 4usize;
            let ways = 2usize;
            let mut tags: Vec<Vec<Option<u64>>> = vec![vec![None; ways]; sets];
            let mut lru: Vec<LruStack> = (0..sets).map(|_| LruStack::new(ways)).collect();
            for &a in &addrs {
                let line = a >> 6;
                let set = (line & 3) as usize;
                let tag = line >> 2;
                let expect_hit = match tags[set].iter().position(|&t| t == Some(tag)) {
                    Some(way) => {
                        lru[set].touch(way);
                        true
                    }
                    None => {
                        let way = tags[set]
                            .iter()
                            .position(|t| t.is_none())
                            .unwrap_or_else(|| lru[set].lru());
                        tags[set][way] = Some(tag);
                        lru[set].touch(way);
                        false
                    }
                };
                prop_assert_eq!(c.access(a), expect_hit, "addr {:#x} diverged", a);
            }
        }

        /// Same pinning for an 8-way geometry, exercising the
        /// monomorphized probe path used by the real L1 configuration.
        #[test]
        fn matches_reference_model_8way(
            addrs in proptest::collection::vec(0u64..8192, 1..400),
        ) {
            let mut c = Cache::new(CacheConfig {
                size_bytes: 2 * 8 * 64, ways: 8, line_bytes: 64, hit_latency: 1,
            });
            let sets = 2usize;
            let ways = 8usize;
            let mut tags: Vec<Vec<Option<u64>>> = vec![vec![None; ways]; sets];
            let mut lru: Vec<LruStack> = (0..sets).map(|_| LruStack::new(ways)).collect();
            for &a in &addrs {
                let line = a >> 6;
                let set = (line & 1) as usize;
                let tag = line >> 1;
                let expect_hit = match tags[set].iter().position(|&t| t == Some(tag)) {
                    Some(way) => {
                        lru[set].touch(way);
                        true
                    }
                    None => {
                        let way = tags[set]
                            .iter()
                            .position(|t| t.is_none())
                            .unwrap_or_else(|| lru[set].lru());
                        tags[set][way] = Some(tag);
                        lru[set].touch(way);
                        false
                    }
                };
                prop_assert_eq!(c.access(a), expect_hit, "addr {:#x} diverged", a);
            }
        }

        /// And for the 16-way geometry used by the simulated L2/L3 —
        /// the full-width order word with no unused nibbles.
        #[test]
        fn matches_reference_model_16way(
            addrs in proptest::collection::vec(0u64..16384, 1..500),
        ) {
            let mut c = Cache::new(CacheConfig {
                size_bytes: 2 * 16 * 64, ways: 16, line_bytes: 64, hit_latency: 1,
            });
            let sets = 2usize;
            let ways = 16usize;
            let mut tags: Vec<Vec<Option<u64>>> = vec![vec![None; ways]; sets];
            let mut lru: Vec<LruStack> = (0..sets).map(|_| LruStack::new(ways)).collect();
            for &a in &addrs {
                let line = a >> 6;
                let set = (line & 1) as usize;
                let tag = line >> 1;
                let expect_hit = match tags[set].iter().position(|&t| t == Some(tag)) {
                    Some(way) => {
                        lru[set].touch(way);
                        true
                    }
                    None => {
                        let way = tags[set]
                            .iter()
                            .position(|t| t.is_none())
                            .unwrap_or_else(|| lru[set].lru());
                        tags[set][way] = Some(tag);
                        lru[set].touch(way);
                        false
                    }
                };
                prop_assert_eq!(c.access(a), expect_hit, "addr {:#x} diverged", a);
            }
        }
    }
}
