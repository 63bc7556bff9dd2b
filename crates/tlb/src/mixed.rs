//! Mixed page-size TLB support — the paper's stated future work (§VIII).
//!
//! The paper defers replacement with mixed page sizes: "imagine, when one
//! entry covers 4KB and another covers 2MB, which one is more important to
//! keep?" This module provides an exploratory implementation kept separate
//! from the calibrated 4 KB-only main path:
//!
//! * [`PageSize`] and [`ThpMapper`], a deterministic transparent-huge-page
//!   model: each 2 MB-aligned heap region is backed by a huge page with a
//!   probability controlled by a fragmentation parameter (the paper notes
//!   fragmentation is what complicates huge-page studies);
//! * [`MixedTlb`], a set-associative TLB whose entries are tagged with
//!   `(vpn, size)` and share capacity across sizes, as the paper describes
//!   real L2 TLBs doing;
//! * three replacement flavours: plain LRU, reuse-prediction (a compact
//!   CHiRP-style dead bit driven by a signature the caller supplies), and
//!   *size-aware* reuse prediction that prefers evicting dead 4 KB entries
//!   before dead 2 MB entries, since a huge-page entry shields 512× the
//!   reach (the cost-aware replacement the paper points to via
//!   Bélády-with-costs).

use crate::types::TlbGeometry;
use chirp_mem::LruStack;

/// Page sizes supported by the mixed TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageSize {
    /// 4 KB base pages.
    Base4K,
    /// 2 MB huge pages.
    Huge2M,
}

impl PageSize {
    /// Number of address bits covered by the page offset.
    pub fn shift(self) -> u32 {
        match self {
            PageSize::Base4K => 12,
            PageSize::Huge2M => 21,
        }
    }

    /// Bytes covered by one page.
    pub fn bytes(self) -> u64 {
        1 << self.shift()
    }
}

/// Maps virtual addresses to (vpn, size) pairs — the role the OS page
/// tables play.
pub trait PageMapper {
    /// The page (number and size) backing `va`.
    fn page_of(&self, va: u64) -> (u64, PageSize);
}

/// All-4K mapping (the paper's main configuration).
#[derive(Debug, Clone, Copy, Default)]
pub struct Base4KMapper;

impl PageMapper for Base4KMapper {
    fn page_of(&self, va: u64) -> (u64, PageSize) {
        (va >> 12, PageSize::Base4K)
    }
}

/// Transparent-huge-page model: each 2 MB-aligned region is backed by a
/// huge page unless fragmentation prevented its allocation. The decision
/// is a deterministic hash of the region number, so a given
/// `fragmentation_percent` yields a stable mapping.
#[derive(Debug, Clone, Copy)]
pub struct ThpMapper {
    /// Percentage (0–100) of 2 MB regions that could *not* be backed by a
    /// huge page (fragmentation).
    pub fragmentation_percent: u32,
}

impl PageMapper for ThpMapper {
    fn page_of(&self, va: u64) -> (u64, PageSize) {
        let region = va >> 21;
        let h = (region.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) % 100;
        if (h as u32) < self.fragmentation_percent {
            (va >> 12, PageSize::Base4K)
        } else {
            (region, PageSize::Huge2M)
        }
    }
}

/// Replacement flavour for the mixed TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixedPolicy {
    /// True LRU, size-blind.
    Lru,
    /// Dead-prediction with LRU fallback, size-blind (CHiRP-style).
    ReusePrediction,
    /// Dead-prediction preferring dead 4 KB victims over dead 2 MB victims.
    SizeAwareReuse,
}

#[derive(Debug, Clone, Copy, Default)]
struct MixedEntry {
    vpn: u64,
    size_is_huge: bool,
    valid: bool,
    signature: u16,
    dead: bool,
    first_hit_pending: bool,
}

/// Statistics for the mixed TLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MixedStats {
    /// Hits on 4 KB entries.
    pub hits_4k: u64,
    /// Hits on 2 MB entries.
    pub hits_2m: u64,
    /// Misses (fills).
    pub misses: u64,
    /// Evictions of 2 MB entries (each sacrifices 512x the reach).
    pub huge_evictions: u64,
}

impl MixedStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits_4k + self.hits_2m + self.misses
    }

    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses as f64 / a as f64
        }
    }
}

/// A set-associative TLB holding a mix of 4 KB and 2 MB entries.
///
/// Entries of both sizes share every set (the L2 TLB "is not partitioned
/// among page sizes", paper §V); the set index is derived from the VPN at
/// the entry's own granularity, and lookups probe both candidate sets.
#[derive(Debug, Clone)]
pub struct MixedTlb {
    geometry: TlbGeometry,
    entries: Vec<MixedEntry>,
    lru: Vec<LruStack>,
    policy: MixedPolicy,
    table: Vec<u8>,
    dead_threshold: u8,
    stats: MixedStats,
}

impl MixedTlb {
    /// Creates the TLB with the given replacement flavour and a 4096-entry
    /// 2-bit prediction table (the CHiRP main budget).
    pub fn new(geometry: TlbGeometry, policy: MixedPolicy) -> Self {
        let sets = geometry.sets();
        MixedTlb {
            geometry,
            entries: vec![MixedEntry::default(); sets * geometry.ways],
            lru: (0..sets).map(|_| LruStack::new(geometry.ways)).collect(),
            policy,
            table: vec![0; 4096],
            dead_threshold: 2,
            stats: MixedStats::default(),
        }
    }

    #[inline]
    fn set_of(&self, vpn: u64) -> usize {
        (vpn as usize) & (self.geometry.sets() - 1)
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.geometry.ways + way
    }

    #[inline]
    fn table_idx(sig: u16) -> usize {
        usize::from(sig) & 4095
    }

    /// Translates `va` through `mapper`, learning reuse with `signature`
    /// (a caller-provided control-flow signature, e.g. from
    /// `chirp_core::SignatureBuilder`). Returns `true` on hit.
    pub fn access<M: PageMapper>(&mut self, mapper: &M, va: u64, signature: u16) -> bool {
        let (vpn, size) = mapper.page_of(va);
        let huge = size == PageSize::Huge2M;
        let set = self.set_of(vpn);
        // Hit check in the set indexed at this entry's own granularity.
        for way in 0..self.geometry.ways {
            let i = self.idx(set, way);
            let e = self.entries[i];
            if e.valid && e.vpn == vpn && e.size_is_huge == huge {
                if huge {
                    self.stats.hits_2m += 1;
                } else {
                    self.stats.hits_4k += 1;
                }
                if self.policy != MixedPolicy::Lru && self.entries[i].first_hit_pending {
                    let old = Self::table_idx(self.entries[i].signature);
                    self.table[old] = self.table[old].saturating_sub(1);
                    self.entries[i].first_hit_pending = false;
                    self.entries[i].dead =
                        self.table[Self::table_idx(signature)] > self.dead_threshold;
                }
                self.entries[i].signature = signature;
                self.lru[set].touch(way);
                return true;
            }
        }
        // Miss: fill.
        self.stats.misses += 1;
        let way = self.choose_victim(set);
        let i = self.idx(set, way);
        if self.entries[i].valid {
            if self.entries[i].size_is_huge {
                self.stats.huge_evictions += 1;
            }
            if self.policy != MixedPolicy::Lru && !self.entries[i].dead {
                // LRU-fallback eviction trains the table up (CHiRP rule).
                let old = Self::table_idx(self.entries[i].signature);
                if self.table[old] < 3 {
                    self.table[old] += 1;
                }
            }
        }
        let dead = self.policy != MixedPolicy::Lru
            && self.table[Self::table_idx(signature)] > self.dead_threshold;
        self.entries[i] = MixedEntry {
            vpn,
            size_is_huge: huge,
            valid: true,
            signature,
            dead,
            first_hit_pending: true,
        };
        self.lru[set].touch(way);
        false
    }

    fn choose_victim(&mut self, set: usize) -> usize {
        // Invalid ways first.
        if let Some(way) = (0..self.geometry.ways).find(|&w| !self.entries[self.idx(set, w)].valid)
        {
            return way;
        }
        match self.policy {
            MixedPolicy::Lru => self.lru[set].lru(),
            MixedPolicy::ReusePrediction => (0..self.geometry.ways)
                .find(|&w| self.entries[self.idx(set, w)].dead)
                .unwrap_or_else(|| self.lru[set].lru()),
            MixedPolicy::SizeAwareReuse => {
                // Dead 4K first (cheap to lose), then dead 2M, then LRU.
                let dead_4k = (0..self.geometry.ways).find(|&w| {
                    let e = self.entries[self.idx(set, w)];
                    e.dead && !e.size_is_huge
                });
                dead_4k
                    .or_else(|| {
                        (0..self.geometry.ways).find(|&w| self.entries[self.idx(set, w)].dead)
                    })
                    .unwrap_or_else(|| self.lru[set].lru())
            }
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MixedStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_sizes_cover_expected_ranges() {
        assert_eq!(PageSize::Base4K.bytes(), 4096);
        assert_eq!(PageSize::Huge2M.bytes(), 2 << 20);
    }

    #[test]
    fn thp_mapper_is_deterministic_and_respects_fragmentation() {
        let all_huge = ThpMapper { fragmentation_percent: 0 };
        let all_base = ThpMapper { fragmentation_percent: 100 };
        for va in [0u64, 0x20_0000, 0x1234_5678, 0xFFFF_F000] {
            assert_eq!(all_huge.page_of(va).1, PageSize::Huge2M);
            assert_eq!(all_base.page_of(va).1, PageSize::Base4K);
            assert_eq!(all_huge.page_of(va), all_huge.page_of(va));
        }
        // Mid fragmentation: both sizes appear over many regions.
        let mid = ThpMapper { fragmentation_percent: 50 };
        let mut huge = 0;
        let mut base = 0;
        for region in 0..1000u64 {
            match mid.page_of(region << 21).1 {
                PageSize::Huge2M => huge += 1,
                PageSize::Base4K => base += 1,
            }
        }
        assert!(huge > 300 && base > 300, "split {huge}/{base} too skewed");
    }

    #[test]
    fn huge_page_covers_512_base_pages() {
        let geom = TlbGeometry { entries: 16, ways: 4 };
        let mut tlb = MixedTlb::new(geom, MixedPolicy::Lru);
        let mapper = ThpMapper { fragmentation_percent: 0 };
        // First touch misses; every other 4K page within the same 2MB
        // region hits the same entry.
        assert!(!tlb.access(&mapper, 0x40_0000, 1));
        for p in 1..32u64 {
            assert!(tlb.access(&mapper, 0x40_0000 + p * 4096, 1), "page {p} must hit");
        }
        assert_eq!(tlb.stats().misses, 1);
        assert_eq!(tlb.stats().hits_2m, 31);
    }

    #[test]
    fn base_pages_miss_individually_under_full_fragmentation() {
        let geom = TlbGeometry { entries: 16, ways: 4 };
        let mut tlb = MixedTlb::new(geom, MixedPolicy::Lru);
        let mapper = ThpMapper { fragmentation_percent: 100 };
        for p in 0..8u64 {
            assert!(!tlb.access(&mapper, 0x40_0000 + p * 4096, 1));
        }
        assert_eq!(tlb.stats().misses, 8);
    }

    #[test]
    fn size_aware_policy_protects_huge_entries() {
        let geom = TlbGeometry { entries: 4, ways: 4 };
        let mut tlb = MixedTlb::new(geom, MixedPolicy::SizeAwareReuse);
        // Install one huge entry and three base entries in set 0, then mark
        // everything dead and insert: the 4K entries must go first.
        let frag0 = ThpMapper { fragmentation_percent: 0 };
        let frag100 = ThpMapper { fragmentation_percent: 100 };
        // huge vpn: region 0 (set 0)
        tlb.access(&frag0, 0x10_0000, 1);
        // base vpns congruent to 0 mod 1 (1 set)... geometry has 1 set.
        tlb.access(&frag100, 4096 * 4, 2);
        tlb.access(&frag100, 4096 * 8, 3);
        tlb.access(&frag100, 4096 * 12, 4);
        for e in &mut tlb.entries {
            e.dead = true;
        }
        // Insert a new base page: a dead 4K way must be chosen, never the
        // huge entry.
        tlb.access(&frag100, 4096 * 16, 5);
        assert_eq!(tlb.stats().huge_evictions, 0, "huge entry must be protected");
        let still_huge = tlb.entries.iter().filter(|e| e.valid && e.size_is_huge).count();
        assert_eq!(still_huge, 1);
    }

    #[test]
    fn reuse_prediction_learns_dead_signatures_in_mixed_tlb() {
        let geom = TlbGeometry { entries: 8, ways: 4 };
        let mut tlb = MixedTlb::new(geom, MixedPolicy::ReusePrediction);
        let mapper = ThpMapper { fragmentation_percent: 100 };
        // Stream with signature 7 through one set until the counter
        // saturates via LRU-fallback evictions; then its inserts are dead.
        for p in 0..64u64 {
            tlb.access(&mapper, p * 2 * 4096, 7);
        }
        let dead_now = tlb.entries.iter().filter(|e| e.valid && e.dead).count();
        assert!(dead_now > 0, "streaming signature must become dead-predicted");
    }
}
