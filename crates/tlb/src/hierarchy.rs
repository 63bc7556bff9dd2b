//! The two-level TLB hierarchy: L1 i-TLB and d-TLB in front of the unified
//! L2 TLB and the page walker (paper Table II).

use crate::policy::TlbReplacementPolicy;
use crate::tlb::L2Tlb;
use crate::types::{TlbGeometry, TranslationKind};
use crate::walker::PageWalker;
use chirp_mem::{order_init, order_lru, order_mask, order_touch};
use chirp_trace::BranchClass;
use serde::{Deserialize, Serialize};

/// Latency/geometry configuration for the TLB hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbHierarchyConfig {
    /// L1 i-TLB geometry (Table II: 64-entry, 8-way).
    pub l1i: TlbGeometry,
    /// L1 d-TLB geometry (Table II: 64-entry, 8-way).
    pub l1d: TlbGeometry,
    /// L2 TLB geometry (Table II: 1024-entry, 8-way).
    pub l2: TlbGeometry,
    /// Extra cycles for an access that must consult the L2 TLB
    /// (Table II: 8-cycle L2 hit latency).
    pub l2_hit_latency: u64,
    /// Page-walk penalty in cycles (paper sweeps 20–360; 150 for the
    /// headline speedup).
    pub walk_penalty: u64,
    /// Optional paging-structure cache (Skylake-style MMU cache, paper §I):
    /// `(entries, hit_penalty)`. Walks whose PMD-level entry hits pay
    /// `hit_penalty` instead of the full penalty. `None` reproduces the
    /// paper's flat-penalty model.
    pub psc: Option<(usize, u64)>,
}

impl Default for TlbHierarchyConfig {
    fn default() -> Self {
        TlbHierarchyConfig {
            l1i: TlbGeometry::l1(),
            l1d: TlbGeometry::l1(),
            l2: TlbGeometry::default(),
            l2_hit_latency: 8,
            walk_penalty: 150,
            psc: None,
        }
    }
}

/// The result of translating one address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Extra cycles beyond an L1 TLB hit (0 when the L1 hits).
    pub cycles: u64,
    /// Whether the access reached the L2 TLB and whether it hit there.
    pub l2: Option<bool>,
}

/// Simple L1 TLB: set-associative, true-LRU, no policy hooks. Mirrors
/// the `chirp_mem::Cache` layout: a flat `sets * ways` array of
/// `vpn << 1 | 1` tag words (0 when invalid — the valid bit keeps an
/// invalid slot from ever matching a key, and page numbers are at most
/// 52 bits so the shift cannot overflow) plus one packed LRU-order word
/// per set ([`chirp_mem::order_touch`]): a probe reads one contiguous
/// 64-byte tag run for the 8-way geometry, and the recency update is a
/// dozen ALU ops on a single word — tags stay read-only on hits. Fills
/// prefer the lowest free way; the victim is the back of the order
/// word, exact true LRU by construction. A per-set MRU memo collapses
/// the dominant repeated-page case to one compare.
#[derive(Debug, Clone)]
struct L1Tlb {
    geometry: TlbGeometry,
    /// `sets * ways` tag words (`vpn << 1 | 1`, 0 when invalid).
    meta: Vec<u64>,
    /// Per set: the packed LRU-order word.
    order: Vec<u64>,
    hits: u64,
    misses: u64,
    /// Per set: the most recently accessed vpn (hit or fill), `u64::MAX`
    /// before the first access. A match proves the vpn is resident and
    /// already MRU in its set — probe and recency stamp are skippable
    /// with zero simulated-state change. A 4 KiB page covers 1024
    /// sequential instruction fetches, making this the dominant i-side
    /// path.
    mru: Vec<u64>,
}

impl L1Tlb {
    fn new(geometry: TlbGeometry) -> Self {
        let sets = geometry.sets();
        assert!(geometry.ways <= 16, "packed LRU order supports at most 16 ways");
        L1Tlb {
            geometry,
            meta: vec![0; sets * geometry.ways],
            order: vec![order_init(geometry.ways); sets],
            hits: 0,
            misses: 0,
            mru: vec![u64::MAX; sets],
        }
    }

    /// Returns true on hit; fills (evicting LRU) on miss.
    #[inline]
    fn access(&mut self, vpn: u64) -> bool {
        let set = self.geometry.set_of(vpn);
        if vpn == self.mru[set] {
            self.hits += 1;
            return true;
        }
        self.mru[set] = vpn;
        if self.geometry.ways == 8 {
            self.access_sized::<8>(set, vpn)
        } else {
            self.access_dyn(set, vpn, self.geometry.ways)
        }
    }

    /// Probe with the associativity as a compile-time constant, so the
    /// scan fully unrolls.
    #[inline]
    fn access_sized<const W: usize>(&mut self, set: usize, vpn: u64) -> bool {
        let base = set * W;
        let tags: &mut [u64; W] =
            (&mut self.meta[base..base + W]).try_into().expect("slice spans W ways");
        let key = vpn << 1 | 1;
        let mask = order_mask(W);
        let mut free = usize::MAX;
        for (way, &tag) in tags.iter().enumerate() {
            if tag == key {
                self.order[set] = order_touch(self.order[set], way, mask);
                self.hits += 1;
                return true;
            }
            if tag == 0 {
                free = free.min(way);
            }
        }
        self.misses += 1;
        let order = self.order[set];
        // Lowest free way if the set has room, else the back of the
        // order word — the exact LRU way.
        let way = if free != usize::MAX { free } else { order_lru(order, W) };
        tags[way] = key;
        self.order[set] = order_touch(order, way, mask);
        false
    }

    /// Runtime-trip-count fallback for unusual geometries.
    fn access_dyn(&mut self, set: usize, vpn: u64, ways: usize) -> bool {
        let base = set * ways;
        let tags = &mut self.meta[base..base + ways];
        let key = vpn << 1 | 1;
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
        if hit != usize::MAX {
            self.order[set] = order_touch(self.order[set], hit, mask);
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        let order = self.order[set];
        let way = if free != usize::MAX { free } else { order_lru(order, ways) };
        tags[way] = key;
        self.order[set] = order_touch(order, way, mask);
        false
    }
}

/// The policy-free half of the hierarchy: just the L1 i/d TLBs.
///
/// The L1s are private true-LRU structures with no replacement-policy
/// hooks, so their hit/miss sequence is identical no matter which L2
/// policy runs behind them. A factored front end (see `chirp-sim`)
/// drives this pair once per trace to discover which accesses reach the
/// L2, then replays only those against each policy back-end. Built from
/// the same [`TlbHierarchyConfig`] as [`TlbHierarchy`], it produces the
/// exact same L1 filter the full hierarchy would.
#[derive(Debug, Clone)]
pub struct L1FrontEnd {
    l1i: L1Tlb,
    l1d: L1Tlb,
}

impl L1FrontEnd {
    /// Builds the L1 pair from the hierarchy configuration.
    pub fn new(config: &TlbHierarchyConfig) -> Self {
        L1FrontEnd { l1i: L1Tlb::new(config.l1i), l1d: L1Tlb::new(config.l1d) }
    }

    /// Looks up `vpn` in the L1 of the given kind, filling (true LRU) on
    /// a miss. Returns whether it hit — a miss is exactly an access that
    /// reaches the unified L2 in the full hierarchy.
    #[inline]
    pub fn hit(&mut self, vpn: u64, kind: TranslationKind) -> bool {
        match kind {
            TranslationKind::Instruction => self.l1i.access(vpn),
            TranslationKind::Data => self.l1d.access(vpn),
        }
    }

    /// L1 statistics: (i-TLB hits, i-TLB misses, d-TLB hits, d-TLB misses).
    pub fn l1_stats(&self) -> (u64, u64, u64, u64) {
        (self.l1i.hits, self.l1i.misses, self.l1d.hits, self.l1d.misses)
    }
}

/// L1 i/d TLBs + unified L2 TLB + page walker.
///
/// Generic over the L2 replacement policy (defaulting to the boxed trait
/// object) so the `translate → access → choose_victim` chain monomorphizes
/// when a concrete policy type is plugged in.
pub struct TlbHierarchy<P: TlbReplacementPolicy = Box<dyn TlbReplacementPolicy>> {
    l1i: L1Tlb,
    l1d: L1Tlb,
    l2: L2Tlb<P>,
    walker: PageWalker,
    config: TlbHierarchyConfig,
}

impl<P: TlbReplacementPolicy> std::fmt::Debug for TlbHierarchy<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlbHierarchy").field("config", &self.config).field("l2", &self.l2).finish()
    }
}

impl<P: TlbReplacementPolicy> TlbHierarchy<P> {
    /// Builds the hierarchy with the given L2 replacement policy.
    pub fn new(config: TlbHierarchyConfig, l2_policy: P) -> Self {
        let mut walker = PageWalker::new(config.walk_penalty);
        if let Some((entries, hit_penalty)) = config.psc {
            walker = walker.with_psc(entries, hit_penalty);
        }
        TlbHierarchy {
            l1i: L1Tlb::new(config.l1i),
            l1d: L1Tlb::new(config.l1d),
            l2: L2Tlb::new(config.l2, l2_policy),
            walker,
            config,
        }
    }

    /// Translates an address. `pc` is the instruction responsible (equal to
    /// the translated address for instruction fetches).
    #[inline]
    pub fn translate(&mut self, pc: u64, vpn: u64, kind: TranslationKind) -> Translation {
        let l1 = match kind {
            TranslationKind::Instruction => &mut self.l1i,
            TranslationKind::Data => &mut self.l1d,
        };
        if l1.access(vpn) {
            return Translation { cycles: 0, l2: None };
        }
        let outcome = self.l2.access(pc, vpn, kind);
        if outcome.hit {
            Translation { cycles: self.config.l2_hit_latency, l2: Some(true) }
        } else {
            let walk = self.walker.walk(vpn);
            Translation { cycles: self.config.l2_hit_latency + walk, l2: Some(false) }
        }
    }

    /// Forwards a retired branch to the L2 policy.
    #[inline]
    pub fn on_branch(&mut self, pc: u64, class: BranchClass, taken: bool) {
        self.l2.on_branch(pc, class, taken);
    }

    /// Forwards a misprediction event to the L2 policy (wrong-path
    /// modelling hook).
    #[inline]
    pub fn on_mispredict(&mut self, pc: u64) {
        self.l2.on_mispredict(pc);
    }

    /// The L2 TLB (stats, efficiency, policy access).
    pub fn l2(&self) -> &L2Tlb<P> {
        &self.l2
    }

    /// L1 statistics: (i-TLB hits, i-TLB misses, d-TLB hits, d-TLB misses).
    pub fn l1_stats(&self) -> (u64, u64, u64, u64) {
        (self.l1i.hits, self.l1i.misses, self.l1d.hits, self.l1d.misses)
    }

    /// The page walker (walk counts and cycles).
    pub fn walker(&self) -> &PageWalker {
        &self.walker
    }

    /// The configuration in use.
    pub fn config(&self) -> TlbHierarchyConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Lru;

    fn hierarchy() -> TlbHierarchy {
        let config = TlbHierarchyConfig::default();
        TlbHierarchy::new(config, Box::new(Lru::new(config.l2)))
    }

    #[test]
    fn l1_hit_is_free() {
        let mut h = hierarchy();
        h.translate(0x400000, 7, TranslationKind::Data);
        let t = h.translate(0x400000, 7, TranslationKind::Data);
        assert_eq!(t, Translation { cycles: 0, l2: None });
    }

    #[test]
    fn l2_miss_pays_walk() {
        let mut h = hierarchy();
        let t = h.translate(0x400000, 7, TranslationKind::Data);
        assert_eq!(t.cycles, 8 + 150);
        assert_eq!(t.l2, Some(false));
        assert_eq!(h.walker().walks(), 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = hierarchy();
        // Fill L1 d-TLB set 0 (vpns ≡ 0 mod 8) beyond its 8 ways.
        for i in 0..9u64 {
            h.translate(0x400000, i * 8, TranslationKind::Data);
        }
        // vpn 0 fell out of L1 but is still in the 1024-entry L2.
        let t = h.translate(0x400000, 0, TranslationKind::Data);
        assert_eq!(t, Translation { cycles: 8, l2: Some(true) });
    }

    #[test]
    fn psc_option_discounts_neighbouring_walks() {
        let config = TlbHierarchyConfig { psc: Some((16, 30)), ..Default::default() };
        let mut h = TlbHierarchy::new(config, Box::new(Lru::new(config.l2)));
        // Two misses to neighbouring pages: the second walk hits the PSC.
        let t1 = h.translate(0, 0x1000, TranslationKind::Data);
        let t2 = h.translate(0, 0x1001, TranslationKind::Data);
        assert_eq!(t1.cycles, 8 + 150);
        assert_eq!(t2.cycles, 8 + 30);
    }

    #[test]
    fn instruction_and_data_l1_are_separate() {
        let mut h = hierarchy();
        h.translate(0x400000, 0x400, TranslationKind::Instruction);
        // Same vpn on the data side misses L1d but hits unified L2.
        let t = h.translate(0x400000, 0x400, TranslationKind::Data);
        assert_eq!(t, Translation { cycles: 8, l2: Some(true) });
    }
}
