//! Bélády's optimal replacement (offline oracle).
//!
//! The paper cites Bélády's algorithm as the unreachable ideal for pure
//! replacement (§V). Because the L1 TLBs use a fixed LRU policy, the L2
//! access stream is identical across L2 policies, so an oracle recorded in
//! a first pass can drive an optimal second pass: on a miss, evict the
//! resident entry whose next use lies farthest in the future (or never
//! recurs).

use crate::policy::{PolicyStorage, TlbReplacementPolicy};
use crate::types::{TlbAccess, TlbGeometry};
use std::collections::{HashMap, VecDeque};

/// Future-knowledge oracle: for every VPN, the ordered list of access
/// positions in the L2 access stream.
#[derive(Debug, Clone, Default)]
pub struct OptOracle {
    positions: HashMap<u64, VecDeque<u64>>,
}

impl OptOracle {
    /// Builds the oracle from the L2 access stream (sequence of VPNs in
    /// access order).
    pub fn from_vpns<I: IntoIterator<Item = u64>>(vpns: I) -> Self {
        let mut positions: HashMap<u64, VecDeque<u64>> = HashMap::new();
        for (t, vpn) in vpns.into_iter().enumerate() {
            positions.entry(vpn).or_default().push_back(t as u64);
        }
        OptOracle { positions }
    }

    /// Number of distinct VPNs recorded.
    pub fn distinct_vpns(&self) -> usize {
        self.positions.len()
    }
}

/// Bélády-optimal replacement driven by an [`OptOracle`].
///
/// The driving access stream must match the oracle's exactly; the policy
/// panics (in debug builds) if it observes an access the oracle did not
/// record at that position.
#[derive(Debug, Clone)]
pub struct OptPolicy {
    oracle: OptOracle,
    /// VPN resident in each (set, way).
    resident: Vec<u64>,
    valid: Vec<bool>,
    time: u64,
    geometry: TlbGeometry,
}

impl OptPolicy {
    /// Creates the policy for `geometry` with future knowledge `oracle`.
    pub fn new(geometry: TlbGeometry, oracle: OptOracle) -> Self {
        OptPolicy {
            oracle,
            resident: vec![0; geometry.entries],
            valid: vec![false; geometry.entries],
            time: 0,
            geometry,
        }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.geometry.ways + way
    }

    /// Consumes the oracle position for the current access and advances
    /// time.
    fn advance(&mut self, vpn: u64) {
        if let Some(q) = self.oracle.positions.get_mut(&vpn) {
            // Drop the position of the access being processed.
            while let Some(&front) = q.front() {
                if front <= self.time {
                    q.pop_front();
                } else {
                    break;
                }
            }
        }
        self.time += 1;
    }

    /// Next use position of `vpn` strictly after the current access, or
    /// `u64::MAX` if it never recurs.
    fn next_use(&self, vpn: u64) -> u64 {
        self.oracle
            .positions
            .get(&vpn)
            .and_then(|q| q.iter().find(|&&t| t > self.time).copied())
            .unwrap_or(u64::MAX)
    }
}

impl TlbReplacementPolicy for OptPolicy {
    fn name(&self) -> &str {
        "opt"
    }

    fn choose_victim(&mut self, acc: &TlbAccess) -> usize {
        let mut best_way = 0;
        let mut best_next = 0;
        for way in 0..self.geometry.ways {
            let i = self.idx(acc.set, way);
            debug_assert!(self.valid[i], "choose_victim requires a full set");
            let next = self.next_use(self.resident[i]);
            if next == u64::MAX {
                return way; // never used again: perfect victim
            }
            if next > best_next {
                best_next = next;
                best_way = way;
            }
        }
        best_way
    }

    fn on_hit(&mut self, acc: &TlbAccess, way: usize) {
        debug_assert_eq!(self.resident[self.idx(acc.set, way)], acc.vpn);
        self.advance(acc.vpn);
    }

    fn on_fill(&mut self, acc: &TlbAccess, way: usize) {
        let i = self.idx(acc.set, way);
        self.resident[i] = acc.vpn;
        self.valid[i] = true;
        self.advance(acc.vpn);
    }

    fn storage(&self) -> PolicyStorage {
        // Offline oracle: not implementable in hardware; storage is
        // reported as zero to keep comparison tables meaningful.
        PolicyStorage::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb::L2Tlb;
    use crate::types::TranslationKind;

    /// Runs a VPN stream through an L2 TLB under a given policy, returning
    /// the miss count.
    fn misses_with(policy: Box<dyn TlbReplacementPolicy>, geom: TlbGeometry, seq: &[u64]) -> u64 {
        let mut tlb = L2Tlb::new(geom, policy);
        for &vpn in seq {
            tlb.access(0, vpn, TranslationKind::Data);
        }
        tlb.stats().misses
    }

    #[test]
    fn opt_beats_lru_on_cyclic_pattern() {
        // Single set (1-way-indexed): 4 ways, cyclic over 5 pages — the
        // LRU-pathological case. Use vpns ≡ 0 mod sets so all collide.
        let geom = TlbGeometry { entries: 4, ways: 4 };
        let mut seq = Vec::new();
        for _ in 0..20 {
            for v in 0..5u64 {
                seq.push(v * geom.sets() as u64);
            }
        }
        let lru_misses = misses_with(Box::new(super::super::Lru::new(geom)), geom, &seq);
        let oracle = OptOracle::from_vpns(seq.iter().copied());
        let opt_misses = misses_with(Box::new(OptPolicy::new(geom, oracle)), geom, &seq);
        assert!(opt_misses < lru_misses, "OPT {opt_misses} must beat LRU {lru_misses}");
        // LRU thrashes completely: every access misses.
        assert_eq!(lru_misses, seq.len() as u64);
        // OPT keeps 3 of 5 pages resident: ~2 misses per 5-access cycle.
        assert!(opt_misses <= 2 * 20 + 5);
    }

    #[test]
    fn opt_never_worse_than_lru_on_random_streams() {
        use chirp_trace::rng::Xoshiro256pp;
        let geom = TlbGeometry { entries: 8, ways: 4 };
        for seed in 0..5u64 {
            let mut rng = Xoshiro256pp::seed_from_u64(seed);
            let seq: Vec<u64> = (0..2000).map(|_| rng.gen_range(0..32)).collect();
            let lru = misses_with(Box::new(super::super::Lru::new(geom)), geom, &seq);
            let oracle = OptOracle::from_vpns(seq.iter().copied());
            let opt = misses_with(Box::new(OptPolicy::new(geom, oracle)), geom, &seq);
            assert!(opt <= lru, "seed {seed}: OPT {opt} worse than LRU {lru}");
        }
    }

    #[test]
    fn oracle_counts_distinct_vpns() {
        let oracle = OptOracle::from_vpns([1, 2, 1, 3]);
        assert_eq!(oracle.distinct_vpns(), 3);
    }
}
