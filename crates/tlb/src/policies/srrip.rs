//! Static re-reference interval prediction (SRRIP), adapted to TLB entries.
//!
//! Each entry carries a 2-bit re-reference prediction value (RRPV). New
//! entries are inserted with a *long* re-reference prediction (RRPV =
//! 2^M − 2); hits promote to near-immediate (0); the victim is the first
//! entry with a *distant* prediction (RRPV = 2^M − 1), aging the whole set
//! until one exists \[Jaleel et al., ISCA 2010; paper §II-A\].

use crate::policy::{PolicyStorage, TlbReplacementPolicy};
use crate::types::{TlbAccess, TlbGeometry};

const RRPV_BITS: u8 = 2;
const RRPV_MAX: u8 = (1 << RRPV_BITS) - 1; // 3: distant
const RRPV_LONG: u8 = RRPV_MAX - 1; // 2: insertion value

/// SRRIP with hit-promotion (HP) update.
#[derive(Debug, Clone)]
pub struct Srrip {
    rrpv: Vec<u8>,
    geometry: TlbGeometry,
}

impl Srrip {
    /// Creates SRRIP state for `geometry`.
    pub fn new(geometry: TlbGeometry) -> Self {
        Srrip { rrpv: vec![RRPV_MAX; geometry.entries], geometry }
    }

    #[inline]
    fn idx(&self, set: usize, way: usize) -> usize {
        set * self.geometry.ways + way
    }
}

impl TlbReplacementPolicy for Srrip {
    fn name(&self) -> &str {
        "srrip"
    }

    fn choose_victim(&mut self, acc: &TlbAccess) -> usize {
        loop {
            for way in 0..self.geometry.ways {
                if self.rrpv[self.idx(acc.set, way)] == RRPV_MAX {
                    return way;
                }
            }
            // Age the set until a distant entry exists.
            for way in 0..self.geometry.ways {
                let i = self.idx(acc.set, way);
                self.rrpv[i] += 1;
            }
        }
    }

    fn on_hit(&mut self, acc: &TlbAccess, way: usize) {
        let i = self.idx(acc.set, way);
        self.rrpv[i] = 0;
    }

    fn on_fill(&mut self, acc: &TlbAccess, way: usize) {
        let i = self.idx(acc.set, way);
        self.rrpv[i] = RRPV_LONG;
    }

    fn predicts_dead(&self, set: usize, way: usize) -> Option<bool> {
        // A distant re-reference prediction is RRIP's notion of "dead".
        Some(self.rrpv[self.idx(set, way)] == RRPV_MAX)
    }

    /// Reads no control flow: replay forwards no control event.
    fn history(&self) -> Option<crate::policy::History> {
        Some(crate::policy::History::Empty)
    }

    fn storage(&self) -> PolicyStorage {
        PolicyStorage {
            metadata_bits: u64::from(RRPV_BITS) * self.geometry.entries as u64,
            register_bits: 0,
            table_bits: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TranslationKind;

    fn acc(set: usize) -> TlbAccess {
        TlbAccess { pc: 0, vpn: 0, kind: TranslationKind::Data, set }
    }

    #[test]
    fn fresh_insertions_age_before_reused_entries() {
        let geom = TlbGeometry { entries: 4, ways: 4 };
        let mut p = Srrip::new(geom);
        for way in 0..4 {
            p.on_fill(&acc(0), way);
        }
        p.on_hit(&acc(0), 1); // way 1 promoted to RRPV 0
                              // Victim: everyone but way 1 is at RRPV 2 → aged to 3; way 0 chosen
                              // (first scan order).
        let v = p.choose_victim(&acc(0));
        assert_ne!(v, 1, "recently reused entry must not be the victim");
    }

    #[test]
    fn aging_terminates_and_is_bounded() {
        let geom = TlbGeometry { entries: 2, ways: 2 };
        let mut p = Srrip::new(geom);
        p.on_fill(&acc(0), 0);
        p.on_hit(&acc(0), 0);
        p.on_fill(&acc(0), 1);
        p.on_hit(&acc(0), 1);
        // Both at 0; aging must raise both to RRPV_MAX and pick way 0.
        assert_eq!(p.choose_victim(&acc(0)), 0);
        assert!(p.rrpv.iter().all(|&r| r <= RRPV_MAX));
    }

    #[test]
    fn storage_two_bits_per_entry() {
        let p = Srrip::new(TlbGeometry::default());
        assert_eq!(p.storage().metadata_bits, 2 * 1024);
    }
}
