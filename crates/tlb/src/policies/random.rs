//! Random replacement.

use crate::policy::{PolicyStorage, TlbReplacementPolicy};
use crate::types::{TlbAccess, TlbGeometry};
use chirp_trace::rng::Xoshiro256pp;

/// Random victim selection (seeded, so runs stay reproducible).
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    rng: Xoshiro256pp,
    ways: usize,
}

impl RandomPolicy {
    /// Creates the policy for `geometry` with a deterministic `seed`.
    pub fn new(geometry: TlbGeometry, seed: u64) -> Self {
        RandomPolicy { rng: Xoshiro256pp::seed_from_u64(seed), ways: geometry.ways }
    }
}

impl TlbReplacementPolicy for RandomPolicy {
    fn name(&self) -> &str {
        "random"
    }

    fn choose_victim(&mut self, _acc: &TlbAccess) -> usize {
        self.rng.gen_range(0..self.ways as u64) as usize
    }

    fn on_hit(&mut self, _acc: &TlbAccess, _way: usize) {}

    fn on_fill(&mut self, _acc: &TlbAccess, _way: usize) {}

    /// Keeps no branch history and consumes no signatures: replay can
    /// drop every control event.
    fn replay_hints(&self, _sig_code: u64) -> crate::policy::ReplayHints {
        crate::policy::ReplayHints::none()
    }

    fn storage(&self) -> PolicyStorage {
        PolicyStorage::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TranslationKind;

    #[test]
    fn victims_in_range_and_varied() {
        let mut p = RandomPolicy::new(TlbGeometry::default(), 1);
        let acc = TlbAccess { pc: 0, vpn: 0, kind: TranslationKind::Data, set: 0 };
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let v = p.choose_victim(&acc);
            assert!(v < 8);
            seen.insert(v);
        }
        assert!(seen.len() > 4, "victims should spread over the ways");
    }

    #[test]
    fn deterministic_per_seed() {
        let acc = TlbAccess { pc: 0, vpn: 0, kind: TranslationKind::Data, set: 0 };
        let mut a = RandomPolicy::new(TlbGeometry::default(), 7);
        let mut b = RandomPolicy::new(TlbGeometry::default(), 7);
        for _ in 0..32 {
            assert_eq!(a.choose_victim(&acc), b.choose_victim(&acc));
        }
    }

    #[test]
    fn no_storage_cost() {
        let p = RandomPolicy::new(TlbGeometry::default(), 0);
        assert_eq!(p.storage().total_bits(), 0);
    }
}
