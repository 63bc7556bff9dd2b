//! Policy registry: the set of policies the paper evaluates, constructible
//! by name for the experiment drivers.

use chirp_core::{Chirp, ChirpConfig};
use chirp_tlb::policies::{
    Drrip, Ghrp, GhrpConfig, Lru, PerceptronConfig, PerceptronReuse, RandomPolicy, ShipConfig,
    ShipTlb, Srrip,
};
use chirp_tlb::{PolicyStorage, ReplayHints, TlbAccess, TlbGeometry, TlbReplacementPolicy};
use chirp_trace::BranchClass;
use serde::{Deserialize, Serialize};

/// The policies under study (paper §V: LRU, Random, SRRIP, SHiP, GHRP,
/// CHiRP). Bélády-OPT is driven separately because it needs a recorded
/// oracle (see `chirp_tlb::policies::OptPolicy`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// True LRU.
    Lru,
    /// Random victim.
    Random,
    /// Static re-reference interval prediction.
    Srrip,
    /// Signature-based hit prediction (TLB adaptation).
    Ship,
    /// Global history reuse prediction (TLB adaptation).
    Ghrp,
    /// Control-flow history reuse prediction with the given configuration.
    Chirp(ChirpConfig),
    /// Dynamic RRIP (extension baseline, not in the paper's lineup).
    Drrip,
    /// Perceptron reuse prediction (extension baseline; the online form of
    /// the Teran et al. predictor the paper cites in §II-D).
    PerceptronReuse,
}

impl PolicyKind {
    /// The six policies of the paper's headline comparison, CHiRP last.
    pub fn paper_lineup() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Lru,
            PolicyKind::Random,
            PolicyKind::Srrip,
            PolicyKind::Ship,
            PolicyKind::Ghrp,
            PolicyKind::Chirp(ChirpConfig::default()),
        ]
    }

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Random => "random",
            PolicyKind::Srrip => "srrip",
            PolicyKind::Ship => "ship",
            PolicyKind::Ghrp => "ghrp",
            PolicyKind::Chirp(_) => "chirp",
            PolicyKind::Drrip => "drrip",
            PolicyKind::PerceptronReuse => "perceptron",
        }
    }

    /// Code-identity version of this policy's *implementation*. The string
    /// participates in the run-ledger key (`chirp_sim::store_cache::run_key`),
    /// so bumping a policy's version when its victim-selection or update
    /// logic changes invalidates exactly the cached results that policy
    /// produced — every other policy's ledger entries stay valid. Config
    /// changes never need a bump: the full `PolicyKind` debug string (all
    /// parameters) is hashed into the key separately.
    pub fn code_version(&self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru/1",
            PolicyKind::Random => "random/1",
            PolicyKind::Srrip => "srrip/1",
            PolicyKind::Ship => "ship/1",
            PolicyKind::Ghrp => "ghrp/1",
            PolicyKind::Chirp(_) => "chirp/1",
            PolicyKind::Drrip => "drrip/1",
            PolicyKind::PerceptronReuse => "perceptron/1",
        }
    }

    /// Parses a policy from its command-line/wire spelling: every
    /// [`name`](Self::name) plus `chirp-p<N>` for a CHiRP variant with
    /// path length `N` (the spelling `policy_label` in `chirp-bench`
    /// prints). The inverse of the display names, so tools can round-trip
    /// a lineup through text.
    pub fn parse(name: &str) -> Option<PolicyKind> {
        match name {
            "lru" => Some(PolicyKind::Lru),
            "random" => Some(PolicyKind::Random),
            "srrip" => Some(PolicyKind::Srrip),
            "ship" => Some(PolicyKind::Ship),
            "ghrp" => Some(PolicyKind::Ghrp),
            "chirp" => Some(PolicyKind::Chirp(ChirpConfig::default())),
            "drrip" => Some(PolicyKind::Drrip),
            "perceptron" => Some(PolicyKind::PerceptronReuse),
            other => {
                let path_length: u32 = other.strip_prefix("chirp-p")?.parse().ok()?;
                let config = ChirpConfig { path_length, ..ChirpConfig::default() };
                config.validate().ok()?;
                Some(PolicyKind::Chirp(config))
            }
        }
    }

    /// Instantiates the policy as an enum-dispatched [`PolicyDispatch`]
    /// for the monomorphized hot loop. Deterministic: the same
    /// `(geometry, seed)` always yields the same initial policy state.
    pub fn build_dispatch(&self, geometry: TlbGeometry, seed: u64) -> PolicyDispatch {
        match self {
            PolicyKind::Lru => PolicyDispatch::Lru(Lru::new(geometry)),
            PolicyKind::Random => PolicyDispatch::Random(RandomPolicy::new(geometry, seed)),
            PolicyKind::Srrip => PolicyDispatch::Srrip(Srrip::new(geometry)),
            PolicyKind::Ship => PolicyDispatch::Ship(ShipTlb::new(geometry, ShipConfig::default())),
            PolicyKind::Ghrp => PolicyDispatch::Ghrp(Ghrp::new(geometry, GhrpConfig::default())),
            PolicyKind::Chirp(config) => {
                PolicyDispatch::Chirp(Box::new(Chirp::new(geometry, *config)))
            }
            PolicyKind::Drrip => PolicyDispatch::Drrip(Drrip::new(geometry)),
            PolicyKind::PerceptronReuse => PolicyDispatch::Perceptron(PerceptronReuse::new(
                geometry,
                PerceptronConfig::default(),
            )),
        }
    }
}

/// Closed enum over the in-tree replacement policies.
///
/// Plugging this into `Simulator<PolicyDispatch>` replaces the per-call
/// vtable lookup of `Box<dyn TlbReplacementPolicy>` with a jump table the
/// compiler can see through, letting the `translate → access →
/// choose_victim` chain inline. The CHiRP variant stays boxed (its state is
/// by far the largest) so the enum itself stays small.
#[derive(Debug)]
pub enum PolicyDispatch {
    /// True LRU.
    Lru(Lru),
    /// Random victim.
    Random(RandomPolicy),
    /// Static RRIP.
    Srrip(Srrip),
    /// SHiP (TLB adaptation).
    Ship(ShipTlb),
    /// GHRP (TLB adaptation).
    Ghrp(Ghrp),
    /// CHiRP.
    Chirp(Box<Chirp>),
    /// Dynamic RRIP.
    Drrip(Drrip),
    /// Perceptron reuse prediction.
    Perceptron(PerceptronReuse),
}

macro_rules! dispatch {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            PolicyDispatch::Lru($p) => $body,
            PolicyDispatch::Random($p) => $body,
            PolicyDispatch::Srrip($p) => $body,
            PolicyDispatch::Ship($p) => $body,
            PolicyDispatch::Ghrp($p) => $body,
            PolicyDispatch::Chirp($p) => $body,
            PolicyDispatch::Drrip($p) => $body,
            PolicyDispatch::Perceptron($p) => $body,
        }
    };
}

impl TlbReplacementPolicy for PolicyDispatch {
    fn name(&self) -> &str {
        dispatch!(self, p => p.name())
    }

    #[inline]
    fn choose_victim(&mut self, acc: &TlbAccess) -> usize {
        dispatch!(self, p => p.choose_victim(acc))
    }

    #[inline]
    fn on_hit(&mut self, acc: &TlbAccess, way: usize) {
        dispatch!(self, p => p.on_hit(acc, way))
    }

    #[inline]
    fn on_fill(&mut self, acc: &TlbAccess, way: usize) {
        dispatch!(self, p => p.on_fill(acc, way))
    }

    #[inline]
    fn on_evict(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_evict(set, way))
    }

    #[inline]
    fn on_branch(&mut self, pc: u64, class: BranchClass, taken: bool) {
        dispatch!(self, p => p.on_branch(pc, class, taken))
    }

    #[inline]
    fn on_mispredict(&mut self, pc: u64) {
        dispatch!(self, p => p.on_mispredict(pc))
    }

    fn prediction_table_accesses(&self) -> u64 {
        dispatch!(self, p => p.prediction_table_accesses())
    }

    fn dead_eviction_count(&self) -> u64 {
        dispatch!(self, p => p.dead_eviction_count())
    }

    fn predicts_dead(&self, set: usize, way: usize) -> Option<bool> {
        dispatch!(self, p => p.predicts_dead(set, way))
    }

    fn storage(&self) -> PolicyStorage {
        dispatch!(self, p => p.storage())
    }

    fn replay_hints(&self, sig_code: u64) -> ReplayHints {
        dispatch!(self, p => p.replay_hints(sig_code))
    }

    #[inline]
    fn supply_signature(&mut self, sig: u16) {
        dispatch!(self, p => p.supply_signature(sig))
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        dispatch!(self, p => p.as_any())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_matches_paper_order() {
        let names: Vec<&str> = PolicyKind::paper_lineup().iter().map(|p| p.name()).collect();
        assert_eq!(names, ["lru", "random", "srrip", "ship", "ghrp", "chirp"]);
    }

    #[test]
    fn build_produces_matching_names() {
        let geom = TlbGeometry::default();
        for kind in PolicyKind::paper_lineup() {
            let policy = kind.build_dispatch(geom, 0);
            assert_eq!(policy.name(), kind.name());
        }
    }

    #[test]
    fn parse_inverts_every_display_name() {
        let mut lineup = PolicyKind::paper_lineup();
        lineup.push(PolicyKind::Drrip);
        lineup.push(PolicyKind::PerceptronReuse);
        for kind in &lineup {
            assert_eq!(PolicyKind::parse(kind.name()).as_ref(), Some(kind));
        }
        assert_eq!(
            PolicyKind::parse("chirp-p8"),
            Some(PolicyKind::Chirp(ChirpConfig { path_length: 8, ..ChirpConfig::default() }))
        );
        assert_eq!(PolicyKind::parse("belady"), None);
        assert_eq!(PolicyKind::parse("chirp-p"), None);
        assert_eq!(PolicyKind::parse("chirp-p0"), None, "invalid config must not parse");
        assert_eq!(PolicyKind::parse(""), None);
    }

    #[test]
    fn chirp_storage_is_smallest_predictive_policy() {
        // §VI-H: CHiRP needs one table vs GHRP's three.
        let geom = TlbGeometry::default();
        let chirp = PolicyKind::Chirp(ChirpConfig::default()).build_dispatch(geom, 0);
        let ghrp = PolicyKind::Ghrp.build_dispatch(geom, 0);
        assert!(chirp.storage().table_bits < ghrp.storage().table_bits);
    }
}
