//! The replacement-policy interface every policy implements.
//!
//! The L2 TLB owns the entry keys (tag and valid bit in one word); a
//! policy owns whatever per-entry metadata it needs (LRU stacks, RRPVs,
//! signatures, dead bits) plus any prediction tables, and reacts to the
//! TLB's callbacks. The interface also exposes the two accounting hooks
//! the paper's evaluation needs: prediction-table access counts (Figure
//! 11) and storage overhead (Table I / §VI-H).

use crate::types::TlbAccess;
use chirp_trace::BranchClass;

/// Storage accounting for a policy (Table I style).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStorage {
    /// Bits of metadata stored per TLB entry, summed over all entries.
    pub metadata_bits: u64,
    /// Bits of global state (history registers).
    pub register_bits: u64,
    /// Bits of prediction tables.
    pub table_bits: u64,
}

impl PolicyStorage {
    /// Total storage in bits.
    pub fn total_bits(&self) -> u64 {
        self.metadata_bits + self.register_bits + self.table_bits
    }

    /// Total storage in bytes (rounded up).
    pub fn total_bytes(&self) -> u64 {
        self.total_bits().div_ceil(8)
    }
}

/// The shape of CHiRP's signature registers (paper §IV-B): the fields of
/// `chirp_core::ChirpConfig` that change signature *values*. Table size,
/// counter width and thresholds consume signatures without shaping them,
/// so they are not part of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignatureSpec {
    /// Path-history events retained.
    pub path_length: u32,
    /// Two injected zero bits per path event.
    pub inject_zeros: bool,
    /// The path history enters the signature.
    pub use_path: bool,
    /// The conditional-branch history enters the signature.
    pub use_cond: bool,
    /// The indirect-branch history enters the signature.
    pub use_uncond: bool,
    /// The shifted access PC enters the signature.
    pub use_pc: bool,
    /// Branch-history events retained.
    pub branch_length: u32,
    /// Pseudo wrong-path events folded in per misprediction (0: the
    /// paper's committed history).
    pub wrong_path_pollution: u32,
}

impl SignatureSpec {
    /// Identity code of the spec: an FNV-1a fold of its fields. Equal
    /// specs have equal codes.
    pub fn code(&self) -> u64 {
        let mut code = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        for field in [
            u64::from(self.path_length),
            u64::from(self.inject_zeros),
            u64::from(self.use_path),
            u64::from(self.use_cond),
            u64::from(self.use_uncond),
            u64::from(self.use_pc),
            u64::from(self.branch_length),
            u64::from(self.wrong_path_pollution),
        ] {
            code ^= field;
            code = code.wrapping_mul(0x0000_0100_0000_01b3);
        }
        code
    }
}

/// The control-flow history a policy's decisions read, declared so that
/// factored replay can run it in the front end, once per group, instead
/// of every back end walking every branch and misprediction.
///
/// A history turns the retired-branch and misprediction stream into one
/// 16-bit *key* per L2 access, computed before the access is folded into
/// it. Policies that declare equal histories read equal keys. The
/// runnable components are the policies' own: `chirp_core`'s
/// `SignatureBuilder`, [`OutcomeHistory`](crate::policies::OutcomeHistory)
/// and [`CondFeature`](crate::policies::CondFeature).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum History {
    /// The policy reads no branch and no misprediction, and takes no key
    /// (LRU, Random, the RRIP family, SHiP, OPT).
    Empty,
    /// CHiRP's path, conditional and indirect registers in this shape,
    /// its wrong-path pollution included; the key is the 16-bit
    /// signature.
    Signature(SignatureSpec),
    /// GHRP's outcome/PC register; the key is GHRP's signature.
    Outcome,
    /// Perceptron reuse's conditional-branch feature; the key is that
    /// feature's index into a table of `2^table_bits` weights.
    CondFeature {
        /// log2 entries of the feature's weight table.
        table_bits: u32,
    },
}

/// Replacement policy for a set-associative TLB.
///
/// Call protocol, per L2 TLB access:
///
/// 1. the TLB resolves hit/miss against its tags;
/// 2. on a hit, it calls [`on_hit`](Self::on_hit);
/// 3. on a miss with a free (invalid) way it calls
///    [`on_fill`](Self::on_fill) directly;
/// 4. on a miss with a full set it calls
///    [`choose_victim`](Self::choose_victim), then
///    [`on_evict`](Self::on_evict) for the chosen way, then
///    [`on_fill`](Self::on_fill) for the new entry in that way.
///
/// Control flow reaches a policy in one of two ways. The reference
/// simulator forwards every misprediction to
/// [`on_mispredict`](Self::on_mispredict) and every retired branch to
/// [`on_branch`](Self::on_branch), so history-based policies maintain
/// their own registers. Factored replay does the same for a policy whose
/// [`history`](Self::history) is `None`. For a policy that declares a
/// [`History`], it runs that history itself and instead calls
/// [`supply_key`](Self::supply_key) once before each access's `on_hit` or
/// `on_fill` (never for [`History::Empty`]), and forwards no control
/// event at all.
pub trait TlbReplacementPolicy {
    /// Short stable name for reports (e.g. `"lru"`, `"chirp"`).
    fn name(&self) -> &str;

    /// Picks the way to evict in `acc.set`. All ways are valid when this is
    /// called. Must return a way index `< ways`.
    fn choose_victim(&mut self, acc: &TlbAccess) -> usize;

    /// The access hit `way` in `acc.set`.
    fn on_hit(&mut self, acc: &TlbAccess, way: usize);

    /// A new entry for `acc.vpn` was installed in `way` of `acc.set`.
    fn on_fill(&mut self, acc: &TlbAccess, way: usize);

    /// The entry in (`set`, `way`) chosen by [`choose_victim`](Self::choose_victim)
    /// is being evicted (called before [`on_fill`](Self::on_fill)).
    fn on_evict(&mut self, _set: usize, _way: usize) {}

    /// A branch retired. History-based policies fold the PC into their
    /// registers (paper Algorithm 5, lines 22–26).
    fn on_branch(&mut self, _pc: u64, _class: BranchClass, _taken: bool) {}

    /// A branch mispredicted: the front end fetched down the wrong path
    /// before redirecting. Policies that maintain *speculative* histories
    /// without commit-time recovery model their pollution here; the
    /// paper's CHiRP keeps a committed history and ignores this (§VI-E).
    fn on_mispredict(&mut self, _pc: u64) {}

    /// Total reads + writes of prediction tables so far (Figure 11).
    fn prediction_table_accesses(&self) -> u64 {
        0
    }

    /// Evictions that picked a predicted-dead entry rather than the LRU
    /// fallback (0 for non-predictive policies).
    fn dead_eviction_count(&self) -> u64 {
        0
    }

    /// The policy's *current* reuse prediction for the entry in
    /// (`set`, `way`): `Some(true)` if it considers the entry dead,
    /// `Some(false)` if live, `None` for policies that keep no explicit
    /// prediction (LRU, Random, OPT).
    ///
    /// This is a read-only telemetry probe — implementations must not
    /// touch prediction tables or counters (in particular it must not
    /// count towards [`Self::prediction_table_accesses`]), so querying
    /// it cannot perturb
    /// simulation results. RRIP-family policies map a distant re-reference
    /// prediction (RRPV = max) to "dead".
    fn predicts_dead(&self, _set: usize, _way: usize) -> Option<bool> {
        None
    }

    /// Storage overhead breakdown (Table I / §VI-H).
    fn storage(&self) -> PolicyStorage;

    /// The control-flow history this policy's decisions read, in the
    /// state it starts from, or `None` when the policy does not say.
    /// Factored replay runs a declared history on the policy's behalf
    /// (see the call protocol above); a policy that declares none is
    /// replayed faithfully, every control event forwarded, so the
    /// default is always safe.
    fn history(&self) -> Option<History> {
        None
    }

    /// Hands the policy the key its declared [`History`] computes for
    /// the next L2 access: the policy uses it in place of what its own
    /// registers would compute, and leaves them untouched. The default
    /// drops it.
    fn supply_key(&mut self, _key: u16) {}

    /// Downcast hook for diagnostics tooling; policies that expose internal
    /// state override this to return `self`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Forwarding impl so a boxed policy satisfies `P: TlbReplacementPolicy`
/// bounds — the compatibility shim that lets `Box<dyn
/// TlbReplacementPolicy>` remain the default type parameter of the generic
/// TLB/simulator stack while monomorphized callers plug concrete policies
/// in directly.
impl<T: TlbReplacementPolicy + ?Sized> TlbReplacementPolicy for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn choose_victim(&mut self, acc: &TlbAccess) -> usize {
        (**self).choose_victim(acc)
    }

    fn on_hit(&mut self, acc: &TlbAccess, way: usize) {
        (**self).on_hit(acc, way)
    }

    fn on_fill(&mut self, acc: &TlbAccess, way: usize) {
        (**self).on_fill(acc, way)
    }

    fn on_evict(&mut self, set: usize, way: usize) {
        (**self).on_evict(set, way)
    }

    fn on_branch(&mut self, pc: u64, class: BranchClass, taken: bool) {
        (**self).on_branch(pc, class, taken)
    }

    fn on_mispredict(&mut self, pc: u64) {
        (**self).on_mispredict(pc)
    }

    fn prediction_table_accesses(&self) -> u64 {
        (**self).prediction_table_accesses()
    }

    fn dead_eviction_count(&self) -> u64 {
        (**self).dead_eviction_count()
    }

    fn predicts_dead(&self, set: usize, way: usize) -> Option<bool> {
        (**self).predicts_dead(set, way)
    }

    fn storage(&self) -> PolicyStorage {
        (**self).storage()
    }

    fn history(&self) -> Option<History> {
        (**self).history()
    }

    fn supply_key(&mut self, key: u16) {
        (**self).supply_key(key)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        (**self).as_any()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_totals() {
        let s = PolicyStorage { metadata_bits: 10, register_bits: 3, table_bits: 4 };
        assert_eq!(s.total_bits(), 17);
        assert_eq!(s.total_bytes(), 3);
    }

    #[test]
    fn zero_storage_is_zero_bytes() {
        assert_eq!(PolicyStorage::default().total_bytes(), 0);
    }
}
