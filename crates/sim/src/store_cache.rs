//! Bridge between the simulator and `chirp-store`: run-ledger keys and the
//! [`BenchRun`] ⇄ ledger-record mapping.
//!
//! The store crate is deliberately generic — it persists flat JSON objects
//! and leaves key semantics to callers — so everything that knows about
//! `SimConfig`, `PolicyKind` and `RunResult` lives here.

use crate::config::SimConfig;
use crate::metrics::RunResult;
use crate::registry::PolicyKind;
use crate::runner::BenchRun;
use chirp_store::{Fnv64, JsonObject};
use chirp_tlb::TlbStats;
use chirp_trace::{suite::GEN_CODE_VERSION, workload_family, Category};

/// Version of the run-key scheme. Participates in every key, so bumping it
/// invalidates all ledger entries at once (e.g. when the simulator's
/// timing model changes in a way `SimConfig` does not capture).
///
/// v2: code identity (policy + generator version strings) entered the key,
/// so results cached by older simulation code stopped matching.
pub const RUN_KEY_VERSION: u32 = 2;

/// Version of the flat ledger-record schema written by [`record_from_run`].
///
/// v1 records (no `schema` field) carried only the benchmark identity and
/// raw counters; v2 adds the code identity (`code_policy`, `code_gen`),
/// the `walk_penalty` the run was timed with, and the derived `workload`
/// family. [`migrate_record`] lifts v1 lines to the v2 shape so old
/// ledgers stay readable by the query layer.
pub const RECORD_SCHEMA_VERSION: u64 = 2;

/// Value [`migrate_record`] fills into code-identity fields that v1
/// records never carried.
pub const PRE_V2_CODE: &str = "pre-v2";

/// The code-identity component of a run key: version strings for the
/// policy implementation and the trace generators that produced the run.
/// Hashing these into the key makes cached results self-invalidating —
/// edit a policy's `code_version` (or [`GEN_CODE_VERSION`]) and exactly
/// the runs that code produced stop matching, so they re-run; everything
/// else keeps answering from the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeIdentity<'a> {
    /// The policy implementation version ([`PolicyKind::code_version`]).
    pub policy: &'a str,
    /// The trace-generator version ([`GEN_CODE_VERSION`]).
    pub generator: &'a str,
}

impl CodeIdentity<'static> {
    /// The identity of the code compiled into this binary for `policy`.
    pub fn current(policy: &PolicyKind) -> CodeIdentity<'static> {
        CodeIdentity { policy: policy.code_version(), generator: GEN_CODE_VERSION }
    }
}

/// Content key identifying one (config × policy × benchmark × length) run
/// under the current code identity — what [`crate::runner::run_suite_streamed`]
/// and `chirp-serve` look up and record under.
///
/// The simulator configuration and the policy enter through their `Debug`
/// representations, which spell out every parameter — so a Figure 6
/// ablation's `Chirp(ChirpConfig { .. })` variants get distinct keys even
/// though they share the display name `"chirp"`, and any `SimConfig` field
/// change (walk penalty sweeps, geometry edits) invalidates exactly the
/// runs it affects. Thread count deliberately does not participate:
/// parallelism cannot change results.
pub fn run_key(sim: &SimConfig, policy: &PolicyKind, benchmark: &str, instructions: usize) -> u64 {
    run_key_with_identity(sim, policy, benchmark, instructions, &CodeIdentity::current(policy))
}

/// [`run_key`] under an explicit code identity. Exists so tests (and any
/// future multi-version tooling) can compute the key an *edited* policy or
/// generator would produce without recompiling; production paths always go
/// through [`run_key`], which pins the identity to the compiled code.
pub fn run_key_with_identity(
    sim: &SimConfig,
    policy: &PolicyKind,
    benchmark: &str,
    instructions: usize,
    identity: &CodeIdentity<'_>,
) -> u64 {
    let mut h = Fnv64::new();
    h.update_field(&format!("{sim:?}"))
        .update_field(&format!("{policy:?}"))
        .update_field(benchmark)
        .update_u64(instructions as u64)
        .update_u64(u64::from(RUN_KEY_VERSION))
        .update_field(identity.policy)
        .update_field(identity.generator);
    h.finish()
}

/// Serialises a completed run into a flat v2 ledger record: the raw
/// counters plus the provenance the query layer filters on — schema
/// version, code identity, the walk penalty the run was timed with, and
/// the workload family derived from the benchmark name.
pub fn record_from_run(run: &BenchRun, sim: &SimConfig, policy: &PolicyKind) -> JsonObject {
    let identity = CodeIdentity::current(policy);
    let r = &run.result;
    let mut obj = JsonObject::new();
    obj.set_u64("schema", RECORD_SCHEMA_VERSION)
        .set_str("benchmark", &run.benchmark)
        .set_str("category", run.category.label())
        .set_str("workload", workload_family(&run.benchmark))
        .set_str("policy", &r.policy)
        .set_str("code_policy", identity.policy)
        .set_str("code_gen", identity.generator)
        .set_u64("walk_penalty", sim.tlb.walk_penalty)
        .set_u64("instructions", r.instructions)
        .set_u64("cycles", r.cycles)
        .set_u64("hits", r.l2_tlb.hits)
        .set_u64("misses", r.l2_tlb.misses)
        .set_u64("dead_evictions", r.l2_tlb.dead_evictions)
        .set_u64("cold_fills", r.l2_tlb.cold_fills)
        .set_u64("l2_accesses", r.l2_accesses)
        .set_u64("prediction_table_accesses", r.prediction_table_accesses)
        .set_u64("l2_accesses_total", r.l2_accesses_total)
        .set_f64("efficiency", r.efficiency);
    obj
}

/// Lifts a ledger record of any schema version to the current (v2) shape.
///
/// v1 lines (written before the `schema` field existed) gain
/// `schema`, the `workload` family derived from their benchmark name, and
/// [`PRE_V2_CODE`] code-identity markers; every field they did carry is
/// preserved byte-for-byte, so migration round-trips (v1 → migrate →
/// re-emit → parse) lose nothing. `walk_penalty` stays absent on migrated
/// lines — v1 never recorded it, and inventing a value would let a query
/// silently mix sweep points. Records already at v2 (or newer) pass
/// through untouched.
pub fn migrate_record(obj: &JsonObject) -> JsonObject {
    if obj.u64_field("schema").unwrap_or(1) >= RECORD_SCHEMA_VERSION {
        return obj.clone();
    }
    let mut out = obj.clone();
    out.set_u64("schema", RECORD_SCHEMA_VERSION)
        .set_str("code_policy", PRE_V2_CODE)
        .set_str("code_gen", PRE_V2_CODE);
    if let Some(benchmark) = obj.str_field("benchmark") {
        let family = workload_family(benchmark).to_string();
        out.set_str("workload", &family);
    }
    out
}

/// Rebuilds a [`BenchRun`] from a ledger record. Returns `None` when any
/// field is missing or mistyped (e.g. a record written by an incompatible
/// build), which callers treat as a cache miss.
pub fn run_from_record(obj: &JsonObject) -> Option<BenchRun> {
    Some(BenchRun {
        benchmark: obj.str_field("benchmark")?.to_string(),
        category: category_from_label(obj.str_field("category")?)?,
        result: RunResult {
            policy: obj.str_field("policy")?.to_string(),
            instructions: obj.u64_field("instructions")?,
            cycles: obj.u64_field("cycles")?,
            l2_tlb: TlbStats {
                hits: obj.u64_field("hits")?,
                misses: obj.u64_field("misses")?,
                dead_evictions: obj.u64_field("dead_evictions")?,
                cold_fills: obj.u64_field("cold_fills")?,
            },
            l2_accesses: obj.u64_field("l2_accesses")?,
            prediction_table_accesses: obj.u64_field("prediction_table_accesses")?,
            l2_accesses_total: obj.u64_field("l2_accesses_total")?,
            efficiency: obj.f64_field("efficiency")?,
        },
    })
}

fn category_from_label(label: &str) -> Option<Category> {
    Category::ALL.into_iter().find(|c| c.label() == label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chirp_core::ChirpConfig;

    fn sample_run() -> BenchRun {
        BenchRun {
            benchmark: "web.serve.h512z0.8.1a2b#s3".to_string(),
            category: Category::Web,
            result: RunResult {
                policy: "chirp".to_string(),
                instructions: 500_000,
                cycles: 1_234_567,
                l2_tlb: TlbStats { hits: 400, misses: 99, dead_evictions: 7, cold_fills: 3 },
                l2_accesses: 499,
                prediction_table_accesses: 512,
                l2_accesses_total: 998,
                efficiency: 0.875,
            },
        }
    }

    #[test]
    fn record_roundtrips_bench_run() {
        let run = sample_run();
        let obj = record_from_run(&run, &SimConfig::default(), &PolicyKind::Lru);
        // Through the wire format, as the ledger stores it.
        let decoded = JsonObject::parse(&obj.to_json()).unwrap();
        assert_eq!(run_from_record(&decoded), Some(run));
    }

    #[test]
    fn record_carries_v2_provenance() {
        let sim = SimConfig::default();
        let obj = record_from_run(&sample_run(), &sim, &PolicyKind::Lru);
        assert_eq!(obj.u64_field("schema"), Some(RECORD_SCHEMA_VERSION));
        assert_eq!(obj.str_field("workload"), Some("serve"));
        assert_eq!(obj.str_field("code_policy"), Some(PolicyKind::Lru.code_version()));
        assert_eq!(obj.str_field("code_gen"), Some(GEN_CODE_VERSION));
        assert_eq!(obj.u64_field("walk_penalty"), Some(sim.tlb.walk_penalty));
    }

    #[test]
    fn every_category_label_roundtrips() {
        for cat in Category::ALL {
            assert_eq!(category_from_label(cat.label()), Some(cat));
        }
        assert_eq!(category_from_label("nope"), None);
    }

    #[test]
    fn incomplete_record_reads_as_miss() {
        let mut obj = record_from_run(&sample_run(), &SimConfig::default(), &PolicyKind::Lru);
        obj.set_str("category", "not-a-category");
        assert_eq!(run_from_record(&obj), None);
    }

    /// A ledger line exactly as PR 1 wrote it (no schema/provenance
    /// fields); the shape migration and the cache reader must both keep
    /// handling.
    const V1_LINE: &str =
        "{\"benchmark\":\"crypto.stream.t256l2.9ab1#s0\",\"category\":\"crypto\",\
        \"cold_fills\":3,\"cycles\":1234567,\"dead_evictions\":7,\"efficiency\":0.875,\
        \"hits\":400,\"instructions\":500000,\"key\":\"00000000000000aa\",\"l2_accesses\":499,\
        \"l2_accesses_total\":998,\"misses\":99,\"policy\":\"lru\",\
        \"prediction_table_accesses\":512}";

    #[test]
    fn v1_record_migrates_and_roundtrips() {
        let v1 = JsonObject::parse(V1_LINE).unwrap();
        assert_eq!(v1.u64_field("schema"), None, "fixture must be schema-less");
        let migrated = migrate_record(&v1);
        assert_eq!(migrated.u64_field("schema"), Some(RECORD_SCHEMA_VERSION));
        assert_eq!(migrated.str_field("workload"), Some("stream"));
        assert_eq!(migrated.str_field("code_policy"), Some(PRE_V2_CODE));
        assert_eq!(migrated.str_field("code_gen"), Some(PRE_V2_CODE));
        assert_eq!(migrated.u64_field("walk_penalty"), None, "v1 never recorded the penalty");

        // Re-emit and re-parse: nothing the v1 line carried may change.
        let reparsed = JsonObject::parse(&migrated.to_json()).unwrap();
        for field in ["benchmark", "category", "policy", "key"] {
            assert_eq!(reparsed.str_field(field), v1.str_field(field), "{field}");
        }
        for field in [
            "instructions",
            "cycles",
            "hits",
            "misses",
            "dead_evictions",
            "cold_fills",
            "l2_accesses",
            "prediction_table_accesses",
            "l2_accesses_total",
        ] {
            assert_eq!(reparsed.u64_field(field), v1.u64_field(field), "{field}");
        }
        assert_eq!(reparsed.f64_field("efficiency"), v1.f64_field("efficiency"));
        // The cache reader accepts both shapes.
        assert!(run_from_record(&v1).is_some());
        assert_eq!(run_from_record(&reparsed), run_from_record(&v1));
        // Migration is idempotent.
        assert_eq!(migrate_record(&migrated), migrated);
    }

    #[test]
    fn editing_one_policy_version_invalidates_only_its_keys() {
        let sim = SimConfig::default();
        let lru_now = run_key(&sim, &PolicyKind::Lru, "b", 1000);
        let chirp_kind = PolicyKind::Chirp(ChirpConfig::default());
        let chirp_now = run_key(&sim, &chirp_kind, "b", 1000);

        // Simulate editing CHiRP's implementation: its version string
        // changes, LRU's does not.
        let edited = CodeIdentity { policy: "chirp/2-edited", generator: GEN_CODE_VERSION };
        let chirp_edited = run_key_with_identity(&sim, &chirp_kind, "b", 1000, &edited);
        assert_ne!(chirp_now, chirp_edited, "edited policy code must miss the cache");

        let lru_identity = CodeIdentity::current(&PolicyKind::Lru);
        let lru_after = run_key_with_identity(&sim, &PolicyKind::Lru, "b", 1000, &lru_identity);
        assert_eq!(lru_now, lru_after, "untouched policies keep hitting");

        // A generator edit invalidates runs of every policy.
        let gen_edit = CodeIdentity { policy: PolicyKind::Lru.code_version(), generator: "gen/2" };
        assert_ne!(lru_now, run_key_with_identity(&sim, &PolicyKind::Lru, "b", 1000, &gen_edit));
    }

    #[test]
    fn key_distinguishes_every_identity_component() {
        let sim = SimConfig::default();
        let base = run_key(&sim, &PolicyKind::Lru, "b", 1000);
        assert_ne!(base, run_key(&sim, &PolicyKind::Srrip, "b", 1000));
        assert_ne!(base, run_key(&sim, &PolicyKind::Lru, "c", 1000));
        assert_ne!(base, run_key(&sim, &PolicyKind::Lru, "b", 2000));
        let mut other = sim;
        other.warmup_fraction *= 0.5;
        assert_ne!(base, run_key(&other, &PolicyKind::Lru, "b", 1000));
    }

    #[test]
    fn chirp_ablation_variants_get_distinct_keys() {
        // Display name collapses to "chirp" for every ChirpConfig; the key
        // must still tell Figure 6 ablation rows apart.
        let sim = SimConfig::default();
        let full = PolicyKind::Chirp(ChirpConfig::default());
        let ablated = PolicyKind::Chirp(ChirpConfig { path_length: 1, ..Default::default() });
        assert_eq!(full.name(), ablated.name());
        assert_ne!(run_key(&sim, &full, "b", 1000), run_key(&sim, &ablated, "b", 1000));
    }
}
