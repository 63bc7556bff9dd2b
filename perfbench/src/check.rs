//! Workload inputs from a seed, result digests, and the reference
//! digests every simulated result is checked against.

use chirp_serve::wire::PolicyVerdict;
use chirp_sim::{PolicyKind, RunResult, SimConfig, Simulator};
use chirp_store::Fnv64;
use chirp_trace::suite::{build_suite, BenchmarkSpec, SuiteConfig, PAPER_SUITE_SIZE};
use chirp_trace::workload_family;
use chirp_trace::PackedTrace;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The 9-policy extended lineup `run_all` and `full_suite` run: the
/// paper's six, then DRRIP, perceptron reuse and 8-entry-path CHiRP.
pub const LINEUP9: [&str; 9] =
    ["lru", "random", "srrip", "ship", "ghrp", "chirp", "drrip", "perceptron", "chirp-p8"];

/// The paper's six-policy lineup (the first six of [`LINEUP9`]).
pub const PAPER6: &[&str] =
    &[LINEUP9[0], LINEUP9[1], LINEUP9[2], LINEUP9[3], LINEUP9[4], LINEUP9[5]];

/// Parses policy labels through the simulator's registry.
pub fn policies(labels: &[&str]) -> Vec<PolicyKind> {
    labels.iter().map(|l| PolicyKind::parse(l).expect("label is a registered policy")).collect()
}

/// `benchmarks` entries of the suite's fixed generator grid, taken round
/// robin over the generator families in grid order so that any 8 or more
/// cover all 8 default families, each with its generator seed drawn from
/// `seed`. Families and parameters never change with the seed; only the
/// random decisions inside each generator do (the stencil and loop-nest
/// generators make none, so their traces are the same at every seed).
pub fn suite(seed: u64, benchmarks: usize) -> Vec<BenchmarkSpec> {
    let mut families: Vec<(String, Vec<BenchmarkSpec>)> = Vec::new();
    for bench in build_suite(&SuiteConfig { benchmarks: PAPER_SUITE_SIZE }) {
        let family = workload_family(&bench.name).to_string();
        match families.iter_mut().find(|(f, _)| *f == family) {
            Some((_, members)) => members.push(bench),
            None => families.push((family, vec![bench])),
        }
    }
    let round_robin =
        (0..).flat_map(|round| families.iter().filter_map(move |(_, m)| m.get(round)));
    round_robin
        .take(benchmarks)
        .enumerate()
        .map(|(i, bench)| {
            let mut bench = bench.clone();
            bench.seed = splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 20;
            let stem = bench.name.rsplit_once("#s").map_or(bench.name.as_str(), |(stem, _)| stem);
            bench.name = format!("{stem}#s{}", bench.seed);
            bench
        })
        .collect()
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Digest of one simulated result: every counter plus the bit patterns
/// of the two floating-point metrics a client sees.
pub fn digest_result(r: &RunResult) -> u64 {
    digest_fields([
        r.instructions,
        r.cycles,
        r.l2_tlb.hits,
        r.l2_tlb.misses,
        r.l2_tlb.dead_evictions,
        r.l2_tlb.cold_fills,
        r.l2_accesses,
        r.prediction_table_accesses,
        r.l2_accesses_total,
        r.efficiency.to_bits(),
        r.mpki().to_bits(),
    ])
}

/// Digest of one served policy verdict; equals [`digest_result`] of the
/// result it reports.
pub fn digest_verdict(v: &PolicyVerdict) -> u64 {
    digest_fields([
        v.instructions,
        v.cycles,
        v.hits,
        v.misses,
        v.dead_evictions,
        v.cold_fills,
        v.l2_accesses,
        v.prediction_table_accesses,
        v.l2_accesses_total,
        v.efficiency.to_bits(),
        v.mpki.to_bits(),
    ])
}

fn digest_fields(fields: [u64; 11]) -> u64 {
    let mut h = Fnv64::new();
    for f in fields {
        h.update_u64(f);
    }
    h.finish()
}

/// Reference digests of one trace, one per policy of `kinds`: each
/// (trace × policy) pair run alone through `Simulator::run_columnar`, the
/// oracle the repository's equivalence tests use. `seed` is the trace's
/// generator seed, which seeds the random policy as the measured paths do.
fn reference_digests(
    sim: &SimConfig,
    kinds: &[PolicyKind],
    seed: u64,
    trace: &PackedTrace,
) -> Vec<u64> {
    let workers = crate::stats::threads();
    let mut out = vec![0u64; kinds.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let mine = (w..kinds.len()).step_by(workers);
                    mine.map(|p| {
                        let policy = kinds[p].build_dispatch(sim.tlb.l2, seed);
                        let result = Simulator::with_policy(sim, policy)
                            .run_columnar(trace, sim.warmup_fraction);
                        (p, digest_result(&result))
                    })
                    .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (p, d) in handle.join().expect("reference worker panicked") {
                out[p] = d;
            }
        }
    });
    out
}

/// Reference digests `[benchmark][policy]` of `suite` under [`LINEUP9`],
/// from freshly generated traces of `instructions` records, so an input
/// the measured path corrupted cannot agree with itself. Where
/// `reference/seed-<seed>.txt` holds digests at this size, the fresh ones
/// must also equal them: that catches a change that moves the measured
/// path and the oracle alike.
pub fn reference(
    sim: &SimConfig,
    seed: u64,
    suite: &[BenchmarkSpec],
    instructions: usize,
) -> Result<Vec<Vec<u64>>, String> {
    let kinds = policies(&LINEUP9);
    let out: Vec<Vec<u64>> = suite
        .iter()
        .map(|b| reference_digests(sim, &kinds, b.seed, &b.generate_packed(instructions)))
        .collect();
    if let Some(stored) = stored_digests(seed, instructions)? {
        for (bench, fresh) in suite.iter().zip(&out) {
            if stored.get(&bench.name).is_some_and(|d| d != fresh) {
                return Err(format!("{} no longer matches {}", bench.name, stored_path(seed)));
            }
        }
    }
    Ok(out)
}

/// Reports a reference that could not be established and stands in an
/// empty one, against which every op fails.
pub fn no_reference(error: String) -> Vec<Vec<u64>> {
    eprintln!("error: {error}; every op counts as failed");
    Vec::new()
}

/// The stored reference file for `seed`, relative to the package.
fn stored_path(seed: u64) -> String {
    format!("reference/seed-{seed}.txt")
}

/// Digests by benchmark name from the stored file for `seed`, or `None`
/// when there is no file or it was written at another trace length.
fn stored_digests(
    seed: u64,
    instructions: usize,
) -> Result<Option<BTreeMap<String, Vec<u64>>>, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(stored_path(seed));
    match std::fs::read_to_string(&path) {
        Ok(text) => {
            parse_stored(&text, instructions).map_err(|e| format!("{}: {e}", stored_path(seed)))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Parses a stored reference file: `#` comment lines, an
/// `instructions <n>` line, then one line per benchmark — its name and
/// one hexadecimal digest per policy of [`LINEUP9`].
fn parse_stored(
    text: &str,
    instructions: usize,
) -> Result<Option<BTreeMap<String, Vec<u64>>>, String> {
    let mut lines = text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty());
    let written_at = lines
        .next()
        .and_then(|l| l.strip_prefix("instructions "))
        .and_then(|n| n.trim().parse::<usize>().ok())
        .ok_or("the first line must be `instructions <n>`")?;
    if written_at != instructions {
        return Ok(None);
    }
    let mut digests = BTreeMap::new();
    for line in lines {
        let mut fields = line.split_whitespace();
        let name = fields.next().unwrap_or_default().to_string();
        let row: Vec<u64> = fields
            .map(|f| u64::from_str_radix(f, 16))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("{name}: {e}"))?;
        if row.len() != LINEUP9.len() {
            return Err(format!("{name}: {} digests, expected {}", row.len(), LINEUP9.len()));
        }
        digests.insert(name, row);
    }
    Ok(Some(digests))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Seeds whose reference digests are stored: the default seed and the
    /// held-out seed.
    const STORED_SEEDS: [u64; 2] = [1, 90210];

    /// Rewrites `reference/seed-<n>.txt` for [`STORED_SEEDS`] at the
    /// lineup's size (which covers the other workloads' suites). Run it
    /// only when the simulated model changes on purpose:
    /// `cargo test --release --offline --manifest-path perfbench/Cargo.toml -- --ignored write_stored_reference`
    #[test]
    #[ignore = "rewrites the stored reference digests"]
    fn write_stored_reference() {
        let sim = SimConfig::default();
        let sizes = crate::lineup::SIZES;
        for seed in STORED_SEEDS {
            let suite = suite(seed, sizes.benchmarks);
            let mut text = format!(
                "# Reference digests (check::digest_result of Simulator::run_columnar) for\n\
                 # seed {seed}, policies {}.\ninstructions {}\n",
                LINEUP9.join(" "),
                sizes.instructions
            );
            for bench in &suite {
                let trace = bench.generate_packed(sizes.instructions);
                let row = reference_digests(&sim, &policies(&LINEUP9), bench.seed, &trace);
                let hex: Vec<String> = row.iter().map(|d| format!("{d:016x}")).collect();
                text.push_str(&format!("{} {}\n", bench.name, hex.join(" ")));
            }
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(stored_path(seed));
            std::fs::create_dir_all(path.parent().expect("file in a directory")).unwrap();
            std::fs::write(path, text).unwrap();
        }
    }

    #[test]
    fn stored_reference_matches_the_simulator() {
        let sim = SimConfig::default();
        let len = crate::lineup::SIZES.instructions;
        for seed in STORED_SEEDS {
            let stored = stored_digests(seed, len).unwrap().expect("a stored file at this size");
            assert_eq!(stored.len(), crate::lineup::SIZES.benchmarks);
            // One benchmark keeps the test short; every run of the
            // benchmark at a stored seed checks them all.
            let first = &suite(seed, 1)[0];
            let fresh = reference(&sim, seed, &suite(seed, 1), len).unwrap();
            assert_eq!(stored[&first.name], fresh[0]);
            assert_eq!(stored_digests(seed, len + 1).unwrap(), None, "other sizes are not covered");
        }
    }

    #[test]
    fn stored_reference_rejects_malformed_files() {
        assert!(parse_stored("", 10).is_err());
        assert!(parse_stored("instructions ten\n", 10).is_err());
        assert!(parse_stored("instructions 10\nb 1 2\n", 10).is_err());
        assert!(parse_stored("instructions 10\nb zz 1 1 1 1 1 1 1 1\n", 10).is_err());
        let ok = parse_stored("# note\ninstructions 10\nb 1 2 3 4 5 6 7 8 f\n", 10).unwrap();
        assert_eq!(ok.unwrap()["b"], vec![1, 2, 3, 4, 5, 6, 7, 8, 15]);
    }

    #[test]
    fn lineup_labels_parse_to_distinct_policies() {
        let kinds = policies(&LINEUP9);
        assert_eq!(kinds.len(), 9);
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_eq!(policies(PAPER6), PolicyKind::paper_lineup());
    }

    #[test]
    fn suites_cover_every_default_generator_family() {
        for n in [8, 16] {
            let families: BTreeSet<String> =
                suite(1, n).iter().map(|b| workload_family(&b.name).to_string()).collect();
            assert_eq!(families.len(), 8, "{n} benchmarks cover {families:?}");
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_traces() {
        let a = suite(7, 8);
        assert_eq!(a, suite(7, 8));
        let b = suite(8, 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec, y.spec, "the parameter grid is fixed");
            assert_ne!(x.seed, y.seed);
            assert_ne!(x.name, y.name);
        }
        let len = 20_000;
        let again = suite(7, 8);
        for ((x, y), z) in a.iter().zip(&b).zip(&again) {
            let trace = x.generate_packed(len);
            assert_eq!(trace, z.generate_packed(len));
            let seedless = ["stencil", "loops"].contains(&workload_family(&x.name));
            assert_eq!(trace == y.generate_packed(len), seedless, "{}", x.name);
        }
    }

    #[test]
    fn digests_are_stable_and_cover_every_field() {
        let sim = SimConfig::default();
        let bench = &suite(3, 8)[0];
        let trace = bench.generate_packed(20_000);
        let kinds = policies(&["lru", "chirp"]);
        let refs = reference_digests(&sim, &kinds, bench.seed, &trace);
        assert_eq!(refs, reference_digests(&sim, &kinds, bench.seed, &trace));
        assert_ne!(refs[0], refs[1]);

        let lru = Simulator::with_policy(&sim, kinds[0].build_dispatch(sim.tlb.l2, bench.seed))
            .run_columnar(&trace, sim.warmup_fraction);
        assert_eq!(digest_result(&lru), refs[0]);
        let mut changed = lru.clone();
        changed.efficiency = f64::from_bits(lru.efficiency.to_bits() ^ 1);
        assert_ne!(digest_result(&changed), refs[0], "one ulp of a float changes the digest");

        let verdict = PolicyVerdict {
            policy: "lru".into(),
            from_ledger: false,
            instructions: lru.instructions,
            cycles: lru.cycles,
            hits: lru.l2_tlb.hits,
            misses: lru.l2_tlb.misses,
            dead_evictions: lru.l2_tlb.dead_evictions,
            cold_fills: lru.l2_tlb.cold_fills,
            l2_accesses: lru.l2_accesses,
            prediction_table_accesses: lru.prediction_table_accesses,
            l2_accesses_total: lru.l2_accesses_total,
            efficiency: lru.efficiency,
            mpki: lru.mpki(),
        };
        assert_eq!(digest_verdict(&verdict), refs[0]);
    }

    #[test]
    fn digest_of_a_fixed_result_is_pinned() {
        // FNV-1a over fixed fields: the value must not change across
        // builds, or stored digests would stop comparing.
        let mut r = RunResult {
            policy: "lru".into(),
            instructions: 1000,
            cycles: 2000,
            l2_tlb: Default::default(),
            l2_accesses: 7,
            prediction_table_accesses: 0,
            l2_accesses_total: 7,
            efficiency: 0.5,
        };
        r.l2_tlb.hits = 3;
        r.l2_tlb.misses = 4;
        assert_eq!(digest_result(&r), 6_866_225_516_636_680_263);
    }
}
