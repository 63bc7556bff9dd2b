//! The benchmark suite builder.
//!
//! The paper evaluates on 870 CVP-1 traces spanning SPEC, database, crypto,
//! scientific, web and big-data categories. This module enumerates a
//! deterministic grid of generator configurations and seeds across the same
//! categories, producing up to (and beyond) 870 distinct benchmarks. A
//! smaller suite for quick runs is obtained by even sampling, which keeps
//! the category mix representative.

use crate::gen::{
    Category, ContextCopy, CryptoStream, Gups, Interpreter, PointerChase, ScanIndex, SpecLoops,
    TiledStencil, WebServe, WorkloadGen,
};
use crate::record::TraceRecord;

/// A concrete generator configuration, serialisable for reproducibility.
#[derive(Debug, Clone, PartialEq)]
pub enum GenSpec {
    /// Mixed-context copy kernel.
    ContextCopy(ContextCopy),
    /// Database scan + index lookups.
    ScanIndex(ScanIndex),
    /// Streaming cipher.
    CryptoStream(CryptoStream),
    /// Tiled stencil.
    TiledStencil(TiledStencil),
    /// SPEC-style loop nests.
    SpecLoops(SpecLoops),
    /// Request server.
    WebServe(WebServe),
    /// Pointer chasing.
    PointerChase(PointerChase),
    /// Random updates.
    Gups(Gups),
    /// Bytecode interpreter (not in the default grid; see its module docs).
    Interpreter(Interpreter),
}

impl GenSpec {
    /// Borrows the underlying generator as a trait object.
    pub fn as_gen(&self) -> &dyn WorkloadGen {
        match self {
            GenSpec::ContextCopy(g) => g,
            GenSpec::ScanIndex(g) => g,
            GenSpec::CryptoStream(g) => g,
            GenSpec::TiledStencil(g) => g,
            GenSpec::SpecLoops(g) => g,
            GenSpec::WebServe(g) => g,
            GenSpec::PointerChase(g) => g,
            GenSpec::Gups(g) => g,
            GenSpec::Interpreter(g) => g,
        }
    }
}

/// One benchmark: a named, seeded generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Unique name, e.g. `db.scanidx.i1024z0.9b64#s1`.
    pub name: String,
    /// Workload category.
    pub category: Category,
    /// Generator configuration.
    pub spec: GenSpec,
    /// Seed for all random decisions.
    pub seed: u64,
}

impl BenchmarkSpec {
    fn new(spec: GenSpec, seed: u64) -> Self {
        let gen = spec.as_gen();
        // A short fingerprint of the full parameter set disambiguates
        // configurations whose headline parameters coincide.
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        use std::hash::{Hash, Hasher};
        format!("{spec:?}").hash(&mut hasher);
        let fp = hasher.finish() & 0xffff;
        BenchmarkSpec {
            name: format!("{}.{fp:04x}#s{seed}", gen.name()),
            category: gen.category(),
            spec,
            seed,
        }
    }

    /// Generates the benchmark's trace with `len` instructions.
    pub fn generate(&self, len: usize) -> Vec<TraceRecord> {
        self.spec.as_gen().generate(len, self.seed)
    }

    /// Generates the benchmark's trace in packed struct-of-arrays form —
    /// what the suite runner keeps resident.
    pub fn generate_packed(&self, len: usize) -> crate::packed::PackedTrace {
        self.spec.as_gen().generate_packed(len, self.seed)
    }

    /// Streams the benchmark's trace in `chunk`-record batches, generated
    /// on the thread that feeds the stream as its consumer takes them,
    /// never materialising the whole trace — the production-run path for
    /// long traces. The batch concatenation is bit-identical to
    /// [`generate_packed`](Self::generate_packed) for the same `len`.
    pub fn stream(
        &self,
        len: usize,
        chunk: usize,
    ) -> crate::stream::GenStream<impl FnOnce(&mut crate::gen::Emitter<'_>) + '_> {
        crate::stream::GenStream::new(len, chunk, |em| self.spec.as_gen().emit_into(em, self.seed))
    }
}

/// Suite construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteConfig {
    /// Number of benchmarks to produce. The paper uses 870; small values
    /// evenly sample the full grid for quick runs.
    pub benchmarks: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig { benchmarks: 870 }
    }
}

/// Number of benchmarks in the paper's suite.
pub const PAPER_SUITE_SIZE: usize = 870;

/// Code-identity version of the trace generators. This string participates
/// in every run-ledger key (see `chirp_sim::store_cache`), so bumping it
/// when a generator's emission logic changes invalidates every cached
/// result at once — stale numbers can never be served from a ledger built
/// by older generator code. Parameter changes do NOT need a bump: the
/// generator parameters already enter benchmark identity through the
/// `GenSpec` debug string in trace keys and the benchmark name in run keys.
pub const GEN_CODE_VERSION: &str = "gen/1";

/// Generator families whose page-selection distribution is Zipfian — the
/// set the query layer's `workload=zipfian` filter matches. Family names
/// are the [`workload_family`] of the generators in [`GenSpec`].
pub const ZIPFIAN_FAMILIES: [&str; 4] = ["scanidx", "serve", "chase", "gups"];

/// The generator family of a benchmark name: the second dot-separated
/// component of the `<category>.<family>.<params>#s<seed>` naming scheme
/// every [`WorkloadGen::name`] follows (e.g. `"scanidx"` for
/// `db.scanidx.i1024z0.9b64#s1`). Returns the whole name when it does not
/// follow the scheme, so lookups on foreign names degrade to exact match.
pub fn workload_family(benchmark: &str) -> &str {
    let mut parts = benchmark.splitn(3, '.');
    let _category = parts.next();
    match parts.next() {
        Some(family) if parts.next().is_some() => family,
        _ => benchmark,
    }
}

/// Builds the benchmark suite.
///
/// The full grid is enumerated deterministically; if `config.benchmarks`
/// is smaller than the grid, the grid is sampled evenly (preserving the
/// category mix); if larger, additional seeds are appended.
///
/// ```
/// use chirp_trace::suite::{build_suite, SuiteConfig};
///
/// let suite = build_suite(&SuiteConfig { benchmarks: 40 });
/// assert_eq!(suite.len(), 40);
/// ```
pub fn build_suite(config: &SuiteConfig) -> Vec<BenchmarkSpec> {
    let grid = enumerate_grid();
    let want = config.benchmarks;
    let mut out = Vec::with_capacity(want);
    if want <= grid.len() {
        for i in 0..want {
            // Even sampling keeps category diversity for small suites.
            let idx = i * grid.len() / want;
            out.push(grid[idx].clone());
        }
    } else {
        out.extend(grid.iter().cloned());
        // Extra seeds on the whole grid until the target count is reached.
        let mut extra_seed = 1000u64;
        'fill: loop {
            for b in &grid {
                if out.len() >= want {
                    break 'fill;
                }
                out.push(BenchmarkSpec::new(b.spec.clone(), b.seed + extra_seed));
            }
            extra_seed += 1000;
        }
    }
    out
}

/// The benchmark at `index` of the suite `config` describes, without
/// cloning the rest of the suite — `nth_benchmark(c, i)` equals
/// `build_suite(c)[i]`. Returns `None` when `index` is out of range.
///
/// ```
/// use chirp_trace::suite::{build_suite, nth_benchmark, SuiteConfig};
///
/// let config = SuiteConfig { benchmarks: 40 };
/// assert_eq!(nth_benchmark(&config, 7).as_ref(), build_suite(&config).get(7));
/// ```
pub fn nth_benchmark(config: &SuiteConfig, index: usize) -> Option<BenchmarkSpec> {
    let want = config.benchmarks;
    if index >= want {
        return None;
    }
    let grid = enumerate_grid();
    if want <= grid.len() {
        Some(grid[index * grid.len() / want].clone())
    } else if index < grid.len() {
        Some(grid[index].clone())
    } else {
        // Mirrors the extra-seed fill rounds of `build_suite`: each full
        // pass over the grid adds 1000 to the seed.
        let extra = index - grid.len();
        let round = (extra / grid.len()) as u64 + 1;
        let base = &grid[extra % grid.len()];
        Some(BenchmarkSpec::new(base.spec.clone(), base.seed + round * 1000))
    }
}

/// Enumerates the canonical parameter grid (≥ 870 entries), interleaving
/// categories so any even sample keeps the mix.
fn enumerate_grid() -> Vec<BenchmarkSpec> {
    let mut per_category: Vec<Vec<BenchmarkSpec>> = Vec::new();

    // --- Mixed-context copy (the paper's central mechanism) ------------
    let mut mixed = Vec::new();
    for &hot_pages in &[384u64, 512, 640] {
        for &stream_calls in &[16u32, 32, 48] {
            for &pages_per_call in &[4u64, 8] {
                for &hot_calls in &[16u32, 32] {
                    // One variant whose streams get a delayed verify reuse
                    // (defeats PC-indexed predictors, paper Observation 2)
                    // and one whose streams are truly dead on first touch
                    // (the regime where RRIP-style insertion shines).
                    for &verify in &[true, false] {
                        for seed in 0..3u64 {
                            mixed.push(BenchmarkSpec::new(
                                GenSpec::ContextCopy(ContextCopy {
                                    hot_pages,
                                    stream_calls,
                                    pages_per_call,
                                    hot_calls,
                                    // Keep the verify group near 64 pages so
                                    // re-reads land past L1, inside L2 reach.
                                    verify_every: if verify {
                                        (64 / pages_per_call) as u32
                                    } else {
                                        0
                                    },
                                    ..Default::default()
                                }),
                                seed,
                            ));
                        }
                    }
                }
            }
        }
    }
    per_category.push(mixed);

    // --- Database -------------------------------------------------------
    let mut db = Vec::new();
    for &index_pages in &[256u64, 512, 1024, 2048] {
        for &zipf_s in &[0.7f64, 0.9, 1.1] {
            for &scan_burst_pages in &[32u64, 64, 128] {
                for &project_pass in &[true, false] {
                    for seed in 0..3u64 {
                        db.push(BenchmarkSpec::new(
                            GenSpec::ScanIndex(ScanIndex {
                                index_pages,
                                zipf_s,
                                scan_burst_pages,
                                project_pass,
                                ..Default::default()
                            }),
                            seed,
                        ));
                    }
                }
            }
        }
    }
    per_category.push(db);

    // --- Crypto ----------------------------------------------------------
    let mut crypto = Vec::new();
    for &table_pages in &[256u64, 512, 768, 1024] {
        for &lookups_per_block in &[2u32, 4, 8] {
            for &block_bytes in &[64u64, 128] {
                for seed in 0..4u64 {
                    crypto.push(BenchmarkSpec::new(
                        GenSpec::CryptoStream(CryptoStream {
                            table_pages,
                            lookups_per_block,
                            block_bytes,
                            ..Default::default()
                        }),
                        seed,
                    ));
                }
            }
        }
    }
    per_category.push(crypto);

    // --- Scientific -------------------------------------------------------
    let mut sci = Vec::new();
    for &(tile_pages, sweep_pages) in &[
        (32u64, 256u64),
        (32, 512),
        (32, 768),
        (64, 256),
        (64, 512),
        (64, 768),
        (128, 256),
        (128, 512),
    ] {
        for &inner in &[2u32, 4] {
            {
                for &reuse_steps in &[2u32, 4] {
                    for seed in 0..3u64 {
                        sci.push(BenchmarkSpec::new(
                            GenSpec::TiledStencil(TiledStencil {
                                tile_pages,
                                sweep_pages,
                                inner,
                                reuse_steps,
                            }),
                            seed,
                        ));
                    }
                }
            }
        }
    }
    per_category.push(sci);

    // --- SPEC -------------------------------------------------------------
    let mut spec = Vec::new();
    for &arrays in &[1u32, 2, 4, 6] {
        for &pages_per_array in &[32u64, 64, 128, 192, 256] {
            for &stride_bytes in &[128u64, 256, 512] {
                for seed in 0..2u64 {
                    spec.push(BenchmarkSpec::new(
                        GenSpec::SpecLoops(SpecLoops {
                            arrays,
                            pages_per_array,
                            stride_bytes,
                            ..Default::default()
                        }),
                        seed,
                    ));
                }
            }
        }
    }
    per_category.push(spec);

    // --- Web ---------------------------------------------------------------
    let mut web = Vec::new();
    for &handlers in &[256u32, 512, 1024, 2048, 4096] {
        for &zipf_s in &[0.6f64, 0.8, 1.0] {
            for &session_pages in &[16u64, 64] {
                for seed in 0..3u64 {
                    web.push(BenchmarkSpec::new(
                        GenSpec::WebServe(WebServe {
                            handlers,
                            zipf_s,
                            session_pages,
                            ..Default::default()
                        }),
                        seed,
                    ));
                }
            }
        }
    }
    per_category.push(web);

    // --- Big data ------------------------------------------------------------
    let mut bigdata = Vec::new();
    for &pool_pages in &[1u64 << 12, 1 << 13] {
        for &zipf_s in &[0.9f64, 1.1] {
            for &hop_interval in &[16u32, 32] {
                for seed in 0..3u64 {
                    bigdata.push(BenchmarkSpec::new(
                        GenSpec::PointerChase(PointerChase {
                            pool_pages,
                            zipf_s,
                            hop_interval,
                            ..Default::default()
                        }),
                        seed,
                    ));
                }
            }
        }
    }
    for &table_pages in &[1u64 << 11, 1 << 12] {
        for &zipf_s in &[1.0f64, 1.2] {
            for seed in 0..4u64 {
                bigdata.push(BenchmarkSpec::new(
                    GenSpec::Gups(Gups { table_pages, zipf_s, ..Default::default() }),
                    seed,
                ));
            }
        }
    }
    per_category.push(bigdata);

    // Interleave categories round-robin so even sampling keeps the mix.
    let mut out = Vec::new();
    let max_len = per_category.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..max_len {
        for cat in &per_category {
            if let Some(b) = cat.get(i) {
                out.push(b.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn grid_covers_paper_size() {
        let grid = enumerate_grid();
        assert!(
            grid.len() >= PAPER_SUITE_SIZE,
            "grid has {} entries, need at least {PAPER_SUITE_SIZE}",
            grid.len()
        );
    }

    #[test]
    fn names_are_unique() {
        let suite = build_suite(&SuiteConfig::default());
        let names: HashSet<&str> = suite.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names.len(), suite.len(), "benchmark names must be unique");
    }

    #[test]
    fn small_suite_keeps_category_mix() {
        let suite = build_suite(&SuiteConfig { benchmarks: 35 });
        assert_eq!(suite.len(), 35);
        let cats: HashSet<Category> = suite.iter().map(|b| b.category).collect();
        assert!(cats.len() >= 6, "small suites must keep diversity, got {cats:?}");
    }

    #[test]
    fn oversized_suite_appends_new_seeds() {
        let grid_len = enumerate_grid().len();
        let suite = build_suite(&SuiteConfig { benchmarks: grid_len + 10 });
        assert_eq!(suite.len(), grid_len + 10);
        let names: HashSet<&str> = suite.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names.len(), suite.len());
    }

    #[test]
    fn specs_generate_traces() {
        let suite = build_suite(&SuiteConfig { benchmarks: 14 });
        for b in &suite {
            let t = b.generate(2_000);
            assert_eq!(t.len(), 2_000, "{} must generate exactly 2000 records", b.name);
        }
    }

    #[test]
    fn nth_benchmark_matches_built_suite() {
        let grid_len = enumerate_grid().len();
        for size in [1usize, 7, 96, grid_len, grid_len + 10, 2 * grid_len + 3] {
            let config = SuiteConfig { benchmarks: size };
            let suite = build_suite(&config);
            for index in [0, size / 2, size - 1] {
                assert_eq!(
                    nth_benchmark(&config, index).as_ref(),
                    suite.get(index),
                    "size {size}, index {index}"
                );
            }
            assert_eq!(nth_benchmark(&config, size), None);
        }
    }

    #[test]
    fn workload_family_parses_every_suite_name() {
        let suite = build_suite(&SuiteConfig { benchmarks: 96 });
        for b in &suite {
            let family = workload_family(&b.name);
            assert!(
                [
                    "ctxcopy", "scanidx", "stream", "stencil", "loops", "serve", "chase", "gups",
                    "interp"
                ]
                .contains(&family),
                "{}: unexpected family {family:?}",
                b.name
            );
        }
        // Degenerate names fall back to exact match.
        assert_eq!(workload_family("plain"), "plain");
        assert_eq!(workload_family("a.b"), "a.b");
    }

    #[test]
    fn streamed_benchmark_matches_generate_packed() {
        let suite = build_suite(&SuiteConfig { benchmarks: 9 });
        for b in &suite {
            let want = b.generate_packed(4_000);
            let mut stream = b.stream(4_000, 700);
            let got = crate::stream::collect_stream(&mut stream).unwrap();
            assert_eq!(got.to_records(), want.to_records(), "{}", b.name);
        }
    }

    #[test]
    fn suite_is_deterministic() {
        let a = build_suite(&SuiteConfig { benchmarks: 100 });
        let b = build_suite(&SuiteConfig { benchmarks: 100 });
        assert_eq!(a, b);
    }
}
