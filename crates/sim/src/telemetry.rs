//! Epoch-resolved run telemetry: phase series for every (benchmark ×
//! policy) unit of a suite run.
//!
//! [`run_suite_telemetry`] runs the suite through the same runner body as
//! [`run_suite`](crate::runner::run_suite): each work item streams its
//! trace once through the factored chunk driver, whose back ends also
//! sample an epoch series (see [`crate::frontend`]), and one
//! [`UnitSeries`] per (benchmark × policy) pair comes back alongside the
//! ordinary [`BenchRun`]s. The sampling is strictly observational — the
//! returned results are bit-identical to an uninstrumented run (pinned by
//! `instrumented_run_matches_plain_suite` below) — but telemetry runs
//! always simulate: they run without a store, because a ledger hit has no
//! epoch series to return.
//!
//! Series serialise to JSONL ([`write_series`]) — one flat object per
//! epoch with the unit identity inlined, so `chirp-store`'s flat JSON
//! parser ([`read_series`]) and external tooling (jq, pandas) read them
//! without a schema.

use crate::registry::PolicyKind;
use crate::runner::{run_units, BenchRun, RunnerConfig, NO_STORE_TO_FAIL};
use crate::store_cache::run_key;
use chirp_store::json::JsonObject;
use chirp_store::{hex16, parse_hex16, StoreError};
use chirp_telemetry::{write_jsonl, EpochRow, JsonRow, TelemetryMode};
use chirp_tlb::DeadOutcomes;
use chirp_trace::suite::BenchmarkSpec;
use std::path::Path;

/// Names of the per-epoch delta counters, in the order each factored back
/// end snapshots them into [`EpochRow::deltas`].
pub const COUNTER_SCHEMA: [&str; 10] = [
    "cycles",
    "hits",
    "misses",
    "cold_fills",
    "dead_evictions",
    "table_accesses",
    "true_dead",
    "false_dead",
    "true_live",
    "false_live",
];

/// How a suite run should be instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Off, end-of-run summary, or full epoch series.
    pub mode: TelemetryMode,
    /// Measured instructions per epoch (ignored when `mode` is off).
    pub epoch_instructions: u64,
}

impl Default for TelemetrySpec {
    fn default() -> Self {
        TelemetrySpec { mode: TelemetryMode::Off, epoch_instructions: 100_000 }
    }
}

/// One epoch of one (benchmark × policy) unit, with the schema counters as
/// named fields.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch index within the unit's measured window, from 0.
    pub epoch: u64,
    /// Instructions covered (the epoch length except for a final partial
    /// epoch).
    pub instructions: u64,
    /// Cycles spent.
    pub cycles: u64,
    /// L2 TLB hits.
    pub hits: u64,
    /// L2 TLB misses.
    pub misses: u64,
    /// Fills into invalid ways (no victim evicted).
    pub cold_fills: u64,
    /// Victims chosen because the policy predicted them dead.
    pub dead_evictions: u64,
    /// Prediction-table accesses.
    pub table_accesses: u64,
    /// Evictions of entries predicted dead at fill that were never hit.
    pub true_dead: u64,
    /// Evictions of entries predicted dead at fill that were hit anyway.
    pub false_dead: u64,
    /// Evictions of entries predicted live at fill that were hit.
    pub true_live: u64,
    /// Evictions of entries predicted live at fill that were never hit.
    pub false_live: u64,
    /// L2 TLB occupancy (valid fraction) at the epoch boundary.
    pub occupancy: f64,
}

impl EpochRecord {
    /// Converts a raw sampler row; the deltas must follow
    /// [`COUNTER_SCHEMA`] with occupancy as gauge 0.
    ///
    /// # Panics
    ///
    /// Panics if the row's delta or gauge vector disagrees with the schema.
    pub fn from_row(row: &EpochRow) -> EpochRecord {
        assert_eq!(row.deltas.len(), COUNTER_SCHEMA.len(), "epoch row counter schema mismatch");
        assert_eq!(row.gauges.len(), 1, "epoch row gauge schema mismatch");
        EpochRecord {
            epoch: row.epoch,
            instructions: row.instructions,
            cycles: row.deltas[0],
            hits: row.deltas[1],
            misses: row.deltas[2],
            cold_fills: row.deltas[3],
            dead_evictions: row.deltas[4],
            table_accesses: row.deltas[5],
            true_dead: row.deltas[6],
            false_dead: row.deltas[7],
            true_live: row.deltas[8],
            false_live: row.deltas[9],
            occupancy: row.gauges[0],
        }
    }

    /// L2 TLB misses per 1000 instructions within this epoch.
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Prediction-table accesses per L2 TLB access within this epoch —
    /// the epoch-resolved Figure 11 metric.
    pub fn table_access_rate(&self) -> f64 {
        let accesses = self.hits + self.misses;
        if accesses == 0 {
            0.0
        } else {
            self.table_accesses as f64 / accesses as f64
        }
    }

    /// Evictions that fell back to LRU because no entry was predicted
    /// dead. Derived: every miss either cold-fills, evicts a dead-pick, or
    /// evicts the LRU fallback.
    pub fn lru_fallback_evictions(&self) -> u64 {
        (self.misses - self.cold_fills).saturating_sub(self.dead_evictions)
    }

    /// This epoch's dead-prediction outcomes as a [`DeadOutcomes`].
    pub fn dead_outcomes(&self) -> DeadOutcomes {
        DeadOutcomes {
            true_dead: self.true_dead,
            false_dead: self.false_dead,
            true_live: self.true_live,
            false_live: self.false_live,
        }
    }
}

/// The epoch series of one (benchmark × policy) unit.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitSeries {
    /// Benchmark name.
    pub benchmark: String,
    /// Policy name.
    pub policy: String,
    /// The run-ledger key of the (config × policy × benchmark × length)
    /// identity this series instruments
    /// ([`crate::store_cache::run_key`]) — the cross-reference that lets
    /// the query layer join epoch lines to ledger entries without
    /// (benchmark, policy) name matching. `0` for series read from files
    /// written before the field existed.
    pub run_key: u64,
    /// Configured epoch length in instructions.
    pub epoch_instructions: u64,
    /// Per-epoch records, in epoch order.
    pub rows: Vec<EpochRecord>,
}

impl UnitSeries {
    /// Instructions covered by the whole series.
    pub fn total_instructions(&self) -> u64 {
        self.rows.iter().map(|r| r.instructions).sum()
    }

    /// Series-wide prediction-table access rate (sums before dividing, so
    /// epochs weigh by their access counts).
    pub fn mean_table_access_rate(&self) -> f64 {
        let accesses: u64 = self.rows.iter().map(|r| r.hits + r.misses).sum();
        if accesses == 0 {
            0.0
        } else {
            self.rows.iter().map(|r| r.table_accesses).sum::<u64>() as f64 / accesses as f64
        }
    }

    /// Dead-prediction outcomes summed over the series.
    pub fn dead_outcomes(&self) -> DeadOutcomes {
        self.rows.iter().fold(DeadOutcomes::default(), |acc, r| acc.merged(&r.dead_outcomes()))
    }

    /// `(mean, min, max)` of the per-epoch MPKI, or zeros for an empty
    /// series.
    pub fn mpki_stats(&self) -> (f64, f64, f64) {
        if self.rows.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        let mpkis: Vec<f64> = self.rows.iter().map(EpochRecord::mpki).collect();
        let mean = mpkis.iter().sum::<f64>() / mpkis.len() as f64;
        let min = mpkis.iter().copied().fold(f64::INFINITY, f64::min);
        let max = mpkis.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (mean, min, max)
    }
}

/// Runs `policies` over `suite` with epoch sampling, returning the
/// ordinary results plus one epoch series per (benchmark × policy) pair,
/// both in `suite` × `policies` order.
///
/// The results are bit-identical to [`run_suite`](crate::runner::run_suite)
/// on the same inputs — sampling never feeds back into the simulation.
/// Unlike `run_suite`, this path never consults the store, even with
/// [`RunnerConfig::store`] set: ledger hits skip simulation and therefore
/// cannot produce a series, so it neither reads nor writes the ledger. With
/// `spec.mode` off nothing is sampled and every series is empty.
pub fn run_suite_telemetry(
    suite: &[BenchmarkSpec],
    policies: &[PolicyKind],
    config: &RunnerConfig,
    spec: &TelemetrySpec,
) -> (Vec<BenchRun>, Vec<UnitSeries>) {
    let epoch = spec.mode.is_enabled().then_some(spec.epoch_instructions);
    let pairs = suite.iter().flat_map(|bench| policies.iter().map(move |policy| (bench, policy)));
    let (units, _) = run_units(suite, policies, config, None, epoch).expect(NO_STORE_TO_FAIL);
    units
        .into_iter()
        .zip(pairs)
        .map(|((run, rows), (bench, policy))| {
            let series = UnitSeries {
                benchmark: bench.name.clone(),
                policy: policy.name().to_string(),
                run_key: run_key(&config.sim, policy, &bench.name, config.instructions),
                epoch_instructions: spec.epoch_instructions,
                rows: rows.iter().map(EpochRecord::from_row).collect(),
            };
            (run, series)
        })
        .unzip()
}

/// Serialises series to JSONL: one flat object per epoch, unit identity
/// (`benchmark`, `policy`, `run_key`, `epoch_len`) inlined into every
/// line, plus the derived `mpki` and `table_access_rate` for external
/// tooling. The `run_key` is the ledger cross-reference: queries join an
/// epoch line to the run it instruments by key, never by name matching.
///
/// # Errors
///
/// Propagates I/O failures from creating or writing `path`.
pub fn write_series(path: &Path, series: &[UnitSeries]) -> std::io::Result<()> {
    let rows = series.iter().flat_map(|unit| {
        unit.rows.iter().map(|r| {
            JsonRow::new()
                .str("benchmark", &unit.benchmark)
                .str("policy", &unit.policy)
                .str("run_key", &hex16(unit.run_key))
                .u64("epoch_len", unit.epoch_instructions)
                .u64("epoch", r.epoch)
                .u64("instructions", r.instructions)
                .u64("cycles", r.cycles)
                .u64("hits", r.hits)
                .u64("misses", r.misses)
                .u64("cold_fills", r.cold_fills)
                .u64("dead_evictions", r.dead_evictions)
                .u64("table_accesses", r.table_accesses)
                .u64("true_dead", r.true_dead)
                .u64("false_dead", r.false_dead)
                .u64("true_live", r.true_live)
                .u64("false_live", r.false_live)
                .f64("occupancy", r.occupancy)
                .f64("mpki", r.mpki())
                .f64("table_access_rate", r.table_access_rate())
        })
    });
    write_jsonl(path, rows)
}

/// Reads a [`write_series`] file back, regrouping consecutive lines by
/// (benchmark, policy). Derived fields are recomputed, not trusted, so a
/// round-trip is exact.
///
/// # Errors
///
/// Returns [`StoreError::Io`] if the file cannot be read and
/// [`StoreError::Corrupt`] for lines that do not parse or lack schema
/// fields.
pub fn read_series(path: &Path) -> Result<Vec<UnitSeries>, StoreError> {
    let text = std::fs::read_to_string(path)
        .map_err(|source| StoreError::Io { context: "read telemetry series", source })?;
    let mut series: Vec<UnitSeries> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = JsonObject::parse(line).map_err(|e| {
            StoreError::Corrupt(format!("telemetry series {}:{}: {e}", path.display(), lineno + 1))
        })?;
        let field = |key: &str| {
            obj.u64_field(key).ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "telemetry series {}:{}: missing field {key:?}",
                    path.display(),
                    lineno + 1
                ))
            })
        };
        let missing = |key: &str| {
            StoreError::Corrupt(format!(
                "telemetry series {}:{}: missing field {key:?}",
                path.display(),
                lineno + 1
            ))
        };
        let benchmark = obj.str_field("benchmark").ok_or_else(|| missing("benchmark"))?;
        let policy = obj.str_field("policy").ok_or_else(|| missing("policy"))?;
        let record = EpochRecord {
            epoch: field("epoch")?,
            instructions: field("instructions")?,
            cycles: field("cycles")?,
            hits: field("hits")?,
            misses: field("misses")?,
            cold_fills: field("cold_fills")?,
            dead_evictions: field("dead_evictions")?,
            table_accesses: field("table_accesses")?,
            true_dead: field("true_dead")?,
            false_dead: field("false_dead")?,
            true_live: field("true_live")?,
            false_live: field("false_live")?,
            occupancy: obj.f64_field("occupancy").ok_or_else(|| missing("occupancy"))?,
        };
        // Files written before the cross-reference existed have no
        // run_key; 0 marks "unknown" rather than failing the read.
        let unit_key = obj.str_field("run_key").and_then(parse_hex16).unwrap_or(0);
        match series.last_mut() {
            Some(unit)
                if unit.benchmark == benchmark
                    && unit.policy == policy
                    && unit.run_key == unit_key =>
            {
                unit.rows.push(record)
            }
            _ => series.push(UnitSeries {
                benchmark: benchmark.to_string(),
                policy: policy.to_string(),
                run_key: unit_key,
                epoch_instructions: field("epoch_len")?,
                rows: vec![record],
            }),
        }
    }
    Ok(series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_suite;
    use crate::SimConfig;
    use chirp_core::ChirpConfig;
    use chirp_store::{fnv64, TempDir};
    use chirp_trace::suite::{build_suite, SuiteConfig};

    fn spec(epoch: u64) -> TelemetrySpec {
        TelemetrySpec { mode: TelemetryMode::Epochs, epoch_instructions: epoch }
    }

    /// The subsystem's equivalence gate: a fully instrumented suite run
    /// must return bit-identical results to the uninstrumented runner over
    /// a 4-benchmark × 3-policy matrix.
    #[test]
    fn instrumented_run_matches_plain_suite() {
        let suite = build_suite(&SuiteConfig { benchmarks: 4 });
        let policies =
            [PolicyKind::Lru, PolicyKind::Srrip, PolicyKind::Chirp(ChirpConfig::default())];
        let config = RunnerConfig { instructions: 16_000, threads: 2, ..Default::default() };
        let plain = run_suite(&suite, &policies, &config);
        let (instrumented, series) = run_suite_telemetry(&suite, &policies, &config, &spec(2_000));
        assert_eq!(instrumented, plain, "telemetry must not perturb results");
        assert_eq!(series.len(), 12);
        for (run, unit) in instrumented.iter().zip(&series) {
            assert_eq!(unit.benchmark, run.benchmark);
            assert_eq!(unit.policy, run.result.policy);
            assert!(!unit.rows.is_empty(), "epochs mode must produce rows");
            assert_eq!(
                unit.total_instructions(),
                run.result.instructions,
                "epochs must tile the measured window exactly"
            );
            let sum = |field: fn(&EpochRecord) -> u64| unit.rows.iter().map(field).sum::<u64>();
            let (result, stats) = (&run.result, run.result.l2_tlb);
            assert_eq!(
                [
                    sum(|r| r.cycles),
                    sum(|r| r.hits),
                    sum(|r| r.misses),
                    sum(|r| r.cold_fills),
                    sum(|r| r.dead_evictions),
                ],
                [result.cycles, stats.hits, stats.misses, stats.cold_fills, stats.dead_evictions],
                "epoch deltas must sum to the run totals"
            );
        }
    }

    /// `fnv64` of the [`write_series`] bytes for each case of
    /// [`series_match_the_pinned_digests`], in its loop order.
    const SERIES_DIGESTS: [u64; 12] = [
        0x0b46_ca2a_898b_613a,
        0x3a91_d572_728e_19cb,
        0xdf2d_e495_d630_89d6,
        0x58ee_e175_6ecd_8cfe,
        0xdcb7_f528_8388_fba3,
        0x7cf2_fec2_1c3f_af50,
        0x5b04_ae80_1fe2_0a8d,
        0x46c2_c777_a374_1017,
        // A warmup cut at 1.0 measures nothing: every series is empty.
        0xcbf2_9ce4_8422_2325,
        0xcbf2_9ce4_8422_2325,
        0xcbf2_9ce4_8422_2325,
        0xcbf2_9ce4_8422_2325,
    ];

    /// The series themselves, pinned byte for byte: 4 benchmarks, the
    /// 9-policy lineup (its short-history CHiRP replays with local
    /// registers, since the group computes signatures under the default
    /// configuration) and that CHiRP as a group of one, at warmup cuts
    /// 0, 0.5 and 1.0 and epochs shorter and longer than the window. The
    /// same digests hold at the default stream chunk and at 700-record
    /// batches, whose boundaries fall inside epochs and segments.
    #[test]
    fn series_match_the_pinned_digests() {
        let suite = build_suite(&SuiteConfig { benchmarks: 4 });
        let mut lineup = PolicyKind::paper_lineup();
        lineup.push(PolicyKind::Drrip);
        lineup.push(PolicyKind::PerceptronReuse);
        lineup.push(PolicyKind::Chirp(ChirpConfig { path_length: 8, ..ChirpConfig::default() }));
        let alone = [lineup[8].clone()];
        let dir = TempDir::new("telemetry-digests");
        let path = dir.path().join("telemetry_epochs.jsonl");
        for stream_chunk in [0, 700] {
            let mut digests = Vec::new();
            for warmup_fraction in [0.0, 0.5, 1.0] {
                let sim = SimConfig { warmup_fraction, ..SimConfig::default() };
                let config = RunnerConfig {
                    instructions: 16_000,
                    threads: 2,
                    sim,
                    stream_chunk,
                    ..Default::default()
                };
                for epoch in [1_500, 100_000] {
                    for policies in [&lineup[..], &alone[..]] {
                        let (_, series) =
                            run_suite_telemetry(&suite, policies, &config, &spec(epoch));
                        write_series(&path, &series).expect("write series");
                        digests.push(fnv64(&std::fs::read(&path).expect("read series")));
                    }
                }
            }
            let hex: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
            assert_eq!(
                digests,
                SERIES_DIGESTS,
                "stream_chunk {stream_chunk}: got [{}]",
                hex.join(", ")
            );
        }
    }

    #[test]
    fn off_mode_returns_empty_series_and_identical_results() {
        let suite = build_suite(&SuiteConfig { benchmarks: 2 });
        let policies = [PolicyKind::Chirp(ChirpConfig::default())];
        let config = RunnerConfig { instructions: 8_000, threads: 2, ..Default::default() };
        let plain = run_suite(&suite, &policies, &config);
        let spec = TelemetrySpec::default();
        let (runs, series) = run_suite_telemetry(&suite, &policies, &config, &spec);
        assert_eq!(runs, plain);
        assert!(series.iter().all(|u| u.rows.is_empty()));
    }

    #[test]
    fn chirp_series_scores_predictions_and_sees_table_accesses() {
        let suite = build_suite(&SuiteConfig { benchmarks: 2 });
        let policies = [PolicyKind::Chirp(ChirpConfig::default())];
        let config = RunnerConfig { instructions: 40_000, threads: 2, ..Default::default() };
        let (_, series) = run_suite_telemetry(&suite, &policies, &config, &spec(5_000));
        let outcomes: u64 = series.iter().map(|u| u.dead_outcomes().total()).sum();
        assert!(outcomes > 0, "CHiRP predictions must be scored at evictions");
        for unit in &series {
            for row in &unit.rows {
                assert!(
                    row.dead_evictions + row.lru_fallback_evictions()
                        == row.misses - row.cold_fills,
                    "victim sources must partition evictions"
                );
                assert!((0.0..=1.0).contains(&row.occupancy));
            }
        }
    }

    #[test]
    fn series_roundtrip_through_jsonl() {
        let suite = build_suite(&SuiteConfig { benchmarks: 2 });
        let policies = [PolicyKind::Lru, PolicyKind::Chirp(ChirpConfig::default())];
        let config = RunnerConfig { instructions: 10_000, threads: 2, ..Default::default() };
        let (_, series) = run_suite_telemetry(&suite, &policies, &config, &spec(1_500));
        let dir = TempDir::new("telemetry-series");
        let path = dir.path().join("telemetry_epochs.jsonl");
        write_series(&path, &series).expect("write series");
        let back = read_series(&path).expect("read series");
        assert_eq!(back, series, "JSONL round-trip must be exact");
    }

    #[test]
    fn read_series_rejects_garbage() {
        let dir = TempDir::new("telemetry-garbage");
        let path = dir.path().join("bad.jsonl");
        std::fs::write(&path, "{\"benchmark\":\"x\"}\n").expect("write");
        let err = read_series(&path).unwrap_err();
        assert!(err.to_string().contains("missing field"), "got: {err}");
        assert!(read_series(&dir.path().join("absent.jsonl")).is_err());
    }
}
