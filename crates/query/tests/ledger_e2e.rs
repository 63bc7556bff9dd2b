//! End-to-end: run a tiny suite through the store-backed runner, then
//! query the resulting store. Pins the acceptance guarantees — answers are
//! bit-identical to the ledger lines they cite, every answer names its
//! source run key, old-schema lines stay queryable, and history walks
//! (`regress`) see rewritten keys.

use chirp_query::{run_query, Answer, QueryIndex};
use chirp_sim::{run_suite_streamed, PolicyKind, RunnerConfig};
use chirp_store::{JsonObject, TempDir};
use chirp_trace::suite::{build_suite, SuiteConfig};
use std::fs;
use std::path::Path;

fn tiny_store(root: &Path) -> usize {
    let suite = build_suite(&SuiteConfig { benchmarks: 4 });
    let policies = [PolicyKind::Lru, PolicyKind::Chirp(Default::default())];
    let config = RunnerConfig { instructions: 20_000, threads: 2, ..Default::default() };
    let (runs, _) = run_suite_streamed(&suite, &policies, &config, root).expect("stored run");
    runs.len()
}

/// The raw ledger line whose `key` field matches `source` (`run <hex>`).
fn ledger_line_for(root: &Path, source: &str) -> String {
    let hex = source.strip_prefix("run ").expect("runs-table citation");
    let text = fs::read_to_string(root.join("runs.jsonl")).expect("ledger exists");
    text.lines()
        .find(|l| l.contains(&format!("\"key\":\"{hex}\"")))
        .unwrap_or_else(|| panic!("no ledger line for {source}"))
        .to_string()
}

#[test]
fn answers_are_bit_identical_to_cited_ledger_lines() {
    let dir = TempDir::new("chirp-query-e2e");
    let units = tiny_store(dir.path());
    let index = QueryIndex::from_store_root(dir.path()).unwrap();

    // Count sees every unit.
    let count = run_query("count", &index).unwrap();
    assert_eq!(count.render_raw().as_deref(), Some(&*units.to_string()));

    // A stored field selected by an aggregate must render exactly the
    // byte sequence of the ledger line the answer cites.
    for query in ["argmin efficiency", "argmax efficiency", "min cycles where policy=chirp"] {
        let answer = run_query(query, &index).unwrap();
        let raw = answer.render_raw().unwrap_or_else(|| panic!("{query}: no scalar"));
        let row = answer.rows.first().unwrap_or_else(|| panic!("{query}: no rows"));
        let source = row.str_field("source").expect("answers cite a source");
        let line = ledger_line_for(dir.path(), source);
        let field = query.split_whitespace().nth(1).unwrap();
        assert!(
            line.contains(&format!("\"{field}\":{raw}")),
            "{query}: `{raw}` not byte-identical in cited line {line}"
        );
    }

    // Every `show` row names a run key that resolves in the ledger.
    let show = run_query("show mpki where policy=chirp", &index).unwrap();
    assert_eq!(show.rows.len(), 4);
    for row in &show.rows {
        let source = row.str_field("source").expect("citation");
        ledger_line_for(dir.path(), source); // panics if it doesn't resolve
        assert!(row.str_field("key").is_some());
    }
}

#[test]
fn diff_compares_policies_per_benchmark() {
    let dir = TempDir::new("chirp-query-e2e");
    tiny_store(dir.path());
    let index = QueryIndex::from_store_root(dir.path()).unwrap();
    let diff = run_query("diff mpki between policy=lru vs policy=chirp", &index).unwrap();
    assert_eq!(diff.rows.len(), 4, "one row per benchmark");
    for row in &diff.rows {
        let left = row.f64_field("left").expect("lru mpki");
        let right = row.f64_field("right").expect("chirp mpki");
        assert_eq!(row.f64_field("delta"), Some(right - left));
        let source = row.str_field("source").unwrap();
        assert!(source.contains(" vs "), "diff cites both sides: {source}");
    }
}

#[test]
fn regress_walks_appended_history() {
    let dir = TempDir::new("chirp-query-e2e");
    tiny_store(dir.path());

    // Clean history: nothing to flag.
    let index = QueryIndex::from_store_root(dir.path()).unwrap();
    let clean = run_query("regress cycles where policy=lru", &index).unwrap();
    assert_eq!(clean.render_raw().as_deref(), Some("0"));

    // Doctor a rewrite of one lru unit with 2x the cycles — as a later
    // ledger line under the same key, the way a real re-run lands.
    let ledger_path = dir.path().join("runs.jsonl");
    let text = fs::read_to_string(&ledger_path).unwrap();
    let victim = text.lines().find(|l| l.contains("\"policy\":\"lru\"")).unwrap();
    let mut doctored = JsonObject::parse(victim).unwrap();
    let cycles = doctored.u64_field("cycles").unwrap();
    doctored.set_u64("cycles", cycles * 2);
    fs::write(&ledger_path, format!("{text}{}\n", doctored.to_json())).unwrap();

    let index = QueryIndex::from_store_root(dir.path()).unwrap();
    let flagged = run_query("regress cycles where policy=lru", &index).unwrap();
    assert_eq!(flagged.render_raw().as_deref(), Some("1"), "exactly the doctored unit");
    let row = &flagged.rows[0];
    assert_eq!(row.u64_field("prev"), Some(cycles));
    assert_eq!(row.u64_field("value"), Some(cycles * 2));
    assert_eq!(row.f64_field("change"), Some(1.0));
    assert_eq!(row.str_field("benchmark"), doctored.str_field("benchmark"));
    // Both history points are cited.
    let source = row.str_field("source").unwrap();
    let key = doctored.str_field("key").unwrap();
    assert!(source.contains(&format!("run {key}")) && source.contains("prev"), "{source}");
}

#[test]
fn pre_schema_ledger_lines_stay_queryable() {
    let dir = TempDir::new("chirp-query-e2e");
    // A hand-written v1 line: no schema, no workload, no code identity.
    fs::write(
        dir.path().join("runs.jsonl"),
        "{\"key\":\"000000000000beef\",\"benchmark\":\"db.scanidx.i64z0.9b8#s1\",\"category\":\"db\",\"policy\":\"lru\",\"instructions\":1000,\"cycles\":9000,\"hits\":80,\"misses\":20,\"dead_evictions\":4,\"cold_fills\":2,\"l2_accesses\":100,\"prediction_table_accesses\":0,\"l2_accesses_total\":300,\"efficiency\":0.25}\n",
    )
    .unwrap();
    let index = QueryIndex::from_store_root(dir.path()).unwrap();

    // The zipfian group filter works on the migrated workload field, the
    // derived mpki is available, and the answer cites the v1 line's key.
    let answer = run_query("argmin mpki where workload=zipfian", &index).unwrap();
    assert_eq!(answer.render_raw().as_deref(), Some("20.0"));
    assert_eq!(answer.rows[0].str_field("source"), Some("run 000000000000beef"));
    assert_eq!(answer.rows[0].str_field("workload"), Some("scanidx"));

    // Migration marks provenance rather than inventing it.
    let marked = run_query("count where code_policy=pre-v2", &index).unwrap();
    assert_eq!(marked.render_raw().as_deref(), Some("1"));
    let penalty = run_query("count where walk_penalty>0", &index).unwrap();
    assert_eq!(penalty.render_raw().as_deref(), Some("0"), "v1 lines gain no walk_penalty");
}

#[test]
fn stored_float_rendering_roundtrips_through_answers() {
    // The store writes floats with Rust's shortest-roundtrip Debug
    // format; Answer::render_value must agree on awkward values.
    for v in [0.1f64, 1.0 / 3.0, 0.875, 1e-9, 123456.789012345] {
        let mut obj = JsonObject::new();
        obj.set_f64("x", v);
        let emitted = obj.to_json();
        let rendered = Answer::render_value(obj.get("x").unwrap());
        assert!(
            emitted.contains(&format!("\"x\":{rendered}")),
            "render {rendered} differs from serialisation {emitted}"
        );
    }
}
