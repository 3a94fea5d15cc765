//! Behavior goldens for the mining hot path.
//!
//! The bitset rewrite of the Edgar mining core (`NodeSet` embeddings,
//! word-parallel collision graphs, the widened exact MIS, the
//! canonicality cache) must be invisible in every deterministic output:
//! same fragments, same MIS choices, same savings. These tests pin the
//! deterministic sections of the `gpa-report/1`, `gpa-corpus/1` and
//! `gpa-bench/1` documents — and a raw fingerprint of `mine` results —
//! to golden files captured from the pre-rewrite implementation.
//!
//! Regenerate deliberately (e.g. after an intentional behavior change)
//! with `GPA_REGEN_GOLDEN=1 cargo test -p gpa-bench --test
//! hotpath_golden`.

use std::path::PathBuf;

use gpa::{RunConfig, ValidateLevel};
use gpa_dfg::hash::Fnv128;
use gpa_dfg::{build_all, LabelMode};
use gpa_metrics::{run_perf, PerfConfig};
use gpa_mining::graph::InputGraph;
use gpa_mining::miner::{mine, Config, Frequent, Support};
use gpa_pipeline::{run_batch, BatchConfig, BatchInput};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the committed golden, or rewrites the
/// golden when `GPA_REGEN_GOLDEN` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("GPA_REGEN_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "deterministic output drifted from the committed golden {name}"
    );
}

fn kernel_inputs() -> Vec<BatchInput> {
    gpa_minicc::programs::BENCHMARKS
        .iter()
        .map(|&name| {
            let image =
                gpa_minicc::compile_benchmark(name, &gpa_minicc::Options::default()).unwrap();
            BatchInput::loaded(name, image)
        })
        .collect()
}

fn fast_batch_config() -> BatchConfig {
    BatchConfig {
        jobs: 1,
        run: RunConfig {
            validate: ValidateLevel::Off,
            ..RunConfig::default()
        },
        ..BatchConfig::default()
    }
}

/// The deterministic section of the `gpa-corpus/1` document over the
/// full bundled corpus is byte-identical to the pre-rewrite output.
#[test]
fn corpus_document_matches_pre_rewrite_golden() {
    let corpus = run_batch(&kernel_inputs(), &fast_batch_config()).unwrap();
    assert_eq!(corpus.error_count(), 0);
    assert_golden("corpus8.json", &corpus.to_json(false).to_string());
}

/// Every kernel's full `gpa-report/1` document (fragments, occurrence
/// sites, savings — the MIS choices made visible) is byte-identical to
/// the pre-rewrite output.
#[test]
fn per_kernel_reports_match_pre_rewrite_golden() {
    let corpus = run_batch(&kernel_inputs(), &fast_batch_config()).unwrap();
    let mut out = String::new();
    for entry in &corpus.images {
        let report = entry.outcome.as_ref().expect("kernel optimizes");
        out.push_str(&entry.name);
        out.push('\t');
        out.push_str(&report.to_json().to_string());
        out.push('\n');
    }
    assert_golden("reports8.txt", &out);
}

/// The deterministic section of the `gpa-bench/1` document (all three
/// methods over all eight kernels) is byte-identical to the pre-rewrite
/// output.
#[test]
fn bench_document_matches_pre_rewrite_golden() {
    let report = run_perf(&PerfConfig {
        jobs: 2,
        validate: ValidateLevel::Off,
        ..PerfConfig::default()
    })
    .unwrap();
    assert_golden("bench8.json", &report.to_json(false).to_string());
}

/// A stable FNV-1a/128 fingerprint of a mining result list: every
/// pattern's tuples, its support, and every embedding's map.
fn fingerprint(results: &[Frequent]) -> String {
    let mut h = Fnv128::new();
    h.write(b"gpa-mine-fingerprint/1");
    h.write_u64(results.len() as u64);
    for f in results {
        h.write_u64(f.pattern.tuples().len() as u64);
        for t in f.pattern.tuples() {
            h.write_u64(u64::from(t.from));
            h.write_u64(u64::from(t.to));
            h.write_u64(u64::from(t.from_label));
            h.write_u64(u64::from(t.to_label));
            h.write_u64(u64::from(t.outgoing));
            h.write_u64(u64::from(t.edge_label));
        }
        h.write_u64(f.support as u64);
        h.write_u64(f.embeddings.len() as u64);
        for e in &f.embeddings {
            h.write_u64(u64::from(e.graph));
            h.write_u64(e.map.len() as u64);
            for &n in &e.map {
                h.write_u64(u64::from(n));
            }
        }
    }
    format!("{:032x}", h.finish())
}

/// Raw `mine` results over the 8-kernel corpus are identical pre/post
/// rewrite, down to every embedding map.
#[test]
fn mine_results_match_pre_rewrite_fingerprint() {
    let mut dfgs = Vec::new();
    for &name in &gpa_minicc::programs::BENCHMARKS {
        let image = gpa_minicc::compile_benchmark(name, &gpa_minicc::Options::default()).unwrap();
        let program = gpa_cfg::decode_image(&image).expect("kernel lifts");
        dfgs.extend(build_all(&program, LabelMode::Exact));
    }
    let (graphs, _interner) = InputGraph::from_dfgs(&dfgs);
    let config = Config {
        min_support: 2,
        support: Support::Embeddings,
        max_nodes: 6,
        max_patterns: 20_000,
        ..Config::default()
    };
    let sequential = mine(&graphs, &config);
    let lines = format!("sequential\t{}\n", fingerprint(&sequential));
    assert_golden("mine_fingerprint.txt", &lines);
}
