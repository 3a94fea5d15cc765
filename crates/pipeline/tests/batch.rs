//! Corpus-level regression tests: determinism across worker counts,
//! agreement with the single-shot optimizer, and cache-warm identity.
//!
//! Validation is pinned to [`ValidateLevel::Off`] here — the translation
//! validator has its own end-to-end suite (`tests/verify_pipeline.rs` at
//! the workspace root), and these tests assert pipeline properties, not
//! rewrite soundness.

use gpa::{Method, Optimizer, RunConfig, ValidateLevel};
use gpa_pipeline::{run_batch, BatchConfig, BatchInput};

fn kernel_inputs(names: &[&str]) -> Vec<BatchInput> {
    names
        .iter()
        .map(|name| {
            let image =
                gpa_minicc::compile_benchmark(name, &gpa_minicc::Options::default()).unwrap();
            BatchInput::loaded(*name, image)
        })
        .collect()
}

fn fast_config() -> BatchConfig {
    BatchConfig {
        run: RunConfig {
            validate: ValidateLevel::Off,
            ..RunConfig::default()
        },
        ..BatchConfig::default()
    }
}

/// The deterministic report section is byte-identical no matter how many
/// workers the pool ran — the core acceptance criterion of the batch
/// engine, asserted over the full 8-kernel corpus.
#[test]
fn batch_is_deterministic_across_job_counts() {
    let inputs = kernel_inputs(&gpa_minicc::programs::BENCHMARKS);
    let corpus_of = |jobs: usize| {
        run_batch(
            &inputs,
            &BatchConfig {
                jobs,
                ..fast_config()
            },
        )
        .unwrap()
    };
    let sequential = corpus_of(1);
    let parallel = corpus_of(4);
    assert_eq!(
        sequential.to_json(false).to_string(),
        parallel.to_json(false).to_string()
    );
    assert_eq!(sequential.error_count(), 0);
    assert!(sequential.total_saved_words() > 0);
}

/// Batch savings per image equal what a direct `Optimizer::run_with`
/// reports: the pipeline adds caching and parallelism, never different
/// results.
#[test]
fn batch_matches_single_shot_optimizer() {
    let inputs = kernel_inputs(&["crc", "sha", "bitcnts"]);
    let config = fast_config();
    let corpus = run_batch(&inputs, &config).unwrap();
    for (input, entry) in inputs.iter().zip(&corpus.images) {
        let BatchInput::Loaded(name, image) = input else {
            unreachable!()
        };
        let mut opt = Optimizer::from_image(image).unwrap();
        let direct = opt.run_with(Method::Edgar, &config.run).unwrap();
        assert_eq!(entry.outcome.as_ref(), Ok(&direct), "{name}");
    }
}

/// A second run against the same on-disk cache answers from the cache and
/// reports the identical deterministic section.
#[test]
fn warm_cache_run_is_identical_and_hits() {
    let inputs = kernel_inputs(&["dijkstra", "qsort"]);
    let dir = std::env::temp_dir().join(format!("gpa-batch-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = BatchConfig {
        cache_dir: Some(dir.clone()),
        ..fast_config()
    };
    let cold = run_batch(&inputs, &config).unwrap();
    let warm = run_batch(&inputs, &config).unwrap();
    assert_eq!(
        cold.to_json(false).to_string(),
        warm.to_json(false).to_string()
    );
    assert_eq!(warm.report_cache_hits, inputs.len() as u64);
    assert_eq!(warm.report_cache_misses, 0);
    assert!(warm.images.iter().all(|e| e.cached));
    assert!(cold.images.iter().all(|e| !e.cached));
    // The DFG cache sees traffic on the cold pass (shared runtime blocks
    // recur across rounds and images).
    assert!(cold.dfg_cache_misses > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--trace-dir` writes one parsable `gpa-trace/1` JSONL file per input,
/// folds per-image counters into the corpus metrics, and leaves the
/// deterministic report section byte-identical to an untraced run.
#[test]
fn trace_dir_writes_jsonl_and_never_changes_reports() {
    use gpa::json::Json;
    let inputs = kernel_inputs(&["crc", "sha"]);
    let dir = std::env::temp_dir().join(format!("gpa-batch-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let untraced = run_batch(&inputs, &fast_config()).unwrap();
    let traced = run_batch(
        &inputs,
        &BatchConfig {
            trace_dir: Some(dir.clone()),
            ..fast_config()
        },
    )
    .unwrap();
    assert_eq!(
        untraced.to_json(false).to_string(),
        traced.to_json(false).to_string(),
        "tracing must not change the deterministic section"
    );
    for (index, entry) in traced.images.iter().enumerate() {
        // One trace file per input slot, every line a complete JSON
        // object, header first and counter summary last.
        let file = dir.join(format!("{index:04}-{}.jsonl", entry.name));
        let text = std::fs::read_to_string(&file).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "{}", entry.name);
        for line in &lines {
            Json::parse(line).unwrap_or_else(|e| panic!("{}: {e}: {line}", entry.name));
        }
        assert!(lines[0].contains("\"schema\":\"gpa-trace/1\""));
        assert!(lines[lines.len() - 1].contains("\"ev\":\"counters\""));
        // The entry carries the counters, and the mining identity holds.
        let c = &entry.counters;
        assert!(c.get("mine.patterns_visited") > 0, "{}", entry.name);
        assert_eq!(
            c.get("mine.patterns_visited"),
            c.get("mine.expanded")
                + c.get("mine.subtree_skipped")
                + c.get("mine.stopped_max_nodes")
                + c.get("mine.patterns_replayed"),
            "{}",
            entry.name
        );
    }
    // The aggregate lands in the metrics object, not the bare section.
    let metrics = traced.to_json(true);
    let trace = metrics
        .get("metrics")
        .and_then(|m| m.get("trace"))
        .expect("aggregated trace counters in metrics");
    assert!(trace.get("mine.patterns_visited").is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The determinism matrix for the seed-task lattice search: on all eight
/// kernels, with a pattern budget small enough to bind in every kernel
/// (in every round of most, in some rounds of crc and dijkstra), the
/// report, the optimized image and the charged pattern count are
/// identical across `mining_threads` ∈ {1, 2, 8} × seed memo ∈ {the
/// run's own, a shared `FuncCache` pre-warmed by an earlier run}.
#[test]
fn mining_determinism_matrix() {
    use std::sync::Arc;

    use gpa::MineCache;
    use gpa_pipeline::FuncCache;
    use gpa_trace::{CounterTracer, Tracer};

    for &name in &gpa_minicc::programs::BENCHMARKS {
        let image = gpa_minicc::compile_benchmark(name, &gpa_minicc::Options::default()).unwrap();
        let warm: Arc<dyn MineCache> = Arc::new(FuncCache::default());
        let run = |mining_threads: usize, memo: Option<&Arc<dyn MineCache>>| {
            let tracer = Arc::new(CounterTracer::new());
            let config = RunConfig {
                validate: ValidateLevel::Off,
                max_patterns: 500,
                max_rounds: 5,
                mining_threads,
                tracer: tracer.clone(),
                incremental: memo.cloned(),
                ..RunConfig::default()
            };
            let mut opt = Optimizer::from_image(&image).unwrap();
            let report = opt.run_with(Method::Edgar, &config).unwrap();
            let counters = tracer.counters();
            assert!(
                counters.get("mine.budget_exhausted") > 0,
                "{name}: the budget must bind for the matrix to mean anything"
            );
            (
                report.to_json().to_string(),
                opt.encode().unwrap().to_bytes(),
                counters.get("mine.patterns_visited"),
            )
        };
        let expected = run(1, None);
        run(1, Some(&warm));
        for mining_threads in [1, 2, 8] {
            for memo in [None, Some(&warm)] {
                let cell = run(mining_threads, memo);
                let label = format!(
                    "{name}: mining_threads={mining_threads} shared memo={}",
                    memo.is_some()
                );
                assert_eq!(cell.0, expected.0, "{label}: report");
                assert!(cell.1 == expected.1, "{label}: image");
                assert_eq!(cell.2, expected.2, "{label}: mine.patterns_visited");
            }
        }
    }
}

/// The determinism matrix for the parallel front-end: the deterministic
/// report section is byte-identical across `front_threads` ∈ {1, 2, 8}
/// on the full 8-kernel corpus. Decode and per-block DFG builds fan out
/// over a pool, but the arena graphs are assembled in input order, so
/// thread count must never leak into any report.
#[test]
fn front_threads_determinism_matrix() {
    let inputs = kernel_inputs(&gpa_minicc::programs::BENCHMARKS);
    let corpus_of = |front_threads: usize| {
        let mut config = fast_config();
        config.jobs = 1;
        config.run.front_threads = front_threads;
        run_batch(&inputs, &config).unwrap()
    };
    let baseline = corpus_of(1);
    assert_eq!(baseline.error_count(), 0);
    assert!(baseline.total_saved_words() > 0);
    let expected = baseline.to_json(false).to_string();
    for front_threads in [2, 8] {
        assert_eq!(
            corpus_of(front_threads).to_json(false).to_string(),
            expected,
            "front_threads={front_threads} changed the deterministic section"
        );
    }
}

/// A shutdown flag raised before the pool starts: every input is an
/// `"interrupted"` error entry, the document carries the
/// `"interrupted": true` marker, and the exit is a partial — not
/// poisoned — report.
#[test]
fn pre_raised_shutdown_interrupts_every_input() {
    use gpa_pipeline::ShutdownFlag;
    let inputs = kernel_inputs(&["crc", "sha"]);
    let config = BatchConfig {
        shutdown: ShutdownFlag::new(),
        ..fast_config()
    };
    config.shutdown.raise();
    let corpus = run_batch(&inputs, &config).unwrap();
    assert!(corpus.interrupted);
    assert_eq!(corpus.images.len(), inputs.len());
    for entry in &corpus.images {
        assert_eq!(
            entry.outcome.as_ref().err().map(String::as_str),
            Some("interrupted")
        );
    }
    let doc = corpus.to_json(false).to_string();
    assert!(
        doc.contains("\"interrupted\":true"),
        "partial report must carry the marker: {doc}"
    );
    // An un-raised flag run of the same inputs has no marker at all.
    let clean = run_batch(&inputs, &fast_config()).unwrap();
    assert!(!clean.interrupted);
    assert!(!clean.to_json(false).to_string().contains("interrupted"));
}

/// A flag raised while the pool is already running: in-flight images
/// finish normally, so every entry is either a real result or a clean
/// `"interrupted"` error — never a torn one — and the report is marked.
#[test]
fn mid_run_shutdown_finishes_in_flight_images() {
    use gpa_pipeline::ShutdownFlag;
    let inputs = kernel_inputs(&gpa_minicc::programs::BENCHMARKS);
    let config = BatchConfig {
        jobs: 1,
        shutdown: ShutdownFlag::new(),
        ..fast_config()
    };
    let flag = config.shutdown.clone();
    let raiser = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(50));
        flag.raise();
    });
    let corpus = run_batch(&inputs, &config).unwrap();
    raiser.join().unwrap();
    assert!(corpus.interrupted);
    for entry in &corpus.images {
        match &entry.outcome {
            Ok(report) => assert!(report.initial_words > 0, "{}", entry.name),
            Err(message) => assert_eq!(message, "interrupted", "{}", entry.name),
        }
    }
    assert!(corpus
        .to_json(false)
        .to_string()
        .contains("\"interrupted\":true"));
}

/// A bounded in-memory cache that is large enough never to evict keeps
/// the warm pass byte-identical to the cold one; a pathologically tiny
/// budget evicts (and says so in the metrics) but still never changes
/// any report.
#[test]
fn bounded_cache_budget_preserves_results() {
    use gpa_pipeline::CacheBudget;
    let inputs = kernel_inputs(&["dijkstra", "qsort", "crc"]);
    let unbounded = run_batch(&inputs, &fast_config()).unwrap();
    assert_eq!(unbounded.report_cache_evicted, 0);

    let roomy = BatchConfig {
        cache_budget: CacheBudget::bounded(1024, 64 << 20),
        ..fast_config()
    };
    let cold = run_batch(&inputs, &roomy).unwrap();
    assert_eq!(
        unbounded.to_json(false).to_string(),
        cold.to_json(false).to_string(),
        "a roomy bound must not change the deterministic section"
    );
    assert_eq!(cold.report_cache_evicted, 0);

    // One entry per shard at most, and almost no byte budget: the
    // memory layer thrashes, the reports do not.
    let tiny = BatchConfig {
        cache_budget: CacheBudget::bounded(1, 64),
        ..fast_config()
    };
    let thrashed = run_batch(&inputs, &tiny).unwrap();
    assert_eq!(
        unbounded.to_json(false).to_string(),
        thrashed.to_json(false).to_string(),
        "eviction must never change the deterministic section"
    );
    assert!(thrashed.report_cache_evicted > 0);
    let metrics = thrashed.to_json(true);
    let evicted = metrics
        .get("metrics")
        .and_then(|m| m.get("report_cache"))
        .and_then(|c| c.get("evicted"))
        .and_then(gpa::json::Json::as_int);
    assert_eq!(evicted, Some(thrashed.report_cache_evicted as i64));
}
