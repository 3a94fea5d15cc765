//! The `gpa perf` harness: corpus runs, the `gpa-bench/1` document and
//! the human markdown tables.

use std::sync::Arc;
use std::time::Instant;

use gpa::json::Json;
use gpa::stage::STAGE_NAMES;
use gpa::{AliasLevel, Method, Report, RunConfig, ValidateLevel};
use gpa_minicc::Options;
use gpa_pipeline::{run_batch, BatchConfig, BatchInput, FuncCache, FuncCacheStats};
use gpa_trace::{LogHistogram, SpanNode, SpanTree};

/// Version tag of the benchmark-report JSON schema.
pub const BENCH_SCHEMA: &str = "gpa-bench/1";

/// What `gpa perf` runs.
#[derive(Clone, Debug)]
pub struct PerfConfig {
    /// Detection methods to evaluate, in report order; the first one is
    /// the baseline the per-method deltas are computed against.
    pub methods: Vec<Method>,
    /// Bundled kernel names ([`gpa_minicc::programs::BENCHMARKS`] by
    /// default).
    pub kernels: Vec<String>,
    /// Worker threads per method batch; `0` means auto-detect. Never
    /// affects the deterministic section.
    pub jobs: usize,
    /// Compile the kernels with the instruction scheduler.
    pub schedule: bool,
    /// Validation level for the optimization runs.
    pub validate: ValidateLevel,
    /// Alias-analysis level for the optimization runs.
    pub alias: AliasLevel,
    /// Collect a hierarchical span profile alongside the metrics.
    pub profile: bool,
}

impl Default for PerfConfig {
    fn default() -> PerfConfig {
        PerfConfig {
            methods: vec![Method::Sfx, Method::DgSpan, Method::Edgar],
            kernels: gpa_minicc::programs::BENCHMARKS
                .iter()
                .map(|&s| s.to_owned())
                .collect(),
            jobs: 0,
            schedule: true,
            validate: ValidateLevel::Final,
            alias: AliasLevel::default(),
            profile: false,
        }
    }
}

/// One kernel's deterministic compression metrics.
#[derive(Clone, Debug)]
pub struct KernelResult {
    /// Kernel name.
    pub name: String,
    /// Instruction words before optimization.
    pub instructions: usize,
    /// Code-section size in words (instructions + literal pools).
    pub code_words: usize,
    /// Data-section size in bytes.
    pub data_bytes: usize,
    /// One report per configured method, in [`PerfConfig::methods`]
    /// order.
    pub results: Vec<(Method, Report)>,
}

/// One method's cache-layer counters (measured section only).
#[derive(Clone, Debug)]
pub struct MethodCacheStats {
    /// The detection method.
    pub method: Method,
    /// Report-cache lookups answered from the cache.
    pub report_hits: u64,
    /// Report-cache lookups that fell through to a full run.
    pub report_misses: u64,
    /// Per-function DFG-cache hits across the batch.
    pub dfg_hits: u64,
    /// Per-function DFG-cache misses across the batch.
    pub dfg_misses: u64,
    /// Function-granularity mining-cache counters (always present for
    /// [`run_perf`], which gives every method batch the layer).
    pub func: Option<FuncCacheStats>,
}

/// Per-stage latency histograms of one method's corpus run.
#[derive(Clone, Debug)]
pub struct MethodLatency {
    /// The detection method.
    pub method: Method,
    /// One histogram per [`STAGE_NAMES`] entry, in that order; each
    /// image contributes one sample per stage.
    pub stages: Vec<(&'static str, LogHistogram)>,
}

/// The result of a [`run_perf`] invocation.
#[derive(Clone, Debug)]
pub struct PerfReport {
    /// Methods evaluated, in report order.
    pub methods: Vec<Method>,
    /// Per-kernel compression metrics (deterministic).
    pub kernels: Vec<KernelResult>,
    /// Worker threads the batches actually used (measured section).
    pub jobs: usize,
    /// End-to-end wall time of the whole harness run.
    pub wall_ns: u64,
    /// Per-method per-stage latency distributions.
    pub latency: Vec<MethodLatency>,
    /// Per-method cache hit/miss counters (report, DFG and — when the
    /// incremental layer ran — function mining cache).
    pub cache: Vec<MethodCacheStats>,
    /// Aggregated span profile, when [`PerfConfig::profile`] was set;
    /// one top-level node per method.
    pub profile: Option<SpanTree>,
}

/// Runs the corpus across every configured method and aggregates the
/// benchmark report.
///
/// Each method gets one `gpa batch` run over the compiled kernels (the
/// pipeline's worker pool and deterministic merge are reused wholesale),
/// so the deterministic section of the result is byte-identical for any
/// `jobs` setting.
///
/// # Errors
///
/// A message when a kernel fails to compile, a batch aborts, or any
/// image fails to optimize — the harness has no partial results.
pub fn run_perf(config: &PerfConfig) -> Result<PerfReport, String> {
    if config.methods.is_empty() {
        return Err("no methods selected".to_owned());
    }
    if config.kernels.is_empty() {
        return Err("no kernels selected".to_owned());
    }
    let opts = Options {
        schedule: config.schedule,
        ..Options::default()
    };
    let mut images = Vec::new();
    for name in &config.kernels {
        let image = gpa_minicc::compile_benchmark(name, &opts)
            .map_err(|e| format!("kernel {name}: {e}"))?;
        images.push((name.clone(), image));
    }
    let start = Instant::now();
    let mut per_method: Vec<Vec<Report>> = Vec::new();
    let mut latency = Vec::new();
    let mut cache = Vec::new();
    let mut profile = config.profile.then(SpanTree::default);
    let mut jobs_used = 1;
    for &method in &config.methods {
        let trace_dir = profile.as_ref().map(|_| {
            std::env::temp_dir().join(format!(
                "gpa-perf-profile-{}-{}",
                std::process::id(),
                method.as_str()
            ))
        });
        if let Some(dir) = &trace_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        let batch = BatchConfig {
            jobs: config.jobs,
            method,
            run: RunConfig {
                validate: config.validate,
                alias: config.alias,
                // The front-end (decode + per-block DFG build) pool
                // shares the --jobs knob; it never changes the output,
                // only the dfg_build/decode latency in the measured
                // section (0 = auto falls back to one front worker per
                // batch worker).
                front_threads: config.jobs,
                ..RunConfig::default()
            },
            cache_dir: None,
            trace_dir: trace_dir.clone(),
            // A fresh function-granularity mining cache per method, so
            // the measured section's cache ratios cover all three layers.
            // It never changes the deterministic section (see
            // `gpa::incremental`).
            incremental: Some(Arc::new(FuncCache::default())),
            ..BatchConfig::default()
        };
        let inputs: Vec<BatchInput> = images
            .iter()
            .map(|(name, image)| BatchInput::loaded(name.clone(), image.clone()))
            .collect();
        let corpus = run_batch(&inputs, &batch)?;
        for entry in &corpus.images {
            if let Err(message) = &entry.outcome {
                return Err(format!("{} [{}]: {message}", entry.name, method.as_str()));
            }
        }
        jobs_used = corpus.jobs;
        let mut stages: Vec<(&'static str, LogHistogram)> = STAGE_NAMES
            .iter()
            .map(|&name| (name, LogHistogram::new()))
            .collect();
        for (entry, _) in corpus.successful() {
            for (i, (_, ns)) in entry.timings.stages().iter().enumerate() {
                stages[i].1.record(*ns);
            }
        }
        latency.push(MethodLatency { method, stages });
        cache.push(MethodCacheStats {
            method,
            report_hits: corpus.report_cache_hits,
            report_misses: corpus.report_cache_misses,
            dfg_hits: corpus.dfg_cache_hits,
            dfg_misses: corpus.dfg_cache_misses,
            func: corpus.func_cache,
        });
        per_method.push(
            corpus
                .successful()
                .map(|(_, report)| report.clone())
                .collect(),
        );
        if let (Some(tree), Some(dir)) = (&mut profile, &trace_dir) {
            tree.merge(&method_profile(method, dir)?);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
    let kernels = images
        .iter()
        .enumerate()
        .map(|(i, (name, image))| {
            let results: Vec<(Method, Report)> = config
                .methods
                .iter()
                .zip(&per_method)
                .map(|(&method, reports)| (method, reports[i].clone()))
                .collect();
            KernelResult {
                name: name.clone(),
                instructions: results[0].1.initial_words,
                code_words: image.code_len(),
                data_bytes: image.data_bytes().len(),
                results,
            }
        })
        .collect();
    Ok(PerfReport {
        methods: config.methods.clone(),
        kernels,
        jobs: jobs_used,
        wall_ns: gpa_trace::saturating_ns(start.elapsed()),
        latency,
        cache,
        profile,
    })
}

/// Aggregates one method's per-image trace streams into a profile
/// grafted under a single `<method>` root.
fn method_profile(method: Method, dir: &std::path::Path) -> Result<SpanTree, String> {
    let merged = crate::profile::spans_from_trace_dir(dir)?;
    let mut wrapped = SpanNode {
        count: 0,
        total_ns: 0,
        children: merged.roots.clone(),
    };
    for node in merged.roots.values() {
        wrapped.count += node.count;
        wrapped.total_ns += node.total_ns;
    }
    let mut tree = SpanTree::default();
    tree.roots.insert(method.as_str().to_owned(), wrapped);
    Ok(tree)
}

/// Basis points of savings: `saved * 10_000 / initial` in pure integer
/// arithmetic (0 for an empty program).
fn savings_bp(saved: i64, initial: usize) -> i64 {
    if initial == 0 {
        0
    } else {
        saved * 10_000 / initial as i64
    }
}

/// Integer hit percentage of a cache layer (0 when it saw no traffic).
fn hit_pct(hits: u64, misses: u64) -> u64 {
    (hits * 100).checked_div(hits + misses).unwrap_or(0)
}

/// The `{"hits":..,"misses":..,"hit_rate_pct":..}` object of one cache
/// layer in the measured section.
fn cache_layer_json(hits: u64, misses: u64) -> Json {
    Json::obj([
        ("hits", Json::from(hits)),
        ("misses", Json::from(misses)),
        ("hit_rate_pct", Json::from(hit_pct(hits, misses))),
    ])
}

/// `12.34%` rendering of basis points.
fn fmt_bp(bp: i64) -> String {
    let sign = if bp < 0 { "-" } else { "" };
    let a = bp.abs();
    format!("{sign}{}.{:02}%", a / 100, a % 100)
}

impl PerfReport {
    /// Serializes the `gpa-bench/1` document.
    ///
    /// With `include_measured = false` the result is the *deterministic
    /// section only* — per-kernel, per-method compression metrics plus
    /// totals, a pure function of the kernel sources, the compiler and
    /// the optimizer. `include_measured = true` appends the trailing
    /// `"measured"` object (jobs, wall time, per-stage latency
    /// histograms/percentiles), which varies run to run.
    pub fn to_json(&self, include_measured: bool) -> Json {
        let kernels: Vec<Json> = self
            .kernels
            .iter()
            .map(|k| {
                let base_saved = k.results[0].1.saved_words();
                let results: Vec<Json> = k
                    .results
                    .iter()
                    .map(|(method, report)| {
                        let saved = report.saved_words();
                        Json::obj([
                            ("method", Json::from(method.as_str())),
                            ("final_words", Json::from(report.final_words)),
                            ("saved_words", Json::from(saved)),
                            (
                                "savings_bp",
                                Json::from(savings_bp(saved, report.initial_words)),
                            ),
                            ("fragments", Json::from(report.rounds.len())),
                            ("procedures", Json::from(report.procedure_count())),
                            ("cross_jumps", Json::from(report.cross_jump_count())),
                            ("rounds", Json::from(report.rounds.len())),
                            ("delta_saved_words", Json::from(saved - base_saved)),
                        ])
                    })
                    .collect();
                Json::obj([
                    ("name", Json::from(k.name.as_str())),
                    ("instructions", Json::from(k.instructions)),
                    ("code_words", Json::from(k.code_words)),
                    ("data_bytes", Json::from(k.data_bytes)),
                    ("results", Json::Arr(results)),
                ])
            })
            .collect();
        let totals: Vec<Json> = self
            .methods
            .iter()
            .enumerate()
            .map(|(mi, method)| {
                let (mut initial, mut fin, mut saved, mut fragments) = (0usize, 0usize, 0i64, 0);
                for k in &self.kernels {
                    let report = &k.results[mi].1;
                    initial += report.initial_words;
                    fin += report.final_words;
                    saved += report.saved_words();
                    fragments += report.rounds.len();
                }
                Json::obj([
                    ("method", Json::from(method.as_str())),
                    ("initial_words", Json::from(initial)),
                    ("final_words", Json::from(fin)),
                    ("saved_words", Json::from(saved)),
                    ("savings_bp", Json::from(savings_bp(saved, initial))),
                    ("fragments", Json::from(fragments)),
                ])
            })
            .collect();
        let mut doc = vec![
            ("schema".to_owned(), Json::from(BENCH_SCHEMA)),
            (
                "methods".to_owned(),
                Json::Arr(
                    self.methods
                        .iter()
                        .map(|m| Json::from(m.as_str()))
                        .collect(),
                ),
            ),
            ("kernels".to_owned(), Json::Arr(kernels)),
            ("totals".to_owned(), Json::Arr(totals)),
        ];
        if include_measured {
            let latency: Vec<Json> = self
                .latency
                .iter()
                .map(|m| {
                    let stages: Vec<Json> = m
                        .stages
                        .iter()
                        .map(|(stage, hist)| {
                            let buckets: Vec<Json> = hist
                                .buckets()
                                .map(|(low, n)| Json::Arr(vec![Json::from(low), Json::from(n)]))
                                .collect();
                            Json::obj([
                                ("stage", Json::from(*stage)),
                                ("count", Json::from(hist.count())),
                                ("sum_ns", Json::from(hist.sum_ns())),
                                ("min_ns", Json::from(hist.min_ns())),
                                ("max_ns", Json::from(hist.max_ns())),
                                ("p50_ns", Json::from(hist.percentile(50))),
                                ("p90_ns", Json::from(hist.percentile(90))),
                                ("p99_ns", Json::from(hist.percentile(99))),
                                ("buckets", Json::Arr(buckets)),
                            ])
                        })
                        .collect();
                    Json::obj([
                        ("method", Json::from(m.method.as_str())),
                        ("stages", Json::Arr(stages)),
                    ])
                })
                .collect();
            let cache: Vec<Json> = self
                .cache
                .iter()
                .map(|c| {
                    let mut layers = vec![
                        ("method".to_owned(), Json::from(c.method.as_str())),
                        (
                            "report".to_owned(),
                            cache_layer_json(c.report_hits, c.report_misses),
                        ),
                        ("dfg".to_owned(), cache_layer_json(c.dfg_hits, c.dfg_misses)),
                    ];
                    if let Some(fc) = &c.func {
                        layers.push((
                            "func".to_owned(),
                            Json::obj([
                                ("hits", Json::from(fc.hits)),
                                ("misses", Json::from(fc.misses)),
                                ("hit_rate_pct", Json::from(fc.hit_rate_pct())),
                                ("evicted", Json::from(fc.evicted)),
                                ("entries", Json::from(fc.entries)),
                                ("bytes", Json::from(fc.bytes)),
                            ]),
                        ));
                    }
                    Json::Obj(layers)
                })
                .collect();
            doc.push((
                "measured".to_owned(),
                Json::obj([
                    ("jobs", Json::from(self.jobs)),
                    ("wall_ns", Json::from(self.wall_ns)),
                    ("latency", Json::Arr(latency)),
                    ("cache", Json::Arr(cache)),
                ]),
            ));
        }
        Json::Obj(doc)
    }

    /// Renders the human-facing markdown: the Table 1-shape compression
    /// table plus a per-stage latency table.
    pub fn markdown(&self) -> String {
        let mut out = String::from("## Compression (Table 1 shape)\n\n");
        out.push_str("| program | insns |");
        for m in &self.methods {
            out.push_str(&format!(" {m} saved | {m} % | {m} frags |"));
        }
        out.push('\n');
        out.push_str("|---|---:|");
        for _ in &self.methods {
            out.push_str("---:|---:|---:|");
        }
        out.push('\n');
        for k in &self.kernels {
            out.push_str(&format!("| {} | {} |", k.name, k.instructions));
            for (_, report) in &k.results {
                out.push_str(&format!(
                    " {} | {} | {} |",
                    report.saved_words(),
                    fmt_bp(savings_bp(report.saved_words(), report.initial_words)),
                    report.rounds.len()
                ));
            }
            out.push('\n');
        }
        // Totals row.
        let initial: usize = self.kernels.iter().map(|k| k.instructions).sum();
        out.push_str(&format!("| **total** | {initial} |"));
        for mi in 0..self.methods.len() {
            let saved: i64 = self
                .kernels
                .iter()
                .map(|k| k.results[mi].1.saved_words())
                .sum();
            let fragments: usize = self
                .kernels
                .iter()
                .map(|k| k.results[mi].1.rounds.len())
                .sum();
            out.push_str(&format!(
                " **{saved}** | {} | {fragments} |",
                fmt_bp(savings_bp(saved, initial))
            ));
        }
        out.push('\n');
        out.push_str("\n## Latency (measured)\n\n");
        out.push_str("| method | stage | samples | p50 | p90 | p99 | max | total |\n");
        out.push_str("|---|---|---:|---:|---:|---:|---:|---:|\n");
        for m in &self.latency {
            for (stage, hist) in &m.stages {
                if hist.count() == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "| {} | {stage} | {} | {} | {} | {} | {} | {} |\n",
                    m.method.as_str(),
                    hist.count(),
                    fmt_us(hist.percentile(50)),
                    fmt_us(hist.percentile(90)),
                    fmt_us(hist.percentile(99)),
                    fmt_us(hist.max_ns()),
                    fmt_us(hist.sum_ns()),
                ));
            }
        }
        if !self.cache.is_empty() {
            out.push_str("\n## Cache (measured)\n\n");
            out.push_str("| method | layer | hits | misses | hit rate |\n");
            out.push_str("|---|---|---:|---:|---:|\n");
            for c in &self.cache {
                let mut layers = vec![
                    ("report", c.report_hits, c.report_misses),
                    ("dfg", c.dfg_hits, c.dfg_misses),
                ];
                if let Some(fc) = &c.func {
                    layers.push(("func", fc.hits, fc.misses));
                }
                for (layer, hits, misses) in layers {
                    out.push_str(&format!(
                        "| {} | {layer} | {hits} | {misses} | {}% |\n",
                        c.method.as_str(),
                        hit_pct(hits, misses)
                    ));
                }
            }
        }
        out
    }
}

/// Microsecond rendering with one decimal, for the latency table.
fn fmt_us(ns: u64) -> String {
    format!("{}.{}us", ns / 1_000, (ns % 1_000) / 100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn savings_bp_is_integer_exact() {
        assert_eq!(savings_bp(25, 1000), 250); // 2.5%
        assert_eq!(savings_bp(0, 1000), 0);
        assert_eq!(savings_bp(-10, 100), -1000);
        assert_eq!(savings_bp(5, 0), 0);
    }

    #[test]
    fn hit_pct_is_integer_and_zero_on_no_traffic() {
        assert_eq!(hit_pct(0, 0), 0);
        assert_eq!(hit_pct(3, 1), 75);
        assert_eq!(hit_pct(1, 2), 33);
        let layer = cache_layer_json(3, 1);
        assert_eq!(layer.get("hit_rate_pct").unwrap().to_string(), "75");
    }

    #[test]
    fn bp_formatting() {
        assert_eq!(fmt_bp(250), "2.50%");
        assert_eq!(fmt_bp(9), "0.09%");
        assert_eq!(fmt_bp(-1234), "-12.34%");
        assert_eq!(fmt_bp(0), "0.00%");
    }

    #[test]
    fn empty_configs_are_rejected() {
        let no_methods = PerfConfig {
            methods: vec![],
            ..PerfConfig::default()
        };
        assert!(run_perf(&no_methods).is_err());
        let no_kernels = PerfConfig {
            kernels: vec![],
            ..PerfConfig::default()
        };
        assert!(run_perf(&no_kernels).is_err());
        let bad_kernel = PerfConfig {
            kernels: vec!["no-such-kernel".into()],
            ..PerfConfig::default()
        };
        assert!(run_perf(&bad_kernel).is_err());
    }
}
