//! Calling the optimizer the two ways the workloads need: one-shot, as a
//! user of `Optimizer::run_with` does, and round by round with a span
//! around each public call, as the traced runs do.

use std::sync::Arc;

use gpa::validate::{validate_extraction_with, validate_program};
use gpa::{Method, Optimizer, Report, Round, RunConfig, StageTimings, ValidateLevel};
use gpa_image::Image;
use gpa_trace::{CounterTracer, Counters, Tracer};
use gpa_verify::has_errors;

use crate::layers::{self, add, set, LayerSample};
use crate::spans::Spans;
use crate::{edgar, kernel_ms, kernel_visited, ms};

/// An optimized image and the report that produced it.
#[derive(PartialEq, Eq)]
pub struct Optimized {
    pub report: Report,
    pub image: Image,
}

/// `from_image_configured` + `run_with` + `encode`.
pub fn one_shot(image: &Image, method: Method, config: &RunConfig) -> Result<Optimized, String> {
    let mut timings = StageTimings::default();
    let mut optimizer =
        Optimizer::from_image_configured(image, config, &mut timings).map_err(|e| e.to_string())?;
    let report = optimizer
        .run_with(method, config)
        .map_err(|e| e.to_string())?;
    let image = optimizer.encode().map_err(|e| e.to_string())?;
    Ok(Optimized { report, image })
}

/// What a round-by-round run saw besides its result.
struct Observed {
    timings: StageTimings,
    counters: Counters,
    /// Most patterns visited by one `detect_instrumented` call.
    max_round_patterns: u64,
}

/// The extraction loop of `Optimizer::run_with`, driven from outside:
/// each `detect_instrumented`, `apply_candidate_with`, the per-round
/// `validate_extraction_with` (under `EveryRound`, which `run_with` makes
/// inside the apply), the final `validate_program` (unless validation is
/// off) and `encode` run in spans of their own, and the `CounterTracer`
/// handed in the config is read after every round.
fn round_by_round(
    spans: &mut Spans,
    id: u64,
    image: &Image,
    method: Method,
    config_with: &dyn Fn(Arc<dyn Tracer>) -> RunConfig,
) -> Result<(Optimized, Observed), String> {
    let tracer = Arc::new(CounterTracer::new());
    let config = config_with(Arc::clone(&tracer) as Arc<dyn Tracer>);
    let per_round = config.validate == ValidateLevel::EveryRound;
    let mut timings = StageTimings::default();
    let mut optimizer = spans
        .record("from_image_configured", id, |_| {
            Optimizer::from_image_configured(image, &config, &mut timings)
        })
        .map_err(|e| e.to_string())?;
    let initial_words = optimizer.program().instruction_count();
    let mut rounds = Vec::new();
    let mut max_round_patterns = 0;
    let mut visited_before = 0;
    for _ in 0..config.max_rounds {
        let candidate = spans.record("detect_instrumented", id, |_| {
            optimizer.detect_instrumented(method, &config, &mut timings, None)
        });
        let visited = tracer.counters().get("mine.patterns_visited");
        max_round_patterns = max_round_patterns.max(visited - visited_before);
        visited_before = visited;
        let Some(candidate) = candidate else { break };
        let before = per_round.then(|| optimizer.program().clone());
        let fragment_name = spans
            .record("apply_candidate_with", id, |_| {
                optimizer.apply_candidate_with(&candidate, ValidateLevel::Off, config.alias)
            })
            .map_err(|e| e.to_string())?;
        if let Some(before) = before {
            let diags = spans.record("validate_extraction_with", id, |_| {
                validate_extraction_with(
                    &before,
                    optimizer.program(),
                    &candidate,
                    &fragment_name,
                    config.alias,
                )
            });
            if has_errors(&diags) {
                return Err(format!("{fragment_name} failed validation"));
            }
        }
        rounds.push(Round {
            kind: candidate.kind,
            body_words: candidate.body_words(),
            occurrences: candidate.occurrences.len(),
            saved: candidate.saved,
            fragment_name,
        });
    }
    if config.validate != ValidateLevel::Off {
        let diags = spans.record("validate_program", id, |_| {
            validate_program(optimizer.program())
        });
        if has_errors(&diags) {
            return Err("the optimized program failed validation".into());
        }
    }
    let image = spans
        .record("encode", id, |_| optimizer.encode())
        .map_err(|e| e.to_string())?;
    let report = Report {
        initial_words,
        final_words: optimizer.program().instruction_count(),
        rounds,
    };
    let observed = Observed {
        timings,
        counters: tracer.counters(),
        max_round_patterns,
    };
    Ok((Optimized { report, image }, observed))
}

/// One traced pass over `images` (kernel, image), image `i` under span
/// id `i`: each image's result, and the pass's per-layer readings.
pub fn traced_pass<'a>(
    spans: &mut Spans,
    images: impl Iterator<Item = (&'a str, &'a Image)>,
    method: Method,
    config_with: &dyn Fn(Arc<dyn Tracer>) -> RunConfig,
) -> (Vec<Result<Optimized, String>>, LayerSample) {
    let mut sample = LayerSample::new();
    let mut counters = Counters::default();
    let mut results = Vec::new();
    for (id, (kernel, image)) in images.enumerate() {
        let id = id as u64;
        let result =
            round_by_round(spans, id, image, method, config_with).map(|(optimized, seen)| {
                let t = &seen.timings;
                let detect_ns = spans.total_ns_for("detect_instrumented", id);
                if method == Method::Sfx {
                    add(&mut sample, "sfx.detect_ms", ms(detect_ns));
                } else {
                    add(&mut sample, "mining.mine_ms", ms(t.mining_ns));
                    add(&mut sample, "mining.mis_ms", ms(t.mis_ns));
                    add(&mut sample, "dfg.build_ms", ms(t.dfg_build_ns));
                    // Detection's self time: the detect spans minus the stages
                    // detection reports in `StageTimings` (DFG build, mining,
                    // MIS); what is left is candidate evaluation.
                    let staged = t.dfg_build_ns + t.mining_ns + t.mis_ns;
                    add(
                        &mut sample,
                        "core.detect_ms",
                        ms(detect_ns.saturating_sub(staged)),
                    );
                }
                add(
                    &mut sample,
                    "core.rounds",
                    optimized.report.rounds.len() as f64,
                );
                let max = sample
                    .entry("mining.max_round_patterns".to_owned())
                    .or_insert(0.0);
                *max = max.max(seen.max_round_patterns as f64);
                let visited = seen.counters.get("mine.patterns_visited") as f64;
                set_kernel(&mut sample, kernel, ms(spans.top_level_ns_for(id)), visited);
                counters.merge(&seen.counters);
                optimized
            });
        results.push(result);
    }
    layers::add_counters(&mut sample, &counters);
    for (name, span_names) in [
        ("cfg.decode_ms", &["from_image_configured"][..]),
        ("core.extract_ms", &["apply_candidate_with"][..]),
        (
            "core.validate_ms",
            &["validate_extraction_with", "validate_program"][..],
        ),
        ("cfg.encode_ms", &["encode"][..]),
    ] {
        let total: u64 = span_names.iter().map(|s| spans.total_ns(s)).sum();
        set(&mut sample, name, ms(total));
    }
    (results, sample)
}

/// Adds to the `kernel.<name>.*` rows of `kernel` (only the `edgar_cold`
/// kernels have rows).
pub fn set_kernel(sample: &mut LayerSample, kernel: &str, optimize_ms: f64, visited: f64) {
    if edgar::KERNELS.iter().any(|&(k, _)| k == kernel) {
        add(sample, &kernel_ms(kernel), optimize_ms);
        add(sample, &kernel_visited(kernel), visited);
    }
}
