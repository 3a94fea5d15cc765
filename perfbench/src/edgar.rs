//! `edgar_cold`: one-shot cold optimization under Edgar.
//!
//! Inputs are seeded scheduler variants of the six [`KERNELS`]; each is
//! optimized with `Optimizer::from_image_configured` + `run_with` +
//! `encode` at `mining_threads = front_threads = 2`, validation and alias
//! analysis off, and no shared cache. One image optimization is one
//! request. The measured phase makes whole passes, each optimizing every
//! image as often as [`KERNELS`] says, and every optimization must
//! reproduce the first one of its image exactly.
//!
//! The traced run makes one untraced pass (each image once), then two
//! traced passes that drive each image round by round through
//! `detect_instrumented` and `apply_candidate_with` with a
//! `CounterTracer`, so each round's counter deltas are visible
//! (`mining.max_round_patterns`).

use std::sync::Arc;
use std::time::Instant;

use gpa::{AliasLevel, Method, RunConfig, ValidateLevel};
use gpa_trace::{NoopTracer, Tracer};

use crate::corpus::{self, Behaviour, Variant};
use crate::drive::{self, Optimized};
use crate::layers;
use crate::spans::{self, Spans};
use crate::{elapsed_ns, median, percentile, ratio, Args, Outcome, Rng};

/// The kernels, each with how often one untraced pass optimizes it. One
/// cold sha run takes 6-9 s on a 2-core VM and the others 0.1-0.8 s, so
/// the others repeat: their per-sample noise is larger, and repeating them
/// gives each of their medians 8 or more samples in the time two sha runs
/// take.
pub const KERNELS: [(&str, usize); 6] = [
    ("bitcnts", 4),
    ("crc", 4),
    ("dijkstra", 4),
    ("patricia", 4),
    ("search", 4),
    ("sha", 1),
];
/// Seed stream for the scheduler variants.
const STREAM: u64 = 1;
/// Untraced passes a run makes at least, for the repeat check.
const MIN_PASSES: usize = 2;
/// Traced passes in a traced run; their work counts must agree.
const TRACED_PASSES: usize = 2;

struct Input {
    variant: Variant,
    reference: Behaviour,
    /// Optimizations per untraced pass.
    reps: usize,
}

fn setup(seed: u64) -> Result<Vec<Input>, String> {
    let mut rng = Rng::new(seed, STREAM);
    KERNELS
        .iter()
        .map(|&(kernel, reps)| {
            let variant = Variant::scheduled(kernel, rng.seed())?;
            let reference =
                corpus::emulate(&variant.image).map_err(|e| format!("{}: {e}", variant.name))?;
            Ok(Input {
                variant,
                reference,
                reps,
            })
        })
        .collect()
}

fn config(tracer: Arc<dyn Tracer>) -> RunConfig {
    RunConfig {
        validate: ValidateLevel::Off,
        alias: AliasLevel::Off,
        mining_threads: 2,
        front_threads: 2,
        tracer,
        ..RunConfig::default()
    }
}

type Results = Vec<Result<Optimized, String>>;

/// Optimizes `input` once; returns the outcome and its wall time (ns).
fn optimize(input: &Input, config: &RunConfig) -> (Result<Optimized, String>, u64) {
    let start = Instant::now();
    let result = drive::one_shot(&input.variant.image, Method::Edgar, config);
    (result, elapsed_ns(start))
}

/// Optimizes every image once, untraced: outcomes and wall times (ns).
fn untraced_pass(inputs: &[Input]) -> (Results, Vec<u64>) {
    let config = config(Arc::new(NoopTracer));
    inputs.iter().map(|input| optimize(input, &config)).unzip()
}

/// Scores one optimization: it must succeed and, when there is an
/// earlier result for its image, reproduce it exactly.
fn score_one(
    input: &Input,
    result: &Result<Optimized, String>,
    earlier: Option<&Result<Optimized, String>>,
    out: &mut Outcome,
) {
    out.attempted += 1;
    let name = &input.variant.name;
    match (result, earlier) {
        (Err(e), _) => out.fail(format!("{name}: {e}")),
        (Ok(now), Some(Ok(then))) if now != then => {
            out.fail(format!(
                "{name}: report or image differs from the first optimization"
            ));
        }
        _ => {}
    }
}

fn score(inputs: &[Input], results: &Results, earlier: Option<&Results>, out: &mut Outcome) {
    for (i, result) in results.iter().enumerate() {
        score_one(&inputs[i], result, earlier.map(|e| &e[i]), out);
    }
}

/// The emulator oracle over one pass's images; returns (saved words,
/// dynamic instructions after, before).
fn oracle(inputs: &[Input], results: &Results, out: &mut Outcome) -> (f64, u64, u64) {
    let (mut saved, mut after, mut before) = (0.0, 0, 0);
    for (input, result) in inputs.iter().zip(results) {
        let Ok(optimized) = result else { continue };
        match corpus::check_behaviour(&input.variant.name, &input.reference, &optimized.image) {
            Ok(steps) => {
                saved += optimized.report.saved_words() as f64;
                after += steps;
                before += input.reference.steps;
            }
            Err(e) => out.fail(e),
        }
    }
    (saved, after, before)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (inputs, setup_s) = crate::timed_setup(args, || setup(args.seed))?;
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &inputs, &mut out);
        return Ok(out);
    }
    // Whole passes until the measured phase is over. Within a pass the
    // repetitions interleave (every image once, then the repeating ones
    // again), so a slow stretch of the host spreads over the kernels.
    let config = config(Arc::new(NoopTracer));
    let reps = inputs.iter().map(|i| i.reps).max().unwrap_or(1);
    let start = Instant::now();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut first: Vec<Option<Result<Optimized, String>>> = inputs.iter().map(|_| None).collect();
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed() < args.duration() {
        for rep in 0..reps {
            for (i, input) in inputs.iter().enumerate().filter(|(_, i)| i.reps > rep) {
                let (result, wall) = optimize(input, &config);
                score_one(input, &result, first[i].as_ref(), &mut out);
                times[i].push(wall as f64 / 1e9);
                first[i].get_or_insert(result);
            }
        }
        passes += 1;
    }
    let first: Results = first
        .into_iter()
        .map(|r| r.expect("every image ran"))
        .collect();
    let (saved, after, before) = oracle(&inputs, &first, &mut out);
    // The kernels' costs differ by 100x, so the time metrics start from
    // each image's median latency: throughput is their geometric mean,
    // and the percentiles are taken over the six images.
    let medians: Vec<f64> = times.iter().map(|t| median(t)).collect();
    let words_per_s = inputs
        .iter()
        .zip(&medians)
        .map(|(input, m)| input.variant.words() as f64 / m);
    let medians_ms: Vec<f64> = medians.iter().map(|m| m * 1e3).collect();
    out.set("setup_s", setup_s);
    out.set("words_per_s", geomean(words_per_s));
    out.set("saved_words", saved);
    out.set("run_insns_ratio", ratio(after as f64, before as f64));
    out.set("req_per_s", geomean(medians.iter().map(|m| 1.0 / m)));
    out.set("latency_p50_ms", median(&medians_ms));
    out.set("latency_p90_ms", percentile(&medians_ms, 0.9));
    out.notes.push(format!(
        "{passes} passes over {} images; per image the median latency, then: words_per_s and req_per_s geometric means over images, latency_p50_ms the median and latency_p90_ms the nearest-rank p90 (the slowest image) over the {} image medians; run_insns_ratio base {before} instructions",
        inputs.len(),
        inputs.len()
    ));
    for (input, t) in inputs.iter().zip(&times) {
        out.notes.push(format!(
            "{:<36} {:>5} words  median {:>8.1} ms over {:>2} samples (min {:.1}, max {:.1})",
            input.variant.name,
            input.variant.words(),
            median(t) * 1e3,
            t.len(),
            percentile(t, 0.0) * 1e3,
            percentile(t, 1.0) * 1e3,
        ));
    }
    Ok(out)
}

/// Geometric mean (0 for no values).
fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / f64::from(n)).exp()
    }
}

fn traced(args: &Args, inputs: &[Input], out: &mut Outcome) {
    let (untraced, walls) = untraced_pass(inputs);
    let untraced_wall: u64 = walls.iter().sum();
    score(inputs, &untraced, None, out);
    let origin = Instant::now();
    let mut all_spans = Spans::new(origin);
    let mut samples = Vec::new();
    let mut traced_walls = Vec::new();
    for _ in 0..TRACED_PASSES {
        let mut spans = Spans::new(origin);
        let pass_start = Instant::now();
        let images = inputs.iter().map(|i| (i.variant.kernel, &i.variant.image));
        let (results, mut sample) = drive::traced_pass(&mut spans, images, Method::Edgar, &config);
        let wall = elapsed_ns(pass_start);
        traced_walls.push(wall as f64);
        layers::set(
            &mut sample,
            "trace.coverage_ratio",
            ratio(spans.top_level_ns() as f64, wall as f64),
        );
        score(inputs, &results, Some(&untraced), out);
        samples.push(sample);
        all_spans.absorb(spans);
    }
    layers::merge_passes(&samples, out);
    out.set(
        "trace.overhead_ratio",
        ratio(median(&traced_walls), untraced_wall as f64),
    );
    oracle(inputs, &untraced, out);
    out.notes.push(format!(
        "1 untraced pass + {TRACED_PASSES} traced passes over {} images",
        inputs.len()
    ));
    out.notes
        .push(spans::write_out(&all_spans, &args.workload, args.seed));
}
