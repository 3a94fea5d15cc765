//! `sfx_checked`: the batch pipeline under suffix-trie detection with
//! per-round translation validation.
//!
//! Inputs are one seeded edit variant and one seeded scheduler variant of
//! each of the eight kernels. One `gpa_pipeline::run_batch` call over the
//! sixteen images (`jobs = 2`, method SFX, `validate = EveryRound`,
//! `mining_threads = front_threads = 1`, alias off) is one request; its
//! in-memory report cache starts cold every call. The lattice search is
//! never entered. Every batch must reproduce the first batch's reports.
//!
//! After the measured phase each image is re-derived one-shot and its
//! report must equal its batch entry; the re-derived images of a seeded
//! sample (one variant per kernel, qsort's only in the traced run, where
//! its ~6 s emulator runs fit) must print and exit like their inputs.
//!
//! The traced run re-derives round by round ([`drive::traced_pass`]), so
//! detection, extraction, validation, decode and encode each have spans.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gpa::{AliasLevel, Method, Report, RunConfig, ValidateLevel};
use gpa_pipeline::{run_batch, BatchConfig, BatchInput, CorpusReport};
use gpa_trace::{NoopTracer, Tracer};

use crate::corpus::{self, Behaviour, Variant};
use crate::drive::{self, Optimized};
use crate::layers;
use crate::spans::{self, Spans};
use crate::{elapsed_ns, median, percentile, ratio, Args, Outcome, Rng};

const STREAM: u64 = 2;
const KERNELS: [&str; 8] = [
    "bitcnts", "crc", "dijkstra", "patricia", "qsort", "rijndael", "search", "sha",
];
const JOBS: usize = 2;
const TRACED_PASSES: usize = 2;

struct Input {
    variant: Variant,
    /// Set for the images in the emulator sample.
    reference: Option<Behaviour>,
}

fn setup(seed: u64, traced: bool) -> Result<Vec<Input>, String> {
    let mut rng = Rng::new(seed, STREAM);
    let mut inputs = Vec::new();
    for kernel in KERNELS {
        let edits = 1 + rng.below(2);
        let edited = Variant::edited(kernel, edits, &mut rng)?;
        let scheduled = Variant::scheduled(kernel, rng.seed())?;
        let sampled = rng.below(2);
        for (i, variant) in [edited, scheduled].into_iter().enumerate() {
            let reference = if i == sampled && (traced || kernel != "qsort") {
                Some(
                    corpus::emulate(&variant.image)
                        .map_err(|e| format!("{}: {e}", variant.name))?,
                )
            } else {
                None
            };
            inputs.push(Input { variant, reference });
        }
    }
    Ok(inputs)
}

fn run_config(tracer: Arc<dyn Tracer>) -> RunConfig {
    RunConfig {
        validate: ValidateLevel::EveryRound,
        alias: AliasLevel::Off,
        mining_threads: 1,
        front_threads: 1,
        tracer,
        ..RunConfig::default()
    }
}

fn batch(inputs: &[BatchInput]) -> Result<CorpusReport, String> {
    let config = BatchConfig {
        jobs: JOBS,
        method: Method::Sfx,
        run: run_config(Arc::new(NoopTracer)),
        ..BatchConfig::default()
    };
    run_batch(inputs, &config)
}

/// A batch entry's report, or its error.
type Entry = Result<Report, String>;

fn entries(report: &CorpusReport) -> Vec<Entry> {
    report.images.iter().map(|e| e.outcome.clone()).collect()
}

/// Scores one batch: every entry must succeed and match the first batch.
fn score(inputs: &[Input], now: &[Entry], first: &[Entry], out: &mut Outcome) {
    for ((input, entry), then) in inputs.iter().zip(now).zip(first) {
        out.attempted += 1;
        let name = &input.variant.name;
        match entry {
            Err(e) => out.fail(format!("{name}: {e}")),
            Ok(report) if then.as_ref() != Ok(report) => {
                out.fail(format!("{name}: report differs from the first batch"));
            }
            Ok(_) => {}
        }
    }
}

/// Checks re-derived images against their batch entries and the
/// emulator oracle; returns (saved words, dynamic instructions after,
/// before) — instructions over the sample only.
fn oracle(
    inputs: &[Input],
    rederived: Vec<Result<Optimized, String>>,
    batch: &[Entry],
    out: &mut Outcome,
) -> (f64, u64, u64) {
    let (mut saved, mut after, mut before) = (0.0, 0, 0);
    for ((input, result), entry) in inputs.iter().zip(rederived).zip(batch) {
        let name = &input.variant.name;
        let checked = result.and_then(|r| {
            if Ok(&r.report) != entry.as_ref() {
                return Err(format!(
                    "{name}: re-derived report differs from its batch entry"
                ));
            }
            if let Some(reference) = &input.reference {
                let steps = corpus::check_behaviour(name, reference, &r.image)?;
                after += steps;
                before += reference.steps;
            }
            Ok(r.report.saved_words())
        });
        match checked {
            Ok(s) => saved += s as f64,
            Err(e) => out.fail(e),
        }
    }
    (saved, after, before)
}

fn batch_inputs(inputs: &[Input]) -> Vec<BatchInput> {
    inputs
        .iter()
        .map(|i| BatchInput::loaded(i.variant.name.clone(), i.variant.image.clone()))
        .collect()
}

/// Runs batches until `seconds` pass (at least two); returns the first
/// batch's entries and every batch's wall time in seconds.
fn measure(
    inputs: &[Input],
    seconds: Duration,
    out: &mut Outcome,
) -> Result<(Vec<Entry>, Vec<f64>), String> {
    let batch_inputs = batch_inputs(inputs);
    let start = Instant::now();
    let mut first: Option<Vec<Entry>> = None;
    let mut walls = Vec::new();
    while walls.len() < 2 || start.elapsed() < seconds {
        let batch_start = Instant::now();
        let now = entries(&batch(&batch_inputs)?);
        walls.push(elapsed_ns(batch_start) as f64 / 1e9);
        score(inputs, &now, first.as_deref().unwrap_or(&now), out);
        first.get_or_insert(now);
    }
    Ok((first.expect("at least one batch"), walls))
}

fn one_shot_all(inputs: &[Input]) -> Vec<Result<Optimized, String>> {
    let config = run_config(Arc::new(NoopTracer));
    inputs
        .iter()
        .map(|i| drive::one_shot(&i.variant.image, Method::Sfx, &config))
        .collect()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (inputs, setup_s) = crate::timed_setup(args, || setup(args.seed, args.trace))?;
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &inputs, &mut out)?;
        return Ok(out);
    }
    let words: usize = inputs.iter().map(|i| i.variant.words()).sum();
    let (first, walls) = measure(&inputs, args.duration(), &mut out)?;
    let (saved, after, before) = oracle(&inputs, one_shot_all(&inputs), &first, &mut out);
    let rates: Vec<f64> = walls.iter().map(|w| words as f64 / w).collect();
    let per_s: Vec<f64> = walls.iter().map(|w| 1.0 / w).collect();
    let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    out.set("setup_s", setup_s);
    out.set("words_per_s", median(&rates));
    out.set("saved_words", saved);
    out.set("run_insns_ratio", ratio(after as f64, before as f64));
    out.set("req_per_s", median(&per_s));
    out.set("latency_p50_ms", median(&walls_ms));
    out.set("latency_p90_ms", percentile(&walls_ms, 0.9));
    out.notes.push(format!(
        "{} batches of {} images ({words} words); a request is one batch; run_insns_ratio base: {before} instructions over the sample",
        walls.len(),
        inputs.len()
    ));
    Ok(out)
}

fn traced(args: &Args, inputs: &[Input], out: &mut Outcome) -> Result<(), String> {
    let (first, walls) = measure(inputs, args.duration() / 2, out)?;
    let rederive_start = Instant::now();
    let rederived = one_shot_all(inputs);
    let rederive_wall = elapsed_ns(rederive_start) as f64 / 1e9;
    oracle(inputs, rederived, &first, out);
    let untraced_wall = median(&walls) + rederive_wall;

    let batch_inputs = batch_inputs(inputs);
    let origin = Instant::now();
    let mut all_spans = Spans::new(origin);
    let mut samples = Vec::new();
    let mut traced_walls = Vec::new();
    for _ in 0..TRACED_PASSES {
        let mut spans = Spans::new(origin);
        let pass_start = Instant::now();
        let batch_id = inputs.len() as u64;
        let report = spans.record("run_batch", batch_id, |_| batch(&batch_inputs))?;
        let images = inputs.iter().map(|i| (i.variant.kernel, &i.variant.image));
        let (rederived, mut sample) =
            drive::traced_pass(&mut spans, images, Method::Sfx, &run_config);
        let wall = elapsed_ns(pass_start);
        traced_walls.push(wall as f64 / 1e9);
        let now = entries(&report);
        score(inputs, &now, &first, out);
        for ((input, result), entry) in inputs.iter().zip(rederived).zip(&now) {
            match result {
                Ok(r) if Ok(&r.report) == entry.as_ref() => {}
                Ok(_) => out.problem(format!(
                    "{}: round-by-round report differs from its batch entry",
                    input.variant.name
                )),
                Err(e) => out.problem(format!("{}: round by round: {e}", input.variant.name)),
            }
        }
        let busy: u64 = report.images.iter().map(|e| e.timings.total_ns()).sum();
        layers::set(
            &mut sample,
            "pipeline.batch_ms",
            crate::ms(spans.total_ns("run_batch")),
        );
        layers::set(
            &mut sample,
            "pipeline.pool_busy_ratio",
            ratio(busy as f64, (report.jobs as u64 * report.wall_ns) as f64),
        );
        layers::set(
            &mut sample,
            "trace.coverage_ratio",
            ratio(spans.top_level_ns() as f64, wall as f64),
        );
        samples.push(sample);
        all_spans.absorb(spans);
    }
    layers::merge_passes(&samples, out);
    out.set(
        "trace.overhead_ratio",
        ratio(median(&traced_walls), untraced_wall),
    );
    out.notes.push(format!(
        "{} untraced batches + one-shot re-derive, then {TRACED_PASSES} traced passes (batch + round-by-round re-derive) over {} images",
        walls.len(),
        inputs.len()
    ));
    out.notes
        .push(spans::write_out(&all_spans, &args.workload, args.seed));
    Ok(())
}
