//! Seeded benchmark of the gpa optimizer, batch pipeline and serve daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <edgar_cold|sfx_checked|serve_edits> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! With `--trace 0` the metrics are the end-to-end set ([`END_TO_END`]),
//! measured untraced; with `--trace 1` they are the per-layer set
//! ([`per_layer`]), taken from spans the benchmark records around its
//! calls into the program and from the program's public outputs. A human
//! readable table (with sample counts) goes to standard error, and the
//! traced run writes its spans to `.bench_out/spans/`.
//!
//! The process exits 1 when any output was wrong and 2 on a usage or
//! set-up error (nothing is printed on stdout then).

mod corpus;
mod drive;
mod edgar;
mod layers;
mod serve;
mod sfx;
mod spans;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("words_per_s", "words/s"),
    ("saved_words", "words"),
    ("run_insns_ratio", "ratio"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run: (name, unit), before
/// the `kernel.<name>.*` rows of [`per_layer`]. A layer a workload does
/// not reach reads 0.
pub const LAYERS: [(&str, &str); 31] = [
    ("mining.mine_ms", "ms"),
    ("mining.patterns_visited", "count"),
    ("mining.canon_checks", "count"),
    ("mining.canon_cache_hit_ratio", "ratio"),
    ("mining.extensions_generated", "count"),
    ("mining.prune_non_canonical", "count"),
    ("mining.max_round_patterns", "count"),
    ("mining.mis_ms", "ms"),
    ("mining.mis_bb_steps", "count"),
    ("core.detect_ms", "ms"),
    ("core.candidates_evaluated", "count"),
    ("core.rounds", "count"),
    ("dfg.build_ms", "ms"),
    ("sfx.detect_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("core.extract_ms", "ms"),
    ("cfg.decode_ms", "ms"),
    ("cfg.encode_ms", "ms"),
    ("pipeline.batch_ms", "ms"),
    ("pipeline.pool_busy_ratio", "ratio"),
    ("incremental.seed_hit_ratio", "ratio"),
    ("incremental.fallbacks", "count"),
    ("pipeline.func_cache_hit_ratio", "ratio"),
    ("pipeline.report_cache_hit_ratio", "ratio"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p90", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.run_ms_p90", "ms"),
    ("serve.wire_ms_p50", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_ratio", "ratio"),
];

/// The `kernel.<name>.optimize_ms` row of an `edgar_cold` kernel.
pub fn kernel_ms(kernel: &str) -> String {
    format!("kernel.{kernel}.optimize_ms")
}

/// The `kernel.<name>.patterns_visited` row of an `edgar_cold` kernel.
pub fn kernel_visited(kernel: &str) -> String {
    format!("kernel.{kernel}.patterns_visited")
}

/// Every per-layer metric: [`LAYERS`], then two rows per `edgar_cold`
/// kernel.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed = LAYERS.iter().map(|&(name, unit)| (name.to_owned(), unit));
    let kernels = edgar::KERNELS
        .iter()
        .flat_map(|&(kernel, _)| [(kernel_ms(kernel), "ms"), (kernel_visited(kernel), "count")]);
    fixed.chain(kernels).collect()
}

/// How often set-up runs in one process; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace: expected 0 or 1, got {other}")),
                    });
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }

    /// The measured-phase length.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload hands back: the verdict plus one value per metric.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase (images optimized or
    /// requests sent).
    pub attempted: u64,
    /// Operations that errored or produced a wrong output.
    pub failed: u64,
    /// Problems found by checks that are not tied to one operation (a
    /// work count that did not repeat, a traced report that differs from
    /// the untraced one). Any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Sample counts and other context for the stderr table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed operation with its reason (printed to stderr).
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        let why = why.into();
        eprintln!("perfbench: FAILED: {why}");
    }

    pub fn problem(&mut self, why: impl Into<String>) {
        let why = why.into();
        eprintln!("perfbench: CHECK FAILED: {why}");
        self.problems.push(why);
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }
}

/// A small seeded generator (SplitMix64): every input of a run derives
/// from `--seed` through it.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so adding a stream
    /// never shifts another's draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A non-zero scheduler or edit seed.
    pub fn seed(&mut self) -> u64 {
        self.next_u64() | 1
    }
}

/// Nearest-rank percentile of `values` (`p` in (0, 1]); 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let n = values.len();
    if n % 2 == 1 || n == 0 {
        return percentile(values, 0.5);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn elapsed_ns(since: Instant) -> u64 {
    gpa_trace::saturating_ns(since.elapsed())
}

/// Runs `setup` [`SETUP_REPS`] times (once in a traced run, which does
/// not report `setup_s`) and returns the last result with the median
/// set-up time in seconds. Each repetition redoes all of the work, so
/// work moved into set-up shows in `setup_s`.
pub fn timed_setup<T>(
    args: &Args,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous repetition first so at most one set-up's
        // state (a running server, say) is alive at a time.
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "edgar_cold" => edgar::run(&args),
        "sfx_checked" => sfx::run(&args),
        "serve_edits" => serve::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let table: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    if !args.trace {
        outcome.set("peak_rss_mb", peak_rss_mb());
        let ok = outcome.attempted.saturating_sub(outcome.failed);
        outcome.set("ok_share", ratio(ok as f64, outcome.attempted as f64));
    }
    let mut misfits: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|(name, value)| !value.is_finite() || !table.iter().any(|(n, _)| n == *name))
        .map(|(name, value)| {
            format!("metric {name} = {value} is not finite or not in the reported set")
        })
        .collect();
    // A layer a workload does not reach reads 0, but every end-to-end
    // metric is measured on every workload.
    if !args.trace {
        misfits.extend(
            END_TO_END
                .iter()
                .filter(|(name, _)| !outcome.metrics.contains_key(*name))
                .map(|(name, _)| format!("metric {name} was not measured")),
        );
    }
    for misfit in misfits {
        outcome.problem(misfit);
    }
    let correct = outcome.correct();
    eprintln!(
        "perfbench: {} seed {} trace {}: {} attempted, {} failed, {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        if correct { "correct" } else { "INCORRECT" }
    );
    for note in &outcome.notes {
        eprintln!("perfbench:   {note}");
    }
    let mut json = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.attempted, outcome.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        eprintln!("perfbench:   {name:<34} {value:>16.4} {unit}");
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    json.push_str("}}");
    println!("{json}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_streams_are_reproducible_and_distinct() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
    }

    /// Reads a JSON file relative to this package. The repository's JSON
    /// reader takes integers only, so the (fractional) metric bounds are
    /// dropped first.
    fn read_json(file: &str) -> gpa::json::Json {
        let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
        let mut text = std::fs::read_to_string(path).expect("readable");
        while let Some(at) = text.find("\"bound\":") {
            let start = text[..at].rfind(',').expect("bound follows a key");
            let end = at + text[at..].find('}').expect("bound ends its object");
            text.replace_range(start..end, "");
        }
        gpa::json::Json::parse(&text).expect("parses")
    }

    /// The metric tables here and in `BENCHMARK.json` must list the same
    /// names with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let doc = read_json("../BENCHMARK.json");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(gpa::json::Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(gpa::json::Json::as_str)
                            .unwrap()
                            .to_owned()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: Vec<(String, &str)>| -> Vec<(String, String)> {
            table.into_iter().map(|(n, u)| (n, u.to_owned())).collect()
        };
        let end_to_end = END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u));
        assert_eq!(names("end_to_end"), own(end_to_end.collect()));
        assert_eq!(names("per_layer"), own(per_layer()));
    }

    /// `layers.json` maps every per-layer metric exactly once, to
    /// end-to-end metrics and workloads that exist.
    #[test]
    fn layer_map_covers_every_per_layer_metric() {
        use gpa::json::Json;
        let bench = read_json("../BENCHMARK.json");
        let map = read_json("layers.json");
        let strings = |node: Option<&Json>| -> Vec<String> {
            node.and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|s| s.as_str().expect("string").to_owned())
                .collect()
        };
        let workloads: Vec<String> = bench
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_owned()
            })
            .collect();
        let Some(Json::Obj(described)) = map.get("workloads") else {
            panic!("layers.json workloads");
        };
        let described: Vec<String> = described.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(described, workloads);
        let mut mapped = Vec::new();
        for layer in map.get("layers").and_then(Json::as_arr).expect("layers") {
            mapped.extend(strings(layer.get("metrics")));
            for metric in strings(layer.get("moves")) {
                assert!(END_TO_END.iter().any(|(n, _)| *n == metric), "{metric}");
            }
            for key in ["mostly_on", "no_share_on"] {
                for workload in strings(layer.get(key)) {
                    assert!(workloads.contains(&workload), "{workload}");
                }
            }
        }
        let own: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(mapped, own);
    }
}
