//! `serve_edits`: an in-process `gpa serve` under an edit stream.
//!
//! The server runs Edgar with 2 workers (one mining thread each),
//! validation and alias analysis off, and its default report cache and
//! function-granularity mining cache. Set-up compiles the five small
//! kernels and warms the server with them, and generates every request
//! the clients may send, so the measured phase is submits and replies
//! only.
//!
//! Two client connections then drive the server closed-loop. Each
//! client's stream is seeded on its own and runs in cycles of twelve
//! requests in seeded order: six fresh one- or two-edit variants of the
//! warmed kernels (incremental re-optimization), two never-seen scheduler
//! variants (cold mining), and four exact re-submissions of an image the
//! client sent before or a warmed base (report-cache hits). A repeat
//! reply must equal the first reply for that image byte for byte
//! (outside the timing section). After the phase, the bases and the new
//! images of each client's first [`COUNTED_CYCLES`] are optimized again
//! one-shot (`Optimizer::run_with`, same `RunConfig`, no cache): each
//! report must equal the image's first reply, and each optimized image
//! must print and exit like its input. Kernels rotate within each kind,
//! so the mix is the same for every seed.
//!
//! The traced run sends each client's first [`TRACED_CYCLES`] untraced,
//! then twice starts a fresh server and replays exactly the same requests
//! with spans around `submit`; it reads queue and run time from each
//! reply and cache and mining counters from `gpa-stats/1` snapshots taken
//! before and after each replay. Count metrics must repeat between the
//! two replays; the mining and detection work counts, which do not, are
//! left out.

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpa::json::Json;
use gpa::{AliasLevel, Method, Report, RunConfig, ValidateLevel};
use gpa_serve::{submit, ServeConfig, Server};
use gpa_trace::NoopTracer;

use crate::corpus::{self, Variant};
use crate::drive;
use crate::layers::{self, set, LayerSample};
use crate::spans::{self, Spans};
use crate::{elapsed_ns, median, ms, percentile, ratio, Args, Outcome, Rng};

const STREAM: u64 = 3;
const KERNELS: [&str; 5] = ["bitcnts", "crc", "dijkstra", "patricia", "search"];
const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const KNOBS: &str = r#"{"method":"edgar","validate":"off"}"#;
/// Cycles every client completes; the one-shot re-derivation checks
/// their new images, and `saved_words` counts them.
const COUNTED_CYCLES: usize = 1;
/// Cycles generated per client in set-up. A 25 s phase uses about 6 on a
/// 2-core VM; should a client run out, both stop and the phase is
/// shorter (noted on stderr).
const PLANNED_CYCLES: usize = 16;
/// Cycles per client in each phase of a traced run: a fixed amount, so
/// its work counts repeat between processes with the same seed.
const TRACED_CYCLES: usize = 3;
/// Traced replays in a traced run; their work counts must agree.
const TRACED_REPLAYS: usize = 2;
/// Work counts not reported on this workload: they depend on how the two
/// clients' requests interleave over the shared FuncCache (a seed entry
/// one client stores can spare the other's search), so two replays of the
/// same requests differ by about 1%. They read 0 here.
const INTERLEAVING_COUNTS: [&str; 6] = [
    "mining.patterns_visited",
    "mining.canon_checks",
    "mining.extensions_generated",
    "mining.prune_non_canonical",
    "mining.mis_bb_steps",
    "core.candidates_evaluated",
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Edit,
    Cold,
    Repeat,
}

/// Request kinds of one cycle, before the per-cycle seeded shuffle.
const CYCLE: [Kind; 12] = [
    Kind::Edit,
    Kind::Edit,
    Kind::Edit,
    Kind::Edit,
    Kind::Edit,
    Kind::Edit,
    Kind::Cold,
    Kind::Cold,
    Kind::Repeat,
    Kind::Repeat,
    Kind::Repeat,
    Kind::Repeat,
];

fn run_config() -> RunConfig {
    RunConfig {
        validate: ValidateLevel::Off,
        alias: AliasLevel::Off,
        mining_threads: 1,
        front_threads: 1,
        tracer: Arc::new(NoopTracer),
        ..RunConfig::default()
    }
}

/// A warmed base image with the deterministic part of its warm reply.
struct Base {
    variant: Variant,
    bytes: Arc<Vec<u8>>,
    reply: String,
}

/// What a planned request sends.
enum Target {
    /// An image sent before: index into the client's sent list (the
    /// bases, then the client's new images in plan order).
    Repeat(usize),
    New(Variant),
}

/// One request, generated in set-up.
struct Planned {
    kind: Kind,
    kernel: &'static str,
    cycle: usize,
    bytes: Arc<Vec<u8>>,
    words: usize,
    target: Target,
}

/// A running server, the warmed bases and each client's requests.
/// Dropping it drains and joins the server.
struct Setup {
    server: Option<Server>,
    bases: Vec<Base>,
    plans: Vec<Vec<Planned>>,
}

impl Setup {
    fn server(&self) -> &Server {
        self.server
            .as_ref()
            .expect("server runs until the set-up is dropped")
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.drain();
            server.join();
        }
    }
}

/// The reply up to its `"metrics"` timing section: the part that must
/// repeat exactly.
fn deterministic(reply: &str) -> &str {
    reply
        .split_once(",\"metrics\":")
        .map_or(reply, |(head, _)| head)
}

/// What a one-shot run (no cache) says the server must answer for
/// `variant`: the reply's deterministic part, saved words, and dynamic
/// instructions of the optimized image and of the input (which must
/// behave alike).
fn one_shot(variant: &Variant) -> Result<(String, f64, u64, u64), String> {
    let reference =
        corpus::emulate(&variant.image).map_err(|e| format!("{}: {e}", variant.name))?;
    let optimized = drive::one_shot(&variant.image, Method::Edgar, &run_config())?;
    let steps = corpus::check_behaviour(&variant.name, &reference, &optimized.image)?;
    let expected = format!(
        "{{\"schema\":\"{}\",\"status\":\"ok\",\"report\":{}",
        gpa_serve::SERVE_SCHEMA,
        optimized.report.to_json()
    );
    Ok((
        expected,
        optimized.report.saved_words() as f64,
        steps,
        reference.steps,
    ))
}

/// Maps `items` through `f` on [`CLIENTS`] threads, keeping their order.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|first| {
                let f = &f;
                scope.spawn(move || {
                    (first..items.len())
                        .step_by(CLIENTS)
                        .map(|i| (i, f(&items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("worker thread panicked") {
                results[i] = Some(result);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

fn connect(server: &Server) -> Result<TcpStream, String> {
    TcpStream::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))
}

/// Generates client `client`'s requests: [`PLANNED_CYCLES`] cycles.
fn plan(seed: u64, client: usize, bases: &[Base]) -> Result<Vec<Planned>, String> {
    let mut rng = Rng::new(seed, STREAM + 1 + client as u64);
    let mut sent: Vec<(&'static str, Arc<Vec<u8>>, usize)> = bases
        .iter()
        .map(|b| (b.variant.kernel, Arc::clone(&b.bytes), b.variant.words()))
        .collect();
    // Offsets so the two clients work on different kernels at a time.
    let (mut edit_turn, mut cold_turn) = (client, 2 * client);
    let mut plan = Vec::new();
    for cycle in 0..PLANNED_CYCLES {
        let mut kinds = CYCLE;
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, rng.below(i + 1));
        }
        for kind in kinds {
            let target = match kind {
                Kind::Repeat => Target::Repeat(rng.below(sent.len())),
                Kind::Edit => {
                    let kernel = KERNELS[edit_turn % KERNELS.len()];
                    edit_turn += 1;
                    let edits = 1 + rng.below(2);
                    Target::New(Variant::edited(kernel, edits, &mut rng)?)
                }
                Kind::Cold => {
                    let kernel = KERNELS[cold_turn % KERNELS.len()];
                    cold_turn += 1;
                    Target::New(Variant::scheduled(kernel, rng.seed())?)
                }
            };
            let (kernel, bytes, words) = match &target {
                Target::Repeat(i) => sent[*i].clone(),
                Target::New(v) => {
                    let new = (v.kernel, Arc::new(v.image.to_bytes()), v.words());
                    sent.push(new.clone());
                    new
                }
            };
            plan.push(Planned {
                kind,
                kernel,
                cycle,
                bytes,
                words,
                target,
            });
        }
    }
    Ok(plan)
}

fn setup(seed: u64, spans: Option<&mut Spans>) -> Result<Setup, String> {
    let variants: Vec<Variant> = KERNELS
        .iter()
        .map(|k| Variant::base(k))
        .collect::<Result<_, _>>()?;
    let config = ServeConfig {
        workers: WORKERS,
        method: Method::Edgar,
        run: run_config(),
        ..ServeConfig::default()
    };
    let start = || Server::start("127.0.0.1:0", config.clone()).map_err(|e| format!("server: {e}"));
    let server = match spans {
        Some(spans) => spans.record("Server::start", 0, |_| start())?,
        None => start()?,
    };
    let mut setup = Setup {
        server: Some(server),
        bases: Vec::new(),
        plans: Vec::new(),
    };
    // Warm the server from two connections, so both workers run.
    let warm: Vec<Result<Vec<(usize, String)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let setup = &setup;
                let variants = &variants;
                scope.spawn(move || {
                    let mut stream = connect(setup.server())?;
                    (client..variants.len())
                        .step_by(CLIENTS)
                        .map(|i| {
                            submit(&mut stream, KNOBS, &variants[i].image.to_bytes())
                                .map(|reply| (i, deterministic(&reply).to_owned()))
                                .map_err(|e| format!("warm {}: {e:?}", variants[i].name))
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up client panicked"))
            .collect()
    });
    let mut replies = vec![String::new(); variants.len()];
    for client in warm {
        for (i, reply) in client? {
            replies[i] = reply;
        }
    }
    setup.bases = variants
        .into_iter()
        .zip(replies)
        .map(|(variant, reply)| Base {
            bytes: Arc::new(variant.image.to_bytes()),
            variant,
            reply,
        })
        .collect();
    setup.plans = (0..CLIENTS)
        .map(|client| plan(seed, client, &setup.bases))
        .collect::<Result<_, _>>()?;
    Ok(setup)
}

/// One request as the client saw it.
struct Record {
    kind: Kind,
    kernel: &'static str,
    latency_ns: u64,
    queue_ns: u64,
    run_ns: u64,
    words: usize,
    /// Deterministic part of the reply (compared in the traced replays).
    reply: String,
}

/// What one client did in a phase.
struct ClientLog {
    records: Vec<Record>,
    failures: Vec<String>,
    /// The new images of the first [`COUNTED_CYCLES`]: plan index and the
    /// deterministic part of the reply.
    counted: Vec<(usize, String)>,
    /// Whether the client used up its plan before the phase was over.
    ran_out: bool,
    spans: Spans,
}

/// Parses a reply, which must be `ok` and carry a readable report:
/// queue and run ns.
fn parse_reply(reply: &str) -> Result<(u64, u64), String> {
    let doc = Json::parse(reply).map_err(|e| format!("reply: {e}"))?;
    let status = doc.get("status").and_then(Json::as_str).unwrap_or("?");
    if status != "ok" {
        let error = doc.get("error").and_then(Json::as_str).unwrap_or("");
        return Err(format!("status {status} {error}"));
    }
    let metric = |key: &str| {
        doc.get("metrics")
            .and_then(|m| m.get(key))
            .and_then(Json::as_int)
            .map_or(0, |v| v.max(0) as u64)
    };
    doc.get("report")
        .ok_or("reply without a report")
        .and_then(|r| Report::from_json(r).map_err(|_| "unreadable report"))?;
    Ok((metric("queue_ns"), metric("run_ns")))
}

#[derive(Clone, Copy)]
enum Stop {
    /// Until the phase is over and the first [`COUNTED_CYCLES`] are done.
    At(Duration),
    /// Exactly this many requests (a replay).
    After(usize),
}

/// Sends client `index`'s planned requests until `stop`, or until the
/// other client ran out of requests (`halt`).
fn client(
    index: usize,
    setup: &Setup,
    stop: Stop,
    halt: &AtomicBool,
    origin: Instant,
    traced: bool,
) -> Result<ClientLog, String> {
    let mut stream = connect(setup.server())?;
    // First replies by sent-list index; a new image whose reply failed
    // keeps its slot empty.
    let mut firsts: Vec<Option<String>> =
        setup.bases.iter().map(|b| Some(b.reply.clone())).collect();
    let mut log = ClientLog {
        records: Vec::new(),
        failures: Vec::new(),
        counted: Vec::new(),
        ran_out: false,
        spans: Spans::new(origin),
    };
    let phase_start = Instant::now();
    for (id, request) in setup.plans[index].iter().enumerate() {
        let done = match stop {
            Stop::After(limit) => id >= limit,
            Stop::At(seconds) => {
                halt.load(Ordering::Relaxed)
                    || (request.cycle >= COUNTED_CYCLES && phase_start.elapsed() >= seconds)
            }
        };
        if done {
            return Ok(log);
        }
        let start = Instant::now();
        let reply = if traced {
            log.spans.record("submit", id as u64, |_| {
                submit(&mut stream, KNOBS, &request.bytes)
            })
        } else {
            submit(&mut stream, KNOBS, &request.bytes)
        };
        let latency_ns = elapsed_ns(start);
        let reply = reply.map_err(|e| format!("client {index}: transport: {e:?}"))?;
        let det = deterministic(&reply).to_owned();
        let mut record = Record {
            kind: request.kind,
            kernel: request.kernel,
            latency_ns,
            queue_ns: 0,
            run_ns: 0,
            words: request.words,
            reply: det.clone(),
        };
        match parse_reply(&reply) {
            Ok((queue_ns, run_ns)) => {
                record.queue_ns = queue_ns;
                record.run_ns = run_ns;
                match &request.target {
                    Target::Repeat(i) if firsts[*i].as_ref().is_some_and(|f| *f != det) => {
                        log.failures.push(format!(
                            "client {index} request {id}: repeat reply differs from the first"
                        ));
                    }
                    Target::Repeat(_) => {}
                    Target::New(_) => {
                        if request.cycle < COUNTED_CYCLES {
                            log.counted.push((id, det.clone()));
                        }
                        firsts.push(Some(det));
                    }
                }
            }
            Err(e) => {
                log.failures
                    .push(format!("client {index} request {id}: {e}"));
                if let Target::New(_) = request.target {
                    firsts.push(None);
                }
            }
        }
        log.records.push(record);
    }
    if let Stop::At(_) = stop {
        log.ran_out = true;
        halt.store(true, Ordering::Relaxed);
    }
    Ok(log)
}

/// Runs all clients against `setup` and returns their logs and the phase
/// wall time.
fn phase(
    setup: &Setup,
    stops: &[Stop],
    origin: Instant,
    traced: bool,
) -> Result<(Vec<ClientLog>, u64), String> {
    let halt = AtomicBool::new(false);
    let start = Instant::now();
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = stops
            .iter()
            .enumerate()
            .map(|(i, &stop)| {
                let halt = &halt;
                scope.spawn(move || client(i, setup, stop, halt, origin, traced))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok((logs, elapsed_ns(start)))
}

fn score(logs: &[ClientLog], out: &mut Outcome) {
    for log in logs {
        out.attempted += log.records.len() as u64;
        for failure in &log.failures {
            out.fail(failure.clone());
        }
    }
}

/// What the one-shot re-derivation found over the images it checked.
#[derive(Default)]
struct Rederived {
    images: usize,
    saved: f64,
    /// Dynamic instructions of the optimized images and of their inputs.
    insns_after: u64,
    insns_before: u64,
}

/// Optimizes the bases and the counted new images again one-shot, with
/// no cache, on [`CLIENTS`] threads: each report must equal the image's
/// first reply and each optimized image must behave like its input.
fn rederive(setup: &Setup, logs: &[ClientLog], out: &mut Outcome) -> Rederived {
    let bases = setup.bases.iter().map(|b| (&b.variant, b.reply.as_str()));
    let new = logs.iter().zip(&setup.plans).flat_map(|(log, plan)| {
        log.counted
            .iter()
            .filter_map(|(id, reply)| match &plan[*id].target {
                Target::New(variant) => Some((variant, reply.as_str())),
                Target::Repeat(_) => None,
            })
    });
    let checks: Vec<(&Variant, &str)> = bases.chain(new).collect();
    let results = par_map(&checks, |(variant, _)| one_shot(variant));
    let mut found = Rederived {
        images: checks.len(),
        ..Rederived::default()
    };
    for ((variant, reply), result) in checks.iter().zip(results) {
        match result {
            Ok((expected, saved, steps, reference_steps)) if expected == *reply => {
                found.saved += saved;
                found.insns_after += steps;
                found.insns_before += reference_steps;
            }
            Ok(_) => out.fail(format!(
                "{}: reply differs from a one-shot run_with report",
                variant.name
            )),
            Err(e) => out.fail(e),
        }
    }
    found
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    if args.trace {
        return traced(args);
    }
    let (setup, setup_s) = crate::timed_setup(args, || setup(args.seed, None))?;
    let mut out = Outcome::default();
    let stops = [Stop::At(args.duration()); CLIENTS];
    let (logs, wall) = phase(&setup, &stops, Instant::now(), false)?;
    score(&logs, &mut out);
    let found = rederive(&setup, &logs, &mut out);
    let records: Vec<&Record> = logs.iter().flat_map(|l| &l.records).collect();
    let latencies: Vec<f64> = records.iter().map(|r| ms(r.latency_ns)).collect();
    let words: usize = records.iter().map(|r| r.words).sum();
    let wall_s = wall as f64 / 1e9;
    out.set("setup_s", setup_s);
    out.set("words_per_s", words as f64 / wall_s);
    out.set("saved_words", found.saved);
    out.set(
        "run_insns_ratio",
        ratio(found.insns_after as f64, found.insns_before as f64),
    );
    out.set("req_per_s", records.len() as f64 / wall_s);
    out.set("latency_p50_ms", median(&latencies));
    out.set("latency_p90_ms", percentile(&latencies, 0.9));
    if logs.iter().any(|l| l.ran_out) {
        out.notes.push(format!(
            "a client used up its {PLANNED_CYCLES} planned cycles: the phase lasted {wall_s:.1} s"
        ));
    }
    let count = |kind| records.iter().filter(|r| r.kind == kind).count();
    // p90 is the highest percentile reported; it needs ten samples above
    // it to mean anything.
    let beyond_p90 = records.len() - (0.9 * records.len() as f64).ceil() as usize;
    out.notes.push(format!(
        "{} requests from {CLIENTS} closed-loop clients ({} edit, {} cold, {} repeat); {beyond_p90} beyond p90{}",
        records.len(),
        count(Kind::Edit),
        count(Kind::Cold),
        count(Kind::Repeat),
        if beyond_p90 < 10 { " (WARNING: fewer than 10, p90 is not resolved)" } else { "" },
    ));
    let mut by_latency = records.clone();
    by_latency.sort_by_key(|r| r.latency_ns);
    for p in [0.5, 0.9] {
        let rank = ((p * by_latency.len() as f64).ceil() as usize).clamp(1, by_latency.len());
        let around: Vec<String> = by_latency
            [rank.saturating_sub(3)..(rank + 2).min(by_latency.len())]
            .iter()
            .map(|r| format!("{:?}/{} {:.0}", r.kind, r.kernel, ms(r.latency_ns)))
            .collect();
        out.notes.push(format!(
            "p{:.0} at rank {rank}: {}",
            p * 100.0,
            around.join(", ")
        ));
    }
    for kernel in KERNELS {
        let of = |kind| -> Vec<f64> {
            records
                .iter()
                .filter(|r| r.kernel == kernel && r.kind == kind)
                .map(|r| ms(r.latency_ns))
                .collect()
        };
        out.notes.push(format!(
            "{kernel:<9} median ms: edit {:>7.1}  cold {:>7.1}  repeat {:>5.1}",
            median(&of(Kind::Edit)),
            median(&of(Kind::Cold)),
            median(&of(Kind::Repeat))
        ));
    }
    out.notes.push(format!(
        "saved_words and run_insns_ratio over the {} images re-derived one-shot: the {} bases + each client's first {COUNTED_CYCLES} cycles' new images (base {} instructions)",
        found.images,
        KERNELS.len(),
        found.insns_before
    ));
    Ok(out)
}

/// Reads a counter from a `gpa-stats/1` snapshot (`section.name`).
fn stat(doc: &Json, path: &[&str]) -> f64 {
    let mut node = Some(doc);
    for key in path {
        node = node.and_then(|n| n.get(key));
    }
    node.and_then(Json::as_int).unwrap_or(0) as f64
}

/// The per-layer readings of one traced replay, from the `gpa-stats/1`
/// snapshots taken before and after it and from the clients' records.
fn replay_sample(
    before: &str,
    after: &str,
    logs: &[ClientLog],
    submit_ns: u64,
    wall: u64,
) -> Result<LayerSample, String> {
    let before = Json::parse(before).map_err(|e| format!("stats: {e}"))?;
    let after = Json::parse(after).map_err(|e| format!("stats: {e}"))?;
    let delta = |path: &[&str]| stat(&after, path) - stat(&before, path);
    let mut counters = gpa_trace::Counters::default();
    if let Some(Json::Obj(pairs)) = after.get("job_counters") {
        for (name, _) in pairs {
            let grew = delta(&["job_counters", name.as_str()]);
            counters.0.insert(name.clone(), grew.max(0.0) as u64);
        }
    }
    let mut sample = LayerSample::new();
    layers::add_counters(&mut sample, &counters);
    for name in INTERLEAVING_COUNTS {
        sample.remove(name);
    }
    for (name, cache) in [
        ("pipeline.func_cache_hit_ratio", "func"),
        ("pipeline.report_cache_hit_ratio", "report"),
    ] {
        let hits = delta(&["cache", cache, "hits"]);
        let misses = delta(&["cache", cache, "misses"]);
        set(&mut sample, name, ratio(hits, hits + misses));
    }
    let records: Vec<&Record> = logs.iter().flat_map(|l| &l.records).collect();
    let queue: Vec<f64> = records.iter().map(|r| ms(r.queue_ns)).collect();
    let run: Vec<f64> = records.iter().map(|r| ms(r.run_ns)).collect();
    let wire: Vec<f64> = records
        .iter()
        .map(|r| ms(r.latency_ns.saturating_sub(r.queue_ns + r.run_ns)))
        .collect();
    set(&mut sample, "serve.queue_ms_p50", median(&queue));
    set(&mut sample, "serve.queue_ms_p90", percentile(&queue, 0.9));
    set(&mut sample, "serve.run_ms_p50", median(&run));
    set(&mut sample, "serve.run_ms_p90", percentile(&run, 0.9));
    set(&mut sample, "serve.wire_ms_p50", median(&wire));
    set(
        &mut sample,
        "core.rounds",
        counters.get("run.rounds") as f64,
    );
    for r in &records {
        drive::set_kernel(&mut sample, r.kernel, ms(r.run_ns), 0.0);
    }
    // Client threads overlap, so coverage is per client connection.
    set(
        &mut sample,
        "trace.coverage_ratio",
        ratio(submit_ns as f64, (CLIENTS as u64 * wall) as f64),
    );
    Ok(sample)
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let untraced_setup = setup(args.seed, None)?;
    let replay = [Stop::After(TRACED_CYCLES * CYCLE.len()); CLIENTS];
    let (untraced, untraced_wall) = phase(&untraced_setup, &replay, Instant::now(), false)?;
    score(&untraced, &mut out);
    rederive(&untraced_setup, &untraced, &mut out);
    drop(untraced_setup);

    let origin = Instant::now();
    let mut all_spans = Spans::new(origin);
    let mut samples = Vec::new();
    let mut walls = Vec::new();
    for _ in 0..TRACED_REPLAYS {
        let mut spans = Spans::new(origin);
        let setup = setup(args.seed, Some(&mut spans))?;
        let before = spans.record("stats_json", 0, |_| setup.server().stats_json());
        let (logs, wall) = phase(&setup, &replay, origin, true)?;
        let after = spans.record("stats_json", 1, |_| setup.server().stats_json());
        drop(setup);
        score(&logs, &mut out);
        for (client, (then, now)) in untraced.iter().zip(&logs).enumerate() {
            for (i, (a, b)) in then.records.iter().zip(&now.records).enumerate() {
                if a.reply != b.reply {
                    out.problem(format!(
                        "client {client} request {i}: traced reply differs from untraced"
                    ));
                }
            }
        }
        let submit_ns: u64 = logs.iter().map(|l| l.spans.total_ns("submit")).sum();
        samples.push(replay_sample(&before, &after, &logs, submit_ns, wall)?);
        walls.push(wall as f64);
        for log in logs {
            spans.absorb(log.spans);
        }
        all_spans.absorb(spans);
    }
    layers::merge_passes(&samples, &mut out);
    out.set(
        "trace.overhead_ratio",
        ratio(median(&walls), untraced_wall as f64),
    );
    out.notes.push(format!(
        "untraced phase of {} requests, then the same requests replayed traced {TRACED_REPLAYS} times on fresh servers",
        untraced.iter().map(|l| l.records.len()).sum::<usize>()
    ));
    out.notes
        .push(spans::write_out(&all_spans, &args.workload, args.seed));
    Ok(out)
}
