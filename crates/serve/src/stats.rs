//! Lock-free live counters and the `gpa-stats/1` snapshot.
//!
//! The serve hot path used to aggregate its lifecycle counters in the
//! tracer's `Mutex<BTreeMap>`; a live Stats endpoint polling that map
//! would contend with every worker on every request. [`ServeStats`]
//! moves the per-request counters and gauges onto plain atomics:
//! workers pay one uncontended `fetch_add` per transition, and a
//! snapshot is a handful of loads that never blocks anyone.
//!
//! # The consistent-cut problem
//!
//! The serve accounting identity
//!
//! ```text
//! accepted == completed + shed + deadline_exceeded + in_flight + queued
//! ```
//!
//! cannot be observed by naively loading five independently-updated
//! atomics — a request can slip between any two loads. [`ServeStats::
//! gauges`] therefore *derives* the gauges from the monotone counters
//! read in a fixed order: the three final states first, `accepted`
//! last. Every request counted in a final state was counted in
//! `accepted` strictly earlier, so `outstanding = accepted − finals`
//! never underflows, and the raw queued gauge (which can transiently
//! read high while a request is between counters) is clamped to
//! `outstanding`. The identity then holds *by construction* in every
//! snapshot — which is exactly what `gpa trace-check` and the soak
//! tests assert.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use gpa_trace::LogHistogram;

/// Lifecycle counters and gauges for a running serve process, all
/// atomic: increments are wait-free and a snapshot never takes a lock.
#[derive(Debug)]
pub struct ServeStats {
    start: Instant,
    /// Requests decoded and admitted past the protocol layer.
    accepted: AtomicU64,
    /// Requests answered (ok, error, or internal_error documents).
    completed: AtomicU64,
    /// Requests refused by backpressure (`overloaded`) or drain.
    shed: AtomicU64,
    /// Requests answered `deadline_exceeded`.
    deadline_exceeded: AtomicU64,
    /// Jobs whose worker panicked (answered `internal_error`; a subset
    /// of `completed` so the identity is undisturbed).
    internal_errors: AtomicU64,
    /// Frames that failed to decode.
    protocol_errors: AtomicU64,
    /// Shutdown frames honoured.
    shutdown_frames: AtomicU64,
    /// Stats admin frames answered.
    stats_frames: AtomicU64,
    /// Dump admin frames answered.
    dump_frames: AtomicU64,
    /// Raw queued gauge: incremented on push, decremented on pop.
    queued: AtomicU64,
    /// Process-unique request-id source (first id is 1).
    req_seq: AtomicU64,
}

impl ServeStats {
    /// Fresh stats with the uptime clock starting now.
    pub fn new() -> ServeStats {
        ServeStats {
            start: Instant::now(),
            accepted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            internal_errors: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            shutdown_frames: AtomicU64::new(0),
            stats_frames: AtomicU64::new(0),
            dump_frames: AtomicU64::new(0),
            queued: AtomicU64::new(0),
            req_seq: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since the stats (and so the server) started.
    pub fn uptime_ns(&self) -> u64 {
        gpa_trace::saturating_ns(self.start.elapsed())
    }

    /// Nanoseconds-since-start timestamp source for windowed histograms
    /// and the flight recorder (one shared epoch).
    pub fn now_ns(&self) -> u64 {
        self.uptime_ns()
    }

    /// The next request id (process-unique, starting at 1).
    pub fn next_req_id(&self) -> u64 {
        self.req_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Counts a request admitted past the protocol layer. Must precede
    /// the final-state count for the same request — the derived gauges
    /// rely on that order.
    pub fn count_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts a request answered with a document (including `error` and
    /// `internal_error` statuses).
    pub fn count_completed(&self) {
        self.completed.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts a request shed by backpressure or drain.
    pub fn count_shed(&self) {
        self.shed.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts a request answered `deadline_exceeded`.
    pub fn count_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts a worker panic answered as `internal_error`.
    pub fn count_internal_error(&self) {
        self.internal_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an undecodable frame.
    pub fn count_protocol_error(&self) {
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an honoured Shutdown frame.
    pub fn count_shutdown_frame(&self) {
        self.shutdown_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an answered Stats frame.
    pub fn count_stats_frame(&self) {
        self.stats_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an answered Dump frame.
    pub fn count_dump_frame(&self) {
        self.dump_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one request entering the queue.
    pub fn queue_enter(&self) {
        self.queued.fetch_add(1, Ordering::SeqCst);
    }

    /// Marks one request leaving the queue (dequeued by a worker or
    /// abandoned at drain).
    pub fn queue_exit(&self) {
        // Saturate rather than wrap if an exit ever races ahead of its
        // enter; the snapshot clamp makes the gauge self-correcting.
        let _ = self
            .queued
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |q| {
                Some(q.saturating_sub(1))
            });
    }

    /// A consistent cut of the identity counters and derived gauges
    /// (see the module docs for why the read order makes the serve
    /// accounting identity hold in every snapshot).
    pub fn gauges(&self) -> Gauges {
        let completed = self.completed.load(Ordering::SeqCst);
        let shed = self.shed.load(Ordering::SeqCst);
        let deadline_exceeded = self.deadline_exceeded.load(Ordering::SeqCst);
        let queued_raw = self.queued.load(Ordering::SeqCst);
        let accepted = self.accepted.load(Ordering::SeqCst);
        let finals = completed + shed + deadline_exceeded;
        let outstanding = accepted.saturating_sub(finals);
        let queued = queued_raw.min(outstanding);
        Gauges {
            accepted,
            completed,
            shed,
            deadline_exceeded,
            queued,
            in_flight: outstanding - queued,
        }
    }

    /// Every non-identity lifetime counter as `(serve.* name, total)`
    /// pairs — the one place the atomic fields map to counter names.
    /// (The four identity counters travel in [`Gauges`] instead, so a
    /// snapshot renders them from the same consistent cut.)
    pub fn counter_values(&self) -> [(&'static str, u64); 5] {
        [
            (
                "serve.dump_frames",
                self.dump_frames.load(Ordering::Relaxed),
            ),
            (
                "serve.internal_errors",
                self.internal_errors.load(Ordering::Relaxed),
            ),
            (
                "serve.protocol_errors",
                self.protocol_errors.load(Ordering::Relaxed),
            ),
            (
                "serve.shutdown_frames",
                self.shutdown_frames.load(Ordering::Relaxed),
            ),
            (
                "serve.stats_frames",
                self.stats_frames.load(Ordering::Relaxed),
            ),
        ]
    }
}

impl Default for ServeStats {
    fn default() -> ServeStats {
        ServeStats::new()
    }
}

/// One consistent cut of the identity counters plus the gauges derived
/// from them; `accepted == completed + shed + deadline_exceeded +
/// in_flight + queued` holds for every value of this struct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Gauges {
    /// Requests admitted past the protocol layer.
    pub accepted: u64,
    /// Requests answered with a document.
    pub completed: u64,
    /// Requests refused by backpressure or drain.
    pub shed: u64,
    /// Requests answered `deadline_exceeded`.
    pub deadline_exceeded: u64,
    /// Requests currently waiting in the queue.
    pub queued: u64,
    /// Requests currently executing (or in reply handoff).
    pub in_flight: u64,
}

/// Everything a `gpa-stats/1` snapshot carries, assembled by the server
/// from one consistent read of its live state and rendered by
/// [`StatsSnapshot::to_json_string`]. Kept as a plain struct so the
/// schema is unit-testable without a socket.
pub struct StatsSnapshot {
    /// Nanoseconds since the server started.
    pub uptime_ns: u64,
    /// Worker-pool size.
    pub workers: usize,
    /// Configured queue bound.
    pub queue_depth: usize,
    /// The consistent identity cut.
    pub gauges: Gauges,
    /// Non-identity `serve.*` lifetime counters.
    pub counters: Vec<(&'static str, u64)>,
    /// Optimizer counters summed over every job run so far.
    pub job_counters: gpa_trace::Counters,
    /// Width of the rolling window the `window` histograms cover.
    pub window_ns: u64,
    /// Lifetime queue-wait / run-time / end-to-end histograms.
    pub lifetime: [LogHistogram; 3],
    /// The same three histograms restricted to the rolling window.
    pub window: [LogHistogram; 3],
    /// Report-cache lookups answered from memory or disk.
    pub report_hits: u64,
    /// Report-cache lookups that missed.
    pub report_misses: u64,
    /// Report-cache entries evicted or rejected.
    pub report_evicted: u64,
    /// Per-shard occupancy of the report cache's memory layer.
    pub report_shards: Vec<gpa_pipeline::ShardOccupancy>,
    /// The report cache's configured budget.
    pub report_budget: gpa_pipeline::CacheBudget,
    /// Resident DFG-cache entries.
    pub dfg_entries: usize,
    /// DFG-cache hits.
    pub dfg_hits: u64,
    /// DFG-cache misses.
    pub dfg_misses: u64,
    /// DFG-cache evictions.
    pub dfg_evicted: u64,
    /// Function-granularity mining-cache stats.
    pub func_cache: gpa_pipeline::FuncCacheStats,
    /// Events currently held by the flight recorder.
    pub recorder_events: usize,
    /// Events the recorder has dropped to stay within capacity.
    pub recorder_dropped: u64,
    /// The recorder's ring capacity.
    pub recorder_capacity: usize,
}

/// Serializes an unsigned axis that uses its type's MAX as "unlimited"
/// (a [`gpa_pipeline::CacheBudget`] axis) as `-1`, keeping every number
/// in the snapshot within i64 for small JSON parsers.
fn budget_axis(v: u64, unlimited: u64) -> String {
    if v == unlimited {
        "-1".to_owned()
    } else {
        v.to_string()
    }
}

impl StatsSnapshot {
    /// Renders the `gpa-stats/1` JSON document. Field order is fixed
    /// and every map is sorted by key, so two snapshots of identical
    /// state serialize byte-identically.
    pub fn to_json_string(&self) -> String {
        use std::collections::BTreeMap;
        use std::fmt::Write as _;

        let g = &self.gauges;
        let mut out = String::with_capacity(2048);
        let _ = write!(
            out,
            "{{\"schema\":\"{}\",\"uptime_ns\":{},\"workers\":{},\"queue_depth\":{}",
            crate::proto::STATS_SCHEMA,
            self.uptime_ns,
            self.workers,
            self.queue_depth,
        );
        let _ = write!(
            out,
            ",\"gauges\":{{\"in_flight\":{},\"queued\":{}}}",
            g.in_flight, g.queued
        );

        // One map of serve.* counters: the identity four from the
        // consistent cut, the rest from their independent atomics.
        let mut counters: BTreeMap<&str, u64> = self.counters.iter().copied().collect();
        counters.insert("serve.accepted", g.accepted);
        counters.insert("serve.completed", g.completed);
        counters.insert("serve.shed", g.shed);
        counters.insert("serve.deadline_exceeded", g.deadline_exceeded);
        out.push_str(",\"counters\":{");
        for (i, (name, total)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{total}");
        }
        out.push('}');

        out.push_str(",\"job_counters\":{");
        for (i, (name, total)) in self.job_counters.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            gpa_trace::write_json_str(&mut out, name);
            let _ = write!(out, ":{total}");
        }
        out.push('}');

        let _ = write!(out, ",\"latency\":{{\"window_ns\":{}", self.window_ns);
        for (key, triple) in [("lifetime", &self.lifetime), ("window", &self.window)] {
            let _ = write!(
                out,
                ",\"{key}\":{{\"queue\":{},\"run\":{},\"e2e\":{}}}",
                triple[0].to_json_string(),
                triple[1].to_json_string(),
                triple[2].to_json_string(),
            );
        }
        out.push('}');

        let (entries, bytes) = self
            .report_shards
            .iter()
            .fold((0usize, 0u64), |(e, b), s| (e + s.entries, b + s.bytes));
        let _ = write!(
            out,
            ",\"cache\":{{\"report\":{{\"hits\":{},\"misses\":{},\"evicted\":{},\
             \"entries\":{},\"bytes\":{},\"budget_entries\":{},\"budget_bytes\":{},\"shards\":[",
            self.report_hits,
            self.report_misses,
            self.report_evicted,
            entries,
            bytes,
            budget_axis(self.report_budget.max_entries as u64, usize::MAX as u64),
            budget_axis(self.report_budget.max_bytes, u64::MAX),
        );
        for (i, shard) in self.report_shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{}]", shard.entries, shard.bytes);
        }
        let _ = write!(
            out,
            "]}},\"dfg\":{{\"entries\":{},\"hits\":{},\"misses\":{},\"evicted\":{}}}",
            self.dfg_entries, self.dfg_hits, self.dfg_misses, self.dfg_evicted,
        );
        let fc = &self.func_cache;
        let _ = write!(
            out,
            ",\"func\":{{\"hits\":{},\"misses\":{},\"hit_rate_pct\":{},\
             \"evicted\":{},\"entries\":{},\"bytes\":{}}}",
            fc.hits,
            fc.misses,
            fc.hit_rate_pct(),
            fc.evicted,
            fc.entries,
            fc.bytes,
        );
        out.push('}');

        let _ = write!(
            out,
            ",\"recorder\":{{\"events\":{},\"dropped\":{},\"capacity\":{}}}}}",
            self.recorder_events, self.recorder_dropped, self.recorder_capacity,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity_holds(g: &Gauges) -> bool {
        g.accepted == g.completed + g.shed + g.deadline_exceeded + g.in_flight + g.queued
    }

    #[test]
    fn gauges_identity_holds_through_a_request_lifecycle() {
        let stats = ServeStats::new();
        assert_eq!(stats.gauges().accepted, 0);
        assert!(identity_holds(&stats.gauges()));

        stats.count_accepted();
        stats.queue_enter();
        let g = stats.gauges();
        assert!(identity_holds(&g));
        assert_eq!((g.queued, g.in_flight), (1, 0));

        stats.queue_exit();
        let g = stats.gauges();
        assert!(identity_holds(&g));
        assert_eq!((g.queued, g.in_flight), (0, 1));

        stats.count_completed();
        let g = stats.gauges();
        assert!(identity_holds(&g));
        assert_eq!((g.completed, g.queued, g.in_flight), (1, 0, 0));
    }

    #[test]
    fn gauges_clamp_a_transiently_high_queue_gauge() {
        // A request between `queue_enter` and `count_accepted` (or a
        // stray exit/enter race) can make the raw gauge exceed what the
        // counters account for; the derived cut clamps instead of
        // reporting an identity violation.
        let stats = ServeStats::new();
        stats.queue_enter(); // no matching accept yet
        let g = stats.gauges();
        assert!(identity_holds(&g));
        assert_eq!((g.queued, g.in_flight), (0, 0));
        // An exit without an enter saturates rather than wrapping.
        stats.queue_exit();
        stats.queue_exit();
        assert!(identity_holds(&stats.gauges()));
    }

    #[test]
    fn request_ids_are_unique_and_start_at_one() {
        let stats = ServeStats::new();
        assert_eq!(stats.next_req_id(), 1);
        assert_eq!(stats.next_req_id(), 2);
        let ids: std::collections::BTreeSet<u64> = (0..100).map(|_| stats.next_req_id()).collect();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn counter_values_cover_the_non_identity_family() {
        let stats = ServeStats::new();
        stats.count_protocol_error();
        stats.count_shutdown_frame();
        stats.count_stats_frame();
        stats.count_stats_frame();
        stats.count_dump_frame();
        stats.count_internal_error();
        let values: std::collections::BTreeMap<&str, u64> =
            stats.counter_values().into_iter().collect();
        assert_eq!(values["serve.protocol_errors"], 1);
        assert_eq!(values["serve.shutdown_frames"], 1);
        assert_eq!(values["serve.stats_frames"], 2);
        assert_eq!(values["serve.dump_frames"], 1);
        assert_eq!(values["serve.internal_errors"], 1);
    }

    fn sample_snapshot() -> StatsSnapshot {
        let mut hist = LogHistogram::new();
        hist.record(1_000);
        StatsSnapshot {
            uptime_ns: 5_000_000,
            workers: 2,
            queue_depth: 4,
            gauges: Gauges {
                accepted: 10,
                completed: 7,
                shed: 1,
                deadline_exceeded: 1,
                queued: 1,
                in_flight: 0,
            },
            counters: vec![("serve.stats_frames", 3)],
            job_counters: {
                let mut c = gpa_trace::Counters::default();
                c.0.insert("mine.patterns_visited".into(), 42);
                c
            },
            window_ns: 30_000_000_000,
            lifetime: [hist.clone(), hist.clone(), hist.clone()],
            window: [hist.clone(), hist.clone(), hist],
            report_hits: 5,
            report_misses: 5,
            report_evicted: 0,
            report_shards: vec![gpa_pipeline::ShardOccupancy {
                entries: 3,
                bytes: 900,
            }],
            report_budget: gpa_pipeline::CacheBudget::bounded(4096, 256 << 20),
            dfg_entries: 12,
            dfg_hits: 30,
            dfg_misses: 12,
            dfg_evicted: 0,
            func_cache: gpa_pipeline::FuncCacheStats {
                hits: 9,
                misses: 3,
                evicted: 0,
                entries: 12,
                bytes: 1024,
            },
            recorder_events: 17,
            recorder_dropped: 0,
            recorder_capacity: 4096,
        }
    }

    #[test]
    fn snapshot_json_is_parsable_and_carries_the_identity() {
        let snap = sample_snapshot();
        let json = snap.to_json_string();
        assert!(json.starts_with("{\"schema\":\"gpa-stats/1\",\"uptime_ns\":5000000,"));
        let doc = gpa::json::Json::parse(&json).expect("snapshot must be valid JSON");
        let counters = doc.get("counters").expect("counters object");
        let int =
            |j: &gpa::json::Json, k: &str| j.get(k).and_then(gpa::json::Json::as_int).unwrap();
        let gauges = doc.get("gauges").expect("gauges object");
        assert_eq!(
            int(counters, "serve.accepted"),
            int(counters, "serve.completed")
                + int(counters, "serve.shed")
                + int(counters, "serve.deadline_exceeded")
                + int(gauges, "in_flight")
                + int(gauges, "queued"),
        );
        assert_eq!(int(doc.get("recorder").unwrap(), "capacity"), 4096);
        let report = doc.get("cache").unwrap().get("report").unwrap();
        assert_eq!(int(report, "entries"), 3);
        assert_eq!(int(report, "bytes"), 900);
        assert_eq!(int(report, "budget_bytes"), 256 << 20);
        let func = doc.get("cache").unwrap().get("func").unwrap();
        assert_eq!(int(func, "hits"), 9);
        assert_eq!(int(func, "hit_rate_pct"), 75);
        // Identical state → identical bytes.
        assert_eq!(json, sample_snapshot().to_json_string());
    }

    #[test]
    fn unlimited_budget_axes_serialize_as_minus_one() {
        let mut snap = sample_snapshot();
        snap.report_budget = gpa_pipeline::CacheBudget::unbounded();
        let doc = gpa::json::Json::parse(&snap.to_json_string()).unwrap();
        let report = doc.get("cache").unwrap().get("report").unwrap();
        assert_eq!(report.get("budget_entries").unwrap().as_int(), Some(-1));
        assert_eq!(report.get("budget_bytes").unwrap().as_int(), Some(-1));
    }
}
