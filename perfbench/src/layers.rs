//! Per-layer readings of one traced pass, and their merge over passes.

use std::collections::BTreeMap;

use gpa_trace::Counters;

use crate::{median, per_layer, ratio, Outcome};

/// One traced pass's per-layer values, keyed by [`per_layer`] name.
pub type LayerSample = BTreeMap<String, f64>;

/// Adds `value` to the `name` entry of `sample`.
pub fn add(sample: &mut LayerSample, name: &str, value: f64) {
    *sample.entry(name.to_owned()).or_insert(0.0) += value;
}

/// Sets the `name` entry of `sample`.
pub fn set(sample: &mut LayerSample, name: &str, value: f64) {
    sample.insert(name.to_owned(), value);
}

/// Adds the optimizer's work counters (as recorded by a
/// `gpa_trace::CounterTracer` in `RunConfig::tracer`), summed over a
/// pass, and the hit ratios derived from them to `sample`.
pub fn add_counters(sample: &mut LayerSample, c: &Counters) {
    for (name, counter) in [
        ("mining.patterns_visited", "mine.patterns_visited"),
        ("mining.canon_checks", "mine.canon_checks"),
        ("mining.extensions_generated", "mine.extensions_generated"),
        ("mining.prune_non_canonical", "mine.prune_non_canonical"),
        ("mining.mis_bb_steps", "mis.bb_steps"),
        ("core.candidates_evaluated", "detect.candidates_evaluated"),
        ("incremental.fallbacks", "incr.fallback"),
    ] {
        add(sample, name, c.get(counter) as f64);
    }
    for (name, hit, miss) in [
        (
            "mining.canon_cache_hit_ratio",
            "mine.canon_cache_hit",
            "mine.canon_cache_miss",
        ),
        (
            "incremental.seed_hit_ratio",
            "incr.seed_hit",
            "incr.seed_miss",
        ),
    ] {
        let (hits, misses) = (c.get(hit) as f64, c.get(miss) as f64);
        set(sample, name, ratio(hits, hits + misses));
    }
}

/// Merges the traced passes into `out`: a count must read the same in
/// every pass (the optimizer is deterministic for a fixed input and
/// thread count), a time or ratio is the median over passes.
pub fn merge_passes(samples: &[LayerSample], out: &mut Outcome) {
    for (name, unit) in per_layer() {
        let values: Vec<f64> = samples
            .iter()
            .filter_map(|s| s.get(&name).copied())
            .collect();
        let Some(&first) = values.first() else {
            continue;
        };
        if unit == "count" {
            if let Some(other) = values.iter().find(|&&v| v != first) {
                out.problem(format!(
                    "{name} did not repeat between traced passes: {first} vs {other}"
                ));
            }
            out.set(&name, first);
        } else {
            out.set(&name, median(&values));
        }
    }
}
