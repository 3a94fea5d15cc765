//! Incremental re-optimization: content-addressed mining at seed
//! granularity.
//!
//! Heavy traffic is mostly *re*-submission — the same program rebuilt
//! after a small edit — yet [`crate::artifact::image_cache_key`] covers
//! the whole image, so a one-function diff pays the full mining cost.
//! This module decomposes a detection round along the function-call
//! graph: each seed pattern of the DFS-code lattice is content-addressed
//! by the *functions hosting its embeddings*, and on re-submission only
//! seeds whose hosting functions changed re-enter the expensive
//! DgSpan/Edgar lattice. Unchanged extraction decisions are merged
//! forward.
//!
//! # Why seed granularity is sound
//!
//! Every pattern in a seed's subtree of the DFS-code lattice embeds only
//! where the seed embeds (pattern embeddings are extensions of seed
//! embeddings), so the best candidate of a seed's subtree is a pure
//! function of:
//!
//! - the full item streams of the functions hosting the seed's
//!   embeddings (they determine the regions, the per-region DFGs, the
//!   embedding enumeration order, and every candidate's savings),
//! - each host's `lr_free` bit (interprocedural, but *only* the bit
//!   matters: `region_live` and extraction eligibility derive from it
//!   plus the host's own items),
//! - the hosts' relative order (the preference order tie-breaks on the
//!   first occurrence's function index, and embedding enumeration
//!   follows region order),
//! - the *relative interner order* of the labels occurring in the
//!   hosting functions' DFGs. The label interner assigns ids in
//!   first-encounter order across the whole image, and minimal DFS
//!   codes compare label ids — so which seed's canonical subtree a
//!   pattern belongs to depends on that order. Two images hosting
//!   byte-identical functions can partition the same patterns across
//!   *different* seeds when an unrelated function shifts the interning
//!   order; hashing the hosts' label vocabulary in ascending-id order
//!   keys that partition. Re-submitting an edited image keeps the
//!   relative order of surviving labels (first encounters of unchanged
//!   functions don't move past each other), so warm hits survive edits,
//! - the mining configuration (support mode, label mode, node cap,
//!   pattern budget).
//!
//! [`seed_cache_key`] hashes exactly that closure, so a cache hit can
//! replay the seed's best candidate — remapped from function names to
//! current indices — without re-mining. A seed hosted by an edited
//! function misses and is re-mined; this is the "conflict check" that
//! invalidates cross-function fragments whose support set touches a
//! changed function.
//!
//! # Why replay is byte-identical
//!
//! The lattice search itself is per seed: the seed-task engine in
//! [`crate::graph_detect`] grows every seed with a *seed-local*
//! incumbent (a fresh best per seed), so a seed's result — its subtree
//! best under the total preference order, and the pattern count
//! `visited` the search spent — is a pure function of the seed's closure
//! above. An entry records exactly that pair for a seed whose subtree was
//! searched to the end. The round budget is then applied in seed order
//! to the recorded `visited` counts exactly as to freshly mined ones: a
//! replayed seed that would overrun what the seeds before it left is cut
//! and searched again under that allowance, like a mined one. So a hit
//! and a re-mine behave identically whether the budget binds or not,
//! and no round ever needs a fallback.
//!
//! The memo handle is deliberately excluded from `image_cache_key` —
//! like `front_threads` and the tracer, it never changes which candidate
//! wins, only how fast it is found.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gpa_cfg::{Item, Program};
use gpa_dfg::Fnv128;

use crate::candidate::{Candidate, ExtractionKind, Occurrence};

/// Schema tag hashed into every seed cache key.
pub const SEED_KEY_SCHEMA: &[u8] = b"gpa-seed-key/1";

/// One occurrence of a cached candidate, portable across runs: the
/// hosting function is named, not indexed, because function indices
/// shift when other functions are added or removed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortableOccurrence {
    /// Name of the hosting function.
    pub function: String,
    /// First item index of the hosting region within the function.
    pub region_start: usize,
    /// Hosting region length in items.
    pub region_len: usize,
    /// The occurrence's item indices, absolute within the function,
    /// sorted (portable because a key hit guarantees the function's
    /// item stream is unchanged).
    pub item_indices: Vec<usize>,
}

/// A detection winner in portable form: the concrete
/// [`Candidate`] with function indices replaced by names. Only
/// candidates without relaxed-alias claims are portable (the incremental
/// path is gated to [`crate::AliasLevel::Off`], where `relaxed` is
/// empty by construction).
#[derive(Clone, Debug, PartialEq)]
pub struct PortableCandidate {
    /// The fragment body items.
    pub body: Vec<Item>,
    /// Where the fragment occurs, in enumeration order.
    pub occurrences: Vec<PortableOccurrence>,
    /// Extraction mechanism.
    pub kind: ExtractionKind,
    /// Net words saved.
    pub saved: i64,
}

/// The cached mining result of one seed's lattice subtree.
#[derive(Clone, Debug, PartialEq)]
pub struct SeedEntry {
    /// The subtree's best extractable candidate, or `None` when the
    /// subtree holds no profitable extraction.
    pub candidate: Option<PortableCandidate>,
    /// Patterns the seed-local search visited to establish that — used
    /// to prove the replayed round stays within the pattern budget.
    pub visited: u64,
}

impl SeedEntry {
    /// Rough heap footprint for cost-aware cache admission.
    pub fn cost_estimate(&self) -> usize {
        let mut cost = std::mem::size_of::<SeedEntry>();
        if let Some(c) = &self.candidate {
            cost += c.body.len() * 48;
            for o in &c.occurrences {
                cost += std::mem::size_of::<PortableOccurrence>()
                    + o.function.len()
                    + o.item_indices.len() * std::mem::size_of::<usize>();
            }
        }
        cost
    }
}

/// What [`MineCache::note_tuple`] learned about a seed tuple's key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TupleNote {
    /// First sighting of this tuple.
    New,
    /// Same key as the last sighting — the seed's closure is unchanged.
    Same,
    /// The key changed — a hosting function was edited, so any prior
    /// extraction decision for this seed is invalidated.
    Changed,
}

/// A content-addressed store of per-seed mining results, shared across
/// detection rounds, images and (in serve) requests.
///
/// Implementations must be safe for concurrent use: the seed tasks of
/// one round run in parallel, and serve shares one cache across its
/// worker pool. The cache is purely an accelerator — correctness
/// never depends on what `get` returns, because a hit replays a value
/// that is a pure function of its key.
pub trait MineCache: Send + Sync + fmt::Debug {
    /// Looks up a seed entry by its content address.
    fn get(&self, key: u128) -> Option<SeedEntry>;
    /// Publishes a seed entry under its content address.
    fn put(&self, key: u128, entry: SeedEntry);
    /// Records that `tuple` currently resolves to `key` and reports how
    /// that compares to the previous sighting — drives the
    /// `incr.invalidated` counter.
    fn note_tuple(&self, tuple: u128, key: u128) -> TupleNote;
}

/// Hashes one host function's contribution to a seed key.
///
/// `fingerprint` is [`gpa_dfg::function_fingerprint`] of the host and
/// `lr_free` its interprocedural lr-clobberability bit (the only
/// cross-function fact detection consumes; hashing the bit keeps the key
/// honest about callee edits that flip it).
fn write_host(h: &mut Fnv128, name: &str, fingerprint: u128, lr_free: bool) {
    h.write_u64(name.len() as u64);
    h.write(name.as_bytes());
    h.write(&fingerprint.to_le_bytes());
    h.write(&[u8::from(lr_free)]);
}

/// The configuration half of a seed key, shared by every seed of a
/// round.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SeedKeyConfig {
    /// 0 = graphs (DgSpan), 1 = embeddings (Edgar).
    pub support: u8,
    /// 0 = exact, 1 = canonical.
    pub label_mode: u8,
    pub max_nodes: u64,
    pub max_patterns: u64,
}

/// The two-level content address of one seed: `tuple` covers the
/// configuration plus the seed edge's portable labels (stable across
/// runs — interner ids are not, strings are); `full` additionally covers
/// the ordered hosting functions. `tuple` keys the invalidation note,
/// `full` keys the entry.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SeedKey {
    pub tuple: u128,
    pub full: u128,
}

/// Computes a seed's content address. `hosts` must iterate the hosting
/// functions in ascending current-index order: the preference order
/// tie-breaks on occurrence function indices, so only host *order* — not
/// absolute indices — may be baked into the key. `vocab` must iterate
/// the distinct labels of the hosting functions' DFG nodes in ascending
/// interner-id order — the canonical-DFS-code order that decides which
/// seed's subtree owns each pattern (see the module docs).
pub(crate) fn seed_cache_key<'a>(
    config: &SeedKeyConfig,
    from_label: &str,
    to_label: &str,
    outgoing: bool,
    edge_label: u8,
    hosts: impl Iterator<Item = (&'a str, u128, bool)>,
    vocab: impl Iterator<Item = &'a str>,
) -> SeedKey {
    let mut h = Fnv128::new();
    h.write(SEED_KEY_SCHEMA);
    h.write(&[config.support, config.label_mode]);
    h.write_u64(config.max_nodes);
    h.write_u64(config.max_patterns);
    h.write_u64(from_label.len() as u64);
    h.write(from_label.as_bytes());
    h.write_u64(to_label.len() as u64);
    h.write(to_label.as_bytes());
    h.write(&[u8::from(outgoing), edge_label]);
    let tuple = h.finish();
    let mut count = 0u64;
    for (name, fingerprint, lr_free) in hosts {
        write_host(&mut h, name, fingerprint, lr_free);
        count += 1;
    }
    h.write_u64(count);
    let mut vocab_count = 0u64;
    for label in vocab {
        h.write_u64(label.len() as u64);
        h.write(label.as_bytes());
        vocab_count += 1;
    }
    h.write_u64(vocab_count);
    SeedKey {
        tuple,
        full: h.finish(),
    }
}

/// Converts a concrete candidate to its portable form, or `None` when
/// the candidate is not portable (it carries relaxed-alias claims, whose
/// validity depends on context outside the hosting functions).
pub(crate) fn to_portable(c: &Candidate, program: &Program) -> Option<PortableCandidate> {
    if !c.relaxed.is_empty() {
        return None;
    }
    Some(PortableCandidate {
        body: c.body.clone(),
        occurrences: c
            .occurrences
            .iter()
            .map(|o| PortableOccurrence {
                function: program.functions[o.function].name.clone(),
                region_start: o.region_start,
                region_len: o.region_len,
                item_indices: o.item_indices.clone(),
            })
            .collect(),
        kind: c.kind,
        saved: c.saved,
    })
}

/// Rebinds a portable candidate to the current program's function
/// indices. `None` when a named function is absent — impossible on a
/// genuine key hit (the key names every host); the seed is then mined
/// like a miss rather than panicking.
pub(crate) fn to_concrete(
    p: &PortableCandidate,
    index: &HashMap<&str, usize>,
) -> Option<Candidate> {
    let occurrences = p
        .occurrences
        .iter()
        .map(|o| {
            Some(Occurrence {
                function: *index.get(o.function.as_str())?,
                region_start: o.region_start,
                region_len: o.region_len,
                item_indices: o.item_indices.clone(),
            })
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Candidate {
        body: p.body.clone(),
        occurrences,
        kind: p.kind,
        saved: p.saved,
        relaxed: Vec::new(),
    })
}

/// A plain in-process [`MineCache`] over a mutexed map: the per-run seed
/// memo every [`crate::Optimizer`] owns, and the reference
/// implementation for unit tests. The production implementation
/// shared across runs (`gpa_pipeline::FuncCache`) adds sharding, cost
/// budgets and eviction.
///
/// Left alone the cache grows without bound. A caller that moves on
/// round by round calls [`MemoryMineCache::next_round`]; the cache then
/// keeps only the keys noted (see [`MineCache::note_tuple`]) or stored
/// in the current and the previous round.
#[derive(Debug, Default)]
pub struct MemoryMineCache {
    state: Mutex<MemoState>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Entries and tuple notes, each stamped with the last round that used it.
#[derive(Debug, Default)]
struct MemoState {
    round: u64,
    entries: HashMap<u128, StoredEntry>,
    tuples: HashMap<u128, (u128, u64)>,
}

/// A [`SeedEntry`] as the memo holds it. Most seeds have no candidate,
/// so the rare candidate is boxed to keep every slot small.
#[derive(Debug)]
struct StoredEntry {
    candidate: Option<Box<PortableCandidate>>,
    visited: u64,
    used: u64,
}

impl MemoryMineCache {
    /// An empty cache.
    pub fn new() -> MemoryMineCache {
        MemoryMineCache::default()
    }

    fn state(&self) -> std::sync::MutexGuard<'_, MemoState> {
        self.state.lock().expect("mine cache poisoned")
    }

    /// Starts a new round: drops every entry and tuple note the previous
    /// round did not use.
    pub fn next_round(&self) {
        let mut state = self.state();
        state.round += 1;
        let keep = state.round - 1;
        state.entries.retain(|_, e| e.used >= keep);
        state.tuples.retain(|_, (_, used)| *used >= keep);
    }

    /// Seed-entry lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Seed-entry lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cached seed entries.
    pub fn len(&self) -> usize {
        self.state().entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl MineCache for MemoryMineCache {
    fn get(&self, key: u128) -> Option<SeedEntry> {
        let hit = self.state().entries.get(&key).map(|e| SeedEntry {
            candidate: e.candidate.as_deref().cloned(),
            visited: e.visited,
        });
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    fn put(&self, key: u128, entry: SeedEntry) {
        let mut state = self.state();
        let stored = StoredEntry {
            candidate: entry.candidate.map(Box::new),
            visited: entry.visited,
            used: state.round,
        };
        state.entries.insert(key, stored);
    }

    fn note_tuple(&self, tuple: u128, key: u128) -> TupleNote {
        let mut state = self.state();
        let round = state.round;
        if let Some(entry) = state.entries.get_mut(&key) {
            entry.used = round;
        }
        match state.tuples.insert(tuple, (key, round)) {
            None => TupleNote::New,
            Some((prev, _)) if prev == key => TupleNote::Same,
            Some(_) => TupleNote::Changed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_key_separates_config_tuple_and_hosts() {
        let config = SeedKeyConfig {
            support: 1,
            label_mode: 0,
            max_nodes: 16,
            max_patterns: 60_000,
        };
        let hosts = [
            ("a".to_string(), 7u128, true),
            ("b".to_string(), 9u128, false),
        ];
        let key = |cfg: &SeedKeyConfig, from: &str, hs: &[(String, u128, bool)], vocab: &[&str]| {
            seed_cache_key(
                cfg,
                from,
                "sub r2, r2, r3",
                true,
                1,
                hs.iter().map(|(n, f, l)| (n.as_str(), *f, *l)),
                vocab.iter().copied(),
            )
        };
        let vocab = ["ldr r3, [r1]!", "sub r2, r2, r3"];
        let base = key(&config, "ldr r3, [r1]!", &hosts, &vocab);
        // Deterministic.
        let again = key(&config, "ldr r3, [r1]!", &hosts, &vocab);
        assert_eq!(base.tuple, again.tuple);
        assert_eq!(base.full, again.full);
        // The tuple half ignores hosts; the full key does not.
        let edited = [
            ("a".to_string(), 8u128, true),
            ("b".to_string(), 9u128, false),
        ];
        let after = key(&config, "ldr r3, [r1]!", &edited, &vocab);
        assert_eq!(base.tuple, after.tuple);
        assert_ne!(base.full, after.full);
        // Labels move both halves.
        let other = key(&config, "ldr r4, [r1]!", &hosts, &vocab);
        assert_ne!(base.tuple, other.tuple);
        // lr_free participates.
        let flipped = [
            ("a".to_string(), 7u128, false),
            ("b".to_string(), 9u128, false),
        ];
        assert_ne!(
            base.full,
            key(&config, "ldr r3, [r1]!", &flipped, &vocab).full
        );
        // The *order* of the hosts' label vocabulary participates: it is
        // the canonical-DFS-code order that decides which seed's subtree
        // owns each pattern, and it varies with the image-wide interning
        // order even when the hosts themselves are byte-identical.
        let swapped = ["sub r2, r2, r3", "ldr r3, [r1]!"];
        let reordered = key(&config, "ldr r3, [r1]!", &hosts, &swapped);
        assert_eq!(base.tuple, reordered.tuple);
        assert_ne!(base.full, reordered.full);
        // Config participates.
        let tighter = SeedKeyConfig {
            max_nodes: 8,
            ..config
        };
        assert_ne!(
            base.full,
            key(&tighter, "ldr r3, [r1]!", &hosts, &vocab).full
        );
    }

    #[test]
    fn memory_cache_round_trips_and_notes_tuples() {
        let cache = MemoryMineCache::new();
        assert!(cache.get(1).is_none());
        assert_eq!(cache.misses(), 1);
        let entry = SeedEntry {
            candidate: None,
            visited: 17,
        };
        cache.put(1, entry.clone());
        assert_eq!(cache.get(1), Some(entry));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.note_tuple(9, 1), TupleNote::New);
        assert_eq!(cache.note_tuple(9, 1), TupleNote::Same);
        assert_eq!(cache.note_tuple(9, 2), TupleNote::Changed);
    }

    #[test]
    fn memory_cache_keeps_only_the_last_two_rounds() {
        let cache = MemoryMineCache::new();
        let entry = |visited| SeedEntry {
            candidate: None,
            visited,
        };
        cache.put(1, entry(1));
        cache.put(2, entry(2));
        cache.next_round();
        // Round 1 notes key 1 only; both round-0 entries survive it.
        cache.note_tuple(10, 1);
        assert_eq!(cache.len(), 2);
        cache.next_round();
        // Key 2 went unused for a whole round and is dropped; key 1 was
        // noted in the previous round and stays.
        assert_eq!(cache.get(1), Some(entry(1)));
        assert_eq!(cache.get(2), None);
        assert_eq!(cache.note_tuple(10, 1), TupleNote::Same);
        cache.next_round();
        cache.next_round();
        assert!(cache.is_empty());
        assert_eq!(cache.note_tuple(10, 1), TupleNote::New);
    }
}
