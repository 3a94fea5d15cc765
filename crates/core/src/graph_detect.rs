//! Graph-based fragment detection: DgSpan and Edgar candidates.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gpa_cfg::{Item, Program};
use gpa_dfg::{function_fingerprint, AliasOracle, Dfg, LabelMode};
use gpa_image::pool;
use gpa_mining::dfs_code::DfsTuple;
use gpa_mining::embed::{seed_buckets, Embedding};
use gpa_mining::graph::{InputGraph, LabelInterner};
use gpa_mining::miner::{
    mine_seed, non_overlapping_count_traced, Config, Frequent, GrowDecision, Support,
};
use gpa_trace::{NoopTracer, Tracer, Value};

use crate::artifact::{BlockArtifact, DfgCache};
use crate::candidate::{classify_body, Candidate, ExtractionKind, Occurrence, RelaxedPair};
use crate::cost::saved_words;
use crate::extract::contract_region_with;
use crate::incremental::{self, MineCache, SeedEntry, SeedKeyConfig, TupleNote};
use crate::optimizer::AliasLevel;
use crate::stage::StageTimings;
use crate::trace::trace_equivalent;

/// Detection configuration for the graph-based methods.
#[derive(Clone, Debug)]
pub struct GraphConfig {
    /// Support counting: `Graphs` = DgSpan, `Embeddings` = Edgar.
    pub support: Support,
    /// Node-label scheme (exact for extraction; canonical only estimates).
    pub label_mode: LabelMode,
    /// Fragment size cap in nodes.
    pub max_nodes: usize,
    /// Pattern-visit budget per mining round (bounds the exponential
    /// lattice of large repetitive blocks), consumed in seed order: a
    /// seed may use what the seeds before it left, the seed that needs
    /// more is cut at that point and the seeds after it are skipped.
    pub max_patterns: usize,
    /// Worker threads for the lattice search. Each seed is a task claimed
    /// from one pool (`1` = the calling thread searches the seeds in
    /// order); the seed-order merge makes the winning candidate the same
    /// at any thread count, so — like `front_threads` — the knob is
    /// excluded from [`crate::artifact::image_cache_key`].
    pub threads: usize,
    /// Worker threads for the front-end per-block artifact build (the
    /// region DFGs, their reachability closures, and — under
    /// [`AliasLevel::Stack`] — the relaxed overlays). Each block builds
    /// independently and results land in input order, so the graphs are
    /// bit-identical at any thread count and the knob — like `threads` —
    /// is excluded from [`crate::artifact::image_cache_key`].
    pub front_threads: usize,
    /// Telemetry sink for detection counters, the per-round candidate
    /// table and degradation events. Tracing never changes which
    /// candidate wins, so the tracer — like `threads` — is excluded
    /// from [`crate::artifact::image_cache_key`].
    pub tracer: Arc<dyn Tracer>,
    /// Memory disambiguation for the region DFGs. Under
    /// [`AliasLevel::Stack`] the abstract interpreter builds a second,
    /// *relaxed* DFG per region with the MEM edges between provably
    /// disjoint stack accesses dropped. Mining still counts on the
    /// conservative DFG (dropped edges are context-dependent, so they
    /// would break cross-region isomorphism and fragment connectivity);
    /// the relaxed graph only widens what is *extractable* — convexity,
    /// cross-jump exit-closedness, and the contraction probe — so the
    /// candidate universe under `Stack` is a superset of `Off`'s. Every
    /// winning candidate carries the dropped pairs as claims for the
    /// validator.
    pub alias: AliasLevel,
    /// The seed memo: a content-addressed cache of per-seed mining
    /// results (see [`crate::incremental`]) consulted before every seed
    /// task, except under [`AliasLevel::Stack`]. A hit replays exactly
    /// what mining the seed would return, its visit count included, so
    /// the handle — like `threads` and the tracer — is excluded from
    /// [`crate::artifact::image_cache_key`]. `None` mines every seed.
    pub incremental: Option<Arc<dyn MineCache>>,
}

impl Default for GraphConfig {
    fn default() -> GraphConfig {
        GraphConfig {
            support: Support::Embeddings,
            label_mode: LabelMode::Exact,
            max_nodes: 16,
            max_patterns: crate::optimizer::DEFAULT_MAX_PATTERNS,
            threads: 1,
            front_threads: 1,
            tracer: Arc::new(NoopTracer),
            alias: AliasLevel::default(),
            incremental: None,
        }
    }
}

/// A region with its provenance, aligned with the DFG/graph indices.
pub(crate) struct RegionInfo {
    pub function: usize,
    pub start: usize,
    pub len: usize,
    pub items: Vec<Item>,
}

pub(crate) fn region_infos(program: &Program) -> Vec<RegionInfo> {
    let mut infos = Vec::new();
    for (fi, f) in program.functions.iter().enumerate() {
        for r in f.regions() {
            infos.push(RegionInfo {
                function: fi,
                start: r.start,
                len: r.items.len(),
                items: r.items.to_vec(),
            });
        }
    }
    infos
}

/// Runs the value-set abstract interpreter over the whole program and
/// projects its verdicts onto the detection regions: one [`AliasOracle`]
/// per region, whose slot `u` holds the based byte intervals item `u`
/// touches (entry-sp-relative, absolute, or symbolic-pointer-relative) —
/// or `None` when the interpreter could not resolve every access of that
/// item to a based interval.
///
/// Symbolic bases whose defining item lies inside the region carry the
/// def's region-relative index so [`AliasOracle::disjoint`] can refuse
/// pairs that straddle a redefinition of the base pointer.
///
/// Emits the `absint.points` counter (reachable program points analyzed).
pub(crate) fn region_oracles(
    program: &Program,
    infos: &[RegionInfo],
    tracer: &dyn Tracer,
) -> Vec<AliasOracle> {
    use gpa_dfg::{AliasBase, AliasInterval};
    use gpa_verify::AccessBase;

    let graph = gpa_verify::CallGraph::build(program);
    let env = gpa_verify::AbsEnv::build(program, &graph);
    let mut points = 0u64;
    let per_fn: Vec<gpa_verify::AbsInt> = program
        .functions
        .iter()
        .map(|f| {
            let analysis = gpa_verify::AbsInt::analyze(f, Some(&env));
            points += analysis.points;
            analysis
        })
        .collect();
    tracer.count("absint.points", points);
    infos
        .iter()
        .map(|info| {
            let before = &per_fn[info.function].before;
            let slots = (0..info.len)
                .map(|u| {
                    let state = before.get(info.start + u)?.as_ref()?;
                    let accesses =
                        gpa_verify::absint::resolved_accesses(state, &info.items[u], Some(&env))?;
                    Some(
                        accesses
                            .iter()
                            .map(|a| AliasInterval {
                                base: match a.base {
                                    AccessBase::Sp => AliasBase::Sp,
                                    AccessBase::Abs => AliasBase::Abs,
                                    AccessBase::Sym(sym) => AliasBase::Sym {
                                        sym,
                                        def: gpa_verify::absint::sym_def_index(sym)
                                            .filter(|&d| {
                                                d >= info.start && d < info.start + info.len
                                            })
                                            .map(|d| d - info.start),
                                    },
                                },
                                lo: a.lo,
                                hi: a.hi,
                            })
                            .collect(),
                    )
                })
                .collect();
            AliasOracle { slots }
        })
        .collect()
}

/// Computes, per function, whether `lr` is free to clobber (a `bl` may be
/// inserted anywhere). `lr` is *live* in a function when the function can
/// still read the entry value of `lr`: it contains a `bx lr`, or it
/// tail-branches into a function that does (cross-jump fragments carry the
/// `bx lr` of the leaf epilogues they merged, so liveness must propagate
/// backwards over `TailCall` edges to a fixpoint).
pub(crate) fn lr_free_functions(program: &Program) -> Vec<bool> {
    let index: std::collections::HashMap<&str, usize> = program
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();
    let mut live: Vec<bool> = program
        .functions
        .iter()
        .map(|f| {
            f.items.iter().any(|i| {
                matches!(
                    i,
                    Item::Insn(gpa_arm::Instruction::Bx { rm, .. }) if *rm == gpa_arm::Reg::LR
                )
            })
        })
        .collect();
    loop {
        let mut changed = false;
        for (fi, f) in program.functions.iter().enumerate() {
            if live[fi] {
                continue;
            }
            let tail_live = f.items.iter().any(|i| {
                matches!(i, Item::TailCall { target, .. }
                    if index.get(target.as_str()).map(|&t| live[t]).unwrap_or(true))
            });
            if tail_live {
                live[fi] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    live.into_iter().map(|l| !l).collect()
}

/// Builds the best extractable candidate from one frequent fragment, or
/// `None`.
/// Forward-reachability closure of a DFG as one bitset row per node.
pub(crate) struct Reach {
    words: usize,
    rows: Vec<u64>,
}

impl Reach {
    pub(crate) fn new(dfg: &Dfg) -> Reach {
        let n = dfg.node_count();
        let words = n.div_ceil(64).max(1);
        let mut rows = vec![0u64; n * words];
        // Edges only go forward in node order; sweep backwards.
        for u in (0..n).rev() {
            for e in dfg.succs(u) {
                let v = e.to;
                rows[u * words + v / 64] |= 1 << (v % 64);
                let (a, b) = rows.split_at_mut(u.max(v) * words);
                let (src, dst) = if u < v {
                    (&b[..words], &mut a[u * words..u * words + words])
                } else {
                    unreachable!("DFG edges point forward")
                };
                for w in 0..words {
                    dst[w] |= src[w];
                }
            }
        }
        Reach { words, rows }
    }

    fn row(&self, u: usize) -> &[u64] {
        &self.rows[u * self.words..(u + 1) * self.words]
    }
}

/// Cap on embeddings validated per pattern: beyond this many occurrences
/// the benefit is enormous anyway, and validation cost must stay bounded.
const MAX_VALIDATED_EMBEDDINGS: usize = 512;

fn candidate_from_frequent(
    freq: &Frequent,
    infos: &[RegionInfo],
    artifacts: &[Arc<BlockArtifact>],
    relaxed: Option<&[Arc<BlockArtifact>]>,
    lr_free: &[bool],
    mis_ns: &mut u64,
    tracer: &dyn Tracer,
) -> Option<Candidate> {
    if freq.embeddings.len() < 2 {
        return None;
    }
    if freq.embeddings.len() > MAX_VALIDATED_EMBEDDINGS {
        // Occurrences beyond the cap are silently never extracted;
        // record how many a consumer of this pattern loses sight of.
        tracer.event(
            "detect.validation_truncated",
            &[
                ("pattern_nodes", Value::from(freq.pattern.node_count())),
                ("embeddings", Value::from(freq.embeddings.len())),
                ("validated", Value::from(MAX_VALIDATED_EMBEDDINGS)),
            ],
        );
    }
    // Body: the first embedding's nodes in program order.
    let first = &freq.embeddings[0];
    let first_info = &infos[first.graph as usize];
    let first_nodes = first.sorted_nodes();
    let body: Vec<Item> = first_nodes
        .iter()
        .map(|&n| first_info.items[n as usize].clone())
        .collect();
    let kind = classify_body(&body)?;

    // Validate each embedding site (bounded; see the constant above).
    // Extractability — convexity and exit-closedness — is checked on the
    // alias-relaxed graph when one exists: fewer edges means weakly less
    // reachability, so everything extractable conservatively stays
    // extractable and provably-disjoint stack traffic stops blocking.
    let mut valid: Vec<&gpa_mining::embed::Embedding> = Vec::new();
    for emb in freq.embeddings.iter().take(MAX_VALIDATED_EMBEDDINGS) {
        let info = &infos[emb.graph as usize];
        let check: &BlockArtifact = match relaxed {
            Some(r) => &r[emb.graph as usize],
            None => &artifacts[emb.graph as usize],
        };
        let dfg = &check.dfg;
        let reach = &check.reach;
        let nodes = emb.sorted_nodes();
        let seq: Vec<Item> = nodes
            .iter()
            .map(|&n| info.items[n as usize].clone())
            .collect();
        if !trace_equivalent(&body, &seq) {
            continue;
        }
        let in_set = |n: usize| emb.node_set().contains(n as u32);
        let ok = match kind {
            ExtractionKind::Procedure { .. } => {
                if !lr_free[info.function] {
                    false
                } else {
                    // Convexity (Fig. 9): no path from the fragment out and
                    // back in through an external node — checked on the
                    // precomputed reachability closure: the fragment is
                    // convex iff no externally-reachable node w (reached
                    // FROM the fragment) itself reaches INTO the fragment.
                    let words = dfg.node_count().div_ceil(64).max(1);
                    let mut frag_mask = vec![0u64; words];
                    // The embedding's bitset IS the fragment mask: copy
                    // its words instead of re-setting bits one by one
                    // (node ids are < dfg.node_count(), so the set never
                    // has significant words beyond `words`).
                    let set_words = emb.node_set().as_words();
                    let n = set_words.len().min(words);
                    frag_mask[..n].copy_from_slice(&set_words[..n]);
                    let mut from_frag = vec![0u64; words];
                    for &u in &nodes {
                        for (w, &r) in reach.row(u as usize).iter().enumerate() {
                            from_frag[w] |= r;
                        }
                    }
                    let mut convex = true;
                    'outer: for wi in 0..words {
                        let mut outside = from_frag[wi] & !frag_mask[wi];
                        while outside != 0 {
                            let bit = outside.trailing_zeros() as usize;
                            outside &= outside - 1;
                            let w = wi * 64 + bit;
                            let row = reach.row(w);
                            if (0..words).any(|x| row[x] & frag_mask[x] != 0) {
                                convex = false;
                                break 'outer;
                            }
                        }
                    }
                    convex
                }
            }
            ExtractionKind::CrossJump => {
                // Exit-closed: no direct edge from a fragment node to an
                // external node (the fragment must be schedulable last).
                !dfg.edges().iter().any(|e| in_set(e.from) && !in_set(e.to))
            }
        };
        if ok {
            valid.push(emb);
        } else {
            // Convexity / exit-closedness rejections: the headroom a
            // finer alias analysis could reclaim.
            tracer.count("detect.embedding_unextractable", 1);
        }
    }
    if valid.len() < 2 {
        return None;
    }

    // Occurrence selection: a maximum set of non-overlapping embeddings.
    // DgSpan and Edgar differ only in *frequency counting* during the
    // mining search (§4.2: fragments occurring several times in one block
    // look infrequent to DgSpan); once a fragment is selected, the
    // extraction machinery takes every non-overlapping occurrence for
    // both methods.
    let selected: Vec<&gpa_mining::embed::Embedding> = {
        let owned: Vec<gpa_mining::embed::Embedding> = valid.iter().map(|e| (*e).clone()).collect();
        let mis_start = Instant::now();
        let (_, chosen) = non_overlapping_count_traced(&owned, tracer);
        *mis_ns += gpa_trace::saturating_ns(mis_start.elapsed());
        chosen.into_iter().map(|i| valid[i]).collect()
    };

    // Per-region compatibility: simultaneous contractions must stay
    // acyclic. Greedily keep occurrences in order, dropping incompatible
    // ones.
    let mut kept: Vec<&gpa_mining::embed::Embedding> = Vec::new();
    if matches!(kind, ExtractionKind::Procedure { .. }) {
        let mut by_region: BTreeMap<u32, Vec<Vec<usize>>> = BTreeMap::new();
        let mut exempts: BTreeMap<u32, HashSet<(usize, usize)>> = BTreeMap::new();
        for e in selected {
            let info = &infos[e.graph as usize];
            let set: Vec<usize> = e.sorted_nodes().iter().map(|&n| n as usize).collect();
            let sets = by_region.entry(e.graph).or_default();
            sets.push(set);
            // The probe ignores memory conflicts the oracle relaxed —
            // the same exemptions `extract::apply` will use, and which
            // the validator re-derives from the candidate's claims.
            let exempt = exempts.entry(e.graph).or_insert_with(|| {
                relaxed
                    .map(|r| r[e.graph as usize].relaxed.iter().copied().collect())
                    .unwrap_or_default()
            });
            if contract_region_with(&info.items, sets, "__probe", exempt).is_none() {
                sets.pop();
                tracer.count("detect.probe_dropped", 1);
            } else {
                kept.push(e);
            }
        }
    } else {
        kept = selected;
    }
    if kept.len() < 2 {
        return None;
    }

    let body_words: usize = body.iter().map(Item::encoded_words).sum();
    let saved = saved_words(body_words, kept.len(), kind);
    if saved <= 0 {
        return None;
    }
    let occurrences: Vec<Occurrence> = kept
        .iter()
        .map(|e| {
            let info = &infos[e.graph as usize];
            Occurrence {
                function: info.function,
                region_start: info.start,
                region_len: info.len,
                item_indices: e
                    .sorted_nodes()
                    .iter()
                    .map(|&n| info.start + n as usize)
                    .collect(),
            }
        })
        .collect();
    // Every MEM edge the alias oracle dropped in a region that hosts a
    // kept occurrence becomes an explicit claim for the validator to
    // re-derive (regions can host several occurrences; dedup).
    let mut claims: std::collections::BTreeSet<RelaxedPair> = std::collections::BTreeSet::new();
    if let Some(r) = relaxed {
        for e in &kept {
            let info = &infos[e.graph as usize];
            for &(u, v) in &r[e.graph as usize].relaxed {
                claims.insert(RelaxedPair {
                    function: info.function,
                    earlier: info.start + u,
                    later: info.start + v,
                });
            }
        }
    }
    Some(Candidate {
        body,
        occurrences,
        kind,
        saved,
        relaxed: claims.into_iter().collect(),
    })
}

/// The strict total preference order on candidates: more savings, then
/// smaller body, then earliest first occurrence. A full tie means the two
/// candidates rewrite the same first site with the same-size body for the
/// same benefit; the incumbent wins.
fn better(c: &Candidate, b: &Candidate) -> bool {
    c.saved > b.saved
        || (c.saved == b.saved && c.body_words() < b.body_words())
        || (c.saved == b.saved
            && c.body_words() == b.body_words()
            && (&c.occurrences[0].function, &c.occurrences[0].item_indices)
                < (&b.occurrences[0].function, &b.occurrences[0].item_indices))
}

/// Shared, read-only state of one detection round's lattice search.
struct SearchCtx<'a> {
    infos: &'a [RegionInfo],
    artifacts: &'a [Arc<BlockArtifact>],
    relaxed: Option<&'a [Arc<BlockArtifact>]>,
    lr_free: &'a [bool],
    region_live: &'a [bool],
    graphs: &'a [InputGraph],
    max_body_words: i64,
}

/// The stable lowercase mechanism name used in trace events.
pub(crate) fn kind_name(kind: ExtractionKind) -> &'static str {
    match kind {
        ExtractionKind::Procedure { .. } => "procedure",
        ExtractionKind::CrossJump => "cross_jump",
    }
}

/// A line of the per-round candidate table: enough of a seed's best
/// candidate to explain, in the trace, why the winner won.
#[derive(Clone, Debug)]
struct CandidateSummary {
    saved: i64,
    body_words: usize,
    occurrences: usize,
    kind: &'static str,
    seed: usize,
}

impl CandidateSummary {
    fn of(c: &Candidate, seed: usize) -> CandidateSummary {
        CandidateSummary {
            saved: c.saved,
            body_words: c.body_words(),
            occurrences: c.occurrences.len(),
            kind: kind_name(c.kind),
            seed,
        }
    }
}

/// How many candidate-table lines each round's trace carries.
const CANDIDATE_TABLE_LEN: usize = 5;

/// One seed task's running result: the best candidate of the seed's
/// subtree so far (the seed-local incumbent) and the task's MIS time.
#[derive(Default)]
struct SeedBest {
    candidate: Option<Candidate>,
    mis_ns: u64,
}

impl SearchCtx<'_> {
    // The cross-jump benefit k·m − k − m is the most generous extraction
    // kind and is increasing in both k (occurrences) and m (body words),
    // so evaluating it at upper bounds of k and m bounds every candidate
    // derivable from a pattern (and, for the subtree bound, from any of
    // its descendants).
    fn benefit_bound(k: i64, m: i64) -> i64 {
        k * m - k - m
    }

    /// Upper bound on disjoint occurrences of ANY pattern with ≥ `m`
    /// nodes embedded in the given graphs: disjoint embeddings of size m
    /// tile a graph, so at most ⌊|V|/m⌋ fit per graph.
    fn tiling_bound(&self, f: &Frequent, m: usize) -> i64 {
        let mut seen = std::collections::BTreeSet::new();
        let mut total = 0i64;
        for e in &f.embeddings {
            if seen.insert(e.graph) {
                total += (self.graphs[e.graph as usize].node_count() / m) as i64;
            }
        }
        total.min(f.embeddings.len() as i64)
    }

    /// The streaming visitor body of one seed task. Bounds are compared
    /// against `max(best, 1)` *inclusively*, so candidates tying the
    /// incumbent are still evaluated — this keeps the tie-break total,
    /// so the seed-order merge of seed-local bests is the best candidate
    /// of the whole searched lattice.
    fn visit(&self, f: &Frequent, best: &mut SeedBest, tracer: &dyn Tracer) -> GrowDecision {
        let m = f.pattern.node_count();
        // Any real candidate saves at least one word.
        let target = best.candidate.as_ref().map(|b| b.saved).unwrap_or(0).max(1);
        // §3.5 PA-specific lattice pruning: an embedding can only ever be
        // extracted if its region admits *some* mechanism (see
        // region_live in best_candidate_instrumented); branches of the
        // lattice supported only by dead regions are pruned.
        let k_live = f
            .embeddings
            .iter()
            .filter(|e| self.region_live[e.graph as usize])
            .count();
        if k_live < 2 {
            tracer.count("detect.prune_dead_region", 1);
            return GrowDecision::SkipChildren;
        }
        let k_ub = self.tiling_bound(f, m);
        // No descendant (m′ ≥ m, occurrences ≤ k_ub since disjoint
        // counts are antimonotone) can reach the target: prune.
        if Self::benefit_bound(k_ub, self.max_body_words) < target {
            tracer.count("detect.prune_tiling_bound", 1);
            return GrowDecision::SkipChildren;
        }
        // This very pattern cannot reach the target: skip the expensive
        // validation but keep growing.
        if Self::benefit_bound(k_ub, 2 * m as i64) >= target {
            tracer.count("detect.candidates_evaluated", 1);
            if let Some(c) = candidate_from_frequent(
                f,
                self.infos,
                self.artifacts,
                self.relaxed,
                self.lr_free,
                &mut best.mis_ns,
                tracer,
            ) {
                if best.candidate.as_ref().is_none_or(|b| better(&c, b)) {
                    best.candidate = Some(c);
                }
            }
        } else {
            tracer.count("detect.skip_eval_benefit", 1);
        }
        GrowDecision::Continue
    }
}

/// A seed task's tracer: events go straight to the round's tracer, but
/// counters are held back until the seed-order merge decides whether the
/// task's work counts towards the round. Work past a budget cut is
/// dropped, so counter totals never depend on how far other workers got.
#[derive(Debug)]
struct HeldCounts {
    round: Arc<dyn Tracer>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl HeldCounts {
    fn flush(&self) {
        for (&name, &delta) in self.counts.lock().expect("held counts poisoned").iter() {
            self.round.count(name, delta);
        }
    }
}

impl Tracer for HeldCounts {
    fn count(&self, counter: &'static str, delta: u64) {
        *self
            .counts
            .lock()
            .expect("held counts poisoned")
            .entry(counter)
            .or_insert(0) += delta;
    }

    fn event(&self, name: &'static str, fields: &[(&'static str, Value)]) {
        self.round.event(name, fields);
    }

    fn enabled(&self) -> bool {
        true
    }
}

/// One seed's result as the seed-order merge consumes it.
struct SeedRun {
    /// Patterns visited, each charged to the round budget.
    visited: usize,
    /// Whether the seed's subtree was searched to the end.
    complete: bool,
    /// The best candidate found.
    candidate: Option<Candidate>,
    /// Whether the memo answered instead of a search.
    replayed: bool,
    /// The search's held-back counters (`None` when untraced or replayed).
    counts: Option<Arc<HeldCounts>>,
}

/// One seed's content address in the memo (see [`crate::incremental`]).
struct MemoKey {
    key: u128,
    /// Whether an edit changed the seed's key since the tuple's last
    /// sighting.
    changed: bool,
}

/// The seed memo of one round: the cache and every seed's key.
struct Memo<'a> {
    cache: &'a dyn MineCache,
    program: &'a Program,
    index: HashMap<&'a str, usize>,
    keys: Vec<MemoKey>,
}

impl<'a> Memo<'a> {
    /// Computes every seed's content address and notes it in the cache,
    /// in seed order.
    fn plan(
        cache: &'a dyn MineCache,
        program: &'a Program,
        ctx: &SearchCtx<'_>,
        seeds: &[(DfsTuple, Vec<Embedding>)],
        interner: &LabelInterner,
        mine_config: &Config,
        label_mode: LabelMode,
    ) -> Memo<'a> {
        let fingerprints: Vec<u128> = program
            .functions
            .iter()
            .map(|f| function_fingerprint(&f.name, &f.items, label_mode))
            .collect();
        let key_config = SeedKeyConfig {
            support: match mine_config.support {
                Support::Graphs => 0,
                Support::Embeddings => 1,
            },
            label_mode: match label_mode {
                LabelMode::Exact => 0,
                LabelMode::Canonical => 1,
            },
            max_nodes: mine_config.max_nodes as u64,
            max_patterns: mine_config.max_patterns as u64,
        };
        // Ascending interner-id label vocabulary per function: the DFS-code
        // canonical order restricted to a seed's hosts decides which seed's
        // subtree owns each pattern, so it is part of the seed's content
        // address (see `crate::incremental`).
        let mut func_vocab: Vec<Vec<u32>> = vec![Vec::new(); program.functions.len()];
        for (gi, graph) in ctx.graphs.iter().enumerate() {
            func_vocab[ctx.infos[gi].function].extend_from_slice(&graph.labels);
        }
        for vocab in &mut func_vocab {
            vocab.sort_unstable();
            vocab.dedup();
        }
        let keys = seeds
            .iter()
            .map(|(tuple, embeddings)| {
                let mut hosts: Vec<usize> = embeddings
                    .iter()
                    .map(|e| ctx.infos[e.graph as usize].function)
                    .collect();
                hosts.sort_unstable();
                hosts.dedup();
                let mut vocab: Vec<u32> = hosts
                    .iter()
                    .flat_map(|&fi| func_vocab[fi].iter().copied())
                    .collect();
                vocab.sort_unstable();
                vocab.dedup();
                let key = incremental::seed_cache_key(
                    &key_config,
                    interner.name(tuple.from_label),
                    interner.name(tuple.to_label),
                    tuple.outgoing,
                    tuple.edge_label,
                    hosts.iter().map(|&fi| {
                        (
                            program.functions[fi].name.as_str(),
                            fingerprints[fi],
                            ctx.lr_free[fi],
                        )
                    }),
                    vocab.iter().map(|&id| interner.name(id)),
                );
                MemoKey {
                    key: key.full,
                    changed: cache.note_tuple(key.tuple, key.full) == TupleNote::Changed,
                }
            })
            .collect();
        let index = program
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.as_str(), i))
            .collect();
        Memo {
            cache,
            program,
            index,
            keys,
        }
    }
}

/// Where the round budget cut the seed sequence.
struct Cut {
    seed: usize,
    /// What the seeds before it left of the budget.
    allowance: usize,
    /// Whether the memo held the seed.
    hit: bool,
    /// The seed's search, when it stopped after exactly `allowance`
    /// patterns.
    run: Option<SeedRun>,
}

/// The seed-order merge of one round.
#[derive(Default)]
struct Merge {
    /// The next seed to consume.
    next: usize,
    /// Patterns charged by the consumed seeds.
    used: usize,
    /// Runs that finished ahead of `next`.
    pending: BTreeMap<usize, SeedRun>,
    /// The pattern budget left to each seed still being searched.
    running: BTreeMap<usize, Arc<AtomicUsize>>,
    cut: Option<Cut>,
    winner: Option<(Candidate, usize)>,
    table: Vec<CandidateSummary>,
    /// Functions hosting a consumed seed the memo missed.
    dirty: BTreeSet<usize>,
    /// New memo entries (key, visited, best candidate), stored once the
    /// round's workers are gone so the long-lived entries are allocated
    /// on the calling thread.
    puts: Vec<(u128, u64, Option<Candidate>)>,
}

impl Merge {
    /// Starts seed `si` with what the budget leaves after the seeds
    /// before it whose visits are known: never less than the seed's
    /// final allowance, and lowered as the seeds before it finish (see
    /// [`SeedSearch::deposit`]). `None` when the known visits already
    /// show the budget runs out before `si`.
    fn start(&mut self, si: usize, budget: usize) -> Option<Arc<AtomicUsize>> {
        if self.cut.is_some() {
            return None;
        }
        let mut used = self.used;
        for (_, run) in self.pending.range(..si) {
            if !run.complete {
                return None;
            }
            used += run.visited;
        }
        let left = Arc::new(AtomicUsize::new(budget.checked_sub(used)?));
        self.running.insert(si, Arc::clone(&left));
        Some(left)
    }
}

/// The seed-task engine: one detection round's lattice search.
///
/// Every seed of [`seed_buckets`] is one task, claimed dynamically from
/// [`pool::map`] and grown with a seed-local incumbent, so a
/// task's result — its subtree's best candidate and the patterns it
/// visited — depends only on the seed. The round budget of
/// `max_patterns` visits is consumed in seed order: seed *i* may use
/// what the seeds before it left, a seed that needs more is cut there
/// (searched again with exactly that allowance), and the seeds after it
/// are skipped. The merge walks the seeds in order, so the winner
/// depends only on (program, config) — never on the thread count, nor on
/// which memo entries were warm.
struct SeedSearch<'a> {
    ctx: &'a SearchCtx<'a>,
    seeds: &'a [(DfsTuple, Vec<Embedding>)],
    mine_config: &'a Config,
    budget: usize,
    memo: Option<Memo<'a>>,
    merge: Mutex<Merge>,
    mis_ns: AtomicU64,
}

impl SeedSearch<'_> {
    fn tracer(&self) -> &dyn Tracer {
        &*self.mine_config.tracer
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Merge> {
        self.merge.lock().expect("seed merge poisoned")
    }

    /// One pool task: answer seed `si` from the memo or mine it, then
    /// hand the result to the merge.
    fn task(&self, si: usize) {
        let Some(left) = self.lock().start(si, self.budget) else {
            return;
        };
        let run = self.replay(si).unwrap_or_else(|| self.mine(si, &left));
        self.deposit(si, run);
    }

    /// The memo's answer for seed `si`, if it has one.
    fn replay(&self, si: usize) -> Option<SeedRun> {
        let memo = self.memo.as_ref()?;
        let entry = memo.cache.get(memo.keys[si].key)?;
        let candidate = match &entry.candidate {
            None => None,
            // A key names every host, so this only fails on a corrupt
            // entry; the seed is then mined like a miss.
            Some(p) => Some(incremental::to_concrete(p, &memo.index)?),
        };
        Some(SeedRun {
            visited: usize::try_from(entry.visited).unwrap_or(usize::MAX),
            complete: true,
            candidate,
            replayed: true,
            counts: None,
        })
    }

    /// Grows seed `si` with a seed-local incumbent, visiting at most as
    /// many patterns as `left` allows.
    fn mine(&self, si: usize, left: &AtomicUsize) -> SeedRun {
        let counts = self.tracer().enabled().then(|| {
            Arc::new(HeldCounts {
                round: Arc::clone(&self.mine_config.tracer),
                counts: Mutex::default(),
            })
        });
        let held;
        let config = match &counts {
            Some(counts) => {
                held = Config {
                    tracer: Arc::clone(counts) as Arc<dyn Tracer>,
                    ..self.mine_config.clone()
                };
                &held
            }
            None => self.mine_config,
        };
        let (tuple, embeddings) = &self.seeds[si];
        let mut best = SeedBest::default();
        let mut visited = 0;
        let complete = mine_seed(
            *tuple,
            embeddings.clone(),
            self.ctx.graphs,
            config,
            &mut |f| {
                visited += 1;
                self.ctx.visit(f, &mut best, &*config.tracer)
            },
            left,
        );
        self.mis_ns.fetch_add(best.mis_ns, Ordering::Relaxed);
        SeedRun {
            visited,
            complete,
            candidate: best.candidate,
            replayed: false,
            counts,
        }
    }

    /// Parks a finished run, charges it to the seeds after it that are
    /// still being searched, and consumes every run the seed order now
    /// allows, up to the cut.
    fn deposit(&self, si: usize, run: SeedRun) {
        let mut merge = self.lock();
        merge.running.remove(&si);
        if merge.cut.is_some() {
            return;
        }
        // A run that did not finish means the budget runs out at or
        // before `si`, so every later seed is past the cut.
        let charge = if run.complete {
            run.visited
        } else {
            usize::MAX
        };
        for (_, left) in merge.running.range(si + 1..) {
            let _ = left.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |l| {
                Some(l.saturating_sub(charge))
            });
        }
        merge.pending.insert(si, run);
        loop {
            let next = merge.next;
            let Some(run) = merge.pending.remove(&next) else {
                return;
            };
            let allowance = self.budget - merge.used;
            if run.complete && run.visited <= allowance {
                let hit = run.replayed;
                self.accept(&mut merge, next, run, hit);
                merge.next += 1;
                continue;
            }
            // The budget binds inside this seed: later seeds are skipped,
            // and the seed keeps only what a search capped at its
            // allowance finds.
            let hit = run.replayed;
            let exact = (!run.complete && run.visited == allowance).then_some(run);
            merge.cut = Some(Cut {
                seed: next,
                allowance,
                hit,
                run: exact,
            });
            merge.pending.clear();
            for left in merge.running.values() {
                left.store(0, Ordering::Relaxed);
            }
            return;
        }
    }

    /// Charges one consumed seed to the budget and merges its best
    /// candidate; ties keep the earlier seed.
    fn accept(&self, merge: &mut Merge, si: usize, run: SeedRun, hit: bool) {
        let tracer = self.tracer();
        merge.used += run.visited;
        if let Some(counts) = &run.counts {
            counts.flush();
        }
        if run.replayed {
            tracer.count("mine.patterns_visited", run.visited as u64);
            tracer.count("mine.patterns_replayed", run.visited as u64);
        }
        if let Some(memo) = &self.memo {
            let key = &memo.keys[si];
            if hit {
                tracer.count("incr.seed_hit", 1);
            } else {
                tracer.count("incr.seed_miss", 1);
                tracer.count("incr.invalidated", u64::from(key.changed));
                let (_, embeddings) = &self.seeds[si];
                merge.dirty.extend(
                    embeddings
                        .iter()
                        .map(|e| self.ctx.infos[e.graph as usize].function),
                );
            }
            if run.complete && !run.replayed {
                merge
                    .puts
                    .push((key.key, run.visited as u64, run.candidate.clone()));
            }
        }
        let Some(c) = run.candidate else { return };
        if tracer.enabled() {
            merge.table.push(CandidateSummary::of(&c, si));
            merge
                .table
                .sort_by_key(|s| (-s.saved, s.body_words, s.seed));
            merge.table.truncate(CANDIDATE_TABLE_LEN);
        }
        if merge.winner.as_ref().is_none_or(|(w, _)| better(&c, w)) {
            merge.winner = Some((c, si));
        }
    }

    /// Runs every seed task and returns the round's merge.
    fn run(self, threads: usize) -> (Merge, u64) {
        pool::map(self.seeds.len(), threads, |si| self.task(si));
        let cut = self.lock().cut.take();
        if let Some(cut) = cut {
            self.tracer().event(
                "mine.budget_exhausted",
                &[
                    ("seed", Value::from(cut.seed)),
                    ("visited", Value::from(self.budget - cut.allowance)),
                    ("budget", Value::from(self.budget)),
                ],
            );
            let run = cut
                .run
                .unwrap_or_else(|| self.mine(cut.seed, &AtomicUsize::new(cut.allowance)));
            self.accept(&mut self.lock(), cut.seed, run, cut.hit);
        }
        if let Some(memo) = &self.memo {
            let mut merge = self.lock();
            for (key, visited, candidate) in merge.puts.drain(..) {
                let portable = match &candidate {
                    None => Some(None),
                    Some(c) => incremental::to_portable(c, memo.program).map(Some),
                };
                if let Some(candidate) = portable {
                    memo.cache.put(key, SeedEntry { candidate, visited });
                }
            }
            let tracer = self.tracer();
            let funcs = memo.program.functions.len() as u64;
            let func_miss = merge.dirty.len() as u64;
            tracer.count("incr.funcs", funcs);
            tracer.count("incr.func_hit", funcs - func_miss);
            tracer.count("incr.func_miss", func_miss);
        }
        let mis_ns = self.mis_ns.load(Ordering::Relaxed);
        (
            self.merge.into_inner().expect("seed merge poisoned"),
            mis_ns,
        )
    }
}

/// Finds the best extractable candidate in the program under graph-based
/// detection, or `None` when no extraction shrinks the program.
pub fn best_candidate(program: &Program, config: &GraphConfig) -> Option<Candidate> {
    let mut scratch = StageTimings::default();
    best_candidate_instrumented(program, config, &mut scratch, None)
}

/// [`best_candidate`] with per-stage timing accumulation and an optional
/// content-addressed cache of per-block artifacts.
///
/// The lattice search is the seed-task engine ([`SeedSearch`]): seeds
/// are tasks on `config.threads` workers, the pattern budget is consumed
/// in seed order, and the candidate returned is the same at any thread
/// count.
pub(crate) fn best_candidate_instrumented(
    program: &Program,
    config: &GraphConfig,
    timings: &mut StageTimings,
    cache: Option<&DfgCache>,
) -> Option<Candidate> {
    let infos = region_infos(program);
    let build_start = Instant::now();
    let front_span = gpa_trace::span(&*config.tracer, "front");
    // Mining always counts on the conservative DFGs: alias verdicts are
    // context-dependent, so relaxed edges would break cross-region
    // isomorphism and fragment connectivity (shrinking the candidate
    // universe instead of growing it). Conservative artifacts are also
    // what the content-addressed cache may serve.
    let artifacts: Vec<Arc<BlockArtifact>> = pool::map(infos.len(), config.front_threads, |i| {
        let info = &infos[i];
        match cache {
            Some(cache) => cache.get_or_build(&info.items, config.label_mode),
            None => Arc::new(BlockArtifact::build(&info.items, config.label_mode)),
        }
    });
    // Under `Stack`, a second per-region artifact built against the alias
    // oracle overlays the conservative one wherever *extractability* is
    // decided (convexity, exit-closedness, contraction). Oracle-refined
    // DFGs depend on whole-function abstract states, not just the block's
    // items, so the overlay bypasses the content-addressed cache.
    let relaxed_artifacts: Option<Vec<Arc<BlockArtifact>>> = match config.alias {
        AliasLevel::Off => None,
        AliasLevel::Stack => {
            let oracles = region_oracles(program, &infos, &*config.tracer);
            let overlay: Vec<Arc<BlockArtifact>> =
                pool::map(infos.len(), config.front_threads, |i| {
                    Arc::new(BlockArtifact::build_with(
                        &infos[i].items,
                        config.label_mode,
                        Some(&oracles[i]),
                    ))
                });
            let mut examined = 0u64;
            let mut disjoint = 0u64;
            for a in &overlay {
                examined += a.relax_stats.mem_pairs_examined;
                disjoint += a.relax_stats.mem_pairs_disjoint;
            }
            config.tracer.count("absint.mem_pairs_examined", examined);
            config.tracer.count("absint.mem_pairs_disjoint", disjoint);
            config
                .tracer
                .count("absint.mem_pairs_kept", examined - disjoint);
            Some(overlay)
        }
    };
    drop(front_span);
    let lr_free = lr_free_functions(program);
    let (graphs, interner) = InputGraph::from_dfg_refs(artifacts.iter().map(|a| &a.dfg));
    timings.dfg_build_ns += gpa_trace::saturating_ns(build_start.elapsed());
    // A region is "live" when it could ever host an extraction: its
    // function's lr is clobberable (procedures), or its return
    // participates in a connected fragment (cross-jumps).
    let region_live: Vec<bool> = infos
        .iter()
        .zip(&artifacts)
        .map(|(info, artifact)| {
            if lr_free[info.function] {
                return true;
            }
            let dfg = &artifact.dfg;
            let n = dfg.node_count();
            n > 0
                && info.items[n - 1].is_return()
                && (dfg.in_degree(n - 1) > 0 || dfg.out_degree(n - 1) > 0)
        })
        .collect();
    let ctx = SearchCtx {
        infos: &infos,
        artifacts: &artifacts,
        relaxed: relaxed_artifacts.as_deref(),
        lr_free: &lr_free,
        region_live: &region_live,
        graphs: &graphs,
        max_body_words: 2 * config.max_nodes as i64, // fused calls = 2 words
    };
    let mine_config = Config {
        min_support: 2,
        support: config.support,
        max_nodes: config.max_nodes,
        max_patterns: config.max_patterns,
        tracer: config.tracer.clone(),
        ..Config::default()
    };
    let mine_start = Instant::now();
    let mine_span = gpa_trace::span(&*config.tracer, "mine");
    let seeds: Vec<_> = seed_buckets(&graphs).into_iter().collect();
    // The memo stays off under relaxed-alias overlays: a candidate's
    // relaxed-edge claims depend on more than its hosting functions.
    let memo = match (&config.incremental, config.alias) {
        (Some(cache), AliasLevel::Off) => Some(Memo::plan(
            &**cache,
            program,
            &ctx,
            &seeds,
            &interner,
            &mine_config,
            config.label_mode,
        )),
        _ => None,
    };
    let search = SeedSearch {
        ctx: &ctx,
        seeds: &seeds,
        mine_config: &mine_config,
        budget: config.max_patterns,
        memo,
        merge: Mutex::default(),
        mis_ns: AtomicU64::new(0),
    };
    let (Merge { winner, table, .. }, mis_total) = search.run(config.threads);
    drop(mine_span);
    if config.tracer.enabled() {
        for (rank, s) in table.iter().enumerate() {
            config.tracer.event(
                "detect.candidate",
                &[
                    ("rank", Value::from(rank + 1)),
                    ("saved", Value::Int(s.saved)),
                    ("body_words", Value::from(s.body_words)),
                    ("occurrences", Value::from(s.occurrences)),
                    ("kind", Value::from(s.kind)),
                    ("seed", Value::from(s.seed)),
                ],
            );
        }
        if let Some((winner, _)) = &winner {
            // Explain the win against the strongest runner-up in the
            // table (the table order mirrors `better`, so the winner is
            // line 1 and the runner-up line 2).
            let runner_up = table.get(1);
            let why = match runner_up {
                None => "only_candidate",
                Some(r) if winner.saved > r.saved => "more_savings",
                Some(r) if winner.body_words() < r.body_words => "smaller_body",
                Some(_) => "earlier_site",
            };
            config.tracer.event(
                "detect.winner",
                &[
                    ("saved", Value::Int(winner.saved)),
                    ("body_words", Value::from(winner.body_words())),
                    ("occurrences", Value::from(winner.occurrences.len())),
                    ("kind", Value::from(kind_name(winner.kind))),
                    ("why", Value::from(why)),
                    (
                        "margin",
                        Value::Int(winner.saved - runner_up.map_or(winner.saved, |r| r.saved)),
                    ),
                ],
            );
        }
    }
    let mine_ns = gpa_trace::saturating_ns(mine_start.elapsed());
    timings.mining_ns += mine_ns.saturating_sub(mis_total);
    timings.mis_ns += mis_total;
    winner.map(|(c, _)| c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_cfg::{FunctionCode, LabelId};

    fn insn(text: &str) -> Item {
        Item::Insn(text.parse().unwrap())
    }

    /// A program with one function holding the paper's running example
    /// plus a return, and a second copy in another function.
    fn running_example_program() -> Program {
        let block: Vec<Item> = [
            "ldr r3, [r1]!",
            "sub r2, r2, r3",
            "add r4, r2, #4",
            "ldr r3, [r1]!",
            "sub r2, r2, r3",
            "ldr r3, [r1]!",
            "add r4, r2, #4",
        ]
        .iter()
        .map(|s| insn(s))
        .collect();
        let mut items_a = vec![Item::Insn("push {r4, lr}".parse().unwrap())];
        items_a.extend(block.iter().cloned());
        items_a.push(Item::Insn("pop {r4, pc}".parse().unwrap()));
        let f_a = FunctionCode {
            name: "a".into(),
            address_taken: false,
            items: items_a,
            label_count: 0,
        };
        let mut items_b = vec![Item::Insn("push {r4, lr}".parse().unwrap())];
        items_b.extend(block.iter().cloned());
        items_b.push(Item::Insn("pop {r4, pc}".parse().unwrap()));
        let f_b = FunctionCode {
            name: "b".into(),
            address_taken: false,
            items: items_b,
            label_count: 0,
        };
        let _ = LabelId(0);
        Program {
            functions: vec![f_a, f_b],
            data: Vec::new(),
            data_symbols: Vec::new(),
            code_base: 0x8000,
            data_base: 0x2_0000,
            entry: "a".into(),
        }
    }

    #[test]
    fn edgar_finds_profitable_fragment() {
        let program = running_example_program();
        let cand = best_candidate(
            &program,
            &GraphConfig {
                support: Support::Embeddings,
                ..GraphConfig::default()
            },
        )
        .expect("four occurrences of a three-node fragment are profitable");
        assert!(cand.saved > 0);
        assert!(cand.occurrences.len() >= 2);
        // Occurrences never overlap.
        for w in cand.occurrences.windows(2) {
            if w[0].function == w[1].function {
                let a: std::collections::HashSet<_> = w[0].item_indices.iter().collect();
                assert!(w[1].item_indices.iter().all(|i| !a.contains(i)));
            }
        }
    }

    #[test]
    fn threaded_search_matches_sequential() {
        let program = running_example_program();
        for support in [Support::Embeddings, Support::Graphs] {
            let sequential = best_candidate(
                &program,
                &GraphConfig {
                    support,
                    ..GraphConfig::default()
                },
            );
            for threads in [2, 3, 8] {
                let parallel = best_candidate(
                    &program,
                    &GraphConfig {
                        support,
                        threads,
                        ..GraphConfig::default()
                    },
                );
                assert_eq!(parallel, sequential, "threads={threads}");
            }
        }
    }

    #[test]
    fn cached_search_matches_uncached_and_hits_on_reuse() {
        let program = running_example_program();
        let config = GraphConfig {
            support: Support::Embeddings,
            ..GraphConfig::default()
        };
        let uncached = best_candidate(&program, &config);
        let cache = DfgCache::new();
        let mut timings = StageTimings::default();
        let first = best_candidate_instrumented(&program, &config, &mut timings, Some(&cache));
        let second = best_candidate_instrumented(&program, &config, &mut timings, Some(&cache));
        assert_eq!(first, uncached);
        assert_eq!(second, uncached);
        // Both regions are identical blocks, so even the cold pass hits
        // once; the warm pass hits on every region.
        assert!(cache.hits() >= 2, "hits: {}", cache.hits());
        assert!(timings.dfg_build_ns > 0 && timings.mining_ns > 0);
    }

    #[test]
    fn incremental_search_matches_plain_and_hits_on_reuse() {
        use crate::incremental::MemoryMineCache;
        let program = running_example_program();
        for support in [Support::Embeddings, Support::Graphs] {
            let plain = best_candidate(
                &program,
                &GraphConfig {
                    support,
                    ..GraphConfig::default()
                },
            );
            let cache = Arc::new(MemoryMineCache::new());
            let config = GraphConfig {
                support,
                incremental: Some(cache.clone()),
                ..GraphConfig::default()
            };
            let cold = best_candidate(&program, &config);
            assert_eq!(cold, plain, "cold incremental must match plain");
            assert!(cache.misses() > 0 && cache.hits() == 0);
            let warm = best_candidate(&program, &config);
            assert_eq!(warm, plain, "warm incremental must match plain");
            assert!(cache.hits() > 0, "warm pass must hit the seed cache");
            // Dirty-seed mining parallelizes per seed; any thread count
            // replays the same merged winner.
            for threads in [2, 8] {
                let threaded = best_candidate(
                    &program,
                    &GraphConfig {
                        support,
                        threads,
                        incremental: Some(cache.clone()),
                        ..GraphConfig::default()
                    },
                );
                assert_eq!(threaded, plain, "threads={threads}");
            }
        }
    }

    #[test]
    fn incremental_counters_satisfy_the_func_identity() {
        use crate::incremental::MemoryMineCache;
        use gpa_trace::CounterTracer;
        let program = running_example_program();
        let cache = Arc::new(MemoryMineCache::new());
        let tracer = Arc::new(CounterTracer::new());
        let config = GraphConfig {
            support: Support::Embeddings,
            incremental: Some(cache),
            tracer: tracer.clone(),
            ..GraphConfig::default()
        };
        best_candidate(&program, &config);
        best_candidate(&program, &config);
        let c = tracer.counters();
        let funcs = c.get("incr.funcs");
        let hit = c.get("incr.func_hit");
        let miss = c.get("incr.func_miss");
        assert!(funcs > 0, "incremental rounds must count functions");
        assert_eq!(
            funcs,
            hit + miss,
            "incr.funcs == incr.func_hit + incr.func_miss"
        );
        assert!(hit > 0, "the warm pass must report function hits");
    }

    #[test]
    fn incremental_edit_invalidates_only_touched_functions() {
        use crate::incremental::MemoryMineCache;
        use gpa_trace::CounterTracer;
        let mut program = running_example_program();
        // A third function unrelated to the edited one.
        let f_c = FunctionCode {
            name: "c".into(),
            address_taken: false,
            items: vec![
                Item::Insn("mov r0, #7".parse().unwrap()),
                Item::Insn("mov r1, #9".parse().unwrap()),
                Item::Insn("mul r2, r0, r1".parse().unwrap()),
                Item::Insn("mul r3, r0, r1".parse().unwrap()),
                Item::Insn("bx lr".parse().unwrap()),
            ],
            label_count: 0,
        };
        program.functions.push(f_c);
        let cache = Arc::new(MemoryMineCache::new());
        let warm_config = GraphConfig {
            support: Support::Embeddings,
            incremental: Some(cache.clone()),
            ..GraphConfig::default()
        };
        best_candidate(&program, &warm_config);
        // Edit only function "b": the next round re-mines seeds hosted
        // in "b" but replays everything local to "a" and "c".
        let mut edited = program.clone();
        edited.functions[1]
            .items
            .insert(1, Item::Insn("mov r5, #1".parse().unwrap()));
        let tracer = Arc::new(CounterTracer::new());
        let traced_config = GraphConfig {
            support: Support::Embeddings,
            incremental: Some(cache.clone()),
            tracer: tracer.clone(),
            ..GraphConfig::default()
        };
        let incremental = best_candidate(&edited, &traced_config);
        let plain = best_candidate(&edited, &GraphConfig::default());
        assert_eq!(incremental, plain, "edited incremental must match plain");
        let c = tracer.counters();
        assert!(
            c.get("incr.func_hit") > 0,
            "functions untouched by the edit must hit"
        );
        assert!(c.get("incr.func_miss") > 0, "the edited function must miss");
        assert!(
            c.get("incr.invalidated") > 0,
            "seeds whose support set touches the edited function must be invalidated"
        );
    }

    #[test]
    fn edgar_beats_dgspan_on_intra_block_repeats() {
        let program = running_example_program();
        let edgar = best_candidate(
            &program,
            &GraphConfig {
                support: Support::Embeddings,
                ..GraphConfig::default()
            },
        )
        .map(|c| c.saved)
        .unwrap_or(0);
        let dgspan = best_candidate(
            &program,
            &GraphConfig {
                support: Support::Graphs,
                ..GraphConfig::default()
            },
        )
        .map(|c| c.saved)
        .unwrap_or(0);
        assert!(
            edgar >= dgspan,
            "edgar {edgar} must be at least dgspan {dgspan}"
        );
    }
}
