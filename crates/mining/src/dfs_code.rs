//! Canonical DFS codes for directed labelled graphs (gSpan's canonical
//! form, extended with an arc-direction flag — the paper's Fig. 7).
//!
//! A pattern is a list of [`DfsTuple`]s, each describing one edge in the
//! order it was attached during the depth-first construction. The
//! *minimal* code over all possible constructions is the canonical form;
//! [`is_min`](Pattern::is_min) tests minimality by re-running the
//! extension engine against the pattern itself and checking that the
//! stored code never exceeds the smallest realizable tuple.
//!
//! That re-run is a full second mining pass over the pattern's own graph
//! and dominates canonical-form pruning cost, so the miner goes through
//! [`is_min_cached`](Pattern::is_min_cached): a per-thread direct-mapped
//! cache keyed by the FNV-1a/128 content hash of the code. Minimality is
//! a pure function of the code, so a cache can never change what is
//! mined — each `mine_seed` worker owns its thread's cache, keeping
//! parallel seed-task runs deterministic.

use std::cell::RefCell;
use std::cmp::Ordering;

use gpa_dfg::hash::Fnv128;
use gpa_trace::Tracer;

use crate::embed::{extensions, seed_buckets, Embedding};
use crate::graph::{GEdge, InputGraph};

/// One edge of a DFS code.
///
/// `from`/`to` are DFS discovery indices. A *forward* tuple has
/// `to == from_max + 1` (it discovers a new node); a *backward* tuple has
/// `to < from`. `outgoing` records the arc direction: `true` when the
/// graph arc runs from the `from` node to the `to` node.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct DfsTuple {
    /// DFS index the edge is attached at.
    pub from: u16,
    /// DFS index of the other endpoint.
    pub to: u16,
    /// Interned label of the `from` node.
    pub from_label: u32,
    /// Interned label of the `to` node.
    pub to_label: u32,
    /// Arc direction relative to (from, to): `true` = `from → to`.
    pub outgoing: bool,
    /// Edge label (dependence-kind mask).
    pub edge_label: u8,
}

impl DfsTuple {
    /// Whether this is a forward (node-discovering) tuple.
    pub fn is_forward(&self) -> bool {
        self.to > self.from
    }
}

/// gSpan's total order on DFS tuples (structure first, then labels).
pub fn tuple_cmp(a: &DfsTuple, b: &DfsTuple) -> Ordering {
    let structural = match (a.is_forward(), b.is_forward()) {
        (true, true) => a.to.cmp(&b.to).then(b.from.cmp(&a.from)),
        (false, false) => a.from.cmp(&b.from).then(a.to.cmp(&b.to)),
        // Backward (i, _) precedes forward (_, j) iff i < j.
        (false, true) => {
            if a.from < b.to {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        }
        (true, false) => {
            if a.to <= b.from {
                Ordering::Less
            } else {
                Ordering::Greater
            }
        }
    };
    structural
        .then_with(|| a.from_label.cmp(&b.from_label))
        // Incoming arcs order before outgoing ones (arbitrary but fixed).
        .then_with(|| a.outgoing.cmp(&b.outgoing))
        .then_with(|| a.edge_label.cmp(&b.edge_label))
        .then_with(|| a.to_label.cmp(&b.to_label))
}

impl PartialOrd for DfsTuple {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DfsTuple {
    fn cmp(&self, other: &Self) -> Ordering {
        tuple_cmp(self, other)
    }
}

/// A pattern: a DFS code plus derived per-node data.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Pattern {
    tuples: Vec<DfsTuple>,
    node_labels: Vec<u32>,
    rightmost_path: Vec<u16>,
}

impl Pattern {
    /// Creates a single-edge pattern from its first tuple.
    ///
    /// # Panics
    ///
    /// Panics if the tuple is not `(0, 1)`.
    pub fn root(tuple: DfsTuple) -> Pattern {
        assert_eq!((tuple.from, tuple.to), (0, 1), "root tuple must be (0, 1)");
        Pattern {
            tuples: vec![tuple],
            node_labels: vec![tuple.from_label, tuple.to_label],
            rightmost_path: vec![0, 1],
        }
    }

    /// The tuples of the code, in order.
    pub fn tuples(&self) -> &[DfsTuple] {
        &self.tuples
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.tuples.len()
    }

    /// The label of a DFS node index.
    pub fn node_label(&self, i: usize) -> u32 {
        self.node_labels[i]
    }

    /// DFS indices on the rightmost path, root first.
    pub fn rightmost_path(&self) -> &[u16] {
        &self.rightmost_path
    }

    /// The rightmost (most recently discovered) node.
    pub fn rightmost(&self) -> u16 {
        *self
            .rightmost_path
            .last()
            .expect("patterns always have at least two nodes")
    }

    /// Whether the pattern has an edge (either direction) between the two
    /// DFS indices.
    pub fn has_edge(&self, a: u16, b: u16) -> bool {
        self.tuples
            .iter()
            .any(|t| (t.from == a && t.to == b) || (t.from == b && t.to == a))
    }

    /// Extends the pattern with one more tuple.
    ///
    /// # Panics
    ///
    /// Panics if a forward tuple does not attach on the rightmost path or
    /// a backward tuple does not start at the rightmost node.
    pub fn extend(&self, tuple: DfsTuple) -> Pattern {
        let mut child = self.clone();
        if tuple.is_forward() {
            assert_eq!(
                tuple.to as usize,
                self.node_count(),
                "forward tuple must discover the next node"
            );
            assert!(
                self.rightmost_path.contains(&tuple.from),
                "forward tuples attach on the rightmost path"
            );
            child.node_labels.push(tuple.to_label);
            let cut = child
                .rightmost_path
                .iter()
                .position(|&v| v == tuple.from)
                .expect("attachment point is on the rightmost path");
            child.rightmost_path.truncate(cut + 1);
            child.rightmost_path.push(tuple.to);
        } else {
            assert_eq!(
                tuple.from,
                self.rightmost(),
                "backward tuples leave the rightmost node"
            );
        }
        child.tuples.push(tuple);
        child
    }

    /// Materializes the pattern as an [`InputGraph`] (DFS indices become
    /// node indices).
    pub fn to_input_graph(&self) -> InputGraph {
        let edges = self
            .tuples
            .iter()
            .map(|t| {
                let (from, to) = if t.outgoing {
                    (t.from, t.to)
                } else {
                    (t.to, t.from)
                };
                GEdge {
                    from: from as u32,
                    to: to as u32,
                    label: t.edge_label,
                }
            })
            .collect();
        InputGraph::new(self.node_labels.clone(), edges)
    }

    /// Whether this code is the canonical (minimal) DFS code of its graph.
    ///
    /// Runs the extension engine against the pattern's own graph: at every
    /// prefix the stored tuple must equal the smallest realizable
    /// extension tuple.
    pub fn is_min(&self) -> bool {
        let graph = self.to_input_graph();
        let graphs = std::slice::from_ref(&graph);
        // Minimal first tuple over all seeds of the pattern graph.
        let seeds = seed_buckets(graphs);
        let (min_tuple, embeds) = seeds
            .iter()
            .next()
            .map(|(t, e)| (*t, e.clone()))
            .expect("patterns have at least one edge");
        if tuple_cmp(&min_tuple, &self.tuples[0]) == Ordering::Less {
            return false;
        }
        debug_assert_eq!(min_tuple, self.tuples[0], "stored code must be realizable");
        let mut current = Pattern::root(min_tuple);
        let mut embeddings: Vec<Embedding> = embeds;
        for k in 1..self.tuples.len() {
            let exts = extensions(&current, graphs, &embeddings);
            let Some((&min_tuple, _)) = exts.iter().next() else {
                unreachable!("prefix of a realizable code is extensible");
            };
            match tuple_cmp(&min_tuple, &self.tuples[k]) {
                Ordering::Less => return false,
                Ordering::Equal => {}
                Ordering::Greater => {
                    unreachable!("stored code must be realizable in its own graph")
                }
            }
            embeddings = exts
                .into_iter()
                .next()
                .map(|(_, e)| e)
                .expect("checked above");
            current = current.extend(min_tuple);
        }
        true
    }

    /// FNV-1a/128 content hash of the DFS code. Two patterns share a hash
    /// iff they share their tuple list (node labels are determined by the
    /// tuples), up to the usual negligible 128-bit collision odds — the
    /// same trade the pipeline's content-addressed caches already make.
    pub fn content_hash(&self) -> u128 {
        let mut h = Fnv128::new();
        h.write(b"gpa-dfs-code/1");
        h.write_u64(self.tuples.len() as u64);
        for t in &self.tuples {
            h.write_u64((u64::from(t.from) << 32) | u64::from(t.to));
            h.write_u64((u64::from(t.from_label) << 32) | u64::from(t.to_label));
            h.write_u64((u64::from(t.outgoing) << 8) | u64::from(t.edge_label));
        }
        h.finish()
    }

    /// [`is_min`](Pattern::is_min) through the calling thread's
    /// canonicality cache, with `mine.canon_*` telemetry.
    ///
    /// One lattice walk visits each candidate code at most once, so hits
    /// come from *across* walks: repeated optimizer rounds and identical
    /// blocks re-check the same codes over and over.
    pub fn is_min_cached(&self, tracer: &dyn Tracer) -> bool {
        tracer.count("mine.canon_checks", 1);
        let key = self.content_hash();
        if let Some(cached) = canon_cache_probe(key) {
            tracer.count("mine.canon_cache_hit", 1);
            return cached;
        }
        tracer.count("mine.canon_cache_miss", 1);
        let result = self.is_min();
        canon_cache_store(key, result);
        result
    }
}

/// Slot count of the per-thread canonicality cache (direct-mapped; a
/// slot conflict evicts, never corrupts — the full key is compared).
const CANON_CACHE_SLOTS: usize = 1 << 14;

thread_local! {
    static CANON_CACHE: RefCell<Vec<Option<(u128, bool)>>> =
        const { RefCell::new(Vec::new()) };
}

fn canon_cache_probe(key: u128) -> Option<bool> {
    CANON_CACHE.with(|cache| {
        let cache = cache.borrow();
        match cache.get((key as usize) & (CANON_CACHE_SLOTS - 1)) {
            Some(&Some((k, v))) if k == key => Some(v),
            _ => None,
        }
    })
}

fn canon_cache_store(key: u128, value: bool) {
    CANON_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.is_empty() {
            cache.resize(CANON_CACHE_SLOTS, None);
        }
        cache[(key as usize) & (CANON_CACHE_SLOTS - 1)] = Some((key, value));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(from: u16, to: u16, fl: u32, tl: u32, out: bool) -> DfsTuple {
        DfsTuple {
            from,
            to,
            from_label: fl,
            to_label: tl,
            outgoing: out,
            edge_label: 1,
        }
    }

    #[test]
    fn tuple_order_forward_backward() {
        // forward (0,1) < backward (1,0)
        assert_eq!(
            tuple_cmp(&t(0, 1, 0, 0, true), &t(1, 0, 0, 0, true)),
            Ordering::Less
        );
        // backward (1,0) < forward (1,2)
        assert_eq!(
            tuple_cmp(&t(1, 0, 0, 0, true), &t(1, 2, 0, 0, true)),
            Ordering::Less
        );
        // deeper forward first when same target: (2,3) < (1,3)? No — same
        // `to`, larger `from` first: (2,3) < (1,3).
        assert_eq!(
            tuple_cmp(&t(2, 3, 0, 0, true), &t(1, 3, 0, 0, true)),
            Ordering::Less
        );
        // forward discovery order: (0,1) < (1,2).
        assert_eq!(
            tuple_cmp(&t(0, 1, 0, 0, true), &t(1, 2, 0, 0, true)),
            Ordering::Less
        );
        // label tiebreak: smaller from_label first.
        assert_eq!(
            tuple_cmp(&t(0, 1, 0, 5, true), &t(0, 1, 1, 0, true)),
            Ordering::Less
        );
        // direction tiebreak: incoming before outgoing.
        assert_eq!(
            tuple_cmp(&t(0, 1, 0, 0, false), &t(0, 1, 0, 0, true)),
            Ordering::Less
        );
    }

    #[test]
    fn extend_tracks_rightmost_path() {
        // 0 →(f) 1 →(f) 2, then forward from 0 to 3.
        let p = Pattern::root(t(0, 1, 0, 1, true));
        let p = p.extend(t(1, 2, 1, 2, true));
        assert_eq!(p.rightmost_path(), &[0, 1, 2]);
        let p = p.extend(t(0, 3, 0, 3, true));
        assert_eq!(p.rightmost_path(), &[0, 3]);
        assert_eq!(p.node_count(), 4);
        assert!(p.has_edge(0, 1));
        assert!(!p.has_edge(1, 3));
    }

    #[test]
    fn min_check_rejects_non_canonical_orientation() {
        // Edge A→B with labels A=0, B=1. Starting at A gives
        // (0,1,0,out,1). Starting at B gives (0,1,1,in,0) — larger
        // from_label, so non-minimal.
        let good = Pattern::root(t(0, 1, 0, 1, true));
        let bad = Pattern::root(DfsTuple {
            from: 0,
            to: 1,
            from_label: 1,
            to_label: 0,
            outgoing: false,
            edge_label: 1,
        });
        assert!(good.is_min());
        assert!(!bad.is_min());
    }

    #[test]
    fn min_check_on_path_graph() {
        // Labels 2 →(out) 0 →(out) 1. The canonical code starts at the
        // smallest achievable from_label.
        // Built one way: root (0,1): from node "2"? from_label 2 … any
        // construction starting from label 2 is non-minimal because one
        // starting from 0 exists (as incoming arc from 2? tuple
        // (0,1,0,in,2) has from_label 0 < 2).
        let start_at_two = Pattern::root(DfsTuple {
            from: 0,
            to: 1,
            from_label: 2,
            to_label: 0,
            outgoing: true,
            edge_label: 1,
        })
        .extend(DfsTuple {
            from: 1,
            to: 2,
            from_label: 0,
            to_label: 1,
            outgoing: true,
            edge_label: 1,
        });
        assert!(!start_at_two.is_min());
        // The canonical construction starts at the label-0 node with its
        // *incoming* arc (incoming orders before outgoing), then adds the
        // outgoing arc to label 1 from the root.
        let canonical = Pattern::root(DfsTuple {
            from: 0,
            to: 1,
            from_label: 0,
            to_label: 2,
            outgoing: false,
            edge_label: 1,
        })
        .extend(DfsTuple {
            from: 0,
            to: 2,
            from_label: 0,
            to_label: 1,
            outgoing: true,
            edge_label: 1,
        });
        assert!(canonical.is_min());
        // Starting with the outgoing arc instead is not canonical.
        let outgoing_first = Pattern::root(DfsTuple {
            from: 0,
            to: 1,
            from_label: 0,
            to_label: 1,
            outgoing: true,
            edge_label: 1,
        })
        .extend(DfsTuple {
            from: 0,
            to: 2,
            from_label: 0,
            to_label: 2,
            outgoing: false,
            edge_label: 1,
        });
        assert!(!outgoing_first.is_min());
    }

    #[test]
    fn content_hash_separates_codes() {
        let a = Pattern::root(t(0, 1, 0, 1, true));
        let b = Pattern::root(t(0, 1, 0, 1, false));
        let c = a.extend(t(1, 2, 1, 2, true));
        assert_ne!(a.content_hash(), b.content_hash());
        assert_ne!(a.content_hash(), c.content_hash());
        assert_eq!(
            a.content_hash(),
            Pattern::root(t(0, 1, 0, 1, true)).content_hash()
        );
    }

    #[test]
    fn cached_canonicality_agrees_and_counts_hits() {
        use gpa_trace::CounterTracer;
        let tracer = CounterTracer::new();
        let good = Pattern::root(t(0, 1, 0, 1, true));
        let bad = Pattern::root(DfsTuple {
            from: 0,
            to: 1,
            from_label: 1,
            to_label: 0,
            outgoing: false,
            edge_label: 1,
        });
        for _ in 0..3 {
            assert_eq!(good.is_min_cached(&tracer), good.is_min());
            assert_eq!(bad.is_min_cached(&tracer), bad.is_min());
        }
        let c = tracer.counters();
        assert_eq!(c.get("mine.canon_checks"), 6);
        // Both codes may have been probed before this test on the same
        // thread (caches are thread-local and tests share threads), so
        // only the identity is exact; hits are at least the re-checks.
        assert_eq!(
            c.get("mine.canon_checks"),
            c.get("mine.canon_cache_hit") + c.get("mine.canon_cache_miss")
        );
        assert!(c.get("mine.canon_cache_hit") >= 4);
    }
}
