//! Canonical DFS codes for directed labelled graphs (gSpan's canonical
//! form, extended with an arc-direction flag — the paper's Fig. 7).
//!
//! A pattern is a list of [`DfsTuple`]s, each describing one edge in the
//! order it was attached during the depth-first construction. The
//! *minimal* code over all possible constructions is the canonical form.
//!
//! [`is_min`](Pattern::is_min) tests minimality the way gSpan does: it
//! replays the code against the pattern's own graph and, at every
//! prefix, looks for a rightmost-path extension smaller than the stored
//! tuple. It first rejects codes whose first tuple is beaten by some
//! edge's seed orientation (one pass over the edges), then walks the
//! prefixes keeping only the embeddings that realize the stored tuple,
//! and stops at the first smaller extension. Minimality is a pure
//! function of the code and the test allocates nothing shared, so any
//! number of mining threads may call it concurrently.

use std::cmp::Ordering;

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

    /// Whether this code is the canonical (minimal) DFS code of its graph.
    ///
    /// At every prefix the stored tuple must equal the smallest
    /// rightmost-path extension over the prefix's embeddings in the
    /// pattern's own graph. Only that minimum matters, so the walk keeps
    /// just the embeddings that realize the stored tuple and returns at
    /// the first extension below it.
    pub fn is_min(&self) -> bool {
        let first = self.tuples[0];
        // Every edge, entered from either endpoint, is a first tuple some
        // construction could start with.
        if self
            .tuples
            .iter()
            .any(|t| seed_orientations(t).iter().any(|(s, _)| *s < first))
        {
            return false;
        }
        let adjacency = Adjacency::new(self);
        // Embeddings of the current prefix, flattened: `width` pattern
        // nodes per embedding, indexed by DFS index of the prefix.
        let mut current: Vec<u16> = Vec::new();
        for t in &self.tuples {
            for (seed, map) in seed_orientations(t) {
                if seed == first {
                    current.extend_from_slice(&map);
                }
            }
        }
        let mut next: Vec<u16> = Vec::new();
        let mut width = 2usize;
        let mut rm_path: Vec<u16> = vec![0, 1];
        let mut backward: Vec<u16> = Vec::new();
        for (k, &target) in self.tuples.iter().enumerate().skip(1) {
            let rightmost = *rm_path.last().expect("rightmost path is never empty");
            // Extensions that compare above `target` never matter: a
            // backward target is beaten only by backward arcs to an
            // earlier or equal node (forward tuples all order after it),
            // and a forward target from `u` only by backward arcs or by
            // forward arcs from `u` or deeper on the rightmost path.
            backward.clear();
            backward.extend(rm_path[..rm_path.len() - 1].iter().copied().filter(|&v| {
                (target.is_forward() || v <= target.to)
                    && !self.tuples[..k].iter().any(|t| {
                        (t.from, t.to) == (rightmost, v) || (t.from, t.to) == (v, rightmost)
                    })
            }));
            // Where a forward target attaches on the rightmost path.
            let attach = target.is_forward().then(|| {
                rm_path
                    .iter()
                    .position(|&u| u == target.from)
                    .expect("forward tuples attach on the rightmost path")
            });
            let forward_from = attach.map_or(&[][..], |cut| &rm_path[cut..]);
            next.clear();
            for map in current.chunks_exact(width) {
                let rm_node = map[rightmost as usize];
                for &v in &backward {
                    for arc in adjacency.arcs(rm_node) {
                        if arc.to != map[v as usize] {
                            continue;
                        }
                        let tuple = DfsTuple {
                            from: rightmost,
                            to: v,
                            from_label: self.node_labels[rightmost as usize],
                            to_label: self.node_labels[v as usize],
                            outgoing: arc.leaves,
                            edge_label: arc.label,
                        };
                        match tuple.cmp(&target) {
                            Ordering::Less => return false,
                            Ordering::Equal => next.extend_from_slice(map),
                            Ordering::Greater => {}
                        }
                    }
                }
                for &u in forward_from {
                    for arc in adjacency.arcs(map[u as usize]) {
                        if map.contains(&arc.to) {
                            continue;
                        }
                        let tuple = DfsTuple {
                            from: u,
                            to: width as u16,
                            from_label: self.node_labels[u as usize],
                            to_label: self.node_labels[arc.to as usize],
                            outgoing: arc.leaves,
                            edge_label: arc.label,
                        };
                        match tuple.cmp(&target) {
                            Ordering::Less => return false,
                            Ordering::Equal => {
                                next.extend_from_slice(map);
                                next.push(arc.to);
                            }
                            Ordering::Greater => {}
                        }
                    }
                }
            }
            // The identity embedding realizes every stored tuple. Since a
            // pattern graph joins each node pair at most once, extending
            // distinct embeddings yields distinct ones, so no dedup is
            // needed.
            debug_assert!(!next.is_empty(), "stored code must be realizable");
            std::mem::swap(&mut current, &mut next);
            if let Some(cut) = attach {
                rm_path.truncate(cut + 1);
                rm_path.push(target.to);
                width += 1;
            }
        }
        true
    }
}

/// The tuple's edge as a first tuple, entered from either endpoint, each
/// with its two-node embedding in the pattern graph.
fn seed_orientations(t: &DfsTuple) -> [(DfsTuple, [u16; 2]); 2] {
    let seed = |from_label, to_label, outgoing| DfsTuple {
        from: 0,
        to: 1,
        from_label,
        to_label,
        outgoing,
        edge_label: t.edge_label,
    };
    [
        (seed(t.from_label, t.to_label, t.outgoing), [t.from, t.to]),
        (seed(t.to_label, t.from_label, !t.outgoing), [t.to, t.from]),
    ]
}

/// One arc end seen from a pattern node.
#[derive(Clone, Copy, Default)]
struct ArcEnd {
    /// The neighbouring pattern node.
    to: u16,
    /// Whether the arc leaves the node (`node → to`).
    leaves: bool,
    /// Edge label.
    label: u8,
}

/// A pattern graph's arcs grouped by node (both ends of every tuple).
struct Adjacency {
    start: Vec<u32>,
    arcs: Vec<ArcEnd>,
}

impl Adjacency {
    fn new(pattern: &Pattern) -> Adjacency {
        let mut start = vec![0u32; pattern.node_count() + 1];
        for t in &pattern.tuples {
            start[t.from as usize + 1] += 1;
            start[t.to as usize + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut fill = start.clone();
        let mut arcs = vec![ArcEnd::default(); 2 * pattern.tuples.len()];
        for t in &pattern.tuples {
            for (node, to, leaves) in [(t.from, t.to, t.outgoing), (t.to, t.from, !t.outgoing)] {
                let slot = &mut fill[node as usize];
                arcs[*slot as usize] = ArcEnd {
                    to,
                    leaves,
                    label: t.edge_label,
                };
                *slot += 1;
            }
        }
        Adjacency { start, arcs }
    }

    fn arcs(&self, node: u16) -> &[ArcEnd] {
        &self.arcs[self.start[node as usize] as usize..self.start[node as usize + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::embed::{extensions, seed_buckets, Embedding};
    use crate::graph::{GEdge, InputGraph};

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

    /// The canonicality test `is_min` replaced, kept as an oracle: it
    /// re-mines the pattern's own graph with the full extension engine
    /// and compares the smallest extension at every prefix.
    fn reference_is_min(p: &Pattern) -> bool {
        let graph = own_graph(p);
        let graphs = std::slice::from_ref(&graph);
        let seeds = seed_buckets(graphs);
        let (min_tuple, embeds) = seeds
            .iter()
            .next()
            .map(|(t, e)| (*t, e.clone()))
            .expect("patterns have at least one edge");
        if tuple_cmp(&min_tuple, &p.tuples[0]) == Ordering::Less {
            return false;
        }
        assert_eq!(min_tuple, p.tuples[0], "stored code must be realizable");
        let mut current = Pattern::root(min_tuple);
        let mut embeddings: Vec<Embedding> = embeds;
        for k in 1..p.tuples.len() {
            let exts = extensions(&current, graphs, &embeddings);
            let (&min_tuple, _) = exts.iter().next().expect("prefix is extensible");
            match tuple_cmp(&min_tuple, &p.tuples[k]) {
                Ordering::Less => return false,
                Ordering::Equal => {}
                Ordering::Greater => panic!("stored code must be realizable"),
            }
            embeddings = exts.into_iter().next().map(|(_, e)| e).expect("checked");
            current = current.extend(min_tuple);
        }
        true
    }

    /// The pattern as an input graph (DFS indices become node indices).
    fn own_graph(p: &Pattern) -> InputGraph {
        let edges = p
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
        InputGraph::new(p.node_labels.clone(), edges)
    }

    /// gSpan's canonical code of the pattern's graph, built greedily: the
    /// smallest seed, then the smallest extension until every edge is in.
    fn canonical_code(p: &Pattern) -> Pattern {
        let graph = own_graph(p);
        let graphs = std::slice::from_ref(&graph);
        let (tuple, mut embeddings) = seed_buckets(graphs).into_iter().next().unwrap();
        let mut code = Pattern::root(tuple);
        while code.edge_count() < p.edge_count() {
            let (tuple, grown) = extensions(&code, graphs, &embeddings)
                .into_iter()
                .next()
                .expect("a connected graph extends until every edge is in");
            code = code.extend(tuple);
            embeddings = grown;
        }
        code
    }

    /// One graph that random codes are grown over: a random small DAG, or
    /// a one-label symmetric shape (star, chain, triangles) with either
    /// arc direction.
    fn arb_host() -> impl Strategy<Value = InputGraph> {
        let dag = (2usize..=8, 1u32..=3).prop_flat_map(|(n, labels)| {
            (
                proptest::collection::vec(0..labels, n),
                proptest::collection::vec((0..n, 0..n, 1u8..3), 1..(n * 3)),
            )
                .prop_map(|(labels, raw)| {
                    let mut edges: Vec<GEdge> = Vec::new();
                    for (a, b, label) in raw {
                        let (from, to) = (a.min(b) as u32, a.max(b) as u32);
                        if from != to && !edges.iter().any(|e| (e.from, e.to) == (from, to)) {
                            edges.push(GEdge { from, to, label });
                        }
                    }
                    InputGraph::new(labels, edges)
                })
        });
        let symmetric = (0u8..5, 3usize..=8, any::<bool>()).prop_map(|(shape, n, flip)| {
            let pairs: Vec<(usize, usize)> = match shape {
                // Star: a hub joined to every leaf.
                0 => (1..n).map(|leaf| (0, leaf)).collect(),
                // Chain.
                1 => (1..n).map(|i| (i - 1, i)).collect(),
                // Chain with alternating arc directions.
                2 => (1..n)
                    .map(|i| if i % 2 == 0 { (i - 1, i) } else { (i, i - 1) })
                    .collect(),
                // A fan of triangles sharing node 0.
                3 => (1..n).flat_map(|i| [(0, i), (i - 1, i)]).skip(1).collect(),
                // Directed cycle (every node one in-arc, one out-arc).
                _ => (0..n).map(|i| (i, (i + 1) % n)).collect(),
            };
            let edges = pairs
                .into_iter()
                .map(|(a, b)| {
                    let (from, to) = if flip { (b, a) } else { (a, b) };
                    GEdge {
                        from: from as u32,
                        to: to as u32,
                        label: 1,
                    }
                })
                .collect();
            InputGraph::new(vec![0; n], edges)
        });
        prop_oneof![dag, symmetric]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Grows a random code by rightmost-path extensions over a host
        /// graph and checks every prefix: the min-only walk agrees with
        /// the full re-mine, and accepts exactly the greedy canonical code.
        #[test]
        fn min_walk_matches_reference(
            host in arb_host(),
            picks in proptest::collection::vec(any::<u32>(), 1..16),
        ) {
            let graphs = std::slice::from_ref(&host);
            let seeds = seed_buckets(graphs);
            if seeds.is_empty() {
                continue;
            }
            let pick = |n: usize, r: u32| (r as usize) % n;
            let first = pick(seeds.len(), picks[0]);
            let (tuple, mut embeddings) = seeds.into_iter().nth(first).expect("in range");
            let mut code = Pattern::root(tuple);
            let mut steps = picks[1..].iter();
            loop {
                let canonical = canonical_code(&code);
                prop_assert!(canonical.is_min() && reference_is_min(&canonical));
                prop_assert_eq!(code.is_min(), reference_is_min(&code), "{:?}", code);
                prop_assert_eq!(code.is_min(), code == canonical, "{:?}", code);
                let Some(&r) = steps.next() else {
                    break;
                };
                let exts = extensions(&code, graphs, &embeddings);
                if exts.is_empty() {
                    break;
                }
                // Every third step takes the smallest extension, which
                // keeps long canonical prefixes common.
                let choice = if r % 3 == 0 { 0 } else { pick(exts.len(), r / 3) };
                let (tuple, grown) = exts.into_iter().nth(choice).expect("in range");
                code = code.extend(tuple);
                embeddings = grown;
            }
        }
    }
}
