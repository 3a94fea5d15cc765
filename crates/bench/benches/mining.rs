//! Mining-time benchmarks: DgSpan vs Edgar over real benchmark DFGs —
//! the reproduction of the paper's §4.2 timing discussion (DgSpan ~50 s,
//! Edgar ~90 s per program on 2007 hardware; Edgar costs more because of
//! embedding lists and MIS computation), plus a fragment-size-cap sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use gpa_bench::compile;
use gpa_dfg::{build_all, LabelMode};
use gpa_mining::dfs_code::Pattern;
use gpa_mining::embed::extensions;
use gpa_mining::graph::{GEdge, InputGraph};
use gpa_mining::miner::{mine, Config, Support};

fn graphs_for(name: &str) -> Vec<InputGraph> {
    let image = compile(name, true);
    let program = gpa_cfg::decode_image(&image).expect("benchmark lifts");
    let dfgs = build_all(&program, LabelMode::Exact);
    InputGraph::from_dfgs(&dfgs).0
}

fn bench_support_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("mining_support");
    group.sample_size(10);
    for name in ["crc", "search", "sha"] {
        let graphs = graphs_for(name);
        group.bench_with_input(BenchmarkId::new("dgspan", name), &graphs, |b, graphs| {
            b.iter(|| {
                mine(
                    graphs,
                    &Config {
                        min_support: 2,
                        support: Support::Graphs,
                        max_nodes: 10,
                        max_patterns: 30_000,
                        ..Config::default()
                    },
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("edgar", name), &graphs, |b, graphs| {
            b.iter(|| {
                mine(
                    graphs,
                    &Config {
                        min_support: 2,
                        support: Support::Embeddings,
                        max_nodes: 10,
                        max_patterns: 30_000,
                        ..Config::default()
                    },
                )
            });
        });
    }
    group.finish();
}

fn bench_fragment_cap(c: &mut Criterion) {
    let graphs = graphs_for("crc");
    let mut group = c.benchmark_group("mining_max_nodes");
    group.sample_size(10);
    for cap in [4usize, 8, 12] {
        group.bench_with_input(BenchmarkId::from_parameter(cap), &cap, |b, &cap| {
            b.iter(|| {
                mine(
                    &graphs,
                    &Config {
                        min_support: 2,
                        support: Support::Embeddings,
                        max_nodes: cap,
                        max_patterns: 30_000,
                        ..Config::default()
                    },
                )
            });
        });
    }
    group.finish();
}

fn bench_parallel(c: &mut Criterion) {
    // The paper's companion work [33] reports shared-memory speedups for
    // exactly this workload; one detection round of the seed-task engine
    // claims seeds dynamically, so it scales until one seed's subtree
    // dominates the round.
    let program = gpa_cfg::decode_image(&compile("sha", true)).expect("benchmark lifts");
    let mut group = c.benchmark_group("mining_parallel");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        let config = gpa::graph_detect::GraphConfig {
            max_nodes: 8,
            max_patterns: 30_000,
            threads,
            ..gpa::graph_detect::GraphConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &config,
            |b, config| {
                b.iter(|| gpa::graph_detect::best_candidate(&program, config));
            },
        );
    }
    group.finish();
}

fn bench_dense_bucket(c: &mut Criterion) {
    // Regression guard for the `push_bucket` dedup rewrite: a star graph
    // funnels every seed embedding into one extension bucket, which the
    // old `Vec::contains` scan made quadratic in bucket size. With the
    // hash-set dedup, doubling the leaf count should roughly double the
    // per-bucket work, not quadruple it.
    let star = |leaves: u32| {
        let labels: Vec<u32> = std::iter::once(1)
            .chain(std::iter::repeat_n(2, leaves as usize))
            .collect();
        let edges: Vec<GEdge> = (1..=leaves)
            .map(|leaf| GEdge {
                from: 0,
                to: leaf,
                label: 1,
            })
            .collect();
        InputGraph::new(labels, edges)
    };
    let mut group = c.benchmark_group("mining_dense_bucket");
    group.sample_size(10);
    for leaves in [32u32, 64] {
        let graphs = vec![star(leaves)];
        group.bench_with_input(BenchmarkId::from_parameter(leaves), &graphs, |b, graphs| {
            b.iter(|| {
                mine(
                    graphs,
                    &Config {
                        min_support: 2,
                        support: Support::Embeddings,
                        max_nodes: 3,
                        max_patterns: 10_000,
                        ..Config::default()
                    },
                )
            });
        });
    }
    group.finish();
}

fn bench_is_min(c: &mut Criterion) {
    // The canonicality test runs once per lattice child. Time it over the
    // codes the miner reports on crc (all canonical: the walk runs every
    // prefix) and over those codes' non-canonical children (the rejects
    // that `mine.prune_non_canonical` counts).
    let graphs = graphs_for("crc");
    let reported = mine(
        &graphs,
        &Config {
            min_support: 2,
            support: Support::Embeddings,
            max_nodes: 8,
            max_patterns: 30_000,
            ..Config::default()
        },
    );
    let accepts: Vec<Pattern> = reported.iter().map(|f| f.pattern.clone()).collect();
    let rejects: Vec<Pattern> = reported
        .iter()
        .flat_map(|f| {
            extensions(&f.pattern, &graphs, &f.embeddings)
                .into_keys()
                .map(|tuple| f.pattern.extend(tuple))
                .filter(|child| !child.is_min())
                .collect::<Vec<_>>()
        })
        .collect();
    eprintln!(
        "is_min: {} canonical codes, {} non-canonical children",
        accepts.len(),
        rejects.len()
    );
    let mut group = c.benchmark_group("mining_is_min");
    group.sample_size(10);
    for (name, codes) in [("accept", &accepts), ("reject", &rejects)] {
        group.bench_with_input(BenchmarkId::from_parameter(name), codes, |b, codes| {
            b.iter(|| codes.iter().filter(|p| p.is_min()).count());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_support_modes,
    bench_fragment_cap,
    bench_parallel,
    bench_dense_bucket,
    bench_is_min
);
criterion_main!(benches);
