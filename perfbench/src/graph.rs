//! The graph family: `build_graph` over R-MAT edges, `cluster` (capped
//! label propagation) and `degree_buckets`, each checked.

use emcore::{EmContext, EmFile, Result};
use emgraph::{BuildOptions, ClusterOptions, Edge};

use crate::ledger::Iter;
use crate::shape::{CLUSTER_CAP, CLUSTER_ROUNDS, DEGREE_K};

/// Edges of the canonical graph of `pairs` (symmetrized, loop-free,
/// deduplicated), counted in RAM.
pub fn canonical_edges(pairs: &[(u64, u64)]) -> u64 {
    let mut canon: Vec<(u64, u64)> = pairs
        .iter()
        .filter(|(s, d)| s != d)
        .flat_map(|&(s, d)| [(s, d), (d, s)])
        .collect();
    canon.sort_unstable();
    canon.dedup();
    canon.len() as u64
}

/// One set-up of the graph family.
pub struct GraphSet {
    pub ctx: EmContext,
    raw: EmFile<Edge>,
    /// Canonical edges (symmetrized, loop-free, deduplicated), from RAM.
    want_edges: u64,
    /// Label digest of the run's first clustering; later ones must match.
    digest: Option<u64>,
}

impl GraphSet {
    /// Write the raw `pairs` to `ctx`; `want_edges` is the build oracle
    /// (see [`canonical_edges`]).
    pub fn setup(ctx: EmContext, pairs: &[(u64, u64)], want_edges: u64) -> Result<Self> {
        let raw = emgraph::edges_from_pairs(&ctx, pairs)?;
        Ok(GraphSet {
            ctx,
            raw,
            want_edges,
            digest: None,
        })
    }

    /// Build, cluster and bucket once.
    pub fn run_ops(&mut self, it: &mut Iter<'_>) {
        let ctx = self.ctx.clone();
        let before = ctx.stats().snapshot();
        let graph = it.op(&ctx, "graph_build", "emgraph.build_graph", || {
            emgraph::build_graph(&ctx, &self.raw, &BuildOptions::default())
        });
        let Some(graph) = graph else { return };
        it.check("build_graph", || graph.num_edges() == self.want_edges);

        let opts = ClusterOptions {
            rounds: CLUSTER_ROUNDS,
            max_cluster_size: CLUSTER_CAP,
        };
        let c = it.op(&ctx, "graph_cluster", "emgraph.cluster", || {
            emgraph::cluster(&graph, &opts)
        });
        if let Some(c) = c {
            let rounds = f64::from(c.rounds_run.max(1));
            let secs = it.last("graph_cluster_s");
            let ios = it.last("graph_cluster_ios");
            it.sample("emgraph.round_s", secs / rounds);
            it.sample("emgraph.ios_per_round", ios / rounds);
            it.sample(
                "emgraph.moves_per_round",
                c.moves.iter().sum::<u64>() as f64 / rounds,
            );
            let first = &mut self.digest;
            it.check("cluster", || {
                let digest = ctx.oracle(|| emgraph::labels_digest(&c.labels));
                let sizes = ctx.oracle(|| emgraph::cluster_sizes(&c.labels));
                match (digest, sizes) {
                    (Ok(d), Ok(sizes)) => {
                        d == *first.get_or_insert(d)
                            && sizes.iter().all(|&(_, n)| n <= CLUSTER_CAP)
                            && sizes.iter().map(|&(_, n)| n).sum::<u64>() == graph.vertices()
                    }
                    _ => false,
                }
            });
        }

        let buckets = it.op(
            &ctx,
            "emgraph.degree_buckets",
            "emgraph.degree_buckets",
            || emgraph::degree_buckets(&graph, DEGREE_K),
        );
        if let Some(b) = buckets {
            it.check("degree_buckets", || {
                apsplit::ProblemSpec::near_even(graph.vertices(), DEGREE_K)
                    .and_then(|spec| apsplit::verify_partitioning(b.parts(), &spec))
                    .is_ok_and(|r| r.ok)
            });
        }
        drop(graph);
        let io = ctx.stats().snapshot().since(&before);
        it.sample("graph_ios", io.logical_ios() as f64);
        it.sample("graph_physical_ios", io.physical_ios() as f64);
    }
}
