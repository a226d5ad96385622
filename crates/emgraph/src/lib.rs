//! `emgraph` — semi-external graph partitioning and clustering on top
//! of the approximate-splitters stack.
//!
//! The paper's machinery (external sorting, approximate K-splitters and
//! K-partitioning) was built for flat record files; this crate shows it
//! carrying a real graph workload end to end, in the *semi-external*
//! model: the edge list always streams from external memory, while the
//! per-vertex state (one `u64` label per vertex) lives in RAM **only
//! when the memory governor grants it** — and degrades to windowed
//! streaming, not failure, when it doesn't.
//!
//! The pipeline:
//!
//! 1. **Build** ([`build_graph`]): a raw `(src, dst)` edge file is
//!    canonicalized by *one* external sort — the [`Edge`] record's key
//!    is the full pair, so grouping by source, neighbor ordering, and
//!    duplicate adjacency all fall out of the same sort — followed by a
//!    sequential dedup pass that emits the CSR offset index for free.
//! 2. **Cluster** ([`cluster`]): synchronous label propagation with an
//!    optional hard cluster-size cap. Every round streams the canonical
//!    edge file sequentially; proposals depend only on each vertex's
//!    round-start neighbor-label multiset, so the labeling is
//!    bit-identical across memory budgets, window sizes, worker counts,
//!    and backends. Rounds are checkpointed through the shared journal
//!    ([`ClusterManifest`]) — a crash redoes at most one round.
//! 3. **Bucket** ([`degree_buckets`], [`cluster_buckets`]): approximate
//!    K-partitioning buckets vertices by degree or by cluster id into
//!    near-even shards without sorting the score file.
//! 4. **Serve** ([`register_clustering`]): the label array registers as
//!    a rank-queryable dataset, answering "which cluster does the
//!    `p`-th vertex fall in" through the full serve stack.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bucket;
pub mod build;
pub mod cluster;
pub mod edge;
pub mod recover;
pub mod serve;

pub use bucket::{cluster_buckets, degree_buckets, score_buckets, Buckets};
pub use build::{build_graph, rebind_graph, BuildOptions, Graph};
pub use cluster::{count_clusters, labels_digest, ClusterOptions, Clustering};
pub use edge::{edges_from_pairs, Edge};
pub use recover::{cluster, ClusterManifest, CLUSTER_JOURNAL};
pub use serve::{cluster_sizes, register_cluster_sizes, register_clustering};
