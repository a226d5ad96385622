//! The workloads and the fixed geometry every run uses.
//!
//! Every `EmConfig` is built with `EmConfig::builder()` and explicit
//! `workers`, `cache_blocks` and `device_latency_us`, so no environment
//! variable can change what is measured.

use emcore::EmConfig;
use emserve::ServeOptions;

/// Memory `M`, in records.
pub const M: usize = 1 << 18;
/// Block size `B`, in records.
pub const B: usize = 1 << 10;
/// Worker threads of every context.
pub const WORKERS: usize = 1;
/// Simulated device latency per physical transfer (none).
pub const DEVICE_LATENCY_US: u64 = 0;
/// Records in the batch input and in the served dataset.
pub const N: u64 = 1 << 22;

/// Partitions of the near-even `approx_partitioning`.
pub const K_PART: u64 = 64;
/// Ranks of the `multi_select`.
pub const SELECT_RANKS: u64 = 63;
/// Splitters sought by `approx_splitters`.
pub const K_SPLIT: u64 = 1024;
/// `a` of the right-grounded splitters call.
pub const RG_A: u64 = 16;

/// R-MAT scale (2^scale vertex ids) and raw edge count.
pub const GRAPH_SCALE: u32 = 17;
/// Raw R-MAT edges before symmetrization and deduplication.
pub const GRAPH_EDGES: u64 = 1 << 21;
/// Label-propagation rounds.
pub const CLUSTER_ROUNDS: u32 = 8;
/// Cluster-size cap.
pub const CLUSTER_CAP: u64 = 4096;
/// Degree buckets.
pub const DEGREE_K: u64 = 16;

/// Shards behind the serve `Router`.
pub const SHARDS: usize = 2;
/// Distinct hot ranks of the query mix.
pub const HOT_RANKS: u64 = 4096;
/// Zipf exponent over the hot ranks.
pub const ZIPF_S: f64 = 1.0;
/// Share of queries that ask a uniformly random rank instead.
pub const TAIL_SHARE: f64 = 0.1;

/// Where a workload's files live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Host RAM: no device transfer, codec or checksum.
    Memory,
    /// Real files under the run's temp root.
    Directory,
}

impl Backend {
    pub fn label(self) -> &'static str {
        match self {
            Backend::Memory => "memory",
            Backend::Directory => "directory",
        }
    }
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub backend: Backend,
    /// Key family of the batch input.
    pub keys: workloads::Workload,
    /// Block-cache frames of each serve context (a shard holds N/SHARDS/B blocks).
    pub serve_cache_blocks: usize,
    /// Records in the batch input and the served dataset.
    pub n: u64,
    /// Length of one iteration on the reference host (2-core x86-64 VM,
    /// 2.1 GHz), seconds. A run of `--seconds` does `seconds / iter_secs`
    /// iterations on any host, so every run does the same work and the
    /// serve index and the file system go through the same states.
    pub iter_secs: f64,
}

/// The workloads, by name. Each runs the batch, serve and graph families
/// so that every end-to-end metric is measured on every workload; they
/// differ in the properties the layers' costs depend on.
pub const SHAPES: [Shape; 2] = [
    // Memory backend, distinct keys, no cache: CPU per record in the
    // algorithms is nearly all of the time; the device path, checksums,
    // the block cache and tie handling are bypassed.
    Shape {
        name: "mem-uniform",
        backend: Backend::Memory,
        keys: workloads::Workload::UniformPerm,
        serve_cache_blocks: 0,
        n: N,
        iter_secs: 5.0,
    },
    // Directory backend, heavy ties, serve shards with a cache smaller
    // than the shard: device transfer, codec, checksum, BlockCache and
    // three-way splits all carry load.
    Shape {
        name: "disk-zipf",
        backend: Backend::Directory,
        keys: workloads::Workload::ZipfLike {
            values: N / 16,
            s: 1.0,
        },
        serve_cache_blocks: 512,
        n: N,
        iter_secs: 10.0,
    },
];

impl Shape {
    pub fn by_name(name: &str) -> Option<Shape> {
        SHAPES.iter().copied().find(|s| s.name == name)
    }

    fn config(cache_blocks: usize) -> EmConfig {
        Self::config_for_width(cache_blocks, 1)
    }

    /// The geometry counted in records `words` words wide, as the
    /// `apsplit::bounds` formulas take it for such records.
    pub fn config_for_width(cache_blocks: usize, words: usize) -> EmConfig {
        EmConfig::builder()
            .mem(M / words)
            .block(B / words)
            .workers(WORKERS)
            .cache_blocks(cache_blocks)
            .device_latency_us(DEVICE_LATENCY_US)
            .build()
            .expect("the benchmark geometry is valid")
    }

    /// Configuration of the batch and graph contexts (no cache).
    pub fn batch_config(&self) -> EmConfig {
        Self::config(0)
    }

    /// Configuration of the router and shard contexts.
    pub fn serve_config(&self) -> EmConfig {
        Self::config(self.serve_cache_blocks)
    }
}

/// Scheduler options of every shard, pinned to the values measured.
pub fn serve_options() -> ServeOptions {
    ServeOptions::builder()
        .batch_max(16)
        .batch_window(std::time::Duration::from_millis(2))
        .queue_depth(64)
        .refine(true)
        .deadline(None)
        .degraded(false)
        .build()
}
