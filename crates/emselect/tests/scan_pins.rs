//! Pins the block I/O of the scan kernels (sampling, bucket counting,
//! distribution, three-way split) on a Zipf-tied, multi-segment input on
//! both backends. The literals are the counts of the record-at-a-time
//! kernels; a rewrite of the scan loops must reproduce them exactly.

use emcore::{Counters, EmConfig, EmContext, EmFile};
use emselect::{
    count_buckets_segs, distribute_segs, max_deterministic_fanout_n, sample_splitters_segs,
    three_way_split_segs, SplitterStrategy,
};
use workloads::Workload;

/// Segment lengths: none a multiple of `B = 16` nor of the sampler's load
/// capacity, one empty.
const SEGS: [usize; 4] = [1234, 0, 1767, 1999];

fn zipf_segs(ctx: &EmContext) -> Vec<EmFile<u64>> {
    let n: usize = SEGS.iter().sum();
    let keys = workloads::generate(Workload::ZipfLike { values: 64, s: 1.1 }, n as u64, 7);
    let mut at = 0;
    SEGS.iter()
        .map(|&len| {
            let f = ctx.oracle(|| EmFile::from_slice(ctx, &keys[at..at + len]));
            at += len;
            f.unwrap()
        })
        .collect()
}

fn ios<R>(ctx: &EmContext, run: impl FnOnce() -> R) -> (R, Counters) {
    let before = ctx.stats().snapshot();
    let r = run();
    (r, ctx.stats().snapshot().since(&before))
}

/// Counts of the record-at-a-time kernels, identical on both backends.
const PINNED: [(u64, u64); 5] = [(418, 104), (314, 0), (314, 0), (314, 314), (314, 313)];

/// `(reads, writes)` of each kernel, in the order sample (deterministic),
/// sample (randomized), count, distribute, three-way split.
fn kernel_ios(ctx: &EmContext) -> [(u64, u64); 5] {
    let segs = zipf_segs(ctx);
    let n: u64 = segs.iter().map(|s| s.len()).sum();
    let f = max_deterministic_fanout_n::<u64>(ctx, n);
    let (sp, det) = ios(ctx, || {
        sample_splitters_segs(ctx, &segs, f, SplitterStrategy::Deterministic).unwrap()
    });
    let (_, rnd) = ios(ctx, || {
        sample_splitters_segs(ctx, &segs, 8, SplitterStrategy::Randomized { seed: 5 }).unwrap()
    });
    let (counts, cnt) = ios(ctx, || count_buckets_segs(ctx, &segs, &sp).unwrap());
    let (buckets, dist) = ios(ctx, || distribute_segs(ctx, &segs, &sp).unwrap());
    let sizes: Vec<u64> = buckets.iter().map(|b| b.len()).collect();
    assert_eq!(sizes, counts, "distribution must match the bucket counts");
    // Pivot on the second most frequent key: the Zipf head falls below it,
    // the tail above, so all three outputs are non-empty.
    let ((less, equal, greater), three) = ios(ctx, || three_way_split_segs(ctx, &segs, 1).unwrap());
    assert_eq!(less.len() + equal.len() + greater.len(), n);
    assert!(!equal.is_empty() && !less.is_empty() && !greater.is_empty());
    [det, rnd, cnt, dist, three].map(|c| (c.reads, c.writes))
}

#[test]
fn scan_kernel_ios_pinned_memory() {
    let ctx = EmContext::new_in_memory(EmConfig::tiny());
    assert_eq!(kernel_ios(&ctx), PINNED);
}

#[test]
fn scan_kernel_ios_pinned_directory() {
    let ctx = EmContext::new_on_disk_temp(EmConfig::tiny()).unwrap();
    assert_eq!(kernel_ios(&ctx), PINNED);
}
